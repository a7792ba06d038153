"""quantred: numerics for quantization versus symplectic reduction.

Compact Kähler models (products of projective spaces), Hamiltonian torus
actions, moment-map gradient flow and stratification, quantum Hilbert
spaces up- and downstairs, descent maps with and without the half-form
twist, stratified density integrals, and asymptotic unitarity defects.
"""

__version__ = "0.1.0"

from .errors import QuantredError
from .models import (
    Model,
    PointM,
    ChartFrame,
    make_model,
    frame_at,
    liouville_volume,
    check_prequantum,
    divergence_liouville,
)
from .actions import (
    WeightAction,
    IsotropyDescriptor,
    FlowPotentialReport,
    make_action,
    moment_map,
    fundamental_fields,
    imaginary_flow,
    isotropy,
    orbit_volume,
    flow_potential,
    norm_transport,
)
from .strata import (
    StratumLabel,
    ExtraPiece,
    FlowResult,
    kirwan_flow,
    is_semistable,
    enumerate_strata,
    sample_stratum,
)
from .sections import (
    SectionPoly,
    GramMatrix,
    basis_sections,
    invariant_basis,
    pointwise_norm,
    gram_upstairs,
)
from .reduction import (
    ReducedSection,
    descend,
    reduced_gram,
)
from .asymptotics import (
    DensityCurve,
    density_I,
    density_J,
    residual_II,
    unitarity_defect,
    norm_split_consistency,
)

__all__ = [
    "QuantredError",
    "Model", "PointM", "ChartFrame", "make_model", "frame_at",
    "liouville_volume", "check_prequantum", "divergence_liouville",
    "WeightAction", "IsotropyDescriptor", "FlowPotentialReport",
    "make_action", "moment_map", "fundamental_fields", "imaginary_flow",
    "isotropy", "orbit_volume", "flow_potential", "norm_transport",
    "StratumLabel", "ExtraPiece", "FlowResult", "kirwan_flow",
    "is_semistable", "enumerate_strata", "sample_stratum",
    "SectionPoly", "GramMatrix", "basis_sections", "invariant_basis",
    "pointwise_norm", "gram_upstairs",
    "ReducedSection", "descend", "reduced_gram",
    "DensityCurve", "density_I", "density_J", "residual_II",
    "unitarity_defect", "norm_split_consistency",
]
