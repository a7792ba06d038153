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
    make_model,
)
from .actions import (
    WeightAction,
    IsotropyDescriptor,
    make_action,
    moment_map,
    imaginary_flow,
    isotropy,
    orbit_volume,
)
from .strata import (
    StratumLabel,
    ExtraPiece,
    FlowResult,
    kirwan_flow,
    sample_stratum,
)
from .sections import (
    GramMatrix,
    gram_upstairs, grams_upstairs,
)
from .reduction import (
    reduced_gram,
    reduced_grams,
)
from .asymptotics import (
    density_I,
    density_J,
    residual_II,
    unitarity_defect,
    norm_split_consistency,
)

__all__ = [
    "QuantredError",
    "Model", "make_model",
    "WeightAction", "IsotropyDescriptor", "make_action", "moment_map", "imaginary_flow",
    "isotropy", "orbit_volume",
    "StratumLabel", "ExtraPiece", "FlowResult", "kirwan_flow", "sample_stratum",
    "GramMatrix", "gram_upstairs", "grams_upstairs",
    "reduced_gram", "reduced_grams",
    "density_I", "density_J", "residual_II",
    "unitarity_defect", "norm_split_consistency",
]
