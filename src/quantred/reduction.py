"""Descent to the quotient: restriction maps, the corrected pointwise norm,
reduced Gram matrices, and the push-down contraction oracle.

Descent is basis-preserving: an invariant monomial corresponds to its class
downstairs, so the matrix of the descent map in matched bases is the
identity and all unitarity questions live in the Gram matrices, which are
diagonal on both sides (distinct monomials are torus-orthogonal).  The
corrected pointwise norm on a stratum with stabilizer H is

    |B' r|^2([x]) = |r|^2(x)                    if H = G,
    |B' r|^2([x]) = 2^{-m/2} vol(G.x) |r|^2(x)  otherwise,

with m = dim(G/H) and vol the geometric (finite-part-corrected) orbit
volume.  The independent oracle for the factor contracts the restricted
Liouville form with the complexified orbit directions, which reproduces
2^{-m} vol_Gram^2 against the reduced volume form.
"""

from dataclasses import dataclass, field

import numpy as np

from . import actions as ta
from . import models
from . import strata
from . import sections
from .errors import QuantredError
from .integrate import TWO_PI, as_quad, rng_for
from .models import as_coords


class ReductionError(QuantredError, ValueError):
    pass


@dataclass
class ReducedSection:
    """Descent of an invariant section: upstairs data plus stratum samples."""

    upstairs: sections.SectionPoly
    twist: str
    stratum_values: dict = field(default_factory=dict)

    def norm_squared_at(self, action, point, iso=None):
        val = sections.pointwise_norm(self.upstairs, point)
        if self.twist == "plain":
            return val
        return descent_norm_factor(action, point, iso) * val


def descend(action, section):
    """Restriction of an invariant section to the zero level (A'_k or B'_k).

    The section must be G-invariant; monomial inputs are checked exactly
    against the weight-lattice equation.
    """
    exps = section.exponents
    inv = sections.invariant_exponents(action, section.k, section.twist)
    inv_set = {tuple(map(int, r)) for r in inv}
    for row in exps:
        if tuple(map(int, row)) not in inv_set:
            raise ReductionError("section is not G-invariant")
    rsec = ReducedSection(upstairs=section, twist=section.twist)
    strat = strata.analyze(action)
    for lab in strat.strata:
        z = lab.representative
        rsec.stratum_values[lab.key] = rsec.norm_squared_at(action, z, lab.isotropy)
    return rsec


def descent_norm_factor(action, point, iso=None):
    """Pointwise descent factor for half-form sections at a zero-level point.

    A batch of points, shape (N, ncoords), needs their common `iso`.
    """
    z = as_coords(action.model, point)
    if iso is None:
        iso = ta.isotropy(action, z)
    if iso.is_full:
        return 1.0
    m = action.rank - iso.dim
    vol, _ = ta.orbit_volume(action, z, iso)
    return 2.0 ** (-m / 2.0) * vol / iso.finite_part


# ----------------------------------------------------------------------
# the contraction oracle (independent route to the descent factor)


def _omega_complex(g, a, b):
    """omega on complexified tangent vectors given as (hol, antihol) pairs."""
    ah, aa = a
    bh, ba = b
    return 1j * (ah @ g @ ba - bh @ g @ aa)


def contraction_factor(action, point, fd_step=1e-6):
    """sqrt of the Liouville-contraction ratio at a zero-level point.

    Evaluates eps restricted to the complexified stratum on the orbit
    directions Z^j = (X^j - i J X^j)/2, their conjugates, and a basis of the
    remaining stratum directions, divided by the reduced volume form on the
    same basis.  Equals 2^{-m/2} vol_Gram(G.x) by the push-down identity.
    """
    model = action.model
    z = as_coords(model, point)
    iso = ta.isotropy(action, z)
    if iso.is_full:
        return 1.0
    mb = ta.m_basis(action, iso)
    m = mb.shape[0]
    charts = models.chart_indices(model, z)
    w0 = models.to_chart(model, z, charts)
    g = models.chart_metric(model, w0)
    # orbit directions as chart velocities
    xs = []
    for a in range(m):
        X, _ = ta.fundamental_fields(action, mb[a], z)
        xs.append(models.ambient_to_chart(model, z, X, charts))
    # tangent of Z_(H) at z, minus the orbit directions
    s_basis, _, _ = ta.level_tangent_basis(action, z)
    comp = []
    for v in s_basis:
        u = v.astype(complex)
        for q in xs + [1j * np.asarray(x) for x in xs]:
            q = np.asarray(q)
            nq = models.metric_pairing(g, q, q)
            if nq > 1e-20:
                u = u - (models.metric_pairing(g, u, q) / nq) * q
        for q in comp:
            u = u - models.metric_pairing(g, u, q) * q
        nu = models.metric_pairing(g, u, u)
        if nu > 1e-12:
            comp.append(u / np.sqrt(nu))
    # expected complement dimension: 2 dim_S = dim Z - m (orbit dirs inside Z)
    zvecs = [(x, np.zeros_like(x)) for x in xs]
    zbar = [(np.zeros_like(x), np.conj(x)) for x in xs]
    vvecs = [(u, np.conj(u)) for u in comp]
    big = zvecs + zbar + vvecs
    n_big = len(big)
    A = np.zeros((n_big, n_big), dtype=complex)
    for i in range(n_big):
        for j in range(i + 1, n_big):
            A[i, j] = _omega_complex(g, big[i], big[j])
            A[j, i] = -A[i, j]
    n_v = len(vvecs)
    Av = np.zeros((n_v, n_v), dtype=complex)
    for i in range(n_v):
        for j in range(i + 1, n_v):
            Av[i, j] = _omega_complex(g, vvecs[i], vvecs[j])
            Av[j, i] = -Av[i, j]
    # only |Pf| enters, and Pf(A)^2 = det(A) for antisymmetric A
    lhs = np.sqrt(abs(np.linalg.det(A)))
    rhs = np.sqrt(abs(np.linalg.det(Av)))
    if rhs < 1e-300:
        raise ReductionError("degenerate reduced volume form in contraction oracle")
    return float(np.sqrt(lhs / rhs))


# ----------------------------------------------------------------------
# reduced Gram matrices


def stratum_gram(action, lab, exps, twist, quad, tag="down"):
    """Integral over the quotient stratum of the descended pointwise norms.

    Returns (diagonal, stderr) of int_S |desc_a|^2 eps_hat; the off-diagonal
    pairs integrate to 0 (distinct monomials are torus-orthogonal).  The
    grid route uses Gauss nodes of the Duistermaat-Heckman measure on the
    level slice, and a half-order rerun as its error estimate; the mc route
    samples the slice and the phases, with block standard errors.  A
    zero-dimensional stratum is its one node.
    """
    quad = as_quad(quad)
    model = action.model
    sl = lab.level_slice

    if quad.method == "mc":
        rng = rng_for(quad.seed, "reduced", tag)
        count = max(256, quad.samples // 10)
        pts, wts = strata.sample_stratum(action, lab, count, rng.integers(2**32))
        if not np.any(wts > 0):
            raise ReductionError("no stratum sample landed in the slice polytope")
        if twist == "halfform":
            wts = wts * descent_norm_factor(action, pts, lab.isotropy)
        terms = wts[:, None] * sections.monomial_norms(model, exps, pts, twist)
        nblk = max(4, quad.blocks)
        per = count // nblk
        blocks = terms[: nblk * per].reshape(nblk, per, -1).sum(axis=1) * (count / per)
        return terms.sum(axis=0), blocks.std(axis=0, ddof=1) / np.sqrt(nblk)

    def diagonal(order):
        z, _, w = strata.slice_quadrature(action, sl, order)
        if twist == "halfform":
            w = w * descent_norm_factor(action, z, lab.isotropy)
        return w @ sections.monomial_norms(model, exps, z, twist)

    diag = diagonal(quad.grid_order)
    return diag, np.abs(diag - diagonal(max(8, quad.grid_order // 2)))


def reduced_gram(action, k, twist="plain", norm_def=1, quad=None, strat=None):
    """Gram of the descended basis under Definition (1) or (2) downstairs."""
    quad = as_quad(quad)
    exps = sections.invariant_exponents(action, k, twist)
    ids = [tuple(map(int, r)) for r in exps]
    diag, err, per = np.zeros(len(ids)), np.zeros(len(ids)), {}
    if ids:
        strat = strat or strata.analyze(action)
        for lab in [strat.open_stratum()] if norm_def == 1 else strat.strata:
            sub, suberr = stratum_gram(action, lab, exps, twist, quad, tag=("down", k, twist, lab.key))
            pref = (k / TWO_PI) ** (lab.dim_S / 2.0)
            per[lab.key] = pref * sub
            diag = diag + pref * sub
            err = np.sqrt(err**2 + (pref * suberr) ** 2)
    return sections.GramMatrix(basis_ids=ids, diagonal=diag, stderr=err, norm_def=norm_def,
                               k=k, twist=twist, per_stratum=per)


# ----------------------------------------------------------------------
# the boundedness probe of the modified-isomorphism proof


def boundedness_probe(action, samples=24, seed=0, k_grid=(1, 2, 4, 8, 16, 32, 64), t_grid=(1.0, 1.5, 2.5, 4.0)):
    """Smallest k in the grid with 2 k phi_xi + div/2 >= 0 on sampled rays, t >= 1."""
    rng = rng_for(seed, "boundedness")
    model = action.model
    pts = models.random_points(model, samples, rng)
    d = action.rank
    dirs = rng.standard_normal((8, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = -np.inf  # max over rays of -div/(4 phi) where phi > 0; inf if phi <= 0
    feasible = True
    for z in pts:
        if strata.is_semistable(action, z, tol=1e-14) == "unsemistable":
            continue
        for xi in dirs:
            for t in t_grid:
                y = ta.imaginary_flow(action, xi, t, z)
                phi = float(ta.moment_map(action, y) @ xi)
                div = ta.pointwise_divergence(action, xi, y)
                if phi > 1e-12:
                    worst = max(worst, -div / (4.0 * phi))
                elif div < 0:
                    feasible = False
    if not feasible:
        return None
    for k in k_grid:
        if k >= worst:
            return k
    return None
