"""Quantum Hilbert spaces upstairs: monomial bases, invariant subspaces,
pointwise norms, and Gram matrices under both inner-product definitions.

Sections of L^k are multi-homogeneous polynomials of per-factor degree
k*l_j; the half-form twist shifts the degrees to k*l_j - (n_j+1)/2.  The
package works in the monomial basis, one exponent row per section.  On
unit-normalized coordinates the plain pointwise norm square of a monomial
is simply |z^alpha|^2; the twisted norm carries the half-form frame factor
(mu, mu), which is the constant prod_j l_j^{-n_j/2} (`halfform_frame`).
The chart evaluation from mu^2 wedge conj(mu^2) against the Liouville form
(`halfform_factor`) is kept as its reference.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import models
from . import strata
from .errors import QuantredError
from .integrate import as_quad, rng_for
from .models import TWO_PI


class SectionError(QuantredError, ValueError):
    pass


def section_degrees(model, k, twist):
    if twist == "plain":
        return tuple(k * l for l in model.bundle_degrees)
    if twist == "halfform":
        return model.halfform_degrees(k)
    raise SectionError(f"unknown twist {twist!r}")


def _compositions(total, parts):
    """Compositions of total into parts nonnegative parts, lexicographic (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(total + parts - 1), parts - 1)), dtype=int)
    return np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, total + parts - 1)), axis=1) - 1


def basis_exponents(model, k, twist):
    """Exponent matrix of the monomial basis, shape (dim, ncoords): lexicographic, first factor slowest."""
    degs = section_degrees(model, k, twist)
    rows = np.zeros((1, 0), dtype=int)
    for sl, d in zip(model.slices, degs):
        if d < 0:
            raise SectionError("negative twisted degree: k too small for this twist")
        block = _compositions(d, sl.stop - sl.start)
        rows = np.hstack([np.repeat(rows, len(block), axis=0), np.tile(block, (len(rows), 1))])
    return rows


def invariant_exponents(action, k, twist="plain"):
    """Monomial exponents of the G-invariant subspace.

    A monomial z^alpha is invariant iff W alpha + k c (+ sigma/2 for the
    half-form twist, sigma the per-generator sum of all weights) vanishes.
    """
    if not action.lift_integral(k):
        raise SectionError("lift integrality: k * shift is not an integer vector")
    target = [-(k * c) for c in action.shift]
    if twist == "halfform":
        sigma = [sum(row) for row in action.weights]
        target = [t - Fraction(s, 2) for t, s in zip(target, sigma)]
    if any(t.denominator != 1 for t in target):
        return np.zeros((0, action.model.ncoords), dtype=int)
    tgt = np.asarray([int(t) for t in target])
    exps = basis_exponents(action.model, k, twist)
    W = np.asarray(action.weights, dtype=int)
    keep = np.all(exps @ W.T == tgt, axis=1)
    return exps[keep]


# ----------------------------------------------------------------------
# evaluation


def _monomial_powers(base, exponents):
    """prod_i base_i^{e_i} for each exponent row e, shape (..., nrows).

    Uses logs for speed; bases that vanish are handled by masking (a zero
    base with positive exponent kills the monomial).
    """
    expo = np.asarray(exponents, dtype=float)
    zero = np.abs(base) < 1e-300
    out = np.exp(np.log(np.where(zero, 1.0, base)) @ expo.T)
    if np.any(zero):
        dead = (np.asarray(zero, dtype=float) @ (expo.T > 0)) > 0
        out = np.where(dead, 0.0, out)
    return out


def evaluate_monomials(exponents, z):
    """Values prod_i z_i^{alpha_i} for a batch of points, shape (..., nbasis)."""
    return _monomial_powers(np.asarray(z, dtype=complex), exponents)


def halfform_frame(model):
    """(mu, mu) of the monomial half-form frame: the constant prod_j l_j^{-n_j/2}.

    The twisted pointwise norm of a degree-(k l_j - (n_j+1)/2) polynomial P
    on unit-normalized coordinates is |P(z)|^2 times this factor.
    """
    return math.prod(float(l) ** (-n / 2.0) for n, l in zip(model.factors, model.bundle_degrees))


def halfform_factor(model, z):
    """Pointwise (mu, mu) of the monomial half-form frame, shape (...,).

    The numeric chart evaluation |z_c|^{n_j+1} (mu_c, mu_c) with
    (mu_c, mu_c) = det g(w)^{-1/2} read off from mu_c^2 wedge conj(mu_c^2)
    against the Liouville form: the reference for `halfform_frame`, which
    production paths use.
    """
    zin = np.asarray(z, dtype=complex)
    z = np.atleast_2d(zin)
    out = np.empty(z.shape[0])
    charts_per_row = np.empty((z.shape[0], len(model.factors)), dtype=int)
    for jj, sl in enumerate(model.slices):
        charts_per_row[:, jj] = sl.start + np.argmax(np.abs(z[:, sl]), axis=1)
    for charts in np.unique(charts_per_row, axis=0):
        rows = np.all(charts_per_row == charts, axis=1)
        w = models.to_chart(model, z[rows], tuple(charts))
        g = models.chart_metric(model, w)
        det = np.real(np.linalg.det(g))
        fac = det ** (-0.5)
        for c, nj in zip(charts, model.factors):
            fac = fac * np.abs(z[rows, c]) ** (nj + 1)
        out[rows] = fac
    return out[0] if zin.ndim == 1 else out


def monomial_norms(model, exps, z, twist="plain"):
    """Pointwise norm squares |s_a(z_n)|^2 of the monomials, shape (N, dim).

    Rows are points (unit-normalized per factor), columns the monomial
    exponent rows; |z^alpha|^2 = prod_i |z_i|^{2 alpha_i}, by the same
    log evaluation as `evaluate_monomials` but in real arithmetic, times the
    half-form frame for the half-form twist.
    """
    vals = _monomial_powers(np.abs(np.atleast_2d(z)), 2 * np.asarray(exps, dtype=float))
    if twist == "halfform":
        vals = vals * halfform_frame(model)
    return vals


# ----------------------------------------------------------------------
# Gram matrices upstairs


@dataclass
class GramMatrix:
    """Gram matrix of an invariant monomial basis, up- or downstairs.

    Distinct monomials are torus-orthogonal, so the Gram is diagonal under
    both norm definitions and on both sides; `diagonal` holds its entries
    and `stderr` their standard errors (0 on the exact routes; Monte Carlo
    routes estimate the diagonal only); `cli` writes the square JSON layout
    from the vectors.  `matrix`, the square form, stays only because the
    `perfbench` workload `E3HalfformMC.prepare` reads it.  `per_stratum`
    (downstairs only) maps each stratum key to its contribution to the diagonal.
    """

    basis_ids: list
    diagonal: np.ndarray
    stderr: np.ndarray
    norm_def: int
    k: int
    twist: str
    per_stratum: dict = None
    flags: list = field(init=False)

    def __post_init__(self):
        rel = self.stderr / np.maximum(np.abs(self.diagonal), 1e-300)
        over = (rel > 0.2) & (np.abs(self.diagonal) > 1e-14)
        self.flags = ["entry_error_over_20_percent"] if np.any(over) else []

    @property
    def dim(self):
        return len(self.diagonal)

    @property
    def matrix(self):
        return np.diag(self.diagonal).astype(complex)


def monomial_integral_on_pattern(model, pattern, alpha):
    """int over the closed pattern subvariety of prod p_i^{alpha_i} d eps.

    Dirichlet moments of the per-factor sphere measure; the restricted form
    on a coordinate CP^{|R_j|-1} is l_j times its Fubini-Study form.  Returns
    0 when alpha charges a coordinate off the pattern.
    """
    out = 1.0
    for sup, sl, l in zip(pattern, model.slices, model.bundle_degrees):
        aa = [int(alpha[i]) for i in range(sl.start, sl.stop)]
        if any(a > 0 and i + sl.start not in sup for i, a in enumerate(aa)):
            return 0.0
        nR = len(sup) - 1
        asup = [int(alpha[i]) for i in sup]
        num = 1.0
        for a in asup:
            num *= math.factorial(a)
        out *= (l * TWO_PI) ** nR * num / math.factorial(sum(asup) + nR)
    return out


def _full_pattern(model):
    return tuple(tuple(range(sl.start, sl.stop)) for sl in model.slices)


def _pattern_gram_mc(action, exps, twist, pattern, quad, tag):
    """Monte Carlo Gram diagonal over a closed pattern subvariety.

    Uniform sphere samples on the support coordinates are Fubini-Study
    uniform on the subvariety; per-block means of the pointwise norm
    squares are accumulated chunk-wise and the block spread gives the
    per-entry standard error.  Returns (diagonal, stderr).
    """
    model = action.model
    rng = rng_for(quad.seed, "gram", tag)
    nblk = max(4, quad.blocks)
    per = max(64, quad.samples // nblk)
    vol = 1.0
    for sup, l in zip(pattern, model.bundle_degrees):
        nR = len(sup) - 1
        vol *= (l * TWO_PI) ** nR / math.factorial(nR)
    means = np.empty((nblk, exps.shape[0]))
    for b in range(nblk):
        z = np.zeros((per, model.ncoords), dtype=complex)
        for sup in pattern:
            dim = len(sup)
            blk = rng.standard_normal((per, dim)) + 1j * rng.standard_normal((per, dim))
            z[:, list(sup)] = blk / np.linalg.norm(blk, axis=1, keepdims=True)
        means[b] = monomial_norms(model, exps, z, twist).mean(axis=0)
    err = means.std(axis=0, ddof=1) / np.sqrt(nblk)
    return vol * means.mean(axis=0), vol * err


def gram_upstairs(action, k, twist="plain", norm_def=1, quad=None, strat=None):
    """Gram matrix of the invariant basis under Definition (1) or (2).

    Definition (1) integrates over the open dense preimage piece, which has
    full measure, so it is the ambient integral with prefactor
    (k/2pi)^{n/2}.  Definition (2) adds every other piece that
    `Stratification.preimage` lists for some stratum, with its own
    dimension prefactor, integrated over the closure of its support
    pattern; zero-dimensional pieces contribute point values.  The ambient
    is the open stratum's complexification where 0 is interior to phi(M)
    and an extra piece where 0 lies on its boundary.
    """
    quad = as_quad(quad)
    model = action.model
    exps = invariant_exponents(action, k, twist)
    ids = [tuple(map(int, row)) for row in exps]
    if not ids:
        return GramMatrix(basis_ids=ids, diagonal=np.zeros(0), stderr=np.zeros(0), norm_def=norm_def,
                          k=k, twist=twist)

    def on_pattern(pattern, tag):
        if quad.method == "mc":
            return _pattern_gram_mc(action, exps, twist, pattern, quad, (k, twist) + tag)
        return _gram_exact_on_pattern(action, exps, twist, pattern)

    pref = (k / TWO_PI) ** (model.n_total / 2.0)
    ambient = _full_pattern(model)
    diag, err = on_pattern(ambient, ("ambient",))
    diag, err = pref * diag, pref * err
    if norm_def == 2:
        strat = strat or strata.analyze(action)
        terms = [(dim_piece, pattern, ("gz", lab.key) if i == 0 else ("piece", lab.key, pattern))
                 for lab in strat.strata for i, (dim_piece, pattern, _) in enumerate(strat.preimage(lab))
                 if pattern != ambient]
        for dim_piece, pattern, tag in terms:
            prefp = (k / TWO_PI) ** (dim_piece / 2.0)
            point = dim_piece == 0  # on a point the Dirichlet moment is the point value, whatever the route
            sub, suberr = _gram_exact_on_pattern(action, exps, twist, pattern) if point else on_pattern(pattern, tag)
            diag = diag + prefp * sub
            err = np.sqrt(err**2 + (prefp * suberr) ** 2)
    return GramMatrix(basis_ids=ids, diagonal=diag, stderr=err, norm_def=norm_def, k=k, twist=twist)


def _gram_exact_on_pattern(action, exps, twist, pattern):
    """Exact Gram diagonal over a closed pattern subvariety: Dirichlet
    moments, with zero error.  Returns (diagonal, stderr)."""
    model = action.model
    frame = halfform_frame(model) if twist == "halfform" else 1.0
    diag = [frame * monomial_integral_on_pattern(model, pattern, row) for row in exps]
    return np.asarray(diag, dtype=float), np.zeros(exps.shape[0])
