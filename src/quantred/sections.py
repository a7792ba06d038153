"""Quantum Hilbert spaces upstairs: monomial bases, invariant subspaces,
pointwise norms, and Gram matrices under both inner-product definitions.

Sections of L^k are multi-homogeneous polynomials of per-factor degree
k*l_j; the half-form twist shifts the degrees to k*l_j - (n_j+1)/2.  The
package works in the monomial basis, one exponent row per section.  On
unit-normalized coordinates the plain pointwise norm square of a monomial
is simply |z^alpha|^2; the twisted norm carries the half-form frame factor
(mu, mu), which is the constant prod_j l_j^{-n_j/2} (`halfform_frame`).
The chart evaluation from mu^2 wedge conj(mu^2) against the Liouville form
(`halfform_factor`) is kept as its reference.  Upstairs Gram entries are
exact Dirichlet moments on every route, whatever `quad.method` says; their
Monte Carlo oracle is `pattern_gram_mc_by_block` in the tests' reference
module.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import models
from . import strata
from .errors import QuantredError
from .models import TWO_PI


class SectionError(QuantredError, ValueError):
    pass


def section_degrees(model, k, twist):
    if twist == "plain":
        return tuple(k * l for l in model.bundle_degrees)
    if twist == "halfform":
        return model.halfform_degrees(k)
    raise SectionError(f"unknown twist {twist!r}")


def _partial_exponents(degs, sizes):
    """Exponent rows on sizes[j] coordinates of each factor j, factor by factor,
    with per-factor sums at most d_j: the compositions of d_j into sizes[j] + 1
    parts without their last part, the slack (stars and bars)."""
    rows = np.zeros((1, 0), dtype=int)
    for d, size in zip(degs, sizes):
        if size:
            block = np.array(list(itertools.combinations(range(d + size), size)), dtype=int)
            block[:, 1:] -= block[:, :-1] + 1
            rows = np.hstack([np.repeat(rows, len(block), axis=0), np.tile(block, (len(rows), 1))])
    return rows


def invariant_exponents(action, k, twist="plain"):
    """Monomial exponents of the G-invariant subspace, lexicographic, first factor slowest.

    A monomial z^alpha is invariant iff W alpha + k c (+ sigma/2 for the
    half-form twist, sigma the per-generator sum of all weights) vanishes.
    The last coordinate of each factor takes the rest of its degree d_j, so
    the condition reads W_rel alpha' = t - sum_j d_j W_last(j) on the other
    coordinates alpha'.  Those split into two halves, each enumerated with
    per-factor sums <= d_j; the halves meet on their share of W_rel alpha'
    (sort and searchsorted), and rows whose last coordinates come out
    negative are dropped.  The cost grows with the halves and the invariant
    rows, not with the whole basis.
    """
    if not action.lift_integral(k):
        raise SectionError("lift integrality: k * shift is not an integer vector")
    model = action.model
    target = [-(k * c) for c in action.shift]
    if twist == "halfform":
        sigma = [sum(row) for row in action.weights]
        target = [t - Fraction(s, 2) for t, s in zip(target, sigma)]
    if any(t.denominator != 1 for t in target):
        return np.zeros((0, model.ncoords), dtype=int)
    degs = section_degrees(model, k, twist)
    if any(d < 0 for d in degs):
        raise SectionError("negative twisted degree: k too small for this twist")
    W = np.asarray(action.weights, dtype=int)
    last = [sl.stop - 1 for sl in model.slices]
    owner = [j for j, sl in enumerate(model.slices) for _ in range(sl.start, sl.stop - 1)]
    cols = [i for sl in model.slices for i in range(sl.start, sl.stop - 1)]
    W_rel = W[:, cols] - W[:, [last[j] for j in owner]]
    t_rel = np.asarray([int(t) for t in target]) - W[:, last] @ np.asarray(degs)
    cut = len(cols) // 2
    halves = [_partial_exponents(degs, [part.count(j) for j in range(len(degs))]) for part in (owner[:cut], owner[cut:])]
    keys = np.vstack([t_rel - halves[0] @ W_rel[:, :cut].T, halves[1] @ W_rel[:, cut:].T])
    by_key = np.lexsort(keys.T)
    ids = np.empty(len(keys), dtype=int)
    ids[by_key] = np.concatenate(([0], np.cumsum(np.any(keys[by_key[1:]] != keys[by_key[:-1]], axis=1))))
    cut_rows = len(halves[0])
    left, right = ids[:cut_rows], ids[cut_rows:]
    order = by_key[by_key >= cut_rows] - cut_rows  # the right half's rows, sorted by key
    lo, hi = np.searchsorted(right[order], left, "left"), np.searchsorted(right[order], left, "right")
    counts = hi - lo
    pair_a = np.repeat(np.arange(len(left)), counts)
    pair_b = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
    exps = np.zeros((len(pair_a), model.ncoords), dtype=int)
    exps[:, cols[:cut]], exps[:, cols[cut:]] = halves[0][pair_a], halves[1][pair_b]
    for j, sl in enumerate(model.slices):
        exps[:, last[j]] = degs[j] - exps[:, sl.start : sl.stop - 1].sum(axis=1)
    exps = exps[np.all(exps[:, last] >= 0, axis=1)]
    return exps[np.lexsort(exps.T[::-1])]


# ----------------------------------------------------------------------
# evaluation


def _monomial_powers(base, exponents):
    """prod_i base_i^{e_i} for each exponent row e, shape (..., nrows).

    Uses logs for speed; bases that vanish (modulus below 1e-300; real bases
    are masses, nonnegative) are handled by masking (a zero base with
    positive exponent kills the monomial).
    """
    expo = np.asarray(exponents, dtype=float)
    zero = (np.abs(base) if np.iscomplexobj(base) else base) < 1e-300
    if not np.any(zero):
        return np.exp(np.log(base) @ expo.T)
    out = np.exp(np.log(np.where(zero, 1.0, base)) @ expo.T)
    dead = (np.asarray(zero, dtype=float) @ (expo.T > 0)) > 0
    return np.where(dead, 0.0, out)


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


def monomial_norms(model, exps, p, twist="plain"):
    """Pointwise norm squares |s_a|^2 of the monomials from coordinate masses, shape (N, dim).

    Rows are points given by their per-factor-normalized masses p_i =
    |z_i|^2 (`models.masses`), shape (N, ncoords) or only the coordinates
    that exps has columns for; columns of the result are the monomial
    exponent rows: |z^alpha|^2 = prod_i p_i^{alpha_i}, evaluated in real
    arithmetic as exp(log p @ alpha) with zero masses masked, times the
    half-form frame for the half-form twist.
    """
    vals = _monomial_powers(np.atleast_2d(p), exps)
    if twist == "halfform":
        vals *= halfform_frame(model)
    return vals


# ----------------------------------------------------------------------
# Gram matrices upstairs


@dataclass
class GramMatrix:
    """Gram matrix of an invariant monomial basis, up- or downstairs.

    Distinct monomials are torus-orthogonal, so the Gram is diagonal under
    both norm definitions and on both sides; `diagonal` holds its entries
    and `stderr` their errors: 0 upstairs, where every entry is exact;
    downstairs the grid rule's error estimate or the Monte Carlo block error
    (that route estimates the diagonal only); `cli` writes the square JSON layout
    from the vectors.  `matrix`, the square form, stays only because the
    `perfbench` workload `E3HalfformMC.prepare` reads it.  `per_stratum` (downstairs only) maps each
    stratum key to its contribution to the diagonal.  `flags` names errors over 20% and diagonals <= 0.
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
        if np.any(self.diagonal <= 0):  # a live invariant monomial has a positive norm on every route
            self.flags.append("diagonal_underflow")

    @property
    def dim(self):
        return len(self.diagonal)

    @property
    def matrix(self):
        return np.diag(self.diagonal).astype(complex)


def _full_pattern(model):
    return tuple(tuple(range(sl.start, sl.stop)) for sl in model.slices)


def grams_upstairs(action, ks, twist="plain", norm_def=1, strat=None, exps=None):
    """Grams of the invariant basis under Definition (1) or (2), one per k in ks.

    Definition (1) integrates over the open dense preimage piece, which has
    full measure, so it is the ambient integral with prefactor
    (k/2pi)^{n/2}.  Definition (2) adds every other piece that
    `Stratification.preimage` lists for some stratum, with its own
    dimension prefactor, integrated over the closure of its support
    pattern; zero-dimensional pieces contribute point values.  The ambient
    is the open stratum's complexification where 0 is interior to phi(M)
    and an extra piece where 0 lies on its boundary.  Every term is an
    exact Dirichlet moment (`_gram_exact_on_pattern`), so stderr is 0.
    `exps`, if given, holds each k's invariant exponents.
    """
    model = action.model
    exps = [invariant_exponents(action, k, twist) for k in ks] if exps is None else exps
    ambient = _full_pattern(model)
    terms = [(model.n_total, ambient)]
    if norm_def == 2:
        strat = strat or strata.analyze(action)
        terms += [(dim_piece, pattern) for lab in strat.strata for dim_piece, pattern, _ in strat.preimage(lab)
                  if pattern != ambient]
    grams = []
    for k, e in zip(ks, exps):
        diag = np.zeros(e.shape[0])
        for dim_piece, pattern in terms:
            diag = diag + (k / TWO_PI) ** (dim_piece / 2.0) * _gram_exact_on_pattern(action, e, twist, pattern)
        grams.append(GramMatrix(basis_ids=[tuple(map(int, row)) for row in e], diagonal=diag,
                                stderr=np.zeros(e.shape[0]), norm_def=norm_def, k=k, twist=twist))
    return grams


def gram_upstairs(action, k, twist="plain", norm_def=1, strat=None, exps=None):
    """`grams_upstairs` at the one k; `exps`, if given, holds the invariant exponents at k."""
    return grams_upstairs(action, [k], twist, norm_def, strat=strat, exps=None if exps is None else [exps])[0]


def _gram_exact_on_pattern(action, exps, twist, pattern):
    """Exact Gram diagonal over a closed pattern subvariety: Dirichlet moments.

    The restricted form on a coordinate CP^{|R_j|-1} is l_j times its
    Fubini-Study form, so factor j contributes (2 pi l_j)^{|R_j|-1} prod_{i in
    R_j} alpha_i! / (sum_{i in R_j} alpha_i + |R_j| - 1)!, the factorials as
    ints, so int / int rounds once and never overflows.  A monomial that
    charges a coordinate off the pattern integrates to 0.
    """
    model = action.model
    frame = halfform_frame(model) if twist == "halfform" else 1.0
    diag = np.zeros(exps.shape[0])
    off = np.ones(model.ncoords, dtype=bool)
    off[[i for sup in pattern for i in sup]] = False
    live = np.flatnonzero(~np.any(exps[:, off] > 0, axis=1))
    top = int(exps[live].sum(axis=1).max(initial=0)) + model.ncoords
    fact = list(itertools.accumulate(range(1, top), int.__mul__, initial=1))  # 0!, 1!, ..., (top - 1)!
    factors = [(sup, (l * TWO_PI) ** (len(sup) - 1), len(sup) - 1) for sup, l in zip(pattern, model.bundle_degrees)]
    for r, row in zip(live.tolist(), exps[live].tolist()):
        out = 1.0
        for sup, scale, nR in factors:
            asup = [row[i] for i in sup]
            out *= scale * (math.prod(fact[a] for a in asup) / fact[sum(asup) + nR])
        diag[r] = frame * out
    return diag
