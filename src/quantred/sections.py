"""Quantum Hilbert spaces upstairs: monomial bases, invariant subspaces,
pointwise norms, and Gram matrices under both inner-product definitions.

Sections of L^k are multi-homogeneous polynomials of per-factor degree
k*l_j; the half-form twist shifts the degrees to k*l_j - (n_j+1)/2.  The
package works in the monomial basis, one exponent row per section, and on
a run's whole k list at once: one enumeration of the invariant rows
(`invariant_exponents_for`) and one moment call per pattern (`moment_table`).
On unit-normalized coordinates the plain pointwise norm square of a
monomial is |z^alpha|^2; the twisted norm carries the half-form frame
factor (mu, mu), the constant prod_j l_j^{-n_j/2} (`halfform_frame`), whose
chart evaluation (`halfform_factor`, from mu^2 wedge conj(mu^2) against the
Liouville form) is kept as its reference.  Upstairs Gram entries are exact
Dirichlet moments on every route, whatever `quad.method` says; their Monte
Carlo oracle is `pattern_gram_mc_by_block` in the tests' reference module.
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


def _partial_exponents(degs, part):
    """Exponent rows on the coordinates whose factors part lists (in factor order), with per-factor sums at most
    d_j: the compositions of d_j into (count of j in part) + 1 parts without their last part, the slack (stars and
    bars), built factor by factor once at the largest d_j.  Returns (i, rows): the rows within each row i of degs."""
    rows = np.zeros((1, 0), dtype=int)
    for d, size in zip(degs.max(axis=0).tolist(), np.bincount(part, minlength=degs.shape[1]).tolist()):
        if size:
            block = np.array(list(itertools.combinations(range(d + size), size)), dtype=int)
            block[:, 1:] -= block[:, :-1] + 1
            rows = np.hstack([np.repeat(rows, len(block), axis=0), np.tile(block, (len(rows), 1))])
    i, r = np.nonzero(np.all(rows @ (part[:, None] == np.arange(degs.shape[1])) <= degs[:, None], axis=2))
    return i, rows[r]


def invariant_exponents_for(action, ks, twist="plain"):
    """Monomial exponents of the G-invariant subspace, one array per k in ks: lexicographic, first factor slowest.

    A monomial z^alpha is invariant iff W alpha + k c (+ sigma/2 for the
    half-form twist, sigma the per-generator sum of all weights) vanishes.
    The last coordinate of each factor takes the rest of its degree d_j, so
    the condition reads W_rel alpha' = t - sum_j d_j W_last(j) on the other
    coordinates alpha'.  Those split into two halves, each enumerated once
    for all of ks; the halves meet on (k, their share of W_rel alpha'), and
    rows whose last coordinates come out negative are dropped.  The cost
    grows with the halves and the invariant rows, not with the whole basis.
    Per k, in order: lift integrality raises, a target off the integers
    gives no rows, a negative twisted degree raises; the first error raises.
    """
    model, live = action.model, {}  # live: position in ks -> (target, degrees d_j) of each k with an integral target
    half = [Fraction(sum(row), 2) if twist == "halfform" else 0 for row in action.weights]  # sigma / 2
    for i, k in enumerate(ks):
        if not action.lift_integral(k):
            raise SectionError("lift integrality: k * shift is not an integer vector")
        target = [-(k * c) - h for c, h in zip(action.shift, half)]
        if all(t.denominator == 1 for t in target):
            live[i] = [int(t) for t in target], section_degrees(model, k, twist)
            if min(live[i][1]) < 0:
                raise SectionError("negative twisted degree: k too small for this twist")
    if not live:
        return [np.zeros((0, model.ncoords), dtype=int) for _ in ks]
    (targets, degs), W = map(np.asarray, zip(*live.values())), np.asarray(action.weights, dtype=int)
    last = [sl.stop - 1 for sl in model.slices]
    owner = np.asarray([j for j, sl in enumerate(model.slices) for _ in range(sl.start, sl.stop - 1)], dtype=int)
    cols = [i for sl in model.slices for i in range(sl.start, sl.stop - 1)]
    W_rel = W[:, cols] - W[:, [last[j] for j in owner]]
    t_rel = targets - degs @ W[:, last].T  # per live k
    cut = len(cols) // 2
    (ka, a), (kb, b) = _partial_exponents(degs, owner[:cut]), _partial_exponents(degs, owner[cut:])  # per live k
    keys = np.vstack([np.column_stack([ka, t_rel[ka] - a @ W_rel[:, :cut].T]),
                      np.column_stack([kb, b @ W_rel[:, cut:].T])])
    by_key = np.lexsort(keys.T)
    ids = np.cumsum(np.r_[0, np.any(keys[by_key[1:]] != keys[by_key[:-1]], axis=1)])[np.argsort(by_key)]
    left, right = ids[: len(a)], ids[len(a) :]
    order = by_key[by_key >= len(a)] - len(a)  # the right half's rows, sorted by key
    lo, hi = np.searchsorted(right[order], left, "left"), np.searchsorted(right[order], left, "right")
    counts = hi - lo
    pair_a = np.repeat(np.arange(len(left)), counts)
    pair_b = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
    exps, kk = np.zeros((len(pair_a), model.ncoords), dtype=int), ka[pair_a]
    exps[:, cols[:cut]], exps[:, cols[cut:]] = a[pair_a], b[pair_b]
    for j, sl in enumerate(model.slices):
        exps[:, last[j]] = degs[kk, j] - exps[:, sl.start : sl.stop - 1].sum(axis=1)
    keep = np.all(exps[:, last] >= 0, axis=1)
    exps, kk = exps[keep], kk[keep]
    exps = exps[np.lexsort(np.vstack([exps.T[::-1], kk]))]  # by k, then lexicographic
    return np.split(exps, np.cumsum(np.bincount(np.asarray(list(live))[kk], minlength=len(ks)))[:-1])


def invariant_exponents(action, k, twist="plain"):
    """`invariant_exponents_for` at the one k."""
    return invariant_exponents_for(action, [k], twist)[0]


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
    """Gram matrix of an invariant monomial basis at one k under one norm definition, up- or downstairs.

    Distinct monomials are torus-orthogonal, so the Gram is diagonal; `basis_ids` holds the exponent rows as int
    tuples, `diagonal` its entries and `stderr` their errors: 0 upstairs, where every entry is a sum of exact
    `moment_table` rows (one call per pattern for the whole k list); downstairs the grid rule's error estimate or
    the Monte Carlo block error (that route estimates the diagonal only).  The two definitions' Grams on a side
    read one pass over the preimage pieces, so they share their terms (and under Definition (1) upstairs, the
    table's array).  `cli` writes the square JSON layout from the vectors.  `matrix`, the square form, stays only
    because the `perfbench` workload `E3HalfformMC.prepare` reads it.  `per_stratum` (downstairs only) maps each
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


def moment_table(action, ks, twist, exps, strat=None, every=True):
    """The exact upstairs terms: per k in ks, {pattern: (k/2pi)^{dim/2} `_gram_exact_on_pattern`}.

    The patterns are the ambient one (dim n) and, if every, the (distinct) patterns of every piece of
    `Stratification.preimage`, in strata order.  Both norm definitions and the norm-split check's lhs
    are sums of these rows.  exps[i] holds the invariant exponents at ks[i]; the rows of every k are
    stacked, so each pattern takes one `_gram_exact_on_pattern` call.
    """
    dims = {_full_pattern(action.model): action.model.n_total}
    if every:
        strat = strat or strata.analyze(action)
        dims |= {pattern: dim for lab in strat.strata for dim, pattern, _ in strat.preimage(lab)}
    stacked, bounds = np.vstack(exps), np.cumsum([len(e) for e in exps])[:-1]
    diags = {pattern: np.split(_gram_exact_on_pattern(action, stacked, twist, pattern), bounds) for pattern in dims}
    return [{pattern: (k / TWO_PI) ** (dim / 2.0) * diags[pattern][i] for pattern, dim in dims.items()}
            for i, k in enumerate(ks)]


def grams_upstairs(action, ks, twist="plain", norm_defs=(1,), *, strat=None, exps=None, moments=None):
    """Grams of the invariant basis under each of norm_defs: {nd: one Gram per k in ks}.

    Definition (1) integrates over the open dense preimage piece, which has full measure: the ambient row of
    `moment_table`.  Definition (2) adds the rows of every other piece; zero-dimensional pieces contribute
    point values.  The ambient is the open stratum's complexification where 0 is interior to phi(M) and an
    extra piece where 0 lies on its boundary.  Every row is exact, so stderr is 0.  `exps` and `moments`,
    if given, hold each k's invariant exponents and the table.
    """
    exps = invariant_exponents_for(action, ks, twist) if exps is None else exps
    moments = moment_table(action, ks, twist, exps, strat, 2 in norm_defs) if moments is None else moments
    ambient = _full_pattern(action.model)
    ids = [list(map(tuple, e.tolist())) for e in exps]

    def diagonal(rows, nd):  # Definition (2) adds the other rows to the ambient one, in the table's order
        return rows[ambient] if nd == 1 else sum((r for p, r in rows.items() if p != ambient), rows[ambient])
    return {nd: [GramMatrix(basis_ids=b, diagonal=diagonal(rows, nd), stderr=np.zeros(len(b)), norm_def=nd, k=k,
                            twist=twist) for k, b, rows in zip(ks, ids, moments)] for nd in norm_defs}


def gram_upstairs(action, k, twist="plain", norm_def=1, *, strat=None, exps=None):
    """`grams_upstairs` at the one k; `exps`, if given, holds the invariant exponents at k."""
    exps = [invariant_exponents(action, k, twist) if exps is None else exps]
    return grams_upstairs(action, [k], twist, (norm_def,), strat=strat, exps=exps)[norm_def][0]


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
    rows = exps[live]
    top = int(rows.sum(axis=1).max(initial=0)) + model.ncoords
    fact = np.array(list(itertools.accumulate(range(1, top), int.__mul__, initial=1)), dtype=object)  # 0!, 1!, ...
    out = np.ones(len(live))
    for sup, l in zip(pattern, model.bundle_degrees):  # one pass per factor over object arrays of Python ints
        asup = rows[:, list(sup)]
        ratio = fact[asup].prod(axis=1) / fact[asup.sum(axis=1) + len(sup) - 1]
        out *= (l * TWO_PI) ** (len(sup) - 1) * ratio.astype(float)
    diag[live] = frame * out
    return diag
