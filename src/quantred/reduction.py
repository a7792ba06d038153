"""Descent to the quotient: the corrected pointwise norm and reduced Gram matrices.

Descent is basis-preserving: an invariant monomial corresponds to its class
downstairs, so the matrix of the descent map in matched bases is the
identity and all unitarity questions live in the Gram matrices, which are
diagonal on both sides (distinct monomials are torus-orthogonal).  The
corrected pointwise norm on a stratum with stabilizer H is

    |B' r|^2([x]) = |r|^2(x)                    if H = G,
    |B' r|^2([x]) = 2^{-m/2} vol(G.x) |r|^2(x)  otherwise,

with m = dim(G/H) and vol the geometric (finite-part-corrected) orbit
volume.  The tests check the factor against an independent route, which
contracts the restricted Liouville form with the complexified orbit
directions and reproduces 2^{-m} vol_Gram^2 against the reduced volume form.
"""

import numpy as np

from . import actions as ta
from . import strata
from . import sections
from .errors import QuantredError
from .integrate import as_quad, rng_for
from .models import TWO_PI, masses, unit_masses


class ReductionError(QuantredError, ValueError):
    pass


def descent_norm_factor(action, point, iso=None):
    """Pointwise descent factor 2^{-m/2} vol(G.x)/|Gamma| for half-form sections at a zero-level point.

    It is 1 on H = G, where m = 0 and the orbit volume is the empty determinant.

    A batch of points, shape (N, ncoords), needs their common `iso`.
    """
    return descent_factor_from_masses(action, masses(action.model, point), iso or ta.isotropy(action, point))


def descent_factor_from_masses(action, p, iso):
    """`descent_norm_factor` from per-factor-normalized coordinate masses p, shape (..., ncoords)."""
    return 2.0 ** (-(action.rank - iso.dim) / 2.0) * ta.orbit_volume_from_masses(action, p, iso) / iso.finite_part


# ----------------------------------------------------------------------
# reduced Gram matrices


def stratum_gram(action, lab, exps, ks, twist, quad):
    """Integrals over the quotient stratum of the descended pointwise norms, one per k in ks.

    Returns one (diagonal, stderr) of int_S |desc_a|^2 eps_hat per k,
    exps[i] the exponent matrix at ks[i]; the off-diagonal pairs integrate
    to 0 (distinct monomials are torus-orthogonal).  The grid route is one
    `_piece_integral` for all of ks on the Duistermaat-Heckman Gauss rule of
    the level slice, with dim = 0, T = 1, T_err = 0 and vol the descent
    factor (half-form) or 1.  The mc route is one `_stratum_gram_mc` draw for
    all of ks from the stream tagged ("down", twist, key), so a k's integral
    does not depend on the rest of ks; `reduced_grams` calls it once per stratum for all norm definitions.
    """
    quad = as_quad(quad)
    if quad.method == "mc":
        return _stratum_gram_mc(action, lab, exps, twist, quad, ("down", twist, lab.key))
    z, rules = strata.slice_quadrature(action, lab.level_slice, quad.grid_order)
    vol = descent_norm_factor(action, z, lab.isotropy) if twist == "halfform" else np.ones(len(z))
    T = np.ones((len(ks), len(z)))
    return _piece_integral(action, (0, z, rules, T, np.zeros_like(T), vol), exps, ks, twist)


def _piece_integral(action, piece, exps, ks, twist):
    """(k/2pi)^{dim/2} int_S |s_a|^2 vol(G.x)/|Gamma| T_k eps_hat over a level slice with q <= 1, and its error.

    One pair per k in ks, exps[i] the exponent matrix at ks[i]; per basis monomial.  piece is an
    `asymptotics._transverse_batch` entry (dim, nodes, rules, T, T_err, vol): dim the complex dimension of the
    preimage piece, the nodes of the slice's Gauss rule and of its error rule (`strata.slice_quadrature`), T_k
    the transverse integral there, with the divergence factor for the half-form twist, and vol(G.x)/|Gamma| the
    geometric orbit volume.  On a stratum's own zero-level slice this weight is the density I_k, or J_k times
    the half-form descent factor; `stratum_gram` passes T = 1.  The error is the gap |Q_n - Q_{n/2}| between
    the rules (0 on a point slice) plus the order-n nodes' transverse estimates |I_h - I_2h|.
    """
    dim, z, rules, Ts, T_errs, vol = piece
    p = masses(action.model, z)
    out = []
    for k, e, T, T_err in zip(ks, exps, Ts, T_errs):
        norms = sections.monomial_norms(action.model, e, p, twist)
        value, half = ((w * vol[rows] * T[rows]) @ norms[rows] for rows, w in rules)
        rows, w = rules[0]
        error = (np.abs(w * vol[rows]) * T_err[rows]) @ norms[rows] + np.abs(value - half)
        pref = (k / TWO_PI) ** (dim / 2.0)
        out.append((pref * value, pref * error))
    return out


def stratum_sample_count(quad):
    """Stratum samples the mc route draws per stratum for all of ks, split into max(4, quad.blocks) blocks."""
    return max(256, quad.samples // 10)


def _stratum_gram_mc(action, lab, exps, twist, quad, tag):
    """`stratum_gram`'s mc route: one (diagonal, block stderr) per exponent matrix in exps (one per k).

    The slice masses (`strata.stratum_draw`; phases move neither norms nor orbit volumes), their weights and the
    half-form descent factor come from one draw of the stream tag, whose measure does not depend on k; each
    matrix's weighted norms are then summed in turn, so memory grows with the largest matrix."""
    rng = rng_for(quad.seed, "reduced", tag)
    count = stratum_sample_count(quad)
    p, _, wts = strata.stratum_draw(action, lab, count, rng.integers(2**32))
    if not np.any(wts > 0):
        raise ReductionError("no stratum sample landed in the slice polytope")
    p = unit_masses(action.model, p)
    if twist == "halfform":
        wts = wts * descent_factor_from_masses(action, p, lab.isotropy)
    nblk = max(4, quad.blocks)
    per = count // nblk

    def sums(e):
        terms = wts[:, None] * sections.monomial_norms(action.model, e, p, twist)
        blocks = terms[: nblk * per].reshape(nblk, per, -1).sum(axis=1) * (count / per)
        return terms.sum(axis=0), blocks.std(axis=0, ddof=1) / np.sqrt(nblk)
    return [sums(e) for e in exps]


def reduced_grams(action, ks, twist="plain", norm_defs=(1,), quad=None, strat=None, exps=None):
    """Grams of the descended basis under each of norm_defs downstairs: {nd: one Gram per k in ks}.

    Definition (1) integrates over the open stratum, Definition (2) over every stratum.  Each stratum runs
    one `stratum_gram` for all of ks, which every definition that needs it reads, so the mc route draws each
    stratum once; `exps`, if given, holds each k's invariant exponents.
    """
    quad = as_quad(quad)
    exps = sections.invariant_exponents_for(action, ks, twist) if exps is None else exps
    live = [i for i, e in enumerate(exps) if e.shape[0]]
    strat = (strat or strata.analyze(action)) if live else strat
    out, done = {}, {}  # done: stratum key -> its `stratum_gram` at the live ks, read by every definition
    for nd in norm_defs:
        diags, errs = [np.zeros(e.shape[0]) for e in exps], [np.zeros(e.shape[0]) for e in exps]
        pers = [{} for _ in exps]
        for lab in ([strat.open_stratum()] if nd == 1 else strat.strata) if live else []:
            if lab.key not in done:
                done[lab.key] = stratum_gram(action, lab, [exps[i] for i in live], [ks[i] for i in live], twist, quad)
            for i, (sub, suberr) in zip(live, done[lab.key]):
                pref = (ks[i] / TWO_PI) ** (lab.dim_S / 2.0)
                pers[i][lab.key] = pref * sub
                diags[i] = diags[i] + pref * sub
                errs[i] = np.hypot(errs[i], pref * suberr)
        out[nd] = [sections.GramMatrix(basis_ids=list(map(tuple, e.tolist())), diagonal=d, stderr=err,
                                       norm_def=nd, k=k, twist=twist, per_stratum=per)
                   for k, e, d, err, per in zip(ks, exps, diags, errs, pers)]
    return out


def reduced_gram(action, k, twist="plain", norm_def=1, quad=None, strat=None):
    """Gram of the descended basis under Definition (1) or (2) downstairs."""
    return reduced_grams(action, [k], twist, (norm_def,), quad, strat)[norm_def][0]
