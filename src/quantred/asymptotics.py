"""Density functions, residual terms, and unitarity defects: the
quantitative relations between the two quantum norms.

Per stratum point x with stabilizer H != G and m = dim(G/H), the densities

    I_k([x]) = vol(G.x) (k/2pi)^{m/2} int_m tau(xi, x) e^{-k f(xi, x)} dxi
    J_k([x]) = 2^{m/2} (k/2pi)^{m/2} int_m tau e^{-k f} D(xi, x) dxi

relate pointwise norms up- and downstairs (vol is the geometric orbit
volume; D the Liouville divergence correction along the flow line).  Both
are 1 identically on H = G strata.  Residual terms collect the preimage
pieces that miss the zero level; they vanish as k grows.
"""

import functools
import itertools

import numpy as np

from . import actions as ta
from . import reduction
from . import sections
from . import strata
from .errors import QuantredError
from .integrate import as_quad
from .models import TWO_PI, masses, normalize


class AsymptoticsError(QuantredError, RuntimeError):
    pass


# ----------------------------------------------------------------------
# the m-integrals

# The transverse rule: a tensor trapezoid rule in t, where y = c sinh(t / c) on each axis of the coordinates y
# whitened by the Hessian of f at 0, with a scale c per node; widened and then refined node by node.
TRANSVERSE_RTOL = 1e-12  # a node settles when |I_h - I_2h| <= TRANSVERSE_RTOL |I_h|
TRANSVERSE_EDGE = 1e-17  # widen while a boundary value exceeds this share of the maximum
TRANSVERSE_BLOCK = 4096  # (node, transverse point) pairs evaluated and reduced at once, to bound memory
TRANSVERSE_C, TRANSVERSE_KEPS = 4.0, 0.3  # c = TRANSVERSE_C min(1, k eps / TRANSVERSE_KEPS)^(1/2), eps: least mass
TRANSVERSE_R0, TRANSVERSE_J0 = 2.0, 16  # first grid: [-R0 c, R0 c]^m in t, step R0 c / J0
MAX_WIDENINGS = 4        # R doubles at most this often per node (to 32 c, where y = c sinh(32) ~ 4e13 c)
MAX_HALVINGS = 10        # h halves at most this often per node
MAX_GRID_POINTS = 2**23  # points of one node's grid
DENSITY_ORDER = 32       # Gauss nodes per zero-level slice in the stratum-density route
ORBIT_GRAM_RTOL = 1e-12  # a node raises when lambda_min(S) <= ORBIT_GRAM_RTOL lambda_max(U), see below
CONSISTENCY_FLOOR = 1e-13  # the norm-split check's stated error is at least this share of a stratum's largest |lhs|


def _grid_pass(integrand, nodes, came, J, m, sums):
    """Add the points new to each node's grid {-J, ..., J}^m, in units of its step, to its running sums.

    sums[:, n] holds node n's grid sum, its sum over the all-even points (the grid at step 2h), its maximum
    and its boundary maximum.  came[i] is 0 for a new grid, 1 if R doubled (the old grid is the centre block),
    2 if h halved (the old grid is the all-even points).  The new points, the boxes old^d x new x all^(m-1-d),
    are tensor products of axes, evaluated by integrand(nodes, axes) on nodes x axes[0] x ... x axes[m-1] in
    chunks of at most TRANSVERSE_BLOCK (node, point) pairs: a range along one axis of (nodes, axis 0, ...,
    axis m-1), whole after it, so only a row over the block is cut.  Even masks per axis and the faces at -J
    and J reduce each chunk.
    """
    full = np.arange(-J, J + 1)
    for c in set(came.tolist()):
        rows = nodes[came == c]
        acc = sums[:, rows]
        if c < 2:  # a new grid starts from 0; after R doubled, the boundary is all new
            acc[3 * c:] = 0.0
            kept = np.abs(full) <= J // 2 if c else full < -J  # the old grid's axis: centre, or none
        else:  # after h halved, the step-2h grid is the old one (the even axis), and no new point is all-even
            acc[1] = acc[0]
            kept = full % 2 == 0
        for d in range(m if c else 1):
            box = [full[kept]] * d + [full[~kept]] + [full] * (m - 1 - d)
            even = [(ax % 2 == 0).astype(float) for ax in box] if c < 2 else ()
            dims, a, tail = [rows.size] + [ax.size for ax in box], m, 1
            while a and tail * dims[a] <= TRANSVERSE_BLOCK:  # the axes after a fit in one chunk whole
                tail *= dims[a]
                a -= 1
            step = TRANSVERSE_BLOCK // tail
            for head in np.ndindex(*dims[:a]):
                for s in range(0, dims[a], step):
                    cut = [slice(i, i + 1) for i in head] + [slice(s, s + step)] + [slice(None)] * (m - a)
                    axes = [ax[i] for ax, i in zip(box, cut[1:])]
                    v = integrand(rows[cut[0]], axes)
                    flat = v.reshape(v.shape[0], -1)
                    total, even_total, top, edge = acc[:, cut[0]]
                    total += np.add.reduce(flat, axis=1)
                    np.maximum(top, np.maximum.reduce(flat, axis=1), out=top)
                    if c < 2:  # v contracted with the axes' even masks, the last axis first
                        even_total += functools.reduce(np.matmul, [ev[i] for ev, i in zip(even[::-1], cut[:0:-1])], v)
                    for i, ax in enumerate(axes, 1):  # the chunk's faces on the boundary
                        for f in [f for f in (0, -1) if abs(ax[f]) == J]:
                            face = v[(slice(None),) * i + (f,)].reshape(v.shape[0], -1)
                            np.maximum(edge, np.maximum.reduce(face, axis=1), out=edge)
        sums[:, rows] = acc


def _orbit_grams(action, sets):
    """(z, p, members, groups) for point sets of one support pattern each: the concatenated points, their masses,
    per set its rows (a slice), isotropy and support, and per m = dim(G/H) > 0 the rows of its sets' points with,
    per point, the m basis mb and the orbit Gram S = mb B mb^T, B the field pairing.  A point whose S has smallest
    eigenvalue at most ORBIT_GRAM_RTOL times the largest of U = 8 pi^2 sum_j l_j sum_{i in j} p_i W_i W_i^T on m
    (a collapsed orbit) raises ActionError."""
    sets = [np.atleast_2d(x) for x in sets]
    z = np.concatenate(sets)
    p = masses(action.model, z)
    slices = [slice(end - len(x), end) for x, end in zip(sets, itertools.accumulate(map(len, sets)))]
    supports = [ta._support_of_masses(action.model, p[sl.start]) for sl in slices]
    isos = [ta.isotropy_of_support(action, support) for support in supports]
    bases = {iso: ta.m_basis(action, iso) for iso in set(isos)}
    B = ta.field_pairing(action, p)
    V = 2.0 * TWO_PI**2 * np.einsum("ai,bi,...i->...ab", action.scaled_weights(), action.W, p)  # U before mb
    groups = []
    for m in sorted({mb.shape[0] for mb in bases.values()} - {0}):
        parts = [(sl, bases[iso]) for sl, iso in zip(slices, isos) if bases[iso].shape[0] == m]
        rows = np.concatenate([np.arange(sl.start, sl.stop) for sl, _ in parts])
        mb = np.repeat(np.stack([basis for _, basis in parts]), [sl.stop - sl.start for sl, _ in parts], axis=0)
        S, U = (mb @ M[rows] @ mb.transpose(0, 2, 1) for M in (B, V))
        lo, hi = np.linalg.eigvalsh(S)[:, 0], np.linalg.eigvalsh(U)[:, -1]
        for i in np.flatnonzero(~(lo > ORBIT_GRAM_RTOL * hi))[:1]:
            at = np.round(p[rows[i]], 12).tolist()
            raise ta.ActionError(f"degenerate coarea differential at the point with masses {at}: "
                                 f"lambda_min(S) = {lo[i]:.3e}, lambda_max(U) = {hi[i]:.3e} (stratification bug)")
        groups.append((rows, mb, S))
    return z, p, list(zip(slices, isos, supports)), groups


def _transverse_integral(action, sets, ks, halfform=False, grams=None):
    """Per point set, (T, error) with T[i, n] = int_m tau(xi, x_n) e^{-k_i f(xi, x_n)} [D(xi, x_n)] dxi.

    sets lists point arrays, each (N, ncoords) of one support pattern, such as a level slice's nodes; D, the
    divergence factor, enters for the half-form twist.  Per set the pair is (T, estimates |I_h - I_2h|), each
    (len(ks), N), with T = 1 and error 0 where m = 0.  The set-up runs once over all points (`_orbit_grams`, or
    `grams`).  Each (k, point) pair is a node: with (a, b) from `actions.transverse_exponent`, y = sqrt(k) C^T xi
    and C C^T = 2 S the Hessian of f at 0, tau e^{-kf} [D] dxi = (2k)^{-m/2} exp(<a, xi> + sum_j b_j log(N_j /
    N_j(0))) dy.  Per axis y = c sinh(t / c) (Takahasi & Mori, Publ. RIMS 9, 1974), c = TRANSVERSE_C min(1,
    k eps / TRANSVERSE_KEPS)^{1/2} for the node's smallest mass eps: at small k eps the integrand is a plateau
    with edges about (k eps)^{1/2} wide.  A tensor trapezoid grid in t, first [-R0 c, R0 c]^m at step R0 c / J0,
    widens (R doubles) until its boundary values fall below TRANSVERSE_EDGE of the maximum, then refines (h
    halves) until the sums at steps h and 2h agree to TRANSVERSE_RTOL, which converges exponentially for
    analytic integrands that decay at both ends (Trefethen & Weideman, SIAM Review 56, 2014).  All nodes of one
    m share one loop (`_refine`) with one pass (`_grid_pass`) a round; no node's grids or sums depend on the
    others.  A node past MAX_WIDENINGS, MAX_HALVINGS or MAX_GRID_POINTS raises AsymptoticsError naming its
    point, k and grid in t.
    """
    z, p, members, groups = _orbit_grams(action, sets) if grams is None else grams
    K, n = len(ks), len(z)
    a, b = np.empty((K, n, action.rank)), np.empty((K, n, len(action.model.slices)))
    for sl, _, support in members:
        a[:, sl], b[:, sl] = (v[:, None] for v in ta.transverse_exponent(action, support, ks, halfform))
    value, error = np.ones((K, n)), np.zeros((K, n))  # m = 0: no transverse directions
    for rows, mb, S in groups:
        value[:, rows], error[:, rows] = _refine(action, ks, z[rows], p[rows], mb, S, a[:, rows], b[:, rows])
    return [(value[:, sl], error[:, sl]) for sl, _, _ in members]


def _refine(action, ks, z, p, mb, S, a, b):
    """The (T, error) of `_transverse_integral` over the nodes (k, point) of N points of one m, each (len(ks), N).
    The grids are nested: a node keeps four running numbers (the sums at steps h and 2h, the maximum and the
    boundary maximum), and a refinement evaluates only the points new to its grid.  Each node starts with J0
    steps a side and each widening or halving doubles J, so all live nodes share J and one pass a round."""
    K, N, m = len(ks), len(z), mb.shape[1]
    k_of, x_of = np.divmod(np.arange(K * N), N)  # node n is the pair (ks[k_of[n]], z[x_of[n]])
    k = np.asarray(ks, dtype=float)[k_of]
    eps = np.min(np.where(p > 0, p, np.inf), axis=1)[x_of]  # each node's smallest mass
    c = TRANSVERSE_C * np.sqrt(np.minimum(1.0, k * eps / TRANSVERSE_KEPS))  # the node's scale, in whitened units
    # s = t / c and y = c sinh(s), so xi = C^{-T} y / sqrt(k) = sinh(s) @ maps[n] at node n, and u = W^T xi
    # and <a, xi> are sinh(s) @ (maps[n] @ [W, a])
    maps = (np.linalg.inv(np.linalg.cholesky(2.0 * S)) @ mb)[x_of] * (c / np.sqrt(k))[:, None, None]
    maps = np.moveaxis(np.concatenate([maps @ action.W, maps @ a.reshape(K * N, -1, 1)], axis=2), 2, 0)
    buf = np.empty(TRANSVERSE_BLOCK * maps.shape[0])  # every chunk's [u, <a, xi>], coordinates first in memory
    jac = (c * c / (2.0 * k)) ** (m / 2.0)  # dxi = jac prod_d cosh(s_d) ds / tau(0, x), det(2kS) = (2k)^m tau(0, x)^2
    logp = ta._log_masses(p).T
    log_n0 = ta._log_flow_sums(action.model, logp, 0.0)[:, x_of]
    # (coordinate or factor, node, 1, ..., 1): per node, broadcast over a chunk's grid axes
    logp, log_n0, b = (v.reshape(v.shape + (1,) * m) for v in (logp[:, x_of], log_n0, b.reshape(K * N, -1).T))
    n, has_mass, plans = K * N, p[x_of] > 0, {}
    h = np.full(n, TRANSVERSE_R0 / TRANSVERSE_J0)  # each node's step in s

    def plan(nodes):  # a chunk's rows, its coordinates with mass and <a, xi>, and per factor its rows among them
        on = has_mass[nodes].any(axis=0)
        if on.tobytes() not in plans:  # a factor's rows are a range, one row an int
            rows = np.flatnonzero(on)
            ends = np.searchsorted(rows, [sl.stop for sl in action.model.slices]).tolist()
            parts = [i if j - i == 1 else slice(i, j) for i, j in zip([0] + ends[:-1], ends)]
            plans[on.tobytes()] = np.append(rows, len(on))[:, None], parts
        return plans[on.tobytes()]

    def integrand(nodes, axes):
        rows, parts = plan(nodes)
        t = np.ndarray((rows.size, nodes.size) + tuple(ax.size for ax in axes), buffer=buf)  # raises past the block
        # the tensor product: [u, <a, xi> + log Jacobian] is the sum of one outer product per axis
        outer = []
        for d, ax in enumerate(axes):
            s = h[nodes, None] * ax
            f = maps[rows, nodes, d, None] * np.sinh(s)
            f[-1] += np.logaddexp(s, -s) - np.log(2.0)  # log cosh(s)
            outer.append(f.reshape(t.shape[:2] + (1,) * d + (-1,) + (1,) * (m - 1 - d)))
        np.add(outer[0], outer[1] if m > 1 else 0.0, out=t)  # one pass over the block for the first two axes
        for f in outer[2:]:
            t += f
        log_n = ta._log_flow_sums(action.model, logp[rows[:-1], nodes], t[:-1], out=t[:-1], parts=parts)
        log_n -= log_n0[:, nodes]
        log_n *= b[:, nodes]
        t[-1] += np.add.reduce(log_n, axis=0)
        return np.exp(t[-1], out=t[-1])

    def fail(i, what):  # names node i's point, k and grid in t
        raise AsymptoticsError(f"transverse integral at the point {np.round(z[x_of[i]], 12).tolist()} " + what.format(
            k=ks[k_of[i]], grid=f"R={c[i] * J * h[i]:g}, h={c[i] * h[i]:g}"))

    came, sums = np.zeros(n, dtype=int), np.zeros((4, n))  # per node: grid sum, all-even sum, maximum, boundary maximum
    live, J = np.arange(n), TRANSVERSE_J0
    R_cap, h_cap = TRANSVERSE_R0 * 2.0**MAX_WIDENINGS, TRANSVERSE_R0 / TRANSVERSE_J0 / 2.0**MAX_HALVINGS  # in s
    while live.size:
        if (2 * J + 1) ** m > MAX_GRID_POINTS:
            fail(live[0], f"needs {(2 * J + 1) ** m} grid points at k={{k}} ({{grid}}), over {MAX_GRID_POINTS}")
        _grid_pass(integrand, live, came[live], J, m, sums)
        total, even, top, edge = sums[:, live]
        I_h, gap = h[live] ** m * total, h[live] ** m * np.abs(total - 2.0**m * even)  # gap = |I_h - I_2h|
        if not np.isfinite(I_h).all():
            fail(live[~np.isfinite(I_h)][0], "is not finite at k={k}")
        wide = edge <= TRANSVERSE_EDGE * top
        settled = wide & (gap <= TRANSVERSE_RTOL * np.abs(I_h))
        for over, cap, what in ((~wide & (J * h[live] >= R_cap), MAX_WIDENINGS, "widenings of R"),
                                (wide & ~settled & (h[live] <= h_cap), MAX_HALVINGS, "halvings of h")):
            for j in np.flatnonzero(over)[:1]:
                fail(live[j], f"did not settle at k={{k}} after {cap} {what} ({{grid}}, |I_h - I_2h| = "
                              f"{jac[live[j]] * gap[j]:.3e}, I_h = {jac[live[j]] * I_h[j]:.6e})")
        h[live[wide & ~settled]] /= 2.0
        came[live] = 1 + wide  # 2: h halves
        live, J = live[~settled], 2 * J
    I_h = h**m * sums[0]  # each node's last grid
    value, error = jac * I_h, jac * np.abs(I_h - (2.0 * h) ** m * sums[1])
    return value.reshape(K, N), error.reshape(K, N)


def _transverse_batch(action, wanted, ks, halfform):
    """One `_transverse_integral` call for every piece (dim, nodes, rules) in the lists of the dict `wanted`;
    each piece comes back as (dim, nodes, rules, T, T_err, vol), with the nodes' geometric orbit volume
    vol(G.x)/|Gamma| = sqrt(det S) / |Gamma| read off the orbit Gram S the call whitens with."""
    pieces = [piece for group in wanted.values() for piece in group]
    if not pieces:
        return {key: [] for key in wanted}
    sets = [z for _, z, _ in pieces]
    grams = _orbit_grams(action, sets)
    z, _, members, groups = grams
    vol = np.ones(len(z))  # m = 0: the empty determinant
    for rows, _, S in groups:
        vol[rows] = np.sqrt(np.clip(np.linalg.det(S), 0.0, None))
    results = _transverse_integral(action, sets, ks, halfform, grams)
    done = iter(piece + (T, T_err, vol[sl] / iso.finite_part)
                for piece, (T, T_err), (sl, iso, _) in zip(pieces, results, members))
    return {key: [next(done) for _ in group] for key, group in wanted.items()}


def _density(action, label, point, ks, halfform, piece=None):
    """One (I_k or J_k, its error) per k in ks at one point: the density's
    factor of T_k times T_k, and its |I_h - I_2h|.  `piece` is the point's
    `_transverse_batch` entry, if already computed."""
    if piece is None:
        piece = _transverse_batch(action, {0: [(0, normalize(action.model, point)[None], None)]}, ks, halfform)[0][0]
    _, _, _, T, T_err, vol = piece
    m = action.rank - label.isotropy.dim
    vol = 2.0 ** (m / 2.0) if halfform else vol[0]
    w = [(k / TWO_PI) ** (m / 2.0) * vol for k in ks]
    return [(float(wk * t), float(wk * e)) for wk, t, e in zip(w, T[:, 0], T_err[:, 0])]


def density_I(action, label, point, k):
    """The plain norm density on a stratum; 1 when H = G, 2^{-m/2} vol(G.x) as k grows (vol: geometric orbit volume)."""
    return _density(action, label, point, [k], False)[0][0]


def density_J(action, label, point, k):
    """The half-form norm density on a stratum; 1 when H = G, limit 1."""
    return _density(action, label, point, [k], True)[0][0]


# ----------------------------------------------------------------------
# residual pieces


def _residual_pieces(action, label, quad, strat):
    """A label's extra preimage pieces as (dim, nodes, rules) on their level slices, at max(24, grid_order // 2)."""
    order = max(24, as_quad(quad).grid_order // 2)
    return [(dim, *strata.slice_quadrature(action, sl, order)) for dim, _, sl in strat.preimage(label)[1:]]


def _own_piece(action, label, strat):
    """A stratum's own zero-level slice as (dim, nodes, rules) at DENSITY_ORDER."""
    dim, _, sl = strat.preimage(label)[0]
    return dim, *strata.slice_quadrature(action, sl, DENSITY_ORDER)


def residual_with_error(action, label, ks, twist="plain", quad=None, strat=None, exps=None, pieces=None):
    """One (diagonal, error) per k in ks: Gram-diagonal contributions of the extra preimage pieces of one label.

    The sum of `reduction._piece_integral` over `_residual_pieces`.  Each
    piece's level slice meets every orbit of the piece once, at any torus
    rank.  `quad` sets the Gauss order; `exps` holds each k's invariant
    exponents and `pieces` the label's `_transverse_batch` entries, if
    already computed.
    """
    strat = strat or strata.analyze(action)
    exps = [sections.invariant_exponents(action, k, twist) for k in ks] if exps is None else exps
    if pieces is None:
        wanted = {0: _residual_pieces(action, label, quad, strat)}
        pieces = _transverse_batch(action, wanted, ks, twist == "halfform")[0]
    out = [np.zeros((2, e.shape[0])) for e in exps]  # diagonal, error
    for piece in pieces:
        out = [o + part for o, part in zip(out, reduction._piece_integral(action, piece, exps, ks, twist))]
    return [(o[0], o[1]) for o in out]


def residual_II(action, label, k, twist="plain", quad=None, strat=None):
    """Trace over the invariant basis of the extra-piece contributions."""
    return float(np.sum(residual_with_error(action, label, [k], twist, quad, strat)[0][0]))


# ----------------------------------------------------------------------
# defects and consistency


def unitarity_defect(action, k, twist="plain", norm_def=1, quad=None, strat=None, grams=None):
    """max |lambda - 1| over the generalized eigenvalues of (G_down, G_up).

    The descent matrix is the identity in matched bases, so the defect of
    B'^* B' - I (or A'^* A' - I) is read off the Gram pair under the chosen
    norm definition.  Both Grams are diagonal, so the eigenvalues are the
    ratios lambda_a = d_a / u_a of their diagonals.  Returns (defect,
    propagated error sqrt(sd_a^2 + lambda_a^2 su_a^2) / u_a at the worst a,
    by hypot, which cannot underflow).  An entry u_a <= 0, which only underflow makes, raises.
    """
    if grams is not None:
        gu, gd = grams
    else:
        gu = sections.gram_upstairs(action, k, twist, norm_def, strat=strat)
        gd = reduction.reduced_gram(action, k, twist, norm_def, quad, strat=strat)
    if gu.dim == 0:
        raise AsymptoticsError(f"empty invariant space at k={k}")
    u = gu.diagonal
    if u.min() <= 0:  # a sum of positive Dirichlet moments is 0 only when every term underflowed
        raise AsymptoticsError(f"upstairs Gram not positive definite: its entries underflowed to 0 at k={k}")
    lam = gd.diagonal / u
    a = int(np.argmax(np.abs(lam - 1.0)))
    sigma = np.hypot(gd.stderr[a], lam[a] * gu.stderr[a]) / u[a]
    return float(abs(lam[a] - 1.0)), float(sigma)


def norm_split_consistency(action, k, twist="plain", quad=None, strat=None):
    """Per-stratum comparison of the direct piece integrals with the
    stratum-density route at k: the `_norm_split_reports` report."""
    return _norm_split_reports(action, [k], twist, quad, strat)[0]


def _norm_split_reports(action, ks, twist="plain", quad=None, strat=None, residuals=None, exps=None, own=None):
    """One norm-split report per k in ks, each with per-section discrepancies.

    Both sides run over the pieces of `Stratification.preimage`.  The left side is exact: Dirichlet moments of
    |s|^2 on each piece's pattern, each with its (k/2pi)^{dim/2}.  The right side is one
    `reduction._piece_integral` per piece for all of ks: on the stratum's own zero-level slice (`_own_piece`,
    the reduced-space integral of the descended norm against I_k or J_k), on the extra pieces through
    `residual_with_error`, whose grid order `quad` sets.  `stderr` is their quadrature error plus CONSISTENCY_FLOOR times the stratum's largest |lhs|,
    and nsigma = |lhs - rhs| / stderr.  `residuals`, `exps` and `own`, if given, hold each stratum's
    `residual_with_error` for ks and this quad, each k's exponents, and each stratum's own piece as its
    `_transverse_batch` entry at ks; one `_transverse_batch` call makes the rest.
    """
    strat = strat or strata.analyze(action)
    exps = [sections.invariant_exponents(action, k, twist) for k in ks] if exps is None else exps
    reports = [{"k": int(k), "twist": twist, "strata": [], "max_nsigma": 0.0, "dim": int(e.shape[0])}
               | ({} if e.shape[0] else {"note": "empty invariant space"}) for k, e in zip(ks, exps)]
    live = [i for i, e in enumerate(exps) if e.shape[0]]
    labels = strat.strata if live else []
    wanted = {("own", si): [_own_piece(action, lab, strat)] for si, lab in enumerate(labels) if own is None}
    wanted |= {("residual", si): _residual_pieces(action, lab, quad, strat)
               for si, lab in enumerate(labels) if residuals is None}
    done = _transverse_batch(action, wanted, ks, twist == "halfform")
    own = own or [done["own", si][0] for si in range(len(labels))]
    residuals = residuals or [residual_with_error(action, lab, ks, twist, quad, strat, exps, done["residual", si])
                              for si, lab in enumerate(labels)]
    for si, lab in enumerate(labels):
        pieces = strat.preimage(lab)
        own_k = reduction._piece_integral(action, own[si], exps, ks, twist)
        for i in live:
            k, e, (rhs, err), (r, r_err) = ks[i], exps[i], own_k[i], residuals[si][i]
            lhs = sum((k / TWO_PI) ** (dp / 2.0) * sections._gram_exact_on_pattern(action, e, twist, pattern)
                      for dp, pattern, _ in pieces)
            rhs, err = rhs + r, err + r_err + CONSISTENCY_FLOOR * np.max(np.abs(lhs))
            nsig = np.abs(lhs - rhs) / np.maximum(err, 1e-300)
            reports[i]["strata"].append({"stratum": si, "dim_S": lab.dim_S, "lhs": lhs.tolist(), "rhs": rhs.tolist(),
                                         "stderr": err.tolist(), "nsigma": nsig.tolist()})
            reports[i]["max_nsigma"] = max(reports[i]["max_nsigma"], float(np.max(nsig)))
    return reports
