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
from dataclasses import dataclass, field

import numpy as np

from . import actions as ta
from . import reduction
from . import sections
from . import strata
from .errors import QuantredError
from .integrate import as_quad, fit_power
from .models import TWO_PI, masses, normalize


class AsymptoticsError(QuantredError, RuntimeError):
    pass


# ----------------------------------------------------------------------
# the m-integrals

# The transverse rule: a tensor trapezoid rule in coordinates whitened by
# the Hessian of f at 0, widened and then refined node by node.
TRANSVERSE_RTOL = 1e-12  # a node settles when |I_h - I_2h| <= TRANSVERSE_RTOL |I_h|
TRANSVERSE_EDGE = 1e-17  # widen while a boundary value exceeds this share of the maximum
TRANSVERSE_BLOCK = 4096  # (node, transverse point) pairs evaluated and reduced at once, to bound memory
TRANSVERSE_R0, TRANSVERSE_H0 = 10.0, 1.0  # first grid, in whitened units
MAX_WIDENINGS = 8        # R doubles at most this often per node
MAX_HALVINGS = 10        # h halves at most this often per node
MAX_GRID_POINTS = 2**23  # points of one node's grid
DENSITY_ORDER = 32       # Gauss nodes per zero-level slice in the stratum-density route
ORBIT_GRAM_RTOL = 1e-12  # a node raises when lambda_min(S) <= ORBIT_GRAM_RTOL lambda_max(U), see below
CONSISTENCY_FLOOR = 1e-13  # the norm-split check's stated error is at least this share of a stratum's largest |lhs|


def _grid_pass(integrand, nodes, came, J, h, m, sums):
    """Add the points new to each node's grid h {-J, ..., J}^m to its running sums.

    sums[:, n] holds node n's grid sum, its sum over the all-even points (the
    grid at step 2h), its maximum and its boundary maximum.  came[i] is 0 for
    a new grid, 1 if R doubled (the old grid is the centre block), 2 if h
    halved (the old grid is the all-even points).  The new points, the boxes
    old^d x new x all^(m-1-d), are tensor products of axes, evaluated by
    integrand(nodes, ys) on nodes x ys[0] x ... x ys[m-1] in chunks of at most
    TRANSVERSE_BLOCK (node, point) pairs: a range along one axis of (nodes,
    axis 0, ..., axis m-1), whole after it, so only a row over the block is
    cut.  Even masks per axis and the faces at -J and J reduce each chunk.
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
                    v = integrand(rows[cut[0]], [h * ax for ax in axes])
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


def _transverse_integral(action, z, ks, halfform=False):
    """T[i, n] = int_m tau(xi, x_n) e^{-k_i f(xi, x_n)} [D(xi, x_n)] dxi at points x_n, for each k_i in ks.

    z has shape (N, ncoords): points of one support pattern, such as the
    nodes of a level slice; D, the divergence factor, enters for the
    half-form twist.  Returns (T, estimates |I_h - I_2h|), each (len(ks), N),
    with T = 1 and error 0 where m = 0.  Each (k, point) pair is a node of its
    own, with the integrand exp(<a, xi> + sum_j b_j log(N_j / N_j(0))) times
    tau(0, x), (a, b) from `actions.transverse_exponent` at its k, and the
    whitened variable xi = C^{-T} y / sqrt(k), C C^T = 2 S the Hessian of f at
    0 and S the field pairing on m.  As det C = 2^{m/2} tau(0, x), tau(0, x)
    dxi = (2k)^{-m/2} dy.  A point whose S has smallest eigenvalue at most
    ORBIT_GRAM_RTOL times the largest of the uncentred pairing U = 8 pi^2
    sum_j l_j sum_{i in j} p_i W_i W_i^T on m (a collapsed orbit) raises
    ActionError.  A tensor trapezoid grid of step h on [-R, R]^m in y is
    widened (R doubles) until the boundary values fall below TRANSVERSE_EDGE
    of the maximum, and then refined (h halves) until the sums at steps h and
    2h agree to TRANSVERSE_RTOL; the trapezoid rule converges exponentially
    for analytic integrands that decay at both ends (Trefethen & Weideman,
    SIAM Review 56, 2014).  The grids are nested, so a node keeps four running
    numbers, not its grid: the sums at steps h and 2h, the maximum and the
    boundary maximum; a refinement evaluates only the points new to it
    (`_grid_pass`), and nodes on one grid share its pass.  A node that needs
    more than MAX_WIDENINGS or MAX_HALVINGS, or whose grid exceeds
    MAX_GRID_POINTS, raises AsymptoticsError, naming its point and k.
    """
    z = np.atleast_2d(z)
    p = masses(action.model, z)
    mb = ta.m_basis(action, ta.isotropy_of_support(action, ta._support_of_masses(action.model, p[0])))
    m = mb.shape[0]
    K, N = len(ks), z.shape[0]
    if m == 0:  # an H = G point: no transverse directions
        return np.ones((K, N)), np.zeros((K, N))
    S = mb @ ta.field_pairing(action, p) @ mb.T
    U = mb @ (2.0 * TWO_PI**2 * np.einsum("ai,bi,...i->...ab", action.scaled_weights(), action.W, p)) @ mb.T
    lo, hi = np.linalg.eigvalsh(S)[:, 0], np.linalg.eigvalsh(U)[:, -1]
    bad = np.flatnonzero(~(lo > ORBIT_GRAM_RTOL * hi))
    if bad.size:
        i = bad[0]
        raise ta.ActionError(f"degenerate coarea differential at the point with masses {np.round(p[i], 12).tolist()}: "
                             f"lambda_min(S) = {lo[i]:.3e}, lambda_max(U) = {hi[i]:.3e} (stratification bug)")
    k_of, x_of = np.divmod(np.arange(K * N), N)  # node n is the pair (ks[k_of[n]], z[x_of[n]])
    k = np.asarray(ks, dtype=float)[k_of]
    a, b = ta.transverse_exponent(action, p, ks, halfform)
    # xi = y @ maps[n] = C^{-T} y / sqrt(k) at node n, so u = W^T xi and <a, xi> are y @ (maps[n] @ [W, a])
    maps = (np.linalg.inv(np.linalg.cholesky(2.0 * S)) @ mb)[x_of] / np.sqrt(k)[:, None, None]
    maps = np.moveaxis(np.concatenate([maps @ action.W, maps @ a[k_of, :, None]], axis=2), 2, 0)  # (ncoords + 1, n, m)
    buf = np.empty(TRANSVERSE_BLOCK * maps.shape[0])  # every chunk's [u, <a, xi>], coordinates first in memory
    jac = (2.0 * k) ** (-m / 2.0)  # dxi = jac dy / tau(0, x), as det(2 k S) = (2 k)^m tau(0, x)^2
    logp = ta._log_masses(p).T
    log_n0 = ta._log_flow_sums(action.model, logp, 0.0)[:, x_of]
    # (coordinate or factor, node, 1, ..., 1): per node, broadcast over a chunk's grid axes
    logp, log_n0, b = (v.reshape(v.shape + (1,) * m) for v in (logp[:, x_of], log_n0, b[k_of].T))

    def integrand(nodes, ys):
        t = np.ndarray((maps.shape[0], nodes.size) + tuple(y.size for y in ys), buffer=buf)  # raises past the block
        # the tensor product: [u, <a, xi>] is the sum of one outer product per axis
        outer = [(maps[:, nodes, d, None] * y).reshape(t.shape[:2] + (1,) * d + (-1,) + (1,) * (m - 1 - d))
                 for d, y in enumerate(ys)]
        if m == 1:
            t[...] = outer[0]
        else:  # one pass over the block for the first two axes
            np.add(outer[0], outer[1], out=t)
        for f in outer[2:]:
            t += f
        log_n = ta._log_flow_sums(action.model, logp[:, nodes], t[:-1], out=t[:-1])
        log_n -= log_n0[:, nodes]
        log_n *= b[:, nodes]
        t[-1] += np.add.reduce(log_n, axis=0)
        return np.exp(t[-1], out=t[-1])

    n = K * N
    R, h = np.full(n, TRANSVERSE_R0), np.full(n, TRANSVERSE_H0)
    came, done = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    sums = np.zeros((4, n))  # per node: grid sum, all-even sum, maximum, boundary maximum

    def at(i):
        return f"at the point {np.round(z[x_of[i]], 12).tolist()}"

    while not done.all():
        live = np.flatnonzero(~done)
        grids, grid_of = np.unique(R[live] + 1j * h[live], return_inverse=True)  # sorted by R, then h
        for g, (Rg, hg) in enumerate((grid.real, grid.imag) for grid in grids.tolist()):
            group = live[grid_of == g]  # the nodes on the grid (R, h) share its pass
            J = int(round(Rg / hg))
            size = (2 * J + 1) ** m
            if size > MAX_GRID_POINTS:
                raise AsymptoticsError(f"transverse integral {at(group[0])} needs {size} grid points at "
                                       f"k={ks[k_of[group[0]]]} (R={Rg:g}, h={hg:g}), over {MAX_GRID_POINTS}")
            _grid_pass(integrand, group, came[group], J, hg, m, sums)
            total, even, top, edge = sums[:, group]
            I_h = hg**m * total
            if not np.isfinite(I_h).all():
                i = group[~np.isfinite(I_h)][0]
                raise AsymptoticsError(f"transverse integral {at(i)} is not finite at k={ks[k_of[i]]}")
            gap = np.abs(I_h - (2.0 * hg) ** m * even)  # |I_h - I_2h|
            wide = edge <= TRANSVERSE_EDGE * top
            settled = wide & (gap <= TRANSVERSE_RTOL * np.abs(I_h))
            done[group[settled]] = True
            widen, halve = ~wide, wide & ~settled
            capped = ((widen, Rg >= TRANSVERSE_R0 * 2.0**MAX_WIDENINGS, MAX_WIDENINGS, "widenings of R"),
                      (halve, hg <= TRANSVERSE_H0 / 2.0**MAX_HALVINGS, MAX_HALVINGS, "halvings of h"))
            for over, at_cap, cap, what in capped:
                if at_cap and over.any():
                    j = np.flatnonzero(over)[0]
                    i = group[j]
                    raise AsymptoticsError(
                        f"transverse integral {at(i)} did not settle at k={ks[k_of[i]]} after {cap} {what} "
                        f"(R={Rg:g}, h={hg:g}, |I_h - I_2h| = {jac[i] * gap[j]:.3e}, I_h = {jac[i] * I_h[j]:.6e})"
                    )
            R[group[widen]] = 2.0 * Rg
            h[group[halve]] = hg / 2.0
            came[group] = 1 + wide  # 2: h halves
    I_h = h**m * sums[0]  # each node's last grid
    value, error = jac * I_h, jac * np.abs(I_h - (2.0 * h) ** m * sums[1])
    return value.reshape(K, N), error.reshape(K, N)


def _density(action, label, point, ks, halfform):
    """One (I_k or J_k, its error) per k in ks at one point: the density's
    factor of T_k times T_k, and its |I_h - I_2h|."""
    iso = label.isotropy
    z = normalize(action.model, point)[None]
    m = action.rank - iso.dim
    vol = 2.0 ** (m / 2.0) if halfform else ta.geometric_orbit_volume(action, z, iso)[0]
    T, T_err = _transverse_integral(action, z, ks, halfform)
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


def residual_with_error(action, label, ks, twist="plain", quad=None, strat=None, exps=None):
    """One (diagonal, error) per k in ks: Gram-diagonal contributions of the extra preimage pieces of one label.

    The sum of `_piece_integral` over `Stratification.preimage(label)` after
    its first entry, the label's own complexification.  Each piece's level
    slice meets every orbit of the piece once, at any torus rank.  `quad`
    sets the Gauss order, max(24, grid_order // 2); `exps` holds each k's
    invariant exponents, if already computed.
    """
    strat = strat or strata.analyze(action)
    exps = [sections.invariant_exponents(action, k, twist) for k in ks] if exps is None else exps
    order = max(24, as_quad(quad).grid_order // 2)
    out = [np.zeros((2, e.shape[0])) for e in exps]  # diagonal, error
    for dim, _, sl in strat.preimage(label)[1:]:
        out = [o + piece for o, piece in zip(out, _piece_integral(action, dim, sl, exps, ks, twist, order))]
    return [(o[0], o[1]) for o in out]


def _piece_integral(action, dim, sl, exps, ks, twist, order):
    """(k/2pi)^{dim/2} int_S |s_a|^2 vol(G.x)/|Gamma| T_k eps_hat over a level slice with q <= 1, and its error.

    One pair per k in ks, exps[i] the exponent matrix at ks[i]; per basis
    monomial.  dim is the complex dimension of the preimage piece,
    vol(G.x)/|Gamma| the geometric orbit volume on the slice's pattern and T_k
    the transverse integral, with the divergence factor for the half-form
    twist.  On a stratum's own zero-level slice this weight is the density
    I_k, or J_k times the half-form descent factor.  One
    `strata.slice_quadrature` call gives the nodes of the Gauss rule and of
    its error rule, and one `_transverse_integral` call covers them at every
    k; the error is the gap |Q_n - Q_{n/2}| between the rules (0 on a point
    slice) plus the order-n nodes' transverse estimates |I_h - I_2h|.
    """
    z, rules = strata.slice_quadrature(action, sl, order)
    vol = ta.geometric_orbit_volume(action, z, ta.isotropy_of_support(action, sl.pattern))
    p = masses(action.model, z)
    out = []
    for k, e, T, T_err in zip(ks, exps, *_transverse_integral(action, z, ks, twist == "halfform")):
        norms = sections.monomial_norms(action.model, e, p, twist)
        value, half = ((w * vol[rows] * T[rows]) @ norms[rows] for rows, w in rules)
        rows, w = rules[0]
        error = (np.abs(w * vol[rows]) * T_err[rows]) @ norms[rows] + np.abs(value - half)
        pref = (k / TWO_PI) ** (dim / 2.0)
        out.append((pref * value, pref * error))
    return out


def residual_II(action, label, k, twist="plain", quad=None, strat=None, diagonal=None):
    """Trace over the invariant basis of the extra-piece contributions; `diagonal`
    is this label's `residual_with_error` diagonal at k, if already computed."""
    if diagonal is None:
        diagonal = residual_with_error(action, label, [k], twist, quad, strat)[0][0]
    return float(np.sum(diagonal))


# ----------------------------------------------------------------------
# defects and consistency


@dataclass
class DensityCurve:
    quantity: str
    stratum: str
    points: list = field(default_factory=list)   # (k, value, error)
    fitted_rate: tuple = None

    def fit(self, limit=0.0):
        ks = [p[0] for p in self.points]
        vals = [p[1] for p in self.points]
        if len(ks) < 2 or sum(abs(v - limit) > 0 for v in vals) < 2:
            self.fitted_rate = None
            return None
        C, p, r2 = fit_power(ks, vals, limit=limit)
        self.fitted_rate = (C, p, r2)
        return self.fitted_rate

    def rows(self):
        return [
            {"quantity": self.quantity, "stratum": self.stratum, "k": k, "value": v, "stderr": e}
            for k, v, e in self.points
        ]


def unitarity_defect(action, k, twist="plain", norm_def=1, quad=None, strat=None, grams=None):
    """max |lambda - 1| over the generalized eigenvalues of (G_down, G_up).

    The descent matrix is the identity in matched bases, so the defect of
    B'^* B' - I (or A'^* A' - I) is read off the Gram pair under the chosen
    norm definition.  Both Grams are diagonal, so the eigenvalues are the
    ratios lambda_a = d_a / u_a of their diagonals.  Returns (defect,
    propagated error sqrt(sd_a^2 + lambda_a^2 su_a^2) / u_a at the worst a).
    """
    if grams is not None:
        gu, gd = grams
    else:
        gu = sections.gram_upstairs(action, k, twist, norm_def, quad, strat=strat)
        gd = reduction.reduced_gram(action, k, twist, norm_def, quad, strat=strat)
    if gu.dim == 0:
        raise AsymptoticsError(f"empty invariant space at k={k}")
    u = gu.diagonal
    if u.min() <= 0:
        raise AsymptoticsError("upstairs Gram not positive definite: insufficient sampling")
    lam = gd.diagonal / u
    a = int(np.argmax(np.abs(lam - 1.0)))
    sigma = np.sqrt(gd.stderr[a] ** 2 + lam[a] ** 2 * gu.stderr[a] ** 2) / u[a]
    return float(abs(lam[a] - 1.0)), float(sigma)


def norm_split_consistency(action, k, twist="plain", quad=None, strat=None, residuals=None):
    """Per-stratum comparison of the direct piece integrals with the
    stratum-density route at k: the `_norm_split_reports` report, with
    `residuals`, if given, holding each stratum's `residual_with_error` entry at k."""
    residuals = None if residuals is None else [[r] for r in residuals]
    return _norm_split_reports(action, [k], twist, quad, strat, residuals)[0]


def _norm_split_reports(action, ks, twist="plain", quad=None, strat=None, residuals=None, exps=None):
    """One norm-split report per k in ks, each with per-section discrepancies.

    Both sides run over the pieces of `Stratification.preimage`.  The left
    side is exact: Dirichlet moments of |s|^2 on each piece's pattern, each
    with its (k/2pi)^{dim/2}.  The right side is one `_piece_integral` per
    piece for all of ks: on the stratum's own zero-level slice at
    DENSITY_ORDER (the reduced-space integral of the descended norm against
    I_k or J_k), on the extra pieces through `residual_with_error`, whose
    grid order `quad` sets.  `stderr` is their quadrature error plus
    CONSISTENCY_FLOOR times the stratum's largest |lhs|, and nsigma = |lhs -
    rhs| / stderr.  `residuals` and `exps`, if given, hold each stratum's
    `residual_with_error` for ks and this quad, and each k's exponents.
    """
    strat = strat or strata.analyze(action)
    exps = [sections.invariant_exponents(action, k, twist) for k in ks] if exps is None else exps
    reports = [{"k": int(k), "twist": twist, "strata": [], "max_nsigma": 0.0, "dim": int(e.shape[0])}
               | ({} if e.shape[0] else {"note": "empty invariant space"}) for k, e in zip(ks, exps)]
    live = [i for i, e in enumerate(exps) if e.shape[0]]
    ks, exps = [ks[i] for i in live], [exps[i] for i in live]
    for si, lab in enumerate(strat.strata if live else ()):
        pieces = strat.preimage(lab)
        d, _, sl = pieces[0]
        own = _piece_integral(action, d, sl, exps, ks, twist, DENSITY_ORDER)
        res = (residual_with_error(action, lab, ks, twist, quad, strat, exps) if residuals is None
               else [residuals[si][i] for i in live])
        for i, k, e, (rhs, err), (r, r_err) in zip(live, ks, exps, own, res):
            lhs = sum((k / TWO_PI) ** (dp / 2.0) * sections._gram_exact_on_pattern(action, e, twist, pattern)[0]
                      for dp, pattern, _ in pieces)
            rhs, err = rhs + r, err + r_err + CONSISTENCY_FLOOR * np.max(np.abs(lhs))
            nsig = np.abs(lhs - rhs) / np.maximum(err, 1e-300)
            reports[i]["strata"].append({"stratum": si, "dim_S": lab.dim_S, "lhs": lhs.tolist(), "rhs": rhs.tolist(),
                                         "stderr": err.tolist(), "nsigma": nsig.tolist()})
            reports[i]["max_nsigma"] = max(reports[i]["max_nsigma"], float(np.max(nsig)))
    return reports
