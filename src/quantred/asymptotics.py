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
TRANSVERSE_BLOCK = 4096  # (node, transverse point) pairs evaluated at once, to bound memory
TRANSVERSE_R0, TRANSVERSE_H0 = 10.0, 1.0  # first grid, in whitened units
MAX_WIDENINGS = 8        # R doubles at most this often per node
MAX_HALVINGS = 10        # h halves at most this often per node
MAX_GRID_POINTS = 2**23  # (node, transverse point) pairs of the grids evaluated together, to bound memory
DENSITY_ORDER = 32       # Gauss nodes per zero-level slice in the stratum-density route
CONSISTENCY_FLOOR = 1e-13  # the norm-split check's stated error is at least this share of a stratum's largest |lhs|


def _on_grid(integrand, nodes, R, h, m, grids):
    """integrand at every (node, y) pair of the grid h Z^m on [-R, R]^m.

    grids[node] = (1 after R doubled or 2 after h halved, its last grid) is popped and kept as the
    centre block or at the even indices; only the points new to a node are evaluated,
    TRANSVERSE_BLOCK pairs at a time.  Shape (len(nodes), 2J+1, ..., 2J+1), J = R/h.
    """
    J = int(round(R / h))
    axis = h * np.arange(-J, J + 1)
    ys = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)
    g = np.empty((nodes.size,) + (2 * J + 1,) * m)
    kept = [(), (slice(J // 2, 3 * J // 2 + 1),) * m, (slice(None, None, 2),) * m]
    came = np.zeros(nodes.size, dtype=int)  # 0 on a node's first grid
    for i, node in enumerate(nodes):
        if node in grids:
            came[i], vals = grids.pop(node)
            g[i][kept[came[i]]] = vals
    flat = g.reshape(nodes.size, -1)
    for c in np.unique(came):
        new = np.ones(g.shape[1:], dtype=bool)
        new[kept[c]] = c == 0
        rows, cols = np.flatnonzero(came == c), np.flatnonzero(new)
        per = max(1, TRANSVERSE_BLOCK // cols.size)
        for a in range(0, rows.size, per):
            for b in range(0, cols.size, TRANSVERSE_BLOCK):
                r, q = rows[a:a + per], cols[b:b + TRANSVERSE_BLOCK]
                flat[np.ix_(r, q)] = integrand(nodes[r], ys[q])
    return g


def _transverse_integral(action, z, k, halfform=False):
    """T_n = int_m tau(xi, x_n) e^{-k f(xi, x_n)} [D(xi, x_n)] dxi at points x_n.

    z has shape (N, ncoords): points of one support pattern, such as the
    nodes of a level slice.  D is the divergence factor, included for the
    half-form twist.  Returns (T, estimates |I_h - I_2h|), each shape (N,);
    T = 1 with error 0 where m = 0.

    tau(xi, x) = tau(0, x) prod_{i in supp x} rho_i(xi, x) is the closed form
    of `actions.coarea_setup`, set up once per call: per (node, xi) pair it
    is one dot product on the log-flow sums log N_j, which are computed once
    per pair and shared by tau, f and D, so no pass does linear algebra.  Each
    node's transverse variable is whitened, xi = C^{-T} y / sqrt(k) with
    C C^T the Hessian of f at 0, which is twice the field pairing on m.  A
    tensor trapezoid grid of step h on [-R, R]^m in y is widened (R doubles)
    until the boundary values fall below TRANSVERSE_EDGE of the maximum, and
    then refined (h halves) until the sums at steps h and 2h agree to
    TRANSVERSE_RTOL; the trapezoid rule converges exponentially for analytic
    integrands that decay at both ends (Trefethen & Weideman, SIAM Review 56,
    2014).  The grids are nested: each refinement evaluates only the points
    new to it.  Nodes on the same grid are evaluated together, in chunks of
    at most MAX_GRID_POINTS (node, transverse point) pairs.  A node that
    needs more than MAX_WIDENINGS or MAX_HALVINGS, or whose grid alone
    exceeds MAX_GRID_POINTS, raises AsymptoticsError.
    """
    z = np.atleast_2d(z)
    p = masses(action.model, z)
    mb = ta.m_basis(action, ta.isotropy(action, z[0]))
    m = mb.shape[0]
    if m == 0:  # an H = G point: no transverse directions
        return np.ones(z.shape[0]), np.zeros(z.shape[0])
    chol = np.linalg.cholesky(2.0 * mb @ ta.field_pairing(action, p) @ mb.T)
    maps = np.linalg.inv(chol) @ mb / np.sqrt(k)  # xi = y @ maps[n]
    jac = 1.0 / (k ** (m / 2.0) * np.linalg.det(chol))
    tau = ta.coarea_setup(action, p)
    logp = ta._log_masses(p)[:, None, :]
    log_n0 = ta._log_flow_sums(action.model, logp, 0.0)

    def integrand(nodes, ys):
        xis = ys @ maps[nodes]
        u = xis @ action.W
        log_n = ta._log_flow_sums(action.model, logp[nodes], u)
        vals = tau(nodes, u, log_n) * np.exp(-k * ta._potential_from_sums(action, xis, log_n, log_n0[nodes]))
        if halfform:
            vals = vals * ta._divergence_from_sums(action.model, u, log_n)
        return vals

    n = z.shape[0]
    R, h = np.full(n, TRANSVERSE_R0), np.full(n, TRANSVERSE_H0)
    widened, halved = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    value, error = np.empty(n), np.empty(n)
    done = np.zeros(n, dtype=bool)
    grids = {}  # node -> (how its grid grows, its values) for `_on_grid`, until the node settles
    axes = tuple(range(1, m + 1))
    while not done.all():
        todo = np.flatnonzero(~done)
        for Rg, hg in sorted(set(zip(R[todo], h[todo]))):
            same = todo[(R[todo] == Rg) & (h[todo] == hg)]
            size = (2 * int(round(Rg / hg)) + 1) ** m  # one node's grid
            if size > MAX_GRID_POINTS:
                raise AsymptoticsError(f"transverse integral at the point {np.round(z[same[0]], 12).tolist()} needs "
                                       f"{size} grid points at k={k} (R={Rg:g}, h={hg:g}), over {MAX_GRID_POINTS}")
            per = MAX_GRID_POINTS // size  # nodes whose grids fit under the cap together
            for group in (same[i:i + per] for i in range(0, same.size, per)):
                g = _on_grid(integrand, group, Rg, hg, m, grids)
                I_h = hg**m * g.sum(axis=axes)
                I_2h = (2.0 * hg) ** m * g[(slice(None),) + (slice(None, None, 2),) * m].sum(axis=axes)
                value[group], error[group] = jac[group] * I_h, jac[group] * np.abs(I_h - I_2h)
                overflow = group[~np.isfinite(I_h)]
                if overflow.size:
                    raise AsymptoticsError(f"transverse integral at the point {np.round(z[overflow[0]], 12).tolist()} "
                                           f"is not finite at k={k}")
                edge = np.max([g.take(i, axis=ax).reshape(group.size, -1).max(axis=1) for ax in axes for i in (0, -1)],
                              axis=0)
                wide = edge <= TRANSVERSE_EDGE * g.reshape(group.size, -1).max(axis=1)
                settled = wide & (np.abs(I_h - I_2h) <= TRANSVERSE_RTOL * np.abs(I_h))
                done[group[settled]] = True
                for more, count, cap, what in ((group[~wide], widened, MAX_WIDENINGS, "widenings of R"),
                                               (group[wide & ~settled], halved, MAX_HALVINGS, "halvings of h")):
                    over = more[count[more] >= cap]
                    if over.size:
                        i = over[0]
                        raise AsymptoticsError(
                            f"transverse integral at the point {np.round(z[i], 12).tolist()} did not settle at "
                            f"k={k} after {cap} {what} (R={R[i]:g}, h={h[i]:g}, |I_h - I_2h| = {error[i]:.3e}, "
                            f"I_h = {value[i]:.6e})"
                        )
                    count[more] += 1
                R[group[~wide]] *= 2.0
                h[group[wide & ~settled]] /= 2.0
                grids.update(zip(group[~settled], zip(1 + wide[~settled], g[~settled])))  # 2: h halves
    return value, error


def _density(action, label, point, k, halfform):
    """(I_k or J_k, its error) at one point: the density's factor of T_k times T_k and its |I_h - I_2h|."""
    iso = label.isotropy
    z = normalize(action.model, point)[None]
    m = action.rank - iso.dim
    w = (k / TWO_PI) ** (m / 2.0) * (2.0 ** (m / 2.0) if halfform else ta.geometric_orbit_volume(action, z, iso))
    value, error = w * np.array(_transverse_integral(action, z, k, halfform))
    return float(value[0]), float(error[0])


def density_I(action, label, point, k):
    """The plain norm density on a stratum; 1 when H = G.

    Limit 2^{-m/2} vol(G.x) as k grows, with vol the geometric orbit volume.
    """
    return _density(action, label, point, k, False)[0]


def density_J(action, label, point, k):
    """The half-form norm density on a stratum; 1 when H = G, limit 1."""
    return _density(action, label, point, k, True)[0]


# ----------------------------------------------------------------------
# residual pieces


def residual_with_error(action, label, k, twist="plain", quad=None, strat=None):
    """(diagonal, error): Gram-diagonal contributions of the extra preimage pieces of one label, and their error.

    The sum of `_piece_integral` over `Stratification.preimage(label)` after
    its first entry, the label's own complexification.  Each piece's level
    slice meets every orbit of the piece once, at any torus rank.  `quad`
    sets the Gauss order, max(24, grid_order // 2).
    """
    strat = strat or strata.analyze(action)
    exps = sections.invariant_exponents(action, k, twist)
    order = max(24, as_quad(quad).grid_order // 2)
    out = np.zeros((2, exps.shape[0]))  # diagonal, error
    for dim, _, sl in strat.preimage(label)[1:]:
        out = out + _piece_integral(action, dim, sl, exps, k, twist, order)
    return out[0], out[1]


def _piece_integral(action, dim, sl, exps, k, twist, order):
    """(k/2pi)^{dim/2} int_S |s_a|^2 vol(G.x)/|Gamma| T_k eps_hat over a level slice with q <= 1, and its error.

    Per basis monomial.  dim is the complex dimension of the preimage piece,
    vol(G.x)/|Gamma| the geometric orbit volume on the slice's pattern and
    T_k the transverse integral, with the divergence factor for the
    half-form twist.  On a stratum's own zero-level slice this weight is
    the density I_k, or J_k times the half-form descent factor.  One
    `strata.slice_quadrature` call gives the nodes of the Gauss rule and of
    its error rule, and one `_transverse_integral` call covers them all; the
    error is the gap |Q_n - Q_{n/2}| between the two rules (0 on a point
    slice) plus the order-n nodes' transverse estimates |I_h - I_2h|.
    """
    z, rules = strata.slice_quadrature(action, sl, order)
    vol = ta.geometric_orbit_volume(action, z, ta.isotropy_of_support(action, sl.pattern))
    T, T_err = _transverse_integral(action, z, k, twist == "halfform")
    norms = sections.monomial_norms(action.model, exps, z, twist)
    value, half = ((w * vol[rows] * T[rows]) @ norms[rows] for rows, w in rules)
    rows, w = rules[0]
    error = (np.abs(w * vol[rows]) * T_err[rows]) @ norms[rows] + np.abs(value - half)
    pref = (k / TWO_PI) ** (dim / 2.0)
    return pref * value, pref * error


def residual_II(action, label, k, twist="plain", quad=None, strat=None, diagonal=None):
    """Trace over the invariant basis of the extra-piece contributions.

    `diagonal` is this label's `residual_with_error` diagonal at k, if already computed.
    """
    if diagonal is None:
        diagonal = residual_with_error(action, label, k, twist, quad, strat)[0]
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
    stratum-density route; returns a report with per-section discrepancies.

    Both sides run over the pieces of `Stratification.preimage`.  The left
    side is exact: Dirichlet moments of |s|^2 on each piece's pattern, each
    with its (k/2pi)^{dim/2}.  The right side is one `_piece_integral` per
    piece: on the stratum's own zero-level slice at DENSITY_ORDER (the
    reduced-space integral of the descended norm against I_k or J_k), on
    the extra pieces through `residual_with_error`.  It carries their
    quadrature error; `stderr` is that error plus CONSISTENCY_FLOOR times
    the stratum's largest |lhs|, and nsigma = |lhs - rhs| / stderr.  `quad`
    sets the residuals' grid order; `residuals`, if given, holds each
    stratum's `residual_with_error` at k for this quad.
    """
    strat = strat or strata.analyze(action)
    exps = sections.invariant_exponents(action, k, twist)
    dim = exps.shape[0]
    report = {"k": int(k), "twist": twist, "strata": [], "max_nsigma": 0.0, "dim": int(dim)}
    if dim == 0:
        report["note"] = "empty invariant space"
        return report
    for si, lab in enumerate(strat.strata):
        pieces = strat.preimage(lab)
        lhs = sum((k / TWO_PI) ** (d / 2.0) * sections._gram_exact_on_pattern(action, exps, twist, pattern)[0]
                  for d, pattern, _ in pieces)
        d, _, sl = pieces[0]
        rhs, err = _piece_integral(action, d, sl, exps, k, twist, DENSITY_ORDER)
        res, res_err = residual_with_error(action, lab, k, twist, quad, strat) if residuals is None else residuals[si]
        rhs, err = rhs + res, err + res_err + CONSISTENCY_FLOOR * np.max(np.abs(lhs))
        nsig = np.abs(lhs - rhs) / np.maximum(err, 1e-300)
        report["strata"].append({"stratum": si, "dim_S": lab.dim_S, "lhs": lhs.tolist(), "rhs": rhs.tolist(),
                                 "stderr": err.tolist(), "nsigma": nsig.tolist()})
        report["max_nsigma"] = max(report["max_nsigma"], float(np.max(nsig)))
    return report
