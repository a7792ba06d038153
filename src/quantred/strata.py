"""Orbit-type stratification: support patterns, level slices, strata and extra pieces.

For torus actions on projective-space products everything combinatorial is
driven by coordinate support patterns: which coordinates of each factor are
nonzero.  A pattern R has a constant isotropy descriptor, and the closure of
its moment image is the convex hull of the per-factor weight vertices.  The
zero level meets the open pattern iff 0 lies in the relative interior of
that hull; patterns whose hull only touches 0 on the boundary flow out of
themselves and form the extra pieces of the preimage decomposition.  One
max-min over masses decides this (`_level_masses`): vertex weights lam_c > 0
give masses p_i = sum of lam_c over c through i, and masses p > 0 give
lam_c = prod_j p_(c_j).

The numeric gradient flow of -|phi|^2 (`kirwan_flow`) is not needed for
any of this; it is the tests' cross-check of the pieces' parents.  It is
exact on rays: the trajectory through x stays in the imaginary-orbit
{e^{i xi} x}, so the ODE is integrated on xi in R^d and points are
recovered by the closed-form imaginary flow.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import actions as ta
from . import models
from .errors import QuantredError
from .integrate import gauss_segment
from .models import TWO_PI, masses

ZERO_TOL = 1e-9
FEAS_TOL = 1e-7  # a level misses a pattern beyond this residual or negative mass, HiGHS's primal tolerance
MOVE_TOL = 1e-14  # a unit slice direction moves the masses where it exceeds this
SEGMENT_SHRINK = 1e-6  # the sampling box of a q = 1 slice stops this fraction of its length short of each end


class StrataError(QuantredError, RuntimeError):
    pass


class EmptyZeroLevelError(StrataError):
    """The shift places 0 outside phi(M), so there is nothing to reduce."""


def _linprog(c, **constraints):
    """scipy's HiGHS linear program, for slices with q >= 2 only; scipy loads on the first call."""
    from scipy.optimize import linprog

    return linprog(c, method="highs", **constraints)


# ----------------------------------------------------------------------
# support patterns and moment polytopes


def all_support_patterns(model):
    per_factor = []
    for sl in model.slices:
        idx = list(range(sl.start, sl.stop))
        subsets = []
        for r in range(1, len(idx) + 1):
            subsets.extend(itertools.combinations(idx, r))
        per_factor.append(subsets)
    return [tuple(combo) for combo in itertools.product(*per_factor)]


@dataclass(frozen=True)
class PatternInfo:
    pattern: tuple
    iso: ta.IsotropyDescriptor
    location: str
    masses: tuple = field(default=None, compare=False, repr=False)  # _level_masses's (location, p0, basis) at level 0

    @property
    def dim_complex(self):
        return sum(len(sup) - 1 for sup in self.pattern)


# ----------------------------------------------------------------------
# level-set slices and their parametrization


@dataclass
class LevelSlice:
    """{x : support(x) = pattern, phi(x) = value}, with (p, theta) coordinates.

    p ranges over an affine slice of the mass polytope (p0 + span(basis),
    intersected with positivity) and theta over the free phases; the gauge
    fixes one real-positive coordinate per factor.
    """

    pattern: tuple
    value: np.ndarray
    p0: np.ndarray          # (ncoords,) interior masses
    basis: np.ndarray       # (q, ncoords) directions inside the slice
    box: tuple              # (lo, hi), each (q,): a box around the slice polytope
    theta_idx: tuple        # coordinate indices with free phase
    gauge_idx: tuple        # per-factor phase-fixed coordinate

    @property
    def q(self):
        return self.basis.shape[0]

    @property
    def n_theta(self):
        return len(self.theta_idx)

    def point(self, s=None, theta=None):
        p = self.p0 if s is None else self.p0 + np.asarray(s) @ self.basis
        z = np.sqrt(np.clip(p, 0.0, None)).astype(complex)
        if theta is not None:
            z = z * np.exp(1j * np.asarray(theta))
        return z


def _level_masses(action, patterns, values):
    """[(location, p, basis)] of the level phi = values[j] on each patterns[j].

    p maximises the smallest mass under the level equations A p = b and basis
    spans their q = nsup - rank A null directions.  'outside' if no p >= 0
    solves them (p and basis None), 'boundary' if that mass is at most
    ZERO_TOL, else 'inside'.  For q = 0 the equations fix p; for q = 1 p is
    the midpoint of the optimal interval on the line of solutions (a point
    unless the smallest mass is constant along it); only q >= 2 solves a
    linear program.  The patterns of one support size share one stacked SVD,
    which gives each its rank, minimum-norm solution and null basis.
    """
    model, n, nfac = action.model, len(patterns), len(action.model.slices)
    cols = np.concatenate([action.scaled_weights(), np.zeros((nfac, model.ncoords))])  # coordinate i's column of A
    for f, fac in enumerate(model.slices):
        cols[action.rank + f, fac] = 1.0
    rhs = np.concatenate([np.reshape(values, (n, action.rank)) / -TWO_PI - action.shift_float, np.ones((n, nfac))], 1)
    sups = [[i for fac in pat for i in fac] for pat in patterns]
    p, basis = np.zeros((n, model.ncoords)), np.zeros((n, model.ncoords, model.ncoords))
    rank, eps, lp = np.zeros(n, dtype=int), np.zeros(n), {}  # lp[j]: the linear program of q >= 2 found masses
    for nsup in set(map(len, sups)):
        js = [j for j, sup in enumerate(sups) if len(sup) == nsup]
        rows, sup = np.array(js), np.array([sups[j] for j in js])
        b = rhs[rows]
        A = cols[:, sup].transpose(1, 0, 2)
        u, s, vt = np.linalg.svd(A)
        r = (s > 1e-10 * np.maximum(s[:, :1], 1.0)).sum(1)
        x = np.zeros(sup.shape)
        ranks = set(r.tolist())
        for k in ranks:  # the minimum-norm solutions, one stacked product per rank
            on = r == k if len(ranks) > 1 else slice(None)
            c = u[on, :, :k].transpose(0, 2, 1) @ b[on, :, None] / s[on, :k, None]
            x[on] = (vt[on, :k].transpose(0, 2, 1) @ c)[..., 0]
        one = r == nsup - 1
        if one.any():
            # the smallest mass is concave along x + t v: its maximum is the best crossing t of a
            # rising mass i and a falling mass j, kept on the interval where every moving mass reaches it
            xo, v = x[one], vt[one, r[one]]
            pair = (v > MOVE_TOL)[:, :, None] & (v < -MOVE_TOL)[:, None, :]
            t = (xo[:, None, :] - xo[:, :, None]) / np.where(pair, v[:, :, None] - v[:, None, :], 1.0)
            low = np.min(xo[:, :, None, None] + v[:, :, None, None] * t[:, None], axis=1)
            lo, hi = _segment(xo, v, np.max(np.where(pair, low, -np.inf), axis=(1, 2))[:, None])
            x[one] = xo + ((lo + hi) / 2)[:, None] * v
        eps[rows] = x.min(axis=1)
        for m in (r < nsup - 1).nonzero()[0]:
            # max eps with p_i >= eps
            c = np.zeros(nsup + 1)
            c[-1] = -1.0
            res = _linprog(c, A_ub=np.hstack([-np.eye(nsup), np.ones((nsup, 1))]), b_ub=np.zeros(nsup),
                           A_eq=np.hstack([A[m], np.zeros((A.shape[1], 1))]), b_eq=b[m],
                           bounds=[(0, None)] * nsup + [(0, 1.0)])
            if res.status not in (0, 2):
                raise StrataError(f"level linear program on pattern {patterns[js[m]]} failed: {res.message}")
            lp[js[m]] = res.status == 0
            if lp[js[m]]:
                x[m], eps[js[m]] = res.x[:nsup], -res.fun
        p[rows[:, None], sup] = x
        basis[rows[:, None, None], np.arange(nsup)[:, None], sup[:, None]] = vt
        rank[rows] = r
    solved = (np.sqrt(np.square(p @ cols.T - rhs).sum(axis=1)) <= FEAS_TOL) & (eps >= -FEAS_TOL)
    return [("inside" if e > ZERO_TOL else "boundary", p[j], basis[j, k:len(sups[j])]) if lp.get(j, ok)
            else ("outside", None, None)
            for j, (ok, e, k) in enumerate(zip(solved.tolist(), eps.tolist(), rank.tolist()))]


def _segment(p, v, floor=0.0):
    """(t_lo, t_hi): the interval of t where p + t v >= floor on the coordinates that move along v.

    Along the last axis, so a stack of segments gives a stack of intervals."""
    t = (floor - p) / np.where(np.abs(v) > MOVE_TOL, v, 1.0)
    return (np.max(t, axis=-1, where=v > MOVE_TOL, initial=-np.inf),
            np.min(t, axis=-1, where=v < -MOVE_TOL, initial=np.inf))


def make_level_slice(action, pattern, value, masses=None):
    """The level slice of a pattern at `value`; StrataError if the level misses it.

    Its box is the segment shrunk by SEGMENT_SHRINK of its length at each end
    for q = 1, empty for q = 0, and the LP bounds of the slice polytope for q >= 2.
    `masses`, when given, is the (location, p0, basis) `_level_masses` found at `value`.
    """
    value = np.asarray(value, dtype=float)
    location, p0, basis = masses or _level_masses(action, [pattern], [value])[0]
    if location != "inside":
        raise StrataError(f"the level {value} misses the open pattern {pattern} ({location})")
    if basis.shape[0] == 1:
        t_lo, t_hi = _segment(p0, basis[0])
        span = t_hi - t_lo
        box = (np.array([t_lo + SEGMENT_SHRINK * span]), np.array([t_hi - SEGMENT_SHRINK * span]))
    else:
        box = _slice_box(p0, basis) if basis.shape[0] else (np.zeros(0), np.zeros(0))
    gauge = []
    theta = []
    mass = p0.tolist()
    for fac in pattern:
        # gauge the phase of the most robustly positive coordinate, the first
        # within 1e-12 of the largest mass so that rounding cannot move it
        top = max(mass[i] for i in fac)
        best = next(i for i in fac if mass[i] >= top - 1e-12)
        gauge.append(best)
        theta.extend(i for i in fac if i != best)
    return LevelSlice(
        pattern=pattern,
        value=value,
        p0=p0,
        basis=basis,
        box=box,
        theta_idx=tuple(theta),
        gauge_idx=tuple(gauge),
    )


def slice_embedding_jacobian(action, sl, s=None):
    """Riemannian Jacobian of (s, theta) -> M at a slice point (theta-independent).

    Finite-difference reference for `slice_constant`; no production path
    calls it.
    """
    model = action.model
    z = models.normalize(model, sl.point(s))
    charts = models.chart_indices(model, z)
    w0 = models.to_chart(model, z, charts)
    g = models.chart_metric(model, w0)
    cols = []
    for a in range(sl.q):
        ds = np.zeros(sl.q)
        ds[a] = ta.FD_STEP
        sp = (np.zeros(sl.q) if s is None else np.asarray(s)) + ds
        sm = (np.zeros(sl.q) if s is None else np.asarray(s)) - ds
        wp = models.to_chart(model, models.normalize(model, sl.point(sp)), charts)
        wm = models.to_chart(model, models.normalize(model, sl.point(sm)), charts)
        cols.append((wp - wm) / (2 * ta.FD_STEP))
    for i in sl.theta_idx:
        v = np.zeros(model.ncoords, dtype=complex)
        v[i] = 1j * z[i]
        cols.append(models.ambient_to_chart(model, z, v, charts))
    if not cols:
        return 1.0, z
    cols = np.asarray(cols)
    G = 2.0 * np.real(np.einsum("pa,ab,qb->pq", cols, g, np.conj(cols)))
    det = float(np.linalg.det(G))
    if det <= 0:
        raise StrataError("degenerate slice parametrization")
    return float(np.sqrt(det)), z


def slice_constant(action, sl, iso):
    """Duistermaat-Heckman constant C of a level slice: eps_hat = C ds.

    The reduced measure of the slice's quotient is C times Lebesgue measure
    in the slice coordinates s, which are action coordinates (Duistermaat &
    Heckman 1982).  With P the slice basis on the free phases scaled by the
    factor degrees l_j, and Wt the m-basis image of the weights relative to
    each factor's gauge coordinate, restricted to the free phases,

        C = sqrt det(P P^T) (2 pi)^(n_theta - m) |Gamma| / sqrt det(Wt Wt^T).

    `iso` is the isotropy of the slice's pattern.  The Riemannian measure of
    the slice itself is C vol(G.x)/|Gamma| ds, the geometric orbit volume
    times C; `slice_embedding_jacobian` is the finite-difference reference.
    """
    model = action.model
    theta = list(sl.theta_idx)
    # per coordinate: the bundle degree and the gauge coordinate of its factor
    degree = np.concatenate([np.full(f.stop - f.start, float(l)) for f, l in zip(model.slices, model.bundle_degrees)])
    gauge = np.concatenate([np.full(f.stop - f.start, g) for f, g in zip(model.slices, sl.gauge_idx)])
    P = sl.basis[:, theta] * degree[theta]
    Wt = ta.m_basis(action, iso) @ (action.W[:, theta] - action.W[:, gauge[theta]])
    return float(
        np.sqrt(np.linalg.det(P @ P.T)) * TWO_PI ** (len(theta) - Wt.shape[0]) * iso.finite_part
        / np.sqrt(np.linalg.det(Wt @ Wt.T))
    )


def slice_quadrature(action, sl, order):
    """The Gauss rule of the reduced measure on a level slice with q <= 1, and its error rule.

    Returns (z, rules): unit points with zero free phases, shape (N,
    ncoords), and two (rows, weights) rules on them, with
    sum_n w_n f(z[rows][n]) = int f eps_hat up to the Gauss error of f.  On
    a segment (q = 1, Gauss nodes on the whole segment, not on its shrunk
    box) the first rule has order n = `order` and the error rule half that
    order, at least 8, so |Q_n - Q_{n/2}| estimates the first rule's error.
    A point slice (q = 0) is its one point with weight C in both rules, so
    its Gauss error is exactly 0.
    """
    if sl.q > 1:
        raise StrataError(f"the level slice of pattern {list(map(list, sl.pattern))} has dimension q = {sl.q}, but "
                          "the Gauss rule takes q <= 1: only gram and unitarity have a q >= 2 route (quad.method mc)")
    C = slice_constant(action, sl, ta.isotropy_of_support(action, sl.pattern))
    if sl.q == 0:
        s, rules = np.zeros((1, 0)), ((slice(0, 1), np.array([C])),) * 2
    else:
        ends = _segment(sl.p0, sl.basis[0])
        t, w = zip(*(gauss_segment(*ends, n) for n in (order, max(8, order // 2))))
        s, rules = np.concatenate(t)[:, None], ((slice(0, order), C * w[0]), (slice(order, None), C * w[1]))
    return models.normalize(action.model, sl.point(s)), rules


def _slice_box(p0, basis):
    """Per-coordinate bounds of the slice polytope {s : p0 + s basis >= 0}."""
    q = basis.shape[0]
    sup = np.flatnonzero(p0 > 0)
    a_ub, b_ub = -basis[:, sup].T, p0[sup]
    lo, hi = np.empty(q), np.empty(q)
    for a in range(q):
        c = np.zeros(q)
        c[a] = 1.0
        bounds = []
        for sign in (1.0, -1.0):
            res = _linprog(sign * c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * q)
            if not res.success:
                raise StrataError("slice polytope is unbounded or empty")
            bounds.append(res.x[a])
        lo[a], hi[a] = bounds
    return lo, hi


# ----------------------------------------------------------------------
# strata and extra pieces


@dataclass
class StratumLabel:
    """An orbit-type stratum of the zero level set and its quotient stratum."""

    isotropy: ta.IsotropyDescriptor
    component_id: int
    dim_S: int
    dim_upstairs: int
    patterns: tuple          # all carrier patterns merged into this label
    top_pattern: tuple       # the one of maximal dimension (carries the measure)
    representative: np.ndarray
    level_slice: LevelSlice  # the zero-level slice of top_pattern

    @property
    def key(self):
        return (self.isotropy.key(), self.component_id)

    def to_json_dict(self):
        return {
            "isotropy": self.isotropy.to_json_dict(),
            "component_id": self.component_id,
            "dim_S": self.dim_S,
            "dim_upstairs": self.dim_upstairs,
            "patterns": [[list(f) for f in pat] for pat in self.patterns],
            "representative": [[float(v.real), float(v.imag)] for v in self.representative],
        }


@dataclass
class ExtraPiece:
    """A G_C-invariant component of F_inf^{-1}(Z_(H)) missing the zero level."""

    parent_key: tuple
    isotropy_prime: ta.IsotropyDescriptor
    pattern: tuple
    level_slice: LevelSlice  # one slice at a relative-interior level of the pattern's image
    dim_piece: int

    def to_json_dict(self):
        return {
            "isotropy_prime": self.isotropy_prime.to_json_dict(),
            "pattern": [list(f) for f in self.pattern],
            "level": [float(v) for v in self.level_slice.value],
            "dim_piece": self.dim_piece,
        }


@dataclass
class Stratification:
    action: object
    strata: list
    pieces: dict            # stratum key -> list of ExtraPiece
    unsemistable: list      # PatternInfo

    def open_stratum(self):
        return max(self.strata, key=lambda s: s.dim_S)

    def preimage(self, lab):
        """[(dim, pattern, level_slice)]: the pieces of the preimage of a stratum under the flow.

        First the stratum's complexification (complex dimension, top pattern,
        zero-level slice), then its extra pieces (Kirwan 1984).  Where 0 lies
        on the boundary of phi(M) the whole space is one of the extra pieces.
        """
        return [(lab.dim_upstairs, lab.top_pattern, lab.level_slice)] + [
            (p.dim_piece, p.pattern, p.level_slice) for p in self.pieces[lab.key]]

    def to_json_dict(self):
        return {
            "strata": [s.to_json_dict() for s in self.strata],
            "extra_pieces": {
                str(i): [p.to_json_dict() for p in self.pieces.get(s.key, ())]
                for i, s in enumerate(self.strata)
            },
            "unsemistable_patterns": [[list(f) for f in info.pattern] for info in self.unsemistable],
        }


def _pattern_infos(action):
    """Every support pattern with its isotropy and its level-0 masses, from one `_level_masses` call."""
    patterns = all_support_patterns(action.model)
    solved = _level_masses(action, patterns, np.zeros((len(patterns), action.rank)))
    return [PatternInfo(pat, ta.isotropy_of_support(action, pat), m[0], m) for pat, m in zip(patterns, solved)]


def _pattern_masks(model, infos):
    """(len(infos), ncoords) booleans: the coordinates of each pattern."""
    mask = np.zeros((len(infos), model.ncoords), dtype=bool)
    for row, info in zip(mask, infos):
        row[[i for fac in info.pattern for i in fac]] = True
    return mask


def _merge_carriers(carriers):
    """Group carrier patterns into connected strata of equal isotropy."""
    n = len(carriers)
    parent = list(range(n))
    bits = [sum(1 << i for fac in info.pattern for i in fac) for info in carriers]  # one bit per coordinate

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            # one pattern contains the other and both have one isotropy
            if (bits[i] | bits[j]) in (bits[i], bits[j]) and carriers[i].iso.key() == carriers[j].iso.key():
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(carriers[i])
    return list(groups.values())


def analyze(action):
    """Full combinatorial stratification of the zero level set and its preimage.

    Two `_level_masses` calls solve every level equation: all patterns at level 0,
    then the boundary patterns at their pieces' levels."""
    infos = _pattern_infos(action)
    carriers = [info for info in infos if info.location == "inside"]
    boundary = [info for info in infos if info.location == "boundary"]
    unsemi = [info for info in infos if info.location == "outside"]
    if not carriers:
        raise EmptyZeroLevelError("empty zero level set: the shift places 0 outside phi(M)")

    strata = []
    rng = np.random.default_rng(20240707)
    for cid, group in enumerate(_merge_carriers(carriers)):
        top = max(group, key=lambda info: info.dim_complex)
        iso = top.iso
        m = action.rank - iso.dim
        dim_S = top.dim_complex - m
        sl = make_level_slice(action, top.pattern, np.zeros(action.rank), top.masses)
        theta = np.zeros(action.model.ncoords)
        theta[list(sl.theta_idx)] = rng.uniform(0, TWO_PI, size=len(sl.theta_idx))
        rep = models.normalize(action.model, sl.point(theta=theta))
        strata.append(
            StratumLabel(
                isotropy=iso,
                component_id=cid,
                dim_S=dim_S,
                dim_upstairs=dim_S + m,
                patterns=tuple(info.pattern for info in group),
                top_pattern=top.pattern,
                representative=rep,
                level_slice=sl,
            )
        )

    found = [[] for _ in strata]
    if boundary:
        # a point's flow limit is supported on the face of its pattern hull with 0 in its relative
        # interior (Atiyah 1982; Kirwan 1984); every carrier inside the pattern lies in that face,
        # so the largest such carrier names the piece's parent stratum
        edge, inside = _pattern_masks(action.model, boundary), _pattern_masks(action.model, carriers)
        inner = ~np.any(inside[None] & ~edge[:, None], axis=2)  # [b, c]: boundary pattern b contains carrier c
        faces = np.argmax(np.where(inner, inside.sum(axis=1), -1), axis=1)
        owner = {pat: i for i, s in enumerate(strata) for pat in s.patterns}
        levels = ta.moment_from_masses(action, np.hstack([edge[:, f] / edge[:, f].sum(1, keepdims=True)
                                                          for f in action.model.slices])) / 2.0
        solved = _level_masses(action, [info.pattern for info in boundary], levels)
        for info, level, masses, face in zip(boundary, levels, solved, faces):
            parent = owner[carriers[face].pattern]
            found[parent].append(_build_piece(action, info, level, masses, strata[parent]))
    pieces = {s.key: ps for s, ps in zip(strata, found)}
    return Stratification(action=action, strata=strata, pieces=pieces, unsemistable=unsemi)


def _build_piece(action, info, level, masses, parent):
    """Slice data for one boundary pattern, attached to its parent stratum.

    Every complexified torus orbit in the pattern has the open hull of the
    pattern's vertices as its moment image (Atiyah 1982), so one level in
    its relative interior meets every orbit of the piece.  Half the vertex
    centroid (phi at uniform masses) is such a level at every torus rank: the
    midpoint of a relative-interior point and the boundary point 0.  `level`
    is that level and `masses` what `_level_masses` found there.
    """
    return ExtraPiece(
        parent_key=parent.key,
        isotropy_prime=info.iso,
        pattern=info.pattern,
        level_slice=make_level_slice(action, info.pattern, level, masses),
        dim_piece=info.dim_complex,
    )


# ----------------------------------------------------------------------
# gradient flow of -|phi|^2


@dataclass
class FlowResult:
    limit: np.ndarray
    steps: int
    residual: float
    status: str              # converged | unsemistable | inconclusive
    monotone: bool = True

    @property
    def converged(self):
        return self.status == "converged"


def kirwan_flow(action, point, tol=1e-12, max_steps=20000):
    """Integrate x' = -2 J X^{phi(x)}(x) to its limit on the zero level.

    The trajectory is e^{i xi(t)} x0 with xi' = -2 phi(e^{i xi} x0), integrated
    by an adaptive Heun scheme; |phi|^2 is checked to decrease on every
    accepted step.  Status 'unsemistable' means the gradient stalled with
    |phi|^2 bounded away from zero; 'inconclusive' means the step budget ran
    out while still descending.
    """
    if tol <= 0:
        raise StrataError("tol must be positive")
    model = action.model
    z0 = models.normalize(model, point)
    xi = np.zeros(action.rank)
    y = z0
    phi = moment = ta.moment_map(action, y)
    ns2 = float(phi @ phi)
    if ns2 < tol:
        return FlowResult(limit=y, steps=0, residual=ns2, status="converged")
    h = 0.05
    monotone = True
    for step in range(1, max_steps + 1):
        f0 = -2.0 * phi
        y1 = ta.imaginary_flow(action, xi + h * f0, 1.0, z0)
        phi1 = ta.moment_map(action, y1)
        f1 = -2.0 * phi1
        xi_new = xi + 0.5 * h * (f0 + f1)
        err = 0.5 * h * float(np.linalg.norm(f1 - f0))
        if err > 1e-3 * max(1.0, float(np.linalg.norm(xi))):
            h *= 0.5
            continue
        y_new = ta.imaginary_flow(action, xi_new, 1.0, z0)
        phi_new = ta.moment_map(action, y_new)
        ns2_new = float(phi_new @ phi_new)
        if ns2_new > ns2:
            h *= 0.5
            if h < 1e-12:
                monotone = False
                break
            continue
        xi, y, phi, ns2 = xi_new, y_new, phi_new, ns2_new
        if err < 1e-5 * max(1.0, float(np.linalg.norm(xi))):
            h *= 1.6
        if ns2 < tol:
            return FlowResult(limit=y, steps=step, residual=ns2, status="converged", monotone=monotone)
        # stall detection: |grad|phi|^2| = 2 sqrt(phi^T G phi) tiny but phi not
        G = ta.field_pairing(action, masses(model, y))
        grad2 = 4.0 * float(phi @ G @ phi)
        if grad2 < (1e-7 * ns2) ** 2 and ns2 > 100.0 * tol:
            return FlowResult(limit=y, steps=step, residual=ns2, status="unsemistable", monotone=monotone)
    return FlowResult(limit=y, steps=max_steps, residual=ns2, status="inconclusive", monotone=monotone)


# ----------------------------------------------------------------------
# sampling a stratum or an extra piece


def stratum_draw(action, target, count, seed):
    """The draw behind `sample_stratum`: (p, phase uniforms, quotient weights) of count draws.

    A draw is a row of uniforms, the slice coordinates s (mapped into the slice's box), then the phases;
    it is kept when p = p0 + s basis lands in the slice polytope, else it keeps weight 0 and p = p0."""
    if count <= 0:
        raise StrataError("count must be positive")
    sl = target.level_slice
    u = np.random.default_rng(seed).random((count, sl.q + sl.n_theta))
    lo, hi = sl.box
    p = sl.p0 + (lo + (hi - lo) * u[:, : sl.q]) @ sl.basis
    accepted = np.all(p >= 0, axis=1)
    p[~accepted] = sl.p0
    C = slice_constant(action, sl, ta.isotropy_of_support(action, sl.pattern))
    return p, u[:, sl.q :], np.where(accepted, C * float(np.prod(hi - lo)) / count, 0.0)


def sample_stratum(action, target, count, seed):
    """Points on the level slice of a stratum label or an ExtraPiece, with quotient weights.

    The weights realize integrals against the slice's reduced measure, for
    a piece as for a stratum: sum_i w_i f(x_i) estimates int f eps_hat (one
    representative per orbit, finite-part corrected).  The points carry
    `stratum_draw`'s masses and phases, so each lies on the slice even when
    no draw is accepted (a q <= 1 box lies inside the slice polytope).
    """
    p, phases, wts = stratum_draw(action, target, count, seed)
    model, sl = action.model, target.level_slice
    theta = np.zeros((count, model.ncoords))
    theta[:, list(sl.theta_idx)] = TWO_PI * phases
    z = np.sqrt(np.clip(p, 0.0, None)).astype(complex)
    return models.normalize(model, models.normalize(model, z) * np.exp(1j * theta)), wts
