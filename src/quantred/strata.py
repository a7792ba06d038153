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
    masses: tuple = field(default=None, compare=False, repr=False)  # (p0, basis) at level 0, None unless inside

    @property
    def dim_complex(self):
        return sum(len(sup) - 1 for sup in self.pattern)


def pattern_contains(big, small):
    return all(set(s).issubset(set(b)) for b, s in zip(big, small))


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


def _level_masses(action, pattern, value):
    """(location, p, basis) of the level phi = value on a pattern.

    p maximises the smallest mass under the level equations A p = b and basis
    spans their q = nsup - rank A null directions.  'outside' if no p >= 0
    solves them (p and basis None), 'boundary' if that mass is at most
    ZERO_TOL, else 'inside'.  For q = 0 the equations fix p; for q = 1 p is
    the midpoint of the optimal interval on the line of solutions (a point
    unless the smallest mass is constant along it); only q >= 2 solves a
    linear program.
    """
    model = action.model
    sup = [i for fac in pattern for i in fac]
    nsup = len(sup)
    A = np.vstack([action.scaled_weights()[:, sup], [[float(i in fac) for i in sup] for fac in pattern]])
    b = np.concatenate([-value / TWO_PI - action.shift_float, np.ones(len(pattern))])
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    q = nsup - rank
    basis = np.zeros((q, model.ncoords))
    basis[:, sup] = vt[rank:]
    if q <= 1:
        x = vt[:rank].T @ (u[:, :rank].T @ b / s[:rank])
        if q == 1:
            # the smallest mass is concave along x + t v: its maximum is the best crossing of a
            # rising and a falling mass, kept on the interval where every moving mass reaches it
            v = vt[rank]
            up, down = v > MOVE_TOL, v < -MOVE_TOL
            t = ((x[None, down] - x[up, None]) / (v[up, None] - v[None, down])).ravel()
            best = np.max(np.min(x[:, None] + v[:, None] * t, axis=0))
            x = x + np.mean(_segment(x, v, best)) * v
        if np.linalg.norm(A @ x - b) > FEAS_TOL or x.min() < -FEAS_TOL:
            return "outside", None, None
        eps = x.min()
    else:
        # max eps with p_i >= eps
        c = np.zeros(nsup + 1)
        c[-1] = -1.0
        a_ub = np.hstack([-np.eye(nsup), np.ones((nsup, 1))])
        res = _linprog(
            c,
            A_ub=a_ub,
            b_ub=np.zeros(nsup),
            A_eq=np.hstack([A, np.zeros((A.shape[0], 1))]),
            b_eq=b,
            bounds=[(0, None)] * nsup + [(0, 1.0)],
        )
        if res.status == 2:
            return "outside", None, None
        if res.status != 0:
            raise StrataError(f"level linear program on pattern {pattern} failed: {res.message}")
        x, eps = res.x[:nsup], -res.fun
    p = np.zeros(model.ncoords)
    p[sup] = x
    return ("inside" if eps > ZERO_TOL else "boundary"), p, basis


def _segment(p, v, floor=0.0):
    """(t_lo, t_hi): the interval of t where p + t v >= floor on the coordinates that move along v."""
    move = np.abs(v) > MOVE_TOL
    t = (floor - p[move]) / v[move]
    return np.max(t[v[move] > 0]), np.min(t[v[move] < 0])


def make_level_slice(action, pattern, value, masses=None):
    """The level slice of a pattern at `value`; StrataError if the level misses it.

    Its box is the segment shrunk by SEGMENT_SHRINK of its length at each end
    for q = 1, and the LP bounds of the slice polytope otherwise (no LP for q = 0).
    `masses`, when given, is the (p0, basis) `_level_masses` found at `value`.
    """
    value = np.asarray(value, dtype=float)
    location, p0, basis = ("inside", *masses) if masses else _level_masses(action, pattern, value)
    if location != "inside":
        raise StrataError(f"the level {value} misses the open pattern {pattern} ({location})")
    if basis.shape[0] == 1:
        t_lo, t_hi = _segment(p0, basis[0])
        span = t_hi - t_lo
        box = (np.array([t_lo + SEGMENT_SHRINK * span]), np.array([t_hi - SEGMENT_SHRINK * span]))
    else:
        box = _slice_box(p0, basis)
    gauge = []
    theta = []
    for fac in pattern:
        # gauge the phase of the most robustly positive coordinate, the first
        # within 1e-12 of the largest mass so that rounding cannot move it
        top = max(p0[i] for i in fac)
        best = next(i for i in fac if p0[i] >= top - 1e-12)
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
    zero = np.zeros(action.rank)
    infos = []
    for pattern in all_support_patterns(action.model):
        location, p0, basis = _level_masses(action, pattern, zero)
        masses = (p0, basis) if location == "inside" else None
        infos.append(PatternInfo(pattern, ta.isotropy_of_support(action, pattern), location, masses))
    return infos


def _merge_carriers(action, carriers):
    """Group carrier patterns into connected strata of equal isotropy."""
    n = len(carriers)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for i in range(n):
        for j in range(i + 1, n):
            if carriers[i].iso.key() != carriers[j].iso.key():
                continue
            a, b = carriers[i].pattern, carriers[j].pattern
            if pattern_contains(a, b) or pattern_contains(b, a):
                union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(carriers[i])
    return list(groups.values())


def analyze(action):
    """Full combinatorial stratification of the zero level set and its preimage."""
    infos = _pattern_infos(action)
    carriers = [info for info in infos if info.location == "inside"]
    boundary = [info for info in infos if info.location == "boundary"]
    unsemi = [info for info in infos if info.location == "outside"]
    if not carriers:
        raise EmptyZeroLevelError("empty zero level set: the shift places 0 outside phi(M)")

    strata = []
    rng = np.random.default_rng(20240707)
    for cid, group in enumerate(_merge_carriers(action, carriers)):
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

    pieces = {s.key: [] for s in strata}
    for info in boundary:
        piece = _build_piece(action, info, carriers, strata)
        pieces[piece.parent_key].append(piece)
    return Stratification(action=action, strata=strata, pieces=pieces, unsemistable=unsemi)


def _build_piece(action, info, carriers, strata):
    """Slice data for one boundary pattern, attached to its parent stratum.

    Every complexified torus orbit in the pattern has the open hull of the
    pattern's vertices as its moment image (Atiyah 1982), so one level in
    its relative interior meets every orbit of the piece.  Half the vertex
    centroid (phi at uniform masses) is such a level at every torus rank: the
    midpoint of a relative-interior point and the boundary point 0.
    A point's flow limit is supported on the face of its pattern hull with 0
    in its relative interior (Atiyah 1982; Kirwan 1984).  Every carrier inside
    the pattern lies in that face, so it is the largest such carrier.
    """
    uniform = np.zeros(action.model.ncoords)
    for fac in info.pattern:
        uniform[list(fac)] = 1.0 / len(fac)
    sl = make_level_slice(action, info.pattern, ta.moment_from_masses(action, uniform) / 2.0)
    face = max(
        (c.pattern for c in carriers if pattern_contains(info.pattern, c.pattern)),
        key=lambda pat: sum(map(len, pat)),
    )
    parent = next(s for s in strata if face in s.patterns)
    return ExtraPiece(
        parent_key=parent.key,
        isotropy_prime=info.iso,
        pattern=info.pattern,
        level_slice=sl,
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
