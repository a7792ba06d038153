"""Independent routes the tests check quantred against, and diagnostics only tests read.

Nothing in `src/quantred` calls this module.  It holds finite-difference,
Monte Carlo and flow-based routes to quantities the package computes in
closed form (frames and curvature, the Liouville volume and divergence, the
transport potential, the contraction oracle of the descent factor, the
quantization operator), a general polynomial section type, and the paper
diagnostics that no `quantred run` reports (semistability, the boundedness
probe, the growth constant).  The package folds tau, e^{-k f} and the
divergence factor into one exponent (`actions.transverse_exponent`); the
factors one by one are checked against `actions.jacobian_tau_batch`,
`actions.potential` and `divergence_factor` here.

Some oracles stay in the package because the benchmark's scripts reach them
by module and name; they move here once those scripts change:

* `strata.kirwan_flow`: `perfbench/layertrace.py` (a traced layer) and
  `perfbench/test_checks.py`;
* `strata.slice_embedding_jacobian`, `sections.halfform_factor`,
  `sections.evaluate_monomials` and `integrate.adaptive_line_quadrature`:
  `perfbench/layertrace.py`;
* `actions.jacobian_tau_batch`: `perfbench/layertrace.py` and
  `perfbench/make_rank2_reference.py`;
* `actions.level_tangent_basis` and `actions.potential`:
  `perfbench/make_rank2_reference.py`;
* the chart helpers those use, `models.chart_indices`, `_chart_cols`,
  `to_chart`, `from_chart`, `ambient_to_chart`, `chart_metric` and
  `metric_pairing`.
"""

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from quantred import actions as ta
from quantred import asymptotics, models, reduction, sections, strata
from quantred.integrate import _ols, gauss_legendre, rng_for
from quantred.models import (TWO_PI, ModelError, ambient_to_chart, chart_indices, chart_metric, from_chart, masses,
                             metric_pairing, normalize, to_chart)

# ----------------------------------------------------------------------
# points (models)


def canonical(model, z, tol=1e-12):
    """Canonical representative: per factor, first non-negligible coordinate real > 0."""
    z = normalize(model, z)
    scalar = z.ndim == 1
    zz = z[None, :] if scalar else z
    for sl in model.slices:
        blk = zz[..., sl]
        lead = np.argmax(np.abs(blk) > tol, axis=-1)
        phase = np.take_along_axis(blk, lead[..., None], axis=-1)
        phase = phase / np.abs(phase)
        zz[..., sl] = blk * np.conj(phase)
    return zz[0] if scalar else zz


class PointM:
    """A point of M: per-factor unit homogeneous coordinates plus a chart hint.

    Equality and hashing go through the canonical phase representative.
    """

    __slots__ = ("model", "coords", "chart_hint")

    def __init__(self, model, coords, chart_hint=None):
        self.model = model
        self.coords = normalize(model, np.asarray(coords, dtype=complex).reshape(-1))
        if self.coords.shape != (model.ncoords,):
            raise ModelError("coordinate length mismatch")
        self.chart_hint = chart_hint

    def block(self, j):
        return self.coords[self.model.slices[j]]

    def canonical_coords(self):
        return canonical(self.model, self.coords)

    def __eq__(self, other):
        if not isinstance(other, PointM):
            return NotImplemented
        return bool(
            np.allclose(self.canonical_coords(), other.canonical_coords(), atol=1e-10)
        )

    def __hash__(self):
        return hash(np.round(self.canonical_coords(), 8).tobytes())

    def __repr__(self):
        return f"PointM({np.round(self.coords, 6)})"


def random_points(model, count, rng):
    """Fubini-Study-uniform sample: per-factor uniform points on the unit sphere."""
    z = np.empty((count, model.ncoords), dtype=complex)
    for sl in model.slices:
        dim = sl.stop - sl.start
        blk = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        z[:, sl] = blk / np.linalg.norm(blk, axis=1, keepdims=True)
    return z


def projective_distance(model, z1, z2):
    """Max over factors of the chordal projective distance sqrt(1 - |<u,v>|^2)."""
    z1 = normalize(model, z1)
    z2 = normalize(model, z2)
    dist = 0.0
    for sl in model.slices:
        ip = abs(np.vdot(z1[sl], z2[sl]))
        dist = max(dist, float(np.sqrt(max(0.0, 1.0 - ip**2))))
    return dist


# ----------------------------------------------------------------------
# frames, volume and curvature (models)


def symplectic_pairing(g, u, v):
    """omega(u, v) = -2 Im( u^T g conj(v) ) for chart velocities u, v."""
    return -2.0 * np.imag(np.einsum("...a,...ab,...b->...", u, g, np.conj(v)))


@dataclass
class ChartFrame:
    """Real tangent frame at a point with B, omega, J matrices in that frame.

    The 2n real basis vectors are the chart coordinate directions
    (d/dx_1 ... d/dx_n, d/dy_1 ... d/dy_n), stored as complex chart velocities.
    """

    base: PointM
    charts: tuple
    w: np.ndarray
    g: np.ndarray
    basis: np.ndarray  # (2n, n) complex chart velocities
    B: np.ndarray
    omega: np.ndarray
    J: np.ndarray


def frame_at(model, point):
    z = normalize(model, point)
    charts = chart_indices(model, z)
    w = to_chart(model, z, charts)
    g = chart_metric(model, w)
    n = model.n_total
    basis = np.vstack([np.eye(n, dtype=complex), 1j * np.eye(n, dtype=complex)])
    B = np.empty((2 * n, 2 * n))
    omega = np.empty((2 * n, 2 * n))
    for a in range(2 * n):
        for b in range(2 * n):
            B[a, b] = metric_pairing(g, basis[a], basis[b])
            omega[a, b] = symplectic_pairing(g, basis[a], basis[b])
    J = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return ChartFrame(base=PointM(model, z, chart_hint=charts), charts=charts, w=w, g=g, basis=basis, B=B,
                      omega=omega, J=J)


def liouville_volume_exact(model):
    """Closed-form total Liouville volume, prod_j (2 pi l_j)^{n_j} / n_j!."""
    vol = 1.0
    for n, l in zip(model.factors, model.bundle_degrees):
        vol *= (TWO_PI * l) ** n / float(math.factorial(n))
    return vol


def liouville_volume(model, quad):
    """Monte Carlo estimate of the total Liouville volume with standard error.

    The manifold is split into chart regions (per factor, the coordinate of
    largest modulus), each of which is the unit polydisc in its chart; the
    Liouville density 2^n det(g) is averaged over uniform polydisc samples.
    """
    samples = int(quad.get("samples", 20000))
    if samples <= 0:
        raise ModelError("sample budget zero")
    rng = np.random.default_rng(quad.get("seed", 0))
    n = model.n_total
    chart_choices = list(product(*[range(sl.start, sl.stop) for sl in model.slices]))
    per_chart = max(64, samples // len(chart_choices))
    total, var = 0.0, 0.0
    disc_area = np.pi**n  # product of unit-disc areas
    for charts in chart_choices:
        # uniform on the unit polydisc
        r = np.sqrt(rng.uniform(size=(per_chart, n)))
        th = rng.uniform(0.0, TWO_PI, size=(per_chart, n))
        w = r * np.exp(1j * th)
        g = chart_metric(model, w)
        dens = (2.0**n) * np.real(np.linalg.det(g))
        vals = dens * disc_area
        total += float(np.mean(vals))
        var += float(np.var(vals, ddof=1) / per_chart)
    return total, float(np.sqrt(var))


def _complex_hessian(fun, w0, step):
    """Matrix of d^2 f / dw_a dw_bar_b at w0 for a real-valued fun(w), by central FD."""
    n = w0.shape[0]
    H = np.zeros((n, n), dtype=complex)

    def d2(da, db):
        # second derivative along real directions da, db (complex chart offsets)
        if np.allclose(da, db):
            return (fun(w0 + step * da) - 2.0 * fun(w0) + fun(w0 - step * da)) / step**2
        return (
            fun(w0 + step * (da + db))
            - fun(w0 + step * (da - db))
            - fun(w0 - step * (da - db))
            + fun(w0 - step * (da + db))
        ) / (4.0 * step**2)

    for a in range(n):
        ea = np.zeros(n, dtype=complex)
        ea[a] = 1.0
        for b in range(n):
            eb = np.zeros(n, dtype=complex)
            eb[b] = 1.0
            # 4 d/dw_a d/dwbar_b = (dxa dxb + dya dyb) + i (dxa dyb - dya dxb)
            H[a, b] = 0.25 * (
                d2(ea, eb) + d2(1j * ea, 1j * eb) + 1j * (d2(ea, 1j * eb) - d2(1j * ea, eb))
            )
    return H


def check_prequantum(model, k, point, step=1e-3):
    """Max-norm deviation of the numerically differentiated curvature from k*omega.

    The Hermitian metric factor of the chart frame section of L^k is
    h = prod_j (1+|w_j|^2)^{-k l_j}; the curvature form is dd-bar of -log h,
    which must reproduce k g_{a b-bar}.  Richardson extrapolation over a
    step halving removes the leading FD error.
    """
    if k < 1:
        raise ModelError("k must be >= 1")
    z = normalize(model, point)
    charts = chart_indices(model, z)
    w0 = to_chart(model, z, charts)
    g = chart_metric(model, w0)

    def neg_log_h(w):
        out, pos = 0.0, 0
        for nj, l in zip(model.factors, model.bundle_degrees):
            out += k * l * np.log1p(np.sum(np.abs(w[pos : pos + nj]) ** 2))
            pos += nj
        return out

    H1 = _complex_hessian(neg_log_h, w0, step)
    H2 = _complex_hessian(neg_log_h, w0, step / 2.0)
    H = (4.0 * H2 - H1) / 3.0
    return float(np.max(np.abs(H - k * g)))


def _flow_rk4(model, field, z, t, nsteps=8):
    """Short-time flow of an ambient vector field with per-step renormalization."""
    h = t / nsteps
    for _ in range(nsteps):
        k1 = field(z)
        k2 = field(normalize(model, z + 0.5 * h * k1))
        k3 = field(normalize(model, z + 0.5 * h * k2))
        k4 = field(normalize(model, z + h * k3))
        z = normalize(model, z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return z


def volume_distortion(model, flow_map, z, fd_step=1e-5):
    """Volume distortion of a diffeomorphism at z w.r.t. the Riemannian volume.

    flow_map sends ambient coordinates to ambient coordinates; the Jacobian
    is taken over a B-orthonormal chart frame at z, measured with B at the
    image point.
    """
    z = normalize(model, z)
    charts = chart_indices(model, z)
    w0 = to_chart(model, z, charts)
    g0 = chart_metric(model, w0)
    n = model.n_total
    # B-orthonormal frame at z via Cholesky of the real Gram
    raw = np.vstack([np.eye(n, dtype=complex), 1j * np.eye(n, dtype=complex)])
    G = np.array([[metric_pairing(g0, a, b) for b in raw] for a in raw])
    L = np.linalg.cholesky(G)
    frame = np.linalg.solve(L, raw)  # rows: B-orthonormal chart velocities
    y = normalize(model, flow_map(z))
    cy = chart_indices(model, y)
    wy = to_chart(model, y, cy)
    gy = chart_metric(model, wy)
    cols = []
    for e in frame:
        zp = from_chart(model, w0 + fd_step * e, charts)
        zm = from_chart(model, w0 - fd_step * e, charts)
        wp = to_chart(model, normalize(model, flow_map(zp)), cy)
        wm = to_chart(model, normalize(model, flow_map(zm)), cy)
        cols.append((wp - wm) / (2.0 * fd_step))
    Gy = np.array([[metric_pairing(gy, a, b) for b in cols] for a in cols])
    det = np.linalg.det(Gy)
    if det <= 0:
        raise ModelError("degenerate flow differential")
    return float(np.sqrt(det))


def divergence_liouville(model, field, point, step=1e-4):
    """(L_V eps_omega) / eps_omega at a point, via the flow's volume distortion.

    Central difference in flow time of log det(dPhi_t) at t = 0; the field is
    given as a callable from ambient coordinates to ambient velocities.
    """
    z = normalize(model, point)
    vp = volume_distortion(model, lambda q: _flow_rk4(model, field, q, step), z)
    vm = volume_distortion(model, lambda q: _flow_rk4(model, field, q, -step), z)
    return float((np.log(vp) - np.log(vm)) / (2.0 * step))


# ----------------------------------------------------------------------
# fields, flows and the transport potential (actions)


def fundamental_fields(action, xi, point):
    """Ambient velocities of X^xi and JX^xi at a point.

    X^xi_i = 2 pi i <W_i, xi> z_i and JX^xi = i X^xi (multiplication by i
    descends to the projective J).
    """
    z = normalize(action.model, point)
    u = np.asarray(xi, dtype=float) @ action.W
    X = TWO_PI * 1j * u * z
    return X, 1j * X


def real_flow(action, theta, point):
    """exp(theta) . z for theta in R^d (period lattice Z^d)."""
    z = normalize(action.model, point)
    u = np.asarray(theta, dtype=float) @ action.W
    return z * np.exp(TWO_PI * 1j * u)


def potential_quadrature(action, xi, point, order=64):
    """f by Gauss-Legendre quadrature of the defining integrand (reference route)."""
    nodes, wts = gauss_legendre(order)
    ts = 0.5 * (nodes + 1.0)
    pts = ta.imaginary_flow(action, np.asarray(xi, dtype=float), ts, point)
    vals = ta.moment_map(action, pts) @ np.asarray(xi, dtype=float)
    return float(2.0 * 0.5 * np.sum(wts * vals))


def divergence_factor(action, xi, point_or_masses, from_masses=False):
    """exp{ -int_0^1 (L_{JX^xi} eps)/(2 eps) dt } = v(xi, x)^{-1/2}, closed form.

    v is the Riemannian volume distortion of the time-one imaginary flow,
    v = prod_j exp(-4 pi sum_{i in j} u_i) N_j^{-(n_j+1)} with u = W^T xi.
    """
    model = action.model
    p = np.asarray(point_or_masses, dtype=float) if from_masses else masses(model, normalize(model, point_or_masses))
    u = np.asarray(xi, dtype=float) @ action.W
    log_n = ta._log_flow_sums(model, ta._log_masses(p), u)
    logv = 0.0
    for j, (sl, nj) in enumerate(zip(model.slices, model.factors)):
        logv = logv - 2.0 * TWO_PI * np.sum(u[..., sl], axis=-1) - (nj + 1) * log_n[..., j]
    return np.exp(-0.5 * logv)


def pointwise_divergence(action, xi, point):
    """(L_{JX^xi} eps)/eps at a point, closed form.

    Equals sum_j 4 pi [ (n_j + 1) <u>_{p, j} - sum_{i in j} u_i ] with u = W^T xi.
    """
    model = action.model
    p = masses(model, normalize(model, point))
    u = np.asarray(xi, dtype=float) @ action.W
    out = 0.0
    for sl, nj in zip(model.slices, model.factors):
        out += 2.0 * TWO_PI * ((nj + 1) * float(np.sum(u[sl] * p[..., sl])) - float(np.sum(u[sl])))
    return out


@dataclass
class FlowPotentialReport:
    """Value, m-gradient and m-Hessian at 0 of the transport potential."""

    value: float
    gradient: np.ndarray
    hessian_at_zero: np.ndarray


def flow_potential(action, xi, point, fd_step=1e-4):
    """f at xi, its central-difference gradient there along m, and its m-Hessian at 0."""
    z = normalize(action.model, point)
    p = masses(action.model, z)
    e = fd_step * ta.m_basis(action, ta.isotropy(action, z))  # rows: fd_step times a basis of m
    xi = np.asarray(xi, dtype=float)

    def f(v):
        return float(ta.potential(action, v, p, from_masses=True))

    grad = np.array([(f(xi + a) - f(xi - a)) / (2 * fd_step) for a in e])
    # the Hessian at xi = 0 regardless of the requested evaluation point
    hess = np.reshape([(f(a + b) + f(-a - b) - f(a - b) - f(b - a)) / (4 * fd_step**2) for a in e for b in e],
                      (len(e), len(e)))
    return FlowPotentialReport(value=f(xi), gradient=grad, hessian_at_zero=hess)


def norm_transport(action, kind, k, xi, point, pointwise_norm_at_point):
    """Transport a pointwise norm square along e^{i xi}.

    kind 'plain' applies exp(-k f); kind 'halfform' multiplies in the
    Liouville divergence correction along the flow line.
    """
    if pointwise_norm_at_point < 0:
        raise ta.ActionError("pointwise norm must be nonnegative")
    z = normalize(action.model, point)
    p = masses(action.model, z)
    f = float(ta.potential(action, np.asarray(xi, dtype=float), p, from_masses=True))
    out = pointwise_norm_at_point * np.exp(-k * f)
    if kind == "halfform":
        out *= float(divergence_factor(action, np.asarray(xi, dtype=float), p, from_masses=True))
    elif kind != "plain":
        raise ta.ActionError(f"unknown transport kind {kind!r}")
    return float(out)


# ----------------------------------------------------------------------
# semistability and the sampled flow cross-check (strata)


def is_semistable(action, point, tol=1e-12):
    """Classify a point as stable / semistable_strict / unsemistable / inconclusive."""
    res = strata.kirwan_flow(action, point, tol=tol)
    if res.status == "unsemistable":
        return "unsemistable"
    if res.status == "inconclusive":
        return "inconclusive"
    iso = ta.isotropy(action, res.limit, tol=1e-6)
    return "stable" if iso.dim == 0 else "semistable_strict"


def enumerate_strata(action, sampler=None):
    """Stratum labels of the zero level, with an optional flow cross-check.

    `sampler` is a quadrature dict ({'samples': N, 'seed': s}); when given,
    random points are flowed and their limits are required to land in an
    enumerated stratum.  Unsemistable samples are skipped; a flow that runs
    out of steps is an error, since its limit was never checked.
    """
    strat = strata.analyze(action)
    if sampler:
        rng = np.random.default_rng(sampler.get("seed", 0))
        count = int(sampler.get("samples", 32))
        pts = random_points(action.model, count, rng)
        flows = [strata.kirwan_flow(action, z, tol=1e-16, max_steps=40000) for z in pts]
        inconclusive = sum(res.status == "inconclusive" for res in flows)
        if inconclusive:
            raise strata.StrataError(f"{inconclusive} of {count} sampled flows ran out of steps; "
                                     "their limits are unchecked")
        for res in flows:
            if not res.converged:
                continue  # unsemistable: no limit on the zero level
            sup = ta.support_of(action.model, res.limit, tol=1e-6)
            if not any(strata.pattern_contains(pat, sup) for s in strat.strata for pat in s.patterns):
                raise strata.StrataError("sampled flow limit missed the combinatorial strata")
    return strat.strata


# ----------------------------------------------------------------------
# polynomial sections and the quantization operator (sections)


@dataclass
class SectionPoly:
    """Multi-homogeneous polynomial section with a sparse coefficient map."""

    model: models.Model
    k: int
    twist: str                    # 'plain' | 'halfform'
    coeffs: dict                  # exponent tuple -> complex

    def __post_init__(self):
        degs = sections.section_degrees(self.model, self.k, self.twist)
        for expo in self.coeffs:
            if len(expo) != self.model.ncoords or any(e < 0 for e in expo):
                raise sections.SectionError("bad exponent tuple")
            for sl, d in zip(self.model.slices, degs):
                if sum(expo[sl.start : sl.stop]) != d:
                    raise sections.SectionError("exponent tuple has wrong multidegree")

    @property
    def exponents(self):
        return np.asarray(list(self.coeffs.keys()), dtype=int)

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        vals = sections.evaluate_monomials(self.exponents, z)
        c = np.asarray(list(self.coeffs.values()), dtype=complex)
        return vals @ c


def basis_sections(model, k, twist="plain"):
    if k < 1:
        raise sections.SectionError("k must be >= 1")
    return [
        SectionPoly(model=model, k=k, twist=twist, coeffs={tuple(row): 1.0 + 0.0j})
        for row in sections.basis_exponents(model, k, twist)
    ]


def invariant_basis(action, k, twist="plain"):
    return [
        SectionPoly(model=action.model, k=k, twist=twist, coeffs={tuple(row): 1.0 + 0.0j})
        for row in sections.invariant_exponents(action, k, twist)
    ]


def pointwise_norm(section, point):
    """|s|^2 at a point (plain) or |r|^2 including the half-form factor."""
    z = normalize(section.model, point)
    val = abs(section.value(z)) ** 2
    if section.twist == "halfform":
        val = val * sections.halfform_frame(section.model)
    return float(val)


def quantization_residual(action, section, xi, point, fd_step=1e-6):
    """|Q_xi s| / scale at a point, Q_xi = nabla_{X^xi} - i k phi_xi.

    The covariant derivative is taken in the chart of the point; for the
    half-form twist the numeric Lie-derivative weight of the frame is added.
    """
    model = action.model
    z = normalize(model, point)
    charts = chart_indices(model, z)
    w0 = to_chart(model, z, charts)
    k = section.k

    def local_rep(w):
        zz = from_chart(model, w, charts)
        # frame z_c^deg evaluated on the chart representative (z_c = 1)
        rep = zz.copy()
        for sl, c in zip(model.slices, charts):
            rep[sl] = rep[sl] / zz[c]
        return section.value(rep)

    X, _ = fundamental_fields(action, xi, z)
    xdot = ambient_to_chart(model, z, X, charts)
    f0 = local_rep(w0)
    df = (local_rep(w0 + fd_step * xdot) - local_rep(w0 - fd_step * xdot)) / (2 * fd_step)
    # Chern connection of the L^k chart frame; the half-form part enters
    # through the Lie derivative of the canonical frame, not a connection
    conn = 0.0
    pos = 0
    for nj, l in zip(model.factors, model.bundle_degrees):
        wj = w0[pos : pos + nj]
        conn += -(k * l) * np.sum(np.conj(wj) * xdot[pos : pos + nj]) / (1.0 + np.sum(np.abs(wj) ** 2))
        pos += nj
    if section.twist == "halfform":
        conn += 0.5 * _holomorphic_divergence(action, xi, w0, charts, fd_step)
    phi_xi = float(ta.moment_map(action, z) @ np.asarray(xi, dtype=float))
    q = df + f0 * conn - 1j * k * phi_xi * f0
    scale = max(abs(df), abs(k * phi_xi * f0), 1e-30)
    return float(abs(q) / scale)


def _holomorphic_divergence(action, xi, w0, charts, fd_step):
    """Trace of the holomorphic Jacobian of the action field in chart coords:
    the Lie derivative weight L_{X^xi} Omega / Omega of the canonical frame."""
    model = action.model

    def chart_velocity(w):
        zz = from_chart(model, w, charts)
        X, _ = fundamental_fields(action, xi, zz)
        return ambient_to_chart(model, zz, X, charts)

    n = model.n_total
    tr = 0.0 + 0.0j
    for i in range(n):
        e = np.zeros(n, dtype=complex)
        e[i] = 1.0
        tr += (chart_velocity(w0 + fd_step * e)[i] - chart_velocity(w0 - fd_step * e)[i]) / (2 * fd_step)
    return tr


def _pattern_point(model, pattern):
    z = np.zeros(model.ncoords, dtype=complex)
    for sup in pattern:
        z[sup[0]] = 1.0
    return z


# ----------------------------------------------------------------------
# descent of a section, the contraction oracle, the boundedness probe (reduction)


@dataclass
class ReducedSection:
    """Descent of an invariant section: upstairs data plus stratum samples."""

    upstairs: SectionPoly
    twist: str
    stratum_values: dict = field(default_factory=dict)

    def norm_squared_at(self, action, point, iso=None):
        val = pointwise_norm(self.upstairs, point)
        if self.twist == "plain":
            return val
        return reduction.descent_norm_factor(action, point, iso) * val


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
            raise reduction.ReductionError("section is not G-invariant")
    rsec = ReducedSection(upstairs=section, twist=section.twist)
    strat = strata.analyze(action)
    for lab in strat.strata:
        z = lab.representative
        rsec.stratum_values[lab.key] = rsec.norm_squared_at(action, z, lab.isotropy)
    return rsec


def _omega_complex(g, a, b):
    """omega on complexified tangent vectors given as (hol, antihol) pairs."""
    ah, aa = a
    bh, ba = b
    return 1j * (ah @ g @ ba - bh @ g @ aa)


def contraction_factor(action, point):
    """sqrt of the Liouville-contraction ratio at a zero-level point.

    Evaluates eps restricted to the complexified stratum on the orbit
    directions Z^j = (X^j - i J X^j)/2, their conjugates, and a basis of the
    remaining stratum directions, divided by the reduced volume form on the
    same basis.  Equals 2^{-m/2} vol_Gram(G.x) by the push-down identity, the
    factor `reduction.descent_norm_factor` uses.
    """
    model = action.model
    z = normalize(model, point)
    iso = ta.isotropy(action, z)
    if iso.is_full:
        return 1.0
    mb = ta.m_basis(action, iso)
    m = mb.shape[0]
    charts = chart_indices(model, z)
    w0 = to_chart(model, z, charts)
    g = chart_metric(model, w0)
    # orbit directions as chart velocities
    xs = []
    for a in range(m):
        X, _ = fundamental_fields(action, mb[a], z)
        xs.append(ambient_to_chart(model, z, X, charts))
    # tangent of Z_(H) at z, minus the orbit directions
    s_basis, _, _ = ta.level_tangent_basis(action, z)
    comp = []
    for v in s_basis:
        u = v.astype(complex)
        for q in xs + [1j * np.asarray(x) for x in xs]:
            q = np.asarray(q)
            nq = metric_pairing(g, q, q)
            if nq > 1e-20:
                u = u - (metric_pairing(g, u, q) / nq) * q
        for q in comp:
            u = u - metric_pairing(g, u, q) * q
        nu = metric_pairing(g, u, u)
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
        raise reduction.ReductionError("degenerate reduced volume form in contraction oracle")
    return float(np.sqrt(lhs / rhs))


def boundedness_probe(action, samples=24, seed=0, k_grid=(1, 2, 4, 8, 16, 32, 64), t_grid=(1.0, 1.5, 2.5, 4.0)):
    """Smallest k in the grid with 2 k phi_xi + div/2 >= 0 on sampled rays, t >= 1."""
    rng = rng_for(seed, "boundedness")
    model = action.model
    pts = random_points(model, samples, rng)
    d = action.rank
    dirs = rng.standard_normal((8, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = -np.inf  # max over rays of -div/(4 phi) where phi > 0; inf if phi <= 0
    feasible = True
    for z in pts:
        if is_semistable(action, z, tol=1e-14) == "unsemistable":
            continue
        for xi in dirs:
            for t in t_grid:
                y = ta.imaginary_flow(action, xi, t, z)
                phi = float(ta.moment_map(action, y) @ xi)
                div = pointwise_divergence(action, xi, y)
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


# ----------------------------------------------------------------------
# growth of the transport potential (asymptotics)


def growth_constant(action, point, t_grid=(1.0, 2.0, 4.0, 8.0), directions=16, seed=9):
    """min over unit directions and t >= t0 of f(t xi, x) / t.

    Positive on zero-level strata (f is convex with minimum 0 at 0); may be
    nonpositive at points of nonzero moment level.
    """
    z = normalize(action.model, point)
    iso = ta.isotropy(action, z)
    mb = ta.m_basis(action, iso)
    m = mb.shape[0]
    if m == 0:
        raise asymptotics.AsymptoticsError("no transverse directions at an H = G point")
    p = masses(action.model, z)
    if m == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        rng = rng_for(seed, "growth")
        dirs = rng.standard_normal((directions, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    best = np.inf
    for u in dirs:
        for t in t_grid:
            f = float(ta.potential(action, t * (u @ mb), p, from_masses=True))
            best = min(best, f / t)
    return best


# ----------------------------------------------------------------------
# curve fits (integrate)


def fit_loglinear(ks, values):
    """Least-squares fit ln v ~ a + slope k; returns (slope, a, r_squared)."""
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(values, dtype=float)
    mask = vals > 0
    slope, intercept, r2 = _ols(ks[mask], np.log(vals[mask]))
    return float(slope), float(intercept), r2
