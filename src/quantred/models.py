"""Compact Kähler models: products of projective spaces with Fubini-Study data.

The arena is M = prod_j CP^{n_j} carrying omega = sum_j l_j * omega_FS,j,
normalized so that omega_FS integrates to 2*pi over a line.  Points are
homogeneous coordinate vectors, unit-normalized per factor.  All heavy
geometry (metric, compatibility, curvature, volume distortion) is done in
affine charts chosen per point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuantredError

TWO_PI = 2.0 * np.pi


class ModelError(QuantredError, ValueError):
    pass


@dataclass(frozen=True)
class Model:
    """Product of projective spaces with a line-bundle multidegree."""

    factors: tuple
    bundle_degrees: tuple

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ModelError("empty factor list")
        if len(self.factors) != len(self.bundle_degrees):
            raise ModelError("factors and bundle_degrees length mismatch")
        if any(int(n) < 1 for n in self.factors):
            raise ModelError("factor dimensions must be >= 1")
        if any(int(l) < 1 for l in self.bundle_degrees):
            raise ModelError("bundle degrees must be >= 1 (ample)")

    @property
    def n_total(self):
        return sum(self.factors)

    @property
    def ncoords(self):
        return sum(n + 1 for n in self.factors)

    @property
    def slices(self):
        out, start = [], 0
        for n in self.factors:
            out.append(slice(start, start + n + 1))
            start += n + 1
        return tuple(out)

    @property
    def metaplectic_allowed(self):
        # sqrt(K) is O(-(n+1)/2) per factor, so every n_j + 1 must be even
        return all((n + 1) % 2 == 0 for n in self.factors)

    def halfform_degrees(self, k):
        if not self.metaplectic_allowed:
            raise ModelError("metaplectic parity: some factor has even complex dimension")
        return tuple(k * l - (n + 1) // 2 for n, l in zip(self.factors, self.bundle_degrees))

    def to_json_dict(self):
        return {"factors": list(self.factors), "bundle_degrees": list(self.bundle_degrees)}


def make_model(factors, bundle_degrees):
    return Model(tuple(int(n) for n in factors), tuple(int(l) for l in bundle_degrees))


def liouville_volume_exact(model):
    """Closed-form total Liouville volume, prod_j (2 pi l_j)^{n_j} / n_j!."""
    vol = 1.0
    for n, l in zip(model.factors, model.bundle_degrees):
        vol *= (TWO_PI * l) ** n / float(math.factorial(n))
    return vol


# ----------------------------------------------------------------------
# points


def normalize(model, z):
    """Scale each factor block to unit norm.  Raises on a zero block."""
    z = np.asarray(z, dtype=complex).copy()
    for sl in model.slices:
        nrm = np.linalg.norm(z[..., sl], axis=-1, keepdims=True)
        if np.any(nrm < 1e-300):
            raise ModelError("degenerate coordinates: zero vector in a factor")
        z[..., sl] /= nrm
    return z


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


def as_coords(model, point):
    if isinstance(point, PointM):
        return point.coords
    return normalize(model, point)


def random_points(model, count, rng):
    """Fubini-Study-uniform sample: per-factor uniform points on the unit sphere."""
    z = np.empty((count, model.ncoords), dtype=complex)
    for sl in model.slices:
        dim = sl.stop - sl.start
        blk = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        z[:, sl] = blk / np.linalg.norm(blk, axis=1, keepdims=True)
    return z


def masses(model, z):
    """Coordinate masses |z_i|^2, per-factor normalized."""
    z = np.asarray(z)
    p = np.abs(z) ** 2
    for sl in model.slices:
        p[..., sl] /= np.sum(p[..., sl], axis=-1, keepdims=True)
    return p


def projective_distance(model, z1, z2):
    """Max over factors of the chordal projective distance sqrt(1 - |<u,v>|^2)."""
    z1 = as_coords(model, z1)
    z2 = as_coords(model, z2)
    dist = 0.0
    for sl in model.slices:
        ip = abs(np.vdot(z1[sl], z2[sl]))
        dist = max(dist, float(np.sqrt(max(0.0, 1.0 - ip**2))))
    return dist


# ----------------------------------------------------------------------
# charts

def chart_indices(model, z, prefer=None):
    """Affine chart per factor: the coordinate of largest modulus (global indices)."""
    z = np.asarray(z)
    if prefer is not None:
        return tuple(prefer)
    out = []
    for sl in model.slices:
        out.append(sl.start + int(np.argmax(np.abs(z[..., sl]).reshape(-1, sl.stop - sl.start).sum(axis=0))))
    return tuple(out)


def _chart_cols(model, charts):
    """Column indices of the inhomogeneous coordinates, per factor then stacked."""
    cols = []
    for sl, c in zip(model.slices, charts):
        cols.extend(i for i in range(sl.start, sl.stop) if i != c)
    return np.asarray(cols, dtype=int)


def to_chart(model, z, charts):
    """Inhomogeneous coordinates w_i = z_i / z_c stacked over factors, shape (..., n)."""
    z = np.asarray(z, dtype=complex)
    w = []
    for sl, c in zip(model.slices, charts):
        zc = z[..., c]
        if np.any(np.abs(zc) < 1e-14):
            raise ModelError("point outside chart")
        for i in range(sl.start, sl.stop):
            if i != c:
                w.append(z[..., i] / zc)
    return np.stack(w, axis=-1)


def from_chart(model, w, charts):
    """Inverse of to_chart, normalized per factor."""
    w = np.asarray(w, dtype=complex)
    lead = w.shape[:-1]
    z = np.empty(lead + (model.ncoords,), dtype=complex)
    pos = 0
    for sl, c in zip(model.slices, charts):
        z[..., c] = 1.0
        for i in range(sl.start, sl.stop):
            if i != c:
                z[..., i] = w[..., pos]
                pos += 1
    return normalize(model, z)


def ambient_to_chart(model, z, v, charts):
    """Chart velocity of an ambient velocity v at z: dw_i = (v_i z_c - z_i v_c)/z_c^2."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    out = []
    for sl, c in zip(model.slices, charts):
        zc, vc = z[..., c], v[..., c]
        for i in range(sl.start, sl.stop):
            if i != c:
                out.append((v[..., i] * zc - z[..., i] * vc) / zc**2)
    return np.stack(out, axis=-1)


def chart_metric(model, w):
    """Kähler metric matrix g_{a b-bar} in chart coordinates, shape (..., n, n).

    Per factor this is l * [(1+|w|^2) I - conj(w) w^T] / (1+|w|^2)^2, assembled
    block diagonally.
    """
    w = np.asarray(w, dtype=complex)
    lead = w.shape[:-1]
    n = model.n_total
    g = np.zeros(lead + (n, n), dtype=complex)
    pos = 0
    for nj, l in zip(model.factors, model.bundle_degrees):
        blk = w[..., pos : pos + nj]
        s = 1.0 + np.sum(np.abs(blk) ** 2, axis=-1)[..., None, None]
        outer = np.conj(blk)[..., :, None] * blk[..., None, :]
        eye = np.eye(nj)
        g[..., pos : pos + nj, pos : pos + nj] = l * (s * eye - outer) / s**2
        pos += nj
    return g


def metric_pairing(g, u, v):
    """B(u, v) = 2 Re( u^T g conj(v) ) for chart velocities u, v."""
    return 2.0 * np.real(np.einsum("...a,...ab,...b->...", u, g, np.conj(v)))


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
    z = as_coords(model, point)
    charts = chart_indices(model, z) if not isinstance(point, PointM) or point.chart_hint is None else point.chart_hint
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
    pt = point if isinstance(point, PointM) else PointM(model, z, chart_hint=charts)
    return ChartFrame(base=pt, charts=charts, w=w, g=g, basis=basis, B=B, omega=omega, J=J)


# ----------------------------------------------------------------------
# volume

def liouville_volume(model, quad):
    """Monte Carlo estimate of the total Liouville volume with standard error.

    The manifold is split into chart regions (per factor, the coordinate of
    largest modulus), each of which is the unit polydisc in its chart; the
    Liouville density 2^n det(g) is averaged over uniform polydisc samples.
    """
    from itertools import product as iproduct

    samples = int(quad.get("samples", 20000))
    if samples <= 0:
        raise ModelError("sample budget zero")
    rng = np.random.default_rng(quad.get("seed", 0))
    n = model.n_total
    chart_choices = list(iproduct(*[range(sl.start, sl.stop) for sl in model.slices]))
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


# ----------------------------------------------------------------------
# curvature check

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
    z = as_coords(model, point)
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


# ----------------------------------------------------------------------
# Liouville divergence of a flow

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
    z = as_coords(model, point)
    vp = volume_distortion(model, lambda q: _flow_rk4(model, field, q, step), z)
    vm = volume_distortion(model, lambda q: _flow_rk4(model, field, q, -step), z)
    return float((np.log(vp) - np.log(vm)) / (2.0 * step))
