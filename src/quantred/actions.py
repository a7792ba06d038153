"""Hamiltonian torus actions on projective-space products.

Conventions, pinned by the Hamilton-equation and prequantum checks:

* the torus is T^d = R^d / Z^d with the Euclidean inner product on its Lie
  algebra, so Haar volume is 1;
* exp(xi) acts by z_i -> exp(2 pi i <W_i, xi>) z_i with integer weight
  columns W_i, and the imaginary-time flow is
  e^{i t xi} . z_i = exp(-2 pi t <W_i, xi>) z_i;
* the moment map is phi_a(z) = -2 pi (sum_j l_j sum_{i in j} W_{a i} p_i + c_a)
  with p the per-factor coordinate masses and c the rational shift, which
  satisfies d phi_xi = i_{X^xi} omega and makes phi_xi nondecreasing along
  imaginary flow lines.

Under these conventions the norm-transport potential has the closed form

    f(xi, x) = sum_j l_j log( sum_{i in j} p_i exp(-4 pi <W_i, xi>) ) - 4 pi <c, xi>

and the volume distortion of the time-one imaginary flow is

    v(xi, x) = prod_j exp(-4 pi sum_{i in j} u_i) N_j(xi, x)^{-(n_j + 1)},

with u = W^T xi and N_j the per-factor mass sum after the flow.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import models
from ._lattice import rational_nullspace, stabilizer_component_order
from .errors import QuantredError
from .models import TWO_PI, masses, normalize

SUPPORT_TOL = 1e-9
FD_STEP = 1e-6  # central-difference step of the finite-difference references, in chart coordinates


class ActionError(QuantredError, ValueError):
    pass


@dataclass(frozen=True)
class WeightAction:
    """Integer weight matrix plus rational moment shift on a Model."""

    model: models.Model
    weights: tuple  # d rows of ncoords ints
    shift: tuple    # d Fractions

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ActionError("torus rank must be >= 1")
        for row in self.weights:
            if len(row) != self.model.ncoords:
                raise ActionError("weight row length must match total coordinate count")
        if len(self.shift) != len(self.weights):
            raise ActionError("shift length must match torus rank")
        # built once: the float tables W, shift_float and scaled_weights(), read-only as every caller shares
        # them, and the hash that keys the isotropy cache (the shift's Fractions hash slowly)
        W = np.asarray(self.weights, dtype=float)
        degree = np.repeat(np.asarray(self.model.bundle_degrees, dtype=float), [n + 1 for n in self.model.factors])
        for name, table in (("W", W), ("shift_float", np.asarray([float(c) for c in self.shift])), ("_Wl", W * degree)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        object.__setattr__(self, "_hash", hash((self.model, self.weights, self.shift)))

    def __hash__(self):
        return self._hash

    @property
    def rank(self):
        return len(self.weights)

    def lift_integral(self, k):
        return all((k * c).denominator == 1 for c in self.shift)

    def scaled_weights(self):
        """Weights times the factor degree of their coordinate, l_j W_{a i}."""
        return self._Wl


def make_action(model, weights, shift=None):
    W = [tuple(int(v) for v in row) for row in np.atleast_2d(np.asarray(weights, dtype=int))]
    d = len(W)
    if shift is None:
        shift = [0] * d
    sh = tuple(Fraction(c) for c in shift)
    return WeightAction(model=model, weights=tuple(W), shift=sh)


# ----------------------------------------------------------------------
# moment map and field pairing


def moment_from_masses(action, p):
    """phi at mass vectors p (already per-factor normalized), shape (..., d)."""
    Wl = action.scaled_weights()
    return -TWO_PI * (np.einsum("ai,...i->...a", Wl, p) + action.shift_float)


def moment_map(action, point):
    return moment_from_masses(action, masses(action.model, point))


def field_pairing(action, p):
    """Closed-form Gram B(X^{e_a}, X^{e_b}) at mass vectors p, shape (..., d, d).

    Per factor, B(X^u, X^v) = 8 pi^2 l [ <u v>_p - <u>_p <v>_p ].
    """
    p = np.asarray(p, dtype=float)
    d = action.rank
    out = np.zeros(p.shape[:-1] + (d, d))
    W = action.W
    for sl, l in zip(action.model.slices, action.model.bundle_degrees):
        Wb = W[:, sl]
        pb = p[..., sl]
        mixed = np.einsum("ai,bi,...i->...ab", Wb, Wb, pb)
        mean = np.einsum("ai,...i->...a", Wb, pb)
        out += 8.0 * np.pi**2 * l * (mixed - mean[..., :, None] * mean[..., None, :])
    return out


# ----------------------------------------------------------------------
# flows


def imaginary_flow(action, xi, t, point):
    """Closed-form e^{i t xi} . z, renormalized.

    With a scalar `t`, the result broadcasts over a batch of points or over
    an (N, d) batch of xi (shape (N, ncoords)); a 1-d `t` is paired with a
    single xi and point (shape (len(t), ncoords)).  Exponents are shifted by
    the per-factor maximum over the support before exponentiation so the
    flow stays finite arbitrarily far along a ray.
    """
    z = normalize(action.model, point)
    u = np.asarray(xi, dtype=float) @ action.W
    expo = -TWO_PI * np.multiply.outer(np.asarray(t, dtype=float), u)
    shape = np.broadcast_shapes(expo.shape, z.shape)
    z, expo = np.broadcast_to(z, shape), np.broadcast_to(expo, shape)
    zz = np.empty(z.shape, dtype=complex)
    for sl in action.model.slices:
        e = expo[..., sl]
        on = np.abs(z[..., sl]) > 0
        shift = np.max(np.where(on, e, -np.inf), axis=-1, keepdims=True)
        zz[..., sl] = z[..., sl] * np.exp(e - shift)
    return models.normalize(action.model, zz)


# ----------------------------------------------------------------------
# isotropy


@dataclass(frozen=True)
class IsotropyDescriptor:
    """Isotropy data: Lie algebra basis over Q, finite component order, H=G flag."""

    algebra_basis: tuple  # tuple of d-tuples of Fractions
    finite_part: int
    is_full: bool

    @property
    def dim(self):
        return len(self.algebra_basis)

    def key(self):
        return (self.algebra_basis, self.finite_part, self.is_full)

    def to_json_dict(self):
        return {
            "algebra_basis": [[str(v) for v in vec] for vec in self.algebra_basis],
            "finite_part": self.finite_part,
            "is_full": self.is_full,
        }


def support_of(model, z, tol=SUPPORT_TOL):
    """Per-factor tuples of coordinate indices carrying non-negligible mass."""
    return _support_of_masses(model, masses(model, z), tol)


def _support_of_masses(model, p, tol=SUPPORT_TOL):
    p = np.asarray(p).reshape(model.ncoords).tolist()  # one point
    return tuple(tuple(i for i in range(sl.start, sl.stop) if p[i] > tol) for sl in model.slices)


def _relative_weight_rows(action, support):
    """Integer rows spanning the effective (projective) weights on a support."""
    rows = []
    for sl, sup in zip(action.model.slices, support):
        base = sup[0]
        for i in sup[1:]:
            rows.append(tuple(int(row[i]) - int(row[base]) for row in action.weights))
    return rows


@functools.cache
def isotropy_of_support(action, support):
    rows = _relative_weight_rows(action, support)
    d = action.rank
    if not rows:
        basis = tuple(tuple(Fraction(int(i == a)) for i in range(d)) for a in range(d))
        return IsotropyDescriptor(algebra_basis=basis, finite_part=1, is_full=True)
    basis = tuple(rational_nullspace(rows))
    is_full = len(basis) == d
    finite = 1 if is_full else stabilizer_component_order(rows)
    return IsotropyDescriptor(algebra_basis=basis, finite_part=int(finite), is_full=is_full)


def isotropy(action, point, tol=SUPPORT_TOL):
    z = normalize(action.model, point)
    return isotropy_of_support(action, support_of(action.model, z, tol))


def m_basis(action, iso):
    """Orthonormal basis of the orthogonal complement of the isotropy algebra."""
    d = action.rank
    if iso.is_full:
        return np.zeros((0, d))
    if iso.dim == 0:
        return np.eye(d)
    H = np.asarray([[float(v) for v in vec] for vec in iso.algebra_basis])
    # complement via QR of the projector onto span(H)^perp
    q, _ = np.linalg.qr(H.T, mode="complete")
    return q[:, iso.dim :].T.copy()


# ----------------------------------------------------------------------
# orbit volume and the coarea Jacobian


def orbit_volume(action, point, iso=None):
    """sqrt det B(X^{xi_a}, X^{xi_b}) over an orthonormal basis of m.

    This is the group-parametrized orbit volume; for a stabilizer with
    finite part gamma it counts the geometric orbit gamma times.  On H = G
    the basis is empty and the value is the empty determinant, 1.  A batch
    of points, shape (N, ncoords), needs their common `iso`.
    """
    return orbit_volume_from_masses(action, masses(action.model, point), iso or isotropy(action, point))


def orbit_volume_from_masses(action, p, iso):
    """`orbit_volume` from per-factor-normalized coordinate masses p, shape (..., ncoords)."""
    mb = m_basis(action, iso)
    vol = np.sqrt(np.clip(np.linalg.det(mb @ field_pairing(action, p) @ mb.T), 0.0, None))
    return float(vol) if vol.ndim == 0 else vol


def geometric_orbit_volume(action, point, iso=None):
    """Orbit volume divided by the finite stabilizer order (covering-corrected).

    A batch of points, shape (N, ncoords), needs their common `iso`.
    """
    iso = iso or isotropy(action, point)
    return orbit_volume(action, point, iso) / iso.finite_part


def level_tangent_basis(action, point):
    """B-orthonormal chart basis of ker(d phi) within the point's support stratum.

    This is the tangent space at the point of the moment level set inside the
    open support pattern, which is what the coarea parametrizations slice
    along (Z_(H) at level 0, the S_i at nonzero levels).
    """
    model = action.model
    z = normalize(model, point)
    support = support_of(model, z)
    charts = models.chart_indices(model, z)
    w0 = models.to_chart(model, z, charts)
    cols = models._chart_cols(model, charts)
    keep = [pos for pos, col in enumerate(cols) if any(col in sup for sup in support)]
    dirs = []
    for pos in keep:
        for mult in (1.0, 1j):
            e = np.zeros(model.n_total, dtype=complex)
            e[pos] = mult
            dirs.append(e)
    dirs = np.asarray(dirs)
    # dphi on each direction by central differences through the chart
    rows = []
    for e in dirs:
        zp = models.from_chart(model, w0 + FD_STEP * e, charts)
        zm = models.from_chart(model, w0 - FD_STEP * e, charts)
        rows.append((moment_map(action, zp) - moment_map(action, zm)) / (2 * FD_STEP))
    A = np.asarray(rows)  # (ndirs, d)
    iso = isotropy_of_support(action, support)
    m = action.rank - iso.dim
    u, s, vt = np.linalg.svd(A.T, full_matrices=True)
    if m and (len(s) < m or s[m - 1] < 1e-6 * max(1.0, s[0] if len(s) else 1.0)):
        raise ActionError("point does not have the expected moment-map rank on its stratum")
    null = vt[m:].T  # combinations of dirs spanning ker dphi
    vecs = [np.tensordot(c, dirs, axes=(0, 0)) for c in null.T]
    # B-orthonormalize
    g = models.chart_metric(model, w0)
    basis = []
    for v in vecs:
        for b in basis:
            v = v - models.metric_pairing(g, v, b) * b
        nrm = np.sqrt(models.metric_pairing(g, v, v))
        if nrm > 1e-10:
            basis.append(v / nrm)
    return np.asarray(basis), charts, w0


def jacobian_tau_batch(action, xis, point, s_basis=None):
    """Vectorized tau over an (N, d) array of Lie-algebra points.

    All pushforwards are batched: the flowed base point, the JX fields at
    it, and the finite-difference images of the slice tangent basis; the
    target Gram determinants are taken per chart group.
    """
    model = action.model
    z = normalize(model, point)
    if s_basis is None:
        s_basis, charts0, w0 = level_tangent_basis(action, z)
    else:
        charts0 = models.chart_indices(model, z)
        w0 = models.to_chart(model, z, charts0)
    iso = isotropy(action, z)
    mb = m_basis(action, iso)
    m = mb.shape[0]
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    N = xis.shape[0]
    nb = len(s_basis)
    npush = m + nb
    ys = imaginary_flow(action, xis, 1.0, z)
    ends = []
    for v in s_basis:
        zp = models.from_chart(model, w0 + FD_STEP * v, charts0)
        zm = models.from_chart(model, w0 - FD_STEP * v, charts0)
        ends.append((imaginary_flow(action, xis, 1.0, zp), imaginary_flow(action, xis, 1.0, zm)))
    # group rows by chart tuple of the flowed base point
    charts_rows = np.empty((N, len(model.factors)), dtype=int)
    for jj, sl in enumerate(model.slices):
        charts_rows[:, jj] = sl.start + np.argmax(np.abs(ys[:, sl]), axis=1)
    taus = np.empty(N)
    Wf = action.W
    for charts in np.unique(charts_rows, axis=0):
        rows = np.all(charts_rows == charts, axis=1)
        yg = ys[rows]
        ng = yg.shape[0]
        cy = tuple(int(c) for c in charts)
        wy = models.to_chart(model, yg, cy)
        gy = models.chart_metric(model, wy)
        cols = np.empty((ng, npush, model.n_total), dtype=complex)
        for a in range(m):
            u = mb[a] @ Wf
            JX = -TWO_PI * u * yg  # JX^xi ambient: i * (2 pi i u z)
            cols[:, a, :] = models.ambient_to_chart(model, yg, JX, cy)
        for b, (yp, ym) in enumerate(ends):
            wp = models.to_chart(model, yp[rows], cy)
            wm = models.to_chart(model, ym[rows], cy)
            cols[:, m + b, :] = (wp - wm) / (2 * FD_STEP)
        G = 2.0 * np.real(np.einsum("npa,nab,nqb->npq", cols, gy, np.conj(cols)))
        det = np.linalg.det(G)
        # far along a ray the pushforwards underflow; that is tau -> 0, not a bug
        scale = np.prod(np.einsum("npp->np", G), axis=1)
        if np.any(det < -1e-8 * np.maximum(scale, 1e-300)):
            raise ActionError("degenerate coarea differential (stratification bug)")
        taus[rows] = np.sqrt(np.clip(det, 0.0, None))
    return taus


def transverse_exponent(action, support, k, halfform=False):
    """(a, b) with tau(xi, x) e^{-k f(xi, x)} [D(xi, x)] = tau(0, x) exp(<a, xi> + sum_j b_j log(N_j / N_j(0))).

    support is the points' common support pattern (per factor, the coordinates with mass); a 1-d k gives one
    row of each per k.  N_j is the mass sum of factor j after the flow, D the half-form twist's divergence
    factor v^{-1/2}, and per factor j

        a = 4 pi (k c - W 1_supp) [+ 2 pi W 1],   b_j = -|supp_j| - k l_j [+ (n_j + 1) / 2],

    the brackets for the half-form twist.  e^{-k f} and D read off the module docstring; the coarea Jacobian is
    tau(xi, x) = tau(0, x) prod_{i in supp x} e^{-4 pi u_i} / N_j, u = W^T xi.  In the free mass coordinates
    the flow moves the masses only, and tau = sqrt(det G) |det[JX(xi), D_xi V]| with G the Hessian of
    Guillemin's symplectic potential (J. Diff. Geom. 40, 1994), D_xi = dq/dp and V a G-orthonormal kernel basis
    of d phi.  The flows commute, so JX(xi) = D_xi JX(0), and the determinant lemma gives det D_xi = prod
    e^{-4 pi u_i} / N_j over the support.  At xi = 0, JX(0) is G-orthogonal to V, so tau(0, x) is the orbit
    volume.  `jacobian_tau_batch` is the finite-difference reference.
    """
    model = action.model
    on = np.isin(np.arange(model.ncoords), sum(support, ()))
    k = np.asarray(k, dtype=float)[..., None]
    a = 2.0 * TWO_PI * (k * action.shift_float - action.W @ on)
    b = -np.asarray([len(sup) for sup in support], dtype=float) - k * np.asarray(model.bundle_degrees)
    if halfform:
        a = a + TWO_PI * action.W.sum(axis=1)
        b = b + (np.asarray(model.factors) + 1) / 2.0
    return a, b


# ----------------------------------------------------------------------
# norm-transport potential


def _logsumexp(a, out):
    """log sum exp over the first axis, shifted by its maximum (entries may be -inf), into `out`; overwrites a."""
    shift = np.maximum.reduce(a, axis=0)
    if not np.isfinite(shift).all():
        shift = np.where(np.isfinite(shift), shift, 0.0)
    a -= shift
    np.log(np.add.reduce(np.exp(a, out=a), axis=0, out=out), out=out)
    out += shift


def _log_masses(p):
    return np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)


def _log_flow_sums(model, logp, u, out=None, parts=None):
    """log N_j = log sum_{i in j} p_i e^{-4 pi u_i}, coordinates first (numpy reduces slowly along a short last
    axis): logp and u broadcast to (rows, ...), the result is (nfactors, ...), and logp - 4 pi u is formed in
    `out`, if given (it may be u itself).  parts[j], a slice or one int, picks factor j's rows (default:
    model.slices): rows of zero-mass coordinates may be left out, as they add exp(-inf) = 0, and a factor of one
    row is that row, which is what its one-entry log-sum-exp returns."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(logp), np.shape(u)))
    e = np.multiply(u, -2.0 * TWO_PI, out=out)
    e += logp
    log_n = np.empty((len(model.slices),) + e.shape[1:])
    for j, rows in enumerate(model.slices if parts is None else parts):
        if isinstance(rows, int):
            log_n[j] = e[rows]
        else:
            _logsumexp(e[rows], log_n[j, ...])
    return log_n


def potential(action, xi, point_or_masses, from_masses=False):
    """f(xi, x) = 2 int_0^1 phi_xi(e^{i t xi} x) dt in closed log-sum-exp form.

    Broadcasts over an (..., d) array of xi, and over leading axes of the masses.
    """
    model = action.model
    p = np.asarray(point_or_masses, dtype=float) if from_masses else masses(model, normalize(model, point_or_masses))
    xi = np.asarray(xi, dtype=float)
    logp, u = (np.moveaxis(v, -1, 0) for v in np.broadcast_arrays(_log_masses(p), xi @ action.W))
    log_n = _log_flow_sums(model, logp, u) - _log_flow_sums(model, logp, 0.0)  # f(0, x) is exactly 0
    degrees = np.asarray(model.bundle_degrees, dtype=float)
    return np.moveaxis(log_n, 0, -1) @ degrees - 2.0 * TWO_PI * (xi @ action.shift_float)
