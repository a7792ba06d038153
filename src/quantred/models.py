"""Compact Kähler models: products of projective spaces with Fubini-Study data.

The arena is M = prod_j CP^{n_j} carrying omega = sum_j l_j * omega_FS,j,
normalized so that omega_FS integrates to 2*pi over a line.  Points are
homogeneous coordinate vectors, unit-normalized per factor; production
geometry reads their coordinate masses.  The affine charts and the chart
metric serve the finite-difference references (`actions.level_tangent_basis`,
`actions.jacobian_tau_batch`, `strata.slice_embedding_jacobian`,
`sections.halfform_factor`).
"""

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
        # each factor's coordinates, built once
        starts = [sum(n + 1 for n in self.factors[:j]) for j in range(len(self.factors))]
        object.__setattr__(self, "slices", tuple(slice(s, s + n + 1) for s, n in zip(starts, self.factors)))

    @property
    def n_total(self):
        return sum(self.factors)

    @property
    def ncoords(self):
        return sum(n + 1 for n in self.factors)

    @property
    def metaplectic_allowed(self):
        # sqrt(K) is O(-(n+1)/2) per factor, so every n_j + 1 must be even
        return all((n + 1) % 2 == 0 for n in self.factors)

    def halfform_degrees(self, k):
        if not self.metaplectic_allowed:
            raise ModelError("metaplectic parity: some factor has even complex dimension")
        return tuple(k * l - (n + 1) // 2 for n, l in zip(self.factors, self.bundle_degrees))


def make_model(factors, bundle_degrees):
    return Model(tuple(int(n) for n in factors), tuple(int(l) for l in bundle_degrees))


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


def masses(model, z):
    """Coordinate masses |z_i|^2, per-factor normalized."""
    return unit_masses(model, np.abs(np.asarray(z)) ** 2)


def unit_masses(model, p):
    """Masses p, shape (..., ncoords), scaled in place to sum 1 on each factor."""
    for sl in model.slices:
        p[..., sl] /= np.sum(p[..., sl], axis=-1, keepdims=True)
    return p


# ----------------------------------------------------------------------
# charts

def chart_indices(model, z):
    """Affine chart per factor: the coordinate of largest modulus (global indices)."""
    z = np.asarray(z)
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
