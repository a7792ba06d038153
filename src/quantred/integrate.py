"""Integration backends, reproducible seeding, and curve fitting.

The reduced Grams have two routes: a Monte Carlo route (stratum sampling
with block standard errors, the only one for level slices of dimension 2
or more) and an 'exact' route of low-dimensional quadrature on the level
slices, the default.  Upstairs Grams and the norm-split check's direct side
are exact Dirichlet moments on either; the check quotes the quadrature's
own error estimates.  Monte Carlo oracles in the tests tie the routes
together.
"""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import QuantredError

# adaptive_line_quadrature
LINE_RTOL = 1e-10          # a tail panel below this share of the running total ends its side
LINE_ORDER = 48            # Gauss nodes per panel
LINE_SCAN_HALFWIDTH = 4.0  # first half-width of the scan that locates the peak


class IntegrationError(QuantredError, RuntimeError):
    pass


@dataclass
class QuadConfig:
    samples: int = 100_000
    seed: int = 0
    method: str = "exact"   # 'exact' (alias 'grid') or 'mc'
    grid_order: int = 96
    blocks: int = 32

    @classmethod
    def from_dict(cls, data):
        return cls(**(data or {}))


def as_quad(quad):
    if quad is None:
        return QuadConfig()
    if isinstance(quad, QuadConfig):
        return quad
    return QuadConfig.from_dict(quad)


def rng_for(seed, *keys):
    """Deterministic per-task generator: the task key sequence is hashed into
    the seed so results are independent of execution order and process
    (Python's builtin hash is salted per process, so sha256 is used)."""
    material = [int(seed) & 0xFFFFFFFF]
    for k in keys:
        digest = hashlib.sha256(str(k).encode()).digest()
        material.append(int.from_bytes(digest[:4], "little"))
    return np.random.default_rng(np.random.SeedSequence(material))


@functools.lru_cache(maxsize=None)
def gauss_legendre(order):
    """Gauss-Legendre rule on [-1, 1], built once per order; shared, so read-only."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts


def gauss_segment(lo, hi, order):
    nodes, wts = gauss_legendre(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * nodes, half * wts


def adaptive_line_quadrature(f, max_pan=80):
    """Integral over R of a nonnegative, eventually-decaying integrand.

    The integrand is first scanned on a widening grid to locate its peak and
    effective width (it may be sharply concentrated, and not at the origin);
    Gauss panels then cover the core at the resolved width and extend
    outward until the tails are negligible.  f is vectorized.  Hitting the
    scan cap or the max_pan panel cap raises IntegrationError.
    """
    L = LINE_SCAN_HALFWIDTH
    for _ in range(12):
        grid = np.linspace(-L, L, 401)
        vals = f(grid)
        mx = float(vals.max())
        if mx <= 0:
            return 0.0
        if vals[0] < 1e-13 * mx and vals[-1] < 1e-13 * mx:
            break
        L *= 2.0
    else:
        raise IntegrationError(f"integrand does not decay within the scan half-width {L / 2.0:g} (12 doublings)")
    ipk = int(np.argmax(vals))
    peak = float(grid[ipk])
    above = grid[vals > mx * np.exp(-1.0)]
    sigma = max(0.5 * (above.max() - above.min()), 2.0 * L / 400.0)
    total = 0.0
    core = 6.0 * sigma
    for a, b in zip(np.linspace(peak - core, peak + core, 7)[:-1], np.linspace(peak - core, peak + core, 7)[1:]):
        x, w = gauss_segment(a, b, LINE_ORDER)
        total += float(np.sum(w * f(x)))
    for side in (+1, -1):
        edge = core
        width = 2.0 * sigma
        for _ in range(max_pan):
            a = peak + side * edge
            b = peak + side * (edge + width)
            x, w = gauss_segment(min(a, b), max(a, b), LINE_ORDER)
            part = float(np.sum(w * f(x)))
            total += part
            edge += width
            width *= 1.6
            if abs(part) <= LINE_RTOL * max(abs(total), 1e-300):
                break
        else:
            raise IntegrationError(f"tail panels still above {LINE_RTOL:g} of the total after max_pan={max_pan} panels")
    return total


def fit_power(ks, values, limit=0.0):
    """Least-squares fit |v - limit| ~ C k^{-p}; returns (C, p, r_squared)."""
    ks = np.asarray(ks, dtype=float)
    resid = np.abs(np.asarray(values, dtype=float) - limit)
    mask = resid > 0
    x, y = np.log(ks[mask]), np.log(resid[mask])
    slope, intercept, r2 = _ols(x, y)
    return float(np.exp(intercept)), float(-slope), r2


def _ols(x, y):
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - intercept - slope * x) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2
