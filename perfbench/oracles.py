"""Reference values the benchmark checks quantred's outputs against.

Everything here is computed apart from the program: closed forms (Dirichlet
moments, the E1 density laws, the E2 residual law, the rank-1 orbit volume),
plain linear algebra, and a dense tensor-grid quadrature.  The one place that
evaluates program code is the integrand handed to `tensor_grid_integral`;
the quadrature around it is the benchmark's own.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


def pattern_moment(pattern, alpha, degrees):
    """Integral of prod p_i^alpha_i over a coordinate subvariety of CP^n1 x ...

    `pattern` lists, per factor, the coordinates that may be nonzero.  Per
    factor with |R| coordinates the Fubini-Study measure scaled by degree l
    gives (2 pi l)^(|R|-1) prod alpha_i! / (|alpha| + |R| - 1)!, and a
    monomial that charges a coordinate off the pattern integrates to 0.
    """
    on = {i for sup in pattern for i in sup}
    if any(a > 0 and i not in on for i, a in enumerate(alpha)):
        return 0.0
    out = 1.0
    for sup, l in zip(pattern, degrees):
        a = [int(alpha[i]) for i in sup]
        nr = len(sup) - 1
        out *= (TWO_PI * l) ** nr * math.prod(math.factorial(v) for v in a) / math.factorial(sum(a) + nr)
    return out


def upstairs_diagonal(k, pattern, exps, degrees, q0=1.0):
    """(k/2pi)^(dim/2) times the Dirichlet moment of each exponent row.

    The exact Gram of a torus-invariant monomial basis is diagonal with these
    entries; `q0` is the constant half-form frame factor prod l_j^(-n_j/2).
    """
    dim = sum(len(sup) - 1 for sup in pattern)
    if dim == 0:
        # a point: |z^alpha|^2 at the coordinate vertex of the pattern
        on = {sup[0] for sup in pattern}
        return np.array([q0 * float(all(a == 0 or i in on for i, a in enumerate(e))) for e in exps])
    pref = (k / TWO_PI) ** (dim / 2.0)
    return np.array([q0 * pref * pattern_moment(pattern, e, degrees) for e in exps])


def e2_residual_law(k):
    """II_k = 2 sqrt(2 pi k)/(k + 1) on E2's fully fixed stratum."""
    return 2.0 * math.sqrt(TWO_PI * k) / (k + 1)


def e1_density_I_law(k):
    """I_k on E1's Z_2 point: pi sqrt(k/2) Gamma((k+2)/2) / Gamma((k+3)/2)."""
    return math.pi * math.sqrt(k / 2.0) * math.exp(math.lgamma((k + 2) / 2.0) - math.lgamma((k + 3) / 2.0))


def rank1_orbit_volume(weights, slices, degrees, z):
    """sqrt B(X, X) for a circle action: 8 pi^2 sum_j l_j Var_p(w) per factor."""
    p = np.abs(np.asarray(z)) ** 2
    w = np.asarray(weights, dtype=float)
    total = 0.0
    for sl, l in zip(slices, degrees):
        pj = p[sl] / p[sl].sum()
        total += l * (np.sum(w[sl] ** 2 * pj) - np.sum(w[sl] * pj) ** 2)
    return math.sqrt(8.0 * math.pi**2 * total)


def generalized_defect(down, up):
    """max |lambda - 1| over the eigenvalues of up^-1 down (both Hermitian)."""
    lam = np.linalg.eigvals(np.linalg.solve(up, down))
    return float(np.max(np.abs(lam.real - 1.0)))


def power_law_exponent(ks, values):
    """p of the least-squares fit values ~ C k^-p on log-log axes."""
    x = np.log(np.asarray(ks, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


def simpson_weights(n, lo, hi):
    """Composite Simpson weights on n (odd) equispaced nodes of [lo, hi]."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson's rule needs an odd node count >= 3")
    h = (hi - lo) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return np.linspace(lo, hi, n), w * h / 3.0


def tensor_grid_integral(integrand, m, half_width, nodes, chunk=20000):
    """Integral of integrand over [-half_width, half_width]^m, tensor Simpson.

    `integrand` maps an (N, m) array of points to N values.  Points are fed
    in chunks so memory stays bounded on dense grids.
    """
    x, w = simpson_weights(nodes, -half_width, half_width)
    grids = np.meshgrid(*([x] * m), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    wts = np.ones(1)
    for _ in range(m):
        wts = np.multiply.outer(wts, w).reshape(-1)
    total = 0.0
    for start in range(0, len(pts), chunk):
        total += float(np.sum(wts[start:start + chunk] * integrand(pts[start:start + chunk])))
    return total


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def invariant_monomials(factors, degrees, weights, shift, k, twist):
    """Sorted exponent tuples z^alpha of the torus-invariant sections.

    Per factor the degree is k l_j, or k l_j - (n_j + 1)/2 with the half-form
    twist; z^alpha is invariant when W alpha = -k c (minus half the weight
    row sums with the half-form twist).
    """
    degs = [Fraction(k * l) - (Fraction(n + 1, 2) if twist == "halfform" else 0)
            for n, l in zip(factors, degrees)]
    target = [-k * Fraction(c) - (Fraction(sum(row), 2) if twist == "halfform" else 0)
              for row, c in zip(weights, shift)]
    if any(d.denominator != 1 or d < 0 for d in degs) or any(t.denominator != 1 for t in target):
        return []
    blocks = [list(_compositions(int(d), n + 1)) for d, n in zip(degs, factors)]
    rows = []
    for combo in itertools.product(*blocks):
        alpha = tuple(v for block in combo for v in block)
        if all(sum(w * a for w, a in zip(row, alpha)) == t for row, t in zip(weights, target)):
            rows.append(alpha)
    return sorted(rows)
