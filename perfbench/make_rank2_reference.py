"""Write rank2_reference.json: I_k on the rank-2 example by dense quadrature.

The example is (CP^1)^3 with the T^2 weights of RANK2_WEIGHTS and the point
of its open stratum drawn by sample_stratum(seed=1).  There m = 2, and

    I_k = vol(G.x) (k/2pi) int_{R^2} tau(xi, x) e^{-k f(xi, x)} dxi.

The integrand is quantred's (jacobian_tau_batch and potential); the
quadrature is a tensor Simpson grid on the smallest square (grown in 10%
steps) on whose edge the integrand has decayed below 1e-13 of its value at
0.  The grid is run at two resolutions and their difference is kept as the
error estimate.

Run from the repository root:

    python3 perfbench/make_rank2_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from quantred import actions, models, strata  # noqa: E402

import oracles  # noqa: E402

RANK2_FACTORS = [1, 1, 1]
RANK2_DEGREES = [1, 1, 1]
RANK2_WEIGHTS = [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]]
RANK2_KS = (10, 40, 100)
POINT_SEED = 1
START_HALF_WIDTH = 0.02
NODES = (201, 401)
EDGE_DECAY = 1e-13
OUT = os.path.join(HERE, "rank2_reference.json")


def rank2_action():
    model = models.make_model(RANK2_FACTORS, RANK2_DEGREES)
    return actions.make_action(model, RANK2_WEIGHTS)


def open_point(action, strat):
    lab = strat.open_stratum()
    pts, _ = strata.sample_stratum(action, lab, 1, seed=POINT_SEED)
    return lab, pts[0]


def integrand_for(action, x, k):
    p = models.masses(action.model, x)
    s_basis, _, _ = actions.level_tangent_basis(action, x)

    def integrand(xis):
        taus = actions.jacobian_tau_batch(action, xis, x, s_basis=s_basis)
        return taus * np.exp(-k * actions.potential(action, xis, p, from_masses=True))

    return integrand


def edge_ratio(integrand, half_width, nodes=201):
    """Largest integrand value on the square's boundary over its value at 0."""
    t = np.linspace(-half_width, half_width, nodes)
    edge = np.concatenate([
        np.stack([t, np.full_like(t, s * half_width)], axis=1) for s in (-1.0, 1.0)
    ] + [
        np.stack([np.full_like(t, s * half_width), t], axis=1) for s in (-1.0, 1.0)
    ])
    return float(np.max(integrand(edge)) / integrand(np.zeros((1, 2)))[0])


def main():
    action = rank2_action()
    strat = strata.analyze(action)
    lab, x = open_point(action, strat)
    iso = lab.isotropy
    if iso.dim != 0 or not np.allclose(actions.m_basis(action, iso), np.eye(2)):
        raise SystemExit("expected a free rank-2 stratum with the identity m-basis")
    vol = actions.geometric_orbit_volume(action, x, iso)
    values, errors, widths = [], [], []
    for k in RANK2_KS:
        f = integrand_for(action, x, k)
        half_width = START_HALF_WIDTH
        while edge_ratio(f, half_width) > EDGE_DECAY:
            half_width *= 1.1
        coarse, fine = (vol * (k / oracles.TWO_PI) * oracles.tensor_grid_integral(f, 2, half_width, n)
                        for n in NODES)
        values.append(fine)
        errors.append(abs(fine - coarse))
        widths.append(half_width)
        print(f"k={k}: I_k = {fine:.12g} (coarse grid {coarse:.12g}, half width {half_width:.4f})")
    ref = {
        "weights": RANK2_WEIGHTS,
        "point_seed": POINT_SEED,
        "point_re": x.real.tolist(),
        "point_im": x.imag.tolist(),
        "orbit_volume": vol,
        "limit": 0.5 * vol,
        "k": list(RANK2_KS),
        "I": values,
        "abs_error": errors,
        "half_width": widths,
        "nodes_per_axis": list(NODES),
    }
    with open(OUT, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
