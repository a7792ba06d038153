"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are evaluated at their stated tolerances on the three shipped
examples (E1: the weight-(1,-1) line; E2: the weight-(1,-1,0) plane; E3:
the shifted product of two lines, metaplectic).
"""

import numpy as np

from quantred import actions as ta
from quantred import asymptotics, models, reduction, strata
from quantred.integrate import fit_power

import reference
from test_strata import ray_limit_oracle


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_hessian_identity(e2, st2):
    """Finite-difference Hessian of the transport potential at 0 equals
    2 B(JX, JX) on m, within 1e-3 relative, at 10 free zero-level points."""
    pts, _ = strata.sample_stratum(e2, st2.open_stratum(), 10, seed=101)
    rng = np.random.default_rng(7)
    worst = 0.0
    for z in pts:
        iso = ta.isotropy(e2, z)
        assert iso.dim == 0 and iso.finite_part == 1
        rep = reference.flow_potential(e2, np.zeros(1), z)
        mb = ta.m_basis(e2, iso)
        G = ta.field_pairing(e2, models.masses(e2.model, z))
        for _ in range(3):
            xi1 = rng.standard_normal(1)
            xi2 = rng.standard_normal(1)
            u1, u2 = xi1 @ mb.T, xi2 @ mb.T
            fd = float(u1 @ rep.hessian_at_zero @ u2)
            ref = 2.0 * float((xi1 @ mb) @ G @ (xi2 @ mb))
            worst = max(worst, abs(fd - ref) / abs(ref))
    ok = worst < 1e-3
    assert _line(1, ok, f"Hessian identity, max relative deviation {worst:.2e} (tol 1e-3)")


def test_criterion_2_pointwise_descent(e2, st2):
    """Contraction oracle reproduces 2^{-1/2} vol(G.x) within 1e-3 at 10
    free-stratum points; the H = G factor is exactly 1."""
    pts, _ = strata.sample_stratum(e2, st2.open_stratum(), 10, seed=202)
    worst = 0.0
    for z in pts:
        vol = ta.orbit_volume(e2, z)
        expect = 2.0 ** (-0.5) * vol
        oracle = reference.contraction_factor(e2, z)
        worst = max(worst, abs(oracle - expect) / expect)
    at_fixed = reduction.descent_norm_factor(e2, np.array([0, 0, 1.0], dtype=complex))
    ok = worst < 1e-3 and at_fixed == 1.0
    assert _line(2, ok, f"descent factor, max relative deviation {worst:.2e}; H=G factor {at_fixed}")


def test_criterion_3_density_limits(e2, st2, e3, st3):
    """I_k -> 2^{-1/2} vol on E2's free stratum (within 5% at k=100 and
    monotone along 10, 20, 40, 100); J_100 within 5% of 1 on E3."""
    lab2 = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab2, 4, seed=303)
    ok = True
    worst_final = 0.0
    for z in pts:
        lim = 2.0 ** (-0.5) * ta.geometric_orbit_volume(e2, z)
        errs = [abs(asymptotics.density_I(e2, lab2, z, k) - lim) / lim for k in (10, 20, 40, 100)]
        ok &= all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] < 0.05
        worst_final = max(worst_final, errs[-1])
    lab3 = st3.open_stratum()
    pts3, _ = strata.sample_stratum(e3, lab3, 3, seed=304)
    worst_j = max(abs(asymptotics.density_J(e3, lab3, z, 100) - 1.0) for z in pts3)
    ok &= worst_j < 0.05
    assert _line(3, ok, f"density limits: max |I_100/lim - 1| = {worst_final:.4f}, max |J_100 - 1| = {worst_j:.4f}")


def test_criterion_4_residual_decay(e2, st2):
    """II_k > 0 on E2's H = G stratum; log II_k against k fits a negative
    slope with R^2 > 0.95 over k in 10..60; |slope| at least half the
    transport growth constant 2C estimated at the dominant piece's slice."""
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    ks = np.arange(10, 61)
    vals = np.array([asymptotics.residual_II(e2, full, int(k), "plain", strat=st2) for k in ks])
    positive = bool(np.all(vals > 0))
    slope, _, r2 = reference.fit_loglinear(ks, vals)
    piece = st2.pieces[full.key][0]
    u = models.normalize(e2.model, piece.level_slice.point(theta=np.zeros(e2.model.ncoords)))
    c_est = reference.growth_constant(e2, u)  # the 2C of the exponent bound
    slope_ok = abs(slope) >= 0.5 * c_est
    ok = positive and slope < 0 and r2 > 0.95 and slope_ok
    # the exact law here is II_k = 2 sqrt(2 pi k)/(k+1): polynomial, so the
    # log-linear fit quality is grid-sensitive; see the power fit alongside
    Cp, p, r2p = fit_power(ks, vals)
    assert _line(
        4,
        ok,
        f"residual decay: slope {slope:.4f}, R^2 {r2:.4f} (>0.95), growth constant 2C {c_est:.3f}; "
        f"power fit p = {p:.3f} with R^2 {r2p:.5f}",
    )


NORM_SPLIT_CASES = [
    ("E1", "plain", (4, 8, 16)),
    ("E1", "halfform", (5, 9, 17)),  # E1 has invariant half-form sections at odd k only
    ("E2", "plain", (4, 8, 16)),
    ("E3", "plain", (4, 8, 16)),
    ("E3", "halfform", (4, 8, 16)),
]


def test_criterion_5_norm_decomposition(e1, e2, e3, st1, st2, st3):
    """Per-stratum direct and stratum-density routes agree within 3 combined
    sigma on E1, E2, E3 at three k each ({4, 8, 16}, or {5, 9, 17} where
    invariant sections need odd k), both norm definitions, both twists
    where defined.  A case without invariant sections would check nothing,
    so it fails."""
    envs = {"E1": (e1, st1), "E2": (e2, st2), "E3": (e3, st3)}
    ok = True
    worst = 0.0
    empty = []
    for name, twist, ks in NORM_SPLIT_CASES:
        action, strat = envs[name]
        for k in ks:
            rep = asymptotics.norm_split_consistency(
                action, k, twist,
                {"samples": 400000, "seed": 3000 + k, "method": "mc", "blocks": 64},
                strat=strat,
            )
            if rep["dim"] == 0:
                empty.append(f"{name}/{twist}/k={k}")
                continue
            # definition (1) uses the open stratum only; definition (2) all
            # strata: both are covered by the per-stratum comparisons
            worst = max(worst, rep["max_nsigma"])
            ok &= rep["max_nsigma"] < 3.0
    ok &= not empty
    assert _line(5, ok, f"norm decomposition, worst discrepancy {worst:.2f} sigma (tol 3); "
                        f"empty invariant spaces: {', '.join(empty) or 'none'}")


def test_criterion_6_asymptotic_unitarity(e3, st3):
    """E3 half-form defect halves from k=10 to k=40 and fits C/k^p with
    p >= 0.75; the plain defect's lower confidence bound stays above 0.2."""
    quad = {"method": "exact", "grid_order": 128}
    ks = (10, 16, 22, 28, 34, 40)
    dh, dp_low = [], []
    for k in ks:
        d, s = asymptotics.unitarity_defect(e3, k, "halfform", 1, quad, strat=st3)
        dh.append(d)
        d2, s2 = asymptotics.unitarity_defect(e3, k, "plain", 1, quad, strat=st3)
        dp_low.append(d2 - 1.96 * s2)
    halved = dh[-1] <= dh[0] / 2.0
    _, p, r2 = fit_power(ks, dh)
    margin = 0.2
    floored = all(v > margin for v in dp_low)
    ok = halved and p >= 0.75 and floored
    assert _line(
        6,
        ok,
        f"unitarity: halfform defect {dh[0]:.4f} -> {dh[-1]:.4f} (factor {dh[0]/dh[-1]:.2f}), "
        f"p = {p:.3f} (>=0.75, fit R^2 {r2:.3f}); plain lower bound min {min(dp_low):.3f} > {margin}",
    )


def test_criterion_7_flow_correctness(e2, rng):
    """Flow limits match the closed-form single-ray oracle within 1e-6 on
    100 random points, with |phi|^2 decreasing on every accepted step."""
    pts = reference.random_points(e2.model, 100, rng)
    worst = 0.0
    mono = True
    for z in pts:
        res = strata.kirwan_flow(e2, z, tol=1e-24, max_steps=60000)
        assert res.converged
        mono &= res.monotone
        ref = ray_limit_oracle(e2, z)
        worst = max(worst, reference.projective_distance(e2.model, res.limit, ref))
    ok = worst < 1e-6 and mono
    assert _line(7, ok, f"flow limits, max distance to ray oracle {worst:.2e} (tol 1e-6), monotone {mono}")


def test_criterion_8_prequantum_and_compatibility(e1, e2, e3):
    """Frame invariants at 1e-10, prequantum residual below 1e-6, and the
    chart-decomposed volume consistent with the closed form at 3 sigma, on
    all three example models."""
    ok = True
    worst_frame = 0.0
    worst_curv = 0.0
    for action in (e1, e2, e3):
        m = action.model
        rng = np.random.default_rng(42)
        for z in reference.random_points(m, 6, rng):
            fr = reference.frame_at(m, z)
            n2 = 2 * m.n_total
            worst_frame = max(
                worst_frame,
                float(np.max(np.abs(fr.J @ fr.J + np.eye(n2)))),
                float(np.max(np.abs(fr.B - fr.B.T))),
                float(np.max(np.abs(fr.omega + fr.omega.T))),
                float(np.max(np.abs(fr.omega - fr.J.T @ fr.B))),
            )
            ok &= np.min(np.linalg.eigvalsh(fr.B)) > 0
        for k in (1, 3):
            worst_curv = max(worst_curv, reference.check_prequantum(m, k, reference.random_points(m, 1, rng)[0]))
        val, err = reference.liouville_volume(m, {"samples": 60000, "seed": 17})
        exact = reference.liouville_volume_exact(m)
        ok &= abs(val - exact) < 3.0 * max(err, 1e-12)
    ok &= worst_frame < 1e-10 and worst_curv < 1e-6
    assert _line(
        8,
        ok,
        f"frame residuals {worst_frame:.2e} (tol 1e-10), curvature residual {worst_curv:.2e} (tol 1e-6), volumes at 3 sigma",
    )
