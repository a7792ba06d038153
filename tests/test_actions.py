import collections
import itertools

import numpy as np
import pytest

from quantred import actions as ta
from quantred import asymptotics, cli, models, strata
from quantred.integrate import gauss_legendre, gauss_segment

import reference

TWO_PI = 2.0 * np.pi


def hamilton_residual(action, z, xi, rng, trials=6, h=1e-5):
    """|omega(X^xi, v) - d phi_xi(v)| over random chart directions."""
    m = action.model
    charts = models.chart_indices(m, z)
    w0 = models.to_chart(m, z, charts)
    g = models.chart_metric(m, w0)
    X, _ = reference.fundamental_fields(action, xi, z)
    Xc = models.ambient_to_chart(m, z, X, charts)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(m.n_total) + 1j * rng.standard_normal(m.n_total)
        zp = models.from_chart(m, w0 + h * v, charts)
        zm = models.from_chart(m, w0 - h * v, charts)
        dphi = float((ta.moment_map(action, zp) - ta.moment_map(action, zm)) @ xi) / (2 * h)
        om = reference.symplectic_pairing(g, Xc, v)
        worst = max(worst, abs(om - dphi) / (1.0 + abs(v).sum()))
    return worst


def test_hamilton_equation(e2, rng):
    for z in reference.random_points(e2.model, 5, rng):
        xi = rng.standard_normal(1)
        assert hamilton_residual(e2, z, xi, rng) < 1e-6


def test_hamilton_equation_rank2_with_shift(rng):
    m = models.make_model([1, 2], [2, 1])
    a = ta.make_action(m, [[1, -1, 0, 2, 1], [0, 1, 1, 0, -1]], shift=[0, "1/2"])
    z = reference.random_points(m, 2, rng)
    for zz in z:
        xi = rng.standard_normal(2)
        assert hamilton_residual(a, zz, xi, rng) < 1e-6


def test_moment_examples(e1):
    # weighted mass at [1:0], zero at |z0| = |z1|
    z0 = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(ta.moment_map(e1, z0), [-TWO_PI])
    zs = models.normalize(e1.model, np.array([1.0, 1.0j], dtype=complex))
    assert abs(ta.moment_map(e1, zs)[0]) < 1e-12


def test_equivariance(e2, rng):
    z = reference.random_points(e2.model, 1, rng)[0]
    for _ in range(5):
        theta = rng.standard_normal(1)
        gz = reference.real_flow(e2, theta, z)
        assert np.max(np.abs(ta.moment_map(e2, gz) - ta.moment_map(e2, z))) < 1e-10


def test_fundamental_fields_zero_cases(e1):
    z = models.normalize(e1.model, np.array([1.0, 0.5], dtype=complex))
    X, JX = reference.fundamental_fields(e1, np.zeros(1), z)
    assert np.allclose(X, 0) and np.allclose(JX, 0)
    # fixed point of the action: the fields vanish projectively
    zfix = np.array([1.0, 0.0], dtype=complex)
    X, _ = reference.fundamental_fields(e1, np.array([1.0]), zfix)
    Xc = models.ambient_to_chart(e1.model, zfix, X, (0,))
    assert np.allclose(Xc, 0)


def test_imaginary_flow_group_law(e2, rng):
    z = reference.random_points(e2.model, 1, rng)[0]
    xi = np.array([0.37])
    a = ta.imaginary_flow(e2, xi, 0.4, ta.imaginary_flow(e2, xi, 0.25, z))
    b = ta.imaginary_flow(e2, xi, 0.65, z)
    assert reference.projective_distance(e2.model, a, b) < 1e-12
    # t = 0 is the identity
    assert reference.projective_distance(e2.model, ta.imaginary_flow(e2, xi, 0.0, z), z) < 1e-14


def test_imaginary_flow_limit_direction(e1, rng):
    z = reference.random_points(e1.model, 1, rng)[0]
    far = ta.imaginary_flow(e1, np.array([1.0]), 20.0, z)
    assert reference.projective_distance(e1.model, far, np.array([0.0, 1.0], dtype=complex)) < 1e-8


def test_moment_monotone_along_imaginary_flow(e2, rng):
    z = reference.random_points(e2.model, 1, rng)[0]
    xi = rng.standard_normal(1)
    ts = np.linspace(0.0, 1.5, 25)
    pts = ta.imaginary_flow(e2, xi, ts, z)
    vals = ta.moment_map(e2, pts) @ xi
    assert np.all(np.diff(vals) > -1e-12)


def brute_force_stabilizer(action, z, orders=range(1, 9)):
    """Search root-of-unity torus elements fixing the point (rank 1)."""
    hits = 1
    for q in orders:
        for r in range(1, q):
            gz = reference.real_flow(action, np.array([r / q]), z)
            if reference.projective_distance(action.model, gz, z) < 1e-9:
                hits = max(hits, q // np.gcd(r, q))
    return hits


def test_isotropy_examples(e2):
    m = e2.model
    full = ta.isotropy(e2, np.array([0.0, 0.0, 1.0], dtype=complex))
    assert full.is_full
    tri = ta.isotropy(e2, models.normalize(m, np.array([1.0, 1.0, 1.0], dtype=complex)))
    assert tri.dim == 0 and tri.finite_part == 1
    z2 = ta.isotropy(e2, models.normalize(m, np.array([1.0, 1.0, 0.0], dtype=complex)))
    assert z2.dim == 0 and z2.finite_part == 2


def test_isotropy_brute_force_oracle(e1, e2):
    z = models.normalize(e1.model, np.array([1.0, 1.0], dtype=complex))
    assert ta.isotropy(e1, z).finite_part == brute_force_stabilizer(e1, z) == 2
    z = models.normalize(e2.model, np.array([1.0, 1.0, 1.0], dtype=complex))
    assert ta.isotropy(e2, z).finite_part == brute_force_stabilizer(e2, z) == 1


def test_orbit_volume_constancy_and_flag(e2, rng):
    z = reference.random_points(e2.model, 1, rng)[0]
    vol0 = ta.orbit_volume(e2, z)
    assert not ta.isotropy(e2, z).is_full
    for t in (0.3, 1.1):
        gz = reference.real_flow(e2, np.array([t]), z)
        vol = ta.orbit_volume(e2, gz)
        assert abs(vol - vol0) < 1e-8 * vol0
    fixed = np.array([0.0, 0.0, 1.0], dtype=complex)
    v_full = ta.orbit_volume(e2, fixed)
    assert ta.isotropy(e2, fixed).is_full and v_full == 1.0


def test_orbit_volume_against_arclength_oracle(e1):
    # quadrature of |d/dtheta (exp(theta).x)| over one group period
    z = models.normalize(e1.model, np.array([1.0, 1.0], dtype=complex))
    ths, wts = gauss_segment(0.0, 1.0, 64)
    total = 0.0
    h = 1e-6
    for t, w in zip(ths, wts):
        zp = reference.real_flow(e1, np.array([t + h]), z)
        zm = reference.real_flow(e1, np.array([t - h]), z)
        charts = models.chart_indices(e1.model, zp)
        vel = (models.to_chart(e1.model, zp, charts) - models.to_chart(e1.model, zm, charts)) / (2 * h)
        g = models.chart_metric(e1.model, models.to_chart(e1.model, reference.real_flow(e1, np.array([t]), z), charts))
        total += w * np.sqrt(models.metric_pairing(g, vel, vel))
    vol = ta.orbit_volume(e1, z)
    assert abs(total - vol) < 1e-6 * vol
    assert abs(vol - 2.0 * np.sqrt(2.0) * np.pi) < 1e-10


def test_orbit_volume_matches_frame_route(e2, rng):
    # closed-form mass pairing against the numeric chart-frame Gram
    z = reference.random_points(e2.model, 1, rng)[0]
    X, _ = reference.fundamental_fields(e2, np.array([1.0]), z)
    charts = models.chart_indices(e2.model, z)
    g = models.chart_metric(e2.model, models.to_chart(e2.model, z, charts))
    Xc = models.ambient_to_chart(e2.model, z, X, charts)
    direct = models.metric_pairing(g, Xc, Xc)
    closed = ta.field_pairing(e2, models.masses(e2.model, z))[0, 0]
    assert abs(direct - closed) < 1e-8 * abs(closed)


def test_flow_potential_basics(e2, st2, rng):
    pts, _ = strata.sample_stratum(e2, st2.open_stratum(), 3, seed=5)
    z = pts[0]
    rep = reference.flow_potential(e2, np.zeros(1), z)
    assert rep.value == 0.0
    assert np.all(np.linalg.eigvalsh(rep.hessian_at_zero) > 0)
    # Hessian at 0 equals 2 B(JX, JX) on m
    iso = ta.isotropy(e2, z)
    mb = ta.m_basis(e2, iso)
    G = ta.field_pairing(e2, models.masses(e2.model, z))
    ref = 2.0 * (mb @ G @ mb.T)
    assert np.max(np.abs(rep.hessian_at_zero - ref)) < 1e-4 * np.max(np.abs(ref))


def test_potential_closed_form_vs_quadrature(e2, rng):
    z = reference.random_points(e2.model, 1, rng)[0]
    for _ in range(4):
        xi = rng.standard_normal(1)
        lse = float(ta.potential(e2, xi, z))
        qd = reference.potential_quadrature(e2, xi, z)
        assert abs(lse - qd) < 1e-10 * (1 + abs(lse))


def test_gauss_legendre_built_once_and_read_only():
    nodes, wts = gauss_legendre(48)
    ref_nodes, ref_wts = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(wts, ref_wts)
    assert gauss_legendre(48)[0] is nodes
    with pytest.raises(ValueError):
        wts[0] = 0.0
    x, w = gauss_segment(-1.0, 1.0, 48)
    assert np.array_equal(x, ref_nodes) and np.array_equal(w, ref_wts)


def test_potential_linear_growth(e2, st2):
    # f(t xi, x) >= C t for t >= t0 with C > 0 on stratum samples
    pts, _ = strata.sample_stratum(e2, st2.open_stratum(), 4, seed=9)
    for z in pts:
        p = models.masses(e2.model, z)
        for sgn in (1.0, -1.0):
            vals = [float(ta.potential(e2, np.array([sgn * t]), p, from_masses=True)) / t for t in (1.0, 2.0, 4.0)]
            assert min(vals) > 0


def test_jacobian_tau_at_zero_is_orbit_volume(e1, e2):
    z1 = models.normalize(e1.model, np.array([1.0, 1.0], dtype=complex))
    tau0 = ta.jacobian_tau_batch(e1, np.zeros((1, 1)), z1)[0]
    vol = ta.orbit_volume(e1, z1)
    assert abs(tau0 - vol) < 1e-8 * vol
    pts, _ = strata.sample_stratum(e2, strata.analyze(e2).open_stratum(), 2, seed=3)
    for z in pts:
        tau0 = ta.jacobian_tau_batch(e2, np.zeros((1, 1)), z)[0]
        vol = ta.orbit_volume(e2, z)
        assert abs(tau0 - vol) < 1e-7 * vol


def test_jacobian_tau_analytic_curve(e1):
    # analytic tau on the weight-(1,-1) circle: 8 sqrt(2) pi r^2/(1+r^2)^2, r^2 = e^{8 pi xi}
    z1 = models.normalize(e1.model, np.array([1.0, 1.0], dtype=complex))
    for xi in (0.02, 0.05, -0.07):
        r2 = np.exp(8.0 * np.pi * xi)
        ref = 8.0 * np.sqrt(2.0) * np.pi * r2 / (1.0 + r2) ** 2
        val = ta.jacobian_tau_batch(e1, np.array([[xi]]), z1)[0]
        assert abs(val - ref) < 1e-7 * ref


def test_jacobian_tau_g_invariance(e2):
    pts, _ = strata.sample_stratum(e2, strata.analyze(e2).open_stratum(), 1, seed=12)
    z = pts[0]
    xi = np.array([0.08])
    v1 = ta.jacobian_tau_batch(e2, xi[None], z)[0]
    gz = reference.real_flow(e2, np.array([0.41]), z)
    v2 = ta.jacobian_tau_batch(e2, xi[None], gz)[0]
    assert abs(v1 - v2) < 1e-8 * v1


def test_coarea_tau_closed_form_matches_fd(e1, e2, e3):
    """The closed-form transverse integrand, orbit volume times
    exp(<a, xi> + sum_j b_j log(N_j / N_j(0))) with (a, b) from
    transverse_exponent, against the finite-difference jacobian_tau_batch
    times e^{-k f} (and the divergence factor for the half-form twist), at
    k = 0 (tau alone) and k = 2, at stratum and extra-piece points of E1,
    E2, E3, CP^1 x CP^2 with l = (2, 3) and the rank-2 (CP^1)^3 model (whose
    open-stratum draw with seed 1 is the dense-grid reference point), at xi
    of scale 0.2 and 1.0.  The central differences lose digits as tau falls
    (at tau ~ 1e-11 they are off by up to 3e-5), so only tau > 1e-8 max is
    compared, the max over a batch that includes xi = 0."""
    cp = ta.make_action(models.make_model([1, 2], [2, 3]), [[1, 0, -1, 0, 1]])
    rank2 = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]), [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]])
    rng = np.random.default_rng(5)
    compared = collections.Counter()
    for action in (e1, e2, e3, cp, rank2):
        st = strata.analyze(action)
        targets = [lab for lab in st.strata if not lab.isotropy.is_full]
        targets += [piece for pieces in st.pieces.values() for piece in pieces]
        for target in targets:
            pts, _ = strata.sample_stratum(action, target, 2, seed=1)
            for z, scale in itertools.product(pts, (0.2, 1.0)):
                mb = ta.m_basis(action, ta.isotropy(action, z))
                xis = np.vstack([np.zeros(action.rank), scale * rng.standard_normal((12, mb.shape[0])) @ mb])
                fd = ta.jacobian_tau_batch(action, xis, z)
                live = fd > 1e-8 * fd.max()
                p = models.masses(action.model, z)
                logp, u = ta._log_masses(p), xis @ action.W
                log_n = ta._log_flow_sums(action.model, logp, u) - ta._log_flow_sums(action.model, logp, 0.0)
                for k, halfform in itertools.product((0, 2), (False, True)):
                    a, b = ta.transverse_exponent(action, p[None], k, halfform)
                    closed = ta.orbit_volume(action, z) * np.exp(xis @ a + log_n @ b)
                    ref = fd * np.exp(-k * ta.potential(action, xis, p, from_masses=True))
                    if halfform:
                        ref = ref * reference.divergence_factor(action, xis, p, from_masses=True)
                    assert np.all(np.abs(closed[live] / ref[live] - 1.0) < 1e-8)
                    compared[k, halfform] += int(np.sum(live))
    assert len(compared) == 4 and min(compared.values()) > 500


def test_coarea_setup_rejects_a_degenerate_jacobian(e2, monkeypatch):
    """With m_basis returning a vector of the isotropy algebra the orbit
    collapses, tau(0, x) = 0, and `asymptotics._transverse_integral` raises,
    naming the point: on E2's H = G stratum and on the rank-2 (CP^1)^3
    pieces whose isotropy is one vector, a coordinate vector (exact zeros)
    or (-1, 1)/sqrt(2), where the orbit Gram's smallest eigenvalue is
    rounding, about +-1e-31, against O(10-100) for the uncentred pairing."""
    rank2 = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]), [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]])
    cases = [(e2, lab) for lab in strata.analyze(e2).strata if lab.isotropy.is_full]
    for piece in (piece for pieces in strata.analyze(rank2).pieces.values() for piece in pieces):
        if len(ta.isotropy_of_support(rank2, piece.pattern).algebra_basis) == 1:
            cases.append((rank2, piece))
    assert len(cases) == 7
    assert {((0,), (2, 3), (4,)), ((1,), (2, 3), (5,))} <= {target.pattern for _, target in cases[1:]}
    draws = [(action, strata.sample_stratum(action, target, 3, seed=1)[0]) for action, target in cases]
    for action, pts in draws:
        h = np.asarray([[float(v) for v in ta.isotropy(action, pts[0]).algebra_basis[0]]])
        monkeypatch.setattr(ta, "m_basis", lambda action, iso: h)
        with pytest.raises(ta.ActionError, match=r"degenerate coarea differential at the point with masses \["):
            asymptotics._transverse_integral(action, pts, 2)


def test_isotropy_is_computed_once_per_support(tmp_path, monkeypatch):
    """`isotropy_of_support` is memoized: a full E2 run computes the exact
    rational nullspace at most once per distinct support."""
    supports, nullspaces = set(), []
    rows_of, nullspace = ta._relative_weight_rows, ta.rational_nullspace
    monkeypatch.setattr(ta, "_relative_weight_rows", lambda a, s: supports.add((a, s)) or rows_of(a, s))
    monkeypatch.setattr(ta, "rational_nullspace", lambda rows: nullspaces.append(rows) or nullspace(rows))
    ta.isotropy_of_support.cache_clear()
    assert cli.main(["run", "--preset", "E2", "--k", "2,4,8", "--out", str(tmp_path / "e2")]) == 0
    assert 0 < len(nullspaces) <= len(supports)


def test_coarea_consistency_toy(e1, rng):
    """Direct MC integral over the flowed tube equals the iterated tau integral.

    Test function h = |z0 z1|^2 / |z|^4 over the image of (-T, T) x Z under
    the flow, compared against the ambient integral restricted to the tube.
    """
    z0 = models.normalize(e1.model, np.array([1.0, 1.0], dtype=complex))
    T = 0.04
    # iterated: vol(Z) int_-T^T tau(xi) h(e^{i xi} x) dxi (h and tau are
    # G-invariant and Z is a single orbit of geometric length sqrt(2) pi)
    xis, wts = gauss_segment(-T, T, 64)
    taus = ta.jacobian_tau_batch(e1, xis[:, None], z0)
    pts = ta.imaginary_flow(e1, xis[:, None], 1.0, z0)
    hvals = np.abs(pts[:, 0] * pts[:, 1]) ** 2
    vol_z = np.sqrt(2.0) * np.pi
    iterated = vol_z * float(np.sum(wts * taus * hvals))
    # direct: ambient MC over the tube {|phi| < phi(T)}
    cut = abs(float(ta.moment_map(e1, ta.imaginary_flow(e1, np.array([1.0]), T, z0))[0]))
    zz = reference.random_points(e1.model, 400000, rng)
    phis = ta.moment_map(e1, zz)[:, 0]
    mask = np.abs(phis) < cut
    h = np.abs(zz[:, 0] * zz[:, 1]) ** 2
    vol = reference.liouville_volume_exact(e1.model)
    direct = vol * float(np.mean(np.where(mask, h, 0.0)))
    err = vol * float(np.std(np.where(mask, h, 0.0)) / np.sqrt(len(zz)))
    assert abs(direct - iterated) < 3.0 * err + 1e-4 * iterated


def test_norm_transport_direct_evaluation(e1, e2, rng):
    s = reference.invariant_basis(e2, 4, "plain")[0]
    z = reference.random_points(e2.model, 1, rng)[0]
    xi = np.array([0.23])
    n0 = reference.pointwise_norm(s, z)
    moved = ta.imaginary_flow(e2, xi, 1.0, z)
    direct = reference.pointwise_norm(s, moved)
    transported = reference.norm_transport(e2, "plain", 4, xi, z, n0)
    assert abs(direct - transported) < 1e-8 * (1e-30 + direct)
    # half-form variant on E1
    r = reference.invariant_basis(e1, 5, "halfform")[0]
    z1 = reference.random_points(e1.model, 1, rng)[0]
    n0 = reference.pointwise_norm(r, z1)
    moved = ta.imaginary_flow(e1, xi, 1.0, z1)
    direct = reference.pointwise_norm(r, moved)
    transported = reference.norm_transport(e1, "halfform", 5, xi, z1, n0)
    assert abs(direct - transported) < 1e-8 * (1e-30 + direct)


def test_norm_transport_trivial_cases(e2, rng):
    z = reference.random_points(e2.model, 1, rng)[0]
    assert reference.norm_transport(e2, "plain", 3, np.zeros(1), z, 0.77) == pytest.approx(0.77)
    with pytest.raises(ta.ActionError):
        reference.norm_transport(e2, "plain", 3, np.zeros(1), z, -1.0)
    with pytest.raises(ta.ActionError):
        reference.norm_transport(e2, "spicy", 3, np.zeros(1), z, 1.0)


def test_norm_transport_fixed_direction(e2):
    # xi in the isotropy algebra leaves the point and the norm unchanged
    zfix = np.array([0.0, 0.0, 1.0], dtype=complex)  # H = G point
    s = reference.invariant_basis(e2, 4, "plain")[2]
    n0 = reference.pointwise_norm(s, zfix)
    out = reference.norm_transport(e2, "plain", 4, np.array([0.9]), zfix, n0)
    assert abs(out - n0) < 1e-12 * (1 + n0)


def test_lift_integrality(e3):
    assert e3.lift_integral(2)
    assert not e3.lift_integral(3)
