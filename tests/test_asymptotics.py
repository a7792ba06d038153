import numpy as np
import pytest
from scipy.special import gammaln

from quantred import actions as ta
from quantred import asymptotics, cli, models, reduction, sections, strata
from quantred.integrate import IntegrationError, QuadConfig, adaptive_line_quadrature

import reference


def e1_density_I_exact(k):
    # pi sqrt(k/2) Gamma((k+2)/2) / Gamma((k+3)/2), from the sech-power integral
    return np.pi * np.sqrt(k / 2.0) * np.exp(gammaln((k + 2) / 2.0) - gammaln((k + 3) / 2.0))


def e1_density_J_exact(k):
    return np.sqrt(k / (2 * np.pi)) * np.sqrt(np.pi) * np.exp(gammaln((k + 1) / 2.0) - gammaln((k + 2) / 2.0))


def test_density_I_e1_frozen_law(e1, st1):
    lab = st1.strata[0]
    x = lab.representative
    for k in (2, 4, 10, 40, 100):
        val = asymptotics.density_I(e1, lab, x, k)
        assert abs(val - e1_density_I_exact(k)) < 1e-8 * e1_density_I_exact(k)


def test_density_J_e1_frozen_law(e1, st1):
    lab = st1.strata[0]
    x = lab.representative
    for k in (2, 10, 40, 100):
        val = asymptotics.density_J(e1, lab, x, k)
        assert abs(val - e1_density_J_exact(k)) < 1e-8 * e1_density_J_exact(k)


def test_density_I_rank2_matches_dense_grid_reference():
    """m = 2: density_I at the open-stratum draw (seed 1) of the rank-2
    (CP^1)^3 model against a dense-grid reference whose own error is about
    5e-11 (perfbench/rank2_reference.json, nodes_per_axis 201 and 401)."""
    action = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]), [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]])
    lab = strata.analyze(action).open_stratum()
    pts, _ = strata.sample_stratum(action, lab, 1, seed=1)
    for k, ref in ((10, 14.636332768529169), (40, 16.40090512430607), (100, 16.804855739898073)):
        assert abs(asymptotics.density_I(action, lab, pts[0], k) - ref) < 1e-9 * ref


def test_transverse_rule_at_slice_ends(e2, st2):
    """Next to the ends of E2's order-32 open slice f is flat far beyond the
    scale of its Hessian at 0, so a fixed whitened step is not enough at
    k = 2; each node's refinement must still meet the finite-difference
    integrand under adaptive_line_quadrature, with and without the
    divergence factor."""
    sl = strata.make_level_slice(e2, st2.open_stratum().top_pattern, np.zeros(1))
    z, _ = strata.slice_quadrature(e2, sl, 32)
    p = models.masses(e2.model, z)
    ends = [0, 1, 30, 31]
    k = 2
    for halfform in (False, True):
        T, est = asymptotics._transverse_integral(e2, z[ends], k, halfform)
        for zn, pn, t, e in zip(z[ends], p[ends], T, est):
            mb = ta.m_basis(e2, ta.isotropy(e2, zn))
            s_basis, _, _ = ta.level_tangent_basis(e2, zn)

            def integrand(ts):
                xis = np.atleast_1d(ts)[:, None] * mb[0]
                vals = ta.jacobian_tau_batch(e2, xis, zn, s_basis=s_basis)
                vals = vals * np.exp(-k * ta.potential(e2, xis, pn, from_masses=True))
                if halfform:
                    vals = vals * reference.divergence_factor(e2, xis, pn, from_masses=True)
                return vals

            oracle = adaptive_line_quadrature(integrand)
            assert abs(t - oracle) < 1e-9 * oracle
            assert e <= asymptotics.TRANSVERSE_RTOL * t


def test_transverse_rule_raises_at_its_caps(e1, st1, e2, st2, tmp_path, monkeypatch):
    """A node that needs more refinements (or widenings) than the caps allow,
    or whose integrand overflows, raises, naming the point and k; the
    command line reports exit 3."""
    lab = st2.open_stratum()
    monkeypatch.setattr(asymptotics, "MAX_HALVINGS", 1)
    with pytest.raises(asymptotics.AsymptoticsError, match=r"at the point \[.*k=4 after 1 halvings"):
        asymptotics.density_I(e2, lab, lab.representative, 4)
    assert cli.main(["run", "--preset", "E2", "--k", "2", "--only", "density", "--out", str(tmp_path / "d")]) == 3
    assert not (tmp_path / "d" / "curves.csv").exists()
    monkeypatch.setattr(asymptotics, "MAX_HALVINGS", 10)
    monkeypatch.setattr(asymptotics, "MAX_WIDENINGS", 0)
    with pytest.raises(asymptotics.AsymptoticsError, match="k=2 after 0 widenings"):
        asymptotics.density_I(e1, st1.strata[0], st1.strata[0].representative, 2)
    # on E2's extra pieces e^{-k f} grows exponentially in k and overflows
    # between k = 2100 and 3000 at the slice level pi/2: no refinement can
    # settle that, so the rule raises at once (called on the piece's slice
    # nodes directly, since the k = 3000 basis of residual_II costs seconds)
    monkeypatch.setattr(asymptotics, "MAX_WIDENINGS", 8)
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    z, _ = strata.slice_quadrature(e2, st2.pieces[full.key][0].level_slice, 24)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(asymptotics.AsymptoticsError, match="is not finite at k=3000"):
        asymptotics._transverse_integral(e2, z, 3000)


def test_transverse_grid_over_its_cap_raises(e2, st2, monkeypatch):
    """A node group whose grid would exceed MAX_GRID_POINTS raises before the
    grid is allocated, naming the point, k and the grid's size."""
    lab = st2.open_stratum()
    monkeypatch.setattr(asymptotics, "MAX_GRID_POINTS", 40)  # the first grid has 21 points, the first halving 41
    with pytest.raises(asymptotics.AsymptoticsError, match=r"at the point \[.*needs 41 grid points at k=4 .*over 40"):
        asymptotics.density_I(e2, lab, lab.representative, 4)


def test_transverse_grid_splits_an_oversized_node_group(e2, st2, monkeypatch):
    """Nodes that share a grid are evaluated in chunks that fit under
    MAX_GRID_POINTS.  E2's extra pieces are points, so the piece integral
    here is its open stratum's own (the first entry of `preimage`, on the
    right of the norm-split check), whose 48 Gauss nodes share one call:
    with the cap below the largest node group's grids but at the largest
    grid of one node, it returns the uncapped value and error."""
    dim, _, sl = st2.preimage(st2.open_stratum())[0]
    exps = sections.invariant_exponents(e2, 4, "plain")
    shapes = []  # (nodes, points per node) of each evaluated grid
    on_grid = asymptotics._on_grid

    def recording(integrand, nodes, R, h, m, grids):
        g = on_grid(integrand, nodes, R, h, m, grids)
        shapes.append((nodes.size, g[0].size))
        return g

    monkeypatch.setattr(asymptotics, "_on_grid", recording)
    ref = asymptotics._piece_integral(e2, dim, sl, exps, 4, "plain", asymptotics.DENSITY_ORDER)
    cap = max(per for _, per in shapes)
    assert cap < max(n * per for n, per in shapes)
    monkeypatch.setattr(asymptotics, "MAX_GRID_POINTS", cap)
    got = asymptotics._piece_integral(e2, dim, sl, exps, 4, "plain", asymptotics.DENSITY_ORDER)
    for a, b in zip(got, ref):
        assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b))


@pytest.fixture(scope="module")
def transverse_tau_calls(e2, st2):
    """The integrand evaluations of single `_transverse_integral` calls, recorded.

    The inputs: all 32 nodes of E2's order-32 open slice at k = 2, both
    twists (the end nodes halve h up to 7 times), and the rank-2 (CP^1)^3
    perfbench point at k = 10, 40, 100 (one of which widens R).  Each
    evaluation computes the log-flow sums once, so `actions._log_flow_sums`
    records it; its set-up call at u = 0 is skipped.  Per call, a list of
    evaluations, each an array of (log masses, u = W^T xi) rows, one row per
    (node, transverse point) pair; W has full rank, so u fixes xi.
    """
    log_flow_sums = ta._log_flow_sums
    calls = []

    def recording(model, logp, u):
        if np.ndim(u):
            lp = np.broadcast_to(logp, np.shape(u))
            calls[-1].append(np.concatenate([lp, u], axis=-1).reshape(-1, 2 * u.shape[-1]))
        return log_flow_sums(model, logp, u)

    rank2 = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]), [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]])
    lab = strata.analyze(rank2).open_stratum()
    x, _ = strata.sample_stratum(rank2, lab, 1, seed=1)
    z, ((rows, _), _) = strata.slice_quadrature(e2, strata.make_level_slice(e2, st2.open_stratum().top_pattern,
                                                                           np.zeros(1)), 32)
    runs = [(e2, z[rows], 2, False), (e2, z[rows], 2, True)] + [(rank2, x[:1], k, False) for k in (10, 40, 100)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ta, "_log_flow_sums", recording)
        for action, points, k, halfform in runs:
            calls.append([])
            asymptotics._transverse_integral(action, points, k, halfform)
    return calls


def test_transverse_rule_evaluates_each_point_once(transverse_tau_calls):
    """Nested grids: a halving of h or a doubling of R evaluates only the
    points new to a node's grid, so no (node, xi) pair is evaluated twice
    within one call."""
    for evaluations in transverse_tau_calls:
        rows = np.concatenate(evaluations)
        assert len({row.tobytes() for row in rows}) == len(rows)


def test_transverse_evaluations_stay_within_the_block(transverse_tau_calls):
    """No tau evaluation receives more than TRANSVERSE_BLOCK (node, point)
    pairs, the documented memory bound, though the rank-2 grids outgrow it."""
    sizes = [[len(rows) for rows in evaluations] for evaluations in transverse_tau_calls]
    assert max(max(call) for call in sizes) <= asymptotics.TRANSVERSE_BLOCK
    assert max(sum(call) for call in sizes) > asymptotics.TRANSVERSE_BLOCK


def test_transverse_integral_does_no_linear_algebra_per_pass(monkeypatch):
    """The integrand is one exponential whose exponent (a, b) is set up once
    per call, and tau(0, x) cancels against the whitening, so a transverse
    integral computes no determinant at all, and its SVDs are set-up work:
    at the rank-2 (CP^1)^3 perfbench point their count is the same at
    k = 10 (4 grid passes) and k = 40 (3 passes)."""
    action = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]), [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]])
    x, _ = strata.sample_stratum(action, strata.analyze(action).open_stratum(), 1, seed=1)
    calls = []

    def count(module, name):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or f(*args, **kwargs))

    for module, name in ((np.linalg, "det"), (np.linalg, "svd"), (asymptotics, "_on_grid")):
        count(module, name)
    counts = {}
    for k in (10, 40):
        calls.clear()
        asymptotics._transverse_integral(action, x, k)
        counts[k] = (calls.count("_on_grid"), calls.count("det"), calls.count("svd"))
    assert (counts[10][0], counts[40][0]) == (4, 3)
    assert counts[10][1] == counts[40][1] == 0
    assert counts[10][2] == counts[40][2]


def test_density_h_equals_g_is_one(e2, st2):
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    assert asymptotics.density_I(e2, full, full.representative, 7) == 1.0
    assert asymptotics.density_J(e2, full, full.representative, 7) == 1.0


def test_density_limits_on_e2_free_stratum(e2, st2):
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 3, seed=21)
    for x in pts:
        lim = 2.0 ** (-0.5) * ta.geometric_orbit_volume(e2, x)
        errs = [abs(asymptotics.density_I(e2, lab, x, k) - lim) / lim for k in (10, 20, 40, 100)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05


def test_density_J_limit_one_e3(e3, st3):
    lab = st3.open_stratum()
    pts, _ = strata.sample_stratum(e3, lab, 2, seed=5)
    for x in pts:
        assert abs(asymptotics.density_J(e3, lab, x, 100) - 1.0) < 0.05


def test_gaussian_sanity_of_density(e2, st2):
    # with tau frozen at tau(0) and f replaced by its quadratic the integral
    # is exactly 2^{-m/2} vol(G.x); the true k = 200 density is within 1%
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 2, seed=2)
    for x in pts:
        lim = 2.0 ** (-0.5) * ta.geometric_orbit_volume(e2, x)
        val = asymptotics.density_I(e2, lab, x, 200)
        assert abs(val - lim) < 0.01 * lim


def test_truncated_density_limits(e2, st2):
    """At one open-stratum point of E2, |I_k/vol - 2^{-1/2}| and |J_k - 1|
    shrink along k = 10, 30, 90 and end below 0.02 (the J-limit of E2)."""
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 1, seed=31)
    x = pts[0]
    vol = ta.geometric_orbit_volume(e2, x)
    i_prev = j_prev = None
    for k in (10, 30, 90):
        di = abs(asymptotics.density_I(e2, lab, x, k) / vol - 2.0 ** (-0.5))
        dj = abs(asymptotics.density_J(e2, lab, x, k) - 1.0)
        if i_prev is not None:
            assert di < i_prev and dj < j_prev
        i_prev, j_prev = di, dj
    assert i_prev < 0.02 and j_prev < 0.02


def test_residual_e2_exact_law(e2, st2):
    # both preimage pieces of the H = G label are lines; the direct integral
    # of the surviving monomial gives II_k = 2 sqrt(2 pi k)/(k+1) exactly
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    for k in (4, 10, 30, 60, 1100):
        val = asymptotics.residual_II(e2, full, k, "plain", strat=st2)
        ref = 2.0 * np.sqrt(2 * np.pi * k) / (k + 1)
        assert abs(val - ref) < 1e-9 * ref


def test_rank2_piece_residuals_match_direct_mc():
    """One level slice parametrises a rank-2 extra piece: on the six pieces
    of one (CP^1)^3 stratum at k = 2, the piece integral (k/2pi)^{dim/2}
    int_S |s_a|^2 T_k dvol(S) matches the direct Monte Carlo integral of
    |s_a|^2 over the piece's support pattern, with the same prefactor,
    within 5 standard errors."""
    action = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]),
                            [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]])
    pieces = next(ps for ps in strata.analyze(action).pieces.values() if ps)
    assert len(pieces) == 6
    k = 2
    exps = sections.invariant_exponents(action, k, "plain")
    quad = QuadConfig(method="mc", samples=100000, seed=3)
    for piece in pieces:
        res, _ = asymptotics._piece_integral(action, piece.dim_piece, piece.level_slice, exps, k, "plain", 48)
        mc, err = sections._pattern_gram_mc(action, exps, "plain", piece.pattern, quad, ("oracle", piece.pattern))
        pref = (k / (2 * np.pi)) ** (piece.dim_piece / 2.0)
        mc, err = pref * mc, pref * err
        assert np.any(res > 0)
        assert np.all(np.abs(res - mc) <= 5.0 * err)


def test_residual_zero_when_dphi_surjective(e2, st2):
    assert asymptotics.residual_II(e2, st2.open_stratum(), 8, "plain", strat=st2) == 0.0


def test_residual_decreasing(e2, st2):
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    vals = {k: asymptotics.residual_II(e2, full, k, "plain", strat=st2) for k in (10, 20, 30, 40, 50, 60)}
    for k in (10, 20, 30, 40, 50):
        assert vals[k + 10] < vals[k]
    assert all(v > 0 for v in vals.values())


def test_defect_scalar_case(e1, st1, e2, st2):
    """Both Grams are diagonal, so the defect is max_a |d_a/u_a - 1| and its
    error sqrt(sd_a^2 + lambda_a^2 su_a^2)/u_a at the worst entry a: on the
    exact E1 pair and on an MC pair at E2 k = 4."""
    mc = {"method": "mc", "samples": 20000, "seed": 1}
    for action, strat, k, up_quad, down_quad in ((e1, st1, 2, {"method": "exact"}, {"method": "grid"}),
                                                 (e2, st2, 4, mc, mc)):
        gu = sections.gram_upstairs(action, k, "plain", 2, up_quad, strat=strat)
        gd = reduction.reduced_gram(action, k, "plain", 2, down_quad, strat=strat)
        d, sigma = asymptotics.unitarity_defect(action, k, "plain", 2, grams=(gu, gd))
        u, su = np.diag(gu.matrix).real, gu.stderr
        lam, sd = np.diag(gd.matrix).real / u, gd.stderr
        a = int(np.argmax(np.abs(lam - 1.0)))
        assert abs(d - abs(lam[a] - 1.0)) < 1e-12 * max(d, 1.0)
        assert abs(sigma - np.sqrt(sd[a] ** 2 + lam[a] ** 2 * su[a] ** 2) / u[a]) <= 1e-12 * sigma


def test_defect_halfform_decreases_plain_floors(e3, st3):
    quad = {"method": "exact", "grid_order": 96}
    dh = {k: asymptotics.unitarity_defect(e3, k, "halfform", 1, quad, strat=st3)[0] for k in (10, 40)}
    assert dh[40] < dh[10] / 2.0
    dp = {k: asymptotics.unitarity_defect(e3, k, "plain", 1, quad, strat=st3)[0] for k in (10, 40)}
    assert min(dp.values()) > 0.2


def test_defect_empty_space_raises(e1):
    with pytest.raises(asymptotics.AsymptoticsError):
        asymptotics.unitarity_defect(e1, 3, "plain", 1, {"method": "exact"})


def test_norm_split_consistency_small(e1, e2, st1, st2):
    rep1 = asymptotics.norm_split_consistency(e1, 4, "plain", {"samples": 150000, "seed": 12, "method": "mc"}, strat=st1)
    assert rep1["max_nsigma"] < 3.0
    rep2 = asymptotics.norm_split_consistency(e2, 4, "plain", {"samples": 150000, "seed": 12, "method": "mc"}, strat=st2)
    assert rep2["max_nsigma"] < 3.0


def test_norm_split_budget_scaling(e2, st2):
    """The exact direct side against its Monte Carlo oracle: on every E2
    stratum at k = 4, the MC integral over the top pattern and the extra
    pieces matches the report's lhs within 4 sigma at 40k and at 160k
    samples, and 4x the budget gives 0.4-0.6x the stderr.  256 blocks keep
    the scatter of that ratio near 0.03 (32 blocks would give 0.09)."""
    k = 4
    exps = sections.invariant_exponents(e2, k, "plain")
    rep = asymptotics.norm_split_consistency(e2, k, "plain", strat=st2)
    errs = {}
    for samples in (40000, 160000):
        quad = QuadConfig(method="mc", samples=samples, seed=3, blocks=256)
        for si, lab in enumerate(st2.strata):
            terms = [(lab.dim_upstairs, lab.top_pattern)] + [(p.dim_piece, p.pattern) for p in st2.pieces[lab.key]]
            mc, var = 0.0, 0.0
            for dim, pattern in terms:
                if dim == 0:  # a point: its value, no error
                    mc = mc + sections.monomial_norms(e2.model, exps, lab.representative)[0]
                    continue
                pref = (k / (2 * np.pi)) ** (dim / 2.0)
                val, err = sections._pattern_gram_mc(e2, exps, "plain", pattern, quad, ("oracle", si, pattern))
                mc, var = mc + pref * val, var + (pref * err) ** 2
            errs[samples, si] = np.sqrt(var)
            assert np.all(np.abs(mc - np.asarray(rep["strata"][si]["lhs"])) <= 4.0 * errs[samples, si])
    for si in range(len(st2.strata)):
        sampled = errs[40000, si] > 0
        assert np.any(sampled) and np.array_equal(sampled, errs[160000, si] > 0)
        ratio = errs[160000, si][sampled] / errs[40000, si][sampled]
        assert np.all((ratio >= 0.4) & (ratio <= 0.6))


NORM_SPLIT_SWEEP = [("E1", "plain", 0), ("E1", "halfform", 1), ("E2", "plain", 0), ("E3", "plain", 0),
                    ("E3", "halfform", 0)]  # E1 has invariant half-form sections at odd k only


@pytest.mark.parametrize("name,twist,shift", NORM_SPLIT_SWEEP)
def test_norm_split_error_covers_the_discrepancy(name, twist, shift, request):
    """The stated consistency error covers |lhs - rhs| on every entry at
    k in {2, 8, 32, 128} (one more where parity needs odd k), so every
    nsigma is below 1."""
    action, strat = (request.getfixturevalue(f"{prefix}{name[1]}") for prefix in ("e", "st"))
    for k in (2 + shift, 8 + shift, 32 + shift, 128 + shift):
        rep = asymptotics.norm_split_consistency(action, k, twist, strat=strat)
        assert rep["dim"] > 0 and rep["max_nsigma"] < 1.0
        for entry in rep["strata"]:
            gap = np.abs(np.asarray(entry["lhs"]) - np.asarray(entry["rhs"]))
            assert np.all(np.asarray(entry["stderr"]) >= gap)


def test_norm_split_exact_on_e3_at_large_k(e3, st3):
    """E3's slice quadrature reaches the slice ends: every entry of lhs and
    rhs agrees to 1e-10 relative at k = 16..128, both twists (Gauss nodes
    stopping 1e-6 of the segment short of its ends left up to 6.6e-5)."""
    for twist in ("plain", "halfform"):
        for k in (16, 32, 64, 128):
            for entry in asymptotics.norm_split_consistency(e3, k, twist, strat=st3)["strata"]:
                lhs, rhs = np.asarray(entry["lhs"]), np.asarray(entry["rhs"])
                assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.abs(lhs))


def test_norm_split_consistency_draws_no_samples(e1, st1, e2, st2, e3, st3, monkeypatch):
    """Both sides of the check are deterministic: it never samples a pattern
    and never asks for a random generator."""
    import quantred

    def refuse(*args, **kwargs):
        raise AssertionError("norm_split_consistency sampled")

    monkeypatch.setattr(sections, "_pattern_gram_mc", refuse)
    for module in vars(quantred).values():
        if hasattr(module, "rng_for"):
            monkeypatch.setattr(module, "rng_for", refuse)
    for action, strat, twist, k in ((e1, st1, "plain", 4), (e2, st2, "plain", 4), (e3, st3, "halfform", 4)):
        assert asymptotics.norm_split_consistency(action, k, twist, strat=strat)["max_nsigma"] < 1.0


def test_density_I_matches_fd_oracle(e2, st2):
    """density_I = vol (k/2pi)^{1/2} int tau e^{-k f} dxi with the
    finite-difference tau under adaptive_line_quadrature."""
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 1, seed=71)
    x = pts[0]
    k = 24
    mb = ta.m_basis(e2, ta.isotropy(e2, x))
    s_basis, _, _ = ta.level_tangent_basis(e2, x)
    p = models.masses(e2.model, x)

    def integrand(ts):
        xis = np.atleast_1d(ts)[:, None] * mb[0]
        return ta.jacobian_tau_batch(e2, xis, x, s_basis=s_basis) * np.exp(-k * ta.potential(e2, xis, p, from_masses=True))

    oracle = ta.geometric_orbit_volume(e2, x) * (k / (2 * np.pi)) ** 0.5 * adaptive_line_quadrature(integrand)
    assert abs(asymptotics.density_I(e2, lab, x, k) - oracle) < 1e-8 * oracle


def test_pushdown_degeneration_limit():
    """Stratified degeneration toward a lower stratum, at the data level.

    On the unshifted product of two lines (metaplectic, two H = G points)
    the descended plain values vary continuously into the lower stratum
    while the half-form direction factor 2^{-m/2} vol(G.x) collapses: the
    push-down form loses its orbit directions there.
    """
    from quantred import reduction, sections

    m = models.make_model([1, 1], [1, 1])
    a = ta.make_action(m, [[1, 0, -1, 0]])
    s = reference.invariant_basis(a, 4, "plain")[0]  # the monomial surviving at mu = 0
    z_lim = models.normalize(m, np.array([0, 1.0, 0, 1.0], dtype=complex))
    target = reference.pointwise_norm(s, z_lim)
    vals, facs = [], []
    for mu in (0.1, 0.01, 0.001):
        z = models.normalize(m, np.array(
            [np.sqrt(mu), np.sqrt(1 - mu), np.sqrt(mu), np.sqrt(1 - mu)], dtype=complex))
        vals.append(reference.pointwise_norm(s, z))
        facs.append(reduction.descent_norm_factor(a, z))
    errs = [abs(v - target) for v in vals]
    assert errs[0] > errs[1] > errs[2] and errs[2] < 0.05 * target
    assert facs[0] > facs[1] > facs[2] > 0 and facs[2] < 0.15 * facs[0]


def test_density_curve_fit(e2, st2):
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 1, seed=61)
    x = pts[0]
    curve = asymptotics.DensityCurve(quantity="I", stratum="open")
    for k in (10, 20, 40, 80):
        curve.points.append((k, asymptotics.density_I(e2, lab, x, k), 0.0))
    lim = 2.0 ** (-0.5) * ta.geometric_orbit_volume(e2, x)
    C, p, r2 = curve.fit(limit=lim)
    assert p > 0.8 and r2 > 0.99


def test_adaptive_line_quadrature_raises_at_either_cap():
    """Neither loop returns its capped sum: a constant never decays within
    the 12-doubling scan, and a Cauchy tail 1/(1e-12 + x^2), which passes
    the scan, needs about 20 outer panels per side, not 3."""
    with pytest.raises(IntegrationError, match="scan"):
        adaptive_line_quadrature(lambda x: np.ones_like(x))
    cauchy = lambda x: 1.0 / (1e-12 + x**2)  # noqa: E731
    with pytest.raises(IntegrationError, match="max_pan=3"):
        adaptive_line_quadrature(cauchy, max_pan=3)
    assert np.isfinite(adaptive_line_quadrature(cauchy))


# shift 0 and 0 on the boundary of phi(M): the whole space is an extra piece; on the last two the
# H = G stratum is a fixed line (a q = 1 zero-level slice)
BOUNDARY_MODELS = {"CP1 (1,0)": ([1], [[1, 0]]), "CP2 (1,0,0)": ([2], [[1, 0, 0]]),
                   "CP1xCP1 (1,0,0,0)": ([1, 1], [[1, 0, 0, 0]])}


@pytest.mark.parametrize("name", ["E1", "E2", "E3", *BOUNDARY_MODELS])
def test_definition_2_sums_the_preimage_pieces(name, request):
    """Definition (2) upstairs integrates over every piece of
    `Stratification.preimage` once: at k in {1, 2, 4, 8} (where the lift is
    integral and the invariant space is not empty) its diagonal equals the
    sum over strata of the norm-split lhs to 1e-14 relative, and the check's
    max_nsigma is below 1."""
    if name in BOUNDARY_MODELS:
        factors, weights = BOUNDARY_MODELS[name]
        action = ta.make_action(models.make_model(factors, [1] * len(factors)), weights)
        strat = strata.analyze(action)
    else:
        action, strat = (request.getfixturevalue(f"{prefix}{name[1]}") for prefix in ("e", "st"))
    checked = 0
    for k in (1, 2, 4, 8):
        if not action.lift_integral(k) or sections.invariant_exponents(action, k).shape[0] == 0:
            continue
        checked += 1
        up = sections.gram_upstairs(action, k, "plain", 2, strat=strat).diagonal
        rep = asymptotics.norm_split_consistency(action, k, "plain", strat=strat)
        lhs = sum(np.asarray(entry["lhs"]) for entry in rep["strata"])
        assert np.all(np.abs(up - lhs) <= 1e-14 * np.abs(lhs))
        assert rep["max_nsigma"] < 1.0
    assert checked >= 3


@pytest.mark.parametrize("degrees", [(1, 1), (2, 3)])
def test_cp1_cp2_point_strata_split_per_stratum(degrees):
    """On CP^1 x CP^2 with weights [1, 0, -1, 0, 1], each stratum whose
    preimage slices are points or segments (all but the open one, q = 2)
    satisfies the norm split on its own: the Dirichlet lhs against the
    summed piece integrals, nsigma < 1 at k = 2 and 4."""
    action = ta.make_action(models.make_model([1, 2], list(degrees)), [[1, 0, -1, 0, 1]])
    strat = strata.analyze(action)
    for k in (2, 4):
        exps = sections.invariant_exponents(action, k)
        checked = []
        for lab in strat.strata:
            pieces = strat.preimage(lab)
            if any(sl.q > 1 for _, _, sl in pieces):
                continue
            lhs = sum((k / (2 * np.pi)) ** (d / 2.0) * sections._gram_exact_on_pattern(action, exps, "plain", pat)[0]
                      for d, pat, _ in pieces)
            rhs, err = np.zeros(exps.shape[0]), asymptotics.CONSISTENCY_FLOOR * np.max(np.abs(lhs))
            for i, (d, _, sl) in enumerate(pieces):
                order = asymptotics.DENSITY_ORDER if i == 0 else 48
                value, error = asymptotics._piece_integral(action, d, sl, exps, k, "plain", order)
                rhs, err = rhs + value, err + error
            assert np.all(np.abs(lhs - rhs) < np.maximum(err, 1e-300))
            checked.append(np.any(lhs > 0))
        assert len(checked) == 3 and any(checked)
