import numpy as np
import pytest

from quantred import actions as ta
from quantred import models, reduction, sections, strata
from quantred.reduction import ReductionError

import reference


def test_descent_pointwise_identity(e2, st2, rng):
    s = reference.invariant_basis(e2, 4)[1]
    rs = reference.descend(e2, s)
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 8, seed=3)
    for z in pts:
        up = reference.pointwise_norm(s, z)
        down = rs.norm_squared_at(e2, z)
        assert down == up  # plain descent is the same arithmetic


def test_descend_rejects_noninvariant(e2):
    s = reference.SectionPoly(e2.model, 4, "plain", {(4, 0, 0): 1.0})
    with pytest.raises(ReductionError):
        reference.descend(e2, s)


def test_zero_section_descends_to_zero(e1):
    s = reference.SectionPoly(e1.model, 2, "plain", {(1, 1): 0.0})
    rs = reference.descend(e1, s)
    z = models.normalize(e1.model, np.array([1, 1], dtype=complex))
    assert rs.norm_squared_at(e1, z) == 0.0


def test_descent_injective_on_basis(e2, st2):
    # distinct invariant monomials stay independent downstairs: the reduced
    # Gram at small k has full rank
    g = reduction.reduced_gram(e2, 6, "plain", 2, {"method": "grid"}, strat=st2)
    assert g.dim == 4
    assert np.linalg.matrix_rank(g.matrix, tol=1e-10) == g.dim


def test_descent_norm_factor_h_equals_g(e2):
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    assert reduction.descent_norm_factor(e2, z) == 1.0


def test_descent_factor_vs_contraction_oracle_free_stratum(e2, st2):
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 10, seed=11)
    for z in pts:
        vol = ta.orbit_volume(e2, z)
        expect = 2.0 ** (-0.5) * vol  # free stratum: gamma = 1
        oracle = reference.contraction_factor(e2, z)
        assert abs(oracle - expect) < 1e-3 * expect
        assert abs(reduction.descent_norm_factor(e2, z) - expect) < 1e-12 * expect


def test_contraction_oracle_on_finite_stabilizer_orbit(e1):
    # the contraction reproduces the Gram volume; the descent factor divides
    # by the finite part (pinned by the E1 norm identities)
    z = models.normalize(e1.model, np.array([1.0, 1.0], dtype=complex))
    vol = ta.orbit_volume(e1, z)
    oracle = reference.contraction_factor(e1, z)
    assert abs(oracle - 2.0 ** (-0.5) * vol) < 1e-6 * vol
    assert abs(reduction.descent_norm_factor(e1, z) - 2.0 ** (-0.5) * vol / 2.0) < 1e-12 * vol


def test_lem2_contraction_identity_value(e2, st2):
    # i(Z) i(Zbar) eps| = 2^{-m} vol^2 omega^{d_S}/d_S! within 1e-3 relative
    lab = st2.open_stratum()
    pts, _ = strata.sample_stratum(e2, lab, 5, seed=23)
    for z in pts:
        vol = ta.orbit_volume(e2, z)
        ratio = reference.contraction_factor(e2, z) ** 2
        assert abs(ratio - 0.5 * vol**2) < 1e-3 * 0.5 * vol**2


def test_reduced_gram_e1_frozen_values(e1, st1):
    # M0 is a single orbifold point: the reduced Gram is the point value
    g = reduction.reduced_gram(e1, 2, "plain", 2, {"method": "grid"}, strat=st1)
    assert abs(g.matrix[0, 0].real - 0.25) < 1e-12
    gh = reduction.reduced_gram(e1, 3, "halfform", 2, {"method": "grid"}, strat=st1)
    assert abs(gh.matrix[0, 0].real - np.pi / 4.0) < 1e-10


def test_reduced_gram_def2_dominates_def1_diag(e2, st2):
    g1 = reduction.reduced_gram(e2, 4, "plain", 1, {"method": "grid"}, strat=st2)
    g2 = reduction.reduced_gram(e2, 4, "plain", 2, {"method": "grid"}, strat=st2)
    assert np.all(np.diag(g2.matrix).real >= np.diag(g1.matrix).real - 1e-12)


def test_reduced_gram_mc_matches_grid(e2, st2):
    gg = reduction.reduced_gram(e2, 4, "plain", 2, {"method": "grid"}, strat=st2)
    gm = reduction.reduced_gram(e2, 4, "plain", 2, {"method": "mc", "samples": 60000, "seed": 2}, strat=st2)
    diff = np.abs(gm.matrix - gg.matrix)
    assert np.all(diff < 3.5 * np.maximum(np.diag(gm.stderr), 1e-9))


def test_reduced_gram_representative_independent(e2, st2):
    a = reduction.reduced_gram(e2, 4, "plain", 1, {"method": "mc", "samples": 40000, "seed": 5}, strat=st2)
    b = reduction.reduced_gram(e2, 4, "plain", 1, {"method": "mc", "samples": 40000, "seed": 99}, strat=st2)
    diff = np.abs(a.matrix - b.matrix)
    assert np.all(diff < 3.5 * np.diag(np.sqrt(a.stderr**2 + b.stderr**2)) + 1e-10)


def test_open_stratum_quadrature_matches_quotient_chart_oracle(e2, st2):
    """Direct reduced-space quadrature for the E2 open stratum.

    The quotient is parametrized by the support coordinate t = p2 with
    masses ((1-t)/2, (1-t)/2, t); the reduced measure of [t, t+dt] equals
    the ambient measure of the corresponding moment slab divided by the
    orbit volume, which integrates the descended |s|^2 exactly like the
    stratum Gram's open-stratum block.
    """
    k = 4
    exps = sections.invariant_exponents(e2, k, "plain")
    (got, _), = reduction.stratum_gram(e2, st2.open_stratum(), [exps], [k], "plain", {"method": "grid"})
    # oracle: theta-exact Dirichlet-style integral in the (t, theta') chart;
    # eps_hat = (reduced symplectic measure) with total mass pi
    from quantred.integrate import gauss_segment

    nodes, wts = gauss_segment(1e-9, 1.0 - 1e-9, 200)
    diag = np.zeros(exps.shape[0])
    for t, w in zip(nodes, wts):
        p = np.array([(1 - t) / 2.0, (1 - t) / 2.0, t])
        vals = np.prod(p[None, :] ** exps, axis=1)
        diag += w * np.pi * vals  # d(eps_hat) = pi dt x (dtheta'/2pi)
    assert np.allclose(got, diag, rtol=2e-3)


def test_production_paths_use_closed_forms(e2, st2, e3, st3, monkeypatch):
    """The FD slice Jacobian, the chart half-form factor, the Kirwan flow, the
    FD coarea Jacobian with its level tangent basis, and the adaptive line
    quadrature are test oracles: the stratification, reduced
    Grams, densities, the norm-split check and the residuals never call
    them."""
    from quantred import asymptotics, integrate

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(strata, "slice_embedding_jacobian", counted(strata.slice_embedding_jacobian))
    monkeypatch.setattr(sections, "halfform_factor", counted(sections.halfform_factor))
    monkeypatch.setattr(strata, "kirwan_flow", counted(strata.kirwan_flow))
    monkeypatch.setattr(ta, "jacobian_tau_batch", counted(ta.jacobian_tau_batch))
    monkeypatch.setattr(ta, "level_tangent_basis", counted(ta.level_tangent_basis))
    for module in (integrate, asymptotics):
        if hasattr(module, "adaptive_line_quadrature"):
            monkeypatch.setattr(module, "adaptive_line_quadrature", counted(module.adaptive_line_quadrature))
    rank2 = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]), [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]])
    for action in (e2, rank2):
        strata.analyze(action)
    for action, strat, densities in ((e2, st2, (asymptotics.density_I,)),
                                     (e3, st3, (asymptotics.density_I, asymptotics.density_J)),
                                     (rank2, strata.analyze(rank2), (asymptotics.density_I,))):
        lab = strat.open_stratum()
        pts, _ = strata.sample_stratum(action, lab, 1, seed=1)
        for density in densities:
            density(action, lab, pts[0], 10)
    mc = {"method": "mc", "samples": 4000, "seed": 1}
    for action, strat, twist in ((e2, st2, "plain"), (e3, st3, "halfform")):
        for quad in ({"method": "grid"}, mc):
            reduction.reduced_gram(action, 4, twist, 2, quad, strat=strat)
        asymptotics.norm_split_consistency(action, 4, twist, mc, strat=strat)
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    asymptotics.residual_II(e2, full, 10, "plain", strat=st2)
    assert calls == []


def test_boundedness_probe_finds_k0(e3):
    assert sections.invariant_exponents(e3, 6, "halfform").shape[0] == 3
    k0 = reference.boundedness_probe(e3, samples=10, seed=4, k_grid=(1, 2, 4, 8, 16, 32, 64))
    assert k0 is not None and k0 <= 64


def test_dim_match_up_down(e3, st3):
    # descent is basis-preserving: both Grams live on the invariant monomials
    for k in (2, 4, 8):
        up = sections.gram_upstairs(e3, k, "halfform", 1)
        down = reduction.reduced_gram(e3, k, "halfform", 1, {"method": "grid"}, strat=st3)
        assert up.dim == down.dim == sections.invariant_exponents(e3, k, "halfform").shape[0]
        assert up.basis_ids == down.basis_ids


def test_mc_grams_are_diagonal_without_false_flags(e2, st2, e3, st3):
    """The Monte Carlo route estimates the diagonal only, and the upstairs
    Gram it is paired with is exact: off-diagonal entries and their errors
    are exactly 0, so sampling noise there cannot raise the 20% error flag
    (the diagonal errors are a few percent at this budget)."""
    mc = {"method": "mc", "samples": 20000, "seed": 1}
    for action, strat, k, twist, norm_defs in ((e2, st2, 4, "plain", (1, 2)), (e3, st3, 8, "halfform", (1,))):
        for nd in norm_defs:
            for g in (sections.gram_upstairs(action, k, twist, nd, strat=strat),
                      reduction.reduced_gram(action, k, twist, nd, mc, strat=strat)):
                off = ~np.eye(g.dim, dtype=bool)
                assert g.dim >= 3
                assert np.all(g.matrix[off] == 0) and g.stderr.shape == g.diagonal.shape
                assert "entry_error_over_20_percent" not in g.flags


def test_mc_gram_memory_does_not_grow_with_the_k_list(e2, st2, e3, st3):
    """Each k's rows are evaluated on their own: upstairs the moment table
    keeps one diagonal per (k, pattern), and the Monte Carlo route weighs one
    k's monomials at a time, stratum by stratum, so the tracemalloc peak of
    both Grams over k = 2, 4, ..., 16 stays within 1.25x of the peak for
    k = 16 alone (stacking every k's samples-by-monomials rows would multiply
    it): E2 under norm definition 2 and E3 half-form."""
    import tracemalloc

    quad = {"method": "mc", "samples": 20000, "seed": 3}
    for action, strat, twist, nd in ((e2, st2, "plain", 2), (e3, st3, "halfform", 1)):
        peaks = []
        for ks in ([16], list(range(2, 17, 2))):
            exps = [sections.invariant_exponents(action, k, twist) for k in ks]
            tracemalloc.start()
            try:
                sections.grams_upstairs(action, ks, twist, (nd,), strat=strat, exps=exps)
                reduction.reduced_grams(action, ks, twist, (nd,), quad, strat, exps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


def test_reduced_mc_diagonal_within_its_error_over_seeds(e3, st3):
    """The reduced MC Gram diagonal against the grid route over 20 fixed
    seeds: E3 half-form at k = 2 and 4, one draw per seed for both k, 20000
    samples in 32 blocks.  Every z = (mc - grid) / stderr lies within 5, and
    the mean z^2 in [0.5, 2]."""
    grid = reduction.reduced_grams(e3, [2, 4], "halfform", (1,), {"method": "grid", "grid_order": 128}, st3)[1]
    zs = []
    for seed in range(20):
        quad = {"method": "mc", "samples": 20000, "blocks": 32, "seed": seed}
        for mc, ref in zip(reduction.reduced_grams(e3, [2, 4], "halfform", (1,), quad, st3)[1], grid):
            assert np.all(mc.stderr > 0) and np.all(ref.stderr < 1e-6 * mc.stderr)
            zs.extend((mc.diagonal - ref.diagonal) / mc.stderr)
    zs = np.asarray(zs)
    assert np.max(np.abs(zs)) < 5
    assert 0.5 <= np.mean(zs**2) <= 2
