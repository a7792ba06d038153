import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from quantred import actions as ta
from quantred import models, strata
from quantred.integrate import gauss_segment
from quantred.models import TWO_PI

import reference

RANK2_WEIGHTS = [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]]
# (factors, degrees, weights, shift): E1-E3 and the other models the docs and tests name
NAMED_MODELS = {
    "E1": ([1], [1], [[1, -1]], None),
    "E2": ([2], [1], [[1, -1, 0]], None),
    "E3": ([1, 1], [1, 1], [[1, 0, -1, 0]], ["1/2"]),
    "CP1xCP2": ([1, 2], [1, 1], [[1, 0, -1, 0, 1]], None),
    "CP1xCP2 l=(2,3)": ([1, 2], [2, 3], [[1, 0, -1, 0, 1]], None),
    "(CP1)^3": ([1, 1, 1], [1, 1, 1], RANK2_WEIGHTS, None),
    "CP2xCP2 a": ([2, 2], [1, 1], [[-1, 0, 2, -1, 0, 0]], None),
    "CP2xCP2 b": ([2, 2], [1, 1], [[2, 2, 1, -1, 0, 0]], None),
    "CP2xCP2 rank 2": ([2, 2], [1, 1], [[-1, -2, 1, 1, 1, -2], [-2, 0, -1, 0, 2, -1]], None),
    "CP2xCP1 rank 2": ([2, 1], [1, 1], [[2, 1, -1, 0, 0], [-2, -2, 1, 0, -1]], None),
}


def cp1_cp2(degrees):
    """CP^1 x CP^2 under weights (1, 0; -1, 0, 1): its open stratum has q = 2."""
    return ta.make_action(models.make_model([1, 2], degrees), [[1, 0, -1, 0, 1]])


@pytest.fixture(scope="module")
def r2():
    action = ta.make_action(models.make_model([1, 1, 1], [1, 1, 1]), RANK2_WEIGHTS)
    return action, strata.analyze(action)


@pytest.fixture(scope="module")
def cp_open():
    action = cp1_cp2([1, 1])
    return action, strata.analyze(action).open_stratum()


def ray_limit_oracle(action, z, tol=1e-13):
    """Closed-form limit for rank-1 actions: bisect phi(e^{i xi} x) = 0.

    phi_1(e^{i xi} x) is nondecreasing in xi, so the flow limit is the unique
    root when one exists; divergence of the bracket means unsemistable.
    """
    def val(xi):
        return float(ta.moment_map(action, ta.imaginary_flow(action, np.array([1.0]), xi, z))[0])

    lo, hi = -1.0, 1.0
    for _ in range(60):
        if val(lo) < 0:
            break
        lo *= 2.0
        if lo < -1e4:
            return None
    for _ in range(60):
        if val(hi) > 0:
            break
        hi *= 2.0
        if hi > 1e4:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if val(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return ta.imaginary_flow(action, np.array([1.0]), 0.5 * (lo + hi), z)


def test_enumerate_strata_e1(e1):
    labs = reference.enumerate_strata(e1, sampler={"samples": 16, "seed": 2})
    assert len(labs) == 1
    lab = labs[0]
    assert lab.isotropy.dim == 0 and lab.isotropy.finite_part == 2
    assert lab.dim_S == 0 and lab.dim_upstairs == 1


def test_enumerate_strata_e2(e2, st2):
    kinds = sorted((s.isotropy.is_full, s.isotropy.dim, s.isotropy.finite_part, s.dim_S) for s in st2.strata)
    assert kinds == [(False, 0, 1, 1), (False, 0, 2, 0), (True, 1, 1, 0)]
    for s in st2.strata:
        assert s.dim_upstairs == s.dim_S + (e2.rank - s.isotropy.dim)


def test_enumerate_strata_e3_merges_boundary_patterns(st3):
    assert len(st3.strata) == 1
    lab = st3.strata[0]
    assert lab.dim_S == 1 and lab.isotropy.finite_part == 1
    assert len(lab.patterns) == 3
    assert sum(len(v) for v in st3.pieces.values()) == 0


def test_empty_zero_level_errors():
    m = models.make_model([1], [1])
    bad = ta.make_action(m, [[1, -1]], shift=[5])  # 0 outside the moment image
    with pytest.raises(strata.StrataError):
        strata.analyze(bad)


def test_flow_critical_point_is_fixed(e1):
    z = models.normalize(e1.model, np.array([1.0, 1.0j], dtype=complex))
    res = strata.kirwan_flow(e1, z, tol=1e-12)
    assert res.steps == 0 and res.converged


def test_flow_single_ray_example(e2):
    z = models.normalize(e2.model, np.array([1.0, 0.0, 1.0], dtype=complex))
    res = strata.kirwan_flow(e2, z, tol=1e-20, max_steps=40000)
    assert res.converged
    assert reference.projective_distance(e2.model, res.limit, np.array([0, 0, 1.0], dtype=complex)) < 1e-5
    assert reference.is_semistable(e2, z) == "semistable_strict"


def test_flow_against_ray_oracle(e2, rng):
    pts = reference.random_points(e2.model, 25, rng)
    for z in pts:
        res = strata.kirwan_flow(e2, z, tol=1e-24, max_steps=60000)
        ref = ray_limit_oracle(e2, z)
        assert res.converged and ref is not None
        assert reference.projective_distance(e2.model, res.limit, ref) < 1e-6
        assert res.monotone


def test_unsemistable_classification(e1, e2):
    assert reference.is_semistable(e1, np.array([1.0, 0.0], dtype=complex)) == "unsemistable"
    assert reference.is_semistable(e2, np.array([1.0, 0.0, 0.0], dtype=complex)) == "unsemistable"
    z = reference.random_points(e2.model, 1, np.random.default_rng(3))[0]
    assert reference.is_semistable(e2, z) == "stable"


def test_flow_retraction(e2, rng):
    z = reference.random_points(e2.model, 1, rng)[0]
    res = strata.kirwan_flow(e2, z, tol=1e-20, max_steps=40000)
    again = strata.kirwan_flow(e2, res.limit, tol=1e-18)
    assert again.steps == 0


def test_sampled_limits_land_in_strata(e2, monkeypatch):
    # raises internally if a flow limit misses every enumerated stratum
    reference.enumerate_strata(e2, sampler={"samples": 24, "seed": 8})
    # a flow that ran out of steps checked nothing, so it is not skipped
    stalled = lambda action, z, **kw: strata.FlowResult(limit=z, steps=40000, residual=1e-3, status="inconclusive")
    monkeypatch.setattr(strata, "kirwan_flow", stalled)
    with pytest.raises(strata.StrataError, match="24 of 24"):
        reference.enumerate_strata(e2, sampler={"samples": 24, "seed": 8})


def test_piece_parents_are_flow_limits(e2, st2, r2):
    """A piece hangs off the stratum of the largest carrier pattern inside
    it: the Kirwan flow of a phase-randomised point of each piece's slice
    converges, and the support of its limit is one of the parent's patterns."""
    envs = [(e2, st2), r2]
    for degrees in ([1, 1], [2, 3]):
        action = cp1_cp2(degrees)
        envs.append((action, strata.analyze(action)))
    rng = np.random.default_rng(977)
    flowed = 0
    for action, st in envs:
        for key, pieces in st.pieces.items():
            parent, = [s for s in st.strata if s.key == key]
            for piece in pieces:
                sl = piece.level_slice
                theta = np.zeros(action.model.ncoords)
                theta[list(sl.theta_idx)] = rng.uniform(0, TWO_PI, size=sl.n_theta)
                z = models.normalize(action.model, sl.point(theta=theta))
                res = strata.kirwan_flow(action, z, tol=1e-18, max_steps=40000)
                assert res.converged
                assert tuple(ta.support_of(action.model, res.limit, tol=1e-6)) in parent.patterns
                flowed += 1
    assert flowed == 26


def test_rank2_pieces_attach_where_the_flow_stalls():
    """CP^2 x CP^1 under T^2 weights [[2,1,-1,0,0],[-2,-2,1,0,-1]]: near its
    rank-2 polystable limits |phi|^2 decays only algebraically, so a flow to
    1e-18 runs out of steps; the parent pick needs no flow."""
    action = ta.make_action(models.make_model([2, 1], [1, 1]), [[2, 1, -1, 0, 0], [-2, -2, 1, 0, -1]])
    st = strata.analyze(action)
    assert len(st.strata) == 1
    lab = st.strata[0]
    assert lab.top_pattern == ((0, 2), (3,))
    pats = sorted(p.pattern for p in st.pieces[lab.key])
    assert pats == [((0, 1, 2), (3,)), ((0, 1, 2), (3, 4)), ((0, 2), (3, 4))]


def test_decompose_preimage_e2(e2, st2):
    assert st2.pieces[st2.open_stratum().key] == []
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    pieces = st2.pieces[full.key]
    assert len(pieces) == 2
    pats = sorted(p.pattern for p in pieces)
    assert pats == [((0, 2),), ((1, 2),)]
    for p in pieces:
        assert p.dim_piece == 1
        assert p.isotropy_prime.dim == 0
        assert p.isotropy_prime.dim < full.isotropy.dim
        # phi stays away from zero on the piece slice
        assert np.linalg.norm(p.level_slice.value) > 1e-6


def test_extra_piece_levels_bounded_away(e2, st2):
    full = [s for s in st2.strata if s.isotropy.is_full][0]
    for piece in st2.pieces[full.key]:
        pts, _ = strata.sample_stratum(e2, piece, 10, seed=1)
        phis = np.linalg.norm(ta.moment_map(e2, pts), axis=-1)
        assert np.min(phis) > 1e-3


def test_sample_stratum_point_mass(e1, st1):
    pts, wts = strata.sample_stratum(e1, st1.strata[0], 40, seed=4)
    assert abs(np.sum(wts) - 1.0) < 1e-9  # zero-dimensional quotient convention
    phis = np.linalg.norm(ta.moment_map(e1, pts), axis=-1)
    assert np.max(phis) < 1e-9


def test_sample_stratum_reduced_volume_dh_oracle(e2, st2, rng):
    """Weighted stratum mass against a coarea kernel estimate of vol(S).

    The kernel route integrates 1{|phi| < h} J_phi / vol(G.x) over M with a
    finite-difference Jacobian, independent of the slice parametrization.
    """
    lab = st2.open_stratum()
    pts, wts = strata.sample_stratum(e2, lab, 3000, seed=6)
    direct = float(np.sum(wts))
    n = 200000
    zz = reference.random_points(e2.model, n, rng)
    phis = ta.moment_map(e2, zz)[:, 0]
    h = 0.35
    mask = np.abs(phis) < h
    # J_phi and orbit volume by finite differences of the moment map along a
    # B-orthonormal chart frame would be costly per point; the identity
    # J_phi = vol_Gram makes the ratio gamma = 1 on the free part, checked
    # on a small subsample below
    sub = rng.choice(np.flatnonzero(mask), size=40, replace=False)
    for idx in sub:
        z = zz[idx]
        charts = models.chart_indices(e2.model, z)
        w0 = models.to_chart(e2.model, z, charts)
        g = models.chart_metric(e2.model, w0)
        raw = np.vstack([np.eye(2, dtype=complex), 1j * np.eye(2, dtype=complex)])
        G = np.array([[models.metric_pairing(g, a, b) for b in raw] for a in raw])
        frame = np.linalg.solve(np.linalg.cholesky(G), raw)
        fd = []
        for e in frame:
            zp = models.from_chart(e2.model, w0 + 1e-6 * e, charts)
            zm = models.from_chart(e2.model, w0 - 1e-6 * e, charts)
            fd.append(float((ta.moment_map(e2, zp) - ta.moment_map(e2, zm))[0]) / 2e-6)
        j_phi = float(np.linalg.norm(fd))
        vol = ta.orbit_volume(e2, z)
        assert abs(j_phi - vol) < 1e-4 * vol
    vol_m = reference.liouville_volume_exact(e2.model)
    vals = np.where(mask, 1.0, 0.0)
    kernel = vol_m * float(np.mean(vals)) / (2 * h)
    err = vol_m * float(np.std(vals, ddof=1) / np.sqrt(n)) / (2 * h)
    assert abs(direct - kernel) < 3.0 * err + 0.02 * direct


def test_slice_level_choice_immaterial(e2, st2, r2):
    """Lemma-level invariance: two levels in the relative interior of a
    piece's moment image give the same piece integral (tested through the
    transverse tau e^{-kf} machinery), on E2's q = 1 piece and on four
    rank-2 (CP^1)^3 pieces, three of dimension 1 and one of dimension 2."""
    from quantred import sections

    full = [s for s in st2.strata if s.isotropy.is_full][0]
    cases = [(e2, st2.pieces[full.key][0], 6, 0.4, 1e-7)]
    action, st = r2
    for piece in next(ps for ps in st.pieces.values() if ps):
        if piece.dim_piece == 1 or piece.pattern == ((0, 1), (2, 3), (4,)):
            cases.append((action, piece, 2, 0.6, 1e-10))
    assert len(cases) == 5
    for action, piece, k, scale, rtol in cases:
        exps = sections.invariant_exponents(action, k, "plain")
        (base, _), = reference.piece_integral(action, piece.dim_piece, piece.level_slice, [exps], [k], "plain", 48)
        other = strata.make_level_slice(action, piece.pattern, scale * piece.level_slice.value)
        (alt, _), = reference.piece_integral(action, piece.dim_piece, other, [exps], [k], "plain", 48)
        assert np.any(base > 0)
        assert np.allclose(base, alt, rtol=rtol, atol=1e-12)


def test_stratification_report_json(e2, st2):
    data = st2.to_json_dict()
    assert len(data["strata"]) == 3
    assert "extra_pieces" in data and "unsemistable_patterns" in data


def test_slice_rules_integrate_mass_powers(e1, st1, e2, st2, r2):
    """On a segment both rules of `slice_quadrature`, of orders n and
    max(8, n // 2), integrate p_i^a against the reduced measure C dt exactly
    for a <= 2 (their order) - 1, with p_i = p0_i + t v_i along the segment.
    A point slice is one node with weight C in both rules, so the grid
    route states an error of exactly 0 there."""
    from quantred import reduction

    for action, st in ((e2, st2), r2):
        lab = st.open_stratum()
        sl = lab.level_slice
        C = strata.slice_constant(action, sl, lab.isotropy)
        p0, v = sl.p0, sl.basis[0]
        assert sl.q == 1 and np.all(np.abs(v) > 0.1)
        ends = strata._segment(p0, v)
        for order in (1, 8, 96):
            z, rules = strata.slice_quadrature(action, sl, order)
            for n, (rows, w) in zip((order, max(8, order // 2)), rules):
                p = models.masses(action.model, z[rows])
                assert p.shape[0] == w.size == n
                for a in range(2 * n):
                    exact = C * np.diff([(p0 + t * v) ** (a + 1) for t in ends], axis=0)[0] / ((a + 1) * v)
                    # p^a has condition number a, so past a ~ 28 rounding alone exceeds 1e-13
                    # (numpy's order-96 Gauss-Legendre rule gives x^190 on [-1, 1] to 3.8e-13)
                    rtol = max(1e-13, 16 * a * np.finfo(float).eps)
                    assert np.allclose(w @ p**a, exact, rtol=rtol, atol=0), (order, n, a)
    sl = st1.strata[0].level_slice
    assert sl.q == 0
    z, ((rows, w), (erows, ew)) = strata.slice_quadrature(e1, sl, 8)
    C = strata.slice_constant(e1, sl, st1.strata[0].isotropy)
    assert z.shape[0] == 1 and rows == erows and list(w) == list(ew) == [C]
    assert np.all(reduction.reduced_gram(e1, 2).stderr == 0.0)
    gram = reduction.reduced_gram(e2, 4, quad={"grid_order": 1})
    assert np.all(np.isfinite(gram.diagonal)) and np.all(gram.stderr > 0)


def test_slice_constant_matches_fd_jacobian(e2, st2, e3, st3, r2, cp_open):
    """Duistermaat-Heckman: J (2pi)^{n_theta} |Gamma| / vol(G.x) from the
    finite-difference slice Jacobian is the closed-form constant C at every
    test point; on a piece slice J (2pi)^{n_theta} is C vol(G.x) / |Gamma|.
    The q = 1 slices are checked at Gauss nodes, the q = 2 open slice of
    CP^1 x CP^2 at its centroid and halfway to each polygon vertex."""
    cp = cp1_cp2([2, 3])
    st_cp = strata.analyze(cp)
    piece = [p for ps in st_cp.pieces.values() for p in ps if p.pattern == ((0, 1), (3, 4))][0]
    zero_slice = lambda action, pattern: strata.make_level_slice(action, pattern, np.zeros(action.rank))
    cases = [
        (e2, zero_slice(e2, st2.open_stratum().top_pattern), True),
        (e3, zero_slice(e3, st3.open_stratum().top_pattern), True),
        (r2[0], zero_slice(r2[0], r2[1].open_stratum().top_pattern), True),
        (cp, piece.level_slice, False),
        (cp_open[0], zero_slice(cp_open[0], cp_open[1].top_pattern), True),
    ]
    consts = []
    for action, sl, quotient in cases:
        if sl.q == 1:
            points = gauss_segment(sl.box[0][0], sl.box[1][0], 24)[0][:, None]
        else:
            assert sl.q == 2
            verts = _polygon_vertices(sl)
            c = verts.mean(axis=0)
            points = np.vstack([c, 0.5 * (c + verts)])
        iso = ta.isotropy_of_support(action, sl.pattern)
        C = strata.slice_constant(action, sl, iso)
        for s in points:
            J, z = strata.slice_embedding_jacobian(action, sl, s)
            vol = ta.geometric_orbit_volume(action, z, iso)
            if quotient:
                assert abs(J * TWO_PI**sl.n_theta / vol - C) < 1e-7 * C
            else:
                assert abs(J * TWO_PI**sl.n_theta - C * vol) < 1e-7 * C * vol
        consts.append(C)
    assert abs(consts[0] - np.pi * np.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(consts[1] - np.pi) < 1e-12


def test_labels_keep_their_zero_level_slice(e1, st1, e2, st2, e3, st3, r2):
    """Each label's level_slice is the zero-level slice of its top pattern,
    field for field as a fresh make_level_slice builds it."""
    envs = [(e1, st1), (e2, st2), (e3, st3), r2]
    for degrees in ([1, 1], [2, 3]):
        action = cp1_cp2(degrees)
        envs.append((action, strata.analyze(action)))
    for action, st in envs:
        for lab in st.strata:
            kept = lab.level_slice
            fresh = strata.make_level_slice(action, lab.top_pattern, np.zeros(action.rank))
            assert kept.pattern == fresh.pattern == lab.top_pattern
            assert np.array_equal(kept.value, np.zeros(action.rank))
            assert np.array_equal(kept.p0, fresh.p0) and np.array_equal(kept.basis, fresh.basis)
            assert all(np.array_equal(a, b) for a, b in zip(kept.box, fresh.box))
            assert kept.theta_idx == fresh.theta_idx and kept.gauge_idx == fresh.gauge_idx


def _reference_points(action, sl, count, seed):
    """The per-draw loop of the q <= 1 sampler: slice coordinate, then phases."""
    model = action.model
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        s = None if sl.q == 0 else np.array([rng.uniform(sl.box[0][0], sl.box[1][0])])
        theta = np.zeros(model.ncoords)
        theta[list(sl.theta_idx)] = rng.uniform(0, TWO_PI, size=sl.n_theta)
        z = models.normalize(model, sl.point(s))
        pts.append(models.normalize(model, z * np.exp(1j * theta)))
    return np.asarray(pts)


def test_sample_stratum_stream_matches_loop(e1, st1, e2, st2, e3, st3, r2):
    for action, strat in ((e1, st1), (e2, st2), (e3, st3), r2):
        for lab in strat.strata:
            sl = strata.make_level_slice(action, lab.top_pattern, np.zeros(action.rank))
            for count in (1, 7, 200):
                pts, wts = strata.sample_stratum(action, lab, count, seed=5)
                assert np.array_equal(pts, _reference_points(action, sl, count, 5))
                assert np.all(wts > 0)


def _polygon_vertices(sl):
    """Vertices of the polygon {s : p0 + s basis >= 0} of a q = 2 slice, in
    angular order: the feasible points where two mass constraints meet."""
    sup = np.flatnonzero(sl.p0 > 0)
    A, b = sl.basis[:, sup].T, sl.p0[sup]
    verts = []
    for i in range(len(sup)):
        for j in range(i + 1, len(sup)):
            M = A[[i, j]]
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            v = np.linalg.solve(M, -b[[i, j]])
            if np.all(A @ v + b >= -1e-12):
                verts.append(v)
    verts = np.unique(np.round(verts, 12), axis=0)
    c = verts.mean(axis=0)
    return verts[np.argsort(np.arctan2(verts[:, 1] - c[1], verts[:, 0] - c[0]))]


def _polygon_area(sl):
    """Shoelace area of the polygon of a q = 2 slice."""
    x, y = _polygon_vertices(sl).T
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def test_sample_stratum_q2_weights_match_polygon_area(cp_open):
    """Rejection sampling on a q = 2 slice: the weights sum to C times the
    polygon's area within binomial error, and every point is on the zero level."""
    action, lab = cp_open
    sl = strata.make_level_slice(action, lab.top_pattern, np.zeros(1))
    assert sl.q == 2
    exact = strata.slice_constant(action, sl, lab.isotropy) * _polygon_area(sl)
    count = 4000
    for seed in (7, 8):
        pts, wts = strata.sample_stratum(action, lab, count, seed=seed)
        hit = wts > 0
        frac = hit.mean()
        sigma = wts[hit][0] * count * np.sqrt(frac * (1.0 - frac) / count)
        assert abs(np.sum(wts) - exact) < 4.0 * sigma
        assert np.max(np.abs(ta.moment_map(action, pts))) < 1e-9
        assert np.min(models.masses(action.model, pts)) > 0


def test_sample_stratum_q2_rejected_draw_keeps_interior_point(cp_open):
    """A single draw on a q = 2 slice is accepted or rejected depending on
    the seed; either way the returned point lies on the stratum, and a
    rejected draw carries weight 0."""
    action, lab = cp_open
    accepted = []
    for seed in range(12):
        pts, wts = strata.sample_stratum(action, lab, 1, seed=seed)
        assert wts[0] >= 0
        assert np.max(np.abs(ta.moment_map(action, pts))) < 1e-9
        assert np.min(models.masses(action.model, pts)) > 0
        accepted.append(wts[0] > 0)
    assert any(accepted) and not all(accepted)


def test_reduced_mc_gram_raises_without_accepted_sample(cp_open, monkeypatch):
    """The MC reduced Gram integrates with the sample weights, so it refuses
    a q = 2 stratum on which no draw landed in the slice polytope."""
    from quantred import reduction
    from quantred.integrate import QuadConfig

    action, _ = cp_open
    box = strata._slice_box
    monkeypatch.setattr(strata, "_slice_box", lambda p0, basis: tuple(b + 10.0 for b in box(p0, basis)))
    with pytest.raises(reduction.ReductionError):
        reduction.reduced_gram(action, 2, quad=QuadConfig(method="mc", samples=2560, seed=1))


def test_point_slices_carry_at_most_one_invariant_monomial(e1, st1, e2, st2, r2):
    """On a q = 0 level slice, and on a zero-dimensional preimage piece, the
    level equations have a unique solution on the support pattern, so at
    most one invariant monomial is nonzero there: the point terms of the
    Grams and residuals are diagonal.  Checked on every such point the Gram
    routes evaluate, k = 1..12, both twists where the model allows them."""
    from quantred import sections

    envs = [(e1, st1), (e2, st2), r2]
    for degrees in ([1, 1], [2, 3]):
        action = cp1_cp2(degrees)
        envs.append((action, strata.analyze(action)))
    for action, st in envs:
        model = action.model
        pts = []
        for lab in st.strata:
            sl = strata.make_level_slice(action, lab.top_pattern, np.zeros(action.rank))
            if sl.q == 0:
                pts.append(strata.slice_quadrature(action, sl, 8)[0][0])
            if lab.dim_upstairs == 0:
                pts += [lab.representative, reference._pattern_point(model, lab.top_pattern)]
            for piece in st.pieces.get(lab.key, ()):
                if piece.dim_piece == 0:
                    pts.append(reference._pattern_point(model, piece.pattern))
                if piece.level_slice.q == 0:
                    pts.append(strata.slice_quadrature(action, piece.level_slice, 8)[0][0])
        assert pts
        z = models.normalize(model, np.asarray(pts))
        for twist in ("plain", "halfform") if model.metaplectic_allowed else ("plain",):
            for k in range(1, 13):
                try:
                    exps = sections.invariant_exponents(action, k, twist)
                except sections.SectionError:
                    continue  # k too small for the half-form twist
                nonzero = np.count_nonzero(sections.monomial_norms(model, exps, models.masses(model, z), twist), axis=1)
                assert np.max(nonzero, initial=0) <= 1


def _random_models(count, max_patterns=49):
    """The first `count` models of a seeded draw (1-3 factors of CP^1 or CP^2,
    degrees 1, rank 1-3, weights in [-2, 2], no shift) with at most
    `max_patterns` support patterns, which keeps the oracle loop short."""
    rng = np.random.default_rng(11)
    out = []
    while len(out) < count:
        nf = rng.integers(1, 4)
        factors = rng.integers(1, 3, nf)
        d = rng.integers(1, 4)
        weights = rng.integers(-2, 3, (d, int(np.sum(factors + 1))))
        if np.prod(2 ** (factors + 1) - 1) <= max_patterns:
            out.append(ta.make_action(models.make_model(factors.tolist(), [1] * int(nf)), weights.tolist()))
    return out


@pytest.fixture(scope="module")
def named():
    out = {}
    for name, (factors, degrees, weights, shift) in NAMED_MODELS.items():
        action = ta.make_action(models.make_model(factors, degrees), weights, shift=shift)
        out[name] = (action, strata.analyze(action))
    return out


def _vertex_moments(action, pattern):
    """Moments of a pattern's vertices, the one-hot masses per factor, shape (nv, d)."""
    Wl = action.scaled_weights()
    return np.array([-TWO_PI * (Wl[:, list(c)].sum(axis=1) + action.shift_float) for c in itertools.product(*pattern)])


def _hull_location(verts, tol=1e-9):
    """Where 0 sits in conv(verts), by a linear program over vertex weights:
    the largest eps with sum lam = 1, verts^T lam = 0 and every lam >= eps."""
    from scipy.optimize import linprog

    nv, d = verts.shape
    a_eq = np.zeros((d + 1, nv + 1))
    a_eq[:d, :nv] = verts.T / max(1.0, float(np.max(np.abs(verts))))
    a_eq[d, :nv] = 1.0
    a_ub = np.hstack([-np.eye(nv), np.ones((nv, 1))])
    c = np.zeros(nv + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(nv), A_eq=a_eq, b_eq=np.eye(d + 1)[d],
                  bounds=[(0, None)] * nv + [(0, 1.0)], method="highs")
    if res.status == 2:
        return "outside"
    assert res.status == 0, res.message
    return "inside" if -res.fun > tol else "boundary"


def test_mass_lp_classifies_patterns_like_the_vertex_hull(named):
    """Every support pattern lands where a vertex-weight LP over its moment
    hull puts 0: carriers inside, extra pieces on the boundary, unsemistable
    patterns outside; on the named models and 20 random ones, about half of
    which have an empty zero level."""
    cases = [(action, st) for action, st in named.values()] + [(action, None) for action in _random_models(20)]
    empty = 0
    for action, st in cases:
        where = {"inside": set(), "boundary": set(), "outside": set()}
        for pattern in strata.all_support_patterns(action.model):
            where[_hull_location(_vertex_moments(action, pattern))].add(pattern)
        if not where["inside"]:
            empty += 1
            with pytest.raises(strata.StrataError, match="empty zero level set"):
                strata.analyze(action)
            continue
        st = st or strata.analyze(action)
        assert {pat for lab in st.strata for pat in lab.patterns} == where["inside"]
        assert {p.pattern for ps in st.pieces.values() for p in ps} == where["boundary"]
        assert {info.pattern for info in st.unsemistable} == where["outside"]
    assert 5 <= empty <= 15


def test_piece_level_is_half_the_vertex_centroid(named):
    """Each extra piece's slice level, phi at uniform masses over 2, is half
    the mean of its explicitly enumerated vertex moments, on rank-2 models."""
    count = 0
    for name in ("(CP1)^3", "CP2xCP2 rank 2"):
        action, st = named[name]
        for piece in (p for ps in st.pieces.values() for p in ps):
            centroid = _vertex_moments(action, piece.pattern).mean(axis=0)
            assert np.max(np.abs(piece.level_slice.value - centroid / 2.0)) <= 1e-14
            count += 1
    assert count >= 10


def test_failed_linear_program_raises_instead_of_reading_outside(monkeypatch):
    """A solver status other than success or infeasible (here 4, numerical
    difficulties) is an error naming the pattern; it never makes a pattern
    'outside' and so never reports an empty zero level.  On CP^1 x CP^2 the
    open pattern, with q = 2, is the first to reach the solver."""
    failed = SimpleNamespace(status=4, success=False, message="Numerical difficulties encountered.")
    monkeypatch.setattr(strata, "_linprog", lambda c, **constraints: failed)
    with pytest.raises(strata.StrataError,
                       match=r"linear program on pattern \(\(0, 1\), \(2, 3, 4\)\) failed: Numerical difficulties"):
        strata.analyze(cp1_cp2([1, 1]))


def test_analyze_solves_each_level_zero_program_once(e1, e2, e3, r2, monkeypatch):
    """analyze solves linear programs only for slices with q >= 2: none on
    E1-E3 and the rank-2 (CP^1)^3, whose every level slice is a point or a
    segment; on CP^1 x CP^2 one for the open pattern at level 0, whose masses
    then build its slice, and the 2q = 4 box bounds of that slice."""
    calls = []
    original = strata._linprog

    def counted(c, **constraints):
        calls.append(1)
        return original(c, **constraints)

    monkeypatch.setattr(strata, "_linprog", counted)
    counts = []
    for action in (e1, e2, e3, r2[0], cp1_cp2([1, 1])):
        calls.clear()
        strata.analyze(action)
        counts.append(len(calls))
    assert counts == [0, 0, 0, 0, 5]


def _level_lp(action, pattern, value):
    """scipy's linprog on a pattern's level equations A p = b, built here from
    the weights: (q, best, argmin) with q = nsup - rank A, best = (largest
    smallest mass, its masses) or None if no p >= 0 solves them, and
    argmin(c, floor) the masses >= floor that minimise c . p."""
    from scipy.optimize import linprog

    sup = [i for fac in pattern for i in fac]
    n = len(sup)
    a_eq = np.vstack([action.scaled_weights()[:, sup], [[float(i in fac) for i in sup] for fac in pattern]])
    b_eq = np.concatenate([-np.asarray(value) / TWO_PI - action.shift_float, np.ones(len(pattern))])
    res = linprog(-np.eye(n + 1)[n], A_ub=np.hstack([-np.eye(n), np.ones((n, 1))]), b_ub=np.zeros(n),
                  A_eq=np.hstack([a_eq, np.zeros((len(b_eq), 1))]), b_eq=b_eq,
                  bounds=[(0, None)] * n + [(0, 1.0)], method="highs")
    assert res.status in (0, 2), res.message

    def argmin(c, floor):
        out = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(floor, None)] * n, method="highs")
        assert out.status == 0, out.message
        return out.x

    best = (-res.fun, res.x[:n]) if res.status == 0 else None
    return n - np.linalg.matrix_rank(a_eq), best, argmin


def test_closed_form_level_masses_match_the_linear_program(named):
    """Wherever the level slice is a point or a segment (q <= 1), at level 0
    on every pattern and at each extra piece's level, on the named models and
    20 random ones: the closed form locates the pattern as scipy's linprog
    does, with the same smallest mass, and its masses are the LP's optimum
    where that is unique and the midpoint of the optimal interval where the
    smallest mass is constant along the segment.  The last model's open
    pattern has such a segment whose midpoint is no crossing of two masses."""
    flat = ta.make_action(models.make_model([1, 2], [1, 1]), [[-2, 1, 1, 1, -2], [2, 0, 1, -2, 0]])
    cases = [(action, st) for action, st in named.values()] + [(action, None) for action in _random_models(20)]
    cases.append((flat, None))
    seen = {"outside": 0, "boundary": 0, "inside": 0, "flat": 0, "piece": 0}
    for action, st in cases:
        if st is None:
            try:
                st = strata.analyze(action)
            except strata.StrataError:
                pass  # empty zero level: no pieces
        levels = [(pat, np.zeros(action.rank)) for pat in strata.all_support_patterns(action.model)]
        pieces = [(p.pattern, p.level_slice.value) for ps in (st.pieces.values() if st else ()) for p in ps]
        for pattern, value in levels + pieces:
            q, best, argmin = _level_lp(action, pattern, value)
            if q > 1:
                continue
            location, p0, basis = strata._level_masses(action, pattern, value)
            seen[location] += 1
            seen["piece"] += any(value)
            if best is None:
                assert location == "outside", pattern
                continue
            eps, p_lp = best
            assert location == ("inside" if eps > strata.ZERO_TOL else "boundary"), pattern
            sup = [i for fac in pattern for i in fac]
            assert abs(p0[sup].min() - eps) <= 1e-12
            if q == 1:
                v = basis[0, sup]
                lo, hi = argmin(v, eps), argmin(-v, eps)
                if np.max(np.abs(hi - lo)) > 1e-9:
                    seen["flat"] += 1
                    p_lp = (lo + hi) / 2.0
            assert np.max(np.abs(p0[sup] - p_lp)) <= 1e-12, pattern
    assert min(seen.values()) >= 5, seen


def test_slice_gauge_ignores_last_bit_rounding(e1, st1, e3, st3, monkeypatch):
    """Masses of a factor that tie up to rounding, such as E1's (1/2, 1/2),
    which a linear solve and a linear program round apart, keep a slice's
    gauge, its free phases and the stratum representatives when any one of
    them is made the factor's largest by one ulp."""
    original = strata._level_masses
    nudges = 0
    for action, st in ((e1, st1), (e3, st3)):
        for f in action.model.slices:
            for i in range(f.start, f.stop):
                def nudged(*args):
                    nonlocal nudges
                    location, p, basis = original(*args)
                    if p is not None and p[f].max() - p[i] <= 1e-12:
                        p = p.copy()
                        p[i] = np.nextafter(p[f].max(), np.inf)
                        nudges += 1
                    return location, p, basis

                monkeypatch.setattr(strata, "_level_masses", nudged)
                for lab, ref in zip(strata.analyze(action).strata, st.strata):
                    assert lab.level_slice.gauge_idx == ref.level_slice.gauge_idx
                    assert lab.level_slice.theta_idx == ref.level_slice.theta_idx
                    np.testing.assert_allclose(lab.representative, ref.representative, rtol=0, atol=1e-15)
    assert nudges >= 2
