import itertools
import math

import numpy as np
import pytest

from quantred import models, sections
from quantred.sections import SectionError

import reference


def binom(n, k):
    return math.comb(n, k)


def test_basis_dimension_formula():
    # dim H(CP^n, O(k l)) = C(k l + n, n), multiplied across factors
    for factors, degrees, k in ([1], [1], 2), ([2], [1], 3), ([1, 2], [2, 1], 2):
        m = models.make_model(factors, degrees)
        dim = reference.basis_exponents(m, k, "plain").shape[0]
        expect = 1
        for n, l in zip(factors, degrees):
            expect *= binom(k * l + n, n)
        assert dim == expect


def test_basis_examples():
    m = models.make_model([1], [1])
    exps = reference.basis_exponents(m, 2, "plain")
    assert sorted(map(tuple, exps)) == [(0, 2), (1, 1), (2, 0)]
    exps_h = reference.basis_exponents(m, 2, "halfform")
    assert sorted(map(tuple, exps_h)) == [(0, 1), (1, 0)]


def _compositions_oracle(total, parts):
    """The recursive enumeration: lexicographic, first part slowest."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions_oracle(total - head, parts - 1):
            yield (head,) + rest


def _basis_oracle(model, k, twist):
    degs = sections.section_degrees(model, k, twist)
    per_factor = [list(_compositions_oracle(d, sl.stop - sl.start)) for sl, d in zip(model.slices, degs)]
    return [tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*per_factor)]


def test_basis_order_matches_recursive_oracle():
    """The array enumeration gives the oracle's rows in the oracle's order:
    that order fixes the basis lists in the JSON outputs."""
    for factors, degrees in (([1], [1]), ([2], [1]), ([1, 1], [1, 1]), ([1, 2], [2, 3]), ([2, 2], [1, 1]),
                             ([1, 1, 1], [1, 1, 1])):
        model = models.make_model(factors, degrees)
        for twist in ("plain", "halfform") if model.metaplectic_allowed else ("plain",):
            for k in range(1, 9):
                if min(sections.section_degrees(model, k, twist)) < 0:
                    continue
                exps = reference.basis_exponents(model, k, twist)
                assert exps.dtype.kind == "i"
                assert list(map(tuple, exps.tolist())) == _basis_oracle(model, k, twist)


def test_negative_twisted_degree_error():
    m = models.make_model([3], [1])  # half-form degree k - 2
    with pytest.raises(SectionError):
        reference.basis_exponents(m, 1, "halfform")
    assert reference.basis_exponents(m, 2, "halfform").tolist() == [[0, 0, 0, 0]]


def test_halfform_parity_error():
    m = models.make_model([2], [1])
    with pytest.raises(models.ModelError):
        reference.basis_sections(m, 3, "halfform")


def test_invariant_basis_counts(e1, e2, e3):
    assert sections.invariant_exponents(e1, 2).tolist() == [[1, 1]]
    assert sections.invariant_exponents(e1, 3).shape[0] == 0
    assert sections.invariant_exponents(e1, 3, "halfform").tolist() == [[1, 1]]
    # E2: z0^a z1^a z2^(k-2a)
    assert sections.invariant_exponents(e2, 4).shape[0] == 3
    assert sections.invariant_exponents(e2, 8).shape[0] == 5
    # E3 (shift 1/2): b = a + k/2 on each factor of degree k
    assert sections.invariant_exponents(e3, 4).shape[0] == 3
    assert sections.invariant_exponents(e3, 4, "halfform").shape[0] == 2
    assert sections.invariant_exponents(e3, 10, "halfform").shape[0] == 5


def test_invariant_basis_lattice_oracle_brute(e2):
    # recount by brute weight evaluation
    k = 6
    exps = reference.basis_exponents(e2.model, k, "plain")
    W = np.asarray(e2.weights)
    manual = [tuple(row) for row in exps if (W @ row == 0).all()]
    assert sorted(manual) == sorted(map(tuple, sections.invariant_exponents(e2, k).tolist()))


def _action(factors, degrees, weights, shift=None):
    from quantred import actions

    return actions.make_action(models.make_model(factors, degrees), weights, shift)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tolist()


def test_invariant_exponents_match_the_filtered_basis():
    """The meet-in-the-middle enumeration returns the brute-force filter's
    rows in its order and dtype, and raises where it raises, with the same
    message: on E1, E2, E3, CP^1 x CP^2 with l = (1,1) and (2,3), (CP^1)^3
    and CP^2 x CP^2 under rank-2 tori, both twists, k = 0..24 (lift
    integrality, odd half-form targets and negative twisted degrees all
    occur)."""
    cases = [([1], [1], [[1, -1]], None), ([2], [1], [[1, -1, 0]], None), ([1, 1], [1, 1], [[1, 0, -1, 0]], ["1/2"]),
             ([1, 2], [1, 1], [[1, 0, -1, 0, 1]], None), ([1, 2], [2, 3], [[1, 0, -1, 0, 1]], None),
             ([1, 1, 1], [1, 1, 1], [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]], None),
             ([2, 2], [1, 1], [[-1, -2, 1, 1, 1, -2], [-2, 0, -1, 0, 2, -1]], None)]
    seen = set()
    for factors, degrees, weights, shift in cases:
        action = _action(factors, degrees, weights, shift)
        for twist in ("plain", "halfform"):
            for k in range(25):
                got = _outcome(sections.invariant_exponents, action, k, twist)
                assert got == _outcome(reference.invariant_exponents_by_filter, action, k, twist), (factors, twist, k)
                seen.add(got[0] if isinstance(got[0], type) else "rows" if got[1][0] else "empty")
    assert seen == {SectionError, models.ModelError, "rows", "empty"}


def test_invariant_exponents_at_large_k(e2):
    """E2 at k = 3000 gives the 1501 rows (a, a, 3000 - 2a) in ascending
    order without enumerating the 4.5 million basis monomials."""
    import time

    start = time.perf_counter()
    exps = sections.invariant_exponents(e2, 3000)
    elapsed = time.perf_counter() - start
    a = np.arange(1501)
    assert exps.tolist() == np.stack([a, a, 3000 - 2 * a], axis=1).tolist()
    assert elapsed < 0.5


def test_invariant_basis_lift_error(e3):
    with pytest.raises(SectionError):
        sections.invariant_exponents(e3, 3)


def test_quantization_operator_annihilates_invariants(e2, rng):
    k = 5
    inv = {tuple(r) for r in sections.invariant_exponents(e2, k).tolist()}
    basis = reference.basis_sections(e2.model, k, "plain")
    pts = reference.random_points(e2.model, 20, rng)
    for s in basis[:: max(1, len(basis) // 8)]:
        expo = tuple(s.exponents[0])
        res = max(reference.quantization_residual(e2, s, [1.0], z) for z in pts[:4])
        if expo in inv:
            assert res < 1e-6
        else:
            assert res > 1e-3


def test_quantization_operator_halfform(e3, rng):
    k = 4
    inv = {tuple(r) for r in sections.invariant_exponents(e3, k, "halfform").tolist()}
    z = reference.random_points(e3.model, 3, rng)
    some_inv = reference.invariant_basis(e3, k, "halfform")[0]
    assert max(reference.quantization_residual(e3, some_inv, [1.0], zz) for zz in z) < 1e-6
    non = [s for s in reference.basis_sections(e3.model, k, "halfform") if tuple(s.exponents[0]) not in inv][0]
    assert max(reference.quantization_residual(e3, non, [1.0], zz) for zz in z) > 1e-3


def test_pointwise_norm_invariance(e2, rng):
    s = reference.invariant_basis(e2, 4)[1]
    z = reference.random_points(e2.model, 1, rng)[0]
    v0 = reference.pointwise_norm(s, z)
    for t in (0.2, 0.77):
        gz = reference.real_flow(e2, np.array([t]), z)
        assert abs(reference.pointwise_norm(s, gz) - v0) < 1e-10 * (1 + v0)


def test_pointwise_norm_zero_of_section():
    m = models.make_model([1], [1])
    s = reference.SectionPoly(m, 2, "plain", {(1, 1): 1.0})
    assert reference.pointwise_norm(s, np.array([1.0, 1e-200], dtype=complex)) < 1e-300


def test_halfform_factor_matches_bundle_scaling(rng):
    # on O(l) over CP^1 the numeric frame factor is l^{-1/2}, constant; on a
    # product it is prod_j l_j^{-n_j/2}, the constant halfform_frame
    cases = [([1], [1]), ([1], [2]), ([1], [5]), ([1, 1], [2, 3]), ([3], [2]), ([1, 3], [3, 1]), ([1, 1, 3], [1, 4, 2])]
    for factors, degrees in cases:
        m = models.make_model(factors, degrees)
        z = reference.random_points(m, 6, rng)
        fac = sections.halfform_factor(m, z)
        expect = np.prod([float(l) ** (-n / 2.0) for n, l in zip(factors, degrees)])
        assert np.allclose(fac, expect, rtol=1e-10)
        assert abs(sections.halfform_frame(m) - expect) < 1e-15 * expect


def test_gram_exact_matches_dirichlet(e2):
    g = sections.gram_upstairs(e2, 4, "plain", 1)
    # diagonal entries (k/2pi)^{n/2} (2 pi)^2 prod a_i! / (|a|+2)!
    pref = (4 / (2 * np.pi)) ** 1
    for i, expo in enumerate(g.basis_ids):
        num = np.prod([math.factorial(a) for a in expo])
        expect = pref * (2 * np.pi) ** 2 * num / math.factorial(sum(expo) + 2)
        assert abs(g.matrix[i, i].real - expect) < 1e-12 * expect
    off = g.matrix - np.diag(np.diag(g.matrix))
    assert np.max(np.abs(off)) == 0.0


def test_gram_mc_agrees_with_exact(e2):
    """The exact Gram against its Monte Carlo oracle on the ambient pattern,
    with the same prefactor (k/2pi)^{n/2}, within 3 standard errors."""
    gx = sections.gram_upstairs(e2, 4, "plain", 1)
    quad = {"method": "mc", "samples": 120000, "seed": 5}
    pattern = sections._full_pattern(e2.model)
    mc, err = reference.pattern_gram_mc_by_block(e2, np.array(gx.basis_ids), "plain", pattern, quad, ("oracle",))
    pref = 4 / (2 * np.pi)
    assert np.all(err > 0) and np.all(np.abs(pref * mc - gx.diagonal) < 3.0 * pref * err)


def test_gram_def2_dominates_def1(e2, st2):
    g1 = sections.gram_upstairs(e2, 4, "plain", 1, strat=st2)
    g2 = sections.gram_upstairs(e2, 4, "plain", 2, strat=st2)
    d1, d2 = np.diag(g1.matrix).real, np.diag(g2.matrix).real
    assert np.all(d2 >= d1 - 1e-12)
    assert np.any(d2 > d1 + 1e-6)


def test_gram_hermitian_psd(e3, st3):
    g = sections.gram_upstairs(e3, 6, "halfform", 2, strat=st3)
    assert np.max(np.abs(g.matrix - g.matrix.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(g.matrix)) > -1e-9
    assert "not_psd_within_tolerance" not in g.flags


def test_monomial_integral_on_point_pattern(e2):
    val = reference.monomial_integral_on_pattern(e2.model, ((2,),), np.array([0, 0, 4]))
    assert val == 1.0
    assert reference.monomial_integral_on_pattern(e2.model, ((2,),), np.array([1, 0, 3])) == 0.0
    diag = sections._gram_exact_on_pattern(e2, np.array([[0, 0, 4], [1, 0, 3]]), "plain", ((2,),))
    assert diag.tolist() == [1.0, 0.0]


def test_exact_pattern_gram_is_the_monomial_integral_bit_for_bit():
    """`_gram_exact_on_pattern` equals the frame times the one-monomial
    Dirichlet moment of the oracle exactly, on every pattern of the
    preimage pieces of each action, both twists: on every basis monomial at
    k = 2 and 7 (off-pattern rows give 0.0), and on E1-E3's invariant ones
    at k = 200, where the factorials outgrow floats."""
    from quantred import strata

    for action, ks in ((_action([1], [1], [[1, -1]]), (2, 7, 200)), (_action([2], [1], [[1, -1, 0]]), (2, 7, 200)),
                       (_action([1, 1], [1, 1], [[1, 0, -1, 0]], ["1/2"]), (2, 7, 200)),
                       (_action([1, 2], [2, 3], [[1, 0, -1, 0, 1]]), (2, 7)),
                       (_action([1, 1, 1], [1, 1, 1], [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]]), (2, 7))):
        model = action.model
        st = strata.analyze(action)
        patterns = {pattern for lab in st.strata for _, pattern, _ in st.preimage(lab)}
        patterns.add(tuple(tuple(range(sl.start, sl.stop)) for sl in model.slices))
        for twist in ("plain", "halfform") if model.metaplectic_allowed else ("plain",):
            frame = sections.halfform_frame(model) if twist == "halfform" else 1.0
            for k in ks:
                exps = (reference.basis_exponents(model, k, twist) if k < 200 else
                        sections.invariant_exponents(action, k, twist))
                for pattern in patterns:
                    diag = sections._gram_exact_on_pattern(action, exps, twist, pattern)
                    expect = [frame * reference.monomial_integral_on_pattern(model, pattern, row) for row in exps]
                    assert diag.tolist() == expect


def assert_matches_mc_oracle(new, old):
    """Diagonals within 1e-13 relative, zeros exactly where the oracle has them, and
    standard errors within 1e-13 of the larger of themselves and their diagonal
    entry, as tools/compare_runs.py measures them: with 10^6 samples in 4
    blocks the block means spread by ~1/500 of their mean, so rounding in a
    250000-term block sum, ~1e-14 of the mean on either route, moves the
    standard error by ~1e-11 of itself."""
    (diag, err), (diag_ref, err_ref) = new, old
    assert np.array_equal(diag == 0, diag_ref == 0) and np.array_equal(err == 0, err_ref == 0)
    scale = np.abs(diag_ref)
    assert np.all(np.abs(diag - diag_ref) <= 1e-13 * scale)
    assert np.all(np.abs(err - err_ref) <= 1e-13 * np.maximum(scale, err_ref))


def test_exponential_masses_follow_the_sphere_law():
    """The masses of the upstairs Monte Carlo oracle (`reference.sphere_block`),
    standard exponentials over their factor sum, have the law of the masses of a uniform point on the sphere of C^d:
    against the Gaussian sphere sampler `reference.random_points` by a
    two-sample Kolmogorov-Smirnov test per coordinate, and on both samples
    the Dirichlet(1, ..., 1) moments, mean 1/d and variance
    (d - 1) / (d^2 (d + 1)), within 5 standard errors; d = 2 and 3, 200000
    samples at fixed seeds."""
    from scipy.stats import ks_2samp

    n = 200000
    for d, seed in ((2, 7), (3, 8)):
        model = models.make_model([d - 1], [1])
        p = np.abs(reference.sphere_block(np.random.default_rng(seed), model, (tuple(range(d)),), n).T) ** 2
        assert p.shape == (d, n) and np.all(p > 0) and np.all(np.abs(p.sum(axis=0) - 1.0) < 1e-14)
        oracle = np.abs(reference.random_points(models.make_model([d - 1], [1]), n, np.random.default_rng(seed))) ** 2
        for i in range(d):
            assert ks_2samp(p[i], oracle[:, i]).pvalue > 1e-3
            for x in (p[i], oracle[:, i]):
                sq = (x - 1.0 / d) ** 2
                assert abs(x.mean() - 1.0 / d) < 5 * x.std() / math.sqrt(n)
                assert abs(sq.mean() - (d - 1) / (d * d * (d + 1))) < 5 * sq.std() / math.sqrt(n)


def test_upstairs_mc_diagonal_within_its_error_over_seeds():
    """The upstairs MC Gram diagonal against the exact Dirichlet moments over
    20 fixed seeds: E2 (plain), E3 (half-form) and CP^1 x CP^2 (plain) at
    k = 2 and 4, both from one draw of the oracle
    `reference.pattern_gram_mc_by_block`, 20000 samples in 32 blocks on the
    ambient pattern.  Every z = (mc - exact) / stderr lies within 5, and the
    mean z^2 in [0.5, 2]."""
    from quantred.integrate import QuadConfig

    zs = []
    for action, twist in ((_action([2], [1], [[1, -1, 0]]), "plain"),
                          (_action([1, 1], [1, 1], [[1, 0, -1, 0]], ["1/2"]), "halfform"),
                          (_action([1, 2], [1, 1], [[1, 0, -1, 0, 1]]), "plain")):
        ambient = sections._full_pattern(action.model)
        exps = [sections.invariant_exponents(action, k, twist) for k in (2, 4)]
        exact = np.concatenate([sections._gram_exact_on_pattern(action, e, twist, ambient) for e in exps])
        for seed in range(20):
            quad = QuadConfig(method="mc", samples=20000, blocks=32, seed=seed)
            diag, err = reference.pattern_gram_mc_by_block(action, np.vstack(exps), twist, ambient, quad, (twist,))
            assert np.all(err > 0)
            zs.extend((diag - exact) / err)
    zs = np.asarray(zs)
    assert np.max(np.abs(zs)) < 5
    assert 0.5 <= np.mean(zs**2) <= 2


def test_stratum_gram_mc_from_masses_matches_the_point_oracle():
    """`reduction._stratum_gram_mc` evaluates its norms and its half-form
    descent factor from the masses of `strata.stratum_draw`, the oracle from
    the complex points `sample_stratum` builds of the same draw: E3's
    half-form open stratum and CP^1 x CP^2's q = 2 open stratum, with 2000,
    1234 and (the floor) 256 stratum samples in 32 blocks, each k of the
    pair from the one draw of the k-free tag."""
    from quantred import reduction, strata
    from quantred.integrate import QuadConfig

    for action, twist, ks, q in ((_action([1, 1], [1, 1], [[1, 0, -1, 0]], ["1/2"]), "halfform", (2, 8), 1),
                                 (_action([1, 2], [1, 1], [[1, 0, -1, 0, 1]]), "plain", (2, 4), 2)):
        lab = strata.analyze(action).open_stratum()
        assert lab.level_slice.q == q
        exps = [sections.invariant_exponents(action, k, twist) for k in ks]
        for samples in (20000, 12345, 1000):
            quad = QuadConfig(method="mc", samples=samples, blocks=32, seed=4)
            tag = ("down", twist, lab.key)
            for new, e in zip(reduction._stratum_gram_mc(action, lab, exps, twist, quad, tag), exps):
                assert_matches_mc_oracle(new, reference.stratum_gram_mc_at_points(action, lab, e, twist, quad, tag))


def test_empty_invariant_space_gram(e1):
    g = sections.gram_upstairs(e1, 3, "plain", 1)
    assert g.dim == 0
