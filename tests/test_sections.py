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
        dim = sections.basis_exponents(m, k, "plain").shape[0]
        expect = 1
        for n, l in zip(factors, degrees):
            expect *= binom(k * l + n, n)
        assert dim == expect


def test_basis_examples():
    m = models.make_model([1], [1])
    exps = sections.basis_exponents(m, 2, "plain")
    assert sorted(map(tuple, exps)) == [(0, 2), (1, 1), (2, 0)]
    exps_h = sections.basis_exponents(m, 2, "halfform")
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
                exps = sections.basis_exponents(model, k, twist)
                assert exps.dtype.kind == "i"
                assert list(map(tuple, exps.tolist())) == _basis_oracle(model, k, twist)


def test_negative_twisted_degree_error():
    m = models.make_model([3], [1])  # half-form degree k - 2
    with pytest.raises(SectionError):
        sections.basis_exponents(m, 1, "halfform")
    assert sections.basis_exponents(m, 2, "halfform").tolist() == [[0, 0, 0, 0]]


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
    exps = sections.basis_exponents(e2.model, k, "plain")
    W = np.asarray(e2.weights)
    manual = [tuple(row) for row in exps if (W @ row == 0).all()]
    assert sorted(manual) == sorted(map(tuple, sections.invariant_exponents(e2, k).tolist()))


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
    g = sections.gram_upstairs(e2, 4, "plain", 1, {"method": "exact"})
    # diagonal entries (k/2pi)^{n/2} (2 pi)^2 prod a_i! / (|a|+2)!
    pref = (4 / (2 * np.pi)) ** 1
    for i, expo in enumerate(g.basis_ids):
        num = np.prod([math.factorial(a) for a in expo])
        expect = pref * (2 * np.pi) ** 2 * num / math.factorial(sum(expo) + 2)
        assert abs(g.matrix[i, i].real - expect) < 1e-12 * expect
    off = g.matrix - np.diag(np.diag(g.matrix))
    assert np.max(np.abs(off)) == 0.0


def test_gram_mc_agrees_with_exact(e2):
    gx = sections.gram_upstairs(e2, 4, "plain", 1, {"method": "exact"})
    gm = sections.gram_upstairs(e2, 4, "plain", 1, {"method": "mc", "samples": 120000, "seed": 5})
    diff = np.abs(gm.matrix - gx.matrix)
    assert np.all(diff < 3.0 * np.diag(gm.stderr) + 1e-9)


def test_gram_mc_error_scaling(e2):
    # standard errors shrink like 1/sqrt(N) over a 4x budget ladder
    g1 = sections.gram_upstairs(e2, 4, "plain", 1, {"method": "mc", "samples": 20000, "seed": 7})
    g2 = sections.gram_upstairs(e2, 4, "plain", 1, {"method": "mc", "samples": 80000, "seed": 9})
    r = np.median(g1.stderr[g1.stderr > 0] / g2.stderr[g1.stderr > 0])
    assert 1.4 < r < 2.9


def test_gram_def2_dominates_def1(e2, st2):
    g1 = sections.gram_upstairs(e2, 4, "plain", 1, {"method": "exact"}, strat=st2)
    g2 = sections.gram_upstairs(e2, 4, "plain", 2, {"method": "exact"}, strat=st2)
    d1, d2 = np.diag(g1.matrix).real, np.diag(g2.matrix).real
    assert np.all(d2 >= d1 - 1e-12)
    assert np.any(d2 > d1 + 1e-6)


def test_gram_hermitian_psd(e3, st3):
    g = sections.gram_upstairs(e3, 6, "halfform", 2, {"method": "mc", "samples": 30000, "seed": 1}, strat=st3)
    assert np.max(np.abs(g.matrix - g.matrix.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(g.matrix)) > -1e-9
    assert "not_psd_within_tolerance" not in g.flags


def test_monomial_integral_on_point_pattern(e2):
    val = sections.monomial_integral_on_pattern(e2.model, ((2,),), np.array([0, 0, 4]))
    assert val == 1.0
    assert sections.monomial_integral_on_pattern(e2.model, ((2,),), np.array([1, 0, 3])) == 0.0


def test_empty_invariant_space_gram(e1):
    g = sections.gram_upstairs(e1, 3, "plain", 1, {"method": "exact"})
    assert g.dim == 0
