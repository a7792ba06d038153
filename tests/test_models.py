import numpy as np
import pytest

from quantred import models
from quantred.models import ModelError

import reference


def test_make_model_metaplectic_parity():
    assert models.make_model([1], [1]).metaplectic_allowed
    assert not models.make_model([2], [1]).metaplectic_allowed
    assert models.make_model([1, 1], [2, 3]).metaplectic_allowed


def test_make_model_validation():
    with pytest.raises(ModelError):
        models.make_model([], [])
    with pytest.raises(ModelError):
        models.make_model([1], [0])
    with pytest.raises(ModelError):
        models.make_model([0], [1])


def test_point_equality_canonical_phase():
    m = models.make_model([1], [1])
    p = reference.PointM(m, [1.0, 1.0j])
    q = reference.PointM(m, [1.0j, -1.0])  # same projective point, rotated phase
    assert p == q
    assert hash(p) == hash(q)
    r = reference.PointM(m, [1.0, -1.0j])
    assert p != r


def test_normalize_rejects_zero_block():
    m = models.make_model([1, 1], [1, 1])
    with pytest.raises(ModelError):
        models.normalize(m, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


def test_frame_invariants_random_points(rng):
    m = models.make_model([1, 2], [2, 1])
    n = m.n_total
    for z in reference.random_points(m, 5, rng):
        fr = reference.frame_at(m, z)
        assert np.max(np.abs(fr.J @ fr.J + np.eye(2 * n))) < 1e-10
        assert np.max(np.abs(fr.B - fr.B.T)) < 1e-10
        assert np.max(np.abs(fr.omega + fr.omega.T)) < 1e-10
        # compatibility omega(u, v) = B(Ju, v)
        assert np.max(np.abs(fr.omega - fr.J.T @ fr.B)) < 1e-10
        assert np.min(np.linalg.eigvalsh(fr.B)) > 0


def test_frame_cp1_multiple_of_identity():
    # at [1:0] the residual symmetry forces B proportional to the identity
    m = models.make_model([1], [1])
    fr = reference.frame_at(m, np.array([1.0, 0.0], dtype=complex))
    B = fr.B
    assert abs(B[0, 0] - B[1, 1]) < 1e-12 and abs(B[0, 1]) < 1e-12
    assert B[0, 0] > 0


def test_frame_product_block_diagonal(rng):
    m = models.make_model([1, 1], [2, 3])
    z = reference.random_points(m, 1, rng)[0]
    fr = reference.frame_at(m, z)
    # off-diagonal factor blocks of B vanish (basis is x's then y's per coord)
    assert abs(fr.B[0, 1]) < 1e-12
    assert abs(fr.B[0, 3]) < 1e-12


def test_eigenvalues_of_J():
    m = models.make_model([2], [1])
    z = reference.random_points(m, 1, np.random.default_rng(0))[0]
    fr = reference.frame_at(m, z)
    ev = np.linalg.eigvals(fr.J)
    assert np.sum(np.abs(ev - 1j) < 1e-8) == m.n_total
    assert np.sum(np.abs(ev + 1j) < 1e-8) == m.n_total


def test_liouville_volume_against_closed_form():
    # CP^1 O(1) -> 2 pi ; CP^1 O(2) -> 4 pi ; product -> product of factors
    for factors, degrees in ([1], [1]), ([1], [2]), ([1, 1], [2, 3]), ([2], [1]):
        m = models.make_model(factors, degrees)
        val, err = reference.liouville_volume(m, {"samples": 60000, "seed": 11})
        exact = reference.liouville_volume_exact(m)
        assert abs(val - exact) < 3.0 * max(err, 1e-12), (factors, degrees, val, exact, err)


def test_liouville_volume_zero_budget():
    m = models.make_model([1], [1])
    with pytest.raises(ModelError):
        reference.liouville_volume(m, {"samples": 0})


def test_prequantum_residual(rng):
    m = models.make_model([1], [1])
    z = reference.random_points(m, 1, rng)[0]
    assert reference.check_prequantum(m, 1, z) < 1e-6
    assert reference.check_prequantum(m, 3, z) < 1e-6
    mp = models.make_model([1, 2], [2, 1])
    zp = reference.random_points(mp, 1, rng)[0]
    assert reference.check_prequantum(mp, 1, zp) < 1e-6
    assert reference.check_prequantum(mp, 2, zp) < 1e-6


def test_prequantum_second_order_refinement(rng):
    # raw (un-extrapolated) residual drops by ~4x when the step halves
    m = models.make_model([1], [1])
    z = reference.random_points(m, 1, rng)[0]
    charts = models.chart_indices(m, z)
    w0 = models.to_chart(m, z, charts)
    g = models.chart_metric(m, w0)

    def raw(step):
        def neg_log_h(w):
            return np.log1p(np.sum(np.abs(w) ** 2))

        H = reference._complex_hessian(neg_log_h, w0, step)
        return float(np.max(np.abs(H - g)))

    r1, r2 = raw(2e-3), raw(1e-3)
    assert r2 < r1 / 3.0


def test_divergence_zero_field_and_isometry(e2, rng):
    m = e2.model
    z = reference.random_points(m, 1, rng)[0]
    zero = reference.divergence_liouville(m, lambda q: np.zeros_like(q), z)
    assert abs(zero) < 1e-9
    xi = np.array([1.0])
    field_x = lambda q: reference.fundamental_fields(e2, xi, q)[0]
    assert abs(reference.divergence_liouville(m, field_x, z)) < 1e-6


def test_divergence_matches_closed_form(e2, rng):
    m = e2.model
    z = reference.random_points(m, 1, rng)[0]
    xi = np.array([0.7])
    field = lambda q: reference.fundamental_fields(e2, xi, q)[1]
    num = reference.divergence_liouville(m, field, z)
    ref = reference.pointwise_divergence(e2, xi, z)
    assert abs(num - ref) < 1e-5 * (1 + abs(ref))


def test_divergence_contracts_toward_fixed_set(e1):
    # near the maximum of phi_xi the JX flow contracts volume; three step
    # sizes of the finite-difference oracle agree on the value
    m = e1.model
    z = models.normalize(m, np.array([0.05, 1.0], dtype=complex))  # near [0:1], max of phi_1
    xi = np.array([1.0])
    field = lambda q: reference.fundamental_fields(e1, xi, q)[1]
    vals = [reference.divergence_liouville(m, field, z, step=s) for s in (2e-4, 1e-4, 5e-5)]
    assert all(v < 0 for v in vals)
    assert max(vals) - min(vals) < 1e-4 * (1 + abs(vals[1]))
    assert abs(vals[1] - reference.pointwise_divergence(e1, xi, z)) < 1e-5


def test_chart_roundtrip(rng):
    m = models.make_model([1, 2], [1, 1])
    z = reference.random_points(m, 4, rng)
    charts = models.chart_indices(m, z[0])
    w = models.to_chart(m, z, charts)
    back = models.from_chart(m, w, charts)
    # same projective points
    for a, b in zip(z, back):
        assert reference.projective_distance(m, a, b) < 1e-10
