import itertools
import random
from fractions import Fraction

from quantred._lattice import rational_nullspace, stabilizer_component_order


def test_nullspace_simple():
    basis = rational_nullspace([[1, -1, 0]])
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] - vec[1] == 0


def test_nullspace_full_rank():
    assert rational_nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_rational():
    basis = rational_nullspace([[2, 4]])
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 4 * v[1] == 0
    assert isinstance(v[0], Fraction)


def test_component_orders():
    # weight difference 2 on a circle: Z_2 stabilizer
    assert stabilizer_component_order([[2]]) == 2
    assert stabilizer_component_order([[1], [-1]]) == 1
    assert stabilizer_component_order([[3]]) == 3
    # two commuting constraints
    assert stabilizer_component_order([[2, 0], [0, 2]]) == 4


def test_component_order_counts_the_group():
    """Brute force on random D of full column rank d <= 2: for a nonzero d x d
    minor a of D, on the rows A of that minor, A t integral puts every
    solution of D t = 0 mod 1 in A^{-1} Z^d, inside (1/|a|) Z^d, so the group
    is counted on that grid mod 1.  A rank-deficient D keeps its torus part
    out of the count: [[2, 0], [0, 0]] has component group Z_2."""
    rng = random.Random(26)
    counted = 0
    while counted < 200:
        d, n = rng.randint(1, 2), rng.randint(1, 4)
        D = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(n)]
        minors = [A[0][0] if d == 1 else A[0][0] * A[1][1] - A[0][1] * A[1][0] for A in itertools.combinations(D, d)]
        a = next((abs(m) for m in minors if m), 0)
        if not a:
            continue
        count = sum(all(sum(w * t for w, t in zip(row, ts)) % a == 0 for row in D)
                    for ts in itertools.product(range(a), repeat=d))
        assert count == stabilizer_component_order(D), D
        counted += 1
    assert stabilizer_component_order([[2, 0], [0, 0]]) == 2
