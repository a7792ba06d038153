"""Exact integer/rational linear algebra for small weight matrices.

Everything here runs on Python ints and Fractions so that isotropy
algebras, stabilizer component counts, and invariant-monomial equations
are decided exactly, never through floating-point rank guesses.
"""

import itertools
import math
from fractions import Fraction


def rational_nullspace(rows):
    """Basis of the right kernel of a matrix with rational entries.

    `rows` is a sequence of length-d sequences (ints or Fractions).
    Returns a list of d-tuples of Fractions spanning {x : rows @ x = 0}.
    """
    if not rows:
        return []
    d = len(rows[0])
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * d
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(tuple(vec))
    return basis


def _det(rows):
    """Exact determinant of a square matrix by Gaussian elimination over Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def stabilizer_component_order(rel_weights):
    """Order of the finite component group of {t in T^d : D t = 0 mod 1}.

    `rel_weights` are the integer relative weight rows D.  The kernel of
    the induced torus map splits as a subtorus times a finite group whose
    order is the product of the nonzero elementary divisors of D, that is
    the gcd of the r x r minors of D, r = rank D (M. Newman, Integral
    Matrices, 1972, ch. II); r = 0 leaves the one empty minor, 1.
    """
    rows = [[int(v) for v in row] for row in rel_weights]
    d = len(rows[0]) if rows else 0
    r = d - len(rational_nullspace(rows))
    return math.gcd(*(int(_det([[row[j] for j in cols] for row in sub]))
                      for sub in itertools.combinations(rows, r) for cols in itertools.combinations(range(d), r)))
