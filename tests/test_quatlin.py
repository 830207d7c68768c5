from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres.ncalg import Algebra
from ncspheres.quatlin import (Mat, embed_M2, epsilon, quat_conjugate,
                               quat_multiply, translation)
from ncspheres.rmatrix import DeformParams, build_R_quaternionic
from ncspheres.scalars import EXACT, GaussRational

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)
quaternions = st.tuples(rationals, rationals, rationals, rationals)

# frozen quaternion table: e_a e_b for all 16 pairs
MULT_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def test_epsilon_all_27_entries():
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                want = 0
                if (a, b, c) in set(permutations((1, 2, 3))):
                    want = 1
                    # parity by counting transpositions from (1,2,3)
                    perm = (a, b, c)
                    inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                              if perm[i] > perm[j])
                    want = -1 if inv % 2 else 1
                assert epsilon(a, b, c) == want


def _gauss(q):
    """A quaternion's rational components as GaussRationals, as embed_M2 takes them."""
    return [GaussRational(v, 0) for v in q]


@given(quaternions, quaternions)
def test_embedding_is_multiplicative(p, q):
    """The 2x2 complex embedding turns quaternion product into matmul."""
    i, p, q = GaussRational(0, 1), _gauss(p), _gauss(q)
    lhs = embed_M2(quat_multiply(p, q), i)
    rhs = embed_M2(p, i) @ embed_M2(q, i)
    assert lhs.rows == rhs.rows


@given(quaternions)
def test_conjugate_gives_norm(q):
    prod = quat_multiply(q, quat_conjugate(q))
    norm2 = sum(v * v for v in q)
    assert prod[0] == norm2
    assert prod[1] == prod[2] == prod[3] == 0


@given(quaternions)
def test_embed_components_round_trip(q):
    """q0 = (m00 + m11)/2 etc. read the four components back off embed_M2."""
    i = GaussRational(0, 1)
    m = embed_M2(_gauss(q), i)
    (m00, m01), (m10, m11) = m.rows
    half = GaussRational(Fraction(1, 2), 0)
    got = ((m00 + m11) * half, (m00 - m11) * half * (1 / i),
           (m01 - m10) * half, (m01 + m10) * half * (1 / i))
    assert got == tuple(GaussRational(v, 0) for v in q)


def test_translation_matches_frozen_table():
    for (a, b), (coeff, mu) in MULT_TABLE.items():
        assert translation(a)[mu][b] == coeff
        assert translation(b, right=True)[mu][a] == coeff


def test_j_matrix_relations_report():
    """J+_a = translation(a) is antisymmetric, J_a J_b = -delta_ab + eps_abc J_c,
    and -tr(J_a J_b)/4 = delta_ab."""
    J = [Mat(translation(a)) for a in (1, 2, 3)]
    for a in range(3):
        assert all(J[a].rows[i][k] == -J[a].rows[k][i] for i in range(4) for k in range(4))
        for b in range(3):
            expect = [[-1 if a == b and i == k else 0 for k in range(4)] for i in range(4)]
            for c in range(3):
                s = epsilon(a + 1, b + 1, c + 1)
                for i in range(4):
                    for k in range(4):
                        expect[i][k] += s * J[c].rows[i][k]
            prod = J[a] @ J[b]
            assert prod.rows == expect
            assert sum(prod.rows[k][k] for k in range(4)) == (-4 if a == b else 0)


def test_left_and_right_translations_commute():
    for a in range(4):
        for b in range(4):
            L, R = Mat(translation(a)), Mat(translation(b, right=True))
            assert (L @ R).rows == (R @ L).rows


def test_translation_validates_arguments():
    assert translation(0) == [[int(i == k) for k in range(4)] for i in range(4)]
    for bad in (4, -1):
        with pytest.raises(ValueError, match=str(bad)):
            translation(bad)
        with pytest.raises(ValueError):
            translation(bad, right=True)


@given(quaternions, quaternions)
def test_mat_algebra_against_naive(p, q):
    i = GaussRational(0, 1)
    A = embed_M2(_gauss(p), i)
    B = embed_M2(_gauss(q), i)
    prod = A @ B
    for r in range(2):
        for c in range(2):
            want = sum((A.rows[r][k] * B.rows[k][c] for k in range(2)),
                       GaussRational(0, 0))
            assert prod.rows[r][c] == want


# one algebra for the dagger properties: a matrix over NCPoly
ALG = Algebra(build_R_quaternionic(DeformParams.parse("3/5,4/5,0")), EXACT)
gauss = st.builds(GaussRational, rationals, rationals)
polys = st.builds(lambda c, d, g: ALG.scalar(c) * ALG.generator(g) + ALG.scalar(d),
                  gauss, gauss, st.integers(0, 7))


@settings(max_examples=25, deadline=None)
@given(st.lists(polys, min_size=6, max_size=6), st.lists(polys, min_size=6, max_size=6))
def test_dagger_matches_conjugate_transpose(a, b):
    """The dagger of a 2x3 NCPoly matrix is the transpose of the entries'
    star, and (A B)^dagger = B^dagger A^dagger."""
    A, B = Mat([a[:3], a[3:]]), Mat([b[0:2], b[2:4], b[4:]])
    D = A.dagger()
    assert D.shape == (3, 2)
    for r in range(3):
        for c in range(2):
            assert D.rows[r][c] == A.rows[c][r].star()
    assert (A @ B).dagger().rows == (B.dagger() @ D).rows
