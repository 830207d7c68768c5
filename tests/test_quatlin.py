from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncspheres.quatlin import (Mat, build_J, embed_M2, epsilon, j_plus,
                               quat_basis_product, quat_conjugate,
                               quat_multiply)
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


def test_basis_product_matches_frozen_table():
    for (a, b), want in MULT_TABLE.items():
        assert quat_basis_product(a, b) == want


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


@given(quaternions, quaternions)
def test_embedding_is_multiplicative(p, q):
    """The 2x2 complex embedding turns quaternion product into matmul."""
    i = GaussRational(0, 1)
    lhs = embed_M2(quat_multiply(p, q), i)
    rhs = embed_M2(p, i) @ embed_M2(q, i)
    assert lhs == rhs


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
    m = embed_M2([GaussRational(v, 0) for v in q], i)
    (m00, m01), (m10, m11) = m.rows
    half = GaussRational(Fraction(1, 2), 0)
    got = ((m00 + m11) * half, (m00 - m11) * half / i,
           (m01 - m10) * half, (m01 + m10) * half / i)
    assert got == tuple(GaussRational(v, 0) for v in q)


def _vec(q):
    return [[v] for v in q]


def _apply(m, q):
    out = m @ Mat(_vec(q))
    return tuple(out[k, 0] for k in range(4))


def test_j_matrices_are_translations():
    """J+_a is left multiplication by e_a."""
    one = GaussRational(1, 0)
    basis = [tuple(one if k == mu else GaussRational(0, 0) for k in range(4))
             for mu in range(4)]
    for a in (1, 2, 3):
        e_a = basis[a]
        Jp = build_J(a)
        for q in basis:
            assert _apply(Jp, q) == quat_multiply(e_a, q)


def _scalar_mat(c):
    return Mat([[GaussRational(c if r == k else 0, 0) for k in range(4)]
                for r in range(4)])


def _right_multiplication(b):
    """Matrix of q -> q e_b, read off the frozen quaternion table."""
    rows = [[GaussRational(0, 0)] * 4 for _ in range(4)]
    for nu in range(4):
        coeff, mu = MULT_TABLE[(nu, b)]
        rows[mu][nu] = GaussRational(coeff, 0)
    return Mat(rows)


def test_j_matrix_relations_report():
    """J+_a is antisymmetric, J_a J_b = -delta_ab + eps_abc J_c, and
    -tr(J_a J_b)/4 = delta_ab."""
    J = j_plus(EXACT)
    for a in range(3):
        assert J[a] + J[a].transpose() == _scalar_mat(0)
        for b in range(3):
            expect = _scalar_mat(-1 if a == b else 0)
            for c in range(3):
                s = epsilon(a + 1, b + 1, c + 1)
                if s:
                    expect = expect + J[c].scale(s)
            prod = J[a] @ J[b]
            assert prod == expect
            assert sum(prod[k, k] for k in range(4)) == (-4 if a == b else 0)


def test_j_plus_j_minus_commute():
    # left translations commute with right translations
    for b in (1, 2, 3):
        Rb = _right_multiplication(b)
        for q in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            e_b = tuple(int(k == b) for k in range(4))
            assert _apply(Rb, q) == quat_multiply(q, e_b)
        for Ja in j_plus(EXACT):
            assert Ja @ Rb == Rb @ Ja


def test_build_J_validates_arguments():
    with pytest.raises(ValueError):
        build_J(0)
    with pytest.raises(ValueError):
        build_J(4)


@given(quaternions, quaternions)
def test_mat_algebra_against_naive(p, q):
    i = GaussRational(0, 1)
    A = embed_M2(p, i)
    B = embed_M2(q, i)
    prod = A @ B
    for r in range(2):
        for c in range(2):
            want = sum((A[r, k] * B[k, c] for k in range(2)),
                       GaussRational(0, 0))
            assert prod[r, c] == want
    assert list((A - A).entries()) == [GaussRational(0, 0)] * 4


@given(quaternions)
def test_dagger_matches_conjugate_transpose(q):
    i = GaussRational(0, 1)
    A = embed_M2([GaussRational(v, 0) for v in q], i)
    D = A.dagger()
    for r in range(2):
        for c in range(2):
            assert D[r, c] == A[c, r].conjugate()
