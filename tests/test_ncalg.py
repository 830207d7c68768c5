import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres.coaction import span_contains
from ncspheres.errors import DegreeOverflow, NotCentral
from ncspheres.ncalg import (NCPoly, ReductionContext, basis_monomials,
                             basis_size, central_witness, confluence_check,
                             format_poly, mono_key)
from ncspheres.scalars import EXACT, GaussRational, parse_rational

from conftest import make_point


def _random_poly(alg, rng, degree=2, terms=3):
    out = alg.zero()
    for _ in range(terms):
        f = alg.scalar(Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, degree)):
            f = f * alg.generator(rng.randrange(8))
        out = out + f
    return out


def test_basis_size_is_stars_and_bars():
    for n in range(7):
        assert basis_size(n) == math.comb(n + 7, 7)
        assert len(basis_monomials(n)) == basis_size(n)


def test_cross_relation_normal_form(pyth):
    """x2^a x1^l rewrites to the conjugated-tensor combination."""
    p, alg, s, ys = pyth
    R = alg.R
    for lam in range(4):
        for alpha in range(4):
            lhs = alg.x2(alpha) * alg.x1(lam)
            rhs = alg.zero()
            for beta in range(4):
                for mu in range(4):
                    c = R.conj_entry(lam, alpha, beta, mu)
                    if not EXACT.is_zero(c):
                        rhs = rhs + alg.x1(mu) * alg.x2(beta) * c
            assert (lhs - rhs).is_zero()


def test_rewriting_agrees_with_multiplication(pyth, mixed):
    """Every generator word of length 2 and 3 rewrites to the product of its
    generators, and a normal-ordered position does not rewrite."""
    for point in (pyth, mixed):
        _, alg, _, _ = point
        for n in (2, 3):
            for w in itertools.product(range(8), repeat=n):
                want = alg.one()
                for g in w:
                    want = want * alg.generator(g)
                assert alg.word_normal_form(w) == want, w
        for w in ((0, 4), (4, 4), (1, 2)):
            assert alg.word_reducible_positions(w) == []
            with pytest.raises(ValueError):
                alg.rewrite_word_once(w, 0)


def test_within_family_generators_commute(pyth):
    _, alg, _, _ = pyth
    for i in range(4):
        for j in range(4):
            assert alg.x1(i).commutator(alg.x1(j)).is_zero()
            assert alg.x2(i).commutator(alg.x2(j)).is_zero()


def test_confluence_certificate(pyth, mixed):
    for point in (pyth, mixed):
        _, alg, _, _ = point
        rep = confluence_check(alg, max_len=4, trials=50, seed=1)
        assert rep["passed"]
        assert confluence_check(alg, max_len=5, trials=100, seed=0)["passed"]
        dims = [basis_size(n) for n in range(1, 6)]
        assert dims == [math.comb(n + 7, 7) for n in range(1, 6)]


def test_reduction_order_agreement(pyth):
    _, alg, _, _ = pyth
    rng = random.Random(7)
    for _ in range(60):
        w = tuple(rng.randrange(8) for _ in range(rng.randint(2, 5)))
        left = alg.word_normal_form(w, "leftmost")
        right = alg.word_normal_form(w, "rightmost")
        assert (left - right).is_zero()


def test_product_associativity_random(pyth):
    _, alg, _, _ = pyth
    rng = random.Random(3)
    for _ in range(15):
        f = _random_poly(alg, rng)
        g = _random_poly(alg, rng)
        h = _random_poly(alg, rng)
        assert ((f * g) * h - f * (g * h)).is_zero()


def test_star_is_an_antihomomorphism(pyth):
    _, alg, _, _ = pyth
    rng = random.Random(11)
    for _ in range(15):
        f = _random_poly(alg, rng)
        g = _random_poly(alg, rng)
        assert ((f * g).star() - g.star() * f.star()).is_zero()
        assert (f.star().star() - f).is_zero()


def test_generators_are_hermitian(pyth):
    _, alg, _, _ = pyth
    for g in range(8):
        x = alg.generator(g)
        assert (x.star() - x).is_zero()


def test_casimirs_are_central(pyth, mixed, classical):
    for point in (pyth, mixed, classical):
        _, alg, _, _ = point
        assert central_witness(alg, alg.casimir()) is None
        assert central_witness(alg, alg.family_casimir(1)) is None
        assert central_witness(alg, alg.family_casimir(2)) is None


def test_single_generator_not_central(pyth):
    _, alg, _, _ = pyth
    assert central_witness(alg, alg.x1(0)) is not None


def test_reduction_context_rejects_noncentral():
    _, alg, _, _ = make_point("3/5,4/5,0")
    with pytest.raises(NotCentral):
        ReductionContext(alg, [(alg.x1(0) * alg.x1(0), 1)])


def test_reduction_kills_ideal_elements(pyth):
    """(x^2 - 1) * m must reduce to zero for arbitrary monomial cofactors."""
    _, alg, s, _ = pyth
    rng = random.Random(5)
    rel = alg.casimir() - alg.one()
    for _ in range(20):
        cof = _random_poly(alg, rng, degree=2, terms=2)
        assert s.context.reduce_fast(rel * cof).is_zero()
        assert s.context.reduce_fast(cof * rel).is_zero()


def test_reduce_is_idempotent_and_linear(pyth):
    _, alg, s, _ = pyth
    rng = random.Random(13)
    for _ in range(10):
        f = _random_poly(alg, rng, degree=3)
        g = _random_poly(alg, rng, degree=3)
        rf = s.context.reduce_fast(f)
        assert (s.context.reduce_fast(rf) - rf).is_zero()
        lhs = s.context.reduce_fast(f + g)
        rhs = s.context.reduce_fast(f) + s.context.reduce_fast(g)
        assert (lhs - rhs).is_zero()


def test_reduction_subtracts_only_ideal_elements(pyth):
    """f - reduce_fast(f) lies in the span of (x^2 - 1) m, deg m <= deg f - 2.

    The span is built from products in the algebra alone, without the
    reduction code, so it checks reduce_fast rather than its cache.  The
    x^2 factor in f makes sure that reduction has work to do.
    """
    _, alg, s, _ = pyth
    rng = random.Random(17)
    rel = alg.casimir() - alg.one()
    for _ in range(10):
        f = _random_poly(alg, rng) * alg.casimir() + _random_poly(alg, rng, degree=4)
        rf = s.context.reduce_fast(f)
        assert (s.context.reduce_fast(rf) - rf).is_zero()
        ideal = [rel * NCPoly(alg, {m: EXACT.one})
                 for k in range(f.degree() - 1) for m in basis_monomials(k)]
        assert span_contains(alg, ideal, f - rf)


def test_degree_cap_enforced(pyth):
    p, alg, _, _ = pyth
    ctx = ReductionContext(alg, [(alg.casimir(), 1)], degree_cap=4)
    f = alg.one()
    for _ in range(6):
        f = f * alg.x1(1)
    with pytest.raises(DegreeOverflow):
        ctx.reduce_fast(f)


def _read_poly(alg, text):
    """Read format_poly's '(re,im)*x1_k*x2_k^e + ...' back into an NCPoly."""
    terms = {}
    if text != "0":
        for term in text.split(" + "):
            coeff, *factors = term.split("*")
            re_part, im_part = coeff[1:-1].split(",")
            mono = [0] * 8
            for factor in factors:
                name, _, power = factor.partition("^")
                family, k = name.split("_")
                mono[(0 if family == "x1" else 4) + int(k)] = int(power or 1)
            terms[tuple(mono)] = GaussRational(parse_rational(re_part),
                                               parse_rational(im_part))
    return NCPoly(alg, terms)


def test_poly_parse_format_round_trip(pyth):
    _, alg, _, _ = pyth
    f = alg.x1(0) * alg.x2(3) * GaussRational(Fraction(2, 3), Fraction(-1, 5)) \
        + alg.x1(1) * alg.x1(1) * 3 - alg.one()
    text = format_poly(f)
    assert text == "(-1,0) + (2/3,-1/5)*x1_0*x2_3 + (3,0)*x1_1^2"
    assert (_read_poly(alg, text) - f).is_zero()
    g = f * alg.casimir()
    assert (_read_poly(alg, format_poly(g)) - g).is_zero()
    assert format_poly(alg.zero()) == "0"
    assert _read_poly(alg, "0").is_zero()


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_mono_key_orders_by_degree_first(i, j):
    m1 = tuple(1 if k == i else 0 for k in range(8))
    m2 = tuple(1 if k == j else 0 for k in range(8)) \
        if i != j else tuple(2 if k == j else 0 for k in range(8))
    if sum(m1) < sum(m2):
        assert mono_key(m1) < mono_key(m2)
