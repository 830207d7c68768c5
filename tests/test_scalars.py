import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspheres.coaction import H_ONE, CommPoly
from ncspheres.errors import MalformedNumber, ZeroDenominator
from ncspheres.scalars import (EXACT, FLOAT, Backend, GaussRational, add_into,
                               all_zero, max_residual, parse_rational,
                               row_reduce)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=40)
gauss = st.builds(GaussRational, rationals, rationals)


def test_parse_rational_forms():
    assert parse_rational("3/5") == Fraction(3, 5)
    assert parse_rational(" -7 ") == Fraction(-7)
    assert parse_rational("-24/25") == Fraction(-24, 25)
    # at most 2000 digits in each integer (scalars.MAX_DIGITS)
    assert parse_rational("-" + "9" * 2000) == -(10 ** 2000 - 1)
    assert parse_rational("1/" + "0" * 1999 + "7") == Fraction(1, 7)


def test_parse_rational_rejects_garbage():
    for bad in ("", "x", "1.5", "3//5", "1/2/3", "1" * 2001, "1/" + "1" * 2001,
                "\u0663/5", "3/\uff15"):
        with pytest.raises(MalformedNumber):
            parse_rational(bad)
    with pytest.raises(ZeroDenominator):
        parse_rational("1/0")


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(str(q)) == q


def test_gauss_rational_parse_and_str():
    z = GaussRational(Fraction(-7, 25), Fraction(24, 25))
    assert str(z) == "(-7/25,24/25)"
    assert str(GaussRational(3, Fraction(-1, 2))) == "(3,-1/2)"
    # each part of the pair reads back with the scalar parser
    re_part, im_part = str(z)[1:-1].split(",")
    assert GaussRational(parse_rational(re_part), parse_rational(im_part)) == z
    with pytest.raises(MalformedNumber):
        parse_rational("(1,2")


@given(gauss, gauss, gauss)
def test_gauss_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + (-a) == GaussRational(0, 0)


@given(gauss)
def test_gauss_inverse(a):
    if a.is_zero():
        return
    assert a * (1 / a) == GaussRational(1, 0)


@given(gauss, gauss)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a * a.conjugate()).im == 0


# the same operations on a (Fraction, Fraction) pair: the reference for the
# int-triple kernel
def _oracle_div(x, y):
    (p, q), (r, s) = x, y
    n = r * r + s * s
    if not n:
        raise ZeroDivisionError("oracle division by zero")
    return (p * r + q * s) / n, (q * r - p * s) / n


ORACLE = {
    operator.add: lambda x, y: (x[0] + y[0], x[1] + y[1]),
    operator.sub: lambda x, y: (x[0] - y[0], x[1] - y[1]),
    operator.mul: lambda x, y: (x[0] * y[0] - x[1] * y[1],
                                x[0] * y[1] + x[1] * y[0]),
    operator.truediv: _oracle_div,
}
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6,
                              max_denominator=10**6)
wide_gauss = st.builds(GaussRational, wide_rationals, wide_rationals)
real_operands = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                          wide_rationals)
# the operands of the fast paths: 0, +-1 and +-i, and 200-digit parts (each
# part 0.1 to 10 in size, so that abs and complex neither overflow nor underflow)
unit_gauss = st.sampled_from([GaussRational(0), GaussRational(1), GaussRational(-1),
                              GaussRational(0, 1), GaussRational(0, -1)])
huge = st.builds(operator.mul, st.sampled_from([1, -1]),
                 st.integers(min_value=10**199, max_value=10**200))
huge_gauss = st.builds(lambda a, b, d: GaussRational(Fraction(a, d), Fraction(b, d)),
                       huge, huge, st.integers(min_value=10**199, max_value=10**200))
gauss_operands = st.one_of(wide_gauss, unit_gauss, huge_gauss)


def _pair(z):
    if isinstance(z, GaussRational):
        return z.re, z.im
    return Fraction(z), Fraction(0)


def _assert_matches(z, pair):
    """z is canonical and agrees with the oracle pair in value, str, abs
    and complex, bit for bit."""
    re, im = pair
    assert isinstance(z, GaussRational)
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert (z.re, z.im) == (re, im)
    assert str(z) == f"({re},{im})"
    assert abs(z) == math.hypot(float(re), float(im))
    assert complex(z) == complex(float(re), float(im))
    assert z == GaussRational(re, im)
    assert hash(z) == hash(GaussRational(re, im))
    assert bool(z) == (not z.is_zero()) == (re != 0 or im != 0)


@given(gauss_operands, st.one_of(gauss_operands, real_operands),
       st.sampled_from(sorted(ORACLE, key=lambda f: f.__name__)))
def test_gauss_kernel_matches_fraction_pair_oracle(x, y, op):
    """Both operand orders, with a GaussRational, int or Fraction on the
    other side, so __radd__, __rmul__ and __rtruediv__ run too; the package
    never subtracts a GaussRational from an int or Fraction, and divides
    only an int or Fraction by a GaussRational."""
    for left, right in ((x, y), (y, x)):
        if op is operator.sub and not isinstance(left, GaussRational):
            continue
        if op is operator.truediv and isinstance(left, GaussRational):
            continue
        try:
            want = ORACLE[op](_pair(left), _pair(right))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(left, right)
            continue
        _assert_matches(op(left, right), want)


@given(wide_gauss)
def test_gauss_unary_ops_match_fraction_pair_oracle(x):
    re, im = x.re, x.im
    _assert_matches(x, (re, im))
    _assert_matches(-x, (-re, -im))
    _assert_matches(x.conjugate(), (re, -im))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            1 / x
    else:
        n = re * re + im * im
        _assert_matches(1 / x, (re / n, -im / n))


@given(gauss_operands, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_equal_denominators_and_vanishing_sums_are_canonical(x, k, j):
    """Operands on one denominator take the d == e branch of + and -, and
    every vanishing sum or difference is the canonical zero (0, 0, 1)."""
    y = x + GaussRational(k, j)
    assert y._d == x._d
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((x, y), (y, x)):
            _assert_matches(op(left, right), ORACLE[op](_pair(left), _pair(right)))
    zero = GaussRational(0)
    for z in (x - x, x + (-x), -x + x, y - y):
        assert z == zero and hash(z) == hash(zero) and (z._a, z._b, z._d) == (0, 0, 1)


@given(wide_gauss, wide_gauss)
def test_equal_values_hash_equal(x, y):
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)
    if not y.is_zero():
        w = (x * y) * (1 / y)
        assert w == x and hash(w) == hash(x)


def test_a_value_is_true_unless_zero():
    for x, truth in ((GaussRational(0), False), (GaussRational(0, 1), True),
                     (GaussRational(Fraction(1, 3)), True)):
        assert bool(x) is truth and bool(x) == (not x.is_zero())


def test_inverse_of_zero_raises():
    zero = GaussRational(0, 0)
    with pytest.raises(ZeroDivisionError):
        1 / zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / zero


@given(wide_gauss, st.one_of(wide_gauss, real_operands))
def test_only_a_number_divides_an_exact_value(x, y):
    """The one exact division is an int or Fraction over a value: x / y,
    x / 2 and x / (1/2) raise TypeError."""
    for divisor in (y, 2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            x / divisor


@pytest.mark.parametrize("re, im", [(0.1, 0), (0, 0.5), (1j, 0), (0, "1/2")])
def test_gauss_rejects_non_rational_components(re, im):
    with pytest.raises(TypeError):
        GaussRational(re, im)


def test_exact_backend_zero_test_is_exact():
    tiny = GaussRational(Fraction(1, 10**40), 0)
    assert not EXACT.is_zero(tiny)
    assert EXACT.is_zero(tiny - tiny)
    assert abs(tiny - tiny) == 0.0


def test_exact_abs_does_not_underflow():
    """|v| of a nonzero exact value below ~1e-162 is not 0.0: the ratio is
    not squared before it is taken, and a modulus below what a double holds
    reads as the smallest subnormal."""
    for v in (GaussRational(Fraction(1, 10**170), 0),
              GaussRational(0, Fraction(-1, 10**170))):
        assert abs(v) == 1e-170
    assert math.isclose(abs(GaussRational(Fraction(3, 10**200), Fraction(4, 10**200))), 5e-200)
    # below the smallest subnormal the ratio itself underflows
    assert abs(GaussRational(Fraction(1, 10**330))) == math.ulp(0.0)


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_all_zero_is_the_backend_zero_test(be):
    """One pass rule on both backends: a scalar by be.is_zero, a Sparse value
    by having no terms; max_residual only displays."""
    tiny = be.convert(Fraction(1, 10**170))
    empty, full = CommPoly(be, {}), CommPoly(be, {H_ONE: be.one})
    assert all_zero(be, []) and all_zero(be, [be.zero, empty])
    assert not all_zero(be, [be.zero, full]) and not all_zero(be, [be.one])
    # below 1e-162: zero within the float tolerance, never on the exact backend
    assert all_zero(be, [tiny]) is not be.exact
    assert all_zero(be, [CommPoly(be, {H_ONE: tiny})]) is not be.exact
    assert max_residual([tiny]) == 1e-170
    assert max_residual([tiny, empty, full]) == 1.0
    assert max_residual([]) == 0.0


def test_sparse_arithmetic_rejects_a_scalar_operand():
    p = CommPoly(EXACT, {H_ONE: EXACT.one})
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(p, 1)
        with pytest.raises(TypeError):
            op(1, p)


def test_float_backend_tolerance():
    be = FLOAT
    assert be.is_zero(1e-12 + 0j)
    assert not be.is_zero(1e-6 + 0j)
    # the rule is abs(v) <= tol, at the tolerance and just above it
    above = math.nextafter(be.tol, math.inf)
    for v in (be.tol, -be.tol, -1j * be.tol, above, -above, 1j * above,
              complex(0.6 * above, 0.8 * above)):
        assert be.is_zero(v) == (abs(v) <= be.tol)
    assert be.is_zero(-be.tol) and not be.is_zero(above)
    fine = Backend("float", exact=False, tol=1e-15)
    assert fine.is_zero(1e-15) and not fine.is_zero(1e-12)
    assert be.convert(GaussRational(Fraction(1, 2), Fraction(-1, 4))) == 0.5 - 0.25j


def test_exact_backend_rejects_floats():
    with pytest.raises(TypeError):
        EXACT.convert(0.5)


@given(rationals, rationals)
def test_backend_conversion_agrees(re, im):
    z = GaussRational(re, im)
    fz = FLOAT.convert(z)
    assert abs(fz - complex(float(re), float(im))) < 1e-12


def test_row_reduce_inverts_exactly():
    g = GaussRational
    A = [[g(2), g(1, 1), g(0)],
         [g(0, 1), g(3), g(1)],
         [g(1), g(0), g(Fraction(1, 2))]]
    n = len(A)
    rows = [dict(enumerate(A[i] + [EXACT.one if i == j else EXACT.zero for j in range(n)]))
            for i in range(n)]
    assert row_reduce(rows, range(n), EXACT) == [0, 1, 2]
    for i in range(n):
        assert [rows[i][j] for j in range(n)] == [1 if i == j else 0 for j in range(n)]
    inv = [[row[n + j] for j in range(n)] for row in rows]
    for i in range(n):
        for j in range(n):
            prod = sum((A[i][k] * inv[k][j] for k in range(n)), EXACT.zero)
            assert prod == (1 if i == j else 0)


def test_row_reduce_rank_deficient():
    g = GaussRational
    # the zeros are left out: a missing column holds zero
    rows = [{0: g(1), 1: g(2), 2: g(3), 3: g(1)},
            {0: g(2), 1: g(4), 2: g(6), 3: g(2)},
            {1: g(1), 2: g(1)}]
    assert row_reduce(rows, range(3), EXACT) == [0, 1]
    assert [rows[0].get(c, 0) for c in range(4)] == [1, 0, 1, 1]
    assert [rows[1].get(c, 0) for c in range(4)] == [0, 1, 1, 0]
    assert [rows[2].get(c, 0) for c in range(4)] == [0, 0, 0, 0]


def test_row_reduce_skips_float_entries_below_tol():
    def rows():
        return [{0: 1e-12 + 0j, 1: 1 + 0j}, {0: 0j, 1: 2 + 0j}]

    coarse = rows()
    # column 0 holds only 1e-12 <= tol: no pivot there; column 1 pivots on
    # its largest entry, 2, and leaves the tiny entry where it was
    assert row_reduce(coarse, range(2), FLOAT) == [1]
    assert coarse == [{0: 0, 1: 1}, {0: 1e-12, 1: 0}]
    fine = rows()
    assert row_reduce(fine, range(2), Backend("float", exact=False, tol=1e-15)) == [0, 1]
    assert fine == [{0: 1, 1: 0}, {0: 0, 1: 1}]


def test_row_reduce_fills_a_missing_entry_from_zero():
    # row 1 lacks column 1, where the pivot row holds 1j: its entry there is
    # zero - 1j, whose real part is +0.0, as a dense row's would be; the
    # negation -(1j) would print as (-0-1j)
    rows = [{0: 1 + 0j, 1: 1j}, {0: 1 + 0j}]
    assert row_reduce(rows, [0], FLOAT) == [0]
    assert str(rows[1][1]) == "-1j"


def test_add_into_inserts_the_value_itself():
    # 0j + (-0.0-0.0j) would be 0j: a fresh key must keep the signed zeros
    out = {}
    add_into(out, "k", complex(-0.0, -0.0))
    assert str(out["k"]) == "(-0-0j)"
    add_into(out, "k", 2 + 1j)
    add_into(out, "j", GaussRational(1, 2))
    add_into(out, "j", GaussRational(Fraction(-1, 2), 0))
    assert out == {"k": 2 + 1j, "j": GaussRational(Fraction(1, 2), 2)}
