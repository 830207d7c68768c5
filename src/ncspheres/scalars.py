"""Scalar arithmetic: exact Gaussian rationals, a float-complex twin, and
the sparse-term core that every linear combination in the package uses.

The exact scalar is (a + b*i)/d with a, b, d Python ints (arbitrary
precision), d > 0 and gcd(a, b, d) == 1, so each value has one
representation.  Each field operation multiplies ints and normalises by at
most one gcd: a product with an exact +-1 factor is the other factor or its
negation, and a vanishing sum or difference is the shared canonical zero,
and neither pays a gcd.  No Fraction is built on the arithmetic path.  The
float backend mirrors the same operations on machine complex numbers with
tolerance-based zero tests, so every higher layer can run on either backend
unchanged.  GaussRational deliberately mimics the slice of the builtin
``complex`` API that the rest of the package uses (arithmetic, ``abs`` and
``conjugate``), which is what makes the backends interchangeable.

Polynomials, chains and tensor elements are all {key: coefficient} dicts.
``add_into`` is their one accumulate step, ``all_zero`` the one pass rule
of every verdict, ``max_residual`` the number a report displays, and
``Sparse`` supplies the linear operations they share; each subclass keeps
its own key normalisation and zero pruning in its constructor.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

from .errors import MalformedNumber, ZeroDenominator

_RATIONAL_RE = _re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
# digits in a literal's numerator or denominator: printed values grow to about
# twice that, inside CPython's 4300-digit limit on int <-> str
MAX_DIGITS = 2000


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q', ASCII digits only and at most MAX_DIGITS of them in
    p and in q, into a reduced Fraction with positive denominator."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise MalformedNumber(f"not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > MAX_DIGITS:
        raise MalformedNumber(f"a rational literal has more than {MAX_DIGITS} digits"
                              " in its numerator or denominator")
    if den:
        if int(den) == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def _format_ratio(n: int, d: int) -> str:
    """n/d (d > 0) in lowest terms; an integer prints without the slash."""
    g = math.gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


class GaussRational:
    """Immutable Gaussian rational (a + b*i)/d held as three Python ints.

    The invariants d > 0 and gcd(a, b, d) == 1 make the triple canonical,
    so equality and hashing are structural and values are safe as dict
    keys.  ``+``, ``-`` and ``*`` normalise inline by one gcd, skipped when
    a factor is exactly +-1 or a sum vanishes.  The one division is an int
    or Fraction over a value, as ``1 / x``; a value over anything raises
    TypeError.  ``re`` and ``im`` are Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(f"GaussRational needs int or Fraction parts, not {re!r}, {im!r}")
        q, s = re.denominator, im.denominator
        a, b, d = re.numerator * s, im.numerator * q, q * s
        g = math.gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    # -- complex-like API ---------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> "GaussRational":
        return _raw(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    # -- arithmetic ----------------------------------------------------

    def __add__(self, o):
        if type(o) is not GaussRational and (o := _coerce(o)) is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            a, b = self._a + o._a, self._b + o._b
        else:
            a, b, d = self._a * e + o._a * d, self._b * e + o._b * d, d * e
        if not a and not b:
            return _ZERO
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        z = _new(GaussRational)
        z._a, z._b, z._d = a, b, d
        return z

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not GaussRational and (o := _coerce(o)) is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            a, b = self._a - o._a, self._b - o._b
        else:
            a, b, d = self._a * e - o._a * d, self._b * e - o._b * d, d * e
        if not a and not b:
            return _ZERO
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        z = _new(GaussRational)
        z._a, z._b, z._d = a, b, d
        return z

    def __mul__(self, o):
        if type(o) is not GaussRational and (o := _coerce(o)) is None:
            return NotImplemented
        c, e, f = o._a, o._b, o._d
        if f == 1 and not e and (c == 1 or c == -1):
            return self if c == 1 else -self
        a, b, d = self._a, self._b, self._d * f
        a, b = a * c - b * e, a * e + b * c
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        z = _new(GaussRational)
        z._a, z._b, z._d = a, b, d
        return z

    __rmul__ = __mul__

    def __rtruediv__(self, o):
        """o / self for an int or Fraction o = p/q, the one division: with
        self = (c + ei)/f it is p f (c - ei) / (q (c^2 + e^2)), by one gcd."""
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        c, e, f = self._a, self._b, self._d
        if not c and not e:
            raise ZeroDivisionError("division by zero GaussRational")
        p = o.numerator * f
        a, b, d = p * c, -p * e, o.denominator * (c * c + e * e)
        g = math.gcd(a, b, d)
        return _raw(a // g, b // g, d // g)

    def __neg__(self):
        z = _new(GaussRational)
        z._a, z._b, z._d = -self._a, -self._b, self._d
        return z

    def __eq__(self, o):
        if type(o) is not GaussRational and (o := _coerce(o)) is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __abs__(self) -> float:
        """|v| as a float, never 0.0 for a nonzero value: one whose modulus
        underflows a double reads as the smallest subnormal, math.ulp(0.0)."""
        # int true division is correctly rounded, as Fraction.__float__ is;
        # squaring the ratio first would underflow to 0.0 below ~1e-162
        r = math.hypot(self._a / self._d, self._b / self._d)
        return r if r or not (self._a or self._b) else math.ulp(0.0)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"({_format_ratio(self._a, self._d)},{_format_ratio(self._b, self._d)})"

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)


_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussRational:
    """A GaussRational from a triple that already meets the invariants."""
    z = _new(GaussRational)
    z._a, z._b, z._d = a, b, d
    return z


# the canonical zero, which every vanishing sum and difference returns
_ZERO = _raw(0, 0, 1)


def _coerce(value):
    """An int or Fraction as a GaussRational; None for anything else."""
    if isinstance(value, (int, Fraction)):
        return _raw(value.numerator, 0, value.denominator)
    return None


class Backend:
    """A scalar domain: constructors plus the zero test the domain needs.

    The float twin of GaussRational is the builtin complex type; ``tol`` is
    the zero tolerance of the float domain and unused on the exact one.
    ``is_zero(value)`` is one plain function bound here, as it runs once per
    coefficient: ``GaussRational.is_zero`` or ``abs(value) <= tol``.  A
    verdict passes iff every value it measures is zero by ``is_zero``
    (``all_zero``); ``max_residual`` is reported only.  ``value_key`` tells values
    apart as ``str`` does: an exact value, or a complex and its parts' signs.
    """

    def __init__(self, name: str, exact: bool, tol: float = 0.0):
        self.name = name
        self.exact = exact
        self.tol = tol
        if exact:
            self.zero = GaussRational(0, 0)
            self.one = GaussRational(1, 0)
            self.i = GaussRational(0, 1)
            self.is_zero = GaussRational.is_zero
            self.value_key = lambda v: v
        else:
            self.zero = 0j
            self.one = 1 + 0j
            self.i = 1j
            self.is_zero = lambda v: abs(v) <= tol
            self.value_key = lambda v: (v, math.copysign(1, v.real), math.copysign(1, v.imag))

    def convert(self, value):
        """The one coercion of a number into this backend: an int, a Fraction,
        or a GaussRational (exact->float only), as NCPoly * number does."""
        if self.exact:
            return value if isinstance(value, GaussRational) else GaussRational(value, 0)
        return complex(value)

    def __repr__(self):
        return f"Backend({self.name!r})"


EXACT = Backend("exact", exact=True)
FLOAT = Backend("float", exact=False, tol=1e-9)


def row_reduce(rows: list, cols, be: Backend) -> list:
    """Gauss-Jordan elimination, in place, of sparse `rows`: each row is a
    {column: value} dict, and a column it lacks holds zero.

    Pivots are sought in the columns of `cols`, in that order; any other key
    is an augmented column, carried along.  Each pivot is the first entry of
    largest magnitude among the entries of its column, below the pivots
    found so far, that are not ``be.is_zero``; a column without one is
    skipped.  The pivot row is scaled to a leading 1 and its column is
    cleared in every other row.  A row is updated only where the pivot row
    has an entry, as ``row.get(c, be.zero) - f * b``, and no computed entry
    is dropped, so the row dicts passed in are changed.

    Returns the pivot columns in `cols` order: rows[r] is the pivot row of
    pivots[r], and every row past len(pivots) is zero, by ``be.is_zero``, on
    `cols`.
    """
    zero, is_zero, pivots = be.zero, be.is_zero, []
    for col in cols:
        rank = len(pivots)
        piv, best = None, -1.0
        for r in range(rank, len(rows)):
            v = rows[r].get(col)
            if v is not None and not is_zero(v) and abs(v) > best:
                piv, best = r, abs(v)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        prow = rows[rank] = {c: inv * v for c, v in rows[rank].items()}
        for r, row in enumerate(rows):
            f = row.get(col)
            if r != rank and f is not None and not is_zero(f):
                for c, b in prow.items():
                    row[c] = row.get(c, zero) - f * b
        pivots.append(col)
    return pivots


def all_zero(be: Backend, values) -> bool:
    """The one pass rule: a verdict passes iff every value it measures is
    zero by ``be.is_zero``.

    A Sparse value has already pruned each coefficient that ``be.is_zero``,
    so it is zero iff it has no terms; a scalar is tested directly.
    """
    return all(v.is_zero() if isinstance(v, Sparse) else be.is_zero(v) for v in values)


def max_residual(values) -> float:
    """The largest ``abs`` among `values`, a Sparse value counting as the
    largest ``abs`` of its coefficients; 0.0 when there are none.  It is
    reported only: whether a verdict passes is ``all_zero``'s to say."""
    return max((v.residual() if isinstance(v, Sparse) else abs(v) for v in values),
               default=0.0)


def add_into(out: dict, key, value) -> None:
    """out[key] += value, inserting `value` itself when `key` is absent.

    A missing key is never filled with zero + value: that sum would cost an
    exact gcd and could flip the sign of a float zero, which ``str`` shows.
    """
    got = out.get(key)
    out[key] = value if got is None else got + value


class Sparse:
    """A finite linear combination held as ``terms``, {key: coefficient}.

    Subclasses supply ``_new(terms)``, which builds one of their own from
    the terms of a sum, difference or scaling of their values: the keys are
    already normal, so it only has to prune zero coefficients.  Two values
    combine when either's type is the other's or derives from it.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def residual(self) -> float:
        return max_residual(self.terms.values())

    def __add__(self, other):
        if not (isinstance(other, type(self)) or isinstance(self, type(other))):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, c)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not (isinstance(other, type(self)) or isinstance(self, type(other))):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            got = out.get(k)
            # x - y is x + (-y) in IEEE arithmetic too, signed zeros included
            out[k] = -c if got is None else got - c
        return self._new(out)

    def scale(self, c):
        return self._new({k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        """Equal terms, or a difference that prunes to zero (on floats, every
        coefficient within the tolerance).  Equal terms compare by identity
        first, so a NaN coefficient shared by both sides counts as equal; no
        validated input produces a NaN."""
        if not (isinstance(other, type(self)) or isinstance(self, type(other))):
            return NotImplemented
        return self.terms == other.terms or (self - other).is_zero()

    __hash__ = None
