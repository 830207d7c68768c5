"""Scalar arithmetic: exact Gaussian rationals and a float-complex twin.

The exact scalar is a + b*i with a, b reduced rationals (arbitrary precision).
The float backend mirrors the same operations on machine complex numbers with
tolerance-based zero tests, so every higher layer can run on either backend
unchanged.  GaussRational deliberately mimics the small slice of the builtin
``complex`` API that the rest of the package uses (``conjugate``, ``real``,
``imag``), which is what makes the backends interchangeable.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

from .errors import MalformedNumber, NegativeInput, NotAPerfectSquare, ZeroDenominator

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a reduced Fraction with positive denominator."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise MalformedNumber(f"not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    if den:
        if int(den) == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational; integers print without the slash."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sqrt_exact(q: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or raise.

    Both numerator and denominator must be perfect squares (the input is
    already reduced, so they are coprime and can be tested independently).
    """
    if q < 0:
        raise NegativeInput(f"sqrt of negative rational {q}")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        raise NotAPerfectSquare(f"{q} is not a rational square")
    return Fraction(rn, rd)


def is_perfect_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


class GaussRational:
    """Immutable Gaussian rational a + b*i.

    Field operations are exact; hashing and equality are structural, so
    values are safe as dict keys and across threads.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # object.__setattr__ not needed; slots plus convention keep this immutable
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- constructors -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussRational":
        """Parse '(re,im)' with rational components, or a bare rational."""
        s = text.strip()
        if s.startswith("("):
            if not s.endswith(")"):
                raise MalformedNumber(f"unbalanced parentheses in {text!r}")
            parts = s[1:-1].split(",")
            if len(parts) != 2:
                raise MalformedNumber(f"expected two components in {text!r}")
            return GaussRational(parse_rational(parts[0]), parse_rational(parts[1]))
        return GaussRational(parse_rational(s), 0)

    # -- complex-like API ---------------------------------------------

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRational":
        n2 = self.norm2()
        if not n2:
            raise ZeroDivisionError("inverse of zero GaussRational")
        return GaussRational(self.re / n2, -self.im / n2)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __abs__(self) -> float:
        return math.sqrt(float(self.norm2()))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"({format_rational(self.re)},{format_rational(self.im)})"

    def __complex__(self):
        return complex(float(self.re), float(self.im))


class Backend:
    """A scalar domain: constructors plus the zero test the domain needs.

    The float twin of GaussRational is the builtin complex type; ``tol`` is
    the zero tolerance of the domain, 0.0 on the exact backend, so a
    residual passes a report iff it is ``<= tol`` on either backend.
    """

    def __init__(self, name: str, exact: bool, tol: float = 0.0):
        self.name = name
        self.exact = exact
        self.tol = tol
        if exact:
            self.zero = GaussRational(0, 0)
            self.one = GaussRational(1, 0)
            self.i = GaussRational(0, 1)
        else:
            self.zero = 0j
            self.one = 1 + 0j
            self.i = 1j

    def from_fraction(self, q):
        if self.exact:
            return GaussRational(q, 0)
        return complex(float(q), 0.0)

    def convert(self, value):
        """Coerce a scalar of either backend into this one (exact->float only)."""
        if self.exact:
            if isinstance(value, GaussRational):
                return value
            if isinstance(value, (int, Fraction)):
                return GaussRational(value, 0)
            raise TypeError(f"cannot convert {value!r} to exact scalar")
        if isinstance(value, GaussRational):
            return complex(value)
        return complex(value)

    def is_zero(self, value) -> bool:
        if self.exact:
            return value.is_zero()
        return abs(value) <= self.tol

    def eq(self, a, b) -> bool:
        return self.is_zero(a - b)

    def residual(self, value) -> float:
        """Magnitude used in reports; exactly 0.0 for a vanishing exact value."""
        return abs(value)

    def max_residual(self, values) -> float:
        """Largest residual among `values`; 0.0 when there are none."""
        return max((abs(v) for v in values), default=0.0)

    def __repr__(self):
        return f"Backend({self.name!r})"


EXACT = Backend("exact", exact=True)


def float_backend(tol: float = 1e-9) -> Backend:
    return Backend("float", exact=False, tol=tol)


def row_reduce(rows: list, ncols: int, be: Backend) -> list:
    """Gauss-Jordan elimination of `rows` in place on the first `ncols` columns.

    Columns past `ncols` (augmented right-hand sides) are carried along.
    Each pivot is the entry of largest magnitude among the entries of its
    column, below the pivots found so far, that are not ``be.is_zero``; a
    column without one is skipped.  The pivot row is scaled to a leading 1
    and its column is cleared in every other row.

    Returns the pivot columns in increasing order: rows[r] is the pivot row
    of pivots[r], and every row past len(pivots) is zero, by ``be.is_zero``,
    on the first `ncols` columns.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv, best = None, -1.0
        for r in range(rank, len(rows)):
            v = rows[r][col]
            if not be.is_zero(v) and abs(v) > best:
                piv, best = r, abs(v)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        prow = rows[rank] = [inv * v for v in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and not be.is_zero(f):
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return pivots
