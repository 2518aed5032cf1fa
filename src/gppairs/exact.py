"""Exact rational and Q(sqrt2) arithmetic: sign, comparison, floor.

Everything downstream trusts this module.  An element of Q(sqrt2) is the
integer triple (p, r, q) of (p + r*sqrt2)/q in lowest terms, so sums,
products, signs and floors are integer operations.  Values are immutable;
all operations are pure and exact (no floating point).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt  # re-exported: r with r*r <= n < (r+1)*(r+1)

_RatLike = int | Fraction


def _sign(p: int, r: int) -> int:
    """Sign of p + r*sqrt2 for integers p, r."""
    if p >= 0 and r >= 0:
        return 1 if (p or r) else 0
    if p <= 0 and r <= 0:
        return -1
    # mixed signs, both nonzero: p^2 = 2 r^2 is impossible (sqrt2 is
    # irrational), so the larger of |p| and |r|*sqrt2 decides
    if p * p > 2 * r * r:
        return 1 if p > 0 else -1
    return 1 if r > 0 else -1


class QSqrt2:
    """An element (p + r*sqrt2)/q of Q(sqrt2), stored as three integers in
    lowest terms: gcd(p, r, q) = 1 and q > 0.

    The representation is unique because sqrt2 is irrational, so equality
    and hashing are componentwise.  QSqrt2(a, b) is a + b*sqrt2 for ints or
    Fractions a, b, which .a and .b return as Fractions; a float raises
    TypeError, here and as an operand.  Values are immutable: setting an
    attribute raises AttributeError.
    """

    __slots__ = ("_p", "_r", "_q")

    def __init__(self, a: _RatLike = 0, b: _RatLike = 0):
        if not (isinstance(a, _RatLike) and isinstance(b, _RatLike)):
            raise TypeError(f"QSqrt2 parts must be int or Fraction: {a!r}, {b!r}")
        # no gcd needed: with q = lcm(ad, bd), each prime of q divides ad or
        # bd as often as it divides q, and then divides neither that
        # Fraction's numerator nor its multiplier q // ad (or q // bd)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        q = ad * bd // math.gcd(ad, bd)
        _set_p(self, an * (q // ad))
        _set_r(self, bn * (q // bd))
        _set_q(self, q)

    def __setattr__(self, name, value):
        raise AttributeError(f"QSqrt2 is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QSqrt2 is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return QSqrt2, (self.a, self.b)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._p, self._q)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt2."""
        return Fraction(self._r, self._q)

    @staticmethod
    def of(a: _RatLike = 0, b: _RatLike = 0) -> "QSqrt2":
        return QSqrt2(a, b)

    @staticmethod
    def sqrt2() -> "QSqrt2":
        return _make(0, 1, 1)

    def __eq__(self, other) -> bool:
        if other.__class__ is not QSqrt2:
            return NotImplemented
        return self._p == other._p and self._r == other._r and self._q == other._q

    def __hash__(self) -> int:
        return hash((self._p, self._r, self._q))

    def __repr__(self) -> str:
        return f"QSqrt2(a={self.a!r}, b={self.b!r})"

    def __add__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        p, r, q = _triple(other)
        sq = self._q
        return _make(self._p * q + p * sq, self._r * q + r * sq, sq * q)

    __radd__ = __add__

    def __sub__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        p, r, q = _triple(other)
        sq = self._q
        return _make(self._p * q - p * sq, self._r * q - r * sq, sq * q)

    def __rsub__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        return _make(*_triple(other)) - self

    def __neg__(self) -> "QSqrt2":
        return _make(-self._p, -self._r, self._q)

    def __mul__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        p, r, q = _triple(other)
        sp, sr = self._p, self._r
        return _make(sp * p + 2 * sr * r, sp * r + sr * p, self._q * q)

    __rmul__ = __mul__

    def __truediv__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        p, r, q = _triple(other)
        norm = p * p - 2 * r * r
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if norm < 0:
            norm, q = -norm, -q
        # x / ((p + r*sqrt2)/q) = x * (p - r*sqrt2) * q / norm
        sp, sr = self._p, self._r
        return _make((sp * p - 2 * sr * r) * q, (sr * p - sp * r) * q, self._q * norm)

    def __rtruediv__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        return _make(*_triple(other)) / self

    def sign(self) -> int:
        return _sign(self._p, self._r)

    def _cmp(self, other: "QSqrt2 | int | Fraction") -> int:
        """Sign of self - other, without reducing the difference."""
        p, r, q = _triple(other)
        sq = self._q
        return _sign(self._p * q - p * sq, self._r * q - r * sq)

    def __lt__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return self._cmp(other) >= 0

    def as_fraction(self) -> Fraction:
        if self._r != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._p, self._q)

    def __str__(self) -> str:
        return format_qsqrt2(self)

    def to_decimal(self, digits: int = 12) -> str:
        """Decimal rendering, truncated toward -inf, `digits` places."""
        scale = 10 ** digits
        n = floor_q(self * scale)
        sign = "-" if n < 0 else ""
        whole, frac = divmod(abs(n), scale)
        return f"{sign}{whole}.{frac:0{digits}d}"


# the slots are written only here and in QSqrt2.__init__, past __setattr__
_set_p, _set_r, _set_q = QSqrt2._p.__set__, QSqrt2._r.__set__, QSqrt2._q.__set__
_new = object.__new__


def _make(p: int, r: int, q: int) -> QSqrt2:
    """(p + r*sqrt2)/q for q > 0, reduced to lowest terms."""
    g = math.gcd(p, r, q)
    if g != 1:
        p, r, q = p // g, r // g, q // g
    x = _new(QSqrt2)
    _set_p(x, p)
    _set_r(x, r)
    _set_q(x, q)
    return x


def _triple(x: "QSqrt2 | int | Fraction") -> tuple[int, int, int]:
    """The integer form (p, r, q) of a QSqrt2 or a rational."""
    if x.__class__ is QSqrt2:
        return x._p, x._r, x._q
    if not isinstance(x, _RatLike):
        raise TypeError(f"QSqrt2 arithmetic takes no {type(x).__name__}")
    return x.numerator, 0, x.denominator


def floor_rat_sqrt2(num: int, den: int) -> int:
    """floor((num/den) * sqrt2) for den > 0, via the integer square root."""
    if num >= 0:
        return math.isqrt(2 * num * num) // den
    # sqrt2*num is irrational for num != 0, so floor(-x) = -floor(x)-1
    return -(math.isqrt(2 * num * num) // den) - 1


def integer_form(x: QSqrt2) -> tuple[int, int, int]:
    """The stored integers (p, r, q): x = (p + r*sqrt2)/q, gcd(p, r, q) = 1
    and q > 0."""
    return x._p, x._r, x._q


def floor_q(x: QSqrt2) -> int:
    """Greatest integer <= x, exactly."""
    # q > 0 and p is an integer, so floor((p + r*sqrt2)/q) is
    # floor((p + floor(r*sqrt2))/q) exactly
    return (x._p + floor_rat_sqrt2(x._r, 1)) // x._q


def frac_q(x: QSqrt2) -> QSqrt2:
    """Fractional part x - floor(x), exact; result in [0, 1)."""
    return x - floor_q(x)


def format_qsqrt2(x: QSqrt2) -> str:
    """Textual form "p/q+r/s*sqrt2"; zero terms are omitted.  The
    expression grammar reads it back: exact_value(parse_expr(text))."""
    def rat(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    if x.a == 0 and x.b == 0:
        return "0"
    parts = []
    if x.a != 0:
        parts.append(rat(x.a))
    if x.b != 0:
        coeff = "" if abs(x.b) == 1 else rat(abs(x.b)) + "*"
        term = coeff + "sqrt2"
        if parts:
            parts.append(("+" if x.b > 0 else "-") + term)
        else:
            parts.append(("-" if x.b < 0 else "") + term)
    return "".join(parts)

