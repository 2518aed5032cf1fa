"""Exact rational and Q(sqrt2) arithmetic: sign, comparison, floor.

Everything downstream trusts this module.  Values are immutable; all
operations are pure and exact (no floating point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_RatLike = int | Fraction


def isqrt(n: int) -> int:
    """Integer square root: r with r*r <= n < (r+1)*(r+1)."""
    if n < 0:
        raise ValueError(f"isqrt of negative integer {n}")
    return math.isqrt(n)


def _sign_rat_pair(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt2 without constructing intermediates."""
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a^2 against 2 b^2, combine with sign of a
    lhs = a * a
    rhs = 2 * b * b
    if a > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


@dataclass(frozen=True)
class QSqrt2:
    """An element a + b*sqrt2 of Q(sqrt2), with exact rational a, b.

    The representation is unique because sqrt2 is irrational, so equality
    is componentwise (the dataclass default).
    """

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    @staticmethod
    def of(a: _RatLike = 0, b: _RatLike = 0) -> "QSqrt2":
        return QSqrt2(Fraction(a), Fraction(b))

    @staticmethod
    def sqrt2() -> "QSqrt2":
        return QSqrt2(Fraction(0), Fraction(1))

    def __add__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        other = _coerce(other)
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        other = _coerce(other)
        return QSqrt2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        return _coerce(other) - self

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.a, -self.b)

    def __mul__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        other = _coerce(other)
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        other = _coerce(other)
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # multiply by the conjugate a - b*sqrt2 and divide by the norm
        num = self * QSqrt2(other.a, -other.b)
        return QSqrt2(num.a / norm, num.b / norm)

    def __rtruediv__(self, other: "QSqrt2 | int | Fraction") -> "QSqrt2":
        return _coerce(other) / self

    def sign(self) -> int:
        return _sign_rat_pair(self.a, self.b)

    def __lt__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "QSqrt2 | int | Fraction") -> bool:
        return (self - other).sign() >= 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __str__(self) -> str:
        return format_qsqrt2(self)

    def to_decimal(self, digits: int = 12) -> str:
        """Decimal rendering, truncated toward -inf, `digits` places."""
        scale = 10 ** digits
        n = floor_q(self * scale)
        sign = "-" if n < 0 else ""
        whole, frac = divmod(abs(n), scale)
        return f"{sign}{whole}.{frac:0{digits}d}"


def _coerce(x: "QSqrt2 | int | Fraction") -> QSqrt2:
    if isinstance(x, QSqrt2):
        return x
    return QSqrt2(Fraction(x), Fraction(0))


def floor_rat_sqrt2(num: int, den: int) -> int:
    """floor((num/den) * sqrt2) for den > 0, via the integer square root."""
    if num >= 0:
        return math.isqrt(2 * num * num) // den
    # sqrt2*num is irrational for num != 0, so floor(-x) = -floor(x)-1
    return -(math.isqrt(2 * num * num) // den) - 1


def integer_form(x: QSqrt2) -> tuple[int, int, int]:
    """Integers (p, r, q) with x = (p + r*sqrt2)/q and q > 0."""
    a, b = x.a, x.b
    q = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q


def floor_q(x: QSqrt2) -> int:
    """Greatest integer <= x, exactly."""
    p, r, q = integer_form(x)
    # q > 0 and p is an integer, so floor((p + r*sqrt2)/q) is
    # floor((p + floor(r*sqrt2))/q) exactly
    return (p + floor_rat_sqrt2(r, 1)) // q


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

