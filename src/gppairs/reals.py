"""Adaptive-precision interval enclosures with exact rational endpoints.

Covers the transcendental offsets the recurrences need (pi, e, and
expressions such as 1 - pi^2/e^3) plus a certified floor that refines the
enclosure until the integer part is decided.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exact import QSqrt2, floor_rat_sqrt2


class EvalError(ValueError):
    """Raised when interval evaluation cannot proceed at a precision (e.g.
    division by an interval containing zero); certified_floor refines on."""


class UndecidableError(ArithmeticError):
    """A certified floor could not be decided within the bit budget.

    Signals either an insufficient budget or a genuinely integral value;
    callers must not guess.  `max_bits` is the precision reached, `[lo, hi]`
    the last enclosure, and `step` the recurrence step when raised by a trace.
    """

    def __init__(self, max_bits: int, lo: Fraction, hi: Fraction,
                 step: int | None = None):
        super().__init__(max_bits, lo, hi, step)
        self.max_bits = max_bits
        self.lo = lo
        self.hi = hi
        self.step = step

    def __str__(self):
        at = "" if self.step is None else f" at step {self.step}"
        return f"floor undecided{at} at {self.max_bits} bits"


_TRIM_GUARD = 32  # bits by which RealInterval._trimmed's grid undercuts the width


class RealInterval:
    """Enclosure [lo, hi] of a real value; endpoints are exact rationals.

    Values are immutable: setting an attribute raises AttributeError.  Not
    a tuple, so that `2 * iv` is interval arithmetic, not repetition.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: Fraction, hi: Fraction, bits: int = 0):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_bits(self, bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"RealInterval is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RealInterval is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return RealInterval, (self.lo, self.hi, self.bits)

    def _key(self) -> tuple:
        return self.lo, self.hi, self.bits

    def __eq__(self, other) -> bool:
        if other.__class__ is not RealInterval:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"RealInterval(lo={self.lo!r}, hi={self.hi!r}, bits={self.bits!r})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        """Exact membership; x may be a rational or a QSqrt2."""
        if isinstance(x, QSqrt2):
            return (x - self.lo).sign() >= 0 and (x - self.hi).sign() <= 0
        return self.lo <= x <= self.hi

    def encloses(self, other: "RealInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # An int or Fraction operand c acts on the endpoints, as the point
    # interval [c, c] would, without building one.

    def __add__(self, other):
        if isinstance(other, _SCALAR):
            return RealInterval(self.lo + other, self.hi + other, self.bits)
        other = _as_interval(other)
        return RealInterval(self.lo + other.lo, self.hi + other.hi, self.bits)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _SCALAR):
            return RealInterval(self.lo - other, self.hi - other, self.bits)
        other = _as_interval(other)
        return RealInterval(self.lo - other.hi, self.hi - other.lo, self.bits)

    def __rsub__(self, other):
        if isinstance(other, _SCALAR):
            return RealInterval(other - self.hi, other - self.lo, self.bits)
        return _as_interval(other) - self

    def __mul__(self, other):
        if isinstance(other, _SCALAR):
            if other >= 0:
                return RealInterval(self.lo * other, self.hi * other, self.bits)
            return RealInterval(self.hi * other, self.lo * other, self.bits)
        other = _as_interval(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a >= 0 and c >= 0:
            # 0 <= a <= b and 0 <= c <= d give a*c <= a*d, b*c <= b*d, so the
            # least and greatest of the four products are a*c and b*d
            return RealInterval(a * c, b * d, self.bits)
        prods = [a * c, a * d, b * c, b * d]
        return RealInterval(min(prods), max(prods), self.bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise EvalError("division by an interval containing zero")
        inv = RealInterval(1 / other.hi, 1 / other.lo, other.bits)
        return self * inv

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def pow_int(self, k: int) -> "RealInterval":
        if k == 0:
            return RealInterval(Fraction(1), Fraction(1), self.bits)
        if k < 0:
            return 1 / self.pow_int(-k)
        r = self
        out = RealInterval(Fraction(1), Fraction(1), self.bits)
        while k:
            if k & 1:
                out = (out * r)._trimmed()
            r = (r * r)._trimmed()
            k >>= 1
        return out

    def _trimmed(self) -> "RealInterval":
        """Outward rounding onto a dyadic grid 2^_TRIM_GUARD times finer than
        the width: still an enclosure, at most 1 + 2^(2 - _TRIM_GUARD) times
        as wide.  A point stays exact.

        Exact products of a non-point interval multiply its denominators, so
        x^k would carry about k times the bits of x.  The grid follows the
        width, not a fixed 2^-bits, so that a small base keeps its relative
        precision and (pi/4)^-1000 never divides by an interval holding 0.
        """
        w = self.hi - self.lo
        if not w:
            return self
        m = _TRIM_GUARD + w.denominator.bit_length() - w.numerator.bit_length()
        return self.dyadic_rounded(max(m, 0))

    def intersect(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(max(self.lo, other.lo), min(self.hi, other.hi),
                            max(self.bits, other.bits))

    def dyadic_rounded(self, bits: int) -> "RealInterval":
        """Outward-round endpoints to denominator 2^bits (keeps rationals small)."""
        s = 1 << bits
        lo = Fraction(self.lo.numerator * s // self.lo.denominator, s)
        hi = Fraction(-((-self.hi.numerator * s) // self.hi.denominator), s)
        return RealInterval(lo, hi, self.bits)


# the slots are written only in RealInterval.__init__, past __setattr__
_set_lo = RealInterval.lo.__set__
_set_hi = RealInterval.hi.__set__
_set_bits = RealInterval.bits.__set__

_SCALAR = (int, Fraction)


def _as_interval(x) -> RealInterval:
    if isinstance(x, RealInterval):
        return x
    return RealInterval(Fraction(x), Fraction(x))


def _atan_inv(q: int, g: int) -> tuple[int, int]:
    """(s, n) with |2^g*atan(1/q) - s| < n, for q >= 2, summed on integers.

    2^g*atan(1/q) is the alternating sum of T_k = 2^g/((2k+1)*q^(2k+1)).
    The loop keeps p = floor(2^g/q^(2k+1)), dividing by q^2 each step, and
    adds t_k = floor(p/(2k+1)), which is floor(T_k) by the nested-floor
    identity floor(floor(x/a)/b) = floor(x/(a*b)) for integers a, b > 0.
    It stops at the first k with p = 0: then q^(2k+1) > 2^g, so T_k < 1,
    and the alternating tail, whose terms fall to 0, is below T_k.  The k
    floors and the tail are each off by less than 1, so n = k + 1.
    """
    s = k = 0
    qq = q * q
    p = (1 << g) // q
    while p:
        t = p // (2 * k + 1)
        s += -t if k & 1 else t
        k += 1
        p //= qq
    return s, k + 1


def _working_bits(bits: int) -> int:
    """Precision g of the fixed-point sums below.  They are off by O(g)
    units of 2^-g, so these guard bits keep the error below 2^-(bits + 12),
    a 256th of the grid that _fixed_point rounds to."""
    if bits < 8:
        raise ValueError("bits must be >= 8")
    return bits + bits.bit_length() + 16


def _fixed_point(lo: int, hi: int, g: int, bits: int) -> RealInterval:
    """[lo, hi]/2^g rounded outward to denominator 2^(bits + 4), tagged bits."""
    out = RealInterval(Fraction(lo, 1 << g), Fraction(hi, 1 << g)).dyadic_rounded(bits + 4)
    return RealInterval(out.lo, out.hi, bits)


def const_pi(bits: int) -> RealInterval:
    """Enclosure of pi by Machin's formula 16*atan(1/5) - 4*atan(1/239),
    each atan summed at g bits by _atan_inv: 16*s5 - 4*s239 is off from
    2^g*pi by less than 16*n5 + 4*n239."""
    g = _working_bits(bits)
    s5, n5 = _atan_inv(5, g)
    s239, n239 = _atan_inv(239, g)
    s, n = 16 * s5 - 4 * s239, 16 * n5 + 4 * n239
    return _fixed_point(s - n, s + n, g, bits)


def const_e(bits: int) -> RealInterval:
    """Enclosure of e = sum 1/k!, summed on integers at g bits.

    Term t_k = floor(t_(k-1)/k) with t_0 = 2^g is floor(2^g/k!) by the same
    nested-floor identity as in _atan_inv, so 0 <= 2^g/k! - t_k < 1, and
    t_0, t_1 are exact.  The sum s stops at the first k with t_k = 0, where
    k! > 2^g; the tail sum_(j >= k) 2^g/j! is at most 2^g/k! * (1 + 1/(k+1)
    + 1/(k+1)^2 + ...) <= 2 * 2^g/k! < 2.  So 2^g*e lies in [s, s + k]: the
    k - 2 inexact floors add less than k - 2, the tail less than 2.
    """
    g = _working_bits(bits)
    s = k = 0
    t = 1 << g
    while t:
        s += t
        k += 1
        t //= k
    return _fixed_point(s, s + k, g, bits)


@functools.lru_cache(maxsize=64)
def const_sqrt2(bits: int) -> RealInterval:
    """Enclosure of sqrt2 of width 2^-bits, built once per precision: a
    certified floor asks for the same few precisions on every step."""
    s = 1 << bits
    r = floor_rat_sqrt2(s, 1)
    return RealInterval(Fraction(r, s), Fraction(r + 1, s), bits)


# --- expression trees -------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | base ('^' integer)?
# base   := number | 'pi' | 'e' | 'sqrt2' | '(' expr ')'
#
# Numbers are integer or decimal literals; decimals parse to exact rationals
# ("0.2928" -> 2928/10000).

Expr = tuple


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self) -> Expr:
        if self.peek() == "-":  # unary minus binds looser than '^': -2^2 is -4
            self.pos += 1
            return ("neg", self.factor())
        node = self.base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ParseError("expected integer exponent", start)
            node = ("pow", node, sign * int(self.text[start:self.pos]))
        return node

    def base(self) -> Expr:
        self.skip_ws()
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        if c.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] == ".":
                self.pos += 1
                fstart = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                whole = self.text[start:fstart - 1]
                frac = self.text[fstart:self.pos]
                val = Fraction(int(whole + frac), 10 ** len(frac))
            else:
                val = Fraction(int(self.text[start:self.pos]))
            return ("num", val)
        for name in ("sqrt2", "pi", "e"):
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return ("const", name)
        msg = f"unexpected character {c!r}" if c else "unexpected end of input"
        raise ParseError(msg, self.pos)

    def parse(self) -> Expr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)
        return node


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


def format_expr(node: Expr) -> str:
    kind = node[0]
    if kind == "num":
        v = node[1]
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if kind == "const":
        return node[1]
    if kind == "pow":
        base = format_expr(node[1])
        # a constant name or a nonnegative integer reads the same bare, and
        # a binary operation brings its own parentheses
        if node[1][0] in ("neg", "pow") or (node[1][0] == "num" and not base.isdigit()):
            base = f"({base})"
        return f"{base}^{node[2]}"
    if kind == "neg":
        return f"-{format_expr(node[1])}"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({format_expr(node[1])}{op}{format_expr(node[2])})"


def eval_expr(node: Expr, bits: int) -> RealInterval:
    """Sound interval evaluation of an expression tree at a precision level."""
    kind = node[0]
    if kind == "num":
        return RealInterval(node[1], node[1], bits)
    if kind == "const":
        return {"pi": const_pi, "e": const_e, "sqrt2": const_sqrt2}[node[1]](bits)
    if kind == "pow":
        return eval_expr(node[1], bits).pow_int(node[2])
    if kind == "neg":
        x = eval_expr(node[1], bits)
        return RealInterval(-x.hi, -x.lo, x.bits)
    lhs = eval_expr(node[1], bits)
    rhs = eval_expr(node[2], bits)
    if kind == "add":
        return lhs + rhs
    if kind == "sub":
        return lhs - rhs
    if kind == "div":
        return lhs / rhs
    return lhs * rhs


def exact_value(node: Expr) -> QSqrt2 | None:
    """Exact Q(sqrt2) value of an expression, or None if it involves pi/e."""
    kind = node[0]
    if kind == "num":
        return QSqrt2(node[1], Fraction(0))
    if kind == "const":
        if node[1] == "sqrt2":
            return QSqrt2.sqrt2()
        return None
    if kind == "pow":
        base = exact_value(node[1])
        if base is None:
            return None
        k = node[2]
        if k < 0:
            base = QSqrt2.of(1) / base
            k = -k
        out = QSqrt2.of(1)
        while k:  # square and multiply: about 2*log2(k) products, not k
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out
    if kind == "neg":
        x = exact_value(node[1])
        return None if x is None else -x
    lhs = exact_value(node[1])
    rhs = exact_value(node[2])
    if lhs is None or rhs is None:
        return None
    if kind == "add":
        return lhs + rhs
    if kind == "sub":
        return lhs - rhs
    if kind == "div":
        return lhs / rhs
    return lhs * rhs


class RefinableReal:
    """A real given by an expression tree, refinable to any bit width.

    The cache only grows, and every new enclosure is intersected with the
    cached one so successive refinements are nested.
    """

    def __init__(self, expression: Expr | str):
        if isinstance(expression, str):
            expression = parse_expr(expression)
        self.expression = expression
        self._cached: RealInterval | None = None

    def refine(self, bits: int) -> RealInterval:
        if self._cached is not None and self._cached.bits >= bits:
            return self._cached
        iv = eval_expr(self.expression, bits).dyadic_rounded(bits + 4)
        iv = RealInterval(iv.lo, iv.hi, bits)
        if self._cached is not None:
            iv = self._cached.intersect(iv)
            iv = RealInterval(iv.lo, iv.hi, bits)
        self._cached = iv
        return iv

    def __repr__(self):
        return f"RefinableReal({format_expr(self.expression)})"


def certified_floor(
    x: RefinableReal,
    addend: int = 0,
    max_bits: int = 4096,
) -> int:
    """floor(sqrt2 * (addend + x)), certified.

    Starts at addend.bit_length() + 32 bits, at least 64 and rounded up to a
    power of two (so a trace refines x O(log depth) times), and doubles until
    both endpoints of the enclosure share the same integer part; raises
    UndecidableError at `max_bits`, which no attempt exceeds.  An EvalError
    from x.refine (a divisor enclosing 0) is re-raised only at `max_bits`.
    """
    bits = min(1 << max(6, (addend.bit_length() + 31).bit_length()), max_bits)
    while True:
        try:
            # one product: sqrt2*(v + eps) is sqrt2*v + sqrt2*eps when v, eps >= 0
            # and lies inside it otherwise (subdistributivity, Moore 1966)
            iv = const_sqrt2(bits) * (x.refine(bits) + addend)
        except EvalError:
            if bits >= max_bits:
                raise
        else:
            flo = iv.lo.numerator // iv.lo.denominator
            fhi = iv.hi.numerator // iv.hi.denominator
            if flo == fhi:
                return flo
            if bits >= max_bits:
                raise UndecidableError(max_bits, iv.lo, iv.hi)
        bits = min(bits * 2, max_bits)
