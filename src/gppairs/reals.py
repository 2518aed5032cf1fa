"""Adaptive-precision interval enclosures with exact rational endpoints.

Covers the transcendental offsets the recurrences need (pi, e, and
expressions such as 1 - pi^2/e^3) plus a certified floor that refines the
enclosure until the integer part is decided.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QSqrt2, floor_rat_sqrt2


class EvalError(ValueError):
    """Raised when interval evaluation cannot proceed (e.g. division by an
    interval containing zero after the refinement cap)."""


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

    def __add__(self, other):
        other = _as_interval(other)
        return RealInterval(self.lo + other.lo, self.hi + other.hi, self.bits)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_interval(other)
        return RealInterval(self.lo - other.hi, self.hi - other.lo, self.bits)

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        other = _as_interval(other)
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
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
                out = out * r
            r = r * r
            k >>= 1
        return out

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


def _as_interval(x) -> RealInterval:
    if isinstance(x, RealInterval):
        return x
    return RealInterval(Fraction(x), Fraction(x))


def _atan_inv(q: int, bits: int) -> RealInterval:
    """Enclosure of atan(1/q), q >= 2, from the alternating Taylor series.

    Consecutive partial sums bracket the limit, which gives the tail bound
    for free; endpoints are exact partial sums.
    """
    s = Fraction(0)
    k = 0
    qq = q * q
    term_den = q
    bound = Fraction(1, 1 << (bits + 2))
    while True:
        t = Fraction(1, (2 * k + 1) * term_den)
        s_next = s + t if k % 2 == 0 else s - t
        if t < bound:
            return RealInterval(min(s, s_next), max(s, s_next), bits)
        s = s_next
        k += 1
        term_den *= qq


def const_pi(bits: int) -> RealInterval:
    """Enclosure of pi via Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    if bits < 8:
        raise ValueError("bits must be >= 8")
    a5 = _atan_inv(5, bits + 8)
    a239 = _atan_inv(239, bits + 8)
    out = (16 * a5 - 4 * a239).dyadic_rounded(bits + 4)
    return RealInterval(out.lo, out.hi, bits)


def const_e(bits: int) -> RealInterval:
    """Enclosure of e from sum 1/k! with tail bound 2/(K+1)!."""
    if bits < 8:
        raise ValueError("bits must be >= 8")
    s = Fraction(0)
    k = 0
    fact = 1  # k!
    bound = Fraction(1, 1 << (bits + 2))
    while True:
        s += Fraction(1, fact)
        k += 1
        fact *= k
        tail = Fraction(2, fact)  # 2/(k)! with k the next index: valid tail bound
        if tail < bound:
            out = RealInterval(s, s + tail).dyadic_rounded(bits + 4)
            return RealInterval(out.lo, out.hi, bits)


def const_sqrt2(bits: int) -> RealInterval:
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
        return f"({format_expr(node[1])})^{node[2]}"
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
        for _ in range(k):
            out = out * base
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
    start_bits: int = 64,
) -> int:
    """floor(sqrt2 * (addend + x)), certified.

    Doubles the working precision from `start_bits` until both endpoints of
    the enclosure share the same integer part; raises UndecidableError at
    `max_bits`, which no attempt exceeds.
    """
    bits = min(start_bits, max_bits)
    while True:
        s2 = const_sqrt2(bits)
        iv = s2 * addend + s2 * x.refine(bits)
        flo = iv.lo.numerator // iv.lo.denominator
        fhi = iv.hi.numerator // iv.hi.denominator
        if flo == fhi:
            return flo
        if bits >= max_bits:
            raise UndecidableError(max_bits, iv.lo, iv.hi)
        bits = min(bits * 2, max_bits)
