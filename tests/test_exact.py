"""Exact Q(sqrt2) arithmetic: sign, floor, isqrt, text round-trip."""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gppairs.discovery import sweep
from gppairs.exact import (
    QSqrt2,
    floor_q,
    floor_rat_sqrt2,
    format_qsqrt2,
    frac_q,
    integer_form,
    isqrt,
)
from gppairs.reals import exact_value, parse_expr
from gppairs.table import DOMAIN_HI, DOMAIN_LO

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4)
qsqrt2s = st.builds(QSqrt2, rationals, rationals)
operands = st.one_of(qsqrt2s, rationals, st.integers(min_value=-10**6, max_value=10**6))


# The reference: a + b*sqrt2 as a plain (Fraction, Fraction) pair.
def ref_of(x) -> tuple[Fraction, Fraction]:
    return (x.a, x.b) if isinstance(x, QSqrt2) else (Fraction(x), Fraction(0))


def ref_div(a, b, c, d):
    norm = c * c - 2 * d * d
    return (a * c - 2 * b * d) / norm, (b * c - a * d) / norm


REF_OPS = {
    operator.add: lambda a, b, c, d: (a + c, b + d),
    operator.sub: lambda a, b, c, d: (a - c, b - d),
    operator.mul: lambda a, b, c, d: (a * c + 2 * b * d, a * d + b * c),
    operator.truediv: ref_div,
}


def ref_sign(a: Fraction, b: Fraction) -> int:
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a^2 against 2 b^2, combine with the sign of a
    lhs, rhs = a * a, 2 * b * b
    if a > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


class TestIsqrt:
    def test_small_values(self):
        assert [isqrt(n) for n in range(10)] == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            isqrt(-1)

    @given(st.integers(min_value=0, max_value=10**40))
    def test_bracketing(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)

    def test_huge_perfect_square(self):
        n = (10**50 + 3) ** 2
        assert isqrt(n) == 10**50 + 3
        assert isqrt(n - 1) == 10**50 + 2


class TestSign:
    def test_zero(self):
        assert QSqrt2.of(0).sign() == 0

    def test_cancellation_near_zero(self):
        # convergents of sqrt2 straddle it: 1393^2 = 2*985^2 - 1 (below),
        # 3363^2 = 2*2378^2 + 1 (above); both differences are ~1e-7
        assert (QSqrt2.of(Fraction(1393, 985)) - QSqrt2.sqrt2()).sign() == -1
        assert (QSqrt2.of(Fraction(3363, 2378)) - QSqrt2.sqrt2()).sign() == 1

    @given(qsqrt2s)
    def test_sign_matches_float(self, x):
        approx = float(x.a) + float(x.b) * math.sqrt(2)
        if abs(approx) > 1e-6:
            assert x.sign() == (1 if approx > 0 else -1)

    @given(qsqrt2s)
    def test_sign_antisymmetry(self, x):
        assert (-x).sign() == -x.sign()


class TestFieldOps:
    @given(qsqrt2s, qsqrt2s)
    def test_add_sub_roundtrip(self, x, y):
        assert (x + y) - y == x

    @given(qsqrt2s, qsqrt2s)
    def test_mul_div_roundtrip(self, x, y):
        if y.sign() != 0:
            assert ((x * y) / y) == x

    @given(qsqrt2s)
    def test_sqrt2_squares_to_two(self, x):
        s2 = QSqrt2.sqrt2()
        assert s2 * s2 == QSqrt2.of(2)
        assert (x * s2) * s2 == x * 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QSqrt2.of(1) / QSqrt2.of(0)

    def test_as_fraction(self):
        assert QSqrt2.of(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
        with pytest.raises(ValueError):
            QSqrt2.sqrt2().as_fraction()


class TestAgainstFractionPairs:
    @given(st.sampled_from(list(REF_OPS)), qsqrt2s, operands, st.booleans())
    def test_arithmetic(self, op, x, y, swap):
        # swapped, an int or Fraction on the left runs the reflected method
        lhs, rhs = (y, x) if swap else (x, y)
        (a, b), (c, d) = ref_of(lhs), ref_of(rhs)
        if op is operator.truediv and c == d == 0:
            with pytest.raises(ZeroDivisionError):
                op(lhs, rhs)
            return
        out = op(lhs, rhs)
        assert isinstance(out, QSqrt2)
        assert (out.a, out.b) == REF_OPS[op](a, b, c, d)

    @given(qsqrt2s, operands)
    def test_sign_and_comparisons(self, x, y):
        (a, b), (c, d) = ref_of(x), ref_of(y)
        assert x.sign() == ref_sign(a, b)
        s = ref_sign(a - c, b - d)
        assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
        assert (y < x, y <= x, y > x, y >= x) == (s > 0, s >= 0, s < 0, s <= 0)
        assert x <= x and x >= x and not x < x and not x > x

    @given(qsqrt2s)
    def test_negation(self, x):
        assert ref_of(-x) == (-x.a, -x.b)


class TestCanonicalForm:
    def test_examples(self):
        half = QSqrt2.of(Fraction(1, 2))
        assert QSqrt2(Fraction(2, 4), 0) == half
        assert hash(QSqrt2(Fraction(2, 4), 0)) == hash(half)
        assert integer_form(half) == (1, 0, 2)
        assert integer_form(QSqrt2.of(Fraction(-3, 4), Fraction(5, 6))) == (-9, 10, 12)
        s2 = QSqrt2.sqrt2()
        for zero in (QSqrt2(), QSqrt2.of(0), s2 - s2, s2 * 0, QSqrt2.of(0) / s2):
            assert integer_form(zero) == (0, 0, 1)
            assert zero == QSqrt2() and hash(zero) == hash(QSqrt2())

    @given(st.sampled_from(list(REF_OPS)), qsqrt2s, operands)
    def test_every_result_is_reduced(self, op, x, y):
        if op is operator.truediv and ref_of(y) == (0, 0):
            return
        for out in (x, op(x, y), -op(x, y)):
            p, r, q = integer_form(out)
            assert q > 0 and math.gcd(p, r, q) == 1
            # the same value built another way has the same triple and hash
            for same in (QSqrt2(out.a, out.b), (out * 6) / 6, out + 3 - 3):
                assert same == out and hash(same) == hash(out)
                assert integer_form(same) == (p, r, q)

    @given(st.sampled_from(list(REF_OPS)), qsqrt2s, qsqrt2s)
    def test_text_roundtrip(self, op, x, y):
        out = x if op is operator.truediv and y.sign() == 0 else op(x, y)
        assert exact_value(parse_expr(str(out))) == out

    @pytest.mark.parametrize("name", ["a", "b", "_p", "_r", "_q", "c"])
    def test_immutable(self, name):
        x = QSqrt2.of(1, 2)
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert x == QSqrt2.of(1, 2)

    def test_repr_copy_pickle(self):
        x = QSqrt2.of(Fraction(-1, 2), 3)
        assert repr(x) == "QSqrt2(a=Fraction(-1, 2), b=Fraction(3, 1))"
        assert copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x

    def test_not_equal_to_rationals(self):
        # equality is between QSqrt2 values only, as for the former dataclass
        assert QSqrt2.of(1) != 1
        assert QSqrt2.of(Fraction(1, 2)) != Fraction(1, 2)

    @pytest.mark.parametrize("make", [
        lambda: QSqrt2.of(0.1),
        lambda: QSqrt2.of(1, 0.5),
        lambda: QSqrt2(0.5, 0),
        lambda: QSqrt2(Fraction(1, 2), "1/2"),
        lambda: QSqrt2.of(1) + 0.1,
        lambda: 0.1 + QSqrt2.of(1),
        lambda: QSqrt2.of(1) - 0.5,
        lambda: 0.5 - QSqrt2.of(1),
        lambda: QSqrt2.of(1) * 0.5,
        lambda: QSqrt2.of(1) / 0.5,
        lambda: 0.5 / QSqrt2.of(1),
        lambda: QSqrt2.of(1) < 0.5,
        lambda: QSqrt2.of(1) >= 0.5,
    ])
    def test_floats_rejected(self, make):
        # 0.1 is a binary fraction, not 1/10: no float enters exactly
        with pytest.raises(TypeError):
            make()


class TestFloor:
    def test_examples(self):
        assert floor_q(QSqrt2.sqrt2()) == 1
        assert floor_q(QSqrt2.of(0, 100)) == 141
        assert floor_q(QSqrt2.of(Fraction(-1, 2))) == -1
        assert floor_q(-QSqrt2.sqrt2()) == -2

    @given(qsqrt2s)
    def test_floor_bracketing(self, x):
        n = floor_q(x)
        assert (x - n).sign() >= 0
        assert (x - (n + 1)).sign() < 0

    @given(qsqrt2s, st.integers(min_value=-1000, max_value=1000))
    def test_floor_shift_invariance(self, x, k):
        assert floor_q(x + k) == floor_q(x) + k

    @given(qsqrt2s)
    def test_frac_in_unit_interval(self, x):
        f = frac_q(x)
        assert f.sign() >= 0
        assert (f - 1).sign() < 0

    @given(st.fractions(min_value=Fraction(0), max_value=Fraction(10**6),
                        max_denominator=10**4))
    def test_rational_floor_agrees(self, q):
        assert floor_q(QSqrt2.of(q)) == q.numerator // q.denominator


class TestFloorScaled:
    def test_binary_digits_of_sqrt2(self):
        # floor(sqrt2 * 2^m) successive bits: sqrt2 = (1.0110101000...)_2
        bits = [floor_rat_sqrt2(1 << m, 1) - 2 * floor_rat_sqrt2(1 << (m - 1), 1)
                for m in range(1, 11)]
        assert bits == [0, 1, 1, 0, 1, 0, 1, 0, 0, 0]

    @given(st.integers(min_value=-10**9, max_value=10**9),
           st.integers(min_value=-20, max_value=20))
    def test_agrees_with_floor_q(self, alpha, m):
        # floor(alpha * sqrt2 * 2^m) as floor((num/den) * sqrt2)
        num, den = (alpha << m, 1) if m >= 0 else (alpha, 1 << -m)
        scale = Fraction(2) ** m
        assert floor_rat_sqrt2(num, den) == floor_q(QSqrt2.of(0, alpha * scale))


def parse_qsqrt2(text: str) -> QSqrt2:
    """The text form read back through the expression grammar."""
    return exact_value(parse_expr(text))


class TestFormatParse:
    @pytest.mark.parametrize("text, value", [
        ("0", QSqrt2.of(0)),
        ("sqrt2", QSqrt2.sqrt2()),
        ("-sqrt2", -QSqrt2.sqrt2()),
        ("1-1/2*sqrt2", QSqrt2.of(1, Fraction(-1, 2))),
        ("-218+309/2*sqrt2", QSqrt2.of(-218, Fraction(309, 2))),
        ("3/4", QSqrt2.of(Fraction(3, 4))),
    ])
    def test_parse_examples(self, text, value):
        assert parse_qsqrt2(text) == value

    @given(qsqrt2s)
    def test_roundtrip(self, x):
        assert parse_qsqrt2(format_qsqrt2(x)) == x

    def test_sweep_endpoints_roundtrip(self):
        # breakpoints of a depth-600 sweep have coefficients of about 280 bits
        cells = sweep(DOMAIN_LO, DOMAIN_HI, 600)
        assert len(cells) == 9
        for x in [c.lo for c in cells] + [cells[-1].hi]:
            assert parse_qsqrt2(str(x)) == x

    @pytest.mark.parametrize("bad", ["", "sqrt3", "1+", "+ +"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_qsqrt2(bad)


class TestDecimal:
    def test_sqrt2_digits(self):
        assert QSqrt2.sqrt2().to_decimal(12) == "1.414213562373"

    def test_truncation_of_negative(self):
        assert QSqrt2.of(Fraction(-1, 3)).to_decimal(4) == "-0.3334"
