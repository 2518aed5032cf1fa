"""Interval enclosures, constants, the expression grammar, certified floors."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gppairs.exact import QSqrt2
from gppairs.reals import (
    EvalError,
    ParseError,
    RealInterval,
    RefinableReal,
    UndecidableError,
    certified_floor,
    const_e,
    const_pi,
    const_sqrt2,
    eval_expr,
    exact_value,
    format_expr,
    parse_expr,
)

PI_REF = Fraction("3.14159265358979323846264338327950288419716939937511")
E_REF = Fraction("2.71828182845904523536028747135266249775724709369996")


class TestRealInterval:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RealInterval(Fraction(1), Fraction(0))

    def test_contains_qsqrt2(self):
        iv = RealInterval(Fraction(14, 10), Fraction(15, 10))
        assert iv.contains(QSqrt2.sqrt2())
        assert not iv.contains(QSqrt2.of(1))

    @given(st.fractions(max_denominator=100), st.fractions(max_denominator=100),
           st.fractions(max_denominator=100), st.fractions(max_denominator=100))
    def test_mul_encloses_products(self, a, b, c, d):
        x = RealInterval(min(a, b), max(a, b))
        y = RealInterval(min(c, d), max(c, d))
        assert (x * y).contains(x.lo * y.hi)
        assert (x * y).contains(x.mid * y.mid)

    def test_division_by_zero_interval(self):
        with pytest.raises(EvalError):
            RealInterval(Fraction(1), Fraction(1)) / RealInterval(Fraction(-1), Fraction(1))

    def test_pow_negative(self):
        iv = RealInterval(Fraction(2), Fraction(2)).pow_int(-2)
        assert iv.contains(Fraction(1, 4))

    def test_dyadic_rounding_is_outward(self):
        iv = RealInterval(Fraction(1, 3), Fraction(2, 3))
        r = iv.dyadic_rounded(8)
        assert r.encloses(iv)
        assert r.lo.denominator <= 256 and r.hi.denominator <= 256


class TestConstants:
    # the reference decimals are rounded at 50 places
    REF_SLACK = Fraction(1, 10**49)

    @pytest.mark.parametrize("bits", [16, 64, 256])
    def test_pi_enclosure(self, bits):
        iv = const_pi(bits)
        assert iv.lo - self.REF_SLACK <= PI_REF <= iv.hi + self.REF_SLACK
        assert iv.width <= Fraction(1, 1 << (bits - 2))

    @pytest.mark.parametrize("bits", [16, 64, 256])
    def test_e_enclosure(self, bits):
        iv = const_e(bits)
        assert iv.lo - self.REF_SLACK <= E_REF <= iv.hi + self.REF_SLACK
        assert iv.width <= Fraction(1, 1 << (bits - 2))

    @pytest.mark.parametrize("bits", [16, 64, 256])
    def test_sqrt2_enclosure(self, bits):
        iv = const_sqrt2(bits)
        assert iv.contains(QSqrt2.sqrt2())
        assert iv.width == Fraction(1, 1 << bits)

    def test_nested_refinement(self):
        assert const_pi(64).encloses(const_pi(256))
        assert const_e(64).encloses(const_e(256))
        assert const_sqrt2(64).encloses(const_sqrt2(512))


class TestGrammar:
    @pytest.mark.parametrize("text, value", [
        ("1/2", 0.5),
        ("0.2928", 0.2928),
        ("1-pi^2/e^3", 1 - math.pi**2 / math.e**3),
        ("(1+sqrt2)/2", (1 + math.sqrt(2)) / 2),
        ("2^-2", 0.25),
        ("-0.5+1", 0.5),
    ])
    def test_eval_matches_float(self, text, value):
        iv = eval_expr(parse_expr(text), 64)
        assert float(iv.lo) == pytest.approx(value, abs=1e-12)
        assert float(iv.hi) == pytest.approx(value, abs=1e-12)

    def test_decimal_literal_is_exact(self):
        node = parse_expr("0.2928")
        assert exact_value(node) == QSqrt2.of(Fraction(2928, 10000))

    def test_exact_value_routes_sqrt2(self):
        assert exact_value(parse_expr("(309/2)*sqrt2-218")) == \
            QSqrt2.of(-218, Fraction(309, 2))

    def test_exact_value_none_for_transcendentals(self):
        assert exact_value(parse_expr("1-pi^2/e^3")) is None

    @pytest.mark.parametrize("bad", ["", "1+", "((1)", "pi pi", "2^x", "sqrt3"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    @pytest.mark.parametrize("text, pos", [("", 0), ("1+", 2)])
    def test_end_of_input_is_named(self, text, pos):
        with pytest.raises(ParseError, match=f"^unexpected end of input at position {pos}$"):
            parse_expr(text)

    def test_format_roundtrip(self):
        for text in ["1-pi^2/e^3", "0.2928", "(1+sqrt2)/2", "2^-2",
                     "-2^2", "-pi^2", "-pi", "2*-e", "1--pi^3", "(-2)^3", "--3/4"]:
            node = parse_expr(text)
            again = parse_expr(format_expr(node))
            assert eval_expr(node, 80).lo == eval_expr(again, 80).lo
        # unary minus binds looser than '^', as in 0-2^2, and echoes as itself
        assert exact_value(parse_expr("-2^2")) == exact_value(parse_expr("0-2^2")) == \
            QSqrt2.of(-4)
        assert eval_expr(parse_expr("-pi^2"), 80).hi < 0
        assert format_expr(parse_expr("-pi")) == "-pi"


class TestRefinableReal:
    def test_refinement_is_nested(self):
        x = RefinableReal("1-pi^2/e^3")
        coarse = x.refine(64)
        fine = x.refine(512)
        assert coarse.encloses(fine)
        assert fine.width < Fraction(1, 1 << 500)

    def test_cache_reuse(self):
        x = RefinableReal("pi")
        a = x.refine(128)
        b = x.refine(64)  # lower request served from the cache
        assert a == b


class TestCertifiedFloor:
    def test_exact_only(self):
        # floor(sqrt2 * 10) = 14 with a zero refinable part
        assert certified_floor(RefinableReal("0"), addend=10) == 14

    def test_transcendental_offset(self):
        eps = RefinableReal("1-pi^2/e^3")
        # floor(sqrt2*(1 + eps)) with eps ~ 0.50862
        assert certified_floor(eps, addend=1) == 2

    def test_half_offset(self):
        assert certified_floor(RefinableReal("1/2"), addend=1) == 2

    def test_undecidable_at_budget(self):
        # sqrt2*(sqrt2/2) = 1 exactly: no finite precision can decide the floor
        half_sqrt2 = RefinableReal("sqrt2/2")
        with pytest.raises(UndecidableError):
            certified_floor(half_sqrt2, max_bits=256)

    def test_agrees_with_exact_floor(self):
        from gppairs.exact import floor_q
        for n in (1, 7, 100, 12345):
            eps = RefinableReal("1/3")
            want = floor_q(QSqrt2.of(0, n + Fraction(1, 3)))
            assert certified_floor(eps, addend=n) == want
