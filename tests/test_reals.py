"""Interval enclosures, constants, the expression grammar, certified floors."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gppairs import reals
from gppairs.engine import SequenceSpec, generate
from gppairs.exact import QSqrt2, floor_q
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

ENDPOINT = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=100))

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

    @given(ENDPOINT, ENDPOINT, ENDPOINT, ENDPOINT)
    def test_mul_is_hull_of_endpoint_products(self, a, b, c, d):
        # every sign pattern of either operand, zero ends included
        x = RealInterval(min(a, b), max(a, b))
        y = RealInterval(min(c, d), max(c, d))
        prods = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi]
        z = x * y
        assert (z.lo, z.hi) == (min(prods), max(prods))

    @given(ENDPOINT, ENDPOINT,
           st.one_of(st.integers(-50, 50), st.fractions(max_denominator=100)))
    def test_mul_by_scalar_on_either_side(self, a, b, k):
        x = RealInterval(min(a, b), max(a, b))
        want = (min(x.lo * k, x.hi * k), max(x.lo * k, x.hi * k))
        for z in (x * k, k * x):
            assert (z.lo, z.hi) == want

    @given(ENDPOINT, ENDPOINT, st.integers(0, 4096),
           st.one_of(st.integers(-50, 50), st.fractions(max_denominator=100)))
    def test_scalar_acts_as_its_point_interval(self, a, b, bits, c):
        # every sign pattern of the interval and of c, zero included
        x = RealInterval(min(a, b), max(a, b), bits)
        p = RealInterval(Fraction(c), Fraction(c), bits)
        assert x + c == c + x == x + p
        assert x - c == x - p
        assert c - x == p - x
        assert x * c == c * x == x * p

    def test_pow_keeps_denominators_small(self):
        # exact products would carry a denominator of about 2*10^6 bits
        iv = eval_expr(parse_expr("pi^1000"), 2048)
        assert max(iv.lo.denominator.bit_length(), iv.hi.denominator.bit_length()) <= 2048
        # and the rounded power still encloses the exact one, barely wider
        pi = const_pi(2048)
        iv = pi.pow_int(100)
        lo, hi = pi.lo ** 100, pi.hi ** 100
        assert iv.lo <= lo and hi <= iv.hi
        assert iv.width <= (hi - lo) * (1 + Fraction(1, 2**20))

    def test_pow_of_point_stays_exact(self):
        iv = RealInterval(Fraction(-2, 3), Fraction(-2, 3)).pow_int(-7)
        assert iv.lo == iv.hi == Fraction(-3, 2) ** 7

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


def ref_atan_inv(q: int, bits: int) -> RealInterval:
    """Reference enclosure of atan(1/q) by exact partial sums in Fractions."""
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


def ref_pi(bits: int) -> RealInterval:
    """Reference pi: Machin's formula on ref_atan_inv."""
    a5 = ref_atan_inv(5, bits + 8)
    a239 = ref_atan_inv(239, bits + 8)
    out = (16 * a5 - 4 * a239).dyadic_rounded(bits + 4)
    return RealInterval(out.lo, out.hi, bits)


def ref_e(bits: int) -> RealInterval:
    """Reference e: sum 1/k! in Fractions with tail bound 2/(K+1)!."""
    s = Fraction(0)
    k = 0
    fact = 1  # k!
    bound = Fraction(1, 1 << (bits + 2))
    while True:
        s += Fraction(1, fact)
        k += 1
        fact *= k
        tail = Fraction(2, fact)
        if tail < bound:
            out = RealInterval(s, s + tail).dyadic_rounded(bits + 4)
            return RealInterval(out.lo, out.hi, bits)


class TestConstants:
    # the reference decimals are rounded at 50 places
    REF_SLACK = Fraction(1, 10**49)

    @pytest.mark.parametrize("const, ref", [(const_pi, ref_pi), (const_e, ref_e)],
                             ids=["pi", "e"])
    def test_integer_sums_enclose_the_fraction_series(self, const, ref):
        for bits in [*range(8, 601), 1024, 2048, 4096]:
            iv = const(bits)
            # sound: the reference's far narrower enclosure lies inside
            assert iv.encloses(ref(bits + 64)), bits
            assert iv.width <= Fraction(1, 1 << (bits - 2)), bits
            assert iv.bits == bits

    @pytest.mark.parametrize("const, ref", [(const_pi, ref_pi), (const_e, ref_e)],
                             ids=["pi", "e"])
    def test_never_wider_than_the_fraction_series(self, const, ref):
        # the guard bits put the sums' error far below the output grid, so
        # the rounded enclosure is the grid step holding the constant
        for bits in range(8, 601):
            assert ref(bits).encloses(const(bits)), bits

    @given(st.integers(2, 300), st.integers(8, 600))
    def test_atan_error_bound(self, q, g):
        s, n = reals._atan_inv(q, g)
        # exact partial sums until two consecutive ones, which bracket
        # atan(1/q), are 2^-(g + 32) apart
        lo = hi = Fraction(0)
        k, den, tiny = 0, q, Fraction(1, 1 << (g + 32))
        while True:
            t = Fraction(1, (2 * k + 1) * den)
            lo, hi = hi, hi + t if k % 2 == 0 else hi - t
            if t < tiny:
                break
            k += 1
            den *= q * q
        for bracket_end in (lo, hi):
            assert abs(bracket_end * (1 << g) - s) < n

    def test_against_mpmath_at_4096_bits(self):
        import mpmath

        # mpf values are exact dyadics, here within 2^-4190 of the constant
        slack = Fraction(1, 1 << 4190)
        with mpmath.workprec(4200):
            for iv, ref in ((const_pi(4096), +mpmath.pi), (const_e(4096), +mpmath.e)):
                man, exp = ref.man_exp
                x = Fraction(man) * Fraction(2) ** exp
                assert iv.lo + slack < x < iv.hi - slack

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

    def test_sqrt2_cached_per_precision(self):
        for bits in range(8, 4097):
            r = math.isqrt(2 << (2 * bits))
            fresh = RealInterval(Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits), bits)
            iv = const_sqrt2(bits)
            assert iv == fresh
            assert const_sqrt2(bits) is iv

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

    def test_exact_power_keeps_pell_norm(self):
        # (1+sqrt2)^n = P + Q*sqrt2 with P^2 - 2Q^2 = (-1)^n
        n = 20000
        x = exact_value(parse_expr(f"(1+sqrt2)^{n}"))
        assert x.a.denominator == x.b.denominator == 1
        assert x.a * x.a - 2 * x.b * x.b == (-1) ** n
        assert x.b.numerator.bit_length() > n

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6),
           st.integers(-30, 30))
    def test_exact_power_is_repeated_product(self, p, r, q, k):
        assume(p or r or k >= 0)
        base = ("div", ("add", ("num", Fraction(p)),
                        ("mul", ("num", Fraction(r)), ("const", "sqrt2"))),
                ("num", Fraction(q)))
        x = QSqrt2.of(Fraction(p, q), Fraction(r, q))
        step = x if k >= 0 else 1 / x
        want = QSqrt2.of(1)
        for _ in range(abs(k)):
            want = want * step
        assert exact_value(("pow", base, k)) == want

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
        # a power's base is bare only when it is a constant name or a
        # nonnegative integer
        assert format_expr(parse_expr("pi^1000")) == "pi^1000"
        assert format_expr(parse_expr("1-pi^2/e^3")) == "(1-(pi^2/e^3))"
        assert format_expr(parse_expr("(-2)^2")) == "(-2)^2"
        assert exact_value(parse_expr("(-2)^2")) == QSqrt2.of(4)
        assert format_expr(parse_expr("(1/3)^2")) == "(1/3)^2"


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


ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda x: pickle.loads(pickle.dumps(x))}
IMMUTABLE = [
    pytest.param(value, name, id=f"{type(value).__name__}.{name}")
    for value, names in ((SequenceSpec(Fraction(1, 2), 5), ("epsilon", "depth", "max_bits")),
                         (RealInterval(Fraction(1, 3), Fraction(1, 2), 8), ("lo", "hi", "bits")))
    for name in names]


class TestValueTypes:
    @pytest.mark.parametrize("value, name", IMMUTABLE)
    def test_immutable(self, value, name):
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert repr(value) == before

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_copy_and_pickle(self, trip):
        iv = RealInterval(Fraction(1, 3), Fraction(1, 2), 8)
        spec = SequenceSpec(Fraction(1, 2), 5)
        assert trip(iv) == iv
        assert trip(spec) == spec and type(trip(spec)) is SequenceSpec
        x = RefinableReal("1-pi^2/e^3")
        x.refine(128)
        assert trip(x)._cached == x._cached

    def test_spec_repr(self):
        assert repr(SequenceSpec(Fraction(1, 2), 5)) == (
            "SequenceSpec(epsilon=QSqrt2(a=Fraction(1, 2), b=Fraction(0, 1)), "
            "depth=5, max_bits=4096)")


DYADIC = st.one_of(st.just(Fraction(0)),
                   st.builds(lambda n, k: Fraction(n, 1 << k),
                             st.integers(-(1 << 40), 1 << 40), st.integers(0, 64)))


class TestCertifiedFloor:
    @given(DYADIC, DYADIC, st.integers(-10**6, 10**6), st.integers(8, 512))
    def test_one_product_inside_the_sum_of_two(self, a, b, v, bits):
        # subdistributivity: s*(x + v) lies inside s*v + s*x, and equals it
        # when v and x are nonnegative
        x = RealInterval(min(a, b), max(a, b))
        s2 = const_sqrt2(bits)
        one = s2 * (x + v)
        two = s2 * v + s2 * x
        assert two.encloses(one)
        if v >= 0 and x.lo >= 0:
            assert (one.lo, one.hi) == (two.lo, two.hi)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-10**6, 10**6))
    def test_agrees_with_exact_floor_on_rationals(self, n, d, v):
        # refine widens n/d outward, so an enclosure of sqrt2*0 straddles 0
        assume(v * d + n != 0)
        want = floor_q(QSqrt2.sqrt2() * (v + Fraction(n, d)))
        assert certified_floor(RefinableReal(f"{n}/{d}"), addend=v) == want

    def test_exact_only(self):
        # floor(sqrt2 * 10) = 14 with a zero refinable part
        assert certified_floor(RefinableReal("0"), addend=10) == 14

    def test_transcendental_offset(self):
        eps = RefinableReal("1-pi^2/e^3")
        # floor(sqrt2*(1 + eps)) with eps ~ 0.50862
        assert certified_floor(eps, addend=1) == 2

    def test_half_offset(self):
        assert certified_floor(RefinableReal("1/2"), addend=1) == 2

    @pytest.mark.parametrize("addend, first_bits", [(0, 64), (2**200, 256)],
                             ids=["addend-0", "addend-2^200"])
    def test_start_precision_from_addend(self, monkeypatch, addend, first_bits):
        # addend.bit_length() + 32 bits, at least 64, rounded up to a power of
        # two: a 201-bit addend decides on its first attempt
        bits = []

        def counting_sqrt2(b):
            bits.append(b)
            return const_sqrt2(b)

        monkeypatch.setattr(reals, "const_sqrt2", counting_sqrt2)
        want = floor_q(QSqrt2.of(0, addend + Fraction(1, 3)))
        assert certified_floor(RefinableReal("1/3"), addend=addend) == want
        assert bits == [first_bits]

    def test_divisor_holding_zero_is_refined_up_to_the_budget(self):
        # about 0.3369; at 64 bits the divisor's enclosure holds 0
        x = RefinableReal("1/(2^81*(1783366216531/567663097408-pi))")
        with pytest.raises(EvalError):
            x.refine(64)
        assert certified_floor(x, addend=1) == 1
        with pytest.raises(EvalError):
            certified_floor(RefinableReal("1/(pi-pi)"), max_bits=256)

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

    @pytest.mark.parametrize("eps", [Fraction(-1, 3), Fraction(1, 3)])
    @pytest.mark.parametrize("n", [-12345, -100, -7, -1, 0])
    def test_agrees_with_exact_floor_across_signs(self, eps, n):
        # a negative n or eps takes the four-product branch of RealInterval.__mul__
        want = floor_q(QSqrt2.of(0, n + eps))
        assert certified_floor(RefinableReal(str(eps)), addend=n) == want

    def test_negative_offset_trace_matches_exact(self):
        exact = generate(SequenceSpec(Fraction(-1, 3), depth=201))
        assert min(exact.values) < 0
        assert generate(SequenceSpec(RefinableReal("-1/3"), depth=201)) == exact
