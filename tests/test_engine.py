"""Recurrence traces, digit extraction, verification, certification."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gppairs.engine import (
    ALPHA6,
    DELTA,
    HALF,
    SequenceSpec,
    closed_form_check,
    corollary_check,
    digits_from_trace,
    digits_of_target,
    exact_step,
    first_bad_digit,
    generate,
    lemma_checks,
    normality_probe,
    verify_pair,
)
from gppairs.exact import QSqrt2, floor_q, floor_rat_sqrt2, frac_q, integer_form
from gppairs import discovery, engine, reals
from gppairs.discovery import certify_pair, sweep
from gppairs.reals import RefinableReal, UndecidableError
from gppairs.table import (DOMAIN_HI, DOMAIN_LO, INNER_HI, INNER_LO, THEOREM_TABLE, entry,
                           halfint)

eps_values = st.fractions(min_value=Fraction(2929, 10000),
                          max_value=Fraction(7071, 10000),
                          max_denominator=10**6)
# mixed signs and large denominators: the kernel must not assume eps in the domain
big_fractions = st.fractions(min_value=-10**6, max_value=10**6,
                             max_denominator=10**30)


def floor_q_step(v: int, n: int, eps: QSqrt2) -> int:
    """The step by its definition: floor(sqrt2*(v + off)) = floor(2b + (v+a)*sqrt2)
    with off = eps = a + b*sqrt2 on odd steps and 1/2 on even ones."""
    off = eps if n % 2 == 1 else QSqrt2.of(HALF)
    return floor_q(QSqrt2(2 * off.b, v + off.a))


def floor_q_trace(eps: QSqrt2, depth: int) -> tuple[int, ...]:
    values = [1]
    for n in range(1, depth):
        values.append(floor_q_step(values[-1], n, eps))
    return tuple(values)


class TestGenerate:
    def test_classic_half_trace(self):
        tr = generate(SequenceSpec(Fraction(1, 2), depth=7))
        assert tr.values == (1, 2, 3, 4, 6, 9, 13)

    def test_epsilon_only_enters_odd_steps(self):
        a = generate(SequenceSpec(Fraction(45, 100), depth=8))
        b = generate(SequenceSpec(Fraction(46, 100), depth=8))
        # traces agree here: the two epsilons sit in the same sweep cell
        assert a.values == b.values

    def test_interval_epsilon_matches_exact(self):
        # deep enough that the certified floors run at 64 to 1024 bits
        exact = generate(SequenceSpec(Fraction(1, 3), depth=1001)).values
        interval = generate(SequenceSpec(RefinableReal("1/3"), depth=1001)).values
        assert exact == interval

    def test_refinements_grow_geometrically(self, monkeypatch):
        calls = []
        const_pi = reals.const_pi

        def counting_pi(bits):
            calls.append(bits)
            return const_pi(bits)

        monkeypatch.setattr(reals, "const_pi", counting_pi)
        generate(SequenceSpec(RefinableReal("1-pi^2/e^3"), depth=1001))
        # 64, 128, 256, 512, 1024 bits: once per precision, not once per step
        assert len(calls) <= 6

    def test_max_bits_caps_refinement(self, monkeypatch):
        asked = []
        refine = RefinableReal.refine

        def recording_refine(self, bits):
            asked.append(bits)
            return refine(self, bits)

        monkeypatch.setattr(RefinableReal, "refine", recording_refine)
        spec = SequenceSpec(RefinableReal("1-pi^2/e^3"), depth=81, max_bits=16)
        with pytest.raises(UndecidableError) as info:
            generate(spec)
        assert asked and max(asked) <= 16
        assert info.value.max_bits == 16
        assert info.value.step is not None and info.value.step % 2 == 1

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            SequenceSpec(Fraction(1, 2), depth=0)

    @pytest.mark.parametrize("eps", [0.5, 1.0, "1/2", None])
    def test_rejects_inexact_epsilon(self, eps):
        """A float would be read as its binary value, and fail later inside
        generate; the spec takes int, Fraction, QSqrt2 and RefinableReal."""
        with pytest.raises(TypeError, match="epsilon must be"):
            SequenceSpec(eps, 5)

    @given(eps_values)
    @settings(max_examples=50, deadline=None)
    def test_growth_rate(self, eps):
        # v_{n+2} is close to 2 v_n: digits d_n = v_{2n+1} - 2 v_{2n-1} stay small
        tr = generate(SequenceSpec(eps, depth=41)).values
        for n in range(0, 37, 2):
            assert 2 * tr[n] - 2 <= tr[n + 2] <= 2 * tr[n] + 3


class TestExactStep:
    @given(big_fractions, big_fractions, st.integers(-10**40, 10**40),
           st.integers(1, 2))
    @settings(max_examples=300, deadline=None)
    # eps = 3 + sqrt2/7 is (21 + sqrt2)/7, so v = -3 makes q*v + p zero
    @example(Fraction(3), Fraction(1, 7), -3, 1)
    @example(Fraction(3), Fraction(1, 7), -4, 1)
    @example(Fraction(-1, 3), Fraction(0), 0, 1)
    @example(Fraction(0), Fraction(0), 0, 2)
    @example(Fraction(0), Fraction(0), -1, 2)
    def test_matches_floor_q_definition(self, a, b, v, n):
        eps = QSqrt2(a, b)
        assert exact_step(v, n, integer_form(eps)) == floor_q_step(v, n, eps)

    @given(big_fractions, big_fractions)
    @settings(max_examples=200, deadline=None)
    def test_integer_form(self, a, b):
        p, r, q = integer_form(QSqrt2(a, b))
        assert q > 0
        assert (Fraction(p, q), Fraction(r, q)) == (a, b)

    def test_generate_matches_floor_q_on_row_points(self):
        for pair in THEOREM_TABLE:
            for eps in (pair.xi1, pair.midpoint, pair.xi2 - QSqrt2.of(DELTA)):
                assert generate(SequenceSpec(eps, depth=4001)).values == \
                    floor_q_trace(eps, 4001), (pair.index, str(eps))


def digits_by_definition(t: QSqrt2, count: int) -> tuple[int, ...]:
    """d_n = floor(t 2^{n-1}) - 2 floor(t 2^{n-2}), one pair of floors per digit."""
    return tuple(floor_q(t * Fraction(2) ** (n - 1)) - 2 * floor_q(t * Fraction(2) ** (n - 2))
                 for n in range(1, count + 1))


class TestDigits:
    def test_sqrt2_digits_from_half(self):
        tr = generate(SequenceSpec(Fraction(1, 2), depth=21))
        assert digits_from_trace(tr, 10).digits == (1, 0, 1, 1, 0, 1, 0, 1, 0, 0)

    def test_digit_count_limited_by_depth(self):
        tr = generate(SequenceSpec(Fraction(1, 2), depth=5))
        with pytest.raises(ValueError):
            digits_from_trace(tr, 3)

    def test_target_digits_sqrt2(self):
        d = digits_of_target(QSqrt2.sqrt2(), 10)
        assert d.digits == (1, 0, 1, 1, 0, 1, 0, 1, 0, 0)

    def test_target_digits_match_traces_on_table(self):
        for pair in THEOREM_TABLE:
            tr = generate(SequenceSpec(pair.midpoint, depth=41))
            assert digits_from_trace(tr, 20).digits == \
                digits_of_target(pair.target, 20).digits

    def test_target_domain_check(self):
        for t in (QSqrt2.of(2), QSqrt2.of(1, 1), QSqrt2.of(Fraction(-1, 10**9)),
                  QSqrt2.of(0, -1), QSqrt2.of(-2, 1), QSqrt2.of(3, Fraction(-1, 10**6))):
            for count in (0, 5, 64):
                with pytest.raises(ValueError):
                    digits_of_target(t, count)

    @pytest.mark.parametrize("t", [
        QSqrt2.of(0), QSqrt2.sqrt2(),
        *(pair.target.value() for pair in THEOREM_TABLE),
        # a and b of opposite signs
        QSqrt2.of(3, -1), QSqrt2.of(-1, 1), QSqrt2.of(Fraction(-1, 3), 1),
        QSqrt2.of(Fraction(7, 5), Fraction(-1, 10**12)),
    ], ids=str)
    def test_target_digits_match_definition(self, t):
        want = digits_by_definition(t, 2000)
        for count in (0, 1, 2, 63, 64, 65, 2000):
            assert digits_of_target(t, count).digits == want[:count], count

    def test_anomaly_detection(self):
        tr = generate(SequenceSpec(Fraction(2928, 10000), depth=2 * 3067 + 1))
        stream = digits_from_trace(tr, 3067)
        assert stream.anomalies() == [(3067, -1)]


class TestVerifyPair:
    @pytest.mark.parametrize("index", range(1, 9))
    def test_midpoint_depth_50(self, index):
        pair = entry(index)
        rep = verify_pair(pair, pair.midpoint, 50)
        assert rep.matched and rep.eps_in_interval

    def test_outside_interval_mismatch(self):
        pair = entry(5)
        rep = verify_pair(pair, Fraction(2928, 10000), 60)
        assert not rep.matched
        assert rep.eps_in_interval is False
        assert rep.first_mismatch is not None

    def test_interval_epsilon(self):
        pair = entry(5)
        rep = verify_pair(pair, RefinableReal("1/2"), 40)
        assert rep.matched
        assert rep.eps_in_interval is None  # unknown for interval epsilons


class TestCertify:
    @pytest.mark.parametrize("index", [1, 2, 3, 4, 6, 7, 8])
    def test_rows_certify(self, index, monkeypatch):
        sweeps, traces = [], []

        def counting_sweep(lo, hi, depth, *rest):
            sweeps.append(depth)
            return sweep(lo, hi, depth, *rest)

        def counting_generate(spec):
            traces.append(spec)
            return generate(spec)

        monkeypatch.setattr(discovery, "sweep", counting_sweep)
        monkeypatch.setattr(discovery, "generate", counting_generate)
        monkeypatch.setattr(engine, "generate", counting_generate)
        cert = certify_pair(entry(index))
        assert cert.ok, [c for c in cert.checks if not c.passed]
        # the whole certificate is read off one sweep; no probe traces
        assert sweeps == [entry(index).certification_depth]
        assert traces == []

    def test_row5_rejected(self):
        with pytest.raises(ValueError):
            certify_pair(entry(5))

    def test_direct_case_rejected_by_target(self):
        with pytest.raises(ValueError, match="row 9 is the direct case"):
            certify_pair(entry(5)._replace(index=9))

    def test_direct_case_certification_depth(self):
        # the direct case's right end is row 6's left end, a jump of v_62
        assert entry(5).certification_depth == entry(6).certification_depth == 62
        assert [e.index for e in THEOREM_TABLE if e.target.direct] == [5]

    def test_row6_erratum_note(self):
        cert = certify_pair(entry(6))
        assert cert.comp_target == 2592242074
        assert any("2749487923" in n for n in cert.notes)

    def test_domain_boundary_notes(self):
        assert any("domain boundary" in n for n in certify_pair(entry(1)).notes)
        assert any("domain boundary" in n for n in certify_pair(entry(8)).notes)
        assert not certify_pair(entry(3)).notes

    def test_perturbed_row_fails(self):
        from gppairs.table import GPPairEntry
        pair = entry(3)
        shifted = GPPairEntry(3, pair.xi1 + QSqrt2.of(Fraction(1, 100)),
                              pair.xi2, pair.target)
        assert not certify_pair(shifted).ok

    @pytest.mark.parametrize("index", [3, 6])
    @pytest.mark.parametrize("side", ["xi1", "xi2"])
    def test_endpoint_off_by_2_pow_minus_70_fails(self, index, side):
        # closer to the true endpoint than the 2^-60 window margin: a probe
        # at xi -/+ 2^-60 cannot see it, the exact cells next to xi do
        from gppairs.table import GPPairEntry
        pair = entry(index)
        tiny = QSqrt2.of(Fraction(1, 1 << 70))
        xi1 = pair.xi1 + tiny if side == "xi1" else pair.xi1
        xi2 = pair.xi2 + tiny if side == "xi2" else pair.xi2
        cert = certify_pair(GPPairEntry(index, xi1, xi2, pair.target))
        assert not cert.ok
        assert not next(c for c in cert.checks
                        if c.name == "[xi1, xi2) is one sweep cell").passed


class TestClosedForms:
    @pytest.mark.parametrize("index", [2, 7])
    def test_even_and_odd_forms(self, index):
        pair = entry(index)
        rep = closed_form_check(index, pair.midpoint,
                                range(pair.target.l + 2, pair.target.l + 30))
        assert rep.even_ok and rep.odd_ok

    def test_row5_printed_even_form_fails_shift_corrected_holds(self):
        pair = entry(5)
        rep = closed_form_check(5, pair.midpoint, range(1, 51))
        assert rep.odd_ok
        assert rep.corrected_even_ok
        assert rep.printed_even_ok is False

    def test_small_k_rejected_for_structured_rows(self):
        with pytest.raises(ValueError):
            closed_form_check(2, entry(2).midpoint, range(1, 10))

    def test_k0_rejected_for_row5(self):
        with pytest.raises(ValueError, match="row 5 closed forms need k >= 1"):
            closed_form_check(5, entry(5).midpoint, range(0, 5))


class TestLemmas:
    def test_clean_run(self):
        rep = lemma_checks(2000, seed=7)
        assert rep.ok
        assert rep.violations == ()

    @pytest.mark.parametrize("index", [1, 2, 3, 4, 6, 7, 8])
    def test_invariant_from_certification_depth(self, index):
        # first_bad_digit's Lemma B: phi_k = (1 + sqrt2)*(v_(2k+2) - sqrt2*v_(2k+1))
        # enters [0, 1) at the row's certification depth, equals
        # {t*2^(k-1)} there, and its binary digits are the trace's from d_(k+1)
        row = entry(index)
        t, l = row.target.value(), row.target.l
        s2 = QSqrt2.sqrt2()
        for eps in (row.xi1, row.midpoint, row.xi2 - DELTA):
            trace = generate(SequenceSpec(eps, depth=2 * l + 605))
            v = trace.values

            def phi(k):
                return (1 + s2) * (v[2 * k + 1] - s2 * v[2 * k])

            first = next(2 * k + 2 for k in range(l + 3) if 0 <= phi(k) < 1)
            assert first == row.certification_depth, (index, eps)
            p = phi(l + 2)
            assert p == frac_q(t * 2 ** (l + 1)), (index, eps)
            bits = floor_q(p * 2 ** 300)
            want = tuple((bits >> (300 - i)) & 1 for i in range(1, 301))
            assert digits_from_trace(trace).digits[l + 2:l + 302] == want, (index, eps)


def isqrt_first_bad_digit(eps: QSqrt2, limit: int) -> tuple[int, int] | None:
    """The streamed reference: the trace step by step, each floor from
    math.isqrt, for eps = a + b*sqrt2."""
    a, b = eps.a, eps.b
    q = math.lcm(a.denominator, b.denominator)
    p, r2 = int(a * q), int(2 * b * q)

    def floor_sqrt2(x: int) -> int:  # floor(x*sqrt2)
        s = math.isqrt(2 * x * x)
        return s if x >= 0 else -s - 1

    odd = 1
    for n in range(1, limit + 1):
        # sqrt2*(v + eps) = ((q*v + p)*sqrt2 + 2*b*q)/q, and 2*b*q is an integer
        even = (floor_sqrt2(q * odd + p) + r2) // q
        nxt = floor_sqrt2(2 * even + 1) // 2
        if nxt - 2 * odd not in (0, 1):
            return (n, nxt - 2 * odd)
        odd = nxt
    return None


def _outside_domain(eps: QSqrt2) -> bool:
    return eps.sign() >= 0 and eps < 1 and (eps < DOMAIN_LO or eps >= DOMAIN_HI)


# offsets in [0, 1) outside [1 - sqrt2/2, sqrt2/2): the closed-form path
offsets_outside_domain = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**12).map(QSqrt2.of),
    st.integers(-10**9, 10**9).map(lambda c: halfint(c, floor_q(halfint(c, 0)))),
    st.builds(lambda a, b: frac_q(QSqrt2(a, b)),
              st.fractions(-100, 100, max_denominator=1000),
              st.fractions(-100, 100, max_denominator=1000)),
).filter(_outside_domain) | st.integers(2, 80).flatmap(
    lambda s: st.sampled_from((DOMAIN_LO - Fraction(1, 1 << s),
                               DOMAIN_HI + Fraction(1, 1 << s)))
) | st.sampled_from((QSqrt2.of(0), DOMAIN_HI))


def _in_domain(eps: QSqrt2) -> bool:
    return DOMAIN_LO <= eps < DOMAIN_HI


# offsets in the domain, and the edges of Lemma A's inner band
offsets_in_domain = st.one_of(
    st.fractions(min_value=Fraction(29, 100), max_value=Fraction(71, 100),
                 max_denominator=10**12).map(QSqrt2.of),
    st.integers(-10**9, 10**9).map(lambda c: halfint(c, floor_q(halfint(c, 0)))),
).filter(_in_domain) | st.integers(5, 200).flatmap(
    lambda s: st.sampled_from((INNER_LO - Fraction(1, 1 << s),
                               INNER_HI - Fraction(1, 1 << s),
                               INNER_HI + Fraction(1, 1 << s),
                               DOMAIN_HI - Fraction(1, 1 << s)))
) | st.sampled_from((INNER_LO, INNER_HI, DOMAIN_LO))

# the ends of Lemma C's cases: -1 (a sample lower end), sqrt2/2 - 1, 0, 1
# and 3*sqrt2/2 - 1
LEMMA_C_EDGES = (QSqrt2.of(-1), halfint(1, 1), QSqrt2.of(0), QSqrt2.of(1), halfint(3, 1))

# offsets in Q(sqrt2) outside [0, 1), and each edge of Lemma C's cases
# moved by +-2^-s (which may land inside [0, 1))
offsets_outside_unit = st.one_of(
    st.builds(QSqrt2, st.fractions(-100, 100, max_denominator=1000),
              st.fractions(-100, 100, max_denominator=1000)),
    st.builds(halfint, st.integers(-1000, 1000), st.integers(-1000, 1000)),
).filter(lambda eps: not 0 <= eps < 1) | st.builds(
    lambda edge, sign, s: edge + sign * Fraction(1, 1 << s),
    st.sampled_from(LEMMA_C_EDGES), st.sampled_from((-1, 1)), st.integers(0, 119),
) | st.sampled_from(LEMMA_C_EDGES)


class TestCounterexamples:
    def test_limit_none(self):
        assert first_bad_digit(Fraction(1, 2), 200) is None

    @given(offsets_in_domain, st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    @example(INNER_LO, 400)
    @example(INNER_HI, 400)
    @example(DOMAIN_LO, 400)
    @example(DOMAIN_HI - DELTA, 1)
    def test_domain_matches_isqrt_stream(self, eps, limit):
        assert first_bad_digit(eps, limit) == isqrt_first_bad_digit(eps, limit)

    @given(st.fractions(-3, 4, max_denominator=1000).filter(lambda x: not 0 <= x < 1),
           st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    @example(Fraction(-3), 200)
    @example(Fraction(5, 4), 200)
    def test_outside_unit_interval_matches_isqrt_stream(self, eps, limit):
        # no lemma holds here: the invariant of the domain can hold at an even
        # step and still be broken later
        eps = QSqrt2.of(eps)
        assert first_bad_digit(eps, limit) == isqrt_first_bad_digit(eps, limit)

    def test_domain_takes_at_most_five_steps(self, monkeypatch):
        # the stream would take 2*10^6 steps for each of these
        calls = 0

        def counted(v, n, form):
            nonlocal calls
            calls += 1
            if calls > 100:
                raise AssertionError("first_bad_digit streams the trace in the domain")
            return exact_step(v, n, form)

        monkeypatch.setattr(engine, "exact_step", counted)
        for eps in (Fraction(1, 2), Fraction(2930, 10000), Fraction(7070, 10000),
                    DOMAIN_LO, DOMAIN_HI - DELTA):
            calls = 0
            assert first_bad_digit(eps, 10**6) is None
            assert calls <= 5, eps

    @pytest.mark.parametrize("lo, hi, prefix", [
        (DOMAIN_LO, INNER_LO, (1, 1, 2, 3)),  # Lemma B, phi_1 = sqrt2 - 1
        (INNER_HI, DOMAIN_HI, (1, 2, 3, 5, 7, 10)),  # Lemma B, phi_2 = 3*sqrt2 - 4
        (QSqrt2.of(-1), halfint(1, 1), (1, 0, 0)),  # Lemma C, d_1 <= -2
        (halfint(1, 1), QSqrt2.of(0), (1, 1, 2, 2, 3)),  # Lemma C, d_2 = -1
        (QSqrt2.of(1), halfint(3, 1), (1, 2, 3, 5, 7, 11, 16)),  # Lemma C, d_3 = 2
    ])
    def test_base_case_holds_on_whole_band(self, lo, hi, prefix):
        # each proof's stated prefix is the trace on all of its band: one cell
        cells = sweep(lo, hi, len(prefix))
        assert [(c.lo, c.hi, c.prefix) for c in cells] == [(lo, hi, prefix)]

    @given(offsets_outside_unit, st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    @example(halfint(1, 1), 1)
    @example(halfint(1, 1), 2)
    @example(halfint(3, 1) - Fraction(1, 1 << 119), 2)
    @example(halfint(3, 1) - Fraction(1, 1 << 119), 3)
    @example(halfint(3, 1), 1)
    @example(QSqrt2.of(-1) - Fraction(1, 1 << 119), 400)
    def test_lemma_c_on_qsqrt2_offsets(self, eps, limit):
        assert first_bad_digit(eps, limit) == isqrt_first_bad_digit(eps, limit)
        if not 0 <= eps < 1:
            # Lemma C itself, on the reference: a bad digit among d_1..d_3
            assert isqrt_first_bad_digit(eps, 3) is not None

    def test_steps_taken_at_limit_one_million(self, monkeypatch):
        # no exact step in [0, 1), and at most six (v_2..v_7) outside it
        calls = 0

        def counted(v, n, form):
            nonlocal calls
            calls += 1
            return exact_step(v, n, form)

        monkeypatch.setattr(engine, "exact_step", counted)
        for eps in (QSqrt2.of(0), QSqrt2.of(Fraction(29, 100)),
                    QSqrt2.of(Fraction(2928, 10000)), DOMAIN_LO, INNER_LO - DELTA,
                    QSqrt2.of(Fraction(2930, 10000)), INNER_LO, QSqrt2.of(HALF),
                    INNER_HI - DELTA, INNER_HI, QSqrt2.of(Fraction(7070, 10000)),
                    DOMAIN_HI - DELTA, QSqrt2.of(Fraction(7073, 10000)),
                    QSqrt2.of(1 - DELTA)):
            calls = 0
            first_bad_digit(eps, 10**6)
            assert calls == 0, eps
        for eps in (QSqrt2.of(-3), QSqrt2.of(-1), halfint(1, 1) - DELTA, halfint(1, 1),
                    QSqrt2.of(Fraction(-1, 3)), QSqrt2.of(-DELTA), QSqrt2.of(1),
                    QSqrt2.of(Fraction(5, 4)), halfint(3, 1) - DELTA, halfint(3, 1),
                    QSqrt2(1, Fraction(1, 10))):
            calls = 0
            assert first_bad_digit(eps, 10**6) == isqrt_first_bad_digit(eps, 10**6)
            assert calls <= 6, eps

    @given(offsets_outside_domain, st.integers(1, 400))
    @settings(max_examples=250, deadline=None)
    @example(QSqrt2.of(0), 2)
    @example(QSqrt2.of(0), 1)
    @example(DOMAIN_HI, 400)
    @example(QSqrt2.of(Fraction(3, 4)), 10)
    @example(QSqrt2.of(Fraction(3, 4)), 9)
    def test_closed_form_matches_isqrt_stream(self, eps, limit):
        assert first_bad_digit(eps, limit) == isqrt_first_bad_digit(eps, limit)

    def test_high_side_exact_ties(self):
        # (conditio) is exactly 1 at step k, which is already a failure
        seen = {}
        for k in range(2, 41):
            m = math.isqrt(18 << (2 * k - 4))  # floor(3*sqrt2*2^(k-2))
            eps = QSqrt2(-m - 3 * (1 << (k - 2)),
                         Fraction(1 + m + 3 * (1 << (k - 1)), 2))
            if not (DOMAIN_HI <= eps < 1):
                continue
            for limit in (k, k + 1, k + 30):
                got = first_bad_digit(eps, limit)
                assert got == isqrt_first_bad_digit(eps, limit), (k, limit)
                seen[k, limit] = got
        assert seen[2, 3] == (3, 2)  # eps = 0.778174...
        assert seen[9, 10] == (10, 2)

    def test_low_side_exact_ties(self):
        # (conditio) is exactly 0 at step k, which is not a failure
        for k in range(1, 41):
            frac = QSqrt2(-math.isqrt(2 << (2 * k - 2)), 1 << (k - 1))
            eps = (1 - QSqrt2.sqrt2() / 2) * frac
            for limit in (k, k + 1, k + 30):
                assert first_bad_digit(eps, limit) == \
                    isqrt_first_bad_digit(eps, limit), (k, limit)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_record_scan_block_size(self, block, monkeypatch):
        # the scan reads its windows from blocks; where they are cut must not
        # change an answer, ties included
        cases = [(QSqrt2.of(Fraction(2928, 10000)), 4000),
                 (QSqrt2.of(Fraction(7073, 10000)), 4000),
                 (QSqrt2.of(Fraction(29289, 10**5)), 5000)]
        for k in range(2, 41):
            m = math.isqrt(18 << (2 * k - 4))
            cases.append((QSqrt2(-m - 3 * (1 << (k - 2)),
                                 Fraction(1 + m + 3 * (1 << (k - 1)), 2)), k + 30))
            frac = QSqrt2(-math.isqrt(2 << (2 * k - 2)), 1 << (k - 1))
            cases.append(((1 - QSqrt2.sqrt2() / 2) * frac, k + 30))
        want = [first_bad_digit(eps, limit) for eps, limit in cases]
        monkeypatch.setattr(engine, "_SCAN_BLOCK", block)
        assert [first_bad_digit(eps, limit) for eps, limit in cases] == want
        assert want[:3] == [(3067, -1), (2293, 2), None]

    def test_deep_closed_form(self):
        # the high records of {sqrt2*2^j} below 10^5 are 0, 1, 15, 29, 334,
        # 1401 and 3065, and not even the last exceeds (2 + sqrt2)*0.29289
        assert first_bad_digit(Fraction(29289, 10**5), 10**5) is None

    @pytest.mark.parametrize("eps, limit, want", [
        (Fraction(2928, 10000), 3066, None),
        (Fraction(2928, 10000), 3067, (3067, -1)),
        (Fraction(7073, 10000), 2292, None),
        (Fraction(7073, 10000), 2293, (2293, 2)),
        # an early hit reads the bits up to it, not an isqrt 10^7 digits long
        (Fraction(29, 100), 10**7, (31, -1)),
    ])
    def test_limit_boundaries(self, eps, limit, want):
        assert first_bad_digit(eps, limit) == want

    def test_requires_exact(self):
        with pytest.raises(TypeError):
            first_bad_digit(RefinableReal("pi/6"), 10)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            first_bad_digit(Fraction(1, 2), 0)


class TestNormality:
    def test_small_probe(self):
        rep = normality_probe(1, 64)
        assert 1 <= rep.argmin <= 64 and 1 <= rep.argmax <= 64
        assert rep.min_frac.sign() >= 0
        assert (rep.max_frac - 1).sign() < 0

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            normality_probe(2, 10)

    @pytest.mark.parametrize("multiplier", [1, 3])
    def test_matches_fractional_part_per_k(self, multiplier):
        # reference: one frac_q per k, as the definition reads
        offset = 1 if multiplier == 1 else 2
        fracs = [frac_q(QSqrt2(0, Fraction(multiplier) * Fraction(2) ** (k - offset)))
                 for k in range(1, 301)]
        for depth in (1, 2, 3, 50, 300):
            rep = normality_probe(multiplier, depth)
            head = fracs[:depth]
            assert rep.min_frac == min(head) and rep.max_frac == max(head)
            assert (rep.argmin, rep.argmax) == (head.index(min(head)) + 1,
                                                head.index(max(head)) + 1)

    def test_records_602_and_334_at_k_1000(self):
        # offset 1: k = 603 and 335 are the records of {sqrt2*2^k} at 602 and 334
        rep = normality_probe(1, 1000)
        assert (rep.argmin, rep.argmax) == (603, 335)


class TestMultipleSqrt2Digit:
    def test_msb_digits_of_alpha6(self):
        alpha = 759250125
        int_bits = floor_rat_sqrt2(alpha, 1).bit_length()
        assert int_bits == 31
        # MSB-first digit k of alpha*sqrt2 is digit k of alpha*sqrt2/2^30
        digits = digits_of_target(QSqrt2.of(0, Fraction(alpha, 1 << 30)), 31).digits
        value = int("".join(map(str, digits)), 2)
        assert value == floor_rat_sqrt2(alpha, 1)

    def test_corollary_digits_match_definition(self):
        # digit k of alpha6*sqrt2 (31 integer bits) from two floors per digit:
        # floor(alpha6*sqrt2*2^(k-31)) - 2*floor(alpha6*sqrt2*2^(k-32))
        depth = 600

        def fl(j):
            return floor_q(QSqrt2.of(0, ALPHA6 * Fraction(2) ** j))

        want = [fl(n + 1 - 31) - 2 * fl(n - 31) for n in range(1, depth + 1)]
        a6 = QSqrt2.of(0, Fraction(ALPHA6, 1 << 30))
        assert digits_of_target(a6, depth + 1).digits[1:] == tuple(want)
        trace = generate(SequenceSpec(RefinableReal("1-pi^2/e^3"), depth=2 * depth + 1))
        got = digits_from_trace(trace, depth).digits
        bad = [n for n in range(1, depth + 1) if got[n - 1] != want[n - 1]]
        rep = corollary_check(depth)
        assert rep.disagreements_below_31 == tuple(n for n in bad if n < 31)
        assert rep.agree_from_31 == all(n < 31 for n in bad)
        assert rep.onset == (max(bad) + 1 if bad else 1)
        assert rep.ok
