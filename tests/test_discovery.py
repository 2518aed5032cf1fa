"""Sweeping, bisection, algebraic identification, partition validation."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gppairs import discovery
from gppairs.discovery import (
    HALFINT_BOUND,
    IdentificationError,
    QuadPoly,
    SweepBudgetError,
    bisect_jump,
    certify_pair,
    halfint_form,
    identify_halfint_sqrt2,
    min_poly_deg2,
    reconstruct_table,
    rediscover_left_endpoint,
    sweep,
    validate_partition,
    value_at,
    verify_endpoint,
)
from gppairs.engine import SequenceSpec, digits_of_target, exact_step, generate
from gppairs.exact import QSqrt2, floor_q, integer_form
from gppairs.reals import RealInterval
from gppairs.table import (DOMAIN_HI, DOMAIN_LO, THEOREM_TABLE, AlgebraicTarget, GPPairEntry,
                           entry, halfint)


def _enclose(x: QSqrt2, bits: int) -> RealInterval:
    """Exact dyadic enclosure of a Q(sqrt2) value, width 2^-bits."""
    from gppairs.exact import floor_q
    s = 1 << bits
    n = floor_q(x * s)
    return RealInterval(Fraction(n, s), Fraction(n + 1, s), bits)


def _splitting_sweep(lo: QSqrt2, hi: QSqrt2, depth: int) -> list[tuple]:
    """Reference: the older sweep, which keeps every cell of [lo, hi) alive
    and splits each one at the jump points of every odd step."""
    cells = [(lo, hi, [1])]
    for n in range(1, depth):
        if n % 2 == 0:
            for _, _, prefix in cells:
                prefix.append(exact_step(prefix[-1], n, None))
            continue
        new = []
        for clo, chi, prefix in cells:
            v = prefix[-1]
            m = exact_step(v, n, integer_form(clo))
            while halfint(m + 1, v) < chi:
                new.append((clo, halfint(m + 1, v), prefix + [m]))
                clo, m = halfint(m + 1, v), m + 1
            new.append((clo, chi, prefix + [m]))
        cells = new
    return [(clo, chi, tuple(prefix)) for clo, chi, prefix in cells]


_window_ends = st.fractions(min_value=-3, max_value=3, max_denominator=1000)


class TestSweep:
    @settings(max_examples=200, deadline=None)
    @given(lo=_window_ends,
           width=st.fractions(min_value=0, max_value=4, max_denominator=1000).filter(bool),
           depth=st.integers(1, 120),
           hi_jump=st.none() | st.integers(0, 8))
    @example(lo=Fraction(-1, 3), width=Fraction(10, 3), depth=101, hi_jump=None)
    @example(lo=Fraction(-2), width=Fraction(4), depth=120, hi_jump=None)
    @example(lo=Fraction(3, 10), width=Fraction(2, 5), depth=120, hi_jump=None)
    @example(lo=Fraction(1, 2), width=Fraction(1, 1000), depth=1, hi_jump=None)
    # row endpoints are jump points, so lo sits on one and hi ties one
    @example(lo=entry(6).xi1, width=entry(6).xi2 - entry(6).xi1, depth=62, hi_jump=None)
    @example(lo=entry(2).xi1, width=entry(7).xi2 - entry(2).xi1, depth=62, hi_jump=None)
    @example(lo=entry(4).xi1, width=entry(4).xi2 - entry(4).xi1, depth=40, hi_jump=None)
    @example(lo=Fraction(1, 2), width=Fraction(1), depth=62, hi_jump=0)
    @example(lo=entry(3).xi1, width=Fraction(1), depth=62, hi_jump=3)
    def test_walk_matches_splitting_sweep(self, lo, width, depth, hi_jump):
        # inside the domain, across it and outside it, negative eps included;
        # a hi_jump puts hi on that jump of the trace at lo, where a tie
        # with hi must end the walk at hi
        a = lo if isinstance(lo, QSqrt2) else QSqrt2.of(lo)
        b = a + width
        if hi_jump is not None and depth > 1:
            v = generate(SequenceSpec(a, depth=depth)).values
            jumps = [halfint(v[n] + 1, v[n - 1]) for n in range(1, depth, 2)]
            b = jumps[hi_jump % len(jumps)]
        got = [(c.lo, c.hi, c.prefix) for c in sweep(a, b, depth)]
        assert got == _splitting_sweep(a, b, depth)

    def test_depth2_splits_at_sqrt2_minus_1(self):
        cells = sweep(DOMAIN_LO, DOMAIN_HI, 2)
        assert len(cells) == 2
        assert halfint_form(cells[1].lo) == (2, 1)
        assert cells[0].prefix == (1, 1)
        assert cells[1].prefix == (1, 2)

    def test_depth3_even_step_adds_no_cells(self):
        assert len(sweep(DOMAIN_LO, DOMAIN_HI, 3)) == 2

    def test_full_sweep_depth62_gives_theorem_boundaries(self):
        cells = sweep(DOMAIN_LO, DOMAIN_HI, 62)
        assert len(cells) == 8
        for cell, pair in zip(cells, THEOREM_TABLE):
            assert (cell.lo - pair.xi1).sign() == 0
            assert (cell.hi - pair.xi2).sign() == 0

    def test_cells_tile_and_are_maximal(self):
        cells = sweep(DOMAIN_LO, DOMAIN_HI, 21)
        assert (cells[0].lo - DOMAIN_LO).sign() == 0
        assert (cells[-1].hi - DOMAIN_HI).sign() == 0
        for a, b in zip(cells, cells[1:]):
            assert (a.hi - b.lo).sign() == 0
            assert a.prefix != b.prefix  # maximality

    def test_prefix_matches_direct_generation(self):
        tiny = QSqrt2.of(Fraction(1, 1 << 80))
        for depth in (1, 21):
            for cell in sweep(DOMAIN_LO, DOMAIN_HI, depth):
                assert len(cell.prefix) == depth
                for eps in (cell.lo, cell.midpoint, cell.hi - tiny):
                    tr = generate(SequenceSpec(eps, depth=depth))
                    assert tr.values == cell.prefix

    def test_budget_error(self):
        with pytest.raises(SweepBudgetError):
            sweep(DOMAIN_LO, DOMAIN_HI, 62, cell_budget=3)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            sweep(DOMAIN_HI, DOMAIN_LO, 5)


def _halving(n: int, target: int, window, tol_bits: int):
    """The plain bisection: every probe a whole trace through value_at."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if not (value_at(lo, n) < target <= value_at(hi, n)):
        raise ValueError(
            f"window does not bracket the jump: v({lo})={value_at(lo, n)}, "
            f"v({hi})={value_at(hi, n)}, target {target}")
    while hi - lo > Fraction(1, 1 << tol_bits):
        mid = (lo + hi) / 2
        if value_at(mid, n) >= target:
            hi = mid
        else:
            lo = mid
    return lo, hi, tol_bits


def _same_as_halving(n: int, target: int, window, tol_bits: int) -> None:
    try:
        want = _halving(n, target, window, tol_bits)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            bisect_jump(n, target, window, tol_bits)
        assert str(got.value) == str(exc)
        return
    enc = bisect_jump(n, target, window, tol_bits)
    assert (enc.lo, enc.hi, enc.bits) == want


def _row_window(row: int, below: int, above: int):
    """The benchmark's rediscovery window: margins in millionths around the
    12-digit decimal of the row's left endpoint."""
    approx = Fraction(entry(row).xi1.to_decimal(12))
    return (max(approx - Fraction(below, 10**6), Fraction(2929, 10000)),
            approx + Fraction(above, 10**6))


_DOMAIN_POINTS = st.fractions(min_value=Fraction(2929, 10**4),
                              max_value=Fraction(7070, 10**4), max_denominator=10**9)
_EIGHTHS = st.integers(-64, 24).map(lambda k: Fraction(k, 8))  # [-8, 3]


class TestBisect:
    @given(_DOMAIN_POINTS, _DOMAIN_POINTS, st.integers(2, 70),
           st.fractions(min_value=0, max_value=1, max_denominator=1000),
           st.integers(-1, 1), st.integers(1, 160))
    @settings(max_examples=80, deadline=None)
    def test_same_as_plain_halving(self, a, b, n, at, offset, tol_bits):
        lo, hi = min(a, b), max(a, b)
        target = value_at(lo + (hi - lo) * at, n) + offset
        _same_as_halving(n, target, (lo, hi), tol_bits)

    @pytest.mark.parametrize("row", range(2, 9))
    @pytest.mark.parametrize("below, above", [(500, 2000), (2000, 500)])
    def test_rows_same_as_plain_halving(self, row, below, above):
        pair = entry(row)
        depth = pair.certification_depth if row != 5 else 62
        _same_as_halving(depth, value_at(pair.xi1, depth), _row_window(row, below, above),
                         200 if row % 2 == 0 else 120)

    def test_window_narrower_than_tolerance(self):
        xi = entry(6).xi1
        box = _enclose(xi, 60)
        enc = bisect_jump(62, value_at(xi, 62), (box.lo, box.hi), 40)
        assert (enc.lo, enc.hi, enc.bits) == (box.lo, box.hi, 40)

    def test_probes_step_on_from_the_shared_prefix(self, monkeypatch):
        """The jump is read off one sweep of the window: the two bracketing
        traces and the sweep's cells, which share every value before the
        step that jumps, take 186 steps in all, where halving with one
        probe per halving took 698 stepped on from the shared prefix and
        11834 as whole 61-step traces."""
        target = value_at(entry(6).xi1, 62)
        calls = 0

        def counting_step(*args):
            nonlocal calls
            calls += 1
            return exact_step(*args)

        monkeypatch.setattr(discovery, "exact_step", counting_step)
        monkeypatch.setattr("gppairs.engine.exact_step", counting_step)
        enc = bisect_jump(62, target, _row_window(6, 1000, 1000), 200)
        assert identify_halfint_sqrt2(enc) == halfint_form(entry(6).xi1)
        assert calls < 400

    def test_jump_on_the_right_end(self):
        """v_2 reaches 0 at the integer -1, the window's right end, so no
        swept cell of [-15/8, -1) reaches the target."""
        enc = bisect_jump(2, 0, (Fraction(-15, 8), Fraction(-1)), 10)
        assert (enc.lo, enc.hi) == (Fraction(-8199, 8192), Fraction(-1))

    def test_rational_jump_on_a_grid_point(self):
        """-1 is a halving's midpoint, and the upper end of the window
        the halving keeps."""
        enc = bisect_jump(2, 0, (Fraction(-9, 8), Fraction(-7, 8)), 10)
        assert (enc.lo, enc.hi) == (Fraction(-1025, 1024), Fraction(-1))

    @given(_EIGHTHS, _EIGHTHS, st.integers(2, 20),
           st.one_of(st.just(Fraction(-1)), _EIGHTHS), st.integers(-1, 1), st.integers(1, 40))
    @example(Fraction(-3, 2), Fraction(-1, 2), 7, Fraction(-1), 0, 20)
    @example(Fraction(-5, 2), Fraction(-1), 19, Fraction(-1), 0, 30)
    @settings(max_examples=120, deadline=None)
    def test_off_domain_same_as_plain_halving(self, a, b, n, x, offset, tol_bits):
        """Off the domain v_n jumps at the integer -1, which ends in eighths
        put on window ends and on halving grid points."""
        lo, hi = min(a, b), max(a, b)
        _same_as_halving(n, value_at(x, n) + offset, (lo, hi), tol_bits)

    @pytest.mark.parametrize("tol_bits", [0, -1, -5])
    def test_tol_bits_below_1_rejected(self, tol_bits):
        with pytest.raises(ValueError, match="tol_bits must be >= 1"):
            bisect_jump(2, 2, (Fraction(3, 10), Fraction(5, 10)), tol_bits)

    def test_sqrt2_minus_1_jump(self):
        enc = bisect_jump(2, 2, (Fraction(3, 10), Fraction(5, 10)), 80)
        assert enc.contains(QSqrt2.of(-1, 1))
        assert enc.width <= Fraction(1, 1 << 80)

    @pytest.mark.parametrize("window", [(0.3, 0.5), (Fraction(3, 10), 0.5), (0.3, Fraction(1, 2))])
    def test_float_window_rejected(self, window):
        """A float end would be read as its binary value, not as the decimal
        it prints as."""
        with pytest.raises(TypeError, match="window ends must be int or Fraction"):
            bisect_jump(2, 2, window, 40)

    def test_bracket_error(self):
        with pytest.raises(ValueError):
            bisect_jump(2, 2, (Fraction(45, 100), Fraction(5, 10)), 40)

    def test_agrees_with_sweep_breakpoint(self):
        cells = sweep(DOMAIN_LO, DOMAIN_HI, 21)
        bp = cells[3].lo  # an interior breakpoint
        target = cells[3].prefix[-1]
        enc = bisect_jump(21, target,
                          (Fraction(44, 100), Fraction(46, 100)), 100)
        assert enc.contains(bp)


def _reference_identify(x: RealInterval) -> tuple[int, int]:
    """identify_halfint_sqrt2 as it read the midpoint through QSqrt2 and
    Fraction temporaries, kept as the reference for its integer form."""
    p, q = x.width.numerator, x.width.denominator
    k = sum(8 * p * (a + 2 * b) <= q for a, b in discovery._UNIT_POWERS) - 1
    if k >= 0:
        a, b = discovery._UNIT_POWERS[k]
        mid = x.mid
        half_w = QSqrt2(mid * a, mid * b)
        m = floor_q(half_w + Fraction(1, 2))
        n = floor_q((half_w * 2 - m) * QSqrt2(0, Fraction(1, 2)) + Fraction(1, 2))
        sgn = -1 if k % 2 else 1
        c, two_d = sgn * (n * a - m * b), -sgn * (m * a - 2 * n * b)
        d = two_d // 2
        if (two_d % 2 == 0 and abs(c) <= HALFINT_BOUND and abs(d) <= HALFINT_BOUND
                and x.contains(QSqrt2(Fraction(-d), Fraction(c, 2)))):
            if discovery._HALFINT_GAP < x.width:
                raise IdentificationError(
                    "interval admits multiple (c,d) candidates; tighten it")
            return c, d
    raise IdentificationError(
        "no (c/2)*sqrt2 - d candidate found in the interval; tighten it")


def _outcome(identify, x: RealInterval):
    """The pair identify names in x, or its IdentificationError's message."""
    try:
        return identify(x)
    except IdentificationError as exc:
        return str(exc)


_BOUNDED = st.integers(-HALFINT_BOUND, HALFINT_BOUND)


@st.composite
def _odd_denominators(draw, min_bits: int, max_bits: int) -> int:
    bits = draw(st.integers(min_bits, max_bits))
    return draw(st.integers(1 << (bits - 1), 1 << bits)) | 1


@st.composite
def _around_halfint(draw, min_bits: int = 1, max_bits: int = 260) -> RealInterval:
    """An interval holding halfint(c, d), with ends on two unrelated odd
    denominators, a few steps out on each side: lo may be the value itself
    when c = 0."""
    x = halfint(draw(_BOUNDED), draw(_BOUNDED))
    lo_den, hi_den = (draw(_odd_denominators(min_bits, max_bits)) for _ in range(2))
    return RealInterval(Fraction(floor_q(x * lo_den) - draw(st.integers(0, 3)), lo_den),
                        Fraction(floor_q(x * hi_den) + draw(st.integers(1, 3)), hi_den))


@st.composite
def _any_interval(draw) -> RealInterval:
    """A random rational interval, mostly holding no candidate."""
    lo = Fraction(draw(st.integers(-(1 << 40), 1 << 40)), draw(_odd_denominators(1, 200)))
    width = Fraction(draw(st.integers(0, 8)), draw(_odd_denominators(1, 200)))
    return RealInterval(lo, lo + width)


class TestIdentify:
    @given(st.one_of(_around_halfint(), _any_interval(),
                     _around_halfint(min_bits=20, max_bits=36)))
    @settings(max_examples=500, deadline=None)
    def test_same_as_qsqrt2_reference(self, x):
        """The integer form names the same pair, or raises the same error,
        as the QSqrt2 midpoint rounding, on asymmetric non-dyadic enclosures,
        on random intervals and on intervals wider than _HALFINT_GAP, which
        never name a pair."""
        got = _outcome(identify_halfint_sqrt2, x)
        assert got == _outcome(_reference_identify, x)
        if discovery._HALFINT_GAP < x.width:
            assert isinstance(got, str)

    @pytest.mark.parametrize("c, d", [(2, 1), (1, 0), (309, 218),
                                      (1296121037, 916495974)])
    def test_known_endpoints(self, c, d):
        enc = _enclose(halfint(c, d), 140)
        assert identify_halfint_sqrt2(enc) == (c, d)

    def test_random_roundtrip(self):
        rng = random.Random(42)
        for _ in range(100):
            c = rng.randrange(1, 1 << 32)
            d = rng.randrange(0, 1 << 32)
            enc = _enclose(halfint(c, d), 160)
            assert identify_halfint_sqrt2(enc) == (c, d)

    def test_wide_interval_rejected(self):
        wide = RealInterval(Fraction(0), Fraction(1), 0)
        with pytest.raises(IdentificationError):
            identify_halfint_sqrt2(wide)

    def test_half_gap_is_least_over_all_denominators(self):
        # a running minimum over every q against the last convergent's error
        best = None
        for q in range(1, 201):
            x = QSqrt2.of(0, Fraction(q, 2))
            f = floor_q(x)
            gap = min(x - f, f + 1 - x)
            best = gap if best is None else min(best, gap)
            if q % 2 == 0:
                assert discovery._sqrt2_half_min_gap(q // 2) == best

    @given(st.integers(-HALFINT_BOUND, HALFINT_BOUND),
           st.integers(-HALFINT_BOUND, HALFINT_BOUND), st.integers(40, 300))
    @example(HALFINT_BOUND, HALFINT_BOUND, 80)
    @example(-HALFINT_BOUND, -HALFINT_BOUND, 80)
    @example(HALFINT_BOUND, -HALFINT_BOUND, 80)
    @example(-HALFINT_BOUND, HALFINT_BOUND, 300)
    @example(0, 916495974, 40)
    @example(0, -HALFINT_BOUND, 80)
    @example(1296121037, 916495974, 64)  # row 6's xi1
    @settings(max_examples=300, deadline=None)
    def test_signed_roundtrip(self, c, d, bits):
        """The pair or IdentificationError, never a wrong pair; always the
        pair at width <= 2^-41, where 8*width*(a_K + 2*b_K) <= 1 lets the
        reduction take all K = 29 steps (so at 2^-80 too)."""
        enc = _enclose(halfint(c, d), bits)
        try:
            got = identify_halfint_sqrt2(enc)
        except IdentificationError:
            assert bits < 41
        else:
            assert got == (c, d)

    @pytest.mark.parametrize("bits", [64, 120, 200])
    @pytest.mark.parametrize("name", ["1/3", "1/3+sqrt2/5", "sqrt3"])
    def test_other_values_rejected(self, name, bits):
        if name == "sqrt3":
            n = isqrt(3 << 2 * bits)
            enc = RealInterval(Fraction(n, 1 << bits), Fraction(n + 1, 1 << bits), bits)
        else:
            enc = _enclose(QSqrt2.of(Fraction(1, 3), Fraction(1, 5) if "sqrt2" in name else 0),
                           bits)
        with pytest.raises(IdentificationError):
            identify_halfint_sqrt2(enc)
        with pytest.raises(IdentificationError):
            min_poly_deg2(enc)

    def test_unit_steps_are_the_least(self):
        """K = 29 is the least k with (sqrt2-1)^k*(2+sqrt2)*HALFINT_BOUND
        < 1/2, and the table holds (1+sqrt2)^k for k = 0..K."""
        powers = discovery._UNIT_POWERS
        k_max = len(powers) - 1
        assert k_max == 29
        shrink, grow = [QSqrt2.of(1)], [QSqrt2.of(1)]
        for _ in range(k_max):
            shrink.append(shrink[-1] * QSqrt2.of(-1, 1))
            grow.append(grow[-1] * QSqrt2.of(1, 1))
        conj = [s * QSqrt2.of(2, 1) * HALFINT_BOUND for s in shrink]
        assert conj[k_max] < Fraction(1, 2) <= conj[k_max - 1]
        assert [QSqrt2.of(a, b) for a, b in powers] == grow


class TestHalfint:
    @given(st.integers(-(1 << 70), 1 << 70), st.integers(-(1 << 70), 1 << 70))
    @example(0, 0)
    @example(0, -5)
    @example(1, 0)
    @example(-3, 7)
    @example(3, -7)
    @example(-2, -1)
    def test_same_as_fraction_parts(self, c, d):
        assert integer_form(halfint(c, d)) == integer_form(QSqrt2(Fraction(-d), Fraction(c, 2)))


class TestMinPoly:
    def test_half_sqrt2(self):
        enc = _enclose(halfint(1, 0), 120)
        assert min_poly_deg2(enc) == QuadPoly(2, 0, -1)

    def test_sqrt2_minus_1(self):
        enc = _enclose(halfint(2, 1), 120)
        assert min_poly_deg2(enc) == QuadPoly(1, 2, -1)

    def test_annihilates_identified_value(self):
        for c, d in [(19, 13), (77, 54), (1296121037, 916495974)]:
            enc = _enclose(halfint(c, d), 200)
            poly = min_poly_deg2(enc)
            assert poly.eval_q(halfint(c, d)) == QSqrt2.of(0)
            # canonical form 2x^2 + 4dx + (2d^2 - c^2), already content-free here
            assert (poly.a2, poly.a1, poly.a0) == (2, 4 * d, 2 * d * d - c * c)

    @pytest.mark.parametrize("d", [0, 1, -1, 7, HALFINT_BOUND, -HALFINT_BOUND])
    def test_integer(self, d):
        assert min_poly_deg2(_enclose(QSqrt2.of(-d), 100)) == QuadPoly(0, 1, d)


class TestLLL:
    """The paper's left endpoints at the 120 and 200 bits that rediscovery
    uses; the class keeps the name of the lattice reduction that once named
    them, so that these test ids stay the same."""

    @pytest.mark.parametrize("tol_bits", [120, 200])
    @pytest.mark.parametrize("index", range(2, 9))
    def test_paper_left_endpoints(self, index, tol_bits):
        c, d = halfint_form(entry(index).xi1)
        enc = _enclose(entry(index).xi1, tol_bits)
        assert identify_halfint_sqrt2(enc) == (c, d)
        a2, a1, a0 = 2, 4 * d, 2 * d * d - c * c
        g = gcd(gcd(a2, a1), abs(a0))
        assert min_poly_deg2(enc) == QuadPoly(a2 // g, a1 // g, a0 // g)


class TestEndpoints:
    @pytest.mark.parametrize("index", [2, 6, 8])
    def test_left_endpoints(self, index):
        rep = verify_endpoint(entry(index), "left")
        assert rep.ok, rep.checks

    @pytest.mark.parametrize("index", [1, 4, 7])
    def test_right_endpoints(self, index):
        rep = verify_endpoint(entry(index), "right")
        assert rep.ok, rep.checks

    @pytest.mark.parametrize("index", range(1, 9))
    def test_one_sweep_per_endpoint(self, index, monkeypatch):
        sweeps = []

        def counting_sweep(lo, hi, depth, *rest):
            sweeps.append(depth)
            return sweep(lo, hi, depth, *rest)

        def no_probe(*args):
            raise AssertionError("verify_endpoint probed a single epsilon")

        monkeypatch.setattr(discovery, "sweep", counting_sweep)
        monkeypatch.setattr(discovery, "value_at", no_probe)
        monkeypatch.setattr(discovery, "generate", no_probe)
        for side in ("left", "right"):
            rep = verify_endpoint(entry(index), side)
            assert rep.ok, (side, rep.checks)
        assert len(sweeps) == 2

    @pytest.mark.parametrize("index", [3, 6])
    def test_endpoint_off_by_2_pow_minus_70_fails(self, index):
        pair = entry(index)
        tiny = QSqrt2.of(Fraction(1, 1 << 70))
        for side, shifted in (
                ("left", GPPairEntry(index, pair.xi1 + tiny, pair.xi2, pair.target)),
                ("left", GPPairEntry(index, pair.xi1 - tiny, pair.xi2, pair.target)),
                ("right", GPPairEntry(index, pair.xi1, pair.xi2 + tiny, pair.target)),
                ("right", GPPairEntry(index, pair.xi1, pair.xi2 - tiny, pair.target))):
            assert not verify_endpoint(shifted, side).ok, side
            # the endpoint that was not moved still verifies
            other = "right" if side == "left" else "left"
            assert verify_endpoint(shifted, other).ok, other

    def test_row5_bounds_only(self):
        rep = verify_endpoint(entry(5), "left")
        assert rep.ok
        assert any("direct case" in w for _, _, w in rep.checks)

    def test_direct_case_named_by_target(self):
        rep = verify_endpoint(entry(5)._replace(index=9), "left")
        assert rep.ok
        assert rep.pair_index == 9
        assert any("direct case" in w for _, _, w in rep.checks)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            verify_endpoint(entry(2), "middle")


class TestRediscover:
    @pytest.mark.parametrize("row", range(2, 9))
    def test_from_the_target_alone(self, row):
        """The row's endpoints are replaced by the domain's, so only its
        target (row 5: the row before's) can lead to xi1."""
        xi1 = entry(row).xi1
        blind = GPPairEntry(row, DOMAIN_LO, DOMAIN_HI, entry(row).target)
        enclosure, cd, poly = rediscover_left_endpoint(blind, 200)
        assert cd == halfint_form(xi1)
        assert enclosure.contains(xi1) and enclosure.width <= Fraction(1, 1 << 200)
        assert poly.eval_q(xi1) == QSqrt2.of(0)

    def test_identifies_once(self, monkeypatch):
        """The minimal polynomial comes from the (c, d) already named."""
        calls = []

        def counting(x):
            calls.append(x)
            return identify_halfint_sqrt2(x)

        monkeypatch.setattr(discovery, "identify_halfint_sqrt2", counting)
        _, (c, d), poly = rediscover_left_endpoint(entry(6), 200)
        assert len(calls) == 1
        assert poly == min_poly_deg2(calls[0]) and poly.eval_q(halfint(c, d)) == QSqrt2.of(0)

    def test_row_1_has_no_jump(self):
        with pytest.raises(ValueError, match="does not bracket the jump"):
            rediscover_left_endpoint(entry(1), 200)


class TestLongIntegers:
    """A witness names the size of an integer too long for str()."""

    def test_target_past_the_digit_limit(self, int_str_limit):
        big = AlgebraicTarget(2**15000 + 1, 2**15000 - 1, 15000)
        cert = certify_pair(GPPairEntry(9, DOMAIN_HI, DOMAIN_HI + 1, big))
        assert [c.passed for c in cert.checks] == [True, False]
        assert cert.checks[0].witness == "alpha=<15001 bits> beta=<15000 bits> l=15000"

    def test_endpoint_past_the_digit_limit(self, int_str_limit):
        far = halfint(2**15000 + 1, 2**14999)
        cert = certify_pair(GPPairEntry(2, DOMAIN_LO, far, entry(2).target))
        assert [c.passed for c in cert.checks] == [True, False]
        assert cert.checks[1].witness == f"[{DOMAIN_LO}, <15001 bits>)"


class TestOddWitness:
    def test_counts_the_failing_k_and_names_five(self):
        """Every k from 1 to l+1 = 201 fails for this target on row 8."""
        pair = entry(8)
        wrong = AlgebraicTarget(2**200 + 1, 2**200 - 1, 200)
        odd = certify_pair(GPPairEntry(8, pair.xi1, pair.xi2, wrong)).checks[-1]
        assert odd.name.startswith("(odd)") and not odd.passed
        assert odd.witness == "201 failing k, first [1, 2, 3, 4, 5]"

    def test_all_k_when_none_fail(self):
        odd = certify_pair(entry(8)).checks[-1]
        assert odd.name.startswith("(odd)") and odd.passed and odd.witness == "all k"


class TestPartition:
    def test_theorem_table_valid(self):
        rep = validate_partition(THEOREM_TABLE)
        assert rep.ok and rep.problems == ()

    def test_gap_detected(self):
        pruned = [p for p in THEOREM_TABLE if p.index != 3]
        rep = validate_partition(pruned)
        assert not rep.ok
        assert any("gap" in p for p in rep.problems)

    def test_overlap_detected(self):
        rows = list(THEOREM_TABLE)
        p4 = rows[3]
        rows[3] = GPPairEntry(4, p4.xi1, p4.xi2 + QSqrt2.of(Fraction(1, 1000)),
                              p4.target)
        rep = validate_partition(rows)
        assert not rep.ok
        assert any("overlap" in p for p in rep.problems)


class TestReconstruct:
    def test_shallow_reconstruction(self):
        rep = reconstruct_table(21, 10, l_bound=8)
        assert len(rep.regions) == 6
        assert not rep.unidentified
        found = {(r.target.alpha, r.target.beta, r.target.l)
                 for r in rep.identified}
        # rows 1-4 and 8 exactly; the merged central region matches sqrt2
        assert {(1, 1, 0), (11, 5, 3), (45, 19, 5), (181, 75, 7),
                (3, 1, 1), (1, 0, 0)} == found

    def test_coarse_self_consistency(self):
        from gppairs.engine import digits_of_target
        rep = reconstruct_table(9, 4, l_bound=4)
        for region in rep.identified:
            assert digits_of_target(region.target, 4).digits == region.digit_prefix

    def test_depth_precondition(self):
        with pytest.raises(ValueError):
            reconstruct_table(10, 10, l_bound=2)

    @pytest.mark.parametrize("digit_depth, l_bound, named", [
        (0, 8, "digit_depth"), (-1, 8, "digit_depth"), (10, -1, "l_bound")])
    def test_rejects_empty_digit_depth_and_negative_l_bound(self, digit_depth, l_bound, named):
        with pytest.raises(ValueError, match=named):
            reconstruct_table(21, digit_depth, l_bound)


def _candidate_targets(l_bound: int) -> list[AlgebraicTarget]:
    """Every structured target with l <= l_bound in [0, 2), after sqrt2: the
    list that reconstruct_table once scanned, kept here as the reference."""
    out = [AlgebraicTarget(1, 0, 0)]
    for l in range(l_bound + 1):
        two_l1 = 1 << (l + 1)
        for alpha in range(1, 2 * two_l1, 2):
            t = AlgebraicTarget(alpha, two_l1 - alpha, l)
            if t.value().sign() >= 0 and (t.value() - 2).sign() < 0:
                out.append(t)
    return out


def _first_match(l_bound: int, count: int) -> dict:
    """Digit prefix -> the first candidate whose digits it is."""
    first = {}
    for t in _candidate_targets(l_bound):
        first.setdefault(digits_of_target(t, count).digits, t)
    return first


class TestFirstTarget:
    def test_matches_candidate_scan(self):
        rng = random.Random(9)
        for count in range(1, 13):
            refs = [_first_match(l_bound, count) for l_bound in range(9)]
            prefixes = set(refs[-1])
            prefixes |= {tuple(rng.randint(0, 1) for _ in range(count)) for _ in range(40)}
            # digits outside {0, 1}, as at a counterexample epsilon
            prefixes |= {(1,) * (count - 1) + (2,), (-1,) + (0,) * (count - 1)}
            for l_bound, ref in enumerate(refs):
                for dp in prefixes:
                    assert discovery._first_target(dp, l_bound) == ref.get(dp), (dp, l_bound)

    def test_row_5_holds_an_l_279_region(self):
        # beyond any enumeration of the 2^(l+1) candidates per l: the region
        # right of row 4 inside row 5's interval is named by l = 279
        rep = reconstruct_table(601, 300, 300)
        assert not rep.unidentified
        assert [r.target.l for r in rep.regions] == [0, 3, 5, 7, 279, 0, 29, 15, 1]
        deep = rep.regions[4]
        assert deep.lo == entry(4).xi2 == halfint(309, 218)
        assert digits_of_target(deep.target, 300).digits == deep.digit_prefix
        assert deep.target.structure_ok()


class TestMonotonicity:
    @given(st.tuples(
        st.fractions(min_value=Fraction(2929, 10**4), max_value=Fraction(7070, 10**4),
                     max_denominator=10**5),
        st.fractions(min_value=Fraction(2929, 10**4), max_value=Fraction(7070, 10**4),
                     max_denominator=10**5)))
    @settings(max_examples=100, deadline=None)
    def test_v_n_nondecreasing_in_eps(self, pair):
        lo, hi = min(pair), max(pair)
        for n in (5, 12, 21):
            assert value_at(lo, n) <= value_at(hi, n)
