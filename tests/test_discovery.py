"""Sweeping, bisection, algebraic identification, partition validation."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gppairs import discovery
from gppairs.discovery import (
    IdentificationError,
    QuadPoly,
    SweepBudgetError,
    bisect_jump,
    halfint_form,
    identify_halfint_sqrt2,
    lll_reduce,
    min_poly_deg2,
    reconstruct_table,
    sweep,
    validate_partition,
    value_at,
    verify_endpoint,
)
from gppairs.engine import SequenceSpec, digits_of_target, exact_step, generate
from gppairs.exact import QSqrt2, integer_form
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


class TestBisect:
    def test_sqrt2_minus_1_jump(self):
        enc = bisect_jump(2, 2, (Fraction(3, 10), Fraction(5, 10)), 80)
        assert enc.contains(QSqrt2.of(-1, 1))
        assert enc.width <= Fraction(1, 1 << 80)

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


class TestIdentify:
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


class TestLLL:
    def test_reduction_preserves_lattice_and_shortens(self):
        basis = [[1, 0, 0, 10**12], [0, 1, 0, 10**12 + 7], [0, 0, 1, 3]]
        red = lll_reduce(basis)
        assert len(red) == 3
        norms = [sum(v * v for v in row) for row in red]
        assert min(norms) < 10**12  # found a genuinely short vector

    @staticmethod
    def _gram_det(rows) -> Fraction:
        m = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in rows] for u in rows]
        det = Fraction(1)
        for i in range(len(m)):
            if m[i][i] == 0:  # a Gram matrix is positive semidefinite
                return Fraction(0)
            det *= m[i][i]
            for r in range(i + 1, len(m)):
                f = m[r][i] / m[i][i]
                m[r] = [a - f * c for a, c in zip(m[r], m[i])]
        return det

    @staticmethod
    def _in_lattice(row, basis) -> bool:
        """row = sum z_i basis_i with integer z_i (basis rows independent)."""
        n = len(basis)
        # normal equations (B B^T) z = B row, solved exactly
        m = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in basis]
             + [Fraction(sum(x * y for x, y in zip(u, row)))] for u in basis]
        for i in range(n):
            for r in range(n):
                if r != i:
                    f = m[r][i] / m[i][i]
                    m[r] = [a - f * c for a, c in zip(m[r], m[i])]
        z = [m[i][n] / m[i][i] for i in range(n)]
        return (all(c.denominator == 1 for c in z)
                and [sum(c * b[j] for c, b in zip(z, basis)) for j in range(len(row))] == row)

    @given(st.integers(2, 4), st.integers(0, 2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_basis_is_reduced_and_spans(self, n, extra, data):
        entry_st = st.integers(-(1 << 200), 1 << 200) | st.integers(-9, 9)
        basis = data.draw(st.lists(st.lists(entry_st, min_size=n + extra,
                                            max_size=n + extra),
                                   min_size=n, max_size=n))
        det = self._gram_det(basis)
        if det == 0:
            with pytest.raises(ValueError):
                lll_reduce(basis)
            return
        red = lll_reduce(basis)
        assert self._gram_det(red) == det
        assert all(self._in_lattice(row, basis) for row in red)
        # Gram-Schmidt of the output, in Fractions
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(red):
            v = [Fraction(x) for x in row]
            for j in range(i):
                mu[i][j] = (sum(x * y for x, y in zip(row, star[j]))
                            / sum(y * y for y in star[j]))
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        norm = [sum(x * x for x in v) for v in star]
        for k in range(1, n):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            assert norm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm[k - 1]

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            lll_reduce([[1, 2, 3], [5, 7, 11], [7, 11, 17]])  # row 3 = 2*row 1 + row 2
        with pytest.raises(ValueError, match="linearly dependent"):
            lll_reduce([[0, 0], [1, 1]])

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

    def test_bad_side(self):
        with pytest.raises(ValueError):
            verify_endpoint(entry(2), "middle")


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
