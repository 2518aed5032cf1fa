"""Endpoint-hunting machinery: exact piecewise-constant epsilon sweep,
certification of whole rows and of their endpoints from one sweep each,
jump enclosures read off one sweep of a window, algebraic identification of
jump points, degree-2 minimal polynomials, and partition validation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import gcd
from typing import NamedTuple

from .engine import (DELTA, SequenceSpec, SequenceTrace, _dyadic_floors, digits_from_trace,
                     exact_step, generate)
from .exact import QSqrt2, _sign, floor_q, floor_rat_sqrt2, integer_form
from .reals import RealInterval
from .table import (DOMAIN_HI, DOMAIN_LO, SQRT2_TARGET, AlgebraicTarget, GPPairEntry, entry,
                    halfint)

HALFINT_BOUND = 1 << 34  # largest |c|, |d| that identify_halfint_sqrt2 accepts


class SweepBudgetError(RuntimeError):
    def __init__(self, depth: int, cells: int, budget: int):
        super().__init__(f"cell budget {budget} exceeded at depth {depth} ({cells} cells)")


class IdentificationError(ValueError):
    pass


class SweepCell(NamedTuple):
    """Maximal half-open interval [lo, hi) on which v_1..v_N is constant."""

    lo: QSqrt2
    hi: QSqrt2
    prefix: tuple[int, ...]

    @property
    def midpoint(self) -> QSqrt2:
        return (self.lo + self.hi) / 2


def halfint_form(x: QSqrt2) -> tuple[int, int] | None:
    """(c, d) with x = (c/2)*sqrt2 - d, or None if x is not of that form."""
    p, r, q = integer_form(x)
    return (2 * r // q, -p // q) if p % q == 0 == 2 * r % q else None


def sweep(lo: QSqrt2, hi: QSqrt2, depth: int, cell_budget: int = 10**6) -> list[SweepCell]:
    """Exact partition of [lo, hi) into maximal constant-prefix cells, walked
    from lo.  Odd step 2k+1 raises v[2k+1] by one at the jump
    (c_k/2)*sqrt2 - d_k with c_k = v[2k+1]+1 and d_k = v[2k], so the cell
    [eps, ...) ends at the least jump of the trace at eps (or at hi, which
    wins a tie), where the next cell starts: it keeps the values before the
    first step that jumps there, and steps on.

    Jumps stay integer pairs.  (c/2)*sqrt2 - d < (c'/2)*sqrt2 - d' iff
    2(d'-d) + (c-c')*sqrt2 < 0, one integer sign test, so best[k] is the
    index of the least of jumps 0..k, and cutting the trace back to step
    2k+1 leaves best[:k] valid.  Only a chosen cell end becomes a QSqrt2."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not lo < hi:
        raise ValueError("empty sweep domain")
    p, r, q = integer_form(hi)
    cells, v, cs, ds, best = [], [1], [], [], []
    while True:
        form = integer_form(lo)
        for n in range(len(v), depth):
            v.append(exact_step(v[-1], n, form))  # form is unused on even steps
            if n % 2:
                c, d, k = v[-1] + 1, v[-2], len(cs)
                if best and _sign(2 * (ds[best[-1]] - d), c - cs[best[-1]]) >= 0:
                    k = best[-1]
                cs.append(c)
                ds.append(d)
                best.append(k)
        nxt = hi
        if best:
            # the least jump is below hi = (p + r*sqrt2)/q, q > 0, iff
            # -2(q*d + p) + (q*c - 2r)*sqrt2 < 0
            k = best[-1]
            if _sign(-2 * (q * ds[k] + p), q * cs[k] - 2 * r) < 0:
                nxt = halfint(cs[k], ds[k])
        cells.append(SweepCell(lo, nxt, tuple(v)))
        if len(cells) > cell_budget:
            raise SweepBudgetError(depth, len(cells), cell_budget)
        if nxt is hi:
            return cells
        del v[2 * k + 1:], cs[k:], ds[k:], best[k:]
        lo = nxt


def value_at(epsilon, index: int) -> int:
    """v_index(epsilon) by direct exact generation."""
    return generate(SequenceSpec(epsilon, depth=index)).values[index - 1]


def bisect_jump(target_index: int, target_value: int,
                window: tuple[Fraction, Fraction], tol_bits: int) -> RealInterval:
    """Enclosure of inf{eps : v_n(eps) >= target_value}: the window that
    halving it to width <= 2^-tol_bits would reach, read off one sweep.

    v_n is nondecreasing in eps and constant on each swept cell, so the jump
    xi is the lo of the first cell that reaches the target, or hi if none
    does (an integer jump, c = 0, can sit exactly on a rational end).  After
    K halvings the window is [lo + j*w, lo + (j+1)*w] with w = (hi-lo)/2^K
    and lo + j*w < xi <= lo + (j+1)*w, so j = ceil((xi - lo)/w) - 1.
    """
    if tol_bits < 1:
        raise ValueError(f"tol_bits must be >= 1, got {tol_bits}")
    if not all(isinstance(end, (int, Fraction)) for end in window):
        raise TypeError(f"window ends must be int or Fraction: {window!r}")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    v_lo = generate(SequenceSpec(lo, target_index)).values[-1]
    v_hi = generate(SequenceSpec(hi, target_index)).values[-1]
    if not (v_lo < target_value <= v_hi):
        raise ValueError(
            f"window does not bracket the jump: v({lo})={v_lo}, "
            f"v({hi})={v_hi}, target {target_value}")
    cells = sweep(QSqrt2.of(lo), QSqrt2.of(hi), target_index)
    xi = next((c.lo for c in cells if c.prefix[-1] >= target_value), cells[-1].hi)
    # the least K >= 0 with hi - lo <= 2^(K - tol_bits): with a/b the width
    # times 2^tol_bits, the bit-length difference of a and b, or one more
    span = hi - lo
    a, b = span.numerator << tol_bits, span.denominator
    k = max(0, a.bit_length() - b.bit_length())
    if b << k < a:
        k += 1
    w = span / (1 << k)
    j = -floor_q((lo - xi) / w) - 1
    return RealInterval(lo + j * w, lo + (j + 1) * w, tol_bits)


def _sqrt2_half_min_gap(bound: int) -> QSqrt2:
    """The least nonzero |q*(sqrt2/2) - p| with 1 <= q <= 2*bound (bound >= 1).

    The convergents p/q of sqrt2/2 (0/1, 1/1, 2/3, 5/7, ...) are its best
    approximations and their errors strictly decrease, so the least one is
    the error of the last convergent with q <= 2*bound.
    """
    p0, q0, p1, q1 = 0, 1, 1, 1
    while 2 * q1 + q0 <= 2 * bound:
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    err = QSqrt2(Fraction(-p1), Fraction(q1, 2))
    return -err if err.sign() < 0 else err


# an interval wider than this could hold a second (c/2)*sqrt2 - d with
# |c|, |d| <= HALFINT_BOUND
_HALFINT_GAP = _sqrt2_half_min_gap(HALFINT_BOUND)


def _unit_powers(bound: int) -> list[tuple[int, int]]:
    """(a_k, b_k) with (1+sqrt2)^k = a_k + b_k*sqrt2 for k = 0..K, K the
    least k with (sqrt2-1)^k*(2+sqrt2)*bound < 1/2, that is with
    (4 + 2*sqrt2)*bound < (1+sqrt2)^k."""
    powers = [(1, 0)]
    while _sign(powers[-1][0] - 4 * bound, powers[-1][1] - 2 * bound) <= 0:
        a, b = powers[-1]
        powers.append((a + 2 * b, a + b))
    return powers


_UNIT_POWERS = _unit_powers(HALFINT_BOUND)


def identify_halfint_sqrt2(x: RealInterval) -> tuple[int, int]:
    """The unique (c, d) with (c/2)*sqrt2 - d inside the interval, read
    through the unit 1+sqrt2.

    z = 2x = c*sqrt2 - 2d is in Z[sqrt2], and its conjugate -c*sqrt2 - 2d is
    at most (2+sqrt2)*HALFINT_BOUND in size.  w = z*(1+sqrt2)^k = m + n*sqrt2
    has conjugate m - n*sqrt2 = z'*(1-sqrt2)^k, below 1/2 at k = K, and then
    m and n are w/2 and (w - m)*sqrt2/2 rounded.  w is taken from the
    midpoint, which moves it by at most width*(1+sqrt2)^k <= 1/8 at the
    largest k <= K that the width allows; z = w*(sqrt2-1)^k comes back
    exactly.  The candidate is verified by exact interval membership and
    uniqueness by the best approximation gap of sqrt2/2.

    On integers, with mn/md = lo + hi = 2*mid (md > 0) and (1+sqrt2)^k = a + b*sqrt2:
        m = floor(w/2 + 1/2) = (mn*a + md + floor(mn*b*sqrt2)) // (2*md),
        n = floor((w - m)*sqrt2/2 + 1/2)
          = (floor((mn*a - m*md)*sqrt2) + 2*mn*b + md) // (2*md),
    as floor((p + r*sqrt2)/q) = (p + floor(r*sqrt2)) // q for integers p, r, q > 0.
    """
    ln, ld, hn, hd = x.lo.numerator, x.lo.denominator, x.hi.numerator, x.hi.denominator
    md, mn, wn = ld * hd, ln * hd + hn * ld, hn * ld - ln * hd  # width wn/md
    k = sum(8 * wn * (a + 2 * b) <= md for a, b in _UNIT_POWERS) - 1
    if k >= 0:
        a, b = _UNIT_POWERS[k]
        m = (mn * a + md + floor_rat_sqrt2(mn * b, 1)) // (2 * md)
        n = (floor_rat_sqrt2(mn * a - m * md, 1) + 2 * mn * b + md) // (2 * md)
        # (sqrt2-1)^k = (-1)^k*(a - b*sqrt2)
        sgn = -1 if k % 2 else 1
        c, two_d = sgn * (n * a - m * b), -sgn * (m * a - 2 * n * b)
        d = two_d // 2
        if (two_d % 2 == 0 and abs(c) <= HALFINT_BOUND and abs(d) <= HALFINT_BOUND
                and x.contains(halfint(c, d))):
            if _HALFINT_GAP * md < wn:
                raise IdentificationError(
                    "interval admits multiple (c,d) candidates; tighten it")
            return c, d
    raise IdentificationError(
        "no (c/2)*sqrt2 - d candidate found in the interval; tighten it")


class QuadPoly(NamedTuple):
    """Content-free integer polynomial a2 x^2 + a1 x + a0 with a2 > 0, or
    with a2 = 0 and a1 = 1 for an integer root."""

    a2: int
    a1: int
    a0: int

    def eval_q(self, x: QSqrt2) -> QSqrt2:
        return x * x * self.a2 + x * self.a1 + QSqrt2.of(self.a0)

    def __str__(self):
        return f"{self.a2}*x^2 + {self.a1}*x + {self.a0}"


def min_poly_deg2(x: RealInterval) -> QuadPoly:
    """Minimal polynomial of the (c/2)*sqrt2 - d that identify_halfint_sqrt2
    names in the enclosure: (x + d)^2 = c^2/2, that is
    2x^2 + 4dx + 2d^2 - c^2 over its content, or x + d when c = 0 (_min_poly).
    Any other enclosed value raises IdentificationError."""
    return _min_poly(*identify_halfint_sqrt2(x))


def _min_poly(c: int, d: int) -> QuadPoly:
    if c == 0:
        return QuadPoly(0, 1, d)
    a2, a1, a0 = 2, 4 * d, 2 * d * d - c * c
    g = gcd(a2, a1, a0)
    return QuadPoly(a2 // g, a1 // g, a0 // g)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: str = ""


class Certificate(NamedTuple):
    pair_index: int
    checks: tuple[CheckResult, ...]
    comp_target: int | None = None
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _comp_value(target: AlgebraicTarget) -> int:
    """floor(alpha*sqrt2) + 2*alpha, the required v_{2(l+2)} value."""
    return floor_rat_sqrt2(target.alpha, 1) + 2 * target.alpha


# [1-sqrt2/2, sqrt2/2) rounded inward to 2^-64: both ends are irrational, so
# the rounded ends lie strictly inside the domain
_DOMAIN_WINDOW = (Fraction(floor_q(DOMAIN_LO * (1 << 64)) + 1, 1 << 64),
                  Fraction(floor_q(DOMAIN_HI * (1 << 64)), 1 << 64))


def rediscover_left_endpoint(pair: GPPairEntry, tol_bits: int
                             ) -> tuple[RealInterval, tuple[int, int], QuadPoly]:
    """Enclosure, (c, d) and minimal polynomial of a row's left endpoint,
    found from its target alone: neither xi1 nor xi2 is read.  Every v_n is
    nondecreasing in eps, so the endpoint is the least eps in the domain at
    which v_{2(l+2)} reaches the (comp) value, read off one sweep of the
    domain by bisect_jump.  The direct case starts where the row before it
    stops holding (comp).  Row 1 starts at the domain boundary, no jump,
    and raises ValueError."""
    if pair.target.direct:
        prev = entry(pair.index - 1)
        depth, value = prev.certification_depth, _comp_value(prev.target) + 1
    else:
        depth, value = pair.certification_depth, _comp_value(pair.target)
    enclosure = bisect_jump(depth, value, _DOMAIN_WINDOW, tol_bits)
    c, d = identify_halfint_sqrt2(enclosure)
    return enclosure, (c, d), _min_poly(c, d)


def _row_sweep(pair: GPPairEntry) -> list[SweepCell]:
    """The row's one certifying sweep, at its certification depth: the
    cells next to [xi1, xi2) decide sharpness for every eps in them, so
    DELTA only sets how far past each endpoint the window reaches."""
    margin = QSqrt2.of(DELTA)
    return sweep(max(pair.xi1 - margin, DOMAIN_LO), min(pair.xi2 + margin, DOMAIN_HI),
                 pair.certification_depth)


def _around(cells: list[SweepCell], x: QSqrt2) -> tuple[SweepCell | None, SweepCell | None]:
    """The cells containing the points just below x and x itself; None
    where that side of x lies outside the swept window."""
    below = next((c for c in reversed(cells) if c.lo < x), None)
    return below, next((c for c in cells if c.hi > x), None)


def _show(x: int | QSqrt2) -> str:
    """str(x), or its size where x holds an integer with more digits than
    Python converts to text."""
    try:
        return str(x)
    except ValueError:
        parts = integer_form(x) if isinstance(x, QSqrt2) else (x,)
        return f"<{max(abs(n).bit_length() for n in parts)} bits>"


def _span(cell: SweepCell) -> str:
    return f"[{_show(cell.lo)}, {_show(cell.hi)})"


def certify_pair(pair: GPPairEntry) -> Certificate:
    """Finite exact checks that, with the two universal lemmas, establish the
    pair for all n.  Not for the direct case, which uses closed_form_check.

    All are read off one sweep and hold for every eps: [xi1, xi2) is one
    cell with (comp) and the (odd) base cases, the cells next to it fail (comp).
    """
    if pair.target.direct:
        raise ValueError(f"row {pair.index} is the direct case; use closed_form_check")
    t = pair.target
    checks: list[CheckResult] = []
    notes: list[str] = []

    ok = t.structure_ok()
    checks.append(CheckResult(
        "structure alpha odd, alpha+beta=2^(l+1)", ok,
        f"alpha={_show(t.alpha)} beta={_show(t.beta)} l={t.l}"))
    in_dom = DOMAIN_LO <= pair.xi1 < pair.xi2 <= DOMAIN_HI
    checks.append(CheckResult("interval within [1-sqrt2/2, sqrt2/2)", in_dom,
                              f"[{_show(pair.xi1)}, {_show(pair.xi2)})"))
    if not (ok and in_dom):
        return Certificate(pair.index, tuple(checks))

    comp_target = _comp_value(t)
    depth = pair.certification_depth  # 2(l+2): also covers v_{2k+1}, k <= l+1
    cells = _row_sweep(pair)
    inside = [c for c in cells if c.hi > pair.xi1 and c.lo < pair.xi2]
    one = len(inside) == 1 and inside[0].lo == pair.xi1 and inside[0].hi == pair.xi2
    checks.append(CheckResult("[xi1, xi2) is one sweep cell", one,
                              ", ".join(map(_span, inside))))
    values = sorted({c.prefix[-1] for c in inside})
    checks.append(CheckResult("(comp) holds on [xi1, xi2)", values == [comp_target],
                              f"v_{depth}=[{', '.join(map(_show, values))}] "
                              f"target={_show(comp_target)}"))

    below, _ = _around(cells, pair.xi1)
    if below is not None:
        checks.append(CheckResult("(comp) fails just below xi1",
                                  below.prefix[-1] != comp_target,
                                  f"v_{depth}={_show(below.prefix[-1])}"))
    else:
        notes.append("left endpoint is the domain boundary 1-sqrt2/2; "
                     "sharpness there comes from the (conditio) constraint")
    _, above = _around(cells, pair.xi2)
    if above is not None:
        checks.append(CheckResult("(comp) fails at xi2", above.prefix[-1] != comp_target,
                                  f"v_{depth}(xi2)={_show(above.prefix[-1])}"))
    else:
        notes.append("right endpoint is the domain boundary sqrt2/2; "
                     "sharpness there comes from the (conditio) constraint")

    # odd-form base cases: v_{2k+1} = floor(t*2^{k-1}) + 2^k for 0<=k<=l+1
    fl = _dyadic_floors(t.value(), t.l)
    bad = sorted({k for c in inside for k in range(0, t.l + 2)
                  if c.prefix[2 * k] != fl(k - 1) + (1 << k)})
    checks.append(CheckResult("(odd) for 0<=k<=l+1 on [xi1, xi2)", not bad,
                              f"{len(bad)} failing k, first {bad[:5]}" if bad else "all k"))

    if pair.index == 6 and comp_target != 2749487923:
        notes.append(
            f"computed floor(alpha*sqrt2)+2*alpha = {comp_target}; the "
            "literature prints 2749487923 - recorded as a suspected erratum")

    return Certificate(pair.index, tuple(checks), comp_target, tuple(notes))


class EndpointReport(NamedTuple):
    pair_index: int
    side: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_endpoint(pair: GPPairEntry, side: str) -> EndpointReport:
    """Exact confirmation, read off the row's one sweep, that an endpoint is
    a breakpoint and, except in the direct case, a sharp (comp) one: (comp)
    holds on the cell on the interval's side and fails on the other."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xi = pair.xi1 if side == "left" else pair.xi2
    below, at = _around(_row_sweep(pair), xi)
    inner, outer = (at, below) if side == "left" else (below, at)
    at_xi = (at is None or at.lo == xi) and (below is None or below.hi == xi)
    if pair.target.direct:
        return EndpointReport(pair.index, side, (CheckResult(
            "breakpoint at xi", at_xi, f"{_span(inner)}; direct case: no (comp) check"),))

    target = _comp_value(pair.target)
    depth = pair.certification_depth
    checks = [CheckResult("breakpoint at xi", at_xi, _span(inner)),
              CheckResult("(comp) holds inside", inner.prefix[-1] == target,
                          f"v_{depth}={_show(inner.prefix[-1])} target={_show(target)}")]
    if outer is not None:
        checks.append(CheckResult("(comp) fails outside", outer.prefix[-1] != target,
                                  f"v_{depth}={_show(outer.prefix[-1])}"))
    return EndpointReport(pair.index, side, tuple(checks))


class PartitionReport(NamedTuple):
    ok: bool
    problems: tuple[str, ...]


def validate_partition(entries) -> PartitionReport:
    """Adjacent, disjoint, and covering [1-sqrt2/2, sqrt2/2), exactly."""
    problems = []
    es = list(entries)
    es.sort(key=lambda e: e.xi1)
    if (es[0].xi1 - DOMAIN_LO).sign() != 0:
        problems.append(f"first interval starts at {es[0].xi1}, not 1-sqrt2/2")
    if (es[-1].xi2 - DOMAIN_HI).sign() != 0:
        problems.append(f"last interval ends at {es[-1].xi2}, not sqrt2/2")
    for a, b in zip(es, es[1:]):
        cmp = (a.xi2 - b.xi1).sign()
        if cmp < 0:
            problems.append(f"gap between rows {a.index} and {b.index} at {a.xi2}")
        elif cmp > 0:
            problems.append(f"overlap between rows {a.index} and {b.index} at {b.xi1}")
    for e in es:
        if not (e.xi1 - e.xi2).sign() < 0:
            problems.append(f"row {e.index} has xi1 >= xi2")
    return PartitionReport(not problems, tuple(problems))


class Region(NamedTuple):
    lo: QSqrt2
    hi: QSqrt2
    digit_prefix: tuple[int, ...]
    target: AlgebraicTarget | None  # None: unidentified


class ReconstructionReport(NamedTuple):
    regions: tuple[Region, ...]

    @property
    def identified(self) -> tuple[Region, ...]:
        return tuple(r for r in self.regions if r.target is not None)

    @property
    def unidentified(self) -> tuple[Region, ...]:
        return tuple(r for r in self.regions if r.target is None)


def _first_target(digits: tuple[int, ...], l_bound: int) -> AlgebraicTarget | None:
    """The first of sqrt2, then (alpha*sqrt2 - beta)/2^l with alpha odd and
    alpha + beta = 2^(l+1) by l <= l_bound and alpha, whose digits begin with
    `digits`; None if none does.  The n digits are the bits of
    p = floor(t*2^(n-1)), and t = alpha*(1+sqrt2)/2^l - 2, so for each l the
    matching alpha fill [m*s, (m+1)*s) with m = p + 2^n and
    s = (sqrt2-1)*2^(l+1-n): both ends are irrational, and t is in [0, 2).
    On integers, floor((sqrt2-1)*m*2^e) = (floor(M*sqrt2) - M) >> max(-e, 0)
    with M = m << max(e, 0), as floor(floor(y)/2^j) = floor(y/2^j)."""
    if any(d not in (0, 1) for d in digits):
        return None
    n, p = len(digits), int("".join(map(str, digits)), 2)
    if floor_rat_sqrt2(1 << (n - 1), 1) == p:
        return SQRT2_TARGET
    m = p + (1 << n)
    for l in range(l_bound + 1):
        up, down = max(l + 1 - n, 0), max(n - l - 1, 0)
        lo_m, hi_m = m << up, (m + 1) << up
        alpha = ((floor_rat_sqrt2(lo_m, 1) - lo_m) >> down) + 1 | 1  # floor(m*s) + 1, odd
        if alpha <= (floor_rat_sqrt2(hi_m, 1) - hi_m) >> down:  # floor((m+1)*s)
            return AlgebraicTarget(alpha, (1 << (l + 1)) - alpha, l)
    return None


def reconstruct_table(depth: int, digit_depth: int, l_bound: int) -> ReconstructionReport:
    """Sweep the domain, group cells by digit prefix, and name each region's
    target by a direct solve for its first (l, alpha); regions that no
    target with l <= l_bound matches are reported as unidentified."""
    if digit_depth < 1:
        raise ValueError("digit_depth must be >= 1")
    if l_bound < 0:
        raise ValueError("l_bound must be >= 0")
    if depth < 2 * digit_depth + 1:
        raise ValueError("depth must be >= 2*digit_depth + 1")
    runs = groupby(sweep(DOMAIN_LO, DOMAIN_HI, depth),
                   lambda c: digits_from_trace(SequenceTrace(c.prefix), digit_depth).digits)
    regions = []
    for dp, run in runs:
        cells = list(run)
        regions.append(Region(cells[0].lo, cells[-1].hi, dp, _first_target(dp, l_bound)))
    return ReconstructionReport(tuple(regions))
