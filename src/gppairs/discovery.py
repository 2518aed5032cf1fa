"""Endpoint-hunting machinery: exact piecewise-constant epsilon sweep,
certification of whole rows and of their endpoints from one sweep each,
bisection on trace values, algebraic identification of jump points,
degree-2 minimal polynomials, and partition validation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import gcd
from typing import NamedTuple

from .engine import (DELTA, SequenceSpec, SequenceTrace, _dyadic_floors, digits_from_trace,
                     exact_step, generate)
from .exact import QSqrt2, _sign, floor_q, floor_rat_sqrt2, integer_form, isqrt
from .reals import RealInterval
from .table import DOMAIN_HI, DOMAIN_LO, AlgebraicTarget, GPPairEntry, halfint

HALFINT_BOUND = 1 << 34  # largest |c|, |d| that identify_halfint_sqrt2 accepts
COEFF_BOUND = 1 << 34  # largest |coefficient| that min_poly_deg2 accepts


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
    eps = epsilon if isinstance(epsilon, QSqrt2) else QSqrt2.of(Fraction(epsilon))
    return generate(SequenceSpec(eps, depth=index)).values[index - 1]


def bisect_jump(target_index: int, target_value: int,
                window: tuple[Fraction, Fraction], tol_bits: int) -> RealInterval:
    """Enclosure of inf{eps : v_n(eps) >= target_value} by interval halving.

    Every probe is an exact trace evaluation at a rational midpoint.
    """
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if not (value_at(lo, target_index) < target_value <= value_at(hi, target_index)):
        raise ValueError(
            f"window does not bracket the jump: v({lo})={value_at(lo, target_index)}, "
            f"v({hi})={value_at(hi, target_index)}, target {target_value}")
    tol = Fraction(1, 1 << tol_bits)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if value_at(mid, target_index) >= target_value:
            hi = mid
        else:
            lo = mid
    return RealInterval(lo, hi, tol_bits)


# --- integer lattice reduction (exact, small dimension) ---------------------

def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """Integral LLL, delta = 3/4 (Cohen, Alg. 2.6.7); small fixed dimensions.

    Only integers are carried: d[i] is the Gram determinant of the first i
    rows and lam[k][j] = d[j+1]*mu_kj, and every division is exact.  A
    linearly dependent basis raises ValueError.
    """
    b = [list(row) for row in basis]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
        if u == 0:
            raise ValueError(f"lll_reduce: basis is linearly dependent (row {k})")
        d[k + 1] = u

    def reduce(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    k = 1
    while k < n:
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            # swap rows k-1 and k, updating d[k] and the lam of later rows
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            m = lam[k][k - 1]
            new_d = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (new_d * t + m * lam[i][k]) // d[k + 1]
            d[k] = new_d
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return b


def _width_bits(iv: RealInterval) -> int:
    w = iv.width
    if w == 0:
        return 400
    return max(8, w.denominator.bit_length() - w.numerator.bit_length())


def _sqrt2_half_gap(bound: int, threshold: Fraction) -> bool:
    """True if some nonzero |q*(sqrt2/2) - p| with |q| <= 2*bound is below
    threshold (i.e. a second identification candidate could fit)."""
    # best approximations of sqrt2/2 come from Pell-style convergents
    p0, q0 = 0, 1
    p1, q1 = 1, 1
    while q1 <= 2 * bound:
        err = QSqrt2(Fraction(-p1), Fraction(q1, 2))
        if err.sign() < 0:
            err = -err
        if (err - QSqrt2.of(threshold)).sign() < 0:
            return True
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    return False


def identify_halfint_sqrt2(x: RealInterval) -> tuple[int, int]:
    """The unique (c, d) with (c/2)*sqrt2 - d inside the interval.

    Uses an exact integer-relation search on (sqrt2/2, 1, x); the candidate
    is verified by exact interval membership and uniqueness by the best
    approximation gap of sqrt2/2.
    """
    mid = x.mid
    wb = _width_bits(x)
    for sb in (wb - 4, wb - 12, wb + 8, wb // 2 + 16):
        if sb < 16:
            continue
        s = 1 << sb
        t_scaled = floor_rat_sqrt2(s, 2)
        x_scaled = mid.numerator * s // mid.denominator
        rows = lll_reduce([[1, 0, 0, t_scaled], [0, 1, 0, s], [0, 0, 1, x_scaled]])
        for row in sorted(rows, key=lambda r: sum(v * v for v in r)):
            if abs(row[2]) != 1:
                continue
            if row[2] == -1:
                c, d = row[0], -row[1]
            else:
                c, d = -row[0], row[1]
            if abs(c) > HALFINT_BOUND or abs(d) > HALFINT_BOUND:
                continue
            cand = QSqrt2(Fraction(-d), Fraction(c, 2))
            if x.contains(cand):
                if _sqrt2_half_gap(HALFINT_BOUND, x.width):
                    raise IdentificationError(
                        "interval admits multiple (c,d) candidates; tighten it")
                return c, d
    raise IdentificationError(
        "no (c/2)*sqrt2 - d candidate found in the interval; tighten it")


class QuadPoly(NamedTuple):
    """Content-free integer quadratic a2 x^2 + a1 x + a0 with a2 > 0."""

    a2: int
    a1: int
    a0: int

    def eval_q(self, x: QSqrt2) -> QSqrt2:
        return x * x * self.a2 + x * self.a1 + QSqrt2.of(self.a0)

    def __str__(self):
        return f"{self.a2}*x^2 + {self.a1}*x + {self.a0}"


def min_poly_deg2(x: RealInterval) -> QuadPoly:
    """Integer quadratic annihilating the enclosed value, by integer-relation
    search on (x^2, x, 1); exact root membership is verified when the root
    lies in Q(sqrt2)."""
    mid = x.mid
    wb = _width_bits(x)
    for sb in (wb - 4, wb - 12, wb // 2 + 16):
        if sb < 16:
            continue
        s = 1 << sb
        x1 = mid.numerator * s // mid.denominator
        m2 = mid * mid
        x2 = m2.numerator * s // m2.denominator
        rows = lll_reduce([[1, 0, 0, x2], [0, 1, 0, x1], [0, 0, 1, s]])
        for row in sorted(rows, key=lambda r: sum(v * v for v in r)):
            a2, a1, a0 = row[0], row[1], row[2]
            if (a2, a1, a0) == (0, 0, 0):
                continue
            if max(abs(a2), abs(a1), abs(a0)) > COEFF_BOUND:
                continue
            if a2 < 0 or (a2 == 0 and a1 < 0):
                a2, a1, a0 = -a2, -a1, -a0
            g = gcd(gcd(abs(a2), abs(a1)), abs(a0))
            a2, a1, a0 = a2 // g, a1 // g, a0 // g
            # residual must be explained by the interval width
            pm = a2 * mid * mid + a1 * mid + a0
            slope = abs(2 * a2 * mid + a1) + abs(a2)
            if abs(pm) <= slope * x.width * 4 + Fraction(1, 1 << (sb - 8)):
                poly = QuadPoly(a2, a1, a0)
                _verify_quad_root(poly, x)
                return poly
    raise IdentificationError("no degree-2 polynomial matches the enclosure")


def _verify_quad_root(poly: QuadPoly, x: RealInterval) -> None:
    """If the root is in Q(sqrt2), require it to lie in the interval and be
    an exact root."""
    if poly.a2 == 0:
        return
    disc = poly.a1 * poly.a1 - 4 * poly.a2 * poly.a0
    if disc < 0 or disc % 2 != 0:
        return
    s = isqrt(disc // 2)
    if 2 * s * s != disc:
        return
    for sgn in (1, -1):
        root = QSqrt2(Fraction(-poly.a1, 2 * poly.a2), Fraction(sgn * s, 2 * poly.a2))
        if x.contains(root):
            if poly.eval_q(root) != QSqrt2.of(0):
                raise IdentificationError(
                    f"{poly} does not annihilate its Q(sqrt2) root {root}")
            return
    raise IdentificationError(f"{poly} has no root inside the enclosure")


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


def _row_sweep(pair: GPPairEntry) -> list[SweepCell]:
    """The row's one certifying sweep, at depth 2(l+2) (62 for row 5): the
    cells next to [xi1, xi2) decide sharpness for every eps in them, so
    DELTA only sets how far past each endpoint the window reaches."""
    depth = pair.certification_depth if pair.index != 5 else 62
    margin = QSqrt2.of(DELTA)
    return sweep(max(pair.xi1 - margin, DOMAIN_LO), min(pair.xi2 + margin, DOMAIN_HI),
                 depth)


def _around(cells: list[SweepCell], x: QSqrt2) -> tuple[SweepCell | None, SweepCell | None]:
    """The cells containing the points just below x and x itself; None
    where that side of x lies outside the swept window."""
    below = next((c for c in reversed(cells) if c.lo < x), None)
    return below, next((c for c in cells if c.hi > x), None)


def _span(cell: SweepCell) -> str:
    return f"[{cell.lo}, {cell.hi})"


def certify_pair(pair: GPPairEntry) -> Certificate:
    """Finite exact checks that, with the two universal lemmas, establish the
    pair for all n.  Rows other than 5 only; row 5 uses closed_form_check.

    All are read off one sweep and hold for every eps: [xi1, xi2) is one
    cell with (comp) and the (odd) base cases, the cells next to it fail (comp).
    """
    if pair.index == 5:
        raise ValueError("row 5 is the direct case; use closed_form_check")
    t = pair.target
    checks: list[CheckResult] = []
    notes: list[str] = []

    ok = t.structure_ok()
    checks.append(CheckResult(
        "structure alpha odd, alpha+beta=2^(l+1)", ok,
        f"alpha={t.alpha} beta={t.beta} l={t.l}"))
    in_dom = DOMAIN_LO <= pair.xi1 < pair.xi2 <= DOMAIN_HI
    checks.append(CheckResult("interval within [1-sqrt2/2, sqrt2/2)", in_dom,
                              f"[{pair.xi1}, {pair.xi2})"))
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
                              f"v_{depth}={values} target={comp_target}"))

    below, _ = _around(cells, pair.xi1)
    if below is not None:
        checks.append(CheckResult("(comp) fails just below xi1",
                                  below.prefix[-1] != comp_target,
                                  f"v_{depth}={below.prefix[-1]}"))
    else:
        notes.append("left endpoint is the domain boundary 1-sqrt2/2; "
                     "sharpness there comes from the (conditio) constraint")
    _, above = _around(cells, pair.xi2)
    if above is not None:
        checks.append(CheckResult("(comp) fails at xi2", above.prefix[-1] != comp_target,
                                  f"v_{depth}(xi2)={above.prefix[-1]}"))
    else:
        notes.append("right endpoint is the domain boundary sqrt2/2; "
                     "sharpness there comes from the (conditio) constraint")

    # odd-form base cases: v_{2k+1} = floor(t*2^{k-1}) + 2^k for 0<=k<=l+1
    fl = _dyadic_floors(t.value(), t.l)
    bad = sorted({k for c in inside for k in range(0, t.l + 2)
                  if c.prefix[2 * k] != fl(k - 1) + (1 << k)})
    checks.append(CheckResult("(odd) for 0<=k<=l+1 on [xi1, xi2)", not bad,
                              f"failing k={bad}" if bad else "all k"))

    if pair.index == 6 and comp_target != 2749487923:
        notes.append(
            f"computed floor(alpha*sqrt2)+2*alpha = {comp_target}; the "
            "literature prints 2749487923 - recorded as a suspected erratum")

    return Certificate(pair.index, tuple(checks), comp_target, tuple(notes))


class EndpointReport(NamedTuple):
    pair_index: int
    side: str
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(p for _, p, _ in self.checks)


def verify_endpoint(pair: GPPairEntry, side: str) -> EndpointReport:
    """Exact confirmation, read off the row's one sweep, that an endpoint is
    a breakpoint and, except on row 5, a sharp (comp) one: (comp) holds on
    the cell on the interval's side and fails on the other."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xi = pair.xi1 if side == "left" else pair.xi2
    below, at = _around(_row_sweep(pair), xi)
    inner, outer = (at, below) if side == "left" else (below, at)
    at_xi = (at is None or at.lo == xi) and (below is None or below.hi == xi)
    if pair.index == 5:
        return EndpointReport(5, side, (
            ("breakpoint at xi", at_xi, f"{_span(inner)}; direct case: no (comp) check"),))

    target = _comp_value(pair.target)
    depth = pair.certification_depth
    checks = [("breakpoint at xi", at_xi, _span(inner)),
              ("(comp) holds inside", inner.prefix[-1] == target,
               f"v_{depth}={inner.prefix[-1]} target={target}")]
    if outer is not None:
        checks.append(("(comp) fails outside", outer.prefix[-1] != target,
                       f"v_{depth}={outer.prefix[-1]}"))
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
    s = (sqrt2-1)*2^(l+1-n): both ends are irrational, and t is in [0, 2)."""
    if any(d not in (0, 1) for d in digits):
        return None
    n, p = len(digits), int("".join(map(str, digits)), 2)
    if floor_rat_sqrt2(1 << (n - 1), 1) == p:
        return AlgebraicTarget(1, 0, 0)  # t = sqrt2, the direct case
    m = p + (1 << n)
    for l in range(l_bound + 1):
        s = QSqrt2(-1, 1) * Fraction(2) ** (l + 1 - n)
        lo = floor_q(s * m) + 1
        alpha = lo | 1
        if alpha <= floor_q(s * (m + 1)):
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
