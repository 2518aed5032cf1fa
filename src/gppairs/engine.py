"""Sequence generation, digit extraction, digit verification of a row at
one epsilon, closed-form checks, counterexample scanning, normality probes,
and the corollary check (row certification is in discovery.py, by sweep).

The step rule throughout: v_{n+1} = floor(sqrt2*(v_n + eps)) for odd n,
floor(sqrt2*(v_n + 1/2)) for even n.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .exact import QSqrt2, floor_q, floor_rat_sqrt2, frac_q, integer_form
from .reals import RefinableReal, UndecidableError, certified_floor
from .table import DOMAIN_HI, DOMAIN_LO, AlgebraicTarget, GPPairEntry, entry

HALF = Fraction(1, 2)
SQRT2 = QSqrt2.sqrt2()
# verify's xi2-delta sample point, and how far a row's certifying sweep
# reaches past its endpoints; no certificate verdict depends on its size
DELTA = Fraction(1, 1 << 60)


def _as_eps(eps) -> QSqrt2 | RefinableReal:
    if isinstance(eps, (int, Fraction)):
        return QSqrt2(Fraction(eps), Fraction(0))
    return eps


class SequenceSpec:
    """Recurrence configuration: offset eps on odd steps, 1/2 on even ones.

    A rational epsilon is stored as a QSqrt2.  Values are immutable:
    setting an attribute raises AttributeError.
    """

    __slots__ = ("epsilon", "depth", "max_bits")

    def __init__(self, epsilon: QSqrt2 | RefinableReal | int | Fraction, depth: int,
                 max_bits: int = 4096):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        _set_epsilon(self, _as_eps(epsilon))
        _set_depth(self, depth)
        _set_max_bits(self, max_bits)

    def __setattr__(self, name, value):
        raise AttributeError(f"SequenceSpec is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SequenceSpec is immutable: cannot delete {name!r}")

    def _key(self) -> tuple:
        return self.epsilon, self.depth, self.max_bits

    def __eq__(self, other) -> bool:
        if other.__class__ is not SequenceSpec:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"SequenceSpec(epsilon={self.epsilon!r}, depth={self.depth!r}, "
                f"max_bits={self.max_bits!r})")


# the slots are written only in SequenceSpec.__init__, past __setattr__
_set_epsilon = SequenceSpec.epsilon.__set__
_set_depth = SequenceSpec.depth.__set__
_set_max_bits = SequenceSpec.max_bits.__set__


class SequenceTrace(NamedTuple):
    values: tuple[int, ...]

    def v(self, n: int) -> int:
        """1-based access: v(1) = 1 is the first value."""
        return self.values[n - 1]


def exact_step(v: int, n: int, form: tuple[int, int, int] | None) -> int:
    """One recurrence step with exact epsilon; `form` is integer_form(eps),
    unused (and may be None) on even steps."""
    if n % 2 == 0:
        # sqrt2*(v + 1/2) = (2v + 1)*sqrt2/2
        return floor_rat_sqrt2(2 * v + 1, 2)
    p, r, q = form
    # sqrt2*(v + (p + r*sqrt2)/q) = ((q*v + p)*sqrt2 + 2r)/q with 2r an
    # integer and q > 0, so the inner floor loses nothing
    return (floor_rat_sqrt2(q * v + p, 1) + 2 * r) // q


def generate(spec: SequenceSpec) -> SequenceTrace:
    """Exact trace v_1..v_depth; interval epsilons get certified floors."""
    eps = spec.epsilon
    form = integer_form(eps) if isinstance(eps, QSqrt2) else None
    values = [1]
    for n in range(1, spec.depth):
        v = values[-1]
        if form is not None or n % 2 == 0:
            values.append(exact_step(v, n, form))
            continue
        # at least v.bit_length() + 32 bits, rounded up to a power of two
        # so that eps is refined O(log depth) times, not once per step
        start = 1 << max(6, (v.bit_length() + 31).bit_length())
        try:
            values.append(certified_floor(
                eps, addend=v, max_bits=spec.max_bits, start_bits=start))
        except UndecidableError as exc:
            exc.step = n
            raise
    return SequenceTrace(tuple(values))


class DigitStream(NamedTuple):
    digits: tuple[int, ...]

    def anomalies(self) -> list[tuple[int, int]]:
        """(index, digit) pairs with digit outside {0, 1}; 1-based index."""
        return [(i + 1, d) for i, d in enumerate(self.digits) if d not in (0, 1)]


def digits_from_trace(trace: SequenceTrace, count: int | None = None) -> DigitStream:
    """d_n = v_{2n+1} - 2 v_{2n-1}; no range check (values -1 and 2 are
    meaningful counterexample outputs)."""
    avail = (len(trace.values) - 1) // 2
    if count is None:
        count = avail
    if count > avail:
        raise ValueError(f"trace depth {len(trace.values)} supports only "
                         f"{avail} digits, requested {count}")
    v = trace.values
    return DigitStream(tuple(v[2 * n] - 2 * v[2 * n - 2] for n in range(1, count + 1)))


def digits_of_target(t: AlgebraicTarget | QSqrt2, count: int) -> DigitStream:
    """Binary digits d_n = floor(t 2^{n-1}) - 2 floor(t 2^{n-2}) of t in [0,2)."""
    x = t.value() if isinstance(t, AlgebraicTarget) else t
    if x.sign() < 0 or (x - 2).sign() >= 0:
        raise ValueError(f"target {x} outside [0, 2)")
    # floor(floor(y)/2^j) = floor(y/2^j), so floor(t 2^{n-1}) = F >> (count-n)
    # with F = floor(t 2^{count-1}), and d_n is bit count-n of F
    f = floor_q(x * Fraction(2) ** (count - 1))
    return DigitStream(tuple((f >> (count - n)) & 1 for n in range(1, count + 1)))


class MatchReport(NamedTuple):
    pair_index: int
    depth: int
    matched: bool
    eps_in_interval: bool | None
    first_mismatch: tuple[int, int, int] | None  # (n, target digit, trace digit)


def verify_pair(pair: GPPairEntry, epsilon, depth: int) -> MatchReport:
    """Compare trace digits against the target's digits for n = 1..depth."""
    eps = _as_eps(epsilon)
    in_interval = None
    if isinstance(eps, QSqrt2):
        in_interval = (eps - pair.xi1).sign() >= 0 and (eps - pair.xi2).sign() < 0
    trace = generate(SequenceSpec(eps, depth=2 * depth + 1))
    got = digits_from_trace(trace, depth).digits
    want = digits_of_target(pair.target, depth).digits
    for n, (w, g) in enumerate(zip(want, got), start=1):
        if w != g:
            return MatchReport(pair.index, depth, False, in_interval, (n, w, g))
    return MatchReport(pair.index, depth, True, in_interval, None)


def _dyadic_floors(t: QSqrt2, top: int):
    """j -> floor(t*2^j) for every j <= top (top >= 0), from one floor_q:
    floor(floor(y)/2^i) = floor(y/2^i)."""
    f = floor_q(t * (1 << top))
    return lambda j: f >> (top - j)


class ClosedFormReport(NamedTuple):
    pair_index: int
    even_ok: bool
    odd_ok: bool
    even_mismatches: tuple[tuple[int, int, int], ...]  # (k, expected, actual)
    odd_mismatches: tuple[tuple[int, int, int], ...]
    printed_even_ok: bool | None = None  # row 5 only
    corrected_even_ok: bool | None = None


def closed_form_check(index: int, epsilon, k_range) -> ClosedFormReport:
    """Check the even/odd closed forms against a generated trace.

    Row 5 evaluates both the printed even form floor(t*2^{k-2})+2^{k-2} and
    the shift-corrected floor(t*2^{k-1})+2^{k-1}, reporting each.
    """
    pair = entry(index)
    t = pair.target
    ks = sorted(k_range)
    # row 5's forms shift by 2^(k-1), so they start at k = 1
    k_min = 1 if index == 5 else t.l + 2
    if ks and ks[0] < k_min:
        raise ValueError(f"row {index} closed forms need k >= {k_min}")
    depth = 2 * ks[-1] + 2
    tr = generate(SequenceSpec(_as_eps(epsilon), depth=depth))
    fl = _dyadic_floors(t.value(), max(ks[-1] - 1, 0))  # fl(j) = floor(t*2^j)

    odd_bad = []
    for k in ks:
        want = fl(k - 1) + (1 << k)
        if tr.v(2 * k + 1) != want:
            odd_bad.append((k, want, tr.v(2 * k + 1)))

    if index != 5:
        even_bad = []
        for k in ks:
            want = fl(k - 2)
            want += t.gamma * (1 << (k - t.l - 2)) if k >= t.l + 2 else 0
            if tr.v(2 * k) != want:
                even_bad.append((k, want, tr.v(2 * k)))
        return ClosedFormReport(index, not even_bad, not odd_bad,
                                tuple(even_bad), tuple(odd_bad))

    printed_bad = []
    corrected_bad = []
    for k in ks:
        if k >= 2:
            printed = fl(k - 2) + (1 << (k - 2))
            if tr.v(2 * k) != printed:
                printed_bad.append((k, printed, tr.v(2 * k)))
        else:
            # addend 2^{k-2} is non-integral at k=1: the printed form cannot hold
            printed_bad.append((k, -1, tr.v(2 * k)))
        corrected = fl(k - 1) + (1 << (k - 1))
        if tr.v(2 * k) != corrected:
            corrected_bad.append((k, corrected, tr.v(2 * k)))
    return ClosedFormReport(index, not corrected_bad, not odd_bad,
                            tuple(corrected_bad), tuple(odd_bad),
                            printed_even_ok=not printed_bad,
                            corrected_even_ok=not corrected_bad)


class LemmaReport(NamedTuple):
    samples: int
    violations: tuple[str, ...]
    branch_checks_ok: bool
    conditio_ok: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.branch_checks_ok and self.conditio_ok


def _in_unit(x: QSqrt2) -> bool:
    return x.sign() >= 0 and (x - 1).sign() < 0


def lemma_checks(sample_count: int, seed: int = 0) -> LemmaReport:
    """Exact checks of 0 <= {x} - sqrt2 {x/2} + sqrt2/2 < 1 and of the
    (conditio) bound, on random samples plus symbolic branch endpoints."""
    rng = random.Random(seed)
    half_s2 = QSqrt2(Fraction(0), HALF)
    violations = []
    for i in range(sample_count):
        if i % 2 == 0:
            x = QSqrt2(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)),
                       Fraction(0))
        else:
            x = QSqrt2(Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100)),
                       Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100)))
        g = frac_q(x) - SQRT2 * frac_q(x / 2) + half_s2
        if not _in_unit(g):
            violations.append(f"x={x}: value {g}")

    # branch endpoints for f = {x/2} in {0, 1/2-eta, 1/2, 1-eta}; {x} = 2f or
    # 2f-1 by the two-branch case analysis
    eta = Fraction(1, 1 << 64)
    branch_ok = True
    for f in (Fraction(0), HALF - eta, HALF, 1 - eta):
        fx = 2 * f if f < HALF else 2 * f - 1
        g = QSqrt2.of(fx) - SQRT2 * QSqrt2.of(f) + half_s2
        if not _in_unit(g):
            branch_ok = False

    # (conditio): 0 <= (1-sqrt2) f + sqrt2 eps < 1 at extreme f and eps
    cond_ok = True
    one_minus_s2 = QSqrt2.of(1) - SQRT2
    for f in (QSqrt2.of(Fraction(0)), QSqrt2.of(1 - eta)):
        for eps in (DOMAIN_LO, DOMAIN_HI - QSqrt2.of(eta)):
            g = one_minus_s2 * f + SQRT2 * eps
            if not _in_unit(g):
                cond_ok = False

    return LemmaReport(sample_count, tuple(violations), branch_ok, cond_ok)


def first_bad_digit(epsilon, limit: int) -> tuple[int, int] | None:
    """First n <= limit with d_n outside {0,1}, streaming the trace."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    eps = _as_eps(epsilon)
    if not isinstance(eps, QSqrt2):
        raise TypeError("first_bad_digit requires an exact epsilon")
    form = integer_form(eps)
    v = 1
    prev_odd = 1
    n = 1
    while True:
        v = exact_step(v, n, form)
        n += 1
        if n % 2 == 1:
            m = (n - 1) // 2
            d = v - 2 * prev_odd
            if d not in (0, 1):
                return (m, d)
            if m >= limit:
                return None
            prev_odd = v


# alpha and beta of row 6's target, the corollary's multiplier and shift
ALPHA6, BETA6 = entry(6).target.alpha, entry(6).target.beta


class CorollaryReport(NamedTuple):
    depth: int
    agree_from_31: bool
    disagreements_below_31: tuple[int, ...]
    onset: int
    identity_ok: bool

    @property
    def ok(self) -> bool:
        return self.agree_from_31 and self.identity_ok and self.onset <= 31


def corollary_check(depth: int = 150, cap: int = 4096) -> CorollaryReport:
    """w-trace with eps = 1 - pi^2/e^3 versus the binary digits of
    759250125*sqrt2 (31 integer bits; digit n+1 compared against d_n)."""
    if depth < 32:
        raise ValueError("depth must be >= 32")
    eps = RefinableReal("1-pi^2/e^3")
    trace = generate(SequenceSpec(eps, depth=2 * depth + 1, max_bits=cap))
    stream = digits_from_trace(trace, depth).digits

    a6 = QSqrt2.of(0, ALPHA6)
    # the integer part of alpha6*sqrt2 has 31 bits (it lies just above 2^30),
    # so its MSB-first digit k is digit k of alpha6*sqrt2/2^30 in [1, 2)
    want = digits_of_target(a6 / (1 << 30), depth + 1).digits
    bad = [n for n in range(1, depth + 1) if stream[n - 1] != want[n]]
    onset = (max(bad) + 1) if bad else 1

    # exact identity in Q(sqrt2): 2^29 t6 + beta6 = alpha6*sqrt2
    t6 = entry(6).target.value()
    identity_ok = (t6 * (1 << 29) + QSqrt2.of(BETA6)) == a6

    return CorollaryReport(
        depth,
        agree_from_31=all(n < 31 for n in bad),
        disagreements_below_31=tuple(n for n in bad if n < 31),
        onset=onset,
        identity_ok=identity_ok,
    )


class NormalityReport(NamedTuple):
    multiplier: int
    exponent_offset: int
    depth: int
    min_frac: QSqrt2
    max_frac: QSqrt2
    argmin: int
    argmax: int


def normality_probe(multiplier: int, depth: int) -> NormalityReport:
    """Extremes of {multiplier*sqrt2*2^(k-offset)} for k = 1..depth, exact.

    Empirical probe only; no normality claim is made.
    """
    if multiplier not in (1, 3):
        raise ValueError("multiplier must be 1 or 3")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    offset = 1 if multiplier == 1 else 2
    t = QSqrt2.of(0, multiplier)
    fl = _dyadic_floors(t, max(depth - offset, 0))  # one floor_q; e = -1 is a wider shift
    fracs = (t * Fraction(2) ** e - fl(e) for e in range(1 - offset, depth + 1 - offset))
    best_min = best_max = next(fracs)
    argmin = argmax = 1
    for k, f in enumerate(fracs, start=2):
        if f < best_min:
            best_min, argmin = f, k
        if f > best_max:
            best_max, argmax = f, k
    return NormalityReport(multiplier, offset, depth, best_min, best_max,
                           argmin, argmax)
