"""Independent reference answers for the benchmark; never imports gppairs.

Numbers of Q(sqrt2) are integer triples (p, r, q) meaning (p + r*sqrt2)/q
with q > 0.  Exact offsets step with `math.isqrt` alone.  Transcendental
offsets step with mpmath at generous precision and refuse any step whose
value lies too close to an integer to be decided (near-integer margin).
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction

# The paper's eight rows: interval endpoints (c, d) meaning (c/2)*sqrt2 - d,
# and targets (alpha, beta, l) meaning (alpha*sqrt2 - beta)/2^l.
ROWS = {
    1: ((-1, -1), (2, 1), (1, 1, 0)),
    2: ((2, 1), (19, 13), (11, 5, 3)),
    3: ((19, 13), (77, 54), (45, 19, 5)),
    4: ((77, 54), (309, 218), (181, 75, 7)),
    5: ((309, 218), (1296121037, 916495974), (1, 0, 0)),
    6: ((1296121037, 916495974), (79109, 55938), (759250125, 314491699, 29)),
    7: ((79109, 55938), (5, 3), (46341, 19195, 15)),
    8: ((5, 3), (1, 0), (3, 1, 1)),
}
DOMAIN_LO = (2, -1, 2)   # 1 - sqrt2/2
DOMAIN_HI = (0, 1, 2)    # sqrt2/2
DELTA_BITS = 60          # xi2 - 2^-60 sample point, as the package uses
ALPHA6 = 759250125


# --- Q(sqrt2) as integer triples -------------------------------------------

def halfint(c: int, d: int) -> tuple[int, int, int]:
    return (-2 * d, c, 2)


def rational(x: Fraction) -> tuple[int, int, int]:
    x = Fraction(x)
    return (x.numerator, 0, x.denominator)


def sign2(p: int, r: int) -> int:
    """Sign of p + r*sqrt2 for integers p, r."""
    if p >= 0 and r >= 0:
        return 1 if (p or r) else 0
    if p <= 0 and r <= 0:
        return -1
    big_p = p * p > 2 * r * r
    return (1 if big_p else -1) if p > 0 else (-1 if big_p else 1)


def cmp2(x, y) -> int:
    (p1, r1, q1), (p2, r2, q2) = x, y
    return sign2(p1 * q2 - p2 * q1, r1 * q2 - r2 * q1)


def add2(x, y):
    (p1, r1, q1), (p2, r2, q2) = x, y
    return (p1 * q2 + p2 * q1, r1 * q2 + r2 * q1, q1 * q2)


def sub_rational(x, f: Fraction):
    return add2(x, rational(-Fraction(f)))


def half_sum(x, y):
    p, r, q = add2(x, y)
    return (p, r, 2 * q)


def norm4(x) -> list[int]:
    """[a_num, a_den, b_num, b_den] of x = a + b*sqrt2, in lowest terms."""
    p, r, q = x
    a, b = Fraction(p, q), Fraction(r, q)
    return [a.numerator, a.denominator, b.numerator, b.denominator]


_Q2_TEXT = re.compile(
    r"^(?:(-?\d+)(?:/(\d+))?)?(?:([+-]?)(?:(\d+)(?:/(\d+))?\*)?sqrt2)?$")


def parse_q2(text: str):
    """Read the package's text form 'p/q+r/s*sqrt2' (zero terms omitted)."""
    m = _Q2_TEXT.match(text)
    if not m or not text:
        raise ValueError(f"unreadable Q(sqrt2) value {text!r}")
    a_num, a_den, sign, b_num, b_den = m.groups()
    a = Fraction(int(a_num or 0), int(a_den or 1))
    b = Fraction(0)
    if text.endswith("sqrt2"):
        b = Fraction(int(b_num or 1), int(b_den or 1)) * (-1 if sign == "-" else 1)
    q = a.denominator * b.denominator
    return (a.numerator * b.denominator, b.numerator * a.denominator, q)


def floor_r_sqrt2(r: int) -> int:
    """floor(r*sqrt2) for an integer r."""
    s = math.isqrt(2 * r * r)
    return s if r >= 0 else -s - 1


# --- exact traces and digits ------------------------------------------------

def step_odd(v: int, eps) -> int:
    """floor(sqrt2*(v + eps)) = floor((2r + (vq + p)*sqrt2)/q)."""
    p, r, q = eps
    return (2 * r + floor_r_sqrt2(v * q + p)) // q


def step_even(v: int) -> int:
    """floor(sqrt2*(v + 1/2)) = floor((2v + 1)*sqrt2 / 2)."""
    return floor_r_sqrt2(2 * v + 1) // 2


def trace(eps, depth: int) -> list[int]:
    """v_1 .. v_depth, with v_1 = 1."""
    v = [1]
    for n in range(1, depth):
        v.append(step_odd(v[-1], eps) if n % 2 else step_even(v[-1]))
    return v


def trace_digits(v: list[int], count: int) -> list[int]:
    """d_n = v_{2n+1} - 2 v_{2n-1} for n = 1..count."""
    return [v[2 * n] - 2 * v[2 * n - 2] for n in range(1, count + 1)]


def first_bad(eps, limit: int):
    """First (n, d_n) with d_n outside {0, 1}, n <= limit, else None."""
    v = 1
    prev_odd = 1
    for m in range(1, limit + 1):
        v = step_even(step_odd(v, eps))
        d = v - 2 * prev_odd
        if d not in (0, 1):
            return [m, d]
        prev_odd = v
    return None


def _alpha_floors(alpha: int, top: int):
    """j -> floor(alpha*sqrt2*2^j) for any j <= top, from one isqrt."""
    k = max(top, 0)
    s = math.isqrt(2 * alpha * alpha * 4 ** k)
    return lambda j: s >> (k - j) if j >= 0 else (s >> k) >> -j


def target_digits(alpha: int, beta: int, l: int, count: int) -> list[int]:
    """Binary digits floor(t 2^{n-1}) - 2 floor(t 2^{n-2}) of
    t = (alpha*sqrt2 - beta)/2^l, n = 1..count."""
    a = _alpha_floors(alpha, count - 1 - l)

    def fl(k):  # floor(t * 2^k)
        if k >= l:
            return a(k - l) - (beta << (k - l))
        return (a(0) - beta) >> (l - k)

    return [fl(n - 1) - 2 * fl(n - 2) for n in range(1, count + 1)]


def row_point(row: int, label: str):
    (c1, d1), (c2, d2), _ = ROWS[row]
    xi1, xi2 = halfint(c1, d1), halfint(c2, d2)
    if label == "xi1":
        return xi1
    if label == "mid":
        return half_sum(xi1, xi2)
    return sub_rational(xi2, Fraction(1, 1 << DELTA_BITS))


def verify_pair(row: int, label: str, depth: int) -> list:
    """[matched, eps in [xi1, xi2), first mismatch (n, target, trace)]."""
    (c1, d1), (c2, d2), (alpha, beta, l) = ROWS[row]
    eps = row_point(row, label)
    inside = cmp2(eps, halfint(c1, d1)) >= 0 and cmp2(eps, halfint(c2, d2)) < 0
    got = trace_digits(trace(eps, 2 * depth + 1), depth)
    want = target_digits(alpha, beta, l, depth)
    for n, (w, g) in enumerate(zip(want, got), start=1):
        if w != g:
            return [False, inside, [n, w, g]]
    return [True, inside, None]


def comp_value(row: int) -> int:
    """floor(alpha*sqrt2) + 2*alpha, the value v_{2(l+2)} must take."""
    alpha = ROWS[row][2][0]
    return math.isqrt(2 * alpha * alpha) + 2 * alpha


# --- exact sweep ------------------------------------------------------------

def sweep(lo, hi, depth: int) -> list[tuple]:
    """Maximal cells [lo, hi) of constant prefix v_1..v_depth.

    At an odd step the value is constant between the points
    (m/2)*sqrt2 - v, where sqrt2*(v + eps) crosses the integer m.
    """
    cells = [(lo, hi, [1])]
    for n in range(1, depth):
        if n % 2 == 0:
            for cell in cells:
                cell[2].append(step_even(cell[2][-1]))
            continue
        new = []
        for clo, chi, prefix in cells:
            v = prefix[-1]
            m = step_odd(v, clo)
            start = clo
            while True:
                split = halfint(m + 1, v)
                if cmp2(split, chi) >= 0:
                    break
                new.append((start, split, prefix + [m]))
                start, m = split, m + 1
            new.append((start, chi, prefix + [m]))
        cells = new
    return cells


def prefix_hash(prefix) -> str:
    return hashlib.sha256(" ".join(map(str, prefix)).encode()).hexdigest()[:24]


def sweep_canon(lo, hi, depth: int) -> list:
    return [[norm4(a), norm4(b), prefix_hash(p)] for a, b, p in sweep(lo, hi, depth)]


def halfint_of(x):
    """(c, d) with x = (c/2)*sqrt2 - d, or None."""
    a_num, a_den, b_num, b_den = norm4(x)
    c = Fraction(2 * b_num, b_den)
    if a_den == 1 and c.denominator == 1:
        return int(c), -a_num
    return None


def candidates(l_bound: int) -> list[tuple[int, int, int]]:
    """sqrt2 first, then (alpha, beta, l) with alpha odd, alpha + beta =
    2^(l+1) and target in [0, 2), by increasing l then alpha."""
    out = [(1, 0, 0)]
    for l in range(l_bound + 1):
        two = 1 << (l + 1)
        for alpha in range(1, 2 * two, 2):
            t = (-(two - alpha), alpha, 1 << l)
            if cmp2(t, (0, 0, 1)) >= 0 and cmp2(t, (2, 0, 1)) < 0:
                out.append((alpha, two - alpha, l))
    return out


def reconstruct(depth: int, digit_depth: int, l_bound: int) -> list:
    """Regions of equal digit prefix with the first matching candidate."""
    regions = []
    for lo, hi, p in sweep(DOMAIN_LO, DOMAIN_HI, depth):
        digits = trace_digits(p, digit_depth)
        if regions and regions[-1][2] == digits:
            regions[-1][1] = hi
        else:
            regions.append([lo, hi, digits])
    table = [(t, target_digits(*t, digit_depth)) for t in candidates(l_bound)]
    out = []
    for lo, hi, digits in regions:
        match = next((list(t) for t, dd in table if dd == digits), None)
        out.append([norm4(lo), norm4(hi), "".join(map(str, digits)), match])
    return out


def comp_holds(row: int, side: str) -> bool:
    """(comp), v_{2(l+2)} = comp_value(row), holds at the endpoint on the
    interval's side and, unless the endpoint bounds the domain, fails just
    outside it."""
    (c1, d1), (c2, d2), (_, _, l) = ROWS[row]
    depth = 2 * (l + 2)
    xi = halfint(c1, d1) if side == "left" else halfint(c2, d2)
    below = sub_rational(xi, Fraction(1, 1 << DELTA_BITS))
    inner, outer = (xi, below) if side == "left" else (below, xi)
    ok = trace(inner, depth)[-1] == comp_value(row)
    at_boundary = (cmp2(xi, DOMAIN_LO) <= 0 if side == "left"
                   else cmp2(xi, DOMAIN_HI) >= 0)
    if not at_boundary:
        ok = ok and trace(outer, depth)[-1] != comp_value(row)
    return ok


def row5_closed_forms() -> bool:
    """At row 5's midpoint, for k = 1..50: v_{2k+1} = floor(sqrt2 2^{k-1})
    + 2^k and v_{2k} = floor(sqrt2 2^{k-1}) + 2^{k-1}."""
    v = trace(row_point(5, "mid"), 102)
    for k in range(1, 51):
        fl = math.isqrt(2 * 4 ** (k - 1))
        if v[2 * k] != fl + (1 << k) or v[2 * k - 1] != fl + (1 << (k - 1)):
            return False
    return True


def endpoint_ok(row: int, side: str) -> bool:
    """Sharp (comp) breakpoint at the endpoint and a single local breakpoint."""
    (c1, d1), (c2, d2), (_, _, l) = ROWS[row]
    xi = halfint(c1, d1) if side == "left" else halfint(c2, d2)
    delta = Fraction(1, 1 << DELTA_BITS)
    below = sub_rational(xi, delta)
    above = sub_rational(xi, -delta)
    ok = row == 5 or comp_holds(row, side)
    depth = 2 * (l + 2) if row != 5 else 62
    lo = below if cmp2(below, DOMAIN_LO) >= 0 else DOMAIN_LO
    hi = above if cmp2(above, DOMAIN_HI) <= 0 else DOMAIN_HI
    if cmp2(lo, hi) >= 0:
        return ok
    cuts = [c[0] for c in sweep(lo, hi, depth)[1:]]
    return ok and len(cuts) <= 1 and all(cmp2(c, xi) == 0 for c in cuts)


# --- transcendental offsets (mpmath) ----------------------------------------

_NUM = re.compile(r"\d+")


class MarginError(ArithmeticError):
    """A step's value lay too close to an integer at every precision tried."""


def _mp_value(expr: str, mp):
    """Evaluate a grammar expression ('1-pi^2/e^3', '2*pi/9') in mpmath."""
    py = _NUM.sub(lambda m: f"mpf({m.group()})", expr.replace("^", "**"))
    return eval(py, {"__builtins__": {}}, {"mpf": mp.mpf, "pi": +mp.pi, "e": +mp.e})


def trans_trace(expr: str, depth: int) -> list[int]:
    """v_1..v_depth for a transcendental offset.  Each odd step must clear
    the nearest integer by 2^(bits(v) + 16 - prec); otherwise the whole
    trace is redone at twice the precision."""
    import mpmath

    prec = depth // 2 + 160
    for _ in range(4):
        with mpmath.workprec(prec):
            eps = _mp_value(expr, mpmath.mp)
            s2 = mpmath.sqrt(2)
            v = [1]
            for n in range(1, depth):
                if n % 2 == 0:
                    v.append(step_even(v[-1]))
                    continue
                x = s2 * (v[-1] + eps)
                f = int(mpmath.floor(x))
                gap = min(x - f, f + 1 - x)
                if gap < mpmath.ldexp(1, v[-1].bit_length() + 16 - prec):
                    break
                v.append(f)
            else:
                return v
        prec *= 2
    raise MarginError(f"{expr}: step undecided at {prec // 2} bits")


def corollary(trace_v: list[int], depth: int) -> list:
    """[agree from 31, disagreements below 31, onset, identity] for the
    1-pi^2/e^3 trace against the digits of 759250125*sqrt2."""
    stream = trace_digits(trace_v, depth)
    int_bits = math.isqrt(2 * ALPHA6 * ALPHA6).bit_length()
    a = _alpha_floors(ALPHA6, depth + 1 - int_bits)
    bad = [n for n in range(1, depth + 1)
           if stream[n - 1] != a(n + 1 - int_bits) - 2 * a(n - int_bits)]
    onset = max(bad) + 1 if bad else 1
    # 2^29 t6 + beta6 = alpha6*sqrt2 holds by the definition of t6
    return [all(n < 31 for n in bad), [n for n in bad if n < 31], onset, True]
