"""End-to-end acceptance suite.

One test per criterion; run with `pytest -v` to get one pass/fail line each.
Total runtime is well under two minutes.
"""

import csv
import io
import random
from fractions import Fraction

from gppairs.cli import main as cli_main
from gppairs.discovery import (
    bisect_jump,
    certify_pair,
    halfint_form,
    identify_halfint_sqrt2,
    min_poly_deg2,
    sweep,
    validate_partition,
    value_at,
)
from gppairs.engine import (
    DELTA,
    SequenceSpec,
    closed_form_check,
    corollary_check,
    digits_from_trace,
    first_bad_digit,
    generate,
    lemma_checks,
    verify_pair,
)
from gppairs.exact import QSqrt2, floor_q, floor_rat_sqrt2, isqrt
from gppairs.table import DOMAIN_HI, DOMAIN_LO, THEOREM_TABLE, entry, halfint


def test_criterion_01_original_sequence_digits():
    trace = generate(SequenceSpec(Fraction(1, 2), depth=21))
    assert digits_from_trace(trace, 10).digits == (1, 0, 1, 1, 0, 1, 0, 1, 0, 0)


def test_criterion_02_theorem_table_digits_to_200():
    for pair in THEOREM_TABLE:
        for eps in (pair.xi1, pair.midpoint, pair.xi2 - QSqrt2.of(DELTA)):
            rep = verify_pair(pair, eps, 200)
            assert rep.matched, (pair.index, rep.first_mismatch)


def test_criterion_03_certification():
    for index in (1, 2, 3, 4, 6, 7, 8):
        cert = certify_pair(entry(index))
        assert cert.ok, (index, [c for c in cert.checks if not c.passed])
    cf = closed_form_check(5, entry(5).midpoint, range(1, 51))
    assert cf.odd_ok and cf.corrected_even_ok


def test_criterion_04_counterexamples():
    assert first_bad_digit(Fraction(2928, 10000), 4000) == (3067, -1)
    assert first_bad_digit(Fraction(7073, 10000), 4000) == (2293, 2)


def test_criterion_05_row5_interval_decimals():
    assert entry(5).xi1.to_decimal(7) == "0.4959953"
    assert entry(5).xi2.to_decimal(7) == "0.5012400"
    assert halfint_form(entry(5).xi1) == (309, 218)
    assert halfint_form(entry(5).xi2) == (1296121037, 916495974)


def test_criterion_06_row6_endpoint_discovery():
    target = value_at(entry(6).xi1, 62)
    enc = bisect_jump(62, target, (Fraction(48, 100), Fraction(52, 100)),
                      tol_bits=200)
    c, d = identify_halfint_sqrt2(enc)
    assert (c, d) == (1296121037, 916495974)
    poly = min_poly_deg2(enc)
    value = halfint(c, d)
    assert poly.eval_q(value) == QSqrt2.of(0)
    from math import gcd
    assert gcd(gcd(abs(poly.a2), abs(poly.a1)), abs(poly.a0)) == 1


def test_criterion_07_partition():
    rep = validate_partition(THEOREM_TABLE)
    assert rep.ok, rep.problems


def test_criterion_08_transcendental_epsilon_corollary():
    rep = corollary_check(depth=150)
    assert rep.agree_from_31, rep.disagreements_below_31
    assert rep.identity_ok
    assert rep.onset == 31


def test_criterion_09_property_suites():
    rng = random.Random(2024)

    # floor/isqrt invariants on 10^4 random cases each
    for _ in range(10**4):
        n = rng.randrange(0, 1 << rng.randrange(1, 128))
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)
    for _ in range(10**4):
        x = QSqrt2(Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**4)),
                   Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**4)))
        f = floor_q(x)
        assert (x - f).sign() >= 0 and (x - (f + 1)).sign() < 0

    # the unit-interval lemma on 10^5 random exact samples + branch endpoints
    rep = lemma_checks(10**5, seed=2024)
    assert rep.ok, rep.violations[:3]

    # sweep-vs-direct equivalence on every cell of a full sweep at N=21
    tiny = QSqrt2.of(Fraction(1, 1 << 80))
    for cell in sweep(DOMAIN_LO, DOMAIN_HI, 21):
        for eps in (cell.lo, cell.midpoint, cell.hi - tiny):
            tr = generate(SequenceSpec(eps, depth=len(cell.prefix)))
            assert tr.values == cell.prefix

    # monotonicity of v_n(eps) on 10^3 epsilon pairs
    lo_r, hi_r = Fraction(2929, 10**4), Fraction(7070, 10**4)
    for _ in range(10**3):
        a = lo_r + (hi_r - lo_r) * Fraction(rng.randrange(10**6), 10**6)
        b = lo_r + (hi_r - lo_r) * Fraction(rng.randrange(10**6), 10**6)
        a, b = min(a, b), max(a, b)
        n = rng.choice((5, 12, 21))
        assert value_at(a, n) <= value_at(b, n)


def test_criterion_10_figure2_jump_data(capsys):
    code = cli_main(["--no-timing", "plotdata", "--figure", "2", "--csv",
                     "--range", "0.40:0.60", "--depth", "62"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    jumps = {(int(r["c"]), int(r["d"])) for r in rows if r["kind"] == "jump"}
    assert (1296121037, 916495974) in jumps  # the jump at ~0.5012400, exactly

    # the printed constant 2749487923 differs from the exact value: recorded
    # as a suspected erratum in the row-6 certificate, never a failure
    exact = floor_rat_sqrt2(759250125, 1) + 2 * 759250125
    assert exact == 2592242074
    cert = certify_pair(entry(6))
    assert cert.ok
    assert any("2749487923" in note for note in cert.notes)
