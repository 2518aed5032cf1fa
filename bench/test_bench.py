"""Tests of the benchmark itself: the oracle, the span stack, the scoring.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import oracle as o  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from check import Checker  # noqa: E402


def test_oracle_first_ten_digits_of_sqrt2():
    v = o.trace(o.rational(Fraction(1, 2)), 21)
    assert o.trace_digits(v, 10) == [1, 0, 1, 1, 0, 1, 0, 1, 0, 0]
    assert o.target_digits(1, 0, 0, 10) == [1, 0, 1, 1, 0, 1, 0, 1, 0, 0]


def test_oracle_counterexample_0_2928():
    assert o.first_bad(o.rational(Fraction("0.2928")), 4000) == [3067, -1]


def test_oracle_row6_endpoint_is_the_only_breakpoint_nearby():
    # An exact sweep of a window around 0.50124 at depth 62 finds one jump,
    # at (c/2)*sqrt2 - d with the paper's (c, d) for row 6.
    lo, hi = o.rational(Fraction("0.50120")), o.rational(Fraction("0.50128"))
    cells = o.sweep(lo, hi, 62)
    assert [o.halfint_of(c[0]) for c in cells[1:]] == [(1296121037, 916495974)]


def test_oracle_row6_comp_value():
    assert o.comp_value(6) == 2592242074


def test_oracle_row5_mismatch_at_digit_280():
    assert o.verify_pair(5, "xi1", 300) == [False, True, [280, 1, 0]]


def test_oracle_transcendental_digits_match_the_corollary():
    agree, below, onset, _ = o.corollary(o.trans_trace("1-pi^2/e^3", 2 * 60 + 1), 60)
    assert agree and onset <= 31


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 2

    inner = tr.wrap("inner", leaf)

    def body():
        clock.now += 1
        inner()
        clock.now += 3
        inner()

    outer = tr.wrap("outer", body)
    outer()
    assert tr.calls == {"outer": 1, "inner": 2}
    assert tr.self_s["outer"] == 4.0
    assert tr.self_s["inner"] == 4.0
    assert tr.stack == []


def test_install_counts_steps_and_uninstall_restores():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import gppairs
    import gppairs.engine

    original = gppairs.engine.exact_step
    tr = tracer.Tracer()
    tr.install()
    try:
        gppairs.generate(gppairs.SequenceSpec(Fraction(1, 2), depth=21))
    finally:
        tr.uninstall()
    assert gppairs.engine.exact_step is original
    assert tr.calls["engine.exact_step"] == 20
    metrics = tr.metrics()
    assert set(metrics) | set(tracer.MEASURED_OUTSIDE) == set(tracer.METRICS)
    assert metrics["engine.exact_step.calls"] == 20


def test_wrong_answers_count_as_failures():
    op = {"op": "first_bad", "eps": "0.2928", "limit": 4000, "digits": 3067}
    loop_s = hostspeed.REFERENCE_S
    records = [
        [0, 0.25, loop_s, [3067, -1], None],        # right
        [0, 0.25, loop_s, [3067, 1], None],         # injected wrong answer
        [0, 0.25, loop_s, None, "Traceback: ..."],  # raised
    ]
    errors = []
    correct, digits, latencies = run.score([op], records, errors.append)
    assert (correct, digits, latencies) == (1, 3067, [0.25] * 3)
    assert len(errors) == 2


def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_S
    loops = [ref, 3 * ref, 2 * ref, 2 * ref, 4 * ref]
    # each timing over the median loop time within two places of it:
    # medians 2, 2, 2, 2.5 and 2 times the reference
    assert hostspeed.WINDOW == 2
    assert hostspeed.scale([0.2] * 5, loops) == pytest.approx([0.1, 0.1, 0.1, 0.08, 0.1])


def test_cli_exit_code_is_checked():
    checker = Checker()
    out = ('{"results": [{"name": "first bad digit", "pass": true, '
           '"witness": "(3067, -1)"}], "anomalies": [{"index": 3067, "digit": -1}]}')
    argv = ["counterexample", "--epsilon", "0.2928"]
    assert checker.check({"op": "cli", "argv": argv}, [2, out])
    assert not checker.check({"op": "cli", "argv": argv}, [0, out])


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
