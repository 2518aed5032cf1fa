"""CLI subcommands: report schema, exit codes, CSV output, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import gppairs
from gppairs.cli import main
from gppairs.exact import QSqrt2
from gppairs.reals import exact_value, parse_expr
from gppairs.table import THEOREM_TABLE, halfint
from gppairs.discovery import halfint_form, value_at


def run(capsys, *argv):
    """Exit status, stdout and stderr of one CLI run; argparse rejects some
    bad input itself, by SystemExit instead of a return value."""
    try:
        code = main(["--no-timing", *argv])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestDigits:
    def test_half(self, capsys):
        code, rep = run_json(capsys, "digits", "--epsilon", "1/2", "--count", "9")
        assert code == 0
        assert rep["results"][0]["witness"] == "1 0 1 1 0 1 0 1 0"
        assert rep["anomalies"] == []

    def test_schema(self, capsys):
        _, rep = run_json(capsys, "digits", "--epsilon", "0.5", "--count", "3")
        assert set(rep) == {"command", "inputs", "results", "anomalies", "version"}
        assert all(set(r) == {"name", "pass", "witness"} for r in rep["results"])

    def test_anomaly_exit_code(self, capsys):
        code, rep = run_json(capsys, "digits", "--epsilon", "0.2928",
                             "--count", "3067")
        assert code == 2
        assert rep["anomalies"] == [{"index": 3067, "digit": -1}]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "digits", "--epsilon", "1//2", "--count", "3")
        assert code == 1
        assert "parse error" in err

    def test_transcendental_epsilon(self, capsys):
        code, rep = run_json(capsys, "digits", "--epsilon", "1-pi^2/e^3",
                             "--count", "10")
        assert code == 0
        assert rep["results"][0]["witness"] == "1 0 1 1 0 1 0 1 0 0"

    @pytest.mark.parametrize("eps", ["1/(2^81*(1783366216531/567663097408-pi))",
                                     "1/(2^73*(pi-21053343141/6701487259))"])
    def test_divisor_holding_zero_at_the_start_is_refined(self, capsys, eps):
        # about 0.3369 and 0.4047: the divisor's 64-bit enclosure holds 0
        code, rep = run_json(capsys, "digits", "--epsilon", eps, "--count", "12")
        assert code == 0
        assert rep["results"][0]["witness"] == "0 0 1 1 0 1 0 1 0 0 0 0"

    def test_max_bits_is_a_cap(self, capsys):
        code, out, err = run(capsys, "digits", "--epsilon", "1-pi^2/e^3",
                             "--count", "40", "--max-bits", "16")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "step 27" in err and "16 bits" in err and "--max-bits" in err

    @pytest.mark.parametrize("command, count", [("digits", "--count"),
                                                ("counterexample", "--limit")])
    def test_long_exact_offset_echoed_as_parsed(self, capsys, int_str_limit, command, count):
        # the denominator of (3/7)^20000 has about 16900 digits
        code, rep = run_json(capsys, command, "--epsilon", "(3/7)^20000", count, "3")
        assert code == 2
        assert rep["inputs"]["epsilon"] == "(3/7)^20000"
        assert exact_value(parse_expr(rep["inputs"]["epsilon"])) == \
            exact_value(parse_expr("(3/7)^20000"))
        assert rep["anomalies"] == [{"index": 2, "digit": -1}]

    @pytest.mark.parametrize("command, count", [("digits", "--count"),
                                                ("counterexample", "--limit")])
    def test_too_long_reported_value_named_by_size(self, capsys, int_str_limit, command,
                                                   count):
        code, out, err = run(capsys, command, "--epsilon", "2^20000", count, "3")
        assert code == 1
        assert out == ""
        assert err == "error: a reported value has 20002 bits, too many to print in decimal\n"

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "digits", "--epsilon", "1/2", "--count", "20")
        _, out2, _ = run(capsys, "digits", "--epsilon", "1/2", "--count", "20")
        assert out1 == out2


class TestVerify:
    def test_all_rows(self, capsys):
        code, rep = run_json(capsys, "verify", "--pair", "all", "--depth", "60")
        assert code == 0
        assert all(r["pass"] for r in rep["results"])

    def test_single_row_without_interval_result(self, capsys):
        # row 5 reports only checks that can fail: its digits and closed forms
        code, rep = run_json(capsys, "verify", "--pair", "5", "--depth", "60")
        assert code == 0
        names = [r["name"] for r in rep["results"]]
        assert "pair 5 interval" not in names
        assert names == ["pair 5 digits at xi1", "pair 5 digits at mid",
                         "pair 5 digits at xi2-delta",
                         "pair 5 closed forms (odd + corrected even)"]


class TestDiscover:
    def test_row_6(self, capsys):
        code, rep = run_json(capsys, "discover", "--row", "6")
        assert code == 0
        assert "c=1296121037 d=916495974" in rep["results"][0]["witness"]

    def test_row_1_domain_boundary(self, capsys):
        code, rep = run_json(capsys, "discover", "--row", "1")
        assert code == 0
        assert "domain boundary" in rep["results"][0]["witness"]

    @pytest.mark.parametrize("row", range(2, 9))
    def test_rows_found_without_probing_the_endpoint(self, capsys, monkeypatch, row):
        import gppairs.cli

        def no_probe(*args):
            raise AssertionError("discover evaluated the trace at the endpoint")

        monkeypatch.setattr(gppairs.cli, "value_at", no_probe)
        code, rep = run_json(capsys, "discover", "--row", str(row))
        assert code == 0
        c, d = halfint_form(THEOREM_TABLE[row - 1].xi1)
        assert rep["results"][0]["witness"].startswith(f"c={c} d={d} ")

    def test_wrong_min_poly_fails(self, capsys, monkeypatch):
        from gppairs import discovery
        from gppairs.discovery import QuadPoly
        monkeypatch.setattr(discovery, "_min_poly", lambda c, d: QuadPoly(1, 0, -2))
        code, rep = run_json(capsys, "discover", "--row", "6")
        assert code == 2
        poly = rep["results"][1]
        assert poly["name"] == "minimal polynomial"
        assert poly["pass"] is False and poly["witness"] == "1*x^2 + 0*x + -2"


class TestPlotdata:
    def test_figure1_csv_roundtrip(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--figure", "1", "--csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        for row, pair in zip(rows, THEOREM_TABLE):
            assert (int(row["xi1_c"]), int(row["xi1_d"])) == halfint_form(pair.xi1)
            assert (int(row["xi2_c"]), int(row["xi2_d"])) == halfint_form(pair.xi2)

    def test_figure2_jump_locations(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--figure", "2", "--csv",
                           "--range", "0.49:0.52", "--samples", "7",
                           "--depth", "62")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        jumps = [(int(r["c"]), int(r["d"])) for r in rows if r["kind"] == "jump"]
        assert (1296121037, 916495974) in jumps
        assert (309, 218) in jumps
        assert (79109, 55938) in jumps

    def test_figure2_jumps_outside_domain(self, capsys):
        # outside the theorem's domain, with c up to about 2^47; every jump
        # is checked against direct generation, which does not use sweep
        depth = 101
        code, out, _ = run(capsys, "plotdata", "--figure", "2", "--csv",
                           "--range", "0.1:0.2", "--depth", str(depth))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        samples = [int(r["v"]) for r in rows if r["kind"] == "sample"]
        jumps = [r for r in rows if r["kind"] == "jump"]
        assert len(jumps) == 13
        below = QSqrt2.of(Fraction(1, 1 << 200))
        for j in jumps:
            xi = halfint(int(j["c"]), int(j["d"]))
            assert value_at(xi, depth) == int(j["v_at"])
            assert value_at(xi - below, depth) == int(j["v_below"])
        # consecutive jumps chain up, so none is missing in between
        assert int(jumps[0]["v_below"]) == samples[0]
        assert int(jumps[-1]["v_at"]) == samples[-1]
        for a, b in zip(jumps, jumps[1:]):
            assert int(a["v_at"]) == int(b["v_below"])

    @pytest.mark.parametrize("range_, decimals", [
        # exact decimal ties round to even; their binary approximations
        # would give 0.300001 and 0.449999
        ("0.3000005:0.5000005", ["0.300000", "0.500000"]),
        ("0.4499995:0.5", ["0.450000", "0.500000"]),
        ("-0.0000005:0.0000015", ["-0.000000", "0.000002"]),
        ("-1/3:2/3", ["-0.333333", "0.666667"]),
    ])
    def test_figure2_sample_decimals_round_exactly(self, capsys, range_, decimals):
        code, out, _ = run(capsys, "plotdata", "--figure", "2", "--csv",
                           f"--range={range_}", "--samples", "2", "--depth", "10")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["epsilon_decimal"] for r in rows if r["kind"] == "sample"] == decimals

    @pytest.mark.parametrize("argv", [
        ("--range", "abc"),
        ("--range", ""),
        ("--range", "0.4:0.4"),
        ("--range", "0.6:0.4"),
        ("--range", "0.4:0.5:0.6"),
        ("--range", "1/0:1"),
        ("--samples", "1"),
        ("--samples", "0"),
        ("--depth", "0"),
    ])
    def test_figure2_bad_input(self, capsys, argv):
        code, out, err = run(capsys, "plotdata", "--figure", "2", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (("sweep", "--cell-budget", "3"), "cell budget 3"),
    (("digits", "--epsilon", "1/2", "--count", "4", "--max-bits", "7"), "--max-bits"),
    (("digits", "--epsilon", "1-pi^2/e^3", "--count", "4", "--max-bits", "0"),
     "--max-bits"),
    (("corollary", "--cap", "4"), "--cap"),
    (("verify", "--pair", "all", "--depth", "0"), "argument --depth: must be at least 1"),
    (("digits", "--epsilon", "1/2", "--count", "-1"),
     "argument --count: must be at least 1"),
    (("verify", "--pair", "x"), "argument --pair: invalid choice: 'x'"),
    (("verify", "--pair", "9"), "argument --pair: invalid choice: '9'"),
    (("corollary", "--max-bits", "4"), "argument --max-bits/--cap: must be at least 8"),
    (("corollary", "--max-n", "30"), "argument --max-n: must be at least 32"),
    (("discover", "--row", "6", "--tol-bits", "-5"),
     "argument --tol-bits: must be at least 1"),
    (("discover", "--row", "6", "--tol-bits", "0"),
     "argument --tol-bits: must be at least 1"),
    (("discover", "--row", "9"), "argument --row: invalid choice: 9"),
    (("discover", "--row", "0"), "argument --row: invalid choice: 0"),
    (("normality", "--k", "0"), "argument --k: must be at least 1"),
    (("normality", "--k", "-1"), "argument --k: must be at least 1"),
    (("counterexample", "--epsilon", "0.2928", "--limit", "0"),
     "argument --limit: must be at least 1"),
    (("plotdata", "--figure", "2", "--samples", "1"),
     "argument --samples: must be at least 2"),
    (("plotdata", "--figure", "2", "--depth", "0"), "argument --depth: must be at least 1"),
    (("sweep", "--depth", "0"), "argument --depth: must be at least 1"),
    (("table", "--depth", "0"), "argument --depth: must be at least 1"),
    (("table", "--digit-depth", "0"), "argument --digit-depth: must be at least 1"),
    (("table", "--digit-depth", "-1"), "argument --digit-depth: must be at least 1"),
    (("table", "--l-bound", "-1"), "argument --l-bound: must be at least 0"),
    (("sweep", "--cell-budget", "0"), "argument --cell-budget: must be at least 1"),
    (("sweep", "--cell-budget", "-5"), "argument --cell-budget: must be at least 1"),
    # zero digits would pass vacuously
    (("digits", "--epsilon", "1/2", "--count", "0"), "argument --count: must be at least 1"),
    (("table", "--depth", "1"), "--depth must be at least 2*--digit-depth + 1 = 21, got 1"),
    # a divisor that holds 0 at every precision, up to --max-bits
    (("digits", "--epsilon", "pi/0", "--count", "10"), "division by an interval containing zero"),
    (("digits", "--epsilon", "1/(pi-pi)", "--count", "10"),
     "division by an interval containing zero"),
])
def test_bad_input(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("argv", [
    ("digits", "--epsilon", "1/2", "--count", "x"),
    ("digits", "--epsilon", "1/2"),
    ("digits", "--epsilon", "1/2", "--count", "3", "--bogus"),
    ("corollary", "--max-bits", "x"),
    ("frobnicate",),
    (),
    ("plotdata", "--figure", "3"),
])
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own status would be 2, which means "anomaly found" here
    with pytest.raises(SystemExit) as info:
        main(["--no-timing", *argv])
    out = capsys.readouterr()
    assert info.value.code == 1
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--help",), ("digits", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gppairs")


@pytest.mark.parametrize("argv, flag", [
    (("digits", "--epsilon", "-1/3", "--count", "3"), "--epsilon"),
    (("digits", "--epsilon", "-pi", "--count", "3"), "--epsilon"),
    (("plotdata", "--figure", "2", "--range", "-1/3:2/3"), "--range"),
])
def test_value_starting_with_minus_reads_as_its_equals_form(capsys, argv, flag):
    i = argv.index(flag)
    equals_form = (*argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2:])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *equals_form)
    assert out.startswith("{")  # a report, not "expected one argument"


@pytest.mark.parametrize("name", ["--count", "--co", "-h"])
def test_option_name_is_not_read_as_a_value(capsys, name):
    # "--co" is argparse's abbreviation of --count
    code, out, err = run(capsys, "digits", "--epsilon", name, "3")
    assert (code, out) == (1, "")
    assert err == "error: argument --epsilon: expected one argument\n"


class TestMisc:
    def test_counterexample(self, capsys):
        code, rep = run_json(capsys, "counterexample", "--epsilon", "0.7073")
        assert code == 2
        assert rep["anomalies"] == [{"index": 2293, "digit": 2}]

    def test_corollary(self, capsys):
        code, rep = run_json(capsys, "corollary", "--max-n", "60")
        assert code == 0
        assert all(r["pass"] for r in rep["results"])

    def test_corollary_max_bits(self, capsys):
        # --cap is the same option as --max-bits, the flag `digits` takes
        runs = [run(capsys, "corollary", "--max-n", "60", flag, "256")
                for flag in ("--max-bits", "--cap")]
        assert runs[0] == runs[1] and runs[0][0] == 0
        code, out, err = run(capsys, "corollary", "--max-n", "200", "--max-bits", "64")
        assert (code, out) == (1, "")
        assert err.endswith("try a larger --max-bits\n")

    def test_normality(self, capsys):
        code, rep = run_json(capsys, "normality", "--multiplier", "3",
                             "--k", "100")
        assert code == 0

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--depth", "21", "--csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert (int(rows[1]["lo_c"]), int(rows[1]["lo_d"])) == (2, 1)

    def test_table(self, capsys):
        code, rep = run_json(capsys, "table")
        assert code == 0
        assert len(rep["regions"]) == 6
        assert all(r["target"] is not None for r in rep["regions"])
        assert rep["results"][1] == {"name": "reconstruction", "pass": True,
                                     "witness": "6 identified, 0 unidentified region(s)"}

    def test_table_unidentified_regions_fail(self, capsys):
        # targets with l <= 2 cannot name rows 3, 4 and 8
        code, rep = run_json(capsys, "table", "--l-bound", "2")
        assert code == 2
        assert rep["results"][1] == {"name": "reconstruction", "pass": False,
                                     "witness": "3 identified, 3 unidentified region(s)"}


def test_import_leaves_out_dataclasses():
    # `dataclasses` imports inspect, ast and dis, milliseconds on every CLI
    # start; -S keeps site-packages' .pth hooks out of the check
    src = os.path.dirname(os.path.dirname(os.path.abspath(gppairs.__file__)))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, gppairs.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("argv, read", [
    # 102 KB as CSV and 132 KB as JSON outgrow a 64 KiB pipe buffer, so the
    # writer meets the closed end; a short report meets it at the last flush
    (["sweep", "--depth", "401", "--csv"], 10),
    (["sweep", "--depth", "401"], 10),
    (["digits", "--epsilon", "1/2", "--count", "5"], 0),
], ids=["csv", "json", "short"])
def test_closed_stdout_gives_one_line(argv, read):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gppairs.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gppairs.cli", "--no-timing", *argv],
        env=dict(env, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "Exception ignored" not in err
