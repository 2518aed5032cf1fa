"""Command-line front end with JSON/CSV reports.

Exit status: 0 = all checks pass, 2 = mathematical anomaly found (e.g. a
digit outside {0,1}), 1 = usage or evaluation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .engine import (
    DELTA,
    SequenceSpec,
    closed_form_check,
    corollary_check,
    digits_from_trace,
    first_bad_digit,
    generate,
    normality_probe,
    verify_pair,
)
from .discovery import (
    SweepBudgetError,
    bisect_jump,
    certify_pair,
    halfint_form,
    identify_halfint_sqrt2,
    min_poly_deg2,
    reconstruct_table,
    sweep,
    validate_partition,
    value_at,
    verify_endpoint,
)
from .exact import QSqrt2
from .reals import (ParseError, RefinableReal, UndecidableError, exact_value, format_expr,
                    parse_expr)
from .table import DOMAIN_HI, DOMAIN_LO, THEOREM_TABLE, entry, halfint


class EpsilonInput:
    """Parsed epsilon: exact Q(sqrt2) when possible, else a refinable real."""

    def __init__(self, raw: str):
        self.raw = raw
        self.expression = parse_expr(raw)
        self.exact = exact_value(self.expression)

    @property
    def value(self):
        if self.exact is not None:
            return self.exact
        return RefinableReal(self.expression)

    def canonical(self) -> str:
        return format_expr(self.expression) if self.exact is None else str(self.exact)


# Each cmd_* returns its report body: "inputs", "results", optional
# "anomalies" and any extra keys, or None once it has written CSV.  `main`
# adds the common keys, prints the JSON and picks the exit status.

def cmd_digits(args) -> dict:
    eps = EpsilonInput(args.epsilon)
    spec = SequenceSpec(eps.value, depth=2 * args.count + 1, max_bits=args.max_bits)
    trace = generate(spec)
    stream = digits_from_trace(trace, args.count)
    anomalies = [{"index": i, "digit": d} for i, d in stream.anomalies()]
    return {"inputs": {"epsilon": eps.canonical(), "count": args.count},
            "results": [{"name": "digits", "pass": not anomalies,
                         "witness": " ".join(str(d) for d in stream.digits)}],
            "anomalies": anomalies}


def cmd_verify(args) -> dict:
    indices = range(1, 9) if args.pair == "all" else [int(args.pair)]
    results = []
    for i in indices:
        pair = entry(i)
        for label, eps in (("xi1", pair.xi1),
                           ("mid", pair.midpoint),
                           ("xi2-delta", pair.xi2 - QSqrt2.of(DELTA))):
            m = verify_pair(pair, eps, args.depth)
            results.append({"name": f"pair {i} digits at {label}", "pass": m.matched,
                            "witness": "" if m.matched else str(m.first_mismatch)})
        if i == 5:
            cf = closed_form_check(5, pair.midpoint, range(1, 51))
            results.append({"name": "pair 5 closed forms (odd + corrected even)",
                            "pass": cf.odd_ok and bool(cf.corrected_even_ok),
                            "witness": f"printed even form matches: {cf.printed_even_ok}"})
        else:
            cert = certify_pair(pair)
            results.append({"name": f"pair {i} certificate", "pass": cert.ok,
                            "witness": "; ".join(
                                f"{c.name}: {'ok' if c.passed else 'FAIL ' + c.witness}"
                                for c in cert.checks if not c.passed) or
                            f"v_{pair.certification_depth} target {cert.comp_target}"})
            for note in cert.notes:
                if "erratum" in note:
                    results.append({"name": f"pair {i} note", "pass": True,
                                    "witness": note})
    return {"inputs": {"pair": args.pair, "depth": args.depth}, "results": results}


def cmd_discover(args) -> dict:
    pair = entry(args.row)
    xi = pair.xi1
    if (xi - DOMAIN_LO).sign() == 0:
        return {"inputs": {"row": args.row},
                "results": [{"name": f"row {args.row} left endpoint", "pass": True,
                             "witness": "domain boundary 1-sqrt2/2; no jump to locate"}]}
    depth = pair.certification_depth if pair.index != 5 else 62
    # jump target: the constant value the trace takes just above the endpoint
    target = value_at(xi, depth)
    # coarse rational window around the endpoint from its truncated decimal
    approx = Fraction(xi.to_decimal(12))
    width = Fraction(1, 1000)
    lo = max(approx - width, Fraction(2929, 10000))
    hi = approx + width
    try:
        enclosure = bisect_jump(depth, target, (lo, hi), args.tol_bits)
        c, d = identify_halfint_sqrt2(enclosure)
        poly = min_poly_deg2(enclosure)
        ep = verify_endpoint(pair, "left")
        ok = (halfint(c, d) - xi).sign() == 0 and ep.ok
        results = [
            {"name": f"row {args.row} left endpoint", "pass": ok,
             "witness": f"c={c} d={d} ({halfint(c, d).to_decimal()}...)"},
            {"name": "minimal polynomial",
             "pass": poly.eval_q(halfint(c, d)) == QSqrt2.of(0), "witness": str(poly)},
        ]
    except ValueError as exc:
        results = [{"name": f"row {args.row} discovery", "pass": False,
                    "witness": f"{exc}; try raising --tol-bits"}]
    return {"inputs": {"row": args.row, "tol_bits": args.tol_bits}, "results": results}


def _figure1_rows() -> list[dict]:
    rows = []
    for pair in THEOREM_TABLE:
        c1, d1 = halfint_form(pair.xi1)
        c2, d2 = halfint_form(pair.xi2)
        t = pair.target
        rows.append({
            "row": pair.index,
            "xi1_c": c1, "xi1_d": d1, "xi2_c": c2, "xi2_d": d2,
            "xi1_decimal": pair.xi1.to_decimal(), "xi2_decimal": pair.xi2.to_decimal(),
            "t_exact": str(t.value()), "t_decimal": t.value().to_decimal(),
            "alpha": t.alpha, "beta": t.beta, "l": t.l,
        })
    return rows


def _parse_range(text: str) -> tuple[Fraction, Fraction]:
    try:
        lo, hi = map(Fraction, text.split(":"))
    except (ValueError, ZeroDivisionError):
        lo = hi = None
    if lo is None or not lo < hi:
        raise ValueError(f"--range must be lo:hi with rationals lo < hi, got {text!r}")
    return lo, hi


def _figure2_rows(lo: Fraction, hi: Fraction, depth: int, samples: int) -> list[dict]:
    """Sampled v_depth on [lo, hi], then its exact jumps: every breakpoint
    of the sweep, which is (c/2)*sqrt2 - d and belongs to its upper cell."""
    grid = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    # |g| in millionths, rounded exactly with ties to even
    units = [round(abs(g) * 10**6) for g in grid]
    rows = [{"kind": "sample", "epsilon": str(g),
             "epsilon_decimal": f"{'-' if g < 0 else ''}{u // 10**6}.{u % 10**6:06d}",
             "v": value_at(g, depth)} for g, u in zip(grid, units)]
    cells = sweep(QSqrt2.of(lo), QSqrt2.of(hi), depth)
    for below, at in zip(cells, cells[1:]):
        c, d = halfint_form(at.lo)
        rows.append({"kind": "jump", "c": c, "d": d,
                     "epsilon_decimal": at.lo.to_decimal(),
                     "v_below": below.prefix[-1], "v_at": at.prefix[-1]})
    return rows


def cmd_plotdata(args) -> dict | None:
    if args.figure == 1:
        rows = _figure1_rows()
        fieldnames = list(rows[0].keys())
    else:
        lo, hi = _parse_range(args.range)
        rows = _figure2_rows(lo, hi, args.depth, args.samples)
        fieldnames = ["kind", "epsilon", "epsilon_decimal", "v", "c", "d",
                      "v_below", "v_at"]
    if args.csv:
        w = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        w.writeheader()
        for r in rows:
            w.writerow(r)
        return None
    return {"inputs": {"figure": args.figure},
            "results": [{"name": f"figure {args.figure} rows", "pass": True,
                         "witness": f"{len(rows)} rows"}],
            "rows": rows}


def cmd_counterexample(args) -> dict:
    eps = EpsilonInput(args.epsilon)
    if eps.exact is None:
        raise ValueError("counterexample scan requires an exact epsilon")
    hit = first_bad_digit(eps.exact, args.limit)
    anomalies = []
    if hit is not None:
        anomalies.append({"index": hit[0], "digit": hit[1]})
    return {"inputs": {"epsilon": eps.canonical(), "limit": args.limit},
            "results": [{"name": "first bad digit", "pass": True,
                         "witness": str(hit) if hit else "none"}],
            "anomalies": anomalies}


def cmd_corollary(args) -> dict:
    rep_c = corollary_check(args.max_n, args.max_bits)
    results = [
        {"name": f"digit agreement for 31 <= n <= {args.max_n}",
         "pass": rep_c.agree_from_31, "witness": f"onset {rep_c.onset}"},
        {"name": "shift identity 759250125*sqrt2 = 2^29 t6 + 314491699",
         "pass": rep_c.identity_ok, "witness": "exact in Q(sqrt2)"},
    ]
    return {"inputs": {"max_n": args.max_n}, "results": results}


def cmd_normality(args) -> dict:
    r = normality_probe(args.multiplier, args.k)
    results = [{
        "name": f"fractional parts of {args.multiplier}*sqrt2*2^(k-{r.exponent_offset})",
        "pass": True,
        "witness": f"min {r.min_frac.to_decimal()} at k={r.argmin}; "
                   f"max {r.max_frac.to_decimal()} at k={r.argmax}",
    }]
    return {"inputs": {"multiplier": args.multiplier, "k": args.k}, "results": results}


def cmd_sweep(args) -> dict | None:
    cells = sweep(DOMAIN_LO, DOMAIN_HI, args.depth, args.cell_budget)
    if args.csv:
        w = csv.writer(sys.stdout)
        w.writerow(["lo_c", "lo_d", "hi_c", "hi_d", "lo_exact", "hi_exact",
                    "v_prefix"])
        for c in cells:
            lo_cd = halfint_form(c.lo) or ("", "")
            hi_cd = halfint_form(c.hi) or ("", "")
            w.writerow([*lo_cd, *hi_cd, str(c.lo), str(c.hi),
                        " ".join(map(str, c.prefix))])
        return None
    return {"inputs": {"depth": args.depth},
            "results": [{"name": "cells", "pass": True, "witness": str(len(cells))}],
            "cells": [{"lo": str(c.lo), "hi": str(c.hi), "prefix": list(c.prefix)}
                      for c in cells]}


def cmd_table(args) -> dict:
    recon = reconstruct_table(args.depth, args.digit_depth, args.l_bound)
    part = validate_partition(THEOREM_TABLE)
    results = [
        {"name": "theorem table partition", "pass": part.ok,
         "witness": "; ".join(part.problems) or "adjacent, disjoint, covering"},
        {"name": "reconstruction",
         "pass": not recon.unidentified,
         "witness": f"{len(recon.identified)} identified, "
                    f"{len(recon.unidentified)} unidentified region(s)"},
    ]
    regions = [
        {"lo": str(r.lo), "hi": str(r.hi),
         "digits": list(r.digit_prefix),
         "target": (f"(({r.target.alpha}*sqrt2-{r.target.beta})/2^{r.target.l})"
                    if r.target else None)}
        for r in recon.regions]
    return {"inputs": {"depth": args.depth, "digit_depth": args.digit_depth,
                       "l_bound": args.l_bound},
            "results": results, "regions": regions}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one `error:` line (argparse's own status 2
    is the CLI's "anomaly found"), and a value starting with '-' reads as
    its `=` form (`--epsilon=-1/3`) unless it names one of the options."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        vars(self).setdefault("option_nargs", {}).update(  # None: one value
            dict.fromkeys(action.option_strings, action.nargs))
        return action

    def parse_known_args(self, args=None, namespace=None):
        opts, joined = self.option_nargs, []
        for arg in sys.argv[1:] if args is None else args:
            named = any(o == arg or arg[:2] == "--" and o.startswith(arg) for o in opts)
            if joined and arg[:1] == "-" and not named and opts.get(joined[-1], 0) is None:
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _at_least(low: int):
    """argparse type: an integer >= low, so a bad value names its flag."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


# the constants pi and e are enclosed at no fewer than 8 bits
_MAX_BITS = _at_least(8)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gppairs",
                description=__doc__.splitlines()[0])
    p.add_argument("--no-timing", action="store_true",
                   help="omit timings for byte-identical reruns")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("digits", help="digit stream for an epsilon")
    d.add_argument("--epsilon", required=True)
    d.add_argument("--count", type=_at_least(1), required=True)
    d.add_argument("--max-bits", type=_MAX_BITS, default=4096)
    d.set_defaults(func=cmd_digits)

    v = sub.add_parser("verify", help="verify/certify theorem rows")
    v.add_argument("--pair", choices=["all", *map(str, range(1, 9))], default="all")
    v.add_argument("--depth", type=_at_least(1), default=200)
    v.set_defaults(func=cmd_verify)

    di = sub.add_parser("discover", help="recover a row's left endpoint")
    di.add_argument("--row", type=int, choices=range(1, 9), required=True)
    di.add_argument("--tol-bits", type=_at_least(1), default=200)
    di.set_defaults(func=cmd_discover)

    pl = sub.add_parser("plotdata", help="figure data as JSON/CSV")
    pl.add_argument("--figure", type=int, choices=(1, 2), required=True)
    pl.add_argument("--range", default="0.40:0.60", help="lo:hi")
    pl.add_argument("--samples", type=_at_least(2), default=41)
    pl.add_argument("--depth", type=_at_least(1), default=62)
    pl.add_argument("--csv", action="store_true")
    pl.set_defaults(func=cmd_plotdata)

    ce = sub.add_parser("counterexample", help="first digit outside {0,1}")
    ce.add_argument("--epsilon", required=True)
    ce.add_argument("--limit", type=_at_least(1), default=4000)
    ce.set_defaults(func=cmd_counterexample)

    co = sub.add_parser("corollary", help="check the 1-pi^2/e^3 recurrence")
    co.add_argument("--max-n", type=_at_least(32), default=150)
    co.add_argument("--max-bits", "--cap", type=_MAX_BITS, default=4096)
    co.set_defaults(func=cmd_corollary)

    no = sub.add_parser("normality", help="fractional part extremes")
    no.add_argument("--multiplier", type=int, choices=(1, 3), default=1)
    no.add_argument("--k", type=_at_least(1), default=1000)
    no.set_defaults(func=cmd_normality)

    sw = sub.add_parser("sweep", help="full-domain constant-prefix cells")
    sw.add_argument("--depth", type=_at_least(1), default=21)
    sw.add_argument("--cell-budget", type=_at_least(1), default=10**6)
    sw.add_argument("--csv", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    tb = sub.add_parser("table", help="reconstruct the pair table")
    tb.add_argument("--depth", type=_at_least(1), default=21)
    tb.add_argument("--digit-depth", type=_at_least(1), default=10)
    tb.add_argument("--l-bound", type=_at_least(0), default=8)
    tb.set_defaults(func=cmd_table)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        body = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except UndecidableError as exc:
        print(f"undecidable: {exc}; try a larger --max-bits", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, SweepBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if body is None:
        return 0
    rep = {"command": args.command, "inputs": body.pop("inputs"),
           "results": body.pop("results"), "anomalies": body.pop("anomalies", []),
           "version": __version__}
    if not args.no_timing:
        rep["timings"] = {"seconds": round(time.monotonic() - started, 3)}
    rep.update(body)
    json.dump(rep, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if rep["anomalies"] or not all(r["pass"] for r in rep["results"]):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
