"""Turn workload ops into calls on the package's public functions, and turn
their results into plain JSON values the oracle can be compared with.

`prepare` does the set-up an op needs (epsilons, table rows, the warm
RefinableReals) and returns the zero-argument call that is timed.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction

import gppairs
from gppairs import QSqrt2, RefinableReal, SequenceSpec

from oracle import norm4, parse_q2, prefix_hash

DELTA = Fraction(1, 1 << 60)


def _norm4(x) -> list[int]:
    """A package Q(sqrt2) value in the oracle's terms, read from its text."""
    return norm4(parse_q2(str(x)))


def _verify_pair(op):
    pair = gppairs.entry(op["row"])
    eps = {"xi1": pair.xi1, "mid": pair.midpoint,
           "xi2-delta": pair.xi2 - QSqrt2.of(DELTA)}[op["point"]]
    n = op["n"]

    def call():
        return gppairs.verify_pair(pair, eps, n)
    return call


def _digits(op):
    eps = QSqrt2.of(Fraction(op["eps"]))
    n = op["n"]

    def call():
        return gppairs.digits_from_trace(gppairs.generate(SequenceSpec(eps, 2 * n + 1)), n)
    return call


def _first_bad(op):
    eps = QSqrt2.of(Fraction(op["eps"]))
    limit = op["limit"]

    def call():
        return gppairs.first_bad_digit(eps, limit)
    return call


def _trace(op):
    expr, n = op["expr"], op["n"]
    warm = None if op["fresh"] else RefinableReal(expr)  # warmed before timing

    def call():
        real = warm or RefinableReal(expr)  # fresh, as each CLI call builds one
        return gppairs.digits_from_trace(gppairs.generate(SequenceSpec(real, 2 * n + 1)), n)
    return call


def _corollary(op):
    n = op["n"]

    def call():
        return gppairs.corollary_check(n)
    return call


def _sweep(op):
    depth = op["depth"]

    def call():
        return gppairs.sweep(gppairs.DOMAIN_LO, gppairs.DOMAIN_HI, depth)
    return call


def _rediscover(op):
    """The `discover` command's procedure: bracket the jump around a 12-digit
    decimal of the endpoint, bisect, then identify (c, d) and the minimal
    polynomial."""
    pair = gppairs.entry(op["row"])
    xi, tol = pair.xi1, op["tol_bits"]
    depth = pair.certification_depth if pair.index != 5 else 62
    approx = Fraction(xi.to_decimal(12))
    below, above = (Fraction(m, 10**6) for m in op["margins"])
    window = (max(approx - below, Fraction(2929, 10000)), approx + above)

    def call():
        target = gppairs.generate(SequenceSpec(xi, depth)).values[-1]
        enclosure = gppairs.bisect_jump(depth, target, window, tol)
        cd = gppairs.identify_halfint_sqrt2(enclosure)
        return enclosure, cd, gppairs.min_poly_deg2(enclosure)
    return call


def _verify_endpoint(op):
    pair, side = gppairs.entry(op["row"]), op["side"]

    def call():
        return gppairs.verify_endpoint(pair, side)
    return call


def _reconstruct(op):
    args = (op["depth"], op["digit_depth"], op["l_bound"])

    def call():
        return gppairs.reconstruct_table(*args)
    return call


def cli_subprocess(root: str):
    """`gppairs --no-timing ...` as a child interpreter on the checkout's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def make(op):
        argv = [sys.executable, "-m", "gppairs.cli", "--no-timing", *op["argv"]]

        def call():
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
            return done.returncode, done.stdout
        return call
    return make


def cli_in_process(op):
    """`gppairs.cli.main(argv)` in this process, stdout captured."""
    import gppairs.cli

    argv = ["--no-timing", *op["argv"]]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gppairs.cli.main(argv)
        return code, out.getvalue()
    return call


BUILDERS = {
    "verify_pair": _verify_pair, "digits": _digits, "first_bad": _first_bad,
    "trace": _trace, "corollary": _corollary, "sweep": _sweep,
    "rediscover": _rediscover, "verify_endpoint": _verify_endpoint,
    "reconstruct": _reconstruct,
}


def prepare(ops: list[dict], cli=cli_in_process) -> list:
    """Set-up for a cycle: one timed call per op."""
    return [(cli if op["op"] == "cli" else BUILDERS[op["op"]])(op) for op in ops]


def canon(op: dict, result):
    """The op's result as plain JSON values, in the oracle's terms."""
    kind = op["op"]
    if kind == "verify_pair":
        mm = result.first_mismatch
        return [result.matched, result.eps_in_interval, list(mm) if mm else None]
    if kind in ("digits", "trace"):
        return list(result.digits)
    if kind == "first_bad":
        return list(result) if result else None
    if kind == "corollary":
        return [result.agree_from_31, list(result.disagreements_below_31),
                result.onset, result.identity_ok]
    if kind == "sweep":
        return [[_norm4(c.lo), _norm4(c.hi), prefix_hash(c.prefix)] for c in result]
    if kind == "rediscover":
        enclosure, (c, d), poly = result
        lo, hi = Fraction(enclosure.lo), Fraction(enclosure.hi)
        return {"cd": [c, d], "poly": [poly.a2, poly.a1, poly.a0],
                "enclosure": [lo.numerator, lo.denominator, hi.numerator, hi.denominator]}
    if kind == "verify_endpoint":
        return result.ok
    if kind == "reconstruct":
        return [[_norm4(r.lo), _norm4(r.hi), "".join(map(str, r.digit_prefix)),
                 [r.target.alpha, r.target.beta, r.target.l] if r.target else None]
                for r in result.regions]
    if kind == "cli":
        return list(result)
    raise ValueError(f"unknown op {kind!r}")
