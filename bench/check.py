"""Compare each op's result with the oracle.  Never imports gppairs.

`Checker.check(op, result)` is True when the result is right.  Reference
answers are computed once per distinct op and kept for the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import oracle as o

_POLY = re.compile(r"^(-?\d+)\*x\^2 \+ (-?\d+)\*x \+ (-?\d+)$")
_TARGET = re.compile(r"^\(\((\d+)\*sqrt2-(\d+)\)/2\^(\d+)\)$")


def _exact_eps(text: str):
    return o.rational(Fraction(text))


def annihilates(poly, c: int, d: int) -> bool:
    """a2 x^2 + a1 x + a0 = 0 at x = (c/2)*sqrt2 - d, content-free, a2 > 0.

    x^2 = c^2/2 + d^2 - c d sqrt2, so both parts of 2*p(x) must vanish.
    """
    a2, a1, a0 = poly
    rational = a2 * (c * c + 2 * d * d) - 2 * a1 * d + 2 * a0
    irrational = -2 * a2 * c * d + a1 * c
    content = math.gcd(math.gcd(a2, a1), a0)
    return a2 > 0 and content == 1 and rational == 0 and irrational == 0


class Checker:
    def __init__(self):
        self._memo: dict = {}
        self.last_error = ""

    def _ref(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def trans_digits(self, expr: str, n: int) -> list[int]:
        v = self._ref(("trans", expr, n), lambda: o.trans_trace(expr, 2 * n + 1))
        return o.trace_digits(v, n)

    def exact_digits(self, eps, n: int) -> list[int]:
        return o.trace_digits(o.trace(eps, 2 * n + 1), n)

    def expected(self, op: dict):
        """The right canonical result of a deterministic op."""
        kind = op["op"]
        key = json.dumps(op, sort_keys=True)
        if kind == "verify_pair":
            return self._ref(key, lambda: o.verify_pair(op["row"], op["point"], op["n"]))
        if kind == "digits":
            return self._ref(key, lambda: self.exact_digits(_exact_eps(op["eps"]), op["n"]))
        if kind == "first_bad":
            return self._ref(key, lambda: o.first_bad(_exact_eps(op["eps"]), op["limit"]))
        if kind == "trace":
            return self.trans_digits(op["expr"], op["n"])
        if kind == "corollary":
            return self._ref(key, lambda: o.corollary(
                o.trans_trace("1-pi^2/e^3", 2 * op["n"] + 1), op["n"]))
        if kind == "sweep":
            return self._ref(key, lambda: o.sweep_canon(o.DOMAIN_LO, o.DOMAIN_HI, op["depth"]))
        if kind == "verify_endpoint":
            return self._ref(key, lambda: o.endpoint_ok(op["row"], op["side"]))
        if kind == "reconstruct":
            return self._ref(key, lambda: o.reconstruct(
                op["depth"], op["digit_depth"], op["l_bound"]))
        raise ValueError(f"no reference for op {kind!r}")

    def check(self, op: dict, result) -> bool:
        """True when `result`, the op's canonical result, is right."""
        self.last_error = ""
        kind = op["op"]
        if kind == "rediscover":
            return self._rediscovered(op, result)
        if kind == "cli":
            return self._cli(op["argv"], *result)
        return result == self.expected(op)

    def _rediscovered(self, op, result) -> bool:
        (c, d), _, _ = o.ROWS[op["row"]]
        lo_n, lo_d, hi_n, hi_d = result["enclosure"]
        xi = o.halfint(c, d)
        inside = (o.cmp2(o.rational(Fraction(lo_n, lo_d)), xi) <= 0
                  <= o.cmp2(o.rational(Fraction(hi_n, hi_d)), xi))
        narrow = Fraction(hi_n, hi_d) - Fraction(lo_n, lo_d) <= Fraction(1, 1 << op["tol_bits"])
        return (result["cd"] == [c, d] and inside and narrow
                and annihilates(result["poly"], c, d))

    # --- the README's commands ---------------------------------------------

    def _cli(self, argv: list[str], code: int, out: str) -> bool:
        try:
            return getattr(self, "_cli_" + argv[0])(argv, code, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.last_error = f"{argv[0]}: {exc!r}"
            return False

    @staticmethod
    def _opt(argv, name, default=None):
        return argv[argv.index(name) + 1] if name in argv else default

    def _cli_digits(self, argv, code, out):
        rep = json.loads(out)
        expr, n = self._opt(argv, "--epsilon"), int(self._opt(argv, "--count"))
        if re.search(r"pi|\be\b", expr):
            want = self.trans_digits(expr, n)
        else:
            want = self.exact_digits(_exact_eps(expr), n)
        return (code == 0 and rep["anomalies"] == []
                and rep["results"][0]["witness"] == " ".join(map(str, want)))

    def _cli_verify(self, argv, code, out):
        depth = int(self._opt(argv, "--depth", 200))
        results = {r["name"]: r for r in json.loads(out)["results"]}
        all_pass = True
        for row in range(1, 9):
            for label in ("xi1", "mid", "xi2-delta"):
                matched, _, mm = self._ref(("verify", row, label, depth),
                                           lambda: o.verify_pair(row, label, depth))
                r = results[f"pair {row} digits at {label}"]
                if r["pass"] != matched or (not matched and r["witness"] != str(tuple(mm))):
                    return False
                all_pass &= matched
            if row == 5:
                if results["pair 5 closed forms (odd + corrected even)"]["pass"] != \
                        self._ref("row5", o.row5_closed_forms):
                    return False
                continue
            want = self._ref(("certificate", row), lambda: o.comp_holds(row, "left")
                             and o.comp_holds(row, "right"))
            r = results[f"pair {row} certificate"]
            l = o.ROWS[row][2][2]
            if r["pass"] != want or (want and r["witness"] !=
                                     f"v_{2 * (l + 2)} target {o.comp_value(row)}"):
                return False
            all_pass &= want
        erratum = str(o.comp_value(6)) in results["pair 6 note"]["witness"]
        return erratum and code == (0 if all_pass else 2)

    def _cli_counterexample(self, argv, code, out):
        rep = json.loads(out)
        limit = int(self._opt(argv, "--limit", 4000))
        hit = o.first_bad(_exact_eps(self._opt(argv, "--epsilon")), limit)
        want_anomalies = [{"index": hit[0], "digit": hit[1]}] if hit else []
        return (code == (2 if hit else 0) and rep["anomalies"] == want_anomalies
                and rep["results"][0]["witness"] == (str(tuple(hit)) if hit else "none"))

    def _cli_discover(self, argv, code, out):
        results = json.loads(out)["results"]
        (c, d), _, _ = o.ROWS[int(self._opt(argv, "--row"))]
        m = _POLY.match(results[1]["witness"])
        return (code == 0 and results[0]["pass"]
                and results[0]["witness"].startswith(f"c={c} d={d} ")
                and m is not None and annihilates([int(g) for g in m.groups()], c, d))

    def _cli_corollary(self, argv, code, out):
        results = json.loads(out)["results"]
        n = int(self._opt(argv, "--max-n", 150))
        agree, _, onset, _ = self.expected({"op": "corollary", "n": n})
        return (code == (0 if agree else 2) and results[0]["pass"] == agree
                and results[0]["witness"] == f"onset {onset}" and results[1]["pass"])

    def _cli_plotdata(self, argv, code, out):
        lo, hi = (Fraction(s) for s in self._opt(argv, "--range").split(":"))
        depth = int(self._opt(argv, "--depth", 62))
        rows = list(csv.DictReader(io.StringIO(out)))
        samples = [(Fraction(r["epsilon"]), int(r["v"])) for r in rows if r["kind"] == "sample"]
        jumps = sorted((int(r["c"]), int(r["d"]), int(r["v_below"]), int(r["v_at"]))
                       for r in rows if r["kind"] == "jump")
        grid = [lo + (hi - lo) * k / (len(samples) - 1) for k in range(len(samples))]
        ok_samples = [e for e, _ in samples] == grid and all(
            v == o.trace(o.rational(e), depth)[-1] for e, v in samples)
        cells = o.sweep(o.rational(lo), o.rational(hi), depth)
        want = sorted((*o.halfint_of(b[0]), a[2][-1], b[2][-1])
                      for a, b in zip(cells, cells[1:]))
        return code == 0 and ok_samples and jumps == want

    def _cli_sweep(self, argv, code, out):
        depth = int(self._opt(argv, "--depth", 21))
        rows = list(csv.reader(io.StringIO(out)))[1:]
        got = [(r[:4], o.norm4(o.parse_q2(r[4])), o.norm4(o.parse_q2(r[5])), r[6])
               for r in rows]
        want = []
        for lo, hi, prefix in o.sweep(o.DOMAIN_LO, o.DOMAIN_HI, depth):
            cds = [str(x) for x in (*o.halfint_of(lo), *o.halfint_of(hi))]
            want.append((cds, o.norm4(lo), o.norm4(hi), " ".join(map(str, prefix))))
        return code == 0 and got == want

    def _cli_table(self, argv, code, out):
        rep = json.loads(out)
        got = []
        for r in rep["regions"]:
            m = r["target"] and _TARGET.match(r["target"])
            got.append([o.norm4(o.parse_q2(r["lo"])), o.norm4(o.parse_q2(r["hi"])),
                        "".join(map(str, r["digits"])),
                        [int(g) for g in m.groups()] if m else None])
        want = o.reconstruct(int(self._opt(argv, "--depth", 21)),
                             int(self._opt(argv, "--digit-depth", 10)),
                             int(self._opt(argv, "--l-bound", 8)))
        partition = rep["results"][0]
        return (code == 0 and got == want and partition["pass"]
                and partition["name"] == "theorem table partition")
