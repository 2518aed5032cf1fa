"""The gppairs benchmark.

    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

runs every workload and prints each metric by name and unit.  One workload:

    python3 bench/run.py --workload exact_digits --seed 7 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics of
a timed run; --trace 1 reports the per-layer metrics of a separate traced
run and its overhead.  Run from the root of a checkout: the package is
imported from its src/ directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402  (no gppairs import)
import tracer  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402

SETUP_REPEATS = 9

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "digits_per_s": "digits/s", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _worker(job: dict) -> dict | None:
    """Run worker.py on `job` in a process group of its own, so that a
    timeout ends the worker and any CLI child it has running."""
    with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(json.dumps(job), timeout=3 * job["seconds"] + 60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker ({job['mode']}) exited {proc.returncode}:\n{err}")
    return json.loads(out) if out else None


def setup_seconds(job: dict) -> float:
    """Median time, at reference host speed, of a fresh interpreter that
    imports the package and builds the workload's inputs (no reference
    answers)."""
    hostspeed.pin()
    times = []
    for _ in range(SETUP_REPEATS):
        loop_s = statistics.median(hostspeed.sample() for _ in range(3))
        t0 = time.perf_counter()
        _worker(dict(job, mode="setup"))
        times.append((time.perf_counter() - t0) * hostspeed.REFERENCE_S / loop_s)
    return statistics.median(times)


def cli_import_seconds() -> float:
    """Median time to import gppairs.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import gppairs.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def score(cycle: list[dict], records: list, log) -> tuple[int, int, list[float]]:
    """Check every op against the oracle: (correct ops, their digits,
    latencies at reference host speed)."""
    checker = Checker()
    correct = digits = 0
    for i, _, _, result, error in records:
        op = cycle[i]
        if error is None:
            try:
                if not checker.check(op, result):
                    error = checker.last_error or "result differs from the oracle"
            except Exception as exc:  # a malformed result is a wrong result
                error = f"checking raised {exc!r}"
        if error is None:
            correct += 1
            digits += op["digits"]
        else:
            log(f"FAILED {json.dumps(op)}: {error.strip()[-400:]}")
    latencies = hostspeed.scale([r[1] for r in records], [r[2] for r in records])
    return correct, digits, latencies


def run_workload(workload: str, seed: int, seconds: int, trace: int, log) -> dict:
    job = {"root": ROOT, "workload": workload, "seed": seed, "seconds": seconds}
    cycle = workloads.cycle(workload, seed)
    if trace:
        report = _worker(dict(job, mode="trace"))
        metrics = dict(report["layers"], **{"cli.import_s": cli_import_seconds()})
        units = tracer.METRICS
    else:
        setup_s = setup_seconds(job)
        report = _worker(dict(job, mode="run"))
        units = END_TO_END
    correct, digits, latencies = score(cycle, report["records"], log)
    n = len(cycle)
    if trace:
        # two untraced cycles, then the traced one; the faster untraced
        # cycle is the baseline, as the first also pays for first calls
        untraced = min(sum(latencies[:n]), sum(latencies[n:2 * n]))
        metrics["trace.overhead_ratio"] = sum(latencies[2 * n:]) / untraced - 1
    else:
        # Every op ran once per cycle.  The rates count every run; the
        # percentiles take each op's median run, so one stalled run of a
        # short op does not move them.
        per_op = [statistics.median(latencies[i::n]) for i in range(n)]
        metrics = {
            "ops_per_s": correct / sum(latencies),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_p90_ms": 1000 * statistics.quantiles(per_op, n=10)[8],
            "digits_per_s": digits / sum(latencies),
            "setup_s": setup_s,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        }
    attempted = len(report["records"])
    return {
        "correct": correct == attempted,
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "gppairs", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'gppairs')}",
              file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, log)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        log(f"error: {exc}")
        return 1

    context = {"python": platform.python_version(), "cores": os.cpu_count(),
               "src_lines": src_lines(), "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace,
               "note": "shared hosts add noise: compare medians of repeated runs"}
    print("context " + json.dumps(context))
    for name, res in results.items():
        fail_ratio = res["failed"] / res["attempted"]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"fail_ratio {fail_ratio:.6g}")
        for metric, m in res["metrics"].items():
            print(f"  {name}.{metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
