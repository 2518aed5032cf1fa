"""The process under test: one caller running one workload's ops in a closed
loop.  Reads a job as JSON on stdin and writes one JSON result on stdout.

Job keys: root (the checkout), workload, seed, seconds, mode.  Modes:
- "setup": import the package, build the cycle's inputs, exit;
- "run": whole cycles until `seconds` of op time have passed;
- "trace": two cycles untraced, then the same cycle traced.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import hostspeed


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gppairs
    if not os.path.abspath(gppairs.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"gppairs imported from {gppairs.__file__}, not {src}")
    return gppairs


def _run_cycle(cycle, calls, canon, out: list) -> float:
    """Run each op once; append [index, seconds, host loop seconds, canonical
    result, error]; return the time spent in ops.  The host speed sample and
    the canonical form are taken off the clock."""
    busy = 0.0
    for i, call in enumerate(calls):
        loop_s = hostspeed.sample()
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception:  # an op that raises counts as failed, the loop goes on
            result, error = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        busy += dt
        if error is None:
            try:
                result = canon(cycle[i], result)
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
        out.append([i, dt, loop_s, result, error])
    return busy


def main() -> int:
    job = json.load(sys.stdin)
    root, mode = job["root"], job["mode"]
    hostspeed.pin()
    _import_package(root)
    import ops as op_mod  # imports gppairs, so only once the path is set
    import workloads

    cycle = workloads.cycle(job["workload"], job["seed"])
    cli = op_mod.cli_in_process if mode != "run" else op_mod.cli_subprocess(root)
    calls = op_mod.prepare(cycle, cli)
    if mode == "setup":
        return 0

    for op, call in zip(cycle, calls):  # fill the warm reals' caches
        if op["op"] == "trace" and not op["fresh"]:
            call()

    records: list = []
    report: dict = {"records": records}
    if mode == "run":
        busy = 0.0
        while busy < job["seconds"]:
            busy += _run_cycle(cycle, calls, op_mod.canon, records)
        who = resource.RUSAGE_CHILDREN if job["workload"] == "readme_cli" else resource.RUSAGE_SELF
        report["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    else:
        import tracer

        for _ in range(2):
            _run_cycle(cycle, calls, op_mod.canon, records)
        tr = tracer.Tracer()
        tr.install()
        try:
            _run_cycle(cycle, calls, op_mod.canon, records)
        finally:
            tr.uninstall()
        report["layers"] = tr.metrics()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
