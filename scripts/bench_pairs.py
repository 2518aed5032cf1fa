#!/usr/bin/env python3
"""Benchmark this working tree against a parent revision, in pairs.

    python3 scripts/bench_pairs.py --number 13 --parent HEAD~1 \\
        --workload transcendental:10 --workload discovery:4 --seed 7 --seed 11 \\
        --seconds 25

exports the parent revision (`git archive`) into a temporary directory, and
for each seed and workload runs `bench/run.py --trace 0` there and in this
checkout's working tree (the change) as PAIRS pairs, 10 by default.  Odd
pairs run the parent first and even pairs the change first, so a drift of
the host over the run falls on both sides alike.  With `--trace-seed S` each
side also gets one `--trace 1` run of each workload, kept in the first
seed's file.

It writes one file per seed at the root of the checkout, the files that a
speed claim cites: BENCH_<number>.json for the first seed and
BENCH_<number>_seed<S>.json for each later seed S; each file names the
others under `other_seeds`.  A file holds its seed, each side's `context`
line (Python version, cores, src_lines), every raw result line, and per
workload and end-to-end metric: each side's quartiles, the parent's IQR, the
change's pair wins and its median change against the bound in
BENCHMARK.json.  Each workload's summary also holds each side's median
`attempted` (ops run): the worker keeps every op's result, so `peak_rss_mb`
has to be read against it.  The exported tree is removed afterwards.  Exits 1
if any op failed its oracle on either side.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """Write the files committed at `rev` into `dest`, without .git."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def kill_run(pid: int) -> None:
    """Kill bench/run.py (`pid`, a process group leader), its group, and the
    group of each of its descendants: run.py starts each worker.py in a
    session of its own.  The group is stopped first, so that it starts
    nothing while /proc is read for the tree."""
    try:
        os.killpg(pid, signal.SIGSTOP)
    except ProcessLookupError:  # run.py is gone, and so are its workers
        return
    parent_of = {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                # after the command's closing ")" come the state and the ppid
                parent_of[int(entry)] = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError):  # not a process, or gone
            pass
    tree = [pid]
    for parent in tree:  # grows as it is read: breadth first
        tree += [child for child, pp in parent_of.items() if pp == parent]
    for member in tree:
        try:
            os.killpg(os.getpgid(member), signal.SIGKILL)
        except ProcessLookupError:
            pass


def bench(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py run: its context line and its last (result) line.

    run.py runs in a process group of its own, and kill_run ends it and its
    workers if the wait is cut short (SIGTERM, Ctrl-C)."""
    with subprocess.Popen(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            kill_run(proc.pid)
            raise
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py in {checkout} exited {proc.returncode}:\n"
                         f"{err[-2000:]}")
    lines = out.splitlines()
    context = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("context "))
    return {"context": context, "result": json.loads(lines[-1])}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        quart = {s: dict(zip(("q1", "median", "q3"), statistics.quantiles(v, n=4)))
                 for s, v in side.items()}
        for s, v in side.items():  # the median of the values, not of the cut points
            quart[s]["median"] = statistics.median(v)
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(side["parent"], side["change"]))
        parent_median = quart["parent"]["median"]
        out[name] = {
            **quart,
            "parent_iqr": quart["parent"]["q3"] - quart["parent"]["q1"],
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change": (quart["change"]["median"] - parent_median) / parent_median,
            "better": spec["better"],
            "bound": spec["bound"],
        }
    out["attempted"] = {s: statistics.median(p[s]["attempted"] for p in pairs)
                        for s in ("parent", "change")}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, required=True, help="writes BENCH_<number>[_seed<S>].json")
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD, for uncommitted work)")
    p.add_argument("--workload", action="append", required=True, metavar="NAME[:PAIRS]",
                   help="a workload and its pair count (default 10); repeatable")
    p.add_argument("--seed", type=int, action="append", required=True,
                   help="a workload seed; repeatable, one file per seed")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace-seed", type=int, help="also one traced run per side and workload")
    p.add_argument("--note", default="", help="what the change is, for the file's reader")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exit, so the exported tree is removed and the
    # running bench/run.py is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    plan = []
    for spec in args.workload:
        name, _, n = spec.partition(":")
        plan.append((name, int(n) if n else 10))
    if any(n < 2 for _, n in plan):
        p.error("each workload needs at least 2 pairs for quartiles")
    seeds = list(dict.fromkeys(args.seed))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    parent_sha = git("rev-parse", args.parent)
    dirty = git("status", "--porcelain", "--untracked-files=no")
    change_desc = f"working tree at {git('rev-parse', 'HEAD')}" + (
        " with uncommitted changes" if dirty else "")
    files = {seed: f"BENCH_{args.number}.json" if seed == seeds[0]
             else f"BENCH_{args.number}_seed{seed}.json" for seed in seeds}
    reports = {seed: {
        "note": args.note,
        "seed": seed,
        "other_seeds": {str(s): f for s, f in files.items() if s != seed},
        "parent": parent_sha,
        "change": change_desc,
        "command": f"python3 bench/run.py --workload W --seed {seed} "
                   f"--seconds {args.seconds} --trace 0",
        "order": "pairs alternate: odd pairs run the parent first, even pairs the change first",
        "context": {},
        "pairs": {},
        "summary": {},
    } for seed in seeds}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        export(parent_sha, roots["parent"])

        def run(report, side, workload, seed, trace):
            nonlocal failed
            out = bench(roots[side], workload, seed, args.seconds, trace)
            report["context"].setdefault(side, out["context"])
            failed += out["result"]["failed"]
            return out["result"]

        for seed, report in reports.items():
            for workload, n in plan:
                rows = []
                for i in range(1, n + 1):
                    order = ("parent", "change") if i % 2 else ("change", "parent")
                    row = {"pair": i}
                    for side in order:
                        row[side] = run(report, side, workload, seed, 0)
                        m = row[side]["metrics"]["ops_per_s"]["value"]
                        print(f"seed {seed} {workload} pair {i}/{n} {side}: "
                              f"ops_per_s {m:.4g}", file=sys.stderr)
                    rows.append(row)
                report["pairs"][workload] = rows
                report["summary"][workload] = summarize(rows, end_to_end)
        if args.trace_seed is not None:
            first = reports[seeds[0]]
            first["traced"] = {
                "command": f"python3 bench/run.py --workload W --seed {args.trace_seed} "
                           f"--seconds {args.seconds} --trace 1",
                **{w: {s: run(first, s, w, args.trace_seed, 1) for s in ("parent", "change")}
                   for w, _ in plan},
            }
    for seed, report in reports.items():
        with open(os.path.join(ROOT, files[seed]), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        for workload, metrics in report["summary"].items():
            for name, s in metrics.items():
                if name == "attempted":
                    print(f"seed {seed} {workload}.attempted: "
                          f"{s['parent']:g} -> {s['change']:g}")
                    continue
                print(f"seed {seed} {workload}.{name}: {s['parent']['median']:.6g} -> "
                      f"{s['change']['median']:.6g} ({s['median_change']:+.1%}), "
                      f"wins {s['change_wins']}, parent IQR {s['parent_iqr']:.3g}")
    if failed:
        print(f"{failed} ops failed their oracle", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
