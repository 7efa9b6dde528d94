"""Record before/after benchmark pairs of two checkouts as a BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 301 302 ... [--host TEXT] --out BENCH_x.json

DIR is a checkout of each revision (a git worktree or clone).  For each
seed, ``python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0``
runs once in each checkout, unchanged and from its root, the two sides
alternating which goes first (the parent first on the first seed).  The
last line of each run's output is its result.  The record is rewritten
after every pair, so an interrupted run keeps the pairs it finished.

The layout is that of the BENCH_*.json files at the root of the repository:
command, host, order, seeds, revisions (each side's commit, as
``<sha>-dirty`` when the checkout has uncommitted edits to tracked files),
runs (per side, one seed and result per run) and summary (per end-to-end
metric, the median and quartiles of each side, the number of pairs in
which the change is lower, the median and quartiles of the per-pair ratio
change/parent, whether a gain holds: the change lower in at least nine
tenths of the pairs, ties counting for neither, and its median below the
parent's by more than the parent's interquartile range, and the
no-regression verdict, under ``regression``; under ``operations``, per
side, the attempted and failed operations summed over its runs and whether
every run was correct).  The verdict reads the metric's bound, a fraction
of the parent's median, from the end-to-end metrics of the repository's
BENCHMARK.json: ``worse`` when the change's median exceeds the parent's by
more than the bound; else ``unresolved`` when the parent's interquartile
range is wider than the bound, unless every change run reads lower than
every parent run; else ``not_worse``.  Every metric here is lower-better.
On a host whose speed drifts during a record, the pair ratios stay steadier
than either side's median.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")
SECONDS = 15  # the run length of every BENCH_*.json record


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def revision(checkout: Path) -> str:
    """The checkout's HEAD commit, as ``<sha>-dirty`` when a tracked file
    differs from it: the commit alone would not name what ran."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, stdout=subprocess.PIPE, text=True).stdout.strip()
    sha = git("rev-parse", "HEAD") or "unknown"
    return f"{sha}-dirty" if git("status", "--porcelain", "--untracked-files=no") else sha


def side_stats(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def regression(parent: list[float], change: list[float], bound: float) -> str:
    """The no-regression verdict on one lower-better metric, of bound
    ``bound`` relative to the parent's median."""
    p, c = side_stats(parent), side_stats(change)
    if c["median"] - p["median"] > bound * p["median"]:
        return "worse"
    if p["q3"] - p["q1"] > bound * p["median"] and not max(change) < min(parent):
        return "unresolved"
    return "not_worse"


def summary(runs: dict) -> dict:
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    out = {}
    for metric in METRICS:
        values = {side: [r["result"]["metrics"][metric]["value"] for r in runs[side]] for side in SIDES}
        pairs = list(zip(values["parent"], values["change"]))
        lower = sum(c < p for p, c in pairs)
        stats = {side: side_stats(values[side]) for side in SIDES}
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[metric] = {**stats,
                       "change_lower_in": f"{lower} of {len(pairs)}",
                       "ratio": side_stats([c / p for p, c in pairs]),
                       "gain_holds": 10 * lower >= 9 * len(pairs)
                       and stats["parent"]["median"] - stats["change"]["median"] > parent_iqr,
                       "regression": regression(values["parent"], values["change"], bounds[metric])}
    out["operations"] = {side: {"attempted": sum(r["result"]["attempted"] for r in runs[side]),
                                "failed": sum(r["result"]["failed"] for r in runs[side]),
                                "all_correct": all(r["result"]["correct"] for r in runs[side])}
                         for side in SIDES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent revision")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the changed revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--host", default=f"{os.cpu_count()}-core {platform.system()} host, "
                                      "BLAS on one thread (set by perfbench)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "host": args.host,
        "order": f"pairs alternate which side runs first, the parent first on seed {args.seeds[0]}",
        "seeds": args.seeds,
        "revisions": {side: revision(checkouts[side]) for side in SIDES},
        "runs": {side: [] for side in SIDES},
    }
    for k, seed in enumerate(args.seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = run_bench(checkouts[side], args.workload, seed)
            record["runs"][side].append({"seed": seed, "result": result})
            wall = result["metrics"]["wall_s"]["value"]
            print(f"seed {seed} {side}: wall_s {wall:.4f} correct {result['correct']} "
                  f"failed {result['failed']}", flush=True)
        record["summary"] = summary(record["runs"])
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
