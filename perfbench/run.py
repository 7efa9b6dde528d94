"""Benchmark entry point: run one workload of phaselab and check its outputs.

    python3 perfbench/run.py --workload {pathint,oracle,landau,battery} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  Each measurement
runs in a fresh worker process (perfbench/worker.py) that sees only the
configs generated from the seed.  After the worker has ended, every output
it wrote is checked (perfbench/checks.py); the checks are not timed.

``--trace 0`` prints the end-to-end metrics: set-up is measured in five
fresh processes and reported as their median, wall and CPU time as the
median over rounds.  ``--trace 1`` runs the untraced rounds, then one
traced round, and prints the per-layer metrics of the traced round.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.

An operation is one ``phaselab run`` of one config.  It fails when it
raises, exits with status 2, or its outputs fail a check; the program's own
``fail`` rows (exit status 1) do not count, since three of them are red by
design.  Outputs and the span file go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0
SETUP_PROCESSES = 5
# One BLAS thread: wall_s then measures the program's own algorithms, and
# cpu_s above wall_s shows parallelism the program adds itself.  With the
# OpenBLAS default (one thread per core) the idle worker spins on the small
# matrices of the battery, doubling cpu_s and tripling the round-to-round
# spread on a shared 2-core host.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker(args: argparse.Namespace, out: Path, deadline: float, *flags: str) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--seconds", str(args.seconds), *flags]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, **WORKER_ENV},
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}:\n{proc.stderr}")
    return json.loads((out / "worker.json").read_text())


def operations(configs: list[dict], result: dict, out: Path, check) -> tuple[int, int, bool, list[str]]:
    """Attempted and failed operations over all rounds, and whether every
    output that was written is correct.  Round 0 is checked in full; a later
    round of the same configs must write the same rows."""
    attempted = failed = 0
    correct = True
    messages: list[str] = []
    verdict0: list[bool] = []
    for r, rnd in enumerate(result["rounds"]):
        rdir = out / f"round{r}"
        for i, (cfg, status) in enumerate(zip(configs, rnd["ops"])):
            attempted += 1
            exp = cfg["experiment"]
            ok = status["exit"] in (0, 1)
            if not ok:
                messages.append(f"round {r} {exp}: {status.get('error') or 'exit status ' + str(status['exit'])}")
            elif r == 0:
                fails = check(cfg, rdir)
                messages += [f"round 0 {f}" for f in fails]
                ok = not fails
                correct &= ok
            else:
                _, first = checks.output_paths(out / "round0", exp)
                _, this = checks.output_paths(rdir, exp)
                if first.exists() and this.exists():
                    fails = checks.same_rows(checks.read_rows(first), checks.read_rows(this))
                else:
                    fails = ["CSV not written"]
                messages += [f"round {r} {exp}: {f}" for f in fails]
                ok = not fails and verdict0[i]
                correct &= ok
            if r == 0:
                verdict0.append(ok)
            failed += not ok
    return attempted, failed, correct, messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "phaselab" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'phaselab'}", file=sys.stderr)
        return 2
    configs = workloads.configs(args.workload, args.seed)
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)

    try:
        if args.trace:
            result = worker(args, out / "main", deadline, "--trace")
            setups = [result["setup_s"]]
        else:
            setups = [worker(args, out / f"setup{i}", deadline, "--setup-only")["setup_s"]
                      for i in range(SETUP_PROCESSES - 1)]
            result = worker(args, out / "main", deadline)
            setups.append(result["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    sys.path.insert(0, str(ROOT / "src"))
    import phaselab.bridge  # noqa: F401  (the checks reach the layers through the package)
    import phaselab.cones  # noqa: F401
    import phaselab.landau  # noqa: F401

    attempted, failed, correct, messages = operations(
        configs, result, out / "main", checks.Checker(phaselab))
    for msg in messages:
        print(f"check: {msg}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    else:
        rounds = result["rounds"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    print(f"workload {args.workload} seed {args.seed}: {len(result['rounds'])} rounds, "
          f"{attempted} operations, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
