"""One workload process: set up, run rounds of ``phaselab run``, report.

Usage (started by run.py, one fresh process per measurement):

    python3 perfbench/worker.py --workload W --seed N --out DIR
        [--seconds S] [--setup-only] [--trace]

The program is imported from ``src/`` of the checkout that holds this file.

Set-up is the imports, writing the seeded configs and one warm-up pass over
small configs of the same experiments.  A round runs every config of the
workload once through ``phaselab.cli.main(["run", ...])``; its wall time
runs from the first experiment call to the last written report.  Rounds
repeat until ``--seconds`` have passed since the first one started.  With
``--trace`` one traced round follows the untraced ones.
The result goes to ``DIR/worker.json``; the outputs of round r go to
``DIR/round<r>/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_round(cli, config_paths: list[Path], out_dir: Path, tracer=None) -> dict:
    """Run every config once; each run is one operation."""
    statuses = []
    t0, c0 = time.perf_counter(), time.process_time()
    for i, path in enumerate(config_paths):
        if tracer is not None:
            tracer.op = i
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(["run", str(path), "--out", str(out_dir)])
            statuses.append({"exit": rc})
        except SystemExit as exc:  # argparse rejects the command line
            statuses.append({"exit": exc.code if isinstance(exc.code, int) else 2})
        except Exception as exc:  # an operation that raises counts as failed
            statuses.append({"exit": None, "error": f"{type(exc).__name__}: {exc}"})
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "ops": statuses,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    root = Path(__file__).resolve().parents[1]
    out = Path(args.out)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(root / "src"))
    from phaselab import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"phaselab imported from {cli.__file__}, not from {root / 'src'}")
    import workloads

    config_paths = []
    for i, cfg in enumerate(workloads.configs(args.workload, args.seed)):
        path = out / f"config{i}_{cfg['experiment']}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        config_paths.append(path)
    warm_paths = []
    for i, cfg in enumerate(workloads.warmup_configs(args.workload)):
        path = out / f"warmup{i}_{cfg['experiment']}.json"
        path.write_text(json.dumps(cfg) + "\n")
        warm_paths.append(path)
    run_round(cli, warm_paths, out / "warmup")
    result = {"setup_s": time.perf_counter() - T_START, "rounds": []}

    if not args.setup_only:
        rounds = result["rounds"]
        t_first = time.perf_counter()
        while not rounds or time.perf_counter() - t_first < args.seconds:
            rounds.append(run_round(cli, config_paths, out / f"round{len(rounds)}"))
        if args.trace:
            from tracer import Tracer, layer_metrics

            untraced_wall = statistics.median(r["wall_s"] for r in rounds)
            tracer = Tracer()
            tracer.install()
            traced = run_round(cli, config_paths, out / f"round{len(rounds)}", tracer)
            tracer.uninstall()
            rounds.append(traced)
            tracer.write(out / "trace_spans.csv")
            result["layers"] = layer_metrics(
                tracer.summary(), tracer.work, traced["wall_s"], untraced_wall,
                len(tracer.spans))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "worker.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
