"""Batch command-line front end: run one experiment per invocation from a
JSON config, write a JSON report plus a CSV of measurements.

Exit status: 0 all assertive checks passed, 1 a numerical check failed,
2 the config or --out failed validation (no output files are written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import EXPERIMENTS, ConfigError, RunReport, run_experiment


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def write_outputs(report: RunReport, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    base = report.experiment.replace("-", "_")
    json_path = out_dir / f"{base}_report.json"
    csv_path = out_dir / f"{base}_measurements.csv"
    with open(json_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    lines = ["experiment,check,value,threshold,comparator,status"]
    for c in report.checks:
        status = "report" if c.passed is None else ("pass" if c.passed else "fail")
        lines.append(
            f"{report.experiment},{c.name},{_fmt(c.value)},{_fmt(c.threshold)},{c.comparator},{status}"
        )
    csv_path.write_text("\n".join(lines) + "\n")
    return json_path, csv_path


def cmd_list(args) -> int:
    catalog = [
        {
            "experiment": tag,
            "topic": d.topic,
            "required_parameters": list(d.required),
            "default_parameters": d.defaults,
        }
        for tag, d in EXPERIMENTS.items()
    ]
    if args.json:
        json.dump(catalog, sys.stdout, indent=2)
        print()
    else:
        for entry in catalog:
            print(f"{entry['experiment']}: {entry['topic']}")
            print(f"  required: {', '.join(entry['required_parameters']) or '(none)'}")
            defaults = ", ".join(f"{k}={v}" for k, v in entry["default_parameters"].items())
            print(f"  defaults: {defaults}")
    return 0


def cmd_run(args) -> int:
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        print(f"error: --out {out}: {existing} is not a directory", file=sys.stderr)
        return 2
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        # ValueError: a JSONDecodeError, or an integer literal past
        # Python's int digit limit
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        if args.seed_override is not None:
            if not isinstance(config, dict) or not isinstance(config.get("parameters", {}), dict):
                raise ConfigError("config and its parameters must be JSON objects")
            config.setdefault("parameters", {})["seed"] = args.seed_override
        report = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    json_path, csv_path = write_outputs(report, out)
    failed = [c for c in report.checks if c.passed is False]
    for c in report.checks:
        status = "report" if c.passed is None else ("PASS" if c.passed else "FAIL")
        thr = "" if c.threshold is None else f" {c.comparator} {_fmt(c.threshold)}"
        print(f"[{status}] {c.name}: {_fmt(c.value)}{thr}")
    print(f"report: {json_path}")
    print(f"measurements: {csv_path}")
    if failed:
        print(f"FAILED checks: {', '.join(c.name for c in failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="batch experiment runner for the phase-space laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiment tags and parameters")
    p_list.add_argument("--json", action="store_true", help="machine-readable catalog")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_run.add_argument("--seed-override", type=int, default=None, help="replace the config seed")
    p_run.set_defaults(func=cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
