"""Command-line entry point: run experiments, pair comparisons, check configs."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import ExperimentConfig, compare_sfw_ro, run_experiment, resolve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN_FAILURES = 2


def _load_config(path: str, args) -> ExperimentConfig:
    raw = json.loads(Path(path).read_text())
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.reps is not None:
        cfg.repetitions = args.reps
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _resolve_for_some_command(cfg: ExperimentConfig):
    """The config resolved for run, which implies compare (its adaptive variant reads
    the fewest fields), or else for compare; run's error when neither resolves."""
    try:
        return resolve(cfg), "run and compare"
    except ValueError as run_error:
        try:
            return resolve(cfg, "adaptive"), f"compare only (run: {run_error})"
        except ValueError:
            raise run_error from None


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override base_seed")
    parser.add_argument("--reps", type=int, default=None, help="override repetitions")
    parser.add_argument("--out", default=None, help="override the output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="safefw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="run the configured variant with Monte-Carlo repetition"))
    _add_common(sub.add_parser("compare", help="paired adaptive-vs-baseline comparison"))
    _add_common(sub.add_parser("validate-config", help="validate a config without running"))
    args = parser.parse_args(argv)

    # A failed seed is recorded by the run; this catches configs that do not resolve, or that ask for
    # arrays too large to allocate, and unusable outputs.
    try:
        cfg = _load_config(args.config, args)
        if args.command == "validate-config":
            resolved, commands = _resolve_for_some_command(cfg)
        elif args.command == "run":
            summary = run_experiment(cfg)
        else:
            report = compare_sfw_ro(cfg)
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError and json.JSONDecodeError are ValueErrors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate-config":
        print(f"config ok for {commands}: variant={cfg.variant}, d={resolved.polytope.d}, "
              f"m={resolved.polytope.m}, phi_delta={resolved.safety.phi_delta:.6g}, "
              f"cn={resolved.safety.cn:.6g}")
        return EXIT_OK

    if args.command == "run":
        final = summary.mean_curve[-1] if summary.mean_curve else float("nan")
        violation_rate, mean_n = (float("nan") if v is None else v for v in (summary.violation_rate, summary.mean_n_total))
        print(f"runs={len(summary.reps)} failed_fraction={summary.failed_fraction:.3f} "
              f"violation_rate={violation_rate:.3f} mean_N={mean_n:.1f} "
              f"mean_final_normalized={final:.6g}")
        failed_fraction = summary.failed_fraction
    else:
        print(f"pairs={len(report.seeds)} sfw_wins={report.sfw_wins} "
              f"fraction_sfw_better={report.fraction_sfw_better:.3f}")
        failed_fraction = sum(err is not None for err in report.errors) / len(report.seeds)
    return EXIT_RUN_FAILURES if failed_fraction > 0.1 else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
