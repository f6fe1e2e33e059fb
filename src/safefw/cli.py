"""Command-line entry point: run experiments, pair comparisons, check configs."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import ConfigError, ExperimentConfig, compare_sfw_ro, run_experiment, resolve

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

    try:
        cfg = _load_config(args.config, args)
        resolved = resolve(cfg)
        if args.command != "validate-config":
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate-config":
        print(f"config ok: variant={cfg.variant}, d={resolved.polytope.d}, "
              f"m={resolved.polytope.m}, phi_delta={resolved.safety.phi_delta:.6g}, "
              f"cn={resolved.safety.cn:.6g}")
        return EXIT_OK

    if args.command == "run":
        summary = run_experiment(cfg)
        final = summary.mean_curve[-1] if summary.mean_curve else float("nan")
        print(f"runs={len(summary.reps)} failed_fraction={summary.failed_fraction:.3f} "
              f"violation_rate={summary.violation_rate:.3f} mean_N={summary.mean_n_total:.1f} "
              f"mean_final_normalized={final:.6g}")
        if summary.failed_fraction > 0.1:
            return EXIT_RUN_FAILURES
        return EXIT_OK

    report = compare_sfw_ro(cfg)
    print(f"pairs={len(report.seeds)} sfw_wins={report.sfw_wins} "
          f"fraction_sfw_better={report.fraction_sfw_better:.3f}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
