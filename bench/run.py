"""safefw benchmark: one workload per fresh process, end-to-end or traced.

    python3 bench/run.py --workload compare-d2 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, one child process each

`--trace 0` measures set-up in fresh child processes, then runs rounds of the
workload through the public harness API until `--seconds` have passed (never
fewer than the fixed sample) and reports the end-to-end metrics. `--trace 1`
runs only the fixed sample, each round once untraced and once under the
outside-in tracer, and reports the per-layer metrics. Every seed's outputs are
checked: exported files against the returned results, the behaviour
fingerprint against `fingerprints.json` where that seed has a reference, and
traced against untraced execution. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

The program is imported from `src/` of the checkout this file sits in; the
benchmark writes only to `.bench_out/` there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 9  # fresh processes per run
SETUP_BEFORE = 3  # of them before the first round
SETUP_REPEATS = 5  # timed re-imports per process
END_TO_END = ("setup_s", "meas_per_s", "safe_frac")
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, SeedRun, fingerprint_rows, load_references, mismatched_seeds, save_reference  # noqa: E402

# Runs in a fresh interpreter: argv = config JSON, src dir, bench dir, repeats.
# numpy, the one runtime dependency, is imported first and not timed: loading
# its shared libraries is no work of this program, and on a shared 2-vCPU VM
# it drifted by 40 % between runs, more than any speed probe could follow.
# Each repeat drops safefw from sys.modules and times a full re-import plus
# config and resolve, scaled by the speed loop measured around it.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[3])
from speed import NOMINAL_RATE, loop_rate
import numpy
sys.path.insert(0, sys.argv[2])
raw = json.loads(sys.argv[1])
samples = []
for _ in range(int(sys.argv[4])):
    for name in [m for m in sys.modules if m == "safefw" or m.startswith("safefw.")]:
        del sys.modules[name]
    before = loop_rate()
    t0 = time.perf_counter()
    import safefw
    from safefw.harness import ExperimentConfig, resolve
    resolve(ExperimentConfig.from_dict(raw))
    elapsed = time.perf_counter() - t0
    samples.append([elapsed, elapsed * (before + loop_rate()) / 2 / NOMINAL_RATE])
print(json.dumps(samples))
"""


class SeedProbe:
    """Times each `harness.run_single` call and keeps what it returned.

    This one wrapper stays on in untraced runs: it costs two clock reads per
    seed run, against runs of 30 ms and more.
    """

    def __init__(self, harness):
        self.harness = harness
        self.runs: list[SeedRun] = []
        self._original = None

    def install(self) -> None:
        original = self._original = self.harness.run_single
        runs = self.runs

        def probed(res, seed, variant=None, ro_budget=None):
            t0 = perf_counter()
            rec, rep = original(res, seed, variant, ro_budget)
            wall = perf_counter() - t0
            runs.append(
                SeedRun(
                    seed=int(seed),
                    variant=variant or res.cfg.variant,
                    wall_s=wall,
                    meas=int(rec.total_measurements),
                    extras=int(sum(rec.extra_batches)),
                    status=rec.status,
                    final_gap=rep.normalized[-1] if rep.normalized else math.nan,
                    iterate_violations=int(rep.iterate_violations),
                )
            )
            return rec, rep

        self.harness.run_single = probed

    def restore(self) -> None:
        if self._original is not None:
            self.harness.run_single = self._original
            self._original = None


@dataclass
class Round:
    index: int
    seeds: list[int]
    wall_s: float
    runs: list[SeedRun]
    rows: list[list]
    failed_seeds: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    report: object = None


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and a == b


def check_outputs(wl, harness, report, runs: list[SeedRun], out_dir: Path) -> dict[int, str]:
    """Check the exported files and returned results of one round; {seed: problem}."""
    bad: dict[int, str] = {}
    by_key = {(r.seed, r.variant): r for r in runs}
    if wl.api == "compare":
        d = wl.config["problem"]["d"]
        saved = json.loads((out_dir / "comparison.json").read_text())
        for key in ("seeds", "sfw_final", "ro_final", "budgets"):
            if saved[key] != getattr(report, key):
                bad.update(dict.fromkeys(report.seeds, f"comparison.json {key} differs from the report"))
        for i, seed in enumerate(report.seeds):
            sfw, ro = by_key.get((seed, "adaptive")), by_key.get((seed, "ro"))
            if sfw is None or ro is None:
                bad[seed] = "missing run"
                continue
            sfw_csv = harness.load_trajectory_csv(out_dir / f"sfw_rep{i:03d}.csv")
            ro_csv = harness.load_trajectory_csv(out_dir / f"ro_rep{i:03d}.csv")
            if report.budgets[i] != max(sfw.meas, 2 * (d + 1)) or ro.meas < report.budgets[i]:
                bad[seed] = "baseline budget does not match the adaptive total"
            elif not (_close(sfw_csv["normalized_gap"][-1], report.sfw_final[i]) and sfw_csv["N_t"][-1] == sfw.meas):
                bad[seed] = "adaptive CSV differs from the report"
            elif not _close(ro_csv["normalized_gap"][-1], report.ro_final[i]):
                bad[seed] = "baseline CSV differs from the report"
            elif sfw.status == "failed" or ro.status == "failed":
                bad[seed] = "failed status"
        return bad
    saved = json.loads((out_dir / "summary.json").read_text())
    for i, rep in enumerate(report.reps):
        run = by_key.get((rep.seed, wl.config["variant"]))
        if rep.status == "failed" or run is None:
            bad[rep.seed] = f"failed: {rep.error}"
            continue
        csv = harness.load_trajectory_csv(out_dir / f"trajectory_rep{i:03d}.csv")
        srep = saved["reps"][i]
        if run.meas != rep.n_total or srep["n_total"] != rep.n_total or srep["seed"] != rep.seed:
            bad[rep.seed] = "summary.json differs from the results"
        elif not (_close(csv["normalized_gap"][-1], rep.normalized[-1]) and csv["N_t"][-1] == rep.n_total):
            bad[rep.seed] = "trajectory CSV differs from the results"
    return bad


def run_round(wl, seed: int, k: int, harness, probe: SeedProbe, work_dir: Path, tag: str, sampler=None) -> Round:
    """One API call on the round's seeds, timed, then checked.

    Time the speed sampler spends inside the call is not counted.
    """
    raw = wl.config_dict(seed, k)
    seeds = [raw["base_seed"] + i for i in range(wl.batch)]
    cfg = harness.ExperimentConfig.from_dict(raw)
    out_dir = work_dir / f"round{k:04d}-{tag}"
    call = harness.compare_sfw_ro if wl.api == "compare" else harness.run_experiment
    probe.runs.clear()
    busy = sampler.busy_s if sampler else 0.0
    t0 = perf_counter()
    try:
        report = call(cfg, str(out_dir))
    except Exception as exc:  # a failing round fails its seeds; the run goes on
        return Round(k, seeds, math.nan, [], [], set(seeds), [f"round {k}: {type(exc).__name__}: {exc}"])
    wall = perf_counter() - t0 - ((sampler.busy_s if sampler else 0.0) - busy)
    runs = list(probe.runs)
    rnd = Round(k, seeds, wall, runs, fingerprint_rows(wl, report, runs), report=report)
    try:
        bad = check_outputs(wl, harness, report, runs, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        bad = dict.fromkeys(seeds, f"unreadable outputs: {type(exc).__name__}: {exc}")
    for s, why in bad.items():
        rnd.failed_seeds.add(s)
        rnd.problems.append(f"seed {s}: {why}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return rnd


def judge_sample(wl, seed: int, rounds: list[Round], record: bool) -> None:
    """Compare the fixed sample's fingerprints with the stored reference, or store them."""
    sample = rounds[: wl.sample_rounds]
    rows = [row for r in sample for row in r.rows]
    if record:
        if any(r.failed_seeds for r in sample):
            raise SystemExit("refusing to record a reference from a sample with failed seeds")
        save_reference(wl.name, seed, rows)
        return
    reference = load_references().get(wl.name, {}).get(str(seed))
    if reference is None:
        return
    bad = set(mismatched_seeds(rows, reference))
    if len(rows) != len(reference):
        bad.update(row[0] for row in rows)
    for r in sample:
        for s in bad.intersection(r.seeds):
            r.failed_seeds.add(s)
            r.problems.append(f"seed {s}: fingerprint differs from the reference")


def measure_setup(wl, seed: int) -> list[tuple[float, float]]:
    """(raw seconds, nominal seconds) of each set-up repeat in one fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(wl.config_dict(seed, 0)), str(SRC), str(BENCH_DIR),
         str(SETUP_REPEATS)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        check=True,
    )
    return [tuple(pair) for pair in json.loads(done.stdout.strip().splitlines()[-1])]


def environment() -> dict:
    import numpy as np

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                env["blas_threads"] = int(getter())
                return env
    return env


def _percentile_with_tail(values: list[float], tail: int = 10) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least `tail` samples above it."""
    n = len(values)
    pct = math.floor(100 * (n - tail) / n)
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def seed_seconds(rounds: list[Round]) -> list[float]:
    """Wall time per seed (per adaptive + baseline pair on compare)."""
    per_seed: dict[int, float] = {}
    for r in rounds:
        for run in r.runs:
            per_seed[run.seed] = per_seed.get(run.seed, 0.0) + run.wall_s
    return list(per_seed.values())


SAMPLE_UNITS = {"seeds": "count", "meas_total": "count", "final_gap": "ratio", "violation_rate": "ratio",
                "failed_frac": "ratio", "sfw_win_frac": "ratio"}


def sample_quality(wl, rounds: list[Round]) -> dict[str, float]:
    """Fingerprint-bound outcomes of the fixed sample (exactly repeatable)."""
    sample = rounds[: wl.sample_rounds]
    main = wl.config["variant"]
    runs = [run for r in sample for run in r.runs if run.variant == main]
    seeds = [s for r in sample for s in r.seeds]
    failed = sum(len(r.failed_seeds) for r in sample)
    out = {
        "seeds": len(seeds),
        "meas_total": statistics.fmean(run.meas for run in runs) if runs else math.nan,
        "final_gap": statistics.fmean(run.final_gap for run in runs) if runs else math.nan,
        "violation_rate": (sum(run.iterate_violations > 0 for run in runs) / len(runs)) if runs else math.nan,
        "failed_frac": failed / len(seeds),
    }
    if wl.api == "compare":
        pairs = [(a, b) for r in sample if r.report is not None for a, b in zip(r.report.sfw_final, r.report.ro_final)]
        out["sfw_win_frac"] = sum(a <= b for a, b in pairs) / len(pairs) if pairs else math.nan
    return out


def timed_run(wl, seed: int, seconds: float, record: bool) -> tuple[dict, list[Round], dict]:
    # Set-up is sampled before the rounds and between them, so that its median
    # spans the run's changes in machine speed like the throughput does.
    setup = [measure_setup(wl, seed) for _ in range(SETUP_BEFORE)]
    import safefw.harness as harness

    probe = SeedProbe(harness)
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_ROOT))
    rounds: list[Round] = []
    probe.install()
    try:
        with SpeedSampler() as sampler:
            begin = perf_counter()
            while len(rounds) < wl.sample_rounds or perf_counter() - begin < seconds:
                rounds.append(run_round(wl, seed, len(rounds), harness, probe, work_dir, "plain", sampler))
                if len(setup) < SETUP_SAMPLES:
                    with sampler.paused():
                        setup.append(measure_setup(wl, seed))
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(wl, seed))
    finally:
        probe.restore()
        shutil.rmtree(work_dir, ignore_errors=True)
    judge_sample(wl, seed, rounds, record)
    timed = [r for r in rounds if r.runs]
    meas = sum(run.meas for r in timed for run in r.runs)
    raw_s = sum(r.wall_s for r in timed)
    quality = sample_quality(wl, rounds)
    setup_samples = [pair for child in setup for pair in child]
    metrics = {
        "setup_s": (statistics.median(nominal for _, nominal in setup_samples), "s"),
        "meas_per_s": (meas / (raw_s * sampler.scale()) if timed else math.nan, "1/s"),
        "safe_frac": (1.0 - quality["violation_rate"], "ratio"),
    }
    per_seed = seed_seconds(timed)
    info = {
        "setup_raw_s": statistics.median(raw for raw, _ in setup_samples),
        "setup_samples_s": setup,
        "meas_per_raw_s": meas / raw_s if timed else math.nan,
        "speed_scale": sampler.scale(),
        "speed_samples": len(sampler.rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(rounds),
        "seeds_timed": len(per_seed),
        "wall_s": raw_s,
        "rep_s_p50": statistics.median(per_seed) if per_seed else math.nan,
        "rep_s_tail": _percentile_with_tail(per_seed),
        "sample": quality,
    }
    return metrics, rounds, info


def traced_run(wl, seed: int, record: bool) -> tuple[dict, list[Round], dict]:
    import safefw.estimator
    import safefw.harness as harness
    import safefw.lp
    import safefw.oracle
    import safefw.ro
    import safefw.sfw
    from tracing import Tracer, layer_metrics

    modules = {m.__name__: m for m in (harness, safefw.sfw, safefw.ro, safefw.lp, safefw.oracle, safefw.estimator)}
    tracer = Tracer()
    probe = SeedProbe(harness)
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = OUT_ROOT / wl.name
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_ROOT))
    plain: list[Round] = []
    traced: list[Round] = []
    probe.install()
    try:
        for k in range(wl.sample_rounds):
            # alternate which pass goes first so drift in machine speed cancels
            for use_trace in (False, True) if k % 2 == 0 else (True, False):
                if use_trace:
                    tracer.install(modules)
                    try:
                        traced.append(run_round(wl, seed, k, harness, probe, work_dir, "traced"))
                    finally:
                        tracer.restore()
                else:
                    plain.append(run_round(wl, seed, k, harness, probe, work_dir, "plain"))
    finally:
        probe.restore()
        shutil.rmtree(work_dir, ignore_errors=True)
    for a, b in zip(plain, traced):
        if a.rows != b.rows:
            for s in a.seeds:
                b.failed_seeds.add(s)
            b.problems.append(f"round {b.index}: tracing changed the fingerprint")
        b.failed_seeds |= a.failed_seeds
        b.problems += a.problems
    judge_sample(wl, seed, traced, record)
    tracer.save(out_dir / "trace.npz")
    metrics = layer_metrics(tracer, sum(r.wall_s for r in traced), sum(r.wall_s for r in plain))
    info = {"untraced_wall_s": sum(r.wall_s for r in plain), "traced_wall_s": sum(r.wall_s for r in traced),
            "sample": sample_quality(wl, traced)}
    return metrics, traced, info


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    env = environment()
    if args.trace:
        metrics, rounds, info = traced_run(wl, args.seed, args.record)
    else:
        metrics, rounds, info = timed_run(wl, args.seed, args.seconds, args.record)
    attempted = sum(len(r.seeds) for r in rounds)
    failed = sum(len(r.failed_seeds) for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  config {wl.config}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>16.6g} {unit}")
    sample = info["sample"]
    print("  sample: " + "  ".join(f"{k}={v:.6g} {SAMPLE_UNITS[k]}" for k, v in sample.items()))
    if not args.trace:
        tail = info["rep_s_tail"]
        tail_text = f"  rep_s_p{tail[0]}={tail[1]:.4g} s" if tail else ""
        print(f"  timing: rounds={info['rounds']}  wall_s={info['wall_s']:.4g} s  "
              f"rep_s_p50={info['rep_s_p50']:.4g} s{tail_text}  (n={info['seeds_timed']} seeds)")
        print(f"  raw: setup_s={info['setup_raw_s']:.4g} s  meas_per_s={info['meas_per_raw_s']:.6g} 1/s  "
              f"speed_scale={info['speed_scale']:.4g} ({info['speed_samples']} samples)  "
              f"peak_rss_mb={info['peak_rss_mb']:.4g} MB")
    for p in problems[:20]:
        print(f"  PROBLEM {p}")

    out_dir = OUT_ROOT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    fingerprints = [row for r in rounds[: wl.sample_rounds] for row in r.rows]
    saved = {"args": vars(args), "env": env, "info": info, "problems": problems,
             "fingerprints": fingerprints, "result": result}
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(saved, indent=1, default=str))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own fresh process and collect the results."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S * 4)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--record", action="store_true", help="store the fixed sample's fingerprints as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "safefw" / "__init__.py").is_file():
        print(f"safefw sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
