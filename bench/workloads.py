"""The benchmark's workloads, the seed streams they draw from, and the
behaviour fingerprint that checks each seed's outputs.

Every workload is a box problem with T = 15 and delta = 0.1, run through the
public `safefw.harness` API (`compare_sfw_ro` or `run_experiment`), the same
calls `safefw compare` and `safefw run` make. A run executes rounds: round k
is one API call on `batch` seeds starting at `seed * SEED_STRIDE + k * batch`.
The first `sample_rounds` rounds form the run's fixed sample, whose counts and
fingerprints depend only on the seed; later rounds only add timing samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

SEED_STRIDE = 1_000_000
GAP_TOL = 1e-9
REFERENCE_FILE = Path(__file__).with_name("fingerprints.json")


@dataclass(frozen=True)
class Workload:
    name: str
    api: str  # "compare" -> compare_sfw_ro, "run" -> run_experiment
    config: dict
    batch: int  # seeds (pairs on compare) per API call
    sample_rounds: int  # rounds in the fixed sample

    def base_seed(self, seed: int, round_index: int) -> int:
        return seed * SEED_STRIDE + round_index * self.batch

    def config_dict(self, seed: int, round_index: int) -> dict:
        return dict(self.config, repetitions=self.batch, base_seed=self.base_seed(seed, round_index))


_COMMON = {"omega0": 0.01, "delta": 0.1, "T": 15, "epsilon": 1e-6}

# Sizes: a round takes a few seconds on a 2-CPU VM, and the fixed sample is
# 20 pairs, 4 seeds and 3 seeds. The adaptive loop's measurement count is
# heavy-tailed (at d=2, sigma=0.1 about 1 seed in 80 needs over 300k
# measurements, against a median near 6k), so the adaptive workloads set a
# per-seed budget that keeps every run within its time limit; a seed that
# reaches it ends with status "budget-exhausted".
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-d2",
            api="compare",
            config=dict(_COMMON, problem={"type": "box", "d": 2}, sigma=0.1, variant="adaptive", max_total_measurements=40_000),
            batch=4,
            sample_rounds=5,
        ),
        Workload(
            name="adaptive-d20",
            api="run",
            config=dict(_COMMON, problem={"type": "box", "d": 20}, sigma=0.01, variant="adaptive", max_total_measurements=150_000),
            batch=1,
            sample_rounds=4,
        ),
        Workload(
            name="prescribed-bulk",
            api="run",
            config=dict(_COMMON, problem={"type": "box", "d": 2}, sigma=0.01, variant="prescribed", cn="auto"),
            batch=1,
            sample_rounds=3,
        ),
    )
}


@dataclass(frozen=True)
class SeedRun:
    """What one `run_single` call returned, read from public fields only."""

    seed: int
    variant: str
    wall_s: float
    meas: int
    extras: int
    status: str
    final_gap: float
    iterate_violations: int


def fingerprint_rows(workload: Workload, report, runs: list[SeedRun]) -> list[list]:
    """Per-seed behaviour fingerprint of one round.

    run: [seed, measurements, extra batches, status, final normalized gap].
    compare adds the baseline's budget and final normalized gap.
    """
    by_key = {(r.seed, r.variant): r for r in runs}
    rows = []
    if workload.api == "compare":
        for seed, sfw_final, ro_final, budget in zip(report.seeds, report.sfw_final, report.ro_final, report.budgets):
            sfw = by_key[(seed, "adaptive")]
            rows.append([seed, sfw.meas, sfw.extras, sfw.status, sfw_final, budget, ro_final])
    else:
        for rep in report.reps:
            run = by_key.get((rep.seed, workload.config["variant"]))
            final = rep.normalized[-1] if rep.normalized else math.nan
            rows.append([rep.seed, rep.n_total, run.extras if run else -1, rep.status, final])
    return rows


def _row_matches(row: list, ref: list) -> bool:
    if len(row) != len(ref):
        return False
    for a, b in zip(row, ref):
        if isinstance(b, float) or isinstance(a, float):
            if not abs(float(a) - float(b)) <= GAP_TOL:
                return False
        elif a != b:
            return False
    return True


def mismatched_seeds(rows: list[list], reference: list[list]) -> list[int]:
    """Seeds whose fingerprint row differs from the reference row for that seed.

    Gaps compare within GAP_TOL; counts, statuses and budgets compare exactly.
    Seeds absent from the reference are not judged here.
    """
    ref_by_seed = {ref[0]: ref for ref in reference}
    return [row[0] for row in rows if row[0] in ref_by_seed and not _row_matches(row, ref_by_seed[row[0]])]


def load_references() -> dict:
    """{workload: {str(seed): [fingerprint rows of the fixed sample]}}"""
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def save_reference(workload: str, seed: int, rows: list[list]) -> None:
    refs = load_references()
    refs.setdefault(workload, {})[str(seed)] = rows
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
