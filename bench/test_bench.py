"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TRACED_MODULES = sorted({mod for mod, _, _, _ in tracing.TRACED})


def _modules():
    return {name: importlib.import_module(name) for name in TRACED_MODULES}


def _targets(modules):
    for mod_name, owner_name, fn_name, _ in tracing.TRACED:
        owner = modules[mod_name] if owner_name is None else getattr(modules[mod_name], owner_name)
        yield owner, fn_name


def test_wrappers_leave_originals_in_place(tmp_path):
    modules = _modules()
    originals = [(owner, name, owner.__dict__[name]) for owner, name in _targets(modules)]
    harness = modules["safefw.harness"]
    cfg = harness.ExperimentConfig(problem={"type": "box", "d": 2}, sigma=0.01, repetitions=1)
    tracer = tracing.Tracer()
    probe = bench_run.SeedProbe(harness)
    probe.install()
    tracer.install(modules)
    try:
        harness.compare_sfw_ro(cfg, str(tmp_path))
    finally:
        tracer.restore()
        probe.restore()
    for owner, name, original in originals:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} was not restored"
    assert len(probe.runs) == 2
    assert tracer.counts["oracle.calls"] > 0 and tracer.counts["lp.solves"] > 0
    assert tracer.counts["ro.linmins"] == cfg.T
    spans = tracer.arrays()
    assert len(spans) == tracer.span_count() > 0
    assert set(spans["seed"].tolist()) == {0}


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert np.allclose(tracing.self_times(starts, ends, parents), [3.0, 2.0, 1.0, 4.0])


def test_tracer_self_time_excludes_children():
    def inner():
        return 1

    def outer():
        return holder.inner() + 1

    holder = type("Holder", (), {})
    holder.inner = staticmethod(inner)
    tracer = tracing.Tracer()
    wrapped_inner = tracer._wrap(inner, 0)
    holder.inner = staticmethod(wrapped_inner)
    tracer._wrap(outer, 1)()
    spans = tracer.arrays()
    assert spans["parent"].tolist() == [-1, 0]
    selfs = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    assert selfs[1] == dur[1]
    assert selfs[0] == pytest.approx(dur[0] - dur[1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_perturbed_fingerprint_is_flagged(workload):
    refs = workloads.load_references()[workload]
    assert {"0", "1"} <= set(refs), "references for the default and the held-out seed"
    rows = refs["0"]
    assert workloads.mismatched_seeds(rows, rows) == []
    seed = rows[0][0]
    gap_col = 4
    nudged = [list(r) for r in rows]
    nudged[0][gap_col] += 1e-12
    assert workloads.mismatched_seeds(nudged, rows) == []
    for col, change in ((gap_col, lambda v: v + 1e-8), (1, lambda v: v + 1), (2, lambda v: v + 1), (3, lambda v: "failed")):
        perturbed = [list(r) for r in rows]
        perturbed[0][col] = change(perturbed[0][col])
        assert workloads.mismatched_seeds(perturbed, rows) == [seed]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    produced = tracing.layer_metrics(tracing.Tracer(), 1.0, 1.0)
    assert set(per_layer) == set(produced)
    assert set(end_to_end) == set(bench_run.END_TO_END)
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME_RE.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
