"""Outside-in tracing: wrap public safefw functions from the benchmark's side.

Nothing under `src/` knows about this module. `Tracer.install()` replaces each
traced function on the module or class the program looks it up through, and
`Tracer.restore()` puts every original back, so an untraced run executes the
program's own function objects. A span is (name, start, end, parent, seed);
spans stay in memory, packed into numpy arrays, and are written once at the end.
Counters are read from arguments, return values and public attributes only.
"""

from __future__ import annotations

import functools
import itertools
import math
from time import perf_counter

import numpy as np

# (module, owner attribute or None, function name, layer). `fact2_check` and
# `cross_pattern` are imported by name into sfw and ro, so they are patched
# there; `lp.solve` is looked up through the lp module.
TRACED = (
    ("safefw.harness", None, "compare_sfw_ro", "harness"),
    ("safefw.harness", None, "run_experiment", "harness"),
    ("safefw.harness", None, "run_single", "harness"),
    ("safefw.harness", None, "write_trajectory_csv", "export"),
    ("safefw.harness", None, "write_summary_json", "export"),
    ("safefw.sfw", None, "run", "sfw"),
    ("safefw.sfw", None, "solve_dfs", "dfs"),
    ("safefw.sfw", None, "fact2_check", "safety"),
    ("safefw.sfw", None, "cross_pattern", "oracle"),
    ("safefw.ro", None, "ro_run", "ro"),
    ("safefw.ro", None, "soc_linmin", "ro"),
    ("safefw.ro", None, "fact2_check", "safety"),
    ("safefw.ro", None, "cross_pattern", "oracle"),
    ("safefw.lp", None, "solve", "lp"),
    ("safefw.oracle", "ConstraintOracle", "measure_repeated", "oracle"),
    ("safefw.estimator", "ConstraintEstimator", "absorb_repeated", "absorb"),
    ("safefw.estimator", "ConstraintEstimator", "block_quantities", "block"),
)

COUNTERS = (
    "oracle.calls",
    "oracle.meas",
    "estimator.absorbs",
    "estimator.block_calls",
    "safety.checks",
    "safety.certified",
    "lp.solves",
    "lp.nonoptimal",
    "sfw.iters",
    "sfw.extras",
    "sfw.dfs_fallbacks",
    "ro.linmins",
    "ro.cuts",
    "ro.cut_budget_hits",
)


def self_times(starts, ends, parents) -> np.ndarray:
    """Self time of every span: its duration minus its children's durations.

    `parents[i]` is the index of span i's parent in the same arrays, or -1.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


SPAN_DTYPE = np.dtype(
    [("id", np.int64), ("name", np.int16), ("start", np.float64), ("end", np.float64), ("parent", np.int64), ("seed", np.int64)]
)
FLUSH_SPANS = 1 << 16


class Tracer:
    """Span recorder and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        # closed spans as tuples in closing order, packed into arrays every
        # FLUSH_SPANS spans; span ids count in opening order
        self._unpacked: list[tuple] = []
        self._packed: list[np.ndarray] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._seed = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.oracles: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name_id: int, before=None, after=None):
        stack, spans, ids, seed = self._stack, self._unpacked, self._ids, self._seed
        pack = self._pack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name_id, t0, t1, parent, seed[0]))
                if len(spans) >= FLUSH_SPANS:
                    pack()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _pack(self) -> None:
        self._packed.append(np.array(self._unpacked, dtype=SPAN_DTYPE))
        self._unpacked.clear()

    def install(self, modules: dict) -> None:
        """Patch every TRACED function; `modules` maps module names to modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, owner_name, fn_name, layer in TRACED:
            owner = modules[mod_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[fn_name]
            key = (fn_name, layer)
            if key not in self._name_ids:
                self._name_ids[key] = len(self.names)
                self.names.append(fn_name)
                self.layers.append(layer)
            before = getattr(self, f"_before_{fn_name}", None)
            after = getattr(self, f"_after_{fn_name}", None)
            self._patches.append((owner, fn_name, original))
            setattr(owner, fn_name, self._wrap(original, self._name_ids[key], before, after))

    def restore(self) -> None:
        while self._patches:
            owner, fn_name, original = self._patches.pop()
            setattr(owner, fn_name, original)

    # -- counters from public surfaces -------------------------------------
    def _before_run_single(self, args, kwargs):
        self._seed[0] = int(kwargs["seed"] if "seed" in kwargs else args[1])

    def _after_measure_repeated(self, args, kwargs, out):
        oracle = args[0]
        count = kwargs["count"] if "count" in kwargs else args[2]
        self.counts["oracle.calls"] += 1
        self.counts["oracle.meas"] += int(count)
        self.oracles[id(oracle)] = oracle

    def _after_absorb_repeated(self, args, kwargs, out):
        self.counts["estimator.absorbs"] += 1

    def _after_block_quantities(self, args, kwargs, out):
        self.counts["estimator.block_calls"] += 1

    def _after_fact2_check(self, args, kwargs, out):
        self.counts["safety.checks"] += 1
        self.counts["safety.certified"] += int(bool(out.safe))

    def _after_solve(self, args, kwargs, out):
        self.counts["lp.solves"] += 1
        self.counts["lp.nonoptimal"] += int(out.status != "optimal")

    def _after_run(self, args, kwargs, rec):
        self.counts["sfw.iters"] += rec.steps()
        self.counts["sfw.extras"] += sum(rec.extra_batches)
        self.counts["sfw.dfs_fallbacks"] += sum(1 for s in rec.dfs_status if s.endswith("-fallback"))

    def _after_soc_linmin(self, args, kwargs, res):
        self.counts["ro.linmins"] += 1
        self.counts["ro.cuts"] += int(res.cuts)
        self.counts["ro.cut_budget_hits"] += int(bool(res.warning))

    # -- results ------------------------------------------------------------
    def arrays(self) -> np.ndarray:
        """All closed spans ordered by id, so `parent` indexes the same array."""
        if self._unpacked:
            self._pack()
        spans = np.concatenate(self._packed) if self._packed else np.empty(0, dtype=SPAN_DTYPE)
        return spans[np.argsort(spans["id"], kind="stable")]

    def span_count(self) -> int:
        return sum(len(p) for p in self._packed) + len(self._unpacked)

    def layer_seconds(self) -> dict[str, dict[str, float]]:
        """{"self": {layer: s}, "total": {layer: s}} over all closed spans."""
        spans = self.arrays()
        selfs = self_times(spans["start"], spans["end"], spans["parent"])
        dur = spans["end"] - spans["start"]
        out = {"self": {}, "total": {}}
        for name_id, layer in enumerate(self.layers):
            mask = spans["name"] == name_id
            out["self"][layer] = out["self"].get(layer, 0.0) + float(selfs[mask].sum())
            out["total"][layer] = out["total"].get(layer, 0.0) + float(dur[mask].sum())
        return out

    def out_of_reach(self) -> int:
        return sum(int(o.out_of_reach_events) for o in self.oracles.values())

    def save(self, path) -> None:
        np.savez(path, spans=self.arrays(), names=np.array(self.names), layers=np.array(self.layers))


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}."""
    secs = tracer.layer_seconds()
    self_s = secs["self"]
    c = tracer.counts
    oracle_s = self_s.get("oracle", 0.0)
    lp_s = self_s.get("lp", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "oracle.calls": (c["oracle.calls"], "count"),
        "oracle.meas": (c["oracle.meas"], "count"),
        "oracle.self_s": (oracle_s, "s"),
        "oracle.meas_per_s": (ratio(c["oracle.meas"], oracle_s), "1/s"),
        "oracle.out_of_reach": (tracer.out_of_reach(), "count"),
        "estimator.absorbs": (c["estimator.absorbs"], "count"),
        "estimator.absorb_s": (self_s.get("absorb", 0.0), "s"),
        "estimator.block_calls": (c["estimator.block_calls"], "count"),
        "estimator.block_s": (self_s.get("block", 0.0), "s"),
        "safety.checks": (c["safety.checks"], "count"),
        "safety.self_s": (self_s.get("safety", 0.0), "s"),
        "safety.certified_ratio": (ratio(c["safety.certified"], c["safety.checks"]), "ratio"),
        "lp.solves": (c["lp.solves"], "count"),
        "lp.self_s": (lp_s, "s"),
        "lp.ms_per_solve": (1e3 * ratio(lp_s, c["lp.solves"]), "ms"),
        "lp.nonoptimal": (c["lp.nonoptimal"], "count"),
        "sfw.iters": (c["sfw.iters"], "count"),
        "sfw.extras": (c["sfw.extras"], "count"),
        "sfw.dfs_fallbacks": (c["sfw.dfs_fallbacks"], "count"),
        "sfw.dfs_s": (self_s.get("dfs", 0.0), "s"),
        "sfw.self_s": (self_s.get("sfw", 0.0), "s"),
        "ro.linmins": (c["ro.linmins"], "count"),
        "ro.cuts": (c["ro.cuts"], "count"),
        "ro.cut_budget_hits": (c["ro.cut_budget_hits"], "count"),
        "ro.self_s": (self_s.get("ro", 0.0), "s"),
        "harness.self_s": (self_s.get("harness", 0.0), "s"),
        "harness.export_s": (secs["total"].get("export", 0.0), "s"),
        "trace.spans": (tracer.span_count(), "count"),
        "trace.overhead_frac": (ratio(traced_wall, untraced_wall) - 1.0 if untraced_wall else math.nan, "ratio"),
    }
