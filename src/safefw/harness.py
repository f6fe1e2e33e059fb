"""Experiment orchestration: JSON-configured Monte-Carlo runs, ground-truth
violation accounting, CSV/JSON export, and the paired method comparison.

Ground truth (the actual constraint matrix) is consulted only here: the
drivers see it exclusively through the measurement oracle.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ro as ro_mod
from . import sfw as sfw_mod
from .estimator import ConstraintEstimator, confidence_membership_arrays, spans
from .oracle import NOISE_KINDS, ConstraintOracle, NoiseModel, cross_pattern
from .problem import (
    FEAS_TOL,
    Objective,
    Polytope,
    box_geometry_constants,
    box_polytope,
    box_quadratic_lipschitz,
    geometry_constants,
    sweep,
)
from .safety import SafetyConfig, cn_lower_bound, make_safety_config, prescribed_count
from .sfw import ProblemSetup, SfwConfig, TrajectoryRecord

VARIANTS = ("prescribed", "adaptive", "ro", "fw-oracle")
# Largest box dimension a config may ask for: resolving d = 1000 takes about
# half a second and 90 MB, and time and memory grow as d^2 beyond it. A run
# costs far more; README gives the largest d measured to finish one.
MAX_BOX_D = 1000
# Largest iteration count T: RO at d = 2, sigma = 0.1 (2,000 measurements) took
# 3.6 s for 1,000 iterations, 10.2 s for 3,000 and 30.2 s for 10,000 on a
# 2-vCPU VM. The loops end with T, but a prescribed run's schedule grows as T^2.
MAX_T = 10_000
# Largest probe scale max(gamma0, 1) / min(omega0, 1). P inverts the normal
# matrix of the design rows [x, -1], whose condition grows as this scale
# squared. Against an exact (Fraction) inverse of the design after every
# absorb of adaptive d = 2 box runs at omega0 = sigma = 0.01, the relative
# error of z^T P z read at most 1.8e-9 at scale 1.4e4, 2.4e-7 at 2e5, 7.3e-7
# at 3e5, 1.5e-6 at 4.2e5 and 9.2e-6 at 1.4e6; so it stays below 1e-6 here.
MAX_PROBE_SCALE = 2e5
# Most values (measurements times constraints) a prescribed schedule may take
# over its T iterations, which ignore max_total_measurements. Drawing their
# noise is about 99% of a prescribed run: the benchmark's prescribed-bulk
# (d = 2 box, cn auto, 2.04e8 values per seed) draws about 38M values/s on a
# 2-vCPU VM, so the bound is about 26 s per repetition.
MAX_PRESCRIBED_VALUES = 1e9

CSV_COLUMNS = [
    "t",
    "f_gap",
    "normalized_gap",
    "ghat",
    "et_bound",
    "n_t",
    "N_t",
    "fact2_lhs",
    "min_margin",
    "safe_flag",
    "feasible_flag",
]


class ConfigError(ValueError):
    """Experiment configuration failed validation."""


@dataclass
class ExperimentConfig:
    problem: dict
    objective: dict = field(default_factory=dict)
    x0: list | None = None
    sigma: float = 0.01
    noise_kind: str = "gaussian"
    omega0: float = 0.01
    delta: float = 0.1
    T: int = 15
    epsilon: float = 1e-6
    cn: object = "auto"
    variant: str = "adaptive"
    max_total_measurements: int = 10_000_000
    repetitions: int = 20
    base_seed: int = 0
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict) or "problem" not in raw:
            raise ConfigError("config must be a JSON object with a 'problem' field")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class ResolvedExperiment:
    """The run inputs built from a config."""

    cfg: ExperimentConfig
    polytope: Polytope
    setup: ProblemSetup  # objective, x0 and geometry
    safety: SafetyConfig
    f_star: float
    h0: float  # f(x0) - f*, the scale of the normalized gaps
    beta_true: np.ndarray  # (d+1) x m stack of [a_i; b_i], diagnostics only


@dataclass
class RepResult:
    seed: int
    status: str
    normalized: list[float] = field(default_factory=list)
    iterate_violations: int = 0
    probe_violations: int = 0
    fact1_violations: int = 0
    n_total: int = 0
    wall_time: float = 0.0
    error: str | None = None


@dataclass
class RunSummary:
    config: dict
    seeds: list[int]
    reps: list[RepResult]
    mean_curve: list[float]
    std_curve: list[float]
    violation_rate: float | None  # None when no repetition completed
    mean_n_total: float | None
    failed_fraction: float


def _finite(value: int | float) -> bool:
    """Whether a number converts to a finite float (an integer past the float range overflows)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_types(cfg: ExperimentConfig) -> None:
    """Reject non-object sections, non-finite reals and non-integer counts (bools included)."""
    for name, section in (("problem", cfg.problem), ("objective", cfg.objective)):
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    reals = {"sigma": cfg.sigma, "omega0": cfg.omega0, "epsilon": cfg.epsilon, "delta": cfg.delta}
    ints = {"T": cfg.T, "repetitions": cfg.repetitions, "base_seed": cfg.base_seed,
            "max_total_measurements": cfg.max_total_measurements}
    if cfg.cn != "auto":
        reals["cn"] = cfg.cn
    if cfg.problem.get("type") == "box":
        ints["problem.d"] = cfg.problem.get("d", 0)
        reals["problem.half_width"] = cfg.problem.get("half_width", 1.0)
    for name, value in reals.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    for name, value in ints.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not _finite(value):
            raise ConfigError(f"{name} must be an integer within the float range, got {value!r}")
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {cfg.out_dir!r}")


def _reject_unknown(name: str, section: dict, allowed: set[str]) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")


def _vector(name: str, value, d: int) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out.shape != (d,) or not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} must be a list of {d} finite numbers, got {value!r}")
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf or nan, which the checks below reject
def resolve(cfg: ExperimentConfig, variant: str | None = None) -> ResolvedExperiment:
    """Validate every referenced field and build the immutable run inputs; of the
    variant-specific fields only those `variant` (default `cfg.variant`) reads."""
    variant = variant or cfg.variant
    _check_types(cfg)
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if cfg.base_seed < 0:
        raise ConfigError("base_seed must be >= 0")
    if cfg.T < 3:
        raise ConfigError("T must be >= 3")
    if cfg.T > MAX_T:
        raise ConfigError(f"T must be at most {MAX_T}, got {cfg.T}")
    if not cfg.epsilon > 0:
        raise ConfigError("epsilon must be positive")
    if not 0 < cfg.delta < 1:
        raise ConfigError("delta must lie in (0, 1)")
    if cfg.sigma < 0 or cfg.omega0 <= 0:
        raise ConfigError("need sigma >= 0 and omega0 > 0")
    for name, allowed in (("variant", VARIANTS), ("noise_kind", NOISE_KINDS)):
        if getattr(cfg, name) not in allowed:
            raise ConfigError(f"unknown {name} {getattr(cfg, name)!r}; expected one of {allowed}")

    ptype = cfg.problem.get("type")
    if ptype == "box":
        _reject_unknown("problem", cfg.problem, {"type", "d", "half_width"})
        d = cfg.problem.get("d", 0)
        half_width = float(cfg.problem.get("half_width", 1.0))
        if d < 1 or half_width <= 0:
            raise ConfigError("box problem needs d >= 1 and half_width > 0")
        if d > MAX_BOX_D:
            raise ConfigError(f"box problem d must be at most {MAX_BOX_D}, got {d}")
        polytope = box_polytope(d, half_width)
        is_box = True
    elif ptype == "polytope":
        _reject_unknown("problem", cfg.problem, {"type", "A", "b"})
        try:
            polytope = Polytope(np.array(cfg.problem["A"], dtype=float), np.array(cfg.problem["b"], dtype=float))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad polytope description: {exc}") from exc
        if not (np.all(np.isfinite(polytope.A)) and np.all(np.isfinite(polytope.b))):
            raise ConfigError("polytope A and b must be finite")
        d = polytope.d
        is_box = False
    else:
        raise ConfigError("problem.type must be 'box' or 'polytope'")

    x0 = np.zeros(d) if cfg.x0 is None else _vector("x0", cfg.x0, d)
    _reject_unknown("objective", cfg.objective, {"type", "x_prime"})
    otype = cfg.objective.get("type", "quadratic")
    if otype != "quadratic":
        raise ConfigError("only the quadratic objective 0.5||x - x'||^2 ships with the harness")
    x_prime = cfg.objective.get("x_prime")
    if x_prime is None:
        x_prime = [2.0] + [0.5] * (d - 1)
    x_prime = _vector("x_prime", x_prime, d)

    if is_box:
        M = box_quadratic_lipschitz(d, half_width, x_prime)
        x_star = np.clip(x_prime, -half_width, half_width)
    else:
        try:  # the polytope's verdict (empty, unbounded, over the subset cap) comes before x0's
            found = sweep(polytope, x_prime)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        M = max(float(np.linalg.norm(v - x_prime)) for v in found.vertices)
        x_star = found.x_star
    if np.min(polytope.margins(x0)) <= 0:
        raise ConfigError("x0 must be strictly feasible")
    objective = Objective(x_prime, M)
    geometry = box_geometry_constants(d, half_width, x0) if is_box else geometry_constants(polytope, x0, found)
    probe_scale = max(geometry.gamma0, 1.0) / min(cfg.omega0, 1.0)
    # Past the bound, vertices closer than FEAS_TOL times their norm may have merged, so a
    # refusal read from them (x0 optimal, omega0 past the diameter) gives the bound as its reason.
    beyond_precision = ConfigError(f"the probe scale max(gamma0, 1) / min(omega0, 1) = {probe_scale:.6g} exceeds "
                                   f"the precision bound {MAX_PROBE_SCALE:g}") if probe_scale > MAX_PROBE_SCALE else None
    f_star = objective.value(x_star)
    h0 = objective.value(x0) - f_star
    if not math.isfinite(h0):
        raise ConfigError("f(x0) - f* is not finite for this problem, x0 and objective.x_prime")
    if h0 <= 0:
        raise beyond_precision or ConfigError("x0 is already optimal; normalized curves are undefined")
    if cfg.omega0 > geometry.gamma:
        raise beyond_precision or ConfigError(f"omega0 must not exceed the polytope's diameter {geometry.gamma:.6g}, "
                                              f"got {cfg.omega0!r}")
    if not spans(cross_pattern(x0, cfg.omega0, 2 * d).points):
        raise ConfigError(f"omega0 {cfg.omega0!r} is too small for the probe cross at x0 to span R^{d + 1}")

    if cfg.delta / cfg.T / polytope.m == 0.0:
        raise ConfigError(f"delta {cfg.delta!r} split over T = {cfg.T} iterations and m = {polytope.m} constraints "
                          "underflows to 0")
    scfg = make_safety_config(
        delta=cfg.delta,
        T=cfg.T,
        m=polytope.m,
        d=d,
        sigma=cfg.sigma,
        omega0=cfg.omega0,
    )
    if not math.isfinite(scfg.phi_delta):
        raise ConfigError(f"sigma {cfg.sigma!r} and delta {cfg.delta!r} give a non-finite confidence radius phi_delta")
    if cfg.cn != "auto" and cfg.cn < 0:
        raise ConfigError("cn must be non-negative")
    if variant == "prescribed":  # the one variant that reads cn; the others keep cn = 0
        try:
            cn = cn_lower_bound(geometry, scfg, d) if cfg.cn == "auto" else float(cfg.cn)
        except (OverflowError, ZeroDivisionError):
            cn = math.inf
        if not math.isfinite(cn):  # an explicit cn is finite by _check_types
            raise ConfigError("cn 'auto' is not finite for this problem, x0, omega0, sigma, delta and T; "
                              "give cn as a number")
        if cn <= 0:
            raise ConfigError(f"variant 'prescribed' needs a positive cn, got {cn!r}")
        scfg = replace(scfg, cn=cn)
    if not math.isfinite(M):
        raise ConfigError("the gradient bound M is not finite for this problem and objective.x_prime")
    if variant == "ro" and cfg.max_total_measurements < 2 * (d + 1):
        raise ConfigError(f"variant 'ro' needs max_total_measurements of at least 2(d+1) = {2 * (d + 1)}")
    if cfg.max_total_measurements < 2 * d:
        raise ConfigError(f"max_total_measurements must cover one cross, 2d = {2 * d}")
    if beyond_precision:
        raise beyond_precision
    total = prescribed_values(scfg.cn, cfg.T, d, polytope.m) if variant == "prescribed" else 0.0
    if total > MAX_PRESCRIBED_VALUES:
        raise ConfigError(f"the prescribed schedule measures {total:.6g} values (measurements times constraints), "
                          f"more than the bound {MAX_PRESCRIBED_VALUES:g}")

    return ResolvedExperiment(
        cfg=cfg,
        polytope=polytope,
        setup=ProblemSetup(objective=objective, x0=x0, geometry=geometry),
        safety=scfg,
        f_star=f_star,
        h0=h0,
        beta_true=np.vstack([polytope.A.T, polytope.b[None, :]]),
    )


def prescribed_values(cn: float, T: int, d: int, m: int) -> float:
    """Values the prescribed schedule measures over T iterations: m for each of
    its 2d ceil(prescribed_count / 2d) measurements at iteration t (a cross
    pattern of that count); inf when the schedule overflows."""
    try:
        return float(m * sum(2 * d * -(-prescribed_count(cn, t, d) // (2 * d)) for t in range(T)))
    except OverflowError:
        return math.inf


def _annotate_ground_truth(res: ResolvedExperiment, rec: TrajectoryRecord) -> tuple[int, int]:
    """Fill feasibility flags and count iterate and conservativeness violations."""
    iterate_violations = fact1_violations = 0
    phi = res.safety.phi_delta / res.cfg.sigma if res.cfg.sigma > 0 else 0.0
    for row in rec.rows:
        row.feasible = res.polytope.contains(row.x)
        iterate_violations += not row.feasible
        if row.feasible or row.snapshot is None or not row.verdict.safe:
            continue
        beta_hat, xtx = row.snapshot
        member = confidence_membership_arrays(beta_hat, xtx, res.cfg.sigma, phi, res.beta_true)
        if bool(np.all(member)):
            fact1_violations += 1
    return iterate_violations, fact1_violations


def run_single(
    res: ResolvedExperiment,
    seed: int,
    variant: str | None = None,
    ro_budget: int | None = None,
) -> tuple[TrajectoryRecord, RepResult]:
    """One seeded run of the configured variant, annotated against ground truth."""
    cfg = res.cfg
    variant = variant or cfg.variant
    noise = NoiseModel(kind=cfg.noise_kind, sigma=cfg.sigma, seed=seed)
    oracle = ConstraintOracle(res.polytope, noise, cfg.omega0)
    est = ConstraintEstimator(res.polytope.d, res.polytope.m)
    start = time.perf_counter()
    if variant in ("prescribed", "adaptive"):
        run_cfg = SfwConfig(epsilon=cfg.epsilon, variant=variant, max_total_measurements=cfg.max_total_measurements)
        rec = sfw_mod.run(res.setup, oracle, est, res.safety, run_cfg)
    elif variant == "ro":
        budget = ro_budget if ro_budget is not None else cfg.max_total_measurements
        rec = ro_mod.ro_run(res.setup, oracle, est, res.safety, budget)
    elif variant == "fw-oracle":
        rec = sfw_mod.run_fw_reference(res.polytope, res.setup.objective, res.setup.x0, res.safety.T)
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    wall = time.perf_counter() - start

    iterate_violations, fact1_violations = _annotate_ground_truth(res, rec)
    rep = RepResult(
        seed=seed,
        status=rec.status,
        normalized=[(row.f - res.f_star) / res.h0 for row in rec.rows],
        iterate_violations=iterate_violations,
        probe_violations=oracle.out_of_reach_events,
        fact1_violations=fact1_violations,
        n_total=rec.total_measurements,
        wall_time=wall,
    )
    return rec, rep


def _aggregate(reps: list[RepResult]) -> tuple[list[float], list[float]]:
    curves = [r.normalized for r in reps if r.normalized]
    if not curves:
        return [], []
    width = max(len(c) for c in curves)
    padded = np.full((len(curves), width), np.nan)
    for i, c in enumerate(curves):
        padded[i, : len(c)] = c
    mean = np.nanmean(padded, axis=0)
    std = np.nanstd(padded, axis=0)
    return [float(v) for v in mean], [float(v) for v in std]


def _each_seed(cfg: ExperimentConfig, out_dir: str | None, body, failed, variant: str | None = None):
    """Resolve `cfg` for `variant`, create the output directory and collect
    `body(res, out, i, seed)` for seeds `base_seed + i`, or `failed(seed, "<type>: <message>")`
    for a body that raises; return the directory, the seeds and these results."""
    res = resolve(cfg, variant)
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = [cfg.base_seed + i for i in range(cfg.repetitions)]
    results = []
    for i, seed in enumerate(seeds):
        try:
            results.append(body(res, out, i, seed))
        except Exception as exc:  # recorded per seed, the loop goes on
            results.append(failed(seed, f"{type(exc).__name__}: {exc}"))
    return out, seeds, results


def _write_json(path, fields: dict) -> None:
    """`fields` as indented JSON, its leading `config` followed by `created_at`."""
    payload = {"config": fields.pop("config"), "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"), **fields}
    Path(path).write_text(json.dumps(payload, indent=2))


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunSummary:
    """Execute `repetitions` seeded runs, write per-run CSVs and the summary JSON.

    A failing repetition is recorded and the experiment continues.
    """
    def body(res, out, i, seed):
        rec, rep = run_single(res, seed)
        write_trajectory_csv(rec, res.f_star, res.h0, out / f"trajectory_rep{i:03d}.csv")
        return rep

    out, seeds, reps = _each_seed(cfg, out_dir, body, lambda seed, err: RepResult(seed, "failed", error=err))
    mean_curve, std_curve = _aggregate(reps)
    ok = [r for r in reps if r.status != "failed"]
    summary = RunSummary(
        config=asdict(cfg),
        seeds=seeds,
        reps=reps,
        mean_curve=mean_curve,
        std_curve=std_curve,
        violation_rate=(sum(1 for r in ok if r.iterate_violations > 0) / len(ok)) if ok else None,
        mean_n_total=float(np.mean([r.n_total for r in ok])) if ok else None,
        failed_fraction=sum(1 for r in reps if r.status == "failed") / len(reps),
    )
    write_summary_json(summary, out / "summary.json")
    return summary


@dataclass
class ComparisonReport:
    config: dict
    seeds: list[int]
    sfw_final: list[float | None]  # None for a failed pair
    ro_final: list[float | None]
    budgets: list[int | None]
    sfw_wins: int
    fraction_sfw_better: float
    errors: list[str | None]  # "<type>: <message>" for a failed pair, None for a completed one


def compare_sfw_ro(cfg: ExperimentConfig, out_dir: str | None = None) -> ComparisonReport:
    """Paired adaptive-vs-baseline runs with matched seeds and budgets.

    The baseline budget is each seed's realized adaptive measurement total, so
    both methods consume identical measurement counts. A failing pair is
    recorded and the comparison continues.
    """
    def body(res, out, i, seed):
        rec_sfw, rep_sfw = run_single(res, seed, variant="adaptive")
        budget = max(rec_sfw.total_measurements, 2 * (res.polytope.d + 1))
        rec_ro, rep_ro = run_single(res, seed, variant="ro", ro_budget=budget)
        write_trajectory_csv(rec_sfw, res.f_star, res.h0, out / f"sfw_rep{i:03d}.csv")
        write_trajectory_csv(rec_ro, res.f_star, res.h0, out / f"ro_rep{i:03d}.csv")
        return rep_sfw.normalized[-1], rep_ro.normalized[-1], budget, None

    out, seeds, pairs = _each_seed(cfg, out_dir, body, lambda seed, err: (None, None, None, err), "adaptive")
    sfw_final, ro_final, budgets, errors = (list(column) for column in zip(*pairs))
    # Final normalized gaps within FEAS_TOL count as a tie, which counts for SFW: at
    # zero noise both methods reach the same iterate and only rounding separates them.
    wins = sum(1 for a, b, err in zip(sfw_final, ro_final, errors) if err is None and a <= b + FEAS_TOL)
    report = ComparisonReport(
        config=asdict(cfg),
        seeds=seeds,
        sfw_final=sfw_final,
        ro_final=ro_final,
        budgets=budgets,
        sfw_wins=wins,
        fraction_sfw_better=wins / len(seeds),
        errors=errors,
    )
    _write_json(out / "comparison.json", asdict(report))
    return report


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trajectory_csv(rec: TrajectoryRecord, f_star: float, h0: float, path) -> None:
    """One row per iterate; deterministic bytes for a fixed record."""
    lines = [",".join(CSV_COLUMNS)]
    for t, row in enumerate(rec.rows):
        f_gap = row.f - f_star
        v = row.verdict
        cells = (
            t,
            f_gap,
            f_gap / h0,
            row.ghat,
            row.et,
            row.n_t,
            row.N_t,
            math.nan if v is None else v.lhs,
            math.nan if v is None else v.min_margin,
            None if v is None else v.safe,
            row.feasible,
        )
        lines.append(",".join(_fmt(c) for c in cells))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory_csv(path) -> dict[str, list]:
    """Parse a trajectory CSV back into typed columns (round-trip helper)."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    cols: dict[str, list] = {name: [] for name in header}
    for line in text[1:]:
        for name, cell in zip(header, line.split(",")):
            if cell == "":
                cols[name].append(None)
            elif name in ("t", "n_t", "N_t"):
                cols[name].append(int(cell))
            elif name in ("safe_flag", "feasible_flag"):
                cols[name].append(cell == "True")
            else:
                cols[name].append(float(cell))
    return cols


def write_summary_json(summary: RunSummary, path) -> None:
    fields = asdict(summary)
    aggregate = {key: fields.pop(key) for key in ("mean_curve", "std_curve", "violation_rate", "mean_n_total",
                                                  "failed_fraction")}
    _write_json(path, {"config": fields.pop("config"), "seeds": fields.pop("seeds"), "aggregate": aggregate,
                       "reps": fields.pop("reps")})
