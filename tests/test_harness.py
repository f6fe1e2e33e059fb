"""Experiment orchestration: config validation, determinism, exports, CLI."""

import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from safefw.cli import main as cli_main
from safefw.estimator import ConstraintEstimator, ScatterSingularError
from safefw.harness import (
    CSV_COLUMNS,
    MAX_BOX_D,
    MAX_PRESCRIBED_VALUES,
    MAX_PROBE_SCALE,
    MAX_T,
    VARIANTS,
    ConfigError,
    ExperimentConfig,
    compare_sfw_ro,
    load_trajectory_csv,
    prescribed_values,
    resolve,
    run_experiment,
    run_single,
    write_trajectory_csv,
)
from safefw.oracle import cross_pattern
from safefw.sfw import TrajectoryRecord

SRC = Path(__file__).resolve().parents[1] / "src"
PIN = json.loads((Path(__file__).with_name("data") / "pin_box_d2_seed3.json").read_text())
PIN_SIGMA01 = json.loads((Path(__file__).with_name("data") / "pin_box_d2_sigma01_seed0.json").read_text())


def d2_config(**overrides) -> ExperimentConfig:
    base = dict(
        problem={"type": "box", "d": 2},
        sigma=0.01,
        omega0=0.01,
        delta=0.1,
        T=15,
        epsilon=1e-6,
        variant="adaptive",
        repetitions=3,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_resolve_box_quadratic_optimum():
    res = resolve(d2_config())
    assert res.f_star == res.setup.objective.value(np.array([1.0, 0.5])) == pytest.approx(0.5, abs=1e-12)
    assert res.setup.geometry.eps0 == 1.0


def test_resolve_regular_17gon_vs_brute_force():
    # 136 bases, beyond the m <= 16 cap of the reference enumerator; vertex i joins facets i and i+1
    angles = 2.0 * np.pi * np.arange(17) / 17
    A = np.column_stack([np.cos(angles), np.sin(angles)])
    res = resolve(d2_config(problem={"type": "polytope", "A": A.tolist(), "b": [1.0] * 17}))
    verts = [np.linalg.solve(A[[i, (i + 1) % 17]], np.ones(2)) for i in range(17)]
    x_prime = np.array([2.0, 0.5])
    assert res.setup.objective.M == pytest.approx(max(np.linalg.norm(v - x_prime) for v in verts), abs=1e-12)
    assert res.setup.geometry.gamma0 == pytest.approx(max(np.linalg.norm(v) for v in verts), abs=1e-12)
    rec, rep = run_single(res, 0)
    assert rec.status == "completed" and rep.iterate_violations == 0


def test_empty_polytope_is_reported_as_empty(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    path.write_text(json.dumps({"problem": {"type": "polytope", "A": A, "b": [-1.0, -1.0, 1.0, 1.0]}}))
    assert cli_main(["validate-config", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: polytope is empty\n"


def test_config_validation_errors():
    cases = [
        dict(problem={"type": "box", "d": 0}),
        dict(problem={"type": "bogus"}),
        dict(repetitions=0),
        dict(T=2),
        dict(epsilon=0.0),
        dict(delta=1.5),
        dict(variant="bogus"),
        dict(x0=[2.0, 0.0]),
        dict(variant="ro", max_total_measurements=5),  # below 2(d+1) = 6
        dict(problem={"type": "polytope", "A": [[1.0, 0.0]], "b": [1.0]}),  # unbounded
        dict(cn=-1.0),
        dict(objective={"type": "cubic"}),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            resolve(d2_config(**overrides))
    for raw in ({"problem": {"type": "box", "d": 2}, "bogus_field": 1}, {}, 5):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


def test_run_experiment_outputs(tmp_path):
    cfg = d2_config(out_dir=str(tmp_path / "out"))
    summary = run_experiment(cfg)
    assert summary.failed_fraction == 0.0
    assert summary.violation_rate == 0.0
    assert all(r.fact1_violations == 0 for r in summary.reps)
    assert summary.mean_curve[0] == 1.0
    csv = load_trajectory_csv(tmp_path / "out" / "trajectory_rep000.csv")
    assert csv["normalized_gap"][0] == 1.0
    assert csv["t"] == list(range(16))
    js = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert js["config"]["variant"] == "adaptive"
    assert len(js["reps"]) == 3


def test_seed_determinism_bitwise(tmp_path):
    cfg_a = d2_config(out_dir=str(tmp_path / "a"), sigma=0.05, base_seed=17, repetitions=2)
    cfg_b = d2_config(out_dir=str(tmp_path / "b"), sigma=0.05, base_seed=17, repetitions=2)
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("trajectory_rep000.csv", "trajectory_rep001.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ja = json.loads((tmp_path / "a" / "summary.json").read_text())
    jb = json.loads((tmp_path / "b" / "summary.json").read_text())
    ja.pop("created_at"), jb.pop("created_at")
    # wall times differ between runs; everything else must match exactly
    for rep in ja["reps"] + jb["reps"]:
        rep.pop("wall_time")
    ja["config"].pop("out_dir"), jb["config"].pop("out_dir")
    assert ja == jb


def test_zero_noise_rerun_identical(tmp_path):
    cfg = d2_config(sigma=0.0, repetitions=1, out_dir=str(tmp_path / "z1"))
    run_experiment(cfg)
    cfg2 = d2_config(sigma=0.0, repetitions=1, out_dir=str(tmp_path / "z2"))
    run_experiment(cfg2)
    a = (tmp_path / "z1" / "trajectory_rep000.csv").read_bytes()
    b = (tmp_path / "z2" / "trajectory_rep000.csv").read_bytes()
    assert a == b


def test_empty_trajectory_csv(tmp_path):
    rec = TrajectoryRecord()
    write_trajectory_csv(rec, 0.5, 1.0, tmp_path / "empty.csv")
    text = (tmp_path / "empty.csv").read_text()
    assert text.count("\n") == 1
    assert text.startswith("t,f_gap,normalized_gap")


def test_csv_round_trip_and_aggregate_recompute(tmp_path):
    cfg = d2_config(out_dir=str(tmp_path / "rt"), repetitions=3)
    summary = run_experiment(cfg)
    finals = []
    for i in range(3):
        cols = load_trajectory_csv(tmp_path / "rt" / f"trajectory_rep{i:03d}.csv")
        finals.append(cols["normalized_gap"][-1])
        assert summary.reps[i].normalized[-1] == pytest.approx(finals[-1], abs=0.0)
    assert np.mean(finals) == pytest.approx(summary.mean_curve[-1], abs=1e-12)


def test_fw_oracle_variant(tmp_path):
    cfg = d2_config(variant="fw-oracle", repetitions=2, out_dir=str(tmp_path / "fw"))
    summary = run_experiment(cfg)
    assert summary.violation_rate == 0.0
    assert summary.reps[0].n_total == 0
    assert summary.reps[0].normalized == summary.reps[1].normalized


def test_ro_variant_runs(tmp_path):
    cfg = d2_config(variant="ro", max_total_measurements=500, repetitions=2, out_dir=str(tmp_path / "ro"))
    summary = run_experiment(cfg)
    assert summary.failed_fraction == 0.0
    assert all(r.n_total >= 500 for r in summary.reps)


def test_ro_run_single_spends_the_run_budget():
    """run_single(..., "ro") on a config resolved for another variant spends
    max_total_measurements, rounded up to whole crosses, with no separate RO
    budget to read."""
    for budget, spent in ((2000, 2000), (2001, 2004)):
        rec, rep = run_single(resolve(d2_config(max_total_measurements=budget)), 0, "ro")
        assert rec.status == "completed" and rep.n_total == spent


def test_prescribed_variant_runs(tmp_path):
    cfg = d2_config(variant="prescribed", cn=96.0, repetitions=1, out_dir=str(tmp_path / "p"))
    summary = run_experiment(cfg)
    assert summary.failed_fraction == 0.0
    assert summary.reps[0].n_total > 200000  # the prescribed schedule is heavy


def test_compare_zero_noise_ties(tmp_path):
    cfg = d2_config(sigma=0.0, repetitions=3, out_dir=str(tmp_path / "cmp0"))
    report = compare_sfw_ro(cfg)
    assert report.fraction_sfw_better == 1.0
    for a, b in zip(report.sfw_final, report.ro_final):
        assert a == pytest.approx(b, abs=1e-9)


def test_compare_noisy_and_budget_stretch(tmp_path):
    cfg = d2_config(sigma=0.1, repetitions=4, out_dir=str(tmp_path / "cmp"))
    report = compare_sfw_ro(cfg)
    assert report.sfw_wins >= 3
    res = resolve(cfg)
    # a 10x budget narrows the baseline's disadvantage
    tighter, looser = [], []
    for seed, budget in zip(report.seeds, report.budgets):
        _, rep_matched = run_single(res, seed, variant="ro", ro_budget=budget)
        _, rep_rich = run_single(res, seed, variant="ro", ro_budget=10 * budget)
        tighter.append(rep_matched.normalized[-1])
        looser.append(rep_rich.normalized[-1])
    assert np.mean(looser) <= np.mean(tighter) + 1e-9


def test_cli_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"type": "box", "d": 2},
        "sigma": 0.01,
        "T": 15,
        "variant": "adaptive",
        "repetitions": 2,
        "base_seed": 1,
        "out_dir": str(tmp_path / "cli_out"),
    }))

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "safefw.cli", *args],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )

    ok = cli("validate-config", "--config", str(cfg_path))
    assert ok.returncode == 0 and "config ok" in ok.stdout

    ran = cli("run", "--config", str(cfg_path))
    assert ran.returncode == 0
    assert (tmp_path / "cli_out" / "summary.json").exists()

    cmp_run = cli("compare", "--config", str(cfg_path), "--out", str(tmp_path / "cli_cmp"), "--reps", "2")
    assert cmp_run.returncode == 0
    assert (tmp_path / "cli_cmp" / "comparison.json").exists()

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({"problem": {"type": "box", "d": 0}}))
    bad = cli("validate-config", "--config", str(bad_path))
    assert bad.returncode == 1
    assert "config error" in bad.stderr


def assert_refused(path, capsys, message, compare_only):
    """validate-config exits 1 with one stderr line holding `message`; or, for a
    config that compare runs (`message` is about a field that only the
    configured variant reads), exits 0 naming `message` as run's reason, and
    run then exits 1 with that line."""
    code = cli_main(["validate-config", "--config", str(path)])
    out = capsys.readouterr()
    if compare_only:
        assert code == 0 and out.out.startswith("config ok for compare only (run: ") and message in out.out
        code = cli_main(["run", "--config", str(path), "--reps", "1", "--out", str(path.parent / "out")])
        out = capsys.readouterr()
    assert code == 1 and not out.out
    assert out.err.startswith("config error: ") and out.err.count("\n") == 1
    assert message in out.err


UNIT_SQUARE = {"type": "polytope", "A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [1, 1, 1, 1]}


@pytest.mark.parametrize(
    "overrides, message, compare_only",
    [
        pytest.param({"sigma": math.nan}, "sigma must be a finite number", False, id="nan-sigma"),
        pytest.param({"T": "15"}, "T must be an integer", False, id="string-T"),
        pytest.param({"problem": {"type": "box", "d": 2.7}}, "problem.d must be an integer", False, id="fractional-d"),
        pytest.param({"problem": [2]}, "problem must be a JSON object", False, id="list-problem"),
        pytest.param({"objective": "quadratic"}, "objective must be a JSON object", False, id="string-objective"),
        pytest.param({"problem": {"type": "box", "d": 2, "half_width": None}}, "problem.half_width must be a finite",
                     False, id="null-half-width"),
        pytest.param({"x0": {"a": 1}}, "x0 must be a list of 2 finite numbers", False, id="dict-x0"),
        pytest.param({"confidence_mode": "bogus"}, "unknown config fields: ['confidence_mode']",
                     False, id="bogus-confidence-mode"),
        pytest.param({"phi_delta_override": 1.0}, "unknown config fields: ['phi_delta_override']",
                     False, id="phi-delta-override"),
        pytest.param({"cn": None}, "cn must be a finite number, got None", False, id="null-cn"),
        pytest.param({"noise_kind": "cauchy"}, "unknown noise_kind 'cauchy'", False, id="cauchy-noise"),
        pytest.param({"objective": {"x_prime": [0, 0]}}, "x0 is already optimal", False, id="optimal-x0"),
        pytest.param({"variant": "ro", "max_total_measurements": -5},
                     "variant 'ro' needs max_total_measurements of at least 2(d+1) = 6", False, id="negative-ro-budget"),
        pytest.param({"variant": "ro", "max_total_measurements": 5},
                     "variant 'ro' needs max_total_measurements of at least 2(d+1) = 6", True, id="small-ro-budget"),
        pytest.param({"ro_total_measurements": 2000}, "unknown config fields: ['ro_total_measurements']", False,
                     id="removed-ro-budget-field"),
        pytest.param({"out_dir": 5}, "out_dir must be a string", False, id="int-out-dir"),
        pytest.param({"variant": "prescribed", "cn": 0}, "needs a positive cn", True, id="zero-cn-prescribed"),
        pytest.param({"variant": "prescribed", "sigma": 0.0}, "needs a positive cn", True,
                     id="auto-cn-zero-noise-prescribed"),
        pytest.param({"variant": "prescribed", "problem": {"type": "box", "d": 10}, "T": 6},
                     "the prescribed schedule measures 1.87056e+10 values (measurements times constraints), "
                     f"more than the bound {MAX_PRESCRIBED_VALUES:g}", True, id="prescribed-d10-T6"),
        pytest.param({"variant": "prescribed", "problem": {"type": "box", "d": 10}, "T": MAX_T},
                     "the prescribed schedule measures 2.31404e+19 values", True, id="prescribed-d10-max-T"),
        pytest.param({"variant": "prescribed", "cn": 1e308}, "the prescribed schedule measures inf values", True,
                     id="overflowing-prescribed-schedule"),
        pytest.param({"max_total_measurements": -5}, "must cover one cross", False, id="negative-measurement-budget"),
        pytest.param({"max_total_measurements": 3}, "must cover one cross", False, id="sub-cross-measurement-budget"),
        pytest.param({"problem": {**UNIT_SQUARE, "b": [1, 1, 1, math.nan]}}, "polytope A and b must be finite",
                     False, id="nan-b"),
        pytest.param({"problem": {**UNIT_SQUARE, "A": [[1, 0], [0, 1], [-1, math.inf], [0, -1]]}},
                     "polytope A and b must be finite", False, id="inf-A"),
        pytest.param({"omega0": 1e300}, "omega0 must not exceed the polytope's diameter 2.82843", False,
                     id="huge-omega0"),
        pytest.param({"problem": {"type": "box", "d": 2, "halfwidth": 0.5}}, "unknown problem fields: ['halfwidth']",
                     False, id="misspelled-half-width"),
        pytest.param({"objective": {"x_prme": [0.1, 0.1]}}, "unknown objective fields: ['x_prme']",
                     False, id="misspelled-x-prime"),
        pytest.param({"problem": {"type": "box", "d": 2, "A": [[1, 0]]}}, "unknown problem fields: ['A']", False,
                     id="box-with-A"),
        pytest.param({"base_seed": -1}, "base_seed must be >= 0", False, id="negative-seed"),
        pytest.param({"sigma": 10**400}, "sigma must be a finite number", False, id="huge-int-sigma"),
        pytest.param({"T": 10**400}, "T must be an integer within the float range", False, id="huge-int-T"),
        pytest.param({"x0": [10**400, 0]}, "x0 must be a list of 2 finite numbers", False, id="huge-int-x0"),
        pytest.param({"problem": {**UNIT_SQUARE, "b": [10**400, 1, 1, 1]}}, "bad polytope description",
                     False, id="huge-int-b"),
    ],
)
def test_validate_config_rejects_bad_values(tmp_path, capsys, recwarn, overrides, message, compare_only):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, **overrides}))
    assert_refused(path, capsys, message, compare_only)
    assert not recwarn.list


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize("omega0", [1e-300, 1e-8])
def test_omega0_too_small_to_span_is_a_config_error(tmp_path, capsys, command, omega0):
    """A probe cross too narrow for the estimator's rank test exits 1 with one
    stderr line, not with a ZeroDivisionError traceback or failed repetitions."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, "omega0": omega0}))
    out = ["--out", str(tmp_path / "out"), "--reps", "1"] if command == "run" else []
    assert cli_main([command, "--config", str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: omega0 {omega0!r} is too small for the probe cross at x0 to span")
    assert err.count("\n") == 1


@pytest.mark.parametrize("overrides, message, compare_only", [
    pytest.param({"sigma": 1e308}, "sigma 1e+308 and delta 0.1 give a non-finite confidence radius", False,
                 id="huge-sigma"),
    pytest.param({"problem": {"type": "box", "d": 2, "half_width": 1e300}, "omega0": 1, "variant": "prescribed"},
                 "cn 'auto' is not finite", False, id="overflowing-cn"),
    pytest.param({"problem": {"type": "polytope", "A": [[1, 0], [0, 1], [-1, -1]], "b": [1, 1, 1e-300]},
                  "variant": "prescribed"}, "cn 'auto' is not finite", True, id="underflowing-eps0"),
    pytest.param({"objective": {"x_prime": [1e308, 0.5]}}, "f(x0) - f* is not finite", False, id="overflowing-h0"),
    pytest.param({"problem": {"type": "box", "d": 2, "half_width": 1e300}, "omega0": 1, "cn": 5},
                 "the gradient bound M is not finite for this problem and objective.x_prime", False,
                 id="overflowing-M"),
    pytest.param({"delta": 5e-324}, "delta 5e-324 split over T = 15 iterations and m = 4 constraints underflows",
                 False, id="underflowing-delta"),
])
def test_non_finite_derived_constants_are_config_errors(tmp_path, capsys, recwarn, overrides, message, compare_only):
    """Constants that overflow, divide by zero or underflow exit 1 with one
    stderr line naming the fields, not with config ok, a traceback or a run
    that never ends."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, **overrides}))
    assert_refused(path, capsys, message, compare_only)
    assert not recwarn.list


TINY_MARGIN_SQUARE = {"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1e-170, 1, 1, 1]}


@pytest.mark.parametrize("command, overrides", [
    pytest.param("run", {"problem": TINY_MARGIN_SQUARE, "objective": {"x_prime": [-2, 0.5]}}, id="adaptive-auto-cn"),
    pytest.param("compare", {"variant": "ro", "cn": 0}, id="compare-ro-without-budget"),
    pytest.param("compare", {"variant": "prescribed", "cn": 0}, id="compare-prescribed-zero-cn"),
])
def test_fields_of_other_variants_are_not_checked(tmp_path, capsys, command, overrides):
    """Only the prescribed schedule reads cn and only ro reads its budget, so a
    non-finite auto cn does not stop an adaptive run, and compare, which runs
    adaptive against ro with its own budgets, ignores what `variant` needs."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, **overrides}))
    assert cli_main([command, "--config", str(path), "--reps", "2", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    if command == "run":
        assert out.startswith("runs=2 failed_fraction=0.000 violation_rate=0.000 mean_N=486.0 ")
        assert cli_main(["validate-config", "--config", str(path)]) == 0
        assert capsys.readouterr().out.endswith(", cn=0\n")
    else:
        assert out.startswith("pairs=2 ")
        assert json.loads((tmp_path / "out" / "comparison.json").read_text())["errors"] == [None, None]


def test_validate_config_accepts_a_config_that_only_compare_runs(tmp_path, capsys):
    """validate-config exits 0 when the config resolves for run or for compare,
    names the commands it resolves for and gives run's reason when only compare
    resolves; it exits 1 only when neither does."""
    raw = {"problem": {"type": "box", "d": 2}, "variant": "ro", "max_total_measurements": 5, "repetitions": 1,
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["validate-config", "--config", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("config ok for compare only (run: variant 'ro' needs max_total_measurements of at least "
                              "2(d+1) = 6): variant=ro")
    assert not out.err
    assert cli_main(["compare", "--config", str(path)]) == 0
    assert cli_main(["run", "--config", str(path)]) == 1
    capsys.readouterr()
    path.write_text(json.dumps({**raw, "max_total_measurements": 2000}))
    assert cli_main(["validate-config", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("config ok for run and compare: variant=ro")
    path.write_text(json.dumps({**raw, "T": 2}))
    assert cli_main(["validate-config", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: T must be >= 3\n"


@pytest.mark.parametrize("scale, b, message", [
    (1e-100, 1e-100, None),
    (1e12, 1.0, "config error: omega0 must not exceed the polytope's diameter 2.82843e-12, got 0.01\n"),
], ids=["rows-1e-100", "rows-1e12"])
def test_polytope_verdict_does_not_depend_on_the_row_scale(tmp_path, capsys, scale, b, message):
    """The sweep's tests are relative to the terms they compare, so a square
    written as rows of 1e-100 resolves with the f* of the unit square, and the
    box |x_i| <= 1e-12 written as rows of 1e12 keeps its four vertices and is
    refused for omega0 against its true diameter, not as unbounded or for
    want of a KKT point."""
    path = tmp_path / "cfg.json"
    A = (scale * np.vstack([np.eye(2), -np.eye(2)])).tolist()
    raw = {"problem": {"type": "polytope", "A": A, "b": [b] * 4}}
    path.write_text(json.dumps(raw))
    code = cli_main(["validate-config", "--config", str(path)])
    out = capsys.readouterr()
    if message is None:
        assert code == 0 and out.out.startswith("config ok for run and compare: ") and not out.err
        res = resolve(ExperimentConfig.from_dict(raw))
        assert (res.f_star, res.h0) == (0.5, 1.625)  # x* = (1, 0.5) for x' = (2, 0.5); f(x0) = 2.125
        assert res.polytope.contains([1.0, 0.5]) and not res.polytope.contains([1.0 + 2e-9, 0.5])
    else:
        assert code == 1 and out.err == message


def test_validate_config_resolves_a_tiny_delta(tmp_path, capsys):
    """delta / (T m) = 1e-20 / 60 lies far below the double spacing near 1, so
    the radius must come from the chi-squared upper tail itself."""
    raw = {"problem": {"type": "box", "d": 2}, "delta": 1e-20}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["validate-config", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("config ok")
    cfg = ExperimentConfig.from_dict(raw)
    assert resolve(cfg).safety.phi_delta / cfg.sigma == pytest.approx(10.222947214905146, rel=1e-9)


@pytest.mark.parametrize("command, config, out", [
    ("run", "box_d2_adaptive.json", "taken"),
    ("compare", "compare_d2_sigma01.json", "taken/sub"),
])
def test_unusable_output_directory_is_a_config_error(tmp_path, capsys, command, config, out):
    """An --out that is a file, or lies under one, exits 1 with one stderr line."""
    (tmp_path / "taken").write_text("")
    cfg = Path(__file__).resolve().parents[1] / "configs" / config
    argv = [command, "--config", str(cfg), "--reps", "1", "--out", str(tmp_path / out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


PIN_OVERRIDES = {"prescribed": {"cn": 96.0}, "ro": {"max_total_measurements": 2000}}


@pytest.mark.parametrize("variant", sorted(PIN))
def test_trajectory_csv_matches_pinned_rows(tmp_path, variant):
    """d = 2, sigma = 0.01, T = 15, seed 3: every CSV row as recorded before the
    IterationRow refactor. Counts, flags and the status match exactly, finite
    floats within 1e-9."""
    res = resolve(d2_config(variant=variant, repetitions=1, base_seed=3, **PIN_OVERRIDES.get(variant, {})))
    rec, _ = run_single(res, 3)
    write_trajectory_csv(rec, res.f_star, res.setup.objective.value(res.setup.x0) - res.f_star, tmp_path / "t.csv")
    cols = load_trajectory_csv(tmp_path / "t.csv")
    assert rec.status == PIN[variant]["status"]
    assert len(cols["t"]) == len(PIN[variant]["rows"])
    exact = ("t", "n_t", "N_t", "safe_flag", "feasible_flag")
    for t, expected in enumerate(PIN[variant]["rows"]):
        for name, want in zip(CSV_COLUMNS, expected):
            got = cols[name][t]
            if name not in exact and isinstance(want, float) and math.isfinite(want):
                assert abs(got - want) <= 1e-9, (t, name)
            else:
                assert got == want or (math.isnan(got) and math.isnan(want)), (t, name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_variant_follows_its_pinned_trajectory(variant):
    """d = 2 box, sigma = 0.1, T = 15, seed 0, a budget of 20,000 measurements
    (cn 96 for prescribed, 2,000 measurements for ro): every row's n_t, N_t,
    extras, DFS status and safe flag, and the run status, as recorded when each
    variant still ran its own loop; the normalized gaps within 1e-9."""
    cfg = d2_config(variant=variant, sigma=0.1, max_total_measurements=2000 if variant == "ro" else 20_000, cn=96.0)
    rec, rep = run_single(resolve(cfg), 0)
    pin = PIN_SIGMA01[variant]
    assert rec.status == pin["status"]
    rows = [[r.n_t, r.N_t, r.extras, r.dfs_status, None if r.verdict is None else r.verdict.safe] for r in rec.rows]
    assert rows == [want[:5] for want in pin["rows"]]
    assert np.max(np.abs(np.array(rep.normalized) - [want[5] for want in pin["rows"]])) <= 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
def test_T_past_the_cap_is_a_config_error(tmp_path, capsys, variant):
    """resolve refuses T = MAX_T + 1 and T = 10^20 (a JSON integer within the
    float range) for every variant, and validate-config and run exit 1 with one
    stderr line instead of starting a loop that would not end."""
    for T in (MAX_T + 1, 10**20):
        with pytest.raises(ConfigError, match=f"T must be at most {MAX_T}, got {T}"):
            resolve(d2_config(variant=variant, T=T))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, "T": 10**20, "variant": variant,
                                "repetitions": 1}))
    for argv in (["validate-config", "--config", str(path)], ["run", "--config", str(path), "--out", str(tmp_path)]):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"config error: T must be at most {MAX_T}, got {10**20}\n"


@pytest.mark.parametrize("cfg,values", [
    pytest.param(d2_config(variant="prescribed", cn="auto"), 203_825_680, id="prescribed-bulk"),
    pytest.param(ExperimentConfig.from_dict(json.loads((SRC.parent / "configs" / "box_d2_prescribed.json").read_text())),
                 1_160_448, id="box_d2_prescribed"),
])
def test_prescribed_schedule_within_the_bound_resolves(cfg, values):
    """resolve admits a prescribed schedule of at most MAX_PRESCRIBED_VALUES
    values; on box_d2_prescribed a run measures exactly the values counted.
    The schedules past the bound are in test_validate_config_rejects_bad_values."""
    res = resolve(cfg)
    assert prescribed_values(res.safety.cn, cfg.T, 2, 4) == values <= MAX_PRESCRIBED_VALUES
    if values < 10**7:
        assert run_single(res, 0)[0].total_measurements * 4 == values


GENERAL_POLYTOPE = {
    "type": "polytope",
    "A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
    "b": [1.0, 1.0, 1.0, 1.0, 1.5],
}


def test_general_polytope_config(tmp_path):
    cfg = d2_config(problem=GENERAL_POLYTOPE, repetitions=2, out_dir=str(tmp_path / "gp"))
    summary = run_experiment(cfg)
    assert summary.failed_fraction == 0.0
    assert summary.violation_rate == 0.0


@pytest.mark.parametrize("command", ["run", "compare"])
def test_one_resolve_per_command(tmp_path, monkeypatch, command):
    """run and compare resolve the config once, so a polytope's row subsets are swept once."""
    import safefw.harness as hmod

    calls = []
    real = hmod.sweep
    monkeypatch.setattr(hmod, "sweep", lambda p, x_prime: calls.append(p) or real(p, x_prime))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": GENERAL_POLYTOPE, "repetitions": 1, "out_dir": str(tmp_path / "out")}))
    assert cli_main([command, "--config", str(path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("x_prime, sizes, f_star", [
    ([2.0, 0.5], [1] * 5 + [2] * 10, 0.5),  # x* = (1, 0.5), where x1 <= 1 and x1 + x2 <= 1.5 meet
    ([0.5, 0.25], [2] * 10, 0.0),  # x' lies in the polytope: only the bases, for the vertices and rays
], ids=["x-prime-outside", "x-prime-inside"])
def test_polytope_resolve_visits_each_row_subset_once_and_solves_no_lp(monkeypatch, x_prime, sizes, f_star):
    """resolve decides a polytope, and reads its geometry and f*, from one pass
    over the C(5, k) row subsets of each size k it needs, with no LP solve."""
    import itertools

    import safefw.lp as lp
    import safefw.problem as problem

    visited = []
    real = itertools.combinations
    monkeypatch.setattr(problem.itertools, "combinations",
                        lambda rows, k: (visited.append(k) or s for s in real(rows, k)))
    monkeypatch.setattr(lp, "solve", lambda *args: pytest.fail("resolve solved an LP"))
    res = resolve(d2_config(problem=GENERAL_POLYTOPE, objective={"x_prime": x_prime}))
    assert sorted(visited) == sizes
    assert res.f_star == pytest.approx(f_star, abs=1e-12)


@pytest.mark.parametrize("command, written", [("run", "summary.json"), ("compare", "comparison.json")])
@pytest.mark.parametrize("failure", ["subset-cap", "json-write"])
def test_failures_outside_a_seed_are_config_errors(tmp_path, monkeypatch, capsys, command, written, failure):
    """run and compare resolve the config inside the harness; a polytope over
    the subset cap found there, and a JSON file that cannot be written, exit 1
    with one stderr line."""
    import safefw.problem as problem

    out = tmp_path / "out"
    if failure == "subset-cap":
        monkeypatch.setattr(problem, "SUBSET_CAP", 5)  # the polytope has C(5, 2) = 10 bases
    else:
        (out / written).mkdir(parents=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": GENERAL_POLYTOPE, "repetitions": 1, "out_dir": str(out)}))
    assert cli_main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert ("exceed the cap 5" if failure == "subset-cap" else "Is a directory") in err


@pytest.mark.parametrize("command", ["validate-config", "run", "compare"])
def test_config_too_large_to_allocate_is_a_config_error(tmp_path, capsys, command):
    """A box of 10^8 dimensions would ask numpy for a 142 PiB constraint
    matrix; the dimension cap refuses it before anything is allocated: exit 1
    with one stderr line, not a MemoryError traceback."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 100_000_000}, "repetitions": 1,
                                "out_dir": str(tmp_path / "out")}))
    assert cli_main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"d must be at most {MAX_BOX_D}, got 100000000" in err


def test_box_dimension_above_the_cap_is_refused_before_building_it(tmp_path, capsys, monkeypatch):
    """A box one dimension past MAX_BOX_D (whose resolve would take about 0.5 s
    and 90 MB, growing as d^2) prints one config error naming the cap, and
    no box constraint matrix is built."""
    import safefw.harness as hmod

    def refuse(*args):
        raise AssertionError("box_polytope called")

    monkeypatch.setattr(hmod, "box_polytope", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": MAX_BOX_D + 1}}))
    assert cli_main(["validate-config", "--config", str(path)]) == 1
    out = capsys.readouterr()
    assert not out.out and out.err == f"config error: box problem d must be at most {MAX_BOX_D}, got {MAX_BOX_D + 1}\n"


def test_overflowing_polytope_prints_only_the_config_error(tmp_path):
    """Entries of 1e200 overflow the row norms while the polytope is built and
    checked; numpy's warning must not print ahead of the one config error."""
    path = tmp_path / "cfg.json"
    big = 1e200
    path.write_text(json.dumps({"problem": {"type": "polytope", "A": [[big, 0], [0, big], [-big, 0], [0, -big]],
                                            "b": [1, 1, 1, 1]}, "repetitions": 1}))
    out = subprocess.run([sys.executable, "-m", "safefw.cli", "validate-config", "--config", str(path)],
                         capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.returncode == 1
    assert out.stderr.startswith("config error: ") and out.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "scale, b, message",
    [
        (1e200, 1.0, "row 0 of A has norm 1e+200, whose square overflows"),
        (1e200, 1e200, "row 0 of A has norm 1e+200, whose square overflows"),
        (1e-200, 1e-200, "row 0 of A has norm 1e-200, whose square underflows"),
    ],
    ids=["overflow-b1", "overflow-b1e200", "underflow"],
)
def test_polytope_row_out_of_float_range_is_named(tmp_path, capsys, recwarn, scale, b, message):
    """The box |x_i| <= 1/scale written as rows of +-scale is rejected for the
    row whose squared norm leaves the float range, not for a wrong reason
    (no KKT point, an all-zero row)."""
    path = tmp_path / "cfg.json"
    A = (scale * np.vstack([np.eye(2), -np.eye(2)])).tolist()
    path.write_text(json.dumps({"problem": {"type": "polytope", "A": A, "b": [b] * 4}, "repetitions": 1}))
    assert cli_main(["validate-config", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: bad polytope description: {message}\n"
    assert not recwarn.list


@pytest.mark.parametrize("problem", [{"type": "box", "d": 2}, GENERAL_POLYTOPE], ids=["box", "polytope"])
def test_resolved_experiment_pickles(problem):
    """A resolved config round-trips through pickle (a process pool needs
    that) and runs the same seed to the same record, bit for bit."""
    res = resolve(d2_config(problem=problem, repetitions=1))
    copy = pickle.loads(pickle.dumps(res))
    (rec, rep), (rec_copy, rep_copy) = run_single(res, 3), run_single(copy, 3)
    assert [row.x.tobytes() for row in rec.rows] == [row.x.tobytes() for row in rec_copy.rows]
    assert [row.f for row in rec.rows] == [row.f for row in rec_copy.rows]
    assert (rec.status, rec.extra_batches, rec.total_measurements) == (rec_copy.status, rec_copy.extra_batches,
                                                                      rec_copy.total_measurements)
    assert rep.normalized == rep_copy.normalized and rep.n_total == rep_copy.n_total


def test_failed_repetition_recorded(tmp_path, monkeypatch):
    import safefw.harness as hmod

    real = hmod.run_single

    def flaky(res, seed, variant=None, ro_budget=None):
        if seed % 2 == 1:
            raise RuntimeError("synthetic failure")
        return real(res, seed, variant, ro_budget)

    monkeypatch.setattr(hmod, "run_single", flaky)
    cfg = d2_config(repetitions=4, out_dir=str(tmp_path / "flaky"))
    summary = hmod.run_experiment(cfg)
    assert summary.failed_fraction == 0.5
    failed = [r for r in summary.reps if r.status == "failed"]
    assert len(failed) == 2
    assert all("synthetic failure" in r.error for r in failed)


def test_no_completed_repetition_reports_null_rates(tmp_path, monkeypatch, capsys):
    """With every repetition failed there is no iterate to judge, so neither a
    violation rate nor a mean measurement total is reported."""
    import safefw.harness as hmod

    def failing(res, seed, variant=None, ro_budget=None):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(hmod, "run_single", failing)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, "repetitions": 2,
                                "out_dir": str(tmp_path / "out")}))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "failed_fraction=1.000 violation_rate=nan mean_N=nan" in capsys.readouterr().out
    aggregate = json.loads((tmp_path / "out" / "summary.json").read_text())["aggregate"]
    assert aggregate["violation_rate"] is None and aggregate["mean_n_total"] is None


def test_probe_scale_beyond_double_precision_is_named(tmp_path, capsys):
    """At half_width 1e8 with omega0 = 0.01 the design rows [x, -1] would leave P
    with eigenvalues some 1e16 apart: run refuses the config with the precision
    bound's one line. The estimator still names such a design by its own
    eigenvalue test: a cross at (5e7, 5e7) after one at 0 raises
    ScatterSingularError, where a cross at (50, 50) does not."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2, "half_width": 1e8}, "omega0": 0.01,
                                "max_total_measurements": 20000, "repetitions": 2,
                                "out_dir": str(tmp_path / "out")}))
    assert cli_main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("config error: the probe scale max(gamma0, 1) / min(omega0, 1) = 1.41421e+10 "
                                       f"exceeds the precision bound {MAX_PROBE_SCALE:g}\n")
    def crosses_at(*centres):
        est = ConstraintEstimator(2, 4)
        for centre in centres:
            est.absorb_repeated(cross_pattern(np.full(2, centre), 0.01, 4).points, np.ones((4, 4)), 1)

    crosses_at(0.0, 50.0)
    with pytest.raises(ScatterSingularError, match="probe design became numerically singular"):
        crosses_at(0.0, 5e7)


@pytest.mark.parametrize("half_width", [3e6, 1e7, 1e8])
def test_probe_scale_is_refused_or_run_safely(half_width):
    """A d = 2 box with omega0 = 0.01 at half_width 3e6 to 1e8, where runs used
    to complete or stop with ScatterSingularError as rounding fell, is refused
    by the precision bound; just under the bound see the test below."""
    cfg = ExperimentConfig(problem={"type": "box", "d": 2, "half_width": half_width}, omega0=0.01,
                           max_total_measurements=20_000)
    with pytest.raises(ConfigError, match=re.escape(f"= {half_width * math.sqrt(2) / 0.01:.6g} exceeds the precision")):
        resolve(cfg)


def test_far_narrow_polytope_is_refused_by_the_precision_bound():
    """The box [1e8, 1e8 + 0.01]^2 reads as one point at its own scale (its
    corners merge within FEAS_TOL * 1.4e8, a diameter of 0). Past the
    precision bound a refusal read from merged vertices gives the bound as
    its reason, not the diameter."""
    lo, hi = 1e8, 1e8 + 0.01
    cfg = ExperimentConfig(problem={"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [hi, -lo, hi, -lo]},
                           x0=[(lo + hi) / 2] * 2, objective={"type": "quadratic", "x_prime": [0.0, 0.0]}, omega0=0.001)
    with pytest.raises(ConfigError, match=r"^the probe scale .* = 1\.41421e\+11 exceeds the precision bound 200000$"):
        resolve(cfg)


def test_probe_scale_just_under_the_bound_runs_safely():
    """half_width 1414 at omega0 = 0.01 puts the probe scale just under
    MAX_PROBE_SCALE: seeds 0-7 complete with every iterate feasible."""
    res = resolve(ExperimentConfig(problem={"type": "box", "d": 2, "half_width": 1414.0}, omega0=0.01,
                                   max_total_measurements=20_000))
    assert 0.999 * MAX_PROBE_SCALE < res.setup.geometry.gamma0 / 0.01 < MAX_PROBE_SCALE
    for seed in range(8):
        rep = run_single(res, seed)[1]
        assert (rep.status, rep.iterate_violations, rep.probe_violations) == ("completed", 0, 0), seed


def test_compare_records_a_failed_pair(tmp_path, monkeypatch, capsys):
    """A pair that raises keeps its seed, gets null results and its error, and
    the comparison goes on; more than 10 % failed pairs exit 2."""
    import safefw.harness as hmod

    real = hmod.run_single

    def flaky(res, seed, variant=None, ro_budget=None):
        if seed % 2 == 1:
            raise RuntimeError("synthetic failure")
        return real(res, seed, variant, ro_budget)

    monkeypatch.setattr(hmod, "run_single", flaky)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, "sigma": 0.1, "repetitions": 4,
                                "out_dir": str(tmp_path / "cmp")}))
    assert cli_main(["compare", "--config", str(path)]) == 2
    saved = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    assert saved["seeds"] == [0, 1, 2, 3]
    assert saved["errors"] == [None, "RuntimeError: synthetic failure"] * 2
    for key in ("sfw_final", "ro_final", "budgets"):
        assert [v is None for v in saved[key]] == [False, True, False, True]
    wins = sum(a <= b + hmod.FEAS_TOL for a, b in zip(saved["sfw_final"][::2], saved["ro_final"][::2]))
    assert saved["sfw_wins"] == wins and saved["fraction_sfw_better"] == wins / 4
    assert capsys.readouterr().out == f"pairs=4 sfw_wins={wins} fraction_sfw_better={wins / 4:.3f}\n"
    assert sorted(f.name for f in (tmp_path / "cmp").glob("*.csv")) == [
        "ro_rep000.csv", "ro_rep002.csv", "sfw_rep000.csv", "sfw_rep002.csv"]


def test_mean_curve_decays(tmp_path):
    cfg = d2_config(repetitions=5, out_dir=str(tmp_path / "decay"))
    summary = run_experiment(cfg)
    assert summary.mean_curve[0] == 1.0
    assert summary.mean_curve[-1] <= 0.25


def test_csv_columns_reproduce_record_exactly(tmp_path):
    cfg = d2_config(sigma=0.0, repetitions=1, out_dir=str(tmp_path / "exact"))
    res = resolve(cfg)
    rec, rep = run_single(res, cfg.base_seed)
    path = tmp_path / "exact.csv"
    h0 = res.setup.objective.value(res.setup.x0) - res.f_star
    write_trajectory_csv(rec, res.f_star, h0, path)
    cols = load_trajectory_csv(path)
    for t, row in enumerate(rec.rows):
        assert cols["f_gap"][t] == row.f - res.f_star
        assert cols["normalized_gap"][t] == (row.f - res.f_star) / h0
        assert cols["n_t"][t] == row.n_t
        assert cols["N_t"][t] == row.N_t
        assert cols["safe_flag"][t] == row.verdict.safe
        assert cols["feasible_flag"][t] == row.feasible
        assert cols["fact2_lhs"][t] == row.verdict.lhs
        assert cols["min_margin"][t] == row.verdict.min_margin
        if t < rec.steps():
            assert cols["ghat"][t] == row.ghat
