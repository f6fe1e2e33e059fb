"""Experiment orchestration: config validation, determinism, exports, CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from safefw.cli import main as cli_main
from safefw.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    compare_sfw_ro,
    load_trajectory_csv,
    resolve,
    run_experiment,
    run_single,
    write_trajectory_csv,
)
from safefw.sfw import TrajectoryRecord

SRC = Path(__file__).resolve().parents[1] / "src"
PIN = json.loads((Path(__file__).with_name("data") / "pin_box_d2_seed3.json").read_text())


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
        dict(variant="ro"),  # missing ro_total_measurements
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
    cfg = d2_config(variant="ro", ro_total_measurements=500, repetitions=2, out_dir=str(tmp_path / "ro"))
    summary = run_experiment(cfg)
    assert summary.failed_fraction == 0.0
    assert all(r.n_total >= 500 for r in summary.reps)


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


UNIT_SQUARE = {"type": "polytope", "A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [1, 1, 1, 1]}


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"sigma": math.nan}, "sigma must be a finite number", id="nan-sigma"),
        pytest.param({"T": "15"}, "T must be an integer", id="string-T"),
        pytest.param({"problem": {"type": "box", "d": 2.7}}, "problem.d must be an integer", id="fractional-d"),
        pytest.param({"problem": [2]}, "problem must be a JSON object", id="list-problem"),
        pytest.param({"objective": "quadratic"}, "objective must be a JSON object", id="string-objective"),
        pytest.param({"problem": {"type": "box", "d": 2, "half_width": None}}, "problem.half_width must be a finite",
                     id="null-half-width"),
        pytest.param({"x0": {"a": 1}}, "x0 must be a list of 2 finite numbers", id="dict-x0"),
        pytest.param({"confidence_mode": "bogus"}, "unknown config fields: ['confidence_mode']",
                     id="bogus-confidence-mode"),
        pytest.param({"phi_delta_override": 1.0}, "unknown config fields: ['phi_delta_override']",
                     id="phi-delta-override"),
        pytest.param({"cn": None}, "cn must be a finite number, got None", id="null-cn"),
        pytest.param({"noise_kind": "cauchy"}, "unknown noise_kind 'cauchy'", id="cauchy-noise"),
        pytest.param({"objective": {"x_prime": [0, 0]}}, "x0 is already optimal", id="optimal-x0"),
        pytest.param({"variant": "ro", "ro_total_measurements": -5}, "ro_total_measurements must be at least",
                     id="negative-ro-budget"),
        pytest.param({"ro_total_measurements": 5}, "ro_total_measurements must be at least", id="small-ro-budget"),
        pytest.param({"out_dir": 5}, "out_dir must be a string", id="int-out-dir"),
        pytest.param({"variant": "prescribed", "cn": 0}, "needs a positive cn", id="zero-cn-prescribed"),
        pytest.param({"variant": "prescribed", "sigma": 0.0}, "needs a positive cn", id="auto-cn-zero-noise-prescribed"),
        pytest.param({"max_total_measurements": -5}, "must cover one cross", id="negative-measurement-budget"),
        pytest.param({"max_total_measurements": 3}, "must cover one cross", id="sub-cross-measurement-budget"),
        pytest.param({"problem": {**UNIT_SQUARE, "b": [1, 1, 1, math.nan]}}, "polytope A and b must be finite",
                     id="nan-b"),
        pytest.param({"problem": {**UNIT_SQUARE, "A": [[1, 0], [0, 1], [-1, math.inf], [0, -1]]}},
                     "polytope A and b must be finite", id="inf-A"),
        pytest.param({"omega0": 1e300}, "omega0 must not exceed the polytope's diameter 2.82843", id="huge-omega0"),
        pytest.param({"problem": {"type": "box", "d": 2, "halfwidth": 0.5}}, "unknown problem fields: ['halfwidth']",
                     id="misspelled-half-width"),
        pytest.param({"objective": {"x_prme": [0.1, 0.1]}}, "unknown objective fields: ['x_prme']",
                     id="misspelled-x-prime"),
        pytest.param({"problem": {"type": "box", "d": 2, "A": [[1, 0]]}}, "unknown problem fields: ['A']", id="box-with-A"),
        pytest.param({"base_seed": -1}, "base_seed must be >= 0", id="negative-seed"),
    ],
)
def test_validate_config_rejects_bad_values(tmp_path, capsys, recwarn, overrides, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": {"type": "box", "d": 2}, **overrides}))
    assert cli_main(["validate-config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not recwarn.list


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


PIN_OVERRIDES = {"prescribed": {"cn": 96.0}, "ro": {"ro_total_measurements": 2000}}


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


def test_general_polytope_config(tmp_path):
    p = {
        "type": "polytope",
        "A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
        "b": [1.0, 1.0, 1.0, 1.0, 1.5],
    }
    cfg = d2_config(problem=p, repetitions=2, out_dir=str(tmp_path / "gp"))
    summary = run_experiment(cfg)
    assert summary.failed_fraction == 0.0
    assert summary.violation_rate == 0.0


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
