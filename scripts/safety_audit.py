"""Safety audit of adaptive SFW over 500 seeds.

Runs the adaptive variant on the unit box at d = 2, sigma = 0.1, omega0 =
0.01, delta = 0.1, T = 15 with a 400,000-measurement budget, for seeds 0-499,
through `harness.resolve` and `run_single`. It counts two kinds of run:

- a run with a coverage miss: some row the safety test certified (its
  verdict safe; x0's row counts like every other) has a snapshot whose
  confidence ellipsoids miss the true beta of some constraint
  (`confidence_membership_arrays`);
- a run with an iterate violation: some iterate lies outside the true
  polytope.

It exits 1 unless the one-sided 95 % Clopper-Pearson upper bound of each
per-run rate lies below delta. Needs scipy (the `test` extras). Run it from
the repository root:

    PYTHONPATH=src python3 scripts/safety_audit.py
"""

import sys

from scipy.stats import beta

from safefw.estimator import confidence_membership_arrays
from safefw.harness import ExperimentConfig, resolve, run_single

CONFIG = {
    "problem": {"type": "box", "d": 2},
    "sigma": 0.1,
    "omega0": 0.01,
    "delta": 0.1,
    "T": 15,
    "variant": "adaptive",
    "max_total_measurements": 400_000,
}
SEEDS = 500
CONFIDENCE = 0.95


def upper_bound(k: int, n: int) -> float:
    """One-sided Clopper-Pearson upper bound at CONFIDENCE on a rate of k in n."""
    return 1.0 if k == n else float(beta.ppf(CONFIDENCE, k + 1, n - k))


def main() -> int:
    res = resolve(ExperimentConfig.from_dict(CONFIG))
    sigma = res.cfg.sigma
    phi = res.safety.phi_delta / sigma
    miss_runs = violation_runs = certified_rows = missed_rows = 0
    for seed in range(SEEDS):
        rec, rep = run_single(res, seed)
        missed = 0
        for row in rec.rows:
            if row.verdict is not None and row.verdict.safe:
                certified_rows += 1
                missed += not confidence_membership_arrays(*row.snapshot, sigma, phi, res.beta_true).all()
        missed_rows += missed
        miss_runs += missed > 0
        violation_runs += rep.iterate_violations > 0
    delta = res.cfg.delta
    print(f"{SEEDS} runs; {missed_rows} of {certified_rows} certified rows missed some true beta")
    passed = True
    for name, k in (("a coverage miss", miss_runs), ("an iterate violation", violation_runs)):
        bound = upper_bound(k, SEEDS)
        passed &= bound < delta
        print(f"runs with {name}: {k} of {SEEDS}, 95% upper bound {bound:.4f} (delta {delta})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
