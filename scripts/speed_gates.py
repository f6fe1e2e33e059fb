"""Time the adaptive-loop speed gates.

A gate run is one adaptive `run_single` on the unit box at seed 0, T = 15,
sigma = 0.1 (every other field at its config default), at d = 10 (gate
1.5 s) and at d = 20 (gate 8 s). Each run is a fresh child process that
imports safefw from one source tree and times `run_single` alone, in
process CPU time and in wall time. The runs alternate over the trees and
the two d, round after round, and the script prints, per tree and d, the
median and quartiles of each time and the run's measurement total N and
extra-batch count, which must not differ between runs of one tree.

Timings on shared machines drift by tens of percent between runs, so this
is a measuring tool, not a pass/fail check. Run it from the repository
root; give several trees to compare them under the same conditions:

    python3 scripts/speed_gates.py --runs 10
    python3 scripts/speed_gates.py --runs 10 --src src ../other-checkout/src
"""

import argparse
import json
import statistics
import subprocess
import sys

GATES = {10: 1.5, 20: 8.0}  # seconds

CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from safefw.harness import ExperimentConfig, resolve, run_single
res = resolve(ExperimentConfig.from_dict({"problem": {"type": "box", "d": int(sys.argv[2])}, "sigma": 0.1,
                                          "T": 15, "variant": "adaptive", "repetitions": 1}))
cpu, wall = time.process_time(), time.perf_counter()
rec, rep = run_single(res, 0)
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
print(json.dumps({"cpu": cpu, "wall": wall, "N": rep.n_total, "extras": sum(rec.extra_batches), "status": rep.status}))
"""


def quartiles(values: list[float]) -> str:
    """Median and quartiles, as 'median (lower-upper)'."""
    if len(values) < 2:
        return f"{values[0]:.3f}"
    lower, median, upper = statistics.quantiles(values, n=4)
    return f"{median:.3f} ({lower:.3f}-{upper:.3f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs of each gate per tree (default 10)")
    parser.add_argument("--src", nargs="+", default=["src"], help="source trees to import safefw from (default: src)")
    args = parser.parse_args()
    results = {(src, d): [] for src in args.src for d in GATES}
    for _ in range(args.runs):
        for src in args.src:
            for d in GATES:
                done = subprocess.run([sys.executable, "-c", CHILD, src, str(d)], capture_output=True, text=True, check=True)
                results[src, d].append(json.loads(done.stdout.splitlines()[-1]))
    for (src, d), runs in results.items():
        counts = {(r["N"], r["extras"], r["status"]) for r in runs}
        if len(counts) != 1:
            raise RuntimeError(f"{src} d = {d}: runs disagree on (N, extras, status): {sorted(counts)}")
        N, extras, status = counts.pop()
        print(f"{src}  d = {d} (gate {GATES[d]} s), {len(runs)} runs:  cpu {quartiles([r['cpu'] for r in runs])} s,"
              f"  wall {quartiles([r['wall'] for r in runs])} s;  N {N:,}, extras {extras:,}, {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
