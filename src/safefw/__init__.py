"""Feasible Frank-Wolfe over polytopes learned online from noisy measurements.

The optimizer keeps every iterate inside an unknown linear constraint set with
high probability: it probes around the trajectory, maintains running
least-squares constraint estimates with confidence ellipsoids, and only steps
to points certified by the resulting safety set.
"""

from .estimator import ConstraintEstimator, phi_inverse
from .harness import ExperimentConfig, compare_sfw_ro, run_experiment
from .lp import LpProblem, LpSolution, solve
from .oracle import ConstraintOracle, NoiseModel, cross_pattern
from .problem import (
    GeometryConstants,
    Objective,
    Polytope,
    box_geometry_constants,
    box_polytope,
    geometry_constants,
    sweep,
)
from .ro import ro_run, soc_linmin
from .safety import (
    SafetyConfig,
    SafetyVerdict,
    cn_lower_bound,
    fact2_check,
    make_safety_config,
    margins,
    nt_schedule,
)
from .sfw import (
    ProblemSetup,
    SfwConfig,
    TrajectoryRecord,
    et_bound,
    run,
    run_fw_reference,
    surrogate_gap,
)

__all__ = [
    "ConstraintEstimator",
    "ConstraintOracle",
    "ExperimentConfig",
    "GeometryConstants",
    "LpProblem",
    "LpSolution",
    "NoiseModel",
    "Objective",
    "Polytope",
    "ProblemSetup",
    "SafetyConfig",
    "SafetyVerdict",
    "SfwConfig",
    "TrajectoryRecord",
    "box_geometry_constants",
    "box_polytope",
    "cn_lower_bound",
    "compare_sfw_ro",
    "cross_pattern",
    "et_bound",
    "fact2_check",
    "geometry_constants",
    "make_safety_config",
    "margins",
    "nt_schedule",
    "phi_inverse",
    "ro_run",
    "run",
    "run_experiment",
    "run_fw_reference",
    "soc_linmin",
    "solve",
    "surrogate_gap",
    "sweep",
]

__version__ = "0.1.0"
