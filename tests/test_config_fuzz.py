"""A standing fuzzer of the CLI. Under `validate-config` the shipped configs,
with fields set to extremes, NaN, wrong types or removed, either validate or
fail with exactly one `config error:` line, and never raise or warn; written
at another scale they keep their verdict unless the precision bound refuses
them; under `run` and `compare` they end within a deadline with exit 0, 1 or 2
and no traceback."""

import contextlib
import copy
import io
import json
import math
import re
import signal
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefw.cli import main as cli_main
from safefw.harness import MAX_PROBE_SCALE, MAX_T, VARIANTS, ExperimentConfig, resolve

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
# Every shipped config in d = 2, the explicit polytope among them
PLANE_CONFIGS = [path for path in CONFIGS if json.loads(path.read_text())["problem"].get("d", 2) == 2]
FIELDS = sorted(ExperimentConfig.__dataclass_fields__)
SECTION_FIELDS = {"problem": ["type", "d", "half_width", "A", "b"], "objective": ["type", "x_prime"]}
# No value here asks for a large allocation: a box dimension is either small or
# far past what numpy will allocate.
EXTREMES = [
    0, -1, 1, 3, 2**53 + 1, 10**400, -(10**400), 1e308, -1e308, 1e-300, 5e-324, -5e-324,
    math.nan, math.inf, -math.inf, True, False, None, "", "auto", "x",
    [], [1.0], [1e308, -1e308], [10**400, 0], [math.nan, 0.0], {}, {"type": "box"},
]


def _polytope(scale: float, scale_b: bool) -> dict:
    """The unit square as an explicit polytope, every row scaled (and b too when asked)."""
    rows = [[scale, 0.0], [0.0, scale], [-scale, 0.0], [0.0, -scale]]
    return {"type": "polytope", "A": rows, "b": [scale if scale_b else 1.0] * 4}


paths = st.one_of(
    st.sampled_from(FIELDS).map(lambda name: (name,)),
    st.sampled_from([(section, key) for section, keys in SECTION_FIELDS.items() for key in keys]),
)
mutations = st.one_of(
    st.tuples(st.just("set"), paths, st.sampled_from(EXTREMES)),
    st.tuples(st.just("delete"), paths, st.none()),
    st.tuples(st.just("entry"), st.sampled_from([("x0",), ("objective", "x_prime")]), st.sampled_from(EXTREMES)),
    st.tuples(st.just("polytope"), st.sampled_from([1e-200, 1e-160, 1e-154, 1e-3, 1.0, 1e154, 1e160, 1e200]),
              st.booleans()),
)


def _mutate(raw: dict, mutation) -> None:
    action, where, value = copy.deepcopy(mutation)
    if action == "polytope":
        raw["problem"] = _polytope(where, value)
        return
    *parents, key = where
    target = raw
    for name in parents:
        if not isinstance(target.get(name), dict):
            return
        target = target[name]
    if action == "delete":
        target.pop(key, None)
    elif action == "entry":
        if isinstance(target.get(key), list) and target[key]:
            target[key][0] = value
    else:
        target[key] = value


def _validate(path: Path) -> tuple[int, str, str]:
    """validate-config's exit code, stdout and stderr; it must not warn."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["validate-config", "--config", str(path)])
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CONFIGS), st.lists(mutations, min_size=1, max_size=3))
def test_mutated_configs_validate_or_print_one_config_error(config_path, source, changes):
    raw = json.loads(source.read_text())
    raw.setdefault("objective", {"type": "quadratic"})  # so that its fields can be mutated
    for change in changes:
        _mutate(raw, change)
    config_path.write_text(json.dumps(raw))
    code, out, err = _validate(config_path)
    if code == 0:
        assert out.startswith("config ok") and not err
    else:
        assert code == 1 and not out
        assert err.startswith("config error: ") and err.count("\n") == 1


def _scaled(raw: dict, k: int, j: int) -> dict:
    """A d = 2 config with its polytope (a box written out as rows) scaled: every row
    and b times 10^k, which leaves the set as it is, and the coordinates x0, x',
    omega0, b and sigma times 10^j."""
    raw, rows, coords = copy.deepcopy(raw), 10.0**k, 10.0**j
    problem = raw["problem"]
    if problem["type"] == "box":
        half_width = problem.get("half_width", 1.0)
        problem = {"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [half_width] * 4}
    raw["problem"] = {"type": "polytope", "A": [[rows * a for a in row] for row in problem["A"]],
                      "b": [rows * coords * b for b in problem["b"]]}
    raw["objective"] = {**raw.get("objective", {}), "x_prime": [coords * x for x in
                                                              raw.get("objective", {}).get("x_prime", [2.0, 0.5])]}
    raw.update(x0=[coords * x for x in raw.get("x0", [0.0, 0.0])], omega0=coords * raw.get("omega0", 0.01),
               sigma=coords * raw.get("sigma", 0.01))
    return raw


def _template(line: str) -> str:
    """The line with every number masked."""
    return re.sub(r"[-+]?\d+(\.\d*)?(e[-+]?\d+)?", "#", line)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PLANE_CONFIGS), st.integers(-100, 100), st.one_of(st.integers(-4, 6), st.integers(-100, 100)))
def test_scaled_configs_keep_their_verdict(config_path, source, k, j):
    """A shipped d = 2 config with rows times 10^k and coordinates times 10^j
    gets the verdict and message of its scale-1 form, numbers masked, while
    its probe scale max(gamma0, 1) / min(omega0, 1) stays within the precision
    bound; past it, a precision refusal: the bound, or the estimator's rank
    test, which refuses crosses too narrow to span at all (all far past it)."""
    raw = json.loads(source.read_text())
    config_path.write_text(json.dumps(_scaled(raw, 0, 0)))
    expected = _validate(config_path)
    config_path.write_text(json.dumps(_scaled(raw, k, j)))
    code, out, err = _validate(config_path)
    assert (out + err).count("\n") == 1
    res = resolve(ExperimentConfig.from_dict(_scaled(raw, 0, 0)))
    if max(10.0**j * res.setup.geometry.gamma0, 1.0) / min(10.0**j * res.cfg.omega0, 1.0) <= MAX_PROBE_SCALE:
        assert (code, _template(out), _template(err)) == (expected[0], _template(expected[1]), _template(expected[2]))
    else:
        assert code == 1 and not out and re.match(r"config error: (the probe scale .* exceeds the precision bound|"
                                                  r"omega0 .* is too small for the probe cross at x0 to span)", err), err


# The run/compare half draws the fields that set how much work a run asks for
# from fixed sets: T from small values and from values past MAX_T, never from
# accepted values near the cap (RO takes about 3 ms per iteration at d = 2), and
# at most 20,000 measurements. The prescribed schedule does not read
# max_total_measurements, so cn is drawn from values whose runs stay short as
# well: an auto cn asks for 10^6 to 10^9 measurements on these problems. RO
# spends max_total_measurements on its one-shot estimate, so the same values
# bound its work (below 2(d+1) they are a config error there). `compare`
# runs on the d = 2 configs only: at d = 10 its RO half takes about a second
# per iteration.
WORK_FIELDS = {"T", "max_total_measurements", "cn", "repetitions", "variant"}
RUN_T = [3, 4, 5, 6, MAX_T + 1, 10**20]
RUN_SECONDS = 10  # deadline per example; every example ends in well under a second
D2_CONFIGS = [path for path in CONFIGS if json.loads(path.read_text())["problem"].get("d") == 2]


class Hung(BaseException):
    """Raised by the deadline alarm; not an Exception, so no failed-seed handler records it."""


def _hang(signum, frame):
    raise Hung(f"no exit within {RUN_SECONDS} s")


commands = st.one_of(st.tuples(st.just("run"), st.sampled_from(CONFIGS)),
                     st.tuples(st.just("compare"), st.sampled_from(D2_CONFIGS)))
run_mutations = st.one_of(
    st.tuples(st.just("set"), paths.filter(lambda path: path[-1] not in WORK_FIELDS), st.sampled_from(EXTREMES)),
    st.tuples(st.just("delete"), paths.filter(lambda path: path[-1] not in WORK_FIELDS), st.none()),
    st.tuples(st.just("entry"), st.sampled_from([("x0",), ("objective", "x_prime")]), st.sampled_from(EXTREMES)),
    st.tuples(st.just("polytope"), st.sampled_from([1e-200, 1e-3, 1.0, 1e200]), st.booleans()),
)
work = st.fixed_dictionaries({
    "variant": st.sampled_from(VARIANTS),
    "T": st.sampled_from(RUN_T),
    "max_total_measurements": st.sampled_from([4, 1000, 5000, 20_000]),
    "cn": st.sampled_from([1, 96]),
})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(commands, st.lists(run_mutations, max_size=1), work)
def test_mutated_configs_run_and_compare_end_with_an_exit_code(tmp_path_factory, command, changes, fields):
    """One repetition of `run` or `compare` on a mutated config exits 0, 1 or 2
    within RUN_SECONDS, with no traceback; a T past MAX_T exits 1 at once."""
    command, source = command
    raw = json.loads(source.read_text())
    raw.setdefault("objective", {"type": "quadratic"})
    for change in changes:
        _mutate(raw, change)
    raw.update(fields)
    out_dir = tmp_path_factory.mktemp(command)
    path = out_dir / "cfg.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(RUN_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli_main([command, "--config", str(path), "--reps", "1", "--out", str(out_dir / "out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
    if raw["T"] > MAX_T:
        assert code == 1
