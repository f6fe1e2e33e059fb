"""A standing fuzzer of the CLI. Under `validate-config` the shipped configs,
with fields set to extremes, NaN, wrong types or removed, either validate or
fail with exactly one `config error:` line, and never raise or warn; under
`run` and `compare` they end within a deadline with exit 0, 1 or 2 and no
traceback."""

import contextlib
import copy
import io
import json
import math
import signal
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefw.cli import main as cli_main
from safefw.harness import MAX_T, VARIANTS, ExperimentConfig

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["validate-config", "--config", str(config_path)])
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert out.getvalue().startswith("config ok") and not err.getvalue()
    else:
        assert code == 1 and not out.getvalue()
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1


# The run/compare half draws the fields that set how much work a run asks for
# from fixed sets: T from small values and from values past MAX_T, never from
# accepted values near the cap (RO takes about 3 ms per iteration at d = 2), and
# at most 20,000 measurements. The prescribed schedule does not read
# max_total_measurements, so cn is drawn from values whose runs stay short as
# well: an auto cn asks for 10^6 to 10^9 measurements on these problems. RO's
# one-shot estimate past max_total_measurements is a config error. `compare`
# runs on the d = 2 configs only: at d = 10 its RO half takes about a second
# per iteration.
WORK_FIELDS = {"T", "max_total_measurements", "cn", "ro_total_measurements", "repetitions", "variant"}
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
    "ro_total_measurements": st.sampled_from([None, 2000, 20_000]),
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
