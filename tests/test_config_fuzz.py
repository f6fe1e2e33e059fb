"""A standing fuzzer of `safefw validate-config`: the shipped configs, with
fields set to extremes, NaN, wrong types or removed, either validate or fail
with exactly one `config error:` line, and never raise or warn."""

import contextlib
import copy
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefw.cli import main as cli_main
from safefw.harness import ExperimentConfig

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
