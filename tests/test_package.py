"""The package's public surface and its documentation."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import safefw
from safefw.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
# written whole to JSON by asdict, so a field with no reader in the code is still output
SERIALIZED_CLASSES = {"ExperimentConfig", "RepResult", "ComparisonReport"}
FIELD = "field"  # tags a field's name: only an attribute read that is not a call reads a field


def test_every_export_imports():
    namespace: dict = {}
    exec("from safefw import *", namespace)  # raises AttributeError on a stale name in __all__
    assert set(safefw.__all__) <= set(namespace)
    assert len(set(safefw.__all__)) == len(safefw.__all__)


def _unreached(definitions, appearances, readers=("bench",)) -> list[str]:
    """Labels of the definitions in src/safefw (not __init__.py) whose name
    appears nowhere in src/safefw outside its own definition, nor in the
    reader directories (bench/ by default)."""
    sources = sorted(p for p in (ROOT / "src" / "safefw").glob("*.py") if p.name != "__init__.py")
    extra = sorted(p for reader in readers for p in (ROOT / reader).glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in sources + extra}
    seen = {p: list(appearances(tree)) for p, tree in trees.items()}
    missing = []
    for path in sources:
        for label, name, node in definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                n == name and (p != path or line not in own) for p, found in seen.items() for n, line in found
            ):
                missing.append(f"{path.stem}.{label}")
    return missing


def _public_definitions(tree):
    """(label, name, node) for each public top-level function and class, and
    each public method or property of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item.name, item


def _appearances(tree):
    """(name, line) for each name, attribute, imported name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_public_name_has_a_caller_outside_tests():
    """No public name in src/safefw exists only for the tests: each is used
    elsewhere in the package (outside __init__.py and its own definition) or in
    bench/, whose tracer patches functions by their string names."""
    unused = _unreached(_public_definitions, _appearances)
    assert not unused, f"public names that only tests reach: {unused}"


def _private_definitions(tree):
    """(label, name, node) for each private top-level function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node.name, node.name, node


def test_every_private_helper_is_used():
    """No private top-level function or class in src/safefw is dead code: each
    is referenced in src/safefw outside its own definition."""
    dead = _unreached(_private_definitions, _appearances, readers=())
    assert not dead, f"private helpers that nothing in src/safefw references: {dead}"


def _class_members(tree):
    """(label, member, node) for each public method, property and annotated
    field of each public top-level class; a field's member is (FIELD, name)."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_") or cls.name in SERIALIZED_CLASSES:
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{cls.name}.{name}", name if isinstance(item, ast.FunctionDef) else (FIELD, name), item


def _reads(tree):
    """(name, line) for each attribute read and each string constant, and
    (FIELD, name) for each of them that is not the callee of a call: a call
    `obj.name(...)` reads a method of that name, so `polytope.margins(x)`
    does not count as a read of a field named `margins`."""
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        yield name, node.lineno
        if id(node) not in callees:
            yield (FIELD, name), node.lineno


def test_every_class_member_is_read_outside_tests():
    """No class in src/safefw stores a member that only the tests read: each
    public method, property and field is read elsewhere in the package (outside
    __init__.py and its own definition) or in bench/, a field by a read that
    is not a call."""
    unread = _unreached(_class_members, _reads)
    assert not unread, f"class members that only tests read: {unread}"


def _named_constants(tree):
    """The nodes whose literals have a name: the value of each module-level
    assignment to UPPER_CASE names only, and each field default of a class
    whose name ends in Config."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            if names and all(n.id.isupper() for n in names):
                yield node.value
        elif isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
            yield from (item.value for item in node.body if isinstance(item, ast.AnnAssign) and item.value is not None)


def test_no_bare_small_float_literal():
    """Every float literal below 1e-3 in src/safefw is a tolerance or a
    default, so it has a name: a module-level UPPER_CASE constant or a field
    default of a config class. A bare one is a tolerance nobody can find."""
    bare = []
    for path in sorted((ROOT / "src" / "safefw").glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(n) for value in _named_constants(tree) for n in ast.walk(value)}
        bare += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, float)
                 and 0.0 < abs(node.value) < 1e-3 and id(node) not in named]
    assert not bare, f"bare float literals below 1e-3: {bare}"


def test_readme_example_runs_and_shipped_configs_validate(tmp_path, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    configs = sorted((ROOT / "configs").glob("*.json"))
    assert configs
    for path in configs:
        assert cli_main(["validate-config", "--config", str(path)]) == 0, capsys.readouterr().err
