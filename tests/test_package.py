"""The package's public surface."""

import ast
from pathlib import Path

import safefw

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_imports():
    namespace: dict = {}
    exec("from safefw import *", namespace)  # raises AttributeError on a stale name in __all__
    assert set(safefw.__all__) <= set(namespace)
    assert len(set(safefw.__all__)) == len(safefw.__all__)


def _public_definitions(tree):
    """(name, node) for each public top-level function and class, and each
    public method or property of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


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
    sources = sorted(p for p in (ROOT / "src" / "safefw").glob("*.py") if p.name != "__init__.py")
    trees = {p: ast.parse(p.read_text()) for p in sources + sorted((ROOT / "bench").glob("*.py"))}
    seen = {p: list(_appearances(tree)) for p, tree in trees.items()}
    unused = []
    for path in sources:
        for name, node in _public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                n == name and (p != path or line not in own) for p, found in seen.items() for n, line in found
            ):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names that only tests reach: {unused}"
