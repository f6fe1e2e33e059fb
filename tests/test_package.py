"""The package's public surface."""

import safefw


def test_every_export_imports():
    namespace: dict = {}
    exec("from safefw import *", namespace)  # raises AttributeError on a stale name in __all__
    assert set(safefw.__all__) <= set(namespace)
    assert len(set(safefw.__all__)) == len(safefw.__all__)
