"""The package's public names: ``__all__`` lists only what the package binds."""

import crsolve


def test_every_exported_name_exists():
    missing = [name for name in crsolve.__all__ if not hasattr(crsolve, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(crsolve.__all__) == len(set(crsolve.__all__))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from crsolve import *", namespace)
    assert set(crsolve.__all__) <= namespace.keys()
