"""The package's public name list."""

import macc


def test_every_public_name_resolves_once():
    names = macc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(macc, name)] == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from macc import *", namespace)
    assert set(macc.__all__) <= set(namespace)
