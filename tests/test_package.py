"""The package's public surface: `ttexplore.__all__` lists only what exists."""

import ttexplore


def test_every_exported_name_is_an_attribute_of_the_package():
    assert [name for name in ttexplore.__all__
            if not hasattr(ttexplore, name)] == []


def test_a_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ttexplore import *", namespace)
    assert set(ttexplore.__all__) <= set(namespace)
