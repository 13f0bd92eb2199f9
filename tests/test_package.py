"""The package's public surface: `ttexplore.__all__` lists only what exists."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ttexplore


def test_every_exported_name_is_an_attribute_of_the_package():
    assert [name for name in ttexplore.__all__
            if not hasattr(ttexplore, name)] == []


def test_a_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ttexplore import *", namespace)
    assert set(ttexplore.__all__) <= set(namespace)


def test_only_the_validated_configs_are_dataclasses():
    """The configs and backends check themselves when made, and
    `dataclasses.replace` re-runs those checks; every other record is a
    NamedTuple or a plain class, which a fresh process builds faster."""
    classes = {obj for info in pkgutil.iter_modules(ttexplore.__path__)
               for obj in vars(importlib.import_module(
                   f"ttexplore.{info.name}")).values()
               if inspect.isclass(obj) and obj.__module__.startswith("ttexplore")}
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} \
        == {"RunConfig", "PipelineConfig", "ScriptedBackend", "RemoteBackend"}


def test_a_fresh_import_loads_neither_logging_nor_decimal():
    """The loggers and the summary means import them at first use."""
    code = ("import sys, ttexplore, ttexplore.cli; "
            "print([m for m in ('logging', 'decimal') if m in sys.modules])")
    src = str(Path(ttexplore.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
