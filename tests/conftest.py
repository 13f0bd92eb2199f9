import pytest
import yaml

from ttexplore import load_builtin_world
from ttexplore.policies import scripted
from ttexplore.world import builtin_world_path, load_world


@pytest.fixture
def minihouse1():
    return load_builtin_world("minihouse1")


@pytest.fixture
def minihouse2():
    return load_builtin_world("minihouse2")


@pytest.fixture
def keymaze1():
    return load_builtin_world("keymaze1")


@pytest.fixture
def oracle():
    return scripted("actor", "oracle-actor")


@pytest.fixture
def greedy():
    return scripted("actor", "greedy-actor")


@pytest.fixture
def oracle_thinker():
    return scripted("thinker", "oracle-thinker")


@pytest.fixture
def open_fridge(tmp_path):
    """minihouse1 with the fridge already open: the task starts at 33.33."""
    doc = yaml.safe_load(builtin_world_path("minihouse1").read_text(encoding="utf-8"))
    doc["entities"]["fridge 1"]["open"] = True
    doc["tasks"][0]["allow_initial_subgoals"] = True
    path = tmp_path / "open-fridge.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return load_world(path)
