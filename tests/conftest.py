import pathlib

import numpy as np
import pytest

from isacbounds import SystemParams, engine

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def load(name: str):
    return engine.load_scenario((SCENARIO_DIR / f"{name}.json").read_text())


def map_rows(result: engine.Heatmap) -> list[tuple]:
    """(x, y, value, flag) of every cell of an engine.heatmap result, in
    its row-major y-then-x order."""
    cells = [(x, y) for y in result.ys.tolist() for x in result.xs.tolist()]
    return [(x, y, value, flag)
            for (x, y), value, flag in zip(cells, result.values.tolist(), result.flags)]


@pytest.fixture
def params() -> SystemParams:
    return SystemParams()


@pytest.fixture
def mono4():
    return load("mono4")


@pytest.fixture
def mono2():
    return load("mono2")


@pytest.fixture
def multistatic3():
    return load("multistatic3")


@pytest.fixture
def multistatic2():
    return load("multistatic2")


@pytest.fixture
def ring8():
    return load("ring8")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
