from __future__ import annotations

from pathlib import Path

import pytest

from snarkcrit.graph_io import (
    blanusa,
    complete4,
    dumbbell,
    flower_snark,
    parse_graph6,
    petersen,
    theta,
)

DATA_DIR = Path(__file__).parent / "data"
CORPUS_PATH = DATA_DIR / "snarks_order_le28.g6"


@pytest.fixture(scope="session")
def corpus_path() -> Path:
    return CORPUS_PATH


@pytest.fixture(scope="session")
def petersen_graph():
    return petersen()


@pytest.fixture(scope="session")
def k4():
    return complete4()


@pytest.fixture(scope="session")
def theta_graph():
    return theta()


@pytest.fixture(scope="session")
def dumbbell_graph():
    return dumbbell()


@pytest.fixture(scope="session")
def bridged_snark_g6() -> str:
    """Two Petersen graphs, each with one edge subdivided, whose two new
    vertices are joined by a bridge (order 22)."""
    return "UHeA@GUAo????@??_@G?O?@??AO?Ao?@Z????B?G"


@pytest.fixture(scope="session")
def bridged_snark(bridged_snark_g6):
    return parse_graph6(bridged_snark_g6)


@pytest.fixture(scope="session")
def smoke_set():
    """The dumbbell-free verification set: Petersen, both Blanusa, J5, J7."""
    return {
        "petersen": petersen(),
        "blanusa1": blanusa(1),
        "blanusa2": blanusa(2),
        "flower5": flower_snark(5),
        "flower7": flower_snark(7),
    }
