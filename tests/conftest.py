import warnings

import numpy as np
import pytest

from switchnet.model import (
    CapacityPolytope,
    InterferenceGraph,
    NetworkSpec,
    Route,
    cliques_to_polytope,
)


@pytest.fixture
def single_pool():
    """Two queues sharing one unit pool; rates 0.2 / 0.3."""
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    spec = NetworkSpec(
        n_queues=2,
        routes=[
            Route(id="r0", path=(0,), rate=0.2),
            Route(id="r1", path=(1,), rate=0.3),
        ],
        capacity=poly,
    )
    return spec, poly


@pytest.fixture
def single_pool_sym():
    """Shared pool with equal rates 0.3 / 0.3 (the correlated pair)."""
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    spec = NetworkSpec(
        n_queues=2,
        routes=[
            Route(id="r0", path=(0,), rate=0.3),
            Route(id="r1", path=(1,), rate=0.3),
        ],
        capacity=poly,
    )
    return spec, poly


@pytest.fixture
def pooled_route():
    """One two-hop route through a single shared pool; rate 0.3."""
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    spec = NetworkSpec(
        n_queues=2,
        routes=[Route(id="r0", path=(0, 1), rate=0.3)],
        capacity=poly,
    )
    return spec, poly


@pytest.fixture
def tandem():
    """Two dedicated queues in series; rate 0.5."""
    poly = CapacityPolytope(np.eye(2))
    spec = NetworkSpec(
        n_queues=2,
        routes=[Route(id="r0", path=(0, 1), rate=0.5)],
        capacity=poly,
    )
    return spec, poly


@pytest.fixture
def merge():
    """Two feeders joining a shared final hop (three dedicated pools)."""
    poly = CapacityPolytope(np.eye(3))
    spec = NetworkSpec(
        n_queues=3,
        routes=[
            Route(id="a", path=(0, 2), rate=0.15),
            Route(id="b", path=(2,), rate=0.3),
            Route(id="c", path=(1, 2), rate=0.1),
        ],
        capacity=poly,
    )
    return spec, poly


@pytest.fixture
def cycle4():
    """Interference 4-cycle with single-hop routes, rate 0.3 each."""
    g = InterferenceGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "pool matrix is not full row rank", UserWarning)
        poly = cliques_to_polytope(g)
    spec = NetworkSpec(
        n_queues=4,
        routes=[Route(id=f"r{j}", path=(j,), rate=0.3) for j in range(4)],
        capacity=g,
    )
    return spec, poly, g


@pytest.fixture
def one_edge():
    """Two queues joined by one interference edge, rates 0.3 / 0.3."""
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    poly = cliques_to_polytope(g)
    spec = NetworkSpec(
        n_queues=2,
        routes=[
            Route(id="r0", path=(0,), rate=0.3),
            Route(id="r1", path=(1,), rate=0.3),
        ],
        capacity=g,
    )
    return spec, poly, g


@pytest.fixture
def tandem4():
    """Four-hop line, no interference, load 0.8."""
    g = InterferenceGraph.from_edges(4, [])
    poly = CapacityPolytope(np.eye(4))
    spec = NetworkSpec(
        n_queues=4,
        routes=[Route(id="r0", path=(0, 1, 2, 3), rate=0.8)],
        capacity=g,
    )
    return spec, poly, g
