import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet.model import (
    CapacityPolytope,
    CapExceededError,
    InterferenceGraph,
    NetworkSpec,
    NetworkValidationError,
    Route,
    cliques_to_polytope,
    compute_loads,
    enumerate_schedules,
    is_perfect,
)


def test_route_validation():
    with pytest.raises(NetworkValidationError):
        Route(id="r", path=(), rate=0.1)
    with pytest.raises(NetworkValidationError):
        Route(id="r", path=(0, 1, 0), rate=0.1)
    with pytest.raises(NetworkValidationError):
        Route(id="r", path=(0,), rate=0.0)
    with pytest.raises(NetworkValidationError):
        Route(id="r", path=(0,), rate=-0.2)
    for rate in (math.inf, math.nan):
        with pytest.raises(NetworkValidationError):
            Route(id="r", path=(0,), rate=rate)


def test_spec_validation():
    poly = CapacityPolytope(np.eye(2))
    with pytest.raises(NetworkValidationError):
        NetworkSpec(n_queues=2, routes=[Route(id="r", path=(5,), rate=0.1)], capacity=poly)
    with pytest.raises(NetworkValidationError):
        NetworkSpec(
            n_queues=2,
            routes=[
                Route(id="dup", path=(0,), rate=0.1),
                Route(id="dup", path=(1,), rate=0.1),
            ],
            capacity=poly,
        )
    with pytest.raises(NetworkValidationError):
        NetworkSpec(n_queues=3, routes=[Route(id="r", path=(0,), rate=0.1)], capacity=poly)


@st.composite
def _route_sets(draw):
    J = draw(st.integers(1, 6))
    path = st.permutations(range(J)).flatmap(
        lambda p: st.integers(1, J).map(lambda k: tuple(p[:k])))
    paths = draw(st.lists(path, min_size=1, max_size=6))
    rates = draw(st.lists(st.floats(1e-3, 10.0), min_size=len(paths), max_size=len(paths)))
    return J, [Route(id=f"r{i}", path=p, rate=a) for i, (p, a) in enumerate(zip(paths, rates))]


@settings(max_examples=60, deadline=None)
@given(_route_sets())
def test_route_table_matches_paths(route_set):
    J, routes = route_set
    spec = NetworkSpec(n_queues=J, routes=routes, capacity=CapacityPolytope(np.eye(J)))
    assert spec.next_hop.shape == (J + 1, len(routes))
    loads = [0.0] * J
    for i, r in enumerate(routes):
        for j in range(J):
            if j not in r.path:
                assert spec.next_hop[j, i] == -2
            elif j == r.path[-1]:
                assert spec.next_hop[j, i] == -1
            else:
                assert spec.next_hop[j, i] == r.path[r.path.index(j) + 1]
        assert spec.next_hop[-1, i] == r.path[0]
        for j in r.path:
            loads[j] += r.rate
    assert spec.queue_loads.tolist() == loads


def test_polytope_validation():
    with pytest.raises(NetworkValidationError):
        CapacityPolytope(np.array([[1.0, -0.5]]))
    with pytest.raises(NetworkValidationError):
        CapacityPolytope(np.array([[1.0, 0.0], [1.0, 0.0]]))  # queue 1 in no pool
    for bad in (np.nan, np.inf):
        with pytest.raises(NetworkValidationError, match="finite"):
            CapacityPolytope(np.array([[1.0, bad]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CapacityPolytope(np.array([[1.0, 1.0], [2.0, 2.0]]))  # rank deficient is valid


def test_loads_single_pool(single_pool):
    spec, poly = single_pool
    lp = compute_loads(spec, poly)
    np.testing.assert_allclose(lp.queue_loads, [0.2, 0.3])
    np.testing.assert_allclose(lp.pool_loads, [0.5])
    assert lp.admissible


def test_loads_two_hop_identity(tandem):
    spec, poly = tandem
    lp = compute_loads(spec, poly)
    np.testing.assert_allclose(lp.queue_loads, [0.5, 0.5])
    np.testing.assert_allclose(lp.pool_loads, [0.5, 0.5])
    assert lp.admissible


def test_loads_boundary_violation():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    spec = NetworkSpec(
        n_queues=2,
        routes=[
            Route(id="r0", path=(0,), rate=0.6),
            Route(id="r1", path=(1,), rate=0.5),
        ],
        capacity=poly,
    )
    lp = compute_loads(spec, poly)
    np.testing.assert_allclose(lp.pool_loads, [1.1])
    assert not lp.admissible


def test_loads_linear(merge):
    spec, poly = merge
    base = compute_loads(spec, poly)
    doubled = NetworkSpec(
        n_queues=spec.n_queues,
        routes=[Route(id=r.id, path=r.path, rate=2 * r.rate) for r in spec.routes],
        capacity=poly,
    )
    lp2 = compute_loads(doubled, poly)
    np.testing.assert_allclose(lp2.queue_loads, 2 * base.queue_loads)
    np.testing.assert_allclose(lp2.pool_loads, 2 * base.pool_loads)


def test_loads_dimension_mismatch(single_pool):
    spec, _ = single_pool
    with pytest.raises(NetworkValidationError):
        compute_loads(spec, CapacityPolytope(np.eye(3)))


def test_cliques_four_cycle():
    g = InterferenceGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    poly = cliques_to_polytope(g)
    assert poly.matrix.shape == (4, 4)
    rows = {tuple(r) for r in poly.matrix.astype(int)}
    assert rows == {(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)}


def test_cliques_complete_bipartite():
    # K_{2,2}: parts {0, 3} and {1, 2}; its cliques are the 4 edges.
    g = InterferenceGraph.from_edges(4, [(0, 1), (0, 2), (3, 1), (3, 2)])
    poly = cliques_to_polytope(g)
    assert poly.n_pools == 4
    assert np.all(poly.matrix.sum(axis=1) == 2)


def test_cliques_triangle():
    g = InterferenceGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    poly = cliques_to_polytope(g)
    assert poly.matrix.shape == (1, 3)
    np.testing.assert_array_equal(poly.matrix, [[1.0, 1.0, 1.0]])


def test_cliques_isolated_vertex():
    g = InterferenceGraph.from_edges(3, [(0, 1)])
    poly = cliques_to_polytope(g)
    rows = {tuple(r) for r in poly.matrix.astype(int)}
    assert (0, 0, 1) in rows


def test_cliques_empty_graph_error():
    with pytest.raises(NetworkValidationError):
        InterferenceGraph.from_edges(0, [])


def test_schedules_one_edge():
    g = InterferenceGraph.from_edges(2, [(0, 1)])
    s = enumerate_schedules(g)
    assert {tuple(v) for v in s} == {(0, 0), (1, 0), (0, 1)}


def test_schedules_no_constraints():
    g = InterferenceGraph.from_edges(2, [])
    s = enumerate_schedules(g)
    assert {tuple(v) for v in s} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_schedules_triangle():
    g = InterferenceGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    s = enumerate_schedules(g)
    assert {tuple(v) for v in s} == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_schedules_downward_closed(cycle4):
    _, _, g = cycle4
    sched = {tuple(v) for v in enumerate_schedules(g)}
    for s in sched:
        for j in range(len(s)):
            if s[j]:
                smaller = list(s)
                smaller[j] = 0
                assert tuple(smaller) in sched


def test_schedules_cap():
    g = InterferenceGraph.from_edges(30, [(0, 1)])
    with pytest.raises(CapExceededError):
        enumerate_schedules(g)


def test_perfect_flags():
    c5 = InterferenceGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert not is_perfect(c5)
    c4 = InterferenceGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_perfect(c4)
    k22 = InterferenceGraph.from_edges(4, [(0, 1), (0, 2), (3, 1), (3, 2)])
    assert is_perfect(k22)
    # C7 complement: the odd hole hides in the complement.
    c7c = InterferenceGraph.from_edges(
        7,
        [
            (i, j)
            for i in range(7)
            for j in range(i + 1, 7)
            if (j - i) % 7 not in (1, 6)
        ],
    )
    assert not is_perfect(c7c)


def test_perfect_cap():
    g = InterferenceGraph.from_edges(20, [(0, 1)])
    with pytest.raises(CapExceededError):
        is_perfect(g)


def _polytope_vertices(matrix):
    """Vertices of {s >= 0, matrix @ s <= 1} by basis enumeration."""
    L, J = matrix.shape
    rows = np.vstack([matrix, -np.eye(J)])
    rhs = np.concatenate([np.ones(L), np.zeros(J)])
    verts = []
    for idx in itertools.combinations(range(L + J), J):
        sub = rows[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, rhs[list(idx)])
        if np.all(rows @ v <= rhs + 1e-9):
            verts.append(np.round(v, 12))
    return {tuple(v) for v in verts}


def test_clique_polytope_vertices_are_schedules(one_edge, cycle4):
    # Perfect graphs: every polytope vertex is a 0/1 schedule indicator.
    for fixture in (one_edge, cycle4):
        _, poly, g = fixture
        sched = {tuple(map(float, v)) for v in enumerate_schedules(g)}
        assert _polytope_vertices(poly.matrix) == sched
