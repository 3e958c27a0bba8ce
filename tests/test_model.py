import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet.analysis import (
    CompositionProfile,
    balance_check,
    independence_test,
    large_deviations_rate,
    log_norm_const_scaling,
    queues_share_pool,
)
from switchnet.config import parse_config
from switchnet.metrics import SimConfig, collect_joint
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
    two_colouring,
)
from switchnet.normconst import log_norm_const_neighbours
from switchnet.presets import load_example
from switchnet.propfair import sf_pf_gap
from switchnet.sim import simulate_backpressure, simulate_prop_sched, simulate_store_forward
from switchnet.storeforward import StationarySampler, expected_route_delay, log_stationary_weight

from oracles import norm_const_table


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
    # a path is never truncated or read from booleans
    for path in ((0.7, 1.2), (0, math.nan), (0, math.inf), (0, True), np.array([True])):
        with pytest.raises(ValueError, match="route 'r' path"):
            Route(id="r", path=path, rate=0.1)


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
    # a 17-cycle is neither bipartite nor small enough for the brute force
    g = InterferenceGraph.from_edges(17, [(v, (v + 1) % 17) for v in range(17)])
    with pytest.raises(CapExceededError):
        is_perfect(g)


def test_bipartite_graphs_are_perfect_past_the_cap():
    # the 4x5 grid has 20 vertices, past the brute force's 16
    grid = [(4 * r + c, 4 * r + c + 1) for r in range(5) for c in range(3)]
    grid += [(v, v + 4) for v in range(16)]
    assert is_perfect(InterferenceGraph.from_edges(20, grid))


def test_two_colouring_puts_each_component_s_smaller_class_on_side_0():
    # a star 0-{1,2,3}, an edge 4-5, an isolated vertex 6
    side = two_colouring(7, [(0, 1), (0, 2), (0, 3), (4, 5)])
    assert side.tolist() == [0, 1, 1, 1, 0, 1, 1]
    assert two_colouring(3, [(0, 1), (1, 2), (0, 2)]) is None
    assert two_colouring(4, [(0, 1), (1, 2), (2, 3)]).tolist() == [0, 1, 0, 1]


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


_POOL = CapacityPolytope(np.array([[1.0, 1.0]]))
_TANDEM = load_example("tandem")
_ONE_EDGE = load_example("one-edge")
_SCHEDULES = [[0, 0], [1, 0], [0, 1], [0.5, 0]]

# every input the library reads as an integer, each fed one fractional entry
FRACTIONAL_INPUTS = {
    "graph-edges": lambda: InterferenceGraph(3, frozenset({(0, 1.7)})),
    "from-edges": lambda: InterferenceGraph.from_edges(3, [(0, 1.7)]),
    "schedule-list": lambda: NetworkSpec(3, [Route("r", (0,), 0.1)], [[0.9, 0, 1]]),
    "table-shape": lambda: norm_const_table(_POOL, (3.7, 2)),
    "fifo-queue-vector": lambda: log_stationary_weight(
        [1.9, 0], ((0,), ()), _TANDEM.spec, _TANDEM.polytope),
    "initial-occupancy": lambda: simulate_store_forward(
        _TANDEM.spec, _TANDEM.polytope, SimConfig(horizon=5, seed=0), initial=(1.7, 0)),
    "backpressure-schedules": lambda: simulate_backpressure(
        _ONE_EDGE.spec, _SCHEDULES, SimConfig(horizon=20, seed=0)),
    "prop-sched-schedules": lambda: simulate_prop_sched(
        _ONE_EDGE.spec, _SCHEDULES, SimConfig(horizon=20, seed=0)),
    "joint-pair": lambda: collect_joint(np.zeros((3, 2), dtype=int), (0.9, 1)),
    "gap-queue-vector": lambda: sf_pf_gap([3.5, 1], _POOL, [1]),
    "gap-scale": lambda: sf_pf_gap([3, 1], _POOL, [1.5]),
    "balance-move": lambda: balance_check(
        ([1, 0], ((0,), ())), ("move", 0.4), _TANDEM.spec, _TANDEM.polytope),
    "balance-arrival": lambda: balance_check(
        ([1, 0], ((0,), ())), ("arrival", 0.4), _TANDEM.spec, _TANDEM.polytope),
    "independence-pair": lambda: independence_test(
        StationarySampler(_TANDEM.spec, _TANDEM.polytope, seed=0).sample_queues(10_000),
        (0.9, 1), _TANDEM.polytope),
    "scaling-queue-vector": lambda: log_norm_const_scaling([3.5, 1], _POOL, [1, 2]),
    "scaling-scale": lambda: log_norm_const_scaling([3, 1], _POOL, [2.9]),
}


@pytest.mark.parametrize("name", sorted(FRACTIONAL_INPUTS))
def test_fractional_integer_inputs_refused(name):
    with pytest.raises(ValueError, match="must hold integers"):
        FRACTIONAL_INPUTS[name]()


_MERGE = load_example("merge")
_TANDEM_MIX = [[[1.0], [1.0]]]


def _tandem_draws():
    return StationarySampler(_TANDEM.spec, _TANDEM.polytope, seed=0).sample_queues(10_000)


def _slotted_config(engine):
    return {"kind": "simulate", "network": "one-edge", "sim": {"engine": engine, "horizon": 2.5}}


# inputs that name no queue, hold a real that is not finite or ask for a
# fraction of a slot, each with the refusal it must meet
OUT_OF_RANGE_INPUTS = {
    "sf-pair-negative": lambda: simulate_store_forward(
        _MERGE.spec, _MERGE.polytope, SimConfig(horizon=5, seed=0, pairs=((-1, 0),))),
    "sf-pair-past-last": lambda: simulate_store_forward(
        _MERGE.spec, _MERGE.polytope, SimConfig(horizon=5, seed=0, pairs=((3, 0),))),
    "backpressure-pair-negative": lambda: simulate_backpressure(
        _ONE_EDGE.spec, _ONE_EDGE.schedules(), SimConfig(horizon=5, seed=0, pairs=((-1, 0),))),
    "backpressure-pair-past-last": lambda: simulate_backpressure(
        _ONE_EDGE.spec, _ONE_EDGE.schedules(), SimConfig(horizon=5, seed=0, pairs=((2, 0),))),
    "prop-sched-pair-negative": lambda: simulate_prop_sched(
        _ONE_EDGE.spec, _ONE_EDGE.schedules(), SimConfig(horizon=5, seed=0, pairs=((-1, 0),))),
    "prop-sched-pair-past-last": lambda: simulate_prop_sched(
        _ONE_EDGE.spec, _ONE_EDGE.schedules(), SimConfig(horizon=5, seed=0, pairs=((2, 0),))),
    "joint-pair-negative": lambda: collect_joint(np.zeros((3, 2), dtype=int), (-1, 1)),
    "joint-pair-past-last": lambda: collect_joint(np.zeros((3, 2), dtype=int), (2, 1)),
    "share-pool-negative": lambda: queues_share_pool(_MERGE.polytope, -1, 2),
    "share-pool-past-last": lambda: queues_share_pool(_MERGE.polytope, 3, 2),
    "independence-pair-negative": lambda: independence_test(
        _tandem_draws(), (-1, 0), _TANDEM.polytope),
    "independence-pair-past-last": lambda: independence_test(
        _tandem_draws(), (2, 0), _TANDEM.polytope),
    "delay-route-path": lambda: expected_route_delay(
        Route("x", (-1,), 0.1), _TANDEM.spec, _TANDEM.polytope),
    "pools-of-negative": lambda: _MERGE.polytope.pools_of(-1),
    "pools-of-past-last": lambda: _MERGE.polytope.pools_of(3),
    "members-negative": lambda: _MERGE.polytope.members(-1),
    "neighbors-negative": lambda: _ONE_EDGE.graph.neighbors(-1),
    "adjacent-past-last": lambda: _ONE_EDGE.graph.adjacent(0, 5),
}
# a queue paired with itself: one rule, at every site that takes a pair
SELF_PAIR_INPUTS = {
    "config-self-pair": lambda: parse_config(
        {"kind": "independence", "network": "k22", "independence": {"pairs": [[1, 2], [0, 0]]}}),
    "sim-config-self-pair": lambda: SimConfig(horizon=5, pairs=((0, 1), (1, 1))),
    "joint-self-pair": lambda: collect_joint(np.zeros((3, 2), dtype=int), (1, 1)),
    "independence-self-pair": lambda: independence_test(_tandem_draws(), (0, 0), _TANDEM.polytope),
}
NON_FINITE_INPUTS = {
    "profile-breakpoints": lambda: CompositionProfile(
        [[0, 0], [np.nan, 1]], _TANDEM_MIX, _TANDEM.spec),
    "profile-mix": lambda: CompositionProfile(
        [[0, 0], [1, 1]], [[[np.nan], [1.0]]], _TANDEM.spec),
    "rate-queue-vector": lambda: large_deviations_rate(
        [np.nan, 0], CompositionProfile([[0, 0], [0, 0]], _TANDEM_MIX, _TANDEM.spec),
        _TANDEM.spec, _TANDEM.polytope),
    "delay-visits-nan": lambda: expected_route_delay([np.nan, 1], _TANDEM.spec, _TANDEM.polytope),
    "delay-visits-inf": lambda: expected_route_delay([np.inf, 1], _TANDEM.spec, _TANDEM.polytope),
}
REFUSED_INPUTS = {
    **{name: ("must lie in", call) for name, call in OUT_OF_RANGE_INPUTS.items()},
    **{name: ("must be finite", call) for name, call in NON_FINITE_INPUTS.items()},
    **{name: ("distinct queues", call) for name, call in SELF_PAIR_INPUTS.items()},
    "backpressure-fractional-slots": ("slot horizon must hold integers", lambda: simulate_backpressure(
        _ONE_EDGE.spec, _ONE_EDGE.schedules(), SimConfig(horizon=2.9, batches=2, warmup_fraction=0))),
    "prop-sched-fractional-slots": ("slot horizon must hold integers", lambda: simulate_prop_sched(
        _ONE_EDGE.spec, _ONE_EDGE.schedules(), SimConfig(horizon=2.9, batches=2, warmup_fraction=0))),
    "config-backpressure-slots": ("sim.horizon", lambda: parse_config(_slotted_config("backpressure"))),
    "config-prop-sched-slots": ("sim.horizon", lambda: parse_config(_slotted_config("prop-sched"))),
}


@pytest.mark.parametrize("name", sorted(REFUSED_INPUTS))
def test_inputs_naming_no_queue_or_not_finite_refused(name):
    match, call = REFUSED_INPUTS[name]
    with pytest.raises(ValueError, match=match):
        call()


def test_integer_valued_floats_match_int_arrays():
    q = np.array([3, 1])
    base, nbr = log_norm_const_neighbours(q, _POOL)
    base_f, nbr_f = log_norm_const_neighbours(q.astype(float), _POOL)
    assert base_f == base and nbr_f.tobytes() == nbr.tobytes()
    a = log_norm_const_scaling([3.0, 1.0], _POOL, [1.0, 4.0])
    b = log_norm_const_scaling(q, _POOL, [1, 4])
    assert a.scales == b.scales and a.values.tobytes() == b.values.tobytes()
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    spec = NetworkSpec(2, _ONE_EDGE.spec.routes, sched.astype(float))
    assert spec.capacity.dtype == np.int64 and np.array_equal(spec.capacity, sched)
    cfg = SimConfig(horizon=200, seed=3, pairs=((0.0, 1.0),))
    assert cfg.pairs == ((0, 1),)
    for run in (simulate_backpressure, simulate_prop_sched):
        a = run(_ONE_EDGE.spec, sched, cfg, initial=(2, 1))
        b = run(_ONE_EDGE.spec, sched.astype(float), cfg, initial=(2.0, 1.0))
        assert a.to_rows() == b.to_rows()
        assert a.joint_histograms[(0, 1)].tobytes() == b.joint_histograms[(0, 1)].tobytes()
