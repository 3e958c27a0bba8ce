"""Bundled example networks.

Each preset packages a NetworkSpec together with its capacity
description so demos, tests, and the CLI can pull a ready-made
network by name.  The catalogue covers the interference-graph
topologies used throughout (input-queued switch, square grid,
triangular grid, odd cycle) plus small teaching networks with
closed-form answers (tandem line, shared pool).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CapacityPolytope,
    InterferenceGraph,
    NetworkSpec,
    Route,
    cliques_to_polytope,
    compute_loads,
    is_perfect,
)


@dataclass(frozen=True)
class ExamplePreset:
    """A named example network.

    graph is None for presets defined directly by a pool matrix.
    perfect is None when the capacity region was not derived from
    an interference graph.
    """

    name: str
    description: str
    spec: NetworkSpec
    polytope: CapacityPolytope
    graph: InterferenceGraph | None = None
    perfect: bool | None = None
    notes: str = ""

    def schedules(self) -> np.ndarray:
        """Schedule list, available only for graph-backed presets."""
        return self.spec.schedule_list()

    def loads(self):
        return compute_loads(self.spec, self.polytope)


def _from_matrix(name, desc, matrix, routes, labels=None, notes=""):
    poly = CapacityPolytope(np.asarray(matrix, dtype=float), pool_labels=labels)
    spec = NetworkSpec(n_queues=poly.n_queues, routes=routes, capacity=poly)
    return ExamplePreset(name, desc, spec, poly, notes=notes)


def _from_graph(name, desc, n, edges, routes, notes=""):
    g = InterferenceGraph.from_edges(n, edges)
    poly = cliques_to_polytope(g)
    spec = NetworkSpec(n_queues=n, routes=routes, capacity=g)
    return ExamplePreset(
        name, desc, spec, poly, graph=g, perfect=is_perfect(g), notes=notes
    )


def _vertex_routes(n, rate):
    return [Route(id=f"r{j}", path=(j,), rate=rate) for j in range(n)]


def _single_pool() -> ExamplePreset:
    routes = [
        Route(id="r0", path=(0,), rate=0.2),
        Route(id="r1", path=(1,), rate=0.3),
    ]
    return _from_matrix(
        "single-pool",
        "two queues sharing one unit-capacity pool",
        [[1.0, 1.0]],
        routes,
        labels=("shared",),
        notes="allocation is exactly proportional to queue length",
    )


def _pooled_route() -> ExamplePreset:
    routes = [Route(id="r0", path=(0, 1), rate=0.3)]
    return _from_matrix(
        "pooled-route",
        "one two-hop route whose stages share a single pool",
        [[1.0, 1.0]],
        routes,
        labels=("shared",),
        notes="mean end-to-end delay 2*0.6/(1-0.6) = 3 visits worth; closed form 5.0",
    )


def _tandem() -> ExamplePreset:
    routes = [Route(id="r0", path=(0, 1), rate=0.5)]
    return _from_matrix(
        "tandem",
        "two queues in series, dedicated pools",
        np.eye(2),
        routes,
        notes="mean end-to-end delay 2/(1-0.5) = 4.0",
    )


def _tandem4() -> ExamplePreset:
    routes = [Route(id="r0", path=(0, 1, 2, 3), rate=0.8)]
    g = InterferenceGraph.from_edges(4, [])
    poly = CapacityPolytope(np.eye(4))
    spec = NetworkSpec(n_queues=4, routes=routes, capacity=g)
    return ExamplePreset(
        "tandem4",
        "four-hop line at load 0.8, no interference",
        spec,
        poly,
        graph=g,
        perfect=True,
        notes="backpressure teaching example: stationary queues decrease along the line",
    )


def _merge() -> ExamplePreset:
    routes = [
        Route(id="a", path=(0, 2), rate=0.15),
        Route(id="b", path=(2,), rate=0.3),
        Route(id="c", path=(1, 2), rate=0.1),
    ]
    return _from_matrix(
        "merge",
        "two feeder queues merging into a shared final hop",
        np.eye(3),
        routes,
        notes="queue 2 mixes all three routes in ratio 3:6:2",
    )


def _one_edge() -> ExamplePreset:
    routes = [
        Route(id="r0", path=(0,), rate=0.3),
        Route(id="r1", path=(1,), rate=0.3),
    ]
    return _from_graph(
        "one-edge",
        "two conflicting queues (a single interference edge)",
        2,
        [(0, 1)],
        routes,
    )


def _k22() -> ExamplePreset:
    # Queues are the four input/output pairs of a 2x2 crossbar.
    # Two queues conflict iff they share an input or an output port,
    # which is the complete bipartite graph K_{2,2}.
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    routes = [
        Route(id="in0out0", path=(0,), rate=0.3),
        Route(id="in0out1", path=(1,), rate=0.3),
        Route(id="in1out0", path=(2,), rate=0.3),
        Route(id="in1out1", path=(3,), rate=0.3),
    ]
    return _from_graph(
        "k22",
        "2x2 input-queued switch (complete bipartite interference)",
        4,
        edges,
        routes,
        notes="perfect graph; cliques are the four port-sharing pairs",
    )


def _cycle4() -> ExamplePreset:
    routes = _vertex_routes(4, 0.3)
    return _from_graph(
        "cycle4",
        "four queues on an interference 4-cycle",
        4,
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        routes,
        notes="even cycle, perfect; allocations can differ from pure length proportions",
    )


def _grid3x3() -> ExamplePreset:
    # 3x3 square lattice, queue (row, col) -> index 3*row + col,
    # interference between lattice neighbours.
    edges = []
    for r in range(3):
        for c in range(3):
            j = 3 * r + c
            if c + 1 < 3:
                edges.append((j, j + 1))
            if r + 1 < 3:
                edges.append((j, j + 3))
    routes = _vertex_routes(9, 0.3)
    return _from_graph(
        "grid3x3",
        "3x3 square-grid interference (wireless mesh fragment)",
        9,
        edges,
        routes,
        notes="bipartite, hence perfect; cliques are the 12 lattice edges",
    )


def _tri_grid() -> ExamplePreset:
    # Triangulated strip: two rows of nodes with crossing diagonals.
    #   0 - 1 - 2
    #    \ / \ /
    #     3 - 4
    edges = [(0, 1), (1, 2), (3, 4), (0, 3), (1, 3), (1, 4), (2, 4)]
    routes = _vertex_routes(5, 0.3)
    return _from_graph(
        "tri-grid",
        "triangular-grid interference strip",
        5,
        edges,
        routes,
        notes="chordal, hence perfect; maximal cliques are triangles",
    )


def _odd_cycle5() -> ExamplePreset:
    routes = _vertex_routes(5, 0.3)
    return _from_graph(
        "odd-cycle-5",
        "five queues on an odd interference cycle",
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        routes,
        notes="not perfect: the clique polytope strictly contains the schedule hull",
    )


_BUILDERS = {
    "single-pool": _single_pool,
    "pooled-route": _pooled_route,
    "tandem": _tandem,
    "tandem4": _tandem4,
    "merge": _merge,
    "one-edge": _one_edge,
    "k22": _k22,
    "cycle4": _cycle4,
    "grid3x3": _grid3x3,
    "tri-grid": _tri_grid,
    "odd-cycle-5": _odd_cycle5,
}


def list_examples() -> list[ExamplePreset]:
    """All bundled examples, in catalogue order."""
    return [build() for build in _BUILDERS.values()]


def example_names() -> list[str]:
    return list(_BUILDERS)


def load_example(name: str) -> ExamplePreset:
    try:
        build = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise KeyError(f"unknown example {name!r}; known examples: {known}") from None
    return build()


def scaled_rates(preset: ExamplePreset, pool_load: float) -> NetworkSpec:
    """Rescale arrival rates so the busiest pool sits at the given load."""
    if pool_load <= 0:
        raise ValueError("pool_load must be positive")
    current = compute_loads(preset.spec, preset.polytope).pool_loads.max()
    factor = pool_load / current
    routes = [
        Route(id=r.id, path=r.path, rate=r.rate * factor) for r in preset.spec.routes
    ]
    return NetworkSpec(
        n_queues=preset.spec.n_queues, routes=routes, capacity=preset.spec.capacity
    )
