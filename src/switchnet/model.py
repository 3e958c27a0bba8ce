"""Network topology: queues, routes, interference graphs and capacity polytopes.

Queues are integer-indexed 0..J-1.  A route is an ordered sequence of distinct
queues with a Poisson arrival rate.  Capacity is described either by a
nonnegative pool matrix A (one row per pool, ``A s <= 1`` feasible), by an
interference graph whose maximal cliques become the pools, or by an explicit
list of integer schedules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class NetworkValidationError(ValueError):
    """A network description violates a structural requirement."""


class CapExceededError(RuntimeError):
    """An enumeration size cap was exceeded."""


# vertex caps of the exponential enumerations
SCHEDULE_CAP = 24
PERFECTION_CAP = 16


def as_integers(x, name: str) -> np.ndarray:
    """``x`` as an int64 array: the one rule for every integer input.  Integer
    arrays pass unchanged and integer-valued floats give the same values;
    fractions, NaN, infinities and booleans raise ValueError naming ``name``."""
    a = np.asarray(x)
    if a.dtype.kind in "fu":
        with np.errstate(invalid="ignore"):
            i = a.astype(np.int64)
        a = i if np.array_equal(i, a) else a
    if a.dtype.kind != "i" or (a.ndim and not isinstance(x, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)):
        raise ValueError(f"{name} must hold integers, got {x!r}")
    return a.astype(np.int64, copy=False)


def as_indices(x, n: int, name: str) -> np.ndarray:
    """``as_integers(x, name)`` with every entry in 0..n-1: the one rule for an
    index.  NetworkValidationError naming ``name`` and the range otherwise."""
    a = as_integers(x, name)
    if not all(0 <= v < n for v in a.flat):
        raise NetworkValidationError(f"{name} must lie in 0..{n - 1}, got {x!r}")
    return a


def as_pairs(x, name: str, n: int | None = None) -> np.ndarray:
    """``x`` as rows (j, k) of two distinct queues, in 0..n-1 when ``n`` is given:
    the one rule for queue pairs.  NetworkValidationError naming ``name`` otherwise."""
    a = as_integers(x, name) if n is None else as_indices(x, n, name)
    if a.size and (a.shape[1:] != (2,) or np.any(a[:, 0] == a[:, 1])):
        raise NetworkValidationError(f"{name} must be (queue, queue) rows of distinct queues, got {x!r}")
    return a


def as_finite(x, name: str) -> np.ndarray:
    """``x`` as a float array: the one rule for a real input.  NaN and
    infinities raise ValueError naming ``name``."""
    a = np.asarray(x, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


# -------------------- basic types --------------------


@dataclass(frozen=True)
class Route:
    """One traffic class: identifier, ordered queue path, arrival rate."""

    id: str
    path: tuple[int, ...]
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(as_integers(self.path, f"route {self.id!r} path").tolist()))
        if len(self.path) == 0:
            raise NetworkValidationError(f"route {self.id!r}: empty path")
        if len(set(self.path)) != len(self.path):
            raise NetworkValidationError(
                f"route {self.id!r}: queues on a route must be distinct"
            )
        if not 0.0 < self.rate < math.inf:
            raise NetworkValidationError(
                f"route {self.id!r}: rate must be positive and finite, got {self.rate}"
            )


@dataclass(frozen=True)
class InterferenceGraph:
    """Undirected conflict graph on queues: an edge means 'cannot serve together'.

    ``adj[v]`` is the bitmask of v's neighbours, derived once from the edges.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n <= 0:
            raise NetworkValidationError("interference graph needs at least one vertex")
        norm = set()
        adj = [0] * self.n
        for u, v in as_indices(list(self.edges), self.n, "interference edges").tolist():
            if u == v:
                raise NetworkValidationError(f"self-loop on vertex {u}")
            norm.add((min(u, v), max(u, v)))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_edges(cls, n: int, pairs) -> "InterferenceGraph":
        return cls(n=n, edges=frozenset(map(tuple, pairs)))

    def adjacent(self, u: int, v: int) -> bool:
        u, v = as_indices((u, v), self.n, "vertices").tolist()
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> set[int]:
        v = as_indices(v, self.n, "vertex").item()
        return {u for u in range(self.n) if self.adj[v] >> u & 1}

    def complement(self) -> "InterferenceGraph":
        comp = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not self.adj[u] >> v & 1
        ]
        return InterferenceGraph.from_edges(self.n, comp)


@dataclass(frozen=True)
class CapacityPolytope:
    """Feasible rate region {s >= 0 : matrix @ s <= 1}, one row per pool."""

    matrix: np.ndarray
    pool_labels: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
            raise NetworkValidationError("pool matrix must be 2-d and nonempty")
        if not np.isfinite(a).all():
            raise NetworkValidationError("pool matrix entries must be finite")
        if np.any(a < 0):
            raise NetworkValidationError("pool matrix entries must be nonnegative")
        if np.any(a.sum(axis=0) == 0):
            dead = np.flatnonzero(a.sum(axis=0) == 0).tolist()
            raise NetworkValidationError(
                f"queues {dead} belong to no pool (zero column in pool matrix)"
            )
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        labels = self.pool_labels
        if not labels:
            labels = tuple(f"pool{l}" for l in range(a.shape[0]))
        if len(labels) != a.shape[0]:
            raise NetworkValidationError("pool_labels length must match pool count")
        object.__setattr__(self, "pool_labels", tuple(labels))

    @property
    def n_pools(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_queues(self) -> int:
        return self.matrix.shape[1]

    def members(self, l: int) -> list[int]:
        return np.flatnonzero(self.matrix[as_indices(l, self.n_pools, "pool").item()] > 0).tolist()

    def pools_of(self, j: int) -> list[int]:
        return np.flatnonzero(self.matrix[:, as_indices(j, self.n_queues, "queue").item()] > 0).tolist()


@dataclass(frozen=True)
class NetworkSpec:
    """Queues plus routes plus a capacity description.

    ``capacity`` is a CapacityPolytope, an InterferenceGraph, or an explicit
    integer schedule array of shape (n_schedules, n_queues).

    The route structure is derived once, as two read-only arrays:
    ``next_hop[j, r]`` is the queue route r visits after queue j, -1 when j
    is its last hop and -2 when the route misses j; the extra row
    ``next_hop[-1]`` holds each route's first queue, so an arrival is a hop
    from -1.  ``queue_loads[j]`` is a_j, the summed rate of the routes
    through j, added in route order.
    """

    n_queues: int
    routes: tuple[Route, ...]
    capacity: object
    queue_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n_queues <= 0:
            raise NetworkValidationError("need at least one queue")
        object.__setattr__(self, "routes", tuple(self.routes))
        seen = set()
        hop = np.full((self.n_queues + 1, len(self.routes)), -2, dtype=np.int64)
        loads = np.zeros(self.n_queues)
        for i, r in enumerate(self.routes):
            if r.id in seen:
                raise NetworkValidationError(f"duplicate route id {r.id!r}")
            seen.add(r.id)
            as_indices(r.path, self.n_queues, f"route {r.id!r} path")
            hop[(-1,) + r.path, i] = r.path + (-1,)
            loads[list(r.path)] += r.rate
        hop.setflags(write=False)
        loads.setflags(write=False)
        object.__setattr__(self, "next_hop", hop)
        object.__setattr__(self, "queue_loads", loads)
        labels = self.queue_labels
        if not labels:
            labels = tuple(f"q{j}" for j in range(self.n_queues))
        if len(labels) != self.n_queues:
            raise NetworkValidationError("queue_labels length must match n_queues")
        object.__setattr__(self, "queue_labels", tuple(labels))
        cap = self.capacity
        if isinstance(cap, CapacityPolytope):
            if cap.n_queues != self.n_queues:
                raise NetworkValidationError(
                    f"pool matrix has {cap.n_queues} columns, network has {self.n_queues} queues"
                )
        elif isinstance(cap, InterferenceGraph):
            if cap.n != self.n_queues:
                raise NetworkValidationError(
                    f"interference graph has {cap.n} vertices, network has {self.n_queues} queues"
                )
        else:
            s = as_integers(cap, "schedule list")
            if s.ndim != 2 or s.shape[1] != self.n_queues:
                raise NetworkValidationError(
                    "schedule list must be a 2-d array with one column per queue"
                )
            if np.any(s < 0):
                raise NetworkValidationError("schedules must be nonnegative integer vectors")
            object.__setattr__(self, "capacity", s)

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    def rates(self) -> np.ndarray:
        return np.array([r.rate for r in self.routes], dtype=float)

    def capacity_polytope(self) -> CapacityPolytope:
        """Resolve the capacity description to a pool matrix."""
        cap = self.capacity
        if isinstance(cap, CapacityPolytope):
            return cap
        if isinstance(cap, InterferenceGraph):
            return cliques_to_polytope(cap)
        raise NetworkValidationError(
            "deriving pool constraints from an explicit schedule list is not supported; "
            "supply a pool matrix or an interference graph"
        )

    def schedule_list(self) -> np.ndarray:
        cap = self.capacity
        if isinstance(cap, InterferenceGraph):
            return enumerate_schedules(cap)
        if isinstance(cap, CapacityPolytope):
            raise NetworkValidationError(
                "schedule enumeration needs an interference graph or an explicit "
                "schedule list; a bare pool matrix does not determine the schedules"
            )
        return cap


@dataclass(frozen=True)
class LoadProfile:
    """Per-queue and per-pool loads induced by the route rates."""

    queue_loads: np.ndarray
    pool_loads: np.ndarray
    admissible: bool


# -------------------- operations --------------------


def compute_loads(spec: NetworkSpec, polytope: CapacityPolytope) -> LoadProfile:
    """Per-queue load a_j = sum of rates of routes through j; per-pool load
    a_l = sum_j A[l,j] a_j.  Admissible iff every pool load is < 1."""
    if polytope.n_queues != spec.n_queues:
        raise NetworkValidationError(
            f"dimension mismatch: polytope has {polytope.n_queues} queues, spec has {spec.n_queues}"
        )
    a_p = polytope.matrix @ spec.queue_loads
    ok = bool(np.all(a_p < 1.0))
    return LoadProfile(queue_loads=spec.queue_loads, pool_loads=a_p, admissible=ok)


def _bron_kerbosch(adj: list[set[int]], r: set, p: set, x: set, out: list):
    # pivot variant; output order is normalised by the caller
    if not p and not x:
        out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p = p - {v}
        x = x | {v}


def cliques_to_polytope(graph: InterferenceGraph) -> CapacityPolytope:
    """Pool matrix with one 0/1 row per maximal clique of the graph.

    Rows are ordered by their sorted vertex lists, so the result is
    deterministic.  Isolated vertices yield singleton rows.
    """
    n = graph.n
    adj = [graph.neighbors(v) for v in range(n)]
    found: list[frozenset] = []
    _bron_kerbosch(adj, set(), set(range(n)), set(), found)
    cliques = sorted(tuple(sorted(c)) for c in set(found))
    a = np.zeros((len(cliques), n))
    labels = []
    for i, c in enumerate(cliques):
        a[i, list(c)] = 1.0
        labels.append("+".join(str(v) for v in c))
    return CapacityPolytope(matrix=a, pool_labels=tuple(labels))


def enumerate_schedules(graph: InterferenceGraph) -> np.ndarray:
    """All independent sets of the graph as 0/1 rows, lexicographically sorted.

    Includes the empty schedule.  Raises CapExceededError beyond
    ``SCHEDULE_CAP`` vertices because the list can grow exponentially.
    """
    n = graph.n
    if n > SCHEDULE_CAP:
        raise CapExceededError(
            f"schedule enumeration capped at {SCHEDULE_CAP} vertices, graph has {n}"
        )
    adj_mask = graph.adj
    rows: list[list[int]] = []

    def rec(v: int, mask: int, row: list[int]):
        if v == n:
            rows.append(row.copy())
            return
        row.append(0)
        rec(v + 1, mask, row)
        row.pop()
        if not (mask & (1 << v)):
            row.append(1)
            rec(v + 1, mask | adj_mask[v], row)
            row.pop()

    rec(0, 0, [])
    return np.array(sorted(rows), dtype=int)


def _has_induced_odd_hole(graph: InterferenceGraph) -> bool:
    # scan all odd vertex subsets of size >= 5 for an induced chordless cycle;
    # a connected 2-regular induced subgraph is exactly such a cycle
    n = graph.n
    adj_mask = graph.adj
    verts = range(n)
    for k in range(5, n + 1, 2):
        for subset in itertools.combinations(verts, k):
            mask = 0
            for v in subset:
                mask |= 1 << v
            ok = True
            for v in subset:
                if bin(adj_mask[v] & mask).count("1") != 2:
                    ok = False
                    break
            if not ok:
                continue
            # connectivity over the induced subgraph
            seen = 1 << subset[0]
            stack = [subset[0]]
            while stack:
                v = stack.pop()
                rest = adj_mask[v] & mask & ~seen
                while rest:
                    b = rest & -rest
                    seen |= b
                    stack.append(b.bit_length() - 1)
                    rest ^= b
            if seen == mask:
                return True
    return False


def two_colouring(n: int, edges) -> np.ndarray | None:
    """Side (0 or 1) of each of n vertices in a 2-colouring of the graph
    with these (u, v) edges, or None when the graph has an odd cycle.  In
    each connected component side 0 is the smaller class, and the class of
    the component's lowest vertex on a tie, so an isolated vertex is on
    side 1."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * n
    for root in range(n):
        if side[root] >= 0:
            continue
        side[root] = 0
        comp = [root]
        for v in comp:  # breadth first: comp grows while it is read
            for u in nbrs[v]:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    comp.append(u)
                elif side[u] == side[v]:
                    return None
        if 2 * sum(side[v] for v in comp) < len(comp):
            for v in comp:
                side[v] ^= 1
    return np.array(side, dtype=int)


def is_perfect(graph: InterferenceGraph) -> bool:
    """Exact perfection test: no induced odd cycle of length >= 5 in the graph
    or in its complement.  A bipartite graph is perfect (König 1916), which a
    2-colouring shows at any size; other graphs are tested by brute force,
    capped at ``PERFECTION_CAP`` vertices."""
    if two_colouring(graph.n, graph.edges) is not None:
        return True
    if graph.n > PERFECTION_CAP:
        raise CapExceededError(
            f"perfection test capped at {PERFECTION_CAP} vertices, graph has {graph.n}"
        )
    if _has_induced_odd_hole(graph):
        return False
    return not _has_induced_odd_hole(graph.complement())
