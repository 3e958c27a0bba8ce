"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from switchnet.config import ENGINES
from switchnet.metrics import SimConfig
from switchnet.model import CapacityPolytope, InterferenceGraph, cliques_to_polytope, is_perfect


@st.composite
def polytopes(draw, min_queues=1, max_queues=4):
    """1-4 queues (or the given range), <= 3 pools, positive weights, every
    queue and pool used, full row rank: the shape of the acceptance module's
    random polytopes."""
    J = draw(st.integers(min_queues, max_queues))
    L = draw(st.integers(1, min(3, J)))
    weight = st.one_of(st.just(0.0), st.floats(0.2, 1.5))
    A = np.array(draw(st.lists(st.lists(weight, min_size=J, max_size=J), min_size=L, max_size=L)))
    assume(np.all(A.sum(axis=0) > 0) and np.all(A.sum(axis=1) > 0))
    assume(np.linalg.matrix_rank(A, tol=1e-9) == L)
    return CapacityPolytope(A)


@st.composite
def perfect_graphs(draw):
    """Perfect interference graphs on <= 6 vertices and their clique
    polytopes, whose vertices are exactly the schedules."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                     max_size=len(pairs)))) if keep]
    g = InterferenceGraph.from_edges(n, edges)
    assume(is_perfect(g))
    return g, cliques_to_polytope(g)


@st.composite
def config_overrides(draw):
    """A few dotted-path settings for ``apply_overrides``, each valid for a
    simulation on a perfect catalogue graph with at least two queues."""
    values = {
        "sim.horizon": st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e6)),
        "sim.warmup_fraction": st.floats(0.0, 0.99),
        "sim.batches": st.integers(2, 100),
        "sim.slot_arrivals": st.sampled_from(["poisson", "bernoulli"]),
        "sim.checkpoints": st.integers(0, 20),
        "sim.pairs": st.lists(st.permutations([0, 1]), max_size=2),
        "sim.engine": st.sampled_from(ENGINES),
        "seeds": st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        "network": st.sampled_from(["k22", "cycle4", "one-edge", "tri-grid"]),
    }
    keys = draw(st.sets(st.sampled_from(sorted(values)), max_size=len(values)))
    out = {k: draw(values[k]) for k in sorted(keys)}
    if out.get("sim.engine", "store-forward") != "store-forward" and (
            "sim.horizon" in out or "sim.checkpoints" in out):
        # a slotted engine counts whole slots, and takes at most one
        # checkpoint per post-warmup slot
        out["sim.horizon"] = horizon = draw(st.integers(1, 10**6))
        warm = int(out.get("sim.warmup_fraction", SimConfig.warmup_fraction) * horizon)
        assume(out.get("sim.checkpoints", 0) <= horizon - warm)
    return out


@st.composite
def frontier_polytopes(draw):
    """Three pools over four queues, random positive weights, laid out so
    that a frontier pass over an all-occupied vector meets every role:
    queue 0 runs through all pools (fresh, banded, contracted), queue 1
    skips the middle pool, queue 2 is fixed in the middle pool and queue 3
    starts there and ends in the last."""
    pattern = np.array([[1, 1, 0, 0], [1, 0, 1, 1], [1, 1, 0, 1]], dtype=bool)
    n = int(pattern.sum())
    weights = draw(st.lists(st.floats(0.2, 1.5), min_size=n, max_size=n))
    A = np.zeros(pattern.shape)
    A[pattern] = weights
    return CapacityPolytope(A)
