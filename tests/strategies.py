"""Hypothesis strategies shared by the property tests."""

import warnings

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

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
    with warnings.catch_warnings():
        # clique matrices of even cycles are rank deficient
        warnings.filterwarnings("ignore", "pool matrix is not full row rank", UserWarning)
        return g, cliques_to_polytope(g)
