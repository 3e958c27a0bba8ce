"""Pins the benchmark's reference computations and its tracer.

    python3 -m pytest perfbench/tests -q

The references are checked against the package's independent brute-force
enumeration and against exact values from the paper, never against the
evaluators the benchmark times.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

from switchnet import (  # noqa: E402
    CapacityPolytope,
    load_example,
    norm_const_bruteforce,
    scaled_rates,
    solve_prop_fair,
)


def _random_polytope(rng):
    """<= 4 queues, <= 3 pools, positive weights, every queue covered."""
    J = int(rng.integers(1, 5))
    L = int(rng.integers(1, min(3, J) + 1))
    while True:
        A = np.where(rng.random((L, J)) < 0.6, rng.uniform(0.2, 1.5, (L, J)), 0.0)
        if np.any(A.sum(axis=0) == 0) or np.any(A.sum(axis=1) == 0):
            continue
        if np.linalg.matrix_rank(A, tol=1e-9) < L:
            continue
        return CapacityPolytope(A)


def test_phi_recursion_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(25):
        poly = _random_polytope(rng)
        q = rng.integers(0, 5, poly.n_queues)
        want = norm_const_bruteforce(q, poly)
        assert ref.phi(poly.matrix, q) == pytest.approx(want, rel=1e-12)


def test_sigma_is_the_phi_ratio_and_feasible():
    poly = load_example("k22").polytope
    q = np.array([3, 0, 2, 4])
    s = ref.sigma(poly.matrix, q)
    for j in range(4):
        if q[j]:
            lower = q.copy()
            lower[j] -= 1
            want = norm_const_bruteforce(lower, poly) / norm_const_bruteforce(q, poly)
            assert s[j] == pytest.approx(want, rel=1e-12)
    assert s[1] == 0.0
    assert np.all(poly.matrix @ s <= 1.0 + 1e-12)


def test_single_pool_lgamma():
    weights, q = (1.0, 0.5, 2.0), (3, 2, 4)
    poly = CapacityPolytope(np.array([weights]))
    assert math.exp(ref.single_pool_log_phi(weights, q)) == pytest.approx(
        norm_const_bruteforce(q, poly), rel=1e-12)


@pytest.mark.parametrize("name, delay", [("tandem", 4.0), ("pooled-route", 5.0)])
def test_exact_delays_from_the_paper(name, delay):
    ex = load_example(name)
    assert ref.route_delays(ex.spec, ex.polytope.matrix)[0] == pytest.approx(delay, rel=1e-14)


def test_mean_queues_by_little():
    # one pool per queue: an M/M/1 chain, E[Q_j] = a / (1 - a)
    ex = load_example("tandem")
    assert ref.mean_queues(ex.spec, ex.polytope.matrix) == pytest.approx([1.0, 1.0])


def test_slotted_queue_mean():
    # X' = X + A - 1{X + A > 0} with A ~ Poisson(lam), iterated exactly
    lam, cap = 0.6, 200
    pa = np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(40)])
    dist = np.zeros(cap)
    dist[0] = 1.0
    for _ in range(2000):
        plus = np.convolve(dist, pa)[:cap]
        nxt = np.zeros(cap)
        nxt[0] = plus[0] + plus[1]
        nxt[1:-1] = plus[2:]
        dist = nxt
    assert float(np.arange(cap) @ dist) == pytest.approx(ref.slotted_queue_mean(lam), rel=1e-9)


def test_kkt_accepts_the_optimum_and_rejects_a_perturbation():
    ex = load_example("cycle4")
    q = np.array([2, 0, 5, 1])
    sol = solve_prop_fair(q, ex.polytope, tol=1e-10)
    assert ref.kkt_residual(q, ex.polytope.matrix, sol.rates, sol.prices) <= 1e-8
    off = sol.rates.copy()
    off[2] *= 0.99
    assert ref.kkt_residual(q, ex.polytope.matrix, off, sol.prices) > 1e-3
    leak = sol.rates.copy()
    leak[1] = 1e-3
    assert ref.kkt_residual(q, ex.polytope.matrix, leak, sol.prices) == math.inf


def test_independent_sets():
    ex = load_example("grid3x3")
    edges = sorted(ex.graph.edges)
    assert all(ref.is_independent_set(s, edges) for s in ex.schedules())
    s = np.zeros(9, dtype=int)
    s[[0, 1]] = 1
    assert not ref.is_independent_set(s, edges)
    assert not ref.is_independent_set(2 * np.eye(9, dtype=int)[0], edges)


def test_mean_queues_grow_with_load_and_reject_overload():
    ex = load_example("k22")
    lo = ref.mean_queues(scaled_rates(ex, 0.4), ex.polytope.matrix)
    hi = ref.mean_queues(scaled_rates(ex, 0.8), ex.polytope.matrix)
    assert np.all(hi > lo)
    with pytest.raises(ValueError):
        ref.mean_queues(scaled_rates(ex, 1.0), ex.polytope.matrix)


class _Box:
    @staticmethod
    def inner(x):
        time.sleep(0.02)
        return x

    @staticmethod
    def outer(x):
        time.sleep(0.03)
        return _Box.inner(x) + 1


def test_tracer_self_time_and_restore():
    orig_outer, orig_inner = _Box.outer, _Box.inner
    tr = Tracer()
    seen = []
    tr.wrap(_Box, "inner", "box.inner", after=lambda st, a, k, res, err: seen.append(res))
    tr.wrap(_Box, "outer", "box.outer")
    assert _Box.outer(1) == 2
    tr.pause()
    assert _Box.outer(1) == 2  # not recorded
    tr.resume()
    with pytest.raises(TypeError):
        _Box.inner()
    tr.restore()
    assert _Box.outer is orig_outer and _Box.inner is orig_inner
    st = tr.self_times()
    assert len(tr.spans) == 3 and seen == [1, None]
    assert 0.029 <= st["box.outer"] < 0.06
    assert 0.019 <= st["box.inner"] < 0.05
