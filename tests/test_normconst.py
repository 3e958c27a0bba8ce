import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from switchnet.model import CapacityPolytope, CapExceededError
from switchnet.normconst import (
    _TILT_THRESHOLD,
    NormConstCache,
    log_norm_const,
    log_norm_const_neighbours,
    norm_const,
    norm_const_bruteforce,
    norm_const_bruteforce_table,
    norm_const_table,
)
from switchnet.presets import load_example
from switchnet.storeforward import store_forward_rates

from strategies import polytopes


def _single_pool_exact(Q, weights):
    """Closed form for one pool: multinomial(Q) * prod(w_j^Q_j)."""
    Q = np.asarray(Q)
    logv = gammaln(Q.sum() + 1) - gammaln(Q + 1).sum()
    logv += float(np.dot(Q, np.log(weights)))
    return math.exp(logv)


def test_empty_state_is_one():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    assert norm_const([0, 0], poly) == 1.0


def test_negative_entry_is_zero():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    assert log_norm_const([-1, 2], poly) == -math.inf
    assert norm_const([-1, 2], poly) == 0.0


def test_single_queue_trivial():
    poly = CapacityPolytope(np.array([[1.0]]))
    for q in range(8):
        assert norm_const([q], poly) == pytest.approx(1.0)


def test_shared_pool_binomials():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    assert norm_const([1, 1], poly) == pytest.approx(2.0)
    assert norm_const([2, 1], poly) == pytest.approx(3.0)
    assert norm_const([2, 2], poly) == pytest.approx(6.0)
    assert norm_const([5, 3], poly) == pytest.approx(math.comb(8, 5))


def test_dedicated_pools_are_one():
    poly = CapacityPolytope(np.eye(3))
    for Q in itertools.product(range(3), repeat=3):
        assert norm_const(Q, poly) == pytest.approx(1.0)


def test_weighted_pool_closed_form():
    w = (0.5, 1.0, 0.25)
    poly = CapacityPolytope(np.array([list(w)]))
    for Q in [(1, 1, 0), (2, 1, 1), (0, 3, 2), (4, 0, 1)]:
        assert norm_const(Q, poly) == pytest.approx(_single_pool_exact(Q, w), rel=1e-12)


def test_matches_bruteforce_scalar(cycle4):
    _, poly, _ = cycle4
    for Q in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (2, 2, 2, 2), (3, 1, 4, 2)]:
        exact = norm_const_bruteforce(Q, poly)
        assert norm_const(Q, poly) == pytest.approx(exact, rel=1e-12)


def test_matches_bruteforce_table(cycle4):
    _, poly, _ = cycle4
    table = norm_const_table(poly, (5, 5, 5, 5))
    brute = norm_const_bruteforce_table(poly, total_cap=8)[:5, :5, :5, :5]
    mask = np.indices((5, 5, 5, 5)).sum(axis=0) <= 8
    np.testing.assert_allclose(table[mask], brute[mask], rtol=1e-10)


def test_overlapping_pools_bruteforce():
    poly = CapacityPolytope(np.array([[1.0, 0.5], [0.5, 1.0]]))
    for Q in [(1, 1), (3, 2), (5, 5), (7, 1)]:
        exact = norm_const_bruteforce(Q, poly)
        assert norm_const(Q, poly) == pytest.approx(exact, rel=1e-12)


def test_bruteforce_cap():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    with pytest.raises(CapExceededError):
        norm_const_bruteforce([20, 20], poly, total_cap=24)


def test_large_totals_match_closed_form():
    # sums beyond 120 exercise the rebalanced evaluation path; the
    # shared-pool binomial form is exact at any size.
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    for Q in [(60, 59), (61, 60), (80, 45), (200, 100), (700, 500)]:
        expect = gammaln(sum(Q) + 1) - gammaln(Q[0] + 1) - gammaln(Q[1] + 1)
        assert log_norm_const(Q, poly) == pytest.approx(expect, rel=1e-10)


def test_large_totals_weighted_pool():
    w = (0.7, 0.2)
    poly = CapacityPolytope(np.array([list(w)]))
    for Q in [(100, 30), (64, 64), (301, 1)]:
        expect = (
            gammaln(sum(Q) + 1)
            - gammaln(Q[0] + 1)
            - gammaln(Q[1] + 1)
            + Q[0] * math.log(w[0])
            + Q[1] * math.log(w[1])
        )
        assert log_norm_const(Q, poly) == pytest.approx(expect, rel=1e-10)


def test_large_totals_overlapping_pools_vs_bruteforce():
    # two overlapping pools on two queues keep the enumeration tiny even
    # past the rebalancing threshold, giving an exact independent check
    poly = CapacityPolytope(np.array([[1.0, 0.5], [0.5, 1.0]]))
    for Q in [(70, 55), (90, 40), (65, 60)]:
        exact = math.log(norm_const_bruteforce(Q, poly, total_cap=130))
        assert log_norm_const(Q, poly) == pytest.approx(exact, rel=1e-10)


def test_cache_reuse(cycle4):
    _, poly, _ = cycle4
    cache = NormConstCache(poly)
    v1 = log_norm_const([2, 1, 1, 2], poly, cache)
    n = len(cache)
    v2 = log_norm_const([2, 1, 1, 2], poly, cache)
    assert v1 == v2
    assert len(cache) == n
    cache.clear()
    assert len(cache) == 0


def test_dimension_check():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        log_norm_const([1, 2, 3], poly)
    with pytest.raises(ValueError):
        log_norm_const([0.5, 1], poly)


# -------------------- one pass for Phi(Q) and every Phi(Q - e_j) --------------------


def _check_rate_properties(q, poly, sigma):
    assert np.all(poly.matrix @ sigma <= 1.0 + 1e-12)
    np.testing.assert_array_equal(sigma == 0.0, q == 0)


@settings(max_examples=150, deadline=None)
@given(poly=polytopes(), data=st.data())
def test_rates_match_bruteforce_ratios(poly, data):
    q = np.array(data.draw(st.lists(st.integers(0, 3), min_size=poly.n_queues,
                                    max_size=poly.n_queues)))
    sigma = store_forward_rates(q, poly)
    phi = norm_const_bruteforce(q, poly)
    for j in np.flatnonzero(q):
        down = q.copy()
        down[j] -= 1
        assert sigma[j] == pytest.approx(norm_const_bruteforce(down, poly) / phi, rel=1e-12)
    _check_rate_properties(q, poly, sigma)


def test_rates_single_pool_members_match_bruteforce():
    # tri-grid: queues 0 and 2 sit in one pool each
    poly = load_example("tri-grid").polytope
    assert sorted(j for j in range(5) if len(poly.pools_of(j)) == 1) == [0, 2]
    for q in itertools.product(range(3), repeat=5):
        q = np.array(q)
        sigma = store_forward_rates(q, poly)
        phi = norm_const_bruteforce(q, poly)
        for j in np.flatnonzero(q):
            down = q.copy()
            down[j] -= 1
            assert sigma[j] == pytest.approx(norm_const_bruteforce(down, poly) / phi, rel=1e-12)
        _check_rate_properties(q, poly, sigma)


@settings(max_examples=60, deadline=None)
@given(poly=polytopes(), data=st.data())
def test_rates_above_tilt_threshold_match_separate_passes(poly, data):
    J = poly.n_queues
    q = np.array(data.draw(st.lists(st.integers(0, 3), min_size=J, max_size=J)))
    q[data.draw(st.integers(0, J - 1))] = data.draw(
        st.integers(_TILT_THRESHOLD + 1, _TILT_THRESHOLD + 40))
    sigma = store_forward_rates(q, poly)
    base = log_norm_const(q, poly)
    for j in np.flatnonzero(q):
        down = q.copy()
        down[j] -= 1
        assert sigma[j] == pytest.approx(math.exp(log_norm_const(down, poly) - base), rel=1e-11)
    _check_rate_properties(q, poly, sigma)


@settings(max_examples=60, deadline=None)
@given(poly=polytopes(min_queues=2, max_queues=3), data=st.data())
def test_tilted_pass_matches_untilted_box(poly, data):
    # totals just above the threshold are tilted by the fair rates at Q; the
    # box sweep never tilts, so the two agree only if the tilt is undone
    J = poly.n_queues
    q = np.array(data.draw(st.lists(st.integers(0, 3), min_size=J, max_size=J)))
    big = data.draw(st.integers(0, J - 1))
    q[big] = _TILT_THRESHOLD + 1 - (q.sum() - q[big]) + data.draw(st.integers(0, 8))
    assert q.sum() > _TILT_THRESHOLD
    box = norm_const_table(poly, q + 1)[tuple(q)]
    assert log_norm_const(q, poly) == pytest.approx(math.log(box), rel=1e-11)


def test_neighbours_fill_the_cache():
    poly = load_example("cycle4").polytope
    cache = NormConstCache(poly)
    q = np.array([2, 0, 1, 3])
    base, down = log_norm_const_neighbours(q, poly, cache)
    assert len(cache) == 4  # Q and its three occupied neighbours
    assert cache.lookup((2, 0, 1, 3)) == base
    assert cache.lookup((2, 0, 0, 3)) == down[2]
    assert down[1] == -math.inf
    again = log_norm_const_neighbours(q, poly, cache)
    assert again[0] == base
    np.testing.assert_array_equal(again[1], down)


def _raises_before_allocating(fn, *args):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_frontier_pass_cap_on_transfer_matrix():
    # grid3x3 at Q_j = 60: two banded queues in one pool need a 61^4-cell
    # transfer matrix
    poly = load_example("grid3x3").polytope
    q = np.full(9, 60)
    _raises_before_allocating(log_norm_const, q, poly)
    _raises_before_allocating(store_forward_rates, q, poly)


def test_frontier_pass_cap_on_variant_table():
    # five queues fixed in pool 1 and two contracted in pool 2 give eight
    # variants of a 1101^2-cell table: only the neighbour pass is too large
    A = np.zeros((3, 7))
    A[0, :2] = 1.0
    A[1, 2:] = 1.0
    A[2, :2] = (0.5, 1.0)
    poly = CapacityPolytope(A)
    q = np.array([1100, 1100, 1, 1, 1, 1, 1])
    assert np.isfinite(log_norm_const(q, poly))
    _raises_before_allocating(store_forward_rates, q, poly)
