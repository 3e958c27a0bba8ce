import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from switchnet import normconst
from switchnet.metrics import SimConfig
from switchnet.model import CapacityPolytope, CapExceededError
from switchnet.normconst import (
    _MAX_STEP_CELLS,
    _TILT_THRESHOLD,
    NormConstCache,
    log_norm_const,
    log_norm_const_neighbours,
    norm_const,
    norm_const_bruteforce,
)
from switchnet.presets import load_example, scaled_rates
from switchnet.sim import simulate_store_forward
from switchnet.storeforward import StationarySampler, store_forward_rates

from oracles import norm_const_bruteforce_table, norm_const_table
from strategies import frontier_polytopes, polytopes


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
    assert not cache.plans and not cache.kernels


def test_cache_answers_only_for_its_polytope():
    a = CapacityPolytope(np.array([[1.0, 1.0]]))
    b = CapacityPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]))
    cache = NormConstCache(a)
    log_norm_const([2, 1], a, cache)
    for call in (log_norm_const, log_norm_const_neighbours):
        with pytest.raises(ValueError, match="different pool matrix"):
            call([2, 1], b, cache)
    with pytest.raises(ValueError, match="different pool matrix"):
        store_forward_rates([3, 2], b, cache)
    # an equal copy of the matrix shares the cache
    twin = CapacityPolytope(np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(store_forward_rates([2, 1], twin, cache), [2 / 3, 1 / 3], rtol=1e-12)
    np.testing.assert_allclose(store_forward_rates([2, 1], b, NormConstCache(b)), [1.0, 1.0], rtol=1e-12)


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


def _lifted_vector(data, J):
    # one queue above the tilt threshold and the rest at most 12
    q = np.array(data.draw(st.lists(st.integers(0, 12), min_size=J, max_size=J)))
    q[data.draw(st.integers(0, J - 1))] = data.draw(
        st.integers(_TILT_THRESHOLD + 1, _TILT_THRESHOLD + 40))
    return q


def _or_cap(fn, *args):
    """fn(*args), or None where no pool order fits the cap."""
    try:
        return fn(*args)
    except CapExceededError:
        return None


@settings(max_examples=60, deadline=None)
@given(poly=polytopes(), data=st.data())
def test_rates_above_tilt_threshold_match_separate_passes(poly, data):
    q = _lifted_vector(data, poly.n_queues)
    sigma = _or_cap(store_forward_rates, q, poly)
    # a vector that no pool order fits has no rates (about 1 draw in 100)
    assume(sigma is not None)
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


def _draw_queue_vector(data, J):
    # up to 12 per queue, or one queue above the tilt threshold as well
    if data.draw(st.booleans()):
        return _lifted_vector(data, J)
    return np.array(data.draw(st.lists(st.integers(0, 12), min_size=J, max_size=J)))


@settings(max_examples=100, deadline=None)
@given(poly=polytopes(), data=st.data())
def test_phi_invariant_under_pool_relabeling(poly, data):
    # below the threshold the frontier plan follows the pool order, so
    # permuted pools take a different contraction schedule to the same value;
    # a vector that no order fits is refused in every order
    q = _draw_queue_vector(data, poly.n_queues)
    perm = data.draw(st.permutations(range(poly.n_pools)))
    moved = CapacityPolytope(poly.matrix[list(perm)])
    want = _or_cap(log_norm_const, q, poly)
    got = _or_cap(log_norm_const, q, moved)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(poly=polytopes(), data=st.data())
def test_phi_moves_with_permuted_queues(poly, data):
    # relabeling queues permutes the columns and the vector alike; the plan's
    # frontier roles follow the queue order, and so do the neighbour variants
    q = _draw_queue_vector(data, poly.n_queues)
    perm = list(data.draw(st.permutations(range(poly.n_queues))))
    moved = CapacityPolytope(poly.matrix[:, perm])
    want = _or_cap(log_norm_const_neighbours, q, poly)
    got = _or_cap(log_norm_const_neighbours, q[perm], moved)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        np.testing.assert_allclose(got[1], want[1][perm], rtol=1e-12)


# -------------------- the pool order of large vectors --------------------

# listed in 4 of its 6 row orders, this matrix once passed the cap at (125, 1, 3, 3)
_ORDER_REPRO = np.array([[1, 0, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0.5]])


def test_every_row_order_answers_the_repro():
    q = np.array([125, 1, 3, 3])
    poly = CapacityPolytope(_ORDER_REPRO)
    base, sigma = log_norm_const(q, poly), store_forward_rates(q, poly)
    for perm in itertools.permutations(range(3)):
        moved = CapacityPolytope(_ORDER_REPRO[list(perm)])
        assert log_norm_const(q, moved) == pytest.approx(base, rel=1e-12)
        np.testing.assert_allclose(store_forward_rates(q, moved), sigma, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(poly=polytopes(), data=st.data())
def test_row_order_decides_neither_the_cap_nor_the_value(poly, data):
    # above the threshold a vector raises in no row order or in every one
    q = _lifted_vector(data, poly.n_queues)
    runs = [(_or_cap(log_norm_const, q, moved), _or_cap(store_forward_rates, q, moved))
            for moved in (CapacityPolytope(poly.matrix[list(p)])
                          for p in itertools.permutations(range(poly.n_pools)))]
    for phi, sigma in runs[1:]:
        assert (phi is None, sigma is None) == (runs[0][0] is None, runs[0][1] is None)
        if phi is not None:
            assert phi == pytest.approx(runs[0][0], rel=1e-11)
        if sigma is not None:
            np.testing.assert_allclose(sigma, runs[0][1], rtol=1e-11)


def _modeled_cost(plan, q, neighbours):
    # transfer-matrix cells plus multiply-adds over every variant row, or
    # None past the step cap: an oracle for the order search's cost model
    ext = lambda js: math.prod(q[j] + 1 for j in js)  # noqa: E731
    cost, n_var = 0, 1
    for (_, banded, contract, fresh, fixed), _, pass_axes, _, _ in plan:
        n_var += (len(contract) + len(fixed)) * neighbours
        p, b, c, f = ext(pass_axes), ext(banded), ext(contract), ext(fresh)
        if max(b * b * c * f, n_var * p * b * max(c, f)) > _MAX_STEP_CELLS:
            return None
        cost += b * b * c * f * (1 + n_var * p)
    return cost


@st.composite
def _pool_patterns(draw):
    """Up to five pools on up to five queues, every queue in a pool, with
    extents up to 40: orders few enough to try them all."""
    J, L = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    A = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=J, max_size=J),
                               min_size=L, max_size=L)))
    assume(np.all(A.sum(axis=0) > 0))
    q = draw(st.lists(st.integers(0, 40), min_size=J, max_size=J))
    assume(any(q))
    return A, q


@settings(max_examples=150, deadline=None)
@given(case=_pool_patterns(), neighbours=st.booleans())
def test_order_search_finds_the_cheapest_order_that_fits(case, neighbours):
    # every pool order tried against the search; a tie keeps the listed order
    A, q = case
    active = tuple(j for j, v in enumerate(q) if v > 0)
    listed = [l for l in range(len(A)) if A[l, list(active)].any()]
    costs = {o: _modeled_cost(normconst._pool_plan(active, A, o), q, neighbours)
             for o in itertools.permutations(listed)}
    order = normconst._cheapest_order(active, A, q, neighbours)
    fitting = [c for c in costs.values() if c is not None]
    if not fitting:
        assert order == listed
        return
    assert costs[tuple(order)] == min(fitting)
    if costs[tuple(listed)] == min(fitting):
        assert order == listed


def test_passes_that_fit_below_the_threshold_keep_the_listed_order(monkeypatch):
    # the memoized listed plan serves them: no search, the same bits as before
    def no_search(*args):
        raise AssertionError("searched a pass that fits below the threshold")

    monkeypatch.setattr(normconst, "_cheapest_order", no_search)
    for name in ("k22", "cycle4", "tri-grid", "grid3x3"):
        poly = load_example(name).polytope
        cache = NormConstCache(poly)
        for q in np.random.default_rng(18).integers(0, 13, size=(20, poly.n_queues)):
            log_norm_const_neighbours(q, poly, cache)
            log_norm_const(q + 1, poly)


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
    # whichever of pools 0 and 2 comes second contracts queues 0 and 1, so
    # in every pool order at least three variants share that step's
    # 1701^2-cell table: only the neighbour pass is too large
    A = np.zeros((3, 7))
    A[0, :2] = 1.0
    A[1, 2:] = 1.0
    A[2, :2] = (0.5, 1.0)
    poly = CapacityPolytope(A)
    q = np.array([1700, 1700, 1, 1, 1, 1, 1])
    assert np.isfinite(log_norm_const(q, poly))
    _raises_before_allocating(store_forward_rates, q, poly)


# -------------------- master transfer kernels --------------------


def _assert_cached_matches_cache_free(q, poly, cache):
    # Phi and sigma relative, through the log values
    base, nbr = log_norm_const_neighbours(q, poly, cache)
    want_base, want_nbr = log_norm_const_neighbours(q, poly)
    assert abs(base - want_base) <= 1e-13
    live = q > 0
    np.testing.assert_allclose(np.exp(nbr[live] - base), np.exp(want_nbr[live] - want_base),
                               rtol=1e-13, atol=0)
    assert np.all(nbr[~live] == -math.inf)
    up = q + 1
    assert abs(log_norm_const(up, poly, cache) - log_norm_const(up, poly)) <= 1e-13


@settings(max_examples=80, deadline=None)
@given(poly=st.one_of(polytopes(), frontier_polytopes()), data=st.data())
def test_master_kernels_serve_smaller_states_exactly(poly, data):
    # larger states first grow the cache's master kernels; the smaller ones
    # after them are slices of those masters, never built at their own size
    J = poly.n_queues
    small = [np.array(data.draw(st.lists(st.integers(0, 4), min_size=J, max_size=J)))
             for _ in range(3)]
    large = [q + np.array(data.draw(st.lists(st.integers(0, 9), min_size=J, max_size=J)))
             for q in small]
    cache = NormConstCache(poly)
    for q in large + small:
        _assert_cached_matches_cache_free(q, poly, cache)
    assert cache.kernel_builds >= len(cache.kernels)
    assert all(m[1].size <= _MAX_STEP_CELLS for m in cache.kernels.values())


def test_master_kernel_stays_within_step_cap():
    # queues 0 and 1 are banded in the middle pool, whose transfer matrix
    # has (Q_0 + 1)^2 (Q_1 + 1)^2 cells: each state fits alone, but a master
    # spanning both would hold 61^4 cells, so it is rebuilt for each instead
    poly = CapacityPolytope(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.5, 1.0, 0.0]]))
    cache = NormConstCache(poly)
    for q in ([60, 1, 1], [1, 60, 1], [59, 1, 2]):
        _assert_cached_matches_cache_free(np.array(q), poly, cache)
        assert all(m[1].size <= _MAX_STEP_CELLS for m in cache.kernels.values())
        middle = [m[0] for (split, _), m in cache.kernels.items() if split[0] == 1]
        assert middle and all(min(ext) <= 3 for ext in middle)


def test_full_kernel_memo_is_counted(monkeypatch):
    monkeypatch.setattr(normconst, "_MAX_MEMO_ENTRIES", 1)
    poly = load_example("cycle4").polytope
    cache = NormConstCache(poly)
    for q in ([3, 1, 2, 2], [2, 2, 1, 1], [1, 3, 2, 1]):
        _assert_cached_matches_cache_free(np.array(q), poly, cache)
    assert cache.memo_refused > 0
    assert all(len(m[3]) == 1 for m in cache.kernels.values())


_ROLES = ("banded", "contract", "fresh", "fixed")


@st.composite
def _pool_splits(draw):
    """One pool's members, each with a frontier role and a positive weight
    (tilted passes scale weights far from 1), the extents of the banded,
    contract and fresh members and the counts of the fixed ones."""
    roles = draw(st.lists(st.sampled_from(_ROLES), min_size=1, max_size=5))
    weight = st.one_of(st.floats(0.2, 1.5), st.floats(1e-6, 1e-2), st.floats(10.0, 1e4))
    A = np.array([draw(st.lists(weight, min_size=len(roles), max_size=len(roles)))])
    split = [0] + [tuple(j for j, r in enumerate(roles) if r == role) for role in _ROLES]
    n_grid = len(roles) - len(split[4])
    sizes = tuple(draw(st.lists(st.integers(1, 6), min_size=n_grid, max_size=n_grid)))
    fixedq = tuple(draw(st.lists(st.integers(0, 8), min_size=len(split[4]),
                                 max_size=len(split[4]))))
    assume(math.prod(sizes[:len(split[1])]) <= 36)
    return tuple(split), sizes, fixedq, A


@settings(max_examples=200, deadline=None)
@given(case=_pool_splits())
def test_kernel_grid_matches_the_kernel_definition_bit_for_bit(case):
    # the oracle evaluates gammaln on the whole np.ix_ grid of served counts
    # and lays the window out cell by cell: zero where v - r < 0, contract
    # axes reversed
    split, sizes, fixedq, A = case
    l, banded, contract, fresh, fixed = split
    nb, nc = len(banded), len(contract)
    la = [math.log(A[l, j]) for j in banded + contract + fresh]
    klog = sum(q * math.log(A[l, j]) - float(gammaln(q + 1.0)) for j, q in zip(fixed, fixedq))
    total = float(sum(fixedq))
    for u, a in zip(np.ix_(*[np.arange(s) for s in sizes]), la):
        total = total + u
        klog = klog + u * a - gammaln(u + 1.0)
    klog = klog + gammaln(total + 1.0)
    mk = float(np.max(klog))
    kernel = np.exp(klog - mk)
    kernel = kernel[(slice(None),) * nb + (slice(None, None, -1),) * nc]
    band = sizes[:nb]
    want = np.zeros(band + sizes[nb:nb + nc] + band + sizes[nb + nc:])
    for r in itertools.product(*map(range, band)):
        for v in itertools.product(*map(range, band)):
            if min((b - a for a, b in zip(r, v)), default=0) >= 0:
                want[r + (slice(None),) * nc + v] = kernel[tuple(b - a for a, b in zip(r, v))]

    got, got_mk = normconst._kernel_grid(*split, sizes, fixedq, A)
    assert got_mk == mk
    assert np.shape(got) == want.shape
    assert np.array_equal(np.ascontiguousarray(got).ravel(), want.ravel())


def test_banded_master_kernels_are_read_only():
    # a banded master is one strided window over a padded kernel, each cell
    # shared by a whole diagonal: a write through it would corrupt them all
    poly = load_example("grid3x3").polytope
    cache = NormConstCache(poly)
    rng = np.random.default_rng(4)
    for _ in range(20):
        log_norm_const_neighbours(rng.integers(0, 5, size=9), poly, cache)
    banded = [m[1] for (split, _), m in cache.kernels.items() if split[1]]
    assert banded
    for klin in banded:
        assert not klin.flags.writeable
        with pytest.raises(ValueError):
            klin[(0,) * klin.ndim] = 1.0


def _sf_grid_replication(seed, cache):
    # 150 nominal events on grid3x3 at pool load 0.8 from a stationary draw
    ex = load_example("grid3x3")
    spec = scaled_rates(ex, 0.8)
    A = ex.polytope.matrix
    lam = spec.rates().sum() + sum(1.0 / A[A[:, j] > 0, j].max() for j in range(spec.n_queues))
    q0 = StationarySampler(spec, ex.polytope, seed=seed).sample_queues(1)[0]
    cfg = SimConfig(horizon=150 / lam, seed=seed, warmup_fraction=0.0, batches=2)
    simulate_store_forward(spec, ex.polytope, cfg, initial=q0, phi_cache=cache)


def test_kernel_builds_on_grid_replications():
    # one cold store-forward path per seed, each with a fresh cache: the
    # masters keep rebuilds far below one per pass
    poly = load_example("grid3x3").polytope
    caches = []
    for seed in range(8100, 8116):
        caches.append(NormConstCache(poly))
        _sf_grid_replication(seed, caches[-1])
    builds = sum(c.kernel_builds for c in caches)
    passes = sum(c.passes for c in caches)
    assert builds <= 800
    assert passes > builds
    assert sum(c.memo_refused for c in caches) == 0
    again = NormConstCache(poly)
    _sf_grid_replication(8100, again)
    assert (again.passes, again.kernel_builds) == (caches[0].passes, caches[0].kernel_builds)
