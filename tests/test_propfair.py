import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchnet.model import CapacityPolytope, InterferenceGraph, cliques_to_polytope, enumerate_schedules
from switchnet import propfair
from switchnet.normconst import NormConstCache
from switchnet.presets import list_examples, load_example
from switchnet.propfair import (
    InfeasibleTargetError,
    ScheduleDistribution,
    decompose_mean,
    sf_pf_gap,
    solve_prop_fair,
)
from switchnet.storeforward import StationarySampler, store_forward_rates

from strategies import perfect_graphs, polytopes


def test_shared_pool_solution():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    sol = solve_prop_fair([2, 1], poly)
    np.testing.assert_allclose(sol.rates, [2 / 3, 1 / 3], atol=1e-10)
    assert sol.objective == pytest.approx(2 * math.log(2 / 3) + math.log(1 / 3))
    assert sol.converged
    assert sol.kkt_residual <= 1e-8
    # stationarity gives the pool price sum(Q) on the raw scale
    np.testing.assert_allclose(sol.prices, [3.0], atol=1e-8)


def test_zero_queue_pinned():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    sol = solve_prop_fair([0, 5], poly)
    np.testing.assert_allclose(sol.rates, [0.0, 1.0], atol=1e-10)
    assert sol.objective == pytest.approx(0.0)


def test_all_zero_rejected():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        solve_prop_fair([0, 0], poly)


def test_dedicated_pools_saturate():
    poly = CapacityPolytope(np.eye(2))
    sol = solve_prop_fair([3, 5], poly)
    np.testing.assert_allclose(sol.rates, [1.0, 1.0], atol=1e-10)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_four_cycle_degenerate_corner(cycle4):
    # all four edge constraints bind at (1/2, 1/2, 1/2, 1/2); the dual is
    # not unique there, so only primal quantities are pinned
    _, poly, _ = cycle4
    sol = solve_prop_fair([2, 1, 1, 2], poly)
    np.testing.assert_allclose(sol.rates, [0.5, 0.5, 0.5, 0.5], atol=1e-8)
    assert sol.objective == pytest.approx(6 * math.log(0.5), abs=1e-10)
    assert sol.kkt_residual <= 1e-8
    assert sol.converged


def test_kkt_certificate_random(cycle4):
    # nonnegative prices supporting Q_j / s_j = sum_l p_l A_lj on active
    # queues, with complementary slackness
    _, poly, _ = cycle4
    A = poly.matrix
    rng = np.random.default_rng(2)
    for _ in range(25):
        Q = rng.integers(0, 9, size=4)
        if not Q.any():
            continue
        sol = solve_prop_fair(Q, poly)
        assert sol.converged
        assert np.all(sol.prices >= -1e-9)
        assert np.all(A @ sol.rates <= 1 + 1e-7)
        active = Q > 0
        lhs = Q[active] / sol.rates[active]
        rhs = (A.T @ sol.prices)[active]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)
        slack = 1.0 - A @ sol.rates
        assert float(np.abs(sol.prices * slack).max()) <= 1e-6 * max(1.0, Q.sum())


def test_scale_invariance_of_rates():
    poly = CapacityPolytope(np.array([[1.0, 0.6], [0.4, 1.0]]))
    base = solve_prop_fair([3, 2], poly)
    scaled = solve_prop_fair([30, 20], poly)
    np.testing.assert_allclose(base.rates, scaled.rates, atol=1e-8)
    np.testing.assert_allclose(scaled.prices, 10 * np.asarray(base.prices), rtol=1e-5)


# -------------------- solver properties --------------------


def _check_solution(q, poly, sol):
    assert sol.converged
    assert sol.kkt_residual <= 1e-8
    assert np.all(poly.matrix @ sol.rates <= 1.0 + 1e-12)
    assert np.all(sol.prices >= 0.0)
    np.testing.assert_array_equal(sol.rates == 0.0, q == 0)


queue_lengths = st.one_of(st.just(0), st.integers(1, 12), st.integers(13, 5000))


@settings(max_examples=200, deadline=None)
@given(poly=polytopes(), data=st.data())
def test_solver_kkt_on_random_polytopes(poly, data):
    J = poly.n_queues
    q = np.array(data.draw(st.lists(queue_lengths, min_size=J, max_size=J)))
    assume(q.any())
    _check_solution(q, poly, solve_prop_fair(q, poly))


def _check_lottery(target, sched):
    dist = decompose_mean(target, sched)
    assert dist.support_size <= sched.shape[1] + 1
    listed = {tuple(row) for row in sched}
    assert all(tuple(row) in listed for row in dist.schedules)
    assert np.all(dist.probabilities > 0)
    assert dist.probabilities.sum() == pytest.approx(1.0, rel=0, abs=1e-12)
    np.testing.assert_allclose(dist.mean, target, rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(graph=perfect_graphs(), data=st.data())
def test_solver_lottery_on_perfect_graphs(graph, data):
    # fair optima sit on faces of the clique polytope, convex mixtures of
    # the schedules anywhere in it; the peel must hit both
    g, poly = graph
    sched = enumerate_schedules(g)
    q = np.array(data.draw(st.lists(queue_lengths, min_size=g.n, max_size=g.n)))
    assume(q.any())
    sol = solve_prop_fair(q, poly)
    _check_solution(q, poly, sol)
    _check_lottery(sol.rates, sched)
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(sched),
                                    max_size=len(sched))))
    assume(w.sum() > 0)
    _check_lottery(w / w.sum() @ sched, sched)


# states that are hard for an interior-point method, with their exact optima
HARD_CASES = [
    # a starved queue at rate 1/16 next to an empty one
    ("cycle4", [8, 1, 7, 0], [15 / 16, 1 / 16, 15 / 16, 0]),
    # a pool tight at zero price: the interior point alone is ~1e-6 off
    ("tri-grid", [3, 4, 3, 3, 3], [3 / 8, 1 / 4, 3 / 8, 3 / 8, 3 / 8]),
    # the Newton matrix reaches condition ~1e13 before the KKT measure is 1e-12
    ("grid3x3", [7, 8, 4, 4, 1, 11, 7, 3, 6],
     [18 / 37, 19 / 37, 18 / 37, 1 / 2, 18 / 37, 19 / 37, 1 / 2, 1 / 2, 18 / 37]),
    # tight pools that are linearly dependent, two of them at zero price
    ("grid3x3", [0, 0, 2, 0, 1, 2, 0, 2, 1], [0, 0, 1 / 2, 0, 1 / 2, 1 / 2, 0, 1 / 2, 1 / 2]),
    ("cycle4", [2, 1, 1, 2], [1 / 2, 1 / 2, 1 / 2, 1 / 2]),
]


@pytest.mark.parametrize("name,q,expected", HARD_CASES)
def test_solver_hard_cases(name, q, expected):
    ex = load_example(name)
    q = np.array(q)
    sol = solve_prop_fair(q, ex.polytope)
    _check_solution(q, ex.polytope, sol)
    assert sol.kkt_residual <= 1e-12
    np.testing.assert_allclose(sol.rates, expected, rtol=0, atol=1e-12)
    dist = decompose_mean(sol.rates, ex.schedules())
    np.testing.assert_allclose(dist.mean, sol.rates, rtol=0, atol=1e-9)


@st.composite
def disjoint_pools(draw):
    """A pool matrix whose pools share no queue, weights in [0.2, 3], every
    pool used, and a queue vector with zeros in it."""
    J = draw(st.integers(1, 5))
    L = draw(st.integers(1, J))
    pool_of = draw(st.permutations(list(range(L)) + draw(
        st.lists(st.integers(0, L - 1), min_size=J - L, max_size=J - L))))
    A = np.zeros((L, J))
    A[pool_of, np.arange(J)] = draw(st.lists(st.floats(0.2, 3.0), min_size=J, max_size=J))
    q = np.array(draw(st.lists(st.one_of(st.just(0), st.integers(1, 12)), min_size=J, max_size=J)))
    assume(q.any())
    return CapacityPolytope(A), q


@settings(max_examples=150, deadline=None)
@given(case=disjoint_pools())
def test_fair_rates_are_the_store_forward_rates_on_disjoint_pools(case):
    # Phi factorizes over disjoint pools, and the fair rates are its
    # store-forward rates Q_j / (A_lj N_l) at every scale; the solve takes
    # them in closed form, with no interior point
    poly, q = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propfair, "_interior_point", None)
        sol = solve_prop_fair(q, poly)
    assert sol.converged and sol.kkt_residual <= 1e-14
    np.testing.assert_allclose(sol.rates, store_forward_rates(q, poly), rtol=0, atol=1e-13)
    # the last scale takes the total past the tilt threshold (120).  The
    # pass carries log Phi, whose rounding moves the store-forward rates by
    # up to about 2e-15 of the largest rate per packet (1e-12 at 180 packets
    # of weight 0.2), so the gap is held to 1e-14 per packet
    scales = np.array([1, 3, 121 // int(q.sum()) + 1])
    gaps = sf_pf_gap(q, poly, scales)
    assert np.all(gaps <= 1e-14 * scales * q.sum() * sol.rates.max())


def _kkt(Q, A, sol):
    """Largest violation of feasibility, of stationarity relative to
    Q_j / s_j and of complementary slackness relative to sum(Q)."""
    occupied = Q > 0
    marginal = Q[occupied] / sol.rates[occupied]
    load = A @ sol.rates
    return max(float(np.max(load - 1.0, initial=0.0)),
               float(np.max(abs(marginal - (A.T @ sol.prices)[occupied]) / marginal)),
               float(np.max(sol.prices * abs(1.0 - load))) / Q.sum())


@st.composite
def unit_bipartite_pools(draw):
    """A bipartite graph on at most 12 vertices, as its clique polytope or
    as a matrix of its edges plus single-queue pools (some repeated, every
    queue in a pool), and a queue vector with zeros in it whose occupied
    queues do not split into disjoint pools."""
    n = draw(st.integers(2, 12))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        A = cliques_to_polytope(InterferenceGraph.from_edges(n, edges)).matrix
    else:
        unit = np.eye(n)
        repeats = draw(st.lists(st.sampled_from(edges))) if edges else []
        rows = [unit[u] + unit[v] for u, v in edges + repeats]
        alone = sorted(set(range(n)) - {v for e in edges for v in e})
        rows += [unit[v] for v in alone + draw(st.lists(st.integers(0, n - 1)))]
        A = np.array(draw(st.permutations(rows)))
    q = np.array(draw(st.lists(st.one_of(st.just(0), st.integers(1, 12)), min_size=n, max_size=n)))
    assume(q.any())
    held = A[:, q > 0]
    assume(((held[held.sum(axis=1) > 0] > 0).sum(axis=0) > 1).any())
    return CapacityPolytope(A), q


@settings(max_examples=300, deadline=None)
@given(case=unit_bipartite_pools())
def test_bipartite_block_peel_is_the_interior_point_optimum(case):
    # on unit edges of a bipartite graph the fair rates are an isotonic
    # regression; the peel takes them in closed form, with no interior point
    poly, q = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propfair, "_interior_point", None)
        sol = solve_prop_fair(q, poly)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propfair, "_isotonic_peel", lambda q, A: None)
        ref = solve_prop_fair(q, poly)
    assert sol.converged and sol.iterations == 0
    assert sol.kkt_residual <= 1e-12 and _kkt(q, poly.matrix, sol) <= 1e-12
    np.testing.assert_allclose(sol.rates, ref.rates, rtol=0, atol=1e-12)


def test_shared_queues_still_run_the_interior_point(monkeypatch):
    # tri-grid's triangles and a weighted matrix whose pools share a queue
    # take the interior point; no k22, cycle4 or grid3x3 state does, as
    # their pools are unit edges of a bipartite graph
    calls = []
    inner = propfair._interior_point
    monkeypatch.setattr(propfair, "_interior_point", lambda q, A: calls.append(q) or inner(q, A))
    tri = load_example("tri-grid").polytope
    _check_solution(np.array([3, 4, 3, 3, 3]), tri, solve_prop_fair([3, 4, 3, 3, 3], tri))
    assert len(calls) == 1
    weighted = CapacityPolytope(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]]))
    _check_solution(np.array([1, 2, 3]), weighted, solve_prop_fair([1, 2, 3], weighted))
    assert len(calls) == 2
    for name in ("k22", "cycle4", "grid3x3"):
        ex = load_example(name)
        for q in StationarySampler(ex.spec, ex.polytope, seed=4).sample_queues(100):
            if q.any():
                _check_solution(q, ex.polytope, solve_prop_fair(q, ex.polytope))
    assert len(calls) == 2


def test_a_path_with_thirteen_queues_a_side_takes_the_interior_point(monkeypatch):
    # the peel enumerates the subsets of the smaller side, at most
    # SCHEDULE_CAP // 2 = 12 queues: 26 occupied queues on a path are past
    # it, 25 are not
    calls = []
    inner = propfair._interior_point
    monkeypatch.setattr(propfair, "_interior_point", lambda q, A: calls.append(q) or inner(q, A))
    path = cliques_to_polytope(InterferenceGraph.from_edges(26, [(v, v + 1) for v in range(25)]))
    q = np.arange(26) % 5 + 1
    full = solve_prop_fair(q, path)
    _check_solution(q, path, full)
    assert len(calls) == 1 and full.iterations > 0
    q[0] = 0
    _check_solution(q, path, solve_prop_fair(q, path))
    assert len(calls) == 1


def test_kkt_residual_has_no_negative_zero():
    # a pool whose slack is exactly 0.0 gives -0.0 in the residual's first
    # term; the residual is a maximum of absolute errors and starts at 0.0
    for ex in list_examples():
        sampler = StationarySampler(ex.spec, ex.polytope, seed=3)
        for q in sampler.sample_queues(40):
            if q.any():
                res = solve_prop_fair(q, ex.polytope).kkt_residual
                assert math.copysign(1.0, res) == 1.0, (ex.name, q.tolist(), res)


def test_solver_queue_alone_in_its_pool():
    # queue 0 is served by pool 0 alone, at rate 1 / A_00 at the optimum; a
    # Newton step on Q_j / s_j = (A^T p)_j rather than its bilinear form
    # jumps back from that boundary and cycles
    A = np.array([
        [0.5530695500655437, 0.0, 0.0],
        [0.0, 1.1856473069259483, 0.8305520528859127],
        [0.0, 0.8279155966167937, 0.6880683155487857],
    ])
    poly = CapacityPolytope(A)
    q = np.array([134, 161, 183])
    sol = solve_prop_fair(q, poly)
    _check_solution(q, poly, sol)
    assert sol.rates[0] == pytest.approx(1.0 / A[0, 0], rel=1e-12)


def test_gap_shared_pool_is_zero():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    gaps = sf_pf_gap([2, 1], poly, [1, 2, 8, 64])
    assert np.all(gaps <= 1e-8)


def test_gap_tandem_identically_zero():
    poly = CapacityPolytope(np.eye(2))
    gaps = sf_pf_gap([3, 1], poly, [1, 8, 32])
    assert np.all(gaps <= 1e-9)


def test_gap_four_cycle_shrinks(cycle4):
    _, poly, _ = cycle4
    cache = NormConstCache(poly)
    gaps = sf_pf_gap([2, 1, 1, 2], poly, [1, 4, 16], cache=cache)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02


def test_gap_rejects_unconverged_solve(monkeypatch):
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))

    def short_of_tolerance(Q, polytope, tol=1e-8):
        return dataclasses.replace(solve_prop_fair(Q, polytope, tol), converged=False)

    monkeypatch.setattr(propfair, "solve_prop_fair", short_of_tolerance)
    with pytest.raises(RuntimeError, match="KKT residual"):
        sf_pf_gap([2, 1], poly, [1, 4])


def test_solver_rejects_non_finite_queue_vector(capfd):
    # no LAPACK call may see them: it would print a parameter error and
    # end in LinAlgError
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    for q in ([np.nan, 1.0], [np.inf, 1.0], [2.0, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            solve_prop_fair(q, poly)
    assert capfd.readouterr().err == ""


def test_gap_matches_direct_computation():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    Q = np.array([3, 2])
    (gap,) = sf_pf_gap(Q, poly, (c for c in [4]))  # a one-pass iterable of scales
    direct = np.abs(
        store_forward_rates(4 * Q, poly) - solve_prop_fair(Q, poly).rates
    ).max()
    assert gap == pytest.approx(direct, abs=1e-12)


def test_decompose_one_edge():
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    for target, expected in [
        ([2 / 3, 1 / 3], {(1, 0): 2 / 3, (0, 1): 1 / 3}),
        ([0, 1], {(0, 1): 1.0}),  # a target equal to one schedule
        ([0, 0], {(0, 0): 1.0}),
    ]:
        dist = decompose_mean(target, sched)
        np.testing.assert_allclose(dist.mean, target, atol=1e-9)
        got = {tuple(s): p for s, p in zip(dist.schedules, dist.probabilities)}
        assert got.keys() == expected.keys()
        for s, p in expected.items():
            assert got[s] == pytest.approx(p, abs=1e-9)


def test_decompose_support_caratheodory():
    # no interference: 4 schedules on 2 queues, support must stay <= J + 1
    sched = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    dist = decompose_mean([0.5, 0.5], sched)
    assert dist.support_size <= 3
    np.testing.assert_allclose(dist.mean, [0.5, 0.5], atol=1e-9)


def test_decompose_probabilities_normalized(cycle4):
    _, poly, g = cycle4
    sched = enumerate_schedules(g)
    target = solve_prop_fair([2, 1, 1, 2], poly).rates
    dist = decompose_mean(target, sched)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(dist.probabilities > 0)
    assert dist.support_size <= 5
    np.testing.assert_allclose(dist.mean, target, atol=1e-8)


def test_decompose_infeasible():
    one_edge = [[0, 0], [1, 0], [0, 1]]
    for target, sched in [
        ([0.9, 0.9], one_edge),  # outside conv(S) for one edge
        ([0.3, 0.3], [[1, 0], [0, 1]]),  # the list lacks the empty schedule
        # the peel misses these by 1e-6, more than the default tol
        ([0.5, 0.5 + 1e-6], one_edge),
        ([-1e-6, 0.5], one_edge),
    ]:
        with pytest.raises(InfeasibleTargetError):
            decompose_mean(target, np.array(sched))


def test_distribution_sampling_deterministic():
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    dist = ScheduleDistribution(
        schedules=sched, probabilities=np.array([0.2, 0.5, 0.3])
    )
    a = [tuple(dist.sample(np.random.default_rng(3))) for _ in range(5)]
    b = [tuple(dist.sample(np.random.default_rng(3))) for _ in range(5)]
    assert a == b
    # long-run frequencies approach the weights
    rng = np.random.default_rng(17)
    draws = np.array([dist.sample(rng) for _ in range(20_000)])
    np.testing.assert_allclose(draws.mean(axis=0), dist.mean, atol=0.01)


def test_draw_is_the_right_sided_search_with_a_clamp():
    # a uniform equal to a cumulative weight selects the next row, as
    # np.searchsorted(side="right") does; one at or past a total that rounds
    # below 1 selects the last row
    dist = ScheduleDistribution(schedules=np.array([[0, 0], [1, 0], [0, 1]]),
                                probabilities=np.array([0.1, 0.2, 0.7 - 1e-12]))

    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    cum = np.cumsum(dist.probabilities)
    for u in [0.0, *cum.tolist(), np.nextafter(cum[0], 0), 0.5, cum[-1], 0.9999999999995]:
        k = min(int(np.searchsorted(cum, u, side="right")), 2)
        assert dist.draw(Fixed(u)) == k
        assert dist.sample(Fixed(u)).tolist() == dist.schedules[k].tolist()


def test_decompose_rejects_bad_target():
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(ValueError):
        decompose_mean([0.5], sched)


def test_decompose_rejects_non_finite_input():
    # invalid input, not an unreachable target
    one_edge = [[0, 0], [1, 0], [0, 1]]
    for target, sched in [
        ([np.nan, 0.2], one_edge),
        ([0.3, np.inf], one_edge),
        ([0.3, 0.2], [[0, 0], [np.nan, 0], [0, 1]]),
    ]:
        with pytest.raises(ValueError, match="finite") as err:
            decompose_mean(target, sched)
        assert not isinstance(err.value, InfeasibleTargetError)


def _lottery(dist):
    return dist.schedules.tobytes(), dist.probabilities.tobytes()


def test_pool_memo_keys_on_the_list_values(cycle4):
    _, poly, g = cycle4
    sched = enumerate_schedules(g)
    target = solve_prop_fair([2, 1, 1, 2], poly).rates
    forms = [sched.tolist(), sched.astype(np.int64), sched.astype(float)]
    got = {_lottery(decompose_mean(target, s)) for s in forms}
    assert len(got) == 1


def test_pool_memo_keeps_lists_of_one_shape_apart():
    # one edge between the queues, then no interference: same shape, other pools
    conflict = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    free = np.array([[0, 0], [1, 0], [1, 1]], dtype=float)
    a = decompose_mean([0.5, 0.5], conflict)
    b = decompose_mean([0.5, 0.5], free)
    np.testing.assert_array_equal(a.schedules, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(b.schedules, [[0, 0], [1, 1]])
    assert propfair._schedule_pools(conflict)[2].shape == (1, 2)
    assert propfair._schedule_pools(free)[2].shape == (2, 2)


def test_pool_memo_is_read_only_and_owns_its_list(monkeypatch):
    monkeypatch.setattr(propfair, "_POOL_MEMO", {})  # this list's first call builds
    sched = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    first = _lottery(decompose_mean([0.6, 0.4], sched))
    pools = propfair._schedule_pools(sched)
    assert pools[0] is not sched
    assert not any(a.flags.writeable for a in pools)
    sched[1:] = [[1, 1], [1, 1]]  # the caller reuses its array
    assert _lottery(decompose_mean([0.6, 0.4], [[0, 0], [1, 0], [0, 1]])) == first
    np.testing.assert_allclose(decompose_mean([0.6, 0.6], sched).mean, [0.6, 0.6])
