import dataclasses
import math

import numpy as np
import pytest

from switchnet import analysis
from switchnet.analysis import (
    CompositionProfile,
    balance_check,
    independence_test,
    large_deviations_rate,
    log_norm_const_scaling,
    lyapunov_drift,
    queues_share_pool,
    random_balance_checks,
    stationary_mix,
)
from switchnet.metrics import SimConfig
from switchnet.model import CapacityPolytope, NetworkSpec, Route, compute_loads
from switchnet.normconst import log_norm_const
from switchnet.presets import load_example, scaled_rates
from switchnet.propfair import solve_prop_fair
from switchnet.sim import simulate_prop_sched, simulate_store_forward
from switchnet.storeforward import StationarySampler, stationary_normalizer


def test_balance_hand_case(single_pool):
    spec, poly = single_pool
    rep = balance_check(((1, 0), ((0,), ())), ("arrival", 1), spec, poly)
    assert rep.residual < 1e-14
    assert rep.forward_flux > 0


def test_balance_transition_classes(tandem):
    spec, poly = tandem
    state = ((1, 1), ((0,), (0,)))
    for transition in [("arrival", 0), ("move", 0), ("departure", 1)]:
        rep = balance_check(state, transition, spec, poly)
        assert rep.residual < 1e-13


def test_balance_errors(tandem):
    spec, poly = tandem
    state = ((1, 1), ((0,), (0,)))
    with pytest.raises(ValueError):
        balance_check(state, ("teleport", 0), spec, poly)
    with pytest.raises(ValueError):
        balance_check(state, ("departure", 0), spec, poly)  # hops remain
    with pytest.raises(ValueError):
        balance_check(state, ("move", 1), spec, poly)  # final hop
    with pytest.raises(ValueError):
        balance_check(((0, 1), ((), (0,))), ("move", 0), spec, poly)  # empty
    # the FIFOs must list every packet Q counts
    ex = load_example("k22")
    k22 = scaled_rates(ex, 0.8)
    with pytest.raises(ValueError, match="FIFO holds 1 packets but Q_j = 3"):
        balance_check(((3, 0, 0, 0), ((0,), (), (), ())), ("departure", 0), k22, ex.polytope)


def test_random_balance_residuals(tandem, merge, pooled_route, cycle4):
    nets = [tandem, merge, pooled_route, (cycle4[0], cycle4[1])]
    for spec, poly in nets:
        reports = random_balance_checks(spec, poly, n=150, seed=31)
        worst = max(r.residual for r in reports)
        assert worst < 1e-12


def test_share_pool_predicate(cycle4):
    _, poly, _ = cycle4
    assert queues_share_pool(poly, 0, 1)
    assert not queues_share_pool(poly, 0, 2)


def _shared_pool_law_correlation(a=0.3, trunc=200):
    # direct summation of the stationary law on a shared pool:
    # P(Q) = (1 - 2a) * binom(n, k) * a^n over n = q0 + q1
    e1 = e11 = e1sq = mass = 0.0
    for n in range(trunc + 1):
        pn = (1 - 2 * a) * a**n
        for k in range(n + 1):
            p = pn * math.comb(n, k)
            mass += p
            e1 += p * k
            e1sq += p * k * k
            e11 += p * k * (n - k)
    var = e1sq - e1 * e1
    return (e11 - e1 * e1) / var, mass


def test_shared_pool_correlation_by_summation():
    # the oracle itself: truncated law sum gives corr 3/7 at a = 0.3
    corr, mass = _shared_pool_law_correlation()
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert corr == pytest.approx(3 / 7, abs=1e-10)


def test_sampler_reproduces_law_correlation(single_pool_sym):
    spec, poly = single_pool_sym
    qs = StationarySampler(spec, poly, seed=40).sample_queues(100_000)
    rep = independence_test(qs, (0, 1), poly)
    assert rep.shares_pool
    assert rep.verdict == "dependent"
    assert rep.correlation == pytest.approx(3 / 7, abs=0.02)


def test_non_sharing_pair_consistent(cycle4):
    spec, poly, _ = cycle4
    qs = StationarySampler(spec, poly, seed=41).sample_queues(100_000)
    rep = independence_test(qs, (0, 2), poly)
    assert not rep.shares_pool
    assert rep.verdict == "independent-consistent"
    assert abs(rep.correlation) <= 0.02
    assert rep.p_value >= 0.001


def test_independence_needs_samples(single_pool_sym):
    spec, poly = single_pool_sym
    qs = StationarySampler(spec, poly, seed=1).sample_queues(500)
    with pytest.raises(ValueError):
        independence_test(qs, (0, 1), poly)


def test_independence_needs_the_polytope_queues(merge):
    # merge's three queues against k22's four-queue polytope: queues 0 and 2
    # share a k22 pool, which says nothing about merge
    spec, poly = merge
    qs = StationarySampler(spec, poly, seed=2).sample_queues(2000)
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=50, seed=2, pairs=((0, 2),)))
    for source in (qs, tr):
        with pytest.raises(ValueError, match="samples hold 3 queues, the polytope 4"):
            independence_test(source, (0, 2), load_example("k22").polytope)


def test_stationary_mix(merge):
    spec, poly = merge
    mix = stationary_mix(spec, poly)
    np.testing.assert_allclose(mix[0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(mix[1], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(mix[2], np.array([0.15, 0.3, 0.1]) / 0.55)


def test_profile_validation(merge):
    spec, _ = merge
    good = np.zeros((1, 3, 3))
    good[0, 0] = [1.0, 0.0, 0.0]
    good[0, 1] = [0.0, 0.0, 1.0]
    good[0, 2] = [0.0, 1.0, 0.0]
    CompositionProfile([[0, 0, 0], [2, 1, 3]], good, spec)
    with pytest.raises(ValueError):
        CompositionProfile([[0, 0, 1], [2, 1, 3]], good, spec)  # nonzero start
    with pytest.raises(ValueError):
        CompositionProfile([[0, 0, 0], [-1, 1, 3]], good, spec)  # decreasing
    bad = good.copy()
    bad[0, 0] = [0.0, 1.0, 0.0]  # route b does not pass queue 0
    with pytest.raises(ValueError):
        CompositionProfile([[0, 0, 0], [2, 1, 3]], bad, spec)
    bad2 = good.copy()
    bad2[0, 2] = [0.0, 0.5, 0.4]  # does not sum to 1
    with pytest.raises(ValueError):
        CompositionProfile([[0, 0, 0], [2, 1, 3]], bad2, spec)


def test_rate_zero_at_origin(single_pool):
    spec, poly = single_pool
    mix = stationary_mix(spec, poly)
    prof = CompositionProfile.single_stage([0, 0], mix, spec)
    assert large_deviations_rate([0, 0], prof, spec, poly) == pytest.approx(0.0)


def test_rate_mm1_closed_form():
    poly = CapacityPolytope(np.array([[1.0]]))
    spec = NetworkSpec(
        n_queues=1, routes=[Route(id="r", path=(0,), rate=0.4)], capacity=poly
    )
    for q in [1, 2, 5, 9]:
        prof = CompositionProfile.single_stage([q], np.ones((1, 1)), spec)
        rate = large_deviations_rate([q], prof, spec, poly)
        assert rate == pytest.approx(q * math.log(1 / 0.4), abs=1e-9)


def test_rate_minimized_at_stationary_mix():
    # one queue fed by two routes: scan compositions on a grid
    poly = CapacityPolytope(np.array([[1.0]]))
    spec = NetworkSpec(
        n_queues=1,
        routes=[
            Route(id="u", path=(0,), rate=0.4),
            Route(id="v", path=(0,), rate=0.1),
        ],
        capacity=poly,
    )
    q = np.array([4])
    vals = []
    grid = np.linspace(0.01, 0.99, 99)
    for g in grid:
        prof = CompositionProfile.single_stage(q, np.array([[g, 1 - g]]), spec)
        vals.append(large_deviations_rate(q, prof, spec, poly))
    best = grid[int(np.argmin(vals))]
    assert best == pytest.approx(0.4 / 0.5, abs=0.011)


@pytest.mark.parametrize("name, Q", [("single-pool", (1, 2)), ("k22", (1, 2, 3, 4))])
def test_rate_is_the_stationary_decay_rate(name, Q):
    # -(1/c) log P(cQ) of the stationary queue totals, P(Q) = prod_l (1 - a_l)
    # Phi(Q) prod_j a_j^Q_j, approaches the rate at the stationary composition
    # with a gap falling like log c / c; the fair objective at Q is nonzero
    ex = load_example(name)
    spec, poly = ex.spec, ex.polytope
    assert solve_prop_fair(Q, poly).objective < -1.0
    loads = compute_loads(spec, poly)
    prof = CompositionProfile.single_stage(Q, stationary_mix(spec, poly), spec)
    rate = large_deviations_rate(Q, prof, spec, poly)
    scales = (50, 100, 200)
    gaps = []
    for c in scales:
        q = np.array(Q) * c
        log_p = (math.log(stationary_normalizer(loads)) + log_norm_const(q, poly)
                 + float(q @ np.log(loads.queue_loads)))
        gaps.append(abs(-log_p / c - rate))
    assert all(g <= math.log(c) / c for g, c in zip(gaps, scales))
    assert gaps[0] > gaps[1] > gaps[2]


def test_rate_profile_endpoint_mismatch(single_pool):
    spec, poly = single_pool
    mix = stationary_mix(spec, poly)
    prof = CompositionProfile.single_stage([2, 1], mix, spec)
    with pytest.raises(ValueError):
        large_deviations_rate([3, 1], prof, spec, poly)


def test_scaling_gap_shrinks_shared_pool():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    diag = log_norm_const_scaling([2, 1], poly, [1, 4, 16, 64])
    target = -solve_prop_fair([2, 1], poly).objective
    assert diag.target == pytest.approx(target)
    assert diag.decreasing
    assert diag.gaps[-1] < diag.gaps[0]


def test_scaling_gap_shrinks_cycle(cycle4):
    _, poly, _ = cycle4
    diag = log_norm_const_scaling([2, 1, 1, 2], poly, [1, 4, 16])
    assert diag.decreasing
    assert diag.last_gap < diag.gaps[0]


def test_fair_limits_reject_unconverged_solve(single_pool, monkeypatch):
    spec, poly = single_pool

    def short_of_tolerance(Q, polytope, tol=1e-8):
        return dataclasses.replace(solve_prop_fair(Q, polytope, tol), converged=False)

    monkeypatch.setattr(analysis, "solve_prop_fair", short_of_tolerance)
    prof = CompositionProfile.single_stage([2, 1], stationary_mix(spec, poly), spec)
    with pytest.raises(RuntimeError, match="KKT residual"):
        large_deviations_rate([2, 1], prof, spec, poly)
    with pytest.raises(RuntimeError, match="KKT residual"):
        log_norm_const_scaling([2, 1], poly, [1, 4])
    # the empty state needs no solve
    assert log_norm_const_scaling([0, 0], poly, [1]).target == 0.0


def test_scaling_zero_vector():
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    diag = log_norm_const_scaling([0, 0], poly, [1, 2])
    assert diag.target == 0.0
    np.testing.assert_allclose(diag.values, 0.0)


def test_drift_negative_when_draining(one_edge):
    spec, poly, g = one_edge
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    tr = simulate_prop_sched(
        spec,
        sched,
        SimConfig(horizon=3000, seed=15, warmup_fraction=0.0, checkpoints=12),
        polytope=poly,
        initial=(40, 40),
    )
    rep = lyapunov_drift(tr, spec, poly)
    assert rep.slope < 0
    assert rep.values[0] > rep.values[-1]


def test_drift_needs_checkpoints(tandem):
    spec, poly = tandem
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=500, seed=3))
    with pytest.raises(ValueError):
        lyapunov_drift(tr, spec, poly)
