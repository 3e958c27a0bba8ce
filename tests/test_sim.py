import dataclasses

import numpy as np
import pytest

from switchnet import sim
from switchnet.metrics import SimConfig, collect_joint
from switchnet.model import CapacityPolytope, NetworkSpec, Route, compute_loads, enumerate_schedules
from switchnet.presets import load_example, scaled_rates
from switchnet.propfair import decompose_mean, solve_prop_fair
from switchnet.sim import (
    simulate_backpressure,
    simulate_prop_sched,
    simulate_store_forward,
)
from switchnet.storeforward import expected_queue_lengths, expected_route_delay


def _mm1(rate=0.4):
    poly = CapacityPolytope(np.array([[1.0]]))
    spec = NetworkSpec(
        n_queues=1, routes=[Route(id="r", path=(0,), rate=rate)], capacity=poly
    )
    return spec, poly


def test_mm1_queue_mean():
    spec, poly = _mm1(0.4)
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=40_000, seed=3))
    expect = 0.4 / 0.6
    assert abs(tr.queue_means[0] - expect) <= 3 * tr.queue_ses[0]
    assert tr.conservation_ok()
    assert not tr.transient


def test_mm1_sojourn():
    spec, poly = _mm1(0.4)
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=40_000, seed=5))
    # M/M/1 mean sojourn 1 / (1 - a)
    assert abs(tr.sojourn_means[0] - 1 / 0.6) <= 3 * tr.sojourn_ses[0]


def test_tandem_sojourn_matches_formula(tandem):
    spec, poly = tandem
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=30_000, seed=11))
    target = expected_route_delay("r0", spec, poly)
    assert target == pytest.approx(4.0)
    assert abs(tr.sojourn_means[0] - target) <= 3 * tr.sojourn_ses[0]


def test_pooled_route_sojourn(pooled_route):
    spec, poly = pooled_route
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=30_000, seed=2))
    assert abs(tr.sojourn_means[0] - 5.0) <= 3 * tr.sojourn_ses[0]


def test_queue_means_match_formula(merge):
    spec, poly = merge
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=30_000, seed=8))
    expect = expected_queue_lengths(spec, poly)
    for j in range(3):
        assert abs(tr.queue_means[j] - expect[j]) <= 3 * tr.queue_ses[j]


def test_littles_law_consistency(tandem):
    spec, poly = tandem
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=30_000, seed=13))
    # time-average route content ~ rate * mean sojourn
    ratio = tr.route_content_means[0] / (0.5 * tr.sojourn_means[0])
    assert ratio == pytest.approx(1.0, abs=0.05)


def test_event_sim_deterministic(merge):
    spec, poly = merge
    cfg = SimConfig(horizon=4000, seed=21)
    a = simulate_store_forward(spec, poly, cfg)
    b = simulate_store_forward(spec, poly, cfg)
    np.testing.assert_array_equal(a.queue_means, b.queue_means)
    np.testing.assert_array_equal(a.sojourn_means, b.sojourn_means)
    np.testing.assert_array_equal(a.composition_counts, b.composition_counts)
    assert a.admitted == b.admitted


def test_composition_mix(merge):
    spec, poly = merge
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=40_000, seed=4))
    counts = tr.composition_counts[2].astype(float)
    mix = counts / counts.sum()
    # queue 2 carries routes a, b, c at rates 0.15, 0.3, 0.1
    np.testing.assert_allclose(mix, np.array([0.15, 0.3, 0.1]) / 0.55, atol=0.02)


def test_unstable_flagged():
    spec, poly = _mm1(1.3)
    tr = simulate_store_forward(spec, poly, SimConfig(horizon=1500, seed=1))
    assert tr.transient
    assert tr.conservation_ok()


def test_initial_state_conserved(tandem):
    spec, poly = tandem
    tr = simulate_store_forward(
        spec, poly, SimConfig(horizon=3000, seed=9), initial=(40, 10)
    )
    assert tr.conservation_ok()


def test_checkpoints_recorded(merge):
    spec, poly = merge
    tr = simulate_store_forward(
        spec, poly, SimConfig(horizon=5000, seed=6, checkpoints=8)
    )
    assert len(tr.checkpoints) == 8
    times = [t for t, _, _ in tr.checkpoints]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    for _, Q, X in tr.checkpoints:
        np.testing.assert_array_equal(np.asarray(X).sum(axis=1), Q)


def test_joint_pair_recording(single_pool_sym):
    spec, poly = single_pool_sym
    tr = simulate_store_forward(
        spec, poly, SimConfig(horizon=30_000, seed=14, pairs=((0, 1),))
    )
    jo = collect_joint(tr, (0, 1))
    assert jo.total > 0
    # shared pool forces positive correlation (3/7 at these loads)
    assert jo.correlation() > 0.25


def test_prop_sched_runs_and_conserves(one_edge):
    spec, poly, g = one_edge
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    tr = simulate_prop_sched(
        spec, sched, SimConfig(horizon=4000, seed=10), polytope=poly
    )
    assert tr.kind == "prop-sched"
    assert tr.conservation_ok()
    assert not tr.transient
    assert np.all(tr.queue_means < 10)


def test_prop_sched_deterministic(one_edge):
    spec, poly, g = one_edge
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    cfg = SimConfig(horizon=2500, seed=20)
    a = simulate_prop_sched(spec, sched, cfg, polytope=poly)
    b = simulate_prop_sched(spec, sched, cfg, polytope=poly)
    np.testing.assert_array_equal(a.queue_means, b.queue_means)
    np.testing.assert_array_equal(a.sojourn_means, b.sojourn_means)


def test_prop_sched_bernoulli_arrivals(one_edge):
    spec, poly, g = one_edge
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    tr = simulate_prop_sched(
        spec,
        sched,
        SimConfig(horizon=3000, seed=12, slot_arrivals="bernoulli"),
        polytope=poly,
    )
    assert tr.conservation_ok()
    # bernoulli arrivals admit at most one packet per route per slot
    assert tr.admitted <= 2 * 3000


def test_prop_sched_multihop(tandem4):
    spec, poly, g = tandem4
    sched = spec.schedule_list()
    tr = simulate_prop_sched(
        spec, sched, SimConfig(horizon=4000, seed=30), polytope=poly
    )
    assert tr.conservation_ok()
    assert tr.sojourn_counts[0] > 0


def test_backpressure_tandem_ordering(tandem4):
    spec, poly, g = tandem4
    sched = spec.schedule_list()
    tr = simulate_backpressure(spec, sched, SimConfig(horizon=15_000, seed=8))
    q = tr.queue_means
    # spatial ordering: queue sizes fall toward the destination
    assert q[0] > q[1] > q[2] > q[3]
    assert tr.conservation_ok()


def test_backpressure_deterministic(tandem4):
    spec, poly, g = tandem4
    sched = spec.schedule_list()
    cfg = SimConfig(horizon=3000, seed=2)
    a = simulate_backpressure(spec, sched, cfg)
    b = simulate_backpressure(spec, sched, cfg)
    np.testing.assert_array_equal(a.queue_means, b.queue_means)
    assert a.admitted == b.admitted


def test_backpressure_respects_interference(one_edge):
    spec, poly, g = one_edge
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    tr = simulate_backpressure(spec, sched, SimConfig(horizon=3000, seed=7))
    assert tr.conservation_ok()
    # served work cannot exceed one packet per slot across the edge
    assert tr.departed <= 3000


def test_empty_route_queue_never_served(one_edge):
    # route r0 only feeds queue 0; queue 1 sees only route r1
    spec, poly, g = one_edge
    sched = np.array([[0, 0], [1, 0], [0, 1]])
    tr = simulate_prop_sched(
        spec, sched, SimConfig(horizon=2000, seed=3), polytope=poly
    )
    assert tr.composition_counts[0, 1] == 0
    assert tr.composition_counts[1, 0] == 0


def test_prop_sched_cold_solve_on_cycle4_repro():
    # a warm start with zero prices on both pools of queue 3 once returned
    # rates [0, 0, 0.5, 1.5e7], which no schedule lottery can reach
    ex = load_example("cycle4")
    sol = solve_prop_fair(np.array([0, 0, 1, 1]), ex.polytope)
    assert sol.converged
    np.testing.assert_allclose(sol.rates, [0.0, 0.0, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(decompose_mean(sol.rates, ex.schedules()).mean, sol.rates, atol=1e-9)


def test_prop_sched_rejects_unconverged_solve(cycle4, monkeypatch):
    spec, poly, g = cycle4

    def short_of_tolerance(Q, polytope):
        return dataclasses.replace(solve_prop_fair(Q, polytope), converged=False)

    monkeypatch.setattr(sim, "solve_prop_fair", short_of_tolerance)
    with pytest.raises(RuntimeError, match="KKT residual"):
        simulate_prop_sched(spec, enumerate_schedules(g), SimConfig(horizon=200, seed=1),
                            polytope=poly)


@pytest.mark.parametrize("load", [0.5, 0.8])
@pytest.mark.parametrize("name", ["k22", "cycle4", "tri-grid", "grid3x3"])
def test_prop_sched_multi_pool_presets(name, load):
    # every slot's fair allocation must converge and decompose into a
    # lottery over the network's schedules
    ex = load_example(name)
    spec = scaled_rates(ex, load)
    for seed in range(3):
        tr = simulate_prop_sched(
            spec, ex.schedules(), SimConfig(horizon=2000, seed=seed), polytope=ex.polytope
        )
        assert tr.conservation_ok()
        assert not tr.transient
