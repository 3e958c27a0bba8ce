import dataclasses
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchnet import sim
from switchnet.metrics import JOINT_CAP, SimConfig, collect_joint
from switchnet.model import (
    CapacityPolytope, InterferenceGraph, NetworkSpec, NetworkValidationError, Route, compute_loads,
    enumerate_schedules,
)
from switchnet.presets import load_example, scaled_rates
from switchnet.propfair import decompose_mean, solve_prop_fair
from switchnet.sim import (
    simulate_backpressure,
    simulate_prop_sched,
    simulate_store_forward,
)
from switchnet.storeforward import (
    StationarySampler,
    expected_queue_lengths,
    expected_route_delay,
)


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


def _assert_same_trace(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "joint_histograms":
            assert x.keys() == y.keys()
            for k in x:
                np.testing.assert_array_equal(x[k], y[k])
        elif f.name == "checkpoints":
            assert len(x) == len(y)
            for cx, cy in zip(x, y):
                assert cx[0] == cy[0]
                np.testing.assert_array_equal(cx[1], cy[1])
                np.testing.assert_array_equal(cx[2], cy[2])
        else:
            np.testing.assert_array_equal(x, y, err_msg=f.name)


def test_chunk_and_block_boundaries_leave_a_run_unchanged(merge, monkeypatch):
    # blocks of 256 draws, cut into chunks that divide the block, do not
    # divide it, or exceed it: every flush boundary lands somewhere else.
    # At 3.55 events per unit time the run spans 28 blocks.
    spec, poly = merge
    cfg = SimConfig(horizon=2000, seed=5, warmup_fraction=0.3, pairs=((0, 2),), checkpoints=6)
    monkeypatch.setattr(sim, "_BLOCK", 256)
    runs = []
    for chunk in (64, 100, 4096):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        runs.append(simulate_store_forward(spec, poly, cfg, initial=(2, 1, 3)))
    for other in runs[1:]:
        _assert_same_trace(runs[0], other)


_QUEUE = st.integers(0, JOINT_CAP + 3)


@settings(max_examples=60, deadline=None)
@given(
    states=st.lists(st.tuples(_QUEUE, _QUEUE, _QUEUE, st.integers(0, 9), st.integers(0, 9)),
                    min_size=1, max_size=4),
    # lengths with full mantissas, so that adding them in another order
    # rounds differently
    segments=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 10**9).map(lambda k: k / 997.0),
                                st.integers(0, 3)), min_size=30, max_size=90),
    data=st.data(),
)
def test_flush_matches_a_sequential_sum(states, segments, data):
    # the batch integrals and the joint histogram receive the same terms in
    # the same order as a plain += loop over the segments, wherever the
    # flushes fall
    cuts = data.draw(st.sets(st.integers(1, len(segments) - 1), min_size=1, max_size=4))
    spec = NetworkSpec(n_queues=3, routes=[Route(id="a", path=(0, 2), rate=0.2),
                                           Route(id="b", path=(1, 2), rate=0.3)],
                       capacity=CapacityPolytope(np.eye(3)))
    col = sim._Collector(spec, SimConfig(horizon=9.0, batches=3, pairs=((0, 2),)), 9.0, 0.0)
    mass = [0.0] * 3
    qint = [[0.0] * 3 for _ in range(3)]
    cint = [[0.0] * 2 for _ in range(3)]
    hist = np.zeros((JOINT_CAP + 1, JOINT_CAP + 1))
    for i, (b, seg, k) in enumerate(segments):
        if i in cuts:
            col.flush()
        state = states[k % len(states)]
        col.log_b.append(b)
        col.log_seg.append(seg)
        col.log_id.append(col.index.setdefault(state, len(col.index)))
        mass[b] += seg
        for j in range(3):
            qint[b][j] += state[j] * seg
        for r in range(2):
            cint[b][r] += state[3 + r] * seg
        hist[min(state[0], JOINT_CAP), min(state[2], JOINT_CAP)] += seg
    col.flush()
    acc = col.acc.reshape(3, 6)
    assert acc[:, 0].tolist() == mass
    assert acc[:, 1:4].tolist() == qint
    assert acc[:, 4:].tolist() == cint
    assert np.array_equal(col.pair_hists[0, 2], hist)


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


def test_initial_fill_draws_the_sampler_labels(merge):
    # the initial fill and the exact sampler share one stationary label draw
    spec, poly = merge
    q = np.array([3, 2, 5])
    sampler = StationarySampler(spec, poly)
    sampler.sample_queues = lambda n: q[None, :]
    sampler.rng = np.random.default_rng(17)
    _, labels = sampler.sample_state()
    fifo, X = sim._initial_state(spec, q, np.random.default_rng(17))
    assert tuple(tuple(r for r, _ in f) for f in fifo) == labels
    assert X.sum(axis=1).tolist() == q.tolist()


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


def test_backpressure_refuses_a_polytope_that_does_not_fit():
    k22 = load_example("k22")
    with pytest.raises(NetworkValidationError, match="dimension mismatch"):
        simulate_backpressure(k22.spec, k22.schedules(), SimConfig(horizon=10, seed=0),
                              polytope=CapacityPolytope(np.eye(3)))


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


def _backpressure_serve(spec, schedules):
    """The serve function simulate_backpressure hands to its slot loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_slotted_run", lambda spec, cfg, serve, *rest: serve)
        return simulate_backpressure(spec, schedules, SimConfig(horizon=1))


def _backpressure_oracle(spec, S, X):
    """(queue, route, served) of one backpressure slot by the numpy formula:
    weights max(0, max_r X_jr - X_kr), the first schedule of largest
    weighted sum in lexicographic order, the first route of largest
    differential."""
    S = S[np.lexsort(S.T[::-1])]
    X = np.array(X, dtype=np.int64)
    down = spec.next_hop[:-1]
    low = np.iinfo(np.int64).min
    down_counts = np.where(down >= 0, X[np.maximum(down, 0), np.arange(spec.n_routes)[None, :]], 0)
    diff = np.where(down != -2, X - down_counts, low)
    w = np.maximum(diff.max(axis=1, initial=low), 0)
    if not w.any():
        return []
    sched = S[int(np.argmax(S @ w))]
    served = []
    for j in range(spec.n_queues):
        if sched[j] > 0 and w[j] > 0:
            r = int(np.argmax(diff[j]))
            served.append((j, r, int(min(sched[j], X[j, r]))))
    return served


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_backpressure_slot_matches_the_numpy_formula(data):
    # small counts make equal weights and equal differentials common, so the
    # schedule and route tie-breaks are exercised
    J = data.draw(st.integers(1, 5), "queues")
    paths = data.draw(st.lists(st.lists(st.integers(0, J - 1), min_size=1, max_size=3, unique=True),
                               min_size=1, max_size=4), "paths")
    spec = NetworkSpec(J, [Route(f"r{i}", tuple(p), 0.1) for i, p in enumerate(paths)],
                       CapacityPolytope(np.eye(J)))
    on = spec.next_hop[:-1] != -2
    X = [[data.draw(st.integers(0, 3)) if on[j, r] else 0 for r in range(len(paths))]
         for j in range(J)]
    S = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=J, max_size=J),
                                    min_size=1, max_size=6), "schedules"))
    fifo = []
    for j in range(J):
        packets = [r for r in range(len(paths)) for _ in range(X[j][r])]
        fifo.append(deque(zip(data.draw(st.permutations(packets)), range(len(packets)))))
    before = [list(f) for f in fifo]
    actions = _backpressure_serve(spec, S)(None, [sum(x) for x in X], X, fifo)
    assert [(j, r, len(got)) for j, r, got in actions] == _backpressure_oracle(spec, S, X)
    for j, r, got in actions:
        # the oldest packets of the route leave; the rest keep their order
        assert got == [a for q, a in before[j] if q == r][:len(got)]
        assert list(fifo[j]) == [p for p in before[j] if p[0] != r or p[1] not in got]


def test_slot_arrivals_follow_the_array_stream(monkeypatch):
    # one scalar draw per route gives the values rng.poisson(rates) gives,
    # interleaved with uniforms, for a zero rate and on both sides of numpy's
    # switch of Poisson method at 10
    rates = np.array([0.0, 0.3, 2.0, 15.0, 40.0])
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(300):
        assert [a.poisson(lam) for lam in rates.tolist()] == b.poisson(rates).tolist()
        assert a.random() == b.random()
    # and the slot loop takes them in that order: one slot's arrivals, then
    # the lottery's uniform; a loop that drew arrivals in blocks would not
    make_rng, calls = np.random.default_rng, []

    class Recorder:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def poisson(self, lam):
            calls.append(("poisson", self.rng.poisson(lam)))
            return calls[-1][1]

        def random(self, size=None):
            calls.append(("random", self.rng.random(size)))
            return calls[-1][1]

    monkeypatch.setattr(np.random, "default_rng", Recorder)
    spec = NetworkSpec(2, [Route("slow", (0,), 0.4), Route("fast", (1,), 12.0)],
                       InterferenceGraph.from_edges(2, [(0, 1)]))
    for mode in ("poisson", "bernoulli"):
        calls.clear()
        cfg = SimConfig(horizon=150, seed=3, slot_arrivals=mode)
        simulate_prop_sched(spec, spec.schedule_list(), cfg, polytope=CapacityPolytope(np.ones((1, 2))))
        ref = make_rng(3)
        for _ in range(cfg.horizon):
            if mode == "poisson":
                want, got = ref.poisson(spec.rates()).tolist(), []
                while len(got) < len(want):
                    kind, value = calls.pop(0)
                    assert kind == "poisson"
                    got += np.ravel(value).tolist()
            else:
                want, (kind, got) = ref.random(2), calls.pop(0)
                assert kind == "random" and np.shape(got) == (2,)
            assert np.array_equal(got, want)
            if calls and calls[0][0] == "random" and np.ndim(calls[0][1]) == 0:
                assert calls.pop(0)[1] == ref.random()
        assert not calls


@pytest.mark.parametrize("simulate", [simulate_prop_sched, simulate_backpressure])
def test_slotted_chunk_boundaries_leave_a_run_unchanged(simulate, monkeypatch):
    # the collector flushes every _CHUNK logged slots: of the 4800 logged
    # here, chunks of 64 and 100 flush at different slots many times, and
    # 4096 once, mid-run
    ex = load_example("tandem4")
    cfg = SimConfig(horizon=6000, seed=9, pairs=((0, 2),), checkpoints=5)
    runs = []
    for chunk in (64, 100, 4096):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        runs.append(simulate(ex.spec, ex.schedules(), cfg, initial=(3, 0, 2, 1)))
    for other in runs[1:]:
        _assert_same_trace(runs[0], other)


def test_slot_block_boundaries_leave_a_run_unchanged(monkeypatch):
    # backpressure draws its arrivals _SLOT_BLOCK slots at a time: blocks of
    # 1 slot, of 7 and 64 (which do not divide the 300 slots) and of 4096
    # (past the horizon) give the same traces.  A block drawn route-major,
    # as (R, n) and transposed, reads the stream in another order from
    # block 7 on.  Prop-sched draws per slot and never reads the block size.
    ex = load_example("k22")
    spec, sched = scaled_rates(ex, 0.8), ex.schedules()
    for mode in ("poisson", "bernoulli"):
        cfg = SimConfig(horizon=300, seed=21, warmup_fraction=0.3, pairs=((0, 2),), checkpoints=7,
                        slot_arrivals=mode)
        runs = {simulate_backpressure: [], simulate_prop_sched: []}
        for block in (1, 7, 64, 4096):
            monkeypatch.setattr(sim, "_SLOT_BLOCK", block)
            for simulate, out in runs.items():
                out.append(simulate(spec, sched, cfg, polytope=ex.polytope, initial=(2, 1, 0, 3)))
        for out in runs.values():
            for other in out[1:]:
                _assert_same_trace(out[0], other)
        # and one slot at a time is the stream of the per-slot draws, on both
        # sides of numpy's switch of Poisson method at 10
        rates = np.array([0.0, 0.3, 2.0, 15.0])
        per_slot = list(sim._slot_arrivals(np.random.default_rng(4), rates, mode == "bernoulli",
                                           300, None))
        for block in (1, 7, 4096):
            assert list(sim._slot_arrivals(np.random.default_rng(4), rates, mode == "bernoulli",
                                           300, block)) == per_slot


@pytest.mark.parametrize("simulate", [simulate_prop_sched, simulate_backpressure])
def test_slotted_checkpoints_fit_the_post_warmup_slots(simulate, one_edge):
    # 20 slots at warm-up 0.2 leave 16 to snapshot: 16 checkpoints take them
    # all, 17 cannot be kept distinct and raise rather than come back fewer
    spec, poly, _ = one_edge
    sched = spec.schedule_list()
    tr = simulate(spec, sched, SimConfig(horizon=20, seed=2, checkpoints=16), polytope=poly)
    assert [t for t, _, _ in tr.checkpoints] == [float(s) for s in range(4, 20)]
    for n in (17, 50):
        with pytest.raises(ValueError, match=f"{n} checkpoints asked of a run with 16 post-warmup"):
            simulate(spec, sched, SimConfig(horizon=20, seed=2, checkpoints=n), polytope=poly)
