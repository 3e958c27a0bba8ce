"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Targets are closed forms or independently derived oracle values; seeds
and tolerances are pinned.  Run with -rP (the default addopts) to see
the lines for passing criteria too.
"""

import math
import time

import numpy as np
from scipy.stats import chi2

from switchnet.analysis import (
    CompositionProfile,
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
from switchnet.normconst import NormConstCache, log_norm_const
from switchnet.presets import list_examples, load_example, scaled_rates
from switchnet.propfair import sf_pf_gap
from switchnet.sim import (
    simulate_backpressure,
    simulate_prop_sched,
    simulate_store_forward,
)
from switchnet.storeforward import (
    StationarySampler,
    expected_queue_lengths,
    stationary_normalizer,
)

from oracles import norm_const_bruteforce_table, norm_const_table


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


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


def test_criterion_01_phi_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(50):
        poly = _random_polytope(rng)
        J = poly.n_queues
        box = (11,) * J
        table = norm_const_table(poly, box)
        brute = norm_const_bruteforce_table(poly, total_cap=10)
        sub = brute[tuple(slice(0, 11) for _ in range(J))]
        mask = np.indices(box).sum(axis=0) <= 10
        rel = np.abs(table[mask] - sub[mask]) / np.maximum(np.abs(sub[mask]), 1e-300)
        worst = max(worst, float(rel.max()))
    dt = time.perf_counter() - t0
    _report(
        1,
        "phi-oracle-equivalence",
        worst <= 1e-10 and dt < 10.0,
        f"max rel err {worst:.2e} over 50 networks, {dt:.1f}s",
    )


def test_criterion_02_allocation_limit():
    t0 = time.perf_counter()
    shared = CapacityPolytope(np.array([[1.0, 1.0]]))
    g_shared = sf_pf_gap([2, 1], shared, [1, 8, 64, 512])
    shared_ok = bool(np.all(g_shared <= 1e-8))

    c_grid = [8, 32, 128, 512]
    tandem = CapacityPolytope(np.eye(2))
    g_tandem = sf_pf_gap([3, 1], tandem, c_grid)
    # the two-queue line attains the limit exactly, so "decreasing"
    # degenerates to staying at zero
    tandem_ok = bool(np.all(np.diff(g_tandem) <= 1e-12) and g_tandem[-1] <= 1e-2)

    cyc = load_example("cycle4")
    g_cyc = sf_pf_gap([2, 1, 1, 2], cyc.polytope, c_grid)
    cyc_ok = bool(np.all(np.diff(g_cyc) < 0) and g_cyc[-1] <= 1e-2)
    dt = time.perf_counter() - t0
    _report(
        2,
        "allocation-limit",
        shared_ok and tandem_ok and cyc_ok and dt < 30.0,
        f"shared max {g_shared.max():.1e}; line last {g_tandem[-1]:.1e}; "
        f"cycle gaps {np.array2string(g_cyc, precision=2)}, {dt:.1f}s",
    )


def test_criterion_03_balance_equations():
    t0 = time.perf_counter()
    worst = 0.0
    nets = ["single-pool", "pooled-route", "tandem", "merge", "tandem4", "cycle4", "k22"]
    for name in nets:
        ex = load_example(name)
        reports = random_balance_checks(ex.spec, ex.polytope, n=1000, seed=77)
        worst = max(worst, max(r.residual for r in reports))
    dt = time.perf_counter() - t0
    _report(
        3,
        "balance-equations",
        worst < 1e-12 and dt < 5.0,
        f"max residual {worst:.2e} over {len(nets)}x1000 checks, {dt:.1f}s",
    )


def test_criterion_04_delay_formula():
    t0 = time.perf_counter()
    results = []
    for name, target, seed in [("tandem", 4.0, 52), ("pooled-route", 5.0, 53)]:
        ex = load_example(name)
        rates = ex.spec.rates().sum()
        A = ex.polytope.matrix
        lam = rates + sum(
            1.0 / A[A[:, j] > 0, j].max() for j in range(ex.spec.n_queues)
        )
        horizon = 1_000_000 / lam
        tr = simulate_store_forward(
            ex.spec, ex.polytope, SimConfig(horizon=horizon, seed=seed)
        )
        z = abs(tr.sojourn_means[0] - target) / tr.sojourn_ses[0]
        results.append((name, tr.sojourn_means[0], tr.sojourn_ses[0], z))
    dt = time.perf_counter() - t0
    ok = all(z <= 3.0 for _, _, _, z in results) and dt < 120.0
    detail = "; ".join(
        f"{n} {m:.4f}+-{s:.4f} ({z:.2f} SE)" for n, m, s, z in results
    )
    _report(4, "delay-formula", ok, f"{detail}, {dt:.1f}s")


def test_criterion_05_queue_length_formula():
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = ""
    runs = 0
    for ex in list_examples():
        cache = NormConstCache(ex.polytope)
        for load, seed in ((0.5, 160), (0.8, 161)):
            spec = scaled_rates(ex, load)
            expect = expected_queue_lengths(spec, ex.polytope)
            rates = spec.rates().sum()
            A = ex.polytope.matrix
            lam = rates + sum(
                1.0 / A[A[:, j] > 0, j].max() for j in range(spec.n_queues)
            )
            if spec.n_queues <= 6:
                # one long run; batches sized well past the relaxation
                # time at load 0.8 so the batch-means error bar is honest
                events = 120_000 if spec.n_queues <= 4 else 80_000
                tr = simulate_store_forward(
                    spec,
                    ex.polytope,
                    SimConfig(
                        horizon=events / lam,
                        seed=seed,
                        batches=40 if spec.n_queues <= 4 else 20,
                    ),
                    phi_cache=cache,
                )
                z = np.abs(tr.queue_means - expect) / tr.queue_ses
            else:
                # the 9-queue grid mixes too slowly for batch means at a
                # tolerable horizon: average independent replications,
                # each started from an exact stationary draw
                reps = []
                for r in range(6):
                    init = StationarySampler(
                        spec, ex.polytope, seed=seed * 100 + r
                    ).sample_queues(1)[0]
                    tr = simulate_store_forward(
                        spec,
                        ex.polytope,
                        SimConfig(
                            horizon=8_000 / lam,
                            seed=seed * 100 + r,
                            warmup_fraction=0.05,
                            batches=4,
                        ),
                        initial=init,
                        phi_cache=cache,
                    )
                    reps.append(tr.queue_means)
                reps = np.asarray(reps)
                se = reps.std(axis=0, ddof=1) / math.sqrt(len(reps))
                z = np.abs(reps.mean(axis=0) - expect) / se
            runs += 1
            if z.max() > worst:
                worst = float(z.max())
                worst_at = f"{ex.name}@{load}"
    dt = time.perf_counter() - t0
    _report(
        5,
        "queue-length-formula",
        worst <= 3.0,
        f"worst |z| {worst:.2f} at {worst_at}, {runs} runs, {dt:.1f}s",
    )


def _composition_chi2(counts, probs):
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() * np.asarray(probs)
    mask = expected >= 5
    stat = float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    dof = int(mask.sum()) - 1
    return float(chi2.sf(stat, dof)) if dof > 0 else 1.0


def test_criterion_06_composition_law():
    t0 = time.perf_counter()
    ex = load_example("merge")
    tr = simulate_store_forward(
        ex.spec, ex.polytope, SimConfig(horizon=60_000, seed=62)
    )
    mix = stationary_mix(ex.spec, ex.polytope)
    counts = tr.composition_counts[2]
    p_true = _composition_chi2(counts, mix[2])
    # power check: swap the rates of routes a and b in the expected law
    swapped = mix[2][[1, 0, 2]]
    p_swap = _composition_chi2(counts, swapped)
    dt = time.perf_counter() - t0
    _report(
        6,
        "composition-law",
        p_true >= 0.001 and p_swap < 0.001,
        f"true-mix p {p_true:.3f}; swapped-rates p {p_swap:.2e}, {dt:.1f}s",
    )


def test_criterion_07_independence():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for name, seed in [("k22", 70), ("cycle4", 71), ("grid3x3", 72)]:
        ex = load_example(name)
        qs = StationarySampler(ex.spec, ex.polytope, seed=seed).sample_queues(100_000)
        J = ex.spec.n_queues
        for j in range(J):
            for k in range(j + 1, J):
                if queues_share_pool(ex.polytope, j, k):
                    continue
                rep = independence_test(qs, (j, k), ex.polytope)
                checked += 1
                if rep.verdict != "independent-consistent":
                    failures.append(f"{name}({j},{k})={rep.verdict}")
    # correlated control: adjacent pair in one pool at rates (0.3, 0.3);
    # law summation puts the correlation at exactly 3/7
    e1 = e11 = e1sq = 0.0
    for n in range(250):
        pn = 0.4 * 0.3**n
        for k in range(n + 1):
            p = pn * math.comb(n, k)
            e1 += p * k
            e1sq += p * k * k
            e11 += p * k * (n - k)
    law_corr = (e11 - e1 * e1) / (e1sq - e1 * e1)
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    spec = NetworkSpec(
        n_queues=2,
        routes=[
            Route(id="r0", path=(0,), rate=0.3),
            Route(id="r1", path=(1,), rate=0.3),
        ],
        capacity=poly,
    )
    qs = StationarySampler(spec, poly, seed=73).sample_queues(100_000)
    rep = independence_test(qs, (0, 1), poly)
    control_ok = (
        abs(law_corr - 3 / 7) < 1e-9
        and abs(rep.correlation - 3 / 7) <= 0.02
        and rep.verdict == "dependent"
    )
    dt = time.perf_counter() - t0
    _report(
        7,
        "independence",
        not failures and control_ok,
        f"{checked} non-sharing pairs consistent; control corr "
        f"{rep.correlation:.4f} vs 3/7 (law {law_corr:.6f}), {dt:.1f}s"
        + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_08_log_phi_limit():
    t0 = time.perf_counter()
    poly = CapacityPolytope(np.array([[1.0, 1.0]]))
    diag = log_norm_const_scaling([2, 1], poly, [8, 32, 128, 512])
    target_ok = abs(diag.target - 1.9095425048844388) < 1e-9
    dt = time.perf_counter() - t0
    _report(
        8,
        "log-phi-limit",
        target_ok and diag.decreasing and diag.last_gap <= 2e-2,
        f"gap at c=512 {diag.last_gap:.2e}, gaps "
        f"{np.array2string(diag.gaps, precision=3)}, {dt:.1f}s",
    )


def test_criterion_09_rate_function_properties():
    t0 = time.perf_counter()
    shared = load_example("single-pool")
    mix = stationary_mix(shared.spec, shared.polytope)
    prof = CompositionProfile.single_stage([0, 0], mix, shared.spec)
    zero_ok = (
        large_deviations_rate([0, 0], prof, shared.spec, shared.polytope) == 0.0
    )

    poly = CapacityPolytope(np.array([[1.0]]))
    two = NetworkSpec(
        n_queues=1,
        routes=[
            Route(id="u", path=(0,), rate=0.4),
            Route(id="v", path=(0,), rate=0.1),
        ],
        capacity=poly,
    )
    grid = np.linspace(0.01, 0.99, 99)
    vals = [
        large_deviations_rate(
            [4],
            CompositionProfile.single_stage([4], np.array([[g, 1 - g]]), two),
            two,
            poly,
        )
        for g in grid
    ]
    best = float(grid[int(np.argmin(vals))])
    min_ok = abs(best - 0.8) <= 0.011  # grid resolution

    mm1 = NetworkSpec(
        n_queues=1, routes=[Route(id="r", path=(0,), rate=0.4)], capacity=poly
    )
    errs = []
    for q in (1, 3, 7):
        prof = CompositionProfile.single_stage([q], np.ones((1, 1)), mm1)
        errs.append(
            abs(
                large_deviations_rate([q], prof, mm1, poly)
                - q * math.log(1 / 0.4)
            )
        )
    mm1_ok = max(errs) <= 1e-9

    # a state whose fair objective is nonzero: the rate at the stationary
    # composition is the decay rate -(1/c) log P(cQ) of the stationary law
    q, c = np.array([1, 2]), 200
    loads = compute_loads(shared.spec, shared.polytope)
    prof = CompositionProfile.single_stage(q, mix, shared.spec)
    log_p = (math.log(stationary_normalizer(loads)) + log_norm_const(q * c, shared.polytope)
             + float(q * c @ np.log(loads.queue_loads)))
    decay_gap = abs(-log_p / c - large_deviations_rate(q, prof, shared.spec, shared.polytope))
    decay_ok = decay_gap <= math.log(c) / c
    dt = time.perf_counter() - t0
    _report(
        9,
        "rate-function-properties",
        zero_ok and min_ok and mm1_ok and decay_ok,
        f"origin 0: {zero_ok}; minimizer {best:.2f} vs 0.80; "
        f"single-queue err {max(errs):.1e}; decay gap at (1,2)x200 "
        f"{decay_gap:.4f} vs log c / c {math.log(c) / c:.4f}, {dt:.1f}s",
    )


def test_criterion_10_scheduler_sanity():
    t0 = time.perf_counter()
    ex = load_example("one-edge")
    sched = ex.schedules()
    tr = simulate_prop_sched(
        ex.spec,
        sched,
        SimConfig(
            horizon=100_000, seed=80, warmup_fraction=0.0, checkpoints=25
        ),
        polytope=ex.polytope,
        initial=(150, 150),
    )
    drift = lyapunov_drift(tr, ex.spec, ex.polytope)
    ps_ok = drift.slope <= 0.0 and tr.conservation_ok()

    t4 = load_example("tandem4")
    tr_bp = simulate_backpressure(
        t4.spec, t4.schedules(), SimConfig(horizon=15_000, seed=81)
    )
    q = tr_bp.queue_means
    bp_ok = bool(q[0] >= q[1] >= q[2] >= q[3]) and tr_bp.conservation_ok()
    dt = time.perf_counter() - t0
    _report(
        10,
        "scheduler-sanity",
        ps_ok and bp_ok,
        f"ps drift slope {drift.slope:.2e}; bp profile "
        f"{np.array2string(q, precision=2)}, {dt:.1f}s",
    )
