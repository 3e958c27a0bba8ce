"""Simulators: an exact continuous-time event simulation of the
store-forward network (uniformization), and slotted simulations of the
proportional scheduler and backpressure, all emitting TraceMetrics.

Every run is reproducible from its seed.  The inner loops stay in plain
Python with block-drawn random numbers; state vectors are small.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

import numpy as np

from .metrics import JOINT_CAP, SimConfig, TraceMetrics, batch_se
from .model import CapacityPolytope, NetworkSpec, compute_loads
from .normconst import NormConstCache
from .propfair import decompose_mean, solve_prop_fair
from .storeforward import store_forward_rates

_BLOCK = 1 << 16


def _route_maps(spec: NetworkSpec):
    """first hop per route, and next_hop[r][j] = queue after j on route r
    (-1 when j is the last hop)."""
    first = [r.path[0] for r in spec.routes]
    nxt = []
    for r in spec.routes:
        m = {}
        for i, j in enumerate(r.path):
            m[j] = r.path[i + 1] if i + 1 < len(r.path) else -1
        nxt.append(m)
    return first, nxt


def _routes_through(spec: NetworkSpec):
    through = [[] for _ in range(spec.n_queues)]
    for i, r in enumerate(spec.routes):
        for j in r.path:
            through[j].append(i)
    return through


def _initial_fill(spec, initial, rng):
    """Route labels for a prescribed starting occupancy.  Labels are drawn
    with probability proportional to route rate among routes through the
    queue, matching the stationary composition."""
    if initial is None:
        return [[] for _ in range(spec.n_queues)], 0
    init = np.asarray(initial, dtype=np.int64)
    if init.shape != (spec.n_queues,) or np.any(init < 0):
        raise ValueError("initial occupancy must be a nonnegative vector per queue")
    through = _routes_through(spec)
    rates = spec.rates()
    fill = []
    for j in range(spec.n_queues):
        if init[j] > 0 and not through[j]:
            raise ValueError(f"queue {j} has initial packets but no route serves it")
        if init[j] == 0:
            fill.append([])
            continue
        ids = through[j]
        w = rates[ids] / rates[ids].sum()
        picks = rng.choice(len(ids), size=int(init[j]), p=w)
        fill.append([ids[k] for k in picks])
    return fill, int(init.sum())


class _Collector:
    """Batch accumulators shared by the three simulators."""

    def __init__(self, n_queues, n_routes, cfg: SimConfig, horizon, warm):
        self.B = cfg.batches
        self.warm = warm
        self.horizon = horizon
        self.span = (horizon - warm) / cfg.batches
        self.qint = np.zeros((cfg.batches, n_queues))
        self.cint = np.zeros((cfg.batches, n_routes))
        self.mass = np.zeros(cfg.batches)
        self.soj_sum = np.zeros((cfg.batches, n_routes))
        self.soj_cnt = np.zeros((cfg.batches, n_routes), dtype=np.int64)
        self.comp = np.zeros((n_queues, n_routes), dtype=np.int64)
        self.pair_hists = {
            (int(a), int(b)): np.zeros((JOINT_CAP + 1, JOINT_CAP + 1))
            for a, b in cfg.pairs
        }

    def batch_of(self, t):
        return min(int((t - self.warm) / self.span), self.B - 1)

    def sojourn(self, t_dep, route, value):
        b = self.batch_of(t_dep)
        self.soj_sum[b, route] += value
        self.soj_cnt[b, route] += 1

    def finalize(self, kind, cfg, seed, route_ids, admitted, departed, in_system,
                 transient, checkpoints):
        denom = np.maximum(self.soj_cnt.sum(axis=0), 1)
        soj_mean = np.where(
            self.soj_cnt.sum(axis=0) > 0, self.soj_sum.sum(axis=0) / denom, np.nan
        )
        soj_se = np.empty(len(route_ids))
        for r in range(len(route_ids)):
            with np.errstate(invalid="ignore"):
                bm = np.where(
                    self.soj_cnt[:, r] > 0,
                    self.soj_sum[:, r] / np.maximum(self.soj_cnt[:, r], 1),
                    np.nan,
                )
            soj_se[r] = batch_se(bm)
        mass = np.where(self.mass > 0, self.mass, np.nan)
        total = float(np.nansum(mass))
        with np.errstate(invalid="ignore"):
            qbm = self.qint / mass[:, None]
            cbm = self.cint / mass[:, None]
        if total > 0:
            q_mean = self.qint.sum(axis=0) / total
            c_mean = self.cint.sum(axis=0) / total
        else:
            q_mean = np.zeros(self.qint.shape[1])
            c_mean = np.zeros(self.cint.shape[1])
        return TraceMetrics(
            kind=kind,
            horizon=self.horizon,
            warmup=self.warm,
            seed=seed,
            queue_means=q_mean,
            queue_ses=np.array([batch_se(qbm[:, j]) for j in range(qbm.shape[1])]),
            queue_batch_means=qbm,
            route_ids=route_ids,
            sojourn_means=soj_mean,
            sojourn_ses=soj_se,
            sojourn_counts=self.soj_cnt.sum(axis=0),
            composition_counts=self.comp,
            route_content_means=c_mean,
            route_content_ses=np.array(
                [batch_se(cbm[:, r]) for r in range(cbm.shape[1])]
            ),
            admitted=admitted,
            departed=departed,
            in_system=in_system,
            transient=transient,
            joint_histograms=self.pair_hists,
            checkpoints=tuple(checkpoints),
        )


def simulate_store_forward(
    spec: NetworkSpec,
    polytope: CapacityPolytope | None = None,
    cfg: SimConfig = None,
    initial=None,
    phi_cache: NormConstCache | None = None,
) -> TraceMetrics:
    """Event-driven simulation of the FIFO store-forward network.

    Route arrivals are Poisson; every queue drains at the allocation rate
    recomputed after each transition (exponential services).  Implemented
    by uniformization: a dominating clock at rate Lambda = sum of arrival
    rates + per-queue service caps, with phantom events where the actual
    rates fall short.
    """
    if polytope is None:
        polytope = spec.capacity_polytope()
    if cfg is None:
        raise ValueError("a SimConfig is required")
    loads = compute_loads(spec, polytope)
    transient = not loads.admissible
    J, R = spec.n_queues, spec.n_routes
    rates = spec.rates()
    arr_total = float(rates.sum())
    arr_cum = np.cumsum(rates).tolist()
    A = polytope.matrix
    caps = []
    for j in range(J):
        col = A[:, j]
        caps.append(float(1.0 / col[col > 0].max()))
    lam = arr_total + sum(caps)
    horizon = float(cfg.horizon)
    warm = cfg.warmup_fraction * horizon
    col = _Collector(J, R, cfg, horizon, warm)
    first, nxt = _route_maps(spec)
    rng = np.random.default_rng(cfg.seed)
    if phi_cache is None:
        phi_cache = NormConstCache(polytope)

    fill, n_init = _initial_fill(spec, initial, rng)
    fifo = [deque((r, -1.0) for r in fill[j]) for j in range(J)]
    Q = [len(f) for f in fifo]
    content = [0.0] * R
    for j in range(J):
        for r in fill[j]:
            content[r] += 1.0
    admitted = n_init
    departed = 0

    sig_cache: dict = {}
    qkey = tuple(Q)

    def sigma_of(key):
        e = sig_cache.get(key)
        if e is None:
            s = store_forward_rates(np.array(key, dtype=np.int64), polytope, phi_cache)
            e = (s.tolist(), float(s.sum()))
            sig_cache[key] = e
        return e

    cp_times = (
        list(np.linspace(warm, horizon, cfg.checkpoints + 1)[1:])
        if cfg.checkpoints
        else []
    )
    cp_iter = iter(cp_times)
    next_cp = next(cp_iter, None)
    checkpoints = []
    X = [[0] * R for _ in range(J)]
    for j in range(J):
        for r in fill[j]:
            X[j][r] += 1

    exp_blk = rng.exponential(1.0, _BLOCK)
    uni_blk = rng.random(_BLOCK)
    ei = ui = 0
    pair_items = list(col.pair_hists.items())
    span, B = col.span, col.B

    t = 0.0
    while True:
        if ei == _BLOCK:
            exp_blk = rng.exponential(1.0, _BLOCK)
            ei = 0
        dt = exp_blk[ei] / lam
        ei += 1
        t_new = t + dt
        # piecewise-constant state: spread [t, t_new) over batches
        lo = t if t > warm else warm
        hi = t_new if t_new < horizon else horizon
        if hi > lo:
            b = min(int((lo - warm) / span), B - 1)
            while lo < hi:
                edge = horizon if b == B - 1 else warm + (b + 1) * span
                seg_end = hi if hi < edge else edge
                seg = seg_end - lo
                col.mass[b] += seg
                row = col.qint[b]
                for j in range(J):
                    row[j] += Q[j] * seg
                crow = col.cint[b]
                for r in range(R):
                    crow[r] += content[r] * seg
                for (pa, pb), H in pair_items:
                    qa = Q[pa] if Q[pa] < JOINT_CAP else JOINT_CAP
                    qb = Q[pb] if Q[pb] < JOINT_CAP else JOINT_CAP
                    H[qa, qb] += seg
                lo = seg_end
                if b < B - 1:
                    b += 1
        while next_cp is not None and t_new > next_cp:
            checkpoints.append(
                (next_cp, np.array(Q, dtype=np.int64), np.array(X, dtype=np.int64))
            )
            next_cp = next(cp_iter, None)
        if t_new >= horizon:
            break
        t = t_new
        if ui == _BLOCK:
            uni_blk = rng.random(_BLOCK)
            ui = 0
        u = uni_blk[ui] * lam
        ui += 1
        if u < arr_total:
            r = bisect_right(arr_cum, u)
            if r >= R:
                r = R - 1
            j = first[r]
            fifo[j].append((r, t))
            Q[j] += 1
            X[j][r] += 1
            content[r] += 1.0
            admitted += 1
            qkey = tuple(Q)
        else:
            sig, sig_tot = sigma_of(qkey)
            v = u - arr_total
            if v < sig_tot:
                j = -1
                for jj in range(J):
                    v -= sig[jj]
                    if v < 0.0:
                        j = jj
                        break
                if j >= 0:
                    r, t_arr = fifo[j].popleft()
                    Q[j] -= 1
                    X[j][r] -= 1
                    if t >= warm:
                        col.comp[j, r] += 1
                    k = nxt[r][j]
                    if k >= 0:
                        fifo[k].append((r, t_arr))
                        Q[k] += 1
                        X[k][r] += 1
                    else:
                        departed += 1
                        content[r] -= 1.0
                        if t_arr >= warm:
                            col.sojourn(t, r, t - t_arr)
                    qkey = tuple(Q)
            # otherwise a phantom event: state unchanged

    return col.finalize(
        "store-forward", cfg, cfg.seed, tuple(r.id for r in spec.routes),
        admitted, departed, sum(Q), transient, checkpoints,
    )


def _slot_arrivals(rng, rates, mode):
    if mode == "poisson":
        return rng.poisson(rates)
    return (rng.random(len(rates)) < rates).astype(np.int64)


def _slotted_run(spec, cfg, serve_fn, kind, initial, transient):
    """Common slot loop: arrivals, policy-specific service, collection.

    serve_fn(slot, fifo, Q, X) serves packets in place and returns a list
    of (queue, route, n_served) actions it took.
    """
    J, R = spec.n_queues, spec.n_routes
    rates = spec.rates()
    horizon = int(cfg.horizon)
    warm_slots = int(cfg.warmup_fraction * horizon)
    col = _Collector(J, R, cfg, float(horizon), float(warm_slots))
    col.span = max((horizon - warm_slots) / cfg.batches, 1e-12)
    first, nxt = _route_maps(spec)
    rng = np.random.default_rng(cfg.seed)
    fill, n_init = _initial_fill(spec, initial, rng)
    # per (queue, route) FIFO of network arrival slots
    fifo = [[deque() for _ in range(R)] for _ in range(J)]
    order = [deque() for _ in range(J)]  # route ids in queue FIFO order
    for j in range(J):
        for r in fill[j]:
            fifo[j][r].append(-1)
            order[j].append(r)
    Q = np.array([len(order[j]) for j in range(J)], dtype=np.int64)
    X = np.zeros((J, R), dtype=np.int64)
    for j in range(J):
        for r in fill[j]:
            X[j, r] += 1
    content = X.sum(axis=0).astype(float)
    admitted = n_init
    departed = 0
    cp_slots = (
        set(
            int(v)
            for v in np.linspace(warm_slots, horizon - 1, cfg.checkpoints)
        )
        if cfg.checkpoints
        else set()
    )
    checkpoints = []
    pair_items = list(col.pair_hists.items())

    for slot in range(horizon):
        counts = _slot_arrivals(rng, rates, cfg.slot_arrivals)
        for r in range(R):
            c = int(counts[r])
            if c:
                j = first[r]
                for _ in range(c):
                    fifo[j][r].append(slot)
                    order[j].append(r)
                Q[j] += c
                X[j, r] += c
                content[r] += c
                admitted += c
        if Q.any():
            actions = serve_fn(slot, rng, Q, X, order, fifo)
            for j, r, arr_slots in actions:
                n = len(arr_slots)
                Q[j] -= n
                X[j, r] -= n
                if slot >= warm_slots:
                    col.comp[j, r] += n
                k = nxt[r][j]
                if k >= 0:
                    for a in arr_slots:
                        fifo[k][r].append(a)
                        order[k].append(r)
                    Q[k] += n
                    X[k, r] += n
                else:
                    departed += n
                    content[r] -= n
                    for a in arr_slots:
                        if a >= warm_slots:
                            col.sojourn(float(slot), r, float(slot - a + 1))
        if slot >= warm_slots:
            b = col.batch_of(float(slot))
            col.mass[b] += 1.0
            col.qint[b] += Q
            col.cint[b] += content
            for (pa, pb), H in pair_items:
                H[min(Q[pa], JOINT_CAP), min(Q[pb], JOINT_CAP)] += 1.0
        if slot in cp_slots:
            checkpoints.append((float(slot), Q.copy(), X.copy()))

    return col.finalize(
        kind, cfg, cfg.seed, tuple(r.id for r in spec.routes),
        admitted, departed, int(Q.sum()), transient, checkpoints,
    )


def simulate_prop_sched(
    spec: NetworkSpec,
    schedules,
    cfg: SimConfig,
    polytope: CapacityPolytope | None = None,
    initial=None,
) -> TraceMetrics:
    """Slotted proportional scheduler.

    Each slot, after arrivals: solve the fair-allocation problem on the
    current queue vector (empty queues pinned to zero), decompose the
    optimum into a lottery over the given schedules, draw one, and serve
    min(schedule_j, Q_j) packets from each queue front, forwarding in
    queue-index order.  Lotteries are cached per queue vector; a solve that
    does not converge raises rather than feed the decomposition.
    """
    if polytope is None:
        polytope = spec.capacity_polytope()
    S = np.asarray(schedules, dtype=np.int64)
    if S.ndim != 2 or S.shape[1] != spec.n_queues:
        raise ValueError("schedules must be (n_schedules, n_queues)")
    loads = compute_loads(spec, polytope)
    dist_cache: dict = {}

    def serve(slot, rng, Q, X, order, fifo):
        key = tuple(int(v) for v in Q)
        dist = dist_cache.get(key)
        if dist is None:
            sol = solve_prop_fair(Q, polytope)
            if not sol.converged:
                raise RuntimeError(
                    f"proportional-fair solve at Q={key} stopped at KKT residual "
                    f"{sol.kkt_residual:.3g}"
                )
            dist = decompose_mean(sol.rates, S)
            dist_cache[key] = dist
        sched = dist.sample(rng)
        actions = []
        for j in range(len(Q)):
            n = int(min(sched[j], Q[j]))
            if n <= 0:
                continue
            got = []
            for _ in range(n):
                r = order[j].popleft()
                got.append((r, fifo[j][r].popleft()))
            by_route: dict = {}
            for r, a in got:
                by_route.setdefault(r, []).append(a)
            for r in sorted(by_route):
                actions.append((j, r, by_route[r]))
        return actions

    return _slotted_run(spec, cfg, serve, "prop-sched", initial, not loads.admissible)


def simulate_backpressure(
    spec: NetworkSpec,
    schedules,
    cfg: SimConfig,
    initial=None,
    polytope: CapacityPolytope | None = None,
) -> TraceMetrics:
    """Slotted backpressure (max-weight) scheduler.

    Weights compare each queue's per-route count against the next queue
    downstream (zero past the last hop); the schedule maximizing the
    weighted service sum is chosen, ties going to the lexicographically
    smallest schedule, and each scheduled queue serves its heaviest route
    (lowest route id on ties).  Queues with weight zero are never served.
    """
    S = np.asarray(schedules, dtype=np.int64)
    if S.ndim != 2 or S.shape[1] != spec.n_queues:
        raise ValueError("schedules must be (n_schedules, n_queues)")
    order_ix = np.lexsort(S.T[::-1])
    S = S[order_ix]
    J, R = spec.n_queues, spec.n_routes
    # downstream queue per (queue, route): -1 means "past the last hop"
    down = -np.ones((J, R), dtype=np.int64)
    on_route = np.zeros((J, R), dtype=bool)
    for i, r in enumerate(spec.routes):
        for pos, j in enumerate(r.path):
            on_route[j, i] = True
            down[j, i] = r.path[pos + 1] if pos + 1 < len(r.path) else -1
    if spec.n_routes:
        loads_admissible = True
        try:
            pol = polytope if polytope is not None else spec.capacity_polytope()
            loads_admissible = compute_loads(spec, pol).admissible
        except (TypeError, ValueError):
            pass  # schedule-list capacity: no polytope, skip the flag
    else:
        loads_admissible = True

    def serve(slot, rng, Q, X, order, fifo):
        down_counts = np.where(down >= 0, X[np.maximum(down, 0), np.arange(R)[None, :]], 0)
        diff = np.where(on_route, X - down_counts, np.iinfo(np.int64).min)
        w = np.maximum(diff.max(axis=1, initial=np.iinfo(np.int64).min), 0)
        w = np.where(on_route.any(axis=1), w, 0)
        if not w.any():
            return []
        sched = S[int(np.argmax(S @ w))]
        actions = []
        for j in range(J):
            if sched[j] <= 0 or w[j] <= 0:
                continue
            r = int(np.argmax(diff[j]))
            n = int(min(sched[j], X[j, r]))
            if n <= 0:
                continue
            got = [fifo[j][r].popleft() for _ in range(n)]
            # mirror the removals in the queue-order view
            removed = 0
            kept = deque()
            while order[j]:
                v = order[j].popleft()
                if v == r and removed < n:
                    removed += 1
                else:
                    kept.append(v)
            order[j] = kept
            actions.append((j, r, got))
        return actions

    return _slotted_run(spec, cfg, serve, "backpressure", initial, not loads_admissible)
