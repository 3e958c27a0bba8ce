"""Simulators: an exact continuous-time event simulation of the
store-forward network (uniformization), and slotted simulations of the
proportional scheduler and backpressure, all emitting TraceMetrics.

Every run is reproducible from its seed.  The inner loops stay in plain
Python over lists; state vectors are small.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque

import numpy as np

from .metrics import JOINT_CAP, SimConfig, TraceMetrics, batch_se
from .model import CapacityPolytope, NetworkSpec, as_indices, as_integers, compute_loads
from .normconst import NormConstCache
from .propfair import decompose_mean, require_converged, solve_prop_fair
from .storeforward import draw_route_labels, route_label_law, store_forward_rates

_BLOCK = 1 << 16
# draws converted to Python floats at a time; the collector flushes its log
# once per chunk
_CHUNK = 1 << 12
# slots whose arrivals are drawn at once
_SLOT_BLOCK = 1 << 12


def _initial_state(spec: NetworkSpec, initial, rng):
    """Per-queue FIFOs of (route, arrival time) and per-(queue, route)
    counts for a prescribed starting occupancy.  Labels are drawn from the
    stationary composition, as the exact sampler draws them; starting
    packets arrive at -1."""
    J = spec.n_queues
    fifo = [deque() for _ in range(J)]
    X = np.zeros((J, spec.n_routes), dtype=np.int64)
    if initial is None:
        return fifo, X
    init = as_integers(initial, "initial occupancy")
    if init.shape != (J,) or np.any(init < 0):
        raise ValueError("initial occupancy must be a nonnegative vector per queue")
    idle = np.flatnonzero((init > 0) & (spec.queue_loads == 0))
    if idle.size:
        raise ValueError(f"queue {idle[0]} has initial packets but no route serves it")
    for j, labels in enumerate(draw_route_labels(route_label_law(spec), init, rng)):
        for r in labels:
            fifo[j].append((r, -1.0))
            X[j, r] += 1
    return fifo, X


class _Collector:
    """Batch accumulators shared by the three simulators.

    The loops log every piece of time they credit as one segment: its
    batch, its length and the id of the state it was spent in, interned in
    ``index`` per distinct (queue vector, route content).  ``flush`` adds
    the log to the accumulators once per chunk of events and starts a new
    log and index, so their size does not grow with the run."""

    def __init__(self, spec: NetworkSpec, cfg: SimConfig, horizon, warm):
        n_queues, n_routes = spec.n_queues, spec.n_routes
        self.seed = cfg.seed
        self.route_ids = tuple(r.id for r in spec.routes)
        self.B = cfg.batches
        self.warm = warm
        self.horizon = horizon
        self.span = (horizon - warm) / cfg.batches
        self.index: dict[tuple, int] = {}
        self.log_b, self.log_seg, self.log_id = [], [], []
        # per batch, flattened: the time, then the time integral of every
        # queue and of every route's content
        self.width = 1 + n_queues + n_routes
        self.acc = np.zeros(cfg.batches * self.width)
        self.soj_sum = [[0.0] * n_routes for _ in range(cfg.batches)]
        self.soj_cnt = [[0] * n_routes for _ in range(cfg.batches)]
        self.comp = [[0] * n_routes for _ in range(n_queues)]
        as_indices(cfg.pairs, n_queues, "pairs")
        self.pair_hists = {
            pair: np.zeros((JOINT_CAP + 1, JOINT_CAP + 1)) for pair in cfg.pairs
        }

    def batch_of(self, t):
        return min(int((t - self.warm) / self.span), self.B - 1)

    def flush(self):
        """Add the logged segments to the batch integrals and the joint
        histograms, then clear the log.  ``np.add.at`` is unbuffered and
        takes its indices in order, so every accumulator element receives
        its terms in log order, as a sequential loop would add them: the
        sums do not depend on where the chunks end."""
        if not self.log_seg:
            return
        rows = np.array(list(self.index), dtype=float)[self.log_id]
        seg = np.array(self.log_seg)
        vals = np.empty((len(seg), self.width))
        vals[:, 0] = seg
        np.multiply(rows, seg[:, None], out=vals[:, 1:])
        cells = np.array(self.log_b)[:, None] * self.width + np.arange(self.width)
        np.add.at(self.acc, cells.ravel(), vals.ravel())
        for (pa, pb), H in self.pair_hists.items():
            cell = (np.minimum(rows[:, pa], JOINT_CAP) * (JOINT_CAP + 1)
                    + np.minimum(rows[:, pb], JOINT_CAP))
            np.add.at(H.reshape(-1), cell.astype(np.intp), seg)
        self.index.clear()
        self.log_b.clear()
        self.log_seg.clear()
        self.log_id.clear()

    def sojourn(self, t_dep, route, value):
        b = self.batch_of(t_dep)
        self.soj_sum[b][route] += value
        self.soj_cnt[b][route] += 1

    def finalize(self, kind, admitted, departed, in_system, transient, checkpoints):
        self.flush()
        soj_sum = np.array(self.soj_sum)
        soj_cnt = np.array(self.soj_cnt, dtype=np.int64)
        cnt = soj_cnt.sum(axis=0)
        soj_mean = np.where(cnt > 0, soj_sum.sum(axis=0) / np.maximum(cnt, 1), np.nan)
        sbm = np.where(soj_cnt > 0, soj_sum / np.maximum(soj_cnt, 1), np.nan)
        soj_se = np.array([batch_se(sbm[:, r]) for r in range(sbm.shape[1])])
        acc = self.acc.reshape(self.B, self.width)
        n_queues = len(self.comp)
        mass = np.where(acc[:, 0] > 0, acc[:, 0], np.nan)
        qint = acc[:, 1: 1 + n_queues]
        cint = acc[:, 1 + n_queues:]
        total = float(np.nansum(mass))
        with np.errstate(invalid="ignore"):
            qbm = qint / mass[:, None]
            cbm = cint / mass[:, None]
        # every run credits its whole post-warmup window, so total > 0
        q_mean = qint.sum(axis=0) / total
        c_mean = cint.sum(axis=0) / total
        return TraceMetrics(
            kind=kind,
            horizon=self.horizon,
            warmup=self.warm,
            seed=self.seed,
            queue_means=q_mean,
            queue_ses=np.array([batch_se(qbm[:, j]) for j in range(qbm.shape[1])]),
            queue_batch_means=qbm,
            route_ids=self.route_ids,
            sojourn_means=soj_mean,
            sojourn_ses=soj_se,
            sojourn_counts=cnt,
            composition_counts=np.array(self.comp, dtype=np.int64),
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


def _draw_chunks(rng):
    """The event loop's unit exponentials and uniforms, paired, as chunks of
    Python floats.  They are drawn a block at a time, exponentials first,
    whatever the chunk size; converting a whole block at once would cost a
    short run more than it uses."""
    while True:
        exp_blk = rng.exponential(1.0, _BLOCK)
        uni_blk = rng.random(_BLOCK)
        for lo in range(0, _BLOCK, _CHUNK):
            yield zip(exp_blk[lo: lo + _CHUNK].tolist(), uni_blk[lo: lo + _CHUNK].tolist())


def _pool_matrix(spec: NetworkSpec, polytope: CapacityPolytope | None):
    """A run's pool matrix (the spec's own by default) and its transient flag."""
    polytope = spec.capacity_polytope() if polytope is None else polytope
    return polytope, not compute_loads(spec, polytope).admissible


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
    polytope, transient = _pool_matrix(spec, polytope)
    if cfg is None:
        raise ValueError("a SimConfig is required")
    J, R = spec.n_queues, spec.n_routes
    rates = spec.rates()
    arr_total = float(rates.sum())
    arr_cum = np.cumsum(rates).tolist()
    A = polytope.matrix
    caps = [float(1.0 / A[A[:, j] > 0, j].max()) for j in range(J)]
    lam = arr_total + sum(caps)
    horizon = float(cfg.horizon)
    warm = cfg.warmup_fraction * horizon
    col = _Collector(spec, cfg, horizon, warm)
    span, last = col.span, col.B - 1
    edges = [warm + (b + 1) * span for b in range(last)] + [horizon]
    log_b, log_seg, log_id = col.log_b.append, col.log_seg.append, col.log_id.append
    index = col.index
    comp = col.comp
    hop = spec.next_hop.tolist()
    first = hop[-1]
    rng = np.random.default_rng(cfg.seed)
    if phi_cache is None:
        phi_cache = NormConstCache(polytope)

    fifo, X = _initial_state(spec, initial, rng)
    Q = X.sum(axis=1).tolist()
    content = X.sum(axis=0).tolist()
    admitted = int(X.sum())
    departed = 0
    X = X.tolist()
    # (sigma list, total) of the current queue vector: fetched when a service
    # event first needs it and kept until the state changes; one rates call
    # per distinct queue vector
    sig_cache: dict = {}
    sig = None

    cp_iter = iter(np.linspace(warm, horizon, cfg.checkpoints + 1)[1:])
    next_cp = next(cp_iter, math.inf)
    checkpoints = []

    t = 0.0
    for chunk in _draw_chunks(rng):
        sid = index.setdefault((*Q, *content), len(index))
        for e, u in chunk:
            t_new = t + e / lam
            # piecewise-constant state: spread [t, t_new) over batches
            lo = t if t > warm else warm
            hi = t_new if t_new < horizon else horizon
            if hi > lo:
                b = int((lo - warm) / span)
                if b > last:
                    b = last
                while lo < hi:
                    edge = edges[b]
                    seg_end = hi if hi < edge else edge
                    log_b(b)
                    log_seg(seg_end - lo)
                    log_id(sid)
                    lo = seg_end
                    if b < last:
                        b += 1
            while t_new > next_cp:
                checkpoints.append(
                    (next_cp, np.array(Q, dtype=np.int64), np.array(X, dtype=np.int64))
                )
                next_cp = next(cp_iter, math.inf)
            if t_new >= horizon:
                break
            t = t_new
            u *= lam
            if u < arr_total:
                r = bisect_right(arr_cum, u)
                if r >= R:
                    r = R - 1
                j = first[r]
                fifo[j].append((r, t))
                Q[j] += 1
                X[j][r] += 1
                content[r] += 1
                admitted += 1
            else:
                if sig is None:
                    qkey = tuple(Q)
                    sig = sig_cache.get(qkey)
                    if sig is None:
                        s = store_forward_rates(np.array(qkey, dtype=np.int64), polytope, phi_cache)
                        sig = sig_cache[qkey] = (s.tolist(), float(s.sum()))
                v = u - arr_total
                if v >= sig[1]:
                    continue  # a phantom event: state unchanged
                for j, s_j in enumerate(sig[0]):
                    v -= s_j
                    if v < 0.0:
                        break
                else:
                    continue
                r, t_arr = fifo[j].popleft()
                Q[j] -= 1
                X[j][r] -= 1
                if t >= warm:
                    comp[j][r] += 1
                k = hop[j][r]
                if k >= 0:
                    fifo[k].append((r, t_arr))
                    Q[k] += 1
                    X[k][r] += 1
                else:
                    departed += 1
                    content[r] -= 1
                    if t_arr >= warm:
                        col.sojourn(t, r, t - t_arr)
            sid = index.setdefault((*Q, *content), len(index))
            sig = None
        col.flush()
        if t_new >= horizon:
            break

    return col.finalize("store-forward", admitted, departed, sum(Q), transient, checkpoints)


def _slot_arrivals(rng, rates, bernoulli, horizon):
    """Each slot's arrival counts per route, as a list of ints.

    The counts of up to ``_SLOT_BLOCK`` slots are drawn at once,
    ``rng.poisson(rates, size=(n, R))`` or ``rng.random((n, R)) < rates``,
    which fill their rows slot by slot from the stream, so the block size
    never moves a run."""
    R = len(rates)
    for lo in range(0, horizon, _SLOT_BLOCK):
        size = (min(_SLOT_BLOCK, horizon - lo), R)
        counts = (rng.random(size) < rates).astype(np.int64) if bernoulli else rng.poisson(rates, size)
        yield from counts.tolist()


def _slotted_run(spec, cfg, serve_fn, kind, initial, transient):
    """Common slot loop: arrivals, policy-specific service, collection.

    The initial fill and the arrivals come from ``default_rng(cfg.seed)``,
    which no policy reads, so one seed gives every policy the same
    arrivals.  serve_fn(Q, X, fifo) takes the packets it serves off the
    queue FIFOs of (route, arrival slot) and returns a list of
    (queue, route, arrival slots) actions it took; X holds per-queue lists
    of route counts.
    """
    horizon, warm_slots = cfg.slot_window()
    col = _Collector(spec, cfg, float(horizon), float(warm_slots))
    log_b, log_seg, log_id = col.log_b.append, col.log_seg.append, col.log_id.append
    logged, index, comp = col.log_seg, col.index, col.comp
    hop = spec.next_hop.tolist()
    first = hop[-1]
    rng = np.random.default_rng(cfg.seed)
    fifo, X = _initial_state(spec, initial, rng)
    Q = X.sum(axis=1).tolist()
    content = X.sum(axis=0).tolist()
    admitted = int(X.sum())
    departed = 0
    X = X.tolist()
    cp_slots = {int(v) for v in np.linspace(warm_slots, horizon - 1, cfg.checkpoints)}
    checkpoints = []
    arrivals = _slot_arrivals(rng, spec.rates(), cfg.slot_arrivals == "bernoulli", horizon)

    for slot, counts in enumerate(arrivals):
        for r, c in enumerate(counts):
            if c:
                j = first[r]
                fifo[j].extend([(r, slot)] * c)
                Q[j] += c
                X[j][r] += c
                content[r] += c
                admitted += c
        if any(Q):
            for j, r, arr_slots in serve_fn(Q, X, fifo):
                n = len(arr_slots)
                Q[j] -= n
                X[j][r] -= n
                if slot >= warm_slots:
                    comp[j][r] += n
                k = hop[j][r]
                if k >= 0:
                    fifo[k].extend((r, a) for a in arr_slots)
                    Q[k] += n
                    X[k][r] += n
                else:
                    departed += n
                    content[r] -= n
                    for a in arr_slots:
                        if a >= warm_slots:
                            col.sojourn(float(slot), r, float(slot - a + 1))
        if slot >= warm_slots:
            log_b(col.batch_of(float(slot)))
            log_seg(1.0)
            log_id(index.setdefault((*Q, *content), len(index)))
            if len(logged) == _CHUNK:
                col.flush()
        if slot in cp_slots:
            checkpoints.append((float(slot), np.array(Q, dtype=np.int64), np.array(X, dtype=np.int64)))

    return col.finalize(kind, admitted, departed, sum(Q), transient, checkpoints)


def _schedule_array(spec: NetworkSpec, schedules) -> np.ndarray:
    S = as_integers(schedules, "schedules")
    if S.ndim != 2 or S.shape[1] != spec.n_queues:
        raise ValueError("schedules must be (n_schedules, n_queues)")
    return S


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
    polytope, transient = _pool_matrix(spec, polytope)
    # the dtype decompose_mean works in, converted once
    S = _schedule_array(spec, schedules).astype(float)
    # per queue vector: the lottery's draw and its schedules as int rows
    lotteries: dict = {}
    # the lottery's own stream, apart from the arrivals'
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

    def serve(Q, X, fifo):
        key = tuple(Q)
        lottery = lotteries.get(key)
        if lottery is None:
            sol = require_converged(solve_prop_fair(Q, polytope), key)
            dist = decompose_mean(sol.rates, S)
            lottery = lotteries[key] = (dist.draw, dist.schedules.astype(np.int64).tolist())
        draw, rows = lottery
        actions = []
        for j, s_j in enumerate(rows[draw(rng)]):
            by_route: dict = {}
            for _ in range(min(s_j, Q[j])):
                r, a = fifo[j].popleft()
                by_route.setdefault(r, []).append(a)
            for r in sorted(by_route):
                actions.append((j, r, by_route[r]))
        return actions

    return _slotted_run(spec, cfg, serve, "prop-sched", initial, transient)


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
    S = _schedule_array(spec, schedules)
    S = S[np.lexsort(S.T[::-1])]
    rows = S.tolist()
    # per queue, its (route, next queue) pairs by route id; -1 past the last hop
    hops = [[(r, k) for r, k in enumerate(row) if k != -2] for row in spec.next_hop[:-1].tolist()]
    if polytope is None and isinstance(spec.capacity, np.ndarray):
        transient = False  # a schedule list alone gives no pool loads to flag
    else:
        transient = _pool_matrix(spec, polytope)[1]

    def serve(Q, X, fifo):
        # each queue's weight and heaviest route: the first (lowest id) route
        # of largest positive differential
        w, heaviest = [], []
        for j, pairs in enumerate(hops):
            x = X[j]
            w_j = r_j = 0
            for r, k in pairs:
                d = x[r] - X[k][r] if k >= 0 else x[r]
                if d > w_j:
                    w_j, r_j = d, r
            w.append(w_j)
            heaviest.append(r_j)
        if not any(w):
            return []
        actions = []
        for j, s_j in enumerate(rows[(S @ w).argmax()]):
            if s_j <= 0 or w[j] <= 0:
                continue
            r = heaviest[j]
            n = min(s_j, X[j][r])
            # the n oldest packets of route r leave; the rest keep their order
            got, kept = [], deque()
            for p in fifo[j]:
                if p[0] == r and len(got) < n:
                    got.append(p[1])
                else:
                    kept.append(p)
            fifo[j] = kept
            actions.append((j, r, got))
        return actions

    return _slotted_run(spec, cfg, serve, "backpressure", initial, transient)
