"""Structural checks tying the closed forms to the dynamics: numerical
balance-equation replay against the reversed chain, independence tests on
queue pairs, the large-deviations rate function, and the scaling limit of
the log normalizing constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as chi2_dist

from .metrics import TraceMetrics, collect_joint
from .model import CapacityPolytope, NetworkSpec, compute_loads
from .normconst import NormConstCache, log_norm_const
from .propfair import solve_prop_fair
from .storeforward import (
    InadmissibleLoadError,
    StationarySampler,
    store_forward_rates,
)

# -------------------- balance equations --------------------


@dataclass(frozen=True)
class BalanceReport:
    """One transition's flux balance against the reversed chain."""

    transition: str
    detail: tuple
    forward_flux: float
    reversed_flux: float
    residual: float


def _log_weight(Q, fifo, spec, polytope, cache, log_rates):
    lw = log_norm_const(np.asarray(Q, dtype=np.int64), polytope, cache)
    for content in fifo:
        for r in content:
            lw += log_rates[r]
    return lw


def balance_check(
    state,
    transition,
    spec: NetworkSpec,
    polytope: CapacityPolytope,
    cache: NormConstCache | None = None,
) -> BalanceReport:
    """Check pi(S) q(S,S') = pi(S') q_rev(S',S) for one transition.

    ``state`` is (Q, fifo) with fifo listing each queue's packet routes
    front first.  ``transition`` is one of
      ("arrival", route_index)    arrival joining the route's first queue,
      ("move", queue_index)       front packet hops to its next queue,
      ("departure", queue_index)  front packet leaves at its last hop.
    The reversed chain routes packets backwards: undoing an arrival is a
    reversed service at that queue, undoing a departure is a reversed
    arrival, and undoing a move is a reversed service at the receiving
    queue.
    """
    Q, fifo = state
    Q = np.asarray(Q, dtype=np.int64)
    loads = compute_loads(spec, polytope)
    if not loads.admissible:
        raise InadmissibleLoadError("balance checks need admissible loads")
    if cache is None:
        cache = NormConstCache(polytope)
    rates = spec.rates()
    log_rates = np.log(rates)
    kind, arg = transition

    if kind == "arrival":
        r = int(arg)
        if not 0 <= r < spec.n_routes:
            raise ValueError(f"no route with index {r}")
        f = spec.routes[r].path[0]
        Q2 = Q.copy()
        Q2[f] += 1
        fifo2 = list(map(tuple, fifo))
        fifo2[f] = fifo2[f] + (r,)
        rate_fwd = float(rates[r])
        sigma2 = store_forward_rates(Q2, polytope, cache)
        rate_rev = float(sigma2[f])
        detail = (r,)
    elif kind in ("move", "departure"):
        j = int(arg)
        if not 0 <= j < spec.n_queues or len(fifo[j]) == 0:
            raise ValueError(f"queue {j} cannot serve: empty or out of range")
        r = fifo[j][0]
        path = spec.routes[r].path
        pos = path.index(j)
        last = pos == len(path) - 1
        if kind == "move" and last:
            raise ValueError(
                f"front packet of queue {j} is at its final hop; not a move"
            )
        if kind == "departure" and not last:
            raise ValueError(
                f"front packet of queue {j} still has hops left; not a departure"
            )
        rate_fwd = float(store_forward_rates(Q, polytope, cache)[j])
        Q2 = Q.copy()
        Q2[j] -= 1
        fifo2 = list(map(tuple, fifo))
        fifo2[j] = fifo2[j][1:]
        if kind == "move":
            k = path[pos + 1]
            Q2[k] += 1
            fifo2[k] = fifo2[k] + (r,)
            sigma2 = store_forward_rates(Q2, polytope, cache)
            rate_rev = float(sigma2[k])
            detail = (j, k, r)
        else:
            rate_rev = float(rates[r])
            detail = (j, r)
    else:
        raise ValueError(f"unknown transition class {kind!r}")

    lw1 = _log_weight(Q, fifo, spec, polytope, cache, log_rates)
    lw2 = _log_weight(Q2, fifo2, spec, polytope, cache, log_rates)
    lhs = np.exp(lw1) * rate_fwd
    rhs = np.exp(lw2) * rate_rev
    resid = abs(lhs - rhs) / max(lhs, rhs, 1e-300)
    return BalanceReport(
        transition=kind,
        detail=detail,
        forward_flux=float(lhs),
        reversed_flux=float(rhs),
        residual=float(resid),
    )


def random_balance_checks(
    spec: NetworkSpec,
    polytope: CapacityPolytope,
    n: int = 1000,
    seed=None,
) -> list[BalanceReport]:
    """Balance checks on n random stationary states with random
    applicable transitions; returns all reports (take the max residual)."""
    sampler = StationarySampler(spec, polytope, seed=seed)
    rng = sampler.rng
    cache = NormConstCache(polytope)
    reports = []
    for _ in range(n):
        Q, fifo = sampler.sample_state()
        choices = [("arrival", r) for r in range(spec.n_routes)]
        for j in range(spec.n_queues):
            if not fifo[j]:
                continue
            r = fifo[j][0]
            path = spec.routes[r].path
            if path[-1] == j:
                choices.append(("departure", j))
            else:
                choices.append(("move", j))
        kind, arg = choices[rng.integers(len(choices))]
        reports.append(balance_check((Q, fifo), (kind, arg), spec, polytope, cache))
    return reports


# -------------------- independence tests --------------------


@dataclass(frozen=True)
class IndependenceReport:
    pair: tuple
    shares_pool: bool
    correlation: float
    chi_square: float
    dof: int
    p_value: float
    verdict: str
    n_samples: float


def queues_share_pool(polytope: CapacityPolytope, j: int, k: int) -> bool:
    A = polytope.matrix
    return bool(np.any((A[:, j] > 0) & (A[:, k] > 0)))


def _pool_bins(marginal, n, limit=5.0):
    """Greedy tail pooling: merge high-occupancy bins until every kept bin
    has expected marginal count >= sqrt(limit * n), which guarantees every
    cell of the product table expects >= limit."""
    frac_min = np.sqrt(limit / n)
    edges = []
    acc = 0.0
    for i, f in enumerate(marginal):
        acc += f
        if acc >= frac_min:
            edges.append(i)
            acc = 0.0
    if not edges:
        edges = [len(marginal) - 1]
    if acc > 0:
        edges[-1] = len(marginal) - 1
    groups = []
    start = 0
    for e in edges:
        groups.append(slice(start, e + 1))
        start = e + 1
    return groups


def independence_test(
    samples,
    pair,
    polytope: CapacityPolytope,
    p_threshold: float = 0.001,
    corr_threshold: float = 0.02,
    min_samples: int = 10_000,
) -> IndependenceReport:
    """Chi-square independence test plus correlation for a queue pair.

    ``samples`` is an (n, n_queues) array of queue vectors (exact sampler
    output) or a TraceMetrics with the pair's histogram recorded.  Cells
    are pooled from the tail until every expected count is at least 5.
    Verdict: 'dependent' when p < p_threshold, 'independent-consistent'
    when p >= p_threshold and |corr| <= corr_threshold, else
    'inconclusive'.
    """
    occ = collect_joint(samples, pair)
    n = occ.total
    if n < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {n:g}")
    ma, mb = occ.marginals
    rows = _pool_bins(ma, n)
    cols = _pool_bins(mb, n)
    table = np.array(
        [[occ.counts[ra, cb].sum() for cb in cols] for ra in rows]
    )
    rm = table.sum(axis=1)
    cm = table.sum(axis=0)
    expected = np.outer(rm, cm) / n
    mask = expected > 0
    stat = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
    dof = (len(rows) - 1) * (len(cols) - 1)
    p = float(chi2_dist.sf(stat, dof)) if dof > 0 else 1.0
    corr = occ.correlation()
    if dof > 0 and p < p_threshold:
        verdict = "dependent"
    elif abs(corr) <= corr_threshold:
        verdict = "independent-consistent"
    else:
        verdict = "inconclusive"
    return IndependenceReport(
        pair=(int(pair[0]), int(pair[1])),
        shares_pool=queues_share_pool(polytope, int(pair[0]), int(pair[1])),
        correlation=corr,
        chi_square=stat,
        dof=dof,
        p_value=p,
        verdict=verdict,
        n_samples=n,
    )


# -------------------- large-deviations rate --------------------


def stationary_mix(spec: NetworkSpec, polytope: CapacityPolytope) -> np.ndarray:
    """Per-queue route composition a_r / a_j (zero off route), the
    composition that minimizes the rate function for fixed queue sizes."""
    loads = compute_loads(spec, polytope)
    mix = np.zeros((spec.n_queues, spec.n_routes))
    rates = spec.rates()
    for i, r in enumerate(spec.routes):
        for j in r.path:
            mix[j, i] = rates[i] / loads.queue_loads[j]
    return mix


class CompositionProfile:
    """Piecewise-linear growth profile: queue breakpoints with a route
    composition per stage.

    ``breakpoints`` is (n_stages+1, n_queues), first row zero, rows
    nondecreasing; ``stage_mix`` is (n_stages, n_queues, n_routes) with
    each on-route slice summing to 1 (a probability over routes through
    the queue) wherever the stage grows that queue.
    """

    def __init__(self, breakpoints, stage_mix, spec: NetworkSpec):
        bp = np.asarray(breakpoints, dtype=float)
        mx = np.asarray(stage_mix, dtype=float)
        if bp.ndim != 2 or bp.shape[0] < 2:
            raise ValueError("breakpoints must be (n_stages+1, n_queues)")
        K = bp.shape[0] - 1
        if mx.shape != (K, spec.n_queues, spec.n_routes):
            raise ValueError("stage_mix must be (n_stages, n_queues, n_routes)")
        if np.any(np.abs(bp[0]) > 0):
            raise ValueError("profile must start at the empty state")
        if np.any(np.diff(bp, axis=0) < -1e-12):
            raise ValueError("breakpoints must be nondecreasing")
        if np.any(mx < -1e-12):
            raise ValueError("compositions must be nonnegative")
        on_route = np.zeros((spec.n_queues, spec.n_routes), dtype=bool)
        for i, r in enumerate(spec.routes):
            for j in r.path:
                on_route[j, i] = True
        if np.any(mx[:, ~on_route] > 1e-12):
            raise ValueError("composition puts mass on a route missing the queue")
        grows = np.diff(bp, axis=0) > 1e-12
        sums = mx.sum(axis=2)
        if np.any(np.abs(sums[grows] - 1.0) > 1e-9):
            raise ValueError("each growing stage's composition must sum to 1")
        self.breakpoints = bp
        self.stage_mix = mx
        self.n_stages = K

    @classmethod
    def single_stage(cls, Q, mix, spec: NetworkSpec) -> "CompositionProfile":
        q = np.asarray(Q, dtype=float)
        bp = np.vstack([np.zeros_like(q), q])
        return cls(bp, np.asarray(mix, dtype=float)[None, :, :], spec)


def large_deviations_rate(
    Q,
    profile: CompositionProfile,
    spec: NetworkSpec,
    polytope: CapacityPolytope,
) -> float:
    """Exponential decay rate of the stationary probability of reaching
    the scaled state Q along the given growth profile.

    Value: -(best log-throughput sum at Q over the capacity region) plus
    the stage-wise relative-entropy cost of the composition against the
    arrival mix, Sum_k dQ_j(k) Gamma_jr(k) log(Gamma_jr(k) / a_r), with
    0 log 0 = 0.  Zero at Q = 0 with the stationary composition.
    """
    q = np.asarray(Q, dtype=float)
    if q.shape != (spec.n_queues,):
        raise ValueError("queue vector length mismatch")
    if np.max(np.abs(profile.breakpoints[-1] - q)) > 1e-9:
        raise ValueError("profile endpoint does not match Q")
    if np.any(q > 0):
        pf = solve_prop_fair(q, polytope).objective
    else:
        pf = 0.0
    rates = spec.rates()
    dq = np.diff(profile.breakpoints, axis=0)
    mx = profile.stage_mix
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(mx > 0, np.log(np.where(mx > 0, mx, 1.0) / rates), 0.0)
    cost = float(np.einsum("kj,kjr->", dq, mx * logs))
    return -pf + cost


# -------------------- scaling limit of log Phi --------------------


@dataclass(frozen=True)
class ScalingDiagnostics:
    """(1/c) log Phi(cQ) against its fair-allocation limit."""

    scales: tuple
    values: np.ndarray
    target: float
    gaps: np.ndarray

    @property
    def last_gap(self) -> float:
        return float(self.gaps[-1])

    @property
    def decreasing(self) -> bool:
        return bool(np.all(np.diff(self.gaps) <= 1e-9))


def log_norm_const_scaling(
    Q, polytope: CapacityPolytope, c_list, cache: NormConstCache | None = None
) -> ScalingDiagnostics:
    """Evaluate (1/c) log Phi(cQ) along c_list with its limiting value,
    the negated fair-allocation objective at Q."""
    q = np.asarray(Q, dtype=np.int64)
    scales = tuple(int(c) for c in c_list)
    if any(c <= 0 for c in scales):
        raise ValueError("scales must be positive")
    if np.any(q > 0):
        target = -solve_prop_fair(q, polytope, tol=1e-10).objective
    else:
        target = 0.0
    vals = np.array(
        [log_norm_const(q * c, polytope, cache) / c for c in scales]
    )
    return ScalingDiagnostics(
        scales=scales, values=vals, target=float(target),
        gaps=np.abs(vals - target),
    )


# -------------------- empirical drift of the rate function --------------------


@dataclass(frozen=True)
class DriftReport:
    times: np.ndarray
    values: np.ndarray
    slope: float


def lyapunov_drift(
    trace: TraceMetrics, spec: NetworkSpec, polytope: CapacityPolytope
) -> DriftReport:
    """Rate function evaluated on a trace's checkpoint snapshots, with the
    least-squares slope of the values over time.

    Each checkpoint's empirical composition is X[j, r] / Q_j; queues empty
    at the checkpoint contribute nothing.  A negative slope from a large
    initial state is the drift the rate function is meant to certify.
    """
    if not trace.checkpoints:
        raise ValueError("trace has no checkpoints; set SimConfig.checkpoints")
    base = stationary_mix(spec, polytope)
    times = []
    vals = []
    for t, Q, X in trace.checkpoints:
        q = np.asarray(Q, dtype=float)
        mix = base.copy()
        occupied = q > 0
        if occupied.any():
            mix[occupied] = X[occupied] / q[occupied, None]
        prof = CompositionProfile.single_stage(q, mix, spec)
        vals.append(large_deviations_rate(q, prof, spec, polytope))
        times.append(t)
    times = np.asarray(times)
    vals = np.asarray(vals)
    if len(times) >= 2 and np.ptp(times) > 0:
        slope = float(np.polyfit(times, vals, 1)[0])
    else:
        slope = 0.0
    return DriftReport(times=times, values=vals, slope=slope)
