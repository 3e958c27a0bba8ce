"""Structural checks tying the closed forms to the dynamics: numerical
balance-equation replay against the reversed chain, independence tests on
queue pairs, the large-deviations rate function, and the scaling limit of
the log normalizing constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .metrics import TraceMetrics, collect_joint
from .model import CapacityPolytope, NetworkSpec, as_finite, as_indices, as_integers, compute_loads
from .normconst import NormConstCache, log_norm_const
from .propfair import require_converged, solve_prop_fair
from .storeforward import (
    StationarySampler,
    _admissible_loads,
    _stationary_mix,
    _validate_fifo,
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
    lw = log_norm_const(Q, polytope, cache)
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
    Q = _validate_fifo(Q, fifo, spec)
    _admissible_loads(spec, polytope)
    if cache is None:
        cache = NormConstCache(polytope)
    rates = spec.rates()
    log_rates = np.log(rates)
    kind, arg = transition
    # every transition is one hop of a route-r packet from queue j (-1 for
    # an arrival) to queue k (-1 for a departure); the reversed chain undoes
    # it with a reversed arrival or a reversed service at k
    if kind == "arrival":
        r, j = as_indices(arg, spec.n_routes, "arrival route index").item(), -1
    elif kind in ("move", "departure"):
        j = as_indices(arg, spec.n_queues, f"{kind} queue index").item()
        if len(fifo[j]) == 0:
            raise ValueError(f"queue {j} cannot serve: it is empty")
        r = fifo[j][0]
    else:
        raise ValueError(f"unknown transition class {kind!r}")
    k = int(spec.next_hop[j, r])
    if kind == "move" and k < 0:
        raise ValueError(
            f"front packet of queue {j} is at its final hop; not a move"
        )
    if kind == "departure" and k != -1:
        raise ValueError(
            f"front packet of queue {j} still has hops left; not a departure"
        )

    Q2 = Q.copy()
    fifo2 = list(map(tuple, fifo))
    if j >= 0:
        rate_fwd = float(store_forward_rates(Q, polytope, cache)[j])
        Q2[j] -= 1
        fifo2[j] = fifo2[j][1:]
    else:
        rate_fwd = float(rates[r])
    if k >= 0:
        Q2[k] += 1
        fifo2[k] = fifo2[k] + (r,)
        rate_rev = float(store_forward_rates(Q2, polytope, cache)[k])
    else:
        rate_rev = float(rates[r])
    detail = (j, k, r) if kind == "move" else (j, r) if j >= 0 else (r,)

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
    hop = spec.next_hop.tolist()
    reports = []
    for _ in range(n):
        Q, fifo = sampler.sample_state()
        choices = [("arrival", r) for r in range(spec.n_routes)]
        for j in range(spec.n_queues):
            if fifo[j]:
                choices.append(("departure" if hop[j][fifo[j][0]] == -1 else "move", j))
        kind, arg = choices[rng.integers(len(choices))]
        reports.append(balance_check((Q, fifo), (kind, arg), spec, polytope, cache))
    return reports


# -------------------- independence tests --------------------

# the largest |correlation| an independent pair may show, and the sample
# count below which the chi-square table is too thin to test
CORR_THRESHOLD = 0.02
MIN_SAMPLES = 10_000


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
    cols = polytope.matrix[:, as_indices((j, k), polytope.n_queues, "queue pair")]
    return bool(np.any((cols > 0).all(axis=1)))


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
) -> IndependenceReport:
    """Chi-square independence test plus correlation for a queue pair.

    ``samples`` is an (n, n_queues) array of queue vectors (exact sampler
    output) or a TraceMetrics with the pair's histogram recorded.  Cells
    are pooled from the tail until every expected count is at least 5.
    Verdict: 'dependent' when p < p_threshold, 'independent-consistent'
    when p >= p_threshold and |corr| <= CORR_THRESHOLD, else
    'inconclusive'.  At least MIN_SAMPLES samples are required.
    """
    occ = collect_joint(samples, pair)
    width = len(samples.queue_means) if isinstance(samples, TraceMetrics) else np.shape(samples)[1]
    if width != polytope.n_queues:
        raise ValueError(f"samples hold {width} queues, the polytope {polytope.n_queues}")
    n = occ.total
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n:g}")
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
    p = float(chdtrc(dof, stat)) if dof > 0 else 1.0
    corr = occ.correlation()
    if dof > 0 and p < p_threshold:
        verdict = "dependent"
    elif abs(corr) <= CORR_THRESHOLD:
        verdict = "independent-consistent"
    else:
        verdict = "inconclusive"
    return IndependenceReport(
        pair=occ.pair,
        shares_pool=queues_share_pool(polytope, *occ.pair),
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
    composition that minimizes the rate function for fixed queue sizes.
    The polytope must have the network's queues."""
    compute_loads(spec, polytope)
    return _stationary_mix(spec)


class CompositionProfile:
    """Piecewise-linear growth profile: queue breakpoints with a route
    composition per stage.

    ``breakpoints`` is (n_stages+1, n_queues), first row zero, rows
    nondecreasing; ``stage_mix`` is (n_stages, n_queues, n_routes) with
    each on-route slice summing to 1 (a probability over routes through
    the queue) wherever the stage grows that queue.
    """

    def __init__(self, breakpoints, stage_mix, spec: NetworkSpec):
        bp = as_finite(breakpoints, "breakpoints")
        mx = as_finite(stage_mix, "stage mix")
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
        on_route = spec.next_hop[:-1] != -2
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
        return cls([np.zeros_like(Q, dtype=float), Q], [mix], spec)


def large_deviations_rate(
    Q,
    profile: CompositionProfile,
    spec: NetworkSpec,
    polytope: CapacityPolytope,
) -> float:
    """Exponential decay rate of the stationary probability of reaching
    the scaled state Q along the given growth profile.

    Value: the best log-throughput sum at Q over the capacity region
    (at most 0, the limit of -(1/c) log Phi(cQ)) plus the stage-wise
    relative-entropy cost of the composition against the arrival mix,
    Sum_k dQ_j(k) Gamma_jr(k) log(Gamma_jr(k) / a_r), with 0 log 0 = 0.
    Zero at Q = 0 with the stationary composition; with the stationary
    composition it is the limit of -(1/c) log P(cQ) under the stationary
    law.  RuntimeError when the fair solve at Q does not converge.
    """
    q = as_finite(Q, "queue vector")
    if q.shape != (spec.n_queues,):
        raise ValueError("queue vector length mismatch")
    if np.max(np.abs(profile.breakpoints[-1] - q)) > 1e-9:
        raise ValueError("profile endpoint does not match Q")
    if np.any(q > 0):
        pf = require_converged(solve_prop_fair(q, polytope), q).objective
    else:
        pf = 0.0
    rates = spec.rates()
    dq = np.diff(profile.breakpoints, axis=0)
    mx = profile.stage_mix
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(mx > 0, np.log(np.where(mx > 0, mx, 1.0) / rates), 0.0)
    cost = float(np.einsum("kj,kjr->", dq, mx * logs))
    return pf + cost


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
    the negated fair-allocation objective at Q.  RuntimeError when the fair
    solve at Q does not converge to 1e-10."""
    q = as_integers(Q, "queue vector")
    scales = tuple(as_integers(list(c_list), "scales").tolist())
    if any(c <= 0 for c in scales):
        raise ValueError("scales must be positive")
    if np.any(q > 0):
        # 0.0 - x, not -x: an exact objective of 0.0 gives target 0.0, not -0.0
        target = 0.0 - require_converged(solve_prop_fair(q, polytope, tol=1e-10), q).objective
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
