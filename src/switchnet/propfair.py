"""Proportional-fair rate allocation over a capacity polytope, the gap
between it and the store-forward allocation under queue scaling, and the
decomposition of a fractional allocation into a lottery over schedules.

The solver is a primal-dual interior-point method (Mehrotra's
predictor-corrector) on the rates, slacks and pool prices, followed by an
active-set Newton polish on the prices that makes degenerate optima exact.
It needs no starting point, and one solve serves every caller: the
proportional scheduler, the lottery decomposition and the tilt of the
normalizing-constant pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import linprog

from .model import CapacityPolytope
from .normconst import NormConstCache
from .storeforward import store_forward_rates


class InfeasibleTargetError(ValueError):
    """Target mean lies outside the convex hull of the given schedules."""


@dataclass(frozen=True)
class PropFairSolution:
    """Solution of max sum_{Q_j>0} Q_j log s_j subject to matrix @ s <= 1.

    ``rates`` has zeros exactly where Q does.  ``prices`` are the dual pool
    variables certifying optimality: Q_j / s_j = sum_l prices_l A_lj on
    occupied queues, with complementary slackness on every pool.
    """

    rates: np.ndarray
    prices: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool


def _interior_point(q, A, max_iter):
    """Pool prices of max sum q_j log s_j s.t. A s <= 1 by a primal-dual
    interior-point method with Mehrotra's predictor-corrector.

    The iterate stacks rates s > 0, slacks w = 1 - A s > 0 and prices
    p > 0.  Stationarity is linearized in its bilinear form
    s_j (A^T p)_j = q_j, so each step solves one Newton system in s,
    H = A^T diag(p / w) A + diag(A^T p / s); the last term is q / s^2 at
    the optimum.  (Linearizing q / s = A^T p instead lets a step jump far
    back from the boundary of a pool that serves one queue alone, and the
    iteration can cycle there.)  It stops when the scaled KKT measure
    (stationarity times s, primal residual, complementarity) is below
    1e-12, when H is numerically singular, or when the measure, once below
    1e-8, stops improving; earlier on it need not fall monotonically.
    Returns the prices of the best iterate and the number of steps.
    """
    m, n = A.shape
    x = np.empty(n + 2 * m)
    s, w, p = x[:n], x[n:n + m], x[n + m:]
    s[:] = 0.5 / float(A.sum(axis=1).max())
    w[:] = 1.0 - A @ s
    p[:] = 1.0
    best, best_p = np.inf, p.copy()
    stale = 0

    def step(dx):
        # largest step in (0, 1] keeping x + step * dx >= 0
        return min(1.0, -1.0 / min(float(np.min(dx / x)), -1.0))

    for it in range(max_iter + 1):
        y = A.T @ p
        r_d = q / s - y
        r_p = 1.0 - A @ s - w
        comp = p * w
        measure = float(np.max(np.abs(np.concatenate([s * r_d, r_p, comp]))))
        if measure < best:
            best, best_p = measure, p.copy()
            stale = 0
        else:
            stale += 1
        if best <= 1e-12 or (best <= 1e-8 and stale >= 3) or it == max_iter:
            break
        d = p / w
        factor, info = lapack.dpotrf((A.T * d) @ A + np.diag(y / s), lower=1)
        if info != 0:
            break

        def direction(r_c):
            # Newton step for s (A^T p) = q and A s + w = 1 that moves p w by -r_c
            ds = lapack.dpotrs(factor, r_d + A.T @ (d * r_p + r_c / w), lower=1)[0]
            dp = d * (A @ ds - r_p) - r_c / w
            return np.concatenate([ds, -(r_c + w * dp) / p, dp])

        mu = float(comp.sum()) / m
        dx = direction(comp)  # predictor: aim at p w = 0
        a = step(dx)
        dw, dp = dx[n:n + m], dx[n + m:]
        sigma = (float((w + a * dw) @ (p + a * dp)) / m / mu) ** 3
        dx = direction(comp + dw * dp - sigma * mu)
        x += 0.99 * step(dx) * dx
    return best_p, it


def _price_residual(p, A, q):
    """KKT residual of prices p in the normalized problem, where the rates
    q / (A^T p) are stationary by construction: the larger of the capacity
    violation and the complementary slackness.  Also returns A^T p."""
    c = A.T @ p
    slack = 1.0 - A @ (q / c)
    return max(np.max(-slack, initial=0.0), np.max(p * np.abs(slack), initial=0.0)), c


def solve_prop_fair(
    Q,
    polytope: CapacityPolytope,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> PropFairSolution:
    """Proportionally fair allocation for queue vector Q.

    Queues with Q_j = 0 are pinned to rate 0 and dropped from the
    objective.  The problem is normalized to sum(q) = 1 and solved by a
    primal-dual interior-point method; an active-set Newton polish on the
    prices then makes degenerate optima (a pool with zero price and zero
    slack) exact.  ``converged`` reports whether the KKT residual is at
    most ``tol``.
    """
    q_raw = np.asarray(Q, dtype=float)
    if q_raw.shape != (polytope.n_queues,):
        raise ValueError("queue vector length does not match the polytope")
    if np.any(q_raw < 0):
        raise ValueError("queue vector must be nonnegative")
    if not np.any(q_raw > 0):
        raise ValueError("queue vector must have at least one positive entry")

    active = q_raw > 0
    A_full = polytope.matrix
    # scale to a probability vector so tolerances do not depend on |Q|
    q = q_raw[active] / q_raw.sum()
    A_act = A_full[:, active]
    rows = np.flatnonzero(A_act.sum(axis=1) > 0)
    A = A_act[rows]
    n_pools = len(rows)

    p, iters = _interior_point(q, A, max_iter)
    res, c = _price_residual(p, A, q)

    # ---- active-set Newton polish ----
    newton_iters = 0
    for _ in range(4):
        slack = 1.0 - A @ (q / c)
        act = (p > 1e-9 * max(p.max(initial=0.0), 1.0)) | (slack < 1e-7)
        if not np.any(act):
            break
        idx = np.flatnonzero(act)
        B = A[idx]
        p_a = p[idx].copy()
        p_a[p_a <= 0] = 1e-12
        improved = False
        for _ in range(50):
            newton_iters += 1
            c_a = B.T @ p_a
            if np.any(c_a <= 0):
                break
            s_a = q / c_a
            F = B @ s_a - 1.0
            if np.max(np.abs(F)) < 1e-14:
                improved = True
                break
            J = -(B * (q / c_a**2)) @ B.T
            delta = np.linalg.lstsq(J, -F, rcond=None)[0]
            drop = p_a + delta < 0.0
            if np.any(drop) and not np.all(drop):
                # the full step prices these pools below zero: they are
                # slack, or tight at zero price, at the optimum
                idx, B, p_a = idx[~drop], B[~drop], p_a[~drop]
                continue
            t = 1.0
            f0 = float(F @ F)
            stepped = False
            for _ in range(40):
                cand = p_a + t * delta
                if np.all(cand >= 0):
                    c_c = B.T @ cand
                    if np.all(c_c > 0):
                        F_c = B @ (q / c_c) - 1.0
                        if float(F_c @ F_c) < f0:
                            p_a = cand
                            stepped = True
                            improved = True
                            break
                t *= 0.5
            if not stepped:
                break
        if improved:
            p_try = np.zeros(n_pools)
            p_try[idx] = p_a
            res_try, c_try = _price_residual(p_try, A, q)
            if res_try <= res:
                p, c, res = p_try, c_try, res_try
        if res <= tol * 1e-4:
            break

    # ---- assemble full-size solution ----
    s_act = q / c
    rates = np.zeros(polytope.n_queues)
    rates[active] = s_act
    prices = np.zeros(polytope.n_pools)
    # prices were computed for the normalized problem; the raw problem's
    # dual scales by sum(Q)
    prices[rows] = p * q_raw.sum()
    slack_full = 1.0 - A_full @ rates
    residual = float(
        max(
            np.max(-slack_full, initial=0.0),
            np.max(prices * np.abs(slack_full), initial=0.0) / q_raw.sum(),
        )
    )
    objective = float(q_raw[active] @ np.log(s_act))
    return PropFairSolution(
        rates=rates,
        prices=prices,
        objective=objective,
        kkt_residual=residual,
        iterations=iters + newton_iters,
        converged=residual <= tol,
    )


def sf_pf_gap(Q, polytope: CapacityPolytope, c_list, cache: NormConstCache | None = None):
    """Max-coordinate distance between the store-forward rates at scaled
    queues c*Q and the proportionally fair rates at Q, for each scale c.

    The store-forward allocation converges to the fair point as c grows;
    the returned array (aligned with c_list) quantifies how fast.
    """
    q = np.asarray(Q, dtype=np.int64)
    if not np.any(q > 0):
        raise ValueError("queue vector must have at least one positive entry")
    sol = solve_prop_fair(q, polytope, tol=1e-10)
    gaps = np.empty(len(list(c_list)))
    for i, cval in enumerate(c_list):
        cval = int(cval)
        if cval <= 0:
            raise ValueError("scales must be positive integers")
        sigma = store_forward_rates(q * cval, polytope, cache)
        gaps[i] = float(np.max(np.abs(sigma - sol.rates)))
    return gaps


# -------------------- schedule decomposition --------------------


@dataclass(frozen=True)
class ScheduleDistribution:
    """Probability mass over integer schedules whose mean hits a target."""

    schedules: np.ndarray
    probabilities: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_cum", np.cumsum(self.probabilities))

    @property
    def mean(self) -> np.ndarray:
        return self.probabilities @ self.schedules

    @property
    def support_size(self) -> int:
        return len(self.probabilities)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        k = int(np.searchsorted(self._cum, rng.random(), side="right"))
        return self.schedules[min(k, len(self.schedules) - 1)]


def _prune_support(sched, prob, n_queues):
    """Carathéodory reduction: walk along null directions of the moment
    map until at most n_queues + 1 atoms carry mass."""
    sched = sched.copy()
    prob = prob.copy()
    while len(prob) > n_queues + 1:
        M = np.vstack([sched.T, np.ones(len(prob))])
        _, _, vh = np.linalg.svd(M)
        null = vh[-1]
        if np.max(np.abs(M @ null)) > 1e-9:
            break
        with np.errstate(divide="ignore"):
            ratios = np.where(null > 1e-15, prob / null, np.inf)
        t = ratios.min()
        if not np.isfinite(t):
            null = -null
            ratios = np.where(null > 1e-15, prob / null, np.inf)
            t = ratios.min()
            if not np.isfinite(t):
                break
        prob = prob - t * null
        keep = prob > 1e-12
        if keep.all():
            prob[np.argmin(ratios)] = 0.0
            keep = prob > 1e-12
        sched = sched[keep]
        prob = prob[keep]
    return sched, np.maximum(prob, 0.0) / max(prob.sum(), 1e-300)


def decompose_mean(target, schedules, tol: float = 1e-8) -> ScheduleDistribution:
    """Express ``target`` as the mean of a lottery over ``schedules``.

    Solves the moment-matching feasibility LP with a simplex method, so
    the answer is a vertex (small support) and deterministic for a fixed
    schedule order.  Targets within ``tol`` of the hull are accepted by a
    banded retry; anything further raises InfeasibleTargetError.
    """
    S = np.asarray(schedules, dtype=float)
    if S.ndim != 2:
        raise ValueError("schedules must be a 2-d array, one row per schedule")
    t = np.asarray(target, dtype=float)
    if t.shape != (S.shape[1],):
        raise ValueError("target length does not match schedule width")
    K, J = S.shape
    A_eq = np.vstack([S.T, np.ones((1, K))])
    b_eq = np.concatenate([t, [1.0]])
    res = linprog(
        np.zeros(K), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * K,
        method="highs-ds",
    )
    if not res.success:
        band = max(tol, 1e-7)
        res = linprog(
            np.zeros(K),
            A_ub=np.vstack([S.T, -S.T]),
            b_ub=np.concatenate([t + band, -(t - band)]),
            A_eq=np.ones((1, K)),
            b_eq=[1.0],
            bounds=[(0, None)] * K,
            method="highs-ds",
        )
        if not res.success:
            raise InfeasibleTargetError(
                f"target {t} not expressible as a schedule mixture (within {band})"
            )
    x = np.maximum(res.x, 0.0)
    keep = x > 1e-12
    if not np.any(keep):
        keep = x == x.max()
    sched = S[keep]
    prob = x[keep] / x[keep].sum()
    sched, prob = _prune_support(sched, prob, J)
    order = np.lexsort(sched.T[::-1])
    return ScheduleDistribution(schedules=sched[order], probabilities=prob[order])
