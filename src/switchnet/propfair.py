"""Proportional-fair rate allocation over a capacity polytope, the gap
between it and the store-forward allocation under queue scaling, and the
decomposition of a fractional allocation into a lottery over schedules.

The solver is a primal-dual interior-point method (Mehrotra's
predictor-corrector) on the rates, slacks and pool prices, followed by an
active-set Newton polish on the prices that makes degenerate optima exact.
It needs no starting point, and one solve serves every caller: the
proportional scheduler, the lottery decomposition and the tilt of the
normalizing-constant pass.

The lottery is a Carathéodory peel with no LP: it moves mass onto one
listed schedule at a time, each on the minimal face of the clique
polytope that holds what remains of the target.  It is guaranteed to
succeed when the list holds the independent sets of a perfect graph and
the target lies in that graph's clique polytope, whose vertices are then
exactly the schedules.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .model import CapacityPolytope, InterferenceGraph, as_finite, as_integers, cliques_to_polytope
from .normconst import NormConstCache
from .storeforward import store_forward_rates


# interior-point iteration cap, and the largest miss a lottery's mean may
# show against its target
MAX_ITER = 200
LOTTERY_TOL = 1e-8


class InfeasibleTargetError(ValueError):
    """The lottery over the given schedules does not reach the target mean."""


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


def require_converged(sol: PropFairSolution, Q) -> PropFairSolution:
    """Return ``sol``, or raise RuntimeError when its solve at Q stopped
    short of its tolerance: an unconverged allocation must not feed a
    downstream step."""
    if not sol.converged:
        raise RuntimeError(
            f"proportional-fair solve at Q={tuple(np.asarray(Q).tolist())} stopped at "
            f"KKT residual {sol.kkt_residual:.3g}"
        )
    return sol


def _interior_point(q, A):
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
    # A.T stays a strided view: BLAS takes another path for a contiguous
    # copy, and the last bits of the iterates move with it
    At = A.T
    x, dx = np.empty(n + 2 * m), np.empty(n + 2 * m)
    s, w, p = x[:n], x[n:n + m], x[n + m:]
    ds, dw, dp = dx[:n], dx[n:n + m], dx[n + m:]
    s[:] = 0.5 / float(A.sum(axis=1).max())
    w[:] = 1.0 - A @ s
    p[:] = 1.0
    H = np.empty((n, n))
    H_diag = H.reshape(-1)[::n + 1]
    best, best_p = np.inf, p.copy()
    stale = 0

    def step():
        # largest step in (0, 1] keeping x + step * dx >= 0
        return min(1.0, -1.0 / min(float((dx / x).min()), -1.0))

    def direction(r_c):
        # Newton step for s (A^T p) = q and A s + w = 1 that moves p w by
        # -r_c, written into dx
        r_cw = r_c / w
        ds[:] = lapack.dpotrs(factor, r_d + At @ (d_rp + r_cw), lower=1)[0]
        np.subtract(d * (A @ ds - r_p), r_cw, out=dp)
        np.divide(-(r_c + w * dp), p, out=dw)

    for it in range(MAX_ITER + 1):
        y = At @ p
        r_d = q / s - y
        r_p = 1.0 - A @ s - w
        comp = p * w
        measure = float(np.abs(np.concatenate((s * r_d, r_p, comp))).max())
        if measure < best:
            best, best_p = measure, p.copy()
            stale = 0
        else:
            stale += 1
        if best <= 1e-12 or (best <= 1e-8 and stale >= 3) or it == MAX_ITER:
            break
        d = p / w
        np.matmul(At * d, A, out=H)
        H_diag += y / s
        factor, info = lapack.dpotrf(H, lower=1)
        if info != 0:
            break
        d_rp = d * r_p
        mu = float(comp.sum()) / m
        direction(comp)  # predictor: aim at p w = 0
        a = step()
        sigma = (float((w + a * dw) @ (p + a * dp)) / m / mu) ** 3
        direction(comp + dw * dp - sigma * mu)
        x += 0.99 * step() * dx
    return best_p, it


def _price_residual(p, A, q):
    """KKT residual of prices p in the normalized problem, where the rates
    q / (A^T p) are stationary by construction: the larger of the capacity
    violation and the complementary slackness.  Also returns A^T p and the
    pool slacks of those rates."""
    c = A.T @ p
    slack = 1.0 - A @ (q / c)
    return max((-slack).max(initial=0.0), (p * abs(slack)).max(initial=0.0)), c, slack


def solve_prop_fair(
    Q,
    polytope: CapacityPolytope,
    tol: float = 1e-8,
) -> PropFairSolution:
    """Proportionally fair allocation for queue vector Q.

    Queues with Q_j = 0 are pinned to rate 0 and dropped from the
    objective.  The problem is normalized to sum(q) = 1 and solved by a
    primal-dual interior-point method; an active-set Newton polish on the
    prices then makes degenerate optima (a pool with zero price and zero
    slack) exact.  When every occupied queue lies in exactly one pool that
    holds occupied queues, the problem splits by pool and the interior
    point is skipped: each pool's price is its share of the backlog,
    p_l = sum_{j in l} q_j, and the rates are the store-forward rates
    Q_j / (A_lj N_l).  The polish and the residual run either way.
    ``converged`` reports whether the KKT residual is at most ``tol``.
    """
    q_raw = as_finite(Q, "queue vector")
    if q_raw.shape != (polytope.n_queues,):
        raise ValueError("queue vector length does not match the polytope")
    if (q_raw < 0).any():
        raise ValueError("queue vector must be nonnegative")
    active = q_raw > 0
    if not active.any():
        raise ValueError("queue vector must have at least one positive entry")

    A_full = polytope.matrix
    total = q_raw.sum()
    # scale to a probability vector so tolerances do not depend on |Q|
    q = q_raw[active] / total
    A_act = A_full[:, active]
    rows = np.flatnonzero(A_act.sum(axis=1) > 0)
    A = A_act[rows]
    n_pools = len(rows)

    member = A > 0
    if (member.sum(axis=0) == 1).all():
        # disjoint pools: the exact prices are the pools' backlogs
        p, iters = member @ q, 0
    else:
        p, iters = _interior_point(q, A)
    res, c, slack = _price_residual(p, A, q)

    # ---- active-set Newton polish ----
    newton_iters = 0
    for _ in range(4):
        act = (p > 1e-9 * max(p.max(initial=0.0), 1.0)) | (slack < 1e-7)
        if not act.any():
            break
        idx = np.flatnonzero(act)
        B = A[idx]
        p_a = p[idx]
        p_a[p_a <= 0] = 1e-12
        improved = False
        for _ in range(50):
            newton_iters += 1
            c_a = B.T @ p_a
            if (c_a <= 0).any():
                break
            s_a = q / c_a
            F = B @ s_a - 1.0
            if abs(F).max() < 1e-14:
                improved = True
                break
            J = -(B * (q / c_a**2)) @ B.T
            delta = np.linalg.lstsq(J, -F, rcond=None)[0]
            drop = p_a + delta < 0.0
            if drop.any() and not drop.all():
                # the full step prices these pools below zero: they are
                # slack, or tight at zero price, at the optimum
                idx, B, p_a = idx[~drop], B[~drop], p_a[~drop]
                continue
            # the full Newton step, kept if its prices stay feasible and it lowers |F|^2
            cand = p_a + delta
            c_c = B.T @ cand
            if not ((cand >= 0).all() and (c_c > 0).all()):
                break
            F_c = B @ (q / c_c) - 1.0
            if not float(F_c @ F_c) < float(F @ F):
                break
            p_a, improved = cand, True
        if improved:
            p_try = np.zeros(n_pools)
            p_try[idx] = p_a
            res_try, c_try, slack_try = _price_residual(p_try, A, q)
            if res_try <= res:
                p, c, slack, res = p_try, c_try, slack_try, res_try
        if res <= tol * 1e-4:
            break

    # ---- assemble full-size solution ----
    s_act = q / c
    rates = np.zeros(polytope.n_queues)
    rates[active] = s_act
    prices = np.zeros(polytope.n_pools)
    # prices were computed for the normalized problem; the raw problem's
    # dual scales by sum(Q)
    prices[rows] = p * total
    slack_full = 1.0 - A_full @ rates
    residual = float(max((-slack_full).max(initial=0.0),
                         (prices * abs(slack_full)).max(initial=0.0) / total))
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
    RuntimeError when the fair solve at Q does not converge to 1e-10.
    """
    q = as_integers(Q, "queue vector")
    scales = as_integers(list(c_list), "scales").tolist()  # c_list may be a one-pass iterator
    sol = require_converged(solve_prop_fair(q, polytope, tol=1e-10), q)
    gaps = np.empty(len(scales))
    for i, cval in enumerate(scales):
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

    def draw(self, rng: np.random.Generator) -> int:
        """The row of one schedule drawn with a single uniform."""
        return min(bisect_right(self._cum, rng.random()), len(self._cum) - 1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.schedules[self.draw(rng)]


# the pools of the schedule lists seen last, keyed by (shape, bytes) of the
# float list, so that a caller passing the same list as a fresh array still
# hits; its arrays are read-only, and when it is full the oldest entry goes
_POOL_MEMO: dict = {}
_POOL_MEMO_SIZE = 8


def _schedule_pools(S):
    """Read-only (S, served, pool matrix, in_pool, width) of the float
    schedule list S, built once per list.  The memo holds its own copy of
    S, so a caller that later writes to its array changes nothing here."""
    key = (S.shape, S.tobytes())
    pools = _POOL_MEMO.get(key)
    if pools is None:
        S = as_finite(S, "schedules").copy()
        served = S > 0
        conflicts = np.argwhere(np.triu(served.T.astype(int) @ served == 0, 1))
        A = cliques_to_polytope(InterferenceGraph.from_edges(S.shape[1], conflicts)).matrix
        pools = (S, served, A, (S @ A.T) > 0, served.sum(axis=1))
        for a in pools:
            a.setflags(write=False)
        if len(_POOL_MEMO) >= _POOL_MEMO_SIZE:
            del _POOL_MEMO[next(iter(_POOL_MEMO))]
        _POOL_MEMO[key] = pools
    return pools


def decompose_mean(target, schedules) -> ScheduleDistribution:
    """Express ``target`` as the mean of a lottery over ``schedules``.

    A Carathéodory peel on the clique polytope of the list: two queues
    conflict when no schedule serves both, and the pools are the maximal
    cliques of that conflict graph.  Each step takes the listed schedule
    that is zero on the remainder's empty queues, serves every pool the
    remainder fills, and serves the most queues (list order breaks ties),
    and moves as much mass onto it as keeps the remainder in the polytope.
    Each step empties a queue, fills a pool or spends the last mass, so the
    support is at most J + 1.  When the list holds the independent sets of
    a perfect graph and the target lies in its clique polytope, the face
    of every remainder is the hull of listed schedules (Chvátal 1975), so
    the peel always succeeds.  InfeasibleTargetError is raised when no
    listed schedule lies on the face, or when the lottery's mean misses
    the target by more than ``LOTTERY_TOL``.  The pools are built once per
    schedule list and memoized.
    """
    S = np.asarray(schedules, dtype=float)
    if S.ndim != 2:
        raise ValueError("schedules must be a 2-d array, one row per schedule")
    t = as_finite(target, "target")
    if t.shape != (S.shape[1],):
        raise ValueError("target length does not match schedule width")
    S, served, A, in_pool, width = _schedule_pools(S)
    x = np.maximum(t, 0.0)
    mass = 1.0
    picked, prob = [], []
    while mass > 0.0:
        load = A @ x
        tight = load >= mass * (1 - 1e-9)
        on_face = ~served[:, x == 0.0].any(axis=1) & in_pool[:, tight].all(axis=1)
        if not on_face.any():
            raise InfeasibleTargetError(f"target {t}: no listed schedule on the face of {x / mass}")
        k = int(np.argmax(np.where(on_face, width, -1)))
        v = S[k]
        step = min(mass, (x[served[k]] / v[served[k]]).min(initial=np.inf),
                   (mass - load[~in_pool[k]]).min(initial=np.inf))
        picked.append(k)
        prob.append(step)
        x -= step * v
        x[x < 1e-12] = 0.0
        mass = mass - step if mass - step >= 1e-12 else 0.0
    sched, prob = S[picked], np.array(prob) / sum(prob)
    miss = float(abs(prob @ sched - t).max(initial=0.0))
    if not miss <= LOTTERY_TOL:
        raise InfeasibleTargetError(f"target {t}: the peeled lottery misses it by {miss:.3g}")
    order = np.lexsort(sched.T[::-1])
    return ScheduleDistribution(schedules=sched[order], probabilities=prob[order])
