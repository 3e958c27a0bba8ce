"""Proportional-fair rate allocation over a capacity polytope, the gap
between it and the store-forward allocation under queue scaling, and the
decomposition of a fractional allocation into a lottery over schedules.

The solver takes exact closed forms where the pools allow: store-forward
rates when no occupied queue lies in two pools, and an isotonic block peel
when every pool is one queue or a unit edge of a bipartite graph.
Elsewhere it is a primal-dual interior-point method (Mehrotra's
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

import functools
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .model import (
    SCHEDULE_CAP,
    CapacityPolytope,
    InterferenceGraph,
    as_finite,
    as_integers,
    cliques_to_polytope,
    two_colouring,
)
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


def _polish(p, A, q, tol):
    """Active-set Newton polish of the prices p, which makes degenerate
    optima (a pool with zero price and zero slack) exact.  Returns the
    prices of least KKT residual, their rates q / (A^T p) and the number
    of Newton steps."""
    res, c, slack = _price_residual(p, A, q)
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
            p_try = np.zeros(len(A))
            p_try[idx] = p_a
            res_try, c_try, slack_try = _price_residual(p_try, A, q)
            if res_try <= res:
                p, c, slack, res = p_try, c_try, slack_try, res_try
        if res <= tol * 1e-4:
            break
    return q / c, p, newton_iters


@functools.lru_cache(maxsize=1024)
def _unit_bipartite_sides(shape, data: bytes):
    """(left, right, adjacency) of the float pool matrix with this shape
    and these bytes when its rows are 0/1 with at most two members, its
    two-member rows are the edges of a bipartite graph, and the smaller
    classes of that graph's components hold at most SCHEDULE_CAP // 2
    queues in all; None otherwise.  ``left`` and ``right`` are sides 0 and
    1 of ``model.two_colouring``, and ``adjacency[i, k]`` says whether
    queues left[i] and right[k] share a pool."""
    A = np.frombuffer(data).reshape(shape)
    member = A > 0
    if not ((A == member).all() and (member.sum(axis=1) <= 2).all()):
        return None
    edges = np.argwhere(member[member.sum(axis=1) == 2])[:, 1].reshape(-1, 2)
    side = two_colouring(shape[1], edges.tolist())
    if side is None or (side == 0).sum() > SCHEDULE_CAP // 2:
        return None
    adj = np.zeros((shape[1], shape[1]), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = True
    left, right = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
    sides = (left, right, adj[np.ix_(left, right)])
    for a in sides:
        a.setflags(write=False)
    return sides


@functools.lru_cache(maxsize=None)
def _subsets(k: int) -> np.ndarray:
    """The 2^k - 1 nonempty subsets of k items, one bool row each."""
    rows = (np.arange(1, 1 << k)[:, None] >> np.arange(k) & 1).astype(bool)
    rows.setflags(write=False)
    return rows


def _isotonic_peel(q, A):
    """Exact rates and prices of max sum q_j log s_j s.t. A s <= 1 when
    every pool of A is one queue or a unit edge of a bipartite graph with
    at most SCHEDULE_CAP // 2 queues on its smaller sides (left); None
    otherwise.

    The rates come from a block peel: among the nonempty sets S of
    unpeeled left queues, with N their unpeeled neighbours, take those of
    least z = q(N) / (q(N) + q(S)), their union S and its N, give N the
    rate z and S the rate 1 - z, and peel both.  Right queues with no
    left neighbour keep rate 1.  With x = s on the left and 1 - s on the
    right, the problem is a Bernoulli-likelihood isotonic regression of
    1 on the left and 0 on the right, weights q, under x_left <= x_right
    on every edge; its solution has these level sets (Robertson, Wright
    and Dykstra 1988).  The prices solve A_t^T p = q / s with p >= 0 on
    the tight pools A_t, a transportation problem per block that the
    least z makes feasible (Hall's condition)."""
    sides = _unit_bipartite_sides(A.shape, A.tobytes())
    if sides is None:
        return None
    left, right, adj = sides
    subsets = _subsets(len(left))
    hood = subsets @ adj
    q_left, q_right = q[left], q[right]
    q_sub = subsets @ q_left
    s = np.ones(len(q))
    open_sub = np.ones(len(subsets), dtype=bool)  # subsets of unpeeled left queues
    rest = np.ones(len(right), dtype=bool)  # unpeeled right queues
    while open_sub.any():
        q_hood = hood @ (q_right * rest)
        z = np.where(open_sub, q_hood / (q_hood + q_sub), np.inf)
        ties = z == z.min()
        S = subsets[ties].any(axis=0)
        N = hood[ties].any(axis=0) & rest
        a, b = q_left[S].sum(), q_right[N].sum()
        s[left[S]] = a / (a + b)
        s[right[N]] = b / (a + b)
        rest &= ~N
        open_sub &= ~subsets[:, S].any(axis=1)
    from scipy.optimize import nnls  # kept off the package import: 0.1 s

    tight = A @ s > 1.0 - 1e-12
    p = np.zeros(len(A))
    p[tight] = nnls(A[tight].T, q / s)[0]
    return s, p


def solve_prop_fair(
    Q,
    polytope: CapacityPolytope,
    tol: float = 1e-8,
) -> PropFairSolution:
    """Proportionally fair allocation for queue vector Q.

    Queues with Q_j = 0 are pinned to rate 0 and dropped from the
    objective, and so are the pools that hold no occupied queue.  The
    problem is normalized to sum(q) = 1 and solved by the first of three
    methods that applies:

    - every occupied queue lies in exactly one pool: the problem splits by
      pool, each pool's price is its share of the backlog,
      p_l = sum_{j in l} q_j, and the rates are the store-forward rates
      Q_j / (A_lj N_l);
    - every pool is one queue or two queues with unit weights, the pairs
      form a bipartite graph, and its smaller sides hold at most
      SCHEDULE_CAP // 2 queues: the exact block peel of ``_isotonic_peel``;
    - otherwise a primal-dual interior-point method.

    The first and last are followed by an active-set Newton polish on the
    prices, which makes degenerate optima (a pool with zero price and
    zero slack) exact, and take the rates q / (A^T p); the peel is exact
    as it stands and reports zero iterations.
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

    member = A > 0
    if (member.sum(axis=0) == 1).all():
        # disjoint pools: the exact prices are the pools' backlogs
        s_act, p, iters = _polish(member @ q, A, q, tol)
    else:
        # the peel's ratios of queue sums are exact on the raw (integer) Q
        peel = _isotonic_peel(q_raw[active], A)
        if peel is None:
            p, ip_iters = _interior_point(q, A)
            s_act, p, iters = _polish(p, A, q, tol)
            iters += ip_iters
        else:
            s_act, p, iters = peel[0], peel[1] / total, 0

    # ---- assemble full-size solution ----
    rates = np.zeros(polytope.n_queues)
    rates[active] = s_act
    prices = np.zeros(polytope.n_pools)
    # prices were computed for the normalized problem; the raw problem's
    # dual scales by sum(Q)
    prices[rows] = p * total
    slack_full = 1.0 - A_full @ rates
    residual = float(max(0.0, (-slack_full).max(initial=0.0),
                         (prices * abs(slack_full)).max(initial=0.0) / total))
    objective = float(q_raw[active] @ np.log(s_act))
    return PropFairSolution(
        rates=rates,
        prices=prices,
        objective=objective,
        kkt_residual=residual,
        iterations=iters,
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
