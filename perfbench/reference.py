"""Reference computations the benchmark checks the program against.

Everything here is written from the model's definitions, apart from the
library's own evaluators: the normalizing constant comes from the last-pool
recursion instead of the frontier convolution, the stationary means from the
per-pool loads, the proportional-fair optimum from its KKT conditions, and a
schedule's feasibility from the interference edges.  Only numpy and the
standard library are used.
"""

from __future__ import annotations

import math

import numpy as np


def phi_box(A, Q) -> np.ndarray:
    """Phi over every vector 0 <= x <= Q by the last-pool recursion

        Phi_l(x) = Phi_{l-1}(x) + sum_j A_lj Phi_l(x - e_j),

    with Phi_0 the indicator of x = 0.  Cells are visited in C order, so
    every x - e_j is final before x reads it.  Plain loops on purpose: the
    boxes are small and the point is independence from the convolution.
    """
    A = np.asarray(A, dtype=float)
    shape = tuple(int(q) + 1 for q in Q)
    prev = np.zeros(shape)
    prev[(0,) * len(shape)] = 1.0
    for row in A:
        members = [(j, float(a)) for j, a in enumerate(row) if a > 0]
        cur = np.zeros(shape)
        for idx in np.ndindex(*shape):
            v = prev[idx]
            for j, a in members:
                if idx[j]:
                    v += a * cur[idx[:j] + (idx[j] - 1,) + idx[j + 1:]]
            cur[idx] = v
        prev = cur
    return prev


def phi(A, Q) -> float:
    return float(phi_box(A, Q)[tuple(int(q) for q in Q)])


def sigma(A, Q) -> np.ndarray:
    """Store-forward rates Phi(Q - e_j) / Phi(Q), zero on empty queues."""
    box = phi_box(A, Q)
    q = tuple(int(v) for v in Q)
    top = box[q]
    out = np.zeros(len(q))
    for j in range(len(q)):
        if q[j]:
            out[j] = box[q[:j] + (q[j] - 1,) + q[j + 1:]] / top
    return out


def single_pool_log_phi(weights, Q) -> float:
    """log Phi for one pool: the multinomial times prod_j A_j^Q_j."""
    n = sum(int(q) for q in Q)
    val = math.lgamma(n + 1)
    for a, q in zip(weights, Q):
        val += q * math.log(a) - math.lgamma(q + 1)
    return val


def queue_loads(spec) -> np.ndarray:
    """a_j: the sum of the rates of the routes through queue j."""
    a = np.zeros(spec.n_queues)
    for r in spec.routes:
        for j in r.path:
            a[j] += r.rate
    return a


def mean_queues(spec, A) -> np.ndarray:
    """E[Q_j] = sum_l A_lj a_j / (1 - a_l)."""
    A = np.asarray(A, dtype=float)
    a = queue_loads(spec)
    pool = A @ a
    if np.any(pool >= 1.0):
        raise ValueError("pool loads must stay below 1")
    return (A * a[None, :] / (1.0 - pool)[:, None]).sum(axis=0)


def route_delays(spec, A) -> np.ndarray:
    """Mean route delay m_bar . A . visits with m_bar_l = 1 / (1 - a_l)."""
    A = np.asarray(A, dtype=float)
    m_bar = 1.0 / (1.0 - A @ queue_loads(spec))
    out = []
    for r in spec.routes:
        visits = np.zeros(spec.n_queues)
        for j in r.path:
            visits[j] += 1.0
        out.append(float(m_bar @ A @ visits))
    return np.array(out)


def slotted_queue_mean(lam: float) -> float:
    """Mean end-of-slot backlog of a one-server slotted queue with Poisson
    arrivals that join before service: E[X] = lam^2 / (2 (1 - lam)).

    From X' = X + A - 1{X + A > 0}: squaring and taking stationary means
    gives 2 (1 - lam) E[X] = E[A^2] - lam, and E[A^2] = lam + lam^2.
    """
    return lam * lam / (2.0 * (1.0 - lam))


def kkt_residual(Q, A, rates, prices) -> float:
    """Largest violation of the KKT conditions of
    max sum_{Q_j>0} Q_j log s_j subject to A s <= 1, s >= 0.

    Stationarity is measured relative to Q_j / s_j and complementary
    slackness relative to sum(Q); a structural violation (a rate on an empty
    queue, a nonpositive rate on an occupied one, a negative price) is inf.
    """
    Q = np.asarray(Q, dtype=float)
    A = np.asarray(A, dtype=float)
    s = np.asarray(rates, dtype=float)
    p = np.asarray(prices, dtype=float)
    occupied = Q > 0
    if np.any(s[~occupied] != 0.0) or np.any(s[occupied] <= 0.0) or np.any(p < 0.0):
        return math.inf
    load = A @ s
    feas = float(np.max(load - 1.0, initial=0.0))
    marginal = Q[occupied] / s[occupied]
    stat = float(np.max(np.abs(marginal - (A.T @ p)[occupied]) / marginal))
    slack = float(np.max(p * np.abs(1.0 - load)) / Q.sum())
    return max(feas, stat, slack)


def is_independent_set(schedule, edges) -> bool:
    """A 0/1 schedule serves no two queues joined by an interference edge."""
    s = np.asarray(schedule)
    if np.any((s != 0) & (s != 1)):
        return False
    return not any(s[u] and s[v] for u, v in edges)
