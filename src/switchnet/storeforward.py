"""Store-forward allocation: service rates, stationary law, exact sampling,
and the closed-form stationary moments.

The stationary distribution over (queue vector, per-queue FIFO route labels)
factorizes as Phi(Q) times a product of route loads, normalized by
prod_l (1 - a_l) over pools.  Equivalently, pool occupancies are independent
geometrics split multinomially over their member queues, which is what the
exact sampler draws.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CapacityPolytope, LoadProfile, NetworkSpec, compute_loads
from .normconst import NormConstCache, log_norm_const, log_norm_const_neighbours


class InadmissibleLoadError(ValueError):
    """Offered loads leave the stability region (some pool load >= 1)."""


def store_forward_rates(
    Q, polytope: CapacityPolytope, cache: NormConstCache | None = None
) -> np.ndarray:
    """Service rate vector sigma(Q): sigma_j = Phi(Q - e_j) / Phi(Q).

    Phi(Q) and every Phi(Q - e_j) come from one frontier pass.  Empty queues
    get rate zero (Phi of a vector with a negative entry is zero).  The
    result always satisfies matrix @ sigma <= 1.
    """
    base, down = log_norm_const_neighbours(Q, polytope, cache)
    if base == float("-inf"):
        return np.zeros(len(down))
    return np.exp(down - base)


def _route_index(spec: NetworkSpec) -> dict[str, int]:
    return {r.id: i for i, r in enumerate(spec.routes)}


def _validate_fifo(Q, fifo, spec: NetworkSpec):
    q = np.asarray(Q, dtype=np.int64)
    if len(fifo) != spec.n_queues or q.shape != (spec.n_queues,):
        raise ValueError("state dimensions do not match the network")
    for j, content in enumerate(fifo):
        if len(content) != q[j]:
            raise ValueError(
                f"queue {j}: FIFO holds {len(content)} packets but Q_j = {int(q[j])}"
            )
        for r in content:
            if not (0 <= r < spec.n_routes):
                raise ValueError(f"queue {j}: unknown route index {r}")
            if j not in spec.routes[r].path:
                raise ValueError(
                    f"queue {j}: route {spec.routes[r].id!r} does not pass through it"
                )
    return q


def log_stationary_weight(
    Q,
    fifo,
    spec: NetworkSpec,
    polytope: CapacityPolytope,
    cache: NormConstCache | None = None,
) -> float:
    """Log of the unnormalized stationary weight Phi(Q) prod a_r over packets.

    ``fifo`` lists the route index of every packet, front first, per queue.
    Multiply by ``stationary_normalizer`` to get a probability.
    """
    q = _validate_fifo(Q, fifo, spec)
    loads = compute_loads(spec, polytope)
    if not loads.admissible:
        raise InadmissibleLoadError(
            f"pool loads {loads.pool_loads} not strictly below 1"
        )
    lw = log_norm_const(q, polytope, cache)
    rates = spec.rates()
    for content in fifo:
        for r in content:
            lw += math.log(rates[r])
    return lw


def stationary_weight(Q, fifo, spec, polytope, cache=None) -> float:
    return math.exp(log_stationary_weight(Q, fifo, spec, polytope, cache))


def stationary_normalizer(loads: LoadProfile) -> float:
    """prod_l (1 - a_l): the constant turning stationary weights into
    probabilities when summed over all states."""
    if not loads.admissible:
        raise InadmissibleLoadError("normalizer undefined for inadmissible loads")
    return float(np.prod(1.0 - loads.pool_loads))


# -------------------- exact sampler --------------------


class StationarySampler:
    """Draws exact stationary states: independent geometric pool occupancies,
    multinomial splits over member queues, i.i.d. route labels per queue."""

    def __init__(self, spec: NetworkSpec, polytope: CapacityPolytope, seed=None):
        loads = compute_loads(spec, polytope)
        if not loads.admissible:
            raise InadmissibleLoadError(
                f"cannot sample: pool loads {loads.pool_loads} not strictly below 1"
            )
        self.spec = spec
        self.polytope = polytope
        self.loads = loads
        self.rng = np.random.default_rng(seed)
        A = polytope.matrix
        a_q = loads.queue_loads
        self._pools = []
        for l in range(polytope.n_pools):
            members = polytope.members(l)
            a_l = float(loads.pool_loads[l])
            if a_l <= 0.0:
                continue
            probs = np.array([A[l, j] * a_q[j] / a_l for j in members])
            self._pools.append((a_l, members, probs))
        self._queue_routes = []
        for j in range(spec.n_queues):
            ids = [i for i, r in enumerate(spec.routes) if j in r.path]
            w = np.array([spec.routes[i].rate for i in ids])
            self._queue_routes.append((ids, w / w.sum() if len(ids) else w))

    def sample_queues(self, n: int) -> np.ndarray:
        """n exact stationary queue vectors, shape (n, n_queues)."""
        out = np.zeros((n, self.spec.n_queues), dtype=np.int64)
        for a_l, members, probs in self._pools:
            m = self.rng.geometric(1.0 - a_l, size=n) - 1
            split = self.rng.multinomial(m, probs)
            for t, j in enumerate(members):
                out[:, j] += split[:, t]
        return out

    def sample_state(self):
        """One exact stationary state: (queue vector, FIFO route labels)."""
        q = self.sample_queues(1)[0]
        fifo = []
        for j in range(self.spec.n_queues):
            ids, probs = self._queue_routes[j]
            if q[j] > 0 and not ids:
                raise RuntimeError(f"queue {j} occupied but no route passes through it")
            if q[j] > 0:
                picks = self.rng.choice(len(ids), size=int(q[j]), p=probs)
                fifo.append(tuple(ids[k] for k in picks))
            else:
                fifo.append(())
        return q, tuple(fifo)


def sample_stationary_state(spec, polytope, seed=None):
    """Convenience wrapper: one exact draw from the stationary law."""
    return StationarySampler(spec, polytope, seed=seed).sample_state()


# -------------------- closed-form moments --------------------


def expected_queue_lengths(spec: NetworkSpec, polytope: CapacityPolytope) -> np.ndarray:
    """E[Q_j] = sum over pools holding j of A_lj a_j / (1 - a_l)."""
    loads = compute_loads(spec, polytope)
    if not loads.admissible:
        raise InadmissibleLoadError("expected queue lengths need admissible loads")
    A = polytope.matrix
    return (A / (1.0 - loads.pool_loads)[:, None]).sum(axis=0) * loads.queue_loads


def expected_route_delay(route, spec: NetworkSpec, polytope: CapacityPolytope) -> float:
    """Mean stationary end-to-end delay of a route.

    ``route`` is a Route, a route id present in the spec, or a per-queue
    visit-count vector (which also covers hypothetical multi-visit routes).
    """
    loads = compute_loads(spec, polytope)
    if not loads.admissible:
        raise InadmissibleLoadError("expected delay needs admissible loads")
    visits = np.zeros(spec.n_queues)
    if isinstance(route, str):
        idx = _route_index(spec)
        if route not in idx:
            raise ValueError(f"unknown route id {route!r}")
        for j in spec.routes[idx[route]].path:
            visits[j] += 1.0
    elif hasattr(route, "path"):
        for j in route.path:
            visits[j] += 1.0
    else:
        v = np.asarray(route, dtype=float)
        if v.shape != (spec.n_queues,):
            raise ValueError("visit-count vector has wrong length")
        if np.any(v < 0):
            raise ValueError("visit counts must be nonnegative")
        visits = v
    m_bar = 1.0 / (1.0 - loads.pool_loads)
    return float(m_bar @ polytope.matrix @ visits)
