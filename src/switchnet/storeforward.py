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

from .model import (CapacityPolytope, LoadProfile, NetworkSpec, as_finite, as_indices,
                    as_integers, compute_loads)
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


def _admissible_loads(spec: NetworkSpec, polytope: CapacityPolytope) -> LoadProfile:
    """The network's loads; InadmissibleLoadError unless every pool load is
    strictly below 1, where the stationary law exists."""
    loads = compute_loads(spec, polytope)
    if not loads.admissible:
        raise InadmissibleLoadError(f"pool loads {loads.pool_loads} not strictly below 1")
    return loads


def _validate_fifo(Q, fifo, spec: NetworkSpec):
    q = as_integers(Q, "queue vector")
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
            if spec.next_hop[j, r] == -2:
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
    _admissible_loads(spec, polytope)
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


def _stationary_mix(spec: NetworkSpec) -> np.ndarray:
    """(queues, routes) array of a_r / a_j, zero where route r misses queue
    j: the stationary probability that a packet at j carries route r."""
    on_route = spec.next_hop[:-1] != -2
    mix = np.zeros(on_route.shape)
    np.divide(spec.rates(), spec.queue_loads[:, None], out=mix, where=on_route)
    return mix


def route_label_law(spec: NetworkSpec):
    """Per queue: the ids of the routes through it and the stationary
    probability a_r / a_j of each as the label of a packet there."""
    mix = _stationary_mix(spec)
    return [(ids, mix[j, ids])
            for j, ids in enumerate(map(np.flatnonzero, spec.next_hop[:-1] != -2))]


def draw_route_labels(law, Q, rng):
    """FIFO route labels for queue vector Q, i.i.d. per packet from the
    ``route_label_law``: the stationary composition of every queue."""
    return tuple(
        tuple(ids[rng.choice(len(ids), size=int(q), p=probs)].tolist()) if q > 0 else ()
        for (ids, probs), q in zip(law, Q)
    )


class StationarySampler:
    """Draws exact stationary states: independent geometric pool occupancies,
    multinomial splits over member queues, i.i.d. route labels per queue."""

    def __init__(self, spec: NetworkSpec, polytope: CapacityPolytope, seed=None):
        loads = _admissible_loads(spec, polytope)
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
        self._labels = route_label_law(spec)

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
        return q, draw_route_labels(self._labels, q, self.rng)


def sample_stationary_state(spec, polytope, seed=None):
    """Convenience wrapper: one exact draw from the stationary law."""
    return StationarySampler(spec, polytope, seed=seed).sample_state()


# -------------------- closed-form moments --------------------


def expected_queue_lengths(spec: NetworkSpec, polytope: CapacityPolytope) -> np.ndarray:
    """E[Q_j] = sum over pools holding j of A_lj a_j / (1 - a_l)."""
    loads = _admissible_loads(spec, polytope)
    A = polytope.matrix
    return (A / (1.0 - loads.pool_loads)[:, None]).sum(axis=0) * loads.queue_loads


def expected_route_delay(route, spec: NetworkSpec, polytope: CapacityPolytope) -> float:
    """Mean stationary end-to-end delay of a route.

    ``route`` is a Route, a route id present in the spec, or a per-queue
    visit-count vector (which also covers hypothetical multi-visit routes).
    """
    loads = _admissible_loads(spec, polytope)
    if isinstance(route, str):
        ids = [r.id for r in spec.routes]
        if route not in ids:
            raise ValueError(f"unknown route id {route!r}")
        route = spec.routes[ids.index(route)]
    if hasattr(route, "path"):
        visits = np.zeros(spec.n_queues)
        visits[as_indices(route.path, spec.n_queues, f"route {route.id!r} path")] = 1.0
    else:
        visits = as_finite(route, "visit counts")
        if visits.shape != (spec.n_queues,):
            raise ValueError("visit-count vector has wrong length")
        if np.any(visits < 0):
            raise ValueError("visit counts must be nonnegative")
    m_bar = 1.0 / (1.0 - loads.pool_loads)
    return float(m_bar @ polytope.matrix @ visits)
