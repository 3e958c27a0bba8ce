"""Shared simulation plumbing: run configuration, the metrics bundle every
simulator emits, and joint-occupancy histograms for dependence tests.

Standard errors come from nonoverlapping batch means over the post-warmup
window.  Joint histograms are truncated at queue length 50 with overflow
lumped into the top bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import as_indices, as_integers, as_pairs

JOINT_CAP = 50


@dataclass(frozen=True)
class SimConfig:
    """Run parameters shared by the event-driven and slotted simulators.

    ``horizon`` is continuous time for the event simulator and a slot
    count for the slotted ones.  ``pairs`` asks for time-weighted joint
    occupancy histograms of those queue pairs.  ``checkpoints`` > 0
    snapshots (time, queue vector, per-route counts) at evenly spaced
    post-warmup instants.
    """

    horizon: float
    warmup_fraction: float = 0.2
    seed: int | None = None
    batches: int = 20
    slot_arrivals: str = "poisson"
    pairs: tuple = ()
    checkpoints: int = 0

    def __post_init__(self):
        for key, name in (("batches", "batch count"), ("checkpoints", "checkpoint count")):
            object.__setattr__(self, key, as_integers(getattr(self, key), name).item())
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup fraction must lie in [0, 1)")
        if self.batches < 2:
            raise ValueError("need at least 2 batches for standard errors")
        if self.slot_arrivals not in ("poisson", "bernoulli"):
            raise ValueError("slot arrival model must be 'poisson' or 'bernoulli'")
        if self.checkpoints < 0:
            raise ValueError("checkpoint count must be nonnegative")
        pairs = as_pairs(self.pairs, "pairs")
        object.__setattr__(self, "pairs", tuple(map(tuple, pairs.tolist())))

    def slot_window(self) -> tuple[int, int]:
        """A slotted run's horizon and warm-up, both in whole slots.
        ValueError when the horizon is fractional, or when more checkpoints
        are asked for than there are post-warmup slots to snapshot."""
        horizon = as_integers(self.horizon, "slot horizon").item()
        warm = int(self.warmup_fraction * horizon)
        if self.checkpoints > horizon - warm:
            raise ValueError(f"{self.checkpoints} checkpoints asked of a run with "
                             f"{horizon - warm} post-warmup slots")
        return horizon, warm


def batch_se(batch_means) -> float:
    """Standard error from a vector of batch means (nan if fewer than 2)."""
    m = np.asarray(batch_means, dtype=float)
    m = m[~np.isnan(m)]
    if len(m) < 2:
        return float("nan")
    return float(np.std(m, ddof=1) / np.sqrt(len(m)))


@dataclass(frozen=True)
class TraceMetrics:
    """Post-warmup summary of one simulation replication.

    ``queue_means`` are time (or slot) averages with batch-means standard
    errors.  Sojourn statistics use only packets that arrived after warmup
    and fully traversed their route before the horizon.
    ``composition_counts[j, r]`` counts post-warmup service completions of
    route r at queue j.  ``route_content_means`` is the time-averaged
    number of route-r packets anywhere in the network (the quantity paired
    with sojourns by Little's law).  ``transient`` flags runs whose offered
    loads were outside the stability region.
    """

    kind: str
    horizon: float
    warmup: float
    seed: int | None
    queue_means: np.ndarray
    queue_ses: np.ndarray
    queue_batch_means: np.ndarray
    route_ids: tuple
    sojourn_means: np.ndarray
    sojourn_ses: np.ndarray
    sojourn_counts: np.ndarray
    composition_counts: np.ndarray
    route_content_means: np.ndarray
    route_content_ses: np.ndarray
    admitted: int
    departed: int
    in_system: int
    transient: bool = False
    joint_histograms: dict = field(default_factory=dict)
    checkpoints: tuple = ()

    @property
    def n_queues(self) -> int:
        return len(self.queue_means)

    def conservation_ok(self) -> bool:
        return self.admitted == self.departed + self.in_system

    def to_rows(self):
        """Flat (name, id, value, stderr, n) rows, one metric each."""
        rows = []
        nb = len(self.queue_batch_means)
        for j in range(self.n_queues):
            rows.append(
                ("queue_mean", str(j), float(self.queue_means[j]),
                 float(self.queue_ses[j]), nb)
            )
        for i, rid in enumerate(self.route_ids):
            rows.append(
                ("sojourn_mean", rid, float(self.sojourn_means[i]),
                 float(self.sojourn_ses[i]), int(self.sojourn_counts[i]))
            )
            rows.append(
                ("route_content_mean", rid, float(self.route_content_means[i]),
                 float(self.route_content_ses[i]), nb)
            )
        for j in range(self.composition_counts.shape[0]):
            for i, rid in enumerate(self.route_ids):
                c = int(self.composition_counts[j, i])
                if c:
                    rows.append(("composition_count", f"{j}:{rid}", float(c), 0.0, c))
        rows.append(("admitted", "", float(self.admitted), 0.0, self.admitted))
        rows.append(("departed", "", float(self.departed), 0.0, self.departed))
        rows.append(("in_system", "", float(self.in_system), 0.0, self.in_system))
        return rows

    def to_summary_dict(self):
        return {
            "kind": self.kind,
            "horizon": self.horizon,
            "warmup": self.warmup,
            "seed": self.seed,
            "transient": self.transient,
            "queue_means": [float(v) for v in self.queue_means],
            "queue_ses": [float(v) for v in self.queue_ses],
            "routes": {
                rid: {
                    "sojourn_mean": float(self.sojourn_means[i]),
                    "sojourn_se": float(self.sojourn_ses[i]),
                    "sojourn_n": int(self.sojourn_counts[i]),
                    "content_mean": float(self.route_content_means[i]),
                }
                for i, rid in enumerate(self.route_ids)
            },
            "admitted": self.admitted,
            "departed": self.departed,
            "in_system": self.in_system,
            "conservation_ok": self.conservation_ok(),
        }


@dataclass(frozen=True)
class JointOccupancy:
    """Joint occupancy counts for one queue pair, with the histogram the
    pair would have under independence (product of its own marginals)."""

    pair: tuple
    counts: np.ndarray
    total: float

    @property
    def joint(self) -> np.ndarray:
        return self.counts / self.total

    @property
    def marginals(self):
        return self.counts.sum(axis=1) / self.total, self.counts.sum(axis=0) / self.total

    @property
    def product_of_marginals(self) -> np.ndarray:
        ma, mb = self.marginals
        return np.outer(ma, mb)

    def correlation(self) -> float:
        """Pearson correlation of the two truncated occupancies."""
        ma, mb = self.marginals
        va = np.arange(len(ma))
        vb = np.arange(len(mb))
        ea, eb = va @ ma, vb @ mb
        sa = np.sqrt((va - ea) ** 2 @ ma)
        sb = np.sqrt((vb - eb) ** 2 @ mb)
        if sa == 0.0 or sb == 0.0:
            return 0.0
        cov = float(np.outer(va - ea, vb - eb).ravel() @ self.joint.ravel())
        return cov / (sa * sb)


def collect_joint(source, pair, cap: int = JOINT_CAP) -> JointOccupancy:
    """Joint occupancy histogram of one queue pair.

    ``source`` is either an (n, n_queues) array of sampled queue vectors
    or a TraceMetrics whose config requested this pair.  Values above
    ``cap`` are lumped into the top bin.
    """
    a, b = pair = tuple(as_pairs([pair], "pair")[0].tolist())
    if isinstance(source, TraceMetrics):
        if pair not in source.joint_histograms:
            raise KeyError(f"pair {pair} was not recorded; pass it in SimConfig.pairs")
        counts = source.joint_histograms[pair]
        return JointOccupancy(pair=pair, counts=counts.astype(float), total=float(counts.sum()))
    samples = np.asarray(source)
    if samples.ndim != 2 or len(samples) == 0:
        raise ValueError("need a nonempty (n, n_queues) sample array")
    as_indices(pair, samples.shape[1], "pair")
    xa = np.minimum(samples[:, a], cap)
    xb = np.minimum(samples[:, b], cap)
    counts = np.zeros((cap + 1, cap + 1))
    np.add.at(counts, (xa, xb), 1.0)
    return JointOccupancy(pair=pair, counts=counts, total=float(len(samples)))
