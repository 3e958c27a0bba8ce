"""Experiment configuration documents.

A run is described by a single JSON document.  The network block uses
the same field names as the model layer (queues, routes with id/path/
rate, capacity as a pool matrix, interference edges, or an explicit
schedule list), or names a bundled example.  Numbers are plain JSON
decimals, so parsing never depends on locale.

Validation errors carry the dotted path of the offending field so a
bad config fails with an actionable message instead of a traceback.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import SimConfig
from .model import (
    CapacityPolytope,
    CapExceededError,
    InterferenceGraph,
    NetworkSpec,
    Route,
    as_pairs,
    cliques_to_polytope,
    is_perfect,
)
from .presets import example_names, load_example

KINDS = ("analyze", "simulate", "compare", "independence", "ldp", "balance")
ENGINES = ("store-forward", "prop-sched", "backpressure")

_U64 = 2**64


class ConfigError(ValueError):
    """Invalid experiment document; message starts with the field path."""

    def __init__(self, path: str, problem: str):
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: network, kind, and run settings.

    ``sim`` holds the simulation settings with the seed unset; ``pairs``
    are the independence experiment's queue pairs.
    """

    kind: str
    spec: NetworkSpec
    polytope: CapacityPolytope
    network_name: str | None
    seeds: tuple[int, ...]
    out_dir: str | None
    sim: SimConfig
    engine: str = "store-forward"
    initial: tuple[int, ...] | None = None
    pairs: tuple[tuple[int, int], ...] = ()
    samples: int = 100_000
    queue_vector: tuple[int, ...] | None = None
    scales: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    checks: int = 1000
    document: dict = field(default_factory=dict, compare=False)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc: dict) -> str:
    """Experiment identity: the document minus seeds and output paths.

    Seeds are recorded next to the hash in provenance blocks, so two runs
    of one experiment at different seeds or destinations share a hash.
    """
    core = {k: v for k, v in doc.items() if k not in ("seeds", "out")}
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


def _of_type(val, types) -> bool:
    """isinstance, except that a JSON true or false is never an int."""
    return isinstance(val, types) and not isinstance(val, bool)


def _expect(doc, key, types, path, required=True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "required field is missing")
        return default
    val = doc[key]
    if types is not None and not _of_type(val, types):
        want = "/".join(t.__name__ for t in types) if isinstance(types, tuple) else types.__name__
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {want}")
    return val

def _number(doc, key, path, required=True, default=None, positive=False):
    val = _expect(doc, key, (int, float), path, required, default)
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key}" if path else key, "must be a finite number")
    if positive and val <= 0:
        raise ConfigError(f"{path}.{key}" if path else key, "must be positive")
    return val


def _parse_routes(raw, path):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a nonempty list of routes")
    routes = []
    for i, r in enumerate(raw):
        rp = f"{path}[{i}]"
        if not isinstance(r, dict):
            raise ConfigError(rp, "expected an object with id/path/rate")
        rid = _expect(r, "id", str, rp, required=False, default=f"r{i}")
        hops = _expect(r, "path", list, rp)
        if not hops or not all(_of_type(h, int) for h in hops):
            raise ConfigError(f"{rp}.path", "expected a nonempty list of queue indices")
        rate = _number(r, "rate", rp, positive=True)
        routes.append(Route(id=rid, path=tuple(hops), rate=float(rate)))
    return routes


def _rows(raw, key, types, width, path, want):
    """raw[key] if it is a list of lists of ``width`` entries of the JSON
    ``types``; anything else is refused, never converted."""
    val = raw[key]
    if not (isinstance(val, list) and all(
            isinstance(row, list) and len(row) == width and all(_of_type(x, types) for x in row)
            for row in val)):
        raise ConfigError(f"{path}.{key}", want)
    return val


def _parse_capacity(raw, n, path):
    """Returns (capacity, polytope, graph): the NetworkSpec capacity, the
    pool matrix (None for a schedule list) and the interference graph."""
    keys = [k for k in ("matrix", "edges", "schedules") if k in raw]
    if len(keys) != 1:
        raise ConfigError(path, "give exactly one of matrix, edges, schedules")
    key = keys[0]
    if key == "matrix":
        poly = CapacityPolytope(np.array(
            _rows(raw, key, (int, float), n, path, f"expected rows of {n} numbers"), dtype=float))
        return poly, poly, None
    if key == "edges":
        pairs = _rows(raw, key, int, 2, path, "expected a list of [i, j] pairs of queue indices")
        try:
            g = InterferenceGraph.from_edges(n, pairs)
        except ValueError as exc:
            raise ConfigError(f"{path}.edges", str(exc)) from None
        return g, cliques_to_polytope(g), g
    return np.array(_rows(raw, key, int, n, path, f"expected rows of {n} integers")), None, None


def _parse_labels(raw, n, path):
    """Queue labels: absent for the defaults, else n distinct nonempty strings."""
    if "queue_labels" not in raw:
        return ()
    labels = raw["queue_labels"]
    if (not isinstance(labels, list) or len(labels) != n
            or not all(isinstance(x, str) and x for x in labels) or len(set(labels)) != n):
        raise ConfigError(f"{path}.queue_labels", f"expected a list of {n} distinct nonempty strings")
    return tuple(labels)


def _parse_network(raw, path="network"):
    """Returns (spec, polytope, graph, name)."""
    if isinstance(raw, str):
        try:
            ex = load_example(raw)
        except KeyError:
            known = ", ".join(example_names())
            raise ConfigError(path, f"unknown example {raw!r}; known: {known}") from None
        return ex.spec, ex.polytope, ex.graph, ex.name
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an example name or a network object")
    n = _expect(raw, "queues", int, path)
    if n <= 0:
        raise ConfigError(f"{path}.queues", "must be a positive integer")
    routes = _parse_routes(_expect(raw, "routes", list, path), f"{path}.routes")
    capacity, poly, graph = _parse_capacity(_expect(raw, "capacity", dict, path), n, f"{path}.capacity")
    labels = _parse_labels(raw, n, path)
    try:
        spec = NetworkSpec(n_queues=n, routes=routes, capacity=capacity, queue_labels=labels)
    except Exception as exc:
        raise ConfigError(path, str(exc)) from None
    return spec, poly, graph, None


def _parse_pairs(raw, n, path):
    pairs = []
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list of [queue, queue] pairs")
    for i, p in enumerate(raw):
        if (not isinstance(p, (list, tuple)) or len(p) != 2
                or not all(_of_type(x, int) for x in p)):
            raise ConfigError(f"{path}[{i}]", "expected a [queue, queue] pair")
        try:
            pairs.append(tuple(as_pairs([p], "queue pair", n)[0].tolist()))
        except ValueError as exc:
            raise ConfigError(f"{path}[{i}]", str(exc)) from None
    return tuple(pairs)


def _queue_vector(raw, n, path):
    """raw as a tuple of n nonnegative integers; ConfigError at ``path`` otherwise."""
    if (not isinstance(raw, list) or len(raw) != n
            or not all(_of_type(x, int) and x >= 0 for x in raw)):
        raise ConfigError(path, f"expected {n} nonnegative integers")
    return tuple(raw)


def _parse_seeds(doc):
    raw = doc.get("seeds", [0])
    if _of_type(raw, int):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("seeds", "expected a nonempty list of integers")
    seeds = []
    for i, s in enumerate(raw):
        if not _of_type(s, int) or not 0 <= s < _U64:
            raise ConfigError(f"seeds[{i}]", "seeds are unsigned 64-bit integers")
        seeds.append(s)
    return tuple(seeds)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config document must be a JSON object")
    kind = _expect(doc, "kind", str, "")
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    spec, poly, graph, name = _parse_network(_expect(doc, "network", None, ""))
    seeds = _parse_seeds(doc)
    out_dir = _expect(doc, "out", str, "", required=False)

    sim = doc.get("sim", {})
    if not isinstance(sim, dict):
        raise ConfigError("sim", "expected an object")
    engine = _expect(sim, "engine", str, "sim", required=False, default=ExperimentConfig.engine)
    if engine not in ENGINES:
        raise ConfigError("sim.engine", f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}")
    horizon = _number(sim, "horizon", "sim", required=False, default=10_000.0, positive=True)
    settings = {
        "horizon": float(horizon),
        "pairs": _parse_pairs(sim.get("pairs", []), spec.n_queues, "sim.pairs"),
    }
    if "warmup_fraction" in sim:
        settings["warmup_fraction"] = float(_number(sim, "warmup_fraction", "sim"))
    for key, types in (("batches", int), ("slot_arrivals", str), ("checkpoints", int)):
        if key in sim:
            settings[key] = _expect(sim, key, types, "sim")
    try:
        run = SimConfig(**settings)
    except ValueError as exc:
        raise ConfigError("sim", str(exc)) from None
    initial = sim.get("initial")
    if initial is not None:
        initial = _queue_vector(initial, spec.n_queues, "sim.initial")

    ind = doc.get("independence", {})
    if not isinstance(ind, dict):
        raise ConfigError("independence", "expected an object")
    samples = _expect(ind, "samples", int, "independence", required=False,
                      default=ExperimentConfig.samples)
    pairs = ()
    if kind == "independence":
        if "pairs" not in ind:
            raise ConfigError("independence.pairs", "required field is missing")
        pairs = _parse_pairs(ind["pairs"], spec.n_queues, "independence.pairs")
        if not pairs:
            raise ConfigError("independence.pairs", "need at least one queue pair")
        if samples <= 0:
            raise ConfigError("independence.samples", "must be positive")

    queue_vector = None
    scales = ExperimentConfig.scales
    if kind == "ldp":
        ldp = doc.get("ldp")
        if not isinstance(ldp, dict) or "queue_vector" not in ldp:
            raise ConfigError("ldp.queue_vector", "required field is missing")
        queue_vector = _queue_vector(ldp["queue_vector"], spec.n_queues, "ldp.queue_vector")
        if "scales" in ldp:
            sc = ldp["scales"]
            if (not isinstance(sc, list) or not sc
                    or not all(_of_type(x, int) and x >= 1 for x in sc)):
                raise ConfigError("ldp.scales", "expected a nonempty list of integers >= 1")
            scales = tuple(sc)

    checks = ExperimentConfig.checks
    if kind == "balance":
        bal = doc.get("balance", {})
        if not isinstance(bal, dict):
            raise ConfigError("balance", "expected an object")
        checks = _expect(bal, "checks", int, "balance", required=False, default=checks)
        if checks <= 0:
            raise ConfigError("balance.checks", "must be positive")

    if kind in ("simulate", "compare") and engine in ("prop-sched", "backpressure"):
        try:
            spec.schedule_list()
        except Exception as exc:
            raise ConfigError("sim.engine", f"{engine} needs enumerable schedules: {exc}") from None
        if horizon != int(horizon):
            raise ConfigError("sim.horizon", f"{engine} counts whole slots, got {horizon}")
        try:
            run.slot_window()
        except ValueError as exc:
            raise ConfigError("sim.checkpoints", str(exc)) from None
        if engine == "prop-sched" and graph is not None:
            try:
                perfect = is_perfect(graph)
            except CapExceededError:
                perfect = True  # not bipartite, and above the test's size cap: accepted untested
            if not perfect:
                raise ConfigError(
                    "sim.engine",
                    "prop-sched needs a perfect interference graph: on this one the "
                    "fair rates can lie outside the hull of the schedules",
                )
    if poly is None and not (kind == "simulate" and engine == "backpressure"):
        raise ConfigError(
            "network.capacity",
            "a schedule-only capacity works only for backpressure simulation; "
            "give a pool matrix or interference edges",
        )

    return ExperimentConfig(
        kind=kind, spec=spec, polytope=poly, network_name=name,
        seeds=seeds, out_dir=out_dir, sim=run, engine=engine, initial=initial,
        pairs=pairs, samples=samples, queue_vector=queue_vector, scales=scales,
        checks=checks, document=doc,
    )


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def set_field(doc: dict, key: str, value) -> None:
    """doc[a][b]... = value for the dotted key a.b...; only objects may lie on the way."""
    parts = key.split(".")
    if not all(parts):
        raise ConfigError("override", f"bad key {key!r}")
    node = doc
    for i, part in enumerate(parts[:-1]):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(parts[: i + 1]), f"expected an object, cannot set {key}")
    node[parts[-1]] = value


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply key=value pairs with dotted paths, e.g. sim.horizon=5000."""
    out = json.loads(json.dumps(doc))
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError("override", f"{item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        set_field(out, key.strip(), _parse_override_value(text.strip()))
    return out


def load_document(path: str, overrides=None) -> dict:
    """Read a JSON experiment document and apply dotted-path overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    return apply_overrides(doc, overrides) if overrides else doc


def load_config(path: str, overrides=None) -> ExperimentConfig:
    return parse_config(load_document(path, overrides))
