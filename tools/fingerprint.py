"""Bit-identity fingerprint of switchnet's outputs.

Prints one JSON object that maps each named output to the SHA-256 of its
contents.  A change that should leave every number alone is checked by
running this script in the old checkout and in the new one and diffing
the two outputs:

    python3 tools/fingerprint.py > old.json      # in the old checkout
    python3 tools/fingerprint.py > new.json      # in the new checkout
    diff old.json new.json

The package is imported from ``src/`` beside this directory.  BLAS is
pinned to one thread and the CLI runs its replications in-process, since
a thread count can move the last bits of a matrix product.  An output
that raises is fingerprinted by its exception type and message.  Dataclass
fields declared ``compare=False`` are not outputs (``ScheduleDistribution``
keeps its cumulative weights in one) and are left out, so a cache's
representation does not move a digest.  A run
takes about ten seconds on two cores.

Covered: store-forward traces on every catalogue network (initial fill, a
queue pair, checkpoints); prop-sched and backpressure traces, Poisson and
Bernoulli, on every graph preset and one schedule-only network, and runs
longer than one collector chunk on ``k22`` and on ``merge``'s three routes
over an interference graph, where one queue carries several routes, and
``grid3x3`` backpressure one slot past a whole arrival block; 200
exact stationary states per network; fair solves and their lotteries on
fixed states, plus weighted random polytopes and two weighted polytopes
whose pools share no queue; tilted and untilted log Phi
with neighbours, the ``k22`` scaling sweep at c = 8 to 512, and a pool
matrix in each of its six row orders at a vector where the listed order
passes the step cap; the mean delay of each route's visit-count vector and of
one multi-visit vector per network; and ``metrics.csv`` and
``summary.json`` of every CLI kind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SWITCHNET_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from switchnet import cli  # noqa: E402
from switchnet.metrics import SimConfig  # noqa: E402
from switchnet.model import CapacityPolytope, InterferenceGraph, NetworkSpec, Route  # noqa: E402
from switchnet.normconst import NormConstCache, log_norm_const, log_norm_const_neighbours  # noqa: E402
from switchnet.presets import list_examples, load_example  # noqa: E402
from switchnet.propfair import decompose_mean, solve_prop_fair  # noqa: E402
from switchnet.sim import (  # noqa: E402
    simulate_backpressure,
    simulate_prop_sched,
    simulate_store_forward,
)
from switchnet.storeforward import StationarySampler, expected_route_delay  # noqa: E402

# store-forward events per trace (uniformized clock), slots per slotted trace
SF_EVENTS = {"grid3x3": 2000}
SF_EVENTS_DEFAULT = 20_000
SLOTS = 1000
# past sim._CHUNK (4096) logged slots at the default warmup
LONG_SLOTS = 6000
# one slot past sim._SLOT_BLOCK (4096): the last arrival block holds one slot
BLOCK_SLOTS = 4097
STATES = 200
SOLVE_STATES = 30
RANDOM_POLYTOPES = 40


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"nd {obj.dtype.str} {obj.shape}|".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, bytes):
        h.update(f"bytes {len(obj)}|".encode())
        h.update(obj)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare})
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"({len(obj)}".encode())
        for v in obj:
            _feed(h, v)
        h.update(b")")
    else:
        h.update(f"{type(obj).__name__} {obj!r}|".encode())


def _digest(fn):
    """SHA-256 of fn()'s result, or of the exception it raised."""
    h = hashlib.sha256()
    try:
        _feed(h, fn())
    except Exception as exc:  # a refusal is an output too
        _feed(h, ("error", type(exc).__name__, str(exc)))
    return h.hexdigest()


def _horizon(spec, polytope, events):
    A = polytope.matrix
    lam = float(spec.rates().sum()) + sum(1.0 / A[A[:, j] > 0, j].max() for j in range(spec.n_queues))
    return events / lam


def _fill(spec):
    return tuple(np.where(spec.queue_loads > 0, 2, 0).tolist())


def _traces(out, examples):
    for ex in examples:
        spec, poly = ex.spec, ex.polytope
        pair = ((0, 1),)
        cfg = SimConfig(horizon=_horizon(spec, poly, SF_EVENTS.get(ex.name, SF_EVENTS_DEFAULT)),
                        seed=11, pairs=pair, checkpoints=5)
        out[f"sf/{ex.name}"] = _digest(
            lambda: simulate_store_forward(spec, poly, cfg, initial=_fill(spec)))
        if ex.graph is None:
            continue
        for mode in ("poisson", "bernoulli"):
            cfg = SimConfig(horizon=SLOTS, seed=12, pairs=pair, checkpoints=4, slot_arrivals=mode)
            sched = ex.schedules()
            out[f"prop-sched/{mode}/{ex.name}"] = _digest(
                lambda: simulate_prop_sched(spec, sched, cfg, polytope=poly, initial=_fill(spec)))
            out[f"backpressure/{mode}/{ex.name}"] = _digest(
                lambda: simulate_backpressure(spec, sched, cfg, initial=_fill(spec)))
    only = NetworkSpec(3, [Route("a", (0, 1), 0.3), Route("b", (2,), 0.4)],
                       [[0, 0, 0], [1, 0, 1], [0, 1, 0], [0, 0, 1]])
    for mode in ("poisson", "bernoulli"):
        cfg = SimConfig(horizon=SLOTS, seed=13, pairs=((0, 2),), checkpoints=4, slot_arrivals=mode)
        out[f"backpressure/{mode}/schedule-only"] = _digest(
            lambda: simulate_backpressure(only, only.capacity, cfg, initial=(1, 2, 1)))


def _long_slotted(out):
    # merge's queue 2 carries all three routes; here it conflicts with both feeders
    merge_graph = NetworkSpec(3, load_example("merge").spec.routes,
                              InterferenceGraph.from_edges(3, [(0, 2), (1, 2)]))
    for name, spec in (("k22", load_example("k22").spec), ("merge-graph", merge_graph)):
        sched = spec.schedule_list()
        for mode in ("poisson", "bernoulli"):
            cfg = SimConfig(horizon=LONG_SLOTS, seed=14, pairs=((0, 2),), checkpoints=3,
                            slot_arrivals=mode)
            out[f"long/prop-sched/{mode}/{name}"] = _digest(
                lambda: simulate_prop_sched(spec, sched, cfg, initial=_fill(spec)))
            out[f"long/backpressure/{mode}/{name}"] = _digest(
                lambda: simulate_backpressure(spec, sched, cfg, initial=_fill(spec)))
    grid = load_example("grid3x3")
    for mode in ("poisson", "bernoulli"):
        cfg = SimConfig(horizon=BLOCK_SLOTS, seed=15, pairs=((0, 4),), checkpoints=3,
                        slot_arrivals=mode)
        out[f"block/backpressure/{mode}/grid3x3"] = _digest(
            lambda: simulate_backpressure(grid.spec, grid.schedules(), cfg, initial=_fill(grid.spec)))


def _stationary(out, examples):
    for ex in examples:
        spec, poly = ex.spec, ex.polytope

        def states():
            sampler = StationarySampler(spec, poly, seed=5)
            return [sampler.sample_state() for _ in range(STATES)]

        out[f"sampler/{ex.name}"] = _digest(states)
        qs = [q for q, _ in states() if q.any()][:SOLVE_STATES]

        def solves():
            sols = [solve_prop_fair(q, poly) for q in qs]
            lots = []
            if ex.graph is not None:
                for sol in sols:
                    lots.append(_digest(lambda: decompose_mean(sol.rates, ex.schedules())))
            return sols, lots

        out[f"propfair/{ex.name}"] = _digest(solves)

        def phi():
            cache = NormConstCache(poly)
            plain = [log_norm_const_neighbours(q, poly, cache) for q in qs]
            # scaled past the tilt threshold (total occupancy 120)
            big = [q * (121 // int(q.sum()) + 1) for q in qs[:10]]
            return plain, [log_norm_const_neighbours(q, poly) for q in big], [
                log_norm_const(q, poly) for q in big]

        out[f"phi/{ex.name}"] = _digest(phi)


def _pool_orders(out):
    k22 = load_example("k22").polytope
    for c in (8, 32, 128, 256, 512):
        q = np.array([1, 2, 2, 1]) * c
        out[f"order/k22/{c}"] = _digest(
            lambda: (log_norm_const(q, k22), log_norm_const_neighbours(q, k22)))
    # once refused by the cap in 4 of the 6 orders
    A = np.array([[1, 0, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0.5]])
    for perm in itertools.permutations(range(3)):
        poly = CapacityPolytope(A[list(perm)])
        out["order/rows-{}{}{}".format(*perm)] = _digest(
            lambda: log_norm_const_neighbours([125, 1, 3, 3], poly))


def _weighted(out):
    rng = np.random.default_rng(2024)
    for i in range(RANDOM_POLYTOPES):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        A = rng.random((m, n)) * (rng.random((m, n)) < 0.7)
        A[rng.integers(m), A.sum(axis=0) == 0] = 1.0
        poly = CapacityPolytope(A)
        q_int = rng.integers(0, 120, n)
        q_int[rng.integers(n)] += 1
        q_real = rng.random(n) * 600
        out[f"propfair/weighted/{i:02d}"] = _digest(
            lambda: [solve_prop_fair(q, poly) for q in (q_int, q_real)])
    # pools that share no queue, with empty queues and an empty pool among the states
    disjoint = (np.array([[0.4, 0.0, 2.5, 0.0, 0.0], [0.0, 1.3, 0.0, 0.7, 0.2]]),
                np.array([[3.0, 0.0, 0.0], [0.0, 0.25, 0.9]]))
    for i, A in enumerate(disjoint):
        poly = CapacityPolytope(A)
        n = A.shape[1]
        qs = (np.arange(1, n + 1), np.arange(n) % 3 * 40, np.arange(n) % 2, np.linspace(0.5, 600, n))
        out[f"propfair/weighted-disjoint/{i}"] = _digest(lambda: [solve_prop_fair(q, poly) for q in qs])


def _delays(out, examples):
    for ex in examples:
        spec, poly = ex.spec, ex.polytope
        J = spec.n_queues
        visits = [np.bincount(r.path, minlength=J).astype(float) for r in spec.routes]
        visits.append(np.array([1.0 + j % 3 for j in range(J)]))  # visits some queues twice
        out[f"delay/{ex.name}"] = _digest(lambda: [expected_route_delay(v, spec, poly) for v in visits])


def _cli(out, examples):
    docs = []
    for ex in examples:
        J = ex.spec.n_queues
        base = {"network": ex.name, "seeds": [3, 4],
                "sim": {"horizon": 1000.0, "pairs": [[0, 1]], "initial": list(_fill(ex.spec))}}
        docs += [(f"{kind}/{ex.name}", {**base, "kind": kind})
                 for kind in ("analyze", "simulate", "compare")]
        docs.append((f"balance/{ex.name}", {**base, "kind": "balance", "balance": {"checks": 40}}))
        docs.append((f"independence/{ex.name}", {
            **base, "kind": "independence", "independence": {"pairs": [[0, 1]], "samples": 6000}}))
        qv = [1 + j % 3 for j in range(J)]
        # the last scale takes the total past the tilt threshold (120)
        docs.append((f"ldp/{ex.name}", {**base, "kind": "ldp", "ldp": {
            "queue_vector": qv, "scales": [1, 2, 4, max(8, 240 // sum(qv))]}}))
        if ex.graph is not None:
            for engine in ("prop-sched", "backpressure"):
                docs.append((f"simulate-{engine}/{ex.name}", {
                    **base, "kind": "simulate", "sim": {**base["sim"], "engine": engine}}))
    docs.append(("simulate-backpressure/schedule-only", {
        "kind": "simulate", "seeds": [5],
        "network": {"queues": 3, "routes": [{"id": "a", "path": [0, 1], "rate": 0.3},
                                            {"id": "b", "path": [2], "rate": 0.4}],
                    "capacity": {"schedules": [[0, 0, 0], [1, 0, 1], [0, 1, 0]]}},
        "sim": {"engine": "backpressure", "horizon": 300.0}}))
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs:
            cfg_path = os.path.join(tmp, "exp.json")
            run_dir = os.path.join(tmp, name.replace("/", "_"))
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out[f"cli/{name}"] = _run_cli([doc["kind"], "--config", cfg_path, "--out", run_dir],
                                         run_dir)
        run_dir = os.path.join(tmp, "examples")
        out["cli/examples"] = _run_cli(["examples", "--out", run_dir], run_dir)


def _run_cli(argv, run_dir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = {}
    for fname in ("metrics.csv", "summary.json"):
        path = os.path.join(run_dir, fname)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[fname] = fh.read()
    h = hashlib.sha256()
    _feed(h, (code, err.getvalue() if code else "", files))
    return h.hexdigest()


def main():
    examples = list_examples()
    out = {}
    _traces(out, examples)
    _long_slotted(out)
    _stationary(out, examples)
    _pool_orders(out)
    _weighted(out)
    _delays(out, examples)
    _cli(out, examples)
    json.dump(out, sys.stdout, indent=0, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
