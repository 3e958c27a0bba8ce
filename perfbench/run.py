"""switchnet benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sf-grid --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run builds its inputs from ``--seed`` (the set-up), then runs
whole rounds of the workload until the next round would end after
``--seconds``.  Timed figures pool the rounds: the seconds of one kind of
operation summed over every round, per round.  Every output is checked, and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
rounds alternate untraced and traced, and the metrics are the per-layer ones
averaged over the traced rounds, plus the tracing overhead; the spans are
written under ``.perfbench_out/``.  Diagnostics go to standard error.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one process on a small machine: no BLAS or OpenMP thread pools, and the CLI
# runs its replications in-process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SWITCHNET_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

SETUP_REPEATS = 5  # this process plus four fresh ones


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print the set-up time and exit")
    return p.parse_args(argv)


def build(name: str, seed: int):
    import switchnet

    if not os.path.abspath(switchnet.__file__).startswith(SRC + os.sep):
        raise ImportError(f"switchnet imported from {switchnet.__file__}, not from {SRC}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    out_dir = os.path.join(OUT, f"{name}-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    return workloads, workloads.WORKLOADS[name](seed, out_dir)


def setup_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_rounds(workloads, wl, seconds: float, tracer=None):
    """Whole rounds until the next one would end after ``seconds``.

    With a tracer, rounds alternate untraced and traced, starting untraced;
    the tracing overhead compares the two kinds, leaving out the first round
    when a later untraced one exists, since the first pays one-time costs."""
    plain, traced = [], []
    caches = None
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this and caches is None:
            import layers

            caches = layers.install(tracer)
        elif trace_this:
            tracer.resume()
        rnd = workloads.Round()
        wl.run_round(rnd)
        if trace_this:
            tracer.pause()
        (traced if trace_this else plain).append(rnd)
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced)
        if elapsed * (done + 1) / done > seconds and (tracer is None or traced):
            break
    if tracer is not None:
        tracer.restore()
    return plain, traced, caches


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, wl = build(args.workload, args.seed)
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setups = [own_setup] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds, traced, caches = run_rounds(workloads, wl, args.seconds, tracer)
    every = rounds + traced
    failures = [f for r in every for f in r.checks.failures]
    for f in dict.fromkeys(failures):
        print(f"check failed: {f}", file=sys.stderr)

    if args.trace:
        import layers

        baseline = rounds[1:] or rounds
        overhead = (statistics.median(r.total for r in traced)
                    - statistics.median(r.total for r in baseline))
        metrics = layers.per_layer(tracer, caches, len(traced), overhead)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    else:
        def per_round(key):
            """Seconds of one kind per round, pooled over the rounds."""
            return sum(r.seconds[key] for r in every) / len(every)

        def rate(key):
            return every[0].work[key] / per_round(key)

        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(per_round(key) for key in wl.own), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "sf_events_per_s": (rate("sf"), "events/s"),
            "slots_per_s": (rate("slots"), "slots/s"),
            "draws_per_s": (rate("draws"), "draws/s"),
            "balance_checks_per_s": (rate("balance"), "checks/s"),
            "lotteries_per_s": (rate("lottery"), "states/s"),
            "scaling_sweep_s": (per_round("scaling"), "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(f"{args.workload} seed {args.seed}: {len(every)} rounds, "
          f"round time {[round(r.total, 3) for r in every]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
