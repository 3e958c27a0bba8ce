"""Command-line harness.

Subcommands: analyze, simulate, compare, independence, ldp, balance,
examples.  Every run is described by a JSON config (see config.py);
the subcommand picks the experiment kind, and --seed / --horizon /
--out / --override tweak the document without editing the file.

Results land in a ResultBundle: a CSV metrics table with a mandatory
header, plus a JSON summary carrying a provenance block (config hash,
seeds, tool version).  Nothing time-dependent is written, so rerunning
the same config and seed reproduces the CSV byte for byte.  Exit codes:
0 success, 2 config or network validation failure, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analysis import (
    CompositionProfile,
    independence_test,
    large_deviations_rate,
    log_norm_const_scaling,
    random_balance_checks,
    stationary_mix,
)
from .config import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    canonical_json,
    config_hash,
    load_document,
    parse_config,
)
from .model import NetworkValidationError, compute_loads
from .presets import list_examples
from .sim import simulate_backpressure, simulate_prop_sched, simulate_store_forward
from .storeforward import (
    InadmissibleLoadError,
    StationarySampler,
    expected_queue_lengths,
    expected_route_delay,
)


@dataclass(frozen=True)
class ResultBundle:
    """One experiment's outputs: rows for the CSV, dict for the JSON."""

    kind: str
    header: tuple
    rows: tuple
    summary: dict
    provenance: dict

    def csv_body(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "summary": self.summary,
            "provenance": self.provenance,
        }
        return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"

    def write(self, out_dir: str) -> tuple[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "metrics.csv")
        json_path = os.path.join(out_dir, "summary.json")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_body())
        with open(json_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_json())
        return csv_path, json_path


def _cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)!r}")


def _provenance(doc: dict, seeds) -> dict:
    return {
        "config_sha256": config_hash(doc),
        "seeds": list(seeds),
        "tool": "switchnet",
        "version": __version__,
    }


# -------------------- per-kind runners --------------------
# each returns the CSV header, the rows and the kind's own summary entries


def _run_analyze(cfg: ExperimentConfig) -> tuple:
    loads = compute_loads(cfg.spec, cfg.polytope)
    rows = []
    for j in range(cfg.spec.n_queues):
        rows.append(("queue-load", cfg.spec.queue_labels[j], float(loads.queue_loads[j])))
    for l in range(cfg.polytope.n_pools):
        rows.append(("pool-load", cfg.polytope.pool_labels[l], float(loads.pool_loads[l])))
    summary = {
        "admissible": loads.admissible,
        "max_pool_load": float(loads.pool_loads.max()),
    }
    if loads.admissible:
        eq = expected_queue_lengths(cfg.spec, cfg.polytope)
        for j in range(cfg.spec.n_queues):
            rows.append(("mean-queue", cfg.spec.queue_labels[j], float(eq[j])))
        delays = {}
        for r in cfg.spec.routes:
            d = expected_route_delay(r, cfg.spec, cfg.polytope)
            rows.append(("route-delay", r.id, float(d)))
            delays[r.id] = float(d)
        summary["mean_queues"] = [float(v) for v in eq]
        summary["route_delays"] = delays
    return ("section", "id", "value"), rows, summary


def _one_replication(doc_json: str, seed: int):
    """Worker for seed fan-out; rebuilt from the canonical document so
    parallel and sequential runs follow identical code paths."""
    cfg = parse_config(json.loads(doc_json))
    run = replace(cfg.sim, seed=seed)
    if cfg.engine == "store-forward":
        tr = simulate_store_forward(cfg.spec, cfg.polytope, run, initial=cfg.initial)
    else:
        slotted = simulate_prop_sched if cfg.engine == "prop-sched" else simulate_backpressure
        tr = slotted(cfg.spec, cfg.spec.schedule_list(), run, polytope=cfg.polytope,
                     initial=cfg.initial)
    return seed, tr.to_rows(), tr.to_summary_dict()


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("SWITCHNET_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError("SWITCHNET_THREADS", f"not an integer: {env!r}") from None
        if cap < 1:
            raise ConfigError("SWITCHNET_THREADS", "must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_jobs, cap))


def _fan_out(cfg: ExperimentConfig):
    doc_json = canonical_json(cfg.document)
    workers = _worker_count(len(cfg.seeds))
    if workers == 1 or len(cfg.seeds) == 1:
        results = [_one_replication(doc_json, s) for s in cfg.seeds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_replication, [doc_json] * len(cfg.seeds), cfg.seeds))
    results.sort(key=lambda t: t[0])
    return results


def _run_simulate(cfg: ExperimentConfig) -> tuple:
    results = _fan_out(cfg)
    rows = []
    per_seed = {}
    for seed, rep_rows, summary in results:
        for name, rid, value, stderr, n in rep_rows:
            rows.append((seed, name, rid, float(value), float(stderr), n))
        per_seed[str(seed)] = summary
    summary = {
        "engine": cfg.engine,
        "horizon": cfg.sim.horizon,
        "replications": per_seed,
    }
    qm = np.array([[s["queue_means"][j] for j in range(cfg.spec.n_queues)]
                   for s in per_seed.values()])
    summary["queue_means_pooled"] = [float(v) for v in qm.mean(axis=0)]
    return ("seed", "metric", "id", "value", "stderr", "n"), rows, summary


def _pooled(values, ses):
    """Mean of replication means with the combined standard error."""
    k = len(values)
    mean = float(np.mean(values))
    se = float(np.sqrt(np.nansum(np.square(ses))) / k)
    return mean, se


def _run_compare(cfg: ExperimentConfig) -> tuple:
    try:
        eq = expected_queue_lengths(cfg.spec, cfg.polytope)
    except InadmissibleLoadError as exc:
        # a config failure, found before any replication runs
        raise NetworkValidationError(f"stationary formulas need admissible loads: {exc}") from None
    results = _fan_out(cfg)
    reps = [summary for _, _, summary in results]
    rows = []
    worst = 0.0
    for j in range(cfg.spec.n_queues):
        sim, se = _pooled(
            [r["queue_means"][j] for r in reps], [r["queue_ses"][j] for r in reps]
        )
        z = float(abs(sim - eq[j]) / se) if se > 0 else math.inf
        worst = max(worst, z)
        rows.append(("mean-queue", cfg.spec.queue_labels[j], float(eq[j]), sim, se, z))
    for r in cfg.spec.routes:
        ana = expected_route_delay(r, cfg.spec, cfg.polytope)
        sim, se = _pooled(
            [rep["routes"][r.id]["sojourn_mean"] for rep in reps],
            [rep["routes"][r.id]["sojourn_se"] for rep in reps],
        )
        z = abs(sim - ana) / se if se > 0 else math.inf
        worst = max(worst, z)
        rows.append(("route-delay", r.id, float(ana), sim, se, z))
    summary = {
        "engine": cfg.engine,
        "horizon": cfg.sim.horizon,
        "replications": len(reps),
        "max_abs_z": worst,
        "note": "z compares simulated means to closed-form targets; "
        "the closed forms describe the store-forward chain",
    }
    return ("quantity", "id", "analytic", "simulated", "stderr", "abs_z"), rows, summary


def _run_independence(cfg: ExperimentConfig) -> tuple:
    blocks = []
    for seed in cfg.seeds:
        sampler = StationarySampler(cfg.spec, cfg.polytope, seed=seed)
        blocks.append(sampler.sample_queues(cfg.samples))
    samples = np.vstack(blocks)
    rows = []
    reports = {}
    for pair in cfg.pairs:
        rep = independence_test(samples, pair, cfg.polytope)
        rows.append(
            (pair[0], pair[1], rep.shares_pool, float(rep.correlation),
             float(rep.chi_square), rep.dof, float(rep.p_value), rep.verdict,
             int(rep.n_samples))
        )
        reports[f"{pair[0]}-{pair[1]}"] = {
            "shares_pool": rep.shares_pool,
            "correlation": float(rep.correlation),
            "p_value": float(rep.p_value),
            "verdict": rep.verdict,
        }
    summary = {
        "samples_per_seed": cfg.samples,
        "total_samples": int(samples.shape[0]),
        "pairs": reports,
    }
    header = ("queue_a", "queue_b", "shares_pool", "correlation", "chi_square",
              "dof", "p_value", "verdict", "n")
    return header, rows, summary


def _run_ldp(cfg: ExperimentConfig) -> tuple:
    Q = cfg.queue_vector
    diag = log_norm_const_scaling(Q, cfg.polytope, cfg.scales)
    mix = stationary_mix(cfg.spec, cfg.polytope)
    profile = CompositionProfile.single_stage(Q, mix, cfg.spec)
    rate = large_deviations_rate(Q, profile, cfg.spec, cfg.polytope)
    rows = [
        (int(c), float(v), float(diag.target), float(g))
        for c, v, g in zip(diag.scales, diag.values, diag.gaps)
    ]
    summary = {
        "queue_vector": list(cfg.queue_vector),
        "target": float(diag.target),
        "last_gap": float(diag.last_gap),
        "gaps_decreasing": bool(diag.decreasing),
        "rate_at_stationary_mix": float(rate),
    }
    return ("scale", "scaled_log_weight_sum", "target", "gap"), rows, summary


def _run_balance(cfg: ExperimentConfig) -> tuple:
    rows = []
    overall = 0.0
    by_seed = {}
    for seed in cfg.seeds:
        reports = random_balance_checks(cfg.spec, cfg.polytope, n=cfg.checks, seed=seed)
        flux = max(r.residual for r in reports)
        overall = max(overall, flux)
        rows.append((seed, len(reports), float(flux)))
        by_seed[str(seed)] = {"max_flux_residual": float(flux)}
    summary = {
        "checks_per_seed": cfg.checks,
        "max_residual": float(overall),
        "seeds": by_seed,
    }
    return ("seed", "checks", "max_flux_residual"), rows, summary


def _run_examples() -> ResultBundle:
    rows = []
    catalogue = {}
    for ex in list_examples():
        perfect = "-" if ex.perfect is None else ex.perfect
        rows.append(
            (ex.name, ex.spec.n_queues, ex.polytope.n_pools, perfect, ex.description)
        )
        catalogue[ex.name] = {
            "queues": ex.spec.n_queues,
            "pools": ex.polytope.n_pools,
            "perfect": ex.perfect,
            "description": ex.description,
        }
    return ResultBundle(
        kind="examples",
        header=("name", "queues", "pools", "perfect", "description"),
        rows=tuple(rows),
        summary={"examples": catalogue},
        provenance={"tool": "switchnet", "version": __version__},
    )


_RUNNERS = {
    "analyze": _run_analyze,
    "simulate": _run_simulate,
    "compare": _run_compare,
    "independence": _run_independence,
    "ldp": _run_ldp,
    "balance": _run_balance,
}


def run(config_path: str, kind: str | None = None, overrides=(), seed=None,
        horizon=None, out_dir=None) -> ResultBundle:
    """Load a config document, apply tweaks, and dispatch one experiment."""
    doc = load_document(config_path, overrides)
    if kind is not None:
        doc["kind"] = kind
    if seed is not None:
        doc["seeds"] = [seed]
    if horizon is not None:
        doc.setdefault("sim", {})["horizon"] = horizon
    if out_dir is not None:
        doc["out"] = out_dir
    cfg = parse_config(doc)
    header, rows, summary = _RUNNERS[cfg.kind](cfg)
    bundle = ResultBundle(
        kind=cfg.kind,
        header=header,
        rows=tuple(rows),
        summary={"network": cfg.network_name or "inline", **summary},
        provenance=_provenance(cfg.document, cfg.seeds),
    )
    if cfg.out_dir:
        bundle.write(cfg.out_dir)
    return bundle


def _print_bundle(bundle: ResultBundle, stream=None):
    stream = stream or sys.stdout
    rows = [tuple(str(_cell(v)) for v in row) for row in bundle.rows]
    header = tuple(str(h) for h in bundle.header)
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line.rstrip(), file=stream)
    print("-" * len(line.rstrip()), file=stream)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchnet",
        description="closed-form and simulated analyses of multi-hop switch networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS:
        sp = sub.add_parser(name, help=f"run a {name} experiment from a config file")
        sp.add_argument("--config", required=True, help="path to a JSON experiment document")
        sp.add_argument("--seed", type=int, default=None,
                        help="replace the config's seed list with this one seed")
        sp.add_argument("--horizon", type=float, default=None,
                        help="replace the simulation horizon")
        sp.add_argument("--out", default=None, help="directory for metrics.csv + summary.json")
        sp.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="set a config field by dotted path, e.g. sim.batches=30")
    sp = sub.add_parser("examples", help="list the bundled example networks")
    sp.add_argument("--out", default=None, help="directory for metrics.csv + summary.json")
    args = parser.parse_args(argv)

    try:
        if args.command == "examples":
            bundle = _run_examples()
            if args.out:
                bundle.write(args.out)
        else:
            bundle = run(
                args.config,
                kind=args.command,
                overrides=args.override,
                seed=args.seed,
                horizon=args.horizon,
                out_dir=args.out,
            )
    except (ConfigError, NetworkValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _print_bundle(bundle)
    if args.out:
        print(f"\nwrote {os.path.join(args.out, 'metrics.csv')} and summary.json",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
