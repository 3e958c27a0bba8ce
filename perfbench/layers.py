"""Where the traced run cuts the package into layers, and the per-layer
metrics it derives from the spans and counts.

Each entry wraps one attribute that callers look up: a function re-exported
into the module that calls it (``sim.store_forward_rates`` is what the
simulator calls), or a method on a class.  Span names are
``<layer>.<operation>``; the layers are switchnet's modules.
"""

from __future__ import annotations

from collections import defaultdict

from switchnet import analysis, cli, config, metrics, normconst, propfair, sim, storeforward

from tracer import Tracer
from workloads import uniformized_rate

# (owner, attribute, span name); every owner that holds its own reference
# to the function is listed, so no call escapes the wrapper
SPANS = (
    (normconst, "log_norm_const", "normconst.log_norm_const"),
    (storeforward, "log_norm_const", "normconst.log_norm_const"),
    (analysis, "log_norm_const", "normconst.log_norm_const"),
    (storeforward, "store_forward_rates", "storeforward.store_forward_rates"),
    (analysis, "store_forward_rates", "storeforward.store_forward_rates"),
    (propfair, "store_forward_rates", "storeforward.store_forward_rates"),
    (sim, "store_forward_rates", "storeforward.store_forward_rates"),
    (storeforward.StationarySampler, "sample_queues", "storeforward.sampler"),
    (storeforward.StationarySampler, "sample_state", "storeforward.sampler"),
    (sim, "simulate_store_forward", "sim.store_forward"),
    (cli, "simulate_store_forward", "sim.store_forward"),
    (sim, "simulate_backpressure", "sim.slotted"),
    (sim, "simulate_prop_sched", "sim.slotted"),
    (cli, "simulate_backpressure", "sim.slotted"),
    (cli, "simulate_prop_sched", "sim.slotted"),
    (metrics.TraceMetrics, "to_rows", "metrics.trace"),
    (metrics.TraceMetrics, "to_summary_dict", "metrics.trace"),
    (analysis, "collect_joint", "metrics.joint"),
    (propfair, "solve_prop_fair", "propfair.solve"),
    (sim, "solve_prop_fair", "propfair.solve"),
    (analysis, "solve_prop_fair", "propfair.solve"),
    (propfair, "decompose_mean", "propfair.decompose"),
    (sim, "decompose_mean", "propfair.decompose"),
    (analysis, "random_balance_checks", "analysis.balance"),
    (cli, "random_balance_checks", "analysis.balance"),
    (analysis, "balance_check", "analysis.balance"),
    (analysis, "independence_test", "analysis.independence"),
    (cli, "independence_test", "analysis.independence"),
    (analysis, "log_norm_const_scaling", "analysis.scaling"),
    (cli, "log_norm_const_scaling", "analysis.scaling"),
    (config, "parse_config", "config.parse"),
    (cli, "parse_config", "config.parse"),
    (cli, "run", "cli.run"),
)

PER_LAYER_UNITS = {
    "normconst.phi_calls": "count",
    "normconst.phi_new": "count",
    "normconst.phi_self_s": "s",
    "normconst.us_per_new_phi": "us",
    "normconst.cache_entries": "count",
    "storeforward.rates_calls": "count",
    "storeforward.rates_self_s": "s",
    "storeforward.sampler_draws": "count",
    "storeforward.sampler_self_s": "s",
    "sim.distinct_states": "count",
    "sim.sf_self_s": "s",
    "sim.sf_us_per_event": "us",
    "sim.slotted_self_s": "s",
    "sim.us_per_slot": "us",
    "metrics.self_s": "s",
    "propfair.solve_calls": "count",
    "propfair.solve_self_s": "s",
    "propfair.solve_iterations": "count",
    "propfair.solve_nonconverged": "count",
    "propfair.decompose_calls": "count",
    "propfair.decompose_self_s": "s",
    "propfair.decompose_failed": "count",
    "propfair.support_mean": "count",
    "analysis.balance_self_s": "s",
    "analysis.independence_self_s": "s",
    "analysis.scaling_self_s": "s",
    "config.parse_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def install(tracer: Tracer):
    """Wrap every entry of SPANS, with the counting hooks the metrics need."""
    c = tracer.counts
    caches: dict[int, object] = {}

    def phi_before(args, kwargs):
        cache = args[2] if len(args) > 2 else kwargs.get("cache")
        return cache, (len(cache) if cache is not None else 0)

    def phi_after(state, args, kwargs, result, error):
        cache, size = state
        c["phi_calls"] += 1
        if cache is None:
            c["phi_new"] += 1
        else:
            caches[id(cache)] = cache
            c["phi_new"] += len(cache) - size

    def count(*keys):
        def after(state, args, kwargs, result, error):
            for key in keys:
                c[key] += 1
        return after

    def draws_after(state, args, kwargs, result, error):
        if result is not None and getattr(result, "ndim", 0) == 2:
            c["draws"] += len(result)

    def sf_after(state, args, kwargs, result, error):
        spec = args[0]
        poly = args[1] if len(args) > 1 and args[1] is not None else spec.capacity_polytope()
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        c["sf_events"] += uniformized_rate(spec, poly) * float(cfg.horizon)

    def slotted_after(state, args, kwargs, result, error):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        c["slots"] += int(cfg.horizon)

    def solve_after(state, args, kwargs, result, error):
        c["solve_calls"] += 1
        if result is not None:
            c["solve_iterations"] += result.iterations
            c["solve_nonconverged"] += not result.converged

    def decompose_after(state, args, kwargs, result, error):
        c["decompose_calls"] += 1
        if error is not None:
            c["decompose_failed"] += 1
        else:
            c["support_total"] += result.support_size

    hooks = {
        "normconst.log_norm_const": (phi_before, phi_after),
        "storeforward.store_forward_rates": (None, count("rates_calls")),
        "storeforward.sampler": (None, draws_after),
        "sim.store_forward": (None, sf_after),
        "sim.slotted": (None, slotted_after),
        "propfair.solve": (None, solve_after),
        "propfair.decompose": (None, decompose_after),
    }
    for owner, attr, name in SPANS:
        before, after = hooks.get(name, (None, None))
        if owner is sim and attr == "store_forward_rates":
            after = count("rates_calls", "distinct_states")
        tracer.wrap(owner, attr, name, before, after)
    return caches


def per_layer(tracer: Tracer, caches, rounds: int, overhead_s: float) -> dict:
    """Per-round averages of every per-layer metric."""
    st = defaultdict(float, tracer.self_times())
    c = defaultdict(float, tracer.counts)
    n = float(rounds)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    values = {
        "normconst.phi_calls": c["phi_calls"] / n,
        "normconst.phi_new": c["phi_new"] / n,
        "normconst.phi_self_s": st["normconst.log_norm_const"] / n,
        "normconst.us_per_new_phi": ratio(st["normconst.log_norm_const"], c["phi_new"], 1e6),
        "normconst.cache_entries": sum(len(x) for x in caches.values()) / n,
        "storeforward.rates_calls": c["rates_calls"] / n,
        "storeforward.rates_self_s": st["storeforward.store_forward_rates"] / n,
        "storeforward.sampler_draws": c["draws"] / n,
        "storeforward.sampler_self_s": st["storeforward.sampler"] / n,
        "sim.distinct_states": c["distinct_states"] / n,
        "sim.sf_self_s": st["sim.store_forward"] / n,
        "sim.sf_us_per_event": ratio(st["sim.store_forward"], c["sf_events"], 1e6),
        "sim.slotted_self_s": st["sim.slotted"] / n,
        "sim.us_per_slot": ratio(st["sim.slotted"], c["slots"], 1e6),
        "metrics.self_s": (st["metrics.trace"] + st["metrics.joint"]) / n,
        "propfair.solve_calls": c["solve_calls"] / n,
        "propfair.solve_self_s": st["propfair.solve"] / n,
        "propfair.solve_iterations": c["solve_iterations"] / n,
        "propfair.solve_nonconverged": c["solve_nonconverged"] / n,
        "propfair.decompose_calls": c["decompose_calls"] / n,
        "propfair.decompose_self_s": st["propfair.decompose"] / n,
        "propfair.decompose_failed": c["decompose_failed"] / n,
        "propfair.support_mean": ratio(c["support_total"],
                                       c["decompose_calls"] - c["decompose_failed"]),
        "analysis.balance_self_s": st["analysis.balance"] / n,
        "analysis.independence_self_s": st["analysis.independence"] / n,
        "analysis.scaling_self_s": st["analysis.scaling"] / n,
        "config.parse_self_s": st["config.parse"] / n,
        "cli.self_s": st["cli.run"] / n,
        "trace.overhead_s": overhead_s,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
