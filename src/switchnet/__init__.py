"""Switched-network toolkit: store-forward allocation, proportional
scheduling, backpressure, and the exact stationary analysis tying them
together.

The model layer describes networks (queues, routes, capacity pools);
normconst and storeforward give the closed-form stationary quantities;
propfair covers the fair-allocation problem and schedule decomposition;
sim holds the three simulators; analysis the structural checks (balance,
independence, rate-function diagnostics).  presets bundles example
networks and cli drives everything from JSON configs.
"""

__version__ = "0.1.0"

from .analysis import (
    BalanceReport,
    CompositionProfile,
    DriftReport,
    IndependenceReport,
    ScalingDiagnostics,
    balance_check,
    independence_test,
    large_deviations_rate,
    log_norm_const_scaling,
    lyapunov_drift,
    queues_share_pool,
    random_balance_checks,
    stationary_mix,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_hash,
    load_config,
    parse_config,
)
from .metrics import (
    JointOccupancy,
    SimConfig,
    TraceMetrics,
    batch_se,
    collect_joint,
)
from .model import (
    CapacityPolytope,
    CapExceededError,
    InterferenceGraph,
    LoadProfile,
    NetworkSpec,
    NetworkValidationError,
    Route,
    cliques_to_polytope,
    compute_loads,
    enumerate_schedules,
    is_perfect,
)
from .normconst import (
    NormConstCache,
    log_norm_const,
    log_norm_const_neighbours,
    norm_const,
    norm_const_bruteforce,
)
from .presets import (
    ExamplePreset,
    example_names,
    list_examples,
    load_example,
    scaled_rates,
)
from .propfair import (
    InfeasibleTargetError,
    PropFairSolution,
    ScheduleDistribution,
    decompose_mean,
    sf_pf_gap,
    solve_prop_fair,
)
from .sim import (
    simulate_backpressure,
    simulate_prop_sched,
    simulate_store_forward,
)
from .storeforward import (
    InadmissibleLoadError,
    StationarySampler,
    expected_queue_lengths,
    expected_route_delay,
    log_stationary_weight,
    sample_stationary_state,
    stationary_normalizer,
    stationary_weight,
    store_forward_rates,
)

__all__ = [
    "BalanceReport",
    "CapExceededError",
    "CapacityPolytope",
    "CompositionProfile",
    "ConfigError",
    "DriftReport",
    "ExamplePreset",
    "ExperimentConfig",
    "IndependenceReport",
    "InadmissibleLoadError",
    "InfeasibleTargetError",
    "InterferenceGraph",
    "JointOccupancy",
    "LoadProfile",
    "NetworkSpec",
    "NetworkValidationError",
    "NormConstCache",
    "PropFairSolution",
    "Route",
    "ScalingDiagnostics",
    "ScheduleDistribution",
    "SimConfig",
    "StationarySampler",
    "TraceMetrics",
    "apply_overrides",
    "balance_check",
    "batch_se",
    "cliques_to_polytope",
    "collect_joint",
    "compute_loads",
    "config_hash",
    "decompose_mean",
    "enumerate_schedules",
    "example_names",
    "expected_queue_lengths",
    "expected_route_delay",
    "independence_test",
    "is_perfect",
    "large_deviations_rate",
    "list_examples",
    "load_config",
    "load_example",
    "log_norm_const",
    "log_norm_const_neighbours",
    "log_norm_const_scaling",
    "log_stationary_weight",
    "lyapunov_drift",
    "norm_const",
    "norm_const_bruteforce",
    "parse_config",
    "queues_share_pool",
    "random_balance_checks",
    "sample_stationary_state",
    "scaled_rates",
    "sf_pf_gap",
    "simulate_backpressure",
    "simulate_prop_sched",
    "simulate_store_forward",
    "solve_prop_fair",
    "stationary_mix",
    "stationary_normalizer",
    "stationary_weight",
    "store_forward_rates",
    "__version__",
]
