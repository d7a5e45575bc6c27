"""Diagnostic inference for noisy-or Bayesian networks.

MCMC sampling with engineered chains (clamping, evidence-flow-aware
conditioning, pair blocking and swapping under Gibbs or Metropolis rules),
an exact junction-tree oracle, and a benchmark harness for comparing
strategies on synthetic fault-diagnosis networks.
"""

from .bench import (
    ExperimentConfig,
    Report,
    error_count,
    load_config,
    render_table,
    run_experiment,
)
from .exact import (
    EnumerationCapError,
    TransitionMatrix,
    exact_posteriors,
    explicit_transition_matrix,
)
from .flow import (
    CLAMPED,
    DIAGNOSTIC_SAMPLED,
    FORWARD_SAMPLED,
    ClampResult,
    FlowInfo,
    clamp_pass,
    classify_flow,
    no_clamp,
)
from .generate import (
    GeneratorParams,
    TestCase,
    generate_cases,
    generate_network,
)
from .network import (
    MODEL,
    PERMISSIVE,
    SENSORY,
    STRICT,
    Network,
    NetworkError,
    build_network,
    parse_evidence,
    parse_network,
    serialize_network,
    validate,
)
from .sampler import (
    GIBBS,
    METROPOLIS,
    PRESETS,
    MarginalAccumulator,
    StrategySpec,
    derive_seed,
    estimate_marginals,
    initialize_state,
    run_chain,
    sample_posteriors,
)

__all__ = [
    "CLAMPED",
    "DIAGNOSTIC_SAMPLED",
    "FORWARD_SAMPLED",
    "GIBBS",
    "METROPOLIS",
    "MODEL",
    "PERMISSIVE",
    "PRESETS",
    "SENSORY",
    "STRICT",
    "ClampResult",
    "EnumerationCapError",
    "ExperimentConfig",
    "FlowInfo",
    "GeneratorParams",
    "MarginalAccumulator",
    "Network",
    "NetworkError",
    "Report",
    "StrategySpec",
    "TestCase",
    "TransitionMatrix",
    "build_network",
    "clamp_pass",
    "classify_flow",
    "derive_seed",
    "error_count",
    "estimate_marginals",
    "exact_posteriors",
    "explicit_transition_matrix",
    "generate_cases",
    "generate_network",
    "initialize_state",
    "load_config",
    "no_clamp",
    "parse_evidence",
    "parse_network",
    "render_table",
    "run_chain",
    "run_experiment",
    "sample_posteriors",
    "serialize_network",
    "validate",
]
