"""Diagnostic inference for noisy-or Bayesian networks.

MCMC sampling with engineered chains (clamping, evidence-flow-aware
conditioning, pair blocking and swapping under Gibbs or Metropolis rules),
an exact junction-tree oracle, and a benchmark harness for comparing
strategies on synthetic fault-diagnosis networks.

The names from `bench` and `exact`, and those two modules themselves, are
resolved on first access (PEP 562), so `import diagbn` and the sampler load
neither numpy nor scipy; `from diagbn import exact_posteriors` works as
before.
"""

import importlib

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
    StrategySpec,
    derive_seed,
    estimate_marginals,
    run_chain,
    sample_posteriors,
    setup_chain,
)

# name -> the module that defines it, imported on first access
_LAZY = {
    "bench": "bench",
    "ExperimentConfig": "bench",
    "Report": "bench",
    "error_count": "bench",
    "load_config": "bench",
    "render_table": "bench",
    "run_experiment": "bench",
    "exact": "exact",
    "EnumerationCapError": "exact",
    "TransitionMatrix": "exact",
    "exact_posteriors": "exact",
    "explicit_transition_matrix": "exact",
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
    "load_config",
    "no_clamp",
    "parse_evidence",
    "parse_network",
    "render_table",
    "run_chain",
    "run_experiment",
    "sample_posteriors",
    "serialize_network",
    "setup_chain",
    "validate",
]
