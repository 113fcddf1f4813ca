"""Variable-density compressed-sensing laboratory.

Measurement bases live in :mod:`vdslab.transforms`, signal priors in
:mod:`vdslab.priors`, coherence profiles in :mod:`vdslab.coherence`,
with-replacement row sampling in :mod:`vdslab.sampling`, solvers and error
bounds in :mod:`vdslab.recovery`, and the seeded experiment harness in
:mod:`vdslab.harness`. The names below cover the common workflow: build an
operator and a prior, derive a coherence vector, optimize the sampling plan,
then recover signals directly or sweep whole noise grids from a config file.
"""

from vdslab.coherence import (
    coherence_vector,
    empirical_generative_coherence,
    sparse_coherence_vector,
)
from vdslab.harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    aggregate_geometric,
    compare_schemes,
    default_fit_window,
    fit_loglog_slope,
    parse_config_file,
    run_denoise_sweep,
    run_single_trial,
    trial_streams,
)
from vdslab.priors import (
    GenerativeNetwork,
    SparsePrior,
    Subspace,
    SubspaceUnion,
    difference_union,
    load_network,
    load_union,
    save_network,
    save_union,
    subspace_from_span,
)
from vdslab.recovery import (
    RecoveryResult,
    deterministic_corollary_bound,
    recover_generative,
    recover_oracle,
    recover_sparse_two_stage,
    rip_check,
    simulate_measurements,
    theorem_error_bound,
)
from vdslab.sampling import (
    DrawnSample,
    SampledOperator,
    SamplingPlan,
    apply_measurement,
    complexity_mu,
    draw_sample,
    noise_factor,
    noise_factor_bounds,
    optimized_probabilities,
    sample_complexity,
    uniform_plan,
)
from vdslab.transforms import (
    UnitaryOperator,
    compose_measurement_basis,
    make_dense_operator,
    make_dft_operator,
    make_haar_operator,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DrawnSample",
    "ExperimentConfig",
    "ExperimentRecord",
    "GenerativeNetwork",
    "RecoveryResult",
    "SampledOperator",
    "SamplingPlan",
    "SparsePrior",
    "Subspace",
    "SubspaceUnion",
    "UnitaryOperator",
    "aggregate_geometric",
    "apply_measurement",
    "coherence_vector",
    "compare_schemes",
    "complexity_mu",
    "compose_measurement_basis",
    "default_fit_window",
    "deterministic_corollary_bound",
    "difference_union",
    "draw_sample",
    "empirical_generative_coherence",
    "fit_loglog_slope",
    "load_network",
    "load_union",
    "make_dense_operator",
    "make_dft_operator",
    "make_haar_operator",
    "noise_factor",
    "noise_factor_bounds",
    "optimized_probabilities",
    "parse_config_file",
    "recover_generative",
    "recover_oracle",
    "recover_sparse_two_stage",
    "rip_check",
    "run_denoise_sweep",
    "run_single_trial",
    "sample_complexity",
    "save_network",
    "save_union",
    "simulate_measurements",
    "sparse_coherence_vector",
    "subspace_from_span",
    "theorem_error_bound",
    "trial_streams",
    "uniform_plan",
]
