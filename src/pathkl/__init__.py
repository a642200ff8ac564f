"""Numerical relative entropy between path-space laws of diffusions.

Five routes, each checking the others: girsanov (the closed-form drift-gap
integral for matched diffusions), chain (partition chains of one-step
Gaussian laws), dv-marginal (a variational lower bound on a fixed-time
marginal), residual-energy (the energy of the drift correction recovered
from samples) and sanov (large-deviation rate tables against their
closed forms). Their agreement with analytic special cases is the point.
"""

from .chain import (
    ChainEstimate,
    Partition,
    StepTerm,
    SweepResult,
    chain_estimate,
    refine_sequence,
    refinement_sweep,
    step_kl,
)
from .diffusion import (
    DiffusionSpec,
    GaussianLaw,
    InitialLaw,
    MatchReport,
    PathEnsemble,
    TimeGrid,
    diffusion_match_check,
    euler_step_law,
    make_model,
    model_ids,
    register_model,
    sample_paths,
    substream_seed,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    ConvergenceError,
    InsufficientSamplingError,
    ModelEvaluationError,
    PositiveDefinitenessError,
)
from .estimates import EntropyEstimate
from .girsanov import ScenarioOracle, analytic_entropy, girsanov_entropy, scenario_ids
from .marginal import (
    OptimizerConfig,
    SpacePartition,
    dv_estimate,
    empirical_cell_probabilities,
    gaussian_cell_probabilities,
    gaussian_kl,
    histogram_kl,
    histogram_report,
    initial_entropy,
)
from .sanov import RateExperiment, RateRow, RateTable, cramer_rate, empirical_rate
from .variational import (
    BasisFunction,
    DriftCorrection,
    EnergyProfile,
    FunctionBasis,
    basis_from_config,
    drift_correction,
    dual_energy,
    fokker_planck_residual,
    gaussian_bump,
    gram_matrix,
    mixed_basis,
    residual_energy_profile,
    windowed_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ArgumentError", "CapabilityError", "ConvergenceError",
    "InsufficientSamplingError", "ModelEvaluationError",
    "PositiveDefinitenessError",
    # models and sampling
    "DiffusionSpec", "InitialLaw", "TimeGrid", "PathEnsemble",
    "GaussianLaw", "sample_paths", "euler_step_law", "make_model",
    "register_model", "model_ids", "substream_seed", "MatchReport",
    "diffusion_match_check",
    # estimates
    "EntropyEstimate",
    # variational machinery
    "BasisFunction", "FunctionBasis", "gaussian_bump", "windowed_monomial",
    "mixed_basis", "basis_from_config", "gram_matrix",
    "fokker_planck_residual", "dual_energy", "drift_correction",
    "DriftCorrection", "EnergyProfile", "residual_energy_profile",
    # marginal laws
    "OptimizerConfig", "SpacePartition", "dv_estimate", "gaussian_kl",
    "histogram_kl", "histogram_report", "gaussian_cell_probabilities",
    "empirical_cell_probabilities", "initial_entropy",
    # chain decomposition
    "Partition", "StepTerm", "ChainEstimate", "SweepResult", "step_kl",
    "chain_estimate", "refine_sequence", "refinement_sweep",
    # closed form and oracles
    "girsanov_entropy", "ScenarioOracle", "analytic_entropy", "scenario_ids",
    # large deviations
    "RateExperiment", "RateRow", "RateTable", "empirical_rate", "cramer_rate",
]
