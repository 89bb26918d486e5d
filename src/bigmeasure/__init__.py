"""Decide whether a potential measure is Big (forces the Liouville property)
for isotropic stable and Brownian generators, and cross-check the analytic
verdicts by Monte Carlo simulation of the process and its additive functional.
"""

__version__ = "0.1.0"

from . import errors
from .classifier import (
    Conclusion,
    Verdict,
    classify,
    classify_annulus,
    classify_boundary_weight,
    classify_radial_weight,
    classify_sphere_series,
)
from .kernels import (
    KernelModel,
    green_constant,
    radial_shell_average,
    shell_average_batch,
    sphere_surface_area,
)
from .measures import (
    AnnulusSeries,
    BoundaryPower,
    PowerWeight,
    Seq,
    SphereSeries,
    admissibility_check,
    default_smoothing_eps,
    radial_weight_fn,
    support_scale,
)
from .potentials import (
    DecayCheck,
    PotentialResult,
    RadialTable,
    gauge_weighted_potential,
    potential_decay_check,
    riesz_potential,
)
from .experiments import (
    ExperimentConfig,
    RunResult,
    config_digest,
    load_config,
    measure_id,
    run_task,
    validate_config,
)
from .simulate import (
    AbsorbingBrownianBall,
    Brownian,
    GaugeCurve,
    IsotropicStable,
    PathConfig,
    absorbed_pcaf_sample,
    estimate_gauge,
    expected_pcaf_oracle,
    positive_stable_sample,
    rotation_invariance_check,
    sample_increment,
    verify_integral_identity,
)

__all__ = [
    "errors",
    "Conclusion",
    "Verdict",
    "classify",
    "classify_annulus",
    "classify_boundary_weight",
    "classify_radial_weight",
    "classify_sphere_series",
    "KernelModel",
    "green_constant",
    "radial_shell_average",
    "shell_average_batch",
    "sphere_surface_area",
    "AnnulusSeries",
    "BoundaryPower",
    "PowerWeight",
    "Seq",
    "SphereSeries",
    "admissibility_check",
    "default_smoothing_eps",
    "radial_weight_fn",
    "support_scale",
    "DecayCheck",
    "PotentialResult",
    "RadialTable",
    "gauge_weighted_potential",
    "potential_decay_check",
    "riesz_potential",
    "AbsorbingBrownianBall",
    "Brownian",
    "GaugeCurve",
    "IsotropicStable",
    "PathConfig",
    "absorbed_pcaf_sample",
    "estimate_gauge",
    "expected_pcaf_oracle",
    "positive_stable_sample",
    "rotation_invariance_check",
    "sample_increment",
    "verify_integral_identity",
    "ExperimentConfig",
    "RunResult",
    "config_digest",
    "load_config",
    "measure_id",
    "run_task",
    "validate_config",
    "__version__",
]
