"""Possibilistic state estimation and a bearings-only tracking benchmark."""

__version__ = "0.1.0"

from .possq import (
    GaussianPossibility,
    WaterPouredDensity,
    sample_discrete,
    water_pour_continuous,
    water_pour_discrete,
)
from .filters import (
    AllWeightsZero,
    LinearGaussianTransition,
    ParticleSet,
    PossibilityPFOptions,
    possibility_pf_init,
    possibility_pf_resample,
    possibility_pf_step,
    standard_pf_init,
    standard_pf_step,
    systematic_resample,
)
from .tma import (
    CrlbResult,
    PriorConfig,
    bearing_log_likelihood,
    bearings_of,
    crlb_curve,
    init_prior,
    process_noise_matrix,
    transition_matrix,
    wrap_angle,
)
from .bench import (
    BatchResult,
    NoiseModel,
    RunReport,
    Scenario,
    Table1Cell,
    build_canonical_scenario,
    is_divergent,
    nominal_target_track,
    run_batch,
    run_single,
    sample_target_track,
    scenario_crlb,
    synthesize_measurements,
    table1_experiment,
    wilson_interval,
)
