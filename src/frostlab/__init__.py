"""frostlab: numerical laboratory for spherical averaging over fractal measures.

The flat namespace re-exports the working vocabulary: measure builders,
the spectral grid and transforms, averaging operators, norm estimators,
exponent calculators, counterexample ladders, the 3-d wave probes, and
the acceptance battery.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    FitError,
    FrostlabError,
    ParameterError,
    ResourceError,
)
from .fitting import FitReport, line_fit, log2_fit, loglog_fit
from .measures import (
    DiscreteMeasure,
    EnergyReport,
    FrostmanReport,
    annulus_pair_profile,
    ball_mass,
    cantor_measure,
    chain_triple_profile,
    energy_integral,
    frostman_fit,
    lebesgue_box_measure,
    load_measure_binary,
    measure_from_atoms,
    product_measure,
    radial_power_measure,
    random_ball_measure,
    save_measure_binary,
    sphere_measure,
)
from .spectral import (
    Field,
    SpectralGrid,
    Spectrum,
    decay_fit,
    field_at_points,
    field_l2sq,
    load_field_binary,
    measure_fourier,
    mollifier_hat,
    partition_residual,
    save_field_binary,
    strichartz_profile,
)
from .operators import (
    RieszRowReport,
    convolve_distribution,
    default_mollify_eps,
    default_t_grid,
    dyadic_operator,
    maximal_function,
    quadrature_spherical_average,
    riesz_multiplier,
    riesz_row_sum,
    sphere_l2_profile,
    sphere_multiplier,
    spherical_average,
)
from .norms import (
    FAMILIES,
    LinearOperatorHandle,
    OpNormEstimate,
    certify,
    evaluate_witnesses,
    grid_operator_handle,
    lp_norm,
    opnorm_lower,
)
from .exponents import (
    Interval,
    MaximalBlowupBound,
    Params,
    blowup_dim_fixed_time,
    blowup_dim_maximal,
    convolution_l2_condition,
    eps_p,
    fixed_time_condition,
    maximal_interval,
    sharpness_excluded,
)
from .counterexamples import (
    FixedTimeReport,
    MattilaReport,
    RieszDivergenceReport,
    ShellSeries,
    SteinReport,
    fixed_time_sharpness,
    mattila_example,
    riesz_divergence,
    stein_example,
)
from .wave3d import (
    BlowupReport,
    PointwiseReport,
    blowup_probe,
    pointwise_limit_fit,
    sharpness_family,
    wave_solution,
)
from .suite import CriterionResult, SuiteReport, run_suite
