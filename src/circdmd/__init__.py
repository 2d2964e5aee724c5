"""Spectral decomposition toolkit for sensor-by-time matrices.

Fits linear evolution operators to delay-embedded data (anti-circulant
or Hankel stacks), extracts eigenvalues/modes/amplitudes, optionally
sparsifies the amplitudes, and maps reconstructions and forecasts back
to the original sensor space.
"""

__version__ = "0.1.0"

from .analysis import (
    PeriodReport,
    StabilityReport,
    classify_stability,
    mae_rmse,
    mape_per_sensor,
    oscillation_periods,
    predictability_groups,
    reshape_mode,
    residual_acf,
    residual_lag_correlation,
)
from .datamodel import Dataset, SpeedMatrix, load_matrix, save_matrix, split
from .embedding import (
    EmbeddedMatrix,
    anti_circulant,
    apply_right_permutation,
    hankel,
    inverse_anti_circulant,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSeriesError,
    KindError,
    NumericalError,
    ParseError,
    RangeError,
    RankDeficiencyError,
    ShapeError,
    SingularBackwardError,
    ToolkitError,
    UsageError,
)
from .sparsity import (
    QuadraticForm,
    SparsitySolution,
    admm_sparsify,
    build_quadratic,
    gamma_path,
    polish,
)
from .spectral import (
    DynamicSpectrum,
    ReducedSvd,
    SpectrumMeta,
    amplitudes,
    dynamic_modes,
    eigendecompose,
    hard_threshold_factor,
    optimal_rank,
    reconstruct,
    snapshot_svd,
    vandermonde,
)
from .synthgen import (
    Component,
    SyntheticSpec,
    generate,
    generate_linear_system,
    rotation_system,
)
from .variants import (
    VariantConfig,
    fit,
    fit_forward_backward,
    fit_gamma_path,
    fit_total_least_squares,
    predict,
)
