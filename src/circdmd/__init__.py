"""Spectral decomposition toolkit for sensor-by-time matrices.

Fits linear evolution operators to delay-embedded data (anti-circulant
or Hankel stacks), extracts eigenvalues/modes/amplitudes, optionally
sparsifies the amplitudes, and maps reconstructions and forecasts back
to the original sensor space.
"""

__version__ = "0.2.0"

from .analysis import (
    classify_stability,
    mae_rmse,
    mape_per_sensor,
    oscillation_periods,
    residual_acf,
)
from .datamodel import SpeedMatrix, load_matrix, save_matrix, split
from .embedding import (
    anti_circulant,
    apply_right_permutation,
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
from .sparsity import build_quadratic
from .spectral import (
    DynamicSpectrum,
    hard_threshold_factor,
    optimal_rank,
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
