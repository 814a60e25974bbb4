"""Weighted Korobov spaces of analytic periodic functions.

Counting and enumeration of dominant Fourier modes, exact spectra and
information complexity, sampling algorithms on regular grids with
certified error bounds and an exact worst-case oracle, grid quadrature,
and tractability verdicts derived from the weight families.
"""

from .errors import (
    CapExceeded,
    ConfigError,
    InvalidParameterError,
    KorobovError,
    UndecidableTail,
)
from .grids import (
    RegularGrid,
    dual_coset_sum,
    dual_weight_sum,
)
from .index_set import (
    IndexSet,
    count_below,
    count_growth_bound,
    count_product_bounds,
    enumerate_below,
    exponent_budget,
    last_active_coordinate,
    weight_exponent,
)
from .integration import (
    GridRule,
    integrate,
    small_n_lower_bound,
    worst_case_int_error,
)
from .params import (
    ConstantFamily,
    ExplicitFamily,
    ExponentialFamily,
    GeometricFamily,
    Interval,
    KorobovParams,
    PowerFamily,
    SequenceFamily,
    load_params,
    params_from_config,
    validate,
)
from .sampling import (
    StdAlgorithm,
    accuracy_algorithm,
    apply_algorithm,
    build_std_algorithm,
    error_upper_bound,
    exact_worst_case_error,
    gen_error_bound,
    mesh_for_accuracy,
    mesh_for_threshold,
    threshold_algorithm,
)
from .space import (
    FourierPolynomial,
    basis_function,
    evaluate,
    inner,
    kernel_eval,
    l2_norm,
    norm,
    random_unit_ball,
)
from .spectra import (
    Spectrum,
    eigenvalue_tail_bound,
    information_complexity,
    nth_minimal_error,
    top_eigenvalues,
    truncate_to_accuracy,
)
from .tractability import (
    TractabilityReport,
    analyze,
    fit_exponential_rate,
)

__version__ = "0.1.0"
