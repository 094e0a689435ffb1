"""Kantorovich exponential sampling operators.

Reconstruction of functions on the positive half-line from exponentially
spaced local-average samples, with Mellin B-spline kernels, discrete
moment analysis, and order-raising linear combinations of operators.
"""

from .analysis import (
    BoundReport,
    ConvergenceStudy,
    ErrorTable,
    MomentPreconditionError,
    combo_bound,
    estimate_order,
    expansion_prediction,
    make_table,
    sup_norm,
    table_deviations,
    vanishing_moment_bound,
    voronovskaya_check,
)
from .combinations import (
    CombinationScheme,
    apply_combo,
    solve_coefficients,
)
from .functions import BUILTIN_FUNCTIONS, TestFunction, get_function
from .kernels import (
    Kernel,
    KernelSpecError,
    parse_kernel_spec,
)
from .moments import (
    MomentReport,
    absolute_moment_sup,
    algebraic_moment,
    build_moment_report,
    poisson_moment,
)
from .operators import (
    MissingSampleError,
    OperatorConfig,
    SampleFormatError,
    SampleSeries,
    apply,
    apply_from_samples,
    apply_grid,
    cell_mean,
    read_sample_csv,
    write_sample_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BUILTIN_FUNCTIONS",
    "CombinationScheme",
    "ConvergenceStudy",
    "ErrorTable",
    "Kernel",
    "KernelSpecError",
    "MissingSampleError",
    "MomentPreconditionError",
    "MomentReport",
    "OperatorConfig",
    "SampleFormatError",
    "SampleSeries",
    "TestFunction",
    "absolute_moment_sup",
    "algebraic_moment",
    "apply",
    "apply_combo",
    "apply_from_samples",
    "apply_grid",
    "build_moment_report",
    "cell_mean",
    "combo_bound",
    "estimate_order",
    "expansion_prediction",
    "get_function",
    "make_table",
    "parse_kernel_spec",
    "poisson_moment",
    "read_sample_csv",
    "solve_coefficients",
    "sup_norm",
    "table_deviations",
    "vanishing_moment_bound",
    "voronovskaya_check",
    "write_sample_csv",
]
