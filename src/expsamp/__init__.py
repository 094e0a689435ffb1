"""Kantorovich exponential sampling operators.

Reconstruction of functions on the positive half-line from exponentially
spaced local-average samples, with Mellin B-spline kernels, discrete
moment analysis, and order-raising linear combinations of operators.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them, and its own ``__all__`` is their concatenation.
"""

from . import analysis, combinations, functions, kernels, moments, operators
from .analysis import *  # noqa: F401,F403
from .combinations import *  # noqa: F401,F403
from .functions import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (analysis, combinations, functions, kernels, moments, operators)
           for name in module.__all__]
