"""Power-law correlated time series toolkit.

Generation of long-memory series and correlated pairs, detrended and
spectral exponent estimation, scale-specific correlation and regression
coefficients, power-law coherency with regime classification, and a seeded
Monte Carlo harness. The ``plcc`` command line exposes the same operations
on CSV files.

Each layer module's ``__all__`` decides what it exports; the package
re-exports those names in layer order.
"""

from . import arfima, core, detrended, errors, montecarlo, powerlaw, spectral
from .arfima import *  # noqa: F403
from .core import *  # noqa: F403
from .detrended import *  # noqa: F403
from .errors import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .powerlaw import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *core.__all__,
    *arfima.__all__,
    *detrended.__all__,
    *spectral.__all__,
    *powerlaw.__all__,
    *montecarlo.__all__,
]
