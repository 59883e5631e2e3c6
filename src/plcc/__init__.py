"""Power-law correlated time series toolkit.

Generation of long-memory series and correlated pairs, detrended and
spectral exponent estimation, scale-specific correlation and regression
coefficients, power-law coherency with regime classification, and a seeded
Monte Carlo harness. The ``plcc`` command line exposes the same operations
on CSV files.

Each layer module's ``__all__`` decides what it exports; the package
re-exports those names in layer order. The analysis and Monte Carlo layers
load on first use (PEP 562), so a command that does not run them does not
import them: their names are written out below, and the tests check them
against each module's ``__all__``.
"""

from importlib import import_module

from . import arfima, core, errors
from .arfima import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403

__version__ = "0.1.0"

# the public names of each layer that loads on first use
_LAZY = {
    "detrended": ("DetrendConfig", "JointFluctuations", "default_scale_grid"),
    "spectral": (
        "periodogram", "cross_periodogram", "coherency", "estimate_h_logperiodogram",
        "estimate_hxy_logcross",
    ),
    "powerlaw": (
        "REGIME_STANDARD", "REGIME_ANTI_COINTEGRATION", "REGIME_INFEASIBLE", "CoherencyReport",
        "h_rho_frequency", "rho_decay", "classify", "coherency_report",
    ),
    "montecarlo": (
        "ESTIMATORS", "ExperimentConfig", "CellStats", "ExperimentResult", "split_seed",
        "theoretical_exponents", "run_experiment", "feasibility_sweep", "standard_regimes",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    *errors.__all__,
    *core.__all__,
    *arfima.__all__,
    *_HOME,
]


def __getattr__(name: str):
    """A name of a layer that loads on first use, or the layer itself."""
    module = _HOME.get(name, name if name in _LAZY else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    return value if module == name else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
