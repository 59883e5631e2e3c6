"""Series validation, the partial-sum profile and the one rule that reads
every exponent (:func:`fit_positive`): fit the positive ordinates, or fail.

Everything in this module is a pure function of its inputs: no global state,
no random number generation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationFailed, InvalidInput, InvalidParameter, NonPositiveOrdinate

__all__ = ["ScalingFit", "series_values", "profile", "fit_loglog"]


# =========================================================================
# Parameter rules
# =========================================================================
#
# The one definition of an integer and of a number parameter. Every module
# checks its parameters through these helpers; they are not package names.


def is_integer(value) -> bool:
    """True for an integer that is not a bool: ``3`` and ``np.int64(3)``,
    not ``3.0``, ``True`` or ``"3"``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_int(name: str, value, least: int | None = None) -> int:
    """``value`` as an int, refused unless :func:`is_integer` holds and, with
    ``least`` given, it is at least ``least``. A float with an integral
    value is refused, not rounded, so a record keeps the value used."""
    if not (is_integer(value) and (least is None or value >= least)):
        bound = "" if least is None else f" >= {least}"
        raise InvalidParameter(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def require_number(name: str, value):
    """``value`` itself, refused unless it is a finite real number: a
    string, a bool, inf and nan are all refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameter(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidParameter(f"{name} must be finite, got {value!r}")
    return value


def require_positive(name: str, value):
    """``value`` itself, refused unless it is a finite number above zero."""
    if not require_number(name, value) > 0:
        raise InvalidParameter(f"{name} must be positive")
    return value


def series_values(x) -> np.ndarray:
    """Return the observations of ``x`` as a validated 1-d float array.

    Accepts anything ``np.asarray`` understands; a float array comes back
    as itself, not as a copy.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInput(f"expected a 1-d sequence of observations, got shape {v.shape}")
    if v.size < 1:
        raise InvalidInput("series must hold at least one observation")
    if not np.isfinite(v).all():
        raise InvalidInput("series contains NaN or infinite values")
    return v


def is_constant(v: np.ndarray) -> bool:
    """True when every observation of ``v`` is the same value.

    The zero-variance gate of the detrended and spectral statistics. It is
    exact, unlike ``v.std() == 0``: the std of a constant whose mean is
    inexact (0.1, say) is a rounding residue of about 1e-17.
    """
    return bool(v.min() == v.max())


@dataclass(frozen=True)
class ScalingFit:
    """Result of an OLS power-law fit in log-log coordinates.

    ``exponent`` is the fitted slope divided by the caller's divisor, so the
    same container serves Hurst-type fits (divisor 2), spectral-memory fits
    and coherency-decay fits (divisors -4 and 4).
    """

    exponent: float
    intercept: float
    stderr: float
    r_squared: float
    range_used: tuple[float, float]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stderr < 0:
            raise InvalidParameter("stderr must be non-negative")
        if not 0.0 <= self.r_squared <= 1.0:
            raise InvalidParameter("r_squared must lie in [0, 1]")


# =========================================================================
# Partial-sum statistics
# =========================================================================


def profile(x) -> np.ndarray:
    """Integrate a series into its partial-sum profile.

    The sample mean is removed first, so the profile ends at (numerically)
    zero. A constant input yields the all-zero profile only when its sample
    mean is exact: the mean of ``np.full(2048, 0.1)`` is not 0.1 to the last
    bit, and its profile peaks at about 2.8e-14. Downstream statistics flag
    a constant input by comparing its values (:func:`is_constant`), not
    through this function.
    """
    v = series_values(x)
    if v.size < 2:
        raise InvalidInput("profile requires at least two observations")
    return np.cumsum(v - v.mean())


# =========================================================================
# Log-log fitting
# =========================================================================


def fit_loglog(points, divisor: float) -> ScalingFit:
    """OLS fit of ``log(ordinate)`` on ``log(abscissa)``, natural logs.

    Parameters
    ----------
    points : sequence of (abscissa, ordinate) pairs
        Both coordinates strictly positive; at least 3 points. The fit never
        rectifies or drops values; :func:`fit_positive` drops them.
    divisor : float
        The reported ``exponent`` is the OLS slope divided by this value and
        ``stderr`` is the slope's standard error divided by ``|divisor|``.

    Returns
    -------
    ScalingFit
        ``range_used`` records the (min, max) abscissa entering the fit.
    """
    if divisor == 0 or not math.isfinite(divisor):
        raise InvalidParameter("divisor must be finite and nonzero")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInput("expected a sequence of (abscissa, ordinate) pairs")
    if pts.shape[0] < 3:
        raise InvalidInput(f"need at least 3 points to fit, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise InvalidInput("fit points contain NaN or infinite values")
    a = pts[:, 0]
    o = pts[:, 1]
    if np.any(a <= 0):
        raise InvalidInput("abscissa values must be strictly positive")
    if np.all(a == a[0]):
        raise InvalidInput("abscissa values are all identical")
    if np.any(o <= 0):
        raise NonPositiveOrdinate("ordinates must be strictly positive")
    lx = np.log(a)
    ly = np.log(o)
    n = lx.size
    mx = lx.mean()
    my = ly.mean()
    ux = lx - mx
    uy = ly - my
    sxx = float(ux @ ux)
    if sxx == 0.0:
        raise InvalidInput("log abscissa values do not vary")
    slope = float(ux @ uy) / sxx
    intercept = float(my - slope * mx)
    resid = uy - slope * ux
    ss_res = float(resid @ resid)
    ss_tot = float(uy @ uy)
    if ss_tot > 0.0:
        r_squared = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    else:
        # all ordinates identical: a flat line fits perfectly
        r_squared = 1.0 if ss_res <= 1e-20 else 0.0
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    return ScalingFit(
        exponent=slope / divisor,
        intercept=intercept,
        stderr=stderr / abs(divisor),
        r_squared=r_squared,
        range_used=(float(a.min()), float(a.max())),
    )


def fit_positive(abscissa, ordinates, divisor: float, min_points: int) -> tuple[ScalingFit, int]:
    """:func:`fit_loglog` over the points with a positive ordinate, and how many
    were dropped; fewer than ``min_points`` of them fail the estimate."""
    o = np.asarray(ordinates, dtype=float)
    keep = o > 0
    n = int(np.count_nonzero(keep))
    if n < min_points:
        raise EstimationFailed(f"only {n} positive ordinates; need {min_points}")
    points = np.column_stack([np.asarray(abscissa, dtype=float)[keep], o[keep]])
    return fit_loglog(points, divisor), o.size - n
