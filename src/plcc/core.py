"""Core series containers, partial-sum statistics and log-log scaling fits.

Everything in this module is a pure function of its inputs: no global state,
no random number generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidInput,
    InvalidParameter,
    NonPositiveOrdinate,
)

__all__ = [
    "TimeSeries",
    "ScalingFit",
    "FluctuationCurve",
    "series_values",
    "profile",
    "sample_ccf",
    "partial_sum_scaling",
    "fit_loglog",
]


# =========================================================================
# Containers
# =========================================================================


def _validate_values(v: np.ndarray) -> None:
    if v.ndim != 1:
        raise InvalidInput(f"expected a 1-d sequence of observations, got shape {v.shape}")
    if v.size < 1:
        raise InvalidInput("series must hold at least one observation")
    if not np.isfinite(v).all():
        raise InvalidInput("series contains NaN or infinite values")


def series_values(x) -> np.ndarray:
    """Return the observations of ``x`` as a validated 1-d float array.

    Accepts a :class:`TimeSeries` or anything ``np.asarray`` understands.
    """
    if isinstance(x, TimeSeries):
        return x.values
    v = np.asarray(x, dtype=float)
    _validate_values(v)
    return v


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered sequence of real observations with an optional label."""

    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        _validate_values(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)


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


_CURVE_KINDS = ("dfa", "dcca")


@dataclass(frozen=True, eq=False)
class FluctuationCurve:
    """Pairs (scale, fluctuation statistic).

    ``kind`` is "dfa" for variance-like curves, which are non-negative, and
    "dcca" for covariance-like curves, which may change sign.
    """

    scales: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if scales.size != values.size:
            raise InvalidInput("scales and values must have equal length")
        if self.kind not in _CURVE_KINDS:
            raise InvalidParameter(f"kind must be one of {_CURVE_KINDS}, got {self.kind!r}")
        if self.kind == "dfa" and np.any(values < 0):
            raise InvalidInput("variance-like fluctuation values must be non-negative")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "values", values)


# =========================================================================
# Partial-sum statistics
# =========================================================================


def profile(x) -> np.ndarray:
    """Integrate a series into its partial-sum profile.

    The sample mean is removed first, so the profile ends at (numerically)
    zero. A constant input yields the all-zero profile; downstream statistics
    flag that case, not this function.
    """
    v = series_values(x)
    if v.size < 2:
        raise InvalidInput("profile requires at least two observations")
    return np.cumsum(v - v.mean())


def sample_ccf(x, y, max_lag: int) -> list[tuple[int, float]]:
    """Sample cross-correlation function of two equal-length series.

    Returns ``[(k, r_k)]`` for ``k`` in ``-max_lag .. max_lag`` where ``r_k``
    correlates ``x_t`` with ``y_{t+k}``. The denominator uses full-sample
    variances, so every value lies in [-1, 1] and lag 0 equals the Pearson
    correlation.
    """
    vx = series_values(x)
    vy = series_values(y)
    if vx.size != vy.size:
        raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
    t = vx.size
    k_max = int(max_lag)
    if k_max != max_lag or k_max < 0:
        raise InvalidParameter("max_lag must be a non-negative integer")
    if 2 * k_max >= t:
        raise InvalidInput(f"max_lag {k_max} too large for series of length {t}")
    dx = vx - vx.mean()
    dy = vy - vy.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("cross-correlation is undefined for a zero-variance series")
    denom = math.sqrt(sxx * syy)
    out: list[tuple[int, float]] = []
    for k in range(-k_max, k_max + 1):
        if k >= 0:
            c = float(dx[: t - k] @ dy[k:])
        else:
            c = float(dx[-k:] @ dy[: t + k])
        out.append((k, c / denom))
    return out


def _block_sum_cov(a: np.ndarray, b: np.ndarray) -> float:
    """Sample covariance (ddof=1); called with ``a is b`` for variances."""
    da = a - a.mean()
    db = da if b is a else b - b.mean()
    return float((da @ db) / (a.size - 1))


def partial_sum_scaling(x, y=None, window_grid=()) -> FluctuationCurve:
    """Variance (or covariance) of non-overlapping block sums per window.

    For each window length ``t`` the series is cut into ``T // t`` blocks,
    each block is summed, and the sample variance of the block sums is
    recorded; with a second series the sample covariance of the two block-sum
    sequences is recorded instead. For a memory exponent H the statistic
    grows like ``t**(2H)``.
    """
    vx = series_values(x)
    vy = None if y is None else series_values(y)
    if vy is not None and vy.size != vx.size:
        raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
    t_len = vx.size
    grid = np.asarray(window_grid)
    if grid.size < 3:
        raise InvalidInput("need at least 3 aggregation windows")
    if not np.issubdtype(grid.dtype, np.integer):
        if not np.all(grid == np.floor(grid)):
            raise InvalidInput("window lengths must be integers")
        grid = grid.astype(int)
    if np.any(np.diff(grid) <= 0):
        raise InvalidInput("windows must be strictly increasing")
    if grid[0] < 4:
        raise InvalidInput("smallest window must be at least 4")
    if grid[-1] > t_len // 4:
        raise InvalidInput(f"largest window {int(grid[-1])} exceeds T/4 = {t_len // 4}")
    vals = np.empty(grid.size)
    for i, t in enumerate(grid):
        m = t_len // int(t)
        sx = vx[: m * t].reshape(m, int(t)).sum(axis=1)
        sy = sx if vy is None else vy[: m * t].reshape(m, int(t)).sum(axis=1)
        vals[i] = _block_sum_cov(sx, sy)
    kind = "dfa" if vy is None else "dcca"
    return FluctuationCurve(scales=grid, values=vals, kind=kind)


# =========================================================================
# Log-log fitting
# =========================================================================


def fit_loglog(points, divisor: float) -> ScalingFit:
    """OLS fit of ``log(ordinate)`` on ``log(abscissa)``, natural logs.

    Parameters
    ----------
    points : sequence of (abscissa, ordinate) pairs
        Both coordinates strictly positive; at least 3 points. The fit never
        rectifies or drops values, callers own any abs/drop policy.
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
    ux = lx - lx.mean()
    uy = ly - ly.mean()
    sxx = float(ux @ ux)
    if sxx == 0.0:
        raise InvalidInput("abscissa values are all identical")
    slope = float(ux @ uy) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
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
