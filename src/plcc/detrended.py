"""Detrended fluctuation statistics on box-wise polynomial residuals.

The profile of each series is cut into boxes of length ``s`` taken from both
the start and the end (``2 * (T // s)`` boxes per scale), a polynomial trend
is removed in every box, and the mean residual product per box is averaged
across boxes. With one series that average is a variance-like curve growing
as ``s**(2H)``; with two series it is the covariance-like analogue.

A pass works in flat buffers of ``2 * T`` doubles that it allocates once and
reuses at every scale: the boxes of x, the boxes of y (a pair only) and one
scratch buffer, which holds first the trend projection and then the residual
products. The matrix of a scale is a C-ordered ``(2 * (T // s), s)`` view of
a buffer's first ``2 * (T // s) * s`` elements, the forward boxes above the
backward ones, so every matrix product has the shape it would have in a fresh
array, and BLAS, whose rounding depends on the row count, gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ScalingFit,
    fit_positive,
    is_constant,
    is_integer,
    profile,
    require_int,
    scaled_back,
    series_values,
    unit_scaled,
)
from .errors import (
    DegenerateInput,
    InvalidInput,
    InvalidParameter,
    SeriesTooShort,
)

__all__ = [
    "DetrendConfig",
    "JointFluctuations",
    "default_scale_grid",
]


def _checked_order(poly_order) -> int:
    """The detrending order as an int; it must be a non-negative integer."""
    if not (is_integer(poly_order) and poly_order >= 0):
        raise InvalidParameter("poly_order must be a non-negative integer")
    return int(poly_order)


def min_scale_for_order(poly_order: int) -> int:
    """Smallest admissible box size for a given detrending order."""
    return max(10, 4 * (poly_order + 2))


@dataclass(frozen=True, eq=False)
class DetrendConfig:
    """Scale grid and detrending order shared by all detrended statistics.

    The box layout is fixed: boxes come from both ends of the profile, so
    every statistic at scale ``s`` pools ``2 * (T // s)`` boxes. Scales must
    be strictly increasing, at least 5 of them, none below
    ``min_scale_for_order(poly_order)``; the upper bound (at most a fifth of
    the series length) is checked against each analyzed series.
    """

    scale_grid: np.ndarray
    poly_order: int = 1

    def __post_init__(self):
        order = _checked_order(self.poly_order)
        grid = np.asarray(self.scale_grid)
        if grid.size and not np.issubdtype(grid.dtype, np.integer):
            raise InvalidParameter("scales must be integers")
        grid = grid.astype(int)
        if grid.size < 5:
            raise InvalidParameter(f"need at least 5 scales, got {grid.size}")
        if np.any(np.diff(grid) <= 0):
            raise InvalidParameter("scales must be strictly increasing")
        lo = min_scale_for_order(order)
        if grid[0] < lo:
            raise InvalidParameter(
                f"smallest scale {int(grid[0])} is below {lo}, the minimum for order {order}"
            )
        grid.flags.writeable = False
        object.__setattr__(self, "scale_grid", grid)
        object.__setattr__(self, "poly_order", order)


def default_scale_grid(
    length: int,
    poly_order: int = 1,
    n_scales: int = 20,
    min_scale: int | None = None,
    max_scale: int | None = None,
) -> np.ndarray:
    """Log-spaced integer scales between the order's minimum and ``length // 5``.

    ``n_scales``, at least 5, is the count before rounding merges scales.
    ``min_scale`` and ``max_scale`` tighten the bounds without escaping them;
    capping the top is useful when a cross signal drowns in fluctuation noise
    at large scales.
    """
    lo = floor = min_scale_for_order(_checked_order(poly_order))
    n_scales = require_int("n_scales", n_scales, 5)
    if min_scale is not None:
        lo = max(lo, require_int("min_scale", min_scale))
    hi = top = require_int("length", length) // 5
    if max_scale is not None:
        hi = min(hi, require_int("max_scale", max_scale))
    if hi < lo:
        raise SeriesTooShort(
            f"length {length} leaves no admissible scales for order {poly_order}"
        )
    grid = geometric_scales(lo, hi, n_scales)
    if grid.size < 5:
        # blame the length only when min_scale and max_scale did not narrow the range
        cause = f"length {length}" if (lo, hi) == (floor, top) else f"the scale range {lo}..{hi}"
        raise SeriesTooShort(f"{cause} yields fewer than 5 distinct scales")
    return grid


def geometric_scales(lo: int, hi: int, count: int) -> np.ndarray:
    """The distinct integers, ascending, of ``count`` log-spaced points from
    ``lo`` to ``hi`` rounded to nearest: ``np.unique`` of them, without the
    ``numpy.ma`` import that ``np.unique`` costs a process on its first call."""
    grid = np.sort(np.round(np.geomspace(lo, hi, count)).astype(int))
    keep = np.ones(grid.size, dtype=bool)
    np.not_equal(grid[1:], grid[:-1], out=keep[1:])
    return grid[keep]


# =========================================================================
# Residual machinery
# =========================================================================


# Bounded, since one default grid at T = 2^20 holds 8.3 MB of bases. 64 keeps
# the 38 bases of a standard-regimes suite at one length (its default and its
# capped grid) warm, and the 20 of any one default grid.
@lru_cache(maxsize=64)
def _detrend_basis(s: int, order: int) -> np.ndarray:
    """Orthonormal polynomial basis on box abscissa 1..s rescaled to [-1, 1].

    The rescaling keeps the Vandermonde matrix well conditioned at large box
    sizes; Q is cached per (scale, order) since every box shares it.
    """
    u = (2.0 * np.arange(1, s + 1) - (s + 1)) / (s - 1)
    v = np.vander(u, order + 1, increasing=True)
    q, _ = np.linalg.qr(v)
    q.flags.writeable = False
    return q


def _box_residuals(pv: np.ndarray, s: int, order: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Residual matrix (2*(T//s), s) of box-wise polynomial detrending, as a
    view of the flat buffer ``out``; ``scratch`` takes the trend projection.

    The forward boxes fill the top half and the backward boxes the bottom
    half; the trend projection is subtracted in place.
    """
    t = pv.size
    ns = t // s
    boxes = out[: 2 * ns * s].reshape(2 * ns, s)
    boxes[:ns] = pv[: ns * s].reshape(ns, s)
    boxes[ns:] = pv[t - ns * s :].reshape(ns, s)
    q = _detrend_basis(s, order)
    trend = scratch[: boxes.size].reshape(boxes.shape)
    np.matmul(boxes @ q, q.T, out=trend)
    boxes -= trend
    return boxes


_ZERO_VARIANCE = "detrended statistics are undefined for a zero-variance series"
_WHAT = "detrended statistics"


def _raised(stored: Exception) -> Exception:
    """A new exception like ``stored``: raising ``stored`` itself on every read
    grows its traceback and ties the pass, through its frames, into a cycle."""
    return type(stored)(*stored.args)


class JointFluctuations:
    """One box pass over a series, or a pair, on one shared box layout.

    ``scales`` is the grid of ``cfg``; ``fxx``, ``fyy`` and ``fxy`` are the
    pooled second moments F2_x, F2_y and F2_xy of the box residuals at those
    scales, as read-only arrays. With ``y`` None the pass is univariate and
    all three curves are F2_x. Using one box layout for all three curves is
    what makes the correlation coefficient built from them obey the
    Cauchy-Schwarz bound scale by scale.

    The readers (:meth:`hurst_x`, :meth:`hurst_y`, :meth:`hxy`, :meth:`rho`,
    :meth:`beta`) turn the curves into the detrended statistics. An
    undefined statistic does not stop the pass: reading a curve of a
    constant side (all observations equal) raises :class:`DegenerateInput`,
    reading one that cannot be represented raises :class:`InvalidInput`, and
    every curve raises when the grid does not fit the series length, so the
    other side of a pair stays readable.
    """

    def __init__(self, x, y, cfg: DetrendConfig):
        vx = series_values(x)
        vy = vx if y is None else series_values(y)
        if vy.size != vx.size:
            raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
        t = vx.size
        grid_error = None
        if t < 4 * int(cfg.scale_grid[0]):
            grid_error = SeriesTooShort(
                f"length {t} is below 4x the smallest scale {int(cfg.scale_grid[0])}"
            )
        elif int(cfg.scale_grid[-1]) > t // 5:
            grid_error = InvalidInput(
                f"largest scale {int(cfg.scale_grid[-1])} exceeds T/5 = {t // 5}"
            )
        # Why each side's curve is undefined, or None. A constant side is
        # reported before a grid that does not fit, as for a lone series.
        error_x = DegenerateInput(_ZERO_VARIANCE) if is_constant(vx) else grid_error
        error_y = error_x
        if y is not None:
            error_y = DegenerateInput(_ZERO_VARIANCE) if is_constant(vy) else grid_error
        self._pair_error = error_x or error_y
        self._shown = [error_x, error_y, self._pair_error]  # each curve, or why it is undefined
        self._rho = None  # set by the first successful rho() read
        self.scales = cfg.scale_grid
        if grid_error is not None:
            return
        # rho and beta read the curves of the scaled sides; the others are scaled back
        vx, kx = unit_scaled(vx)
        vy, ky = (vx, kx) if y is None else unit_scaled(vy)
        px = profile(vx)
        py = None if y is None else profile(vy)
        del vx, vy  # the scaled copies: the box pass reads only the profiles
        # the flat buffers of the module docstring, owned by this pass alone
        box_x, scratch = np.empty(2 * t), np.empty(2 * t)
        box_y = None if py is None else np.empty(2 * t)
        curves = np.empty((1 if py is None else 3, cfg.scale_grid.size))
        for i, s in enumerate(cfg.scale_grid):
            s = int(s)
            rx = _box_residuals(px, s, cfg.poly_order, box_x, scratch)
            factors = [(rx, rx)]
            if py is not None:
                ry = _box_residuals(py, s, cfg.poly_order, box_y, scratch)
                factors += [(ry, ry), (rx, ry)]
            # box statistic = mean residual product; curve value = mean over
            # boxes. Row sums divided by s, then their sum divided by the box
            # count, is the arithmetic of .mean(axis=1).mean(), bit for bit.
            product = scratch[: rx.size].reshape(rx.shape)
            rows = np.empty((len(factors), rx.shape[0]))
            for j, (a, b) in enumerate(factors):
                np.multiply(a, b, out=product)
                np.add.reduce(product, axis=1, out=rows[j])
            rows /= s
            curves[:, i] = np.add.reduce(rows, axis=1) / rows.shape[1]
        curves.flags.writeable = False
        # a univariate pass has one curve, F2_x, that serves as all three
        self._fxx, self._fyy, self._fxy = (curves[i % len(curves)] for i in range(3))
        self._beta_exponent = ky - kx
        scaled = zip((self._fxx, self._fyy, self._fxy), (2 * kx, 2 * ky, kx + ky))
        for i, (curve, k) in enumerate(scaled):
            try:
                self._shown[i] = self._shown[i] or scaled_back(curve, k, _WHAT)
            except InvalidInput as exc:
                self._shown[i] = exc.with_traceback(None)  # its frames hold this pass

    def _curve(self, i: int) -> np.ndarray:
        if isinstance(self._shown[i], Exception):
            raise _raised(self._shown[i])
        return self._shown[i]

    @property
    def fxx(self) -> np.ndarray:
        """Detrended variance curve F2_x(s)."""
        return self._curve(0)

    @property
    def fyy(self) -> np.ndarray:
        """Detrended variance curve F2_y(s)."""
        return self._curve(1)

    @property
    def fxy(self) -> np.ndarray:
        """Detrended covariance curve F2_xy(s); may change sign.

        Bilinear in the two series, and bit for bit the ``fxx`` of the
        lone series when both sides hold the same values.
        """
        return self._curve(2)

    def hurst_x(self) -> ScalingFit:
        """Memory exponent H_x: half the log-log slope of F2_x."""
        return _fit_scaling(self.scales, self.fxx, divisor=2.0)

    def hurst_y(self) -> ScalingFit:
        """Memory exponent H_y: half the log-log slope of F2_y."""
        return _fit_scaling(self.scales, self.fyy, divisor=2.0)

    def hxy(self) -> ScalingFit:
        """Cross-memory exponent H_xy: half the log-log slope of |F2_xy|.

        ``diagnostics`` counts the negative curve values (``sign_flips``) and
        the sign alternations along the scale axis (``sign_changes``). Many
        alternations leave no power law to read; a curve that stays negative,
        as for an anti-correlated pair, is fine.
        """
        return _fit_scaling(self.scales, self.fxy, divisor=2.0)

    def rho(self) -> np.ndarray:
        """Scale-specific correlation F2_xy / sqrt(F2_x F2_y), within [-1, 1];
        computed on the first read, which every later read returns, read-only."""
        if self._rho is None:
            if self._pair_error:
                raise _raised(self._pair_error)
            fxx, fyy = self._fxx, self._fyy
            if np.any(fxx <= 0) or np.any(fyy <= 0):
                raise DegenerateInput("zero detrended variance at some scale")
            self._rho = np.clip(self._fxy / np.sqrt(fxx * fyy), -1.0, 1.0)
            self._rho.flags.writeable = False
        return self._rho

    def beta(self) -> np.ndarray:
        """Scale-specific regression coefficient F2_xy / F2_x; ``x`` regresses.

        Invariant under adding a constant to either series; linear in ``y``.
        """
        if self._pair_error:
            raise _raised(self._pair_error)
        if np.any(self._fxx <= 0):
            raise DegenerateInput("zero detrended variance of the regressor at some scale")
        return scaled_back(self._fxy / self._fxx, self._beta_exponent, _WHAT)


# =========================================================================
# Scaling fit of a fluctuation curve
# =========================================================================


def _fit_scaling(scales, values, divisor: float) -> ScalingFit:
    """Log-log fit of |values| vs scales with sign-flip and drop accounting."""
    vals = np.asarray(values, dtype=float)
    signs = np.sign(vals[vals != 0])
    fit = fit_positive(scales, np.abs(vals), divisor, 3, "dropped_nonpositive")
    fit.diagnostics["sign_flips"] = int(np.count_nonzero(vals < 0))
    fit.diagnostics["sign_changes"] = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return fit

