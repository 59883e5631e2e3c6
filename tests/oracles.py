"""Independent oracles, kept out of the shipped package.

``sample_ccf`` and ``partial_sum_scaling`` read a generated pair through
plain lagged products and block sums, with no detrending or spectral step,
so they check the generator's lag-0 correlation and partial-sum scaling
without going through the estimators under test.

``fluctuation_curves`` is the reference arithmetic of the joint fluctuation
pass: boxes joined with ``np.concatenate``, the trend projection subtracted
out of place, and each curve value taken as ``.mean(axis=1).mean()`` of the
residual products. The pass must match it bit for bit.

``mc_arfima_pair`` is the reference arithmetic of the pair generator: each
stream drawn as a fresh array, mixed by one product with the ``sigma``
factor, and each live component convolved through fresh transform arrays
and summed out of place. ``generate_mc_arfima`` must match it bit for bit.
"""

import math

import numpy as np

from plcc.arfima import STUDENT_T, _sigma_factor
from plcc.core import profile, series_values
from plcc.detrended import _detrend_basis
from plcc.errors import DegenerateInput, InvalidInput, InvalidParameter


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


def partial_sum_scaling(x, y=None, window_grid=()) -> tuple[np.ndarray, np.ndarray]:
    """``(windows, values)``: variance (or covariance) of block sums per window.

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
    return grid, vals


def box_residuals(pv: np.ndarray, s: int, order: int) -> np.ndarray:
    """Residuals (2*(T//s), s) of the forward and backward boxes of ``pv``."""
    t = pv.size
    ns = t // s
    fwd = pv[: ns * s].reshape(ns, s)
    bwd = pv[t - ns * s :].reshape(ns, s)
    boxes = np.concatenate([fwd, bwd], axis=0)
    q = _detrend_basis(s, order)
    return boxes - (boxes @ q) @ q.T


def fluctuation_curves(x, y, scales, order: int) -> tuple[np.ndarray, ...]:
    """``(fxx, fyy, fxy)`` on ``scales``; with ``y`` None all three are F2_x."""
    px = profile(x)
    py = px if y is None else profile(y)
    curves = np.empty((3, len(scales)))
    for i, s in enumerate(scales):
        rx = box_residuals(px, int(s), order)
        ry = box_residuals(py, int(s), order)
        for j, (a, b) in enumerate(((rx, rx), (ry, ry), (rx, ry))):
            curves[j, i] = (a * b).mean(axis=1).mean()
    return tuple(curves)


def mc_arfima_pair(spec, length: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(x, y)`` of ``spec`` at ``length`` and ``seed``, computed plainly."""
    burn = length if spec.burn_in is None else spec.burn_in
    trunc = length + burn if spec.truncation is None else spec.truncation
    n_stream, n_weights = trunc + burn + length, trunc + 1
    raw = np.empty((4, n_stream))
    for i in range(4):
        rng = np.random.default_rng(seed + i)
        z = rng.standard_normal(n_stream)
        if spec.innovation_dist == STUDENT_T:
            z = z * np.sqrt((spec.dof - 2.0) / rng.chisquare(spec.dof, n_stream))
        raw[i] = z
    eps = _sigma_factor(spec.sigma) @ raw
    if spec.generator == 1:
        n_fft = 1 << (n_stream + n_weights - 2).bit_length()
    else:
        n_fft = 1 << (n_stream - 1).bit_length()
    k = np.arange(1.0, n_weights)
    start = n_weights - 1 + burn
    parts = [np.zeros(length)] * 4
    for i, (weight, d) in enumerate(spec.component_weights()):
        if weight != 0.0:
            weights = np.concatenate([[1.0], np.cumprod((k - 1.0 + d) / k)])
            prod = np.fft.rfft(eps[i], n_fft)
            prod *= np.fft.rfft(weights, n_fft)
            tail = np.fft.irfft(prod, n_fft)[start : start + length].copy()
            parts[i] = weight * tail
    return parts[0] + parts[1], parts[2] + parts[3]
