"""Periodogram, cross-periodogram, smoothed squared coherency and
log-periodogram memory estimators.

All ordinates live on the Fourier frequencies ``2 pi j / T`` for
``j = 1 .. T // 2``; the zero frequency is excluded throughout. The
normalization is ``1 / (2 pi T)``. Every statistic reads the de-meaned DFTs
from one checked step, which transforms each series scaled by ``core.unit_scaled``;
each ordinate kind has one formula, and all but the coherency are scaled back.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import (
    ScalingFit,
    fit_positive,
    is_constant,
    is_integer,
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
    "periodogram",
    "cross_periodogram",
    "coherency",
    "estimate_h_logperiodogram",
    "estimate_hxy_logcross",
]

_TWO_PI = 2.0 * math.pi
_WHAT = "spectral ordinates"


# =========================================================================
# Raw ordinates
# =========================================================================


def _fourier_frequencies(t: int) -> np.ndarray:
    return _TWO_PI * np.arange(1, t // 2 + 1) / t


def _dfts(*series) -> tuple[int, list[tuple[np.ndarray, int]]]:
    """The one checked-DFT step that every spectral statistic reads.

    Checks each series in turn (at least 16 observations, not all equal),
    then that a pair has equal lengths, and returns T with ``(DFT, k)`` of
    each de-meaned series scaled by ``2**-k`` at the positive frequencies.
    """
    values = []
    for s in series:
        v = series_values(s)
        if v.size < 16:
            raise SeriesTooShort(f"need at least 16 observations, got {v.size}")
        if is_constant(v):
            raise DegenerateInput("spectral statistics are undefined for a zero-variance series")
        values.append(v)
    t = values[0].size
    if values[-1].size != t:
        raise InvalidInput(f"series lengths differ: {t} vs {values[-1].size}")
    return t, [(np.fft.rfft(v - v.mean())[1:], k) for v, k in map(unit_scaled, values)]


def _cross_parts(dx: np.ndarray, dy: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``dx * conj(dy) / (2 pi T)`` via real arithmetic.

    The auto ordinates are the real part of the self-pair. The product is
    spelled out componentwise so that the self-pair case reproduces
    ``|dx|^2`` bit for bit; numpy's complex multiply may contract with FMA,
    which leaves a one-ulp residue in the imaginary part.
    """
    norm = _TWO_PI * t
    re = dx.real * dy.real + dx.imag * dy.imag
    im = dx.imag * dy.real - dx.real * dy.imag
    return re / norm, im / norm


def periodogram(x) -> tuple[np.ndarray, np.ndarray]:
    """``(frequencies, ordinates)``: ``|DFT|^2 / (2 pi T)`` at the Fourier frequencies.

    The series is de-meaned first (equivalently the zero frequency is
    dropped). Parseval's identity ties the ordinates to the sample variance;
    for a memory exponent H the ordinates decay as ``freq**(1 - 2H)`` toward
    the origin.
    """
    t, ((d, k),) = _dfts(x)
    return _fourier_frequencies(t), scaled_back(_cross_parts(d, d, t)[0], 2 * k, _WHAT)


def cross_periodogram(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``(frequencies, ordinates)``: complex ``DFT_x * conj(DFT_y) / (2 pi T)``.

    With ``y`` equal to ``x`` this reduces exactly to the periodogram (zero
    phase); swapping the arguments conjugates the values.
    """
    t, ((dx, kx), (dy, ky)) = _dfts(x, y)
    re, im = (scaled_back(part, kx + ky, _WHAT) for part in _cross_parts(dx, dy, t))
    return _fourier_frequencies(t), re + 1j * im


# =========================================================================
# Smoothing and coherency
# =========================================================================


def validate_bandwidth(bandwidth) -> int:
    """The smoothing bandwidth as an int; it must be odd and at least 3."""
    if not (is_integer(bandwidth) and bandwidth >= 3 and bandwidth % 2 == 1):
        raise InvalidParameter(f"bandwidth must be an odd integer >= 3, got {bandwidth!r}")
    return int(bandwidth)


def _flat_smooth(values: np.ndarray, bandwidth: int) -> np.ndarray:
    """Flat moving average with truncated windows at the ends."""
    half = bandwidth // 2
    n = values.size
    c = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (c[hi] - c[lo]) / (hi - lo)


def _smoothed_cross(dx: np.ndarray, dy: np.ndarray, t: int, bandwidth: int):
    """Cross ordinates with real and imaginary parts flat-smoothed apart."""
    re, im = _cross_parts(dx, dy, t)
    return _flat_smooth(re, bandwidth), _flat_smooth(im, bandwidth)


def coherency(x, y, bandwidth: int = 11) -> tuple[np.ndarray, np.ndarray]:
    """``(frequencies, K2)``: squared coherency from flat-window smoothed ordinates.

    Smoothing is mandatory: the raw ratio ``|I_xy|^2 / (I_x I_y)`` is
    identically one at every frequency, so the bandwidth must be an odd
    integer of at least 3. Smoothed with equal weights per window, the ratio
    obeys the Cauchy-Schwarz bound and lands in [0, 1]; bands where both
    smoothed spectra carry no power report zero.
    """
    b = validate_bandwidth(bandwidth)
    t, ((dx, _), (dy, _)) = _dfts(x, y)
    sre, sim = _smoothed_cross(dx, dy, t, b)
    sx = _flat_smooth(_cross_parts(dx, dx, t)[0], b)
    sy = _flat_smooth(_cross_parts(dy, dy, t)[0], b)
    num = sre**2 + sim**2
    den = sx * sy
    k2 = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return _fourier_frequencies(t), np.clip(k2, 0.0, 1.0)


# =========================================================================
# Log-periodogram memory estimators
# =========================================================================


def resolve_n_freqs(n_freqs, length: int) -> int:
    """Regression band size, checked against [8, T/4]: ``n_freqs``, or by
    default the ``floor(sqrt(T))`` lowest frequencies, at least 8."""
    if n_freqs is not None and not is_integer(n_freqs):
        raise InvalidInput(f"n_freqs must be an integer, got {n_freqs!r}")
    n = max(8, math.isqrt(int(length))) if n_freqs is None else int(n_freqs)
    if n < 8 or n > length // 4:
        raise InvalidInput(
            f"n_freqs must lie in [8, T/4] = [8, {length // 4}], got {n}"
        )
    return n


def _memory_fit(freqs: np.ndarray, ordinates: np.ndarray) -> ScalingFit:
    """H = (1 - slope) / 2 from an OLS fit of log ordinates on log frequency."""
    fit = fit_positive(freqs, ordinates, -2.0, 3, "dropped_nonpositive")
    return dataclasses.replace(fit, exponent=0.5 + fit.exponent)


def estimate_h_logperiodogram(x, n_freqs: int | None = None) -> ScalingFit:
    """Memory exponent H from the low-frequency periodogram slope.

    Ordinates decay as ``freq**(1 - 2H)``, so H is recovered as
    ``(1 - slope) / 2`` over the ``n_freqs`` lowest frequencies (default
    ``floor(sqrt(T))``). Moment-free on the log scale, which keeps the
    estimate stable under heavy-tailed innovations.
    """
    t, ((d, k),) = _dfts(x)
    n = resolve_n_freqs(n_freqs, t)
    ordinates = scaled_back(_cross_parts(d, d, t)[0][:n], 2 * k, _WHAT)
    return _memory_fit(_fourier_frequencies(t)[:n], ordinates)


def estimate_hxy_logcross(x, y, n_freqs: int | None = None, bandwidth: int = 11) -> ScalingFit:
    """Cross-memory exponent H_xy from the smoothed cross-spectrum magnitude.

    The complex cross-ordinates are smoothed first and the magnitude is taken
    afterwards; magnitude-then-smooth would not vanish for incoherent pairs.
    """
    b = validate_bandwidth(bandwidth)
    t, ((dx, kx), (dy, ky)) = _dfts(x, y)
    n = resolve_n_freqs(n_freqs, t)
    sre, sim = _smoothed_cross(dx, dy, t, b)
    magnitude = scaled_back(np.hypot(sre, sim)[:n], kx + ky, _WHAT)
    fit = _memory_fit(_fourier_frequencies(t)[:n], magnitude)
    fit.diagnostics["bandwidth"] = b
    return fit
