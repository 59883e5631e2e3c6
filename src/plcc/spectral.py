"""Periodogram, cross-periodogram, smoothed squared coherency and
log-periodogram memory estimators.

All ordinates live on the Fourier frequencies ``2 pi j / T`` for
``j = 1 .. T // 2``; the zero frequency is excluded throughout. The
normalization is ``1 / (2 pi T)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import ScalingFit, fit_loglog, series_values
from .errors import (
    DegenerateInput,
    EstimationFailed,
    InvalidInput,
    InvalidParameter,
    SeriesTooShort,
)

__all__ = [
    "SpectralEstimate",
    "periodogram",
    "cross_periodogram",
    "coherency",
    "estimate_h_logperiodogram",
    "estimate_hxy_logcross",
    "default_n_freqs",
]

_TWO_PI = 2.0 * math.pi
_KINDS = ("auto", "cross", "coherency")


@dataclass(frozen=True, eq=False)
class SpectralEstimate:
    """Ordinates on the positive Fourier frequencies.

    ``values`` is real for kind "auto" (non-negative) and "coherency"
    (within [0, 1]), complex for kind "cross". ``smoothing_bandwidth`` is 1
    for raw ordinates.
    """

    frequencies: np.ndarray
    values: np.ndarray
    kind: str
    smoothing_bandwidth: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameter(f"kind must be one of {_KINDS}, got {self.kind!r}")
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values)
        if f.size != v.size:
            raise InvalidInput("frequencies and values must have equal length")
        if f.size and (f[0] <= 0 or f[-1] > math.pi + 1e-12):
            raise InvalidInput("frequencies must lie in (0, pi]")
        b = int(self.smoothing_bandwidth)
        if b < 1 or b % 2 == 0:
            raise InvalidParameter("smoothing_bandwidth must be an odd positive integer")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "smoothing_bandwidth", b)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.values)


# =========================================================================
# Raw ordinates
# =========================================================================


def _fourier_frequencies(t: int) -> np.ndarray:
    return _TWO_PI * np.arange(1, t // 2 + 1) / t


def _checked(x, min_length: int = 16) -> np.ndarray:
    v = series_values(x)
    if v.size < min_length:
        raise SeriesTooShort(f"need at least {min_length} observations, got {v.size}")
    if v.std() == 0.0:
        raise DegenerateInput("spectral statistics are undefined for a zero-variance series")
    return v


def _demeaned_dft(v: np.ndarray) -> np.ndarray:
    return np.fft.rfft(v - v.mean())[1:]


def _cross_parts(dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``dx * conj(dy)`` via real arithmetic.

    Spelled out componentwise so that the self-pair case reproduces the
    auto ordinates bit for bit; numpy's complex multiply may contract with
    FMA, which leaves a one-ulp residue in the imaginary part.
    """
    re = dx.real * dy.real + dx.imag * dy.imag
    im = dx.imag * dy.real - dx.real * dy.imag
    return re, im


def periodogram(x) -> SpectralEstimate:
    """Periodogram ordinates ``|DFT|^2 / (2 pi T)`` at the Fourier frequencies.

    The series is de-meaned first (equivalently the zero frequency is
    dropped). Parseval's identity ties the ordinates to the sample variance;
    for a memory exponent H the ordinates decay as ``freq**(1 - 2H)`` toward
    the origin.
    """
    v = _checked(x)
    d = _demeaned_dft(v)
    values = (d.real**2 + d.imag**2) / (_TWO_PI * v.size)
    return SpectralEstimate(_fourier_frequencies(v.size), values, "auto")


def cross_periodogram(x, y) -> SpectralEstimate:
    """Complex cross-ordinates ``DFT_x * conj(DFT_y) / (2 pi T)``.

    With ``y`` equal to ``x`` this reduces exactly to the periodogram (zero
    phase); swapping the arguments conjugates the values.
    """
    vx = _checked(x)
    vy = _checked(y)
    if vx.size != vy.size:
        raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
    re, im = _cross_parts(_demeaned_dft(vx), _demeaned_dft(vy))
    norm = _TWO_PI * vx.size
    values = re / norm + 1j * (im / norm)
    return SpectralEstimate(_fourier_frequencies(vx.size), values, "cross")


# =========================================================================
# Smoothing and coherency
# =========================================================================


def validate_bandwidth(bandwidth) -> int:
    """The smoothing bandwidth as an int; it must be odd and at least 3."""
    b = int(bandwidth)
    if b != bandwidth or b < 3 or b % 2 == 0:
        raise InvalidParameter(f"bandwidth must be an odd integer >= 3, got {bandwidth!r}")
    return b


def _flat_smooth(values: np.ndarray, bandwidth: int) -> np.ndarray:
    """Flat moving average with truncated windows at the ends."""
    half = bandwidth // 2
    n = values.size
    c = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (c[hi] - c[lo]) / (hi - lo)


def _flat_smooth_complex(values: np.ndarray, bandwidth: int) -> np.ndarray:
    return _flat_smooth(values.real, bandwidth) + 1j * _flat_smooth(values.imag, bandwidth)


def coherency(x, y, bandwidth: int = 11) -> SpectralEstimate:
    """Squared spectral coherency from flat-window smoothed ordinates.

    Smoothing is mandatory: the raw ratio ``|I_xy|^2 / (I_x I_y)`` is
    identically one at every frequency, so the bandwidth must be an odd
    integer of at least 3. Smoothed with equal weights per window, the ratio
    obeys the Cauchy-Schwarz bound and lands in [0, 1]; bands where both
    smoothed spectra carry no power report zero.
    """
    b = validate_bandwidth(bandwidth)
    vx = _checked(x)
    vy = _checked(y)
    if vx.size != vy.size:
        raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
    if vx.std() == 0.0 or vy.std() == 0.0:
        raise DegenerateInput("coherency is undefined for a zero-variance series")
    t = vx.size
    dx = _demeaned_dft(vx)
    dy = _demeaned_dft(vy)
    norm = _TWO_PI * t
    cross_re, cross_im = _cross_parts(dx, dy)
    auto_x = (dx.real**2 + dx.imag**2) / norm
    auto_y = (dy.real**2 + dy.imag**2) / norm
    sre = _flat_smooth(cross_re / norm, b)
    sim = _flat_smooth(cross_im / norm, b)
    sx = _flat_smooth(auto_x, b)
    sy = _flat_smooth(auto_y, b)
    num = sre**2 + sim**2
    den = sx * sy
    k2 = np.zeros_like(num)
    live = den > 0
    k2[live] = num[live] / den[live]
    k2 = np.clip(k2, 0.0, 1.0)
    return SpectralEstimate(_fourier_frequencies(t), k2, "coherency", b)


# =========================================================================
# Log-periodogram memory estimators
# =========================================================================


def default_n_freqs(length: int) -> int:
    """Default regression band: ``floor(sqrt(T))`` lowest frequencies."""
    return max(8, math.isqrt(int(length)))


def resolve_n_freqs(n_freqs, length: int) -> int:
    """Regression band size: ``n_freqs`` checked against [8, T/4], or the default."""
    n = default_n_freqs(length) if n_freqs is None else int(n_freqs)
    if n_freqs is not None and n != n_freqs:
        raise InvalidInput("n_freqs must be an integer")
    if n < 8 or n > length // 4:
        raise InvalidInput(
            f"n_freqs must lie in [8, T/4] = [8, {length // 4}], got {n}"
        )
    return n


def _memory_fit(freqs: np.ndarray, ordinates: np.ndarray) -> ScalingFit:
    """H = (1 - slope) / 2 from an OLS fit of log ordinates on log frequency."""
    ords = np.asarray(ordinates, dtype=float)
    keep = ords > 0
    dropped = int(ords.size - np.count_nonzero(keep))
    if int(np.count_nonzero(keep)) < 3:
        raise EstimationFailed("fewer than 3 positive ordinates in the regression band")
    fit = fit_loglog(np.column_stack([freqs[keep], ords[keep]]), divisor=-2.0)
    return dataclasses.replace(
        fit,
        exponent=0.5 + fit.exponent,
        diagnostics={"dropped_nonpositive": dropped},
    )


def estimate_h_logperiodogram(x, n_freqs: int | None = None) -> ScalingFit:
    """Memory exponent H from the low-frequency periodogram slope.

    Ordinates decay as ``freq**(1 - 2H)``, so H is recovered as
    ``(1 - slope) / 2`` over the ``n_freqs`` lowest frequencies (default
    ``floor(sqrt(T))``). Moment-free on the log scale, which keeps the
    estimate stable under heavy-tailed innovations.
    """
    v = _checked(x)
    n = resolve_n_freqs(n_freqs, v.size)
    est = periodogram(v)
    return _memory_fit(est.frequencies[:n], est.values[:n])


def estimate_hxy_logcross(x, y, n_freqs: int | None = None, bandwidth: int = 11) -> ScalingFit:
    """Cross-memory exponent H_xy from the smoothed cross-spectrum magnitude.

    The complex cross-ordinates are smoothed first and the magnitude is taken
    afterwards; magnitude-then-smooth would not vanish for incoherent pairs.
    """
    b = validate_bandwidth(bandwidth)
    vx = _checked(x)
    vy = _checked(y)
    if vx.size != vy.size:
        raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
    n = resolve_n_freqs(n_freqs, vx.size)
    est = cross_periodogram(vx, vy)
    sm = _flat_smooth_complex(est.values, b)
    mag = np.hypot(sm.real, sm.imag)
    fit = _memory_fit(est.frequencies[:n], mag[:n])
    fit.diagnostics["bandwidth"] = b
    return fit
