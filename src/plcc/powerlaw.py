"""Power-law coherency: joint decay of scale-specific correlation and
squared spectral coherency, with feasibility-aware regime classification.

The decay exponent ``H_rho = H_xy - (H_x + H_y) / 2`` is never positive for
a true power-law pair, because squared coherency is bounded by one. It can
be read off three ways: from the squared coherency near the origin
(``K2 ~ freq**(-4 H_rho)``), from the squared scale-specific correlation at
large scales (``rho2 ~ scale**(4 H_rho)``), or as the difference of the
separately estimated exponents. Estimates above zero are finite-sample
artifacts and are flagged, not interpreted.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from .core import ScalingFit, fit_positive, require_positive, series_values
from .detrended import DetrendConfig, JointFluctuations, default_scale_grid
from .errors import PlccError
from .spectral import coherency, resolve_n_freqs, validate_bandwidth

__all__ = [
    "REGIME_STANDARD",
    "REGIME_ANTI_COINTEGRATION",
    "REGIME_INFEASIBLE",
    "CoherencyReport",
    "h_rho_frequency",
    "rho_decay",
    "classify",
    "coherency_report",
]

REGIME_STANDARD = "standard"
REGIME_ANTI_COINTEGRATION = "anti-cointegration"
REGIME_INFEASIBLE = "infeasible-flag"


def _fit_power_decay(abscissa, ordinates, divisor: float) -> ScalingFit:
    """Shared OLS core of both decay channels: drop zeros, fit, divide."""
    fit, dropped = fit_positive(abscissa, ordinates, divisor, 5)
    return dataclasses.replace(fit, diagnostics={"dropped_zero": dropped})


def h_rho_frequency(x, y, n_freqs: int | None = None, bandwidth: int = 11) -> ScalingFit:
    """Coherency-decay exponent from smoothed squared coherency near the origin.

    Fits ``log K2`` on ``log freq`` over the ``n_freqs`` lowest frequencies
    and divides the slope by -4. Zero ordinates are dropped (reported as
    ``diagnostics["dropped_zero"]``); fewer than 5 survivors fail.
    """
    b = validate_bandwidth(bandwidth)
    vx = series_values(x)
    n = resolve_n_freqs(n_freqs, vx.size)
    freqs, k2 = coherency(vx, y, b)
    return _fit_power_decay(freqs[:n], k2[:n], divisor=-4.0)


def rho_decay(jf: JointFluctuations) -> ScalingFit:
    """Coherency-decay exponent from the squared scale-specific correlation.

    Fits ``log rho2(s)`` on ``log s`` over the scales of the pass and divides
    the slope by 4. Zero coefficients are dropped; fewer than 5 survivors
    fail.
    """
    rho = jf.rho()
    return _fit_power_decay(jf.scales, rho * rho, divisor=4.0)


def classify(hx: float, hy: float, hxy: float, tol: float = 0.05) -> str:
    """Regime of a (H_x, H_y, H_xy) triple against the feasibility bound.

    "standard" when H_xy matches the average of H_x and H_y within ``tol``;
    "anti-cointegration" when it falls more than ``tol`` below;
    "infeasible-flag" when it exceeds the average by more than ``tol``,
    which no power-law pair can sustain and therefore marks an estimation
    artifact.
    """
    require_positive("tol", tol)
    average = (hx + hy) / 2.0
    if hxy > average + tol:
        return REGIME_INFEASIBLE
    if hxy < average - tol:
        return REGIME_ANTI_COINTEGRATION
    return REGIME_STANDARD


@dataclass(frozen=True)
class CoherencyReport:
    """Three-channel power-law coherency summary for one pair of series.

    Channels that fail carry None, with the reason recorded in ``failures``
    under the field name. ``rho_curve`` holds the ``(scale, rho)`` pairs the
    time-domain channel was fitted on, or None when they are undefined.
    ``rho_at_max_scale`` is reported for inspection only; a strongly
    negative value is not a cointegration claim.
    """

    h_x: ScalingFit | None
    h_y: ScalingFit | None
    h_xy: ScalingFit | None
    h_rho_freq: ScalingFit | None
    h_rho_time: ScalingFit | None
    h_rho_diff: float | None
    regime: str | None
    rho_at_max_scale: float | None
    failures: dict = field(default_factory=dict)
    rho_curve: list[tuple[int, float]] | None = None


def coherency_report(
    x,
    y,
    *,
    detrend: DetrendConfig | None = None,
    n_freqs: int | None = None,
    bandwidth: int = 11,
    tolerance: float = 0.05,
) -> CoherencyReport:
    """Estimate all three decay channels plus the regime for one pair.

    Unset settings resolve against the series length: ``detrend`` to the
    default scale grid, ``n_freqs`` to ``floor(sqrt(T))`` frequencies. The
    bandwidth, an explicit ``n_freqs`` and the classification ``tolerance``
    are checked before any pass. Every detrended channel reads one
    :class:`JointFluctuations` pass. The regime comes from :func:`classify`
    applied to the detrended exponents, so it is only available when H_x,
    H_y and H_xy all estimate cleanly.
    """
    bandwidth = validate_bandwidth(bandwidth)
    require_positive("tolerance", tolerance)
    vx = series_values(x)
    vy = series_values(y)
    if n_freqs is not None:
        n_freqs = resolve_n_freqs(n_freqs, vx.size)
    failures: dict = {}

    def attempt(name, fn, *args):
        try:
            return fn(*args)
        except PlccError as exc:
            failures[name] = str(exc)
            return None

    # one pass serves every detrended channel; a pass that cannot be built
    # fails each of them with its reason
    fluct = functools.cache(
        lambda: JointFluctuations(
            vx, vy, DetrendConfig(default_scale_grid(vx.size)) if detrend is None else detrend
        )
    )
    h_x = attempt("h_x", lambda: fluct().hurst_x())
    h_y = attempt("h_y", lambda: fluct().hurst_y())
    h_xy = attempt("h_xy", lambda: fluct().hxy())
    h_rho_freq = attempt("h_rho_freq", h_rho_frequency, vx, vy, n_freqs, bandwidth)
    rho = attempt("h_rho_time", lambda: fluct().rho())
    rho_curve = h_rho_time_fit = None
    if rho is not None:
        rho_curve = [(int(s), float(r)) for s, r in zip(fluct().scales, rho)]
        h_rho_time_fit = attempt("h_rho_time", rho_decay, fluct())

    h_rho_diff = None
    regime = None
    if h_x is not None and h_y is not None and h_xy is not None:
        h_rho_diff = h_xy.exponent - (h_x.exponent + h_y.exponent) / 2.0
        regime = classify(h_x.exponent, h_y.exponent, h_xy.exponent, tolerance)

    return CoherencyReport(
        h_x=h_x,
        h_y=h_y,
        h_xy=h_xy,
        h_rho_freq=h_rho_freq,
        h_rho_time=h_rho_time_fit,
        h_rho_diff=h_rho_diff,
        regime=regime,
        rho_at_max_scale=None if rho_curve is None else rho_curve[-1][1],
        failures=failures,
        rho_curve=rho_curve,
    )
