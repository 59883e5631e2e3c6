"""Decay-exponent channels for the squared coherency and DCCA correlation."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcc.arfima import McArfimaSpec, generate_mc_arfima
from plcc.detrended import DetrendConfig, JointFluctuations, default_scale_grid
from plcc.errors import EstimationFailed, InvalidInput, InvalidParameter, PlccError
from plcc.montecarlo import ExperimentConfig, run_experiment, split_seed
from plcc.powerlaw import (
    _fit_power_decay,
    classify,
    coherency_report,
    h_rho_frequency,
    rho_decay,
)


def _standard_spec(rho=0.5):
    sigma = np.full((4, 4), rho)
    np.fill_diagonal(sigma, 1.0)
    return McArfimaSpec(1, 1, 1, 1, 0.3, 0.1, 0.4, 0.2, sigma)


# =========================================================================
# exact synthetic channels
# =========================================================================


def test_frequency_channel_recovers_planted_decay():
    # K^2(w) = w^1.2 decays away from zero frequency; the channel reads
    # the planted exponent -0.3 through its divisor of -4
    from plcc.core import fit_loglog

    w = 2.0 * np.pi * np.arange(1, 65) / 512.0
    fit = fit_loglog(list(zip(w, w**1.2)), divisor=-4.0)
    assert fit.exponent == pytest.approx(-0.3, abs=1e-9)


def test_time_channel_recovers_planted_decay():
    from plcc.core import fit_loglog

    s = np.array([16, 24, 36, 54, 80, 120, 180], dtype=float)
    fit = fit_loglog(list(zip(s, s**-1.2)), divisor=4.0)
    assert fit.exponent == pytest.approx(-0.3, abs=1e-9)


def test_planted_channels_agree_to_machine_precision():
    from plcc.core import fit_loglog

    w = 2.0 * np.pi * np.arange(1, 65) / 512.0
    s = np.array([16, 24, 36, 54, 80, 120, 180], dtype=float)
    freq_fit = fit_loglog(list(zip(w, w**1.2)), divisor=-4.0)
    time_fit = fit_loglog(list(zip(s, s**-1.2)), divisor=4.0)
    assert abs(freq_fit.exponent - time_fit.exponent) < 1e-9


def test_frequency_channel_drops_zero_ordinates():
    # a realized coherency can touch zero; those ordinates carry no log
    x = np.random.default_rng(21).standard_normal(2048)
    y = np.random.default_rng(22).standard_normal(2048)
    fit = h_rho_frequency(x, y, bandwidth=11)
    assert fit.diagnostics["dropped_zero"] >= 0
    assert np.isfinite(fit.exponent)


def test_decay_fit_needs_five_positive_ordinates():
    # a realized rho or coherency is exactly zero almost never, so the gate
    # is tested on the shared fit
    ordinates = np.array([0.5, 0.0, 0.25, 0.0, 0.1, 0.05, 0.0])
    with pytest.raises(EstimationFailed, match="^only 4 positive ordinates survive; need 5$"):
        _fit_power_decay(np.arange(1.0, 8.0), ordinates, divisor=4.0)


def test_time_channel_runs_on_correlated_pair():
    x, y = generate_mc_arfima(_standard_spec(), 4096, split_seed(31, 0))
    fit = rho_decay(JointFluctuations(x, y, DetrendConfig(default_scale_grid(4096))))
    assert np.isfinite(fit.exponent)
    assert fit.stderr >= 0.0


# =========================================================================
# regime classification
# =========================================================================


def test_classify_triples():
    assert classify(0.9, 0.9, 0.9) == "standard"
    assert classify(0.9, 0.9, 0.6) == "anti-cointegration"
    assert classify(0.9, 0.9, 1.0) == "infeasible-flag"
    # asymmetric marginals compare against their average
    assert classify(0.8, 1.0, 0.9) == "standard"
    assert classify(0.8, 1.0, 0.96) == "infeasible-flag"


def test_classify_boundary_uses_tolerance():
    assert classify(0.9, 0.9, 0.86) == "standard"
    assert classify(0.9, 0.9, 0.94) == "standard"
    assert classify(0.9, 0.9, 0.84) == "anti-cointegration"
    assert classify(0.9, 0.9, 0.96) == "infeasible-flag"
    assert classify(0.9, 0.9, 0.7, tol=0.25) == "standard"


def test_classify_validation():
    with pytest.raises(InvalidParameter):
        classify(0.9, 0.9, 0.9, tol=0.0)
    with pytest.raises(InvalidParameter):
        classify(0.9, 0.9, 0.9, tol=-0.1)


def test_settings_validation(monkeypatch):
    # both settings are refused before any detrended pass is built
    def no_pass(*args):
        raise AssertionError("a pass was built")

    monkeypatch.setattr("plcc.powerlaw.JointFluctuations", no_pass)
    x = np.random.default_rng(4).standard_normal(512)
    with pytest.raises(InvalidParameter):
        coherency_report(x, x, bandwidth=10)
    with pytest.raises(InvalidParameter):
        coherency_report(x, x, tolerance=0.0)
    defaults = inspect.signature(coherency_report).parameters
    assert defaults["bandwidth"].default == 11
    assert defaults["tolerance"].default == 0.05


# =========================================================================
# full reports
# =========================================================================


def test_report_standard_process_classification():
    # fully cross-correlated long-memory pair: the cross exponent tracks
    # the average of the marginals and the decay channels hover near zero
    standard = 0
    freq_means, time_means, diff_means = [], [], []
    for rep in range(100):
        x, y = generate_mc_arfima(_standard_spec(), 4096, split_seed(202, rep))
        rep_out = coherency_report(x, y)
        if rep_out.regime == "standard":
            standard += 1
        if rep_out.h_rho_freq is not None:
            freq_means.append(rep_out.h_rho_freq.exponent)
        if rep_out.h_rho_time is not None:
            time_means.append(rep_out.h_rho_time.exponent)
        if rep_out.h_rho_diff is not None:
            diff_means.append(rep_out.h_rho_diff)
    assert standard >= 80
    assert -0.1 < np.mean(freq_means) < 0.1
    assert -0.1 < np.mean(time_means) < 0.1
    assert -0.1 < np.mean(diff_means) < 0.1


def test_report_refuses_an_explicit_band_before_any_pass(monkeypatch):
    # an explicit n_freqs outside [8, T/4] is a usage error, as the CLI
    # treats it, not a frequency-channel failure with regime infeasible-flag
    def no_pass(*args):
        raise AssertionError("a pass was built")

    monkeypatch.setattr("plcc.powerlaw.JointFluctuations", no_pass)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal(1024), rng.standard_normal(1024)
    for n_freqs, message in [
        (3.0, "n_freqs must be an integer, got 3.0"),
        (4, r"n_freqs must lie in \[8, T/4\] = \[8, 256\], got 4"),
        (300, r"n_freqs must lie in \[8, T/4\] = \[8, 256\], got 300"),
    ]:
        with pytest.raises(InvalidInput, match=message):
            coherency_report(x, y, n_freqs=n_freqs)


def test_report_default_band_stays_a_channel_failure():
    # without an explicit n_freqs the band resolves per series, and a
    # series too short for any band fails the frequency channel alone
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal(24), rng.standard_normal(24)
    rep_out = coherency_report(x, y)
    assert rep_out.failures["h_rho_freq"] == "n_freqs must lie in [8, T/4] = [8, 6], got 8"


def test_report_identical_series():
    x = np.random.default_rng(5).standard_normal(4096)
    rep_out = coherency_report(x, x.copy())
    assert rep_out.regime == "standard"
    assert rep_out.rho_at_max_scale == 1.0
    assert rep_out.failures == {}
    assert rep_out.h_x.exponent == rep_out.h_y.exponent
    assert rep_out.h_xy.exponent == rep_out.h_x.exponent


def test_report_records_failures_instead_of_raising():
    # a short series kills the time-domain channel but the report survives
    x = np.random.default_rng(6).standard_normal(4096)
    y = np.random.default_rng(7).standard_normal(4096)
    rep_out = coherency_report(x, y)
    for key, message in rep_out.failures.items():
        assert isinstance(key, str)
        assert isinstance(message, str)
    # channels that failed are None, everything else is a fit
    for name in ("h_rho_freq", "h_rho_time"):
        val = getattr(rep_out, name)
        assert val is None or np.isfinite(val.exponent)
    # the diff field is the scaling gap, defined whenever all three
    # exponents resolved
    assert rep_out.h_rho_diff == pytest.approx(
        rep_out.h_xy.exponent - (rep_out.h_x.exponent + rep_out.h_y.exponent) / 2.0
    )


# =========================================================================
# one fluctuation pass, read by every consumer
# =========================================================================


def _outcome(fn, *args):
    """A fit or value, or the message of the error that replaced it."""
    try:
        return fn(*args)
    except PlccError as exc:
        return str(exc)


def _channel(report, name):
    fit = getattr(report, name)
    return report.failures[name] if fit is None else fit


@pytest.mark.parametrize(
    "length, detrend, reason",
    [
        # the pass is built, and every curve refuses a grid too wide for it
        (1024, DetrendConfig(default_scale_grid(4096)), "largest scale 819 exceeds T/5 = 204"),
        # no default grid fits, so no pass is built; the band still does
        (64, None, "length 64 yields fewer than 5 distinct scales"),
        # neither fits
        (24, None, "length 24 leaves no admissible scales for order 1"),
    ],
)
def test_report_fails_every_detrended_channel_with_the_pass_reason(length, detrend, reason):
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal(length), rng.standard_normal(length)
    rep = coherency_report(x, y, detrend=detrend)
    detrended = [name for name in rep.failures if name != "h_rho_freq"]
    assert detrended == ["h_x", "h_y", "h_xy", "h_rho_time"]
    assert all(rep.failures[name] == reason for name in detrended)
    assert rep.rho_curve is None and rep.rho_at_max_scale is None and rep.regime is None
    assert _channel(rep, "h_rho_freq") == _outcome(h_rho_frequency, x, y)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(512, 4096),
    order=st.integers(1, 2),
)
def test_report_and_mc_equal_standalone_estimators(seed, length, order):
    # the report's single pass and the Monte Carlo reads must reproduce the
    # standalone estimators bit for bit, fit diagnostics included
    spec = _standard_spec()
    cfg = DetrendConfig(default_scale_grid(length, order), order)
    x, y = generate_mc_arfima(spec, length, seed)
    rep = coherency_report(x, y, detrend=cfg)
    assert _channel(rep, "h_x") == _outcome(lambda: JointFluctuations(x, None, cfg).hurst_x())
    assert _channel(rep, "h_y") == _outcome(lambda: JointFluctuations(y, None, cfg).hurst_x())
    assert _channel(rep, "h_xy") == _outcome(lambda: JointFluctuations(x, y, cfg).hxy())
    assert _channel(rep, "h_rho_time") == _outcome(lambda: rho_decay(JointFluctuations(x, y, cfg)))
    assert rep.rho_at_max_scale == JointFluctuations(x, y, cfg).rho()[-1]

    mc_cfg = ExperimentConfig(
        spec=spec, lengths=(length,), replications=2, master_seed=seed,
        estimators=("dfa", "rho", "beta", "h_rho_time"), poly_order=order,
    )
    res = run_experiment(mc_cfg)
    for r in range(2):
        px, py = generate_mc_arfima(spec, length, split_seed(seed, r))
        library = {
            "dfa_hx": JointFluctuations(px, None, cfg).hurst_x().exponent,
            "dfa_hy": JointFluctuations(py, None, cfg).hurst_x().exponent,
            "rho_median": float(np.median(JointFluctuations(px, py, cfg).rho())),
            "beta_median": float(np.median(JointFluctuations(px, py, cfg).beta())),
            "h_rho_time": rho_decay(JointFluctuations(px, py, cfg)).exponent,
        }
        for name, value in library.items():
            assert res.samples(name, length)[r] == value, name
