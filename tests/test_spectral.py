"""Frequency-domain statistics against a direct-summation DFT oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcc.arfima import McArfimaSpec, generate_arfima, generate_mc_arfima
from plcc.core import fit_loglog
from plcc.errors import (
    DegenerateInput,
    EstimationFailed,
    InvalidInput,
    InvalidParameter,
    PlccError,
    SeriesTooShort,
)
from plcc.montecarlo import split_seed
from plcc.powerlaw import h_rho_frequency
from plcc.spectral import (
    _memory_fit,
    coherency,
    cross_periodogram,
    estimate_h_logperiodogram,
    estimate_hxy_logcross,
    periodogram,
    resolve_n_freqs,
)

TWO_PI = 2.0 * np.pi


def _dft_oracle(x):
    """O(T^2) transform of the demeaned series, positive frequencies only."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    t = x.size
    ks = np.arange(1, t // 2 + 1)
    out = np.empty(ks.size, dtype=complex)
    n = np.arange(t)
    for i, k in enumerate(ks):
        w = np.exp(-2j * np.pi * k * n / t)
        out[i] = np.sum(x * w)
    return out


# =========================================================================
# grids and raw ordinates
# =========================================================================


def test_frequency_grid_values():
    for t in (255, 256):
        freqs, _ = periodogram(np.random.default_rng(t).standard_normal(t))
        assert freqs.size == t // 2
        assert np.array_equal(freqs, TWO_PI * np.arange(1, t // 2 + 1) / t)


def test_periodogram_matches_direct_summation():
    x = np.random.default_rng(7).standard_normal(256)
    d = _dft_oracle(x)
    ref = (d.real**2 + d.imag**2) / (TWO_PI * 256)
    assert np.allclose(periodogram(x)[1], ref, rtol=1e-10, atol=1e-14)


def test_cross_periodogram_matches_direct_summation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(256)
    y = rng.standard_normal(256)
    ref = _dft_oracle(x) * np.conj(_dft_oracle(y)) / (TWO_PI * 256)
    _, got = cross_periodogram(x, y)
    assert np.allclose(got.real, ref.real, rtol=1e-10, atol=1e-14)
    assert np.allclose(got.imag, ref.imag, rtol=1e-10, atol=1e-14)


def test_total_power_matches_variance_odd_lengths():
    # for odd T the positive-frequency ordinates carry exactly the sample
    # variance (ddof=1 absorbs the T/(T-1) factor)
    for t, seed in ((255, 1), (1023, 2)):
        x = np.random.default_rng(seed).standard_normal(t)
        total = np.mean(periodogram(x)[1]) * TWO_PI
        assert total == pytest.approx(np.var(x, ddof=1), rel=1e-8)


def test_total_power_even_length_documented_gap():
    # even T leaves the Nyquist term out of the positive-frequency sum; the
    # shortfall is O(1/T), not a bug
    x = np.random.default_rng(3).standard_normal(4096)
    total = np.mean(periodogram(x)[1]) * TWO_PI
    rel = abs(total - np.var(x, ddof=1)) / np.var(x, ddof=1)
    assert rel < 4.0 / 4096


def test_pure_cosine_concentrates_at_its_line():
    t = 1024
    j = 37
    x = np.cos(TWO_PI * j * np.arange(t) / t)
    _, ords = periodogram(x)
    rest = np.delete(ords, j - 1)
    assert ords[j - 1] / rest.max() > 1e6


def test_white_noise_flat_level():
    x = np.random.default_rng(42).standard_normal(16384)
    assert np.mean(periodogram(x)[1]) == pytest.approx(1.0 / TWO_PI, rel=0.02)


def test_lag_shift_phase():
    # circular shift delays the second series by one sample; conjugation in
    # the cross spectrum turns that into a phase of +w exactly
    x = np.random.default_rng(11).standard_normal(512)
    freqs, cross = cross_periodogram(x, np.roll(x, 1))
    phase = np.unwrap(np.angle(cross))
    assert np.allclose(phase, freqs, atol=1e-8)


# =========================================================================
# exact identities
# =========================================================================


@pytest.fixture()
def spectra_pair():
    rng = np.random.default_rng(600)
    return rng.standard_normal(1024), rng.standard_normal(1024)


# Seeds and lengths in [16, 4096], both parities; the explicit examples pin
# the shortest and longest of each.
_PAIR_DRAWS = dict(seed=st.integers(0, 2**32 - 1), length=st.integers(16, 4096))


def _draw_pair(seed, length):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length), rng.standard_normal(length)


def _pair_examples(test):
    for length in (16, 17, 4095, 4096):
        test = example(seed=600, length=length)(test)
    return settings(max_examples=50, deadline=None)(given(**_PAIR_DRAWS)(test))


@_pair_examples
def test_cross_self_equals_periodogram_bitwise(seed, length):
    x, _ = _draw_pair(seed, length)
    _, auto = periodogram(x)
    _, cross = cross_periodogram(x, x.copy())
    assert np.array_equal(cross.real, auto)
    assert np.all(cross.imag == 0.0)


@_pair_examples
def test_cross_swap_conjugates_bitwise(seed, length):
    x, y = _draw_pair(seed, length)
    _, fwd = cross_periodogram(x, y)
    _, rev = cross_periodogram(y, x)
    assert np.array_equal(fwd.real, rev.real)
    assert np.array_equal(fwd.imag, -rev.imag)


@_pair_examples
def test_coherency_self_is_exactly_one(seed, length):
    x, _ = _draw_pair(seed, length)
    _, k2 = coherency(x, x.copy(), bandwidth=11)
    assert np.all(k2 == 1.0)


@_pair_examples
def test_coherency_symmetric_and_bounded(seed, length):
    x, y = _draw_pair(seed, length)
    _, fwd = coherency(x, y, bandwidth=11)
    _, rev = coherency(y, x, bandwidth=11)
    assert np.array_equal(fwd, rev)
    assert np.all((fwd >= 0.0) & (fwd <= 1.0))


_WEIGHTS = st.floats(-4.0, 4.0).filter(lambda w: abs(w) >= 0.25)


@settings(max_examples=50, deadline=None)
@given(**_PAIR_DRAWS, a=_WEIGHTS, b=_WEIGHTS)
def test_cross_periodogram_bilinear_in_first_argument(seed, length, a, b):
    x1, x2, y = np.random.default_rng(seed).standard_normal((3, length))
    _, got = cross_periodogram(a * x1 + b * x2, y)
    want = a * cross_periodogram(x1, y)[1] + b * cross_periodogram(x2, y)[1]
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_unsmoothed_ratio_is_identically_one(spectra_pair):
    # this is why smoothing is not optional: the raw ratio collapses to 1
    # for any pair whatsoever
    x, y = spectra_pair
    _, cross = cross_periodogram(x, y)
    _, ix = periodogram(x)
    _, iy = periodogram(y)
    raw = (cross.real**2 + cross.imag**2) / (ix * iy)
    assert np.allclose(raw, 1.0, rtol=1e-9)


def test_bandwidth_validation(spectra_pair):
    x, y = spectra_pair
    with pytest.raises(InvalidParameter):
        coherency(x, y, bandwidth=1)
    with pytest.raises(InvalidParameter):
        coherency(x, y, bandwidth=10)
    with pytest.raises(InvalidInput):
        cross_periodogram(x, y[:-1])
    with pytest.raises(DegenerateInput):
        periodogram(np.zeros(128))


# The error contract of the six spectral entry points: which exception, with
# which message, fires on each fault and on each pair of faults, so the order
# of the checks is pinned too. Faults apply in the order listed.
_FAULTS = {
    "short": lambda a: {**a, "x": a["x"][:10], "y": a["y"][:10]},
    "unequal": lambda a: {**a, "y": a["y"][:-1]},
    "flat_x": lambda a: {**a, "x": np.zeros(a["x"].size)},
    "flat_y": lambda a: {**a, "y": np.zeros(a["y"].size)},
    "bandwidth": lambda a: {**a, "bandwidth": 4},
    "n_freqs": lambda a: {**a, "n_freqs": 7},
}
_ENTRY_POINTS = (
    lambda a: periodogram(a["x"]),
    lambda a: cross_periodogram(a["x"], a["y"]),
    lambda a: coherency(a["x"], a["y"], a["bandwidth"]),
    lambda a: estimate_h_logperiodogram(a["x"], a["n_freqs"]),
    lambda a: estimate_hxy_logcross(a["x"], a["y"], a["n_freqs"], a["bandwidth"]),
    lambda a: h_rho_frequency(a["x"], a["y"], a["n_freqs"], a["bandwidth"]),
)
OK = None
SHORT = (SeriesTooShort, "need at least 16 observations, got 10")
FLAT = (DegenerateInput, "spectral statistics are undefined for a zero-variance series")
UNEQUAL = (InvalidInput, "series lengths differ: 256 vs 255")
BW = (InvalidParameter, "bandwidth must be an odd integer >= 3, got 4")
N7 = (InvalidInput, "n_freqs must lie in [8, T/4] = [8, 64], got 7")
N7_SHORT = (InvalidInput, "n_freqs must lie in [8, T/4] = [8, 2], got 7")
N8_SHORT = (InvalidInput, "n_freqs must lie in [8, T/4] = [8, 2], got 8")
# columns: periodogram, cross_periodogram, coherency,
# estimate_h_logperiodogram, estimate_hxy_logcross, h_rho_frequency
_ERROR_CONTRACT = {
    "short": (SHORT, SHORT, SHORT, SHORT, SHORT, N8_SHORT),
    "unequal": (OK, UNEQUAL, UNEQUAL, OK, UNEQUAL, UNEQUAL),
    "flat_x": (FLAT, FLAT, FLAT, FLAT, FLAT, FLAT),
    "flat_y": (OK, FLAT, FLAT, OK, FLAT, FLAT),
    "bandwidth": (OK, OK, BW, OK, BW, BW),
    "n_freqs": (OK, OK, OK, N7, N7, N7),
    "short unequal": (SHORT, SHORT, SHORT, SHORT, SHORT, N8_SHORT),
    "short flat_x": (SHORT, SHORT, SHORT, SHORT, SHORT, N8_SHORT),
    "short flat_y": (SHORT, SHORT, SHORT, SHORT, SHORT, N8_SHORT),
    "short bandwidth": (SHORT, SHORT, BW, SHORT, BW, BW),
    "short n_freqs": (SHORT, SHORT, SHORT, SHORT, SHORT, N7_SHORT),
    "unequal flat_x": (FLAT, FLAT, FLAT, FLAT, FLAT, FLAT),
    "unequal flat_y": (OK, FLAT, FLAT, OK, FLAT, FLAT),
    "unequal bandwidth": (OK, UNEQUAL, BW, OK, BW, BW),
    "unequal n_freqs": (OK, UNEQUAL, UNEQUAL, N7, UNEQUAL, N7),
    "flat_x flat_y": (FLAT, FLAT, FLAT, FLAT, FLAT, FLAT),
    "flat_x bandwidth": (FLAT, FLAT, BW, FLAT, BW, BW),
    "flat_x n_freqs": (FLAT, FLAT, FLAT, FLAT, FLAT, N7),
    "flat_y bandwidth": (OK, FLAT, BW, OK, BW, BW),
    "flat_y n_freqs": (OK, FLAT, FLAT, N7, FLAT, N7),
    "bandwidth n_freqs": (OK, OK, BW, N7, BW, BW),
}


@pytest.mark.parametrize("value", [0.1, 0.3, 7.7, 1.5])
def test_constant_side_is_flat_whatever_its_mean(value):
    # the mean of np.full(n, 0.1) is inexact, so its std is about 1e-17, not 0
    live = np.random.default_rng(2024).standard_normal(256)
    const = np.full(256, value)
    for args, calls in (
        ({"x": const, "y": live}, _ENTRY_POINTS),
        ({"x": live, "y": const}, _ENTRY_POINTS[1:3] + _ENTRY_POINTS[4:]),
    ):
        for call in calls:
            with pytest.raises(PlccError) as info:
                call({**args, "bandwidth": 11, "n_freqs": None})
            assert (type(info.value), str(info.value)) == FLAT


def test_error_contract_table():
    rng = np.random.default_rng(2024)
    base = {
        "x": rng.standard_normal(256),
        "y": rng.standard_normal(256),
        "bandwidth": 11,
        "n_freqs": None,
    }
    assert len(_ERROR_CONTRACT) == 21  # every fault alone and every pair
    for case, expected in _ERROR_CONTRACT.items():
        args = base
        for fault in case.split():
            args = _FAULTS[fault](args)
        for call, want in zip(_ENTRY_POINTS, expected):
            if want is OK:
                call(args)
                continue
            with pytest.raises(PlccError) as info:
                call(args)
            assert (type(info.value), str(info.value)) == want, case


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_spectra_of_values_too_large_to_square_are_refused():
    # finite values whose ordinates, or whose squared cross ordinates,
    # overflow used to yield NaN or an all-zero coherency
    x, y = np.random.default_rng(9).standard_normal((2, 256))
    message = "^spectral ordinates overflow: rescale the series$"
    for run in (
        lambda: periodogram(x * 1e160),
        lambda: estimate_hxy_logcross(x * 1e160, y * 1e160),
        lambda: coherency(np.copysign(1e308, x), y),
        lambda: coherency(x * 1e100, y * 1e100),
    ):
        with pytest.raises(InvalidInput, match=message):
            run()
    # one side that large is fine where it meets only a unit side
    estimate_hxy_logcross(x, y * 1e160)


def test_memory_fit_needs_three_positive_ordinates():
    # a constant side is refused before any transform, and the periodogram
    # of any other series is exactly zero almost never
    freqs = np.linspace(0.1, 0.5, 5)
    with pytest.raises(EstimationFailed, match="^only 2 positive ordinates; need 3$"):
        _memory_fit(freqs, np.array([1.0, 0.0, 0.0, 2.0, 0.0]))


# =========================================================================
# coherency bands on known processes
# =========================================================================


def test_independent_pair_coherency_near_smoothing_floor():
    # flat-window smoothing over 11 ordinates leaves E[K^2] near 1/11
    acc = []
    for rep in range(20):
        u = np.random.default_rng(split_seed(5001, rep)).standard_normal(4096)
        v = np.random.default_rng(split_seed(5002, rep)).standard_normal(4096)
        _, k2 = coherency(u, v, bandwidth=11)
        assert np.all((k2 >= 0.0) & (k2 <= 1.0))
        acc.append(np.mean(k2))
    assert 0.05 < np.mean(acc) < 0.15


def test_anticorrelated_memory_lowers_low_frequency_coherency():
    # antipersistent cross-correlation: K^2 decays toward zero frequency
    sigma = np.eye(4)
    sigma[0, 2] = sigma[2, 0] = 0.9
    spec = McArfimaSpec(1, 1, 1, 1, 0.1, 0.4, 0.1, 0.4, sigma)
    hits = 0
    for rep in range(10):
        x, y = generate_mc_arfima(spec, 8192, split_seed(606, rep))
        _, k2 = coherency(x, y, bandwidth=31)
        usable = k2[15:-15]  # half-bandwidth edges are partially smoothed
        low = np.mean(usable[:10])
        mid = np.median(usable)
        if low < mid:
            hits += 1
    assert hits >= 8


# =========================================================================
# slope estimators
# =========================================================================


def test_synthetic_power_law_recovers_exponent_exactly():
    # ordinates manufactured as w^-0.8 make the fit deterministic: the raw
    # log-log slope over -2 gives the memory parameter 0.4, and the
    # estimator's fitting routine adds the random-walk baseline
    from plcc.spectral import _memory_fit

    freqs, _ = periodogram(np.random.default_rng(1).standard_normal(512))
    freqs = freqs[:64]
    raw = fit_loglog(list(zip(freqs, freqs**-0.8)), divisor=-2.0)
    assert raw.exponent == pytest.approx(0.4, abs=1e-9)
    assert raw.stderr < 1e-12
    shifted = _memory_fit(freqs, freqs**-0.8)
    assert shifted.exponent == pytest.approx(0.9, abs=1e-9)


def test_default_n_freqs_and_bounds():
    assert resolve_n_freqs(None, 16384) == 128
    assert resolve_n_freqs(None, 64) == 8
    x = np.random.default_rng(0).standard_normal(256)
    with pytest.raises(InvalidInput):
        estimate_h_logperiodogram(x, n_freqs=7)
    with pytest.raises(InvalidInput):
        estimate_h_logperiodogram(x, n_freqs=100)  # above T/4


def test_log_periodogram_white_noise_centered():
    vals = []
    for rep in range(100):
        w = np.random.default_rng(split_seed(1005, rep)).standard_normal(4096)
        vals.append(estimate_h_logperiodogram(w).exponent)
    assert 0.42 < np.mean(vals) < 0.58


def test_log_periodogram_long_memory_slope():
    vals = []
    for rep in range(30):
        a = generate_arfima(0.4, 8192, split_seed(1007, rep))
        vals.append(estimate_h_logperiodogram(a).exponent)
    assert np.mean(vals) == pytest.approx(0.9, abs=0.1)


def test_log_periodogram_heavy_tails_do_not_move_slope():
    # the spectral shape is a second-moment property; t(3) innovations
    # keep the same memory parameter
    vals = []
    for rep in range(30):
        a = generate_arfima(0.4, 8192, split_seed(477, rep), dist="student-t", dof=3.0)
        vals.append(estimate_h_logperiodogram(a).exponent)
    assert abs(np.mean(vals) - 0.9) < 0.08


def test_log_cross_correlated_pair_band():
    sigma = np.eye(4)
    sigma[0, 2] = sigma[2, 0] = 0.5
    spec = McArfimaSpec(1, 0, 1, 0, 0.4, 0.0, 0.4, 0.0, sigma)
    x, y = generate_mc_arfima(spec, 8192, split_seed(1, 0))
    fit = estimate_hxy_logcross(x, y)
    assert 0.80 < fit.exponent < 0.95
    assert fit.diagnostics["bandwidth"] == 11
