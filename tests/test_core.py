"""Series validation, profiles, log-log fitting, and the test oracles.

The cross-correlation and partial-sum oracles live in ``tests/oracles.py``;
their checks stay here.
"""

import dataclasses
import math

import numpy as np
import pytest

from oracles import partial_sum_scaling, sample_ccf
from plcc.arfima import (
    McArfimaSpec,
    arfima_weights,
    correlated_innovations,
    generate_arfima,
    generate_mc_arfima,
)
from plcc.core import (
    ScalingFit,
    fit_loglog,
    is_constant,
    profile,
    scaled_back,
    series_values,
    unit_scaled,
)
from plcc.detrended import DetrendConfig, JointFluctuations, default_scale_grid
from plcc.errors import DegenerateInput, InvalidInput, InvalidParameter
from plcc.montecarlo import ExperimentConfig, feasibility_sweep, run_experiment, split_seed
from plcc.powerlaw import classify, coherency_report
from plcc.spectral import coherency, estimate_h_logperiodogram


# =========================================================================
# series_values / profile
# =========================================================================


def test_series_values_accepts_lists_and_arrays():
    v = series_values([1, 2, 3])
    assert v.dtype == float
    assert v.tolist() == [1.0, 2.0, 3.0]
    generated = generate_arfima(0.2, 64, 5)
    assert series_values(generated) is generated


def test_series_values_validation():
    with pytest.raises(InvalidInput):
        series_values([])
    with pytest.raises(InvalidInput):
        series_values([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InvalidInput):
        series_values([1.0, np.nan])
    with pytest.raises(InvalidInput):
        series_values([1.0, np.inf])


def test_profile_hand_example():
    # mean of (2, 4, 6) is 4; cumulative sums of (-2, 0, 2)
    p = profile([2.0, 4.0, 6.0])
    assert p.tolist() == [-2.0, -2.0, 0.0]


def test_profile_ends_near_zero():
    x = np.random.default_rng(11).standard_normal(1000)
    p = profile(x)
    assert abs(p[-1]) < 1e-9 * np.abs(x).sum()


def test_profile_constant_series_is_all_zero():
    p = profile(np.full(64, 3.25))
    assert np.all(p == 0.0)


def test_profile_of_a_constant_with_an_inexact_mean_is_only_near_zero():
    # the sample mean of 0.1 repeated is not 0.1 to the last bit; is_constant,
    # not the profile or the std, is what flags such a series
    v = np.full(2048, 0.1)
    p = profile(v)
    assert np.abs(p).max() < 1e-12
    assert is_constant(v)


@pytest.mark.parametrize("value", [0.1, 0.3, 7.7, 1.5, -2.0, 0.0, 1e300])
def test_is_constant_is_exact(value):
    v = np.full(1000, value)
    assert is_constant(v) and is_constant(v[:1])
    w = v.copy()
    w[-1] = np.nextafter(value, np.inf)
    assert not is_constant(w)


@pytest.mark.parametrize(
    "values, k",
    [
        ([3.0, -5.0, 0.25], 3),
        ([0.5, -0.25], 0),
        ([0.0, -0.0, 0.0], 0),
        ([1.7e308, -1.0], 1024),
        ([5e-324, -1e-320, 0.0], -1063),
    ],
)
def test_unit_scaled_divides_by_two_to_the_exponent_of_the_largest_magnitude(values, k):
    v = np.array(values)
    scaled, got = unit_scaled(v)
    assert got == k
    assert np.array_equal(np.ldexp(scaled, k), v)
    assert 0.5 <= np.abs(scaled).max() < 1 or not v.any()


def test_scaled_back_refuses_only_what_cannot_be_represented():
    tiny = np.finfo(float).tiny
    out = scaled_back(np.array([0.5, -0.5, 0.0]), 1024, "w")
    assert np.array_equal(out, [2.0**1023, -(2.0**1023), 0.0])
    assert not out.flags.writeable
    assert np.array_equal(scaled_back(np.array([1.0, 0.0]), -1022, "w"), [tiny, 0.0])
    assert np.array_equal(scaled_back(np.zeros(3), -5000, "w"), np.zeros(3))
    with pytest.raises(InvalidInput, match="^w overflow: rescale the series$"):
        scaled_back(np.array([0.25, -1.0]), 1024, "w")
    with pytest.raises(InvalidInput, match="^w underflow: rescale the series$"):
        scaled_back(np.array([1.0, -0.5]), -1022, "w")


def test_profile_needs_two_observations():
    with pytest.raises(InvalidInput):
        profile([1.0])


# =========================================================================
# sample cross-correlation oracle
# =========================================================================


def _ccf_oracle(x, y, k):
    """Direct implementation of the pinned estimator for one lag."""
    t = len(x)
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if k >= 0:
        num = float(dx[: t - k] @ dy[k:])
    else:
        num = float(dx[-k:] @ dy[: t + k])
    return num / denom


def test_sample_ccf_matches_bruteforce_oracle():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    got = dict(sample_ccf(x, y, 5))
    for k in range(-5, 6):
        assert got[k] == pytest.approx(_ccf_oracle(x, y, k), abs=1e-14)
    assert got[0] == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_sample_ccf_lag_convention():
    # y runs one step behind x: y_{t+1} = x_t, so the peak sits at k = +1
    rng = np.random.default_rng(22)
    x = rng.standard_normal(512)
    y = np.empty_like(x)
    y[1:] = x[:-1]
    y[0] = 0.0
    got = dict(sample_ccf(x, y, 3))
    assert got[1] > 0.95
    assert all(abs(got[k]) < 0.2 for k in got if k != 1)


def test_sample_ccf_swap_symmetry_and_bounds():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(200)
    y = rng.standard_normal(200)
    fwd = dict(sample_ccf(x, y, 7))
    rev = dict(sample_ccf(y, x, 7))
    for k in fwd:
        assert fwd[k] == rev[-k]
        assert -1.0 <= fwd[k] <= 1.0


def test_sample_ccf_independent_noise_is_small():
    a = np.random.default_rng(3001).standard_normal(10000)
    b = np.random.default_rng(3002).standard_normal(10000)
    got = dict(sample_ccf(a, b, 5))
    assert abs(got[5]) < 0.05
    assert abs(got[-5]) < 0.05


def test_sample_ccf_validation():
    x = np.arange(10.0)
    with pytest.raises(InvalidInput):
        sample_ccf(x, np.arange(9.0), 2)
    with pytest.raises(InvalidParameter):
        sample_ccf(x, x, -1)
    with pytest.raises(InvalidInput):
        sample_ccf(x, x, 5)  # 2 * 5 >= 10
    with pytest.raises(DegenerateInput):
        sample_ccf(np.full(10, 2.0), x, 2)


# =========================================================================
# partial-sum scaling oracle
# =========================================================================


def test_partial_sum_block_construction_oracle():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    windows, curve = partial_sum_scaling(x, None, [4, 8, 16])
    _, cross = partial_sum_scaling(x, y, [4, 8, 16])
    assert windows.tolist() == [4, 8, 16]
    for i, t in enumerate((4, 8, 16)):
        m = 64 // t
        sx = x[: m * t].reshape(m, t).sum(axis=1)
        sy = y[: m * t].reshape(m, t).sum(axis=1)
        assert curve[i] == pytest.approx(np.var(sx, ddof=1), rel=1e-12)
        assert cross[i] == pytest.approx(np.cov(sx, sy, ddof=1)[0, 1], rel=1e-12)


def test_partial_sum_iid_exponent_near_half():
    grid = np.unique(np.geomspace(4, 16384 // 4, 20).astype(int))
    fits = []
    for rep in range(100):
        w = np.random.default_rng(split_seed(909, rep)).standard_normal(16384)
        fit = fit_loglog(np.column_stack(partial_sum_scaling(w, None, grid)), 2.0)
        fits.append(fit.exponent)
    assert 0.45 < np.mean(fits) < 0.55


def test_partial_sum_long_memory_exponent():
    grid = np.unique(np.geomspace(4, 16384 // 4, 20).astype(int))
    fits = []
    for rep in range(100):
        a = generate_arfima(0.4, 16384, split_seed(910, rep))
        fits.append(fit_loglog(np.column_stack(partial_sum_scaling(a, None, grid)), 2.0).exponent)
    # finite-sample downward bias keeps the mean below the asymptotic 0.9
    assert 0.75 < np.mean(fits) < 0.90


def test_partial_sum_validation():
    x = np.random.default_rng(1).standard_normal(256)
    with pytest.raises(InvalidInput):
        partial_sum_scaling(x, None, [4, 8])
    with pytest.raises(InvalidInput):
        partial_sum_scaling(x, None, [2, 8, 16])
    with pytest.raises(InvalidInput):
        partial_sum_scaling(x, None, [4, 8, 100])
    with pytest.raises(InvalidInput):
        partial_sum_scaling(x, None, [4, 8, 8, 16])
    with pytest.raises(InvalidInput):
        partial_sum_scaling(x, None, [4.5, 8, 16])
    with pytest.raises(InvalidInput):
        partial_sum_scaling(x, np.zeros(128), [4, 8, 16])


# =========================================================================
# log-log fitting
# =========================================================================


def test_fit_loglog_exact_power_law():
    s = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    fit = fit_loglog(np.column_stack([s, 3.0 * s**1.8]), divisor=2.0)
    assert fit.exponent == pytest.approx(0.9, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr < 1e-12
    assert fit.range_used == (10.0, 160.0)


def test_fit_loglog_negative_divisor():
    w = np.geomspace(0.01, 0.5, 12)
    fit = fit_loglog(np.column_stack([w, w**-0.8]), divisor=-2.0)
    assert fit.exponent == pytest.approx(0.4, abs=1e-12)


def test_fit_loglog_stderr_divides_by_divisor():
    rng = np.random.default_rng(5)
    s = np.geomspace(10, 300, 15)
    vals = s**1.2 * np.exp(rng.normal(0, 0.1, s.size))
    f2 = fit_loglog(np.column_stack([s, vals]), divisor=2.0)
    f4 = fit_loglog(np.column_stack([s, vals]), divisor=4.0)
    assert f4.stderr == pytest.approx(f2.stderr / 2.0, rel=1e-12)
    assert f4.exponent == pytest.approx(f2.exponent / 2.0, rel=1e-12)


def test_fit_loglog_stderr_is_the_ols_standard_error():
    # n - 2 degrees of freedom: the residual variance of a two-parameter
    # line, computed here by hand on a noisy 7-point curve
    rng = np.random.default_rng(17)
    s = np.geomspace(8, 512, 7)
    vals = s**0.9 * np.exp(rng.normal(0, 0.2, s.size))
    fit = fit_loglog(np.column_stack([s, vals]), divisor=-2.0)
    u, v = np.log(s), np.log(vals)
    du = u - u.mean()
    slope = float(du @ (v - v.mean())) / float(du @ du)
    resid = v - (v.mean() + slope * du)
    expected = math.sqrt(float(resid @ resid) / (s.size - 2) / float(du @ du)) / 2.0
    assert fit.stderr == pytest.approx(expected, rel=1e-12)


def test_fit_loglog_validation():
    good = np.column_stack([np.arange(1.0, 6.0), np.arange(1.0, 6.0)])
    with pytest.raises(InvalidParameter):
        fit_loglog(good, divisor=0.0)
    with pytest.raises(InvalidInput):
        fit_loglog(good[:2], divisor=2.0)
    with pytest.raises(InvalidInput):
        fit_loglog(np.array([1.0, 2.0, 3.0]), divisor=2.0)
    bad = good.copy()
    bad[2, 1] = -1.0
    with pytest.raises(InvalidInput, match="ordinates must be strictly positive"):
        fit_loglog(bad, divisor=2.0)
    bad = good.copy()
    bad[2, 0] = 0.0
    with pytest.raises(InvalidInput):
        fit_loglog(bad, divisor=2.0)
    flat = good.copy()
    flat[:, 0] = 7.0
    with pytest.raises(InvalidInput):
        fit_loglog(flat, divisor=2.0)


def test_fit_loglog_refuses_nan_points_and_a_flat_log_abscissa():
    good = np.column_stack([np.arange(1.0, 6.0), np.arange(1.0, 6.0)])
    bad = good.copy()
    bad[3, 1] = np.nan
    with pytest.raises(InvalidInput, match="^fit points contain NaN or infinite values$"):
        fit_loglog(bad, divisor=2.0)
    # distinct abscissae one ulp apart can share a logarithm
    a = 1e300
    assert np.log(a) == np.log(np.nextafter(a, np.inf))
    close = np.array([[a, 1.0], [np.nextafter(a, np.inf), 2.0], [a, 3.0]])
    with pytest.raises(InvalidInput, match="^log abscissa values do not vary$"):
        fit_loglog(close, divisor=2.0)


def test_scalingfit_field_validation():
    with pytest.raises(InvalidParameter):
        ScalingFit(0.5, 0.0, -0.1, 0.9, (1.0, 2.0))
    with pytest.raises(InvalidParameter):
        ScalingFit(0.5, 0.0, 0.1, 1.5, (1.0, 2.0))


# =========================================================================
# parameter rules
# =========================================================================

_X = np.random.default_rng(3).standard_normal(256)
_Y = np.random.default_rng(4).standard_normal(256)
_GRID = [16, 20, 24, 28, 32]


_SPEC_FIELDS = dict(alpha=1, beta=0, gamma=1, delta=0, d1=0.3, d2=0.0, d3=0.2, d4=0.0, sigma=np.eye(4))


def _spec(**fields):
    return McArfimaSpec(**{**_SPEC_FIELDS, **fields})


_MC = ExperimentConfig(
    spec=_spec(), lengths=(256,), replications=2, estimators=("logperiodogram",), master_seed=1
)

# (site, call taking the value, a value the site accepts, the refusal's type).
# An integer is refused as a float with an integral value, a bool or a
# string; a number is refused when infinite or nan.
_PARAMETERS = [
    ("arfima_weights n_terms", lambda v: arfima_weights(0.3, v), 3, InvalidParameter),
    ("generate_arfima length", lambda v: generate_arfima(0.3, v, 1), 128, InvalidParameter),
    ("generate_arfima seed", lambda v: generate_arfima(0.3, 128, v), 3, InvalidParameter),
    ("generate_mc_arfima length", lambda v: generate_mc_arfima(_spec(), v, 1), 128, InvalidParameter),
    ("generate_mc_arfima seed", lambda v: generate_mc_arfima(_spec(), 128, v), 3, InvalidParameter),
    ("correlated_innovations length",
     lambda v: correlated_innovations(np.eye(4), "gaussian", v, 1), 3, InvalidParameter),
    ("correlated_innovations seed",
     lambda v: correlated_innovations(np.eye(4), "gaussian", 3, v), 3, InvalidParameter),
    ("spec truncation", lambda v: generate_mc_arfima(_spec(truncation=v), 128, 1), 200, InvalidParameter),
    ("spec burn_in", lambda v: generate_mc_arfima(_spec(burn_in=v), 128, 1), 3, InvalidParameter),
    ("bandwidth", lambda v: coherency(_X, _Y, v), 3, InvalidParameter),
    ("n_freqs", lambda v: estimate_h_logperiodogram(_X, v), 8, InvalidInput),
    ("DetrendConfig poly_order",
     lambda v: JointFluctuations(_X, None, DetrendConfig(_GRID, v)).fxx, 2, InvalidParameter),
    ("DetrendConfig scale",
     lambda v: JointFluctuations(_X, None, DetrendConfig([v, *_GRID[1:]])).fxx, 16, InvalidParameter),
    ("default_scale_grid length", lambda v: default_scale_grid(v), 1024, InvalidParameter),
    ("default_scale_grid poly_order", lambda v: default_scale_grid(1024, v), 2, InvalidParameter),
    ("default_scale_grid n_scales", lambda v: default_scale_grid(1024, 1, v), 12, InvalidParameter),
    ("default_scale_grid min_scale", lambda v: default_scale_grid(1024, 1, 20, v), 16, InvalidParameter),
    ("default_scale_grid max_scale",
     lambda v: default_scale_grid(1024, 1, 20, None, v), 100, InvalidParameter),
    ("split_seed master_seed", lambda v: split_seed(v, 0), 3, InvalidParameter),
    ("split_seed index", lambda v: split_seed(0, v), 3, InvalidParameter),
    ("run_experiment jobs", lambda v: run_experiment(_MC, jobs=v).to_dict(), 1, InvalidParameter),
    ("spec dof", lambda v: generate_mc_arfima(_spec(innovation_dist="student-t", dof=v), 128, 1),
     3.0, InvalidParameter),
    ("generate_arfima dof", lambda v: generate_arfima(0.3, 128, 1, "student-t", v), 3.0, InvalidParameter),
    *[
        (f"spec {name}", lambda v, name=name: generate_mc_arfima(_spec(**{name: v}), 128, 1),
         0.5, InvalidParameter)
        for name in ("alpha", "beta", "gamma", "delta")
    ],
    ("generate_arfima d", lambda v: generate_arfima(v, 128, 1), 0.3, InvalidParameter),
    ("classify tol", lambda v: classify(0.9, 0.9, 0.9, v), 0.05, InvalidParameter),
    ("coherency_report tolerance", lambda v: coherency_report(_X, _Y, tolerance=v), 0.05, InvalidParameter),
    ("feasibility_sweep tolerance", lambda v: feasibility_sweep([], v), 0.05, InvalidParameter),
]


def _bits(value):
    """A form of ``value`` that compares equal only for bit-identical floats."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return sorted((k, _bits(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return float(value).hex()
    return value


@pytest.mark.parametrize(
    "call,good,error", [row[1:] for row in _PARAMETERS], ids=[row[0] for row in _PARAMETERS]
)
def test_parameter_rules(call, good, error):
    if isinstance(good, int):
        refused, numpy_kind = (float(good), True, str(good)), np.int64
    else:
        refused, numpy_kind = (math.inf, -math.inf, math.nan), np.float64
    for value in refused:
        with pytest.raises(error):
            call(value)
    # a numpy scalar is the value it holds, bit for bit
    assert _bits(call(numpy_kind(good))) == _bits(call(good))
