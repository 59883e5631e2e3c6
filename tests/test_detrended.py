"""Detrended fluctuation statistics: oracle checks, exact identities, bands."""

import gc
import traceback
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcc.arfima import McArfimaSpec, generate_arfima, generate_mc_arfima
from plcc.detrended import (
    DetrendConfig,
    JointFluctuations,
    _detrend_basis,
    _fit_scaling,
    default_scale_grid,
    min_scale_for_order,
)
from plcc.errors import (
    DegenerateInput,
    EstimationFailed,
    InvalidInput,
    InvalidParameter,
    SeriesTooShort,
)
from plcc.montecarlo import split_seed
from plcc.powerlaw import rho_decay

from oracles import fluctuation_curves


def _pair_spec(d1, d3, s13, **kw):
    s = np.eye(4)
    s[0, 2] = s[2, 0] = s13
    return McArfimaSpec(1, 0, 1, 0, d1, 0.0, d3, 0.0, s, **kw)


# =========================================================================
# grids and configuration
# =========================================================================


def test_min_scale_for_order():
    assert min_scale_for_order(0) == 10
    assert min_scale_for_order(1) == 12
    assert min_scale_for_order(2) == 16
    assert min_scale_for_order(5) == 28


def test_default_scale_grid_bounds():
    grid = default_scale_grid(4096)
    assert grid[0] == 12
    assert grid[-1] == 4096 // 5
    assert np.all(np.diff(grid) > 0)
    assert 5 <= grid.size <= 20

    capped = default_scale_grid(4096, max_scale=128)
    assert capped[-1] <= 128
    floored = default_scale_grid(4096, min_scale=50)
    assert floored[0] >= 50


def test_default_scale_grid_too_short():
    with pytest.raises(SeriesTooShort):
        default_scale_grid(40)
    with pytest.raises(SeriesTooShort):
        default_scale_grid(4096, min_scale=500, max_scale=503)


def test_default_scale_grid_refuses_fewer_than_five_scales():
    # the count is a parameter, refused like --scales refuses one below 5,
    # not a series too short or numpy's error for a negative sample count
    for n_scales in (-1, 0, 3, 4):
        message = f"n_scales must be an integer >= 5, got {n_scales}"
        with pytest.raises(InvalidParameter, match=message):
            default_scale_grid(1024, 1, n_scales)
    assert default_scale_grid(1024, 1, 5).size == 5


def test_detrend_basis_cache_is_bounded():
    # bases of passes at many lengths do not stay alive for the process
    _detrend_basis.cache_clear()
    rng = np.random.default_rng(12)
    for length in range(1000, 1000 + 40 * 97, 97):
        x = rng.standard_normal(length)
        JointFluctuations(x, None, DetrendConfig(default_scale_grid(length))).fxx
    info = _detrend_basis.cache_info()
    assert info.misses > 64
    assert info.currsize <= 64


def test_detrend_config_validation():
    with pytest.raises(InvalidParameter):
        DetrendConfig(np.array([12, 16, 20, 24]))  # only 4 scales
    with pytest.raises(InvalidParameter):
        DetrendConfig(np.array([12, 16, 16, 20, 24]))
    with pytest.raises(InvalidParameter):
        DetrendConfig(np.array([8, 16, 20, 24, 30]))  # below order-1 minimum
    with pytest.raises(InvalidParameter):
        DetrendConfig(np.array([12.5, 16, 20, 24, 30]))
    with pytest.raises(InvalidParameter):
        DetrendConfig(np.array([12, 16, 20, 24, 30]), poly_order=-1)
    cfg = DetrendConfig([16, 20, 24, 28, 32], poly_order=2)
    assert cfg.scale_grid.dtype.kind == "i"


def test_series_length_checks():
    cfg = DetrendConfig([12, 16, 20, 24, 30])
    with pytest.raises(SeriesTooShort):
        JointFluctuations(np.random.default_rng(0).standard_normal(40), None, cfg).fxx
    short_grid = DetrendConfig([12, 13, 14, 15, 16])
    with pytest.raises(InvalidInput):
        # largest scale exceeds T/5
        JointFluctuations(np.random.default_rng(0).standard_normal(64), None, short_grid).fxx
    with pytest.raises(DegenerateInput):
        JointFluctuations(np.full(256, 1.0), None, cfg).fxx


# =========================================================================
# brute-force oracle for the box machinery
# =========================================================================


def _fluct_oracle(x, y, scales, order):
    """Slow reference: per-box polyfit detrending on the profiles."""
    px = np.cumsum(x - x.mean())
    py = np.cumsum(y - y.mean())
    t = len(x)
    out = []
    for s in scales:
        ns = t // s
        u = np.arange(1, s + 1, dtype=float)
        prods = []
        for start in list(range(0, ns * s, s)) + list(range(t - ns * s, t, s))[::1]:
            bx = px[start : start + s]
            by = py[start : start + s]
            cx = np.polyfit(u, bx, order)
            cy = np.polyfit(u, by, order)
            rx = bx - np.polyval(cx, u)
            ry = by - np.polyval(cy, u)
            prods.append((rx * ry).sum() / s)
        out.append(np.mean(prods))
    return np.array(out)


def test_fluctuations_match_polyfit_oracle():
    rng = np.random.default_rng(404)
    x = rng.standard_normal(400)
    y = rng.standard_normal(400)
    for order in (1, 2):
        scales = [min_scale_for_order(order), 22, 30, 40, 53, 70]
        cfg = DetrendConfig(scales, poly_order=order)
        got_xx = JointFluctuations(x, None, cfg).fxx
        got_xy = JointFluctuations(x, y, cfg).fxy
        ref_xx = _fluct_oracle(x, x, scales, order)
        ref_xy = _fluct_oracle(x, y, scales, order)
        assert np.allclose(got_xx, ref_xx, rtol=1e-9, atol=1e-12)
        assert np.allclose(got_xy, ref_xy, rtol=1e-9, atol=1e-12)


@st.composite
def _pass_cases(draw):
    """A series or pair of length 70-4096, an order 0-3 and a valid grid.

    About half of the lengths are a multiple of one of the scales, at which
    the forward and backward boxes coincide.
    """
    order = draw(st.integers(0, 3))
    lo = min_scale_for_order(order)
    top = draw(st.integers(lo + 4, 4096 // 5))
    scales = sorted(draw(st.sets(st.integers(lo, top), min_size=5, max_size=20)))
    shortest = 5 * scales[-1]
    fits = [s for s in scales if -(-shortest // s) * s <= 4096]
    if fits and draw(st.booleans()):
        s = draw(st.sampled_from(fits))
        t = s * draw(st.integers(-(-shortest // s), 4096 // s))
    else:
        t = draw(st.integers(shortest, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = draw(st.sampled_from([0.0, 0.1, 1e6]))
    x = level + draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(t).cumsum()
    y = None
    if draw(st.booleans()):
        y = 0.5 * x + rng.standard_normal(t)
    return x, y, scales, order


@settings(max_examples=40, deadline=None)
@given(case=_pass_cases())
def test_pass_matches_reference_arithmetic_bit_for_bit(case):
    x, y, scales, order = case
    jf = JointFluctuations(x, y, DetrendConfig(scales, order))
    want = fluctuation_curves(x, y, scales, order)
    for got, ref in zip((jf.fxx, jf.fyy, jf.fxy), want):
        assert np.array_equal(got, ref)


def test_pass_matches_reference_arithmetic_bit_for_bit_at_2_16():
    t = 2**16
    x, y = generate_mc_arfima(_pair_spec(0.4, 0.2, 0.5), t, 16)
    grid = default_scale_grid(t)
    jf = JointFluctuations(x, y, DetrendConfig(grid))
    for got, ref in zip((jf.fxx, jf.fyy, jf.fxy), fluctuation_curves(x, y, grid, 1)):
        assert np.array_equal(got, ref)


def test_box_layout_uses_both_ends():
    # with T not a multiple of s, forward and backward boxes differ; the
    # oracle above pools both, so agreement there already pins the layout.
    # here: a series whose tail is quiet only affects the backward boxes
    x = np.random.default_rng(8).standard_normal(130)
    x[125:] = 0.0
    cfg = DetrendConfig([12, 14, 16, 18, 20, 25])
    ref = _fluct_oracle(x, x, [25], 1)
    got = JointFluctuations(x, None, cfg).fxx[-1]
    assert got == pytest.approx(ref[0], rel=1e-9)


def test_polynomial_trend_is_removed_exactly():
    # the profile of a linear series is quadratic, so removing the trend
    # needs order 2; residuals then vanish to rounding
    t = np.arange(512, dtype=float)
    x = 0.7 * t + 3.0
    cfg = DetrendConfig([16, 22, 30, 40, 55], poly_order=2)
    curve = JointFluctuations(x, None, cfg).fxx
    assert np.all(curve < 1e-12)
    assert np.all(curve >= 0.0)


# =========================================================================
# estimates on known processes
# =========================================================================


def test_dfa_white_noise_band():
    vals = []
    for rep in range(30):
        w = np.random.default_rng(split_seed(1010, rep)).standard_normal(8192)
        vals.append(
            JointFluctuations(w, None, DetrendConfig(default_scale_grid(8192))).hurst_x().exponent
        )
    assert 0.44 < np.mean(vals) < 0.56


def test_dfa_long_memory_band():
    vals = []
    for rep in range(20):
        a = generate_arfima(0.4, 8192, split_seed(1011, rep))
        vals.append(
            JointFluctuations(a, None, DetrendConfig(default_scale_grid(8192))).hurst_x().exponent
        )
    assert 0.80 < np.mean(vals) < 0.98


def test_correlated_pair_cross_exponent_near_average():
    spec = _pair_spec(0.4, 0.4, 0.5)
    hxs, hys, hxys = [], [], []
    for rep in range(100):
        x, y = generate_mc_arfima(spec, 16384, split_seed(1404, rep))
        cfg = DetrendConfig(default_scale_grid(16384))
        hxs.append(JointFluctuations(x, None, cfg).hurst_x().exponent)
        hys.append(JointFluctuations(y, None, cfg).hurst_x().exponent)
        hxys.append(JointFluctuations(x, y, cfg).hxy().exponent)
    assert 0.82 < np.mean(hxs) < 0.98
    assert 0.82 < np.mean(hys) < 0.98
    gap = np.mean(hxys) - (np.mean(hxs) + np.mean(hys)) / 2.0
    assert abs(gap) < 0.08


def test_white_noise_pair_is_flagged():
    # no cross power law exists; the fit reports sign churn and a wide stderr
    wide_err, flips, narrow_err = [], [], []
    spec = _pair_spec(0.4, 0.4, 0.5)
    for rep in range(20):
        cfg = DetrendConfig(default_scale_grid(4096))
        g1 = np.random.default_rng(split_seed(707, rep)).standard_normal(4096)
        g2 = np.random.default_rng(split_seed(708, rep)).standard_normal(4096)
        fit = JointFluctuations(g1, g2, cfg).hxy()
        wide_err.append(fit.stderr)
        flips.append(fit.diagnostics["sign_flips"])
        x, y = generate_mc_arfima(spec, 4096, split_seed(709, rep))
        narrow_err.append(JointFluctuations(x, y, cfg).hxy().stderr)
    assert np.median(flips) >= 3
    assert np.median(wide_err) > 0.04
    assert np.median(narrow_err) < 0.02
    assert np.median(wide_err) > 3 * np.median(narrow_err)


# =========================================================================
# exact identities
# =========================================================================


@pytest.fixture()
def xy_pair():
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(2048)
    y = rng.standard_normal(2048)
    cfg = DetrendConfig(default_scale_grid(2048))
    return x, y, cfg


# Seeds, lengths in [512, 4096] and orders 1-2; the explicit examples pin
# the fixture pair above and the shortest and longest lengths.
_DETRENDED_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1), length=st.integers(512, 4096), order=st.integers(1, 2)
)


def _draw_detrended(seed, length, order, heavy=False):
    rng = np.random.default_rng(seed)
    if heavy:  # Student-t(2): infinite variance stresses the rho bound
        x, y = rng.standard_t(2, length), rng.standard_t(2, length)
    else:
        x, y = rng.standard_normal(length), rng.standard_normal(length)
    return x, y, DetrendConfig(default_scale_grid(length, order), order)


def _detrended_examples(test):
    for length, order in ((2048, 1), (512, 2), (4096, 2)):
        test = example(seed=12345, length=length, order=order)(test)
    return settings(max_examples=30, deadline=None)(given(**_DETRENDED_DRAWS)(test))


@_detrended_examples
def test_dcca_self_equals_dfa_bitwise(seed, length, order):
    x, _, cfg = _draw_detrended(seed, length, order)
    assert np.array_equal(
        JointFluctuations(x, x.copy(), cfg).fxy, JointFluctuations(x, None, cfg).fxx
    )


@_detrended_examples
def test_dcca_negation_flips_sign_bitwise(seed, length, order):
    x, _, cfg = _draw_detrended(seed, length, order)
    assert np.array_equal(
        JointFluctuations(x, -x, cfg).fxy, -JointFluctuations(x, None, cfg).fxx
    )


@_detrended_examples
def test_dcca_bilinearity(seed, length, order):
    x, y, cfg = _draw_detrended(seed, length, order)
    base = JointFluctuations(x, y, cfg).fxy
    # powers of two commute with every rounding step, so this is bitwise
    assert np.array_equal(JointFluctuations(2 * x, 4 * y, cfg).fxy, 8 * base)
    got = JointFluctuations(1.7 * x, -0.3 * y, cfg).fxy
    assert np.allclose(got, 1.7 * -0.3 * base, rtol=1e-12)


@_detrended_examples
def test_rho_self_is_exactly_one(seed, length, order):
    x, _, cfg = _draw_detrended(seed, length, order)
    assert np.all(JointFluctuations(x, x.copy(), cfg).rho() == 1.0)
    assert np.all(JointFluctuations(x, -x, cfg).rho() == -1.0)


@_detrended_examples
def test_rho_bound_holds_on_student_t_inputs(seed, length, order):
    x, y, cfg = _draw_detrended(seed, length, order, heavy=True)
    rho = JointFluctuations(x, y, cfg).rho()
    assert np.all((rho >= -1.0) & (rho <= 1.0))


def test_rho_affine_invariance(xy_pair):
    x, y, cfg = xy_pair
    base = JointFluctuations(x, y, cfg).rho()
    scaled = JointFluctuations(2 * x, 8 * y, cfg).rho()
    assert np.array_equal(scaled, base)
    shifted = JointFluctuations(3 * x + 5.0, -2 * y + 1.0, cfg).rho()
    assert np.allclose(shifted, -base, atol=1e-12)


def test_rho_bounded_on_rough_inputs():
    rng = np.random.default_rng(99)
    cfg = DetrendConfig(default_scale_grid(512))
    for _ in range(50):
        x = rng.standard_t(2, 512)  # heavy tails stress the bound
        y = rng.standard_t(2, 512)
        assert all(-1.0 <= r <= 1.0 for r in JointFluctuations(x, y, cfg).rho())


def test_rho_independent_noise_stays_small():
    # zero-correlation pairs: the mean of |rho(s)| stays below 0.1 on every
    # scale up to T/10 (single realizations exceed it near the top scale,
    # where only ~20 boxes contribute)
    t = 16384
    grid = default_scale_grid(t)
    keep = grid <= t // 10
    acc = np.zeros(int(np.count_nonzero(keep)))
    reps = 100
    for rep in range(reps):
        u = np.random.default_rng(split_seed(711, 2 * rep)).standard_normal(t)
        v = np.random.default_rng(split_seed(711, 2 * rep + 1)).standard_normal(t)
        vals = JointFluctuations(u, v, DetrendConfig(grid)).rho()
        acc += np.abs(vals[keep])
    assert np.all(acc / reps < 0.1)


def test_beta_exact_coefficients(xy_pair):
    x, _, cfg = xy_pair
    assert all(b == 1.0 for b in JointFluctuations(x, x.copy(), cfg).beta())
    assert all(b == -4.0 for b in JointFluctuations(x, -4 * x, cfg).beta())
    for b in JointFluctuations(x, -3 * x, cfg).beta():
        assert b == pytest.approx(-3.0, rel=5e-15)


def test_beta_scaling_identities(xy_pair):
    x, y, cfg = xy_pair
    base = JointFluctuations(x, y, cfg).beta()
    assert np.array_equal(JointFluctuations(x, 2 * y, cfg).beta(), 2 * base)
    assert np.array_equal(JointFluctuations(2 * x, y, cfg).beta(), base / 2)
    shifted = JointFluctuations(x + 11.0, y - 4.0, cfg).beta()
    assert np.allclose(shifted, base, atol=1e-12)


def test_beta_consistency_identities(xy_pair):
    x, y, cfg = xy_pair
    bxy = JointFluctuations(x, y, cfg).beta()
    byx = JointFluctuations(y, x, cfg).beta()
    rho = JointFluctuations(x, y, cfg).rho()
    assert np.allclose(bxy * byx, rho * rho, rtol=1e-10, atol=1e-14)
    # beta times the regressor curve reproduces the cross curve
    jf = JointFluctuations(x, y, cfg)
    fxx, fxy = jf.fxx, jf.fxy
    assert np.allclose(bxy * fxx, fxy, rtol=1e-12, atol=1e-16)


def test_beta_attenuation_with_shared_regressor():
    # y = 2x + noise of matching scale; the scale-wise coefficient stays
    # near 2 because the regressor is shared, not noisy
    x = generate_arfima(0.3, 16384, split_seed(812, 0))
    noise = np.random.default_rng(split_seed(812, 1)).standard_normal(16384)
    y = 2.0 * x + x.std() * noise
    cfg = DetrendConfig(default_scale_grid(16384))
    vals = JointFluctuations(x, y, cfg).beta()
    mid = vals[len(vals) // 4 : len(vals) - len(vals) // 4]
    assert all(1.8 <= b <= 2.2 for b in mid)


def test_curves_are_read_only(xy_pair):
    x, y, cfg = xy_pair
    jf = JointFluctuations(x, y, cfg)
    rho = jf.rho()
    for curve in (jf.fxx, jf.fyy, jf.fxy, rho):
        with pytest.raises(ValueError):
            curve[:] *= 4
    assert np.array_equal(jf.rho(), rho)
    # rho is computed once per pass: a later read is the same array
    assert jf.rho() is rho


@pytest.mark.parametrize("value", [0.1, 0.3, 7.7, 1.5])
def test_constant_side_is_degenerate_whatever_its_mean(xy_pair, value):
    # the mean of np.full(n, 0.1) is inexact, so its std is about 1e-17, not 0
    x, y, cfg = xy_pair
    const = np.full_like(x, value)
    readers = [
        lambda jf: jf.fxy,
        JointFluctuations.hxy,
        JointFluctuations.rho,
        JointFluctuations.beta,
        rho_decay,
    ]
    for jf, own in (
        (JointFluctuations(const, y, cfg), [lambda jf: jf.fxx, JointFluctuations.hurst_x]),
        (JointFluctuations(x, const, cfg), [lambda jf: jf.fyy, JointFluctuations.hurst_y]),
    ):
        for read in own + readers:
            with pytest.raises(DegenerateInput, match="zero-variance series"):
                read(jf)
    with pytest.raises(DegenerateInput, match="zero-variance series"):
        JointFluctuations(const, None, cfg).hurst_x()
    JointFluctuations(const, y, cfg).hurst_y()


def test_degenerate_inputs_raise(xy_pair):
    x, y, cfg = xy_pair
    const = np.full_like(x, 2.5)
    with pytest.raises(DegenerateInput):
        JointFluctuations(x, const, cfg).rho()
    with pytest.raises(DegenerateInput):
        JointFluctuations(const, y, cfg).beta()
    with pytest.raises(InvalidInput):
        JointFluctuations(x, y[:-1], cfg)


def _read(jf, name):
    value = getattr(jf, name)
    return value() if callable(value) else value


@pytest.mark.parametrize(
    "scale_y, error, readers",
    [
        (0.0, DegenerateInput, ["fyy", "hurst_y", "rho", "beta"]),  # a constant side
        (1e160, InvalidInput, ["fyy", "hurst_y"]),  # F2_y overflows
    ],
)
def test_each_read_of_an_undefined_curve_raises_a_new_exception(xy_pair, scale_y, error, readers):
    # One stored instance raised on every read would grow its traceback by
    # the reader's frames each time, and those frames would keep the pass in
    # a reference cycle that only the cyclic collector frees.
    x, y, cfg = xy_pair
    jf = JointFluctuations(x, y * scale_y, cfg)
    alive = weakref.ref(jf)
    depths = {name: [] for name in readers}
    gc.disable()
    try:
        for name in readers * 3:
            try:
                _read(jf, name)
            except error as exc:
                depths[name].append(len(traceback.extract_tb(exc.__traceback__)))
        del jf
        assert alive() is None
    finally:
        gc.enable()
    assert all(len(d) == 3 and len(set(d)) == 1 for d in depths.values()), depths


def test_zero_variance_gates_of_rho_and_beta(xy_pair):
    # F2_x or F2_y is zero at a scale only when every box residual there is
    # exactly zero, which a non-constant series does not reach in floating
    # point, so the curves are set here
    x, y, cfg = xy_pair
    jf = JointFluctuations(x, y, cfg)
    jf._fyy = np.where(cfg.scale_grid == cfg.scale_grid[3], 0.0, jf._fyy)
    with pytest.raises(DegenerateInput, match="^zero detrended variance at some scale$"):
        jf.rho()
    jf.beta()  # the regressor x keeps its variance
    jf._fxx = jf._fyy
    with pytest.raises(
        DegenerateInput, match="^zero detrended variance of the regressor at some scale$"
    ):
        jf.beta()


OVERFLOW = "^detrended statistics overflow: rescale the series$"
UNDERFLOW = "^detrended statistics underflow: rescale the series$"


def test_statistics_of_values_too_large_to_square_are_refused(xy_pair):
    # Only a curve, or a coefficient, that cannot be represented is refused,
    # and each reader refuses exactly what it reads: rho is read from the
    # curves of the scaled sides and answers for every such pair.
    x, y, cfg = xy_pair
    base = JointFluctuations(x, y, cfg)
    jf = JointFluctuations(x, y * 1e160, cfg)
    jf.hurst_x()
    for read in (jf.hurst_y, lambda: jf.fyy):
        with pytest.raises(InvalidInput, match=OVERFLOW):
            read()
    # F2_xy is near 1e160 and F2_x near 1: both stay readable
    np.testing.assert_allclose(jf.hxy().exponent, base.hxy().exponent, rtol=1e-12)
    np.testing.assert_allclose(jf.rho(), base.rho(), rtol=1e-12)
    np.testing.assert_allclose(jf.beta(), base.beta() * 1e160, rtol=1e-12)
    with pytest.raises(InvalidInput, match=OVERFLOW):
        JointFluctuations(x * 1e160, None, cfg).hurst_y()
    wide = JointFluctuations(x * 1e100, y * 1e100, cfg)
    wide.hxy()
    np.testing.assert_allclose(wide.rho(), base.rho(), rtol=1e-12)
    # beta near 1e310 cannot be represented
    with pytest.raises(InvalidInput, match=OVERFLOW):
        JointFluctuations(x * 1e-160, (x + y) * 1e150, cfg).beta()


def test_statistics_whose_products_underflow_are_refused(xy_pair):
    # At 1e-100 F2_x * F2_y rounds to zero and rho read 1 at every scale;
    # now the products are formed from the scaled sides and rho reads what
    # the unscaled pair does, bit for bit under a power of two. At 1e-160
    # F2_x falls below the normal doubles: beta read 1.6e-4 off and dcca
    # fitted subnormal curves; now beta is exact and the curves are refused.
    x, y, cfg = xy_pair
    jf = JointFluctuations(x, y, cfg)
    for scale in (1e-80, 1e-100, 1e-160):
        np.testing.assert_allclose(JointFluctuations(x * scale, y * scale, cfg).rho(), jf.rho(), rtol=1e-13)
    for scale in (2.0**-200, 2.0**-300, 2.0**-1000):
        assert np.array_equal(JointFluctuations(x * scale, y * scale, cfg).rho(), jf.rho())
    assert np.array_equal(JointFluctuations(x * 2.0**-480, y * 2.0**-480, cfg).beta(), jf.beta())
    for scale in (1e-150, 1e-160):
        np.testing.assert_allclose(JointFluctuations(x * scale, y * scale, cfg).beta(), jf.beta(), rtol=1e-13)
    tiny = JointFluctuations(x * 1e-160, y * 1e-160, cfg)
    for read in (tiny.hurst_x, tiny.hurst_y, tiny.hxy, lambda: tiny.fxy):
        with pytest.raises(InvalidInput, match=UNDERFLOW):
            read()


# One fixed pair, scaled by 2**kx and 2**ky: every ratio of second moments
# keeps its bits, beta moves by exactly 2**(ky - kx), and each curve a fit
# reads is the unscaled curve times a power of two, or is refused.
_SCALED = np.random.default_rng(12345).standard_normal((2, 2048))
_SCALED_CFG = DetrendConfig(default_scale_grid(2048))
_UNSCALED = JointFluctuations(*_SCALED, _SCALED_CFG)


def _scaled_or_refused(read, unscaled, k):
    """``read()`` is ``unscaled * 2**k`` bit for bit where every value can be
    represented as a normal double (or zero), and is refused where not."""
    with np.errstate(over="ignore", under="ignore"):
        want = np.ldexp(unscaled, k)
    if np.isfinite(want).all() and not np.any((np.abs(want) < np.finfo(float).tiny) & (unscaled != 0)):
        assert np.array_equal(read(), want)
        return True
    with pytest.raises(InvalidInput, match="^detrended statistics (over|under)flow: rescale the series$"):
        read()
    return False


@settings(max_examples=40, deadline=None)
@given(kx=st.integers(-900, 900), ky=st.integers(-900, 900))
@example(kx=3, ky=-5)
@example(kx=900, ky=0)
@example(kx=-900, ky=-900)
@example(kx=-900, ky=900)
def test_power_of_two_scaling_is_exact(kx, ky):
    x, y = np.ldexp(_SCALED[0], kx), np.ldexp(_SCALED[1], ky)
    jf = JointFluctuations(x, y, _SCALED_CFG)
    assert np.array_equal(jf.rho(), _UNSCALED.rho())
    assert rho_decay(jf).exponent == rho_decay(_UNSCALED).exponent
    _scaled_or_refused(jf.beta, _UNSCALED.beta(), ky - kx)
    for curve, fit, k in (
        ("fxx", JointFluctuations.hurst_x, 2 * kx),
        ("fyy", JointFluctuations.hurst_y, 2 * ky),
        ("fxy", JointFluctuations.hxy, kx + ky),
    ):
        if _scaled_or_refused(lambda: getattr(jf, curve), getattr(_UNSCALED, curve), k):
            # the log-log fit is not itself invariant: log(v * 2**k) rounds
            # apart from log(v) + k log 2
            want = fit(_UNSCALED)
            np.testing.assert_allclose(fit(jf).exponent, want.exponent, rtol=1e-13)
        else:
            with pytest.raises(InvalidInput):
                fit(jf)


def test_scaling_fit_needs_three_nonzero_values():
    values = np.array([0.0, 2.0, 0.0, 0.0, -5.0])
    with pytest.raises(EstimationFailed, match="^only 2 positive ordinates; need 3$"):
        _fit_scaling(np.arange(16.0, 21.0), values, divisor=2.0)


def test_estimate_diagnostics_present(xy_pair):
    x, y, cfg = xy_pair
    fit = JointFluctuations(x, y, cfg).hxy()
    assert set(fit.diagnostics) == {"sign_flips", "sign_changes", "dropped_nonpositive"}
    fit2 = JointFluctuations(x, None, cfg).hurst_x()
    assert fit2.diagnostics["sign_flips"] == 0
