"""Fractional-integration weights, innovation streams and pair generation."""

import dataclasses
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcc.arfima import (
    GAUSSIAN,
    STUDENT_T,
    McArfimaSpec,
    _fft_convolve_tail,
    _transform_length,
    arfima_weights,
    correlated_innovations,
    filter_mc_arfima,
    generate_arfima,
    generate_mc_arfima,
)
from oracles import partial_sum_scaling, sample_ccf
from plcc.core import fit_loglog
from plcc.errors import InvalidParameter, TruncationWarning
from plcc.montecarlo import split_seed


def _sigma(pairs=None):
    s = np.eye(4)
    for (i, j), v in (pairs or {}).items():
        s[i - 1, j - 1] = s[j - 1, i - 1] = v
    return s


# =========================================================================
# weights
# =========================================================================


def test_weights_first_terms():
    w = arfima_weights(0.4, 6)
    assert w[0] == 1.0
    assert w[1] == 0.4
    assert w[5] == pytest.approx(0.16755, abs=5e-5)


def test_weights_match_gamma_ratio_oracle():
    # closed form a_n = Gamma(n + d) / (Gamma(n + 1) Gamma(d)); lgamma gives
    # the log magnitude, the overall sign is that of 1/Gamma(d) since the
    # other two factors are positive for n >= 1
    for d in (0.45, 0.3, 0.1, -0.2, -0.45):
        w = arfima_weights(d, 50)
        sign = 1.0 if d > 0 else -1.0
        for n in range(1, 50):
            mag = math.exp(math.lgamma(n + d) - math.lgamma(n + 1) - math.lgamma(d))
            assert w[n] == pytest.approx(sign * mag, rel=1e-10)


def test_weights_d_zero_tail_vanishes():
    w = arfima_weights(0.0, 10)
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)


def test_weights_negative_d_starts_negative():
    w = arfima_weights(-0.3, 4)
    assert w[1] == -0.3
    assert w[2] > 0 or w[2] < 0  # finite
    assert np.isfinite(w).all()


def test_weights_validation():
    with pytest.raises(InvalidParameter):
        arfima_weights(0.5, 10)
    with pytest.raises(InvalidParameter):
        arfima_weights(-0.5, 10)
    with pytest.raises(InvalidParameter):
        arfima_weights(0.3, 0)


def test_weights_hyperbolic_decay_rate():
    # a_n ~ n^(d-1) / Gamma(d); check the log-log slope over a decade
    w = arfima_weights(0.4, 2000)
    ratio = w[1000] / w[100]
    assert math.log(ratio) / math.log(10.0) == pytest.approx(0.4 - 1.0, abs=0.01)


# =========================================================================
# innovation streams
# =========================================================================


def test_student_t_shares_the_normal_path():
    # drawing the normal part first makes the signs match under one seed
    z = np.random.default_rng(42).standard_normal(4096)
    stream = correlated_innovations(np.eye(4), STUDENT_T, 4096, 42, dof=3.0)[0]
    assert np.all(np.sign(stream) == np.sign(z))
    gauss = correlated_innovations(np.eye(4), GAUSSIAN, 4096, 42)[0]
    assert np.array_equal(gauss, z)


def test_innovations_identity_covariance():
    streams = correlated_innovations(np.eye(4), GAUSSIAN, 10**6, 4001)
    cov = np.cov(streams)
    off = np.abs(cov[~np.eye(4, dtype=bool)]).max()
    assert off < 0.005
    assert np.allclose(np.diag(cov), 1.0, atol=0.01)


def test_innovations_cross_covariance():
    streams = correlated_innovations(_sigma({(1, 3): 0.9}), GAUSSIAN, 10**6, 4002)
    assert np.cov(streams)[0, 2] == pytest.approx(0.9, abs=0.015)


def test_innovations_student_t_is_unit_variance():
    # dof 8 keeps the fourth moment finite so the sample covariance settles
    streams = correlated_innovations(_sigma({(1, 3): 0.5}), STUDENT_T, 10**6, 4003, dof=8.0)
    cov = np.cov(streams)
    assert cov[0, 0] == pytest.approx(1.0, abs=0.03)
    assert cov[0, 2] == pytest.approx(0.5, abs=0.02)


def test_innovations_singular_sigma_accepted():
    # a perfectly correlated pair of streams is a legitimate spec
    streams = correlated_innovations(_sigma({(1, 3): 1.0}), GAUSSIAN, 4096, 7)
    assert np.corrcoef(streams[0], streams[2])[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_innovations_validation():
    with pytest.raises(InvalidParameter):
        correlated_innovations(np.eye(3), GAUSSIAN, 100, 1)
    bad = np.eye(4)
    bad[0, 1] = 0.3  # asymmetric
    with pytest.raises(InvalidParameter):
        correlated_innovations(bad, GAUSSIAN, 100, 1)
    with pytest.raises(InvalidParameter):
        correlated_innovations(_sigma({(1, 3): 1.2}), GAUSSIAN, 100, 1)
    with pytest.raises(InvalidParameter):
        correlated_innovations(np.eye(4), STUDENT_T, 100, 1, dof=2.0)
    with pytest.raises(InvalidParameter):
        correlated_innovations(np.eye(4), "cauchy", 100, 1)
    with pytest.raises(InvalidParameter):
        correlated_innovations(np.eye(4), GAUSSIAN, 100, -1)
    with pytest.raises(InvalidParameter):
        correlated_innovations(np.eye(4), GAUSSIAN, 0, 1)


# =========================================================================
# spec container
# =========================================================================


def test_spec_validation_messages():
    with pytest.raises(InvalidParameter, match=r"d1 = 0\.7.*\(-0\.5, 0\.5\)"):
        McArfimaSpec(1, 0, 1, 0, 0.7, 0, 0.2, 0, np.eye(4))
    with pytest.raises(InvalidParameter):
        McArfimaSpec(np.inf, 0, 1, 0, 0.1, 0, 0.2, 0, np.eye(4))
    with pytest.raises(InvalidParameter):
        McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.2, 0, np.eye(4), truncation=0)
    with pytest.raises(InvalidParameter):
        McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.2, 0, np.eye(4), burn_in=-1)


def test_spec_resolution_defaults():
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.3, 0, np.eye(4))
    r = spec.resolved(1000)
    assert r.burn_in == 1000
    assert r.truncation == 2000
    explicit = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.3, 0, np.eye(4), truncation=500, burn_in=10)
    r2 = explicit.resolved(1000)
    assert (r2.truncation, r2.burn_in) == (500, 10)


def test_spec_component_weights_order():
    spec = McArfimaSpec(1.0, 2.0, 3.0, 4.0, 0.1, 0.2, 0.3, 0.4, np.eye(4))
    assert spec.component_weights() == ((1.0, 0.1), (2.0, 0.2), (3.0, 0.3), (4.0, 0.4))


def test_spec_to_dict_roundtrip():
    spec = McArfimaSpec(1, 0.5, 1, 0, 0.3, 0.1, 0.2, 0, _sigma({(1, 3): 0.4}))
    rebuilt = McArfimaSpec.from_dict(spec.to_dict())
    pair_a = generate_mc_arfima(spec, 128, 5)
    pair_b = generate_mc_arfima(rebuilt, 128, 5)
    assert np.array_equal(pair_a.x, pair_b.x)
    assert np.array_equal(pair_a.y, pair_b.y)


@pytest.mark.parametrize("resolved", [False, True])
@pytest.mark.parametrize("dist,dof", [(GAUSSIAN, None), (STUDENT_T, 3.0)])
def test_spec_from_dict_inverts_to_dict(dist, dof, resolved):
    # through JSON, as a manifest stores it; 1/3 and 0.1 have no exact
    # binary form, so any rounding in the trip would show in sigma's bits
    sigma = _sigma({(1, 3): 1 / 3, (2, 4): 0.1})
    spec = McArfimaSpec(
        1.0, 0.5, 0.7, 0.0, 0.4, 0.1, 0.3, -0.2, sigma, innovation_dist=dist, dof=dof
    )
    if resolved:
        spec = spec.resolved(1000)
    back = McArfimaSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back.to_dict() == spec.to_dict()
    assert back.sigma.tobytes() == spec.sigma.tobytes()
    assert (back.truncation, back.burn_in) == (spec.truncation, spec.burn_in)


@pytest.mark.parametrize("generator", [1, 2])
def test_spec_record_keeps_the_generator_version(generator):
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4), generator=generator)
    record = json.loads(json.dumps(spec.to_dict()))
    # version 1 has the record it had before the field existed
    assert ("generator" in record) == (generator != 1)
    back = McArfimaSpec.from_dict(record)
    assert back.generator == generator
    assert back.to_dict() == spec.to_dict()


def test_new_specs_take_the_current_generator():
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4))
    assert spec.generator == 2
    assert spec.resolved(256).generator == 2
    record = spec.to_dict()
    del record["generator"]
    assert McArfimaSpec.from_dict(record).generator == 1


@pytest.mark.parametrize("bad", ["2", True, 0, 3, 2.0, None])
def test_spec_refuses_an_unknown_generator(bad):
    with pytest.raises(InvalidParameter, match="generator must be 1 or 2"):
        McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4), generator=bad)
    record = {**McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4)).to_dict(), "generator": bad}
    with pytest.raises(InvalidParameter, match="generator must be 1 or 2"):
        McArfimaSpec.from_dict(record)


# =========================================================================
# generation
# =========================================================================


def test_generate_arfima_deterministic():
    a = generate_arfima(0.3, 256, 99)
    b = generate_arfima(0.3, 256, 99)
    assert np.array_equal(a, b)


def test_fft_filter_matches_direct_convolution():
    d, t, trunc, burn = 0.35, 64, 100, 16
    base = 123
    out = generate_arfima(d, t, base, truncation=trunc, burn_in=burn)
    stream = np.random.default_rng(base).standard_normal(trunc + burn + t)
    w = arfima_weights(d, trunc + 1)
    direct = np.convolve(stream, w)[trunc : trunc + burn + t][burn:]
    assert np.allclose(out, direct, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(64, 3000),
    d=st.floats(-0.49, 0.49),
    truncation=st.one_of(st.none(), st.integers(1, 6000)),
    burn_in=st.one_of(st.none(), st.integers(0, 3000)),
    seed=st.integers(0, 2**32),
)
@example(length=8193, d=0.4, truncation=None, burn_in=0, seed=1)
@example(length=64, d=-0.3, truncation=1, burn_in=0, seed=2)
def test_filter_versions_give_the_same_tail(length, d, truncation, burn_in, seed):
    # version 2 transforms at a power of two >= the stream, never longer
    # than version 1's power of two above the linear convolution; the kept
    # tail agrees with version 1, and at small sizes both agree with the
    # direct convolution
    spec = McArfimaSpec(1, 0, 1, 0, d, 0, 0, 0, np.eye(4), truncation=truncation, burn_in=burn_in)
    spec = spec.resolved(length)
    trunc, n_keep = spec.truncation, spec.burn_in + length
    stream = np.random.default_rng(seed).standard_normal(trunc + n_keep)
    weights = arfima_weights(d, trunc + 1)
    n1, n2 = (_transform_length(stream.size, weights.size, g) for g in (1, 2))
    assert stream.size <= n2 <= n1
    (v1,) = _fft_convolve_tail([stream], np.fft.rfft(weights, n1), weights.size, n_keep)
    (v2,) = _fft_convolve_tail([stream], np.fft.rfft(weights, n2), weights.size, n_keep)
    assert v1.shape == v2.shape == (n_keep,)
    # relative to the tail's scale: single samples may sit near zero
    np.testing.assert_allclose(v2, v1, rtol=1e-12, atol=1e-12 * np.abs(v1).max())
    if stream.size * weights.size <= 2_000_000:
        direct = np.convolve(stream, weights)[trunc : trunc + n_keep]
        assert np.allclose(v1, direct, rtol=1e-10, atol=1e-12)
        assert np.allclose(v2, direct, rtol=1e-10, atol=1e-12)


def test_generator_version_is_applied_by_the_filter():
    # the two versions round differently, so the recorded version decides
    # which bits a spec reproduces
    spec = McArfimaSpec(1, 0.5, 1, 0, 0.3, 0.1, 0.2, 0, _sigma({(1, 3): 0.5}))
    v1 = generate_mc_arfima(dataclasses.replace(spec, generator=1), 512, 77)
    v2 = generate_mc_arfima(spec, 512, 77)
    assert v1.spec_echo.generator == 1 and v2.spec_echo.generator == 2
    assert not np.array_equal(v1.x, v2.x)
    np.testing.assert_allclose(v2.x, v1.x, rtol=1e-12, atol=1e-12 * np.abs(v1.x).max())
    np.testing.assert_allclose(v2.y, v1.y, rtol=1e-12, atol=1e-12 * np.abs(v1.y).max())


def test_filter_takes_one_weight_spectrum_per_distinct_d(monkeypatch):
    # three live streams share d = 0.3 and the fourth is switched off: one
    # rfft per stream plus one weight spectrum, and each side is still the
    # weighted sum of direct convolutions
    spec = McArfimaSpec(1, 0.5, 2, 0, 0.3, 0.3, 0.3, 0.1, np.eye(4),
                        truncation=100, burn_in=16)
    t = 64
    eps = np.random.default_rng(5).standard_normal((4, 100 + 16 + t))
    w = arfima_weights(0.3, 101)
    real_rfft = np.fft.rfft
    calls = []
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or real_rfft(*a, **k))
    x, y = filter_mc_arfima(spec, eps, t)
    assert len(calls) == 4
    tail = [np.convolve(e, w)[100 : 100 + 16 + t][16:] for e in eps]
    assert np.allclose(x, tail[0] + 0.5 * tail[1], rtol=1e-10, atol=1e-12)
    assert np.allclose(y, 2 * tail[2], rtol=1e-10, atol=1e-12)
    # the same spec object again: its memo holds the spectrum, so only the
    # three live streams are transformed and no weights are built
    weight_calls = []
    monkeypatch.setattr(
        "plcc.arfima.arfima_weights", lambda *a: weight_calls.append(a) or w
    )
    calls.clear()
    x2, y2 = filter_mc_arfima(spec, eps, t)
    assert len(calls) == 3 and weight_calls == []
    assert np.array_equal(x2, x) and np.array_equal(y2, y)


def test_threads_sharing_a_spec_transform_each_weight_sequence_once(monkeypatch):
    # more threads than cores filter through one resolved spec, as the
    # replications of an experiment do; a weight build made slow widens
    # any window between the memo lookup and its update
    spec = McArfimaSpec(1, 1, 1, 1, 0.3, 0.1, 0.3, 0.1, np.eye(4)).resolved(256)
    eps = np.random.default_rng(9).standard_normal((4, spec.truncation + spec.burn_in + 256))
    reference = filter_mc_arfima(dataclasses.replace(spec), eps, 256)
    real_weights = arfima_weights
    built = []

    def slow_weights(d, n_terms):
        built.append(d)
        time.sleep(0.01)
        return real_weights(d, n_terms)

    monkeypatch.setattr("plcc.arfima.arfima_weights", slow_weights)
    results = [None] * 8
    threads = [
        threading.Thread(target=lambda k=k: results.__setitem__(k, filter_mc_arfima(spec, eps, 256)))
        for k in range(len(results))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(built) == [0.1, 0.3]
    for x, y in results:
        assert np.array_equal(x, reference[0]) and np.array_equal(y, reference[1])


@pytest.mark.filterwarnings("ignore::plcc.errors.TruncationWarning")
@settings(max_examples=30, deadline=None)
@given(
    generator=st.sampled_from([1, 2]),
    weights=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=4, max_size=4),
    ds=st.one_of(
        st.floats(-0.45, 0.45).map(lambda d: [d] * 4),
        st.lists(st.floats(-0.45, 0.45), min_size=4, max_size=4),
    ),
    cutoffs=st.one_of(
        st.just((None, None)), st.tuples(st.integers(64, 700), st.integers(0, 300))
    ),
    length=st.integers(64, 400),
    seed=st.integers(0, 2**32),
)
def test_memoized_spectra_leave_the_pair_unchanged(generator, weights, ds, cutoffs, length, seed):
    # a repeated call on one resolved spec object reads its spectra from the
    # memo; a fresh equal spec, an unresolved one and the bare filter on
    # freshly drawn streams compute them anew, and all give the same bits
    truncation, burn_in = cutoffs
    sigma = _sigma({(1, 3): 0.5, (2, 4): 0.3})

    def make():
        return McArfimaSpec(*weights, *ds, sigma, truncation=truncation,
                            burn_in=burn_in, generator=generator)

    spec = make()
    rspec = spec.resolved(length)
    first = generate_mc_arfima(rspec, length, seed)
    pairs = [
        first,
        generate_mc_arfima(rspec, length, seed),
        generate_mc_arfima(make().resolved(length), length, seed),
        generate_mc_arfima(spec, length, seed),
    ]
    eps = correlated_innovations(
        sigma, GAUSSIAN, rspec.truncation + rspec.burn_in + length, seed
    )
    x, y = filter_mc_arfima(spec.resolved(length), eps, length)
    assert first.spec_echo is rspec
    for pair in pairs:
        assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y)
    # the memo keys on the transform size too, so the same spec object at
    # another length transforms anew
    again = generate_mc_arfima(rspec, length + 200, seed)
    fresh = generate_mc_arfima(make().resolved(length), length + 200, seed)
    assert np.array_equal(again.x, fresh.x) and np.array_equal(again.y, fresh.y)


def test_generate_mc_arfima_x_side_matches_univariate():
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4))
    pair = generate_mc_arfima(spec, 512, 2024)
    single = generate_arfima(0.3, 512, 2024)
    assert np.array_equal(pair.x, single)


def test_generated_series_are_read_only_compact_arrays():
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, _sigma({(1, 3): 0.5}))
    pair = generate_mc_arfima(spec, 128, 6)
    single = generate_arfima(0.3, 128, 6)
    for series in (pair.x, pair.y, single):
        assert series.dtype == float and series.shape == (128,)
        # its own memory: no view that keeps the burn-in alive
        assert series.base is None and series.flags.c_contiguous
        with pytest.raises(ValueError):
            series[0] = 9.0


def test_zero_weight_component_is_inert():
    # with beta = 0 the value of d2 cannot matter
    a = McArfimaSpec(1, 0, 1, 0, 0.3, 0.0, 0.2, 0, np.eye(4))
    b = McArfimaSpec(1, 0, 1, 0, 0.3, 0.4, 0.2, 0, np.eye(4))
    pa = generate_mc_arfima(a, 256, 8)
    pb = generate_mc_arfima(b, 256, 8)
    assert np.array_equal(pa.x, pb.x)
    assert np.array_equal(pa.y, pb.y)


def test_generate_pair_is_deterministic_and_echoes_spec():
    spec = McArfimaSpec(1, 1, 1, 1, 0.3, 0.1, 0.4, 0.2, _sigma({(1, 3): 0.5}))
    p1 = generate_mc_arfima(spec, 300, 31)
    p2 = generate_mc_arfima(spec, 300, 31)
    assert np.array_equal(p1.x, p2.x)
    assert np.array_equal(p1.y, p2.y)
    assert p1.seed == 31
    assert p1.spec_echo.truncation == 600
    assert p1.spec_echo.burn_in == 300
    assert len(p1.x) == 300


def test_correlated_pair_has_positive_dependence():
    spec = McArfimaSpec(1, 0, 1, 0, 0.2, 0, 0.2, 0, _sigma({(1, 3): 0.9}))
    pair = generate_mc_arfima(spec, 4096, 17)
    lag0 = dict(sample_ccf(pair.x, pair.y, 1))[0]
    assert lag0 > 0.5


def test_truncation_warning_when_memory_is_cut():
    spec = McArfimaSpec(1, 0, 1, 0, 0.4, 0, 0.4, 0, np.eye(4), truncation=64, burn_in=0)
    with pytest.warns(TruncationWarning):
        generate_mc_arfima(spec, 128, 3)
    with pytest.warns(TruncationWarning):
        generate_arfima(0.4, 128, 3, truncation=64, burn_in=0)


def test_generate_validation():
    spec = McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.1, 0, np.eye(4))
    with pytest.raises(InvalidParameter):
        generate_mc_arfima(spec, 32, 1)
    with pytest.raises(InvalidParameter):
        generate_mc_arfima(spec, 128, -4)
    with pytest.raises(InvalidParameter):
        generate_arfima(0.6, 128, 1)


def test_filter_requires_resolved_spec():
    spec = McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.1, 0, np.eye(4))
    with pytest.raises(InvalidParameter):
        filter_mc_arfima(spec, np.zeros((4, 100)), 10)
    resolved = spec.resolved(64)
    with pytest.raises(InvalidParameter):
        filter_mc_arfima(resolved, np.zeros((4, 10)), 64)


def test_swapping_sides_swaps_output():
    # mirrored spec under mirrored streams returns the swapped pair
    sigma = _sigma({(1, 3): 0.6})
    spec = McArfimaSpec(1, 0, 1, 0, 0.4, 0, 0.1, 0, sigma).resolved(128)
    swapped = McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.4, 0, sigma).resolved(128)
    total = spec.truncation + spec.burn_in + 128
    eps = correlated_innovations(sigma, GAUSSIAN, total, 55)
    x1, y1 = filter_mc_arfima(spec, eps, 128)
    x2, y2 = filter_mc_arfima(swapped, eps[[2, 3, 0, 1]], 128)
    assert np.array_equal(x1, y2)
    assert np.array_equal(y1, x2)


# =========================================================================
# scaling behavior of generated pairs
# =========================================================================


def test_cross_partial_sums_track_dominant_exponent():
    # covariance of block sums grows like t^(2 H_xy) with
    # H_xy = 0.5 + max (d_i + d_j) / 2 over sigma-connected pairs
    spec = McArfimaSpec(1, 0, 1, 0, 0.4, 0, 0.4, 0, _sigma({(1, 3): 0.5}))
    grid = np.unique(np.geomspace(4, 16384 // 4, 20).astype(int))
    fits = []
    for rep in range(20):
        pair = generate_mc_arfima(spec, 16384, split_seed(911, rep))
        windows, curve = partial_sum_scaling(pair.x, pair.y, grid)
        # covariances can dip negative at small windows; fit the magnitude,
        # matching the package convention for cross curves
        pts = np.column_stack([windows, np.abs(curve)])
        fits.append(fit_loglog(pts, 2.0).exponent)
    assert abs(np.mean(fits) - 0.9) < 0.15
