"""Fractional-integration weights, innovation streams and pair generation."""

import dataclasses
import json
import math
import sys
import threading
import time
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plcc.arfima
from plcc.arfima import (
    GAUSSIAN,
    STUDENT_T,
    McArfimaSpec,
    _fft_convolve_tail,
    _transform_buffers,
    _transform_length,
    arfima_weights,
    correlated_innovations,
    filter_mc_arfima,
    generate_arfima,
    generate_mc_arfima,
)
from oracles import mc_arfima_pair, partial_sum_scaling, sample_ccf
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


def test_spec_refuses_a_malformed_sigma():
    nan = np.eye(4)
    nan[0, 2] = nan[2, 0] = np.nan
    with pytest.raises(InvalidParameter, match="^sigma contains NaN or infinite entries$"):
        McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.2, 0, nan)
    flat = np.eye(4)
    flat[1, 1] = 0.0
    message = "^sigma diagonal entries must be strictly positive$"
    with pytest.raises(InvalidParameter, match=message):
        McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.2, 0, flat)
    record = McArfimaSpec(1, 0, 1, 0, 0.1, 0, 0.2, 0, np.eye(4)).to_dict()
    with pytest.raises(InvalidParameter, match="^sigma must be a 4x4 array of numbers, got 'eye'$"):
        McArfimaSpec.from_dict({**record, "sigma": "eye"})


@pytest.mark.parametrize(
    "cutoffs", [{"truncation": 1500.7}, {"truncation": 1500.0}, {"burn_in": 300.2}, {"burn_in": True}]
)
def test_fractional_cutoffs_are_refused(cutoffs):
    # rounding a cutoff down would generate with a value the record lacks
    with pytest.raises(InvalidParameter, match="must be an integer"):
        McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4), **cutoffs)
    with pytest.raises(InvalidParameter, match="must be an integer"):
        generate_arfima(0.3, 1000, 1, **cutoffs)


@pytest.mark.parametrize("truncation", [1500, np.int64(1500)])
def test_integer_cutoffs_are_accepted(truncation):
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4), truncation=truncation,
                        burn_in=np.int64(300))
    assert type(spec.truncation) is int and type(spec.burn_in) is int
    assert spec.to_dict()["truncation"] == 1500
    x, _ = generate_mc_arfima(spec, 1000, 31)
    assert np.array_equal(x, generate_arfima(0.3, 1000, 31, truncation=truncation, burn_in=300))


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
    xa, ya = generate_mc_arfima(spec, 128, 5)
    xb, yb = generate_mc_arfima(rebuilt, 128, 5)
    assert np.array_equal(xa, xb)
    assert np.array_equal(ya, yb)


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
    skip_share=st.floats(0, 1),
)
@example(length=8193, d=0.4, truncation=None, burn_in=0, seed=1, skip_share=0.0)
@example(length=64, d=-0.3, truncation=1, burn_in=0, seed=2, skip_share=1.0)
def test_filter_versions_give_the_same_tail(length, d, truncation, burn_in, seed, skip_share):
    # version 2 transforms at a power of two >= the stream, never longer
    # than version 1's power of two above the linear convolution; the kept
    # tail agrees with version 1, and at small sizes both agree with the
    # direct convolution. The skipped burn-in may be any share of the
    # fully-overlapping samples but the last.
    spec = McArfimaSpec(1, 0, 1, 0, d, 0, 0, 0, np.eye(4), truncation=truncation, burn_in=burn_in)
    spec = spec.resolved(length)
    trunc, n_tail = spec.truncation, spec.burn_in + length
    stream = np.random.default_rng(seed).standard_normal(trunc + n_tail)
    weights = arfima_weights(d, trunc + 1)
    skip = int(skip_share * (n_tail - 1))
    n_keep = n_tail - skip
    n1, n2 = (_transform_length(stream.size, weights.size, g) for g in (1, 2))
    assert stream.size <= n2 <= n1
    v1, v2 = (
        _fft_convolve_tail(stream, np.fft.rfft(weights, n), weights.size, skip, n_keep, _transform_buffers(n))
        for n in (n1, n2)
    )
    assert v1.shape == v2.shape == (n_keep,)
    # relative to the tail's scale: single samples may sit near zero
    np.testing.assert_allclose(v2, v1, rtol=1e-12, atol=1e-12 * np.abs(v1).max())
    if stream.size * weights.size <= 2_000_000:
        direct = np.convolve(stream, weights)[weights.size - 1 + skip :][:n_keep]
        assert np.allclose(v1, direct, rtol=1e-10, atol=1e-12)
        assert np.allclose(v2, direct, rtol=1e-10, atol=1e-12)


def test_generator_version_is_applied_by_the_filter():
    # the two versions round differently, so the recorded version decides
    # which bits a spec reproduces
    spec = McArfimaSpec(1, 0.5, 1, 0, 0.3, 0.1, 0.2, 0, _sigma({(1, 3): 0.5}))
    x1, y1 = generate_mc_arfima(dataclasses.replace(spec, generator=1), 512, 77)
    x2, y2 = generate_mc_arfima(spec, 512, 77)
    assert not np.array_equal(x1, x2)
    np.testing.assert_allclose(x2, x1, rtol=1e-12, atol=1e-12 * np.abs(x1).max())
    np.testing.assert_allclose(y2, y1, rtol=1e-12, atol=1e-12 * np.abs(y1).max())


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
    for px, py in pairs:
        assert np.array_equal(px, x) and np.array_equal(py, y)
    # only a spec that is resolved already keeps spectra in its memo
    assert ("_spectra" in vars(spec)) == (truncation is not None and any(weights))
    # the memo keys on the transform size too, so the same spec object at
    # another length transforms anew
    again = generate_mc_arfima(rspec, length + 200, seed)
    fresh = generate_mc_arfima(make().resolved(length), length + 200, seed)
    assert all(np.array_equal(a, b) for a, b in zip(again, fresh))


def test_only_a_resolved_spec_keeps_its_spectra(monkeypatch):
    # an unresolved spec is resolved for the one call, and the copy goes
    # with its spectra when the call returns; a resolved spec keeps them in
    # its memo for the next call
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4))
    real_resolved = McArfimaSpec.resolved
    copies = []

    def resolved(self, length):
        copy = real_resolved(self, length)
        copies.append(weakref.ref(copy))
        return copy

    monkeypatch.setattr(McArfimaSpec, "resolved", resolved)
    x, y = generate_mc_arfima(spec, 256, 4)
    assert len(copies) == 1 and copies[0]() is None
    assert "_spectra" not in vars(spec)
    rspec = spec.resolved(256)
    first = generate_mc_arfima(rspec, 256, 4)
    assert sorted(key[0] for key in rspec._spectra) == [0.1, 0.3]
    built = []
    monkeypatch.setattr("plcc.arfima._weight_spectrum", lambda *key: built.append(key))
    again = generate_mc_arfima(rspec, 256, 4)
    assert built == [] and len(copies) == 2
    for series, *same in zip((x, y), first, again):
        assert all(np.array_equal(series, other) for other in same)


def test_generate_mc_arfima_x_side_matches_univariate():
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, np.eye(4))
    x, _ = generate_mc_arfima(spec, 512, 2024)
    single = generate_arfima(0.3, 512, 2024)
    assert np.array_equal(x, single)


def test_generated_series_are_read_only_compact_arrays():
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0, 0.1, 0, _sigma({(1, 3): 0.5}))
    pair = generate_mc_arfima(spec, 128, 6)
    single = generate_arfima(0.3, 128, 6)
    assert type(pair) is tuple and len(pair) == 2
    for series in (*pair, single):
        assert series.dtype == float and series.shape == (128,)
        # its own memory: no view that keeps the burn-in alive
        assert series.base is None and series.flags.c_contiguous
        with pytest.raises(ValueError):
            series[0] = 9.0


def test_zero_weight_component_is_inert():
    # with beta = 0 the value of d2 cannot matter
    a = McArfimaSpec(1, 0, 1, 0, 0.3, 0.0, 0.2, 0, np.eye(4))
    b = McArfimaSpec(1, 0, 1, 0, 0.3, 0.4, 0.2, 0, np.eye(4))
    xa, ya = generate_mc_arfima(a, 256, 8)
    xb, yb = generate_mc_arfima(b, 256, 8)
    assert np.array_equal(xa, xb)
    assert np.array_equal(ya, yb)


def test_generate_pair_is_deterministic_and_its_resolved_spec_reproduces_it():
    spec = McArfimaSpec(1, 1, 1, 1, 0.3, 0.1, 0.4, 0.2, _sigma({(1, 3): 0.5}))
    x1, y1 = generate_mc_arfima(spec, 300, 31)
    x2, y2 = generate_mc_arfima(spec, 300, 31)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)
    assert len(x1) == 300
    # the resolved spec is what a generate manifest records
    rspec = spec.resolved(300)
    assert (rspec.truncation, rspec.burn_in) == (600, 300)
    xr, yr = generate_mc_arfima(rspec, 300, 31)
    assert np.array_equal(xr, x1) and np.array_equal(yr, y1)


def test_correlated_pair_has_positive_dependence():
    spec = McArfimaSpec(1, 0, 1, 0, 0.2, 0, 0.2, 0, _sigma({(1, 3): 0.9}))
    x, y = generate_mc_arfima(spec, 4096, 17)
    lag0 = dict(sample_ccf(x, y, 1))[0]
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


def test_a_pair_past_the_largest_double_is_refused_without_a_warning():
    # a finite weight of 1e308 used to fill x with inf, and numpy only warned
    spec = McArfimaSpec(1e308, 0, 1, 0, 0.3, 0, 0.3, 0, _sigma({(1, 3): 0.5}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="^component weights alpha, beta, gamma, delta"):
            generate_mc_arfima(spec, 512, 1)
        with pytest.raises(InvalidParameter, match="overflow the pair$"):
            generate_mc_arfima(dataclasses.replace(spec, alpha=1.0, gamma=-1e308), 512, 1)
        # large weights that keep every sample finite stay as they are
        x, y = generate_mc_arfima(dataclasses.replace(spec, alpha=1e300), 512, 1)
    unit = generate_mc_arfima(dataclasses.replace(spec, alpha=1.0), 512, 1)
    assert np.array_equal(x, 1e300 * unit[0]) and np.array_equal(y, unit[1])


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


_ORACLE_SIGMAS = (
    np.eye(4),
    _sigma({(1, 3): 0.5, (2, 4): 0.3}),
    _sigma({(1, 2): -0.4, (1, 3): 0.6, (2, 4): 0.7, (3, 4): 0.2}),
    # rank-deficient: the Cholesky factor fails and the eigh factor is taken
    _sigma({(1, 3): 1.0}),
    np.ones((4, 4)),
)


@pytest.mark.filterwarnings("ignore::plcc.errors.TruncationWarning")
@settings(max_examples=60, deadline=None)
@given(
    generator=st.sampled_from([1, 2]),
    dist=st.one_of(st.just((GAUSSIAN, None)), st.floats(2.5, 10).map(lambda v: (STUDENT_T, v))),
    weights=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.3]), min_size=4, max_size=4),
    ds=st.lists(st.floats(-0.45, 0.45), min_size=4, max_size=4),
    sigma=st.sampled_from(range(len(_ORACLE_SIGMAS))),
    cutoffs=st.one_of(
        st.just((None, None)), st.tuples(st.integers(1, 4000), st.integers(0, 2000))
    ),
    length=st.integers(64, 3000),
    seed=st.integers(0, 2**32),
    block=st.sampled_from([None, 777, 4096]),
)
# streams longer than the mixing block and no multiple of it: a short last block
@example(generator=2, dist=(GAUSSIAN, None), weights=[1.0, 0.5, 1.0, 0.0],
         ds=[0.4, 0.1, 0.3, 0.2], sigma=1, cutoffs=(10000, 3000), length=5000,
         seed=3, block=None)
@example(generator=1, dist=(STUDENT_T, 3.0), weights=[0.0, 0.0, 1.0, 1.0],
         ds=[0.4, 0.1, -0.3, 0.2], sigma=3, cutoffs=(None, None), length=6000,
         seed=8, block=None)
def test_pair_matches_the_plain_oracle_bit_for_bit(generator, dist, weights, ds, sigma, cutoffs,
                                                    length, seed, block):
    # the generator draws and mixes its streams in place, a block of columns
    # at a time, and filters every component through one buffer pair; the
    # oracle does the same arithmetic in fresh arrays
    innovation_dist, dof = dist
    truncation, burn_in = cutoffs
    spec = McArfimaSpec(*weights, *ds, _ORACLE_SIGMAS[sigma], innovation_dist=innovation_dist,
                        dof=dof, truncation=truncation, burn_in=burn_in, generator=generator)
    with mock.patch("plcc.arfima._MIX_BLOCK", block or plcc.arfima._MIX_BLOCK):
        x, y = generate_mc_arfima(spec, length, seed)
        rspec = spec.resolved(length)
        eps = correlated_innovations(rspec.sigma, innovation_dist,
                                     rspec.truncation + rspec.burn_in + length, seed, dof)
    want = mc_arfima_pair(spec, length, seed)
    assert np.array_equal(x, want[0]) and np.array_equal(y, want[1])
    # the filter reads its streams and leaves them as they were
    before = eps.tobytes()
    fx, fy = filter_mc_arfima(rspec, eps, length)
    assert eps.tobytes() == before
    assert np.array_equal(fx, x) and np.array_equal(fy, y)


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
        x, y = generate_mc_arfima(spec, 16384, split_seed(911, rep))
        windows, curve = partial_sum_scaling(x, y, grid)
        # covariances can dip negative at small windows; fit the magnitude,
        # matching the package convention for cross curves
        pts = np.column_stack([windows, np.abs(curve)])
        fits.append(fit_loglog(pts, 2.0).exponent)
    assert abs(np.mean(fits) - 0.9) < 0.15
