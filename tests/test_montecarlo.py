"""Monte Carlo harness: seeding, aggregation, gating, feasibility sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcc.arfima import McArfimaSpec
from plcc.errors import InvalidInput, InvalidParameter
from plcc.fileio import json_dumps
from plcc.montecarlo import (
    ESTIMATORS,
    ExperimentConfig,
    _cell_from_samples,
    feasibility_sweep,
    run_experiment,
    split_seed,
    standard_regimes,
    theoretical_exponents,
)


def _sigma(pairs=None):
    s = np.eye(4)
    for (i, j), v in (pairs or {}).items():
        s[i - 1, j - 1] = s[j - 1, i - 1] = v
    return s


FULL = _sigma({(i, j): 0.5 for i in range(1, 5) for j in range(i + 1, 5)})
STANDARD = McArfimaSpec(1, 1, 1, 1, 0.3, 0.1, 0.4, 0.2, FULL)
INDEPENDENT = McArfimaSpec(1, 0, 1, 0, 0.4, 0.0, 0.2, 0.0, _sigma())


# =========================================================================
# seeding
# =========================================================================


def test_split_seed_deterministic_and_distinct():
    assert split_seed(42, 0) == split_seed(42, 0)
    seeds = {split_seed(42, i) for i in range(200)}
    assert len(seeds) == 200
    assert split_seed(42, 0) != split_seed(43, 0)
    assert all(0 <= s < 2**64 for s in seeds)


def test_split_seed_validation():
    with pytest.raises(InvalidParameter):
        split_seed(-1, 0)
    with pytest.raises(InvalidParameter):
        split_seed(0, -1)


# =========================================================================
# theoretical targets
# =========================================================================


def test_theoretical_exponents_standard():
    t = theoretical_exponents(STANDARD)
    assert t["h_x"] == pytest.approx(0.8)
    assert t["h_y"] == pytest.approx(0.9)
    assert t["h_xy"] == pytest.approx(0.85)
    assert t["h_rho"] == pytest.approx(0.0)


def test_theoretical_exponents_skip_zero_weights():
    # the second component of each side is switched off, so its memory
    # parameter must not contribute
    spec = McArfimaSpec(1, 0, 1, 0, 0.1, 0.4, 0.1, 0.4, _sigma({(1, 3): 0.9}))
    t = theoretical_exponents(spec)
    assert t["h_x"] == pytest.approx(0.6)
    assert t["h_y"] == pytest.approx(0.6)
    assert t["h_xy"] == pytest.approx(0.6)


def test_theoretical_exponents_disconnected_cross():
    t = theoretical_exponents(INDEPENDENT)
    assert t["h_x"] == pytest.approx(0.9)
    assert t["h_y"] == pytest.approx(0.7)
    assert t["h_xy"] is None
    assert t["h_rho"] is None


def test_theoretical_exponents_fully_silent_side():
    spec = McArfimaSpec(0, 0, 1, 0, 0.3, 0.1, 0.4, 0.2, FULL)
    t = theoretical_exponents(spec)
    assert t["h_x"] is None
    assert t["h_xy"] is None


# =========================================================================
# configuration
# =========================================================================


def test_experiment_config_validation():
    ok = dict(spec=STANDARD, lengths=(512,), replications=4,
              estimators=("dfa", "dcca"), master_seed=7)
    ExperimentConfig(**ok)
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "replications": 1})
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "lengths": (512, 128)})
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "lengths": ()})
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "estimators": ("dfa", "mystery")})
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "estimators": ()})
    # a repeat would run twice and write two cells under one (measurement,
    # length) key, of which ExperimentResult.cell finds only the first
    with pytest.raises(InvalidParameter, match=r"lengths must not repeat an entry, got \[512, 1024, 512\]"):
        ExperimentConfig(**{**ok, "lengths": (512, 1024, 512)})
    with pytest.raises(InvalidParameter, match="estimators must not repeat an entry"):
        ExperimentConfig(**{**ok, "estimators": ("dfa", "dcca", "dfa")})
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "master_seed": -5})
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "scale_min": 40, "scale_max": 40})
    with pytest.raises(InvalidParameter):
        ExperimentConfig(**{**ok, "scale_max": 0})
    # the spectral estimators' own rules, checked before any generation:
    # an odd bandwidth of at least 3, and 8 <= n_freqs <= min(lengths) // 4
    for bandwidth in (4, 1, 11.5):
        with pytest.raises(InvalidParameter):
            ExperimentConfig(**{**ok, "bandwidth": bandwidth})
    for n_freqs in (4, 0, 129):
        with pytest.raises(InvalidParameter):
            ExperimentConfig(**{**ok, "n_freqs": n_freqs, "lengths": (1024, 512)})
    ExperimentConfig(**{**ok, "n_freqs": 128, "bandwidth": 3})
    # a detrended grid that cannot be built at some length fails the config
    # before any generation; a spectral-only config does not build one
    bad_grids = [
        ({"scale_min": 200}, "leaves no admissible scales"),
        ({"n_scales": 3}, "n_scales must be an integer >= 5, got 3"),
        ({"n_scales": -1}, "n_scales must be an integer >= 5, got -1"),
        ({"scale_min": 11, "scale_max": 12}, "fewer than 5 distinct scales"),
        ({"poly_order": -1}, "poly_order must be a non-negative integer"),
        ({"poly_order": 1.5}, "poly_order must be a non-negative integer"),
    ]
    for extra, message in bad_grids:
        with pytest.raises(InvalidParameter, match=message):
            ExperimentConfig(**{**ok, **extra})
        with pytest.raises(InvalidParameter, match=message):
            ExperimentConfig(**{**ok, **extra, "estimators": ("logcross", "rho")})
        with pytest.raises(InvalidParameter, match=message):
            ExperimentConfig(**{**ok, **extra, "lengths": (8192, 512)})
        ExperimentConfig(**{**ok, **extra, "estimators": ("logperiodogram",)})
    # the anti-cointegration cap T // 64 leaves fewer than 5 scales below 1024
    with pytest.raises(InvalidParameter, match="fewer than 5 distinct scales"):
        standard_regimes(length=1023, replications=2)
    assert len(standard_regimes(length=1024, replications=2)) == 5


def test_experiment_config_refuses_a_string_of_lengths():
    with pytest.raises(InvalidParameter, match="^lengths must be a list or tuple, got '512'$"):
        ExperimentConfig(
            spec=STANDARD, lengths="512", replications=4, estimators=("dfa",), master_seed=7
        )


def test_measurements_expansion():
    cfg = ExperimentConfig(
        spec=STANDARD, lengths=(512,), replications=4,
        estimators=("dfa", "dcca", "rho"), master_seed=7,
    )
    assert cfg.measurements == ("dfa_hx", "dfa_hy", "dcca_hxy", "rho_median")


# =========================================================================
# running and aggregating
# =========================================================================


@pytest.fixture(scope="module")
def small_result():
    cfg = ExperimentConfig(
        spec=STANDARD, lengths=(512, 1024), replications=6,
        estimators=("dfa", "dcca", "rho"), master_seed=9090, label="small",
    )
    return cfg, run_experiment(cfg)


def test_thread_count_does_not_change_results(small_result):
    cfg, serial = small_result
    threaded = run_experiment(cfg, jobs=4)
    assert threaded.to_dict() == serial.to_dict()


@settings(max_examples=10, deadline=None)
@given(
    master_seed=st.integers(0, 2**32 - 1),
    estimators=st.lists(st.sampled_from(sorted(ESTIMATORS)), min_size=1, max_size=4, unique=True),
    jobs=st.integers(1, 3),
)
def test_result_bytes_do_not_depend_on_jobs(master_seed, estimators, jobs):
    cfg = ExperimentConfig(
        spec=STANDARD, lengths=(512,), replications=3,
        estimators=tuple(estimators), master_seed=master_seed,
    )
    serial = json_dumps(run_experiment(cfg, jobs=1).to_dict())
    assert json_dumps(run_experiment(cfg, jobs=jobs).to_dict()) == serial


def test_result_structure(small_result):
    cfg, res = small_result
    assert res.label == "small"
    assert res.lengths == (512, 1024)
    assert len(res.cells) == len(cfg.measurements) * len(cfg.lengths)
    assert res.config_echo == cfg.echo()
    assert res.to_dict()["config"]["label"] == "small"
    with pytest.raises(KeyError):
        res.cell("dfa_hx", 4096)
    with pytest.raises(KeyError):
        res.cell("nonsense", 512)


def test_cell_moments_match_hand_computation(small_result):
    _, res = small_result
    cell = res.cell("dfa_hx", 1024)
    assert len(cell.samples) == 6
    done = np.array([v for v in cell.samples if v is not None])
    assert cell.n_completed == done.size
    assert cell.n_failed == 6 - done.size
    assert cell.mean == pytest.approx(done.mean(), abs=0.0)
    assert cell.std == pytest.approx(done.std(ddof=1), abs=0.0)
    assert cell.target == pytest.approx(0.8)
    assert cell.bias == pytest.approx(done.mean() - 0.8)
    q05, q50, q95 = np.quantile(done, [0.05, 0.5, 0.95])
    assert (cell.q05, cell.q50, cell.q95) == (q05, q50, q95)
    assert cell.to_dict()["samples"] == list(cell.samples)


def test_moments_of_samples_as_large_as_beta_stay_finite():
    # y weighted 1e160 against x puts beta_median near 1e158, whose squared
    # deviations overflow; the moments are read at unit scale instead
    spec = McArfimaSpec(1, 1, 1, 1e160, 0.3, 0.1, 0.4, 0.2, FULL)
    cfg = ExperimentConfig(spec, (256,), 3, ("beta",), master_seed=5)
    res = run_experiment(cfg)
    cell = res.cell("beta_median", 256)
    done = np.array(cell.samples)
    assert cell.n_completed == 3 and np.all(np.abs(done) > 1e150)
    k = np.frexp(np.abs(done).max())[1]
    unit = np.ldexp(done, -k)
    assert cell.mean == np.ldexp(unit.mean(), k)
    assert cell.std == np.ldexp(unit.std(ddof=1), k)
    assert [cell.q05, cell.q50, cell.q95] == list(np.ldexp(np.quantile(unit, [0.05, 0.5, 0.95]), k))
    json_dumps(res.to_dict())


def test_a_spread_past_the_largest_double_is_refused():
    big = float(np.finfo(float).max)
    with pytest.raises(InvalidInput, match="beta_median statistics at length 256 overflow"):
        _cell_from_samples("beta_median", 256, None, [big, -big, None])


@pytest.mark.parametrize("n_failed, degraded", [(2, False), (3, True)])
def test_a_cell_is_degraded_past_a_fifth_of_its_samples_missing(n_failed, degraded):
    # the boundary itself, 2 of 10, is not degraded
    samples = [0.5 + 0.01 * k for k in range(10 - n_failed)] + [None] * n_failed
    cell = _cell_from_samples("dfa_hx", 256, 0.5, samples)
    assert (cell.n_completed, cell.n_failed) == (10 - n_failed, n_failed)
    assert cell.degraded is degraded


def test_replication_seeds_shared_across_lengths(small_result):
    # replication r uses one child seed for every length, so the shorter
    # run is not a prefix re-draw but the same innovation stream truncated
    _, res = small_result
    s512 = res.samples("dfa_hx", 512)
    s1024 = res.samples("dfa_hx", 1024)
    assert len(s512) == len(s1024) == 6
    assert s512 != s1024


def test_dispersion_shrinks_with_length():
    spec = McArfimaSpec(1, 0, 1, 0, 0.3, 0.0, 0.3, 0.0, _sigma({(1, 3): 0.5}))
    cfg = ExperimentConfig(
        spec=spec, lengths=(1024, 2048, 4096, 8192), replications=30,
        estimators=("dfa",), master_seed=1303, label="dispersion",
    )
    res = run_experiment(cfg)
    stds = [res.cell("dfa_hx", n).std for n in cfg.lengths]
    violations = sum(1 for a, b in zip(stds, stds[1:]) if b >= a)
    assert violations <= 1
    assert stds[-1] < stds[0] / 2


def test_no_memory_estimates_center_on_half():
    spec = McArfimaSpec(1, 1, 1, 1, 0.0, 0.0, 0.0, 0.0, FULL)
    cfg = ExperimentConfig(
        spec=spec, lengths=(8192,), replications=30,
        estimators=("dfa",), master_seed=1001, label="flat",
    )
    res = run_experiment(cfg)
    assert abs(res.cell("dfa_hx", 8192).mean - 0.5) < 0.03
    assert abs(res.cell("dfa_hy", 8192).mean - 0.5) < 0.03


def test_independent_pair_cross_fit_is_gated():
    cfg = ExperimentConfig(
        spec=INDEPENDENT, lengths=(8192,), replications=10,
        estimators=("dfa", "dcca"), master_seed=555, label="indep",
    )
    res = run_experiment(cfg)
    cell = res.cell("dcca_hxy", 8192)
    assert cell.n_failed >= 8
    assert cell.degraded
    assert res.degraded
    # the marginals are unaffected
    assert res.cell("dfa_hx", 8192).n_failed == 0


def test_silent_side_leaves_the_other_marginal_measured():
    # y is identically zero: every measurement that reads it fails, while
    # H_x comes from its own curve of the same pass, as a univariate pass
    # reads it
    spec = McArfimaSpec(1, 0, 0, 0, 0.3, 0.0, 0.0, 0.0, _sigma())
    res = run_experiment(ExperimentConfig(
        spec=spec, lengths=(512,), replications=3,
        estimators=("dfa", "dcca", "rho"), master_seed=3,
    ))
    assert res.cell("dfa_hx", 512).n_failed == 0
    for name in ("dfa_hy", "dcca_hxy", "rho_median"):
        assert res.cell(name, 512).n_completed == 0


# =========================================================================
# feasibility sweep
# =========================================================================


def test_feasibility_sweep_aggregation():
    corr = ExperimentConfig(
        spec=STANDARD, lengths=(1024,), replications=6,
        estimators=("dfa", "dcca"), master_seed=77, label="corr",
    )
    indep = ExperimentConfig(
        spec=INDEPENDENT, lengths=(1024,), replications=6,
        estimators=("dfa", "dcca"), master_seed=78, label="indep",
    )
    results = [run_experiment(corr), run_experiment(indep)]
    out = feasibility_sweep(results, tolerance=0.1)
    assert set(out) == {"tolerance", "rows", "max_gap", "all_within_bound", "unmeasured"}
    assert len(out["rows"]) == 2
    by_label = {r["label"]: r for r in out["rows"]}

    res = results[0]
    hx = res.samples("dfa_hx", 1024)
    hy = res.samples("dfa_hy", 1024)
    hxy = res.samples("dcca_hxy", 1024)
    gaps = np.array([
        c - (a + b) / 2.0
        for a, b, c in zip(hx, hy, hxy)
        if None not in (a, b, c)
    ])
    row = by_label["corr"]
    assert row["n"] == gaps.size
    assert row["gap"] == pytest.approx(gaps.mean(), abs=0.0)
    assert row["gap_se"] == pytest.approx(gaps.std(ddof=1) / np.sqrt(gaps.size))
    assert row["within_bound"] == (row["gap"] <= 0.1)

    assert ("indep", 1024) in out["unmeasured"]
    assert by_label["indep"]["gap"] is None
    measured = [r["gap"] for r in out["rows"] if r["gap"] is not None]
    assert out["max_gap"] == max(measured)


def test_feasibility_sweep_validation():
    cfg = ExperimentConfig(
        spec=STANDARD, lengths=(512,), replications=2,
        estimators=("dfa",), master_seed=1, label="nodcca",
    )
    with pytest.raises(InvalidParameter):
        feasibility_sweep([run_experiment(cfg)])
    with pytest.raises(InvalidParameter):
        feasibility_sweep([], tolerance=0.0)


def test_standard_regimes_roster():
    regimes = standard_regimes(length=2048, replications=4, master_seed=3)
    labels = [c.label for c in regimes]
    assert labels == [
        "standard", "anti-cointegration", "independent", "heavy-tail", "short-memory",
    ]
    for c in regimes:
        assert c.lengths == (2048,)
        assert c.replications == 4
        assert {"dfa", "dcca"} <= set(c.estimators)
    anti = regimes[1]
    assert anti.scale_max == 2048 // 64
    heavy = regimes[3]
    assert heavy.spec.innovation_dist == "student-t"


def test_standard_regimes_use_the_given_generator():
    assert {c.spec.generator for c in standard_regimes(length=1024, replications=2)} == {2}
    old = standard_regimes(length=1024, replications=2, generator=1)
    assert {c.spec.generator for c in old} == {1}
    with pytest.raises(InvalidParameter, match="generator must be 1 or 2"):
        standard_regimes(length=1024, replications=2, generator=3)
