"""Shipping gate: one test per release criterion, at the stated tolerance.

Every test here runs end to end on freshly generated data with fixed master
seeds, so the suite is deterministic. One test name records a
pre-registered hypothesis that the suite now refutes: heavy-tailed
innovations were expected to raise the detrended cross-exponent, but the
generator shares second moments between the Gaussian and Student-t regimes,
so the test checks that the paired shift is zero within its standard error.
pytest -v gives the per-criterion pass/fail lines.
"""

import json
import os
import time

import numpy as np
import pytest

from plcc.arfima import McArfimaSpec, generate_arfima, generate_mc_arfima
from plcc.cli import main
from plcc.core import fit_loglog
from plcc.detrended import (
    DetrendConfig,
    JointFluctuations,
    default_scale_grid,
)
from plcc.montecarlo import (
    ExperimentConfig,
    feasibility_sweep,
    run_experiment,
    split_seed,
    standard_regimes,
)
from plcc.powerlaw import _fit_power_decay, classify, h_rho_frequency, rho_decay
from plcc.spectral import coherency, estimate_h_logperiodogram
from plcc.fileio import sha256_file


def _sigma(pairs=None):
    s = np.eye(4)
    for (i, j), v in (pairs or {}).items():
        s[i - 1, j - 1] = s[j - 1, i - 1] = v
    return s


FULL_HALF = _sigma({(i, j): 0.5 for i in range(1, 5) for j in range(i + 1, 5)})


@pytest.fixture(scope="module")
def anti_run():
    """One hundred seeded replications of the anti-persistent cross regime.

    Marginals carry strong memory (d 0.4) while only the weak-memory
    components (d 0.1) are cross-correlated, so the cross exponent must sit
    well below the average of the marginals and all three decay channels
    must come out negative. Shared by the regime-detection and
    channel-agreement tests.
    """
    t = 16384
    spec = McArfimaSpec(1, 1, 1, 1, 0.1, 0.4, 0.1, 0.4, _sigma({(1, 3): 0.9}))
    full_grid = DetrendConfig(default_scale_grid(t))
    # the independent strong-memory components bury the decaying cross
    # signal at large scales, so the cross fits stop at scale 128
    cap_grid = DetrendConfig(default_scale_grid(t, max_scale=128))
    out = {"hx": [], "hy": [], "hxy": [], "time": [], "freq": [], "gap": [], "labels": []}
    for rep in range(100):
        x, y = generate_mc_arfima(spec, t, split_seed(303, rep))
        full = JointFluctuations(x, y, full_grid)
        hx = full.hurst_x().exponent
        hy = full.hurst_y().exponent
        hxy = JointFluctuations(x, y, cap_grid).hxy().exponent
        out["hx"].append(hx)
        out["hy"].append(hy)
        out["hxy"].append(hxy)
        out["time"].append(rho_decay(JointFluctuations(x, y, cap_grid)).exponent)
        out["freq"].append(h_rho_frequency(x, y, n_freqs=4096, bandwidth=301).exponent)
        out["gap"].append(hxy - (hx + hy) / 2.0)
        out["labels"].append(classify(hx, hy, hxy))
    return out


def test_univariate_memory_recovery_within_tolerance():
    # three memory levels, one hundred seeds each: the detrended estimate
    # must land within 0.05 of the target and the log-periodogram estimate
    # within 0.08, in under five minutes of wall clock
    t = 16384
    cfg = DetrendConfig(default_scale_grid(t))
    t0 = time.monotonic()
    report = []
    for di, d in enumerate((0.0, 0.2, 0.4)):
        dfa_vals, gph_vals = [], []
        for rep in range(100):
            x = generate_arfima(d, t, split_seed(101, di * 100 + rep))
            dfa_vals.append(JointFluctuations(x, None, cfg).hurst_x().exponent)
            gph_vals.append(estimate_h_logperiodogram(x).exponent)
        target = 0.5 + d
        report.append((d, target, np.mean(dfa_vals), np.mean(gph_vals)))
    elapsed = time.monotonic() - t0
    for d, target, dfa_mean, gph_mean in report:
        print(f"d={d}: dfa {dfa_mean:.4f}, log-periodogram {gph_mean:.4f}, target {target}")
        assert abs(dfa_mean - target) <= 0.05, (
            f"detrended mean {dfa_mean:.4f} misses {target} by more than 0.05"
        )
        assert abs(gph_mean - target) <= 0.08, (
            f"log-periodogram mean {gph_mean:.4f} misses {target} by more than 0.08"
        )
    print(f"elapsed {elapsed:.1f}s")
    assert elapsed < 300.0


def test_cross_exponent_tracks_average_under_full_correlation():
    # with every innovation pair correlated at 0.5 the cross exponent must
    # match the average of the marginal exponents within 0.08
    spec = McArfimaSpec(1, 1, 1, 1, 0.3, 0.1, 0.4, 0.2, FULL_HALF)
    res = run_experiment(ExperimentConfig(
        spec=spec, lengths=(8192,), replications=100,
        estimators=("dfa", "dcca"), master_seed=202, label="standard",
    ))
    hx = res.cell("dfa_hx", 8192).mean
    hy = res.cell("dfa_hy", 8192).mean
    hxy = res.cell("dcca_hxy", 8192).mean
    gap = hxy - (hx + hy) / 2.0
    print(f"hx {hx:.4f}, hy {hy:.4f}, hxy {hxy:.4f}, gap {gap:+.4f}")
    assert res.cell("dcca_hxy", 8192).n_failed == 0
    assert abs(gap) <= 0.08, f"cross exponent deviates from the average by {gap:+.4f}"


def test_anti_persistent_cross_regime_detected(anti_run):
    mean_hxy = np.mean(anti_run["hxy"])
    channels = {
        "time": np.mean(anti_run["time"]),
        "freq": np.mean(anti_run["freq"]),
        "gap": np.mean(anti_run["gap"]),
    }
    anti = anti_run["labels"].count("anti-cointegration")
    print(f"mean hxy {mean_hxy:.4f}; channels {channels}; anti {anti}/100")
    assert 0.50 <= mean_hxy <= 0.70, f"mean cross exponent {mean_hxy:.4f}"
    for name, value in channels.items():
        assert -0.45 <= value <= -0.15, f"{name} channel mean {value:.4f}"
    assert anti >= 90, f"only {anti}/100 replications classified as anti-cointegration"


def test_feasibility_gap_bounded_across_regimes():
    # across five canonical regimes the cross exponent never exceeds the
    # average of the marginals by more than 0.05; pairs with no readable
    # cross power law are reported as unmeasured rather than fitted
    t0 = time.monotonic()
    results = [run_experiment(cfg) for cfg in standard_regimes(8192, 100, 1202)]
    sweep = feasibility_sweep(results, tolerance=0.05)
    elapsed = time.monotonic() - t0
    for row in sweep["rows"]:
        gap = "unmeasured" if row["gap"] is None else f"{row['gap']:+.4f}"
        print(f"{row['label']}: gap {gap} (n={row['n']}, failed {row['n_failed_hxy']})")
    print(f"elapsed {elapsed:.1f}s")
    measured = [r for r in sweep["rows"] if r["gap"] is not None]
    assert measured, "no regime produced a measurable gap"
    for row in measured:
        assert row["gap"] <= 0.05, f"{row['label']}: gap {row['gap']:+.4f} exceeds +0.05"
    assert sweep["all_within_bound"]
    assert ("independent", 8192) in sweep["unmeasured"]
    assert elapsed < 900.0


def test_heavy_tails_raise_detrended_cross_exponent():
    # The name records the pre-registered hypothesis: Student-t(3)
    # innovations push the detrended cross exponent above its Gaussian value
    # while the frequency-domain estimate stays put. This test refutes its
    # first half. The Student-t stream is a variance-matched scale mixture on
    # the same normal path as the Gaussian one, and every statistic involved
    # is a second-moment functional, so heavy tails can neither raise nor
    # lower the detrended cross exponent in expectation.
    base = dict(
        lengths=(8192,), replications=100,
        estimators=("dcca", "logcross"), master_seed=404,
    )
    gauss = McArfimaSpec(1, 0, 1, 0, 0.4, 0.0, 0.4, 0.0, _sigma({(1, 3): 0.5}))
    heavy = McArfimaSpec(
        1, 0, 1, 0, 0.4, 0.0, 0.4, 0.0, _sigma({(1, 3): 0.5}),
        innovation_dist="student-t", dof=3.0,
    )
    res_g = run_experiment(ExperimentConfig(spec=gauss, label="gauss", **base))
    res_t = run_experiment(ExperimentConfig(spec=heavy, label="t3", **base))
    for res in (res_g, res_t):
        assert res.cell("dcca_hxy", 8192).n_failed == 0, "unpaired replications"
    diffs = np.subtract(
        res_t.samples("dcca_hxy", 8192), res_g.samples("dcca_hxy", 8192)
    )
    dcca_diff = float(diffs.mean())
    dcca_se = float(diffs.std(ddof=1) / np.sqrt(diffs.size))
    z = dcca_diff / dcca_se
    lc_diff = res_t.cell("logcross_hxy", 8192).mean - res_g.cell("logcross_hxy", 8192).mean
    print(
        f"dcca paired diff {dcca_diff:+.5f} +- {dcca_se:.5f} (z {z:+.2f}), "
        f"log-cross diff {lc_diff:+.5f}"
    )
    assert abs(lc_diff) < 0.08, f"frequency estimate moved by {lc_diff:+.4f}"
    assert abs(z) <= 3.0, (
        f"heavy tails moved the detrended cross exponent by {dcca_diff:+.5f} "
        f"+- {dcca_se:.5f} (z {z:+.2f}); the innovations share second moments "
        f"with the Gaussian stream, so the paired shift must be zero"
    )


def test_exact_identity_suite():
    # deterministic algebra that must hold to the last bit or to 1e-9
    rng = np.random.default_rng(606060)
    grid = DetrendConfig(default_scale_grid(512))
    for _ in range(1000):
        heavy = rng.integers(2) == 1
        x = rng.standard_t(2, 512) if heavy else rng.standard_normal(512)
        y = rng.standard_t(2, 512) if heavy else rng.standard_normal(512)
        assert all(-1.0 <= r <= 1.0 for r in JointFluctuations(x, y, grid).rho())
    for _ in range(1000):
        u = rng.standard_normal(256)
        v = rng.standard_normal(256)
        _, k2 = coherency(u, v, bandwidth=11)
        assert np.all((k2 >= 0.0) & (k2 <= 1.0))

    x = rng.standard_normal(2048)
    y = rng.standard_normal(2048)
    cfg = DetrendConfig(default_scale_grid(2048))
    assert np.array_equal(
        JointFluctuations(x, x.copy(), cfg).fxy, JointFluctuations(x, None, cfg).fxx
    )
    assert all(r == 1.0 for r in JointFluctuations(x, x.copy(), cfg).rho())
    assert all(r == -1.0 for r in JointFluctuations(x, -x, cfg).rho())
    assert np.all(coherency(x, x.copy(), bandwidth=11)[1] == 1.0)
    base = JointFluctuations(x, y, cfg).fxy
    assert np.array_equal(JointFluctuations(2 * x, 4 * y, cfg).fxy, 8 * base)
    assert all(b == -4.0 for b in JointFluctuations(x, -4 * x, cfg).beta())
    fit = fit_loglog([(4.0, 3.0 * 4.0**1.8), (8.0, 3.0 * 8.0**1.8), (16.0, 3.0 * 16.0**1.8)], 2.0)
    assert fit.exponent == pytest.approx(0.9, abs=1e-9)
    print("rho bounds (1000 pairs), coherency bounds (1000 pairs), bitwise identities: ok")


def test_decay_channels_agree(anti_run):
    # on manufactured power-law inputs the time- and frequency-domain
    # channels are the same line read through opposite-sign divisors
    w = 2.0 * np.pi * np.arange(1, 129) / 1024.0
    s = np.geomspace(16, 512, 12)
    freq_fit = _fit_power_decay(w, w**1.2, divisor=-4.0)
    time_fit = _fit_power_decay(s, s**-1.2, divisor=4.0)
    assert freq_fit.exponent == pytest.approx(-0.3, abs=1e-9)
    assert time_fit.exponent == pytest.approx(-0.3, abs=1e-9)
    assert abs(freq_fit.exponent - time_fit.exponent) < 1e-9
    # on the anti-persistent regime the two channels must agree on the
    # decay rate within 0.15
    spread = abs(np.mean(anti_run["time"]) - np.mean(anti_run["freq"]))
    print(f"planted channels both {freq_fit.exponent:.10f}; regime channel spread {spread:.4f}")
    assert spread < 0.15, f"channel means differ by {spread:.4f}"


def test_scale_regression_recovers_shared_slope():
    # y = 2x + unit noise on a long-memory x: at mid scales the noise
    # averages out and the scale-wise regression coefficient reads 2
    t = 16384
    x = generate_arfima(0.3, t, split_seed(808, 0))
    noise = np.random.default_rng(split_seed(808, 1)).standard_normal(t)
    y = 2.0 * x + noise
    values = JointFluctuations(x, y, DetrendConfig(default_scale_grid(t))).beta()
    k = len(values)
    mid = values[k // 4 : k - k // 4]
    med = float(np.median(mid))
    print(f"median coefficient over mid scales {med:.4f}")
    assert 1.8 <= med <= 2.2, f"median coefficient {med:.4f} outside [1.8, 2.2]"


def test_replay_reproduces_bytes_under_parallelism(tmp_path):
    # every manifest must replay to byte-identical outputs, including the
    # Monte Carlo suite under a different worker count
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "length = 4096\nseed = 4321\nspec.d1 = 0.3\nspec.d3 = 0.3\nsigma.13 = 0.5\n"
    )
    series = str(tmp_path / "pair.csv")
    assert main(["generate", str(gen_cfg), "--out", series]) == 0
    fit = str(tmp_path / "fit.json")
    assert main(["dcca", series, "--out", fit]) == 0

    mc_cfg = tmp_path / "mc.cfg"
    mc_cfg.write_text(
        "mc.suite = standard-regimes\nmc.length = 1024\n"
        "mc.replications = 2\nmc.master_seed = 909\n"
    )
    out_dir = str(tmp_path / "suite")
    assert main(["mc", str(mc_cfg), "--out-dir", out_dir, "--jobs", "1"]) == 0

    tracked = [series, fit] + [
        os.path.join(out_dir, name) for name in sorted(os.listdir(out_dir))
    ]
    before = {p: open(p, "rb").read() for p in tracked}
    digests = {p: sha256_file(p) for p in tracked}

    assert main(["replay", f"{series}.manifest.json"]) == 0
    assert main(["replay", f"{fit}.manifest.json"]) == 0
    assert main(["replay", os.path.join(out_dir, "summary.json.manifest.json"), "--jobs", "4"]) == 0

    changed = [p for p in tracked if open(p, "rb").read() != before[p]]
    assert not changed, f"replay changed bytes of: {changed}"
    assert all(sha256_file(p) == digests[p] for p in tracked)
    # the recorded sidecar digests match the files on disk
    sidecar = json.load(open(os.path.join(out_dir, "summary.json.manifest.json")))
    for path, digest in sidecar["outputs"].items():
        assert sha256_file(path) == digest
    print(f"{len(tracked)} outputs byte-identical across replays and worker counts")
