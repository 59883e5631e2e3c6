"""End-to-end command line checks, run in process through ``main(argv)``."""

import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcc.arfima import generate_arfima
from plcc.cli import main
from plcc.detrended import DetrendConfig, JointFluctuations, default_scale_grid
from plcc.errors import EstimationFailed
from plcc.fileio import (
    json_dumps,
    read_series_csv,
    sha256_file,
    spec_from_config,
    write_series_csv,
)
from plcc.montecarlo import ExperimentConfig, standard_regimes
from plcc.powerlaw import coherency_report

GEN_CFG = """
length = 1024
seed = 4040
spec.d1 = 0.3
spec.d3 = 0.3
sigma.13 = 0.5
"""


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("PLCC_SEED", raising=False)


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def pair_csv(tmp_path):
    cfg = _write(tmp_path / "gen.cfg", GEN_CFG)
    out = str(tmp_path / "pair.csv")
    assert main(["generate", cfg, "--out", out]) == 0
    return out


# =========================================================================
# generate
# =========================================================================


def test_generate_writes_csv_and_sidecar(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG)
    out = str(tmp_path / "p.csv")
    assert main(["generate", cfg, "--out", out]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = open(out).read().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 1025
    assert lines[1].startswith("0,")
    sidecar = json.load(open(out + ".manifest.json"))
    assert sidecar["subcommand"] == "generate"
    assert sidecar["seeds"] == 4040
    assert sidecar["outputs"] == {out: sha256_file(out)}
    assert sidecar["parameters"]["spec"]["d1"] == 0.3


def test_generate_deterministic(tmp_path):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["generate", cfg, "--out", a]) == 0
    assert main(["generate", cfg, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_generate_single_series_output(tmp_path):
    cfg = _write(tmp_path / "g.cfg", "length = 512\nseed = 1\noutput = x\n")
    out = str(tmp_path / "x.csv")
    assert main(["generate", cfg, "--out", out]) == 0
    assert open(out).readline().strip() == "t,x"


def test_seed_precedence(tmp_path, monkeypatch):
    cfg_noseed = _write(tmp_path / "g.cfg", "length = 512\nspec.d1 = 0.2\n")
    out_env = str(tmp_path / "env.csv")
    out_flag = str(tmp_path / "flag.csv")
    out_ref = str(tmp_path / "ref.csv")

    monkeypatch.setenv("PLCC_SEED", "321")
    assert main(["generate", cfg_noseed, "--out", out_env]) == 0
    # the flag beats the environment
    assert main(["generate", cfg_noseed, "--out", out_flag, "--seed", "99"]) == 0
    monkeypatch.delenv("PLCC_SEED")
    assert main(["generate", cfg_noseed, "--out", out_ref, "--seed", "321"]) == 0

    assert open(out_env, "rb").read() == open(out_ref, "rb").read()
    assert open(out_flag, "rb").read() != open(out_ref, "rb").read()


def test_truncation_warning_is_one_location_free_line(tmp_path, capsys, monkeypatch):
    # the warning names neither the install location nor a source line, so
    # the same command prints the same stderr from any checkout
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", "length = 1000\nseed = 1\nspec.d1 = 0.3\nspec.truncation = 777\n")
    assert main(["generate", "g.cfg", "--out", "p.csv"]) == 0
    assert capsys.readouterr().err == (
        "plcc: warning: truncation 777 is below the series length 1000\n"
    )
    _write(tmp_path / "mc.cfg", MC_SINGLE_CFG + "spec.truncation = 300\n")
    assert main(["mc", "mc.cfg", "--out-dir", "runs"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines and set(lines) == {
        "plcc: warning: truncation 300 is below the series length 512"
    }


def test_generate_usage_errors(tmp_path, capsys, monkeypatch):
    missing_seed = _write(tmp_path / "a.cfg", "length = 512\n")
    assert main(["generate", missing_seed, "--out", str(tmp_path / "o.csv")]) == 2
    assert "seed is required" in capsys.readouterr().err

    unknown = _write(tmp_path / "b.cfg", "length = 512\nseed = 1\nspam = 2\n")
    assert main(["generate", unknown, "--out", str(tmp_path / "o.csv")]) == 2
    assert "unknown keys: spam" in capsys.readouterr().err

    bad_d = _write(tmp_path / "c.cfg", "length = 512\nseed = 1\nspec.d1 = 0.7\n")
    assert main(["generate", bad_d, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "d1 = 0.7" in err and "(-0.5, 0.5)" in err

    monkeypatch.setenv("PLCC_SEED", "not-a-number")
    assert main(["generate", missing_seed, "--out", str(tmp_path / "o.csv")]) == 2
    assert "PLCC_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["generate", "mc"])
def test_weights_that_overflow_the_pair_exit_2_writing_nothing(tmp_path, capsys, sub):
    # spec.alpha = 1e308 used to write 35 inf cells in x with exit 0, and
    # every analysis then refused the file
    spec = "spec.alpha = 1e308\nspec.d1 = 0.3\nspec.d3 = 0.3\nsigma.13 = 0.5\n"
    run = {
        "generate": ("length = 512\nseed = 1\n", ["--out", str(tmp_path / "big.csv")]),
        "mc": (
            "mc.lengths = 256\nmc.replications = 2\nmc.estimators = dfa, rho\n"
            "mc.master_seed = 1\nmc.label = big\n",
            ["--out-dir", str(tmp_path / "out")],
        ),
    }
    head, args = run[sub]
    cfg = _write(tmp_path / "big.cfg", head + spec)
    assert main([sub, cfg, *args]) == 2
    assert capsys.readouterr().err == (
        "plcc: error: component weights alpha, beta, gamma, delta overflow the pair\n"
    )
    assert os.listdir(tmp_path) == ["big.cfg"]


def test_missing_files_exit_3(tmp_path, capsys):
    assert main(["generate", str(tmp_path / "nope.cfg"), "--out", "o.csv"]) == 3
    assert main(["dfa", str(tmp_path / "nope.csv")]) == 3
    assert main(["replay", str(tmp_path / "nope.manifest.json")]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, content, argv",
    [
        ("bad.cfg", GEN_CFG.encode() + b"# caf\xe9\n", ["generate", "bad.cfg", "--out", "p.csv"]),
        ("bad.csv", b"t,x,y\n0,1,2\n1,\xff,3\n", ["dcca", "bad.csv", "--min-rows", "1"]),
        ("bad.json", b'{"tool": "plcc", "subcommand": "dcca\xff"}', ["replay", "bad.json"]),
    ],
    ids=["config", "csv", "manifest"],
)
def test_undecodable_text_is_a_usage_error_naming_the_file(
    tmp_path, capsys, monkeypatch, name, content, argv
):
    # a byte that is not UTF-8 used to escape as a UnicodeDecodeError
    # traceback with exit 1, the code of a replay that found a difference
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(content)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"plcc: error: {name}: not UTF-8 text (") and err.count("\n") == 1
    assert os.listdir(tmp_path) == [name]


def test_generate_into_a_missing_directory_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG)
    assert main(["generate", cfg, "--out", str(tmp_path / "nowhere" / "p.csv")]) == 3
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["g.cfg"]


def test_generate_requires_a_length(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", "seed = 1\nspec.d1 = 0.3\n")
    assert main(["generate", cfg, "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == f"plcc: error: {cfg}: config key 'length' is required\n"
    assert sorted(os.listdir(tmp_path)) == ["g.cfg"]


# =========================================================================
# analyses
# =========================================================================


def test_dfa_result_document(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", "length = 2048\nseed = 11\noutput = x\nspec.d1 = 0.3\n")
    series = str(tmp_path / "x.csv")
    assert main(["generate", cfg, "--out", series]) == 0
    out = str(tmp_path / "fit.json")
    assert main(["dfa", series, "--out", out]) == 0
    assert f"dfa: wrote {out}" in capsys.readouterr().out
    doc = json.load(open(out))
    assert doc["subcommand"] == "dfa"
    assert 0.5 < doc["estimate"] < 1.1
    assert doc["stderr"] >= 0.0
    assert 0.0 <= doc["r2"] <= 1.0
    assert doc["scales"] == sorted(doc["scales"])
    assert len(doc["values"]) == len(doc["scales"])
    assert doc["plot"]["abscissa"] == [float(s) for s in doc["scales"]]
    assert len(doc["plot"]["fit"]) == len(doc["scales"])
    man = doc["manifest"]
    assert man["subcommand"] == "dfa"
    assert man["parameters"]["scale_grid"] == doc["scales"]
    assert man["inputs"] == {series: sha256_file(series)}


def test_default_output_name(tmp_path, pair_csv):
    assert main(["dcca", pair_csv]) == 0
    stem = os.path.splitext(pair_csv)[0]
    assert os.path.exists(f"{stem}.dcca.json")


def test_wrong_arity_inputs(tmp_path, pair_csv, capsys):
    assert main(["dfa", pair_csv]) == 2
    assert "single-series" in capsys.readouterr().err
    cfg = _write(tmp_path / "g.cfg", "length = 512\nseed = 1\noutput = x\n")
    single = str(tmp_path / "single.csv")
    assert main(["generate", cfg, "--out", single]) == 0
    assert main(["dcca", single]) == 2
    assert "pair file" in capsys.readouterr().err


def test_min_rows_gate(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", "length = 192\nseed = 1\noutput = x\n")
    short = str(tmp_path / "short.csv")
    assert main(["generate", cfg, "--out", short]) == 0
    assert main(["dfa", short]) == 2
    assert "below the minimum 256" in capsys.readouterr().err
    assert main(["dfa", short, "--min-rows", "128", "--out", str(tmp_path / "f.json")]) == 0


def test_scales_flag(tmp_path, pair_csv, capsys):
    out = str(tmp_path / "r.json")
    assert main(["rho", pair_csv, "--scales", "16:128:8", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["scales"][0] >= 16 and doc["scales"][-1] <= 128
    assert doc["estimate"] == pytest.approx(np.median(doc["values"]))

    assert main(["rho", pair_csv, "--scales", "128:16:8"]) == 2
    assert main(["rho", pair_csv, "--scales", "16:128:3"]) == 2
    assert main(["rho", pair_csv, "--scales", "16:128"]) == 2
    assert main(["rho", pair_csv, "--scales", "a:b:c"]) == 2
    assert "scales" in capsys.readouterr().err


def test_beta_midrange_estimate(tmp_path, pair_csv):
    out = str(tmp_path / "b.json")
    assert main(["beta", pair_csv, "--out", out]) == 0
    doc = json.load(open(out))
    k = len(doc["values"])
    mid = doc["values"][k // 4 : k - k // 4]
    assert doc["estimate"] == pytest.approx(np.median(mid))
    assert doc["diagnostics"]["mid_scales"][0] >= doc["scales"][0]


def test_coherency_document(tmp_path, pair_csv, capsys):
    out = str(tmp_path / "c.json")
    assert main(["coherency", pair_csv, "--bandwidth", "21", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["diagnostics"]["bandwidth"] == 21
    assert all(0.0 <= v <= 1.0 for v in doc["values"])
    assert len(doc["values"]) == 512  # every frequency up to T/2 by default
    assert main(["coherency", pair_csv, "--bandwidth", "8"]) == 2
    assert main(["coherency", pair_csv, "--nfreqs", "5", "--out", out]) == 0
    assert len(json.load(open(out))["values"]) == 5
    # a count below one is refused, not sliced from the top or emptied
    assert main(["coherency", pair_csv, "--nfreqs", "-3", "--out", out]) == 2
    assert main(["coherency", pair_csv, "--nfreqs", "0", "--out", out]) == 2
    assert "--nfreqs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["hrho", "report"])
def test_nfreqs_outside_the_band_is_a_usage_error(tmp_path, pair_csv, capsys, sub):
    # an explicit --nfreqs is checked against [8, T/4] before any estimation:
    # exit 2 and no document, for both subcommands alike
    out = str(tmp_path / f"{sub}.json")
    for n in ("4", "257"):
        assert main([sub, pair_csv, "--nfreqs", n, "--out", out]) == 2
        assert f"n_freqs must lie in [8, T/4] = [8, 256], got {n}" in capsys.readouterr().err
        assert not os.path.exists(out)
    assert main([sub, pair_csv, "--nfreqs", "256", "--out", out]) in (0, 4)
    assert json.load(open(out))["manifest"]["parameters"]["n_freqs"] == 256


def test_report_document(tmp_path, pair_csv):
    out = str(tmp_path / "rep.json")
    code = main(["report", pair_csv, "--out", out])
    doc = json.load(open(out))
    assert set(doc["channels"]) == {"h_x", "h_y", "h_xy", "h_rho_freq", "h_rho_time"}
    assert doc["channels"]["h_x"]["estimate"] > 0.5
    if code == 0:
        assert doc["regime"] in ("standard", "anti-cointegration", "infeasible-flag")
    else:
        assert code == 4 and "error" in doc
    assert doc["manifest"]["parameters"]["tolerance"] == 0.05


def test_report_makes_one_fluctuation_pass(tmp_path, pair_csv, monkeypatch):
    # every detrended channel, and the rho curve the document records, reads
    # one box pass: one profile per series
    import plcc.detrended as detrended

    profiles = []
    real_profile = detrended.profile
    monkeypatch.setattr(detrended, "profile", lambda v: profiles.append(1) or real_profile(v))
    out = str(tmp_path / "rep.json")
    assert main(["report", pair_csv, "--out", out]) == 0
    assert len(profiles) == 2
    doc = json.load(open(out))
    x, y = read_series_csv(pair_csv)
    cfg = DetrendConfig(doc["manifest"]["parameters"]["scale_grid"])
    jf = JointFluctuations(x, y, cfg)
    want = list(zip(jf.scales.tolist(), jf.rho().tolist()))
    assert list(zip(doc["scales"], doc["values"])) == want


_NOISE = np.random.default_rng(5).standard_normal((2, 512))
OVERFLOWING = {
    "times-1e160": tuple(_NOISE * 1e160),
    "plus-minus-1e308": tuple(np.copysign(1e308, _NOISE)),
}
# each pair above at unit scale
_UNIT_SCALE = {"times-1e160": tuple(_NOISE), "plus-minus-1e308": tuple(np.copysign(1.0, _NOISE))}


def _analysis_run(directory, capsys, sub, columns):
    """Exit code, document (None when none was written) and stderr of ``sub``
    run on a file of ``columns`` in ``directory``."""
    directory.mkdir(exist_ok=True)
    series = str(directory / "series.csv")
    write_series_csv(series, *columns)
    out = directory / "series.json"
    code = main([sub, series, "--out", str(out)])
    doc = json.loads(out.read_text(), parse_constant=pytest.fail) if out.exists() else None
    return code, doc, capsys.readouterr().err


def _reads_as(doc, unit):
    """``doc`` reports what ``unit``, the run at unit scale, reports: every
    value, the estimate and each channel that did not fail, up to the
    rounding of a scale that is not a power of two."""
    for key in ("estimate", "values"):
        if doc.get(key) is not None:
            np.testing.assert_allclose(doc[key], unit[key], rtol=1e-12)
    for name, channel in doc.get("channels", {}).items():
        if channel is not None:
            np.testing.assert_allclose(channel["estimate"], unit["channels"][name]["estimate"], rtol=1e-12)


@pytest.mark.parametrize("values", sorted(OVERFLOWING))
@pytest.mark.parametrize("sub", ["dfa", "dcca", "rho", "beta", "coherency", "hrho", "report"])
def test_finite_input_whose_moments_overflow_is_refused(tmp_path, capsys, sub, values):
    # Finite values whose squares overflow used to reach the JSON writer as
    # NaN and exit 1, and were then refused by every subcommand. The ratios
    # of second moments (rho, beta, the coherency and both decay channels)
    # now read what the pair at unit scale reads; only a curve that cannot
    # be represented is refused: dfa and dcca exit 2 with nothing written,
    # and the report fails its three exponent channels (exit 4).
    x, y = OVERFLOWING[values]
    code, doc, err = _analysis_run(tmp_path / "big", capsys, sub, (x,) if sub == "dfa" else (x, y))
    if sub in ("dfa", "dcca"):
        assert code == 2
        assert err == "plcc: error: detrended statistics overflow: rescale the series\n"
        assert os.listdir(tmp_path / "big") == ["series.csv"]
        return
    unit = _analysis_run(tmp_path / "unit", capsys, sub, _UNIT_SCALE[values])[1]
    _reads_as(doc, unit)
    if sub == "report":
        assert code == 4
        assert doc["diagnostics"]["failures"] == dict.fromkeys(
            ("h_x", "h_y", "h_xy"), "detrended statistics overflow: rescale the series"
        )
    else:
        assert code == 0


def test_a_fitted_line_past_the_largest_double_is_refused(tmp_path, capsys):
    # the variance curve of this series peaks near 1.7e308 and its fitted
    # line passes the largest double: the line's inf used to escape main as
    # a ValueError of the JSON writer
    code, doc, err = _analysis_run(tmp_path / "line", capsys, "dfa", (_NOISE[0] * 5.2e153,))
    assert (code, doc, err) == (2, None, "plcc: error: fitted line overflow: rescale the series\n")
    assert os.listdir(tmp_path / "line") == ["series.csv"]


@pytest.mark.parametrize("sub", ["rho", "coherency", "hrho", "report"])
def test_finite_input_whose_moment_products_underflow_is_refused(tmp_path, capsys, sub):
    # At 1e-100 the products of the two variance curves, and of the two
    # smoothed spectra, round to zero: rho read 1 at every scale and the
    # coherency 0 at every frequency, with exit 0, and were then refused.
    # Now every channel reads what the pair at unit scale reads. At 1e-160
    # the variance curves themselves fall below the normal doubles: only the
    # report's three exponent channels fail (exit 4).
    unit = _analysis_run(tmp_path / "unit", capsys, sub, _NOISE)[1]
    for scale in (1e-100, 1e-160):
        code, doc, err = _analysis_run(tmp_path / f"{scale}", capsys, sub, _NOISE * scale)
        _reads_as(doc, unit)
        if sub == "report" and scale == 1e-160:
            assert code == 4
            assert doc["diagnostics"]["failures"] == dict.fromkeys(
                ("h_x", "h_y", "h_xy"), "detrended statistics underflow: rescale the series"
            )
        else:
            assert code == 0 and "failures" not in doc["diagnostics"], scale


@pytest.mark.parametrize("constant", ["x", "y"])
def test_report_with_a_constant_side_keeps_per_channel_outcome(tmp_path, constant):
    # the live side is fitted exactly as on its own; every channel that
    # reads the constant side fails with its zero-variance reason
    t = 4096
    live = generate_arfima(0.3, t, 17)
    const = np.full(t, 1.5)
    x, y = (const, live) if constant == "x" else (live, const)
    path = str(tmp_path / "pair.csv")
    write_series_csv(path, x, y)
    out = str(tmp_path / "rep.json")
    assert main(["report", path, "--out", out]) == 4
    zero = "detrended statistics are undefined for a zero-variance series"
    failures = {
        f"h_{constant}": zero,
        "h_xy": zero,
        "h_rho_time": zero,
        "h_rho_freq": "spectral statistics are undefined for a zero-variance series",
    }
    doc = json.load(open(out))
    assert doc["diagnostics"]["failures"] == failures
    assert doc["regime"] is None and doc["rho_at_max_scale"] is None

    live_name = "h_y" if constant == "x" else "h_x"
    rep = coherency_report(x, y)
    assert rep.failures == failures
    fit = JointFluctuations(live, None, DetrendConfig(default_scale_grid(t))).hurst_x()
    assert getattr(rep, live_name) == fit
    assert doc["channels"][live_name]["estimate"] == fit.exponent


@pytest.mark.parametrize("value", [0.1, 0.3, 7.7])
@pytest.mark.parametrize("constant", ["x", "y"])
def test_report_on_a_constant_with_an_inexact_mean_matches_an_exact_one(
    tmp_path, capsys, constant, value
):
    # the mean of np.full(n, 0.1) is inexact, so its std is about 1e-17;
    # the report must still fail every channel of that side, as for 1.5
    live = generate_arfima(0.3, 1024, 17)
    runs = []
    for level in (1.5, value):
        const = np.full(1024, level)
        x, y = (const, live) if constant == "x" else (live, const)
        path = str(tmp_path / f"pair_{level}.csv")
        write_series_csv(path, x, y)
        out = str(tmp_path / f"rep_{level}.json")
        code = main(["report", path, "--out", out])
        doc = json.load(open(out))
        del doc["manifest"]
        err = capsys.readouterr().err.replace(out, "OUT")
        runs.append((code, err, doc))
    assert runs[0][0] == 4
    assert runs[1] == runs[0]


def test_estimation_failure_writes_partial_document(tmp_path, pair_csv, capsys, monkeypatch):
    from plcc.detrended import JointFluctuations

    def boom(*a, **k):
        raise EstimationFailed("no usable scaling range")

    monkeypatch.setattr(JointFluctuations, "hxy", boom)
    out = str(tmp_path / "partial.json")
    assert main(["dcca", pair_csv, "--out", out]) == 4
    assert "partial result written" in capsys.readouterr().err
    doc = json.load(open(out))
    assert doc["error"] == "no usable scaling range"
    assert doc["estimate"] is None
    assert doc["values"]  # the curve itself was still recorded
    # the sidecar still captures the partial output's digest
    sidecar = json.load(open(out + ".manifest.json"))
    assert sidecar["outputs"] == {out: sha256_file(out)}


def _raises(message):
    def fail(*args, **kwargs):
        raise EstimationFailed(message)

    return fail


def test_hrho_records_both_channel_failures_in_order(tmp_path, pair_csv, capsys, monkeypatch):
    monkeypatch.setattr("plcc.powerlaw.rho_decay", _raises("no time decay"))
    monkeypatch.setattr("plcc.powerlaw.h_rho_frequency", _raises("no frequency decay"))
    out = str(tmp_path / "h.json")
    assert main(["hrho", pair_csv, "--out", out]) == 4
    assert "partial result written" in capsys.readouterr().err
    doc = json.load(open(out))
    assert doc["error"] == "time: no time decay; freq: no frequency decay"
    assert doc["diagnostics"] == {
        "failures": {"time": "no time decay", "freq": "no frequency decay"}
    }
    assert doc["channels"] == {"time": None, "freq": None}
    assert doc["estimate"] is doc["stderr"] is doc["r2"] is doc["plot"] is None
    assert doc["values"]  # the rho curve itself was still recorded


def test_hrho_without_the_frequency_channel_keeps_the_time_channel(
    tmp_path, pair_csv, monkeypatch
):
    whole = str(tmp_path / "whole.json")
    assert main(["hrho", pair_csv, "--out", whole]) == 0
    monkeypatch.setattr("plcc.powerlaw.h_rho_frequency", _raises("no frequency decay"))
    part = str(tmp_path / "part.json")
    assert main(["hrho", pair_csv, "--out", part]) == 4
    a, b = json.load(open(whole)), json.load(open(part))
    for key in ("estimate", "stderr", "r2", "plot", "scales", "values"):
        assert b[key] == a[key], key
    assert a["estimate"] == a["channels"]["time"]["estimate"]
    assert b["channels"] == {"time": a["channels"]["time"], "freq": None}
    assert b["diagnostics"] == {**a["diagnostics"], "failures": {"freq": "no frequency decay"}}
    assert b["error"] == "freq: no frequency decay"


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 2),
    length=st.sampled_from([512, 1000, 2048]),
    order=st.sampled_from([1, 2]),
    coupling=st.sampled_from([0.0, 0.5, 2.0]),
    band=st.sampled_from([[], ["--nfreqs", "16", "--bandwidth", "5"]]),
    constant=st.sampled_from([None, "x", "y"]),
)
@example(seed=3, length=512, order=1, coupling=0.5, band=[], constant="y")
def test_hrho_reads_the_two_h_rho_channels_of_the_report(
    seed, length, order, coupling, band, constant
):
    # hrho is a view of the report on the same file and flags: its time and
    # freq channels, failures and rho curve are the report's h_rho_time and
    # h_rho_freq; a pass that gives no rho fails hrho with the report's
    # h_rho_time reason (exit 2, nothing written), while the report records it
    x = generate_arfima(0.3, length, seed)
    y = coupling * x + generate_arfima(0.2, length, seed + 1)
    if constant is not None:
        x, y = (np.full(length, 1.5), y) if constant == "x" else (x, np.full(length, 1.5))
    flags = ["--order", str(order), *band]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "pair.csv")
        write_series_csv(path, x, y)
        outs = {sub: os.path.join(root, f"{sub}.json") for sub in ("hrho", "report")}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["hrho", path, "--out", outs["hrho"], *flags])
            report_code = main(["report", path, "--out", outs["report"], *flags])
        report = json.load(open(outs["report"]))
        failures = report["diagnostics"].get("failures", {})
        if constant is not None:
            assert code == 2 and report_code == 4
            assert err.getvalue().startswith(f"plcc: error: {failures['h_rho_time']}\n")
            assert not os.path.exists(outs["hrho"])
            return
        doc = json.load(open(outs["hrho"]))
    assert doc["channels"] == {
        "time": report["channels"]["h_rho_time"], "freq": report["channels"]["h_rho_freq"]
    }
    own = {k: failures[f"h_rho_{k}"] for k in ("time", "freq") if f"h_rho_{k}" in failures}
    assert doc["diagnostics"].get("failures", {}) == own
    assert code == (4 if own else 0)
    if report["values"] is not None:
        assert (doc["scales"], doc["values"]) == (report["scales"], report["values"])
    assert doc["scales"] == report["manifest"]["parameters"]["scale_grid"]
    for key in ("scale_grid", "n_freqs", "bandwidth", "order"):
        assert doc["manifest"]["parameters"][key] == report["manifest"]["parameters"][key]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("plcc ")


# =========================================================================
# replay
# =========================================================================


def _contents(paths):
    return {p: open(p, "rb").read() for p in paths}


@pytest.mark.parametrize("sub", ["dfa", "dcca", "rho", "beta", "coherency", "hrho", "report"])
def test_replay_generate_and_analysis(tmp_path, capsys, sub):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG + ("output = x\n" if sub == "dfa" else ""))
    series = str(tmp_path / "series.csv")
    assert main(["generate", cfg, "--out", series]) == 0
    fit = str(tmp_path / "fit.json")
    assert main([sub, series, "--out", fit]) == 0
    capsys.readouterr()

    for target in (series, fit):
        sidecar = f"{target}.manifest.json"
        before = _contents([target, sidecar])
        assert main(["replay", sidecar]) == 0
        assert _contents([target, sidecar]) == before
        assert "replay ok: 1 recorded output(s) byte-identical" in capsys.readouterr().out


def test_replay_mc_single_experiment(tmp_path, capsys):
    cfg = _write(tmp_path / "mc.cfg", MC_SINGLE_CFG)
    out_dir = str(tmp_path / "runs")
    assert main(["mc", cfg, "--out-dir", out_dir]) == 0
    paths = [os.path.join(out_dir, n) for n in sorted(os.listdir(out_dir))]
    assert len(paths) == 4  # smoke.json, summary.json and a sidecar for each
    before = _contents(paths)
    capsys.readouterr()
    assert main(["replay", os.path.join(out_dir, "smoke.json.manifest.json"), "--jobs", "2"]) == 0
    assert _contents(paths) == before
    assert "replay ok: 2 recorded output(s) byte-identical" in capsys.readouterr().out


def test_replay_refuses_malformed_manifests(tmp_path, capsys, monkeypatch):
    # a manifest that lacks a parameter, records a value of the wrong type
    # or is not a JSON object is a usage error naming the manifest, and the
    # replay writes nothing
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", GEN_CFG)
    _write(tmp_path / "mc.cfg", MC_SINGLE_CFG)
    _write(tmp_path / "suite.cfg", "mc.suite = standard-regimes\nmc.length = 1024\n"
           "mc.replications = 2\n")
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    assert main(["dcca", "pair.csv", "--out", "fit.json"]) == 0
    assert main(["report", "pair.csv", "--out", "r.json"]) in (0, 4)
    assert main(["mc", "mc.cfg", "--out-dir", "runs"]) == 0
    assert main(["mc", "suite.cfg", "--out-dir", "suite"]) == 0
    mc = os.path.join("runs", "smoke.json")
    suite = os.path.join("suite", "summary.json")
    real = {
        name: json.load(open(f"{name}.manifest.json"))
        for name in ("pair.csv", "fit.json", "r.json", mc, suite)
    }
    cases = [
        ('{"tool": "plcc", "subcommand": "generate", "parameters": {}}',
         "manifest parameters lack the 'spec' key"),
        ("3", "manifest is not a JSON object"),
        ('{"tool": "plcc", "subcommand": "dcca", "parameters": []}',
         "manifest field 'parameters' is not a JSON object"),
        ('{"tool": "plcc", "subcommand": ["dcca"], "parameters": {}}',
         "manifest field 'subcommand' is not a JSON string"),
        ('{"tool": "plcc", "subcommand": "dcca", "parameters": {}, "outputs": 1}',
         "manifest field 'outputs' is not a JSON object"),
    ]
    # real manifests with one parameter removed: the generator would have
    # run before the output path was needed, the analysis before its order,
    # and a suite would have run at the library's counts and seed
    for name, key in (
        ("pair.csv", "out"), ("fit.json", "order"),
        (suite, "length"), (suite, "replications"), (suite, "master_seed"),
    ):
        doc = dict(real[name], parameters=dict(real[name]["parameters"]))
        del doc["parameters"][key]
        cases.append((json.dumps(doc), f"manifest parameters lack the '{key}' key"))
    # the generator spec and the mc config are rebuilt from nested records,
    # which must hold every required field, each of its type, and no other
    for name, path, edit, message in (
        ("pair.csv", ["spec"], {"d1": None}, "manifest parameters lack the 'spec.d1' key"),
        ("pair.csv", ["spec"], {"zeta": 1.0},
         "manifest parameter 'spec' has the unknown key 'zeta'"),
        ("pair.csv", [], {"spec": [1.0]}, "manifest parameter 'spec' is not a JSON object"),
        (mc, ["config_echo"], {"replications": None},
         "manifest parameters lack the 'config_echo.replications' key"),
        (mc, ["config_echo"], {"jobs": 2},
         "manifest parameter 'config_echo' has the unknown key 'jobs'"),
        (mc, ["config_echo", "spec"], {"sigma": None},
         "manifest parameters lack the 'config_echo.spec.sigma' key"),
        ("pair.csv", ["spec"], {"d1": "0.3"}, "d1 must be a number, got '0.3'"),
        (mc, ["config_echo"], {"replications": "3"}, "replications must be an integer, got '3'"),
        (suite, [], {"replications": "2"}, "replications must be an integer, got '2'"),
        ("pair.csv", ["spec"], {"generator": "2"}, "generator must be 1 or 2, got '2'"),
        (mc, ["config_echo", "spec"], {"generator": 3}, "generator must be 1 or 2, got 3"),
        (suite, [], {"generator": True}, "generator must be 1 or 2, got True"),
        # where a run writes: an integer would be opened as a file
        # descriptor, and any output other than "x" used to mean a pair
        ("pair.csv", [], {"out": 1}, "manifest parameter 'out' must be a string without NUL, got 1"),
        ("pair.csv", [], {"output": "y"},
         "manifest parameter 'output' must be 'pair' or 'x', got 'y'"),
        # a float would be generated with and written back to the record
        ("pair.csv", [], {"length": 1024.0},
         "manifest parameter 'length' must be an integer, got 1024.0"),
        ("pair.csv", [], {"seed": 3.0}, "manifest parameter 'seed' must be an integer, got 3.0"),
        ("pair.csv", ["spec"], {"truncation": 2048.0},
         "truncation must be an integer >= 1, got 2048.0"),
        (mc, [], {"out_dir": 7}, "manifest parameter 'out_dir' must be a string without NUL, got 7"),
        # no file name holds a NUL; opening one used to raise ValueError
        ("fit.json", [], {"input": "pair\0.csv"},
         "manifest parameter 'input' must be a string without NUL, got 'pair\\x00.csv'"),
        ("pair.csv", [], {"out": "pair\0.csv"},
         "manifest parameter 'out' must be a string without NUL, got 'pair\\x00.csv'"),
        (mc, [], {"out_dir": "ru\0ns"},
         "manifest parameter 'out_dir' must be a string without NUL, got 'ru\\x00ns'"),
        (suite, [], {"tolerance": "0.1"}, "manifest parameter 'tolerance' must be a number, got '0.1'"),
        # JSON writes an infinite number as Infinity; rendering the rewritten
        # record would fail after the outputs had been overwritten
        ("r.json", [], {"tolerance": math.inf}, "tolerance must be finite, got inf"),
        (suite, [], {"tolerance": math.inf}, "tolerance must be finite, got inf"),
        ("pair.csv", ["spec"], {"dof": math.inf}, "dof must be finite, got inf"),
        # a fresh run refuses these before any replication, and so does a replay
        (mc, ["config_echo"], {"label": "../escaped"},
         "mc.label '../escaped' must name a file in the output directory: not empty, "
         "not 'summary', no leading '.', no path separator and no NUL"),
        (mc, ["config_echo"], {"label": "a\0b"},
         "mc.label 'a\\x00b' must name a file in the output directory: not empty, "
         "not 'summary', no leading '.', no path separator and no NUL"),
        (mc, ["config_echo"], {"estimators": ["dfa", "dcca", "dfa"]},
         "estimators must not repeat an entry, got ['dfa', 'dcca', 'dfa']"),
        # the recorded analysis must be the record's subcommand and the mode
        # one that mc records: an unknown one used to be reported as a
        # missing key, and another analysis used to run in its place
        ("fit.json", [], {"analysis": "nonsense"},
         "manifest parameter 'analysis' must be 'dcca', got 'nonsense'"),
        ("fit.json", [], {"analysis": 5}, "manifest parameter 'analysis' must be 'dcca', got 5"),
        ("fit.json", [], {"analysis": "dfa"},
         "manifest parameter 'analysis' must be 'dcca', got 'dfa'"),
        (suite, [], {"mode": "bogus"},
         "manifest parameter 'mode' must be 'suite' or 'single', got 'bogus'"),
    ):
        doc = json.loads(json.dumps(real[name]))
        record = doc["parameters"]
        for key in path:
            record = record[key]
        for key, value in edit.items():
            if value is None:
                del record[key]
            else:
                record[key] = value
        cases.append((json.dumps(doc), message))
    def every_file():
        return _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))

    for text, message in cases:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        before = every_file()
        assert main(["replay", "bad.json"]) == 2
        assert f"plcc: error: bad.json: {message}\n" == capsys.readouterr().err
        assert every_file() == before


@pytest.mark.parametrize(
    "key,value,kind",
    [
        ("min_rows", "256", "an integer"),
        ("tolerance", "0.1", "a number"),
        ("scale_grid", ["a"], "a list of integers"),
        ("order", 1.5, "an integer"),
        ("bandwidth", True, "an integer"),
        ("n_freqs", "20", "an integer or null"),
        ("scales", 16, "a string or null"),
        ("input", 0, "a string without NUL"),
        ("out", 7, "a string without NUL"),
    ],
)
def test_replay_refuses_analysis_parameters_of_the_wrong_type(
    tmp_path, capsys, monkeypatch, key, value, kind
):
    # the parser gives a fresh run these types; a record may hold any JSON
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", GEN_CFG)
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    assert main(["report", "pair.csv", "--out", "r.json"]) == 0
    doc = json.load(open("r.json.manifest.json"))
    assert key in doc["parameters"]
    doc["parameters"][key] = value
    _write(tmp_path / "bad.json", json.dumps(doc))
    before = _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))
    capsys.readouterr()
    assert main(["replay", "bad.json"]) == 2
    expected = f"manifest parameter '{key}' must be {kind}, got {value!r}"
    assert capsys.readouterr().err == f"plcc: error: bad.json: {expected}\n"
    assert _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file())) == before


V1_RECORDS = pathlib.Path(__file__).parent / "data" / "v1"


def test_generator_v1_records_replay_byte_for_byte(tmp_path, monkeypatch, capsys):
    # Outputs, sidecars and configs written before generator version 2
    # existed: two generate runs, a single-experiment mc and a suite mc. No
    # record names a generator, so each replays through version 1 and must
    # rewrite every file with the bytes it had.
    shutil.copytree(V1_RECORDS, tmp_path / "v1")
    monkeypatch.chdir(tmp_path / "v1")
    files = sorted(p for p in pathlib.Path().rglob("*") if p.is_file())
    before = _contents(files)
    manifests = [p for p in files if p.name.endswith(".manifest.json")]
    assert len(manifests) == 10
    assert "generator" not in json.load(open("pair.csv.manifest.json"))["parameters"]["spec"]
    for manifest in manifests:
        assert main(["replay", str(manifest)]) == 0, manifest
    assert "replay ok" in capsys.readouterr().out
    assert sorted(p for p in pathlib.Path().rglob("*") if p.is_file()) == files
    assert _contents(files) == before


def test_generator_v1_records_replay_from_outside_their_directory(tmp_path, monkeypatch, capsys):
    # each record resolves against its own root, so a replay from another
    # working directory reads the tree it names and writes no file at all:
    # every name, byte and modification time stays as it was
    shutil.copytree(V1_RECORDS, tmp_path / "v1")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")

    def snapshot():
        return {
            p: (p.is_file() and p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(tmp_path.rglob("*"))
        }

    before = snapshot()
    manifests = sorted((tmp_path / "v1").rglob("*.manifest.json"))
    assert len(manifests) == 10
    for manifest in manifests:
        assert main(["replay", os.path.relpath(manifest)]) == 0, manifest
    assert "replay ok" in capsys.readouterr().out
    assert snapshot() == before


def test_fresh_runs_record_the_current_generator(tmp_path):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG)
    series = str(tmp_path / "pair.csv")
    assert main(["generate", cfg, "--out", series]) == 0
    assert json.load(open(f"{series}.manifest.json"))["parameters"]["spec"]["generator"] == 2
    suite = _write(tmp_path / "suite.cfg", "mc.suite = standard-regimes\nmc.length = 1024\n"
                   "mc.replications = 2\n")
    out_dir = tmp_path / "suite"
    assert main(["mc", suite, "--out-dir", str(out_dir)]) == 0
    params = json.load(open(out_dir / "summary.json.manifest.json"))["parameters"]
    assert params["generator"] == 2
    assert {c["spec"]["generator"] for c in params["configs"]} == {2}


def test_replay_detects_changed_input(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG)
    series = str(tmp_path / "pair.csv")
    assert main(["generate", cfg, "--out", series]) == 0
    fit = str(tmp_path / "fit.json")
    assert main(["dcca", series, "--out", fit]) == 0
    # corrupt the input series after the run
    with open(series, "a") as fh:
        fh.write("1024,0.0,0.0\n")
    assert main(["replay", f"{fit}.manifest.json"]) == 2
    assert "content changed since the manifest was written" in capsys.readouterr().err


def test_replay_detects_tampered_record(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG)
    series = str(tmp_path / "pair.csv")
    assert main(["generate", cfg, "--out", series]) == 0
    sidecar_path = f"{series}.manifest.json"
    doc = json.load(open(sidecar_path))
    recorded = doc["outputs"][series]
    doc["outputs"][series] = "0" * 64
    with open(sidecar_path, "w") as fh:
        json.dump(doc, fh)
    before = _contents([series, sidecar_path])
    capsys.readouterr()
    assert main(["replay", sidecar_path]) == 1
    assert capsys.readouterr().err == (
        f"plcc: error: original modified since the manifest was written: {series}\n"
    )
    assert _contents([series, sidecar_path]) == before
    # with the output gone, a record whose seed was changed regenerates
    # other bytes than it lists
    os.remove(series)
    doc["outputs"][series] = recorded
    doc["parameters"]["seed"] += 1
    with open(sidecar_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["replay", sidecar_path]) == 1
    assert "replay outputs differ from the manifest record" in capsys.readouterr().err


def test_replay_keeps_a_modified_original(tmp_path, capsys, monkeypatch):
    # replay writes where the run wrote, so it first checks every recorded
    # output that exists, and writes nothing when one no longer matches
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", GEN_CFG)
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    assert main(["report", "pair.csv", "--out", "r.json"]) == 0
    original = _contents(["r.json", "r.json.manifest.json"])
    with open("r.json", "ab") as fh:
        fh.write(b" ")

    def every_file():
        return _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))

    before = every_file()
    capsys.readouterr()
    assert main(["replay", "r.json.manifest.json"]) == 1
    assert capsys.readouterr().err == (
        "plcc: error: original modified since the manifest was written: r.json\n"
    )
    assert every_file() == before
    # a missing output is regenerated with the recorded bytes
    os.remove("r.json")
    assert main(["replay", "r.json.manifest.json"]) == 0
    assert _contents(["r.json", "r.json.manifest.json"]) == original


@pytest.mark.parametrize(
    "argv, clobbered",
    [
        (["dcca", "p.csv", "--out", "p.csv"], "p.csv"),
        (["dcca", "p.csv", "--out", "./sub/../p.csv"], "./sub/../p.csv"),
        (["dcca", "link.csv", "--out", "p.csv"], "p.csv"),
        # the sidecar of r.json is the input
        (["dcca", "r.json.manifest.json", "--out", "r.json"], "r.json.manifest.json"),
        (["generate", "g.cfg", "--out", "g.cfg"], "g.cfg"),
        (["dcca", "p.csv", "--out", "hard.csv"], "hard.csv"),
    ],
    ids=["same-path", "dotted-path", "symlink", "sidecar", "generate-config", "hard-link"],
)
def test_run_refuses_to_overwrite_its_input(tmp_path, capsys, monkeypatch, argv, clobbered):
    # a run that wrote over its input used to exit 0, and the generate
    # record of p.csv then no longer replayed
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", GEN_CFG)
    assert main(["generate", "g.cfg", "--out", "p.csv"]) == 0
    shutil.copy("p.csv", "r.json.manifest.json")
    os.symlink("p.csv", "link.csv")
    os.link("p.csv", "hard.csv")
    os.mkdir("sub")

    def every_file():
        return _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))

    before = every_file()
    capsys.readouterr()
    assert main(argv) == 2
    message = f"plcc: error: {clobbered} would overwrite an input of the run\n"
    assert capsys.readouterr().err == message
    assert every_file() == before
    assert main(["replay", "p.csv.manifest.json"]) == 0


def test_replay_compares_what_its_own_run_wrote(tmp_path, capsys, monkeypatch):
    # a record whose out was edited writes elsewhere, so the untouched
    # original at the recorded path cannot vouch for the replay
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", "length = 256\nseed = 3\nspec.d1 = 0.3\nspec.d3 = 0.3\nsigma.13 = 0.5\n")
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    doc = json.load(open("pair.csv.manifest.json"))
    doc["parameters"]["out"] = "other.csv"
    _write(tmp_path / "edited.json", json.dumps(doc))
    original = _contents(["pair.csv", "pair.csv.manifest.json"])
    capsys.readouterr()
    assert main(["replay", "edited.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "plcc: error: replay outputs differ from the manifest record: other.csv, pair.csv\n"
    )
    assert "replay ok" not in captured.out
    assert _contents(["pair.csv", "pair.csv.manifest.json"]) == original


@pytest.mark.parametrize(
    "key, value, differ",
    [("seed", 4041, "pair.csv"), ("out", "notes.txt", "notes.txt, pair.csv")],
    ids=["edited-seed", "edited-out"],
)
def test_replay_of_an_edited_record_writes_nothing(
    tmp_path, capsys, monkeypatch, key, value, differ
):
    # the replay stages what it regenerates: a record whose seed
    # was edited used to overwrite pair.csv and its sidecar, and one whose
    # out names another file used to write the pair into that file
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", GEN_CFG)
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    _write(tmp_path / "notes.txt", "kept\n")
    doc = json.load(open("pair.csv.manifest.json"))
    doc["parameters"][key] = value
    _write(tmp_path / "edited.json", json.dumps(doc))

    def every_file():
        return _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))

    before = every_file()
    capsys.readouterr()
    assert main(["replay", "edited.json"]) == 1
    assert capsys.readouterr().err == (
        f"plcc: error: replay outputs differ from the manifest record: {differ}\n"
    )
    assert every_file() == before


def test_replay_restores_a_missing_sidecar(tmp_path, capsys, monkeypatch):
    # a matching replay copies a missing output or sidecar from its staging
    # directory and writes nothing else
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "mc.cfg", MC_SINGLE_CFG)
    assert main(["mc", "mc.cfg", "--out-dir", "runs"]) == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    before = _contents(files)
    os.remove(os.path.join("runs", "summary.json.manifest.json"))
    os.remove(os.path.join("runs", "smoke.json"))
    capsys.readouterr()
    assert main(["replay", os.path.join("runs", "smoke.json.manifest.json")]) == 0
    assert "replay ok: 2 recorded output(s) byte-identical" in capsys.readouterr().out
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files
    assert _contents(files) == before


def test_replay_of_an_edited_out_dir_makes_no_directory(tmp_path, capsys, monkeypatch):
    # the output directory of an mc record used to be created before the
    # digests were compared, and stayed behind, empty, after exit 1
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "mc.cfg", MC_SINGLE_CFG)
    assert main(["mc", "mc.cfg", "--out-dir", "runs"]) == 0
    doc = json.load(open(os.path.join("runs", "smoke.json.manifest.json")))
    doc["parameters"]["out_dir"] = "elsewhere"
    _write(tmp_path / "edited.json", json.dumps(doc))
    paths = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["replay", "edited.json"]) == 1
    assert "replay outputs differ from the manifest record" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == paths


def test_replay_restores_a_removed_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "mc.cfg", MC_SINGLE_CFG)
    assert main(["mc", "mc.cfg", "--out-dir", "runs"]) == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    before = _contents(files)
    shutil.copy(os.path.join("runs", "smoke.json.manifest.json"), "record.json")
    shutil.rmtree("runs")
    capsys.readouterr()
    assert main(["replay", "record.json"]) == 0
    assert "replay ok: 2 recorded output(s) byte-identical" in capsys.readouterr().out
    assert _contents(files) == before


def test_replay_refuses_a_sidecar_of_a_replay(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", GEN_CFG)
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    doc = json.load(open("pair.csv.manifest.json"))
    _write(tmp_path / "bad.json", json.dumps({**doc, "subcommand": "replay"}))
    before = _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))
    capsys.readouterr()
    assert main(["replay", "bad.json"]) == 2
    assert capsys.readouterr().err == (
        "plcc: error: bad.json: manifest subcommand 'replay' is not replayable\n"
    )
    assert _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file())) == before


def test_replay_refuses_a_suite_record_whose_configs_were_edited(tmp_path, capsys, monkeypatch):
    # the suite is rebuilt from its counts, seed and generator; edited
    # configs used to be overwritten by the rebuilt ones and replay "ok"
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "suite.cfg", "mc.suite = standard-regimes\nmc.length = 1024\n"
           "mc.replications = 2\n")
    assert main(["mc", "suite.cfg", "--out-dir", "suite"]) == 0
    doc = json.load(open(os.path.join("suite", "summary.json.manifest.json")))
    doc["parameters"]["configs"][0]["replications"] = 99
    doc["parameters"]["configs"][0]["spec"]["d1"] = 0.45
    _write(tmp_path / "edited.json", json.dumps(doc))
    before = _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))
    capsys.readouterr()
    assert main(["replay", "edited.json"]) == 2
    assert capsys.readouterr().err == (
        "plcc: error: edited.json: manifest parameter 'configs' differs from the suite "
        "that its length, replications, master_seed and generator rebuild\n"
    )
    assert _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file())) == before


def test_replay_returns_to_the_working_directory(tmp_path, capsys, monkeypatch):
    # a replay works from its record's root and returns to the working
    # directory it started in, whatever its exit code
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    monkeypatch.chdir(a)
    _write(a / "g.cfg", GEN_CFG)
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    assert main(["dcca", "pair.csv", "--out", "r.json"]) == 0
    assert main(["rho", "pair.csv", "--out", "rho.json"]) == 0
    monkeypatch.chdir(b)
    cwd = os.getcwd()

    def replay(record):
        code = main(["replay", os.path.join("..", "a", f"{record}.manifest.json")])
        assert os.getcwd() == cwd
        assert os.listdir(b) == []
        return code

    assert replay("r.json") == 0
    with open(a / "r.json", "ab") as fh:
        fh.write(b" ")
    assert replay("r.json") == 1
    with open(a / "pair.csv", "a") as fh:
        fh.write("1024,0.0,0.0\n")
    assert replay("rho.json") == 2
    os.remove(a / "pair.csv")
    assert replay("rho.json") == 3
    err = capsys.readouterr().err
    assert "original modified since the manifest was written: r.json" in err
    assert "pair.csv: content changed since the manifest was written" in err
    assert "No such file or directory: 'pair.csv'" in err


def test_replay_of_a_record_named_after_no_relative_output_uses_the_working_directory(
    tmp_path, capsys, monkeypatch
):
    # a renamed manifest and a record of an absolute --out have no root of
    # their own: their relative paths resolve against the working directory
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "g.cfg", GEN_CFG)
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    os.mkdir("records")
    shutil.copy("pair.csv.manifest.json", os.path.join("records", "renamed.json"))
    out = str(tmp_path / "r.json")
    assert main(["dcca", "pair.csv", "--out", out]) == 0

    def every_file():
        return _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))

    before = every_file()
    capsys.readouterr()
    assert main(["replay", os.path.join("records", "renamed.json")]) == 0
    assert main(["replay", f"{out}.manifest.json"]) == 0
    assert every_file() == before
    # from another directory the absolute output is found, the relative
    # input is not
    os.mkdir("b")
    monkeypatch.chdir("b")
    assert main(["replay", f"{out}.manifest.json"]) == 3
    assert "No such file or directory: 'pair.csv'" in capsys.readouterr().err
    assert os.listdir(".") == []
    assert every_file() == before


# =========================================================================
# mc
# =========================================================================

MC_SINGLE_CFG = """
mc.lengths = 512
mc.replications = 3
mc.estimators = dfa, dcca
mc.master_seed = 71
mc.label = smoke
spec.d1 = 0.2
spec.d3 = 0.2
sigma.13 = 0.5
"""


def test_mc_single_experiment(tmp_path, capsys):
    cfg = _write(tmp_path / "mc.cfg", MC_SINGLE_CFG)
    out_dir = str(tmp_path / "runs")
    assert main(["mc", cfg, "--out-dir", out_dir]) == 0
    assert "max gap" in capsys.readouterr().out
    res = json.load(open(os.path.join(out_dir, "smoke.json")))
    assert res["label"] == "smoke"
    assert res["replications"] == 3
    assert {c["measurement"] for c in res["cells"]} == {"dfa_hx", "dfa_hy", "dcca_hxy"}
    summary = json.load(open(os.path.join(out_dir, "summary.json")))
    assert summary["tolerance"] == 0.05
    assert [r["label"] for r in summary["rows"]] == ["smoke"]
    # each output carries the same sidecar listing every output digest
    side = json.load(open(os.path.join(out_dir, "smoke.json.manifest.json")))
    assert set(side["outputs"]) == {
        os.path.join(out_dir, "smoke.json"),
        os.path.join(out_dir, "summary.json"),
    }
    for path, digest in side["outputs"].items():
        assert sha256_file(path) == digest


@pytest.mark.parametrize("label", ["summary", "../escaped", "a/b", "", ".hidden", "a\0b"])
def test_mc_refuses_a_label_that_is_not_a_file_name(tmp_path, capsys, monkeypatch, label):
    # the result document is <label>.json in --out-dir: a label that would
    # overwrite the summary, leave the directory, need a subdirectory or
    # hide the document, or hold a NUL that no file name holds, is refused
    # before any replication, writing nothing
    monkeypatch.setattr("plcc.montecarlo.run_experiment", lambda *a, **k: pytest.fail("ran"))
    work = tmp_path / "work"
    work.mkdir()
    cfg = _write(work / "mc.cfg", MC_SINGLE_CFG.replace("mc.label = smoke", f"mc.label = {label}"))
    before = sorted(tmp_path.rglob("*"))
    assert main(["mc", cfg, "--out-dir", str(work / "out")]) == 2
    assert f"mc.label {label!r} must name a file in the output directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("mc.lengths = 512", "mc.lengths = 512, 1024, 512", "lengths must not repeat an entry"),
        ("dfa, dcca", "dfa, dcca, dfa", "estimators must not repeat an entry"),
    ],
)
def test_mc_refuses_repeated_entries(tmp_path, capsys, old, new, message):
    cfg = _write(tmp_path / "mc.cfg", MC_SINGLE_CFG.replace(old, new))
    out_dir = tmp_path / "runs"
    assert main(["mc", cfg, "--out-dir", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_mc_config_errors(tmp_path, capsys):
    missing = _write(tmp_path / "m1.cfg", "mc.lengths = 512\nmc.replications = 3\n")
    assert main(["mc", missing, "--out-dir", str(tmp_path / "o")]) == 2
    assert "mc.estimators" in capsys.readouterr().err

    stray = _write(tmp_path / "m2.cfg", "mc.suite = standard-regimes\nspec.d1 = 0.3\n")
    assert main(["mc", stray, "--out-dir", str(tmp_path / "o")]) == 2
    assert "suite mode ignores spec keys" in capsys.readouterr().err

    unknown = _write(tmp_path / "m3.cfg", MC_SINGLE_CFG + "mc.bogus = 1\n")
    assert main(["mc", unknown, "--out-dir", str(tmp_path / "o")]) == 2
    assert "unknown keys: mc.bogus" in capsys.readouterr().err

    bad_est = _write(
        tmp_path / "m4.cfg",
        "mc.lengths = 512\nmc.replications = 3\nmc.estimators = dfa, mystery\nmc.master_seed = 1\n",
    )
    assert main(["mc", bad_est, "--out-dir", str(tmp_path / "o")]) == 2
    assert "mystery" in capsys.readouterr().err

    # a bandwidth the spectral estimators reject fails before any replication
    bad_bw = _write(tmp_path / "m5.cfg", MC_SINGLE_CFG + "mc.bandwidth = 4\n")
    assert main(["mc", bad_bw, "--out-dir", str(tmp_path / "o5")]) == 2
    assert "bandwidth must be an odd integer" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o5")

    # so does a scale grid that cannot be built at one of the lengths
    bad_grid = _write(tmp_path / "m6.cfg", MC_SINGLE_CFG + "mc.scale_min = 200\n")
    assert main(["mc", bad_grid, "--out-dir", str(tmp_path / "o6")]) == 2
    assert "length 512 leaves no admissible scales" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o6")
    short_suite = _write(
        tmp_path / "m7.cfg", "mc.suite = standard-regimes\nmc.length = 512\nmc.replications = 2\n"
    )
    assert main(["mc", short_suite, "--out-dir", str(tmp_path / "o7")]) == 2
    assert "leaves no admissible scales" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o7")

    # a tolerance or worker count out of range leaves no output directory,
    # whether or not the experiment runs the feasibility sweep
    single = _write(tmp_path / "m8.cfg", MC_SINGLE_CFG)
    spectral = _write(tmp_path / "m9.cfg", MC_SINGLE_CFG.replace("dfa, dcca", "logperiodogram"))
    for cfg, flag, value, message in [
        (single, "--tol", "0", "tolerance must be positive"),
        (single, "--jobs", "0", "jobs must be at least 1"),
        (spectral, "--tol", "-1", "tolerance must be positive"),
        (spectral, "--tol", "0", "tolerance must be positive"),
        (spectral, "--jobs", "0", "jobs must be at least 1"),
    ]:
        out_dir = tmp_path / "o8"
        assert main(["mc", cfg, "--out-dir", str(out_dir), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out_dir)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("mc.estimators = dfa, dcca\n", "", "config key 'mc.estimators' is required"),
        ("mc.master_seed = 71\n", "",
         "a master seed is required: pass --seed, set PLCC_SEED, or add 'mc.master_seed' "
         "to the config"),
        ("mc.lengths = 512", "mc.lengths = 512, x", "mc.lengths must be comma-separated integers"),
    ],
    ids=["no-estimators", "no-master-seed", "non-integer-length"],
)
def test_mc_single_experiment_config_errors(tmp_path, capsys, old, new, message):
    cfg = _write(tmp_path / "mc.cfg", MC_SINGLE_CFG.replace(old, new))
    out_dir = tmp_path / "runs"
    assert main(["mc", cfg, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"plcc: error: {cfg}: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "mc.suite = standard-regimes\nmc.length = 1024\nmc.replications = 2\n"
            "mc.lengths = 512\nmc.estimators = logcross\nmc.label = mine\nmc.n_scales = 7\n"
            "spec.d1 = 0.3\n",
            "suite mode ignores spec keys and single-experiment keys; remove "
            "mc.estimators, mc.label, mc.lengths, mc.n_scales, spec.d1",
        ),
        (
            MC_SINGLE_CFG + "mc.length = 4096\n",
            "single-experiment mode ignores suite keys; remove mc.length",
        ),
    ],
    ids=["suite", "single"],
)
def test_mc_modes_refuse_the_keys_of_the_other_mode(tmp_path, capsys, text, message):
    # a key the chosen mode does not read used to be dropped without a
    # word: the suite ran its five regimes at mc.length with dfa and dcca,
    # and the single experiment ran at 512 only
    cfg = _write(tmp_path / "mc.cfg", text)
    out_dir = tmp_path / "out"
    assert main(["mc", cfg, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"plcc: error: {cfg}: {message}\n"
    assert not os.path.exists(out_dir)


def test_mc_records_the_library_defaults(tmp_path):
    # an absent key leaves the ExperimentConfig field or the standard_regimes
    # argument at the library's default, and the record holds the value used
    single = _write(
        tmp_path / "single.cfg",
        "mc.lengths = 512, 1024\nmc.replications = 2\nmc.estimators = dfa\nmc.master_seed = 5\n",
    )
    assert main(["mc", single, "--out-dir", str(tmp_path / "single")]) == 0
    params = json.load(open(tmp_path / "single" / "summary.json.manifest.json"))["parameters"]
    expected = ExperimentConfig(
        spec=spec_from_config({}), lengths=(512, 1024), replications=2,
        estimators=("dfa",), master_seed=5,
    )
    assert params["config_echo"] == json.loads(json_dumps(expected.echo()))
    suite = _write(tmp_path / "suite.cfg", "mc.suite = standard-regimes\nmc.length = 1024\n"
                   "mc.replications = 2\n")
    assert main(["mc", suite, "--out-dir", str(tmp_path / "suite")]) == 0
    params = json.load(open(tmp_path / "suite" / "summary.json.manifest.json"))["parameters"]
    first = standard_regimes(length=1024, replications=2)[0]
    assert params["master_seed"] == first.master_seed


def test_generate_refuses_both_orders_of_a_covariance_key(tmp_path, capsys):
    cfg = _write(tmp_path / "g.cfg", GEN_CFG + "sigma.31 = 0.6\n")
    out = tmp_path / "pair.csv"
    assert main(["generate", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "plcc: error: config keys sigma.13 and sigma.31 set the same entry; keep one\n"
    )
    assert not os.path.exists(out)


def test_infinite_numbers_are_refused_before_anything_is_written(
    tmp_path, pair_csv, capsys, monkeypatch
):
    # an infinite tolerance or dof used to reach the JSON writer, which
    # cannot render it, after the outputs had been opened
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "mc.cfg", MC_SINGLE_CFG)
    _write(tmp_path / "h.cfg", GEN_CFG + "spec.dist = student-t\nspec.dof = inf\n")
    runs = [
        (["report", pair_csv, "--tol", "inf"], "tolerance must be finite, got inf"),
        (["mc", "mc.cfg", "--out-dir", "runs", "--tol", "inf"], "tolerance must be finite, got inf"),
        (["generate", "h.cfg", "--out", "h.csv"], "dof must be finite, got inf"),
    ]
    for argv, message in runs:
        before = _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file()))
        assert main(argv) == 2
        assert f"plcc: error: {message}\n" == capsys.readouterr().err
        assert _contents(sorted(p for p in tmp_path.rglob("*") if p.is_file())) == before
    assert not os.path.exists(tmp_path / "runs")


def test_mc_suite_replay_identical_across_jobs(tmp_path):
    cfg = _write(
        tmp_path / "suite.cfg",
        "mc.suite = standard-regimes\nmc.length = 1024\nmc.replications = 2\nmc.master_seed = 909\n",
    )
    out_dir = str(tmp_path / "suite")
    assert main(["mc", cfg, "--out-dir", out_dir, "--jobs", "1"]) == 0
    names = sorted(os.listdir(out_dir))
    assert "summary.json" in names
    assert "independent.json" in names
    summary = json.load(open(os.path.join(out_dir, "summary.json")))
    assert ["independent", 1024] in summary["unmeasured"]

    before = {n: open(os.path.join(out_dir, n), "rb").read() for n in names}
    # replay with a different worker count must reproduce every byte
    assert main(["replay", os.path.join(out_dir, "summary.json.manifest.json"), "--jobs", "4"]) == 0
    after = {n: open(os.path.join(out_dir, n), "rb").read() for n in names}
    assert after == before
