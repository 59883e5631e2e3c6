"""Property tests of the command line contract, run in process through ``main``.

Each example works in a fresh temporary directory. The ``mc`` test writes a
config, runs it and replays what the run wrote; labels are drawn from
path-like strings on purpose, and list entries may repeat, since these are
the inputs a hand-picked case misses. The config test edits a small valid
``generate``, ``mc`` or suite config with keys drawn from what the command
line reads and unknown ones, and with values drawn on purpose from path-like
strings, a NUL, a byte that is not UTF-8 and numbers whose squares overflow.
The analysis test runs one analysis subcommand on a 512-row file with
options drawn from the subcommand's own parser, ``--out`` naming the input
itself among them, and replays what the run wrote. The edited-record test
runs ``generate``, an analysis or ``mc``, edits one recorded parameter that
changes what the run computes and replays the record, which must fail
without changing a byte. The sibling-directory
tests run ``generate``, ``dcca`` and both ``mc`` modes in one directory and
replay each record from two others.
"""

import argparse
import json
import os
import tempfile

import numpy as np
import pytest

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from plcc.arfima import generate_mc_arfima
from plcc.cli import _GENERATE_KEYS, _SINGLE_KEYS, _SUITE_KEYS, build_parser, main
from plcc.fileio import _SPEC_KEYS, spec_from_config, write_series_csv

LABELS = ["summary", "../x", "a/b", ".h", "", "smoke", "run_1"]


def _tree(root):
    """Every file and directory under ``root`` with its bytes (None for a directory)."""
    found = {}
    for top, dirs, files in os.walk(root):
        for name in dirs:
            found[os.path.relpath(os.path.join(top, name), root)] = None
        for name in files:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


@settings(max_examples=40, deadline=None)
@given(
    label=st.sampled_from(LABELS),
    lengths=st.lists(st.sampled_from([256, 512]), min_size=1, max_size=3),
    estimators=st.lists(st.sampled_from(["dfa", "dcca", "rho"]), min_size=1, max_size=3),
)
# the breaches a label or a repeated entry caused before they were refused
@example(label="summary", lengths=[512], estimators=["dfa"])
@example(label="../x", lengths=[512], estimators=["dfa"])
@example(label="a/b", lengths=[512], estimators=["dfa"])
@example(label="", lengths=[512], estimators=["dfa"])
@example(label="smoke", lengths=[512, 512], estimators=["dfa"])
@example(label="smoke", lengths=[512], estimators=["dfa", "dfa"])
def test_mc_exit_code_and_outputs_follow_the_contract(label, lengths, estimators):
    with tempfile.TemporaryDirectory() as root:
        work = os.path.join(root, "work")
        os.mkdir(work)
        cfg = os.path.join(work, "mc.cfg")
        with open(cfg, "w") as fh:
            fh.write(
                f"mc.lengths = {', '.join(map(str, lengths))}\n"
                "mc.replications = 2\n"
                f"mc.estimators = {', '.join(estimators)}\n"
                "mc.master_seed = 5\n"
                f"mc.label = {label}\n"
                "spec.d1 = 0.2\nspec.d3 = 0.2\nsigma.13 = 0.5\n"
            )
        out_dir = os.path.join(work, "out")
        before = _tree(root)
        code = main(["mc", cfg, "--out-dir", out_dir])
        assert code in (0, 2, 4)
        after = _tree(root)
        if code == 2:
            assert after == before
            return
        # nothing outside --out-dir changed
        prefix = os.path.join("work", "out")
        outside = {p: b for p, b in after.items() if p != prefix and not p.startswith(prefix + os.sep)}
        assert outside == before
        # only visible files directly in --out-dir, one sidecar per document
        names = os.listdir(out_dir)
        assert all(os.path.isfile(os.path.join(out_dir, n)) and not n.startswith(".") for n in names)
        documents = sorted(n for n in names if not n.endswith(".manifest.json"))
        assert sorted(names) == sorted(documents + [f"{n}.manifest.json" for n in documents])
        assert all(n.endswith(".json") for n in documents)
        # the experiment keeps its own document, one cell per key
        experiments = [n for n in documents if n != "summary.json"]
        assert "summary.json" in documents and len(experiments) == 1
        with open(os.path.join(out_dir, experiments[0])) as fh:
            cells = json.load(fh)["cells"]
        keys = [(c["measurement"], c["length"]) for c in cells]
        assert len(set(keys)) == len(keys)
        # the sidecar replays with the run's exit code and adds or changes no file
        assert main(["replay", os.path.join(out_dir, "summary.json.manifest.json")]) == code
        assert _tree(root) == after


# =========================================================================
# config files
# =========================================================================

# Small valid configs of each kind, written to ``cfg`` in the working
# directory and run by the command line after them.
CONFIG_RUNS = {
    "generate": (
        {"length": "512", "seed": "3", "spec.d1": "0.3", "spec.d3": "0.3", "sigma.13": "0.5"},
        ["generate", "cfg", "--out", "pair.csv"],
    ),
    "mc": (
        {
            "mc.lengths": "256", "mc.replications": "2", "mc.estimators": "dfa, dcca",
            "mc.master_seed": "5", "mc.label": "smoke", "spec.d1": "0.2", "spec.d3": "0.2",
        },
        ["mc", "cfg", "--out-dir", "out"],
    ),
    "suite": (
        {"mc.suite": "standard-regimes", "mc.length": "1024", "mc.replications": "2"},
        ["mc", "cfg", "--out-dir", "out"],
    ),
}
# The keys each kind reads; any of them, or an unknown key, may be drawn.
READS = {
    "generate": _GENERATE_KEYS | set(_SPEC_KEYS) | {"sigma.13"},
    "mc": _SINGLE_KEYS | set(_SPEC_KEYS) | {"sigma.13"},
    "suite": _SUITE_KEYS,
}
CONFIG_KEYS = sorted(set().union(*READS.values()) | {"spam", "mc.spam"})
# Values a key accepts, kept cheap (a few replications of short series), and
# hostile values drawn for every key: path-like strings, a NUL, a byte that
# is not UTF-8 and numbers whose squares overflow.
FITTING = {
    "length": [b"300", b"512"], "seed": [b"0", b"7"], "output": [b"x", b"pair"],
    **dict.fromkeys(("spec.alpha", "spec.beta", "spec.gamma", "spec.delta"), [b"0.5", b"1e160"]),
    **dict.fromkeys(("spec.d1", "spec.d2", "spec.d3", "spec.d4"), [b"0.1", b"-0.2", b"0.45"]),
    "spec.dist": [b"gaussian", b"student-t"], "spec.dof": [b"3", b"5"],
    "spec.truncation": [b"64", b"2000"], "spec.burn_in": [b"0", b"100"],
    "sigma.13": [b"0.5", b"-0.3"],
    "mc.lengths": [b"256", b"256, 300"], "mc.replications": [b"1", b"3"],
    "mc.estimators": [b"dfa", b"rho, beta, logcross", b"h_rho_time, h_rho_freq"],
    "mc.master_seed": [b"0", b"9"], "mc.tolerance": [b"0.1"], "mc.label": [b"run_1", b"a b"],
    "mc.poly_order": [b"0", b"2"], "mc.n_scales": [b"5", b"8"], "mc.n_freqs": [b"8"],
    "mc.bandwidth": [b"5"], "mc.scale_min": [b"12"], "mc.scale_max": [b"40"],
    "mc.suite": [b"standard-regimes"], "mc.length": [b"512", b"1024"],
}
HOSTILE = [
    b"", b"-1", b"nan", b"inf", b"../x", b"a/b", b".hidden", b"a\0b", b"caf\xe9", b"1e160",
    b"-1e160",
]


@st.composite
def _config_runs(draw):
    """A kind of run and up to three edits of its config: keys it reads or
    any other, each set to a value it accepts or to a hostile one."""
    kind = draw(st.sampled_from(sorted(READS)))
    key = st.one_of(st.sampled_from(sorted(READS[kind])), st.sampled_from(CONFIG_KEYS))
    keys = draw(st.lists(key, max_size=3, unique=True))
    value = lambda k: st.one_of(st.sampled_from(FITTING.get(k, HOSTILE)), st.sampled_from(HOSTILE))
    return kind, {k: draw(value(k)) for k in keys}


@settings(max_examples=60, deadline=None)
@given(run=_config_runs())
# a NUL label used to run every replication and then fail to copy its
# document; a byte that is not UTF-8 used to escape as a decoding error
@example(run=("mc", {"mc.label": b"a\0b"}))
@example(run=("generate", {"spam": b"caf\xe9"}))
@example(run=("mc", {"mc.label": b"../x"}))
@example(run=("generate", {"spec.alpha": b"1e160"}))
@example(run=("mc", {"spec.alpha": b"1e160", "mc.estimators": b"rho, beta, logcross"}))
@example(run=("suite", {"mc.length": b"-1e160"}))
# beta near 1e158 used to overflow its cell std and crash the JSON writer
@example(run=("mc", {"spec.delta": b"1e160", "mc.estimators": b"rho, beta, logcross"}))
def test_config_exit_code_outputs_and_replay_follow_the_contract(run):
    kind, edits = run
    entries, argv = CONFIG_RUNS[kind]
    entries = {**{k: v.encode() for k, v in entries.items()}, **edits}
    with tempfile.TemporaryDirectory() as root:
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with open("cfg", "wb") as fh:
                fh.write(b"".join(k.encode() + b" = " + v + b"\n" for k, v in entries.items()))
            before = _tree(".")
            code = main(argv)
            assert code in (0, 2, 4)
            event(f"{kind}: exit {code}")
            after = _tree(".")
            if code == 2:
                assert after == before
                return
            # the run added its outputs, one sidecar each, and for mc the
            # directory that holds them
            sidecars = [p for p in after if p.endswith(".manifest.json")]
            with open(sidecars[0]) as fh:
                outputs = json.load(fh)["outputs"]
            added = {*outputs, *(f"{p}.manifest.json" for p in outputs)}
            assert set(after) - set(before) == added | ({"out"} if kind != "generate" else set())
            assert {p: b for p, b in after.items() if p in before} == before
            # each sidecar replays with the run's exit code and changes no byte
            for sidecar in sidecars:
                assert main(["replay", sidecar]) == code
            assert _tree(".") == after
        finally:
            os.chdir(cwd)


# =========================================================================
# analysis subcommands
# =========================================================================

ANALYSES = ["dfa", "dcca", "rho", "beta", "coherency", "hrho", "report"]

# Values for every option an analysis parser takes, valid ones and ones each
# subcommand must refuse with exit 2. ``--out`` names the output by role:
# "input" and "./input" are the input file itself.
OPTION_VALUES = {
    "--order": ["0", "1", "3", "-1"],
    "--scales": ["12:100:20", "16:60:5", "10:300:8", "8:64:3", "12:100"],
    "--nfreqs": ["4", "8", "22", "128", "200"],
    "--bandwidth": ["3", "11", "4", "1"],
    "--tol": ["0.05", "0.5", "0", "-1", "nan"],
    "--min-rows": ["16", "256", "1024"],
    "--out": ["res.json", "input", "./input"],
}


def _analysis_options() -> dict:
    """The long options of each analysis subcommand, read from its parser."""
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: sorted(
            opt for action in subparsers.choices[name]._actions
            for opt in action.option_strings if opt.startswith("--") and opt != "--help"
        )
        for name in ANALYSES
    }


OPTIONS = _analysis_options()

# The inputs by name, as (x, y); dfa reads y alone. A constant side fails the
# report channels that read it (exit 4), and the other subcommands refuse it.
_X, _Y = generate_mc_arfima(
    spec_from_config({"spec.d1": "0.3", "spec.d3": "0.3", "sigma.13": "0.5"}), 512, 7
)
INPUTS = {
    "correlated": (_X, _Y),
    "independent": generate_mc_arfima(
        spec_from_config({"spec.d1": "0.3", "spec.d3": "0.1"}), 512, 8
    ),
    "constant": (_X, np.full(512, 1.5)),
    # finite values whose squares overflow: the ratios of second moments
    # answer, a curve or a fit that cannot be represented is refused (dfa
    # and dcca exit 2, a report fails its exponent channels and exits 4)
    "times-1e160": (_X * 1e160, _Y * 1e160),
}


def test_every_analysis_option_has_values_to_draw():
    # an option added to a parser must be drawn by the property test below
    assert {opt for opts in OPTIONS.values() for opt in opts} == set(OPTION_VALUES)


@st.composite
def _analysis_runs(draw):
    sub = draw(st.sampled_from(ANALYSES))
    data = draw(st.sampled_from(sorted(INPUTS)))
    flags = draw(
        st.fixed_dictionaries(
            {}, optional={opt: st.sampled_from(OPTION_VALUES[opt]) for opt in OPTIONS[sub]}
        )
    )
    return sub, data, flags


@settings(max_examples=100, deadline=None)
@given(run=_analysis_runs())
# an output that names the input used to overwrite it and exit 0
@example(run=("dcca", "correlated", {"--out": "input"}))
@example(run=("dfa", "correlated", {"--out": "./input"}))
@example(run=("report", "constant", {"--out": "input"}))
# these exited 1 when a NaN reached the JSON writer
@example(run=("report", "times-1e160", {}))
@example(run=("coherency", "times-1e160", {}))
def test_analysis_exit_code_outputs_and_replay_follow_the_contract(run):
    sub, data, flags = run
    x, y = INPUTS[data]
    with tempfile.TemporaryDirectory() as root:
        work = os.path.join(root, "work")
        os.mkdir(work)
        series = os.path.join(work, "series.csv")
        write_series_csv(series, *((y,) if sub == "dfa" else (x, y)))
        out = os.path.join(work, f"series.{sub}.json")
        argv = [sub, series]
        for opt, value in flags.items():
            if opt == "--out":
                dotted = os.path.join(work, ".", "series.csv")
                value = out = {"input": series, "./input": dotted}.get(
                    value, os.path.join(work, value)
                )
            argv += [opt, value]
        before = _tree(root)
        code = main(argv)
        assert code in (0, 2, 4)
        event(f"exit {code}")
        after = _tree(root)
        if code == 2:
            assert after == before
            return
        # the input is kept, and the run added its document and one sidecar
        document = os.path.relpath(out, root)
        assert {p: b for p, b in after.items() if p in before} == before
        assert set(after) - set(before) == {document, f"{document}.manifest.json"}
        # the sidecar replays with the run's exit code and changes no byte
        assert main(["replay", f"{out}.manifest.json"]) == code
        assert _tree(root) == after


# =========================================================================
# replay of an edited record
# =========================================================================

# Edits of one recorded parameter that change what a run computes, by the
# parameter's path in the record's "parameters": a replay either refuses the
# edited value or computes other bytes. An analysis document embeds its
# parameters, so for an analysis every edit changes the bytes.
EDITS = {
    "generate": {
        ("seed",): [4, 2**40],
        ("length",): [300, 640],
        ("spec", "alpha"): [0.5, -1.0, 1e308],
        ("spec", "beta"): [0.5],
        ("spec", "gamma"): [2.0, 0.0],
        ("spec", "delta"): [-0.5],
        ("spec", "d1"): [0.1, -0.2],
        ("spec", "d3"): [0.45, 0.0],
    },
    "analysis": {
        ("order",): [0, 2],
        ("scales",): ["16:60:5", "12:100:20"],
        ("scale_grid",): [[12, 20, 30, 50, 80]],
        ("min_rows",): [16, 1024],
        ("bandwidth",): [3, 5],
        ("n_freqs",): [8, 40],
        ("tolerance",): [0.1, 0.5],
    },
    "mc": {
        ("config_echo", "master_seed"): [72, 0],
        ("config_echo", "replications"): [3, 1],
        ("tolerance",): [0.1, 0.0],
    },
}
# Each recorded run as its command line and the sidecar of its record.
EDITED_RUNS = {
    "generate": (["generate", "g.cfg", "--out", "pair.csv"], "pair.csv.manifest.json"),
    **{sub: ([sub, "series.csv", "--out", "r.json"], "r.json.manifest.json") for sub in ANALYSES},
    "mc": (["mc", "mc.cfg", "--out-dir", "runs"], os.path.join("runs", "summary.json.manifest.json")),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_replay_of_a_record_with_an_edited_parameter_fails_and_keeps_every_file(data):
    run = data.draw(st.sampled_from(sorted(EDITED_RUNS)))
    argv, sidecar = EDITED_RUNS[run]
    with tempfile.TemporaryDirectory() as root:
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for name in ("g.cfg", "mc.cfg"):
                with open(name, "w") as fh:
                    fh.write(CONFIGS[name])
            write_series_csv("series.csv", *((_Y,) if run == "dfa" else (_X, _Y)))
            assert main(argv) == 0
            with open(sidecar) as fh:
                record = json.load(fh)
            edits = EDITS.get(run, EDITS["analysis"])
            params = record["parameters"]
            path = data.draw(st.sampled_from([p for p in sorted(edits) if p[-1] in _lookup(params, p[:-1])]))
            holder = _lookup(params, path[:-1])
            holder[path[-1]] = data.draw(
                st.sampled_from([v for v in edits[path] if v != holder[path[-1]]])
            )
            event(f"{run}: {'.'.join(path)}")
            with open(sidecar, "w") as fh:
                json.dump(record, fh)
            edited = _tree(".")
            code = main(["replay", sidecar])
            event(f"exit {code}")
            assert code in (1, 2)
            assert _tree(".") == edited
        finally:
            os.chdir(cwd)


def _lookup(parameters, path):
    """The mapping at ``path`` in a record's parameters."""
    for key in path:
        parameters = parameters[key]
    return parameters


# =========================================================================
# replay from another directory
# =========================================================================

CONFIGS = {
    "g.cfg": "length = 512\nseed = 3\nspec.d1 = 0.3\nspec.d3 = 0.3\nsigma.13 = 0.5\n",
    "mc.cfg": (
        "mc.lengths = 512\nmc.replications = 2\nmc.estimators = dfa, dcca\n"
        "mc.master_seed = 71\nmc.label = smoke\nspec.d1 = 0.2\nspec.d3 = 0.2\nsigma.13 = 0.5\n"
    ),
    "suite.cfg": "mc.suite = standard-regimes\nmc.length = 1024\nmc.replications = 2\n",
}

# Each run as its command line, the output whose sidecar is replayed and the
# files removed one after another before the later replays.
SIBLING_RUNS = {
    "generate": (["generate", "g.cfg", "--out", "pair.csv"], "pair.csv", ["pair.csv"]),
    "dcca": (
        ["dcca", "pair.csv", "--out", os.path.join("out", "r.json")],
        os.path.join("out", "r.json"),
        [os.path.join("out", "r.json")],
    ),
    "mc-single": (
        ["mc", "mc.cfg", "--out-dir", "runs"],
        os.path.join("runs", "smoke.json"),
        [os.path.join("runs", "smoke.json"), os.path.join("runs", "summary.json.manifest.json")],
    ),
    "mc-suite": (
        ["mc", "suite.cfg", "--out-dir", "suite"],
        os.path.join("suite", "summary.json"),
        [os.path.join("suite", "summary.json"), os.path.join("suite", "heavy-tail.json.manifest.json")],
    ),
}


@pytest.mark.parametrize("where", ["b", os.path.join("c", "sub")])
@pytest.mark.parametrize("run", sorted(SIBLING_RUNS))
def test_a_record_replays_from_another_directory_writing_only_restorations(
    tmp_path, monkeypatch, capsys, run, where
):
    # A record resolves every relative path against its own root, the
    # directory of its sidecar less the recorded output's directory part. A
    # replay from a sibling directory used to fail to find an analysis's input
    # and to "restore" a generate or mc record into the working directory.
    argv, output, removed = SIBLING_RUNS[run]
    a = tmp_path / "a"
    (a / "out").mkdir(parents=True)
    (tmp_path / where).mkdir(parents=True)
    for name, text in CONFIGS.items():
        (a / name).write_text(text)
    monkeypatch.chdir(a)
    assert main(["generate", "g.cfg", "--out", "pair.csv"]) == 0
    assert main(argv) == 0
    original = _tree(tmp_path)
    monkeypatch.chdir(tmp_path / where)
    # a relative manifest path from b, an absolute one from c/sub
    sidecar = a / f"{output}.manifest.json"
    manifest = os.path.relpath(sidecar) if where == "b" else str(sidecar)
    for path in [None, *removed]:
        if path is not None:
            os.remove(a / path)
        capsys.readouterr()
        assert main(["replay", manifest]) == 0, path
        assert "replay ok" in capsys.readouterr().out
        # every original keeps its bytes, a removed file is back and no
        # other file or directory appeared
        assert _tree(tmp_path) == original, path
