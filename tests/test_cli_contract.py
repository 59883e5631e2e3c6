"""Property tests of the command line contract, run in process through ``main``.

Each example works in a fresh temporary directory. The ``mc`` test writes a
config, runs it and replays what the run wrote; labels are drawn from
path-like strings on purpose, and list entries may repeat, since these are
the inputs a hand-picked case misses. The analysis test runs one analysis
subcommand on a 512-row file with options drawn from the subcommand's own
parser, ``--out`` naming the input itself among them, and replays what the
run wrote. The sibling-directory tests run ``generate``, ``dcca`` and both
``mc`` modes in one directory and replay each record from two others.
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
from plcc.cli import build_parser, main
from plcc.fileio import spec_from_config, write_series_csv

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
