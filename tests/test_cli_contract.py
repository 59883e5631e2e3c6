"""Property test of the command line contract, run in process through ``main``.

Each example writes an ``mc`` config into a fresh temporary directory and
runs it. Labels are drawn from path-like strings on purpose, and list
entries may repeat, since these are the inputs a hand-picked case misses.
"""

import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcc.cli import main

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
