"""Byte-identity check for changes that must not move any output of ``plcc``.

Usage::

    python tools/byte_identity.py SRC OUT

Imports ``plcc`` from the directory ``SRC`` (the ``src`` of a checkout) and
runs a fixed command set through ``plcc.cli.main`` inside ``OUT``, which must
not exist yet, with ``PLCC_SEED`` unset:

- ``generate`` for four pairs and one single series, one of the pairs at a
  length that is not a power of two with explicit truncation and burn-in;
- ``dfa`` twice on the single series;
- the six pair analyses (``dcca``, ``rho``, ``beta``, ``coherency``,
  ``hrho``, ``report``), with default and with non-default flags, on each
  generated pair and on a pair whose ``x`` is constant (exit codes 2 and 4);
- ``mc`` with all eight estimators and with the standard-regimes suite, each
  at ``--jobs 1`` and 2, and ``mc`` with the spectral estimators only.

It then copies the outputs and replays every manifest in the copy. It prints
each command with its exit code and its stdout and stderr texts, the sorted
``<sha256>  <path>`` list of every file under ``OUT``, and last the SHA-256
of everything printed before it. Two source trees whose outputs agree byte
for byte print the same last line.

A change of the generator version (``McArfimaSpec.generator``) moves the
digest by design, because fresh runs use the new version. Records written
under an older version are gated by ``tests/data/v1/``, whose manifests the
test suite replays and compares byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys

CONFIGS = {
    "pair_a.cfg": "length = 1024\nseed = 4040\nspec.d1 = 0.3\nspec.d3 = 0.3\nsigma.13 = 0.5\n",
    # seed comes from --seed
    "pair_b.cfg": (
        "length = 2048\nspec.beta = 1\nspec.delta = 1\nspec.d1 = 0.1\nspec.d2 = 0.4\n"
        "spec.d3 = 0.1\nspec.d4 = 0.4\nsigma.13 = 0.9\n"
    ),
    "pair_c.cfg": (
        "length = 1024\nseed = 12\nspec.d1 = 0.4\nspec.d3 = 0.2\nsigma.13 = 0.3\n"
        "spec.dist = student-t\nspec.dof = 3\n"
    ),
    # a stream of 1500 + 300 + 1000 samples, filtered at a transform length
    # of 4096 (version 1: 8192); a truncation below the length would add a
    # warning that names the source path to the text
    "pair_d.cfg": (
        "length = 1000\nseed = 31\nspec.d1 = 0.35\nspec.d3 = 0.15\nsigma.13 = 0.4\n"
        "spec.truncation = 1500\nspec.burn_in = 300\n"
    ),
    "single.cfg": "length = 2048\nseed = 5\noutput = x\nspec.d1 = 0.25\n",
    "mc_all.cfg": (
        "mc.lengths = 512\nmc.replications = 3\nmc.master_seed = 71\nmc.label = all\n"
        "mc.estimators = dfa, dcca, logperiodogram, logcross, rho, beta, h_rho_time, h_rho_freq\n"
        "spec.d1 = 0.2\nspec.d3 = 0.2\nsigma.13 = 0.5\n"
    ),
    "mc_spectral.cfg": (
        "mc.lengths = 512, 1024\nmc.replications = 2\nmc.master_seed = 9\nmc.label = spectral\n"
        "mc.estimators = logperiodogram, logcross, h_rho_freq\nmc.bandwidth = 7\n"
        "spec.d1 = 0.3\nspec.d3 = 0.1\nsigma.13 = 0.6\n"
    ),
    "mc_suite.cfg": "mc.suite = standard-regimes\nmc.length = 1024\nmc.replications = 2\n",
}

# 1024 rows whose x is constant: every statistic involving x is undefined
CONSTANT_PAIR = "t,x,y\n" + "".join(f"{t},1.5,{(t * 37 % 101) / 10.0}\n" for t in range(1024))

PAIR_FLAGS = {
    "dcca": ["--scales", "16:150:10", "--order", "2"],
    "rho": ["--scales", "16:150:10", "--order", "2"],
    "beta": ["--scales", "20:200:8"],
    "coherency": ["--nfreqs", "40", "--bandwidth", "7"],
    "hrho": ["--scales", "16:150:10", "--nfreqs", "20", "--bandwidth", "5"],
    "report": ["--order", "2", "--nfreqs", "20", "--bandwidth", "7", "--tol", "0.1"],
}


def commands() -> list[list[str]]:
    cmds = [
        ["generate", "pair_a.cfg", "--out", "a.csv"],
        ["generate", "pair_b.cfg", "--out", "b.csv", "--seed", "7"],
        ["generate", "pair_c.cfg", "--out", "c.csv"],
        ["generate", "pair_d.cfg", "--out", "d.csv"],
        ["generate", "single.cfg", "--out", "x.csv"],
        ["dfa", "x.csv"],
        ["dfa", "x.csv", "--out", "x.dfa2.json", "--scales", "16:300:12", "--order", "2"],
    ]
    for pair in ("a", "b", "c", "const"):
        for sub, flags in PAIR_FLAGS.items():
            cmds.append([sub, f"{pair}.csv"])
            cmds.append([sub, f"{pair}.csv", "--out", f"{pair}.{sub}.flags.json", *flags])
    for jobs in ("1", "2"):
        cmds.append(["mc", "mc_all.cfg", "--out-dir", f"mc_all_j{jobs}", "--jobs", jobs])
        cmds.append(["mc", "mc_suite.cfg", "--out-dir", f"mc_suite_j{jobs}", "--jobs", jobs])
    cmds.append(["mc", "mc_spectral.cfg", "--out-dir", "mc_spectral"])
    return cmds


def run(main, argv: list[str]) -> list[str]:
    """One command through ``main``: its line, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    head = [f"$ plcc {' '.join(argv)}", f"exit {code}"]
    return head + _block("stdout", out) + _block("stderr", err)


def _block(name: str, stream: io.StringIO) -> list[str]:
    text = stream.getvalue()
    return [f"{name}: {line}" for line in text.splitlines()] if text else []


def digests(root: str) -> list[str]:
    lines = []
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, root)}")
    return sorted(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/byte_identity.py SRC OUT", file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in argv)
    if os.path.exists(out):
        print(f"byte_identity: {out} already exists", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ.pop("PLCC_SEED", None)
    import plcc.cli

    if not os.path.abspath(plcc.cli.__file__).startswith(src + os.sep):
        print(f"byte_identity: imported plcc from {plcc.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    runs, replays = os.path.join(out, "run"), os.path.join(out, "replay")
    os.makedirs(runs)
    for name, text in {**CONFIGS, "const.csv": CONSTANT_PAIR}.items():
        with open(os.path.join(runs, name), "w") as fh:
            fh.write(text)
    report = []
    home = os.getcwd()
    try:
        os.chdir(runs)
        for argv_ in commands():
            report += run(plcc.cli.main, argv_)
        shutil.copytree(runs, replays)
        os.chdir(replays)
        manifests = sorted(
            os.path.relpath(os.path.join(folder, name), replays)
            for folder, _, files in os.walk(replays)
            for name in files
            if name.endswith(".manifest.json")
        )
        for manifest in manifests:
            report += run(plcc.cli.main, ["replay", manifest])
    finally:
        os.chdir(home)
    report += digests(out)
    for line in report:
        print(line)
    print("sha256 of the lines above:", hashlib.sha256("\n".join(report).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
