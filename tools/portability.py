"""Output digests of ``plcc`` under emulated CPU kernels, one line per cell.

Usage::

    python tools/portability.py

Runs each cell of the switch matrix below in child processes of its own,
one cell after another. A switch is an environment variable that acts only
on the process it is set for:

- ``OPENBLAS_CORETYPE`` picks the kernel of numpy's bundled OpenBLAS;
- ``NPY_DISABLE_CPU_FEATURES`` turns off numpy's dispatched SIMD loops
  (the targets are read from this numpy's ``__cpu_dispatch__``);
- ``GLIBC_TUNABLES`` hides CPU features from glibc, whose libm then runs
  its variants without FMA.

In each cell one child replays the ten manifests of a copy of
``tests/data/v1/`` (in sorted path order) and reports the OpenBLAS core that
``scipy_openblas_get_corename64_`` names and the highest numpy target that
runs, and a second child runs ``tools/byte_identity.py`` on this checkout's
``src``. A cell prints its name, that core and target, the digest
``tools/byte_identity.py`` prints last, and the ten replay exit codes in
manifest order. A core or target other than the one a cell asks for shows
that the child fell back to other kernels.

The switches choose the kernels another CPU would get; they do not make
another CPU. A switch set in the calling environment is not passed on, so
a cell runs only its own. Only the standard library and numpy are used. A
full run takes about 20 s on a 2-core x86-64 host. The exit code is 1 when
a child fails, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath


def _targets(*prefixes: str) -> str:
    """numpy's dispatch targets whose names start with one of ``prefixes``."""
    return " ".join(t for t in _umath.__cpu_dispatch__ if t.startswith(prefixes))


_AVX512 = ("AVX512", "X86_V4")
_AVX2 = (*_AVX512, "AVX2", "FMA3", "X86_V3")
_NO_FMA = "glibc.cpu.hwcaps=-AVX2,-FMA"

SWITCHES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")
# name -> the switches of the cell
CELLS = {
    "native": {},
    "openblas-skylakex": {"OPENBLAS_CORETYPE": "SkylakeX"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": _targets(*_AVX512)},
    "numpy-no-avx2": {"NPY_DISABLE_CPU_FEATURES": _targets(*_AVX2)},
    "glibc-no-fma": {"GLIBC_TUNABLES": _NO_FMA},
    "avx2-host": {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": _targets(*_AVX512)},
    "avx-host": {
        "OPENBLAS_CORETYPE": "Sandybridge",
        "NPY_DISABLE_CPU_FEATURES": _targets(*_AVX2),
        "GLIBC_TUNABLES": _NO_FMA,
    },
}

V1 = os.path.join(ROOT, "tests", "data", "v1")
MANIFESTS = sorted(
    os.path.relpath(os.path.join(top, name), V1)
    for top, _, names in os.walk(V1)
    for name in names
    if name.endswith(".manifest.json")
)

# Replays the given manifests of a copy of tests/data/v1 from inside the copy
# and prints one JSON line: the OpenBLAS core, numpy's highest running target
# and the exit codes. argv: the checkout, a scratch directory, the manifests.
REPLAYS = r"""
import contextlib, ctypes, glob, io, json, os, shutil, sys
root, work, *manifests = sys.argv[1:]
sys.path.insert(0, os.path.join(root, "src"))
import numpy as np
import plcc.cli
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
core = "unknown"
if libs:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    core = corename().decode()
running = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
copy = os.path.join(work, "v1")
shutil.copytree(os.path.join(root, "tests", "data", "v1"), copy)
os.chdir(copy)
codes = []
for manifest in manifests:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(plcc.cli.main(["replay", manifest]))
print(json.dumps({"core": core, "numpy": running[-1] if running else "baseline", "replays": codes}))
"""


def _child(argv: list[str], env: dict) -> str:
    """The stdout of one child process with the switches ``env``; raises when it fails."""
    inherited = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    done = subprocess.run(
        [sys.executable, *argv], env={**inherited, **env}, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(done.stderr.strip().splitlines()[-1] if done.stderr.strip() else "failed")
    return done.stdout


def run_cell(env: dict) -> str:
    """One cell's line after its name: core, numpy target, digest, replay exit codes."""
    with tempfile.TemporaryDirectory() as work:
        seen = json.loads(_child(["-c", REPLAYS, ROOT, work, *MANIFESTS], env))
        out = _child(
            [os.path.join(ROOT, "tools", "byte_identity.py"), os.path.join(ROOT, "src"),
             os.path.join(work, "byte_identity")],
            env,
        )
    digest = out.strip().splitlines()[-1].rsplit(" ", 1)[-1]
    codes = " ".join(map(str, seen["replays"]))
    return f"core {seen['core']:<12} numpy {seen['numpy']:<12} digest {digest}  replays {codes}"


def main() -> int:
    failed = False
    print(f"numpy {np.__version__}, Python {sys.version.split()[0]}; replays in the order")
    print("  " + ", ".join(m.removesuffix(".manifest.json") for m in MANIFESTS))
    for name, env in CELLS.items():
        switches = " ".join(f"{k}={v!r}" for k, v in env.items()) or "no switch"
        try:
            line = run_cell(env)
        except RuntimeError as exc:
            line, failed = f"failed: {exc}", True
        print(f"{name:<21} {line}  ({switches})", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
