"""Peak memory and wall time of fresh ``plcc`` command processes.

Usage::

    python tools/working_set.py [--runs N] [--seed S] SRC [SRC ...]

Each ``SRC`` is the ``src`` directory of a checkout. The three generator
specs are those of the benchmark's CLI workloads, with the same config
keys: ``standard`` (``d1 = d3 = 0.4``, ``sigma.13 = 0.5``), ``anti`` (four
live components, ``d1 = d3 = 0.1``, ``d2 = d4 = 0.4``, ``sigma.13 = 0.9``;
it sets the benchmark's generate peak) and ``heavy`` (the standard pair
with Student-t(3) innovations). For each length T = 2^16 and 2^20, in a
temporary directory, a ``plcc generate`` of the standard pair at seed
``S`` (default 1) writes the pair CSV once. Then ``N`` rounds (default 3)
each run ``plcc generate`` of each spec, and ``plcc report`` and ``plcc
dcca`` on the standard pair, as fresh interpreters, once per ``SRC``, the
order of the checkouts turning by one each round. Each command's peak
resident memory is the ``ru_maxrss`` that ``os.wait4`` returns for it, and
its wall time runs from start to exit.

One line is printed per checkout, command, spec and length: the median and
the range of the peak in MB (2^20 bytes) and the median wall time in
seconds over the rounds. A command that exits non-zero stops the tool with
exit code 1. Only the standard library is used. At 2^20 the pair CSV is
about 49 MB and ``generate`` of ``anti`` peaks near 390 MB, so one round
there takes about ten seconds per checkout and that much free memory.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

LENGTHS = (1 << 16, 1 << 20)
SPECS = {
    "standard": {"spec.d1": "0.4", "spec.d3": "0.4", "sigma.13": "0.5"},
    "anti": {
        "spec.alpha": "1", "spec.beta": "1", "spec.gamma": "1", "spec.delta": "1",
        "spec.d1": "0.1", "spec.d2": "0.4", "spec.d3": "0.1", "spec.d4": "0.4",
        "sigma.13": "0.9",
    },
    "heavy": {
        "spec.d1": "0.4", "spec.d3": "0.4", "sigma.13": "0.5",
        "spec.dist": "student-t", "spec.dof": "3",
    },
}
# (command, spec): generate reads each spec, the analyses the standard pair
COMMANDS = (*(("generate", spec) for spec in SPECS), ("report", "standard"), ("dcca", "standard"))


def run(src: str, argv: list[str], cwd: str) -> tuple[float, float]:
    """Peak RSS in MB and wall seconds of ``python -m plcc.cli argv``."""
    env = {k: v for k, v in os.environ.items() if k != "PLCC_SEED"}
    env["PYTHONPATH"] = os.path.abspath(src)
    with tempfile.TemporaryFile("w+") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "plcc.cli", *argv], cwd=cwd, env=env, stdout=log, stderr=log
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            log.seek(0)
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {log.read().strip()}")
    return usage.ru_maxrss / 1024.0, wall


def command_argv(command: str, spec: str) -> list[str]:
    if command == "generate":
        return ["generate", f"{spec}.cfg", "--out", "out.csv"]
    return [command, "pair.csv", "--out", f"{command}.json"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="the src directory of a checkout")
    parser.add_argument("--runs", type=int, default=3, help="rounds per length")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    args = parser.parse_args()
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs, {args.runs} rounds, seed {args.seed}")
    print(f"{'src':<28} {'command':<9} {'spec':<9} {'T':>8} {'peak MB (median, range)':>30} {'wall s':>8}")
    for length in LENGTHS:
        samples = {(src, c): [] for src in args.src for c in COMMANDS}
        with tempfile.TemporaryDirectory() as work:
            for spec, entries in SPECS.items():
                with open(os.path.join(work, f"{spec}.cfg"), "w") as fh:
                    fh.write(f"length = {length}\nseed = {args.seed}\noutput = pair\n")
                    fh.writelines(f"{key} = {value}\n" for key, value in entries.items())
            try:
                run(args.src[0], ["generate", "standard.cfg", "--out", "pair.csv"], work)
                for r in range(args.runs):
                    turn = r % len(args.src)
                    for src in args.src[turn:] + args.src[:turn]:
                        for command in COMMANDS:
                            samples[src, command].append(run(src, command_argv(*command), work))
            except RuntimeError as exc:
                print(f"failed: {exc}", file=sys.stderr)
                return 1
        for (src, (command, spec)), got in samples.items():
            peaks = [p for p, _ in got]
            wall = statistics.median(w for _, w in got)
            spread = f"{statistics.median(peaks):.2f} ({min(peaks):.2f}-{max(peaks):.2f})"
            print(f"{src[-28:]:<28} {command:<9} {spec:<9} {length:>8} {spread:>30} {wall:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
