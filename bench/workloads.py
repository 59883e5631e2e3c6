"""Workload definitions: inputs made from a seed, operations and their checks.

An operation is one ``plcc`` command line (``plcc.cli`` argv). The MC
workloads run it in-process through ``plcc.cli.main``, the way a library
caller or a long-lived process would; the CLI workloads run each command as
a fresh ``python -m plcc.cli`` process, so the import cost users pay counts.
Every command runs with the run directory as its working directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

# Three generator specs for the CLI workloads: fully correlated long memory,
# the anti-cointegration spec of ``standard_regimes`` and a Student-t(3) pair.
CLI_SPECS = {
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
CLI_LENGTH = 65536

# The "standard" regime of ``standard_regimes``, written out so that the
# workload stays fixed when the package's regime list changes.
STANDARD_REGIME = {
    "spec.alpha": "1", "spec.beta": "1", "spec.gamma": "1", "spec.delta": "1",
    "spec.d1": "0.3", "spec.d2": "0.1", "spec.d3": "0.4", "spec.d4": "0.2",
    **{f"sigma.{i}{j}": "0.5" for i in range(1, 5) for j in range(i + 1, 5)},
}
ALL_ESTIMATORS = "dfa,dcca,logperiodogram,logcross,rho,beta,h_rho_time,h_rho_freq"

REGIMES = ("standard", "anti-cointegration", "independent", "heavy-tail", "short-memory")
REGIMES_REPS = 20
ESTIMATORS_REPS = 100

REPORT_REGIMES = {"standard", "anti-cointegration", "infeasible-flag"}


def write_config(path: str, entries: dict) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in entries.items())


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def derive_seed(seed: int, tag) -> int:
    """A generator seed for one input or operation, fixed by the workload seed."""
    return random.Random(f"{seed}/{tag}").randrange(1 << 31)


@dataclass
class Outcome:
    """What one operation produced: problems found, output digests, MC cells."""

    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    cells_failed: int = 0
    cells_total: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc", "generate", "report" or "replay"
    items_per_op: int  # replications (mc) or commands (cli) per operation
    expect: tuple[str, ...]  # per-layer metrics that must be non-zero when traced
    jobs: int = 1
    config: dict = field(default_factory=dict)  # mc: the entries of mc.cfg
    labels: tuple[str, ...] = ()  # mc: the regime labels the sweep writes

    @property
    def in_process(self) -> bool:
        """MC operations call ``plcc.cli.main``; CLI ones start a process."""
        return self.kind == "mc"

    @property
    def round_size(self) -> int:
        """Operations are timed in whole rounds: one per CLI spec."""
        return 1 if self.kind == "mc" else len(CLI_SPECS)

    def setup(self, run_dir: str, seed: int) -> None:
        """Write the configs and input files; needs ``plcc`` importable."""
        if self.kind == "mc":
            write_config(os.path.join(run_dir, "mc.cfg"), self.config)
            return
        for spec, entries in CLI_SPECS.items():
            write_config(os.path.join(run_dir, f"{spec}.cfg"), {"length": str(CLI_LENGTH), **entries})
        if self.kind in ("report", "replay"):
            from plcc.cli import main

            cwd = os.getcwd()
            os.chdir(run_dir)
            try:
                for spec in CLI_SPECS:
                    argv = ["generate", f"{spec}.cfg", "--out", f"{spec}.csv", "--seed", str(derive_seed(seed, spec))]
                    if main(argv) != 0:
                        raise RuntimeError(f"set-up: generate {spec} failed")
            finally:
                os.chdir(cwd)

    def argv(self, i: int, seed: int, jobs: int | None = None) -> list[str]:
        """Command line of operation ``i``; its output names depend on ``i`` only."""
        spec = list(CLI_SPECS)[i % len(CLI_SPECS)]
        seed = derive_seed(seed, i)
        if self.kind == "mc":
            return ["mc", "mc.cfg", "--out-dir", f"mc_{i}", "--jobs", str(jobs or self.jobs), "--seed", str(seed)]
        if self.kind == "generate":
            return ["generate", f"{spec}.cfg", "--out", f"gen_{i}.csv", "--seed", str(seed)]
        if self.kind == "report":
            return ["report", f"{spec}.csv", "--out", f"report_{i}.json"]
        return ["replay", f"{spec}.csv.manifest.json"]

    def outputs(self, i: int) -> list[str]:
        """Files and directories operation ``i`` creates in the run directory."""
        if self.kind == "mc":
            return [f"mc_{i}"]
        if self.kind == "generate":
            return [f"gen_{i}.csv", f"gen_{i}.csv.manifest.json"]
        if self.kind == "report":
            return [f"report_{i}.json", f"report_{i}.json.manifest.json"]
        return []

    def check(self, run_dir: str, i: int, code: int, stdout: str, inputs: dict[str, str]) -> Outcome:
        """Verify one operation against contracts that hold for any seed.

        ``inputs`` holds the digests of the set-up files. The outputs of a
        passing operation are removed afterwards.
        """
        out = Outcome()
        if code != 0:
            out.problems.append(f"exit code {code}")
        spec = list(CLI_SPECS)[i % len(CLI_SPECS)]
        try:
            if self.kind == "mc":
                self._check_mc(os.path.join(run_dir, f"mc_{i}"), out)
            elif self.kind == "generate":
                self._check_manifest(run_dir, f"gen_{i}.csv", out)
            elif self.kind == "report":
                self._check_report(run_dir, f"report_{i}.json", out)
            else:
                if "byte-identical" not in stdout:
                    out.problems.append("replay did not report byte-identical outputs")
                self._check_manifest(run_dir, f"{spec}.csv", out)
                if out.digests[f"{spec}.csv"] != inputs[f"{spec}.csv"]:
                    out.problems.append(f"{spec}.csv: replay changed the generated bytes")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.problems.append(f"unreadable output: {exc!r}")
        if not out.problems:
            for name in self.outputs(i):
                path = os.path.join(run_dir, name)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                elif os.path.exists(path):
                    os.remove(path)
        return out

    def _check_mc(self, out_dir: str, out: Outcome) -> None:
        for name in sorted(os.listdir(out_dir)):
            out.digests[name] = sha256(os.path.join(out_dir, name))
        for label in self.labels:
            with open(os.path.join(out_dir, f"{label}.json")) as fh:
                doc = json.load(fh)
            for cell in doc["cells"]:
                if cell["n_completed"] + cell["n_failed"] != doc["replications"]:
                    out.problems.append(f"{label}/{cell['measurement']}: completed + failed != replications")
                out.cells_failed += cell["n_failed"]
                out.cells_total += cell["n_completed"] + cell["n_failed"]

    def _check_manifest(self, run_dir: str, csv_name: str, out: Outcome) -> None:
        path = os.path.join(run_dir, csv_name)
        with open(f"{path}.manifest.json") as fh:
            recorded = json.load(fh)["outputs"][csv_name]
        out.digests[csv_name] = sha256(path)
        if out.digests[csv_name] != recorded:
            out.problems.append(f"{csv_name}: digest differs from its manifest")

    def _check_report(self, run_dir: str, name: str, out: Outcome) -> None:
        path = os.path.join(run_dir, name)
        out.digests[name] = sha256(path)
        with open(path) as fh:
            doc = json.load(fh)
        est = doc["estimate"]
        if not (isinstance(est, (int, float)) and math.isfinite(est)):
            out.problems.append(f"estimate {est!r} is not finite")
        if doc.get("regime") not in REPORT_REGIMES:
            out.problems.append(f"regime {doc.get('regime')!r} is not a known regime")
        rhos = list(doc["values"] or []) + [doc["rho_at_max_scale"]]
        if not all(isinstance(r, (int, float)) and -1.0 <= r <= 1.0 for r in rhos):
            out.problems.append("a rho value lies outside [-1, 1]")


ARFIMA = ("arfima.generate_ms", "arfima.innovations_ms", "arfima.filter_ms", "arfima.weights_ms",
          "arfima.innovation_bytes")
DETRENDED = ("detrended.ms", "detrended.passes")
SPECTRAL = ("spectral.ms", "spectral.calls")
CORE = ("core.fit_ms", "core.fit_calls")
COMMON = ("cli.self_ms", "cli.import_s", "fileio.json_write_ms", "fileio.sha256_ms", "fileio.sha256_bytes",
          "trace.overhead_ratio")
CSV_WRITE = ("fileio.csv_write_ms", "fileio.csv_bytes")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-regimes", "mc", len(REGIMES) * REGIMES_REPS,
            ARFIMA + DETRENDED + CORE + ("montecarlo.self_ms", "montecarlo.parallel_speedup") + COMMON,
            jobs=2,
            config={"mc.suite": "standard-regimes", "mc.length": "8192", "mc.replications": str(REGIMES_REPS)},
            labels=REGIMES,
        ),
        Workload(
            "mc-estimators", "mc", ESTIMATORS_REPS,
            ARFIMA + DETRENDED + SPECTRAL + CORE + ("powerlaw.self_ms", "montecarlo.self_ms") + COMMON,
            config={
                **STANDARD_REGIME, "mc.lengths": "2048", "mc.replications": str(ESTIMATORS_REPS),
                "mc.estimators": ALL_ESTIMATORS, "mc.label": "standard",
            },
            labels=("standard",),
        ),
        Workload("cli-generate", "generate", 1, ARFIMA + CSV_WRITE + COMMON),
        Workload(
            "cli-report", "report", 1,
            DETRENDED + SPECTRAL + CORE + ("powerlaw.report_ms", "powerlaw.self_ms", "fileio.csv_read_ms",
                                           "fileio.csv_bytes") + COMMON,
        ),
        Workload("cli-replay", "replay", 1, ARFIMA + CSV_WRITE + COMMON),
    )
}
