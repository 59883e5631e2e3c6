#!/usr/bin/env python3
"""Benchmark of the plcc package: end-to-end timings and per-layer spans.

One workload::

    python3 bench/run.py --workload mc-regimes --seed 1 --seconds 14 --trace 0

``--trace 0`` measures the end-to-end metrics without tracing; ``--trace 1``
installs the span tracer of ``bench/tracer.py`` and reports the per-layer
metrics. Every workload, both ways, with one table of the named metrics::

    python3 bench/run.py --all --seed 1 --seconds 14

The package is imported from ``src/`` of the checkout the script lives in;
without it the script exits with code 2. All outputs go to a fresh directory
under ``.bench-runs/``, which is removed after a run whose checks pass and
kept, with the spans of a traced run in ``spans.jsonl``, otherwise. The last line of standard output is the result JSON; the
line before it records the environment and the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench-runs")

SETUP_SAMPLES = 7  # fresh-interpreter set-ups per untraced run, spread over it
IMPORT_PROBES = 3
SPEEDUP_PAIRS = 5  # --jobs 1 / --jobs N pairs of the same sweep per traced run

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import plcc.cli, workloads; "
    "workloads.WORKLOADS[sys.argv[3]].setup(sys.argv[4], int(sys.argv[5]))"
)
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import plcc.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "arfima.generate_ms": "ms",
    "arfima.innovations_ms": "ms",
    "arfima.filter_ms": "ms",
    "arfima.weights_ms": "ms",
    "arfima.innovation_bytes": "bytes",
    "detrended.ms": "ms",
    "detrended.passes": "count",
    "spectral.ms": "ms",
    "spectral.calls": "count",
    "powerlaw.report_ms": "ms",
    "powerlaw.self_ms": "ms",
    "core.fit_ms": "ms",
    "core.fit_calls": "count",
    "montecarlo.self_ms": "ms",
    "montecarlo.parallel_speedup": "ratio",
    "montecarlo.unmeasured_ratio": "ratio",
    "fileio.csv_write_ms": "ms",
    "fileio.csv_read_ms": "ms",
    "fileio.csv_bytes": "bytes",
    "fileio.json_write_ms": "ms",
    "fileio.sha256_ms": "ms",
    "fileio.sha256_bytes": "bytes",
    "cli.import_s": "s",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# The work of a layer, as opposed to its argument helpers and config classes:
# a fluctuation pass is an entry into ``detrended`` that builds a profile, a
# spectral call is an entry into ``spectral`` that takes a DFT.
FLUCTUATION_MARKERS = {("core", "profile")}
SPECTRAL_MARKERS = {
    ("spectral", name)
    for name in ("periodogram", "cross_periodogram", "coherency", "estimate_h_logperiodogram", "estimate_hxy_logcross")
}


# =========================================================================
# Running one operation
# =========================================================================


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PLCC_SEED", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], cwd: str) -> tuple[int, str, float, int]:
    """Run a process to completion: (exit code, output, wall s, peak RSS KiB)."""
    with tempfile.TemporaryFile("w+", dir=cwd) as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        return proc.returncode, log.read(), wall, usage.ru_maxrss


def run_inline(argv: list[str], cwd: str) -> tuple[int, str, float]:
    """Call ``plcc.cli.main`` in this process with ``cwd`` as working directory."""
    import plcc.cli

    buf = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = time.perf_counter()
            try:
                code = plcc.cli.main(argv)
            except Exception:
                code = -1
                traceback.print_exc()
            wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return code, buf.getvalue(), wall


def run_op(w, i: int, seed: int, run_dir: str, inputs: dict, inline: bool, jobs: int | None = None):
    """One operation plus its checks: (outcome, wall s, peak RSS KiB or None)."""
    argv = w.argv(i, seed, jobs)
    if inline:
        code, text, wall = run_inline(argv, run_dir)
        rss = None
    else:
        code, text, wall, rss = run_child([sys.executable, "-m", "plcc.cli", *argv], run_dir)
    outcome = w.check(run_dir, i, code, text, inputs)
    if outcome.problems:
        print(f"{w.name} op {i} ({' '.join(argv)}): {'; '.join(outcome.problems)}\n{text}", file=sys.stderr)
    return outcome, wall, rss


def input_digests(run_dir: str) -> dict[str, str]:
    """Digests of the CSV files the set-up generated, keyed by file name."""
    from workloads import CLI_SPECS, sha256

    names = [f"{s}.csv" for s in CLI_SPECS if os.path.exists(os.path.join(run_dir, f"{s}.csv"))]
    return {n: sha256(os.path.join(run_dir, n)) for n in names}


def timed_setup(w, seed: int, run_dir: str) -> float:
    """Set the run directory up in a fresh interpreter; returns its wall time."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC, BENCH_DIR, w.name, run_dir, str(seed)]
    code, text, wall, _ = run_child(cmd, run_dir)
    if code != 0:
        raise RuntimeError(f"set-up of {w.name} failed:\n{text}")
    return wall


# =========================================================================
# Untraced and traced runs
# =========================================================================


def measure(w, seed: int, seconds: float, run_dir: str) -> tuple[dict, dict, list, list[str]]:
    """End-to-end metrics of one untraced run.

    Operations run until their wall times add up to ``seconds``. The set-up
    is repeated between rounds, every ``seconds / SETUP_SAMPLES`` of
    operation time, so that its samples meet the same phases of the
    machine's speed as the operations do.
    """
    setup = [timed_setup(w, seed, run_dir)]
    inputs = input_digests(run_dir)
    outcomes = [run_op(w, 0, seed, run_dir, inputs, w.in_process)[0]]  # warm-up, untimed
    walls, rss, problems = [], [], []
    i = 1
    while not walls or sum(walls) < seconds:
        for _ in range(w.round_size):
            outcome, wall, peak = run_op(w, i, seed, run_dir, inputs, w.in_process)
            outcomes.append(outcome)
            walls.append(wall)
            rss.append(peak)
            i += 1
        if len(setup) < SETUP_SAMPLES and sum(walls) >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(timed_setup(w, seed, run_dir))
            if input_digests(run_dir) != inputs:
                problems.append(f"set-up {len(setup)} wrote other input bytes than the first")
    if w.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max(rss)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": w.items_per_op * len(walls) / sum(walls),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    samples = {"setup_s": setup, "op_s": walls}
    return metrics, samples, outcomes, problems


def trace(w, seed: int, seconds: float, run_dir: str) -> tuple[dict, dict, list, list[str]]:
    """Per-layer metrics of one traced run, plus the untraced comparison."""
    from tracer import SpanTable, Tracer

    timed_setup(w, seed, run_dir)
    inputs = input_digests(run_dir)
    import_s = [float(run_child([sys.executable, "-c", IMPORT_CODE, SRC], run_dir)[1]) for _ in range(IMPORT_PROBES)]
    outcomes = [run_op(w, 0, seed, run_dir, inputs, True)[0]]  # warm-up, untraced

    tracer = Tracer()
    traced_names = tracer.install()
    traced, indices = [], []
    try:
        deadline = time.perf_counter() + seconds / 2
        i = 1
        while not indices or time.perf_counter() < deadline:
            for _ in range(w.round_size):
                tracer.begin_op(i)
                traced.append(run_op(w, i, seed, run_dir, inputs, True))
                tracer.end_op()
                indices.append(i)
                i += 1
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(run_dir, "spans.jsonl"))

    # The same operations untraced; on a pooled workload the first few are
    # each followed at once by the same sweep at --jobs 1.
    problems, plain, speedups = [], [], []
    for k, i in enumerate(indices):
        plain.append(run_op(w, i, seed, run_dir, inputs, True))
        if w.jobs > 1 and k < SPEEDUP_PAIRS:
            serial, serial_wall, _ = run_op(w, i, seed, run_dir, inputs, True, jobs=1)
            outcomes.append(serial)
            if serial.digests != plain[-1][0].digests:
                problems.append(f"op {i}: outputs differ between --jobs 1 and --jobs {w.jobs}")
            speedups.append(serial_wall / plain[-1][1])
    for i, (t_out, _, _), (p_out, _, _) in zip(indices, traced, plain):
        if t_out.digests != p_out.digests:
            problems.append(f"op {i}: outputs differ between the traced and the untraced run")
    outcomes += [o for o, _, _ in traced] + [o for o, _, _ in plain]

    items = w.items_per_op * len(indices)
    failed_cells = sum(o.cells_failed for o, _, _ in traced)
    total_cells = sum(o.cells_total for o, _, _ in traced)
    metrics = layer_metrics(SpanTable(tracer.spans), tracer.counts, items)
    metrics.update({
        "montecarlo.parallel_speedup": statistics.median(speedups) if speedups else 0.0,
        "montecarlo.unmeasured_ratio": failed_cells / total_cells if total_cells else 0.0,
        "cli.import_s": statistics.median(import_s),
        "trace.overhead_ratio": sum(x[1] for x in traced) / sum(x[1] for x in plain),
    })
    for name in w.expect:
        if not metrics[name] > 0:
            problems.append(f"{name} recorded nothing on {w.name}: a traced entry point is missing")
    samples = {
        "import_s": import_s,
        "traced_op_s": [x[1] for x in traced],
        "untraced_op_s": [x[1] for x in plain],
        "parallel_speedups": speedups,
        "traced_functions": traced_names,
    }
    return metrics, samples, outcomes, problems


def layer_metrics(table, counts, items: int) -> dict:
    """Per-operation layer times (ms) and counts from a finished trace."""

    def ms(spans) -> float:
        return sum(r[7] - r[6] for r in spans) / 1e6 / items

    def count(name: str) -> float:
        return counts.get(name, 0.0) / items

    passes = table.passes("detrended", FLUCTUATION_MARKERS)
    spectra = table.passes("spectral", SPECTRAL_MARKERS)

    return {
        "arfima.generate_ms": ms(table.named("arfima", "generate_mc_arfima")),
        "arfima.innovations_ms": ms(table.named("arfima", "correlated_innovations")),
        "arfima.filter_ms": ms(table.named("arfima", "filter_mc_arfima")),
        "arfima.weights_ms": ms(table.named("arfima", "arfima_weights")),
        "arfima.innovation_bytes": count("arfima.innovation_bytes"),
        "detrended.ms": ms(passes),
        "detrended.passes": len(passes) / items,
        "spectral.ms": ms(spectra),
        "spectral.calls": len(spectra) / items,
        "powerlaw.report_ms": ms(table.named("powerlaw", "coherency_report")),
        "powerlaw.self_ms": table.layer_self_ns("powerlaw") / 1e6 / items,
        "core.fit_ms": ms(table.named("core", "fit_loglog")),
        "core.fit_calls": len(table.named("core", "fit_loglog")) / items,
        "montecarlo.self_ms": table.layer_self_ns("montecarlo") / 1e6 / items,
        "fileio.csv_write_ms": ms(table.named("fileio", "write_series_csv")),
        "fileio.csv_read_ms": ms(table.named("fileio", "read_series_csv")),
        "fileio.csv_bytes": count("fileio.csv_bytes"),
        "fileio.json_write_ms": ms(table.named("fileio", "write_json")),
        "fileio.sha256_ms": ms(table.named("fileio", "sha256_file")),
        "fileio.sha256_bytes": count("fileio.sha256_bytes"),
        "cli.self_ms": table.layer_self_ns("cli") / 1e6 / items,
    }


# =========================================================================
# Provenance
# =========================================================================


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(w, args) -> dict:
    import numpy

    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "items_per_op": w.items_per_op,
        "jobs": w.jobs,
    }


# =========================================================================
# Entry points
# =========================================================================


def run_workload(args) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    os.makedirs(RUNS, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{w.name}-seed{args.seed}-trace{args.trace}-", dir=RUNS)
    correct = False
    try:
        if args.trace:
            metrics, samples, outcomes, problems = trace(w, args.seed, args.seconds, run_dir)
            units = PER_LAYER
        else:
            metrics, samples, outcomes, problems = measure(w, args.seed, args.seconds, run_dir)
            units = END_TO_END
        failed = sum(1 for o in outcomes if o.problems)
        for p in problems:
            print(f"{w.name}: {p}", file=sys.stderr)
        correct = failed == 0 and not problems
    finally:
        if correct:
            shutil.rmtree(run_dir)
        else:
            print(f"run directory kept: {run_dir}", file=sys.stderr)
    info = provenance(w, args)
    info["samples"] = samples
    info["sample_count"] = len(samples["traced_op_s" if args.trace else "op_s"])
    info["problems"] = problems
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


# The metric names of the benchmark's issue: (name, workload, figure).
NAMED = (
    ("mc_regimes_reps_per_s", "mc-regimes", "throughput_per_s"),
    ("mc_estimators_reps_per_s", "mc-estimators", "throughput_per_s"),
    ("generate_p50_s", "cli-generate", "p50_s"),
    ("report_p50_s", "cli-report", "p50_s"),
    ("replay_p50_s", "cli-replay", "p50_s"),
)


def run_all(args) -> int:
    from workloads import WORKLOADS

    results: dict = {}
    ok = True
    for name in WORKLOADS:
        for tr in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(tr)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            ok = ok and proc.returncode == 0
            if len(lines) >= 2:
                results[(name, tr)] = {**json.loads(lines[-1]), **json.loads(lines[-2])}

    nan = float("nan")

    def figures(name: str) -> dict:
        """End-to-end metrics of a workload plus its median operation time."""
        res = results.get((name, 0))
        if res is None:
            return {"p50_s": nan, "n": 0, **{m: nan for m in END_TO_END}}
        ops = res["provenance"]["samples"]["op_s"]
        return {"p50_s": statistics.median(ops), "n": len(ops),
                **{m: v["value"] for m, v in res["metrics"].items()}}

    print("end-to-end (untraced); p50_s is the median operation time over n operations")
    print(f"  {'workload':16s}{'throughput_per_s (1/s)':>24s}{'p50_s (s)':>11s}{'n':>5s}"
          f"{'peak_rss_mb (MB)':>18s}{'setup_s (s)':>13s}")
    for name in WORKLOADS:
        f = figures(name)
        print(f"  {name:16s}{f['throughput_per_s']:24.4f}{f['p50_s']:11.4f}{f['n']:5d}"
              f"{f['peak_rss_mb']:18.2f}{f['setup_s']:13.4f}")
    for label, name, key in NAMED:
        unit = "1/s" if key == "throughput_per_s" else "s"
        print(f"  {label:28s} {figures(name)[key]:12.4f} {unit}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    ratio = failed / attempted if attempted else nan
    print(f"  {'failed_ratio':28s} {ratio:12.4f} ratio ({failed}/{attempted} operations)")

    print("per layer (traced), per replication (mc) or per command (cli)")
    print(f"  {'metric':34s}" + "".join(f"{n:>15s}" for n in WORKLOADS))
    for metric, unit in PER_LAYER.items():
        row = "".join(
            f"{results[(n, 1)]['metrics'][metric]['value'] if (n, 1) in results else nan:15.4f}" for n in WORKLOADS
        )
        print(f"  {metric + ' (' + unit + ')':34s}{row}")
    print("all checks passed" if ok else "CHECKS FAILED", file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="plcc benchmark")
    parser.add_argument("--workload", help="workload name (see bench/README.md)")
    parser.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, default=14.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "plcc", "__init__.py")):
        print(f"bench: no plcc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
