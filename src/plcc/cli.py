"""Command line front end: CSV ingestion, analysis subcommands, Monte Carlo.

Exit codes are a stable contract: 0 success, 1 an original or a replayed
output differs from the record, 2 usage/config/validation problems (a
malformed manifest included), 3 I/O failures, 4 estimation failures (a
partial result document is still written).

Every subcommand resolves its flags and config file into a parameter dict
and a map of input digests, and hands both to one run path, ``_run``. It
executes the subcommand, embeds the manifest (the parameters as the run
resolved them, the input digests and the seeds) in every result document and
writes one sidecar ``<output>.manifest.json`` per output, listing the digests
of all outputs. It stages every output and sidecar in a temporary directory
and then copies them to their paths, so a fresh run, like a replay, needs a
writable temporary directory. ``replay`` works from the record's root, the
manifest's path less the sidecar name ``<output>.manifest.json`` of a
recorded output, so it runs from any working directory. It stops if a recorded
output on disk was modified, sends the recorded parameters and inputs down
the same path and compares the staged digests with the record. Only a match
copies, and only a recorded output or sidecar that is missing.

Seed resolution for ``generate`` and ``mc``: the ``--seed`` flag wins over
the ``PLCC_SEED`` environment variable, which wins over the config file.
``replay`` uses the seed recorded in the manifest and ignores all three.

The analysis and Monte Carlo layers are imported by the functions that run
them, so ``generate`` and its replay load neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .arfima import McArfimaSpec, generate_mc_arfima
from .core import is_integer, require_positive, scaled_back
from .errors import (
    EstimationFailed,
    InvalidInput,
    InvalidParameter,
    PlccError,
)
from .fileio import (
    build_manifest,
    config_float,
    config_int,
    config_str,
    fit_to_dict,
    parse_config,
    read_manifest,
    read_series_csv,
    read_text,
    sha256_file,
    spec_config_keys,
    spec_from_config,
    write_json,
    write_series_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ESTIMATION = 4


def _fail(message: str) -> None:
    print(f"plcc: error: {message}", file=sys.stderr)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one ``plcc: warning:`` line, free of source locations."""
    print(f"plcc: warning: {message}", file=sys.stderr)


# =========================================================================
# Config, seed and flag resolution
# =========================================================================


def _read_config(path: str, allowed: set[str]) -> tuple[dict, dict]:
    """The entries of a config file and its digest as the run's inputs.

    Keys outside ``allowed`` and the generator spec keys are refused.
    """
    cfg = parse_config(read_text(path), source=path)
    unknown = sorted(set(cfg) - allowed - spec_config_keys(cfg))
    if unknown:
        raise InvalidInput(f"{path}: unknown keys: {', '.join(unknown)}")
    return cfg, {path: sha256_file(path)}


def _record_fields(cls, record, where: str) -> dict:
    """``record`` once its keys are exactly the fields of dataclass ``cls``.

    A missing required field or an unknown one would otherwise surface as a
    ``TypeError`` from the constructor; a replay reports it as a malformed
    manifest instead.
    """
    if not isinstance(record, dict):
        raise InvalidParameter(f"manifest parameter '{where}' is not a JSON object")
    fields = dataclasses.fields(cls)
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in record:
            raise InvalidParameter(f"manifest parameters lack the '{where}.{f.name}' key")
    unknown = sorted(set(record) - {f.name for f in fields})
    if unknown:
        raise InvalidParameter(f"manifest parameter '{where}' has the unknown key '{unknown[0]}'")
    return record


def _env_seed() -> int | None:
    raw = os.environ.get("PLCC_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidInput(f"PLCC_SEED={raw!r} is not an integer") from None


def _resolve_seed(flag_seed, config_seed) -> int | None:
    if flag_seed is not None:
        return int(flag_seed)
    env = _env_seed()
    if env is not None:
        return env
    return config_seed


def _parse_scales_flag(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInput(f"--scales expects min:max:count, got {text!r}")
    try:
        lo, hi, count = (int(p) for p in parts)
    except ValueError:
        raise InvalidInput(f"--scales expects three integers, got {text!r}") from None
    if lo < 1 or hi <= lo:
        raise InvalidInput(f"--scales needs 1 <= min < max, got {text!r}")
    if count < 5:
        raise InvalidInput("--scales needs a count of at least 5")
    return lo, hi, count


def _resolve_grid(params: dict, length: int):
    """Build the detrending config, materializing the grid into the params."""
    from .detrended import DetrendConfig, default_scale_grid, geometric_scales

    order = params["order"]
    if params.get("scale_grid"):
        grid = np.asarray(params["scale_grid"], dtype=int)
    elif params.get("scales"):
        lo, hi, count = _parse_scales_flag(params["scales"])
        grid = geometric_scales(lo, hi, count)
    else:
        grid = default_scale_grid(length, order)
    cfg = DetrendConfig(grid, order)
    params["scale_grid"] = [int(s) for s in cfg.scale_grid]
    return cfg


# =========================================================================
# generate
# =========================================================================

_GENERATE_KEYS = {"length", "seed", "output"}


def _exec_generate(params: dict, inputs: dict, jobs: int) -> tuple:
    spec = McArfimaSpec.from_dict(_record_fields(McArfimaSpec, params["spec"], "spec"))
    x, y = generate_mc_arfima(spec, params["length"], params["seed"])
    params["spec"] = spec.resolved(params["length"]).to_dict()
    columns = (x,) if params["output"] == "x" else (x, y)
    return EXIT_OK, params["seed"], {params["out"]: columns}


def _cmd_generate(args) -> int:
    cfg, inputs = _read_config(args.config, _GENERATE_KEYS)
    length = config_int(cfg, "length")
    if length is None:
        raise InvalidInput(f"{args.config}: config key 'length' is required")
    seed = _resolve_seed(args.seed, config_int(cfg, "seed"))
    if seed is None:
        raise InvalidInput(
            "a seed is required: pass --seed, set PLCC_SEED, or add 'seed' to the config"
        )
    params = {
        "config": args.config,
        "out": args.out,
        "length": length,
        "seed": seed,
        "output": config_str(cfg, "output", "pair", choices={"pair", "x"}),
        "spec": spec_from_config(cfg).to_dict(),
    }
    code = _run("generate", params, inputs, 1)[0]
    print(f"wrote {args.out}: {length} rows, seed {seed}")
    return code


# =========================================================================
# analyze subcommands
# =========================================================================


def _plot_block(abscissa, ordinate, intercept: float | None, slope: float | None) -> dict:
    """Data-only plot payload: the points and, when a fit exists, the line."""
    block = {
        "abscissa": [float(a) for a in abscissa],
        "ordinate": [float(v) for v in ordinate],
        "fit": None,
    }
    if intercept is not None and slope is not None:
        line = np.exp(intercept + slope * np.log(np.asarray(abscissa, dtype=float)))
        block["fit"] = [float(v) for v in scaled_back(line, 0, "fitted line")]
    return block


def _empty_doc(sub: str) -> dict:
    return {
        "subcommand": sub,
        "estimate": None,
        "stderr": None,
        "r2": None,
        "scales": None,
        "values": None,
        "diagnostics": {},
        "plot": None,
    }


def _fluctuations(x, y, cfg, doc):
    """The fluctuation pass of a detrended analysis; records its scales in ``doc``."""
    from .detrended import JointFluctuations

    jf = JointFluctuations(x, y, cfg)
    doc["scales"] = [int(s) for s in jf.scales]
    return jf


def _analyze_scaling(x, y, params, doc) -> str | None:
    """dfa on a single series, dcca on a pair: one curve and its fit."""
    jf = _fluctuations(x, y, _resolve_grid(params, x.size), doc)
    values = jf.fxx if y is None else jf.fxy
    doc["values"] = [float(v) for v in values]
    try:
        fit = jf.hurst_x() if y is None else jf.hxy()
    except EstimationFailed as exc:
        return str(exc)
    doc.update(estimate=fit.exponent, stderr=fit.stderr, r2=fit.r_squared)
    doc["diagnostics"] = dict(fit.diagnostics)
    doc["plot"] = _plot_block(jf.scales, np.abs(values), fit.intercept, 2.0 * fit.exponent)
    return None


def _analyze_rho(x, y, params, doc) -> str | None:
    jf = _fluctuations(x, y, _resolve_grid(params, x.size), doc)
    values = doc["values"] = [float(r) for r in jf.rho()]
    doc["estimate"] = float(np.median(values))
    doc["diagnostics"] = {"statistic": "median correlation across scales"}
    doc["plot"] = _plot_block(doc["scales"], values, None, None)
    return None


def _analyze_beta(x, y, params, doc) -> str | None:
    jf = _fluctuations(x, y, _resolve_grid(params, x.size), doc)
    values = doc["values"] = [float(b) for b in jf.beta()]
    scales = doc["scales"]
    k = len(values)
    mid = slice(k // 4, k - k // 4)
    doc["estimate"] = float(np.median(values[mid]))
    doc["diagnostics"] = {
        "statistic": "median regression coefficient over the middle half of scales",
        "mid_scales": [scales[mid][0], scales[mid][-1]],
    }
    doc["plot"] = _plot_block(scales, values, None, None)
    return None


def _analyze_coherency(x, y, params, doc) -> str | None:
    from .spectral import coherency

    freqs, values = coherency(x, y, params["bandwidth"])
    if params.get("n_freqs") is not None:
        n = int(params["n_freqs"])
        if n < 1:
            raise InvalidInput(f"--nfreqs must be at least 1, got {n}")
        freqs, values = freqs[:n], values[:n]
    doc["scales"] = [float(f) for f in freqs]
    doc["values"] = [float(v) for v in values]
    doc["diagnostics"] = {
        "bandwidth": params["bandwidth"],
        "abscissa": "fourier frequency",
    }
    doc["plot"] = _plot_block(freqs, values, None, None)
    return None


def _coherency_report(x, y, params, tolerance: float = 0.05):
    """``coherency_report`` on the grid and band that ``params`` resolve to."""
    from .powerlaw import coherency_report
    from .spectral import resolve_n_freqs

    cfg = _resolve_grid(params, x.size)
    n = params["n_freqs"] = resolve_n_freqs(params.get("n_freqs"), x.size)
    return coherency_report(
        x, y, detrend=cfg, n_freqs=n, bandwidth=params["bandwidth"], tolerance=tolerance
    )


def _analyze_hrho(x, y, params, doc) -> str | None:
    """The report's two H_rho channels; a pass that gives no rho is a usage error."""
    rep = _coherency_report(x, y, params)
    if rep.rho_curve is None:
        raise InvalidInput(rep.failures["h_rho_time"])
    doc["scales"], doc["values"] = map(list, zip(*rep.rho_curve))
    fit = rep.h_rho_time
    doc["channels"] = {"time": fit_to_dict(fit), "freq": fit_to_dict(rep.h_rho_freq)}
    if fit is not None:
        doc.update(estimate=fit.exponent, stderr=fit.stderr, r2=fit.r_squared)
        doc["diagnostics"] = dict(fit.diagnostics)
        squared = [v * v for v in doc["values"]]
        doc["plot"] = _plot_block(doc["scales"], squared, fit.intercept, 4.0 * fit.exponent)
    failures = {
        k: rep.failures[f"h_rho_{k}"] for k in ("time", "freq") if f"h_rho_{k}" in rep.failures
    }
    if failures:
        doc["diagnostics"] = {**doc["diagnostics"], "failures": failures}
        return "; ".join(f"{k}: {v}" for k, v in failures.items())
    return None


def _analyze_report(x, y, params, doc) -> str | None:
    rep = _coherency_report(x, y, params, params["tolerance"])
    if "h_rho_time" not in rep.failures:
        doc["scales"], doc["values"] = map(list, zip(*rep.rho_curve))
    doc["estimate"] = rep.h_rho_diff
    doc["channels"] = {
        "h_x": fit_to_dict(rep.h_x),
        "h_y": fit_to_dict(rep.h_y),
        "h_xy": fit_to_dict(rep.h_xy),
        "h_rho_freq": fit_to_dict(rep.h_rho_freq),
        "h_rho_time": fit_to_dict(rep.h_rho_time),
    }
    doc["regime"] = rep.regime
    doc["rho_at_max_scale"] = rep.rho_at_max_scale
    doc["diagnostics"] = {"tolerance": params["tolerance"]}
    if rep.failures:
        doc["diagnostics"]["failures"] = dict(rep.failures)
        return "; ".join(f"{k}: {v}" for k, v in rep.failures.items())
    return None


_ANALYZE_FN = {
    "dfa": _analyze_scaling,
    "dcca": _analyze_scaling,
    "rho": _analyze_rho,
    "beta": _analyze_beta,
    "coherency": _analyze_coherency,
    "hrho": _analyze_hrho,
    "report": _analyze_report,
}


# What each recorded top-level parameter of any subcommand must be. The
# parser gives a fresh run these types; a replay reads them from a record
# that may not hold them. An integer path would be opened as a file
# descriptor, and no file name holds a NUL.
_PATH = ("a string without NUL", lambda v: isinstance(v, str) and "\0" not in v)
_PARAMETER_TYPES = {
    "length": ("an integer", is_integer),
    "seed": ("an integer", is_integer),
    "input": _PATH,
    "out": _PATH,
    "out_dir": _PATH,
    "output": ("'pair' or 'x'", lambda v: v in ("pair", "x")),
    "mode": ("'suite' or 'single'", lambda v: v in ("suite", "single")),
    "min_rows": ("an integer", is_integer),
    "order": ("an integer", is_integer),
    "bandwidth": ("an integer", is_integer),
    "n_freqs": ("an integer or null", lambda v: v is None or is_integer(v)),
    "tolerance": ("a number", lambda v: is_integer(v) or isinstance(v, float)),
    "scales": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "scale_grid": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_integer, v))),
}


def _exec_analyze(params: dict, inputs: dict, jobs: int) -> tuple:
    """An input digest already in ``inputs`` (a replay) must still match."""
    sub = params["analysis"]
    in_path = params["input"]
    digest = sha256_file(in_path)
    recorded = inputs.get(in_path)
    if recorded is not None and recorded != digest:
        raise InvalidInput(
            f"{in_path}: content changed since the manifest was written "
            f"(digest {digest[:12]}… != {recorded[:12]}…)"
        )
    inputs[in_path] = digest
    x, y = read_series_csv(in_path)
    if sub == "dfa" and y is not None:
        raise InvalidInput(f"{in_path}: {sub} expects a single-series file (t,x)")
    if sub != "dfa" and y is None:
        raise InvalidInput(f"{in_path}: {sub} expects a pair file (t,x,y)")
    if x.size < params["min_rows"]:
        raise InvalidInput(
            f"{in_path}: {x.size} rows is below the minimum {params['min_rows']} "
            "(lower it with --min-rows if intended)"
        )
    doc = _empty_doc(sub)
    error = _ANALYZE_FN[sub](x, y, params, doc)
    if error is not None:
        doc["error"] = error
    return (EXIT_OK if error is None else EXIT_ESTIMATION), None, {params["out"]: doc}


def _cmd_analyze(args) -> int:
    # every option of the analysis's parser is a recorded parameter
    params = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    out = params["out"]
    if out is None:
        out = params["out"] = f"{os.path.splitext(args.input)[0]}.{args.analysis}.json"
    code = _run(args.analysis, params, {}, 1)[0]
    if code == EXIT_OK:
        print(f"{args.analysis}: wrote {out}")
    else:
        _fail(f"estimation failed; partial result written to {out}")
    return code


# =========================================================================
# mc
# =========================================================================

# The keys each mode reads; a single experiment reads the spec keys too. An
# optional ``mc.<field>`` key of a single experiment sets that
# ``ExperimentConfig`` field, so an absent key leaves the field's default.
_SUITE_KEYS = {"mc.suite", "mc.length", "mc.replications", "mc.master_seed", "mc.tolerance"}
_EXPERIMENT_FIELDS = {
    "label": config_str,
    **dict.fromkeys(
        ("poly_order", "n_scales", "n_freqs", "bandwidth", "scale_min", "scale_max"), config_int
    ),
}
_SINGLE_KEYS = {
    "mc.lengths", "mc.replications", "mc.estimators", "mc.master_seed", "mc.tolerance",
    *(f"mc.{name}" for name in _EXPERIMENT_FIELDS),
}


def _mc_fields(cfg: dict, readers: dict) -> dict:
    """The ``mc.<name>`` keys set in ``cfg``, each read by its reader, by name."""
    return {
        name: read(cfg, f"mc.{name}") for name, read in readers.items() if f"mc.{name}" in cfg
    }


def _exec_mc(params: dict, inputs: dict, jobs: int) -> tuple:
    from .montecarlo import ExperimentConfig, feasibility_sweep, run_experiment, standard_regimes

    out_dir = params["out_dir"]
    tolerance = require_positive("tolerance", params["tolerance"])
    if params["mode"] == "suite":
        configs = standard_regimes(
            length=params["length"],
            replications=params["replications"],
            master_seed=params["master_seed"],
            # a record from before generator 2 has no version
            generator=params.get("generator", 1),
        )
        # a fresh run records the suite's configs; a replayed record must
        # hold the ones that its counts, seed and generator rebuild
        echoes = [c.echo() for c in configs]
        if params.setdefault("configs", echoes) != echoes:
            raise InvalidParameter(
                "manifest parameter 'configs' differs from the suite that its "
                "length, replications, master_seed and generator rebuild"
            )
    else:
        echo = _record_fields(ExperimentConfig, params["config_echo"], "config_echo")
        spec = _record_fields(McArfimaSpec, echo["spec"], "config_echo.spec")
        configs = [ExperimentConfig(**{**echo, "spec": McArfimaSpec.from_dict(spec)})]
    for label in (c.label for c in configs):
        # the result document is <label>.json in out_dir, beside summary.json
        if not isinstance(label, str) or label in ("", "summary") or label[:1] == "." or any(
            sep and sep in label for sep in ("/", os.sep, os.altsep, "\0")
        ):
            raise InvalidParameter(
                f"mc.label {label!r} must name a file in the output directory: not empty, "
                "not 'summary', no leading '.', no path separator and no NUL"
            )
    results = [run_experiment(c, jobs=jobs) for c in configs]
    if all({"dfa", "dcca"} <= set(c.estimators) for c in configs):
        summary = feasibility_sweep(results, tolerance)
    else:
        summary = {
            "tolerance": tolerance,
            "configs": [{"label": r.label, "degraded": r.degraded} for r in results],
        }
    docs = {os.path.join(out_dir, f"{res.label}.json"): res.to_dict() for res in results}
    docs[os.path.join(out_dir, "summary.json")] = {"subcommand": "mc", **summary}
    seeds = sorted({c.master_seed for c in configs})
    return EXIT_OK, seeds if len(seeds) > 1 else seeds[0], docs


def _cmd_mc(args) -> int:
    from .montecarlo import ExperimentConfig, standard_regimes

    cfg, inputs = _read_config(args.config, _SUITE_KEYS | _SINGLE_KEYS)
    if "mc.suite" in cfg:
        mode, reads, other = "suite", _SUITE_KEYS, "spec keys and single-experiment keys"
    else:
        mode, reads, other = "single-experiment", _SINGLE_KEYS | spec_config_keys(cfg), "suite keys"
    stray = sorted(set(cfg) - reads)
    if stray:
        raise InvalidInput(f"{args.config}: {mode} mode ignores {other}; remove {', '.join(stray)}")
    tolerance = args.tol if args.tol is not None else config_float(cfg, "mc.tolerance", 0.05)
    master = _resolve_seed(args.seed, config_int(cfg, "mc.master_seed"))
    params: dict = {"out_dir": args.out_dir, "tolerance": tolerance}
    if mode == "suite":
        config_str(cfg, "mc.suite", choices={"standard-regimes"})
        counts = _mc_fields(cfg, {"length": config_int, "replications": config_int})
        seed = {} if master is None else {"master_seed": master}
        # the record holds what the suite used, its defaults included
        first = standard_regimes(**counts, **seed)[0]
        params.update(
            mode="suite", suite="standard-regimes", length=first.lengths[0],
            replications=first.replications, master_seed=first.master_seed,
            generator=first.spec.generator,
        )
    else:
        for key in ("mc.lengths", "mc.replications", "mc.estimators"):
            if key not in cfg:
                raise InvalidInput(f"{args.config}: config key '{key}' is required")
        if master is None:
            raise InvalidInput(
                f"{args.config}: a master seed is required: pass --seed, set "
                "PLCC_SEED, or add 'mc.master_seed' to the config"
            )
        try:
            lengths = tuple(int(v) for v in cfg["mc.lengths"].split(","))
        except ValueError:
            raise InvalidInput(
                f"{args.config}: mc.lengths must be comma-separated integers"
            ) from None
        estimators = tuple(tok.strip() for tok in cfg["mc.estimators"].split(","))
        experiment = ExperimentConfig(
            spec=spec_from_config(cfg),
            lengths=lengths,
            replications=config_int(cfg, "mc.replications"),
            estimators=estimators,
            master_seed=master,
            **_mc_fields(cfg, _EXPERIMENT_FIELDS),
        )
        params.update(mode="single", config_echo=experiment.echo())
    code, docs = _run("mc", params, inputs, args.jobs)
    summary = docs[os.path.join(args.out_dir, "summary.json")]
    if "max_gap" in summary:
        print(
            f"mc: wrote {args.out_dir}; max gap "
            f"{summary['max_gap'] if summary['max_gap'] is not None else 'n/a'} "
            f"(tolerance {tolerance}), all within bound: {summary['all_within_bound']}"
        )
    else:
        print(f"mc: wrote {args.out_dir}")
    return code


# =========================================================================
# The run path and replay
# =========================================================================

# Each executor takes ``(params, inputs, jobs)``, completes ``params`` and
# ``inputs`` in place with what it resolved, and returns its exit code, its
# seeds and its outputs by path: a result document (a dict) or the columns
# of a series CSV (a tuple). Only ``_run`` writes them.
_EXEC = {"generate": _exec_generate, "mc": _exec_mc, **dict.fromkeys(_ANALYZE_FN, _exec_analyze)}


def _run(
    sub: str, params: dict, inputs: dict, jobs: int, recorded: dict | None = None
) -> tuple[int, dict]:
    """Execute a subcommand and record it.

    The manifest is embedded in every result document, and every output
    gets a sidecar that lists the digests of all outputs of the run. An
    output or sidecar that is an input file, by any path, symlink or hard
    link, is refused before anything is written. Outputs and sidecars are
    staged in a temporary directory, then copied to their paths. A replay
    passes its ``recorded`` output digests: a modified original stops it
    before it runs, the staged digests must match, and only missing files
    are copied. Returns the exit code and the outputs by path.
    """
    if recorded is not None:
        modified = [
            path for path, digest in sorted(recorded.items())
            if os.path.exists(path) and sha256_file(path) != digest
        ]
        if modified:
            _fail("original modified since the manifest was written: " + ", ".join(modified))
            return 1, {}
    # an analysis names its subcommand once more, and a recorded one must agree
    types = {**_PARAMETER_TYPES, "analysis": (repr(sub), lambda v: v == sub)}
    for name, (kind, holds) in types.items():
        if name in params and not holds(params[name]):
            raise InvalidParameter(
                f"manifest parameter '{name}' must be {kind}, got {params[name]!r}"
            )
    code, seeds, outputs = _EXEC[sub](params, inputs, jobs)
    input_stats = [os.stat(p) for p in inputs if os.path.exists(p)]
    for path in (*outputs, *(f"{p}.manifest.json" for p in outputs)):
        if os.path.exists(path) and any(os.path.samestat(os.stat(path), s) for s in input_stats):
            raise InvalidParameter(f"{path} would overwrite an input of the run")
    manifest = build_manifest(sub, params, inputs, seeds)
    with tempfile.TemporaryDirectory() as stage:
        staged = {p: os.path.join(stage, str(i)) for i, p in enumerate(outputs)}
        for path, output in outputs.items():
            if isinstance(output, dict):
                output["manifest"] = manifest
                write_json(staged[path], output)
            else:
                write_series_csv(staged[path], *output)
        digests = {p: sha256_file(staged[p]) for p in outputs}
        for temp in staged.values():
            write_json(f"{temp}.manifest.json", {**manifest, "outputs": digests})
        if recorded is not None:
            mismatched = sorted(p for p in {*recorded, *digests} if recorded.get(p) != digests.get(p))
            if mismatched:
                _fail("replay outputs differ from the manifest record: " + ", ".join(mismatched))
                return 1, outputs
        # a fresh run makes only the mc output directory, once every check
        # has passed; a replay makes the directory of a file it restores
        for path, temp in staged.items():
            if sub == "mc" or recorded is not None:
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            for suffix in ("", ".manifest.json"):
                if recorded is None or not os.path.exists(path + suffix):
                    shutil.copyfile(temp + suffix, path + suffix)
    return code, outputs


def _cmd_replay(args) -> int:
    man = read_manifest(args.manifest)
    sub = man["subcommand"]
    if sub not in _EXEC:
        raise InvalidParameter(f"{args.manifest}: manifest subcommand {sub!r} is not replayable")
    recorded = man.get("outputs", {})
    # The record's root is the manifest's path less the sidecar name of the
    # recorded output that it is named after. A manifest named after no
    # relative output inside its root keeps the working directory.
    parts = os.path.normpath(args.manifest).split(os.sep)
    root = "."
    for path in recorded:
        tail = f"{os.path.normpath(path)}.manifest.json".split(os.sep)
        if not os.path.isabs(path) and ".." not in tail and parts[-len(tail):] == tail:
            root = os.sep.join(parts[: -len(tail)] + [""]) or "."
    cwd = os.getcwd()
    os.chdir(root)
    # the recorded input digests ride along: the sidecars match byte for
    # byte, and an analysis refuses an input whose digest changed
    try:
        code = _run(
            sub, dict(man["parameters"]), dict(man.get("inputs", {})), args.jobs, recorded
        )[0]
    except KeyError as exc:
        raise InvalidInput(f"{args.manifest}: manifest parameters lack the {exc} key") from None
    except InvalidParameter as exc:
        # a fresh run refuses a bad parameter before it writes a manifest,
        # so in a replay (--jobs aside) the record holds it
        raise InvalidInput(f"{args.manifest}: {exc}") from None
    finally:
        os.chdir(cwd)
    if code == EXIT_OK:
        print(f"replay ok: {len(recorded)} recorded output(s) byte-identical")
    return code


# =========================================================================
# Parser and entry point
# =========================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcc",
        description=(
            "Long-memory pair generation, detrended and spectral exponent "
            "estimation, power-law coherency and Monte Carlo experiments "
            "over CSV time series."
        ),
    )
    parser.add_argument("--version", action="version", version=f"plcc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    gen = sub.add_parser("generate", help="synthesize a series pair from a config file")
    gen.add_argument("config", help="flat key=value config file")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--seed", type=int, help="overrides PLCC_SEED and the config seed")
    gen.set_defaults(handler=_cmd_generate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="CSV file with header t,x[,y]")
    common.add_argument("--out", help="result JSON path (default: <input>.<subcommand>.json)")
    common.add_argument(
        "--min-rows", type=int, default=256,
        help="minimum accepted row count (default 256)",
    )
    scales = argparse.ArgumentParser(add_help=False)
    scales.add_argument(
        "--scales", metavar="MIN:MAX:COUNT",
        help="log-spaced scale grid (default: order minimum up to T/5, 20 scales)",
    )
    scales.add_argument(
        "--order", type=int, default=1,
        help="box detrending polynomial order (default 1)",
    )
    freqs = argparse.ArgumentParser(add_help=False)
    freqs.add_argument(
        "--nfreqs", type=int, dest="n_freqs", metavar="NFREQS",
        help=(
            "number of lowest Fourier frequencies (default: all T/2 for coherency; "
            "floor(sqrt(T)), at least 8, for hrho and report)"
        ),
    )
    freqs.add_argument(
        "--bandwidth", type=int, default=11,
        help="odd Daniell smoothing bandwidth (default 11)",
    )

    analyze_specs = [
        ("dfa", "memory exponent from detrended variance scaling", [common, scales]),
        ("dcca", "cross-memory exponent from detrended covariance scaling", [common, scales]),
        ("rho", "scale-specific correlation coefficients", [common, scales]),
        ("beta", "scale-specific regression coefficients", [common, scales]),
        ("coherency", "smoothed squared spectral coherency", [common, freqs]),
        ("hrho", "coherency-decay exponent, time and frequency channels", [common, scales, freqs]),
        ("report", "all exponents plus regime classification", [common, scales, freqs]),
    ]
    for name, help_text, parents in analyze_specs:
        p = sub.add_parser(name, help=help_text, parents=parents)
        if name == "report":
            p.add_argument(
                "--tol", type=float, default=0.05, dest="tolerance", metavar="TOL",
                help="regime classification tolerance (default 0.05)",
            )
        p.set_defaults(handler=_cmd_analyze, analysis=name)

    mc = sub.add_parser("mc", help="seeded Monte Carlo experiments from a config file")
    mc.add_argument("config", help="flat key=value config file")
    mc.add_argument("--out-dir", required=True, help="directory for result documents")
    mc.add_argument("--jobs", type=int, default=1, help="worker threads (results are identical for any value)")
    mc.add_argument("--seed", type=int, help="overrides PLCC_SEED and the config master seed")
    mc.add_argument("--tol", type=float, help="feasibility gap tolerance (default 0.05)")
    mc.set_defaults(handler=_cmd_mc)

    rep = sub.add_parser("replay", help="re-run a manifest and verify byte-identical outputs")
    rep.add_argument("manifest", help="a <output>.manifest.json file")
    rep.add_argument("--jobs", type=int, default=1, help="worker threads for mc replays")
    rep.set_defaults(handler=_cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # numpy's overflow warnings would only repeat a refusal: the exp of a
    # fitted plot line is the one step here that can still overflow
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.showwarning = _show_warning
        # an estimation failure never escapes a handler: an analysis writes
        # its partial document and returns 4, mc records a missing sample
        try:
            return args.handler(args)
        except OSError as exc:
            _fail(str(exc))
            return EXIT_IO
        except PlccError as exc:
            _fail(str(exc))
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
