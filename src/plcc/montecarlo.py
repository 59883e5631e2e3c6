"""Seeded Monte Carlo harness for the estimators in this package.

Every replication derives its seed deterministically from the master seed
and the replication index, so results are identical across runs and across
degrees of parallelism; aggregation always walks replications in index
order. Individual estimation failures are recorded per replication rather
than aborting the experiment.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from .arfima import McArfimaSpec, generate_mc_arfima, is_integer
from .detrended import DetrendConfig, JointFluctuations, default_scale_grid
from .errors import EstimationFailed, InvalidInput, InvalidParameter, PlccError
from .powerlaw import h_rho_frequency, rho_decay
from .spectral import (
    estimate_h_logperiodogram,
    estimate_hxy_logcross,
    resolve_n_freqs,
    validate_bandwidth,
)

__all__ = [
    "ESTIMATORS",
    "ExperimentConfig",
    "CellStats",
    "ExperimentResult",
    "split_seed",
    "theoretical_exponents",
    "run_experiment",
    "feasibility_sweep",
    "standard_regimes",
]

# measurement names produced by each estimator token
ESTIMATORS = {
    "dfa": ("dfa_hx", "dfa_hy"),
    "dcca": ("dcca_hxy",),
    "logperiodogram": ("logperiodogram_hx", "logperiodogram_hy"),
    "logcross": ("logcross_hxy",),
    "rho": ("rho_median",),
    "beta": ("beta_median",),
    "h_rho_time": ("h_rho_time",),
    "h_rho_freq": ("h_rho_freq",),
}

_FLUCTUATION_TOKENS = frozenset({"dfa", "dcca", "rho", "beta", "h_rho_time"})

# A cross-fluctuation curve whose sign alternates this often (as a fraction
# of the scale count) has no readable power law; the harness records the
# replication's cross-exponent as a failure instead of fitting |F2_xy|.
# Independent white-noise pairs alternate on roughly half the grid,
# correlated pairs on none of it, so the cut does not need to be sharp.
SIGN_STABILITY_FRACTION = 1 / 3

# Long-memory independent pairs keep a stable sign yet carry no cross
# signal; fitting |F2_xy| then reads pure box-count noise (which grows a
# quarter exponent faster than the average of the partners). They are
# screened by comparing |rho(s)| against the null dispersion of a
# zero-correlation pair, roughly sqrt(s / (2T)), over scales with at least
# 64 boxes. When more than half of those scales are inside the null band
# there is no detectable cross-correlation to fit.
NULL_BAND_FACTOR = 1.5
NULL_CONSISTENT_FRACTION = 0.5

_TARGET_KEYS = {
    "dfa_hx": "h_x",
    "dfa_hy": "h_y",
    "dcca_hxy": "h_xy",
    "logperiodogram_hx": "h_x",
    "logperiodogram_hy": "h_y",
    "logcross_hxy": "h_xy",
    "h_rho_time": "h_rho",
    "h_rho_freq": "h_rho",
}


def split_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed for one replication.

    Uses the seed-sequence spawn mechanism, so child streams neither collide
    nor overlap for distinct indices under one master seed.
    """
    if master_seed < 0 or index < 0:
        raise InvalidParameter("master_seed and index must be non-negative")
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _require_int(name: str, value) -> None:
    """Refuse a value that is not an integer, such as a string or a bool."""
    if not is_integer(value):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")


def theoretical_exponents(spec: McArfimaSpec) -> dict:
    """Asymptotic exponents implied by the dominant components of a spec.

    Each series takes the largest memory among its nonzero-weight components
    plus one half; the cross exponent takes the largest ``(d_i + d_j) / 2``
    among cross pairs whose weights and innovation covariance are all
    nonzero. Entries are None when no component qualifies.
    """
    comps = spec.component_weights()
    dx = [d for w, d in comps[:2] if w != 0]
    dy = [d for w, d in comps[2:] if w != 0]
    h_x = 0.5 + max(dx) if dx else None
    h_y = 0.5 + max(dy) if dy else None
    cross = [
        (di + dj) / 2.0
        for i, (wi, di) in enumerate(comps[:2])
        for j, (wj, dj) in enumerate(comps[2:], start=2)
        if wi != 0 and wj != 0 and spec.sigma[i, j] != 0
    ]
    h_xy = 0.5 + max(cross) if cross else None
    h_rho = None
    if h_x is not None and h_y is not None and h_xy is not None:
        h_rho = h_xy - (h_x + h_y) / 2.0
    return {"h_x": h_x, "h_y": h_y, "h_xy": h_xy, "h_rho": h_rho}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One Monte Carlo experiment: a spec, lengths, estimators and a seed."""

    spec: McArfimaSpec
    lengths: tuple[int, ...]
    replications: int
    estimators: tuple[str, ...]
    master_seed: int
    label: str = "experiment"
    poly_order: int = 1
    n_scales: int = 20
    n_freqs: int | None = None
    bandwidth: int = 11
    scale_min: int | None = None
    scale_max: int | None = None

    def __post_init__(self):
        for name in ("replications", "master_seed", "n_scales"):
            _require_int(name, getattr(self, name))
        for name in ("n_freqs", "scale_min", "scale_max"):
            if getattr(self, name) is not None:
                _require_int(name, getattr(self, name))
        for name in ("lengths", "estimators"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)):
                raise InvalidParameter(f"{name} must be a list or tuple, got {v!r}")
        for length in self.lengths:
            _require_int("every length", length)
        object.__setattr__(self, "lengths", tuple(int(v) for v in self.lengths))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.replications < 2:
            raise InvalidParameter("replications must be at least 2")
        if not self.lengths or any(length < 256 for length in self.lengths):
            raise InvalidParameter("every length must be at least 256")
        if not self.estimators:
            raise InvalidParameter("estimators must not be empty")
        unknown = [
            tok for tok in self.estimators if not isinstance(tok, str) or tok not in ESTIMATORS
        ]
        if unknown:
            raise InvalidParameter(f"unknown estimators: {unknown}")
        if self.master_seed < 0:
            raise InvalidParameter("master_seed must be non-negative")
        for name in ("scale_min", "scale_max"):
            v = getattr(self, name)
            if v is not None and int(v) < 1:
                raise InvalidParameter(f"{name} must be a positive integer")
        if (
            self.scale_min is not None
            and self.scale_max is not None
            and int(self.scale_min) >= int(self.scale_max)
        ):
            raise InvalidParameter("scale_min must be smaller than scale_max")
        validate_bandwidth(self.bandwidth)
        # what the estimators would refuse mid-run fails the config instead:
        # the frequency band, and the scale grid at every length
        try:
            if self.n_freqs is not None:
                resolve_n_freqs(self.n_freqs, min(self.lengths))
            if _FLUCTUATION_TOKENS & set(self.estimators):
                for length in self.lengths:
                    _detrend_config(self, length)
        except (InvalidInput, ValueError) as exc:
            raise InvalidParameter(str(exc)) from None

    @property
    def measurements(self) -> tuple[str, ...]:
        return tuple(m for tok in self.estimators for m in ESTIMATORS[tok])

    def echo(self) -> dict:
        """Every field by name in JSON form, the spec as its ``to_dict``."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        return {
            **record,
            "spec": self.spec.to_dict(),
            "lengths": list(self.lengths),
            "estimators": list(self.estimators),
        }


@dataclass(frozen=True)
class CellStats:
    """Moments of one measurement at one length across replications."""

    measurement: str
    length: int
    target: float | None
    n_completed: int
    n_failed: int
    degraded: bool
    mean: float | None
    std: float | None
    bias: float | None
    q05: float | None
    q50: float | None
    q95: float | None
    samples: tuple

    def to_dict(self) -> dict:
        return {**asdict(self), "samples": list(self.samples)}


@dataclass(frozen=True)
class ExperimentResult:
    """Per-measurement, per-length statistics with aligned raw samples."""

    label: str
    lengths: tuple[int, ...]
    replications: int
    targets: dict
    cells: tuple[CellStats, ...]
    degraded: bool
    config_echo: dict

    def cell(self, measurement: str, length: int) -> CellStats:
        for c in self.cells:
            if c.measurement == measurement and c.length == length:
                return c
        raise KeyError((measurement, length))

    def samples(self, measurement: str, length: int) -> tuple:
        return self.cell(measurement, length).samples

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lengths": list(self.lengths),
            "replications": self.replications,
            "targets": self.targets,
            "degraded": self.degraded,
            "config": self.config_echo,
            "cells": [c.to_dict() for c in self.cells],
        }


def _gated_hxy(jf: JointFluctuations, length: int) -> float:
    """H_xy behind the sign-stability and null-band gates described above."""
    fit = jf.hxy()
    scales = jf.scales
    changes = fit.diagnostics["sign_changes"]
    if changes > len(scales) * SIGN_STABILITY_FRACTION:
        raise EstimationFailed(
            f"cross-fluctuation sign unstable: {changes} alternations "
            f"over {len(scales)} scales"
        )
    rho = np.abs(jf.rho())
    informative = scales <= length // 32
    if np.count_nonzero(informative) >= 3:
        band = NULL_BAND_FACTOR * np.sqrt(scales[informative] / (2.0 * length))
        inside = rho[informative] < band
        if inside.mean() > NULL_CONSISTENT_FRACTION:
            raise EstimationFailed(
                "cross-correlation magnitude indistinguishable from "
                f"zero on {int(inside.sum())} of "
                f"{int(inside.size)} informative scales"
            )
    return fit.exponent


def _detrend_config(cfg: ExperimentConfig, length: int) -> DetrendConfig:
    """The scale grid and order the detrended estimators use at ``length``."""
    grid = default_scale_grid(
        length, cfg.poly_order, cfg.n_scales, cfg.scale_min, cfg.scale_max
    )
    return DetrendConfig(grid, cfg.poly_order)


def _evaluate_pair(x, y, cfg: ExperimentConfig, length: int) -> tuple[dict, dict]:
    """All requested measurements for one generated pair."""
    fluct = None
    if _FLUCTUATION_TOKENS & set(cfg.estimators):
        grid_cfg = _detrend_config(cfg, length)
        # one pass serves every detrended measurement; a pass that raises
        # fails each of them with its reason
        fluct = functools.cache(lambda: JointFluctuations(x, y, grid_cfg))
    readers = {
        "dfa_hx": lambda: fluct().hurst_x().exponent,
        "dfa_hy": lambda: fluct().hurst_y().exponent,
        "dcca_hxy": lambda: _gated_hxy(fluct(), length),
        "rho_median": lambda: np.median(fluct().rho()),
        "beta_median": lambda: np.median(fluct().beta()),
        "h_rho_time": lambda: rho_decay(fluct()).exponent,
        "logperiodogram_hx": lambda: estimate_h_logperiodogram(x, cfg.n_freqs).exponent,
        "logperiodogram_hy": lambda: estimate_h_logperiodogram(y, cfg.n_freqs).exponent,
        "logcross_hxy": lambda: estimate_hxy_logcross(
            x, y, cfg.n_freqs, cfg.bandwidth
        ).exponent,
        "h_rho_freq": lambda: h_rho_frequency(x, y, cfg.n_freqs, cfg.bandwidth).exponent,
    }
    values: dict = {}
    failures: dict = {}
    for name in cfg.measurements:
        try:
            values[name] = float(readers[name]())
        except PlccError as exc:
            failures[name] = str(exc)
    return values, failures


def _replicate(cfg: ExperimentConfig, spec: McArfimaSpec, length: int, index: int) -> dict:
    """One replication from ``spec``, ``cfg.spec`` resolved at ``length``."""
    seed = split_seed(cfg.master_seed, index)
    pair = generate_mc_arfima(spec, length, seed)
    values, failures = _evaluate_pair(pair.x, pair.y, cfg, length)
    return {"values": values, "failures": failures}


def _cell_from_samples(measurement, length, target, samples) -> CellStats:
    done = np.array([v for v in samples if v is not None], dtype=float)
    n_completed = int(done.size)
    n_failed = len(samples) - n_completed
    degraded = n_failed > 0.2 * len(samples)
    if n_completed == 0:
        return CellStats(
            measurement, length, target, 0, n_failed, True,
            None, None, None, None, None, None, tuple(samples),
        )
    mean = float(done.mean())
    std = float(done.std(ddof=1)) if n_completed > 1 else 0.0
    bias = mean - target if target is not None else None
    q05, q50, q95 = (float(q) for q in np.quantile(done, [0.05, 0.5, 0.95]))
    return CellStats(
        measurement, length, target, n_completed, n_failed, degraded,
        mean, std, bias, q05, q50, q95, tuple(samples),
    )


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run all replications of one experiment and aggregate per cell.

    ``jobs`` only controls worker-thread count; the per-replication seeds and
    the aggregation order are fixed, so the result does not depend on it.
    """
    if jobs < 1:
        raise InvalidParameter("jobs must be at least 1")
    targets = theoretical_exponents(cfg.spec)
    reps = cfg.replications
    by_cell: dict = {}
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for length in cfg.lengths:
            # one resolved spec per length: its memo transforms each weight
            # sequence once for all replications, and is dropped with it
            replicate = functools.partial(_replicate, cfg, cfg.spec.resolved(length), length)
            outcomes = (pool.map if pool else map)(replicate, range(reps))
            by_cell.update(((length, r), out) for r, out in enumerate(outcomes))

    cells = []
    for measurement in cfg.measurements:
        target = targets.get(_TARGET_KEYS.get(measurement, ""), None)
        for length in cfg.lengths:
            samples = [
                by_cell[(length, r)]["values"].get(measurement) for r in range(reps)
            ]
            cells.append(_cell_from_samples(measurement, length, target, samples))
    return ExperimentResult(
        label=cfg.label,
        lengths=cfg.lengths,
        replications=reps,
        targets=targets,
        cells=tuple(cells),
        degraded=any(c.degraded for c in cells),
        config_echo=cfg.echo(),
    )


def feasibility_sweep(
    configs: Iterable[ExperimentConfig], tolerance: float = 0.05, jobs: int = 1
) -> dict:
    """Cross-exponent excess over the average exponent, per configuration.

    For every config (which must request both ``dfa`` and ``dcca``) the gap
    ``mean H_xy - mean (H_x + H_y) / 2`` is computed from replication-aligned
    samples together with its standard error. A positive gap beyond
    ``tolerance`` would contradict the coherency bound, so the summary
    reports whether all configs stay within it.

    Configs whose cross-exponent fits fail (sign-unstable cross fluctuations,
    the expected outcome for independent pairs) yield rows with ``gap`` None
    and land in the summary's ``unmeasured`` list; the bound is asserted over
    the measured rows only, since a pair without a readable cross power law
    has no exponent to bound.
    """
    if not tolerance > 0:
        raise InvalidParameter("tolerance must be positive")
    rows = []
    results = []
    for cfg in configs:
        if not {"dfa", "dcca"} <= set(cfg.estimators):
            raise InvalidParameter(
                f"config {cfg.label!r} must include the dfa and dcca estimators"
            )
        res = run_experiment(cfg, jobs=jobs)
        results.append(res)
        for length in cfg.lengths:
            hx = res.samples("dfa_hx", length)
            hy = res.samples("dfa_hy", length)
            hxy = res.samples("dcca_hxy", length)
            gaps = np.array(
                [
                    c - (a + b) / 2.0
                    for a, b, c in zip(hx, hy, hxy)
                    if a is not None and b is not None and c is not None
                ]
            )
            n_failed_hxy = sum(1 for c in hxy if c is None)
            row = {
                "label": cfg.label,
                "length": length,
                "n": int(gaps.size),
                "n_failed_hxy": n_failed_hxy,
                "gap": None,
                "gap_se": None,
                "within_bound": None,
            }
            # A gap needs at least two complete replications to carry a
            # standard error; fewer means the cross exponent was effectively
            # unmeasurable for this config.
            if gaps.size >= 2:
                row["gap"] = float(gaps.mean())
                row["gap_se"] = float(gaps.std(ddof=1) / np.sqrt(gaps.size))
                row["within_bound"] = bool(row["gap"] <= tolerance)
            rows.append(row)
    measured = [r for r in rows if r["gap"] is not None]
    return {
        "tolerance": tolerance,
        "rows": rows,
        "max_gap": max(r["gap"] for r in measured) if measured else None,
        "all_within_bound": bool(measured)
        and all(r["within_bound"] for r in measured),
        "unmeasured": [(r["label"], r["length"]) for r in rows if r["gap"] is None],
        "results": results,
    }


def _sigma(off_diagonal: dict | None = None) -> np.ndarray:
    s = np.eye(4)
    for (i, j), v in (off_diagonal or {}).items():
        s[i - 1, j - 1] = v
        s[j - 1, i - 1] = v
    return s


def standard_regimes(
    length: int = 8192,
    replications: int = 100,
    master_seed: int = 1202,
    generator: int = McArfimaSpec.generator,
) -> list[ExperimentConfig]:
    """Five canonical pair configurations spanning the coherency regimes.

    "standard": fully cross-correlated innovations, cross exponent at the
    average. "anti-cointegration": only the low-memory components correlate,
    pushing the cross exponent below the average; its scale grid is capped
    because at large scales the sample cross fluctuations of the independent
    high-memory components bury the decaying cross signal. "independent":
    no cross-correlation at all, so the cross fit is expected to fail the
    sign-stability gate and show up as unmeasured. "heavy-tail": a correlated
    pair under Student-t(3) innovations. "short-memory": correlated white
    noise. Every spec uses the given generator version.
    """
    _require_int("length", length)
    spec = functools.partial(McArfimaSpec, generator=generator)
    common = dict(
        lengths=(length,), replications=replications,
        estimators=("dfa", "dcca"), master_seed=master_seed,
    )
    full = _sigma({(i, j): 0.5 for i in range(1, 5) for j in range(i + 1, 5)})
    regimes = [
        ExperimentConfig(
            spec=spec(1, 1, 1, 1, 0.3, 0.1, 0.4, 0.2, full),
            label="standard", **common,
        ),
        ExperimentConfig(
            spec=spec(1, 1, 1, 1, 0.1, 0.4, 0.1, 0.4, _sigma({(1, 3): 0.9})),
            label="anti-cointegration", scale_max=length // 64, **common,
        ),
        ExperimentConfig(
            spec=spec(1, 0, 1, 0, 0.4, 0.0, 0.2, 0.0, _sigma()),
            label="independent", **common,
        ),
        ExperimentConfig(
            spec=spec(
                1, 0, 1, 0, 0.4, 0.0, 0.4, 0.0, _sigma({(1, 3): 0.5}),
                innovation_dist="student-t", dof=3.0,
            ),
            label="heavy-tail", **common,
        ),
        ExperimentConfig(
            spec=spec(1, 1, 1, 1, 0.0, 0.0, 0.0, 0.0, full),
            label="short-memory", **common,
        ),
    ]
    return regimes
