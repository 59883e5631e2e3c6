"""Seeded Monte Carlo harness for the estimators in this package.

Every replication derives its seed deterministically from the master seed
and the replication index, so results are identical across runs and across
degrees of parallelism; aggregation always walks replications in index
order. A measurement that fails in one replication leaves that sample
missing (None) rather than aborting the experiment.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from .arfima import McArfimaSpec, generate_mc_arfima
from .core import require_int, require_positive, scaled_back, unit_scaled
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

# Each measurement once: its estimator token, the ``theoretical_exponents``
# key it targets (None: no target), whether it reads the detrended pass, and
# its reader (the pair's pass, x, y, the config and the length).
_MEASUREMENTS = {
    "dfa_hx": ("dfa", "h_x", True, lambda jf, x, y, cfg, n: jf.hurst_x().exponent),
    "dfa_hy": ("dfa", "h_y", True, lambda jf, x, y, cfg, n: jf.hurst_y().exponent),
    "dcca_hxy": ("dcca", "h_xy", True, lambda jf, x, y, cfg, n: _gated_hxy(jf, n)),
    "logperiodogram_hx": ("logperiodogram", "h_x", False, lambda jf, x, y, cfg, n:
                          estimate_h_logperiodogram(x, cfg.n_freqs).exponent),
    "logperiodogram_hy": ("logperiodogram", "h_y", False, lambda jf, x, y, cfg, n:
                          estimate_h_logperiodogram(y, cfg.n_freqs).exponent),
    "logcross_hxy": ("logcross", "h_xy", False, lambda jf, x, y, cfg, n:
                     estimate_hxy_logcross(x, y, cfg.n_freqs, cfg.bandwidth).exponent),
    "rho_median": ("rho", None, True, lambda jf, x, y, cfg, n: np.median(jf.rho())),
    "beta_median": ("beta", None, True, lambda jf, x, y, cfg, n: np.median(jf.beta())),
    "h_rho_time": ("h_rho_time", "h_rho", True, lambda jf, x, y, cfg, n: rho_decay(jf).exponent),
    "h_rho_freq": ("h_rho_freq", "h_rho", False, lambda jf, x, y, cfg, n:
                   h_rho_frequency(x, y, cfg.n_freqs, cfg.bandwidth).exponent),
}

# measurement names produced by each estimator token
ESTIMATORS = {
    tok: tuple(name for name, row in _MEASUREMENTS.items() if row[0] == tok)
    for tok in dict.fromkeys(row[0] for row in _MEASUREMENTS.values())
}

_FLUCTUATION_TOKENS = frozenset(row[0] for row in _MEASUREMENTS.values() if row[2])

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


def split_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed for one replication.

    Uses the seed-sequence spawn mechanism, so child streams neither collide
    nor overlap for distinct indices under one master seed.
    """
    ss = np.random.SeedSequence(
        entropy=require_int("master_seed", master_seed, 0),
        spawn_key=(require_int("index", index, 0),),
    )
    return int(ss.generate_state(1, np.uint64)[0])


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
        for name, least in (("replications", None), ("master_seed", 0), ("n_scales", None)):
            require_int(name, getattr(self, name), least)
        for name, least in (("n_freqs", None), ("scale_min", 1), ("scale_max", 1)):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name), least)
        for name in ("lengths", "estimators"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)):
                raise InvalidParameter(f"{name} must be a list or tuple, got {v!r}")
        for length in self.lengths:
            require_int("every length", length)
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
        # a repeat would run twice and write cells that share one key
        for name in ("lengths", "estimators"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise InvalidParameter(f"{name} must not repeat an entry, got {list(entries)}")
        if None not in (self.scale_min, self.scale_max) and self.scale_min >= self.scale_max:
            raise InvalidParameter("scale_min must be smaller than scale_max")
        validate_bandwidth(self.bandwidth)
        # what the estimators would refuse mid-run fails the config instead:
        # the frequency band, and the scale grid at every length
        try:
            if self.n_freqs is not None:
                resolve_n_freqs(self.n_freqs, min(self.lengths))
            for length in self.lengths:
                _detrend_config(self, length)
        except InvalidInput as exc:
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


def _detrend_config(cfg: ExperimentConfig, length: int) -> DetrendConfig | None:
    """The scale grid and order the detrended estimators use at ``length``;
    None when no detrended estimator is requested."""
    if not _FLUCTUATION_TOKENS & set(cfg.estimators):
        return None
    grid = default_scale_grid(length, cfg.poly_order, cfg.n_scales, cfg.scale_min, cfg.scale_max)
    return DetrendConfig(grid, cfg.poly_order)


def _evaluate_pair(x, y, cfg: ExperimentConfig, detrend: DetrendConfig | None, length: int) -> dict:
    """The requested measurements of one generated pair that succeeded, by name.

    ``detrend`` is what :func:`_detrend_config` returns at ``length``; one
    pass serves every detrended measurement.
    """
    jf = None if detrend is None else JointFluctuations(x, y, detrend)
    values: dict = {}
    for name in cfg.measurements:
        with suppress(PlccError):
            values[name] = float(_MEASUREMENTS[name][3](jf, x, y, cfg, length))
    return values


def _cell_from_samples(measurement, length, target, samples) -> CellStats:
    done = np.array([v for v in samples if v is not None], dtype=float)
    n_failed = len(samples) - done.size
    stats = [None] * 6  # mean, std, bias and the 5/50/95 % quantiles
    if done.size:
        # read at unit scale, so that a sum or a square of samples as large
        # as beta's cannot overflow; the power of two leaves every digit
        unit, k = unit_scaled(done)
        mean, std, *quantiles = scaled_back(
            np.array([
                unit.mean(),
                unit.std(ddof=1) if done.size > 1 else 0.0,
                *np.quantile(unit, [0.05, 0.5, 0.95]),
            ]),
            k, f"{measurement} statistics at length {length}",
        ).tolist()
        stats = [mean, std, mean - target if target is not None else None, *quantiles]
    return CellStats(
        measurement, length, target, done.size, n_failed, n_failed > 0.2 * len(samples),
        *stats, tuple(samples),
    )


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run all replications of one experiment and aggregate per cell.

    ``jobs`` only controls worker-thread count; the per-replication seeds and
    the aggregation order are fixed, so the result does not depend on it.
    """
    if require_int("jobs", jobs) < 1:
        raise InvalidParameter("jobs must be at least 1")
    targets = theoretical_exponents(cfg.spec)
    values = {}  # per length, the values of each replication in index order
    pool = nullcontext()
    if jobs > 1:
        # imported here: generation and the analyses never need a pool
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=jobs)
    with pool:
        for length in cfg.lengths:
            # one resolved spec per length: its memo transforms each weight
            # sequence once for all replications, and is dropped with it;
            # likewise one scale grid per length
            spec = cfg.spec.resolved(length)
            detrend = _detrend_config(cfg, length)

            def replicate(index):
                x, y = generate_mc_arfima(spec, length, split_seed(cfg.master_seed, index))
                return _evaluate_pair(x, y, cfg, detrend, length)

            # list() finishes every replication before the loop rebinds
            # what ``replicate`` reads
            outcomes = (pool.map if jobs > 1 else map)(replicate, range(cfg.replications))
            values[length] = list(outcomes)

    cells = tuple(
        _cell_from_samples(
            measurement, length, targets.get(_MEASUREMENTS[measurement][1]),
            [v.get(measurement) for v in values[length]],
        )
        for measurement in cfg.measurements
        for length in cfg.lengths
    )
    return ExperimentResult(
        label=cfg.label,
        lengths=cfg.lengths,
        replications=cfg.replications,
        targets=targets,
        cells=cells,
        degraded=any(c.degraded for c in cells),
        config_echo=cfg.echo(),
    )


def feasibility_sweep(results: Iterable[ExperimentResult], tolerance: float = 0.05) -> dict:
    """Cross-exponent excess over the average exponent, per finished experiment.

    For every result (whose experiment must request both ``dfa`` and
    ``dcca``) the gap ``mean H_xy - mean (H_x + H_y) / 2`` is computed from
    replication-aligned samples together with its standard error. A positive
    gap beyond ``tolerance`` would contradict the coherency bound, so the
    summary reports whether all experiments stay within it.

    Experiments whose cross-exponent fits fail (sign-unstable cross
    fluctuations, the expected outcome for independent pairs) yield rows
    with ``gap`` None and land in the summary's ``unmeasured`` list; the
    bound is asserted over the measured rows only, since a pair without a
    readable cross power law has no exponent to bound.
    """
    require_positive("tolerance", tolerance)
    rows = []
    for res in results:
        if not {"dfa", "dcca"} <= set(res.config_echo["estimators"]):
            raise InvalidParameter(
                f"experiment {res.label!r} must include the dfa and dcca estimators"
            )
        for length in res.lengths:
            hx, hy, hxy = (res.samples(m, length) for m in ("dfa_hx", "dfa_hy", "dcca_hxy"))
            gaps = np.array(
                [c - (a + b) / 2.0 for a, b, c in zip(hx, hy, hxy) if None not in (a, b, c)]
            )
            row = {
                "label": res.label,
                "length": length,
                "n": int(gaps.size),
                "n_failed_hxy": hxy.count(None),
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
    require_int("length", length)
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
