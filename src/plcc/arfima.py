"""Fractionally integrated noise and mixed-correlation pair generation.

A single series is a causal moving average of Gaussian or standardized
Student-t innovations with hyperbolically decaying weights controlled by a
memory parameter ``d``. A pair mixes two such components per side, with the
four innovation streams drawing from a shared contemporaneous covariance
matrix; that structure gives independent control over the memory of each
series and of their cross-correlation.
"""

from __future__ import annotations

import dataclasses
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, TruncationWarning

__all__ = [
    "GAUSSIAN",
    "STUDENT_T",
    "McArfimaSpec",
    "BivariateSeries",
    "arfima_weights",
    "correlated_innovations",
    "filter_mc_arfima",
    "generate_mc_arfima",
    "generate_arfima",
]

GAUSSIAN = "gaussian"
STUDENT_T = "student-t"
_DISTRIBUTIONS = (GAUSSIAN, STUDENT_T)


# =========================================================================
# Moving-average weights
# =========================================================================


def arfima_weights(d: float, n_terms: int) -> np.ndarray:
    """Weights ``a_0 .. a_{n-1}`` of the fractional-integration moving average.

    Returned as a read-only array. Built by the stable recursion ``a_0 = 1``, ``a_n = a_{n-1} (n - 1 + d) / n``,
    which avoids gamma-function overflow for large ``n``. For ``d = 0`` every
    weight beyond ``a_0`` vanishes; for ``d`` in (0, 0.5) the weights are
    positive and decay hyperbolically.
    """
    if not -0.5 < d < 0.5:
        raise InvalidParameter(f"d = {d}: memory parameter must lie in (-0.5, 0.5)")
    n = int(n_terms)
    if n != n_terms or n < 1:
        raise InvalidParameter("n_terms must be a positive integer")
    w = np.empty(n)
    w[0] = 1.0
    if n > 1:
        k = np.arange(1.0, n)
        w[1:] = np.cumprod((k - 1.0 + d) / k)
    w.flags.writeable = False
    return w


# =========================================================================
# Innovations
# =========================================================================


def _validate_sigma(sigma) -> np.ndarray:
    s = np.asarray(sigma, dtype=float)
    if s.shape != (4, 4):
        raise InvalidParameter(f"sigma must be 4x4, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise InvalidParameter("sigma contains NaN or infinite entries")
    scale = max(1.0, float(np.abs(s).max()))
    if float(np.abs(s - s.T).max()) > 1e-12 * scale:
        raise InvalidParameter("sigma must be symmetric")
    if np.any(np.diag(s) <= 0):
        raise InvalidParameter("sigma diagonal entries must be strictly positive")
    if float(np.linalg.eigvalsh(s).min()) < -1e-10:
        raise InvalidParameter("sigma must be positive semi-definite")
    return s


def _validate_dist(dist: str, dof) -> None:
    if dist not in _DISTRIBUTIONS:
        raise InvalidParameter(f"innovation_dist must be one of {_DISTRIBUTIONS}, got {dist!r}")
    if dist == STUDENT_T:
        if dof is None or not dof > 2:
            raise InvalidParameter("Student-t innovations need dof > 2 for a finite variance")


def is_integer(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_number(name: str, value) -> None:
    """Refuse a value that is not a real number, such as a string or a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameter(f"{name} must be a number, got {value!r}")


def _validate_seed(seed) -> int:
    s = int(seed)
    if s != seed or s < 0:
        raise InvalidParameter("seed must be a non-negative integer")
    return s


def _cutoffs(length: int, truncation, burn_in) -> tuple[int, int]:
    """``(truncation, burn_in)`` with the defaults ``burn_in = length`` and
    ``truncation = length + burn_in``, which keep the full weight memory
    available for every retained sample."""
    burn = int(burn_in) if burn_in is not None else int(length)
    if burn < 0:
        raise InvalidParameter("burn_in must be non-negative")
    trunc = int(truncation) if truncation is not None else int(length) + burn
    if trunc < 1:
        raise InvalidParameter("truncation must be a positive integer")
    return trunc, burn


def _resolve_run(length, seed, truncation, burn_in) -> tuple[int, int, int, int]:
    """Checked ``(length, seed, truncation, burn_in)`` of one generator call.

    A truncation below the length is accepted but flagged with a
    :class:`TruncationWarning`, since long-lag correlations are then biased.
    """
    n = int(length)
    if n != length or n < 64:
        raise InvalidParameter("length must be an integer >= 64")
    base = _validate_seed(seed)
    trunc, burn = _cutoffs(n, truncation, burn_in)
    if trunc < n:
        warnings.warn(
            f"truncation {trunc} is below the series length {n}",
            TruncationWarning,
            stacklevel=3,
        )
    return n, base, trunc, burn


def _sigma_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T = sigma; eigenvalue clipping for singular input."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(sigma)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _unit_stream(rng: np.random.Generator, dist: str, dof, n: int) -> np.ndarray:
    z = rng.standard_normal(n)
    if dist == GAUSSIAN:
        return z
    # Scale-mixture construction of Student-t: z * sqrt(dof / w) with a
    # chi-square mixing variable, standardized to unit variance. Drawing the
    # normal part first means a Gaussian run and a Student-t run under the
    # same seed share the normal path, so paired comparisons across the two
    # distributions isolate the tail effect (common random numbers).
    w = rng.chisquare(dof, n)
    return z * np.sqrt((dof - 2.0) / w)


def correlated_innovations(sigma, dist: str, length: int, seed, dof=None) -> np.ndarray:
    """Four aligned innovation streams with contemporaneous covariance ``sigma``.

    Stream ``i`` draws from its own generator seeded with ``seed + i``, so the
    streams are reproducible independently of generation order. The raw unit-
    variance streams are then mixed with a factor of ``sigma``; Student-t
    streams are rescaled to unit variance first so ``sigma`` is the actual
    covariance, not just a shape parameter.

    Returns an array of shape ``(4, length)``.
    """
    s = _validate_sigma(sigma)
    _validate_dist(dist, dof)
    base = _validate_seed(seed)
    n = int(length)
    if n != length or n < 1:
        raise InvalidParameter("length must be a positive integer")
    raw = np.empty((4, n))
    for i in range(4):
        raw[i] = _unit_stream(np.random.default_rng(base + i), dist, dof, n)
    return _sigma_factor(s) @ raw


# =========================================================================
# Pair specification and generation
# =========================================================================


@dataclass(frozen=True, eq=False)
class McArfimaSpec:
    """Parameters of a correlated pair of two-component long-memory series.

    ``x`` mixes components with memory ``d1``/``d2`` and weights
    ``alpha``/``beta``; ``y`` mixes ``d3``/``d4`` with ``gamma``/``delta``.
    ``sigma`` is the 4x4 contemporaneous covariance of the innovation streams
    feeding the four components, in that order.

    ``truncation`` (moving-average cutoff: highest retained weight index) and
    ``burn_in`` may be left as None to be resolved against the generated
    length: ``burn_in = length`` and ``truncation = length + burn_in``.

    ``generator`` is the version of the filtering arithmetic (see
    :func:`_fft_convolve_tail`). New specs take the current version, 2.
    Version 1 is kept so that records written before version 2 existed
    rebuild their outputs bit for bit: :meth:`to_dict` leaves the key out
    for version 1, and :meth:`from_dict` reads a missing key as 1.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    d1: float
    d2: float
    d3: float
    d4: float
    sigma: np.ndarray
    innovation_dist: str = GAUSSIAN
    dof: float | None = None
    truncation: int | None = None
    burn_in: int | None = None
    # the current version; other modules read it as McArfimaSpec.generator
    generator: int = 2

    def __post_init__(self):
        if not is_integer(self.generator) or self.generator not in (1, 2):
            raise InvalidParameter(f"generator must be 1 or 2, got {self.generator!r}")
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            _require_number(name, v)
            if not np.isfinite(v):
                raise InvalidParameter(f"{name} = {v}: weights must be finite")
        for name in ("d1", "d2", "d3", "d4"):
            v = getattr(self, name)
            _require_number(name, v)
            if not -0.5 < v < 0.5:
                raise InvalidParameter(f"{name} = {v}: memory parameters must lie in (-0.5, 0.5)")
        for name in ("dof", "truncation", "burn_in"):
            if getattr(self, name) is not None:
                _require_number(name, getattr(self, name))
        s = _validate_sigma(self.sigma)
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "sigma", s)
        _validate_dist(self.innovation_dist, self.dof)
        if self.truncation is not None and self.truncation < 1:
            raise InvalidParameter("truncation must be a positive integer")
        if self.burn_in is not None and self.burn_in < 0:
            raise InvalidParameter("burn_in must be non-negative")

    def resolved(self, length: int) -> "McArfimaSpec":
        """Concrete copy with truncation and burn-in defaults filled in."""
        trunc, burn = _cutoffs(length, self.truncation, self.burn_in)
        return dataclasses.replace(self, truncation=trunc, burn_in=burn)

    def component_weights(self) -> tuple[tuple[float, float], ...]:
        """((weight, d), ...) for the four components in stream order."""
        return (
            (self.alpha, self.d1),
            (self.beta, self.d2),
            (self.gamma, self.d3),
            (self.delta, self.d4),
        )

    def to_dict(self) -> dict:
        """Every field by name, with ``sigma`` as nested lists of floats.

        ``generator`` is left out when it is 1, so a version-1 spec has the
        record it had before the field existed.
        """
        record = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.generator == 1:
            del record["generator"]
        return {**record, "sigma": self.sigma.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "McArfimaSpec":
        """Inverse of :meth:`to_dict`; a record without ``generator`` is version 1."""
        try:
            sigma = np.asarray(d["sigma"], dtype=float)
        except (TypeError, ValueError):
            raise InvalidParameter(
                f"sigma must be a 4x4 array of numbers, got {d['sigma']!r}"
            ) from None
        return cls(**{"generator": 1, **d, "sigma": sigma})


@dataclass(frozen=True, eq=False)
class BivariateSeries:
    """A generated pair along with the spec and seed that produced it.

    ``x`` and ``y`` are read-only float arrays.
    """

    x: np.ndarray
    y: np.ndarray
    spec_echo: McArfimaSpec
    seed: int


def _transform_length(n_stream: int, n_weights: int, generator: int) -> int:
    """FFT size of :func:`_fft_convolve_tail` under a generator version.

    Version 1 takes the next power of two above the linear convolution,
    ``n_stream + n_weights - 1``. Version 2 takes the next power of two at
    or above the stream; it is never longer than the version-1 size, and
    half of it at the default cutoffs.
    """
    if generator == 1:
        return 1 << (n_stream + n_weights - 2).bit_length()
    return 1 << (n_stream - 1).bit_length()


def _fft_convolve_tail(streams, weights: np.ndarray, n_keep: int, generator: int):
    """Fully-overlapping part of ``stream * weights``, first ``n_keep`` samples,
    for each of ``streams`` in turn.

    Equivalent to ``np.convolve(stream, weights)[len(weights)-1:][:n_keep]``
    but FFT-based; direct convolution is quadratic and unusable at the
    default truncation lengths. The streams share one length, so the weight
    spectrum is taken once. Each result is a compact copy, and every
    transform-sized array is released before the next transform, so the
    peak memory stays that of one convolution.

    A transform of size ``N`` returns the linear convolution wrapped modulo
    ``N``. For ``W`` weights and a stream of length ``L >= W`` the kept
    indices ``k`` lie in ``[W - 1, L)``, as ``n_keep <= L - W + 1``. With
    ``N >= L`` their aliases ``k + N >= L + W - 1`` lie past the last index
    of the linear convolution, ``L + W - 2``, so any ``N >= L`` gives the
    exact tail with no circular wrap. Version 1 pads to the whole linear
    length instead; the two versions differ only in rounding, by a few
    units in the last place.
    """
    n_fft = _transform_length(streams[0].size, weights.size, generator)
    spectrum = np.fft.rfft(weights, n_fft)
    start = weights.size - 1
    for k, stream in enumerate(streams, start=1):
        prod = np.fft.rfft(stream, n_fft)
        prod *= spectrum
        if k == len(streams):
            del spectrum
        full = np.fft.irfft(prod, n_fft)
        del prod
        yield full[start : start + n_keep].copy()
        del full


def filter_mc_arfima(spec: McArfimaSpec, innovations: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply the moving-average filters of a resolved spec to given streams.

    ``innovations`` must have shape (4, truncation + burn_in + length). This
    is the deterministic core of :func:`generate_mc_arfima`, exposed so the
    filtering can be checked independently of the stream generation (for
    example under a consistent swap of the two sides).
    """
    if spec.truncation is None or spec.burn_in is None:
        raise InvalidParameter("spec must be resolved before filtering")
    n_keep = spec.burn_in + length
    needed = spec.truncation + n_keep
    if innovations.shape != (4, needed):
        raise InvalidParameter(
            f"innovations must have shape (4, {needed}), got {innovations.shape}"
        )
    components = spec.component_weights()
    by_d: dict[float, list[int]] = {}
    for i, (weight, d) in enumerate(components):
        if weight != 0.0:
            by_d.setdefault(d, []).append(i)
    parts = [np.zeros(length)] * 4
    for d, active in by_d.items():
        weights = arfima_weights(d, spec.truncation + 1)
        streams = [innovations[i] for i in active]
        tails = _fft_convolve_tail(streams, weights, n_keep, spec.generator)
        for i, tail in zip(active, tails):
            parts[i] = components[i][0] * tail[spec.burn_in :]
    return parts[0] + parts[1], parts[2] + parts[3]


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def generate_mc_arfima(spec: McArfimaSpec, length: int, seed) -> BivariateSeries:
    """Generate a correlated long-memory pair of the given length.

    Deterministic: the same (spec, length, seed) always returns bit-identical
    series. A truncation below ``length`` is accepted but flagged with a
    :class:`TruncationWarning` since long-lag correlations are then biased.
    """
    n, base, trunc, burn = _resolve_run(length, seed, spec.truncation, spec.burn_in)
    rspec = dataclasses.replace(spec, truncation=trunc, burn_in=burn)
    eps = correlated_innovations(rspec.sigma, rspec.innovation_dist, trunc + burn + n, base, rspec.dof)
    x, y = filter_mc_arfima(rspec, eps, n)
    return BivariateSeries(x=_read_only(x), y=_read_only(y), spec_echo=rspec, seed=base)


def generate_arfima(
    d: float,
    length: int,
    seed,
    dist: str = GAUSSIAN,
    dof=None,
    truncation: int | None = None,
    burn_in: int | None = None,
) -> np.ndarray:
    """Generate a single fractionally integrated noise series.

    Returned as a read-only array. Uses the same stream derivation,
    truncation and burn-in conventions as :func:`generate_mc_arfima`, so it
    reproduces the ``x`` side of a pair whose spec degenerates to one active
    component with unit weight and identity covariance. It filters with the
    current generator version, the one a new spec takes.
    """
    _validate_dist(dist, dof)
    if not -0.5 < d < 0.5:
        raise InvalidParameter(f"d = {d}: memory parameter must lie in (-0.5, 0.5)")
    n, base, trunc, burn = _resolve_run(length, seed, truncation, burn_in)
    stream = _unit_stream(np.random.default_rng(base + 0), dist, dof, trunc + burn + n)
    weights = arfima_weights(d, trunc + 1)
    (tail,) = _fft_convolve_tail([stream], weights, burn + n, McArfimaSpec.generator)
    # a compact copy: a view would keep the burn-in alive
    return _read_only(tail[burn:].copy())
