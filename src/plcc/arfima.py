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
import functools
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .core import is_integer, require_int, require_number
from .errors import InvalidParameter, TruncationWarning

__all__ = [
    "GAUSSIAN",
    "STUDENT_T",
    "McArfimaSpec",
    "arfima_weights",
    "correlated_innovations",
    "filter_mc_arfima",
    "generate_mc_arfima",
    "generate_arfima",
]

GAUSSIAN = "gaussian"
STUDENT_T = "student-t"
_DISTRIBUTIONS = (GAUSSIAN, STUDENT_T)

# guards the weight-spectrum memo of every McArfimaSpec
_SPECTRA_LOCK = threading.Lock()

# columns of the innovation streams mixed by one matrix product
_MIX_BLOCK = 1 << 14


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
    _check_memory("d", d)
    n = require_int("n_terms", n_terms, 1)
    w = np.empty(n)
    w[0] = 1.0
    if n > 1:
        # the ratios (k - 1 + d) / k, formed in place in one array
        k = np.arange(1.0, n)
        q = k - 1.0
        q += d
        q /= k
        np.cumprod(q, out=w[1:])
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
    if dof is not None:
        require_number("dof", dof)
    if dist == STUDENT_T:
        if dof is None or not dof > 2:
            raise InvalidParameter("Student-t innovations need dof > 2 for a finite variance")


def _check_memory(name: str, d) -> None:
    """Refuse a memory parameter that is not a number in (-0.5, 0.5)."""
    require_number(name, d)
    if not -0.5 < d < 0.5:
        raise InvalidParameter(f"{name} = {d}: memory parameter must lie in (-0.5, 0.5)")


def _integer_cutoffs(truncation, burn_in) -> tuple:
    """``(truncation, burn_in)`` as ints, or None where None."""
    return (
        None if truncation is None else require_int("truncation", truncation, 1),
        None if burn_in is None else require_int("burn_in", burn_in, 0),
    )


def _cutoffs(length: int, truncation, burn_in) -> tuple[int, int]:
    """``(truncation, burn_in)`` with the defaults ``burn_in = length`` and
    ``truncation = length + burn_in``, which keep the full weight memory
    available for every retained sample."""
    n = require_int("length", length, 1)
    trunc, burn = _integer_cutoffs(truncation, burn_in)
    burn = n if burn is None else burn
    trunc = n + burn if trunc is None else trunc
    return trunc, burn


def _resolve_run(length, seed, truncation, burn_in) -> tuple[int, int, int, int]:
    """Checked ``(length, seed, truncation, burn_in)`` of one generator call.

    A truncation below the length is accepted but flagged with a
    :class:`TruncationWarning`, since long-lag correlations are then biased.
    """
    n = require_int("length", length, 64)
    base = require_int("seed", seed, 0)
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


def _unit_stream(rng: np.random.Generator, dist: str, dof, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with unit-variance innovations drawn from ``rng``; returns ``out``."""
    rng.standard_normal(out=out)
    if dist == GAUSSIAN:
        return out
    # Scale-mixture construction of Student-t: z * sqrt(dof / w) with a
    # chi-square mixing variable, standardized to unit variance. Drawing the
    # normal part first means a Gaussian run and a Student-t run under the
    # same seed share the normal path, so paired comparisons across the two
    # distributions isolate the tail effect (common random numbers). Each
    # in-place step rounds as z * np.sqrt((dof - 2.0) / w) does.
    w = rng.chisquare(dof, out.size)
    np.divide(dof - 2.0, w, out=w)
    np.sqrt(w, out=w)
    out *= w
    return out


def correlated_innovations(sigma, dist: str, length: int, seed, dof=None) -> np.ndarray:
    """Four aligned innovation streams with contemporaneous covariance ``sigma``.

    Stream ``i`` draws from its own generator seeded with ``seed + i``, so the
    streams are reproducible independently of generation order. The raw unit-
    variance streams are then mixed with a factor of ``sigma``; Student-t
    streams are rescaled to unit variance first so ``sigma`` is the actual
    covariance, not just a shape parameter.

    Returns an array of shape ``(4, length)``. The streams are drawn into it
    and mixed in place, :data:`_MIX_BLOCK` columns per product, so the call
    holds one such array. Each mixed value is a length-4 dot product whose
    rounding does not depend on the block, so the values are those of
    ``factor @ raw``.
    """
    s = _validate_sigma(sigma)
    _validate_dist(dist, dof)
    base = require_int("seed", seed, 0)
    n = require_int("length", length, 1)
    raw = np.empty((4, n))
    for i in range(4):
        _unit_stream(np.random.default_rng(base + i), dist, dof, raw[i])
    factor = _sigma_factor(s)
    for start in range(0, n, _MIX_BLOCK):
        block = raw[:, start : start + _MIX_BLOCK]
        block[...] = factor @ block
    return raw


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
    ``burn_in`` are integers, or None to be resolved against the generated
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
            require_number(name, getattr(self, name))
        for name in ("d1", "d2", "d3", "d4"):
            _check_memory(name, getattr(self, name))
        trunc, burn = _integer_cutoffs(self.truncation, self.burn_in)
        object.__setattr__(self, "truncation", trunc)
        object.__setattr__(self, "burn_in", burn)
        s = _validate_sigma(self.sigma)
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "sigma", s)
        _validate_dist(self.innovation_dist, self.dof)

    def resolved(self, length: int) -> "McArfimaSpec":
        """Concrete copy with truncation and burn-in defaults filled in.

        The copy memoizes the weight spectra :func:`filter_mc_arfima` takes
        from it, so replications that share one resolved spec transform
        each weight sequence once.
        """
        trunc, burn = _cutoffs(length, self.truncation, self.burn_in)
        return dataclasses.replace(self, truncation=trunc, burn_in=burn)

    @functools.cached_property
    def _spectra(self) -> dict:
        """Weight spectra by ``(d, n_weights, n_fft)``. Not a field, so no
        record holds it and no ``dataclasses.replace`` copy shares it."""
        return {}

    def _spectrum(self, d: float, n_weights: int, n_fft: int) -> np.ndarray:
        key = (d, n_weights, n_fft)
        # replications on worker threads share the spec: the first one
        # transforms, the others wait for its result
        with _SPECTRA_LOCK:
            spectrum = self._spectra.get(key)
            if spectrum is None:
                spectrum = self._spectra[key] = _weight_spectrum(*key)
        return spectrum

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


def _weight_spectrum(d: float, n_weights: int, n_fft: int) -> np.ndarray:
    """Read-only ``n_fft``-point ``rfft`` of the first ``n_weights`` weights of ``d``."""
    spectrum = np.fft.rfft(arfima_weights(d, n_weights), n_fft)
    spectrum.flags.writeable = False
    return spectrum


def _transform_buffers(n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    """The complex and real work arrays of one ``n_fft``-point convolution."""
    return np.empty(n_fft // 2 + 1, dtype=complex), np.empty(n_fft)


def _fft_convolve_tail(stream, spectrum, n_weights: int, skip: int, n_keep: int, buffers) -> np.ndarray:
    """Fully-overlapping part of ``stream * weights``: ``n_keep`` samples
    after the first ``skip``, as a view of the real work array.

    ``spectrum`` is the ``rfft`` of the ``n_weights`` weights at the
    transform size :func:`_transform_length` gives (see
    :func:`_weight_spectrum`). Equivalent to
    ``np.convolve(stream, weights)[n_weights-1+skip:][:n_keep]`` but
    FFT-based; direct convolution is quadratic and unusable at the default
    truncation lengths. Both transforms are written into ``buffers``, a
    pair from :func:`_transform_buffers` at that size, so a caller that
    convolves several streams holds one pair, and the view it gets is valid
    until that pair is used again.

    A transform of size ``N`` returns the linear convolution wrapped modulo
    ``N``. For ``W`` weights and a stream of length ``L >= W`` the kept
    indices ``k`` lie in ``[W - 1, L)``, as ``skip + n_keep <= L - W + 1``.
    With ``N >= L`` their aliases ``k + N >= L + W - 1`` lie past the last
    index of the linear convolution, ``L + W - 2``, so any ``N >= L`` gives
    the exact tail with no circular wrap. Version 1 pads to the whole linear
    length instead; the two versions differ only in rounding, by a few units
    in the last place.
    """
    prod, full = buffers
    start = n_weights - 1 + skip
    np.fft.rfft(stream, full.size, out=prod)
    prod *= spectrum
    np.fft.irfft(prod, full.size, out=full)
    return full[start : start + n_keep]


def _live_spectra(spec: McArfimaSpec, n_stream: int) -> list:
    """Weight spectrum of each component of a resolved spec, None where the
    component's weight is zero, at the transform size of ``n_stream``-long
    streams. They come from the spec's memo, which builds them on first use."""
    n_weights = spec.truncation + 1
    n_fft = _transform_length(n_stream, n_weights, spec.generator)
    return [
        None if weight == 0.0 else spec._spectrum(d, n_weights, n_fft)
        for weight, d in spec.component_weights()
    ]


def filter_mc_arfima(spec: McArfimaSpec, innovations: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply the moving-average filters of a resolved spec to given streams.

    ``innovations`` must have shape (4, truncation + burn_in + length); it
    is read, never written. This is the deterministic core of
    :func:`generate_mc_arfima`, exposed so the filtering can be checked
    independently of the stream generation (for example under a consistent
    swap of the two sides). Each nonzero-weight component is filtered on its
    own, through one pair of transform buffers shared by the whole call, and
    its weighted tail is added into its side's series. The weight spectra
    come from the spec's memo, so components that share a ``d``, and a
    second call on the same spec object, transform only the streams.
    """
    if spec.truncation is None or spec.burn_in is None:
        raise InvalidParameter("spec must be resolved before filtering")
    needed = spec.truncation + spec.burn_in + length
    if innovations.shape != (4, needed):
        raise InvalidParameter(
            f"innovations must have shape (4, {needed}), got {innovations.shape}"
        )
    n_weights = spec.truncation + 1
    spectra = _live_spectra(spec, needed)
    buffers = _transform_buffers(_transform_length(needed, n_weights, spec.generator))
    x, y = np.zeros(length), np.zeros(length)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, ((weight, _), spectrum) in enumerate(zip(spec.component_weights(), spectra)):
            side = (x, y)[i // 2]
            if spectrum is None:
                # a side is its two weighted tails summed, a zero-weight
                # one adding zeros
                if i % 2:
                    side += 0.0
                continue
            tail = _fft_convolve_tail(innovations[i], spectrum, n_weights, spec.burn_in, length, buffers)
            if i % 2:
                tail *= weight
                side += tail
            else:
                np.multiply(weight, tail, out=side)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameter("component weights alpha, beta, gamma, delta overflow the pair")
    return x, y


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def generate_mc_arfima(spec: McArfimaSpec, length: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Generate a correlated long-memory pair ``(x, y)`` of the given length.

    Both series are read-only arrays. Deterministic: the same (spec, length,
    seed) always returns bit-identical series. A truncation below ``length``
    is accepted but flagged with a :class:`TruncationWarning` since long-lag
    correlations are then biased.
    """
    n, base, trunc, burn = _resolve_run(length, seed, spec.truncation, spec.burn_in)
    # a resolved spec is used as it is, memo included; otherwise a resolved
    # copy serves this one call and its spectra go with it
    if spec.truncation is None or spec.burn_in is None:
        spec = spec.resolved(n)
    # the weights are built before the streams are drawn, so the two never
    # share the peak; the filter reads the spectra from the memo
    _live_spectra(spec, trunc + burn + n)
    eps = correlated_innovations(spec.sigma, spec.innovation_dist, trunc + burn + n, base, spec.dof)
    x, y = filter_mc_arfima(spec, eps, n)
    return _read_only(x), _read_only(y)


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
    _check_memory("d", d)
    n, base, trunc, burn = _resolve_run(length, seed, truncation, burn_in)
    n_fft = _transform_length(trunc + burn + n, trunc + 1, McArfimaSpec.generator)
    spectrum = _weight_spectrum(d, trunc + 1, n_fft)
    stream = _unit_stream(np.random.default_rng(base + 0), dist, dof, np.empty(trunc + burn + n))
    tail = _fft_convolve_tail(stream, spectrum, trunc + 1, burn, n, _transform_buffers(n_fft))
    return _read_only(tail.copy())
