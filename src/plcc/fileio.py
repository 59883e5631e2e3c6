"""CSV, config-file and manifest plumbing for the command line front end.

File conventions are deliberately rigid so that outputs are byte-stable:
CSV floats carry 17 significant digits with LF line endings, JSON documents
are emitted with sorted keys and a fixed indentation, and every run manifest
contains the fully resolved parameters needed to replay the invocation.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import re

import numpy as np

from .arfima import GAUSSIAN, STUDENT_T, McArfimaSpec
from .core import ScalingFit
from .errors import InvalidInput, InvalidParameter

__all__ = [
    "write_series_csv",
    "read_series_csv",
    "parse_config",
    "config_float",
    "config_int",
    "config_str",
    "spec_from_config",
    "fit_to_dict",
    "json_dumps",
    "write_json",
    "sha256_file",
    "build_manifest",
    "read_manifest",
]

_FLOAT_FMT = "%.17g"


# =========================================================================
# CSV series files
# =========================================================================

# Rows rendered as one byte matrix in write_series_csv: enough to amortise
# the numpy calls, few enough that peak memory does not grow with T.
_WRITE_BLOCK = 1 << 14

# ASCII separators that numpy strips from a cell as whitespace and float()
# does not (it strips only ASCII whitespace and maps non-ASCII spaces).
_SEPARATORS = "\x1c\x1d\x1e\x1f"

# Characters of a CSV scanned at a time for those separators, so that the
# scan does not hold the whole file as one string.
_SCAN_BLOCK = 1 << 20

# The cell kernel. For a finite |v| in [1e-4, 1e16), ``'%.17g' % v`` prints
# fixed notation: the 17-digit integer D nearest |v| * 10**(16 - X), ties to
# even, where X = floor(log10 |v|), with the point after digit X, trailing
# fraction zeros dropped, and "0." plus -X - 1 zeros in front when X < 0.
# 10**(16 - X) <= 1e20 is an exact double, and Dekker's two-product splits
# |v| * 10**(16 - X) into p + e exactly, without FMA. Away from the band
# edges p is an even integer in (1e16, 1e17) and |e| <= 8, so D is
# p + rint(e): rint's ties go to even, as those of p + e do. Every other cell
# (0, -0, nan, +-inf, |v| outside the band, p within 4 of 1e16 or within 16
# of 1e17) is rendered by Python's own ``%``.
#
# A cell is rendered into a fixed slot, and NUL bytes are dropped from the
# whole block at the end, so a slot may hold NUL anywhere. Its layout:
# ',' sign "0." "000" and then the 17 digits, each of the first 16 followed
# by a place for the point. A fallback text is at most 24 bytes wide
# ("-2.2250738585072014e-308") and fits a slot after its ','.
_SLOT = 7 + 17 + 16
_POW10 = np.array([float(10**k) for k in range(21)])
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_DIGIT_AT = np.arange(17)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one 32-bit word, and how
    many of them are trailing zeros. Built on the first write, so that a
    process that writes no CSV does not hold them or their temporaries."""
    digits = np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    digits = (digits % 10 + ord("0")).astype(np.uint8)
    zeros = (digits[:, ::-1] == ord("0")).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.intp)
    tables = digits.view(np.uint32).ravel(), zeros
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _render_cells(out: np.ndarray, v: np.ndarray) -> None:
    """Render ``v`` as ``,%.17g`` cells into the ``(v.size, _SLOT)`` bytes ``out``."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    # X from the logarithm, corrected by one step
    exponent = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 15)
    p = a * _POW10[16 - exponent]
    exponent = np.clip(exponent + (p >= 1e17) - (p < 1e16), -4, 15)
    s = _POW10[16 - exponent]
    ah, al = _split(a)
    sh, sl = _split(s)
    p = a * s
    e = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    fast &= (p > 1e16 + 4) & (p < 1e17 - 16)
    lead, rest = np.divmod(p.astype(np.int64) + np.rint(e).astype(np.int64), 10**16)
    high, low = np.divmod(rest, 10**8)
    groups = [*np.divmod(high, 10**4), *np.divmod(low, 10**4)]
    quads, tz = _digit_tables()
    words = np.empty((v.size, 5), np.uint32)
    for k, g in enumerate(groups, start=1):
        words[:, k] = quads[g]
    digits = words.view(np.uint8)[:, 3:]
    digits[:, 0] = lead + ord("0")
    g1, g2, g3, g4 = groups
    zeros = tz[g4] + (g4 == 0) * (tz[g3] + (g3 == 0) * (tz[g2] + (g2 == 0) * tz[g1]))
    out[:, 0] = ord(",")
    out[:, 1] = np.signbit(v) * np.uint8(ord("-"))
    small = exponent < 0
    out[:, 2] = small * np.uint8(ord("0"))
    out[:, 3] = small * np.uint8(ord("."))
    for k in range(3):
        out[:, 4 + k] = (exponent < -1 - k) * np.uint8(ord("0"))
    # integer digits stay; trailing fraction zeros go, and with them a
    # point that has no fraction digit after it
    kept = np.maximum(17 - zeros, exponent + 1)
    np.multiply(digits, _DIGIT_AT < kept[:, None], out=out[:, 7::2])
    out[:, 8::2] = 0
    pointed = np.flatnonzero(~small & (exponent < 16 - zeros))
    out[pointed, 8 + 2 * exponent[pointed]] = ord(".")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join((f",{_FLOAT_FMT}" % f).encode().ljust(_SLOT, b"\0") for f in v[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint8).reshape(slow.size, _SLOT)


def _render_rows(start: int, columns) -> bytes:
    """The ``t,x[,y]`` rows of samples ``start`` on, as ``%d`` and ``%.17g`` print them."""
    m = columns[0].size
    t = np.arange(start, start + m)
    width = len(str(start + m - 1))
    rows = np.empty((m, width + _SLOT * len(columns) + 1), np.uint8)
    for j in range(width):
        power = 10 ** (width - 1 - j)
        rows[:, j] = (t // power % 10 + ord("0")) * ((t >= power) | (j == width - 1))
    for k, v in enumerate(columns):
        _render_cells(rows[:, width + k * _SLOT : width + (k + 1) * _SLOT], v)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def write_series_csv(path, x, y=None) -> None:
    """Write one or two series as ``t,x[,y]`` rows with full float precision.

    The time column is the 0-based sample index. Floats are rendered with 17
    significant digits, which round-trips IEEE doubles exactly, and lines end
    with LF on every platform. The bytes are those of ``'%d,%.17g'`` per row.
    """
    vx = np.asarray(x, dtype=float)
    vy = None if y is None else np.asarray(y, dtype=float)
    if vy is not None and vy.size != vx.size:
        raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
    columns = [vx] if vy is None else [vx, vy]
    with open(path, "wb") as fh:
        fh.write(b"t,x\n" if vy is None else b"t,x,y\n")
        for start in range(0, vx.size, _WRITE_BLOCK):
            fh.write(_render_rows(start, [v[start : start + _WRITE_BLOCK] for v in columns]))


def _is_numeric_row(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a ``t,x[,y]`` CSV; returns ``(x, y)`` with ``y`` None for 2 columns.

    A header row is auto-detected by the first non-empty row failing to
    parse as numbers. A leading UTF-8 byte-order mark is dropped and blank
    lines are skipped. Every data row must have the same column count (2 or
    3); the values of the time column are ignored. Errors name the physical
    line of the offending row.
    """
    try:
        data = _parse_numeric(path)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except (ValueError, csv.Error):
        data = None
    if data is None:
        return _read_rows(path)
    ys = data[:, 2].copy() if data.shape[1] == 3 else None
    return data[:, 1].copy(), ys


def _parse_numeric(path) -> np.ndarray | None:
    """All data rows as one float array, read by numpy's C text parser.

    Returns None, or raises ValueError, for every file that numpy would not
    read exactly as :func:`_read_rows` does: numpy rejects quoted cells,
    ``1_0`` and a non-numeric time column, and it accepts numbers padded with
    the separators 0x1C-0x1F, which ``float`` rejects. Files without data
    rows, or with a width other than 2 or 3, are left to the row loop and its
    messages. Universal newlines give numpy ``\\n`` for the ``\\r\\n`` and
    ``\\r`` that csv also ends rows on.
    """
    with open(path, encoding="utf-8-sig") as fh:
        rows = csv.reader(fh)
        first = next((row for row in rows if row), None)
        if first is None:
            return None
        skip = 0 if _is_numeric_row(first) else rows.line_num
        # the first row is a header numpy skips or cells float() accepted,
        # so only the rest needs the scan for separators
        blank = bool(skip)
        for block in iter(functools.partial(fh.read, _SCAN_BLOCK), ""):
            if any(c in block for c in _SEPARATORS):
                return None
            blank = blank and not block.strip("\n")
        if blank:
            return None
        fh.seek(0)
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    return data if data.shape[1] in (2, 3) else None


def _read_rows(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Row-by-row reader: the path for quoted cells, ``1_0`` and a non-numeric
    time column, and the one whose errors name the physical line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError as exc:
        # the block scan of _parse_numeric may stop before the bad byte
        raise _not_utf8(path, exc) from None
    if not rows:
        raise InvalidInput(f"{path}: file holds no data rows")
    start = 0
    if not _is_numeric_row(rows[0][1]):
        start = 1
    data = rows[start:]
    if not data:
        raise InvalidInput(f"{path}: file holds a header but no data rows")
    width = len(data[0][1])
    if width not in (2, 3):
        raise InvalidInput(
            f"{path}: expected 2 or 3 columns (t,x[,y]), got {width}"
        )
    xs = np.empty(len(data))
    ys = np.empty(len(data)) if width == 3 else None
    for i, (line_no, row) in enumerate(data):
        if len(row) != width:
            raise InvalidInput(
                f"{path}: line {line_no}: expected {width} columns, got {len(row)}"
            )
        try:
            xs[i] = float(row[1])
            if ys is not None:
                ys[i] = float(row[2])
        except ValueError as exc:
            raise InvalidInput(f"{path}: line {line_no}: {exc}") from None
    return xs, ys


# =========================================================================
# Text files
# =========================================================================


def _not_utf8(path, exc: UnicodeDecodeError) -> InvalidInput:
    return InvalidInput(f"{path}: not UTF-8 text ({exc.reason})")


def read_text(path) -> str:
    """The whole of a UTF-8 text file, such as a config file or a manifest.

    A file that does not decode is refused as :class:`InvalidInput`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


# =========================================================================
# Flat key = value config files
# =========================================================================


_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def parse_config(text: str, source: str = "config") -> dict[str, str]:
    """Parse flat ``key = value`` lines into an ordered string mapping.

    Blank lines and ``#`` comments are skipped; keys may carry dotted
    sections (``spec.d1``, ``sigma.13``). Duplicate keys and malformed lines
    raise with the line number.
    """
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"{source}: line {line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise InvalidInput(f"{source}: line {line_no}: malformed key {key!r}")
        if key in out:
            raise InvalidInput(f"{source}: line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def config_float(cfg: dict, key: str, default=None):
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise InvalidInput(f"config key {key}: {cfg[key]!r} is not a number") from None


def config_int(cfg: dict, key: str, default=None):
    if key not in cfg:
        return default
    try:
        v = int(cfg[key])
    except ValueError:
        raise InvalidInput(f"config key {key}: {cfg[key]!r} is not an integer") from None
    return v


def config_str(cfg: dict, key: str, default=None, choices=None):
    v = cfg.get(key, default)
    if v is not None and choices is not None and v not in choices:
        raise InvalidInput(
            f"config key {key}: {v!r} is not one of {sorted(choices)}"
        )
    return v


_SIGMA_RE = re.compile(r"^sigma\.([1-4])([1-4])$")

# every spec.* key: the McArfimaSpec field it sets, its reader and its default
_SPEC_KEYS = {
    "spec.alpha": ("alpha", config_float, 1.0),
    "spec.beta": ("beta", config_float, 0.0),
    "spec.gamma": ("gamma", config_float, 1.0),
    "spec.delta": ("delta", config_float, 0.0),
    "spec.d1": ("d1", config_float, 0.0),
    "spec.d2": ("d2", config_float, 0.0),
    "spec.d3": ("d3", config_float, 0.0),
    "spec.d4": ("d4", config_float, 0.0),
    "spec.dist": (
        "innovation_dist", functools.partial(config_str, choices={GAUSSIAN, STUDENT_T}), GAUSSIAN
    ),
    "spec.dof": ("dof", config_float, None),
    "spec.truncation": ("truncation", config_int, None),
    "spec.burn_in": ("burn_in", config_int, None),
}


def spec_from_config(cfg: dict) -> McArfimaSpec:
    """Build a generator spec from ``spec.*`` and ``sigma.IJ`` keys.

    Unset weights default to a single active component per side (alpha and
    gamma 1, beta and delta 0), memory parameters default to 0 and sigma to
    the identity; ``sigma.IJ`` sets the symmetric pair, so a config may not
    also set ``sigma.JI``. Validation errors carry the parameter name and
    its bound.
    """
    kwargs = {field: read(cfg, key, default) for key, (field, read, default) in _SPEC_KEYS.items()}
    sigma = np.eye(4)
    for key, value in cfg.items():
        m = _SIGMA_RE.match(key)
        if not m:
            continue
        i, j = int(m.group(1)), int(m.group(2))
        if i != j and f"sigma.{j}{i}" in cfg:
            raise InvalidInput(f"config keys {key} and sigma.{j}{i} set the same entry; keep one")
        try:
            v = float(value)
        except ValueError:
            raise InvalidInput(f"config key {key}: {value!r} is not a number") from None
        sigma[i - 1, j - 1] = v
        sigma[j - 1, i - 1] = v
    return McArfimaSpec(sigma=sigma, **kwargs)


def spec_config_keys(cfg: dict) -> set[str]:
    """The subset of keys in ``cfg`` consumed by :func:`spec_from_config`."""
    return {k for k in cfg if k in _SPEC_KEYS or _SIGMA_RE.match(k)}


# =========================================================================
# JSON documents
# =========================================================================


def fit_to_dict(fit: ScalingFit | None) -> dict | None:
    """Serialize a scaling fit with the CLI's fixed field names."""
    if fit is None:
        return None
    return {
        "estimate": fit.exponent,
        "stderr": fit.stderr,
        "r2": fit.r_squared,
        "intercept": fit.intercept,
        "range_used": list(fit.range_used),
        "diagnostics": dict(fit.diagnostics),
    }


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(
        doc, indent=2, sort_keys=True, allow_nan=False, default=_jsonable
    ) + "\n"


def write_json(path, doc) -> None:
    """Write ``doc`` as :func:`json_dumps` renders it. The text is rendered
    before the file is opened, so a document that cannot be serialised
    leaves an existing file as it was."""
    text = json_dumps(doc)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# =========================================================================
# Run manifests
# =========================================================================


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(subcommand: str, parameters: dict, inputs: dict, seeds) -> dict:
    """Assemble the replayable record of one invocation.

    ``parameters`` must hold every resolved value the subcommand consumed
    (defaults materialized), keyed by flag or config name; ``inputs`` maps
    input paths to their SHA-256 digests. Worker counts are deliberately not
    recorded: results are independent of parallelism by contract.
    """
    from . import __version__

    return {
        "tool": "plcc",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs,
        "seeds": seeds,
    }


# the JSON type of each manifest field that replay reads
_MANIFEST_FIELDS = {"subcommand": str, "parameters": dict, "inputs": dict, "outputs": dict}


def read_manifest(path) -> dict:
    """A manifest document whose fields have the types replay reads."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path}: manifest is not a JSON object")
    for field in ("tool", "subcommand", "parameters"):
        if field not in doc:
            raise InvalidInput(f"{path}: manifest lacks the {field!r} field")
    for field, kind in _MANIFEST_FIELDS.items():
        if not isinstance(doc.get(field, kind()), kind):
            name = "string" if kind is str else "object"
            raise InvalidInput(f"{path}: manifest field {field!r} is not a JSON {name}")
    if doc["tool"] != "plcc":
        raise InvalidParameter(f"{path}: manifest was written by {doc['tool']!r}")
    return doc
