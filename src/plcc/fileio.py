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

# Rows rendered by one ``%`` in write_series_csv: enough to amortise the
# call, few enough that the argument tuple stays small for any T.
_WRITE_BLOCK = 1 << 14

# ASCII separators that numpy strips from a cell as whitespace and float()
# does not (it strips only ASCII whitespace and maps non-ASCII spaces).
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def write_series_csv(path, x, y=None) -> None:
    """Write one or two series as ``t,x[,y]`` rows with full float precision.

    The time column is the 0-based sample index. Floats are rendered with 17
    significant digits, which round-trips IEEE doubles exactly, and lines end
    with LF on every platform.
    """
    vx = np.asarray(x, dtype=float)
    vy = None if y is None else np.asarray(y, dtype=float)
    if vy is not None and vy.size != vx.size:
        raise InvalidInput(f"series lengths differ: {vx.size} vs {vy.size}")
    columns = [vx] if vy is None else [vx, vy]
    width = 1 + len(columns)
    row = "%d" + f",{_FLOAT_FMT}" * len(columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x\n" if vy is None else "t,x,y\n")
        for start in range(0, vx.size, _WRITE_BLOCK):
            stop = min(start + _WRITE_BLOCK, vx.size)
            cells = [None] * ((stop - start) * width)
            cells[::width] = range(start, stop)
            for k, v in enumerate(columns, start=1):
                cells[k::width] = v[start:stop].tolist()
            fh.write(row * (stop - start) % tuple(cells))


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
        skip = 0 if first is None or _is_numeric_row(first) else rows.line_num
        # the first row is a header numpy skips or cells float() accepted,
        # so only the rest needs the scan for separators
        rest = fh.read()
        blank = skip and not rest.strip("\n")
        if first is None or blank or any(c in rest for c in _SEPARATORS):
            return None
        del rest
        fh.seek(0)
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    return data if data.shape[1] in (2, 3) else None


def _read_rows(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Row-by-row reader: the path for quoted cells, ``1_0`` and a non-numeric
    time column, and the one whose errors name the physical line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
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
