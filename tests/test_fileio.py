"""Byte-stable file formats: CSV series, flat configs, JSON, manifests."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plcc.arfima import McArfimaSpec, generate_mc_arfima
from plcc.core import fit_loglog
from plcc.errors import InvalidInput, InvalidParameter
from plcc.fileio import (
    _SCAN_BLOCK,
    _WRITE_BLOCK,
    build_manifest,
    config_float,
    config_int,
    config_str,
    fit_to_dict,
    json_dumps,
    parse_config,
    read_manifest,
    read_series_csv,
    sha256_file,
    spec_config_keys,
    spec_from_config,
    write_json,
    write_series_csv,
)

# values chosen to stress the 17-significant-digit round trip
TRICKY = np.array([
    0.1,
    1.0 / 3.0,
    math.pi,
    -math.e * 1e-15,
    6.02214076e23,
    np.nextafter(1.0, 2.0),
    -0.0,
    12345678901234567.0,
])


# =========================================================================
# CSV
# =========================================================================


def test_series_roundtrip_single(tmp_path):
    p = tmp_path / "x.csv"
    write_series_csv(p, TRICKY)
    x, y = read_series_csv(p)
    assert y is None
    assert np.array_equal(x, TRICKY)


def test_series_roundtrip_pair(tmp_path):
    p = tmp_path / "xy.csv"
    write_series_csv(p, TRICKY, TRICKY[::-1])
    x, y = read_series_csv(p)
    assert np.array_equal(x, TRICKY)
    assert np.array_equal(y, TRICKY[::-1])


def test_series_file_bytes(tmp_path):
    p = tmp_path / "b.csv"
    write_series_csv(p, np.array([0.5, -1.25]))
    raw = p.read_bytes()
    assert raw == b"t,x\n0,0.5\n1,-1.25\n"
    assert b"\r" not in raw


def test_series_reader_no_header(tmp_path):
    p = tmp_path / "nh.csv"
    p.write_text("0,1.5\n1,2.5\n")
    x, y = read_series_csv(p)
    assert y is None
    assert np.array_equal(x, [1.5, 2.5])


def test_series_reader_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(InvalidInput, match="no data rows"):
        read_series_csv(p)
    p.write_text("t,x\n")
    with pytest.raises(InvalidInput, match="header but no data"):
        read_series_csv(p)
    p.write_text("t,x\n0,1.0\n1,2.0,3.0\n")
    with pytest.raises(InvalidInput, match="line 3"):
        read_series_csv(p)
    p.write_text("t,x\n0,1.0\n1,spam\n")
    with pytest.raises(InvalidInput, match="line 3"):
        read_series_csv(p)
    p.write_text("t\n0\n")
    with pytest.raises(InvalidInput, match="expected 2 or 3 columns"):
        read_series_csv(p)


def test_series_writer_length_mismatch(tmp_path):
    with pytest.raises(InvalidInput, match="lengths differ"):
        write_series_csv(tmp_path / "m.csv", np.arange(4.0), np.arange(3.0))


def _oracle_bytes(x, y=None):
    # the row-by-row rendering the block writer must reproduce byte for byte
    out = "t,x\n" if y is None else "t,x,y\n"
    for t in range(x.size):
        if y is None:
            out += f"{t},{'%.17g' % float(x[t])}\n"
        else:
            out += f"{t},{'%.17g' % float(x[t])},{'%.17g' % float(y[t])}\n"
    return out.encode()


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300]
_CELLS = st.lists(
    st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1, max_size=40,
)
_LENGTHS = st.sampled_from(
    [0, 1, 2, 7, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1, 2 * _WRITE_BLOCK + 3]
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cells_x=_CELLS, cells_y=_CELLS, length=_LENGTHS, pair=st.booleans())
def test_series_csv_bytes_and_roundtrip(tmp_path, cells_x, cells_y, length, pair):
    x = np.resize(np.array(cells_x), length)
    y = np.resize(np.array(cells_y), length) if pair else None
    path = tmp_path / "p.csv"
    write_series_csv(path, x, y)
    assert path.read_bytes() == _oracle_bytes(x, y)
    if length == 0:
        with pytest.raises(InvalidInput, match="header but no data rows"):
            read_series_csv(path)
        return
    rx, ry = read_series_csv(path)
    assert (ry is None) == (y is None)
    for back, orig in [(rx, x)] + ([] if y is None else [(ry, y)]):
        nan = np.isnan(orig)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert np.array_equal(np.isnan(back), nan)
        assert back[~nan].tobytes() == orig[~nan].tobytes()


def _assert_renders_as_oracle(path, x, y=None):
    write_series_csv(path, x, y)
    assert path.read_bytes() == _oracle_bytes(x, y)


# Raw bit patterns reach every exponent, both signs, subnormals, the
# infinities and NaNs with any payload, in the proportions of the format.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300), pair=st.booleans())
def test_series_csv_renders_any_bit_pattern_as_percent_17g(tmp_path, bits, pair):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_renders_as_oracle(tmp_path / "b.csv", values, values[::-1] if pair else None)


def _band_edges() -> np.ndarray:
    # where the kernel's fast path ends and '%.17g' changes notation or
    # carries into a new digit: the neighbours of each power of ten, the
    # values half-way between 17-digit decimals and the subnormals
    values = [1e-4, 1e16, 0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    for k in range(-5, 18):
        for start in (10.0**k, float(f"1e{k}")):
            up = down = start
            for _ in range(6):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
                values += [up, down]
            values.append(start)
    halves = np.arange(1, 200) + 0.5
    for k in range(-20, 18):
        values += (halves * 10.0**k).tolist()
        values += ((halves + 10**15) * 10.0**k).tolist()
    values = np.array(values)
    return np.concatenate([values, -values])


def test_series_csv_renders_the_band_edges_as_percent_17g(tmp_path):
    edges = _band_edges()
    _assert_renders_as_oracle(tmp_path / "e.csv", edges)
    _assert_renders_as_oracle(tmp_path / "p.csv", edges, edges[::-1])


@pytest.mark.parametrize("length", [9, 10, 11, 99, 100, 9999, 10000, _WRITE_BLOCK - 1, _WRITE_BLOCK + 1])
def test_series_csv_index_widths_and_blocks(tmp_path, length):
    # the time column gains a digit, and the writer a block, at these lengths
    x, y = np.random.default_rng(length).standard_normal((2, length)) * 1e3
    _assert_renders_as_oracle(tmp_path / "x.csv", x)
    _assert_renders_as_oracle(tmp_path / "xy.csv", x, y)


# The generator specs that the command line benchmark writes at T = 2^16.
_LONG_PAIRS = {
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


@pytest.mark.parametrize("name", sorted(_LONG_PAIRS))
def test_series_csv_renders_a_long_pair_as_percent_17g(tmp_path, name):
    x, y = generate_mc_arfima(spec_from_config(_LONG_PAIRS[name]), 1 << 16, 2024)
    _assert_renders_as_oracle(tmp_path / "pair.csv", x, y)


_NAN, _INF = math.nan, math.inf

# enough pair rows to fill the first block of the reader's separator scan
_BLOCK_ROWS = _SCAN_BLOCK // len("0,1,2\n") + 1

# (file text, expected (x, y) or (error type, message after "<path>: "))
_READ_CONTRACT = {
    "empty file": ("", (InvalidInput, "file holds no data rows")),
    "only blank lines": ("\n\r\n\n", (InvalidInput, "file holds no data rows")),
    "header only": ("t,x\n", (InvalidInput, "file holds a header but no data rows")),
    "header and blank lines": (
        "t,x,y\n\n\n", (InvalidInput, "file holds a header but no data rows")),
    "one column": (
        "t\n0\n1\n", (InvalidInput, "expected 2 or 3 columns (t,x[,y]), got 1")),
    "four columns": (
        "0,1,2,3\n", (InvalidInput, "expected 2 or 3 columns (t,x[,y]), got 4")),
    "no header": ("0,1.5\n1,2.5\n", ([1.5, 2.5], None)),
    "no header, pair": ("0,1.5,-1\n", ([1.5], [-1.0])),
    "byte-order mark, no header": ("\ufeff0,1.5\n1,2.5\n", ([1.5, 2.5], None)),
    "byte-order mark and header": ("\ufefft,x\n0,1.5\n1,2.5\n", ([1.5, 2.5], None)),
    "byte-order mark, quoted cells": ('\ufeff0,"1.5"\n1,2.5\n', ([1.5, 2.5], None)),
    "leading blank lines": ("\n\nt,x\n0,1\n", ([1.0], None)),
    "interleaved blank lines": ("t,x,y\n0,1,2\n\n1,3,4\n\n", ([1.0, 3.0], [2.0, 4.0])),
    "whitespace-only line": (
        "t,x\n0,1\n \n1,2\n", (InvalidInput, "line 3: expected 2 columns, got 1")),
    "whitespace-only first line is a header": (" \n0,1\n", ([1.0], None)),
    "CRLF endings": ("t,x\r\n0,1\r\n1,2\r\n", ([1.0, 2.0], None)),
    "CR-only endings": ("t,x\r0,1\r\r1,2\r", ([1.0, 2.0], None)),
    "no final newline": ("t,x\n0,1\n1,2", ([1.0, 2.0], None)),
    "form feed after a number": ("t,x\n0,1\f\n1,2\n", ([1.0, 2.0], None)),
    "form feed line": ("t,x\n0,1\n\f\n", (InvalidInput, "line 3: expected 2 columns, got 1")),
    "spaces around numbers": ("t,x\n0, 1 \n1,\t2\n", ([1.0, 2.0], None)),
    "unit separator after a number": (
        "t,x\n0,1\x1f\n",
        (InvalidInput, "line 2: could not convert string to float: '1\\x1f'")),
    "quoted cells": ('t,x\n0,"1.5"\n"1","-2"\n', ([1.5, -2.0], None)),
    "quoted header": ('"t","x","y"\n0,1,2\n', ([1.0], [2.0])),
    "underscore digits": ("t,x\n0,1_0\n", ([10.0], None)),
    "nan and infinities": (
        "t,x,y\n0,nan,-Infinity\n1,NaN,+inf\n", ([_NAN, _NAN], [-_INF, _INF])),
    "trailing comma": (
        "t,x\n0,1,\n", (InvalidInput, "line 2: could not convert string to float: ''")),
    "ragged row": (
        "t,x\n0,1\n1,2,3\n", (InvalidInput, "line 3: expected 2 columns, got 3")),
    "hash inside a cell": (
        "t,x\n0,1#c\n", (InvalidInput, "line 2: could not convert string to float: '1#c'")),
    "non-numeric t column": ("t,x\na,1\nb,2\n", ([1.0, 2.0], None)),
    "bad cell after a blank line": (
        "t,x\n\n0,1\n1,spam\n",
        (InvalidInput, "line 4: could not convert string to float: 'spam'")),
    "ragged row after blank lines": (
        "t,x\n0,1\n\n\n1,2,3\n", (InvalidInput, "line 5: expected 2 columns, got 3")),
    "bad cell after CR-only blank lines": (
        "t,x\r\r0,1\r\r1,spam\r",
        (InvalidInput, "line 5: could not convert string to float: 'spam'")),

    # the scan reads the text after the first row block by block, to the end
    "unit separator past the first scan block": (
        "t,x,y\n" + "0,1,2\n" * _BLOCK_ROWS + "0,1,2\x1f\n",
        (InvalidInput, f"line {_BLOCK_ROWS + 2}: could not convert string to float: '2\\x1f'")),
    "header and blank lines past the first scan block": (
        "t,x,y\n" + "\n" * (_SCAN_BLOCK + 1),
        (InvalidInput, "file holds a header but no data rows")),
    "data row after a scan block of blank lines": (
        "t,x,y\n" + "\n" * (_SCAN_BLOCK + 1) + "0,1,2\n", ([1.0], [2.0])),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, expected", list(_READ_CONTRACT.values()),
                         ids=list(_READ_CONTRACT))
def test_series_reader_contract(tmp_path, text, expected):
    # values are compared by bytes; errors name the physical line of the row;
    # no case warns, as numpy's reader does on a header and blank lines
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode())
    if isinstance(expected[0], type):
        kind, message = expected
        with pytest.raises(kind) as info:
            read_series_csv(path)
        assert str(info.value) == f"{path}: {message}"
        return
    x, y = read_series_csv(path)
    want_x, want_y = expected
    assert x.tobytes() == np.array(want_x, dtype=float).tobytes()
    if want_y is None:
        assert y is None
    else:
        assert y.tobytes() == np.array(want_y, dtype=float).tobytes()


def test_series_reader_refuses_a_byte_that_is_not_utf8_past_a_separator(tmp_path):
    # the scan stops at the separator, so the row reader is the first to decode the byte
    path = tmp_path / "c.csv"
    path.write_bytes(b"t,x,y\n0,1,2\x1f\n" + b"0,1,2\n" * _BLOCK_ROWS + b"\xff\n")
    with pytest.raises(InvalidInput) as info:
        read_series_csv(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


# =========================================================================
# config files
# =========================================================================


def test_parse_config_basics():
    text = """
    # generator settings
    length = 4096          # samples
    spec.d1 = 0.3
    sigma.13 = 0.5

    label = demo run
    """
    cfg = parse_config(text)
    assert cfg == {
        "length": "4096",
        "spec.d1": "0.3",
        "sigma.13": "0.5",
        "label": "demo run",
    }


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(InvalidInput, match="line 2: expected 'key = value'"):
        parse_config("a = 1\nnot a pair\n", source="f.cfg")
    with pytest.raises(InvalidInput, match="line 1: malformed key '2bad'"):
        parse_config("2bad = 1")
    with pytest.raises(InvalidInput, match="line 3: duplicate key 'a'"):
        parse_config("a = 1\nb = 2\na = 3")


def test_config_getters():
    cfg = {"f": "0.25", "i": "7", "s": "gaussian", "junk": "x2"}
    assert config_float(cfg, "f") == 0.25
    assert config_float(cfg, "missing", 1.5) == 1.5
    assert config_int(cfg, "i") == 7
    assert config_str(cfg, "s", choices={"gaussian", "student-t"}) == "gaussian"
    with pytest.raises(InvalidInput, match="config key junk"):
        config_float(cfg, "junk")
    with pytest.raises(InvalidInput, match="config key junk"):
        config_int(cfg, "junk")
    with pytest.raises(InvalidInput, match="config key s"):
        config_str(cfg, "s", choices={"uniform"})


def test_spec_from_config_defaults():
    spec = spec_from_config({})
    assert (spec.alpha, spec.beta, spec.gamma, spec.delta) == (1.0, 0.0, 1.0, 0.0)
    assert (spec.d1, spec.d2, spec.d3, spec.d4) == (0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(spec.sigma, np.eye(4))
    assert spec.innovation_dist == "gaussian"


def test_spec_from_config_sigma_symmetric():
    spec = spec_from_config({"sigma.13": "0.9", "spec.d1": "0.1"})
    assert spec.sigma[0, 2] == 0.9
    assert spec.sigma[2, 0] == 0.9
    assert spec.d1 == 0.1


def test_spec_from_config_refuses_both_orders_of_a_covariance_key():
    # sigma.13 and sigma.31 set one entry; the later key used to win silently
    with pytest.raises(InvalidInput, match="sigma.13 and sigma.31 set the same entry"):
        spec_from_config({"sigma.13": "0.3", "sigma.31": "0.6"})
    assert spec_from_config({"sigma.31": "0.6"}).sigma[0, 2] == 0.6
    assert spec_from_config({"sigma.22": "2.0"}).sigma[1, 1] == 2.0


def test_spec_from_config_validation_messages():
    with pytest.raises(InvalidParameter, match=r"d1 = 0\.7.*\(-0\.5, 0\.5\)"):
        spec_from_config({"spec.d1": "0.7"})
    with pytest.raises(InvalidInput, match="spec.dist"):
        spec_from_config({"spec.dist": "cauchy"})
    with pytest.raises(InvalidInput, match="sigma.13"):
        spec_from_config({"sigma.13": "strong"})


def test_spec_config_keys_partition():
    cfg = {
        "spec.d1": "0.3", "sigma.24": "0.2", "spec.dist": "gaussian",
        "length": "1024", "scales": "12:256:20",
    }
    assert spec_config_keys(cfg) == {"spec.d1", "sigma.24", "spec.dist"}


def test_spec_config_roundtrip_regenerates():
    cfg = {
        "spec.alpha": "1", "spec.beta": "1", "spec.gamma": "1", "spec.delta": "1",
        "spec.d1": "0.3", "spec.d2": "0.1", "spec.d3": "0.4", "spec.d4": "0.2",
        "sigma.13": "0.5", "spec.dist": "student-t", "spec.dof": "8",
    }
    spec = spec_from_config(cfg)
    echo = spec.to_dict()
    again = McArfimaSpec(
        echo["alpha"], echo["beta"], echo["gamma"], echo["delta"],
        echo["d1"], echo["d2"], echo["d3"], echo["d4"],
        np.array(echo["sigma"]),
        innovation_dist=echo["innovation_dist"], dof=echo["dof"],
        truncation=echo["truncation"], burn_in=echo["burn_in"],
    )
    assert again.to_dict() == echo


# =========================================================================
# JSON and manifests
# =========================================================================


def test_json_dumps_canonical_form():
    out = json_dumps({"b": 1, "a": np.float64(0.5), "c": (1, 2), "d": np.arange(3)})
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"') < out.index('"c"')
    doc = json.loads(out)
    assert doc == {"a": 0.5, "b": 1, "c": [1, 2], "d": [0, 1, 2]}


def test_json_dumps_writes_a_numpy_integer_as_an_integer():
    # a numpy float is a float already; a numpy integer is not an int
    assert not isinstance(np.int64(7), int)
    assert json_dumps({"n": np.int64(7)}) == '{\n  "n": 7\n}\n'


def test_json_dumps_rejects_nan():
    with pytest.raises(ValueError):
        json_dumps({"v": float("nan")})
    with pytest.raises(TypeError):
        json_dumps({"v": object()})


def test_write_json_bytes_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, {"z": 1, "a": [1.5, 2.5]})
    write_json(p2, {"a": [1.5, 2.5], "z": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_write_json_that_cannot_render_keeps_the_file(tmp_path):
    # the text is rendered before the file is opened for writing
    path = tmp_path / "r.json"
    write_json(path, {"v": 1.5})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_json(path, {"v": float("nan")})
    assert path.read_bytes() == before


def test_fit_to_dict_fields():
    fit = fit_loglog([(4.0, 2.0), (8.0, 4.0), (16.0, 8.0)], divisor=2.0)
    doc = fit_to_dict(fit)
    assert set(doc) == {
        "estimate", "stderr", "r2", "intercept", "range_used", "diagnostics",
    }
    assert doc["estimate"] == fit.exponent
    assert doc["range_used"] == [4.0, 16.0]
    assert fit_to_dict(None) is None


def test_sha256_file_matches_hashlib(tmp_path):
    p = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 1000
    p.write_bytes(payload)
    assert sha256_file(p) == hashlib.sha256(payload).hexdigest()


def test_manifest_roundtrip(tmp_path):
    m = build_manifest(
        "dcca",
        parameters={"order": 1, "scales": None},
        inputs={"in.csv": "ab" * 32},
        seeds=[17],
    )
    assert m["tool"] == "plcc"
    assert m["subcommand"] == "dcca"
    assert "version" in m
    p = tmp_path / "run.manifest.json"
    write_json(p, m)
    assert read_manifest(p) == json.loads(json_dumps(m))


def test_read_manifest_errors(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{not json")
    with pytest.raises(InvalidInput, match="not valid JSON"):
        read_manifest(p)
    write_json(p, {"tool": "plcc", "subcommand": "dfa"})
    with pytest.raises(InvalidInput, match="parameters"):
        read_manifest(p)
    write_json(p, {"tool": "other", "subcommand": "dfa", "parameters": {}})
    with pytest.raises(InvalidParameter, match="written by 'other'"):
        read_manifest(p)
