"""Command-line surface: subcommands, CSV formats, exit codes, determinism."""

import contextlib
import filecmp
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pasf import cli, csvio, scenarios
from pasf.baselines import CombSpec, comb_pair
from pasf.csvio import export_csv, format_value, read_csv
from pasf.design import (
    SeparationSpec,
    design_fir_equiripple,
    design_iir,
    format_coefficients,
    parse_coefficients,
    save_coefficients,
)
from pasf.errors import InvalidArgumentError, PasfError
from pasf.response import bode_table, default_grid
from pasf.runtime import PasfState
from pasf.scenario_io import built_in
from pasf.scenarios import FilterChoice, run_estimation
from pasf.values import replace


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, cwd=None):
    # the package under test is the source tree, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    # the CLI runs under the warnings-are-errors rule of the in-process tests
    env["PYTHONWARNINGS"] = "error"
    return subprocess.run(
        [sys.executable, "-m", "pasf.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def _assert_validation_error(res):
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")
    assert len(res.stderr.splitlines()) == 1, res.stderr


def test_design_iir_writes_coefficient_files(tmp_path):
    res = run_cli("--out-dir", str(tmp_path), "design-iir",
                  "--rho-tilde", "1.0", "--period", "1000",
                  "--sampling-time", "0.001", "--order", "1")
    assert res.returncode == 0, res.stderr
    p_file = tmp_path / "iir1_p.txt"
    a_file = tmp_path / "iir1_a.txt"
    assert p_file.exists() and a_file.exists()
    lines = p_file.read_text().splitlines()
    assert len(lines) == 3
    kind, realization, order, period, t = lines[0].split()
    assert (kind, realization, order, period) == ("periodic-pass", "iir", "1", "1000")
    assert float(lines[1].split()[0]) == pytest.approx(-1.0 / 3.0)
    assert [float(v) for v in lines[2].split()] == pytest.approx([1/3, 1/3])


def test_design_iir_out_of_band_is_validation_error(tmp_path):
    res = run_cli("--out-dir", str(tmp_path), "design-iir",
                  "--rho-tilde", "100.0", "--period", "1000",
                  "--sampling-time", "0.001", "--order", "1")
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")


@pytest.mark.parametrize("rho_tilde, sampling_time",
                         [("nan", "0.001"), ("inf", "0.001"), ("1.0", "nan"),
                          ("1.0", "-0.01")])
def test_design_iir_non_finite_spec_is_validation_error(tmp_path, rho_tilde,
                                                        sampling_time):
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-iir",
                  "--rho-tilde", rho_tilde, "--period", "1000",
                  "--sampling-time", sampling_time, "--order", "1")
    _assert_validation_error(res)
    assert not out.exists()


def test_malformed_command_line_is_one_line_validation_error(tmp_path):
    """A flag value argparse cannot convert is one validation line with
    exit 1, not argparse's usage block and exit 2; help still exits 0."""
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-iir", "--rho-tilde", "1",
                  "--period", "x", "--sampling-time", "0.01", "--order", "1")
    _assert_validation_error(res)
    assert res.stderr == (
        "error: validation: argument --period: invalid int value: 'x'\n")
    assert res.stdout == ""
    assert not out.exists()
    res = run_cli("design-iir", "-h")
    assert res.returncode == 0 and res.stdout.startswith("usage: pasf design-iir")


@pytest.mark.parametrize("args", [
    # every passband grid node of a lifted edge of 1e-10 has cos = 1.0
    ["design-fir", "--rho-tilde", "1e-9", "--period", "10",
     "--sampling-time", "0.01", "--order", "50"],
    # rho = rho_tilde * period * T overflows to inf
    ["design-iir", "--rho-tilde", "1e308", "--period", "10",
     "--sampling-time", "0.01", "--order", "1", "--allow-out-of-band"],
    # (2 + rho)^8 overflows in the expanded denominator
    ["design-iir", "--rho-tilde", "1e40", "--period", "1",
     "--sampling-time", "1", "--order", "8", "--allow-out-of-band"],
])
def test_degenerate_design_is_one_line_validation_error(tmp_path, args):
    """A warning from the design's arithmetic would print a traceback under
    the CLI's warnings-are-errors rule, not one line."""
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), *args)
    _assert_validation_error(res)
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_design_fir_non_finite_weight_ratio_is_validation_error(tmp_path, ratio):
    """Rejected before the exchange runs, whose arithmetic would warn (a
    traceback under the CLI's warnings-are-errors rule) or end in a
    misleading message about the taps."""
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-fir", "--rho-tilde", "0.5",
                  "--period", "1000", "--sampling-time", "0.001",
                  "--order", "50", "--weight-ratio", ratio)
    _assert_validation_error(res)
    assert "weight_ratio" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["1e308", "1e-320"])
def test_design_fir_extreme_finite_weight_ratio_is_validation_error(tmp_path, ratio):
    """A finite ratio whose weighted error (1e308) or reciprocal (1e-320)
    overflows is one line, not an overflow traceback under the CLI's
    warnings-are-errors rule."""
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-fir", "--rho-tilde", "0.5",
                  "--period", "1000", "--sampling-time", "0.001",
                  "--order", "50", "--weight-ratio", ratio)
    _assert_validation_error(res)
    assert "weight_ratio" in res.stderr
    assert not out.exists()


def test_design_fir_overflowing_levelled_system_is_runtime_error(tmp_path):
    """At a passband weight of 1e-308 the exchange's levelled system
    overflows (huge barycentric weights at tiny passband edges can too):
    one typed design failure under warnings-as-errors, not an overflow
    traceback, and not blamed on the weight."""
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-fir", "--rho-tilde", "0.5",
                  "--period", "1000", "--sampling-time", "0.001",
                  "--order", "50", "--weight-ratio", "1e-308")
    assert res.returncode == 2
    assert res.stderr == "error: runtime: Remez exchange overflowed its levelled system\n"
    assert not out.exists()


@pytest.mark.parametrize("rho, order, message", [
    ("1.0", "20", "Remez exchange did not converge within 25 iterations"),
    ("0.794", "44", "Remez exchange collapsed: found 2 alternations, need 24"),
])
def test_design_fir_tiny_weight_ratio_is_runtime_error(tmp_path, rho, order, message):
    """At a passband weight of 1e-30 the exchange's interpolant overflows
    to inf: the ripple quotient (inf/inf, at order 20) and the extrema's
    slopes (inf - inf, at order 44) must not warn, which is a traceback
    under warnings-as-errors, before the design fails as one typed line."""
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-fir", "--rho-tilde", rho,
                  "--period", "1", "--sampling-time", "1.0",
                  "--order", order, "--weight-ratio", "1e-30")
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: runtime: {message}")
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert not out.exists()


def test_design_fir_rank_deficient_fit_is_runtime_error(tmp_path):
    """This design wrote its taps and exited 0 after NumPy's RankWarning,
    a traceback under warnings-as-errors; now one typed line."""
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-fir", "--rho-tilde", "0.6",
                  "--period", "1", "--sampling-time", "1.0",
                  "--order", "36", "--weight-ratio", "1e-16")
    assert res.returncode == 2
    assert res.stderr == ("error: runtime: Remez exchange reference is "
                          "rank-deficient: Chebyshev fit of rank 18, need 19\n")
    assert not out.exists()


def test_bode_csv_round_trip(tmp_path):
    run_cli("--out-dir", str(tmp_path), "design-iir",
            "--rho-tilde", "1.0", "--period", "628",
            "--sampling-time", "0.001", "--order", "2")
    res = run_cli("--out-dir", str(tmp_path), "bode",
                  "--coeffs", str(tmp_path / "iir2_p.txt"),
                  "--points", "200")
    assert res.returncode == 0, res.stderr
    header, data = read_csv(tmp_path / "bode.csv")
    assert header == ["omega_rad_s", "gain_db", "phase_deg"]
    assert data.shape == (200, 3)
    assert np.all(np.diff(data[:, 0]) > 0)


def test_csv_export_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(InvalidArgumentError, match="unequal length"):
        export_csv(path, {"a": [1, 2], "b": [1.0]})
    assert not path.exists()


def _read_csv_per_field(path):
    """The row-by-row reader: ``(header, data)``, or the error text of the
    first row in line order whose field count differs from the header's or
    whose field is not a number (the per-field ``float`` reference for
    ``read_csv``)."""
    lines = [ln.strip() for ln in csvio.read_text(path).split("\n")]
    numbered = [(no, ln) for no, ln in enumerate(lines, 1) if ln]
    if not numbered:
        return f"{path} is empty"
    header = numbered[0][1].split(",")
    data = []
    for no, ln in numbered[1:]:
        fields = ln.split(",")
        if len(fields) != len(header):
            return f"{path}: line {no} has {len(fields)} fields, the header {len(header)}"
        row = []
        for v in fields:
            try:
                row.append(float(v))
            except ValueError:
                return f"{path}: line {no}: {v!r} is not a number"
        data.append(row)
    return header, np.array(data, dtype=float).reshape(len(data), len(header))


# field spellings: float() accepts every one in the first list
_GOOD_FIELDS = ["0", "-0.0", "+0", "0e5", "-0E-3", "nan", "NaN", "-nan", "+NAN",
                "inf", "-Infinity", "+INF", "infinity", "1e-320", "-4.9e-324",
                "1.7976931348623157e308", "1.5E+3", ".5", "5.", " 2.5 ", "\t3",
                "1_0", "-1_000.5", "0.1", "-123456789.123456789"]
_BAD_FIELDS = ["", " ", "abc", "1__0", "_1", "0x10", "1e", "--1", "1.2.3", "nan1",
               "in f", "1 2"]
_field = st.one_of(st.sampled_from(_GOOD_FIELDS),
                   st.floats(allow_nan=False, width=64).map(repr),
                   st.integers(-10**20, 10**20).map(str))


@st.composite
def _csv_texts(draw):
    """CSV text: a header of 1-4 names, then rows of mostly that many fields,
    some with one more or one fewer or a field that is not a number, with
    blank lines, surrounding spaces and LF or CRLF endings."""
    width = draw(st.integers(1, 4))
    lines = [",".join(f"c{i}" for i in range(width))]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "ragged", "bad"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        n = width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
        fields = [draw(_field) for _ in range(n)]
        if kind == "bad" and fields:
            fields[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD_FIELDS))
        pad = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(pad + ",".join(fields) + pad)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
# rows of 3 and 1 fields under a 2-field header: 4 fields in all, two rows' worth
@example(text="t,x\n0,1,2\n3\n")
@example(text="t,x\n0,1\n2\n3,4,5\n")
@example(text="t,x\n")
@example(text="\n \r\n")
def test_read_csv_bitwise_equals_per_field_parse(tmp_path_factory, text):
    """``read_csv`` returns the per-field ``float`` parse, raw bits included
    (signed zeros, NaN payloads' signs), and for a bad file the same error
    text, word for word."""
    _check_read_csv(tmp_path_factory, text)


def _check_read_csv(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _read_csv_per_field(path)
    if isinstance(want, str):
        with pytest.raises(InvalidArgumentError) as exc:
            read_csv(path)
        assert str(exc.value) == want
        return
    header, data = read_csv(path)
    assert header == want[0]
    assert data.dtype == np.float64 and data.shape == want[1].shape
    assert np.array_equal(data.view(np.int64), want[1].view(np.int64))


# characters per read of csvio.iter_csv in the small-chunk tests: chunks of at
# most one line, reads that end inside a line (and between \r and \n), and
# chunks of a few rows
_SMALL_READS = [1, 3, 16]


@pytest.mark.parametrize("chars", _SMALL_READS)
@settings(max_examples=100, deadline=None)
@given(text=_csv_texts())
@example(text="t,x\n0,1,2\n3\n")
@example(text="t,x\n")
@example(text="t,x")
@example(text="\n \r\n")
@example(text="\r\n\r\nt,x\r\n0,1\r\n\r\n2,abc\r\n")
def test_read_csv_in_small_chunks_equals_per_field_parse(tmp_path_factory, chars, text):
    """The check above, with every chunk of the reader a few characters:
    the chunks' concatenation is the whole file's parse, and a bad row is
    named by its line in the whole file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_READ_CHARS", chars)
        _check_read_csv(tmp_path_factory, text)


def test_csv_export_empty_and_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv(path, {"a": [], "b": []})
    assert path.read_text() == "a,b\n"
    rows = [(1.0 / 3.0, 2.0 ** 0.5), (1e-7, 12345.678901234)]
    path2 = tmp_path / "vals.csv"
    export_csv(path2, dict(zip(["x", "y"], zip(*rows))))
    _, data = read_csv(path2)
    for (x, y), (rx, ry) in zip(rows, data):
        # 12 significant digits survive the round trip
        assert rx == float(f"{x:.12g}")
        assert ry == float(f"{y:.12g}")


def _format_value_csv(columns) -> bytes:
    """The per-value reference that export_csv's row template must match."""
    lines = [",".join(columns)]
    lines += [",".join(format_value(v) for v in row)
              for row in zip(*columns.values())]
    return ("\n".join(lines) + "\n").encode()


def _row_sets():
    """Columns with the types of each export_csv caller, plus random,
    extreme and non-finite values."""
    rng = np.random.default_rng(7)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.2e-308,
                        1e300, -1e-300, 1e16, 0.1, 1.0 / 3.0, 123456789012.5])
    mixed = np.concatenate([special, rng.standard_normal(300)
                            * 10.0 ** rng.uniform(-300, 300, 300)])
    rng.shuffle(mixed)
    t = np.arange(len(mixed))
    scn = replace(built_in("sec52", 0), duration_s=0.05, interference_window_s=None)
    run = run_estimation(scn, FilterChoice("iir", 1), seed=0)
    p, _ = design_iir(SeparationSpec(1.0, 5, 0.1), 1)
    bode = bode_table(p, default_grid(p, n_points=50))
    return {
        "scenario": run.columns(),
        "interference": {"t": t, "time_s": t * 0.001,
                         "a": mixed, "b": mixed[::-1]},
        "replicas": {"replica": list(range(len(mixed))),
                     "seed": [2 ** 40 + i for i in range(len(mixed))],
                     "x": [float(v) for v in mixed],
                     "y": [float(-v) for v in mixed]},
        "separate": {"t": [int(i) for i in t], "x": mixed,
                     "xp": [float(v) / 3.0 for v in mixed],
                     "xa": [float(-v) for v in mixed]},
        "bode": bode.columns(),
        "extremes": {"a": mixed[:-2], "b": mixed[1:-1], "c": mixed[2:]},
    }


@pytest.mark.parametrize("caller", ["scenario", "interference", "replicas",
                                    "separate", "bode", "extremes"])
def test_export_csv_bytes_equal_format_value(tmp_path, caller):
    columns = _row_sets()[caller]
    path = tmp_path / "out.csv"
    export_csv(path, columns)
    assert path.read_bytes() == _format_value_csv(columns)


_CHUNK = csvio._CHUNK_ROWS


@pytest.mark.parametrize("rows", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_export_csv_chunks_keep_the_bytes(tmp_path, rows):
    """Every chunk boundary writes the bytes of format_value joined per row:
    for int and float arrays, int lists and lists of np.float64; for 18
    columns shaped like the estimation CSV; for Python ints beyond int64,
    as ``cli._as_integers`` makes them; and for a table of no columns."""
    rng = np.random.default_rng(rows)
    special = [-0.0, 1e-300, 1e300, np.nan, 0.0, -1e300, np.inf, -np.inf]
    floats = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
    floats[::7][:len(special)] = special[:len(floats[::7])]
    t = np.arange(rows)
    estimation = {"t": t, "time_s": t * 0.001}
    estimation |= {f"x_{k}": rng.permutation(floats) for k in range(15)}
    estimation["trP"] = [np.float64(v) for v in rng.permutation(floats)]
    tables = [
        {
            "i_arr": t - rows // 2,
            "f_arr": floats,
            "i_list": [int(v) for v in rng.integers(-2 ** 62, 2 ** 62, rows)],
            "f64_list": [np.float64(v) for v in floats[::-1]],
        },
        estimation,
        {"t": [2 ** 64 * (-1) ** i + i for i in range(rows)], "x": floats},
        {},
    ]
    assert len(estimation) == 18
    for k, columns in enumerate(tables):
        path = tmp_path / f"chunks{k}.csv"
        assert export_csv(path, columns) == (rows if columns else 0)
        assert path.read_bytes() == _format_value_csv(columns)


def test_export_csv_of_chunks_writes_the_table(tmp_path):
    """A table given as chunks of rows, empty ones included, has the bytes
    of the same table given whole."""
    columns = _row_sets()["separate"]
    bounds = [0, 0, 1, 40, 40, 41, 200, len(columns["t"])]
    chunks = [{name: col[lo:hi] for name, col in columns.items()}
              for lo, hi in zip(bounds, bounds[1:])]
    assert export_csv(tmp_path / "chunks.csv", chunks) == len(columns["t"])
    assert export_csv(tmp_path / "whole.csv", columns) == len(columns["t"])
    assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def _shared_tables(rows):
    """Tables that repeat runs of columns: a run at the start, the middle
    and the end of a table and a table that is the run alone, copies of the
    run's arrays, a run of one column, and columns that must stay apart:
    the same values as int64 and float64, the bits of an int64 column as
    float64, +0.0 and -0.0, and lists."""
    rng = np.random.default_rng(rows)
    special = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0]
    floats = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
    floats[::5][:len(special)] = special[:len(floats[::5])]
    t = np.arange(rows)
    run = {"t": t, "time_s": t * 0.001, "x": floats}

    def own():
        return rng.standard_normal(rows)

    return {
        "start": {**run, "a": own()},
        "middle": {"a": own(), **{k: v.copy() for k, v in run.items()}, "b": own()},
        "end": {"a": own(), "t": t, "time_s": t * 0.001, "x": floats},
        "alone": dict(run),
        "one": {"a": own(), "y": floats[::-1], "b": own()},
        "one_again": {"y": floats[::-1].copy(), "a": own()},
        "t_float": {"t": t.astype(float), "time_s": t * 0.001, "x": floats, "a": own()},
        "t_bits": {"t": t.view(np.float64), "a": own()},
        "t_alone": {"t": t, "a": own()},
        "zeros": {"z": np.zeros(rows), "a": own()},
        "negative_zeros": {"z": np.full(rows, -0.0), "a": own()},
        "lists": {"t": t.tolist(), "time_s": (t * 0.001).tolist(), "x": floats},
    }


def _write_shared(tmp_path, tables):
    shared = csvio.SharedColumns(tables.values())
    for name, columns in tables.items():
        rows = len(next(iter(columns.values())))
        assert export_csv(tmp_path / f"{name}.csv", columns, shared) == rows
    return shared


@pytest.mark.parametrize("rows", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_shared_runs_keep_each_tables_bytes(tmp_path, rows):
    """Each table written through a SharedColumns record over the set has
    the bytes of the table written alone and of format_value per value."""
    tables = _shared_tables(rows)
    shared = _write_shared(tmp_path, tables)
    for name, columns in tables.items():
        export_csv(tmp_path / "alone.csv", columns)
        alone = (tmp_path / "alone.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == alone == _format_value_csv(columns), name
    if rows:
        runs = {name: [type(c).__name__ for c in shared.columns(cols)]
                for name, cols in tables.items()}
        assert runs["start"] == ["_Run", "ndarray"]
        assert runs["middle"] == ["ndarray", "_Run", "ndarray"]
        assert runs["end"] == ["ndarray", "_Run"]
        assert runs["alone"] == ["_Run"]
        assert runs["one"] == ["ndarray", "_Run", "ndarray"]
        assert runs["one_again"] == ["_Run", "ndarray"]


def test_shared_runs_confirm_a_hash_match_bit_for_bit(tmp_path, monkeypatch):
    """Columns of other bytes or dtypes under one key are not merged."""
    monkeypatch.setattr(csvio, "_key", lambda col: 0)
    tables = _shared_tables(_CHUNK + 1)
    _write_shared(tmp_path, tables)
    for name, columns in tables.items():
        assert (tmp_path / f"{name}.csv").read_bytes() == _format_value_csv(columns), name


def test_shared_run_memory_is_its_text(tmp_path):
    """Five 200,000-row tables that are one shared five-column run hold the
    run's text once, one string per chunk, not per-value strings of whole
    columns: the peak over making the record and writing stays under the
    text's size plus 1 MB."""
    rows = 200_000
    rng = np.random.default_rng(5)
    t = np.arange(rows)
    run = {"t": t, "time_s": t * 0.001,
           **{f"x{k}": rng.standard_normal(rows) for k in range(3)}}
    tables = [dict(run) for _ in range(5)]
    tracemalloc.start()
    try:
        shared = csvio.SharedColumns(tables)
        for k, columns in enumerate(tables):
            export_csv(tmp_path / f"table{k}.csv", columns, shared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (run_text,) = shared.columns(tables[0])
    text = sum(map(len, run_text.texts))  # ASCII: its UTF-8 size
    # per-value strings of one whole column would add 200,000 x about 70 B
    assert peak < text + 1_000_000, (peak, text)
    export_csv(tmp_path / "alone.csv", tables[4])
    assert (tmp_path / "table4.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_scenario_files_equal_their_tables_written_alone(tmp_path, monkeypatch):
    """Every file of a tiny separation and estimation scenario has the bytes
    of its table written alone, with its shared runs written once."""
    written = []

    def record(path, columns, shared=None):
        written.append((path, columns, shared))
        return export_csv(path, columns, shared)

    monkeypatch.setattr(scenarios, "export_csv", record)
    for name in ("sec53", "sec52"):
        scn = built_in(name, 0)
        scn = replace(scn, duration_s=1.1, rho_schedule=scn.rho_schedule[:1],
                      interference_window_s=(0.5, 1.1))
        del written[:]
        scenarios.run_scenario(scn, seed=0, out_dir=str(tmp_path / scn.name), plot_script=False)
        assert len(written) == len(scn.filters) + len(scn.combs) + 1
        for path, columns, _ in written:
            with open(path, "rb") as fh:
                assert fh.read() == _format_value_csv(columns), path
        # every filter's table shares its leading columns with the others
        assert all(any(isinstance(c, csvio._Run)
                       for c in shared.columns(columns))
                   for _, columns, shared in written[:-1])


def _failing_chunks(how):
    yield {"a": [1, 2], "b": [0.5, 0.25]}
    if how == "raise":
        raise OSError("the input went away")
    yield {"a": [3], "b": []} if how == "unequal" else {"b": [1.0], "a": [3]}


@pytest.mark.parametrize("how, error", [("raise", OSError), ("unequal", InvalidArgumentError),
                                        ("renamed", InvalidArgumentError)])
def test_failed_export_keeps_the_old_file(tmp_path, how, error):
    """A table that fails after its first chunk leaves the file at its path
    as it was, and no temporary file."""
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(error):
        export_csv(path, _failing_chunks(how))
    assert os.listdir(tmp_path) == ["out.csv"]
    assert path.read_text() == "old\n"


def test_export_csv_memory_is_bounded_by_a_chunk(tmp_path):
    """A 200,000-row export holds one chunk's Python numbers, not the
    table's: its peak stays far below converting a whole column."""
    rows = 200_000
    rng = np.random.default_rng(3)
    columns = {"t": np.arange(rows), "x": rng.standard_normal(rows),
               "y": rng.standard_normal(rows)}
    tracemalloc.start()
    try:
        export_csv(tmp_path / "big.csv", columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one whole float column as Python floats is 200,000 x 32 B = 6.4 MB
    assert peak < 1_000_000


# Values of the numeric flags: three draws in four from the flag's working
# range, so that examples reach the designs, and otherwise IEEE specials,
# extremes, non-numbers, drawn floats and drawn ints. --order and --points
# size an allocation, so their ints are drawn from a range a run can afford.
_SPECIAL_VALUES = ["0", "-0", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324",
                   "1e400", "-1e400", "", "abc", "0x10", "1_0", " 2 ", "1e", "--"]


@st.composite
def _flag_values(draw, working, ints=st.integers()):
    if draw(st.integers(0, 3)):
        return repr(draw(working))
    return draw(st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats().map(repr),
                          ints.map(str)))


_SIZES = st.integers(-3, 300)
_SPEC_FLAGS = {"--rho-tilde": _flag_values(st.floats(1e-3, 5.0)),
               "--period": _flag_values(st.integers(1, 20)),
               "--sampling-time": _flag_values(st.floats(1e-3, 0.1)),
               "--order": _flag_values(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 20, 50]),
                                       _SIZES)}
_NUMERIC_FLAGS = {
    "design-iir": _SPEC_FLAGS,
    "design-fir": {**_SPEC_FLAGS,
                   "--passband-edge": _flag_values(st.floats(0.0, 3.2)),
                   "--stopband-edge": _flag_values(st.floats(0.0, 3.2)),
                   "--weight-ratio": _flag_values(st.floats(1e-3, 1e3))},
    "bode": {"--points": _flag_values(st.integers(2, 3000), _SIZES),
             "--omega-min": _flag_values(st.floats(1e-4, 400.0)),
             "--omega-max": _flag_values(st.floats(1e-4, 400.0))},
}
_REQUIRED = {"--rho-tilde", "--period", "--sampling-time", "--order"}


@st.composite
def _numeric_command_lines(draw):
    """A design-iir, design-fir or bode command line: every required flag
    and some optional ones, each with a drawn value (as ``--flag=value``, so
    a value that starts with a dash is still the flag's value)."""
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    args = [command]
    for flag, values in _NUMERIC_FLAGS[command].items():
        if flag in _REQUIRED or draw(st.booleans()):
            args.append(f"{flag}={draw(values)}")
    return args


@settings(max_examples=600, deadline=None)
@given(args=_numeric_command_lines())
@example(args=["design-iir", "--rho-tilde=1e308", "--period=7",
               "--sampling-time=5e-324", "--order=2"])
@example(args=["design-fir", "--rho-tilde=1.0", "--period=7", "--sampling-time=0.1",
               "--order=12", "--weight-ratio=1e400"])
@example(args=["bode", "--points=2", "--omega-min=-0", "--omega-max=nan"])
@example(args=["bode", "--points=--"])
def test_numeric_flags_exit_cleanly_or_with_one_error_line(tmp_path_factory, args):
    """Each numeric flag value either runs, with nothing on stderr, or fails
    with exit 1 or 2, one ``error: validation|runtime|io:`` line and no file
    in the output directory."""
    base = tmp_path_factory.getbasetemp() / "numeric-flags"
    if not (base / "iir2_p.txt").exists():
        base.mkdir(exist_ok=True)
        p, _ = design_iir(SeparationSpec(2.5, 7, 0.01), 2)
        save_coefficients(p, base / "iir2_p.txt")
    if args[0] == "bode":
        args = [*args, f"--coeffs={base / 'iir2_p.txt'}"]
    out = base / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--out-dir", str(out), *args])
    lines = err.getvalue().splitlines()
    try:
        if code == 0:
            assert lines == [], (args, lines)
        else:
            assert code in (1, 2), (args, code)
            assert len(lines) == 1, (args, lines)
            category = "validation" if code == 1 else "(runtime|io)"
            assert re.match(rf"error: {category}: ", lines[0]), (args, lines)
            assert not out.exists() or not os.listdir(out), (args, os.listdir(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_separate_rejects_non_finite_coefficient_file(tmp_path):
    run_cli("--out-dir", str(tmp_path), "design-iir",
            "--rho-tilde", "2.5", "--period", "20",
            "--sampling-time", "0.01", "--order", "1")
    p_file = tmp_path / "iir1_p.txt"
    head, feedback, feedforward = p_file.read_text().splitlines()
    p_file.write_text("\n".join([head, "nan", feedforward]) + "\n")
    export_csv(tmp_path / "in.csv", {"t": [0, 1], "x": [1.0, 2.0]})
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "separate",
                  "--coeffs-p", str(p_file),
                  "--coeffs-a", str(tmp_path / "iir1_a.txt"),
                  "--input", str(tmp_path / "in.csv"))
    _assert_validation_error(res)
    assert "finite" in res.stderr
    assert not out.exists()


def test_separate_stream(tmp_path):
    run_cli("--out-dir", str(tmp_path), "design-iir",
            "--rho-tilde", "2.5", "--period", "20",
            "--sampling-time", "0.01", "--order", "1")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100)
    export_csv(tmp_path / "in.csv", {"t": np.arange(100), "x": x})
    res = run_cli("--out-dir", str(tmp_path), "separate",
                  "--coeffs-p", str(tmp_path / "iir1_p.txt"),
                  "--coeffs-a", str(tmp_path / "iir1_a.txt"),
                  "--input", str(tmp_path / "in.csv"))
    assert res.returncode == 0, res.stderr
    header, data = read_csv(tmp_path / "separated.csv")
    assert header == ["t", "x", "xp", "xa"]
    assert data.shape == (100, 4)
    # first-order pair is complementary: xp + xa = x
    assert np.max(np.abs(data[:, 2] + data[:, 3] - data[:, 1])) < 1e-9


def _separate_inputs(tmp_path, rows):
    """Coefficient files for a period-20 IIR1 pair and an input CSV whose
    lines after the header are ``rows``, verbatim."""
    p, a = design_iir(SeparationSpec(2.5, 20, 0.01), 1)
    save_coefficients(p, tmp_path / "p.txt")
    save_coefficients(a, tmp_path / "a.txt")
    (tmp_path / "in.csv").write_text("t,x\n" + "".join(r + "\n" for r in rows))
    return ("separate", "--coeffs-p", str(tmp_path / "p.txt"),
            "--coeffs-a", str(tmp_path / "a.txt"),
            "--input", str(tmp_path / "in.csv"))


_MALFORMED_ROWS = [
    (["0,1.0", "1,abc"], "line 3: 'abc' is not a number"),
    (["0,1.0", "1,2.0,3.0"], "line 3 has 3 fields, the header 2"),
    (["0,1.0,2.0", "1,2.0,3.0"], "line 2 has 3 fields, the header 2"),
    (["0,1.0", "nan,2.0"], "column t must be finite"),
    (["0,1.0", "inf,2.0"], "column t must be finite"),
    # a non-integer t was written back cut to an integer, with exit 0
    (["0.5,1.0", "1.7,2.0", "2.2,3.0"],
     "line 2: column t must be finite and an integer, got 0.5"),
    (["0,1.0", "", "1,2.0", "2.000001,3.0"],
     "line 5: column t must be finite and an integer, got 2.000001"),
    (["0,1.0", "-1e-300,2.0"], "line 3: column t must be finite"),
    # the right number of fields in all, but not row by row
    (["0,1.0,2.0", "1"], "line 2 has 3 fields, the header 2"),
    # a non-finite x was a runtime error naming no line, with exit 2
    (["0,1.0", "1,nan"], "line 3: column x must be finite, got nan"),
    (["0,1.0", "", "1,2.0", "2,-inf"], "line 5: column x must be finite, got -inf"),
    (["0,inf", "1,2.0"], "line 2: column x must be finite, got inf"),
]


@pytest.mark.parametrize("rows, message", _MALFORMED_ROWS)
def test_separate_malformed_input_is_validation_error(tmp_path, rows, message):
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), *_separate_inputs(tmp_path, rows))
    _assert_validation_error(res)
    assert message in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("chars", _SMALL_READS)
@pytest.mark.parametrize("rows, message", _MALFORMED_ROWS)
def test_separate_malformed_input_in_small_chunks(tmp_path, monkeypatch, capsys,
                                                  chars, rows, message):
    """The cases above with the input read a few characters at a time: the
    error of the whole file, and no output directory."""
    monkeypatch.setattr(csvio, "_READ_CHARS", chars)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), *_separate_inputs(tmp_path, rows)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation:") and len(err.splitlines()) == 1, err
    assert message in err
    assert not out.exists()


def _separate_reference(path, p, a, out):
    """``separate`` as one whole-file pass: read and decode the whole file,
    parse every row, check the header, every t and then every x, and only
    then separate and write ``out``. Returns the exit code and stderr."""
    try:
        parsed = _read_csv_per_field(path)
    except InvalidArgumentError as exc:  # not UTF-8
        return 1, f"error: validation: {exc}\n"
    if isinstance(parsed, str):
        return 1, f"error: validation: {parsed}\n"
    header, data = parsed
    if len(header) < 2 or header[0] != "t":
        return 1, f"error: validation: input CSV must have header t,x; got {header}\n"
    lines = csvio.read_text(path).split("\n")
    row_lines = [no for no, ln in enumerate(lines, 1) if ln.strip()][1:]
    t, x = data[:, 0], data[:, 1]
    for name, col, bad, rule in (
            ("t", t, ~np.isfinite(t) | (np.floor(t) != t), "finite and an integer"),
            ("x", x, ~np.isfinite(x), "finite")):
        if bad.any():
            row = int(bad.argmax())
            return 1, (f"error: validation: {path}: line {row_lines[row]}: column "
                       f"{name} must be {rule}, got {float(col[row])!r}\n")
    xp, xa = PasfState(p, a).run(x)
    export_csv(out, {"t": [int(v) for v in t.tolist()], "x": x, "xp": xp, "xa": xa})
    return 0, ""


_FAULTS = ["bytes", "ragged", "number", "header", "t", "x", "blank", "crlf"]


@st.composite
def _faulty_separate_inputs(draw):
    """The bytes of a small ``t,x`` file with 0-3 injected faults, and
    maybe a line of 9,000 spaces: a file longer than a decoder's read, so
    that the faults after it come in a later read."""
    rows = [[str(i), repr(draw(st.floats(-1e3, 1e3)))]
            for i in range(draw(st.integers(0, 8)))]
    lines = [["t", "x"]] + rows
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), [" " * 9000])
    faults = draw(st.lists(st.sampled_from(_FAULTS), max_size=3))
    bad_bytes = []
    for fault in faults:
        at = draw(st.integers(0, len(lines) - 1))
        if fault == "bytes":
            bad_bytes.append(at)
        elif fault == "ragged":
            lines[at] = lines[at] + ["1"] if draw(st.booleans()) else lines[at][:1]
        elif fault == "number":
            lines[at] = lines[at][:1] + [draw(st.sampled_from(["abc", "", "1e", "0x1"]))]
        elif fault == "header":
            lines[0] = draw(st.sampled_from([["s", "x"], ["t"], ["x", "t"]]))
        elif fault in ("t", "x") and at > 0:
            bad = draw(st.sampled_from(["nan", "-inf", "0.5", "1e300"] if fault == "t"
                                       else ["nan", "inf", "-inf"]))
            lines[at] = [bad] + lines[at][1:] if fault == "t" else lines[at][:1] + [bad]
        elif fault == "blank":
            lines.insert(at, [draw(st.sampled_from(["", "  ", "\t"]))])
    eol = "\r\n" if "crlf" in faults else "\n"
    encoded = [(",".join(ln) + eol).encode() for ln in lines]
    for at in bad_bytes:
        encoded[at] = encoded[at][:1] + b"\xff" + encoded[at][1:]
    return b"".join(encoded)


@settings(max_examples=150, deadline=None)
@given(data=_faulty_separate_inputs(), chars=st.sampled_from(_SMALL_READS + [1 << 16]))
@example(data=b"t,x\n0,1\n1,nan\n2,0.5\n3,\xff\n", chars=3)
@example(data=b"t,x\n0,nan\n1,abc\n", chars=1)
@example(data=b"s,x\n0,1\n1,2,3\n", chars=1)
@example(data=b"t,x\n0,inf\n\n0.5,1\n", chars=1)
# a bad row, then a bad byte in a later read of the decoder
@example(data=b"t,x\n0,1,2\n" + b" " * 9000 + b"\n2,\xff\n", chars=16)
@example(data=b"t,x\n" + b" " * 9000 + b"\n2,\xff\n", chars=3)
def test_streamed_separate_gives_the_whole_file_result(tmp_path_factory, data, chars):
    """Whatever chunk the reader stops at, ``separate`` prints the error
    line and exit code of a whole-file pass, leaves no output file and no
    directory it made, and on success writes the whole-file pass's bytes."""
    tmp = tmp_path_factory.mktemp("stream")
    p, a = design_iir(SeparationSpec(2.5, 3, 0.01), 2)
    save_coefficients(p, tmp / "p.txt")
    save_coefficients(a, tmp / "a.txt")
    (tmp / "in.csv").write_bytes(data)
    want = _separate_reference(tmp / "in.csv", p, a, tmp / "want.csv")
    out_dir = tmp / "made" / "out"
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(csvio, "_READ_CHARS", chars)
        code = cli.main(["--out-dir", str(out_dir), "separate",
                         "--coeffs-p", str(tmp / "p.txt"), "--coeffs-a", str(tmp / "a.txt"),
                         "--input", str(tmp / "in.csv")])
    assert (code, err.getvalue()) == want
    if code:
        assert not (tmp / "made").exists()
    else:
        assert os.listdir(out_dir) == ["separated.csv"]
        assert (out_dir / "separated.csv").read_bytes() == (tmp / "want.csv").read_bytes()


@pytest.mark.parametrize("rows", [50_000, 200_000])
def test_separate_memory_is_bounded_by_a_chunk(tmp_path, rows):
    """``separate`` holds one chunk of the input and of the output, not the
    file: its traced peak stays the same from 50,000 to 200,000 rows."""
    x = np.random.default_rng(1).standard_normal(rows)
    args = _separate_inputs(tmp_path, [])
    export_csv(tmp_path / "in.csv", {"t": np.arange(rows), "x": x})
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--out-dir", str(tmp_path), *args]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_separate_out_may_be_its_input(tmp_path):
    args = _separate_inputs(tmp_path, [f"{i},{v!r}" for i, v in
                                       enumerate(np.cos(np.arange(3000.0)).tolist())])
    res = run_cli("--out-dir", str(tmp_path / "out"), *args)
    assert res.returncode == 0, res.stderr
    res = run_cli("--out-dir", str(tmp_path), *args, "--out", str(tmp_path / "in.csv"))
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"wrote {tmp_path / 'in.csv'} (3000 rows)\n"
    assert (tmp_path / "in.csv").read_bytes() == (tmp_path / "out" / "separated.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "in.csv", "out", "p.txt"]


@pytest.mark.parametrize("kind", ["input", "coeffs-p", "scenario"])
def test_byte_order_mark_is_skipped(tmp_path, kind):
    """A UTF-8 file that starts with a byte-order mark, as some editors and
    shells write one, gives the output of the same file without it."""
    args = list(_separate_inputs(tmp_path, ["0,1.0", "1,-0.5", "2,0.25"]))
    if kind == "scenario":
        (tmp_path / "in.csv").write_text(COMB_SCENARIO + "variant = 1\n")
        args = ["scenario", str(tmp_path / "in.csv")]
    target = tmp_path / {"input": "in.csv", "coeffs-p": "p.txt", "scenario": "in.csv"}[kind]
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        out = tmp_path / f"out{len(prefix)}"
        target.write_bytes(prefix + target.read_bytes().removeprefix(b"\xef\xbb\xbf"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--no-plot-script", "--out-dir", str(out), *args]) == 0
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert outputs[0] and outputs[0] == outputs[1]


def test_separate_keeps_integer_valued_t(tmp_path):
    res = run_cli("--out-dir", str(tmp_path / "out"),
                  *_separate_inputs(tmp_path, ["-0.0,1.0", "1.0,2.0", "2e0,3.0"]))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "separated.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2"]


@pytest.mark.parametrize("line, text, message", [
    (1, "x", "non-numeric feedback tap"),
    (2, "0.5 y", "non-numeric feedforward tap"),
    (0, "periodic-pass iir one 20 0.01", "integer order and period"),
    (0, "periodic-pass iir 1 20 fast", "numeric sampling time"),
    (2, "0.5 0.5\n0.5", "coefficient text must have 3 lines, got 4"),
])
def test_separate_non_numeric_coefficient_file_is_validation_error(
        tmp_path, line, text, message):
    args = _separate_inputs(tmp_path, ["0,1.0"])
    p_file = tmp_path / "p.txt"
    lines = p_file.read_text().splitlines()
    lines[line] = text
    p_file.write_text("\n".join(lines) + "\n")
    res = run_cli("--out-dir", str(tmp_path / "out"), *args)
    _assert_validation_error(res)
    assert message in res.stderr


# each token of a coefficient file is replaced in turn by each of these
_COEFF_MUTANT_TOKENS = ("nan", "inf", "1e309", "1e-320", "5e-324", "-0", "", "x",
                        "@nope", "-1", "0")


def test_coefficient_file_mutants_load_valid_or_raise_typed_errors(tmp_path, capsys):
    """IIR2, FIR8 and comb-3 pairs at period 20 and T 0.01, with one token
    replaced by a bad one: each either raises one of the package's typed
    errors or loads with a finite, positive T whose pi/T is finite, and
    nothing warns. A mutated header also goes through ``pasf bode``: it
    exits 0, or prints one ``error:`` line and exits 1."""
    spec = SeparationSpec(2.5, 20, 0.01)
    texts = [format_coefficients(c) for pair in (
        design_iir(spec, 2), design_fir_equiripple(spec, 8),
        comb_pair(CombSpec(3, 20, 0.01, gain_mag=0.708, q=1.717))) for c in pair]
    path, out = tmp_path / "mutant.txt", str(tmp_path / "out")
    mutants = 0
    for text in texts:
        lines = text.splitlines()
        for no, line in enumerate(lines):
            tokens = line.split()
            for i in range(len(tokens)):
                for bad in _COEFF_MUTANT_TOKENS:
                    mutated = " ".join(tokens[:i] + [bad] + tokens[i + 1:])
                    mutant = "\n".join(lines[:no] + [mutated] + lines[no + 1:])
                    mutants += 1
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            T = parse_coefficients(mutant).sampling_time
                        except PasfError:
                            pass
                        else:
                            assert 0.0 < T < math.inf, mutant
                            assert math.isfinite(math.pi / T), mutant
                        if no == 0:
                            path.write_text(mutant)
                            code = cli.main(["--out-dir", out, "bode", "--coeffs",
                                             str(path), "--points", "16"])
                    if no == 0:
                        err = capsys.readouterr().err
                        assert (code, err) == (0, "") or (
                            code == 1 and err.startswith("error: ")
                            and len(err.splitlines()) == 1), (mutant, code, err)
    # 80 tokens: 5 + N + (N + 1) per file of order N, two files per pair
    assert mutants == 80 * len(_COEFF_MUTANT_TOKENS)


def test_separate_steps_once_per_row(tmp_path, monkeypatch):
    """The benchmark's count guard in miniature: one PasfState.step per row."""
    rows = [f"{i},{v!r}" for i, v in enumerate(np.sin(np.arange(45.0)).tolist())]
    args = _separate_inputs(tmp_path, rows)
    calls = []
    step = PasfState.step
    monkeypatch.setattr(PasfState, "step",
                        lambda state, x: calls.append(x) or step(state, x))
    assert cli.main(["--out-dir", str(tmp_path), *args]) == 0
    assert len(calls) == len(rows)
    _, data = read_csv(tmp_path / "separated.csv")
    assert data.shape == (len(rows), 4)


@pytest.mark.parametrize("case, category, code", [
    ("missing input", "io", 2),
    ("unwritable out", "io", 2),
    ("empty input", "validation", 1),
])
def test_separate_csv_errors_have_their_category(tmp_path, case, category, code):
    args = list(_separate_inputs(tmp_path, ["0,1.0"]))
    if case == "missing input":
        args[-1] = str(tmp_path / "missing.csv")
    elif case == "unwritable out":
        args += ["--out", str(tmp_path / "no-such-dir" / "out.csv")]
    else:
        (tmp_path / "in.csv").write_text("")
    res = run_cli("--out-dir", str(tmp_path / "out"), *args)
    assert res.returncode == code
    assert res.stderr.startswith(f"error: {category}:"), res.stderr
    assert len(res.stderr.splitlines()) == 1, res.stderr


def test_separate_output_that_overflows_is_a_runtime_error(tmp_path):
    """2,000 rows of ones with +-1.7e308 at rows 100-162 overflow an IIR1
    pair at period 7, whose outputs stay non-finite from t = 107 on: one
    runtime error line naming that t, exit 2, and neither a separated.csv
    nor the output directory is left (warnings are errors in the CLI)."""
    design = run_cli("--out-dir", str(tmp_path), "design-iir", "--rho-tilde", "0.05",
                     "--period", "7", "--sampling-time", "1.0", "--order", "1")
    assert design.returncode == 0, design.stderr
    x = np.ones(2000)
    x[100:163] = 1.7e308 * (-1.0) ** np.arange(100, 163)
    export_csv(tmp_path / "in.csv", {"t": np.arange(2000), "x": x})
    out = tmp_path / "out" / "deep"
    res = run_cli("--out-dir", str(out), "separate",
                  "--coeffs-p", str(tmp_path / "iir1_p.txt"),
                  "--coeffs-a", str(tmp_path / "iir1_a.txt"),
                  "--input", str(tmp_path / "in.csv"))
    assert res.returncode == 2
    assert res.stderr == ("error: runtime: separated output is not finite at "
                          "t = 107: the input overflows the filter pair\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["input", "coeffs-p", "bode coeffs", "scenario"])
def test_non_utf8_file_is_one_line_validation_error(tmp_path, kind):
    """Every input text file is read as UTF-8 through one reader; other
    bytes are a validation error, not a traceback."""
    args = list(_separate_inputs(tmp_path, ["0,1.0"]))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"t,x\n0,\xff\n")
    if kind == "input":
        args[-1] = str(bad)
    elif kind == "coeffs-p":
        args[2] = str(bad)
    elif kind == "bode coeffs":
        args = ["bode", "--coeffs", str(bad)]
    else:
        args = ["scenario", str(bad)]
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), *args)
    _assert_validation_error(res)
    assert f"{bad} is not UTF-8 text" in res.stderr
    assert not out.exists()


COMB_SCENARIO = """
[scenario]
name = combcheck
kind = separation
period = 20
sampling_time = 0.01
duration = 1
filter = iir 1 pasf
truth_p = @xp
truth_a = @xa

[rho]
0 = 2.0

[signal xp]
expr = gated-sine 31.4159265 20 10

[signal xa]
expr = pulse 0.5 0.6 0.5

[comb mycomb]
"""


@pytest.mark.parametrize("body, message", [
    ("variant = 3\ngain = 0.708\nq = 0:1.717 0:5", "q piece start 0 repeats"),
    ("gain = 0.708\nq = 0:1.717", "[comb mycomb] missing 'variant'"),
    ("variant = 3\ngain = 0.708\nq = 0-1.717", "q piece must be START:Q"),
    ("variant = 3\nq = 0:1.717", "[comb mycomb] missing 'gain'"),
    ("variant = 3\ngain = 0.708", "[comb mycomb] missing 'q'"),
    ("variant = 3\ngain = 0.708\nq =", "q needs at least one START:Q piece"),
    ("variant = 3\ngain = 0.708\nq = 0:fast", "q piece must be START:Q"),
    ("variant = 3\ngain = 0.708\nq = nan:1", "q piece must be START:Q"),
    ("variant = 3\ngain = high\nq = 0:1.717", "gain must be a number"),
    ("variant = three\ngain = 0.708\nq = 0:1.717", "variant must be a number"),
    ("variant = 4\ngain = 0.708\nq = 0:1.717", "variant must be 1, 2 or 3"),
    ("variant = 2\nb = half", "b must be a number"),
])
def test_scenario_malformed_comb_section_is_validation_error(tmp_path, body,
                                                             message):
    path = tmp_path / "comb.scn"
    path.write_text(COMB_SCENARIO + body + "\n")
    res = run_cli("--out-dir", str(tmp_path / "out"), "scenario", str(path))
    _assert_validation_error(res)
    assert message in res.stderr


NUMBERS_SCENARIO = """[scenario]
name = numcheck
kind = control
period = 20
sampling_time = 0.01
duration = 1
filter = iir 1
input = @u

[model]
A = 1 T 0 ; 0 1 T ; 0 0 0
B = 0 0 1
C = 1 0 0
Q = diag 0 0 1e-4
R = 0.25
process_noise_variance = 1e-4
observation_noise_variance = 0.25

[rho]
0 = 1.0

[controller]
start = 0.5
kp_p = 900
kd_p = 60
kp_a = 2500
kd_a = 100
cmd_p = @cmd
cmd_a = @u

[signal u]
expr = constant 0

[signal cmd]
kind = scale
factor = 2
of = @steps

[signal steps]
kind = schedule
piece = 0 inf constant 1
"""


@pytest.mark.parametrize("line, bad, message", [
    ("filter = iir 1", "filter = iir one", "filter order must be a number"),
    ("0 = 1.0", "0 = two", "[rho] rho_tilde must be a number"),
    ("0 = 1.0", "nan = 1.0", "[rho] start must be finite"),
    ("period = 20", "period = ten", "[scenario] period must be a number"),
    ("duration = 1", "duration = nan", "[scenario] duration must be finite"),
    ("sampling_time = 0.01", "sampling_time = inf",
     "[scenario] sampling_time must be finite"),
    ("factor = 2", "factor = x", "signal cmd factor must be a number"),
    ("piece = 0 inf constant 1", "piece = zero inf constant 1",
     "signal steps piece start must be a number"),
    ("expr = constant 0", "expr = constant inf", "constant descriptor must be finite"),
    ("expr = constant 0", "expr = noise 1e-4 -1 5",
     "bad noise descriptor: noise segment start must be >= 0"),
    ("A = 1 T 0 ; 0 1 T ; 0 0 0", "A = 1 T 0 ; 0 1 T ; 0 0 O",
     "[model] A entry must be a number"),
    ("A = 1 T 0 ; 0 1 T ; 0 0 0", "A = zeros", "[model] A cannot be zeros"),
    ("A = 1 T 0 ; 0 1 T ; 0 0 0", "A = 1 T ; 0", "[model] A rows differ in length"),
    ("Q = diag 0 0 1e-4", "Q = diag 0 0 inf", "[model] Q entry must be finite"),
    ("process_noise_variance = 1e-4", "process_noise_variance = nan",
     "[model] process_noise_variance must be finite"),
    ("kd_a = 100", "kd_a = fast", "[controller] kd_a must be a number"),
])
def test_scenario_malformed_number_is_validation_error(tmp_path, line, bad,
                                                       message):
    lines = NUMBERS_SCENARIO.splitlines()
    no = lines.index(line) + 1
    lines[no - 1] = bad
    path = tmp_path / "numbers.scn"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr.startswith(f"error: validation: line {no}: {message}"), \
        res.stderr
    assert not out.exists()


@pytest.mark.parametrize("descriptor", [
    "constant 1 2 3", "constant", "sinusoid 1 2 0 9", "sinusoid 1",
    "gated-sine 1 20 10 4", "noise 1 0 1 junk", "pulse 1 2 3 opnestart",
    "pulse 1 2 3 openend openend", "pulse 1 2 3 openstart openend 4", "harmonic-sum",
    "harmonic-sum 1 2", "harmonic-sum 1 1:2:3",
])
def test_leaf_descriptor_of_wrong_arity_is_validation_error(tmp_path, descriptor):
    """Only the documented arguments parse (a pulse may add openstart and
    openend, and each harmonic-sum term is one amp:harm pair): a missing,
    extra or misspelled token is an error naming its line and the form, not
    dropped."""
    lines = NUMBERS_SCENARIO.splitlines()
    no = lines.index("expr = constant 0") + 1
    lines[no - 1] = f"expr = {descriptor}"
    path = tmp_path / "leaf.scn"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    kind = descriptor.split()[0]
    assert res.stderr.startswith(
        f"error: validation: line {no}: bad {kind} descriptor: expected {kind} "), \
        res.stderr
    assert repr(descriptor) in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("line, bad, message", [
    ("sampling_time = 0.01", "sampling_time = -0.01", "sampling_time must be positive"),
    ("duration = 1", "duration = 0", "duration must hold at least one sample"),
    ("duration = 1", "duration = 0.004", "duration must hold at least one sample"),
    ("duration = 1", "duration = 1\nsettle = -5\nwarm_start = periodic",
     "settle must be >= 0"),
    ("sampling_time = 0.01", "sampling_time = 1e-320",
     "sampling_time must be positive and finite, with pi/T finite, got 1e-320"),
    ("sampling_time = 0.01", "sampling_time = 5e-324",
     "sampling_time must be positive and finite, with pi/T finite, got 5e-324"),
    ("[rho]\n0 = 1.0", "[rho]\n0 = 1.0\n0.5 = 0",
     "rho piece at 0.5 s: rho_tilde <= 0"),
    ("[rho]\n0 = 1.0", "[rho]\n0.5 = 1.0", "rho schedule must start at time 0"),
    ("duration = 1", "duration = 1\ninterference_window = 0.5 2",
     "interference window must satisfy 0 <= START < END <= duration 1, got 0.5 2"),
    ("filter = iir 1", "filter = iir 1\nfilter = iir 9 bad", "IIR order 9 > 8"),
])
def test_scenario_time_out_of_range_is_validation_error(tmp_path, line, bad,
                                                        message):
    path = tmp_path / "times.scn"
    path.write_text(NUMBERS_SCENARIO.replace(line, bad))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr.startswith(f"error: validation: {message}"), res.stderr
    assert not out.exists()


def test_scenario_fir_band_edges_are_checked_before_any_run(tmp_path):
    """A ``[rho]`` piece an FIR filter cannot design at (3 rho >= pi) is
    refused when the file is parsed, before the IIR filter runs."""
    path = tmp_path / "fir.scn"
    path.write_text(NUMBERS_SCENARIO.replace("filter = iir 1", "filter = iir 1\nfilter = fir 4")
                    .replace("[rho]\n0 = 1.0", "[rho]\n0 = 1.0\n0.5 = 6"))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr.startswith(
        "error: validation: rho piece at 0.5 s, filter fir4: band edges must "
        "satisfy 0 < passband (1.2) < stopband (3.14159) < pi"), res.stderr
    assert not out.exists()


@pytest.mark.parametrize("scenario, line, bad, message", [
    ("control", "input = @u", "input = u", "expected @signal reference, got 'u'"),
    ("control", "cmd_p = @cmd", "cmd_p = @missing", "undefined signal @missing"),
    ("control", "cmd_a = @u", "cmd_a = @u @cmd",
     "expected @signal reference, got '@u @cmd'"),
    ("control", "of = @steps", "of = @steps @nope", "undefined signal @nope"),
    ("separation", "truth_p = @xp", "truth_p = @missing", "undefined signal @missing"),
    ("separation", "truth_a = @xa", "truth_a = xa", "expected @signal reference, got 'xa'"),
])
def test_scenario_bad_signal_reference_names_its_line(tmp_path, scenario, line,
                                                      bad, message):
    text = {"control": NUMBERS_SCENARIO,
            "separation": COMB_SCENARIO + "variant = 1\n"}[scenario]
    lines = text.splitlines()
    no = lines.index(line) + 1
    lines[no - 1] = bad
    path = tmp_path / "refs.scn"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr.startswith(f"error: validation: line {no}: {message}"), \
        res.stderr
    assert not out.exists()


@pytest.mark.parametrize("scenario, line, bad, message", [
    ("control", "expr = constant 0", "expr =", "empty signal descriptor"),
    ("control", "0 = 1.0", "0 = 1.0\n0.0 = 2.0", "[rho] start 0 repeats"),
    ("control", "duration = 1", "duration = 1\nsettel = 5",
     "unknown key 'settel' in [scenario]"),
    ("control", "kd_a = 100", "kd_a = 100\nkd = 1", "unknown key 'kd' in [controller]"),
    ("control", "factor = 2", "factor = 2\nfactor = 3", "duplicate key 'factor'"),
    ("control", "expr = constant 0", "expr = constant 0\nexpr = constant 1",
     "duplicate key 'expr'"),
    ("control", "of = @steps", "of = constant", "expected @signal reference"),
    ("control", "[signal u]", "[signal]", "unknown section [signal]"),
    ("separation", "[comb mycomb]", "[comb3]", "unknown section [comb3]"),
    ("separation", "[rho]", "[rhos]", "unknown section [rhos]"),
])
def test_scenario_file_hole_is_validation_error_naming_its_line(
        tmp_path, scenario, line, bad, message):
    """An empty descriptor, a repeated [rho] start, an unknown key or section
    and a repeated key fail on the line that holds them."""
    text = {"control": NUMBERS_SCENARIO,
            "separation": COMB_SCENARIO + "variant = 1\n"}[scenario]
    lines = text.splitlines()
    no = lines.index(line) + 1 + bad.count("\n")
    path = tmp_path / "holes.scn"
    path.write_text(text.replace(line + "\n", bad + "\n", 1))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr.startswith(f"error: validation: line {no}: {message}"), \
        res.stderr
    assert not out.exists()


@pytest.mark.parametrize("line, bad, message", [
    ("A = 1 T 0 ; 0 1 T ; 0 0 0", "A = 1 T", "A must be square"),
    ("B = 0 0 1", "B = 0 0 ; 0 0 ; 1 1", "B must be one input column"),
    ("C = 1 0 0\nQ = diag 0 0 1e-4\nR = 0.25",
     "C = 1 0 0 ; 0 1 0\nQ = diag 0 0 1e-4\nR = diag 0.25 0.25",
     "C must be one measurement row"),
    ("A = 1 T 0 ; 0 1 T ; 0 0 0\nB = 0 0 1\nC = 1 0 0\nQ = diag 0 0 1e-4",
     "A = 1\nB = 1\nC = 1\nQ = 1e-4",
     "control scenario needs at least 2 states in A"),
    ("Q = diag 0 0 1e-4", "Q = diag 0 0 1e-4\nP0 = 1 2 0 ; 0 1 0 ; 0 0 1",
     "P0 must be symmetric"),
    ("Q = diag 0 0 1e-4", "Q = diag 0 0 1e-4\nP0 = diag -1 1 1",
     "P0 must be positive semidefinite"),
])
def test_failed_scenario_run_leaves_no_output_directory(tmp_path, line, bad,
                                                        message):
    """The runners' model contract (one input column, one measurement row,
    2 states for control) is checked as the file is parsed, the model and P0
    when the run builds the estimator; the output directory is created only
    once the runs succeed."""
    path = tmp_path / "model.scn"
    path.write_text(NUMBERS_SCENARIO.replace(line, bad))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert message in res.stderr
    assert not out.exists()


def _section(text, name):
    """The ``[name]`` section of ``text``, its header line to the blank line
    that ends it."""
    start = text.index(f"[{name}]\n")
    return text[start:text.index("\n\n", start) + 1]


@pytest.mark.parametrize("line, bad, message", [
    ("filter = iir 1\n", "", "scenario needs at least one filter choice"),
    ("[scenario]\n", "kind = control\n[scenario]\n", "line 1: key before any [section]"),
    ("of = @steps", "of = @cmd", "line 37: signal @cmd references itself"),
    ("piece = 0 inf constant 1", "piece = 0 inf",
     "line 41: piece needs: START END DESCRIPTOR"),
    ("kind = scale\nfactor = 2\nof = @steps", "kind = sum",
     "line 35: sum needs of = @a [@b ...]"),
    ("of = @steps\n", "", "line 35: scale needs of = @a [@b ...]"),
    ("factor = 2\n", "", "line 35: scale needs factor"),
    # the PD law feeds forward the rate of each command
    ("piece = 0 inf constant 1", "piece = 0 inf gated-sine 1 20 10",
     "no analytic derivative for descriptor GatedSine"),
    # a missing section fails on its first required key
    pytest.param(_section(NUMBERS_SCENARIO, "scenario"), "", "[scenario] missing 'kind'",
                 id="no-scenario-section"),
    pytest.param(_section(NUMBERS_SCENARIO, "model"), "", "[model] missing 'A'",
                 id="no-model-section"),
    pytest.param(_section(NUMBERS_SCENARIO, "controller"), "", "[controller] missing 'start'",
                 id="no-controller-section"),
    pytest.param(_section(NUMBERS_SCENARIO, "rho"), "", "scenario file needs a [rho] section",
                 id="no-rho-section"),
])
def test_scenario_refusal_is_one_validation_line(tmp_path, line, bad, message):
    """A scenario file the parser or the run refuses gives one validation
    line, exit 1 and no output directory."""
    assert NUMBERS_SCENARIO.count(line) == 1
    path = tmp_path / "refused.scn"
    path.write_text(NUMBERS_SCENARIO.replace(line, bad))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr == f"error: validation: {message}\n"
    assert not out.exists()


def test_kfpasf_on_a_separation_scenario_is_validation_error(tmp_path):
    path = tmp_path / "sep.scn"
    path.write_text(COMB_SCENARIO + "variant = 1\n")
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "kfpasf", str(path))
    _assert_validation_error(res)
    assert res.stderr == ("error: validation: kfpasf needs an estimation or "
                          "control scenario, got separation\n")
    assert not out.exists()


_STRAY_SECTIONS = {
    "model": "[model]\nA = 1\nB = 1\nC = 1\nQ = 1e-4\nR = 0.25\n",
    "controller": "[controller]\nstart = 0.5\n",
    "comb": "[comb c1]\nvariant = 1\n",
    "empty comb": "[comb c1]\n",
}


@pytest.mark.parametrize("kind, stray, what", [
    ("estimation", "comb", "[comb c1]"),
    ("estimation", "empty comb", "[comb c1]"),
    ("estimation", "controller", "[controller]"),
    ("estimation", "truth_p = @u", "[scenario] truth_p"),
    ("estimation", "truth_a = @u", "[scenario] truth_a"),
    ("control", "comb", "[comb c1]"),
    ("control", "truth_p = @u", "[scenario] truth_p"),
    ("separation", "model", "[model]"),
    ("separation", "controller", "[controller]"),
    ("separation", "input = @xp", "[scenario] input"),
])
def test_section_or_key_a_kind_does_not_read_is_validation_error(tmp_path, kind,
                                                                 stray, what):
    """A section or [scenario] key that only another kind reads is refused
    on its line, not dropped: an estimation file's [comb] would otherwise
    run no baseline, and a separation file's [model] would be ignored."""
    text = {"estimation": TWO_STATE_SCENARIO,
            "separation": COMB_SCENARIO + "variant = 1\n",
            "control": NUMBERS_SCENARIO}[kind]
    if stray in _STRAY_SECTIONS:
        no = len(text.splitlines()) + 2
        text += "\n" + _STRAY_SECTIONS[stray]
    else:  # a [scenario] key, after duration
        no = text.splitlines().index("duration = 1") + 2
        text = text.replace("duration = 1\n", f"duration = 1\n{stray}\n")
    path = tmp_path / "stray.scn"
    path.write_text(text)
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr == f"error: validation: line {no}: {kind} scenario does not read {what}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["complement", "bode", "kfpasf", "separate"])
def test_out_makes_no_out_dir(tmp_path, command):
    """With ``--out FILE`` a command writes FILE and makes no ``--out-dir``;
    an ``--out`` in a missing directory stays an io error."""
    args = list(_separate_inputs(tmp_path, ["0,1.0", "1,2.0"]))
    if command == "kfpasf":
        (tmp_path / "k.scn").write_text(NUMBERS_SCENARIO)
        args = ["kfpasf", str(tmp_path / "k.scn")]
    elif command != "separate":
        args = [command, "--coeffs", args[2]]
    stray = tmp_path / "stray"
    res = run_cli("--out-dir", str(stray / "deep"), *args, "--out", str(tmp_path / "o.txt"))
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith(f"wrote {tmp_path / 'o.txt'}")
    assert (tmp_path / "o.txt").is_file()
    assert not stray.exists()
    res = run_cli("--out-dir", str(stray / "deep"), *args,
                  "--out", str(tmp_path / "no-such-dir" / "o.txt"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: io:") and len(res.stderr.splitlines()) == 1
    assert not stray.exists()


def test_separate_writes_t_beyond_int64_exactly(tmp_path):
    """A t at or above 2**63 is written back as its exact integer."""
    res = run_cli("--out-dir", str(tmp_path / "out"),
                  *_separate_inputs(tmp_path, ["0,1.0", "1e300,2.0", "9223372036854775808,3.0"]))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "separated.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "0", str(int(1e300)), "9223372036854775808"]


def test_scenario_out_of_memory_is_one_runtime_error_line(tmp_path):
    """sec53 over 1e15 s holds 1e18 samples: its first sample array (8e18
    bytes, beyond any address space) is refused before anything is
    allocated. That is one runtime error line, exit 2, and no output
    directory."""
    with open(os.path.join(_SRC, "pasf", "sec53.scn"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("duration = 15\n") == 1
    path = tmp_path / "huge.scn"
    path.write_text(text.replace("duration = 15\n", "duration = 1e15\n"))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "--no-plot-script", "scenario", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error: runtime: ")
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["scenario", "iir5.scn"],  # sec53 with IIR5: DC gain -1.797 at its 4 s piece
    # np.roots puts the poles of this IIR6 inside the unit circle (it printed
    # stable: True); the exact largest root of its stored denominator is 1.00057
    ["design-iir", "--rho-tilde", "0.06", "--period", "50",
     "--sampling-time", "0.001", "--order", "6"],
])
def test_iir_design_that_misses_its_dc_gain_is_validation_error(tmp_path, args):
    """A high-order IIR pair at a small lifted rho whose stored taps lose
    their unit DC gain is refused: one validation line, exit 1 and no
    output directory, instead of a run whose outputs grow into the
    hundreds."""
    with open(os.path.join(_SRC, "pasf", "sec53.scn"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("filter = iir 3 pasf_n3\n") == 1
    (tmp_path / "iir5.scn").write_text(
        text.replace("filter = iir 3 pasf_n3\n", "filter = iir 5 pasf_n3\n"))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), *args, cwd=tmp_path)
    _assert_validation_error(res)
    assert "DC gain" in res.stderr, res.stderr
    assert not out.exists()


TWO_STATE_SCENARIO = """[scenario]
name = two
kind = estimation
period = 20
sampling_time = 0.01
duration = 1
filter = iir 1
input = @u

[model]
A = 1 T ; 0 1
B = 0 1
C = 1 0
Q = diag 0 1e-4
R = 0.25

[rho]
0 = 1.0

[signal u]
expr = sinusoid 1 3
"""


def test_plot_script_finds_columns_by_name(tmp_path):
    """The .gp of a 2-state run plots y, xp_hat_1 and xa_hat_1 where the
    CSV header has them (fixed positions held only for 3 states)."""
    path = tmp_path / "two.scn"
    path.write_text(TWO_STATE_SCENARIO)
    res = run_cli("--out-dir", str(tmp_path), "scenario", str(path))
    assert res.returncode == 0, res.stderr
    header, data = read_csv(tmp_path / "two.csv")
    assert data.shape[1] == 14
    plots = [ln for ln in (tmp_path / "two.gp").read_text().splitlines()
             if ln.startswith("plot ")]
    want = [f'plot "two.csv" using {header.index("time_s") + 1}:'
            f'{header.index(name) + 1} with lines title "{name}"'
            for name in ("y", "xp_hat_1", "xa_hat_1")]
    assert plots == want


@pytest.mark.parametrize("kind", ["estimation", "separation", "control"])
def test_unknown_warm_start_is_validation_error(tmp_path, kind):
    """Checked with the rest of the scenario, before any noise draw or
    design, for every kind: a separation scenario has no warm start to
    take, and an unknown value is not read as zero."""
    text = {"estimation": TWO_STATE_SCENARIO,
            "separation": COMB_SCENARIO + "variant = 1\n",
            "control": NUMBERS_SCENARIO}[kind]
    path = tmp_path / "warm.scn"
    path.write_text(text.replace("duration = 1\n", "duration = 1\nwarm_start = bogus\n"))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert res.stderr == "error: validation: unknown warm_start 'bogus'\n"
    assert not out.exists()


@pytest.mark.parametrize("filters", [
    "filter = iir 1\nfilter = iir 2 interference\ninterference_window = 0.5 2\n",
    "filter = iir 1\nfilter = iir 2 interference\n",
    "filter = iir 1 interference\n",
])
def test_interference_label_is_reserved(tmp_path, filters):
    """A filter labelled ``interference`` would share its CSV and its result
    with the interference table of a scenario that writes one, so every
    scenario reserves the label, with an interference window or without."""
    path = tmp_path / "two.scn"
    path.write_text(TWO_STATE_SCENARIO.replace("filter = iir 1\n", filters))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert "label 'interference' is reserved" in res.stderr
    assert not out.exists()


def test_fir_design_that_fails_at_a_later_rho_piece_fails_the_run(tmp_path):
    """An FIR design that fails at a later ``[rho]`` piece passes the parse
    (only the band-edge rule is checked there) and fails when the run
    reaches that piece: one error line, a nonzero exit and no output
    directory. A check at parse would make this a validation error."""
    path = tmp_path / "firlate.scn"
    path.write_text("""[scenario]
name = firlate
kind = separation
period = 1000
sampling_time = 0.001
duration = 2
filter = fir 50
truth_p = @p
truth_a = @a

[rho]
0 = 0.5
1 = 1.0

[signal p]
expr = sinusoid 1 6.283185307179586

[signal a]
expr = pulse 0.5 0.6 1
""")
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    assert res.returncode != 0
    assert res.stderr.startswith("error: ")
    assert len(res.stderr.splitlines()) == 1, res.stderr
    assert not out.exists()


def test_complement_subcommand(tmp_path):
    run_cli("--out-dir", str(tmp_path), "design-fir",
            "--rho-tilde", "1.0", "--period", "628",
            "--sampling-time", "0.001", "--order", "20")
    res = run_cli("--out-dir", str(tmp_path), "complement",
                  "--coeffs", str(tmp_path / "fir20_p.txt"))
    assert res.returncode == 0, res.stderr
    text = (tmp_path / "complement.txt").read_text()
    assert text.startswith("aperiodic-pass complementary-of-fir 20")


def test_scenario_determinism_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for out in (a_dir, b_dir):
        res = run_cli("--seed", "5", "--out-dir", str(out), "scenario", "sec53")
        assert res.returncode == 0, res.stderr
    for name in os.listdir(a_dir):
        assert filecmp.cmp(a_dir / name, b_dir / name, shallow=False), name


def test_built_in_scenario_runs_from_any_working_directory(tmp_path):
    """The packaged scenario files are found next to the package, not in
    the working directory."""
    res = run_cli("--out-dir", "out", "--no-plot-script", "scenario", "sec53",
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out" / "sec53_pasf_n3.csv").exists()


def test_scenario_unknown_name_is_validation_failure(tmp_path):
    res = run_cli("--out-dir", str(tmp_path), "scenario", "sec99")
    assert res.returncode == 1
    assert res.stderr.startswith("error: validation:")


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_scenario_replicas_below_one_is_validation_error(tmp_path, replicas):
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", "sec54",
                  "--replicas", replicas)
    _assert_validation_error(res)
    assert not out.exists()


def test_kfpasf_csv_layout(tmp_path):
    scenario_file = tmp_path / "mini.txt"
    scenario_file.write_text("""
[scenario]
name = mini
kind = estimation
period = 20
sampling_time = 0.01
duration = 1
filter = iir 1
input = @u

[model]
A = 1 T 0 ; 0 1 T ; -100 -20 0
B = 0 0 1
C = 1 0 0
Q = diag 0 0 1e-4
R = 0.25
process_noise_variance = 1e-4
observation_noise_variance = 0.25

[rho]
0 = 1.0

[signal u]
expr = constant 5
""")
    res = run_cli("--out-dir", str(tmp_path), "kfpasf", str(scenario_file))
    assert res.returncode == 0, res.stderr
    header, data = read_csv(tmp_path / "mini_kfpasf.csv")
    assert header == ["t", "y", "xhat_1", "xhat_2", "xhat_3",
                      "xp_hat_1", "xp_hat_2", "xp_hat_3",
                      "xa_hat_1", "xa_hat_2", "xa_hat_3", "trP"]
    assert data.shape == (100, 12)
    assert np.array_equal(data[:, 0], np.arange(1, 101))


def test_replicas_write_per_replica_dirs_and_merged_summary(tmp_path):
    res = run_cli("--seed", "2", "--out-dir", str(tmp_path), "scenario",
                  "sec53", "--replicas", "2")
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "replica000" / "sec53_pasf_n3.csv").exists()
    assert (tmp_path / "replica001" / "sec53_pasf_n3.csv").exists()
    header, data = read_csv(tmp_path / "sec53_replicas.csv")
    assert header[:2] == ["replica", "seed"]
    assert "pasf_n3_rms_interference" in header
    assert data.shape[0] == 2
    assert list(data[:, 1]) == [2.0, 3.0]  # merged in seed order


def test_plot_script_flag(tmp_path):
    res = run_cli("--out-dir", str(tmp_path), "--no-plot-script",
                  "scenario", "sec53")
    assert res.returncode == 0
    assert not (tmp_path / "sec53.gp").exists()


@pytest.mark.skipif(shutil.which("gnuplot") is None,
                    reason="gnuplot not installed")
def test_plot_script_renders(tmp_path):
    res = run_cli("--out-dir", str(tmp_path), "scenario", "sec53")
    assert res.returncode == 0
    render = subprocess.run(["gnuplot", "sec53.gp"], cwd=tmp_path,
                            capture_output=True, text=True)
    assert render.returncode == 0, render.stderr
    assert (tmp_path / "sec53.png").exists()
