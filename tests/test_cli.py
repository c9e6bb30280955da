"""Command-line surface: subcommands, CSV formats, exit codes, determinism."""

import filecmp
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pasf import cli, csvio
from pasf.csvio import export_csv, format_value, read_csv
from pasf.design import SeparationSpec, design_iir, save_coefficients
from pasf.errors import InvalidArgumentError
from pasf.response import bode_table, default_grid
from pasf.runtime import PasfState
from pasf.scenarios import FilterChoice, build_sec52, run_estimation


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
                         [("nan", "0.001"), ("inf", "0.001"), ("1.0", "nan")])
def test_design_iir_non_finite_spec_is_validation_error(tmp_path, rho_tilde,
                                                        sampling_time):
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "design-iir",
                  "--rho-tilde", rho_tilde, "--period", "1000",
                  "--sampling-time", sampling_time, "--order", "1")
    _assert_validation_error(res)
    assert not out.exists()


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
    scn = replace(build_sec52(), duration_s=0.05, interference_window_s=None)
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
    """Every chunk boundary writes the bytes of format_value joined per row,
    for int and float arrays, int lists and lists of np.float64."""
    rng = np.random.default_rng(rows)
    special = [-0.0, 1e-300, 1e300, np.nan, 0.0, -1e300, np.inf, -np.inf]
    floats = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
    floats[::7][:len(special)] = special[:len(floats[::7])]
    columns = {
        "i_arr": np.arange(rows) - rows // 2,
        "f_arr": floats,
        "i_list": [int(v) for v in rng.integers(-2 ** 62, 2 ** 62, rows)],
        "f64_list": [np.float64(v) for v in floats[::-1]],
    }
    path = tmp_path / "chunks.csv"
    export_csv(path, columns)
    assert path.read_bytes() == _format_value_csv(columns)


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


@pytest.mark.parametrize("rows, message", [
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
])
def test_separate_malformed_input_is_validation_error(tmp_path, rows, message):
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), *_separate_inputs(tmp_path, rows))
    _assert_validation_error(res)
    assert message in res.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("line, bad, message", [
    ("sampling_time = 0.01", "sampling_time = -0.01", "sampling_time must be positive"),
    ("duration = 1", "duration = 0", "duration must hold at least one sample"),
    ("duration = 1", "duration = 0.004", "duration must hold at least one sample"),
    ("duration = 1", "duration = 1\nsettle = -5\nwarm_start = periodic",
     "settle must be >= 0"),
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


def test_interference_label_is_reserved(tmp_path):
    """A filter labelled ``interference`` would share its CSV and its result
    with the interference table of a scenario that writes one."""
    path = tmp_path / "two.scn"
    path.write_text(TWO_STATE_SCENARIO.replace(
        "filter = iir 1\n",
        "filter = iir 1\nfilter = iir 2 interference\ninterference_window = 0.5 2\n"))
    out = tmp_path / "out"
    res = run_cli("--out-dir", str(out), "scenario", str(path))
    _assert_validation_error(res)
    assert "label 'interference' is reserved" in res.stderr
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
