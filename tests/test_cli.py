"""Command-line surface: subcommands, CSV formats, exit codes, determinism."""

import filecmp
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from pasf.csvio import export_csv, format_value, read_csv
from pasf.design import SeparationSpec, design_iir
from pasf.response import bode_table, default_grid
from pasf.scenarios import FilterChoice, build_sec52, run_estimation


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, cwd=None):
    # the package under test is the source tree, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
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


def test_csv_export_empty_and_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"
    rows = [(1.0 / 3.0, 2.0 ** 0.5), (1e-7, 12345.678901234)]
    path2 = tmp_path / "vals.csv"
    export_csv(path2, ["x", "y"], rows)
    _, data = read_csv(path2)
    for (x, y), (rx, ry) in zip(rows, data):
        # 12 significant digits survive the round trip
        assert rx == float(f"{x:.12g}")
        assert ry == float(f"{y:.12g}")


def _format_value_csv(header, rows) -> bytes:
    """The per-value reference that export_csv's row template must match."""
    lines = [",".join(header)]
    lines += [",".join(format_value(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _row_sets():
    """Rows with the column types of each export_csv caller, plus random,
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
        "scenario": (run.csv_header(), list(run.csv_rows())),
        "interference": (["t", "time_s", "a", "b"],
                         list(zip(t, t * 0.001, mixed, mixed[::-1]))),
        "replicas": (["replica", "seed", "x", "y"],
                     [[i, 2 ** 40 + i, float(v), float(-v)]
                      for i, v in enumerate(mixed)]),
        "separate": (["t", "x", "xp", "xa"],
                     [(int(i), v, float(v) / 3.0, float(-v)) for i, v in zip(t, mixed)]),
        "bode": (["omega_rad_s", "gain_db", "phase_deg"], list(bode.rows())),
        "extremes": (["a", "b", "c"], [tuple(mixed[i:i + 3])
                                       for i in range(len(mixed) - 2)]),
    }


@pytest.mark.parametrize("caller", ["scenario", "interference", "replicas",
                                    "separate", "bode", "extremes"])
def test_export_csv_bytes_equal_format_value(tmp_path, caller):
    header, rows = _row_sets()[caller]
    path = tmp_path / "out.csv"
    export_csv(path, header, iter(rows))
    assert path.read_bytes() == _format_value_csv(header, rows)


def test_separate_rejects_non_finite_coefficient_file(tmp_path):
    run_cli("--out-dir", str(tmp_path), "design-iir",
            "--rho-tilde", "2.5", "--period", "20",
            "--sampling-time", "0.01", "--order", "1")
    p_file = tmp_path / "iir1_p.txt"
    head, feedback, feedforward = p_file.read_text().splitlines()
    p_file.write_text("\n".join([head, "nan", feedforward]) + "\n")
    export_csv(tmp_path / "in.csv", ["t", "x"], [(0, 1.0), (1, 2.0)])
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
    export_csv(tmp_path / "in.csv", ["t", "x"], list(zip(range(100), x)))
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
