"""Scenario definitions, runners, and the text-file grammar."""

import re
from dataclasses import replace

import numpy as np
import pytest

from pasf.errors import InvalidArgumentError
from pasf.scenario_io import parse_scenario
from pasf.scenarios import (
    FilterChoice,
    build_sec51,
    build_sec52,
    built_in,
    rho_at,
    rho_series,
    run_estimation,
    run_scenario,
)


def test_built_in_names():
    for name in ("sec51", "sec52", "sec53", "sec54"):
        scn = built_in(name, 0)
        scn.validate()
    with pytest.raises(InvalidArgumentError):
        built_in("sec99")


def test_rho_schedule_lookup():
    sched = ((0.0, 10.0), (40.0, 0.2), (80.0, 10.0), (100.0, 0.01))
    assert rho_at(sched, 0.0) == 10.0
    assert rho_at(sched, 39.999) == 10.0
    assert rho_at(sched, 40.0) == 0.2
    assert rho_at(sched, 85.0) == 10.0
    assert rho_at(sched, 119.0) == 0.01
    series = rho_series(sched, 120_000, 0.001)
    assert series[39_998] == 10.0     # step 39999, Tt = 39.999
    assert series[39_999] == 0.2      # step 40000, Tt = 40.0 exactly
    assert series[79_999] == 10.0
    assert series[99_999] == 0.01


def test_sec51_full_run_row_count_and_switches(tmp_path):
    out = run_scenario("sec51", seed=0, out_dir=str(tmp_path),
                       plot_script=False)
    run = out["results"]["iir1"]
    scn = build_sec51()
    assert len(run.t) == scn.steps == int(scn.duration_s / scn.sampling_time)
    assert run.rho[39_998] == 10.0 and run.rho[39_999] == 0.2
    assert run.rho[79_998] == 0.2 and run.rho[79_999] == 10.0
    assert np.all(np.isfinite(run.xp_upd)) and np.all(np.isfinite(run.xa_upd))


def test_sec53_outputs_and_interference_file(tmp_path):
    out = run_scenario("sec53", seed=0, out_dir=str(tmp_path),
                       plot_script=True)
    names = sorted(f.split("/")[-1] for f in out["files"])
    assert names == [
        "sec53.gp",
        "sec53_comb1.csv",
        "sec53_comb2.csv",
        "sec53_comb3.csv",
        "sec53_interference.csv",
        "sec53_pasf_n3.csv",
    ]
    # the emitted plot script only references files that were written
    with open([f for f in out["files"] if f.endswith(".gp")][0]) as fh:
        script = fh.read()
    for ref in re.findall(r'"([^"]+\.csv)"', script):
        assert (tmp_path / ref).exists(), ref


def test_scaled_estimation_run_tracks_truth():
    """A short scaled scenario sanity check: estimates stay near the truth."""
    scn = replace(build_sec52(), duration_s=3.0, interference_window_s=None)
    run = run_estimation(scn, FilterChoice("iir", 1), seed=0)
    err = run.x_true[:, 0] - run.x_upd[:, 0]
    assert np.sqrt(np.mean(err[1000:] ** 2)) < 0.05
    assert np.all(np.isfinite(run.tr_p))


SCENARIO_TEXT = """
# custom estimation scenario
[scenario]
name = demo
kind = estimation
period = 50
sampling_time = 0.01
duration = 3
filter = iir 2
input = @u

[model]
A = 1 T 0 ; 0 1 T ; -100 -20 0
B = 0 0 1
C = 1 0 0
Q = diag 0 0 1e-4
R = 0.25
P0 = zeros
process_noise_variance = 1e-4
observation_noise_variance = 0.25

[rho]
0 = 1.0
2 = 0.1

[signal u1]
kind = schedule
piece = 0 1 constant 0
piece = 1 inf harmonic-sum 2 1:1 0.25:2

[signal u2]
expr = pulse 1.5 1.6 2.0

[signal u]
kind = scale
factor = 10
of = @u1 @u2
"""


def test_scenario_file_round_trip():
    scn = parse_scenario(SCENARIO_TEXT, seed=3)
    assert scn.name == "demo"
    assert scn.kind == "estimation"
    assert scn.period == 50
    assert scn.rho_schedule == ((0.0, 1.0), (2.0, 0.1))
    assert scn.filters[0].order == 2
    assert scn.A[2, 0] == -100.0
    assert scn.A[0, 1] == 0.01  # the T token
    run = run_estimation(scn, scn.filters[0], seed=3)
    assert len(run.t) == 300
    assert np.all(np.isfinite(run.x_upd))


def test_scenario_file_filter_key_repeats_in_file_order():
    two = SCENARIO_TEXT.replace("filter = iir 2\n",
                                "filter = iir 2\nfilter = fir 4 short\n")
    scn = parse_scenario(two)
    assert [(f.realization, f.order, f.label) for f in scn.filters] == [
        ("iir", 2, "iir2"), ("fir", 4, "short")]
    # every other key still may appear only once
    with pytest.raises(InvalidArgumentError, match="duplicate key 'period'"):
        parse_scenario(two.replace("period = 50\n", "period = 50\nperiod = 60\n"))
    # two runs with one label would write one output file twice
    with pytest.raises(InvalidArgumentError, match="unique"):
        parse_scenario(two.replace("fir 4 short", "iir 2"))
    with pytest.raises(InvalidArgumentError, match="unique"):
        parse_scenario(SEPARATION_TEXT.replace("[comb mycomb]", "[comb pasf]"))


def test_scenario_file_errors_have_line_numbers():
    with pytest.raises(InvalidArgumentError) as err:
        parse_scenario("[scenario]\nbroken line\n")
    assert "line 2" in str(err.value)
    with pytest.raises(InvalidArgumentError):
        parse_scenario("[scenario]\nkind = estimation\n")  # missing keys


def test_scenario_file_undefined_signal():
    bad = SCENARIO_TEXT.replace("of = @u1 @u2", "of = @u1 @nope")
    with pytest.raises(InvalidArgumentError) as err:
        parse_scenario(bad)
    assert "nope" in str(err.value)


SEPARATION_TEXT = """
[scenario]
name = sepdemo
kind = separation
period = 20
sampling_time = 0.01
duration = 4
filter = iir 1 pasf
truth_p = @xp
truth_a = @xa
interference_window = 1 4

[rho]
0 = 2.0

[signal xp]
expr = gated-sine 31.4159265 20 10

[signal xa]
expr = pulse 2.0 2.1 0.5

[comb mycomb]
variant = 3
gain = 0.708
q = 0:1.717 2:100
"""


def test_separation_scenario_file(tmp_path):
    scn = parse_scenario(SEPARATION_TEXT, seed=0)
    assert scn.kind == "separation"
    assert scn.combs[0].label == "mycomb"
    assert len(scn.combs[0].schedule) == 2
    out = run_scenario(scn, seed=0, out_dir=str(tmp_path),
                       plot_script=False)
    assert "pasf" in out["results"] and "mycomb" in out["results"]


def test_sec54_estimates_converge_to_commands():
    """Qualitative convergence after controller activation: the separated
    estimates settle near their commands (the structural harmonic lag of the
    configured gains is below fifteen percent of the command scale)."""
    scn = built_in("sec54", 0)
    run = run_estimation(scn, scn.filters[0], seed=0)
    steps = scn.steps
    window = slice(steps - 10_000, steps)
    rms = lambda x: float(np.sqrt(np.mean(np.asarray(x) ** 2)))
    ratio_p = rms(run.xp_upd[window, 0] - run.cmd_p[window]) / rms(run.cmd_p[window])
    ratio_a = rms(run.xa_upd[window, 0] - run.cmd_a[window]) / rms(run.cmd_a[window])
    assert ratio_p < 0.15
    assert ratio_a < 0.05
    # before activation the input is held at zero
    assert np.all(run.u[: int(5.0 / scn.sampling_time)] == 0.0)


def test_sec52_warm_start_suppresses_initial_transient():
    scn = replace(build_sec52(), duration_s=2.0, interference_window_s=None)
    run = run_estimation(scn, FilterChoice("iir", 1), seed=0)
    # with histories given beforehand the split is already settled at t = 0:
    # the quasi-aperiodic estimate carries no startup step
    assert np.max(np.abs(run.xa_upd[:200, 0])) < 0.2
    err0 = abs(run.xp_upd[0, 0] - run.x_true[0, 0])
    assert err0 < 0.2
