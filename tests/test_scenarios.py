"""Scenario definitions, runners, and the text-file grammar."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import ast
import glob

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pasf import design, scenario_io, scenarios
from pasf import signals as sig
from pasf.baselines import CombSpec, comb_pair
from pasf.design import (
    SeparationSpec,
    design_fir_equiripple,
    design_for,
    design_iir,
    forget_designs,
    make_complementary,
)
from pasf.errors import InvalidArgumentError, PasfError, UnsupportedReconfigurationError
from pasf.kalman import SystemModel
from pasf.kfpasf import KfPasfState, zero_histories
from pasf.runtime import PasfState, SeparatorBank, SeparatorCore
from pasf.scenario_io import _LEAF_ARGS, _SECTION_KEYS, BUILT_INS, built_in, parse_scenario
from pasf.scenarios import (
    KINDS,
    CombBaseline,
    FilterChoice,
    Scenario,
    design_pair,
    rho_at,
    rho_series,
    run_estimation,
    run_scenario,
    run_separation,
)
from pasf.values import replace


def test_built_in_names(monkeypatch):
    for name in ("sec51", "sec52", "sec53", "sec54"):
        assert built_in(name, 0).name == name

    def load_scenario(path, seed=0):
        raise AssertionError(f"opened {path}")

    # a name outside the four is refused before any file is looked up
    monkeypatch.setattr(scenario_io, "load_scenario", load_scenario)
    for name in ("sec99", "../sec51", "sec51.scn", "/sec51", ""):
        with pytest.raises(InvalidArgumentError, match=re.escape(
                "built-ins: ['sec51', 'sec52', 'sec53', 'sec54']")):
            built_in(name)


# each value token of a packaged file is replaced in turn by each of these
_MUTANT_TOKENS = ("nan", "inf", "1e309", "1e-320", "5e-324", "-0", "", "x", "@nope")


@pytest.mark.parametrize("name", BUILT_INS)
def test_packaged_file_mutants_parse_or_raise_typed_errors(name):
    """A packaged scenario file with one value token replaced by a bad one
    either parses or raises one of the package's typed errors: nothing else
    escapes parse_scenario (and the validate it ends with), and nothing
    warns."""
    path = os.path.join(os.path.dirname(scenario_io.__file__), f"{name}.scn")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    mutants = 0
    for no, line in enumerate(lines):
        key, eq, value = line.split("#", 1)[0].partition("=")
        tokens = value.split()
        for i in range(len(tokens) if eq else 0):
            for bad in _MUTANT_TOKENS:
                mutated = f"{key}= {' '.join(tokens[:i] + [bad] + tokens[i + 1:])}"
                text = "\n".join(lines[:no] + [mutated] + lines[no + 1:])
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        parse_scenario(text, seed=0)
                except PasfError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{name}.scn line {no + 1}: {mutated!r}: {exc!r}")
                mutants += 1
    assert mutants > 100


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


def test_rho_and_comb_pieces_switch_at_one_sample(monkeypatch):
    """One rule decides the piece in force at sample time t: the last whose
    start is at most t + 1e-12 s. A rho piece and a comb piece starting
    5e-13 s after the tenth sample time (0.1 s) both switch before that
    sample, in both passes; a comb pass starts on the piece in force at its
    first sample."""
    T, period, start = 0.01, 4, 0.1 + 5e-13
    old, new = CombSpec(2, period, T, b=0.5), CombSpec(2, period, T, b=0.2)
    scn = Scenario(
        name="one-rule", kind="separation", period=period, sampling_time=T,
        duration_s=0.3, rho_schedule=((0.0, 1.0), (start, 3.0)),
        filters=(FilterChoice("iir", 1, label="pasf"),),
        truth_p=sig.Constant(1.0), truth_a=sig.Pulse(0.05, 0.15, 0.5),
        combs=(CombBaseline("comb", ((0.0, old), (start, new))),
               CombBaseline("late", ((0.0, old), (0.005, new))),
               CombBaseline("plain", ((0.0, new),))),
    )
    rho = rho_series(scn.rho_schedule, scn.steps, T)
    tt = np.arange(1, scn.steps + 1) * T
    assert [rho_at(scn.rho_schedule, t) for t in tt.tolist()] == rho.tolist()
    assert rho[9] == 3.0 and rho[8] == 1.0

    switched_at = []
    for name in ("reconfigure", "swap_coefficients"):
        def record(state, *args, _original=getattr(PasfState, name), **kwargs):
            switched_at.append(state.core.t)
            return _original(state, *args, **kwargs)
        monkeypatch.setattr(PasfState, name, record)
    runs = {run.label: run for run in run_separation(scn)}
    assert switched_at == [9, 9, 9, 9]  # pasf and comb, two passes each
    for field in ("xp", "xa", "interference"):
        got, want = getattr(runs["late"], field), getattr(runs["plain"], field)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _bank_bits(bank):
    return [bank.G.tobytes(), bank.H.tobytes(), bank.sp, bank.sa]


def test_estimation_designs_first_filter_at_reported_rho(monkeypatch):
    """A rho switch within the rho series' tolerance of the first sample
    time: the first filter is designed at the rho the CSV reports, and no
    reconfiguration follows."""
    scn = replace(built_in("sec52", 0), period=4, duration_s=0.02, warm_start="zero",
                  rho_schedule=((0.0, 1.0), (0.0010000000000005, 2.0)),
                  interference_window_s=None)
    choice = FilterChoice("iir", 1)
    banks = []

    class Recording(KfPasfState):
        def __init__(self, *args):
            super().__init__(*args)
            banks.append(self.bank)

    monkeypatch.setattr(scenarios, "KfPasfState", Recording)
    reconfigures = _count_calls(monkeypatch, KfPasfState, "reconfigure")
    run = run_estimation(scn, choice, seed=0)
    assert list(run.columns()["rho_tilde"]) == [2.0] * scn.steps
    want = design_pair(choice, run.rho[0], scn.period, scn.sampling_time)
    assert _bank_bits(banks[0]) == _bank_bits(SeparatorBank(*want))
    assert reconfigures == []


@pytest.mark.parametrize("realization, order, design, complement", [
    ("iir", 2, design_iir, False),
    ("fir", 4, design_fir_equiripple, False),
    ("iir-complementary", 2, design_iir, True),
    ("fir-complementary", 4, design_fir_equiripple, True),
])
def test_every_redesign_installs_the_designed_pair(realization, order, design,
                                                   complement):
    """design_pair and both reconfigure methods install the designed pair,
    with its complement where the realization names one; a comb pair or a
    period change is refused and leaves the bank as it was."""
    period, T = 8, 0.01
    first, second = SeparationSpec(1.0, period, T), SeparationSpec(3.0, period, T)

    def designed(spec):
        p, a = design(spec, order)
        if complement:
            a = make_complementary(p)
        return _bank_bits(SeparatorBank(p, a))

    pair = design_pair(FilterChoice(realization, order), first.rho_tilde, period, T)
    assert _bank_bits(SeparatorBank(*pair)) == designed(first)

    model = SystemModel(A=[[1.0, T], [0.0, 1.0]], B=[[0.0], [T]],
                        C=[[1.0, 0.0]], Q=np.eye(2) * 1e-4, R=[[1.0]])
    comb = comb_pair(CombSpec(1, period, T))
    designed_states = [
        PasfState(*pair),
        KfPasfState(model, *pair, zero_histories(model, order, period), np.eye(2)),
    ]
    comb_states = [
        PasfState(*comb),
        KfPasfState(model, *comb, zero_histories(model, 1, period), np.eye(2)),
    ]
    for state in designed_states:
        state.reconfigure(second)
        assert _bank_bits(state.bank) == designed(second)
    moved = SeparationSpec(3.0, period + 1, T)
    for state, spec in ([(s, moved) for s in designed_states]
                        + [(s, second) for s in comb_states]):
        bank = state.bank
        with pytest.raises(UnsupportedReconfigurationError):
            state.reconfigure(spec)
        assert state.bank is bank


def test_sec51_full_run_row_count_and_switches(tmp_path):
    out = run_scenario(built_in("sec51", 0), seed=0, out_dir=str(tmp_path),
                       plot_script=False)
    run = out["results"]["iir1"]
    scn = built_in("sec51", 0)
    assert len(run.t) == scn.steps == int(scn.duration_s / scn.sampling_time)
    assert run.rho[39_998] == 10.0 and run.rho[39_999] == 0.2
    assert run.rho[79_998] == 0.2 and run.rho[79_999] == 10.0
    assert np.all(np.isfinite(run.xp_upd)) and np.all(np.isfinite(run.xa_upd))


def test_sec53_outputs_and_interference_file(tmp_path):
    out = run_scenario(built_in("sec53", 0), seed=0, out_dir=str(tmp_path),
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
    scn = replace(built_in("sec52", 0), duration_s=3.0, interference_window_s=None)
    run = run_estimation(scn, FilterChoice("iir", 1), seed=0)
    err = run.x_true[:, 0] - run.x_upd[:, 0]
    assert np.sqrt(np.mean(err[1000:] ** 2)) < 0.05
    assert np.all(np.isfinite(run.tr_p))


@pytest.mark.parametrize("n", [1, 3])
def test_simulate_plant_equals_the_per_step_form_bitwise(n):
    """n = 1 takes the ``@`` fallback of the bound product; a zero plant
    from x0 = -0.0 keeps signed zeros, and a NaN input poisons the rest."""
    rng = np.random.default_rng(9)
    A = rng.standard_normal((n, n)) * 0.5
    B = rng.standard_normal(n)
    u = np.concatenate([rng.standard_normal(200) * 1e3, [-0.0, 0.0, 1e-300],
                        [-1.0, -0.0, -0.0, 1.0, -0.0, 0.0, -0.0],
                        [np.nan, 1.0, -0.0]])
    for A, x0 in ((A, rng.standard_normal(n)),
                  (-0.0 * A, np.full(n, -0.0))):
        states = scenarios.simulate_plant(A, B, u, x0)
        x = x0
        for i, ui in enumerate(u):
            x = A @ x + B * ui
            assert x.tobytes() == states[i].tobytes(), i
    assert np.isnan(states[-1]).all()


def test_estimation_run_equals_the_per_tick_form_bitwise(monkeypatch):
    """The estimation kind forms B (u + v) up front and takes trace(P) only
    for a new P; the plant states and trP match the per-tick forms."""
    scn = replace(built_in("sec52", 0), duration_s=1.0, interference_window_s=None)
    traces = []
    step = KfPasfState.step

    def recording(self, u, y):
        rec = step(self, u, y)
        traces.append(np.trace(rec.P))
        return rec

    monkeypatch.setattr(KfPasfState, "step", recording)
    run = run_estimation(scn, FilterChoice("iir", 1), seed=3)
    v = sig.GaussianStream(sig.NoiseSpec(
        0.0, scn.process_noise_variance, scenarios._stream_seed(3, 1))).draw(scn.steps)
    Bf = scn.B.reshape(-1)
    x = run.pre_tail[-1]
    for i in range(scn.steps):
        x = scn.A @ x + Bf * (run.u[i] + v[i])
        assert x.tobytes() == run.x_true[i].tobytes()
    assert np.array(traces).tobytes() == run.tr_p.tobytes()


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


@pytest.mark.parametrize("line, bad, message", [
    ("2 = 0.1", "2 = 0", "rho piece at 2 s: rho_tilde <= 0"),
    ("2 = 0.1", "2 = -1", "rho piece at 2 s: rho_tilde <= 0"),
    ("2 = 0.1", "2 = 1e308", "rho piece at 2 s: rho = rho_tilde*period*T overflows"),
    ("filter = iir 2", "filter = iir 2\nfilter = iir 9 bad", "IIR order 9 > 8"),
    ("filter = iir 2", "filter = iir 2\nfilter = iir 0 bad", "order must be >= 1"),
    ("filter = iir 2", "filter = iir 2\nfilter = fir 5 bad",
     "FIR order must be even and >= 4"),
    ("filter = iir 2", "filter = iir 2\nfilter = fir-complementary 2 bad",
     "FIR order must be even and >= 4"),
    ("input = @u", "input = @u\ninterference_window = 2 1",
     "interference window must satisfy"),
    ("input = @u", "input = @u\ninterference_window = 1 1",
     "interference window must satisfy"),
    ("input = @u", "input = @u\ninterference_window = -1 2",
     "interference window must satisfy"),
    ("input = @u", "input = @u\ninterference_window = 1 4",
     "interference window must satisfy"),
    # an FIR filter designs at its default band edges, rho and 3 rho < pi
    (("filter = iir 2", "2 = 0.1"), ("filter = iir 2\nfilter = fir 4", "2 = 3"),
     "rho piece at 2 s, filter fir4: band edges must satisfy 0 < passband (1.5) "
     "< stopband (3.14159) < pi"),
    (("filter = iir 2", "2 = 0.1"), ("filter = fir-complementary 4 f", "2 = 1e-9"),
     "rho piece at 2 s, filter f: passband edge 5e-10 puts every passband grid "
     "node at cos = 1"),
    # the boundaries themselves, and an out-of-band piece, are valid
    ("input = @u", "input = @u\ninterference_window = 0 3", None),
    ("2 = 0.1", "2 = 100", None),
    (("filter = iir 2", "2 = 0.1"), ("filter = fir 4", "2 = 2"), None),
])
def test_scenario_checks_rho_pieces_orders_and_window_when_parsed(line, bad,
                                                                  message):
    """Every ``[rho]`` value passes the designs' spec check (out of band
    allowed) and, with an FIR filter, its band-edge rule, every filter order
    the designs' order rule, and the interference window lies within the
    run, before any sample is run. A case edits one line or a tuple of
    lines."""
    lines, bads = (line, bad) if isinstance(line, tuple) else ((line,), (bad,))
    text = SCENARIO_TEXT
    for old, new in zip(lines, bads):
        text = text.replace(old, new)
    if message is None:
        parse_scenario(text)
        return
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        parse_scenario(text)


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


def test_complementary_filters_of_a_file_run_the_designed_pair(monkeypatch):
    """``filter = iir-complementary 2`` and ``fir-complementary 8`` run, in
    both passes, the very pair ``design_for`` gives for
    ``complementary-of-iir`` and ``complementary-of-fir``: the designed
    periodic-pass filter and its exact complement."""
    scn = parse_scenario(SEPARATION_TEXT.replace(
        "filter = iir 1 pasf\n",
        "filter = iir-complementary 2\nfilter = fir-complementary 8\n"))
    started = []

    class Recording(PasfState):
        def __init__(self, p, a, *args, **kwargs):
            started.append((p, a))
            super().__init__(p, a, *args, **kwargs)

    monkeypatch.setattr(scenarios, "PasfState", Recording)
    runs = run_separation(scn)
    spec = SeparationSpec(2.0, scn.period, scn.sampling_time)
    for k, (choice, base) in enumerate(zip(scn.filters, ("iir", "fir"))):
        pair = design_for(f"complementary-of-{base}", spec, choice.order,
                          allow_out_of_band=True)
        assert started[2 * k][0] is started[2 * k + 1][0] is pair[0]
        assert started[2 * k][1] is started[2 * k + 1][1] is pair[1]
        assert (pair[0].realization, pair[1].realization) == (
            base, f"complementary-of-{base}")
        xp, xa = PasfState(*pair).run(runs[k].x_pa)
        assert np.array_equal(runs[k].xp.view(np.int64), xp.view(np.int64))
        assert np.array_equal(runs[k].xa.view(np.int64), xa.view(np.int64))


def test_empty_signal_section_names_the_referring_line():
    text = SCENARIO_TEXT.replace("expr = pulse 1.5 1.6 2.0\n", "")
    no = text.splitlines().index("of = @u1 @u2") + 1
    with pytest.raises(InvalidArgumentError,
                       match=f"line {no}: signal u2 needs kind or expr"):
        parse_scenario(text)


@pytest.mark.parametrize("flags, include_start, include_end", [
    (" openstart", False, True), (" openend", True, False),
    (" openstart openend", False, False), (" openend openstart", False, False),
])
def test_pulse_flags_open_its_ends(flags, include_start, include_end):
    text = SCENARIO_TEXT.replace("of = @u1 @u2", "of = @u2").replace(
        "expr = pulse 1.5 1.6 2.0", "expr = pulse 1.5 1.6 2.0" + flags)
    assert parse_scenario(text).input_u.inner == sig.Pulse(
        1.5, 1.6, 2.0, include_start=include_start, include_end=include_end)


def test_scale_of_one_reference_is_that_signal():
    scn = parse_scenario(SCENARIO_TEXT.replace("of = @u1 @u2", "of = @u2"))
    assert scn.input_u == sig.Scaled(10.0, sig.Pulse(1.5, 1.6, 2.0))
    scn = parse_scenario(SCENARIO_TEXT)
    assert isinstance(scn.input_u.inner, sig.Sum)
    assert len(scn.input_u.inner.parts) == 2


@pytest.mark.parametrize("field, value", [
    ("name", "../escaped"), ("name", "a/b"), ("name", ".."), ("name", ""),
    ("filter", "sub/pasf"), ("filter", "."), ("comb", ".."),
    ("comb", "my\\comb"),
])
def test_output_names_must_be_plain_file_names(field, value):
    """The scenario name and each label name an output file in the output
    directory, so each is one plain path component; a Scenario refuses any
    other when it is made, so no run can start."""
    scn = parse_scenario(SEPARATION_TEXT)
    with pytest.raises(InvalidArgumentError, match="must be a plain file name"):
        if field == "name":
            replace(scn, name=value)
        elif field == "filter":
            replace(scn, filters=(FilterChoice("iir", 1, value),))
        else:
            replace(scn, combs=(replace(scn.combs[0], label=value),))
    if field == "name":
        with pytest.raises(InvalidArgumentError, match="must be a plain file name"):
            parse_scenario(SEPARATION_TEXT.replace("name = sepdemo",
                                                   f"name = {value}"))


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
    scn = replace(built_in("sec52", 0), duration_s=2.0, interference_window_s=None)
    run = run_estimation(scn, FilterChoice("iir", 1), seed=0)
    # with histories given beforehand the split is already settled at t = 0:
    # the quasi-aperiodic estimate carries no startup step
    assert np.max(np.abs(run.xa_upd[:200, 0])) < 0.2
    err0 = abs(run.xp_upd[0, 0] - run.x_true[0, 0])
    assert err0 < 0.2


def test_periodic_warm_start_holds_no_history_copies():
    """A periodic warm start of FIR50 on sec52's 3-state plant at period
    1000 fills the estimator's rings straight from the pre-run's states:
    the traced peak of ``run_estimation`` stays under the rings (3.6 MB)
    plus the pre-run states (1.25 MB) plus a 1.5 MB margin. The margin
    covers the smaller arrays (noise, outputs, theta rows and build
    temporaries, about 0.9 MB measured); one more history-sized array
    (1.2 MB) exceeds it, and the two DC-gain copies that a warm start
    used to make (2.4 MB) do. The design is made before tracing, so its
    temporaries do not count."""
    scn = built_in("sec52", 0)
    fir = next(f for f in scn.filters if f.realization == "fir")
    scn = replace(scn, duration_s=0.2, filters=(fir,), interference_window_s=None)
    depth, n = fir.order * scn.period, scn.A.shape[0]
    rings = 3 * depth * n * 8
    prerun = (round(scn.settle_s / scn.sampling_time) + depth) * n * 8
    run_estimation(scn, fir, seed=0)  # designs the pair
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_estimation(scn, fir, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < rings + prerun + 1.5e6, (peak, rings, prerun)


def _switching_scenario() -> Scenario:
    """60 samples at period 7: rho switches at sample 9 (mid-period) and 14
    (a period boundary); comb2's last two pieces start within sample 40, so
    only the last of them swaps in; comb3's first piece starts after 0 and
    its second repeats the first's spec, so only its third (sample 29)
    swaps."""
    T, period = 0.01, 7
    q_low = CombSpec(3, period, T, gain_mag=0.708, q=1.717)
    q_high = CombSpec(3, period, T, gain_mag=0.708, q=50.0)
    return Scenario(
        name="switching", kind="separation", period=period, sampling_time=T,
        duration_s=0.6, rho_schedule=((0.0, 2.0), (0.1, 6.0), (0.15, 2.0)),
        filters=(FilterChoice("iir", 2, label="pasf"),),
        truth_p=sig.GatedSine(omega=2 * np.pi / (period * T), gate_period=20,
                              duty=10),
        truth_a=sig.Pulse(0.2, 0.25, 0.5),
        combs=(
            CombBaseline("comb1", ((0.0, CombSpec(1, period, T)),)),
            CombBaseline("comb2", ((0.0, CombSpec(2, period, T, b=0.5)),
                                   (0.401, CombSpec(2, period, T, b=0.2)),
                                   (0.405, CombSpec(2, period, T, b=0.3)))),
            CombBaseline("comb3", ((0.05, q_low), (0.2, q_low), (0.3, q_high))),
        ),
    )


def _hand_separation(scn, source, stream, rho):
    """A separation pass the way the runners stepped before ``run``: rho
    compared and the comb piece in force looked up at every sample."""
    T = scn.sampling_time
    tt = np.arange(1, len(stream) + 1) * T
    if isinstance(source, FilterChoice):
        state = PasfState(*design_pair(source, rho[0], scn.period, T))
        current = rho[0]
    else:
        state = PasfState(*comb_pair(source.schedule[0][1]))
        current = source.schedule[0][1]
    xp, xa = np.empty(len(stream)), np.empty(len(stream))
    for i, x in enumerate(stream):
        if isinstance(source, FilterChoice):
            if rho[i] != current:
                state.reconfigure(SeparationSpec(rho[i], scn.period, T),
                                  allow_out_of_band=True)
                current = rho[i]
        else:
            spec = source.schedule[0][1]
            for start, piece in source.schedule:
                if tt[i] >= start:
                    spec = piece
            if spec != current:
                state.swap_coefficients(*comb_pair(spec))
                current = spec
        xp[i], xa[i] = state.step(x)
    return xp, xa


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_scheduled_runs_equal_per_sample_switching(monkeypatch):
    scn = _switching_scenario()
    rho = rho_series(scn.rho_schedule, scn.steps, scn.sampling_time)
    assert list(np.flatnonzero(rho[1:] != rho[:-1]) + 1) == [9, 14]
    swaps = _count_calls(monkeypatch, SeparatorCore, "swap_bank")
    runs = run_separation(scn)
    run_swaps = len(swaps)
    del swaps[:]
    for source, run in zip((*scn.filters, *scn.combs), runs):
        xp, xa = _hand_separation(scn, source, run.x_pa, rho)
        _, interference = _hand_separation(scn, source, xp, rho)
        for got, want in ((run.xp, xp), (run.xa, xa),
                          (run.interference, interference)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # two passes: two reconfigures for pasf, one swap each for comb2 and comb3
    assert run_swaps == len(swaps) == 2 * (2 + 1 + 1)


def test_every_separation_sample_is_one_step_call(monkeypatch, tmp_path):
    """The benchmark's traced count guard in miniature: each pass calls
    PasfState.step once per sample and reconfigure once per rho switch."""
    scn = _switching_scenario()
    steps = _count_calls(monkeypatch, PasfState, "step")
    reconfigures = _count_calls(monkeypatch, PasfState, "reconfigure")
    run_scenario(scn, seed=0, out_dir=str(tmp_path), plot_script=False)
    sources = len(scn.filters) + len(scn.combs)
    assert len(steps) == scn.steps * sources * 2
    assert len(reconfigures) == 2 * 2


def test_separation_second_pass_redesigns_nothing(monkeypatch):
    """Each distinct spec is designed once: the first pass designs its
    start pair and the one new spec its switches name, the second pass
    reuses both through the design memo."""
    scn = replace(_switching_scenario(), combs=(),
                  filters=(FilterChoice("fir", 4, label="pasf"),))
    designs = _count_calls(monkeypatch, design, "design_fir_equiripple")
    per_run = []
    run = PasfState.run

    def counted_run(*args, **kwargs):
        before = len(designs)
        out = run(*args, **kwargs)
        per_run.append(len(designs) - before)
        return out

    monkeypatch.setattr(PasfState, "run", counted_run)
    forget_designs()
    run_separation(scn)
    # rho 2.0 (the start pair), then 6.0 and back to 2.0 in each pass
    assert per_run == [1, 0]
    assert len(designs) == 2


def test_schedule_piece_may_be_a_signal_reference():
    """A schedule piece given as ``@name`` is that signal, as its inline
    descriptor is."""
    inline = parse_scenario(SCENARIO_TEXT)
    text = SCENARIO_TEXT.replace("piece = 1 inf harmonic-sum 2 1:1 0.25:2",
                                 "piece = 1 inf @wave") + \
        "\n[signal wave]\nexpr = harmonic-sum 2 1:1 0.25:2\n"
    assert parse_scenario(text).input_u == inline.input_u


def test_control_run_table_holds_the_commands_and_the_pd_law():
    """A control run's CSV table ends in the commands at t = 1..steps, and
    its u is zero before the controller starts and the PD law on the
    split after, from the estimates of the step before."""
    scn = replace(built_in("sec54", 0), duration_s=1.0, rho_schedule=((0.0, 10.0),))
    scn = replace(scn, controller=replace(scn.controller, start_s=0.5))
    run = run_estimation(scn, scn.filters[0], seed=0)
    table = run.columns()
    assert list(table)[-3:] == ["trP", "cmd_p", "cmd_a"]
    ctl, T, t = scn.controller, scn.sampling_time, np.arange(1, scn.steps + 1)
    commands = [sig.eval_signal_array(s, t, T) for s in (
        ctl.cmd_p, ctl.cmd_a, sig.derivative(ctl.cmd_p), sig.derivative(ctl.cmd_a))]
    assert table["cmd_p"].tobytes() == commands[0].tobytes()
    assert table["cmd_a"].tobytes() == commands[1].tobytes()
    law = (ctl.kp_p * (commands[0][:-1] - run.xp_upd[:-1, 0])
           + ctl.kd_p * (commands[2][:-1] - run.xp_upd[:-1, 1])
           + ctl.kp_a * (commands[1][:-1] - run.xa_upd[:-1, 0])
           + ctl.kd_a * (commands[3][:-1] - run.xa_upd[:-1, 1]))
    started = t[:-1] * T >= 0.5
    assert not run.u[0] and not run.u[1:][~started].any()
    assert run.u[1:][started].tobytes() == law[started].tobytes()
    # a NaN start, which ControllerSpec takes, starts the law at once
    scn = replace(scn, controller=replace(scn.controller, start_s=math.nan))
    run = run_estimation(scn, scn.filters[0], seed=0)
    assert run.u[1:].all()


@pytest.mark.parametrize("name", ["sec52", "sec54"])
def test_estimation_interference_table(tmp_path, name):
    """An estimation or control scenario with an interference window writes
    the interference of each filter's run in one table, which its results
    hold too."""
    scn = built_in(name, 0)
    scn = replace(scn, duration_s=0.5, rho_schedule=scn.rho_schedule[:1],
                  interference_window_s=(0.0, 0.5))
    out = run_scenario(scn, seed=0, out_dir=str(tmp_path), plot_script=False)
    labels = [f.label for f in scn.filters]
    table = out["results"]["interference"]
    assert list(table) == ["t", "time_s", *labels]
    with open(tmp_path / f"{name}_interference.csv", encoding="utf-8") as fh:
        assert fh.readline() == ",".join(["t", "time_s", *labels]) + "\n"
    for label in labels:
        run = out["results"][label]
        assert table["t"].tobytes() == run.t.tobytes()
        assert table[label].tobytes() == scenarios.interference_trace(run).tobytes()


def test_iir_piece_that_misses_its_dc_gain_is_refused_when_parsed(tmp_path):
    """An IIR filter whose design at some ``[rho]`` piece stores a DC gain
    far from 1 is refused as the file is loaded, naming the piece and the
    filter, before any sample runs."""
    with open(os.path.join(os.path.dirname(scenario_io.__file__), "sec53.scn"),
              encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("filter = iir 3 pasf_n3\n") == 1
    path = tmp_path / "iir5.scn"
    path.write_text(text.replace("filter = iir 3 pasf_n3\n", "filter = iir 5 pasf_n3\n"))
    with pytest.raises(InvalidArgumentError,
                       match=r"^rho piece at 4 s, filter pasf_n3: IIR order 5 at "
                             r"rho = 0\.001 stores a DC gain of "):
        scenario_io.load_scenario(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.0, -1.0, 1e-320, 5e-324])
def test_one_sampling_time_rule(bad):
    """SeparationSpec, FilterCoefficients and Scenario refuse a sampling time
    by the one rule, ``design.check_sampling_time``, with its message."""
    with pytest.raises(InvalidArgumentError) as rule:
        design.check_sampling_time(bad)
    assert str(rule.value) == ("sampling_time must be positive and finite, with "
                               f"pi/T finite, got {bad!r}")
    p, _ = design_iir(SeparationSpec(1.0, 5, 0.1), 2)
    scn = parse_scenario(SCENARIO_TEXT)
    for make in (lambda: SeparationSpec(1.0, 5, bad).validate(),
                 lambda: replace(p, sampling_time=bad),
                 lambda: replace(scn, sampling_time=bad)):
        with pytest.raises(InvalidArgumentError) as err:
            make()
        assert str(err.value) == str(rule.value)


def test_smallest_sampling_time_still_checks_the_step_count():
    """The smallest T the rule passes leaves a finite pi/T, but a scenario's
    duration / T can still overflow, which the Scenario refuses."""
    smallest = math.pi / sys.float_info.max
    if math.isinf(math.pi / smallest):
        smallest = math.nextafter(smallest, 1.0)
    design.check_sampling_time(smallest)
    SeparationSpec(1.0, 5, smallest).validate()
    with pytest.raises(InvalidArgumentError, match="duration / sampling_time must be finite"):
        replace(parse_scenario(SCENARIO_TEXT), sampling_time=smallest, duration_s=100.0)


def test_a_field_only_another_kind_runs_on_is_refused():
    """A Scenario holds the fields its kind runs on and leaves every field
    that only another kind runs on None, so no runner has to ask its kind
    whether a field applies."""
    est, sep, ctl = built_in("sec52", 0), built_in("sec53", 0), built_in("sec54", 0)
    with pytest.raises(InvalidArgumentError,
                       match="^estimation scenario does not run on controller$"):
        replace(est, controller=ctl.controller)
    with pytest.raises(InvalidArgumentError, match="^separation scenario does not run on A$"):
        replace(sep, A=est.A)
    with pytest.raises(InvalidArgumentError, match="^control scenario does not run on truth_p$"):
        replace(ctl, truth_p=sep.truth_p)
    with pytest.raises(InvalidArgumentError, match="^control scenario requires controller$"):
        replace(ctl, controller=None)


_KIND_NAMES = frozenset(KINDS)


def _kind_name_comparisons(tree):
    """The line of each comparison in ``tree`` with a scenario kind's name,
    alone or in a tuple, list or set."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) \
                    else [operand]
                if any(isinstance(item, ast.Constant) and item.value in _KIND_NAMES
                       for item in items):
                    yield node.lineno


def _package_lines(find):
    """``module.py:line`` of each line that ``find`` yields for the parsed
    modules of the package."""
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(scenarios.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{no}" for no in find(tree)]
    return found


def test_kind_rules_live_only_in_the_kinds_table():
    """No module of the package compares anything with a scenario kind's
    name: each kind rule is a field of its ``scenarios.KINDS`` record, so a
    new rule or kind is one place to change."""
    assert _package_lines(_kind_name_comparisons) == []
    assert list(_kind_name_comparisons(ast.parse('if scn.kind == "control": pass'))) == [1]


_RUN_CLASSES = frozenset({"EstimationRun", "SeparationRun"})


def _run_type_checks(tree):
    """The line of each ``isinstance`` call or comparison in ``tree`` that
    names a run class, alone or in a tuple, by name or as an attribute."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"):
            operands = node.args[1:]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        else:
            continue
        for operand in operands:
            items = operand.elts if isinstance(operand, ast.Tuple) else [operand]
            if any(getattr(item, "id", getattr(item, "attr", None)) in _RUN_CLASSES
                   for item in items):
                yield node.lineno


def test_no_module_tells_runs_apart_by_type():
    """Each run class answers for itself (its ``columns()``, ``summary()``
    and ``interference``), so no module of the package asks a run its
    type."""
    assert _package_lines(_run_type_checks) == []
    for code in ("isinstance(run, EstimationRun)",
                 "isinstance(run, (int, scenarios.SeparationRun))",
                 "type(run) is SeparationRun"):
        assert list(_run_type_checks(ast.parse(code))) == [1], code
    assert list(_run_type_checks(ast.parse("isinstance(run, FilterChoice)"))) == []


# a valid value of each key the scenario-file fuzz writes ([scenario] kind
# is the drawn kind); the fuzz breaks them
_VALID = {
    "scenario": dict(name="fz", period="4", sampling_time="0.01", duration="1",
                     filter="iir 1", warm_start="zero", settle="0.5", input="@u",
                     truth_p="@u", truth_a="@v", interference_window="0.5 1"),
    "model": dict(A="1 T ; 0 1", B="0 1", C="1 0", Q="diag 0 1e-4", R="0.25", P0="zeros",
                  process_noise_variance="1e-4", observation_noise_variance="0.25"),
    "controller": dict(start="0.5", kp_p="9", kd_p="6", kp_a="25", kd_a="10",
                       cmd_p="@u", cmd_a="@v"),
    "comb": dict(variant="3", gain="0.7", q="0:1.7 0.5:50", b="0.5", g="0"),
}
_BAD_VALUES = ("nan", "inf", "1e309", "1e-320", "-1", "0", "", "x", "1 2 ; 3", "1 ; 2 3",
               "diag", "zeros", "@nope", "@u @v", "u", "0:nan", "iir 9", "fir 3")
_LEAF_TOKENS = ("0", "1", "2", "10", "0.5", "-1", "1:2", "openstart", "openend")


@st.composite
def _scenario_files(draw):
    """The bytes of a scenario file: the sections and keys a drawn kind (or
    an unknown one) reads, from ``_SECTION_KEYS`` and ``KINDS``, with valid
    values and a leaf signal from ``_LEAF_ARGS``; then up to four edits that
    drop, repeat or misspell a key, put a bad value in a field (a bad
    number, an empty value, a ragged matrix, a broken @ reference) or add
    a section or key only another kind reads; and sometimes a byte that is
    not UTF-8."""
    kind = draw(st.sampled_from([*KINDS, "bogus"]))
    reads = KINDS[kind].reads if kind in KINDS else ()
    own = {read for k in KINDS.values() for read in k.reads}
    keys = [key for key in _SECTION_KEYS["scenario"] if key not in own or key in reads]
    sections = [["scenario", [(key, _VALID["scenario"].get(key, kind)) for key in keys]],
                ["rho", [("0", "2.0")]]]
    for name in reads:
        if name in _SECTION_KEYS:
            sections.append([name if name != "comb" else "comb c1",
                             [(key, _VALID[name][key]) for key in _SECTION_KEYS[name]]])
    leaf = draw(st.sampled_from(sorted(_LEAF_ARGS)))
    low, high, _ = _LEAF_ARGS[leaf]
    args = draw(st.lists(st.sampled_from(_LEAF_TOKENS), min_size=max(low - 1, 0),
                         max_size=min(high, low + 1)))
    sections += [["signal u", [("expr", " ".join([leaf, *args]))]],
                 ["signal v", [("kind", "sum"), ("of", "@u")]]]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3, 4]))):
        edit = draw(st.sampled_from(["drop", "repeat", "misspell", "value", "stray"]))
        if edit == "stray":
            other = draw(st.sampled_from(sorted(own - set(reads))))
            if other in _SECTION_KEYS:
                key = _SECTION_KEYS[other][0]
                sections.append([other if other != "comb" else "comb c2",
                                 [(key, _VALID[other][key])]])
            else:
                sections[0][1].append((other, _VALID["scenario"][other]))
            continue
        entries = draw(st.sampled_from(sections))[1]
        if not entries:
            continue
        i = draw(st.integers(0, len(entries) - 1))
        key, value = entries[i]
        if edit == "drop":
            del entries[i]
        elif edit == "repeat":
            entries.insert(i, (key, value))
        elif edit == "misspell":
            entries[i] = (key + "x", value)
        else:
            entries[i] = (key, draw(st.sampled_from(_BAD_VALUES)))
    data = "\n".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in entries)
                     for name, entries in sections).encode()
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=1000, deadline=None)
@given(data=_scenario_files())
def test_scenario_file_fuzz_parses_or_raises_a_typed_error(tmp_path_factory, data):
    """Each generated file either loads or raises one of the package's typed
    errors, and nothing warns."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.scn"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scenario_io.load_scenario(path)
        except PasfError:
            pass


@settings(max_examples=24, deadline=None)
@given(data=_scenario_files())
@example(data=SCENARIO_TEXT.encode())
@example(data=SEPARATION_TEXT.encode())
def test_scenario_file_fuzz_through_the_cli(tmp_path_factory, data):
    """``pasf scenario`` on each generated file, in its own process with
    warnings as errors, exits 0 with nothing on stderr, or exits 1 or 2
    with one ``error: <category>: ...`` line and leaves no output
    directory. Most drawn files fail to parse, so two valid files are
    always run too."""
    work = tmp_path_factory.mktemp("clifuzz")
    path = work / "fuzz.scn"
    path.write_bytes(data)
    out = work / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(scenarios.__file__)))
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run(
        [sys.executable, "-m", "pasf.cli", "--out-dir", str(out), "scenario", str(path)],
        capture_output=True, text=True, env=env)
    if res.returncode == 0:
        assert res.stderr == ""
    else:
        assert res.returncode in (1, 2), res.stderr
        assert re.fullmatch(r"error: (validation|runtime|io): [^\n]*\n", res.stderr), res.stderr
        assert not out.exists()
