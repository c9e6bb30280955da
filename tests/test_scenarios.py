"""Scenario definitions, runners, and the text-file grammar."""

import re
from dataclasses import replace

import numpy as np
import pytest

from pasf import scenarios
from pasf import signals as sig
from pasf.baselines import CombSpec, comb_pair
from pasf.design import (
    SeparationSpec,
    design_fir_equiripple,
    design_iir,
    make_complementary,
)
from pasf.errors import InvalidArgumentError, UnsupportedReconfigurationError
from pasf.kalman import SystemModel
from pasf.kfpasf import KfPasfState, zero_histories
from pasf.runtime import PasfState, SeparatorBank, SeparatorCore
from pasf.scenario_io import parse_scenario
from pasf.scenarios import (
    CombBaseline,
    FilterChoice,
    Scenario,
    build_sec51,
    build_sec52,
    built_in,
    design_pair,
    rho_at,
    rho_series,
    run_estimation,
    run_scenario,
    run_separation,
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
    runs = {run.label: run for run in run_separation(scn, seed=0)}
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
    scn = replace(build_sec52(), period=4, duration_s=0.02, warm_start="zero",
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
    scn = replace(build_sec52(), duration_s=1.0, interference_window_s=None)
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


def test_empty_signal_section_names_the_referring_line():
    text = SCENARIO_TEXT.replace("expr = pulse 1.5 1.6 2.0\n", "")
    no = text.splitlines().index("of = @u1 @u2") + 1
    with pytest.raises(InvalidArgumentError,
                       match=f"line {no}: signal u2 needs kind or expr"):
        parse_scenario(text)


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
def test_output_names_must_be_plain_file_names(tmp_path, field, value):
    """The scenario name and each label name an output file in the output
    directory, so each is one plain path component; validate refuses any
    other before a run starts."""
    scn = parse_scenario(SEPARATION_TEXT)
    if field == "name":
        bad = replace(scn, name=value)
    elif field == "filter":
        bad = replace(scn, filters=(FilterChoice("iir", 1, value),))
    else:
        bad = replace(scn, combs=(replace(scn.combs[0], label=value),))
    with pytest.raises(InvalidArgumentError, match="must be a plain file name"):
        run_scenario(bad, seed=0, out_dir=str(tmp_path / "out"), plot_script=False)
    assert list(tmp_path.iterdir()) == []
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
    scn = replace(build_sec52(), duration_s=2.0, interference_window_s=None)
    run = run_estimation(scn, FilterChoice("iir", 1), seed=0)
    # with histories given beforehand the split is already settled at t = 0:
    # the quasi-aperiodic estimate carries no startup step
    assert np.max(np.abs(run.xa_upd[:200, 0])) < 0.2
    err0 = abs(run.xp_upd[0, 0] - run.x_true[0, 0])
    assert err0 < 0.2


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
    runs = run_separation(scn, seed=0)
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
