"""Built-in simulation scenarios and their runners.

Four scenarios are embedded: an estimation run with a scheduled separation
frequency (sec51), a realization comparison across filter orders (sec52), a
comparison of the separator against classical comb baselines (sec53), and a
closed-loop separation control run (sec54). Scenario files parsed from text
produce the same Scenario values (see scenario_io).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import signals as sig
from .baselines import CombSpec, comb_pair
from .csvio import export_csv
from .design import SeparationSpec, design_fir_equiripple, design_iir, make_complementary
from .errors import InvalidArgumentError
from .kalman import SystemModel
from .kfpasf import KfPasfState
from .runtime import PasfState, SeparatorBank, periodic_warm_history
from .signals import NoiseSpec, eval_signal_array


@dataclass(frozen=True)
class FilterChoice:
    realization: str  # iir | fir | iir-complementary | fir-complementary
    order: int
    label: str = ""

    def __post_init__(self):
        base = self.realization.removesuffix("-complementary")
        if base not in ("iir", "fir"):
            raise InvalidArgumentError(f"unknown realization {self.realization!r}")
        if not self.label:
            object.__setattr__(self, "label", f"{base}{self.order}")


@dataclass(frozen=True)
class ControllerSpec:
    start_s: float
    kp_p: float
    kd_p: float
    kp_a: float
    kd_a: float
    cmd_p: object
    cmd_a: object


@dataclass(frozen=True)
class CombBaseline:
    label: str
    schedule: tuple  # ((start_s, CombSpec), ...) sorted by start


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # estimation | separation | control
    period: int
    sampling_time: float
    duration_s: float
    rho_schedule: tuple  # ((start_s, rho_tilde), ...)
    filters: tuple  # FilterChoice, ...
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    C: np.ndarray | None = None
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    P0: np.ndarray | None = None
    input_u: object | None = None
    process_noise_variance: float = 0.0
    observation_noise_variance: float = 0.0
    warm_start: str = "zero"  # zero | periodic
    settle_s: float = 2.0
    controller: ControllerSpec | None = None
    truth_p: object | None = None
    truth_a: object | None = None
    combs: tuple = ()
    interference_window_s: tuple | None = None

    @property
    def steps(self) -> int:
        return int(round(self.duration_s / self.sampling_time))

    def validate(self) -> None:
        if self.kind not in ("estimation", "separation", "control"):
            raise InvalidArgumentError(f"unknown scenario kind {self.kind!r}")
        if not self.rho_schedule or self.rho_schedule[0][0] > 0:
            raise InvalidArgumentError("rho schedule must start at time 0")
        starts = [s for s, _ in self.rho_schedule]
        if starts != sorted(starts):
            raise InvalidArgumentError("rho schedule must be sorted by start time")
        if starts[-1] >= self.duration_s:
            raise InvalidArgumentError("rho schedule boundary beyond duration")
        if not self.filters:
            raise InvalidArgumentError("scenario needs at least one filter choice")
        labels = [f.label for f in self.filters] + [c.label for c in self.combs]
        if len(set(labels)) != len(labels):
            # each label names a run's output file, column and result
            raise InvalidArgumentError(
                f"filter and comb labels must be unique, got {labels}")
        if self.kind in ("estimation", "control"):
            for name in ("A", "B", "C", "Q", "R", "P0", "input_u"):
                if getattr(self, name) is None:
                    raise InvalidArgumentError(f"{self.kind} scenario requires {name}")
        if self.kind == "control" and self.controller is None:
            raise InvalidArgumentError("control scenario requires a controller")
        if self.kind == "separation" and (self.truth_p is None or self.truth_a is None):
            raise InvalidArgumentError("separation scenario requires truth_p/truth_a")


def rho_at(schedule, tt: float) -> float:
    value = schedule[0][1]
    for start, rho in schedule:
        if tt >= start:
            value = rho
        else:
            break
    return value


def rho_series(schedule, steps: int, sampling_time: float) -> np.ndarray:
    tt = np.arange(1, steps + 1) * sampling_time
    out = np.full(steps, schedule[0][1])
    for start, rho in schedule:
        out[tt >= start - 1e-12] = rho
    return out


def design_pair(choice: FilterChoice, rho_tilde: float, period: int,
                sampling_time: float):
    spec = SeparationSpec(rho_tilde, period, sampling_time)
    base = choice.realization.removesuffix("-complementary")
    if base == "iir":
        p, a = design_iir(spec, choice.order, allow_out_of_band=True)
    else:
        p, a = design_fir_equiripple(spec, choice.order)
    if choice.realization.endswith("-complementary"):
        a = make_complementary(p)
    return p, a


# ---------------------------------------------------------------------------
# Built-in scenario definitions
# ---------------------------------------------------------------------------

_T = 0.001
_PI = 1000


def _model_matrices(stiff_row: bool):
    A = np.array(
        [[1.0, _T, 0.0], [0.0, 1.0, _T],
         [-2500.0, -100.0, 0.0] if stiff_row else [0.0, 0.0, 0.0]]
    )
    B = np.array([0.0, 0.0, 1.0])
    C = np.array([[1.0, 0.0, 0.0]])
    Q = np.diag([0.0, 0.0, 1e-8])
    R = np.array([[0.25]])
    P0 = np.zeros((3, 3))
    return dict(A=A, B=B, C=C, Q=Q, R=R, P0=P0,
                process_noise_variance=1e-8, observation_noise_variance=0.25)


def _sec51_input():
    alt = tuple(((-1.0) ** (i + 1) / i, float(i)) for i in range(1, 11))
    sq = tuple((0.01 * i * i, float(i)) for i in range(1, 11))
    odd = tuple((1.0 / (2 * i - 1), float(2 * i - 1)) for i in range(1, 11))
    u1 = sig.Schedule((
        (0.0, 10.0, sig.Constant(0.0)),
        (10.0, 40.0, sig.HarmonicSum(1.0, alt)),
        (40.0, 80.0, sig.HarmonicSum(1.0, sq)),
        (80.0, None, sig.HarmonicSum(1.0, odd)),
    ))
    u2 = sig.Sum((
        sig.Pulse(25.0, 25.3, 1.0),
        sig.Pulse(70.0, 70.3, 1.0),
        sig.Pulse(110.0, 110.3, 1.0),
    ))
    return sig.Scaled(2500.0, sig.Sum((u1, u2)))


def _sec52_input():
    sq = tuple((0.01 * i * i, float(i)) for i in range(1, 11))
    u1 = sig.Sum((sig.Constant(1.0), sig.HarmonicSum(1.0, sq)))
    u2 = sig.Pulse(15.0, 15.3, 2.0, include_start=False)
    return sig.Scaled(2500.0, sig.Sum((u1, u2)))


def _sec54_commands():
    odd = tuple((1.0 / (2 * i - 1), float(2 * i - 1)) for i in range(1, 11))
    cmd_p = sig.Sum((sig.Constant(2.0), sig.HarmonicSum(1.0, odd)))
    cmd_a = sig.Schedule((
        (25.0, 26.0, sig.Sinusoid(1.0, math.pi, -25.0 * math.pi)),
    ))
    return cmd_p, cmd_a


def build_sec51() -> Scenario:
    return Scenario(
        name="sec51",
        kind="estimation",
        period=_PI,
        sampling_time=_T,
        duration_s=120.0,
        rho_schedule=((0.0, 10.0), (40.0, 0.2), (80.0, 10.0), (100.0, 0.01)),
        filters=(FilterChoice("iir", 1),),
        input_u=_sec51_input(),
        **_model_matrices(stiff_row=True),
    )


def build_sec52() -> Scenario:
    return Scenario(
        name="sec52",
        kind="estimation",
        period=_PI,
        sampling_time=_T,
        duration_s=30.0,
        rho_schedule=((0.0, 0.01),),
        filters=(
            FilterChoice("iir", 1),
            FilterChoice("iir", 2),
            FilterChoice("iir", 3),
            FilterChoice("fir", 50),
        ),
        input_u=_sec52_input(),
        warm_start="periodic",
        interference_window_s=(17.0, 30.0),
        **_model_matrices(stiff_row=True),
    )


def build_sec53(seed: int = 0) -> Scenario:
    truth_p = sig.GatedSine(omega=4.0 * math.pi, gate_period=500, duty=250)
    truth_a = sig.Sum((
        sig.Pulse(5.125, 5.135, 0.5, include_start=False),
        sig.NoiseSegment(NoiseSpec(0.0, 0.01**2, _stream_seed(seed, 3)), 10.0, 12.0),
    ))
    comb3 = CombBaseline(
        label="comb3",
        schedule=(
            (0.0, CombSpec(3, _PI, _T, gain_mag=0.708, q=1.717)),
            (4.0, CombSpec(3, _PI, _T, gain_mag=0.708, q=1591.0)),
        ),
    )
    return Scenario(
        name="sec53",
        kind="separation",
        period=_PI,
        sampling_time=_T,
        duration_s=15.0,
        rho_schedule=((0.0, 1000.0), (4.0, 0.001)),
        filters=(FilterChoice("iir", 3, label="pasf_n3"),),
        truth_p=truth_p,
        truth_a=truth_a,
        combs=(
            CombBaseline("comb1", ((0.0, CombSpec(1, _PI, _T, b=0.0, g=0.0)),)),
            CombBaseline("comb2", ((0.0, CombSpec(2, _PI, _T, b=0.5, g=0.0)),)),
            comb3,
        ),
        interference_window_s=(4.0, 15.0),
    )


def build_sec54() -> Scenario:
    cmd_p, cmd_a = _sec54_commands()
    controller = ControllerSpec(
        start_s=5.0, kp_p=900.0, kd_p=60.0, kp_a=2500.0, kd_a=100.0,
        cmd_p=cmd_p, cmd_a=cmd_a,
    )
    return Scenario(
        name="sec54",
        kind="control",
        period=_PI,
        sampling_time=_T,
        duration_s=30.0,
        rho_schedule=((0.0, 10.0), (20.0, 0.01)),
        filters=(FilterChoice("iir", 1),),
        input_u=sig.Constant(0.0),
        controller=controller,
        **_model_matrices(stiff_row=False),
    )


def built_in(name: str, seed: int = 0) -> Scenario:
    builders = {
        "sec51": build_sec51,
        "sec52": build_sec52,
        "sec53": lambda: build_sec53(seed),
        "sec54": build_sec54,
    }
    if name not in builders:
        raise InvalidArgumentError(
            f"unknown scenario {name!r}; built-ins: {sorted(builders)}"
        )
    return builders[name]()


def _stream_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Estimation / control runner
# ---------------------------------------------------------------------------


@dataclass
class EstimationRun:
    scenario: Scenario
    choice: FilterChoice
    seed: int
    t: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    y: np.ndarray
    x_true: np.ndarray
    x_upd: np.ndarray
    xp_upd: np.ndarray
    xa_upd: np.ndarray
    tr_p: np.ndarray
    cmd_p: np.ndarray | None = None
    cmd_a: np.ndarray | None = None
    pre_tail: np.ndarray | None = None  # pre-run truth for the warm start

    def csv_header(self) -> list[str]:
        n = self.x_upd.shape[1]
        cols = ["t", "time_s", "u", "rho_tilde", "y"]
        for tag in ("x", "xhat", "xp_hat", "xa_hat"):
            cols += [f"{tag}_{i + 1}" for i in range(n)]
        cols.append("trP")
        if self.cmd_p is not None:
            cols += ["cmd_p", "cmd_a"]
        return cols

    def csv_rows(self):
        ts = self.t * self.scenario.sampling_time
        for i in range(len(self.t)):
            row = [int(self.t[i]), ts[i], self.u[i], self.rho[i], self.y[i]]
            row += list(self.x_true[i]) + list(self.x_upd[i])
            row += list(self.xp_upd[i]) + list(self.xa_upd[i])
            row.append(self.tr_p[i])
            if self.cmd_p is not None:
                row += [self.cmd_p[i], self.cmd_a[i]]
            yield row


def simulate_plant(A, B, u_plus_v: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States x(1..steps) of x(t+1) = A x(t) + B u'(t) from x(0) = x0."""
    steps = len(u_plus_v)
    n = A.shape[0]
    out = np.empty((steps, n))
    x = np.asarray(x0, dtype=float).copy()
    Bf = B.reshape(-1)
    for i in range(steps):
        x = A @ x + Bf * u_plus_v[i]
        out[i] = x
    return out


def _periodic_prerun(scn: Scenario, depth: int) -> np.ndarray:
    """Noise-free settle run ending at t = 0; returns states for times
    -(depth-1)..0 oldest first (the final row is x(0))."""
    settle = int(round(scn.settle_s / scn.sampling_time))
    pre = settle + depth
    t_idx = np.arange(-pre, 0)
    u_pre = eval_signal_array(scn.input_u, t_idx, scn.sampling_time)
    states = simulate_plant(scn.A, scn.B, u_pre, np.zeros(scn.A.shape[0]))
    return states[-depth:]


def run_estimation(scn: Scenario, choice: FilterChoice, seed: int) -> EstimationRun:
    scn.validate()
    steps = scn.steps
    T = scn.sampling_time
    n = scn.A.shape[0]
    model = SystemModel(A=scn.A, B=scn.B, C=scn.C, Q=scn.Q, R=scn.R)

    rho = rho_series(scn.rho_schedule, steps, T)
    p, a = design_pair(choice, rho_at(scn.rho_schedule, T), scn.period, T)
    depth = choice.order * scn.period

    v = sig.GaussianStream(
        NoiseSpec(0.0, scn.process_noise_variance, _stream_seed(seed, 1))
    ).draw(steps)
    w = sig.GaussianStream(
        NoiseSpec(0.0, scn.observation_noise_variance, _stream_seed(seed, 2))
    ).draw(steps)

    pre_tail = None
    if scn.warm_start == "periodic":
        pre_tail = _periodic_prerun(scn, depth)
        bank = SeparatorBank(p, a, dims=n)
        gp, ga = bank.dc_gains()
        hist = (pre_tail, pre_tail * gp, pre_tail * ga)
        x0 = pre_tail[-1].copy()
    elif scn.warm_start == "zero":
        z = np.zeros((depth, n))
        hist = (z, z.copy(), z.copy())
        x0 = np.zeros(n)
    else:
        raise InvalidArgumentError(f"unknown warm_start {scn.warm_start!r}")

    est = KfPasfState(model, p, a, hist, scn.P0)

    is_control = scn.kind == "control"
    if is_control:
        ctl = scn.controller
        t_idx = np.arange(steps + 1)
        cmd_p = eval_signal_array(ctl.cmd_p, t_idx, T)
        cmd_a = eval_signal_array(ctl.cmd_a, t_idx, T)
        dcmd_p = eval_signal_array(sig.derivative(ctl.cmd_p), t_idx, T)
        dcmd_a = eval_signal_array(sig.derivative(ctl.cmd_a), t_idx, T)
        u_base = np.zeros(steps + 1)
    else:
        u_base = eval_signal_array(scn.input_u, np.arange(steps), T)

    out = EstimationRun(
        scenario=scn, choice=choice, seed=seed,
        t=np.arange(1, steps + 1),
        u=np.empty(steps), rho=rho, y=np.empty(steps),
        x_true=np.empty((steps, n)), x_upd=np.empty((steps, n)),
        xp_upd=np.empty((steps, n)), xa_upd=np.empty((steps, n)),
        tr_p=np.empty(steps),
        cmd_p=cmd_p[1:] if is_control else None,
        cmd_a=cmd_a[1:] if is_control else None,
        pre_tail=pre_tail,
    )

    Bf = scn.B.reshape(-1)
    x = x0
    current_rho = rho[0]
    for t in range(1, steps + 1):
        i = t - 1
        u_prev = u_base[i]
        x = scn.A @ x + Bf * (u_prev + v[i])
        y = float((scn.C @ x)[0] + w[i])
        if rho[i] != current_rho:
            est.reconfigure(SeparationSpec(rho[i], scn.period, T),
                            allow_out_of_band=True)
            current_rho = rho[i]
        rec = est.step([u_prev], [y])
        out.u[i] = u_prev
        out.y[i] = y
        out.x_true[i] = x
        out.x_upd[i] = rec.x_upd
        out.xp_upd[i] = rec.xp_upd
        out.xa_upd[i] = rec.xa_upd
        out.tr_p[i] = np.trace(rec.P)
        if is_control:
            tt = t * T
            if tt < ctl.start_s:
                u_base[t] = 0.0
            else:
                u_base[t] = (
                    ctl.kp_p * (cmd_p[t] - rec.xp_upd[0])
                    + ctl.kd_p * (dcmd_p[t] - rec.xp_upd[1])
                    + ctl.kp_a * (cmd_a[t] - rec.xa_upd[0])
                    + ctl.kd_a * (dcmd_a[t] - rec.xa_upd[1])
                )
    return out


def interference_trace(run: EstimationRun) -> np.ndarray:
    """Feed the first updated quasi-periodic estimate back through the
    matching aperiodic-pass filter; the output is the interference."""
    scn = run.scenario
    T = scn.sampling_time
    rho = run.rho
    p, a = design_pair(run.choice, rho[0], scn.period, T)
    if run.pre_tail is not None:
        bank = SeparatorBank(p, a, dims=scn.A.shape[0])
        gp, _ = bank.dc_gains()
        tail = (run.pre_tail[:, 0] * gp[0]).reshape(-1, 1)
        state = PasfState(p, a, history=periodic_warm_history(
            SeparatorBank(p, a), tail))
    else:
        state = PasfState(p, a)
    stream = run.xp_upd[:, 0]
    out = np.empty(len(stream))
    current = rho[0]
    for i in range(len(stream)):
        if rho[i] != current:
            state.reconfigure(SeparationSpec(rho[i], scn.period, T),
                              allow_out_of_band=True)
            current = rho[i]
        _, out[i] = state.step(stream[i])
    return out


# ---------------------------------------------------------------------------
# Separation-only runner (comb comparison)
# ---------------------------------------------------------------------------


@dataclass
class SeparationRun:
    scenario: Scenario
    label: str
    x_pa: np.ndarray
    truth_p: np.ndarray
    truth_a: np.ndarray
    xp: np.ndarray
    xa: np.ndarray
    interference: np.ndarray


def _comb_state_at(baseline: CombBaseline, tt: float) -> CombSpec:
    spec = baseline.schedule[0][1]
    for start, s in baseline.schedule:
        if tt >= start:
            spec = s
    return spec


def run_separation(scn: Scenario, seed: int) -> list[SeparationRun]:
    scn.validate()
    steps = scn.steps
    T = scn.sampling_time
    t_idx = np.arange(steps)
    truth_p = eval_signal_array(scn.truth_p, t_idx, T)
    truth_a = eval_signal_array(scn.truth_a, t_idx, T)
    x_pa = truth_p + truth_a
    rho = rho_series(scn.rho_schedule, steps, T)

    runs = []
    for choice in scn.filters:
        p, a = design_pair(choice, rho[0], scn.period, T)
        state = PasfState(p, a)
        xp = np.empty(steps)
        xa = np.empty(steps)
        current = rho[0]
        for i in range(steps):
            if rho[i] != current:
                state.reconfigure(SeparationSpec(rho[i], scn.period, T),
                                  allow_out_of_band=True)
                current = rho[i]
            xp[i], xa[i] = state.step(x_pa[i])
        interf = _second_pass(scn, choice, None, xp, rho)
        runs.append(SeparationRun(scn, choice.label, x_pa, truth_p, truth_a,
                                  xp, xa, interf))

    for baseline in scn.combs:
        tt = np.arange(1, steps + 1) * T
        state = PasfState(*comb_pair(baseline.schedule[0][1]))
        xp = np.empty(steps)
        xa = np.empty(steps)
        current = baseline.schedule[0][1]
        for i in range(steps):
            spec = _comb_state_at(baseline, tt[i])
            if spec != current:
                state.swap_coefficients(*comb_pair(spec))
                current = spec
            xp[i], xa[i] = state.step(x_pa[i])
        interf = _second_pass(scn, None, baseline, xp, rho)
        runs.append(SeparationRun(scn, baseline.label, x_pa, truth_p, truth_a,
                                  xp, xa, interf))
    return runs


def _second_pass(scn, choice, baseline, stream, rho) -> np.ndarray:
    """Separate a quasi-periodic stream again; the aperiodic output is the
    interference trace."""
    steps = len(stream)
    T = scn.sampling_time
    out = np.empty(steps)
    if choice is not None:
        state = PasfState(*design_pair(choice, rho[0], scn.period, T))
        current = rho[0]
        for i in range(steps):
            if rho[i] != current:
                state.reconfigure(SeparationSpec(rho[i], scn.period, T),
                                  allow_out_of_band=True)
                current = rho[i]
            _, out[i] = state.step(stream[i])
    else:
        tt = np.arange(1, steps + 1) * T
        state = PasfState(*comb_pair(baseline.schedule[0][1]))
        current = baseline.schedule[0][1]
        for i in range(steps):
            spec = _comb_state_at(baseline, tt[i])
            if spec != current:
                state.swap_coefficients(*comb_pair(spec))
                current = spec
            _, out[i] = state.step(stream[i])
    return out


# ---------------------------------------------------------------------------
# Top-level scenario execution with CSV and plot-script emission
# ---------------------------------------------------------------------------


def run_scenario(name_or_scenario, seed: int = 0, out_dir: str = ".",
                 plot_script: bool = True) -> dict:
    """Run a built-in (by name) or explicit Scenario; returns output paths
    plus in-memory results."""
    import os

    if isinstance(name_or_scenario, Scenario):
        scn = name_or_scenario
    else:
        scn = built_in(str(name_or_scenario), seed)
    scn.validate()
    os.makedirs(out_dir, exist_ok=True)
    outputs: dict = {"name": scn.name, "files": [], "results": {}}

    if scn.kind in ("estimation", "control"):
        single = len(scn.filters) == 1
        interference_rows = None
        for choice in scn.filters:
            run = run_estimation(scn, choice, seed)
            fname = f"{scn.name}.csv" if single else f"{scn.name}_{choice.label}.csv"
            path = os.path.join(out_dir, fname)
            export_csv(path, run.csv_header(), run.csv_rows())
            outputs["files"].append(path)
            outputs["results"][choice.label] = run
            if scn.interference_window_s is not None:
                trace = interference_trace(run)
                if interference_rows is None:
                    interference_rows = {"t": run.t,
                                         "time_s": run.t * scn.sampling_time}
                interference_rows[choice.label] = trace
        if interference_rows is not None:
            path = os.path.join(out_dir, f"{scn.name}_interference.csv")
            header = list(interference_rows)
            cols = list(interference_rows.values())
            export_csv(path, header, zip(*cols))
            outputs["files"].append(path)
            outputs["results"]["interference"] = interference_rows
    else:
        runs = run_separation(scn, seed)
        t = np.arange(scn.steps)
        for run in runs:
            path = os.path.join(out_dir, f"{scn.name}_{run.label}.csv")
            header = ["t", "time_s", "x_pa", "x_p_true", "x_a_true", "xp", "xa"]
            rows = zip(t, t * scn.sampling_time, run.x_pa, run.truth_p,
                       run.truth_a, run.xp, run.xa)
            export_csv(path, header, rows)
            outputs["files"].append(path)
            outputs["results"][run.label] = run
        path = os.path.join(out_dir, f"{scn.name}_interference.csv")
        header = ["t", "time_s"] + [r.label for r in runs]
        cols = [t, t * scn.sampling_time] + [r.interference for r in runs]
        export_csv(path, header, zip(*cols))
        outputs["files"].append(path)

    if plot_script:
        path = os.path.join(out_dir, f"{scn.name}.gp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_plot_script(scn, outputs["files"], out_dir))
        outputs["files"].append(path)
    return outputs


def _plot_script(scn: Scenario, files, out_dir) -> str:
    import os

    csvs = [os.path.basename(f) for f in files if f.endswith(".csv")]
    lines = [
        f"# gnuplot script for scenario {scn.name}",
        'set datafile separator ","',
        "set terminal pngcairo size 1400,900",
        f'set output "{scn.name}.png"',
        "set key autotitle columnhead",
        'set xlabel "time [s]"',
    ]
    if scn.kind in ("estimation", "control"):
        main = csvs[0]
        lines += [
            "set multiplot layout 3,1",
            f'plot "{main}" using 2:5 with lines title "y"',
            f'plot "{main}" using 2:12 with lines title "xp_hat_1"',
            f'plot "{main}" using 2:15 with lines title "xa_hat_1"',
            "unset multiplot",
        ]
    else:
        count = len(csvs)
        lines.append(f"set multiplot layout {count},1")
        for c in csvs:
            if c.endswith("_interference.csv"):
                lines.append(f'plot "{c}" using 2:3 with lines')
            else:
                lines.append(
                    f'plot "{c}" using 2:6 with lines, "{c}" using 2:7 with lines'
                )
        lines.append("unset multiplot")
    return "\n".join(lines) + "\n"
