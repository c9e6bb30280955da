"""Built-in simulation scenarios and their runners.

Four scenarios are embedded: an estimation run with a scheduled separation
frequency (sec51), a realization comparison across filter orders (sec52), a
comparison of the separator against classical comb baselines (sec53), and a
closed-loop separation control run (sec54). Scenario files parsed from text
produce the same Scenario values (see scenario_io).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import signals as sig
from .baselines import CombSpec, comb_pair
from .csvio import export_csv
from .design import SeparationSpec, design_for, forget_designs
# unused here: the traced benchmark run (perfbench/spans.py) wraps these names
from .design import design_fir_equiripple, design_iir, make_complementary  # noqa: F401
from .errors import InvalidArgumentError
from .kalman import SystemModel, left_product
from .kfpasf import KfPasfState, zero_histories
from .runtime import PasfState, periodic_warm_history
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
        if not self.sampling_time > 0:
            raise InvalidArgumentError(
                f"sampling_time must be positive, got {self.sampling_time}")
        if self.steps < 1:
            raise InvalidArgumentError(
                f"duration must hold at least one sample, got {self.duration_s}")
        if self.settle_s < 0:
            raise InvalidArgumentError(f"settle must be >= 0, got {self.settle_s}")
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
        # the name and each label name output files inside the output directory
        for what, text in [("name", self.name)] + [("label", s) for s in labels]:
            if text in ("", ".", "..") or any(c in text for c in "/\\\0"):
                raise InvalidArgumentError(f"scenario {what} {text!r} must be a plain "
                                           "file name, without '/', '\\' or NUL")
        if len(set(labels)) != len(labels):
            # each label names a run's output file, column and result
            raise InvalidArgumentError(
                f"filter and comb labels must be unique, got {labels}")
        if "interference" in labels and (self.kind == "separation"
                                         or self.interference_window_s is not None):
            raise InvalidArgumentError(
                "label 'interference' is reserved: it names the interference CSV")
        if self.kind in ("estimation", "control"):
            for name in ("A", "B", "C", "Q", "R", "P0", "input_u"):
                if getattr(self, name) is None:
                    raise InvalidArgumentError(f"{self.kind} scenario requires {name}")
            # the runners drive one input u and measure one output y
            if np.ndim(self.B) == 2 and np.shape(self.B)[1] != 1:
                raise InvalidArgumentError(
                    f"B must be one input column, got shape {np.shape(self.B)}")
            if np.ndim(self.C) == 2 and np.shape(self.C)[0] != 1:
                raise InvalidArgumentError(
                    f"C must be one measurement row, got shape {np.shape(self.C)}")
        if self.kind == "control":
            if self.controller is None:
                raise InvalidArgumentError("control scenario requires a controller")
            # the PD law feeds back the first two states: position and rate
            n = np.atleast_2d(self.A).shape[1]
            if n < 2:
                raise InvalidArgumentError(
                    f"control scenario needs at least 2 states in A, got {n}")
        if self.kind == "separation" and (self.truth_p is None or self.truth_a is None):
            raise InvalidArgumentError("separation scenario requires truth_p/truth_a")


def _in_force(schedule, tt) -> np.ndarray:
    """Index of the piece of ``schedule`` ((start_s, value), ... sorted by
    start) in force at each time ``tt``: the last piece whose start is at
    most ``tt`` + 1e-12 s. The first piece holds before its start."""
    starts = [start for start, _ in schedule]
    after = np.searchsorted(starts, np.asarray(tt) + 1e-12, side="right")
    return np.maximum(after - 1, 0)


def rho_at(schedule, tt: float) -> float:
    return schedule[int(_in_force(schedule, tt))][1]


def rho_series(schedule, steps: int, sampling_time: float) -> np.ndarray:
    """rho_tilde at the sample times t * sampling_time, t = 1..steps."""
    values = np.array([rho for _, rho in schedule], dtype=float)
    return values[_in_force(schedule, np.arange(1, steps + 1) * sampling_time)]


def design_pair(choice: FilterChoice, rho_tilde: float, period: int,
                sampling_time: float):
    base = choice.realization.removesuffix("-complementary")
    realization = base if base == choice.realization else f"complementary-of-{base}"
    return design_for(realization, SeparationSpec(rho_tilde, period, sampling_time),
                      choice.order, allow_out_of_band=True)


def _scheduled_pair(scn, source, steps: int):
    """The coefficient pair a filter choice or comb baseline starts a pass of
    ``steps`` samples with, and the ``(index, change)`` switches of its
    schedule for ``PasfState.run``: a ``SeparationSpec`` wherever the
    scenario's rho_tilde changes, a comb pair wherever the comb spec does."""
    T = scn.sampling_time
    if isinstance(source, FilterChoice):
        schedule = scn.rho_schedule
        start = partial(design_pair, source, period=scn.period, sampling_time=T)
        change = partial(SeparationSpec, period=scn.period, sampling_time=T)
    else:
        schedule, start, change = source.schedule, comb_pair, comb_pair
    pieces = _in_force(schedule, np.arange(1, steps + 1) * T)
    current = schedule[pieces[0]][1]
    switches = []
    for i in (np.flatnonzero(pieces[1:] != pieces[:-1]) + 1).tolist():
        value = schedule[pieces[i]][1]
        if value != current:
            switches.append((i, change(value)))
            current = value
    return start(schedule[pieces[0]][1]), switches


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

    @property
    def label(self) -> str:
        return self.choice.label

    def columns(self) -> dict:
        """The run's CSV table: column name -> values, in file order."""
        cols = {"t": self.t, "time_s": self.t * self.scenario.sampling_time,
                "u": self.u, "rho_tilde": self.rho, "y": self.y}
        for tag, values in (("x", self.x_true), ("xhat", self.x_upd),
                            ("xp_hat", self.xp_upd), ("xa_hat", self.xa_upd)):
            cols.update((f"{tag}_{i + 1}", values[:, i])
                        for i in range(values.shape[1]))
        cols["trP"] = self.tr_p
        if self.cmd_p is not None:
            cols.update(cmd_p=self.cmd_p, cmd_a=self.cmd_a)
        return cols


def simulate_plant(A, B, u_plus_v: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States x(1..steps) of x(t+1) = A x(t) + B u'(t) from x(0) = x0."""
    out = np.empty((len(u_plus_v), A.shape[0]))
    x = np.asarray(x0, dtype=float)
    # each row is the single-rounded B u'(i) the per-step form computes
    Bu = np.multiply.outer(u_plus_v, B.reshape(-1))
    # matmul's rule, written into the row: A.__matmul__ takes no out=
    Ax = A.dot if A.shape[1] > 1 else partial(np.matmul, A)
    for row, bu in zip(out, Bu):
        Ax(x, out=row)
        row += bu
        x = row
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
    (p, a), switches = _scheduled_pair(scn, choice, steps)

    v = sig.GaussianStream(
        NoiseSpec(0.0, scn.process_noise_variance, _stream_seed(seed, 1))
    ).draw(steps)
    w = sig.GaussianStream(
        NoiseSpec(0.0, scn.observation_noise_variance, _stream_seed(seed, 2))
    ).draw(steps)

    pre_tail = None
    if scn.warm_start == "periodic":
        pre_tail = _periodic_prerun(scn, choice.order * scn.period)
        hist = periodic_warm_history(p, a, pre_tail)
        x0 = pre_tail[-1].copy()
    elif scn.warm_start == "zero":
        hist = zero_histories(model, choice.order, scn.period)
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
        u=u_base[:steps], rho=rho, y=np.empty(steps),
        x_true=np.empty((steps, n)), x_upd=np.empty((steps, n)),
        xp_upd=np.empty((steps, n)), xa_upd=np.empty((steps, n)),
        tr_p=np.empty(steps),
        cmd_p=cmd_p[1:] if is_control else None,
        cmd_a=cmd_a[1:] if is_control else None,
        pre_tail=pre_tail,
    )

    Bf = scn.B.reshape(-1)
    # with no feedback u is known up front, so B (u + v) is formed once
    Bu = None if is_control else np.multiply.outer(u_base + v, Bf)
    x = x0
    Ax, Cx = left_product(scn.A), left_product(scn.C)
    switches = dict(switches)
    P = None
    for t in range(1, steps + 1):
        i = t - 1
        u_prev = u_base[i]
        x = Ax(x) + (Bf * (u_prev + v[i]) if Bu is None else Bu[i])
        y = float(Cx(x)[0] + w[i])
        if i in switches:
            est.reconfigure(switches[i], allow_out_of_band=True)
        rec = est.step([u_prev], [y])
        out.y[i] = y
        out.x_true[i] = x
        out.x_upd[i] = rec.x_upd
        out.xp_upd[i] = rec.xp_upd
        out.xa_upd[i] = rec.xa_upd
        if rec.P is not P:  # a frozen recursion returns the same P
            P = rec.P
            tr_p = np.trace(P)
        out.tr_p[i] = tr_p
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
    (p, a), switches = _scheduled_pair(scn, run.choice, scn.steps)
    history = None
    if run.pre_tail is not None:
        history = periodic_warm_history(p, a, run.pre_tail[:, 0] * p.dc_gain)
    _, out = PasfState(p, a, history=history).run(
        run.xp_upd[:, 0], switches, allow_out_of_band=True)
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

    def columns(self) -> dict:
        """The run's CSV table: column name -> values, in file order."""
        t = np.arange(len(self.x_pa))
        return {"t": t, "time_s": t * self.scenario.sampling_time,
                "x_pa": self.x_pa, "x_p_true": self.truth_p,
                "x_a_true": self.truth_a, "xp": self.xp, "xa": self.xa}


def run_separation(scn: Scenario, seed: int) -> list[SeparationRun]:
    """Separate the scenario's signal with each filter and comb, then pass
    each quasi-periodic output through a fresh copy of its separator: the
    aperiodic output of that second pass is the interference trace."""
    scn.validate()
    steps = scn.steps
    T = scn.sampling_time
    t_idx = np.arange(steps)
    truth_p = eval_signal_array(scn.truth_p, t_idx, T)
    truth_a = eval_signal_array(scn.truth_a, t_idx, T)
    x_pa = truth_p + truth_a

    runs = []
    for source in (*scn.filters, *scn.combs):
        pair, switches = _scheduled_pair(scn, source, steps)
        xp, xa = PasfState(*pair).run(x_pa, switches, allow_out_of_band=True)
        _, interf = PasfState(*pair).run(xp, switches, allow_out_of_band=True)
        runs.append(SeparationRun(scn, source.label, x_pa, truth_p, truth_a,
                                  xp, xa, interf))
    return runs


# ---------------------------------------------------------------------------
# Top-level scenario execution with CSV and plot-script emission
# ---------------------------------------------------------------------------


def run_scenario(name_or_scenario, seed: int = 0, out_dir: str = ".",
                 plot_script: bool = True) -> dict:
    """Run a built-in (by name) or explicit Scenario; returns output paths
    plus in-memory results. The run starts from an empty design memo (see
    ``design.design_for``), so it designs each distinct pair once: the
    second passes and the interference trace reuse the first pass's pairs."""
    forget_designs()
    if isinstance(name_or_scenario, Scenario):
        scn = name_or_scenario
    else:
        scn = built_in(str(name_or_scenario), seed)
    scn.validate()
    if scn.kind == "separation":
        runs = run_separation(scn, seed)
        traces = {run.label: run.interference for run in runs}
    else:
        runs = [run_estimation(scn, choice, seed) for choice in scn.filters]
        traces = ({run.label: interference_trace(run) for run in runs}
                  if scn.interference_window_s is not None else {})
    single = scn.kind != "separation" and len(runs) == 1
    tables = {(f"{scn.name}.csv" if single else f"{scn.name}_{run.label}.csv"):
              run.columns() for run in runs}
    results = {run.label: run for run in runs}
    if traces:
        first = next(iter(tables.values()))
        interference = {"t": first["t"], "time_s": first["time_s"], **traces}
        tables[f"{scn.name}_interference.csv"] = interference
        if scn.kind != "separation":
            results["interference"] = interference

    # created only now, so a run that fails leaves no directory behind
    os.makedirs(out_dir, exist_ok=True)
    outputs: dict = {"name": scn.name, "files": [], "results": results}
    for fname, columns in tables.items():
        path = os.path.join(out_dir, fname)
        export_csv(path, columns)
        outputs["files"].append(path)
    if plot_script:
        path = os.path.join(out_dir, f"{scn.name}.gp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_plot_script(scn, tables))
        outputs["files"].append(path)
    return outputs


def _plot_script(scn: Scenario, tables: dict) -> str:
    """A gnuplot script over the CSV tables (file name -> columns), each
    plotted column found by its name against ``time_s``."""
    def using(fname, name):
        header = list(tables[fname])
        return (f'"{fname}" using {header.index("time_s") + 1}:'
                f'{header.index(name) + 1} with lines')

    lines = [
        f"# gnuplot script for scenario {scn.name}",
        'set datafile separator ","',
        "set terminal pngcairo size 1400,900",
        f'set output "{scn.name}.png"',
        "set key autotitle columnhead",
        'set xlabel "time [s]"',
    ]
    if scn.kind in ("estimation", "control"):
        main = next(iter(tables))
        lines.append("set multiplot layout 3,1")
        lines += [f'plot {using(main, name)} title "{name}"'
                  for name in ("y", "xp_hat_1", "xa_hat_1")]
    else:
        lines.append(f"set multiplot layout {len(tables)},1")
        for fname in tables:
            names = ([scn.filters[0].label] if fname.endswith("_interference.csv")
                     else ["xp", "xa"])
            lines.append("plot " + ", ".join(using(fname, n) for n in names))
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"
