"""Scenario values and their runners.

A Scenario is parsed from a scenario file (see scenario_io); the paper's
four scenarios, sec51..sec54, are such files shipped with the package.

The runners only orchestrate. One rule, ``_in_force``, decides which
``[rho]`` or comb piece is in force at a sample: ``rho_at``,
``rho_series``, the estimator's reconfigurations and every separation pass
read it. One builder, ``_scheduled_pair``, turns a filter choice or a comb
baseline into its starting coefficient pair and its switch list, which
both passes of a separation source share.

The plant simulations form ``B u'`` as one array before their loops: the
estimation kind for all steps, the warm-start pre-run for each block (the
control kind's u depends on the estimate, so it keeps the per-tick
product). These are the same single-rounded products, so the states are
bitwise those of the per-step form. ``simulate_plant`` writes each state
straight into its output row, ``product(n)(A, x, out=row)`` and then
``row += B u'``, with no per-step temporary; the estimation runner steps
the plant and forms the measurement with the same ``product(n)``.

A periodic warm start passes its pre-run (``_periodic_prerun``) to the
estimator as the function that writes its input history: the pre-run
evaluates the input and steps the plant in blocks of ``_PRERUN_BLOCK``
samples, the settle through one reused block buffer and the last
order*period states straight into the estimator's input ring, whose last
row is then x(0). So it holds no array as long as the pre-run or its
history beside the rings. The run keeps only the first state's tail
(``EstimationRun.pre_tail``), which the interference pass multiplies by the
DC gain straight into its own ring.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from . import signals as sig
from .baselines import comb_pair
from .csvio import SharedColumns, export_csv
from .design import (SeparationSpec, check_order, check_sampling_time, design_for,
                     fir_band_edges, forget_designs, iir_taps)
# unused here: the traced benchmark run (perfbench/spans.py) wraps these names
from .design import design_fir_equiripple, design_iir, make_complementary  # noqa: F401
from .errors import DegenerateDesignError, InvalidArgumentError
from .kalman import SystemModel, product
from .kfpasf import KfPasfState, zero_histories
from .runtime import PasfState, periodic_warm_history
from .signals import NoiseSpec, eval_signal_array
from .values import replace, value


@value
class FilterChoice:
    realization: str  # iir | fir | iir-complementary | fir-complementary
    order: int
    label: str = ""

    def __post_init__(self):
        base = self.realization.removesuffix("-complementary")
        if base not in ("iir", "fir"):
            raise InvalidArgumentError(f"unknown realization {self.realization!r}")
        check_order(base, self.order)
        if not self.label:
            object.__setattr__(self, "label", f"{base}{self.order}")


@value
class ControllerSpec:
    start_s: float
    kp_p: float
    kd_p: float
    kp_a: float
    kd_a: float
    cmd_p: object
    cmd_a: object


@value
class CombBaseline:
    label: str
    schedule: tuple  # ((start_s, CombSpec), ...) sorted by start


@value
class Scenario:
    """One study: its kind, sampling, ``[rho]`` schedule, filters and, by
    kind, its model, controller or truth signals and combs. It is a frozen
    value (see ``pasf.values``) that checks itself when made, so every
    Scenario, one from ``values.replace`` too, is valid: an invalid one
    raises ``InvalidArgumentError`` instead. What its kind's ``KINDS``
    record reads names, through ``_READS``, the fields it needs set; a field
    only another kind needs stays None. Every ``[rho]`` value passes the
    designs' spec check (out of band allowed) and, for each filter, the FIR
    design's band-edge rule (``design.fir_band_edges``) or the IIR design's
    tap rule (``design.iir_taps``), so no run fails on a piece it reaches
    late."""

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

    def __post_init__(self):
        kind = kind_of(self.kind)
        check_sampling_time(self.sampling_time)
        if self.warm_start not in ("zero", "periodic"):
            raise InvalidArgumentError(f"unknown warm_start {self.warm_start!r}")
        if not np.isfinite(self.duration_s / self.sampling_time):
            # a subnormal sampling_time overflows the ratio that steps rounds
            raise InvalidArgumentError(
                f"duration / sampling_time must be finite, got {self.duration_s} / "
                f"{self.sampling_time}")
        if self.steps < 1:
            raise InvalidArgumentError(
                f"duration must hold at least one sample, got {self.duration_s}")
        if self.settle_s < 0:
            raise InvalidArgumentError(f"settle must be >= 0, got {self.settle_s}")
        if not np.isfinite(self.settle_s / self.sampling_time):
            # the warm-start pre-run rounds this ratio to its sample count
            raise InvalidArgumentError(
                f"settle / sampling_time must be finite, got {self.settle_s} / "
                f"{self.sampling_time}")
        if not self.rho_schedule or self.rho_schedule[0][0] > 0:
            raise InvalidArgumentError("rho schedule must start at time 0")
        starts = [s for s, _ in self.rho_schedule]
        if starts != sorted(starts):
            raise InvalidArgumentError("rho schedule must be sorted by start time")
        if starts[-1] >= self.duration_s:
            raise InvalidArgumentError("rho schedule boundary beyond duration")
        for start, rho_tilde in self.rho_schedule:
            # the runners design at every piece, out of band allowed
            spec = SeparationSpec(rho_tilde, self.period, self.sampling_time)
            try:
                spec.validate(allow_out_of_band=True)
            except (InvalidArgumentError, DegenerateDesignError) as exc:
                raise InvalidArgumentError(
                    f"rho piece at {start:g} s: {exc}") from exc
            for f in self.filters:
                try:
                    # an FIR design takes its default band edges
                    if f.realization.startswith("fir"):
                        fir_band_edges(spec.rho)
                    else:
                        iir_taps(spec.rho, f.order)
                except (InvalidArgumentError, DegenerateDesignError) as exc:
                    raise InvalidArgumentError(
                        f"rho piece at {start:g} s, filter {f.label}: {exc}") from exc
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
        if "interference" in labels:
            raise InvalidArgumentError(
                "label 'interference' is reserved: it names the interference CSV")
        window = self.interference_window_s
        if window is not None and not 0 <= window[0] < window[1] <= self.duration_s:
            raise InvalidArgumentError(
                "interference window must satisfy 0 <= START < END <= duration "
                f"{self.duration_s:g}, got {window[0]:g} {window[1]:g}")
        for read, names in _READS.items():
            for name in names:
                if (getattr(self, name) is None) == (read in kind.reads):
                    rule = "requires" if read in kind.reads else "does not run on"
                    raise InvalidArgumentError(f"{self.kind} scenario {rule} {name}")
        # the runners drive one input u and measure one output y
        if np.ndim(self.B) == 2 and np.shape(self.B)[1] != 1:
            raise InvalidArgumentError(
                f"B must be one input column, got shape {np.shape(self.B)}")
        if np.ndim(self.C) == 2 and np.shape(self.C)[0] != 1:
            raise InvalidArgumentError(
                f"C must be one measurement row, got shape {np.shape(self.C)}")
        if self.controller is not None:
            # the PD law feeds back the first two states: position and rate
            n = np.atleast_2d(self.A).shape[1]
            if n < 2:
                raise InvalidArgumentError(
                    f"control scenario needs at least 2 states in A, got {n}")


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


def _check_seed(seed: int) -> int:
    """``seed`` if it can seed a run: the one rule of every run seed. A
    negative one is an ``InvalidArgumentError`` that names it."""
    if seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _stream_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([_check_seed(seed), stream]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Estimation / control runner
# ---------------------------------------------------------------------------


@value
class EstimationRun:
    """One filter's estimation or control run. ``interference`` is its
    interference trace (see ``interference_trace``), set by the kind's runs
    when the scenario has an interference window and None otherwise.
    ``pre_tail`` is what that trace's warm start reads of a periodic
    pre-run: the first state at times -(depth-1)..0, oldest first, shape
    (depth,); None after a zero start."""

    scenario: Scenario
    choice: FilterChoice
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
    pre_tail: np.ndarray | None = None
    interference: np.ndarray | None = None

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

    def summary(self) -> dict:
        """The run's scalars for a replica table: column name -> value."""
        err = self.x_true[:, 0] - self.x_upd[:, 0]
        return {f"{self.label}_rms_err_1": float(np.sqrt(np.mean(err**2))),
                f"{self.label}_trP_final": float(self.tr_p[-1])}


def simulate_plant(A, B, u_plus_v: np.ndarray, x0: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """States x(1..steps) of x(t+1) = A x(t) + B u'(t) from x(0) = x0,
    written into ``out`` ((steps, n), which may hold x0) when it is given
    and returned."""
    if out is None:
        out = np.empty((len(u_plus_v), A.shape[0]))
    x = np.array(x0, dtype=float)  # a copy: out may be x0's array
    # each row is the single-rounded B u'(i) the per-step form computes
    Bu = np.multiply.outer(u_plus_v, B.reshape(-1))
    by_n = product(A.shape[1])
    for row, bu in zip(out, Bu):
        by_n(A, x, out=row)
        row += bu
        x = row
    return out


# Samples per block of a periodic warm start's pre-run: bounds its
# temporaries and its reused buffer of settle states.
_PRERUN_BLOCK = 8192


def _periodic_prerun(scn: Scenario, ring: np.ndarray) -> None:
    """Noise-free settle run ending at t = 0, written into ``ring``
    ((depth, n)): the states for times -(depth-1)..0, oldest first, so the
    last row is x(0). The input is evaluated and the plant stepped one
    block of at most ``_PRERUN_BLOCK`` samples at a time; the settle
    states go through one reused block buffer, the last depth states
    straight into ``ring``, so no array as long as the pre-run is made."""
    depth, n = ring.shape
    settle = int(round(scn.settle_s / scn.sampling_time))
    block = np.empty((min(settle, _PRERUN_BLOCK), n))
    x = np.zeros(n)
    # state row k of a part starting at time `first` is x(first + k + 1)
    for first, rows, dest in ((-settle - depth, settle, None), (-depth, depth, ring)):
        for lo in range(0, rows, _PRERUN_BLOCK):
            hi = min(lo + _PRERUN_BLOCK, rows)
            u = eval_signal_array(scn.input_u, np.arange(first + lo, first + hi),
                                  scn.sampling_time)
            out = block[:hi - lo] if dest is None else dest[lo:hi]
            x = simulate_plant(scn.A, scn.B, u, x, out=out)[-1]


def run_estimation(scn: Scenario, choice: FilterChoice, seed: int) -> EstimationRun:
    steps = scn.steps
    T = scn.sampling_time
    n = scn.A.shape[0]
    model = SystemModel(A=scn.A, B=scn.B, C=scn.C, Q=scn.Q, R=scn.R)

    rho = rho_series(scn.rho_schedule, steps, T)
    (p, a), switches = _scheduled_pair(scn, choice, steps)

    v, w = (sig.GaussianStream(NoiseSpec(0.0, variance, _stream_seed(seed, stream))).draw(steps)
            for stream, variance in ((1, scn.process_noise_variance),
                                     (2, scn.observation_noise_variance)))

    if scn.warm_start == "periodic":
        hist = periodic_warm_history(p, a, partial(_periodic_prerun, scn))
    else:
        hist = zero_histories(model, choice.order, scn.period)
    est = KfPasfState(model, p, a, hist, scn.P0)
    # the pre-run's last state, or zero, is the plant's x(0)
    ring = est.core.in_buf
    x = ring[-1].copy()
    pre_tail = ring[:, 0].copy() if scn.warm_start == "periodic" else None

    Bf = scn.B.reshape(-1)
    ctl = scn.controller  # set for the kinds that close the loop
    commands = {}
    if ctl is None:
        u = eval_signal_array(scn.input_u, np.arange(steps), T)
        # with no feedback u is known up front, so B (u + v) is formed once
        Bu = np.multiply.outer(u + v, Bf)
    else:
        # the PD law sets u(t) from the split at t, so u(0) = 0
        t_idx = np.arange(steps + 1)
        cmd_p, cmd_a, dcmd_p, dcmd_a = (
            eval_signal_array(s, t_idx, T) for s in (
                ctl.cmd_p, ctl.cmd_a, sig.derivative(ctl.cmd_p), sig.derivative(ctl.cmd_a)))
        commands = dict(cmd_p=cmd_p[1:], cmd_a=cmd_a[1:])
        u = np.zeros(steps + 1)

    out = EstimationRun(
        scenario=scn, choice=choice,
        t=np.arange(1, steps + 1),
        u=u[:steps], rho=rho, y=np.empty(steps),
        x_true=np.empty((steps, n)), x_upd=np.empty((steps, n)),
        xp_upd=np.empty((steps, n)), xa_upd=np.empty((steps, n)),
        tr_p=np.empty(steps), pre_tail=pre_tail, **commands,
    )

    by_n = product(n)
    switches = dict(switches)
    P = None
    for t in range(1, steps + 1):
        i = t - 1
        x = by_n(scn.A, x) + (Bu[i] if ctl is None else Bf * (u[i] + v[i]))
        y = float(by_n(scn.C, x)[0] + w[i])
        if i in switches:
            est.reconfigure(switches[i], allow_out_of_band=True)
        rec = est.step([u[i]], [y])
        out.y[i] = y
        out.x_true[i] = x
        out.x_upd[i] = rec.x_upd
        out.xp_upd[i] = rec.xp_upd
        out.xa_upd[i] = rec.xa_upd
        if rec.P is not P:  # a frozen recursion returns the same P
            P = rec.P
            tr_p = np.trace(P)
        out.tr_p[i] = tr_p
        # a NaN start, which ControllerSpec allows, starts the law at once
        if ctl is not None and not t * T < ctl.start_s:
            u[t] = (
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
        # the settled periodic estimate, multiplied straight into the ring
        tail = run.pre_tail[:, None]
        history = periodic_warm_history(
            p, a, lambda ring: np.multiply(tail, p.dc_gain, out=ring))
    _, out = PasfState(p, a, history=history).run(
        run.xp_upd[:, 0], switches, allow_out_of_band=True)
    return out


# ---------------------------------------------------------------------------
# Separation-only runner (comb comparison)
# ---------------------------------------------------------------------------


@value
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

    def summary(self) -> dict:
        """The run's scalars for a replica table: column name -> value."""
        err_p = self.xp - self.truth_p
        return {f"{self.label}_rms_sep_err": float(np.sqrt(np.mean(err_p**2))),
                f"{self.label}_rms_interference": float(
                    np.sqrt(np.mean(self.interference**2)))}


def run_separation(scn: Scenario) -> list[SeparationRun]:
    """Separate the scenario's signal with each filter and comb, then pass
    each quasi-periodic output through a fresh copy of its separator: the
    aperiodic output of that second pass is the interference trace. It
    takes no seed: a separation scenario's noise is drawn when it is made."""
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
# Scenario kinds: the one home of every rule that depends on the kind
# ---------------------------------------------------------------------------

# the Scenario fields that a kind reading each section or [scenario] key
# needs set; a kind that does not read it leaves them None
_READS = {"model": ("A", "B", "C", "Q", "R", "P0"), "input": ("input_u",),
          "controller": ("controller",), "truth_p": ("truth_p",),
          "truth_a": ("truth_a",), "comb": ()}


@value
class Kind:
    """What a scenario kind reads, runs, writes and plots. Its functions
    call the runners by their module names, so a caller that replaces
    ``run_estimation`` or another runner there is followed. Each run
    carries its own interference trace, or None, so whether a scenario
    writes an interference table is not a rule of its kind."""

    reads: tuple  # its own sections and [scenario] keys, keys of _READS
    runs: object  # (scenario, seed) -> its runs, one per filter or comb
    one_file: bool  # one run writes NAME.csv, and results["interference"] is set
    panels: object  # (scenario, tables, using) -> its gnuplot plot lines


def _estimate_panels(scn, tables, using):
    main = next(iter(tables))
    return [f'plot {using(main, name)} title "{name}"'
            for name in ("y", "xp_hat_1", "xa_hat_1")]


def _separation_panels(scn, tables, using):
    return ["plot " + ", ".join(using(fname, name) for name in (
                [scn.filters[0].label] if fname.endswith("_interference.csv")
                else ["xp", "xa"]))
            for fname in tables]


def _estimation_runs(scn, seed):
    """One run per filter; with an interference window, each then gets its
    interference trace."""
    runs = [run_estimation(scn, choice, seed) for choice in scn.filters]
    if scn.interference_window_s is None:
        return runs
    return [replace(run, interference=interference_trace(run)) for run in runs]


_ESTIMATION = Kind(reads=("model", "input"), runs=_estimation_runs,
                   one_file=True, panels=_estimate_panels)

KINDS = {
    "estimation": _ESTIMATION,
    # estimation that closes a PD loop on its split estimates
    "control": replace(_ESTIMATION, reads=(*_ESTIMATION.reads, "controller")),
    "separation": Kind(
        reads=("truth_p", "truth_a", "comb"), runs=lambda scn, seed: run_separation(scn),
        one_file=False, panels=_separation_panels),
}


def kind_of(name) -> Kind:
    """The ``KINDS`` record of scenario kind ``name``."""
    if name not in KINDS:
        raise InvalidArgumentError(f"unknown scenario kind {name!r}")
    return KINDS[name]


# ---------------------------------------------------------------------------
# Top-level scenario execution with CSV and plot-script emission
# ---------------------------------------------------------------------------


def run_scenario(scn: Scenario, seed: int = 0, out_dir: str = ".",
                 plot_script: bool = True) -> dict:
    """Run a Scenario; returns output paths plus in-memory results. Its
    kind's ``KINDS`` record decides the runs, the file names and the plot
    panels; the runs whose ``interference`` is set make up
    ``NAME_interference.csv``. The run starts from an empty design memo
    (see ``design.design_for``), so it designs each distinct pair once: the
    second passes and the interference trace reuse the first pass's pairs.

    Its tables repeat columns: every filter's table starts with the same
    signal columns, and the interference table with ``t,time_s``. One
    ``csvio.SharedColumns`` record over all of them lets ``export_csv``,
    still called once per file, format each repeated run of columns once
    for the scenario. The text is that of formatting the run in each file,
    so every byte is the same; it is held, one string per 1,024 rows, until
    the files are written."""
    forget_designs()
    kind = KINDS[scn.kind]
    runs = kind.runs(scn, seed)
    traces = {run.label: run.interference for run in runs
              if run.interference is not None}
    single = kind.one_file and len(runs) == 1
    tables = {(f"{scn.name}.csv" if single else f"{scn.name}_{run.label}.csv"):
              run.columns() for run in runs}
    results = {run.label: run for run in runs}
    if traces:
        first = next(iter(tables.values()))
        interference = {"t": first["t"], "time_s": first["time_s"], **traces}
        tables[f"{scn.name}_interference.csv"] = interference
        if kind.one_file:
            results["interference"] = interference

    # created only now, so a run that fails leaves no directory behind
    os.makedirs(out_dir, exist_ok=True)
    outputs: dict = {"files": [], "results": results}
    shared = SharedColumns(tables.values())
    for fname, columns in tables.items():
        path = os.path.join(out_dir, fname)
        export_csv(path, columns, shared)
        outputs["files"].append(path)
    if plot_script:
        path = os.path.join(out_dir, f"{scn.name}.gp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_plot_script(scn, tables))
        outputs["files"].append(path)
    return outputs


def _plot_script(scn: Scenario, tables: dict) -> str:
    """A gnuplot script over the CSV tables (file name -> columns), one
    panel per line its kind plots, each plotted column found by its name
    against ``time_s``."""
    def using(fname, name):
        header = list(tables[fname])
        return (f'"{fname}" using {header.index("time_s") + 1}:'
                f'{header.index(name) + 1} with lines')

    plots = KINDS[scn.kind].panels(scn, tables, using)
    lines = [
        f"# gnuplot script for scenario {scn.name}",
        'set datafile separator ","',
        "set terminal pngcairo size 1400,900",
        f'set output "{scn.name}.png"',
        "set key autotitle columnhead",
        'set xlabel "time [s]"',
        f"set multiplot layout {len(plots)},1",
        *plots,
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"
