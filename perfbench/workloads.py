"""The four workloads.

``separate-offline``, ``separate-offline-p7`` and ``estimate-offline`` drive
the ``pasf`` command line (``pasf.cli.main``) on generated files, one
operation per scenario or ``separate`` run. ``control-online`` is a
real-time host: it steps its own plant and calls
``KfPasfState.step``/``reconfigure`` once per tick, in a closed loop with one
client (the next input depends on the last output).

Each workload offers the same pieces to ``run.py``: ``generate`` writes the
inputs, ``warm_up`` runs one checked round, ``timed_round`` /
``traced_round`` run one measured round, and ``round_setup`` gives the
program's set-up time inside a timed round (part of ``setup_s``).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import check
import gen
import spans
from timing import Bracketed

MODULES = ("cli", "scenarios", "scenario_io", "design", "signals", "kalman",
           "kfpasf", "runtime", "baselines", "csvio", "metrics")


def import_pasf() -> SimpleNamespace:
    """Import ``pasf`` afresh, dropping any loaded copy; returns its modules."""
    for name in [m for m in sys.modules if m == "pasf" or m.startswith("pasf.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"pasf.{m}") for m in MODULES})


def stream_seed(seed: int, stream: int) -> int:
    """Seed of noise stream ``stream`` of a run seeded ``seed``, derived the
    way the program derives its process (1) and observation (2) noise."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass(frozen=True)
class Sizes:
    sep_duration_s: float = 6.0
    short_rows: int = 10_000
    est_duration_s: float = 2.0
    ctl_duration_s: float = 12.0

    def key(self) -> str:
        return (f"sep{self.sep_duration_s}-rows{self.short_rows}-"
                f"est{self.est_duration_s}-ctl{self.ctl_duration_s}")


DEFAULT = Sizes()
# Small inputs for the benchmark's own tests; the control episode keeps its
# length, which its tracking oracle needs.
TINY = Sizes(sep_duration_s=3.0, short_rows=1400, est_duration_s=1.0)

CTL_CHUNK = 250  # control ticks between two calibrations


class OpFailed(RuntimeError):
    pass


@contextlib.contextmanager
def first_sample(pasf, mark):
    """Call ``mark`` once, at the program's first sample: the first call of
    a public method (``step``, ``run``, ...) of a ``PasfState`` or
    ``KfPasfState``. That call puts the methods back, so the samples after
    it run on the program's own methods."""
    saved = [(cls, name, fn)
             for cls in (pasf.runtime.PasfState, pasf.kfpasf.KfPasfState)
             for name, fn in list(vars(cls).items())
             if not name.startswith("_") and inspect.isfunction(fn)]

    def restore():
        for cls, name, fn in saved:
            setattr(cls, name, fn)

    def hooked(fn):
        def first(*args, **kwargs):
            mark()
            restore()
            return fn(*args, **kwargs)
        return first

    for cls, name, fn in saved:
        setattr(cls, name, hooked(fn))
    try:
        yield
    finally:
        restore()


@dataclass
class Op:
    kind: str
    samples: int
    args: tuple  # pasf command-line arguments


class Workload:
    name = ""
    tolerance = check.CSV_TOL  # of the reference comparison

    def __init__(self, work: str, seed: int, sizes: Sizes = DEFAULT):
        self.seed = seed
        self.sizes = sizes
        self.inputs = os.path.join(work, "inputs")
        self.out = os.path.join(work, "out")
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tally = check.Tally()
        self.info: dict[str, float] = {}  # reported oracle values, not gated
        self.reference = check.load_reference(self.name, seed, sizes.key())

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.inputs, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def compare_reference(self, outputs: dict) -> list[str]:
        """Problems found comparing ``outputs`` with the recorded reference."""
        if self.reference is None:
            return []
        before = len(self.tally.problems)
        for name, arr in outputs.items():
            if name not in self.reference:
                self.tally.problems.append(f"{name}: no reference value")
            else:
                self.tally.compare(name, arr, self.reference[name], self.tolerance)
        return self.tally.problems[before:]


# ---------------------------------------------------------------------------
# Offline workloads: operations through pasf.cli.main
# ---------------------------------------------------------------------------


class Offline(Workload):
    """A round is one run of every operation in ``ops``; each is timed
    between two calibrations and checked against the warm-up round's output
    bytes, which were checked against the reference and the oracles."""

    def __init__(self, work, seed, sizes=DEFAULT):
        super().__init__(work, seed, sizes)
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}
        self.bad_kinds: set[str] = set()

    def cli(self, pasf, args) -> list[str]:
        """Run ``pasf ARGS``; returns the paths it reports writing."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pasf.cli.main(list(args))
        if code != 0:
            raise OpFailed(f"pasf {' '.join(args)} exited with {code}")
        return [ln.split()[1] for ln in buf.getvalue().splitlines()
                if ln.startswith("wrote ")]

    def scenario_args(self, path) -> tuple:
        return ("--seed", str(self.seed), "--out-dir", self.out, "scenario", path)

    def warm_up(self, pasf) -> None:
        """Run one round with the in-memory results captured and check it."""
        captured = {}
        original = pasf.cli.run_scenario

        def capturing(scn, **kwargs):
            captured[scn.name] = outputs = original(scn, **kwargs)
            return outputs

        files = {}
        pasf.cli.run_scenario = capturing
        try:
            for op in self.ops:
                self.attempted += 1
                try:
                    files[op.kind] = self.cli(pasf, op.args)
                except Exception as exc:  # an operation failing is a result
                    self.bad_kinds.add(op.kind)
                    self._fail(1, f"{op.kind}: {exc!r}")
        finally:
            pasf.cli.run_scenario = original
        self.files = files
        for kind, paths in files.items():
            self.digests[kind] = check.digest(paths)
        for kind, problems in self.check_outputs(pasf, captured, files).items():
            if problems and kind not in self.bad_kinds:
                self.bad_kinds.add(kind)
                self._fail(1, f"{kind}: " + "; ".join(problems))

    def checked_outputs(self) -> dict:
        """Outputs of the warm-up round, by name, as compared with the reference."""
        return self.csv_outputs(self.files)

    def csv_outputs(self, files) -> dict:
        return {os.path.basename(f): check.load_table(f)
                for paths in files.values() for f in paths if f.endswith(".csv")}

    def attempt(self, pasf, op, clock: Bracketed, sample: bool = True):
        """One timed operation; returns (raw s, normalized s, normalized s
        from ``cli.main`` entry to the first sample) or None."""
        self.attempted += 1
        try:
            with first_sample(pasf, clock.mark):
                paths, raw, norm = clock.time(self.cli, pasf, op.args, sample=sample)
        except Exception as exc:  # an operation failing is a result
            self._fail(1, f"{op.kind}: {exc!r}")
            return None
        if op.kind in self.bad_kinds or check.digest(paths) != self.digests.get(op.kind):
            self._fail(1, f"{op.kind}: output differs from the checked warm-up output")
            return None
        if not clock.marked:
            self._fail(1, f"{op.kind}: no PasfState or KfPasfState method was called")
            return None
        return raw, norm, clock.marked[0]

    def timed_round(self, pasf, clock) -> dict:
        return {op.kind: self.attempt(pasf, op, clock) for op in self.ops}

    def round_setup(self, timed: dict):
        """The operations' time before their first sample, or None when one
        failed."""
        if not all(timed.get(op.kind) for op in self.ops):
            return None
        return sum(timed[op.kind][2] for op in self.ops)

    def untraced_total(self, pasf, clock) -> float:
        rounds = self.timed_round(pasf, clock)
        return sum(t[1] for t in rounds.values() if t)

    def traced_round(self, pasf, clock, round_id: int):
        """One round under the span recorder: (normalized total, recorders,
        per-operation scale factors), or None when an operation failed."""
        recs, factors, total = [], [], 0.0
        for i, op in enumerate(self.ops):
            rec = spans.Recorder(run_id=round_id * 100 + i)
            with spans.Tracer(rec):
                # No speed samples inside: they would run inside open spans.
                timed = self.attempt(pasf, op, clock, sample=False)
            if timed is None:
                return None
            recs.append(rec)
            factors.append(timed[1] / timed[0])
            total += timed[1]
        return total, recs, factors

    def metrics(self, rounds) -> dict:
        """End-to-end figures from the timed rounds.

        ``samples_per_s`` is the samples of one round over the median round
        time. A batch run times no single sample (that needs the traced
        run), so a step's time here is its round's time per sample, and
        ``step_p50_us`` and ``step_p75_us`` are quantiles of it over the
        rounds: every operation weighs in by its share of the round.
        """
        samples = sum(op.samples for op in self.ops)
        whole = [sum(r[op.kind][1] for op in self.ops)
                 for r in rounds if all(r.get(op.kind) for op in self.ops)]
        per_sample = np.array(whole) * 1e6 / samples if whole else np.full(1, np.nan)
        return {
            "samples_per_s": samples / float(np.median(whole)) if whole else float("nan"),
            "step_p50_us": float(np.quantile(per_sample, 0.5)),
            "step_p75_us": float(np.quantile(per_sample, 0.75)),
            "samples": samples * len(rounds),
            "rounds": len(rounds),
        }


class SeparateOffline(Offline):
    name = "separate-offline"

    def generate(self, pasf) -> None:
        d = self.sizes.sep_duration_s
        self.steps = int(round(d / gen.SAMPLING_TIME))
        self.scn_files = [
            self._write(f"sep_{filt.split()[0]}{filt.split()[1]}.scn",
                        gen.separation_scenario(self.seed, filt, d))
            for filt in gen.SEP_FILTERS
        ]
        self.ops = [Op(f"scenario:{os.path.basename(f)}", self.steps, self.scenario_args(f))
                    for f in self.scn_files]

    def check_outputs(self, pasf, captured, files) -> dict:
        problems = {op.kind: [] for op in self.ops}
        iir_kind, fir_kind = (op.kind for op in self.ops)
        levels = {}
        for kind, name in ((iir_kind, "sep_iir3"), (fir_kind, "sep_fir50")):
            if name not in captured:
                continue
            for label, run in captured[name]["results"].items():
                scn = run.scenario
                lo = int(round(scn.interference_window_s[0] / scn.sampling_time))
                levels[label] = pasf.metrics.interference_rms(
                    run.interference, np.zeros(scn.steps), (lo, scn.steps))
                if not all(np.all(np.isfinite(a)) for a in (run.xp, run.xa, run.interference)):
                    problems[kind].append(f"{label}: non-finite output")
                if label.startswith("comb"):
                    err = float(np.max(np.abs(run.xp + run.xa - run.x_pa)))
                    if err > 1e-12:
                        problems[kind].append(f"{label}: |xp + xa - x| = {err:.3g} > 1e-12")
        if "pasf_n3" in levels and "comb3" in levels:
            if not levels["pasf_n3"] < levels["comb3"]:
                problems[iir_kind].append(
                    f"pasf_n3 interference {levels['pasf_n3']:.4g} not below "
                    f"comb3 {levels['comb3']:.4g}")
        self.info.update({f"interference_rms.{k}": v for k, v in levels.items()})
        for kind, paths in files.items():
            problems[kind] += self.compare_reference(self.csv_outputs({kind: paths}))
        return problems

    def expected_counts(self) -> dict:
        # IIR3 file: PASF and three combs, each with its second pass; FIR50
        # file: one filter, two passes.
        return {
            "runtime.step_calls": self.steps * (4 * 2 + 2),
            "runtime.reconfigure_calls": 2 * 2 * 2,
            "kalman.update_calls": 0,
            "kfpasf.step_calls": 0,
            "csvio.rows": self.steps * (5 + 2),
        }


class SeparateOfflineP7(Offline):
    name = "separate-offline-p7"

    def generate(self, pasf) -> None:
        rows = self.sizes.short_rows
        self.csv = self._write("short.csv", gen.short_period_csv(self.seed, rows))
        self.cli(pasf, ("--out-dir", self.inputs, "design-iir",
                        "--rho-tilde", repr(gen.short_period_rho(self.seed)),
                        "--period", str(gen.SHORT_PERIOD),
                        "--sampling-time", repr(gen.SAMPLING_TIME), "--order", "2"))
        self.coeffs = [os.path.join(self.inputs, f"iir2_{t}.txt") for t in "pa"]
        self.separated = os.path.join(self.out, "separated.csv")
        self.ops = [Op("separate:p7", rows, (
            "--out-dir", self.out, "separate", "--coeffs-p", self.coeffs[0],
            "--coeffs-a", self.coeffs[1], "--input", self.csv,
            "--out", self.separated))]

    def check_outputs(self, pasf, captured, files) -> dict:
        kind = self.ops[0].kind
        problems = {kind: []}
        if kind in files:
            problems[kind] += self._check_separated()
            problems[kind] += self.compare_reference(self.csv_outputs(files))
        return problems

    def _check_separated(self) -> list[str]:
        """``separate`` output against an independent lifted recursion."""
        table = check.load_table(self.separated)
        x = check.load_table(self.csv)[:, 1]
        out = []
        if table.shape != (len(x), 4) or not np.array_equal(table[:, 0], np.arange(len(x))):
            return [f"separated.csv has shape {table.shape}, want ({len(x)}, 4)"]
        if not check.close(table[:, 1], x):
            out.append("separated.csv x column differs from the input")
        for col, path in ((2, self.coeffs[0]), (3, self.coeffs[1])):
            fb, ff, period = check.parse_coefficient_file(path)
            if not check.close(table[:, col], check.lifted_filter(x, fb, ff, period)):
                out.append(f"separated.csv column {col} differs from the lifted recursion")
        return out

    def expected_counts(self) -> dict:
        rows = self.sizes.short_rows
        return {
            "runtime.step_calls": rows,
            "runtime.reconfigure_calls": 0,
            "kalman.update_calls": 0,
            "kfpasf.step_calls": 0,
            "csvio.rows": rows,
        }


# The documented estimation CSV columns (README): 18 with the leading t.
ESTIMATION_HEADER = (["t", "time_s", "u", "rho_tilde", "y"]
                     + [f"{tag}_{i}" for tag in ("x", "xhat", "xp_hat", "xa_hat")
                        for i in (1, 2, 3)] + ["trP"])


class EstimateOffline(Offline):
    name = "estimate-offline"

    def generate(self, pasf) -> None:
        d = self.sizes.est_duration_s
        self.steps = int(round(d / gen.SAMPLING_TIME))
        self.scn_files = [
            self._write(f"est_{filt.replace(' ', '')}.scn",
                        gen.estimation_scenario(self.seed, filt, d))
            for filt in gen.EST_FILTERS
        ]
        self.ops = [Op(f"scenario:{os.path.basename(f)}", self.steps, self.scenario_args(f))
                    for f in self.scn_files]

    def check_outputs(self, pasf, captured, files) -> dict:
        problems = {op.kind: [] for op in self.ops}
        levels = {}
        for op, path in zip(self.ops, self.scn_files):
            name = os.path.splitext(os.path.basename(path))[0]
            if name not in captured:
                continue
            results = captured[name]["results"]
            label = next(k for k in results if k != "interference")
            run = results[label]
            scn = run.scenario
            lo = int(round(scn.interference_window_s[0] / scn.sampling_time))
            levels[label] = pasf.metrics.interference_rms(
                results["interference"][label], np.zeros(scn.steps), (lo, scn.steps))
            arrays = (run.x_upd, run.xp_upd, run.xa_upd, run.tr_p,
                      results["interference"][label])
            if not all(np.all(np.isfinite(a)) for a in arrays):
                problems[op.kind].append(f"{label}: non-finite estimate")
            main_csv = [f for f in files.get(op.kind, ()) if f.endswith(f"{name}.csv")]
            if main_csv:
                with open(main_csv[0], encoding="utf-8") as fh:
                    header = fh.readline().strip().split(",")
                if header != ESTIMATION_HEADER:
                    problems[op.kind].append(f"{name}.csv header {header}")
        if all(k in levels for k in ("iir1", "iir2", "iir3")):
            if not levels["iir3"] < levels["iir2"] < levels["iir1"]:
                for op in self.ops[:3]:
                    problems[op.kind].append(
                        "interference order IIR3 < IIR2 < IIR1 violated: " + ", ".join(
                            f"{k} {levels[k]:.4g}" for k in ("iir1", "iir2", "iir3")))
        self.info.update({f"interference_rms.{k}": v for k, v in levels.items()})
        for kind, paths in files.items():
            problems[kind] += self.compare_reference(self.csv_outputs({kind: paths}))
        return problems

    def expected_counts(self) -> dict:
        n = len(self.ops) * self.steps
        return {
            "kalman.predict_calls": n,
            "kalman.update_calls": n,
            "kfpasf.step_calls": n,
            "runtime.step_calls": n,  # the interference pass
            "kfpasf.reconfigure_calls": 0,
            "scenarios.design_pair_calls": 2 * len(self.ops),
            "csvio.rows": 2 * n,
        }


# ---------------------------------------------------------------------------
# Online control: the benchmark is the real-time host
# ---------------------------------------------------------------------------


class Episode(SimpleNamespace):
    """State of one closed-loop episode (plant, estimator, controller)."""


class ControlOnline(Workload):
    name = "control-online"
    tolerance = check.ARRAY_TOL
    deadline_ns = 1_000_000  # the sampling time, T = 1 ms

    def __init__(self, work, seed, sizes=DEFAULT):
        super().__init__(work, seed, sizes)
        self.first = None  # outputs of the first checked episode
        self.first_ok = False
        self.rates: list[float] = []  # ticks per normalized second, per chunk
        self.tick_us: list[np.ndarray] = []  # normalized CPU latency per tick
        self.misses = 0
        self.ticks = 0

    def generate(self, pasf) -> None:
        self.path = self._write("ctl.scn", gen.control_scenario(self.seed, self.sizes.ctl_duration_s))

    def setup(self, pasf) -> Episode:
        """Parse, design, build the estimator and evaluate the commands."""
        sc = pasf.scenarios
        sig = pasf.signals
        scn = pasf.scenario_io.load_scenario(self.path, self.seed)
        T = scn.sampling_time
        steps = scn.steps
        model = pasf.kalman.SystemModel(A=scn.A, B=scn.B, C=scn.C, Q=scn.Q, R=scn.R)
        choice = scn.filters[0]
        p, a = sc.design_pair(choice, sc.rho_at(scn.rho_schedule, T), scn.period, T)
        hist = pasf.kfpasf.zero_histories(model, choice.order, scn.period)
        ctl = scn.controller
        t_idx = np.arange(steps + 1)
        rho = sc.rho_series(scn.rho_schedule, steps, T)
        self.steps = steps
        self.switches = int(np.sum(rho[1:] != rho[:-1]))
        noise = [np.random.Generator(np.random.PCG64(stream_seed(self.seed, s))).standard_normal(steps)
                 * np.sqrt(var) for s, var in ((1, scn.process_noise_variance),
                                              (2, scn.observation_noise_variance))]
        return Episode(
            est=pasf.kfpasf.KfPasfState(model, p, a, hist, scn.P0),
            Spec=pasf.design.SeparationSpec, period=scn.period, T=T, steps=steps,
            A=scn.A, Bf=scn.B.reshape(-1), C=scn.C, ctl=ctl, rho=rho, current=rho[0],
            cmd_p=sig.eval_signal_array(ctl.cmd_p, t_idx, T),
            cmd_a=sig.eval_signal_array(ctl.cmd_a, t_idx, T),
            dcmd_p=sig.eval_signal_array(sig.derivative(ctl.cmd_p), t_idx, T),
            dcmd_a=sig.eval_signal_array(sig.derivative(ctl.cmd_a), t_idx, T),
            v=noise[0], w=noise[1], x=np.zeros(model.n), u=np.zeros(steps + 1),
            xp=np.empty((steps, model.n)), xa=np.empty((steps, model.n)),
            xu=np.empty((steps, model.n)), lat=np.zeros(steps, dtype=np.int64),
            cpu=np.zeros(steps, dtype=np.int64),
            factor=np.ones(steps), done=0, error=None,
        )

    @staticmethod
    def run_ticks(ep: Episode, lo: int, hi: int) -> bool:
        """Ticks lo+1..hi. Only the library calls are inside the latency
        window, timed on the wall clock and on the thread's CPU clock; the
        plant and the PD controller are the host's."""
        A, Bf, C, ctl, est = ep.A, ep.Bf, ep.C, ep.ctl, ep.est
        u, v, w, rho, lat, cpu = ep.u, ep.v, ep.w, ep.rho, ep.lat, ep.cpu
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns
        x = ep.x
        for t in range(lo + 1, hi + 1):
            i = t - 1
            u_prev = u[i]
            x = A @ x + Bf * (u_prev + v[i])
            y = float((C @ x)[0] + w[i])
            start = clock()
            cpu_start = cpu_clock()
            try:
                if rho[i] != ep.current:
                    est.reconfigure(ep.Spec(rho[i], ep.period, ep.T), allow_out_of_band=True)
                    ep.current = rho[i]
                rec = est.step([u_prev], [y])
            except Exception as exc:  # a failing tick is a result
                ep.error = f"tick {t}: {exc!r}"
                ep.done = t
                return False
            cpu[i] = cpu_clock() - cpu_start
            lat[i] = clock() - start
            xp, xa = rec.xp_upd, rec.xa_upd
            ep.xp[i] = xp
            ep.xa[i] = xa
            ep.xu[i] = rec.x_upd
            if t * ep.T < ctl.start_s:
                u[t] = 0.0
            else:
                u[t] = (ctl.kp_p * (ep.cmd_p[t] - xp[0]) + ctl.kd_p * (ep.dcmd_p[t] - xp[1])
                        + ctl.kp_a * (ep.cmd_a[t] - xa[0]) + ctl.kd_a * (ep.dcmd_a[t] - xa[1]))
        ep.x = x
        ep.done = hi
        return True

    def episode(self, ep: Episode, clock: Bracketed) -> tuple[float, float]:
        """Run every tick in chunks, each between two calibrations; returns
        the raw and normalized time of the ticks."""
        raw_total = norm_total = 0.0
        ep.rates = []
        for lo in range(0, ep.steps, CTL_CHUNK):
            hi = min(lo + CTL_CHUNK, ep.steps)
            ok, raw, norm = clock.time(self.run_ticks, ep, lo, hi, sample=False)
            ep.factor[lo:hi] = norm / raw
            raw_total += raw
            norm_total += norm
            if not ok:
                break
            ep.rates.append((hi - lo) / norm)
        return raw_total, norm_total

    def checked_outputs(self) -> dict:
        return self.first

    def outputs(self, ep: Episode) -> dict:
        n = ep.done
        return {"xp_upd": ep.xp[:n], "xa_upd": ep.xa[:n], "x_upd": ep.xu[:n],
                "u": ep.u[1:n + 1]}

    def tracking(self, ep: Episode) -> tuple[float, float]:
        """Quasi-aperiodic and quasi-periodic tracking ratios over the last
        third of the episode (criterion 11's measure)."""
        win = slice(ep.steps - ep.steps // 3, ep.steps)
        ratios = []
        for est, cmd in ((ep.xa, ep.cmd_a), (ep.xp, ep.cmd_p)):
            ref = cmd[1:][win]
            ratios.append(check.rms(est[win, 0] - ref) / check.rms(ref))
        return ratios[0], ratios[1]

    def account(self, ep: Episode, timed: bool = False) -> None:
        """Check an episode and add its ticks to the tallies, and with
        ``timed`` its timings too."""
        attempted = ep.done
        self.attempted += attempted
        problems = [ep.error] if ep.error else []
        outs = self.outputs(ep)
        if self.first is None:
            self.first = outs
            if not problems:
                problems += self.check_first(ep, outs)
            self.first_ok = not problems
        elif not self.first_ok:
            problems.append("first episode failed its check")
        elif not all(np.array_equal(outs[k], self.first[k]) for k in outs):
            problems.append("episode differs bitwise from the first episode")
        n = ep.done - (1 if ep.error else 0)
        if timed and n:
            self.rates += ep.rates
            self.tick_us.append(ep.cpu[:n] * ep.factor[:n] * 1e-3)
            self.misses += int(np.sum(ep.lat[:n] > self.deadline_ns)) + (1 if ep.error else 0)
            self.ticks += attempted
        if problems:
            self._fail(attempted, "; ".join(problems))

    def check_first(self, ep: Episode, outs: dict) -> list[str]:
        problems = []
        if not all(np.all(np.isfinite(a)) for a in outs.values()):
            problems.append("non-finite estimate or command")
        ratio_a, ratio_p = self.tracking(ep)
        self.info["tracking_ratio.aperiodic"] = ratio_a
        self.info["tracking_ratio.periodic"] = ratio_p  # criterion 11, reported only
        if not ratio_a < 0.05:
            problems.append(f"quasi-aperiodic tracking ratio {ratio_a:.4f} >= 0.05")
        return problems + self.compare_reference(outs)

    def warm_up(self, pasf) -> None:
        ep = self.setup(pasf)
        self.episode(ep, Bracketed())
        self.account(ep)

    def timed_round(self, pasf, clock) -> dict:
        ep, _, setup = clock.time(self.setup, pasf)
        self.episode(ep, clock)
        self.account(ep, timed=True)
        return {"setup": None if ep.error else setup}

    @staticmethod
    def round_setup(timed: dict):
        """The host's set-up before the first tick (the program is the
        library it calls)."""
        return timed["setup"]

    def untraced_total(self, pasf, clock) -> float:
        """Normalized time of one set-up and episode, the unit traced_round
        traces."""
        ep, _, norm = clock.time(self.setup, pasf)
        total = norm + self.episode(ep, clock)[1]
        self.account(ep)
        return total

    def traced_round(self, pasf, clock, round_id: int):
        rec = spans.Recorder(run_id=round_id)
        with spans.Tracer(rec):
            # No speed samples inside: they would run inside open spans.
            ep, raw0, norm0 = clock.time(self.setup, pasf, sample=False)
            raw, norm = self.episode(ep, clock)
        self.account(ep)
        if ep.error:
            return None
        return norm0 + norm, [rec], [(norm0 + norm) / (raw0 + raw)]

    def metrics(self, rounds) -> dict:
        """Tick rate (median over chunks of ticks) and per-tick latency.

        Latency is the library calls' CPU time, normalized; neighbours that
        preempt this process do not count against the program. Its p50 and
        p75 over all measured ticks are the gated figures. The p90 and p99
        are reported beside them: above about p80 the distribution follows
        the shared host, and p90 moved by 10-20% between runs of the same
        code, more than a bound could absorb. The deadline is checked on
        raw wall latency: it is a real-time limit.
        """
        lat = np.concatenate(self.tick_us) if self.tick_us else np.full(1, np.nan)
        p50, p75, p90, p99 = np.quantile(lat, (0.5, 0.75, 0.9, 0.99))
        return {
            "samples_per_s": float(np.median(self.rates)) if self.rates else float("nan"),
            "step_p50_us": float(p50),
            "step_p75_us": float(p75),
            "step_p90_us": float(p90),
            "step_p99_us": float(p99),
            "samples": self.ticks,
            "rounds": len(rounds),
            "deadline_miss_ratio": self.misses / max(self.ticks, 1),
            "deadline_misses": self.misses,
        }

    def expected_counts(self) -> dict:
        return {
            "kalman.predict_calls": self.steps,
            "kalman.update_calls": self.steps,
            "kfpasf.step_calls": self.steps,
            "kfpasf.reconfigure_calls": self.switches,
            "runtime.step_calls": 0,
        }


WORKLOADS = {w.name: w for w in (SeparateOffline, SeparateOfflineP7, EstimateOffline,
                                  ControlOnline)}
