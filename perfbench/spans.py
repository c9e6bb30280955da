"""Span recorder for the traced run.

The recorder replaces public ``pasf`` functions at the names their callers
use (``pasf.kfpasf.kf_update``, ``pasf.scenarios.export_csv``, methods on
``PasfState`` and so on) with wrappers that open and close a span. Spans are
kept in memory: coarse ones one by one (name, start, end, parent, run id),
per-sample ones aggregated by (name, parent name). A span's self time is its
duration minus the time its child spans cover; calls are strictly nested in
this single-threaded program, so that is the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# Names recorded per call are aggregated instead of kept one by one.
PER_SAMPLE = frozenset({
    "runtime.step.p7", "runtime.step.p1000", "runtime.theta",
    "kalman.predict", "kalman.update", "kfpasf.step",
})


def _step_name(args) -> str:
    return f"runtime.step.p{args[0].core.bank.period}"


# (module, attribute path, span name). A function is wrapped at every name a
# caller looks it up by; a call goes through exactly one of them.
BINDINGS = (
    ("pasf.cli", "main", "cli.main"),
    ("pasf.cli", "run_scenario", "scenarios.run_scenario"),
    ("pasf.cli", "load_scenario", "scenario_io.load"),
    ("pasf.cli", "read_csv", "csvio.read"),
    ("pasf.cli", "export_csv", "csvio.export"),
    ("pasf.scenario_io", "load_scenario", "scenario_io.load"),
    ("pasf.scenarios", "run_estimation", "scenarios.run_estimation"),
    ("pasf.scenarios", "run_separation", "scenarios.run_separation"),
    ("pasf.scenarios", "interference_trace", "scenarios.interference_trace"),
    ("pasf.scenarios", "simulate_plant", "scenarios.simulate_plant"),
    ("pasf.scenarios", "design_pair", "scenarios.design_pair"),
    ("pasf.scenarios", "design_iir", "design.iir"),
    ("pasf.scenarios", "design_fir_equiripple", "design.fir"),
    ("pasf.scenarios", "make_complementary", "design.complement"),
    ("pasf.scenarios", "comb_pair", "baselines.comb_pair"),
    ("pasf.scenarios", "eval_signal_array", "signals.eval"),
    ("pasf.scenarios", "export_csv", "csvio.export"),
    ("pasf.design", "design_iir", "design.iir"),
    ("pasf.design", "design_fir_equiripple", "design.fir"),
    ("pasf.design", "make_complementary", "design.complement"),
    ("pasf.signals", "eval_signal_array", "signals.eval"),
    ("pasf.signals", "GaussianStream.draw", "signals.noise_draw"),
    ("pasf.kfpasf", "kf_predict", "kalman.predict"),
    ("pasf.kfpasf", "kf_update", "kalman.update"),
    ("pasf.kfpasf", "KfPasfState.step", "kfpasf.step"),
    ("pasf.kfpasf", "KfPasfState.reconfigure", "kfpasf.reconfigure"),
    ("pasf.runtime", "PasfState.step", _step_name),
    ("pasf.runtime", "PasfState.reconfigure", "runtime.reconfigure"),
    ("pasf.runtime", "SeparatorCore.theta", "runtime.theta"),
    ("pasf.runtime", "SeparatorCore.swap_bank", "runtime.swap"),
)


class Recorder:
    """In-memory spans of one traced operation (``run_id``)."""

    def __init__(self, run_id: int = 0, clock=time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self._stack: list[list] = []  # [name, start, child_ns, span id]
        self._next_id = 1
        self.spans: list[dict] = []
        self.agg: dict[tuple[str, str], list[int]] = {}  # count, total, self
        self.counters: dict[str, int] = {}
        self.fixed_point_step = 0  # first Kalman step repeating P and gain
        self._last_kf = None

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        cell = self.agg.setdefault((name, parent[0] if parent else ""), [0, 0, 0])
        cell[0] += 1
        cell[1] += dur
        cell[2] += dur - child
        if name not in PER_SAMPLE:
            self.spans.append({
                "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                "parent": parent[3] if parent else None, "run": self.run_id,
            })

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def totals(self, name: str, top_level: bool = False):
        """(count, total ns, self ns) of ``name`` over all parents; with
        ``top_level`` only calls not made from inside ``name`` itself."""
        count = total = own = 0
        for (n, parent), (c, t, s) in self.agg.items():
            if n == name:
                own += s
                if not (top_level and parent == name):
                    count += c
                    total += t
        return count, total, own

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "aggregated": [
                {"name": n, "parent": p, "count": c, "total_ns": t, "self_ns": s}
                for (n, p), (c, t, s) in sorted(self.agg.items())
            ],
            "counters": dict(self.counters),
        }


def _watch_fixed_point(rec, args, result) -> None:
    """Note the first Kalman step whose covariance and gain repeat the
    previous step's bitwise."""
    belief, gain = result
    last = rec._last_kf
    rec._last_kf = (belief.t, belief.P, gain)
    if (rec.fixed_point_step == 0 and last is not None
            and belief.t == last[0] + 1 and np.array_equal(gain, last[2])
            and np.array_equal(belief.P, last[1])):
        rec.fixed_point_step = belief.t


def _count_csv(recorder, args, result) -> None:
    with open(args[0], "rb") as fh:
        data = fh.read()
    recorder.add("csvio.bytes", len(data))
    recorder.add("csvio.rows", data.count(b"\n") - 1)


class Tracer:
    """Installs the wrappers for the lifetime of a ``with`` block, recording
    into ``recorder``; leaving the block restores the original bindings."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        post = {"kalman.update": _watch_fixed_point, "csvio.export": _count_csv}
        for module, path, name in BINDINGS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, post.get(name)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrapper(self, fn, name, post):
        rec = self.recorder

        def wrapped(*args, **kwargs):
            rec.enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            if post is not None:
                post(rec, args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped


def layer_metrics(recs, factors) -> dict:
    """Per-layer metrics of one traced round from its operations' recorders.

    Spans are timed on the wall clock, which is cheaper to read than the CPU
    clock; ``factors`` rescale each operation's raw times to reference time
    (normalized over raw time of the operation, see timing.Bracketed).
    Counts are summed over the round.
    """
    counts: dict[str, int] = {}
    times: dict[str, float] = {}  # reference seconds
    selfs: dict[str, float] = {}
    counters: dict[str, int] = {}
    names = {n for rec in recs for n, _ in rec.agg}
    for rec, factor in zip(recs, factors):
        for name in names:
            c, t, s = rec.totals(name, top_level=name == "signals.eval")
            counts[name] = counts.get(name, 0) + c
            times[name] = times.get(name, 0.0) + t * 1e-9 * factor
            selfs[name] = selfs.get(name, 0.0) + s * 1e-9 * factor
        for k, v in rec.counters.items():
            counters[k] = counters.get(k, 0) + v

    def n(name):
        return counts.get(name, 0)

    def per_call(name, unit, table=times):
        return table.get(name, 0.0) * unit / n(name) if n(name) else 0.0

    step_names = [k for k in counts if k.startswith("runtime.step.")]
    export_s = times.get("csvio.export", 0.0)
    return {
        "runtime.step_calls": sum(n(k) for k in step_names),
        "runtime.us_per_sample.p1000": per_call("runtime.step.p1000", 1e6),
        "runtime.us_per_sample.p7": per_call("runtime.step.p7", 1e6),
        "runtime.reconfigure_calls": n("runtime.reconfigure"),
        "runtime.swap_calls": n("runtime.swap"),
        "runtime.core_theta_us": per_call("runtime.theta", 1e6),
        "kalman.predict_calls": n("kalman.predict"),
        "kalman.predict_us": per_call("kalman.predict", 1e6),
        "kalman.update_calls": n("kalman.update"),
        "kalman.update_us": per_call("kalman.update", 1e6),
        "kalman.fixed_point_step": min(
            (r.fixed_point_step for r in recs if r.fixed_point_step), default=0),
        "kfpasf.step_calls": n("kfpasf.step"),
        "kfpasf.step_self_us": per_call("kfpasf.step", 1e6, selfs),
        "kfpasf.reconfigure_calls": n("kfpasf.reconfigure"),
        "kfpasf.reconfigure_ms": per_call("kfpasf.reconfigure", 1e3),
        "design.iir_calls": n("design.iir"),
        "design.iir_us": per_call("design.iir", 1e6),
        "design.fir_calls": n("design.fir"),
        "design.fir_ms": per_call("design.fir", 1e3),
        "design.complement_calls": n("design.complement"),
        "baselines.comb_pair_calls": n("baselines.comb_pair"),
        "baselines.comb_pair_us": per_call("baselines.comb_pair", 1e6),
        "scenarios.run_estimation_self_s": selfs.get("scenarios.run_estimation", 0.0),
        "scenarios.simulate_plant_s": times.get("scenarios.simulate_plant", 0.0),
        "scenarios.interference_trace_s": times.get("scenarios.interference_trace", 0.0),
        "scenarios.run_separation_self_s": selfs.get("scenarios.run_separation", 0.0),
        "scenarios.design_pair_calls": n("scenarios.design_pair"),
        "signals.eval_calls": n("signals.eval"),
        "signals.eval_s": times.get("signals.eval", 0.0),
        "signals.noise_draw_s": times.get("signals.noise_draw", 0.0),
        "csvio.rows": counters.get("csvio.rows", 0),
        "csvio.bytes": counters.get("csvio.bytes", 0),
        "csvio.export_s": export_s,
        "csvio.rows_per_s": counters.get("csvio.rows", 0) / export_s if export_s else 0.0,
        "csvio.read_s": times.get("csvio.read", 0.0),
        "scenario_io.parse_ms": 1e3 * times.get("scenario_io.load", 0.0),
        "cli.main_self_s": selfs.get("cli.main", 0.0),
    }


def check_counts(metrics: dict, expected: dict) -> list[str]:
    """Mismatches between measured and expected span counts; a wrapper that
    missed a call-site binding shows up here."""
    return [
        f"{name}: expected {want}, traced {metrics[name]}"
        for name, want in expected.items()
        if metrics[name] != want
    ]
