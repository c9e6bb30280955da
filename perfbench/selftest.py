"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run; they
take about a minute (one tiny run of each workload, timed and traced).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads and puts src on the path)
import check  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(tmp_path, name, trace):
    wl = workloads.WORKLOADS[name](str(tmp_path), seed=3, sizes=workloads.TINY)
    record = run.measure(wl, seconds=0.0, trace=trace)
    assert wl.attempted >= 1
    assert wl.failed == 0, wl.problems
    end_to_end, per_layer = run.declared_metrics()
    names = per_layer if trace else end_to_end
    figures = record["figures"]
    assert set(names) <= set(figures)
    if not trace:
        assert all(np.isfinite(figures[k]) and figures[k] > 0 for k in names)


def test_host_loop_reproduces_the_library_closed_loop(tmp_path):
    wl = workloads.ControlOnline(str(tmp_path), seed=5, sizes=workloads.TINY)
    pasf = workloads.import_pasf()
    wl.generate(pasf)
    ep = wl.setup(pasf)
    wl.episode(ep, timing.Bracketed())
    scn = pasf.scenario_io.load_scenario(wl.path, 5)
    run = pasf.scenarios.run_estimation(scn, scn.filters[0], 5)
    assert ep.done == scn.steps and ep.error is None
    assert np.array_equal(ep.xp, run.xp_upd) and np.array_equal(ep.xa, run.xa_upd)
    assert np.array_equal(ep.xu, run.x_upd) and np.array_equal(ep.u[:-1], run.u)


def test_first_sample_hook_fires_once_and_restores_the_methods():
    pasf = workloads.import_pasf()
    cls = pasf.runtime.PasfState
    before = dict(vars(cls))
    marks = []
    spec = pasf.design.SeparationSpec(40.0, 7, 0.001)
    with workloads.first_sample(pasf, lambda: marks.append(len(marks))):
        state = cls(*pasf.design.design_iir(spec, 2))
        assert not marks  # design and construction precede the first sample
        state.run(np.ones(50))
        state.step(1.0)
    assert marks == [0]
    assert dict(vars(cls)) == before


def test_marked_time_is_the_normalized_time_before_the_mark():
    clock = timing.Bracketed()

    def busy(seconds):
        end = timing.cpu_time() + seconds
        while timing.cpu_time() < end:
            pass

    def work():
        busy(0.06)
        clock.mark()
        busy(0.06)

    _, raw, norm = clock.time(work)
    assert len(clock.marked) == 1
    assert 0.3 * norm < clock.marked[0] < 0.7 * norm


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0, 1, 3, 4, 5, 6, 10, 20, 20, 22])
    rec = spans.Recorder(clock=lambda: next(ticks))
    rec.enter("a")          # 0
    rec.enter("b")          # 1
    rec.exit()              # 3   b: 2
    rec.enter("c")          # 4
    rec.enter("b")          # 5
    rec.exit()              # 6   b: 1 inside c
    rec.exit()              # 10  c: 6, self 5
    rec.exit()              # 20  a: 20, self 20 - 2 - 6 = 12
    rec.enter("a")          # 20 (second root)
    assert rec.totals("b") == (2, 3, 3)
    rec.exit()              # 22
    assert rec.agg[("a", "")] == [2, 22, 14]
    assert rec.agg[("b", "a")] == [1, 2, 2]
    assert rec.agg[("b", "c")] == [1, 1, 1]
    assert rec.agg[("c", "a")] == [1, 6, 5]
    by_id = {s["id"]: s for s in rec.spans}
    assert by_id[2]["parent"] == 1 and by_id[4]["parent"] == 3 and by_id[1]["parent"] is None

    ns = iter([0, 1000, 1000, 4000])
    rec = spans.Recorder(clock=lambda: next(ns))
    for _ in range(2):
        rec.enter("kalman.update")
        rec.exit()
    m = spans.layer_metrics([rec], [0.5])  # the scale factor halves times
    assert m["kalman.update_calls"] == 2
    assert m["kalman.update_us"] == pytest.approx(0.5 * (1000 + 3000) * 1e-3 / 2)


def test_tracer_restores_the_bindings():
    pasf = workloads.import_pasf()
    before = pasf.kfpasf.kf_update, pasf.runtime.PasfState.step, pasf.cli.main
    with spans.Tracer(spans.Recorder()):
        assert pasf.kfpasf.kf_update is not before[0]
    assert (pasf.kfpasf.kf_update, pasf.runtime.PasfState.step, pasf.cli.main) == before


def test_count_guard_reports_a_missed_binding():
    assert spans.check_counts({"kalman.update_calls": 10}, {"kalman.update_calls": 10}) == []
    assert spans.check_counts({"kalman.update_calls": 0}, {"kalman.update_calls": 10})


def test_reference_check_fails_on_a_perturbed_output():
    rng = np.random.default_rng(1)
    out = rng.standard_normal((500, 7))
    ref = json.loads(json.dumps(check.summarize(out)))
    clean = check.Tally()
    assert clean.compare("out", out, ref, check.ARRAY_TOL)
    assert clean.bitwise == clean.compared and not clean.problems
    bad = out.copy()
    bad[ref["stride"] * 3, 4] *= 1 + 1e-6
    tally = check.Tally()
    assert not tally.compare("out", bad, ref, check.ARRAY_TOL)
    assert tally.problems and tally.bitwise < tally.compared
    off_stride = out.copy()
    off_stride[1, 2] += 1e-3  # not a kept row: caught by the column sum
    assert not check.Tally().compare("out", off_stride, ref, check.ARRAY_TOL)


def test_lifted_recursion_matches_the_runtime():
    pasf = workloads.import_pasf()
    spec = pasf.design.SeparationSpec(40.0, 7, 0.001)
    p, a = pasf.design.design_iir(spec, 2)
    x = np.random.default_rng(2).standard_normal(300)
    xp, xa = pasf.runtime.PasfState(p, a).run(x)
    assert check.close(check.lifted_filter(x, p.feedback, p.feedforward, 7), xp, 1e-12)
    assert check.close(check.lifted_filter(x, a.feedback, a.feedforward, 7), xa, 1e-12)
    assert not check.close(check.lifted_filter(x, a.feedback, a.feedforward, 7),
                           xa + 1e-6, 1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "control-online",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
