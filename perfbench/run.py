"""Benchmark of the pasf toolkit: offline separation, offline estimation and
online control.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, in turn

Run from the repository root. The inputs are generated from ``--seed``; the
program (``src/pasf``) receives only the generated files. With ``--trace 0``
the end-to-end metrics are measured; with ``--trace 1`` a separate traced
run reports the per-layer metrics and the tracing overhead. A report goes to
standard output and its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with the
raw timings, machine information and (traced) spans is written under
``.perfbench/records/``. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned to one thread before NumPy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

COUNT_METRICS = ("_calls", "csvio.rows", "csvio.bytes", "fixed_point_step")


class GuardError(RuntimeError):
    """A traced span count differs from the count the workload implies."""


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(wl, seconds: float, trace: bool) -> dict:
    pasf = workloads.import_pasf()
    if not os.path.abspath(pasf.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"pasf imported from {pasf.cli.__file__}, not {SRC}")
    wl.generate(pasf)
    clock = timing.Bracketed()
    wl.warm_up(pasf)  # also compiles the sources; the timed imports do not
    record = {"import_s": [], "setup_s": []}

    def fresh_import():
        """A timed import of pasf; the round after it runs on it. The
        modules it replaces are collected at once, outside the timing, so
        that peak memory does not depend on when the collector runs."""
        pasf, _, norm = clock.time(workloads.import_pasf)
        record["import_s"].append(norm)
        gc.collect()
        return pasf

    deadline = time.perf_counter() + seconds
    if not trace:
        rounds = []
        while not rounds or time.perf_counter() < deadline:
            pasf = fresh_import()
            timed = wl.timed_round(pasf, clock)
            rounds.append(timed)
            setup = wl.round_setup(timed)
            if setup is not None:
                record["setup_s"].append(record["import_s"][-1] + setup)
        record["rounds"] = rounds
        figures = wl.metrics(rounds)
        figures["setup_s"] = (statistics.median(record["setup_s"]) if record["setup_s"]
                              else float("nan"))
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        untraced, traced, layers = [], [], []
        while not layers or time.perf_counter() < deadline:
            untraced.append(wl.untraced_total(pasf, clock))
            result = wl.traced_round(pasf, clock, len(untraced))
            if result is None:
                break
            total, recs, factors = result
            traced.append(total)
            layers.append(spans.layer_metrics(recs, factors))
            record["spans"] = [rec.dump() for rec in recs]
            pasf = fresh_import()
        if not layers:
            raise RuntimeError("no traced round completed")
        guard(layers, wl.expected_counts())
        figures = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        figures["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        record.update(traced_s=traced, untraced_s=untraced)
    record["machine"] = timing.machine_info(clock.calib_s)
    record["figures"] = figures
    return record


def guard(layers, expected) -> None:
    """Fail loudly when a span count is off: a wrapper that missed a
    call-site binding, or a round that did different work."""
    problems = spans.check_counts(layers[0], expected)
    for layer in layers[1:]:
        problems += [f"{k}: {layers[0][k]} in the first traced round, {layer[k]} later"
                     for k in layer if k.endswith(COUNT_METRICS) and layer[k] != layers[0][k]]
    if problems:
        raise GuardError("span counts off: " + "; ".join(problems))


def finite(v: float) -> float:
    return float(v) if math.isfinite(v) else 0.0


def report(name, args, wl, record) -> dict:
    fig = record["figures"]
    print(f"pasf benchmark: workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    end_to_end, per_layer = declared_metrics()
    if args.trace:
        metrics = {k: {"value": finite(fig[k]), "unit": u} for k, u in per_layer.items()}
        for k, m in metrics.items():
            print(f"  {k:34s} {m['value']:14.6g} {m['unit']}")
        print(f"  traced rounds: {len(record['traced_s'])}; spans in "
              f"{os.path.relpath(record_path(name, args), ROOT)}")
    else:
        metrics = {k: {"value": finite(fig[k]), "unit": u} for k, u in end_to_end.items()}
        steps = (f"{fig['samples']} ticks in {fig['rounds']} episodes"
                 if name == "control-online" else
                 f"over {fig['rounds']} rounds, of the round time per sample")
        counts = {
            "setup_s": f"median of {len(record['setup_s'])} set-ups (import, then until "
                       "the first sample)",
            "samples_per_s": f"{fig['samples']} samples in {fig['rounds']} rounds",
            "step_p50_us": steps,
            "step_p75_us": steps,
            "peak_rss_mb": "ru_maxrss of the workload process",
        }
        for k, m in metrics.items():
            print(f"  {k:20s} {m['value']:14.6g} {m['unit']:4s} {counts.get(k, '')}")
        for k in ("step_p90_us", "step_p99_us"):
            if k in fig:
                print(f"  {k:20s} {fig[k]:14.6g} us   {steps}; reported, not gated")
        if "deadline_miss_ratio" in fig:
            print(f"  {'deadline_miss_ratio':20s} {fig['deadline_miss_ratio']:14.6g} "
                  f"     {fig['deadline_misses']} of {fig['samples']} ticks over 1 ms")
    unit = "ticks" if name == "control-online" else "operations"
    print(f"  {'failed_ratio':20s} {wl.failed / wl.attempted:14.6g}      "
          f"{wl.failed} of {wl.attempted} {unit} (warm-up included)")
    if wl.reference is None:
        print("  reference: none recorded for this seed and size; oracles only")
    else:
        t = wl.tally
        print(f"  reference: {t.bitwise} of {t.compared} values bitwise equal; "
              f"{'all' if not t.problems else 'NOT all'} within rel {wl.tolerance:g}")
    for k, v in sorted(wl.info.items()):
        note = " (criterion 11, known red; reported, not gated)" if k.endswith(".periodic") else ""
        print(f"  oracle value {k} = {v:.6g}{note}")
    for p in wl.problems:
        print(f"  problem: {p}")
    mach = record["machine"]
    print(f"  machine: nproc={mach['nproc']} cpu={mach['cpu_model']!r} python={mach['python']} "
          f"numpy={mach['numpy']} blas={mach['blas']} calib_us p50={mach['calib_us']['p50']:.1f} "
          f"(reference {timing.CALIB_REF_US:g})")
    return {"correct": wl.failed == 0 and not wl.tally.problems,
            "attempted": wl.attempted, "failed": wl.failed, "metrics": metrics}


def record_path(name, args) -> str:
    return os.path.join(OUT, "records", f"{name}-seed{args.seed}-trace{args.trace}.json")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pasf", "__init__.py")):
        print(f"error: the pasf sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    try:
        record = measure(wl, args.seconds, bool(args.trace))
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args.workload, args, wl, record)
    record.update(result=result, problems=wl.problems, info=wl.info)
    path = record_path(args.workload, args)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
