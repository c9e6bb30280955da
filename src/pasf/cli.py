"""Command-line surface.

Subcommands: design-iir, design-fir, complement, bode, separate, kfpasf,
scenario. Exit codes: 0 success, 1 validation failure (a malformed command
line included), 2 runtime failure. Errors print one machine-parsable line:
``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import design as dsn
from . import response as rsp
# read_csv is bound here for perfbench's span recorder, which wraps it
from .csvio import export_csv, iter_csv, read_csv  # noqa: F401
from .errors import (
    DegenerateDesignError,
    InvalidArgumentError,
    OutOfBandError,
    PasfError,
    PoisonedStateError,
)
from .runtime import PasfState
from .scenario_io import built_in, load_scenario
from .scenarios import run_estimation, run_scenario


def _add_spec_args(p):
    p.add_argument("--rho-tilde", type=float, required=True,
                   help="separation frequency [rad/s]")
    p.add_argument("--period", type=int, required=True,
                   help="target period [samples]")
    p.add_argument("--sampling-time", type=float, required=True,
                   help="sampling time T [s]")


def _write_pair(periodic, aperiodic, out_dir, stem):
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for tag, coeffs in (("p", periodic), ("a", aperiodic)):
        path = os.path.join(out_dir, f"{stem}_{tag}.txt")
        dsn.save_coefficients(coeffs, path)
        paths.append(path)
    return paths


def _cmd_design_iir(args) -> int:
    spec = dsn.SeparationSpec(args.rho_tilde, args.period, args.sampling_time)
    p, a = dsn.design_iir(spec, args.order,
                          allow_out_of_band=args.allow_out_of_band)
    paths = _write_pair(p, a, args.out_dir, f"iir{args.order}")
    rep = dsn.check_stability(p)
    print(f"wrote {paths[0]} and {paths[1]}")
    print(f"stable: {rep.stable} (max pole magnitude {rep.max_root_magnitude:.6g})")
    return 0


def _cmd_design_fir(args) -> int:
    spec = dsn.SeparationSpec(args.rho_tilde, args.period, args.sampling_time)
    p, a = dsn.design_fir_equiripple(
        spec, args.order,
        passband_edge=args.passband_edge,
        stopband_edge=args.stopband_edge,
        weight_ratio=args.weight_ratio,
    )
    paths = _write_pair(p, a, args.out_dir, f"fir{args.order}")
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_complement(args) -> int:
    coeffs = dsn.load_coefficients(args.coeffs)
    comp = dsn.make_complementary(coeffs)
    path = _out_path(args, "complement.txt")
    dsn.save_coefficients(comp, path)
    print(f"wrote {path}")
    return 0


def _cmd_bode(args) -> int:
    coeffs = dsn.load_coefficients(args.coeffs)
    grid = rsp.default_grid(coeffs, n_points=args.points,
                            omega_min=args.omega_min,
                            omega_max=args.omega_max)
    table = rsp.bode_table(coeffs, grid)
    path = _out_path(args, "bode.csv")
    export_csv(path, table.columns())
    print(f"wrote {path} ({len(table.omega)} rows)")
    return 0


def _cmd_separate(args) -> int:
    p = dsn.load_coefficients(args.coeffs_p)
    a = dsn.load_coefficients(args.coeffs_a)
    chunks = _checked_input(args.input)
    # the directories _out_path makes, removed again if separating fails
    made = [] if args.out else _missing_dirs(args.out_dir)
    try:
        state = PasfState(p, a)
        path = _out_path(args, "separated.csv")
        rows = export_csv(path, _separated(state, chunks))
    except BaseException as exc:
        for d in made:
            try:
                os.rmdir(d)
            except OSError:
                pass
        if isinstance(exc, Exception):
            # an error of the input outranks any other, as when the whole
            # input was checked before the first sample
            for _ in chunks:
                pass
        raise
    print(f"wrote {path} ({rows} rows)")
    return 0


def _out_path(args, name) -> str:
    """The file a command writes: ``--out``, or else ``name`` in
    ``--out-dir``, which is made only then."""
    if args.out:
        return args.out
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _checked_input(path):
    """The (t, x) chunks of a ``t,x`` CSV, t as integers, one per
    ``iter_csv`` chunk. Its errors are those of checking the whole file at
    once, in this order: ``iter_csv``'s, a header that is not ``t,...``,
    the first t that is not a finite integer, the first x that is not
    finite. The chunk with an error and those after it are not yielded;
    the rest of the file is read only for an error that outranks it."""
    error, rank = None, 3  # a bad header 0, t 1, x 2
    for chunk in iter_csv(path):
        if rank < 2:
            continue
        header = chunk.header
        if len(header) < 2 or header[0] != "t":
            error, rank = InvalidArgumentError(
                f"input CSV must have header t,x; got {header}"), 0
            continue
        t, x = chunk.data[:, 0], chunk.data[:, 1]
        # t is written back as integers, so any other value is refused, not cut
        bad = ~np.isfinite(t) | (np.floor(t) != t)
        if bad.any():
            error, rank = _bad_value(path, chunk, "t", t, bad, "finite and an integer"), 1
        elif rank == 3:
            bad = ~np.isfinite(x)
            if bad.any():
                error, rank = _bad_value(path, chunk, "x", x, bad, "finite"), 2
            else:
                yield _as_integers(t), x
    if error is not None:
        raise error


def _as_integers(t):
    """Integer-valued floats as integers, which ``export_csv`` writes with
    ``%d``: an int64 array when every value fits, else Python ints."""
    if (np.abs(t) < 2.0 ** 63).all():
        return t.astype(np.int64)
    return [int(v) for v in t.tolist()]


def _bad_value(path, chunk, name, col, bad, rule) -> InvalidArgumentError:
    row = int(bad.argmax())
    return InvalidArgumentError(f"{path}: line {chunk.line(row)}: column {name} "
                                f"must be {rule}, got {float(col[row])!r}")


def _separated(state, chunks):
    """The table ``separate`` writes, one chunk per input chunk. An output
    that is not finite (a finite input that overflows the pair) is a
    ``PoisonedStateError`` naming the first t where either output is, so
    no table holding it is written."""
    for t, x in chunks:
        xp, xa = state.run(x)
        if not (np.isfinite(xp).all() and np.isfinite(xa).all()):
            row = int((~(np.isfinite(xp) & np.isfinite(xa))).argmax())
            raise PoisonedStateError(
                f"separated output is not finite at t = {t[row]}: "
                "the input overflows the filter pair")
        yield {"t": t, "x": x, "xp": xp, "xa": xa}


def _missing_dirs(path) -> list[str]:
    """The directories that making directory ``path`` creates, deepest
    first."""
    missing = []
    head = os.path.abspath(path)
    while not os.path.isdir(head) and head != os.path.dirname(head):
        missing.append(head)
        head = os.path.dirname(head)
    return missing


def _load_scenario_arg(name_or_path, seed):
    if os.path.isfile(name_or_path):
        return load_scenario(name_or_path, seed)
    return built_in(name_or_path, seed)


def _cmd_kfpasf(args) -> int:
    scn = _load_scenario_arg(args.scenario, args.seed)
    if scn.A is None:  # the estimator runs on the scenario's model
        raise InvalidArgumentError(
            f"kfpasf needs an estimation or control scenario, got {scn.kind}"
        )
    table = run_estimation(scn, scn.filters[0], args.seed).columns()
    columns = {name: col for name, col in table.items()
               if name in ("t", "y", "trP")
               or name.startswith(("xhat_", "xp_hat_", "xa_hat_"))}
    path = _out_path(args, f"{scn.name}_kfpasf.csv")
    export_csv(path, columns)
    print(f"wrote {path}")
    return 0


def _cmd_scenario(args) -> int:
    if args.replicas < 1:
        raise InvalidArgumentError(f"--replicas must be >= 1, got {args.replicas}")
    summaries = []
    name = None
    for replica in range(args.replicas):
        seed = args.seed + replica
        scn = _load_scenario_arg(args.name, seed)
        name = scn.name
        out_dir = (args.out_dir if args.replicas == 1
                   else os.path.join(args.out_dir, f"replica{replica:03d}"))
        outputs = run_scenario(scn, seed=seed, out_dir=out_dir,
                               plot_script=args.plot_script)
        for f in outputs["files"]:
            print(f"wrote {f}")
        summaries.append({"replica": replica, "seed": seed,
                          **_replica_summary(outputs)})
    if args.replicas > 1:
        columns = {key: [row[key] for row in summaries] for key in summaries[0]}
        path = os.path.join(args.out_dir, f"{name}_replicas.csv")
        export_csv(path, columns)
        print(f"wrote {path}")
    return 0


def _replica_summary(outputs) -> dict:
    """Per-replica scalar summaries, merged across seeds in seed order: each
    run's ``summary()``. The reserved label ``interference`` holds a table,
    not a run."""
    summary = {}
    for label, run in outputs["results"].items():
        if label != "interference":
            summary.update(run.summary())
    return summary


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a validation error, on the one
    error line, instead of argparse's usage block and exit 2."""

    def error(self, message):
        raise InvalidArgumentError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse drops a "--" given as an option's value ("--points=--"),
        # which leaves an empty list where one value was expected
        for name, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pasf",
        description="Periodic/aperiodic separation filters, comb baselines, "
                    "and a separation-aware Kalman estimator.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--plot-script", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="emit a gnuplot script with scenario outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design-iir", help="bilinear IIR pair")
    _add_spec_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--allow-out-of-band", action="store_true",
                   help="permit rho_tilde*period*T above pi")
    p.set_defaults(func=_cmd_design_iir)

    p = sub.add_parser("design-fir", help="equiripple FIR pair")
    _add_spec_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--passband-edge", type=float, default=None,
                   help="lifted passband edge [rad/sample], default rho")
    p.add_argument("--stopband-edge", type=float, default=None,
                   help="lifted stopband edge [rad/sample], default min(pi, 3*rho)")
    p.add_argument("--weight-ratio", type=float, default=1.0)
    p.set_defaults(func=_cmd_design_fir)

    p = sub.add_parser("complement", help="complementary aperiodic-pass filter")
    p.add_argument("--coeffs", required=True, help="periodic-pass coefficient file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("bode", help="frequency response table")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--omega-min", type=float, default=1e-3)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bode)

    p = sub.add_parser("separate", help="stream a t,x CSV through a filter pair")
    p.add_argument("--coeffs-p", required=True)
    p.add_argument("--coeffs-a", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("kfpasf", help="run the estimator on a scenario")
    p.add_argument("scenario", help="built-in name or scenario file path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_kfpasf)

    p = sub.add_parser("scenario", help="run a full scenario with CSV outputs")
    p.add_argument("name", help="built-in name or scenario file path")
    p.add_argument("--replicas", type=int, default=1,
                   help="independent seeded runs (seed, seed+1, ...)")
    p.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidArgumentError, OutOfBandError, DegenerateDesignError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except (PasfError, MemoryError) as exc:
        print(f"error: runtime: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
