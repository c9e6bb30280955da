"""README.md runs as written and states the code's numbers.

Every ```python block runs in an empty directory with warnings as errors.
Every line of a fenced block that starts with ``pasf `` runs, in order and
in one temporary directory, through ``cli.main``, and must exit 0 with
nothing on stderr. Each number README states about behaviour is matched by
one of the ``_FACTS`` patterns and checked against the code, wherever it
appears; any other number in README's prose must be one of
``_NOT_BEHAVIOUR``, which says why it is not checked.
"""

import contextlib
import inspect
import io
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from pasf import cli, csvio, design, scenarios
from pasf.errors import DegenerateDesignError, InvalidArgumentError, PasfError
from pasf.scenario_io import BUILT_INS, built_in, parse_scenario
from pasf.signals import HarmonicSum, NoiseSegment, NoiseSpec
from pasf.values import replace

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as _fh:
    _README = _fh.read()
_FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)


def _blocks(info):
    return [m[2] for m in _FENCED.finditer(_README) if m[1] == info]


def _commands():
    return [line for m in _FENCED.finditer(_README) for line in m[2].splitlines()
            if line.startswith("pasf ")]


@pytest.mark.parametrize("block", _blocks("python"),
                         ids=lambda block: block.splitlines()[-1][:40])
def test_python_block_runs(tmp_path, block):
    """A ```python block runs in an empty directory with warnings as
    errors, against the source tree, and leaves the directory empty."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(_ROOT, "src"), env.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-W", "error", "-c", block],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    assert os.listdir(tmp_path) == []


def _main(args):
    """``cli.main(args)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def test_pasf_commands_run_in_order(tmp_path, monkeypatch):
    """README's ``pasf`` lines run one after another in one directory, each
    reading what the earlier ones wrote, and each exits 0 silently."""
    commands = _commands()
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for line in commands:
        code, _, err = _main(shlex.split(line)[1:])
        assert (code, err) == (0, ""), line


# --- numbers --------------------------------------------------------------

_FACTS = []


def _fact(pattern):
    """Register ``check(match)`` for each match of ``pattern`` in README."""
    def register(check):
        _FACTS.append(pytest.param(re.compile(pattern), check, id=check.__name__))
        return check
    return register


@_fact(r"IIR (?:of order|orders) (\d+)(?: to |-)(\d+)")
def iir_orders(m):
    low, high = int(m[1]), int(m[2])
    assert (low, high) == (1, design._MAX_IIR_ORDER)
    design.check_order("iir", high)
    for order in (low - 1, high + 1):
        with pytest.raises(InvalidArgumentError):
            design.check_order("iir", order)


@_fact(r"FIR orders even and >= (\d+)")
def fir_orders(m):
    low = int(m[1])
    design.check_order("fir", low)
    for order in (low - 2, low + 1):
        with pytest.raises(InvalidArgumentError):
            design.check_order("fir", order)


@_fact(r"other values to (\d+) significant\s+digits")
def csv_digits(m):
    digits = int(m[1])
    assert csvio.format_value(1 / 3) == f"{1 / 3:.{digits}g}" != f"{1 / 3:.{digits + 1}g}"
    assert csvio.format_value(np.int64(10 ** 15)) == "1" + "0" * 15


@_fact(r"feedback, (\d+) significant digits")
def coefficient_digits(m):
    digits = int(m[1])
    coeffs = design.FilterCoefficients("periodic-pass", "iir", 1, 10, 0.1,
                                       [-1 / 3], [1 / 3, 1 / 3])
    taps = design.format_coefficients(coeffs).splitlines()[1]
    assert taps == f"{-1 / 3:.{digits}g}" != f"{-1 / 3:.{digits - 1}g}"


@_fact(r"for example `(periodic-pass iir (\d+) (\d+) ([\d.]+))`")
def coefficient_header(m):
    spec = design.SeparationSpec(1.0, int(m[3]), float(m[4]))
    periodic, _ = design.design_iir(spec, int(m[2]), allow_out_of_band=True)
    assert design.format_coefficients(periodic).splitlines()[0] == m[1]


@_fact(r"T of at least about ([\d.]+e-\d+)")
def smallest_sampling_time(m):
    low = float(m[1])
    design.check_sampling_time(low)
    with pytest.raises(InvalidArgumentError):
        design.check_sampling_time(low * 0.99)


@_fact(r"default to `rho` and `min\(pi, (\d+)\*rho\)`")
def fir_default_edges(m):
    assert design.fir_band_edges(0.5) == (0.5, min(math.pi, int(m[1]) * 0.5))


@_fact(r"`(\d+) \* rho < pi`, `cos\(rho\) < (\d+)`")
def fir_edge_rule(m):
    k, one = int(m[1]), int(m[2])
    design.fir_band_edges(math.pi / k * 0.999)
    with pytest.raises(InvalidArgumentError):
        design.fir_band_edges(math.pi / k * 1.001)
    assert math.cos(1e-7) < one
    design.fir_band_edges(1e-7)
    assert not math.cos(1e-9) < one
    with pytest.raises(DegenerateDesignError):
        design.fir_band_edges(1e-9)


@_fact(r"(?m)^\| \[(sec\d+)\]\([^)]*\) \| (\w+) \| (\d+) s \| ([^|]+) \|")
def built_in_table_row(m):
    scn = built_in(m[1], 0)
    labels = [f.label for f in scn.filters] + [c.label for c in scn.combs]
    assert (scn.kind, scn.duration_s, labels) == (m[2], float(m[3]), m[4].strip().split(", "))


@_fact(r"\(default (\d+)\)")
def default_settle(m):
    with open(os.path.join(_ROOT, "src", "pasf", "sec51.scn"), encoding="utf-8") as fh:
        assert "settle" not in fh.read()
    assert built_in("sec51", 0).settle_s == float(m[1])


@_fact(r"time \+ (\S+) s\b")
def in_force_tolerance(m):
    tol = float(m[1])
    schedule = ((0.0, "a"), (1.0, "b"))
    assert scenarios._in_force(schedule, 1.0 - tol / 2) == 1
    assert scenarios._in_force(schedule, 1.0 - tol * 2) == 0
    assert scenarios._in_force(schedule, -1.0) == 0


@pytest.fixture
def exit_codes(tmp_path, monkeypatch):
    """The exit code of a success and of each error category, observed."""
    monkeypatch.chdir(tmp_path)
    codes = {"success": _main(["design-iir", "--rho-tilde", "1", "--period", "10",
                                "--sampling-time", "0.1", "--order", "1"])[0]}
    for args in (["--seed=-1", "kfpasf", "sec54"], ["bode", "--coeffs", "missing.txt"]):
        code, _, err = _main(args)
        codes[err.split(":")[1].strip()] = code

    def fail(args):
        raise PasfError("stand-in")

    monkeypatch.setattr(cli, "_cmd_bode", fail)
    code, _, err = _main(["bode", "--coeffs", "x"])
    assert err == "error: runtime: stand-in\n"
    codes["runtime"] = code
    return codes


@_fact(r"Exit codes: (\d) success, (\d) validation failure, (\d) runtime or file-system")
def exit_code_list(m, exit_codes):
    assert [exit_codes[k] for k in ("success", "validation", "runtime", "io")] == \
        [int(m[1]), int(m[2]), int(m[3]), int(m[3])]


@_fact(r"`validation` \(exit (\d)\), `runtime` or `io` \(exit (\d)")
def exit_code_by_category(m, exit_codes):
    assert [exit_codes[k] for k in ("validation", "runtime", "io")] == \
        [int(m[1]), int(m[2]), int(m[2])]


@_fact(r"runtime\s+error\s+\(exit\s+(\d)\)")
def runtime_exit_code(m, exit_codes):
    assert exit_codes["runtime"] == int(m[1])


@_fact(r"seed defaults to (\d+)")
def default_seed(m):
    assert cli.build_parser().parse_args(["kfpasf", "sec54"]).seed == int(m[1])


@_fact(r"seeded `--seed`, `--seed` \+ (\d+)")
def replica_seeds(m, tmp_path):
    code, _, _ = _main(["--seed", "7", "--no-plot-script", "--out-dir", str(tmp_path),
                        "scenario", "sec53", "--replicas", "2"])
    assert code == 0
    _, data = csvio.read_csv(tmp_path / "sec53_replicas.csv")
    assert list(data[:, 1]) == [7, 7 + int(m[1])]


@_fact(r"the (\d+) files that `pasf --seed (\d+) scenario")
def golden_files(m):
    path = os.path.join(_ROOT, "tests", "golden", f"builtin_seed{m[2]}.sha256")
    with open(path, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == int(m[1])


@_fact(r"admits NumPy ([\d.]+)\s+and Python ([\d.]+)")
def supported_versions(m):
    with open(os.path.join(_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        project = fh.read()
    assert f'"numpy>={m[1]}"' in project
    assert f'requires-python = ">={m[2]}"' in project


@_fact(r"before time (\d+)")
def noise_start(m):
    start = float(m[1])
    NoiseSegment(NoiseSpec(0.0, 1.0, 0), start, start + 1)
    with pytest.raises(InvalidArgumentError):
        NoiseSegment(NoiseSpec(0.0, 1.0, 0), start - 1e-9, start + 1)


_SEPARATION = """[scenario]
name = facts
kind = separation
period = 10
sampling_time = 0.01
duration = 4
filter = fir 4
truth_p = @x
truth_a = @x

[rho]
0 = 1

[signal x]
expr = constant 1
"""


def _separation(rho="0 = 1", **fields):
    scn = parse_scenario(_SEPARATION.replace("[rho]\n0 = 1", f"[rho]\n{rho}"))
    return replace(scn, **fields) if fields else scn


@_fact(r"starts that repeat \(`(\S+)` and `(\S+)` do\) or do not start at (\d+)")
def rho_starts(m):
    with pytest.raises(InvalidArgumentError, match="repeats"):
        _separation(f"{m[1]} = 1\n{m[2]} = 1")
    with pytest.raises(InvalidArgumentError, match="must start at time 0"):
        _separation(f"{float(m[3]) + 0.5} = 1")
    _separation(f"{m[3]} = 1")


@_fact(r"`(rho piece at (\d+) s, filter (fir\d+): )\.\.\.`")
def rho_piece_message(m):
    assert m[3] == "fir4"
    with pytest.raises(InvalidArgumentError) as info:
        _separation(f"0 = 1\n{m[2]} = 100")
    assert str(info.value).startswith(m[1])


@_fact(r"variant (\d) also\s+`gain` and `q`")
def comb_keys(m):
    comb = f"[comb c]\nvariant = {m[1]}\n"
    for keys, missing in (("", "gain"), ("gain = 0.7\n", "q")):
        with pytest.raises(InvalidArgumentError, match=f"missing '{missing}'"):
            parse_scenario(_SEPARATION + comb + keys)
    parse_scenario(_SEPARATION + comb + "gain = 0.7\nq = 0:2\n")


@_fact(r"`(\d+) <= START < END <= duration`")
def interference_window(m):
    start = float(m[1])
    _separation(interference_window_s=(start, 4.0))
    for window in ((start - 1e-9, 4.0), (start, 4.5), (1.0, 1.0)):
        with pytest.raises(InvalidArgumentError, match="interference window"):
            _separation(interference_window_s=window)


@_fact(r"control `A` with fewer than (\d+) states")
def control_states(m):
    scn = built_in("sec54", 0)
    n = int(m[1])
    assert scn.A.shape[0] >= n
    one = np.ones((1, 1))
    with pytest.raises(InvalidArgumentError, match=f"at least {n} states"):
        replace(scn, A=one, B=np.ones(1), C=one, Q=one, R=one, P0=one)


@pytest.fixture(scope="module")
def sec54_tracking():
    """Criterion 11's figures for sec54 at seed 0, in percent: the
    quasi-aperiodic and quasi-periodic tracking errors, and the lag of the
    discrete and the continuous PD loop, each computed as
    ``test_criterion_11_control_tracking`` computes it."""
    scn = built_in("sec54", 0)
    ctl, T = scn.controller, scn.sampling_time
    run = scenarios.run_estimation(scn, scn.filters[0], 0)
    window = slice(scn.steps - int(10.0 / T), scn.steps)

    def rms(x):
        return float(np.sqrt(np.mean(np.asarray(x) ** 2)))

    cmd = run.cmd_p[window]
    omega = 2.0 * math.pi * np.fft.rfftfreq(len(cmd), T)
    z, s = np.exp(1j * omega * T), 1j * omega
    closed = (ctl.kp_p + s * ctl.kd_p) / (
        z * (z - 1.0) ** 2 / T**2 + ctl.kp_p + ctl.kd_p * (z - 1.0) / T)
    lag = np.fft.irfft((1.0 - closed) * np.fft.rfft(cmd), n=len(cmd))
    lag_c = np.fft.irfft(s**2 / (s**2 + ctl.kd_p * s + ctl.kp_p) * np.fft.rfft(cmd),
                         n=len(cmd))
    return {"aperiodic": rms(run.xa_upd[window, 0] - run.cmd_a[window]) / rms(run.cmd_a[window]),
            "periodic": rms(run.xp_upd[window, 0] - (cmd - lag)) / rms(cmd),
            "lag": rms(lag) / rms(cmd), "continuous": rms(lag_c) / rms(cmd)}


def _percent(text, ratio):
    assert text == f"{100 * ratio:.1f}", (text, ratio)


@_fact(r"over its last (\d+) s, each channel against a (\d+)% RMS bound")
def criterion_11_bound(m):
    with open(os.path.join(_ROOT, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        source = fh.read().split("def test_criterion_11_control_tracking", 1)[1]
    assert re.search(r"int\(([\d.]+) / T\)", source)[1] == f"{float(m[1])}"
    assert set(re.findall(r"ratio_[ap] < ([\d.]+)", source)) == {f"{int(m[2]) / 100}"}


@_fact(r"tracks its command to about ([\d.]+)%")
def criterion_11_aperiodic(m, sec54_tracking):
    _percent(m[1], sec54_tracking["aperiodic"])


@_fact(r"tracks it to about ([\d.]+)%")
def criterion_11_periodic(m, sec54_tracking):
    _percent(m[1], sec54_tracking["periodic"])


@_fact(r"lags by ([\d.]+)%|make\s+the ([\d.]+)%")
def criterion_11_lag(m, sec54_tracking):
    _percent(m[1] or m[2], sec54_tracking["lag"])


@_fact(r"`s\^2 / \(s\^2 \+ (\d+) s \+ (\d+)\)` gives ([\d.]+)%")
def criterion_11_continuous(m, sec54_tracking):
    ctl = built_in("sec54", 0).controller
    assert (float(m[1]), float(m[2])) == (ctl.kd_p, ctl.kp_p)
    _percent(m[3], sec54_tracking["continuous"])


@_fact(r"gains (\d+)/(\d+)")
def criterion_11_gains(m):
    ctl = built_in("sec54", 0).controller
    assert (float(m[1]), float(m[2])) == (ctl.kp_p, ctl.kd_p)


@_fact(r"a (\d+) Hz square wave with harmonics up\s+to (\d+) Hz")
def criterion_11_command(m):
    (square,) = [p for p in built_in("sec54", 0).controller.cmd_p.parts
                 if isinstance(p, HarmonicSum)]
    harmonics = [h for _, h in square.terms]
    assert harmonics == list(range(1, len(harmonics) * 2, 2))  # a square wave's
    assert (square.base_freq, square.base_freq * harmonics[-1]) == (float(m[1]), float(m[2]))


@pytest.mark.parametrize("pattern, check", _FACTS)
def test_readme_number_matches_the_code(pattern, check, request):
    """Each fact's numbers, wherever README states them, are the code's."""
    matches = list(pattern.finditer(_README))
    assert matches, f"README no longer states {pattern.pattern!r}: drop its check"
    # a check's parameters after the match name the fixtures it needs
    extra = {name: request.getfixturevalue(name)
             for name in list(inspect.signature(check).parameters)[1:]}
    for m in matches:
        check(m, **extra)


def test_built_in_table_lists_every_built_in():
    rows = re.findall(r"(?m)^\| \[(sec\d+)\]", _README)
    assert rows == list(BUILT_INS)


# numbers of README's prose that state no behaviour, and why
_NOT_BEHAVIOUR = {
    "11": "the number of an acceptance criterion",
    "15": "the number of a ROADMAP item",
    "3.11.7": "the Python of the verified platform",
    "2.4.6": "the NumPy of the verified platform",
    "0.3.31": "the OpenBLAS of the verified platform",
}
_NUMBER = re.compile(r"(?<![\w.])(?<!\w-)\d+(?:\.\d+)*(?:e[+-]?\d+)?(?!\w)(?!\.\w)")


def test_every_number_in_the_prose_is_checked():
    """A number outside the fenced blocks is claimed by a fact's match or is
    one of ``_NOT_BEHAVIOUR``; a numbered list's markers are not numbers."""
    claimed = [m.span() for param in _FACTS for m in param.values[0].finditer(_README)]
    claimed += [m.span() for m in _FENCED.finditer(_README)]
    unchecked = []
    for m in _NUMBER.finditer(_README):
        if any(lo <= m.start() < hi for lo, hi in claimed):
            continue
        if re.match(r"\d+\. ", _README[m.start():]) and _README[m.start() - 1] == "\n":
            continue
        if m[0] not in _NOT_BEHAVIOUR:
            line = _README.count("\n", 0, m.start()) + 1
            unchecked.append(f"README.md:{line}: {m[0]}")
    assert not unchecked, unchecked
