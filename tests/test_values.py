"""Frozen value classes: held to ``dataclasses.dataclass(frozen=True)``
applied to the same class bodies, and an import that compiles no source."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from pasf.values import replace, value

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _classes(decorate):
    """The same three class bodies, made by ``decorate``."""

    class Point:
        x: float
        y: float = 0.0
        label: str = "p"

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x must be >= 0")
            object.__setattr__(self, "norm", abs(self.x) + abs(self.y))  # derived

    class Other:
        x: float
        y: float = 0.0
        label: str = "p"

    class Held:
        a: object

    return decorate(Point), decorate(Other), decorate(Held)


ORACLE = _classes(dataclasses.dataclass(frozen=True))
VALUES = _classes(value)
ORACLE_REPLACE, VALUES_REPLACE = dataclasses.replace, replace


def _outcome(make):
    """What ``make()`` gives: its repr and the instance dict's items in
    order, or the type of the exception it raises."""
    try:
        made = make()
    except Exception as exc:  # the exception type is the outcome
        return "raises", type(exc)
    return "gives", repr(made), list(getattr(made, "__dict__", {}).items())


ARRAY = np.arange(3.0)

CASES = {
    "by position": lambda P, O, H, rep: P(1.0, 2.0, "q"),
    "by keyword": lambda P, O, H, rep: P(label="q", y=2.0, x=1.0),
    "defaults": lambda P, O, H, rep: P(1.0),
    "mixed": lambda P, O, H, rep: P(1.0, label="q"),
    "missing": lambda P, O, H, rep: P(),
    "missing by keyword": lambda P, O, H, rep: P(y=1.0),
    "too many": lambda P, O, H, rep: P(1.0, 2.0, "q", 4),
    "unknown keyword": lambda P, O, H, rep: P(1.0, z=3.0),
    "repeated": lambda P, O, H, rep: P(1.0, x=2.0),
    "post_init": lambda P, O, H, rep: P(-1.0),
    "equal": lambda P, O, H, rep: P(1.0, 2.0) == P(1.0, 2.0),
    "unequal": lambda P, O, H, rep: P(1.0, 2.0) == P(1.0, 3.0),
    "other class": lambda P, O, H, rep: P(1.0) == O(1.0),
    "other class reflected": lambda P, O, H, rep: O(1.0) != P(1.0),
    "tuple": lambda P, O, H, rep: P(1.0) == (1.0, 0.0, "p"),
    "eq not implemented": lambda P, O, H, rep: P.__eq__(P(1.0), O(1.0)),
    "signed zero": lambda P, O, H, rep: P(0.0) == P(-0.0),
    "hash equal": lambda P, O, H, rep: hash(P(1.0, 2.0)) == hash(P(1.0, 2.0)),
    "hash signed zero": lambda P, O, H, rep: hash(P(0.0)) == hash(P(-0.0)),
    "hash value": lambda P, O, H, rep: hash(O(1.0, 2.0)),
    "array same object": lambda P, O, H, rep: H(ARRAY) == H(ARRAY),
    "array equal copy": lambda P, O, H, rep: H(ARRAY) == H(ARRAY.copy()),
    "array hash": lambda P, O, H, rep: hash(H(ARRAY)),
    "array repr": lambda P, O, H, rep: H(ARRAY),
    "set field": lambda P, O, H, rep: setattr(P(1.0), "x", 2.0),
    "set new attribute": lambda P, O, H, rep: setattr(P(1.0), "z", 2.0),
    "delete field": lambda P, O, H, rep: delattr(P(1.0), "x"),
    "delete derived": lambda P, O, H, rep: delattr(P(1.0), "norm"),
    "class default": lambda P, O, H, rep: (P.y, P.label),
    "replace": lambda P, O, H, rep: rep(P(1.0, 2.0), label="r"),
    "replace reruns post_init": lambda P, O, H, rep: rep(P(1.0), x=-1.0),
    "replace derives again": lambda P, O, H, rep: rep(P(1.0), y=5.0).norm,
    "replace unknown field": lambda P, O, H, rep: rep(P(1.0), z=1.0),
}


@pytest.mark.parametrize("case", CASES)
def test_value_behaves_as_frozen_dataclass(case):
    make = CASES[case]
    oracle = _outcome(lambda: make(*ORACLE, ORACLE_REPLACE))
    got = _outcome(lambda: make(*VALUES, VALUES_REPLACE))
    assert got == oracle


def test_frozen_errors_are_dataclasses_frozen_instance_error():
    point = VALUES[0](1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.x = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del point.y
    assert (point.x, point.y, point.norm) == (1.0, 0.0, 1.0)


def test_a_method_the_class_defines_is_kept():
    @value
    class Short:
        a: int
        b: int = 2

        def __repr__(self):
            return "short"

    assert repr(Short(1)) == "short" and Short(1) == Short(1, 2)


# the benchmark's modules (perfbench/workloads.py MODULES)
_MODULES = ("cli", "scenarios", "scenario_io", "design", "signals", "kalman",
            "kfpasf", "runtime", "baselines", "csvio", "metrics")

_GUARD = textwrap.dedent("""
    import importlib, sys
    import numpy

    events = []

    def hook(event, args):
        if event == "compile" and args[1] == "<string>":
            events.append(event)
        elif event == "exec" and getattr(args[0], "co_filename", "") == "<string>":
            events.append(event)

    sys.addaudithook(hook)
    for name in sys.argv[1:]:
        importlib.import_module("pasf." + name)
    print(events.count("compile"), events.count("exec"), "dataclasses" in sys.modules)
""")


def test_import_compiles_no_generated_source():
    """Importing the package compiles and runs no generated source (the
    ``<string>`` that ``dataclass`` and ``NamedTuple`` methods are compiled
    from), counted by an audit hook installed after NumPy's import; nor
    does it import ``dataclasses``, which a frozen value's error needs only
    when it is raised."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-c", _GUARD, *_MODULES],
                         capture_output=True, text=True, env=env, check=False)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "0", "False"], res.stdout
