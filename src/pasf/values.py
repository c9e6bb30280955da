"""Frozen value classes, made without generated code.

``@value`` gives an annotated class what ``dataclasses.dataclass(frozen=True)``
gives it, from closures over the class's field names, so importing the
package compiles no method source (a test holds it to that with an
audit hook), and ``dataclasses`` is imported only when a value first
refuses an assignment. ``dataclass`` instead compiles the source of each
class's methods with ``exec``, which took 0.6 to 1 ms per class and most of
a fresh ``import pasf`` when bytecode exists. Importing the eleven modules
the benchmark loads (``pasf.cli`` and the ten it times beside it), after
NumPy, took a median 9 ms from bytecode and 60 ms from source, against 30
ms and 96 ms with ``dataclass`` (21 fresh processes each, a 2-core Intel
Xeon host, Python 3.11.7; ``BENCH_25.json``).
``python -X importtime -c "import pasf.cli"`` shows the cost module by
module.

A value class lists its fields as annotations of its own body, in order;
a field's class attribute, where there is one, is its default. Then:

- The constructor binds its arguments by position or keyword to the
  fields, falls back to the defaults, and raises ``TypeError`` for a
  missing, repeated or unknown argument. It sets every field with
  ``object.__setattr__`` in field order, as ``dataclass`` does, so
  instances share one dict layout and the defaults stay on the class;
  then it calls ``__post_init__`` if the class has one.
- ``==`` and ``hash`` compare and hash the tuple of the field values when
  both operands are of the same class; any other operand gives
  ``NotImplemented``.
- ``repr`` is ``Name(field=value, ...)``.
- Setting or deleting an attribute raises
  ``dataclasses.FrozenInstanceError``; ``__post_init__`` sets derived
  fields with ``object.__setattr__``.

A method the class body defines itself is kept.
"""

from __future__ import annotations

_set = object.__setattr__


def _frozen(message):
    # imported when first raised: importing dataclasses costs about 1 ms
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(message)


def _frozen_setattr(self, name, value):
    raise _frozen(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise _frozen(f"cannot delete field {name!r}")


def value(cls):
    """Make the annotated class ``cls`` a frozen value (see the module
    docstring) and return it."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments, "
                            f"got {len(args)} by position")
        for name, arg in zip(names, args):
            _set(self, name, arg)
        for name in names[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in defaults:
                _set(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unknown or repeated "
                            f"argument {next(iter(kwargs))!r}")
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": _frozen_setattr,
               "__delattr__": _frozen_delattr}
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, method)
    cls._fields = names
    return cls


def replace(obj, /, **changes):
    """A copy of the value ``obj`` with the fields named in ``changes`` set
    to the given values, made by its constructor: the copy runs the class's
    checks again. An unknown field name raises ``TypeError``."""
    for name in obj._fields:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return type(obj)(**changes)
