"""Text format for scenario files.

Line-oriented sections of key = value pairs; '#' starts a comment. The README
documents the grammar. The paper's four scenarios are files in this grammar,
shipped next to this module as ``sec51.scn``..``sec54.scn``: ``built_in``
parses them as ``load_scenario`` parses any other.
"""

from __future__ import annotations

import math
import os
import zlib

import numpy as np

from . import signals as sig
from .baselines import CombSpec
from .csvio import read_text
from .errors import InvalidArgumentError
from .scenarios import (_READS, CombBaseline, ControllerSpec, FilterChoice, Scenario,
                        _check_seed, _stream_seed, kind_of)
from .signals import NoiseSpec


class ScenarioParseError(InvalidArgumentError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# Each section's keys, as the README's grammar lists them ([rho] keys are
# start times). Only the _REPEATABLE keys repeat.
_SECTION_KEYS = {
    "scenario": "name kind period sampling_time duration filter warm_start "
                "settle input truth_p truth_a interference_window".split(),
    "model": "A B C Q R P0 process_noise_variance observation_noise_variance".split(),
    "rho": None,
    "controller": "start kp_p kd_p kp_a kd_a cmd_p cmd_a".split(),
    "signal": "expr kind factor of piece".split(),
    "comb": "variant gain q b g".split(),
}
_REPEATABLE = {("scenario", "filter"), ("signal", "piece")}


def _sections(text: str):
    """Each section's (line, key, value) entries in file order, and the line
    of each section's first header; an unknown section or key, or a
    repeated key, is an error naming its line."""
    sections: dict[str, list] = {}
    headers: dict[str, int] = {}
    current = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            words = line[1:-1].split(None, 1)
            kind = words[0] if words else ""
            named = kind in ("signal", "comb")  # [signal NAME], [comb LABEL]
            if kind not in _SECTION_KEYS or (len(words) == 2) != named:
                raise ScenarioParseError(
                    no, f"unknown section {line}; expected [scenario], [model], "
                        "[rho], [controller], [signal NAME] or [comb LABEL]")
            current = " ".join(words)
            headers.setdefault(current, no)
            entries = sections.setdefault(current, [])
            continue
        if current is None:
            raise ScenarioParseError(no, "key before any [section]")
        if "=" not in line:
            raise ScenarioParseError(no, f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        keys = _SECTION_KEYS[kind]
        if keys is not None:
            if key not in keys:
                raise ScenarioParseError(no, f"unknown key {key!r} in [{current}]; "
                                             f"expected one of {', '.join(keys)}")
            if (kind, key) not in _REPEATABLE and any(k == key for _, k, _ in entries):
                raise ScenarioParseError(no, f"duplicate key {key!r}")
        entries.append((no, key, value))
    return sections, headers


def _kv(entries):
    """A section's entries as key -> (line, value)."""
    return {key: (no, value) for no, key, value in entries}


def _number(no: int, what: str, text: str, convert=float):
    """``text`` as a finite number; anything else is an error on line ``no``."""
    try:
        value = convert(text)
    except ValueError:
        raise ScenarioParseError(
            no, f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ScenarioParseError(no, f"{what} must be finite, got {text!r}")
    return value


def _entry(table: dict, where: str, key: str, default=None):
    """(line, text) of ``key`` in a section's key table, or of its default."""
    if key in table:
        return table[key]
    if default is None:
        raise InvalidArgumentError(f"{where} missing {key!r}")
    return 0, default


def _value(table: dict, where: str, key: str, convert=float, default=None):
    """A section's numeric ``key`` (or its default), converted by ``_number``."""
    no, text = _entry(table, where, key, default)
    return _number(no, f"{where} {key}", text, convert)


def _floats(no: int, what: str, text: str) -> list[float]:
    return [_number(no, what, v) for v in text.split()]


def _matrix(no: int, key: str, value: str, sampling_time: float,
            zeros_shape=None) -> np.ndarray:
    """A ``[model]`` matrix: ``diag ...``, rows split by ``;``, or ``zeros``
    where the caller knows the shape."""
    tokens = value.strip()
    if tokens == "zeros":
        if zeros_shape is None:
            raise ScenarioParseError(no, f"[model] {key} cannot be zeros; "
                                         "give its entries")
        return np.zeros(zeros_shape)
    what = f"[model] {key} entry"
    if tokens.startswith("diag"):
        return np.diag(_floats(no, what, tokens[4:]))
    rows = []
    for row in tokens.split(";"):
        vals = []
        for tok in row.split():
            vals.append(sampling_time if tok == "T" else _number(no, what, tok))
        rows.append(vals)
    if len({len(vals) for vals in rows}) > 1:
        raise ScenarioParseError(no, f"[model] {key} rows differ in length: "
                                     f"{[len(vals) for vals in rows]}")
    return np.array(rows, dtype=float)


# (fewest, most, form) of each leaf kind's arguments, as the README lists them
_LEAF_ARGS = {"constant": (1, 1, "L"), "sinusoid": (2, 3, "AMP OMEGA [PHASE]"),
              "harmonic-sum": (1, math.inf, "BASEHZ amp:harm ..."),
              "pulse": (3, 5, "START END LEVEL [openstart] [openend]"),
              "gated-sine": (3, 3, "OMEGA GATE_SAMPLES DUTY_SAMPLES"),
              "noise": (3, 3, "VARIANCE START END")}


def _leaf_descriptor(tokens: list[str], seed: int, context: str, line_no: int):
    if not tokens:
        raise ScenarioParseError(line_no, "empty signal descriptor")
    kind = tokens[0]
    args = tokens[1:]

    def num(text, convert=float):
        return _number(line_no, f"{kind} descriptor", text, convert)

    if kind not in _LEAF_ARGS:
        raise ScenarioParseError(line_no, f"unknown descriptor kind {kind!r}")
    low, high, form = _LEAF_ARGS[kind]
    flags = args[3:] if kind == "pulse" else []
    terms = [a.split(":") for a in args[1:]] if kind == "harmonic-sum" else []
    if (not low <= len(args) <= high or len(set(flags)) < len(flags)
            or not set(flags) <= {"openstart", "openend"}
            or any(len(term) != 2 for term in terms)):
        raise ScenarioParseError(line_no, f"bad {kind} descriptor: expected "
                                          f"{kind} {form}, got {' '.join(tokens)!r}")
    try:
        if kind == "constant":
            return sig.Constant(num(args[0]))
        if kind == "sinusoid":
            phase = num(args[2]) if len(args) > 2 else 0.0
            return sig.Sinusoid(num(args[0]), num(args[1]), phase)
        if kind == "harmonic-sum":
            return sig.HarmonicSum(num(args[0]), tuple(
                (num(amp), num(harm)) for amp, harm in terms))
        if kind == "pulse":
            start, end, level = (num(a) for a in args[:3])
            return sig.Pulse(start, end, level,
                             include_start="openstart" not in flags,
                             include_end="openend" not in flags)
        if kind == "gated-sine":
            return sig.GatedSine(num(args[0]), num(args[1], int), num(args[2], int))
        if kind == "noise":
            var, start, end = (num(a) for a in args[:3])
            stream_seed = _stream_seed(seed, zlib.crc32(context.encode()))
            return sig.NoiseSegment(NoiseSpec(0.0, var, stream_seed), start, end)
    except ScenarioParseError:
        raise
    except ValueError as exc:
        raise ScenarioParseError(line_no, f"bad {kind} descriptor: {exc}") from exc


class _SignalTable:
    def __init__(self, sections, seed: int):
        self.raw = {name.removeprefix("signal "): entries
                    for name, entries in sections.items() if name.startswith("signal ")}
        self.seed = seed
        self.cache: dict[str, object] = {}
        self.building: set[str] = set()

    def ref(self, entry):
        """The signal an ``@name`` reference names; ``entry`` is the
        referring key's (line, text), and errors name that line."""
        line_no, text = entry
        token = text.strip()
        if not token.startswith("@") or len(token.split()) != 1:
            raise ScenarioParseError(
                line_no, f"expected @signal reference, got {token!r}")
        return self.get(token[1:], line_no)

    def resolve_inline_or_ref(self, text: str, context: str, line_no: int):
        """A schedule piece's signal: one ``@name`` or a leaf descriptor."""
        tokens = text.split()
        if len(tokens) == 1 and tokens[0].startswith("@"):
            return self.ref((line_no, text))
        return _leaf_descriptor(tokens, self.seed, context, line_no)

    def get(self, name: str, line_no: int):
        if name in self.cache:
            return self.cache[name]
        if name not in self.raw:
            raise ScenarioParseError(line_no, f"undefined signal @{name}")
        if name in self.building:
            raise ScenarioParseError(line_no, f"signal @{name} references itself")
        self.building.add(name)
        desc = self._build(name, self.raw[name], line_no)
        self.building.discard(name)
        self.cache[name] = desc
        return desc

    def _build(self, name: str, entries, ref_line: int):
        kv = _kv(e for e in entries if e[1] != "piece")
        pieces = [(no, value) for no, key, value in entries if key == "piece"]
        if "expr" in kv:
            no, value = kv["expr"]
            return _leaf_descriptor(value.split(), self.seed, name, no)
        if "kind" not in kv:
            no = entries[0][0] if entries else ref_line
            raise ScenarioParseError(no, f"signal {name} needs kind or expr")
        no_kind, kind = kv["kind"]
        if kind == "schedule":
            segments = []
            for no, value in pieces:
                tokens = value.split()
                if len(tokens) < 3:
                    raise ScenarioParseError(no, "piece needs: START END DESCRIPTOR")
                start = _number(no, f"signal {name} piece start", tokens[0])
                end = (None if tokens[1] in ("inf", "none")
                       else _number(no, f"signal {name} piece end", tokens[1]))
                inner = self.resolve_inline_or_ref(" ".join(tokens[2:]),
                                                   f"{name}.{start}", no)
                segments.append((start, end, inner))
            return sig.Schedule(tuple(segments))
        if kind in ("sum", "scale"):
            no, value = kv.get("of", (no_kind, ""))
            parts = tuple(self.ref((no, tok)) for tok in value.split())
            if not parts:
                raise ScenarioParseError(no, f"{kind} needs of = @a [@b ...]")
            if kind == "sum":
                return sig.Sum(parts)
            no_f, factor = kv.get("factor", (no_kind, None))
            if factor is None:
                raise ScenarioParseError(no_kind, "scale needs factor")
            # one reference is the signal itself; several are summed
            inner = parts[0] if len(parts) == 1 else sig.Sum(parts)
            return sig.Scaled(_number(no_f, f"signal {name} factor", factor), inner)
        raise ScenarioParseError(no_kind, f"unknown signal kind {kind!r}")


def parse_scenario(text: str, seed: int = 0) -> Scenario:
    """The Scenario that ``text`` describes. Its kind's ``KINDS`` record
    says which sections and ``[scenario]`` keys it reads beyond those every
    kind reads; any that only another kind reads is an error naming its
    line. A negative ``seed`` is refused before any section is read."""
    _check_seed(seed)
    sections, headers = _sections(text)
    # a missing section fails on its first required key; filter is the one
    # repeatable key, read in file order below
    meta = _kv(e for e in sections.get("scenario", ()) if e[1] != "filter")
    signals = _SignalTable(sections, seed)

    name = meta.get("name", (0, "custom"))[1]
    kind = _entry(meta, "[scenario]", "kind")[1]
    period = _value(meta, "[scenario]", "period", int)
    sampling_time = _value(meta, "[scenario]", "sampling_time")
    duration = _value(meta, "[scenario]", "duration")
    warm_start = meta.get("warm_start", (0, "zero"))[1]
    settle = _value(meta, "[scenario]", "settle", default="2.0")

    filters = []
    for no, key, value in sections.get("scenario", ()):
        if key == "filter":
            tokens = value.split()
            if len(tokens) < 2:
                raise ScenarioParseError(no, "filter needs: REALIZATION ORDER [LABEL]")
            label = tokens[2] if len(tokens) > 2 else ""
            order = _number(no, "filter order", tokens[1], int)
            filters.append(FilterChoice(tokens[0], order, label))

    if "rho" not in sections:  # else an empty schedule fails as not starting at 0
        raise InvalidArgumentError("scenario file needs a [rho] section")
    rho = {}
    for no, key, value in sections["rho"]:
        start = _number(no, "[rho] start", key)
        if start in rho:
            raise ScenarioParseError(no, f"[rho] start {start:g} repeats")
        rho[start] = _number(no, "[rho] rho_tilde", value)
    rho_schedule = tuple(sorted(rho.items()))

    window = None
    if "interference_window" in meta:
        no, text = meta["interference_window"]
        window = tuple(_floats(no, "[scenario] interference_window", text))
        if len(window) != 2:
            raise ScenarioParseError(no, "interference_window needs: START END")

    fields = dict(
        name=name, kind=kind, period=period, sampling_time=sampling_time,
        duration_s=duration, rho_schedule=rho_schedule, filters=tuple(filters),
        warm_start=warm_start, settle_s=settle, interference_window_s=window,
    )
    reads = kind_of(kind).reads
    unread = set(_READS) - set(reads)  # read by another kind only
    stray = [(no, f"[{section}]") for section, no in headers.items()
             if section.split()[0] in unread]
    stray += [(meta[key][0], f"[scenario] {key}") for key in unread if key in meta]
    if stray:
        no, what = min(stray)
        raise ScenarioParseError(no, f"{kind} scenario does not read {what}")
    if "model" in reads:
        mk = _kv(sections.get("model", ()))

        def mat(key, default=None, zeros_shape=None):
            no, text = _entry(mk, "[model]", key, default)
            return _matrix(no, key, text, sampling_time, zeros_shape)

        A, B, C, Q, R = (mat(key) for key in "ABCQR")
        if B.shape[0] == 1:
            B = B.reshape(-1)
        n = A.shape[0]
        fields.update(
            A=A, B=B, C=C, Q=Q, R=R, P0=mat("P0", "zeros", (n, n)),
            process_noise_variance=_value(
                mk, "[model]", "process_noise_variance", default="0"),
            observation_noise_variance=_value(
                mk, "[model]", "observation_noise_variance", default="0"),
        )
    for key in reads:
        if key in _SECTION_KEYS["scenario"]:  # a signal reference
            (field,) = _READS[key]
            fields[field] = signals.ref(_entry(meta, "[scenario]", key))
    if "controller" in reads:
        ck = _kv(sections.get("controller", ()))

        def number(key):
            return _value(ck, "[controller]", key)

        def command(key):
            return signals.ref(_entry(ck, "[controller]", key))

        fields["controller"] = ControllerSpec(
            start_s=number("start"),
            kp_p=number("kp_p"), kd_p=number("kd_p"),
            kp_a=number("kp_a"), kd_a=number("kd_a"),
            cmd_p=command("cmd_p"), cmd_a=command("cmd_a"),
        )
    if "comb" in reads:
        fields["combs"] = tuple(
            _comb_baseline(name.removeprefix("comb "), _kv(entries), period,
                           sampling_time)
            for name, entries in sections.items() if name.startswith("comb "))
    return Scenario(**fields)


def _comb_baseline(label: str, ck: dict, period: int,
                   sampling_time: float) -> CombBaseline:
    """One ``[comb LABEL]`` section: variant 1 or 2 with optional b and g, or
    variant 3 with a gain and a ``START:Q`` schedule of quality factors."""
    where = f"[comb {label}]"
    variant = _value(ck, where, "variant", int)
    if variant in (1, 2):
        spec = CombSpec(variant, period, sampling_time,
                        b=_value(ck, where, "b", default="0"),
                        g=_value(ck, where, "g", default="0"))
        return CombBaseline(label, ((0.0, spec),))
    if variant != 3:
        raise ScenarioParseError(ck["variant"][0],
                                 f"{where} variant must be 1, 2 or 3, got {variant}")
    gain = _value(ck, where, "gain")
    no, text = _entry(ck, where, "q")
    pieces = {}
    for part in text.split():
        start, colon, q = part.partition(":")
        try:
            start, q = float(start), float(q)
        except ValueError:
            colon = ""
        if not colon or not np.isfinite([start, q]).all():
            raise ScenarioParseError(
                no, f"{where} q piece must be START:Q with numbers, got {part!r}")
        if start in pieces:
            raise ScenarioParseError(no, f"{where} q piece start {start:g} repeats")
        pieces[start] = CombSpec(3, period, sampling_time, gain_mag=gain, q=q)
    if not pieces:
        raise ScenarioParseError(no, f"{where} q needs at least one START:Q piece")
    return CombBaseline(label, tuple(sorted(pieces.items())))


def load_scenario(path, seed: int = 0) -> Scenario:
    return parse_scenario(read_text(path), seed)


BUILT_INS = ("sec51", "sec52", "sec53", "sec54")


def built_in(name: str, seed: int = 0) -> Scenario:
    """The packaged scenario file ``<name>.scn``, parsed with ``seed``; only
    the names in ``BUILT_INS`` are looked up."""
    if name not in BUILT_INS:
        raise InvalidArgumentError(
            f"unknown scenario {name!r}; built-ins: {list(BUILT_INS)}")
    return load_scenario(os.path.join(os.path.dirname(__file__), f"{name}.scn"), seed)
