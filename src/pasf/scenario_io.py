"""Text format for scenario files.

Line-oriented sections of key = value pairs; '#' starts a comment. The README
documents the grammar. Parsing produces the same Scenario values as the
embedded built-ins, so any built-in can be overridden by a file.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import signals as sig
from .baselines import CombSpec
from .errors import InvalidArgumentError
from .scenarios import CombBaseline, ControllerSpec, FilterChoice, Scenario
from .signals import NoiseSpec


class ScenarioParseError(InvalidArgumentError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _sections(text: str):
    sections: dict[str, list] = {}
    current = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ScenarioParseError(no, "key before any [section]")
        if "=" not in line:
            raise ScenarioParseError(no, f"expected key = value, got {line!r}")
        key, value = line.split("=", 1)
        sections[current].append((no, key.strip(), value.strip()))
    return sections


def _kv(entries, line_hint=0):
    out = {}
    for no, key, value in entries:
        if key in out:
            raise ScenarioParseError(no, f"duplicate key {key!r}")
        out[key] = (no, value)
    return out


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split()]


def _matrix(value: str, sampling_time: float) -> np.ndarray:
    tokens = value.strip()
    if tokens == "zeros":
        return None  # caller substitutes the right shape
    if tokens.startswith("diag"):
        vals = _floats(tokens[4:])
        return np.diag(vals)
    rows = []
    for row in tokens.split(";"):
        vals = []
        for tok in row.split():
            vals.append(sampling_time if tok == "T" else float(tok))
        rows.append(vals)
    return np.array(rows, dtype=float)


def _leaf_descriptor(tokens: list[str], seed: int, context: str, line_no: int):
    kind = tokens[0]
    args = tokens[1:]
    try:
        if kind == "constant":
            return sig.Constant(float(args[0]))
        if kind == "sinusoid":
            phase = float(args[2]) if len(args) > 2 else 0.0
            return sig.Sinusoid(float(args[0]), float(args[1]), phase)
        if kind == "harmonic-sum":
            base = float(args[0])
            terms = []
            for pair in args[1:]:
                amp, harm = pair.split(":")
                terms.append((float(amp), float(harm)))
            return sig.HarmonicSum(base, tuple(terms))
        if kind == "pulse":
            start, end, level = (float(a) for a in args[:3])
            flags = set(args[3:])
            return sig.Pulse(start, end, level,
                             include_start="openstart" not in flags,
                             include_end="openend" not in flags)
        if kind == "gated-sine":
            return sig.GatedSine(float(args[0]), int(args[1]), int(args[2]))
        if kind == "noise":
            var, start, end = (float(a) for a in args[:3])
            stream_seed = int(np.random.SeedSequence(
                [seed, zlib.crc32(context.encode())]).generate_state(1)[0])
            return sig.NoiseSegment(NoiseSpec(0.0, var, stream_seed), start, end)
    except (ValueError, IndexError) as exc:
        raise ScenarioParseError(line_no, f"bad {kind} descriptor: {exc}") from exc
    raise ScenarioParseError(line_no, f"unknown descriptor kind {kind!r}")


class _SignalTable:
    def __init__(self, sections, seed: int):
        self.raw = {
            name.split(None, 1)[1]: entries
            for name, entries in sections.items()
            if name.startswith("signal ")
        }
        self.seed = seed
        self.cache: dict[str, object] = {}
        self.building: set[str] = set()

    def resolve_token(self, token: str, line_no: int):
        if token.startswith("@"):
            return self.get(token[1:], line_no)
        raise ScenarioParseError(line_no, f"expected @signal reference, got {token!r}")

    def resolve_inline_or_ref(self, text: str, context: str, line_no: int):
        tokens = text.split()
        if len(tokens) == 1 and tokens[0].startswith("@"):
            return self.get(tokens[0][1:], line_no)
        return _leaf_descriptor(tokens, self.seed, context, line_no)

    def get(self, name: str, line_no: int = 0):
        if name in self.cache:
            return self.cache[name]
        if name not in self.raw:
            raise ScenarioParseError(line_no, f"undefined signal @{name}")
        if name in self.building:
            raise ScenarioParseError(line_no, f"signal @{name} references itself")
        self.building.add(name)
        desc = self._build(name, self.raw[name])
        self.building.discard(name)
        self.cache[name] = desc
        return desc

    def _build(self, name: str, entries):
        kv = {}
        pieces = []
        for no, key, value in entries:
            if key == "piece":
                pieces.append((no, value))
            else:
                kv[key] = (no, value)
        if "expr" in kv:
            no, value = kv["expr"]
            return _leaf_descriptor(value.split(), self.seed, name, no)
        if "kind" not in kv:
            raise ScenarioParseError(entries[0][0], f"signal {name} needs kind or expr")
        no_kind, kind = kv["kind"]
        if kind == "schedule":
            segments = []
            for no, value in pieces:
                tokens = value.split()
                if len(tokens) < 3:
                    raise ScenarioParseError(no, "piece needs: START END DESCRIPTOR")
                start = float(tokens[0])
                end = None if tokens[1] in ("inf", "none") else float(tokens[1])
                inner = self.resolve_inline_or_ref(" ".join(tokens[2:]),
                                                   f"{name}.{start}", no)
                segments.append((start, end, inner))
            return sig.Schedule(tuple(segments))
        if kind == "sum":
            no, value = kv.get("of", (no_kind, ""))
            parts = tuple(self.resolve_token(tok, no) for tok in value.split())
            if not parts:
                raise ScenarioParseError(no, "sum needs of = @a @b ...")
            return sig.Sum(parts)
        if kind == "scale":
            no_f, factor = kv.get("factor", (no_kind, None))
            no_o, of = kv.get("of", (no_kind, None))
            if factor is None or of is None:
                raise ScenarioParseError(no_kind, "scale needs factor and of")
            parts = of.split()
            if len(parts) == 1:
                inner = self.resolve_inline_or_ref(of, name, no_o)
            else:
                inner = sig.Sum(tuple(self.resolve_token(t, no_o) for t in parts))
            return sig.Scaled(float(factor), inner)
        raise ScenarioParseError(no_kind, f"unknown signal kind {kind!r}")


def parse_scenario(text: str, seed: int = 0) -> Scenario:
    sections = _sections(text)
    if "scenario" not in sections:
        raise InvalidArgumentError("scenario file needs a [scenario] section")
    # filter is the one repeatable key; it is read in file order below
    meta = _kv(e for e in sections["scenario"] if e[1] != "filter")
    signals = _SignalTable(sections, seed)

    def need(key):
        if key not in meta:
            raise InvalidArgumentError(f"[scenario] missing {key!r}")
        return meta[key][1]

    name = meta.get("name", (0, "custom"))[1]
    kind = need("kind")
    period = int(need("period"))
    sampling_time = float(need("sampling_time"))
    duration = float(need("duration"))
    warm_start = meta.get("warm_start", (0, "zero"))[1]
    settle = float(meta.get("settle", (0, "2.0"))[1])

    filters = []
    for no, key, value in sections["scenario"]:
        if key == "filter":
            tokens = value.split()
            if len(tokens) < 2:
                raise ScenarioParseError(no, "filter needs: REALIZATION ORDER [LABEL]")
            label = tokens[2] if len(tokens) > 2 else ""
            filters.append(FilterChoice(tokens[0], int(tokens[1]), label))
    if not filters:
        raise InvalidArgumentError("[scenario] needs at least one filter")

    if "rho" not in sections:
        raise InvalidArgumentError("scenario file needs a [rho] section")
    rho_schedule = tuple(
        sorted((float(key), float(value)) for _, key, value in sections["rho"])
    )

    window = None
    if "interference_window" in meta:
        vals = _floats(meta["interference_window"][1])
        window = (vals[0], vals[1])

    fields = dict(
        name=name, kind=kind, period=period, sampling_time=sampling_time,
        duration_s=duration, rho_schedule=rho_schedule, filters=tuple(filters),
        warm_start=warm_start, settle_s=settle, interference_window_s=window,
    )

    if kind in ("estimation", "control"):
        if "model" not in sections:
            raise InvalidArgumentError(f"{kind} scenario needs a [model] section")
        mk = _kv(sections["model"])

        def mat(key, default=None):
            if key not in mk:
                if default is not None:
                    return default
                raise InvalidArgumentError(f"[model] missing {key!r}")
            return _matrix(mk[key][1], sampling_time)

        A = mat("A")
        n = A.shape[0]
        B = mat("B")
        if B is not None and B.shape[0] == 1:
            B = B.reshape(-1)
        C = mat("C")
        Q = mat("Q")
        R = mat("R")
        P0 = mat("P0", default="skip")
        if isinstance(P0, str) or P0 is None:
            P0 = np.zeros((n, n))
        fields.update(
            A=A, B=B, C=C, Q=Q, R=R, P0=P0,
            process_noise_variance=float(mk.get("process_noise_variance", (0, "0"))[1]),
            observation_noise_variance=float(
                mk.get("observation_noise_variance", (0, "0"))[1]),
            input_u=signals.get(_ref(need("input")), meta["input"][0]),
        )
    if kind == "control":
        if "controller" not in sections:
            raise InvalidArgumentError("control scenario needs a [controller] section")
        ck = _kv(sections["controller"])

        def cval(key):
            if key not in ck:
                raise InvalidArgumentError(f"[controller] missing {key!r}")
            return ck[key][1]

        fields["controller"] = ControllerSpec(
            start_s=float(cval("start")),
            kp_p=float(cval("kp_p")), kd_p=float(cval("kd_p")),
            kp_a=float(cval("kp_a")), kd_a=float(cval("kd_a")),
            cmd_p=signals.get(_ref(cval("cmd_p"))),
            cmd_a=signals.get(_ref(cval("cmd_a"))),
        )
    if kind == "separation":
        fields["truth_p"] = signals.get(_ref(need("truth_p")))
        fields["truth_a"] = signals.get(_ref(need("truth_a")))
        combs = []
        for sec_name, entries in sections.items():
            if not sec_name.startswith("comb "):
                continue
            label = sec_name.split(None, 1)[1]
            ck = _kv(entries)
            variant = int(ck["variant"][1])
            if variant in (1, 2):
                spec = CombSpec(variant, period, sampling_time,
                                b=float(ck.get("b", (0, "0"))[1]),
                                g=float(ck.get("g", (0, "0"))[1]))
                combs.append(CombBaseline(label, ((0.0, spec),)))
            else:
                gain = float(ck["gain"][1])
                pieces = []
                for part in ck["q"][1].split():
                    start, q = part.split(":")
                    pieces.append((float(start),
                                   CombSpec(3, period, sampling_time,
                                            gain_mag=gain, q=float(q))))
                combs.append(CombBaseline(label, tuple(sorted(pieces))))
        fields["combs"] = tuple(combs)

    scn = Scenario(**fields)
    scn.validate()
    return scn


def _ref(token: str) -> str:
    token = token.strip()
    if not token.startswith("@"):
        raise InvalidArgumentError(f"expected @signal reference, got {token!r}")
    return token[1:]


def load_scenario(path, seed: int = 0) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), seed)
