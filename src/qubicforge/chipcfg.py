"""The three configuration layers consumed by the compiler.

ChipConfig
    Per-qubit carrier frequencies (drive and readout) plus free-form
    metadata.  Generated by chip characterization, stored as JSON.
GatePulseSpec
    Named gates, each an ordered list of pulses (destination channel,
    timing, carrier, amplitude, envelope).  Carrier fields may reference
    chip frequencies symbolically ("Q6.freq", "Q6.readfreq"); loading
    resolves them to numbers.
HardwareConfig
    Sampling rates, processing-element counts, the wiring map from
    channel names to (element, DAC/ADC pair, direction) and buffer
    depths.  Only this layer changes when the same pulses run on
    different hardware.

All files are JSON with SI base units (Hz, seconds).  Every file may
carry a ``"version"`` integer (default 1); unknown versions are
rejected.  An object's keys are the fields of the dataclass it loads
into.  Configs are immutable after load (their mappings are read-only)
and safe to share across concurrent compilations.
"""

from __future__ import annotations

import ast
import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

from .envgen import EnvelopeSpec, _to_float
from .errors import ConfigError

SCHEMA_VERSION = 1

UP = "up"
DOWN = "down"


def _load_json(path_or_text):
    """Accept a filesystem path, a JSON string, or an already-parsed dict."""
    if isinstance(path_or_text, dict):
        return path_or_text
    text = path_or_text
    if hasattr(path_or_text, "read"):
        text = path_or_text.read()
    else:
        stripped = str(path_or_text).lstrip()
        if not stripped.startswith("{"):
            try:
                with open(path_or_text, "r", encoding="utf-8") as f:
                    text = f.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


@functools.cache
def _field_names(cls):
    """The field names of the record dataclass ``cls``, in field order, as
    the keys of a dict (for quick lookups); do not change it."""
    return dict.fromkeys(f.name for f in fields(cls))


def _check_fields(data, cls, where, optional=(), extra=()):
    """Reject the first key of ``data``, in data order, that is neither a
    field of ``cls`` nor named in ``extra``; then the first field, in
    field order, that ``data`` lacks and ``optional`` does not name."""
    names = _field_names(cls)
    for key in data:
        if key not in names and key not in extra:
            raise ConfigError("unknown field", path=f"{where}{key}")
    if len(data) == len(names) + len(extra):  # every allowed key is there
        return
    for name in names:
        if name not in data and name not in optional:
            raise ConfigError("missing field", path=f"{where}{name}")


def _load_config(path_or_text, cls):
    """The top-level object of a ``cls`` file: a known ``version`` and
    the fields of ``cls``, each optional."""
    data = _load_json(path_or_text)
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unknown schema version {version!r}", path="version")
    _check_fields(data, cls, "", optional=_field_names(cls), extra=("version",))
    return data


def _require_number(value, path, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path=path)
    if not math.isfinite(_to_float(value)):
        raise ConfigError("value must be finite", path=path)
    if positive and value <= 0:
        raise ConfigError(f"value must be strictly positive, got {value}", path=path)
    if nonnegative and value < 0:
        raise ConfigError(f"value must be non-negative, got {value}", path=path)
    return float(value)


_ALLOWED_PHASE_NAMES = {"pi": math.pi}


def parse_phase(value, path="pcarrier"):
    """Accept a numeric phase or a constant expression such as "pi/2".

    The expression grammar allows numbers, ``pi`` (also spelled
    ``numpy.pi`` / ``np.pi``), unary minus and the + - * / operators.
    """
    if isinstance(value, bool):
        raise ConfigError(f"expected a phase, got {value!r}", path=path)
    if isinstance(value, (int, float)):
        return _require_number(value, path)

    if not isinstance(value, str):
        raise ConfigError(f"expected a phase, got {value!r}", path=path)
    text = value.replace("numpy.pi", "pi").replace("np.pi", "pi")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return _to_float(node.value)
        if isinstance(node, ast.Name) and node.id in _ALLOWED_PHASE_NAMES:
            return _ALLOWED_PHASE_NAMES[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if b == 0:
                raise ConfigError("division by zero in phase expression", path=path)
            return a / b
        raise ConfigError(f"unsupported phase expression {value!r}", path=path)

    # the parser and ev recurse: a deeply nested expression exhausts the
    # parser's stack (MemoryError) or the interpreter's (RecursionError)
    try:
        phase = ev(ast.parse(text, mode="eval"))
    except (SyntaxError, MemoryError, RecursionError):
        raise ConfigError(f"cannot parse phase expression {value!r}", path=path) from None
    # an expression can overflow where no literal does, e.g. "1e308*10"
    return _require_number(phase, path)


class _Config:
    """What the three config layers share: their JSON text.  Each record
    dataclass keeps its fields, and nothing else, in its ``__dict__``, so
    a copy of that is the record's JSON object.  A config's mapping
    fields are read-only copies of the mappings it was built with."""

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# ChipConfig


@dataclass(frozen=True)
class QubitParams:
    drive_freq: float
    readout_freq: float


@dataclass(frozen=True)
class ChipConfig(_Config):
    qubits: Mapping = field(default_factory=dict)
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "qubits", MappingProxyType(dict(self.qubits)))
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))

    def resolve_carrier(self, ref, path="fcarrier"):
        """Resolve a numeric or symbolic carrier to Hz.

        Symbolic references are dotted: "Q6.freq" names the drive
        frequency and "Q6.readfreq" the readout frequency of qubit Q6.
        """
        if isinstance(ref, bool):
            raise ConfigError(f"expected a carrier, got {ref!r}", path=path)
        if isinstance(ref, (int, float)):
            return _require_number(ref, path, nonnegative=True)
        if not isinstance(ref, str):
            raise ConfigError(f"expected a carrier, got {ref!r}", path=path)
        qubit, _, attr = ref.partition(".")
        if qubit not in self.qubits:
            raise ConfigError(f"unresolved carrier reference {ref!r}: no qubit {qubit!r}", path=path)
        params = self.qubits[qubit]
        if attr == "freq":
            return params.drive_freq
        if attr == "readfreq":
            return params.readout_freq
        raise ConfigError(
            f"unresolved carrier reference {ref!r}: expected .freq or .readfreq", path=path
        )

    def to_json_dict(self):
        qubits = {name: q.__dict__.copy() for name, q in self.qubits.items()}
        out = {"version": SCHEMA_VERSION, "qubits": qubits}
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out


def load_chip_config(path_or_text) -> ChipConfig:
    """Load and validate a chip configuration file."""
    data = _load_config(path_or_text, ChipConfig)
    raw_qubits = data.get("qubits", {})
    if not isinstance(raw_qubits, dict):
        raise ConfigError("expected an object", path="qubits")

    qubits = {}
    for name, entry in raw_qubits.items():
        where = f"qubits.{name}"
        if not isinstance(entry, dict):
            raise ConfigError("expected an object", path=where)
        _check_fields(entry, QubitParams, where + ".")
        qubits[name] = QubitParams(*(
            _require_number(entry[f], f"{where}.{f}", positive=True)
            for f in _field_names(QubitParams)
        ))

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ConfigError("metadata must map strings to strings", path="metadata")
    return ChipConfig(qubits=qubits, metadata=metadata)


# ---------------------------------------------------------------------------
# GatePulseSpec


@dataclass(frozen=True)
class PulseDef:
    """One pulse within a gate; carriers already resolved to numbers."""

    dest: str
    t0: float
    twidth: float
    fcarrier: float
    pcarrier: float
    amp: float
    env: EnvelopeSpec


@dataclass(frozen=True)
class GatePulseSpec(_Config):
    gates: Mapping = field(default_factory=dict)  # name -> tuple of PulseDef

    def __post_init__(self):
        object.__setattr__(self, "gates", MappingProxyType(dict(self.gates)))

    def __contains__(self, name):
        return name in self.gates

    def pulses(self, name):
        try:
            return self.gates[name]
        except KeyError:
            raise ConfigError(f"unknown gate {name!r}", path=f"gates.{name}") from None

    def duration(self, name):
        """Raw gate duration: max over pulses of t0 + twidth, in seconds."""
        return max((p.t0 + p.twidth for p in self.pulses(name)), default=0.0)

    def to_json_dict(self):
        gates = {name: [_pulse_to_json(p) for p in pulses] for name, pulses in self.gates.items()}
        return {"version": SCHEMA_VERSION, "gates": gates}


def _pulse_to_json(p: PulseDef):
    env = {"kind": p.env.kind}
    if p.env.params:
        env["params"] = dict(p.env.params)
    if p.env.kind == "custom_samples":
        env["samples"] = [[z.real, z.imag] for z in p.env.samples]
    out = p.__dict__.copy()
    out["env"] = env
    return out


def parse_envelope(data, path="env") -> EnvelopeSpec:
    if not isinstance(data, dict):
        raise ConfigError("expected an object", path=path)
    # each key may be absent: a missing kind has its own message
    _check_fields(data, EnvelopeSpec, path + ".", _field_names(EnvelopeSpec))
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("missing envelope kind", path=f"{path}.kind")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("expected an object", path=f"{path}.params")
    raw_samples = data.get("samples", [])
    if not hasattr(raw_samples, "__iter__"):
        raise ConfigError("expected a list", path=f"{path}.samples")
    samples = []
    for k, raw in enumerate(raw_samples):
        pair = raw if isinstance(raw, (list, tuple)) else (raw, 0.0)
        if len(pair) != 2 or not all(isinstance(x, (int, float)) for x in pair):
            raise ConfigError("expected [re, im] or a number", path=f"{path}.samples[{k}]")
        samples.append(complex(*map(_to_float, pair)))
    try:
        return EnvelopeSpec(kind=kind, params=dict(params), samples=tuple(samples))
    except Exception as exc:
        raise ConfigError(str(exc), path=path) from None


def load_gate_spec(path_or_text, chip: ChipConfig) -> GatePulseSpec:
    """Load a gate pulse specification, resolving symbolic carriers."""
    data = _load_config(path_or_text, GatePulseSpec)
    raw_gates = data.get("gates", {})
    if not isinstance(raw_gates, dict):
        raise ConfigError("expected an object", path="gates")

    gates = {}
    for name, entries in raw_gates.items():
        where = f"gates.{name}"
        if not isinstance(entries, list):
            raise ConfigError("expected a list of pulses", path=where)
        pulses = []
        for k, entry in enumerate(entries):
            pw = f"{where}[{k}]"
            if not isinstance(entry, dict):
                raise ConfigError("expected an object", path=pw)
            _check_fields(entry, PulseDef, pw + ".", optional=("t0", "pcarrier"))
            amp = _require_number(entry["amp"], f"{pw}.amp")
            if not 0 <= amp <= 1:
                raise ConfigError(f"amp {amp} outside [0, 1]", path=f"{pw}.amp")
            pulses.append(
                PulseDef(
                    dest=str(entry["dest"]),
                    t0=_require_number(entry.get("t0", 0.0), f"{pw}.t0", nonnegative=True),
                    twidth=_require_number(entry["twidth"], f"{pw}.twidth", positive=True),
                    fcarrier=chip.resolve_carrier(entry["fcarrier"], f"{pw}.fcarrier"),
                    pcarrier=parse_phase(entry.get("pcarrier", 0.0), f"{pw}.pcarrier"),
                    amp=amp,
                    env=parse_envelope(entry["env"], f"{pw}.env"),
                )
            )
        gates[name] = tuple(pulses)
    return GatePulseSpec(gates=gates)


# ---------------------------------------------------------------------------
# HardwareConfig


@dataclass(frozen=True)
class ChannelAssignment:
    element: int
    destination: int
    direction: str  # UP or DOWN


@dataclass(frozen=True)
class HardwareConfig(_Config):
    dac_sample_rate: float = 1e9
    dsp_clock: float = 250e6
    n_processing_elements_up: int = 16
    n_processing_elements_down: int = 4
    n_dac_pairs: int = 4
    channel_map: Mapping = field(default_factory=dict)
    envelope_buffer_depth: int = 1024
    command_buffer_depth: int = 65536
    acc_buffer_depth: int = 1000
    acq_buffer_depth: int = 8192

    def __post_init__(self):
        object.__setattr__(self, "channel_map", MappingProxyType(dict(self.channel_map)))

    @property
    def dt(self):
        """Seconds per DAC sample."""
        return 1.0 / self.dac_sample_rate

    @property
    def dsp_period(self):
        """Seconds per DSP clock cycle."""
        return 1.0 / self.dsp_clock

    @property
    def samples_per_cycle(self):
        return int(round(self.dac_sample_rate / self.dsp_clock))

    @property
    def n_elements(self):
        return self.n_processing_elements_up + self.n_processing_elements_down

    def element_direction(self, element):
        """Up elements occupy the low indices, down elements follow."""
        if 0 <= element < self.n_processing_elements_up:
            return UP
        if element < self.n_elements:
            return DOWN
        raise ConfigError(f"element index {element} out of range")

    def channel(self, name) -> ChannelAssignment:
        try:
            return self.channel_map[name]
        except KeyError:
            raise ConfigError(f"channel {name!r} not in hardware channel map") from None

    def to_json_dict(self):
        out = self.__dict__.copy()
        out["version"] = SCHEMA_VERSION
        out["channel_map"] = {name: ch.__dict__.copy() for name, ch in self.channel_map.items()}
        return out


def _require_count(value, path, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path=path)
    if value < minimum:
        raise ConfigError(f"value must be >= {minimum}, got {value}", path=path)
    return value


# (name, default, largest value, what bounds it) of each integer field,
# in field order: element counts, DAC pairs, then buffer depths.
_HW_LIMITS = {
    "n_dac_pairs": (4, "the 2-bit destination field"),
    "envelope_buffer_depth": (4096, "the 12-bit start field"),
}
_HW_COUNTS = tuple(
    (f.name, f.default, *_HW_LIMITS.get(f.name, (math.inf, None)))
    for f in fields(HardwareConfig)
    if type(f.default) is int
)


def load_hardware_config(path_or_text) -> HardwareConfig:
    """Load a hardware configuration, applying defaults for omitted fields."""
    data = _load_config(path_or_text, HardwareConfig)
    values = {
        name: _require_number(data.get(name, getattr(HardwareConfig, name)), name, positive=True)
        for name in ("dac_sample_rate", "dsp_clock")
    }
    dac_rate, dsp_clock = values["dac_sample_rate"], values["dsp_clock"]
    ratio = dac_rate / dsp_clock
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ConfigError(
            f"dac_sample_rate {dac_rate} is not an integer multiple of dsp_clock {dsp_clock}",
            path="dac_sample_rate",
        )

    for name, default, maximum, reason in _HW_COUNTS:
        value = values[name] = _require_count(data.get(name, default), name)
        if value > maximum:
            raise ConfigError(f"{name} {value} exceeds {reason} (max {maximum})", path=name)
        if name == "n_dac_pairs":  # then the element count, as before
            n_up, n_down = values["n_processing_elements_up"], values["n_processing_elements_down"]
            if n_up + n_down > 256:
                raise ConfigError(
                    "element count exceeds the 8-bit element field",
                    path="n_processing_elements_up",
                )
    n_pairs = values["n_dac_pairs"]

    raw_map = data.get("channel_map", {})
    if not isinstance(raw_map, dict):
        raise ConfigError("expected an object", path="channel_map")
    channel_map = {}
    for name, entry in raw_map.items():
        where = f"channel_map.{name}"
        if not isinstance(entry, dict):
            raise ConfigError("expected an object", path=where)
        _check_fields(entry, ChannelAssignment, where + ".")
        element = _require_count(entry["element"], f"{where}.element", minimum=0)
        destination = _require_count(entry["destination"], f"{where}.destination", minimum=0)
        direction = entry["direction"]
        if direction not in (UP, DOWN):
            raise ConfigError(f"direction must be 'up' or 'down', got {direction!r}", path=where)
        if destination >= n_pairs:
            raise ConfigError(
                f"destination {destination} out of range (n_dac_pairs={n_pairs})",
                path=f"{where}.destination",
            )
        if direction == UP and element >= n_up:
            raise ConfigError(
                f"up element {element} out of range (n_up={n_up})", path=f"{where}.element"
            )
        if direction == DOWN and not (n_up <= element < n_up + n_down):
            raise ConfigError(
                f"down element {element} must lie in [{n_up}, {n_up + n_down})",
                path=f"{where}.element",
            )
        channel_map[name] = ChannelAssignment(
            element=element, destination=destination, direction=direction
        )
    return HardwareConfig(channel_map=channel_map, **values)


def standard_channel_map(qubit_names, n_up=HardwareConfig.n_processing_elements_up):
    """Conventional wiring for a small chip: one drive and one readout
    drive element per qubit, multiplexed readout capture on one pair.

    Qubit i gets ``<q>.qdrv`` on up element i (pair i mod the non-readout
    pairs), ``<q>.rdrv`` on up element n_qubits + i, and ``<q>.read`` on
    down element n_up + i.  All readout channels share the last pair.
    The element and pair counts are ``HardwareConfig``'s defaults.
    """
    names = list(qubit_names)
    if 2 * len(names) > n_up or len(names) > HardwareConfig.n_processing_elements_down:
        raise ConfigError("too many qubits for the element counts")
    readout_pair = HardwareConfig.n_dac_pairs - 1
    drive_pairs = max(readout_pair, 1)
    channel_map = {}
    for i, q in enumerate(names):
        channel_map[f"{q}.qdrv"] = ChannelAssignment(i, i % drive_pairs, UP)
        channel_map[f"{q}.rdrv"] = ChannelAssignment(len(names) + i, readout_pair, UP)
        channel_map[f"{q}.read"] = ChannelAssignment(n_up + i, readout_pair, DOWN)
    return channel_map
