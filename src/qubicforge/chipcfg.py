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
rejected.  Configs are immutable after load and safe to share across
concurrent compilations.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field

from .envgen import EnvelopeSpec
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


def _check_version(data, path):
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unknown schema version {version!r}", path=f"{path}version")
    return version


def _reject_unknown(data, allowed, where):
    for key in data:
        if key not in allowed:
            raise ConfigError("unknown field", path=f"{where}{key}")


def _require_number(value, path, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path=path)
    if not math.isfinite(value):
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
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise ConfigError(f"cannot parse phase expression {value!r}", path=path) from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
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

    return ev(tree)


# ---------------------------------------------------------------------------
# ChipConfig


@dataclass(frozen=True)
class QubitParams:
    drive_freq: float
    readout_freq: float


@dataclass(frozen=True)
class ChipConfig:
    qubits: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

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
        out = {"version": SCHEMA_VERSION, "qubits": {}}
        for name in self.qubits:
            q = self.qubits[name]
            out["qubits"][name] = {"drive_freq": q.drive_freq, "readout_freq": q.readout_freq}
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def load_chip_config(path_or_text) -> ChipConfig:
    """Load and validate a chip configuration file."""
    data = _load_json(path_or_text)
    _check_version(data, "")
    _reject_unknown(data, {"version", "qubits", "metadata"}, "")
    raw_qubits = data.get("qubits", {})
    if not isinstance(raw_qubits, dict):
        raise ConfigError("expected an object", path="qubits")

    qubits = {}
    for name, entry in raw_qubits.items():
        where = f"qubits.{name}"
        if not isinstance(entry, dict):
            raise ConfigError("expected an object", path=where)
        _reject_unknown(entry, {"drive_freq", "readout_freq"}, where + ".")
        for f in ("drive_freq", "readout_freq"):
            if f not in entry:
                raise ConfigError("missing field", path=f"{where}.{f}")
        qubits[name] = QubitParams(
            drive_freq=_require_number(entry["drive_freq"], f"{where}.drive_freq", positive=True),
            readout_freq=_require_number(
                entry["readout_freq"], f"{where}.readout_freq", positive=True
            ),
        )

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ConfigError("metadata must map strings to strings", path="metadata")
    return ChipConfig(qubits=qubits, metadata=dict(metadata))


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
class GatePulseSpec:
    gates: dict = field(default_factory=dict)  # name -> tuple of PulseDef

    def __contains__(self, name):
        return name in self.gates

    def pulses(self, name):
        try:
            return self.gates[name]
        except KeyError:
            raise ConfigError(f"unknown gate {name!r}", path=f"gates.{name}") from None

    def duration(self, name):
        """Raw gate duration: max over pulses of t0 + twidth, in seconds."""
        return max(p.t0 + p.twidth for p in self.pulses(name))

    def to_json_dict(self):
        out = {"version": SCHEMA_VERSION, "gates": {}}
        for name in self.gates:
            out["gates"][name] = [_pulse_to_json(p) for p in self.gates[name]]
        return out

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def _pulse_to_json(p: PulseDef):
    env = {"kind": p.env.kind}
    if p.env.params:
        env["params"] = dict(p.env.params)
    if p.env.kind == "custom_samples":
        env["samples"] = [[z.real, z.imag] for z in p.env.samples]
    return {
        "dest": p.dest,
        "t0": p.t0,
        "twidth": p.twidth,
        "fcarrier": p.fcarrier,
        "pcarrier": p.pcarrier,
        "amp": p.amp,
        "env": env,
    }


def parse_envelope(data, path="env") -> EnvelopeSpec:
    if not isinstance(data, dict):
        raise ConfigError("expected an object", path=path)
    _reject_unknown(data, {"kind", "params", "samples"}, path + ".")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("missing envelope kind", path=f"{path}.kind")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("expected an object", path=f"{path}.params")
    samples = []
    for k, raw in enumerate(data.get("samples", [])):
        if isinstance(raw, (list, tuple)) and len(raw) == 2:
            samples.append(complex(raw[0], raw[1]))
        elif isinstance(raw, (int, float)):
            samples.append(complex(raw, 0.0))
        else:
            raise ConfigError("expected [re, im] or a number", path=f"{path}.samples[{k}]")
    try:
        return EnvelopeSpec(kind=kind, params=dict(params), samples=tuple(samples))
    except Exception as exc:
        raise ConfigError(str(exc), path=path) from None


def load_gate_spec(path_or_text, chip: ChipConfig) -> GatePulseSpec:
    """Load a gate pulse specification, resolving symbolic carriers."""
    data = _load_json(path_or_text)
    _check_version(data, "")
    _reject_unknown(data, {"version", "gates"}, "")
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
            _reject_unknown(
                entry, {"dest", "t0", "twidth", "fcarrier", "pcarrier", "amp", "env"}, pw + "."
            )
            for f in ("dest", "twidth", "fcarrier", "amp", "env"):
                if f not in entry:
                    raise ConfigError("missing field", path=f"{pw}.{f}")
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
class HardwareConfig:
    dac_sample_rate: float = 1e9
    dsp_clock: float = 250e6
    n_processing_elements_up: int = 16
    n_processing_elements_down: int = 4
    n_dac_pairs: int = 4
    channel_map: dict = field(default_factory=dict)
    envelope_buffer_depth: int = 1024
    command_buffer_depth: int = 65536
    acc_buffer_depth: int = 1000
    acq_buffer_depth: int = 8192

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
        out = {
            "version": SCHEMA_VERSION,
            "dac_sample_rate": self.dac_sample_rate,
            "dsp_clock": self.dsp_clock,
            "n_processing_elements_up": self.n_processing_elements_up,
            "n_processing_elements_down": self.n_processing_elements_down,
            "n_dac_pairs": self.n_dac_pairs,
            "envelope_buffer_depth": self.envelope_buffer_depth,
            "command_buffer_depth": self.command_buffer_depth,
            "acc_buffer_depth": self.acc_buffer_depth,
            "acq_buffer_depth": self.acq_buffer_depth,
            "channel_map": {
                name: {
                    "element": ch.element,
                    "destination": ch.destination,
                    "direction": ch.direction,
                }
                for name, ch in self.channel_map.items()
            },
        }
        return out

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def _require_count(value, path, minimum=1):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path=path)
    if value < minimum:
        raise ConfigError(f"value must be >= {minimum}, got {value}", path=path)
    return value


_HW_FIELDS = {
    "version",
    "dac_sample_rate",
    "dsp_clock",
    "n_processing_elements_up",
    "n_processing_elements_down",
    "n_dac_pairs",
    "channel_map",
    "envelope_buffer_depth",
    "command_buffer_depth",
    "acc_buffer_depth",
    "acq_buffer_depth",
}


def load_hardware_config(path_or_text) -> HardwareConfig:
    """Load a hardware configuration, applying defaults for omitted fields."""
    data = _load_json(path_or_text)
    _check_version(data, "")
    _reject_unknown(data, _HW_FIELDS, "")
    defaults = HardwareConfig()

    dac_rate = _require_number(
        data.get("dac_sample_rate", defaults.dac_sample_rate), "dac_sample_rate", positive=True
    )
    dsp_clock = _require_number(
        data.get("dsp_clock", defaults.dsp_clock), "dsp_clock", positive=True
    )
    ratio = dac_rate / dsp_clock
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ConfigError(
            f"dac_sample_rate {dac_rate} is not an integer multiple of dsp_clock {dsp_clock}",
            path="dac_sample_rate",
        )

    n_up = _require_count(
        data.get("n_processing_elements_up", defaults.n_processing_elements_up),
        "n_processing_elements_up",
    )
    n_down = _require_count(
        data.get("n_processing_elements_down", defaults.n_processing_elements_down),
        "n_processing_elements_down",
    )
    n_pairs = _require_count(data.get("n_dac_pairs", defaults.n_dac_pairs), "n_dac_pairs")
    if n_pairs > 4:
        raise ConfigError(
            f"n_dac_pairs {n_pairs} exceeds the 2-bit destination field (max 4)",
            path="n_dac_pairs",
        )
    if n_up + n_down > 256:
        raise ConfigError("element count exceeds the 8-bit element field", path="n_processing_elements_up")

    env_depth = _require_count(
        data.get("envelope_buffer_depth", defaults.envelope_buffer_depth),
        "envelope_buffer_depth",
    )
    if env_depth > 4096:
        raise ConfigError(
            f"envelope_buffer_depth {env_depth} exceeds the 12-bit start field (max 4096)",
            path="envelope_buffer_depth",
        )
    cmd_depth = _require_count(
        data.get("command_buffer_depth", defaults.command_buffer_depth), "command_buffer_depth"
    )
    acc_depth = _require_count(
        data.get("acc_buffer_depth", defaults.acc_buffer_depth), "acc_buffer_depth"
    )
    acq_depth = _require_count(
        data.get("acq_buffer_depth", defaults.acq_buffer_depth), "acq_buffer_depth"
    )

    raw_map = data.get("channel_map", {})
    if not isinstance(raw_map, dict):
        raise ConfigError("expected an object", path="channel_map")
    channel_map = {}
    for name, entry in raw_map.items():
        where = f"channel_map.{name}"
        if not isinstance(entry, dict):
            raise ConfigError("expected an object", path=where)
        _reject_unknown(entry, {"element", "destination", "direction"}, where + ".")
        for f in ("element", "destination", "direction"):
            if f not in entry:
                raise ConfigError("missing field", path=f"{where}.{f}")
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

    return HardwareConfig(
        dac_sample_rate=dac_rate,
        dsp_clock=dsp_clock,
        n_processing_elements_up=n_up,
        n_processing_elements_down=n_down,
        n_dac_pairs=n_pairs,
        channel_map=channel_map,
        envelope_buffer_depth=env_depth,
        command_buffer_depth=cmd_depth,
        acc_buffer_depth=acc_depth,
        acq_buffer_depth=acq_depth,
    )


def standard_channel_map(qubit_names, n_up=16, n_down=4, n_pairs=4, readout_pair=None):
    """Conventional wiring for a small chip: one drive and one readout
    drive element per qubit, multiplexed readout capture on one pair.

    Qubit i gets ``<q>.qdrv`` on up element i (pair i mod the non-readout
    pairs), ``<q>.rdrv`` on up element n_qubits + i, and ``<q>.read`` on
    down element n_up + i.  All readout channels share ``readout_pair``
    (default: the last pair).
    """
    names = list(qubit_names)
    if 2 * len(names) > n_up or len(names) > n_down:
        raise ConfigError("too many qubits for the element counts")
    if readout_pair is None:
        readout_pair = n_pairs - 1
    drive_pairs = max(n_pairs - 1, 1)
    channel_map = {}
    for i, q in enumerate(names):
        channel_map[f"{q}.qdrv"] = ChannelAssignment(i, i % drive_pairs, UP)
        channel_map[f"{q}.rdrv"] = ChannelAssignment(len(names) + i, readout_pair, UP)
        channel_map[f"{q}.read"] = ChannelAssignment(n_up + i, readout_pair, DOWN)
    return channel_map
