"""Three-stage pulse compiler.

A circuit (gate names plus virtual-Z rotations) is lowered in three
steps, each with an inspectable intermediate form:

1. ``schedule`` assigns each gate a start cycle, as-soon-as-possible per
   qubit, with gate durations rounded up to whole DSP clock cycles.
2. ``lower_to_tp`` expands gates into TimePulse records: absolute start
   time, destination channel, carrier frequency and phase (virtual-Z
   rotations fold into the phase of later drive pulses), amplitude,
   width, envelope.
3. ``lower_to_nv`` quantizes each TimePulse into a 128-bit command and
   allocates envelope memory, producing the raw buffers a device loads.

Envelope allocation has two strategies over one envelope store, which
always shares identical words on an element.  The dynamic allocator
("optm") walks pulses in time order, spills to another free element when
a buffer fills, and validates element timing conflicts.  The static
allocator ("runc") lays out every gate in the gate set up front (sorted
by name), so every compilation against one gate set places each pulse at
the same address and skips the timing checks; it still builds that
layout on each call.  Parameter overrides that would alter a stored
envelope are rejected there.  Both produce bit-identical output
waveforms for any circuit they both accept.

Packed envelope words are cached across compilations (a small LRU keyed
by shape, sample count, amplitude and sample rate), and within one
``lower_to_nv`` call each distinct pulse shape is resolved once.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import operator
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import cmdcodec
from .chipcfg import (
    ChipConfig,
    GatePulseSpec,
    HardwareConfig,
    load_hardware_config,
    parse_envelope,
    parse_phase,
    _field_names,
    _load_config,
)
from .cmdcodec import CommandFields
from .dspsim import MAX_REPEAT_CYCLES, ProgramImage, Simulator
from .envgen import Envelope, EnvelopeSpec, _to_float, generate, pack
from .errors import CompileError, ConfigError

_REL_TOL = 1e-6


def _snap(value):
    """Round to the nearest integer when within relative tolerance."""
    nearest = round(value)
    if abs(value - nearest) <= _REL_TOL * max(1.0, abs(value)):
        return float(nearest)
    return value


def _scaled(t, rate, what):
    """``t`` seconds at ``rate`` per second; CompileError unless finite."""
    value = t * rate
    if not math.isfinite(value):
        raise CompileError(f"{what} of {t} s is out of range")
    return value


def _to_cycles(t, dsp_clock, what):
    """Convert seconds to an exact integer cycle count or fail."""
    cycles = _snap(_scaled(t, dsp_clock, what))
    if cycles != int(cycles):
        raise CompileError(
            f"{what} of {t} s is not aligned to the {1.0 / dsp_clock} s DSP cycle"
        )
    return int(cycles)


def _ceil_samples(twidth, sample_rate):
    """Pulse length in DAC samples, rounded up (tolerantly)."""
    exact = _snap(_scaled(twidth, sample_rate, "pulse width"))
    return int(math.ceil(exact))


# ---------------------------------------------------------------------------
# Circuit form


@dataclass(frozen=True)
class GateOp:
    name: str
    qubits: tuple = ()
    start_time: float = None  # seconds; None = as soon as possible
    modify: dict = None  # parameter overrides, applied to every pulse


@dataclass(frozen=True)
class VirtualZ:
    qubit: str
    phase: float  # radians, added to later drive pulses on this qubit


@dataclass(frozen=True)
class Circuit:
    ops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))


# The keys of a gate entry are GateOp's fields, "gate" naming its name;
# those of a virtual_z rotation are VirtualZ's.
_GATE_KEYS = frozenset("gate" if f == "name" else f for f in _field_names(GateOp))
_VIRTUAL_Z_KEYS = frozenset(_field_names(VirtualZ))


def load_circuit(path_or_text) -> Circuit:
    """Parse the JSON circuit form: ``ops`` and an optional ``version``.

    Each entry of ``ops`` is either a gate application::

        {"gate": "Y180", "qubits": ["Q6"]}

    with optional "start_time" (seconds) and "modify" (overrides for
    amp, fcarrier, pcarrier, twidth, env_params), or a frame rotation::

        {"virtual_z": {"qubit": "Q6", "phase": "pi/2"}}
    """
    data = _load_config(path_or_text, Circuit)
    raw_ops = data.get("ops")
    if not isinstance(raw_ops, list):
        raise ConfigError("expected a list", path="ops")
    ops = []
    for k, entry in enumerate(raw_ops):
        where = f"ops[{k}]"
        if not isinstance(entry, dict):
            raise ConfigError("expected an object", path=where)
        if "virtual_z" in entry:
            if set(entry) != {"virtual_z"}:
                raise ConfigError("virtual_z takes no other fields", path=where)
            vz = entry["virtual_z"]
            if not isinstance(vz, dict) or set(vz) != _VIRTUAL_Z_KEYS:
                raise ConfigError("virtual_z needs exactly qubit and phase", path=where)
            ops.append(
                VirtualZ(qubit=str(vz["qubit"]), phase=parse_phase(vz["phase"], where))
            )
            continue
        if "gate" not in entry:
            raise ConfigError("expected a gate or virtual_z entry", path=where)
        unknown = set(entry) - _GATE_KEYS
        if unknown:
            raise ConfigError(f"unknown fields {sorted(unknown)}", path=where)
        qubits = entry.get("qubits", [])
        if not isinstance(qubits, list):
            raise ConfigError("qubits must be a list", path=where)
        start_time = entry.get("start_time")
        if start_time is not None and (
            isinstance(start_time, bool) or not isinstance(start_time, (int, float))
        ):
            raise ConfigError("start_time must be a number", path=where)
        if start_time is not None and not math.isfinite(_to_float(start_time)):
            raise ConfigError("start_time must be finite", path=where)
        modify = entry.get("modify")
        if modify is not None and not isinstance(modify, dict):
            raise ConfigError("modify must be an object", path=where)
        ops.append(
            GateOp(
                name=str(entry["gate"]),
                qubits=tuple(str(q) for q in qubits),
                start_time=None if start_time is None else float(start_time),
                modify=modify,
            )
        )
    return Circuit(ops=tuple(ops))


def resolve_gate_name(op: GateOp, gates: GatePulseSpec) -> str:
    """Exact gate key, else the qubit names joined in front of it."""
    if op.name in gates:
        return op.name
    joined = "".join(op.qubits) + op.name
    if joined in gates:
        return joined
    raise CompileError(f"unknown gate {op.name!r} for qubits {list(op.qubits)}")


# ---------------------------------------------------------------------------
# Step 1: schedule


@dataclass(frozen=True)
class ScheduledGate:
    op: GateOp
    resolved_name: str
    start_cycle: int
    duration_cycles: int


@dataclass(frozen=True)
class ScheduledCircuit:
    items: tuple  # ScheduledGate | VirtualZ, program order
    total_cycles: int


def schedule(circuit: Circuit, gates: GatePulseSpec, hw: HardwareConfig) -> ScheduledCircuit:
    """Assign start cycles, as soon as possible on each qubit's timeline.

    A gate occupies all its qubits for its duration, rounded up to whole
    DSP cycles.  An explicit start_time pins the gate; pinning a gate
    before a qubit's frontier is an error.
    """
    frontier = {}
    items = []
    total = 0
    durations = {}  # (gate, twidth override or None) -> cycles
    for op in circuit.ops:
        if isinstance(op, VirtualZ):
            items.append(op)
            continue
        name = resolve_gate_name(op, gates)
        width = None
        if op.modify and "twidth" in op.modify:
            width = _override_number(op.modify, "twidth", f"gate {name!r}")
        dur = durations.get((name, width))
        if dur is None:
            # Overridden width stretches the footprint too.
            if width is None:
                duration_s = gates.duration(name)
            else:
                duration_s = max((p.t0 for p in gates.pulses(name)), default=0.0) + width
            cycles = _scaled(duration_s, hw.dsp_clock, f"gate {name!r}: duration")
            dur = durations[name, width] = max(1, math.ceil(_snap(cycles)))
        ready = max((frontier.get(q, 0) for q in op.qubits), default=0)
        if op.start_time is None:
            start = ready
        else:
            start = _to_cycles(op.start_time, hw.dsp_clock, "start_time")
            if start < ready:
                raise CompileError(
                    f"gate {name!r} pinned to cycle {start} overlaps earlier work "
                    f"(qubit free at cycle {ready})"
                )
        for q in op.qubits:
            frontier[q] = start + dur
        total = max(total, start + dur)
        items.append(
            ScheduledGate(op=op, resolved_name=name, start_cycle=start, duration_cycles=dur)
        )
    return ScheduledCircuit(items=tuple(items), total_cycles=total)


# ---------------------------------------------------------------------------
# Step 2: TimePulse lowering


@dataclass(frozen=True)
class TimePulse:
    """A fully resolved pulse instance on the absolute timeline."""

    t: float  # seconds
    dest: str  # channel name
    fcarrier: float  # Hz
    pcarrier: float  # radians, virtual-Z already applied
    amp: float
    twidth: float  # seconds
    env: EnvelopeSpec
    source: tuple = None  # (gate name, pulse index) provenance


_OVERRIDE_KEYS = {"amp", "fcarrier", "pcarrier", "twidth", "env_params", "env"}


def _override_number(modify, key, where):
    value = modify[key]
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise CompileError(f"{where}: {key} override must be a number, got {value!r}") from None


def _apply_modify(pulse, modify, chip, where):
    if not modify:
        return pulse
    unknown = set(modify) - _OVERRIDE_KEYS
    if unknown:
        raise CompileError(f"{where}: unknown override fields {sorted(unknown)}")
    changes = {}
    if "amp" in modify:
        amp = _override_number(modify, "amp", where)
        if not 0 <= amp <= 1:
            raise CompileError(f"{where}: amp override {amp} outside [0, 1]")
        changes["amp"] = amp
    if "fcarrier" in modify:
        changes["fcarrier"] = chip.resolve_carrier(modify["fcarrier"], where)
    if "pcarrier" in modify:
        changes["pcarrier"] = parse_phase(modify["pcarrier"], where)
    if "twidth" in modify:
        width = _override_number(modify, "twidth", where)
        if width <= 0:
            raise CompileError(f"{where}: twidth override must be positive")
        changes["twidth"] = width
    if "env" in modify:
        changes["env"] = parse_envelope(modify["env"], where)
    elif "env_params" in modify:
        if not isinstance(modify["env_params"], dict):
            raise CompileError(f"{where}: env_params override must be an object")
        merged = dict(pulse.env.params)
        merged.update(modify["env_params"])
        changes["env"] = EnvelopeSpec(
            kind=pulse.env.kind, params=merged, samples=pulse.env.samples
        )
    return replace(pulse, **changes)


def _drive_qubit(dest: str):
    """Qubit name when ``dest`` is a drive channel, else None.

    Virtual-Z frame rotations track the qubit's rotating frame, which
    only the ``<q>.qdrv`` channel follows.
    """
    qubit, _, kind = dest.partition(".")
    return qubit if kind == "qdrv" else None


def lower_to_tp(
    scheduled: ScheduledCircuit,
    gates: GatePulseSpec,
    chip: ChipConfig,
    hw: HardwareConfig,
) -> tuple:
    """Expand scheduled gates into TimePulses.

    Virtual-Z accumulates per qubit in program order and adds to the
    carrier phase of every later pulse on that qubit's drive channel.
    """
    phase_acc = {}
    period = hw.dsp_period
    out = []
    for item in scheduled.items:
        if isinstance(item, VirtualZ):
            phase_acc[item.qubit] = phase_acc.get(item.qubit, 0.0) + item.phase
            continue
        t_gate = item.start_cycle * period
        for idx, pulse in enumerate(gates.pulses(item.resolved_name)):
            pulse = _apply_modify(
                pulse, item.op.modify, chip, f"gate {item.resolved_name!r}"
            )
            drive_q = _drive_qubit(pulse.dest)
            phase = pulse.pcarrier + (phase_acc.get(drive_q, 0.0) if drive_q else 0.0)
            out.append(
                TimePulse(
                    t=t_gate + pulse.t0,
                    dest=pulse.dest,
                    fcarrier=pulse.fcarrier,
                    pcarrier=phase,
                    amp=pulse.amp,
                    twidth=pulse.twidth,
                    env=pulse.env,
                    source=(item.resolved_name, idx),
                )
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# Step 3: command/envelope lowering


@functools.lru_cache(maxsize=64)
def _packed_words(shape, n_samples, amp, sample_rate):
    """Quantized amp-scaled words of the envelope ``shape`` (an
    ``EnvelopeSpec.dedup_key()``) over ``n_samples`` DAC samples."""
    kind, params, samples = shape
    spec = EnvelopeSpec(kind=kind, params=dict(params), samples=samples)
    envelope = generate(spec, n_samples / sample_rate, 1.0 / sample_rate)
    return pack(Envelope(envelope.samples * amp, envelope.dt)).words


class _PulseLabel:
    """``pulse at <t> ns on <dest>``, formatted only when a message
    needs it."""

    __slots__ = ("tp", "suffix")

    def __init__(self, tp, suffix=""):
        self.tp = tp
        self.suffix = suffix

    def __str__(self):
        return f"pulse at {self.tp.t * 1e9:.3f} ns on {self.tp.dest!r}{self.suffix}"


class _EnvelopeMemory:
    """Envelope words per up element; identical words on one element are
    stored once and shared."""

    def __init__(self, depth):
        self.depth = depth
        self.words = {}  # element -> list of stored words
        self.regions = {}  # (element, words) -> start

    def store(self, element, words):
        """Start of ``words`` on ``element``, shared or newly stored;
        None when the element lacks room for them."""
        start = self.regions.get((element, words))
        if start is None:
            start = len(self.words.get(element, ()))
            if start + len(words) > self.depth:
                return None
            self.words.setdefault(element, []).extend(words)
            self.regions[element, words] = start
        return start


class _DynamicAllocator:
    """Greedy time-ordered allocation with sharing and spill.

    When an element's buffer is full the pulse spills to another up
    element that is free over the window, since the command's
    destination field, not its element, selects the DAC pair.
    """

    name = "optm"

    def __init__(self, hw):
        self.hw = hw
        self.memory = _EnvelopeMemory(hw.envelope_buffer_depth)
        # element -> sorted list of (n0, n1).  No two reserved windows
        # overlap, so sorted by start they are sorted by end as well.
        self.busy = {}

    def _time_free(self, element, n0, n1):
        """No reserved window (lo, hi) has hi > n0 and lo < n1."""
        busy = self.busy.get(element, ())
        k = bisect.bisect_right(busy, n0, key=lambda window: window[1])
        return k == len(busy) or busy[k][0] >= n1

    def _require_free(self, element, n0, n1, what):
        if not self._time_free(element, n0, n1):
            raise CompileError(
                f"{what}: element {element} is busy during samples [{n0}, {n1})"
            )

    def place_up(self, element, words, n0, n1, label, source):
        self._require_free(element, n0, n1, label)
        cand, start = element, self.memory.store(element, words)
        if start is None:
            for cand in range(self.hw.n_processing_elements_up):
                if cand != element and self._time_free(cand, n0, n1):
                    start = self.memory.store(cand, words)
                    if start is not None:
                        break
            else:
                raise CompileError(f"{label}: envelope memory exhausted on every up element")
        bisect.insort(self.busy.setdefault(cand, []), (n0, n1))
        return cand, start

    def place_down(self, element, n0, n1, label):
        self._require_free(element, n0, n1, label)
        bisect.insort(self.busy.setdefault(element, []), (n0, n1))


class _StaticAllocator:
    """Whole-gate-set layout fixed before any circuit is seen.

    Every gate in the set is laid out, sorted by name, when the allocator
    is built (once per ``lower_to_nv`` call), so every compilation against
    one gate set uses the same addresses and skips conflict validation.
    Overrides that would change a stored envelope are rejected.
    """

    name = "runc"

    def __init__(self, hw, gates, chmap_lookup):
        rate = hw.dac_sample_rate
        self.memory = _EnvelopeMemory(hw.envelope_buffer_depth)
        self.by_source = {}  # (gate, pulse idx) -> (element, start, words)
        for name in sorted(gates.gates):
            for idx, pulse in enumerate(gates.pulses(name)):
                ch = chmap_lookup(pulse.dest, f"gate {name!r}")
                if ch.direction != "up":
                    continue
                # a pulse longer than the whole buffer is never generated
                n = _ceil_samples(pulse.twidth, rate)
                start = None
                if n <= hw.envelope_buffer_depth:
                    words = _packed_words(pulse.env.dedup_key(), n, pulse.amp, rate)
                    start = self.memory.store(ch.element, words)
                if start is None:
                    raise CompileError(
                        f"gate {name!r}: static envelope layout exceeds "
                        f"buffer depth on element {ch.element}"
                    )
                self.by_source[(name, idx)] = (ch.element, start, words)

    def place_up(self, element, words, n0, n1, label, source):
        if source not in self.by_source:
            raise CompileError(
                f"{label}: pulse has no static allocation (not part of the gate set)"
            )
        alloc_element, start, alloc_words = self.by_source[source]
        if alloc_element != element:
            raise CompileError(f"{label}: channel element changed after static allocation")
        if words != alloc_words:
            raise CompileError(
                f"{label}: override alters the stored envelope; the static "
                f"allocator only permits fcarrier and pcarrier changes"
            )
        return element, start

    def place_down(self, element, n0, n1, label):
        return None


@dataclass(frozen=True)
class CompiledProgram:
    """Device-ready buffers plus the provenance to inspect them."""

    image: ProgramImage
    hw: HardwareConfig
    commands: tuple  # CommandFields, buffer order
    tp: tuple  # TimePulse intermediate form
    allocator: str

    @property
    def repeat_cycles(self):
        return self.image.repeat_cycles

    def dump_tp(self) -> str:
        lines = ["# t(ns)  dest  fcarrier(Hz)  phase(rad)  amp  twidth(ns)  envelope"]
        for p in self.tp:
            env = p.env.kind
            if p.env.params:
                env += "{" + ", ".join(f"{k}={v}" for k, v in sorted(p.env.params.items())) + "}"
            lines.append(
                f"{p.t * 1e9:.3f}  {p.dest}  {p.fcarrier!r}  {p.pcarrier!r}  "
                f"{p.amp!r}  {p.twidth * 1e9:.3f}  {env}"
            )
        return "\n".join(lines) + "\n"

    def dump_commands(self) -> str:
        lines = [
            "# idx  trig_t  element  dest  cond  freq_word  phase_word  start  length"
        ]
        for k, c in enumerate(self.commands):
            lines.append(
                f"{k}  {c.trig_t}  {c.element}  {c.destination}  {c.condition}  "
                f"{c.freq_word}  {c.phase_word}  {c.start}  {c.length}"
            )
        return "\n".join(lines) + "\n"

    # -- binary container ---------------------------------------------------

    MAGIC = b"QFPB"
    VERSION = 1

    def serialize(self) -> bytes:
        meta = {
            "allocator": self.allocator,
            "hw": self.hw.to_json_dict(),
            "repeat_cycles": self.image.repeat_cycles,
        }
        meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        out = bytearray()
        out += self.MAGIC
        out += bytes([self.VERSION, 0, 0, 0])
        out += len(meta_blob).to_bytes(4, "big")
        out += meta_blob
        elements = sorted(self.image.envelopes)
        out += len(elements).to_bytes(2, "big")
        for element in elements:
            words = self.image.envelopes[element]
            out += element.to_bytes(2, "big")
            out += len(words).to_bytes(4, "big")
            out += np.asarray(words, dtype=">u4").tobytes()
        out += len(self.image.commands).to_bytes(4, "big")
        out += cmdcodec.commands_to_bytes(self.image.commands)
        out += zlib.crc32(bytes(out)).to_bytes(4, "big")
        return bytes(out)

    @classmethod
    def deserialize(cls, blob: bytes) -> "CompiledProgram":
        """Parse a container; every field must fill the bytes exactly.

        Raises CompileError for a wrong magic, checksum or version, a
        truncated or overlong body, a malformed meta block, or envelope
        segments out of element order.
        """
        if len(blob) < 16 or blob[:4] != cls.MAGIC:
            raise CompileError("not a compiled program container")
        if zlib.crc32(blob[:-4]) != int.from_bytes(blob[-4:], "big"):
            raise CompileError("compiled program container fails its checksum")
        if blob[4] != cls.VERSION:
            raise CompileError(f"unsupported container version {blob[4]}")
        if any(blob[5:8]):
            raise CompileError("compiled program container has nonzero pad bytes")
        body = memoryview(blob)[:-4]
        pos = 8

        def take(n):
            nonlocal pos
            if pos + n > len(body):
                raise CompileError("compiled program container is truncated")
            pos += n
            return body[pos - n : pos]

        def number(n):
            return int.from_bytes(take(n), "big")

        meta_blob = take(number(4))
        try:
            meta = json.loads(bytes(meta_blob).decode())
            hw_json = meta["hw"]
            if not isinstance(hw_json, dict):
                raise TypeError("hw is not an object")
            hw = load_hardware_config(hw_json)
            repeat_cycles = meta["repeat_cycles"]
            if type(repeat_cycles) is not int or repeat_cycles < 1:
                raise TypeError("repeat_cycles is not a positive integer")
            if repeat_cycles > MAX_REPEAT_CYCLES:
                raise ValueError(f"repeat_cycles exceeds {MAX_REPEAT_CYCLES}")
            allocator = meta.get("allocator", "unknown")
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise CompileError(f"compiled program container has a malformed meta block: {exc}") from None
        envelopes = {}
        element = -1
        for _ in range(number(2)):
            previous, element = element, number(2)
            if element <= previous:
                raise CompileError("compiled program container has envelope segments out of order")
            envelopes[element] = np.frombuffer(take(4 * number(4)), dtype=">u4")
        raw = take(cmdcodec.COMMAND_BYTES * number(4))
        if pos != len(body):
            raise CompileError(
                f"compiled program container has {len(body) - pos} trailing bytes"
            )
        commands = tuple(cmdcodec.commands_from_bytes(raw))
        image = ProgramImage(commands=commands, envelopes=envelopes, repeat_cycles=repeat_cycles)
        return cls(
            image=image,
            hw=hw,
            commands=tuple(cmdcodec.decode(c) for c in commands),
            tp=(),
            allocator=allocator,
        )


# element, trig_t, then condition, freq_word, destination, start, length,
# phase_word: the fields of a CommandFields, most significant first
_WORD_ORDER = operator.itemgetter(5, 0, 7, 3, 6, 1, 2, 4)


def lower_to_nv(
    tp_list,
    hw: HardwareConfig,
    gates: GatePulseSpec,
    allocator: str = "optm",
    repeat_time: float = None,
):
    """Quantize TimePulses into commands and envelope buffers.

    Commands come out sorted by element, then by ``trig_t`` (the
    least significant field of the 128-bit word), then by the other
    fields from the word's most significant down.
    """

    def chmap_lookup(dest, what):
        try:
            return hw.channel(dest)
        except ConfigError as exc:
            raise CompileError(f"{what}: {exc}") from None

    if allocator == "optm":
        alloc = _DynamicAllocator(hw)
    elif allocator == "runc":
        alloc = _StaticAllocator(hw, gates, chmap_lookup)
    else:
        raise CompileError(f"unknown allocator {allocator!r}")

    spc = hw.samples_per_cycle
    rate = hw.dac_sample_rate
    # (dest, fcarrier, twidth, amp, id(env)) -> (channel, length,
    # freq_word, envelope words or None); every pulse stays referenced
    # by tp_list, so no id is reused during the call.
    shapes = {}
    commands = []
    ordered = sorted(
        range(len(tp_list)),
        key=lambda i: (tp_list[i].t, tp_list[i].dest, i),
    )
    for i in ordered:
        tp = tp_list[i]
        label = _PulseLabel(tp)
        key = (tp.dest, tp.fcarrier, tp.twidth, tp.amp, id(tp.env))
        shape = shapes.get(key)
        ch = shape[0] if shape else chmap_lookup(tp.dest, label)
        trig_t = _to_cycles(tp.t, hw.dsp_clock, _PulseLabel(tp, ": start time"))
        if trig_t >= 1 << cmdcodec.TRIG_T_BITS:
            raise CompileError(f"{label}: trigger cycle {trig_t} exceeds 24 bits")
        if shape is None:
            length = _ceil_samples(tp.twidth, rate)
            if length >= 1 << cmdcodec.LENGTH_BITS:
                raise CompileError(f"{label}: {length} samples exceed the 12-bit length field")
            freq_word = cmdcodec.freq_to_word(tp.fcarrier, rate)
            phase_word = cmdcodec.phase_to_word(tp.pcarrier)
            words = None
            if ch.direction == "up":
                words = _packed_words(tp.env.dedup_key(), length, tp.amp, rate)
            shapes[key] = (ch, length, freq_word, words)
        else:
            _, length, freq_word, words = shape
            phase_word = cmdcodec.phase_to_word(tp.pcarrier)
        n0 = trig_t * spc
        n1 = n0 + length

        if ch.direction == "up":
            element, start = alloc.place_up(ch.element, words, n0, n1, label, tp.source)
        else:
            alloc.place_down(ch.element, n0, n1, label)
            element, start = ch.element, 0
        commands.append(
            CommandFields(
                trig_t=trig_t,
                start=start,
                length=length,
                freq_word=freq_word,
                phase_word=phase_word,
                element=element,
                destination=ch.destination,
                condition=0,
            )
        )

    # Within an element, trig_t first, so each element plays in time
    # order, then the other fields by their significance in the word.
    commands.sort(key=_WORD_ORDER)
    commands = tuple(commands)
    if len(commands) > hw.command_buffer_depth:
        raise CompileError(
            f"{len(commands)} commands exceed buffer depth {hw.command_buffer_depth}"
        )

    min_cycles = max([1, *(c.trig_t + -(-c.length // spc) for c in commands)])
    if repeat_time is None:
        repeat_cycles = min_cycles
    else:
        repeat_cycles = _to_cycles(repeat_time, hw.dsp_clock, "repeat_time")
        if repeat_cycles < min_cycles:
            raise CompileError(
                f"repeat_time {repeat_time} s is shorter than the program "
                f"({min_cycles} cycles)"
            )
        if repeat_cycles > MAX_REPEAT_CYCLES:
            raise CompileError(
                f"repeat_time {repeat_time} s exceeds {MAX_REPEAT_CYCLES} cycles"
            )

    envelopes = {e: tuple(words) for e, words in sorted(alloc.memory.words.items())}
    return commands, envelopes, repeat_cycles


def compile_circuit(
    circuit: Circuit,
    chip: ChipConfig,
    gates: GatePulseSpec,
    hw: HardwareConfig,
    allocator: str = "optm",
    repeat_time: float = None,
) -> CompiledProgram:
    """Full pipeline: schedule, TimePulse lowering, command lowering."""
    scheduled = schedule(circuit, gates, hw)
    tp = lower_to_tp(scheduled, gates, chip, hw)
    commands, envelopes, repeat_cycles = lower_to_nv(
        tp, hw, gates, allocator=allocator, repeat_time=repeat_time
    )
    image = ProgramImage(
        commands=tuple(cmdcodec.encode(c) for c in commands),
        envelopes=envelopes,
        repeat_cycles=repeat_cycles,
    )
    return CompiledProgram(
        image=image,
        hw=hw,
        commands=commands,
        tp=tp,
        allocator=allocator,
    )


def simulate_program(program: CompiledProgram, wiring=None, shots=1, acq=None, seed=None):
    """Run a compiled program on the local signal-path simulator."""
    return Simulator(program.hw, wiring=wiring).run(program.image, shots=shots, acq=acq, seed=seed)


def program_waveform(program: CompiledProgram) -> dict:
    """Float reference synthesis of a compiled program's DAC output.

    Decodes the command and envelope buffers independently of the
    fixed-point path: each up command contributes
    amp_envelope(k) * exp(2j*pi*(freq_word*n/2**24 + phase_word/2**14))
    in float arithmetic, normalized to full scale 1.0.  Useful as an
    oracle for the integer datapath.
    """
    hw = program.hw
    spc = hw.samples_per_cycle
    n_samples = program.image.repeat_cycles * spc
    out = {p: np.zeros(n_samples, dtype=complex) for p in range(hw.n_dac_pairs)}
    full = 32767.0
    for cmd in program.commands:
        if hw.element_direction(cmd.element) != "up" or cmd.length == 0:
            continue
        words = program.image.envelopes.get(cmd.element, ())
        seg = np.zeros(cmd.length, dtype=complex)
        stored = words[cmd.start : cmd.start + cmd.length]
        arr = np.array(stored, dtype=np.int64)
        if arr.size:
            i = arr >> 16
            q = arr & 0xFFFF
            i = np.where(i >= 0x8000, i - 0x10000, i)
            q = np.where(q >= 0x8000, q - 0x10000, q)
            seg[: arr.size] = (i + 1j * q) / full
        n = np.arange(cmd.trig_t * spc, cmd.trig_t * spc + cmd.length)
        phase = 2 * np.pi * (
            (cmd.phase_word / (1 << cmdcodec.PHASE_WORD_BITS))
            + cmd.freq_word * n / (1 << cmdcodec.FREQ_WORD_BITS)
        )
        out[cmd.destination][n[0] : n[0] + cmd.length] += seg * np.exp(1j * phase)
    return out
