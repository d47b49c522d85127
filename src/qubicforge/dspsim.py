"""Sample-level simulator for the gateware signal path.

The model reproduces the fixed-point datapath of the FPGA design one DAC
sample at a time:

* per-element command sequencers triggered on DSP clock cycles,
* carrier synthesis from a 24-bit phase accumulator through a 16-stage
  CORDIC rotator (16-bit quadrature output at +/-32767 full scale),
* envelope memory reads, complex mixing, and a saturating switch-and-sum
  network onto the DAC pairs,
* digital local oscillator demodulation on the down path with wide
  integer accumulation,
* state classification and conditional command gating,
* accumulation and raw-acquisition capture buffers.

Every arithmetic step is integer and fully deterministic, so two runs of
the same memory image produce bit-identical buffers on any host.  What
depends only on the image (carriers and up-conversion products) is
synthesized before a run's first shot, in blocks of bounded size, and a
simulator keeps what it synthesized, keyed on window content, so each
distinct window is synthesized once; each shot sums the stored products
onto the DAC pairs and runs gating, demodulation and capture.  When no
shot can differ from the first (a deterministic wiring and no
conditional command), the first shot runs and later shots replay it.
"""

from __future__ import annotations

import copy
import math
import threading
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import cmdcodec
from .envgen import iq_lanes, u32_array
from .errors import SimulationError

FULL_SCALE = 32767

# ---------------------------------------------------------------------------
# CORDIC rotator

CORDIC_ITERATIONS = 16
_ANGLE_BITS = 30  # internal angle resolution, units of 2**-30 turns
_GUARD_BITS = 10  # fractional guard bits on the x/y datapath

# arctan(2**-i) in units of 2**-30 turns
_ATAN_TABLE = tuple(
    round(math.atan(2.0 ** -i) / (2 * math.pi) * (1 << _ANGLE_BITS))
    for i in range(CORDIC_ITERATIONS)
)

_CORDIC_GAIN = math.prod(math.sqrt(1 + 4.0 ** -i) for i in range(CORDIC_ITERATIONS))
_X_INIT = round(FULL_SCALE / _CORDIC_GAIN * (1 << _GUARD_BITS))

_TURN_BITS = cmdcodec.FREQ_WORD_BITS  # 24-bit turn words
_QUARTER_SHIFT = _TURN_BITS - 2

# Samples synthesized per CORDIC call: bounds the temporaries of a run's
# synthesis, whatever the program's size.
_SYNTH_BLOCK = 1 << 14

# Samples a simulator's synthesis memo holds at most (16 blocks, 2 MB of
# I/Q); the memo is cleared when an insert would pass this.
_MEMO_SAMPLES = 16 * _SYNTH_BLOCK


def cordic_cos_sin(turn_words) -> tuple:
    """Cosine and sine of phase words via integer CORDIC rotation.

    ``turn_words`` holds 24-bit angles in units of 2**-24 turns.  The
    top two bits select the quadrant; the remainder is rotated from the
    positive x axis by 16 shift-add iterations with a gain-compensated
    start vector.  Returns int64 arrays scaled to +/-32767.

    The datapath is int32: |x|, |y| stay below 2**26 and |z| below 2**29.
    Each iteration turns by ``sign`` = +1 where z >= 0 and -1 where z < 0.
    """
    words = np.asarray(turn_words, dtype=np.int64)
    if words.ndim == 0:
        words = words[np.newaxis]
    if np.any((words < 0) | (words >= (1 << _TURN_BITS))):
        raise SimulationError("phase word outside 24 bits")

    quadrant = words >> _QUARTER_SHIFT
    residual = words & ((1 << _QUARTER_SHIFT) - 1)
    # Promote to 2**-30 turn units.
    z = (residual << (_ANGLE_BITS - _TURN_BITS)).astype(np.int32)

    x = np.full(words.shape, _X_INIT, dtype=np.int32)
    y = np.zeros(words.shape, dtype=np.int32)
    for i, atan in enumerate(_ATAN_TABLE):
        sign = z >> 31
        sign |= 1
        xs = x >> i
        ys = y >> i
        ys *= sign
        xs *= sign
        x -= ys
        y += xs
        sign *= atan
        z -= sign

    half = 1 << (_GUARD_BITS - 1)
    c = ((x + half) >> _GUARD_BITS).astype(np.int64)
    s = ((y + half) >> _GUARD_BITS).astype(np.int64)
    np.clip(c, -FULL_SCALE, FULL_SCALE, out=c)
    np.clip(s, -FULL_SCALE, FULL_SCALE, out=s)

    cos = np.choose(quadrant, [c, -s, -c, s])
    sin = np.choose(quadrant, [s, c, -s, -c])
    return cos, sin


def _padded(rows, n, dtype=np.int64):
    """The first ``n`` of ``rows`` in a new array, zero-filled to ``n``."""
    rows = np.asarray(rows[:n], dtype=dtype)
    out = np.zeros((n,) + rows.shape[1:], dtype=dtype)
    out[: len(rows)] = rows
    return out


def _per_sample(values, lengths):
    """Repeat each window's value once per sample of the window."""
    return np.repeat(np.asarray(values, dtype=np.int64), lengths)


def _div_full_scale(v):
    """Divide by 32767 with round-half-away-from-zero, elementwise."""
    v = np.asarray(v, dtype=np.int64)
    mag = np.abs(v)
    q = (2 * mag + FULL_SCALE) // (2 * FULL_SCALE)
    return np.where(v < 0, -q, q)


# ---------------------------------------------------------------------------
# Program image and run configuration

# The longest repeat period a legal command can reach: the end of a
# window of 2**12 - 1 samples triggered on cycle 2**24 - 1, at one sample
# per cycle.  A longer period would only add silence after every window.
MAX_REPEAT_CYCLES = (1 << cmdcodec.TRIG_T_BITS) - 1 + (1 << cmdcodec.LENGTH_BITS) - 1


@dataclass(frozen=True)
class ProgramImage:
    """Raw memory content consumed by the simulator.

    ``commands`` are 128-bit integers in buffer order; ``envelopes`` maps
    an element index to its 32-bit envelope memory words, held as a tuple
    of ints.  A command outside [0, 2**128) raises SimulationError naming
    the lowest such position, as does an envelope word outside [0, 2**32)
    or a ``repeat_cycles`` outside [1, MAX_REPEAT_CYCLES].
    """

    commands: tuple
    envelopes: dict
    repeat_cycles: int

    def __post_init__(self):
        object.__setattr__(self, "commands", tuple(int(c) for c in self.commands))
        for pos, word in enumerate(self.commands):
            if word >> cmdcodec.COMMAND_BITS:  # negative, or wider than a command
                raise SimulationError(f"command {pos}: command word does not fit 128 bits")
        object.__setattr__(
            self,
            "envelopes",
            {int(e): _envelope_words(e, ws) for e, ws in self.envelopes.items()},
        )
        _check_period(self.repeat_cycles)


def _check_period(repeat_cycles):
    if repeat_cycles < 1:
        raise SimulationError("repeat_cycles must be at least 1")
    if repeat_cycles > MAX_REPEAT_CYCLES:
        raise SimulationError(f"repeat_cycles {repeat_cycles} exceeds {MAX_REPEAT_CYCLES}")


def _envelope_words(element, words) -> tuple:
    """``words`` as a tuple of ints, each checked to fit 32 bits."""
    try:
        return tuple(u32_array(words).tolist())
    except ValueError as exc:
        raise SimulationError(f"element {element}: envelope {exc}") from None


@dataclass(frozen=True)
class PreparedProgram:
    """A validated program, from ``Simulator.prepare``.

    The shot's windows, not yet synthesized, are columns in execution
    order, one entry per window: ``cmd``, a ``cmdcodec.CommandFields``
    of the windows' decoded fields, and ``up`` (bool), ``n0`` (the first
    absolute sample), ``source``, the element whose flag gates a
    conditional window or -1, and ``fault``, a tuple holding the
    envelope-fault detail of an up window that reads beyond depth
    (logged in every shot it runs) or None.  ``envelopes`` holds a copy
    of the envelope memory of each up element the windows address, as
    far as they read and zero past depth; ``windows`` maps each down element with commands, in the
    order of its first command, to the accumulator entries one shot
    appends.  ``window_end`` is the sample where the last window ends: a
    shot holds DAC and DLO samples up to it, and everything after it up
    to ``shot_samples`` reads as zeros.
    """

    shot_samples: int
    windows: dict
    envelopes: dict
    window_end: int
    cmd: cmdcodec.CommandFields
    up: np.ndarray
    n0: np.ndarray
    source: np.ndarray
    fault: tuple


def acc_windows(commands, n_up) -> Counter:
    """Accumulator entries one shot appends, per down element with commands.

    Each command on a down element (index ``n_up`` or above) is one
    demodulation window.
    """
    return Counter(cmd.element for cmd in commands if cmd.element >= n_up)


ACQ_TAPS = ("adc", "dac", "dlo")  # capture taps; a tap's index is its CONTROL code


@dataclass(frozen=True)
class AcqConfig:
    """Raw capture settings: one tap, one unit, a sample count."""

    tap: str = "adc"  # one of ACQ_TAPS
    unit: int = 0  # DAC/ADC pair for adc/dac taps, element for dlo
    length: int = 0

    def __post_init__(self):
        if self.tap not in ACQ_TAPS:
            raise SimulationError(f"unknown acquisition tap {self.tap!r}")
        if self.length < 0:
            raise SimulationError("acquisition length must be >= 0")


@dataclass(frozen=True)
class StateClassifier:
    """Thresholds the rotated in-phase accumulator component.

    The flag is set when real((I + jQ) * exp(j*angle)) exceeds the
    threshold, in raw accumulator units.
    """

    angle: float = 0.0
    threshold: float = 0.0

    def classify(self, acc_i, acc_q) -> int:
        rotated = acc_i * math.cos(self.angle) - acc_q * math.sin(self.angle)
        return 1 if rotated > self.threshold else 0


@dataclass
class FaultEntry:
    shot: int
    element: int
    cycle: int
    kind: str
    detail: str


@dataclass
class SimResult:
    shots_requested: int
    shots_completed: int
    acc: dict  # element -> int64 array (n, 2), exact I/Q sums in i32 range
    acq: np.ndarray  # (length, 2) int32 within 16 bits, captured on the final shot
    acq_config: AcqConfig
    dac: dict  # pair -> (n_samples, 2) int32, final shot, saturated
    saturation_count: int
    fault_log: list
    flags: dict  # element -> final flag value on the last shot

    def acc_complex(self, element, normalize=True):
        """Accumulator entries as complex numbers, one per window.

        With ``normalize`` the raw sums are scaled by full scale so a
        unit-amplitude tone demodulated at its own frequency integrates
        to roughly the window length in samples.
        """
        entries = self.acc[element]
        vals = entries[:, 0].astype(np.float64) + 1j * entries[:, 1].astype(np.float64)
        if normalize:
            vals = vals / FULL_SCALE
        return vals

    def acq_complex(self):
        return self.acq[:, 0].astype(np.float64) + 1j * self.acq[:, 1].astype(np.float64)


@dataclass
class RunBuffers:
    """The buffers and counts that ``Simulator.shots`` folds shots into.

    ``acc`` maps each down element to its accumulator entries, (I, Q)
    pairs; ``acq`` takes each shot's capture in its first rows, so it
    holds the last completed shot's.  ``faults`` counts fault entries
    and ``saturation_count`` DAC samples past full scale.
    """

    acc: dict
    acq: np.ndarray
    shots_completed: int = 0
    faults: int = 0
    saturation_count: int = 0


# ---------------------------------------------------------------------------
# Wiring models
#
# A wiring whose ``deterministic`` attribute is true declares that what it
# reads depends only on the DAC samples, never on the shot or its random
# stream, and its ``read`` is given None for the stream.  Any other wiring
# is read afresh in every shot, with the shot's random stream.


class OpenLoop:
    """ADC inputs read constant zero."""

    deterministic = True

    def read(self, shot, pair, lo, hi, dac_reader, rng):
        return np.zeros((hi - lo, 2), dtype=np.int64)


class Loopback:
    """Each ADC pair observes its own DAC pair after a fixed delay."""

    deterministic = True

    def __init__(self, delay_samples=0):
        if delay_samples < 0:
            raise SimulationError("loopback delay must be >= 0")
        self.delay_samples = int(delay_samples)

    def read(self, shot, pair, lo, hi, dac_reader, rng):
        d = self.delay_samples
        out = np.zeros((hi - lo, 2), dtype=np.int64)
        src_lo = max(lo - d, 0)
        src_hi = hi - d
        if src_hi > src_lo:
            out[src_lo + d - lo :] = dac_reader(pair, src_lo, src_hi)
        return out


class External:
    """ADC inputs supplied by a user function.

    ``fn(shot, dac_streams, rng)`` must return a mapping from ADC pair
    index to an (n_samples, 2) integer array for the whole shot.  It is
    invoked once per shot at the first ADC read; DAC content written by
    commands that trigger later in the same shot is not visible to it.
    Each shot has its own ``rng``, so the streams are kept for that
    ``rng`` object: a later run's shot of the same index calls ``fn``
    again.
    """

    def __init__(self, fn):
        self.fn = fn
        self._cache_rng = None
        self._cache = None

    def read(self, shot, pair, lo, hi, dac_reader, rng):
        if self._cache_rng is not rng:
            self._cache = self.fn(shot, dac_reader, rng)
            self._cache_rng = rng
        streams = self._cache
        if pair not in streams:
            return np.zeros((hi - lo, 2), dtype=np.int64)
        arr = np.asarray(streams[pair], dtype=np.int64)
        out = np.zeros((hi - lo, 2), dtype=np.int64)
        n = min(hi, arr.shape[0])
        if n > lo:
            out[: n - lo] = arr[lo:n]
        return out


def check_run(hw, shots, acq):
    """Reject a negative shot count, or a capture longer than the
    acquisition buffer or of a unit ``hw`` lacks, as a run on ``hw``
    would."""
    if shots < 0:
        raise SimulationError(f"shots must be >= 0, got {shots}")
    if acq is None:
        return
    if acq.length > hw.acq_buffer_depth:
        raise SimulationError(
            f"acquisition length {acq.length} exceeds depth {hw.acq_buffer_depth}"
        )
    if acq.tap == "dlo":
        if not hw.n_processing_elements_up <= acq.unit < hw.n_elements:
            raise SimulationError(f"no down element {acq.unit}")
    elif not 0 <= acq.unit < hw.n_dac_pairs:
        raise SimulationError(f"no {acq.tap.upper()} pair {acq.unit}")


def check_command_count(hw, n_commands):
    """Reject more commands than the command buffer of ``hw`` holds."""
    if n_commands > hw.command_buffer_depth:
        raise SimulationError(
            f"{n_commands} commands exceed buffer depth {hw.command_buffer_depth}"
        )


# ---------------------------------------------------------------------------
# Simulator


class Simulator:
    """Executes a ProgramImage against a hardware description.

    ``condition_map`` routes state flags: it maps a gated element to the
    down element whose classifier feeds its condition bit.  By default
    up element i is gated by down element ``n_up + i`` where one exists.
    ``classifier_map`` assigns a StateClassifier per down element.
    """

    def __init__(self, hw, wiring=None, condition_map=None, classifier_map=None):
        self.hw = hw
        self.wiring = wiring if wiring is not None else OpenLoop()
        self.classifier_map = dict(classifier_map or {})
        n_up = hw.n_processing_elements_up
        if condition_map is None:
            condition_map = {
                i: n_up + i for i in range(min(n_up, hw.n_processing_elements_down))
            }
        self.condition_map = dict(condition_map)
        # synthesis key -> read-only samples; see _synthesize
        self._memo = {}
        self._memo_samples = 0
        self._memo_lock = threading.Lock()

    # -- program loading ----------------------------------------------------

    def prepare(self, commands, repeat_cycles, envelopes) -> PreparedProgram:
        """Decode and validate a program once for every shot that runs it.

        ``commands`` are wire words, the (n, 2) array of 64-bit halves
        that COMMAND memory holds, as ``cmdcodec.decode_columns`` reads
        them; they are decoded into columns once and every check is a
        mask over all of them.  A command's checks depend only on the
        commands before it, so a SimulationError names the lowest faulty
        command, with the first check it fails in this order: its
        reserved bits are zero, its element and destination exist, its
        window ends within the period, its element's trig_t does not
        decrease and the element is not busy, and a conditional command's
        element has a flag source.  A period outside [1,
        MAX_REPEAT_CYCLES] or more commands than the buffer holds is
        rejected first.  ``envelopes`` maps an up element to its 32-bit
        words; the result copies those its commands read.
        """
        hw = self.hw
        _check_period(repeat_cycles)
        check_command_count(hw, len(commands))
        spc, depth = hw.samples_per_cycle, hw.envelope_buffer_depth
        shot_samples = repeat_cycles * spc
        cmd, reserved = cmdcodec.decode_columns(commands)
        n = len(reserved)
        n0 = cmd.trig_t * spc
        end = n0 + cmd.length
        # Per element, in position order: the trig_t of the command before
        # and the end of the busy span of all commands before.
        by_element = np.argsort(cmd.element, kind="stable")
        grouped = cmd.element[by_element]
        first = np.ones(n, dtype=bool)  # the first command of its element
        np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
        # elements ascend, so offsetting each by a multiple of a span no
        # end reaches makes one running maximum restart at every element
        offset = grouped * (int(end.max(initial=0)) + 1)
        busy = np.maximum.accumulate(offset + end[by_element]) - offset
        prev_trig = np.empty_like(n0)
        busy_until = np.empty_like(n0)
        prev_trig[by_element[1:]] = cmd.trig_t[by_element[:-1]]
        busy_until[by_element[1:]] = busy[:-1]
        heads = by_element[first]
        prev_trig[heads] = busy_until[heads] = -1
        source = np.full(n, -1)
        conditional = cmd.condition == 1
        if conditional.any():
            source_of = np.full(1 << cmdcodec.ELEMENT_BITS, -1)
            for gated, flag_source in self.condition_map.items():
                if flag_source is not None and 0 <= gated < len(source_of):
                    source_of[gated] = flag_source
            source[conditional] = source_of[cmd.element[conditional]]
        checks = (
            (reserved, "command {pos}: nonzero reserved bits in a command word"),
            (cmd.element >= hw.n_elements, "command {pos}: element {element} out of range"),
            (
                cmd.destination >= hw.n_dac_pairs,
                "command {pos}: destination {destination} out of range "
                f"(n_dac_pairs={hw.n_dac_pairs})",
            ),
            (
                end > shot_samples,
                "command {pos}: window ends at sample {end}, "
                f"beyond the {shot_samples}-sample repeat period",
            ),
            (cmd.trig_t < prev_trig, "element {element}: trig_t decreases at command {pos}"),
            (n0 < busy_until, "element {element}: command {pos} triggers while busy"),
            (
                conditional & (source < 0),
                "element {element} has a conditional command but no flag source",
            ),
        )
        failed = np.logical_or.reduce([mask for mask, _ in checks])
        if failed.any():
            pos = int(np.argmax(failed))
            message = next(message for mask, message in checks if mask[pos])
            raise SimulationError(
                message.format(
                    pos=pos,
                    element=int(cmd.element[pos]),
                    destination=int(cmd.destination[pos]),
                    end=int(end[pos]),
                )
            )
        n_up = hw.n_processing_elements_up
        down = cmd.element >= n_up
        # Down windows complete first on a cycle, so a conditional command
        # triggering on that cycle sees the flag.  A zero-length up window
        # emits nothing.  The sort is stable: positions break ties.
        plays = np.flatnonzero(down | (cmd.length > 0))
        done = np.where(down, cmd.trig_t - (-cmd.length // spc), cmd.trig_t)
        plays = plays[np.lexsort((cmd.element[plays], ~down[plays], done[plays]))]
        up = ~down[plays]
        played = cmdcodec.CommandFields._make(c[plays] for c in cmd)
        start = played.start
        read_end = start + played.length
        fault = [None] * len(plays)
        for i in np.flatnonzero(up & (read_end > depth)).tolist():
            fault[i] = f"read [{start[i]}, {read_end[i]}) beyond depth {depth}; zeros emitted"
        reach = np.zeros(1 << cmdcodec.ELEMENT_BITS, dtype=np.int64)  # end of furthest read
        np.maximum.at(reach, played.element[up], read_end[up])
        reached = np.flatnonzero(reach)
        return PreparedProgram(
            shot_samples=shot_samples,
            # Counter keeps the order of each down element's first command
            windows=Counter(cmd.element[down].tolist()),
            envelopes={
                e: _padded(envelopes.get(e, ())[:depth], r)
                for e, r in zip(reached.tolist(), reach[reached].tolist())
            },
            window_end=int(end.max(initial=0)),
            cmd=played,
            up=up,
            n0=n0[plays],
            source=source[plays],
            fault=tuple(fault),
        )

    def _synthesize(self, prepared):
        """The samples of each of ``prepared``'s windows, in its order,
        each distinct window synthesized once.

        A window's samples depend only on its synthesis key: one int,
        ``turn << 36 | freq_word << 12 | length`` with ``turn`` the turn
        word of its first sample, and the envelope bytes an up window
        reads, or None for a down window (never the element or address,
        whose memory a later program may rewrite).  The envelope bytes are
        read once per distinct (element, start, length).  Keys this
        simulator has met come from its memo; this call's distinct misses
        are synthesized with one CORDIC call per block and stored.  A
        window's samples are a (length, 2) int32 array: the unsaturated
        DAC contribution of an up window, or the LO carrier of a down
        window."""
        p, c = prepared, prepared.cmd
        shift = _TURN_BITS - cmdcodec.PHASE_WORD_BITS
        mask = (1 << _TURN_BITS) - 1
        turns = ((c.phase_word << shift) + c.freq_word * p.n0) & mask
        # first turn (24 bits), frequency (24) and length (12)
        carriers = (turns << 36 | c.freq_word << 12 | c.length).tolist()
        # an up window's read, element (8 bits), start (12) and length (12)
        reads = np.where(p.up, c.element << 24 | c.start << 12 | c.length, -1).tolist()
        envelopes = {-1: None}  # read -> the envelope bytes it reads; none for down
        keys = []  # each window's key
        found = {}  # this call's keys -> samples, so a clear loses none
        misses = {}  # key -> its first window, for keys not in the memo
        for i, (carrier, read) in enumerate(zip(carriers, reads)):
            if read not in envelopes:
                start, length = read >> 12 & 0xFFF, read & 0xFFF
                envelopes[read] = p.envelopes[read >> 24][start : start + length].tobytes()
            key = (carrier, envelopes[read])
            keys.append(key)
            if key not in found:
                found[key] = self._memo.get(key)
                if found[key] is None:
                    misses[key] = i
        missed = np.fromiter(misses.values(), dtype=np.int64, count=len(misses))
        first = np.concatenate(([0], np.cumsum(c.length[missed])))
        missed_keys = list(misses)
        lo = 0
        while lo < len(missed):
            # as many whole windows as fit one block, and at least one
            hi = max(int(np.searchsorted(first, first[lo] + _SYNTH_BLOCK, "right")) - 1, lo + 1)
            block = missed[lo:hi]
            block_lengths = c.length[block]
            offsets = first[lo : hi + 1] - first[lo]
            n = np.arange(offsets[-1]) + _per_sample(p.n0[block] - offsets[:-1], block_lengths)
            phase = _per_sample(c.phase_word[block] << shift, block_lengths)
            freq = _per_sample(c.freq_word[block], block_lengths)
            cos, sin = cordic_cos_sin((phase + freq * n) & mask)
            samples = np.stack((cos, sin), axis=1).astype(np.int32)
            up = np.repeat(p.up[block], block_lengths)
            if up.any():
                words = [
                    p.envelopes[e][s : s + k]
                    for u, e, s, k in zip(
                        p.up[block], c.element[block], c.start[block], block_lengths
                    )
                    if u
                ]
                ei, eq = iq_lanes(np.concatenate(words))
                ci, cq = cos[up], sin[up]
                samples[up, 0] = _div_full_scale(ei * ci - eq * cq)
                samples[up, 1] = _div_full_scale(ei * cq + eq * ci)
            for key, a, b in zip(missed_keys[lo:hi], offsets, offsets[1:]):
                found[key] = self._remember(key, samples[a:b])
            lo = hi
        return [found[key] for key in keys]

    def _remember(self, key, samples):
        """Store a read-only copy of ``samples`` under ``key`` and return
        it, clearing the memo first if it would pass _MEMO_SAMPLES."""
        stored = samples.copy()
        stored.flags.writeable = False
        with self._memo_lock:
            if key not in self._memo:
                if self._memo_samples + len(stored) > _MEMO_SAMPLES:
                    self._memo.clear()
                    self._memo_samples = 0
                self._memo[key] = stored
                self._memo_samples += len(stored)
        return stored

    # -- execution ----------------------------------------------------------

    def shots(self, prepared, shots, out, acq=None, seed=None, lock=nullcontext(), stop=None):
        """Run up to ``shots`` shots of ``prepared``, folding each into ``out``.

        Shot ``k`` draws from the random stream ``(seed, k)``; a
        deterministic wiring, which never reads it, is given None.
        ``acq`` is a capture that ``check_run`` accepts.  Each finished
        shot appends its accumulator entries to ``out.acc``, adds its
        faults and saturated samples to the counts, writes its ``acq``
        capture into the first rows of ``out.acq`` and counts itself;
        then it is yielded, with its ``faults``, ``flags`` and DAC sums.  ``out`` is read and written under ``lock``.  Before
        each shot the loop stops if ``stop`` is set or a window would
        overflow the accumulator depth, counting entries ``out.acc``
        already holds.  The program's windows are synthesized before
        the first shot, in the thread that iterates the loop; windows
        this simulator synthesized before come from its memo.

        Under a deterministic wiring a program without conditional
        commands plays the same shot every time, so only shot 0
        executes: every later shot is a copy of it with its own shot
        index and its own fault entries, and shares its buffers.
        """
        depth = self.hw.acc_buffer_depth
        p, c = prepared, prepared.cmd
        columns = (p.up, c.element, c.destination, c.trig_t, p.n0, p.n0 + c.length, p.source)
        plays = list(zip(*(a.tolist() for a in columns), p.fault, self._synthesize(p)))
        deterministic = getattr(self.wiring, "deterministic", False)
        invariant = deterministic and not np.any(p.source >= 0)
        first = None
        for shot in range(shots):
            with lock:
                if stop is not None and stop.is_set():
                    return
                if any(len(out.acc[e]) + n > depth for e, n in prepared.windows.items()):
                    return
            if first is not None:
                state = first.replay(shot)  # capture and saturated are shot 0's
            else:
                stream = None if seed is None else (seed, shot)
                rng = None if deterministic else np.random.default_rng(stream)
                state = _ShotState(self, prepared, plays, shot, rng)
                state.execute()
                capture = None if acq is None else state.capture(acq)
                saturated = state.saturation_count()
                if invariant:
                    first = state
            with lock:
                for e, entries in state.entries.items():
                    out.acc[e].extend(entries)
                out.faults += len(state.faults)
                out.saturation_count += saturated
                if capture is not None:
                    out.acq[: capture.shape[0]] = capture
                out.shots_completed += 1
            yield state

    def run(
        self, image: ProgramImage, shots: int = 1, acq: AcqConfig = None, seed=None
    ) -> SimResult:
        """Execute ``shots`` repetitions and collect the result buffers.

        ``SimResult.dac`` holds the final shot's DAC pairs over the whole
        repeat period."""
        check_run(self.hw, shots, acq)
        words = np.frombuffer(cmdcodec.commands_to_bytes(image.commands), ">u8")
        prepared = self.prepare(words.reshape(-1, 2), image.repeat_cycles, image.envelopes)
        out = RunBuffers(
            acc={e: [] for e in prepared.windows},
            acq=np.zeros((acq.length if acq else 0, 2), dtype=np.int32),
        )
        fault_log = []
        last = None  # the final shot supplies dac and flags
        for last in self.shots(prepared, shots, out, acq=acq, seed=seed):
            fault_log.extend(last.faults)
        dac = {}
        if last is not None:  # dense over the period, saturated
            for pair in last.dac_sum:
                dac[pair] = last._dac_read(pair, 0, prepared.shot_samples).astype(np.int32)

        return SimResult(
            shots_requested=shots,
            shots_completed=out.shots_completed,
            acc={e: np.array(v, dtype=np.int64).reshape(-1, 2) for e, v in out.acc.items()},
            acq=out.acq,
            acq_config=acq if acq else AcqConfig(length=0),
            dac=dac,
            saturation_count=out.saturation_count,
            fault_log=fault_log,
            flags=dict(last.flags) if last else {},
        )


class _ShotState:
    """One shot's signal state: exact DAC sums, DLO taps, flags.

    ``plays`` holds one tuple per window in execution order: up, element,
    destination, trig_t, first and end sample, flag source (-1 when
    unconditional), envelope fault detail and samples.
    """

    def __init__(self, sim, prepared, plays, shot, rng):
        self.sim = sim
        self.shot = shot
        self.rng = rng
        self.faults = []
        self.shot_samples = prepared.shot_samples
        self.plays = plays
        # no window writes past window_end, so the buffers stop there
        self.window_end = prepared.window_end
        # int32 sums are exact: an up window adds at most 65,536 in
        # magnitude per sample (|I*C - Q*S| <= 2 * 32768 * 32767 before the
        # division by 32767), and windows of one element never overlap,
        # so at most 256 windows (one per 8-bit element) add onto a
        # sample: 256 * 65,536 = 2**24 < 2**31.
        self._dac_sums = np.zeros((sim.hw.n_dac_pairs, self.window_end, 2), dtype=np.int32)
        self.dac_sum = dict(enumerate(self._dac_sums))  # pair -> its view
        self.dlo_tap = {}
        self.flags = {}
        self.entries = {e: [] for e in prepared.windows}  # this shot's accumulator entries

    def _dac_read(self, pair, lo, hi):
        """Saturated int64 view of a DAC pair over [lo, hi) of the period,
        sliced as a dense array of the period would be: zeros past
        window_end."""
        lo, hi, _ = slice(lo, hi).indices(self.shot_samples)
        seg = self.dac_sum[pair][lo:hi].astype(np.int64)
        np.maximum(seg, -FULL_SCALE, out=seg)
        np.minimum(seg, FULL_SCALE, out=seg)
        return seg if len(seg) >= hi - lo else _padded(seg, hi - lo)

    def execute(self):
        flags = self.flags
        for up, element, destination, trig_t, n0, n1, source, fault, samples in self.plays:
            if source >= 0 and not flags.get(source, 0):
                continue
            if not up:
                self.entries[element].append(self._run_down(element, destination, n0, n1, samples))
                continue
            if fault is not None:
                self.faults.append(FaultEntry(self.shot, element, trig_t, "envelope_oob", fault))
            self.dac_sum[destination][n0:n1] += samples

    def _run_down(self, element, destination, n0, n1, samples):
        adc = self.sim.wiring.read(self.shot, destination, n0, n1, self._dac_read, self.rng)
        if element not in self.dlo_tap:
            self.dlo_tap[element] = np.zeros((self.window_end, 2), dtype=np.int64)
        self.dlo_tap[element][n0:n1] = samples
        # conj(dlo) demodulation with exact wide accumulation; one final
        # division keeps the entry within i32.  The 2x2 integer product
        # holds ai.ci, ai.cq, aq.ci and aq.cq.
        dots = adc.T @ samples.astype(np.int64)
        sums = (dots[0, 0] + dots[1, 1], dots[1, 0] - dots[0, 1])
        entry_i, entry_q = _div_full_scale(sums).tolist()
        classifier = self.sim.classifier_map.get(element, StateClassifier())
        self.flags[element] = classifier.classify(entry_i, entry_q)
        return (entry_i, entry_q)

    def replay(self, shot):
        """This shot's outcome as shot ``shot``: the same buffers, flags
        and entries, and fault entries of its own carrying ``shot``."""
        twin = copy.copy(self)
        twin.shot = shot
        twin.faults = [replace(f, shot=shot) for f in self.faults]
        return twin

    def saturation_count(self):
        return int(np.count_nonzero(np.abs(self._dac_sums) > FULL_SCALE))

    def capture(self, acq: AcqConfig):
        """This shot's ``acq`` capture; ``check_run`` has checked its unit."""
        n = min(acq.length, self.shot_samples)
        if acq.tap == "dlo":
            tap = self.dlo_tap.get(acq.unit, np.zeros((0, 2), dtype=np.int64))
            return _padded(tap, acq.length, np.int32)
        if acq.tap == "dac":
            return _padded(self._dac_read(acq.unit, 0, n), acq.length, np.int32)
        adc = self.sim.wiring.read(self.shot, acq.unit, 0, n, self._dac_read, self.rng)
        # the capture holds 16-bit I/Q, as an ACQ word does
        return _padded(np.clip(adc, -32768, 32767), acq.length, np.int32)
