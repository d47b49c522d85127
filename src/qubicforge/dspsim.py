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
from typing import NamedTuple

import numpy as np

from . import cmdcodec
from .cmdcodec import CommandFields
from .envgen import iq_lanes, u32_array
from .errors import EncodingError, SimulationError

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
    of ints.  A word outside [0, 2**32) raises SimulationError, as does
    a ``repeat_cycles`` outside [1, MAX_REPEAT_CYCLES].
    """

    commands: tuple
    envelopes: dict
    repeat_cycles: int

    def __post_init__(self):
        object.__setattr__(self, "commands", tuple(int(c) for c in self.commands))
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

    ``events`` holds the shot's windows in execution order, not yet
    synthesized; ``envelopes`` holds a copy of the envelope memory of
    each up element they address, as far as they read and zero past
    depth; ``windows`` maps each down element with commands, in the
    order of its first command, to the accumulator entries one shot
    appends.  ``window_end`` is the sample where the last window ends:
    a shot holds DAC and DLO samples up to it, and everything after it
    up to ``shot_samples`` reads as zeros.
    """

    shot_samples: int
    windows: dict
    events: tuple
    envelopes: dict
    window_end: int


class _Window(NamedTuple):
    """One command's window, starting at absolute sample ``n0``.

    ``source`` is the element whose flag gates a conditional command
    (None when unconditional); ``fault`` describes an envelope read
    beyond depth, logged in every shot the window runs.  ``samples``,
    filled in by synthesis, is a (cmd.length, 2) int32 array: the
    unsaturated DAC contribution of an up window, or the LO carrier of a
    down window.
    """

    up: bool
    cmd: CommandFields
    n0: int
    source: int | None
    fault: str | None
    samples: np.ndarray | None = None


def _blocks(misses):
    """Consecutive runs of ``(key, window)`` pairs whose windows hold at
    most _SYNTH_BLOCK samples (a longer window is a block of its own)."""
    block, size = [], 0
    for key, w in misses:
        if block and size + w.cmd.length > _SYNTH_BLOCK:
            yield block
            block, size = [], 0
        block.append((key, w))
        size += w.cmd.length
    if block:
        yield block


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
# stream.  Any other wiring is read afresh in every shot.


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
    """Reject a negative shot count or a capture longer than the
    acquisition buffer, as a run on ``hw`` would."""
    if shots < 0:
        raise SimulationError(f"shots must be >= 0, got {shots}")
    if acq is not None and acq.length > hw.acq_buffer_depth:
        raise SimulationError(
            f"acquisition length {acq.length} exceeds depth {hw.acq_buffer_depth}"
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

        One pass over the 128-bit ``commands`` checks each word in turn;
        a SimulationError names the lowest faulty command, or a period
        outside [1, MAX_REPEAT_CYCLES].  ``envelopes`` maps an up element
        to its 32-bit words; the result copies those its commands read.
        """
        hw = self.hw
        _check_period(repeat_cycles)
        if len(commands) > hw.command_buffer_depth:
            raise SimulationError(
                f"{len(commands)} commands exceed buffer depth {hw.command_buffer_depth}"
            )
        spc, depth = hw.samples_per_cycle, hw.envelope_buffer_depth
        shot_samples = repeat_cycles * spc
        keyed = []  # (execution order key, window)
        last = {}  # element -> (its last trig_t, end of its busy span)
        reach = {}  # up element -> end of its furthest envelope read
        windows = Counter()
        for pos, word in enumerate(commands):
            try:
                cmd = cmdcodec.decode(word)
            except EncodingError as exc:
                raise SimulationError(f"command {pos}: {exc}") from None
            element = cmd.element
            if element >= hw.n_elements:
                raise SimulationError(f"command {pos}: element {element} out of range")
            if cmd.destination >= hw.n_dac_pairs:
                raise SimulationError(
                    f"command {pos}: destination {cmd.destination} out of range "
                    f"(n_dac_pairs={hw.n_dac_pairs})"
                )
            n0 = cmd.trig_t * spc
            end = n0 + cmd.length
            if end > shot_samples:
                raise SimulationError(
                    f"command {pos}: window ends at sample {end}, "
                    f"beyond the {shot_samples}-sample repeat period"
                )
            prev_trig, busy_until = last.get(element, (-1, -1))
            if cmd.trig_t < prev_trig:
                raise SimulationError(f"element {element}: trig_t decreases at command {pos}")
            if n0 < busy_until:
                raise SimulationError(f"element {element}: command {pos} triggers while busy")
            last[element] = (cmd.trig_t, max(busy_until, end))
            source = self.condition_map.get(element) if cmd.condition else None
            if cmd.condition and source is None:
                raise SimulationError(
                    f"element {element} has a conditional command but no flag source"
                )
            # Down windows complete first on a cycle, so a conditional
            # command triggering on that cycle sees the flag.
            if element >= hw.n_processing_elements_up:
                windows[element] += 1
                done = cmd.trig_t + -(-cmd.length // spc)
                keyed.append((done, 0, element, pos, _Window(False, cmd, n0, source, None)))
            elif cmd.length:  # a zero-length up window emits nothing
                read_end = cmd.start + cmd.length
                reach[element] = max(reach.get(element, 0), read_end)
                fault = None
                if read_end > depth:
                    fault = f"read [{cmd.start}, {read_end}) beyond depth {depth}; zeros emitted"
                keyed.append((cmd.trig_t, 1, element, pos, _Window(True, cmd, n0, source, fault)))
        keyed.sort()  # positions are distinct, so no two keys tie
        return PreparedProgram(
            shot_samples=shot_samples,
            windows=windows,
            events=tuple(k[-1] for k in keyed),
            envelopes={e: _padded(envelopes.get(e, ())[:depth], n) for e, n in reach.items()},
            window_end=max((busy for _, busy in last.values()), default=0),
        )

    def _synthesize(self, prepared):
        """``prepared.events`` with their samples, each distinct window
        synthesized once.

        A window's samples depend only on its synthesis key: the turn
        word of its first sample, its frequency word and length, and the
        envelope words an up window reads (never the element or address,
        whose memory a later program may rewrite).  Keys this simulator
        has met come from its memo; this call's distinct misses are
        synthesized with one CORDIC call per block and stored."""
        shift = _TURN_BITS - cmdcodec.PHASE_WORD_BITS
        mask = (1 << _TURN_BITS) - 1
        keys = []
        found = {}  # this call's keys -> samples, so a clear loses none
        misses = {}  # key -> its first window, for keys not in the memo
        for w in prepared.events:
            cmd = w.cmd
            words = None
            if w.up:
                words = prepared.envelopes[cmd.element][cmd.start : cmd.start + cmd.length]
                words = words.tobytes()
            turn = ((cmd.phase_word << shift) + cmd.freq_word * w.n0) & mask
            key = (turn, cmd.freq_word, cmd.length, words)
            keys.append(key)
            if key not in found:
                found[key] = self._memo.get(key)
                if found[key] is None:
                    misses[key] = w
        for block in _blocks(misses.items()):
            windows = [w for _, w in block]
            lengths = [w.cmd.length for w in windows]
            first = np.cumsum([0] + lengths)
            n = np.arange(first[-1]) + _per_sample(
                np.array([w.n0 for w in windows]) - first[:-1], lengths
            )
            phase = _per_sample([w.cmd.phase_word << shift for w in windows], lengths)
            freq = _per_sample([w.cmd.freq_word for w in windows], lengths)
            cos, sin = cordic_cos_sin((phase + freq * n) & mask)
            samples = np.stack((cos, sin), axis=1).astype(np.int32)
            up = np.repeat([w.up for w in windows], lengths)
            if up.any():
                reads = [
                    prepared.envelopes[w.cmd.element][w.cmd.start : w.cmd.start + w.cmd.length]
                    for w in windows
                    if w.up
                ]
                ei, eq = iq_lanes(np.concatenate(reads))
                ci, cq = cos[up], sin[up]
                samples[up, 0] = _div_full_scale(ei * ci - eq * cq)
                samples[up, 1] = _div_full_scale(ei * cq + eq * ci)
            for (key, _), lo, hi in zip(block, first, first[1:]):
                found[key] = self._remember(key, samples[lo:hi])
        return tuple(w._replace(samples=found[key]) for w, key in zip(prepared.events, keys))

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

        Shot ``k`` draws from the random stream ``(seed, k)``.  Each
        finished shot appends its accumulator entries to ``out.acc``,
        adds its faults and saturated samples to the counts, writes its
        ``acq`` capture into the first rows of ``out.acq`` and counts
        itself; then it is yielded, with its ``faults``, ``flags`` and
        DAC sums.  ``out`` is read and written under ``lock``.  Before
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
        events = self._synthesize(prepared)
        invariant = getattr(self.wiring, "deterministic", False) and all(
            w.source is None for w in events
        )
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
                rng = np.random.default_rng(None if seed is None else (seed, shot))
                state = _ShotState(self, prepared, events, shot, rng)
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
        prepared = self.prepare(image.commands, image.repeat_cycles, image.envelopes)
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
    """One shot's signal state: exact DAC sums, DLO taps, flags."""

    def __init__(self, sim, prepared, events, shot, rng):
        self.sim = sim
        self.shot = shot
        self.rng = rng
        self.faults = []
        self.shot_samples = prepared.shot_samples
        self.events = events
        # no window writes past window_end, so the buffers stop there
        self.window_end = prepared.window_end
        self.dac_sum = {
            p: np.zeros((self.window_end, 2), dtype=np.int64) for p in range(sim.hw.n_dac_pairs)
        }
        self.dlo_tap = {}
        self.flags = {}
        self.entries = {e: [] for e in prepared.windows}  # this shot's accumulator entries

    def _dac_read(self, pair, lo, hi):
        """Saturated view of a DAC pair over [lo, hi) of the period, sliced
        as a dense array of the period would be: zeros past window_end."""
        lo, hi, _ = slice(lo, hi).indices(self.shot_samples)
        seg = np.clip(self.dac_sum[pair][lo:hi], -FULL_SCALE, FULL_SCALE)
        return seg if len(seg) >= hi - lo else _padded(seg, hi - lo)

    def execute(self):
        for w in self.events:
            if w.source is not None and not self.flags.get(w.source, 0):
                continue
            element = w.cmd.element
            if not w.up:
                self.entries[element].append(self._run_down(w))
                continue
            if w.fault is not None:
                self.faults.append(
                    FaultEntry(self.shot, element, w.cmd.trig_t, "envelope_oob", w.fault)
                )
            self.dac_sum[w.cmd.destination][w.n0 : w.n0 + w.cmd.length] += w.samples

    def _run_down(self, w):
        element = w.cmd.element
        n1 = w.n0 + w.cmd.length
        adc = self.sim.wiring.read(
            self.shot, w.cmd.destination, w.n0, n1, self._dac_read, self.rng
        )
        if element not in self.dlo_tap:
            self.dlo_tap[element] = np.zeros((self.window_end, 2), dtype=np.int64)
        self.dlo_tap[element][w.n0 : n1] = w.samples
        ci, cq = w.samples.T.astype(np.int64)
        ai = adc[:, 0]
        aq = adc[:, 1]
        # conj(dlo) demodulation with exact wide accumulation; one final
        # division keeps the entry within i32.
        sum_i = int(np.sum(ai * ci + aq * cq))
        sum_q = int(np.sum(aq * ci - ai * cq))
        entry_i = int(_div_full_scale(np.int64(sum_i)))
        entry_q = int(_div_full_scale(np.int64(sum_q)))
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
        count = 0
        for arr in self.dac_sum.values():
            count += int(np.count_nonzero(np.abs(arr) > FULL_SCALE))
        return count

    def capture(self, acq: AcqConfig):
        hw = self.sim.hw
        n = min(acq.length, self.shot_samples)
        if acq.tap == "dlo":
            if hw.n_processing_elements_up <= acq.unit < hw.n_elements:
                tap = self.dlo_tap.get(acq.unit, np.zeros((0, 2), dtype=np.int64))
                return _padded(tap, acq.length, np.int32)
            raise SimulationError(f"no down element {acq.unit}")
        if not 0 <= acq.unit < hw.n_dac_pairs:
            raise SimulationError(f"no {acq.tap.upper()} pair {acq.unit}")
        if acq.tap == "dac":
            return _padded(self._dac_read(acq.unit, 0, n), acq.length, np.int32)
        adc = self.sim.wiring.read(self.shot, acq.unit, 0, n, self._dac_read, self.rng)
        # the capture holds 16-bit I/Q, as an ACQ word does
        return _padded(np.clip(adc, -32768, 32767), acq.length, np.int32)
