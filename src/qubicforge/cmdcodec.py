"""Bit-exact codec for the 128-bit pulse command and its carrier words.

A command fully parameterizes one pulse: when it starts (``trig_t``, in
DSP-clock cycles), which envelope region it plays (``start``/``length``),
the carrier (24-bit frequency word, 14-bit phase word), and the routing
(processing element, destination DAC pair) plus a 1-bit condition flag
used for state-conditioned pulses.

Field layout, MSB to LSB::

    reserved(31) | condition(1) | freq_word(24) | destination(2) |
    start(12) | length(12) | phase_word(14) | element(8) | trig_t(24)

Reserved bits sit at the extreme MSB end and must be zero.  On the wire
the 128-bit word is transmitted big-endian (MSB first); see
``docs/protocol.md``.

Decoded commands are :class:`CommandFields` records, immutable
``NamedTuple`` values that compare equal to the plain 8-tuple of their
fields.  ``encode`` and ``decode`` are written out as straight-line
shifts and masks, since every command the compiler emits passes through
them.  ``decode_columns`` is their vector form: it decodes an array of
wire words into one column per field, as the simulator reads a program.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EncodingError

COMMAND_BITS = 128
COMMAND_BYTES = COMMAND_BITS // 8

FREQ_WORD_BITS = 24
PHASE_WORD_BITS = 14
TRIG_T_BITS = 24
START_BITS = 12
LENGTH_BITS = 12
ELEMENT_BITS = 8
DESTINATION_BITS = 2
CONDITION_BITS = 1
RESERVED_BITS = 31

# (name, width) from LSB upward; reserved lands at the MSB end.  The
# unrolled encode/decode/validate below hard-code the resulting offsets
# and masks: trig_t 0, element 24, phase_word 32, length 46, start 58,
# destination 70, freq_word 72, condition 96, reserved 97.
_FIELD_LAYOUT = (
    ("trig_t", TRIG_T_BITS),
    ("element", ELEMENT_BITS),
    ("phase_word", PHASE_WORD_BITS),
    ("length", LENGTH_BITS),
    ("start", START_BITS),
    ("destination", DESTINATION_BITS),
    ("freq_word", FREQ_WORD_BITS),
    ("condition", CONDITION_BITS),
    ("reserved", RESERVED_BITS),
)

assert sum(w for _, w in _FIELD_LAYOUT) == COMMAND_BITS


class CommandFields(NamedTuple):
    """Decoded view of one 128-bit command.

    An immutable ``NamedTuple``: fields cannot be assigned, records hash
    and compare by value, and a record equals the plain 8-tuple of its
    values in field order.
    """

    trig_t: int = 0
    start: int = 0
    length: int = 0
    freq_word: int = 0
    phase_word: int = 0
    element: int = 0
    destination: int = 0
    condition: int = 0

    def validate(self):
        """Raise EncodingError unless every field is an int fitting its width."""
        trig_t, start, length, freq_word, phase_word, element, destination, condition = self
        if (
            isinstance(trig_t, int) and 0 <= trig_t <= 0xFFFFFF
            and isinstance(start, int) and 0 <= start <= 0xFFF
            and isinstance(length, int) and 0 <= length <= 0xFFF
            and isinstance(freq_word, int) and 0 <= freq_word <= 0xFFFFFF
            and isinstance(phase_word, int) and 0 <= phase_word <= 0x3FFF
            and isinstance(element, int) and 0 <= element <= 0xFF
            and isinstance(destination, int) and 0 <= destination <= 0x3
            and isinstance(condition, int) and 0 <= condition <= 0x1
        ):
            return
        # Slow path: name the first offending field in layout order.
        for name, width in _FIELD_LAYOUT[:-1]:
            value = getattr(self, name)
            if not isinstance(value, int):
                raise EncodingError(f"field {name} must be an integer, got {value!r}")
            if not 0 <= value < (1 << width):
                raise EncodingError(
                    f"field {name}={value} does not fit {width} bits"
                )


def encode(fields: CommandFields) -> int:
    """Pack ``fields`` into a 128-bit integer. Raises on field overflow."""
    fields.validate()
    trig_t, start, length, freq_word, phase_word, element, destination, condition = fields
    return (
        trig_t
        | element << 24
        | phase_word << 32
        | length << 46
        | start << 58
        | destination << 70
        | freq_word << 72
        | condition << 96
    )


def decode(word: int) -> CommandFields:
    """Unpack a 128-bit integer into its fields; nonzero reserved bits
    are rejected."""
    if not 0 <= word < (1 << COMMAND_BITS):
        raise EncodingError(f"command word does not fit {COMMAND_BITS} bits")
    if word >> 97:
        raise EncodingError("nonzero reserved bits in a command word")
    return CommandFields._make((
        word & 0xFFFFFF,  # trig_t
        word >> 58 & 0xFFF,  # start
        word >> 46 & 0xFFF,  # length
        word >> 72 & 0xFFFFFF,  # freq_word
        word >> 32 & 0x3FFF,  # phase_word
        word >> 24 & 0xFF,  # element
        word >> 70 & 0x3,  # destination
        word >> 96 & 0x1,  # condition
    ))


# decode_columns as one table, a row per CommandFields field and then
# two more: (half, shift, mask), half 0 holding bits 64-127 and half 1
# bits 0-63.  start (bits 58-69) straddles the halves, so row 1 takes its
# low 6 bits and row 8 its high 6; row 9 is the reserved bits.
_COLUMN_HALF = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0])
_COLUMN_SHIFT = np.array([0, 58, 46, 8, 32, 24, 6, 32, 0, 33])[:, np.newaxis]
_COLUMN_MASK = np.array(
    [0xFFFFFF, 0x3F, 0xFFF, 0xFFFFFF, 0x3FFF, 0xFF, 0x3, 0x1, 0x3F, -1]
)[:, np.newaxis]


def decode_columns(words) -> tuple:
    """Decode wire command words as columns.

    ``words`` is an (n, 2) array of unsigned 64-bit halves, high half
    first: 16-byte big-endian words viewed as ``>u8``.  Returns a
    :class:`CommandFields` of int64 columns, one entry per word, and a
    bool mask of the words with nonzero reserved bits, whose fields are
    decoded all the same.  Entry ``k`` equals ``decode`` of word ``k``
    wherever the mask is false.
    """
    # Native order once: shifts and masks on a byte-swapped dtype are
    # slow.  As int64 a set top bit makes a half negative, which the
    # masks undo; a negative high half has nonzero reserved bits.
    halves = np.asarray(words, dtype=np.uint64).reshape(-1, 2).view(np.int64)
    rows = halves.T[_COLUMN_HALF] >> _COLUMN_SHIFT
    rows &= _COLUMN_MASK
    rows[1] |= rows[8] << 6
    return CommandFields._make(rows[:8]), rows[9] != 0


def commands_to_bytes(words) -> bytes:
    """Serialize command words big-endian (MSB first), 16 bytes each.

    Raises EncodingError naming the first word outside 128 bits.
    """
    words = [int(w) for w in words]
    try:
        return b"".join(w.to_bytes(COMMAND_BYTES, "big") for w in words)
    except OverflowError:
        bad = next(w for w in words if not 0 <= w < 1 << COMMAND_BITS)
        raise EncodingError(f"command word {bad:#x} does not fit {COMMAND_BITS} bits") from None


def commands_from_bytes(data) -> list:
    """The command words, as ints, of big-endian 16-byte ``data``."""
    if len(data) % COMMAND_BYTES:
        raise EncodingError(f"commands must be {COMMAND_BYTES} bytes each, got {len(data)} bytes")
    return [
        int.from_bytes(data[k : k + COMMAND_BYTES], "big")
        for k in range(0, len(data), COMMAND_BYTES)
    ]


def _round_half_up(x: float) -> int:
    # Python round() is round-half-even; the codec is round-half-up.
    return math.floor(x + 0.5)


def freq_to_word(f: float, sample_rate: float) -> int:
    """Quantize a carrier frequency to the 24-bit accumulator step.

    One step is ``sample_rate / 2**24`` (about 60 Hz at 1 GSPS).  The
    oscillator synthesizes quadrature samples, so the usable band is the
    full [0, sample_rate); carriers at or above the sample rate alias
    modulo the sample rate, as does a value rounding up to a full turn.
    """
    if not (math.isfinite(f) and f >= 0):
        raise EncodingError(f"carrier frequency must be finite and >= 0, got {f}")
    turns = (f / sample_rate) % 1.0
    return _round_half_up(turns * (1 << FREQ_WORD_BITS)) % (1 << FREQ_WORD_BITS)


def word_to_freq(word: int, sample_rate: float) -> float:
    if not 0 <= word < (1 << FREQ_WORD_BITS):
        raise EncodingError(f"frequency word {word} does not fit {FREQ_WORD_BITS} bits")
    return word * sample_rate / (1 << FREQ_WORD_BITS)


def phase_to_word(phi: float) -> int:
    """Quantize a phase (radians) to the 14-bit step of 2*pi/2**14.

    Any finite phase is accepted and wrapped into [0, 2*pi) first.
    """
    if not math.isfinite(phi):
        raise EncodingError(f"phase must be finite, got {phi}")
    turns = (phi / (2 * math.pi)) % 1.0
    return _round_half_up(turns * (1 << PHASE_WORD_BITS)) % (1 << PHASE_WORD_BITS)


def word_to_phase(word: int) -> float:
    if not 0 <= word < (1 << PHASE_WORD_BITS):
        raise EncodingError(f"phase word {word} does not fit {PHASE_WORD_BITS} bits")
    return word * 2 * math.pi / (1 << PHASE_WORD_BITS)
