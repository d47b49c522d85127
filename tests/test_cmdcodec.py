"""Command word encode/decode and frequency/phase quantization."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubicforge import EncodingError
from qubicforge.cmdcodec import (
    COMMAND_BITS,
    FREQ_WORD_BITS,
    PHASE_WORD_BITS,
    CommandFields,
    commands_from_bytes,
    commands_to_bytes,
    decode,
    decode_columns,
    encode,
    freq_to_word,
    phase_to_word,
    word_to_freq,
    word_to_phase,
)

MAXED = CommandFields(
    trig_t=(1 << 24) - 1,
    element=(1 << 8) - 1,
    phase_word=(1 << 14) - 1,
    length=(1 << 12) - 1,
    start=(1 << 12) - 1,
    destination=3,
    freq_word=(1 << 24) - 1,
    condition=1,
)


def field_strategy():
    return st.builds(
        CommandFields,
        trig_t=st.integers(0, (1 << 24) - 1),
        element=st.integers(0, 255),
        phase_word=st.integers(0, (1 << 14) - 1),
        length=st.integers(0, (1 << 12) - 1),
        start=st.integers(0, (1 << 12) - 1),
        destination=st.integers(0, 3),
        freq_word=st.integers(0, (1 << 24) - 1),
        condition=st.integers(0, 1),
    )


class TestLayout:
    def test_total_width(self):
        assert COMMAND_BITS == 128
        assert encode(MAXED) < (1 << 128)

    def test_zero(self):
        assert encode(CommandFields()) == 0
        assert decode(0) == CommandFields()

    def test_known_positions(self):
        # Each field sits at a fixed offset; probe one bit per field.
        assert encode(CommandFields(trig_t=1)) == 1 << 0
        assert encode(CommandFields(element=1)) == 1 << 24
        assert encode(CommandFields(phase_word=1)) == 1 << 32
        assert encode(CommandFields(length=1)) == 1 << 46
        assert encode(CommandFields(start=1)) == 1 << 58
        assert encode(CommandFields(destination=1)) == 1 << 70
        assert encode(CommandFields(freq_word=1)) == 1 << 72
        assert encode(CommandFields(condition=1)) == 1 << 96

    def test_msb_31_reserved(self):
        # Condition occupies bit 96; everything above is reserved zero.
        assert encode(MAXED) < (1 << 97)
        with pytest.raises(EncodingError):
            decode(1 << 97)

    def test_field_overflow_rejected(self):
        with pytest.raises(EncodingError):
            encode(CommandFields(destination=4))
        with pytest.raises(EncodingError):
            encode(CommandFields(freq_word=1 << 24))
        with pytest.raises(EncodingError):
            encode(CommandFields(trig_t=-1))

    def test_non_integer_fields_rejected(self):
        with pytest.raises(EncodingError, match=r"^field trig_t must be an integer, got 1\.0$"):
            encode(CommandFields(trig_t=1.0))
        value = np.int64(3)
        with pytest.raises(
            EncodingError, match=f"^field element must be an integer, got {re.escape(repr(value))}$"
        ):
            encode(CommandFields(element=value))

    def test_negative_field_message(self):
        with pytest.raises(EncodingError, match=r"^field start=-1 does not fit 12 bits$"):
            encode(CommandFields(start=-1))

    def test_first_bad_field_in_layout_order_named(self):
        # trig_t sits below freq_word in the layout, so it is reported.
        with pytest.raises(EncodingError, match=r"^field trig_t=-1 does not fit 24 bits$"):
            encode(CommandFields(freq_word=1 << 24, trig_t=-1))

    def test_record_immutable(self):
        fields = CommandFields(trig_t=5)
        with pytest.raises(AttributeError):
            fields.trig_t = 6
        assert fields.trig_t == 5

    def test_decode_returns_record(self):
        fields = CommandFields(trig_t=7, element=3, condition=1)
        back = decode(encode(fields))
        assert type(back) is CommandFields
        assert back == fields == (7, 0, 0, 0, 0, 3, 0, 1)

    @given(field_strategy())
    @settings(max_examples=300)
    def test_roundtrip(self, fields):
        assert decode(encode(fields)) == fields

    @given(st.lists(field_strategy(), max_size=5))
    @settings(max_examples=200)
    def test_bytes_roundtrip(self, records):
        words = [encode(fields) for fields in records]
        blob = commands_to_bytes(words)
        assert len(blob) == 16 * len(words)
        assert commands_from_bytes(blob) == words
        assert [decode(w) for w in commands_from_bytes(blob)] == records

    def test_bytes_big_endian(self):
        # trig_t occupies the least significant bits, so it lands in the
        # final bytes of the big-endian serialization.
        blob = commands_to_bytes([encode(CommandFields(trig_t=0xABCDEF))])
        assert blob[-3:] == bytes([0xAB, 0xCD, 0xEF])
        assert all(b == 0 for b in blob[:-3])

    @pytest.mark.parametrize("bad", [1 << 128, -1])
    def test_bytes_word_outside_128_bits_rejected(self, bad):
        with pytest.raises(EncodingError, match=f"^command word {bad:#x} does not fit 128 bits$"):
            commands_to_bytes([0, bad, 1 << 130])

    @pytest.mark.parametrize("size", [1, 15, 17, 33])
    def test_bytes_partial_word_rejected(self, size):
        with pytest.raises(EncodingError, match=f"got {size} bytes"):
            commands_from_bytes(bytes(size))


class TestColumns:
    """``decode_columns`` against the scalar ``decode``."""

    @staticmethod
    def columns(words):
        wire = np.frombuffer(commands_to_bytes(words), ">u8").reshape(-1, 2)
        columns, reserved = decode_columns(wire)
        assert all(c.dtype == np.int64 and c.shape == (len(words),) for c in columns)
        assert reserved.dtype == bool and reserved.shape == (len(words),)
        return columns, reserved.tolist()

    @given(st.lists(st.integers(0, (1 << 97) - 1), max_size=40))
    @settings(max_examples=300)
    def test_equals_decode_over_all_field_bits(self, words):
        columns, reserved = self.columns(words)
        assert reserved == [False] * len(words)
        assert [CommandFields._make(row) for row in zip(*(c.tolist() for c in columns))] == [
            decode(w) for w in words
        ]

    @given(st.lists(st.integers(0, (1 << 128) - 1), max_size=40))
    @settings(max_examples=300)
    def test_reserved_bits_masked_and_fields_decoded(self, words):
        columns, reserved = self.columns(words)
        assert reserved == [bool(w >> 97) for w in words]
        fields = [decode(w & ((1 << 97) - 1)) for w in words]
        assert [CommandFields._make(row) for row in zip(*(c.tolist() for c in columns))] == fields
        for w, bad in zip(words, reserved):
            if bad:
                with pytest.raises(EncodingError, match="reserved"):
                    decode(w)

    def test_every_field_at_its_limit(self):
        top = (1 << 128) - 1
        columns, reserved = self.columns([encode(MAXED), top, 1 << 97, 1 << 127])
        assert reserved == [False, True, True, True]
        assert [c.tolist() for c in columns] == [[v, v, 0, 0] for v in MAXED]

    def test_empty(self):
        columns, reserved = self.columns([])
        assert reserved == [] and all(c.tolist() == [] for c in columns)


class TestFrequencyWord:
    def test_step_size(self):
        # 24-bit word spanning 1 GSPS: one LSB is 10^9 / 2^24 Hz.
        step = 1e9 / (1 << FREQ_WORD_BITS)
        assert step == pytest.approx(59.604644775390625, abs=0)
        assert word_to_freq(1, 1e9) == pytest.approx(step)

    def test_round_half_up(self):
        step = 1e9 / (1 << 24)
        assert freq_to_word(0.5 * step, 1e9) == 1
        assert freq_to_word(1.5 * step, 1e9) == 2
        assert freq_to_word(0.49 * step, 1e9) == 0

    def test_wraps_at_full_scale(self):
        # Rounding just under the sample rate must wrap, not overflow.
        hi = 1e9 * (1 - 2 ** -26)
        assert freq_to_word(hi, 1e9) == 0

    def test_aliasing(self):
        # Carriers above the sample rate alias modulo the sample rate.
        assert freq_to_word(5.5e9, 1e9) == freq_to_word(0.5e9, 1e9) == 1 << 23

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            freq_to_word(-1.0, 1e9)

    @given(st.integers(0, (1 << 24) - 1))
    @settings(max_examples=300)
    def test_word_roundtrip_exact(self, word):
        assert freq_to_word(word_to_freq(word, 1e9), 1e9) == word

    @given(st.floats(0, 0.999e9))
    @settings(max_examples=300)
    def test_quantization_error_bounded(self, f):
        step = 1e9 / (1 << 24)
        word = freq_to_word(f, 1e9)
        err = abs(word_to_freq(word, 1e9) - f)
        # Modular distance: wrap-around at the top of the band is fine.
        err = min(err, 1e9 - err)
        assert err <= step / 2 + 1e-9


class TestPhaseWord:
    def test_step_size(self):
        step = 2 * math.pi / (1 << PHASE_WORD_BITS)
        assert math.degrees(step) == pytest.approx(0.021972656, rel=1e-6)
        assert word_to_phase(1) == pytest.approx(step)

    def test_quarter_turn(self):
        assert phase_to_word(math.pi / 2) == 1 << 12
        assert phase_to_word(-math.pi / 2) == 3 << 12
        assert phase_to_word(math.pi) == 1 << 13

    def test_wraps(self):
        assert phase_to_word(2 * math.pi) == 0
        assert phase_to_word(4 * math.pi + math.pi / 2) == 1 << 12

    @given(st.integers(0, (1 << 14) - 1))
    @settings(max_examples=300)
    def test_word_roundtrip_exact(self, word):
        assert phase_to_word(word_to_phase(word)) == word

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=300)
    def test_quantization_error_bounded(self, phi):
        step = 2 * math.pi / (1 << 14)
        back = word_to_phase(phase_to_word(phi))
        err = abs((back - phi + math.pi) % (2 * math.pi) - math.pi)
        assert err <= step / 2 + 1e-9
