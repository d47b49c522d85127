"""Signal-path simulator: CORDIC, mixing, accumulation, gating."""

import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubicforge import SimulationError
from qubicforge.errors import EncodingError
from qubicforge.chipcfg import load_hardware_config
from qubicforge import dspsim
from qubicforge.cmdcodec import (
    PHASE_WORD_BITS,
    CommandFields,
    commands_to_bytes,
    decode,
    encode,
)
from qubicforge.dspsim import (
    FULL_SCALE,
    MAX_REPEAT_CYCLES,
    AcqConfig,
    External,
    Loopback,
    OpenLoop,
    ProgramImage,
    Simulator,
    StateClassifier,
    _div_full_scale,
    cordic_cos_sin,
)
from qubicforge.envgen import EnvelopeSpec, generate, iq_lanes, pack

HW = load_hardware_config("{}")
TURNS = 1 << 24


def ideal(words):
    return np.exp(2j * np.pi * np.asarray(words) / TURNS)


class TestCordic:
    def test_cardinal_angles(self):
        # The rotation residual leaves up to 1 LSB on the small lane.
        c, s = cordic_cos_sin([0, TURNS // 4, TURNS // 2, 3 * TURNS // 4])
        assert np.array_equal(c == FULL_SCALE, [True, False, False, False])
        assert np.array_equal(c == -FULL_SCALE, [False, False, True, False])
        assert np.array_equal(s == FULL_SCALE, [False, True, False, False])
        assert np.array_equal(s == -FULL_SCALE, [False, False, False, True])
        assert abs(s[0]) <= 1 and abs(c[1]) <= 1 and abs(s[2]) <= 1 and abs(c[3]) <= 1

    def test_eighth_turn(self):
        c, s = cordic_cos_sin([TURNS // 8])
        expect = FULL_SCALE * math.sqrt(0.5)
        assert abs(c[0] - expect) <= 2
        assert abs(s[0] - expect) <= 2

    def test_quadrant_symmetry_exact(self):
        w = np.arange(0, TURNS // 4, 997)
        c0, s0 = cordic_cos_sin(w)
        c1, s1 = cordic_cos_sin(w + TURNS // 4)
        assert np.array_equal(c1, -s0)
        assert np.array_equal(s1, c0)

    def test_error_budget_random_words(self):
        rng = np.random.default_rng(11)
        w = rng.integers(0, TURNS, 100_000)
        c, s = cordic_cos_sin(w)
        err = np.abs((c + 1j * s) / FULL_SCALE - ideal(w))
        assert err.max() <= 2.0 ** -14

    def test_output_range(self):
        rng = np.random.default_rng(12)
        w = rng.integers(0, TURNS, 10_000)
        c, s = cordic_cos_sin(w)
        assert np.abs(c).max() <= FULL_SCALE
        assert np.abs(s).max() <= FULL_SCALE

    def test_word_out_of_range(self):
        with pytest.raises(SimulationError):
            cordic_cos_sin([TURNS])
        with pytest.raises(SimulationError):
            cordic_cos_sin([-1])

    # Quadrant edges, and the words either side of them.
    EDGES = [q * TURNS // 4 + d for q in range(4) for d in (-1, 0, 1) if 0 <= q * TURNS // 4 + d]
    EDGES.append(TURNS - 1)

    def test_quadrant_edges_match_int64_datapath(self):
        c, s = cordic_cos_sin(self.EDGES)
        c0, s0 = int64_cordic(self.EDGES)
        assert np.array_equal(c, c0) and np.array_equal(s, s0)

    @given(st.lists(st.integers(0, TURNS - 1), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_int64_datapath(self, words):
        c, s = cordic_cos_sin(words)
        c0, s0 = int64_cordic(words)
        assert np.array_equal(c, c0) and np.array_equal(s, s0)
        assert c.dtype == s.dtype == np.int64


def int64_cordic(turn_words):
    """The earlier int64 CORDIC datapath, with three np.where per iteration."""
    atan = np.array(dspsim._ATAN_TABLE, dtype=np.int64)
    words = np.asarray(turn_words, dtype=np.int64)
    quadrant = words >> 22
    z = (words & ((1 << 22) - 1)) << 6
    x = np.full(words.shape, dspsim._X_INIT, dtype=np.int64)
    y = np.zeros(words.shape, dtype=np.int64)
    for i in range(dspsim.CORDIC_ITERATIONS):
        positive = z >= 0
        xs = x >> i
        ys = y >> i
        x = np.where(positive, x - ys, x + ys)
        y = np.where(positive, y + xs, y - xs)
        z = np.where(positive, z - atan[i], z + atan[i])
    c = np.clip((x + 512) >> 10, -FULL_SCALE, FULL_SCALE)
    s = np.clip((y + 512) >> 10, -FULL_SCALE, FULL_SCALE)
    return np.choose(quadrant, [c, -s, -c, s]), np.choose(quadrant, [s, c, -s, -c])


class TestDivFullScale:
    def test_round_half_away(self):
        assert _div_full_scale(np.int64(16384)) == 1
        assert _div_full_scale(np.int64(16383)) == 0
        assert _div_full_scale(np.int64(-16384)) == -1
        assert _div_full_scale(np.int64(32767)) == 1
        assert _div_full_scale(np.int64(32767 * 5)) == 5

    @given(st.integers(-(2**40), 2**40))
    @settings(max_examples=200)
    def test_matches_float(self, v):
        got = int(_div_full_scale(np.int64(v)))
        want = math.floor(abs(v) / FULL_SCALE + 0.5)
        want = -want if v < 0 else want
        assert got == want


# ---------------------------------------------------------------------------
# Helpers for building tiny programs


def up_cmd(element=0, dest=0, trig_t=0, start=0, length=96, freq=0.0, phase=0.0, condition=0):
    from qubicforge.cmdcodec import freq_to_word, phase_to_word

    return encode(
        CommandFields(
            trig_t=trig_t,
            start=start,
            length=length,
            freq_word=freq_to_word(freq, HW.dac_sample_rate),
            phase_word=phase_to_word(phase),
            element=element,
            destination=dest,
            condition=condition,
        )
    )


def down_cmd(element=16, dest=0, trig_t=0, length=96, freq=0.0, phase=0.0, condition=0):
    from qubicforge.cmdcodec import freq_to_word, phase_to_word

    return encode(
        CommandFields(
            trig_t=trig_t,
            start=0,
            length=length,
            freq_word=freq_to_word(freq, HW.dac_sample_rate),
            phase_word=phase_to_word(phase),
            element=element,
            destination=dest,
            condition=condition,
        )
    )


def env_words(kind="square", twidth=96e-9, **params):
    env = generate(EnvelopeSpec(kind=kind, params=params), twidth, HW.dt)
    return pack(env).words, env


class TestUpPath:
    def test_square_dc_full_scale(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(length=96)], envelopes={0: words}, repeat_cycles=32
        )
        res = Simulator(HW).run(image)
        dac = res.dac[0]
        assert np.all(dac[:96, 0] == FULL_SCALE)
        assert np.all(np.abs(dac[:96, 1]) <= 1)  # 1 LSB carrier leakage
        assert np.all(dac[96:] == 0)

    def test_phase_offset_rotates(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(length=96, phase=math.pi / 2)],
            envelopes={0: words},
            repeat_cycles=32,
        )
        dac = Simulator(HW).run(image).dac[0]
        assert np.all(np.abs(dac[:96, 0]) <= 2)
        assert np.all(dac[:96, 1] == FULL_SCALE)

    def test_trig_t_places_window(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(trig_t=5, length=96)], envelopes={0: words}, repeat_cycles=64
        )
        dac = Simulator(HW).run(image).dac[0]
        n0 = 5 * HW.samples_per_cycle
        assert np.all(dac[:n0] == 0)
        assert np.all(dac[n0 : n0 + 96, 0] == FULL_SCALE)

    def test_tone_matches_float_model(self):
        words, env = env_words(kind="gaussian", sigma_fraction=0.25)
        freq = 137.5e6
        image = ProgramImage(
            commands=[up_cmd(length=96, freq=freq, phase=0.7)],
            envelopes={0: words},
            repeat_cycles=32,
        )
        dac = Simulator(HW).run(image).dac[0]
        got = (dac[:96, 0] + 1j * dac[:96, 1]) / FULL_SCALE
        from qubicforge.cmdcodec import freq_to_word, phase_to_word

        fw = freq_to_word(freq, HW.dac_sample_rate)
        pw = phase_to_word(0.7)
        n = np.arange(96)
        carrier = np.exp(2j * np.pi * ((pw << 10) + fw * n) / TURNS)
        want = env.samples * carrier
        # envelope quantization + CORDIC + product rounding
        assert np.abs(got - want).max() <= 2.0 ** -13

    def test_switch_and_sum_saturates(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(element=0, length=96), up_cmd(element=1, length=96)],
            envelopes={0: words, 1: words},
            repeat_cycles=32,
        )
        res = Simulator(HW).run(image)
        dac = res.dac[0]
        assert np.all(dac[:96, 0] == FULL_SCALE)
        assert res.saturation_count == 96

    def test_distinct_destinations_do_not_mix(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(element=0, dest=0, length=96), up_cmd(element=1, dest=1, length=96)],
            envelopes={0: words, 1: words},
            repeat_cycles=32,
        )
        res = Simulator(HW).run(image)
        assert np.all(res.dac[0][:96, 0] == FULL_SCALE)
        assert np.all(res.dac[1][:96, 0] == FULL_SCALE)
        assert res.saturation_count == 0

    def test_envelope_out_of_range_reads_zero_and_logs(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(start=1020, length=96)], envelopes={0: words}, repeat_cycles=32
        )
        res = Simulator(HW).run(image, shots=3)
        assert np.all(res.dac[0][:96] == 0)  # stored words end at 96 anyway
        # found once when the program is prepared, logged in every shot
        assert [(f.shot, f.kind) for f in res.fault_log] == [
            (shot, "envelope_oob") for shot in range(3)
        ]

    def test_determinism(self):
        words, _ = env_words(kind="DRAG", sigma_fraction=0.25, alpha=0.5)
        image = ProgramImage(
            commands=[up_cmd(length=96, freq=223e6)], envelopes={0: words}, repeat_cycles=32
        )
        a = Simulator(HW).run(image).dac[0]
        b = Simulator(HW).run(image).dac[0]
        assert np.array_equal(a, b)


class TestSequencerChecks:
    def test_window_beyond_repeat_period(self):
        words, _ = env_words()
        image = ProgramImage(commands=[up_cmd(length=96)], envelopes={0: words}, repeat_cycles=8)
        with pytest.raises(SimulationError, match="repeat"):
            Simulator(HW).run(image)

    def test_element_busy(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(trig_t=0, length=96), up_cmd(trig_t=10, length=96)],
            envelopes={0: words},
            repeat_cycles=64,
        )
        with pytest.raises(SimulationError, match="busy"):
            Simulator(HW).run(image)

    def test_trig_t_must_not_decrease(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(trig_t=40, length=8), up_cmd(trig_t=0, length=8)],
            envelopes={0: words},
            repeat_cycles=64,
        )
        with pytest.raises(SimulationError, match="trig_t"):
            Simulator(HW).run(image)

    def test_unknown_element(self):
        image = ProgramImage(commands=[up_cmd(element=200, length=0)], envelopes={}, repeat_cycles=8)
        with pytest.raises(SimulationError, match="element"):
            Simulator(HW).run(image)

    def test_destination_out_of_range(self):
        hw = load_hardware_config('{"n_dac_pairs": 2}')
        image = ProgramImage(commands=[up_cmd(dest=3, length=0)], envelopes={}, repeat_cycles=8)
        with pytest.raises(SimulationError, match="destination"):
            Simulator(hw).run(image)

    @pytest.mark.parametrize("bad", [-1, 1 << 32, 1 << 63, 1 << 64])
    def test_envelope_word_outside_32_bits(self, bad):
        with pytest.raises(SimulationError, match=f"element 3: envelope word {bad:#x} does not fit"):
            ProgramImage(commands=[], envelopes={3: [0, bad]}, repeat_cycles=8)

    def test_envelope_words_held_as_int_tuples(self):
        words = np.array([0, 0xFFFFFFFF, 7], dtype=">u4")
        image = ProgramImage(commands=[], envelopes={np.int64(2): words}, repeat_cycles=8)
        assert image.envelopes == {2: (0, 0xFFFFFFFF, 7)}
        assert all(type(w) is int for w in image.envelopes[2])


class TestDownPath:
    def test_loopback_accumulation(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(length=96), down_cmd(length=96)],
            envelopes={0: words},
            repeat_cycles=32,
        )
        res = Simulator(HW, wiring=Loopback(0)).run(image)
        (entry,) = res.acc_complex(16, normalize=True)
        # full-scale DC tone times a matched zero-frequency DLO
        # integrates to the window length
        assert entry.real == pytest.approx(96, rel=1e-3)
        assert abs(entry.imag) <= 1

    def test_open_loop_accumulates_zero(self):
        image = ProgramImage(commands=[down_cmd(length=96)], envelopes={}, repeat_cycles=32)
        res = Simulator(HW).run(image)
        assert res.acc[16].tolist() == [[0, 0]]

    def test_acc_entries_append_per_shot(self):
        image = ProgramImage(commands=[down_cmd(length=96)], envelopes={}, repeat_cycles=32)
        res = Simulator(HW).run(image, shots=5)
        assert res.acc[16].shape == (5, 2)
        assert res.shots_completed == 5

    def test_acc_capacity_stops_run(self):
        hw = load_hardware_config('{"acc_buffer_depth": 3}')
        image = ProgramImage(commands=[down_cmd(length=96)], envelopes={}, repeat_cycles=32)
        res = Simulator(hw).run(image, shots=10)
        assert res.shots_completed == 3
        assert res.acc[16].shape == (3, 2)

    def test_loopback_delay(self):
        words, _ = env_words()
        # Delay pushes half the 96-sample pulse out of a matched window.
        image = ProgramImage(
            commands=[up_cmd(length=96), down_cmd(length=96)],
            envelopes={0: words},
            repeat_cycles=32,
        )
        res = Simulator(HW, wiring=Loopback(48)).run(image)
        (entry,) = res.acc_complex(16)
        assert entry.real == pytest.approx(48, rel=1e-3)

    def test_demodulation_rejects_detuned_tone(self):
        words, _ = env_words(twidth=1024e-9)
        freq = 100e6
        image = ProgramImage(
            commands=[
                up_cmd(length=1024, freq=freq),
                down_cmd(length=1024, freq=freq),
                down_cmd(element=17, length=1024, freq=150e6),
            ],
            envelopes={0: words},
            repeat_cycles=256,
        )
        res = Simulator(HW, wiring=Loopback(0)).run(image)
        (matched,) = res.acc_complex(16)
        (detuned,) = res.acc_complex(17)
        assert abs(matched) == pytest.approx(1024, rel=1e-3)
        # 50 MHz offset over 1024 ns is an integer number of beat
        # periods, so the detuned accumulator nearly cancels.
        assert abs(detuned) < 0.01 * abs(matched)


class TestRoundtrip:
    def run_roundtrip(self, kind, params, freq, phase, twidth=512e-9):
        words, env = env_words(kind=kind, twidth=twidth, **params)
        n = len(env.samples)
        image = ProgramImage(
            commands=[
                up_cmd(length=n, freq=freq, phase=phase),
                down_cmd(length=n, freq=freq, phase=phase),
            ],
            envelopes={0: words},
            repeat_cycles=max(32, (n + 3) // 4 + 4),
        )
        sim = Simulator(HW, wiring=Loopback(0))
        adc = sim.run(image, acq=AcqConfig(tap="adc", unit=0, length=n)).acq_complex()
        dlo = sim.run(image, acq=AcqConfig(tap="dlo", unit=16, length=n)).acq_complex()
        recovered = adc * np.conj(dlo) / (FULL_SCALE * FULL_SCALE)
        return recovered, env.samples

    def test_drag_envelope_recovered(self):
        recovered, original = self.run_roundtrip(
            "DRAG", {"sigma_fraction": 0.25, "alpha": 0.5}, 312.5e6, 1.1
        )
        assert np.abs(recovered - original).max() <= 2.0 ** -13

    def test_random_envelope_recovered(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
        vals /= np.max(np.abs(vals))
        spec = EnvelopeSpec(kind="custom_samples", samples=tuple(vals))
        env = generate(spec, 256e-9, HW.dt)
        words = pack(env).words
        image = ProgramImage(
            commands=[
                up_cmd(length=256, freq=88e6, phase=2.2),
                down_cmd(length=256, freq=88e6, phase=2.2),
            ],
            envelopes={0: words},
            repeat_cycles=128,
        )
        sim = Simulator(HW, wiring=Loopback(0))
        adc = sim.run(image, acq=AcqConfig(tap="adc", unit=0, length=256)).acq_complex()
        dlo = sim.run(image, acq=AcqConfig(tap="dlo", unit=16, length=256)).acq_complex()
        recovered = adc * np.conj(dlo) / (FULL_SCALE * FULL_SCALE)
        assert np.abs(recovered - env.samples).max() <= 2.0 ** -13


class TestConditionalGating:
    def make_image(self, condition, trig_t=30):
        words, _ = env_words()
        # down window completes at cycle 24, conditional pulse at cycle 30
        return ProgramImage(
            commands=[
                down_cmd(element=16, trig_t=0, length=96),
                up_cmd(element=0, trig_t=trig_t, length=96, condition=condition),
            ],
            envelopes={0: words},
            repeat_cycles=64,
        )

    @staticmethod
    def injecting(level):
        def fn(shot, dac_reader, rng):
            stream = np.zeros((64 * 4, 2), dtype=np.int64)
            stream[:96, 0] = level
            return {0: stream}

        return fn

    def test_flag_set_runs_pulse(self):
        sim = Simulator(
            HW,
            wiring=External(self.injecting(20000)),
            classifier_map={16: StateClassifier(angle=0.0, threshold=1000.0)},
        )
        res = sim.run(self.make_image(condition=1))
        assert res.flags[16] == 1
        assert np.any(res.dac[0][:, 0] == FULL_SCALE)

    def test_flag_clear_skips_pulse(self):
        sim = Simulator(
            HW,
            wiring=External(self.injecting(0)),
            classifier_map={16: StateClassifier(angle=0.0, threshold=1000.0)},
        )
        res = sim.run(self.make_image(condition=1))
        assert res.flags[16] == 0
        assert np.all(res.dac[0] == 0)

    def test_flag_seen_on_its_completion_cycle(self):
        sim = Simulator(
            HW,
            wiring=External(self.injecting(20000)),
            classifier_map={16: StateClassifier(angle=0.0, threshold=1000.0)},
        )
        res = sim.run(self.make_image(condition=1, trig_t=24))
        assert np.any(res.dac[0][:, 0] == FULL_SCALE)

    def test_unconditional_ignores_flag(self):
        sim = Simulator(
            HW,
            wiring=External(self.injecting(0)),
            classifier_map={16: StateClassifier(angle=0.0, threshold=1000.0)},
        )
        res = sim.run(self.make_image(condition=0))
        assert np.any(res.dac[0][:, 0] == FULL_SCALE)

    def test_missing_flag_source_rejected(self):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(element=5, trig_t=0, length=96, condition=1)],
            envelopes={5: words},
            repeat_cycles=32,
        )
        sim = Simulator(HW, condition_map={})
        with pytest.raises(SimulationError, match="flag source"):
            sim.run(image)

    def test_missing_flag_source_rejected_before_any_shot(self):
        # the default condition map gates up elements only
        image = ProgramImage(
            commands=[down_cmd(element=16, length=96, condition=1)],
            envelopes={},
            repeat_cycles=32,
        )
        sim = Simulator(HW)
        with pytest.raises(SimulationError, match="element 16 has a conditional command"):
            sim.prepare(wire_words(image.commands), image.repeat_cycles, image.envelopes)
        with pytest.raises(SimulationError, match="no flag source"):
            sim.run(image, shots=0)

    def test_classifier_rotation(self):
        clf = StateClassifier(angle=math.pi / 2, threshold=0.0)
        # rotation maps +Q onto +I
        assert clf.classify(0, -1000) == 1
        assert clf.classify(0, 1000) == 0


class TestAcquisition:
    def test_dac_tap(self):
        words, _ = env_words()
        image = ProgramImage(commands=[up_cmd(length=96)], envelopes={0: words}, repeat_cycles=32)
        res = Simulator(HW).run(image, acq=AcqConfig(tap="dac", unit=0, length=128))
        assert np.all(res.acq[:96, 0] == FULL_SCALE)
        assert np.all(res.acq[96:] == 0)

    def test_acq_length_capped_by_depth(self):
        image = ProgramImage(commands=[], envelopes={}, repeat_cycles=32)
        with pytest.raises(SimulationError, match="depth"):
            Simulator(HW).run(image, acq=AcqConfig(tap="dac", unit=0, length=10_000))

    def test_adc_tap_saturates_to_16_bits(self):
        # the wire's ACQ words hold 16-bit I/Q, so a local capture does too
        def fn(shot, dac_reader, rng):
            return {0: np.array([[40000, -40000], [-32768, 32767], [5, -5]])}

        image = ProgramImage(commands=[], envelopes={}, repeat_cycles=32)
        res = Simulator(HW, wiring=External(fn)).run(image, acq=AcqConfig(unit=0, length=4))
        assert res.acq.tolist() == [[32767, -32768], [-32768, 32767], [5, -5], [0, 0]]

    def test_external_streams_drawn_again_each_run(self):
        # a reused simulator calls fn with each run's own shot streams
        def fn(shot, dac_reader, rng):
            return {0: rng.integers(-1000, 1000, size=(8, 2))}

        image = ProgramImage(commands=[], envelopes={}, repeat_cycles=32)
        acq = AcqConfig(unit=0, length=8)
        sim = Simulator(HW, wiring=External(fn))
        first, second = (sim.run(image, acq=acq, seed=seed).acq for seed in (1, 2))
        fresh = Simulator(HW, wiring=External(fn)).run(image, acq=acq, seed=2).acq
        assert np.array_equal(second, fresh)
        assert not np.array_equal(first, second)

    def test_dlo_tap_zero_outside_window(self):
        image = ProgramImage(commands=[down_cmd(trig_t=4, length=32)], envelopes={}, repeat_cycles=32)
        res = Simulator(HW).run(image, acq=AcqConfig(tap="dlo", unit=16, length=64))
        assert np.all(res.acq[:16] == 0)
        assert res.acq[16, 0] == FULL_SCALE  # cos at phase 0


# ---------------------------------------------------------------------------
# Synthesis once per run


def assert_per_window(res, image, shots, delay, tap):
    """``res``, a run with a whole-period capture of LO tap ``tap``,
    equals ``per_window_run`` field for field."""
    n_samples = image.repeat_cycles * HW.samples_per_cycle
    acc, dac, dlo, faults = per_window_run(image, shots, delay)
    assert res.shots_completed == shots
    assert set(res.acc) == set(acc)
    for element, entries in acc.items():
        assert res.acc[element].tolist() == [list(e) for e in entries]
    for pair in range(HW.n_dac_pairs):
        assert np.array_equal(res.dac[pair], dac[pair])
    assert np.array_equal(res.acq, dlo.get(tap, np.zeros((n_samples, 2))))
    assert [(f.shot, f.element, f.kind, f.detail) for f in res.fault_log] == faults


def per_window_run(image, shots, delay):
    """The per-window algorithm: one CORDIC call per window per shot.

    Runs ``image`` under ``Loopback(delay)`` with the default condition
    map and classifiers.  Returns the accumulator entries, the final
    shot's saturated DAC pairs and LO taps, and the fault log as
    (shot, element, kind, detail) tuples.
    """
    spc = HW.samples_per_cycle
    depth = HW.envelope_buffer_depth
    n_up = HW.n_processing_elements_up
    n_samples = image.repeat_cycles * spc
    events = []
    for pos, cmd in enumerate(decode(w) for w in image.commands):
        if cmd.element < n_up:
            events.append((cmd.trig_t, 1, cmd.element, pos, cmd))
        else:
            events.append((cmd.trig_t + -(-cmd.length // spc), 0, cmd.element, pos, cmd))
    events.sort(key=lambda ev: ev[:4])
    acc = {ev[2]: [] for ev in events if ev[1] == 0}
    faults = []
    for shot in range(shots):
        dac = np.zeros((HW.n_dac_pairs, n_samples, 2), dtype=np.int64)
        dlo = {}
        flags = {}
        for _, up, element, _, cmd in events:
            if cmd.condition and not flags.get(n_up + element, 0):
                continue
            if up and cmd.length == 0:
                continue
            n0 = cmd.trig_t * spc
            n1 = n0 + cmd.length
            turn = (cmd.phase_word << (24 - PHASE_WORD_BITS)) + cmd.freq_word * np.arange(n0, n1)
            ci, cq = cordic_cos_sin(turn % TURNS)
            if up:
                hi = cmd.start + cmd.length
                if hi > depth:
                    detail = f"read [{cmd.start}, {hi}) beyond depth {depth}; zeros emitted"
                    faults.append((shot, element, "envelope_oob", detail))
                stored = image.envelopes.get(element, ())[: min(hi, depth)]
                words = np.zeros(cmd.length, dtype=np.int64)
                words[: max(len(stored) - cmd.start, 0)] = stored[cmd.start :]
                ei, eq = iq_lanes(words)
                dac[cmd.destination, n0:n1, 0] += _div_full_scale(ei * ci - eq * cq)
                dac[cmd.destination, n0:n1, 1] += _div_full_scale(ei * cq + eq * ci)
                continue
            seen = np.clip(dac[cmd.destination], -FULL_SCALE, FULL_SCALE)
            adc = np.zeros((cmd.length, 2), dtype=np.int64)
            lo = max(n0, delay)
            if n1 > lo:
                adc[lo - n0 :] = seen[lo - delay : n1 - delay]
            dlo.setdefault(element, np.zeros((n_samples, 2), dtype=np.int64))
            dlo[element][n0:n1] = np.stack((ci, cq), axis=1)
            sum_i = int(np.sum(adc[:, 0] * ci + adc[:, 1] * cq))
            sum_q = int(np.sum(adc[:, 1] * ci - adc[:, 0] * cq))
            entry = (int(_div_full_scale(sum_i)), int(_div_full_scale(sum_q)))
            flags[element] = 1 if entry[0] > 0 else 0
            acc[element].append(entry)
    dac = np.clip(dac, -FULL_SCALE, FULL_SCALE)
    return acc, dac, dlo, faults


@st.composite
def window_images(draw):
    """Images with random carriers, odd lengths, zero-length windows,
    envelope reads past depth and conditional up commands."""
    n_up = HW.n_processing_elements_up
    spc = HW.samples_per_cycle
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    elements = draw(st.lists(st.sampled_from([0, 1, 2, n_up, n_up + 1]), unique=True))
    fields = []
    end_cycle = 1
    completions = {}  # down element -> cycles its windows complete on
    for element in sorted(elements, reverse=True):  # down elements first
        up = element < n_up
        cycle = 0
        for _ in range(draw(st.integers(1, 5))):
            # An up window may trigger on the cycle its flag source's
            # window completes.
            meets = [c for c in completions.get(n_up + element, ()) if c >= cycle]
            cycle = draw(st.integers(cycle, cycle + 6) | st.sampled_from(meets or [cycle]))
            length = draw(st.integers(0, 9) | st.integers(10, 70))
            fields.append(
                CommandFields(
                    trig_t=cycle,
                    start=draw(st.integers(0, 1100) | st.integers(990, 4095)) if up else 0,
                    length=length,
                    freq_word=draw(st.integers(0, TURNS - 1)),
                    phase_word=draw(st.integers(0, 2**PHASE_WORD_BITS - 1)),
                    element=element,
                    destination=draw(st.just(0) | st.integers(1, HW.n_dac_pairs - 1)),
                    condition=draw(st.integers(0, 1)) if up else 0,
                )
            )
            cycle += -(-length // spc)
            completions.setdefault(element, []).append(cycle)
        end_cycle = max(end_cycle, cycle)
    fields.sort(key=lambda c: c.trig_t)  # stable: each element keeps its order
    envelopes = {
        e: rng.integers(0, 2**32, draw(st.integers(0, 1100) | st.just(1100))).tolist()
        for e in elements
        if e < n_up
    }
    return ProgramImage(
        commands=[encode(c) for c in fields],
        envelopes=envelopes,
        repeat_cycles=end_cycle + draw(st.integers(0, 3)),
    )


class TestSynthesisOnce:
    @given(
        image=window_images(),
        shots=st.integers(1, 3),
        delay=st.sampled_from([0, 3]),
        tap=st.sampled_from([16, 17]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_window_algorithm(self, image, shots, delay, tap):
        n_samples = image.repeat_cycles * HW.samples_per_cycle
        res = Simulator(HW, wiring=Loopback(delay)).run(
            image, shots=shots, acq=AcqConfig(tap="dlo", unit=tap, length=n_samples)
        )
        assert_per_window(res, image, shots, delay, tap)

    @pytest.mark.parametrize("shots", [1, 3])
    def test_one_cordic_call_per_run(self, monkeypatch, shots):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(length=96, freq=50e6), down_cmd(length=90, freq=50e6)],
            envelopes={0: words},
            repeat_cycles=32,
        )
        calls = []
        cordic = dspsim.cordic_cos_sin
        monkeypatch.setattr(
            dspsim, "cordic_cos_sin", lambda words: calls.append(len(words)) or cordic(words)
        )
        res = Simulator(HW, wiring=Loopback(0)).run(image, shots=shots)
        assert res.shots_completed == shots
        assert calls == [96 + 90]

    def test_synthesis_runs_in_bounded_blocks(self, monkeypatch):
        # Many more window samples than one block, in windows of odd
        # lengths on three up and two down elements.
        rng = np.random.default_rng(7)
        spc = HW.samples_per_cycle
        fields = []
        end_cycle = 1
        for element in (0, 1, 2, 16, 17):
            cycle = 0
            for _ in range(12):
                length = int(rng.integers(1, 4096))
                fields.append(
                    CommandFields(
                        trig_t=cycle,
                        start=int(rng.integers(0, 1024)) if element < 16 else 0,
                        length=length,
                        freq_word=int(rng.integers(0, TURNS)),
                        phase_word=int(rng.integers(0, 2**PHASE_WORD_BITS)),
                        element=element,
                        destination=int(rng.integers(0, HW.n_dac_pairs)),
                    )
                )
                cycle += -(-length // spc) + int(rng.integers(0, 3))
            end_cycle = max(end_cycle, cycle)
        fields.sort(key=lambda c: c.trig_t)
        image = ProgramImage(
            commands=[encode(c) for c in fields],
            envelopes={e: rng.integers(0, 2**32, 1024).tolist() for e in (0, 1, 2)},
            repeat_cycles=end_cycle,
        )
        calls = []
        cordic = dspsim.cordic_cos_sin
        monkeypatch.setattr(
            dspsim, "cordic_cos_sin", lambda words: calls.append(len(words)) or cordic(words)
        )
        res = Simulator(HW, wiring=Loopback(0)).run(image, shots=2)
        assert len(calls) > 1
        assert max(calls) <= dspsim._SYNTH_BLOCK
        assert sum(calls) == sum(c.length for c in fields)
        acc, dac, _, faults = per_window_run(image, 2, 0)
        assert set(res.acc) == set(acc)
        for element, entries in acc.items():
            assert res.acc[element].tolist() == [list(e) for e in entries]
        for pair in range(HW.n_dac_pairs):
            assert np.array_equal(res.dac[pair], dac[pair])
        assert [(f.shot, f.element, f.kind, f.detail) for f in res.fault_log] == faults


@st.composite
def repeating_images(draw):
    """Unconditional images whose windows repeat on purpose: equal first
    turns at different ``n0``, equal envelope words at different
    addresses and on different elements, up and down windows of equal
    first turn and length, and repeated reads past depth."""
    n_up = HW.n_processing_elements_up
    spc = HW.samples_per_cycle
    depth = HW.envelope_buffer_depth
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # (frequency, first turn, length, words); multiples of 2**10 let a
    # phase word give any n0 the template's first turn
    steps = TURNS >> 10
    templates = [
        (
            draw(st.integers(0, steps - 1)) << 10,
            draw(st.integers(0, steps - 1)) << 10,
            draw(st.integers(1, 70)),
            rng.integers(0, 2**32, 70),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    memory = {e: rng.integers(0, 2**32, depth) for e in range(3)}
    fields = []
    end_cycle = 1
    for element in (0, 1, 2, n_up, n_up + 1):
        starts = {}  # template -> its address on this element
        free = draw(st.integers(0, 50))
        tail = None  # the template whose read runs past depth
        cycle = 0
        for _ in range(draw(st.integers(0, 6))):
            t = draw(st.integers(0, len(templates) - 1))
            freq, turn, length, words = templates[t]
            cycle = draw(st.integers(cycle, cycle + 6))
            start = 0
            if element < n_up:
                if t not in starts or draw(st.booleans()):
                    if tail is None and length > 1 and draw(st.booleans()):
                        tail = t
                        start = depth - draw(st.integers(1, length - 1))
                    else:
                        start, free = free, free + length + draw(st.integers(0, 9))
                    starts[t] = start
                    memory[element][start : start + length] = words[: depth - start][:length]
                start = starts[t]
            n0 = cycle * spc
            fields.append(
                CommandFields(
                    trig_t=cycle,
                    start=start,
                    length=length,
                    freq_word=freq,
                    phase_word=((turn - freq * n0) % TURNS) >> 10,
                    element=element,
                    destination=draw(st.integers(0, HW.n_dac_pairs - 1)),
                )
            )
            cycle += -(-length // spc)
        end_cycle = max(end_cycle, cycle)
    fields.sort(key=lambda c: c.trig_t)  # stable: each element keeps its order
    return ProgramImage(
        commands=[encode(c) for c in fields],
        envelopes={e: words.tolist() for e, words in memory.items()},
        repeat_cycles=end_cycle + draw(st.integers(0, 3)),
    )


def distinct_window_samples(image):
    """Samples in the distinct windows of ``image``: two windows are one
    when their first turn words, frequency words, lengths and, for up
    windows, the envelope words they read are equal."""
    depth = HW.envelope_buffer_depth
    windows = {}
    for cmd in map(decode, image.commands):
        words = None
        if cmd.element < HW.n_processing_elements_up:
            if not cmd.length:
                continue
            stored = list(image.envelopes.get(cmd.element, ()))[:depth]
            words = tuple(stored[cmd.start : cmd.start + cmd.length])
            words += (0,) * (cmd.length - len(words))
        n0 = cmd.trig_t * HW.samples_per_cycle
        turn = ((cmd.phase_word << (24 - PHASE_WORD_BITS)) + cmd.freq_word * n0) % TURNS
        windows[(turn, cmd.freq_word, cmd.length, words)] = cmd.length
    return sum(windows.values())


def cordic_samples(monkeypatch):
    """Record the sample count of every CORDIC call into the list returned."""
    calls = []
    cordic = dspsim.cordic_cos_sin
    monkeypatch.setattr(
        dspsim, "cordic_cos_sin", lambda words: calls.append(len(words)) or cordic(words)
    )
    return calls


class TestSynthesisMemo:
    @given(
        image=repeating_images(),
        shots=st.integers(1, 3),
        delay=st.sampled_from([0, 3]),
        tap=st.sampled_from([16, 17]),
    )
    @settings(max_examples=100, deadline=None)
    def test_second_run_is_all_hits(self, image, shots, delay, tap):
        sim = Simulator(HW, wiring=Loopback(delay))
        acq = AcqConfig(tap="dlo", unit=tap, length=image.repeat_cycles * HW.samples_per_cycle)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = cordic_samples(monkeypatch)
            first = sim.run(image, shots=shots, acq=acq)
            assert sum(calls) == distinct_window_samples(image)
            calls.clear()
            second = sim.run(image, shots=shots, acq=acq)
            assert calls == []
        assert_per_window(first, image, shots, delay, tap)
        assert_per_window(second, image, shots, delay, tap)

    @given(image=repeating_images(), delay=st.sampled_from([0, 3]))
    @settings(max_examples=30, deadline=None)
    def test_clear_mid_program_still_matches(self, image, delay):
        bound = 48
        distinct = distinct_window_samples(image)
        assume(distinct > 2 * bound)
        sim = Simulator(HW, wiring=Loopback(delay))
        acq = AcqConfig(tap="dlo", unit=16, length=image.repeat_cycles * HW.samples_per_cycle)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(dspsim, "_MEMO_SAMPLES", bound)
            calls = cordic_samples(monkeypatch)
            runs = [sim.run(image, shots=2, acq=acq) for _ in range(2)]
            # the first run clears the memo as it fills, so the second
            # synthesizes again what the clears dropped
            assert sum(calls) > distinct
        assert sim._memo_samples <= max(bound, max(map(len, sim._memo.values())))
        for res in runs:
            assert_per_window(res, image, 2, delay, 16)

    def test_shared_simulator_keeps_its_memo_consistent(self):
        # more threads than cores run distinct programs on one simulator
        # whose memo clears often; a lost update would break the count
        words, _ = env_words()
        tone = ProgramImage(
            [up_cmd(length=96, freq=50e6), down_cmd(length=90, freq=50e6)], {0: words}, 32
        )
        images = [TestConditionalGating().make_image(c) for c in (0, 1)] + [tone]
        expected = [Simulator(HW, wiring=Loopback()).run(im, shots=2) for im in images]
        sim = Simulator(HW, wiring=Loopback())
        results, errors = {}, []

        def work(k):
            try:
                for _ in range(20):
                    results[k] = sim.run(images[k % len(images)], shots=2)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(dspsim, "_MEMO_SAMPLES", 200)
                threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sim._memo_samples == sum(len(v) for v in sim._memo.values())
        for k, res in results.items():
            want = expected[k % len(images)]
            for element in want.acc:
                assert np.array_equal(res.acc[element], want.acc[element])
            for pair in want.dac:
                assert np.array_equal(res.dac[pair], want.dac[pair])


# ---------------------------------------------------------------------------
# Shot-invariant execution


class PerShotLoopback(Loopback):
    """``Loopback`` that does not declare itself deterministic, so every
    shot of a run executes."""

    deterministic = False


def unconditional(image):
    """``image`` with the condition bit of every command cleared."""
    fields = [decode(w)._replace(condition=0) for w in image.commands]
    return ProgramImage([encode(c) for c in fields], image.envelopes, image.repeat_cycles)


class TestShotInvariance:
    @given(
        image=window_images(),
        conditional=st.booleans(),
        shots=st.integers(1, 5),
        delay=st.sampled_from([0, 3]),
        tap=st.sampled_from([("adc", 0), ("adc", 1), ("dac", 0), ("dlo", 16), ("dlo", 17)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_replayed_shots_equal_executed_shots(self, image, conditional, shots, delay, tap):
        if not conditional:
            image = unconditional(image)
        acq = AcqConfig(tap=tap[0], unit=tap[1], length=image.repeat_cycles * HW.samples_per_cycle)
        replayed = Simulator(HW, wiring=Loopback(delay)).run(image, shots=shots, acq=acq)
        executed = Simulator(HW, wiring=PerShotLoopback(delay)).run(image, shots=shots, acq=acq)
        assert replayed.shots_completed == executed.shots_completed == shots
        assert set(replayed.acc) == set(executed.acc)
        for element in executed.acc:
            assert np.array_equal(replayed.acc[element], executed.acc[element])
        assert np.array_equal(replayed.acq, executed.acq)
        assert set(replayed.dac) == set(executed.dac)
        for pair in executed.dac:
            assert np.array_equal(replayed.dac[pair], executed.dac[pair])
        assert replayed.fault_log == executed.fault_log  # shot numbers included
        assert replayed.saturation_count == executed.saturation_count
        assert replayed.flags == executed.flags

    def test_envelope_faults_repeat_with_each_shot_number(self):
        depth = HW.envelope_buffer_depth
        image = ProgramImage(
            commands=[up_cmd(start=depth - 16, length=32)], envelopes={}, repeat_cycles=8
        )
        res = Simulator(HW, wiring=Loopback()).run(image, shots=3)
        assert [(f.shot, f.kind) for f in res.fault_log] == [(k, "envelope_oob") for k in range(3)]
        assert len({id(f) for f in res.fault_log}) == 3

    @pytest.mark.parametrize(
        "wiring", [Loopback(), PerShotLoopback()], ids=["replayed", "executed"]
    )
    def test_envelope_faults_carry_their_trigger_cycle(self, wiring):
        command = up_cmd(trig_t=5, start=HW.envelope_buffer_depth - 16, length=32)
        image = ProgramImage(commands=[command], envelopes={}, repeat_cycles=32)
        res = Simulator(HW, wiring=wiring).run(image, shots=3)
        assert [(f.shot, f.cycle) for f in res.fault_log] == [(k, 5) for k in range(3)]

    @staticmethod
    def executions(monkeypatch):
        calls = []
        execute = dspsim._ShotState.execute
        monkeypatch.setattr(
            dspsim._ShotState, "execute", lambda state: calls.append(state.shot) or execute(state)
        )
        return calls

    @pytest.mark.parametrize("wiring", [Loopback(0), OpenLoop()], ids=["loopback", "open_loop"])
    def test_unconditional_run_executes_one_shot(self, monkeypatch, wiring):
        calls = self.executions(monkeypatch)
        res = Simulator(HW, wiring=wiring).run(TestConditionalGating().make_image(0), shots=6)
        assert res.shots_completed == 6
        assert calls == [0]

    def test_conditional_run_executes_every_shot(self, monkeypatch):
        calls = self.executions(monkeypatch)
        res = Simulator(HW, wiring=Loopback(0)).run(TestConditionalGating().make_image(1), shots=6)
        assert res.shots_completed == 6
        assert calls == list(range(6))

    def test_external_wiring_executes_every_shot(self, monkeypatch):
        calls = self.executions(monkeypatch)
        wiring = External(TestConditionalGating.injecting(0))
        res = Simulator(HW, wiring=wiring).run(TestConditionalGating().make_image(0), shots=6)
        assert res.shots_completed == 6
        assert calls == list(range(6))

    def test_random_streams_only_for_wirings_that_read_them(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
        images = [TestConditionalGating().make_image(condition) for condition in (0, 1)]
        # one shot replayed, every shot executed, and no ADC input at all
        for wiring, image in zip((Loopback(0), Loopback(0), OpenLoop()), images + images[:1]):
            assert Simulator(HW, wiring=wiring).run(image, shots=3, seed=9).shots_completed == 3
        assert made == []
        draws = []

        def fn(shot, dac, rng):
            draws.append(rng.integers(1 << 62))
            return {}

        Simulator(HW, wiring=External(fn)).run(images[0], shots=3, seed=9)
        assert made == [((9, shot),) for shot in range(3)]
        assert draws == [default_rng((9, shot)).integers(1 << 62) for shot in range(3)]


class TestRepeatBound:
    def test_bound_is_the_longest_command_reach(self):
        # a window of the longest length, triggered on the last cycle, at
        # one sample per cycle
        assert MAX_REPEAT_CYCLES == (2**24 - 1) + (2**12 - 1)

    def test_bound_accepted(self):
        assert ProgramImage((), {}, MAX_REPEAT_CYCLES).repeat_cycles == MAX_REPEAT_CYCLES

    @pytest.mark.parametrize("cycles", [MAX_REPEAT_CYCLES + 1, 2**32 - 1])
    def test_beyond_bound_rejected(self, cycles):
        with pytest.raises(SimulationError, match=f"repeat_cycles {cycles} exceeds"):
            ProgramImage((), {}, cycles)


# ---------------------------------------------------------------------------
# Program intake


def reference_prepare(sim, image):
    """The multi-pass ``Simulator.prepare`` that the one-pass intake
    replaced, kept as the oracle of the columnar intake: (shot_samples,
    windows, events, envelopes), or SimulationError.  Each event is
    (up, command, first sample, flag source or None, fault detail or
    None), in execution order."""
    hw = sim.hw
    if len(image.commands) > hw.command_buffer_depth:
        raise SimulationError(
            f"{len(image.commands)} commands exceed buffer depth {hw.command_buffer_depth}"
        )
    spc = hw.samples_per_cycle
    shot_samples = image.repeat_cycles * spc
    decoded = []
    for pos, word in enumerate(image.commands):
        try:
            decoded.append(decode(word))
        except EncodingError as exc:
            raise SimulationError(f"command {pos}: {exc}") from None
    per_element = {}
    for pos, cmd in enumerate(decoded):
        if cmd.element >= hw.n_elements:
            raise SimulationError(f"command {pos}: element {cmd.element} out of range")
        if cmd.destination >= hw.n_dac_pairs:
            raise SimulationError(
                f"command {pos}: destination {cmd.destination} out of range "
                f"(n_dac_pairs={hw.n_dac_pairs})"
            )
        n0 = cmd.trig_t * spc
        if n0 + cmd.length > shot_samples:
            raise SimulationError(
                f"command {pos}: window ends at sample {n0 + cmd.length}, "
                f"beyond the {shot_samples}-sample repeat period"
            )
        per_element.setdefault(cmd.element, []).append((pos, cmd))
    for element, cmds in per_element.items():
        last_end = -1
        prev_trig = -1
        for pos, cmd in cmds:
            if cmd.trig_t < prev_trig:
                raise SimulationError(f"element {element}: trig_t decreases at command {pos}")
            n0 = cmd.trig_t * spc
            if n0 < last_end:
                raise SimulationError(f"element {element}: command {pos} triggers while busy")
            last_end = max(last_end, n0 + cmd.length)
            prev_trig = cmd.trig_t
        if any(cmd.condition for _, cmd in cmds) and sim.condition_map.get(element) is None:
            raise SimulationError(
                f"element {element} has a conditional command but no flag source"
            )
    order = []
    for element, cmds in per_element.items():
        up = hw.element_direction(element) == "up"
        for pos, cmd in cmds:
            if not up:
                order.append((cmd.trig_t + -(-cmd.length // spc), 0, element, pos))
            elif cmd.length:
                order.append((cmd.trig_t, 1, element, pos))
    order.sort()
    depth = hw.envelope_buffer_depth
    events = []
    reach = {}
    for _, up, element, pos in order:
        cmd = decoded[pos]
        end = cmd.start + cmd.length
        fault = None
        if up:
            reach[element] = max(reach.get(element, 0), end)
            if end > depth:
                fault = f"read [{cmd.start}, {end}) beyond depth {depth}; zeros emitted"
        source = sim.condition_map[element] if cmd.condition else None
        events.append((bool(up), cmd, cmd.trig_t * spc, source, fault))
    memory = {}
    for element, n in reach.items():
        stored = image.envelopes.get(element, ())[: min(n, depth)]
        memory[element] = np.zeros(n, dtype=np.int64)
        memory[element][: len(stored)] = stored
    return shot_samples, dspsim.acc_windows(decoded, hw.n_processing_elements_up), events, memory


def faulty_positions(sim, image):
    """Every command a check rejects, each judged against the commands
    before it on its element as if none had been rejected."""
    hw = sim.hw
    spc = hw.samples_per_cycle
    last = {}
    faulty = []
    for pos, word in enumerate(image.commands):
        try:
            cmd = decode(word)
        except EncodingError:
            faulty.append(pos)
            continue
        n0, end = cmd.trig_t * spc, cmd.trig_t * spc + cmd.length
        prev_trig, busy_until = last.get(cmd.element, (-1, -1))
        last[cmd.element] = (cmd.trig_t, max(busy_until, end))
        if (
            cmd.element >= hw.n_elements
            or cmd.destination >= hw.n_dac_pairs
            or end > image.repeat_cycles * spc
            or cmd.trig_t < prev_trig
            or n0 < busy_until
            or (cmd.condition and sim.condition_map.get(cmd.element) is None)
        ):
            faulty.append(pos)
    return faulty


HW3 = load_hardware_config('{"n_dac_pairs": 3}')  # destination 3 is out of range

_MUTATIONS = ("reserved", "element", "destination", "trig_t", "length", "condition")


@st.composite
def intake_images(draw):
    """``window_images`` with up to three words mutated: reserved bits,
    an out-of-range element or destination, a new trig_t or length
    (windows past the period, decreasing trig_t, overlaps), or a set
    condition bit (a conditional command without a flag source)."""
    image = draw(window_images())
    words = list(image.commands)
    for _ in range(draw(st.integers(0, 3)) if words else 0):
        pos = draw(st.integers(0, len(words) - 1))
        kind = draw(st.sampled_from(_MUTATIONS))
        if kind == "reserved":
            words[pos] |= 1 << draw(st.integers(97, 127))
            continue
        try:
            cmd = decode(words[pos])
        except EncodingError:
            continue
        if kind == "element":
            cmd = cmd._replace(element=draw(st.integers(HW.n_elements, 255)))
        elif kind == "destination":
            cmd = cmd._replace(destination=3)
        elif kind == "trig_t":
            near = st.integers(max(cmd.trig_t - 3, 0), cmd.trig_t + 3)
            cmd = cmd._replace(trig_t=draw(near | st.integers(0, image.repeat_cycles + 2)))
        elif kind == "length":
            cmd = cmd._replace(length=draw(st.integers(0, 4095)))
        else:
            cmd = cmd._replace(condition=1)
        words[pos] = encode(cmd)
    return ProgramImage(words, image.envelopes, image.repeat_cycles)


def wire_words(words):
    """Command ints as the (n, 2) big-endian halves COMMAND memory holds."""
    return np.frombuffer(commands_to_bytes(words), ">u8").reshape(-1, 2)


def prepared_events(prepared):
    """The columns of ``prepared`` as one (up, fields, n0, source, fault)
    tuple per window, in the form of ``reference_prepare``'s events."""
    p = prepared
    columns = (p.up, *p.cmd, p.source, p.n0)
    assert {c.shape for c in columns} <= {(len(p.fault),)}
    events = []
    for up, *fields, source, n0, fault in zip(*(c.tolist() for c in columns), p.fault):
        cmd = CommandFields._make(fields)
        events.append((up, cmd, n0, None if source < 0 else source, fault))
    return events


class TestIntake:
    @given(
        image=intake_images(),
        hw=st.sampled_from([HW, HW3]),
        condition_map=st.sampled_from([None, {}]),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_the_reference(self, image, hw, condition_map):
        sim = Simulator(hw, condition_map=condition_map)
        try:
            expected, expected_error = reference_prepare(sim, image), None
        except SimulationError as exc:
            expected_error = str(exc)
        try:
            words = wire_words(image.commands)
            got, error = sim.prepare(words, image.repeat_cycles, image.envelopes), None
        except SimulationError as exc:
            error = str(exc)
        faulty = faulty_positions(sim, image)
        if expected_error is None:
            assert error is None and faulty == []
            shot_samples, windows, events, envelopes = expected
            assert got.shot_samples == shot_samples
            assert list(got.windows.items()) == list(windows.items())
            assert prepared_events(got) == events
            assert got.envelopes.keys() == envelopes.keys()
            for element, words in envelopes.items():
                assert got.envelopes[element].dtype == words.dtype
                assert np.array_equal(got.envelopes[element], words)
            assert np.all(got.n0 + got.cmd.length <= got.window_end)
            assert got.window_end <= shot_samples
        else:
            # every command before the lowest faulty one passes, so the
            # error is the reference's on the program that ends there
            lowest = ProgramImage(
                image.commands[: faulty[0] + 1], image.envelopes, image.repeat_cycles
            )
            with pytest.raises(SimulationError) as reference:
                reference_prepare(sim, lowest)
            assert error == str(reference.value)
            if len(faulty) == 1:
                assert error == expected_error

    def test_several_faults_report_the_lowest(self):
        image = ProgramImage(
            [up_cmd(element=0, trig_t=4, length=16), up_cmd(element=200), 1 << 100],
            {},
            8,
        )
        with pytest.raises(SimulationError, match="^command 1: element 200 out of range$"):
            Simulator(HW).prepare(wire_words(image.commands), image.repeat_cycles, image.envelopes)

    @pytest.mark.parametrize(
        "commands, message",
        [
            (
                # busy at 1, reserved bits at 3
                [up_cmd(length=64), up_cmd(trig_t=8, length=16), up_cmd(element=1), 1 << 100],
                "element 0: command 1 triggers while busy",
            ),
            (
                # reserved bits at 1, busy at 3
                [up_cmd(length=64), 1 << 100, up_cmd(element=1), up_cmd(trig_t=8, length=16)],
                "command 1: nonzero reserved bits in a command word",
            ),
            (
                # a decreasing trig_t at 2 also overlaps; a window past the period at 3
                [
                    up_cmd(trig_t=20, length=8),
                    up_cmd(element=1),
                    up_cmd(trig_t=18, length=8),
                    up_cmd(trig_t=0, length=999),
                ],
                "element 0: trig_t decreases at command 2",
            ),
            (
                # no flag source at 0, an unknown element at 1
                [down_cmd(condition=1), up_cmd(element=250)],
                "element 16 has a conditional command but no flag source",
            ),
            (
                # a window past the period at 1 on an element with no flag source
                [up_cmd(), down_cmd(trig_t=30, length=64, condition=1)],
                "command 1: window ends at sample 184, beyond the 128-sample repeat period",
            ),
            # the highest and the lowest reserved bit
            ([up_cmd(), up_cmd(element=1), 1 << 127], "command 2: nonzero reserved bits in a command word"),
            (
                [up_cmd(), down_cmd(), (1 << 97) | up_cmd(element=1)],
                "command 2: nonzero reserved bits in a command word",
            ),
            ([up_cmd(), up_cmd(element=250), up_cmd(element=60)], "command 1: element 250 out of range"),
            (
                [up_cmd(), up_cmd(element=1, trig_t=31, length=8)],
                "command 1: window ends at sample 132, beyond the 128-sample repeat period",
            ),
            # a word that fails decoding after the lowest faulty position
            ([up_cmd(element=40), 1 << 100], "command 0: element 40 out of range"),
            # several checks failing at one position: the first one names it
            ([up_cmd(element=40) | 1 << 100], "command 0: nonzero reserved bits in a command word"),
            ([up_cmd(element=40, trig_t=30)], "command 0: element 40 out of range"),
            (
                [up_cmd(trig_t=20, length=8), up_cmd(trig_t=10, length=999)],
                "command 1: window ends at sample 1039, beyond the 128-sample repeat period",
            ),
            (
                [down_cmd(length=64), down_cmd(trig_t=8, condition=1)],
                "element 16: command 1 triggers while busy",
            ),
        ],
    )
    def test_lowest_failing_position_and_its_first_check_named(self, commands, message):
        image = ProgramImage(commands, {}, 32)
        sim = Simulator(HW)
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            sim.prepare(wire_words(image.commands), image.repeat_cycles, image.envelopes)
        # the first check each position fails, in the reference's order
        lowest = faulty_positions(sim, image)[0]
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            reference_prepare(sim, ProgramImage(commands[: lowest + 1], {}, 32))

    @pytest.mark.parametrize(
        "commands, message",
        [
            ([up_cmd(), up_cmd(element=1), 1 << 128], "command 2: command word does not fit 128 bits"),
            ([up_cmd(), down_cmd(), (1 << 200) + 5], "command 2: command word does not fit 128 bits"),
            ([up_cmd(), -1, up_cmd(element=60)], "command 1: command word does not fit 128 bits"),
            ([up_cmd(), -(1 << 130)], "command 1: command word does not fit 128 bits"),
            # the image holds no decoded field, so an unknown element before passes
            ([up_cmd(element=40), -5], "command 1: command word does not fit 128 bits"),
            ([1 << 128, -1], "command 0: command word does not fit 128 bits"),
        ],
    )
    def test_image_rejects_a_word_wider_than_a_command(self, commands, message):
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            ProgramImage(commands, {}, 32)

    def test_wire_words_with_reserved_bits_fail_at_their_position(self):
        words = [up_cmd(length=16), (1 << 127) | up_cmd(element=1), 1 << 97]
        with pytest.raises(
            SimulationError, match="^command 1: nonzero reserved bits in a command word$"
        ):
            Simulator(HW).prepare(wire_words(words), 32, {})

    def test_empty_program(self):
        prepared = Simulator(HW).prepare(wire_words([]), 8, {})
        assert prepared_events(prepared) == []
        assert (prepared.window_end, prepared.windows, prepared.envelopes) == (0, {}, {})

    @pytest.mark.parametrize("cycles", [0, MAX_REPEAT_CYCLES + 1])
    def test_period_outside_the_bound_rejected(self, cycles):
        with pytest.raises(SimulationError, match="repeat_cycles"):
            Simulator(HW).prepare(wire_words([]), cycles, {})

    def test_envelopes_copied(self):
        words, _ = env_words()
        memory = {0: np.array(words, dtype=">u4")}
        prepared = Simulator(HW).prepare(wire_words([up_cmd(length=96)]), 32, memory)
        memory[0][:] = 0
        assert prepared.envelopes[0].tolist() == list(words[:96])


# ---------------------------------------------------------------------------
# Shot buffers stop where the last window ends


class TestWindowEnd:
    def test_dac_reads_past_the_last_window_are_zeros(self):
        words, _ = env_words()
        image = ProgramImage(commands=[up_cmd(length=96)], envelopes={0: words}, repeat_cycles=64)
        reads = {}

        def fn(shot, dac, rng):
            reads["whole"] = dac(0, 0, 256)
            reads["tail"] = dac(0, 200, 10**6)
            reads["last"] = dac(0, -8, None)
            return {}

        # an ADC capture calls fn once the shot's windows have played
        res = Simulator(HW, wiring=External(fn)).run(image, acq=AcqConfig("adc", 0, 16))
        assert reads["whole"].shape == (256, 2) and res.dac[0].shape == (256, 2)
        assert np.array_equal(reads["whole"], res.dac[0])
        assert np.any(res.dac[0][:96]) and not np.any(res.dac[0][96:])
        assert reads["tail"].shape == (56, 2) and not np.any(reads["tail"])
        assert reads["last"].shape == (8, 2) and not np.any(reads["last"])

    def test_shot_buffers_stop_at_the_last_window(self, monkeypatch):
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(length=96), down_cmd(trig_t=4, length=32)],
            envelopes={0: words},
            repeat_cycles=4096,
        )
        states = []
        init = dspsim._ShotState.__init__
        monkeypatch.setattr(
            dspsim._ShotState,
            "__init__",
            lambda state, *a: (init(state, *a), states.append(state))[0],
        )
        res = Simulator(HW, wiring=Loopback(0)).run(
            image, acq=AcqConfig(tap="dlo", unit=16, length=200)
        )
        (state,) = states
        assert {arr.shape for arr in state.dac_sum.values()} == {(96, 2)}
        assert state.dlo_tap[16].shape == (96, 2)
        assert res.dac[0].shape == (4096 * HW.samples_per_cycle, 2)
        assert np.any(res.acq[16:48]) and not np.any(res.acq[48:])


class TestDacReads:
    def test_external_dac_reader_returns_int64(self):
        # the sums are int32; an External function still reads int64
        words, _ = env_words()
        image = ProgramImage(
            commands=[up_cmd(length=96), up_cmd(element=1, length=96), down_cmd(trig_t=24)],
            envelopes={0: words, 1: words},
            repeat_cycles=64,
        )
        reads = []

        def fn(shot, dac, rng):
            reads.extend([dac(0, 0, 256), dac(0, 50, 60), dac(1, 0, 96)])
            return {0: dac(0, 0, 256)}

        res = Simulator(HW, wiring=External(fn)).run(image, acq=AcqConfig("dac", 0, 256))
        assert [r.dtype for r in reads] == [np.int64] * 3
        assert np.array_equal(reads[0], res.dac[0]) and res.dac[0].dtype == np.int32
        # both full-scale windows sum beyond full scale and saturate
        assert reads[0].max() == FULL_SCALE and res.saturation_count > 0


class TestCaptureUnits:
    @pytest.mark.parametrize(
        "tap, unit, message",
        [
            ("adc", -1, "^no ADC pair -1$"),
            ("adc", 4, "^no ADC pair 4$"),
            ("dac", -1, "^no DAC pair -1$"),
            ("dlo", 99, "^no down element 99$"),
            ("dlo", 0, "^no down element 0$"),
            ("dlo", -1, "^no down element -1$"),
        ],
    )
    def test_capture_of_a_missing_unit_raises(self, tap, unit, message):
        words, _ = env_words()
        image = ProgramImage(commands=[up_cmd(length=96)], envelopes={0: words}, repeat_cycles=32)
        with pytest.raises(SimulationError, match=message):
            Simulator(HW, wiring=Loopback(0)).run(image, acq=AcqConfig(tap, unit, 16))

    def test_missing_unit_rejected_before_any_shot_or_check_of_the_program(self):
        image = ProgramImage(commands=[up_cmd(element=99)], envelopes={}, repeat_cycles=32)
        with pytest.raises(SimulationError, match="^no ADC pair 9$"):
            Simulator(HW).run(image, shots=0, acq=AcqConfig("adc", 9, 16))

    def test_negative_shots_rejected(self):
        image = ProgramImage(commands=[], envelopes={}, repeat_cycles=8)
        with pytest.raises(SimulationError, match="shots must be >= 0"):
            Simulator(HW).run(image, shots=-3)
