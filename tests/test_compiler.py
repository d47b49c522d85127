"""Compiler pipeline: scheduling, TimePulse lowering, command lowering."""

import json
import math
import re
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubicforge import CompileError, ConfigError, QubicForgeError, cmdcodec, compiler
from qubicforge.chipcfg import (
    load_chip_config,
    load_gate_spec,
    load_hardware_config,
    standard_channel_map,
)
from qubicforge.compiler import (
    _ceil_samples,
    _DynamicAllocator,
    _snap,
    _to_cycles,
    Circuit,
    CompiledProgram,
    GateOp,
    ScheduledCircuit,
    ScheduledGate,
    VirtualZ,
    compile_circuit,
    load_circuit,
    lower_to_tp,
    program_waveform,
    resolve_gate_name,
    schedule,
    simulate_program,
)
from qubicforge.dspsim import FULL_SCALE, MAX_REPEAT_CYCLES, Loopback, ProgramImage
from qubicforge.envgen import Envelope, generate, pack

CHIP = load_chip_config(
    json.dumps(
        {
            "qubits": {
                "Q6": {"drive_freq": 5.5e9, "readout_freq": 6.52e9},
                "Q7": {"drive_freq": 5.32e9, "readout_freq": 6.6e9},
            }
        }
    )
)

GATES_JSON = {
    "gates": {
        "Q6Y180": [
            {
                "dest": "Q6.qdrv",
                "t0": 0.0,
                "twidth": 96e-9,
                "fcarrier": "Q6.freq",
                "pcarrier": "pi/2",
                "amp": 0.873,
                "env": {"kind": "DRAG", "params": {"sigma_fraction": 0.25, "alpha": 0.5}},
            }
        ],
        "Q6X90": [
            {
                "dest": "Q6.qdrv",
                "t0": 0.0,
                "twidth": 32e-9,
                "fcarrier": "Q6.freq",
                "pcarrier": 0.0,
                "amp": 0.45,
                "env": {"kind": "gaussian", "params": {"sigma_fraction": 0.25}},
            }
        ],
        "Q7X90": [
            {
                "dest": "Q7.qdrv",
                "t0": 0.0,
                "twidth": 32e-9,
                "fcarrier": "Q7.freq",
                "pcarrier": 0.0,
                "amp": 0.5,
                "env": {"kind": "gaussian", "params": {"sigma_fraction": 0.25}},
            }
        ],
        "Q6read": [
            {
                "dest": "Q6.rdrv",
                "t0": 0.0,
                "twidth": 512e-9,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 0.25,
                "env": {"kind": "cos_edge_square", "params": {"edge_fraction": 0.1}},
            },
            {
                "dest": "Q6.read",
                "t0": 0.0,
                "twidth": 512e-9,
                "fcarrier": "Q6.readfreq",
                "pcarrier": 0.0,
                "amp": 1.0,
                "env": {"kind": "square"},
            },
        ],
    }
}

GATES = load_gate_spec(json.dumps(GATES_JSON), CHIP)

HW = load_hardware_config(
    json.dumps(
        {
            "channel_map": {
                name: {"element": ch.element, "destination": ch.destination, "direction": ch.direction}
                for name, ch in standard_channel_map(["Q6", "Q7"]).items()
            }
        }
    )
)


def gate(name, *qubits, **kw):
    return GateOp(name=name, qubits=tuple(qubits), **kw)


class TestSchedule:
    def test_sequential_same_qubit(self):
        circ = Circuit([gate("Y180", "Q6"), gate("X90", "Q6")])
        sched = schedule(circ, GATES, HW)
        a, b = sched.items
        assert a.start_cycle == 0
        assert a.duration_cycles == 24  # 96 ns at 4 ns per cycle
        assert b.start_cycle == 24

    def test_parallel_distinct_qubits(self):
        circ = Circuit([gate("Y180", "Q6"), gate("X90", "Q7")])
        sched = schedule(circ, GATES, HW)
        assert sched.items[0].start_cycle == 0
        assert sched.items[1].start_cycle == 0

    def test_duration_rounds_up_to_cycle(self):
        # a 30 ns gate still blocks a whole 8 cycles? no: ceil(30/4)=8 cycles
        gates = load_gate_spec(
            json.dumps(
                {
                    "gates": {
                        "Q6stub": [
                            {
                                "dest": "Q6.qdrv",
                                "twidth": 30e-9,
                                "fcarrier": 0.0,
                                "amp": 0.1,
                                "env": {"kind": "square"},
                            }
                        ]
                    }
                }
            ),
            CHIP,
        )
        circ = Circuit([gate("stub", "Q6"), gate("stub", "Q6")])
        sched = schedule(circ, gates, HW)
        assert sched.items[0].duration_cycles == 8
        assert sched.items[1].start_cycle == 8

    def test_exact_name_beats_joined(self):
        circ = Circuit([gate("Q6Y180")])
        sched = schedule(circ, GATES, HW)
        assert sched.items[0].resolved_name == "Q6Y180"

    def test_unknown_gate(self):
        with pytest.raises(CompileError, match="unknown gate"):
            schedule(Circuit([gate("Z999", "Q6")]), GATES, HW)

    def test_pinned_start_time(self):
        circ = Circuit([gate("X90", "Q6", start_time=400e-9)])
        sched = schedule(circ, GATES, HW)
        assert sched.items[0].start_cycle == 100

    def test_pinned_overlap_rejected(self):
        circ = Circuit([gate("Y180", "Q6"), gate("X90", "Q6", start_time=4e-9)])
        with pytest.raises(CompileError, match="overlaps"):
            schedule(circ, GATES, HW)

    def test_misaligned_start_rejected(self):
        circ = Circuit([gate("X90", "Q6", start_time=5e-9)])
        with pytest.raises(CompileError, match="aligned"):
            schedule(circ, GATES, HW)

    def test_virtual_z_takes_no_time(self):
        circ = Circuit([gate("X90", "Q6"), VirtualZ("Q6", 0.5), gate("X90", "Q6")])
        sched = schedule(circ, GATES, HW)
        assert sched.items[2].start_cycle == 8


class TestLowerToTp:
    def test_y180_example(self):
        circ = Circuit([gate("Y180", "Q6")])
        tp = lower_to_tp(schedule(circ, GATES, HW), GATES, CHIP, HW)
        (p,) = tp
        assert p.t == 0.0
        assert p.dest == "Q6.qdrv"
        assert p.fcarrier == 5.5e9
        assert p.pcarrier == pytest.approx(math.pi / 2)
        assert p.amp == 0.873
        assert p.twidth == 96e-9
        assert p.env.kind == "DRAG"

    def test_virtual_z_rotates_later_pulses_only(self):
        circ = Circuit([gate("X90", "Q6"), VirtualZ("Q6", 1.0), gate("X90", "Q6")])
        tp = lower_to_tp(schedule(circ, GATES, HW), GATES, CHIP, HW)
        assert tp[0].pcarrier == 0.0
        assert tp[1].pcarrier == pytest.approx(1.0)

    def test_virtual_z_accumulates(self):
        circ = Circuit(
            [VirtualZ("Q6", 0.5), VirtualZ("Q6", 0.25), gate("X90", "Q6")]
        )
        tp = lower_to_tp(schedule(circ, GATES, HW), GATES, CHIP, HW)
        assert tp[0].pcarrier == pytest.approx(0.75)

    def test_virtual_z_scoped_to_qubit_drive(self):
        circ = Circuit([VirtualZ("Q6", 1.0), gate("X90", "Q7"), gate("read", "Q6")])
        tp = lower_to_tp(schedule(circ, GATES, HW), GATES, CHIP, HW)
        by_dest = {p.dest: p for p in tp}
        assert by_dest["Q7.qdrv"].pcarrier == 0.0
        assert by_dest["Q6.rdrv"].pcarrier == 0.0  # readout drive unaffected

    def test_modify_overrides(self):
        circ = Circuit(
            [gate("X90", "Q6", modify={"amp": 0.2, "pcarrier": "pi", "fcarrier": "Q7.freq"})]
        )
        tp = lower_to_tp(schedule(circ, GATES, HW), GATES, CHIP, HW)
        assert tp[0].amp == 0.2
        assert tp[0].pcarrier == pytest.approx(math.pi)
        assert tp[0].fcarrier == 5.32e9

    def test_modify_env_params(self):
        circ = Circuit([gate("X90", "Q6", modify={"env_params": {"sigma_fraction": 0.1}})])
        tp = lower_to_tp(schedule(circ, GATES, HW), GATES, CHIP, HW)
        assert tp[0].env.param("sigma_fraction") == 0.1

    def test_modify_unknown_key(self):
        circ = Circuit([gate("X90", "Q6", modify={"power": 3})])
        with pytest.raises(CompileError, match="override"):
            lower_to_tp(schedule(circ, GATES, HW), GATES, CHIP, HW)


class TestLowerToNv:
    def test_y180_single_command(self):
        prog = compile_circuit(Circuit([gate("Y180", "Q6")]), CHIP, GATES, HW)
        assert len(prog.commands) == 1
        cmd = prog.commands[0]
        assert cmd.length == 96
        assert cmd.phase_word == 4096  # pi/2 in 2**14 steps
        assert cmd.trig_t == 0
        assert cmd.element == HW.channel("Q6.qdrv").element
        assert cmd.destination == HW.channel("Q6.qdrv").destination
        # 5.5 GHz aliased into the 1 GSPS band is half the sample rate
        assert cmd.freq_word == 1 << 23

    def test_envelope_amp_prescaled(self):
        prog = compile_circuit(Circuit([gate("Y180", "Q6")]), CHIP, GATES, HW)
        words = prog.image.envelopes[0]
        peak = max(abs(((w >> 16) ^ 0x8000) - 0x8000) for w in words)
        assert peak == round(0.873 * FULL_SCALE)

    def test_down_channel_command(self):
        prog = compile_circuit(Circuit([gate("read", "Q6")]), CHIP, GATES, HW)
        down = [c for c in prog.commands if c.element >= 16]
        assert len(down) == 1
        assert down[0].start == 0
        assert down[0].length == 512
        # no envelope stored for the capture window
        assert 16 not in prog.image.envelopes

    def test_dedup_shares_identical_envelopes(self):
        circ = Circuit([gate("X90", "Q6"), gate("X90", "Q6"), gate("X90", "Q6")])
        prog = compile_circuit(circ, CHIP, GATES, HW)
        starts = {c.start for c in prog.commands}
        assert starts == {0}
        assert len(prog.image.envelopes[0]) == 32

    def test_spill_to_free_element(self):
        # Force exhaustion: many distinct amplitudes of a long envelope.
        hw = load_hardware_config(
            json.dumps(
                {
                    "envelope_buffer_depth": 256,
                    "channel_map": {
                        "Q6.qdrv": {"element": 0, "destination": 0, "direction": "up"}
                    },
                }
            )
        )
        ops = [
            gate("X90", "Q6", modify={"amp": 0.1 + 0.05 * k, "twidth": 128e-9})
            for k in range(4)
        ]
        prog = compile_circuit(Circuit(ops), CHIP, GATES, hw)
        elements = sorted({c.element for c in prog.commands})
        assert len(prog.commands) == 4
        assert elements[0] == 0 and len(elements) > 1  # spilled beyond element 0
        # all commands still target the same DAC pair
        assert {c.destination for c in prog.commands} == {0}

    def test_envelope_exhaustion_raises(self):
        hw = load_hardware_config(
            json.dumps(
                {
                    "n_processing_elements_up": 1,
                    "n_processing_elements_down": 1,
                    "envelope_buffer_depth": 128,
                    "channel_map": {
                        "Q6.qdrv": {"element": 0, "destination": 0, "direction": "up"}
                    },
                }
            )
        )
        ops = [
            gate("X90", "Q6", modify={"amp": 0.1 + 0.05 * k, "twidth": 128e-9})
            for k in range(3)
        ]
        with pytest.raises(CompileError, match="exhausted"):
            compile_circuit(Circuit(ops), CHIP, GATES, hw)

    def test_unmapped_channel(self):
        hw = load_hardware_config("{}")  # empty channel map
        with pytest.raises(CompileError, match="channel"):
            compile_circuit(Circuit([gate("Y180", "Q6")]), CHIP, GATES, hw)

    def test_commands_sorted_per_element(self):
        circ = Circuit([gate("X90", "Q6"), gate("Y180", "Q6"), gate("read", "Q6")])
        prog = compile_circuit(circ, CHIP, GATES, HW)
        by_element = {}
        for c in prog.commands:
            by_element.setdefault(c.element, []).append(c.trig_t)
        for trigs in by_element.values():
            assert trigs == sorted(trigs)

    def test_repeat_time(self):
        circ = Circuit([gate("X90", "Q6")])
        prog = compile_circuit(circ, CHIP, GATES, HW, repeat_time=100e-6)
        assert prog.repeat_cycles == 25000
        with pytest.raises(CompileError, match="shorter"):
            compile_circuit(circ, CHIP, GATES, HW, repeat_time=4e-9)

    def test_repeat_time_beyond_bound_rejected(self):
        circ = Circuit([gate("X90", "Q6")])
        longest = compile_circuit(
            circ, CHIP, GATES, HW, repeat_time=MAX_REPEAT_CYCLES / HW.dsp_clock
        )
        assert longest.repeat_cycles == MAX_REPEAT_CYCLES
        with pytest.raises(CompileError, match=f"exceeds {MAX_REPEAT_CYCLES} cycles"):
            compile_circuit(
                circ, CHIP, GATES, HW, repeat_time=(MAX_REPEAT_CYCLES + 1) / HW.dsp_clock
            )


class LinearScanAllocator(_DynamicAllocator):
    """The dynamic allocator with a scan over every reserved window."""

    def _time_free(self, element, n0, n1):
        return all(hi <= n0 or lo >= n1 for lo, hi in self.busy.get(element, ()))


ALLOC_WORDS = [(1, 2, 3), (4, 5), (6,), (1, 2, 3, 4, 5), ()]
ALLOC_OPS = st.lists(
    st.tuples(
        st.booleans(),  # up or down
        st.integers(0, 4),  # element (up: 0..2, down: 3..4)
        st.sampled_from(range(len(ALLOC_WORDS))),
        st.integers(0, 60),  # window start
        st.integers(0, 12),  # window length
    ),
    max_size=40,
)


def run_allocator(alloc, ops):
    outcomes = []
    for up, element, words, n0, length in ops:
        try:
            if up:
                outcomes.append(
                    alloc.place_up(element % 3, ALLOC_WORDS[words], n0, n0 + length, "p", None)
                )
            else:
                outcomes.append(alloc.place_down(3 + element % 2, n0, n0 + length, "d"))
        except CompileError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestDynamicAllocatorBusyCheck:
    @given(ops=ALLOC_OPS)
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, ops):
        # a 6-word memory on each of three up elements, so pulses spill
        hw = types.SimpleNamespace(envelope_buffer_depth=6, n_processing_elements_up=3)
        fast = _DynamicAllocator(hw)
        slow = LinearScanAllocator(hw)
        assert run_allocator(fast, ops) == run_allocator(slow, ops)
        assert fast.memory.words == slow.memory.words
        for element, windows in fast.busy.items():
            assert windows == sorted(slow.busy[element])

    def test_spill_and_busy_messages(self):
        hw = types.SimpleNamespace(envelope_buffer_depth=6, n_processing_elements_up=2)
        alloc = _DynamicAllocator(hw)
        assert alloc.place_up(0, (1, 2, 3, 4), 0, 10, "a", None) == (0, 0)
        assert alloc.place_up(0, (5, 6, 7), 10, 20, "b", None) == (1, 0)  # spills
        with pytest.raises(CompileError, match=r"b2: element 0 is busy during samples \[5, 6\)"):
            alloc.place_up(0, (1, 2, 3, 4), 5, 6, "b2", None)
        with pytest.raises(CompileError, match="exhausted"):
            alloc.place_up(0, (8, 9, 9, 9), 30, 40, "c", None)


class TestStaticAllocator:
    def test_matches_dynamic_waveform(self):
        circ = Circuit(
            [
                gate("X90", "Q6"),
                gate("Y180", "Q6"),
                VirtualZ("Q6", 0.7),
                gate("X90", "Q6"),
                gate("X90", "Q7"),
                gate("read", "Q6"),
            ]
        )
        a = compile_circuit(circ, CHIP, GATES, HW, allocator="optm")
        b = compile_circuit(circ, CHIP, GATES, HW, allocator="runc")
        wa = simulate_program(a, wiring=Loopback(0)).dac
        wb = simulate_program(b, wiring=Loopback(0)).dac
        for pair in wa:
            assert np.array_equal(wa[pair], wb[pair])

    def test_rejects_envelope_altering_override(self):
        for bad in (
            {"amp": 0.2},
            {"twidth": 64e-9},
            {"env_params": {"sigma_fraction": 0.3}},
        ):
            circ = Circuit([gate("X90", "Q6", modify=bad)])
            with pytest.raises(CompileError, match="static"):
                compile_circuit(circ, CHIP, GATES, HW, allocator="runc")

    def test_allows_carrier_overrides(self):
        circ = Circuit([gate("X90", "Q6", modify={"pcarrier": "pi", "fcarrier": 200e6})])
        prog = compile_circuit(circ, CHIP, GATES, HW, allocator="runc")
        assert prog.commands[0].phase_word == 1 << 13

    def test_over_deep_gate_set_pulse_rejected_before_generating(self, monkeypatch):
        # a gate no circuit uses, longer than the whole envelope buffer
        spec = json.loads(json.dumps(GATES_JSON))
        spec["gates"]["Q5long"] = [dict(spec["gates"]["Q6X90"][0], twidth=2e-4)]
        gates = load_gate_spec(json.dumps(spec), CHIP)
        calls = []
        monkeypatch.setattr(compiler, "generate", lambda *a: calls.append(a))
        with pytest.raises(
            CompileError,
            match=r"^gate 'Q5long': static envelope layout exceeds buffer depth on element 0$",
        ):
            compile_circuit(Circuit([gate("X90", "Q6")]), CHIP, gates, HW, allocator="runc")
        assert calls == []

    def test_layout_independent_of_circuit(self):
        a = compile_circuit(Circuit([gate("X90", "Q6")]), CHIP, GATES, HW, allocator="runc")
        b = compile_circuit(
            Circuit([gate("Y180", "Q6"), gate("X90", "Q6")]), CHIP, GATES, HW, allocator="runc"
        )
        assert a.image.envelopes == b.image.envelopes


class TestFloatOracle:
    def test_fixed_point_path_tracks_float_model(self):
        circ = Circuit(
            [
                gate("X90", "Q6"),
                gate("Y180", "Q6"),
                gate("X90", "Q7"),
                gate("read", "Q6"),
            ]
        )
        prog = compile_circuit(circ, CHIP, GATES, HW)
        want = program_waveform(prog)
        got = simulate_program(prog).dac
        for pair, ref in want.items():
            sim = (got[pair][:, 0] + 1j * got[pair][:, 1]) / FULL_SCALE
            assert np.abs(sim - ref).max() <= 2.0 ** -13


class TestSerialization:
    def test_roundtrip(self):
        circ = Circuit([gate("Y180", "Q6"), gate("read", "Q6")])
        prog = compile_circuit(circ, CHIP, GATES, HW)
        blob = prog.serialize()
        again = CompiledProgram.deserialize(blob)
        assert again.image == prog.image
        assert again.hw == prog.hw

    def test_byte_deterministic(self):
        circ = Circuit([gate("X90", "Q6"), gate("Y180", "Q6"), gate("read", "Q6")])
        a = compile_circuit(circ, CHIP, GATES, HW).serialize()
        b = compile_circuit(circ, CHIP, GATES, HW).serialize()
        assert a == b

    def test_corrupt_container_rejected(self):
        prog = compile_circuit(Circuit([gate("Y180", "Q6")]), CHIP, GATES, HW)
        blob = bytearray(prog.serialize())
        blob[20] ^= 0xFF
        with pytest.raises(CompileError, match="checksum"):
            CompiledProgram.deserialize(bytes(blob))

    def test_truncated_container_rejected(self):
        with pytest.raises(CompileError):
            CompiledProgram.deserialize(b"QFPB\x01\x00")

    @given(program=st.sampled_from(range(3)), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_truncation_and_extension_rejected(self, program, data):
        blob = SAMPLE_BLOBS[program]
        again = CompiledProgram.deserialize(blob)
        assert again.serialize() == blob  # an intact container round-trips
        body = blob[:-4]
        cut = data.draw(st.integers(0, len(body) - 1), label="cut")
        extra = data.draw(st.binary(min_size=1, max_size=40), label="extra")
        for mutant in (body[:cut], body + extra):
            with pytest.raises(CompileError):
                CompiledProgram.deserialize(reseal(mutant))

    def test_appended_zero_bytes_rejected(self):
        blob = SAMPLE_BLOBS[0]
        with pytest.raises(CompileError, match="12 trailing bytes"):
            CompiledProgram.deserialize(reseal(blob[:-4] + bytes(12)))

    @pytest.mark.parametrize(
        "meta",
        [
            b"\xff\xfe",  # not UTF-8
            b"{not json",
            b"[]",
            b"{}",  # no hw
            b'{"hw":"configs/hardware.json","repeat_cycles":4}',  # a path, not an object
            b'{"hw":{"n_dac_pairs":"four"},"repeat_cycles":4}',
            b'{"hw":{},"repeat_cycles":0}',
            b'{"hw":{},"repeat_cycles":"4"}',
            b'{"hw":{}}',
        ],
    )
    def test_malformed_meta_rejected(self, meta):
        blob = SAMPLE_BLOBS[0]
        meta_len = int.from_bytes(blob[8:12], "big")
        body = blob[:8] + len(meta).to_bytes(4, "big") + meta + blob[12 + meta_len : -4]
        with pytest.raises(CompileError, match="malformed meta block"):
            CompiledProgram.deserialize(reseal(body))

    def test_repeat_cycles_beyond_bound_rejected(self):
        blob = SAMPLE_BLOBS[0]
        meta_len = int.from_bytes(blob[8:12], "big")
        meta = json.loads(blob[12 : 12 + meta_len])
        meta["repeat_cycles"] = MAX_REPEAT_CYCLES + 1
        raw = json.dumps(meta).encode()
        body = blob[:8] + len(raw).to_bytes(4, "big") + raw + blob[12 + meta_len : -4]
        with pytest.raises(CompileError, match="malformed meta block: repeat_cycles exceeds"):
            CompiledProgram.deserialize(reseal(body))

    def test_nonzero_pad_rejected(self):
        body = bytearray(SAMPLE_BLOBS[0][:-4])
        body[6] = 1
        with pytest.raises(CompileError, match="pad"):
            CompiledProgram.deserialize(reseal(bytes(body)))

    def test_segments_out_of_order_rejected(self):
        prog = compile_circuit(
            Circuit([gate("X90", "Q6"), gate("X90", "Q7")]), CHIP, GATES, HW
        )
        blob = prog.serialize()
        meta_len = int.from_bytes(blob[8:12], "big")
        pos = 12 + meta_len
        assert int.from_bytes(blob[pos : pos + 2], "big") == 2
        first = 2 + 6 + 4 * int.from_bytes(blob[pos + 4 : pos + 8], "big")
        segments = blob[pos + 2 : pos + first], blob[pos + first :]
        second_len = 6 + 4 * int.from_bytes(segments[1][2:6], "big")
        swapped = segments[1][:second_len] + segments[0] + segments[1][second_len:]
        body = blob[: pos + 2] + swapped[:-4]
        with pytest.raises(CompileError, match="out of order"):
            CompiledProgram.deserialize(reseal(body))

    def test_dumps_readable(self):
        circ = Circuit([gate("Y180", "Q6"), VirtualZ("Q6", 0.5), gate("X90", "Q6")])
        prog = compile_circuit(circ, CHIP, GATES, HW)
        tp_text = prog.dump_tp()
        assert "Q6.qdrv" in tp_text and "DRAG" in tp_text
        cmd_text = prog.dump_commands()
        assert str(1 << 23) in cmd_text  # aliased 5.5 GHz freq word


class TestCircuitJson:
    def test_load(self):
        text = json.dumps(
            {
                "ops": [
                    {"gate": "Y180", "qubits": ["Q6"]},
                    {"virtual_z": {"qubit": "Q6", "phase": "pi/2"}},
                    {"gate": "X90", "qubits": ["Q6"], "modify": {"amp": 0.3}},
                ]
            }
        )
        circ = load_circuit(text)
        assert len(circ.ops) == 3
        assert isinstance(circ.ops[1], VirtualZ)
        assert circ.ops[1].phase == pytest.approx(math.pi / 2)
        prog = compile_circuit(circ, CHIP, GATES, HW)
        assert len(prog.commands) == 2

    def test_bad_entries(self):
        with pytest.raises(ConfigError):
            load_circuit(json.dumps({"ops": [{"nope": 1}]}))
        with pytest.raises(ConfigError):
            load_circuit(json.dumps({"ops": "Y180"}))
        with pytest.raises(ConfigError):
            load_circuit(json.dumps({"ops": [{"virtual_z": {"qubit": "Q6"}}]}))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^bogus: unknown field$"):
            load_circuit(json.dumps({"ops": [{"gate": "Y180", "qubits": ["Q6"]}], "bogus": 1}))
        circ = load_circuit(json.dumps({"version": 1, "ops": []}))
        assert circ.ops == ()

    def test_non_finite_start_time_rejected(self):
        op = {"gate": "Y180", "qubits": ["Q6"], "start_time": float("nan")}
        with pytest.raises(ConfigError, match=r"^ops\[0\]: start_time must be finite$"):
            load_circuit(json.dumps({"ops": [op]}))

    @pytest.mark.parametrize(
        "modify, message",
        [
            ({"amp": "x"}, "amp override must be a number, got 'x'"),
            ({"twidth": [1]}, "twidth override must be a number, got [1]"),
            ({"twidth": 1e300}, "duration of 1e+300 s is out of range"),
            ({"env_params": 5}, "env_params override must be an object"),
        ],
    )
    def test_malformed_override_is_a_compile_error(self, modify, message):
        circuit = Circuit([GateOp("Y180", ("Q6",), modify=modify)])
        with pytest.raises(CompileError, match=re.escape(f"gate 'Q6Y180': {message}")):
            compile_circuit(circuit, CHIP, GATES, HW)

    def test_gate_without_pulses(self):
        gates = load_gate_spec(json.dumps({"gates": {"Q6I": []}}), CHIP)
        prog = compile_circuit(Circuit([GateOp("I", ("Q6",))]), CHIP, gates, HW)
        assert prog.commands == () and prog.repeat_cycles == 1

    def test_start_time_out_of_range(self):
        circuit = Circuit([GateOp("Y180", ("Q6",), start_time=1e300)])
        with pytest.raises(CompileError, match=r"^start_time of 1e\+300 s is out of range$"):
            compile_circuit(circuit, CHIP, GATES, HW)


def reseal(body):
    """``body`` with its CRC-32 appended, as ``serialize`` ends a container."""
    return body + zlib.crc32(body).to_bytes(4, "big")


SAMPLE_BLOBS = [
    compile_circuit(Circuit(ops), CHIP, GATES, HW, allocator=allocator).serialize()
    for ops, allocator in (
        ([gate("Y180", "Q6"), gate("read", "Q6")], "optm"),
        ([gate("X90", "Q6"), gate("X90", "Q7"), gate("read", "Q6")], "optm"),
        ([gate("X90", "Q6")], "runc"),
    )
]


# ---------------------------------------------------------------------------
# Oracle: a test-only copy of the compiler before pulse shapes were
# resolved once per call (``schedule`` and ``lower_to_nv`` with their
# envelope cache and allocators; ``lower_to_tp`` did not change).  Its
# allocators keep their own memory and timing bookkeeping and share no
# code with the compiler's.


def reference_schedule(circuit, gates, hw):
    frontier = {}
    items = []
    total = 0
    for op in circuit.ops:
        if isinstance(op, VirtualZ):
            items.append(op)
            continue
        name = resolve_gate_name(op, gates)
        duration_s = gates.duration(name)
        if op.modify and "twidth" in op.modify:
            width = op.modify["twidth"]
            base = max(p.t0 for p in gates.pulses(name))
            duration_s = base + float(width)
        dur = max(1, math.ceil(_snap(duration_s * hw.dsp_clock)))
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


class ReferenceEnvelopeCache:
    def __init__(self, sample_rate):
        self.sample_rate = sample_rate
        self._cache = {}

    def words(self, env_spec, twidth, amp):
        n = _ceil_samples(twidth, self.sample_rate)
        key = (env_spec.dedup_key(), n, amp)
        got = self._cache.get(key)
        if got is None:
            envelope = generate(env_spec, n / self.sample_rate, 1.0 / self.sample_rate)
            got = pack(Envelope(envelope.samples * amp, envelope.dt)).words
            self._cache[key] = got
        return got


class ReferenceDynamicAllocator:
    def __init__(self, hw):
        self.hw = hw
        self.memory = {}
        self.regions = {}
        self.busy = {}

    def _has_room(self, element, n_words):
        return len(self.memory.get(element, ())) + n_words <= self.hw.envelope_buffer_depth

    def _time_free(self, element, n0, n1):
        return all(hi <= n0 or lo >= n1 for lo, hi in self.busy.get(element, ()))

    def _reserve_time(self, element, n0, n1, what):
        if not self._time_free(element, n0, n1):
            raise CompileError(
                f"{what}: element {element} is busy during samples [{n0}, {n1})"
            )
        self.busy.setdefault(element, []).append((n0, n1))

    def place_up(self, element, words, n0, n1, label, source):
        candidates = [element] + [
            e for e in range(self.hw.n_processing_elements_up) if e != element
        ]
        if not self._time_free(element, n0, n1):
            raise CompileError(
                f"{label}: element {element} is busy during samples [{n0}, {n1})"
            )
        for cand in candidates:
            if cand != element and not self._time_free(cand, n0, n1):
                continue
            if (cand, words) in self.regions:
                start = self.regions[(cand, words)]
                self._reserve_time(cand, n0, n1, label)
                return cand, start
            if self._has_room(cand, len(words)):
                mem = self.memory.setdefault(cand, [])
                start = len(mem)
                mem.extend(words)
                self.regions[(cand, words)] = start
                self._reserve_time(cand, n0, n1, label)
                return cand, start
        raise CompileError(f"{label}: envelope memory exhausted on every up element")

    def place_down(self, element, n0, n1, label):
        self._reserve_time(element, n0, n1, label)


class ReferenceStaticAllocator:
    def __init__(self, hw, gates, chmap_lookup, env_cache):
        self.memory = {}
        self.regions = {}
        self.by_source = {}
        for name in sorted(gates.gates):
            for idx, pulse in enumerate(gates.pulses(name)):
                ch = chmap_lookup(pulse.dest, f"gate {name!r}")
                if ch.direction != "up":
                    continue
                words = env_cache.words(pulse.env, pulse.twidth, pulse.amp)
                key = (ch.element, words)
                if key in self.regions:
                    start = self.regions[key]
                else:
                    mem = self.memory.setdefault(ch.element, [])
                    start = len(mem)
                    if start + len(words) > hw.envelope_buffer_depth:
                        raise CompileError(
                            f"gate {name!r}: static envelope layout exceeds "
                            f"buffer depth on element {ch.element}"
                        )
                    mem.extend(words)
                    self.regions[key] = start
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


def reference_lower_to_nv(tp_list, hw, allocator, gates):
    cache = ReferenceEnvelopeCache(hw.dac_sample_rate)

    def chmap_lookup(dest, what):
        try:
            return hw.channel(dest)
        except ConfigError as exc:
            raise CompileError(f"{what}: {exc}") from None

    if allocator == "optm":
        alloc = ReferenceDynamicAllocator(hw)
    else:
        alloc = ReferenceStaticAllocator(hw, gates, chmap_lookup, cache)
    spc = hw.samples_per_cycle
    entries = []
    ordered = sorted(range(len(tp_list)), key=lambda i: (tp_list[i].t, tp_list[i].dest, i))
    for i in ordered:
        tp = tp_list[i]
        label = f"pulse at {tp.t * 1e9:.3f} ns on {tp.dest!r}"
        ch = chmap_lookup(tp.dest, label)
        trig_t = _to_cycles(tp.t, hw.dsp_clock, f"{label}: start time")
        if trig_t >= 1 << cmdcodec.TRIG_T_BITS:
            raise CompileError(f"{label}: trigger cycle {trig_t} exceeds 24 bits")
        length = _ceil_samples(tp.twidth, hw.dac_sample_rate)
        if length >= 1 << cmdcodec.LENGTH_BITS:
            raise CompileError(f"{label}: {length} samples exceed the 12-bit length field")
        freq_word = cmdcodec.freq_to_word(tp.fcarrier, hw.dac_sample_rate)
        phase_word = cmdcodec.phase_to_word(tp.pcarrier)
        n0 = trig_t * spc
        n1 = n0 + length
        if ch.direction == "up":
            words = cache.words(tp.env, tp.twidth, tp.amp)
            element, start = alloc.place_up(ch.element, words, n0, n1, label, tp.source)
        else:
            alloc.place_down(ch.element, n0, n1, label)
            element, start = ch.element, 0
        entries.append(
            (
                element,
                trig_t,
                cmdcodec.CommandFields(
                    trig_t=trig_t,
                    start=start,
                    length=length,
                    freq_word=freq_word,
                    phase_word=phase_word,
                    element=element,
                    destination=ch.destination,
                    condition=0,
                ),
            )
        )
    entries.sort(key=lambda e: (e[0], e[1], cmdcodec.encode(e[2])))
    commands = tuple(cmd for _, _, cmd in entries)
    if len(commands) > hw.command_buffer_depth:
        raise CompileError(
            f"{len(commands)} commands exceed buffer depth {hw.command_buffer_depth}"
        )
    min_cycles = 1
    for _, trig_t, cmd in entries:
        min_cycles = max(min_cycles, trig_t + -(-cmd.length // spc))
    envelopes = {e: tuple(mem) for e, mem in sorted(alloc.memory.items()) if mem}
    return commands, envelopes, min_cycles


def reference_compile(circuit, hw, allocator):
    tp = lower_to_tp(reference_schedule(circuit, GATES, hw), GATES, CHIP, hw)
    commands, envelopes, repeat_cycles = reference_lower_to_nv(tp, hw, allocator, GATES)
    image = ProgramImage(
        commands=tuple(cmdcodec.encode(c) for c in commands),
        envelopes=envelopes,
        repeat_cycles=repeat_cycles,
    )
    return CompiledProgram(image=image, hw=hw, commands=commands, tp=tp, allocator=allocator)


def _hw_variant(n_up, depth, channel_map):
    return load_hardware_config(
        json.dumps(
            {
                "n_processing_elements_up": n_up,
                "envelope_buffer_depth": depth,
                "channel_map": {
                    name: {
                        "element": ch.element,
                        "destination": ch.destination,
                        "direction": ch.direction,
                    }
                    for name, ch in channel_map.items()
                },
            }
        )
    )


SMALL_MAP = standard_channel_map(["Q6", "Q7"], n_up=4)
SHARED_MAP = dict(HW.channel_map, **{"Q7.qdrv": HW.channel_map["Q6.qdrv"]})
ORACLE_HW = {
    "standard": HW,
    # four up elements of 128 words: spills, exhaustion, static overflow
    "small": _hw_variant(4, 128, SMALL_MAP),
    # Q6 and Q7 drive one element: parallel drives collide
    "shared": _hw_variant(16, 1024, SHARED_MAP),
}

NS = 1e-9
ORACLE_MODIFY = st.fixed_dictionaries(
    {},
    optional={
        "amp": st.sampled_from([0.0, 0.1, 0.45, 0.9, 1.0]),
        # whole cycles, an odd sample count, and past the 12-bit length
        "twidth": st.sampled_from([16 * NS, 33 * NS, 96 * NS, 300 * NS, 4200 * NS]),
        "pcarrier": st.sampled_from([0.0, 0.3, "pi/2", -1.5]),
        "env_params": st.sampled_from([{"sigma_fraction": 0.2}, {"alpha": 0.3}]),
    },
)
# (gate, qubit), weighted so that most circuits compile; "Z45" is unknown
ORACLE_GATES = [("X90", "Q6")] * 3 + [("X90", "Q7")] * 3 + [("Y180", "Q6")] * 2 + [
    ("read", "Q6")
] * 2 + [("Z45", "Q6")]
ORACLE_OPS = st.lists(
    st.one_of(
        st.builds(
            VirtualZ,
            qubit=st.sampled_from(["Q6", "Q7"]),
            phase=st.sampled_from([0.25, math.pi / 2, -1.0]),
        ),
        st.builds(
            lambda g, start_time, modify: GateOp(g[0], (g[1],), start_time, modify),
            st.sampled_from(ORACLE_GATES),
            # as soon as possible, whole cycles (maybe before the qubit
            # is free) or misaligned
            st.sampled_from(["asap"] * 12 + ["aligned"] * 3 + ["misaligned"]).flatmap(
                lambda kind: st.just(None)
                if kind == "asap"
                else st.integers(0, 150).map(
                    lambda k: (4 * k + (kind == "misaligned")) * NS
                )
            ),
            st.one_of(st.none(), ORACLE_MODIFY),
        ),
    ),
    max_size=10,
)


def _outcome(compile_fn):
    try:
        p = compile_fn()
    except QubicForgeError as exc:
        return type(exc).__name__, str(exc)
    return (
        p.image,
        p.serialize(),
        p.dump_tp(),
        p.dump_commands(),
        p.repeat_cycles,
    )


class TestCompileOracle:
    @given(
        ops=ORACLE_OPS,
        hw_name=st.sampled_from(sorted(ORACLE_HW)),
        allocator=st.sampled_from(["optm", "runc"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_compiler(self, ops, hw_name, allocator):
        hw = ORACLE_HW[hw_name]
        circuit = Circuit(ops)
        assert _outcome(
            lambda: compile_circuit(circuit, CHIP, GATES, hw, allocator=allocator)
        ) == _outcome(lambda: reference_compile(circuit, hw, allocator))

    @pytest.mark.parametrize(
        "ops, hw_name, allocator, message",
        [
            ([gate("X90", "Q6"), gate("X90", "Q7")], "shared", "optm", "busy during samples"),
            ([gate("X90", "Q6", start_time=5e-9)], "standard", "optm", "not aligned"),
            ([gate("X90", "Q6", modify={"twidth": 4200e-9})], "standard", "optm", "12-bit"),
            ([gate("Z45", "Q6")], "standard", "optm", "unknown gate"),
            (
                [gate("X90", "Q6", modify={"amp": k / 20}) for k in range(1, 18)],
                "small",
                "optm",
                "exhausted",
            ),
            ([gate("X90", "Q6")], "small", "runc", "static envelope layout exceeds"),
        ],
    )
    def test_error_messages_match(self, ops, hw_name, allocator, message):
        # each error the property must reach, reached once on purpose
        hw = ORACLE_HW[hw_name]
        circuit = Circuit(ops)
        new = _outcome(lambda: compile_circuit(circuit, CHIP, GATES, hw, allocator=allocator))
        assert new == _outcome(lambda: reference_compile(circuit, hw, allocator))
        assert new[0] == "CompileError" and message in new[1]

    def test_envelopes_cached_across_compilations(self, monkeypatch):
        circuit = Circuit([gate("X90", "Q6", modify={"amp": 0.123}), gate("read", "Q6")])
        first = compile_circuit(circuit, CHIP, GATES, HW)
        calls = []
        monkeypatch.setattr(compiler, "generate", lambda *a: calls.append(a))
        again = compile_circuit(circuit, CHIP, GATES, HW)
        assert calls == [] and again.image == first.image
