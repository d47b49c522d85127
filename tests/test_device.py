"""Control protocol: packet codec, device emulator, host client."""

import json
import socket
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qubicforge import SimulationError, TransportError
from qubicforge.chipcfg import (
    load_chip_config,
    load_gate_spec,
    load_hardware_config,
    standard_channel_map,
)
from qubicforge.compiler import (
    Circuit,
    CompiledProgram,
    GateOp,
    compile_circuit,
    simulate_program,
)
from qubicforge.device import (
    ACQ_TAPS,
    CRC_SIZE,
    HEADER_SIZE,
    MAX_PAYLOAD,
    OP_READ,
    OP_START,
    OP_STATUS,
    OP_STOP,
    OP_WRITE,
    REG_ACC_CLEAR,
    REG_ACQ_TAP,
    REG_ACQ_UNIT,
    REG_ENVELOPE_DEPTH,
    REG_N_COMMANDS,
    REG_REPEAT_CYCLES,
    REG_SHOTS,
    REGION_ACC,
    REGION_ACQ,
    REGION_COMMAND,
    REGION_CONTROL,
    REGION_ENVELOPE,
    REGION_ENVELOPE_CRC,
    DeviceClient,
    DeviceServer,
    LossyTransport,
    Packet,
    UdpTransport,
    decode_packet,
    encode_packet,
)
from qubicforge.dspsim import (
    MAX_REPEAT_CYCLES,
    AcqConfig,
    External,
    Loopback,
    ProgramImage,
    Simulator,
)
from qubicforge.envgen import iq_words
from qubicforge import cmdcodec, dspsim

CHIP = load_chip_config(
    json.dumps(
        {
            "qubits": {
                "Q6": {"drive_freq": 5.5e9, "readout_freq": 6.52e9},
            }
        }
    )
)

GATES = load_gate_spec(
    json.dumps(
        {
            "gates": {
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
                "Q6read": [
                    {
                        "dest": "Q6.rdrv",
                        "t0": 0.0,
                        "twidth": 256e-9,
                        "fcarrier": "Q6.readfreq",
                        "pcarrier": 0.0,
                        "amp": 0.25,
                        "env": {"kind": "cos_edge_square", "params": {"edge_fraction": 0.1}},
                    },
                    {
                        "dest": "Q6.read",
                        "t0": 0.0,
                        "twidth": 256e-9,
                        "fcarrier": "Q6.readfreq",
                        "pcarrier": 0.0,
                        "amp": 1.0,
                        "env": {"kind": "square"},
                    },
                ],
            }
        }
    ),
    CHIP,
)

HW = load_hardware_config(
    json.dumps(
        {
            "channel_map": {
                name: {
                    "element": ch.element,
                    "destination": ch.destination,
                    "direction": ch.direction,
                }
                for name, ch in standard_channel_map(["Q6"]).items()
            }
        }
    )
)


def hw_with_acc_depth(depth):
    return load_hardware_config(
        json.dumps(
            {
                "acc_buffer_depth": depth,
                "channel_map": {
                    name: {
                        "element": ch.element,
                        "destination": ch.destination,
                        "direction": ch.direction,
                    }
                    for name, ch in standard_channel_map(["Q6"]).items()
                },
            }
        )
    )


def faulty_image(hw):
    """Two full-scale up windows summed onto DAC pair 0 (saturating), one
    envelope read past the end of memory, and a down window on pair 0."""
    full = (0x7FFF << 16,) * 64
    up = dict(trig_t=0, length=64, freq_word=1 << 20, destination=0)
    commands = (
        cmdcodec.CommandFields(element=0, start=0, **up),
        cmdcodec.CommandFields(element=1, start=0, **up),
        cmdcodec.CommandFields(element=2, start=hw.envelope_buffer_depth - 16, **up),
        cmdcodec.CommandFields(element=hw.n_processing_elements_up, **up),
    )
    return ProgramImage(
        commands=tuple(cmdcodec.encode(c) for c in commands),
        envelopes={0: full, 1: full, 2: (0x4000 << 16,) * hw.envelope_buffer_depth},
        repeat_cycles=32,
    )


def long_image(hw, n_windows=64):
    """Every up element plays ``n_windows`` full-depth envelope windows
    back to back (about 1M window samples by default), then one down
    window reads DAC pair 0."""
    depth = hw.envelope_buffer_depth
    cycles = depth // hw.samples_per_cycle
    commands = [
        cmdcodec.CommandFields(
            trig_t=k * cycles,
            length=depth,
            freq_word=(977 * e + 31 * k) % (1 << 24),
            phase_word=13 * k,
            element=e,
            destination=e % hw.n_dac_pairs,
        )
        for e in range(hw.n_processing_elements_up)
        for k in range(n_windows)
    ]
    commands.append(
        cmdcodec.CommandFields(
            trig_t=(n_windows - 1) * cycles, length=depth, element=hw.n_processing_elements_up
        )
    )
    commands.sort(key=lambda c: c.trig_t)
    envelopes = {
        e: [(97 * e + i) % 0x8000 << 16 | i % 0x4000 for i in range(depth)]
        for e in range(hw.n_processing_elements_up)
    }
    return ProgramImage(
        commands=tuple(cmdcodec.encode(c) for c in commands),
        envelopes=envelopes,
        repeat_cycles=n_windows * cycles,
    )


def noisy_loopback():
    """Each ADC pair sees its DAC pair plus Gaussian noise drawn from the
    shot's random stream."""

    def streams(shot, dac, rng):
        out = {}
        for pair in range(HW.n_dac_pairs):
            clean = dac(pair, 0, 1 << 20)
            out[pair] = clean + rng.normal(0, 300, clean.shape).round().astype(np.int64)
        return out

    return External(streams)


def device_log(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "qubicforge.device"]


def readout_program(n_reads=1):
    ops = []
    for _ in range(n_reads):
        ops.append(GateOp("X90", ("Q6",)))
        ops.append(GateOp("read", ("Q6",)))
    return compile_circuit(Circuit(tuple(ops)), CHIP, GATES, HW)


@pytest.fixture
def server():
    srv = DeviceServer(HW, wiring=Loopback(), seed=1234).start()
    yield srv
    srv.stop()


class PerShotLoopback(Loopback):
    """``Loopback`` that does not declare itself deterministic, so every
    shot of a run executes."""

    deterministic = False


@pytest.fixture
def per_shot_server():
    """A server whose runs execute every shot: a run of many shots
    outlasts the requests that follow its START."""
    srv = DeviceServer(HW, wiring=PerShotLoopback(), seed=1234).start()
    yield srv
    srv.stop()


class FailingLoopback(Loopback):
    """``Loopback`` whose ADC reads raise while ``failing`` is set."""

    failing = True

    def read(self, *args):
        if self.failing:
            raise SimulationError("wiring failed")
        return super().read(*args)


def make_client(srv, **kwargs):
    return DeviceClient(UdpTransport(("127.0.0.1", srv.port)), **kwargs)


# ---------------------------------------------------------------------------
# Packet codec


class TestPacketCodec:
    def test_roundtrip(self):
        p = Packet(
            seq=0xDEADBEEF,
            op=OP_WRITE,
            region=REGION_ENVELOPE,
            unit=7,
            status=3,
            offset=12345,
            count=2,
            payload=b"\x01\x02\x03\x04\x05\x06\x07\x08",
        )
        q = decode_packet(encode_packet(p))
        assert q == p

    def test_header_size(self):
        blob = encode_packet(Packet(seq=1, op=OP_STATUS))
        assert len(blob) == HEADER_SIZE + CRC_SIZE

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_packet(Packet(seq=1, op=OP_STATUS)))
        blob[0] = ord("X")
        with pytest.raises(TransportError, match="magic"):
            decode_packet(bytes(blob))

    def test_corrupt_payload_rejected(self):
        blob = bytearray(
            encode_packet(Packet(seq=1, op=OP_WRITE, count=1, payload=b"\0\0\0\5"))
        )
        blob[HEADER_SIZE] ^= 0xFF
        with pytest.raises(TransportError, match="checksum"):
            decode_packet(bytes(blob))

    def test_truncated_rejected(self):
        with pytest.raises(TransportError, match="short"):
            decode_packet(b"QBC1\x00")

    def test_payload_limit(self):
        with pytest.raises(TransportError, match="exceeds"):
            encode_packet(Packet(seq=1, op=OP_WRITE, payload=b"\0" * (MAX_PAYLOAD + 1)))

    @pytest.mark.parametrize(
        "field, value, bits",
        [
            ("op", 256, 8),
            ("region", -1, 8),
            ("unit", 300, 8),
            ("status", 256, 8),
            ("offset", 2**32, 32),
            ("count", -1, 32),
        ],
    )
    def test_header_field_out_of_range(self, field, value, bits):
        fields = {"seq": 1, "op": OP_READ, field: value}
        with pytest.raises(TransportError, match=rf"^{field} {value} does not fit {bits} bits$"):
            encode_packet(Packet(**fields))

    def test_header_fields_at_their_limits(self):
        byte, word = 2**8 - 1, 2**32 - 1
        p = Packet(seq=word, op=byte, region=byte, unit=byte, status=byte, offset=word, count=word)
        assert decode_packet(encode_packet(p)) == p


# ---------------------------------------------------------------------------
# Register and memory access


class TestMemoryAccess:
    def test_status_idle(self, server):
        with make_client(server) as client:
            assert client.status() == (False, 0, 0)

    def test_command_region_roundtrip(self, server):
        words = [(0x0123456789ABCDEF << 64) | k for k in range(7)]
        with make_client(server) as client:
            client.write_region(REGION_COMMAND, 0, 3, words)
            assert client.read_region(REGION_COMMAND, 0, 3, 7) == words
            # untouched slots keep their reset value
            assert client.read_region(REGION_COMMAND, 0, 0, 3) == [0, 0, 0]

    def test_envelope_region_is_per_element(self, server):
        with make_client(server) as client:
            client.write_region(REGION_ENVELOPE, 2, 0, [11, 22, 33])
            client.write_region(REGION_ENVELOPE, 3, 0, [44])
            assert client.read_region(REGION_ENVELOPE, 2, 0, 3) == [11, 22, 33]
            assert client.read_region(REGION_ENVELOPE, 3, 0, 2) == [44, 0]

    def test_chunked_write_spans_datagrams(self, server):
        n = HW.envelope_buffer_depth  # 1024 words > one datagram at 4 B/word? no: fits
        words = list(range(n))
        with make_client(server) as client:
            client.write_region(REGION_ENVELOPE, 0, 0, words)
            assert client.read_region(REGION_ENVELOPE, 0, 0, n) == words

    def test_chunked_command_write(self, server):
        # 600 command words = 9600 bytes, more than one datagram
        words = [(k << 32) | 7 for k in range(600)]
        with make_client(server) as client:
            client.write_region(REGION_COMMAND, 0, 0, words)
            assert client.read_region(REGION_COMMAND, 0, 0, 600) == words

    def test_control_registers(self, server):
        with make_client(server) as client:
            client.write_control(REG_SHOTS, 250)
            client.write_control(REG_REPEAT_CYCLES, 9)
            assert client.read_control(REG_SHOTS) == 250
            assert client.read_control(REG_REPEAT_CYCLES) == 9

    def test_envelope_depth_register_is_read_only(self, server):
        with make_client(server) as client:
            assert client.read_control(REG_ENVELOPE_DEPTH) == HW.envelope_buffer_depth
            with pytest.raises(TransportError, match="bad op"):
                client.write_control(REG_ENVELOPE_DEPTH, 16)
            with pytest.raises(TransportError, match="bad op"):
                client.write_region(REGION_CONTROL, 0, REG_N_COMMANDS, [0, 16])
            assert client.read_control(REG_ENVELOPE_DEPTH) == HW.envelope_buffer_depth

    def test_bad_region_rejected(self, server):
        with make_client(server) as client:
            with pytest.raises(TransportError, match="bad region"):
                client.read_region(99, 0, 0, 1)

    def test_envelope_unit_out_of_range(self, server):
        with make_client(server) as client:
            # down elements have no envelope memory
            with pytest.raises(TransportError, match="bad region"):
                client.write_region(REGION_ENVELOPE, HW.n_elements - 1, 0, [1])

    def test_range_overflow_rejected(self, server):
        with make_client(server) as client:
            with pytest.raises(TransportError, match="bad range"):
                client.read_region(REGION_ENVELOPE, 0, HW.envelope_buffer_depth - 1, 2)

    def test_acc_and_acq_reads_serve_any_slice(self, server):
        prog = readout_program(n_reads=2)
        acq = AcqConfig(tap="adc", unit=3, length=400)
        with make_client(server) as client:
            result = client.run_program(prog, 5, acq=acq)
            (element,) = result.acc
            acc = [w & 0xFFFFFFFF for pair in result.acc[element].tolist() for w in pair]
            assert client.read_region(REGION_ACC, element, 0, 20) == acc
            for lo, hi in [(0, 1), (1, 2), (1, 20), (3, 8), (19, 20), (20, 20)]:
                assert client.read_region(REGION_ACC, element, lo, hi - lo) == acc[lo:hi]
            depth = HW.acq_buffer_depth
            captured = client.read_region(REGION_ACQ, 0, 0, depth)  # several datagrams
            assert captured[:400] == iq_words(*result.acq.T).tolist()
            assert captured[400:] == [0] * (depth - 400)
            assert client.read_region(REGION_ACQ, 0, 397, 5) == captured[397:402]
            for region, offset, count in [(REGION_ACC, 19, 2), (REGION_ACQ, depth - 1, 2)]:
                with pytest.raises(TransportError, match="bad range"):
                    client._request(
                        OP_READ, region=region, unit=element, offset=offset, count=count
                    )

    @pytest.mark.parametrize(
        "region, bad",
        [
            (REGION_ENVELOPE, 1 << 32),
            (REGION_ENVELOPE, -1),
            (REGION_ENVELOPE, 1 << 64),
            (REGION_CONTROL, 1 << 32),
            (REGION_COMMAND, 1 << 128),
            (REGION_COMMAND, -1),
        ],
    )
    def test_word_outside_region_range_rejected_before_sending(self, region, bad):
        transport = RecordingTransport(None)
        client = DeviceClient(transport, timeout=0.01, retries=0)
        # the bad word sits in the second datagram's worth of words
        words = [0] * 3000 + [bad]
        with pytest.raises(TransportError, match="does not fit"):
            client.write_region(region, 0, 0, words)
        assert transport.sent == []

    def test_envelope_crc_region(self, server):
        depth = HW.envelope_buffer_depth
        with make_client(server) as client:
            zero = zlib.crc32(bytes(4 * depth))
            n_up = HW.n_processing_elements_up
            assert client.read_region(REGION_ENVELOPE_CRC, 0, 0, n_up) == [zero] * n_up
            client.write_region(REGION_ENVELOPE, 1, 5, [0xDEADBEEF, 7])
            memory = client.read_region(REGION_ENVELOPE, 1, 0, depth)
            want = zlib.crc32(np.array(memory, dtype=">u4").tobytes())
            assert want != zero
            assert client.read_region(REGION_ENVELOPE_CRC, 0, 1, 2) == [want, zero]
            with pytest.raises(TransportError, match="bad op"):
                client.write_region(REGION_ENVELOPE_CRC, 0, 0, [want])
            with pytest.raises(TransportError, match="bad range"):
                client.read_region(REGION_ENVELOPE_CRC, 0, 0, n_up + 1)

    def test_acc_clear_needs_a_nonzero_value(self, server):
        prog = readout_program()
        with make_client(server) as client:
            client.run_program(prog, 2)
            client.write_control(REG_ACC_CLEAR, 0)
            assert len(client.read_acc(HW.n_processing_elements_up, 2)) == 2
            client.write_control(REG_ACC_CLEAR, 1)
            with pytest.raises(TransportError, match="bad range"):
                client.read_acc(HW.n_processing_elements_up, 1)

    def test_write_while_idle_only(self, per_shot_server):
        prog = readout_program()
        with make_client(per_shot_server) as client:
            client.upload_program(prog)
            client.write_control(REG_SHOTS, 2000)
            client._request(OP_START)
            with pytest.raises(TransportError, match="bad state"):
                client.write_region(REGION_COMMAND, 0, 0, [0])
            client.stop()
            client.wait()


# ---------------------------------------------------------------------------
# Execution


class TestExecution:
    def test_remote_run_matches_local(self, server):
        prog = readout_program(n_reads=2)
        shots = 5
        acq = AcqConfig(tap="adc", unit=3, length=400)
        local = simulate_program(prog, wiring=Loopback(), shots=shots, acq=acq, seed=1234)
        with make_client(server) as client:
            remote = client.run_program(prog, shots, acq=acq)
        assert remote.shots_completed == shots
        assert set(remote.acc) == set(local.acc)
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])
        assert np.array_equal(remote.acq, local.acq)

    def test_acc_persists_until_cleared(self, server):
        prog = readout_program()
        with make_client(server) as client:
            first = client.run_program(prog, 3)
            second = client.run_program(prog, 3)
        # run_program clears before starting, so totals do not stack
        for element in first.acc:
            assert first.acc[element].shape == second.acc[element].shape

    def test_stop_interrupts_run(self, server):
        prog = readout_program(n_reads=4)
        with make_client(server) as client:
            client.upload_program(prog)
            client.clear_acc()
            client.start(100_000)
            while client.status()[1] < 1:
                time.sleep(0.001)
            client.stop()
            done, _ = client.wait()
            assert 1 <= done < 100_000

    def test_start_while_running_rejected(self, per_shot_server):
        prog = readout_program(n_reads=4)
        with make_client(per_shot_server) as client:
            client.upload_program(prog)
            client.start(100_000)
            with pytest.raises(TransportError, match="bad state"):
                client._request(OP_START)
            client.stop()
            client.wait()

    def test_invalid_image_rejected_synchronously(self, server, caplog):
        bad = cmdcodec.encode(
            cmdcodec.CommandFields(element=200, length=4, trig_t=0)
        )
        with make_client(server) as client:
            client.write_region(REGION_COMMAND, 0, 0, [bad])
            client.write_control(REG_N_COMMANDS, 1)
            client.write_control(REG_SHOTS, 1)
            with pytest.raises(TransportError, match="bad state"):
                client._request(OP_START)
        assert any("start rejected" in line for line in device_log(caplog))

    def test_acc_capacity_halts_run(self):
        hw = hw_with_acc_depth(10)
        prog = compile_circuit(
            Circuit((GateOp("X90", ("Q6",)), GateOp("read", ("Q6",)))), CHIP, GATES, hw
        )
        with DeviceServer(hw, wiring=Loopback(), seed=9) as srv:
            with make_client(srv) as client:
                result = client.run_program(prog, 25)
        assert result.shots_completed == 10
        for element in result.acc:
            assert result.acc[element].shape[0] == 10

    def test_acc_capacity_counts_entries_left_from_earlier_starts(self):
        hw = hw_with_acc_depth(10)
        prog = compile_circuit(
            Circuit((GateOp("X90", ("Q6",)), GateOp("read", ("Q6",)))), CHIP, GATES, hw
        )
        with DeviceServer(hw, wiring=Loopback(), seed=9) as srv:
            with make_client(srv) as client:
                first = client.run_program(prog, 4)
                client.start(25)  # no ACC clear in between
                done, faults = client.wait()
                (element,) = first.acc
                entries = client.read_acc(element, 10)
        assert (first.shots_completed, done, faults) == (4, 6, 0)
        # every START numbers its shots from 0
        assert np.array_equal(entries[:4], first.acc[element])
        assert np.array_equal(entries[4:8], first.acc[element])

    @pytest.mark.parametrize("shots", [1, 3])
    def test_remote_run_decodes_each_command_once(self, server, monkeypatch, shots):
        prog = readout_program(n_reads=3)
        decoded, columns = [], []
        decode, decode_columns = cmdcodec.decode, cmdcodec.decode_columns
        monkeypatch.setattr(cmdcodec, "decode", lambda word: decoded.append(word) or decode(word))
        monkeypatch.setattr(
            cmdcodec,
            "decode_columns",
            lambda words: columns.append(words.copy()) or decode_columns(words),
        )
        with make_client(server) as client:
            result = client.run_program(prog, shots)
        assert result.shots_completed == shots
        # START decodes COMMAND memory once, as columns, whatever the shots
        assert decoded == []
        assert [w.tobytes() for w in columns] == [cmdcodec.commands_to_bytes(prog.image.commands)]

    @pytest.mark.parametrize("shots", [1, 3])
    def test_remote_run_synthesizes_once(self, server, monkeypatch, shots):
        prog = readout_program(n_reads=3)
        # a window's samples depend on its first turn word, frequency,
        # length and the envelope words an up window reads
        spc, n_up = HW.samples_per_cycle, HW.n_processing_elements_up
        shift = 24 - cmdcodec.PHASE_WORD_BITS
        distinct = {}
        for cmd in prog.commands:
            turn = ((cmd.phase_word << shift) + cmd.freq_word * cmd.trig_t * spc) % 2**24
            words = None
            if cmd.element < n_up:
                words = prog.image.envelopes[cmd.element][cmd.start : cmd.start + cmd.length]
            distinct[(turn, cmd.freq_word, cmd.length, words)] = cmd.length
        assert len(distinct) < len(prog.commands)
        calls = []
        cordic = dspsim.cordic_cos_sin
        monkeypatch.setattr(
            dspsim, "cordic_cos_sin", lambda words: calls.append(len(words)) or cordic(words)
        )
        with make_client(server) as client:
            first = client.run_program(prog, shots)
            assert calls == [sum(distinct.values())]
            second = client.run_program(prog, shots)
        assert calls == [sum(distinct.values())]  # the second run is all memo hits
        assert first.shots_completed == second.shots_completed == shots
        assert set(first.acc) == set(second.acc)
        for element in first.acc:
            assert np.array_equal(first.acc[element], second.acc[element])

    @pytest.mark.parametrize(
        "shots, acq, message",
        [
            (-1, None, "shots must be >= 0, got -1"),
            (2**32, None, "shots 4294967296 exceed the 32-bit SHOTS register"),
            (1, AcqConfig(length=HW.acq_buffer_depth + 1), "acquisition length .* exceeds depth"),
        ],
    )
    def test_bad_run_rejected_before_any_request(self, server, shots, acq, message):
        with recording_client(server) as client:
            with pytest.raises(SimulationError, match=message):
                client.run_program(readout_program(), shots, acq=acq)
            assert client.transport.sent == []

    @pytest.mark.parametrize(
        "envelopes",
        [
            {HW.n_processing_elements_up: (0x4000 << 16,) * 64},  # a down element
            {99: (0x4000 << 16,) * 64},  # no such element
            {0: (0x4000 << 16,) * (HW.envelope_buffer_depth + 100)},  # past depth
        ],
        ids=["down-element", "element-99", "past-depth"],
    )
    def test_envelopes_the_device_cannot_hold_run_as_locally(self, server, envelopes):
        # a local run reads at most depth words of the up elements it
        # addresses, so the upload sends no more than that
        bare = read_window_image(64)
        image = ProgramImage(bare.commands, {**bare.envelopes, **envelopes}, bare.repeat_cycles)
        local = Simulator(HW, wiring=Loopback()).run(image, shots=2, seed=1234)
        with recording_client(server) as client:
            remote = client.run_program(image_program(image), 2)
            assert envelope_writes(client.transport.sent) == [0]
        assert remote.shots_completed == local.shots_completed == 2
        assert set(remote.acc) == set(local.acc)
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])

    def test_commands_beyond_the_buffer_rejected_before_any_request(self, server):
        depth = HW.command_buffer_depth
        image = ProgramImage((0,) * (depth + 1), {}, 1)
        message = f"^{depth + 1} commands exceed buffer depth {depth}$"
        with pytest.raises(SimulationError, match=message):
            Simulator(HW).run(image)
        with recording_client(server) as client:
            with pytest.raises(SimulationError, match=message):
                client.run_program(image_program(image), 1)
            with pytest.raises(SimulationError, match=message):
                client.upload_program(image_program(image))
            assert client.transport.sent == []

    def test_start_answers_before_synthesis(self, server, monkeypatch):
        prog = readout_program()
        release = threading.Event()
        cordic = dspsim.cordic_cos_sin
        monkeypatch.setattr(
            dspsim, "cordic_cos_sin", lambda words: release.wait(10) and cordic(words)
        )
        with make_client(server) as client:
            client.upload_program(prog)
            client.clear_acc()
            client.start(2)  # answers while the run thread waits to synthesize
            assert client.status() == (True, 0, 0)
            release.set()
            assert client.wait() == (2, 0)

    def test_long_program_starts_and_matches_local(self, server):
        image = long_image(HW)
        n_up = HW.n_processing_elements_up
        local = Simulator(HW, wiring=Loopback()).run(image, seed=1234)
        with make_client(server) as client:
            remote = client.run_program(image_program(image), 1)
        assert (remote.shots_completed, remote.fault_count) == (1, local.saturation_count)
        assert np.array_equal(remote.acc[n_up], local.acc[n_up])

    def test_conditional_command_without_flag_source_rejected(self, server, caplog):
        # the default condition map gates up elements only
        n_up = HW.n_processing_elements_up
        word = cmdcodec.encode(cmdcodec.CommandFields(element=n_up, length=32, condition=1))
        image = ProgramImage(commands=(word,), envelopes={}, repeat_cycles=16)
        with make_client(server) as client:
            with pytest.raises(TransportError, match="bad state"):
                client.run_program(image_program(image), 1)
            assert client.status() == (False, 0, 0)
        assert device_log(caplog) == [
            f"start rejected: element {n_up} has a conditional command but no flag source"
        ]

    def test_undecodable_command_rejected_at_start(self, server, caplog):
        reserved = 1 << 100  # fits 128 bits, but sets a reserved bit
        with make_client(server) as client:
            client.write_region(REGION_COMMAND, 0, 0, [reserved])
            client.write_control(REG_N_COMMANDS, 1)
            client.write_control(REG_SHOTS, 1)
            with pytest.raises(TransportError, match="bad state"):
                client._request(OP_START)
            assert client.status() == (False, 0, 0)
        assert device_log(caplog) == [
            "start rejected: command 0: nonzero reserved bits in a command word"
        ]
        image = ProgramImage(commands=(reserved,), envelopes={}, repeat_cycles=1)
        with pytest.raises(SimulationError, match="^command 0: nonzero reserved bits"):
            Simulator(HW).run(image)

    def test_aborted_run(self, caplog):
        prog = readout_program()
        wiring = FailingLoopback()
        with pytest.raises(SimulationError, match="^wiring failed$"):
            simulate_program(prog, wiring=wiring, shots=2, seed=1234)
        with DeviceServer(HW, wiring=wiring, seed=1234) as srv, make_client(srv) as client:
            remote = client.run_program(prog, 2)
        assert (remote.shots_completed, remote.fault_count) == (0, 1)
        assert device_log(caplog) == ["run aborted: wiring failed"]

    @pytest.mark.parametrize(
        "acq, message",
        [
            (AcqConfig(tap="adc", unit=9, length=64), "no ADC pair 9"),
            (AcqConfig(tap="dac", unit=-1, length=64), "no DAC pair -1"),
            (AcqConfig(tap="dlo", unit=0, length=64), "no down element 0"),
            (AcqConfig(tap="dlo", unit=HW.n_elements, length=64), f"no down element {HW.n_elements}"),
        ],
    )
    def test_capture_of_a_missing_unit_rejected(self, server, caplog, acq, message):
        # as a local run rejects it, before any request
        with pytest.raises(SimulationError, match=f"^{message}$"):
            simulate_program(readout_program(), wiring=Loopback(), shots=2, acq=acq)
        with make_client(server) as client:
            with pytest.raises(SimulationError, match=f"^{message}$"):
                client.run_program(readout_program(), 2, acq=acq)
            assert client.read_region(REGION_CONTROL, 0, REG_SHOTS, 1) == [0]
            assert client.status() == (False, 0, 0)
        assert device_log(caplog) == []

    @pytest.mark.parametrize(
        "tap, unit", [("adc", 4), ("dac", 2**31), ("dlo", 0), ("dlo", HW.n_elements)]
    )
    def test_start_answers_bad_range_for_a_missing_capture_unit(self, server, tap, unit):
        with make_client(server) as client:
            client.upload_program(readout_program())
            client.write_region(REGION_CONTROL, 0, REG_ACQ_TAP, [ACQ_TAPS.index(tap), unit, 64])
            with pytest.raises(TransportError, match="bad range"):
                client.start(1)
            assert client.status() == (False, 0, 0)  # the refused START runs nothing
            # the unit alone was at fault
            client.write_control(REG_ACQ_UNIT, HW.n_processing_elements_up if tap == "dlo" else 0)
            client.start(1)
            assert client.wait()[0] == 1

    @pytest.mark.parametrize("overflow", [False, True], ids=["no-shot", "acc-overflow"])
    def test_start_zeroes_the_capture(self, overflow):
        # a START that completes no shot, because none is asked for or its
        # first shot would overflow ACC, returns what a local run does
        hw = load_hardware_config('{"acc_buffer_depth": 1}')
        one_read = read_window_image(64)
        second = cmdcodec.CommandFields(
            element=HW.n_processing_elements_up, trig_t=16, length=64, destination=0
        )
        two_reads = ProgramImage(
            one_read.commands + (cmdcodec.encode(second),), one_read.envelopes, 32
        )
        acq = AcqConfig(tap="dac", unit=0, length=64)
        program, shots = (image_program(two_reads, hw), 2) if overflow else (
            image_program(one_read, hw), 0
        )
        with DeviceServer(hw, wiring=Loopback(), seed=1234) as srv, make_client(srv) as client:
            assert client.run_program(image_program(one_read, hw), 1, acq=acq).acq.any()
            remote = client.run_program(program, shots, acq=acq)
        local = simulate_program(program, wiring=Loopback(), shots=shots, acq=acq)
        assert remote.shots_completed == local.shots_completed == 0
        assert np.array_equal(remote.acq, local.acq) and not local.acq.any()

    def test_fault_count_is_per_start(self):
        prog = image_program(faulty_image(HW))
        local = simulate_program(prog, wiring=Loopback(), shots=2, seed=1234)
        faults = len(local.fault_log) + local.saturation_count
        assert faults > 0
        wiring = FailingLoopback()
        with DeviceServer(HW, wiring=wiring, seed=1234) as srv, make_client(srv) as client:
            wiring.failing = False
            counts = [client.run_program(prog, 2).fault_count for _ in range(2)]
            wiring.failing = True  # an aborted run counts one fault
            assert client.run_program(prog, 2).fault_count == 1
            wiring.failing = False
            counts.append(client.run_program(prog, 2).fault_count)
        assert counts == [faults] * 3

    def test_external_wiring_reads_each_start_afresh(self):
        # shot 0 of a second START sees its own DAC, not the first START's
        quiet, loud = (
            image_program(
                ProgramImage(
                    commands=read_window_image(64).commands,
                    envelopes={0: (level << 16,) * 64},
                    repeat_cycles=32,
                )
            )
            for level in (0x1000, 0x4000)
        )
        with DeviceServer(HW, wiring=noisy_loopback(), seed=7) as srv:
            with make_client(srv) as client:
                remote = [client.run_program(program, 1).acc for program in (quiet, loud)]
        for program, acc in zip((quiet, loud), remote):
            local = Simulator(HW, wiring=noisy_loopback()).run(program.image, seed=7)
            assert set(acc) == set(local.acc)
            assert all(np.array_equal(acc[e], local.acc[e]) for e in local.acc)

    @given(
        faulty=st.booleans(),
        shots=st.integers(0, 6),
        depth=st.integers(1, 12),
        seed=st.integers(0, 3),
        noisy=st.booleans(),
        tap=st.sampled_from(["adc", "dac", "dlo"]),
    )
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_one_start_equals_local_run(self, faulty, shots, depth, seed, noisy, tap):
        hw = hw_with_acc_depth(depth)
        if faulty:
            program = image_program(faulty_image(hw), hw)
        else:
            program = compile_circuit(
                Circuit((GateOp("X90", ("Q6",)), GateOp("read", ("Q6",))) * 2),
                CHIP,
                GATES,
                hw,
            )
        unit = {"adc": 0 if faulty else 3, "dac": 0, "dlo": hw.n_processing_elements_up}[tap]
        acq = AcqConfig(tap=tap, unit=unit, length=96)
        wiring = noisy_loopback if noisy else Loopback
        local = Simulator(hw, wiring=wiring()).run(
            program.image, shots=shots, acq=acq, seed=seed
        )
        with DeviceServer(hw, wiring=wiring(), seed=seed) as srv:
            with make_client(srv) as client:
                remote = client.run_program(program, shots, acq=acq)
        assert remote.shots_completed == local.shots_completed
        assert remote.fault_count == len(local.fault_log) + local.saturation_count
        assert set(remote.acc) == set(local.acc)
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])
        if local.shots_completed:
            assert np.array_equal(remote.acq, local.acq)


class TestRunThread:
    def test_runs_share_one_resident_thread(self, server):
        prog = readout_program()
        local = simulate_program(prog, wiring=Loopback(), shots=2, seed=1234)
        with make_client(server) as client:
            client.run_program(prog, 2)
            worker, threads = server._run_thread, threading.active_count()
            results = [client.run_program(prog, 2) for _ in range(20)]
            assert threading.active_count() == threads
        assert server._run_thread is worker and worker.is_alive()
        for result in results:
            assert all(np.array_equal(result.acc[e], local.acc[e]) for e in local.acc)

    def test_run_thread_outlives_a_failed_run(self, server, monkeypatch, caplog):
        prog = readout_program()

        def fail(state):
            raise MemoryError("no room for the shot")

        with make_client(server) as client:
            monkeypatch.setattr(dspsim._ShotState, "execute", fail)
            failed = client.run_program(prog, 2)
            monkeypatch.undo()
            result = client.run_program(prog, 2)
        assert (failed.shots_completed, failed.fault_count) == (0, 1)
        assert device_log(caplog) == ["run aborted: no room for the shot"]
        local = simulate_program(prog, wiring=Loopback(), shots=2, seed=1234)
        assert all(np.array_equal(result.acc[e], local.acc[e]) for e in local.acc)

    def test_stop_ends_an_idle_run_thread(self):
        srv = DeviceServer(HW, wiring=Loopback(), seed=1).start()
        _, seconds = timed(srv.stop)
        assert seconds < 2.0
        assert not srv._thread.is_alive() and not srv._run_thread.is_alive()

    def test_run_program_writes_one_control_block(self, server):
        prog = readout_program(n_reads=2)
        acq = AcqConfig(tap="dlo", unit=HW.n_processing_elements_up, length=100)
        with make_client(server) as client:
            client.run_program(prog, 3, acq=acq)
            registers = client.read_region(REGION_CONTROL, 0, 0, REG_ENVELOPE_DEPTH)
        # ACC_CLEAR acts on the write and holds nothing
        assert registers == [
            3, 0, ACQ_TAPS.index("dlo"), acq.unit, acq.length,
            prog.image.repeat_cycles, len(prog.image.commands),
        ]


class RecordingTransport:
    """Passes datagrams on (when ``inner`` is set) and records each request
    and its seq."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []
        self.seqs = []

    def send(self, data):
        p = decode_packet(data)
        self.sent.append((p.op, p.region, p.unit))
        self.seqs.append(p.seq)
        if self.inner is not None:
            self.inner.send(data)

    def recv(self, timeout):
        return None if self.inner is None else self.inner.recv(timeout)

    def close(self):
        if self.inner is not None:
            self.inner.close()


def recording_client(srv, **kwargs):
    return DeviceClient(RecordingTransport(UdpTransport(("127.0.0.1", srv.port))), **kwargs)


def envelope_writes(sent):
    return sorted(unit for op, region, unit in sent if (op, region) == (OP_WRITE, REGION_ENVELOPE))


def image_program(image, hw=HW):
    """``image`` as a compiled program, so the client knows its hardware."""
    return CompiledProgram(
        image=image,
        hw=hw,
        commands=tuple(map(cmdcodec.decode, image.commands)),
        tp=(),
        allocator="test",
    )


def read_window_image(n_words):
    """Element 0 plays envelope words [0, 64) onto DAC pair 0, then a down
    window on pair 0 reads them back; the image stores ``n_words`` words."""
    up = cmdcodec.CommandFields(element=0, length=64, freq_word=1 << 20, destination=0)
    down = cmdcodec.CommandFields(
        element=HW.n_processing_elements_up, length=64, freq_word=1 << 20, destination=0
    )
    return ProgramImage(
        commands=(cmdcodec.encode(up), cmdcodec.encode(down)),
        envelopes={0: (0x4000 << 16,) * n_words},
        repeat_cycles=32,
    )


class TestLongPeriod:
    def test_start_at_the_bound_holds_only_what_the_windows_reach(self, server):
        # both windows end at sample 64, within the first microsecond
        short = read_window_image(64)
        shortest = ProgramImage(short.commands, short.envelopes, 64 // HW.samples_per_cycle)
        longest = ProgramImage(short.commands, short.envelopes, MAX_REPEAT_CYCLES)
        with make_client(server) as client:
            expected = client.run_program(image_program(shortest), 2)
            tracemalloc.start()
            try:
                remote = client.run_program(image_program(longest), 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 64 * 2**20
        assert (remote.shots_completed, remote.fault_count) == (2, 0)
        assert set(remote.acc) == set(expected.acc)
        for element in expected.acc:
            assert np.array_equal(remote.acc[element], expected.acc[element])


class TestResidentEnvelopes:
    def test_remote_equals_local_after_a_longer_program(self, server):
        long, short = image_program(read_window_image(64)), image_program(read_window_image(32))
        n_up = HW.n_processing_elements_up
        local = Simulator(HW, wiring=Loopback()).run(short.image, seed=1234)
        longer = Simulator(HW, wiring=Loopback()).run(long.image, seed=1234)
        assert not np.array_equal(local.acc[n_up], longer.acc[n_up])
        with make_client(server) as client:
            client.run_program(long, 1)
            remote = client.run_program(short, 1)
        # words [32, 64) of the longer program are not left behind
        assert np.array_equal(remote.acc[n_up], local.acc[n_up])

    def test_bare_images_remote_equal_local_after_a_longer_one(self, server):
        # hand-built images, not compiled: wrapped only to carry their hardware
        long, short = image_program(read_window_image(64)), image_program(read_window_image(32))
        n_up = HW.n_processing_elements_up
        local = Simulator(HW, wiring=Loopback()).run(short.image, seed=1234)
        with recording_client(server) as client:
            client.run_program(long, 1)
            remote = client.run_program(short, 1)
            # words [32, 64) of the longer image are not left behind
            assert np.array_equal(remote.acc[n_up], local.acc[n_up])
            assert envelope_writes(client.transport.sent) == [0, 0]
            client.transport.sent.clear()
            again = client.run_program(short, 1)
            assert envelope_writes(client.transport.sent) == []
        assert np.array_equal(again.acc[n_up], local.acc[n_up])

    def test_steady_state_sends_no_envelopes(self, server):
        progs = [readout_program(1), readout_program(2)]  # the same envelopes
        # a STATUS budget of 1 s: the run ends within one STATUS
        with recording_client(server, timeout=2.0) as client:
            client.run_program(progs[0], 2)
            assert envelope_writes(client.transport.sent) == [0, 1]
            client.transport.sent.clear()
            result = client.run_program(progs[1], 2)
        assert client.transport.sent == [
            (OP_WRITE, REGION_COMMAND, 0),
            (OP_READ, REGION_ENVELOPE_CRC, 0),
            (OP_WRITE, REGION_CONTROL, 0),  # SHOTS .. N_COMMANDS
            (OP_START, 0, 0),
            (OP_STATUS, 0, 0),  # answered when the run ends
            (OP_READ, REGION_ACC, HW.n_processing_elements_up),
        ]
        local = simulate_program(progs[1], wiring=Loopback(), shots=2, seed=1234)
        assert np.array_equal(result.acc[HW.n_processing_elements_up], local.acc[HW.n_processing_elements_up])

    def test_reupload_after_another_client_writes(self, server):
        prog = readout_program()
        local = simulate_program(prog, wiring=Loopback(), shots=2, seed=1234)
        with recording_client(server) as client, make_client(server) as other:
            client.run_program(prog, 2)
            other.write_region(REGION_ENVELOPE, 1, 100, [0x7FFF0000])
            client.transport.sent.clear()
            remote = client.run_program(prog, 2)
            assert envelope_writes(client.transport.sent) == [1]
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])

    def test_reupload_after_a_fresh_server(self):
        prog = readout_program()
        local = simulate_program(prog, wiring=Loopback(), shots=2, seed=1234)
        first = DeviceServer(HW, wiring=Loopback(), seed=1234).start()
        port = first.port
        with recording_client(first) as client:
            client.run_program(prog, 2)
            first.stop()
            with DeviceServer(HW, wiring=Loopback(), port=port, seed=1234):
                client.transport.sent.clear()
                remote = client.run_program(prog, 2)
            assert envelope_writes(client.transport.sent) == [0, 1]
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])

    def test_new_words_at_the_same_addresses_play(self, server):
        # the same commands over rewritten envelope memory: a run must not
        # reuse what it synthesized from the words that were there before
        prog = readout_program()
        envelopes = prog.image.envelopes
        rng = np.random.default_rng(3)
        rewritten = image_program(
            ProgramImage(
                prog.image.commands,
                {e: rng.integers(0, 2**32, len(w)).tolist() for e, w in envelopes.items()},
                prog.image.repeat_cycles,
            )
        )
        before = simulate_program(prog, wiring=Loopback(), shots=2, seed=1234)
        local = simulate_program(rewritten, wiring=Loopback(), shots=2, seed=1234)
        n_up = HW.n_processing_elements_up
        assert not np.array_equal(local.acc[n_up], before.acc[n_up])
        with recording_client(server) as client:
            client.run_program(prog, 2)
            client.transport.sent.clear()
            remote = client.run_program(rewritten, 2)
            assert envelope_writes(client.transport.sent) == sorted(envelopes)
        assert set(remote.acc) == set(local.acc)
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])

    def test_addressed_element_without_words_is_zeroed(self, server):
        # a program whose command reads element 0 but stores no words there
        # must not play what an earlier program left in that memory
        bare = read_window_image(0)
        empty = image_program(ProgramImage(bare.commands, {}, bare.repeat_cycles))
        n_up = HW.n_processing_elements_up
        local = Simulator(HW, wiring=Loopback()).run(empty.image, seed=1234)
        with make_client(server) as client:
            client.run_program(image_program(read_window_image(64)), 1)
            remote = client.run_program(empty, 1)
        assert np.array_equal(remote.acc[n_up], local.acc[n_up])


# ---------------------------------------------------------------------------
# STATUS long poll


@pytest.fixture
def blocked_run(server, monkeypatch):
    """A 2-shot run whose synthesis waits for ``release``; yields the
    client (1 s timeout) and the release event."""
    release = threading.Event()
    cordic = dspsim.cordic_cos_sin
    monkeypatch.setattr(dspsim, "cordic_cos_sin", lambda words: release.wait(10) and cordic(words))
    with make_client(server, timeout=1.0) as client:
        client.upload_program(readout_program())
        client.clear_acc()
        client.start(2)
        try:
            yield client, release
        finally:
            release.set()
            client.wait()


def timed(fn, *args):
    t0 = time.monotonic()
    result = fn(*args)
    return result, time.monotonic() - t0


class TestLongPoll:
    def test_run_longer_than_the_budget_answers_running(self, blocked_run):
        client, release = blocked_run
        status, seconds = timed(client.status, 150)
        assert status == (True, 0, 0)
        assert seconds >= 0.14
        release.set()
        assert client.wait() == (2, 0)

    def test_budget_zero_answers_at_once(self, blocked_run):
        client, _ = blocked_run
        status, seconds = timed(client.status, 0)
        assert status == (True, 0, 0)
        assert seconds < 0.5  # the run is blocked for up to 10 s

    def test_duplicate_status_replayed_without_second_wait(self, server, blocked_run):
        client, _ = blocked_run
        blob = encode_packet(Packet(seq=client._seq + 1000, op=OP_STATUS, count=300))
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(2.0)

        def ask():
            sock.sendto(blob, ("127.0.0.1", server.port))
            return sock.recvfrom(8192)[0]

        try:
            first, waited = timed(ask)
            again, replayed = timed(ask)
        finally:
            sock.close()
        assert again == first
        assert decode_packet(first).payload[:4] == (1).to_bytes(4, "big")  # running
        assert waited >= 0.29 and replayed < 0.2

    def test_stop_during_a_long_poll_returns_promptly(self, monkeypatch):
        # Under Loopback only shot 0 executes (20 ms) and the other shots
        # replay it, so the run ends before stop() and answers the poll
        # itself; the per-shot test below holds the poll across stop().
        execute = dspsim._ShotState.execute
        monkeypatch.setattr(
            dspsim._ShotState, "execute", lambda state: (execute(state), time.sleep(0.02))
        )
        srv = DeviceServer(HW, wiring=Loopback(), seed=1).start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            with make_client(srv) as client:
                client.upload_program(readout_program())
                client.clear_acc()
                client.start(1000)
            sock.sendto(
                encode_packet(Packet(seq=1, op=OP_STATUS, count=60_000)),
                ("127.0.0.1", srv.port),
            )
            time.sleep(0.2)  # the server now holds the poll
            _, seconds = timed(srv.stop)
        finally:
            sock.close()
            srv.stop()
        assert seconds < 2.0
        assert not srv._thread.is_alive() and not srv._run_thread.is_alive()

    def test_stop_during_a_long_poll_of_a_per_shot_run(self, monkeypatch):
        # every shot executes and takes 20 ms, so the run lasts about 20 s
        execute = dspsim._ShotState.execute
        monkeypatch.setattr(
            dspsim._ShotState, "execute", lambda state: (execute(state), time.sleep(0.02))
        )
        srv = DeviceServer(HW, wiring=PerShotLoopback(), seed=1).start()
        try:
            with make_client(srv, timeout=2.0) as client:
                client.upload_program(readout_program())
                client.clear_acc()
                client.start(1000)
                answers = []
                held = threading.Thread(
                    target=lambda: answers.append(client.status(60_000)), daemon=True
                )
                held.start()
                time.sleep(0.2)  # the server now holds the poll
                _, seconds = timed(srv.stop)
                held.join(2.0)
        finally:
            srv.stop()
        assert seconds < 2.0
        (running, done, _), = answers
        assert not running and 1 <= done < 1000
        assert not srv._thread.is_alive() and not srv._run_thread.is_alive()


# ---------------------------------------------------------------------------
# Transport faults


class TestFaultTolerance:
    def test_timeout_raises_with_last_seq(self):
        # a socket nothing answers
        sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sink.bind(("127.0.0.1", 0))
        try:
            client = DeviceClient(
                UdpTransport(sink.getsockname()), timeout=0.02, retries=1, seq_start=77
            )
            with pytest.raises(TransportError) as err:
                client.status()
            assert err.value.last_seq == 77
            client.close()
        finally:
            sink.close()

    def test_duplicate_write_answered_from_cache(self, server):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(0.5)
        addr = ("127.0.0.1", server.port)

        def rpc(blob):
            sock.sendto(blob, addr)
            data, _ = sock.recvfrom(8192)
            return decode_packet(data)

        first = encode_packet(
            Packet(
                seq=500,
                op=OP_WRITE,
                region=REGION_ENVELOPE,
                unit=0,
                offset=0,
                count=1,
                payload=(111).to_bytes(4, "big"),
            )
        )
        second = encode_packet(
            Packet(
                seq=501,
                op=OP_WRITE,
                region=REGION_ENVELOPE,
                unit=0,
                offset=0,
                count=1,
                payload=(222).to_bytes(4, "big"),
            )
        )
        try:
            assert rpc(first).status == 0
            assert rpc(second).status == 0
            # stale retransmit of the first write: cached reply, no re-execution
            assert rpc(first).status == 0
            read = rpc(
                encode_packet(
                    Packet(seq=502, op=OP_READ, region=REGION_ENVELOPE, unit=0, count=1)
                )
            )
            assert int.from_bytes(read.payload, "big") == 222
        finally:
            sock.close()

    def test_colliding_seqs_from_two_clients_both_execute(self, server):
        first, second = (make_client(server, seq_start=1000) for _ in range(2))
        try:
            first.write_control(REG_SHOTS, 7)
            second.write_control(REG_SHOTS, 9)
            assert first.read_control(REG_SHOTS) == 9
        finally:
            first.close()
            second.close()

    def test_malformed_datagrams_dropped(self, server):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        addr = ("127.0.0.1", server.port)
        blob = bytearray(encode_packet(Packet(seq=1, op=OP_STATUS)))
        blob[-1] ^= 0xFF  # break the checksum
        try:
            sock.sendto(bytes(blob), addr)
            sock.sendto(b"garbage", addr)
            sock.settimeout(0.05)
            with pytest.raises(socket.timeout):
                sock.recvfrom(8192)
        finally:
            sock.close()
        assert server.dropped >= 2

    def test_lossy_link_still_exact(self, server):
        # Under Loopback the shots replay shot 0, so the run ends within
        # the first STATUS budget; the per-shot test below spans several.
        prog = readout_program(n_reads=2)
        shots = 150
        acq = AcqConfig(tap="adc", unit=3, length=300)
        local = simulate_program(prog, wiring=Loopback(), shots=shots, acq=acq, seed=1234)
        transport = LossyTransport(
            UdpTransport(("127.0.0.1", server.port)),
            loss=0.05,
            dup=0.05,
            reorder=0.05,
            seed=42,
        )
        with DeviceClient(transport, timeout=0.05, retries=6) as client:
            remote = client.run_program(prog, shots, acq=acq)
        assert remote.shots_completed == shots
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])
        assert np.array_equal(remote.acq, local.acq)

    def test_lossy_link_over_several_long_polls(self, per_shot_server, monkeypatch):
        # every shot executes and takes at least 2 ms, so the run outlasts
        # several 25 ms STATUS budgets
        execute = dspsim._ShotState.execute
        monkeypatch.setattr(
            dspsim._ShotState, "execute", lambda state: (execute(state), time.sleep(0.002))
        )
        prog = readout_program(n_reads=2)
        shots = 150
        acq = AcqConfig(tap="adc", unit=3, length=300)
        local = simulate_program(prog, wiring=Loopback(), shots=shots, acq=acq, seed=1234)
        recorder = RecordingTransport(UdpTransport(("127.0.0.1", per_shot_server.port)))
        transport = LossyTransport(recorder, loss=0.05, dup=0.05, reorder=0.05, seed=42)
        with DeviceClient(transport, timeout=0.05, retries=6) as client:
            remote = client.run_program(prog, shots, acq=acq)
        polls = {seq for (op, _, _), seq in zip(recorder.sent, recorder.seqs) if op == OP_STATUS}
        assert len(polls) >= 3
        assert remote.shots_completed == shots
        for element in local.acc:
            assert np.array_equal(remote.acc[element], local.acc[element])
        assert np.array_equal(remote.acq, local.acq)


# Wire fuzzing

_FAULTS = (None, None, None, "truncate", "magic", "crc")
# REPEAT_CYCLES values: small, or beyond the bound (a START then answers
# BAD_RANGE); never a large value a START would run
_REPEAT_VALUES = st.integers(0, 8) | st.integers(MAX_REPEAT_CYCLES + 1, 2**32 - 1)


@st.composite
def wire_datagrams(draw):
    """One datagram and whether it is malformed: a valid packet with
    arbitrary fields (CONTROL writes hold small values, or REPEAT_CYCLES
    beyond its bound, and a STATUS a small budget, so every run and wait
    stays short), or a truncated, bad-magic or bad-CRC one."""
    op = draw(st.sampled_from([0, OP_WRITE, OP_WRITE, OP_READ, OP_START, OP_STOP, OP_STATUS, 9]))
    region = draw(
        st.sampled_from(
            [0, REGION_COMMAND, REGION_ENVELOPE, REGION_ACC, REGION_ACQ]
            + [REGION_CONTROL, REGION_CONTROL, REGION_ENVELOPE_CRC, 7]
        )
    )
    word = cmdcodec.COMMAND_BYTES if region == REGION_COMMAND else 4
    # up to every writable register at once
    n_words = draw(st.integers(0, 7 if region == REGION_CONTROL else 4))
    offset = draw(st.one_of(st.integers(0, 7), st.integers(0, 2**32 - 1)))
    if region == REGION_CONTROL:
        values = [
            draw(_REPEAT_VALUES if reg == REG_REPEAT_CYCLES else st.integers(0, 8))
            for reg in range(offset, offset + n_words)
        ]
        payload = b"".join(v.to_bytes(4, "big") for v in values)
    else:
        size = n_words * word + draw(st.sampled_from([0, 0, 0, 1, 3]))
        payload = draw(st.binary(min_size=size, max_size=size))
    if op == OP_STATUS:
        count = draw(st.integers(0, 3))  # wait budget, ms
    else:
        count = draw(st.one_of(st.just(n_words), st.integers(0, 2**32 - 1)))
    packet = Packet(
        seq=draw(st.integers(0, 2**32 - 1)),
        op=op,
        region=region,
        unit=draw(st.integers(0, 24)),
        status=draw(st.integers(0, 255)),
        offset=offset,
        count=count,
        payload=payload,
    )
    blob = bytearray(encode_packet(packet))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    elif fault == "magic":
        body = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"QBC1"))
        body += bytes(blob[4:-CRC_SIZE])
        blob = bytearray(body + zlib.crc32(body).to_bytes(4, "big"))
    elif fault == "crc":
        blob[draw(st.integers(0, len(blob) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(blob), packet, fault is not None


@pytest.fixture(scope="module")
def wire_server():
    srv = DeviceServer(HW, wiring=Loopback(), seed=5).start()
    yield srv
    srv.stop()


class TestWireFuzz:
    # a reused seq is answered from the replay cache, so seqs are unique
    @given(
        datagrams=st.lists(
            wire_datagrams(), min_size=1, max_size=8, unique_by=lambda d: d[1].seq
        )
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_datagram_answered_or_dropped(self, wire_server, datagrams):
        crashed = []
        hook, threading.excepthook = threading.excepthook, crashed.append
        # the OS may hand this example's socket an earlier one's port, whose
        # seqs the replay cache would answer
        with wire_server._lock:
            wire_server._cache.clear()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(2.0)
        addr = ("127.0.0.1", wire_server.port)
        dropped = wire_server.dropped
        try:
            for blob, packet, malformed in datagrams:
                sock.sendto(blob, addr)
                if malformed:
                    dropped += 1
                    continue
                reply = decode_packet(sock.recvfrom(8192)[0])
                assert (reply.seq, reply.op) == (packet.seq, packet.op)
                assert reply.status in (0, 1, 2, 3, 4)
            # replies come in order, so this one also covers every drop
            used = {packet.seq for _, packet, _ in datagrams}
            seq = min(set(range(len(used) + 1)) - used)
            sock.sendto(encode_packet(Packet(seq=seq, op=OP_STATUS)), addr)
            reply = decode_packet(sock.recvfrom(8192)[0])
            assert (reply.seq, reply.op, reply.status) == (seq, OP_STATUS, 0)
        finally:
            sock.close()
            threading.excepthook = hook
        assert wire_server.dropped == dropped
        assert wire_server._thread.is_alive()
        assert crashed == []

    @given(
        repeat=st.integers(MAX_REPEAT_CYCLES + 1, 2**32 - 1),
        shots=st.integers(0, 8),
        n_commands=st.integers(0, 8),
    )
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_repeat_cycles_beyond_bound_answered_bad_range(
        self, wire_server, repeat, shots, n_commands
    ):
        with make_client(wire_server) as client:
            client.wait()  # idle, so only the range check can refuse the START
            client.write_region(
                REGION_CONTROL, 0, REG_SHOTS, [shots, 0, 0, 0, 0, repeat, n_commands]
            )
            with pytest.raises(TransportError, match="bad range"):
                client._request(OP_START)
            assert not client.status()[0]  # the refused START runs nothing
            client.write_control(REG_REPEAT_CYCLES, 1)
        assert wire_server._thread.is_alive() and wire_server._run_thread.is_alive()
