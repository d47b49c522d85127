"""UDP control protocol: device emulator and host-side client.

Wire format (all integers big-endian)::

    magic "QBC1" | seq u32 | op u8 | region u8 | unit u8 | status u8 |
    offset u32 | count u32 | payload ... | crc32 u32

The CRC covers the header and payload.  Datagrams never exceed 8192
bytes; larger transfers are chunked by the client.  The protocol is
stop-and-wait: one request in flight, responses echo the request seq,
and the client retransmits on timeout.  The server keeps a cache of
recent responses keyed by the sender's address and seq, so a duplicated
or retransmitted request is answered from the cache and never executed
twice; a stale WRITE can therefore not corrupt memory after later
writes, and clients whose sequence numbers collide each get the reply
to their own request.  Datagrams with a bad magic or CRC are dropped
silently (counted, never answered).

Regions:

* COMMAND: 16-byte command words, held as they arrive on the wire.
* ENVELOPE: 32-bit words, per-element (unit selects the element).
* ACC: accumulator entries as word pairs (I then Q, two's complement),
  per down element.  Reading never drains; clear explicitly.
* ACQ: raw capture, one 32-bit word per sample, I in the top half.
* CONTROL: 32-bit registers (see the REG_* constants).
* ENVELOPE_CRC: read-only, one 32-bit word per up element: the CRC-32
  of that element's whole envelope memory as big-endian words.

``upload_program`` reads ENVELOPE_CRC and writes a program's envelopes
only where the device does not already hold them.

Ops: WRITE, READ, START (begin a run in the background), STOP, STATUS.
STATUS returns three u32s: running flag, and the shots completed and
faults of the current or last START.
A STATUS ``count`` is a wait budget in ms: the server answers when the
run ends or the budget runs out (0 answers at once).
"""

from __future__ import annotations

import logging
import random
import socket
import struct
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import cmdcodec
from .dspsim import (
    ACQ_TAPS,
    MAX_REPEAT_CYCLES,
    AcqConfig,
    RunBuffers,
    Simulator,
    acc_windows,
    check_command_count,
    check_run,
)
from .envgen import iq_lanes, iq_words, u32_array
from .errors import EncodingError, SimulationError, TransportError

logger = logging.getLogger("qubicforge.device")

MAGIC = b"QBC1"
HEADER = struct.Struct(">4sIBBBBII")
HEADER_SIZE = HEADER.size  # 20
CRC_SIZE = 4
MAX_DATAGRAM = 8192
MAX_PAYLOAD = MAX_DATAGRAM - HEADER_SIZE - CRC_SIZE

OP_WRITE = 1
OP_READ = 2
OP_START = 3
OP_STOP = 4
OP_STATUS = 5

REGION_COMMAND = 1
REGION_ENVELOPE = 2
REGION_ACC = 3
REGION_ACQ = 4
REGION_CONTROL = 5
REGION_ENVELOPE_CRC = 6
_WRITABLE_REGIONS = (REGION_COMMAND, REGION_ENVELOPE, REGION_CONTROL)
# regions the server holds as arrays of their wire words
_WIRE_REGIONS = (REGION_COMMAND, REGION_ENVELOPE)

STATUS_OK = 0
STATUS_BAD_REGION = 1
STATUS_BAD_RANGE = 2
STATUS_BAD_STATE = 3
STATUS_BAD_OP = 4

_STATUS_NAMES = {
    STATUS_OK: "ok",
    STATUS_BAD_REGION: "bad region",
    STATUS_BAD_RANGE: "bad range",
    STATUS_BAD_STATE: "bad state",
    STATUS_BAD_OP: "bad op",
}

# CONTROL register indices
REG_SHOTS = 0
REG_ACC_CLEAR = 1
REG_ACQ_TAP = 2  # index into dspsim.ACQ_TAPS: 0 adc, 1 dac, 2 dlo
REG_ACQ_UNIT = 3
REG_ACQ_LEN = 4
REG_REPEAT_CYCLES = 5
REG_N_COMMANDS = 6
REG_ENVELOPE_DEPTH = 7  # read-only: envelope words per up element
N_CONTROL_REGS = 8

_REPLAY_CACHE_SIZE = 1024  # replies the server keeps for retransmitted requests
_MAX_POLLS = 100_000  # long-polled STATUS requests before a client gives up


@dataclass(frozen=True)
class Packet:
    seq: int
    op: int
    region: int = 0
    unit: int = 0
    status: int = 0
    offset: int = 0
    count: int = 0
    payload: bytes = b""


def encode_packet(p: Packet) -> bytes:
    if len(p.payload) > MAX_PAYLOAD:
        raise TransportError(f"payload of {len(p.payload)} bytes exceeds {MAX_PAYLOAD}")
    try:
        head = HEADER.pack(
            MAGIC, p.seq & 0xFFFFFFFF, p.op, p.region, p.unit, p.status, p.offset, p.count
        )
    except struct.error:
        for name in ("op", "region", "unit", "status", "offset", "count"):
            bits = 32 if name in ("offset", "count") else 8
            value = getattr(p, name)
            if not 0 <= value < 1 << bits:
                raise TransportError(f"{name} {value} does not fit {bits} bits") from None
        raise
    body = head + p.payload
    return body + zlib.crc32(body).to_bytes(4, "big")


def decode_packet(data: bytes) -> Packet:
    """Parse and verify one datagram; raises on anything malformed."""
    if len(data) < HEADER_SIZE + CRC_SIZE:
        raise TransportError("datagram too short")
    magic, seq, op, region, unit, status, offset, count = HEADER.unpack(
        data[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise TransportError("bad magic")
    body, crc = data[:-CRC_SIZE], int.from_bytes(data[-CRC_SIZE:], "big")
    if zlib.crc32(body) != crc:
        raise TransportError("bad checksum")
    return Packet(
        seq=seq,
        op=op,
        region=region,
        unit=unit,
        status=status,
        offset=offset,
        count=count,
        payload=data[HEADER_SIZE:-CRC_SIZE],
    )


# Region words on the wire: 16-byte command words in COMMAND, big-endian
# u32 words in every other region.


def _word_size(region) -> int:
    return cmdcodec.COMMAND_BYTES if region == REGION_COMMAND else 4


def _to_payload(region, words) -> bytes:
    """Payload of ``words``; TransportError if one does not fit."""
    try:
        if region == REGION_COMMAND:
            return cmdcodec.commands_to_bytes(words)
        return u32_array(words).astype(">u4").tobytes()
    except EncodingError as exc:
        raise TransportError(str(exc)) from None
    except ValueError as exc:
        raise TransportError(f"region {region}: {exc}") from None


def _from_payload(region, payload) -> list:
    """The words, as ints, of a payload of whole words."""
    if region == REGION_COMMAND:
        return cmdcodec.commands_from_bytes(payload)
    return np.frombuffer(payload, ">u4").tolist()


# ---------------------------------------------------------------------------
# Transports


class UdpTransport:
    """Blocking datagram socket bound to one peer."""

    def __init__(self, address):
        self.address = address
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))

    def send(self, data: bytes):
        self.sock.sendto(data, self.address)

    def recv(self, timeout: float):
        self.sock.settimeout(min(timeout, threading.TIMEOUT_MAX))
        try:
            data, _ = self.sock.recvfrom(MAX_DATAGRAM)
            return data
        except socket.timeout:
            return None

    def close(self):
        self.sock.close()


class LossyTransport:
    """Fault-injection wrapper: drops, duplicates, and reorders sends.

    Reordering holds a datagram back and releases it after the next
    send, which is the strongest reordering a stop-and-wait link can
    observe.  Determinism comes from the seeded RNG.
    """

    def __init__(self, inner, loss=0.0, dup=0.0, reorder=0.0, seed=0):
        self.inner = inner
        self.loss = loss
        self.dup = dup
        self.reorder = reorder
        self.rng = random.Random(seed)
        self._held = None

    def send(self, data: bytes):
        if self._held is not None:
            held, self._held = self._held, None
            self._transmit(data)
            self._transmit(held)
            return
        if self.reorder and self.rng.random() < self.reorder:
            self._held = data
            return
        self._transmit(data)

    def _transmit(self, data):
        if self.loss and self.rng.random() < self.loss:
            return
        self.inner.send(data)
        if self.dup and self.rng.random() < self.dup:
            self.inner.send(data)

    def recv(self, timeout: float):
        return self.inner.recv(timeout)

    def close(self):
        if self._held is not None:
            self._transmit(self._held)
            self._held = None
        self.inner.close()


# ---------------------------------------------------------------------------
# Server


class DeviceServer:
    """In-process device emulator behind a UDP socket.

    Holds the memory regions, executes runs on the signal-path
    simulator in a background thread, and answers the control protocol.
    COMMAND memory holds the words as they arrive; START decodes the
    staged words as columns, validates them once and hands the prepared
    program to the run thread, one long-lived worker that ``start``
    creates and ``stop`` ends.  The worker iterates the simulator's shot
    loop, which folds each shot into the device's buffers under the
    device lock, so STATUS can observe progress and STOP can interrupt.
    Under a deterministic wiring an unconditional program executes one
    shot and replays it for the others.  Every START numbers its shots
    from 0, counts its own shots and faults and zeroes ACQ, so one START
    of n shots equals a local run of n shots.  A STATUS with a wait
    budget holds the serving thread until the run ends or the budget
    runs out; no other datagram is answered meanwhile.  Rejected starts,
    aborted runs and dropped datagrams are logged to the
    ``qubicforge.device`` logger.
    """

    def __init__(self, hw, wiring=None, host="127.0.0.1", port=0, seed=None):
        self.hw = hw
        self.sim = Simulator(hw, wiring=wiring)
        self.seed = seed
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((host, port))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()
        self._lock = threading.RLock()
        # notified when START hands a run over and when a run ends
        self._run_changed = threading.Condition(self._lock)
        self._cache = OrderedDict()
        self._stop = threading.Event()
        self._thread = None
        self._run_thread = None
        self._run_stop = threading.Event()
        self._next_run = None  # (prepared, shots, acq) for the run thread
        self._handlers = {
            OP_WRITE: self._op_write,
            OP_READ: self._op_read,
            OP_START: self._op_start,
            OP_STOP: self._op_stop,
            OP_STATUS: self._op_status,
        }
        self.dropped = 0  # malformed datagrams, silently discarded
        self._reset_state()

    def _reset_state(self):
        with self._lock:
            # wire words: big-endian 64-bit halves, high half first
            self.commands = np.zeros((self.hw.command_buffer_depth, 2), dtype=">u8")
            self.envelopes = {
                e: np.zeros(self.hw.envelope_buffer_depth, dtype=">u4")
                for e in range(self.hw.n_processing_elements_up)
            }
            self._envelope_crc = {}  # element -> CRC-32, dropped on every write
            self.control = [0] * N_CONTROL_REGS
            self.control[REG_REPEAT_CYCLES] = 1
            self.control[REG_ENVELOPE_DEPTH] = self.hw.envelope_buffer_depth
            self.buffers = RunBuffers(
                acc={e: [] for e in range(self.hw.n_processing_elements_up, self.hw.n_elements)},
                acq=np.zeros((self.hw.acq_buffer_depth, 2), dtype=np.int32),
            )
            self.running = False

    @property
    def port(self):
        return self.address[1]

    # -- lifecycle ------------------------------------------------------

    def start(self):
        self._run_thread = threading.Thread(target=self._run_worker, daemon=True)
        self._run_thread.start()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        with self._lock:
            self._stop.set()
            self._run_stop.set()
            self._run_changed.notify_all()
        if self._thread is not None:
            self._thread.join()
        if self._run_thread is not None:
            self._run_thread.join()
        self.sock.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _serve(self):
        while not self._stop.is_set():
            try:
                data, peer = self.sock.recvfrom(MAX_DATAGRAM)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                request = decode_packet(data)
            except TransportError as exc:
                self.dropped += 1
                logger.info("dropped datagram: %s", exc)
                continue
            response = self._respond(request, peer)
            try:
                self.sock.sendto(response, peer)
            except OSError:
                break

    def _respond(self, request: Packet, peer) -> bytes:
        key = (peer, request.seq)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            reply = self._execute(request)
            blob = encode_packet(reply)
            self._cache[key] = blob
            while len(self._cache) > _REPLAY_CACHE_SIZE:
                self._cache.popitem(last=False)
            return blob

    # -- request handling -------------------------------------------------

    def _execute(self, request: Packet) -> Packet:
        handler = self._handlers.get(request.op)
        if handler is None:
            return self._status_reply(request, STATUS_BAD_OP)
        return handler(request)

    def _status_reply(self, request, status, payload=b""):
        return replace(request, status=status, payload=payload)

    def _region_store(self, region, unit):
        """The words of a region, or None; read-only regions as u32 words."""
        if region == REGION_COMMAND:
            return self.commands
        if region == REGION_ENVELOPE:
            return self.envelopes.get(unit)
        if region == REGION_ACC:
            entries = self.buffers.acc.get(unit)
            if entries is None:
                return None
            # signed entries as their two's complement
            return np.array(entries, dtype=np.int64).reshape(-1) & 0xFFFFFFFF
        if region == REGION_ACQ:
            # the capture already lies within 16 bits per lane
            return iq_words(*self.buffers.acq.T)
        if region == REGION_CONTROL:
            return self.control
        if region == REGION_ENVELOPE_CRC:
            return self._envelope_crcs()
        return None

    def _envelope_crcs(self):
        for e, words in self.envelopes.items():
            if e not in self._envelope_crc:
                self._envelope_crc[e] = zlib.crc32(words)
        return [self._envelope_crc[e] for e in sorted(self.envelopes)]

    def _op_write(self, request):
        store = self._region_store(request.region, request.unit)
        if store is None:
            return self._status_reply(request, STATUS_BAD_REGION)
        if request.region not in _WRITABLE_REGIONS:
            return self._status_reply(request, STATUS_BAD_OP)
        if self.running and request.region != REGION_CONTROL:
            return self._status_reply(request, STATUS_BAD_STATE)
        count = request.count
        if len(request.payload) != count * _word_size(request.region):
            return self._status_reply(request, STATUS_BAD_RANGE)
        lo = request.offset
        if lo + count > len(store):
            return self._status_reply(request, STATUS_BAD_RANGE)
        if request.region == REGION_CONTROL and lo + count > REG_ENVELOPE_DEPTH:
            return self._status_reply(request, STATUS_BAD_OP)
        if request.region == REGION_CONTROL:
            for reg, value in enumerate(_from_payload(request.region, request.payload), lo):
                self._write_control(reg, value)
        else:
            words = np.frombuffer(request.payload, store.dtype)
            store[lo : lo + count] = words.reshape((count,) + store.shape[1:])
            if request.region == REGION_ENVELOPE:
                self._envelope_crc.pop(request.unit, None)
        return self._status_reply(request, STATUS_OK)

    def _write_control(self, reg, value):
        if reg == REG_ACC_CLEAR:
            if value:
                for entries in self.buffers.acc.values():
                    entries.clear()
            return
        self.control[reg] = value

    def _op_read(self, request):
        store = self._region_store(request.region, request.unit)
        if store is None:
            return self._status_reply(request, STATUS_BAD_REGION)
        count = request.count
        if count * _word_size(request.region) > MAX_PAYLOAD:
            return self._status_reply(request, STATUS_BAD_RANGE)
        if request.offset + count > len(store):
            return self._status_reply(request, STATUS_BAD_RANGE)
        words = store[request.offset : request.offset + count]
        if request.region in _WIRE_REGIONS:
            payload = words.tobytes()
        else:
            payload = _to_payload(request.region, words)
        return self._status_reply(request, STATUS_OK, payload)

    def _op_start(self, request):
        if self.running:
            return self._status_reply(request, STATUS_BAD_STATE)
        n_cmds = self.control[REG_N_COMMANDS]
        repeat_cycles = max(1, self.control[REG_REPEAT_CYCLES])
        if n_cmds > len(self.commands) or repeat_cycles > MAX_REPEAT_CYCLES:
            return self._status_reply(request, STATUS_BAD_RANGE)
        acq_len = self.control[REG_ACQ_LEN]
        acq_cfg = None
        if acq_len:
            tap_idx = self.control[REG_ACQ_TAP]
            if tap_idx >= len(ACQ_TAPS):
                return self._status_reply(request, STATUS_BAD_RANGE)
            acq_cfg = AcqConfig(
                tap=ACQ_TAPS[tap_idx], unit=self.control[REG_ACQ_UNIT], length=acq_len
            )
            try:  # a capture longer than the buffer, or of a unit the hardware lacks
                check_run(self.hw, self.control[REG_SHOTS], acq_cfg)
            except SimulationError:
                return self._status_reply(request, STATUS_BAD_RANGE)
        try:
            # Validate the program, and copy the envelope memory it reads,
            # before confirming the start.
            prepared = self.sim.prepare(self.commands[:n_cmds], repeat_cycles, self.envelopes)
        except SimulationError as exc:
            logger.warning("start rejected: %s", exc)
            return self._status_reply(request, STATUS_BAD_STATE)
        self.running = True
        # ACC carries over; ACQ, the shot and fault counts start again
        self.buffers.acq[:] = 0
        self.buffers = RunBuffers(acc=self.buffers.acc, acq=self.buffers.acq)
        self._run_stop.clear()
        self._next_run = (prepared, self.control[REG_SHOTS], acq_cfg)
        self._run_changed.notify_all()
        return self._status_reply(request, STATUS_OK)

    def _run_worker(self):
        """Run each program START hands over, until the server stops.

        A run handed over as the server stops still ends through
        ``_run``, so a held STATUS poll sees it end."""
        while True:
            with self._lock:
                self._run_changed.wait_for(
                    lambda: self._next_run is not None or self._stop.is_set()
                )
                run, self._next_run = self._next_run, None
            if run is None:
                return
            self._run(*run)

    def _run(self, prepared, shots, acq_cfg):
        try:
            # the loop itself folds every shot into the device's buffers
            for _ in self.sim.shots(
                prepared,
                shots,
                self.buffers,
                acq=acq_cfg,
                seed=self.seed,
                lock=self._lock,
                stop=self._run_stop,
            ):
                pass
        except Exception as exc:  # any failure ends this run, not the run thread
            logger.warning(
                "run aborted: %s", exc, exc_info=not isinstance(exc, SimulationError)
            )
            with self._lock:
                self.buffers.faults += 1
        finally:
            with self._lock:
                self.running = False
                self._run_changed.notify_all()

    def _op_stop(self, request):
        self._run_stop.set()
        return self._status_reply(request, STATUS_OK)

    def _op_status(self, request):
        # Waiting releases the lock, so the run thread can go on.
        self._run_changed.wait_for(lambda: not self.running, request.count / 1000)
        b = self.buffers
        payload = struct.pack(
            ">III", 1 if self.running else 0, b.shots_completed, b.faults + b.saturation_count
        )
        return self._status_reply(request, STATUS_OK, payload)


# ---------------------------------------------------------------------------
# Client


@dataclass
class RemoteResult:
    shots_completed: int
    acc: dict  # element -> (n, 2) int64
    acq: np.ndarray  # (n, 2) int32
    fault_count: int


class DeviceClient:
    """Stop-and-wait protocol client.

    Every request is retried up to ``retries`` times on timeout before
    raising TransportError; responses with a stale seq are ignored while
    waiting (they are echoes of retransmitted requests).
    """

    def __init__(self, transport, timeout=0.1, retries=3, seq_start=None):
        self.transport = transport
        self.timeout = timeout
        self.retries = retries
        self._seq = (
            random.SystemRandom().randrange(1 << 32) if seq_start is None else seq_start
        )

    def close(self):
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _request(self, op, region=0, unit=0, offset=0, count=0, payload=b"") -> Packet:
        seq = self._seq
        self._seq = (self._seq + 1) & 0xFFFFFFFF
        blob = encode_packet(
            Packet(
                seq=seq,
                op=op,
                region=region,
                unit=unit,
                offset=offset,
                count=count,
                payload=payload,
            )
        )
        for _ in range(self.retries + 1):
            self.transport.send(blob)
            deadline = time.monotonic() + self.timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                data = self.transport.recv(remaining)
                if data is None:
                    break
                try:
                    reply = decode_packet(data)
                except TransportError:
                    continue
                if reply.seq != seq:
                    continue  # stale response to an earlier retransmission
                if reply.status != STATUS_OK:
                    name = _STATUS_NAMES.get(reply.status, str(reply.status))
                    raise TransportError(
                        f"device rejected request: {name}", last_seq=seq
                    )
                return reply
        raise TransportError(
            f"no response after {self.retries + 1} attempts", last_seq=seq
        )

    # -- memory access ----------------------------------------------------

    def write_region(self, region, unit, offset, words):
        """Write ``words`` from ``offset`` on, one datagram per chunk.

        Every word is checked against the region's word size before
        anything is sent.
        """
        word_size = _word_size(region)
        payload = _to_payload(region, words)
        chunk = MAX_PAYLOAD // word_size * word_size
        for pos in range(0, len(payload), chunk):
            part = payload[pos : pos + chunk]
            self._request(
                OP_WRITE,
                region=region,
                unit=unit,
                offset=offset + pos // word_size,
                count=len(part) // word_size,
                payload=part,
            )

    def _read_bytes(self, region, unit, offset, count) -> bytes:
        word_size = _word_size(region)
        per_chunk = MAX_PAYLOAD // word_size
        parts = []
        for pos in range(0, count, per_chunk):
            n = min(per_chunk, count - pos)
            reply = self._request(
                OP_READ, region=region, unit=unit, offset=offset + pos, count=n
            )
            if len(reply.payload) != n * word_size:
                raise TransportError(
                    f"read of {n} words answered with {len(reply.payload)} bytes",
                    last_seq=reply.seq,
                )
            parts.append(reply.payload)
        return b"".join(parts)

    def read_region(self, region, unit, offset, count):
        return _from_payload(region, self._read_bytes(region, unit, offset, count))

    def write_control(self, reg, value):
        self.write_region(REGION_CONTROL, 0, reg, [value])

    def read_control(self, reg):
        return self.read_region(REGION_CONTROL, 0, reg, 1)[0]

    # -- program workflow ---------------------------------------------------

    def upload_program(self, program):
        """Load a compiled program's buffers and control registers.

        Envelopes are resident: one READ of ENVELOPE_CRC, then a WRITE of
        the first ``envelope_buffer_depth`` words, zero-padded to depth,
        of each up element (those the envelopes name or the commands
        address) whose device CRC differs.  Afterwards the device holds
        what a local run of the program reads, and no more: segments of
        down or missing elements and words past depth are not sent, as a
        local run never reads them.  More commands than the buffer holds
        raise the SimulationError of a local run before any request.
        """
        self._upload_memory(program)
        image = program.image
        self.write_region(
            REGION_CONTROL, 0, REG_REPEAT_CYCLES, [image.repeat_cycles, len(image.commands)]
        )

    def _upload_memory(self, program):
        """The COMMAND and ENVELOPE writes of ``upload_program``."""
        image, hw = program.image, program.hw
        check_command_count(hw, len(image.commands))
        self.write_region(REGION_COMMAND, 0, 0, image.commands)
        n_up, depth = hw.n_processing_elements_up, hw.envelope_buffer_depth
        elements = sorted(
            {e for e in image.envelopes if 0 <= e < n_up}
            | {cmd.element for cmd in program.commands if cmd.element < n_up}
        )
        if elements:
            crcs = self.read_region(REGION_ENVELOPE_CRC, 0, 0, elements[-1] + 1)
            for element in elements:
                words = image.envelopes.get(element, ())[:depth]
                padded = np.zeros(depth, dtype=">u4")
                padded[: len(words)] = words
                if zlib.crc32(padded) != crcs[element]:
                    self.write_region(REGION_ENVELOPE, element, 0, padded)

    def clear_acc(self):
        self.write_control(REG_ACC_CLEAR, 1)

    def start(self, shots):
        self.write_control(REG_SHOTS, shots)
        self._request(OP_START)

    def stop(self):
        self._request(OP_STOP)

    def status(self, wait_ms=0):
        """(running, shots completed, fault count).  With ``wait_ms`` the
        device answers when the run ends or after that many ms."""
        reply = self._request(OP_STATUS, count=wait_ms)
        running, done, faults = struct.unpack(">III", reply.payload)
        return bool(running), done, faults

    def wait(self):
        """Long-poll STATUS until the run ends; (shots, faults).

        Each STATUS waits on the device for up to half the client
        timeout, so a reply is due well before the client retransmits.
        """
        budget = min(max(1, round(self.timeout * 500)), 0xFFFFFFFF)  # u32 count
        for _ in range(_MAX_POLLS):
            running, done, faults = self.status(budget)
            if not running:
                return done, faults
        raise TransportError("device run did not finish")

    def read_acc(self, element, n_entries):
        data = self._read_bytes(REGION_ACC, element, 0, 2 * n_entries)
        return np.frombuffer(data, ">i4").astype(np.int64).reshape(-1, 2)

    def read_acq(self, length):
        words = np.frombuffer(self._read_bytes(REGION_ACQ, 0, 0, length), ">u4")
        return np.stack(iq_lanes(words), axis=1).astype(np.int32)

    def run_program(self, program, shots, acq=None) -> RemoteResult:
        """Upload, run, and collect: the full remote execution cycle.

        The memory writes of ``upload_program``, then one CONTROL write
        of SHOTS through N_COMMANDS, START, STATUS until the run ends,
        and the reads of ACC and, with a capture, ACQ.  Shots, capture
        and command count a local run rejects, or shots beyond the u32
        SHOTS register, raise SimulationError before any request is sent.
        """
        check_run(program.hw, shots, acq)
        if shots > 0xFFFFFFFF:
            raise SimulationError(f"shots {shots} exceed the 32-bit SHOTS register")
        self._upload_memory(program)
        image = program.image
        # ACQ_TAP, ACQ_UNIT, ACQ_LEN
        capture = [0, 0, 0] if acq is None else [ACQ_TAPS.index(acq.tap), acq.unit, acq.length]
        # SHOTS, ACC_CLEAR, the capture, REPEAT_CYCLES, N_COMMANDS
        control = [shots, 1, *capture, image.repeat_cycles, len(image.commands)]
        self.write_region(REGION_CONTROL, 0, REG_SHOTS, control)
        self._request(OP_START)
        done, faults = self.wait()
        windows = acc_windows(program.commands, program.hw.n_processing_elements_up)
        acc = {
            element: self.read_acc(element, n_windows * done)
            for element, n_windows in sorted(windows.items())
        }
        capture = (
            self.read_acq(acq.length)
            if acq is not None and acq.length
            else np.zeros((0, 2), np.int32)
        )
        return RemoteResult(
            shots_completed=done, acc=acc, acq=capture, fault_count=faults
        )


def connect(host, port, timeout=0.1, retries=3) -> DeviceClient:
    """Open a client to a device at host:port."""
    return DeviceClient(UdpTransport((host, port)), timeout=timeout, retries=retries)
