"""Span tracing of qubicforge's layers from outside the package.

``Tracer.install`` replaces public functions and methods of the package
with wrappers that record one span per call (name, start, end, parent,
program id, thread) and add to named counters; ``uninstall`` puts the
originals back.  The package's code is not edited: a wrapper sits on
the module or class attribute that callers look up at call time.

Spans stay in memory until the run ends.  ``layer_metrics`` turns them
into per-layer busy time, self time (a span's duration minus the part
its children cover) and counts.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

# Layers as named in the metrics, and the span names that belong to them.
LAYERS = ("compiler", "envgen", "cmdcodec", "dspsim", "device", "qcvv")
RC_STAGES = ("Compile", "Transpile", "Transfer", "SeqGen", "Run", "Acquire", "Process")

# Span name -> per-layer metric holding its busy seconds.
SPAN_METRICS = {
    "compiler.schedule": "compiler.schedule_s",
    "compiler.lower_to_tp": "compiler.lower_to_tp_s",
    "compiler.lower_to_nv": "compiler.lower_to_nv_s",
    "compiler.serialize": "compiler.serialize_s",
    "compiler.deserialize": "compiler.deserialize_s",
    "envgen.generate": "envgen.generate_s",
    "envgen.pack": "envgen.pack_s",
    "cmdcodec.encode": "cmdcodec.encode_s",
    "cmdcodec.decode": "cmdcodec.decode_s",
    "dspsim.run": "dspsim.run_s",
    "dspsim.cordic": "dspsim.cordic_s",
    "device.upload": "device.upload_s",
    "device.start": "device.start_s",
    "device.wait": "device.wait_s",
    "device.read_acc": "device.read_acc_s",
    "qcvv.rb.run_sequence": "qcvv.rb.run_sequence_s",
    "qcvv.rb.fit": "qcvv.rb.fit_s",
}

COUNTERS = (
    "compiler.commands",
    "compiler.envelope_words",
    "envgen.generate_calls",
    "cmdcodec.encode_calls",
    "cmdcodec.decode_calls",
    "dspsim.shots",
    "dspsim.cordic_calls",
    "dspsim.cordic_samples",
    "dspsim.saturations",
    "dspsim.faults",
    "device.status_polls",
    "device.requests",
    "device.retransmits",
    "device.datagrams_sent",
    "device.bytes_sent",
    "device.bytes_received",
    "device.server_dropped",
    "qcvv.rb.sequences",
    "qcvv.rc.variants",
    "qcvv.rc.transfer_bytes",
)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, program, thread)
        self.counts = defaultdict(float)
        self.program = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._last_seq = None

    # -- recording -------------------------------------------------------

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def call(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.program, threading.get_ident())
            )

    # -- installing wrappers -----------------------------------------------

    def wrap(self, owner, attr, name, after=None, kind="function"):
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``after(result, args)`` runs after each call to update counters.
        ``kind`` is "function" for module functions and instance methods,
        "classmethod" for a classmethod of ``owner``.
        """
        raw = owner.__dict__[attr]
        target = getattr(owner, attr) if kind == "classmethod" else raw
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, target, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        wrapper.__name__ = getattr(target, "__name__", attr)
        wrapper.__doc__ = getattr(target, "__doc__", None)
        setattr(owner, attr, staticmethod(wrapper) if kind == "classmethod" else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def install(self):
        """Wrap the public entry points of every layer."""
        from qubicforge import cmdcodec, compiler, dspsim
        from qubicforge.compiler import CompiledProgram
        from qubicforge.device import DeviceClient, UdpTransport
        from qubicforge.dspsim import Simulator
        from qubicforge.qcvv import rb, rc

        count = self.count

        def compiled(result, args):
            commands, envelopes = result[0], result[1]
            count("compiler.commands", len(commands))
            count("compiler.envelope_words", sum(len(w) for w in envelopes.values()))

        self.wrap(compiler, "compile_circuit", "compiler.compile")
        self.wrap(compiler, "schedule", "compiler.schedule")
        self.wrap(compiler, "lower_to_tp", "compiler.lower_to_tp")
        self.wrap(compiler, "lower_to_nv", "compiler.lower_to_nv", compiled)
        self.wrap(CompiledProgram, "serialize", "compiler.serialize")
        self.wrap(CompiledProgram, "deserialize", "compiler.deserialize", kind="classmethod")
        # the compiler's own calls into envgen
        self.wrap(compiler, "generate", "envgen.generate",
                  lambda r, a: count("envgen.generate_calls"))
        self.wrap(compiler, "pack", "envgen.pack")
        self.wrap(cmdcodec, "encode", "cmdcodec.encode",
                  lambda r, a: count("cmdcodec.encode_calls"))
        self.wrap(cmdcodec, "decode", "cmdcodec.decode",
                  lambda r, a: count("cmdcodec.decode_calls"))

        def ran(result, args):
            sim, image = args[0], args[1]
            count("dspsim.shots", result.shots_completed)
            count("dspsim.saturations", result.saturation_count)
            count("dspsim.faults", len(result.fault_log))
            count(
                "dspsim.samples",
                result.shots_completed * image.repeat_cycles * sim.hw.samples_per_cycle,
            )

        def cordic(result, args):
            count("dspsim.cordic_calls")
            count("dspsim.cordic_samples", len(result[0]))

        self.wrap(Simulator, "run", "dspsim.run", ran)
        self.wrap(dspsim, "cordic_cos_sin", "dspsim.cordic", cordic)

        self.wrap(DeviceClient, "upload_program", "device.upload")
        self.wrap(DeviceClient, "start", "device.start")
        self.wrap(DeviceClient, "wait", "device.wait")
        self.wrap(DeviceClient, "status", "device.status",
                  lambda r, a: count("device.status_polls"))
        self.wrap(DeviceClient, "read_acc", "device.read_acc")

        def sent(result, args):
            data = args[1]
            count("device.datagrams_sent")
            count("device.bytes_sent", len(data))
            # header: magic(4) | seq u32 | ...; stop-and-wait resends the
            # last seq unchanged, and each new request takes a new seq
            seq = data[4:8]
            if seq == self._last_seq:
                count("device.retransmits")
            else:
                self._last_seq = seq
                count("device.requests")

        def received(result, args):
            if result is not None:
                count("device.bytes_received", len(result))

        self.wrap(UdpTransport, "send", "device.send", sent)
        self.wrap(UdpTransport, "recv", "device.recv", received)

        self.wrap(rb, "run_sequence_1q", "qcvv.rb.run_sequence",
                  lambda r, a: count("qcvv.rb.sequences"))
        self.wrap(rb, "fit_rb_decay", "qcvv.rb.fit")
        self.wrap(rb, "rb_experiment", "qcvv.rb.experiment")

        def harnessed(report, args):
            for stage, seconds in report.stage_seconds.items():
                count(f"qcvv.rc.{stage}_s", seconds)
            count("qcvv.rc.transfer_bytes", report.transfer_bytes)
            count("qcvv.rc.variants", report.variants * len(report.bare_tvd))

        self.wrap(rc, "rc_harness", "qcvv.rc.harness", harnessed)

    # -- reporting -----------------------------------------------------------

    def busy_and_self(self):
        """Busy (inclusive) and self seconds per span name."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        for span_id, name, start, end, _, _, _ in self.spans:
            busy[name] += end - start
            own[name] += end - start - child_time.get(span_id, 0.0)
        return busy, own

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer (value, unit) pairs, each per round of the workload."""
        busy, own = self.busy_and_self()
        counts = self.counts
        out = {}
        for span, metric in SPAN_METRICS.items():
            out[metric] = (busy.get(span, 0.0) / rounds, "s/round")
        for layer in LAYERS:
            own_s = sum(v for k, v in own.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (own_s / rounds, "s/round")
        for name in COUNTERS:
            unit = "B/round" if "bytes" in name else "count/round"
            out[name] = (counts.get(name, 0.0) / rounds, unit)
        for stage in RC_STAGES:
            out[f"qcvv.rc.{stage}_s"] = (counts.get(f"qcvv.rc.{stage}_s", 0.0) / rounds, "s/round")
        out["dspsim.samples_per_shot"] = (
            _per(counts.get("dspsim.samples", 0.0), counts.get("dspsim.shots", 0.0)), "count"
        )
        out["qcvv.rb.sequences_per_s"] = (
            _per(counts.get("qcvv.rb.sequences", 0.0), busy.get("qcvv.rb.experiment", 0.0)), "1/s"
        )
        out["qcvv.rc.variants_per_s"] = (
            _per(counts.get("qcvv.rc.variants", 0.0), busy.get("qcvv.rc.harness", 0.0)), "1/s"
        )
        out["trace.spans"] = (len(self.spans) / rounds, "count/round")
        return out

    def write(self, path):
        """Spans as JSON: a name table and one row per span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        threads = sorted({s[6] for s in self.spans})
        thread_index = {t: k for k, t in enumerate(threads)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [
            [sid, index[name], round(start - t0, 9), round(end - t0, 9), parent, program,
             thread_index[thread]]
            for sid, name, start, end, parent, program, thread in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": names,
                    "columns": ["id", "name", "start_s", "end_s", "parent", "program", "thread"],
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )


def _per(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work."""
    return num / den if den else 0.0
