"""Benchmark of qubicforge from circuit to IQ points.

Run from the root of a checkout:

    python3 bench/run.py --workload rb_sequence_loading --seed 1 --seconds 50 --trace 0

The workload's inputs are made from ``--seed``.  The run builds them and
starts what it needs (set-up), then runs whole passes over the workload's
rounds for about ``--seconds`` seconds, checks every output against the
float references in ``bench/reference.py``, and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Between items the run times a fixed reference kernel, which gauges how
fast the host is at the time; set-up and round times are reported scaled
to a host on which that kernel takes ``REFERENCE_KERNEL_S``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace
1`` the first third of the time runs untraced and the rest with every
layer wrapped in spans; the metrics are the per-layer ones, each per
round of the workload, plus the tracing overhead.  The spans are written
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# CPU seconds of one reference_kernel() on a quiet host; round times are
# reported as if the kernel had taken this long.
REFERENCE_KERNEL_S = 1.5e-3
# Share of each item's CPU time spent timing the kernel after it.
CALIBRATION_SHARE = 0.05

_SAMPLES = np.arange(512)


def reference_kernel() -> int:
    """A fixed mix of what the workloads do: Python integer shifts and
    masks, small dicts and JSON, and short numpy vectors."""
    acc = 0
    for k in range(300):
        w = (k * 0x9E3779B97F4A7C15) & ((1 << 128) - 1)
        acc ^= (w >> 24) & 0xFF ^ (w >> 46) & 0xFFF ^ (w >> 72) & 0xFFFFFF
    ops = [{"gate": "X90", "qubits": ["Q6"], "t": k * 1e-9} for k in range(150)]
    acc += len(json.loads(json.dumps({"ops": ops}))["ops"])
    for k in range(20):
        z = np.exp(2j * np.pi * ((k * 7 + _SAMPLES * 1234567 / 2**24) % 1.0))
        i16 = np.round(z.real * 32767).astype(np.int16)
        acc += int(i16[k]) + int(np.where(z.real > 0, z, -z).sum().real > 0)
    return acc


def calibrate(budget: float, samples: list) -> None:
    """Time ``reference_kernel`` until ``budget`` CPU seconds are spent
    (at least once), appending each time to ``samples``.

    The kernel is timed in CPU seconds of this thread with the garbage
    collector off, so that neither the emulator's threads nor the size
    of the workload's heap enter its time: only the host's speed does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        spent = 0.0
        while not samples or spent < budget:
            t0 = time.thread_time()
            reference_kernel()
            samples.append(time.thread_time() - t0)
            spent += samples[-1]
    finally:
        if enabled:
            gc.enable()


def _import_package():
    """Put the checkout's ``src`` first on the path; fail without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qubicforge", "__init__.py")):
        sys.exit(f"error: {src}/qubicforge not found; run from the root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


class Phase:
    """What one stretch of whole passes did.

    Each item is timed twice: in wall-clock seconds, and in CPU seconds
    of this process (every thread: the caller and, on the remote
    workload, the emulator's server and run threads).
    """

    def __init__(self):
        self.round_s = []  # per round: (wall seconds, CPU seconds)
        self.item_s = []  # per item: (wall seconds, CPU seconds)
        self.kernel_s = []  # CPU seconds of each reference_kernel() run
        self.attempted = 0
        self.failed = 0
        self.problems = []  # outputs that failed a check
        self.errors = []  # runs that raised a package error

    def median(self, rows, column) -> float:
        return statistics.median(row[column] for row in rows) if rows else 0.0


def run_passes(workload, seconds, errors, tracer=None) -> Phase:
    """Run whole passes over ``workload.rounds`` for about ``seconds``.

    A pass runs every round once, so every run attempts the same
    operations in the same proportions.  Another pass starts only while
    the passes so far say it will end within ``seconds``; there is always
    at least one.  Only ``workload.run`` is timed; the checks and the
    reference kernel run between items.
    """
    phase = Phase()
    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for items in workload.rounds:
            wall = cpu = 0.0
            ran = []
            for item in items:
                if tracer is not None:
                    tracer.program += 1
                phase.attempted += 1
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    output = workload.run(item)
                except errors as exc:
                    phase.failed += 1
                    phase.errors.append(f"{type(exc).__name__}: {exc}")
                    calibrate(0.0, phase.kernel_s)
                    continue
                dt, dc = time.perf_counter() - t0, time.process_time() - c0
                phase.item_s.append((dt, dc))
                wall += dt
                cpu += dc
                ran.append((item, output))
                problem = workload.check(item, output)
                if problem:
                    phase.problems.append(problem)
                calibrate(CALIBRATION_SHARE * dc, phase.kernel_s)
            problem = workload.check_round(ran)
            if problem:
                phase.problems.append(problem)
            phase.round_s.append((wall, cpu))
        passes += 1
    return phase


def host_scale(phase) -> float:
    """Factor that turns CPU seconds of this run into seconds on the
    reference host: ``REFERENCE_KERNEL_S`` over the kernel's mean time.

    On a shared host both wall-clock and CPU time move with the
    neighbours' load, by up to two times over minutes; the reference
    kernel, timed all through the same run, moves with them, and the
    ratio of the two moves far less.  The kernel's times are averaged,
    not taken at their median: they gather at a fast and a slow value,
    and their mean follows the share of time the host spent in each.
    """
    return REFERENCE_KERNEL_S / statistics.fmean(phase.kernel_s)


def norm_round_s(phase) -> float:
    """Median CPU seconds of a round, scaled to the reference host."""
    return phase.median(phase.round_s, 1) * host_scale(phase)


def end_to_end(phase, setup_cpu_s) -> dict:
    """Set-up and round time scaled to the reference host, and peak
    memory.  Set-up is timed once, cold, before the kernel first runs;
    the run's kernel times stand for the host's speed then as well."""
    return {
        "setup_s": (setup_cpu_s * host_scale(phase), "s"),
        "round_norm_s": (norm_round_s(phase), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, base, traced) -> dict:
    """Per-layer values of the traced phase, unscaled figures of the
    untraced one, and the tracing overhead in scaled time per round."""
    metrics = tracer.layer_metrics(len(traced.round_s))
    metrics["wall.round_s"] = (base.median(base.round_s, 0), "s")
    metrics["wall.program_latency_s"] = (base.median(base.item_s, 0), "s")
    metrics["cpu.round_s"] = (base.median(base.round_s, 1), "s")
    metrics["cpu.program_s"] = (base.median(base.item_s, 1), "s")
    metrics["host.kernel_s"] = (statistics.fmean(base.kernel_s), "s")
    overhead = norm_round_s(traced) / norm_round_s(base) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from qubicforge.errors import QubicForgeError
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    # CPU seconds of this process since it started: interpreter start-up,
    # imports, inputs and whatever the workload starts
    setup_cpu_s = time.process_time()

    tracer = None
    try:
        if args.trace:
            base = run_passes(workload, args.seconds / 3, QubicForgeError)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, args.seconds * 2 / 3, QubicForgeError, tracer)
            finally:
                tracer.uninstall()
            phases = (base, traced)
        else:
            phases = (run_passes(workload, args.seconds, QubicForgeError),)
    finally:
        workload.close(tracer)

    if args.trace:
        metrics = per_layer(tracer, *phases)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(phases[0], setup_cpu_s)

    for label, phase in zip(("untraced", "traced") if args.trace else ("run",), phases):
        rounds = ", ".join(f"{wall:.3f}/{cpu:.3f}" for wall, cpu in phase.round_s)
        print(f"{args.workload}: {label} rounds (wall/CPU s): {rounds}", file=sys.stderr)
    problems = [p for phase in phases for p in phase.errors + phase.problems]
    for problem in problems[:20]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(phase.problems for phase in phases),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
