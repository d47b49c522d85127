"""Command-line entry point for the pulse-control stack.

Exit codes: 0 success, 1 usage, 2 configuration error, 3 compile
error, 4 transport error, 5 verification/simulation failure.  The
QUBIC_FORGE_SEED environment variable supplies the seed when --seed is
absent; with neither, the seed is 0, so every invocation is
reproducible by default.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import envgen
from .chipcfg import (
    HardwareConfig,
    load_chip_config,
    load_gate_spec,
    load_hardware_config,
    standard_channel_map,
)
from .compiler import CompiledProgram, compile_circuit, load_circuit, simulate_program
from .device import DeviceServer, connect
from .dspsim import ACQ_TAPS, AcqConfig, Loopback, Simulator
from .errors import (
    AnalysisError,
    CompileError,
    ConfigError,
    EncodingError,
    EnvelopeError,
    QubicForgeError,
    SimulationError,
    TransportError,
)
from .qcvv import (
    MockQubitModel,
    paired_improvement_pvalue,
    random_circuit,
    rb_experiment,
    rb_experiment_2q,
    rc_harness,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_COMPILE = 3
EXIT_TRANSPORT = 4
EXIT_VERIFY = 5


def _resolve_seed(value):
    if value is None:
        env = os.environ.get("QUBIC_FORGE_SEED")
        try:
            value = 0 if env is None else int(env)
        except ValueError:
            raise ConfigError(f"QUBIC_FORGE_SEED={env!r} is not an integer")
    if value < 0:
        raise ConfigError(f"seed {value} is negative")
    return value


def _load_stack(args):
    chip = load_chip_config(args.chip)
    gates = load_gate_spec(args.gates, chip)
    if args.hardware:
        hw = load_hardware_config(args.hardware)
    else:
        hw = HardwareConfig(channel_map=standard_channel_map(sorted(chip.qubits)))
    return chip, gates, hw


def _compile_from_args(args) -> CompiledProgram:
    chip, gates, hw = _load_stack(args)
    circuit = load_circuit(args.circuit)
    return compile_circuit(
        circuit, chip, gates, hw, allocator=args.allocator, repeat_time=args.repeat_time
    )


def _load_program(path) -> CompiledProgram:
    with open(path, "rb") as fh:
        return CompiledProgram.deserialize(fh.read())


def _obtain_program(args) -> CompiledProgram:
    if getattr(args, "program", None):
        return _load_program(args.program)
    if not (args.circuit and args.chip and args.gates):
        raise ConfigError("need either --program or --circuit/--chip/--gates")
    return _compile_from_args(args)


def _acq_from_args(args):
    """The capture the --acq-* flags ask for, or None."""
    return AcqConfig(args.acq_tap, args.acq_unit, args.acq_length) if args.acq_length else None


def _out_path(args, suffix):
    """``<out>/<name><suffix>``, creating the output directory."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, args.name + suffix)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_readout(args, result):
    """Write a local or remote result's ``.acc.csv`` and, with a capture,
    ``.acq.csv``; returns the paths written."""
    acc, paths = result.acc, [_out_path(args, ".acc.csv")]
    rows = ([e, k, int(i), int(q)] for e in sorted(acc) for k, (i, q) in enumerate(acc[e]))
    _write_csv(paths[0], ["element", "entry", "i", "q"], rows)
    if len(result.acq):  # no capture leaves no rows
        paths.append(_out_path(args, ".acq.csv"))
        rows = ([n, int(i), int(q)] for n, (i, q) in enumerate(result.acq))
        _write_csv(paths[1], ["sample", "i", "q"], rows)
    return paths


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_compile(args):
    program = _compile_from_args(args)
    binary = _out_path(args, ".qfpb")
    with open(binary, "wb") as fh:
        fh.write(program.serialize())
    tp_path = _out_path(args, ".tp.txt")
    with open(tp_path, "w") as fh:
        fh.write(program.dump_tp())
    cmd_path = _out_path(args, ".commands.txt")
    with open(cmd_path, "w") as fh:
        fh.write(program.dump_commands())
    print(
        f"compiled {len(program.image.commands)} commands, "
        f"{sum(len(w) for w in program.image.envelopes.values())} envelope words, "
        f"repeat {program.repeat_cycles} cycles"
    )
    print(f"wrote {binary}, {tp_path}, {cmd_path}")
    return EXIT_OK


def _cmd_simulate(args):
    program = _obtain_program(args)
    seed = _resolve_seed(args.seed)
    result = simulate_program(
        program,
        wiring=Loopback(args.loopback_delay),
        shots=args.shots,
        acq=_acq_from_args(args),
        seed=seed,
    )
    wave_path = _out_path(args, ".waveform.csv")
    waves = result.dac if program.image.commands else {}
    rows = ([n, p, int(i), int(q)] for p in sorted(waves) for n, (i, q) in enumerate(waves[p]))
    _write_csv(wave_path, ["sample", "pair", "i", "q"], rows)
    paths = [wave_path, *_write_readout(args, result)]
    print(
        f"simulated {result.shots_completed} shot(s), "
        f"{result.saturation_count} saturated samples, "
        f"{len(result.fault_log)} faults"
    )
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK


def _cmd_serve(args):
    hw = load_hardware_config(args.hardware) if args.hardware else HardwareConfig()
    seed = _resolve_seed(args.seed)
    server = DeviceServer(
        hw,
        wiring=Loopback(args.loopback_delay),
        host=args.host,
        port=args.port,
        seed=seed,
    )
    server.start()
    print(f"device emulator listening on {server.address[0]}:{server.port}")
    sys.stdout.flush()
    try:
        deadline = None if args.duration is None else time.monotonic() + args.duration
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def _cmd_run(args):
    program = _obtain_program(args)
    with connect(args.host, args.port, timeout=args.timeout, retries=args.retries) as client:
        result = client.run_program(program, args.shots, acq=_acq_from_args(args))
    paths = _write_readout(args, result)
    print(
        f"remote run finished: {result.shots_completed} shot(s), "
        f"{result.fault_count} fault(s)"
    )
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK


def _model_from_args(args) -> MockQubitModel:
    return MockQubitModel(
        p_dep=args.p_dep,
        delta=args.delta,
        two_qubit_depol=args.two_qubit_depol,
    )


def _cmd_rb(args):
    model = _model_from_args(args)
    seed = _resolve_seed(args.seed)
    if args.two_qubit:
        result = rb_experiment_2q(model, args.lengths, args.sequences, args.shots, seed)
    else:
        result = rb_experiment(model, args.lengths, args.sequences, args.shots, seed)
    json_path = _out_path(args, ".json")
    with open(json_path, "w") as fh:
        json.dump(result.to_json(), fh, indent=2)
    csv_path = _out_path(args, ".survival.csv")
    rows = zip(map(int, result.lengths), result.survival, result.survival_err)
    _write_csv(csv_path, ["length", "survival", "survival_err"], rows)
    status = "converged" if result.converged else "did NOT converge"
    print(
        f"fit {status}: p = {result.decay:.6f} +- {result.decay_err:.2g}, "
        f"avg fidelity = {result.avg_fidelity:.6f}, "
        f"process fidelity = {result.process_fidelity:.6f}"
    )
    print(f"wrote {json_path}, {csv_path}")
    return EXIT_OK


def _cmd_rc(args):
    model = _model_from_args(args)
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    circuits = [random_circuit(rng, args.depth) for _ in range(args.circuits)]
    report = rc_harness(
        circuits, args.variants, model, args.shots, seed=rng, verify=not args.no_verify
    )
    pvalue = paired_improvement_pvalue(report)
    json_path = _out_path(args, ".json")
    blob = report.to_json()
    blob["wilcoxon_pvalue"] = pvalue
    with open(json_path, "w") as fh:
        json.dump(blob, fh, indent=2)
    tvd_path = _out_path(args, ".tvd.csv")
    rows = ([i, b, r] for i, (b, r) in enumerate(zip(report.bare_tvd, report.rc_tvd)))
    _write_csv(tvd_path, ["circuit", "bare_tvd", "rc_tvd"], rows)
    stage_path = _out_path(args, ".stages.csv")
    _write_csv(stage_path, ["stage", "seconds"], report.stage_seconds.items())
    print(
        f"bare TVD {report.bare_mean:.4f} +- {report.bare_std:.4f}, "
        f"RC TVD {report.rc_mean:.4f} +- {report.rc_std:.4f}, "
        f"one-sided p = {pvalue:.3g}"
    )
    print(f"wrote {json_path}, {tvd_path}, {stage_path}")
    return EXIT_OK


def _cmd_dump_envelope(args):
    program = _load_program(args.program)
    elements = (
        [args.element] if args.element is not None else sorted(program.image.envelopes)
    )
    writer = csv.writer(sys.stdout)
    writer.writerow(["element", "index", "i", "q"])
    for element in elements:
        words = program.image.envelopes.get(element)
        if words is None:
            raise ConfigError(f"element {element} holds no envelope data")
        samples = envgen.unpack_words(words)
        for k, z in enumerate(samples):
            writer.writerow([element, k, z.real, z.imag])
    return EXIT_OK


def _cmd_dump_tp(args):
    program = _compile_from_args(args)
    sys.stdout.write(program.dump_tp())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _int_list(text):
    """Comma-separated integers; empty items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers")


def _port(text):
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} is not in 0..65535")
    return port


def _timeout(text):
    seconds = float(text)
    if not (math.isfinite(seconds) and seconds > 0):
        raise argparse.ArgumentTypeError(f"timeout {text!r} is not a finite positive time")
    return seconds


def _duration(text):
    seconds = float(text)
    if not (math.isfinite(seconds) and seconds >= 0):
        raise argparse.ArgumentTypeError(f"duration {text!r} is not a finite time >= 0")
    return seconds


def _retries(text):
    retries = int(text)
    if retries < 0:
        raise argparse.ArgumentTypeError(f"retries {retries} is negative")
    return retries


class _Parser(argparse.ArgumentParser):
    # the documented usage-error exit code is 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(p, require_circuit=True):
    p.add_argument("--circuit", required=require_circuit, help="circuit JSON path")
    p.add_argument("--chip", required=require_circuit, help="chip config JSON path")
    p.add_argument("--gates", required=require_circuit, help="gate set JSON path")
    p.add_argument(
        "--hardware",
        help="hardware config JSON path (default: standard channel map for the chip)",
    )
    p.add_argument(
        "--allocator", choices=("optm", "runc"), default="optm", help="allocation mode"
    )
    p.add_argument(
        "--repeat-time", type=float, default=None, help="shot repeat period in seconds"
    )


def _add_out_flags(p, default_name):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--name", default=default_name, help="output file stem")


def _add_acq_flags(p):
    p.add_argument("--acq-tap", choices=ACQ_TAPS, default="adc", help="capture tap")
    p.add_argument("--acq-unit", type=int, default=0, help="pair or element to tap")
    p.add_argument(
        "--acq-length", type=int, default=0, help="samples to capture (0 disables)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qubicforge", description=__doc__)
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("compile", help="compile a circuit to a program binary")
    _add_config_flags(p)
    _add_out_flags(p, "program")

    p = sub.add_parser("simulate", help="run a program on the local simulator")
    _add_config_flags(p, require_circuit=False)
    p.add_argument("--program", help="compiled program binary (.qfpb)")
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--loopback-delay", type=int, default=0)
    _add_acq_flags(p)
    _add_out_flags(p, "sim")

    p = sub.add_parser("serve", help="run the UDP device emulator")
    p.add_argument("--hardware", help="hardware config JSON path")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=9100)
    p.add_argument("--loopback-delay", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--duration", type=_duration, default=None, help="stop after this many seconds"
    )

    p = sub.add_parser("run", help="execute a program on a remote device")
    _add_config_flags(p, require_circuit=False)
    p.add_argument("--program", help="compiled program binary (.qfpb)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=9100)
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--timeout", type=_timeout, default=0.1)
    p.add_argument("--retries", type=_retries, default=3)
    _add_acq_flags(p)
    _add_out_flags(p, "run")

    p = sub.add_parser("rb", help="randomized benchmarking on the mock model")
    p.add_argument("--lengths", type=_int_list, default="2,4,8,16,32,64,128,256")
    p.add_argument("--sequences", type=int, default=20)
    p.add_argument("--shots", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p-dep", type=float, default=0.004)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--two-qubit", action="store_true")
    p.add_argument("--two-qubit-depol", type=float, default=0.0)
    _add_out_flags(p, "rb")

    p = sub.add_parser("rc", help="randomized compiling TVD comparison")
    p.add_argument("--circuits", type=int, default=100)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--variants", type=int, default=20)
    p.add_argument("--shots", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p-dep", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--two-qubit-depol", type=float, default=0.0)
    p.add_argument("--no-verify", action="store_true", help="skip twirl verification")
    _add_out_flags(p, "rc")

    p = sub.add_parser("dump-envelope", help="print a program's envelope memory")
    p.add_argument("--program", required=True)
    p.add_argument("--element", type=int, default=None)

    p = sub.add_parser("dump-tp", help="print the pulse-level view of a circuit")
    _add_config_flags(p)

    return parser


_HANDLERS = {
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "run": _cmd_run,
    "rb": _cmd_rb,
    "rc": _cmd_rc,
    "dump-envelope": _cmd_dump_envelope,
    "dump-tp": _cmd_dump_tp,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.cmd is None:
        parser.print_help()
        return EXIT_USAGE
    handler = _HANDLERS[args.cmd]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CompileError, EncodingError, EnvelopeError) as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return EXIT_COMPILE
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (SimulationError, AnalysisError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except QubicForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
