"""The benchmark's workloads.

Each workload is a closed loop: one caller, and the next program goes
out only after the previous one has returned its results.  A workload
builds its inputs from the seed when it is created (set-up).  Its
``rounds`` are lists of items with the same make-up; ``run(item)`` is
the timed path from circuit to results, ``check(item, output)`` and
``check_round`` compare the outputs with the references in
``reference`` and are not timed.

The package is called through module and class attributes
(``compiler.compile_circuit``, ``rb.rb_experiment``), so that the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import json

import numpy as np

import inputs
import reference as ref
from qubicforge import compiler, device
from qubicforge.chipcfg import load_chip_config, load_gate_spec, load_hardware_config
from qubicforge.dspsim import Loopback

BATCHES = 5  # RB experiments, and RC batches, per round
RB_LENGTHS = (2, 4, 8, 16, 32, 64, 128, 256)
RB_SEQUENCES = 4
RB_SHOTS = 500
RB_P_DEP = 0.004  # average gate fidelity 1 - p_dep/2 = 0.998
RC_CIRCUITS = 100
RC_VARIANTS = 20
RC_DEPTH = 5
RC_SHOTS = 2000
RC_DELTA = 0.05


def _stack():
    chip = load_chip_config(json.dumps(inputs.CHIP))
    gates = load_gate_spec(json.dumps(inputs.GATES), chip)
    hw = load_hardware_config(json.dumps(inputs.HARDWARE))
    return chip, gates, hw


def reference_entries(image):
    """Float accumulator entries of one shot of ``image``, demodulated
    from its float DAC waveform."""
    waves = ref.synthesize(
        image.commands, image.envelopes, image.repeat_cycles,
        inputs.N_UP, inputs.N_PAIRS, inputs.SPC,
    )
    return ref.demodulate(image.commands, waves, inputs.N_UP, inputs.SPC)


def _first_problem(*messages):
    return next((m for m in messages if m), None)


class Workload:
    """One workload: its inputs, its timed path and its checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds = []

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output):
        raise NotImplementedError

    def check_round(self, ran):
        """Checks over a whole round; ``ran`` lists (item, output) of
        the round's items that did not raise."""
        return None

    def close(self, tracer=None):
        pass


class RbSequenceLoading(Workload):
    """Many short, distinct RB programs through the whole remote path.

    One item: parse, compile, serialize to ``.qfpb`` bytes and load them
    back, upload, run ``SHOTS`` shots, read the accumulators.  The
    device emulator runs in this process, on one UDP socket.
    """

    name = "rb_sequence_loading"
    SHOTS = 2

    def __init__(self, seed):
        super().__init__(seed)
        from qubicforge.qcvv import cliffords, rb

        self.chip, self.gates, self.hw = _stack()
        self.server = device.DeviceServer(self.hw, wiring=Loopback(0), seed=seed).start()
        self.client = device.connect("127.0.0.1", self.server.port)
        rng = np.random.default_rng(seed)
        for lengths in inputs.rb_load_rounds(rng):
            items = []
            for m in lengths:
                circuit, x90 = inputs.rb_circuit(
                    rb.random_rb_sequence(rng, m), cliffords.CLIFFORD_WORDS
                )
                items.append((json.dumps(circuit), x90))
            self.rounds.append(items)

    def run(self, item):
        program = compiler.compile_circuit(
            compiler.load_circuit(item[0]), self.chip, self.gates, self.hw
        )
        blob = program.serialize()
        loaded = compiler.CompiledProgram.deserialize(blob)
        return program, loaded, self.client.run_program(loaded, self.SHOTS)

    def check(self, item, output):
        program, loaded, remote = output
        if loaded.image != program.image:
            return ".qfpb round trip changed the program image"
        if remote.shots_completed != self.SHOTS:
            return f"{remote.shots_completed} of {self.SHOTS} shots completed"
        entries = reference_entries(loaded.image)
        return _first_problem(
            ref.check_rb_composition(
                loaded.image.commands, inputs.Q6_DRIVE_PAIR, inputs.N_UP, item[1]
            ),
            ref.check_acc(remote.acc, entries, self.SHOTS),
        )

    def close(self, tracer=None):
        if tracer is not None:
            tracer.count("device.server_dropped", self.server.dropped)
        self.client.close()
        self.server.stop()


class QcvvRbRc(Workload):
    """Mock-qubit RB and randomized compiling, as one characterization.

    One round interleaves five ``rb_experiment`` runs (8 lengths x 4
    sequences each, own seeds) with ``rc_harness`` over 100 circuits in
    five batches of 20 (20 variants, depth 5, verified).  Each RB fit is
    checked on its own; RC's gain is tested over the round's 100
    circuits, since 20 are too few to show it.
    """

    name = "qcvv_rb_rc"

    def __init__(self, seed):
        super().__init__(seed)
        from qubicforge.qcvv import MockQubitModel, rb, rc

        self.rb, self.rc = rb, rc
        self.rb_model = MockQubitModel(p_dep=RB_P_DEP)
        self.rc_model = MockQubitModel(delta=RC_DELTA)
        rng = np.random.default_rng(seed)
        circuits = [rc.random_circuit(rng, RC_DEPTH) for _ in range(RC_CIRCUITS)]
        batch = RC_CIRCUITS // BATCHES
        items = []
        for k in range(BATCHES):
            items.append(("rb", k))
            items.append(("rc", k, circuits[k * batch : (k + 1) * batch]))
        self.rounds = [items]

    def run(self, item):
        seed = [self.seed, item[1]]
        if item[0] == "rb":
            return self.rb.rb_experiment(
                self.rb_model, RB_LENGTHS, RB_SEQUENCES, RB_SHOTS, seed=seed
            )
        return self.rc.rc_harness(
            item[2], RC_VARIANTS, self.rc_model, RC_SHOTS, seed=seed, verify=True
        )

    def check(self, item, output):
        if item[0] != "rb":
            return None
        if not output.converged:
            return "RB decay fit did not converge"
        return ref.check_fidelity(output.decay, RB_P_DEP)

    def check_round(self, ran):
        reports = [output for item, output in ran if item[0] == "rc"]
        return ref.check_rc(
            np.concatenate([r.bare_tvd for r in reports]),
            np.concatenate([r.rc_tvd for r in reports]),
        )


WORKLOADS = {w.name: w for w in (RbSequenceLoading, QcvvRbRc)}
