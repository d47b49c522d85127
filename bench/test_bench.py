"""Tests of the benchmark harness: each output check can fail.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from qubicforge import cmdcodec, compiler  # noqa: E402
from qubicforge.dspsim import Loopback  # noqa: E402
from qubicforge.qcvv import cliffords, random_rb_sequence  # noqa: E402

CHIP, GATES, HW = workloads._stack()


def _compile(circuit: dict):
    return compiler.compile_circuit(
        compiler.load_circuit(json.dumps(circuit)), CHIP, GATES, HW
    )


def _rb_program(seed, length=12):
    rng = np.random.default_rng(seed)
    circuit, x90 = inputs.rb_circuit(random_rb_sequence(rng, length), cliffords.CLIFFORD_WORDS)
    return _compile(circuit), x90


@pytest.fixture(scope="module")
def local_run():
    """An RB program, 3 shots of it run locally, and its reference entries."""
    program, _ = _rb_program(4)
    result = compiler.simulate_program(program, wiring=Loopback(0), shots=3, seed=1)
    return program, result, workloads.reference_entries(program.image)


def _with_field(word: int, name: str, value: int) -> int:
    _, offset, width = next(f for f in ref.FIELDS if f[0] == name)
    mask = ((1 << width) - 1) << offset
    return (word & ~mask) | (value << offset)


def test_decode_word_matches_the_codec():
    rng = np.random.default_rng(3)
    for _ in range(200):
        fields = cmdcodec.CommandFields(
            trig_t=int(rng.integers(1 << 24)),
            start=int(rng.integers(1 << 12)),
            length=int(rng.integers(1 << 12)),
            freq_word=int(rng.integers(1 << 24)),
            phase_word=int(rng.integers(1 << 14)),
            element=int(rng.integers(1 << 8)),
            destination=int(rng.integers(4)),
            condition=int(rng.integers(2)),
        )
        assert ref.decode_word(cmdcodec.encode(fields)) == fields._asdict()
    with pytest.raises(ValueError):
        ref.decode_word(1 << 100)


def test_acc_check_fails_on_a_dropped_shot(local_run):
    _, result, entries = local_run
    assert ref.check_acc(result.acc, entries, 3) is None
    dropped = {e: acc[:-1] for e, acc in result.acc.items()}
    assert "expected 3 shots" in ref.check_acc(dropped, entries, 3)


def test_acc_check_fails_on_a_wrong_entry(local_run):
    _, result, entries = local_run
    element = next(iter(result.acc))
    acc = {e: a.copy() for e, a in result.acc.items()}
    acc[element][1, 0] += int(abs(entries[element][0]) * 1e-3)
    assert "relative" in ref.check_acc(acc, entries, 3)


def test_remote_check_fails_on_a_dropped_shot(local_run):
    program, result, _ = local_run
    workload = workloads.RbSequenceLoading.__new__(workloads.RbSequenceLoading)
    remote = SimpleNamespace(shots_completed=workload.SHOTS - 1, acc=result.acc)
    assert "shots completed" in workload.check((None, 0), (program, program, remote))


def test_rb_composition_holds_for_rb_sequences():
    for seed in range(5):
        program, x90 = _rb_program(seed)
        commands = program.image.commands
        assert ref.check_rb_composition(commands, inputs.Q6_DRIVE_PAIR, inputs.N_UP, x90) is None


def test_rb_composition_fails_on_one_altered_phase_word():
    program, x90 = _rb_program(7)
    commands = list(program.image.commands)
    k = next(
        i for i, w in enumerate(commands)
        if ref.decode_word(w)["destination"] == inputs.Q6_DRIVE_PAIR
    )
    old = ref.decode_word(commands[k])["phase_word"]
    commands[k] = _with_field(commands[k], "phase_word", (old + 1) % (1 << 14))
    msg = ref.check_rb_composition(commands, inputs.Q6_DRIVE_PAIR, inputs.N_UP, x90)
    assert "P(0)" in msg


def test_rb_composition_fails_on_a_missing_x90():
    program, x90 = _rb_program(8)
    msg = ref.check_rb_composition(
        program.image.commands, inputs.Q6_DRIVE_PAIR, inputs.N_UP, x90 + 1
    )
    assert "X90 commands" in msg


def test_fidelity_check_fails_outside_its_window():
    p_dep = 0.004
    decay = 1.0 - p_dep  # fidelity (1 + p)/2 = 1 - p_dep/2 exactly
    assert ref.check_fidelity(decay, p_dep) is None
    assert ref.check_fidelity(decay - 2 * 0.0009, p_dep) is None
    assert "outside" in ref.check_fidelity(decay - 2 * 0.0011, p_dep)
    assert "outside" in ref.check_fidelity(math.nan, p_dep)


def test_rc_check():
    rng = np.random.default_rng(1)
    bare = rng.uniform(0.05, 0.2, 100)
    rc = bare - rng.uniform(0.0, 0.05, 100)
    assert ref.check_rc(bare, rc) is None
    assert "not below" in ref.check_rc(rc, bare)
    # a lower mean, but signs alternate over the ranks: p is near 1/2
    d = np.array([(-1) ** (k + 1) * 0.001 * (k + 1) for k in range(100)])
    assert d.mean() > 0
    assert "Wilcoxon" in ref.check_rc(np.full(100, 0.5), 0.5 - d)
    out_of_range = rc.copy()
    out_of_range[3] = 1.5
    assert "outside [0, 1]" in ref.check_rc(bare, out_of_range)


def test_qcvv_checks_fit_per_experiment_and_rc_per_round():
    workload = workloads.QcvvRbRc.__new__(workloads.QcvvRbRc)
    rb_item = ("rb", 0)
    assert workload.check(rb_item, SimpleNamespace(converged=True, decay=0.996)) is None
    assert "converge" in workload.check(rb_item, SimpleNamespace(converged=False, decay=0.996))
    assert "outside" in workload.check(rb_item, SimpleNamespace(converged=True, decay=0.99))
    rng = np.random.default_rng(5)
    ran = [(rb_item, None)]
    for k in range(workloads.BATCHES):
        bare = rng.uniform(0.05, 0.2, 20)
        ran.append((("rc", k, None), SimpleNamespace(bare_tvd=bare, rc_tvd=bare - 0.01)))
    assert workload.check_round(ran) is None
    # RC worse on four batches of five: the pooled mean is not below bare
    worse = SimpleNamespace(bare_tvd=ran[1][1].bare_tvd, rc_tvd=ran[1][1].bare_tvd + 0.05)
    assert "not below" in workload.check_round(ran[:2] + [(ran[2][0], worse)] * 4)


def test_tracer_restores_and_measures_self_time():
    from qubicforge.compiler import CompiledProgram
    from qubicforge.dspsim import Simulator

    originals = (compiler.__dict__["compile_circuit"], Simulator.__dict__["run"],
                 CompiledProgram.__dict__["deserialize"])
    tracer = Tracer()
    tracer.install()
    try:
        program, _ = _rb_program(5, length=3)
        CompiledProgram.deserialize(program.serialize())
    finally:
        tracer.uninstall()
    assert (compiler.__dict__["compile_circuit"], Simulator.__dict__["run"],
            CompiledProgram.__dict__["deserialize"]) == originals
    busy, own = tracer.busy_and_self()
    assert busy["compiler.compile"] > busy["compiler.lower_to_nv"] > 0
    compile_ids = {s[0] for s in tracer.spans if s[1] == "compiler.compile"}
    children = [s for s in tracer.spans if s[4] in compile_ids]
    assert {s[1] for s in children} == {
        "compiler.schedule", "compiler.lower_to_tp", "compiler.lower_to_nv", "cmdcodec.encode"
    }
    assert own["compiler.compile"] == pytest.approx(
        busy["compiler.compile"] - sum(s[3] - s[2] for s in children)
    )
    metrics = tracer.layer_metrics(1)
    assert metrics["compiler.commands"][0] == len(program.commands)
    assert metrics["cmdcodec.decode_calls"][0] == len(program.commands)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json():
    bench = _benchmark()
    phase = run.Phase()
    phase.round_s = [(1.0, 0.5)]
    phase.item_s = [(1.0, 0.5)]
    phase.kernel_s = [2 * run.REFERENCE_KERNEL_S]
    e2e = run.end_to_end(phase, 0.3)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()
    }
    # a host that runs the kernel two times slower halves both times
    assert e2e["round_norm_s"][0] == pytest.approx(0.25)
    assert e2e["setup_s"][0] == pytest.approx(0.15)
    layers = run.per_layer(Tracer(), phase, phase)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: u for k, (_, u) in layers.items()
    }
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_calibrate_spends_its_budget_with_the_collector_off():
    samples = []
    run.calibrate(0.0, samples)
    assert len(samples) == 1 and samples[0] > 0
    run.calibrate(5 * samples[0], samples)
    assert sum(samples[1:]) >= 5 * samples[0]
    assert gc.isenabled()


def test_run_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "rb_sequence_loading",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
