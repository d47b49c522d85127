"""Full-stack acceptance checks, one test per shipping requirement.

Each test pins its tolerances inline and prints a single PASS line
with the measured figures (visible under ``pytest -s`` or in failure
reports).  Runtime limits are asserted where the requirement carries
a budget.
"""

import json
import math
import time

import numpy as np

from qubicforge import cmdcodec
from qubicforge.chipcfg import (
    load_chip_config,
    load_gate_spec,
    load_hardware_config,
    standard_channel_map,
)
from qubicforge.cmdcodec import (
    COMMAND_BITS,
    CONDITION_BITS,
    DESTINATION_BITS,
    ELEMENT_BITS,
    FREQ_WORD_BITS,
    LENGTH_BITS,
    PHASE_WORD_BITS,
    RESERVED_BITS,
    START_BITS,
    TRIG_T_BITS,
    CommandFields,
    decode,
    encode,
    word_to_freq,
    word_to_phase,
)
from qubicforge.compiler import (
    Circuit,
    GateOp,
    VirtualZ,
    compile_circuit,
    simulate_program,
)
from qubicforge.device import DeviceClient, DeviceServer, LossyTransport, UdpTransport
from qubicforge.dspsim import (
    FULL_SCALE,
    AcqConfig,
    Loopback,
    ProgramImage,
    Simulator,
    cordic_cos_sin,
)
from qubicforge.envgen import EnvelopeSpec, generate, pack
from qubicforge.qcvv import (
    MockQubitModel,
    circuit_unitary,
    distribution,
    paired_improvement_pvalue,
    random_circuit,
    rb_experiment,
    rb_experiment_2q,
    rc_harness,
    tvd,
    twirl_circuit,
)

# ---------------------------------------------------------------------------
# Shared fixtures: a two-qubit chip with the standard wiring

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

GATES = load_gate_spec(
    json.dumps(
        {
            "gates": {
                "Q6Y180": [
                    {
                        "dest": "Q6.qdrv",
                        "t0": 0.0,
                        "twidth": 96e-9,
                        "fcarrier": "Q6.freq",
                        "pcarrier": "pi/2",
                        "amp": 0.873,
                        "env": {
                            "kind": "DRAG",
                            "params": {"sigma_fraction": 0.25, "alpha": 0.5},
                        },
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
                        "env": {
                            "kind": "cos_edge_square",
                            "params": {"edge_fraction": 0.1},
                        },
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
                for name, ch in standard_channel_map(["Q6", "Q7"]).items()
            }
        }
    )
)

GATE_POOL = (
    ("X90", ("Q6",)),
    ("Y180", ("Q6",)),
    ("X90", ("Q7",)),
    ("read", ("Q6",)),
)


def random_gate_circuit(rng) -> Circuit:
    """A random mix of pulses, frame rotations, and carrier overrides."""
    ops = []
    for _ in range(int(rng.integers(3, 9))):
        r = rng.random()
        if r < 0.2:
            q = "Q6" if rng.random() < 0.5 else "Q7"
            ops.append(VirtualZ(qubit=q, phase=float(rng.uniform(0, 2 * math.pi))))
            continue
        name, qubits = GATE_POOL[int(rng.integers(0, len(GATE_POOL)))]
        if r > 0.85:
            mod = {"pcarrier": float(rng.uniform(0, 2 * math.pi))}
            ops.append(GateOp(name, qubits, modify=mod))
        else:
            ops.append(GateOp(name, qubits))
    return Circuit(tuple(ops))


def _pass(label, detail):
    print(f"PASS {label}: {detail}")


# ---------------------------------------------------------------------------


def test_a01_command_codec_identity_and_carrier_steps():
    t0 = time.perf_counter()
    widths = (
        TRIG_T_BITS
        + ELEMENT_BITS
        + PHASE_WORD_BITS
        + LENGTH_BITS
        + START_BITS
        + DESTINATION_BITS
        + FREQ_WORD_BITS
        + CONDITION_BITS
        + RESERVED_BITS
    )
    assert widths == COMMAND_BITS == 128

    n = 1_000_000
    rng = np.random.default_rng(20260817)
    cols = [
        rng.integers(0, 1 << 24, n).tolist(),  # trig_t
        rng.integers(0, 1 << 8, n).tolist(),  # element
        rng.integers(0, 1 << 14, n).tolist(),  # phase_word
        rng.integers(0, 1 << 12, n).tolist(),  # length
        rng.integers(0, 1 << 12, n).tolist(),  # start
        rng.integers(0, 4, n).tolist(),  # destination
        rng.integers(0, 1 << 24, n).tolist(),  # freq_word
        rng.integers(0, 2, n).tolist(),  # condition
    ]
    for trig, el, ph, ln, st, dest, fw, cond in zip(*cols):
        f = CommandFields(
            trig_t=trig,
            element=el,
            phase_word=ph,
            length=ln,
            start=st,
            destination=dest,
            freq_word=fw,
            condition=cond,
        )
        assert decode(encode(f)) == f

    freq_step = word_to_freq(1, 1e9)
    assert freq_step == 1e9 / 2**24
    assert f"{freq_step:.3g}" == "59.6"  # i.e. the advertised ~60 Hz
    assert abs(freq_step / 60.0 - 1) < 0.01

    phase_step_deg = math.degrees(word_to_phase(1))
    assert phase_step_deg == 360.0 / 2**14
    assert f"{phase_step_deg:.2g}" == "0.022"

    dt = time.perf_counter() - t0
    assert dt < 10.0
    _pass(
        "codec",
        f"1e6 roundtrips exact, freq step {freq_step:.9f} Hz, "
        f"phase step {phase_step_deg:.9f} deg, {dt:.1f} s",
    )


def test_a02_envelope_carrier_roundtrip_precision():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    budget = 2.0**-13
    worst = 0.0
    for case in range(100):
        n = int(rng.choice([128, 192, 256, 384, 512]))
        kind = case % 4
        if kind == 0:
            spec = EnvelopeSpec(
                kind="gaussian",
                params={"sigma_fraction": float(rng.uniform(0.15, 0.4))},
            )
        elif kind == 1:
            spec = EnvelopeSpec(
                kind="DRAG",
                params={
                    "sigma_fraction": float(rng.uniform(0.15, 0.4)),
                    "alpha": float(rng.uniform(-1.0, 1.0)),
                },
            )
        elif kind == 2:
            spec = EnvelopeSpec(
                kind="cos_edge_square",
                params={"edge_fraction": float(rng.uniform(0.05, 0.45))},
            )
        else:
            vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            vals /= np.max(np.abs(vals))
            spec = EnvelopeSpec(kind="custom_samples", samples=tuple(vals))

        env = generate(spec, n * HW.dt, HW.dt)
        words = pack(env).words
        freq = float(rng.uniform(0, 999e6))
        phase = float(rng.uniform(0, 2 * math.pi))
        common = dict(
            length=n,
            freq_word=cmdcodec.freq_to_word(freq, HW.dac_sample_rate),
            phase_word=cmdcodec.phase_to_word(phase),
            trig_t=0,
            start=0,
            destination=0,
            condition=0,
        )
        image = ProgramImage(
            commands=[
                encode(CommandFields(element=0, **common)),
                encode(CommandFields(element=16, **common)),
            ],
            envelopes={0: words},
            repeat_cycles=n // 4 + 16,
        )
        sim = Simulator(HW, wiring=Loopback(0))
        adc = sim.run(image, acq=AcqConfig(tap="adc", unit=0, length=n)).acq_complex()
        dlo = sim.run(image, acq=AcqConfig(tap="dlo", unit=16, length=n)).acq_complex()
        recovered = adc * np.conj(dlo) / (FULL_SCALE * FULL_SCALE)
        err = float(np.abs(recovered - env.samples).max())
        worst = max(worst, err)
        assert err <= budget

    dt = time.perf_counter() - t0
    assert dt < 30.0
    _pass(
        "roundtrip",
        f"100 envelope/carrier cases, worst error {worst:.2e} "
        f"<= 2^-13 = {budget:.2e}, {dt:.1f} s",
    )


def test_a03_phase_rotator_error_budget():
    rng = np.random.default_rng(424242)
    words = rng.integers(0, 1 << 24, 100_000)
    c, s = cordic_cos_sin(words)
    ideal = np.exp(2j * np.pi * words / (1 << 24))
    err = np.abs((c + 1j * s) / FULL_SCALE - ideal)
    budget = 2.0**-14
    assert err.max() <= budget
    _pass(
        "rotator",
        f"max |error| {err.max():.3e} <= 2^-14 = {budget:.3e} over 1e5 words",
    )


def test_a04_drag_gate_command_and_loopback_shape():
    program = compile_circuit(Circuit((GateOp("Y180", ("Q6",)),)), CHIP, GATES, HW)
    assert len(program.image.commands) == 1
    fields = decode(program.image.commands[0])
    assert fields.length == 96
    assert fields.phase_word == 4096

    res = simulate_program(
        program,
        wiring=Loopback(0),
        shots=1,
        acq=AcqConfig(tap="adc", unit=0, length=96),
    )
    measured = np.abs(res.acq_complex())
    measured /= measured.max()

    # independent pulse-shape model: gaussian with a scaled-derivative
    # quadrature, sampled at t_k = k*dt
    t = np.arange(96) * 1e-9
    mu, sigma, alpha = 48e-9, 0.25 * 96e-9, 0.5
    g = np.exp(-((t - mu) ** 2) / (2 * sigma**2))
    d = -alpha * ((t - mu) / sigma) * g
    analytic = np.hypot(g, d)
    analytic /= analytic.max()

    rms = float(np.sqrt(np.mean((measured - analytic) ** 2)))
    assert rms <= 0.01
    _pass(
        "pulse shape",
        f"one command (length 96, phase word 4096), loopback magnitude "
        f"RMS error {rms:.2e} <= 1e-2",
    )


def test_a05_allocator_equivalence_and_determinism():
    rng = np.random.default_rng(5050)
    checked = 0
    for _ in range(50):
        circuit = random_gate_circuit(rng)
        optm = compile_circuit(circuit, CHIP, GATES, HW, allocator="optm")
        runc = compile_circuit(circuit, CHIP, GATES, HW, allocator="runc")

        waves = [Simulator(HW).run(p.image).dac for p in (optm, runc)]
        assert waves[0].keys() == waves[1].keys()
        for pair in waves[0]:
            assert np.array_equal(waves[0][pair], waves[1][pair])

        again = compile_circuit(circuit, CHIP, GATES, HW, allocator="optm")
        assert optm.serialize() == again.serialize()
        checked += 1
    _pass(
        "allocators",
        f"{checked} circuits: optm == runc waveforms, "
        "byte-deterministic output",
    )


def test_a06_transport_transparency():
    seed = 901
    server = DeviceServer(HW, wiring=Loopback(0), seed=seed).start()
    try:
        rng = np.random.default_rng(606)
        acq = AcqConfig(tap="adc", unit=3, length=160)
        lossy_runs = 0
        for k in range(20):
            circuit = random_gate_circuit(rng)
            program = compile_circuit(circuit, CHIP, GATES, HW)
            local = simulate_program(
                program, wiring=Loopback(0), shots=2, acq=acq, seed=seed
            )

            transport = UdpTransport(("127.0.0.1", server.port))
            if k >= 10:
                transport = LossyTransport(
                    transport, loss=0.05, dup=0.0, reorder=0.05, seed=k
                )
                lossy_runs += 1
            client = DeviceClient(transport, timeout=0.05, retries=8)
            try:
                remote = client.run_program(program, 2, acq=acq)
            finally:
                client.close()

            assert remote.shots_completed == local.shots_completed == 2
            assert sorted(remote.acc) == sorted(local.acc)
            for element in local.acc:
                assert np.array_equal(remote.acc[element], local.acc[element])
            assert np.array_equal(remote.acq, local.acq)
    finally:
        server.stop()
    _pass(
        "transport",
        f"20 programs bit-exact over UDP ({lossy_runs} with 5% loss + "
        "5% reordering)",
    )


def test_a07_rb_fidelity_recovery_and_channel_monotonicity():
    # depolarizing strength chosen so the average gate fidelity is
    # exactly 1 - p_dep/2 = 0.998
    result = rb_experiment(
        MockQubitModel(p_dep=0.004),
        [2, 4, 8, 16, 32, 64, 128, 256],
        sequences_per_length=20,
        shots=500,
        seed=20260817,
    )
    assert result.converged
    assert abs(result.avg_fidelity - 0.998) <= 0.001

    decays = []
    for strength in (0.002, 0.005, 0.01, 0.02):
        model = MockQubitModel(two_qubit_depol=strength)
        r2q = rb_experiment_2q(model, [2, 4, 8, 16, 32], 5, shots=400, seed=9)
        decays.append(r2q.decay)
    assert all(a > b for a, b in zip(decays, decays[1:]))

    _pass(
        "rb",
        f"fitted avg fidelity {result.avg_fidelity:.6f} within 0.998+-0.001; "
        f"two-qubit decay monotone over channel strengths: "
        f"{', '.join(f'{p:.5f}' for p in decays)}",
    )


def test_a08_rc_reduces_tvd_under_coherent_error():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    circuits = [random_circuit(rng, 5) for _ in range(100)]
    report = rc_harness(
        circuits,
        variants=20,
        model=MockQubitModel(delta=0.05),
        shots=2000,
        seed=rng,
        verify=True,
    )
    pvalue = paired_improvement_pvalue(report)
    dt = time.perf_counter() - t0
    assert report.rc_mean < report.bare_mean
    assert pvalue < 0.01
    assert dt < 300.0
    _pass(
        "rc",
        f"mean TVD bare {report.bare_mean:.4f} -> rc {report.rc_mean:.4f}, "
        f"paired one-sided p = {pvalue:.2e} < 0.01, {dt:.1f} s",
    )


def test_a09_twirled_variants_unitarily_equivalent():
    rng = np.random.default_rng(909)
    worst = 0.0
    n_variants = 0
    for _ in range(25):
        circuit = random_circuit(rng, int(rng.integers(1, 7)))
        u_bare = circuit_unitary(circuit)
        for _ in range(4):
            variant = twirl_circuit(circuit, rng)
            u_var = circuit_unitary(variant)
            k = np.argmax(np.abs(u_bare))
            phase = u_bare.flat[k] / u_var.flat[k]
            phase /= abs(phase)
            dev = float(np.max(np.abs(u_bare - phase * u_var)))
            worst = max(worst, dev)
            n_variants += 1
            assert dev < 1e-10
    _pass(
        "twirl",
        f"{n_variants} variants phase-aligned to their bare circuits, "
        f"worst deviation {worst:.2e} < 1e-10",
    )


def test_a10_tvd_metric_properties_and_spot_values():
    assert tvd({"00": 1.0}, {"00": 1.0}) == 0.0
    assert tvd({"00": 1.0}, {"11": 1.0}) == 1.0
    assert tvd({"00": 1.0}, {"00": 0.5, "11": 0.5}) == 0.5

    rng = np.random.default_rng(1010)
    keys = ("00", "01", "10", "11")
    for _ in range(200):
        p, q, r = (
            dict(zip(keys, rng.dirichlet(np.ones(4)))),
            dict(zip(keys, rng.dirichlet(np.ones(4)))),
            dict(zip(keys, rng.dirichlet(np.ones(4)))),
        )
        assert tvd(p, p) == 0.0
        d = tvd(p, q)
        assert 0.0 <= d <= 1.0
        assert abs(d - tvd(q, p)) < 1e-15
        assert tvd(p, r) <= d + tvd(q, r) + 1e-12
    _pass(
        "tvd",
        "spot values 0 / 1 / 0.5 exact; identity, symmetry, range, and "
        "triangle inequality hold on 200 random distribution triples",
    )


def test_a11_run_stage_time_scales_linearly():
    model = MockQubitModel(delta=0.05)

    def run_stage_shares(points, sweeps=15):
        """Median share of each (variants, depth) point in a sweep's Run time.

        Each sweep times every point once, in alternating direction, and
        each time is divided by the sweep's total: over one sweep the
        machine's speed, which on a shared host shifts by up to 2x within
        seconds, scales every point alike and cancels, and a shift in the
        middle of a sweep bends no one point more often than another.
        Dividing by a constant leaves R^2 unchanged.  Each point keeps its
        own generator, so it sees the same circuit and twirls as when timed
        on its own.
        """
        setups = []
        for variants, depth in points:
            rng = np.random.default_rng(5)
            setups.append((variants, [random_circuit(rng, depth)], rng))
        shares = np.empty((sweeps, len(points)))
        for sweep in range(sweeps):
            order = range(len(points))
            for i in order if sweep % 2 == 0 else reversed(order):
                variants, circ, rng = setups[i]
                report = rc_harness(
                    circ, variants, model, shots=2 * variants, seed=rng, verify=False
                )
                shares[sweep, i] = report.stage_seconds["Run"]
            shares[sweep] /= shares[sweep].sum()
        return np.median(shares, axis=0)

    def rsquared(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        coef = np.polyfit(x, y, 1)
        resid = y - np.polyval(coef, x)
        return float(1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2))

    variants_axis = (200, 400, 600, 800)
    r2_variants = rsquared(
        variants_axis, run_stage_shares([(v, 16) for v in variants_axis])
    )
    depth_axis = (8, 16, 24, 32)
    r2_depth = rsquared(depth_axis, run_stage_shares([(400, d) for d in depth_axis]))

    assert r2_variants > 0.98
    assert r2_depth > 0.98
    _pass(
        "scaling",
        f"Run-stage linearity R^2 = {r2_variants:.4f} in variant count, "
        f"{r2_depth:.4f} in depth (both > 0.98)",
    )
