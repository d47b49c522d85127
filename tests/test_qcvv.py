"""Characterization harness: Cliffords, mock model, GMM, RB, RC, TVD."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qubicforge import AnalysisError
from qubicforge.qcvv import cliffords as cl
from qubicforge.qcvv import (
    GaussianMixture,
    MockQubitModel,
    calibrated_discriminator,
    chevron,
    distribution,
    excited_probability,
    fit_rb_decay,
    gmm_fit,
    ideal_distribution,
    merge_counts,
    mock_response,
    paired_improvement_pvalue,
    rabi_amplitude_sweep,
    rabi_p1,
    random_circuit,
    rb_experiment,
    rb_experiment_2q,
    rc_harness,
    readout_correct,
    run_sequence_1q,
    tvd,
    twirl_circuit,
    verify_twirl,
)
from qubicforge.qcvv import rb as rb_module
from qubicforge.qcvv import rc as rc_module
from qubicforge.qcvv.model import clifford_bloch_table, depolarize, sample_bits
from qubicforge.qcvv.rb import (
    _finish,
    random_rb_sequence,
    random_rb_sequence_2q,
    run_sequence_2q,
)
from qubicforge.qcvv.rc import (
    STAGES,
    circuit_unitary,
    final_probabilities,
)


# ---------------------------------------------------------------------------
# Clifford group


class TestCliffords:
    def test_group_size(self):
        assert cl.N_CLIFFORDS == 24

    def test_identity_is_index_zero(self):
        assert cl.clifford_index(np.eye(2)) == 0

    def test_composition_closure(self):
        seen = set(cl.COMPOSE.ravel().tolist())
        assert seen == set(range(24))

    def test_inverse_table(self):
        for i in range(24):
            assert cl.COMPOSE[cl.INVERSE[i], i] == 0
            assert cl.COMPOSE[i, cl.INVERSE[i]] == 0

    def test_net_index_matches_matrix_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seq = rng.integers(0, 24, size=8)
            net = np.eye(2, dtype=complex)
            for s in seq:
                net = cl.CLIFFORD_MATS[s] @ net
            assert cl.net_index(seq) == cl.clifford_index(net)

    def test_sequence_inverse_closes_to_identity(self):
        rng = np.random.default_rng(4)
        seq = [int(x) for x in rng.integers(0, 24, size=11)]
        seq.append(cl.sequence_inverse(seq))
        assert cl.net_index(seq) == 0

    def test_axis_angle_roundtrip(self):
        for i in range(24):
            axis, angle = cl.axis_angle(cl.CLIFFORD_MATS[i])
            assert cl.clifford_index(cl.rotation(axis, angle)) == i

    def test_axis_angle_of_pauli_x(self):
        axis, angle = cl.axis_angle(cl.PAULI_X)
        assert angle == pytest.approx(np.pi)
        assert axis == pytest.approx([1.0, 0.0, 0.0])

    def test_overrotated_identity_unchanged(self):
        out = cl.overrotated(np.eye(2), 0.3)
        assert np.allclose(out, np.eye(2))

    def test_overrotated_x90(self):
        out = cl.overrotated(cl.X90, 0.1)
        want = cl.rotation([1.0, 0.0, 0.0], np.pi / 2 + 0.1)
        assert np.allclose(out, want, atol=1e-12)

    def test_bloch_rotation_is_special_orthogonal(self):
        for i in range(24):
            r = cl.bloch_rotation(cl.CLIFFORD_MATS[i])
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_pauli_indices_distinct(self):
        vals = list(cl.PAULI_INDEX.values())
        assert len(set(vals)) == 4
        assert cl.PAULI_INDEX["I"] == 0

    def test_cnot_frame_spot_values(self):
        assert cl.CNOT_FRAME[("X", "I")] == ("X", "X")
        assert cl.CNOT_FRAME[("I", "X")] == ("I", "X")
        assert cl.CNOT_FRAME[("Z", "I")] == ("Z", "I")
        assert cl.CNOT_FRAME[("I", "Z")] == ("Z", "Z")

    def test_non_clifford_rejected(self):
        with pytest.raises(AnalysisError):
            cl.clifford_index(cl.rotation([0.0, 0.0, 1.0], 0.1))


# ---------------------------------------------------------------------------
# Mock model


class TestMockModel:
    def test_probability_validation(self):
        with pytest.raises(AnalysisError, match="probability"):
            MockQubitModel(eps01=1.5)

    def test_t2_bound(self):
        with pytest.raises(AnalysisError, match="2\\*T1"):
            MockQubitModel(t1=10e-6, t2=30e-6)

    def test_t1_positive(self):
        with pytest.raises(AnalysisError):
            MockQubitModel(t1=0.0)

    def test_pi_pulse_full_inversion(self):
        model = MockQubitModel(rabi_rate_per_unit_amp=25e6)
        # a * f_R * tau = 1/2 is a pi rotation
        tau = 0.5 / (0.8 * 25e6)
        ops = [{"op": "drive", "amp": 0.8, "duration": tau}]
        assert excited_probability(ops, model) == pytest.approx(1.0, abs=1e-12)

    def test_bloch_matches_closed_form(self):
        model = MockQubitModel(rabi_rate_per_unit_amp=20e6)
        rng = np.random.default_rng(8)
        for _ in range(50):
            amp = rng.uniform(0.05, 1.0)
            tau = rng.uniform(1e-9, 200e-9)
            det = rng.uniform(-30e6, 30e6)
            ops = [{"op": "drive", "amp": amp, "duration": tau, "detuning": det}]
            got = excited_probability(ops, model)
            want = rabi_p1(amp, tau, det, 20e6)
            assert got == pytest.approx(want, abs=1e-9)

    def test_amplitude_sweep_sinusoid(self):
        model = MockQubitModel(rabi_rate_per_unit_amp=25e6)
        tau = 40e-9
        amps = np.linspace(0.05, 1.0, 12)
        shots = 400
        p_hat = rabi_amplitude_sweep(model, amps, tau, shots, seed=11)
        chi2 = 0.0
        dof = 0
        for a, ph in zip(amps, p_hat):
            p = math.sin(math.pi * a * 25e6 * tau) ** 2
            if 0.02 < p < 0.98:
                chi2 += (shots * ph - shots * p) ** 2 / (shots * p * (1 - p))
                dof += 1
        assert dof >= 6
        assert chi2 < stats.chi2.ppf(0.9999, dof)

    def test_chevron_contrast(self):
        model = MockQubitModel(rabi_rate_per_unit_amp=25e6)
        amp = 0.4
        fr = amp * 25e6
        dets = np.array([0.0, 5e6, 10e6, 20e6])
        taus = np.linspace(10e-9, 120e-9, 6)
        shots = 400
        grid = chevron(model, dets, taus, amp, shots, seed=12)
        chi2 = 0.0
        dof = 0
        for i, det in enumerate(dets):
            geff = math.hypot(fr, det)
            for j, tau in enumerate(taus):
                p = (fr / geff) ** 2 * math.sin(math.pi * geff * tau) ** 2
                if 0.02 < p < 0.98:
                    k = grid[i, j] * shots
                    chi2 += (k - shots * p) ** 2 / (shots * p * (1 - p))
                    dof += 1
        assert dof >= 10
        assert chi2 < stats.chi2.ppf(0.9999, dof)

    def test_t1_relaxation(self):
        model = MockQubitModel(rabi_rate_per_unit_amp=25e6, t1=20e-6, t2=30e-6)
        tau = 0.5 / 25e6  # pi pulse at unit amplitude
        ops = [
            {"op": "drive", "amp": 1.0, "duration": tau},
            {"op": "delay", "duration": 200e-6},
        ]
        assert excited_probability(ops, model) < 1e-4

    def test_t2_dephasing(self):
        model = MockQubitModel(rabi_rate_per_unit_amp=25e6, t1=1.0, t2=10e-6)
        tau = 0.25 / 25e6  # pi/2
        ops = [
            {"op": "drive", "amp": 1.0, "duration": tau},
            {"op": "delay", "duration": 500e-6},
            {"op": "drive", "amp": 1.0, "duration": tau},
        ]
        assert excited_probability(ops, model) == pytest.approx(0.5, abs=1e-3)

    def test_readout_bit_flips(self):
        model = MockQubitModel(eps01=1.0)
        rng = np.random.default_rng(0)
        bits = sample_bits(0.0, model, 100, rng)
        assert bits.sum() == 100

    def test_mock_response_clouds(self):
        model = MockQubitModel(mu0=2 + 0j, mu1=-2 + 0j, sigma_r=0.05)
        iq = mock_response([], model, shots=200, seed=5)
        # empty sequence leaves the qubit in the ground state
        assert np.all(np.abs(iq - 2.0) < 1.0)

    def test_unknown_op_rejected(self):
        with pytest.raises(AnalysisError, match="unsupported op"):
            excited_probability([{"op": "entangle"}], MockQubitModel())


# ---------------------------------------------------------------------------
# GMM discrimination


class TestGMM:
    def test_separated_clouds_accuracy(self):
        rng = np.random.default_rng(21)
        sigma = 0.1
        g = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * sigma
        e = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * sigma + 10 * sigma
        mixture, confusion = calibrated_discriminator(g, e, seed=0)
        # held-out draws
        g2 = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * sigma
        e2 = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) * sigma + 10 * sigma
        acc_g = (mixture.classify(g2) == 0).mean()
        acc_e = (mixture.classify(e2) == 1).mean()
        assert (acc_g + acc_e) / 2 > 0.999
        assert confusion.sum(axis=0) == pytest.approx([1.0, 1.0])

    def test_identical_means_coin_flip(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        labels = rng.integers(0, 2, size=4000)
        mixture = gmm_fit(pts, k=2, seed=1)
        acc = (mixture.classify(pts) == labels).mean()
        assert acc == pytest.approx(0.5, abs=0.02)

    def test_single_cluster_as_two_components(self):
        rng = np.random.default_rng(23)
        sigma = 0.2
        pts = (rng.normal(size=6000) + 1j * rng.normal(size=6000)) * sigma
        mixture = gmm_fit(pts, k=2, seed=2)
        assert mixture.weights == pytest.approx([0.5, 0.5], abs=0.1)
        gap = np.linalg.norm(mixture.means[0] - mixture.means[1])
        assert gap < 0.1 * sigma * 10  # within a fraction of sigma

    def test_too_few_shots(self):
        with pytest.raises(AnalysisError, match="too few"):
            gmm_fit(np.array([1 + 1j, 2 + 2j, 3 + 3j]), k=2)

    def test_ground_is_component_zero(self):
        rng = np.random.default_rng(24)
        g = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * 0.1 - 3
        e = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * 0.1 + 3
        mixture, _ = calibrated_discriminator(g, e, seed=3)
        assert mixture.means[0][0] < 0 < mixture.means[1][0]

    def test_readout_correct_identity(self):
        p = np.array([0.7, 0.3])
        out = readout_correct(p, np.eye(2))
        assert out == pytest.approx(p)

    def test_readout_correct_hand_value(self):
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        out = readout_correct([0.9, 0.1], m)
        assert out == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_singular_matrix_rejected(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(AnalysisError, match="condition"):
            readout_correct([0.6, 0.4], m)

    def test_not_column_stochastic_rejected(self):
        m = np.array([[0.9, 0.3], [0.3, 0.9]])
        with pytest.raises(AnalysisError, match="stochastic"):
            readout_correct([0.6, 0.4], m)

    def test_correction_inverts_channel(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            eps = rng.uniform(0.0, 0.2, size=2)
            m = np.array([[1 - eps[0], eps[1]], [eps[0], 1 - eps[1]]])
            p = rng.dirichlet([1.0, 1.0])
            assert readout_correct(m @ p, m) == pytest.approx(p, abs=1e-9)


# ---------------------------------------------------------------------------
# RB


class TestRB:
    LENGTHS = [2, 4, 8, 16, 32, 64, 128, 256]

    def test_noiseless_no_decay(self):
        model = MockQubitModel()
        res = rb_experiment(model, [2, 8, 32, 128], 5, shots=200, seed=1)
        assert res.decay == pytest.approx(1.0, abs=1e-3)
        assert res.amplitude == pytest.approx(1.0, abs=1e-2)

    def test_synthetic_exact_recovery(self):
        m = np.array(self.LENGTHS, dtype=float)
        y = 0.9 * 0.995**m
        a, p, cov, resid, ok = fit_rb_decay(m, y)
        assert ok
        assert a == pytest.approx(0.9, abs=1e-6)
        assert p == pytest.approx(0.995, abs=1e-6)
        assert np.max(np.abs(resid)) < 1e-9

    def test_depolarizing_operating_point(self):
        # p_dep chosen analytically: F_avg = 1 - p_dep/2 = 0.998
        model = MockQubitModel(p_dep=0.004)
        res = rb_experiment(model, self.LENGTHS, 20, shots=500, seed=20260817)
        assert res.converged
        assert res.avg_fidelity == pytest.approx(0.998, abs=0.001)

    def test_survival_is_deterministic_under_seed(self):
        model = MockQubitModel(p_dep=0.01)
        a = rb_experiment(model, [2, 16, 64], 4, shots=100, seed=5)
        b = rb_experiment(model, [2, 16, 64], 4, shots=100, seed=5)
        assert np.array_equal(a.survival, b.survival)
        assert a.decay == b.decay

    def test_overrotation_reduces_fitted_p(self):
        clean = rb_experiment(MockQubitModel(), [2, 8, 32, 128], 8, 400, seed=6)
        noisy = rb_experiment(
            MockQubitModel(delta=0.05), [2, 8, 32, 128], 8, 400, seed=6
        )
        assert noisy.decay < clean.decay

    def test_fit_recovery_within_three_sigma(self):
        # binomial-noise self-consistency over 200 seeded trials
        m = np.array([2, 4, 8, 16, 32, 64, 128, 256], dtype=float)
        a_true, p_true = 0.95, 0.991
        shots = 300
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(200):
            p0 = (1.0 + a_true * p_true**m) / 2.0
            y_hat = 2.0 * rng.binomial(shots, p0) / shots - 1.0
            err = 2.0 * np.sqrt(p0 * (1 - p0) / shots)
            a, p, cov, _, ok = fit_rb_decay(m, y_hat, err)
            if ok and abs(p - p_true) <= 3.0 * np.sqrt(cov[1, 1]):
                hits += 1
        assert hits >= 190

    def test_result_report_fields(self):
        model = MockQubitModel(p_dep=0.01)
        res = rb_experiment(model, [2, 8, 32], 4, shots=200, seed=7)
        blob = res.to_json()
        for key in (
            "lengths",
            "survival",
            "decay",
            "r",
            "avg_fidelity",
            "process_fidelity",
            "formulas",
        ):
            assert key in blob
        assert 0.0 <= res.decay <= 1.0
        d = res.dimension
        assert res.r == pytest.approx((1 - res.decay) * (d - 1) / d)

    def test_executor_hook(self):
        calls = []

        def executor(seq, shots, rng):
            calls.append(len(seq))
            return 1.0

        res = rb_experiment(
            MockQubitModel(), [2, 4], 3, shots=50, seed=8, executor=executor
        )
        assert len(calls) == 6
        # sequence includes the inversion gate
        assert sorted(set(calls)) == [3, 5]
        assert res.decay == pytest.approx(1.0, abs=1e-6)

    def test_two_qubit_monotone_in_channel_strength(self):
        fitted = []
        for s in (0.002, 0.005, 0.01, 0.02):
            model = MockQubitModel(two_qubit_depol=s)
            res = rb_experiment_2q(model, [2, 4, 8, 16, 32], 5, shots=400, seed=9)
            assert res.converged
            fitted.append(res.decay)
        assert all(a > b for a, b in zip(fitted, fitted[1:]))

    def test_two_qubit_decay_matches_channel(self):
        model = MockQubitModel(two_qubit_depol=0.01)
        res = rb_experiment_2q(model, [2, 4, 8, 16, 32, 64], 8, shots=2000, seed=10)
        assert res.decay == pytest.approx(0.99, abs=2e-3)


# ---------------------------------------------------------------------------
# TVD


class TestTVD:
    def test_equal_distributions(self):
        assert tvd({"00": 0.5, "11": 0.5}, {"11": 0.5, "00": 0.5}) == 0.0

    def test_disjoint_supports(self):
        assert tvd({"00": 1.0}, {"11": 1.0}) == 1.0

    def test_half_overlap(self):
        assert tvd({"00": 1.0}, {"00": 0.5, "11": 0.5}) == 0.5

    def test_unnormalized_rejected(self):
        with pytest.raises(AnalysisError, match="sums to"):
            tvd({"0": 0.7}, {"0": 1.0})

    def test_merge_and_distribution(self):
        merged = merge_counts({"00": 3}, {"00": 1, "01": 4})
        assert merged == {"00": 4, "01": 4}
        assert distribution(merged) == {"00": 0.5, "01": 0.5}

    @staticmethod
    def _dist(weights):
        total = sum(weights)
        return {f"{i:02b}": w / total for i, w in enumerate(weights)}

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, wa, wb, wc):
        pa, pb, pc = self._dist(wa), self._dist(wb), self._dist(wc)
        dab = tvd(pa, pb)
        assert 0.0 <= dab <= 1.0
        assert dab == pytest.approx(tvd(pb, pa))
        assert tvd(pa, pa) == 0.0
        assert dab <= tvd(pa, pc) + tvd(pc, pb) + 1e-12


# ---------------------------------------------------------------------------
# RC


class TestRC:
    def test_twirl_preserves_unitary(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            circ = random_circuit(rng, depth=int(rng.integers(1, 7)))
            variant = twirl_circuit(circ, rng)
            verify_twirl(circ, variant, tol=1e-10)

    def test_twirl_changes_layers(self):
        rng = np.random.default_rng(31)
        circ = random_circuit(rng, depth=5)
        variants = {twirl_circuit(circ, rng).easy_layers for _ in range(20)}
        assert len(variants) > 1

    def test_noiseless_variants_identical_distributions(self):
        rng = np.random.default_rng(32)
        model = MockQubitModel()
        circ = random_circuit(rng, depth=4)
        base = final_probabilities(circ, model)
        for _ in range(10):
            variant = twirl_circuit(circ, rng)
            assert final_probabilities(variant, model) == pytest.approx(
                base, abs=1e-12
            )

    def test_ideal_distribution_normalized(self):
        rng = np.random.default_rng(33)
        circ = random_circuit(rng, depth=3)
        dist = ideal_distribution(circ)
        assert sum(dist.values()) == pytest.approx(1.0)
        # and matches the noiseless density-matrix path
        probs = final_probabilities(circ, MockQubitModel())
        for i, key in enumerate(("00", "01", "10", "11")):
            assert dist[key] == pytest.approx(probs[i], abs=1e-12)

    def test_noiseless_tvd_near_zero(self):
        rng = np.random.default_rng(34)
        circuits = [random_circuit(rng, 4) for _ in range(5)]
        report = rc_harness(
            circuits, variants=5, model=MockQubitModel(), shots=5000, seed=35
        )
        assert report.bare_mean < 0.05
        assert report.rc_mean < 0.05

    def test_rc_beats_bare_with_coherent_error(self):
        rng = np.random.default_rng(36)
        circuits = [random_circuit(rng, 5) for _ in range(30)]
        model = MockQubitModel(delta=0.1)
        report = rc_harness(circuits, variants=10, model=model, shots=2000, seed=37)
        assert report.rc_mean < report.bare_mean
        assert paired_improvement_pvalue(report) < 0.01

    def test_stage_vocabulary(self):
        rng = np.random.default_rng(38)
        report = rc_harness(
            [random_circuit(rng, 2)], 2, MockQubitModel(), shots=100, seed=39
        )
        assert tuple(report.stage_seconds) == STAGES
        assert all(v >= 0.0 for v in report.stage_seconds.values())
        assert report.transfer_bytes > 0

    def test_equal_shot_budget(self):
        rng = np.random.default_rng(40)
        circuits = [random_circuit(rng, 2)]
        report = rc_harness(circuits, 7, MockQubitModel(), shots=100, seed=41)
        assert report.shots_per_circuit == 100

    def test_shot_budget_too_small(self):
        rng = np.random.default_rng(42)
        with pytest.raises(AnalysisError, match="cannot cover"):
            rc_harness([random_circuit(rng, 2)], 50, MockQubitModel(), shots=10, seed=4)

    def test_report_json(self):
        rng = np.random.default_rng(43)
        report = rc_harness(
            [random_circuit(rng, 2)], 2, MockQubitModel(), shots=100, seed=44
        )
        blob = report.to_json()
        for key in ("bare_tvd", "rc_tvd", "stage_seconds", "bare_mean", "rc_mean"):
            assert key in blob

    def test_unitary_equivalence_helper(self):
        u = circuit_unitary(TwoQubitCircuitStub((0, 0), (3, 3)))
        rc_module._verify(u, (np.exp(1j * 0.7) * u)[None])
        with pytest.raises(AnalysisError, match="not equivalent"):
            rc_module._verify(u, np.eye(4)[None])

    def test_readout_errors_fold_into_counts(self):
        rng = np.random.default_rng(45)
        model = MockQubitModel(eps01=1.0, eps10=1.0)
        circ = random_circuit(rng, 1)
        probs = final_probabilities(circ, MockQubitModel())
        from qubicforge.qcvv.rc import sample_counts

        counts = sample_counts(probs, model, 1000, rng)
        # total inversion swaps both bits
        flipped = {
            "00": probs[3],
            "01": probs[2],
            "10": probs[1],
            "11": probs[0],
        }
        emp = distribution(counts)
        for key in flipped:
            assert emp.get(key, 0.0) == pytest.approx(flipped[key], abs=0.05)


# ---------------------------------------------------------------------------
# Gate tables, against the per-gate code they replace


def per_gate_clifford_bloch(r, index, model):
    """One noisy Clifford, its SO(3) matrix built again at every gate."""
    u = cl.CLIFFORD_MATS[index]
    if model.delta:
        u = cl.overrotated(u, model.delta)
    r = cl.bloch_rotation(u) @ np.asarray(r, dtype=float)
    if model.p_dep:
        r = r * (1.0 - model.p_dep)
    return r


def per_gate_bloch_z(indices, model):
    r = np.array([0.0, 0.0, 1.0])
    for idx in indices:
        r = per_gate_clifford_bloch(r, idx, model)
    return r[2]


def per_gate_run_sequence_2q(model, pair_indices):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for ia, ib in pair_indices:
        u = np.kron(cl.CLIFFORD_MATS[ia], cl.CLIFFORD_MATS[ib])
        rho = u @ rho @ u.conj().T
        rho = depolarize(rho, model.two_qubit_depol)
    return min(max(rho[0, 0].real, 0.0), 1.0)


def per_gate_circuit_unitary(circuit):
    mats = cl.CLIFFORD_MATS
    ia, ib = circuit.easy_layers[0]
    u = np.kron(mats[ia], mats[ib])
    for ia, ib in circuit.easy_layers[1:]:
        u = np.kron(mats[ia], mats[ib]) @ cl.CNOT @ u
    return u


def per_gate_easy_unitaries(circuit):
    mats = cl.CLIFFORD_MATS
    return [np.kron(mats[a], mats[b]) for a, b in circuit.easy_layers]


def per_gate_rb(model, lengths, sequences_per_length, shots, seed, d):
    """The RB loop as written once per dimension, on per-gate execution."""
    if d == 2:
        draw = random_rb_sequence

        def run(model, seq):
            return min(max((1.0 + per_gate_bloch_z(seq, model)) / 2.0, 0.0), 1.0)

    else:
        draw, run = random_rb_sequence_2q, per_gate_run_sequence_2q
    rng = np.random.default_rng(seed)
    means, errs = [], []
    for m in lengths:
        vals = []
        for _ in range(sequences_per_length):
            p = run(model, draw(rng, int(m)))
            p_hat = rng.binomial(shots, p) / shots
            vals.append((d * p_hat - 1.0) / (d - 1.0))
        vals = np.asarray(vals)
        means.append(vals.mean())
        n_total = shots * sequences_per_length
        p_bar = (means[-1] * (d - 1) + 1.0) / d
        floor = d / (d - 1) * np.sqrt(max(p_bar * (1 - p_bar), 1e-12) / n_total)
        errs.append(max(vals.std(ddof=1) / np.sqrt(len(vals)), floor))
    return _finish(lengths, means, errs, d)


def _rc_json(circuits, variants, model, shots, seed, verify=True):
    blob = rc_harness(circuits, variants, model, shots, seed, verify).to_json()
    del blob["stage_seconds"]
    return json.dumps(blob)


# The RC harness as it was written one variant at a time, on the
# per-gate unitaries above: scalar twirl draws, one equivalence check,
# one density-matrix evolution and one multinomial draw per variant.


def per_variant_twirl(circuit, rng):
    layers = [list(layer) for layer in circuit.easy_layers]
    compose, pidx = cl.COMPOSE, cl.PAULI_INDEX
    for cycle in range(circuit.depth):
        pa = "IXYZ"[int(rng.integers(4))]
        pb = "IXYZ"[int(rng.integers(4))]
        qa, qb = cl.CNOT_FRAME[(pa, pb)]
        layers[cycle][0] = int(compose[pidx[pa], layers[cycle][0]])
        layers[cycle][1] = int(compose[pidx[pb], layers[cycle][1]])
        layers[cycle + 1][0] = int(compose[layers[cycle + 1][0], pidx[qa]])
        layers[cycle + 1][1] = int(compose[layers[cycle + 1][1], pidx[qb]])
    return TwoQubitCircuitStub(*(tuple(layer) for layer in layers))


def per_variant_equivalent(u, v, tol=1e-10):
    flat = u.ravel()
    pivot = int(np.argmax(np.abs(flat)))
    if abs(flat[pivot]) < 1e-12:
        return False
    phase = v.ravel()[pivot] / flat[pivot]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(v - phase * u)) <= tol)


def per_variant_depolarize(rho, strength):
    if strength == 0.0:
        return rho
    return (1.0 - strength) * rho + strength * np.trace(rho).real * np.eye(4) / 4


def per_variant_partial_depolarize(rho, p):
    if p == 0.0:
        return rho
    eye = np.eye(2) / 2.0
    tr_a = np.einsum("ijil->jl", rho.reshape(2, 2, 2, 2))
    rho = (1.0 - p) * rho + p * np.kron(eye, tr_a)
    tr_b = np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))
    return (1.0 - p) * rho + p * np.kron(tr_b, eye)


def per_variant_final_probabilities(circuit, model):
    mats = per_gate_easy_unitaries(circuit)
    err = np.diag(np.exp(-0.5j * model.delta * np.array([1.0, -1.0, -1.0, 1.0])))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rho = mats[0] @ rho @ mats[0].conj().T
    rho = per_variant_partial_depolarize(rho, model.p_dep)
    for u in mats[1:]:
        rho = cl.CNOT @ rho @ cl.CNOT
        if model.delta:
            rho = err @ rho @ err.conj().T
        rho = per_variant_depolarize(rho, model.two_qubit_depol)
        rho = u @ rho @ u.conj().T
        rho = per_variant_partial_depolarize(rho, model.p_dep)
    probs = np.clip(np.diag(rho).real, 0.0, None)
    return probs / probs.sum()


def per_variant_sample_counts(probs, model, shots, rng):
    if model.eps01 or model.eps10:
        flip = np.array(
            [[1.0 - model.eps01, model.eps10], [model.eps01, 1.0 - model.eps10]]
        )
        probs = np.kron(flip, flip) @ probs
    p = np.clip(probs, 0.0, None)
    draws = rng.multinomial(shots, p / p.sum())
    return {key: int(draws[i]) for i, key in enumerate(("00", "01", "10", "11"))}


def per_variant_rc_json(bare_circuits, variants, model, shots, seed, verify=True):
    from qubicforge.qcvv.rc import TVDReport

    rng = np.random.default_rng(seed)
    ensembles = [
        [per_variant_twirl(circ, rng) for _ in range(variants)]
        for circ in bare_circuits
    ]
    if verify:
        for circ, ensemble in zip(bare_circuits, ensembles):
            u = per_gate_circuit_unitary(circ)
            for variant in ensemble:
                if not per_variant_equivalent(u, per_gate_circuit_unitary(variant)):
                    raise AnalysisError(
                        "twirled variant is not equivalent to its bare circuit"
                    )
    payload = json.dumps(
        {
            "bare": [c.to_json() for c in bare_circuits],
            "variants": [[v.to_json() for v in ens] for ens in ensembles],
        }
    ).encode()
    base, extra = divmod(shots, variants)
    split = [base + (1 if i < extra else 0) for i in range(variants)]
    bare_counts = [
        per_variant_sample_counts(
            per_variant_final_probabilities(c, model), model, shots, rng
        )
        for c in bare_circuits
    ]
    rc_counts = [
        merge_counts(
            *(
                per_variant_sample_counts(
                    per_variant_final_probabilities(v, model), model, n, rng
                )
                for v, n in zip(ens, split)
            )
        )
        for ens in ensembles
    ]
    bare_tvd, rc_tvd = [], []
    for i, circ in enumerate(bare_circuits):
        amps = per_gate_circuit_unitary(circ)[:, 0]
        probs = np.abs(amps) ** 2
        ideal = {key: float(probs[k]) for k, key in enumerate(("00", "01", "10", "11"))}
        bare_tvd.append(tvd(distribution(bare_counts[i]), ideal))
        rc_tvd.append(tvd(distribution(rc_counts[i]), ideal))
    blob = TVDReport(
        bare_tvd=np.array(bare_tvd),
        rc_tvd=np.array(rc_tvd),
        variants=variants,
        shots_per_circuit=shots,
        stage_seconds={},
        transfer_bytes=len(payload),
    ).to_json()
    del blob["stage_seconds"]
    return json.dumps(blob)


class TestGateTables:
    @given(
        delta=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        p_dep=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
        two_qubit_depol=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
        lengths=st.lists(st.integers(1, 40), min_size=2, max_size=4, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_tables_match_per_gate_code(
        self, delta, p_dep, two_qubit_depol, lengths, seed
    ):
        model = MockQubitModel(
            p_dep=p_dep, delta=delta, two_qubit_depol=two_qubit_depol
        )
        rng = np.random.default_rng(seed)
        seq = random_rb_sequence(rng, lengths[0])
        assert run_sequence_1q(model, seq) == min(
            max((1.0 + per_gate_bloch_z(seq, model)) / 2.0, 0.0), 1.0
        )
        ops = [{"op": "clifford", "index": i} for i in seq]
        assert excited_probability(ops, model) == min(
            max((1.0 - per_gate_bloch_z(seq, model)) / 2.0, 0.0), 1.0
        )
        pairs = random_rb_sequence_2q(rng, lengths[-1])
        assert run_sequence_2q(model, pairs) == per_gate_run_sequence_2q(model, pairs)
        circuits = [random_circuit(rng, 1 + m % 6) for m in lengths]
        for circ in circuits:
            assert np.array_equal(circuit_unitary(circ), per_gate_circuit_unitary(circ))

        for d, run in ((2, rb_experiment), (4, rb_experiment_2q)):
            got = run(model, lengths, 2, 100, seed=seed).to_json()
            want = per_gate_rb(model, lengths, 2, 100, seed, d).to_json()
            assert json.dumps(got) == json.dumps(want)

        got = _rc_json(circuits, 3, model, 90, seed)
        assert got == per_variant_rc_json(circuits, 3, model, 90, seed)

    def test_bloch_rotation_runs_24_times_per_delta(self, monkeypatch):
        calls = []
        real = cl.bloch_rotation
        monkeypatch.setattr(cl, "bloch_rotation", lambda u: calls.append(1) or real(u))
        clifford_bloch_table.cache_clear()
        rng = np.random.default_rng(12)
        seqs = [random_rb_sequence(rng, 200) for _ in range(5)]
        ops = [{"op": "clifford", "index": i} for i in seqs[0]]
        for delta, built in ((0.0, 24), (0.03, 48), (0.0, 48), (-0.07, 72), (0.03, 72)):
            model = MockQubitModel(p_dep=0.01, delta=delta)
            for seq in seqs:
                run_sequence_1q(model, seq)
            excited_probability(ops, model)
            assert len(calls) == built
        clifford_bloch_table.cache_clear()

    def test_no_kron_per_gate(self, monkeypatch):
        cl.pair_tables()
        calls = []
        real = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: calls.append(1) or real(a, b))
        rng = np.random.default_rng(13)
        model = MockQubitModel(two_qubit_depol=0.01)
        rb_experiment_2q(model, [2, 8, 32], 3, 100, seed=3)
        circuits = [random_circuit(rng, 5) for _ in range(3)]
        rc_harness(circuits, 4, MockQubitModel(delta=0.05), 400, seed=4)
        assert calls == []

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            clifford_bloch_table(0.0)[1][0, 0] = 2.0
        kron, after_cnot = cl.pair_tables()
        assert kron.shape == after_cnot.shape == (24, 24, 4, 4)
        with pytest.raises(ValueError):
            after_cnot[3][4][0, 0] = 2.0
        u = circuit_unitary(TwoQubitCircuitStub((1, 2)))
        u[0, 0] = 2.0
        assert kron[1][2][0, 0] != 2.0


class TestStackedRC:
    """The harness on stacks of variants, against the per-variant code."""

    @given(
        depths=st.lists(st.integers(1, 9), min_size=1, max_size=5),
        variants=st.integers(1, 25),
        base=st.integers(1, 60),
        extra=st.integers(0, 24),
        delta=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        p_dep=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
        two_qubit_depol=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
        eps=st.one_of(
            st.just((0.0, 0.0)), st.tuples(st.floats(0, 0.1), st.floats(0, 0.1))
        ),
        verify=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_harness_matches_per_variant_code(
        self, depths, variants, base, extra, delta, p_dep, two_qubit_depol, eps,
        verify, seed,
    ):
        model = MockQubitModel(
            p_dep=p_dep,
            delta=delta,
            two_qubit_depol=two_qubit_depol,
            eps01=eps[0],
            eps10=eps[1],
        )
        rng = np.random.default_rng(seed)
        circuits = [random_circuit(rng, d) for d in depths]
        shots = base * variants + extra % variants
        got = _rc_json(circuits, variants, model, shots, seed, verify)
        want = per_variant_rc_json(circuits, variants, model, shots, seed, verify)
        assert got == want

    def test_single_circuit_calls_match_per_variant_code(self):
        model = MockQubitModel(
            delta=0.1, p_dep=0.01, two_qubit_depol=0.02, eps01=0.03, eps10=0.05
        )
        rng = np.random.default_rng(14)
        old, new = np.random.default_rng(15), np.random.default_rng(15)
        for depth in (1, 2, 5, 9):
            circ = random_circuit(rng, depth)
            variant = twirl_circuit(circ, new)
            assert variant == per_variant_twirl(circ, old)
            verify_twirl(circ, variant)
            probs = final_probabilities(variant, model)
            want = per_variant_final_probabilities(variant, model)
            assert probs.tobytes() == want.tobytes()
            counts = rc_module.sample_counts(probs, model, 1001, new)
            assert counts == per_variant_sample_counts(probs, model, 1001, old)
        assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("wrong", [0, 9, 19])
    def test_verification_rejects_one_wrong_variant(self, monkeypatch, wrong):
        """One variant twirled with a wrong CNOT frame table fails the harness.

        Conjugation by CNOT is a bijection on Pauli pairs, so a table
        shifted by one Pauli code maps every pair to a wrong one.
        """
        real = rc_module._twirl_layers
        wrong_table = np.roll(cl.CNOT_FRAME_INDEX, 1, axis=0)

        def twirl(bare, codes):
            layers = real(bare, codes)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cl, "CNOT_FRAME_INDEX", wrong_table)
                broken = real(bare, codes[wrong : wrong + 1])[0]
            assert not np.array_equal(broken, layers[wrong])
            layers[wrong] = broken
            return layers

        rng = np.random.default_rng(16)
        circuits = [random_circuit(rng, 1)]
        model = MockQubitModel(delta=0.05)
        rc_harness(circuits, 20, model, 2000, seed=17, verify=True)
        monkeypatch.setattr(rc_module, "_twirl_layers", twirl)
        with pytest.raises(
            AnalysisError, match="twirled variant is not equivalent to its bare circuit"
        ):
            rc_harness(circuits, 20, model, 2000, seed=17, verify=True)
        # unverified, the wrong variant runs
        rc_harness(circuits, 20, model, 2000, seed=17, verify=False)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 101])
    def test_array_draws_equal_scalar_draws(self, n):
        """Pin the numpy behavior that lets a stack draw what a loop drew.

        ``integers(4)`` takes one 32-bit word per value whether drawn
        singly or as an array, and ``multinomial`` over a stack of
        distributions draws them in row order.  If a numpy upgrade
        breaks either, every RC output changes, and this fails first.
        """
        scalar, array = np.random.default_rng(n), np.random.default_rng(n)
        assert [int(scalar.integers(4)) for _ in range(n)] == array.integers(
            4, size=n
        ).tolist()
        assert scalar.bit_generator.state == array.bit_generator.state

        probs = scalar.random((n, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        array.random((n, 4))
        shots = np.arange(n) % 5 + 1000
        sequential = [scalar.multinomial(int(k), p) for k, p in zip(shots, probs)]
        assert np.array_equal(array.multinomial(shots, probs), sequential)
        assert scalar.bit_generator.state == array.bit_generator.state

    def test_golden_output(self):
        """Fixed-seed report bytes, recorded from the per-variant harness."""
        from qubicforge.qcvv.rc import TwoQubitCircuit

        circuits = [
            TwoQubitCircuit(layers)
            for layers in (
                ((5, 16), (2, 5)),
                ((7, 7), (21, 19), (21, 23), (1, 3), (20, 1)),
                ((3, 4), (21, 8), (6, 4)),
                ((11, 14), (19, 14), (23, 2), (11, 13), (16, 0)),
            )
        ]
        model = MockQubitModel(
            delta=0.1, p_dep=0.01, two_qubit_depol=0.02, eps01=0.02, eps10=0.03
        )
        golden = {
            "bare_tvd": [
                0.023180458624127445,
                0.05234297108673992,
                0.10269192422731707,
                0.12961116650049703,
            ],
            "rc_tvd": [
                0.011216350947158352,
                0.0244267198404787,
                0.07776669990029814,
                0.13260219341973928,
            ],
            "variants": 6,
            "shots_per_circuit": 1003,
            "bare_mean": 0.07695663010967037,
            "bare_std": 0.04807117776795251,
            "rc_mean": 0.06150299102691861,
            "rc_std": 0.055446673668835794,
            "transfer_bytes": 1043,
        }
        assert _rc_json(circuits, 6, model, 1003, 11) == json.dumps(golden)


def TwoQubitCircuitStub(*layers):
    from qubicforge.qcvv.rc import TwoQubitCircuit

    return TwoQubitCircuit(tuple(layers))
