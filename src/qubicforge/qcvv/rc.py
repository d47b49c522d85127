"""Randomized compiling: Pauli twirling, TVD comparison, stage timing.

Circuits are two-qubit: alternating easy layers (a pair of
single-qubit Cliffords) and hard cycles (a CNOT).  A twirled variant
inserts a random Pauli frame around every CNOT and folds it into the
neighboring easy layers, leaving the logical circuit unchanged; this
is checked against a dense state-vector oracle.  Noise acts on the
hard cycle only as a coherent ZZ phase plus a depolarizing channel
(easy layers optionally carry per-qubit depolarization), so twirling
converts the coherent part into stochastic noise and the pooled
variant distribution lands closer to the ideal one.

Each harness run reports wall-clock seconds for its pipeline stages:
Compile (twirl generation + equivalence checks), Transpile (external
in a real deployment; recorded as an explicit no-op), Transfer
(payload serialization), SeqGen (layer matrices), Run (density-matrix
evolution, proportional to variants x depth), Acquire (sampling), and
Process (distribution distances).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from . import cliffords
from .model import MockQubitModel, depolarize, readout_channel_2q, zz_error
from .tvd import distribution, merge_counts, tvd

BITSTRINGS = ("00", "01", "10", "11")
STAGES = ("Compile", "Transpile", "Transfer", "SeqGen", "Run", "Acquire", "Process")

_PAULI_BY_CODE = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class TwoQubitCircuit:
    """depth hard cycles (CNOTs) between depth+1 easy layers."""

    easy_layers: tuple  # ((idx_a, idx_b), ...) single-qubit Clifford indices

    @property
    def depth(self) -> int:
        return len(self.easy_layers) - 1

    def to_json(self):
        return [list(layer) for layer in self.easy_layers]


def random_circuit(rng, depth: int) -> TwoQubitCircuit:
    if depth < 1:
        raise AnalysisError("circuit depth must be >= 1")
    layers = tuple(
        (int(a), int(b))
        for a, b in rng.integers(0, cliffords.N_CLIFFORDS, size=(depth + 1, 2))
    )
    return TwoQubitCircuit(layers)


def twirl_circuit(circuit: TwoQubitCircuit, rng) -> TwoQubitCircuit:
    """One Pauli-twirled variant with the frames folded into easy layers."""
    layers = [list(layer) for layer in circuit.easy_layers]
    compose = cliffords.COMPOSE
    pidx = cliffords.PAULI_INDEX
    for cycle in range(circuit.depth):
        pa = _PAULI_BY_CODE[int(rng.integers(4))]
        pb = _PAULI_BY_CODE[int(rng.integers(4))]
        qa, qb = cliffords.CNOT_FRAME[(pa, pb)]
        # frame Pauli applied after the preceding easy layer ...
        layers[cycle][0] = int(compose[pidx[pa], layers[cycle][0]])
        layers[cycle][1] = int(compose[pidx[pb], layers[cycle][1]])
        # ... and its CNOT conjugate absorbed before the following one
        layers[cycle + 1][0] = int(compose[layers[cycle + 1][0], pidx[qa]])
        layers[cycle + 1][1] = int(compose[layers[cycle + 1][1], pidx[qb]])
    return TwoQubitCircuit(tuple(tuple(layer) for layer in layers))


def circuit_unitary(circuit: TwoQubitCircuit) -> np.ndarray:
    """Noiseless state-vector oracle for the full circuit."""
    kron, after_cnot = cliffords.pair_tables()
    ia, ib = circuit.easy_layers[0]
    u = kron[ia][ib].copy()
    for ia, ib in circuit.easy_layers[1:]:
        u = after_cnot[ia][ib] @ u
    return u


def unitarily_equivalent(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True when v equals u up to a global phase."""
    flat = u.ravel()
    pivot = int(np.argmax(np.abs(flat)))
    if abs(flat[pivot]) < 1e-12:
        return False
    phase = v.ravel()[pivot] / flat[pivot]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(v - phase * u)) <= tol)


def verify_twirl(bare: TwoQubitCircuit, variant: TwoQubitCircuit, tol: float = 1e-10):
    _verify_against(circuit_unitary(bare), variant, tol)


def _verify_against(bare_unitary: np.ndarray, variant: TwoQubitCircuit, tol=1e-10):
    if not unitarily_equivalent(bare_unitary, circuit_unitary(variant), tol):
        raise AnalysisError("twirled variant is not equivalent to its bare circuit")


def _partial_depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Independent single-qubit depolarizing on both qubits.

    Each qubit is driven toward I/2 with probability p while the other
    keeps its marginal: rho -> (1-p) rho + p (I/2 x tr_a rho), then the
    same with the roles swapped.
    """
    if p == 0.0:
        return rho
    eye = np.eye(2) / 2.0
    r = rho.reshape(2, 2, 2, 2)
    tr_a = np.einsum("ijil->jl", r)
    rho = (1.0 - p) * rho + p * np.kron(eye, tr_a)
    r = rho.reshape(2, 2, 2, 2)
    tr_b = np.einsum("ijkj->ik", r)
    return (1.0 - p) * rho + p * np.kron(tr_b, eye)


def final_probabilities(
    circuit: TwoQubitCircuit, model: MockQubitModel, seqgen=None
) -> np.ndarray:
    """Diagonal of the noisy output state over 00..11.

    ``seqgen`` optionally holds the precomputed easy-layer unitaries.
    """
    mats = seqgen if seqgen is not None else _easy_unitaries(circuit)
    err = zz_error(model.delta) if model.delta else None
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rho = mats[0] @ rho @ mats[0].conj().T
    if model.p_dep:
        rho = _partial_depolarize(rho, model.p_dep)
    for u in mats[1:]:
        rho = cliffords.CNOT @ rho @ cliffords.CNOT
        if err is not None:
            rho = err @ rho @ err.conj().T
        rho = depolarize(rho, model.two_qubit_depol)
        rho = u @ rho @ u.conj().T
        if model.p_dep:
            rho = _partial_depolarize(rho, model.p_dep)
    probs = np.clip(np.diag(rho).real, 0.0, None)
    return probs / probs.sum()


def _easy_unitaries(circuit: TwoQubitCircuit) -> list:
    kron = cliffords.pair_tables()[0]
    return [kron[a][b] for a, b in circuit.easy_layers]


def ideal_distribution(circuit: TwoQubitCircuit) -> dict:
    amps = circuit_unitary(circuit)[:, 0]
    probs = np.abs(amps) ** 2
    return {BITSTRINGS[i]: float(probs[i]) for i in range(4)}


def sample_counts(probs: np.ndarray, model: MockQubitModel, shots: int, rng) -> dict:
    p = readout_channel_2q(probs, model)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    draws = rng.multinomial(shots, p)
    return {BITSTRINGS[i]: int(draws[i]) for i in range(4)}


@dataclass
class TVDReport:
    bare_tvd: np.ndarray  # per bare circuit
    rc_tvd: np.ndarray  # per bare circuit, pooled over its variants
    variants: int
    shots_per_circuit: int
    stage_seconds: dict
    transfer_bytes: int

    @property
    def bare_mean(self) -> float:
        return float(self.bare_tvd.mean())

    @property
    def bare_std(self) -> float:
        return float(self.bare_tvd.std(ddof=1)) if len(self.bare_tvd) > 1 else 0.0

    @property
    def rc_mean(self) -> float:
        return float(self.rc_tvd.mean())

    @property
    def rc_std(self) -> float:
        return float(self.rc_tvd.std(ddof=1)) if len(self.rc_tvd) > 1 else 0.0

    def to_json(self) -> dict:
        return {
            "bare_tvd": self.bare_tvd.tolist(),
            "rc_tvd": self.rc_tvd.tolist(),
            "variants": self.variants,
            "shots_per_circuit": self.shots_per_circuit,
            "bare_mean": self.bare_mean,
            "bare_std": self.bare_std,
            "rc_mean": self.rc_mean,
            "rc_std": self.rc_std,
            "stage_seconds": self.stage_seconds,
            "transfer_bytes": self.transfer_bytes,
        }


def paired_improvement_pvalue(report: TVDReport) -> float:
    """One-sided Wilcoxon signed-rank p for RC TVD < bare TVD."""
    from scipy import stats

    result = stats.wilcoxon(report.rc_tvd, report.bare_tvd, alternative="less")
    return float(result.pvalue)


def _variant_shots(total: int, variants: int) -> list:
    """Split a shot budget evenly, remainder to the earliest variants."""
    base, extra = divmod(total, variants)
    if base == 0:
        raise AnalysisError(f"{total} shots cannot cover {variants} variants")
    return [base + (1 if i < extra else 0) for i in range(variants)]


def rc_harness(
    bare_circuits,
    variants: int,
    model: MockQubitModel,
    shots: int,
    seed=None,
    verify: bool = True,
) -> TVDReport:
    """Run bare circuits against their twirled ensembles.

    Every circuit gets ``shots`` measurements in both arms: the bare
    circuit spends them in one block, the RC arm splits them across
    ``variants`` twirled equivalents and pools the counts, so the
    comparison carries equal statistical weight.
    """
    bare_circuits = list(bare_circuits)
    if variants < 1:
        raise AnalysisError("need at least one variant per circuit")
    rng = np.random.default_rng(seed)
    timings = {name: 0.0 for name in STAGES}

    t0 = time.perf_counter()
    ensembles = [
        [twirl_circuit(circ, rng) for _ in range(variants)] for circ in bare_circuits
    ]
    if verify:
        for circ, ensemble in zip(bare_circuits, ensembles):
            u = circuit_unitary(circ)
            for variant in ensemble:
                _verify_against(u, variant)
    timings["Compile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # transpilation happens outside this stack; the stage exists so
    # timing reports keep the full pipeline shape
    timings["Transpile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    payload = json.dumps(
        {
            "bare": [c.to_json() for c in bare_circuits],
            "variants": [[v.to_json() for v in ens] for ens in ensembles],
        }
    ).encode()
    transfer_bytes = len(payload)
    timings["Transfer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bare_seqs = [_easy_unitaries(c) for c in bare_circuits]
    variant_seqs = [[_easy_unitaries(v) for v in ens] for ens in ensembles]
    timings["SeqGen"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bare_probs = [
        final_probabilities(c, model, seqgen=sg)
        for c, sg in zip(bare_circuits, bare_seqs)
    ]
    variant_probs = [
        [
            final_probabilities(v, model, seqgen=sg)
            for v, sg in zip(ens, seqs)
        ]
        for ens, seqs in zip(ensembles, variant_seqs)
    ]
    timings["Run"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    split = _variant_shots(shots, variants)
    bare_counts = [sample_counts(p, model, shots, rng) for p in bare_probs]
    rc_counts = [
        merge_counts(
            *(
                sample_counts(p, model, n, rng)
                for p, n in zip(probs, split)
            )
        )
        for probs in variant_probs
    ]
    timings["Acquire"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bare_tvd = np.empty(len(bare_circuits))
    rc_tvd = np.empty(len(bare_circuits))
    for i, circ in enumerate(bare_circuits):
        ideal = ideal_distribution(circ)
        bare_tvd[i] = tvd(distribution(bare_counts[i]), ideal)
        rc_tvd[i] = tvd(distribution(rc_counts[i]), ideal)
    timings["Process"] = time.perf_counter() - t0

    return TVDReport(
        bare_tvd=bare_tvd,
        rc_tvd=rc_tvd,
        variants=variants,
        shots_per_circuit=shots,
        stage_seconds=timings,
        transfer_bytes=transfer_bytes,
    )
