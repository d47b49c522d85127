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

Each harness stage works on stacks of variants, not one variant at a
time: a circuit's V variants are one (V, depth+1, 2) array of easy-layer
indices, twirled from one draw of (V, depth, 2) Pauli codes, and
circuits of equal depth share every stack after that.  Verification
compares the whole (V, 4, 4) stack of variant unitaries with the bare
one, the density matrices evolve as one stack that gathers each easy
layer's unitary from its indices on the step that applies it, and each
arm draws its counts with one multinomial call.  The single-circuit
functions (``twirl_circuit``, ``circuit_unitary``, ``verify_twirl``,
``final_probabilities``, ``sample_counts``) are stacks of one through
the same code, with the same bits and random stream.

Each harness run reports wall-clock seconds for its pipeline stages:
Compile (twirl generation + equivalence checks), Transpile (external
in a real deployment; recorded as an explicit no-op), Transfer
(payload serialization), SeqGen (also an explicit no-op: no layer
matrices are built ahead of Run), Run (density-matrix evolution with
the per-layer gathers, proportional to variants x depth), Acquire
(sampling), and Process (each arm's TVD to the ideal distribution, as
array arithmetic over all circuits).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from . import cliffords
from .model import MockQubitModel, depolarize, readout_channel_2q, zz_error

BITSTRINGS = ("00", "01", "10", "11")
STAGES = ("Compile", "Transpile", "Transfer", "SeqGen", "Run", "Acquire", "Process")


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


def _layers(circuit: TwoQubitCircuit) -> np.ndarray:
    """(depth+1, 2) Clifford indices of a circuit's easy layers."""
    return np.array(circuit.easy_layers, dtype=np.int64).reshape(-1, 2)


def _twirl_layers(bare: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Easy layers of a stack of twirled variants of one bare circuit.

    ``bare`` is the (depth+1, 2) layer indices and ``codes`` the
    (V, depth, 2) Pauli codes 0..3 (I, X, Y, Z) of each variant's frame
    before each CNOT.  The frame Pauli is applied after the preceding
    easy layer and its CNOT conjugate absorbed before the following
    one; the result is (V, depth+1, 2).
    """
    compose = cliffords.COMPOSE
    frame = cliffords.PAULI_CODE_INDEX[codes]
    conj = cliffords.CNOT_FRAME_INDEX[codes[..., 0], codes[..., 1]]
    layers = np.repeat(bare[None], len(codes), axis=0)
    layers[:, 1:] = compose[layers[:, 1:], conj]
    layers[:, :-1] = compose[frame, layers[:, :-1]]
    return layers


def twirl_circuit(circuit: TwoQubitCircuit, rng) -> TwoQubitCircuit:
    """One Pauli-twirled variant with the frames folded into easy layers."""
    codes = rng.integers(4, size=(1, circuit.depth, 2))
    layers = _twirl_layers(_layers(circuit), codes)[0]
    return TwoQubitCircuit(tuple(map(tuple, layers.tolist())))


def _unitaries(layers: np.ndarray) -> np.ndarray:
    """(..., 4, 4) noiseless unitaries of (..., depth+1, 2) easy layers."""
    kron, after_cnot = cliffords.pair_tables()
    u = kron[layers[..., 0, 0], layers[..., 0, 1]]
    for k in range(1, layers.shape[-2]):
        u = after_cnot[layers[..., k, 0], layers[..., k, 1]] @ u
    return u


def circuit_unitary(circuit: TwoQubitCircuit) -> np.ndarray:
    """Noiseless state-vector oracle for the full circuit."""
    return _unitaries(_layers(circuit)[None])[0]


def _equivalent(u: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Where v equals u up to a global phase.

    ``u`` is (..., 4, 4) and ``v`` is (..., V, 4, 4): one pivot per u,
    the entry of largest magnitude, fixes one phase per v.  Returns
    (..., V) booleans.
    """
    flat_u = u.reshape(u.shape[:-2] + (1, 16))
    flat_v = v.reshape(v.shape[:-2] + (16,))
    pivot = np.abs(flat_u).argmax(axis=-1)[..., None]
    ref = np.take_along_axis(flat_u, pivot, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.take_along_axis(flat_v, pivot, -1) / ref
        deviation = np.abs(flat_v - phase * flat_u).max(axis=-1)
    return (
        (np.abs(ref[..., 0]) >= 1e-12)
        & (np.abs(np.abs(phase[..., 0]) - 1.0) <= tol)
        & (deviation <= tol)
    )


def verify_twirl(bare: TwoQubitCircuit, variant: TwoQubitCircuit, tol: float = 1e-10):
    _verify(circuit_unitary(bare), _unitaries(_layers(variant)[None]), tol)


def _verify(bare_unitaries: np.ndarray, variant_unitaries: np.ndarray, tol=1e-10):
    """Raise unless each (..., V, 4, 4) variant matches its (..., 4, 4) bare one."""
    if not _equivalent(bare_unitaries, variant_unitaries, tol).all():
        raise AnalysisError("twirled variant is not equivalent to its bare circuit")


def _partial_depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Independent single-qubit depolarizing on both qubits of (..., 4, 4) states.

    Each qubit is driven toward I/2 with probability p while the other
    keeps its marginal: rho -> (1-p) rho + p (I/2 x tr_a rho), then the
    same with the roles swapped.
    """
    if p == 0.0:
        return rho
    eye = np.eye(2) / 2.0
    shape = rho.shape
    split = shape[:-2] + (2, 2, 2, 2)
    tr_a = np.einsum("...ijil->...jl", rho.reshape(split))
    kron_a = np.einsum("ik,...jl->...ijkl", eye, tr_a).reshape(shape)
    rho = (1.0 - p) * rho + p * kron_a
    tr_b = np.einsum("...ijkj->...ik", rho.reshape(split))
    kron_b = np.einsum("...ik,jl->...ijkl", tr_b, eye).reshape(shape)
    return (1.0 - p) * rho + p * kron_b


def _evolve(layers: np.ndarray, model: MockQubitModel) -> np.ndarray:
    """(..., 4) noisy outcome probabilities over 00..11.

    ``layers`` holds (..., depth+1, 2) easy-layer indices; each layer's
    unitary is gathered from ``pair_tables()`` on the step that applies
    it.  Every hard cycle between layers is a CNOT followed by the
    model's ZZ error and depolarization.
    """
    kron = cliffords.pair_tables()[0]
    err = zz_error(model.delta) if model.delta else None
    rho = np.zeros(layers.shape[:-2] + (4, 4), dtype=complex)
    rho[..., 0, 0] = 1.0
    for k in range(layers.shape[-2]):
        if k:
            rho = cliffords.CNOT @ rho @ cliffords.CNOT
            if err is not None:
                rho = err @ rho @ err.conj().T
            rho = depolarize(rho, model.two_qubit_depol)
        u = kron[layers[..., k, 0], layers[..., k, 1]]
        rho = u @ rho @ u.conj().swapaxes(-1, -2)
        if model.p_dep:
            rho = _partial_depolarize(rho, model.p_dep)
    probs = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def final_probabilities(circuit: TwoQubitCircuit, model: MockQubitModel) -> np.ndarray:
    """Diagonal of the noisy output state over 00..11."""
    return _evolve(_layers(circuit)[None], model)[0]


def _ideal_probs(layers: np.ndarray) -> np.ndarray:
    return np.abs(_unitaries(layers)[..., :, 0]) ** 2


def ideal_distribution(circuit: TwoQubitCircuit) -> dict:
    probs = _ideal_probs(_layers(circuit)[None])[0]
    return dict(zip(BITSTRINGS, probs.tolist()))


def _draw_counts(probs: np.ndarray, model: MockQubitModel, shots, rng) -> np.ndarray:
    """(..., 4) counts through the readout channel, one multinomial call.

    ``shots`` broadcasts against ``probs.shape[:-1]``.
    """
    p = np.clip(readout_channel_2q(probs, model), 0.0, None)
    return rng.multinomial(shots, p / p.sum(axis=-1, keepdims=True))


def sample_counts(probs: np.ndarray, model: MockQubitModel, shots: int, rng) -> dict:
    return dict(zip(BITSTRINGS, _draw_counts(probs, model, shots, rng).tolist()))


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
    if not bare_circuits:
        raise AnalysisError("need at least one circuit")
    if variants < 1:
        raise AnalysisError("need at least one variant per circuit")
    if shots < 1:
        raise AnalysisError("shots must be at least 1")
    rng = np.random.default_rng(seed)
    timings = {name: 0.0 for name in STAGES}

    t0 = time.perf_counter()
    twirled = [
        _twirl_layers(_layers(c), rng.integers(4, size=(variants, c.depth, 2)))
        for c in bare_circuits
    ]
    # circuits of one depth share every stack from here on
    groups = {}
    for i, c in enumerate(bare_circuits):
        groups.setdefault(c.depth, []).append(i)
    groups = list(groups.values())
    bare_stacks = [np.stack([_layers(bare_circuits[i]) for i in g]) for g in groups]
    variant_stacks = [np.stack([twirled[i] for i in g]) for g in groups]
    if verify:
        for bare, ensemble in zip(bare_stacks, variant_stacks):
            _verify(_unitaries(bare), _unitaries(ensemble))
    timings["Compile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # transpilation happens outside this stack; the stage exists so
    # timing reports keep the full pipeline shape
    timings["Transpile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    payload = json.dumps(
        {
            "bare": [c.to_json() for c in bare_circuits],
            "variants": [layers.tolist() for layers in twirled],
        }
    ).encode()
    transfer_bytes = len(payload)
    timings["Transfer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # Run gathers each layer's unitary on the step that applies it, so
    # no stack of layer matrices is built ahead of it
    timings["SeqGen"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bare_probs = np.empty((len(bare_circuits), 4))
    variant_probs = np.empty((len(bare_circuits), variants, 4))
    for g, bare, ensemble in zip(groups, bare_stacks, variant_stacks):
        bare_probs[g] = _evolve(bare, model)
        variant_probs[g] = _evolve(ensemble, model)
    timings["Run"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    split = _variant_shots(shots, variants)
    bare_counts = _draw_counts(bare_probs, model, shots, rng)
    rc_counts = _draw_counts(variant_probs, model, split, rng).sum(axis=1)
    timings["Acquire"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ideal = np.empty((len(bare_circuits), 4))
    for g, bare in zip(groups, bare_stacks):
        ideal[g] = _ideal_probs(bare)
    bare_tvd, rc_tvd = (
        0.5 * np.abs(counts / counts.sum(axis=-1, keepdims=True) - ideal).sum(axis=-1)
        for counts in (bare_counts, rc_counts)
    )
    timings["Process"] = time.perf_counter() - t0

    return TVDReport(
        bare_tvd=bare_tvd,
        rc_tvd=rc_tvd,
        variants=variants,
        shots_per_circuit=shots,
        stage_seconds=timings,
        transfer_bytes=transfer_bytes,
    )
