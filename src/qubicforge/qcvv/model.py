"""Synthetic qubit response model for desk-scale experiments.

Single-qubit dynamics evolve a Bloch vector: drive pulses rotate it
about the generalized Rabi axis, Clifford gates act through their
SO(3) matrices with configurable depolarization and coherent
overrotation, and relaxation shrinks it between gates.  Measurement
collapses to a bit through the readout bit-flip channel and then draws
an IQ point from the matching Gaussian cloud.  Two-qubit execution for
randomized compiling uses a 4x4 density matrix instead.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from . import cliffords


@dataclass(frozen=True)
class MockQubitModel:
    """Response parameters of one synthetic qubit.

    ``rabi_rate_per_unit_amp`` is the on-resonance Rabi frequency in Hz
    produced by a drive of unit amplitude.  ``eps01`` is the chance a
    ground-state qubit reads out as 1, ``eps10`` the reverse.
    ``p_dep`` and ``delta`` are injected per Clifford gate;
    ``two_qubit_depol`` and ``delta`` also parameterize the abstract
    two-qubit channel (depolarizing strength and a coherent ZZ phase
    on the CNOT).
    """

    drive_freq: float = 5.0e9
    rabi_rate_per_unit_amp: float = 25.0e6
    t1: float = math.inf
    t2: float = math.inf
    mu0: complex = 1.0 + 0.0j
    mu1: complex = -1.0 + 0.0j
    sigma_r: float = 0.1
    eps01: float = 0.0
    eps10: float = 0.0
    p_dep: float = 0.0
    delta: float = 0.0
    two_qubit_depol: float = 0.0

    def __post_init__(self):
        # T1 and T2 may be infinite (no decay); every other value is finite
        for name in ("drive_freq", "rabi_rate_per_unit_amp", "mu0", "mu1", "sigma_r", "delta"):
            v = getattr(self, name)
            if not cmath.isfinite(v):
                raise AnalysisError(f"{name} = {v} is not finite")
        for name in ("eps01", "eps10", "p_dep", "two_qubit_depol"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise AnalysisError(f"{name} = {v} is not a probability")
        if not self.t1 > 0 or not self.t2 > 0:
            raise AnalysisError("T1 and T2 must be positive")
        if self.t2 > 2.0 * self.t1:
            raise AnalysisError(f"T2 = {self.t2} exceeds 2*T1 = {2 * self.t1}")
        if self.sigma_r < 0:
            raise AnalysisError("sigma_r must be >= 0")
        if not self.drive_freq > 0 or not self.rabi_rate_per_unit_amp > 0:
            raise AnalysisError("drive_freq and rabi_rate_per_unit_amp must be positive")

    @property
    def decoherent(self) -> bool:
        return math.isfinite(self.t1) or math.isfinite(self.t2)


# ---------------------------------------------------------------------------
# Bloch-vector primitives


def _rotate(r: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of a Bloch vector."""
    k = np.asarray(axis, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    return r * c + np.cross(k, r) * s + k * np.dot(k, r) * (1.0 - c)


def drive_bloch(r, amp, duration, detuning, rabi_rate, phase=0.0):
    """Apply one drive pulse to a Bloch vector.

    The rotation axis tilts out of the equator with detuning; its rate
    is the generalized Rabi frequency sqrt((2 pi a f_R)^2 + (2 pi D)^2).
    """
    omega_r = 2.0 * math.pi * amp * rabi_rate
    omega_z = -2.0 * math.pi * detuning
    omega = math.hypot(omega_r, omega_z)
    if omega == 0.0 or duration == 0.0:
        return np.asarray(r, dtype=float)
    axis = np.array(
        [omega_r * math.cos(phase), omega_r * math.sin(phase), omega_z]
    ) / omega
    return _rotate(np.asarray(r, dtype=float), axis, omega * duration)


def decay_bloch(r, duration, t1, t2):
    """Amplitude damping toward +z plus transverse dephasing."""
    if duration <= 0:
        return np.asarray(r, dtype=float)
    gx = math.exp(-duration / t2) if math.isfinite(t2) else 1.0
    gz = math.exp(-duration / t1) if math.isfinite(t1) else 1.0
    x, y, z = r
    return np.array([x * gx, y * gx, 1.0 - (1.0 - z) * gz])


@functools.cache
def clifford_bloch_table(delta: float) -> tuple:
    """SO(3) matrices of the 24 Cliffords, each overrotated by ``delta``.

    Built once per distinct ``delta`` on first use.  The entries are
    read-only, since every caller shares them.
    """
    mats = cliffords.CLIFFORD_MATS
    if delta:
        mats = [cliffords.overrotated(u, delta) for u in mats]
    return tuple(cliffords._frozen(cliffords.bloch_rotation(u)) for u in mats)


def apply_clifford_bloch(r, index, model: MockQubitModel):
    """One noisy Clifford: overrotated rotation then depolarization."""
    r = clifford_bloch_table(model.delta)[index] @ np.asarray(r, dtype=float)
    if model.p_dep:
        r = r * (1.0 - model.p_dep)
    return r


def rabi_p1(amp, duration, detuning, rabi_rate):
    """Closed-form excited-state probability of one pulse from ground."""
    fr = amp * rabi_rate
    omega = 2.0 * math.pi * math.hypot(fr, detuning)
    if omega == 0.0:
        return 0.0
    contrast = 1.0 / (1.0 + (detuning / fr) ** 2) if fr else 0.0
    return contrast * math.sin(omega * duration / 2.0) ** 2


# ---------------------------------------------------------------------------
# Gate-sequence execution and measurement


def _terminal_bloch(ops, model: MockQubitModel) -> np.ndarray:
    r = np.array([0.0, 0.0, 1.0])
    for op in ops:
        kind = op.get("op")
        if kind == "drive":
            amp = float(op["amp"])
            duration = float(op["duration"])
            phase = float(op.get("phase", 0.0))
            if "detuning" in op:
                detuning = float(op["detuning"])
            else:
                detuning = float(op.get("fcarrier", model.drive_freq)) - model.drive_freq
            r = drive_bloch(
                r, amp, duration, detuning, model.rabi_rate_per_unit_amp, phase
            )
            if model.decoherent:
                r = decay_bloch(r, duration, model.t1, model.t2)
        elif kind == "delay":
            if model.decoherent:
                r = decay_bloch(r, float(op["duration"]), model.t1, model.t2)
        elif kind == "clifford":
            r = apply_clifford_bloch(r, int(op["index"]), model)
        else:
            raise AnalysisError(f"unsupported op {kind!r} in mock sequence")
    return r


def excited_probability(ops, model: MockQubitModel) -> float:
    """Noise-free P(1) after a gate sequence (before readout errors)."""
    z = _terminal_bloch(ops, model)[2]
    return min(max((1.0 - z) / 2.0, 0.0), 1.0)


def sample_bits(p1: float, model: MockQubitModel, shots: int, rng) -> np.ndarray:
    """Draw measurement bits through the readout bit-flip channel."""
    p_read1 = p1 * (1.0 - model.eps10) + (1.0 - p1) * model.eps01
    return (rng.random(shots) < p_read1).astype(np.int64)


def sample_iq(bits: np.ndarray, model: MockQubitModel, rng) -> np.ndarray:
    """IQ points from the Gaussian cloud of each measured bit."""
    mu = np.where(bits == 0, complex(model.mu0), complex(model.mu1))
    noise = rng.normal(size=bits.shape) + 1j * rng.normal(size=bits.shape)
    return mu + model.sigma_r * noise


def mock_response(ops, model: MockQubitModel, shots: int, seed=None) -> np.ndarray:
    """Execute a single-qubit gate sequence; returns IQ shots."""
    rng = np.random.default_rng(seed)
    p1 = excited_probability(ops, model)
    bits = sample_bits(p1, model, shots, rng)
    return sample_iq(bits, model, rng)


def rabi_amplitude_sweep(model, amps, duration, shots, seed=None):
    """Estimated P(1) versus drive amplitude at fixed duration."""
    rng = np.random.default_rng(seed)
    out = np.empty(len(amps))
    for i, amp in enumerate(amps):
        ops = [{"op": "drive", "amp": float(amp), "duration": duration}]
        bits = sample_bits(excited_probability(ops, model), model, shots, rng)
        out[i] = bits.mean()
    return out


def chevron(model, detunings, durations, amp, shots, seed=None):
    """Estimated P(1) over a detuning x duration grid."""
    rng = np.random.default_rng(seed)
    out = np.empty((len(detunings), len(durations)))
    for i, det in enumerate(detunings):
        for j, tau in enumerate(durations):
            ops = [
                {
                    "op": "drive",
                    "amp": amp,
                    "duration": float(tau),
                    "detuning": float(det),
                }
            ]
            bits = sample_bits(excited_probability(ops, model), model, shots, rng)
            out[i, j] = bits.mean()
    return out


# ---------------------------------------------------------------------------
# Two-qubit density-matrix primitives


def depolarize(rho: np.ndarray, strength: float) -> np.ndarray:
    """Depolarizing channel on a density matrix or a (..., d, d) stack."""
    if strength == 0.0:
        return rho
    dim = rho.shape[-1]
    trace = np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return (1.0 - strength) * rho + strength * trace * np.eye(dim) / dim


def zz_error(delta: float) -> np.ndarray:
    """exp(-i delta/2 Z x Z), the coherent part of the two-qubit gate."""
    phases = np.exp(-0.5j * delta * np.array([1.0, -1.0, -1.0, 1.0]))
    return np.diag(phases)


def readout_channel_2q(probs: np.ndarray, model: MockQubitModel) -> np.ndarray:
    """Apply independent per-qubit bit-flip channels to P(00..11).

    ``probs`` is one distribution or a (..., 4) stack of them.
    """
    if model.eps01 == 0.0 and model.eps10 == 0.0:
        return probs
    flip = np.array(
        [[1.0 - model.eps01, model.eps10], [model.eps01, 1.0 - model.eps10]]
    )
    m = np.kron(flip, flip)
    return (m @ np.asarray(probs)[..., None])[..., 0]
