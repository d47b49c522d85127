"""Randomized benchmarking: sequences, execution, and decay fitting.

Survival is recorded as ground-state polarization (d*P0 - 1)/(d - 1),
which decays to zero under depolarizing noise and therefore fits the
bare exponential A * p**m without a baseline term.  The report carries
the decay parameter together with every fidelity convention in use,
each annotated with its formula, rather than committing to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from . import cliffords
from .model import MockQubitModel, apply_clifford_bloch, depolarize

FORMULAS = {
    "survival": "survival(m) = (d*P0(m) - 1)/(d - 1)",
    "fit": "survival(m) ~ A * p**m (nonlinear least squares)",
    "r": "r = (1 - p)*(d - 1)/d",
    "avg_fidelity": "F_avg = 1 - r",
    "process_fidelity": "F_proc = ((d + 1)*F_avg - 1)/d",
}


@dataclass
class RBResult:
    lengths: np.ndarray
    survival: np.ndarray
    survival_err: np.ndarray
    amplitude: float
    decay: float
    covariance: np.ndarray  # 2x2 for (A, p)
    residuals: np.ndarray
    dimension: int
    converged: bool
    formulas: dict = field(default_factory=lambda: dict(FORMULAS))

    @property
    def r(self) -> float:
        d = self.dimension
        return (1.0 - self.decay) * (d - 1) / d

    @property
    def avg_fidelity(self) -> float:
        return 1.0 - self.r

    @property
    def process_fidelity(self) -> float:
        d = self.dimension
        return ((d + 1) * self.avg_fidelity - 1.0) / d

    @property
    def decay_err(self) -> float:
        return float(np.sqrt(self.covariance[1, 1]))

    def to_json(self) -> dict:
        return {
            "lengths": self.lengths.tolist(),
            "survival": self.survival.tolist(),
            "survival_err": self.survival_err.tolist(),
            "amplitude": self.amplitude,
            "decay": self.decay,
            "decay_err": self.decay_err,
            "covariance": self.covariance.tolist(),
            "residuals": self.residuals.tolist(),
            "dimension": self.dimension,
            "converged": self.converged,
            "r": self.r,
            "avg_fidelity": self.avg_fidelity,
            "process_fidelity": self.process_fidelity,
            "formulas": self.formulas,
        }


def random_rb_sequence(rng, m: int) -> list:
    """m uniform Cliffords plus the gate inverting their product."""
    indices = [int(x) for x in rng.integers(0, cliffords.N_CLIFFORDS, size=m)]
    indices.append(cliffords.sequence_inverse(indices))
    return indices


def run_sequence_1q(model: MockQubitModel, indices) -> float:
    """Exact P(0) after a noisy Clifford sequence from the ground state."""
    r = np.array([0.0, 0.0, 1.0])
    for idx in indices:
        r = apply_clifford_bloch(r, idx, model)
    return min(max((1.0 + r[2]) / 2.0, 0.0), 1.0)


def fit_rb_decay(lengths, survival, survival_err=None):
    """Least-squares fit of A * p**m.

    Initialization comes from a log-linear regression on the positive
    survival points (intercept -> A, slope -> p).  Returns
    (amplitude, decay, covariance, residuals, converged); convergence
    failure is reported through the flag, not raised.
    """
    from scipy.optimize import curve_fit

    m = np.asarray(lengths, dtype=float)
    y = np.asarray(survival, dtype=float)
    if m.shape != y.shape or m.size < 2:
        raise AnalysisError("need at least two (length, survival) points")

    mask = y > 1e-3
    if np.unique(m[mask]).size >= 2:  # a slope needs two distinct lengths
        slope, intercept = np.polyfit(m[mask], np.log(y[mask]), 1)
        p0 = float(np.clip(np.exp(slope), 1e-6, 1.0 - 1e-9))
        a0 = float(np.clip(np.exp(intercept), 1e-6, 1.9))
    else:
        p0, a0 = 0.99, max(float(y[0]), 0.1)

    sigma = None
    if survival_err is not None:
        sigma = np.clip(np.asarray(survival_err, dtype=float), 1e-9, None)

    def decay_fn(mm, a, p):
        return a * p**mm

    try:
        popt, pcov = curve_fit(
            decay_fn,
            m,
            y,
            p0=[a0, p0],
            sigma=sigma,
            absolute_sigma=sigma is not None,
            bounds=([0.0, 0.0], [2.0, 1.0]),
            maxfev=20000,
        )
        converged = bool(np.all(np.isfinite(pcov)))
    except (RuntimeError, ValueError):
        popt = np.array([a0, p0])
        pcov = np.full((2, 2), np.inf)
        converged = False
    residuals = y - decay_fn(m, *popt)
    return float(popt[0]), float(popt[1]), np.asarray(pcov), residuals, converged


def _finish(lengths, means, errs, dimension) -> RBResult:
    amplitude, decay, cov, residuals, converged = fit_rb_decay(lengths, means, errs)
    return RBResult(
        lengths=np.asarray(lengths, dtype=float),
        survival=np.asarray(means),
        survival_err=np.asarray(errs),
        amplitude=amplitude,
        decay=decay,
        covariance=cov,
        residuals=residuals,
        dimension=dimension,
        converged=converged,
    )


def _rb(d, draw, executor, lengths, sequences_per_length, shots, seed) -> RBResult:
    """The RB loop shared by every dimension.

    ``draw(rng, m)`` returns one sequence of length m plus its inverse;
    ``executor(sequence, shots, rng)`` returns the observed ground-state
    probability.  Both take the experiment's one generator, in that
    order per sequence.
    """
    if shots < 1 or sequences_per_length < 1:
        raise AnalysisError("shots and sequences per length must be at least 1")
    if min(lengths, default=0) < 0:
        raise AnalysisError("sequence lengths must be >= 0")
    rng = np.random.default_rng(seed)
    means, errs = [], []
    for m in lengths:
        vals = []
        for _ in range(sequences_per_length):
            p_hat = float(executor(draw(rng, int(m)), shots, rng))
            vals.append((d * p_hat - 1.0) / (d - 1.0))
        vals = np.asarray(vals)
        means.append(vals.mean())
        # binomial noise floor keeps weights sane when the spread is 0
        n_total = shots * sequences_per_length
        p_bar = (means[-1] * (d - 1) + 1.0) / d
        floor = d / (d - 1) * np.sqrt(max(p_bar * (1 - p_bar), 1e-12) / n_total)
        errs.append(max(vals.std(ddof=1) / np.sqrt(len(vals)), floor))
    return _finish(lengths, means, errs, d)


def rb_experiment(
    model: MockQubitModel,
    lengths,
    sequences_per_length: int,
    shots: int,
    seed=None,
    executor=None,
) -> RBResult:
    """Single-qubit RB against the mock model (d = 2).

    ``executor`` optionally replaces the mock execution: a callable
    (sequence_indices, shots, rng) -> observed P(0), letting the same
    harness drive a compiled-program backend.
    """
    if executor is None:

        def executor(seq, shots, rng):
            return rng.binomial(shots, run_sequence_1q(model, seq)) / shots

    return _rb(
        2, random_rb_sequence, executor, lengths, sequences_per_length, shots, seed
    )


def run_sequence_2q(model: MockQubitModel, pair_indices) -> float:
    """Exact P(00) for tensor-product Cliffords with the abstract
    two-qubit depolarizing channel applied after every layer."""
    kron = cliffords.pair_tables()[0]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for ia, ib in pair_indices:
        u = kron[ia, ib]
        rho = u @ rho @ u.conj().T
        rho = depolarize(rho, model.two_qubit_depol)
    return min(max(rho[0, 0].real, 0.0), 1.0)


def random_rb_sequence_2q(rng, m: int) -> list:
    pairs = [
        (int(a), int(b))
        for a, b in rng.integers(0, cliffords.N_CLIFFORDS, size=(m, 2))
    ]
    inv_a = cliffords.sequence_inverse([a for a, _ in pairs])
    inv_b = cliffords.sequence_inverse([b for _, b in pairs])
    pairs.append((inv_a, inv_b))
    return pairs


def rb_experiment_2q(
    model: MockQubitModel, lengths, sequences_per_length: int, shots: int, seed=None
) -> RBResult:
    """Two-qubit RB analog over tensor single-qubit Cliffords (d = 4).

    The genuine two-qubit Clifford group is not enumerated; the decay
    probes only the injected abstract channel strength.
    """

    def executor(seq, shots, rng):
        return rng.binomial(shots, run_sequence_2q(model, seq)) / shots

    return _rb(
        4, random_rb_sequence_2q, executor, lengths, sequences_per_length, shots, seed
    )
