"""Gaussian mixture state discrimination and readout correction.

The mixture is fitted with plain expectation-maximization seeded by a
short k-means pass.  Covariances always carry a ridge of 1e-6 times
their trace so a degenerate cluster regularizes instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError

RIDGE = 1e-6
MAX_ITER = 100
LL_TOL = 1e-8
COND_LIMIT = 1e6


def _features(iq) -> np.ndarray:
    arr = np.asarray(iq)
    if np.iscomplexobj(arr):
        return np.column_stack([arr.real.ravel(), arr.imag.ravel()])
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise AnalysisError("IQ data must be complex or an (n, 2) array")
    return arr


@dataclass
class GaussianMixture:
    means: np.ndarray  # (k, 2)
    covariances: np.ndarray  # (k, 2, 2)
    weights: np.ndarray  # (k,)
    log_likelihood: float
    n_iter: int

    @property
    def k(self) -> int:
        return len(self.weights)

    def _log_joint(self, x: np.ndarray) -> np.ndarray:
        """log(w_j * N(x | mu_j, S_j)) for every point and component."""
        n = x.shape[0]
        out = np.empty((n, self.k))
        for j in range(self.k):
            cov = self.covariances[j]
            det = np.linalg.det(cov)
            inv = np.linalg.inv(cov)
            diff = x - self.means[j]
            quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
            out[:, j] = (
                np.log(self.weights[j])
                - np.log(2.0 * np.pi)
                - 0.5 * np.log(det)
                - 0.5 * quad
            )
        return out

    def classify(self, iq) -> np.ndarray:
        return np.argmax(self._log_joint(_features(iq)), axis=1)

    def relabeled(self, order) -> "GaussianMixture":
        order = list(order)
        return GaussianMixture(
            means=self.means[order].copy(),
            covariances=self.covariances[order].copy(),
            weights=self.weights[order].copy(),
            log_likelihood=self.log_likelihood,
            n_iter=self.n_iter,
        )


def _kmeans(x: np.ndarray, k: int, rng, iters: int = 25):
    centers = x[rng.choice(len(x), size=k, replace=False)].copy()
    labels = np.zeros(len(x), dtype=np.int64)
    for _ in range(iters):
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        for j in range(k):
            sel = new_labels == j
            if sel.any():
                centers[j] = x[sel].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


def _ridge(cov: np.ndarray) -> np.ndarray:
    return cov + RIDGE * np.trace(cov) * np.eye(2)


def gmm_fit(iq, k: int = 2, seed=0):
    """Fit a k-component Gaussian mixture to IQ shots."""
    x = _features(iq)
    n = len(x)
    if n < 2 * k:
        raise AnalysisError(f"{n} shots are too few to fit {k} components")
    rng = np.random.default_rng(seed)
    labels, centers = _kmeans(x, k, rng)

    means = centers
    covariances = np.empty((k, 2, 2))
    weights = np.empty(k)
    global_cov = np.cov(x.T) + 1e-12 * np.eye(2)
    for j in range(k):
        sel = labels == j
        weights[j] = max(sel.mean(), 1.0 / n)
        covariances[j] = _ridge(np.cov(x[sel].T) if sel.sum() > 2 else global_cov)
    weights /= weights.sum()

    mixture = GaussianMixture(means, covariances, weights, -np.inf, 0)
    prev_ll = -np.inf
    for it in range(1, MAX_ITER + 1):
        lj = mixture._log_joint(x)
        peak = lj.max(axis=1, keepdims=True)
        norm = peak[:, 0] + np.log(np.exp(lj - peak).sum(axis=1))
        ll = float(norm.mean())
        resp = np.exp(lj - norm[:, None])

        nk = resp.sum(axis=0) + 1e-12
        means = (resp.T @ x) / nk[:, None]
        covariances = np.empty((k, 2, 2))
        for j in range(k):
            diff = x - means[j]
            cov = (resp[:, j, None] * diff).T @ diff / nk[j]
            covariances[j] = _ridge(cov)
        weights = nk / nk.sum()
        mixture = GaussianMixture(means, covariances, weights, ll, it)
        if abs(ll - prev_ll) < LL_TOL:
            break
        prev_ll = ll
    return mixture


def calibrated_discriminator(iq_ground, iq_excited, k: int = 2, seed=0):
    """Fit on pooled calibration data, pin component 0 to ground.

    Returns (mixture, confusion) where confusion[i, j] is the
    probability of classifying a preparation of state j as i
    (column-stochastic by construction).
    """
    g = _features(iq_ground)
    e = _features(iq_excited)
    mixture = gmm_fit(np.vstack([g, e]), k=k, seed=seed)
    ground_votes = np.bincount(mixture.classify(g), minlength=k)
    lead = int(np.argmax(ground_votes))
    order = [lead] + [j for j in range(k) if j != lead]
    mixture = mixture.relabeled(order)
    confusion = confusion_matrix(mixture, [g, e])
    return mixture, confusion


def confusion_matrix(mixture: GaussianMixture, calibration_sets) -> np.ndarray:
    k = mixture.k
    m = np.zeros((k, len(calibration_sets)))
    for j, shots in enumerate(calibration_sets):
        cls = mixture.classify(shots)
        m[:, j] = np.bincount(cls, minlength=k) / len(cls)
    return m


def readout_correct(p_measured, confusion) -> np.ndarray:
    """Invert the readout bit-flip channel on a probability vector.

    p_corrected = M^-1 p, clipped to [0, 1] and renormalized.
    """
    m = np.asarray(confusion, dtype=float)
    p = np.asarray(p_measured, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != p.shape[0]:
        raise AnalysisError("confusion matrix and probability vector sizes disagree")
    if np.any(np.abs(m.sum(axis=0) - 1.0) > 1e-6):
        raise AnalysisError("confusion matrix is not column-stochastic")
    if np.linalg.cond(m) > COND_LIMIT:
        raise AnalysisError(
            f"confusion matrix condition number exceeds {COND_LIMIT:.0e}"
        )
    corrected = np.clip(np.linalg.solve(m, p), 0.0, 1.0)
    total = corrected.sum()
    if total <= 0:
        raise AnalysisError("correction yielded an empty distribution")
    return corrected / total
