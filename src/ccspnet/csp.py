"""Common spatial patterns with a differentiable feedback loss.

Per-branch class covariances, the generalized eigendecomposition, the 4-column
reduced projection, log-variance features, and the cross-entropy loss that
sends gradients back into the spectral CNN stack (the projection itself is
treated as a constant during backprop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import autodiff as ad
from .errors import NumericalError

RIDGE_SCALE = 1e-6


@dataclass
class CspBranch:
    """Frozen per-branch CSP state: its .ccsp arrays, in file order."""

    sigma0: np.ndarray
    sigma1: np.ndarray
    w_full: np.ndarray        # C x C generalized eigenvectors, descending eigenvalue
    eigenvalues: np.ndarray
    w_reduced: np.ndarray     # C x 4: first two and last two columns


def class_covariances(batch: np.ndarray,
                      labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace-normalized per-trial covariances averaged within each class."""
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)
    if batch.shape[-1] < 2:
        raise NumericalError("covariance needs at least two time points")
    out = []
    for cls in (0, 1):
        trials = batch[labels == cls]
        if len(trials) == 0:
            raise NumericalError(f"class {cls} missing from batch; CSP undefined")
        covs = np.matmul(trials, trials.transpose(0, 2, 1))
        traces = np.trace(covs, axis1=1, axis2=2)
        if np.any(traces <= 0):
            raise NumericalError("zero-power trial in covariance estimation")
        out.append((covs / traces[:, None, None]).mean(axis=0))
    sigma0, sigma1 = out
    sigma0 = 0.5 * (sigma0 + sigma0.T)
    sigma1 = 0.5 * (sigma1 + sigma1.T)
    return sigma0, sigma1


def solve_csp(sigma0: np.ndarray,
              sigma1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve sigma0 w = lambda (sigma0 + sigma1) w.

    A Tikhonov ridge (1e-6 * trace / C) is added to the composite only when
    it is not safely positive definite, so well-conditioned inputs solve the
    stated problem exactly. Columns are sorted by descending eigenvalue, and
    the sign of each column is fixed so its largest-magnitude entry is
    positive.
    """
    sigma0 = np.asarray(sigma0, dtype=np.float64)
    sigma1 = np.asarray(sigma1, dtype=np.float64)
    n = sigma0.shape[0]
    composite = sigma0 + sigma1
    try:
        linalg.cholesky(composite)
    except linalg.LinAlgError:
        ridge = RIDGE_SCALE * np.trace(composite) / n
        composite = composite + ridge * np.eye(n)
    try:
        eigvals, eigvecs = linalg.eigh(sigma0, composite)
    except linalg.LinAlgError as exc:
        raise NumericalError(f"composite covariance not positive definite: {exc}")
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    peaks = np.argmax(np.abs(eigvecs), axis=0)
    signs = np.sign(eigvecs[peaks, np.arange(n)])
    signs[signs == 0] = 1.0
    return eigvecs * signs, eigvals


def reduce_projection(w: np.ndarray) -> np.ndarray:
    """Keep the first two and last two eigenvector columns."""
    if w.shape[1] < 4:
        raise NumericalError("CSP reduction needs at least 4 channels")
    return np.concatenate([w[:, :2], w[:, -2:]], axis=1)


def fit_branch(batch: np.ndarray, labels: np.ndarray) -> CspBranch:
    """Full per-branch fit: covariances -> eigenvectors -> reduced projection."""
    sigma0, sigma1 = class_covariances(batch, labels)
    w, eigvals = solve_csp(sigma0, sigma1)
    return CspBranch(sigma0, sigma1, w, eigvals, reduce_projection(w))


def spatial_filter_features(maps: ad.Node, w_reduced: np.ndarray) -> ad.Node:
    """log(var(W_r^T X)) per trial, W_r held constant.

    A C x 4 `w_reduced` turns N x C x T into N x 4 features; a stacked
    K x C x 4 one turns N x K x C x T maps into N x K x 4, branch by branch.
    """
    return ad.log_variance(ad.project_channels(maps, w_reduced))


def target_vectors(labels: np.ndarray) -> np.ndarray:
    """Per-trial 4-vector targets: label 1 -> [1,1,0,0], label 0 -> [0,0,1,1]."""
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise NumericalError("labels must be binary")
    y = np.zeros((len(labels), 4))
    y[labels == 1, :2] = 1.0
    y[labels == 0, 2:] = 1.0
    return y


def csp_loss(features: ad.Node, labels: np.ndarray) -> ad.Node:
    """Cross-entropy between softmaxed branch features and the class targets.

    features: N x K x 4, the K branches' log-variance features. The BCE is
    summed over branches and averaged over the batch.
    """
    targets = target_vectors(labels)
    n = targets.shape[0]
    if features.value.ndim != 3 or features.shape[0] != n or features.shape[2] != 4:
        raise NumericalError(f"CSP features of shape {features.shape} do not "
                             f"match (N={n}, K, 4)")
    loss = ad.binary_cross_entropy(ad.softmax(features), targets[:, None])
    return ad.scale(loss, 1.0 / n)
