"""Common spatial patterns with a differentiable feedback loss.

Per-branch class covariances, the generalized eigendecomposition, the 4-column
reduced projection, log-variance features, and the cross-entropy loss (the
projection constant in backprop) that trains the spectral CNN stack and, under
the `lda` ablation, the dense layers. `fit_branches` is the one refit of every
branch, for each training batch and for `finalize`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import autodiff as ad
from .errors import DataError, NumericalError, check_both_classes, check_labels

RIDGE_SCALE = 1e-6
# a CSP eigenvalue solves sigma0 w = lambda (sigma0 + sigma1) w for two
# covariances, so a fitted one lies in [0, 1] up to rounding
EIGENVALUE_SLACK = 1e-9


@dataclass
class CspBranch:
    """Frozen per-branch CSP state: its .ccsp arrays, in file order."""

    sigma0: np.ndarray
    sigma1: np.ndarray
    w_full: np.ndarray        # C x C generalized eigenvectors, descending eigenvalue
    eigenvalues: np.ndarray
    w_reduced: np.ndarray     # C x 4: first two and last two columns


def class_covariances(trials: np.ndarray | Iterable[np.ndarray],
                      labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace-normalized per-trial covariances averaged within each class.

    `trials` is an N x C x T array or an iterable of such blocks of
    consecutive trials, one label per trial; a generator may refill one
    buffer, as a block is read before the next is taken. Each covariance joins
    its class's running sum in trial order: over the count, numpy's mean exactly.
    The label count is checked against the trials once the last block is read."""
    labels = check_labels(labels, np.size(labels))
    counts = check_both_classes(labels)
    classes = labels.astype(int).tolist()
    sums, n = [None, None], 0
    for block in [trials] if isinstance(trials, np.ndarray) else trials:
        block = np.asarray(block, dtype=np.float64)
        if block.shape[-1] < 2:
            raise NumericalError("covariance needs at least two time points")
        covs = np.matmul(block, block.transpose(0, 2, 1))
        traces = np.trace(covs, axis1=1, axis2=2)
        # a backstop to numpy_faults, which misses an overflow in a BLAS thread
        if not np.isfinite(traces).all():
            raise NumericalError("non-finite trial power in covariance estimation")
        if np.any(traces <= 0):
            raise NumericalError("zero-power trial in covariance estimation")
        covs /= traces[:, None, None]
        for cls, cov in zip(classes[n:n + len(covs)], covs):
            sums[cls] = cov if sums[cls] is None else sums[cls] + cov
        n += len(covs)
    if n != len(classes):
        raise DataError(f"{len(classes)} CSP labels for {n} trials")
    return tuple(0.5 * (mean + mean.T) for mean in map(np.divide, sums, counts))


def in_unit_interval(eigenvalues: np.ndarray) -> bool:
    """Whether every CSP eigenvalue lies in [0, 1] within EIGENVALUE_SLACK."""
    return bool(((eigenvalues >= -EIGENVALUE_SLACK)
                 & (eigenvalues <= 1 + EIGENVALUE_SLACK)).all())


def solve_csp(sigma0: np.ndarray,
              sigma1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve sigma0 w = lambda (sigma0 + sigma1) w.

    The one `linalg.eigh` call decides the ridge: only when it cannot factor
    the composite, or gives an eigenvalue outside [0, 1] (a composite
    singular up to rounding), is a Tikhonov ridge (1e-6 * trace / C) added
    and the problem solved once more. Columns are sorted by descending
    eigenvalue, and the sign of each column is fixed so its largest-magnitude
    entry is positive.
    """
    sigma0 = np.asarray(sigma0, dtype=np.float64)
    sigma1 = np.asarray(sigma1, dtype=np.float64)
    n = sigma0.shape[0]
    composite = sigma0 + sigma1
    try:
        eigvals, eigvecs = linalg.eigh(sigma0, composite)
        if not in_unit_interval(eigvals):
            raise linalg.LinAlgError("an eigenvalue outside [0, 1]")
    except linalg.LinAlgError:
        ridge = RIDGE_SCALE * np.trace(composite) / n
        try:
            eigvals, eigvecs = linalg.eigh(sigma0, composite + ridge * np.eye(n))
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


def fit_branch(sigma0: np.ndarray, sigma1: np.ndarray) -> CspBranch:
    """Per-branch fit to two class covariances: eigenvectors -> reduced projection."""
    w, eigvals = solve_csp(sigma0, sigma1)
    return CspBranch(sigma0, sigma1, w, eigvals, reduce_projection(w))


def fit_branches(branch_maps: Iterable, labels: np.ndarray) -> list[CspBranch]:
    """`fit_branch` of each branch's maps' `class_covariances`, every sum before
    any solve, as scipy's LAPACK waits on numpy's spinning BLAS threads."""
    covariances = [class_covariances(maps, labels) for maps in branch_maps]
    return [fit_branch(*pair) for pair in covariances]


def spatial_filter_features(x: ad.Node, w_reduced: np.ndarray,
                            operator: tuple[np.ndarray, np.ndarray] | None = None
                            ) -> ad.Node:
    """log(var(W_r^T X)) per trial, W_r held constant.

    A C x 4 `w_reduced` turns N x C x T into N x 4 features; a stacked
    K x C x 4 one turns N x K x C x T maps into N x K x 4, branch by branch.

    With the eval-mode operator (M, c) of the spectral stack, K x T x T and
    K x T, `x` is the N x C x T input itself: map k would be X M_k + 1 c_k^T,
    and since the projection commutes with M_k, W_k^T (X M_k + 1 c_k^T) =
    (W_k^T X) M_k + (W_k^T 1) c_k^T. So the K x 4 rows are projected first,
    and no N x K x C x T map is made.
    """
    if operator is None:
        return ad.log_variance(ad.project_channels(x, w_reduced))
    m, c = operator
    k, n_ch, d = w_reduced.shape
    n, t = x.shape[0], x.shape[-1]
    # one C x 4K projection, then each branch's 4N rows through M_k as one
    # GEMM (twice as fast at N = 100 as N x K products of 4 rows); not in
    # trial blocks, as a GEMM split by rows gives other bits
    rows = ad.project_channels(x, w_reduced.transpose(1, 0, 2).reshape(n_ch, k * d))
    rows = rows.value.reshape(n, k, d, t).transpose(1, 0, 2, 3).reshape(k, n * d, t)
    z = np.matmul(rows, m).reshape(k, n, d, t).transpose(1, 0, 2, 3)
    z += w_reduced.sum(axis=1)[:, :, None] * c[:, None, :]
    return ad.log_variance(ad.constant(z))


def target_vectors(labels: np.ndarray) -> np.ndarray:
    """Per-trial 4-vector targets: label 1 -> [1,1,0,0], label 0 -> [0,0,1,1]."""
    labels = check_labels(labels, np.size(labels))
    y = np.zeros((len(labels), 4))
    y[labels == 1, :2] = 1.0
    y[labels == 0, 2:] = 1.0
    return y


def csp_loss(features: ad.Node, labels: np.ndarray) -> ad.Node:
    """Cross-entropy between softmaxed features and the class targets, summed over
    branches and averaged over the batch: N x K x 4 features, the K branches'
    log-variance, or N x 4, the `lda` ablation's dense outputs."""
    shape = features.shape
    if len(shape) not in (2, 3) or shape[-1] != 4:
        raise NumericalError(f"CSP features of shape {shape} are not (N, K, 4) or (N, 4)")
    n = shape[0]
    targets = target_vectors(check_labels(labels, n)).reshape(n, *[1] * (len(shape) - 2), 4)
    return ad.scale(ad.binary_cross_entropy(ad.softmax(features), targets), 1.0 / n)
