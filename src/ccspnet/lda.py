"""Two-class linear discriminant analysis.

Closed-form fitting (S_w^-1 (m1 - m0)), the Fisher criterion as a
differentiable training signal, and nearest-class-mean prediction. The model's
`train_step` weights the CSP loss against the Fisher criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericalError, check_both_classes, check_labels

RIDGE_SCALE = 1e-6


@dataclass
class LdaModel:
    w: np.ndarray
    mu0: float
    mu1: float


def fit(features: np.ndarray, labels: np.ndarray) -> LdaModel:
    """Closed-form two-class LDA with a small Tikhonov ridge on S_w.

    The direction is unit-normalized with its sign fixed so the projected
    class-1 mean exceeds the class-0 mean.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = check_labels(labels, len(features))
    check_both_classes(labels)
    d = features.shape[1]
    groups = [features[labels == cls] for cls in (0, 1)]
    m0, m1 = (g.mean(axis=0) for g in groups)
    sw = np.zeros((d, d))
    for g, m in zip(groups, (m0, m1)):
        centered = g - m
        sw += centered.T @ centered
    sw += (RIDGE_SCALE * max(np.trace(sw), 1.0) / d) * np.eye(d)
    try:
        w = np.linalg.solve(sw, m1 - m0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular within-class scatter: {exc}")
    norm = np.linalg.norm(w)
    if norm == 0:
        raise NumericalError("degenerate LDA direction (identical class means)")
    w = w / norm
    mu0 = float(m0 @ w)
    mu1 = float(m1 @ w)
    if mu1 < mu0:
        w, mu0, mu1 = -w, -mu0, -mu1
    return LdaModel(w=w, mu0=mu0, mu1=mu1)


def fisher_criterion_node(projected: ad.Node, labels: np.ndarray) -> ad.Node:
    """Fisher criterion J = (var0 + var1) / (mean0 - mean1)^2, population
    variances, as a differentiable node over a length-N (or N x 1) projection."""
    g = projected.value.reshape(-1)
    labels = check_labels(labels, len(g))
    n0, n1 = check_both_classes(labels)
    mask0 = labels == 0
    mask1 = labels == 1
    mu0 = g[mask0].mean()
    mu1 = g[mask1].mean()
    gap = mu0 - mu1
    if gap == 0:
        raise NumericalError("identical projected class means")
    scatter = g[mask0].var() + g[mask1].var()
    denom = gap ** 2
    value = scatter / denom

    def backward(up):
        if projected.requires_grad:
            grad = np.zeros_like(g)
            grad[mask0] = (2 * (g[mask0] - mu0) / n0) / denom \
                - (scatter / denom ** 2) * 2 * gap / n0
            grad[mask1] = (2 * (g[mask1] - mu1) / n1) / denom \
                + (scatter / denom ** 2) * 2 * gap / n1
            projected._accumulate((up * grad).reshape(projected.value.shape))

    return ad.Node(value, (projected,), backward)


def predict(model: LdaModel, features: np.ndarray) -> np.ndarray:
    """Nearest projected class mean; ties resolve to class 0."""
    projected = np.asarray(features, dtype=np.float64) @ model.w
    return (np.abs(projected - model.mu1) < np.abs(projected - model.mu0)).astype(np.uint8)
