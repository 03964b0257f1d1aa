"""Minimal reverse-mode differentiation engine sized for a ~5k parameter model.

Values are float64 numpy arrays. Each op returns a Node holding the forward
value and a closure that scatters the upstream adjoint to its parents.
Backward visits nodes in reverse topological order exactly once, so adjoints
of shared subexpressions accumulate additively. An inner node's adjoint is
dropped once its closure has handed it on, and its value once the closures of
every node it feeds have run; the root and the leaves keep theirs. So a graph
is run backward once: a second backward through it raises NumericalError.
"""

from __future__ import annotations

import numpy as np

from . import dsp
from .errors import NumericalError, numpy_faults, trial_blocks

BN_MOMENTUM = 0.1     # batch norm's running-statistics update rate
BN_EPS = 1e-5         # batch norm's variance floor
_ADAM_BETA1 = 0.9     # Adam's first-moment decay rate
_ADAM_BETA2 = 0.999   # Adam's second-moment decay rate
_ADAM_EPS = 1e-8      # Adam's step denominator floor


class Node:
    """A value in the computation graph with an accumulated adjoint."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def backward(self, seed=1.0):
        """Run reverse-mode accumulation from this node.

        `seed` scales the whole gradient (useful for weighted loss terms).
        Each inner node's gradient is released once its `_backward` has run,
        and its value once every node that has it as a parent has had its
        turn. The root, the leaves (the nodes with no `_backward`) and the
        nodes that need no gradient, which are not visited, keep theirs. A
        graph so runs backward once: a second backward raises NumericalError.
        """
        order = []
        seen = set()
        consumers = {}   # id(node) -> its edges to consumers yet to have their turn
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.value is None:
                raise NumericalError("backward through a graph a previous backward "
                                     "has run through: its inner values are freed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    consumers[id(p)] = consumers.get(id(p), 0) + 1
                    if id(p) not in seen:
                        stack.append((p, False))
        if self.value.ndim != 0:
            raise NumericalError("backward requires a scalar root node")
        self.grad = np.asarray(float(seed))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None
            for p in node._parents:
                if p.requires_grad:
                    consumers[id(p)] -= 1
                    if consumers[id(p)] == 0 and p._backward is not None:
                        p.value = None

    def _accumulate(self, g):
        # the first gradient is kept as it arrives; later ones make a new sum,
        # so an array handed to several parents is never written to
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g


class Parameter(Node):
    """Trainable leaf node."""

    def __init__(self, value, name=""):
        super().__init__(value, requires_grad=True)
        self.name = name

    __slots__ = ("name",)


def constant(value):
    return Node(value)


def _maybe_backward(parent, g):
    if parent.requires_grad:
        parent._accumulate(g)


def scale(a: Node, s: float) -> Node:
    s = float(s)

    def backward(g):
        _maybe_backward(a, g * s)

    return Node(a.value * s, (a,), backward)


def expand_maps(x: Node, k: int) -> Node:
    """Repeat a single feature map N x 1 x C x T into N x k x C x T."""
    if x.shape[1] != 1:
        raise NumericalError("expand_maps expects a single input map")

    def backward(g):
        _maybe_backward(x, g.sum(axis=1, keepdims=True))

    return Node(np.repeat(x.value, k, axis=1), (x,), backward)


# output columns per block of the banded products; a block reads only the
# _BLOCK + klen - 1 input columns its band reaches (95 of 250 for a 32-tap
# kernel, 127 for 64 taps), instead of every column of the T x T matrix
_BLOCK = 64


def _blocks(t_len: int, lead: int, trail: int):
    """(a, b, lo, hi) for each block [a, b) of _BLOCK output columns, with
    [lo, hi) = [a - lead, b + trail) clipped to the time axis: the input
    columns a band reaching `lead` columns back and `trail` ahead touches."""
    for a in range(0, t_len, _BLOCK):
        b = min(a + _BLOCK, t_len)
        yield a, b, max(0, a - lead), min(t_len, b + trail)


def _banded_matmul(x: np.ndarray, bands: np.ndarray, lead: int, trail: int,
                   bias: np.ndarray | None = None) -> np.ndarray:
    """x @ bands (+ bias[k] on map k) for N x K x C x T `x` and K x T x T
    `bands` whose entry [k, s, t] is zero unless t - lead <= s <= t + trail:
    per block of trials, one product per block of output columns over only
    the input columns its band reaches, written into one output array."""
    out = np.empty(x.shape)
    for trials in trial_blocks(x):
        for a, b, lo, hi in _blocks(x.shape[3], lead, trail):
            np.matmul(x[trials, ..., lo:hi], bands[:, lo:hi, a:b],
                      out=out[trials, ..., a:b])
        if bias is not None:
            out[trials] += bias[:, None, None]
    return out


def _diagonal_sums(x: np.ndarray, g: np.ndarray, klen: int) -> np.ndarray:
    """Kernel gradient K x klen: entry w sums g[n,k,c,t] * x[n,k,c,t + w - pad_l],
    which is the diagonal at offset w - pad_l of G_k^T X_k over (N*C) x T rows.

    Only the band of each G_k^T X_k is formed: per block [a, b) of its rows,
    the columns [a - pad_l, b + pad_r), zero where they fall outside the
    time axis, so diagonal w is column w of the block read along its rows."""
    n, n_maps, c, t_len = x.shape
    pad_l = (klen - 1) // 2
    sums = np.zeros((n_maps, klen))
    # each map's (N*C) x T rows, in one pair of buffers that every map reuses;
    # not in trial blocks, which would change the order of the sums over rows
    map_g, map_x = np.empty((n, c, t_len)), np.empty((n, c, t_len))
    rows_g, rows_x = map_g.reshape(-1, t_len), map_x.reshape(-1, t_len)
    for k in range(n_maps):
        np.copyto(map_g, g[:, k])
        np.copyto(map_x, x[:, k])
        for a, b, lo, hi in _blocks(t_len, pad_l, klen - 1 - pad_l):
            width = b - a
            product = np.zeros((width, width + klen - 1))
            skip = lo - (a - pad_l)
            np.matmul(rows_g[:, a:b].T, rows_x[:, lo:hi],
                      out=product[:, skip:skip + hi - lo])
            # diagonals[i, w] = product[i, i + w]
            diagonals = np.lib.stride_tricks.as_strided(
                product, (width, klen), (product.strides[0] + product.strides[1],
                                         product.strides[1]), writeable=False)
            sums[k] += diagonals.sum(axis=0)
    return sums


def conv_same_temporal(x: Node, kernels: Node, bias: Node | None = None) -> Node:
    """Depthwise temporal convolution with zero 'same' padding.

    x: N x K x C x T, kernels: K x k. Feature map i is convolved along the
    time axis with kernel i only; channels are untouched. Output time length
    equals input time length. Each map is a matmul against its kernel's
    banded Toeplitz matrix, so the work runs on BLAS; the forward, the input
    gradient and the kernel gradient each multiply only the band, one block
    of _BLOCK output columns at a time.
    """
    n_maps = x.shape[1]
    if kernels.value.ndim != 2 or kernels.shape[0] != n_maps:
        raise NumericalError(
            f"kernel shape {kernels.shape} incompatible with {n_maps} feature maps")
    klen = kernels.shape[1]
    t_len = x.shape[3]
    if klen > t_len:
        raise NumericalError("kernel longer than the time axis")

    pad_l = (klen - 1) // 2
    pad_r = klen - 1 - pad_l
    bands = dsp.toeplitz_bands(kernels.value, t_len)
    out = _banded_matmul(x.value, bands, pad_l, pad_r,
                         None if bias is None else bias.value)
    parents = [x, kernels] + ([bias] if bias is not None else [])

    def backward(g):
        if kernels.requires_grad:
            kernels._accumulate(_diagonal_sums(x.value, g, klen))
        if x.requires_grad:
            x._accumulate(_banded_matmul(g, bands.transpose(0, 2, 1), pad_r, pad_l))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    return Node(out, tuple(parents), backward)


def project_channels(x: Node, w: np.ndarray) -> Node:
    """Apply a constant spatial projection w^T X along the last two axes.

    A C x d `w` maps N x C x T to N x d x T; a stacked K x C x d `w` maps
    N x K x C x T to N x K x d x T, one projection per feature map.
    """
    w = np.asarray(w, dtype=np.float64)

    def backward(g):
        _maybe_backward(x, np.matmul(w, g))

    return Node(np.matmul(np.swapaxes(w, -1, -2), x.value), (x,), backward)


class BatchNorm:
    """One batch-norm layer: its scale gamma, its shift beta and, one per
    feature of gamma, the running statistics (not part of the graph)."""

    def __init__(self, gamma: Node, beta: Node):
        self.gamma = gamma
        self.beta = beta
        self.running_mean = np.zeros(gamma.shape)
        self.running_var = np.ones(gamma.shape)


def _per_feature(a: np.ndarray) -> np.ndarray:
    """View N x F x ... as N x F x M, M being the entries per (sample, feature)."""
    return a.reshape(a.shape[0], a.shape[1], -1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """N x F x 1 x 1: the sum of a * b over each (sample, feature)'s entries,
    one BLAS dot per pair, so no array of the size of a is made."""
    rows_a, rows_b = _per_feature(a), _per_feature(b)
    return np.matmul(rows_a[:, :, None, :], rows_b[:, :, :, None])


def batch_norm(x: Node, layer: BatchNorm, training: bool) -> Node:
    """Batch normalization over all axes except the feature axis.

    2D flavour: x is N x K x C x T, features are the K maps. 1D flavour:
    x is N x F, features are the F columns. Feature axis is axis 1 in both.
    The passes over x, its output and its gradient run one block of trials at
    a time (`errors.trial_blocks`), and each per-feature statistic sums the N x F
    per-(sample, feature) sums or dots that the blocks made. The forward
    normalizes into its output, the one array of the size of x it makes, and
    keeps only the per-feature mean and 1/std. The backward makes the x
    gradient and no other array of the size of x: it rebuilds x-hat one block
    at a time into one block buffer, with the same float operations as the
    forward, so its gradients are those of a stored x-hat bit for bit.
    Training mode moves `layer`'s running statistics towards the batch's;
    eval mode normalizes with them.
    """
    gamma, beta = layer.gamma, layer.beta
    feat_shape = [1] * x.value.ndim
    feat_shape[1] = x.shape[1]
    count = x.value.size // x.shape[1]
    blocks = trial_blocks(x.value)
    # per-(sample, feature) sums and dots, which each statistic sums over N
    sums = np.empty(x.shape[:2])
    dots = np.empty(x.shape[:2] + (1, 1))
    out = np.empty(x.shape)

    if training:
        if x.shape[0] < 2:
            raise NumericalError("batch norm in train mode requires batch size >= 2")
        for s in blocks:
            sums[s] = _per_feature(x.value[s]).sum(axis=2)
        mean = sums.sum(axis=0) / count
        mean_b = mean.reshape(feat_shape)
        for s in blocks:
            np.subtract(x.value[s], mean_b, out=out[s])
            dots[s] = _row_dots(out[s], out[s])
        var = dots.sum(axis=(0, 2, 3)) / count
        m = BN_MOMENTUM
        layer.running_mean = (1 - m) * layer.running_mean + m * mean
        layer.running_var = (1 - m) * layer.running_var + m * var
    else:
        # a copy: a load writes the running statistics in place
        mean_b = layer.running_mean.copy().reshape(feat_shape)
        var = layer.running_var

    istd = 1.0 / np.sqrt(var + BN_EPS)
    istd_b = istd.reshape(feat_shape)
    gamma_b, beta_b = gamma.value.reshape(feat_shape), beta.value.reshape(feat_shape)
    for s in blocks:
        if not training:
            np.subtract(x.value[s], mean_b, out=out[s])
        out[s] *= istd_b
        out[s] *= gamma_b
        out[s] += beta_b

    def backward(g):
        buffer = np.empty((blocks[0].stop,) + x.shape[1:]) if blocks else None

        def xhat(s):
            # the forward's x-hat of block s, in the block buffer
            block = buffer[:s.stop - s.start]
            np.subtract(x.value[s], mean_b, out=block)
            block *= istd_b
            return block

        for s in blocks:
            sums[s] = _per_feature(g[s]).sum(axis=2)
            dots[s] = _row_dots(g[s], xhat(s))
        sum_g, sum_g_xhat = sums.sum(axis=0), dots.sum(axis=(0, 2, 3))
        if gamma.requires_grad:
            gamma._accumulate(sum_g_xhat)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if not x.requires_grad:
            return
        scale_g = (gamma.value * istd).reshape(feat_shape)
        if not training:
            x._accumulate(g * scale_g)
            return
        # batch statistics depend on x:
        # dx = gamma istd (g - sum_g / count - xhat sum_g_xhat / count)
        xhat_scale = (gamma.value * istd * sum_g_xhat / count).reshape(feat_shape)
        shift = (gamma.value * istd * sum_g / count).reshape(feat_shape)
        dx = np.empty(x.shape)
        for s in blocks:
            block = xhat(s)
            block *= xhat_scale
            np.multiply(g[s], scale_g, out=dx[s])
            dx[s] -= block
            dx[s] -= shift
        x._accumulate(dx)

    return Node(out, (x, gamma, beta), backward)


def dense(x: Node, w: Node, b: Node) -> Node:
    """Affine map x @ w + b for x: N x d_in, w: d_in x d_out."""
    if x.shape[1] != w.shape[0] or b.shape[0] != w.shape[1]:
        raise NumericalError(
            f"dense shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.value.T)
        if w.requires_grad:
            w._accumulate(x.value.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return Node(x.value @ w.value + b.value, (x, w, b), backward)


def softmax(x: Node) -> Node:
    """Numerically stable softmax along the last axis."""
    shifted = x.value - x.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            x._accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return Node(s, (x,), backward)


def log_variance(x: Node) -> Node:
    """Log of the per-row population variance along the last axis."""
    t_len = x.shape[-1]
    if t_len < 2:
        raise NumericalError("variance needs at least two time points")
    centered = x.value - x.value.mean(axis=-1, keepdims=True)
    var = (centered ** 2).mean(axis=-1)
    # a backstop to numpy_faults, which misses an overflow in a BLAS thread
    if not np.isfinite(var).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(var))[0])
        raise NumericalError(f"non-finite variance of row at index {idx}")
    if np.any(var <= 0):
        idx = tuple(int(i) for i in np.argwhere(var <= 0)[0])
        raise NumericalError(f"zero-variance row at index {idx}")

    def backward(g):
        if x.requires_grad:
            x._accumulate((2.0 / t_len) * centered * (g / var)[..., None])

    return Node(np.log(var), (x,), backward)


def binary_cross_entropy(probs: Node, targets: np.ndarray) -> Node:
    """Elementwise BCE summed over all entries; probabilities are clamped.

    Clamped entries contribute zero gradient (clamp acts as a stop).
    """
    targets = np.asarray(targets, dtype=np.float64)
    lo, hi = 1e-12, 1.0 - 1e-12
    clamped = np.clip(probs.value, lo, hi)
    loss = -(targets * np.log(clamped) + (1 - targets) * np.log(1 - clamped))
    inside = (probs.value > lo) & (probs.value < hi)

    def backward(g):
        if probs.requires_grad:
            dp = -(targets / clamped - (1 - targets) / (1 - clamped))
            probs._accumulate(g * dp * inside)

    return Node(loss.sum(), (probs,), backward)


class Adam:
    """Adam with per-group learning rates and L1/L2 regularization.

    Each group is a dict with keys: params (list of Parameter), lr, and
    optional l1 / l2 factors applied to every parameter in the group.
    """

    def __init__(self, groups):
        self.groups = []
        for g in groups:
            params = list(g["params"])
            self.groups.append({
                "params": params,
                "lr": float(g["lr"]),
                "l1": float(g.get("l1", 0.0)),
                "l2": float(g.get("l2", 0.0)),
                "m": [np.zeros_like(p.value) for p in params],
                "v": [np.zeros_like(p.value) for p in params],
            })
        self.step_count = 0

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1 - _ADAM_BETA1 ** t
        bc2 = 1 - _ADAM_BETA2 ** t
        for g in self.groups:
            for i, p in enumerate(g["params"]):
                grad = p.grad
                if grad is None:
                    grad = np.zeros_like(p.value)
                grad = np.asarray(grad, dtype=np.float64).reshape(p.value.shape)
                name = getattr(p, "name", "") or f"group param {i}"
                if not np.all(np.isfinite(grad)):
                    raise NumericalError(f"non-finite gradient for {name}")
                # raise, not warn: an infinite second moment would freeze the parameter
                with numpy_faults(f"Adam update for {name} is not finite (lr {g['lr']}, "
                                  f"l1 {g['l1']}, l2 {g['l2']})"):
                    if g["l2"]:
                        grad = grad + g["l2"] * p.value
                    if g["l1"]:
                        grad = grad + g["l1"] * np.sign(p.value)
                    # numpy arithmetic on a 0-d array returns a scalar; asarray
                    # keeps every parameter and moment an array that can be
                    # written in place
                    m = g["m"][i] = np.asarray(_ADAM_BETA1 * g["m"][i]
                                               + (1 - _ADAM_BETA1) * grad)
                    v = g["v"][i] = np.asarray(_ADAM_BETA2 * g["v"][i]
                                               + (1 - _ADAM_BETA2) * grad ** 2)
                    step = g["lr"] * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
                    p.value = np.asarray(p.value - step)
