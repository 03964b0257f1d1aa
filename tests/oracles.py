"""Independent oracles shared by the test suite.

These stay deliberately naive: central finite differences, direct
transfer-function evaluation, numeric quadrature, and brute-force searches.
They must not call the code paths they are checking.
"""

import itertools

import numpy as np
from scipy import signal as sps

from ccspnet import autodiff as ad
from ccspnet import csp
from ccspnet.errors import NumericalError


def add_nodes(a, b):
    """a + b as a graph node; the upstream gradient goes to both parents as is."""
    def backward(g):
        for parent in (a, b):
            if parent.requires_grad:
                parent._accumulate(g)

    return ad.Node(a.value + b.value, (a, b), backward)


def mean_of(x):
    """Mean of every element of a node, as a scalar graph node."""
    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.value, g / x.value.size))

    return ad.Node(x.value.mean(), (x,), backward)


def central_difference(fn, x, eps=1e-6):
    """Gradient of scalar fn at array x by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def sos_magnitude(sos, freq_hz, fs):
    """|H| of an SOS cascade by direct polynomial evaluation on the unit circle."""
    w = np.atleast_1d(np.asarray(freq_hz, dtype=np.float64)) * 2 * np.pi / fs
    zinv = np.exp(-1j * w)
    h = np.ones_like(zinv)
    for b0, b1, b2, _, a1, a2 in sos:
        h *= (b0 + b1 * zinv + b2 * zinv ** 2) / (1 + a1 * zinv + a2 * zinv ** 2)
    return np.abs(h)


def energy_by_quadrature(sos, fs, n=200001):
    """(1/2pi) integral of |H(w)|^2 over [-pi, pi] via the trapezoid rule."""
    freqs = np.linspace(0, fs / 2, n)
    mags = sos_magnitude(sos, freqs, fs)
    # spectrum is symmetric; integrate one side and double
    return 2 * np.trapezoid(mags ** 2, freqs) / fs


def student_t_sf_quadrature(t, df, n=400001):
    """P(T > t) for Student's t by quadrature over the bounded interval [0, t].

    Using P(T > t) = 1/2 - integral_0^t pdf avoids tail truncation entirely
    (the density is symmetric about zero).
    """
    from math import lgamma, pi
    if t < 0:
        return 1.0 - student_t_sf_quadrature(-t, df, n)
    xs = np.linspace(0.0, t, n)
    logc = lgamma((df + 1) / 2) - lgamma(df / 2) - 0.5 * np.log(df * pi)
    pdf = np.exp(logc - ((df + 1) / 2) * np.log1p(xs ** 2 / df))
    return float(0.5 - np.trapezoid(pdf, xs))


def f_sf_quadrature(f, d1, d2, n=400001):
    """P(F > f) for the F distribution via 1 - integral_0^f of the density."""
    from math import lgamma
    xs = np.linspace(0.0, f, n)
    xs[0] = 1e-300  # keep log finite; contributes nothing to the integral
    logc = (lgamma((d1 + d2) / 2) - lgamma(d1 / 2) - lgamma(d2 / 2)
            + (d1 / 2) * np.log(d1 / d2))
    logpdf = logc + (d1 / 2 - 1) * np.log(xs) - ((d1 + d2) / 2) * np.log1p(d1 * xs / d2)
    return float(1.0 - np.trapezoid(np.exp(logpdf), xs))


def anova_f_range(groups, half_width):
    """(min, max) one-way ANOVA F over every (mean, sd, n) table whose means
    and sds each lie within half_width of the given ones.

    F = (SSB / (k - 1)) / (SSW / (N - k)), where SSB depends on the means only
    and SSW = sum (n - 1) sd^2 on the sds only, growing with each sd. SSB is
    convex in the means, so its maximum is at a corner of the box (all 2^k are
    tried). Its minimum is min over c of sum n (clip(c, lo, hi) - c)^2, since
    the weighted grand mean minimises sum n (m - c)^2; that piecewise quadratic
    is minimised exactly by trying every breakpoint and every segment's
    stationary point.
    """
    means, sds, ns = (np.array(col, dtype=np.float64) for col in zip(*groups))
    k, total = len(ns), float(ns.sum())
    lo, hi = means - half_width, means + half_width

    corners = np.where(np.array(list(itertools.product((0, 1), repeat=k))),
                       hi, lo)
    grand = corners @ ns / total
    ssb_max = float(((corners - grand[:, None]) ** 2 @ ns).max())

    def ssb_given_centre(c):
        return float(ns @ (np.clip(c, lo, hi) - c) ** 2)

    points = np.sort(np.concatenate([lo, hi]))
    candidates = list(points)
    for a, b in zip(points[:-1], points[1:]):
        mid = (a + b) / 2
        weights = ns * (mid < lo) + ns * (mid > hi)
        if weights.sum() > 0:
            bounds = np.where(mid < lo, lo, hi)
            candidates.append(min(max(weights @ bounds / weights.sum(), a), b))
    ssb_min = min(ssb_given_centre(c) for c in candidates)

    ssw_min = float((ns - 1) @ np.maximum(sds - half_width, 0.0) ** 2)
    ssw_max = float((ns - 1) @ (sds + half_width) ** 2)
    scale = (total - k) / (k - 1)
    return scale * ssb_min / ssw_max, scale * ssb_max / ssw_min


def conv_same_temporal_einsum(x, kernels, g):
    """Depthwise 'same' temporal convolution by explicit sliding windows.

    x: N x K x C x T, kernels: K x klen, g: an upstream gradient shaped like
    the output. Returns (output without bias, kernel gradient, input gradient)
    computed with einsum over zero-padded windows, independently of the
    banded-matmul kernels in autodiff, which multiply one block of output
    columns at a time by the band of its Toeplitz matrix.
    """
    klen = kernels.shape[1]
    pad_l, pad_r = (klen - 1) // 2, klen // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad_l, pad_r)))
    windows = np.lib.stride_tricks.sliding_window_view(xpad, klen, axis=3)
    out = np.einsum("nkctw,kw->nkct", windows, kernels)
    kernel_grad = np.einsum("nkctw,nkct->kw", windows, g)
    gpad = np.pad(g, ((0, 0), (0, 0), (0, 0), (pad_r, pad_l)))
    gwin = np.lib.stride_tricks.sliding_window_view(gpad, klen, axis=3)
    input_grad = np.einsum("nkctw,kw->nkct", gwin, kernels[:, ::-1])
    return out, kernel_grad, input_grad


def class_covariances_einsum(batch, labels):
    """Per-class mean of trace-normalized trial covariances, symmetrized."""
    out = []
    for cls in (0, 1):
        trials = batch[labels == cls]
        covs = np.einsum("nct,ndt->ncd", trials, trials)
        covs = covs / np.einsum("ncc->n", covs)[:, None, None]
        mean = covs.mean(axis=0)
        out.append(0.5 * (mean + mean.T))
    return tuple(out)


def class_covariances_stacked(batch, labels):
    """`csp.class_covariances` as it was before it streamed: per class, the
    stack of trace-normalized covariances of an N x C x T batch and numpy's
    mean over it, symmetrized. The streamed sum must match it bit for bit."""
    out = []
    for cls in (0, 1):
        trials = batch[labels == cls]
        covs = np.matmul(trials, trials.transpose(0, 2, 1))
        traces = np.trace(covs, axis1=1, axis2=2)
        mean = (covs / traces[:, None, None]).mean(axis=0)
        out.append(0.5 * (mean + mean.T))
    return tuple(out)


def project_channels_einsum(w, x, g):
    """w^T X per trial and its input gradient W G, by einsum."""
    return np.einsum("cd,nct->ndt", w, x), np.einsum("cd,ndt->nct", w, g)


def batch_norm_reference(x, gamma, beta, running_mean, running_var, g,
                         training, momentum=0.1, eps=1e-5):
    """Batch norm over every axis but axis 1, and its gradients, written
    out the plain way: numpy mean and var, whole-array temporaries.

    Returns (output, running mean, running var, x gradient, gamma gradient,
    beta gradient) for the upstream gradient g; the running statistics are
    the updated ones in training and the given ones in eval mode.
    """
    reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
    feat_shape = [1] * x.ndim
    feat_shape[1] = x.shape[1]
    if training:
        mean = x.mean(axis=reduce_axes)
        var = x.var(axis=reduce_axes)
        running_mean = (1 - momentum) * running_mean + momentum * mean
        running_var = (1 - momentum) * running_var + momentum * var
    else:
        mean, var = running_mean, running_var
    istd_b = 1.0 / np.sqrt(var + eps).reshape(feat_shape)
    xhat = (x - mean.reshape(feat_shape)) * istd_b
    out = gamma.reshape(feat_shape) * xhat + beta.reshape(feat_shape)
    count = x.size // x.shape[1]
    ghat = g * gamma.reshape(feat_shape)
    if training:
        sum_ghat = ghat.sum(axis=reduce_axes, keepdims=True)
        sum_ghat_xhat = (ghat * xhat).sum(axis=reduce_axes, keepdims=True)
        dx = istd_b * (ghat - sum_ghat / count - xhat * sum_ghat_xhat / count)
    else:
        dx = ghat * istd_b
    return (out, running_mean, running_var, dx,
            (g * xhat).sum(axis=reduce_axes), g.sum(axis=reduce_axes))


def feature_sums(a):
    """Sum of a over every axis but axis 1: the sums over each (sample,
    feature)'s entries, then over the samples."""
    return a.reshape(a.shape[0], a.shape[1], -1).sum(axis=2).sum(axis=0)


def feature_dots(a, b):
    """Sum of a * b over every axis but axis 1: one BLAS dot per (sample,
    feature) pair, then the sum over the samples."""
    rows_a = a.reshape(a.shape[0], a.shape[1], -1)
    rows_b = b.reshape(b.shape[0], b.shape[1], -1)
    return np.matmul(rows_a[:, :, None, :], rows_b[:, :, :, None]).sum(axis=(0, 2, 3))


def batch_norm_stored_xhat(x, layer, training):
    """`ad.batch_norm` as it was when its forward kept x-hat for the backward
    and passed over whole arrays: the reductions `feature_sums` and
    `feature_dots` and the same float operations in the same order, with
    x-hat made once in the forward and read again by the backward. The op,
    which rebuilds x-hat one block of trials at a time in its backward, must
    match it bit for bit."""
    gamma, beta = layer.gamma, layer.beta
    feat_shape = [1] * x.value.ndim
    feat_shape[1] = x.shape[1]
    count = x.value.size // x.shape[1]

    if training:
        if x.shape[0] < 2:
            raise NumericalError("batch norm in train mode requires batch size >= 2")
        mean = feature_sums(x.value) / count
        xhat = x.value - mean.reshape(feat_shape)
        var = feature_dots(xhat, xhat) / count
        m = ad.BN_MOMENTUM
        layer.running_mean = (1 - m) * layer.running_mean + m * mean
        layer.running_var = (1 - m) * layer.running_var + m * var
    else:
        var = layer.running_var
        xhat = x.value - layer.running_mean.reshape(feat_shape)

    istd = 1.0 / np.sqrt(var + ad.BN_EPS)
    xhat *= istd.reshape(feat_shape)
    out = xhat * gamma.value.reshape(feat_shape)
    out += beta.value.reshape(feat_shape)

    def backward(g):
        sum_g = feature_sums(g)
        sum_g_xhat = feature_dots(g, xhat)
        if gamma.requires_grad:
            gamma._accumulate(sum_g_xhat)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if x.requires_grad:
            scale_g = gamma.value * istd
            dx = g * scale_g.reshape(feat_shape)
            if training:
                # batch statistics depend on x:
                # dx = gamma istd (g - sum_g / count - xhat sum_g_xhat / count)
                dx -= xhat * (scale_g * sum_g_xhat / count).reshape(feat_shape)
                dx -= (scale_g * sum_g / count).reshape(feat_shape)
            x._accumulate(dx)

    return ad.Node(out, (x, gamma, beta), backward)


def banded_matmul_unblocked(x, bands, lead, trail):
    """`ad._banded_matmul` as it was before it ran per block of trials: one
    product per block of output columns over every trial at once, over only
    the input columns the band reaches. The blocked product must match it bit
    for bit."""
    out = np.empty(x.shape)
    for a, b, lo, hi in ad._blocks(x.shape[3], lead, trail):
        np.matmul(x[..., lo:hi], bands[:, lo:hi, a:b], out=out[..., a:b])
    return out


def preprocess_sosfilt(raw):
    """`data.preprocess` stage by stage with `sosfilt`, from the paper's
    settings written out here: trim to the 1000-3500 ms window, an order-12
    Butterworth low-pass at 36 Hz and every f-th sample (f = input rate /
    100 Hz, no low-pass when f = 1), then the fifth-order 8-30 Hz Butterworth
    band-pass at 100 Hz. Returns the N x C x T_out array."""
    fs_in = int(raw.sample_rate_hz)
    start, end = (int(round(ms * fs_in / 1000)) for ms in (1000, 3500))
    low = np.asarray(raw.trials, dtype=np.float64)[..., start:end]
    factor = fs_in // 100
    if factor > 1:
        antialias = sps.butter(12, 36.0, btype="lowpass", fs=fs_in, output="sos")
        low = sps.sosfilt(antialias, low, axis=-1)[..., ::factor]
    band = sps.butter(5, [8.0, 30.0], btype="bandpass", fs=100, output="sos")
    return sps.sosfilt(band, low, axis=-1)


def stage_maps_conv(net, batch):
    """Eval-mode maps of an N x C x T batch after each spectral stage of
    `net`, as (stage name, N x K x C x T) pairs in pipeline order: each
    stage's depthwise convolution, then its batch norm under the running
    statistics, with no linear operator built."""
    x = ad.expand_maps(ad.constant(np.asarray(batch, dtype=np.float64)[:, None]),
                       net.config.n_wavelet_kernels)
    stages = []
    for stage in net.spectral_stages:
        x = ad.conv_same_temporal(x, stage.kernels(), stage.bias)
        x = ad.batch_norm(x, stage.bn, training=False)
        stages.append((stage.name, x.value))
    return stages


def eval_maps_conv(net, batch):
    """Eval-mode spectral maps of an N x C x T batch through the convolutions."""
    return stage_maps_conv(net, batch)[-1][1]


def predict_conv(net, batch):
    """`CCSPNet.predict` through the convolutions: the eval-mode maps of
    `eval_maps_conv`, their frozen CSP features, the dense head, then the
    classifier."""
    maps = eval_maps_conv(net, batch)
    feats = csp.spatial_filter_features(ad.constant(maps), net.frozen_projection()).value
    out = net._dense_forward(ad.constant(feats.reshape(len(feats), -1)), training=False)
    return net.head.predict(out)
