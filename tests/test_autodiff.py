import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ccspnet import autodiff as ad
from ccspnet import dsp, errors, model
from ccspnet.errors import NumericalError

from oracles import (add_nodes, banded_matmul_unblocked, batch_norm_reference,
                     batch_norm_stored_xhat, central_difference,
                     conv_same_temporal_einsum, mean_of, project_channels_einsum,
                     rel_err)
from test_model import desk_batch, desk_config


def grad_check(build_loss, x0, eps=1e-6, tol=1e-5):
    """Compare Node gradients of a scalar graph against central differences."""
    param = ad.Parameter(x0.copy())
    loss = build_loss(param)
    loss.backward()

    def numeric(x):
        return float(build_loss(ad.Parameter(x)).value)

    fd = central_difference(numeric, x0.copy(), eps=eps)
    assert rel_err(param.grad, fd) < tol, (param.grad, fd)


class TestGraphBasics:
    def test_shared_subexpression_accumulates(self):
        x = ad.Parameter(np.asarray(3.0))
        y = add_nodes(x, x)
        y.backward()
        assert x.grad == pytest.approx(2.0)

    def test_seeded_backward_scales_gradient(self):
        x = ad.Parameter(np.asarray(2.0))
        y = ad.scale(x, 5.0)
        y.backward(seed=0.25)
        assert x.grad == pytest.approx(1.25)

    def test_backward_requires_scalar(self):
        x = ad.Parameter(np.ones(3))
        with pytest.raises(NumericalError):
            x.backward()


class TestBackwardReleasesGradients:
    def test_inner_grads_cleared_and_leaf_grads_kept(self):
        x = ad.Parameter(np.array([1.0, 2.0, 3.0]))
        loose = ad.Node(np.array([4.0, 5.0, 6.0]), requires_grad=True)
        inner = add_nodes(ad.scale(x, 2.0), loose)
        root = mean_of(inner)
        root.backward()
        assert inner.grad is None and root.grad is None
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0 / 3))
        # a leaf need not be a Parameter: it is a node with no backward
        np.testing.assert_array_equal(loose.grad, np.full(3, 1.0 / 3))

    def test_shared_subexpression_still_sums(self):
        x = ad.Parameter(np.array([1.0, -1.0]))
        shared = ad.scale(x, 3.0)
        root = mean_of(add_nodes(shared, shared))
        root.backward()
        assert shared.grad is None
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def spectral_chain():
    """(root, inner nodes in forward order, Parameters, constant input) of a
    conv -> batch norm -> project_channels -> log_variance -> mean graph."""
    rng = np.random.default_rng(0)
    x = ad.constant(rng.normal(size=(6, 2, 5, 30)))
    kernels = ad.Parameter(rng.normal(size=(2, 7)))
    bias = ad.Parameter(rng.normal(size=2))
    gamma, beta = ad.Parameter(rng.uniform(0.5, 1.5, size=2)), ad.Parameter(np.zeros(2))
    conv = ad.conv_same_temporal(x, kernels, bias)
    norm = ad.batch_norm(conv, ad.BatchNorm(gamma, beta), training=True)
    projected = ad.project_channels(norm, rng.normal(size=(2, 5, 4)))
    features = ad.log_variance(projected)
    return (mean_of(features), [conv, norm, projected, features],
            [kernels, bias, gamma, beta], x)


class TestBackwardReleasesValues:
    def test_inner_values_freed_and_root_leaves_and_constants_kept(self):
        root, inner, params, x = spectral_chain()
        kept = [a.value.copy() for a in [root, x] + params]
        root.backward()
        assert all(node.value is None for node in inner)
        for node, value in zip([root, x] + params, kept):
            np.testing.assert_array_equal(node.value, value)

    def test_gradients_equal_each_backward_called_by_hand(self):
        root, _, params, _ = spectral_chain()
        root.backward()
        by_hand, inner, twins, _ = spectral_chain()
        by_hand._backward(np.asarray(1.0))
        for node in reversed(inner):
            node._backward(node.grad)
        for p, twin in zip(params, twins):
            assert np.array_equal(p.grad, twin.grad), p.shape

    def test_second_backward_is_a_numerical_error(self):
        root, _, params, _ = spectral_chain()
        root.backward()
        grads = [p.grad for p in params]
        with pytest.raises(NumericalError, match="inner values are freed"):
            root.backward()
        assert all(p.grad is g for p, g in zip(params, grads))

    def test_feedback_loss_features_are_detached(self):
        trials, labels = desk_batch(np.random.default_rng(3))
        loss, feats = model.CCSPNet(desk_config()).csp_feedback_loss(trials, labels)
        before = feats.value.copy()
        loss.backward()
        assert not feats.requires_grad
        np.testing.assert_array_equal(feats.value, before)


class TestConvSameTemporal:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rng.normal(size=(2, 3, 4, 16)))
        kernel = np.zeros((3, 5))
        kernel[:, 2] = 1.0
        out = ad.conv_same_temporal(x, ad.constant(kernel))
        assert np.allclose(out.value, x.value)

    def test_zero_padding_arithmetic(self):
        x = ad.constant(np.ones((1, 1, 1, 8)))
        out = ad.conv_same_temporal(x, ad.constant(np.ones((1, 3))))
        expected = np.full(8, 3.0)
        expected[0] = expected[-1] = 2.0
        assert np.allclose(out.value[0, 0, 0], expected)

    def test_even_kernel_preserves_length(self):
        x = ad.constant(np.random.default_rng(1).normal(size=(1, 2, 3, 20)))
        out = ad.conv_same_temporal(x, ad.constant(np.random.default_rng(2).normal(size=(2, 4))))
        assert out.shape == (1, 2, 3, 20)

    def test_kernel_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.normal(size=(2, 4, 6, 25)))

        def loss(k):
            out = ad.conv_same_temporal(x, k)
            return mean_of(ad.Node(out.value ** 2, (out,),
                                      lambda g: out._accumulate(g * 2 * out.value),
                                      requires_grad=out.requires_grad))

        grad_check(loss, rng.normal(size=(4, 5)), tol=1e-6)

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        kernel = ad.constant(rng.normal(size=(2, 4)))
        weights = rng.normal(size=(1, 2, 3, 12))

        def loss(x):
            out = ad.conv_same_temporal(x, kernel)
            return ad.Node((out.value * weights).sum(), (out,),
                           lambda g: out._accumulate(g * weights),
                           requires_grad=True)

        grad_check(loss, rng.normal(size=(1, 2, 3, 12)), tol=1e-6)

    def test_bias_added_per_map(self):
        x = ad.constant(np.zeros((1, 2, 1, 5)))
        kernel = ad.constant(np.zeros((2, 3)))
        out = ad.conv_same_temporal(x, kernel, bias=ad.constant(np.array([1.0, -2.0])))
        assert np.allclose(out.value[0, 0], 1.0)
        assert np.allclose(out.value[0, 1], -2.0)

    def test_shape_mismatch_rejected(self):
        x = ad.constant(np.zeros((1, 3, 2, 10)))
        with pytest.raises(NumericalError):
            ad.conv_same_temporal(x, ad.constant(np.zeros((2, 3))))


class TestBlasKernelsMatchEinsum:
    """The banded-matmul convolution and the matmul projection against the
    einsum forms they replaced, within 1e-10."""

    @pytest.mark.parametrize("n, k, c, t, klen, with_bias", [
        (3, 2, 4, 20, 5, False),     # odd klen
        (3, 2, 4, 20, 6, True),      # even klen
        (2, 3, 3, 12, 12, True),     # klen == T, even
        (2, 2, 3, 11, 11, False),    # klen == T, odd
        (4, 2, 3, 10, 1, True),      # klen == 1
        (1, 4, 5, 30, 8, True),      # one trial
        (300, 2, 6, 40, 9, False),   # a paper-size batch
        (300, 4, 6, 40, 16, True),
        # several blocks of output columns
        (2, 2, 3, 250, 32, False),   # the wavelet layer's length
        (2, 2, 3, 250, 64, True),    # the temporal layer's length
        (2, 2, 3, 250, 63, False),   # odd klen
        (2, 2, 3, 131, 65, True),    # T not a multiple of the block
        (2, 2, 2, 200, 200, False),  # klen == T
        (2, 2, 3, 131, 1, True),     # klen == 1
    ])
    def test_conv_forward_and_gradients(self, n, k, c, t, klen, with_bias):
        rng = np.random.default_rng(n * 1000 + klen)
        x = ad.Parameter(rng.normal(size=(n, k, c, t)))
        kernels = ad.Parameter(rng.normal(size=(k, klen)))
        bias = ad.Parameter(rng.normal(size=k)) if with_bias else None
        g = rng.normal(size=(n, k, c, t))
        out = ad.conv_same_temporal(x, kernels, bias)
        out._backward(g)

        want_out, want_kernel_grad, want_input_grad = conv_same_temporal_einsum(
            x.value, kernels.value, g)
        if with_bias:
            want_out = want_out + bias.value[None, :, None, None]
            np.testing.assert_allclose(bias.grad, g.sum(axis=(0, 2, 3)),
                                       rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(out.value, want_out, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(kernels.grad, want_kernel_grad, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(x.grad, want_input_grad, rtol=1e-10, atol=1e-10)

    def test_conv_of_repeated_maps(self):
        # the wavelet layer's input, as expand_maps builds it
        rng = np.random.default_rng(7)
        base = rng.normal(size=(5, 1, 4, 30))
        x = ad.expand_maps(ad.constant(base), 3)
        kernels = ad.Parameter(rng.normal(size=(3, 7)))
        g = rng.normal(size=(5, 3, 4, 30))
        out = ad.conv_same_temporal(x, kernels)
        out._backward(g)
        want_out, want_kernel_grad, _ = conv_same_temporal_einsum(x.value, kernels.value, g)
        np.testing.assert_allclose(out.value, want_out, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(kernels.grad, want_kernel_grad, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 300])
    def test_project_channels(self, n):
        rng = np.random.default_rng(n)
        # a strided map slice
        x = ad.Parameter(rng.normal(size=(n, 3, 8, 25))[:, 1])
        w = rng.normal(size=(8, 4))
        g = rng.normal(size=(n, 4, 25))
        out = ad.project_channels(x, w)
        out._backward(g)
        want_out, want_grad = project_channels_einsum(w, x.value, g)
        np.testing.assert_allclose(out.value, want_out, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(x.grad, want_grad, rtol=1e-10, atol=1e-10)


class TestStackedProjection:
    """All K branches in one project_channels call against one
    project_channels call per branch, each on its own copy of the map."""

    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_per_branch_path(self, k):
        rng = np.random.default_rng(40 + k)
        w = rng.normal(size=(k, 8, 4))
        g = rng.normal(size=(6, k, 4, 25))
        stacked_in = ad.Parameter(rng.normal(size=(6, k, 8, 25)))
        stacked = ad.project_channels(stacked_in, w)
        stacked._backward(g)

        for i in range(k):
            piece = ad.Parameter(stacked_in.value[:, i].copy())
            out = ad.project_channels(piece, w[i])
            np.testing.assert_allclose(stacked.value[:, i], out.value,
                                       rtol=1e-10, atol=1e-10)
            out._backward(g[:, i])
            np.testing.assert_allclose(stacked_in.grad[:, i], piece.grad,
                                       rtol=1e-10, atol=1e-10)


class TestAccumulate:
    def test_first_gradient_kept_and_later_ones_summed(self):
        x = ad.Parameter(np.zeros(3))
        first, second = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])
        x._accumulate(first)
        assert x.grad is first
        x._accumulate(second)
        np.testing.assert_array_equal(x.grad, [1.5, 2.5, 3.5])
        # the array handed over first is not written to
        np.testing.assert_array_equal(first, [1.0, 2.0, 3.0])

    def test_shared_gradient_stays_separate(self):
        a, b = ad.Parameter(np.ones(2)), ad.Parameter(np.ones(2))
        y = add_nodes(a, b)
        y._backward(np.array([1.0, 1.0]))
        a._accumulate(np.array([2.0, 2.0]))
        np.testing.assert_array_equal(a.grad, [3.0, 3.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])


class TestBatchNorm:
    def test_running_statistics_are_sized_from_gamma(self):
        layer = ad.BatchNorm(ad.constant(np.full(3, 2.0)), ad.constant(np.zeros(3)))
        assert np.array_equal(layer.running_mean, np.zeros(3))
        assert np.array_equal(layer.running_var, np.ones(3))

    def test_running_statistics_are_assigned_only_by_autodiff(self):
        # one owner of the running statistics: the BatchNorm constructor and
        # batch_norm's momentum update; a .ccsp load writes into them in place
        package = Path(ad.__file__).parent
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in sorted(package.glob("*.py"))}
        hits = [(name, line.strip()) for name, text in sources.items()
                for line in text.splitlines()
                if re.search(r"\.running_(?:mean|var)\b[\w\s.,]*[-+*/@]?=(?!=)", line)]
        assert hits == [
            ("autodiff.py", "self.running_mean = np.zeros(gamma.shape)"),
            ("autodiff.py", "self.running_var = np.ones(gamma.shape)"),
            ("autodiff.py", "layer.running_mean = (1 - m) * layer.running_mean + m * mean"),
            ("autodiff.py", "layer.running_var = (1 - m) * layer.running_var + m * var")]
        assert [name for name, text in sources.items()
                if re.search(r"BatchNormState|_BnLayer", text)] == []

    def test_train_mode_standardizes(self):
        rng = np.random.default_rng(5)
        x = ad.constant(rng.normal(2.0, 3.0, size=(8, 4, 3, 5)))
        layer = ad.BatchNorm(ad.constant(np.ones(4)), ad.constant(np.zeros(4)))
        out = ad.batch_norm(x, layer, training=True)
        mean = out.value.mean(axis=(0, 2, 3))
        var = out.value.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1) < 1e-4)

    def test_standardized_input_passthrough(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(64, 3))
        raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        layer = ad.BatchNorm(ad.constant(np.ones(3)), ad.constant(np.zeros(3)))
        out = ad.batch_norm(ad.constant(raw), layer, training=True)
        assert np.allclose(out.value, raw, atol=1e-5)

    def test_eval_mode_uses_running_stats(self):
        layer = ad.BatchNorm(ad.constant(np.ones(2)), ad.constant(np.zeros(2)))
        layer.running_mean = np.array([1.0, -1.0])
        layer.running_var = np.array([4.0, 0.25])
        x = ad.constant(np.array([[1.0, -1.0], [3.0, 0.0]]))
        out = ad.batch_norm(x, layer, training=False)
        expected = (x.value - layer.running_mean) / np.sqrt(layer.running_var + 1e-5)
        assert np.allclose(out.value, expected)

    def test_batch_size_one_rejected(self):
        layer = ad.BatchNorm(ad.constant(np.ones(2)), ad.constant(np.zeros(2)))
        with pytest.raises(NumericalError):
            ad.batch_norm(ad.constant(np.zeros((1, 2))), layer, training=True)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(8, 4, 3, 5))
        gamma0 = rng.uniform(0.5, 1.5, size=4)
        beta0 = rng.normal(size=4)
        weights = rng.normal(size=x0.shape)

        def make(x_node, g_node, b_node):
            out = ad.batch_norm(x_node, ad.BatchNorm(g_node, b_node), training=True)
            return ad.Node((out.value * weights).sum(), (out,),
                           lambda g: out._accumulate(g * weights), requires_grad=True)

        grad_check(lambda x: make(x, ad.constant(gamma0), ad.constant(beta0)), x0)
        grad_check(lambda g: make(ad.constant(x0), g, ad.constant(beta0)), gamma0)
        grad_check(lambda b: make(ad.constant(x0), ad.constant(gamma0), b), beta0)


class TestBatchNormMatchesReference:
    """The fused batch norm against the plain form in tests/oracles.py."""

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (300, 4, 6, 20),
                                       (2, 5), (300, 16)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("zero_gamma", [False, True])
    def test_forward_statistics_and_gradients(self, shape, training, zero_gamma):
        rng = np.random.default_rng(sum(shape) + 2 * training + zero_gamma)
        n_feat = shape[1]
        x = ad.Parameter(rng.normal(1.5, 2.0, size=shape))
        gamma = ad.Parameter(rng.uniform(0.5, 1.5, size=n_feat))
        if zero_gamma:
            gamma.value[1] = 0.0
        beta = ad.Parameter(rng.normal(size=n_feat))
        layer = ad.BatchNorm(gamma, beta)
        layer.running_mean = rng.normal(size=n_feat)
        layer.running_var = rng.uniform(0.5, 2.0, size=n_feat)
        g = rng.normal(size=shape)
        x_before, g_before = x.value.copy(), g.copy()

        want = batch_norm_reference(x.value, gamma.value, beta.value,
                                    layer.running_mean, layer.running_var, g,
                                    training)
        out = ad.batch_norm(x, layer, training)
        out._backward(g)
        got = (out.value, layer.running_mean, layer.running_var, x.grad,
               gamma.grad, beta.grad)
        for name, a, b in zip(("out", "running_mean", "running_var", "dx",
                               "dgamma", "dbeta"), got, want):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10, err_msg=name)
        np.testing.assert_array_equal(x.value, x_before)
        np.testing.assert_array_equal(g, g_before)

    def test_eval_mode_input_gradient_matches_fd(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(3, 4, 2, 5))
        gamma = ad.constant(rng.uniform(0.5, 1.5, size=4))
        beta = ad.constant(rng.normal(size=4))
        weights = rng.normal(size=x0.shape)
        layer = ad.BatchNorm(gamma, beta)
        layer.running_mean = rng.normal(size=4)
        layer.running_var = rng.uniform(0.5, 2.0, size=4)

        def loss(x_node):
            out = ad.batch_norm(x_node, layer, training=False)
            return ad.Node((out.value * weights).sum(), (out,),
                           lambda g: out._accumulate(g * weights), requires_grad=True)

        grad_check(loss, x0)


def trials_per_block(monkeypatch, x, k):
    """Make `errors.trial_blocks` cut `x` into blocks of k trials, the last
    one ragged when k does not divide N; k None keeps the module's size."""
    if k is not None:
        monkeypatch.setattr(errors, "TRIAL_BLOCK_BYTES", k * x[:1].nbytes)
        blocks = errors.trial_blocks(x)
        assert [s.stop - s.start for s in blocks[:-1]] == [k] * (len(blocks) - 1)
        assert len(blocks) == -(-len(x) // k)


class TestBatchNormMatchesStoredXhat:
    """The batch norm that rebuilds x-hat one block of trials at a time in its
    backward against the one that stored it and passed over whole arrays
    (tests/oracles.py): equal bit for bit, for one block and for many."""

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (40, 4, 6, 50), (2, 5), (300, 16)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_outputs_statistics_and_gradients_are_equal(self, shape, training, offset):
        self.check(shape, training, offset)

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (40, 4, 6, 50), (2, 5), (300, 16)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("block", [1, 7])
    def test_equal_over_several_blocks(self, monkeypatch, shape, training, offset, block):
        self.check(shape, training, offset, lambda x: trials_per_block(monkeypatch, x, block))

    @staticmethod
    def check(shape, training, offset, cut=lambda x: None):
        rng = np.random.default_rng(sum(shape) + 3 * training + int(offset))
        n_feat = shape[1]
        x0 = rng.normal(offset, 2.0, size=shape)
        gamma0 = rng.uniform(0.5, 1.5, size=n_feat)
        beta0 = rng.normal(size=n_feat)
        mean0 = offset + rng.normal(size=n_feat)
        var0 = rng.uniform(0.5, 2.0, size=n_feat)
        g = rng.normal(size=shape)
        cut(x0)
        results = []
        for op in (ad.batch_norm, batch_norm_stored_xhat):
            x, gamma, beta = (ad.Parameter(a.copy()) for a in (x0, gamma0, beta0))
            layer = ad.BatchNorm(gamma, beta)
            layer.running_mean, layer.running_var = mean0.copy(), var0.copy()
            out = op(x, layer, training)
            out._backward(g)
            results.append((out.value, layer.running_mean, layer.running_var,
                            x.grad, gamma.grad, beta.grad))
        for name, got, want in zip(("out", "running_mean", "running_var", "dx",
                                    "dgamma", "dbeta"), *results):
            assert np.array_equal(got, want), name


class TestBandedMatmulMatchesUnblocked:
    """The banded product per block of trials, its bias added in the same
    loop, against the product over every trial at once (tests/oracles.py):
    equal bit for bit, forward and transposed as the backward uses it."""

    @pytest.mark.parametrize("klen", [32, 64])
    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_equal_to_one_product_per_column_block(self, monkeypatch, klen, block,
                                                   with_bias):
        rng = np.random.default_rng(klen + (block or 0))
        x = rng.normal(size=(8, 4, 5, 250))
        bands = dsp.toeplitz_bands(rng.normal(size=(4, klen)), 250)
        bias = rng.normal(size=4) if with_bias else None
        pad_l = (klen - 1) // 2
        pad_r = klen - 1 - pad_l
        trials_per_block(monkeypatch, x, block)
        want = banded_matmul_unblocked(x, bands, pad_l, pad_r)
        if with_bias:
            want += bias[None, :, None, None]
        assert np.array_equal(ad._banded_matmul(x, bands, pad_l, pad_r, bias), want)
        back = bands.transpose(0, 2, 1)
        assert np.array_equal(ad._banded_matmul(x, back, pad_r, pad_l),
                              banded_matmul_unblocked(x, back, pad_r, pad_l))


def _traced_peak(fn):
    """Peak of traced allocations made while fn runs, above the level at its start."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn()
    return result, tracemalloc.get_traced_memory()[1] - start


class TestBatchNormAllocations:
    """The fused batch norm makes one array of the size of its input map in
    each direction: the output in the forward, which keeps no x-hat, and the
    x gradient in the backward, which rebuilds x-hat one block of trials at a
    time into a block buffer."""

    SHAPE = (40, 4, 16, 250)

    def _peaks(self, training):
        rng = np.random.default_rng(3)
        x = ad.Parameter(rng.normal(size=self.SHAPE))
        gamma = ad.Parameter(rng.uniform(0.5, 1.5, size=4))
        beta = ad.Parameter(rng.normal(size=4))
        layer = ad.BatchNorm(gamma, beta)
        g = rng.normal(size=self.SHAPE)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            out, fwd = _traced_peak(
                lambda: ad.batch_norm(x, layer, training))
            _, bwd = _traced_peak(lambda: out._backward(g))
        finally:
            if not tracing:
                tracemalloc.stop()
        return fwd / g.nbytes, bwd / g.nbytes

    def test_training_mode(self):
        fwd, bwd = self._peaks(training=True)
        assert fwd <= 1.5, f"forward peak {fwd:.2f} map sizes"
        assert bwd <= 1.5, f"backward peak {bwd:.2f} map sizes"

    def test_eval_mode_backward(self):
        _, bwd = self._peaks(training=False)
        assert bwd <= 1.5, f"backward peak {bwd:.2f} map sizes"


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(8).normal(size=(5, 4))
        out = ad.dense(ad.constant(x), ad.constant(np.eye(4)), ad.constant(np.zeros(4)))
        assert np.allclose(out.value, x)

    def test_all_ones_sums_inputs(self):
        out = ad.dense(ad.constant(np.ones((1, 7))), ad.constant(np.ones((7, 1))),
                       ad.constant(np.zeros(1)))
        assert out.value[0, 0] == pytest.approx(7.0)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(6, 5))
        w0 = rng.normal(size=(5, 3))
        b0 = rng.normal(size=3)
        weights = rng.normal(size=(6, 3))

        def make(x_node, w_node, b_node):
            out = ad.dense(x_node, w_node, b_node)
            return ad.Node((out.value * weights).sum(), (out,),
                           lambda g: out._accumulate(g * weights), requires_grad=True)

        grad_check(lambda x: make(x, ad.constant(w0), ad.constant(b0)), x0, tol=1e-6)
        grad_check(lambda w: make(ad.constant(x0), w, ad.constant(b0)), w0, tol=1e-6)
        grad_check(lambda b: make(ad.constant(x0), ad.constant(w0), b), b0, tol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NumericalError):
            ad.dense(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))),
                     ad.constant(np.zeros(2)))


class TestSoftmax:
    def test_uniform_for_equal_inputs(self):
        out = ad.softmax(ad.constant(np.zeros(4)))
        assert np.allclose(out.value, 0.25)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.normal(scale=10, size=6)
            out = ad.softmax(ad.constant(x))
            assert np.argmax(out.value) == np.argmax(x)

    def test_extreme_inputs_stable(self):
        out = ad.softmax(ad.constant(np.array([1000.0, 0.0])))
        assert out.value[0] == pytest.approx(1.0, abs=1e-12)
        assert out.value[1] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 100), size=rng.integers(2, 9))
            assert ad.softmax(ad.constant(x)).value.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        weights = rng.normal(size=(3, 4))

        def loss(x):
            out = ad.softmax(x)
            return ad.Node((out.value * weights).sum(), (out,),
                           lambda g: out._accumulate(g * weights), requires_grad=True)

        grad_check(loss, rng.normal(size=(3, 4)))


class TestLogVariance:
    def test_unit_variance_gives_zero(self):
        row = np.tile([1.0, -1.0], 5)
        out = ad.log_variance(ad.constant(row[None]))
        assert out.value[0] == pytest.approx(0.0)

    def test_scaling_shifts_by_2_log_s(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 40))
        base = ad.log_variance(ad.constant(x)).value
        scaled = ad.log_variance(ad.constant(3.0 * x)).value
        assert np.allclose(scaled - base, 2 * np.log(3.0))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(14)

        def loss(x):
            out = ad.log_variance(x)
            return ad.Node(out.value.sum(), (out,),
                           lambda g: out._accumulate(np.full_like(out.value, g)),
                           requires_grad=True)

        grad_check(loss, rng.normal(size=(4, 250)), tol=1e-6)

    def test_zero_variance_reports_row(self):
        x = np.ones((2, 10))
        x[1] += np.random.default_rng(15).normal(size=10)
        with pytest.raises(NumericalError, match="0"):
            ad.log_variance(ad.constant(x))

    def test_zero_variance_index_prints_plain_ints(self):
        x = np.random.default_rng(16).normal(size=(2, 3, 10))
        x[1, 2] = 5.0
        with pytest.raises(NumericalError) as info:
            ad.log_variance(ad.constant(x))
        assert str(info.value) == "zero-variance row at index (1, 2)"

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_variance_reports_row(self, value):
        # an overflow in a BLAS worker thread reaches no numpy guard, so the
        # map arrives holding inf unannounced; numpy stays silent here too
        x = np.random.default_rng(17).normal(size=(2, 3, 10))
        x[1, 0, 4] = value
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as info:
            ad.log_variance(ad.constant(x))
        assert str(info.value) == "non-finite variance of row at index (1, 0)"


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = ad.Parameter(np.array([1.0, 2.0]))
        opt = ad.Adam([{"params": [p], "lr": 0.1}])
        p.grad = np.zeros(2)
        opt.step()
        assert np.allclose(p.value, [1.0, 2.0])

    def test_first_step_moves_by_lr(self):
        p = ad.Parameter(np.asarray(0.0))
        opt = ad.Adam([{"params": [p], "lr": 0.05}])
        p.grad = np.asarray(1.0)
        opt.step()
        assert p.value == pytest.approx(-0.05, abs=1e-6)

    def test_converges_on_quadratic(self):
        p = ad.Parameter(np.asarray(1.0))
        opt = ad.Adam([{"params": [p], "lr": 0.1}])
        for _ in range(100):
            p.grad = 2 * p.value
            opt.step()
        assert abs(p.value) < 0.05

    def test_l2_pulls_toward_zero(self):
        p = ad.Parameter(np.asarray(1.0))
        opt = ad.Adam([{"params": [p], "lr": 0.01, "l2": 0.5}])
        for _ in range(50):
            p.grad = np.asarray(0.0)
            opt.step()
        assert p.value < 1.0

    def test_separate_group_learning_rates(self):
        a = ad.Parameter(np.asarray(0.0))
        b = ad.Parameter(np.asarray(0.0))
        opt = ad.Adam([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.001}])
        a.grad = np.asarray(1.0)
        b.grad = np.asarray(1.0)
        opt.step()
        assert abs(a.value) > abs(b.value)

    def test_nonfinite_gradient_names_parameter(self):
        p = ad.Parameter(np.asarray(0.0), name="wavelet_f_1")
        opt = ad.Adam([{"params": [p], "lr": 0.1}])
        p.grad = np.asarray(np.inf)
        with pytest.raises(NumericalError, match="wavelet_f_1"):
            opt.step()

    @pytest.mark.parametrize("factor", ["l1", "l2"])
    def test_overflowing_update_names_parameter_before_numpy_warns(self, factor):
        # a 1e300 penalty overflows grad ** 2; tier-1 turns numpy's warning
        # into an error, so a warning raised first would fail this test
        p = ad.Parameter(np.array([0.5, -0.5]), name="dense.0.w")
        opt = ad.Adam([{"params": [p], "lr": 0.01, factor: 1e300}])
        p.grad = np.zeros(2)
        with pytest.raises(NumericalError,
                           match=f"Adam update for dense.0.w is not finite .*{factor} 1e"):
            opt.step()


class TestRandomizedGradientSuite:
    """Every differentiable op on >= 20 randomized small shapes."""

    @pytest.mark.parametrize("seed", range(20))
    def test_all_ops(self, seed):
        rng = np.random.default_rng(1000 + seed)
        weights_cache = {}

        def contracted(out):
            key = out.value.shape
            if key not in weights_cache:
                weights_cache[key] = rng.normal(size=key)
            w = weights_cache[key]
            return ad.Node((out.value * w).sum(), (out,),
                           lambda g: out._accumulate(g * w), requires_grad=True)

        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        c = int(rng.integers(2, 5))
        t = int(rng.integers(8, 16))
        klen = int(rng.integers(2, 6))

        conv_in = ad.constant(rng.normal(size=(n, k, c, t)))
        grad_check(lambda p: contracted(ad.conv_same_temporal(conv_in, p)),
                   rng.normal(size=(k, klen)), tol=1e-4)
        grad_check(lambda p: contracted(ad.softmax(p)),
                   rng.normal(size=(n, 4)), tol=1e-4)
        grad_check(lambda p: contracted(ad.log_variance(p)),
                   rng.normal(size=(k, t)), tol=1e-4)
        dense_w = ad.constant(rng.normal(size=(c, k)))
        dense_b = ad.constant(rng.normal(size=k))
        grad_check(lambda p: contracted(ad.dense(p, dense_w, dense_b)),
                   rng.normal(size=(n, c)), tol=1e-4)

        bn_gamma = ad.constant(rng.normal(size=k))
        bn_beta = ad.constant(rng.normal(size=k))

        def bn_loss(p):
            out = ad.batch_norm(p, ad.BatchNorm(bn_gamma, bn_beta), training=True)
            return contracted(out)

        grad_check(bn_loss, rng.normal(size=(n + 2, k, c, t)), tol=1e-4)
