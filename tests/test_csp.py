import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

from ccspnet import autodiff as ad
from ccspnet import csp, model
from ccspnet.errors import DataError, NumericalError

from oracles import (central_difference, class_covariances_einsum,
                     class_covariances_stacked, project_channels_einsum, rel_err)
from test_model import desk_batch, desk_config


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n) * 0.1


class TestClassCovariances:
    def test_trace_normalization_white_noise(self):
        rng = np.random.default_rng(0)
        c = 8
        batch = rng.normal(size=(40, c, 500))
        batch[20:] *= 5.0  # per-class scaling is removed by trace normalization
        labels = np.array([0] * 20 + [1] * 20)
        s0, s1 = csp.class_covariances(batch, labels)
        assert np.allclose(s0, np.eye(c) / c, atol=0.02)
        assert np.allclose(s1, np.eye(c) / c, atol=0.02)

    def test_deterministic_single_channel_sources(self):
        t = np.sin(2 * np.pi * np.arange(100) / 10)
        trial0 = np.stack([t, np.zeros(100)])
        trial1 = np.stack([np.zeros(100), t])
        batch = np.stack([trial0, trial1])
        s0, s1 = csp.class_covariances(batch, np.array([0, 1]))
        assert np.allclose(s0, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(s1, np.diag([0.0, 1.0]), atol=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(12, 6, 50))
        labels = rng.integers(0, 2, size=12)
        labels[:2] = [0, 1]
        for s in csp.class_covariances(batch, labels):
            assert np.allclose(s, s.T, atol=1e-12)
            # oracle: eigensolver confirms positive semi-definiteness
            assert np.linalg.eigvalsh(s).min() >= -1e-10

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_trial_rejected(self, value):
        batch = np.random.default_rng(6).normal(size=(4, 3, 20))
        batch[2, 1, 5] = value
        with pytest.raises(NumericalError, match="^non-finite trial power"):
            csp.class_covariances(batch, np.array([0, 1, 0, 1]))

    def test_single_class_rejected(self):
        batch = np.random.default_rng(2).normal(size=(4, 3, 20))
        with pytest.raises(DataError):
            csp.class_covariances(batch, np.zeros(4, dtype=int))

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_other_than_0_and_1_rejected(self, label):
        # a running sum indexed by label would drop a 2 and count a -1 as class 1
        batch = np.random.default_rng(3).normal(size=(4, 3, 20))
        with pytest.raises(DataError, match=f"label {label} is not 0 or 1"):
            csp.class_covariances(batch, np.array([0, 1, label, 1]))

    @pytest.mark.parametrize("n_labels", [3, 5])
    @pytest.mark.parametrize("stream", [False, True])
    def test_label_count_other_than_trial_count_rejected(self, n_labels, stream):
        batch = np.random.default_rng(4).normal(size=(4, 3, 20))
        trials = (batch[i:i + 3] for i in range(0, 4, 3)) if stream else batch
        with pytest.raises(DataError, match=f"{n_labels} CSP labels for 4 trials"):
            csp.class_covariances(trials, np.arange(n_labels) % 2)

    @pytest.mark.parametrize("n", [2, 300])
    def test_streamed_sum_matches_the_stacked_mean_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        # a strided map slice, as the model hands each branch over
        batch = rng.normal(size=(n, 4, 10, 60))[:, 2]
        labels = np.arange(n) % 2
        want = class_covariances_stacked(batch, labels)
        # the whole batch as one block, and blocks of 7 trials and of one
        for trials in (batch, [batch[i:i + 7] for i in range(0, n, 7)], list(batch[:, None])):
            for got, expected in zip(csp.class_covariances(trials, labels), want):
                np.testing.assert_array_equal(got, expected)

    def test_generator_may_refill_one_buffer(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(7, 5, 30))
        labels = np.array([0, 1, 1, 0, 1, 0, 0])
        buffer = np.empty((3, 5, 30))

        def refilled():
            for start in range(0, 7, 3):
                block = buffer[:len(batch[start:start + 3])]
                block[...] = batch[start:start + 3]
                yield block

        for got, want in zip(csp.class_covariances(refilled(), labels),
                             class_covariances_stacked(batch, labels)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 300])
    def test_matches_einsum_oracle(self, n):
        rng = np.random.default_rng(n)
        # a strided map slice, as the model hands each branch over
        batch = rng.normal(size=(n, 4, 10, 60))[:, 2]
        labels = np.arange(n) % 2
        for got, want in zip(csp.class_covariances(batch, labels),
                             class_covariances_einsum(batch, labels)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


class TestSolveCsp:
    def test_diagonal_case(self):
        w, lam = csp.solve_csp(np.diag([0.9, 0.1]), np.diag([0.1, 0.9]))
        assert np.allclose(lam, [0.9, 0.1], atol=1e-6)
        assert np.allclose(np.abs(w), np.eye(2), atol=1e-6)

    def test_equal_covariances_give_half(self):
        rng = np.random.default_rng(3)
        s = random_spd(rng, 5)
        s /= np.trace(s)
        _, lam = csp.solve_csp(s, s)
        assert np.allclose(lam, 0.5, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_generalized_eigen_residual(self, seed):
        rng = np.random.default_rng(100 + seed)
        c = int(rng.integers(4, 17))
        s0, s1 = random_spd(rng, c), random_spd(rng, c)
        w, lam = csp.solve_csp(s0, s1)
        comp = s0 + s1
        for i in range(c):
            # oracle: direct residual of the generalized eigen equation
            residual = s0 @ w[:, i] - lam[i] * comp @ w[:, i]
            assert np.linalg.norm(residual) < 1e-8 * max(1.0, np.linalg.norm(comp))

    def test_whitening_property(self):
        rng = np.random.default_rng(4)
        s0, s1 = random_spd(rng, 8), random_spd(rng, 8)
        w, _ = csp.solve_csp(s0, s1)
        gram = w.T @ (s0 + s1) @ w
        assert np.allclose(gram, np.eye(8), atol=1e-6)

    def test_eigenvalues_descending_in_unit_interval(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(20, 6, 80))
        labels = np.array([0, 1] * 10)
        s0, s1 = csp.class_covariances(batch, labels)
        _, lam = csp.solve_csp(s0, s1)
        assert np.all(np.diff(lam) <= 1e-12)
        assert np.all(lam >= -1e-10) and np.all(lam <= 1 + 1e-10)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(6)
        s0, s1 = random_spd(rng, 6), random_spd(rng, 6)
        _, lam_a = csp.solve_csp(s0, s1)
        _, lam_b = csp.solve_csp(s1, s0)
        assert np.allclose(lam_a + lam_b[::-1], 1.0, atol=1e-8)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(7)
        s0, s1 = random_spd(rng, 6), random_spd(rng, 6)
        w1, _ = csp.solve_csp(s0, s1)
        w2, _ = csp.solve_csp(s0.copy(), s1.copy())
        assert np.array_equal(w1, w2)
        peaks = np.argmax(np.abs(w1), axis=0)
        assert np.all(w1[peaks, np.arange(6)] > 0)


def rank_deficient_pair(n, seed):
    """Two covariances whose composite has rank n - 1: sigma0 from the first
    (n - 1) // 2 columns of an n x (n - 1) normal draw, sigma1 from the rest."""
    a = np.random.default_rng(seed).normal(size=(n, n - 1))
    k = (n - 1) // 2
    return tuple(0.5 * (s + s.T) for s in (p @ p.T for p in (a[:, :k], a[:, k:])))


def sorted_and_sign_fixed(eigvals, eigvecs):
    """Columns by descending eigenvalue, each with its largest-magnitude entry
    positive."""
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    signs = np.sign(eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(len(eigvals))])
    signs[signs == 0] = 1.0
    return eigvecs * signs, eigvals


def within_unit_interval(lam):
    return lam.min() >= -csp.EIGENVALUE_SLACK and lam.max() <= 1 + csp.EIGENVALUE_SLACK


class TestRidge:
    def test_rank_deficient_composites_solve_in_the_unit_interval(self):
        # eigh cannot factor some of these composites, and factors others
        # whose zero eigenvalue rounded positive, giving eigenvalues far
        # outside [0, 1]; both take the ridge
        cases = {"factored": 0, "raised": 0, "out of range": 0}
        for n in (4, 8, 16):
            for seed in range(200):
                s0, s1 = rank_deficient_pair(n, seed)
                w, lam = csp.solve_csp(s0, s1)
                assert within_unit_interval(lam)
                composite = s0 + s1
                try:
                    want = linalg.eigh(s0, composite)
                    case = "factored" if within_unit_interval(want[0]) else "out of range"
                except linalg.LinAlgError:
                    case = "raised"
                cases[case] += 1
                if case != "factored":
                    ridge = csp.RIDGE_SCALE * np.trace(composite) / n
                    want = linalg.eigh(s0, composite + ridge * np.eye(n))
                want_w, want_lam = sorted_and_sign_fixed(*want)
                assert np.array_equal(w, want_w) and np.array_equal(lam, want_lam)
        assert min(cases.values()) > 0, cases

    def test_composite_the_ridge_cannot_mend_is_numerical_error(self):
        # the ridge scales with the trace, so an indefinite composite stays so
        with pytest.raises(NumericalError, match="^composite covariance not positive definite"):
            csp.solve_csp(-np.eye(4), np.zeros((4, 4)))

    def test_one_factorization_per_csp_solve(self):
        # the Cholesky factorization inside linalg.eigh decides the ridge: no
        # other eigensolver or Cholesky call in the package
        package = Path(csp.__file__).parent
        hits = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines()
                if re.search(r"cholesky|cho_\w+\(|eig\w*\(", line, re.IGNORECASE)]
        assert hits == [
            ("csp.py", "eigvals, eigvecs = linalg.eigh(sigma0, composite)"),
            ("csp.py", "eigvals, eigvecs = linalg.eigh(sigma0, composite + ridge * np.eye(n))")]


class TestReduceProjection:
    def test_four_channels_keep_everything(self):
        w = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(csp.reduce_projection(w), w)

    def test_paper_shape(self):
        w = np.random.default_rng(8).normal(size=(62, 62))
        assert csp.reduce_projection(w).shape == (62, 4)

    def test_selected_columns_stay_whitened(self):
        rng = np.random.default_rng(9)
        s0, s1 = random_spd(rng, 10), random_spd(rng, 10)
        w, _ = csp.solve_csp(s0, s1)
        wr = csp.reduce_projection(w)
        gram = wr.T @ (s0 + s1) @ wr
        assert np.allclose(np.diag(gram), 1.0, atol=1e-8)

    def test_too_few_channels_rejected(self):
        with pytest.raises(NumericalError):
            csp.reduce_projection(np.eye(3))


def assert_branches_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in fields(csp.CspBranch):
            np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))


class TestFitBranches:
    def test_matches_fit_branch_of_each_branch(self):
        rng = np.random.default_rng(9)
        maps = rng.normal(size=(30, 3, 6, 40))
        labels = np.arange(30) % 2
        want = [csp.fit_branch(*csp.class_covariances(maps[:, k], labels)) for k in range(3)]
        # the branches of an N x K x C x T array, as training hands them over
        assert_branches_equal(csp.fit_branches(np.moveaxis(maps, 1, 0), labels), want)
        # each branch a stream of blocks of consecutive trials, as finalize does
        streams = ([maps[i:i + 7, k] for i in range(0, 30, 7)] for k in range(3))
        assert_branches_equal(csp.fit_branches(streams, labels), want)

    @pytest.mark.parametrize("entry", ["train_step", "finalize"])
    def test_every_sum_before_any_solve(self, monkeypatch, entry):
        calls = []
        for name in ("class_covariances", "fit_branch"):
            def recorded(*args, _name=name, _fn=getattr(csp, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(csp, name, recorded)
        cfg = desk_config()
        trials, labels = desk_batch(np.random.default_rng(3))
        getattr(model.CCSPNet(cfg), entry)(trials, labels)
        k = cfg.n_wavelet_kernels
        assert calls == ["class_covariances"] * k + ["fit_branch"] * k

    def test_one_refit_and_one_feature_flattening(self):
        # only fit_branches refits CSP, and only _dense_forward flattens the
        # N x K x 4 features to N x 4K
        package = Path(csp.__file__).parent
        hits = []
        for path in sorted(package.glob("*.py")):
            function = None
            for line in path.read_text(encoding="utf-8").splitlines():
                defined = re.match(r"\s*def (\w+)", line)
                if defined:
                    function = defined.group(1)
                elif re.search(r"\b(fit_branch|class_covariances)\(|feats[\w.]*\.reshape\("
                               r"|reshape\(-1, 4 \*", line):
                    hits.append((path.name, function, line.strip()))
        assert hits == [
            ("csp.py", "fit_branches",
             "covariances = [class_covariances(maps, labels) for maps in branch_maps]"),
            ("csp.py", "fit_branches", "return [fit_branch(*pair) for pair in covariances]"),
            ("model.py", "_dense_forward",
             "x = ad.constant(feats.value.reshape(-1, 4 * self.config.n_wavelet_kernels))")]


class TestSpatialFilterFeatures:
    def test_known_projected_variances(self):
        rng = np.random.default_rng(10)
        s0, s1 = random_spd(rng, 6), random_spd(rng, 6)
        w, _ = csp.solve_csp(s0, s1)
        wr = csp.reduce_projection(w)
        # construct a trial whose projection is exactly a known source matrix
        target_vars = np.array([1.0, 4.0, 0.25, 9.0])
        t_len = 64
        sources = np.zeros((4, t_len))
        for i, v in enumerate(target_vars):
            sources[i] = np.sqrt(v) * np.sqrt(2) * np.sin(
                2 * np.pi * (i + 1) * np.arange(t_len) / t_len)
        x = np.linalg.pinv(wr.T) @ sources
        feats = csp.spatial_filter_features(ad.constant(x[None]), wr).value
        # oracle: direct variance computation on the planted sources
        assert np.allclose(feats[0], np.log(sources.var(axis=1)), atol=1e-8)

    def test_scaling_shift(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 6, 100))
        wr = rng.normal(size=(6, 4))
        base = csp.spatial_filter_features(ad.constant(x), wr).value
        doubled = csp.spatial_filter_features(ad.constant(2 * x), wr).value
        assert np.allclose(doubled - base, 2 * np.log(2))

    def test_identity_projection_unit_variance(self):
        t = np.tile([1.0, -1.0], 50)
        x = np.stack([t, t, t, t])[None]
        feats = csp.spatial_filter_features(ad.constant(x), np.eye(4)).value
        assert np.allclose(feats, 0.0)

    @pytest.mark.parametrize("n", [1, 300])
    def test_matches_einsum_oracle(self, n):
        rng = np.random.default_rng(n)
        batch = rng.normal(size=(n, 4, 10, 60))[:, 1]
        wr = rng.normal(size=(10, 4))
        projected, _ = project_channels_einsum(wr, batch, np.zeros((n, 4, 60)))
        np.testing.assert_allclose(csp.spatial_filter_features(ad.constant(batch), wr).value,
                                   np.log(projected.var(axis=-1)), rtol=1e-10, atol=1e-10)


class TestCspLoss:
    def test_uniform_features_closed_form(self):
        n = 3
        feats = ad.constant(np.zeros((n, 4, 4)))
        labels = np.array([0, 1, 0])
        loss = csp.csp_loss(feats, labels)
        expected_per_branch = -(2 * np.log(0.25) + 2 * np.log(0.75))
        assert loss.value == pytest.approx(4 * expected_per_branch, rel=1e-10)
        assert loss.value == pytest.approx(4 * 3.3479, abs=2e-3)

    def test_perfect_prediction_near_zero(self):
        big = 60.0
        feats = np.tile([big, big, -big, -big], (1, 4, 1))
        loss = csp.csp_loss(ad.constant(feats), np.array([1]))
        # softmax of [big, big, -big, -big] is [.5, .5, 0, 0]; BCE floor is 4*2*ln 2
        assert loss.value == pytest.approx(8 * np.log(2), abs=1e-6)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(6, 4))
        branches = np.repeat(v[:, None], 4, axis=1)
        loss_a = csp.csp_loss(ad.constant(branches), np.ones(6, dtype=int))
        loss_b = csp.csp_loss(ad.constant(branches[..., ::-1].copy()),
                              np.zeros(6, dtype=int))
        assert loss_a.value == pytest.approx(loss_b.value, rel=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(14)
        labels = np.array([0, 1, 1, 0, 1])

        def loss(p):
            return csp.csp_loss(p, labels)

        p = ad.Parameter(rng.normal(size=(5, 4, 4)))
        out = loss(p)
        out.backward()
        fd = central_difference(lambda x: float(loss(ad.Parameter(x)).value),
                                p.value.copy())
        assert rel_err(p.grad, fd) < 1e-4

    def test_gradient_through_spatial_features(self):
        # full branch path: projection -> log variance -> softmax -> BCE
        rng = np.random.default_rng(15)
        wr = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 0, 1])

        def loss_value(x):
            feats = csp.spatial_filter_features(
                x if isinstance(x, ad.Node) else ad.Parameter(x), wr[None])
            return csp.csp_loss(feats, labels)

        # one branch: N x 1 x C x T maps
        x0 = rng.normal(size=(4, 6, 30))[:, None]
        p = ad.Parameter(x0.copy())
        loss = loss_value(p)
        loss.backward()
        fd = central_difference(lambda x: float(loss_value(x).value), x0.copy())
        assert rel_err(p.grad, fd) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_features_without_branch_axis_are_the_mean_cross_entropy(self, seed):
        # N x 4 features, the lda ablation's dense outputs, give the mean BCE
        # of their softmax against the targets: value and gradient to the bit
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, size=n)
        x = ad.Parameter(rng.normal(scale=3.0, size=(n, 4)))
        twin = ad.Parameter(x.value.copy())
        loss = csp.csp_loss(x, labels)
        expected = ad.scale(ad.binary_cross_entropy(ad.softmax(twin),
                                                    csp.target_vectors(labels)), 1 / n)
        assert np.array_equal(loss.value, expected.value)
        loss.backward(seed=0.75)
        expected.backward(seed=0.75)
        assert np.array_equal(x.grad, twin.grad)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2, 5), (3,)])
    def test_other_feature_shapes_rejected(self, shape):
        with pytest.raises(NumericalError):
            csp.csp_loss(ad.constant(np.zeros(shape)), np.array([0, 1, 0]))

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(DataError):
            csp.target_vectors(np.array([0, 2]))


class TestDiscriminabilityMonotonicity:
    def test_feature_gap_grows_with_planted_ratio(self):
        rng = np.random.default_rng(16)
        c, t, n = 6, 200, 60
        mixing = rng.normal(size=(c, c)) + 2 * np.eye(c)
        gaps = []
        for ratio in (1.0, 2.0, 4.0, 8.0):
            sources = rng.normal(size=(2 * n, c, t))
            sources[:n, 0] *= np.sqrt(ratio)  # class 0 boosts source 0
            batch = np.einsum("cd,ndt->nct", mixing, sources)
            labels = np.array([0] * n + [1] * n)
            branch = csp.fit_branch(*csp.class_covariances(batch, labels))
            feats = csp.spatial_filter_features(ad.constant(batch), branch.w_reduced).value
            gaps.append(feats[:n, 0].mean() - feats[n:, 0].mean())
        assert gaps[0] < gaps[1] < gaps[2] < gaps[3]
