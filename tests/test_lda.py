import numpy as np
import pytest

from ccspnet import autodiff as ad
from ccspnet import lda
from ccspnet.errors import DataError, NumericalError

from oracles import central_difference, rel_err


def fisher_j(projected, labels):
    """J of a fixed projection, through the graph op."""
    return lda.fisher_criterion_node(ad.constant(projected), labels).value


def embed_1d(values, d=4):
    """Place scalar values on the first axis of a d-dimensional space."""
    out = np.zeros((len(values), d))
    out[:, 0] = values
    return out


class TestFit:
    def test_separable_clusters_on_first_axis(self):
        eps = 0.01
        feats = embed_1d([-1 - eps, -1 + eps, 1 - eps, 1 + eps])
        labels = np.array([0, 0, 1, 1])
        model = lda.fit(feats, labels)
        assert abs(abs(model.w[0]) - 1.0) < 1e-9
        assert np.allclose(model.w[1:], 0.0, atol=1e-9)
        assert model.mu0 == pytest.approx(-1.0, abs=0.02)
        assert model.mu1 == pytest.approx(1.0, abs=0.02)

    def test_isotropic_gaussians_recover_mean_axis(self):
        rng = np.random.default_rng(0)
        n = 4000
        f0 = rng.normal(size=(n, 4))
        f1 = rng.normal(size=(n, 4)) + np.array([1.0, 0, 0, 0])
        feats = np.vstack([f0, f1])
        labels = np.array([0] * n + [1] * n)
        model = lda.fit(feats, labels)
        assert abs(model.w[0]) > 0.99

    @pytest.mark.parametrize("seed", range(10))
    def test_fitted_direction_beats_random_directions(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 40
        offset = rng.normal(size=4) * 2
        f0 = rng.normal(size=(n, 4))
        f1 = rng.normal(size=(n, 4)) + offset
        feats = np.vstack([f0, f1])
        labels = np.array([0] * n + [1] * n)
        model = lda.fit(feats, labels)
        j_fitted = fisher_j(feats @ model.w, labels)
        # oracle: brute-force random unit directions
        for _ in range(50):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert j_fitted <= fisher_j(feats @ v, labels) + 1e-12

    def test_sign_convention_mu1_above_mu0(self):
        rng = np.random.default_rng(1)
        feats = np.vstack([rng.normal(size=(10, 4)), rng.normal(size=(10, 4)) + 1])
        model = lda.fit(feats, np.array([0] * 10 + [1] * 10))
        assert model.mu1 > model.mu0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(20, 4))
        labels = np.array([0, 1] * 10)
        a = lda.fit(feats, labels)
        b = lda.fit(feats.copy(), labels.copy())
        assert np.array_equal(a.w, b.w)
        assert (a.mu0, a.mu1) == (b.mu0, b.mu1)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            lda.fit(np.random.default_rng(3).normal(size=(5, 4)), np.zeros(5, dtype=int))


class TestFisherCriterion:
    def test_zero_within_class_variance(self):
        g = np.array([0.0, 0.0, 1.0, 1.0])
        labels = np.array([0, 0, 1, 1])
        assert fisher_j(g, labels) == 0.0

    def test_hand_computed_value(self):
        g = np.array([-1.0, 1.0, 2.0, 4.0])
        labels = np.array([0, 0, 1, 1])
        assert fisher_j(g, labels) == pytest.approx(2.0 / 9.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=12)
        labels = np.array([0, 1] * 6)
        base = fisher_j(g, labels)
        assert fisher_j(-2.5 * g + 7.0, labels) == pytest.approx(base)

    def test_equal_means_rejected(self):
        with pytest.raises(NumericalError):
            fisher_j(np.array([0.0, 1.0, 1.0, 0.0]), np.array([0, 0, 1, 1]))

    @pytest.mark.parametrize("seed", range(10))
    def test_node_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(6, 20))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        g0 = rng.normal(size=n) + labels * rng.uniform(1, 3)
        p = ad.Parameter(g0.copy())
        j = lda.fisher_criterion_node(p, labels)
        assert j.value == pytest.approx(fisher_j(g0, labels))
        j.backward()
        fd = central_difference(
            lambda x: fisher_j(x, labels), g0.copy())
        assert rel_err(p.grad, fd) < 1e-4


class TestCombinedLoss:
    def test_r_zero_returns_fisher(self):
        assert lda.combined_loss(5.0, 2.0, 0.0) == 2.0

    def test_r_one_returns_csp_loss(self):
        assert lda.combined_loss(5.0, 2.0, 1.0) == 5.0

    def test_weighted_average(self):
        assert lda.combined_loss(2.0, 1.0, 0.3) == pytest.approx(1.3)

    def test_r_out_of_range_rejected(self):
        with pytest.raises(NumericalError):
            lda.combined_loss(1.0, 1.0, 1.5)


class TestPredict:
    def fitted(self):
        return lda.LdaModel(w=np.array([1.0, 0, 0, 0]), mu0=-1.0, mu1=1.0)

    def test_projection_on_class_mean(self):
        model = self.fitted()
        assert lda.predict(model, embed_1d([1.0]))[0] == 1
        assert lda.predict(model, embed_1d([-1.0]))[0] == 0

    def test_midpoint_tie_goes_to_class_zero(self):
        model = self.fitted()
        assert lda.predict(model, embed_1d([0.0]))[0] == 0

    def test_training_set_accuracy_on_separable_data(self):
        eps = 0.01
        feats = embed_1d([-1 - eps, -1 + eps, 1 - eps, 1 + eps])
        labels = np.array([0, 0, 1, 1])
        model = lda.fit(feats, labels)
        # oracle: direct distance computation
        proj = feats @ model.w
        expected = (np.abs(proj - model.mu1) < np.abs(proj - model.mu0)).astype(int)
        assert np.array_equal(lda.predict(model, feats), expected)
        assert np.array_equal(lda.predict(model, feats), labels)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(30, 4))
        model = self.fitted()
        scaled = lda.LdaModel(w=3.0 * model.w, mu0=3.0 * model.mu0,
                              mu1=3.0 * model.mu1)
        assert np.array_equal(lda.predict(model, feats), lda.predict(scaled, feats))

    def test_zero_within_class_variance_perfect_fit(self):
        feats = embed_1d([0.0, 0.0, 1.0, 1.0])
        labels = np.array([0, 0, 1, 1])
        model = lda.fit(feats, labels)
        assert fisher_j(feats @ model.w, labels) == pytest.approx(0.0, abs=1e-9)
        assert np.array_equal(lda.predict(model, feats), labels)
