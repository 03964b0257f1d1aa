import copy
import gc
import struct
import weakref
from dataclasses import fields

import numpy as np
import pytest

from ccspnet import autodiff as ad
from ccspnet import csp, data, model
from ccspnet.errors import ConfigError, DataError, ModelStateError

from oracles import rel_err


def desk_config(**overrides):
    base = dict(n_channels=6, n_timepoints=40, wavelet_len=8, temporal_len=16,
                epochs=3, batch_size=16, seed=0)
    base.update(overrides)
    return model.ModelConfig(**base)


def every_field_changed():
    """A config with a non-default value in every field."""
    cfg = model.ModelConfig(
        n_channels=16, n_timepoints=100, n_wavelet_kernels=3, wavelet_len=16,
        n_temporal_kernels=3, temporal_len=24, dense_dims=(12, 6, 4),
        loss_ratio=0.25, lr_wavelet=0.002, lr_main=0.1 + 0.2, l1=1e-3, l2=0.2,
        epochs=7, batch_size=50, seed=123, sample_rate_hz=128.0, ablate="tcnn")
    default = model.ModelConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
    return cfg


def edit_config_text(path, old, new):
    """Replace `old` by `new` in the config text of the .ccsp file at `path`."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 7)
    text = blob[11:11 + n].decode("utf-8")
    assert old in text
    text = text.replace(old, new).encode("utf-8")
    path.write_bytes(blob[:7] + struct.pack("<I", len(text)) + text + blob[11 + n:])


def corrupt_first_array_name(path):
    """Set the first byte of the first array name in the .ccsp file at `path`
    to 0xff, which no UTF-8 text starts with."""
    blob = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<I", blob, 7)
    # config text, array count, name length
    blob[11 + n + 4 + 2] = 0xFF
    path.write_bytes(bytes(blob))


def set_first_array_shape(path, shape):
    """Give the first array in the .ccsp file at `path` (a scalar) the header
    of an array of `shape`, leaving the bytes after it as they are."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 7)
    at = 11 + n + 4
    (name_len,) = struct.unpack_from("<H", blob, at)
    at += 2 + name_len
    assert blob[at] == 0
    header = struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)
    path.write_bytes(blob[:at] + header + blob[at + 1:])


def rewrite_arrays(path, edit):
    """Rewrite the arrays of the .ccsp file at `path` as `edit` returns them
    from its list of (name, array) pairs, keeping the header as it is."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 7)
    at = 11 + n + 4
    items = []
    for _ in range(struct.unpack_from("<I", blob, 11 + n)[0]):
        (name_len,) = struct.unpack_from("<H", blob, at)
        name = blob[at + 2:at + 2 + name_len].decode("utf-8")
        at += 2 + name_len
        shape = struct.unpack_from(f"<{blob[at]}I", blob, at + 1)
        at += 1 + 4 * len(shape)
        size = 8 * int(np.prod(shape))
        items.append((name, np.frombuffer(blob[at:at + size], "<f8").reshape(shape)))
        at += size
    items = edit(items)
    out = blob[:11 + n] + struct.pack("<I", len(items))
    for name, arr in items:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f8").tobytes()
    path.write_bytes(out)


def desk_batch(rng, n=16, c=6, t=40):
    labels = np.arange(n) % 2
    trials = rng.normal(size=(n, c, t))
    # plant a weak class-dependent rhythm so CSP and LDA are well posed
    tone = np.sin(2 * np.pi * 10 * np.arange(t) / 100.0)
    trials[labels == 1, 0] += 0.5 * tone
    return trials, labels


@pytest.fixture(scope="module")
def synth_subject():
    """Preprocessed single-subject synthetic set with an SD split."""
    cfg = data.SynthConfig(n_subjects=1, seed=3)
    proc = data.preprocess(data.synthesize(cfg))
    return data.split_sd(proc)


class TestForwardSpectral:
    def test_full_scale_shapes(self):
        net = model.CCSPNet(model.ModelConfig())
        rng = np.random.default_rng(0)
        out = net.forward_spectral(rng.normal(size=(2, 62, 250)), training=False)
        assert out.shape == (2, 4, 62, 250)

    def test_wavelet_init_frequencies(self):
        net = model.CCSPNet(model.ModelConfig())
        freqs = [float(f.value) for f, _, _ in net.wavelet]
        assert freqs == pytest.approx([8.0, 15.333333333333334,
                                       22.666666666666668, 30.0])

    def test_zero_input_zero_output_eval_mode(self):
        net = model.CCSPNet(desk_config())
        out = net.forward_spectral(np.zeros((3, 6, 40)), training=False)
        assert np.allclose(out.value, 0.0)

    def test_map_order_follows_wavelet_index(self):
        # zeroing one wavelet's frequency band response is hard to isolate, so
        # check the cheap invariant instead: map i depends only on kernel i
        net = model.CCSPNet(desk_config(ablate="tcnn"))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 40))
        base = net.forward_spectral(x, training=False).value
        net.wavelet[2][0].value = np.asarray(12.0)  # move kernel 2 only
        moved = net.forward_spectral(x, training=False).value
        changed = [not np.allclose(base[:, i], moved[:, i]) for i in range(4)]
        assert changed == [False, False, True, False]

    def test_channel_mismatch_rejected(self):
        net = model.CCSPNet(desk_config())
        with pytest.raises(DataError):
            net.forward_spectral(np.zeros((2, 7, 40)), training=False)

    def test_stages_recorded_along_the_forward(self):
        net = model.CCSPNet(desk_config())
        x = np.random.default_rng(2).normal(size=(3, 6, 40))
        stages = {}
        out = net.forward_spectral(x, training=False, stages=stages)
        assert set(stages) == {"raw", "wkcnn", "tcnn"}
        np.testing.assert_array_equal(stages["raw"], x)
        assert stages["wkcnn"].shape == (3, 4, 6, 40)
        assert stages["tcnn"] is out.value

    def test_stages_of_a_wrongly_shaped_batch_rejected(self):
        net = model.CCSPNet(desk_config(n_channels=8, n_timepoints=64))
        stages = {}
        with pytest.raises(DataError):
            net.forward_spectral(np.zeros((2, 7, 40)), training=False,
                                 stages=stages)
        assert stages == {}


class TestConfigValidation:
    def test_kernel_count_pairing(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(n_wavelet_kernels=4, n_temporal_kernels=2).validate()

    def test_unknown_ablation(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(ablate="nonsense").validate()

    def test_loss_ratio_range(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(loss_ratio=1.5).validate()

    @pytest.mark.parametrize("overrides, name", [
        (dict(n_wavelet_kernels=0, n_temporal_kernels=0), "n_wavelet_kernels"),
        (dict(wavelet_len=0), "wavelet_len"),
        (dict(wavelet_len=-3), "wavelet_len"),
        (dict(temporal_len=0), "temporal_len"),
        (dict(dense_dims=(0, 4)), "dense_dims"),
        (dict(dense_dims=(-2, 4)), "dense_dims"),
    ])
    def test_sizes_below_one_rejected(self, overrides, name):
        with pytest.raises(ConfigError, match=name):
            model.ModelConfig(**overrides).validate()


class TestTrainStep:
    def test_zero_learning_rates_freeze_parameters(self):
        net = model.CCSPNet(desk_config(lr_wavelet=0.0, lr_main=0.0))
        rng = np.random.default_rng(2)
        trials, labels = desk_batch(rng)
        before = {name: p.value.copy() for name, p in net._params.items()}
        net.train_step(trials, labels)
        for name, p in net._params.items():
            assert np.array_equal(p.value, before[name]), name

    def test_r_one_gives_dense_zero_gradient(self):
        net = model.CCSPNet(desk_config(loss_ratio=1.0))
        rng = np.random.default_rng(3)
        trials, labels = desk_batch(rng)
        net.train_step(trials, labels)
        for w in net.dense_w:
            assert w.grad is None or np.all(np.asarray(w.grad) == 0.0)
        # the CNN side still receives gradient from the feedback loss
        assert np.any(net.temporal_kernels.grad != 0.0)

    def test_single_class_batch_rejected(self):
        net = model.CCSPNet(desk_config())
        rng = np.random.default_rng(4)
        trials, _ = desk_batch(rng)
        with pytest.raises(Exception, match="class"):
            net.train_step(trials, np.zeros(len(trials), dtype=int))

    def test_wavelet_frequencies_stay_in_band(self):
        net = model.CCSPNet(desk_config(lr_wavelet=5.0, epochs=1))
        rng = np.random.default_rng(5)
        trials, labels = desk_batch(rng)
        for _ in range(5):
            net.train_step(trials, labels)
            for f, h, _ in net.wavelet:
                assert 8.0 <= float(f.value) <= 30.0
                assert float(h.value) > 0

    def test_label_symmetry_feedback_loss_trajectory(self):
        rng = np.random.default_rng(6)
        trials, labels = desk_batch(rng)
        runs = []
        for y in (labels, 1 - labels):
            net = model.CCSPNet(desk_config(seed=11))
            net.train(trials, y)
            runs.append([row[2] for row in net.history])
        assert np.allclose(runs[0], runs[1], rtol=1e-9, atol=1e-12)


def plain_batches(order, batch_size):
    return [order[i:i + batch_size] for i in range(0, len(order), batch_size)]


def can_train(batch_labels):
    return len(batch_labels) >= 2 and len(np.unique(batch_labels)) == 2


class TestTrainBatches:
    @pytest.mark.parametrize("n, seed, error", [
        (21, 0, "batch size >= 2"),       # a one-trial tail
        (22, 9, "missing from batch"),    # a one-class tail of 2
        (24, 23, "missing from batch"),   # a one-class tail of 4
    ])
    def test_untrainable_tail_merges_into_previous_batch(self, n, seed, error):
        trials, labels = desk_batch(np.random.default_rng(n), n=n)
        net = model.CCSPNet(desk_config(batch_size=10, epochs=1, seed=seed))
        order = copy.deepcopy(net._rng).permutation(n)
        tail = plain_batches(order, 10)[-1]
        assert not can_train(labels[tail])
        # the plain tail batch raises what training used to raise
        with pytest.raises(Exception, match=error):
            model.CCSPNet(desk_config(seed=seed)).train_step(trials[tail], labels[tail])
        net.train(trials, labels)
        assert [row[1] for row in net.history] == [0.0, 1.0]

    def test_batches_that_train_are_unchanged(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(2, 60))
            batch_size = int(rng.integers(1, 25))
            labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
            order = rng.permutation(n)
            plain = plain_batches(order, batch_size)
            got = model._train_batches(order, labels, batch_size)
            # merges join neighbours, so the epoch order is kept
            np.testing.assert_array_equal(np.concatenate(got), order)
            if all(can_train(labels[b]) for b in plain):
                assert len(got) == len(plain)
                for a, b in zip(got, plain):
                    np.testing.assert_array_equal(a, b)
                checked += 1
            elif len(got) > 1 or can_train(labels):
                assert all(can_train(labels[b]) for b in got)
        assert checked > 50

    def test_training_steps_on_the_plain_batches(self):
        # end to end: train() gives the parameters of train_step over the
        # plain slices of each epoch's permutation
        trials, labels = desk_batch(np.random.default_rng(3), n=40)
        cfg = desk_config(batch_size=8, epochs=2, seed=5)
        net = model.CCSPNet(cfg)
        replay = model.CCSPNet(cfg)
        net.train(trials, labels)
        for _ in range(cfg.epochs):
            for idx in plain_batches(replay._rng.permutation(len(trials)), 8):
                replay.train_step(trials[idx], labels[idx])
        for name, p in net._params.items():
            np.testing.assert_array_equal(p.value, replay._params[name].value)


class TestEndToEndGradient:
    def test_feedback_loss_gradient_matches_finite_differences(self):
        cfg = desk_config(n_channels=6, n_timepoints=40, seed=7)
        net = model.CCSPNet(cfg)
        rng = np.random.default_rng(8)
        trials, labels = desk_batch(rng, n=8)
        net.optimizer.zero_grad()
        loss, _, wrs = net.csp_feedback_loss(trials, labels, training=True)
        loss.backward()
        grads = {name: None if p.grad is None else np.array(p.grad)
                 for name, p in net._params.items()}

        def loss_at(param, value):
            saved = param.value
            param.value = np.asarray(value)
            out = float(net.csp_feedback_loss(trials, labels, training=True,
                                              frozen_wr=wrs)[0].value)
            param.value = saved
            return out

        checked = 0
        for name in list(net._params):
            if not (name.startswith("wavelet.") or name == "temporal.kernels"):
                continue
            p = net._params[name]
            g = grads[name]
            flat = p.value.reshape(-1)
            fd = np.zeros(flat.shape)
            for i in range(flat.size):
                eps = 1e-6 * max(1.0, abs(flat[i]))
                bumped = p.value.copy().reshape(-1)
                bumped[i] = flat[i] + eps
                hi = loss_at(p, bumped.reshape(p.value.shape))
                bumped[i] = flat[i] - eps
                lo = loss_at(p, bumped.reshape(p.value.shape))
                fd[i] = (hi - lo) / (2 * eps)
            assert rel_err(np.asarray(g).reshape(-1), fd) < 1e-3, name
            checked += 1
        assert checked == 13  # 12 wavelet scalars + the temporal kernel bank


class TestStackedBranches:
    """All CSP branches in one projection against one per branch."""

    def test_feedback_loss_and_gradients_match_per_branch_sum(self):
        net = model.CCSPNet(desk_config(seed=4))
        trials, labels = desk_batch(np.random.default_rng(5))
        _, _, wrs = net.csp_feedback_loss(trials, labels, training=True)

        net.optimizer.zero_grad()
        loss = net.csp_feedback_loss(trials, labels, training=True,
                                     frozen_wr=wrs)[0]
        loss.backward()
        grads = {name: p.grad for name, p in net._params.items()}

        net.optimizer.zero_grad()
        spectral = net.forward_spectral(trials, training=True)
        # each branch on its own copy of its map, N x 1 x C x T
        pieces = [ad.Parameter(spectral.value[:, i:i + 1]) for i in range(len(wrs))]
        per_branch = None
        for piece, wr in zip(pieces, wrs):
            branch = csp.csp_loss(csp.spatial_filter_features(piece, wr[None]), labels)
            per_branch = branch if per_branch is None else ad.add(per_branch, branch)
        per_branch.backward()
        # hand the branches' map gradients on to the spectral stack
        maps_grad = np.concatenate([p.grad for p in pieces], axis=1)
        ad.Node(0.0, (spectral,), lambda g: spectral._accumulate(maps_grad)).backward()

        assert float(loss.value) == pytest.approx(float(per_branch.value),
                                                  rel=1e-12, abs=1e-12)
        for name, p in net._params.items():
            if p.grad is None:
                assert grads[name] is None, name
            else:
                np.testing.assert_allclose(grads[name], p.grad, rtol=1e-10,
                                           atol=1e-10, err_msg=name)

    def test_frozen_features_match_per_branch(self):
        net = model.CCSPNet(desk_config(epochs=1))
        trials, labels = desk_batch(np.random.default_rng(6))
        net.train(trials, labels).finalize(trials, labels)
        spectral = net.forward_spectral(trials, training=False)
        want = np.stack(
            [csp.spatial_filter_features(ad.constant(spectral.value[:, i]),
                                         br.w_reduced).value
             for i, br in enumerate(net.frozen_branches)], axis=1)
        np.testing.assert_allclose(net.frozen_features(spectral).value, want,
                                   rtol=1e-12, atol=1e-12)


class TestTrainingOnSyntheticData:
    def test_loss_decreases_and_accuracy_clears_bar(self, synth_subject):
        train, test = synth_subject
        cfg = model.ModelConfig(n_channels=16, epochs=10, batch_size=300, seed=0)
        net = model.CCSPNet(cfg)
        net.train(train.trials, train.labels)
        losses = [row[2] for row in net.history]
        assert losses[-1] < losses[0]
        net.finalize(train.trials, train.labels)
        train_acc = float((net.predict(train.trials) == train.labels).mean())
        test_acc = float((net.predict(test.trials) == test.labels).mean())
        assert train_acc >= 0.85
        assert test_acc >= 0.80

    def test_finalize_is_idempotent(self, synth_subject):
        train, test = synth_subject
        cfg = model.ModelConfig(n_channels=16, epochs=1, batch_size=300, seed=1)
        net = model.CCSPNet(cfg)
        net.train(train.trials, train.labels)
        net.finalize(train.trials, train.labels)
        first = net.predict(test.trials)
        net.finalize(train.trials, train.labels)
        assert np.array_equal(first, net.predict(test.trials))

    def test_frozen_projection_shapes(self, synth_subject):
        train, _ = synth_subject
        cfg = model.ModelConfig(n_channels=16, epochs=0, batch_size=300, seed=2)
        net = model.CCSPNet(cfg).finalize(train.trials, train.labels)
        for br in net.frozen_branches:
            assert br.w_reduced.shape == (16, 4)


class TestPredict:
    def test_unfinalized_rejected(self):
        net = model.CCSPNet(desk_config())
        with pytest.raises(ModelStateError):
            net.predict(np.zeros((1, 6, 40)))

    def test_deterministic_and_batch_size_independent(self):
        rng = np.random.default_rng(9)
        trials, labels = desk_batch(rng, n=20)
        net = model.CCSPNet(desk_config(epochs=1))
        net.train(trials, labels).finalize(trials, labels)
        fresh, _ = desk_batch(np.random.default_rng(10), n=6)
        batch_pred = net.predict(fresh)
        assert np.array_equal(batch_pred, net.predict(fresh))
        singles = np.concatenate([net.predict(fresh[i:i + 1]) for i in range(6)])
        assert np.array_equal(batch_pred, singles)


class TestAblations:
    def fitted(self, ablate, rng):
        trials, labels = desk_batch(rng, n=20)
        net = model.CCSPNet(desk_config(epochs=1, ablate=ablate))
        net.train(trials, labels).finalize(trials, labels)
        return net, trials, labels

    @pytest.mark.parametrize("ablate", model.ABLATIONS)
    def test_each_variant_trains_and_predicts(self, ablate):
        net, trials, labels = self.fitted(ablate, np.random.default_rng(11))
        pred = net.predict(trials)
        assert pred.shape == labels.shape
        assert set(np.unique(pred)) <= {0, 1}

    @pytest.mark.parametrize("ablate", model.ABLATIONS)
    def test_each_variant_has_strictly_fewer_parameters(self, ablate):
        full = model.CCSPNet(desk_config()).count_parameters()["total"]
        cut = model.CCSPNet(desk_config(ablate=ablate)).count_parameters()["total"]
        assert cut < full


class TestParameterAccounting:
    def test_full_scale_itemization(self):
        counts = model.CCSPNet(model.ModelConfig()).count_parameters()
        assert counts["wavelet"] == 12
        assert counts["temporal"] == 4 * 64 + 4
        assert counts["batch_norm"] == 2 * (4 + 4) + (16 + 16) + (8 + 8)
        assert counts["dense"] == (16 * 16 + 16) + (16 * 8 + 8) + (8 * 4 + 4)
        assert counts["csp_frozen"] == 4 * 62 * 4
        assert counts["lda"] == 6
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")

    def test_report_mentions_reference_total(self):
        report = model.parameter_report(model.CCSPNet(model.ModelConfig()))
        assert str(model.REFERENCE_PARAMETER_TOTAL) in report
        assert "total" in report


# one array of each kind in a finalized full-model file
ARRAY_KINDS = ["temporal.kernels", "bn_wk.running_mean", "adam.m.dense.0.w",
               "adam.step", "history", "csp.0.sigma0", "csp.0.w_reduced",
               "lda.w", "lda.mu"]


def widened(arr):
    """`arr` with one more entry on its last axis; a scalar becomes a 1-vector."""
    return np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,) if arr.ndim else (1,))


class TestSerialization:
    def trained(self, tmp_path, ablate="", finalized=True):
        rng = np.random.default_rng(12)
        trials, labels = desk_batch(rng, n=20)
        net = model.CCSPNet(desk_config(epochs=2, ablate=ablate))
        net.train(trials, labels)
        if finalized:
            net.finalize(trials, labels)
        return net, trials

    @pytest.mark.parametrize("finalized", (False, True))
    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_save_load_save_is_byte_identical(self, tmp_path, ablate, finalized):
        net, _ = self.trained(tmp_path, ablate, finalized)
        p1 = tmp_path / "a.ccsp"
        p2 = tmp_path / "b.ccsp"
        net.save(p1)
        model.CCSPNet.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_loaded_predictions_match(self, tmp_path, ablate):
        net, trials = self.trained(tmp_path, ablate)
        path = tmp_path / "m.ccsp"
        net.save(path)
        loaded = model.CCSPNet.load(path)
        assert np.array_equal(net.predict(trials), loaded.predict(trials))
        assert loaded.history == net.history

    def test_unfinalized_round_trip(self, tmp_path):
        net = model.CCSPNet(desk_config())
        path = tmp_path / "m.ccsp"
        net.save(path)
        loaded = model.CCSPNet.load(path)
        assert not loaded.finalized
        for name, p in net._params.items():
            assert np.array_equal(p.value, loaded._params[name].value)

    def test_bad_magic_rejected(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = tmp_path / "m.ccsp"
        net.save(path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            model.CCSPNet.load(path)

    def test_bad_version_rejected(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = tmp_path / "m.ccsp"
        net.save(path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            model.CCSPNet.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = tmp_path / "m.ccsp"
        net.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 33])
        with pytest.raises(DataError, match="truncated"):
            model.CCSPNet.load(path)

    @pytest.mark.parametrize("old, new", [("epochs=2\n", "epochs=x\n"),
                                          ("ablate=\n", "ablate=q\n"),
                                          ("temporal_len=16\n", "temporal_len=0\n")])
    def test_bad_config_text_is_a_data_error(self, tmp_path, old, new):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        edit_config_text(path, old, new)
        with pytest.raises(DataError, match="m.ccsp: bad config text"):
            model.CCSPNet.load(path)

    # an empty array with too long axes; 2**64 entries, which wraps to 0 in int64
    @pytest.mark.parametrize("shape", [(0, 2**32 - 1, 2**32 - 1), (2**16,) * 4])
    def test_impossible_array_shape_is_a_data_error(self, tmp_path, shape):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        set_first_array_shape(path, shape)
        with pytest.raises(DataError, match="m.ccsp"):
            model.CCSPNet.load(path)

    def test_undecodable_array_name_is_a_data_error(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        corrupt_first_array_name(path)
        with pytest.raises(DataError, match="m.ccsp"):
            model.CCSPNet.load(path)

    def test_array_rewrite_keeps_the_file(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        blob = path.read_bytes()
        rewrite_arrays(path, lambda items: items)
        assert path.read_bytes() == blob

    @pytest.mark.parametrize("step", [2.5, -1.0, np.nan])
    def test_adam_step_must_be_a_count(self, tmp_path, step):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [
            (n, np.asarray(step) if n == "adam.step" else a) for n, a in items])
        with pytest.raises(DataError, match="m.ccsp: adam.step"):
            model.CCSPNet.load(path)

    @pytest.mark.parametrize("name", ARRAY_KINDS)
    def test_missing_array_is_a_data_error(self, tmp_path, name):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [(n, a) for n, a in items if n != name])
        with pytest.raises(DataError, match=f"m.ccsp: missing array '{name}'"):
            model.CCSPNet.load(path)

    @pytest.mark.parametrize("name", ARRAY_KINDS)
    def test_wrongly_shaped_array_is_a_data_error(self, tmp_path, name):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [(n, widened(a) if n == name else a)
                                            for n, a in items])
        with pytest.raises(DataError, match=f"m.ccsp: shape mismatch for '{name}'"):
            model.CCSPNet.load(path)


class TestConfigText:
    def test_default_text(self):
        assert model.ModelConfig().to_text() == (
            "ablate=\nbatch_size=300\ndense_dims=16,8,4\nepochs=20\nl1=0.01\n"
            "l2=0.1\nloss_ratio=0.3\nlr_main=0.01\nlr_wavelet=0.001\n"
            "n_channels=62\nn_temporal_kernels=4\nn_timepoints=250\n"
            "n_wavelet_kernels=4\nsample_rate_hz=100.0\nseed=0\n"
            "temporal_len=64\nwavelet_len=32\n")

    def test_round_trip_of_every_field(self):
        cfg = every_field_changed()
        assert model.ModelConfig.from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("text, error", [
        ("epochs=20\n", "missing key"),
        ("epochs\n", "malformed"),
        ("bogus=1\n", "unknown key 'bogus'"),
        ("dense_dims=16,8,x\n", "bad value for 'dense_dims'"),
    ])
    def test_bad_text_rejected(self, text, error):
        with pytest.raises(ValueError, match=error):
            model.ModelConfig.from_text(text)

    def test_partial_text_keeps_defaults(self):
        cfg = model.ModelConfig.from_text("epochs=3\n", partial=True)
        assert cfg == model.ModelConfig(epochs=3)


# .ccsp layout of the desk config trained for two epochs on 20 trials and
# finalized: the full model's parameters in registration order, then its Adam
# parameters in group order (wavelet; kernel and dense weights; biases, then
# the batch-norm affines). An ablation drops its component's entries.
FULL_PARAMS = [(f"wavelet.{p}.{i}", ()) for i in range(4) for p in "fhc"] + [
    ("bn_wk.gamma", (4,)), ("bn_wk.beta", (4,)),
    ("temporal.kernels", (4, 16)), ("temporal.bias", (4,)),
    ("bn_tc.gamma", (4,)), ("bn_tc.beta", (4,)),
    ("dense.0.w", (16, 16)), ("dense.0.b", (16,)),
    ("bn_d.0.gamma", (16,)), ("bn_d.0.beta", (16,)),
    ("dense.1.w", (16, 8)), ("dense.1.b", (8,)),
    ("bn_d.1.gamma", (8,)), ("bn_d.1.beta", (8,)),
    ("dense.2.w", (8, 4)), ("dense.2.b", (4,))]
FULL_ADAM_ORDER = [f"wavelet.{p}.{i}" for i in range(4) for p in "fhc"] + [
    "temporal.kernels", "dense.0.w", "dense.1.w", "dense.2.w",
    "temporal.bias", "dense.0.b", "dense.1.b", "dense.2.b",
    "bn_wk.gamma", "bn_wk.beta", "bn_tc.gamma", "bn_tc.beta",
    "bn_d.0.gamma", "bn_d.0.beta", "bn_d.1.gamma", "bn_d.1.beta"]
ABLATED_PREFIXES = {"": (), "wkcnn": ("wavelet.", "bn_wk."),
                    "tcnn": ("temporal.", "bn_tc."), "frn": ("dense.", "bn_d."),
                    "lda": ()}
LDA_ARRAYS = {"": [("lda.w", (4,)), ("lda.mu", (2,))],
              "frn": [("lda.w", (16,)), ("lda.mu", (2,))], "lda": []}


def expected_layout(ablate):
    params = [(name, shape) for name, shape in FULL_PARAMS
              if not name.startswith(ABLATED_PREFIXES[ablate])]
    shapes = dict(params)
    items = list(params)
    for name, shape in params:
        if name.endswith(".gamma"):
            layer = name[:-len(".gamma")]
            items += [(f"{layer}.running_mean", shape), (f"{layer}.running_var", shape)]
    items.append(("adam.step", ()))
    for name in FULL_ADAM_ORDER:
        if name in shapes:
            items += [(f"adam.m.{name}", shapes[name]), (f"adam.v.{name}", shapes[name])]
    items.append(("history", (4, 5)))
    for i in range(4):
        items += [(f"csp.{i}.sigma0", (6, 6)), (f"csp.{i}.sigma1", (6, 6)),
                  (f"csp.{i}.w_full", (6, 6)), (f"csp.{i}.eigenvalues", (6,)),
                  (f"csp.{i}.w_reduced", (6, 4))]
    return items + LDA_ARRAYS.get(ablate, LDA_ARRAYS[""])


@pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
def test_container_layout(tmp_path, ablate):
    net, _ = TestSerialization().trained(tmp_path, ablate)
    layout = [(name, np.shape(arr)) for name, arr in net._state_arrays()]
    assert layout == expected_layout(ablate)


@pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
def test_dropped_model_is_freed_without_the_cycle_collector(ablate):
    # a model that is part of a reference cycle lingers until the collector
    # runs; a loop that reloads models then piles them up
    net = model.CCSPNet(desk_config(epochs=1, ablate=ablate))
    trials, labels = desk_batch(np.random.default_rng(13))
    net.train(trials, labels).finalize(trials, labels)
    net.predict(trials)
    ref = weakref.ref(net)
    gc.disable()
    try:
        del net
        assert ref() is None
    finally:
        gc.enable()
