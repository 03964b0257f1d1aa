import ast
import copy
import gc
import math
import pickle
import re
import struct
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

from ccspnet import autodiff as ad
from ccspnet import csp, data, errors, harness, lda, model
from ccspnet.errors import CcspError, ConfigError, DataError, ModelStateError, NumericalError

from oracles import (add_nodes, class_covariances_stacked, eval_maps_conv,
                     predict_conv, rel_err)


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
    return tuple(proc.select(i) for i in data.sd_fold(proc, 1))


class TestForwardSpectral:
    def test_full_scale_shapes(self):
        net = model.CCSPNet(model.ModelConfig())
        rng = np.random.default_rng(0)
        out = net.forward_spectral(rng.normal(size=(2, 62, 250)))
        assert out.shape == (2, 4, 62, 250)
        # eval mode: row x of map k goes to x @ M[k] + c[k]
        operator, offset = net._eval_operator()
        assert operator.shape == (4, 250, 250) and offset.shape == (4, 250)

    def test_wavelet_init_frequencies(self):
        net = model.CCSPNet(model.ModelConfig())
        freqs = [float(f.value) for f, _, _ in net.wavelet]
        assert freqs == pytest.approx([8.0, 15.333333333333334,
                                       22.666666666666668, 30.0])

    def test_zero_input_zero_output_eval_mode(self):
        # the eval-mode maps of a zero input are the offsets c
        net = model.CCSPNet(desk_config())
        for _, _, offset in net.stage_operators():
            assert np.allclose(offset, 0.0)
        assert np.allclose(net._eval_operator()[1], 0.0)

    def test_map_order_follows_wavelet_index(self):
        # zeroing one wavelet's frequency band response is hard to isolate, so
        # check the cheap invariant instead: map i depends only on kernel i
        net = model.CCSPNet(desk_config(ablate="tcnn"))
        base = [a.copy() for a in net._eval_operator()]
        net.wavelet[2][0].value = np.asarray(12.0)  # move kernel 2 only
        moved = net._eval_operator()
        changed = [not all(np.allclose(b[i], m[i]) for b, m in zip(base, moved))
                   for i in range(4)]
        assert changed == [False, False, True, False]

    @pytest.mark.parametrize("entry", ("forward_spectral", "frozen_features"))
    def test_channel_mismatch_rejected(self, entry):
        net = model.CCSPNet(desk_config())
        with pytest.raises(DataError):
            getattr(net, entry)(np.zeros((2, 7, 40)))

    @pytest.mark.parametrize("entry", ("forward_spectral", "frozen_features", "predict",
                                       "train", "train_step", "finalize"))
    def test_complex_batch_rejected(self, entry):
        # a cast to float64 would drop the imaginary part with a ComplexWarning
        net = model.CCSPNet(desk_config())
        trials, labels = desk_batch(np.random.default_rng(24))
        args = (labels,) if entry in ("train", "train_step", "finalize") else ()
        with pytest.raises(DataError, match="batch samples must be real, not complex128"):
            getattr(net, entry)(trials + 1j, *args)


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
        # a covariance needs two time points
        (dict(n_timepoints=1, wavelet_len=1, temporal_len=1), "n_timepoints"),
    ])
    def test_sizes_below_one_rejected(self, overrides, name):
        with pytest.raises(ConfigError, match=name):
            model.ModelConfig(**overrides).validate()

    # a zero learning rate is allowed: it freezes the group
    # (test_zero_learning_rates_freeze_parameters)
    @pytest.mark.parametrize("name, values", [
        ("sample_rate_hz", (0.0, -100.0, np.nan, np.inf)),
        ("lr_main", (-0.01, np.nan, np.inf)),
        ("lr_wavelet", (-0.001, np.nan, np.inf)),
        ("l1", (-0.01, np.nan, np.inf)),
        ("l2", (-0.1, np.nan, np.inf)),
        ("seed", (-1,)),
    ])
    def test_out_of_range_value_rejected(self, name, values):
        for value in values:
            with pytest.raises(ConfigError, match=f"{name} must be"):
                model.ModelConfig(**{name: value}).validate()

    def test_range_edges_accepted(self):
        model.ModelConfig(lr_main=0.0, lr_wavelet=0.0, l1=0.0, l2=0.0, seed=0,
                          sample_rate_hz=1e-3).validate()

    def test_wavelet_longer_than_trial_rejected(self):
        with pytest.raises(ConfigError, match="wavelet_len 65 is longer than the 64"):
            model.ModelConfig(n_timepoints=64, wavelet_len=65, temporal_len=8).validate()

    def test_temporal_kernel_longer_than_trial_rejected(self):
        with pytest.raises(ConfigError, match="temporal_len 80 is longer than the 64"):
            model.ModelConfig(n_timepoints=64, temporal_len=80).validate()

    def test_kernels_as_long_as_the_trial_accepted(self):
        model.ModelConfig(n_timepoints=64, wavelet_len=64, temporal_len=64).validate()

    @pytest.mark.parametrize("name", [f.name for f in fields(model.ModelConfig)
                                      if f.type == "int"])
    @pytest.mark.parametrize("value", [np.nan, 2.5, 2.0, True, "3"])
    def test_non_integer_in_an_int_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got "):
            model.ModelConfig(**{name: value}).validate()

    # one wrong-typed value per field type; every field is checked against its type
    @pytest.mark.parametrize("name, kind", [(f.name, f.type)
                                            for f in fields(model.ModelConfig)])
    def test_wrong_type_rejected_with_the_field_named(self, name, kind):
        for value in {"int": (None, [3]), "float": ("0.3", None, True),
                      "tuple": ([16, 8, 4], 4, None), "str": (None, 1)}[kind]:
            cfg = model.ModelConfig(**{name: value})
            with pytest.raises(ConfigError, match=f"^{name} .*must be"):
                cfg.validate()
            with pytest.raises(ConfigError, match=f"^{name} "):
                model.CCSPNet(cfg)

    @pytest.mark.parametrize("dims", [(16, 8.5, 4), (16, np.nan, 4), (4.0,), (True, 4)])
    def test_non_integer_dense_dims_entry_rejected(self, dims):
        with pytest.raises(ConfigError, match="dense_dims entries must be integers"):
            model.ModelConfig(dense_dims=dims).validate()

    def test_numpy_integers_accepted(self):
        trials, labels = desk_batch(np.random.default_rng(27))
        cfg = desk_config(seed=np.int64(3), n_channels=np.int32(6), temporal_len=np.uint8(16),
                          dense_dims=(np.int64(8), 4))
        model.CCSPNet(cfg).train_step(trials, labels)


# edge values of each ModelConfig field; ints and floats as the text codec
# writes them, plus wrong-typed values the Python API lets through
FIELD_EDGES = {"int": (0, -1, 10 ** 6, np.nan, 2.5),
               "float": (0.0, -1.0, np.nan, np.inf, 1e300, "0.3"),
               "tuple": ((), (4,), (0, 4), (16, 8, -1), (16, 8, 3), (2, 4), (16, 8.0, 4),
                         [16, 8, 4], 4),
               "str": ("", "frn", "wkcnn", "tcnn", "lda", "none", "FRN", " frn",
                       "frn,lda", "frn\n", None)}


class TestConfigFuzz:
    def test_each_edge_value_steps_or_raises_a_named_error(self, tmp_path):
        # one field at a time from the desk config, through validate, two
        # train_steps and finalize on a seeded desk batch, then save and load;
        # a config that passes validate stays desk-sized (no kernel count of
        # 10**6 alone passes the pairing), and a model that trains and
        # finalizes must load with the same config and predictions
        trials, labels = desk_batch(np.random.default_rng(28))
        outcomes = {"clean": 0, "invalid": 0, "error": 0}
        for f in fields(model.ModelConfig):
            for value in FIELD_EDGES[f.type]:
                cfg = desk_config(**{f.name: value})
                try:
                    cfg.validate()
                except ConfigError as exc:
                    assert f.name in str(exc), (f.name, value, exc)
                    outcomes["invalid"] += 1
                    continue
                net = model.CCSPNet(cfg)
                try:
                    for _ in range(2):
                        net.train_step(trials, labels)
                    net.finalize(trials, labels)
                except CcspError as exc:
                    assert str(exc), (f.name, value)
                    outcomes["error"] += 1
                    continue
                loaded = model.CCSPNet.load(net.save(tmp_path / "m.ccsp"))
                assert loaded.config == cfg, (f.name, value)
                assert np.array_equal(loaded.predict(trials), net.predict(trials)), \
                    (f.name, value)
                outcomes["clean"] += 1
        assert all(outcomes.values()), outcomes

    @pytest.mark.parametrize("name", ["l1", "l2"])
    def test_huge_weight_penalty_names_the_parameter(self, name):
        # 1e300 overflows Adam's second moment; unchecked, the weights would
        # stop moving and the saved .ccsp would hold an infinite adam.v
        trials, labels = desk_batch(np.random.default_rng(29))
        net = model.CCSPNet(desk_config(**{name: 1e300}))
        with pytest.raises(NumericalError, match="Adam update for temporal.kernels"):
            net.train_step(trials, labels)

    def test_huge_learning_rate_names_its_group(self):
        # 1e300 throws the lr_main group's weights so far that the second
        # step's forward pass overflows; it must stop before numpy warns
        trials, labels = desk_batch(np.random.default_rng(29))
        net = model.CCSPNet(desk_config(lr_main=1e300))
        net.train_step(trials, labels)
        with pytest.raises(NumericalError, match="not finite.*lr_main=1e[+]300"):
            net.train_step(trials, labels)


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
        for w, _, _ in net.dense:
            assert w.grad is None or np.all(np.asarray(w.grad) == 0.0)
        # the CNN side still receives gradient from the feedback loss
        assert np.any(net._params["temporal.kernels"].grad != 0.0)

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
        (21, 0, "missing from batch"),    # a one-trial tail
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


def refit_projections(net, trials, labels):
    """The K x C x 4 reduced CSP projections `csp_feedback_loss` fits to the
    training-mode maps of `trials`."""
    maps = net.forward_spectral(trials).value
    return np.stack([csp.fit_branch(*csp.class_covariances(maps[:, i], labels)).w_reduced
                     for i in range(maps.shape[1])])


def frozen_projection_loss(net, trials, labels, wrs):
    """The CSP feedback loss with the projections held at `wrs` rather than
    refit, so it is a function of the spectral parameters alone."""
    spectral = net.forward_spectral(trials)
    return csp.csp_loss(csp.spatial_filter_features(spectral, wrs), labels)


class TestEndToEndGradient:
    def test_feedback_loss_gradient_matches_finite_differences(self):
        cfg = desk_config(n_channels=6, n_timepoints=40, seed=7)
        net = model.CCSPNet(cfg)
        rng = np.random.default_rng(8)
        trials, labels = desk_batch(rng, n=8)
        wrs = refit_projections(net, trials, labels)
        net.optimizer.zero_grad()
        loss, _ = net.csp_feedback_loss(trials, labels)
        loss.backward()
        grads = {name: None if p.grad is None else np.array(p.grad)
                 for name, p in net._params.items()}

        def loss_at(param, value):
            saved = param.value
            param.value = np.asarray(value)
            out = float(frozen_projection_loss(net, trials, labels, wrs).value)
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
        wrs = refit_projections(net, trials, labels)

        net.optimizer.zero_grad()
        loss = frozen_projection_loss(net, trials, labels, wrs)
        loss.backward()
        grads = {name: p.grad for name, p in net._params.items()}

        net.optimizer.zero_grad()
        spectral = net.forward_spectral(trials)
        # each branch on its own copy of its map, N x 1 x C x T
        pieces = [ad.Parameter(spectral.value[:, i:i + 1]) for i in range(len(wrs))]
        per_branch = None
        for piece, wr in zip(pieces, wrs):
            branch = csp.csp_loss(csp.spatial_filter_features(piece, wr[None]), labels)
            per_branch = branch if per_branch is None else add_nodes(per_branch, branch)
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
        maps = eval_maps_conv(net, trials)
        want = np.stack(
            [csp.spatial_filter_features(ad.constant(maps[:, i]),
                                         br.w_reduced).value
             for i, br in enumerate(net.frozen_branches)], axis=1)
        np.testing.assert_allclose(net.frozen_features(trials).value, want,
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


def count_eigh_failures(monkeypatch):
    """The composites `linalg.eigh` cannot factor, as CSP solves run."""
    failures, eigh = [], linalg.eigh

    def counting(*args):
        try:
            return eigh(*args)
        except linalg.LinAlgError:
            failures.append(args)
            raise

    monkeypatch.setattr(csp.linalg, "eigh", counting)
    return failures


def round_trips(net, trials, tmp_path):
    """Whether a saved `net` loads and predicts `trials` as `net` does."""
    loaded = model.CCSPNet.load(net.save(tmp_path / "m.ccsp"))
    return np.array_equal(loaded.predict(trials), net.predict(trials))


class TestCspRidgeEndToEnd:
    def test_tiny_scale_fold_trains_finalizes_and_loads(self, tmp_path):
        # at 1e-9 this fold's finalize meets a composite that eigh factors
        # with eigenvalues outside [0, 1], and one whose upper Cholesky factor
        # exists and whose lower one does not
        proc = data.preprocess(data.synthesize(data.SynthConfig(
            n_subjects=4, trials_per_class=40, n_channels=16, seed=0)))
        proc = replace(proc, trials=proc.trials * 1e-9)
        train, test = (proc.select(i) for i in data.sd_fold(proc, 3))
        accuracy, net = harness._run_fold(
            train, test, model.ModelConfig(epochs=10, seed=harness.fold_seed(0, 3)))
        assert accuracy >= 75.0
        assert round_trips(net, test.trials, tmp_path)

    def test_duplicated_channel_trains_through_the_ridge(self, monkeypatch, tmp_path):
        # a bridged electrode: channel 1 repeats channel 0, so every
        # composite is singular in exact arithmetic
        proc = data.preprocess(data.synthesize(data.SynthConfig(
            n_subjects=1, trials_per_class=20, n_channels=8, seed=1)))
        trials = proc.trials.copy()
        trials[:, 1] = trials[:, 0]
        failures = count_eigh_failures(monkeypatch)
        net = model.CCSPNet(model.ModelConfig(n_channels=8, epochs=3, seed=1))
        net.train(trials, proc.labels).finalize(trials, proc.labels)
        assert failures
        assert round_trips(net, trials, tmp_path)


def fitted_desk_model(ablate="", seed=9):
    """A desk model trained one epoch on 20 trials and finalized, the trials
    and their labels."""
    trials, labels = desk_batch(np.random.default_rng(seed), n=20)
    net = model.CCSPNet(desk_config(epochs=1, ablate=ablate))
    return net.train(trials, labels).finalize(trials, labels), trials, labels


class TestPredict:
    def test_unfinalized_rejected(self):
        net = model.CCSPNet(desk_config())
        with pytest.raises(ModelStateError):
            net.predict(np.zeros((1, 6, 40)))

    def test_unfinalized_frozen_features_rejected(self):
        net = model.CCSPNet(desk_config())
        with pytest.raises(ModelStateError, match="not finalized"):
            net.frozen_features(np.zeros((1, 6, 40)))

    @pytest.mark.parametrize("finalized_before", [False, True])
    def test_a_finalize_that_fails_leaves_the_model_unfinalized(self, finalized_before):
        # a zero scale on the last dense batch norm makes every output the
        # same, so the LDA fit finds no direction; a half-frozen model must
        # not predict
        net, trials, labels = fitted_desk_model()
        if not finalized_before:
            net = model.CCSPNet(desk_config(epochs=1)).train(trials, labels)
        net._params["bn_d.1.gamma"].value[...] = 0.0
        with pytest.raises(NumericalError, match="degenerate LDA direction"):
            net.finalize(trials, labels)
        assert not net.finalized
        with pytest.raises(ModelStateError):
            net.predict(trials)

    def test_deterministic_and_batch_size_independent(self):
        net, _, _ = fitted_desk_model()
        fresh, _ = desk_batch(np.random.default_rng(10), n=6)
        batch_pred = net.predict(fresh)
        assert np.array_equal(batch_pred, net.predict(fresh))
        singles = np.concatenate([net.predict(fresh[i:i + 1]) for i in range(6)])
        assert np.array_equal(batch_pred, singles)


# each model entry on a batch, from a fresh model for the two that fit one
# and a finalized one for the two that need one
ENTRIES = {
    "train_step": lambda net, trials, labels: net.train_step(trials, labels),
    "finalize": lambda net, trials, labels: net.finalize(trials, labels),
    "predict": lambda net, trials, labels: net.predict(trials),
    "frozen_features": lambda net, trials, labels: net.frozen_features(trials),
}


def poisoned(trials, case):
    """`trials` with a NaN or an inf at trial 3, channel 2, sample 7, or all
    of it times 1e200 ("huge")."""
    if case == "huge":
        return trials * 1e200
    trials = trials.copy()
    trials[3, 2, 7] = {"nan": np.nan, "inf": np.inf}[case]
    return trials


class TestNonFiniteBatch:
    # tier-1 turns a numpy RuntimeWarning into an error, so a case that warns
    # before it raises fails here, as does scipy's ValueError
    @pytest.mark.parametrize("case", ["nan", "inf", "huge"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_each_entry_raises_a_numerical_error(self, entry, case):
        net, trials, labels = fitted_desk_model()
        if entry in ("train_step", "finalize"):
            net = model.CCSPNet(net.config)
        with pytest.raises(NumericalError) as info:
            ENTRIES[entry](net, poisoned(trials, case), labels)
        if case != "huge":
            assert str(info.value) == "trial 3: non-finite sample at channel 2, sample 7"

    def test_train_names_the_trial_of_the_whole_set(self):
        trials, labels = desk_batch(np.random.default_rng(30), n=40)
        trials[37, 1, 0] = np.nan
        with pytest.raises(NumericalError,
                           match="^trial 37: non-finite sample at channel 1, sample 0$"):
            model.CCSPNet(desk_config()).train(trials, labels)

    def test_huge_batch_is_named_beside_the_largest_parameter(self):
        # a fresh model's largest parameter is its initial value, which is
        # not what threw the step
        trials, labels = desk_batch(np.random.default_rng(31))
        with pytest.raises(NumericalError, match="the batch's largest magnitude is "
                                                 r"\d\.?\d*e\+200, and the largest parameter"):
            model.CCSPNet(desk_config()).train_step(trials * 1e200, labels)


@pytest.fixture(scope="module")
def paper_shape_model():
    """A model of the paper's input shape, trained one step on 40 trials."""
    trials, labels = desk_batch(np.random.default_rng(14), n=40, c=62, t=250)
    net = model.CCSPNet(model.ModelConfig(epochs=1, batch_size=40, seed=1))
    return net.train(trials, labels).finalize(trials, labels)


# the stages whose operators one build of the full model's operator makes
ONE_BUILD = ["wkcnn", "tcnn"]


def count_operator_builds(monkeypatch):
    """The name of the stage of every `_Stage.operator` call from now on, as
    a growing list; one operator build calls it once per stage, in order."""
    calls = []
    original = model._Stage.operator

    def counting(self, t_len):
        calls.append(self.name)
        return original(self, t_len)

    monkeypatch.setattr(model._Stage, "operator", counting)
    return calls


class TestEvalOperator:
    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_predict_matches_the_convolution_path(self, ablate):
        net, trials, _ = fitted_desk_model(ablate)
        fresh, _ = desk_batch(np.random.default_rng(15), n=30)
        for batch in (trials, fresh):
            np.testing.assert_array_equal(net.predict(batch), predict_conv(net, batch))

    def test_predict_matches_the_convolution_path_at_paper_shape(self, paper_shape_model):
        fresh, _ = desk_batch(np.random.default_rng(16), n=30, c=62, t=250)
        pred = paper_shape_model.predict(fresh)
        assert pred.dtype == np.uint8
        np.testing.assert_array_equal(pred, predict_conv(paper_shape_model, fresh))

    @pytest.mark.parametrize("offset", (0.0, 1e3))
    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_maps_match_forward_spectral(self, ablate, offset):
        net, _, _ = fitted_desk_model(ablate)
        x = np.random.default_rng(17).normal(size=(7, 6, 40)) + offset
        operator, bias = net._eval_operator()
        assert operator.shape == (4, 40, 40) and bias.shape == (4, 40)
        maps = np.matmul(x[:, None], operator) + bias[:, None, :]
        expected = eval_maps_conv(net, x)
        assert np.abs(maps - expected).max() <= 1e-10 * np.abs(expected).max()
        assert rel_err(maps, expected) <= 1e-12
        # the oracle's maps of a zero row and of the T unit impulses are c
        # and M + c
        rows = np.zeros((41, 6, 40))
        rows[1:, 0] = np.eye(40)
        impulses = eval_maps_conv(net, rows)[:, :, 0]
        assert rel_err(bias, impulses[0]) <= 1e-12
        assert rel_err(operator, (impulses[1:] - impulses[0]).transpose(1, 0, 2)) <= 1e-12

    def test_repeat_predict_does_not_rebuild(self, monkeypatch):
        # finalize builds the operator; predict reuses it
        net, trials, _ = fitted_desk_model()
        builds = count_operator_builds(monkeypatch)
        first = net.predict(trials)
        assert builds == []
        np.testing.assert_array_equal(net.predict(trials), first)
        np.testing.assert_array_equal(net.predict(trials[:3]), first[:3])
        assert builds == []

    @pytest.mark.parametrize("change", [
        "train_step", "temporal_kernel", "wavelet_width", "running_var", "bias"])
    def test_changed_arrays_rebuild(self, monkeypatch, change):
        net, trials, labels = fitted_desk_model()
        net.predict(trials)
        if change == "train_step":
            net.train_step(trials, labels)
        elif change == "temporal_kernel":
            net._params["temporal.kernels"].value[0, 0] += 0.1
        elif change == "wavelet_width":
            net.wavelet[1][1].value = np.asarray(0.3)
        elif change == "running_var":
            net._bn_layers["bn_tc"].running_var[2] *= 2.0
        else:
            net._params["temporal.bias"].value[1] = 0.5
        builds = count_operator_builds(monkeypatch)
        pred = net.predict(trials)
        assert builds == ONE_BUILD
        np.testing.assert_array_equal(pred, predict_conv(net, trials))

    def test_restoring_a_file_in_place_rebuilds(self, tmp_path, monkeypatch):
        # _restore writes into the arrays of a trained model
        source, trials, _ = fitted_desk_model(seed=18)
        net = fitted_desk_model(seed=19)[0]
        expected = source.predict(trials)
        assert not np.array_equal(net.predict(trials), expected)
        net._restore(dict(source._state_arrays()), True, tmp_path / "a.ccsp")
        builds = count_operator_builds(monkeypatch)
        np.testing.assert_array_equal(net.predict(trials), expected)
        assert builds == ONE_BUILD

    def test_loaded_model_builds_on_first_predict(self, tmp_path, monkeypatch):
        net, trials, _ = fitted_desk_model()
        path = net.save(tmp_path / "m.ccsp")
        expected = net.predict(trials)
        builds = count_operator_builds(monkeypatch)
        loaded = model.CCSPNet.load(path)
        assert builds == []
        np.testing.assert_array_equal(loaded.predict(trials), expected)
        assert builds == ONE_BUILD

    def test_chunked_predict_matches_bulk(self, paper_shape_model):
        fresh, _ = desk_batch(np.random.default_rng(20), n=23, c=62, t=250)
        bulk = paper_shape_model.predict(fresh)
        chunks = [paper_shape_model.predict(fresh[i:i + 5]) for i in range(0, 23, 5)]
        np.testing.assert_array_equal(np.concatenate(chunks), bulk)

    def test_predict_leaves_the_file_bytes_alone(self, tmp_path):
        net, trials, _ = fitted_desk_model()
        before = net.save(tmp_path / "before.ccsp").read_bytes()
        net.predict(trials)
        assert net.save(tmp_path / "after.ccsp").read_bytes() == before

    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_empty_batch_predicts_nothing(self, ablate):
        net, _, _ = fitted_desk_model(ablate)
        pred = net.predict(np.zeros((0, 6, 40)))
        assert pred.shape == (0,) and pred.dtype == np.uint8


class TestProjectFirstFeatures:
    @pytest.mark.parametrize("offset", (0.0, 1e3))
    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_features_match_the_maps_path(self, ablate, offset):
        # an offset input exercises the (W^T 1) c^T term
        net, _, _ = fitted_desk_model(ablate)
        x = np.random.default_rng(21).normal(size=(9, 6, 40)) + offset
        operator, bias = net._eval_operator()
        maps = np.matmul(x[:, None], operator) + bias[:, None, :]
        want = csp.spatial_filter_features(ad.constant(maps), net.frozen_projection()).value
        got = net.frozen_features(x)
        assert got.shape == (9, 4, 4)
        assert rel_err(got.value, want) <= 1e-10


class TestPredictMemory:
    def test_peak_is_below_the_input_size_and_a_half(self):
        # N x K x 4 x T projected rows, not the N x K x C x T maps
        ratios = []
        for n in (100, 200):
            trials, labels = desk_batch(np.random.default_rng(20), n=n, c=62, t=250)
            net = model.CCSPNet(model.ModelConfig(epochs=1, batch_size=40, seed=1))
            net.train_step(trials[:40], labels[:40])
            net.finalize(trials[:40], labels[:40])
            gc.collect()
            tracemalloc.start()
            try:
                net.predict(trials)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ratios.append(peak / trials.nbytes)
        assert max(ratios) < 1.5, ratios


class TestFinalizeMemory:
    def test_peak_is_a_few_inputs_at_any_size(self):
        # one chunk of one branch's maps at a time from the cached operator,
        # then the project-first LDA features (about one input); the operator
        # build is a fixed cost. TestFinalizeStreamsTheMaps holds the tighter
        # bound
        ratios = []
        for n in (100, 200):
            trials, labels = desk_batch(np.random.default_rng(20), n=n, c=62, t=250)
            net = model.CCSPNet(model.ModelConfig(epochs=1, batch_size=40, seed=1))
            net.train_step(trials[:40], labels[:40])
            gc.collect()
            tracemalloc.start()
            try:
                net.finalize(trials, labels)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ratios.append(peak / trials.nbytes)
        assert max(ratios) < 8.0, ratios
        assert ratios[1] <= ratios[0] + 0.25, ratios


class TestFinalizeStreamsTheMaps:
    @pytest.mark.parametrize("n", (200, 800))
    def test_peak_is_below_the_input_size_and_a_half(self, n):
        # no N x K x C x T maps (four inputs): the CSP sums read one
        # buffer of maps, a block of `errors.trial_blocks`, at a time
        trials, labels = desk_batch(np.random.default_rng(20), n=n, c=62, t=250)
        net = model.CCSPNet(model.ModelConfig(epochs=1, batch_size=40, seed=1))
        net.train_step(trials[:40], labels[:40])
        gc.collect()
        tracemalloc.start()
        try:
            net.finalize(trials, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / trials.nbytes <= 1.5, peak / trials.nbytes

    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_class_only_in_the_last_chunk(self, monkeypatch, ablate):
        # blocks of 16 trials; class 1 first appears in the third block, and
        # the frozen covariances are the stacked mean over the maps of the
        # cached operator, bit for bit
        block = 16
        n = 2 * block + 9
        rng = np.random.default_rng(25)
        trials = rng.normal(size=(n, 6, 40))
        labels = (np.arange(n) >= 2 * block).astype(int)
        net = model.CCSPNet(desk_config(ablate=ablate))
        net.train_step(*desk_batch(rng))
        monkeypatch.setattr(errors, "TRIAL_BLOCK_BYTES", block * trials[:1].nbytes)
        net.finalize(trials, labels)
        operator, offset = net._eval_operator()
        maps = np.matmul(trials[:, None], operator)
        maps += offset[:, None, :]
        for k, branch in enumerate(net.frozen_branches):
            sigma0, sigma1 = class_covariances_stacked(maps[:, k], labels)
            np.testing.assert_array_equal(branch.sigma0, sigma0)
            np.testing.assert_array_equal(branch.sigma1, sigma1)


class TestBlockSizeKeepsTheBytes:
    """The passes that walk `errors.trial_blocks` (the sample scan, batch norm,
    the banded products and finalize's maps) give the same bits with one
    trial per block as with the default blocks."""

    @pytest.mark.parametrize("ablate, shape", [(a, (24, 6, 40)) for a in ("",) + model.ABLATIONS]
                             + [("", (40, 16, 250))])
    def test_one_trial_blocks_match_the_default(self, monkeypatch, tmp_path, ablate, shape):
        n, c, t = shape
        trials, labels = desk_batch(np.random.default_rng(31), n=n, c=c, t=t)
        cfg = desk_config(ablate=ablate, n_channels=c, n_timepoints=t)
        files = []
        for block_bytes in (errors.TRIAL_BLOCK_BYTES, 1):
            monkeypatch.setattr(errors, "TRIAL_BLOCK_BYTES", block_bytes)
            net = model.CCSPNet(cfg)
            net.train_step(trials, labels)
            stepped = net.save(tmp_path / "stepped.ccsp").read_bytes()
            net.finalize(trials, labels)
            frozen = [a.copy() for br in net.frozen_branches for a in vars(br).values()]
            files.append((stepped, frozen, net.save(tmp_path / "final.ccsp").read_bytes()))
        (stepped, frozen, final), (stepped_1, frozen_1, final_1) = files
        assert stepped_1 == stepped
        assert all(np.array_equal(a, b) for a, b in zip(frozen_1, frozen, strict=True))
        assert final_1 == final


class TestTrainStepMemory:
    """A training step holds few arrays of the size of one N x K x C x T map:
    each inner node's gradient is freed once its backward has handed it on,
    and its value once the backwards of the nodes it feeds have run, batch
    norm keeps no x-hat between its forward and backward, and its backward
    rebuilds x-hat one block of trials at a time."""

    @pytest.mark.parametrize("ablate, bound", [("", 8.0), ("wkcnn", 5.5), ("tcnn", 5.5)])
    def test_peak_in_maps(self, ablate, bound):
        n, c, t = 40, 16, 250
        trials, labels = desk_batch(np.random.default_rng(30), n=n, c=c, t=t)
        net = model.CCSPNet(model.ModelConfig(n_channels=c, n_timepoints=t,
                                              batch_size=n, ablate=ablate))
        net.train_step(trials, labels)
        gc.collect()
        tracemalloc.start()
        try:
            net.train_step(trials, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        maps = peak / (8 * n * net.config.n_wavelet_kernels * c * t)
        assert maps <= bound, f"train_step peak {maps:.2f} maps"


class TestLabelValues:
    @pytest.mark.parametrize("entry", ("train", "train_step", "finalize",
                                       "csp_feedback_loss"))
    def test_labels_other_than_0_and_1_are_a_data_error(self, entry):
        net = model.CCSPNet(desk_config())
        trials, labels = desk_batch(np.random.default_rng(24))
        with pytest.raises(DataError, match="label 2 is not 0 or 1"):
            getattr(net, entry)(trials, 2 * labels)


# the model entries that fit on labels, as calls on a batch and its labels
TRAINING_ENTRIES = ("train", "train_step", "csp_feedback_loss", "finalize")


def count_sample_scans(monkeypatch):
    """A list that grows by one entry per `check_finite_trials` call of the
    model from now on."""
    calls = []
    original = model.check_finite_trials

    def counting(trials):
        calls.append(len(trials))
        return original(trials)

    monkeypatch.setattr(model, "check_finite_trials", counting)
    return calls


class TestOneSampleScanPerCall:
    @pytest.mark.parametrize("entry", ("train_step", "csp_feedback_loss", "finalize",
                                       "predict", "frozen_features"))
    def test_each_entry_scans_its_batch_once(self, monkeypatch, entry):
        net, trials, labels = fitted_desk_model()
        scans = count_sample_scans(monkeypatch)
        args = (labels,) if entry in TRAINING_ENTRIES else ()
        getattr(net, entry)(trials, *args)
        assert scans == [len(trials)]

    def test_train_scans_the_set_then_each_step_its_batch(self, monkeypatch):
        trials, labels = desk_batch(np.random.default_rng(26), n=40)
        net = model.CCSPNet(desk_config(batch_size=16, epochs=2))
        scans = count_sample_scans(monkeypatch)
        net.train(trials, labels)
        assert len(net.history) >= 4
        assert len(scans) == 1 + len(net.history) and scans[0] == 40


def untrainable_batches():
    """(name, trials, labels): a one-trial, an empty and a one-class batch."""
    trials, labels = desk_batch(np.random.default_rng(27))
    return [("one trial", trials[:1], labels[:1]),
            ("empty", trials[:0], labels[:0]),
            ("one class", trials, np.zeros(len(trials), dtype=int))]


@pytest.fixture
def no_layers(monkeypatch):
    """Make the training-mode layers and finalize's maps fail if they run."""
    def layer(*args):
        raise AssertionError("a layer ran")

    monkeypatch.setattr(model.CCSPNet, "forward_spectral", layer)
    monkeypatch.setattr(model, "_branch_maps", layer)


class TestBothClassesAtTheDoor:
    # the class rule is settled before any layer, batch gather or covariance
    @pytest.mark.parametrize("name, trials, labels", untrainable_batches())
    @pytest.mark.parametrize("entry", TRAINING_ENTRIES)
    def test_batch_without_both_classes_is_a_data_error(self, no_layers, entry,
                                                        name, trials, labels):
        with pytest.raises(DataError, match="^class [01] missing from batch"):
            getattr(model.CCSPNet(desk_config()), entry)(trials, labels)

    @pytest.mark.parametrize("entry", TRAINING_ENTRIES)
    def test_batch_without_a_trial_axis_is_a_data_error(self, no_layers, entry):
        with pytest.raises(DataError):
            getattr(model.CCSPNet(desk_config()), entry)(np.float64(1.0), np.array([0, 1]))


class TestLabelCount:
    # a count of labels in a 1-d array, or the shape of labels that are not
    # one: a column, a pair per trial, or a scalar for a single trial
    @pytest.mark.parametrize("n_labels", (15, 17, (16, 1), (16, 2), ()))
    @pytest.mark.parametrize("entry", ("train", "train_step", "finalize",
                                       "csp_feedback_loss"))
    def test_label_count_must_match_the_trials(self, entry, n_labels):
        net = model.CCSPNet(desk_config())
        trials, _ = desk_batch(np.random.default_rng(24))
        shape = n_labels if isinstance(n_labels, tuple) else (n_labels,)
        if shape == ():
            trials = trials[:1]
        labels = np.arange(math.prod(shape)).reshape(shape) % 2
        with pytest.raises(DataError, match=f"{labels.size} labels for {len(trials)} trials, "
                                            + re.escape(f"of shape {shape}")):
            getattr(net, entry)(trials, labels)


class TestHugeWaveletWidth:
    def test_file_with_a_huge_width_loads_and_predicts(self, tmp_path):
        net, trials, _ = fitted_desk_model()
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [
            (n, np.asarray(1e300) if n == "wavelet.h.0" else a) for n, a in items])
        loaded = model.CCSPNet.load(path)
        assert float(loaded.wavelet[0][1].value) == 1e300
        pred = loaded.predict(trials)
        np.testing.assert_array_equal(pred, predict_conv(loaded, trials))

    def test_huge_wavelet_learning_rate_is_a_numerical_error(self):
        # the first step throws the widths past 1e307; the error comes
        # before numpy would warn of an overflow, so nothing is silenced
        net = model.CCSPNet(desk_config(lr_wavelet=1e308))
        trials, labels = desk_batch(np.random.default_rng(25))
        with pytest.raises(NumericalError):
            net.train(trials, labels)

    def test_second_step_names_the_wavelet_parameter_before_numpy_warns(self):
        # tier-1 turns a numpy RuntimeWarning into an error, so a warning
        # raised first would fail this test
        net = model.CCSPNet(desk_config(lr_wavelet=1e308))
        trials, labels = desk_batch(np.random.default_rng(0))
        net.train_step(trials, labels)
        assert all(abs(float(c.value)) > 1e307 for _, _, c in net.wavelet)
        with pytest.raises(NumericalError, match="wavelet gradient in h is not finite"):
            net.train_step(trials, labels)


class TestZeroStageScale:
    @pytest.mark.parametrize("ablate, name", [("", "bn_wk.gamma"), ("", "bn_tc.gamma"),
                                              ("tcnn", "bn_wk.gamma"),
                                              ("wkcnn", "bn_tc.gamma")])
    def test_zero_in_a_spectral_batch_norm_scale_is_a_data_error(self, tmp_path,
                                                                 ablate, name):
        net, _, _ = fitted_desk_model(ablate)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [
            (n, last_entry_set(a, 0.0) if n == name else a) for n, a in items])
        with pytest.raises(DataError, match=f"m.ccsp: {name} holds a zero batch-norm scale"):
            model.CCSPNet.load(path)


# what each array of a .ccsp file is perturbed to; None swaps the first two
# entries of its last axis
FUZZ_VALUES = {"nan": np.nan, "inf": np.inf, "minus_one": -1.0, "zero": 0.0,
               "swap": None}


def perturbed(arr, value, rng):
    """A copy of `arr` with one seeded entry set to `value`, or with the first
    two entries of its last axis swapped when `value` is None; None when the
    array has no such entries."""
    arr = np.array(arr, dtype=np.float64)
    if value is None:
        if arr.ndim == 0 or arr.shape[-1] < 2:
            return None
        arr[..., [0, 1]] = arr[..., [1, 0]]
    elif arr.size:
        arr.flat[rng.integers(arr.size)] = value
    else:
        return None
    return arr


class TestCcspFuzz:
    @pytest.mark.parametrize("ablate", ("", "tcnn"))
    def test_perturbed_arrays_predict_or_raise_a_named_error(self, tmp_path, ablate):
        # every array of a finalized model, each perturbed five ways, through
        # _restore, save, load and predict
        net, trials, _ = fitted_desk_model(ablate)
        arrays = {name: np.array(a) for name, a in net._state_arrays()}
        rng = np.random.default_rng(26)
        path = tmp_path / "fuzz.ccsp"
        outcomes = {"clean": 0, "error": 0}
        for name in arrays:
            for how, value in FUZZ_VALUES.items():
                arr = perturbed(arrays[name], value, rng)
                if arr is None:
                    continue
                fresh = model.CCSPNet(net.config)
                try:
                    fresh._restore({**arrays, name: arr}, True, path)
                    fresh.save(path)
                    pred = model.CCSPNet.load(path).predict(trials)
                except CcspError as exc:
                    # a bad array is the file's fault: a DataError naming it
                    assert type(exc) is DataError and str(path) in str(exc), \
                        (name, how, exc)
                    outcomes["error"] += 1
                else:
                    assert pred.shape == (len(trials),), (name, how)
                    outcomes["clean"] += 1
        assert outcomes["clean"] and outcomes["error"], outcomes


class TestFrnFisherCriterion:
    def test_j_is_the_fisher_criterion_of_the_lda_projection_and_trains_nothing(
            self, tmp_path):
        # with no dense layer J is the Fisher criterion of the CSP features
        # on lda.fit's direction; every gradient is the CSP loss's alone, as
        # a twin loaded from the model's file before the step computes it
        trials, labels = desk_batch(np.random.default_rng(30), n=24)
        net = model.CCSPNet(desk_config(ablate="frn"))
        for _ in range(3):
            twin = model.CCSPNet.load(net.save(tmp_path / "m.ccsp"))
            loss, feats = twin.csp_feedback_loss(trials, labels)
            loss.backward()
            concat = feats.value.reshape(len(labels), -1)
            direction = lda.fit(concat, labels).w
            expected = lda.fisher_criterion_node(ad.constant(concat @ direction), labels)
            _, loss_j, _ = net.train_step(trials, labels)
            assert loss_j == pytest.approx(float(expected.value), rel=1e-12, abs=0)
            for name, p in net._params.items():
                assert np.array_equal(p.grad, twin._params[name].grad), name


class TestSoftmaxHead:
    def test_j_is_the_mean_cross_entropy_and_trains_the_dense_layers(self, tmp_path):
        # without the LDA stage J is the binary cross-entropy of the dense
        # output's softmax over N; each gradient is the CSP loss's plus that
        # cross-entropy's weighted by 1 - r, as a twin loaded from the model's
        # file before the step computes them
        trials, labels = desk_batch(np.random.default_rng(31), n=24)
        net = model.CCSPNet(desk_config(ablate="lda"))
        for _ in range(3):
            twin = model.CCSPNet.load(net.save(tmp_path / "m.ccsp"))
            loss, feats = twin.csp_feedback_loss(trials, labels)
            loss.backward()
            out = twin._dense_forward(ad.constant(feats.value.reshape(len(labels), -1)),
                                      training=True)
            ce = ad.scale(ad.binary_cross_entropy(ad.softmax(out),
                                                  csp.target_vectors(labels)),
                          1.0 / len(labels))
            ce.backward(seed=1.0 - twin.config.loss_ratio)
            _, loss_j, _ = net.train_step(trials, labels)
            assert loss_j == pytest.approx(float(ce.value), rel=1e-12, abs=0)
            for name, p in net._params.items():
                assert np.array_equal(p.grad, twin._params[name].grad), name
            assert all(p.grad is not None for p in net._params.values()
                       if p.name.startswith(("dense.", "bn_d.")))


class TestAblations:
    @pytest.mark.parametrize("ablate", model.ABLATIONS)
    def test_each_variant_trains_and_predicts(self, ablate):
        net, trials, labels = fitted_desk_model(ablate, seed=11)
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

    @pytest.mark.parametrize("ablate, size", [("", 6), ("wkcnn", 6), ("tcnn", 6),
                                              ("frn", 18), ("lda", 0)])
    def test_lda_count_is_the_frozen_heads_file_arrays(self, ablate, size):
        # the LDA direction over the dense output (the 16 CSP features under
        # frn) and the two class means; the softmax head freezes nothing
        net, _, _ = fitted_desk_model(ablate)
        frozen = sum(a.size for name, a in net._state_arrays() if name.startswith("lda."))
        assert net.count_parameters()["lda"] == frozen == size


def functions_comparing(path, attr):
    """`Class.function` (or `function`) of each function in the source file
    `path` that compares an attribute or a name `attr`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for owner in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
        for fn in owner.body:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(c, ast.Compare) and any(
                        getattr(n, "attr", getattr(n, "id", None)) == attr
                        for n in ast.walk(c))
                    for c in ast.walk(fn)):
                found.add(prefix + fn.name)
    return found


class TestOneLayout:
    def test_only_build_chooses_the_layout_and_no_code_asks_for_the_head(self):
        # an ablation is compared where the config is checked and where
        # _build lays out the stages, the dense layers and the head; the
        # rest of the model calls the head without asking which one it is
        package = Path(model.__file__).parent
        compared = {f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
                    for name in functions_comparing(path, "ablate")}
        assert compared == {"model.ModelConfig.validate", "model.CCSPNet._build"}
        hits = [(path.name, word) for path in sorted(package.glob("*.py"))
                for word in (".classifier", "frozen_lda", "_head_width")
                if word in path.read_text(encoding="utf-8")]
        assert hits == []


# one array of each kind in a finalized full-model file
ARRAY_KINDS = ["temporal.kernels", "bn_wk.running_mean", "adam.m.dense.0.w",
               "adam.step", "history", "csp.0.sigma0", "csp.0.w_reduced",
               "lda.w", "lda.mu"]


def last_entry_set(arr, value):
    """A copy of `arr` whose last entry is `value`."""
    arr = arr.copy()
    arr.flat[-1] = value
    return arr


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

    @pytest.mark.parametrize("flag", (2, 255))
    def test_finalized_flag_other_than_0_or_1_rejected(self, tmp_path, flag):
        # byte 6, after the magic and the version; read as a truth value it
        # would load as finalized and save back as 1
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        blob = bytearray(path.read_bytes())
        blob[6] = flag
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"m.ccsp: finalized flag {flag} is not 0 or 1"):
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

    def test_bytes_after_the_last_array_rejected(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(DataError, match="m.ccsp: 7 bytes after the last array"):
            model.CCSPNet.load(path)

    @pytest.mark.parametrize("old, new", [("epochs=2\n", "epochs=x\n"),
                                          ("ablate=\n", "ablate=q\n"),
                                          ("temporal_len=16\n", "temporal_len=0\n"),
                                          ("sample_rate_hz=100.0\n", "sample_rate_hz=0.0\n"),
                                          ("lr_main=0.01\n", "lr_main=-1.0\n"),
                                          ("l2=0.1\n", "l2=nan\n"),
                                          ("seed=0\n", "seed=-1\n"),
                                          ("epochs=2\n", "epochs=2\nepochs=5\n")])
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

    def test_repeated_array_is_a_data_error(self, tmp_path):
        # a second, negated lda.w after the first would otherwise win
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: items + [("lda.w", -a) for n, a in items
                                                    if n == "lda.w"])
        with pytest.raises(DataError, match="m.ccsp: repeated array 'lda.w'"):
            model.CCSPNet.load(path)

    def test_unexpected_array_is_a_data_error(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: items + [("bogus", np.zeros(3))])
        with pytest.raises(DataError, match="m.ccsp: unexpected array 'bogus'"):
            model.CCSPNet.load(path)

    def test_unfinalized_file_with_csp_arrays_is_a_data_error(self, tmp_path):
        net, _ = self.trained(tmp_path)
        csp_arrays = [(n, a) for n, a in net._state_arrays() if n.startswith("csp.")]
        path = self.trained(tmp_path, finalized=False)[0].save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: items + csp_arrays)
        with pytest.raises(DataError, match="m.ccsp: unexpected array 'csp.0.sigma0'"):
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

    @pytest.mark.parametrize("name", ARRAY_KINDS + ["bn_wk.running_var", "adam.v.dense.0.w"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_array_is_a_data_error(self, tmp_path, name, value):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [(n, last_entry_set(a, value) if n == name else a)
                                            for n, a in items])
        with pytest.raises(DataError, match=f"m.ccsp: {name} holds a non-finite value"):
            model.CCSPNet.load(path)

    @pytest.mark.parametrize("name", ["bn_wk.running_var", "bn_d.1.running_var"])
    def test_negative_running_variance_is_a_data_error(self, tmp_path, name):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [(n, -np.ones_like(a) if n == name else a)
                                            for n, a in items])
        with pytest.raises(DataError, match=f"m.ccsp: {name} holds a negative variance"):
            model.CCSPNet.load(path)

    @pytest.mark.parametrize("name, value, problem", [
        ("wavelet.h.2", 0.0, "a non-positive wavelet width"),
        ("wavelet.h.2", -1.0, "a non-positive wavelet width"),
        ("adam.v.temporal.kernels", -1e-9, "a negative second moment"),
        ("csp.1.eigenvalues", -1.0, "an eigenvalue below 0 or above 1"),
        ("csp.1.eigenvalues", 1 + 1e-8, "an eigenvalue below 0 or above 1"),
        ("csp.0.sigma0", -1.0, "a negative variance on its diagonal"),
        ("csp.3.sigma1", -1e-9, "a negative variance on its diagonal")])
    def test_out_of_range_array_is_a_data_error(self, tmp_path, name, value, problem):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [(n, last_entry_set(a, value) if n == name else a)
                                            for n, a in items])
        with pytest.raises(DataError, match=f"m.ccsp: {name} holds {problem}"):
            model.CCSPNet.load(path)

    @pytest.mark.parametrize("name, edit, problem", [
        ("csp.2.w_reduced", lambda items: dict(items)["csp.2.w_full"][:, 2:6],
         "is not the first two and last two columns of w_full"),
        ("csp.2.w_reduced", lambda items: np.nextafter(dict(items)["csp.2.w_reduced"], 2.0),
         "is not the first two and last two columns of w_full"),
        ("csp.0.eigenvalues", lambda items: dict(items)["csp.0.eigenvalues"][::-1],
         "is not in descending order")])
    def test_inconsistent_csp_arrays_are_a_data_error(self, tmp_path, name, edit, problem):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [(n, edit(items) if n == name else a)
                                            for n, a in items])
        with pytest.raises(DataError, match=f"m.ccsp: {name} {problem}"):
            model.CCSPNet.load(path)

    def test_every_array_stays_an_array_after_training(self, tmp_path):
        # numpy arithmetic on a 0-d array gives a scalar, which _restore
        # cannot write into
        net, _ = self.trained(tmp_path)
        assert [name for name, arr in net._state_arrays()
                if type(arr) is not np.ndarray] == []

    def test_zero_running_variance_loads(self, tmp_path):
        net, _ = self.trained(tmp_path)
        path = net.save(tmp_path / "m.ccsp")
        rewrite_arrays(path, lambda items: [
            (n, np.zeros_like(a) if n == "bn_d.1.running_var" else a) for n, a in items])
        assert model.CCSPNet.load(path).config == net.config


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
        ("epochs\n", "^config text:1: expected 'key=value'$"),
        ("bogus=1\n", "unknown key 'bogus'"),
        ("dense_dims=16,8,x\n", "bad value for 'dense_dims'"),
        pytest.param(model.ModelConfig().to_text() + "epochs=5\n",
                     "repeated key 'epochs'", id="repeated-key"),
    ])
    def test_bad_text_rejected(self, text, error):
        with pytest.raises(ValueError, match=error):
            model.ModelConfig.from_text(text)

    def test_blank_and_comment_lines_are_skipped(self):
        cfg = every_field_changed()
        lines = cfg.to_text().splitlines(keepends=True)
        text = "# note\n\n" + "".join(lines[:5]) + "\n  # note\n" + "".join(lines[5:])
        assert model.ModelConfig.from_text(text) == cfg

    @pytest.mark.parametrize("new, error", [
        ("seed\n", "^config text:15: expected 'key=value'$"),
        ("seed=0\nseed=5\n", "^config text:16: repeated key 'seed'$"),
        ("bogus=1\n", "^config text:15: unknown key 'bogus'$"),
        ("seed=x\n", r"^config text:15: bad value for 'seed': invalid literal for int\(\)"),
    ])
    def test_line_errors_name_the_line(self, new, error):
        text = model.ModelConfig().to_text().replace("seed=0\n", new)
        with pytest.raises(ValueError, match=error):
            model.ModelConfig.from_text(text)

    @pytest.mark.parametrize("new, error", [
        ("epochs\n", "config text:4: expected 'key=value'"),
        ("epochs=3\nepochs=3\n", "config text:5: repeated key 'epochs'"),
        ("epochs=3\nbogus=1\n", "config text:5: unknown key 'bogus'"),
        ("epochs=x\n", r"config text:4: bad value for 'epochs': "
                       r"invalid literal for int\(\) with base 10: 'x'"),
    ])
    def test_line_errors_through_load_name_the_file(self, tmp_path, new, error):
        path = model.CCSPNet(desk_config()).save(tmp_path / "m.ccsp")
        edit_config_text(path, "epochs=3\n", new)
        with pytest.raises(DataError, match=rf"m\.ccsp: bad config text: {error}$"):
            model.CCSPNet.load(path)

    def test_numpy_values_are_written_as_python_values(self, tmp_path):
        cfg = desk_config(loss_ratio=np.float64(0.25), seed=np.int64(3),
                          dense_dims=(np.int64(8), 4))
        assert cfg.to_text() == desk_config(loss_ratio=0.25, seed=3,
                                            dense_dims=(8, 4)).to_text()
        path = model.CCSPNet(cfg).save(tmp_path / "m.ccsp")
        assert model.CCSPNet.load(path).config == cfg


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


def kernel_parameters(net):
    """The Parameters each spectral stage builds its kernel node from."""
    used = []
    for stage in net.spectral_stages:
        node = stage.kernels()
        used += node._parents or (node,)
    return used


class TestCopiesHoldTheirOwnParameters:
    """A copied or unpickled model computes with, and trains, its own
    Parameters: each stage holds them as data, not in a closure, and the head
    its own frozen state."""

    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_deepcopy_trains_its_own_parameters(self, tmp_path, ablate):
        net, trials, labels = fitted_desk_model(ablate)
        before = net.save(tmp_path / "before.ccsp").read_bytes()
        predictions = net.predict(trials)
        net.optimizer.zero_grad()
        twin = copy.deepcopy(net)
        own = set(map(id, twin._params.values()))
        assert kernel_parameters(twin) and {id(p) for p in kernel_parameters(twin)} <= own

        twin.train_step(trials, labels)
        assert net.save(tmp_path / "after.ccsp").read_bytes() == before
        np.testing.assert_array_equal(net.predict(trials), predictions)
        assert all(p.grad is None for p in net._params.values())
        # the copy took the step the original takes
        net.train_step(trials, labels)
        assert twin.save(tmp_path / "twin.ccsp").read_bytes() \
            == net.save(tmp_path / "net.ccsp").read_bytes()

    @pytest.mark.parametrize("ablate", ("",) + model.ABLATIONS)
    def test_pickle_round_trip(self, tmp_path, ablate):
        net, trials, labels = fitted_desk_model(ablate)
        twin = pickle.loads(pickle.dumps(net))
        np.testing.assert_array_equal(twin.predict(trials), net.predict(trials))
        assert twin.save(tmp_path / "twin.ccsp").read_bytes() \
            == net.save(tmp_path / "net.ccsp").read_bytes()
        for m in (net, twin):
            m.train_step(trials, labels)
        assert twin.save(tmp_path / "twin.ccsp").read_bytes() \
            == net.save(tmp_path / "net.ccsp").read_bytes()
