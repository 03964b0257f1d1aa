"""CCSPNet assembly: spectral CNN stack, CSP branches, dense reduction, LDA.

The pipeline is wavelet-kernel convolution -> temporal convolution -> four
CSP branches -> 16 log-variance features -> dense 16-16-8-4 network -> head.
Training alternates two signals per batch: the CSP feedback loss L drives the
convolutional stack (wavelet parameters get their own learning rate) and the
head's J, weighted by (1 - r), drives the dense network on detached features:
`_LdaHead`'s Fisher criterion, or `_SoftmaxHead`'s cross-entropy under `lda`.
CSP projections and LDA directions are refit per batch, constant in backprop.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import csp, data, dsp, lda
from .errors import (ConfigError, DataError, ModelStateError, check_both_classes,
                     check_finite_trials, check_labels, numpy_faults, trial_blocks)

MODEL_MAGIC = b"CCSP"
MODEL_VERSION = 1

ABLATIONS = ("wkcnn", "tcnn", "frn", "lda")


@dataclass
class ModelConfig:
    n_channels: int = 62
    n_timepoints: int = 250
    n_wavelet_kernels: int = 4
    wavelet_len: int = 32
    n_temporal_kernels: int = 4
    temporal_len: int = 64
    dense_dims: tuple = (16, 8, 4)
    loss_ratio: float = 0.3
    lr_wavelet: float = 0.001
    lr_main: float = 0.01
    l1: float = 0.01
    l2: float = 0.1
    epochs: int = 20
    batch_size: int = 300
    seed: int = 0
    sample_rate_hz: float = float(dsp.TARGET_HZ)
    ablate: str = ""

    def validate(self):
        for f in fields(self):
            v, kind = getattr(self, f.name), _FIELD_TYPES[f.type]
            if not kind.check(v):
                raise ConfigError(f"{f.name} {kind.must_be}, got {v!r}")
        for name in ("n_wavelet_kernels", "wavelet_len", "temporal_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_timepoints < 2:
            raise ConfigError(f"n_timepoints must be at least 2 for a covariance, "
                              f"got {self.n_timepoints}")
        for name in ("wavelet_len", "temporal_len"):
            if getattr(self, name) > self.n_timepoints:
                raise ConfigError(f"{name} {getattr(self, name)} is longer than the "
                                  f"{self.n_timepoints} time points of a trial")
        if min(self.dense_dims, default=0) < 1:
            raise ConfigError(f"dense_dims entries must be at least 1, got {self.dense_dims}")
        if self.n_wavelet_kernels != self.n_temporal_kernels:
            raise ConfigError("n_wavelet_kernels and n_temporal_kernels must match "
                              "(depthwise pairing)")
        if self.n_channels < 4:
            raise ConfigError(f"n_channels must be at least 4 for the CSP reduction, "
                              f"got {self.n_channels}")
        if self.ablate and self.ablate not in ABLATIONS:
            raise ConfigError(f"ablate must be empty or one of {ABLATIONS}, "
                              f"got {self.ablate!r}")
        if not 0.0 <= self.loss_ratio <= 1.0:
            raise ConfigError(f"loss_ratio must be in [0, 1], got {self.loss_ratio}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.dense_dims[-1] != 4:
            raise ConfigError(f"dense_dims must end in 4 outputs, got {self.dense_dims}")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ConfigError(f"sample_rate_hz must be finite and > 0, "
                              f"got {self.sample_rate_hz}")
        # a zero learning rate freezes its parameter group
        for name in ("lr_main", "lr_wavelet", "l1", "l2"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_text(self) -> str:
        """One `name=value` line per field, sorted by name: the config header
        of a .ccsp file."""
        return "".join(f"{f.name}={_FIELD_TYPES[f.type].write(getattr(self, f.name))}\n"
                       for f in sorted(fields(self), key=lambda f: f.name))

    @classmethod
    def read_field(cls, name: str, raw: str):
        """The value of field `name` from its text `raw`, as `to_text` writes
        it. Raises ValueError on an unknown name or a value that does not
        parse as the field's type."""
        types = {f.name: f.type for f in fields(cls)}
        if name not in types:
            raise ValueError(f"unknown key {name!r}")
        try:
            return _FIELD_TYPES[types[name]].read(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {name!r}: {exc}") from None

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        """Parse `name=value` lines as `to_text` writes them; every field must
        appear once, and no value is validated. Raises ValueError on a missing
        name, and `config text:<n>:` on a line `key_value_lines` or `read_field` rejects."""
        values = {}
        for lineno, name, raw in data.key_value_lines(text, "config text", ValueError, "="):
            try:
                values[name] = cls.read_field(name, raw)
            except ValueError as exc:
                raise ValueError(f"config text:{lineno}: {exc}") from None
        missing = [f.name for f in fields(cls) if f.name not in values]
        if missing:
            raise ValueError(f"config missing key {missing[0]!r}")
        return cls(**values)


class _FieldType(NamedTuple):
    """How a ModelConfig field of one annotated type is checked, read and written."""

    must_be: str                     # what a value must be, for the error message
    check: Callable[[object], bool]
    read: Callable[[str], object]    # text -> value
    write: Callable[[object], str]   # value -> text


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool would be written as True or False."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# each ModelConfig field type by its annotation; a float is written as a
# Python float, whose repr, unlike a numpy float's, is the number alone
_FIELD_TYPES = {
    "int": _FieldType("must be an integer", _is_int, int, lambda v: str(int(v))),
    "float": _FieldType("must be a real number",
                        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                        float, lambda v: repr(float(v))),
    "tuple": _FieldType("entries must be integers, in a tuple",
                        lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
                        lambda raw: tuple(int(x) for x in raw.split(",")),
                        lambda v: ",".join(str(int(x)) for x in v)),
    "str": _FieldType("must be a string", lambda v: isinstance(v, str), str, str),
}


class _Stage(NamedTuple):
    """One spectral stage: a depthwise temporal convolution of every map, then
    batch norm over the maps. `kernels()` makes the K x len kernel node: a
    `functools.partial` of a module-level function and the Parameters the
    kernels are made from, so a copy or a pickle of the model brings its
    stages with its own Parameters. A stage must not hold the model, so that
    a dropped model is freed at once rather than by the cycle collector."""

    name: str                          # names its partial operator in stage_operators
    kernels: Callable[[], ad.Node]
    bias: ad.Parameter | None
    bn: ad.BatchNorm

    def operator(self, t_len: int) -> tuple[np.ndarray, np.ndarray]:
        """(B, o), K x T x T and K x T: in eval mode the stage sends row x of map
        k to x @ B[k] + o[k], its convolution then its batch norm as one map."""
        bn = self.bn
        scale = bn.gamma.value / np.sqrt(bn.running_var + ad.BN_EPS)
        bands = dsp.toeplitz_bands(self.kernels().value, t_len) * scale[:, None, None]
        bias = self.bias.value if self.bias is not None else 0.0
        offset = (bias - bn.running_mean) * scale + bn.beta.value
        return bands, np.repeat(offset[:, None], t_len, axis=1)


class CCSPNet:
    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.frozen_branches = None
        self.history = []
        self._rng = np.random.default_rng(config.seed)
        self._params = {}
        self._adam_params = {"wavelet": [], "weight": [], "bias": [], "bn": []}
        self._bn_layers = {}
        # (key, operator, offset) of the last _eval_operator build
        self._eval_operator_cache = None
        self._build()
        self.optimizer = self._build_optimizer()

    # construction ---------------------------------------------------------

    def _register(self, name, value, adam_group):
        p = ad.Parameter(np.asarray(value, dtype=np.float64), name=name)
        self._params[name] = p
        self._adam_params[adam_group].append(p)
        return p

    def _register_bn(self, name, n_features):
        layer = ad.BatchNorm(self._register(f"{name}.gamma", np.ones(n_features), "bn"),
                             self._register(f"{name}.beta", np.zeros(n_features), "bn"))
        self._bn_layers[name] = layer
        return layer

    def _build(self):
        """Lay out the spectral stages, the dense layers and the head: an ablation
        leaves its component out, or picks the softmax head, here and nowhere else."""
        cfg = self.config
        k = cfg.n_wavelet_kernels
        self.wavelet = []
        self.spectral_stages = []
        if cfg.ablate != "wkcnn":
            freqs = np.linspace(dsp.WAVELET_FREQ_MIN, dsp.WAVELET_FREQ_MAX, k)
            for i in range(k):
                self.wavelet.append((
                    self._register(f"wavelet.f.{i}", freqs[i], "wavelet"),
                    self._register(f"wavelet.h.{i}", 0.25, "wavelet"),
                    self._register(f"wavelet.c.{i}", 4.0 * np.log(2.0), "wavelet"),
                ))
            self.spectral_stages.append(_Stage(
                "wkcnn", functools.partial(_wavelet_kernels, tuple(self.wavelet), cfg),
                None, self._register_bn("bn_wk", k)))

        if cfg.ablate != "tcnn":
            bound = 1.0 / np.sqrt(cfg.temporal_len)
            kernels = self._register(
                "temporal.kernels",
                self._rng.uniform(-bound, bound, size=(k, cfg.temporal_len)),
                "weight")
            bias = self._register("temporal.bias", np.zeros(k), "bias")
            self.spectral_stages.append(_Stage(
                "tcnn", functools.partial(_temporal_kernels, kernels), bias,
                self._register_bn("bn_tc", k)))

        # (weight, bias, batch norm or None) per dense layer
        self.dense = []
        d_in = 4 * k
        if cfg.ablate != "frn":
            for li, d_out in enumerate(cfg.dense_dims):
                bound = 1.0 / np.sqrt(d_in)
                w = self._register(f"dense.{li}.w",
                                   self._rng.uniform(-bound, bound, size=(d_in, d_out)),
                                   "weight")
                b = self._register(f"dense.{li}.b", np.zeros(d_out), "bias")
                bn = (self._register_bn(f"bn_d.{li}", d_out)
                      if li < len(cfg.dense_dims) - 1 else None)
                self.dense.append((w, b, bn))
                d_in = d_out
        self.head = _SoftmaxHead() if cfg.ablate == "lda" else _LdaHead(d_in)

    def _build_optimizer(self):
        cfg = self.config
        groups = [{"params": self._adam_params["wavelet"], "lr": cfg.lr_wavelet},
                  {"params": self._adam_params["weight"], "lr": cfg.lr_main,
                   "l1": cfg.l1, "l2": cfg.l2},
                  {"params": self._adam_params["bias"] + self._adam_params["bn"],
                   "lr": cfg.lr_main}]
        return ad.Adam([g for g in groups if g["params"]])

    # forward passes -------------------------------------------------------

    def _checked_batch(self, batch) -> np.ndarray:
        """`batch` as float64: real, finite, and N x C x T for the model's C and T."""
        cfg = self.config
        if np.iscomplexobj(batch):
            raise DataError(f"batch samples must be real, not {np.asarray(batch).dtype}")
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 3 or batch.shape[1] != cfg.n_channels \
                or batch.shape[2] != cfg.n_timepoints:
            raise DataError(
                f"batch shape {batch.shape} does not match model input "
                f"(N, {cfg.n_channels}, {cfg.n_timepoints})")
        check_finite_trials(batch)
        return batch

    def forward_spectral(self, batch: np.ndarray) -> ad.Node:
        """The spectral stages in training mode: N x C x T in, node with
        N x K x C x T out. Eval mode goes through `stage_operators`."""
        batch = self._checked_batch(batch)
        x = ad.expand_maps(ad.constant(batch[:, None]), self.config.n_wavelet_kernels)
        for stage in self.spectral_stages:
            x = ad.conv_same_temporal(x, stage.kernels(), stage.bias)
            x = ad.batch_norm(x, stage.bn, training=True)
        return x

    def _dense_forward(self, x: ad.Node, training: bool) -> ad.Node:
        for w, b, bn in self.dense:
            x = ad.dense(x, w, b)
            if bn is not None:
                x = ad.batch_norm(x, bn, training)
        return x

    def csp_feedback_loss(self, batch, labels):
        """Training-mode spectral forward + per-branch CSP refit + cross-entropy
        loss; returns (loss node, N x K x 4 feature node). The features are
        detached, a constant of the loss's feature values, so they outlive the
        loss's backward, which frees its graph's inner values. Labels and
        classes are checked before any layer; a batch with no trial axis has
        no trial."""
        labels = check_labels(labels, len(batch) if np.ndim(batch) else 0)
        check_both_classes(labels)
        spectral = self.forward_spectral(batch)
        wrs = np.stack([csp.fit_branch(*csp.class_covariances(maps, labels)).w_reduced
                        for maps in np.moveaxis(spectral.value, 1, 0)])
        feats = csp.spatial_filter_features(spectral, wrs)
        return csp.csp_loss(feats, labels), ad.constant(feats.value)

    # training -------------------------------------------------------------

    def _clamp_wavelets(self):
        for f, h, _ in self.wavelet:
            f.value = np.asarray(np.clip(f.value, dsp.WAVELET_FREQ_MIN,
                                         dsp.WAVELET_FREQ_MAX))
            h.value = np.asarray(np.maximum(h.value, dsp.WAVELET_WIDTH_MIN))

    def train_step(self, batch, labels):
        """One optimizer step; returns (L, J, combined loss)."""
        self.optimizer.zero_grad()

        def blame(exc):
            p = max(self._params.values(), key=lambda p: np.abs(p.value).max())
            lr = "lr_wavelet" if p.name.startswith("wavelet.") else "lr_main"
            return (f"training step is not finite ({exc}); the batch's largest "
                    f"magnitude is {np.abs(batch).max():.3g}, and the largest parameter "
                    f"is {p.name} at {np.abs(p.value).max():.3g}, in the Adam group "
                    f"of {lr}={getattr(self.config, lr)}")

        # raise, not warn: weights an Adam step threw too far overflow here
        with numpy_faults(blame):
            loss_node, feats = self.csp_feedback_loss(batch, labels)
            loss_node.backward()
            loss_l = float(loss_node.value)
            concat = ad.constant(feats.value.reshape(len(feats.value), -1))
            out = self._dense_forward(concat, training=True)
            loss_j = self.head.backward(out, labels, 1.0 - self.config.loss_ratio)
        self.optimizer.step()
        self._clamp_wavelets()
        return loss_l, loss_j, lda.combined_loss(loss_l, loss_j,
                                                 self.config.loss_ratio)

    def train(self, trials, labels):
        """Epoch/batch loop over a training set; appends to the history log."""
        trials = self._checked_batch(trials)
        labels = check_labels(labels, len(trials))
        check_both_classes(labels)
        for epoch in range(self.config.epochs):
            order = self._rng.permutation(len(trials))
            for bi, idx in enumerate(_train_batches(order, labels,
                                                    self.config.batch_size)):
                loss_l, loss_j, combined = self.train_step(trials[idx], labels[idx])
                self.history.append((float(epoch), float(bi),
                                     loss_l, loss_j, combined))
        return self

    # freezing and inference ------------------------------------------------

    def finalize(self, trials, labels):
        """Refit and freeze CSP and the head on the full training set: the CSP
        class covariances streamed from its eval-mode maps, the head on its outputs."""
        trials = self._checked_batch(trials)
        labels = check_labels(labels, len(trials))
        check_both_classes(labels)
        # all the sums before any solve: scipy's LAPACK waits on numpy's spinning BLAS threads
        with numpy_faults(lambda exc: f"CSP class covariances are not finite ({exc})"):
            covariances = [csp.class_covariances(_branch_maps(trials, m, c), labels)
                           for m, c in zip(*self._eval_operator())]
        self.frozen_branches = [csp.fit_branch(*pair) for pair in covariances]
        try:
            self.head.freeze(lambda: self._frozen_dense(self._frozen_features(trials)).value,
                             labels)
        except BaseException:
            self.frozen_branches = None   # finalized whole or not at all
            raise
        return self

    @property
    def finalized(self) -> bool:
        return self.frozen_branches is not None

    def frozen_projection(self) -> np.ndarray:
        """The frozen branches' reduced CSP projections stacked, K x C x 4."""
        return np.stack([br.w_reduced for br in self.frozen_branches])

    def frozen_features(self, batch) -> ad.Node:
        """N x K x 4 CSP features of an N x C x T batch: its eval-mode maps
        under the frozen projections, projected before the cached operator of
        `_eval_operator` applies, so no map is made."""
        batch = self._checked_batch(batch)
        if not self.finalized:
            raise ModelStateError("model is not finalized; call finalize first")
        return self._frozen_features(batch)

    def _frozen_features(self, batch) -> ad.Node:
        """`frozen_features` of a batch that `_checked_batch` has passed."""
        with numpy_faults(lambda exc: f"frozen CSP features are not finite ({exc})"):
            return csp.spatial_filter_features(ad.constant(batch),
                                               self.frozen_projection(),
                                               self._eval_operator())

    def _frozen_dense(self, feats: ad.Node) -> ad.Node:
        """Eval-mode dense layers over N x K x 4 frozen features, the K branches'
        four features side by side."""
        flat = ad.constant(feats.value.reshape(-1, 4 * self.config.n_wavelet_kernels))
        with numpy_faults(lambda exc: f"eval-mode dense head is not finite ({exc})"):
            return self._dense_forward(flat, training=False)

    def stage_operators(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, M, c) after each spectral stage: in eval mode the stages up to
        the named one send row x of map k to x @ M[k] + c[k]. The product of
        the stages' operators, M <- M @ B and c <- c @ B + o."""
        stages = []
        for stage in self.spectral_stages:
            bands, offset = stage.operator(self.config.n_timepoints)
            if stages:
                _, operator, previous = stages[-1]
                offset += np.matmul(previous[:, None], bands)[:, 0]
                bands = np.matmul(operator, bands)
            stages.append((stage.name, bands, offset))
        return stages

    def _eval_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) of the whole spectral stack, cached under the values of every
        parameter and running statistic: a training step, an in-place write or
        a load makes the next call rebuild it."""
        stats = [a for layer in self._bn_layers.values()
                 for a in (layer.running_mean, layer.running_var)]
        key = b"".join(np.ascontiguousarray(a).tobytes()
                       for a in [p.value for p in self._params.values()] + stats)
        if self._eval_operator_cache is None or self._eval_operator_cache[0] != key:
            self._eval_operator_cache = (key,) + self.stage_operators()[-1][1:]
        return self._eval_operator_cache[1:]

    def predict(self, batch) -> np.ndarray:
        return self.head.predict(self._frozen_dense(self.frozen_features(batch)))

    # accounting -------------------------------------------------------------

    def count_parameters(self) -> dict:
        cfg = self.config
        counts = dict.fromkeys(("wavelet", "temporal", "batch_norm", "dense"), 0)
        for name, p in self._params.items():
            layer = name.split(".")[0]
            counts["batch_norm" if layer.startswith("bn_") else layer] += p.value.size
        counts["csp_frozen"] = cfg.n_wavelet_kernels * cfg.n_channels * 4
        # the head's frozen state: the LDA direction and the two class means
        counts["lda"] = sum(a.size for _, a in self.head.arrays())
        counts["total"] = sum(counts.values())
        return counts

    # serialization ----------------------------------------------------------

    def _state_arrays(self):
        """The .ccsp file's arrays in file order, as (name, array) pairs. Each
        is the model's live array except adam.step and history."""
        items = [(name, p.value) for name, p in self._params.items()]
        for bn_name, layer in self._bn_layers.items():
            items.append((f"{bn_name}.running_mean", layer.running_mean))
            items.append((f"{bn_name}.running_var", layer.running_var))
        items.append(("adam.step", np.asarray(float(self.optimizer.step_count))))
        for group in self.optimizer.groups:
            for p, m, v in zip(group["params"], group["m"], group["v"]):
                items.append((f"adam.m.{p.name}", m))
                items.append((f"adam.v.{p.name}", v))
        items.append(("history",
                      np.asarray(self.history, dtype=np.float64).reshape(-1, 5)))
        if self.finalized:
            for i, br in enumerate(self.frozen_branches):
                items += [(f"csp.{i}.{f.name}", getattr(br, f.name)) for f in fields(br)]
            items += self.head.arrays()
        return items

    def save(self, path):
        config_text = self.config.to_text().encode("utf-8")
        arrays = self._state_arrays()
        blob = bytearray()
        blob += MODEL_MAGIC
        blob += struct.pack("<HB", MODEL_VERSION, int(self.finalized))
        blob += struct.pack("<I", len(config_text))
        blob += config_text
        blob += struct.pack("<I", len(arrays))
        for name, arr in arrays:
            arr = np.asarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            blob += struct.pack("<H", len(nb)) + nb
            blob += struct.pack("<B", arr.ndim)
            for d in arr.shape:
                blob += struct.pack("<I", d)
            blob += arr.tobytes()
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        return path

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            blob = fh.read()
        reader = _Reader(blob, path)
        if reader.take(4) != MODEL_MAGIC:
            raise DataError(f"{path}: bad magic, not a model container")
        version, finalized = struct.unpack("<HB", reader.take(3))
        if version != MODEL_VERSION:
            raise DataError(f"{path}: unsupported container version {version}")
        if finalized not in (0, 1):
            raise DataError(f"{path}: finalized flag {finalized} is not 0 or 1")
        config_text = reader.take(reader.u32())
        try:
            model = cls(ModelConfig.from_text(config_text.decode("utf-8")))
        except (ValueError, ConfigError) as exc:
            raise DataError(f"{path}: bad config text: {exc}") from None
        arrays = {}
        for _ in range(reader.u32()):
            try:
                name = reader.take(reader.u16()).decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: array name is not UTF-8") from None
            if name in arrays:
                raise DataError(f"{path}: repeated array {name!r}")
            ndim = struct.unpack("<B", reader.take(1))[0]
            shape = tuple(reader.u32() for _ in range(ndim))
            values = np.frombuffer(
                reader.take(8 * math.prod(shape), what=f"array {name!r}"), dtype="<f8")
            try:
                arrays[name] = values.reshape(shape)
            except ValueError:   # an empty array whose other axes are too long
                raise DataError(f"{path}: impossible shape {shape} "
                                f"for array {name!r}") from None
        if reader.pos < len(blob):
            raise DataError(f"{path}: {len(blob) - reader.pos} bytes after the last array")
        model._restore(arrays, bool(finalized), path)
        return model

    def _restore(self, arrays, finalized, path):
        """Copy a file's arrays into this fresh model, walking `_state_arrays`;
        a finalized file first gets zero CSP branches of the config's shapes.
        It must hold no array that `_state_arrays` does not list. Every array
        must be finite, a running variance, an Adam second moment or a CSP
        class covariance's diagonal non-negative, a wavelet width positive, a
        spectral stage's batch-norm scale non-zero (a zero makes its map
        constant in eval mode), the CSP eigenvalues within [0, 1] and
        non-increasing, and a CSP reduced projection the reduction of its
        branch's w_full."""
        stage_scales = {stage.bn.gamma.name for stage in self.spectral_stages}
        if finalized:
            c = self.config.n_channels
            self.frozen_branches = [
                csp.CspBranch(np.zeros((c, c)), np.zeros((c, c)), np.zeros((c, c)),
                              np.zeros(c), np.zeros((c, 4)))
                for _ in range(self.config.n_wavelet_kernels)]

        state = self._state_arrays()
        listed = {name for name, _ in state}
        for name in arrays:
            if name not in listed:
                raise DataError(f"{path}: unexpected array {name!r}")

        def fetch(name, shape):
            if name not in arrays:
                raise DataError(f"{path}: missing array {name!r}")
            arr = arrays[name]
            if arr.shape != shape:
                raise DataError(f"{path}: shape mismatch for {name!r}: "
                                f"{arr.shape} vs {shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: {name} holds a non-finite value")
            if name.endswith(".running_var") and (arr < 0).any():
                raise DataError(f"{path}: {name} holds a negative variance")
            if name.startswith("adam.v.") and (arr < 0).any():
                raise DataError(f"{path}: {name} holds a negative second moment")
            if name.startswith("wavelet.h.") and (arr <= 0).any():
                raise DataError(f"{path}: {name} holds a non-positive wavelet width")
            if name in stage_scales and (arr == 0).any():
                raise DataError(f"{path}: {name} holds a zero batch-norm scale")
            if name.startswith("csp.") and name.endswith(".eigenvalues"):
                if not csp.in_unit_interval(arr):
                    raise DataError(f"{path}: {name} holds an eigenvalue below 0 or above 1")
                if (np.diff(arr) > 0).any():
                    raise DataError(f"{path}: {name} is not in descending order")
            # w_full comes before w_reduced in the file order, so it is checked
            if name.startswith("csp.") and name.endswith(".w_reduced") and not np.array_equal(
                    arr, csp.reduce_projection(arrays[name.replace("w_reduced", "w_full")])):
                raise DataError(f"{path}: {name} is not the first two and last two "
                                "columns of w_full")
            if name.startswith("csp.") and name.endswith((".sigma0", ".sigma1")) \
                    and (np.diagonal(arr) < 0).any():
                raise DataError(f"{path}: {name} holds a negative variance "
                                "on its diagonal")
            return arr

        for name, live in state:
            if name == "adam.step":
                step = float(fetch(name, ()))
                if not (step.is_integer() and step >= 0):
                    raise DataError(f"{path}: adam.step {step} is not a step count")
                self.optimizer.step_count = int(step)
            elif name == "history":   # any number of rows of 5 columns
                rows = np.shape(arrays.get(name))[:1]
                self.history = [tuple(row) for row in fetch(name, rows + (5,))]
            else:
                live[...] = fetch(name, live.shape)


class _LdaHead:
    """The paper's classifier, LDA over the `width`-wide dense output, trained by
    the Fisher criterion of each batch's own LDA; `freeze` fits `w` and `mu`."""

    def __init__(self, width: int):
        self.w, self.mu = np.zeros(width), np.zeros(2)

    def backward(self, out: ad.Node, labels, seed: float) -> float:
        w = ad.constant(lda.fit(out.value, labels).w[:, None])
        j = lda.fisher_criterion_node(ad.dense(out, w, ad.constant(np.zeros(1))), labels)
        j.backward(seed=seed)
        return float(j.value)

    def freeze(self, outputs: Callable[[], np.ndarray], labels):
        fitted = lda.fit(outputs(), labels)
        self.w[...], self.mu[...] = fitted.w, (fitted.mu0, fitted.mu1)

    def predict(self, out: ad.Node) -> np.ndarray:
        return lda.predict(lda.LdaModel(self.w, *self.mu), out.value)

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return [("lda.w", self.w), ("lda.mu", self.mu)]


class _SoftmaxHead:
    """The `lda` ablation's classifier, a softmax over the four dense outputs
    trained by cross-entropy: class 1 if the first two hold more. No frozen state."""

    def backward(self, out: ad.Node, labels, seed: float) -> float:
        ce = ad.scale(ad.binary_cross_entropy(ad.softmax(out), csp.target_vectors(labels)),
                      1.0 / len(labels))
        ce.backward(seed=seed)
        return float(ce.value)

    def freeze(self, outputs: Callable[[], np.ndarray], labels):
        pass

    def predict(self, out: ad.Node) -> np.ndarray:
        probs = ad.softmax(out).value
        return (probs[:, :2].sum(axis=1) > probs[:, 2:].sum(axis=1)).astype(np.uint8)

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return []


def _wavelet_kernels(wavelet, cfg: ModelConfig) -> ad.Node:
    """The K x wavelet_len Morlet kernel node of the (f, h, c) triples."""
    params = [dsp.MorletParams(float(f.value), float(h.value), float(c.value),
                               cfg.wavelet_len, cfg.sample_rate_hz)
              for f, h, c in wavelet]

    def backward(g):
        for triple, mp, row in zip(wavelet, params, g):
            for p, d in zip(triple, dsp.morlet_gradients(mp, row)):
                if p.requires_grad:
                    p._accumulate(np.asarray(d))

    return ad.Node(np.stack([dsp.build_morlet(mp) for mp in params]),
                   tuple(p for triple in wavelet for p in triple), backward)


def _temporal_kernels(kernels: ad.Parameter) -> ad.Node:
    """The temporal stage's K x temporal_len kernel node: its Parameter."""
    return kernels


def _branch_maps(trials, operator, offset):
    """One branch's maps X M + c of the trials, one block of `trial_blocks` at
    a time, each made into one buffer: read a block before taking the next."""
    blocks = trial_blocks(trials)
    buffer = np.empty((blocks[0].stop,) + trials.shape[1:]) if blocks else None
    for block in blocks:
        maps = np.matmul(trials[block], operator, out=buffer[:block.stop - block.start])
        maps += offset
        yield maps


def _train_batches(order, labels, batch_size):
    """Split the epoch's trial order into batches of batch_size trials.

    A batch without both classes is merged into its neighbour (the previous
    one, or the next for the first batch) until every batch has both, or one
    is left. When every plain batch has both the split is the plain one.
    """
    batches = [order[start:start + batch_size]
               for start in range(0, len(order), batch_size)]
    i = 0
    while i < len(batches) and len(batches) > 1:
        try:
            check_both_classes(labels[batches[i]])
            i += 1
        except DataError:
            i = max(i - 1, 0)
            batches[i:i + 2] = [np.concatenate(batches[i:i + 2])]
    return batches


class _Reader:
    """Bounds-checked cursor over the container bytes."""

    def __init__(self, blob, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n, what="header field"):
        if self.pos + n > len(self.blob):
            raise DataError(f"{self.path}: truncated container while reading {what}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]
