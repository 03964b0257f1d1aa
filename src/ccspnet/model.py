"""CCSPNet assembly: spectral CNN stack, CSP branches, dense reduction, LDA.

The pipeline is wavelet-kernel convolution -> temporal convolution -> four
CSP branches -> 16 log-variance features -> dense 16-16-8-4 network -> LDA.
Training alternates two signals per batch: the CSP feedback loss L drives the
convolutional stack (wavelet parameters get their own learning rate) and the
Fisher criterion J, weighted by (1 - r), drives the dense network on detached
features. CSP projections and the LDA direction are refit per batch and held
constant during backprop.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import csp, dsp, lda
from .errors import ConfigError, DataError, ModelStateError

MODEL_MAGIC = b"CCSP"
MODEL_VERSION = 1

ABLATIONS = ("wkcnn", "tcnn", "frn", "lda")

# published total for the original architecture; our itemization differs,
# see parameter_report and the README
REFERENCE_PARAMETER_TOTAL = 5036


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
    sample_rate_hz: float = 100.0
    ablate: str = ""

    def validate(self):
        for name in ("n_wavelet_kernels", "wavelet_len", "temporal_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if min(self.dense_dims, default=0) < 1:
            raise ConfigError(f"dense_dims entries must be at least 1, got {self.dense_dims}")
        if self.n_wavelet_kernels != self.n_temporal_kernels:
            raise ConfigError("wavelet and temporal kernel counts must match "
                              "(depthwise pairing)")
        if self.n_channels < 4:
            raise ConfigError("need at least 4 channels for the CSP reduction")
        if self.ablate and self.ablate not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablate!r}; "
                              f"choose one of {ABLATIONS}")
        if not 0.0 <= self.loss_ratio <= 1.0:
            raise ConfigError(f"loss_ratio must be in [0, 1], got {self.loss_ratio}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if tuple(self.dense_dims)[-1] != 4:
            raise ConfigError("dense network must end in 4 outputs")

    def to_text(self) -> str:
        """One `name=value` line per field, sorted by name: the config header
        of a .ccsp file."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, partial: bool = False) -> "ModelConfig":
        """Parse `name=value` lines as `to_text` writes them.

        Every field must appear unless `partial`, when an absent field keeps
        its default. Raises ValueError on a malformed line, an unknown name or
        a value that does not parse as the field's type.
        """
        types = {f.name: f.type for f in fields(cls)}
        values = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            name, sep, raw = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line {line!r}")
            if name not in types:
                raise ValueError(f"unknown key {name!r}")
            try:
                values[name] = _FIELD_PARSERS.get(types[name], str)(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {name!r}: {exc}") from None
        missing = [name for name in types if name not in values]
        if missing and not partial:
            raise ValueError(f"config missing key {missing[0]!r}")
        return cls(**values)


# text -> value for each ModelConfig field type; other fields are strings
_FIELD_PARSERS = {"int": int, "float": float,
                  "tuple": lambda raw: tuple(int(x) for x in raw.split(","))}


class _BnLayer(NamedTuple):
    """Learnable affine + running statistics for one batch-norm layer."""

    gamma: ad.Parameter
    beta: ad.Parameter
    state: ad.BatchNormState


class _Stage(NamedTuple):
    """One spectral stage: a depthwise temporal convolution of every map, then
    batch norm over the maps. `kernels` must not hold the model, so that a
    dropped model is freed at once rather than by the cycle collector."""

    name: str                        # key of its maps in forward_spectral's `stages`
    kernels: Callable[[], ad.Node]   # builds the K x len kernel node
    bias: ad.Parameter | None
    bn: _BnLayer


class CCSPNet:
    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.frozen_branches = None
        self.frozen_lda = None
        self.history = []
        self._rng = np.random.default_rng(config.seed)
        self._params = {}
        self._adam_params = {"wavelet": [], "weight": [], "bias": [], "bn": []}
        self._bn_layers = {}
        self._build()
        self.optimizer = self._build_optimizer()

    # construction ---------------------------------------------------------

    def _register(self, name, value, adam_group):
        p = ad.Parameter(np.asarray(value, dtype=np.float64), name=name)
        self._params[name] = p
        self._adam_params[adam_group].append(p)
        return p

    def _register_bn(self, name, n_features):
        layer = _BnLayer(self._register(f"{name}.gamma", np.ones(n_features), "bn"),
                         self._register(f"{name}.beta", np.zeros(n_features), "bn"),
                         ad.BatchNormState(n_features))
        self._bn_layers[name] = layer
        return layer

    def _build(self):
        """Lay out the model: the spectral stages, then the head's dense
        layers and classifier. An ablation leaves its component out here and
        nowhere else."""
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
            wavelet = self.wavelet
            self.spectral_stages.append(_Stage(
                "wkcnn", lambda: _wavelet_kernels(wavelet, cfg), None,
                self._register_bn("bn_wk", k)))

        self.temporal_kernels = None
        if cfg.ablate != "tcnn":
            bound = 1.0 / np.sqrt(cfg.temporal_len)
            kernels = self._register(
                "temporal.kernels",
                self._rng.uniform(-bound, bound, size=(k, cfg.temporal_len)),
                "weight")
            bias = self._register("temporal.bias", np.zeros(k), "bias")
            self.spectral_stages.append(_Stage(
                "tcnn", lambda: kernels, bias, self._register_bn("bn_tc", k)))
            self.temporal_kernels = kernels

        # (weight, bias, batch norm or None) per dense layer
        self.dense = []
        if cfg.ablate != "frn":
            d_in = 4 * k
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
        self.classifier = "softmax" if cfg.ablate == "lda" else "lda"

    @property
    def dense_w(self):
        return [w for w, _, _ in self.dense]

    def _build_optimizer(self):
        cfg = self.config
        groups = [{"params": self._adam_params["wavelet"], "lr": cfg.lr_wavelet},
                  {"params": self._adam_params["weight"], "lr": cfg.lr_main,
                   "l1": cfg.l1, "l2": cfg.l2},
                  {"params": self._adam_params["bias"] + self._adam_params["bn"],
                   "lr": cfg.lr_main}]
        return ad.Adam([g for g in groups if g["params"]])

    # forward passes -------------------------------------------------------

    def forward_spectral(self, batch: np.ndarray, training: bool,
                         stages: dict | None = None) -> ad.Node:
        """The spectral stages: N x C x T in, node with N x K x C x T out.

        When `stages` is a dict, each stage's output value is stored in it in
        pipeline order: 'raw' (N x C x T), then 'wkcnn' and 'tcnn'
        (N x K x C x T) when present.
        """
        cfg = self.config
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 3 or batch.shape[1] != cfg.n_channels \
                or batch.shape[2] != cfg.n_timepoints:
            raise DataError(
                f"batch shape {batch.shape} does not match model input "
                f"(N, {cfg.n_channels}, {cfg.n_timepoints})")
        if stages is not None:
            stages["raw"] = batch
        x = ad.expand_maps(ad.constant(batch[:, None]), cfg.n_wavelet_kernels)
        for stage in self.spectral_stages:
            x = ad.conv_same_temporal(x, stage.kernels(), stage.bias)
            x = ad.batch_norm(x, stage.bn.gamma, stage.bn.beta, stage.bn.state,
                              training)
            if stages is not None:
                stages[stage.name] = x.value
        return x

    def _dense_forward(self, x: ad.Node, training: bool) -> ad.Node:
        for w, b, bn in self.dense:
            x = ad.dense(x, w, b)
            if bn is not None:
                x = ad.batch_norm(x, bn.gamma, bn.beta, bn.state, training)
        return x

    def csp_feedback_loss(self, batch, labels, training=True, frozen_wr=None):
        """Spectral forward + per-branch CSP refit + cross-entropy loss.

        Returns (loss node, N x K x 4 feature node, reduced projections).
        When frozen_wr is given the refit is skipped, which keeps the loss a
        pure function of the CNN parameters for gradient checking.
        """
        labels = np.asarray(labels)
        spectral = self.forward_spectral(batch, training)
        if frozen_wr is None:
            wrs = [csp.fit_branch(spectral.value[:, i], labels).w_reduced
                   for i in range(self.config.n_wavelet_kernels)]
        else:
            wrs = list(frozen_wr)
        feats = csp.spatial_filter_features(spectral, np.stack(wrs))
        return csp.csp_loss(feats, labels), feats, wrs

    # training -------------------------------------------------------------

    def _discriminant_backward(self, concat: np.ndarray, labels) -> float:
        """Fit the discriminant on detached features and backprop (1-r) * J."""
        cfg = self.config
        if not self.dense:
            # nothing to train: J of the LDA on the CSP features is logged only
            model = lda.fit(concat, labels)
            return lda.fisher_criterion(concat @ model.w, labels)
        out = self._dense_forward(ad.constant(concat), training=True)
        if self.classifier == "softmax":
            ce = ad.scale(ad.binary_cross_entropy(ad.softmax(out),
                                                  csp.target_vectors(labels)),
                          1.0 / len(labels))
            ce.backward(seed=1.0 - cfg.loss_ratio)
            return float(ce.value)
        model = lda.fit(out.value, labels)
        projected = ad.dense(out, ad.constant(model.w[:, None]),
                             ad.constant(np.zeros(1)))
        j = lda.fisher_criterion_node(projected, labels)
        j.backward(seed=1.0 - cfg.loss_ratio)
        return float(j.value)

    def _clamp_wavelets(self):
        for f, h, _ in self.wavelet:
            f.value = np.clip(f.value, dsp.WAVELET_FREQ_MIN, dsp.WAVELET_FREQ_MAX)
            h.value = np.maximum(h.value, dsp.WAVELET_WIDTH_MIN)

    def train_step(self, batch, labels):
        """One optimizer step; returns (L, J, combined loss)."""
        labels = np.asarray(labels)
        self.optimizer.zero_grad()
        loss_node, feats, _ = self.csp_feedback_loss(batch, labels, training=True)
        loss_node.backward()
        loss_l = float(loss_node.value)
        concat = feats.value.reshape(len(labels), -1)
        loss_j = self._discriminant_backward(concat, labels)
        self.optimizer.step()
        self._clamp_wavelets()
        return loss_l, loss_j, lda.combined_loss(loss_l, loss_j,
                                                 self.config.loss_ratio)

    def train(self, trials, labels):
        """Epoch/batch loop over a training set; appends to the history log."""
        trials = np.asarray(trials, dtype=np.float64)
        labels = np.asarray(labels)
        n = len(trials)
        if n == 0:
            raise DataError("empty training set")
        for epoch in range(self.config.epochs):
            order = self._rng.permutation(n)
            for bi, idx in enumerate(_train_batches(order, labels,
                                                    self.config.batch_size)):
                loss_l, loss_j, combined = self.train_step(trials[idx], labels[idx])
                self.history.append((float(epoch), float(bi),
                                     loss_l, loss_j, combined))
        return self

    # freezing and inference ------------------------------------------------

    def finalize(self, trials, labels):
        """Eval-mode pass over the full training set; refit and freeze CSP + LDA."""
        labels = np.asarray(labels)
        spectral = self.forward_spectral(trials, training=False)
        self.frozen_branches = [csp.fit_branch(spectral.value[:, i], labels)
                                for i in range(self.config.n_wavelet_kernels)]
        self.frozen_lda = None
        if self.classifier == "lda":
            self.frozen_lda = lda.fit(self._frozen_head(spectral).value, labels)
        return self

    @property
    def finalized(self) -> bool:
        return self.frozen_branches is not None

    def frozen_projection(self) -> np.ndarray:
        """The frozen branches' reduced CSP projections stacked, K x C x 4."""
        return np.stack([br.w_reduced for br in self.frozen_branches])

    def frozen_features(self, spectral: ad.Node) -> ad.Node:
        """N x K x 4 CSP features of the spectral maps under the frozen
        projections."""
        return csp.spatial_filter_features(spectral, self.frozen_projection())

    def _frozen_head(self, spectral: ad.Node) -> ad.Node:
        """Eval-mode dense head over the frozen features, the K branches' four
        features side by side."""
        feats = self.frozen_features(spectral).value
        return self._dense_forward(ad.constant(feats.reshape(len(feats), -1)),
                                   training=False)

    def predict(self, batch) -> np.ndarray:
        if not self.finalized:
            raise ModelStateError("model is not finalized; call finalize first")
        out = self._frozen_head(self.forward_spectral(batch, training=False))
        if self.classifier == "softmax":
            probs = ad.softmax(out).value
            return (probs[:, :2].sum(axis=1) > probs[:, 2:].sum(axis=1)).astype(np.uint8)
        return lda.predict(self.frozen_lda, out.value)

    # accounting -------------------------------------------------------------

    def count_parameters(self) -> dict:
        cfg = self.config
        counts = dict.fromkeys(("wavelet", "temporal", "batch_norm", "dense"), 0)
        for name, p in self._params.items():
            layer = name.split(".")[0]
            counts["batch_norm" if layer.startswith("bn_") else layer] += p.value.size
        counts["csp_frozen"] = cfg.n_wavelet_kernels * cfg.n_channels * 4
        # the LDA direction over the head's output, and the two class means
        counts["lda"] = self._head_width() + 2 if self.classifier == "lda" else 0
        counts["total"] = sum(counts.values())
        return counts

    def _head_width(self) -> int:
        """Width of the head's output: the last dense layer's, or the K
        branches' four CSP features side by side when there is none."""
        return self.dense[-1][0].value.shape[1] if self.dense \
            else 4 * self.config.n_wavelet_kernels

    # serialization ----------------------------------------------------------

    def _state_arrays(self):
        """The .ccsp file's arrays in file order, as (name, array) pairs. Each
        is the model's live array except adam.step, history and lda.mu."""
        items = [(name, p.value) for name, p in self._params.items()]
        for bn_name, layer in self._bn_layers.items():
            items.append((f"{bn_name}.running_mean", layer.state.running_mean))
            items.append((f"{bn_name}.running_var", layer.state.running_var))
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
            if self.frozen_lda is not None:
                items.append(("lda.w", self.frozen_lda.w))
                items.append(("lda.mu",
                              np.array([self.frozen_lda.mu0, self.frozen_lda.mu1])))
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
        config_text = reader.take(reader.u32())
        try:
            config = ModelConfig.from_text(config_text.decode("utf-8"))
            config.validate()
        except (ValueError, ConfigError) as exc:
            raise DataError(f"{path}: bad config text: {exc}") from None
        arrays = {}
        for _ in range(reader.u32()):
            try:
                name = reader.take(reader.u16()).decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: array name is not UTF-8") from None
            ndim = struct.unpack("<B", reader.take(1))[0]
            shape = tuple(reader.u32() for _ in range(ndim))
            values = np.frombuffer(
                reader.take(8 * math.prod(shape), what=f"array {name!r}"), dtype="<f8")
            try:
                arrays[name] = values.reshape(shape)
            except ValueError:   # an empty array whose other axes are too long
                raise DataError(f"{path}: impossible shape {shape} "
                                f"for array {name!r}") from None
        model = cls(config)
        model._restore(arrays, bool(finalized), path)
        return model

    def _restore(self, arrays, finalized, path):
        """Copy a file's arrays into this fresh model, walking `_state_arrays`;
        a finalized file first gets zero frozen state of the config's shapes."""
        if finalized:
            c = self.config.n_channels
            self.frozen_branches = [
                csp.CspBranch(np.zeros((c, c)), np.zeros((c, c)), np.zeros((c, c)),
                              np.zeros(c), np.zeros((c, 4)))
                for _ in range(self.config.n_wavelet_kernels)]
            if self.classifier == "lda":
                self.frozen_lda = lda.LdaModel(np.zeros(self._head_width()), 0.0, 0.0)

        def fetch(name, shape):
            if name not in arrays:
                raise DataError(f"{path}: missing array {name!r}")
            arr = arrays[name]
            if arr.shape != shape:
                raise DataError(f"{path}: shape mismatch for {name!r}: "
                                f"{arr.shape} vs {shape}")
            return arr

        for name, live in self._state_arrays():
            if name == "adam.step":
                step = float(fetch(name, ()))
                if not (step.is_integer() and step >= 0):
                    raise DataError(f"{path}: adam.step {step} is not a step count")
                self.optimizer.step_count = int(step)
            elif name == "history":   # any number of rows of 5 columns
                rows = np.shape(arrays.get(name))[:1]
                self.history = [tuple(row) for row in fetch(name, rows + (5,))]
            elif name == "lda.mu":
                self.frozen_lda.mu0, self.frozen_lda.mu1 = map(float, fetch(name, (2,)))
            else:
                live[...] = fetch(name, live.shape)


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


def _trainable(batch_labels) -> bool:
    """Batch norm needs two trials and the CSP fit needs both classes."""
    return len(batch_labels) >= 2 and len(np.unique(batch_labels)) == 2


def _train_batches(order, labels, batch_size):
    """Split the epoch's trial order into batches of batch_size trials.

    A batch that cannot train is merged into its neighbour (the previous one,
    or the next for the first batch) until every batch can, or one is left.
    When every plain batch can train the split is the plain one.
    """
    batches = [order[start:start + batch_size]
               for start in range(0, len(order), batch_size)]
    i = 0
    while i < len(batches) and len(batches) > 1:
        if _trainable(labels[batches[i]]):
            i += 1
            continue
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


def parameter_report(model: CCSPNet) -> str:
    """Human-readable itemized parameter count."""
    counts = model.count_parameters()
    lines = [f"{name:<12} {n:>6}" for name, n in counts.items() if name != "total"]
    lines.append(f"{'total':<12} {counts['total']:>6}")
    lines.append(f"reference total for the original architecture: "
                 f"{REFERENCE_PARAMETER_TOTAL} (published figure; no itemization "
                 f"is available, so the difference cannot be reconciled exactly)")
    return "\n".join(lines)
