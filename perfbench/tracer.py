"""Out-of-program span tracer for the ccspnet benchmark.

`Tracer.install()` replaces the public functions and methods of the traced
ccspnet modules with thin wrappers that record a span per call; `uninstall()`
puts every original object back. A wrapped call that returns a graph `Node`
also gets its `_backward` closure wrapped, so forward and backward work of
one layer land in separate spans (`<layer>` and `<layer>.bwd`).

Spans live in memory until the run ends. Each holds its name, parent, thread,
start and end (perf_counter seconds), the peak traced allocation above the
allocation level at its start (tracemalloc; inclusive of children and, when
folds run in threads, of whatever the other threads allocated meanwhile) and
an optional work count in GMAC.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

TRACED_MODULES = ("dsp", "data", "autodiff", "csp", "lda", "model", "harness")

# private callables that are layer boundaries in their own right
EXTRA_TARGETS = {("autodiff", "Node", "_accumulate"): "autodiff.Node._accumulate",
                 ("harness", None, "_run_fold"): "harness.fold"}

# classes whose method spans are named after the module alone
MODULE_LEVEL_CLASSES = {"CCSPNet"}


class Span:
    __slots__ = ("id", "parent", "name", "thread", "t0", "t1", "base", "peak",
                 "gmac")

    def __init__(self, span_id, parent, name, thread, gmac):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.gmac = gmac
        self.base = self.peak = 0
        self.t0 = self.t1 = 0.0

    @property
    def duration(self):
        return self.t1 - self.t0

    @property
    def alloc_mb(self):
        return max(self.peak - self.base, 0) / 1e6

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "thread": self.thread, "start": self.t0, "end": self.t1,
                "alloc_mb": self.alloc_mb, "gmac": self.gmac}


def _conv_call(args, kwargs):
    """Name and GMAC counts for autodiff.conv_same_temporal(x, kernels, bias):
    every kernel makes N x C x T outputs, each a klen-tap dot product."""
    call = dict(zip(("x", "kernels", "bias"), args), **kwargs)
    x, kernels = call["x"], call["kernels"]
    k, klen = kernels.shape
    gmac = x.shape[0] * k * x.shape[-2] * x.shape[-1] * klen / 1e9
    # backward forms the kernel gradient and, when x needs one, the input gradient
    bwd = gmac * (int(kernels.requires_grad) + int(x.requires_grad))
    name = ("autodiff.conv_temporal" if call.get("bias") is not None
            else "autodiff.conv_wavelet")
    return name, gmac, bwd


def _batch_norm_call(args, kwargs):
    x = args[0] if args else kwargs["x"]
    flavour = "maps" if x.value.ndim == 4 else "dense"
    return f"autodiff.batch_norm_{flavour}", None, None


CALL_NAMERS = {"autodiff.conv_same_temporal": _conv_call,
               "autodiff.batch_norm": _batch_norm_call}


class Tracer:
    """Records spans around ccspnet calls while installed."""

    def __init__(self, memory=True):
        self.memory = memory
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}          # thread id -> open spans, innermost last
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._open = set()
        self._originals = []
        self._restored = []
        self._started_tracemalloc = False
        self._node_class = None

    # span bookkeeping -----------------------------------------------------

    def open(self, name, gmac=None):
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1].id
        else:
            # a worker thread's outermost span belongs to whatever the
            # tracing thread is blocked in (harness.run_sd for fold threads)
            main = self._stacks.get(self._main)
            parent = main[-1].id if main and thread != self._main else None
        span = Span(next(self._ids), parent, name, thread, gmac)
        if self.memory and tracemalloc.is_tracing():
            with self._lock:
                current, peak = tracemalloc.get_traced_memory()
                for other in self._open:
                    if peak > other.peak:
                        other.peak = peak
                tracemalloc.reset_peak()
                span.base = span.peak = current
                self._open.add(span)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span):
        span.t1 = time.perf_counter()
        self._stacks[span.thread].pop()
        if span in self._open:
            with self._lock:
                peak = tracemalloc.get_traced_memory()[1]
                if peak > span.peak:
                    span.peak = peak
                self._open.discard(span)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # wrapping ---------------------------------------------------------------

    def _wrap_backward(self, node, name, gmac):
        original = node._backward
        if original is None or getattr(original, "_perfbench_wrapped", False):
            return
        tracer = self

        def backward(g):
            span = tracer.open(name + ".bwd", gmac)
            try:
                original(g)
            finally:
                tracer.close(span)

        backward._perfbench_wrapped = True
        node._backward = backward

    def _wrap(self, fn, name):
        tracer = self
        namer = CALL_NAMERS.get(name)
        node_class = self._node_class

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, gmac, bwd_gmac = (namer(args, kwargs) if namer
                                         else (name, None, None))
            span = tracer.open(span_name, gmac)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if isinstance(result, node_class):
                tracer._wrap_backward(result, span_name, bwd_gmac)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, original, span name) for every traced callable."""
        import importlib
        modules = {short: importlib.import_module(f"ccspnet.{short}")
                   for short in TRACED_MODULES}
        self._node_class = modules["autodiff"].Node
        targets = []
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    targets.append((module, attr, obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    prefix = short if attr in MODULE_LEVEL_CLASSES else f"{short}.{attr}"
                    for meth, fn in vars(obj).items():
                        if not inspect.isfunction(fn):
                            continue
                        extra = EXTRA_TARGETS.get((short, attr, meth))
                        if extra or not meth.startswith("_"):
                            targets.append((obj, meth, fn, extra or f"{prefix}.{meth}"))
            for (mod_short, cls, attr), span_name in EXTRA_TARGETS.items():
                if mod_short == short and cls is None and hasattr(module, attr):
                    targets.append((module, attr, getattr(module, attr), span_name))
        return targets

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        for owner, attr, original, name in self._targets():
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._restored += self._originals
        self._originals = []
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    def leftover_wrappers(self):
        """Traced attributes that no longer hold their original object."""
        return [f"{owner.__name__}.{attr}" for owner, attr, original in self._restored
                if vars(owner).get(attr) is not original]

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# analysis -------------------------------------------------------------------


def self_times(spans):
    """Span id -> duration minus the part of it that its direct children
    cover. Children on other threads (folds) may overlap, so the covered part
    is the union of the children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, float("-inf")
        for t0, t1 in sorted(children[s.id]):
            t0, t1 = max(t0, s.t0, end), min(t1, s.t1)
            if t1 > t0:
                covered += t1 - t0
                end = t1
        out[s.id] = s.duration - covered
    return out


def aggregate(spans, self_by_id):
    """Per span name: calls, busy (inclusive) and self seconds, allocation sum
    and maximum in MB, and summed GMAC."""
    stats = {}
    for s in spans:
        st = stats.get(s.name)
        if st is None:
            st = stats[s.name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                  "mb": 0.0, "peak_mb": 0.0, "gmac": 0.0}
        st["calls"] += 1
        st["busy_s"] += s.duration
        st["self_s"] += self_by_id[s.id]
        st["mb"] += s.alloc_mb
        st["peak_mb"] = max(st["peak_mb"], s.alloc_mb)
        st["gmac"] += s.gmac or 0.0
    return stats


def _layer(metric, span_names, field, unit):
    if isinstance(span_names, str):
        span_names = (span_names,)
    return (metric, span_names, field, unit)


def _fwd_bwd(layer, *extra):
    """fwd_s / bwd_s (and optional gmac / mb) metrics of one autodiff op."""
    out = [_layer(f"{layer}.fwd_s", layer, "busy_s", "s"),
           _layer(f"{layer}.bwd_s", f"{layer}.bwd", "busy_s", "s")]
    for field, unit in extra:
        out.append(_layer(f"{layer}.{field}", (layer, f"{layer}.bwd"), field, unit))
    return out


def _busy_calls(name):
    return [_layer(f"{name}.busy_s", name, "busy_s", "s"),
            _layer(f"{name}.calls", name, "calls", "count")]


# Every per-layer metric the traced run reports: (metric name, span names
# summed, field, unit). All of these are recorded on every workload, since
# the traced run covers set-up as well as the measured work.
LAYER_METRICS = [
    *_fwd_bwd("autodiff.conv_wavelet", ("gmac", "GMAC")),
    *_fwd_bwd("autodiff.conv_temporal", ("gmac", "GMAC")),
    *_fwd_bwd("autodiff.batch_norm_maps"),
    _layer("autodiff.Node._accumulate.busy_s", "autodiff.Node._accumulate", "busy_s", "s"),
    _layer("autodiff.Node._accumulate.calls", "autodiff.Node._accumulate", "calls", "count"),
    _layer("autodiff.Node._accumulate.mb", "autodiff.Node._accumulate", "mb", "MB"),
    _layer("autodiff.expand_maps.fwd_s", "autodiff.expand_maps", "busy_s", "s"),
    _layer("autodiff.expand_maps.mb", ("autodiff.expand_maps", "autodiff.expand_maps.bwd"),
           "mb", "MB"),
    _layer("autodiff.slice_map.bwd_s", "autodiff.slice_map.bwd", "busy_s", "s"),
    _layer("autodiff.slice_map.mb", ("autodiff.slice_map", "autodiff.slice_map.bwd"),
           "mb", "MB"),
    _layer("autodiff.Node.backward.self_s", "autodiff.Node.backward", "self_s", "s"),
    *_fwd_bwd("autodiff.project_channels"),
    *_fwd_bwd("autodiff.log_variance"),
    *_fwd_bwd("autodiff.dense"),
    *_fwd_bwd("autodiff.batch_norm_dense"),
    _layer("autodiff.Adam.step.busy_s", "autodiff.Adam.step", "busy_s", "s"),
    _layer("lda.fit.busy_s", "lda.fit", "busy_s", "s"),
    _layer("lda.predict.busy_s", "lda.predict", "busy_s", "s"),
    *_fwd_bwd("lda.fisher_criterion_node"),
    *_busy_calls("csp.class_covariances"),
    *_busy_calls("csp.solve_csp"),
    *_busy_calls("csp.fit_branch"),
    *_busy_calls("csp.spatial_filter_features"),
    *_busy_calls("dsp.trim_and_downsample"),
    *_busy_calls("dsp.filter_forward"),
    _layer("data.preprocess.busy_s", "data.preprocess", "busy_s", "s"),
    *[m for step in ("train_step", "forward_spectral", "finalize", "predict")
      for m in (_layer(f"model.{step}.busy_s", f"model.{step}", "busy_s", "s"),
                _layer(f"model.{step}.peak_mb", f"model.{step}", "peak_mb", "MB"))],
]

# Layers that only sd-synth runs, plus a backward that never runs because its
# input is a constant. They are printed and saved, not in the result line.
WORKLOAD_LAYER_METRICS = [
    _layer("autodiff.expand_maps.bwd_s", "autodiff.expand_maps.bwd", "busy_s", "s"),
    _layer("data.read_trial_file.busy_s", "data.read_trial_file", "busy_s", "s"),
    _layer("data.read_trial_file.mb", "data.read_trial_file", "mb", "MB"),
    _layer("harness.fold.busy_s", "harness.fold", "busy_s", "s"),
]


MEMORY_FIELDS = ("mb", "peak_mb")


def layer_values(time_stats, memory_stats, specs):
    """Evaluate metric specs over aggregated span stats: allocation fields
    from the tracemalloc pass, everything else from the timing pass."""
    out = {}
    for metric, span_names, field, unit in specs:
        stats = memory_stats if field in MEMORY_FIELDS else time_stats
        values = [stats[n][field] for n in span_names if n in stats]
        value = max(values, default=0.0) if field == "peak_mb" else sum(values)
        out[metric] = (value, unit)
    return out
