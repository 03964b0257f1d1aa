"""Self-tests of the benchmark's tracer and runner, on tiny shapes."""

import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from ccspnet import autodiff, csp, data, dsp, harness, lda, model  # noqa: E402
from ccspnet.model import CCSPNet, ModelConfig  # noqa: E402
from perfbench import run as bench_run  # noqa: E402
from perfbench import tracer as tr  # noqa: E402


def tiny_config():
    return ModelConfig(n_channels=8, n_timepoints=64, wavelet_len=16, temporal_len=16,
                       batch_size=20, epochs=1, seed=3)


@pytest.fixture(scope="module")
def tiny_set():
    trials = data.synthesize(data.SynthConfig(
        n_subjects=1, trials_per_class=10, n_channels=8, sample_rate_hz=100,
        n_timepoints=64, seed=3))
    return trials.trials.astype(np.float64), trials.labels


def fit_predict(trials, labels):
    net = CCSPNet(tiny_config())
    losses = net.train_step(trials, labels)
    net.finalize(trials, labels)
    return losses, net.predict(trials)


def snapshot():
    """Every attribute of the traced modules and of their classes."""
    out = {}
    for mod in (dsp, data, autodiff, csp, lda, model, harness):
        out[mod.__name__] = dict(vars(mod))
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out[f"{mod.__name__}.{name}"] = dict(vars(obj))
    return out


def test_every_wrapper_is_removed(tiny_set):
    before = snapshot()
    tracer = tr.Tracer()
    with tracer.installed():
        assert vars(autodiff.Node)["backward"] is not before["ccspnet.autodiff.Node"]["backward"]
        assert harness._run_fold is not before["ccspnet.harness"]["_run_fold"]
        fit_predict(*tiny_set)
    after = snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys()
        assert [n for n in attrs if after[key][n] is not attrs[n]] == [], key
    assert tracer.leftover_wrappers() == []
    assert tracer.spans


@pytest.mark.parametrize("memory", [False, True])
def test_traced_predictions_match_untraced(tiny_set, memory):
    plain = fit_predict(*tiny_set)
    with tr.Tracer(memory=memory).installed():
        traced = fit_predict(*tiny_set)
    assert traced[0] == plain[0]
    np.testing.assert_array_equal(traced[1], plain[1])


def test_self_times_add_up_along_train_step(tiny_set):
    tracer = tr.Tracer(memory=False)
    with tracer.installed():
        fit_predict(*tiny_set)
    self_by_id = tr.self_times(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    children = defaultdict(list)
    for s in tracer.spans:
        children[s.parent].append(s)
    (step,) = [s for s in tracer.spans if s.name == "model.train_step"]
    subtree, stack = [], [step]
    while stack:
        span = stack.pop()
        subtree.append(span)
        stack += children[span.id]

    names = {s.name for s in subtree}
    assert {"model.forward_spectral", "autodiff.conv_wavelet", "autodiff.conv_temporal.bwd",
            "autodiff.Node.backward", "autodiff.Node._accumulate", "autodiff.Adam.step",
            "csp.fit_branch", "lda.fisher_criterion_node.bwd"} <= names
    for span in subtree[1:]:
        parent = by_id[span.parent]
        assert parent.t0 <= span.t0 <= span.t1 <= parent.t1
        assert self_by_id[span.id] >= -1e-12
    assert sum(self_by_id[s.id] for s in subtree) == pytest.approx(step.duration, abs=1e-9)


def test_fold_threads_are_children_of_run_sd():
    trials = data.preprocess(data.synthesize(data.SynthConfig(
        n_subjects=2, trials_per_class=8, n_channels=8, seed=3)))
    tracer = tr.Tracer(memory=False)
    with tracer.installed():
        harness.run_sd(trials, ModelConfig(epochs=1, batch_size=400, seed=0), jobs=2)
    (run_sd,) = [s for s in tracer.spans if s.name == "harness.run_sd"]
    folds = [s for s in tracer.spans if s.name == "harness.fold"]
    assert len(folds) == 2 and all(s.parent == run_sd.id for s in folds)
    assert len({s.thread for s in folds} - {run_sd.thread}) >= 1
    # the folds cover run_sd's interval: its own time is the bookkeeping around them
    covered = run_sd.duration - tr.self_times(tracer.spans)[run_sd.id]
    assert covered >= max(s.duration for s in folds)


def test_conv_work_counts(tiny_set):
    trials, labels = tiny_set
    tracer = tr.Tracer(memory=False)
    with tracer.installed():
        CCSPNet(tiny_config()).train_step(trials, labels)
    stats = tr.aggregate(tracer.spans, tr.self_times(tracer.spans))
    cfg = tiny_config()
    macs = len(trials) * cfg.n_wavelet_kernels * cfg.n_channels * cfg.n_timepoints / 1e9
    assert stats["autodiff.conv_wavelet"]["gmac"] == pytest.approx(macs * cfg.wavelet_len)
    # the wavelet input is a constant: backward forms the kernel gradient only
    assert stats["autodiff.conv_wavelet.bwd"]["gmac"] == pytest.approx(macs * cfg.wavelet_len)
    assert stats["autodiff.conv_temporal.bwd"]["gmac"] == pytest.approx(
        2 * macs * cfg.temporal_len)


def test_memory_tracer_sees_gradient_allocations(tiny_set):
    trials, labels = tiny_set
    tracer = tr.Tracer(memory=True)
    with tracer.installed():
        CCSPNet(tiny_config()).train_step(trials, labels)
    stats = tr.aggregate(tracer.spans, tr.self_times(tracer.spans))
    maps_mb = trials.size * tiny_config().n_wavelet_kernels * 8 / 1e6
    assert stats["autodiff.expand_maps"]["mb"] >= maps_mb
    assert stats["model.train_step"]["peak_mb"] >= maps_mb
    assert stats["autodiff.Node._accumulate"]["mb"] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench_run.summarize(list(range(39)))["tail"] is None
    assert bench_run.summarize(list(range(100)))["tail_label"] == "p90"
    assert bench_run.summarize(list(range(1000)))["tail_label"] == "p99"
    assert bench_run.summarize([3.0, 1.0, 2.0])["median"] == 2.0
    assert bench_run.summarize([3.0, 1.0, 2.0])["mean"] == 2.0
    assert bench_run.summarize([3.0, 1.0, 2.0])["min"] == 1.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench_run.END_TO_END
    layer = [(name, unit) for name, _, _, unit in tr.LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer + [
        ("trace.overhead_s", "s")]
    assert [w["name"] for w in spec["workloads"]] == ["paper-train", "sd-synth",
                                                      "online-decode"]


def test_online_decode_loads_the_decoder_a_child_trained(tmp_path):
    from perfbench.workloads import OnlineDecode

    workload = OnlineDecode(0, tmp_path)
    assert "decoder_train_s" in workload.prepare()
    workload.setup()
    cycle = workload.cycle()
    reference = bench_run.load_reference("online-decode", 0)
    assert bench_run.predictions_text(cycle.predictions) == reference["predictions"]
    assert workload.oracle(cycle) == []
    workload.close()
    assert list(tmp_path.iterdir()) == []
