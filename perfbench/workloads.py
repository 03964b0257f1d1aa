"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup` (deterministic: the
same seed gives the same inputs) and does one pass of its measured work per
`cycle`. A cycle returns its wall time, per-operation timing samples and the
predictions it made, which the runner checks against the recorded reference
and against the workload's own `oracle`.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ccspnet import data, harness
from ccspnet.model import CCSPNet, ModelConfig

# sd-synth runs folds on two threads, fixed rather than os.cpu_count()
SD_JOBS = 2
# the benchmark's directory and the ccspnet sources, for the decoder's child
BENCH_ROOT = Path(__file__).resolve().parent.parent
# a child that runs longer than this is killed (and waited for)
CHILD_TIMEOUT_S = 120


@dataclass
class Cycle:
    """One pass of a workload's measured work."""

    wall_s: float
    predictions: np.ndarray
    labels: np.ndarray
    samples: dict = field(default_factory=dict)   # metric -> list of values

    @property
    def accuracy_pct(self):
        return 100.0 * float(np.mean(self.predictions == self.labels))


def balanced_split(labels, n_per_class):
    """Indices of the first `n_per_class` trials of each class, and the rest."""
    first = np.sort(np.concatenate(
        [np.flatnonzero(labels == c)[:n_per_class] for c in (0, 1)]))
    return first, np.setdiff1d(np.arange(len(labels)), first)


def _ms(seconds, count=1):
    return 1e3 * seconds / count


class Workload:
    name = ""
    units_per_cycle = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def params(self) -> dict:
        raise NotImplementedError

    def prepare(self, in_process=False) -> dict:
        """One-time work before the set-ups, outside `setup_s` and, unless
        `in_process`, in a child process; returns timing samples."""
        return {}

    def setup(self) -> dict:
        """Build the inputs; returns timing samples taken during set-up."""
        raise NotImplementedError

    def cycle(self) -> Cycle:
        raise NotImplementedError

    def unit_slices(self):
        """Prediction slice belonging to each checked operation of a cycle."""
        raise NotImplementedError

    def oracle(self, cycle) -> list:
        """Indices into unit_slices() whose predictions disagree with an
        independent computation of the same outputs."""
        raise NotImplementedError

    def close(self):
        pass


class PaperTrain(Workload):
    """Paper-scale training: a 300 x 62 x 250 batch, a few train_steps, then
    finalize on the 300 trials and predict a 100-trial test set."""

    name = "paper-train"
    steps = 3
    units_per_cycle = steps + 2   # steps, finalize, predict

    def params(self):
        return {"train": [300, 62, 250], "test": [100, 62, 250], "steps": self.steps,
                "raw_rate_hz": 200, "config": "ModelConfig defaults"}

    def setup(self):
        raw = data.synthesize(data.SynthConfig(
            n_subjects=1, trials_per_class=200, n_channels=62,
            sample_rate_hz=200, n_timepoints=700, seed=self.seed))
        start = time.perf_counter()
        pre = data.preprocess(raw)
        preprocess_ms = _ms(time.perf_counter() - start, len(raw))
        train, test = balanced_split(pre.labels, 150)
        self.x, self.y = pre.trials[train], pre.labels[train]
        self.x_test, self.y_test = pre.trials[test], pre.labels[test]
        return {"preprocess_ms_per_trial": [preprocess_ms]}

    def cycle(self):
        start = time.perf_counter()
        net = CCSPNet(ModelConfig(seed=self.seed))
        step_s = []
        for _ in range(self.steps):
            t = time.perf_counter()
            losses = net.train_step(self.x, self.y)
            step_s.append(time.perf_counter() - t)
            if not np.all(np.isfinite(losses)):
                raise FloatingPointError(f"non-finite training losses {losses}")
        t = time.perf_counter()
        net.finalize(self.x, self.y)
        finalize_s = time.perf_counter() - t
        t = time.perf_counter()
        predictions = net.predict(self.x_test)
        predict_s = time.perf_counter() - t
        wall = time.perf_counter() - start
        self.net = net
        return Cycle(wall, predictions, self.y_test, {
            "train_step_s": step_s, "finalize_s": [finalize_s],
            "predict_ms_per_trial": [_ms(predict_s, len(predictions))]})

    def unit_slices(self):
        # only the predict operation yields predictions
        return [slice(0, len(self.y_test))]

    def oracle(self, cycle):
        # eval mode treats trials independently, so predicting in chunks
        # must give the bulk result
        chunks = [self.net.predict(self.x_test[i:i + 25])
                  for i in range(0, len(self.x_test), 25)]
        return [] if np.array_equal(np.concatenate(chunks), cycle.predictions) else [0]


class SdSynth(Workload):
    """`ccspnet eval-sd` on the test-suite dataset: load the files,
    preprocess, run_sd with two fold threads."""

    name = "sd-synth"
    units_per_cycle = data.SynthConfig().n_subjects   # one fold per subject

    def params(self):
        cfg = data.SynthConfig(seed=self.seed)
        return {"subjects": cfg.n_subjects, "trials_per_subject": 2 * cfg.trials_per_class,
                "channels": cfg.n_channels, "raw": [cfg.n_timepoints, cfg.sample_rate_hz],
                "jobs": SD_JOBS, "config": "ModelConfig defaults"}

    def setup(self):
        self.data_dir = self.workdir / "sd-synth-data"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        raw = data.synthesize(data.SynthConfig(seed=self.seed))
        self.manifest = data.save_dataset(self.data_dir, raw)
        return {}

    def cycle(self):
        t0 = time.perf_counter()
        raw = data.load_trials(self.manifest)
        t1 = time.perf_counter()
        pre = data.preprocess(raw)
        t2 = time.perf_counter()
        result = harness.run_sd(pre, ModelConfig(seed=self.seed), jobs=SD_JOBS)
        t3 = time.perf_counter()
        # outside the eval-sd wall time: each fold model predicts its test
        # block again, in subject order, for the checks and predict_ms_per_trial
        tests = [data.split_sd(pre.for_subject(sid))[1] for sid in result.subject_ids]
        start = time.perf_counter()
        predictions = np.concatenate([result.models[sid].predict(test.trials)
                                      for sid, test in zip(result.subject_ids, tests)])
        predict_s = time.perf_counter() - start
        self.fold_sizes = [len(test) for test in tests]
        self.reported = result.accuracies
        return Cycle(t3 - t0, predictions, np.concatenate([test.labels for test in tests]), {
            "load_s": [t1 - t0], "preprocess_ms_per_trial": [_ms(t2 - t1, len(raw))],
            "eval_s": [t3 - t2], "predict_ms_per_trial": [_ms(predict_s, len(predictions))]})

    def unit_slices(self):
        edges = np.cumsum([0] + self.fold_sizes)
        return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    def oracle(self, cycle):
        # run_sd's own accuracy per fold must agree with the re-predicted one
        out = []
        for i, (sl, reported) in enumerate(zip(self.unit_slices(), self.reported)):
            mine = 100.0 * float((cycle.predictions[sl] == cycle.labels[sl]).mean())
            if mine != reported:
                out.append(i)
        return out

    def close(self):
        shutil.rmtree(self.workdir / "sd-synth-data", ignore_errors=True)


class OnlineDecode(Workload):
    """Online BCI path: a briefly trained, finalized paper-scale model decodes
    a stream of raw 62 x 4000 trials one at a time (preprocess + predict).

    The decoder is trained once per run, by `prepare` in a child process, and
    saved with the stream to the work directory; set-up loads both. So
    `setup_s` and `peak_rss_mb` cover loading and decoding, not training."""

    name = "online-decode"
    train_per_class = 16
    stream_per_class = 8
    units_per_cycle = 2 * stream_per_class

    def params(self):
        return {"train": [2 * self.train_per_class, 62, 250], "train_steps": 2,
                "stream": [2 * self.stream_per_class, 62, 4000], "raw_rate_hz": 1000,
                "config": "ModelConfig defaults, epochs 2, one batch"}

    def prepare(self, in_process=False):
        start = time.perf_counter()
        if in_process:
            train_decoder(self.seed, self.workdir)
        else:
            # a plain child that is waited for on every path: multiprocessing
            # would leave its resource-tracker process behind
            code = ("import sys; sys.path[:0] = sys.argv[3:]; "
                    "from perfbench.workloads import train_decoder; "
                    "train_decoder(int(sys.argv[1]), sys.argv[2])")
            subprocess.run([sys.executable, "-c", code, str(self.seed), str(self.workdir),
                            str(BENCH_ROOT / "src"), str(BENCH_ROOT)],
                           check=True, timeout=CHILD_TIMEOUT_S)
        return {"decoder_train_s": [time.perf_counter() - start]}

    def setup(self):
        self.net = CCSPNet.load(self.workdir / DECODER_FILE)
        self.stream_set = data.load_trials(self.workdir / STREAM_DIR / "manifest.txt")
        self.stream = [self.stream_set.select(np.array([i]))
                       for i in range(len(self.stream_set))]
        return {}

    def cycle(self):
        decode_ms, preprocess_ms, predict_ms, predictions = [], [], [], []
        start = time.perf_counter()
        for trial in self.stream:
            t0 = time.perf_counter()
            x = data.preprocess(trial).trials
            t1 = time.perf_counter()
            predictions.append(self.net.predict(x)[0])
            t2 = time.perf_counter()
            decode_ms.append(_ms(t2 - t0))
            preprocess_ms.append(_ms(t1 - t0))
            predict_ms.append(_ms(t2 - t1))
        wall = time.perf_counter() - start
        return Cycle(wall, np.asarray(predictions, dtype=np.uint8), self.stream_set.labels, {
            "decode_ms": decode_ms, "preprocess_ms_per_trial": preprocess_ms,
            "predict_ms_per_trial": predict_ms})

    def unit_slices(self):
        return [slice(i, i + 1) for i in range(len(self.stream))]

    def oracle(self, cycle):
        # the whole stream preprocessed and predicted in one batch
        bulk = self.net.predict(data.preprocess(self.stream_set).trials)
        return [int(i) for i in np.flatnonzero(bulk != cycle.predictions)]

    def close(self):
        (self.workdir / DECODER_FILE).unlink(missing_ok=True)
        shutil.rmtree(self.workdir / STREAM_DIR, ignore_errors=True)


DECODER_FILE = "online-decoder.ccspnet"
STREAM_DIR = "online-stream"


def train_decoder(seed, workdir):
    """Synthesize online-decode's trials, train and finalize the decoder on
    16 per class, and save it and the other 8 per class (the stream, raw) to
    `workdir`."""
    raw = data.synthesize(data.SynthConfig(
        n_subjects=1, trials_per_class=OnlineDecode.train_per_class
        + OnlineDecode.stream_per_class, n_channels=62, seed=seed))
    train, stream = balanced_split(raw.labels, OnlineDecode.train_per_class)
    fit = data.preprocess(raw.select(train))
    net = CCSPNet(ModelConfig(seed=seed, epochs=2, batch_size=len(train)))
    net.train(fit.trials, fit.labels)
    net.finalize(fit.trials, fit.labels)
    net.save(Path(workdir) / DECODER_FILE)
    data.save_dataset(Path(workdir) / STREAM_DIR, raw.select(stream))


WORKLOADS = {w.name: w for w in (PaperTrain, SdSynth, OnlineDecode)}
