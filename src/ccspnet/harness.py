"""Experiment harness: per-subject SD runs and LOSO cross-validation.

The config is the one source of a run's settings: an ablation is a run whose
config has `ablate` set. Each fold trains a fresh model under a fold-specific
seed derived from the config's seed and the test subject id, so results do
not depend on fold order.
The model bytes depend on the number of fold threads, whose BLAS thread count
changes the summation order; accuracies and predictions have matched across
thread counts. Results merge keyed by subject id.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import data, stats
from .errors import CcspError, ConfigError, DataError
from .model import CCSPNet, ModelConfig


@dataclass
class RunResult:
    approach: str                 # SD | SI-offline | SI-online
    subject_ids: list
    accuracies: list              # percent, aligned with subject_ids
    config: ModelConfig
    wall_time_s: float
    models: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(self.subject_ids) != len(self.accuracies):
            raise DataError("one accuracy per test subject required")
        for a in self.accuracies:
            _check_accuracy(a)

    @property
    def ablation(self) -> str:
        """The removed component, "" for the full model."""
        return self.config.ablate

    @property
    def seed(self) -> int:
        return self.config.seed

    def mean(self) -> float:
        return float(np.mean(self.accuracies))


def fold_seed(global_seed: int, subject_id: int) -> int:
    """Stable per-fold seed, independent of fold execution order."""
    digest = hashlib.sha256(f"{global_seed}:{subject_id}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")


def _check_accuracy(accuracy: float, where: str = "") -> None:
    if not 0.0 <= accuracy <= 100.0:
        raise DataError(f"{where}accuracy {accuracy} outside [0, 100]")


def _shaped(config: ModelConfig, trials: data.TrialSet) -> ModelConfig:
    """`config` with its shape fields set from `trials`."""
    return replace(config, n_channels=trials.n_channels, n_timepoints=trials.n_timepoints,
                   sample_rate_hz=float(trials.sample_rate_hz))


def _run_fold(train: data.TrialSet, test: data.TrialSet, config: ModelConfig):
    """Train and finalize a model on `train` under `config`, whose shape
    fields are set from the data; returns (test accuracy in percent, model)."""
    net = CCSPNet(_shaped(config, train))
    net.train(train.trials, train.labels)
    net.finalize(train.trials, train.labels)
    accuracy = 100.0 * float((net.predict(test.trials) == test.labels).mean())
    return accuracy, net


# (getter, setter) names of the BLAS thread count in the OpenBLAS that numpy's
# wheels ship (scipy-openblas, 64-bit integers) and in a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_functions():
    """(get, set) for the thread count of numpy's OpenBLAS, or None when the
    BLAS numpy links is not OpenBLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes = []
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            return get, set_
    return None


@contextlib.contextmanager
def _blas_threads(n):
    """Run the block with `n` BLAS threads and restore the old count on exit,
    also when the block raises. Does nothing without numpy's OpenBLAS."""
    functions = _openblas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    old = get()
    set_(n)
    try:
        yield
    finally:
        set_(old)


def _run_folds(dataset, folds, config, approach, jobs):
    """folds: list of (subject_id, train indices, test indices) into
    `dataset`; a fold's sets are made only when the fold runs. An error a
    fold raises names the fold's subject: a toolkit error in its message,
    under its own class, and any other error in a note."""
    start = time.monotonic()
    _shaped(config, dataset).validate()
    check_jobs(jobs)
    threads = min(jobs, len(folds))

    def work(fold):
        sid, train, test = fold
        try:
            return sid, _run_fold(dataset.select(train), dataset.select(test),
                                  replace(config, seed=fold_seed(config.seed, sid)))
        except CcspError as exc:
            # the same class, so the CLI exits with the same code
            raise type(exc)(f"{exc} (in the fold of subject {sid})") from exc
        except Exception as exc:
            exc.add_note(f"raised in the fold of subject {sid}")
            raise

    if threads <= 1:
        outcomes = [work(f) for f in folds]
    else:
        # every fold thread calls BLAS, which would otherwise start one
        # thread per core in each of them; without this split, perfbench's
        # sd-synth wall_s was 1.7-1.8x as long (4.0-4.7 s -> 6.9-8.4 s, 2 cores)
        with _blas_threads(max(1, (os.cpu_count() or 1) // threads)), \
                ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, folds))
    outcomes.sort(key=lambda o: o[0])
    return RunResult(
        approach=approach,
        subject_ids=[sid for sid, _ in outcomes],
        accuracies=[acc for _, (acc, _) in outcomes],
        config=config,
        wall_time_s=time.monotonic() - start,
        models={sid: net for sid, (_, net) in outcomes})


def run_sd(dataset: data.TrialSet, config: ModelConfig,
           jobs: int = 1) -> RunResult:
    """Per-subject training on S1 plus S2-offline, testing on S2-online."""
    folds = [(sid, *data.sd_fold(dataset, sid)) for sid in dataset.subjects()]
    return _run_folds(dataset, folds, config, "SD", jobs)


def run_loso(dataset: data.TrialSet, config: ModelConfig, phase,
             jobs: int = 1) -> RunResult:
    """Leave-one-subject-out: train on the chosen phase of all other subjects."""
    code = data.phase_code(phase)
    folds = [(sid, *data.loso_fold(dataset, sid, code)) for sid in dataset.subjects()]
    return _run_folds(dataset, folds, config, f"SI-{data.PHASE_NAMES[code]}", jobs)


CSV_FIELDS = ("subject_id", "approach", "ablation", "accuracy", "seed")


def write_results_csv(path, results) -> None:
    """One row per (run, subject); schema given by CSV_FIELDS."""
    if isinstance(results, RunResult):
        results = [results]
    data.write_csv(path, CSV_FIELDS,
                   ([sid, r.approach, r.ablation or "none", f"{acc:.4f}", r.seed]
                    for r in results for sid, acc in zip(r.subject_ids, r.accuracies)))


def read_results_csv(path) -> list[dict]:
    reader = csv.DictReader(io.StringIO(data.read_text(path, DataError), newline=""))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
        raise DataError(f"{path}: expected header {','.join(CSV_FIELDS)}")
    rows = []
    for row in reader:
        try:
            row["subject_id"] = int(row["subject_id"])
            row["accuracy"] = float(row["accuracy"])
            row["seed"] = int(row["seed"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: line {reader.line_num}: malformed row "
                            f"{row}: {exc}")
        _check_accuracy(row["accuracy"], f"{path}: line {reader.line_num}: ")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no result rows")
    return rows


def summary_text(result: RunResult, timestamp: str = "") -> str:
    mean, sd, median, (width, lo, hi) = stats.summarize(result.accuracies)
    lines = []
    if timestamp:
        lines.append(f"generated: {timestamp}")
    lines += [
        f"approach: {result.approach}",
        f"ablation: {result.ablation or 'none'}",
        f"subjects: {len(result.subject_ids)}",
        f"seed: {result.seed}",
        f"mean accuracy: {mean:.2f}",
        f"standard deviation: {sd:.2f}",
        f"median: {median:g}",
        f"range: {width:g} ({lo:g}-{hi:g})",
        f"wall time (s): {result.wall_time_s:.1f}",
    ]
    return "\n".join(lines) + "\n"
