"""Exception hierarchy shared across the toolkit, its one floating-point
rule (each model entry checks its batch, and numpy's faults inside raise), its
one label rule (`check_labels`, then `check_both_classes` where a batch fits)
and its one block walk over a trial set, `trial_blocks`.

The CLI maps these onto exit codes: ConfigError -> 1, DataError and OSError
(a file that cannot be opened, read or written) -> 2, NumericalError -> 3.
"""

from contextlib import contextmanager

import numpy as np

# bytes of whole trials per block of a pass over a trial set (at least one trial):
# a block stays in cache between passes, and a block buffer stands in for the whole
TRIAL_BLOCK_BYTES = 1 << 20


class CcspError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CcspError):
    """Invalid configuration file, flag combination, or hyperparameter."""


class DataError(CcspError):
    """Malformed manifest, trial file, or inconsistent dataset contents."""


class NumericalError(CcspError):
    """Numerical failure: non-finite values, singular matrices, overflow."""


class ModelStateError(CcspError):
    """Model used in the wrong lifecycle state (e.g. predict before finalize)."""


@contextmanager
def numpy_faults(message):
    """Numpy's overflow, division and invalid-value faults in the block as a
    NumericalError of `message`, or of `message(fault)` when it is callable.

    A product that BLAS splits over threads can overflow in a worker whose
    fault flag never reaches this thread, and return inf silently; so the
    reductions every map passes through, `csp.class_covariances` and
    `autodiff.log_variance`, reject a non-finite result too."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(message(exc) if callable(message) else message) from None


def trial_blocks(trials: np.ndarray) -> list[slice]:
    """Slices of `trials`' first axis, each of as many whole trials as fit in
    TRIAL_BLOCK_BYTES (at least one), in order."""
    n = trials.shape[0]
    step = max(1, TRIAL_BLOCK_BYTES // max(1, trials[:1].nbytes))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def check_finite_trials(trials, first_sample=0):
    """Raise a NumericalError naming the trial, channel and sample (counted
    from `first_sample`) of the first non-finite value of N x C x T `trials`,
    read a block of `trial_blocks` at a time so that no mask of the whole is made."""
    for block in trial_blocks(trials):
        finite = np.isfinite(trials[block])
        if not finite.all():
            trial, channel, sample = np.argwhere(~finite)[0]
            raise NumericalError(f"trial {block.start + trial}: non-finite sample at "
                                 f"channel {channel}, sample {first_sample + sample}")


def check_labels(labels, n_trials):
    """`labels` as an array, which must hold one label, 0 or 1, per trial:
    a DataError unless its shape is (n_trials,) and every value is 0 or 1."""
    labels = np.asarray(labels)
    if labels.shape != (n_trials,):
        raise DataError(f"{labels.size} labels for {n_trials} trials, of shape "
                        f"{labels.shape}; expected a 1-d array of one label per trial")
    bad = labels[~np.isin(labels, (0, 1))]
    if bad.size:
        raise DataError(f"label {bad.flat[0].item()!r} is not 0 or 1")
    return labels


def check_both_classes(labels):
    """(n0, n1), the class counts of `labels` that `check_labels` passed: a
    DataError unless both are present, as CSP, LDA and the Fisher criterion need."""
    counts = np.bincount(labels.astype(int), minlength=2)
    if not counts.all():
        raise DataError(f"class {counts.argmin()} missing from batch; "
                        "CSP, LDA and the Fisher criterion need both classes")
    return counts
