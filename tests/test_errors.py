import re
from pathlib import Path

import numpy as np
import pytest

from ccspnet import autodiff as ad
from ccspnet import csp, data, errors, lda, plots
from ccspnet.errors import (DataError, NumericalError, check_both_classes, check_finite_trials,
                            numpy_faults)

from test_model import fitted_desk_model


class TestNumpyFaults:
    def test_fault_raises_the_given_message(self):
        with pytest.raises(NumericalError) as info, numpy_faults("sum is not finite"):
            np.array([1e308]) * 10
        assert str(info.value) == "sum is not finite"
        assert info.value.__cause__ is None

    @pytest.mark.parametrize("op, fault", [(lambda a: a * 1e300, "overflow"),
                                           (lambda a: a / 0.0, "divide by zero"),
                                           (lambda a: a - np.inf + np.inf, "invalid value")])
    def test_message_function_gets_numpys_fault(self, op, fault):
        with pytest.raises(NumericalError, match=f"^step: {fault} encountered"), \
                numpy_faults(lambda exc: f"step: {exc}"):
            op(np.array([1e300]))

    def test_clean_block_returns_its_value_and_restores_numpys_settings(self):
        before = np.geterr()
        with numpy_faults("unused"):
            out = np.sqrt(np.array([4.0]))
        assert out[0] == 2.0 and np.geterr() == before


class TestCheckFiniteTrials:
    @pytest.mark.parametrize("trial", [0, 63, 64, 98])
    def test_first_bad_sample_named_across_blocks(self, monkeypatch, trial):
        trials = np.zeros((100, 3, 5))
        monkeypatch.setattr(errors, "TRIAL_BLOCK_BYTES", 64 * trials[:1].nbytes)
        trials[trial, 2, 4] = np.inf
        trials[-1, 0, 0] = np.nan
        with pytest.raises(NumericalError) as info:
            check_finite_trials(trials, first_sample=10)
        assert str(info.value) == f"trial {trial}: non-finite sample at channel 2, sample 14"

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_bad_sample_in_the_last_block_named_by_its_absolute_trial(self, monkeypatch,
                                                                      block):
        trials = np.zeros((10, 2, 4), dtype=np.float32)
        monkeypatch.setattr(errors, "TRIAL_BLOCK_BYTES", block * trials[:1].nbytes)
        assert errors.trial_blocks(trials)[-1].stop == 10
        trials[9, 1, 3] = np.nan
        with pytest.raises(NumericalError, match="^trial 9: non-finite sample at "
                                                 "channel 1, sample 3$"):
            check_finite_trials(trials)

    def test_finite_trials_pass(self):
        check_finite_trials(np.full((3, 2, 4), 1e308))


def test_errstate_is_written_only_in_the_guard():
    # one floating-point rule: every numpy fault guard is numpy_faults
    package = Path(errors.__file__).parent
    hits = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
            for line in path.read_text().splitlines() if "errstate" in line]
    assert hits == [("errors.py", 'with np.errstate(over="raise", divide="raise", '
                                  'invalid="raise"):')]


N_TRIALS = 16


@pytest.fixture(scope="module")
def label_entries():
    """Every function that takes labels, as a call on labels for 16 trials."""
    rng = np.random.default_rng(0)
    trials = rng.normal(size=(N_TRIALS, 4, 20))
    net, desk_trials, _ = fitted_desk_model()
    ones = np.ones(N_TRIALS, dtype=np.uint8)
    return {
        "TrialSet": lambda y: data.TrialSet(trials, y, ones, ones, 0 * ones, 1000.0),
        "class_covariances": lambda y: csp.class_covariances(trials, y),
        "class_covariances_stream": lambda y: csp.class_covariances(
            (trials[i:i + 6] for i in range(0, N_TRIALS, 6)), y),
        "target_vectors": csp.target_vectors,
        "csp_loss": lambda y: csp.csp_loss(ad.constant(rng.normal(size=(N_TRIALS, 2, 4))), y),
        "lda.fit": lambda y: lda.fit(rng.normal(size=(N_TRIALS, 3)), y),
        "fisher_criterion_node": lambda y: lda.fisher_criterion_node(
            ad.constant(rng.normal(size=(N_TRIALS, 1))), y),
        "csp_scatter_points": lambda y: plots.csp_scatter_points(net, desk_trials[:N_TRIALS], y),
    }


LABEL_FAULTS = {
    "label 2": (lambda y: np.where(np.arange(N_TRIALS) == 3, 2, y),
                "label 2 is not 0 or 1"),
    "column": (lambda y: y[:, None],
               re.escape(f"{N_TRIALS} labels for {N_TRIALS} trials, of shape ({N_TRIALS}, 1); "
                         "expected a 1-d array of one label per trial")),
    "one too few": (lambda y: y[:-1],
                    re.escape(f"{N_TRIALS - 1} labels for {N_TRIALS} trials, "
                              f"of shape ({N_TRIALS - 1},)")),
}


LABEL_ENTRIES = ("TrialSet", "class_covariances", "class_covariances_stream",
                 "target_vectors", "csp_loss", "lda.fit", "fisher_criterion_node",
                 "csp_scatter_points")


class TestCheckLabels:
    # target_vectors takes no trial count, so no count of labels is a fault
    # there; class_covariances counts a stream's trials at its end, in its own words
    @pytest.mark.parametrize("entry, fault", [
        (entry, fault) for entry in LABEL_ENTRIES for fault in LABEL_FAULTS
        if (entry, fault) != ("target_vectors", "one too few")])
    def test_every_label_fault_is_a_data_error(self, label_entries, entry, fault):
        corrupt, message = LABEL_FAULTS[fault]
        if entry.startswith("class_covariances") and fault == "one too few":
            message = f"{N_TRIALS - 1} CSP labels for {N_TRIALS} trials"
        with pytest.raises(DataError, match=message):
            label_entries[entry](corrupt(np.arange(N_TRIALS) % 2))


@pytest.mark.parametrize("entry", ("class_covariances", "class_covariances_stream",
                                   "lda.fit", "fisher_criterion_node"))
def test_one_class_is_the_same_data_error(label_entries, entry):
    with pytest.raises(DataError) as info:
        label_entries[entry](np.zeros(N_TRIALS, dtype=int))
    assert str(info.value) == ("class 1 missing from batch; "
                               "CSP, LDA and the Fisher criterion need both classes")


class TestCheckBothClasses:
    def test_returns_the_class_counts(self):
        assert tuple(check_both_classes(np.array([1, 0, 1, 1]))) == (1, 3)

    @pytest.mark.parametrize("labels, missing", [([], 0), ([1, 1], 0), ([0], 1),
                                                 ([0.0, 0.0], 1)])
    def test_a_missing_class_is_named(self, labels, missing):
        with pytest.raises(DataError, match=f"^class {missing} missing from batch;"):
            check_both_classes(np.array(labels))


def test_both_classes_are_decided_only_in_the_rule():
    # one class rule: no other module words a missing class
    package = Path(errors.__file__).parent
    hits = [path.name for path in sorted(package.glob("*.py"))
            if "missing from batch" in path.read_text()]
    assert hits == ["errors.py"]


def test_label_values_are_checked_only_in_the_rule():
    # one label rule: no other module tests a label's value with isin
    package = Path(errors.__file__).parent
    hits = [path.name for path in sorted(package.glob("*.py"))
            if "np.isin(" in path.read_text()]
    assert hits == ["errors.py"]
