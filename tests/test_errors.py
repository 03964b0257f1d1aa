from pathlib import Path

import numpy as np
import pytest

from ccspnet import errors
from ccspnet.errors import NumericalError, check_finite_trials, numpy_faults


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
    def test_first_bad_sample_named_across_blocks(self, trial):
        trials = np.zeros((100, 3, 5))
        trials[trial, 2, 4] = np.inf
        trials[-1, 0, 0] = np.nan
        with pytest.raises(NumericalError) as info:
            check_finite_trials(trials, first_sample=10)
        assert str(info.value) == f"trial {trial}: non-finite sample at channel 2, sample 14"

    def test_finite_trials_pass(self):
        check_finite_trials(np.full((3, 2, 4), 1e308))


def test_errstate_is_written_only_in_the_guard():
    # one floating-point rule: every numpy fault guard is numpy_faults
    package = Path(errors.__file__).parent
    hits = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
            for line in path.read_text().splitlines() if "errstate" in line]
    assert hits == [("errors.py", 'with np.errstate(over="raise", divide="raise", '
                                  'invalid="raise"):')]
