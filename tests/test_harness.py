import contextlib
import threading
import tracemalloc

import numpy as np
import pytest

from ccspnet import data, harness
from ccspnet.errors import ConfigError, DataError
from ccspnet.model import ModelConfig

from test_data import small_trialset


def fast_config(**overrides):
    base = dict(epochs=2, batch_size=400, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def small_dataset():
    cfg = data.SynthConfig(n_subjects=3, trials_per_class=10, n_channels=8,
                           seed=5)
    return data.preprocess(data.synthesize(cfg))


@pytest.fixture
def fold_calls(monkeypatch):
    """Stand in for the fold work; records the bytes each fold's sets hold."""
    calls = []

    def fold(train, test, config):
        calls.append(sum(a.nbytes for s in (train, test) for a in (
            s.trials, s.labels, s.subject_ids, s.sessions, s.phases)))
        return 50.0, None

    monkeypatch.setattr(harness, "_run_fold", fold)
    return calls


class TestRunSd:
    def test_one_entry_per_subject_in_range(self, small_dataset):
        result = harness.run_sd(small_dataset, fast_config())
        assert result.subject_ids == small_dataset.subjects()
        assert all(0.0 <= a <= 100.0 for a in result.accuracies)
        assert result.approach == "SD"
        assert result.wall_time_s > 0

    def test_smoke_accuracy_on_separable_data(self, small_dataset):
        result = harness.run_sd(small_dataset, fast_config(epochs=3))
        assert result.mean() >= 60.0

    def test_seed_determinism(self, small_dataset):
        a = harness.run_sd(small_dataset, fast_config(seed=4))
        b = harness.run_sd(small_dataset, fast_config(seed=4))
        assert a.accuracies == b.accuracies

    def test_models_are_finalized_per_subject(self, small_dataset):
        result = harness.run_sd(small_dataset, fast_config())
        assert sorted(result.models) == result.subject_ids
        assert all(net.finalized for net in result.models.values())


class TestRunLoso:
    def test_fold_structure(self, small_dataset):
        result = harness.run_loso(small_dataset, fast_config(), "offline")
        assert result.approach == "SI-offline"
        assert result.subject_ids == small_dataset.subjects()

    def test_worker_pool_matches_serial(self, small_dataset):
        serial = harness.run_loso(small_dataset, fast_config(), "online", jobs=1)
        pooled = harness.run_loso(small_dataset, fast_config(), "online", jobs=3)
        assert serial.accuracies == pooled.accuracies

    def test_subject_order_does_not_change_folds(self, small_dataset):
        base = harness.run_sd(small_dataset, fast_config())
        # rebuild the set with whole-subject blocks in reverse order
        chunks = [np.where(small_dataset.subject_ids == sid)[0]
                  for sid in reversed(small_dataset.subjects())]
        shuffled = small_dataset.select(np.concatenate(chunks))
        again = harness.run_sd(shuffled, fast_config())
        assert base.subject_ids == again.subject_ids
        assert base.accuracies == again.accuracies

    def test_block_order_does_not_change_folds(self, small_dataset):
        base = harness.run_loso(small_dataset, fast_config(), "offline")
        # the same trials with the four blocks of every subject interleaved
        # and the subjects in reverse order
        rng = np.random.default_rng(1)
        blocks = [np.flatnonzero((small_dataset.sessions == s) & (small_dataset.phases == p)
                                 & (small_dataset.subject_ids == sid))
                  for sid in reversed(small_dataset.subjects())
                  for s, p in rng.permutation([(1, 0), (1, 1), (2, 0), (2, 1)])]
        again = harness.run_loso(small_dataset.select(np.concatenate(blocks)),
                                 fast_config(), "offline")
        assert base.accuracies == again.accuracies
        for sid in base.subject_ids:
            test = small_dataset.select(data.loso_fold(small_dataset, sid, "offline")[1])
            np.testing.assert_array_equal(base.models[sid].predict(test.trials),
                                          again.models[sid].predict(test.trials))

    @pytest.mark.parametrize("phase", ["bogus", 5])
    def test_unknown_phase_rejected(self, small_dataset, fold_calls, phase):
        with pytest.raises(DataError, match="unknown phase"):
            harness.run_loso(small_dataset, fast_config(), phase)
        assert fold_calls == []

    def test_subject_without_test_block_rejected_before_training(self, fold_calls):
        ds = small_trialset(np.random.default_rng(3), n_subjects=3)
        ds = ds.select(~((ds.subject_ids == 2) & (ds.sessions == 2)
                         & (ds.phases == data.PHASE_ONLINE)))
        with pytest.raises(DataError, match="subject 2"):
            harness.run_loso(ds, fast_config(), "offline")
        assert fold_calls == []

    def test_subject_without_train_phase_rejected_before_training(self, fold_calls):
        ds = small_trialset(np.random.default_rng(3), n_subjects=2)
        # subject 2 keeps only its S2-online block: subject 1's fold has no
        # offline trials of another subject to train on
        ds = ds.select((ds.subject_ids == 1) | ((ds.sessions == 2)
                                                & (ds.phases == data.PHASE_ONLINE)))
        with pytest.raises(DataError, match="subject 1.*offline"):
            harness.run_loso(ds, fast_config(), "offline")
        assert fold_calls == []

    def test_fold_seeds_are_order_independent(self):
        assert harness.fold_seed(7, 3) == harness.fold_seed(7, 3)
        assert harness.fold_seed(7, 3) != harness.fold_seed(7, 4)
        assert harness.fold_seed(7, 3) != harness.fold_seed(8, 3)


class TestFoldPlan:
    @pytest.mark.parametrize("n_subjects", [4, 8, 16])
    @pytest.mark.parametrize("run", [
        lambda ds: harness.run_loso(ds, fast_config(), "offline"),
        lambda ds: harness.run_sd(ds, fast_config())], ids=["loso", "sd"])
    def test_peak_memory_is_one_fold(self, fold_calls, n_subjects, run):
        ds = small_trialset(np.random.default_rng(n_subjects), n_subjects,
                            trials_per_block=5, c=16, t=250)
        tracemalloc.start()
        try:
            run(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fold_calls) == n_subjects
        # one fold's sets, plus a little for the index arrays of every fold
        assert peak < 1.1 * max(fold_calls)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_sd_block_rejected_before_training(self, fold_calls, jobs):
        ds = small_trialset(np.random.default_rng(3), n_subjects=3)
        ds = ds.select(~((ds.subject_ids == 3) & (ds.sessions == 1)
                         & (ds.phases == data.PHASE_ONLINE)))
        with pytest.raises(DataError, match="subject 3 missing blocks.*S1-online"):
            harness.run_sd(ds, fast_config(), jobs=jobs)
        assert fold_calls == []


class TestFoldThreads:
    def test_two_fold_threads_match_serial(self, small_dataset):
        serial = harness.run_sd(small_dataset, fast_config(), jobs=1)
        pooled = harness.run_sd(small_dataset, fast_config(), jobs=2)
        assert serial.accuracies == pooled.accuracies
        for sid in serial.subject_ids:
            test = small_dataset.select(data.sd_fold(small_dataset, sid)[1])
            np.testing.assert_array_equal(serial.models[sid].predict(test.trials),
                                          pooled.models[sid].predict(test.trials))

    @pytest.mark.parametrize("cores, jobs, per_fold", [(4, 2, 2), (6, 6, 2)])
    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_threads_split_and_restored(self, small_dataset, monkeypatch, fail,
                                             cores, jobs, per_fold):
        get, set_ = harness._openblas_thread_functions()
        seen = []

        def fold(train, test, config):
            seen.append(get())
            if fail:
                raise RuntimeError("fold failed")
            return 50.0, None

        monkeypatch.setattr(harness, "_run_fold", fold)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        before = get()
        set_(1)
        try:
            with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
                harness.run_sd(small_dataset, fast_config(), jobs=jobs)
            # the cores split over the fold threads that get a fold (3
            # subjects: at most 3), then back to the count before
            assert seen and set(seen) == {per_fold}
            assert get() == 1
        finally:
            set_(before)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("error", [DataError, RuntimeError])
    def test_failing_fold_names_its_subject(self, small_dataset, monkeypatch, jobs, error):
        def fold(train, test, config):
            if set(test.subject_ids) == {3}:
                raise error("fold broke")
            return 50.0, None

        monkeypatch.setattr(harness, "_run_fold", fold)
        with pytest.raises(error) as caught:
            harness.run_sd(small_dataset, fast_config(), jobs=jobs)
        # a toolkit error says it in its message, which the CLI prints; any
        # other error in a note under its traceback
        said = str(caught.value) + "".join(getattr(caught.value, "__notes__", []))
        assert said.count("in the fold of subject 3") == 1

    def test_one_fold_runs_serially(self, small_dataset, monkeypatch):
        threads = []

        def fold(train, test, config):
            threads.append(threading.current_thread())
            return 50.0, None

        monkeypatch.setattr(harness, "_run_fold", fold)
        harness.run_sd(small_dataset.for_subject(1), fast_config(), jobs=4)
        assert threads == [threading.current_thread()]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, small_dataset, fold_calls, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            harness.run_sd(small_dataset, fast_config(), jobs=jobs)
        assert fold_calls == []

    def test_pool_runs_without_openblas(self, small_dataset, monkeypatch):
        monkeypatch.setattr(harness, "_openblas_thread_functions", lambda: None)
        pooled = harness.run_sd(small_dataset, fast_config(epochs=1), jobs=2)
        serial = harness.run_sd(small_dataset, fast_config(epochs=1), jobs=1)
        assert pooled.accuracies == serial.accuracies


class TestRunAblation:
    @pytest.mark.parametrize("component", ["wkcnn", "lda"])
    def test_ablated_runs_complete(self, small_dataset, component):
        result = harness.run_sd(small_dataset, fast_config(ablate=component))
        assert result.ablation == component
        assert len(result.accuracies) == 3
        assert {net.config.ablate for net in result.models.values()} == {component}

    def test_loso_folds_follow_the_config(self, small_dataset):
        cfg = fast_config(epochs=1, ablate="tcnn", seed=9)
        result = harness.run_loso(small_dataset, cfg, "online")
        assert result.ablation == "tcnn" and result.seed == 9
        assert {net.config.ablate for net in result.models.values()} == {"tcnn"}
        assert {net.config.seed for net in result.models.values()} == {
            harness.fold_seed(9, sid) for sid in result.subject_ids}

    def test_unknown_component_rejected(self, small_dataset, fold_calls):
        with pytest.raises(ConfigError):
            harness.run_sd(small_dataset, fast_config(ablate="dropout"))
        assert fold_calls == []


class TestKernelLength:
    """Kernel lengths are checked against the data's trial length (250 time
    points here), not the config's n_timepoints, before any fold runs."""

    @pytest.mark.parametrize("name", ["wavelet_len", "temporal_len"])
    def test_kernel_longer_than_the_data_rejected(self, small_dataset, fold_calls, name):
        with pytest.raises(ConfigError, match=f"{name} 300 is longer than the 250"):
            harness.run_sd(small_dataset, fast_config(n_timepoints=400, **{name: 300}))
        assert fold_calls == []

    def test_config_trial_length_is_not_the_data_one(self, small_dataset, fold_calls):
        harness.run_sd(small_dataset, fast_config(n_timepoints=100, temporal_len=200))
        assert len(fold_calls) == 3


class TestRunResult:
    @pytest.mark.parametrize("accuracy", [float("nan"), 150, -5, 100.01])
    def test_accuracy_outside_0_to_100_rejected(self, accuracy):
        with pytest.raises(DataError, match=rf"^accuracy {accuracy} outside \[0, 100\]$"):
            harness.RunResult("SD", [1, 2], [70.0, accuracy], ModelConfig(), 0.0)

    def test_accuracy_bounds_are_valid(self):
        assert harness.RunResult("SD", [1, 2], [0, 100], ModelConfig(), 0.0).mean() == 50.0


class TestCsvAndSummary:
    def test_round_trip(self, small_dataset, tmp_path):
        result = harness.run_sd(small_dataset, fast_config())
        path = tmp_path / "results.csv"
        harness.write_results_csv(path, result)
        rows = harness.read_results_csv(path)
        assert [r["subject_id"] for r in rows] == result.subject_ids
        assert [r["accuracy"] for r in rows] == pytest.approx(result.accuracies,
                                                              abs=1e-4)
        assert {r["approach"] for r in rows} == {"SD"}
        assert {r["ablation"] for r in rows} == {"none"}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            harness.read_results_csv(path)

    def test_summary_fields(self, small_dataset):
        result = harness.run_sd(small_dataset, fast_config())
        text = harness.summary_text(result, timestamp="2026-01-01T00:00:00")
        assert "mean accuracy:" in text
        assert "generated: 2026-01-01T00:00:00" in text
        # timestamp only appears when provided
        assert "generated" not in harness.summary_text(result)
