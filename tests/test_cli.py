import dataclasses
import hashlib
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ccspnet
from ccspnet import cli, data, harness
from ccspnet.errors import ConfigError, DataError, NumericalError
from ccspnet.model import CCSPNet, ModelConfig

from test_model import (corrupt_first_array_name, edit_config_text, every_field_changed,
                        rewrite_arrays)


def run(*argv):
    return cli.main(list(argv))


def synth_args(out, subjects=2, trials=10, channels=8, seed=5, erd=0.5):
    return ["synth", "--subjects", str(subjects), "--trials", str(trials),
            "--channels", str(channels), "--seed", str(seed),
            "--erd", str(erd), "--out", str(out)]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert cli.main(synth_args(out)) == 0
    return out


def file_hashes(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


class TestSynth:
    def test_default_structure(self, dataset_dir):
        trialset = data.load_trials(dataset_dir / "manifest.txt")
        assert len(trialset) == 2 * 20
        assert trialset.trials.shape[1:] == (8, 4000)

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(synth_args(a)) == 0
        assert cli.main(synth_args(b)) == 0
        assert file_hashes(a) == file_hashes(b)

    @pytest.mark.parametrize("flag, value", [("--erd", "-1"), ("--subjects", "0"),
                                             ("--trials", "0"), ("--seed", "-1")])
    def test_invalid_argument_is_data_error(self, tmp_path, capsys, flag, value):
        argv = synth_args(tmp_path / "out")
        argv[argv.index(flag) + 1] = value
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (tmp_path / "out").exists()

    def test_erd_one_marks_non_separable(self, tmp_path):
        out = tmp_path / "flat"
        assert cli.main(synth_args(out, erd=1.0)) == 0
        manifest = data.load_manifest(out / "manifest.txt")
        assert manifest.non_separable

    def test_default_erd_is_separable(self, dataset_dir):
        assert not data.load_manifest(dataset_dir / "manifest.txt").non_separable


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run("synth", "--nonsense") == 1

    def test_missing_manifest_is_config_error(self, tmp_path):
        assert run("eval-sd", "--out-dir", str(tmp_path)) == 1

    def test_nonexistent_manifest_is_data_error(self, tmp_path):
        assert run("eval-sd", "--manifest", str(tmp_path / "no.txt"),
                   "--out-dir", str(tmp_path)) == 2

    def test_stats_without_inputs_is_config_error(self):
        assert run("stats") == 1

    def test_one_class_subject_is_data_error(self, dataset_dir, tmp_path, capsys):
        trialset = data.load_trials(dataset_dir / "manifest.txt")
        labels = trialset.labels.copy()
        labels[trialset.subject_ids == 1] = 0
        manifest = data.save_dataset(tmp_path / "one_class",
                                     dataclasses.replace(trialset, labels=labels))
        assert run("eval-sd", "--manifest", str(manifest), "--epochs", "1",
                   "--jobs", "1", "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: class 1 missing") and "Traceback" not in err
        assert "(in the fold of subject 1)" in err

    @pytest.mark.parametrize("rate, samples, message", [
        (250.0, 4000, "250 Hz not divisible by target 100 Hz"),
        (1000.0, 3000, "window (1000, 3500) ms exceeds trial length 3000 samples")])
    def test_preprocessing_fault_is_data_error(self, dataset_dir, tmp_path, capsys,
                                               rate, samples, message):
        trialset = data.load_trials(dataset_dir / "manifest.txt")
        manifest = data.save_dataset(tmp_path / "bad", dataclasses.replace(
            trialset, trials=trialset.trials[..., :samples], sample_rate_hz=rate))
        assert run("eval-sd", "--manifest", str(manifest), "--epochs", "1",
                   "--jobs", "1", "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("error, code, prefix", [
        (DataError, 2, "data error"), (NumericalError, 3, "numerical error")])
    def test_failing_fold_names_its_subject(self, dataset_dir, tmp_path, capsys,
                                            monkeypatch, jobs, error, code, prefix):
        def fold(train, test, config):
            if set(test.subject_ids) == {2}:
                raise error("fold broke")
            return 50.0, None

        monkeypatch.setattr(harness, "_run_fold", fold)
        assert run("eval-sd", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--jobs", jobs, "--out-dir", str(tmp_path / "out")) == code
        err = capsys.readouterr().err
        assert err == f"{prefix}: fold broke (in the fold of subject 2)\n"


NOT_UTF8 = b"subject 1: \xff\xfe\n"


def _dataset_copy(dataset_dir, tmp_path, subject_file):
    """A copy of the dataset whose subject 1 file is missing ("missing") or a
    directory whose size the manifest declares ("directory")."""
    copy = tmp_path / "copy"
    shutil.copytree(dataset_dir, copy)
    manifest, victim = copy / "manifest.txt", copy / "subject_001.eegt"
    victim.unlink()
    if subject_file == "directory":
        victim.mkdir()
        manifest.write_text(re.sub(r"(file=subject_001\.eegt trials=\d+) bytes=\d+",
                                   rf"\1 bytes={victim.stat().st_size}",
                                   manifest.read_text()))
    return manifest, victim


def _file_fault(case, dataset_dir, model, tmp_path):
    """(argv, the path its error line must name) of one file fault."""
    manifest = str(dataset_dir / "manifest.txt")
    missing, a_dir, a_file, binary = (tmp_path / "no.txt", tmp_path / "dir",
                                      tmp_path / "file", tmp_path / "binary")
    a_dir.mkdir()
    a_file.write_text("")
    binary.write_bytes(NOT_UTF8)
    if case.endswith("subject-file"):
        copy, victim = _dataset_copy(dataset_dir, tmp_path, case.split("-")[0])
        return ["train", "--manifest", str(copy), "--epochs", "0"], victim
    argv, path = {
        "missing-manifest": (["eval-sd", "--manifest"], missing),
        "missing-model": (["plot", "--stft", "--manifest", manifest, "--model"], missing),
        "missing-config": (["train", "--manifest", manifest, "--config"], missing),
        "missing-csv": (["stats", "--csv"], missing),
        "directory-model": (["plot", "--stft", "--manifest", manifest, "--model"], a_dir),
        "directory-manifest": (["train", "--manifest"], a_dir),
        "directory-config": (["train", "--manifest", manifest, "--config"], a_dir),
        "out-dir-is-a-file": (["plot", "--stft", "--model", str(model), "--manifest",
                               manifest, "--out-dir"], a_file),
        "synth-out-is-a-file": (synth_args(a_file)[:-1], a_file),
        "non-utf8-manifest": (["train", "--manifest"], binary),
        "non-utf8-config": (["train", "--manifest", manifest, "--config"], binary),
        "non-utf8-csv": (["stats", "--csv"], binary),
    }[case]
    return argv + [str(path)], path


class TestFileFaults:
    """Every file the user names that cannot be opened, read, written or
    decoded is one error line that names it, and no traceback."""

    @pytest.mark.parametrize("case", [
        "missing-manifest", "missing-model", "missing-config", "missing-csv",
        "missing-subject-file", "directory-model", "directory-manifest",
        "directory-config", "directory-subject-file", "out-dir-is-a-file",
        "synth-out-is-a-file", "non-utf8-manifest", "non-utf8-config", "non-utf8-csv"])
    def test_file_fault_is_one_error_line(self, dataset_dir, trained_model, tmp_path,
                                          capsys, case):
        argv, path = _file_fault(case, dataset_dir, trained_model, tmp_path)
        code, prefix = (1, "error: ") if case == "non-utf8-config" else (2, "data error: ")
        assert run(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix + str(path)) and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval-sd", "eval-si", "ablate"])
    def test_out_dir_that_is_a_file_fails_before_any_fold(self, dataset_dir, tmp_path,
                                                          capsys, monkeypatch, command):
        folds = []
        monkeypatch.setattr(harness, "_run_fold", lambda *args: folds.append(args))
        a_file = tmp_path / "file"
        a_file.write_text("")
        assert run(command, "--manifest", str(dataset_dir / "manifest.txt"),
                   "--jobs", "1", "--out-dir", str(a_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {a_file}") and err.count("\n") == 1
        assert folds == []

    def test_process_exit_code(self, tmp_path):
        missing = tmp_path / "missing.csv"
        src = os.path.dirname(os.path.dirname(ccspnet.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "ccspnet.cli", "stats",
                               "--csv", str(missing)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stderr == f"data error: {missing}: No such file or directory\n"
        assert done.stdout == ""


class TestConfigFile:
    def test_unknown_key_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs: 2\nbogus_key: 7\n")
        assert run("eval-sd", "--config", str(cfg)) == 1
        assert "run.cfg:2" in capsys.readouterr().err

    def test_bad_value_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs: soon\n")
        assert run("eval-sd", "--config", str(cfg)) == 1
        assert "run.cfg:1" in capsys.readouterr().err

    def test_line_without_colon_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nepochs: 2\nepochs 3\n")
        assert run("eval-sd", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == "error: run.cfg:4: expected 'key: value'\n"

    @pytest.mark.parametrize("key", ["epochs", "jobs"])
    def test_repeated_key_reports_line_number(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}: 1\n# later\n{key}: 5\n")
        assert run("eval-sd", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: run.cfg:3: repeated key '{key}'\n"

    def test_config_file_drives_run(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs: 1\nbatch_size: 300\nseed: 3\n"
                       f"manifest: {dataset_dir / 'manifest.txt'}\n"
                       f"out_dir: {tmp_path / 'out'}\n")
        assert run("eval-sd", "--config", str(cfg), "--jobs", "1") == 0
        rows = harness.read_results_csv(tmp_path / "out" / "sd.csv")
        assert {r["seed"] for r in rows} == {3}

    def test_every_model_field_round_trips(self, tmp_path):
        cfg = every_field_changed()
        path = tmp_path / "run.cfg"
        path.write_text("".join(line.replace("=", ": ", 1) + "\n"
                                for line in cfg.to_text().splitlines()))
        assert ModelConfig(**cli.parse_config_file(path)) == cfg

    @pytest.mark.parametrize("file_text, flags, expected", [
        ("jobs: 7\nphase: online\n", [], ("online", 7)),
        ("jobs: 7\nphase: online\n", ["--jobs", "2", "--phase", "offline"],
         ("offline", 2)),
        ("epochs: 1\n", [], ("offline", os.cpu_count() or 1)),
    ])
    def test_jobs_and_phase_precedence(self, dataset_dir, tmp_path, monkeypatch,
                                       file_text, flags, expected):
        class Stop(Exception):
            pass

        calls = []

        def run_loso(proc, cfg, phase, jobs):
            calls.append((phase, jobs))
            raise Stop

        monkeypatch.setattr(harness, "run_loso", run_loso)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_text)
        with pytest.raises(Stop):
            run("eval-si", "--config", str(cfg), "--manifest",
                str(dataset_dir / "manifest.txt"), *flags)
        assert calls == [expected]

    @pytest.mark.parametrize("line", ["jobs: two", "phase: sideways"])
    def test_bad_jobs_or_phase_reports_line_number(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs: 1\n{line}\n")
        assert run("eval-si", "--config", str(cfg)) == 1
        assert "run.cfg:2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, stem", [
        (["eval-sd"], "sd"), (["eval-si", "--phase", "online"], "si_online")],
        ids=["sd", "si-online"])
    def test_config_file_ablation_reaches_every_fold(self, dataset_dir, tmp_path,
                                                     command, stem):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs: 1\nablate: tcnn\n")
        out = tmp_path / "out"
        assert run(*command, "--config", str(cfg), "--manifest",
                   str(dataset_dir / "manifest.txt"), "--jobs", "2",
                   "--out-dir", str(out)) == 0
        assert {r["ablation"] for r in harness.read_results_csv(out / f"{stem}.csv")} \
            == {"tcnn"}
        assert "ablation: tcnn" in (out / f"{stem}_summary.txt").read_text()
        for sid in (1, 2):
            net = CCSPNet.load(out / f"{stem}_subject_{sid:03d}.ccsp")
            assert net.config.ablate == "tcnn"

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["train", "eval-sd", "eval-si", "ablate"])
    def test_jobs_below_one_is_config_error(self, dataset_dir, tmp_path, capsys,
                                            monkeypatch, command, source):
        # checked with the config, before the dataset loads or --out-dir is made
        loads = []
        monkeypatch.setattr(data, "load_trials", lambda *args: loads.append(args))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs: -3\n" if source == "file" else "epochs: 1\n")
        flags = ["--jobs", "0"] if source == "flag" else []
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--manifest",
                   str(dataset_dir / "manifest.txt"), *flags, "--out-dir", str(out)) == 1
        jobs = 0 if source == "flag" else -3
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("line", ["temporal_len: 0", "wavelet_len: -3",
                                      "dense_dims: -2,4"])
    def test_size_below_one_is_config_error(self, dataset_dir, tmp_path, capsys,
                                            line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("train", "--config", str(cfg), "--epochs", "1",
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_dataset_keys_in_the_file_are_ignored(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_channels: 2\nn_timepoints: 10\nsample_rate_hz: 7\n")
        out = tmp_path / "out"
        assert run("train", "--config", str(cfg), "--epochs", "0",
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(out)) == 0
        config = CCSPNet.load(out / "model.ccsp").config
        assert (config.n_channels, config.n_timepoints, config.sample_rate_hz) \
            == (8, 250, 100.0)

    def test_kernel_longer_than_the_data_is_config_error(self, dataset_dir, tmp_path,
                                                         capsys):
        # the file's n_timepoints is dropped; the preprocessed trials have 250
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_timepoints: 400\ntemporal_len: 300\n")
        assert run("train", "--config", str(cfg), "--epochs", "1",
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: temporal_len 300 is longer") and "Traceback" not in err

    def test_negative_seed_is_config_error(self, dataset_dir, tmp_path, capsys):
        assert run("train", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--epochs", "1", "--seed", "-1",
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0") and "Traceback" not in err

    def test_env_seed_override(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CCSP_SEED", "77")
        out = tmp_path / "out"
        assert run("eval-sd", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--epochs", "1", "--seed", "3", "--jobs", "1",
                   "--out-dir", str(out)) == 0
        rows = harness.read_results_csv(out / "sd.csv")
        assert {r["seed"] for r in rows} == {77}

    def test_bad_env_seed_is_config_error(self, dataset_dir, monkeypatch):
        monkeypatch.setenv("CCSP_SEED", "many")
        assert run("eval-sd", "--manifest",
                   str(dataset_dir / "manifest.txt")) == 1


class TestEvalCommands:
    def test_eval_sd_emits_artifacts(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        assert run("eval-sd", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--epochs", "1", "--jobs", "2", "--out-dir", str(out)) == 0
        rows = harness.read_results_csv(out / "sd.csv")
        assert [r["subject_id"] for r in rows] == [1, 2]
        assert (out / "sd_summary.txt").exists()
        assert (out / "sd_history.csv").exists()
        assert (out / "sd_subject_001.ccsp").exists()

    def test_eval_si_phase_tagging(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        assert run("eval-si", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--epochs", "1", "--phase", "online", "--jobs", "2",
                   "--out-dir", str(out)) == 0
        rows = harness.read_results_csv(out / "si_online.csv")
        assert {r["approach"] for r in rows} == {"SI-online"}

    def test_epochs_zero_trains_nothing_but_saves(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        assert run("eval-sd", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--epochs", "0", "--jobs", "1", "--out-dir", str(out)) == 0
        rows = harness.read_results_csv(out / "sd.csv")
        # untrained but finalized: CSP+LDA on initialization weights still
        # separate the planted rhythm, so only a loose band is meaningful
        assert all(0.0 <= r["accuracy"] <= 100.0 for r in rows)

    def test_ablate_single_component(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        assert run("ablate", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--epochs", "1", "--component", "frn", "--jobs", "2",
                   "--out-dir", str(out)) == 0
        rows = harness.read_results_csv(out / "ablation.csv")
        assert {r["ablation"] for r in rows} == {"frn"}

    def test_train_pooled_model(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        assert run("train", "--manifest", str(dataset_dir / "manifest.txt"),
                   "--epochs", "1", "--out-dir", str(out)) == 0
        assert (out / "model.ccsp").exists()
        assert (out / "history.csv").exists()


class TestStatsCommand:
    def test_fixtures_report(self, capsys):
        assert run("stats", "--fixtures") == 0
        report = capsys.readouterr().out
        assert "t=1.7679" in report
        assert "F(5,318)=2.9700" in report

    def test_identical_csvs_paired_p_one(self, tmp_path, capsys):
        result = harness.RunResult("SD", [1, 2, 3], [70.0, 80.0, 90.0],
                                   ModelConfig(), 0.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_results_csv(a, result)
        harness.write_results_csv(b, result)
        assert run("stats", "--csv", str(a), "--csv", str(b)) == 0
        assert "p=1.0000" in capsys.readouterr().out

    def test_three_csvs_rejected_before_reading(self, tmp_path, capsys):
        result = harness.RunResult("SD", [1, 2], [70.0, 80.0], ModelConfig(), 0.0)
        paths = [tmp_path / f"{name}.csv" for name in "abc"]
        for path in paths:
            harness.write_results_csv(path, result)
        assert run("stats", *(arg for p in paths for arg in ("--csv", str(p)))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most two" in captured.err

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject_id,approach,ablation,accuracy,seed\n1,SD,none,oops,0\n")
        assert run("stats", "--csv", str(bad)) == 2
        assert f"{bad}: line 2: malformed row" in capsys.readouterr().err

    @pytest.mark.parametrize("accuracy", ["nan", "150", "-5", "100.01"])
    def test_impossible_accuracy_is_data_error(self, tmp_path, capsys, accuracy):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject_id,approach,ablation,accuracy,seed\n"
                       f"1,SD,none,70,0\n2,SD,none,{accuracy},0\n")
        assert run("stats", "--csv", str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad.csv: line 3: accuracy {float(accuracy)} outside [0, 100]" \
            in captured.err

    def test_accuracy_bounds_are_valid(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("subject_id,approach,ablation,accuracy,seed\n"
                        "1,SD,none,0,0\n2,SD,none,100,0\n")
        assert run("stats", "--csv", str(path)) == 0
        assert "range=100 (0-100)" in capsys.readouterr().out

    def test_repeated_subject_in_paired_test_is_data_error(self, tmp_path, capsys):
        # an ablation.csv holds one row per subject per component
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("subject_id,approach,ablation,accuracy,seed\n"
                     "1,SD,wkcnn,80,0\n1,SD,tcnn,20,0\n2,SD,wkcnn,70,0\n")
        b.write_text("subject_id,approach,ablation,accuracy,seed\n"
                     "1,SD,none,60,0\n2,SD,none,65,0\n")
        assert run("stats", "--csv", str(a), "--csv", str(b)) == 2
        err = capsys.readouterr().err
        assert "a.csv: subject 1 has more than one row" in err
        assert run("stats", "--csv", str(b), "--csv", str(a)) == 2
        assert "a.csv: subject 1 has more than one row" in capsys.readouterr().err

    def test_one_csv_summary_keeps_repeated_subjects(self, tmp_path, capsys):
        path = tmp_path / "ablation.csv"
        path.write_text("subject_id,approach,ablation,accuracy,seed\n"
                        "1,SD,wkcnn,80,0\n1,SD,tcnn,20,0\n2,SD,wkcnn,70,0\n")
        assert run("stats", "--csv", str(path)) == 0
        assert "n=3 mean=56.67" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained_model(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert run("train", "--manifest", str(dataset_dir / "manifest.txt"),
               "--epochs", "1", "--out-dir", str(out)) == 0
    return out / "model.ccsp"


class TestPlotCommand:
    def test_stft_and_scatter_artifacts(self, dataset_dir, trained_model,
                                        tmp_path):
        out = tmp_path / "plots"
        assert run("plot", "--stft", "--csp-scatter",
                   "--model", str(trained_model),
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--subject", "1", "--channel", "0",
                   "--out-dir", str(out)) == 0
        for name in ("stft.csv", "stft.svg", "csp_scatter.csv",
                     "csp_scatter.svg"):
            assert (out / name).exists()
        for svg in ("stft.svg", "csp_scatter.svg"):
            assert ET.parse(out / svg).getroot().tag.endswith("svg")

    def test_only_the_drawn_subject_is_preprocessed(self, dataset_dir, trained_model,
                                                    tmp_path, capsys, monkeypatch):
        seen = []
        preprocess = data.preprocess
        monkeypatch.setattr(data, "preprocess",
                            lambda raw: seen.append(raw.subjects()) or preprocess(raw))
        argv = ["plot", "--stft", "--model", str(trained_model),
                "--manifest", str(dataset_dir / "manifest.txt"), "--out-dir", str(tmp_path)]
        assert run(*argv, "--subject", "2") == 0
        assert seen == [[2]]
        assert run(*argv, "--subject", "9") == 2
        assert capsys.readouterr().err == "data error: subject 9 not in dataset\n"
        assert seen == [[2]]

    def test_missing_model_is_data_error(self, dataset_dir, tmp_path):
        assert run("plot", "--stft", "--model", str(tmp_path / "no.ccsp"),
                   "--manifest", str(dataset_dir / "manifest.txt")) == 2

    def test_no_mode_is_config_error(self, dataset_dir, trained_model):
        assert run("plot", "--model", str(trained_model),
                   "--manifest", str(dataset_dir / "manifest.txt")) == 1

    @pytest.mark.parametrize("old, new", [("epochs=1\n", "epochs=x\n"),
                                          ("ablate=\n", "ablate=q\n")])
    def test_bad_model_config_text_is_data_error(self, dataset_dir, trained_model,
                                                 tmp_path, capsys, old, new):
        path = tmp_path / "bad.ccsp"
        path.write_bytes(trained_model.read_bytes())
        edit_config_text(path, old, new)
        assert run("plot", "--stft", "--model", str(path),
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(tmp_path)) == 2
        assert "bad.ccsp" in capsys.readouterr().err

    def test_wrongly_shaped_array_is_data_error(self, dataset_dir, trained_model,
                                                tmp_path, capsys):
        path = tmp_path / "bad.ccsp"
        path.write_bytes(trained_model.read_bytes())
        rewrite_arrays(path, lambda items: [(n, a[:-1] if n == "lda.w" else a)
                                            for n, a in items])
        assert run("plot", "--csp-scatter", "--model", str(path),
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(tmp_path)) == 2
        assert "bad.ccsp: shape mismatch for 'lda.w'" in capsys.readouterr().err

    def test_repeated_array_is_data_error(self, dataset_dir, trained_model, tmp_path,
                                          capsys):
        path = tmp_path / "bad.ccsp"
        path.write_bytes(trained_model.read_bytes())
        rewrite_arrays(path, lambda items: items + [(n, -a) for n, a in items
                                                    if n == "lda.w"])
        assert run("plot", "--stft", "--model", str(path),
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(tmp_path)) == 2
        assert "bad.ccsp: repeated array 'lda.w'" in capsys.readouterr().err

    def test_scatter_of_an_unfinalized_model_is_data_error(self, dataset_dir, trained_model,
                                                           tmp_path, capsys):
        path = CCSPNet(CCSPNet.load(trained_model).config).save(tmp_path / "raw.ccsp")
        manifest = str(dataset_dir / "manifest.txt")
        assert run("plot", "--csp-scatter", "--model", str(path), "--manifest", manifest,
                   "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "raw.ccsp: model is not finalized" in err and "Traceback" not in err
        assert run("plot", "--stft", "--model", str(path), "--manifest", manifest,
                   "--out-dir", str(tmp_path)) == 0

    def test_undecodable_array_name_is_data_error(self, dataset_dir, trained_model,
                                                  tmp_path, capsys):
        path = tmp_path / "bad.ccsp"
        path.write_bytes(trained_model.read_bytes())
        corrupt_first_array_name(path)
        assert run("plot", "--stft", "--model", str(path),
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(tmp_path)) == 2
        assert "bad.ccsp" in capsys.readouterr().err
