import hashlib
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ccspnet import cli, data, harness
from ccspnet.errors import ConfigError
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
                                             ("--trials", "0")])
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
    def test_jobs_below_one_is_config_error(self, dataset_dir, tmp_path, capsys,
                                            source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs: 0\n" if source == "file" else "epochs: 1\n")
        flags = ["--jobs", "0"] if source == "flag" else []
        assert run("eval-sd", "--config", str(cfg), "--manifest",
                   str(dataset_dir / "manifest.txt"), *flags,
                   "--out-dir", str(tmp_path / "out")) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sd.csv").exists()

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

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject_id,approach,ablation,accuracy,seed\n1,SD,none,oops,0\n")
        assert run("stats", "--csv", str(bad)) == 2


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

    def test_undecodable_array_name_is_data_error(self, dataset_dir, trained_model,
                                                  tmp_path, capsys):
        path = tmp_path / "bad.ccsp"
        path.write_bytes(trained_model.read_bytes())
        corrupt_first_array_name(path)
        assert run("plot", "--stft", "--model", str(path),
                   "--manifest", str(dataset_dir / "manifest.txt"),
                   "--out-dir", str(tmp_path)) == 2
        assert "bad.ccsp" in capsys.readouterr().err
