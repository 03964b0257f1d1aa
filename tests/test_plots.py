import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ccspnet import autodiff as ad
from ccspnet import csp, data, plots
from ccspnet.errors import DataError, ModelStateError
from ccspnet.model import ABLATIONS, CCSPNet, ModelConfig

from oracles import eval_maps_conv, rel_err, stage_maps_conv


@pytest.fixture(scope="module")
def fitted():
    cfg = data.SynthConfig(n_subjects=1, trials_per_class=10, n_channels=8,
                           seed=9)
    proc = data.preprocess(data.synthesize(cfg))
    train, test = (proc.select(i) for i in data.sd_fold(proc, 1))
    net = CCSPNet(ModelConfig(n_channels=8, epochs=2, batch_size=300, seed=0))
    net.train(train.trials, train.labels).finalize(train.trials, train.labels)
    return net, train, test


class TestStftGrids:
    def test_three_stages_present(self, fitted):
        net, train, _ = fitted
        grids = plots.stft_stage_grids(net, train.trials[0], channel=0)
        assert set(grids) == {"raw", "wkcnn", "tcnn"}
        assert len(grids["raw"]) == 1
        assert len(grids["wkcnn"]) == 4
        assert len(grids["tcnn"]) == 4

    def test_grid_shapes_consistent(self, fitted):
        net, train, _ = fitted
        grids = plots.stft_stage_grids(net, train.trials[0], channel=0)
        mags, freqs, times = grids["raw"][0]
        assert mags.shape == (len(freqs), len(times))
        assert freqs[-1] == pytest.approx(50.0)  # Nyquist at 100 Hz

    def test_bad_channel_rejected(self, fitted):
        net, train, _ = fitted
        with pytest.raises(DataError):
            plots.stft_stage_grids(net, train.trials[0], channel=99)

    def test_wrongly_shaped_trial_rejected(self, fitted):
        net, _, _ = fitted
        with pytest.raises(DataError):
            plots.stft_stage_grids(net, np.zeros((7, 40)), channel=0)

    @pytest.mark.parametrize("offset", (0.0, 1e3))
    @pytest.mark.parametrize("ablate", ("",) + ABLATIONS)
    def test_stage_maps_match_the_convolution_oracle(self, ablate, offset):
        # the grids' maps of each stage come from its partial operator
        net = CCSPNet(ModelConfig(n_channels=6, n_timepoints=40, wavelet_len=8,
                                  temporal_len=16, epochs=1, batch_size=16,
                                  ablate=ablate))
        x = np.random.default_rng(2).normal(size=(4, 6, 40))
        net.train(x, np.array([0, 1, 0, 1]))
        x += offset
        stages = net.stage_operators()
        want = stage_maps_conv(net, x)
        assert [name for name, _, _ in stages] == [name for name, _ in want]
        assert len(stages) == (1 if ablate in ("wkcnn", "tcnn") else 2)
        for (_, operator, bias), (_, maps) in zip(stages, want):
            assert rel_err(np.matmul(x[:, None], operator) + bias[:, None], maps) <= 1e-10

    def test_stages_of_a_wrongly_shaped_trial_rejected(self):
        # the channel exists, but the trial is too short
        net = CCSPNet(ModelConfig(n_channels=8, n_timepoints=64))
        with pytest.raises(DataError, match="does not match model input"):
            plots.stft_stage_grids(net, np.zeros((8, 40)), channel=0)

    def test_csv_row_count(self, fitted, tmp_path):
        net, train, _ = fitted
        grids = plots.stft_stage_grids(net, train.trials[0], channel=0)
        path = tmp_path / "stft.csv"
        plots.write_stft_csv(path, grids)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        expected = sum(m.shape[0] * m.shape[1]
                       for entries in grids.values() for m, _, _ in entries)
        assert len(rows) == expected

    def test_svg_is_well_formed(self, fitted, tmp_path):
        net, train, _ = fitted
        grids = plots.stft_stage_grids(net, train.trials[0], channel=0)
        path = tmp_path / "stft.svg"
        plots.render_stft_svg(path, grids)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_evaluation_runs_no_convolution(monkeypatch):
    # predict, finalize and both plots go through the stage operators; only
    # training convolves
    cfg = data.SynthConfig(n_subjects=1, trials_per_class=10, n_channels=8, seed=4)
    proc = data.preprocess(data.synthesize(cfg))
    train = proc.select(data.sd_fold(proc, 1)[0])
    net = CCSPNet(ModelConfig(n_channels=8, epochs=1, batch_size=300, seed=0))
    net.train(train.trials, train.labels)

    def no_conv(*args, **kwargs):
        raise AssertionError("conv_same_temporal called")

    monkeypatch.setattr(ad, "conv_same_temporal", no_conv)
    net.finalize(train.trials, train.labels)
    assert net.predict(train.trials).shape == (len(train),)
    assert len(plots.csp_scatter_points(net, train.trials, train.labels)) == 4 * len(train)
    assert set(plots.stft_stage_grids(net, train.trials[0], channel=0)) == {
        "raw", "wkcnn", "tcnn"}
    with pytest.raises(AssertionError, match="conv_same_temporal called"):
        net.train_step(train.trials, train.labels)


class TestCspScatter:
    def test_row_count_is_branches_times_trials(self, fitted):
        net, _, test = fitted
        rows = plots.csp_scatter_points(net, test.trials, test.labels)
        assert len(rows) == 4 * len(test)

    def test_branch_one_separability(self, fitted):
        net, _, test = fitted
        rows = [r for r in plots.csp_scatter_points(net, test.trials, test.labels)
                if r["branch"] == 1]
        pts = {c: np.array([(r["x"], r["y"]) for r in rows if r["label"] == c])
               for c in (0, 1)}
        centroid_gap = np.linalg.norm(pts[0].mean(axis=0) - pts[1].mean(axis=0))
        within_sd = max(pts[0].std(axis=0).max(), pts[1].std(axis=0).max())
        assert centroid_gap > within_sd

    def test_features_match_training_and_predict_paths(self, fitted):
        # one eval path: predict and the scatter see the same N x K x 4
        # features, bit for bit
        net, _, test = fitted
        predict_feats = net.frozen_features(test.trials)
        assert predict_feats.shape == (len(test), 4, 4)
        rows = plots.csp_scatter_points(net, test.trials, test.labels)
        scatter = np.array([[r["x"], r["y"]] for r in rows])
        np.testing.assert_array_equal(
            scatter, predict_feats.value[:, :, [0, -1]].transpose(1, 0, 2).reshape(-1, 2))

    def test_rows_are_the_features_of_the_maps(self, fitted):
        # branch-major rows, whose points are the frozen features of the maps
        # the convolutions make
        net, _, test = fitted
        maps = eval_maps_conv(net, test.trials)
        want = csp.spatial_filter_features(ad.constant(maps), net.frozen_projection()).value
        want = want[:, :, [0, -1]].transpose(1, 0, 2).reshape(-1, 2)
        rows = plots.csp_scatter_points(net, test.trials, test.labels)
        assert [(r["branch"], r["trial"], r["label"]) for r in rows] == [
            (i + 1, n, int(test.labels[n])) for i in range(4) for n in range(len(test))]
        np.testing.assert_allclose(np.array([[r["x"], r["y"]] for r in rows]), want,
                                   rtol=1e-10)

    def test_unfinalized_rejected(self, fitted):
        _, train, _ = fitted
        net = CCSPNet(ModelConfig(n_channels=8, epochs=0, seed=1))
        with pytest.raises(ModelStateError):
            plots.csp_scatter_points(net, train.trials, train.labels)

    def test_wrongly_shaped_trials_rejected(self, fitted):
        net, _, _ = fitted
        with pytest.raises(DataError):
            plots.csp_scatter_points(net, np.zeros((2, 7, 40)), np.array([0, 1]))

    def test_csv_and_svg_outputs(self, fitted, tmp_path):
        net, _, test = fitted
        rows = plots.csp_scatter_points(net, test.trials, test.labels)
        csv_path = tmp_path / "scatter.csv"
        svg_path = tmp_path / "scatter.svg"
        plots.write_scatter_csv(csv_path, rows)
        plots.render_scatter_svg(svg_path, rows)
        with open(csv_path) as fh:
            assert len(list(csv.DictReader(fh))) == len(rows)
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > len(rows)
