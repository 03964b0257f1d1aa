import struct

import numpy as np
import pytest

from ccspnet import autodiff as ad
from ccspnet import csp, data, dsp, lda
from ccspnet.errors import DataError

from oracles import sos_magnitude


def small_trialset(rng, n_subjects=2, trials_per_block=2, c=4, t=100, fs=1000.0):
    trials, labels, sids, sessions, phases = [], [], [], [], []
    for sid in range(1, n_subjects + 1):
        for session in (1, 2):
            for phase in (data.PHASE_OFFLINE, data.PHASE_ONLINE):
                for i in range(trials_per_block):
                    trials.append(rng.normal(size=(c, t)).astype(np.float32))
                    labels.append(i % 2)
                    sids.append(sid)
                    sessions.append(session)
                    phases.append(phase)
    return data.TrialSet(np.stack(trials), np.asarray(labels, dtype=np.uint8),
                         np.asarray(sids), np.asarray(sessions, dtype=np.uint8),
                         np.asarray(phases, dtype=np.uint8), fs)


def baseline_csp_lda_accuracy(train, test):
    """Plain CSP + LDA reference pipeline (no CNN stack)."""
    x_train = np.asarray(train.trials, dtype=np.float64)
    x_test = np.asarray(test.trials, dtype=np.float64)
    branch = csp.fit_branch(x_train, train.labels)
    model = lda.fit(
        csp.spatial_filter_features(ad.constant(x_train), branch.w_reduced).value,
        train.labels)
    pred = lda.predict(
        model, csp.spatial_filter_features(ad.constant(x_test), branch.w_reduced).value)
    return float((pred == test.labels).mean())


def redeclare_size(manifest_path, sid):
    """Set the manifest's byte count for subject `sid` to its file's size."""
    manifest = data.load_manifest(manifest_path)
    fname, n_trials, _ = manifest.subjects[sid]
    size = (manifest_path.parent / fname).stat().st_size
    manifest.subjects[sid] = (fname, n_trials, size)
    data.write_manifest(manifest_path, manifest)


# expected error message -> corruption of a well-formed trial file; a record
# header is 13 bytes after the 5-byte magic and version: channels, time
# points, label (byte 8), subject, session, phase (byte 12)
CORRUPTIONS = {
    "bad magic": lambda b: b"XXXX" + b[4:],
    "version missing": lambda b: b[:4],
    "version 2": lambda b: b[:4] + b"\x02" + b[5:],
    "no trial records": lambda b: b[:5],
    "truncated record header": lambda b: b[:5 + 12],
    "truncated samples": lambda b: b[:5 + 13 + 20],
    "truncated record at": lambda b: b[:-7],
    "label 7 not in": lambda b: b[:5 + 8] + b"\x07" + b[5 + 9:],
    "unknown phase tag 5": lambda b: b[:5 + 12] + b"\x05" + b[5 + 13:],
}


class TestTrialFileRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = small_trialset(rng)
        manifest_path = data.save_dataset(tmp_path, ts)
        loaded = data.load_trials(manifest_path)
        assert np.array_equal(loaded.trials, ts.trials)
        assert np.array_equal(loaded.labels, ts.labels)
        assert np.array_equal(loaded.subject_ids, ts.subject_ids)
        assert np.array_equal(loaded.sessions, ts.sessions)
        assert np.array_equal(loaded.phases, ts.phases)

    def test_manifest_counts(self, tmp_path):
        ts = small_trialset(np.random.default_rng(1), n_subjects=2, trials_per_block=1)
        manifest_path = data.save_dataset(tmp_path, ts)
        loaded = data.load_trials(manifest_path)
        assert len(loaded) == 8

    def test_phase_filter(self, tmp_path):
        ts = small_trialset(np.random.default_rng(2))
        manifest_path = data.save_dataset(tmp_path, ts)
        offline = data.load_trials(manifest_path, phases=["offline"])
        assert np.all(offline.phases == data.PHASE_OFFLINE)
        assert len(offline) == len(ts) // 2

    def test_subject_filter(self, tmp_path):
        ts = small_trialset(np.random.default_rng(3))
        manifest_path = data.save_dataset(tmp_path, ts)
        sub = data.load_trials(manifest_path, subjects=[2])
        assert set(np.unique(sub.subject_ids)) == {2}

    def test_corrupted_magic_names_file(self, tmp_path):
        ts = small_trialset(np.random.default_rng(4), n_subjects=1)
        manifest_path = data.save_dataset(tmp_path, ts)
        victim = tmp_path / "subject_001.eegt"
        blob = bytearray(victim.read_bytes())
        blob[:4] = b"XXXX"
        victim.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="subject_001"):
            data.load_trials(manifest_path)

    def test_truncated_file_rejected(self, tmp_path):
        ts = small_trialset(np.random.default_rng(5), n_subjects=1)
        manifest_path = data.save_dataset(tmp_path, ts)
        victim = tmp_path / "subject_001.eegt"
        blob = victim.read_bytes()
        victim.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(DataError):
            data.load_trials(manifest_path)

    def test_bad_label_rejected(self, tmp_path):
        ts = small_trialset(np.random.default_rng(6), n_subjects=1)
        manifest_path = data.save_dataset(tmp_path, ts)
        victim = tmp_path / "subject_001.eegt"
        blob = bytearray(victim.read_bytes())
        blob[5 + 8] = 7  # first record's label byte
        victim.write_bytes(bytes(blob))
        # manifest byte count still matches, so the record parser must catch it
        with pytest.raises(DataError, match="label"):
            data.load_trials(manifest_path)

    def test_bytes_match_struct_layout(self, tmp_path):
        ts = small_trialset(np.random.default_rng(9), n_subjects=2, c=3, t=5)
        path = tmp_path / "t.eegt"
        data.write_trial_file(path, ts)
        want = b"EEGT" + struct.pack("<B", 1)
        for i in range(len(ts)):
            want += struct.pack("<IIBHBB", 3, 5, int(ts.labels[i]),
                                int(ts.subject_ids[i]), int(ts.sessions[i]),
                                int(ts.phases[i]))
            want += ts.trials[i].astype("<f4").tobytes()
        assert path.read_bytes() == want

    def test_tag_too_large_for_its_field_rejected(self, tmp_path):
        ts = small_trialset(np.random.default_rng(12), n_subjects=1)
        ts.subject_ids[:] = 70000  # the subject field is a u16
        with pytest.raises(DataError, match="t.eegt: subject"):
            data.write_trial_file(tmp_path / "t.eegt", ts)

    def test_mixed_shapes_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        first, second = tmp_path / "a.eegt", tmp_path / "b.eegt"
        data.write_trial_file(first, small_trialset(rng, n_subjects=1, c=4, t=100))
        data.write_trial_file(second, small_trialset(rng, n_subjects=1, c=4, t=90))
        mixed = tmp_path / "mixed.eegt"
        mixed.write_bytes(first.read_bytes() + second.read_bytes()[5:])
        with pytest.raises(DataError, match="mixed.eegt: inconsistent trial shapes"):
            data.read_trial_file(mixed)

    @pytest.mark.parametrize("message", list(CORRUPTIONS))
    def test_malformed_file_names_itself(self, tmp_path, message):
        path = tmp_path / "bad.eegt"
        data.write_trial_file(path, small_trialset(np.random.default_rng(11),
                                                   n_subjects=1))
        path.write_bytes(CORRUPTIONS[message](path.read_bytes()))
        with pytest.raises(DataError, match=f"bad.eegt: .*{message}"):
            data.read_trial_file(path)

    def test_unknown_subject_filter_rejected(self, tmp_path):
        ts = small_trialset(np.random.default_rng(7))
        manifest_path = data.save_dataset(tmp_path, ts)
        with pytest.raises(DataError):
            data.load_trials(manifest_path, subjects=[99])

    def test_file_shape_must_match_manifest(self, tmp_path):
        rng = np.random.default_rng(13)
        manifest_path = data.save_dataset(tmp_path, small_trialset(rng, c=4))
        victim = tmp_path / "subject_002.eegt"
        data.write_trial_file(victim, small_trialset(rng, c=3).for_subject(2))
        redeclare_size(manifest_path, 2)
        with pytest.raises(DataError, match="subject_002.eegt: trials of shape"):
            data.load_trials(manifest_path)

    def test_subject_tags_must_match_manifest(self, tmp_path):
        ts = small_trialset(np.random.default_rng(14))
        manifest_path = data.save_dataset(tmp_path, ts)
        data.write_trial_file(tmp_path / "subject_002.eegt", ts.for_subject(1))
        with pytest.raises(DataError, match="subject_002.eegt: subject tag 1"):
            data.load_trials(manifest_path)

    def test_old_openbmi_flag_still_loads(self, tmp_path):
        ts = small_trialset(np.random.default_rng(8))
        manifest_path = data.save_dataset(tmp_path, ts)
        text = manifest_path.read_text()
        assert "openbmi" not in text
        manifest_path.write_text(text.replace("non_separable:",
                                              "openbmi: true\nnon_separable:"))
        data.load_manifest(manifest_path)
        np.testing.assert_array_equal(data.load_trials(manifest_path).trials,
                                      ts.trials)


class TestPreprocess:
    def test_paper_dimensions(self):
        rng = np.random.default_rng(8)
        ts = data.TrialSet(rng.normal(size=(2, 62, 4000)).astype(np.float32),
                           np.array([0, 1], dtype=np.uint8), np.array([1, 1]),
                           np.array([1, 1], dtype=np.uint8),
                           np.array([0, 1], dtype=np.uint8), 1000.0)
        out = data.preprocess(ts)
        assert out.trials.shape == (2, 62, 250)
        assert out.sample_rate_hz == 100.0

    def test_mains_tone_suppressed(self):
        t = np.arange(4000) / 1000
        tone = np.sin(2 * np.pi * 50 * t).astype(np.float32)
        ts = data.TrialSet(np.stack([np.tile(tone, (4, 1)), np.tile(tone, (4, 1))]),
                           np.array([0, 1], dtype=np.uint8), np.array([1, 1]),
                           np.array([1, 1], dtype=np.uint8),
                           np.array([0, 1], dtype=np.uint8), 1000.0)
        out = data.preprocess(ts)
        in_power = float(np.mean(np.asarray(ts.trials, dtype=np.float64) ** 2))
        out_power = float(np.mean(out.trials ** 2))
        assert out_power < 0.01 * in_power

    def test_idempotent_on_passband_content(self):
        t = np.arange(4000) / 1000
        tone = np.sin(2 * np.pi * 15 * t).astype(np.float32)
        ts = data.TrialSet(np.tile(tone, (1, 2, 1)), np.array([0], dtype=np.uint8),
                           np.array([1]), np.array([1], dtype=np.uint8),
                           np.array([0], dtype=np.uint8), 1000.0)
        once = data.preprocess(ts)
        cascade = dsp.design_bandpass(8, 30, 5, 100)
        # oracle: |H(15)| ~ 1, so a second pass barely changes the RMS
        steady = once.trials[..., 100:]
        again = dsp.filter_forward(cascade, np.asarray(once.trials, dtype=np.float64))
        rms_once = np.sqrt(np.mean(steady ** 2))
        rms_again = np.sqrt(np.mean(again[..., 100:] ** 2))
        assert abs(rms_again - rms_once) / rms_once < 0.01
        assert abs(sos_magnitude(cascade.sections, 15, 100)[0] - 1.0) < 0.01


class TestSynthesize:
    def test_seed_reproducibility(self):
        a = data.synthesize(data.SynthConfig(seed=7))
        b = data.synthesize(data.SynthConfig(seed=7))
        assert np.array_equal(a.trials, b.trials)
        assert np.array_equal(a.labels, b.labels)

    def test_default_structure(self):
        ts = data.synthesize(data.SynthConfig())
        assert len(ts) == 4 * 80
        assert ts.trials.shape[1:] == (16, 4000)
        for sid in ts.subjects():
            sub = ts.for_subject(sid)
            for session in (1, 2):
                for phase in (data.PHASE_OFFLINE, data.PHASE_ONLINE):
                    block = sub.select((sub.sessions == session) & (sub.phases == phase))
                    assert len(block) == 20

    def test_default_config_baseline_separability(self):
        proc = data.preprocess(data.synthesize(data.SynthConfig()))
        for sid in proc.subjects():
            train, test = data.split_sd(proc.for_subject(sid))
            assert baseline_csp_lda_accuracy(train, test) >= 0.85

    def test_erd_one_is_chance_level(self):
        cfg = data.SynthConfig(erd=1.0, trials_per_class=100, n_subjects=2, seed=11)
        proc = data.preprocess(data.synthesize(cfg))
        accs = []
        for sid in proc.subjects():
            train, test = data.split_sd(proc.for_subject(sid))
            accs.append(baseline_csp_lda_accuracy(train, test))
        assert abs(np.mean(accs) - 0.5) <= 0.1

    def test_source_mu_power_ratio_matches_erd(self):
        cfg = data.SynthConfig()
        rng = np.random.default_rng(0)
        freqs = np.fft.rfftfreq(cfg.n_timepoints, 1.0 / cfg.sample_rate_hz)
        band = (freqs >= 8) & (freqs <= 12)

        def mu_power(label):
            total = 0.0
            for _ in range(150):
                s = data.synth_sources(rng, cfg, label, cfg.erd)
                total += (np.abs(np.fft.rfft(s[0])) ** 2)[band].sum()
            return total / 150

        ratio = mu_power(0) / mu_power(1)
        assert abs(ratio - cfg.erd) / cfg.erd < 0.05

    def test_invalid_snr_rejected(self):
        with pytest.raises(DataError):
            data.synthesize(data.SynthConfig(snr=0.0))

    @pytest.mark.parametrize("overrides, message", [
        (dict(erd=-1.0), "ERD"), (dict(erd=np.nan), "ERD"), (dict(snr=np.nan), "SNR"),
        (dict(n_subjects=0), "subject"), (dict(trials_per_class=0), "trial")])
    def test_invalid_settings_rejected(self, overrides, message):
        with pytest.raises(DataError, match=message):
            data.synthesize(data.SynthConfig(**overrides))


class TestSplits:
    def test_sd_split_sizes_openbmi_shape(self):
        ts = small_trialset(np.random.default_rng(9), n_subjects=1, trials_per_block=100)
        train, test = data.split_sd(ts)
        assert len(train) == 300
        assert len(test) == 100
        assert np.all(test.sessions == 2)
        assert np.all(test.phases == data.PHASE_ONLINE)

    def test_sd_split_disjoint(self):
        ts = small_trialset(np.random.default_rng(10), n_subjects=1, trials_per_block=3)
        train, test = data.split_sd(ts)
        assert len(train) + len(test) == len(ts)
        train_sum = train.trials.sum(axis=(1, 2))
        test_sum = test.trials.sum(axis=(1, 2))
        assert not set(np.round(train_sum, 6)) & set(np.round(test_sum, 6))

    def test_sd_missing_block_rejected(self):
        ts = small_trialset(np.random.default_rng(11), n_subjects=1)
        kept = ts.select(~((ts.sessions == 2) & (ts.phases == data.PHASE_OFFLINE)))
        with pytest.raises(DataError, match="S2-offline"):
            data.split_sd(kept)

    def test_loso_counts_openbmi_scale(self):
        # 54 subjects x 100 trials per (session, phase) block -> 53*200 train
        rng = np.random.default_rng(12)
        n_subj, per_block = 6, 10
        ts = small_trialset(rng, n_subjects=n_subj, trials_per_block=per_block)
        train, test = (ts.select(i) for i in data.loso_fold(ts, 3, "offline"))
        assert len(train) == (n_subj - 1) * 2 * per_block
        assert len(test) == per_block

    def test_loso_excludes_test_subject(self):
        ts = small_trialset(np.random.default_rng(13), n_subjects=3, trials_per_block=5)
        train, test = (ts.select(i) for i in data.loso_fold(ts, 2, "online"))
        assert 2 not in np.unique(train.subject_ids)
        assert set(np.unique(test.subject_ids)) == {2}

    def test_loso_small_arithmetic(self):
        # 3 subjects x 20 trials per phase -> train is 2 x 40 for one phase... per spec
        ts = small_trialset(np.random.default_rng(14), n_subjects=3, trials_per_block=10)
        train, _ = data.loso_fold(ts, 1, "offline")
        assert len(train) == 2 * 2 * 10

    def test_loso_unknown_subject(self):
        ts = small_trialset(np.random.default_rng(15))
        with pytest.raises(DataError):
            data.loso_fold(ts, 42, "offline")

    def test_loso_subject_without_test_block_rejected(self):
        ts = small_trialset(np.random.default_rng(16), n_subjects=3)
        kept = ts.select(~((ts.subject_ids == 2) & (ts.sessions == 2)
                           & (ts.phases == data.PHASE_ONLINE)))
        with pytest.raises(DataError, match="subject 2 has no S2-online"):
            data.loso_fold(kept, 2, "offline")

    @pytest.mark.parametrize("phase", ["offline", "online"])
    def test_loso_without_train_phase_trials_rejected(self, phase):
        ts = small_trialset(np.random.default_rng(16), n_subjects=2)
        # subject 2 keeps one block of the other phase only: subject 1's
        # fold has nothing to train on
        other = data.PHASE_ONLINE if phase == "offline" else data.PHASE_OFFLINE
        kept = ts.select((ts.subject_ids == 1) | ((ts.sessions == 2) & (ts.phases == other)))
        with pytest.raises(DataError, match=f"subject 1's fold has no {phase} trials"):
            data.loso_fold(kept, 1, phase)

    @pytest.mark.parametrize("fold", [
        lambda ts: data.sd_fold(ts, 2),
        lambda ts: data.loso_fold(ts, 2, "offline"),
        lambda ts: data.loso_fold(ts, 3, "online"),
    ], ids=["sd", "loso-offline", "loso-online"])
    def test_fold_indices_in_canonical_order(self, fold):
        ts = small_trialset(np.random.default_rng(17), n_subjects=3, trials_per_block=4)
        shuffled = ts.select(np.random.default_rng(18).permutation(len(ts)))
        for idx in fold(shuffled):
            keys = list(zip(shuffled.subject_ids[idx].tolist(),
                            shuffled.sessions[idx].tolist(),
                            shuffled.phases[idx].tolist()))
            assert keys == sorted(keys)
            # file order within a block: indices rise while the key holds
            for a, b, ka, kb in zip(idx, idx[1:], keys, keys[1:]):
                assert ka != kb or a < b


class TestPhaseCode:
    @pytest.mark.parametrize("phase, code", [
        ("offline", data.PHASE_OFFLINE), ("online", data.PHASE_ONLINE),
        (0, data.PHASE_OFFLINE), (np.uint8(1), data.PHASE_ONLINE)])
    def test_names_and_codes(self, phase, code):
        assert data.phase_code(phase) == code

    def test_load_trials_unknown_phase_rejected(self, tmp_path):
        manifest = data.save_dataset(tmp_path, small_trialset(np.random.default_rng(19)))
        with pytest.raises(DataError, match="unknown phase 'bogus'"):
            data.load_trials(manifest, phases=["bogus"])
