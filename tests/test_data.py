import gc
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps

from ccspnet import autodiff as ad
from ccspnet import csp, data, dsp, lda
from ccspnet.errors import DataError, NumericalError

from oracles import preprocess_sosfilt, sos_magnitude


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
    branch = csp.fit_branch(*csp.class_covariances(x_train, train.labels))
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
# points, label (byte 8), subject, session (byte 11), phase (byte 12)
CORRUPTIONS = {
    "bad magic": lambda b: b"XXXX" + b[4:],
    "version missing": lambda b: b[:4],
    "version 2": lambda b: b[:4] + b"\x02" + b[5:],
    "no trial records": lambda b: b[:5],
    "truncated record header": lambda b: b[:5 + 12],
    "truncated samples": lambda b: b[:5 + 13 + 20],
    "truncated record at": lambda b: b[:-7],
    "label 7 not in": lambda b: b[:5 + 8] + b"\x07" + b[5 + 9:],
    "unknown session tag 7": lambda b: b[:5 + 11] + b"\x07" + b[5 + 12:],
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

    def test_preprocessed_subject_does_not_pin_its_file_buffer(self, tmp_path):
        ts = small_trialset(np.random.default_rng(2), n_subjects=1, t=350, fs=100.0)
        manifest_path = data.save_dataset(tmp_path, ts)
        raw = data.load_subject(manifest_path, data.load_manifest(manifest_path), 1)
        buffer = raw.trials
        while buffer.base is not None:
            buffer = buffer.base
        file_buffer = weakref.ref(buffer)
        del buffer
        proc = data.preprocess(raw)
        del raw
        gc.collect()
        assert file_buffer() is None
        assert np.array_equal(proc.labels, ts.labels)
        assert np.array_equal(proc.sessions, ts.sessions)
        assert np.array_equal(proc.phases, ts.phases)

    def test_manifest_counts(self, tmp_path):
        ts = small_trialset(np.random.default_rng(1), n_subjects=2, trials_per_block=1)
        manifest_path = data.save_dataset(tmp_path, ts)
        loaded = data.load_trials(manifest_path)
        assert len(loaded) == 8

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

    @pytest.mark.parametrize("tag, value, message", [
        ("sessions", 7, "subject_001.eegt: unknown session tag 7"),
        ("phases", 5, "subject_001.eegt: unknown phase tag 5")])
    def test_writer_rejects_the_tags_its_reader_rejects(self, tmp_path, tag, value,
                                                        message):
        ts = small_trialset(np.random.default_rng(13), n_subjects=1)
        getattr(ts, tag)[:3] = value
        with pytest.raises(DataError, match=message):
            data.save_dataset(tmp_path, ts)
        assert not list(tmp_path.glob("*.eegt"))

    @pytest.mark.parametrize("rate", [200.5, 0.0])
    def test_writer_rejects_the_rate_its_reader_rejects(self, tmp_path, rate):
        ts = small_trialset(np.random.default_rng(13), n_subjects=1, fs=rate)
        with pytest.raises(DataError, match="manifest.txt: sample_rate_hz must be a "
                                            "positive whole number of Hz"):
            data.save_dataset(tmp_path, ts)
        assert not list(tmp_path.iterdir())

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

    def test_file_shape_must_match_manifest(self, tmp_path):
        rng = np.random.default_rng(13)
        manifest_path = data.save_dataset(tmp_path, small_trialset(rng, c=4))
        victim = tmp_path / "subject_002.eegt"
        data.write_trial_file(victim, small_trialset(rng, c=3).for_subject(2))
        redeclare_size(manifest_path, 2)
        with pytest.raises(DataError, match="subject_002.eegt: trials of shape"):
            data.load_trials(manifest_path)

    def test_subject_not_in_manifest_is_data_error(self, tmp_path):
        manifest_path = data.save_dataset(tmp_path, small_trialset(np.random.default_rng(14)))
        manifest = data.load_manifest(manifest_path)
        with pytest.raises(DataError, match="^subject 9 not in dataset$"):
            data.load_subject(manifest_path, manifest, 9)

    def test_subject_tags_must_match_manifest(self, tmp_path):
        ts = small_trialset(np.random.default_rng(14))
        manifest_path = data.save_dataset(tmp_path, ts)
        data.write_trial_file(tmp_path / "subject_002.eegt", ts.for_subject(1))
        with pytest.raises(DataError, match="subject_002.eegt: subject tag 1"):
            data.load_trials(manifest_path)

    @pytest.mark.parametrize("rate", ["1000.5", "nan", "inf", "0", "-1000"])
    def test_bad_manifest_rate_names_manifest(self, tmp_path, rate):
        ts = small_trialset(np.random.default_rng(0))
        path = data.save_dataset(tmp_path, ts)
        path.write_text(path.read_text().replace("sample_rate_hz: 1000",
                                                 f"sample_rate_hz: {rate}"))
        with pytest.raises(DataError, match="manifest.txt: sample_rate_hz"):
            data.load_manifest(path)

    def test_line_without_colon_names_manifest_line(self, tmp_path):
        path = data.save_dataset(tmp_path, small_trialset(np.random.default_rng(0)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["  # comment", "", "n_channels 4"]
                                   + lines[2:]) + "\n")
        with pytest.raises(DataError) as info:
            data.load_manifest(path)
        assert str(info.value) == "manifest.txt:5: expected 'key: value'"

    @pytest.mark.parametrize("repeat, message", [
        ("sample_rate_hz: 500", "repeated key 'sample_rate_hz'"),
        ("subject 2: file=other.eegt trials=8 bytes=1", "repeated key 'subject 2'"),
        ("subject 02: file=other.eegt trials=8 bytes=1", "repeated subject 2")],
        ids=["rate", "subject", "subject-respelled"])
    def test_repeated_key_names_manifest_line(self, tmp_path, repeat, message):
        path = data.save_dataset(tmp_path, small_trialset(np.random.default_rng(0)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [repeat]) + "\n")
        with pytest.raises(DataError) as info:
            data.load_manifest(path)
        assert str(info.value) == f"manifest.txt:{len(lines) + 1}: {message}"

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


class TestTextWriters:
    def test_write_csv_ends_each_row_with_crlf_in_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        data.write_csv(path, ("name", "value"), [["µV", 1.5], ["a,b", 2]])
        assert path.read_bytes() == 'name,value\r\nµV,1.5\r\n"a,b",2\r\n'.encode("utf-8")

    def test_write_text_keeps_lf_in_utf8(self, tmp_path):
        path = tmp_path / "t.txt"
        data.write_text(path, "α: 1\nβ: 2\n")
        assert path.read_bytes() == "α: 1\nβ: 2\n".encode("utf-8")
        assert data.read_text(path, DataError) == "α: 1\nβ: 2\n"

    def test_text_files_are_written_only_by_the_two_writers(self):
        # one writer of text files: no other module opens one for writing or
        # makes a csv writer
        package = Path(data.__file__).parent
        hits = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines()
                if re.search(r'open\([^)]*"[wax]\+?"|(?<!data)\.write_text\(|csv\.\w*[Ww]riter',
                             line)]
        assert hits == [("data.py", 'with open(path, "w", encoding="utf-8", newline="") as fh:'),
                        ("data.py", "csv.writer(text).writerows([header, *rows])")]


class TestKeyValueLines:
    def test_pairs_are_stripped_and_numbered(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("# head\n\n  a :  1 \nurl: http://x:80\n\tempty:\n")
        text = data.read_text(path, DataError)
        assert list(data.key_value_lines(text, path.name, DataError, ":")) == [
            (3, "a", "1"), (4, "url", "http://x:80"), (5, "empty", "")]

    @pytest.mark.parametrize("error", [DataError, NumericalError])
    def test_line_without_colon_raises_the_callers_error(self, tmp_path, error):
        path = tmp_path / "kv.txt"
        path.write_text("a: 1\nno colon\n")
        with pytest.raises(error, match="^kv.txt:2: expected 'key: value'$"):
            list(data.key_value_lines(data.read_text(path, error), path.name, error, ":"))

    @pytest.mark.parametrize("error", [DataError, NumericalError])
    def test_repeated_key_raises_the_callers_error(self, tmp_path, error):
        path = tmp_path / "kv.txt"
        path.write_text("a: 1\nb: 2\n a : 3\n")
        with pytest.raises(error, match="^kv.txt:3: repeated key 'a'$"):
            list(data.key_value_lines(data.read_text(path, error), path.name, error, ":"))

    def test_settings_text_is_split_only_by_the_one_reader(self):
        # one reader of key-value settings text (manifest, --config, the
        # .ccsp config header): no other code splits text into lines or
        # partitions a line
        package = Path(data.__file__).parent
        hits = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
                for line in path.read_text(encoding="utf-8").splitlines()
                if re.search(r'\.(splitlines|r?partition)\(|\.split\("\\n"', line)]
        assert hits == [("data.py", "for lineno, line in enumerate(text.splitlines(), start=1):"),
                        ("data.py", "key, _, value = line.partition(sep)")]


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
        # oracle: |H(15)| ~ 1, so a second pass of the band-pass over the
        # 100 Hz output barely changes the RMS
        steady = once.trials[..., 100:]
        again = sps.sosfilt(dsp.design_bandpass(), once.trials)
        rms_once = np.sqrt(np.mean(steady ** 2))
        rms_again = np.sqrt(np.mean(again[..., 100:] ** 2))
        assert abs(rms_again - rms_once) / rms_once < 0.01
        assert abs(sos_magnitude(dsp.design_bandpass(), 15, 100)[0] - 1.0) < 0.01


def raw_trials(rng, n=3, c=5, t=4000, fs=1000.0, offset=0.0, dtype=np.float32):
    x = (offset + rng.normal(size=(n, c, t))).astype(dtype)
    ones = np.ones(n, dtype=np.uint8)
    return data.TrialSet(x, np.arange(n, dtype=np.uint8) % 2, np.ones(n, dtype=int),
                         ones, 0 * ones, fs)


class TestPreprocessOperator:
    """`preprocess` as one cached matrix against the stage-by-stage sosfilt path."""

    @pytest.mark.parametrize("fs, t, offset, dtype", [
        (1000.0, 4000, 0.0, np.float32),    # 1 kHz -> 100 Hz
        (200.0, 700, 0.0, np.float32),      # factor 2, as paper-train
        (100.0, 400, 0.0, np.float32),      # factor 1: no anti-alias stage
        (500.0, 1750, 0.0, np.float32),     # factor 5, no sample to spare
        (1000.0, 4000, 1e3, np.float64),    # large offset against the spread
        (200.0, 700, 0.0, np.float64),
    ])
    def test_matches_sosfilt_path(self, fs, t, offset, dtype):
        raw = raw_trials(np.random.default_rng(1), t=t, fs=fs, offset=offset, dtype=dtype)
        out = data.preprocess(raw)
        expected = preprocess_sosfilt(raw)
        assert out.trials.shape == expected.shape == (3, 5, 250)
        scale = np.abs(raw.trials).max()
        assert np.abs(out.trials - expected).max() <= 1e-10 * scale

    def test_batch_rows_bit_identical_to_single_trials(self):
        raw = raw_trials(np.random.default_rng(2), n=4)
        batch = data.preprocess(raw).trials
        for i in range(len(raw)):
            one = data.preprocess(raw.select(np.array([i]))).trials[0]
            assert np.array_equal(one, batch[i])

    def test_nan_in_used_sample_names_trial_and_sample(self):
        raw = raw_trials(np.random.default_rng(3))
        raw.trials[1, 2, 1500] = np.nan
        with pytest.raises(NumericalError, match="trial 1: .*channel 2, sample 1500"):
            data.preprocess(raw)

    @pytest.mark.parametrize("sample", [3495, 3999, 10])
    def test_nan_in_unused_sample_matches_oracle(self, sample):
        # 3495 is inside the window but after the last sample that reaches an
        # output; 3999 and 10 are outside the window
        raw = raw_trials(np.random.default_rng(4))
        raw.trials[0, 1, sample] = np.nan
        out = data.preprocess(raw).trials
        assert np.isfinite(out).all()
        assert np.abs(out - preprocess_sosfilt(raw)).max() <= 1e-10 * np.nanmax(
            np.abs(raw.trials))

    @pytest.mark.parametrize("fs, t, message", [
        (1000.0, 3000, "window (1000, 3500) ms exceeds trial length 3000 samples"),
        (100.0, 349, "window (1000, 3500) ms exceeds trial length 349 samples"),
        (250.0, 1000, "250 Hz not divisible by target 100 Hz"),
    ])
    def test_bad_window_or_rate_is_data_error(self, fs, t, message):
        raw = raw_trials(np.random.default_rng(6), t=t, fs=fs)
        with pytest.raises(DataError, match=re.escape(message)):
            data.preprocess(raw)

    def test_no_channels_is_data_error(self):
        with pytest.raises(DataError, match="no channels"):
            data.preprocess(raw_trials(np.random.default_rng(6), c=0))

    def test_operator_is_read_only_and_built_once_per_key(self):
        raw = raw_trials(np.random.default_rng(7))
        dsp.preprocess_operator.cache_clear()
        data.preprocess(raw)
        data.preprocess(raw.select(np.array([0])))
        info = dsp.preprocess_operator.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        start, stop, op = dsp.preprocess_operator(1000, 4000)
        assert (start, stop, op.shape) == (1000, 3491, (2491, 250))
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        data.preprocess(raw_trials(np.random.default_rng(7), t=3600))
        assert dsp.preprocess_operator.cache_info().misses == 2

    @pytest.mark.parametrize("rate", [1000.5, np.nan, np.inf, 0.0, -1000.0])
    def test_non_integral_rate_is_data_error(self, rate):
        raw = raw_trials(np.random.default_rng(8), fs=rate)
        with pytest.raises(DataError, match="positive whole number"):
            data.preprocess(raw)


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
            train, test = (proc.select(i) for i in data.sd_fold(proc, sid))
            assert baseline_csp_lda_accuracy(train, test) >= 0.85

    def test_erd_one_is_chance_level(self):
        cfg = data.SynthConfig(erd=1.0, trials_per_class=100, n_subjects=2, seed=11)
        proc = data.preprocess(data.synthesize(cfg))
        accs = []
        for sid in proc.subjects():
            train, test = (proc.select(i) for i in data.sd_fold(proc, sid))
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
        (dict(n_subjects=0), "subject"), (dict(trials_per_class=0), "trial"),
        (dict(seed=-1), "seed"),
        (dict(sample_rate_hz=0), "sample_rate_hz must be a positive whole number"),
        (dict(sample_rate_hz=-100), "sample_rate_hz must be a positive whole number"),
        (dict(sample_rate_hz=200.5), "sample_rate_hz must be a positive whole number"),
        (dict(n_timepoints=0), "at least 2 time points"),
        (dict(n_timepoints=1), "at least 2 time points")])
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
