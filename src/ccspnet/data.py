"""Trial storage, pre-processing orchestration, split protocols, and the
synthetic ERD/ERS generator used for desk-scale verification.

Trial files are flat little-endian binaries (magic "EEGT"): per-trial header
(channels u32, timepoints u32, label u8, subject u16, session u8, phase u8)
followed by float32 samples channel-major. A structured-text manifest indexes
the per-subject files. Text files are UTF-8: `read_text` is their one reader
and `write_text` their one writer; `key_value_lines` reads settings text (the
manifest, `--config` files and the config header of a .ccsp file).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dsp
from .errors import DataError, check_finite_trials, check_labels

TRIAL_MAGIC = b"EEGT"
TRIAL_FORMAT_VERSION = 1
_PREAMBLE = len(TRIAL_MAGIC) + 1         # magic, then the version byte
_TAG_FIELDS = (("n_channels", "<u4"), ("n_timepoints", "<u4"), ("label", "u1"),
               ("subject", "<u2"), ("session", "u1"), ("phase", "u1"))
_TAG_BYTES = np.dtype(list(_TAG_FIELDS)).itemsize

PHASE_OFFLINE = 0
PHASE_ONLINE = 1
PHASE_NAMES = {PHASE_OFFLINE: "offline", PHASE_ONLINE: "online"}
PHASE_CODES = {v: k for k, v in PHASE_NAMES.items()}


def phase_code(phase) -> int:
    """The code of a phase given by name ("offline"/"online") or by code."""
    code = PHASE_CODES.get(phase, phase)
    if code not in PHASE_NAMES:
        raise DataError(f"unknown phase {phase!r}; choose one of {sorted(PHASE_CODES)}")
    return int(code)


@dataclass
class TrialSet:
    """A batch of EEG trials with labels and per-trial provenance tags."""

    trials: np.ndarray        # N x C x T float32 on disk, float64 in compute
    labels: np.ndarray        # N, values in {0, 1}
    subject_ids: np.ndarray   # N
    sessions: np.ndarray      # N, values in {1, 2}
    phases: np.ndarray        # N, PHASE_OFFLINE / PHASE_ONLINE
    sample_rate_hz: float

    def __post_init__(self):
        n = len(self.trials)
        self.labels = check_labels(self.labels, n)
        for name in ("subject_ids", "sessions", "phases"):
            if len(getattr(self, name)) != n:
                raise DataError(f"{name} length does not match trial count {n}")

    def __len__(self):
        return len(self.trials)

    @property
    def n_channels(self):
        return self.trials.shape[1]

    @property
    def n_timepoints(self):
        return self.trials.shape[2]

    def subjects(self):
        return sorted(int(s) for s in np.unique(self.subject_ids))

    def select(self, mask) -> "TrialSet":
        return TrialSet(self.trials[mask], self.labels[mask],
                        self.subject_ids[mask], self.sessions[mask],
                        self.phases[mask], self.sample_rate_hz)

    def for_subject(self, subject_id) -> "TrialSet":
        return self.select(self.subject_ids == subject_id)


@dataclass
class DatasetManifest:
    sample_rate_hz: float
    n_channels: int
    n_timepoints: int
    channel_names: list[str]
    subjects: dict[int, tuple[str, int, int]]   # id -> (file, n_trials, n_bytes)
    non_separable: bool = False


def _record_dtype(n_channels, n_timepoints) -> np.dtype:
    """One EEGT record: the header fields, then the samples channel-major."""
    return np.dtype([*_TAG_FIELDS, ("samples", "<f4", (n_channels, n_timepoints))])


def _check_tags(path, records):
    """Raise a DataError naming file `path` at the first label, session or
    phase tag of EEGT `records` that the format does not allow."""
    for tag, allowed, message in (("label", (0, 1), "label {} not in {{0, 1}}"),
                                  ("session", (1, 2), "unknown session tag {}"),
                                  ("phase", list(PHASE_NAMES), "unknown phase tag {}")):
        bad = np.setdiff1d(records[tag], allowed)
        if bad.size:
            raise DataError(f"{Path(path).name}: " + message.format(bad[0]))


def write_trial_file(path, trialset: TrialSet):
    """Write one EEGT binary file holding all trials in `trialset`."""
    n, c, t = trialset.trials.shape
    records = np.zeros(n, _record_dtype(c, t))
    tags = {"n_channels": c, "n_timepoints": t, "label": trialset.labels,
            "subject": trialset.subject_ids, "session": trialset.sessions,
            "phase": trialset.phases}
    for name, values in tags.items():
        records[name] = values
        if np.any(records[name] != values):
            raise DataError(f"{Path(path).name}: {name} values do not fit the "
                            f"record field {records.dtype[name]}")
    _check_tags(path, records)
    records["samples"] = trialset.trials
    with open(path, "wb") as fh:
        fh.write(TRIAL_MAGIC + bytes([TRIAL_FORMAT_VERSION]))
        records.tofile(fh)


def read_trial_file(path):
    """Read one EEGT file into parallel arrays: the samples a view of one
    buffer of the file's bytes, the label, session and phase tags copies that
    do not keep it alive, and the subject tags widened to int."""
    path = Path(path)
    # numpy, unlike bytes, asks for huge pages on a large buffer, so a fresh
    # one takes far fewer page faults than one per 4 KiB page
    raw = np.fromfile(path, dtype=np.uint8)
    if raw[:4].tobytes() != TRIAL_MAGIC:
        raise DataError(f"{path.name}: bad magic, not an EEGT trial file")
    version = int(raw[4]) if len(raw) > 4 else "missing"
    if version != TRIAL_FORMAT_VERSION:
        raise DataError(f"{path.name}: unsupported trial format version {version}")
    size = len(raw) - _PREAMBLE
    if size == 0:
        raise DataError(f"{path.name}: no trial records")
    if size < _TAG_BYTES:
        raise DataError(f"{path.name}: truncated record header at byte {_PREAMBLE}")
    c, t = (int(v) for v in np.frombuffer(raw, "<u4", count=2, offset=_PREAMBLE))
    if _TAG_BYTES + 4 * c * t > size:
        raise DataError(f"{path.name}: truncated samples at byte "
                        f"{_PREAMBLE + _TAG_BYTES}")
    dtype = _record_dtype(c, t)
    count, rest = divmod(size, dtype.itemsize)
    records = np.frombuffer(raw, dtype, count=count, offset=_PREAMBLE)
    shapes = set(zip(records["n_channels"].tolist(), records["n_timepoints"].tolist()))
    end = _PREAMBLE + count * dtype.itemsize
    if rest >= 8:
        # the record after the last whole one starts with its own shape
        shapes.add(tuple(np.frombuffer(raw, "<u4", count=2, offset=end).tolist()))
    if len(shapes) != 1:
        raise DataError(f"{path.name}: inconsistent trial shapes {shapes}")
    if rest:
        raise DataError(f"{path.name}: truncated record at byte {end}")
    _check_tags(path, records)
    return (records["samples"], records["label"].copy(), records["subject"].astype(np.int_),
            records["session"].copy(), records["phase"].copy())


def write_manifest(path, manifest: DatasetManifest):
    lines = [
        "format: eegt-manifest",
        "version: 1",
        f"sample_rate_hz: {manifest.sample_rate_hz:g}",
        f"n_channels: {manifest.n_channels}",
        f"n_timepoints: {manifest.n_timepoints}",
        f"channel_names: {','.join(manifest.channel_names)}",
        f"non_separable: {str(manifest.non_separable).lower()}",
    ]
    for sid in sorted(manifest.subjects):
        fname, n_trials, n_bytes = manifest.subjects[sid]
        lines.append(f"subject {sid}: file={fname} trials={n_trials} bytes={n_bytes}")
    write_text(path, "\n".join(lines) + "\n")


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of file `path`; bytes that do not decode raise `error`."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}") from None


def write_text(path, text: str) -> None:
    """Write `text` to file `path` as UTF-8, its line ends as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write `header`, then each of `rows`, as CSV lines ended by CRLF."""
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    write_text(path, text.getvalue())


def key_value_lines(text: str, name: str, error: type[Exception], sep: str):
    """(lineno, key, value) for each `key<sep>value` line of settings text, both
    stripped: the manifest and `--config` use ":", a .ccsp config header "=".
    Blank and `#` lines are skipped; any other line without `sep`, or with a
    key an earlier line has, raises `error` naming `name` and the line."""
    form = "key: value" if sep == ":" else f"key{sep}value"
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if sep not in line:
            raise error(f"{name}:{lineno}: expected {form!r}")
        key, _, value = line.partition(sep)
        key = key.strip()
        if key in seen:
            raise error(f"{name}:{lineno}: repeated key {key!r}")
        seen.add(key)
        yield lineno, key, value.strip()


def check_sample_rate(rate, where: str) -> int:
    """`rate` in whole Hz, or a DataError naming `where` if it is not a positive
    whole number of Hz: the rate rule of the manifest reader and writer,
    `preprocess` and `synthesize`."""
    rate = float(rate)
    if not (rate > 0 and rate.is_integer()):
        raise DataError(f"{where}: sample_rate_hz must be a positive whole number "
                        f"of Hz, got {rate:g}")
    return int(rate)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    # keys this reader does not use, such as the "openbmi" flag older
    # manifests carry, are read and ignored
    fields = {}
    subjects = {}
    text = read_text(path, DataError)
    for lineno, key, value in key_value_lines(text, path.name, DataError, ":"):
        if key.startswith("subject "):
            try:
                sid = int(key.split()[1])
                if sid in subjects:   # "subject 02" after "subject 2"
                    raise DataError(f"{path.name}:{lineno}: repeated subject {sid}")
                kv = dict(item.split("=", 1) for item in value.split())
                subjects[sid] = (kv["file"], int(kv["trials"]), int(kv["bytes"]))
            except (ValueError, KeyError, IndexError) as exc:
                raise DataError(f"{path.name}:{lineno}: bad subject entry ({exc})")
        else:
            fields[key] = value
    if fields.get("format") != "eegt-manifest":
        raise DataError(f"{path.name}: missing or wrong 'format' header")
    if not subjects:
        raise DataError(f"{path.name}: manifest lists no subjects")
    try:
        manifest = DatasetManifest(
            sample_rate_hz=float(fields["sample_rate_hz"]),
            n_channels=int(fields["n_channels"]),
            n_timepoints=int(fields["n_timepoints"]),
            channel_names=fields["channel_names"].split(","),
            subjects=subjects,
            non_separable=fields.get("non_separable", "false") == "true",
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path.name}: invalid manifest field ({exc})")
    check_sample_rate(manifest.sample_rate_hz, path.name)
    if len(manifest.channel_names) != manifest.n_channels:
        raise DataError(f"{path.name}: channel name count != n_channels")
    return manifest


def save_dataset(out_dir, trialset: TrialSet, non_separable=False) -> Path:
    """Write one trial file per subject plus the manifest; returns manifest path.
    A rate the manifest reader rejects is a DataError before any file is written."""
    check_sample_rate(trialset.sample_rate_hz, "manifest.txt")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects = {}
    for sid in trialset.subjects():
        subset = trialset.for_subject(sid)
        fname = f"subject_{sid:03d}.eegt"
        write_trial_file(out_dir / fname, subset)
        subjects[sid] = (fname, len(subset), (out_dir / fname).stat().st_size)
    manifest = DatasetManifest(
        sample_rate_hz=trialset.sample_rate_hz,
        n_channels=trialset.n_channels,
        n_timepoints=trialset.n_timepoints,
        channel_names=[f"ch{i + 1:02d}" for i in range(trialset.n_channels)],
        subjects=subjects,
        non_separable=non_separable,
    )
    manifest_path = out_dir / "manifest.txt"
    write_manifest(manifest_path, manifest)
    return manifest_path


def load_subject(manifest_path, manifest: DatasetManifest, sid: int) -> TrialSet:
    """Subject `sid`'s trials: its file beside `manifest_path`, checked against
    its entry in `manifest`; a file that cannot be read raises its OSError."""
    if sid not in manifest.subjects:
        raise DataError(f"subject {sid} not in dataset")
    fname, n_trials, n_bytes = manifest.subjects[sid]
    fpath = Path(manifest_path).parent / fname
    actual = fpath.stat().st_size
    if actual != n_bytes:
        raise DataError(f"{fname}: size {actual} != declared {n_bytes}")
    trials, labels, sids, sess, phs = read_trial_file(fpath)
    if len(trials) != n_trials:
        raise DataError(f"{fname}: {len(trials)} trials != declared {n_trials}")
    declared = (manifest.n_channels, manifest.n_timepoints)
    if trials.shape[1:] != declared:
        raise DataError(f"{fname}: trials of shape {trials.shape[1:]} != "
                        f"declared {declared}")
    if np.any(sids != sid):
        raise DataError(f"{fname}: subject tag {sids[sids != sid][0]} != "
                        f"declared subject {sid}")
    return TrialSet(trials, labels, sids, sess, phs, manifest.sample_rate_hz)


def load_trials(manifest_path) -> TrialSet:
    """Load every trial a manifest indexes, one subject at a time
    (`load_subject`); a file that cannot be read, the manifest included,
    raises its OSError."""
    manifest = load_manifest(manifest_path)
    parts = [load_subject(manifest_path, manifest, sid) for sid in sorted(manifest.subjects)]
    columns = ("trials", "labels", "subject_ids", "sessions", "phases")
    return TrialSet(*(np.concatenate([getattr(p, c) for p in parts]) for c in columns),
                    manifest.sample_rate_hz)


def preprocess(raw: TrialSet) -> TrialSet:
    """The paper's preprocessing: trim to the 1000-3500 ms window, anti-alias
    low-pass, decimate to 100 Hz, then the causal 8-30 Hz Butterworth band-pass.

    The four stages are one cached matrix per input rate and trial length
    (`dsp.preprocess_operator`), applied to each trial's used samples. A rate
    that is not a positive multiple of 100 Hz, trials shorter than the window
    or trials without channels are a `DataError`.
    """
    rate = check_sample_rate(raw.sample_rate_hz, "trial set")
    start, stop, op = dsp.preprocess_operator(rate, raw.n_timepoints)
    if raw.n_channels == 0:
        raise DataError(f"trials of shape {raw.trials.shape} have no channels")
    check_finite_trials(raw.trials[:, :, start:stop], first_sample=start)
    window = np.empty((raw.n_channels, stop - start))
    out = np.empty((len(raw), raw.n_channels, op.shape[1]))
    for i, trial in enumerate(raw.trials):
        window[...] = trial[:, start:stop]
        np.matmul(window, op, out=out[i])
    return replace(raw, trials=out, sample_rate_hz=float(dsp.TARGET_HZ))


@dataclass
class SynthConfig:
    """Synthetic ERD/ERS generator settings."""

    n_subjects: int = 4
    trials_per_class: int = 40   # per subject, spread over 4 (session, phase) blocks
    n_channels: int = 16
    snr: float = 4.0
    erd: float = 0.5             # class-conditional mu-power ratio at the source
    seed: int = 0
    sample_rate_hz: int = 1000
    n_timepoints: int = 4000


_MU_HZ = 10.0                 # the mu rhythm, on source 0
_BETA_HZ = 20.0               # the beta rhythm, on source 1
_MU_AMPLITUDE = 2.0
_BETA_AMPLITUDE = 1.5
_BACKGROUND_SCALE = 0.4       # of the unit-variance pink noise under every source
_SUBJECT_VARIABILITY = 0.1    # a subject's spread of mixing matrix and ERD ratio


def _pink_noise(rng, shape, fs):
    """1/f-shaped background noise along the last axis."""
    n = shape[-1]
    white = rng.normal(size=shape)
    spectrum = np.fft.rfft(white, axis=-1)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    shaping = np.ones_like(freqs)
    shaping[1:] = 1.0 / np.sqrt(freqs[1:])
    shaping[0] = 0.0
    pink = np.fft.irfft(spectrum * shaping, n=n, axis=-1)
    return pink / pink.std(axis=-1, keepdims=True)


def _mixing_matrix(rng, base):
    perturbed = base + _SUBJECT_VARIABILITY * rng.normal(size=base.shape)
    q, _ = np.linalg.qr(perturbed)
    scales = rng.uniform(0.8, 1.25, size=base.shape[0])
    return q * scales


def synth_sources(rng, config: SynthConfig, label: int, erd: float):
    """Source-space signals for one trial: pink background plus two rhythms.

    Source 0 carries the mu rhythm, source 1 the beta rhythm. Class 0
    attenuates mu power by `erd` (with beta untouched); class 1 mirrors this
    onto the beta source.
    """
    c, n = config.n_channels, config.n_timepoints
    t = np.arange(n) / config.sample_rate_hz
    sources = _BACKGROUND_SCALE * _pink_noise(rng, (c, n), config.sample_rate_hz)
    mu_scale = np.sqrt(erd) if label == 0 else 1.0
    beta_scale = np.sqrt(erd) if label == 1 else 1.0
    sources[0] += mu_scale * _MU_AMPLITUDE * np.sin(
        2 * np.pi * _MU_HZ * t + rng.uniform(0, 2 * np.pi))
    sources[1] += beta_scale * _BETA_AMPLITUDE * np.sin(
        2 * np.pi * _BETA_HZ * t + rng.uniform(0, 2 * np.pi))
    return sources


def synthesize(config: SynthConfig) -> TrialSet:
    """Seeded generative model: mixed oscillatory sources plus sensor noise.

    Trials per subject are spread evenly over the four (session, phase)
    blocks so the SD/LOSO split protocols apply unchanged.
    """
    if not config.snr > 0:
        raise DataError(f"SNR must be positive, got {config.snr}")
    if not config.erd >= 0:
        raise DataError(f"ERD ratio must be >= 0, got {config.erd}")
    if config.n_channels < 4:
        raise DataError("generator needs at least 4 channels")
    if config.n_subjects < 1 or config.trials_per_class < 1:
        raise DataError("generator needs at least one subject and one trial "
                        "per class")
    if config.seed < 0:
        raise DataError(f"seed must be >= 0, got {config.seed}")
    check_sample_rate(config.sample_rate_hz, "generator")
    if config.n_timepoints < 2:
        raise DataError(f"generator needs at least 2 time points, got {config.n_timepoints}")
    rng = np.random.default_rng(config.seed)
    base_mixing = rng.normal(size=(config.n_channels, config.n_channels))

    blocks = [(1, PHASE_OFFLINE), (1, PHASE_ONLINE), (2, PHASE_OFFLINE), (2, PHASE_ONLINE)]
    trials, labels, sids, sessions, phases = [], [], [], [], []
    for sid in range(1, config.n_subjects + 1):
        mixing = _mixing_matrix(rng, base_mixing)
        if config.erd >= 1.0:
            erd = 1.0  # no modulation: classes identical in distribution
        else:
            erd = config.erd * float(
                np.clip(1.0 + _SUBJECT_VARIABILITY * rng.uniform(-1, 1), 0.05, None))
            erd = min(erd, 1.0)
        # fill blocks in turn, alternating labels within each block with a
        # per-block offset so every block holds both classes and the subject
        # stays class-balanced overall
        n_total = 2 * config.trials_per_class
        for b_idx, (session, phase) in enumerate(blocks):
            for t in range(n_total // 4 + (b_idx < n_total % 4)):
                label = (t + b_idx) % 2
                sources = synth_sources(rng, config, label, erd)
                observed = mixing @ sources
                noise_std = np.sqrt(np.mean(observed ** 2) / config.snr)
                observed = observed + noise_std * rng.normal(size=observed.shape)
                trials.append(observed.astype(np.float32))
                labels.append(label)
                sids.append(sid)
                sessions.append(session)
                phases.append(phase)
    return TrialSet(np.stack(trials), np.asarray(labels, dtype=np.uint8),
                    np.asarray(sids), np.asarray(sessions, dtype=np.uint8),
                    np.asarray(phases, dtype=np.uint8),
                    float(config.sample_rate_hz))


def _canonical(trials: TrialSet, mask) -> np.ndarray:
    """Indices of the masked trials sorted by (subject, session, phase), in
    file order within a block, so the order of blocks cannot change a fold."""
    idx = np.flatnonzero(mask)
    return idx[np.lexsort((trials.phases[idx], trials.sessions[idx],
                           trials.subject_ids[idx]))]


def _s2_online(trials: TrialSet) -> np.ndarray:
    return (trials.sessions == 2) & (trials.phases == PHASE_ONLINE)


def sd_fold(trials: TrialSet, subject: int) -> tuple[np.ndarray, np.ndarray]:
    """Subject-dependent fold as (train, test) indices into `trials`: train
    on the subject's S1 (both phases) + S2 offline, test on its S2 online."""
    own = trials.subject_ids == subject
    present = set(zip(trials.sessions[own].tolist(), trials.phases[own].tolist()))
    missing = {(s, p) for s in (1, 2) for p in PHASE_NAMES} - present
    if missing:
        names = sorted(f"S{s}-{PHASE_NAMES[p]}" for s, p in missing)
        raise DataError(f"subject {subject} missing blocks: {names}")
    test = own & _s2_online(trials)
    return _canonical(trials, own & ~test), np.flatnonzero(test)


def split_sd(subject_set: TrialSet) -> tuple[TrialSet, TrialSet]:
    """`sd_fold` of a set holding one subject, as (train, test) sets."""
    if len(np.unique(subject_set.subject_ids)) != 1:
        raise DataError("split_sd expects trials of a single subject")
    train, test = sd_fold(subject_set, subject_set.subject_ids[0])
    return subject_set.select(train), subject_set.select(test)


def loso_fold(trials: TrialSet, subject: int,
              train_phase) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-subject-out fold as (train, test) indices into `trials`: train
    on `train_phase` of all other subjects, test on `subject`'s S2 online block."""
    code = phase_code(train_phase)
    own = trials.subject_ids == subject
    test = np.flatnonzero(own & _s2_online(trials))
    if not test.size:
        raise DataError(f"subject {subject} has no S2-online trials to test on")
    if len(trials.subjects()) < 2:
        raise DataError("LOSO needs at least two subjects")
    train = _canonical(trials, ~own & (trials.phases == code))
    if not train.size:
        raise DataError(f"subject {subject}'s fold has no {PHASE_NAMES[code]} "
                        "trials of other subjects to train on")
    return train, test
