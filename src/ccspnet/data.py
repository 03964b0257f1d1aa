"""Trial storage, pre-processing orchestration, split protocols, and the
synthetic ERD/ERS generator used for desk-scale verification.

Trial files are flat little-endian binaries (magic "EEGT"): per-trial header
(channels u32, timepoints u32, label u8, subject u16, session u8, phase u8)
followed by float32 samples channel-major. A structured-text manifest indexes
the per-subject files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dsp
from .errors import DataError

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
        for name in ("labels", "subject_ids", "sessions", "phases"):
            if len(getattr(self, name)) != n:
                raise DataError(f"{name} length does not match trial count {n}")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be binary")

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
    records["samples"] = trialset.trials
    with open(path, "wb") as fh:
        fh.write(TRIAL_MAGIC + bytes([TRIAL_FORMAT_VERSION]))
        records.tofile(fh)


def read_trial_file(path):
    """Read one EEGT file into parallel arrays."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != TRIAL_MAGIC:
        raise DataError(f"{path.name}: bad magic, not an EEGT trial file")
    version = raw[4] if len(raw) > 4 else "missing"
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
    bad_labels = np.setdiff1d(records["label"], (0, 1))
    if bad_labels.size:
        raise DataError(f"{path.name}: label {bad_labels[0]} not in {{0, 1}}")
    bad_phases = np.setdiff1d(records["phase"], list(PHASE_NAMES))
    if bad_phases.size:
        raise DataError(f"{path.name}: unknown phase tag {bad_phases[0]}")
    return (records["samples"].copy(), records["label"].copy(),
            records["subject"].astype(np.int_), records["session"].copy(),
            records["phase"].copy())


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
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    # keys this reader does not use, such as the "openbmi" flag older
    # manifests carry, are read and ignored
    fields = {}
    subjects = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DataError(f"{path.name}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key.startswith("subject "):
            try:
                sid = int(key.split()[1])
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
    if len(manifest.channel_names) != manifest.n_channels:
        raise DataError(f"{path.name}: channel name count != n_channels")
    return manifest


def save_dataset(out_dir, trialset: TrialSet, non_separable=False) -> Path:
    """Write one trial file per subject plus the manifest; returns manifest path."""
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


def load_trials(manifest_path, subjects=None, sessions=None,
                phases=None) -> TrialSet:
    """Load trials indexed by a manifest, with optional tag filters.

    `phases` accepts phase names ("offline"/"online") or codes.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    if phases is not None:
        phases = [phase_code(p) for p in phases]
    wanted = set(manifest.subjects) if subjects is None else set(subjects)
    unknown = wanted - set(manifest.subjects)
    if unknown:
        raise DataError(f"subjects {sorted(unknown)} not in manifest")

    parts = []
    for sid in sorted(wanted):
        fname, n_trials, n_bytes = manifest.subjects[sid]
        fpath = base / fname
        if not fpath.exists():
            raise DataError(f"referenced file missing: {fname}")
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
        parts.append((trials, labels, sids, sess, phs))

    trialset = TrialSet(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        np.concatenate([p[3] for p in parts]),
        np.concatenate([p[4] for p in parts]),
        manifest.sample_rate_hz,
    )
    mask = np.ones(len(trialset), dtype=bool)
    if sessions is not None:
        mask &= np.isin(trialset.sessions, list(sessions))
    if phases is not None:
        mask &= np.isin(trialset.phases, phases)
    return trialset.select(mask)


def preprocess(raw: TrialSet, window_ms=(1000, 3500), target_hz=100,
               band=(8.0, 30.0), order=5) -> TrialSet:
    """Trim, anti-aliased down-sample, then causal Butterworth band-pass."""
    fs_in = int(raw.sample_rate_hz)
    cascade = dsp.design_bandpass(band[0], band[1], order, target_hz)
    out = []
    for trial in raw.trials:
        low = dsp.trim_and_downsample(np.asarray(trial, dtype=np.float64),
                                      window_ms, target_hz, fs=fs_in)
        out.append(dsp.filter_forward(cascade, low))
    return replace(raw, trials=np.stack(out), sample_rate_hz=float(target_hz))


@dataclass
class SynthConfig:
    """Synthetic ERD/ERS generator settings."""

    n_subjects: int = 4
    trials_per_class: int = 40   # per subject, spread over 4 (session, phase) blocks
    n_channels: int = 16
    snr: float = 4.0
    erd: float = 0.5             # class-conditional mu-power ratio at the source
    subject_variability: float = 0.1
    seed: int = 0
    sample_rate_hz: int = 1000
    n_timepoints: int = 4000
    mu_hz: float = 10.0
    beta_hz: float = 20.0
    mu_amplitude: float = 2.0
    beta_amplitude: float = 1.5
    background_scale: float = 0.4


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


def _mixing_matrix(rng, base, variability):
    perturbed = base + variability * rng.normal(size=base.shape)
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
    sources = config.background_scale * _pink_noise(rng, (c, n), config.sample_rate_hz)
    mu_scale = np.sqrt(erd) if label == 0 else 1.0
    beta_scale = np.sqrt(erd) if label == 1 else 1.0
    sources[0] += mu_scale * config.mu_amplitude * np.sin(
        2 * np.pi * config.mu_hz * t + rng.uniform(0, 2 * np.pi))
    sources[1] += beta_scale * config.beta_amplitude * np.sin(
        2 * np.pi * config.beta_hz * t + rng.uniform(0, 2 * np.pi))
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
    rng = np.random.default_rng(config.seed)
    base_mixing = rng.normal(size=(config.n_channels, config.n_channels))

    blocks = [(1, PHASE_OFFLINE), (1, PHASE_ONLINE), (2, PHASE_OFFLINE), (2, PHASE_ONLINE)]
    trials, labels, sids, sessions, phases = [], [], [], [], []
    for sid in range(1, config.n_subjects + 1):
        mixing = _mixing_matrix(rng, base_mixing, config.subject_variability)
        if config.erd >= 1.0:
            erd = 1.0  # no modulation: classes identical in distribution
        else:
            erd = config.erd * float(
                np.clip(1.0 + config.subject_variability * rng.uniform(-1, 1), 0.05, None))
            erd = min(erd, 1.0)
        # fill blocks in turn, alternating labels within each block with a
        # per-block offset so every block holds both classes and the subject
        # stays class-balanced overall
        n_total = 2 * config.trials_per_class
        counts = [n_total // 4 + (1 if r < n_total % 4 else 0) for r in range(4)]
        order, class_seq = [], []
        for b_idx, (block, n_b) in enumerate(zip(blocks, counts)):
            for t in range(n_b):
                order.append(block)
                class_seq.append((t + b_idx) % 2)
        for block, label in zip(order, class_seq):
            sources = synth_sources(rng, config, int(label), erd)
            observed = mixing @ sources
            noise_std = np.sqrt(np.mean(observed ** 2) / config.snr)
            observed = observed + noise_std * rng.normal(size=observed.shape)
            trials.append(observed.astype(np.float32))
            labels.append(int(label))
            sids.append(sid)
            sessions.append(block[0])
            phases.append(block[1])
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
