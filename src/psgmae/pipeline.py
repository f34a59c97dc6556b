"""Recording -> training-example pipeline: staging, resampling, normalization,
artifact rejection, epoch segmentation, subject splits, and the on-disk
epoch cache.

Epoch cache layout (all little-endian), magic ``PSGEPO01`` followed by one
record per epoch:

    u16  subject id byte length, then the UTF-8 bytes
    u32  epoch index within its recording
    u8   stage code (0=Wake 1=N1 2=N2 3=N3 4=REM)
    u8   channel count C (channel 0 is the input channel)
    C x (u16 name byte length, UTF-8 name)
    C x (f32 mean, f32 std)            # normalization params, physical units
    C x  3000 f32                      # normalized samples
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .edf_io import Annotation, EdfRecording

EPOCH_S = 30
TARGET_RATE_HZ = 100.0
EPOCH_SAMPLES = 3000
SIGMA_FLOOR = 1e-6

CACHE_MAGIC = b"PSGEPO01"


class PipelineError(Exception):
    """Base class for preprocessing failures."""


class MissingChannel(PipelineError):
    pass


class NoLabeledEpochs(PipelineError):
    pass


class TooFewSubjects(PipelineError):
    pass


class EmptyInput(PipelineError):
    pass


class SleepStage(enum.Enum):
    WAKE = 0
    N1 = 1
    N2 = 2
    N3 = 3
    REM = 4

    @property
    def code(self) -> int:
        return self.value

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_DISPLAY = {
    SleepStage.WAKE: "Wake",
    SleepStage.N1: "N1",
    SleepStage.N2: "N2",
    SleepStage.N3: "N3",
    SleepStage.REM: "REM",
}

STAGES = tuple(SleepStage)

_LABELS = {
    "Sleep stage W": SleepStage.WAKE,
    "Sleep stage 1": SleepStage.N1,
    "Sleep stage 2": SleepStage.N2,
    "Sleep stage 3": SleepStage.N3,  # R&K stages 3 and 4 merge into N3
    "Sleep stage 4": SleepStage.N3,
    "Sleep stage R": SleepStage.REM,
}


def map_stage_label(label: str) -> SleepStage | None:
    """Map a hypnogram label to a stage; None means excluded from training."""
    return _LABELS.get(label)


def resample_linear(samples: np.ndarray, from_hz: float, to_hz: float) -> np.ndarray:
    """Linear-interpolation resample; queries past the end hold the last value."""
    if from_hz <= 0 or to_hz <= 0:
        raise ValueError("sample rates must be positive")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise EmptyInput("cannot resample an empty array")
    if from_hz == to_hz:
        return samples.copy()
    out_len = int(round(len(samples) * to_hz / from_hz))
    t_out = np.arange(out_len, dtype=np.float64) / to_hz
    t_in = np.arange(len(samples), dtype=np.float64) / from_hz
    return np.interp(t_out, t_in, samples)


def normalize_epoch(samples: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Z-score one epoch; std is floored at SIGMA_FLOOR so the map inverts."""
    samples = np.asarray(samples, dtype=np.float64)
    mean = float(samples.mean())
    std = float(samples.std())
    if std < SIGMA_FLOOR:
        std = SIGMA_FLOOR
    return (samples - mean) / std, mean, std


def denormalize(normalized: np.ndarray, mean: float, std: float) -> np.ndarray:
    return np.asarray(normalized, dtype=np.float64) * std + mean


def channel_kind(name: str) -> str:
    lowered = name.lower()
    if "emg" in lowered:
        return "emg"
    if "eog" in lowered:
        return "eog"
    return "eeg"


@dataclass
class ArtifactThresholds:
    """Peak-to-peak and flatline limits, in physical units (uV)."""

    peak_to_peak: dict[str, float] = field(
        default_factory=lambda: {"eeg": 500.0, "eog": 500.0, "emg": 5000.0}
    )
    flatline_std: float = 0.1

    def limit_for(self, kind: str) -> float:
        return self.peak_to_peak.get(kind, self.peak_to_peak["eeg"])


DEFAULT_THRESHOLDS = ArtifactThresholds()


def reject_artifact(
    samples: np.ndarray,
    kind: str = "eeg",
    thresholds: ArtifactThresholds = DEFAULT_THRESHOLDS,
) -> bool:
    """True when the epoch should be dropped (amplitude artifact or flatline)."""
    samples = np.asarray(samples, dtype=np.float64)
    peak_to_peak = float(samples.max() - samples.min())
    if peak_to_peak > thresholds.limit_for(kind):
        return True
    return float(samples.std()) < thresholds.flatline_std


@dataclass
class EpochRecord:
    """One 30-s training example with normalized input and target channels."""

    subject_id: str
    epoch_index: int
    stage: SleepStage
    input_channel: str
    input_samples: np.ndarray
    targets: dict[str, np.ndarray]
    norm_params: dict[str, tuple[float, float]]

    def __post_init__(self):
        if len(self.input_samples) != EPOCH_SAMPLES:
            raise ValueError(f"input has {len(self.input_samples)} samples, "
                             f"expected {EPOCH_SAMPLES}")
        for name, arr in self.targets.items():
            if len(arr) != EPOCH_SAMPLES:
                raise ValueError(f"target {name!r} has {len(arr)} samples")
        if self.input_channel in self.targets:
            raise ValueError("input channel cannot be one of its own targets")
        for name, (_, std) in self.norm_params.items():
            if std < SIGMA_FLOOR:
                raise ValueError(f"norm std for {name!r} below {SIGMA_FLOOR}")

    @property
    def target_channels(self) -> tuple[str, ...]:
        return tuple(self.targets.keys())


def _stage_per_epoch(annotations: list[Annotation], n_epochs: int) -> list[SleepStage | None]:
    stages: list[SleepStage | None] = [None] * n_epochs
    for ann in sorted(annotations, key=lambda a: a.onset_s):
        if ann.duration_s <= 0:
            continue
        first = int(np.ceil(ann.onset_s / EPOCH_S - 1e-9))
        last = int(np.floor((ann.onset_s + ann.duration_s) / EPOCH_S + 1e-9))
        for e in range(max(first, 0), min(last, n_epochs)):
            stages[e] = map_stage_label(ann.label)
    return stages


def segment_epochs(
    recording: EdfRecording,
    annotations: list[Annotation],
    input_channel: str,
    target_channels: list[str],
    subject_id: str | None = None,
    thresholds: ArtifactThresholds = DEFAULT_THRESHOLDS,
    wake_trim_epochs: int = 60,
) -> list[EpochRecord]:
    """Cut a recording into labeled, artifact-free, normalized 30-s epochs.

    All involved channels are resampled to 100 Hz before slicing. Wake
    periods are trimmed to at most ``wake_trim_epochs`` epochs (30 min by
    default) before the first and after the last non-Wake epoch.
    """
    if input_channel in target_channels:
        raise ValueError("input channel cannot be one of its own targets")
    names = [input_channel] + list(target_channels)
    labels = {spec.label for spec in recording.signals}
    for name in names:
        if name not in labels:
            raise MissingChannel(f"channel {name!r} not in recording "
                                 f"(available: {sorted(labels)})")

    resampled = {}
    for name in names:
        idx = recording.signal_index(name)
        resampled[name] = resample_linear(
            recording.samples[idx], recording.sample_rate(idx), TARGET_RATE_HZ
        )

    n_available = min(len(arr) for arr in resampled.values()) // EPOCH_SAMPLES
    n_epochs = min(int(recording.duration_s() // EPOCH_S), n_available)
    stages = _stage_per_epoch(annotations, n_epochs)
    if not any(s is not None for s in stages):
        raise NoLabeledEpochs("no epoch carries a usable sleep stage label")

    sleep_idx = [e for e, s in enumerate(stages) if s not in (None, SleepStage.WAKE)]
    if sleep_idx:
        lo, hi = sleep_idx[0] - wake_trim_epochs, sleep_idx[-1] + wake_trim_epochs
    else:
        lo, hi = 0, n_epochs - 1  # all-wake recording: nothing to anchor a trim

    subject = subject_id if subject_id is not None else recording.patient_id
    records = []
    for e, stage in enumerate(stages):
        if stage is None:
            continue
        if stage is SleepStage.WAKE and not lo <= e <= hi:
            continue
        window = slice(e * EPOCH_SAMPLES, (e + 1) * EPOCH_SAMPLES)
        physical = {name: resampled[name][window] for name in names}
        if any(reject_artifact(arr, channel_kind(name), thresholds)
               for name, arr in physical.items()):
            continue
        normalized = {}
        norm_params = {}
        for name, arr in physical.items():
            norm, mean, std = normalize_epoch(arr)
            normalized[name] = norm.astype(np.float32)
            norm_params[name] = (mean, std)
        records.append(EpochRecord(
            subject_id=subject,
            epoch_index=e,
            stage=stage,
            input_channel=input_channel,
            input_samples=normalized[input_channel],
            targets={name: normalized[name] for name in target_channels},
            norm_params=norm_params,
        ))
    return records


@dataclass
class SubjectEntry:
    subject_id: str
    psg_path: str
    hypnogram_path: str
    stage_counts: dict[str, int]


@dataclass
class DatasetManifest:
    subjects: list[SubjectEntry]
    splits: dict[str, str] = field(default_factory=dict)
    seed: int = 0

    def subject_ids(self) -> list[str]:
        return [entry.subject_id for entry in self.subjects]

    def split_of(self, subject_id: str) -> str:
        return self.splits[subject_id]


def stage_histogram(records: list[EpochRecord]) -> dict[str, int]:
    counts = {stage.display: 0 for stage in STAGES}
    for record in records:
        counts[record.stage.display] += 1
    return counts


def split_subjects(
    manifest: DatasetManifest,
    seed: int,
    fractions: tuple[float, float, float],
) -> DatasetManifest:
    """Assign subjects to train/val/test by a seeded shuffle.

    Sizes use floor-then-distribute rounding: each split gets
    floor(n * fraction) subjects, then leftovers go to the splits with the
    largest fractional remainders (ties broken in train, val, test order).
    Identical seeds produce identical assignments.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    ids = sorted(manifest.subject_ids())
    if len(ids) < 3:
        raise TooFewSubjects(f"need at least 3 subjects, got {len(ids)}")

    n = len(ids)
    raw = [n * f for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    remainders = [r - c for r, c in zip(raw, counts)]
    for _ in range(n - sum(counts)):
        best = max(range(3), key=lambda i: (remainders[i], -i))
        counts[best] += 1
        remainders[best] = -1.0

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    order = [ids[i] for i in rng.permutation(n)]
    splits = {}
    cursor = 0
    for name, count in zip(("train", "val", "test"), counts):
        for subject_id in order[cursor: cursor + count]:
            splits[subject_id] = name
        cursor += count
    return DatasetManifest(subjects=list(manifest.subjects), splits=splits, seed=seed)


def save_manifest(path: Path | str, manifest: DatasetManifest) -> None:
    payload = {
        "seed": manifest.seed,
        "subjects": [
            {
                "subject_id": e.subject_id,
                "psg_path": e.psg_path,
                "hypnogram_path": e.hypnogram_path,
                "stage_counts": e.stage_counts,
            }
            for e in manifest.subjects
        ],
        "splits": manifest.splits,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_manifest(path: Path | str) -> DatasetManifest:
    payload = json.loads(Path(path).read_text())
    return DatasetManifest(
        subjects=[SubjectEntry(**entry) for entry in payload["subjects"]],
        splits=dict(payload["splits"]),
        seed=int(payload["seed"]),
    )


def write_epoch_cache(path: Path | str, records: list[EpochRecord]) -> None:
    """Serialize epochs to the binary cache format (see module docstring)."""
    out = bytearray(CACHE_MAGIC)
    for record in records:
        subject = record.subject_id.encode("utf-8")
        names = [record.input_channel] + list(record.targets.keys())
        out += struct.pack("<H", len(subject)) + subject
        out += struct.pack("<IBB", record.epoch_index, record.stage.code, len(names))
        for name in names:
            raw = name.encode("utf-8")
            out += struct.pack("<H", len(raw)) + raw
        for name in names:
            mean, std = record.norm_params[name]
            out += struct.pack("<ff", mean, std)
        arrays = [record.input_samples] + [record.targets[n] for n in record.targets]
        for arr in arrays:
            out += np.asarray(arr, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(out))


def read_epoch_cache(path: Path | str) -> list[EpochRecord]:
    data = Path(path).read_bytes()
    if data[:8] != CACHE_MAGIC:
        raise ValueError(f"bad epoch cache magic: {data[:8]!r}")
    pos = 8
    records = []

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise ValueError("truncated epoch cache")
        values = struct.unpack_from(fmt, data, pos)
        pos += size
        return values

    def take_text(size: int) -> str:
        nonlocal pos
        if pos + size > len(data):
            raise ValueError("truncated epoch cache")
        pos += size
        return data[pos - size: pos].decode("utf-8")

    while pos < len(data):
        subject = take_text(take("<H")[0])
        epoch_index, stage_code, n_channels = take("<IBB")
        if n_channels == 0:
            raise ValueError("epoch cache record has no channels")
        names = [take_text(take("<H")[0]) for _ in range(n_channels)]
        norm_params = {}
        for name in names:
            mean, std = take("<ff")
            norm_params[name] = (float(mean), float(std))
        arrays = []
        for _ in range(n_channels):
            nbytes = EPOCH_SAMPLES * 4
            if pos + nbytes > len(data):
                raise ValueError("truncated epoch cache")
            arrays.append(np.frombuffer(data, dtype="<f4", count=EPOCH_SAMPLES,
                                        offset=pos).copy())
            pos += nbytes
        records.append(EpochRecord(
            subject_id=subject,
            epoch_index=epoch_index,
            stage=SleepStage(stage_code),
            input_channel=names[0],
            input_samples=arrays[0],
            targets=dict(zip(names[1:], arrays[1:])),
            norm_params=norm_params,
        ))
    return records
