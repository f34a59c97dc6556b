"""Recording -> training-example pipeline: staging, resampling, normalization,
artifact rejection, epoch segmentation, subject splits, and the on-disk
epoch cache.

A dataset is one ``EpochSet`` of arrays. The epoch cache stores those
arrays as they are (all little-endian), magic ``PSGEPO02`` followed by:

    u32  epoch count N
    u16  channel count C (channel 0 is the input channel)
    u16  subject count S
    u32  name table byte length T
    N x C x 3000 f32   normalized samples
    N x C x 2    f32   normalization (mean, std), physical units
    N u32  epoch index within its recording
    N u16  subject, an index into the subject ids
    N u8   stage code (0=Wake 1=N1 2=N2 3=N3 4=REM)
    T      name table: C channel names, then S subject ids, each as
           u16 UTF-8 byte length + the bytes
    u32  CRC32 of every byte after the magic and before the CRC
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .edf_io import Annotation, EdfRecording

EPOCH_S = 30
TARGET_RATE_HZ = 100.0
EPOCH_SAMPLES = 3000
SIGMA_FLOOR = 1e-6

CACHE_MAGIC = b"PSGEPO02"
_CACHE_COUNTS = struct.Struct("<IHHI")  # N, C, S, T of the module docstring


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


class CorruptCache(PipelineError):
    """An epoch cache that is truncated, damaged or not a cache at all."""


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
        return "Wake" if self is SleepStage.WAKE else self.name


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
            # the f32 norm column stores the floor rounded down to 9.99999997e-07
            if std < float(np.float32(SIGMA_FLOOR)):
                raise ValueError(f"norm std for {name!r} below {SIGMA_FLOOR}")

    @property
    def target_channels(self) -> tuple[str, ...]:
        return tuple(self.targets.keys())


@dataclass(eq=False)
class EpochSet:
    """N 30-s examples as arrays over one channel list; channel 0 is the input.

    ``subject`` indexes ``subjects`` and ``norm[i, c]`` holds the (mean, std)
    that normalized ``signals[i, c]``. An int index gives an EpochRecord
    view of one epoch; a slice, index array or mask gives an EpochSet.
    """

    channels: tuple[str, ...]
    subjects: tuple[str, ...]
    subject: np.ndarray      # (N,) u16
    epoch_index: np.ndarray  # (N,) u32
    stage: np.ndarray        # (N,) u8 SleepStage codes
    norm: np.ndarray         # (N, C, 2) f32
    signals: np.ndarray      # (N, C, EPOCH_SAMPLES) f32

    def __post_init__(self):
        self.channels = tuple(self.channels)
        self.subjects = tuple(self.subjects)
        n, c = len(self.stage), len(self.channels)
        if c == 0:
            raise ValueError("epoch set has no channels")
        if len(set(self.channels)) != c:
            raise ValueError(f"channel names repeat: {self.channels}")
        for name, dtype, shape in (("subject", np.uint16, (n,)),
                                   ("epoch_index", np.uint32, (n,)),
                                   ("stage", np.uint8, (n,)),
                                   ("norm", np.float32, (n, c, 2)),
                                   ("signals", np.float32, (n, c, EPOCH_SAMPLES))):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            setattr(self, name, arr)
        if n and self.stage.max() >= len(STAGES):
            raise ValueError(f"stage code {self.stage.max()} out of range")
        if n and self.subject.max() >= len(self.subjects):
            raise ValueError(f"subject index {self.subject.max()} out of range "
                             f"for {len(self.subjects)} subjects")

    @property
    def input_channel(self) -> str:
        return self.channels[0]

    @property
    def target_channels(self) -> tuple[str, ...]:
        return self.channels[1:]

    def target_indices(self, names) -> list[int]:
        """Channel-axis positions of the named target channels."""
        missing = [name for name in names if name not in self.target_channels]
        if missing:
            raise MissingChannel(f"epochs lack target channels {missing} "
                                 f"(have {list(self.target_channels)})")
        return [self.channels.index(name) for name in names]

    def __len__(self) -> int:
        return len(self.stage)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            signals = self.signals[i]
            return EpochRecord(
                subject_id=self.subjects[self.subject[i]],
                epoch_index=int(self.epoch_index[i]),
                stage=SleepStage(int(self.stage[i])),
                input_channel=self.channels[0],
                input_samples=signals[0],
                targets=dict(zip(self.channels[1:], signals[1:])),
                norm_params={name: (mean, std) for name, (mean, std)
                             in zip(self.channels, self.norm[i].tolist())},
            )
        return EpochSet(self.channels, self.subjects, self.subject[key],
                        self.epoch_index[key], self.stage[key], self.norm[key],
                        self.signals[key])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @classmethod
    def concat(cls, parts: list[EpochSet]) -> EpochSet:
        """Join sets over the same channels, in order, merging subject ids."""
        channels = parts[0].channels
        if any(part.channels != channels for part in parts):
            raise ValueError("epoch sets disagree on their channels")
        subjects = tuple(dict.fromkeys(s for part in parts for s in part.subjects))
        position = {s: i for i, s in enumerate(subjects)}
        subject = [np.array([position[s] for s in part.subjects], dtype=np.uint16)[part.subject]
                   for part in parts]
        return cls(channels, subjects, np.concatenate(subject), *(
            np.concatenate([getattr(part, name) for part in parts])
            for name in ("epoch_index", "stage", "norm", "signals")))


def as_epoch_set(epochs) -> EpochSet:
    """An EpochSet as is, or a non-empty sequence of EpochRecords over one
    channel list stacked into one."""
    if isinstance(epochs, EpochSet):
        return epochs
    channels = (epochs[0].input_channel, *epochs[0].targets)
    if any((r.input_channel, *r.targets) != channels for r in epochs):
        raise ValueError("epoch records disagree on their channels")
    subjects = tuple(dict.fromkeys(r.subject_id for r in epochs))
    return EpochSet(
        channels, subjects,
        subject=[subjects.index(r.subject_id) for r in epochs],
        epoch_index=[r.epoch_index for r in epochs],
        stage=[r.stage.code for r in epochs],
        norm=[[r.norm_params[name] for name in channels] for r in epochs],
        signals=[[r.input_samples, *r.targets.values()] for r in epochs],
    )


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
) -> EpochSet:
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

    resampled = [resample_linear(recording.samples[i], recording.sample_rate(i), TARGET_RATE_HZ)
                 for i in map(recording.signal_index, names)]

    n_available = min(len(arr) for arr in resampled) // EPOCH_SAMPLES
    n_epochs = min(int(recording.duration_s() // EPOCH_S), n_available)
    stages = _stage_per_epoch(annotations, n_epochs)
    if not any(s is not None for s in stages):
        raise NoLabeledEpochs("no epoch carries a usable sleep stage label")

    sleep_idx = [e for e, s in enumerate(stages) if s not in (None, SleepStage.WAKE)]
    if sleep_idx:
        lo, hi = sleep_idx[0] - wake_trim_epochs, sleep_idx[-1] + wake_trim_epochs
    else:
        lo, hi = 0, n_epochs - 1  # all-wake recording: nothing to anchor a trim

    def windows(e: int) -> list[np.ndarray]:
        return [arr[e * EPOCH_SAMPLES: (e + 1) * EPOCH_SAMPLES] for arr in resampled]

    kept = [e for e, stage in enumerate(stages)
            if stage is not None and (stage is not SleepStage.WAKE or lo <= e <= hi)
            and not any(reject_artifact(arr, channel_kind(name), thresholds)
                        for name, arr in zip(names, windows(e)))]
    signals = np.empty((len(kept), len(names), EPOCH_SAMPLES), dtype=np.float32)
    norm = np.empty((len(kept), len(names), 2), dtype=np.float32)
    for row, e in enumerate(kept):
        for c, arr in enumerate(windows(e)):
            normalized, mean, std = normalize_epoch(arr)
            signals[row, c] = normalized
            norm[row, c] = mean, std
    subject = subject_id if subject_id is not None else recording.patient_id
    return EpochSet(names, (subject,), np.zeros(len(kept)), kept,
                    [stages[e].code for e in kept], norm, signals)


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


def stage_histogram(epochs: EpochSet) -> dict[str, int]:
    counts = np.bincount(epochs.stage, minlength=len(STAGES))
    return {stage.display: int(count) for stage, count in zip(STAGES, counts)}


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
    by_remainder = sorted(range(3), key=lambda i: (counts[i] - raw[i], i))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    order = [ids[i] for i in rng.permutation(n)]
    names = [name for name, count in zip(("train", "val", "test"), counts) for _ in range(count)]
    return DatasetManifest(subjects=list(manifest.subjects), splits=dict(zip(order, names)),
                           seed=seed)


def save_manifest(path: Path | str, manifest: DatasetManifest) -> None:
    payload = {
        "seed": manifest.seed,
        "subjects": [asdict(entry) for entry in manifest.subjects],
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


# cache arrays in file order; after the 20-byte header each f32 and u32
# array starts 4-byte aligned
_CACHE_ARRAYS = (("signals", "<f4"), ("norm", "<f4"), ("epoch_index", "<u4"),
                 ("subject", "<u2"), ("stage", "u1"))


def write_epoch_cache(path: Path | str, epochs: EpochSet) -> None:
    """Write the binary cache (see module docstring) one array at a time,
    without assembling the file in memory."""
    table = b"".join(struct.pack("<H", len(raw)) + raw for raw in
                     (name.encode("utf-8") for name in epochs.channels + epochs.subjects))
    counts = _CACHE_COUNTS.pack(len(epochs), len(epochs.channels), len(epochs.subjects),
                                len(table))
    arrays = [np.ascontiguousarray(getattr(epochs, name), dtype=dtype)
              for name, dtype in _CACHE_ARRAYS]
    crc = 0
    with open(path, "wb") as handle:
        handle.write(CACHE_MAGIC)
        for chunk in [counts, *arrays, table]:
            handle.write(chunk)
            crc = zlib.crc32(chunk, crc)
        handle.write(struct.pack("<I", crc))


def read_epoch_cache(path: Path | str) -> EpochSet:
    """Read a cache written by write_epoch_cache. The set's arrays are
    read-only views of the file's bytes; anything that is not an intact
    PSGEPO02 cache raises CorruptCache."""
    data = Path(path).read_bytes()
    if data[:8] != CACHE_MAGIC:
        hint = "; re-run preprocess to rebuild it" if data[:8] == b"PSGEPO01" else ""
        raise CorruptCache(f"bad epoch cache magic {data[:8]!r}{hint}")
    offset = len(CACHE_MAGIC) + _CACHE_COUNTS.size
    if len(data) < offset:
        raise CorruptCache("truncated epoch cache header")
    n, c, s, table_len = _CACHE_COUNTS.unpack_from(data, len(CACHE_MAGIC))
    if c == 0:
        raise CorruptCache("epoch cache has no channels")
    layout = []
    for name, dtype in _CACHE_ARRAYS:
        shape = {"signals": (n, c, EPOCH_SAMPLES), "norm": (n, c, 2)}.get(name, (n,))
        layout.append((name, dtype, shape, offset))
        offset += np.dtype(dtype).itemsize * int(np.prod(shape))
    if len(data) != offset + table_len + 4:
        raise CorruptCache(f"epoch cache has {len(data)} bytes where its header promises "
                           f"{offset + table_len + 4} (truncated or trailing bytes)")
    if zlib.crc32(memoryview(data)[len(CACHE_MAGIC):-4]) != int.from_bytes(data[-4:], "little"):
        raise CorruptCache("epoch cache checksum mismatch")
    try:
        names, pos = [], offset
        for _ in range(c + s):
            size = int.from_bytes(data[pos: pos + 2], "little")
            names.append(data[pos + 2: pos + 2 + size].decode("utf-8"))
            pos += 2 + size
        if pos != offset + table_len:
            raise ValueError("name table length disagrees with its names")
        return EpochSet(names[:c], names[c:], **{
            name: np.frombuffer(data, dtype, int(np.prod(shape)), start).reshape(shape)
            for name, dtype, shape, start in layout})
    except ValueError as exc:  # UnicodeDecodeError included
        raise CorruptCache(f"malformed epoch cache: {exc}") from exc
