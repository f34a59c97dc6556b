"""Recording -> training-example pipeline: staging, resampling, normalization,
artifact rejection, epoch segmentation, subject splits, and the on-disk
epoch cache.

A dataset is one ``EpochSet`` of arrays. The epoch cache stores those
arrays as they are (all little-endian), magic ``PSGEPO03`` followed by:

    N x C x 3000 f32   normalized samples, one signal row per epoch
    u32  epoch count N (the footer starts here)
    u16  channel count C (channel 0 is the input channel)
    u16  subject count S
    u32  name table byte length T
    N x C x 2    f32   normalization (mean, std), physical units
    N u32  epoch index within its recording
    N u32  CRC32 of each signal row
    N u16  subject, an index into the subject ids
    N u8   stage code (0=Wake 1=N1 2=N2 3=N3 4=REM)
    T      name table: C channel names, then S subject ids, each as
           u16 UTF-8 byte length + the bytes (the footer ends here)
    u32  CRC32 of the footer
    u64  footer byte length

A reader checks the footer and each row it reads; damage to a row it does not read goes unreported.
Rows are checksummed in segment_stream's block lanes, and the writer takes a night's
blocks in order while later blocks are still being segmented; memory stays one night.
"""

from __future__ import annotations

import enum
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import numcore
from .edf_io import Annotation, EdfRecording, PhysicalSamples

EPOCH_S = 30
TARGET_RATE_HZ = 100.0
EPOCH_SAMPLES = 3000
SIGMA_FLOOR = 1e-6
# epochs per unit of segment_epochs' work: fixed, so no byte depends on the core count
SEGMENT_BLOCK = 64

CACHE_MAGIC = b"PSGEPO03"
_CACHE_COUNTS = struct.Struct("<IHHI")  # N, C, S, T of the module docstring
_CACHE_TRAILER = struct.Struct("<IQ")  # the footer's CRC32 and byte length


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


class MalformedManifest(PipelineError):
    """A manifest whose JSON is not the shape save_manifest writes."""


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


def _resampling(samples, from_hz: float, to_hz: float):
    """(samples, an array or a DigitalSignal, from_hz or None when the rates
    match, output length) of a linear resample, after its argument checks."""
    if from_hz <= 0 or to_hz <= 0:
        raise ValueError("sample rates must be positive")
    if len(samples) == 0:
        raise EmptyInput("cannot resample an empty array")
    if from_hz == to_hz:
        return samples, None, len(samples)
    return samples, from_hz, int(round(len(samples) * to_hz / from_hz))


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

    def read(self, rows) -> np.ndarray:
        """The signal rows ``rows`` (row indices) in a new array."""
        return self.signals[rows]

    @classmethod
    def concat(cls, parts: list[EpochSet]) -> EpochSet:
        """Join sets over the same channels, in order, merging subject ids."""
        channels, subjects, subject = _joined_subjects(parts)
        return cls(channels, subjects, np.concatenate(subject), *(
            np.concatenate([getattr(part, name) for part in parts])
            for name in ("epoch_index", "stage", "norm", "signals")))


def _joined_subjects(parts: list[EpochSet]):
    """(channels, subject ids, each part's subject column indexing those ids)
    of sets over the same channels joined in order; ids merge on first use."""
    if not parts:
        raise ValueError("no epoch sets to join")
    if any(part.channels != parts[0].channels for part in parts):
        raise ValueError("epoch sets disagree on their channels")
    subjects = tuple(dict.fromkeys(s for part in parts for s in part.subjects))
    position = {s: i for i, s in enumerate(subjects)}
    return parts[0].channels, subjects, [
        np.array([position[s] for s in part.subjects], dtype=np.uint16)[part.subject]
        for part in parts]


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


def _stage_codes(annotations: list[Annotation], n_epochs: int) -> np.ndarray:
    """Each epoch's stage code, or -1 where no annotation gives it a usable stage."""
    codes = np.full(n_epochs, -1, dtype=np.int8)
    for ann in sorted(annotations, key=lambda a: a.onset_s):
        if ann.duration_s > 0:
            first = math.ceil(ann.onset_s / EPOCH_S - 1e-9)
            last = math.floor((ann.onset_s + ann.duration_s) / EPOCH_S + 1e-9)
            stage = _LABELS.get(ann.label)  # map_stage_label's, without its call
            codes[max(first, 0): max(min(last, n_epochs), 0)] = -1 if stage is None else stage.value
    return codes


def _epochs_of(channel, span: slice) -> np.ndarray:
    """The epochs in ``span`` of one _resampling(..., TARGET_RATE_HZ) channel as
    a float64 (epochs, EPOCH_SAMPLES) array: their own samples when already at
    that rate, else np.interp at their times over the samples around them, as
    over the whole channel. Only those samples are read (and converted)."""
    samples, from_hz, _ = channel
    lo, hi = span.start * EPOCH_SAMPLES, span.stop * EPOCH_SAMPLES
    if from_hz is None:
        return np.asarray(samples[lo:hi], dtype=np.float64).reshape(-1, EPOCH_SAMPLES)
    # a two-sample margin keeps the input pair around each time (or the channel's end) inside
    first = max(int(lo * from_hz / TARGET_RATE_HZ) - 2, 0)
    stop = min(int(hi * from_hz / TARGET_RATE_HZ) + 3, len(samples))
    t_out = np.arange(lo, hi, dtype=np.float64) / TARGET_RATE_HZ
    t_in = np.arange(first, stop, dtype=np.float64)
    t_in /= from_hz  # in place: at twice the output rate this is the largest temporary
    return np.interp(t_out, t_in, samples[first:stop]).reshape(-1, EPOCH_SAMPLES)


def segment_stream(
    recording: EdfRecording,
    annotations: list[Annotation],
    input_channel: str,
    target_channels: list[str],
    subject_id: str | None = None,
    thresholds: ArtifactThresholds = DEFAULT_THRESHOLDS,
    wake_trim_epochs: int = 60,
):
    """Cut a recording into labeled, artifact-free, normalized 30-s epochs, yielded as
    the (signals, CRC32s) of each block's kept rows, then the EpochSet of them all.

    All involved channels are resampled to 100 Hz before slicing. Wake
    periods are trimmed to at most ``wake_trim_epochs`` epochs (30 min by
    default) before the first and after the last non-Wake epoch. Epochs over a
    channel's peak-to-peak limit or under ``thresholds.flatline_std`` are dropped,
    the rest z-scored (std floored at SIGMA_FLOOR), in one pass over the blocks of
    SEGMENT_BLOCK epochs that hold labelled ones, one thread per core: a block reads
    (so converts) each channel's span once, then fills and checksums its rows."""
    if input_channel in target_channels:
        raise ValueError("input channel cannot be one of its own targets")
    names = [input_channel] + list(target_channels)
    labels = {spec.label for spec in recording.signals}
    for name in names:
        if name not in labels:
            raise MissingChannel(f"channel {name!r} not in recording "
                                 f"(available: {sorted(labels)})")

    samples = recording.samples  # parse_edf's stay int16 until a block converts its span
    samples = samples.digital if isinstance(samples, PhysicalSamples) else samples
    channels = [_resampling(samples[i], recording.sample_rate(i), TARGET_RATE_HZ)
                for i in map(recording.signal_index, names)]
    n_available = min(length for _, _, length in channels) // EPOCH_SAMPLES
    n_epochs = min(int(recording.duration_s() // EPOCH_S), n_available)
    codes = _stage_codes(annotations, n_epochs)
    if not (codes >= 0).any():
        raise NoLabeledEpochs("no epoch carries a usable sleep stage label")
    sleep, epoch = np.flatnonzero(codes > 0), np.arange(n_epochs)
    # Wake within wake_trim_epochs of sleep is kept; with no sleep to anchor a trim, all of it
    lo, hi = (sleep[0] - wake_trim_epochs, sleep[-1] + wake_trim_epochs) if len(sleep) else (
        0, n_epochs)
    keep = (codes > 0) | ((codes == 0) & (lo <= epoch) & (epoch <= hi))
    blocks = [slice(b, min(b + SEGMENT_BLOCK, n_epochs)) for b in range(0, n_epochs, SEGMENT_BLOCK)
              if keep[b: b + SEGMENT_BLOCK].any()]
    limits = [thresholds.limit_for(channel_kind(name)) for name in names]
    row = np.concatenate(([0], np.cumsum(keep)))  # labelled epoch e's row is row[e]
    signals = np.empty((row[-1], len(names), EPOCH_SAMPLES), dtype="<f4")
    norm = np.empty((row[-1], len(names), 2), dtype=np.float32)
    crcs = np.empty(row[-1], dtype=np.uint32)
    clean = np.ones(row[-1], dtype=bool)  # per row: no channel has an artifact

    def block(span: slice) -> slice:
        take = slice(None) if keep[span].all() else keep[span]  # a view when all are labelled
        rows = slice(row[span.start], row[span.stop])
        for c, (channel, limit) in enumerate(zip(channels, limits)):
            x = _epochs_of(channel, span)[take]
            # np.std's own steps, so the mean, the difference and std are its bytes
            mean = x.mean(axis=1)
            d = x - mean[:, None]
            std = np.sqrt(np.square(d).sum(axis=1) / EPOCH_SAMPLES)
            clean[rows] &= ~((x.max(axis=1) - x.min(axis=1) > limit)
                             | (std < thresholds.flatline_std))
            std = np.maximum(std, SIGMA_FLOOR)
            np.divide(d, std[:, None], out=signals[rows, c], casting="same_kind")
            norm[rows, c, 0], norm[rows, c, 1] = mean, std
            del x, d  # before the next channel's read
        crcs[rows] = list(map(zlib.crc32, signals[rows]))  # zlib lets go of the GIL
        return rows

    for rows in numcore._ordered_map(block, blocks):  # kept rows move down over artifact rows
        start, kept = np.count_nonzero(clean[:rows.start]), np.flatnonzero(clean[rows]) + rows.start
        for new, old in enumerate(kept, start):
            if new != old:
                signals[new], norm[new], crcs[new] = signals[old], norm[old], crcs[old]
        yield signals[start:start + len(kept)], crcs[start:start + len(kept)]
    kept = np.flatnonzero(keep)[clean]
    signals, norm = signals[:len(kept)], norm[:len(kept)]
    subject = subject_id if subject_id is not None else recording.patient_id
    yield EpochSet(names, (subject,), np.zeros(len(kept)), kept, codes[kept], norm, signals)


def segment_epochs(*args, **kwargs) -> EpochSet:
    """The EpochSet that ends segment_stream(*args, **kwargs): the stream drained."""
    return list(segment_stream(*args, **kwargs))[-1]


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


def check_split(fractions: tuple[float, ...]) -> None:
    if len(fractions) != 3 or not all(0.0 <= f <= 1.0 for f in fractions) \
            or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be 3 values in [0, 1] summing to 1: {fractions}")


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
    check_split(fractions)
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
    try:
        return DatasetManifest(
            subjects=[SubjectEntry(**entry) for entry in payload["subjects"]],
            splits=dict(payload["splits"]),
            seed=int(payload["seed"]),
        )
    except (TypeError, KeyError, ValueError) as exc:  # JSON of another shape
        raise MalformedManifest(f"malformed manifest {path}: {exc}") from exc


# the footer's arrays in file order; after the 12-byte counts each starts 4-byte aligned
_FOOTER_ARRAYS = (("norm", "<f4"), ("epoch_index", "<u4"), ("crc", "<u4"), ("subject", "<u2"),
                  ("stage", "u1"))


def write_epoch_cache(path: Path | str, parts) -> None:
    """Write the binary cache (see module docstring) of one set, or of an iterable of sets
    or segment_streams over the same channels joined as EpochSet.concat joins them, each
    piece's rows as it arrives, keeping only its small columns. A temporary file replaces
    ``path`` once it is whole, so any failure, a part's included, leaves ``path`` as it was."""
    temp, crcs = Path(f"{path}.tmp"), []

    def write_rows(part) -> EpochSet:
        """The set that ends ``part``, over zero-strided signals, once its rows are written."""
        if isinstance(part, EpochSet):  # made elsewhere, so its rows are checksummed here
            signals = np.ascontiguousarray(part.signals, dtype="<f4")
            part = [(signals, map(zlib.crc32, signals)), part]
        for piece in part:  # a segment_stream's (signals, CRCs) pieces, then its set
            if isinstance(piece, EpochSet):
                kept = replace(piece, signals=np.broadcast_to(np.float32(0), piece.signals.shape))
            else:
                handle.write(piece[0])
                crcs.extend(piece[1])
        return kept

    try:
        with open(temp, "wb") as handle:
            handle.write(CACHE_MAGIC)
            # map, unlike a for loop, drops each part before it asks for the next
            kept = list(map(write_rows, [parts] if isinstance(parts, EpochSet) else parts))
            channels, subjects, subject = _joined_subjects(kept)
            table = b"".join(struct.pack("<H", len(raw)) + raw for raw in
                             (name.encode("utf-8") for name in channels + subjects))
            columns = {"crc": [crcs], "subject": subject} | {
                name: [getattr(p, name) for p in kept] for name in ("norm", "epoch_index", "stage")}
            footer = b"".join([
                _CACHE_COUNTS.pack(len(crcs), len(channels), len(subjects), len(table)),
                *(np.concatenate(columns[name]).astype(dtype).tobytes()
                  for name, dtype in _FOOTER_ARRAYS), table])
            handle.write(footer + _CACHE_TRAILER.pack(zlib.crc32(footer), len(footer)))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


class EpochCacheReader:
    """A cache written by write_epoch_cache. Opening checks the magic, the
    trailer, the footer's CRC and the file size, then the read-only ``norm``,
    ``epoch_index``, ``subject`` and ``stage`` columns and the ``channels`` and
    ``subjects`` as EpochSet does. ``read`` and ``epochs`` read only the signal
    rows asked for, by positioned reads that keep no state, and check each
    against its CRC: damage to anything read raises CorruptCache."""

    def __init__(self, path: Path | str):
        self._file = open(path, "rb", buffering=0)
        try:
            self._read_footer()
        except BaseException:
            self._file.close()
            raise

    def _read_footer(self) -> None:
        size = os.fstat(self._file.fileno()).st_size
        magic = bytes(self._pread(bytearray(min(size, len(CACHE_MAGIC))), 0))
        if magic != CACHE_MAGIC:
            hint = "; re-run preprocess to rebuild it" if magic[:6] == b"PSGEPO" else ""
            raise CorruptCache(f"bad epoch cache magic {magic!r}{hint}")
        crc, length = _CACHE_TRAILER.unpack(self._pread(bytearray(_CACHE_TRAILER.size),
                                                        max(size - _CACHE_TRAILER.size, 0)))
        start = size - _CACHE_TRAILER.size - length  # of the footer
        if start < len(CACHE_MAGIC) or length < _CACHE_COUNTS.size:
            raise CorruptCache("bad epoch cache trailer (truncated or damaged)")
        footer = memoryview(self._pread(bytearray(length), start)).toreadonly()
        if zlib.crc32(footer) != crc:
            raise CorruptCache("epoch cache footer checksum mismatch (damaged or truncated)")
        n, c, s, _ = _CACHE_COUNTS.unpack_from(footer)
        if c == 0:
            raise CorruptCache("epoch cache has no channels")
        columns, pos = {}, _CACHE_COUNTS.size
        try:  # a footer too short or too long for its counts raises ValueError in here
            for name, dtype in _FOOTER_ARRAYS:
                shape = (n, c, 2) if name == "norm" else (n,)
                columns[name] = np.frombuffer(footer, dtype, np.prod(shape), pos).reshape(shape)
                pos += columns[name].nbytes
            self._crcs = columns.pop("crc").tolist()
            names = []
            for _ in range(c + s):
                width = int.from_bytes(footer[pos: pos + 2], "little")
                names.append(str(footer[pos + 2: pos + 2 + width], "utf-8"))
                pos += 2 + width
            if pos != length:
                raise ValueError("name table length disagrees with its names")
            # EpochSet's checks of the columns, over zero-strided signals that cost no memory
            EpochSet(names[:c], names[c:], signals=np.broadcast_to(
                np.float32(0), (n, c, EPOCH_SAMPLES)), **columns)
        except ValueError as exc:  # UnicodeDecodeError included
            raise CorruptCache(f"malformed epoch cache: {exc}") from exc
        self._row = 4 * c * EPOCH_SAMPLES  # bytes per signal row
        promised = len(CACHE_MAGIC) + n * self._row + length + _CACHE_TRAILER.size
        if size != promised:
            raise CorruptCache(f"epoch cache has {size} bytes where its footer promises "
                               f"{promised} (truncated or trailing bytes)")
        self.channels, self.subjects = tuple(names[:c]), tuple(names[c:])
        self.norm, self.epoch_index, self.subject, self.stage = columns.values()

    def __len__(self) -> int:
        return len(self.stage)

    def __enter__(self) -> EpochCacheReader:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def read(self, rows) -> np.ndarray:
        """The signal rows ``rows`` (row indices, ascending in use) in a new array:
        one positioned read per run of consecutive rows, then each row checked
        against its CRC."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and not 0 <= rows.min() <= rows.max() < len(self):
            raise ValueError(f"rows out of the cache's {len(self)}")
        out = np.empty((len(rows), len(self.channels), EPOCH_SAMPLES), dtype="<f4")
        cuts = [*np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist(), len(rows)]  # run starts
        for lo, hi in zip(cuts, cuts[1:]):
            self._pread(out[lo:hi], len(CACHE_MAGIC) + int(rows[lo]) * self._row)
        for row, signals in zip(rows.tolist(), out):
            if zlib.crc32(signals) != self._crcs[row]:
                raise CorruptCache(f"epoch cache row {row} fails its checksum")
        return out

    def epochs(self, rows) -> EpochSet:
        """The cache rows ``rows`` (ascending row indices), their signals read."""
        return EpochSet(self.channels, self.subjects, self.subject[rows], self.epoch_index[rows],
                        self.stage[rows], self.norm[rows], self.read(rows))

    def _pread(self, out: bytearray | np.ndarray, offset: int) -> bytearray | np.ndarray:
        """``out``, a writable contiguous buffer, filled from the file's byte ``offset`` on."""
        view, done = memoryview(out).cast("B"), 0
        while done < len(view):
            got = os.preadv(self._file.fileno(), [view[done:]], offset + done)
            if not got:
                raise CorruptCache("epoch cache ended early: truncated while being read")
            done += got
        return out


def read_epoch_cache(path: Path | str) -> EpochSet:
    """Read a whole cache written by write_epoch_cache through an EpochCacheReader."""
    with EpochCacheReader(path) as reader:
        return reader.epochs(np.arange(len(reader)))
