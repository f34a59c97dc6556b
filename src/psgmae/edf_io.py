"""Reader/writer for EDF and EDF+ files, including TAL annotations.

EDF files carry a 256-byte ASCII global header, one 256-byte ASCII header
block per signal (stored field-major), and data records of 16-bit
little-endian two's-complement samples. EDF+ adds an "EDF Annotations"
signal whose byte content is a sequence of TALs (time-stamped annotation
lists) delimited by 0x14/0x15 separators and 0x00 terminators.

Parsed samples stay the file's int16 words until read, then the linear
mapping of the per-signal calibration fields converts only the records read.
"""

from __future__ import annotations

import datetime
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

ANNOTATION_LABEL = "EDF Annotations"

# the per-signal header block, stored field-major: (SignalSpec field, ASCII width,
# type) in file order, then 32 reserved bytes per signal
_SIGNAL_FIELDS = (("label", 16, str), ("transducer", 80, str), ("physical_dimension", 8, str),
                  ("physical_min", 8, float), ("physical_max", 8, float), ("digital_min", 8, int),
                  ("digital_max", 8, int), ("prefilter", 80, str), ("samples_per_record", 8, int))

_SEP_DURATION = b"\x15"
_SEP_FIELD = b"\x14"
_TERMINATOR = b"\x00"


class EdfError(Exception):
    """Base class for EDF parse/write failures."""


class TruncatedFile(EdfError):
    """Fewer bytes than the header promises."""


class MalformedHeader(EdfError):
    """Non-numeric numeric field, bad date, or inconsistent layout."""


class DegenerateCalibration(EdfError):
    """digital_min == digital_max (or physical range collapsed)."""


class InconsistentLengths(EdfError):
    """Sample array lengths disagree with num_records × samples_per_record."""


class MalformedTal(EdfError):
    """TAL missing its terminator or carrying a non-numeric or non-finite onset or duration."""


class UnsupportedEdf(EdfError):
    """Valid EDF variant this reader does not handle (e.g. EDF+D)."""


class FieldOverflow(EdfError):
    """A header value cannot be represented in its fixed-width ASCII field."""


class NonFiniteSample(EdfError):
    """A physical sample is NaN or infinite, which no 16-bit word stands for."""


@dataclass
class SignalSpec:
    """Per-signal header block of an EDF file."""

    label: str
    transducer: str = ""
    physical_dimension: str = ""
    physical_min: float = -1.0
    physical_max: float = 1.0
    digital_min: int = -32768
    digital_max: int = 32767
    samples_per_record: int = 1
    prefilter: str = ""

    def validate(self) -> None:
        """Reject a layout or calibration no sample can be read through; the
        annotation channel carries bytes, not samples, so any physical range
        is allowed there."""
        if self.samples_per_record < 1:
            raise MalformedHeader(
                f"signal {self.label!r}: samples_per_record must be >= 1, "
                f"got {self.samples_per_record}"
            )
        if self.digital_min == self.digital_max:
            raise DegenerateCalibration(
                f"signal {self.label!r}: digital_min == digital_max == {self.digital_min}"
            )
        if self.label != ANNOTATION_LABEL and self.physical_min == self.physical_max:
            raise DegenerateCalibration(
                f"signal {self.label!r}: physical_min == physical_max == {self.physical_min}"
            )

    def digital_to_physical(self, digital: np.ndarray) -> np.ndarray:
        scale = (self.physical_max - self.physical_min) / (self.digital_max - self.digital_min)
        physical = digital.astype(np.float64)
        physical -= self.digital_min
        physical *= scale
        physical += self.physical_min
        return physical

    def physical_to_digital(self, physical: np.ndarray) -> np.ndarray:
        scale = (self.digital_max - self.digital_min) / (self.physical_max - self.physical_min)
        digital = np.asarray(physical, dtype=np.float64) - self.physical_min
        digital *= scale
        digital += self.digital_min
        np.rint(digital, out=digital)
        return np.clip(digital, self.digital_min, self.digital_max, out=digital).astype(np.int16)


@dataclass(frozen=True, eq=False)
class DigitalSignal:
    """A signal's strided int16 (records, samples_per_record) view over the file
    and its calibration. ``len()`` counts samples; a slice [lo:hi] converts only
    the records holding samples lo:hi by digital_to_physical, to float64."""

    spec: SignalSpec
    records: np.ndarray

    def __len__(self) -> int:
        return self.records.size

    def __getitem__(self, span: slice) -> np.ndarray:
        lo, hi, _ = span.indices(len(self))
        width = self.spec.samples_per_record
        first = lo // width
        physical = self.spec.digital_to_physical(self.records[first: -(-hi // width)])
        return physical.reshape(-1)[lo - first * width: hi - first * width]


class PhysicalSamples(Sequence):
    """parse_edf's ``samples``: item i is ``digital[i]`` converted anew at each access."""

    def __init__(self, digital: list[DigitalSignal]):
        self.digital = digital

    def __len__(self) -> int:
        return len(self.digital)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.digital[index][:]


@dataclass
class Annotation:
    """One annotation: onset/duration in seconds from recording start."""

    onset_s: float
    duration_s: float
    label: str


@dataclass
class EdfRecording:
    """Parsed EDF/EDF+ file with samples in physical units.

    ``samples[i]`` is the flat float array for ``signals[i]`` (from parse_edf,
    via PhysicalSamples); annotation channels are parsed into ``annotations``
    and never appear in either sequence.
    """

    version: str = "0"
    patient_id: str = ""
    recording_id: str = ""
    start_datetime: datetime.datetime = datetime.datetime(2000, 1, 1)
    record_duration_s: float = 1.0
    num_records: int = 0
    signals: list[SignalSpec] = field(default_factory=list)
    samples: Sequence[np.ndarray] = field(default_factory=list)
    annotations: list[Annotation] = field(default_factory=list)

    def sample_rate(self, index: int) -> float:
        return self.signals[index].samples_per_record / self.record_duration_s

    def duration_s(self) -> float:
        return self.num_records * self.record_duration_s

    def signal_index(self, label: str) -> int:
        for i, spec in enumerate(self.signals):
            if spec.label == label:
                return i
        raise KeyError(label)


def _ascii(raw: bytes) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"non-ASCII header bytes: {raw[:16]!r}") from exc


def _parse_field(raw: bytes, what: str, kind=int):
    """An ASCII header field as ``kind``: int, float, or str for its stripped text."""
    text = _ascii(raw).strip()
    try:
        return kind(text)
    except ValueError as exc:
        raise MalformedHeader(f"{what}: expected {'integer' if kind is int else 'number'}, "
                              f"got {text!r}") from exc


def _parse_start(date_raw: bytes, time_raw: bytes) -> datetime.datetime:
    date_text = _ascii(date_raw).strip()
    time_text = _ascii(time_raw).strip()
    try:
        day, month, yy = (int(p) for p in date_text.split("."))
        hour, minute, second = (int(p) for p in time_text.split("."))
        # EDF clipping convention: 85-99 -> 1985-1999, 00-84 -> 2000-2084.
        year = 1900 + yy if yy >= 85 else 2000 + yy
        return datetime.datetime(year, month, day, hour, minute, second)
    except (ValueError, TypeError) as exc:
        raise MalformedHeader(f"bad start date/time: {date_text!r} {time_text!r}") from exc


def _pad(text: str, width: int, what: str) -> bytes:
    raw = text.encode("ascii", errors="strict") if text.isascii() else None
    if raw is None or len(raw) > width:
        raise FieldOverflow(f"{what}: {text!r} does not fit in {width} ASCII bytes")
    return raw.ljust(width)


def _fmt_number(value: float, width: int, what: str) -> bytes:
    """Shortest ASCII rendering of value that parses back exactly."""
    if float(value).is_integer() and abs(value) < 10 ** (width + 1):
        text = str(int(value))
    else:
        text = repr(float(value))
    if len(text) > width or float(text) != float(value):
        raise FieldOverflow(f"{what}: {value!r} does not fit in {width} ASCII bytes")
    return text.ljust(width).encode("ascii")


def parse_edf(data: bytes) -> EdfRecording:
    """Parse an EDF/EDF+ byte stream, its samples kept as PhysicalSamples.

    Raises TruncatedFile when the buffer is shorter than the header
    promises, MalformedHeader on unparseable or inconsistent header
    fields (including trailing bytes beyond the promised length),
    DegenerateCalibration on collapsed calibration ranges, and
    UnsupportedEdf for discontinuous (EDF+D) files.
    """
    if len(data) < 256:
        raise TruncatedFile(f"need at least 256 header bytes, got {len(data)}")

    version = _ascii(data[0:8]).strip()
    patient_id = _ascii(data[8:88]).strip()
    recording_id = _ascii(data[88:168]).strip()
    start = _parse_start(data[168:176], data[176:184])
    header_bytes = _parse_field(data[184:192], "header byte count")
    reserved = _ascii(data[192:236]).strip()
    num_records = _parse_field(data[236:244], "record count")
    record_duration = _parse_field(data[244:252], "record duration", float)
    num_signals = _parse_field(data[252:256], "signal count")

    if reserved.startswith("EDF+D"):
        raise UnsupportedEdf("discontinuous (EDF+D) recordings are not supported")
    if num_signals < 1:
        raise MalformedHeader(f"signal count must be >= 1, got {num_signals}")
    if num_records < 0:
        raise MalformedHeader(f"record count must be >= 0, got {num_records}")
    expected_header = 256 * (1 + num_signals)
    if header_bytes != expected_header:
        raise MalformedHeader(f"header byte count {header_bytes} != 256*(1+{num_signals})")
    if len(data) < expected_header:
        raise TruncatedFile(f"header promises {expected_header} bytes, got {len(data)}")

    specs = []
    for i in range(num_signals):
        fields, base = {}, 256  # base: where the field's column starts
        for name, width, kind in _SIGNAL_FIELDS:
            raw = data[base + i * width: base + (i + 1) * width]
            fields[name] = _parse_field(raw, f"signal {i} {name}", kind)
            base += width * num_signals
        specs.append(SignalSpec(**fields))

    for spec in specs:
        spec.validate()
    # EDF+ allows a 0 s record only in an annotation-only file
    if not (0 < record_duration < math.inf or record_duration == 0 and all(
            s.label == ANNOTATION_LABEL for s in specs)):
        raise MalformedHeader(f"record duration must be finite and > 0, got {record_duration:g}")

    record_bytes = sum(s.samples_per_record for s in specs) * 2
    expected_total = expected_header + num_records * record_bytes
    if len(data) < expected_total:
        raise TruncatedFile(f"file promises {expected_total} bytes, got {len(data)}")
    if len(data) > expected_total:
        raise MalformedHeader(
            f"{len(data) - expected_total} trailing bytes beyond the "
            f"promised {expected_total}"
        )

    # one row of 16-bit words per data record; signal i owns a column range
    words = np.frombuffer(data, dtype="<i2", offset=expected_header).reshape(
        num_records, record_bytes // 2)
    offsets = np.cumsum([0] + [s.samples_per_record for s in specs])
    digital: list[DigitalSignal] = []
    annotations: list[Annotation] = []

    for spec, lo, hi in zip(specs, offsets[:-1], offsets[1:]):
        block = words[:, lo:hi]
        if spec.label == ANNOTATION_LABEL:
            for row in block:
                annotations.extend(parse_tal(row.tobytes()))
        else:
            digital.append(DigitalSignal(spec, block))

    return EdfRecording(version=version, patient_id=patient_id, recording_id=recording_id,
                        start_datetime=start, record_duration_s=record_duration,
                        num_records=num_records, signals=[d.spec for d in digital],
                        samples=PhysicalSamples(digital), annotations=annotations)


def write_edf(recording: EdfRecording) -> bytes:
    """Serialize a recording to a standards-conformant EDF/EDF+ byte stream.

    Physical values are mapped back to 16-bit digital values by inverting
    the calibration line, rounding to nearest and clipping to
    [digital_min, digital_max]; a NaN or infinite sample raises
    NonFiniteSample. If annotations are present an "EDF Annotations"
    channel is appended and the file is marked EDF+C.
    """
    if len(recording.signals) != len(recording.samples):
        raise InconsistentLengths(
            f"{len(recording.signals)} signal specs but "
            f"{len(recording.samples)} sample arrays"
        )
    for spec in recording.signals:
        spec.validate()
    for spec, arr in zip(recording.signals, recording.samples):
        expected = recording.num_records * spec.samples_per_record
        if len(arr) != expected:
            raise InconsistentLengths(
                f"signal {spec.label!r}: {len(arr)} samples, expected "
                f"{recording.num_records} records x {spec.samples_per_record}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteSample(f"signal {spec.label!r} holds a NaN or infinite sample")

    num_records = recording.num_records
    ann_records: list[bytes] = []
    if recording.annotations:
        if num_records < 1:
            raise InconsistentLengths("annotations require at least one data record")
        if not np.isfinite([(a.onset_s, a.duration_s) for a in recording.annotations]).all():
            raise MalformedTal("annotation onsets and durations must be finite")
        ann_records = _annotation_records(
            recording.annotations, num_records, recording.record_duration_s
        )

    specs = list(recording.signals)
    if ann_records:
        spr_ann = (max(len(r) for r in ann_records) + 1) // 2
        # SignalSpec's default calibration, -1..1 over the full 16-bit range
        specs = specs + [SignalSpec(label=ANNOTATION_LABEL, samples_per_record=spr_ann)]

    num_signals = len(specs)
    if num_signals < 1:
        raise InconsistentLengths("recording has neither signals nor annotations")

    start = recording.start_datetime
    if not 1985 <= start.year <= 2084:
        raise FieldOverflow(f"start year {start.year} outside EDF range 1985-2084")
    yy = start.year - 1900 if start.year < 2000 else start.year - 2000

    header = b"".join([
        _pad(recording.version or "0", 8, "version"),
        _pad(recording.patient_id, 80, "patient_id"),
        _pad(recording.recording_id, 80, "recording_id"),
        f"{start.day:02d}.{start.month:02d}.{yy:02d}".encode("ascii"),
        f"{start.hour:02d}.{start.minute:02d}.{start.second:02d}".encode("ascii"),
        _fmt_number(256 * (1 + num_signals), 8, "header bytes"),
        _pad("EDF+C" if ann_records else "", 44, "reserved"),
        _fmt_number(num_records, 8, "record count"),
        _fmt_number(recording.record_duration_s, 8, "record duration"),
        _fmt_number(num_signals, 4, "signal count"),
    ])

    signal_header = b"".join((_pad if kind is str else _fmt_number)(getattr(s, name), width, name)
                             for name, width, kind in _SIGNAL_FIELDS for s in specs)
    signal_header += b" " * (32 * num_signals)

    # one row of 16-bit words per data record, as parse_edf reads them back
    words = [spec.physical_to_digital(arr).reshape(num_records, spec.samples_per_record)
             for spec, arr in zip(recording.signals, recording.samples)]
    if ann_records:
        raw = b"".join(r.ljust(specs[-1].samples_per_record * 2, b"\x00") for r in ann_records)
        words.append(np.frombuffer(raw, dtype="<i2").reshape(num_records, -1))
    return header + signal_header + np.hstack(words).astype("<i2", copy=False).tobytes()


def parse_tal(data: bytes) -> list[Annotation]:
    """Parse the raw byte content of an "EDF Annotations" channel record.

    Each TAL has the form ``+onset[0x15 duration]0x14 label 0x14 ... 0x00``
    and yields one Annotation per non-empty label; timekeeping TALs (empty
    label) yield nothing. Zero bytes between TALs are padding.
    """
    annotations: list[Annotation] = []
    *tals, unterminated = data.split(_TERMINATOR)
    for chunk in tals:
        if not chunk:  # padding
            continue
        parts = chunk.split(_SEP_FIELD)
        if len(parts) < 2 or parts[-1] != b"":
            raise MalformedTal(f"TAL not terminated by 0x14 before 0x00: {chunk!r}")
        head, labels = parts[0], parts[1:-1]

        if not head[:1] in (b"+", b"-"):
            raise MalformedTal(f"TAL onset must start with '+' or '-': {head!r}")
        onset_raw, _, duration_raw = head.partition(_SEP_DURATION)
        try:
            onset = float(onset_raw)
            duration = float(duration_raw) if duration_raw else 0.0
        except ValueError as exc:
            raise MalformedTal(f"non-numeric TAL onset/duration: {head!r}") from exc
        if not (math.isfinite(onset) and math.isfinite(duration)):
            raise MalformedTal(f"non-finite TAL onset/duration: {head!r}")

        for label in labels:
            text = label.decode("utf-8", errors="replace")
            if text:
                annotations.append(Annotation(onset, duration, text))
    if unterminated:
        raise MalformedTal("TAL missing its 0x00 terminator")
    return annotations


def serialize_tal(annotations: list[Annotation]) -> bytes:
    """Render annotations as consecutive TALs (inverse of parse_tal)."""
    out = bytearray()
    for ann in annotations:
        out += _tal_number(ann.onset_s, signed=True)
        if ann.duration_s:
            out += _SEP_DURATION
            out += _tal_number(ann.duration_s, signed=False)
        out += _SEP_FIELD
        out += ann.label.encode("utf-8")
        out += _SEP_FIELD
        out += _TERMINATOR
    return bytes(out)


def _tal_number(value: float, signed: bool) -> bytes:
    text = str(int(value)) if float(value).is_integer() else repr(float(value))
    if signed and not text.startswith("-"):
        text = "+" + text
    return text.encode("ascii")


def _annotation_records(
    annotations: list[Annotation], num_records: int, record_duration_s: float
) -> list[bytes]:
    """Distribute annotations into per-record TAL byte blocks.

    Record r starts with the mandatory timekeeping TAL for its onset;
    each annotation lands in the record containing its onset (clamped to
    the last record so late annotations are never dropped).
    """
    buckets: list[list[Annotation]] = [[] for _ in range(num_records)]
    for ann in sorted(annotations, key=lambda a: a.onset_s):
        rec = int(math.floor(ann.onset_s / record_duration_s)) if record_duration_s > 0 else 0
        rec = min(max(rec, 0), num_records - 1)
        buckets[rec].append(ann)

    records = []
    for rec in range(num_records):
        onset = rec * record_duration_s
        block = _tal_number(onset, signed=True) + _SEP_FIELD + _SEP_FIELD + _TERMINATOR
        block += serialize_tal(buckets[rec])
        records.append(block)
    return records
