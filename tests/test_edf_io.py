import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psgmae import edf_io, synthgen
from psgmae.edf_io import (
    Annotation,
    DegenerateCalibration,
    EdfError,
    EdfRecording,
    InconsistentLengths,
    MalformedHeader,
    MalformedTal,
    NonFiniteSample,
    SignalSpec,
    TruncatedFile,
    UnsupportedEdf,
    parse_edf,
    parse_tal,
    serialize_tal,
    write_edf,
)


def build_header(num_records=1, num_signals=1, reserved=""):
    """Hand-built 256-byte global header, independent of the writer."""
    return (
        b"0".ljust(8)
        + b"patient".ljust(80)
        + b"recording".ljust(80)
        + b"01.01.00"
        + b"00.00.00"
        + str(256 * (1 + num_signals)).encode().ljust(8)
        + reserved.encode().ljust(44)
        + str(num_records).encode().ljust(8)
        + b"1".ljust(8)
        + str(num_signals).encode().ljust(4)
    )


def build_signal_header(columns):
    """Field-major signal header block from per-signal dicts."""
    widths = [("label", 16), ("transducer", 80), ("dimension", 8),
              ("physical_min", 8), ("physical_max", 8), ("digital_min", 8),
              ("digital_max", 8), ("prefilter", 80), ("samples_per_record", 8),
              ("reserved", 32)]
    out = b""
    for key, width in widths:
        for col in columns:
            out += str(col.get(key, "")).encode().ljust(width)
    return out


def one_signal_file(digital_values, physical_min=-200, physical_max=200,
                    digital_min=-2048, digital_max=2047):
    header = build_header(num_records=1, num_signals=1)
    signal = build_signal_header([{
        "label": "EEG test", "dimension": "uV",
        "physical_min": physical_min, "physical_max": physical_max,
        "digital_min": digital_min, "digital_max": digital_max,
        "samples_per_record": len(digital_values),
    }])
    data = np.asarray(digital_values, dtype="<i2").tobytes()
    return header + signal + data


class TestParse:
    def test_linear_mapping_example(self):
        # digital 0 with range [-2048, 2047] over [-200, 200] uV
        recording = parse_edf(one_signal_file([0]))
        expected = 2048 * (400 / 4095) - 200
        assert recording.samples[0][0] == pytest.approx(expected, abs=1e-9)
        assert recording.samples[0][0] == pytest.approx(0.04884, abs=1e-5)

    def test_header_fields(self):
        recording = parse_edf(one_signal_file([0, 1, 2]))
        assert recording.patient_id == "patient"
        assert recording.num_records == 1
        assert recording.record_duration_s == 1.0
        assert recording.signals[0].label == "EEG test"
        assert recording.start_datetime.year == 2000

    def test_truncated_after_global_header(self):
        data = build_header(num_records=1, num_signals=1)
        with pytest.raises(TruncatedFile):
            parse_edf(data)

    def test_shorter_than_256(self):
        with pytest.raises(TruncatedFile):
            parse_edf(b"0")

    def test_truncated_data_records(self):
        data = one_signal_file([1, 2, 3, 4])
        with pytest.raises(TruncatedFile):
            parse_edf(data[:-3])

    def test_oversized_errors(self):
        data = one_signal_file([1, 2, 3, 4])
        with pytest.raises(MalformedHeader):
            parse_edf(data + b"\x00\x00")

    def test_fuzz_truncation_never_crashes(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=1, duration_s=30)
        )
        data = write_edf(recording)
        for cut in range(0, len(data), max(len(data) // 37, 1)):
            with pytest.raises(EdfError):
                parse_edf(data[:cut])

    def test_non_numeric_field(self):
        data = bytearray(one_signal_file([0]))
        data[236:244] = b"oops    "  # record count
        with pytest.raises(MalformedHeader):
            parse_edf(bytes(data))

    def test_degenerate_digital_range(self):
        data = one_signal_file([0], digital_min=5, digital_max=5)
        with pytest.raises(DegenerateCalibration):
            parse_edf(data)

    def test_edf_plus_d_rejected(self):
        header = build_header(num_records=1, num_signals=1, reserved="EDF+D")
        signal = build_signal_header([{
            "label": "EEG test", "physical_min": -1, "physical_max": 1,
            "digital_min": -10, "digital_max": 10, "samples_per_record": 1,
        }])
        with pytest.raises(UnsupportedEdf):
            parse_edf(header + signal + b"\x00\x00")


class TestRecordDuration:
    @staticmethod
    def with_duration(data: bytes, text: str) -> bytes:
        return data[:244] + text.encode().ljust(8) + data[252:]

    @pytest.mark.parametrize("text", ["0", "nan", "inf", "-inf", "-1"])
    def test_bad_duration_rejected(self, text):
        data = self.with_duration(one_signal_file([0, 1, 2, 3]), text)
        with pytest.raises(MalformedHeader, match="record duration"):
            parse_edf(data)

    def test_fraction_of_a_second_parses(self):
        parsed = parse_edf(self.with_duration(one_signal_file([0, 1, 2, 3]), "0.5"))
        assert parsed.record_duration_s == 0.5 and parsed.sample_rate(0) == 8.0

    def test_zero_duration_annotation_only_file_parses(self):
        spec = synthgen.SynthSpec(seed=3, duration_s=90)
        _, annotations = synthgen.generate(spec)
        hypnogram = synthgen.hypnogram_recording(spec, annotations)
        data = self.with_duration(write_edf(hypnogram), "0")
        parsed = parse_edf(data)
        assert parsed.record_duration_s == 0.0
        assert parsed.signals == [] and parsed.annotations == annotations
        for text in ("nan", "-1"):  # an annotation-only file still needs a usable duration
            with pytest.raises(MalformedHeader):
                parse_edf(self.with_duration(data, text))


class TestWrite:
    @staticmethod
    def recording(samples, physical_min=-200.0, physical_max=200.0):
        spec = SignalSpec(
            label="EEG test", physical_dimension="uV",
            physical_min=physical_min, physical_max=physical_max,
            digital_min=-2048, digital_max=2047,
            samples_per_record=len(samples),
        )
        return EdfRecording(
            num_records=1, record_duration_s=1.0,
            signals=[spec], samples=[np.asarray(samples, dtype=np.float64)],
        )

    def read_digital(self, data, n):
        return np.frombuffer(data[-2 * n:], dtype="<i2")

    def test_physical_max_maps_to_digital_max(self):
        data = write_edf(self.recording([200.0]))
        assert self.read_digital(data, 1)[0] == 2047

    def test_physical_min_maps_to_digital_min(self):
        data = write_edf(self.recording([-200.0]))
        assert self.read_digital(data, 1)[0] == -2048

    def test_out_of_range_clips(self):
        data = write_edf(self.recording([5000.0, -5000.0]))
        assert list(self.read_digital(data, 2)) == [2047, -2048]

    def test_inconsistent_lengths(self):
        recording = self.recording([1.0, 2.0])
        recording.samples[0] = np.array([1.0])
        with pytest.raises(InconsistentLengths):
            write_edf(recording)

    def test_degenerate_calibration(self):
        recording = self.recording([1.0])
        recording.signals[0].digital_min = recording.signals[0].digital_max = 3
        with pytest.raises(DegenerateCalibration):
            write_edf(recording)

    @pytest.mark.parametrize("onset,duration", [(float("inf"), 0.0), (float("nan"), 30.0),
                                                (0.0, float("inf")), (30.0, float("nan"))])
    def test_non_finite_annotation_time_refused(self, onset, duration):
        recording = self.recording([1.0])
        recording.annotations = [Annotation(0.0, 30.0, "a"), Annotation(onset, duration, "b")]
        with pytest.raises(MalformedTal, match="must be finite"):
            write_edf(recording)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sample_refused(self, bad):
        """No 16-bit word stands for a NaN or infinite sample, so the writer
        refuses one rather than write what its cast gives."""
        with pytest.raises(NonFiniteSample, match="'EEG test' holds a NaN or infinite"):
            write_edf(self.recording([1.0, bad, 2.0]))
        assert issubclass(NonFiniteSample, EdfError)

    def test_quantization_within_half_step(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        for _ in range(20):
            values = rng.uniform(-200, 200, 50)
            recording = self.recording(values)
            parsed = parse_edf(write_edf(recording))
            half_step = (400 / 4095) / 2
            assert np.abs(parsed.samples[0] - values).max() <= half_step + 1e-12


class TestRoundTrip:
    def test_synthgen_round_trip_field_by_field(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=2, duration_s=60)
        )
        parsed = parse_edf(write_edf(recording))
        assert parsed.version == recording.version
        assert parsed.patient_id == recording.patient_id
        assert parsed.recording_id == recording.recording_id
        assert parsed.start_datetime == recording.start_datetime
        assert parsed.num_records == recording.num_records
        assert parsed.record_duration_s == recording.record_duration_s
        assert len(parsed.signals) == len(recording.signals)
        for got, want in zip(parsed.signals, recording.signals):
            assert got == want
        for got, want, spec in zip(parsed.samples, recording.samples,
                                   recording.signals):
            half_step = (spec.physical_max - spec.physical_min) / (
                2 * (spec.digital_max - spec.digital_min))
            clipped = np.clip(want, spec.physical_min, spec.physical_max)
            assert np.abs(got - clipped).max() <= half_step + 1e-12

    def test_annotation_only_file_round_trip(self):
        spec = synthgen.SynthSpec(seed=3, duration_s=90)
        _, annotations = synthgen.generate(spec)
        hypnogram = synthgen.hypnogram_recording(spec, annotations)
        parsed = parse_edf(write_edf(hypnogram))
        assert parsed.signals == []
        assert list(parsed.samples) == []
        assert parsed.annotations == annotations

    def test_signals_plus_annotations_round_trip(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=4, duration_s=60)
        )
        recording.annotations = annotations
        parsed = parse_edf(write_edf(recording))
        assert parsed.annotations == annotations
        assert [s.label for s in parsed.signals] == \
            [s.label for s in recording.signals]


def plain_digital_to_physical(spec, digital):
    """The calibration line as one expression, a new array per operation."""
    scale = (spec.physical_max - spec.physical_min) / (spec.digital_max - spec.digital_min)
    return (digital.astype(np.float64) - spec.digital_min) * scale + spec.physical_min


def plain_physical_to_digital(spec, physical):
    scale = (spec.digital_max - spec.digital_min) / (spec.physical_max - spec.physical_min)
    digital = np.rint((np.asarray(physical, dtype=np.float64) - spec.physical_min) * scale
                      + spec.digital_min)
    return np.clip(digital, spec.digital_min, spec.digital_max).astype(np.int16)


class TestInPlaceConversion:
    """Both maps convert one array in place; each value must be the bytes of
    the plain expressions."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_equal_to_the_plain_expressions(self, seed):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        calibrations = [(-32768, 32767, -200.0, 200.0), (-2048, 2047, 250.0, -250.0),
                        (-1, 1, 0.001, -1e4), (0, 4095, -37.25, 1e5)]
        for _ in range(30):
            dmin = int(rng.integers(-32768, 32766))
            pmin, pmax = rng.uniform(-1e4, 1e4, 2) * 10.0 ** rng.integers(-3, 2)
            calibrations.append((dmin, int(rng.integers(dmin + 1, 32768)), pmin, pmax))
        assert any(dmin < 0 for dmin, *_ in calibrations)
        assert any(pmin > pmax for *_, pmin, pmax in calibrations)
        for dmin, dmax, pmin, pmax in calibrations:
            spec = SignalSpec("x", physical_min=pmin, physical_max=pmax,
                              digital_min=dmin, digital_max=dmax)
            # the strided columns of data records, as parse_edf passes them
            words = rng.integers(-32768, 32768, (40, 9)).astype("<i2")
            got = spec.digital_to_physical(words[:, 2:7])
            assert got.flags.c_contiguous
            want = plain_digital_to_physical(spec, words[:, 2:7].reshape(-1))
            assert got.reshape(-1).tobytes() == want.tobytes()
            # values reaching past both ends of the range clip
            low, high = sorted((pmin, pmax))
            physical = rng.uniform(low - (high - low), high + (high - low), 400)
            before = want.copy()
            for values in (physical, physical.astype(np.float32), want):
                got = spec.physical_to_digital(values)
                assert got.dtype == np.int16
                assert got.tobytes() == plain_physical_to_digital(spec, values).tobytes()
            assert want.tobytes() == before.tobytes()  # a float64 input is not converted in place

    def test_write_edf_bytes_are_those_of_the_plain_expressions(self):
        recording, _ = synthgen.generate(synthgen.SynthSpec(seed=6, duration_s=600))
        header = 256 * (1 + len(recording.signals))
        raw = write_edf(recording)
        records = np.hstack([plain_physical_to_digital(s, a).reshape(recording.num_records, -1)
                             for s, a in zip(recording.signals, recording.samples)])
        assert raw[header:] == records.astype("<i2").tobytes()
        assert any(s.digital_min < 0 for s in recording.signals)
        parsed = parse_edf(raw)
        columns = np.cumsum([0] + [s.samples_per_record for s in recording.signals])
        for s, got, lo, hi in zip(recording.signals, parsed.samples, columns, columns[1:]):
            want = plain_digital_to_physical(s, records[:, lo:hi].reshape(-1))
            assert got.tobytes() == want.tobytes()


# TAL grammar suite: (raw bytes, expected annotations); shared with the
# acceptance tests.
TAL_CASES = [
    (b"+0\x1530\x14Sleep stage W\x14\x00",
     [Annotation(0.0, 30.0, "Sleep stage W")]),
    (b"+180\x14Lights off\x14\x00",
     [Annotation(180.0, 0.0, "Lights off")]),
    (b"+30.5\x151.5\x14Arousal\x14\x00",
     [Annotation(30.5, 1.5, "Arousal")]),
    (b"-10\x14Pre-start event\x14\x00",
     [Annotation(-10.0, 0.0, "Pre-start event")]),
    (b"+0\x14\x14\x00", []),  # timekeeping TAL: no label
    (b"+60\x1530\x14Sleep stage 1\x14Sleep stage 2\x14\x00",
     [Annotation(60.0, 30.0, "Sleep stage 1"),
      Annotation(60.0, 30.0, "Sleep stage 2")]),
    (b"+0\x14\x14\x00+30\x1530\x14Sleep stage R\x14\x00\x00\x00",
     [Annotation(30.0, 30.0, "Sleep stage R")]),
    (b"\x00\x00+90\x1530\x14Sleep stage ?\x14\x00\x00",
     [Annotation(90.0, 30.0, "Sleep stage ?")]),
    (b"+1\x14a\x14\x00+2\x14b\x14\x00+3\x14c\x14\x00",
     [Annotation(1.0, 0.0, "a"), Annotation(2.0, 0.0, "b"),
      Annotation(3.0, 0.0, "c")]),
    (b"", []),
    (b"\x00\x00\x00\x00", []),
    (b"+7200\x150.001\x14Movement time\x14\x00",
     [Annotation(7200.0, 0.001, "Movement time")]),
]

def parse_tal_by_scan(data: bytes) -> list[Annotation]:
    """parse_tal's reference: a byte-by-byte scan from one TAL to the next."""
    annotations, pos = [], 0
    while pos < len(data):
        if data[pos] == 0:  # padding
            pos += 1
            continue
        end = data.find(b"\x00", pos)
        if end < 0:
            raise MalformedTal("TAL missing its 0x00 terminator")
        chunk, pos = data[pos:end], end + 1
        parts = chunk.split(b"\x14")
        if len(parts) < 2 or parts[-1] != b"":
            raise MalformedTal(f"TAL not terminated by 0x14 before 0x00: {chunk!r}")
        head = parts[0]
        if not head[:1] in (b"+", b"-"):
            raise MalformedTal(f"TAL onset must start with '+' or '-': {head!r}")
        onset_raw, _, duration_raw = head.partition(b"\x15")
        try:
            onset, duration = float(onset_raw), float(duration_raw) if duration_raw else 0.0
        except ValueError as exc:
            raise MalformedTal(f"non-numeric TAL onset/duration: {head!r}") from exc
        if not (math.isfinite(onset) and math.isfinite(duration)):
            raise MalformedTal(f"non-finite TAL onset/duration: {head!r}")
        annotations += [Annotation(onset, duration, label.decode("utf-8", errors="replace"))
                        for label in parts[1:-1] if label]
    return annotations


TAL_MALFORMED = [
    b"+30\x1530\x14Sleep stage W\x14",  # missing 0x00 terminator
    b"+abc\x14label\x14\x00",           # non-numeric onset
    b"30\x14label\x14\x00",             # onset missing sign
    b"+30\x00",                          # no 0x14 before terminator
    b"+1\x152x\x14label\x14\x00",       # non-numeric duration
    b"+inf\x14label\x14\x00",            # non-finite onset
    b"+1e999\x14label\x14\x00",          # onset overflowing to inf
    b"+0\x15inf\x14label\x14\x00",       # non-finite duration
    b"+0\x15nan\x14label\x14\x00",       # duration not a number
]


class TestTal:
    @pytest.mark.parametrize("raw,expected", TAL_CASES)
    def test_grammar(self, raw, expected):
        assert parse_tal(raw) == expected

    @pytest.mark.parametrize("raw", TAL_MALFORMED)
    def test_malformed(self, raw):
        with pytest.raises(MalformedTal):
            parse_tal(raw)

    @given(st.lists(st.sampled_from([b"\x00", b"\x00\x00", b"\x14", b"\x15", b"+", b"-",
                                     b"30", b".5", b"e", b"W", b"\xff", b"inf", b"nan"]),
                    max_size=24))
    @settings(max_examples=400, deadline=None)
    def test_same_as_a_per_byte_scan(self, pieces):
        raw = b"".join(pieces)
        try:
            want = parse_tal_by_scan(raw)
        except MalformedTal as exc:
            with pytest.raises(MalformedTal) as err:
                parse_tal(raw)
            assert str(err.value) == str(exc)
        else:
            assert parse_tal(raw) == want

    def test_hypnogram_onsets_monotonic(self):
        spec = synthgen.SynthSpec(seed=5, duration_s=300)
        _, annotations = synthgen.generate(spec)
        hypnogram = synthgen.hypnogram_recording(spec, annotations)
        parsed = parse_edf(write_edf(hypnogram))
        onsets = [a.onset_s for a in parsed.annotations]
        assert onsets == sorted(onsets)
        assert len(onsets) == 10

    @given(st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 10**4),
            st.text(
                alphabet=st.characters(
                    codec="ascii", exclude_characters="\x00\x14\x15"
                ),
                min_size=1, max_size=30,
            ),
        ),
        max_size=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_round_trip(self, entries):
        annotations = [
            Annotation(float(onset) / 10, float(duration) / 10, label.strip() or "x")
            for onset, duration, label in entries
        ]
        annotations = [
            Annotation(a.onset_s, a.duration_s, a.label) for a in annotations
        ]
        parsed = parse_tal(serialize_tal(annotations))
        assert parsed == annotations
