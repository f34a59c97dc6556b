import re
import sys
import tempfile
import threading
import tracemalloc
import weakref
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psgmae import cli, evalreport, mae, numcore as nc, pipeline, synthgen
from psgmae.edf_io import Annotation, EdfRecording, SignalSpec, parse_edf, write_edf
from psgmae.pipeline import (
    DEFAULT_THRESHOLDS,
    SIGMA_FLOOR,
    ArtifactThresholds,
    CorruptCache,
    DatasetManifest,
    EmptyInput,
    EpochRecord,
    EpochSet,
    MissingChannel,
    NoLabeledEpochs,
    SleepStage,
    SubjectEntry,
    TooFewSubjects,
    map_stage_label,
    read_epoch_cache,
    segment_epochs,
    segment_stream,
    split_subjects,
    write_epoch_cache,
    _resampling,
)

from conftest import cache_parts, footer_offsets, philox, seal_cache, synth_records


# the per-epoch reference that segment_epochs' block passes must reproduce


def resample_linear(samples: np.ndarray, from_hz: float, to_hz: float) -> np.ndarray:
    """Linear-interpolation resample; queries past the end hold the last value."""
    samples, rate, out_len = _resampling(samples, from_hz, to_hz)
    if rate is None:
        return samples.copy()
    return np.interp(np.arange(out_len, dtype=np.float64) / to_hz,
                     np.arange(len(samples), dtype=np.float64) / from_hz, samples)


def normalize_epoch(samples: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Z-score one epoch; std is floored at SIGMA_FLOOR so the map inverts."""
    samples = np.asarray(samples, dtype=np.float64)
    mean, std = float(samples.mean()), max(float(samples.std()), SIGMA_FLOOR)
    return (samples - mean) / std, mean, std


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


class TestStageLabels:
    @pytest.mark.parametrize("label,expected", [
        ("Sleep stage W", SleepStage.WAKE),
        ("Sleep stage 1", SleepStage.N1),
        ("Sleep stage 2", SleepStage.N2),
        ("Sleep stage 3", SleepStage.N3),
        ("Sleep stage 4", SleepStage.N3),
        ("Sleep stage R", SleepStage.REM),
        ("Sleep stage ?", None),
        ("Movement time", None),
        ("anything else", None),
        ("", None),
    ])
    def test_mapping(self, label, expected):
        assert map_stage_label(label) is expected


def stage_codes_reference(annotations, n_epochs):
    """Per epoch: the stage code of the last annotation, in onset order, with
    a positive duration covering the whole epoch (to within 1e-9 epochs);
    -1 for an unusable label or none."""
    codes = []
    for e in range(n_epochs):
        code = -1
        for a in sorted(annotations, key=lambda a: a.onset_s):
            if a.duration_s > 0 and np.ceil(a.onset_s / 30 - 1e-9) <= e < np.floor(
                    (a.onset_s + a.duration_s) / 30 + 1e-9):
                stage = map_stage_label(a.label)
                code = -1 if stage is None else stage.code
        codes.append(code)
    return codes


class TestStageCodes:
    @given(st.lists(st.builds(
        Annotation,
        st.one_of(st.integers(-3, 40).map(lambda e: 30.0 * e), st.floats(-100.0, 1300.0)),
        st.sampled_from([0.0, -30.0, 30.0, 60.0, 45.5, 30.0 - 1e-12, 90.0, 1e4]),
        st.sampled_from([*pipeline._LABELS, "Sleep stage ?", "Movement time"])), max_size=12),
           st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_per_epoch_reference(self, annotations, n_epochs):
        got = pipeline._stage_codes(annotations, n_epochs)
        assert got.dtype == np.int8
        assert got.tolist() == stage_codes_reference(annotations, n_epochs)

    def test_overlaps_and_out_of_order_onsets(self):
        annotations = [Annotation(90.0, 60.0, "Sleep stage R"),  # the latest onset wins
                       Annotation(0.0, 300.0, "Sleep stage 2"),
                       Annotation(60.0, 60.0, "Sleep stage ?"),
                       Annotation(240.0, 0.0, "Sleep stage W"),   # no duration: ignored
                       Annotation(-30.0, 45.0, "Sleep stage 3")]  # covers only epoch -1
        codes = pipeline._stage_codes(annotations, 12)
        assert codes.tolist() == [2, 2, -1, 4, 4, 2, 2, 2, 2, 2, -1, -1]
        assert codes.tolist() == stage_codes_reference(annotations, 12)


class TestResample:
    def test_identity_when_rates_equal(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(resample_linear(x, 50.0, 50.0), x)

    def test_upsample_midpoints_and_edge_hold(self):
        out = resample_linear(np.array([0.0, 2.0]), 1.0, 2.0)
        assert np.allclose(out, [0.0, 1.0, 2.0, 2.0])

    def test_constant_down_then_up(self):
        x = np.full(100, 7.25)
        down = resample_linear(x, 100.0, 30.0)
        up = resample_linear(down, 30.0, 100.0)
        assert np.allclose(up, 7.25)

    def test_output_length(self):
        out = resample_linear(np.arange(150.0), 50.0, 100.0)
        assert len(out) == 300

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            resample_linear(np.array([]), 1.0, 2.0)

    def test_bad_rates(self):
        with pytest.raises(ValueError):
            resample_linear(np.array([1.0]), 0.0, 2.0)

    # Sleep-EDF's 1 Hz and 10 Hz channels, common PSG rates, a rate with no
    # exact period, and a channel ending 7 samples into its last epoch
    @pytest.mark.parametrize("rate, extra", [(1.0, 0), (10.0, 0), (128.0, 0), (256.0, 7),
                                             (500.0, 0), (100.0 / 3.0, 0), (50.0, 7)])
    def test_block_reads_are_the_whole_channel_resample(self, rate, extra):
        samples = philox(int(rate)).normal(0.0, 20.0, int(150 * 30 * rate) + extra)
        channel = _resampling(samples, rate, 100.0)
        whole = resample_linear(samples, rate, 100.0)
        for lo, hi in ((0, 64), (64, 128), (128, channel[2] // 3000), (3, 4)):
            got = pipeline._epochs_of(channel, slice(lo, hi))
            assert got.tobytes() == whole[lo * 3000: hi * 3000].tobytes()


class TestNormalize:
    def test_constant_epoch(self):
        normalized, mean, std = normalize_epoch(np.full(3000, 5.0))
        assert np.all(normalized == 0.0)
        assert mean == 5.0
        assert std == pipeline.SIGMA_FLOOR

    def test_already_normalized_is_stable(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        x = rng.normal(0, 1, 3000)
        x = (x - x.mean()) / x.std()
        normalized, mean, std = normalize_epoch(x)
        assert np.abs(normalized - x).max() < 1e-6

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 1000.0),
           st.floats(-500.0, 500.0))
    @settings(max_examples=50, deadline=None)
    def test_denormalize_inverts(self, seed, scale, offset):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        x = rng.normal(offset, scale, 3000)
        normalized, mean, std = normalize_epoch(x)
        restored = pipeline.denormalize(normalized, mean, std)
        tolerance = 1e-4 * max(np.abs(x).max(), 1.0)
        assert np.abs(restored - x).max() < tolerance


class TestArtifacts:
    def test_flatline_rejected(self):
        assert reject_artifact(np.zeros(3000)) is True

    def test_normal_sine_accepted(self):
        t = np.arange(3000) / 100.0
        assert reject_artifact(50.0 * np.sin(2 * np.pi * 10 * t)) is False

    def test_amplitude_spike_rejected(self):
        t = np.arange(3000) / 100.0
        x = 50.0 * np.sin(2 * np.pi * 10 * t)
        x[1500] = 600.0
        assert reject_artifact(x) is True

    def test_emg_threshold_is_looser(self):
        t = np.arange(3000) / 100.0
        x = 400.0 * np.sin(2 * np.pi * 30 * t)
        assert reject_artifact(x, "eeg") is True
        assert reject_artifact(x, "emg") is False


def annotations_for(stage_labels):
    return [
        Annotation(float(30 * i), 30.0, label)
        for i, label in enumerate(stage_labels)
    ]


class TestSegmentation:
    def test_synthetic_five_minutes(self):
        records = synth_records(seed=0, minutes=5.0)
        assert len(records) == 10
        stages = [r.stage for r in records]
        assert stages == [
            SleepStage.WAKE, SleepStage.WAKE, SleepStage.N1, SleepStage.N1,
            SleepStage.N2, SleepStage.N2, SleepStage.N3, SleepStage.N3,
            SleepStage.REM, SleepStage.REM,
        ]
        assert [r.epoch_index for r in records] == list(range(10))

    def test_record_invariants(self):
        for record in synth_records(seed=1, minutes=5.0):
            assert len(record.input_samples) == 3000
            for target in record.targets.values():
                assert len(target) == 3000
            assert record.input_channel not in record.targets
            for _, std in record.norm_params.values():
                assert std >= pipeline.SIGMA_FLOOR

    def test_all_unknown_stages(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=2, duration_s=120)
        )
        unknown = [Annotation(a.onset_s, a.duration_s, "Sleep stage ?")
                   for a in annotations]
        with pytest.raises(NoLabeledEpochs):
            segment_epochs(recording, unknown, synthgen.INPUT_CHANNEL,
                           list(synthgen.DEFAULT_TARGETS))

    def test_spike_drops_one_epoch(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=3, duration_s=300)
        )
        baseline = segment_epochs(recording, annotations,
                                  synthgen.INPUT_CHANNEL,
                                  list(synthgen.DEFAULT_TARGETS))
        idx = recording.signal_index(synthgen.INPUT_CHANNEL)
        recording.samples[idx][3 * 3000 + 42] = 600.0  # spike inside epoch 3
        spiked = segment_epochs(recording, annotations,
                                synthgen.INPUT_CHANNEL,
                                list(synthgen.DEFAULT_TARGETS))
        assert len(spiked) == len(baseline) - 1
        assert 3 not in [r.epoch_index for r in spiked]

    def test_stage_distribution_matches_hypnogram(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=4, duration_s=600)
        )
        records = segment_epochs(recording, annotations,
                                 synthgen.INPUT_CHANNEL,
                                 list(synthgen.DEFAULT_TARGETS))
        expected = {}
        for annotation in annotations:
            stage = map_stage_label(annotation.label)
            expected[stage] = expected.get(stage, 0) + 1
        got = {}
        for record in records:
            got[record.stage] = got.get(record.stage, 0) + 1
        assert got == expected

    def test_missing_channel(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=5, duration_s=60)
        )
        with pytest.raises(MissingChannel):
            segment_epochs(recording, annotations, "EEG C3-A2",
                           list(synthgen.DEFAULT_TARGETS))

    def test_input_in_targets_rejected(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=6, duration_s=60)
        )
        with pytest.raises(ValueError):
            segment_epochs(recording, annotations, synthgen.INPUT_CHANNEL,
                           [synthgen.INPUT_CHANNEL, synthgen.EOG_CHANNEL])

    def test_wake_trimming(self):
        # 70 leading wake epochs, 2 sleep epochs, 70 trailing wake epochs
        labels = (["Sleep stage W"] * 70 + ["Sleep stage 2"] * 2
                  + ["Sleep stage W"] * 70)
        spec = synthgen.SynthSpec(
            seed=7, duration_s=30 * len(labels),
            stage_cycle=(("W", 70), ("2", 2), ("W", 70)),
        )
        recording, _ = synthgen.generate(spec)
        records = segment_epochs(recording, annotations_for(labels),
                                 synthgen.INPUT_CHANNEL,
                                 list(synthgen.DEFAULT_TARGETS))
        indices = [r.epoch_index for r in records]
        # 60 wake epochs kept before the first and after the last sleep epoch
        assert min(indices) == 70 - 60
        assert max(indices) == 71 + 60
        assert len(records) == 60 + 2 + 60

    def test_epoch_budget_invariant(self):
        recording, annotations = synthgen.generate(
            synthgen.SynthSpec(seed=8, duration_s=300)
        )
        records = segment_epochs(recording, annotations,
                                 synthgen.INPUT_CHANNEL,
                                 list(synthgen.DEFAULT_TARGETS))
        shortest = min(
            round(len(recording.samples[i])
                  * 100.0 / recording.sample_rate(i))
            for i in range(len(recording.signals))
        )
        assert len(records) * 3000 <= shortest


RATES = {"EEG in": 100, "EOG fast": 200, "EMG slow": 50}
STAGE_LABELS = ["Sleep stage W", "Sleep stage 1", "Sleep stage 2", "Sleep stage 3",
                "Sleep stage 4", "Sleep stage R", "Sleep stage ?", "Movement time"]


def mixed_rate_recording(n_epochs, seed, labels=None, short_s=0, spikes=(), flat=False,
                         record_s=1):
    """Noise channels at 100, 200 and 50 Hz (plus an all-zero one when flat),
    in ``record_s``-second records, scored with ``labels`` (random labels,
    some unusable, when None). The 200 Hz channel ends ``short_s`` seconds
    early; each epoch in ``spikes`` gets a 900 uV sample on the input channel.
    Without ``short_s`` write_edf takes it, quantized to 2000/65535 uV steps."""
    rng = philox(seed)
    seconds = 30 * n_epochs
    rates = {**RATES, "EEG flat": 100} if flat else RATES
    samples = {name: rng.normal(0.0, 20.0, seconds * rate) for name, rate in rates.items()}
    if flat:
        samples["EEG flat"][:] = 0.0
    samples["EOG fast"] = samples["EOG fast"][:len(samples["EOG fast"]) - 200 * short_s]
    for e in spikes:
        samples["EEG in"][e * 3000 + 1234] = 900.0
    recording = EdfRecording(
        patient_id="P", record_duration_s=record_s, num_records=seconds // record_s,
        signals=[SignalSpec(name, physical_min=-1000.0, physical_max=1000.0,
                            samples_per_record=rate * record_s) for name, rate in rates.items()],
        samples=list(samples.values()))
    if labels is None:
        labels = [STAGE_LABELS[i] for i in rng.integers(0, len(STAGE_LABELS), n_epochs)]
    return recording, annotations_for(labels), list(rates)


def per_epoch_segmentation(recording, annotations, names,
                           thresholds=pipeline.DEFAULT_THRESHOLDS, wake_trim_epochs=60):
    """(kept epoch indices, signals, norm) built epoch by epoch from the public
    resample_linear, reject_artifact and normalize_epoch."""
    resampled = [resample_linear(recording.samples[i], recording.sample_rate(i), 100.0)
                 for i in map(recording.signal_index, names)]
    n_epochs = min(int(recording.duration_s() // 30), min(map(len, resampled)) // 3000)
    stages = [map_stage_label(a.label) for a in annotations][:n_epochs]  # one per epoch
    sleep = [e for e, s in enumerate(stages) if s not in (None, SleepStage.WAKE)]
    lo, hi = (sleep[0] - wake_trim_epochs, sleep[-1] + wake_trim_epochs) if sleep else (
        0, n_epochs - 1)
    kept, signals, norm = [], [], []
    for e, stage in enumerate(stages):
        windows = [arr[e * 3000: (e + 1) * 3000] for arr in resampled]
        if stage is None or (stage is SleepStage.WAKE and not lo <= e <= hi) or any(
                reject_artifact(w, pipeline.channel_kind(n), thresholds)
                for n, w in zip(names, windows)):
            continue
        kept.append(e)
        normalized = [normalize_epoch(w) for w in windows]
        signals.append([x for x, _, _ in normalized])
        norm.append([(mean, std) for _, mean, std in normalized])
    return (kept, np.array(signals, dtype=np.float32).reshape(-1, len(names), 3000),
            np.array(norm, dtype=np.float32).reshape(-1, len(names), 2))


def assert_segments_like_reference(recording, annotations, names, **kwargs):
    got = segment_epochs(recording, annotations, names[0], names[1:], **kwargs)
    kept, signals, norm = per_epoch_segmentation(recording, annotations, names, **kwargs)
    assert got.epoch_index.tolist() == kept
    assert np.array_equal(got.signals, signals)
    assert np.array_equal(got.norm, norm)
    return got


class TestBlockSegmentation:
    """segment_epochs works in SEGMENT_BLOCK-epoch blocks on every core; its
    bytes must be those of the per-epoch reference, whatever the core count."""

    @pytest.mark.parametrize("n_epochs, short_s", [
        (150, 0),    # 64 + 64 + a partial block of 22
        (10, 0),     # fewer epochs than one block
        (150, 95),   # the 200 Hz channel ends inside epoch 146
        (128, 0),    # whole blocks only
    ])
    @pytest.mark.parametrize("cores", [1, 2, 7])
    def test_bit_equal_to_per_epoch_reference(self, monkeypatch, n_epochs, short_s, cores):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        recording, annotations, names = mixed_rate_recording(n_epochs, n_epochs, short_s=short_s)
        # no flatline limit: epochs past a short channel's end would be flat, not dropped
        got = assert_segments_like_reference(recording, annotations, names,
                                             thresholds=ArtifactThresholds(flatline_std=0.0))
        assert len(got) > 0
        if short_s:
            assert got.epoch_index.max() < n_epochs - 4

    def test_spikes_dropped_as_the_reference_drops_them(self):
        spikes = (0, 63, 64, 100, 149)
        recording, annotations, names = mixed_rate_recording(
            150, 1, labels=["Sleep stage 2"] * 150, spikes=spikes)
        got = assert_segments_like_reference(recording, annotations, names)
        assert got.epoch_index.tolist() == [e for e in range(150) if e not in spikes]

    def test_flat_channel_at_the_sigma_floor(self):
        recording, annotations, names = mixed_rate_recording(
            70, 2, labels=["Sleep stage 3"] * 70, flat=True)
        assert len(segment_epochs(recording, annotations, names[0], names[1:])) == 0
        got = assert_segments_like_reference(
            recording, annotations, names, thresholds=ArtifactThresholds(flatline_std=0.0))
        assert len(got) == 70
        assert np.all(got.norm[:, 3, 1] == np.float32(pipeline.SIGMA_FLOOR))

    def test_wake_trimming(self):
        labels = ["Sleep stage W"] * 150 + ["Sleep stage 2"] * 5 + ["Sleep stage W"] * 100
        recording, annotations, names = mixed_rate_recording(len(labels), 3, labels=labels)
        got = assert_segments_like_reference(recording, annotations, names, wake_trim_epochs=70)
        assert got.epoch_index.tolist() == list(range(80, 225))

    def test_read_only_recording_segments(self):
        recording, annotations, names = mixed_rate_recording(150, 4)
        before = [arr.copy() for arr in recording.samples]
        writable = segment_epochs(recording, annotations, names[0], names[1:])
        for arr in recording.samples:
            arr.flags.writeable = False
        frozen = segment_epochs(recording, annotations, names[0], names[1:])
        assert np.array_equal(frozen.signals, writable.signals)
        assert np.array_equal(frozen.norm, writable.norm)
        for arr, old in zip(recording.samples, before):
            assert np.array_equal(arr, old)
        # parse_edf's channels are int16 views over the immutable file bytes
        parsed = parse_edf(write_edf(recording))
        assert not any(d.records.flags.writeable for d in parsed.samples.digital)
        from_bytes = segment_epochs(parsed, annotations, names[0], names[1:])
        converted = segment_epochs(replace(parsed, samples=list(parsed.samples)),
                                   annotations, names[0], names[1:])
        assert from_bytes.signals.tobytes() == converted.signals.tobytes()
        assert from_bytes.norm.tobytes() == converted.norm.tobytes()

    # 50-s records: a 64-epoch block (1920 s) starts and ends inside a record
    @pytest.mark.parametrize("record_s", [1, 30, 50])
    @pytest.mark.parametrize("cores", [1, 2, 7])
    def test_parsed_night_bit_equal_to_its_converted_arrays(self, monkeypatch, record_s, cores):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        recording, annotations, names = mixed_rate_recording(
            150, 8, spikes=(0, 63, 64, 100, 149), record_s=record_s)
        data = bytearray(write_edf(recording))  # writable, so a write to it would show
        original = bytes(data)
        parsed = parse_edf(data)
        assert parsed.num_records == 4500 // record_s
        got = segment_epochs(parsed, annotations, names[0], names[1:])
        want = assert_segments_like_reference(
            replace(parsed, samples=list(parsed.samples)), annotations, names)
        assert len(got) > 0
        assert got.epoch_index.tolist() == want.epoch_index.tolist()
        assert got.stage.tolist() == want.stage.tolist()
        assert got.signals.tobytes() == want.signals.tobytes()
        assert got.norm.tobytes() == want.norm.tobytes()
        assert bytes(data) == original

    def test_trimmed_wake_blocks_are_never_converted(self, monkeypatch):
        converted = {}
        real = SignalSpec.digital_to_physical

        def digital_to_physical(spec, digital):
            converted[spec.label] = converted.get(spec.label, 0) + len(digital)
            return real(spec, digital)

        recording, annotations, names = artifact_night(record_s=30)
        parsed = parse_edf(write_edf(recording))
        monkeypatch.setattr(SignalSpec, "digital_to_physical", digital_to_physical)
        segment_epochs(parsed, annotations, names[0], names[1:], wake_trim_epochs=20)
        # blocks 0-3 hold labelled epochs: records (30 s, one epoch each) 0-255 at
        # 100 Hz; the other rates' two-sample margins reach one record further on
        # each side of a block, but for block 0's start. Of block 4 (records
        # 256-289, all trimmed wake) only record 256 is read, as block 3's margin.
        assert converted == {"EEG in": 256, "EOG fast": 256 + 7, "EMG slow": 256 + 7}

    def test_empty_channel_raises(self):
        recording, annotations, names = mixed_rate_recording(2, 9)
        recording = replace(recording, num_records=0,
                            samples=[arr[:0] for arr in recording.samples])
        for form in (recording, parse_edf(write_edf(recording))):
            with pytest.raises(EmptyInput):
                segment_epochs(form, annotations, names[0], names[1:])

    @pytest.mark.parametrize("n_epochs, cores, pooled", [
        (150, 1, False), (150, 2, True), (150, 7, True), (64, 7, False), (10, 2, False)])
    def test_blocks_run_on_a_pool_only_with_two_blocks_and_cores(
            self, monkeypatch, n_epochs, cores, pooled):
        real, threads, spans = pipeline._epochs_of, set(), set()

        def epochs_of(channel, span):
            threads.add(threading.get_ident())
            spans.add((span.start, span.stop))
            return real(channel, span)

        monkeypatch.setattr(nc, "cores", lambda: cores)
        monkeypatch.setattr(pipeline, "_epochs_of", epochs_of)
        recording, annotations, names = mixed_rate_recording(
            n_epochs, 5, labels=["Sleep stage 2"] * n_epochs)
        segment_epochs(recording, annotations, names[0], names[1:])
        assert (threading.get_ident() not in threads) == pooled
        # the blocks are SEGMENT_BLOCK epochs whatever the core count
        assert spans == {(lo, min(lo + 64, n_epochs)) for lo in range(0, n_epochs, 64)}

    def test_stress_more_workers_than_blocks_bit_equal_to_serial(self, monkeypatch, fresh_pool):
        recording, annotations, names = mixed_rate_recording(200, 6)  # 4 blocks
        monkeypatch.setattr(nc, "cores", lambda: 1)
        serial = segment_epochs(recording, annotations, names[0], names[1:])
        monkeypatch.setattr(nc, "cores", lambda: 11)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                results.append(segment_epochs(recording, annotations, names[0], names[1:]))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert np.array_equal(got.epoch_index, serial.epoch_index)
            assert np.array_equal(got.signals, serial.signals)
            assert np.array_equal(got.norm, serial.norm)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_error_in_a_later_block_propagates(self, monkeypatch, cores):
        class Raised(Exception):
            pass

        real = pipeline._epochs_of

        def epochs_of(channel, span):
            if span.start == 2 * pipeline.SEGMENT_BLOCK:
                raise Raised
            return real(channel, span)

        recording, annotations, names = mixed_rate_recording(
            150, 7, labels=["Sleep stage 2"] * 150)
        monkeypatch.setattr(nc, "cores", lambda: cores)
        monkeypatch.setattr(pipeline, "_epochs_of", epochs_of)
        with pytest.raises(Raised):
            segment_epochs(recording, annotations, names[0], names[1:])

    @pytest.mark.parametrize("cores", [1, 2])
    def test_each_block_reads_each_channel_once(self, monkeypatch, cores):
        real, calls = pipeline._epochs_of, []

        def epochs_of(channel, span):
            calls.append((id(channel[0]), span.start, span.stop))
            return real(channel, span)

        monkeypatch.setattr(nc, "cores", lambda: cores)
        monkeypatch.setattr(pipeline, "_epochs_of", epochs_of)
        recording, annotations, names = artifact_night()
        parsed = parse_edf(write_edf(recording))
        # a channel is the array in memory, or parse_edf's DigitalSignal of it
        for form, channels in ((recording, recording.samples), (parsed, parsed.samples.digital)):
            calls.clear()
            segment_epochs(form, annotations, names[0], names[1:], wake_trim_epochs=20)
            # blocks 0-3 hold labelled epochs; block 4 (epochs 256-289) is all trimmed wake
            assert sorted(calls) == sorted((id(channel), lo, lo + 64) for channel in channels
                                           for lo in (0, 64, 128, 192))

    @pytest.mark.parametrize("cores", [1, 2, 7])
    def test_artifacts_in_many_blocks_with_wake_trimmed(self, monkeypatch, fresh_pool, cores):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        recording, annotations, names = artifact_night()
        got = assert_segments_like_reference(recording, annotations, names, wake_trim_epochs=20)
        assert got.epoch_index.tolist() == [e for e in range(60, 250) if e not in ARTIFACTS]

    @pytest.mark.parametrize("cores", [1, 2, 7])
    def test_memory_is_the_labelled_rows_and_a_block_per_core(
            self, monkeypatch, fresh_pool, cores):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        recording, annotations, names = artifact_night()
        segment_epochs(recording, annotations, names[0], names[1:])  # the pool exists
        tracemalloc.start()
        try:
            got = segment_epochs(recording, annotations, names[0], names[1:], wake_trim_epochs=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        labelled_rows = 190 * len(names) * pipeline.EPOCH_SAMPLES * 4
        # a block's temporaries are at most four float64 arrays of one channel of one
        # block at 100 Hz: the 200 Hz channel's input times count two, its output
        # times and interpolated samples one each; after np.interp, the samples, their
        # difference from the mean and its square, one more for a partly kept block
        block_array = pipeline.SEGMENT_BLOCK * pipeline.EPOCH_SAMPLES * 8
        # (and 128 KiB for the per-epoch columns and each block's per-epoch statistics)
        assert peak <= labelled_rows + min(cores, 4) * 4 * block_array + 2**17
        assert len(got) == 190 - len(ARTIFACTS)

    def test_parsing_and_segmenting_never_hold_a_whole_channel(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(nc, "cores", lambda: 1)
        recording, annotations, names = artifact_night(record_s=30)
        data = write_edf(recording)
        tracemalloc.start()
        try:
            got = segment_epochs(parse_edf(data), annotations, names[0], names[1:],
                                 wake_trim_epochs=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        labelled_rows = 190 * len(names) * pipeline.EPOCH_SAMPLES * 4
        block_array = pipeline.SEGMENT_BLOCK * pipeline.EPOCH_SAMPLES * 8
        # at most six block arrays at once, in the 200 Hz channel's np.interp: its
        # converted span and input times count two each, output times and samples
        # one each. The three channels converted whole would be 15.9 block arrays.
        assert peak <= labelled_rows + 7 * block_array
        assert len(got) == 190 - len(ARTIFACTS)


class Raised(Exception):
    pass


def night_files(directory, patient_ids=("P", "Q")):
    """artifact_night as PSG and hypnogram EDF files, one pair per patient id; and
    its channel names."""
    recording, annotations, names = artifact_night()
    nights = []
    for patient in patient_ids:
        psg, hyp = directory / f"{patient}-PSG.edf", directory / f"{patient}-Hypnogram.edf"
        psg.write_bytes(write_edf(replace(recording, patient_id=patient)))
        hyp.write_bytes(write_edf(EdfRecording(
            patient_id=patient, record_duration_s=float(recording.duration_s()), num_records=1,
            annotations=annotations)))
        nights.append((psg, hyp))
    return nights, names


def taking(stream, taken):
    """``stream`` as is, each piece added to ``taken`` as the writer takes it."""
    for piece in stream:
        taken.append(piece)
        yield piece


class TestStreamedCache:
    """segment_stream hands the writer each block's kept rows and their CRCs, in
    block order, as soon as the block and every earlier one are done."""

    @pytest.mark.parametrize("cores", [1, 2, 7])
    def test_preprocess_cache_is_the_cache_of_segment_epochs(
            self, monkeypatch, fresh_pool, tmp_path, cores):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        nights, names = night_files(tmp_path)
        argv = ["preprocess", "--input-channel", names[0], "--targets", ",".join(names[1:]),
                "--out", str(tmp_path / "data")]
        for psg, hyp in nights:
            argv += ["--psg", str(psg), "--hypnogram", str(hyp)]
        assert cli.main(argv) == 0
        parts = [segment_epochs(parse_edf(psg.read_bytes()),
                                parse_edf(hyp.read_bytes()).annotations, names[0], names[1:])
                 for psg, hyp in nights]
        write_epoch_cache(tmp_path / "reference.psgepo", parts)
        # the default 60-epoch wake trim labels epochs 20-289; the artifacts drop
        assert parts[0].epoch_index.tolist() == [e for e in range(20, 290) if e not in ARTIFACTS]
        assert (tmp_path / "data" / "epochs.psgepo").read_bytes() == \
            (tmp_path / "reference.psgepo").read_bytes()

    @pytest.mark.parametrize("cores", [1, 2, 7])
    def test_each_block_carries_the_crcs_of_the_rows_written(
            self, monkeypatch, fresh_pool, tmp_path, cores):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        recording, annotations, names = artifact_night()
        *pieces, epochs = segment_stream(recording, annotations, names[0], names[1:],
                                         wake_trim_epochs=20)
        # blocks 0-3 hold labelled epochs; each hands on a view of the set's rows
        assert [len(signals) for signals, _ in pieces] == [3, 62, 62, 56]
        for signals, crcs in pieces:
            assert np.shares_memory(signals, epochs.signals)
            assert crcs.tolist() == [zlib.crc32(row) for row in signals]
        assert np.concatenate([signals for signals, _ in pieces]).tobytes() == \
            epochs.signals.tobytes()
        taken, path = [], tmp_path / "epochs.psgepo"
        write_epoch_cache(path, [taking(segment_stream(
            recording, annotations, names[0], names[1:], wake_trim_epochs=20), taken)])
        blob = path.read_bytes()
        _, footer = cache_parts(blob)
        at, rows = footer_offsets(footer), np.frombuffer(blob, "<f4", len(epochs) * 9000, 8)
        written = np.frombuffer(footer, "<u4", len(epochs), at["crc"])
        assert written.tolist() == [zlib.crc32(row) for row in rows.reshape(-1, 9000)]
        assert written.tolist() == [crc for _, crcs in taken[:-1] for crc in crcs.tolist()]
        assert read_epoch_cache(path).signals.tobytes() == epochs.signals.tobytes()

    def test_first_block_reaches_the_writer_while_a_later_one_is_segmented(
            self, monkeypatch, fresh_pool, tmp_path):
        """The last block waits until the writer has taken the first: a stream that
        waited for every block first would time out here."""
        monkeypatch.setattr(nc, "cores", lambda: 2)
        recording, annotations, names = artifact_night()
        real, first_taken = pipeline._epochs_of, threading.Event()

        def epochs_of(channel, span):
            if span.start == 3 * pipeline.SEGMENT_BLOCK:
                assert first_taken.wait(timeout=30), "the first block was not taken"
            return real(channel, span)

        def signalling(stream):
            yield next(stream)
            first_taken.set()
            yield from stream

        monkeypatch.setattr(pipeline, "_epochs_of", epochs_of)
        write_epoch_cache(tmp_path / "epochs.psgepo", [signalling(segment_stream(
            recording, annotations, names[0], names[1:], wake_trim_epochs=20))])
        assert len(read_epoch_cache(tmp_path / "epochs.psgepo")) == 190 - len(ARTIFACTS)

    def test_stress_rows_move_down_while_later_blocks_fill(self, monkeypatch, fresh_pool,
                                                           tmp_path):
        """More lanes than cores and a short switch interval: the writer moves and
        writes rows of finished blocks while lanes fill the later ones of one buffer."""
        recording, annotations, names = artifact_night()
        monkeypatch.setattr(nc, "cores", lambda: 1)
        write_epoch_cache(tmp_path / "serial.psgepo", [segment_stream(
            recording, annotations, names[0], names[1:], wake_trim_epochs=20)])
        monkeypatch.setattr(nc, "cores", lambda: 11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in range(3):
                write_epoch_cache(tmp_path / f"{run}.psgepo", [segment_stream(
                    recording, annotations, names[0], names[1:], wake_trim_epochs=20)])
        finally:
            sys.setswitchinterval(interval)
        for run in range(3):
            assert (tmp_path / f"{run}.psgepo").read_bytes() == \
                (tmp_path / "serial.psgepo").read_bytes()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_failing_lane_after_written_blocks_leaves_the_earlier_cache(
            self, monkeypatch, fresh_pool, tmp_path, cores):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, synth_records(seed=15, minutes=1.0))
        before = path.read_bytes()
        recording, annotations, names = artifact_night()
        first = segment_epochs(recording, annotations, names[0], names[1:], subject_id="A")
        real, taken = pipeline._epochs_of, []

        def epochs_of(channel, span):
            if span.start == 2 * pipeline.SEGMENT_BLOCK:
                raise Raised
            return real(channel, span)

        monkeypatch.setattr(pipeline, "_epochs_of", epochs_of)
        with pytest.raises(Raised):
            write_epoch_cache(path, [first, taking(segment_stream(
                recording, annotations, names[0], names[1:], subject_id="B",
                wake_trim_epochs=20), taken)])
        assert len(taken) == 2  # blocks 0 and 1 reached the writer
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epochs.psgepo"]

    def test_a_night_without_labels_after_a_written_night_leaves_the_earlier_cache(
            self, tmp_path):
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, synth_records(seed=15, minutes=1.0))
        before = path.read_bytes()
        recording, annotations, names = artifact_night()
        taken, unusable = [], annotations_for(["Sleep stage ?"] * 290)
        with pytest.raises(NoLabeledEpochs):
            write_epoch_cache(path, [
                taking(segment_stream(recording, annotations, names[0], names[1:],
                                      subject_id="A"), taken),
                segment_stream(recording, unusable, names[0], names[1:], subject_id="B")])
        assert len(taken) == 6  # the first night's five blocks and its set
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epochs.psgepo"]


# epochs with a 900 uV spike on the input or a -800 uV one on the 200 Hz target:
# the first and last epoch of blocks 1 and 2, and others in blocks 0 and 3
ARTIFACTS = (63, 64, 127, 128, 191, 200, 245)


def artifact_night(record_s=1):
    """290 epochs, 5 blocks: 80 wake, 150 N2, 60 wake; with a 20-epoch wake
    trim epochs 60-249 are labelled, and ARTIFACTS are rejected among them."""
    labels = ["Sleep stage W"] * 80 + ["Sleep stage 2"] * 150 + ["Sleep stage W"] * 60
    recording, annotations, names = mixed_rate_recording(
        len(labels), 11, labels=labels, spikes=(64, 127, 128, 191, 200), record_s=record_s)
    for e in (63, 245):
        recording.samples[1][e * 6000 + 4000] = -800.0  # an even sample: on the 100 Hz grid
    return recording, annotations, names


def manifest_of(n):
    return DatasetManifest(subjects=[
        SubjectEntry(subject_id=f"S{i:03d}", psg_path="", hypnogram_path="",
                     stage_counts={})
        for i in range(n)
    ])


class TestSplits:
    def test_twenty_subjects(self):
        split = split_subjects(manifest_of(20), seed=0,
                               fractions=(0.7, 0.1, 0.2))
        sizes = {"train": 0, "val": 0, "test": 0}
        for name in split.splits.values():
            sizes[name] += 1
        assert sizes == {"train": 14, "val": 2, "test": 4}

    def test_determinism(self):
        a = split_subjects(manifest_of(12), seed=123, fractions=(0.7, 0.1, 0.2))
        b = split_subjects(manifest_of(12), seed=123, fractions=(0.7, 0.1, 0.2))
        assert a.splits == b.splits

    @given(st.integers(3, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition(self, n, seed):
        manifest = manifest_of(n)
        split = split_subjects(manifest, seed=seed, fractions=(0.7, 0.1, 0.2))
        assert sorted(split.splits) == sorted(manifest.subject_ids())
        assert set(split.splits.values()) <= {"train", "val", "test"}

    def test_too_few_subjects(self):
        with pytest.raises(TooFewSubjects):
            split_subjects(manifest_of(2), seed=0, fractions=(0.7, 0.1, 0.2))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_subjects(manifest_of(5), seed=0, fractions=(0.5, 0.1, 0.2))

    @given(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0), st.integers(0, 2),
           st.sampled_from([None, float("nan"), float("inf"), -float("inf")]))
    @settings(max_examples=80, deadline=None)
    def test_fraction_outside_unit_interval_rejected(self, a, b, at, odd):
        """Fractions that sum to 1 but leave [0, 1], or are not finite, are
        refused by name, never turned into subject counts."""
        fractions = [a, b, 1.0 - a - b]
        if odd is not None:
            fractions[at] = odd
        fractions = tuple(fractions)
        if odd is None and all(0.0 <= f <= 1.0 for f in fractions):
            return  # a valid split: see test_valid_fractions_give_every_subject_a_split
        with pytest.raises(ValueError, match=r"^split fractions must be 3 values in \[0, 1\] "
                                             r"summing to 1: " + re.escape(str(fractions))):
            split_subjects(manifest_of(10), seed=0, fractions=fractions)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(3, 40))
    @settings(max_examples=60, deadline=None)
    def test_valid_fractions_give_every_subject_a_split(self, a, b, n):
        fractions = (a, (1.0 - a) * b, max(0.0, 1.0 - a - (1.0 - a) * b))
        split = split_subjects(manifest_of(n), seed=1, fractions=fractions)
        counts = [list(split.splits.values()).count(name) for name in ("train", "val", "test")]
        assert sum(counts) == n
        for count, fraction in zip(counts, fractions):
            assert np.floor(n * fraction) <= count <= np.floor(n * fraction) + 1


class TestCacheAndManifest:
    def test_cache_round_trip(self, tmp_path):
        records = synth_records(seed=9, minutes=2.5)
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, records)
        loaded = read_epoch_cache(path)
        assert len(loaded) == len(records)
        for got, want in zip(loaded, records):
            assert got.subject_id == want.subject_id
            assert got.epoch_index == want.epoch_index
            assert got.stage == want.stage
            assert got.input_channel == want.input_channel
            assert np.array_equal(got.input_samples, want.input_samples)
            assert list(got.targets) == list(want.targets)
            for name in want.targets:
                assert np.array_equal(got.targets[name], want.targets[name])
            for name, (mean, std) in want.norm_params.items():
                got_mean, got_std = got.norm_params[name]
                assert got_mean == np.float32(mean)
                assert got_std == np.float32(std)

    def test_cache_bytes_deterministic(self, tmp_path):
        records = synth_records(seed=10, minutes=1.5)
        write_epoch_cache(tmp_path / "a", records)
        write_epoch_cache(tmp_path / "b", records)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_cache_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(CorruptCache):
            read_epoch_cache(path)

    def test_old_cache_format_asks_for_preprocess(self, tmp_path):
        path = tmp_path / "old"
        for magic in (b"PSGEPO01", b"PSGEPO02"):
            path.write_bytes(magic + b"\x00" * 40)
            with pytest.raises(CorruptCache, match="re-run preprocess"):
                read_epoch_cache(path)

    @pytest.mark.parametrize("damage", ["zero_channels", "subject_cut", "name_cut"])
    def test_cache_bad_record_header(self, tmp_path, damage):
        """A footer whose counts disagree with it under a valid footer CRC, and
        a file cut inside its name table."""
        epochs = synth_records(seed=11, minutes=1.0)
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, epochs)
        head, footer = cache_parts(path.read_bytes())
        at = footer_offsets(footer)
        if damage == "zero_channels":
            blob = seal_cache(head, footer[:4] + b"\x00\x00" + footer[6:])
        elif damage == "subject_cut":
            blob = seal_cache(head, footer[:at["subject"] + 1])
        else:
            blob = (head + footer)[:len(head) + at["table"] + 3]
        path.write_bytes(blob)
        message = {"zero_channels": "no channels", "subject_cut": "malformed"}
        with pytest.raises(CorruptCache, match=message.get(damage, "truncated")):
            read_epoch_cache(path)

    @pytest.mark.parametrize("damage,message", [
        ("stage", "stage code"), ("subject", "subject index"), ("name_utf8", "utf-8"),
        ("trailing", "trailing"), ("crc", "checksum"), ("rows", "truncated"),
        ("footer_byte", "name table"), ("channels", "malformed"),
    ])
    def test_cache_damage_behind_a_valid_checksum(self, tmp_path, damage, message):
        """Content the footer's CRC cannot vouch for, the footer resealed after
        each edit, is still checked."""
        epochs = synth_records(seed=11, minutes=1.0)
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, epochs)
        head, footer = cache_parts(path.read_bytes())
        footer, n, at = bytearray(footer), len(epochs), footer_offsets(footer)
        if damage == "stage":
            footer[at["table"] - 1] = len(pipeline.STAGES)
        elif damage == "subject":
            footer[at["subject"]: at["stage"]] = b"\x05\x00" * n
        elif damage == "name_utf8":
            footer[at["table"] + 2] = 0xFF
        elif damage == "trailing":
            head += b"\x00"
        elif damage == "rows":  # one row fewer than the footer counts
            head = head[:-4 * 3000 * len(epochs.channels)]
        elif damage == "footer_byte":
            footer += b"\x00"
        elif damage == "channels":  # one channel more than the columns hold
            footer[4] += 1
        blob = seal_cache(head, bytes(footer))
        if damage == "crc":
            blob = blob[:-12] + bytes([blob[-12] ^ 0x01]) + blob[-11:]
        path.write_bytes(blob)
        with pytest.raises(CorruptCache, match=message):
            read_epoch_cache(path)

    def test_cache_fuzz_truncation_and_flips(self, tmp_path):
        """Truncation anywhere, random bit flips, and every byte of the magic,
        the first rows, the footer and the trailer flipped: reading the whole
        cache rejects each."""
        epochs = synth_records(seed=12, minutes=1.0)
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, epochs)
        data = path.read_bytes()
        footer_start = len(cache_parts(data)[0])
        damaged = [data[:cut] for cut in range(0, len(data), max(len(data) // 37, 1))]
        damaged += [data[:cut] for cut in range(footer_start, len(data))]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(12)))
        for pos, bit in zip(rng.integers(0, len(data), 150), rng.integers(0, 8, 150)):
            flipped = bytearray(data)
            flipped[pos] ^= 1 << int(bit)
            damaged.append(bytes(flipped))
        for pos in [*range(64), *range(footer_start, len(data))]:
            flipped = bytearray(data)
            flipped[pos] ^= 0xFF
            damaged.append(bytes(flipped))
        for blob in damaged:
            path.write_bytes(blob)
            with pytest.raises(CorruptCache):
                read_epoch_cache(path)

    def test_reader_reads_and_checks_only_the_rows_asked(self, tmp_path):
        """A damaged row fails the reads that ask for it, alone or in a run,
        and no other read; the footer's columns do not depend on it."""
        epochs = EpochSet.concat([synth_records(seed=13, minutes=2.5, subject_id="A"),
                                  synth_records(seed=14, minutes=2.5, subject_id="B")])
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, epochs)
        head, footer = cache_parts(path.read_bytes())
        row, bad = 4 * 3000 * len(epochs.channels), 6
        head = bytearray(head)
        head[8 + bad * row + 123] ^= 0x08
        path.write_bytes(seal_cache(bytes(head), footer))
        with pipeline.EpochCacheReader(path) as reader:
            assert len(reader) == len(epochs) and reader.subjects == ("A", "B")
            for rows in ([0, 1, 2], [5, 7, 9], [len(epochs) - 1], [], [9, 3]):
                got = reader.read(rows)
                assert got.shape == (len(rows), *epochs.signals.shape[1:])
                assert got.tobytes() == epochs.signals[rows].tobytes()
            for rows in ([bad], [4, 5, bad, 7], [2, bad]):
                with pytest.raises(CorruptCache, match=f"row {bad} fails its checksum"):
                    reader.read(rows)
            for rows in ([len(epochs)], [-1, 0]):
                with pytest.raises(ValueError):
                    reader.read(rows)
        with pytest.raises(CorruptCache):
            read_epoch_cache(path)

    def test_failed_part_leaves_the_earlier_cache(self, tmp_path):
        """A part that fails while the cache is written leaves the earlier file
        as it was and no temporary file."""
        path = tmp_path / "epochs.psgepo"
        write_epoch_cache(path, synth_records(seed=15, minutes=1.0))
        before = path.read_bytes()

        def parts():
            yield synth_records(seed=16, minutes=1.0, subject_id="A")
            raise ValueError("night 2 failed")

        with pytest.raises(ValueError, match="night 2 failed"):
            write_epoch_cache(path, parts())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epochs.psgepo"]

    def test_parts_are_held_one_at_a_time(self, tmp_path):
        """The writer drops each part, its signals included, before it asks for
        the next one, so a stream of nights is held one night at a time."""
        signals = []

        def part(seed):
            assert all(ref() is None for ref in signals), "an earlier part is still held"
            epochs = synth_records(seed=seed, minutes=1.0, subject_id=f"S{seed}")
            signals.append(weakref.ref(epochs.signals))
            return epochs

        write_epoch_cache(tmp_path / "epochs.psgepo", map(part, range(3)))
        assert read_epoch_cache(tmp_path / "epochs.psgepo").subjects == ("S0", "S1", "S2")

    def test_manifest_round_trip(self, tmp_path):
        manifest = split_subjects(manifest_of(5), seed=3,
                                  fractions=(0.6, 0.2, 0.2))
        path = tmp_path / "manifest.json"
        pipeline.save_manifest(path, manifest)
        loaded = pipeline.load_manifest(path)
        assert loaded.splits == manifest.splits
        assert loaded.seed == manifest.seed
        assert loaded.subject_ids() == manifest.subject_ids()

    def test_epoch_record_self_target_rejected(self):
        with pytest.raises(ValueError):
            EpochRecord(
                subject_id="s", epoch_index=0, stage=SleepStage.WAKE,
                input_channel="a",
                input_samples=np.zeros(3000, dtype=np.float32),
                targets={"a": np.zeros(3000, dtype=np.float32)},
                norm_params={"a": (0.0, 1.0)},
            )


NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def assert_same_record(got, want):
    assert got.subject_id == want.subject_id
    assert got.epoch_index == want.epoch_index
    assert got.stage is want.stage
    assert got.input_channel == want.input_channel
    assert got.input_samples.tobytes() == want.input_samples.tobytes()
    assert list(got.targets) == list(want.targets)
    for name, arr in want.targets.items():
        assert got.targets[name].tobytes() == arr.tobytes()
    assert got.norm_params == want.norm_params


class TestEpochSet:
    @given(n=st.integers(0, 6),
           channels=st.lists(NAMES, min_size=1, max_size=4, unique=True),
           subjects=st.lists(NAMES, min_size=1, max_size=3, unique=True),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cache_round_trip_is_bit_exact(self, n, channels, subjects, seed):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        c = len(channels)
        epochs = EpochSet(
            channels, subjects,
            subject=rng.integers(0, len(subjects), n),
            epoch_index=rng.integers(0, 2**32, n),
            stage=rng.integers(0, len(pipeline.STAGES), n),
            norm=np.stack([rng.normal(0, 100, (n, c)), rng.uniform(1, 100, (n, c))], axis=-1),
            signals=rng.normal(0, 1, (n, c, pipeline.EPOCH_SAMPLES)),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "epochs.psgepo"
            write_epoch_cache(path, epochs)
            loaded = read_epoch_cache(path)
        assert loaded.channels == tuple(channels)
        assert loaded.subjects == tuple(subjects)
        for name in ("subject", "epoch_index", "stage", "norm", "signals"):
            want, got = getattr(epochs, name), getattr(loaded, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        for i in range(n):
            assert_same_record(loaded[i], epochs[i])
            assert loaded[i].subject_id == subjects[epochs.subject[i]]

    def test_indexing(self):
        epochs = synth_records(seed=15, minutes=5.0)
        records = list(epochs)
        assert len(records) == len(epochs) == 10
        assert_same_record(epochs[-1], records[9])
        with pytest.raises(IndexError):
            epochs[10]
        picked = epochs[np.array([7, 2])]
        assert [r.epoch_index for r in picked] == [7, 2]
        n2 = epochs[epochs.stage == SleepStage.N2.code]
        assert [r.stage for r in n2] == [SleepStage.N2] * 2
        assert_same_record(epochs[3:5][1], records[4])
        assert epochs[3:3].channels == epochs.channels and len(epochs[3:3]) == 0

    def test_record_views_share_memory(self):
        epochs = synth_records(seed=15, minutes=1.0)
        epochs[0].targets["EOG horizontal"][:] = 0.0
        assert not epochs.signals[0, 1].any()

    def test_target_lookup(self):
        epochs = synth_records(seed=16, minutes=1.0)
        assert epochs.target_indices(["EEG Pz-Oz", "EOG horizontal"]) == [3, 1]
        with pytest.raises(MissingChannel, match="EEG C3"):
            epochs.target_indices(["EOG horizontal", "EEG C3"])
        with pytest.raises(MissingChannel):  # the input is never a target
            epochs.target_indices([synthgen.INPUT_CHANNEL])

    def test_concat_merges_subjects(self):
        a = synth_records(seed=17, minutes=1.0, subject_id="A")
        b = synth_records(seed=18, minutes=1.0, subject_id="B")
        joined = EpochSet.concat([a, b, a])
        assert joined.subjects == ("A", "B")
        assert [r.subject_id for r in joined] == ["A"] * 2 + ["B"] * 2 + ["A"] * 2
        assert np.array_equal(joined.signals[2:4], b.signals)
        other = EpochSet(("x",), (), [], [], [], np.zeros((0, 1, 2)), np.zeros((0, 1, 3000)))
        with pytest.raises(ValueError, match="disagree"):
            EpochSet.concat([a, other])

    def test_cache_of_parts_is_the_cache_of_their_concat(self, tmp_path):
        a = synth_records(seed=17, minutes=1.0, subject_id="A")
        b = synth_records(seed=18, minutes=1.0, subject_id="B")
        again = synth_records(seed=19, minutes=1.5, subject_id="A")  # A's second part
        parts = [a, b, again, b[:0]]
        write_epoch_cache(tmp_path / "parts", parts)
        write_epoch_cache(tmp_path / "joined", EpochSet.concat(parts))
        assert (tmp_path / "parts").read_bytes() == (tmp_path / "joined").read_bytes()
        back = read_epoch_cache(tmp_path / "parts")
        assert back.subjects == ("A", "B")
        assert [back.subjects[i] for i in back.subject] == (
            ["A"] * len(a) + ["B"] * len(b) + ["A"] * len(again))
        other = EpochSet(("x",), (), [], [], [], np.zeros((0, 1, 2)), np.zeros((0, 1, 3000)))
        for bad, message in (([a, other], "disagree"), ([], "no epoch sets")):
            with pytest.raises(ValueError, match=message):
                write_epoch_cache(tmp_path / "bad", bad)

    def test_from_records(self):
        epochs = synth_records(seed=19, minutes=1.0)
        rebuilt = pipeline.as_epoch_set(list(epochs))
        assert pipeline.as_epoch_set(epochs) is epochs
        for name in ("subject", "epoch_index", "stage", "norm", "signals"):
            assert np.array_equal(getattr(rebuilt, name), getattr(epochs, name))

    def test_flat_channels_at_the_sigma_floor(self, tmp_path):
        # a flat channel's std is floored at SIGMA_FLOOR, which f32 stores rounded down
        flat, mean, std = normalize_epoch(np.zeros(pipeline.EPOCH_SAMPLES))
        epochs = EpochSet(("a", "b"), ("s",), subject=[0], epoch_index=[0], stage=[0],
                          norm=[[[mean, std]] * 2], signals=[[flat, flat]])
        assert float(epochs.norm[0, 0, 1]) < pipeline.SIGMA_FLOOR
        assert epochs[0].norm_params["a"] == (0.0, float(np.float32(pipeline.SIGMA_FLOOR)))
        assert [r.subject_id for r in epochs] == ["s"]
        write_epoch_cache(tmp_path / "flat.psgepo", epochs)
        assert_same_record(read_epoch_cache(tmp_path / "flat.psgepo")[0], epochs[0])
        config = mae.MaeConfig(embed_dim=8, num_heads=2, encoder_layers=1,
                               decoder_layers=1, target_channels=("b",))
        _, pairs = evalreport.evaluate_records(mae.init_params(config), epochs)
        assert len(pairs) == 1

    def test_std_below_the_f32_floor_rejected(self):
        below = np.nextafter(np.float32(pipeline.SIGMA_FLOOR), np.float32(0))
        epochs = EpochSet(("a",), ("s",), subject=[0], epoch_index=[0], stage=[0],
                          norm=[[[0.0, below]]], signals=np.zeros((1, 1, 3000)))
        with pytest.raises(ValueError, match="norm std for 'a' below"):
            epochs[0]

    @pytest.mark.parametrize("change,message", [
        (dict(channels=()), "no channels"),
        (dict(channels=("a", "a")), "repeat"),
        (dict(stage=[5]), "stage code"),
        (dict(subject=[1]), "subject index"),
        (dict(signals=np.zeros((1, 1, 2999))), "shape"),
    ])
    def test_invalid_sets_rejected(self, change, message):
        fields = dict(channels=("a",), subjects=("s",), subject=[0], epoch_index=[0],
                      stage=[0], norm=np.ones((1, 1, 2)), signals=np.zeros((1, 1, 3000)))
        with pytest.raises(ValueError, match=message):
            EpochSet(**{**fields, **change})
