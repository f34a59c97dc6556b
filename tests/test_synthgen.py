import numpy as np
import pytest

from psgmae import edf_io, synthgen
from psgmae.synthgen import SynthSpec, generate, hypnogram_recording


class TestDeterminism:
    def test_same_seed_identical_edf_bytes(self):
        a, _ = generate(SynthSpec(seed=3, duration_s=120))
        b, _ = generate(SynthSpec(seed=3, duration_s=120))
        assert edf_io.write_edf(a) == edf_io.write_edf(b)

    def test_different_seeds_differ(self):
        a, _ = generate(SynthSpec(seed=3, duration_s=60))
        b, _ = generate(SynthSpec(seed=4, duration_s=60))
        assert edf_io.write_edf(a) != edf_io.write_edf(b)


class TestStructure:
    def test_epoch_count_and_cycle(self):
        recording, annotations = generate(SynthSpec(seed=0, duration_s=420))
        assert len(annotations) == 14
        labels = [a.label for a in annotations]
        expected = ["Sleep stage W"] * 2 + ["Sleep stage 1"] * 2 \
            + ["Sleep stage 2"] * 2 + ["Sleep stage 3"] * 2 \
            + ["Sleep stage R"] * 2 + ["Sleep stage W"] * 2 \
            + ["Sleep stage 1"] * 2
        assert labels == expected
        assert [a.onset_s for a in annotations] == \
            [30.0 * i for i in range(14)]
        assert all(a.duration_s == 30.0 for a in annotations)

    def test_signal_rates(self):
        recording, _ = generate(SynthSpec(seed=0, duration_s=60))
        rates = {spec.label: recording.sample_rate(i)
                 for i, spec in enumerate(recording.signals)}
        assert rates[synthgen.INPUT_CHANNEL] == 100.0
        assert rates[synthgen.EOG_CHANNEL] == 100.0
        assert rates[synthgen.EMG_CHANNEL] == 50.0
        assert rates[synthgen.EEG2_CHANNEL] == 100.0

    def test_duration_must_be_epoch_multiple(self):
        with pytest.raises(ValueError):
            SynthSpec(seed=0, duration_s=45)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_noise_must_be_finite(self, noise):
        with pytest.raises(ValueError, match="noise_std must be finite"):
            SynthSpec(seed=0, duration_s=60, noise_std=noise)

    def test_noise_must_not_be_negative(self):
        with pytest.raises(ValueError, match="noise_std must be >= 0, got -3.0"):
            SynthSpec(seed=0, duration_s=60, noise_std=-3.0)


class TestWaveforms:
    def test_wake_epoch_dominant_frequency_is_10hz(self):
        spec = SynthSpec(seed=0, duration_s=300, noise_std=0.0)
        x = synthgen.reference_signal(spec)
        epoch = x[:3000]  # first epoch is Wake
        spectrum = np.abs(np.fft.rfft(epoch))
        freqs = np.fft.rfftfreq(3000, d=0.01)
        dominant = freqs[1:][np.argmax(spectrum[1:])]
        assert dominant == pytest.approx(10.0, abs=freqs[1])

    def test_n3_epoch_dominant_frequency_is_1hz(self):
        spec = SynthSpec(seed=0, duration_s=300, noise_std=0.0)
        x = synthgen.reference_signal(spec)
        epoch = x[6 * 3000: 7 * 3000]  # epochs 6-7 are N3
        spectrum = np.abs(np.fft.rfft(epoch))
        freqs = np.fft.rfftfreq(3000, d=0.01)
        dominant = freqs[1:][np.argmax(spectrum[1:])]
        assert dominant == pytest.approx(1.0, abs=freqs[1])

    def test_targets_are_deterministic_transforms(self):
        spec = SynthSpec(seed=9, duration_s=60, noise_std=5.0)
        x = synthgen.reference_signal(spec)
        targets = synthgen.target_signals(x)

        # independent recomputation with direct loops
        n = len(x)

        def moving_average(window):
            out = np.empty(n)
            for i in range(n):
                lo = i - window + 1
                window_vals = [x[max(j, 0)] for j in range(lo, i + 1)]
                out[i] = sum(window_vals) / window
            return out

        ma25 = moving_average(25)
        eog = np.empty(n)
        for i in range(n):
            eog[i] = ma25[max(i - 2, 0)] + 50.0 * np.sin(2 * np.pi * 0.2 * (i / 100.0))
        assert np.abs(eog - targets[synthgen.EOG_CHANNEL]).max() < 1e-9

        emg = np.empty(n)
        emg[0] = 0.0
        for i in range(1, n):
            emg[i] = abs(x[i] - x[i - 1]) * 10.0
        assert np.abs(emg[::2] - targets[synthgen.EMG_CHANNEL]).max() < 1e-9

        ma5 = moving_average(5)
        eeg2 = np.empty(n)
        for i in range(n):
            eeg2[i] = 0.7 * x[max(i - 5, 0)] + 0.3 * ma5[i]
        assert np.abs(eeg2 - targets[synthgen.EEG2_CHANNEL]).max() < 1e-9

    def test_emg_holds_only_its_50_hz_samples(self):
        x = synthgen.reference_signal(SynthSpec(seed=9, duration_s=60, noise_std=5.0))
        emg = synthgen.target_signals(x)[synthgen.EMG_CHANNEL]
        # its own array, not a strided view that keeps the 100 Hz samples alive
        assert emg.base is None and emg.flags.c_contiguous
        assert emg.tobytes() == (np.abs(np.diff(x, prepend=x[:1])) * 10.0)[::2].tobytes()

    def test_drift_phase_repeats_every_epoch(self):
        # 0.2 Hz drift completes exactly 6 cycles per 30 s epoch
        t = np.arange(6000) / 100.0
        drift = 50.0 * np.sin(2 * np.pi * 0.2 * t)
        assert np.allclose(drift[:3000], drift[3000:], atol=1e-9)


class TestEdfIntegration:
    def test_round_trip_parses_cleanly(self):
        spec = SynthSpec(seed=5, duration_s=150)
        recording, annotations = generate(spec)
        parsed = edf_io.parse_edf(edf_io.write_edf(recording))
        assert [s.label for s in parsed.signals] == \
            [s.label for s in recording.signals]
        hypnogram = hypnogram_recording(spec, annotations)
        parsed_hyp = edf_io.parse_edf(edf_io.write_edf(hypnogram))
        assert parsed_hyp.annotations == annotations

    def test_physical_range_exercises_quantization(self):
        recording, _ = generate(SynthSpec(seed=6, duration_s=60))
        for spec in recording.signals:
            assert spec.physical_min == -200.0
            assert spec.physical_max == 200.0
            assert spec.digital_min == -2048
            assert spec.digital_max == 2047
