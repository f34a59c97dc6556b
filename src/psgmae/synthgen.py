"""Deterministic synthetic PSG generator for dataset-free end-to-end tests.

Emits an EDF recording with one reference EEG channel plus three channels
that are fixed deterministic transforms of it, together with a per-epoch
hypnogram. Because the targets are functions of the input by construction,
a working reconstruction model must beat the predict-mean baseline on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edf_io import Annotation, EdfRecording, SignalSpec

SAMPLE_RATE_HZ = 100
EMG_RATE_HZ = 50
EPOCH_S = 30

INPUT_CHANNEL = "EEG Fpz-Cz"
EOG_CHANNEL = "EOG horizontal"
EMG_CHANNEL = "EMG submental"
EEG2_CHANNEL = "EEG Pz-Oz"
DEFAULT_TARGETS = (EOG_CHANNEL, EMG_CHANNEL, EEG2_CHANNEL)

DEFAULT_CYCLE = (("W", 2), ("1", 2), ("2", 2), ("3", 2), ("R", 2))

# stage code -> (oscillation Hz, amplitude uV) for the reference channel
_WAVES = {
    "W": (10.0, 30.0),
    "1": (6.0, 20.0),
    "2": (4.0, 40.0),
    "3": (1.0, 75.0),
    "R": (8.0, 15.0),
}

_PHYS_MIN, _PHYS_MAX = -200.0, 200.0
_DIG_MIN, _DIG_MAX = -2048, 2047


@dataclass
class SynthSpec:
    """Parameters of one synthetic recording."""

    seed: int = 0
    duration_s: int = 300
    stage_cycle: tuple = DEFAULT_CYCLE
    noise_std: float = 5.0
    subject_id: str = "S000"

    def __post_init__(self):
        if self.duration_s % EPOCH_S != 0:
            raise ValueError(f"duration_s must be a multiple of {EPOCH_S}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not np.isfinite(self.noise_std):
            raise ValueError(f"noise_std must be finite, got {self.noise_std}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


def _stage_sequence(spec: SynthSpec) -> list[str]:
    n_epochs = spec.duration_s // EPOCH_S
    flat = [code for code, dwell in spec.stage_cycle for _ in range(dwell)]
    reps = -(-n_epochs // len(flat))
    return (flat * reps)[:n_epochs]


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    padded = np.concatenate([np.full(window - 1, x[0]), x])
    return np.convolve(padded, np.full(window, 1.0 / window), mode="valid")


def _lag(x: np.ndarray, samples: int) -> np.ndarray:
    if samples == 0:
        return x.copy()
    return np.concatenate([np.full(samples, x[0]), x[:-samples]])


def reference_signal(spec: SynthSpec) -> np.ndarray:
    """The noisy stage-dependent oscillation of the input channel, at 100 Hz."""
    n = spec.duration_s * SAMPLE_RATE_HZ
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE_HZ
    stages = _stage_sequence(spec)

    x = np.zeros(n)
    for epoch, code in enumerate(stages):
        sl = slice(epoch * EPOCH_S * SAMPLE_RATE_HZ, (epoch + 1) * EPOCH_S * SAMPLE_RATE_HZ)
        freq, amp = _WAVES[code]
        x[sl] = amp * np.sin(2.0 * np.pi * freq * t[sl])
        if code == "2":
            # spindle bursts: 12 Hz gated on during the first half of each second
            burst = (t[sl] % 1.0) < 0.5
            x[sl] += 20.0 * np.sin(2.0 * np.pi * 12.0 * t[sl]) * burst

    if spec.noise_std > 0:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
        x += rng.normal(0.0, spec.noise_std, n)
    return x


def target_signals(x: np.ndarray) -> dict[str, np.ndarray]:
    """Fixed channel recipe: every target is a deterministic transform of x."""
    # the times and the full-rate EMG are temporaries, gone before the next channel is made
    t = np.arange(len(x), dtype=np.float64) / SAMPLE_RATE_HZ
    eog = _lag(_moving_average(x, 25), 2) + 50.0 * np.sin(2.0 * np.pi * 0.2 * t)
    del t
    emg = np.abs(np.diff(x, prepend=x[:1]))[::2] * 10.0  # stored at 50 Hz to exercise resampling
    eeg2 = 0.7 * _lag(x, 5) + 0.3 * _moving_average(x, 5)
    return {EOG_CHANNEL: eog, EMG_CHANNEL: emg, EEG2_CHANNEL: eeg2}


def generate(spec: SynthSpec) -> tuple[EdfRecording, list[Annotation]]:
    """Build the synthetic PSG recording and its hypnogram annotations."""
    x = reference_signal(spec)
    targets = target_signals(x)

    def signal(label: str, rate: int) -> SignalSpec:
        return SignalSpec(
            label=label,
            transducer="synthetic",
            physical_dimension="uV",
            physical_min=_PHYS_MIN,
            physical_max=_PHYS_MAX,
            digital_min=_DIG_MIN,
            digital_max=_DIG_MAX,
            samples_per_record=rate,
        )

    recording = EdfRecording(
        version="0",
        patient_id=spec.subject_id,
        recording_id="synthetic PSG",
        record_duration_s=1.0,
        num_records=spec.duration_s,
        signals=[
            signal(INPUT_CHANNEL, SAMPLE_RATE_HZ),
            signal(EOG_CHANNEL, SAMPLE_RATE_HZ),
            signal(EMG_CHANNEL, EMG_RATE_HZ),
            signal(EEG2_CHANNEL, SAMPLE_RATE_HZ),
        ],
        samples=[x, targets[EOG_CHANNEL], targets[EMG_CHANNEL], targets[EEG2_CHANNEL]],
    )

    annotations = [
        Annotation(float(epoch * EPOCH_S), float(EPOCH_S), f"Sleep stage {code}")
        for epoch, code in enumerate(_stage_sequence(spec))
    ]
    return recording, annotations


def hypnogram_recording(spec: SynthSpec, annotations: list[Annotation]) -> EdfRecording:
    """Annotation-only EDF+ companion file for the hypnogram."""
    return EdfRecording(
        version="0",
        patient_id=spec.subject_id,
        recording_id="synthetic hypnogram",
        record_duration_s=float(spec.duration_s),
        num_records=1,
        signals=[],
        samples=[],
        annotations=list(annotations),
    )
