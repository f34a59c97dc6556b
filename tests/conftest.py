import numpy as np
import pytest

from psgmae import mae, numcore, pipeline, synthgen, trainer


TINY_CONFIG_KWARGS = dict(
    patch_size=10, seq_len=4, embed_dim=8, num_heads=2,
    encoder_layers=1, decoder_layers=1, mask_ratio=0.5,
    target_channels=("t0", "t1"),
)


@pytest.fixture
def fresh_pool(monkeypatch):
    """numcore's process-wide pool made anew on its next use, so that it has
    as many threads as the core count the test patches in, and shut down
    after the test."""
    monkeypatch.setattr(numcore, "_POOL", None)
    yield
    if numcore._POOL is not None:
        numcore._POOL.shutdown(wait=False)


@pytest.fixture
def tiny_config():
    return mae.MaeConfig(**TINY_CONFIG_KWARGS)


def philox(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def synth_records(seed=0, minutes=5.0, noise_std=5.0, subject_id="S000"):
    """Segment one synthetic recording into an EpochSet."""
    spec = synthgen.SynthSpec(
        seed=seed, duration_s=int(minutes * 60), noise_std=noise_std,
        subject_id=subject_id,
    )
    recording, annotations = synthgen.generate(spec)
    return pipeline.segment_epochs(
        recording, annotations, synthgen.INPUT_CHANNEL,
        list(synthgen.DEFAULT_TARGETS), subject_id=subject_id,
    )


def synth_dataset(n_subjects=5, minutes=3.0, seed=0, noise_std=5.0,
                  fractions=(0.6, 0.2, 0.2)):
    """Multi-subject synthetic dataset with a subject-level split:
    (manifest, EpochSet of every subject, EpochSet per split)."""
    parts = []
    entries = []
    for i in range(n_subjects):
        subject = f"S{i:03d}"
        epochs = synth_records(
            seed=(seed, i), minutes=minutes, noise_std=noise_std,
            subject_id=subject,
        )
        parts.append(epochs)
        entries.append(pipeline.SubjectEntry(
            subject_id=subject, psg_path=f"{subject}-PSG.edf",
            hypnogram_path=f"{subject}-Hypnogram.edf",
            stage_counts=pipeline.stage_histogram(epochs),
        ))
    manifest = pipeline.DatasetManifest(subjects=entries, seed=seed)
    manifest = pipeline.split_subjects(manifest, seed, fractions)
    dataset = pipeline.EpochSet.concat(parts)
    return manifest, dataset, trainer.split_records(manifest, dataset)
