import faulthandler
import json
import os
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from psgmae import evalreport, mae, numcore, pipeline, synthgen, trainer


TINY_CONFIG_KWARGS = dict(
    patch_size=10, seq_len=4, embed_dim=8, num_heads=2,
    encoder_layers=1, decoder_layers=1, mask_ratio=0.5,
    target_channels=("t0", "t1"),
)


# seconds the session's end waits for numcore's pool threads: an idle one exits
# as soon as the pool shuts down, so one still running after this is stuck
POOL_EXIT_WAIT_S = 10.0


def pytest_unconfigure(config):
    """Shut numcore's pool down and join its threads for at most
    POOL_EXIT_WAIT_S. The interpreter's exit would join a deadlocked one
    forever, where faulthandler_timeout no longer covers anything, so a
    thread still alive then has every stack dumped and the process ends
    with a failing status."""
    if numcore._POOL is not None:
        numcore._POOL.shutdown(wait=False)
    deadline = time.monotonic() + POOL_EXIT_WAIT_S
    pool_threads = [t for t in threading.enumerate() if t.name.startswith("numcore")]
    for thread in pool_threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    stuck = [thread.name for thread in pool_threads if thread.is_alive()]
    if stuck:
        capture = config.pluginmanager.getplugin("capturemanager")
        if capture is not None:
            capture.suspend_global_capture(in_=True)
        print(f"numcore pool threads {stuck} still running {POOL_EXIT_WAIT_S:g} s after "
              "the tests ended; every thread's stack:", file=sys.stderr, flush=True)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        sys.stdout.flush()
        os._exit(1)


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


# a fused kernel against its float64 reference: the largest error it may
# show, relative to max(1, the reference's largest magnitude)
FUSED_TOLERANCE = {np.float32: 2e-5, np.float64: 1e-12}


def assert_close(actual, expected, dtype):
    actual = np.asarray(actual)
    assert actual.dtype == dtype and actual.shape == np.shape(expected)
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(actual - expected).max() <= FUSED_TOLERANCE[dtype] * scale


def ones_sum(x, scale=1.0):
    """scale times the sum of a 1-d or 2-d tensor's entries, as numcore.linear
    products with constant weights: over the last axis, then over the rows.
    A scalar of shape (1,) or (1, 1), ready for Tape.backward."""
    def weights(*shape, value=1.0):
        return numcore.Tensor(np.full(shape, value), dtype=x.dtype)

    total = numcore.linear(x, weights(x.shape[-1], 1, value=scale))
    return total if x.data.ndim == 1 else numcore.linear(weights(1, x.shape[0]), total)


def record_sources(tensors):
    """What a tape record keeps of leaf inputs: each leaf, or None for one
    that needs no gradient."""
    return [t if t.requires_grad else None for t in tensors]


def one_record(kernel, tensors, g, *args):
    """The kernel's output and partials from its single tape record."""
    with numcore.Tape() as tape:
        out = kernel(*tensors, *args)
    (backward, sources), = tape._records
    assert out.node == (tape._serial, 0) and list(sources) == record_sources(tensors)
    return out, backward(g)


def reseal(blob: bytes) -> bytes:
    """``blob`` (magic through body, no CRC) with its CRC32 appended."""
    return blob + struct.pack("<I", zlib.crc32(blob[8:]))


def cache_parts(blob: bytes) -> tuple[bytes, bytes]:
    """An epoch cache split by its trailer into (magic and signal rows, footer)."""
    start = len(blob) - 12 - struct.unpack_from("<Q", blob, len(blob) - 8)[0]
    return blob[:start], blob[start:-12]


def seal_cache(head: bytes, footer: bytes) -> bytes:
    """An epoch cache of ``head`` (magic and signal rows) and ``footer``, with
    a trailer that gives the footer's CRC and length."""
    return head + footer + struct.pack("<IQ", zlib.crc32(footer), len(footer))


def footer_offsets(footer: bytes) -> dict[str, int]:
    """Where each part of an epoch cache's footer starts, from the footer's start."""
    n, c, _, _ = struct.unpack_from("<IHHI", footer)
    sizes = {"counts": 12, "norm": 8 * n * c, "epoch_index": 4 * n, "crc": 4 * n,
             "subject": 2 * n, "stage": n, "table": 0}
    return dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))


def edit_meta(blob: bytes, edit) -> bytes:
    """``blob`` with its meta JSON replaced by ``edit(meta)`` (JSON bytes when
    ``edit`` returns bytes) and a fresh CRC."""
    config_len, meta_len = struct.unpack_from("<II", blob, 8)
    start = 16 + config_len
    raw = edit(json.loads(blob[start: start + meta_len]))
    raw = raw if isinstance(raw, bytes) else json.dumps(raw).encode()
    return reseal(blob[:8] + struct.pack("<II", config_len, len(raw)) + blob[16:start]
                  + raw + blob[start + meta_len: -4])


def chunk_size(n):
    """Rows per stream_scores chunk for n epochs: min(CHUNK, ceil(n / 2)), at least one."""
    return max(1, min(evalreport.CHUNK, -(-n // 2)))


def chunked_reconstruct(params, inputs):
    """mae.reconstruct of inputs (N >= 1, epoch_len) in the chunks stream_scores
    makes. OpenBLAS can give a row other bytes in a product with another row
    count, so a reference chunks as the code it checks."""
    size = chunk_size(len(inputs))
    return np.concatenate([mae.reconstruct(params, inputs[lo: lo + size])
                           for lo in range(0, len(inputs), size)])


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
