"""Command-line surface: synth, inspect, preprocess, train, eval,
reconstruct, gradcheck.

All randomness flows from explicit --seed flags (absent flag means seed 0).
Results go to stdout; progress and diagnostics go to stderr, so stdout is
stable across identical runs. Exit codes: 0 success, 1 check failed,
2 usage or data error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import sys
from collections import Counter
from pathlib import Path

# one BLAS thread: inference already runs one chunk per core, and a BLAS
# pool per worker oversubscribes the cores; a value the user set is kept
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (after the BLAS pin)

from . import edf_io, evalreport, mae, numcore as nc, pipeline, synthgen, trainer


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_blas_threads() -> None:
    for name in BLAS_THREAD_VARIABLES:
        if os.environ.get(name, "1") != "1":
            _info(f"warning: {name}={os.environ[name]}: threaded BLAS sums in another "
                  "order, so outputs are not byte-identical to the default of 1")
            break


def cmd_inspect(args) -> int:
    path = Path(args.edf)
    recording = edf_io.parse_edf(path.read_bytes())
    print(f"file: {path}")
    print(f"patient: {recording.patient_id or '-'}")
    print(f"records: {recording.num_records} x {recording.record_duration_s:g} s "
          f"({recording.duration_s():g} s total)")
    print(f"signals: {len(recording.signals)}")
    for i, spec in enumerate(recording.signals):
        rate, count = recording.sample_rate(i), recording.num_records * spec.samples_per_record
        print(f"  {spec.label}: {rate:g} Hz, {count} samples"
              f"{', ' + spec.physical_dimension if spec.physical_dimension else ''}")
    print(f"annotations: {len(recording.annotations)}")
    return 0


def cmd_synth(args) -> int:
    if not np.isfinite(args.minutes):
        raise ValueError(f"--minutes must be finite, got {args.minutes}")
    if args.subjects < 1:
        raise ValueError(f"--subjects must be >= 1, got {args.subjects}")
    duration_s = int(round(args.minutes * 60))
    specs = [synthgen.SynthSpec(seed=(args.seed, i), duration_s=duration_s,  # checked first
                                noise_std=args.noise_std, subject_id=f"S{i:03d}")
             for i in range(args.subjects)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        subject = spec.subject_id
        recording, annotations = synthgen.generate(spec)
        psg_path = out_dir / f"{subject}-PSG.edf"
        hyp_path = out_dir / f"{subject}-Hypnogram.edf"
        psg_path.write_bytes(edf_io.write_edf(recording))
        hyp_path.write_bytes(edf_io.write_edf(synthgen.hypnogram_recording(spec, annotations)))
        print(f"{subject}: {psg_path.name} {hyp_path.name} ({duration_s // 30} epochs)")
    return 0


def cmd_preprocess(args) -> int:
    psg_paths = [Path(p) for p in args.psg]
    hyp_paths = [Path(p) for p in args.hypnogram]
    if len(psg_paths) != len(hyp_paths):
        raise ValueError(f"{len(psg_paths)} --psg files but {len(hyp_paths)} --hypnogram files")
    targets = [t.strip() for t in args.targets.split(",") if t.strip()]
    if not targets:
        raise ValueError("--targets must name at least one channel")
    fractions = tuple(float(x) for x in args.split.split(","))
    pipeline.check_split(fractions)  # before any file is read or written

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[pipeline.SubjectEntry] = []

    def night(psg_path: Path, hyp_path: Path):
        """One night's segment_stream, its manifest entry added from the rows written."""
        recording = edf_io.parse_edf(psg_path.read_bytes())
        hypnogram = edf_io.parse_edf(hyp_path.read_bytes())
        subject = recording.patient_id or psg_path.stem
        for entry in entries:
            if entry.subject_id == subject:
                raise ValueError(f"{entry.psg_path} and {psg_path} are both subject "
                                 f"{subject!r}; two nights of one subject need distinct ids")
        for piece in pipeline.segment_stream(recording, hypnogram.annotations,
                                             args.input_channel, targets, subject_id=subject):
            yield piece  # the last piece is the set of the rows written
        entries.append(pipeline.SubjectEntry(subject, str(psg_path), str(hyp_path),
                                             pipeline.stage_histogram(piece)))
        _info(f"{subject}: {len(piece)} epochs")

    # the writer holds one night at a time; a failed night leaves an earlier cache and manifest
    pipeline.write_epoch_cache(out_dir / trainer.CACHE_FILENAME, map(night, psg_paths, hyp_paths))
    manifest = pipeline.DatasetManifest(subjects=entries, seed=args.seed)
    if len(entries) >= 3:
        manifest = pipeline.split_subjects(manifest, args.seed, fractions)
    else:
        # too few subjects to partition; everything trains
        manifest.splits = {e.subject_id: "train" for e in entries}

    pipeline.save_manifest(out_dir / trainer.MANIFEST_FILENAME, manifest)

    print(f"{sum(sum(e.stage_counts.values()) for e in entries)} epochs from "
          f"{len(entries)} subjects")
    for stage in pipeline.STAGES:
        print(f"  {stage.display}: {sum(e.stage_counts[stage.display] for e in entries)}")
    split_sizes = Counter(manifest.splits[entry.subject_id] for entry in entries)
    print("splits: " + ", ".join(f"{name}={split_sizes[name]}"
                                 for name in ("train", "val", "test")))
    empty = [name for name in ("train", "val", "test") if not split_sizes[name]]
    if empty and len(entries) >= 3:  # fewer subjects all train by design
        _info(f"warning: empty {' and '.join(empty)} split; `psgmae train` needs at least "
              "one train and one val subject")
    return 0


def cmd_train(args) -> int:
    config = trainer.config_from_ini(Path(args.config).read_text())
    resume = None
    if args.resume:  # refused from the file alone, before the cache is opened
        resume = trainer.load_checkpoint(Path(args.resume).read_bytes())
        trainer.start_state(config, resume)
        if resume.numerics != trainer.NUMERICS:
            _info(f"warning: {args.resume} has numerics version {resume.numerics}, this build "
                  f"trains with {trainer.NUMERICS}: the resumed run will not match an "
                  "uninterrupted run from before the change")
    manifest = pipeline.load_manifest(Path(args.data) / trainer.MANIFEST_FILENAME)
    with pipeline.EpochCacheReader(Path(args.data) / trainer.CACHE_FILENAME) as cache:
        trainer.check_fits(config, cache.channels)  # before any signal row is read
        rows = trainer.split_rows(manifest, cache)  # no test row is read
        splits = {name: cache.epochs(rows[name]) for name in ("train", "val")}

    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)  # after the inputs' checks, before any epoch
    try:
        result = trainer.train(config, splits, resume=resume, on_epoch=_info)
    except BaseException:
        for directory in made:  # nothing is written yet: leave no --out behind
            directory.rmdir()
        raise

    checkpoint_path = out_dir / "checkpoint.psgmae"
    metrics_path = out_dir / "metrics.log"
    checkpoint_path.write_bytes(trainer.save_checkpoint(result.checkpoint))
    # a resumed run continues the log of the run it resumes
    with open(metrics_path, "a" if resume else "w") as log:
        log.write("\n".join(result.metrics_lines) + "\n")
    print(f"epochs: {result.checkpoint.epoch}")
    print(f"best_val_loss: {result.checkpoint.best_val_loss!r}")
    for channel, scale in result.calibration.items():
        print(f"calibration[{channel}]: {scale!r}")
    print(f"checkpoint: {checkpoint_path}")
    print(f"metrics: {metrics_path}")
    return 0


@contextlib.contextmanager
def _open_eval_inputs(checkpoint_path: str, data_dir: str):
    """The checkpoint's train config and best parameters, and an open epoch-cache reader
    that ``trainer.check_fits`` has passed before any signal row is read."""
    checkpoint = trainer.load_checkpoint(Path(checkpoint_path).read_bytes())
    config = checkpoint.train_config()
    params = trainer.params_from_blobs(config.mae, checkpoint.best_params)
    with pipeline.EpochCacheReader(Path(data_dir) / trainer.CACHE_FILENAME) as cache:
        trainer.check_fits(config, cache.channels)
        yield config, params, cache


def cmd_eval(args) -> int:
    with _open_eval_inputs(args.checkpoint, args.data) as (config, params, cache):
        if args.split == "all":  # no manifest is read
            rows = np.arange(len(cache))
        else:
            manifest = pipeline.load_manifest(Path(args.data) / trainer.MANIFEST_FILENAME)
            rows = trainer.split_rows(manifest, cache)[args.split]
        if not len(rows):
            raise ValueError(f"no epochs in split {args.split!r}")
        # every row scored is checked before any output file is opened
        table, baseline = evalreport.cache_tables(params, cache, rows, args.physical)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "mse_table.csv").write_bytes(evalreport.render_table(table, "csv"))
    text = evalreport.render_table(table, "text")
    (out_dir / "mse_table.txt").write_bytes(text)

    sys.stdout.write(text.decode("utf-8"))
    for target in config.mae.target_channels:
        model_mse = table.pooled_mse(config.input_channel, target)
        base_mse = baseline.pooled_mse(config.input_channel, target)
        print(f"pooled[{target}]: mse={model_mse:.6f} baseline={base_mse:.6f} "
              f"ratio={model_mse / base_mse:.4f}")
    return 0


def cmd_reconstruct(args) -> int:
    with _open_eval_inputs(args.checkpoint, args.data) as (config, params, cache):
        if not 0 <= args.epoch_index < len(cache):
            raise ValueError(
                f"--epoch-index {args.epoch_index} out of range (cache has "
                f"{len(cache)} epochs)"
            )
        record = cache.epochs([args.epoch_index])[0]  # the one row read
    recons = dict(zip(config.mae.target_channels,
                      mae.reconstruct(params, record.input_samples[None])[0]))
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    evalreport.export_reconstruction(record, recons, out_path)
    print(f"wrote {out_path} (subject {record.subject_id}, "
          f"epoch {record.epoch_index}, stage {record.stage.display})")
    return 0


GRADCHECK_FD_STEP = 5e-5


def cmd_gradcheck(args) -> int:
    dtype = np.float64 if args.bits == 64 else np.float32
    threshold = 1e-5 if args.bits == 64 else 1e-3
    config = mae.MaeConfig(patch_size=10, seq_len=4, embed_dim=8, num_heads=2, encoder_layers=1,
                           decoder_layers=1, mask_ratio=0.5, target_channels=("t0", "t1"))

    # fixed probe point: the batch of one that trainer.batch_gradients would differentiate
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    inputs = rng.normal(0.0, 1.0, (1, config.epoch_len))
    targets = rng.normal(0.0, 1.0, (1, len(config.target_channels), config.epoch_len))
    masks = mae.mask_plans(config, 1, rng)
    params = mae.init_params(config, seed=1, dtype=dtype)

    def loss_fn(tensors):
        view = mae.MaeParams(config=config, pos_encoding=params.pos_encoding,
                             tensors=tensors)
        return mae.forward_loss(inputs, targets, view, masks)[0]

    error = nc.grad_check(loss_fn, params.tensors, fd_step=GRADCHECK_FD_STEP)
    status = "PASS" if error < threshold else "FAIL"
    print(f"max relative error: {error:.6e} (threshold {threshold:g}, "
          f"{args.bits}-bit) {status}")
    return 0 if error < threshold else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psgmae",
        description="Reconstruct PSG channels from a single input channel "
                    "with a masked autoencoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="print EDF header and signal summary")
    p.add_argument("--edf", required=True, help="EDF/EDF+ file to inspect")
    p.set_defaults(handler=cmd_inspect)

    p = sub.add_parser("synth", help="generate synthetic PSG + hypnogram EDF files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--minutes", type=float, default=5.0,
                   help="duration per subject (multiple of 0.5)")
    p.add_argument("--noise-std", type=float, default=5.0, help="noise sigma, uV")
    p.add_argument("--subjects", type=int, default=1)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("preprocess", help="segment recordings into an epoch cache")
    p.add_argument("--psg", action="append", required=True, help="PSG EDF file (repeatable)")
    p.add_argument("--hypnogram", action="append", required=True,
                   help="hypnogram EDF+ file, paired with --psg by position")
    p.add_argument("--input-channel", required=True)
    p.add_argument("--targets", required=True, help="comma-separated target channel names")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="0.7,0.1,0.2", help="train,val,test subject fractions")
    p.set_defaults(handler=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a preprocessed dataset")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="per-stage MSE report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test", "all"))
    p.add_argument("--physical", action="store_true",
                   help="report MSE in squared physical units instead of "
                        "normalized units")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("reconstruct", help="export one epoch's reconstruction CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--epoch-index", type=int, required=True,
                   help="index into the epoch cache")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--tiny", action="store_true",
                   help="accepted for older scripts; there is one probe")
    p.add_argument("--bits", type=int, default=64, choices=(32, 64))
    p.set_defaults(handler=cmd_gradcheck)

    return parser


# (the variable that overrides it, glibc mallopt parameter, value): one arena, as per-thread
# arenas keep workers' freed activations apart; fixed thresholds, so no freed array is refaulted
MALLOC_POLICY = (("MALLOC_ARENA_MAX", -8, 1),  # M_ARENA_MAX
                 ("MALLOC_MMAP_THRESHOLD_", -3, 32 << 20),  # M_MMAP_THRESHOLD
                 ("MALLOC_TRIM_THRESHOLD_", -1, 128 << 20))  # M_TRIM_THRESHOLD


def _malloc_policy() -> None:
    """Set MALLOC_POLICY in this process; a variable the user set keeps its own parameter,
    and off glibc this does nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for variable, parameter, value in MALLOC_POLICY:
        if variable not in os.environ:
            mallopt(parameter, value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _malloc_policy()  # before any worker thread starts
    if args.command in ("train", "eval", "reconstruct"):
        _warn_blas_threads()
    try:
        return args.handler(args)
    except (edf_io.EdfError, pipeline.PipelineError, trainer.TrainerError,
            nc.NumcoreError, mae.WrongLength, OSError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
