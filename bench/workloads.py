"""The benchmark workloads and the checks on their outputs.

Each workload drives psgmae the way a user does: ``psgmae.cli.main`` runs
in this process with stdout and stderr captured, and CLI start-up is timed
in child processes. Inputs come from synthgen and depend only on the
workload seed; the program sees only the generated files.

A workload has three steps:

* ``setup`` writes the inputs; the runner times it (``setup_s``).
* ``prepare`` computes, untimed, the references the checks compare with.
* ``rep`` runs the workload's command once and returns
  (30-s epochs processed, wall seconds of the command).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from psgmae import cli, edf_io, evalreport, mae, pipeline, synthgen, trainer

NIGHT_S = 8 * 3600          # one Sleep-EDF-sized night: 960 epochs of 30 s
NIGHTS = 2                  # nights in ingest_night and eval_night
SMALL_SUBJECTS = 10         # train_small: 10 subjects x 6 min -> 84/12/24 epochs
SMALL_S = 6 * 60
TRAIN_EPOCHS = 4            # fixed; patience is set beyond it
TARGETS = ",".join(synthgen.DEFAULT_TARGETS)
PAIRED_CHECK_RTOL = 1e-9    # pooled MSE from the CLI's CSV vs. from evaluate_records


class Context:
    """Workload inputs plus the tally of commands attempted and failed."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{what}: {problem}")
        print(f"FAILED {what}: {problem}", file=sys.stderr)

    def command(self, argv: list[str], check=None) -> float:
        """Run ``psgmae <argv>`` in-process; return its wall seconds.

        The command fails if it raises, returns non-zero, or ``check``
        (called untimed with the captured stdout) returns a problem.
        """
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a benchmark crash
            self.fail(argv[0], traceback.format_exc())
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        if code != 0:
            self.fail(argv[0], f"exit {code}: {err.getvalue().strip()[-400:]}")
        elif check is not None:
            problem = check(out.getvalue())
            if problem:
                self.fail(argv[0], problem)
        return wall

    def launch(self, argv: list[str]) -> tuple[float, str]:
        """Run a child Python with this checkout's ``src`` on its path;
        return (wall seconds, stderr)."""
        self.attempted += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            self.fail("python " + " ".join(argv), proc.stderr.strip()[-400:])
        return wall, proc.stderr


def import_breakdown_ms(stderr: str) -> dict[str, float]:
    """Split ``python -X importtime -c "import psgmae.cli"`` output into
    total, numpy, scipy and psgmae milliseconds.

    total, numpy and scipy are cumulative times of the outermost imports of
    each (numpy modules imported by scipy count as scipy); psgmae is the self
    time of psgmae's own modules.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # header row
        label = fields[2].rstrip()[1:]  # drop the column's leading space
        depth = (len(label) - len(label.lstrip(" "))) // 2
        rows.append((int(fields[0]), int(fields[1]), depth, label.strip()))

    # output is post-order; walk it reversed so each parent precedes its children
    totals = Counter()
    stack: list[str] = []
    for self_us, cum_us, depth, name in reversed(rows):
        del stack[depth:]
        top = name.split(".", 1)[0]
        # numpy modules that scipy pulls in count towards scipy
        if top in ("numpy", "scipy") and not any(
                a.split(".", 1)[0] in ("numpy", "scipy") for a in stack):
            totals[top] += cum_us
        if depth == 0 and top == "psgmae":
            totals["total"] += cum_us
        if top == "psgmae":
            totals["psgmae"] += self_us
        stack.append(name)
    return {key: totals[key] / 1000.0 for key in ("total", "numpy", "scipy", "psgmae")}


def write_nights(raw: Path, seed: int, subjects: int, duration_s: int) -> list[tuple[Path, Path]]:
    """Write one (PSG EDF, hypnogram EDF+) pair per subject; return the paths."""
    raw.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(subjects):
        spec = synthgen.SynthSpec(seed=(seed, i), duration_s=duration_s,
                                  subject_id=f"S{i:03d}")
        recording, annotations = synthgen.generate(spec)
        psg, hyp = raw / f"S{i:03d}-PSG.edf", raw / f"S{i:03d}-Hypnogram.edf"
        psg.write_bytes(edf_io.write_edf(recording))
        hyp.write_bytes(edf_io.write_edf(synthgen.hypnogram_recording(spec, annotations)))
        pairs.append((psg, hyp))
    return pairs


def preprocess_argv(pairs: list[tuple[Path, Path]], out: Path, seed: int) -> list[str]:
    inputs = [arg for psg, hyp in pairs for arg in ("--psg", str(psg), "--hypnogram", str(hyp))]
    return ["preprocess", *inputs, "--input-channel", synthgen.INPUT_CHANNEL,
            "--targets", TARGETS, "--seed", str(seed), "--out", str(out)]


def records_digest(records) -> str:
    """Digest of everything the epoch cache stores, in cache precision."""
    h = hashlib.blake2b(digest_size=16)
    for r in records:
        names = [r.input_channel, *r.targets]
        h.update(repr((r.subject_id, r.epoch_index, r.stage.code, names)).encode())
        h.update(np.array([r.norm_params[n] for n in names], dtype="<f4").tobytes())
        for arr in [r.input_samples, *r.targets.values()]:
            h.update(np.asarray(arr, dtype="<f4").tobytes())
    return h.hexdigest()


class IngestNight:
    """``psgmae preprocess`` over 8-h nights, then the cache is read back."""

    name = "ingest_night"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.data = ctx.work / "data"

    def setup(self) -> None:
        self.nights = write_nights(self.ctx.work / "raw", self.ctx.seed, NIGHTS, NIGHT_S)

    def prepare(self) -> None:
        # what the synth spec implies: every labelled epoch of a synthetic
        # night is kept (sleep spans the night, so no wake is trimmed)
        self.histogram = Counter()
        records = []
        for psg, hyp in self.nights:
            annotations = edf_io.parse_edf(hyp.read_bytes()).annotations
            for a in annotations:
                stage = pipeline.map_stage_label(a.label)
                if stage is not None:
                    self.histogram[stage.display] += int(a.duration_s // pipeline.EPOCH_S)
            recording = edf_io.parse_edf(psg.read_bytes())
            records += pipeline.segment_epochs(
                recording, annotations, synthgen.INPUT_CHANNEL,
                list(synthgen.DEFAULT_TARGETS), subject_id=recording.patient_id)
        self.epochs = sum(self.histogram.values())
        self.digest = records_digest(records)

    def _check(self, stdout: str) -> str | None:
        expected = [f"{self.epochs} epochs from {NIGHTS} subjects"] + [
            f"  {stage.display}: {self.histogram[stage.display]}" for stage in pipeline.STAGES]
        if stdout.splitlines()[:len(expected)] != expected:
            return f"epoch count or stage histogram differs from the synth spec: {stdout[:300]!r}"
        records = pipeline.read_epoch_cache(self.data / trainer.CACHE_FILENAME)
        if records_digest(records) != self.digest:
            return "records read back differ from the records segmented"
        return None

    def rep(self) -> tuple[int, float]:
        # a fresh output directory each time: overwriting the last cache would
        # time the kernel's write-back of its pages too
        shutil.rmtree(self.data, ignore_errors=True)
        wall = self.ctx.command(preprocess_argv(self.nights, self.data, self.ctx.seed), self._check)
        return self.epochs, wall


class TrainSmall:
    """``psgmae train`` for a fixed number of epochs on the criterion-5 shape."""

    name = "train_small"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.data = ctx.work / "data"
        self.config = ctx.work / "config.ini"
        self.val_loss: str | None = None

    def setup(self) -> None:
        subjects = write_nights(self.ctx.work / "raw", self.ctx.seed, SMALL_SUBJECTS, SMALL_S)
        self.ctx.command(preprocess_argv(subjects, self.data, self.ctx.seed))
        config = trainer.TrainConfig(
            mae=mae.MaeConfig(target_channels=synthgen.DEFAULT_TARGETS),
            input_channel=synthgen.INPUT_CHANNEL,
            max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS + 1,
        )
        self.config.write_text(trainer.config_to_ini(config))

    def prepare(self) -> None:
        manifest, records = trainer.load_dataset(self.data)
        sizes = {k: len(v) for k, v in trainer.split_records(manifest, records).items()}
        if sizes != {"train": 84, "val": 12, "test": 24}:
            raise RuntimeError(f"train_small expects 84/12/24 epochs, got {sizes}")
        self.train_records = sizes["train"]

    def _check(self, stdout: str) -> str | None:
        run = self.ctx.work / "run"
        lines = (run / "metrics.log").read_text().splitlines()
        if len(lines) != TRAIN_EPOCHS:
            return f"metrics.log has {len(lines)} lines, expected {TRAIN_EPOCHS}"
        losses = [line.split("\t")[2].split("=", 1)[1] for line in lines]
        if not float(losses[-1]) < float(losses[0]):
            return f"validation loss did not fall: {losses}"
        checkpoint = trainer.load_checkpoint((run / "checkpoint.psgmae").read_bytes())
        if checkpoint.epoch != TRAIN_EPOCHS:
            return f"checkpoint at epoch {checkpoint.epoch}, expected {TRAIN_EPOCHS}"
        if self.val_loss is None:
            self.val_loss = losses[-1]
        elif losses[-1] != self.val_loss:
            return f"final val loss {losses[-1]} differs from the first run's {self.val_loss}"
        return None

    def rep(self) -> tuple[int, float]:
        argv = ["train", "--config", str(self.config), "--data", str(self.data),
                "--out", str(self.ctx.work / "run")]
        wall = self.ctx.command(argv, self._check)
        return self.train_records * TRAIN_EPOCHS, wall


class EvalNight:
    """``psgmae eval`` and ``psgmae reconstruct`` over 8-h nights with a
    checkpoint of seeded initial parameters."""

    name = "eval_night"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.data = ctx.work / "data"
        self.checkpoint = ctx.work / "model.psgmae"
        self.report = ctx.work / "report"
        self.rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(ctx.seed)))

    def setup(self) -> None:
        nights = write_nights(self.ctx.work / "raw", self.ctx.seed, NIGHTS, NIGHT_S)
        self.ctx.command(preprocess_argv(nights, self.data, self.ctx.seed))
        # inference cost does not depend on training, so untrained parameters
        # stand in for a trained model
        config = trainer.TrainConfig(
            mae=mae.MaeConfig(target_channels=synthgen.DEFAULT_TARGETS),
            input_channel=synthgen.INPUT_CHANNEL,
        )
        params = mae.init_params(config.mae, seed=self.ctx.seed)
        blobs = {name: t.data.copy() for name, t in params.tensors.items()}
        zeros = {name: np.zeros_like(a) for name, a in blobs.items()}
        self.checkpoint.write_bytes(trainer.save_checkpoint(trainer.Checkpoint(
            config_text=trainer.config_to_ini(config), epoch=0, params=blobs,
            best_params=blobs, adam_m=zeros, adam_v=zeros, adam_step=0,
            best_val_loss=math.inf, patience_left=config.patience,
            rng_shuffle={}, rng_mask={},
        )))

    def prepare(self) -> None:
        checkpoint = trainer.load_checkpoint(self.checkpoint.read_bytes())
        params = trainer.params_from_blobs(checkpoint.train_config().mae, checkpoint.best_params)
        _, records = trainer.load_dataset(self.data)
        _, pairs = evalreport.evaluate_records(params, records)
        self.records = len(records)
        self.pooled = {
            target: sum(evalreport.mse(recon[target], record.targets[target])
                        for record, recon in pairs) / len(pairs)
            for target in synthgen.DEFAULT_TARGETS
        }

    def _check_eval(self, stdout: str) -> str | None:
        table = evalreport.table_from_csv((self.report / "mse_table.csv").read_bytes())
        rows = table.targets_for(synthgen.INPUT_CHANNEL)
        if table.input_channels() != [synthgen.INPUT_CHANNEL] or rows != list(synthgen.DEFAULT_TARGETS):
            return f"table rows {table.row_order}, expected 3 targets of {synthgen.INPUT_CHANNEL}"
        for target in rows:
            cells = [table.cell(synthgen.INPUT_CHANNEL, target, s) for s in pipeline.STAGES]
            if any(c is None for c in cells):
                return f"row {target} lacks a stage column"
            if sum(c.epoch_count for c in cells) != self.records:
                return f"row {target} counts {sum(c.epoch_count for c in cells)} of {self.records} epochs"
            pooled = table.pooled_mse(synthgen.INPUT_CHANNEL, target)
            if not math.isclose(pooled, self.pooled[target], rel_tol=PAIRED_CHECK_RTOL):
                return f"pooled MSE {pooled!r} for {target} != {self.pooled[target]!r} from evaluate_records"
        return None

    def _check_csv(self, path: Path) -> str | None:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        channels = Counter(row[0] for row in rows)
        if channels != {t: pipeline.EPOCH_SAMPLES for t in synthgen.DEFAULT_TARGETS}:
            return f"reconstruction CSV rows per channel {dict(channels)}, expected 3 x 3000"
        return None

    def rep(self) -> tuple[int, float]:
        common = ["--checkpoint", str(self.checkpoint), "--data", str(self.data)]
        wall = self.ctx.command(["eval", *common, "--out", str(self.report), "--split", "all"],
                                self._check_eval)
        out = self.ctx.work / "epoch.csv"
        index = int(self.rng.integers(self.records))
        self.ctx.command(["reconstruct", *common, "--epoch-index", str(index), "--out", str(out)],
                         lambda stdout: self._check_csv(out))
        return self.records, wall


WORKLOADS = {w.name: w for w in (IngestNight, TrainSmall, EvalNight)}
