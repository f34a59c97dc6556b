import ctypes
import dataclasses
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psgmae
from psgmae import cli, edf_io, evalreport, mae, numcore as nc, pipeline, trainer
from psgmae.cli import main
from psgmae.pipeline import denormalize

from conftest import cache_parts, chunk_size, edit_meta, footer_offsets, philox, seal_cache


TRAIN_CONFIG = """\
[mae]
patch_size = 100
seq_len = 30
embed_dim = 16
num_heads = 2
encoder_layers = 1
decoder_layers = 1
mask_ratio = 0.5
loss_scope = all
target_channels = EOG horizontal, EMG submental, EEG Pz-Oz

[optimizer]
lr = 0.001

[train]
input_channel = EEG Fpz-Cz
batch_size = 8
max_epochs = 3
seed = 0
patience = 10
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> preprocess -> train once; reused by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    data = root / "data"
    run_dir = root / "run"

    assert main(["synth", "--out", str(raw), "--seed", "0",
                 "--minutes", "3", "--subjects", "4"]) == 0
    args = ["preprocess", "--out", str(data),
            "--input-channel", "EEG Fpz-Cz",
            "--targets", "EOG horizontal,EMG submental,EEG Pz-Oz",
            "--seed", "0", "--split", "0.5,0.25,0.25"]
    for i in range(4):
        args += ["--psg", str(raw / f"S{i:03d}-PSG.edf"),
                 "--hypnogram", str(raw / f"S{i:03d}-Hypnogram.edf")]
    assert main(args) == 0

    config_path = root / "config.ini"
    config_path.write_text(TRAIN_CONFIG)
    assert main(["train", "--config", str(config_path),
                 "--data", str(data), "--out", str(run_dir)]) == 0
    return root


def workspace_rows(workspace) -> dict[str, np.ndarray]:
    """The workspace dataset's train, val and test rows."""
    manifest = pipeline.load_manifest(workspace / "data" / trainer.MANIFEST_FILENAME)
    with pipeline.EpochCacheReader(workspace / "data" / trainer.CACHE_FILENAME) as cache:
        return trainer.split_rows(manifest, cache)


def flip_rows(cache: bytearray, rows) -> None:
    """Flip one bit of each of the cache's signal rows ``rows``."""
    row = 4 * 3000 * struct.unpack_from("<H", cache_parts(bytes(cache))[1], 4)[0]
    for r in rows:
        cache[8 + r * row + 7] ^= 0x10


class TestInspect:
    def test_lists_signals(self, capsys, workspace):
        code, out, _ = run(capsys, "inspect", "--edf",
                           str(workspace / "raw" / "S000-PSG.edf"))
        assert code == 0
        assert "signals: 4" in out
        for label in ("EEG Fpz-Cz", "EOG horizontal", "EMG submental",
                      "EEG Pz-Oz"):
            assert label in out
        assert "100 Hz" in out and "50 Hz" in out

    def test_sample_counts_convert_no_signal(self, capsys, monkeypatch, workspace):
        """Each signal's count comes from the header (records x samples per
        record): the same lines as the converted signals' lengths, and not one
        digital_to_physical call."""
        path = workspace / "raw" / "S000-PSG.edf"
        recording = edf_io.parse_edf(path.read_bytes())
        lines = [f"  {spec.label}: {recording.sample_rate(i):g} Hz, "
                 f"{len(recording.samples[i])} samples, {spec.physical_dimension}"
                 for i, spec in enumerate(recording.signals)]
        calls, convert = [], edf_io.SignalSpec.digital_to_physical
        monkeypatch.setattr(edf_io.SignalSpec, "digital_to_physical",
                            lambda spec, digital: calls.append(spec) or convert(spec, digital))
        code, out, _ = run(capsys, "inspect", "--edf", str(path))
        assert code == 0 and calls == []
        assert out.splitlines()[4:4 + len(lines)] == lines

    def test_annotation_count(self, capsys, workspace):
        code, out, _ = run(capsys, "inspect", "--edf",
                           str(workspace / "raw" / "S000-Hypnogram.edf"))
        assert code == 0
        assert "annotations: 6" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.edf"
        code, _, err = run(capsys, "inspect", "--edf", str(missing))
        assert code == 2
        assert "nope.edf" in err

    @pytest.mark.parametrize("duration", ["0", "nan", "inf", "-1"])
    def test_bad_record_duration_exits_2(self, capsys, workspace, tmp_path, duration):
        raw = workspace / "raw"
        data = (raw / "S000-PSG.edf").read_bytes()
        bad = tmp_path / "bad-PSG.edf"
        bad.write_bytes(data[:244] + duration.encode().ljust(8) + data[252:])
        code, out, err = run(capsys, "inspect", "--edf", str(bad))
        assert (code, out) == (2, "") and err.startswith("error: record duration")
        code, out, err = run(capsys, "preprocess", "--psg", str(bad),
                             "--hypnogram", str(raw / "S000-Hypnogram.edf"),
                             "--input-channel", "EEG Fpz-Cz", "--targets", "EOG horizontal",
                             "--out", str(tmp_path / "data"))
        assert (code, out) == (2, "") and err.startswith("error: record duration")
        if duration == "0":  # once in a fresh process: the message, and no traceback
            proc = subprocess.run([sys.executable, "-m", "psgmae.cli", "inspect", "--edf",
                                   str(bad)], capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": str(
                                      Path(psgmae.__file__).resolve().parents[1])})
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("error: record duration")
            assert "Traceback" not in proc.stderr

    def test_unknown_flag_is_an_error(self, workspace):
        with pytest.raises(SystemExit) as exit_info:
            main(["inspect", "--edf", "x", "--frobnicate"])
        assert exit_info.value.code == 2


class TestSynth:
    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exits_2_and_writes_no_edf(self, capsys, tmp_path, noise):
        out = tmp_path / "raw"
        code, stdout, err = run(capsys, "synth", "--out", str(out), "--minutes", "1",
                                "--noise-std", noise)
        assert (code, stdout) == (2, "")
        assert err == f"error: noise_std must be finite, got {noise}\n"
        assert not any(out.iterdir())

    def test_infinite_minutes_exits_2_before_writing(self, tmp_path):
        """In a fresh process: the message, no traceback, and no output directory."""
        out = tmp_path / "raw"
        proc = subprocess.run([sys.executable, "-m", "psgmae.cli", "synth", "--out", str(out),
                               "--minutes", "inf"], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(
                                  Path(psgmae.__file__).resolve().parents[1])})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: --minutes must be finite, got inf\n"
        assert not out.exists()


class TestPreprocess:
    def test_prints_stage_histogram(self, capsys, workspace):
        # 4 subjects x 6 epochs of the W,W,1,1,2,2 prefix
        code, out, _ = run(
            capsys, "preprocess",
            "--psg", str(workspace / "raw" / "S000-PSG.edf"),
            "--hypnogram", str(workspace / "raw" / "S000-Hypnogram.edf"),
            "--input-channel", "EEG Fpz-Cz",
            "--targets", "EOG horizontal,EEG Pz-Oz",
            "--out", str(workspace / "single"),
        )
        assert code == 0
        assert "6 epochs from 1 subjects" in out
        assert "Wake: 2" in out
        assert "N1: 2" in out
        assert "N2: 2" in out

    def test_self_target_exits_2(self, capsys, workspace):
        code, _, err = run(
            capsys, "preprocess",
            "--psg", str(workspace / "raw" / "S000-PSG.edf"),
            "--hypnogram", str(workspace / "raw" / "S000-Hypnogram.edf"),
            "--input-channel", "EEG Fpz-Cz",
            "--targets", "EEG Fpz-Cz,EOG horizontal",
            "--out", str(workspace / "selfbad"),
        )
        assert code == 2
        assert "target" in err

    @pytest.mark.parametrize("split", ["0.5,0.6,-0.1", "nan,0.5,0.5", "0.5,0.5,inf",
                                       "1.5,-0.25,-0.25", "0.5,0.5"])
    def test_bad_split_exits_2_before_reading_or_writing(self, capsys, workspace, tmp_path,
                                                         monkeypatch, split):
        def no_read(*args):
            raise AssertionError("a recording was read")

        monkeypatch.setattr(edf_io, "parse_edf", no_read)
        args = ["preprocess", "--input-channel", "EEG Fpz-Cz", "--targets", "EOG horizontal",
                "--split", split, "--out", str(tmp_path / "data")]
        for i in range(4):
            args += ["--psg", str(workspace / "raw" / f"S{i:03d}-PSG.edf"),
                     "--hypnogram", str(workspace / "raw" / f"S{i:03d}-Hypnogram.edf")]
        code, out, err = run(capsys, *args)
        fractions = tuple(float(x) for x in split.split(","))
        assert (code, out) == (2, "")
        assert err == f"error: split fractions must be 3 values in [0, 1] summing to 1: " \
                      f"{fractions}\n"
        assert list(tmp_path.iterdir()) == []

    def test_rerun_is_byte_identical(self, capsys, workspace, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run(
                capsys, "preprocess",
                "--psg", str(workspace / "raw" / "S001-PSG.edf"),
                "--hypnogram", str(workspace / "raw" / "S001-Hypnogram.edf"),
                "--input-channel", "EEG Fpz-Cz",
                "--targets", "EOG horizontal,EMG submental,EEG Pz-Oz",
                "--out", str(out_dir),
            )
            assert code == 0
            outputs.append((out_dir / trainer.CACHE_FILENAME).read_bytes())
        assert outputs[0] == outputs[1]


    def test_bytes_do_not_depend_on_core_count(self, capsys, tmp_path, monkeypatch):
        # 2 subjects x 70 min: three segmentation blocks each, so 2 and 7 cores use a pool
        assert main(["synth", "--out", str(tmp_path / "raw"), "--seed", "4",
                     "--minutes", "70", "--subjects", "2"]) == 0
        capsys.readouterr()
        args = ["--input-channel", "EEG Fpz-Cz", "--targets", "EOG horizontal,EMG submental"]
        for i in range(2):
            args += ["--psg", str(tmp_path / "raw" / f"S00{i}-PSG.edf"),
                     "--hypnogram", str(tmp_path / "raw" / f"S00{i}-Hypnogram.edf")]
        runs = []
        for cores in (1, 2, 7):
            monkeypatch.setattr(nc, "cores", lambda cores=cores: cores)
            out_dir = tmp_path / f"cores{cores}"
            code, out, err = run(capsys, "preprocess", *args, "--out", str(out_dir))
            assert code == 0, err
            runs.append((out, err, (out_dir / trainer.CACHE_FILENAME).read_bytes(),
                         (out_dir / trainer.MANIFEST_FILENAME).read_bytes()))
        assert runs[0] == runs[1] == runs[2]
        assert "280 epochs from 2 subjects" in runs[0][0]

    def test_repeated_subject_exits_2(self, capsys, workspace, tmp_path):
        copy = tmp_path / "second-night-PSG.edf"  # patient_id is still S000
        copy.write_bytes((workspace / "raw" / "S000-PSG.edf").read_bytes())
        args = []
        for psg in [*(workspace / "raw" / f"S00{i}-PSG.edf" for i in range(3)), copy]:
            args += ["--psg", str(psg), "--hypnogram",
                     str(workspace / "raw" / "S000-Hypnogram.edf")]
        code, out, err = run(capsys, "preprocess", *args, "--input-channel", "EEG Fpz-Cz",
                             "--targets", "EOG horizontal", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "Traceback" not in err and out == ""
        assert "S000-PSG.edf" in err and str(copy) in err and "'S000'" in err
        assert not (tmp_path / "out" / trainer.MANIFEST_FILENAME).exists()
        assert not (tmp_path / "out" / trainer.CACHE_FILENAME).exists()

    def test_repeated_subject_is_refused_before_its_night_is_segmented(
            self, capsys, workspace, tmp_path, monkeypatch):
        real, segmented = pipeline.segment_stream, []

        def segment_stream(*args, subject_id, **kwargs):
            segmented.append(subject_id)
            return real(*args, subject_id=subject_id, **kwargs)

        monkeypatch.setattr(pipeline, "segment_stream", segment_stream)
        raw, args = workspace / "raw", []
        for i in (0, 1, 0):
            args += ["--psg", str(raw / f"S00{i}-PSG.edf"),
                     "--hypnogram", str(raw / f"S00{i}-Hypnogram.edf")]
        code, out, err = run(capsys, "preprocess", *args, "--input-channel", "EEG Fpz-Cz",
                             "--targets", "EOG horizontal", "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "") and "'S000'" in err
        assert segmented == ["S000", "S001"]

    def test_stage_counts_and_epoch_lines_are_those_of_the_rows_written(
            self, capsys, workspace, tmp_path):
        raw, out_dir, args = workspace / "raw", tmp_path / "data", []
        for i in range(4):
            args += ["--psg", str(raw / f"S00{i}-PSG.edf"),
                     "--hypnogram", str(raw / f"S00{i}-Hypnogram.edf")]
        code, out, err = run(capsys, "preprocess", *args, "--input-channel", "EEG Fpz-Cz",
                             "--targets", "EOG horizontal", "--split", "0.5,0.25,0.25",
                             "--out", str(out_dir))
        assert code == 0
        cached = pipeline.read_epoch_cache(out_dir / trainer.CACHE_FILENAME)
        manifest = pipeline.load_manifest(out_dir / trainer.MANIFEST_FILENAME)
        lines = []
        for entry in manifest.subjects:
            rows = cached[cached.subject == cached.subjects.index(entry.subject_id)]
            assert entry.stage_counts == pipeline.stage_histogram(rows)
            lines.append(f"{entry.subject_id}: {len(rows)} epochs")
        assert err.splitlines() == lines
        assert out.startswith(f"{len(cached)} epochs from 4 subjects\n")

    @pytest.mark.parametrize("token,value", [(b"\x15999\x14", b"\x15inf\x14"),
                                             (b"\x15999\x14", b"\x15nan\x14"),
                                             (b"+999\x14", b"+inf\x14")],
                             ids=["inf-duration", "nan-duration", "inf-onset"])
    def test_non_finite_hypnogram_time_exits_2(self, capsys, workspace, tmp_path, token, value):
        """A hypnogram TAL whose onset or duration reads inf or nan: an error,
        neither an uncaught OverflowError nor an annotation dropped unseen."""
        raw = workspace / "raw"
        hypnogram = edf_io.parse_edf((raw / "S000-Hypnogram.edf").read_bytes())
        hypnogram.annotations += [edf_io.Annotation(0.0, 999.0, "Sleep stage W"),
                                  edf_io.Annotation(999.0, 0.0, "Sleep stage W")]
        data = edf_io.write_edf(hypnogram)
        assert data.count(token) == 1
        bad = tmp_path / "bad-Hypnogram.edf"
        bad.write_bytes(data.replace(token, value))
        code, out, err = run(capsys, "preprocess", "--psg", str(raw / "S000-PSG.edf"),
                             "--hypnogram", str(bad), "--input-channel", "EEG Fpz-Cz",
                             "--targets", "EOG horizontal", "--out", str(tmp_path / "data"))
        assert (code, out) == (2, "")
        assert err.startswith("error: non-finite TAL onset/duration")

    def test_failed_night_leaves_the_earlier_outputs(self, capsys, workspace, tmp_path):
        """A run that fails on its fourth night (a repeated subject id) leaves
        the previous run's cache and manifest as they were, and no other file."""
        raw, out = workspace / "raw", tmp_path / "out"
        nights = [arg for i in (0, 1, 2) for arg in (
            "--psg", str(raw / f"S00{i}-PSG.edf"), "--hypnogram", str(raw / f"S00{i}-Hypnogram.edf"))]
        args = ["--input-channel", "EEG Fpz-Cz", "--targets", "EOG horizontal", "--out", str(out)]
        assert run(capsys, "preprocess", *nights, *args)[0] == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == [trainer.CACHE_FILENAME, trainer.MANIFEST_FILENAME]
        code, stdout, err = run(capsys, "preprocess", *nights, *nights[:4], *args)
        assert (code, stdout) == (2, "") and "'S000'" in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("subjects, split, warnings", [
        (4, "train=3, val=0, test=1", ["warning: empty val split; `psgmae train` needs at "
                                       "least one train and one val subject"]),
        (10, "train=7, val=1, test=2", []),
        (2, "train=2, val=0, test=0", []),  # too few to split: everything trains
    ])
    def test_empty_split_warns(self, capsys, tmp_path, subjects, split, warnings):
        assert main(["synth", "--out", str(tmp_path / "raw"), "--minutes", "1",
                     "--subjects", str(subjects)]) == 0
        capsys.readouterr()
        args = ["--input-channel", "EEG Fpz-Cz", "--targets", "EOG horizontal"]
        for i in range(subjects):
            args += ["--psg", str(tmp_path / "raw" / f"S{i:03d}-PSG.edf"),
                     "--hypnogram", str(tmp_path / "raw" / f"S{i:03d}-Hypnogram.edf")]
        code, out, err = run(capsys, "preprocess", *args, "--out", str(tmp_path / "data"))
        assert code == 0
        assert out.endswith(f"splits: {split}\n") and "warning" not in out
        assert (tmp_path / "data" / trainer.MANIFEST_FILENAME).exists()
        assert [line for line in err.splitlines() if line.startswith("warning")] == warnings


class TestTrainEval:
    def test_train_outputs_exist(self, workspace):
        assert (workspace / "run" / "checkpoint.psgmae").exists()
        metrics = (workspace / "run" / "metrics.log").read_text()
        assert len(metrics.splitlines()) == 3
        assert metrics.startswith("epoch=1\t")

    def test_eval_writes_three_by_five_table(self, capsys, workspace):
        code, out, _ = run(
            capsys, "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
            "--data", str(workspace / "data"),
            "--out", str(workspace / "eval"),
            "--split", "val",
        )
        assert code == 0
        text = (workspace / "eval" / "mse_table.txt").read_text()
        data_rows = [line for line in text.splitlines()
                     if line and not line.startswith(("Input", "-"))]
        assert len(data_rows) == 3  # one per reconstruction target
        header = text.splitlines()[0]
        for stage in ("Wake", "N1", "N2", "N3", "REM"):
            assert stage in header
        assert (workspace / "eval" / "mse_table.csv").exists()
        assert "pooled[" in out

    def test_eval_missing_checkpoint_exits_2(self, capsys, workspace):
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(workspace / "missing.ckpt"),
            "--data", str(workspace / "data"),
            "--out", str(workspace / "eval2"),
        )
        assert code == 2
        assert "missing.ckpt" in err

    def test_physical_model_and_baseline_in_physical_units(self, capsys, workspace):
        checkpoint = str(workspace / "run" / "checkpoint.psgmae")
        code, out, _ = run(
            capsys, "eval", "--checkpoint", checkpoint, "--data", str(workspace / "data"),
            "--out", str(workspace / "eval_physical"), "--split", "test", "--physical",
        )
        assert code == 0
        saved = trainer.load_checkpoint(Path(checkpoint).read_bytes())
        params = trainer.params_from_blobs(saved.train_config().mae, saved.best_params)
        epochs = trainer.split_records(*trainer.load_dataset(workspace / "data"))["test"]
        recons = mae.reconstruct(params, epochs.signals[:, 0])
        records = list(epochs)
        printed = {line.split("]")[0][len("pooled["):]: line
                   for line in out.splitlines() if line.startswith("pooled[")}
        for k, target in enumerate(params.config.target_channels):
            def pooled(predicted):
                return np.mean([
                    evalreport.mse(denormalize(pred, *r.norm_params[target]),
                                   denormalize(r.targets[target], *r.norm_params[target]))
                    for pred, r in zip(predicted, records, strict=True)])
            reference = pooled(recons[:, k])
            baseline_reference = pooled(np.zeros((len(records), 3000)))
            model = float(printed[target].split("mse=")[1].split()[0])
            baseline = float(printed[target].split("baseline=")[1].split()[0])
            assert model == pytest.approx(reference, abs=1e-6)
            assert baseline == pytest.approx(baseline_reference, abs=1e-6)
            assert baseline_reference > 10.0  # squared physical units, not the normalized 1.0

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    def test_checkpoint_shape_unlike_config_exits_2(self, capsys, workspace, tmp_path,
                                                     command):
        """A consistently saved checkpoint with 50-wide heads, where the
        config implies 100-wide ones."""
        checkpoint = trainer.load_checkpoint(
            (workspace / "run" / "checkpoint.psgmae").read_bytes())

        def narrow(section):
            return {name: arr[..., :50] if name.startswith("head.") else arr
                    for name, arr in section.items()}
        checkpoint = dataclasses.replace(
            checkpoint, params=narrow(checkpoint.params),
            best_params=narrow(checkpoint.best_params),
            adam_m=narrow(checkpoint.adam_m), adam_v=narrow(checkpoint.adam_v))
        (tmp_path / "checkpoint.psgmae").write_bytes(trainer.save_checkpoint(checkpoint))
        extra = ["--epoch-index", "0"] if command == "reconstruct" else []
        code, _, err = run(capsys, command, "--checkpoint", str(tmp_path / "checkpoint.psgmae"),
                           "--data", str(workspace / "data"),
                           "--out", str(tmp_path / "out.csv"), *extra)
        assert code == 2
        assert "Traceback" not in err
        assert "head.EOG horizontal.w (16, 50)" in err and "(16, 100)" in err

    @staticmethod
    def damaged_data(workspace, tmp_path, damage):
        """A copy of the workspace dataset whose cache bytes ``damage`` edits."""
        data = tmp_path / "data"
        data.mkdir()
        for name in (trainer.MANIFEST_FILENAME, trainer.CACHE_FILENAME):
            (data / name).write_bytes((workspace / "data" / name).read_bytes())
        cache = bytearray((data / trainer.CACHE_FILENAME).read_bytes())
        damage(cache)
        (data / trainer.CACHE_FILENAME).write_bytes(bytes(cache))
        return data

    def test_train_on_channelless_cache_exits_2(self, capsys, workspace, tmp_path):
        def no_channels(cache):
            head, footer = cache_parts(bytes(cache))  # the footer's channel count, resealed
            cache[:] = seal_cache(head, footer[:4] + struct.pack("<H", 0) + footer[6:])
        data = self.damaged_data(workspace, tmp_path, no_channels)
        code, _, err = run(
            capsys, "train", "--config", str(workspace / "config.ini"),
            "--data", str(data), "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "no channels" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_flipped_cache_bit_exits_2(self, capsys, workspace, tmp_path, command):
        # one bit of one sample, in the middle row of those the command reads
        rows = workspace_rows(workspace)
        rows = np.concatenate([rows["train"], rows["val"]]) if command == "train" else rows["test"]
        data = self.damaged_data(workspace, tmp_path,
                                 lambda cache: flip_rows(cache, [rows[len(rows) // 2]]))
        if command == "train":
            args = ["--config", str(workspace / "config.ini")]
        else:
            args = ["--checkpoint", str(workspace / "run" / "checkpoint.psgmae")]
        code, _, err = run(capsys, command, *args, "--data", str(data),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert "checksum" in err

    def test_flipped_checkpoint_bit_exits_2(self, capsys, workspace, tmp_path):
        checkpoint = bytearray((workspace / "run" / "checkpoint.psgmae").read_bytes())
        checkpoint[len(checkpoint) // 2] ^= 0x10
        (tmp_path / "checkpoint.psgmae").write_bytes(bytes(checkpoint))
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "checkpoint.psgmae"),
                           "--data", str(workspace / "data"), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "checksum" in err

    @pytest.mark.parametrize("config", [
        "lr = 1\n",
        TRAIN_CONFIG + "\n[mae]\npatch_size = 100\n",
    ], ids=["no-section-header", "repeated-section"])
    def test_malformed_config_exits_2(self, capsys, workspace, tmp_path, config):
        (tmp_path / "config.ini").write_text(config)
        code, _, err = run(capsys, "train", "--config", str(tmp_path / "config.ini"),
                           "--data", str(workspace / "data"), "--out", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_config_masking_every_token_exits_2_before_reading_the_cache(
            self, capsys, workspace, tmp_path, monkeypatch):
        def no_dataset(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(trainer, "load_dataset", no_dataset)
        monkeypatch.setattr(pipeline, "EpochCacheReader", no_dataset)
        (tmp_path / "config.ini").write_text(TRAIN_CONFIG.replace("mask_ratio = 0.5",
                                                                  "mask_ratio = 0.99"))
        code, _, err = run(capsys, "train", "--config", str(tmp_path / "config.ini"),
                           "--data", str(workspace / "data"), "--out", str(tmp_path / "run"))
        assert code == 2
        assert err == "error: mask_ratio 0.99 masks all seq_len 30 tokens; " \
                      "at least one must stay visible\n"
        assert not (tmp_path / "run").exists()

    def test_patience_below_one_exits_2_before_reading_the_cache(
            self, capsys, workspace, tmp_path, monkeypatch):
        def no_dataset(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(trainer, "load_dataset", no_dataset)
        monkeypatch.setattr(pipeline, "EpochCacheReader", no_dataset)
        (tmp_path / "config.ini").write_text(TRAIN_CONFIG.replace("patience = 10",
                                                                  "patience = 0"))
        code, _, err = run(capsys, "train", "--config", str(tmp_path / "config.ini"),
                           "--data", str(workspace / "data"), "--out", str(tmp_path / "run"))
        assert (code, err) == (2, "error: patience must be >= 1, got 0\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, field", [
        (("= EEG Fpz-Cz", "= EEG Pz-Oz2"), "input_channel 'EEG Pz-Oz2'"),
        (("EMG submental, EEG Pz-Oz", "EMG submental, EEG C3-A2"),
         "target_channels ['EEG C3-A2']"),
        (("patch_size = 100", "patch_size = 50"), "patch_size * seq_len is 1500"),
        (("seq_len = 30", "seq_len = 31"), "patch_size * seq_len is 3100"),
    ], ids=["input-channel", "target-channel", "patch-size", "seq-len"])
    def test_config_unlike_the_cache_exits_2_before_reading_a_row(
            self, capsys, workspace, tmp_path, monkeypatch, edit, field):
        cache = (workspace / "data" / trainer.CACHE_FILENAME).read_bytes()
        reads = []
        monkeypatch.setattr(pipeline.os, "preadv", reading_preadv(reads))
        (tmp_path / "config.ini").write_text(TRAIN_CONFIG.replace(*edit))
        code, out, err = run(capsys, "train", "--config", str(tmp_path / "config.ini"),
                             "--data", str(workspace / "data"), "--out", str(tmp_path / "run"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config {field}")
        assert covered(reads) == cache_reads(cache, [])  # the magic and the footer only
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, message", [
        (("lr = 0.001", "lr = -1"), "lr must be finite and > 0, got -1.0"),
        (("lr = 0.001", "lr = 0"), "lr must be finite and > 0, got 0.0"),
        (("lr = 0.001", "lr = inf"), "lr must be finite and > 0, got inf"),
        (("lr = 0.001", "lr = 0.001\nepsilon = nan"), "epsilon must be finite and > 0, got nan"),
        (("lr = 0.001", "lr = 0.001\nbeta1 = 2"), "beta1 must be in [0, 1), got 2.0"),
        (("lr = 0.001", "lr = 0.001\nbeta2 = 1"), "beta2 must be in [0, 1), got 1.0"),
        (("[optimizer]", "[optimiser]"), "unknown config section [optimiser]"),
        (("patience = 10", "patiense = 10"), "unknown config key 'patiense' in [train]"),
        (("seed = 0", "seed = 0\nlr = 0.5"), "unknown config key 'lr' in [train]"),
        (("num_heads = 2", "num_heads = 0"), "num_heads must be >= 1, got 0"),
        (("embed_dim = 16", "embed_dim = 0"), "embed_dim must be >= 1, got 0"),
        (("decoder_layers = 1", "decoder_layers = 1\nmlp_ratio = 0"),
         "mlp_ratio must be >= 1, got 0"),
        (("encoder_layers = 1", "encoder_layers = -1"), "encoder_layers must be >= 0, got -1"),
    ], ids=["lr-negative", "lr-zero", "lr-inf", "epsilon-nan", "beta1-two", "beta2-one",
            "unknown-section", "misspelt-key", "misplaced-key", "num-heads-zero",
            "embed-dim-zero", "mlp-ratio-zero", "encoder-layers-negative"])
    def test_config_values_refused_before_the_cache_is_opened(
            self, capsys, workspace, tmp_path, monkeypatch, edit, message):
        def no_dataset(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(pipeline, "EpochCacheReader", no_dataset)
        (tmp_path / "config.ini").write_text(TRAIN_CONFIG.replace(*edit))
        code, out, err = run(capsys, "train", "--config", str(tmp_path / "config.ini"),
                             "--data", str(workspace / "data"), "--out", str(tmp_path / "run"))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    def test_checkpoint_of_a_config_no_model_has_exits_2(self, capsys, workspace, tmp_path,
                                                         command):
        checkpoint = trainer.load_checkpoint(
            (workspace / "run" / "checkpoint.psgmae").read_bytes())
        checkpoint.config_text = checkpoint.config_text.replace("num_heads = 2", "num_heads = 0")
        (tmp_path / "checkpoint.psgmae").write_bytes(trainer.save_checkpoint(checkpoint))
        extra = ["--epoch-index", "0"] if command == "reconstruct" else []
        code, out, err = run(capsys, command, "--checkpoint", str(tmp_path / "checkpoint.psgmae"),
                             "--data", str(workspace / "data"),
                             "--out", str(tmp_path / "out"), *extra)
        assert (code, out, err) == (2, "", "error: num_heads must be >= 1, got 0\n")
        assert not (tmp_path / "out").exists()

    def test_reconstruct_exports_csv(self, capsys, workspace):
        out_path = workspace / "recon" / "epoch0.csv"
        code, out, _ = run(
            capsys, "reconstruct",
            "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
            "--data", str(workspace / "data"),
            "--epoch-index", "0",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "channel,time_s,original,reconstructed"
        assert len(lines) == 1 + 3 * 3000

    def test_reconstruct_bad_index_exits_2(self, capsys, workspace):
        code, _, err = run(
            capsys, "reconstruct",
            "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
            "--data", str(workspace / "data"),
            "--epoch-index", "99999",
            "--out", str(workspace / "recon" / "bad.csv"),
        )
        assert code == 2
        assert "99999" in err

    @pytest.mark.parametrize("input_channel, targets, message", [
        ("EOG horizontal", "EMG submental,EEG Pz-Oz",
         "input_channel 'EEG Fpz-Cz' is not the data's input channel 'EOG horizontal'"),
        ("EEG Fpz-Cz", "EOG horizontal,EMG submental", "target_channels ['EEG Pz-Oz']"),
    ], ids=["input_channel", "target_channel"])
    def test_reconstruct_from_a_cache_made_for_another_model_exits_2(
            self, capsys, monkeypatch, workspace, tmp_path, input_channel, targets, message):
        """A cache preprocessed for another input channel, or without one of the
        model's targets: reconstruct exits 2 from the cache's footer alone, as eval
        does, and writes no CSV."""
        data, raw = tmp_path / "data", workspace / "raw"
        argv = ["preprocess", "--input-channel", input_channel, "--targets", targets,
                "--out", str(data)]
        for i in range(4):
            argv += ["--psg", str(raw / f"S{i:03d}-PSG.edf"),
                     "--hypnogram", str(raw / f"S{i:03d}-Hypnogram.edf")]
        assert run(capsys, *argv)[0] == 0
        reads = []
        monkeypatch.setattr(pipeline.os, "preadv", reading_preadv(reads))
        code, out, err = run(capsys, "reconstruct",
                             "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
                             "--data", str(data), "--epoch-index", "0",
                             "--out", str(tmp_path / "epoch0.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("error: config ") and message in err and "Traceback" not in err
        assert covered(reads) == cache_reads((data / trainer.CACHE_FILENAME).read_bytes(), [])
        assert not (tmp_path / "epoch0.csv").exists()

    @pytest.mark.parametrize("order", [("EOG horizontal", "EEG Pz-Oz"),
                                       ("EEG Pz-Oz", "EOG horizontal")],
                             ids=["cache-order", "reversed"])
    def test_model_of_part_of_the_cache_targets_is_scored(
            self, capsys, monkeypatch, workspace, tmp_path, order):
        """A model of two of the cache's three targets trains, evaluates every split
        in both units and reconstructs: one table row and one CSV channel per model
        target, in the cache's order, and one pooled line per target, in the model's.
        Every output has the bytes of the same commands on a cache of just the
        model's channels. A model target the cache lacks still exits 2 from the
        cache's footer alone."""
        own = tmp_path / "own-data"
        argv = ["preprocess", "--input-channel", "EEG Fpz-Cz", "--targets",
                "EOG horizontal,EEG Pz-Oz", "--split", "0.5,0.25,0.25", "--out", str(own)]
        for i in range(4):
            argv += ["--psg", str(workspace / "raw" / f"S{i:03d}-PSG.edf"),
                     "--hypnogram", str(workspace / "raw" / f"S{i:03d}-Hypnogram.edf")]
        assert run(capsys, *argv)[0] == 0
        (tmp_path / "config.ini").write_text(TRAIN_CONFIG.replace(
            "EOG horizontal, EMG submental, EEG Pz-Oz", ", ".join(order)))
        outputs = {}
        for name, data in (("part", workspace / "data"), ("own", own)):
            out = tmp_path / name
            given = ["--checkpoint", str(out / "run" / "checkpoint.psgmae"), "--data", str(data)]
            commands = [["train", "--config", str(tmp_path / "config.ini"), "--data", str(data),
                         "--out", str(out / "run")],
                        *(["eval", *given, "--split", split, *physical,
                           "--out", str(out / f"{split}{''.join(physical)}")]
                          for split in ("train", "val", "test", "all")
                          for physical in ([], ["--physical"])),
                        ["reconstruct", *given, "--epoch-index", "5",
                         "--out", str(out / "epoch5.csv")]]
            printed = []
            for command in commands:
                code, text, _ = run(capsys, *command)
                assert code == 0, command
                printed.append(text.replace(str(out), "OUT"))
            outputs[name] = printed, {str(path.relative_to(out)): path.read_bytes()
                                      for path in sorted(out.rglob("*")) if path.is_file()}
        assert outputs["part"] == outputs["own"]
        printed, files = outputs["part"]
        cache_order = ["EOG horizontal", "EEG Pz-Oz"]
        for k, name in enumerate(f"{split}{physical}" for split in ("train", "val", "test", "all")
                                 for physical in ("", "--physical")):
            table = evalreport.table_from_csv(files[f"{name}/mse_table.csv"])
            assert table.row_order == [("EEG Fpz-Cz", target) for target in cache_order]
            assert [line.split("]")[0] for line in printed[1 + k].splitlines()
                    if line.startswith("pooled[")] == [f"pooled[{t}" for t in order]
        csv_rows = files["epoch5.csv"].decode().splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[0] for row in csv_rows)) == cache_order
        assert len(csv_rows) == 2 * 3000

        reads = []
        monkeypatch.setattr(pipeline.os, "preadv", reading_preadv(reads))
        code, out, err = run(capsys, "eval", "--checkpoint",
                             str(workspace / "run" / "checkpoint.psgmae"), "--data", str(own),
                             "--out", str(tmp_path / "lacking"))
        assert (code, out) == (2, "")
        assert err.startswith("error: config target_channels ['EMG submental']")
        assert covered(reads) == cache_reads((own / trainer.CACHE_FILENAME).read_bytes(), [])
        assert not (tmp_path / "lacking").exists()


def reading_preadv(reads, gone=(0, 0)):
    """An ``os.preadv`` whose reads get at most half of what each asks, and
    nothing at or past byte gone[0] of the range ``gone``, as a file cut
    there while it is read; each read's (offset, bytes asked, bytes got) go
    to ``reads``."""
    preadv = os.preadv

    def spy(fd, buffers, offset):
        (view,) = buffers
        asked, (lo, hi) = len(view), gone
        room = asked if offset + asked <= lo or offset >= hi else max(0, lo - offset)
        got = preadv(fd, [view[: max(1, room // 2)]], offset) if room else 0
        reads.append((offset, asked, got))
        return got
    return spy


def covered(reads) -> list[list[int]]:
    """The merged [start, stop) byte ranges that ``reads`` got."""
    merged = []
    for lo, hi in sorted((offset, offset + got) for offset, _, got in reads if got):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def cache_reads(cache: bytes, rows) -> list[list[int]]:
    """``covered`` of the magic, the signal rows ``rows`` and the footer and
    trailer of an epoch cache."""
    head = cache_parts(cache)[0]
    row = 4 * 3000 * struct.unpack_from("<H", cache, len(head) + 4)[0]
    return covered([(0, 8, 8), *((8 + r * row, row, row) for r in rows),
                    (len(head), 0, len(cache) - len(head))])


class TestStreamedEval:
    """eval and reconstruct read the cache chunk by chunk: damage to what
    they read exits 2 before any output file is opened."""

    @staticmethod
    def layout(cache, rows):
        """(the byte offset of the split rows' first, middle and last row, row
        bytes, and byte offsets of the footer's parts) of an epoch cache."""
        head, footer = cache_parts(bytes(cache))
        row = 4 * 3000 * struct.unpack_from("<H", footer, 4)[0]
        starts = [8 + rows[k] * row for k in (0, len(rows) // 2, -1)]
        return starts, row, {name: len(head) + at for name, at in footer_offsets(footer).items()}

    DAMAGE = {
        "first_signal_row": lambda cache, starts, row, at: cache.__setitem__(
            starts[0] + 13, cache[starts[0] + 13] ^ 0x04),
        "middle_signal_row": lambda cache, starts, row, at: cache.__setitem__(
            starts[1] + 7, cache[starts[1] + 7] ^ 0x10),
        "last_signal_row": lambda cache, starts, row, at: cache.__setitem__(
            starts[2] + row - 2, cache[starts[2] + row - 2] ^ 0x01),
        "norm": lambda cache, starts, row, at: cache.__setitem__(
            at["norm"] + 5, cache[at["norm"] + 5] ^ 0x02),
        "epoch_index": lambda cache, starts, row, at: cache.__setitem__(
            at["epoch_index"], cache[at["epoch_index"]] ^ 0x01),
        "subject": lambda cache, starts, row, at: cache.__setitem__(
            at["subject"], cache[at["subject"]] ^ 0x01),
        "stage": lambda cache, starts, row, at: cache.__setitem__(
            at["table"] - 1, cache[at["table"] - 1] ^ 0x01),
        "name_table": lambda cache, starts, row, at: cache.__setitem__(
            at["table"] + 3, cache[at["table"] + 3] ^ 0x20),
        "crc": lambda cache, starts, row, at: cache.__setitem__(-12, cache[-12] ^ 0x80),
        "truncated": lambda cache, starts, row, at: cache.__delitem__(
            slice(at["counts"] - row // 2, at["counts"])),
        "trailing_byte": lambda cache, starts, row, at: cache.append(0),
    }

    def eval_outputs(self, capsys, workspace, tmp_path, data, *extra):
        """Run eval into a new directory and into one holding an earlier table;
        return each run's exit code and stderr and whether the earlier table
        is untouched and the new directory holds none."""
        earlier = tmp_path / "earlier"
        earlier.mkdir(exist_ok=True)
        (earlier / "mse_table.csv").write_bytes(b"earlier table\n")
        runs = [run(capsys, "eval", "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
                    "--data", str(data), "--out", str(out), *extra)
                for out in (tmp_path / "new", earlier)]
        kept = ((earlier / "mse_table.csv").read_bytes() == b"earlier table\n"
                and not (tmp_path / "new" / "mse_table.csv").exists())
        return [(code, err) for code, _, err in runs], kept

    @pytest.mark.parametrize("split", ["test", "all"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_cache_exits_2_and_writes_no_table(self, capsys, workspace, tmp_path,
                                                       damage, split):
        """Damage to the footer, the trailer, the file's size, or a row of the
        split (its first, middle or last)."""
        rows = workspace_rows(workspace)
        rows = np.arange(sum(map(len, rows.values()))) if split == "all" else rows[split]

        def edit(cache):
            self.DAMAGE[damage](cache, *self.layout(cache, rows))
        data = TestTrainEval.damaged_data(workspace, tmp_path, edit)
        runs, kept = self.eval_outputs(capsys, workspace, tmp_path, data, "--split", split)
        for code, err in runs:
            assert code == 2
            assert err.startswith("error:") and "Traceback" not in err
        assert kept

    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    def test_read_cut_short_exits_2(self, capsys, workspace, tmp_path, monkeypatch, command):
        cache = (workspace / "data" / trainer.CACHE_FILENAME).read_bytes()
        gone = (8, len(cache_parts(cache)[0]))  # every signal row
        monkeypatch.setattr(pipeline.os, "preadv", reading_preadv([], gone))
        if command == "eval":
            runs, kept = self.eval_outputs(capsys, workspace, tmp_path, workspace / "data")
            assert kept
        else:
            code, _, err = run(capsys, "reconstruct", "--checkpoint",
                               str(workspace / "run" / "checkpoint.psgmae"),
                               "--data", str(workspace / "data"), "--epoch-index", "0",
                               "--out", str(tmp_path / "epoch.csv"))
            runs = [(code, err)]
            assert not (tmp_path / "epoch.csv").exists()
        for code, err in runs:
            assert code == 2
            assert "ended early" in err

    @pytest.mark.parametrize("cores", [1, 2, 7])
    @pytest.mark.parametrize("command", ["eval", "reconstruct"])
    def test_reads_bounded_by_a_chunk_and_cover_the_file(self, capsys, workspace, tmp_path,
                                                         monkeypatch, fresh_pool, cores,
                                                         command):
        """Over 150 epochs of three subjects in runs of 10, no read asks for
        more than a chunk of rows, and the reads cover exactly the
        magic, the rows asked (the test split's, or reconstruct's one row) and
        the footer and trailer, each byte once."""
        monkeypatch.setattr(nc, "cores", lambda: cores)
        n, rng, data = 150, philox(150), tmp_path / "data"
        data.mkdir()
        subject = np.arange(n) // 10 % 3
        pipeline.save_manifest(data / trainer.MANIFEST_FILENAME, pipeline.DatasetManifest(
            [], splits={"S0": "test", "S1": "train", "S2": "val"}))
        pipeline.write_epoch_cache(data / trainer.CACHE_FILENAME, pipeline.EpochSet(
            ("EEG Fpz-Cz", "EOG horizontal", "EMG submental", "EEG Pz-Oz"), ("S0", "S1", "S2"),
            subject=subject, epoch_index=np.arange(n), stage=rng.integers(0, 5, n),
            norm=np.stack([rng.normal(0, 20, (n, 4)), rng.uniform(0.5, 9, (n, 4))], axis=-1),
            signals=rng.normal(0, 1, (n, 4, 3000))))
        cache = (data / trainer.CACHE_FILENAME).read_bytes()
        row, footer = 4 * 4 * 3000, len(cache) - len(cache_parts(cache)[0])
        reads = []
        monkeypatch.setattr(pipeline.os, "preadv", reading_preadv(reads))
        args = ["--checkpoint", str(workspace / "run" / "checkpoint.psgmae"), "--data", str(data)]
        if command == "eval":
            code, _, _ = run(capsys, "eval", *args, "--out", str(tmp_path / "out"))
            chunk, rows = chunk_size(n // 3), np.flatnonzero(subject == 0)
        else:
            code, _, _ = run(capsys, "reconstruct", *args, "--epoch-index", str(n - 1),
                             "--out", str(tmp_path / "epoch.csv"))
            chunk, rows = 1, [n - 1]
        assert code == 0
        assert max(asked for _, asked, _ in reads) <= max(chunk * row, footer)
        assert covered(reads) == cache_reads(cache, rows)
        assert sum(got for _, _, got in reads) == 8 + len(rows) * row + footer

    def test_streamed_outputs_equal_in_memory_ones(self, capsys, workspace, tmp_path):
        checkpoint = str(workspace / "run" / "checkpoint.psgmae")
        saved = trainer.load_checkpoint(Path(checkpoint).read_bytes())
        params = trainer.params_from_blobs(saved.train_config().mae, saved.best_params)
        manifest, epochs = trainer.load_dataset(workspace / "data")
        for split, subset in {"all": epochs, **trainer.split_records(manifest, epochs)}.items():
            code, _, _ = run(capsys, "eval", "--checkpoint", checkpoint,
                             "--data", str(workspace / "data"), "--split", split,
                             "--out", str(tmp_path / split))
            assert code == 0
            table = evalreport.evaluate_records(params, subset)[0]
            assert (tmp_path / split / "mse_table.csv").read_bytes() == evalreport.render_table(
                table, "csv")
        code, _, _ = run(capsys, "reconstruct", "--checkpoint", checkpoint,
                         "--data", str(workspace / "data"), "--epoch-index", "5",
                         "--out", str(tmp_path / "epoch.csv"))
        assert code == 0
        evalreport.export_reconstruction(epochs[5], dict(zip(
            params.config.target_channels, mae.reconstruct(params, epochs.signals[5:6, 0])[0])),
            tmp_path / "reference.csv")
        assert (tmp_path / "epoch.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("edit,message", [
        (lambda cache: cache.replace(b"EEG Fpz-Cz", b"EEG Fpz-Cx"), "input channel"),
        (lambda cache: cache.replace(b"EEG Pz-Oz", b"EEG Pz-Ox"), "target channels"),
    ], ids=["input_channel", "target_channel"])
    def test_channels_unlike_the_checkpoint_exit_2(self, capsys, workspace, tmp_path, edit,
                                                   message):
        def rename(cache):  # a consistent cache whose channel names differ
            head, footer = cache_parts(bytes(cache))
            cache[:] = seal_cache(head, edit(footer))
        data = TestTrainEval.damaged_data(workspace, tmp_path, rename)
        runs, kept = self.eval_outputs(capsys, workspace, tmp_path, data, "--split", "all")
        for code, err in runs:
            assert code == 2
            assert message in err
        assert kept

    def test_empty_split_exits_2(self, capsys, workspace, tmp_path):
        data = TestTrainEval.damaged_data(workspace, tmp_path, lambda cache: None)
        manifest = pipeline.load_manifest(data / trainer.MANIFEST_FILENAME)
        manifest.splits = dict.fromkeys(manifest.splits, "train")
        pipeline.save_manifest(data / trainer.MANIFEST_FILENAME, manifest)
        runs, kept = self.eval_outputs(capsys, workspace, tmp_path, data, "--split", "val")
        for code, err in runs:
            assert code == 2
            assert "no epochs in split 'val'" in err
        assert kept


class TestSplitRows:
    """train and eval read and check only the rows they use: damage to
    another split's rows leaves their outputs byte-identical, damage to one of
    their own exits 2 before any output is written."""

    def eval_outputs(self, capsys, workspace, data, out, split):
        """eval --split's stdout and the files it writes, from the dataset in ``data``."""
        code, stdout, _ = run(capsys, "eval", "--checkpoint",
                              str(workspace / "run" / "checkpoint.psgmae"), "--data", str(data),
                              "--split", split, "--out", str(out))
        assert code == 0
        return stdout, {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_damage_outside_the_split_changes_no_byte(self, capsys, workspace, tmp_path, split):
        """eval --split with every other split's rows damaged, and for the test
        split, train with the test rows damaged."""
        rows = workspace_rows(workspace)
        others = np.concatenate([r for name, r in rows.items() if name != split])
        data = TestTrainEval.damaged_data(workspace, tmp_path,
                                          lambda cache: flip_rows(cache, others))
        damaged = self.eval_outputs(capsys, workspace, data, tmp_path / "damaged", split)
        intact = self.eval_outputs(capsys, workspace, workspace / "data", tmp_path / "intact",
                                   split)
        assert damaged == intact and len(damaged[1]) == 2
        if split == "test":
            (tmp_path / "test").mkdir()
            data = TestTrainEval.damaged_data(workspace, tmp_path / "test",
                                              lambda cache: flip_rows(cache, rows["test"]))
            assert run(capsys, "train", "--config", str(workspace / "config.ini"),
                       "--data", str(data), "--out", str(tmp_path / "run"))[0] == 0
            for name in ("checkpoint.psgmae", "metrics.log"):
                assert (tmp_path / "run" / name).read_bytes() == \
                    (workspace / "run" / name).read_bytes()

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_damage_inside_the_split_exits_2(self, capsys, workspace, tmp_path, split):
        row = int(workspace_rows(workspace)[split][-1])
        data = TestTrainEval.damaged_data(workspace, tmp_path, lambda cache: flip_rows(cache, [row]))
        commands = [["eval", "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
                     "--split", split]]
        if split != "test":
            commands.append(["train", "--config", str(workspace / "config.ini")])
        for argv in commands:
            code, out, err = run(capsys, *argv, "--data", str(data), "--out", str(tmp_path / "out"))
            assert (code, out) == (2, "")
            assert err == f"error: epoch cache row {row} fails its checksum\n"
            assert not (tmp_path / "out").exists()

    def test_train_reads_no_test_row(self, capsys, workspace, tmp_path, monkeypatch):
        """train reads the magic, the train and val rows and the footer, each
        byte once, and writes the workspace run's bytes."""
        rows = workspace_rows(workspace)
        cache = (workspace / "data" / trainer.CACHE_FILENAME).read_bytes()
        reads = []
        monkeypatch.setattr(pipeline.os, "preadv", reading_preadv(reads))
        code, _, _ = run(capsys, "train", "--config", str(workspace / "config.ini"),
                         "--data", str(workspace / "data"), "--out", str(tmp_path / "run"))
        assert code == 0
        used = np.concatenate([rows["train"], rows["val"]])
        assert covered(reads) == cache_reads(cache, used)
        assert sum(got for _, _, got in reads) == len(cache) - len(rows["test"]) * 4 * 4 * 3000
        for name in ("checkpoint.psgmae", "metrics.log"):
            assert (tmp_path / "run" / name).read_bytes() == (workspace / "run" / name).read_bytes()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_unlike_the_cache_exits_2(self, capsys, workspace, tmp_path, command):
        """A manifest that lost a subject the cache holds and names one it does not."""
        data = TestTrainEval.damaged_data(workspace, tmp_path, lambda cache: None)
        manifest = pipeline.load_manifest(data / trainer.MANIFEST_FILENAME)
        manifest.splits["S099"] = manifest.splits.pop("S003")
        pipeline.save_manifest(data / trainer.MANIFEST_FILENAME, manifest)
        if command == "train":
            args = ["--config", str(workspace / "config.ini")]
        else:
            args = ["--checkpoint", str(workspace / "run" / "checkpoint.psgmae"), "--split", "test"]
        code, out, err = run(capsys, command, *args, "--data", str(data),
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == ("error: subjects only in the epoch cache ['S003'], only in the manifest "
                       "['S099']; re-run preprocess\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("manifest", [
        '{"seed": 0, "subjects": [{"foo": 1}], "splits": {}}', "[1, 2]",
        '{"seed": 0, "subjects": [], "splits": [1]}',
    ], ids=["entry-fields", "list", "splits-list"])
    def test_manifest_of_another_shape_exits_2(self, capsys, workspace, tmp_path, command,
                                               manifest):
        data = TestTrainEval.damaged_data(workspace, tmp_path, lambda cache: None)
        (data / trainer.MANIFEST_FILENAME).write_text(manifest)
        if command == "train":
            args = ["--config", str(workspace / "config.ini")]
        else:
            args = ["--checkpoint", str(workspace / "run" / "checkpoint.psgmae"), "--split", "test"]
        code, out, err = run(capsys, command, *args, "--data", str(data),
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed manifest {data / trainer.MANIFEST_FILENAME}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval-all", "reconstruct"])
    def test_commands_that_need_no_split_read_no_manifest(self, capsys, workspace, tmp_path,
                                                          command):
        """eval --split all and reconstruct give the same stdout and bytes
        with a damaged manifest as with the intact one."""
        data = TestTrainEval.damaged_data(workspace, tmp_path, lambda cache: None)
        (data / trainer.MANIFEST_FILENAME).write_text("[1, 2]")
        checkpoint = ["--checkpoint", str(workspace / "run" / "checkpoint.psgmae")]
        outputs = []
        for source, out in ((data, tmp_path / "damaged"),
                            (workspace / "data", tmp_path / "intact")):
            if command == "eval-all":
                argv = ["eval", *checkpoint, "--split", "all", "--out", str(out)]
            else:
                argv = ["reconstruct", *checkpoint, "--epoch-index", "5",
                        "--out", str(out / "epoch.csv")]
            code, stdout, _ = run(capsys, *argv, "--data", str(source))
            assert code == 0
            outputs.append((stdout.replace(str(out), "OUT"),
                            {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
        assert outputs[0] == outputs[1] and outputs[0][1]


class TestTrainProgress:
    def test_resume_appends_to_metrics_log(self, capsys, workspace, tmp_path):
        data = str(workspace / "data")
        configs = {}
        for epochs in (3, 6):
            configs[epochs] = tmp_path / f"{epochs}.ini"
            configs[epochs].write_text(
                TRAIN_CONFIG.replace("max_epochs = 3", f"max_epochs = {epochs}"))
        full, part = tmp_path / "full", tmp_path / "part"
        assert main(["train", "--config", str(configs[6]), "--data", data,
                     "--out", str(full)]) == 0
        assert main(["train", "--config", str(configs[3]), "--data", data,
                     "--out", str(part)]) == 0
        assert main(["train", "--config", str(configs[6]), "--data", data, "--out", str(part),
                     "--resume", str(part / "checkpoint.psgmae")]) == 0
        capsys.readouterr()
        assert (part / "metrics.log").read_bytes() == (full / "metrics.log").read_bytes()
        assert len((full / "metrics.log").read_text().splitlines()) == 6
        assert (part / "checkpoint.psgmae").read_bytes() == \
            (full / "checkpoint.psgmae").read_bytes()

    def test_checkpoint_before_numerics_version(self, capsys, workspace, tmp_path):
        """A checkpoint without the numerics key (version 1) still evaluates,
        reconstructs and resumes with the stdout of the same checkpoint at the
        current version; only its resume warns, once, on stderr."""
        data, config = str(workspace / "data"), tmp_path / "4.ini"
        config.write_text(TRAIN_CONFIG.replace("max_epochs = 3", "max_epochs = 4"))
        current = (workspace / "run" / "checkpoint.psgmae").read_bytes()
        runs = {}
        for name, blob in (("current", current), ("older", edit_meta(
                current, lambda meta: {k: v for k, v in meta.items() if k != "numerics"}))):
            out_dir = tmp_path / name
            out_dir.mkdir()
            (out_dir / "checkpoint.psgmae").write_bytes(blob)
            given = ["--checkpoint", str(out_dir / "checkpoint.psgmae"), "--data", data]
            runs[name] = []
            for argv in (["eval", *given, "--out", str(out_dir / "eval")],
                         ["reconstruct", *given, "--epoch-index", "0",
                          "--out", str(out_dir / "epoch.csv")],
                         ["train", "--config", str(config), "--data", data, "--resume",
                          str(out_dir / "checkpoint.psgmae"), "--out", str(out_dir / "resumed")]):
                code, out, err = run(capsys, *argv)
                assert code == 0
                runs[name].append((out.replace(str(out_dir), "OUT"),
                                   [line for line in err.splitlines() if "warning" in line]))
        assert [out for out, _ in runs["older"]] == [out for out, _ in runs["current"]]
        assert [warnings for _, warnings in runs["current"]] == [[], [], []]
        assert [len(warnings) for _, warnings in runs["older"]] == [0, 0, 1]
        assert "numerics version 1" in runs["older"][2][1][0]
        assert "will not match an uninterrupted run" in runs["older"][2][1][0]

    def test_out_naming_a_file_exits_2_before_training(self, capsys, workspace, tmp_path):
        (tmp_path / "out").write_text("not a directory")
        code, _, err = run(capsys, "train", "--config", str(workspace / "config.ini"),
                           "--data", str(workspace / "data"), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "File exists" in err and "epoch=" not in err

    @pytest.mark.parametrize("failure", ["input-channel", "resume-past-max-epochs"])
    def test_train_failing_its_checks_leaves_no_out(self, capsys, workspace, tmp_path, failure):
        config, extra = workspace / "config.ini", []
        if failure == "input-channel":
            config = tmp_path / "config.ini"
            config.write_text(TRAIN_CONFIG.replace("= EEG Fpz-Cz", "= EEG Pz-Oz2"))
        else:
            extra = ["--resume", str(workspace / "run" / "checkpoint.psgmae")]
        code, out, err = run(capsys, "train", "--config", str(config), "--data",
                             str(workspace / "data"), "--out", str(tmp_path / "new" / "run"),
                             *extra)
        assert (code, out) == (2, "")
        assert ("input channel" if failure == "input-channel" else "max_epochs") in err
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            (["config.ini"] if failure == "input-channel" else [])

    @pytest.mark.parametrize("edit", [
        lambda meta: {**meta, "rng_shuffle": {**meta["rng_shuffle"], "counter": [-1, 0, 0, 0]}},
        lambda meta: {**meta, "rng_mask": {**meta["rng_mask"], "key": [2**64, 0]}},
        lambda meta: {**meta, "rng_shuffle": {**meta["rng_shuffle"], "counter": [0]}},
        lambda meta: {**meta, "epoch": -5},
    ], ids=["counter-negative", "key-too-large", "counter-one-word", "epoch-negative"])
    def test_resume_from_a_malformed_sealed_checkpoint_exits_2(self, capsys, workspace,
                                                               tmp_path, edit):
        """A checkpoint whose CRC is valid but whose meta no run can have: the resume
        exits 2 with one error line before any epoch runs, and leaves no --out."""
        resume = tmp_path / "checkpoint.psgmae"
        resume.write_bytes(edit_meta((workspace / "run" / "checkpoint.psgmae").read_bytes(), edit))
        (tmp_path / "config.ini").write_text(TRAIN_CONFIG.replace("max_epochs = 3",
                                                                  "max_epochs = 4"))
        code, out, err = run(capsys, "train", "--config", str(tmp_path / "config.ini"),
                             "--data", str(workspace / "data"),
                             "--out", str(tmp_path / "new" / "run"), "--resume", str(resume))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: malformed checkpoint")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["checkpoint.psgmae",
                                                                     "config.ini"]

    def test_epoch_lines_reach_stderr_while_training(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "run"
        lines = []
        monkeypatch.setattr(cli, "_info", lambda message: lines.append(
            (message, (out / "checkpoint.psgmae").exists())))
        assert main(["train", "--config", str(workspace / "config.ini"),
                     "--data", str(workspace / "data"), "--out", str(out)]) == 0
        logged = (out / "metrics.log").read_text().splitlines()
        # every line arrived before train returned and its outputs were written
        assert lines == [(line, False) for line in logged]

    def test_eval_builds_no_per_epoch_pairs(self, capsys, workspace, tmp_path, monkeypatch):
        checkpoint = trainer.load_checkpoint((workspace / "run" / "checkpoint.psgmae").read_bytes())
        params = trainer.params_from_blobs(checkpoint.train_config().mae, checkpoint.best_params)
        epochs = trainer.load_dataset(workspace / "data")[1]
        reference = evalreport.render_table(evalreport.evaluate_records(params, epochs)[0], "csv")

        def refuse(*args, **kwargs):
            raise AssertionError("eval built the per-epoch pairs")

        monkeypatch.setattr(evalreport, "evaluate_records", refuse)
        code, _, _ = run(capsys, "eval", "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
                         "--data", str(workspace / "data"), "--out", str(tmp_path),
                         "--split", "all")
        assert code == 0
        assert (tmp_path / "mse_table.csv").read_bytes() == reference


class FakeLibc:
    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


@pytest.mark.parametrize("preset, has_mallopt, calls", [
    (None, True, [(-8, 1)]),  # M_ARENA_MAX
    ("4", True, []),
    (None, False, []),
], ids=["unset", "user-set", "no-mallopt"])
def test_main_caps_malloc_arenas(capsys, tmp_path, monkeypatch, preset, has_mallopt, calls):
    libc = FakeLibc() if has_mallopt else object()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    if preset is None:
        monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)
    else:
        monkeypatch.setenv("MALLOC_ARENA_MAX", preset)
    code, _, _ = run(capsys, "inspect", "--edf", str(tmp_path / "absent.edf"))
    assert code == 2
    assert getattr(libc, "calls", []) == calls
    if calls:
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


class TestGradcheck:
    def test_tiny_64_bit_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--tiny")
        assert code == 0
        assert "PASS" in out
        error = float(out.split("max relative error:")[1].split()[0])
        assert error < 1e-5

    def test_tiny_32_bit_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--tiny", "--bits", "32")
        assert code == 0
        error = float(out.split("max relative error:")[1].split()[0])
        assert error < 1e-3

    @pytest.mark.parametrize("bits", ["64", "32"])
    def test_tiny_flag_selects_nothing(self, capsys, bits):
        code, out, _ = run(capsys, "gradcheck", "--bits", bits)
        assert code == 0 and out.rstrip().endswith("PASS")
        assert run(capsys, "gradcheck", "--tiny", "--bits", bits) == (0, out, "")

    def test_fd_step_is_not_an_option(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["gradcheck", "--fd-step", "1e-4"])
        assert exit_info.value.code == 2

    def test_a_wrong_backward_in_the_training_loss_fails(self, capsys, monkeypatch):
        gelu = nc.gelu

        def gelu_with_identity_backward(a):  # the right values, the wrong gradient
            return nc._make(gelu(nc.Tensor(a.data)).data, (a,), lambda g: (g,))

        monkeypatch.setattr(nc, "gelu", gelu_with_identity_backward)
        code, out, _ = run(capsys, "gradcheck")
        assert code == 1 and out.rstrip().endswith("FAIL")


class TestDeterminism:
    def test_stdout_stable_across_runs(self, capsys, workspace, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            code, out, _ = run(
                capsys, "eval",
                "--checkpoint", str(workspace / "run" / "checkpoint.psgmae"),
                "--data", str(workspace / "data"),
                "--out", str(tmp_path / name),
                "--split", "val",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_probe(probe: str, **environ) -> str:
    """stdout of ``python -c probe`` in a fresh interpreter that imports
    this psgmae, without the BLAS thread variables unless given."""
    src = str(Path(psgmae.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], env={**env, **environ}, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_cli_import_loads_no_scipy():
    """Nor concurrent.futures: the worker pool is imported by its first use."""
    probe = ("import sys, psgmae.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('scipy', 'concurrent')))")
    assert run_probe(probe).strip() == "[]"


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_pins_blas_threads(preset):
    probe = ("import os, psgmae.cli; "
             f"print(*(os.environ[name] for name in {BLAS_THREAD_VARIABLES}))")
    environ = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert run_probe(probe, **environ).split() == [preset or "1", "1", "1"]


@pytest.mark.parametrize("command", ["train", "eval", "reconstruct"])
def test_blas_thread_variable_warns_once_on_stderr(capsys, workspace, tmp_path, monkeypatch,
                                                   command):
    """Only stderr changes: in this process BLAS kept the thread count it started with."""
    data, checkpoint = str(workspace / "data"), str(workspace / "run" / "checkpoint.psgmae")
    argv = {"train": ["--config", str(workspace / "config.ini"), "--data", data],
            "eval": ["--checkpoint", checkpoint, "--data", data],
            "reconstruct": ["--checkpoint", checkpoint, "--data", data, "--epoch-index", "0"]}
    runs = []
    for value in (None, "2"):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        if value is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        out_dir = tmp_path / f"blas-{value}"
        target = out_dir / "epoch.csv" if command == "reconstruct" else out_dir
        code, out, err = run(capsys, command, *argv[command], "--out", str(target))
        assert code == 0
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        if value is None:
            assert warnings == []
        else:
            assert len(warnings) == 1
            assert "OPENBLAS_NUM_THREADS=2" in warnings[0] and "byte-identical" in warnings[0]
        files = {path.relative_to(out_dir): path.read_bytes()
                 for path in sorted(out_dir.rglob("*")) if path.is_file()}
        runs.append((out.replace(str(out_dir), "OUT"), files))
    assert runs[0] == runs[1]


@pytest.mark.skipif(shutil.which("taskset") is None,
                    reason="taskset is missing: tests/e2e.sh runs each command pinned to one core")
def test_e2e_script_passes(tmp_path):
    """tests/e2e.sh, CI's fresh-process checks that every output is byte-identical
    on one core and on every core and across resume, passes."""
    path = f"{Path(sys.executable).parent}{os.pathsep}{os.environ.get('PATH', '')}"
    result = subprocess.run(["sh", str(Path(__file__).with_name("e2e.sh")), str(tmp_path)],
                            env={**os.environ, "PATH": path}, capture_output=True, text=True,
                            timeout=900)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
