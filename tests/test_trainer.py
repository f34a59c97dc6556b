import dataclasses
import math
import re
import struct
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from psgmae import mae, numcore as nc, synthgen, trainer
from psgmae.pipeline import EpochSet, MissingChannel, target_positions
from psgmae.trainer import (
    BadMagic,
    Checkpoint,
    EmptySplit,
    NonFiniteLoss,
    ShapeMismatchOnLoad,
    TrainConfig,
    TrainerError,
    config_from_ini,
    config_to_ini,
    load_checkpoint,
    save_checkpoint,
    train,
)

from conftest import (chunked_reconstruct, edit_meta, philox, reseal, synth_dataset,
                      synth_records)


def small_config(**overrides):
    defaults = dict(
        mae=mae.MaeConfig(
            embed_dim=16, num_heads=2, encoder_layers=1, decoder_layers=1,
            target_channels=synthgen.DEFAULT_TARGETS,
        ),
        input_channel=synthgen.INPUT_CHANNEL,
        batch_size=8,
        max_epochs=3,
        seed=0,
        patience=10,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def parse_metrics(line):
    out = {}
    for part in line.split("\t"):
        key, _, value = part.partition("=")
        out[key] = float(value)
    return out


@pytest.fixture(scope="module")
def dataset():
    _, _, splits = synth_dataset(n_subjects=5, minutes=3.0, seed=0)
    return splits


class TestConfigSerialization:
    def test_round_trip(self):
        config = small_config(lr=3e-4, max_epochs=17, seed=42,
                              calibrate_scale=False)
        restored = config_from_ini(config_to_ini(config))
        assert restored == config

    def test_defaults_from_minimal_ini(self):
        text = "\n".join([
            "[mae]",
            "target_channels = a, b",
            "[train]",
            "input_channel = x",
        ])
        config = config_from_ini(text)
        assert config.mae.patch_size == 100
        assert config.lr == 1e-3
        assert config.batch_size == 64
        assert config.mae.target_channels == ("a", "b")

    def test_self_target_rejected(self):
        with pytest.raises(ValueError):
            small_config(input_channel=synthgen.EOG_CHANNEL)

    @pytest.mark.parametrize("name", ["batch_size", "max_epochs", "patience"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected(self, name, value):
        """A run with patience 0 would train on but leave a checkpoint that
        cannot be resumed, as one that already stopped early."""
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            small_config(**{name: value})
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", config_to_ini(small_config()),
                      flags=re.M)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            config_from_ini(text)

    @pytest.mark.parametrize("name, value, least", [
        ("embed_dim", 0, 1), ("num_heads", 0, 1), ("mlp_ratio", 0, 1),
        ("encoder_layers", -1, 0), ("decoder_layers", -1, 0)])
    def test_model_sizes_no_model_has_rejected(self, name, value, least):
        """num_heads 0 divided by zero, embed_dim or mlp_ratio 0 overflowed, and
        encoder_layers -1 trained as 0; each is refused from the config and from
        a checkpoint's config."""
        message = f"^{name} must be >= {least}, got {value}$"
        with pytest.raises(ValueError, match=message):
            mae.MaeConfig(**{name: value, "target_channels": ("a",)})
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", config_to_ini(small_config()),
                      flags=re.M)
        with pytest.raises(ValueError, match=message):
            config_from_ini(text)
        checkpoint = dataclasses.replace(trainer.initial_checkpoint(small_config()),
                                         config_text=text)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(save_checkpoint(checkpoint)).train_config()

    def test_round_trip_of_every_field(self):
        config = TrainConfig(
            mae=mae.MaeConfig(patch_size=60, seq_len=50, embed_dim=24, num_heads=3,
                              encoder_layers=3, decoder_layers=2, mlp_ratio=2,
                              mask_ratio=0.3, target_channels=("b", "a;c"),
                              loss_scope="masked"),
            input_channel="x", lr=0.1 / 3, beta1=0.0, beta2=0.5, epsilon=1e-300,
            batch_size=7, max_epochs=9, seed=11, patience=4, calibrate_scale=False)
        assert config_from_ini(config_to_ini(config)) == config

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Config file\n.*?```ini\n(.*?)```", readme, re.S).group(1)
        assert config_from_ini(block) == TrainConfig(
            mae=mae.MaeConfig(target_channels=("EOG horizontal", "EMG submental", "EEG Pz-Oz")),
            input_channel="EEG Fpz-Cz")

    @pytest.mark.parametrize("name, value, rule", [
        ("lr", 0.0, "finite and > 0"), ("lr", -1e-3, "finite and > 0"),
        ("lr", math.inf, "finite and > 0"), ("lr", math.nan, "finite and > 0"),
        ("epsilon", 0.0, "finite and > 0"), ("epsilon", -math.inf, "finite and > 0"),
        ("beta1", 1.0, "in [0, 1)"), ("beta1", -0.1, "in [0, 1)"),
        ("beta2", 2.0, "in [0, 1)"), ("beta2", math.nan, "in [0, 1)"),
    ])
    def test_optimizer_values_out_of_range_rejected(self, name, value, rule):
        message = f"^{name} must be {re.escape(rule)}, got {value}$"
        with pytest.raises(ValueError, match=message):
            small_config(**{name: value})
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", config_to_ini(small_config()),
                      flags=re.M)
        with pytest.raises(ValueError, match=message):
            config_from_ini(text)

    @pytest.mark.parametrize("edit, message", [
        (("[optimizer]", "[optimiser]"), "unknown config section [optimiser]"),
        (("[mae]", "[DEFAULT]\nseed = 1\n[mae]"), "unknown config section [DEFAULT]"),
        (("patience =", "patiense ="), "unknown config key 'patiense' in [train]"),
        (("lr =", "learning_rate ="), "unknown config key 'learning_rate' in [optimizer]"),
        (("seq_len =", "input_channel = x\nseq_len ="),
         "unknown config key 'input_channel' in [mae]"),
    ])
    def test_unknown_section_or_key_named(self, edit, message):
        text = config_to_ini(small_config()).replace(*edit)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_ini(text)

    @pytest.mark.parametrize("text", [
        "lr = 1\n",
        "[mae]\n[mae]\n[train]\ninput_channel = x\n",
        "[mae]\nloss_scope = 50%\n[train]\ninput_channel = x\n",
    ], ids=["no-section-header", "repeated-section", "bad-interpolation"])
    def test_malformed_ini_raises_value_error(self, text):
        with pytest.raises(ValueError, match="malformed config INI"):
            config_from_ini(text)


class TestTrainLoop:
    def test_determinism(self, dataset):
        results = [train(small_config(), dataset) for _ in range(2)]
        assert results[0].metrics_lines == results[1].metrics_lines
        assert save_checkpoint(results[0].checkpoint) == \
            save_checkpoint(results[1].checkpoint)

    def test_zero_lr_leaves_params_at_init(self, dataset):
        config = small_config(calibrate_scale=False, max_epochs=2)
        config.lr = 0.0  # TrainConfig refuses it; the loop itself takes it
        result = train(config, dataset)
        init_seq = np.random.SeedSequence(config.seed).spawn(3)[0]
        reference = mae.init_params(config.mae, init_seq, dtype=np.float32)
        for name, tensor in reference.tensors.items():
            assert np.array_equal(result.checkpoint.params[name], tensor.data)

    def test_val_loss_decreases(self, dataset):
        result = train(small_config(max_epochs=8), dataset)
        first = parse_metrics(result.metrics_lines[0])["val_loss"]
        last = parse_metrics(result.metrics_lines[-1])["val_loss"]
        assert last < first

    def test_metrics_carry_per_target_mse(self, dataset):
        result = train(small_config(max_epochs=1), dataset)
        metrics = parse_metrics(result.metrics_lines[0])
        for channel in synthgen.DEFAULT_TARGETS:
            assert f"val_mse[{channel}]" in metrics

    def test_empty_split(self, dataset):
        with pytest.raises(EmptySplit):
            train(small_config(), {"train": [], "val": dataset["val"]})
        with pytest.raises(EmptySplit):
            train(small_config(), {"train": dataset["train"], "val": []})

    def test_input_channel_mismatch(self, dataset):
        config = TrainConfig(
            mae=mae.MaeConfig(embed_dim=16, num_heads=2,
                              target_channels=synthgen.DEFAULT_TARGETS),
            input_channel="EEG other",
            max_epochs=1,
        )
        with pytest.raises(ValueError):
            train(config, dataset)

    def test_missing_configured_target(self, dataset):
        config = small_config(mae=mae.MaeConfig(
            embed_dim=16, num_heads=2, target_channels=("EOG horizontal", "EEG C3-A2")))
        with pytest.raises(MissingChannel, match="EEG C3-A2"):
            train(config, dataset)

    def test_non_finite_loss_aborts(self, dataset):
        config = small_config(max_epochs=1, calibrate_scale=False)
        records = dataset["train"][:4]
        poisoned = records[0]
        backup = poisoned.input_samples.copy()
        poisoned.input_samples[:] = np.nan
        try:
            with pytest.raises(NonFiniteLoss):
                train(config, {"train": records, "val": dataset["val"]})
        finally:
            poisoned.input_samples[:] = backup

    def test_early_stopping_respects_patience(self, dataset):
        config = small_config(max_epochs=50, patience=2)
        config.lr = 0.0  # TrainConfig refuses it; the loop itself takes it
        result = train(config, dataset)
        # zero lr: no improvement after epoch 1, so exactly 1 + patience epochs
        assert result.checkpoint.epoch == 3
        assert len(result.metrics_lines) == 3

    def test_overfit_small_subset(self):
        records = synth_records(seed=5, minutes=16.0, noise_std=0.0,
                                subject_id="OV")
        subset = records[:32]
        config = TrainConfig(
            mae=mae.MaeConfig(
                embed_dim=32, num_heads=4, encoder_layers=1, decoder_layers=1,
                target_channels=synthgen.DEFAULT_TARGETS,
            ),
            input_channel=synthgen.INPUT_CHANNEL,
            batch_size=32,
            max_epochs=250,
            seed=0,
            patience=10**6,
            calibrate_scale=False,
        )
        result = train(config, {"train": subset, "val": subset[:4]})
        losses = [parse_metrics(line)["train_loss"]
                  for line in result.metrics_lines]
        assert min(losses) < 0.05


class TestDataParallel:
    """Mini-batches cut into fixed example shards, each run on its own tape on
    up to TRAIN_SHARDS threads, with gradients reduced in shard order."""

    @staticmethod
    def shard_sized(size, make):
        """``mae.forward_loss`` with the shards of ``size`` examples passed
        through ``make(result)`` (which may raise)."""
        real = mae.forward_loss

        def forward_loss(inputs, targets, params, masks):
            result = real(inputs, targets, params, masks)
            return make(result) if len(inputs) == size else result

        return forward_loss

    def test_shards_get_contiguous_inputs(self, dataset, monkeypatch):
        """Each shard's inputs and targets are gathered C-contiguous from the
        signals: mae.encode would copy a strided input view and keep the copy
        until backward."""
        real, flags = mae.forward_loss, []

        def forward_loss(inputs, targets, params, masks):
            flags.append((inputs.flags.c_contiguous, targets.flags.c_contiguous))
            return real(inputs, targets, params, masks)

        monkeypatch.setattr(mae, "forward_loss", forward_loss)
        train(small_config(max_epochs=1, calibrate_scale=False), dataset)
        assert len(flags) > 1 and set(flags) == {(True, True)}

    def test_bytes_do_not_depend_on_core_count(self, dataset, monkeypatch):
        real, threads = mae.forward_loss, set()

        def forward_loss(*args):
            threads.add(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(mae, "forward_loss", forward_loss)
        runs = []
        for cores in (1, 2, 7):
            monkeypatch.setattr(nc, "cores", lambda cores=cores: cores)
            threads.clear()
            result = train(small_config(max_epochs=2), dataset)
            runs.append((save_checkpoint(result.checkpoint), result.metrics_lines))
            # one core: shards run on this thread; more: on the pool's workers
            assert (threads == {threading.get_ident()}) == (cores == 1), cores
        assert runs[0] == runs[1] == runs[2]

    def test_stress_more_workers_than_cores_bit_equal_to_serial(self, dataset, monkeypatch,
                                                                fresh_pool):
        config = small_config(max_epochs=1)
        workers = nc.cores() + 6
        monkeypatch.setattr(trainer, "TRAIN_SHARDS", workers)
        monkeypatch.setattr(nc, "cores", lambda: 1)
        reference = save_checkpoint(train(config, dataset).checkpoint)
        monkeypatch.setattr(nc, "cores", lambda: workers)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: results.append(save_checkpoint(train(config, dataset).checkpoint)),
                daemon=True)
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert results == [reference]

    @pytest.mark.parametrize("scope", ["all", "masked"])
    def test_sharded_gradient_equals_batch_gradient_in_float64(self, scope):
        config = mae.MaeConfig(**{**vars(small_config().mae), "loss_scope": scope})
        params = mae.init_params(config, seed=3, dtype=np.float64)
        rng = philox(8)
        inputs = rng.normal(0, 1, (5, config.epoch_len))  # shards of 2 and 3
        targets = rng.normal(0, 1, (5, len(config.target_channels), config.epoch_len))
        masks = mae.mask_plans(config, len(inputs), rng)
        with nc.Tape() as tape:
            loss, _ = mae.forward_loss(inputs, targets, params, masks)
        whole = tape.backward(loss)

        sharded_loss, flat = trainer.batch_gradients(params, inputs, targets, masks)
        assert flat.shape == (sum(t.data.size for t in params.tensors.values()),)
        grads = trainer._views(flat, [(name, t.shape) for name, t in params.tensors.items()])
        assert trainer._shard_bounds(len(inputs)) == [0, 2, 5]
        assert sharded_loss == pytest.approx(loss.item(), rel=1e-12, abs=0)
        assert grads.keys() == params.tensors.keys()
        for name, tensor in params.tensors.items():
            assert grads[name].dtype == np.float64
            scale = np.abs(whole[tensor]).max()
            assert np.abs(grads[name] - whole[tensor]).max() <= 1e-12 * scale, name

    def test_flat_gradient_is_the_per_tensor_shard_sum_byte_for_byte(self):
        """float32: each tensor's span is sum(g_k * n_k / B) of the shards' own tapes,
        in shard order, byte for byte; a tensor no shard reaches gets a zero span."""
        config = small_config().mae
        params = mae.init_params(config, seed=3)
        params.tensors["unreached"] = nc.Tensor(np.ones(3, np.float32), requires_grad=True)
        rng = philox(9)
        inputs = rng.normal(0, 1, (5, config.epoch_len)).astype(np.float32)
        targets = rng.normal(0, 1, (5, len(config.target_channels), config.epoch_len))
        targets = targets.astype(np.float32)
        masks = mae.mask_plans(config, len(inputs), rng)
        _, flat = trainer.batch_gradients(params, inputs, targets, masks)
        shards = []
        for lo, hi in ((0, 2), (2, 5)):
            with nc.Tape() as tape:
                loss = mae.forward_loss(inputs[lo:hi], targets[lo:hi], params, masks[lo:hi])[0]
            shards.append((hi - lo, tape.backward(loss)))
        expected = []
        for tensor in params.tensors.values():
            terms = [g[tensor] * (n / len(inputs)) for n, g in shards if tensor in g]
            expected.append(sum(terms[1:], terms[0]) if terms else np.zeros_like(tensor.data))
        assert flat.dtype == np.float32
        assert flat.tobytes() == np.concatenate(expected, axis=None).tobytes()
        assert not flat[-3:].any()

    @pytest.mark.parametrize("shards, batch_size", [(2, 1), (4, 3)])
    def test_batches_with_fewer_examples_than_shards_train(self, dataset, monkeypatch,
                                                           shards, batch_size):
        monkeypatch.setattr(trainer, "TRAIN_SHARDS", shards)
        monkeypatch.setattr(nc, "cores", lambda: 2)
        assert trainer._shard_bounds(batch_size) == list(range(batch_size + 1))
        config = small_config(max_epochs=1, batch_size=batch_size, calibrate_scale=False)
        result = train(config, dataset)
        init = mae.init_params(config.mae, np.random.SeedSequence(config.seed).spawn(3)[0])
        assert result.checkpoint.epoch == 1
        assert result.checkpoint.adam_step == len(dataset["train"]) // batch_size + (
            len(dataset["train"]) % batch_size > 0)
        assert not np.array_equal(result.checkpoint.params["mask_token"],
                                  init.tensors["mask_token"].data)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_error_in_second_shard_propagates(self, dataset, monkeypatch, cores):
        class Raised(Exception):
            pass

        def fail(result):
            raise Raised

        assert trainer._shard_bounds(7) == [0, 3, 7]
        monkeypatch.setattr(nc, "cores", lambda: cores)
        monkeypatch.setattr(mae, "forward_loss", self.shard_sized(4, fail))
        seven = {"train": dataset["train"][:7], "val": dataset["val"]}
        with pytest.raises(Raised):
            train(small_config(batch_size=7, max_epochs=1), seven)

    def test_nan_loss_in_one_shard_raises_before_adam(self, dataset, monkeypatch):
        steps = []
        monkeypatch.setattr(nc, "cores", lambda: 2)
        monkeypatch.setattr(mae, "forward_loss", self.shard_sized(
            4, lambda result: (nc.add(result[0], nc.Tensor(math.nan)), result[1])))
        monkeypatch.setattr(nc, "adam_step", lambda *args: steps.append(args))
        seven = {"train": dataset["train"][:7], "val": dataset["val"]}
        with pytest.raises(NonFiniteLoss, match="epoch 1, batch starting at 0"):
            train(small_config(batch_size=7, max_epochs=1), seven)
        assert steps == []

    def test_on_epoch_gets_each_line_as_its_epoch_ends(self, dataset, monkeypatch):
        steps, seen = [], []
        adam_step = nc.adam_step
        monkeypatch.setattr(nc, "adam_step", lambda *args: (steps.append(1), adam_step(*args)))
        result = train(small_config(max_epochs=3), dataset,
                       on_epoch=lambda line: seen.append((line, len(steps))))
        per_epoch = math.ceil(len(dataset["train"]) / small_config().batch_size)
        assert seen == [(line, per_epoch * epoch)
                        for epoch, line in enumerate(result.metrics_lines, start=1)]


@pytest.fixture(scope="module")
def saved(dataset):
    """A one-epoch checkpoint's bytes."""
    return save_checkpoint(train(small_config(max_epochs=1), dataset).checkpoint)


def grow_first_dim(meta):
    meta["tensors"][0][1][0] += 1
    return meta


def nan_in_body(blob: bytes) -> bytes:
    config_len, meta_len = struct.unpack_from("<II", blob, 8)
    body = 16 + config_len + meta_len
    return reseal(blob[:body] + struct.pack("<f", float("nan")) + blob[body + 4: -4])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, dataset):
        result = train(small_config(max_epochs=2), dataset)
        blob = save_checkpoint(result.checkpoint)
        loaded = load_checkpoint(blob)
        assert save_checkpoint(loaded) == blob
        for name, arr in result.checkpoint.params.items():
            assert np.array_equal(loaded.params[name], arr)
            assert np.array_equal(loaded.best_params[name],
                                  result.checkpoint.best_params[name])
            assert np.array_equal(loaded.adam_m[name],
                                  result.checkpoint.adam_m[name])
        assert loaded.epoch == result.checkpoint.epoch
        assert loaded.rng_mask == result.checkpoint.rng_mask

    def test_numerics_version(self, saved):
        """Checkpoints carry the numerics version they were trained with; one
        written before the key existed loads as version 1, otherwise intact."""
        loaded = load_checkpoint(saved)
        assert loaded.numerics == trainer.NUMERICS == 4
        assert b'"numerics": 4' in saved
        older = load_checkpoint(edit_meta(
            saved, lambda meta: {k: v for k, v in meta.items() if k != "numerics"}))
        assert older.numerics == 1
        assert save_checkpoint(older) == save_checkpoint(dataclasses.replace(loaded, numerics=1))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_checkpoint(b"NOTMAGIC" + b"\x00" * 100)
        with pytest.raises(BadMagic):
            load_checkpoint(b"PSG")

    def test_bit_flips_rejected(self, saved):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
        positions = [*rng.integers(0, len(saved), 150), *rng.integers(0, 64, 32)]
        for pos, bit in zip(positions, rng.integers(0, 8, len(positions))):
            damaged = bytearray(saved)
            damaged[pos] ^= 1 << int(bit)
            with pytest.raises((BadMagic, ShapeMismatchOnLoad)):
                load_checkpoint(bytes(damaged))

    @pytest.mark.parametrize("damage", [
        lambda b: edit_meta(b, grow_first_dim),
        lambda b: edit_meta(b, lambda meta: list(meta.items())),
        lambda b: edit_meta(b, lambda meta: {k: v for k, v in meta.items() if k != "epoch"}),
        lambda b: edit_meta(b, lambda meta: {**meta, "epoch": [1]}),
        lambda b: edit_meta(b, lambda meta: {**meta, "epoch": float("inf")}),
        lambda b: edit_meta(b, lambda meta: {**meta, "epoch": -5}),
        lambda b: edit_meta(b, lambda meta: {**meta, "adam_step": -1}),
        lambda b: edit_meta(b, lambda meta: b"[" * 10**5 + b"]" * 10**5),
        lambda b: edit_meta(b, lambda meta: b"{"),
        lambda b: edit_meta(b, lambda meta: {**meta, "rng_mask": "state"}),
        lambda b: edit_meta(b, lambda meta: {**meta, "numerics": "two"}),
        lambda b: edit_meta(b, lambda meta: {**meta, "tensors": meta["tensors"] * 2}),
        lambda b: edit_meta(b, lambda meta: {**meta, "tensors": [[1, [2]]]}),
        lambda b: edit_meta(b, lambda meta: {**meta, "tensors": [["w", [-1]]]}),
        lambda b: edit_meta(b, lambda meta: {**meta, "tensors": [["w", [2.5]]]}),
        nan_in_body,
        lambda b: reseal(b[:-4] + b"\0"),  # a trailing byte
        lambda b: reseal(b[:8] + struct.pack("<I", 2**31) + b[12:-4]),  # config length
        lambda b: reseal(b[:16] + b"\xff" + b[17:-4]),  # config text not UTF-8
    ], ids=["table-size", "meta-list", "meta-missing", "meta-type", "meta-infinite",
            "epoch-negative", "adam-step-negative", "meta-deep", "meta-not-json", "rng-type",
            "numerics-type", "duplicate-names", "name-type", "negative-dim", "float-dim", "nan",
            "trailing", "config-length", "utf8"])
    def test_damage_behind_valid_crc_rejected(self, saved, damage):
        with pytest.raises(ShapeMismatchOnLoad):
            load_checkpoint(damage(saved))

    @pytest.mark.parametrize("edit", [
        lambda state: {**state, "buffer_pos": -1},  # numpy takes it, and reads before the buffer
        lambda state: {},
    ], ids=["buffer-pos-negative", "empty"])
    def test_rng_state_no_generator_has_refused_at_resume(self, saved, dataset, edit):
        """The streams are restored only to resume, so a checkpoint whose rng
        states are empty (as an eval-only one may be) still loads; resuming
        from a state no generator has raises ShapeMismatchOnLoad before an epoch runs."""
        checkpoint = load_checkpoint(edit_meta(
            saved, lambda meta: {**meta, "rng_mask": edit(meta["rng_mask"])}))
        lines = []
        with pytest.raises(ShapeMismatchOnLoad, match="malformed checkpoint rng state"):
            train(small_config(max_epochs=2), dataset, resume=checkpoint, on_epoch=lines.append)
        assert lines == []

    def test_psgmae01_rejected_with_hint(self, saved):
        with pytest.raises(BadMagic, match="re-run train"):
            load_checkpoint(b"PSGMAE01" + saved[8:])

    def test_sections_unlike_params_refused(self, saved):
        missing, reshaped = load_checkpoint(saved), load_checkpoint(saved)
        del missing.adam_v["mask_token"]
        reshaped.best_params["mask_token"] = np.zeros(3)
        for checkpoint in (missing, reshaped):
            with pytest.raises(ValueError, match="sections disagree"):
                save_checkpoint(checkpoint)

    def test_loaded_tensors_are_read_only_views(self, saved):
        loaded = load_checkpoint(saved)
        assert not loaded.params["mask_token"].flags.writeable
        assert loaded.adam_v["mask_token"].base is not None

    def test_truncation_never_crashes(self, dataset):
        result = train(small_config(max_epochs=1), dataset)
        blob = save_checkpoint(result.checkpoint)
        for cut in range(8, len(blob), max(len(blob) // 23, 1)):
            with pytest.raises((BadMagic, ShapeMismatchOnLoad)):
                load_checkpoint(blob[:cut])

    def test_non_finite_refused(self, dataset):
        result = train(small_config(max_epochs=1), dataset)
        result.checkpoint.params["mask_token"][0] = np.nan
        with pytest.raises(nc.NonFiniteValue):
            save_checkpoint(result.checkpoint)

    def test_resume_matches_uninterrupted(self, dataset):
        config = small_config(max_epochs=6)
        full = train(config, dataset)

        head_config = small_config(max_epochs=3)
        head = train(head_config, dataset)
        # mimic a stored-and-reloaded intermediate checkpoint
        intermediate = load_checkpoint(save_checkpoint(head.checkpoint))
        tail = train(config, dataset, resume=intermediate)

        assert head.metrics_lines == full.metrics_lines[:3]
        assert tail.metrics_lines == full.metrics_lines[3:]
        assert save_checkpoint(tail.checkpoint) == save_checkpoint(full.checkpoint)

    def test_fresh_run_is_a_resume_from_the_initial_checkpoint(self, dataset):
        """A fresh run and runs resumed from ``initial_checkpoint``, as built and as
        stored, give the same metrics lines and checkpoint bytes."""
        config = small_config(max_epochs=2)
        fresh = train(config, dataset)
        start = trainer.initial_checkpoint(config)
        for resume in (start, load_checkpoint(save_checkpoint(start))):
            resumed = train(config, dataset, resume=resume)
            assert resumed.metrics_lines == fresh.metrics_lines
            assert save_checkpoint(resumed.checkpoint) == save_checkpoint(fresh.checkpoint)

    def test_initial_checkpoint_is_epoch_0_of_the_seed(self):
        config = small_config(seed=5, patience=4)
        start = trainer.initial_checkpoint(config)
        init_seq, shuffle_seq, mask_seq = np.random.SeedSequence(5).spawn(3)
        init = mae.init_params(config.mae, init_seq, dtype=np.float32)
        assert start.train_config() == config
        assert (start.epoch, start.adam_step, start.best_val_loss, start.patience_left,
                start.calibrated) == (0, 0, math.inf, 4, False)
        assert list(start.params) == list(init.tensors)
        for name, tensor in init.tensors.items():
            assert start.params[name].tobytes() == tensor.data.tobytes()
            assert start.best_params[name].tobytes() == tensor.data.tobytes()
            assert not start.adam_m[name].any() and not start.adam_v[name].any()
        for state, seq in ((start.rng_shuffle, shuffle_seq), (start.rng_mask, mask_seq)):
            fresh = np.random.Generator(np.random.Philox(seq))
            assert (trainer._restore_philox(state).integers(0, 2**62, 8)
                    == fresh.integers(0, 2**62, 8)).all()

    def test_resume_after_an_early_best_matches_uninterrupted(self):
        """Validation is best at epoch 6 of 8, so a run resumed at 6 keeps the
        best parameters the first run calibrated and calibrates them no more:
        its checkpoint is the uninterrupted run's, byte for byte."""
        _, _, splits = synth_dataset(n_subjects=4, minutes=3.0, seed=1,
                                     fractions=(0.5, 0.25, 0.25))
        full = train(small_config(max_epochs=8, lr=1.0, seed=7), splits)
        losses = [parse_metrics(line)["val_loss"] for line in full.metrics_lines]
        assert len(losses) == 8 and losses.index(min(losses)) == 5
        head = train(small_config(max_epochs=6, lr=1.0, seed=7), splits)
        assert head.checkpoint.calibrated and head.calibration
        tail = train(small_config(max_epochs=8, lr=1.0, seed=7), splits,
                     resume=load_checkpoint(save_checkpoint(head.checkpoint)))
        assert save_checkpoint(tail.checkpoint) == save_checkpoint(full.checkpoint)
        assert tail.calibration == {} and tail.checkpoint.calibrated

    def test_resume_past_end_rejected(self, dataset):
        result = train(small_config(max_epochs=2), dataset)
        with pytest.raises(TrainerError):
            train(small_config(max_epochs=2), dataset,
                  resume=result.checkpoint)


class TestCalibration:
    def test_scales_fold_into_heads(self, dataset):
        config = small_config(max_epochs=3, calibrate_scale=True)
        result = train(config, dataset)
        raw = train(small_config(max_epochs=3, calibrate_scale=False), dataset)
        for channel, scale in result.calibration.items():
            folded = result.checkpoint.best_params[f"head.{channel}.w"]
            unfolded = raw.checkpoint.best_params[f"head.{channel}.w"]
            assert np.allclose(folded, unfolded * np.float32(scale))

    def test_calibration_reduces_val_mse(self, dataset):
        config = small_config(max_epochs=8)
        result = train(config, dataset)
        calibrated = trainer.params_from_blobs(
            config.mae, result.checkpoint.best_params)
        raw_result = train(small_config(max_epochs=8, calibrate_scale=False),
                           dataset)
        raw = trainer.params_from_blobs(
            config.mae, raw_result.checkpoint.best_params)
        _, calibrated_mse = trainer.evaluate_split(calibrated, dataset["val"])
        _, raw_mse = trainer.evaluate_split(raw, dataset["val"])
        assert sum(calibrated_mse.values()) <= sum(raw_mse.values())


def whole_split_scores(params, epochs):
    """evaluate_split's loss and MSE and calibrate_head_scale's scales as they
    were computed from whole-split (N, targets, epoch_len) arrays."""
    config = params.config
    recon = chunked_reconstruct(params, epochs.signals[:, 0])
    target = epochs.signals[:, target_positions(epochs.channels, config.target_channels)]
    loss = mae.cosine_loss(nc.Tensor(mae.patchify(recon, config)),
                           nc.Tensor(mae.patchify(target, config), dtype=params.dtype))
    diff = recon.astype(np.float64) - target
    sq_err = np.mean(diff * diff, axis=(0, 2))
    scales = {}
    for i, ch in enumerate(config.target_channels):
        pred = recon[:, i].astype(np.float64)
        scales[ch] = float(np.vdot(pred, target[:, i])) / float(np.vdot(pred, pred))
    return loss.item(), dict(zip(config.target_channels, map(float, sq_err))), scales


def scoring_set(n, channels=("in", "b", "c", "a")):
    """n random epochs whose targets come in another order than the model's
    ("a", "b"), with a target the model does not reconstruct."""
    rng = philox([n, len(channels)])
    return EpochSet(channels, ("S0",), subject=np.zeros(n), epoch_index=np.arange(n),
                    stage=rng.integers(0, 5, n), norm=np.ones((n, len(channels), 2)),
                    signals=rng.normal(0, 1, (n, len(channels), 3000)))


def scoring_params(targets=("a", "b")):
    return mae.init_params(mae.MaeConfig(embed_dim=8, num_heads=2, encoder_layers=1,
                                         target_channels=targets), seed=3)


class TestStreamedScoring:
    """evaluate_split and calibrate_head_scale score chunk by chunk through
    evalreport.stream_scores, keeping only per-epoch arrays."""

    @pytest.mark.parametrize("cores", [1, 2, 7])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_bit_equal_to_whole_split_arrays(self, monkeypatch, fresh_pool, cores, n):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        epochs, params = scoring_set(n), scoring_params()
        loss, mse, scales = whole_split_scores(params, epochs)
        assert trainer.evaluate_split(params, epochs) == (loss, mse)
        got = trainer.calibrate_head_scale(params, epochs)
        assert got.keys() == scales.keys()
        for ch, scale in scales.items():
            assert got[ch] == pytest.approx(scale, rel=1e-12, abs=0)
            assert np.array_equal(params.tensors[f"head.{ch}.w"].data, scoring_params().tensors[
                f"head.{ch}.w"].data * np.float32(got[ch]))

    def test_one_target_mse_within_rounding(self):
        """With one target the whole-split mean summed all N * epoch_len
        squares as one pairwise run, which per-epoch sums cannot repeat: the
        MSE agrees to float64 rounding, and the loss is still bit-equal."""
        epochs, params = scoring_set(130), scoring_params(("a",))
        loss, mse, _ = whole_split_scores(params, epochs)
        got_loss, got_mse = trainer.evaluate_split(params, epochs)
        assert got_loss == loss
        assert got_mse == pytest.approx(mse, rel=1e-12, abs=0)

    def test_missing_target_rejected(self):
        with pytest.raises(MissingChannel):
            trainer.evaluate_split(scoring_params(("a", "d")), scoring_set(3))

    @pytest.mark.parametrize("score", ["evaluate_split", "calibrate_head_scale"])
    def test_memory_below_one_whole_split_array(self, score):
        """Over 1024 epochs the traced peak stays below one (N, targets,
        epoch_len) float32 array: reconstructions are never held whole."""
        epochs, params = scoring_set(1024, ("in", "a", "b", "c")), scoring_params(("a", "b", "c"))
        whole = len(epochs) * 3 * 3000 * 4
        tracemalloc.start()
        try:
            getattr(trainer, score)(params, epochs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole, f"{score} peaked at {peak} bytes, whole split {whole}"


class TestParamsFromBlobs:
    def test_every_tensor_is_a_named_view_of_one_float32_buffer(self):
        config = small_config().mae
        init = mae.init_params(config, dtype=np.float64)
        blobs = {name: t.data for name, t in init.tensors.items()}
        params = trainer.params_from_blobs(config, blobs)
        flat = params.flat
        assert flat.dtype == np.float32 and flat.ndim == 1 and flat.flags.c_contiguous
        assert list(params.tensors) == list(mae.parameter_shapes(config))
        lo = 0
        for name, tensor in params.tensors.items():
            span = flat[lo: lo + tensor.data.size]
            assert tensor.data.base is flat and np.shares_memory(tensor.data, span)
            assert tensor.data.shape == blobs[name].shape and tensor.requires_grad
            assert span.tobytes() == blobs[name].astype(np.float32).tobytes()
            lo += tensor.data.size
        assert lo == flat.size
        flat[:] = 0.0  # a copy: the blobs keep their values
        assert all(blob.any() for name, blob in blobs.items() if ".ln" not in name)

    def test_shapes_checked_against_config(self):
        config = small_config().mae
        blobs = {name: t.data for name, t in mae.init_params(config).tensors.items()}
        assert trainer.params_from_blobs(config, blobs).tensors.keys() == blobs.keys()
        name = f"head.{config.target_channels[0]}.w"
        wide = blobs[name].shape
        narrow = {**blobs, name: blobs[name][:, :-1]}
        with pytest.raises(ShapeMismatchOnLoad) as raised:
            trainer.params_from_blobs(config, narrow)
        message = str(raised.value)
        assert name in message and str(wide) in message and str(narrow[name].shape) in message
