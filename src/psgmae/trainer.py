"""Deterministic training loop: data wiring, Adam updates, early stopping,
metrics logging, and binary checkpoints.

Randomness is split into three Philox streams spawned from the config seed:
stream 0 initializes parameters, stream 1 shuffles examples each epoch,
stream 2 draws the masks. Stream states are checkpointed, so a resumed run
reproduces an uninterrupted one step for step.

Checkpoint layout (little-endian), magic ``PSGMAE02``:

    u32  config INI byte length L
    u32  meta JSON byte length M
    L    config INI text (UTF-8)
    M    meta JSON (epoch, best val loss, patience, rng states, numerics
         version, ...) whose "tensors" table lists [name, shape] per
         parameter, in params order
    4 x K f32  params, best_params, adam_m, adam_v: each section is the
         table's tensors in table order, K values in all
    u32  CRC32 of every byte after the magic and before the CRC
"""

from __future__ import annotations

import configparser
import functools
import io
import json
import math
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evalreport, mae, numcore as nc
from .mae import MaeConfig, MaeParams
from .pipeline import (EPOCH_SAMPLES, DatasetManifest, EpochSet, as_epoch_set, load_manifest,
                       read_epoch_cache, target_positions)

CHECKPOINT_MAGIC = b"PSGMAE02"
_LENGTHS = struct.Struct("<II")  # config and meta byte lengths

MANIFEST_FILENAME = "manifest.json"
CACHE_FILENAME = "epochs.psgepo"

# version of the training arithmetic, kept in each checkpoint: a run resumed
# from another version's checkpoint does not give the bytes an uninterrupted run
# of that version would. 1 (or no key): before the fused attention and
# cosine-loss kernels; 2: before calibration and validation kept per-epoch
# float64 sums (the scales' last bits moved, and a one-target val_mse's); 3:
# before inference chunks were cut from the epoch count alone (validation and
# calibration bytes moved on all but 2 cores)
NUMERICS = 4

# example shards per mini-batch: their bounds depend only on the batch size,
# never on the core count, so the gradient's summation order is fixed
TRAIN_SHARDS = 2


class TrainerError(Exception):
    pass


class EmptySplit(TrainerError):
    pass


class NonFiniteLoss(TrainerError):
    pass


class BadMagic(TrainerError):
    pass


class ShapeMismatchOnLoad(TrainerError):
    pass


class ManifestMismatch(TrainerError):
    """A manifest whose splits name other subjects than its epoch cache holds."""


@dataclass
class TrainConfig:
    mae: MaeConfig
    input_channel: str
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 100
    seed: int = 0
    patience: int = 10
    calibrate_scale: bool = True

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.input_channel:
            raise ValueError("input_channel is required")
        if self.input_channel in self.mae.target_channels:
            raise ValueError("input channel cannot be one of its own targets")
        for name, value in (("lr", self.lr), ("epsilon", self.epsilon)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")


# INI keys read and written by name; an absent key takes the dataclass default
_MAE_INTS = ("patch_size", "seq_len", "embed_dim", "num_heads", "encoder_layers",
             "decoder_layers", "mlp_ratio")
_OPTIMIZER_FLOATS = ("lr", "beta1", "beta2", "epsilon")
_TRAIN_INTS = ("batch_size", "max_epochs", "seed", "patience")
_KEYS = {"mae": {*_MAE_INTS, "mask_ratio", "loss_scope", "target_channels"},
         "optimizer": set(_OPTIMIZER_FLOATS),
         "train": {"input_channel", *_TRAIN_INTS, "calibrate_scale"}}


def config_to_ini(config: TrainConfig) -> str:
    parser = configparser.ConfigParser()
    parser["mae"] = {
        **{key: str(getattr(config.mae, key)) for key in _MAE_INTS},
        "mask_ratio": repr(config.mae.mask_ratio),
        "loss_scope": config.mae.loss_scope,
        "target_channels": ", ".join(config.mae.target_channels),
    }
    parser["optimizer"] = {key: repr(getattr(config, key)) for key in _OPTIMIZER_FLOATS}
    parser["train"] = {
        "input_channel": config.input_channel,
        **{key: str(getattr(config, key)) for key in _TRAIN_INTS},
        "calibrate_scale": "true" if config.calibrate_scale else "false",
    }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def config_from_ini(text: str) -> TrainConfig:
    """Parse a config INI (" ;" starts a comment, as in README's); malformed INI, an
    unknown section or key, or a value TrainConfig refuses raises ValueError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
        if parser.defaults():
            raise ValueError("unknown config section [DEFAULT]")
        for section in parser.sections():
            if section not in _KEYS:
                raise ValueError(f"unknown config section [{section}]")
            unknown = sorted(set(parser[section]) - _KEYS[section])
            if unknown:
                raise ValueError(f"unknown config key {unknown[0]!r} in [{section}]")
        m = parser["mae"]
        mae_config = MaeConfig(
            **{key: m.getint(key) for key in _MAE_INTS if key in m},
            mask_ratio=m.getfloat("mask_ratio", 0.5),
            loss_scope=m.get("loss_scope", "all"),
            target_channels=tuple(
                s.strip() for s in m.get("target_channels", "").split(",") if s.strip()
            ),
        )
        o = parser["optimizer"] if parser.has_section("optimizer") else {}
        t = parser["train"]
        return TrainConfig(
            mae=mae_config,
            input_channel=t.get("input_channel", ""),
            **{key: float(o[key]) for key in _OPTIMIZER_FLOATS if key in o},
            **{key: t.getint(key) for key in _TRAIN_INTS if key in t},
            calibrate_scale=t.getboolean("calibrate_scale", True),
        )
    except configparser.Error as exc:
        raise ValueError(f"malformed config INI: {exc}") from exc


@dataclass
class Checkpoint:
    """Everything needed to evaluate (best_params) or resume (the rest)."""

    config_text: str
    epoch: int
    params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_step: int
    best_val_loss: float
    patience_left: int
    rng_shuffle: dict
    rng_mask: dict
    calibrated: bool = False
    numerics: int = NUMERICS

    def train_config(self) -> TrainConfig:
        return config_from_ini(self.config_text)


# the four tensor sections, in file order, and the meta JSON fields with the
# type each is read back as
_SECTIONS = ("params", "best_params", "adam_m", "adam_v")
_META = {"epoch": int, "adam_step": int, "best_val_loss": float, "patience_left": int,
         "rng_shuffle": dict, "rng_mask": dict, "calibrated": bool}


def _philox_state(gen: np.random.Generator) -> dict:
    state = gen.bit_generator.state
    return {
        "counter": [int(x) for x in state["state"]["counter"]],
        "key": [int(x) for x in state["state"]["key"]],
        "buffer": [int(x) for x in state["buffer"]],
        "buffer_pos": int(state["buffer_pos"]),
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _restore_philox(payload: dict) -> np.random.Generator:
    """The generator whose ``_philox_state`` is ``payload``; ShapeMismatchOnLoad if none is."""
    bit = np.random.Philox()
    try:
        bit.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(payload["counter"], dtype=np.uint64),
                "key": np.array(payload["key"], dtype=np.uint64),
            },
            "buffer": np.array(payload["buffer"], dtype=np.uint64),
            "buffer_pos": int(payload["buffer_pos"]),
            "has_uint32": int(payload["has_uint32"]),
            "uinteger": int(payload["uinteger"]),
        }
        generator = np.random.Generator(bit)
        if not 0 <= payload["buffer_pos"] <= 4 or _philox_state(generator) != payload:
            raise ValueError("not a Philox state")
    except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
        raise ShapeMismatchOnLoad(f"malformed checkpoint rng state: {exc}") from exc
    return generator


def save_checkpoint(checkpoint: Checkpoint) -> bytes:
    """Serialize; refuses non-finite values and sections unlike ``params``."""
    sections = [getattr(checkpoint, key) for key in _SECTIONS]
    table = [[name, list(np.shape(arr))] for name, arr in checkpoint.params.items()]
    if any([[name, list(np.shape(arr))] for name, arr in section.items()] != table
           for section in sections):
        raise ValueError("checkpoint sections disagree on their tensors")
    arrays = [np.asarray(arr, dtype="<f4") for section in sections for arr in section.values()]
    bad = {name for (name, _), arr in zip(table * 4, arrays) if not np.isfinite(arr).all()}
    if bad:
        raise nc.NonFiniteValue(f"non-finite values in blobs {sorted(bad)}")
    meta = json.dumps({**{key: getattr(checkpoint, key) for key in _META},
                       "numerics": checkpoint.numerics, "tensors": table},
                      sort_keys=True).encode("utf-8")
    config = checkpoint.config_text.encode("utf-8")
    out = b"".join([CHECKPOINT_MAGIC, _LENGTHS.pack(len(config), len(meta)), config, meta,
                    *(arr.tobytes() for arr in arrays)])
    return out + struct.pack("<I", zlib.crc32(memoryview(out)[8:]))


def load_checkpoint(data: bytes) -> Checkpoint:
    """Inverse of save_checkpoint, with tensors as read-only views of ``data``;
    anything but an intact PSGMAE02 checkpoint raises BadMagic or ShapeMismatchOnLoad."""
    if data[:8] != CHECKPOINT_MAGIC:
        hint = "; re-run train to rebuild it" if data[:8] == b"PSGMAE01" else ""
        raise BadMagic(f"not a checkpoint stream (magic {data[:8]!r}){hint}")
    start = 8 + _LENGTHS.size
    crc = zlib.crc32(memoryview(data)[8:-4])
    if len(data) < start + 4 or crc != int.from_bytes(data[-4:], "little"):
        raise ShapeMismatchOnLoad("checkpoint truncated or damaged (checksum mismatch)")
    config_len, meta_len = _LENGTHS.unpack_from(data, 8)
    body = start + config_len + meta_len
    try:
        meta = json.loads(data[start + config_len: body].decode("utf-8"))
        table = [(name, tuple(shape)) for name, shape in meta["tensors"]]
        if len(dict(table)) != len(table) or not all(type(name) is str and all(
                type(d) is int and d >= 0 for d in shape) for name, shape in table):
            raise ValueError("tensor table needs unique names and non-negative int dims")
        bounds = np.cumsum([0, *(math.prod(shape) for _, shape in table)]).tolist()
        if body + 16 * bounds[-1] + 4 != len(data):
            raise ValueError(f"lengths and tensor table disagree with the {len(data)}-byte size")
        rows = np.frombuffer(data, "<f4", 4 * bounds[-1], body).reshape(4, bounds[-1])
        if not np.isfinite(rows).all():
            raise ValueError("non-finite tensor values")
        sections = [{name: row[lo:hi].reshape(shape)
                     for (name, shape), lo, hi in zip(table, bounds, bounds[1:])} for row in rows]
        fields = {key: kind(meta[key]) for key, kind in _META.items()}
        for key in ("epoch", "adam_step"):
            if fields[key] < 0:
                raise ValueError(f"{key} {fields[key]} is negative")
        return Checkpoint(data[start: start + config_len].decode("utf-8"),
                          **dict(zip(_SECTIONS, sections)), **fields,
                          numerics=int(meta.get("numerics", 1)))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise ShapeMismatchOnLoad(f"malformed checkpoint: {exc}") from exc


def params_from_blobs(config: MaeConfig, blobs: dict[str, np.ndarray]) -> MaeParams:
    expected = mae.parameter_shapes(config)
    missing = [n for n in expected if n not in blobs]
    extra = [n for n in blobs if n not in expected]
    if missing or extra:
        raise ShapeMismatchOnLoad(
            f"parameter names disagree with config (missing {missing}, extra {extra})"
        )
    wrong = [f"{n} {blobs[n].shape} (config implies {shape})"
             for n, shape in expected.items() if blobs[n].shape != shape]
    if wrong:
        raise ShapeMismatchOnLoad(f"parameter shapes disagree with config: {', '.join(wrong)}")
    tensors = {
        name: nc.Tensor(blobs[name].copy(), requires_grad=True, dtype=np.float32)
        for name in expected
    }
    pos = mae.sinusoidal_table(config.seq_len, config.embed_dim).astype(np.float32)
    return MaeParams(config=config, pos_encoding=pos, tensors=tensors)


def _snapshot(params: MaeParams) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in params.tensors.items()}


def initial_checkpoint(config: TrainConfig) -> Checkpoint:
    """Epoch 0 of a run, which ``train`` resumes as any other checkpoint: the seeded
    parameters (also the best), zero Adam moments, fresh shuffle and mask streams."""
    init_seq, *streams = np.random.SeedSequence(config.seed).spawn(3)
    params = _snapshot(mae.init_params(config.mae, init_seq, dtype=np.float32))
    zeros = {name: np.zeros_like(arr) for name, arr in params.items()}
    rng_shuffle, rng_mask = (_philox_state(np.random.Generator(np.random.Philox(seq)))
                             for seq in streams)
    return Checkpoint(config_text=config_to_ini(config), epoch=0, params=params,
                      best_params=params, adam_m=zeros, adam_v=zeros, adam_step=0,
                      best_val_loss=math.inf, patience_left=config.patience,
                      rng_shuffle=rng_shuffle, rng_mask=rng_mask)


def check_fits(config: TrainConfig, channels: tuple[str, ...]) -> list[int]:
    """The positions in ``channels`` (input first) of the model's targets, the only channels
    it reads and scores besides its input. Data it cannot take is refused from its channel
    names alone: ValueError, or MissingChannel for a model target the data lacks."""
    if channels[0] != config.input_channel:
        raise ValueError(f"config input_channel {config.input_channel!r} is not the "
                         f"data's input channel {channels[0]!r}")
    targets = target_positions(channels, config.mae.target_channels)
    if config.mae.epoch_len != EPOCH_SAMPLES:
        raise ValueError(f"config patch_size * seq_len is {config.mae.epoch_len}, but "
                         f"epochs hold {EPOCH_SAMPLES} samples")
    return targets


def load_dataset(data_dir: Path | str) -> tuple[DatasetManifest, EpochSet]:
    data_dir = Path(data_dir)
    return load_manifest(data_dir / MANIFEST_FILENAME), read_epoch_cache(data_dir / CACHE_FILENAME)


def split_rows(manifest: DatasetManifest, epochs) -> dict[str, np.ndarray]:
    """The ascending train, val and test rows of an EpochSet or EpochCacheReader, by their
    subject's split; ManifestMismatch unless the manifest's splits name exactly its subjects."""
    cached, listed = set(epochs.subjects), set(manifest.splits)
    if cached != listed:
        raise ManifestMismatch(f"subjects only in the epoch cache {sorted(cached - listed)}, "
                               f"only in the manifest {sorted(listed - cached)}; re-run preprocess")
    split = np.array([manifest.splits[s] for s in epochs.subjects], dtype=object)
    return {name: np.flatnonzero(split[epochs.subject] == name)
            for name in ("train", "val", "test")}


def split_records(manifest: DatasetManifest, epochs: EpochSet) -> dict[str, EpochSet]:
    """The train, val and test epochs, by their subject's split."""
    return {name: epochs[rows] for name, rows in split_rows(manifest, epochs).items()}


def _format_metrics(epoch: int, train_loss: float, val_loss: float,
                    val_mse: dict[str, float]) -> str:
    parts = [f"epoch={epoch}", f"train_loss={train_loss!r}", f"val_loss={val_loss!r}"]
    parts += [f"val_mse[{ch}]={v!r}" for ch, v in val_mse.items()]
    return "\t".join(parts)


def evaluate_split(params: MaeParams, epochs: EpochSet) -> tuple[float, dict[str, float]]:
    """Full-visibility cosine loss and per-target MSE over an epoch set through
    ``evalreport.stream_scores``, keeping per-patch cosines and per-epoch float64
    squared-error sums, added in row order so that no value depends on the core count."""
    config = params.config
    cos = np.empty((len(epochs), len(config.target_channels) * config.seq_len), params.dtype)
    sq_err = np.empty((len(epochs), len(config.target_channels)))

    def score(span: slice, recon: np.ndarray, orig: np.ndarray) -> None:
        patches = [mae.patchify(x.astype(recon.dtype, copy=False), config) for x in (recon, orig)]
        cos[span] = mae.row_cosines(*patches)[0].reshape(len(recon), -1)
        diff = np.subtract(recon, orig, dtype=np.float64)
        sq_err[span] = np.sum(np.square(diff, out=diff), axis=-1)

    evalreport.stream_scores(params, epochs, np.arange(len(epochs)), score)
    sq_err = sum(sq_err, np.zeros(sq_err.shape[1])) / (len(epochs) * config.epoch_len)
    return float(np.mean(1.0 - cos)), dict(zip(config.target_channels, sq_err.tolist()))


def calibrate_head_scale(params: MaeParams, epochs: EpochSet) -> dict[str, float]:
    """Least-squares scale calibration of each reconstruction head.

    The cosine objective is invariant to the output scale of a head, so the
    trained scale is arbitrary; this fits the single scalar c minimizing
    ||c * recon - target||^2 over the given epochs (use the train split)
    and folds it into the head weights. Each epoch's float64 dot products,
    streamed as in ``evaluate_split``, are summed in row order. No random state."""
    products = np.empty((len(epochs), len(params.config.target_channels), 2))

    def score(span: slice, recon: np.ndarray, orig: np.ndarray) -> None:
        pred = recon.astype(np.float64)
        products[span, :, 0] = np.einsum("ijk,ijk->ij", pred, pred)
        products[span, :, 1] = np.einsum("ijk,ijk->ij", pred, orig.astype(np.float64))

    evalreport.stream_scores(params, epochs, np.arange(len(epochs)), score)
    totals = sum(products, np.zeros(products.shape[1:])).tolist()  # in row order
    scales = {}
    for ch, (den, num) in zip(params.config.target_channels, totals):
        scales[ch] = num / den if den > 1e-12 else 1.0
        params.tensors[f"head.{ch}.w"].data *= np.float32(scales[ch])
        params.tensors[f"head.{ch}.b"].data *= np.float32(scales[ch])
    return scales


def _shard_bounds(n: int) -> list[int]:
    """Bounds of the min(TRAIN_SHARDS, n) example shards of an n-example batch."""
    shards = min(TRAIN_SHARDS, n)
    return [k * n // shards for k in range(shards + 1)]


def batch_gradients(params: MaeParams, inputs: np.ndarray, targets: np.ndarray,
                    masks: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """The batch's masked cosine loss and its gradient by parameter name (none
    for a parameter the loss does not reach). Each example shard runs its
    forward and backward on its own tape, on the numcore pool (a non-finite
    loss skips backward). Gradients are reduced per parameter in shard order as
    sum(g_k * n_k / B) in the parameters' dtype, the loss as sum(n_k * loss_k) / B,
    so no result depends on the thread count."""
    bounds = _shard_bounds(len(inputs))

    def shard(part: slice) -> tuple[float, dict]:
        with nc.Tape() as tape:
            loss, _ = mae.forward_loss(inputs[part], targets[part], params, masks[part])
        return loss.item(), tape.backward(loss) if np.isfinite(loss.data).all() else {}

    shards = nc._parallel_map(shard, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    sizes = np.diff(bounds).tolist()
    grads = {}
    for name, tensor in params.tensors.items():
        terms = [g[tensor] * (n / len(inputs)) for n, (_, g) in zip(sizes, shards) if tensor in g]
        if terms:
            grads[name] = functools.reduce(np.add, terms)
    return sum(n * loss for n, (loss, _) in zip(sizes, shards)) / len(inputs), grads


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics_lines: list[str] = field(default_factory=list)
    calibration: dict[str, float] = field(default_factory=dict)


def train(
    config: TrainConfig,
    splits: dict,
    resume: Checkpoint | None = None,
    on_epoch: Callable[[str], object] | None = None,
) -> TrainResult:
    """Train from ``resume``, or from ``initial_checkpoint(config)`` for a fresh run;
    returns the checkpoint and per-epoch metrics.

    ``splits`` maps "train" and "val" to EpochSets (or EpochRecord lists), each
    checked by ``check_fits`` first.
    Per epoch: seeded shuffle, mini-batch Adam updates on the masked cosine
    loss (see ``batch_gradients``; the shards run on up to TRAIN_SHARDS
    cores), then full-visibility validation, after which ``on_epoch`` gets
    the epoch's metrics line. The best-validation parameter set is kept;
    training stops at max_epochs or when validation loss fails to improve
    for ``patience`` consecutive epochs.
    """
    for name in ("train", "val"):
        if not splits.get(name):
            raise EmptySplit(f"{name} split is empty")
    train_set, val_set = as_epoch_set(splits["train"]), as_epoch_set(splits["val"])
    check_fits(config, val_set.channels)
    targets = check_fits(config, train_set.channels)

    start = resume or initial_checkpoint(config)
    if start.epoch >= config.max_epochs:
        raise TrainerError(f"checkpoint already at epoch {start.epoch} >= max_epochs")
    if start.patience_left <= 0:
        raise TrainerError("checkpoint already stopped early; nothing to resume")
    params = params_from_blobs(config.mae, start.params)
    shuffle_rng, mask_rng = _restore_philox(start.rng_shuffle), _restore_philox(start.rng_mask)
    best_val, calibrated = start.best_val_loss, start.calibrated
    patience_left = start.patience_left
    best_blobs = {name: arr.copy() for name, arr in start.best_params.items()}
    adam = nc.AdamState(config.lr, config.beta1, config.beta2, config.epsilon, start.adam_step,
                        m={name: start.adam_m[name].copy() for name in params.tensors},
                        v={name: start.adam_v[name].copy() for name in params.tensors})

    metrics_lines: list[str] = []
    for epoch in range(start.epoch + 1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        loss_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo: lo + config.batch_size]  # gathered C-contiguous: encode copies none
            value, grads = batch_gradients(params, train_set.signals[batch, 0],
                                           train_set.signals[batch[:, None], targets],
                                           mae.mask_plans(config.mae, len(batch), mask_rng))
            if not np.isfinite(value):
                raise NonFiniteLoss(f"loss became non-finite at epoch {epoch}, "
                                    f"batch starting at {lo}")
            nc.adam_step(params.tensors, adam, grads)
            loss_sum += value * len(batch)

        train_loss = loss_sum / len(train_set)
        val_loss, val_mse = evaluate_split(params, val_set)
        metrics_lines.append(_format_metrics(epoch, train_loss, val_loss, val_mse))
        if on_epoch is not None:
            on_epoch(metrics_lines[-1])

        if val_loss < best_val:
            best_val, calibrated = val_loss, False
            best_blobs = _snapshot(params)
            patience_left = config.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    best_params = params_from_blobs(config.mae, best_blobs)
    calibration: dict[str, float] = {}
    if config.calibrate_scale and not calibrated:  # a resume's best may be calibrated already
        calibration, calibrated = calibrate_head_scale(best_params, train_set), True

    checkpoint = Checkpoint(
        config_text=config_to_ini(config),
        epoch=epoch,
        params=_snapshot(params),
        best_params=_snapshot(best_params),
        adam_m={name: adam.m[name].copy() for name in params.tensors},
        adam_v={name: adam.v[name].copy() for name in params.tensors},
        adam_step=adam.step,
        best_val_loss=float(best_val),
        patience_left=patience_left,
        rng_shuffle=_philox_state(shuffle_rng),
        rng_mask=_philox_state(mask_rng),
        calibrated=calibrated,
    )
    return TrainResult(checkpoint=checkpoint, metrics_lines=metrics_lines, calibration=calibration)
