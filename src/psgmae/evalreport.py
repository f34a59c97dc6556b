"""Per-sleep-stage MSE aggregation and report rendering.

The report has one row group per input channel, one row per reconstructed
target channel (a channel is never scored against itself), and one column
per sleep stage. MSE is computed on normalized signals by default so values
are comparable across channels with different physical scales; pass
denormalized arrays to ``mse`` for physical-unit errors.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import mae, numcore as nc
from .mae import MaeParams
from .pipeline import (EpochCacheReader, EpochRecord, EpochSet, MissingChannel, SleepStage, STAGES,
                       as_epoch_set, denormalize)

STAGE_COLUMNS = tuple(stage.display for stage in STAGES)

_STAGE_BY_NAME = {stage.display: stage for stage in STAGES}

# epochs in one stream_scores chunk, per core in flight, and per epoch_errors
# step: bounds activation memory and float64 temporaries
CHUNK = 32


class LengthMismatch(Exception):
    pass


def mse(pred: np.ndarray, orig: np.ndarray) -> float:
    """Mean squared elementwise difference."""
    pred = np.asarray(pred, dtype=np.float64)
    orig = np.asarray(orig, dtype=np.float64)
    if pred.shape != orig.shape:
        raise LengthMismatch(f"pred shape {pred.shape} != orig shape {orig.shape}")
    diff = pred - orig
    return float(np.mean(diff * diff))


@dataclass
class MseCell:
    mean_mse: float
    epoch_count: int


@dataclass
class MseTable:
    """(input, target) rows x sleep-stage columns of mean MSE + counts.

    ``row_order`` preserves first-seen order so rendering matches the
    configuration's target ordering. Stages with no epochs have no cell.
    """

    cells: dict[tuple[str, str, SleepStage], MseCell] = field(default_factory=dict)
    row_order: list[tuple[str, str]] = field(default_factory=list)

    def add_row(self, input_channel: str, target_channel: str) -> None:
        if input_channel == target_channel:
            raise ValueError(f"self-reconstruction row {input_channel!r} is not allowed")
        key = (input_channel, target_channel)
        if key not in self.row_order:
            self.row_order.append(key)

    def set_cell(self, input_channel: str, target_channel: str,
                 stage: SleepStage, cell: MseCell) -> None:
        self.add_row(input_channel, target_channel)
        self.cells[(input_channel, target_channel, stage)] = cell

    def cell(self, input_channel: str, target_channel: str, stage: SleepStage) -> MseCell | None:
        return self.cells.get((input_channel, target_channel, stage))

    def input_channels(self) -> list[str]:
        return list(dict.fromkeys(input_channel for input_channel, _ in self.row_order))

    def targets_for(self, input_channel: str) -> list[str]:
        return [t for i, t in self.row_order if i == input_channel]

    def pooled_mse(self, input_channel: str, target_channel: str) -> float:
        """Count-weighted mean over the row's stage cells."""
        total = 0.0
        count = 0
        for stage in STAGES:
            cell = self.cell(input_channel, target_channel, stage)
            if cell is not None:
                total += cell.mean_mse * cell.epoch_count
                count += cell.epoch_count
        if count == 0:
            raise ValueError(f"no epochs for row ({input_channel}, {target_channel})")
        return total / count


def epoch_errors(pred: np.ndarray | None, orig: np.ndarray,
                 norm: np.ndarray | list | None = None) -> np.ndarray:
    """Per-epoch ``mse`` (N, ...) of ``pred`` against ``orig``, both (N, ...,
    epoch_len), each first de-normalized through ``norm``'s (N, ..., 2)
    (mean, std) unless it is None; ``pred`` None is the all-zeros baseline."""
    errors = np.empty(np.shape(orig)[:-1])
    for lo in range(0, len(orig), CHUNK):
        rows = slice(lo, lo + CHUNK)
        chunk_pred, chunk_orig = 0.0 if pred is None else pred[rows], orig[rows]
        if norm is not None:
            mean, std = np.moveaxis(np.asarray(norm[rows], dtype=np.float64), -1, 0)[..., None]
            chunk_pred = denormalize(chunk_pred, mean, std)
            chunk_orig = denormalize(chunk_orig, mean, std)
        diff = np.subtract(chunk_pred, chunk_orig, dtype=np.float64)
        errors[rows] = np.mean(np.square(diff, out=diff), axis=-1)
    return errors


def _add_rows(table: MseTable, input_channel: str, targets, stage: np.ndarray,
              errors: np.ndarray) -> MseTable:
    """``table`` with rows (input_channel, target j): per ``stage`` code, the
    mean of its epochs' errors[:, j], which bincount sums in epoch order."""
    counts = np.bincount(stage, minlength=len(STAGES)).tolist()
    for j, target in enumerate(targets if len(stage) else ()):
        totals = np.bincount(stage, weights=errors[:, j], minlength=len(STAGES)).tolist()
        table.add_row(input_channel, target)
        for cell_stage, total, count in zip(STAGES, totals, counts):
            if count:
                table.set_cell(input_channel, target, cell_stage, MseCell(total / count, count))
    return table


def stream_scores(params: MaeParams, source: EpochSet | EpochCacheReader, rows: np.ndarray,
                  targets: list[int], score: Callable[[slice, np.ndarray, np.ndarray], None]):
    """Full-visibility reconstructions of the rows ``rows`` (ascending) of an EpochSet
    or an EpochCacheReader, each chunk handed to score(span, recon, orig) on the thread
    that read it: ``recon`` (chunk, heads, epoch_len), ``orig`` those epochs' channels
    ``targets`` (one per head), ``span`` their positions in ``rows``.

    Chunks of min(CHUNK, ceil(N / 2)) rows, at least one, cut from N alone so that
    no byte depends on the core count, run on the numcore pool: at most CHUNK epochs
    per core are in flight. One chunk or one core runs on this thread."""
    size = max(1, min(CHUNK, -(-len(rows) // 2)))

    def chunk(lo: int) -> None:
        span = slice(lo, min(lo + size, len(rows)))
        signals = source.read(rows[span])
        score(span, mae.reconstruct(params, signals[:, 0]), signals[:, targets])

    nc._parallel_map(chunk, range(0, len(rows), size))


def cache_tables(params: MaeParams, reader: EpochCacheReader, rows: np.ndarray,
                 physical_units: bool = False) -> tuple[MseTable, MseTable]:
    """``evaluate_records``' table and ``baseline_table`` of the cache rows ``rows``
    (ascending) through ``stream_scores``, keeping only per-epoch errors. Only
    those rows are read, and each is checked before the tables return."""
    channels, order = reader.channels, params.config.target_channels
    if sorted(channels[1:]) != sorted(order):
        raise MissingChannel(f"cache target channels {list(channels[1:])} are not the "
                             f"model's {list(order)}")
    model, baseline = np.empty((2, len(rows), len(order)))
    targets = [channels.index(t) for t in order]

    def score(span: slice, recon: np.ndarray, orig: np.ndarray) -> None:
        norm = reader.norm[rows[span]][:, targets] if physical_units else None
        model[span] = epoch_errors(recon, orig, norm)
        baseline[span] = epoch_errors(None, orig, norm)

    stream_scores(params, reader, rows, targets, score)
    heads = [order.index(t) for t in channels[1:]]  # the cache's target order
    return tuple(_add_rows(MseTable(), channels[0], channels[1:], reader.stage[rows],
                           errors[:, heads]) for errors in (model, baseline))


def aggregate_by_stage(pairs: Iterable[tuple[EpochRecord, dict[str, np.ndarray]]],
                       physical_units: bool = False) -> MseTable:
    """Group per-epoch MSE by (input, target, stage) and average each group,
    as ``evaluate_records`` does, over (epoch record, reconstructions keyed by
    target channel) pairs, both in normalized units."""
    groups: dict[tuple[str, str], list[tuple[EpochRecord, np.ndarray]]] = {}
    for record, recons in pairs:
        for target in record.target_channels:
            if np.shape(recons[target]) != np.shape(record.targets[target]):
                raise LengthMismatch(f"pred shape {np.shape(recons[target])} != orig shape "
                                     f"{np.shape(record.targets[target])}")
            groups.setdefault((record.input_channel, target), []).append((record, recons[target]))
    table = MseTable()
    for (input_channel, target), group in groups.items():
        records, preds = zip(*group)
        errors = epoch_errors(np.array(preds), np.array([r.targets[target] for r in records]),
                              [r.norm_params[target] for r in records] if physical_units
                              else None)
        _add_rows(table, input_channel, [target], np.array([r.stage.code for r in records]),
                  errors[:, None])
    return table


def _validate(table: MseTable) -> None:
    for input_channel, target_channel, *_ in [*table.row_order, *table.cells]:
        if input_channel == target_channel:
            raise ValueError(f"self-reconstruction row {input_channel!r} is not allowed")


def render_table(table: MseTable, fmt: str = "text") -> bytes:
    """Render as an aligned text table (one decimal) or full-precision CSV."""
    _validate(table)
    if fmt == "csv":
        return _render_csv(table)
    if fmt == "text":
        return _render_text(table)
    raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'text')")


def _render_csv(table: MseTable) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["input_channel", "target_channel", "stage", "mean_mse", "epoch_count"])
    for input_channel, target_channel in table.row_order:
        for stage in STAGES:
            cell = table.cell(input_channel, target_channel, stage)
            if cell is not None:
                writer.writerow([input_channel, target_channel, stage.display,
                                 repr(cell.mean_mse), cell.epoch_count])
    return out.getvalue().encode("utf-8")


def table_from_csv(data: bytes) -> MseTable:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    if header[:3] != ["input_channel", "target_channel", "stage"]:
        raise ValueError(f"unexpected CSV header: {header}")
    table = MseTable()
    for row in reader:
        input_channel, target_channel, stage_name, mean, count = row
        table.set_cell(input_channel, target_channel, _STAGE_BY_NAME[stage_name],
                       MseCell(mean_mse=float(mean), epoch_count=int(count)))
    return table


def _render_text(table: MseTable) -> bytes:
    inputs = table.input_channels()
    input_width = max([len("Input")] + [len(i) for i in inputs])
    target_width = max([len("Reconstruction")] + [len(t) for _, t in table.row_order])
    col_width = 6

    lines = []
    header = (f"{'Input':<{input_width}}  {'Reconstruction':<{target_width}}  "
              + "  ".join(f"{name:>{col_width}}" for name in STAGE_COLUMNS))
    lines.append(header)
    lines.append("-" * len(header))
    for input_channel in inputs:
        for k, target_channel in enumerate(table.targets_for(input_channel)):
            cells = []
            for stage in STAGES:
                cell = table.cell(input_channel, target_channel, stage)
                cells.append("-" if cell is None else f"{cell.mean_mse:.1f}")
            label = "" if k else input_channel
            lines.append(
                f"{label:<{input_width}}  {target_channel:<{target_width}}  "
                + "  ".join(f"{c:>{col_width}}" for c in cells)
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


def evaluate_records(
    params: MaeParams,
    records: EpochSet | list[EpochRecord],
    physical_units: bool = False,
) -> tuple[MseTable, list[tuple[EpochRecord, dict[str, np.ndarray]]]]:
    """Per-stage MSE of the model's full-visibility reconstructions of the records,
    scored through ``stream_scores``, and one (epoch record, recons by target) pair per epoch."""
    epochs = as_epoch_set(records)
    channels = params.config.target_channels
    targets = epochs.target_indices(channels)
    recons = np.empty((len(epochs), len(targets), params.config.epoch_len), params.dtype)
    errors = np.empty((len(epochs), len(targets)))

    def score(span: slice, recon: np.ndarray, orig: np.ndarray) -> None:
        recons[span] = recon
        errors[span] = epoch_errors(recon, orig, epochs.norm[span][:, targets]
                                    if physical_units else None)

    stream_scores(params, epochs, np.arange(len(epochs)), targets, score)
    heads = [channels.index(t) for t in epochs.target_channels]  # the set's target order
    table = _add_rows(MseTable(), epochs.input_channel, epochs.target_channels, epochs.stage,
                      errors[:, heads])
    return table, [(record, dict(zip(channels, recon))) for record, recon in zip(epochs, recons)]


def baseline_table(records: EpochSet | list[EpochRecord],
                   physical_units: bool = False) -> MseTable:
    """Per-stage MSE of the predict-mean (all-zeros) baseline."""
    if not len(records):
        return MseTable()
    epochs = as_epoch_set(records)
    norm = epochs.norm[:, 1:] if physical_units else None
    return _add_rows(MseTable(), epochs.input_channel, epochs.target_channels, epochs.stage,
                     epoch_errors(None, epochs.signals[:, 1:], norm))


def export_reconstruction(
    record: EpochRecord,
    reconstructions: dict[str, np.ndarray],
    path,
) -> None:
    """Write aligned (channel, time_s, original, reconstructed) CSV columns,
    de-normalized to physical units with the record's stored parameters."""
    missing = set(record.target_channels) - set(reconstructions)
    if missing:
        raise ValueError(f"reconstructions missing targets: {sorted(missing)}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["channel", "time_s", "original", "reconstructed"])
        for channel in record.target_channels:
            mean, std = record.norm_params[channel]
            original = denormalize(record.targets[channel], mean, std).tolist()
            recon = denormalize(reconstructions[channel], mean, std).tolist()
            writer.writerows([channel, f"{i / 100.0:.2f}", repr(o), repr(r)]
                             for i, (o, r) in enumerate(zip(original, recon, strict=True)))
