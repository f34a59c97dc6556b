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
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import mae
from .mae import MaeParams
from .pipeline import EpochRecord, EpochSet, SleepStage, STAGES, as_epoch_set, denormalize

STAGE_COLUMNS = tuple(stage.display for stage in STAGES)

_STAGE_BY_NAME = {stage.display: stage for stage in STAGES}


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
            raise ValueError(
                f"self-reconstruction row {input_channel!r} is not allowed"
            )
        key = (input_channel, target_channel)
        if key not in self.row_order:
            self.row_order.append(key)

    def set_cell(self, input_channel: str, target_channel: str,
                 stage: SleepStage, cell: MseCell) -> None:
        self.add_row(input_channel, target_channel)
        self.cells[(input_channel, target_channel, stage)] = cell

    def cell(self, input_channel: str, target_channel: str,
             stage: SleepStage) -> MseCell | None:
        return self.cells.get((input_channel, target_channel, stage))

    def input_channels(self) -> list[str]:
        seen = []
        for input_channel, _ in self.row_order:
            if input_channel not in seen:
                seen.append(input_channel)
        return seen

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


def aggregate_by_stage(
    pairs: Iterable[tuple[EpochRecord, dict[str, np.ndarray]]],
    physical_units: bool = False,
) -> MseTable:
    """Group per-epoch MSE by (input, target, stage) and average each group.

    ``pairs`` holds (epoch record, reconstructions keyed by target channel),
    both in normalized units. With ``physical_units`` both sides are
    de-normalized through the record's stored (mean, std) first, so cells
    come out in squared physical units instead of normalized ones.
    """
    groups: dict[tuple[str, str, SleepStage], list[float]] = {}
    order: list[tuple[str, str]] = []
    for record, recons in pairs:
        for target_channel in record.target_channels:
            key = (record.input_channel, target_channel)
            if key not in order:
                order.append(key)
            recon = recons[target_channel]
            target = record.targets[target_channel]
            if physical_units:
                mean, std = record.norm_params[target_channel]
                value = mse(denormalize(recon, mean, std),
                            denormalize(target, mean, std))
            else:
                value = mse(recon, target)
            groups.setdefault(key + (record.stage,), []).append(value)

    table = MseTable()
    for input_channel, target_channel in order:
        table.add_row(input_channel, target_channel)
        for stage in STAGES:
            values = groups.get((input_channel, target_channel, stage))
            if values:
                mean = _running_mean(values)
                table.set_cell(input_channel, target_channel, stage,
                               MseCell(mean_mse=mean, epoch_count=len(values)))
    return table


def _running_mean(values: list[float]) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _validate(table: MseTable) -> None:
    for input_channel, target_channel in table.row_order:
        if input_channel == target_channel:
            raise ValueError(
                f"self-reconstruction row {input_channel!r} is not allowed"
            )
    for (input_channel, target_channel, _stage) in table.cells:
        if input_channel == target_channel:
            raise ValueError(
                f"self-reconstruction cell {input_channel!r} is not allowed"
            )


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
    writer.writerow(["input_channel", "target_channel", "stage",
                     "mean_mse", "epoch_count"])
    for input_channel, target_channel in table.row_order:
        for stage in STAGES:
            cell = table.cell(input_channel, target_channel, stage)
            if cell is None:
                continue
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
    target_width = max([len("Reconstruction")]
                       + [len(t) for _, t in table.row_order])
    col_width = 6

    lines = []
    header = (f"{'Input':<{input_width}}  {'Reconstruction':<{target_width}}  "
              + "  ".join(f"{name:>{col_width}}" for name in STAGE_COLUMNS))
    lines.append(header)
    lines.append("-" * len(header))
    for input_channel in inputs:
        first = True
        for target_channel in table.targets_for(input_channel):
            cells = []
            for stage in STAGES:
                cell = table.cell(input_channel, target_channel, stage)
                cells.append("-" if cell is None else f"{cell.mean_mse:.1f}")
            label = input_channel if first else ""
            first = False
            lines.append(
                f"{label:<{input_width}}  {target_channel:<{target_width}}  "
                + "  ".join(f"{c:>{col_width}}" for c in cells)
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


def zero_reconstructions(record: EpochRecord) -> dict[str, np.ndarray]:
    """The predict-mean baseline: all-zero reconstructions in normalized units."""
    return {ch: np.zeros_like(record.targets[ch]) for ch in record.target_channels}


def evaluate_records(
    params: MaeParams,
    records: EpochSet | list[EpochRecord],
    physical_units: bool = False,
) -> tuple[MseTable, list[tuple[EpochRecord, dict[str, np.ndarray]]]]:
    """Reconstruct every epoch with full visibility and aggregate."""
    epochs = as_epoch_set(records)
    recons = mae.predict(params, epochs.signals[:, 0])
    channels = params.config.target_channels
    pairs = [(record, dict(zip(channels, recon))) for record, recon in zip(epochs, recons)]
    return aggregate_by_stage(pairs, physical_units=physical_units), pairs


def baseline_table(records: EpochSet | list[EpochRecord]) -> MseTable:
    """Per-stage MSE of the predict-mean (all-zeros) baseline."""
    return aggregate_by_stage(
        (record, zero_reconstructions(record)) for record in records
    )


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
            original = denormalize(record.targets[channel], mean, std)
            recon = denormalize(reconstructions[channel], mean, std)
            for i in range(len(original)):
                writer.writerow([
                    channel,
                    f"{i / 100.0:.2f}",
                    repr(float(original[i])),
                    repr(float(recon[i])),
                ])
