import csv
import dataclasses
import hashlib
import io

import numpy as np
import pytest

from psgmae import evalreport, mae, numcore as nc, pipeline, trainer
from psgmae.evalreport import (
    LengthMismatch,
    MseCell,
    MseTable,
    aggregate_by_stage,
    baseline_table,
    export_reconstruction,
    mse,
    render_table,
    table_from_csv,
)
from psgmae.pipeline import EpochCacheReader, EpochSet, SleepStage

from conftest import chunked_reconstruct, philox, synth_records

CANONICAL_LAYOUT = [
    ("EEG (FPz-Cz)", "EOG"),
    ("EEG (FPz-Cz)", "EMG"),
    ("EEG (FPz-Cz)", "EEG (Pz-Oz)"),
    ("EOG", "EEG (FPz-Cz)"),
    ("EOG", "EMG"),
    ("EOG", "EEG (Pz-Oz)"),
]


def make_record(rng, stage, subject="s0", epoch_index=0):
    targets = {
        "EOG horizontal": rng.normal(0, 1, 3000).astype(np.float32),
        "EEG Pz-Oz": rng.normal(0, 1, 3000).astype(np.float32),
    }
    return pipeline.EpochRecord(
        subject_id=subject, epoch_index=epoch_index, stage=stage,
        input_channel="EEG Fpz-Cz",
        input_samples=rng.normal(0, 1, 3000).astype(np.float32),
        targets=targets,
        norm_params={name: (1.5, 2.0) for name in
                     ["EEG Fpz-Cz", *targets.keys()]},
    )


class TestMse:
    def test_identity(self):
        x = np.arange(10.0)
        assert mse(x, x) == 0.0

    def test_constant_offset(self):
        x = np.arange(10.0)
        assert mse(x + 1.0, x) == pytest.approx(1.0)

    def test_hand_computed(self):
        assert mse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == \
            pytest.approx(12.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse(np.zeros(3), np.zeros(4))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = philox(0)
        a = rng.normal(0, 1, 50)
        b = rng.normal(0, 1, 50)
        assert mse(a, b) > 0.0
        assert mse(a, a.copy()) == 0.0


class TestAggregate:
    def test_singleton_cell(self):
        rng = philox(1)
        record = make_record(rng, SleepStage.N2)
        recons = {ch: record.targets[ch] + 0.5 for ch in record.targets}
        table = aggregate_by_stage([(record, recons)])
        cell = table.cell("EEG Fpz-Cz", "EOG horizontal", SleepStage.N2)
        assert cell.epoch_count == 1
        assert cell.mean_mse == pytest.approx(0.25, rel=1e-5)
        # other stages have no cells at all
        for stage in SleepStage:
            if stage is not SleepStage.N2:
                assert table.cell("EEG Fpz-Cz", "EOG horizontal", stage) is None

    def test_two_epoch_mean(self):
        rng = philox(2)
        pairs = []
        for offset in (1.0, np.sqrt(3.0)):
            record = make_record(rng, SleepStage.WAKE)
            recons = {ch: record.targets[ch] + offset
                      for ch in record.targets}
            pairs.append((record, recons))
        table = aggregate_by_stage(pairs)
        cell = table.cell("EEG Fpz-Cz", "EOG horizontal", SleepStage.WAKE)
        assert cell.epoch_count == 2
        assert cell.mean_mse == pytest.approx((1.0 + 3.0) / 2, rel=1e-6)

    def test_matches_brute_force_group_by(self):
        rng = philox(3)
        stages = list(SleepStage)
        pairs = []
        for i in range(50):
            record = make_record(rng, stages[int(rng.integers(0, 5))],
                                 epoch_index=i)
            recons = {ch: rng.normal(0, 1, 3000).astype(np.float32)
                      for ch in record.targets}
            pairs.append((record, recons))
        table = aggregate_by_stage(pairs)

        # independent oracle: sort-based group-by over plain numpy means
        for target in ("EOG horizontal", "EEG Pz-Oz"):
            for stage in stages:
                values = [
                    float(np.mean((np.asarray(recons[target], dtype=np.float64)
                                   - np.asarray(record.targets[target],
                                                dtype=np.float64)) ** 2))
                    for record, recons in pairs if record.stage is stage
                ]
                cell = table.cell("EEG Fpz-Cz", target, stage)
                if not values:
                    assert cell is None
                    continue
                oracle = 0.0
                for v in values:
                    oracle += v
                oracle /= len(values)
                assert cell.mean_mse == oracle
                assert cell.epoch_count == len(values)

    def test_weighted_mean_equals_pooled(self):
        rng = philox(4)
        stages = list(SleepStage)
        pairs = []
        for i in range(50):
            record = make_record(rng, stages[i % 5], epoch_index=i)
            recons = {ch: rng.normal(0, 1, 3000).astype(np.float32)
                      for ch in record.targets}
            pairs.append((record, recons))
        table = aggregate_by_stage(pairs)
        for target in ("EOG horizontal", "EEG Pz-Oz"):
            pooled_direct = np.mean([
                mse(recons[target], record.targets[target])
                for record, recons in pairs
            ])
            assert table.pooled_mse("EEG Fpz-Cz", target) == \
                pytest.approx(pooled_direct, abs=1e-6)

    def test_baseline_is_unit_for_normalized_targets(self):
        records = synth_records(seed=11, minutes=2.0)
        table = baseline_table(records)
        for target in records[0].target_channels:
            assert table.pooled_mse("EEG Fpz-Cz", target) == \
                pytest.approx(1.0, abs=1e-3)

    @staticmethod
    def reference_cell(pairs, target, stage, physical):
        """(count, mean) of the per-record ``mse`` over the pairs of one cell,
        each de-normalized through its own record's (mean, std), summed in order."""
        total, count = 0.0, 0
        for record, recons in pairs:
            if target in record.targets and record.stage is stage:
                pred, orig = recons[target], record.targets[target]
                if physical:
                    mean, std = record.norm_params[target]
                    pred = pipeline.denormalize(pred, mean, std)
                    orig = pipeline.denormalize(orig, mean, std)
                total += mse(pred, orig)
                count += 1
        return count, (total / count if count else None)

    def assert_equals_reference(self, table, pairs, physical):
        targets = list(dict.fromkeys(t for record, _ in pairs for t in record.targets))
        assert table.row_order == [("EEG Fpz-Cz", t) for t in targets]
        for target in targets:
            for stage in SleepStage:
                count, mean = self.reference_cell(pairs, target, stage, physical)
                cell = table.cell("EEG Fpz-Cz", target, stage)
                if count:
                    assert (cell.epoch_count, cell.mean_mse) == (count, mean)
                else:
                    assert cell is None

    @staticmethod
    def own_norms(rng, record, dtype=np.float32):
        """The record with its own (mean, std) per channel, representable in
        ``dtype``, and its targets in ``dtype``."""
        return dataclasses.replace(
            record, targets={t: x.astype(dtype) for t, x in record.targets.items()},
            norm_params={name: (float(dtype(rng.normal(0, 20))), float(dtype(rng.uniform(0.5, 9))))
                         for name in record.norm_params})

    @pytest.mark.parametrize("physical", [False, True])
    def test_tables_equal_per_record_reference(self, physical):
        """Across several scoring chunks, each cell of evaluate_records' table
        equals the per-record ``mse`` of its pairs' reconstructions, which are
        ``chunked_reconstruct``'s, summed in epoch order, with the model's heads
        in reverse order of the records' targets; baseline_table's cells equal
        it for all-zeros reconstructions."""
        rng = philox(6)
        records = [self.own_norms(rng, make_record(rng, list(SleepStage)[int(rng.integers(0, 5))],
                                                   epoch_index=i))
                   for i in range(2 * evalreport.CHUNK + 7)]
        epochs = pipeline.as_epoch_set(records)
        params = mae.init_params(mae.MaeConfig(embed_dim=8, num_heads=2, encoder_layers=1,
                                               target_channels=epochs.target_channels[::-1]),
                                 seed=4)
        table, pairs = evalreport.evaluate_records(params, records, physical)
        recons = chunked_reconstruct(params, epochs.signals[:, 0])
        assert [record.epoch_index for record, _ in pairs] == list(range(len(records)))
        for (_, by_target), recon in zip(pairs, recons, strict=True):
            assert list(by_target) == list(params.config.target_channels)
            assert np.array(list(by_target.values())).tobytes() == recon.tobytes()
        self.assert_equals_reference(table, pairs, physical)
        zeros = [(r, {t: np.zeros_like(x) for t, x in r.targets.items()}) for r in records]
        self.assert_equals_reference(baseline_table(epochs, physical_units=physical),
                                     zeros, physical)
        self.assert_equals_reference(baseline_table(records, physical_units=physical),
                                     zeros, physical)

    @pytest.mark.parametrize("physical", [False, True])
    def test_model_of_part_of_the_targets_scores_its_own(self, physical):
        """A model of one of the records' two targets: evaluate_records' pairs and
        table hold just that target, the table equals the per-record reference,
        and aggregate_by_stage of the pairs gives its bytes."""
        rng = philox(9)
        records = [self.own_norms(rng, make_record(rng, list(SleepStage)[i % 5], epoch_index=i))
                   for i in range(evalreport.CHUNK + 5)]
        params = mae.init_params(mae.MaeConfig(embed_dim=8, num_heads=2, encoder_layers=1,
                                               target_channels=("EEG Pz-Oz",)), seed=5)
        table, pairs = evalreport.evaluate_records(params, records, physical)
        assert [list(recons) for _, recons in pairs] == [["EEG Pz-Oz"]] * len(records)
        own = [dataclasses.replace(record, targets={"EEG Pz-Oz": record.targets["EEG Pz-Oz"]})
               for record in records]
        self.assert_equals_reference(table, [(record, recons) for record, (_, recons)
                                             in zip(own, pairs)], physical)
        assert render_table(aggregate_by_stage(pairs, physical), "csv") == \
            render_table(table, "csv")

    @pytest.mark.parametrize("physical", [False, True])
    def test_aggregate_scores_pairs_in_their_own_precision(self, physical):
        """float64 records over two channel lists: each (input, target) row
        pools every record that has the target, in pair order, and equals the
        per-record reference without rounding through float32."""
        rng = philox(8)
        pairs = []
        for i in range(evalreport.CHUNK + 9):
            record = self.own_norms(rng, make_record(rng, list(SleepStage)[i % 5], epoch_index=i),
                                    dtype=np.float64)
            if i % 3 == 0:  # a second channel list, sharing "EEG Pz-Oz"
                record = dataclasses.replace(
                    record, targets={"EEG Pz-Oz": record.targets["EEG Pz-Oz"],
                                     "EMG submental": rng.normal(0, 1, 3000)},
                    norm_params={**record.norm_params, "EMG submental": (0.1, 3.3)})
            pairs.append((record, {t: rng.normal(0, 1, 3000) for t in record.targets}))
        table = aggregate_by_stage(pairs, physical_units=physical)
        self.assert_equals_reference(table, pairs, physical)

    def test_physical_units_flag_rescales_by_variance(self):
        rng = philox(5)
        record = make_record(rng, SleepStage.N3)
        recons = {ch: record.targets[ch] + 1.0 for ch in record.targets}
        normalized = aggregate_by_stage([(record, recons)])
        physical = aggregate_by_stage([(record, recons)], physical_units=True)
        for target in record.target_channels:
            _, std = record.norm_params[target]
            n_cell = normalized.cell("EEG Fpz-Cz", target, SleepStage.N3)
            p_cell = physical.cell("EEG Fpz-Cz", target, SleepStage.N3)
            assert p_cell.mean_mse == pytest.approx(
                n_cell.mean_mse * std * std, rel=1e-5)


def test_stream_scores_bytes_do_not_depend_on_the_core_count(monkeypatch, fresh_pool):
    """stream_scores of the first N of 130 random epochs, for every N in 1..130,
    gives the same bytes at 2, 3, 4 and 7 cores as at one. The default model
    with two targets has a 200-wide head product, whose rows OpenBLAS can
    round otherwise at another row count."""
    params = mae.init_params(mae.MaeConfig(target_channels=("t0", "t1")), seed=9)
    n = 130
    epochs = EpochSet(("in", "t0", "t1"), ("S0",), subject=np.zeros(n), epoch_index=np.arange(n),
                      stage=np.zeros(n), norm=np.ones((n, 3, 2)),
                      signals=philox(33).normal(0, 1, (n, 3, 3000)))
    digests, differ = {}, []
    for cores in (1, 2, 3, 4, 7):
        monkeypatch.setattr(nc, "cores", lambda: cores)
        if nc._POOL is not None:  # a pool of `cores` threads
            nc._POOL.shutdown()
            monkeypatch.setattr(nc, "_POOL", None)
        for size in range(1, n + 1):
            out = np.empty((size, 2, 3000), np.float32)

            def score(span, recon, orig):
                out[span] = recon

            evalreport.stream_scores(params, epochs, np.arange(size), score)
            digest = hashlib.sha256(out).digest()
            if digests.setdefault(size, digest) != digest:
                differ.append((size, cores))
    assert differ == []


class TestCacheTables:
    """cache_tables streams a cache's rows through stream_scores and gives
    evaluate_records' and baseline_table's bytes over the same rows."""

    SPLITS = ("train", "test", "val", "test", "train", "val")  # subjects S0..S5

    @classmethod
    def write(cls, path, n):
        """n epochs of six subjects, each subject's rows together, so a split's
        rows come in runs with other splits' rows between them."""
        rng = philox(n)
        subjects = tuple(f"S{i}" for i in range(len(cls.SPLITS)))
        pipeline.write_epoch_cache(path, EpochSet(
            ("in", "b", "a"), subjects, subject=np.sort(rng.integers(0, len(subjects), n)),
            epoch_index=np.arange(n), stage=rng.integers(0, len(pipeline.STAGES), n),
            norm=np.stack([rng.normal(0, 20, (n, 3)), rng.uniform(0.5, 9, (n, 3))], axis=-1),
            signals=rng.normal(0, 1, (n, 3, 3000))))
        return pipeline.DatasetManifest([], splits=dict(zip(subjects, cls.SPLITS)))

    @pytest.mark.parametrize("cores", [1, 2, 7])
    @pytest.mark.parametrize("off_by", [-1, 1])
    def test_bytes_equal_in_memory_tables(self, tmp_path, monkeypatch, fresh_pool, cores,
                                          off_by):
        """On every split, in both units, with 3 * (CHUNK // cores) epochs plus
        or minus one; a split's rows alone are predicted."""
        monkeypatch.setattr(nc, "cores", lambda: cores)
        n = 3 * (evalreport.CHUNK // cores) + off_by
        path = tmp_path / "epochs.psgepo"
        manifest = self.write(path, n)
        # the model's heads in another order than the cache's targets
        params = mae.init_params(mae.MaeConfig(embed_dim=8, num_heads=2, encoder_layers=1,
                                               target_channels=("a", "b")), seed=3)
        predicted, encode = [], mae.encode
        monkeypatch.setattr(mae, "encode", lambda tokens, visible, params: (
            predicted.append(len(tokens)), encode(tokens, visible, params))[1])
        epochs = pipeline.read_epoch_cache(path)
        splits = {"all": np.arange(n), **trainer.split_rows(manifest, epochs)}
        assert all(0 < len(rows) < n for name, rows in splits.items() if name != "all")
        for split, rows in splits.items():
            for physical in (False, True):
                predicted.clear()
                with EpochCacheReader(path) as reader:
                    model, baseline = evalreport.cache_tables(params, reader, rows, physical)
                assert sum(predicted) == len(rows)
                want = evalreport.evaluate_records(params, epochs[rows], physical)[0]
                assert render_table(model, "csv") == render_table(want, "csv")
                want = baseline_table(epochs[rows], physical)
                assert render_table(baseline, "csv") == render_table(want, "csv")

    def test_model_of_part_of_the_targets_scores_its_own(self, tmp_path):
        """A model of one of the cache's two targets: both tables are those of the
        cache's epochs over just the model's channels."""
        path, n = tmp_path / "epochs.psgepo", 9
        self.write(path, n)
        params = mae.init_params(mae.MaeConfig(embed_dim=8, num_heads=2, encoder_layers=1,
                                               target_channels=("a",)), seed=3)
        epochs = pipeline.read_epoch_cache(path)
        own = EpochSet(("in", "a"), epochs.subjects, epochs.subject, epochs.epoch_index,
                       epochs.stage, epochs.norm[:, [0, 2]], epochs.signals[:, [0, 2]])
        for physical in (False, True):
            with EpochCacheReader(path) as reader:
                model, baseline = evalreport.cache_tables(params, reader, np.arange(n), physical)
            want = evalreport.evaluate_records(params, own, physical)[0]
            assert render_table(model, "csv") == render_table(want, "csv")
            want = baseline_table(own, physical)
            assert render_table(baseline, "csv") == render_table(want, "csv")
            assert model.row_order == [("in", "a")]

    def test_targets_unlike_the_model_rejected(self, tmp_path):
        path = tmp_path / "epochs.psgepo"
        self.write(path, 5)
        params = mae.init_params(mae.MaeConfig(embed_dim=8, num_heads=2, encoder_layers=1,
                                               target_channels=("a", "c")), seed=3)
        with EpochCacheReader(path) as reader, pytest.raises(pipeline.MissingChannel):
            evalreport.cache_tables(params, reader, np.arange(5))


def canonical_table():
    table = MseTable()
    value = 1.0
    for input_channel, target in CANONICAL_LAYOUT:
        for stage in SleepStage:
            table.set_cell(input_channel, target, stage,
                           MseCell(mean_mse=value, epoch_count=3))
            value += 0.1
    return table


class TestRender:
    def test_paper_structure_six_rows_five_columns(self):
        text = render_table(canonical_table(), "text").decode()
        lines = [line for line in text.splitlines() if line and
                 not line.startswith(("Input", "-"))]
        assert len(lines) == 6
        header = text.splitlines()[0]
        for column in ("Wake", "N1", "N2", "N3", "REM"):
            assert column in header
        assert "EEG (FPz-Cz)" in text
        assert "EOG" in text
        assert "EMG" in text
        assert "EEG (Pz-Oz)" in text

    def test_one_decimal_in_text(self):
        table = MseTable()
        table.set_cell("in", "out", SleepStage.N2,
                       MseCell(mean_mse=1.23456, epoch_count=2))
        text = render_table(table, "text").decode()
        assert "1.2" in text
        assert "1.23" not in text

    def test_absent_stage_renders_dash_not_zero(self):
        table = MseTable()
        table.set_cell("in", "out", SleepStage.N2,
                       MseCell(mean_mse=0.5, epoch_count=1))
        text = render_table(table, "text").decode()
        row = [line for line in text.splitlines() if "out" in line][0]
        assert row.count("-") == 4
        assert "0.0" not in row

    def test_self_row_rejected(self):
        table = canonical_table()
        table.cells[("EOG", "EOG", SleepStage.WAKE)] = MseCell(1.0, 1)
        with pytest.raises(ValueError):
            render_table(table, "text")
        with pytest.raises(ValueError):
            MseTable().add_row("EOG", "EOG")

    def test_csv_round_trip(self):
        table = canonical_table()
        parsed = table_from_csv(render_table(table, "csv"))
        assert parsed.row_order == table.row_order
        assert parsed.cells.keys() == table.cells.keys()
        for key, cell in table.cells.items():
            assert parsed.cells[key].mean_mse == cell.mean_mse
            assert parsed.cells[key].epoch_count == cell.epoch_count

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_table(canonical_table(), "yaml")


class TestExport:
    def test_export_layout_and_denormalization(self, tmp_path):
        records = synth_records(seed=12, minutes=1.0)
        record = records[0]
        recons = {t: np.zeros_like(x) for t, x in record.targets.items()}
        path = tmp_path / "recon.csv"
        export_reconstruction(record, recons, path)

        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == ["channel", "time_s", "original", "reconstructed"]
        body = rows[1:]
        channels = list(record.target_channels)
        assert len(body) == 3000 * len(channels)

        # per channel: 3000 rows at 0.01 s steps
        first = [row for row in body if row[0] == channels[0]]
        assert len(first) == 3000
        assert first[0][1] == "0.00"
        assert first[1][1] == "0.01"
        assert first[-1][1] == "29.99"

        # de-normalized original equals physical samples of the source
        mean, std = record.norm_params[channels[0]]
        physical = record.targets[channels[0]].astype(np.float64) * std + mean
        got = np.array([float(row[2]) for row in first])
        assert np.abs(got - physical).max() < 1e-3

        # zero reconstruction de-normalizes to the channel mean
        recon_column = np.array([float(row[3]) for row in first])
        assert np.allclose(recon_column, mean)

    def test_perfect_reconstruction_columns_equal(self, tmp_path):
        records = synth_records(seed=13, minutes=1.0)
        record = records[0]
        recons = {ch: record.targets[ch].copy() for ch in record.targets}
        path = tmp_path / "perfect.csv"
        export_reconstruction(record, recons, path)
        rows = list(csv.reader(io.StringIO(path.read_text())))[1:]
        assert all(row[2] == row[3] for row in rows)

    def test_missing_target_rejected(self, tmp_path):
        """A reconstruction of a channel the record lacks is refused before the
        CSV is opened; reconstructions of part of its targets export just those,
        in the record's order."""
        record = synth_records(seed=14, minutes=1.0)[0]
        with pytest.raises(pipeline.MissingChannel, match="EEG C3"):
            export_reconstruction(record, {"EEG C3": record.targets["EEG Pz-Oz"]},
                                  tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()
        recons = {t: record.targets[t] for t in ("EEG Pz-Oz", "EOG horizontal")}
        export_reconstruction(record, recons, tmp_path / "part.csv")
        export_reconstruction(dataclasses.replace(record, targets={
            t: record.targets[t] for t in ("EOG horizontal", "EEG Pz-Oz")}), recons,
            tmp_path / "own.csv")
        rows = (tmp_path / "part.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1::3000]] == ["EOG horizontal", "EEG Pz-Oz"]
        assert (tmp_path / "part.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()
