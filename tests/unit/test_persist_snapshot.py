"""Unit tests for repro.persist: codec, snapshots, checkpoints, faults."""

import json

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.er.meta_blocking import MetaBlockingConfig
from repro.persist import (
    SnapshotError,
    column_from_arrays,
    column_to_arrays,
    read_manifest,
    save_engine,
)
from repro.persist.snapshot import MANIFEST_NAME, write_manifest
from repro.resilience import DEGRADATION, FaultPlan, clear_plan, install_plan
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table

QUERY = "SELECT DEDUP id, given_name, surname FROM PPL WHERE surname LIKE '%an%'"


@pytest.fixture(autouse=True)
def _clean_faults():
    clear_plan()
    DEGRADATION.clear()
    yield
    clear_plan()
    DEGRADATION.clear()


def make_engine(size=120, seed=11, **kwargs):
    kwargs.setdefault("meta_blocking", MetaBlockingConfig.none())
    engine = QueryEREngine(**kwargs)
    table, _ = generate_people(size, seed=seed)
    engine.register(table)
    return engine


def extra_row(i):
    return (
        9000 + i, "ann", "hanson", str(i), "oak street", "rome", "2839",
        "vic", "1980-01-01", "45", None, None, None,
    )


class TestColumnarCodec:
    @pytest.mark.parametrize(
        "kind,values",
        [
            (ColumnType.STRING, ["a", "", None, "héllo wörld", "x" * 500]),
            (ColumnType.INTEGER, [0, -5, None, 2**40, 7]),
            (ColumnType.INTEGER, [2**100, None, -(2**80)]),  # overflow fallback
            (ColumnType.FLOAT, [0.0, -1.5, None, 3.14159, 1e300]),
            (ColumnType.BOOLEAN, [True, False, None, True]),
            (ColumnType.STRING, []),
        ],
    )
    def test_round_trip_exact(self, kind, values):
        column = Column("c", kind)
        back = column_from_arrays(column, column_to_arrays(column, values))
        assert back == values
        assert [type(v) for v in back] == [type(v) for v in values]

    def test_empty_string_distinct_from_null(self):
        column = Column("c", ColumnType.STRING)
        back = column_from_arrays(column, column_to_arrays(column, ["", None]))
        assert back == ["", None]


class TestSaveLoad:
    def test_round_trip_is_bit_identical(self, tmp_path):
        engine = make_engine()
        live = engine.execute(QUERY).sorted_rows()
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        assert warm.execute(QUERY).sorted_rows() == live
        assert warm.table_epochs() == engine.table_epochs()

    def test_load_restores_indices_without_rebuild(self, tmp_path):
        engine = make_engine()
        engine.execute(QUERY)  # populate LI + signatures
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        live_index, warm_index = engine.index_of("ppl"), warm.index_of("ppl")
        assert set(warm_index.tbi.keys()) == set(live_index.tbi.keys())
        for key in live_index.tbi.keys():
            assert warm_index.tbi.get(key).entities == live_index.tbi.get(key).entities
        assert warm_index.itbi == live_index.itbi
        assert warm_index.link_index.resolved_count == live_index.link_index.resolved_count
        assert len(warm_index.link_index) == len(live_index.link_index)
        assert warm_index.signature_count == live_index.signature_count
        # Restored signatures use the identical token-id assignment.
        some_id = next(iter(live_index.table.ids))
        assert (
            warm_index.signature_of(some_id).token_ids
            == live_index.signature_of(some_id).token_ids
        )

    def test_statistics_survive_without_resampling(self, tmp_path):
        engine = make_engine()
        live = engine.statistics_of("ppl")
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        restored = warm.statistics_of("ppl")
        assert restored.duplication_factor == live.duplication_factor
        assert restored.sample_size == live.sample_size

    def test_statistics_are_not_persisted_before_first_read(self, tmp_path):
        engine = make_engine()
        manifest = engine.save(tmp_path)
        assert manifest["tables"]["ppl"]["statistics"] is None
        assert "sample_stats" not in manifest["engine"]
        warm = QueryEREngine.load(tmp_path)
        assert warm.statistics_of("ppl").to_state() == engine.statistics_of("ppl").to_state()

    def test_manifest_with_legacy_sample_stats_key_loads(self, tmp_path):
        """Manifests written while statistics were sampled at registration
        carry ``"sample_stats": true``; the key no longer selects anything."""
        engine = make_engine()
        engine.statistics_of("ppl")
        manifest = engine.save(tmp_path)
        manifest["engine"]["sample_stats"] = True
        write_manifest(tmp_path, manifest)
        warm = QueryEREngine.load(tmp_path)
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()
        assert warm.statistics_of("ppl").to_state() == engine.statistics_of("ppl").to_state()

    def test_manifest_with_legacy_packed_flags_loads(self, tmp_path):
        """Manifests written while two candidate derivations existed carry
        ``packed_graph``/``packed_blocking``; both keys are ignored."""
        engine = make_engine(meta_blocking=MetaBlockingConfig.all())
        manifest = engine.save(tmp_path)
        assert "packed_graph" not in manifest["engine"]["meta_blocking"]
        assert "packed_blocking" not in manifest["engine"]["meta_blocking"]
        manifest["engine"]["meta_blocking"]["packed_graph"] = False
        manifest["engine"]["meta_blocking"]["packed_blocking"] = False
        write_manifest(tmp_path, manifest)
        warm = QueryEREngine.load(tmp_path)
        assert warm.meta_blocking == MetaBlockingConfig.all()
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

    def test_manifest_records_format_and_checksums(self, tmp_path):
        engine = make_engine()
        manifest = engine.save(tmp_path)
        on_disk = read_manifest(tmp_path)
        assert on_disk["format"] == manifest["format"]
        entry = on_disk["tables"]["ppl"]
        assert entry["segments"][0]["sha256"]
        assert entry["rows"] == len(engine.catalog.get("ppl"))

    def test_corrupted_segment_is_refused(self, tmp_path):
        engine = make_engine()
        manifest = engine.save(tmp_path)
        segment = tmp_path / manifest["tables"]["ppl"]["segments"][0]["file"]
        raw = bytearray(segment.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        segment.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            QueryEREngine.load(tmp_path)

    def test_missing_manifest_is_refused(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot manifest"):
            QueryEREngine.load(tmp_path)

    def test_unknown_format_is_refused(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other/v9"}))
        with pytest.raises(SnapshotError, match="unsupported snapshot format"):
            read_manifest(tmp_path)

    def test_overrides_take_precedence(self, tmp_path):
        engine = make_engine()
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path, match_threshold=0.9)
        assert warm.match_threshold == 0.9

    def test_multi_table_snapshot(self, tmp_path):
        engine = make_engine()
        other, _ = generate_people(40, seed=5, name="OTH")
        engine.register(other)
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        assert set(warm.table_epochs()) == {"ppl", "oth"}
        assert len(warm.catalog.get("oth")) == 40


class TestCheckpoints:
    def test_committed_insert_appends_delta_segment(self, tmp_path):
        engine = make_engine()
        engine.enable_checkpointing(tmp_path)
        engine.insert("PPL", [extra_row(0)])
        entry = read_manifest(tmp_path)["tables"]["ppl"]
        kinds = [s["kind"] for s in entry["segments"]]
        assert kinds == ["base", "delta"]
        warm = QueryEREngine.load(tmp_path)
        assert warm.table_epochs() == engine.table_epochs()
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

    def test_rolled_back_insert_never_reaches_disk(self, tmp_path):
        engine = make_engine()
        engine.enable_checkpointing(tmp_path)
        before = read_manifest(tmp_path)
        install_plan(FaultPlan.parse("dml.before_commit:times=1"))
        from repro.incremental import IngestError

        with pytest.raises(IngestError):
            engine.insert("PPL", [extra_row(1)])
        clear_plan()
        after = read_manifest(tmp_path)
        assert after["tables"]["ppl"] == before["tables"]["ppl"]
        mgr = engine.checkpointer
        assert mgr.checkpoints_written == 0

    def test_compaction_folds_deltas_into_base(self, tmp_path):
        engine = make_engine()
        engine.enable_checkpointing(tmp_path, delta_threshold=2)
        for i in range(3):
            engine.insert("PPL", [extra_row(i)])
        entry = read_manifest(tmp_path)["tables"]["ppl"]
        assert [s["kind"] for s in entry["segments"]] == ["base"]
        assert engine.checkpointer.compactions == 1
        warm = QueryEREngine.load(tmp_path)
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

    def test_warm_start_skips_base_rewrite(self, tmp_path):
        engine = make_engine()
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        manager = warm.enable_checkpointing(tmp_path)
        assert manager.checkpoints_written == 0  # snapshot already matches

    def test_background_writer_flushes(self, tmp_path):
        engine = make_engine()
        manager = engine.enable_checkpointing(tmp_path, background=True)
        engine.insert("PPL", [extra_row(0)])
        engine.insert("PPL", [extra_row(1)])
        manager.flush()
        warm = QueryEREngine.load(tmp_path)
        assert warm.table_epochs() == engine.table_epochs()
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()
        manager.close()

    def test_status_exposes_snapshot_health(self, tmp_path):
        engine = make_engine()
        manager = engine.enable_checkpointing(tmp_path)
        engine.insert("PPL", [extra_row(0)])
        status = manager.status()
        assert status["snapshot_epoch_map"] == engine.table_epochs()
        assert status["delta_segments"] == 1
        assert status["checkpoints_written"] == 1
        assert status["last_checkpoint_age_s"] >= 0


class TestCrashSafety:
    @pytest.mark.parametrize("site", ["persist.write", "persist.rename"])
    def test_failed_checkpoint_keeps_prior_snapshot_loadable(self, tmp_path, site):
        engine = make_engine()
        engine.enable_checkpointing(tmp_path)
        pre_insert = engine.execute(QUERY).sorted_rows()
        install_plan(FaultPlan.parse(f"{site}:times=1"))
        result = engine.insert("PPL", [extra_row(0)])  # insert itself commits
        clear_plan()
        assert result.inserted == 1
        assert engine.checkpointer.checkpoint_failures == 1
        assert DEGRADATION.layer_counts().get("persist")
        warm = QueryEREngine.load(tmp_path)  # prior snapshot, pre-insert
        assert warm.table_epochs()["ppl"] == engine.table_epochs()["ppl"] - 1
        assert warm.execute(QUERY).sorted_rows() == pre_insert

    def test_next_commit_repairs_with_full_base(self, tmp_path):
        engine = make_engine()
        engine.enable_checkpointing(tmp_path)
        install_plan(FaultPlan.parse("persist.write:times=1"))
        engine.insert("PPL", [extra_row(0)])  # checkpoint lost
        clear_plan()
        engine.insert("PPL", [extra_row(1)])  # triggers base re-capture
        warm = QueryEREngine.load(tmp_path)
        assert warm.table_epochs() == engine.table_epochs()
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()
        entry = read_manifest(tmp_path)["tables"]["ppl"]
        assert entry["segments"][0]["kind"] == "base"

    def test_save_sweeps_stale_temp_files(self, tmp_path):
        engine = make_engine()
        engine.save(tmp_path)
        stray = tmp_path / "tables" / "ppl" / "junk.npz.tmp-123"
        stray.write_bytes(b"partial")
        engine.save(tmp_path)
        assert not stray.exists()


class TestEngineHooks:
    def test_save_engine_function_matches_method(self, tmp_path):
        engine = make_engine()
        manifest = save_engine(engine, tmp_path)
        assert set(manifest["tables"]) == {"ppl"}

    def test_epoch_map_identical_after_load(self, tmp_path):
        engine = make_engine()
        engine.insert("PPL", [extra_row(0)])
        engine.save(tmp_path)
        assert QueryEREngine.load(tmp_path).table_epochs() == engine.table_epochs()

    def test_join_percentages_restored(self, tmp_path):
        engine = make_engine()
        other, _ = generate_people(40, seed=5, name="OTH")
        engine.register(other)
        live = engine.join_percentage("PPL", "OTH", "surname", "surname")
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        assert warm._join_percentages[("ppl", "oth", "surname", "surname")] == live

    def test_unsnapshotable_blocking_is_refused(self, tmp_path):
        from repro.core.indices import TableIndex
        from repro.er.blocking import TokenBlocking

        class CustomBlocking(TokenBlocking):
            pass

        engine = QueryEREngine()
        table = Table("T", Schema.of("id", "name"), [("1", "ann"), ("2", "bob")])
        engine.register(table)
        engine._indices["t"] = TableIndex(table, blocking=CustomBlocking())
        with pytest.raises(SnapshotError, match="not snapshotable"):
            engine.save(tmp_path)
