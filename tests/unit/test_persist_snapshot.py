"""Unit tests for repro.persist: codec, snapshots, checkpoints, faults."""

import json
import time

import numpy as np
import pytest
from reference.dict_pipeline import postings_blocks
from reference.signature_oracle import column_state, profile_of

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.er.meta_blocking import MetaBlockingConfig
from repro.incremental import IngestError
from repro.persist import (
    FORMAT,
    CheckpointManager,
    SnapshotError,
    column_from_arrays,
    column_to_arrays,
    read_manifest,
    save_engine,
)
from repro.persist import snapshot as snap
from repro.persist.snapshot import MANIFEST_NAME, read_npz, write_manifest
from repro.resilience import DEGRADATION, FaultPlan, clear_plan, install_plan
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table

QUERY = "SELECT DEDUP id, given_name, surname FROM PPL WHERE surname LIKE '%an%'"
JOIN = "SELECT DEDUP PPL.id, OTH.id FROM PPL JOIN OTH ON PPL.surname = OTH.surname"


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
        engine.execute(QUERY)  # populate the LI
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        live_index, warm_index = engine.index_of("ppl"), warm.index_of("ppl")
        assert warm_index.vocabulary.tokens() == live_index.vocabulary.tokens()
        warm_csr, live_csr = warm_index.to_arrays(), live_index.to_arrays()
        assert warm_csr["itbi_indptr"].tolist() == live_csr["itbi_indptr"].tolist()
        assert warm_csr["itbi_tokens"].tolist() == live_csr["itbi_tokens"].tolist()
        assert postings_blocks(warm_index) == postings_blocks(live_index)
        assert warm_index.link_index.resolved_count == live_index.link_index.resolved_count
        assert len(warm_index.link_index) == len(live_index.link_index)
        # The signature columns are rebuilt whole, over the identical
        # token-id assignment.
        assert column_state(warm_index) == column_state(live_index)
        for some_id in live_index.table.ids:
            assert (
                profile_of(warm_index.signature_of(some_id)).token_ids
                == profile_of(live_index.signature_of(some_id)).token_ids
            )

    def test_state_files_list_links_and_resolved_only(self, tmp_path):
        engine = make_engine()
        engine.execute(QUERY)
        engine.save(tmp_path)
        entry = json.loads((tmp_path / MANIFEST_NAME).read_text())["tables"]["ppl"]
        state = json.loads((tmp_path / entry["state"]["file"]).read_text())
        assert set(state) == {"links", "resolved"}

    def test_explain_after_load_equals_the_live_engines(self, tmp_path):
        engine = make_engine()
        other, _ = generate_people(40, seed=5, name="OTH")
        engine.register(other)
        statements = (QUERY, JOIN, JOIN.replace("FROM PPL JOIN OTH", "FROM OTH JOIN PPL"))
        live = [engine.explain(sql) for sql in statements]
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path)
        assert [warm.explain(sql) for sql in statements] == live

    def test_manifest_carries_no_statistics(self, tmp_path):
        engine = make_engine()
        other, _ = generate_people(40, seed=5, name="OTH")
        engine.register(other)
        engine.explain(JOIN)
        manifest = engine.save(tmp_path)
        assert manifest["format"] == FORMAT == "repro/persist/v2"
        assert "join_percentages" not in manifest
        assert "statistics" not in manifest["tables"]["ppl"]
        assert set(manifest["engine"]) == {"match_threshold", "meta_blocking", "use_link_index"}

    def test_explain_after_load_with_a_threshold_override_equals_a_fresh_engines(
        self, tmp_path
    ):
        """Regression: the loaded engine once kept a threshold-dependent
        row estimate from the saved threshold.  The comparison estimate
        depends on the blocking keys alone, so every threshold prints it."""
        sql = "EXPLAIN SELECT DEDUP * FROM PPL WHERE surname = 'smith'"
        table, _ = generate_people(1000, seed=7)
        engine = QueryEREngine()
        engine.register(table)
        saved = engine.execute(sql).plan_description
        assert "Deduplicate {est comparisons=23}" in saved
        engine.save(tmp_path)
        warm = QueryEREngine.load(tmp_path, match_threshold=0.55)
        fresh = QueryEREngine(match_threshold=0.55)
        fresh.register(generate_people(1000, seed=7)[0])
        expected = fresh.execute(sql).plan_description
        assert warm.execute(sql).plan_description == expected == saved

    def test_manifest_with_legacy_sample_stats_key_loads(self, tmp_path):
        """Manifests written while statistics were sampled at registration
        carry ``"sample_stats": true``; the key no longer selects anything."""
        engine = make_engine()
        manifest = engine.save(tmp_path)
        manifest["engine"]["sample_stats"] = True
        write_manifest(tmp_path, manifest)
        warm = QueryEREngine.load(tmp_path)
        assert warm.explain(QUERY) == engine.explain(QUERY)
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

    def test_v1_manifest_with_statistics_loads(self, tmp_path):
        """A v1 manifest's ``statistics``, ``join_percentages`` and
        ``invalidation_policy`` are ignored, so the stale values written
        here never surface."""
        engine = make_engine()
        other, _ = generate_people(40, seed=5, name="OTH")
        engine.register(other)
        manifest = engine.save(tmp_path)
        manifest["format"] = "repro/persist/v1"
        manifest["engine"]["invalidation_policy"] = "full_reset"
        manifest["join_percentages"] = [["ppl", "oth", "surname", "surname", 0.0, 0.0]]
        for entry in manifest["tables"].values():
            entry["statistics"] = {
                "sample_size": 1, "sample_duplicates": 99, "duplication_factor": 99.0,
                "base_rows": 1, "appended_rows": 0,
            }
        write_manifest(tmp_path, manifest)
        warm = QueryEREngine.load(tmp_path)
        assert warm.explain(JOIN) == engine.explain(JOIN)
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

    def test_manifest_recording_transitive_true_loads(self, tmp_path):
        """Manifests written while Deduplicate's fixpoint expansion was an
        option record ``"transitive": true``, the one state it has now."""
        engine = make_engine()
        manifest = engine.save(tmp_path)
        assert "transitive" not in manifest["engine"]
        manifest["engine"]["transitive"] = True
        write_manifest(tmp_path, manifest)
        warm = QueryEREngine.load(tmp_path)
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

    def test_manifest_recording_transitive_false_is_refused(self, tmp_path):
        """Single-round Deduplicates cannot be honoured: such a snapshot
        must not load as if it had been saved with the fixpoint."""
        engine = make_engine()
        manifest = engine.save(tmp_path)
        manifest["engine"]["transitive"] = False
        write_manifest(tmp_path, manifest)
        with pytest.raises(SnapshotError, match="transitive"):
            QueryEREngine.load(tmp_path)

    def test_removed_transitive_setting_is_refused(self, tmp_path):
        engine = make_engine()
        engine.save(tmp_path)
        with pytest.raises(TypeError, match="transitive"):
            QueryEREngine.load(tmp_path, transitive=True)
        with pytest.raises(TypeError, match="transitive"):
            QueryEREngine(transitive=True)

    def test_manifest_with_legacy_optimizer_keys_loads(self, tmp_path):
        """Manifests written while a plan enumerator existed carry
        ``optimizer`` and ``plan_cache_size``; both keys are ignored."""
        engine = make_engine()
        manifest = engine.save(tmp_path)
        assert "optimizer" not in manifest["engine"]
        assert "plan_cache_size" not in manifest["engine"]
        manifest["engine"]["optimizer"] = False
        manifest["engine"]["plan_cache_size"] = 0
        write_manifest(tmp_path, manifest)
        warm = QueryEREngine.load(tmp_path)
        fresh = make_engine()
        for sql in (QUERY, "SELECT DEDUP id, surname FROM PPL WHERE state = 'vic'"):
            assert warm.execute(sql).sorted_rows() == fresh.execute(sql).sorted_rows()
        assert warm.plan_cache.snapshot()["size"] == 2

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

    def test_unknown_override_is_refused(self, tmp_path):
        engine = make_engine()
        engine.save(tmp_path)
        with pytest.raises(TypeError, match="execution"):
            QueryEREngine.load(tmp_path, execution=2)

    @pytest.mark.parametrize("override", ["optimizer", "plan_cache_size"])
    def test_removed_plan_setting_is_refused(self, tmp_path, override):
        engine = make_engine()
        engine.save(tmp_path)
        with pytest.raises(TypeError, match=override):
            QueryEREngine.load(tmp_path, **{override: 0})

    def test_removed_invalidation_policy_is_refused(self, tmp_path):
        """Targeted Link-Index invalidation is the only one left."""
        engine = make_engine()
        engine.save(tmp_path)
        with pytest.raises(TypeError, match="invalidation_policy"):
            QueryEREngine.load(tmp_path, invalidation_policy="full_reset")
        with pytest.raises(TypeError, match="invalidation_policy"):
            QueryEREngine(invalidation_policy="targeted")

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

    def test_engine_close_drains_the_background_writer(self, tmp_path):
        with make_engine() as engine:
            engine.enable_checkpointing(tmp_path, background=True)
            engine.insert("PPL", [extra_row(0)])
            engine.insert("PPL", [extra_row(1)])
        engine.close()  # idempotent
        warm = QueryEREngine.load(tmp_path)
        assert warm.table_epochs() == engine.table_epochs()
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

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

    def test_failed_manifest_write_leaves_status_describing_the_disk(self, tmp_path):
        """The segment and state files of a delta are written, then its
        manifest write fails: the manager still reports the snapshot on
        disk, and the next commit repairs it with a base."""
        engine = make_engine()
        manager = engine.enable_checkpointing(tmp_path)
        install_plan(FaultPlan.parse("persist.write:after=2:times=1"))
        engine.insert("PPL", [extra_row(0)])
        clear_plan()
        assert manager.checkpoint_failures == 1
        on_disk = read_manifest(tmp_path)
        assert [s["kind"] for s in on_disk["tables"]["ppl"]["segments"]] == ["base"]
        assert manager.status()["snapshot_epoch_map"] == on_disk["epochs"]
        assert manager.status()["delta_segments"] == 0
        engine.insert("PPL", [extra_row(1)])
        warm = QueryEREngine.load(tmp_path)
        assert warm.table_epochs() == engine.table_epochs()
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()

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


def decoded(directory, entry):
    """Every segment of a manifest entry, decoded to its named arrays."""
    return [read_npz(directory / segment["file"]) for segment in entry["segments"]]


def assert_same_arrays(left, right):
    assert len(left) == len(right)
    for one, other in zip(left, right):
        assert list(one) == list(other)
        for name in one:
            assert one[name].dtype == other[name].dtype, name
            assert np.array_equal(one[name], other[name]), name


class TestWriterIdentity:
    """``save_engine``, the checkpointer and compaction write one format."""

    def test_write_npz_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        """``np.savez`` stamps every zip member with the fixed 1980 date, so
        equal arrays written at different moments hash the same."""
        arrays = {"ids": np.arange(5, dtype=np.int64), "text": np.array(["a", "bc"])}
        first = snap.write_npz(tmp_path / "first.npz", arrays)
        later = time.time() + 400 * 24 * 3600
        monkeypatch.setattr(time, "time", lambda: later)
        second = snap.write_npz(tmp_path / "second.npz", arrays)
        assert second == first
        assert (tmp_path / "first.npz").read_bytes() == (tmp_path / "second.npz").read_bytes()

    def test_base_capture_writes_what_save_engine_writes(self, tmp_path):
        engine = make_engine()
        engine.execute(QUERY)  # Link Index state to write
        engine.insert("PPL", [extra_row(0)])
        saved = save_engine(engine, tmp_path / "saved")
        manager = CheckpointManager(engine, tmp_path / "checkpoint")
        capture = manager._capture("PPL")  # never captured: a base
        assert capture.kind == "base"
        manager._write_capture(capture)
        assert manager.checkpoints_written == 1
        checkpointed = read_manifest(tmp_path / "checkpoint")
        for field in ("format", "engine", "epochs"):
            assert checkpointed[field] == saved[field], field
        entry, saved_entry = checkpointed["tables"]["ppl"], saved["tables"]["ppl"]
        assert entry == saved_entry
        assert entry["state"] == saved_entry["state"]
        assert_same_arrays(
            decoded(tmp_path / "checkpoint", entry), decoded(tmp_path / "saved", saved_entry)
        )

    def test_compacted_base_decodes_to_what_save_engine_writes(self, tmp_path):
        engine = make_engine()
        manager = engine.enable_checkpointing(tmp_path / "checkpoint", delta_threshold=2)
        engine.execute(QUERY)
        install_plan(FaultPlan.parse("dml.before_commit:times=1"))
        with pytest.raises(IngestError):
            engine.insert("PPL", [extra_row(9)])  # rolled back: its tokens stay
        clear_plan()
        for i in range(3):
            engine.insert("PPL", [extra_row(i)])
        assert manager.compactions == 1
        entry = read_manifest(tmp_path / "checkpoint")["tables"]["ppl"]
        assert [s["kind"] for s in entry["segments"]] == ["base"]
        saved_entry = save_engine(engine, tmp_path / "saved")["tables"]["ppl"]
        assert entry == saved_entry
        assert_same_arrays(
            decoded(tmp_path / "checkpoint", entry), decoded(tmp_path / "saved", saved_entry)
        )

    def test_corrupt_delta_fails_compaction_and_keeps_the_prior_manifest(
        self, tmp_path, monkeypatch
    ):
        """A delta whose blocking-key CSR disagrees with its row count is
        refused by compaction, as a load would refuse it: the failure is a
        ``persist`` degradation and the manifest on disk stays the last
        good one, which loads."""
        engine = make_engine()
        manager = engine.enable_checkpointing(tmp_path, delta_threshold=2)
        for i in range(2):
            engine.insert("PPL", [extra_row(i)])
        before = read_manifest(tmp_path)
        pre_insert = engine.execute(QUERY).sorted_rows()
        capture_table = snap.capture_table

        def corrupt(*args, **kwargs):
            capture = capture_table(*args, **kwargs)
            capture.arrays["itbi.indptr"] = capture.arrays["itbi.indptr"][:-1]
            return capture

        monkeypatch.setattr(snap, "capture_table", corrupt)
        engine.insert("PPL", [extra_row(2)])  # third delta: compaction is due
        monkeypatch.undo()
        assert manager.compactions == 0
        assert manager.checkpoint_failures == 1
        assert DEGRADATION.layer_counts().get("persist") == 1
        assert read_manifest(tmp_path) == before
        warm = QueryEREngine.load(tmp_path)
        assert warm.table_epochs()["ppl"] == engine.epoch_of("ppl") - 1
        assert warm.execute(QUERY).sorted_rows() == pre_insert
        engine.insert("PPL", [extra_row(3)])  # the next commit re-captures a base
        entry = read_manifest(tmp_path)["tables"]["ppl"]
        assert [s["kind"] for s in entry["segments"]] == ["base"]
        warm = QueryEREngine.load(tmp_path)
        assert warm.table_epochs() == engine.table_epochs()
        assert warm.execute(QUERY).sorted_rows() == engine.execute(QUERY).sorted_rows()


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
