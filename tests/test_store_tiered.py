"""Tests for the tiered sharded hom store (schema v3) and its tooling."""

from __future__ import annotations

import json

import pytest

from repro.batch.cache import SQLiteHomStore, StoreFormatError
from repro.cli import main
from repro.errors import ReproError
from repro.hom.engine import HomEngine
from repro.batch.store import (
    DEFAULT_SHARDS,
    MemoryTier,
    TieredHomStore,
    copy_rows,
    export_warm_pack,
    import_warm_pack,
    open_store,
    shard_of,
)
from repro.session import SolverSession
from repro.structures.canonical import canonical_key
from repro.structures.generators import clique_structure, path_structure


SRC = path_structure(["R", "R"])
TGT = clique_structure(4)


def _sources(count: int):
    """Distinct sources: single-relation paths of growing length."""
    return [path_structure(["R"] * (length + 1)) for length in range(count)]


# ----------------------------------------------------------------------
# Memory tier
# ----------------------------------------------------------------------
class TestMemoryTier:
    def test_capacity_evicts_least_recently_used(self):
        tier = MemoryTier(capacity=2)
        tier.put("a", "1")
        tier.put("b", "2")
        tier.put("c", "3")  # evicts "a" — oldest, never touched
        assert tier.get("a") is None
        assert tier.get("b") == "2"
        assert tier.get("c") == "3"
        assert tier.evictions == 1

    def test_get_refreshes_recency(self):
        tier = MemoryTier(capacity=2)
        tier.put("a", "1")
        tier.put("b", "2")
        assert tier.get("a") == "1"  # "a" is now the most recent
        tier.put("c", "3")           # so "b" is the one evicted
        assert tier.get("b") is None
        assert tier.get("a") == "1"

    def test_put_refreshes_recency_and_overwrites(self):
        tier = MemoryTier(capacity=2)
        tier.put("a", "1")
        tier.put("b", "2")
        tier.put("a", "9")
        tier.put("c", "3")
        assert tier.get("a") == "9"
        assert tier.get("b") is None

    def test_counters(self):
        tier = MemoryTier(capacity=4)
        assert tier.get("missing") is None
        tier.put("k", "v")
        assert tier.get("k") == "v"
        assert (tier.hits, tier.misses) == (1, 1)
        assert len(tier) == 1


# ----------------------------------------------------------------------
# Tiered store basics
# ----------------------------------------------------------------------
class TestTieredStore:
    def test_round_trip_and_iso_sharing(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store"), shards=4) as store:
            store.record(SRC, TGT, 144)
            store.flush()
            assert store.lookup(SRC, TGT) == 144
            # isomorphic source hits the same canonical row
            renamed = SRC.rename({c: f"z{c}" for c in SRC.domain()})
            assert store.lookup(renamed, TGT) == 144

    def test_exists_round_trip(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store"), shards=2) as store:
            store.record_exists(SRC, TGT, True)
            store.flush()
            assert store.lookup_exists(SRC, TGT) is True

    def test_second_lookup_served_by_memory_tier(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store"), shards=2) as store:
            store.record(SRC, TGT, 7)
            store.flush()
            assert store.lookup(SRC, TGT) == 7  # shard hit, tier fill
            before = store.tier.hits
            assert store.lookup(SRC, TGT) == 7  # tier hit, zero I/O
            assert store.tier.hits == before + 1

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store")
        with TieredHomStore(path, shards=4) as store:
            for index, source in enumerate(_sources(12)):
                store.record(source, TGT, index)
        with TieredHomStore(path) as reopened:  # shard count from meta
            assert reopened.shards == 4
            for index, source in enumerate(_sources(12)):
                assert reopened.lookup(source, TGT) == index

    def test_rows_spread_across_shard_files(self, tmp_path):
        path = tmp_path / "store"
        with TieredHomStore(str(path), shards=4) as store:
            for index, source in enumerate(_sources(32)):
                store.record(source, TGT, index)
        populated = {shard_of(canonical_key(s), 4) for s in _sources(32)}
        assert len(populated) > 1  # crc32 actually partitions
        files = sorted(p.name for p in path.glob("shard-*.sqlite"))
        assert files == [f"shard-{i:03d}.sqlite" for i in sorted(populated)]

    def test_shard_of_is_deterministic_and_in_range(self):
        for source in _sources(16):
            key = canonical_key(source)
            index = shard_of(key, 8)
            assert 0 <= index < 8
            assert index == shard_of(key, 8)
        assert shard_of(canonical_key(SRC), 1) == 0

    def test_ensure_shards_materializes_every_file(self, tmp_path):
        path = tmp_path / "store"
        with TieredHomStore(str(path), shards=4) as store:
            assert not list(path.glob("shard-*.sqlite"))  # lazy by default
            store.ensure_shards()
            assert len(list(path.glob("shard-*.sqlite"))) == 4

    def test_reopen_with_contradicting_shards_refused(self, tmp_path):
        path = str(tmp_path / "store")
        TieredHomStore(path, shards=4).close()
        with pytest.raises(ReproError, match="cache merge"):
            TieredHomStore(path, shards=8)

    def test_stats_shape(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store"), shards=2) as store:
            stats = store.stats()
        assert set(stats) == {
            "counts", "exists", "lookups", "lookup_hits", "inserts",
            "corruptions", "retries", "tier_hits", "tier_misses",
            "tier_evictions", "tier_entries", "flush_batches",
            "flush_rows", "shard_opens", "shards",
        }

    def test_flush_batches_one_transaction_per_dirty_shard(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store"), shards=4) as store:
            sources = _sources(24)
            for index, source in enumerate(sources):
                store.record(source, TGT, index)
            assert store.flush_batches == 0  # still queued
            store.flush()
            dirty = {shard_of(canonical_key(s), 4) for s in sources}
            assert store.flush_batches == len(dirty)
            assert store.flush_rows == len(sources)

    def test_clear_wipes_every_shard(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store"), shards=4) as store:
            for index, source in enumerate(_sources(12)):
                store.record(source, TGT, index)
            store.flush()
            assert store.clear() == 12
            assert len(store) == 0
            assert store.lookup(SRC, TGT) is None


# ----------------------------------------------------------------------
# open_store routing
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_plain_path_stays_single_file(self, tmp_path):
        with open_store(str(tmp_path / "cache.sqlite")) as store:
            assert isinstance(store, SQLiteHomStore)

    def test_knobs_opt_into_tiered(self, tmp_path):
        with open_store(str(tmp_path / "a"), shards=2) as store:
            assert isinstance(store, TieredHomStore)
            assert store.shards == 2
        with open_store(str(tmp_path / "b"), memory_tier=64) as store:
            assert isinstance(store, TieredHomStore)
            assert store.shards == DEFAULT_SHARDS
            assert store.tier.capacity == 64

    def test_directory_is_tiered(self, tmp_path):
        path = str(tmp_path / "store")
        TieredHomStore(path, shards=2).close()
        with open_store(path) as store:
            assert isinstance(store, TieredHomStore)
            assert store.shards == 2


# ----------------------------------------------------------------------
# v2 -> v3 migration
# ----------------------------------------------------------------------
class TestMigration:
    def test_v2_file_migrates_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        with SQLiteHomStore(path) as legacy:
            for index, source in enumerate(_sources(10)):
                legacy.record(source, TGT, index)
            legacy.record_exists(SRC, TGT, True)
        with open_store(path, shards=4) as migrated:
            assert isinstance(migrated, TieredHomStore)
            for index, source in enumerate(_sources(10)):
                assert migrated.lookup(source, TGT) == index
            assert migrated.lookup_exists(SRC, TGT) is True
            assert migrated.counts_len() == 10
            assert migrated.exists_len() == 1
        assert (tmp_path / "cache.sqlite").is_dir()
        assert (tmp_path / "cache.sqlite.v2-backup").is_file()

    def test_future_version_refused_not_migrated(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "cache.sqlite")
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA user_version=99")
        connection.commit()
        connection.close()
        with pytest.raises(StoreFormatError):
            TieredHomStore(path, shards=2)


# ----------------------------------------------------------------------
# Per-shard self-healing
# ----------------------------------------------------------------------
class TestShardQuarantine:
    def test_one_corrupt_shard_leaves_siblings_serving(self, tmp_path):
        path = tmp_path / "store"
        sources = _sources(24)
        with TieredHomStore(str(path), shards=4) as store:
            for index, source in enumerate(sources):
                store.record(source, TGT, index)

        victim = shard_of(canonical_key(sources[0]), 4)
        victim_file = path / f"shard-{victim:03d}.sqlite"
        victim_file.write_bytes(b"definitely not a database" * 64)

        with TieredHomStore(str(path)) as store:
            for index, source in enumerate(sources):
                expected = (None if shard_of(canonical_key(source), 4)
                            == victim else index)
                assert store.lookup(source, TGT) == expected
            assert store.corruptions == 1  # only the victim healed
            assert len(list(path.glob(f"shard-{victim:03d}.sqlite"
                                      f".corrupt-*"))) == 1
            # the healed shard accepts fresh writes again
            store.record(sources[0], TGT, 0)
            store.flush()
            store.tier.clear()
            assert store.lookup(sources[0], TGT) == 0


# ----------------------------------------------------------------------
# Preload: recency and limit
# ----------------------------------------------------------------------
class TestPreload:
    def test_preload_seeds_engine(self, tmp_path):
        path = str(tmp_path / "store")
        with TieredHomStore(path, shards=2) as store:
            engine = HomEngine(store=store)
            expected = engine.count(SRC, TGT)
        with TieredHomStore(path) as store:
            warmed = HomEngine()
            assert store.preload(warmed) > 0
            before = warmed.misses
            assert warmed.count(SRC, TGT) == expected
            assert warmed.misses == before

    def test_preload_limit_keeps_most_recent_rows(self, tmp_path):
        path = str(tmp_path / "store")
        sources = _sources(10)
        with TieredHomStore(path, shards=1) as store:
            # deliberately wrong sentinel counts: a memo hit is then
            # distinguishable from a recomputation (paths into K4 have
            # counts 4*3^n, never a small index)
            for index, source in enumerate(sources):
                store.record(source, TGT, index)
        with TieredHomStore(path) as store:
            engine = HomEngine()
            assert store.preload(engine, limit=3) == 3
            # with one shard, rowid order is global recency order:
            # exactly the last three recorded rows are seeded
            for index, source in enumerate(sources):
                served = engine.count(source, TGT)
                if index >= len(sources) - 3:
                    assert served == index  # sentinel: memo hit
                else:
                    assert served >= 12     # recomputed for real


# ----------------------------------------------------------------------
# Session metrics over a store
# ----------------------------------------------------------------------
class TestStoreMetrics:
    @pytest.mark.parametrize("layout", ["single-file", "sharded"])
    def test_counters_snapshot_runs_no_sql(self, tmp_path, layout):
        # Row counts are gauges: the counters slice a batch worker
        # reports after every chunk must not scan the store for them.
        if layout == "single-file":
            path, knobs = str(tmp_path / "cache.sqlite"), {}
        else:
            path, knobs = str(tmp_path / "store"), {"shards": 2}
        statements = []
        with SolverSession(store_path=path, **knobs) as session:
            for source in _sources(6):
                session.count(source, TGT)
            session.flush()
            store = session.store
            store.stats()  # opens every shard file there is
            connections = ([store._connection] if layout == "single-file"
                           else list(store._connections.values()))
            for connection in connections:
                connection.set_trace_callback(statements.append)
            counters = session.metrics.counters_snapshot()
            assert statements == []
            assert counters["store.inserts"] == 6
            assert "store.counts" not in counters
            assert session.metrics.snapshot()["store.counts"] == 6
            assert statements


# ----------------------------------------------------------------------
# Tooling: merge / compact / warm packs (library + CLI)
# ----------------------------------------------------------------------
class TestTooling:
    def test_copy_rows_between_layouts(self, tmp_path):
        single = str(tmp_path / "cache.sqlite")
        sharded = str(tmp_path / "store")
        with SQLiteHomStore(single) as source:
            for index, src in enumerate(_sources(8)):
                source.record(src, TGT, index)
        with SQLiteHomStore(single) as source, \
                TieredHomStore(sharded, shards=4) as destination:
            assert copy_rows(source, destination) == 8
            for index, src in enumerate(_sources(8)):
                assert destination.lookup(src, TGT) == index

    def test_warm_pack_round_trip(self, tmp_path):
        pack = str(tmp_path / "pack.jsonl")
        with TieredHomStore(str(tmp_path / "a"), shards=2) as store:
            for index, src in enumerate(_sources(6)):
                store.record(src, TGT, index)
            store.record_exists(SRC, TGT, True)
            assert export_warm_pack(store, pack) == 7
        with open(pack, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header == {"format": "repro-warm-pack", "version": 1}
        with TieredHomStore(str(tmp_path / "b"), shards=4) as cold:
            assert import_warm_pack(cold, pack) == 7
            for index, src in enumerate(_sources(6)):
                assert cold.lookup(src, TGT) == index
            assert cold.lookup_exists(SRC, TGT) is True

    def test_warm_pack_limit_is_newest_first(self, tmp_path):
        pack = str(tmp_path / "pack.jsonl")
        sources = _sources(6)
        with TieredHomStore(str(tmp_path / "a"), shards=1) as store:
            for index, src in enumerate(sources):
                store.record(src, TGT, index)
            assert export_warm_pack(store, pack, limit=2) == 2
        with TieredHomStore(str(tmp_path / "b"), shards=1) as cold:
            import_warm_pack(cold, pack)
            assert cold.lookup(sources[-1], TGT) == 5
            assert cold.lookup(sources[-2], TGT) == 4
            assert cold.lookup(sources[0], TGT) is None

    def test_import_refuses_foreign_file(self, tmp_path):
        alien = tmp_path / "not-a-pack.jsonl"
        alien.write_text('{"something": "else"}\n')
        with TieredHomStore(str(tmp_path / "a"), shards=1) as store:
            with pytest.raises(ReproError, match="warm pack"):
                import_warm_pack(store, str(alien))

    def test_cli_merge_compact_warm_pack(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.jsonl"
        out = tmp_path / "out.jsonl"
        cache_a = tmp_path / "a.sqlite"
        cache_b = tmp_path / "b.sqlite"
        merged = tmp_path / "merged"
        pack = tmp_path / "pack.jsonl"

        assert main(["batch", "gen", "--kind", "mixed", "--count", "16",
                     "--seed", "5", "--output", str(scenario)]) == 0
        for cache in (cache_a, cache_b):
            assert main(["batch", "run", "--input", str(scenario),
                         "--output", str(out), "--workers", "1",
                         "--cache", str(cache)]) == 0

        assert main(["cache", "merge", "--into", str(merged),
                     "--shards", "4", str(cache_a), str(cache_b)]) == 0
        assert "rows merged" in capsys.readouterr().out
        assert merged.is_dir()

        assert main(["cache", "compact", "--cache", str(merged)]) == 0
        assert "compacted" in capsys.readouterr().out

        assert main(["cache", "warm-pack", "--cache", str(merged),
                     "--output", str(pack), "--limit", "64"]) == 0
        assert "packed" in capsys.readouterr().out

        with open_store(str(cache_a)) as source:
            source_counts = source.counts_len()
        with open_store(str(merged)) as store:
            info = store.info()
            assert info["schema_version"] == 3
            assert info["shards"] == 4
            assert info["counts"] == source_counts  # identical runs dedup
            assert len(info["shard_files"]) == 4

    def test_cli_cache_info_json(self, tmp_path, capsys):
        path = str(tmp_path / "store")
        with TieredHomStore(path, shards=2) as store:
            store.record(SRC, TGT, 3)
        assert main(["cache", "info", "--cache", path, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["shards"] == 2
        assert info["counts"] == 1
        assert info["memory_tier"]["capacity"] > 0
        assert [s["index"] for s in info["shard_files"]] == [0, 1]


# ----------------------------------------------------------------------
# Multi-process parity
# ----------------------------------------------------------------------
class TestWorkerParity:
    def test_bytes_identical_across_workers_and_shards(self, tmp_path):
        scenario = tmp_path / "scenario.jsonl"
        assert main(["batch", "gen", "--kind", "mixed", "--count", "24",
                     "--seed", "11", "--output", str(scenario)]) == 0

        outputs = []
        for label, extra in [
            ("plain", []),
            ("w1-s2", ["--workers", "1", "--cache",
                       str(tmp_path / "c1"), "--shards", "2"]),
            ("w3-s2", ["--workers", "3", "--chunk-size", "4", "--cache",
                       str(tmp_path / "c1"), "--shards", "2"]),
            ("w3-s5", ["--workers", "3", "--chunk-size", "4", "--cache",
                       str(tmp_path / "c2"), "--shards", "5",
                       "--memory-tier", "128"]),
        ]:
            out = tmp_path / f"out-{label}.jsonl"
            assert main(["batch", "run", "--input", str(scenario),
                         "--output", str(out)] + extra) == 0
            outputs.append(out.read_bytes())
        assert all(blob == outputs[0] for blob in outputs[1:])
