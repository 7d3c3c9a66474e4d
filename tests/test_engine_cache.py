"""HomEngine cache behaviour: LRU eviction and persistent-store hooks.

The eviction paths were previously untested; they matter because batch
workloads run engines for hours and the bounds are what keeps memory
flat.  Observability is through ``stats()`` and the hit/miss counters —
the tests never reach into the OrderedDicts directly.
"""

from __future__ import annotations

from repro.hom.engine import HomEngine
from repro.hom.search import count_homomorphisms_direct
from repro.structures.generators import (
    clique_structure,
    cycle_structure,
    path_structure,
)

PATHS = [path_structure(["R"] * n) for n in (1, 2, 3)]
TARGET = clique_structure(4)


class TestCountLRU:
    def test_memo_is_bounded(self):
        engine = HomEngine(max_counts=2)
        for source in PATHS:
            engine.count_connected_leaf(source, TARGET)
        assert engine.stats()["engine.memo.entries"] == 2
        assert engine.misses == 3
        assert engine.hits == 0

    def test_least_recently_used_is_evicted(self):
        engine = HomEngine(max_counts=2)
        first, second, third = PATHS
        engine.count_connected_leaf(first, TARGET)
        engine.count_connected_leaf(second, TARGET)
        engine.count_connected_leaf(first, TARGET)   # refresh first
        assert engine.hits == 1
        engine.count_connected_leaf(third, TARGET)   # evicts second
        engine.count_connected_leaf(first, TARGET)   # still cached
        assert engine.hits == 2
        engine.count_connected_leaf(second, TARGET)  # must recompute
        assert engine.misses == 4

    def test_eviction_does_not_change_counts(self):
        engine = HomEngine(max_counts=1)
        for _ in range(2):
            for source in PATHS:
                assert engine.count_connected_leaf(source, TARGET) == \
                    count_homomorphisms_direct(source, TARGET)

    def test_isomorphic_components_share_one_entry(self):
        engine = HomEngine(max_counts=8)
        base = cycle_structure(3)
        renamed = base.rename({c: ("copy", c) for c in base.domain()})
        engine.count_connected_leaf(base, TARGET)
        engine.count_connected_leaf(renamed, TARGET)
        assert engine.hits == 1
        assert engine.stats()["engine.memo.entries"] == 1


class TestTargetLRU:
    def test_compiled_targets_are_bounded(self):
        engine = HomEngine(max_targets=2)
        for size in (3, 4, 5):
            engine.target_index(clique_structure(size))
        assert engine.stats()["engine.targets.compiled"] == 2

    def test_recently_used_target_survives(self):
        engine = HomEngine(max_targets=2)
        small = clique_structure(3)
        first_index = engine.target_index(small)
        engine.target_index(clique_structure(4))
        engine.target_index(small)                   # refresh
        engine.target_index(clique_structure(5))     # evicts clique(4)
        assert engine.target_index(small) is first_index


class TestExistsLRU:
    def test_exists_cache_is_bounded_by_max_counts(self):
        engine = HomEngine(max_counts=2)
        for source in PATHS:
            engine.exists(source, TARGET)
        # Third insert evicted the first; nothing blows up and verdicts
        # stay correct after recomputation.
        assert engine.exists(PATHS[0], TARGET) is True


class TestCanonicalKeys:
    def test_memo_stays_bounded_across_many_classes(self):
        engine = HomEngine(max_counts=3)
        for n in range(3, 9):
            engine.count_connected_leaf(cycle_structure(n), TARGET)
        # Distinct iso classes churn through the bounded memo; no
        # per-engine representative table grows with them, and the
        # shared canonical layer reports its work through stats().
        assert engine.stats()["engine.memo.entries"] <= 3
        assert engine.stats()["canonical.keys"] >= 6

    def test_seed_count_key_matches_computed_key(self):
        from repro.structures.canonical import canonical_key

        base = cycle_structure(3)
        renamed = base.rename({c: ("warm", c) for c in base.domain()})
        truth = count_homomorphisms_direct(base, TARGET)
        engine = HomEngine()
        engine.seed_count_key(canonical_key(base), TARGET, truth)
        # A rename of the seeded component is a pure memo hit.
        assert engine.count_connected_leaf(renamed, TARGET) == truth
        assert engine.hits == 1 and engine.misses == 0


class DictStore:
    """Minimal in-memory implementation of the engine store protocol."""

    def __init__(self):
        self.counts = {}
        self.exists = {}
        self.flushes = 0

    def lookup(self, component, leaf):
        return self.counts.get((component, leaf))

    def record(self, component, leaf, value):
        self.counts[(component, leaf)] = value

    def lookup_exists(self, source, target):
        return self.exists.get((source, target))

    def record_exists(self, source, target, value):
        self.exists[(source, target)] = value

    def flush(self):
        self.flushes += 1


class TestStoreHooks:
    def test_counts_flow_through_store(self):
        store = DictStore()
        first = HomEngine(store=store)
        truth = first.count_connected_leaf(PATHS[2], TARGET)
        assert first.store_misses == 1
        assert store.counts  # persisted

        second = HomEngine(store=store)
        assert second.count_connected_leaf(PATHS[2], TARGET) == truth
        assert second.store_hits == 1
        assert second.stats()["engine.store.hits"] == 1

    def test_exists_flows_through_store(self):
        store = DictStore()
        first = HomEngine(store=store)
        verdict = first.exists(PATHS[0], TARGET)
        second = HomEngine(store=store)
        assert second.exists(PATHS[0], TARGET) is verdict
        assert second.store_hits == 1

    def test_memo_hit_skips_store(self):
        store = DictStore()
        engine = HomEngine(store=store)
        engine.count_connected_leaf(PATHS[1], TARGET)
        engine.count_connected_leaf(PATHS[1], TARGET)
        assert engine.store_misses == 1  # only the cold call consulted it

    def test_attach_detach_and_flush(self):
        store = DictStore()
        engine = HomEngine()
        engine.flush_store()  # no store: a no-op
        engine.attach_store(store)
        engine.count_connected_leaf(PATHS[0], TARGET)
        engine.flush_store()
        assert store.flushes == 1
        engine.detach_store()
        assert engine.store is None

    def test_clear_keeps_store_contents(self):
        store = DictStore()
        engine = HomEngine(store=store)
        engine.count_connected_leaf(PATHS[0], TARGET)
        engine.clear()
        assert store.counts
        assert engine.store is store
        assert engine.store_hits == 0

    def test_seed_count_prepopulates_memo(self):
        engine = HomEngine()
        truth = count_homomorphisms_direct(PATHS[1], TARGET)
        engine.seed_count(PATHS[1], TARGET, truth)
        assert engine.count_connected_leaf(PATHS[1], TARGET) == truth
        assert engine.hits == 1
        assert engine.misses == 0
