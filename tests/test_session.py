"""Session-scoped solver context: isolation, sharing, compatibility.

The contract under test (DESIGN.md §10):

* two sessions never leak memo state or statistics into each other;
* one session shared across decide → witness → refute reuses every
  compiled target and memoized count (zero redundant work on repeats,
  strictly less total work than isolated per-stage sessions);
* the legacy ``default_engine()`` singleton is a faithful shim over
  the module-level default session.
"""

from __future__ import annotations

import pytest

from repro.core.decision import decide_bag_determinacy
from repro.core.refuter import search_lattice_counterexample
from repro.core.witness import construct_counterexample
from repro.core.workbench import ViewCatalog
from repro.errors import ReproError
from repro.hom.engine import HomEngine, default_engine
from repro.queries.parser import parse_boolean_cq
from repro.session import (
    SolverSession,
    default_session,
    resolve_session,
    set_default_session,
)
from repro.structures.generators import clique_structure, path_structure


def _undetermined_instance():
    """An instance where the views do NOT determine the query."""
    view = parse_boolean_cq("R(x,y), R(y,z)")
    query = parse_boolean_cq("R(x,y)")
    return [view], query


def _memo_totals(engine_stats) -> tuple:
    return (engine_stats["misses"], engine_stats["exists_misses"],
            engine_stats["compiled_targets"])


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------
class TestIsolation:
    def test_two_sessions_do_not_share_memo_or_stats(self):
        views, query = _undetermined_instance()
        first = SolverSession()
        second = SolverSession()
        assert first.engine is not second.engine

        decide_bag_determinacy(views, query, session=first)
        busy = first.stats()["engine"]
        idle = second.stats()["engine"]
        assert busy["exists_misses"] > 0
        assert idle["exists_misses"] == 0
        assert idle["compiled_targets"] == 0

        # The second session must redo the probes — nothing leaked over.
        decide_bag_determinacy(views, query, session=second)
        redone = second.stats()["engine"]
        assert redone["exists_misses"] == busy["exists_misses"]
        assert first.stats()["engine"]["exists_misses"] == busy["exists_misses"]

    def test_session_counts_do_not_touch_default_session(self):
        session = SolverSession()
        before = default_session().stats()["engine"]["misses"]
        session.count(path_structure(["R", "R"]), clique_structure(4))
        assert default_session().stats()["engine"]["misses"] == before
        assert session.stats()["engine"]["misses"] > 0

    def test_task_accounting_is_per_session(self):
        first = SolverSession()
        second = SolverSession()
        first.record_task(ok=True)
        first.record_task(ok=False)
        assert first.tasks_evaluated == 2 and first.task_errors == 1
        assert second.tasks_evaluated == 0 and second.task_errors == 0


# ----------------------------------------------------------------------
# Sharing across the pipeline
# ----------------------------------------------------------------------
class TestSharing:
    def test_result_carries_its_session(self):
        views, query = _undetermined_instance()
        session = SolverSession()
        result = decide_bag_determinacy(views, query, session=session)
        assert result.session is session

    def test_repeat_decision_is_pure_memo_hits(self):
        """The warm-request-stream property: answering the same request
        twice compiles nothing new and misses nothing."""
        views, query = _undetermined_instance()
        session = SolverSession()
        decide_bag_determinacy(views, query, session=session)
        first = session.stats()["engine"]
        decide_bag_determinacy(views, query, session=session)
        second = session.stats()["engine"]
        assert _memo_totals(second) == _memo_totals(first)
        assert second["exists_hits"] > first["exists_hits"]

    def test_witness_reuses_deciding_session(self):
        """decide → witness over one session: the witness construction
        runs on the very engine that decided (no private back-channel),
        and a second construction adds zero new compilation."""
        views, query = _undetermined_instance()
        session = SolverSession()
        result = decide_bag_determinacy(views, query, session=session)
        assert not result.determined

        pair = construct_counterexample(result)
        assert pair.verify(session.engine).ok
        after_first = session.stats()["engine"]
        assert after_first["misses"] > 0  # counting happened *here*

        construct_counterexample(result)
        after_second = session.stats()["engine"]
        assert _memo_totals(after_second) == _memo_totals(after_first)
        assert after_second["hits"] >= after_first["hits"]

    def test_shared_pipeline_beats_isolated_sessions(self):
        """decide → witness → refute sharing one session performs
        strictly less counting work than per-stage sessions — the
        cross-stage reuse the session refactor exists to deliver."""
        views, query = _undetermined_instance()

        shared = SolverSession()
        result = decide_bag_determinacy(views, query, session=shared)
        construct_counterexample(result)
        assert search_lattice_counterexample(views, query,
                                             session=shared) is not None
        shared_stats = shared.stats()["engine"]
        shared_work = (shared_stats["misses"]
                       + shared_stats["exists_misses"])
        assert shared_stats["hits"] + shared_stats["exists_hits"] > 0

        isolated_work = 0
        decide_session = SolverSession()
        isolated_result = decide_bag_determinacy(views, query,
                                                 session=decide_session)
        witness_session = SolverSession()
        construct_counterexample(isolated_result, session=witness_session)
        refute_session = SolverSession()
        search_lattice_counterexample(views, query, session=refute_session)
        for stage in (decide_session, witness_session, refute_session):
            stage_stats = stage.stats()["engine"]
            isolated_work += (stage_stats["misses"]
                              + stage_stats["exists_misses"])
        assert shared_work < isolated_work

    def test_view_catalog_shares_session_with_evolved_catalogs(self):
        catalog = ViewCatalog([parse_boolean_cq("R(x,y)")])
        grown = catalog.with_view(parse_boolean_cq("S(x,y)"))
        assert grown.session is catalog.session
        query = parse_boolean_cq("R(x,y), R(u,v)")
        assert catalog.can_answer(query)
        before = catalog.session.stats()["engine"]["exists_misses"]
        grown.decide(query)
        # the grown catalog's probes against the shared view all hit
        after = grown.session.stats()["engine"]
        assert after["exists_hits"] > 0
        assert after["exists_misses"] >= before  # only the new view misses


# ----------------------------------------------------------------------
# resolve_session / adoption semantics
# ----------------------------------------------------------------------
class TestResolution:
    def test_explicit_session_wins(self):
        session = SolverSession()
        assert resolve_session(session) is session

    def test_bare_engine_is_adopted(self):
        engine = HomEngine()
        session = resolve_session(None, engine)
        assert session.engine is engine

    def test_matching_session_and_engine_accepted(self):
        session = SolverSession()
        assert resolve_session(session, session.engine) is session

    def test_conflicting_session_and_engine_rejected(self):
        with pytest.raises(ReproError, match="disagree"):
            resolve_session(SolverSession(), HomEngine())

    def test_none_resolves_to_default(self):
        assert resolve_session() is default_session()

    def test_adopted_engine_refuses_reconfiguration(self):
        engine = HomEngine()
        with pytest.raises(ReproError, match="adopt"):
            SolverSession(engine=engine, strategy="dp")

    def test_store_and_store_path_are_mutually_exclusive(self):
        with pytest.raises(ReproError, match="not both"):
            SolverSession(store={}, store_path="somewhere.sqlite")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError, match="strategy"):
            SolverSession(strategy="quantum")


# ----------------------------------------------------------------------
# Persistence ownership
# ----------------------------------------------------------------------
class TestStoreOwnership:
    def test_store_path_round_trip(self, tmp_path):
        path = str(tmp_path / "session.sqlite")
        source = path_structure(["R", "R"])
        target = clique_structure(4)
        with SolverSession(store_path=path) as session:
            expected = session.count(source, target)

        with SolverSession(store_path=path) as warm:
            assert warm.count(source, target) == expected
            assert warm.stats()["engine"]["store_hits"] == 1
            assert "store" in warm.stats()

    def test_close_is_idempotent(self, tmp_path):
        session = SolverSession(store_path=str(tmp_path / "s.sqlite"))
        session.count(path_structure(["R"]), clique_structure(3))
        session.close()
        session.close()

    def test_borrowed_store_not_closed(self, tmp_path):
        from repro.batch.store import TieredHomStore

        store = TieredHomStore(str(tmp_path / "shared"))
        session = SolverSession(store=store)
        session.count(path_structure(["R"]), clique_structure(3))
        session.close()
        # The borrowed store must still be usable by its owner.
        assert store.counts_len() >= 1
        store.close()


# ----------------------------------------------------------------------
# The default_engine() shim
# ----------------------------------------------------------------------
class TestDefaultEngineShim:
    def test_shim_is_the_default_sessions_engine(self):
        assert default_engine() is default_session().engine

    def test_shim_is_stable_across_calls(self):
        assert default_engine() is default_engine()

    def test_set_default_session_redirects_shim(self):
        scoped = SolverSession()
        previous = set_default_session(scoped)
        try:
            assert default_engine() is scoped.engine
            assert default_session() is scoped
        finally:
            set_default_session(previous)
        assert default_engine() is not scoped.engine

    def test_sessionless_decide_uses_default_session(self):
        scoped = SolverSession()
        previous = set_default_session(scoped)
        try:
            views, query = _undetermined_instance()
            result = decide_bag_determinacy(views, query)
            assert result.session is scoped
            assert scoped.stats()["engine"]["exists_misses"] > 0
        finally:
            set_default_session(previous)

    def test_legacy_engine_argument_still_works(self):
        views, query = _undetermined_instance()
        engine = HomEngine()
        result = decide_bag_determinacy(views, query, engine=engine)
        assert result.session.engine is engine
        assert engine.exists_misses > 0
