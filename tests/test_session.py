"""Session-scoped solver context: isolation, sharing, compatibility.

The contract under test (DESIGN.md §10):

* two sessions never leak memo state or statistics into each other;
* one session shared across decide → witness → refute reuses every
  compiled target and memoized count (zero redundant work on repeats,
  strictly less total work than isolated per-stage sessions);
* a call without a session runs under the module-level default
  session.
"""

from __future__ import annotations

import pytest

from repro.core.decision import decide_bag_determinacy
from repro.core.refuter import search_lattice_counterexample
from repro.core.witness import construct_counterexample
from repro.core.workbench import ViewCatalog
from repro.errors import ReproError
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


def _memo_totals(stats) -> tuple:
    return (stats["engine.memo.misses"], stats["engine.exists.misses"],
            stats["engine.targets.compiled"])


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
        busy = first.stats()
        idle = second.stats()
        assert busy["engine.exists.misses"] > 0
        assert idle["engine.exists.misses"] == 0
        assert idle["engine.targets.compiled"] == 0

        # The second session must redo the probes — nothing leaked over.
        decide_bag_determinacy(views, query, session=second)
        redone = second.stats()
        assert redone["engine.exists.misses"] == busy["engine.exists.misses"]
        assert first.stats()["engine.exists.misses"] == busy["engine.exists.misses"]

    def test_session_counts_do_not_touch_default_session(self):
        session = SolverSession()
        before = default_session().stats()["engine.memo.misses"]
        session.count(path_structure(["R", "R"]), clique_structure(4))
        assert default_session().stats()["engine.memo.misses"] == before
        assert session.stats()["engine.memo.misses"] > 0

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
        first = session.stats()
        decide_bag_determinacy(views, query, session=session)
        second = session.stats()
        assert _memo_totals(second) == _memo_totals(first)
        assert second["engine.exists.hits"] > first["engine.exists.hits"]

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
        after_first = session.stats()
        assert after_first["engine.memo.misses"] > 0  # counting happened *here*

        construct_counterexample(result)
        after_second = session.stats()
        assert _memo_totals(after_second) == _memo_totals(after_first)
        assert after_second["engine.memo.hits"] >= after_first["engine.memo.hits"]

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
        shared_stats = shared.stats()
        shared_work = (shared_stats["engine.memo.misses"]
                       + shared_stats["engine.exists.misses"])
        assert shared_stats["engine.memo.hits"] + shared_stats["engine.exists.hits"] > 0

        isolated_work = 0
        decide_session = SolverSession()
        isolated_result = decide_bag_determinacy(views, query,
                                                 session=decide_session)
        witness_session = SolverSession()
        construct_counterexample(isolated_result, session=witness_session)
        refute_session = SolverSession()
        search_lattice_counterexample(views, query, session=refute_session)
        for stage in (decide_session, witness_session, refute_session):
            stage_stats = stage.stats()
            isolated_work += (stage_stats["engine.memo.misses"]
                              + stage_stats["engine.exists.misses"])
        assert shared_work < isolated_work

    def test_view_catalog_shares_session_with_evolved_catalogs(self):
        catalog = ViewCatalog([parse_boolean_cq("R(x,y)")])
        grown = catalog.with_view(parse_boolean_cq("S(x,y)"))
        assert grown.session is catalog.session
        query = parse_boolean_cq("R(x,y), R(u,v)")
        assert catalog.can_answer(query)
        before = catalog.session.stats()["engine.exists.misses"]
        grown.decide(query)
        # the grown catalog's probes against the shared view all hit
        after = grown.session.stats()
        assert after["engine.exists.hits"] > 0
        assert after["engine.exists.misses"] >= before  # only the new view misses


# ----------------------------------------------------------------------
# resolve_session / configuration checks
# ----------------------------------------------------------------------
class TestResolution:
    def test_explicit_session_wins(self):
        session = SolverSession()
        assert resolve_session(session) is session

    def test_none_resolves_to_default(self):
        assert resolve_session() is default_session()

    def test_store_and_store_path_are_mutually_exclusive(self):
        with pytest.raises(ReproError, match="not both"):
            SolverSession(store={}, store_path="somewhere.sqlite")


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
            assert warm.stats()["engine.store.hits"] == 1
            assert "store.counts" in warm.stats()

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
# The module-level default session
# ----------------------------------------------------------------------
class TestDefaultEngineShim:
    """Sessionless calls resolve to the module-level default session."""

    def test_set_default_session_redirects_shim(self):
        scoped = SolverSession()
        previous = set_default_session(scoped)
        try:
            assert default_session() is scoped
        finally:
            set_default_session(previous)
        assert default_session() is not scoped

    def test_sessionless_decide_uses_default_session(self):
        scoped = SolverSession()
        previous = set_default_session(scoped)
        try:
            views, query = _undetermined_instance()
            result = decide_bag_determinacy(views, query)
            assert result.session is scoped
            assert scoped.stats()["engine.exists.misses"] > 0
        finally:
            set_default_session(previous)
