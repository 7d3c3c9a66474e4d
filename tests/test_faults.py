"""Tests for the fault-tolerance layer (PR 8).

Budgets tripping every counting kernel, DP→backtracking degradation,
worker-crash quarantine determinism, store self-healing, client
backoff, torn-tail recovery, and the property that a fault-free
fault plan changes nothing.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sqlite3
import time

import pytest

from repro.batch import runner
from repro.batch.runner import (
    _truncate_torn_tail,
    iter_results,
    run_batch,
    task_identity,
)
from repro.batch.scenarios import generate_scenario, write_scenario
from repro.batch.store import StoreFormatError, TieredHomStore
from repro.batch.tasks import canonical_json, make_hom_count_task
from repro.errors import ReproError
from repro.faults import (
    Budget,
    BudgetExceeded,
    FaultPlan,
    budget_stats,
    clear_fault_plan,
    install_fault_plan,
    should_inject,
    use_budget,
)
from repro.hom.engine import HomEngine
from repro.service.client import DaemonClient, backoff_delay
from repro.session import SolverSession
from repro.structures.generators import clique_structure, cycle_structure
from repro.structures.structure import Structure


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends without a process-global fault plan."""
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(autouse=True)
def _no_worker_outlives_its_batch():
    yield
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Budget object
# ----------------------------------------------------------------------
class TestBudget:
    def test_requires_a_bound(self):
        with pytest.raises(ReproError):
            Budget()

    def test_steps_trip(self):
        budget = Budget(max_steps=10)
        with pytest.raises(BudgetExceeded) as info:
            budget.charge(16)
        assert info.value.reason == "steps"
        assert info.value.steps == 16

    def test_deadline_trip(self):
        budget = Budget(deadline_ms=1.0)
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded) as info:
            budget.charge()
        assert info.value.reason == "deadline"

    def test_record_shape(self):
        budget = Budget(max_steps=4)
        with pytest.raises(BudgetExceeded) as info:
            budget.charge(8)
        record = info.value.to_record()
        assert record["reason"] == "steps"
        assert record["max_steps"] == 4
        # The record is deterministic: no wall-clock fields.
        assert "elapsed_ms" not in record

    def test_use_budget_nests_and_restores(self):
        from repro.faults import active_budget

        outer = Budget(max_steps=100)
        inner = Budget(max_steps=5)
        assert active_budget() is None
        with use_budget(outer):
            assert active_budget() is outer
            with use_budget(inner):
                assert active_budget() is inner
            assert active_budget() is outer
        assert active_budget() is None


# ----------------------------------------------------------------------
# Kernel coverage: all four counting kernels respect the budget
# ----------------------------------------------------------------------
class TestKernelBudgets:
    # Big enough that backtracking visits >1024 nodes (first stride
    # checkpoint) and the DP streams a few hundred table entries.
    SOURCE = cycle_structure(6, relation="E")
    TARGET = clique_structure(8, relation="E")

    def _trip(self, strategy, monkeypatch, force_sets=False):
        if force_sets:
            monkeypatch.setattr("repro.hom.engine._BITSET_MAX_DOMAIN", 0)
        engine = HomEngine(strategy=strategy)
        with use_budget(Budget(max_steps=100)):
            with pytest.raises(BudgetExceeded) as info:
                engine.count(self.SOURCE, self.TARGET)
        assert info.value.reason == "steps"

    def test_bitset_backtracking_trips(self, monkeypatch):
        self._trip("backtrack", monkeypatch)

    def test_set_backtracking_trips(self, monkeypatch):
        self._trip("backtrack", monkeypatch, force_sets=True)

    def test_packed_dp_trips(self, monkeypatch):
        self._trip("dp", monkeypatch)

    def test_set_dp_trips(self, monkeypatch):
        self._trip("dp", monkeypatch, force_sets=True)

    def test_kernels_agree_without_budget(self, monkeypatch):
        expected = HomEngine(strategy="backtrack").count(
            self.SOURCE, self.TARGET)
        assert HomEngine(strategy="dp").count(
            self.SOURCE, self.TARGET) == expected
        monkeypatch.setattr("repro.hom.engine._BITSET_MAX_DOMAIN", 0)
        assert HomEngine(strategy="backtrack").count(
            self.SOURCE, self.TARGET) == expected
        assert HomEngine(strategy="dp").count(
            self.SOURCE, self.TARGET) == expected

    def test_canonicalization_respects_deadline(self):
        # The deadline must reach the labeling search, not just the
        # kernels.  Pruning visits a clique in a few dozen nodes, so the
        # search checks the budget on its first node as well.
        from repro.structures.canonical import canonical_key

        source = clique_structure(8, relation="E")
        budget = Budget(deadline_ms=5.0)
        time.sleep(0.01)
        with use_budget(budget):
            with pytest.raises(BudgetExceeded):
                canonical_key(source)
        # Nothing partial was memoized: the key computes fine later.
        assert canonical_key(source)

    def test_canonicalization_trips_mid_search(self):
        # A random 3-regular graph on 70 vertices: 1-WL leaves it one
        # color class and it has no automorphisms to prune by, so the
        # search visits the root and one leaf per vertex (71 nodes).
        # A one-step budget passes the entry check; only the check
        # every 64 nodes can trip it.
        from repro.structures.canonical import canonical_key

        rng = random.Random(7)
        while True:  # pairing model, redrawn until the graph is simple
            points = [v for v in range(70) for _ in range(3)]
            rng.shuffle(points)
            edges = {tuple(sorted(points[i:i + 2]))
                     for i in range(0, len(points), 2)}
            if len(edges) == 105 and all(a != b for a, b in edges):
                break
        graph = Structure([("Cubic", (a, b)) for a, b in edges]
                          + [("Cubic", (b, a)) for a, b in edges])
        with use_budget(Budget(max_steps=1)):
            with pytest.raises(BudgetExceeded):
                canonical_key(graph)
        assert canonical_key(graph)


# ----------------------------------------------------------------------
# Graceful degradation: injected DP trip falls back to backtracking
# ----------------------------------------------------------------------
class TestDegradation:
    def test_auto_strategy_degrades_and_stays_correct(self):
        source = cycle_structure(6, relation="E")
        target = clique_structure(8, relation="E")
        expected = HomEngine(strategy="backtrack").count(source, target)

        before = budget_stats()["degraded"]
        # Consult index 0 is count_plan_dp's entry; the backtracking
        # retry consults again at index 1, which the plan leaves alone.
        install_fault_plan(FaultPlan({"seed": 0, "engine.step": [0]}))
        try:
            engine = HomEngine(strategy="auto")
            assert engine.count(source, target) == expected
        finally:
            clear_fault_plan()
        assert budget_stats()["degraded"] == before + 1

    def test_pinned_strategy_does_not_degrade(self):
        source = cycle_structure(6, relation="E")
        target = clique_structure(8, relation="E")
        install_fault_plan(FaultPlan({"seed": 0, "engine.step": [0]}))
        try:
            with pytest.raises(BudgetExceeded):
                HomEngine(strategy="dp").count(source, target)
        finally:
            clear_fault_plan()


# ----------------------------------------------------------------------
# Session / envelope integration
# ----------------------------------------------------------------------
class TestSessionBudgets:
    def test_budget_for_prefers_request_deadline(self):
        with SolverSession(default_deadline_ms=500.0) as session:
            budget = session.budget_for(50.0)
            assert budget.deadline_ms == 50.0
            assert session.budget_for(None).deadline_ms == 500.0
        with SolverSession() as session:
            assert session.budget_for(None) is None

    def test_budget_exceeded_record(self):
        from repro.batch.runner import evaluate_envelope

        task = make_hom_count_task(
            "slow-0", cycle_structure(6, relation="E"),
            clique_structure(8, relation="E"))
        with SolverSession(default_max_steps=100) as session:
            record = evaluate_envelope(canonical_json(task), session)
            assert record["ok"] is False
            assert record["error_kind"] == "budget-exceeded"
            assert record["budget"]["reason"] == "steps"
            assert session.tasks_budget_exceeded == 1


# ----------------------------------------------------------------------
# Worker supervision: crash quarantine is deterministic
# ----------------------------------------------------------------------
class TestWorkerSupervision:
    def _tasks(self):
        lines = []
        for index in range(8):
            task = make_hom_count_task(
                f"hc-{index:05d}",
                cycle_structure(3 + index % 3, relation="E"),
                clique_structure(4, relation="E"))
            lines.append(canonical_json(task))
        return lines

    def test_poison_task_is_quarantined_deterministically(self):
        lines = self._tasks()
        clean = list(iter_results(lines, workers=2, chunk_size=3))
        plan = {"seed": 11, "worker.chunk": {"task_ids": ["hc-00004"]}}
        chaos = list(iter_results(lines, workers=2, chunk_size=3,
                                  fault_plan=plan))
        assert len(chaos) == len(clean) == len(lines)
        quarantined = [line for line in chaos
                       if json.loads(line).get("quarantined")]
        assert len(quarantined) == 1
        assert json.loads(quarantined[0])["id"] == "hc-00004"
        survivors = {json.loads(line)["id"]: line for line in chaos
                     if not json.loads(line).get("quarantined")}
        for line in clean:
            identifier = json.loads(line)["id"]
            if identifier != "hc-00004":
                assert survivors[identifier] == line
        # Worker count must not change a single byte.
        again = list(iter_results(lines, workers=4, chunk_size=3,
                                  fault_plan=plan))
        assert again == chaos

    def test_chunk_parses_task_ids_only_under_a_plan(self, monkeypatch):
        # Without a plan the worker.chunk point must not parse each
        # line for its id; with one it consults every line.
        lines = self._tasks()[:2]
        seen = []
        monkeypatch.setattr(runner, "_line_id", seen.append)
        with SolverSession() as session:
            monkeypatch.setattr(runner, "_WORKER_SESSION", session)
            monkeypatch.setattr(runner, "_WORKER_LAST_METRICS", {})
            results, _ = runner._evaluate_chunk(lines)
            assert seen == []
            assert [json.loads(r)["ok"] for r in results] == [True, True]
            install_fault_plan(FaultPlan(
                {"seed": 1, "worker.chunk": {"task_ids": ["never"]}}))
            assert runner._evaluate_chunk(lines)[0] == results
            assert seen == lines

    def test_hung_task_is_quarantined_after_chunk_timeout(self,
                                                          monkeypatch):
        lines = self._tasks()
        clean = list(iter_results(lines, workers=2, chunk_size=2))
        evaluate_line = runner.evaluate_line

        def hang_on_one_task(line, context):
            if task_identity(line)[0] == "hc-00005":
                time.sleep(3600)
            return evaluate_line(line, context)

        # Patched before the workers fork, so they inherit it.
        monkeypatch.setattr(runner, "evaluate_line", hang_on_one_task)
        metrics = {}
        hung = list(iter_results(lines, workers=2, chunk_size=2,
                                 chunk_timeout=0.5, max_retries=1,
                                 metrics_sink=metrics))
        assert len(hung) == len(clean)
        for before, after in zip(clean, hung):
            if json.loads(before)["id"] == "hc-00005":
                assert json.loads(after)["quarantined"] is True
            else:
                assert after == before
        assert metrics["batch.tasks.quarantined"] == 1
        assert metrics["batch.worker.restarts"] >= 1


# ----------------------------------------------------------------------
# Store self-healing
# ----------------------------------------------------------------------
class TestStoreHealing:
    SRC = cycle_structure(3, relation="E")
    TGT = clique_structure(3, relation="E")

    def test_corrupt_file_quarantined_on_open(self, tmp_path):
        # A damaged file where the store directory belongs is
        # quarantined where it lies, not moved aside as a v2 backup.
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"definitely not a database" * 64)
        store = TieredHomStore(str(path))
        assert store.corruptions == 1
        assert path.is_dir()
        quarantined = list(tmp_path.glob("store.sqlite.corrupt-*"))
        assert len(quarantined) == 1
        assert not list(tmp_path.glob("store.sqlite.v2-backup*"))
        store.record(self.SRC, self.TGT, 6)
        store.flush()
        assert store.lookup(self.SRC, self.TGT) == 6
        store.close()

    def test_mid_life_corruption_heals_round_trip(self, tmp_path):
        path = str(tmp_path / "store")
        with TieredHomStore(path, shards=1) as store:
            store.record(self.SRC, self.TGT, 6)
        with open(tmp_path / "store" / "shard-000.sqlite", "r+b") as handle:
            handle.write(b"\xff" * 512)
        with TieredHomStore(path) as healed:
            assert healed.lookup(self.SRC, self.TGT) is None
            assert healed.corruptions == 1
            healed.record(self.SRC, self.TGT, 6)
            healed.flush()
            assert healed.lookup(self.SRC, self.TGT) == 6
            stats = healed.stats()
        assert stats["corruptions"] == 1
        assert stats["retries"] == 1

    def test_injected_lookup_corruption_heals(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store")) as store:
            store.record(self.SRC, self.TGT, 6)
            store.flush()
            install_fault_plan(FaultPlan({"seed": 2, "store.lookup": [0]}))
            try:
                # The poisoned probe heals and retries against the
                # fresh (empty) shard — a miss, never an exception.
                assert store.lookup(self.SRC, self.TGT) is None
            finally:
                clear_fault_plan()
            assert store.corruptions == 1
            assert store.retries == 1
            assert len(list((tmp_path / "store").glob(
                "shard-*.sqlite.corrupt-*"))) == 1
            store.record(self.SRC, self.TGT, 6)
            store.flush()
            assert store.lookup(self.SRC, self.TGT) == 6

    def test_format_refusal_is_not_corruption(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA user_version=99")
        connection.commit()
        connection.close()
        with pytest.raises(StoreFormatError):
            TieredHomStore(path)
        # The file was refused, not quarantined.
        assert not list(tmp_path.glob("store.sqlite.corrupt-*"))


# ----------------------------------------------------------------------
# Client backoff
# ----------------------------------------------------------------------
class TestClientBackoff:
    def test_backoff_schedule_is_jittered_exponential(self):
        low = [backoff_delay(a, base=0.05, rng=lambda: 0.0)
               for a in range(4)]
        high = [backoff_delay(a, base=0.05, rng=lambda: 0.999999)
                for a in range(4)]
        assert low == [0.025, 0.05, 0.1, 0.2]
        for attempt in range(4):
            assert low[attempt] <= high[attempt] < 0.05 * 2 ** attempt

    def test_transient_failures_are_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        attempts = []

        def flaky(self, payload_line):
            attempts.append(payload_line)
            if len(attempts) < 3:
                raise ConnectionRefusedError("refused")
            return '{"ok": true, "op": "ping"}\n'

        monkeypatch.setattr(DaemonClient, "_exchange", flaky)
        client = DaemonClient("127.0.0.1", 1, retries=3)
        assert client.ping() == {"ok": True, "op": "ping"}
        assert len(attempts) == 3
        assert client.connect_failures == 2
        assert len(sleeps) == 2
        assert sleeps[0] < sleeps[1] * 2 + 1e-9  # exponential envelope

    def test_retries_exhausted_raise_repro_error(self, monkeypatch):
        monkeypatch.setattr("repro.service.client.time.sleep",
                            lambda _: None)
        monkeypatch.setattr(
            DaemonClient, "_exchange",
            lambda self, line: (_ for _ in ()).throw(
                ConnectionResetError("reset")))
        with pytest.raises(ReproError, match="after 2 attempt"):
            DaemonClient("127.0.0.1", 1, retries=1).ping()

    def test_non_transient_oserror_fails_fast(self, monkeypatch):
        calls = []

        def denied(self, payload_line):
            calls.append(1)
            raise PermissionError("no")

        monkeypatch.setattr(DaemonClient, "_exchange", denied)
        with pytest.raises(ReproError):
            DaemonClient("127.0.0.1", 1, retries=5).ping()
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan({"seed": 1, "no.such.point": [0]})

    def test_spec_round_trip(self):
        spec = {"seed": 9,
                "worker.chunk": {"task_ids": ["t1"], "indices": [2]},
                "client.connect": {"probability": 0.25}}
        assert FaultPlan(FaultPlan(spec).to_spec()).to_spec() \
            == FaultPlan(spec).to_spec()

    def test_should_inject_without_plan_is_false(self):
        assert should_inject("engine.step") is False

    def test_fault_free_plan_is_byte_identical_to_no_plan(self):
        lines = [canonical_json(make_hom_count_task(
            f"hc-{i}", cycle_structure(3, relation="E"),
            clique_structure(3, relation="E"))) for i in range(4)]
        plain = list(iter_results(lines, workers=1))
        # An empty plan, and a plan whose triggers can never fire.
        empty = list(iter_results(lines, workers=1,
                                  fault_plan={"seed": 123}))
        dormant = list(iter_results(lines, workers=1, fault_plan={
            "seed": 123,
            "worker.chunk": {"task_ids": ["never-matches"]}}))
        assert empty == plain
        assert dormant == plain


# ----------------------------------------------------------------------
# Torn-tail recovery
# ----------------------------------------------------------------------
class TestTornTail:
    def test_torn_multibyte_utf8_tail_is_dropped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        whole = '{"id":"a","ok":true}\n'.encode("utf-8")
        # A record whose final character is multi-byte, torn mid-char:
        torn = '{"id":"b","note":"déjà'.encode("utf-8")[:-1]
        path.write_bytes(whole + torn)
        _truncate_torn_tail(str(path))
        assert path.read_bytes() == whole
        # The surviving content is valid UTF-8 and valid JSONL again.
        assert json.loads(path.read_text(encoding="utf-8"))["id"] == "a"

    def test_complete_file_untouched(self, tmp_path):
        path = tmp_path / "results.jsonl"
        content = '{"id":"a"}\n{"id":"b"}\n'.encode("utf-8")
        path.write_bytes(content)
        _truncate_torn_tail(str(path))
        assert path.read_bytes() == content


# ----------------------------------------------------------------------
# run_batch summary accounting under faults
# ----------------------------------------------------------------------
class TestRunBatchFaults:
    def test_summary_counts_quarantine(self, tmp_path):
        tasks = tmp_path / "tasks.jsonl"
        with open(tasks, "w") as sink:
            write_scenario(generate_scenario("mixed", 6, seed=4), sink)
        with open(tasks) as handle:
            first = json.loads(handle.readline())["id"]
        out = tmp_path / "out.jsonl"
        summary = run_batch(
            str(tasks), str(out), workers=2, chunk_size=2,
            fault_plan={"seed": 5,
                        "worker.chunk": {"task_ids": [first]}})
        assert summary["quarantined"] == 1
        assert summary["errors"] == 1
        assert summary["written"] == 6
