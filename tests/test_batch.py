"""Tests for the batch subsystem: codec, scenarios, store, runner, CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.batch import runner
from repro.batch.runner import evaluate_line, iter_results, run_batch
from repro.batch.scenarios import generate_scenario, write_scenario
from repro.batch.store import (
    SCHEMA_VERSION_V3,
    StoreFormatError,
    TieredHomStore,
)
from repro.batch.tasks import (
    BatchCodecError,
    canonical_json,
    decode_task,
    encode_task,
    make_containment_task,
    make_decision_task,
    make_path_task,
    make_ucq_task,
    task_seed,
)
from repro.cli import main
from repro.hom.engine import HomEngine
from repro.session import SolverSession
from repro.queries.parser import parse_boolean_cq, parse_path, parse_ucq
from repro.structures.generators import clique_structure, path_structure


@pytest.fixture(autouse=True)
def _no_worker_outlives_its_batch():
    yield
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestTaskCodec:
    def test_decision_round_trip(self):
        views = [parse_boolean_cq("R(x,y)"), parse_boolean_cq("S(x,y)")]
        query = parse_boolean_cq("R(x,y), S(u,v)")
        record = make_decision_task("t0", views, query, witness=True)
        task = decode_task(encode_task(record))
        assert task.id == "t0"
        assert task.kind == "decide-cq"
        assert task.witness is True
        assert list(task.views) == views
        assert task.query == query

    def test_containment_round_trip(self):
        record = make_containment_task(
            "c1", parse_boolean_cq("R(x,y), R(y,z)"), parse_boolean_cq("R(x,y)"))
        task = decode_task(encode_task(record))
        assert task.kind == "containment"
        assert task.container == parse_boolean_cq("R(x,y)")

    def test_path_and_ucq_round_trip(self):
        path_task = decode_task(encode_task(
            make_path_task("p1", [parse_path("A.B")], parse_path("A.B.C"))))
        assert path_task.query == parse_path("A.B.C")
        ucq_task = decode_task(encode_task(
            make_ucq_task("u1", [parse_ucq("P(x)")], parse_ucq("P(x) or R(x)"))))
        assert ucq_task.kind == "certify-ucq"
        assert len(ucq_task.views) == 1

    @pytest.mark.parametrize("line", [
        "not json",
        '["a", "list"]',
        '{"kind": "decide-cq"}',
        '{"id": "x", "kind": "nope"}',
        '{"id": "x", "kind": "decide-cq", "query": {"kind": "path", "letters": ["A"]}}',
        '{"id": "x", "kind": "decide-cq", "query": {"kind": "cq", "atoms": []}, "views": 3}',
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(BatchCodecError):
            decode_task(line)

    def test_task_seed_is_content_stable(self):
        record = make_decision_task("t0", [parse_boolean_cq("R(x,y)")],
                                    parse_boolean_cq("R(x,y)"))
        assert task_seed(record) == task_seed(json.loads(canonical_json(record)))
        other = make_decision_task("t1", [parse_boolean_cq("R(x,y)")],
                                   parse_boolean_cq("R(x,y)"))
        assert task_seed(record) != task_seed(other)


# ----------------------------------------------------------------------
# Scenario generator
# ----------------------------------------------------------------------
class TestScenarios:
    @pytest.mark.parametrize("kind", ["cq", "cq-witness", "containment",
                                      "path", "ucq", "dense", "hom", "mixed"])
    def test_deterministic_and_decodable(self, kind):
        first = generate_scenario(kind, 12, seed=5)
        second = generate_scenario(kind, 12, seed=5)
        assert [canonical_json(t) for t in first] == \
            [canonical_json(t) for t in second]
        assert len(first) == 12
        for record in first:
            decode_task(record)  # validates

    def test_seed_changes_scenario(self):
        assert [canonical_json(t) for t in generate_scenario("cq", 6, seed=1)] != \
            [canonical_json(t) for t in generate_scenario("cq", 6, seed=2)]

    def test_mixed_interleaves_all_kinds(self):
        records = generate_scenario("mixed", 10, seed=0)
        kinds = {record["kind"] for record in records}
        assert kinds == {"decide-cq", "containment", "decide-path", "certify-ucq"}
        # the dense family rides along inside decide-cq (its own id space)
        assert any(record["id"].startswith("dn-") for record in records)

    def test_dense_family_shape(self):
        """Dense tasks are decide-cq instances whose sources are the
        grid / chained-join shapes the DP counting backend targets."""
        records = generate_scenario("dense", 12, seed=7, width=3, length=4)
        assert all(record["kind"] == "decide-cq" for record in records)
        saw_wide = False
        for record in records:
            task = decode_task(record)
            body = task.query.frozen_body()
            assert body.relations_used() <= {"R", "S"}
            # controllable width: never wider than the knob allows
            from repro.hom.decompose import decompose

            decomposition = decompose(body)
            decomposition.validate(body)
            assert decomposition.width <= 4
            saw_wide = saw_wide or decomposition.width >= 2
        assert saw_wide  # some instances actually exercise width >= 2

    def test_unknown_kind_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            generate_scenario("nope", 3)

    def test_mixed_rejects_family_knobs(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="mixed"):
            generate_scenario("mixed", 8, n_views=16)

    def test_write_scenario(self, tmp_path):
        out = tmp_path / "scenario.jsonl"
        with open(out, "w") as sink:
            written = write_scenario(generate_scenario("path", 7, seed=0), sink)
        assert written == 7
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert all(decode_task(line).kind == "decide-path" for line in lines)


# ----------------------------------------------------------------------
# Persistent store
# ----------------------------------------------------------------------
class TestSQLiteHomStore:
    """What the retired single-file store was tested for, checked on
    the store that replaced it at every ``--cache`` path (the class
    keeps its name so these test ids stay comparable across
    releases)."""

    def test_count_round_trip_and_iso_sharing(self, tmp_path):
        store = TieredHomStore(str(tmp_path / "store"))
        component = path_structure(["R", "R"])
        target = clique_structure(4)
        assert store.lookup(component, target) is None
        store.record(component, target, 36)
        store.flush()
        assert store.lookup(component, target) == 36
        # A renamed copy has the same canonical key, hence the same row.
        renamed = component.rename({c: f"n{c}" for c in component.domain()})
        assert store.lookup(renamed, target) == 36
        assert store.counts_len() == 1
        store.close()

    def test_exists_round_trip(self, tmp_path):
        store = TieredHomStore(str(tmp_path / "store"))
        source = path_structure(["R"])
        assert store.lookup_exists(source, clique_structure(3)) is None
        store.record_exists(source, clique_structure(3), True)
        store.record_exists(clique_structure(3), source, False)
        store.flush()
        assert store.lookup_exists(source, clique_structure(3)) is True
        assert store.lookup_exists(clique_structure(3), source) is False
        assert store.exists_len() == 2
        store.close()

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store")
        with TieredHomStore(path) as store:
            store.record(path_structure(["R"]), clique_structure(3), 6)
        with TieredHomStore(path) as store:
            assert store.lookup(path_structure(["R"]), clique_structure(3)) == 6

    def test_big_counts_survive(self, tmp_path):
        path = str(tmp_path / "store")
        huge = 10 ** 40 + 7
        with TieredHomStore(path) as store:
            store.record(path_structure(["R"]), clique_structure(3), huge)
        # A fresh process-equivalent store: the value comes from SQL.
        with TieredHomStore(path) as store:
            assert store.lookup(path_structure(["R"]),
                                clique_structure(3)) == huge
            assert store.tier.hits == 0

    def test_preload_seeds_engine(self, tmp_path):
        path = str(tmp_path / "store")
        component = path_structure(["R", "R"])
        target = clique_structure(4)
        with TieredHomStore(path) as store:
            engine = HomEngine(store=store)
            expected = engine.count(component, target)
        with TieredHomStore(path) as store:
            warmed = HomEngine()
            assert store.preload(warmed) > 0
            before = warmed.misses
            assert warmed.count(component, target) == expected
            assert warmed.misses == before  # served from the seeded memo

    def test_engine_store_hits_across_processes_simulated(self, tmp_path):
        path = str(tmp_path / "store")
        component = path_structure(["R", "R", "R"])
        target = clique_structure(5)
        with TieredHomStore(path) as store:
            first = HomEngine(store=store)
            truth = first.count(component, target)
            assert first.store_misses > 0
        with TieredHomStore(path) as store:
            second = HomEngine(store=store)
            assert second.count(component, target) == truth
            assert second.store_hits > 0

    def test_stats_shape(self, tmp_path):
        with TieredHomStore(str(tmp_path / "store")) as store:
            stats = store.stats()
        assert set(stats) == {
            "counts", "exists", "lookups", "lookup_hits", "inserts",
            "corruptions", "retries", "tier_hits", "tier_misses",
            "tier_evictions", "tier_entries", "flush_batches",
            "flush_rows", "shard_opens", "shards",
        }

    def test_unserializable_source_still_persists(self, tmp_path):
        """Canonical keys freed the source side from the JSON wire
        format: only the *target* must serialize."""
        store = TieredHomStore(str(tmp_path / "store"))
        weird = path_structure(["R"]).rename(
            {c: frozenset({c}) for c in path_structure(["R"]).domain()})
        target = clique_structure(3)
        store.record(weird, target, 6)
        store.flush()
        assert store.lookup(weird, target) == 6
        # and an ordinary rename of the same class hits the same row
        assert store.lookup(path_structure(["R"]), target) == 6
        store.close()


def _assert_refused_in_place(path, message):
    """Every open refuses the file, which stays untouched at its path."""
    before = path.read_bytes()
    for _ in range(2):
        with pytest.raises(StoreFormatError, match=message):
            TieredHomStore(str(path))
        assert path.read_bytes() == before
    assert [entry.name for entry in path.parent.iterdir()] == [path.name]


class TestStoreSchemaVersioning:
    def test_fresh_store_is_stamped(self, tmp_path):
        import sqlite3

        path = tmp_path / "store"
        with TieredHomStore(str(path)) as store:
            store.record(path_structure(["R"]), clique_structure(3), 6)
        shard_files = list(path.glob("shard-*.sqlite"))
        assert shard_files
        for shard_file in shard_files:
            connection = sqlite3.connect(shard_file)
            version = connection.execute(
                "PRAGMA user_version").fetchone()[0]
            connection.close()
            assert version == SCHEMA_VERSION_V3
        meta = json.loads((path / "meta.json").read_text())
        assert meta["schema_version"] == SCHEMA_VERSION_V3

    def test_legacy_store_refused_with_clear_error(self, tmp_path):
        import sqlite3

        path = tmp_path / "legacy.sqlite"
        connection = sqlite3.connect(path)
        with connection:
            # The PR 2-era layout: WL-digest buckets, user_version 0.
            connection.execute(
                "CREATE TABLE hom_counts (inv TEXT, target TEXT, "
                "source TEXT, value TEXT, PRIMARY KEY (inv, target, source))")
            connection.execute(
                "CREATE TABLE targets (hash TEXT PRIMARY KEY, json TEXT)")
        connection.close()
        _assert_refused_in_place(path, "pre-canonical-key")

    def test_future_schema_version_refused(self, tmp_path):
        import sqlite3

        path = tmp_path / "future.sqlite"
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA user_version=99")
        connection.commit()
        connection.close()
        _assert_refused_in_place(path, "schema version 99")


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def _scenario_lines(kind, count, seed):
    return [encode_task(t) for t in generate_scenario(kind, count, seed=seed)]


def _line_id_of(line):
    return json.loads(line)["id"]


class TestRunner:
    def test_results_in_task_order(self):
        lines = _scenario_lines("mixed", 10, seed=2)
        results = list(iter_results(lines, workers=1))
        assert [json.loads(r)["id"] for r in results] == \
            [json.loads(line)["id"] for line in lines]

    def test_workers_do_not_change_bytes(self):
        lines = _scenario_lines("mixed", 16, seed=3)
        solo = list(iter_results(lines, workers=1))
        duo = list(iter_results(lines, workers=2, chunk_size=3))
        assert solo == duo

    def test_witness_tasks_are_deterministic(self):
        lines = _scenario_lines("cq-witness", 4, seed=1)
        first = list(iter_results(lines, workers=1))
        second = list(iter_results(lines, workers=2, chunk_size=1))
        assert first == second
        # At least one instance should be refuted with a verified pair.
        verified = [json.loads(r).get("witness", {}).get("verified")
                    for r in first]
        assert True in verified

    def test_error_records_keep_batch_alive(self):
        bad = '{"id": "broken", "kind": "decide-cq", "query": {"kind": "cq", "atoms": [["R", ["x"]]], "free": ["x"]}}'
        lines = [bad] + _scenario_lines("cq", 2, seed=0)
        results = [json.loads(r) for r in iter_results(lines, workers=1)]
        assert results[0]["ok"] is False
        assert "UnsupportedQueryError" in results[0]["error"]
        assert all(r["ok"] for r in results[1:])

    def test_shared_cache_between_runs(self, tmp_path):
        cache = str(tmp_path / "cache.sqlite")
        lines = _scenario_lines("cq", 8, seed=4)
        cold = list(iter_results(lines, workers=1, cache_path=cache))
        with TieredHomStore(cache) as store:
            assert len(store) > 0
        warm = list(iter_results(lines, workers=1, cache_path=cache))
        assert cold == warm

    def test_run_batch_resume(self, tmp_path):
        tasks = tmp_path / "tasks.jsonl"
        with open(tasks, "w") as sink:
            write_scenario(generate_scenario("mixed", 9, seed=6), sink)
        full = tmp_path / "full.jsonl"
        summary = run_batch(str(tasks), str(full), workers=1)
        metrics = summary.pop("metrics")
        assert summary == {"tasks": 9, "skipped": 0, "written": 9, "errors": 0,
                           "quarantined": 0, "retries": 0, "worker_restarts": 0}
        # The merged per-run registry movement rides in the summary.
        assert metrics["session.tasks.evaluated"] == 9

        partial = tmp_path / "partial.jsonl"
        partial.write_text(
            "".join(line + "\n"
                    for line in full.read_text().splitlines()[:4]))
        summary = run_batch(str(tasks), str(partial), workers=1, resume=True)
        assert summary["skipped"] == 4
        assert summary["written"] == 5
        assert partial.read_text() == full.read_text()

    def test_resume_repairs_torn_final_line(self, tmp_path):
        """A run killed mid-write leaves a partial last line; resume
        must drop it and re-answer that task instead of fusing bytes."""
        tasks = tmp_path / "tasks.jsonl"
        with open(tasks, "w") as sink:
            write_scenario(generate_scenario("path", 6, seed=8), sink)
        full = tmp_path / "full.jsonl"
        run_batch(str(tasks), str(full), workers=1)
        complete_ids = [_line_id_of(line)
                        for line in full.read_text().splitlines()]

        torn = tmp_path / "torn.jsonl"
        lines = full.read_text().splitlines()
        torn.write_text("".join(line + "\n" for line in lines[:3])
                        + lines[3][: len(lines[3]) // 2])  # no newline
        summary = run_batch(str(tasks), str(torn), workers=1, resume=True)
        assert summary["skipped"] == 3
        assert summary["written"] == 3
        resumed = torn.read_text().splitlines()
        assert sorted(_line_id_of(line) for line in resumed) == \
            sorted(complete_ids)
        for line in resumed:
            json.loads(line)  # every line is whole JSON again

    def test_evaluate_line_reports_unknown_id(self):
        session = SolverSession()
        record = json.loads(evaluate_line("garbage", session))
        assert record["ok"] is False
        assert record["id"] is None

    @pytest.mark.parametrize("query", [
        {"kind": "cq", "atoms": [["R", [1, 2]]]},
        {"kind": "cq", "atoms": [["", ["x"]]]},
        {"kind": "cq", "atoms": [["R", ["x"]], ["R", ["x", "y"]]]},
        {"kind": "cq", "atoms": [["R", ["x"]]], "free": [True]},
        {"kind": "ucq", "disjuncts": [3]},
        {"kind": "path", "letters": 3},
        # A string where the wire format has a list is not read one
        # character at a time.
        {"kind": "cq", "atoms": [["R", ["x"]]], "extra_variables": "xy"},
        {"kind": "cq", "atoms": [["R", ["x"]]], "free": ""},
        {"kind": "cq", "atoms": [["R", "xy"]]},
    ])
    def test_rejected_payload_names_its_task(self, query):
        line = json.dumps({"id": "t9", "kind": "decide-cq", "views": [],
                           "query": query})
        record = json.loads(evaluate_line(line, SolverSession()))
        assert record["ok"] is False
        assert (record["id"], record["kind"]) == ("t9", "decide-cq")
        assert record["error"].startswith(
            "BatchCodecError: task t9: bad query payload: ")

    @pytest.mark.parametrize("kind, label, payload", [
        ("certify-ucq", "query",
         {"kind": "ucq", "disjuncts": [{"kind": "cq",
                                        "atoms": [["R", "xy"]]}]}),
        ("decide-path", "query", {"kind": "path", "letters": "AB"}),
        ("hom-count", "source",
         {"kind": "structure", "schema": {"R": 2}, "constants": [],
          "facts": ""}),
    ])
    def test_string_where_a_list_belongs_is_rejected(self, kind, label,
                                                      payload):
        target = {"kind": "structure", "schema": {"R": 2},
                  "constants": ["a"], "facts": [["R", [0, 0]]]}
        line = json.dumps({"id": "t9", "kind": kind, "views": [],
                           label: payload, "target": target})
        record = json.loads(evaluate_line(line, SolverSession()))
        assert record["ok"] is False
        assert (record["id"], record["kind"]) == ("t9", kind)
        assert record["error"].startswith(
            f"BatchCodecError: task t9: bad {label} payload: ")
        assert "must be a list, got the string" in record["error"]

    def test_unknown_kind_keeps_its_id_but_not_its_kind(self):
        record = json.loads(evaluate_line(
            '{"id": "t9", "kind": "nope"}', SolverSession()))
        assert (record["id"], record["kind"]) == ("t9", None)

    def test_resume_answers_rejected_lines_once(self, tmp_path):
        tasks = tmp_path / "tasks.jsonl"
        good = _scenario_lines("path", 1, seed=8)[0]
        bad = ('{"id": "bad", "kind": "decide-path", "views": [], '
               '"query": {"kind": "path", "letters": [1]}}')
        tasks.write_text(good + "\n" + bad + "\n")
        output = tmp_path / "out.jsonl"
        for _ in range(3):
            run_batch(str(tasks), str(output), workers=1, resume=True)
        lines = output.read_text().splitlines()
        assert sorted(_line_id_of(line) for line in lines) == \
            sorted([_line_id_of(good), "bad"])


class TestWorkerPool:
    """The forked workers on socketpair pipes behind ``workers > 1``."""

    LINES = _scenario_lines("mixed", 24, seed=12)

    @pytest.mark.parametrize("chunk_size", [1, 2, 8])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bytes_identical_at_every_layout(self, tmp_path, workers,
                                             chunk_size):
        expected = list(iter_results(self.LINES, workers=1))
        pooled = list(iter_results(self.LINES, workers=workers,
                                   chunk_size=chunk_size, shards=3,
                                   cache_path=str(tmp_path / "store")))
        assert pooled == expected

    def test_more_workers_than_cores_answer_every_task_once_in_order(self):
        lines = _scenario_lines("mixed", 240, seed=13)
        workers = len(os.sched_getaffinity(0)) + 1
        started = time.monotonic()
        results = list(iter_results(lines, workers=workers))
        assert time.monotonic() - started < 120
        assert [_line_id_of(line) for line in results] == \
            [_line_id_of(line) for line in lines]

    def test_early_close_kills_and_reaps_every_worker(self):
        results = iter_results(self.LINES, workers=2)
        first = [next(results) for _ in range(3)]
        assert multiprocessing.active_children()
        results.close()
        assert multiprocessing.active_children() == []
        assert first == list(iter_results(self.LINES[:3], workers=1))

    def test_stream_ends_when_a_full_window_drains_at_once(self,
                                                           monkeypatch):
        # The slow first task keeps the run-ahead window full until
        # every other answer is in; then all of them come out together,
        # and the stream must still end (not wait for work it never
        # sent).
        lines = self.LINES[:2]
        expected = list(iter_results(lines, workers=1))
        evaluate = runner.evaluate_line

        def slow_first(line, context):
            if line == lines[0]:
                time.sleep(0.3)
            return evaluate(line, context)

        def out_of_time(signum, frame):
            raise TimeoutError("the result stream did not end")

        monkeypatch.setattr(runner, "evaluate_line", slow_first)
        monkeypatch.setattr(runner, "_RUN_AHEAD_CHUNKS", 1)
        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(30)
        try:
            results = list(iter_results(lines, workers=2, chunk_size=1))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert results == expected

    def test_line_larger_than_the_pipe_buffer(self):
        # Far more than a socket buffer takes at once: the rest waits in
        # the slot's outbox while the parent keeps reading answers.
        big = canonical_json({"id": "big", "kind": "hom-count",
                              "pad": "x" * (4 << 20)})
        lines = [big] + _scenario_lines("hom", 3, seed=15)
        assert list(iter_results(lines, workers=2, chunk_size=1)) == \
            list(iter_results(lines, workers=1))

    def test_rerun_on_a_store_the_pool_filled_computes_nothing(self,
                                                               tmp_path):
        # Every worker flushes its write-behind rows at the stop
        # message, so nothing the cold run computed is lost.
        store = str(tmp_path / "store")
        cold = list(iter_results(self.LINES, workers=2, cache_path=store,
                                 shards=4))
        metrics = {}
        warm = list(iter_results(self.LINES, workers=1, cache_path=store,
                                 shards=4, metrics_sink=metrics))
        assert warm == cold
        assert metrics.get("engine.count.backtrack", 0) \
            + metrics.get("engine.count.dp", 0) == 0
        assert metrics.get("engine.store.misses", 0) == 0

    def test_run_metrics_merge_every_worker(self, tmp_path):
        metrics = {}
        list(iter_results(self.LINES, workers=2, metrics_sink=metrics,
                          cache_path=str(tmp_path / "store"), shards=2))
        assert metrics["session.tasks.evaluated"] == len(self.LINES)
        # Too few rows for the write-behind: every row was published by
        # the flush at the stop message, whose reply carries its delta.
        assert metrics["store.flush.rows"] == metrics["store.inserts"] > 0

    def test_workers_report_no_counters_they_inherited(self):
        # The parent decodes the corpus first, so each forked worker
        # starts with the process-wide decode counters already moved;
        # both layouts decode the same payloads of the same 4 lines.
        lines = _scenario_lines("mixed", 40, seed=5)
        for line in lines:
            decode_task(line)
        decoded = []
        for workers in (1, 2):
            metrics = {}
            list(iter_results(lines[:4], workers=workers,
                              metrics_sink=metrics))
            decoded.append(metrics.get("decode.hits", 0)
                           + metrics.get("decode.misses", 0))
        assert decoded[0] == decoded[1] > 0


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------
class TestBatchCLI:
    def test_gen_run_cache(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.jsonl"
        out1 = tmp_path / "out1.jsonl"
        out4 = tmp_path / "out4.jsonl"
        cache = tmp_path / "cache.sqlite"

        assert main(["batch", "gen", "--kind", "mixed", "--count", "24",
                     "--seed", "11", "--output", str(scenario)]) == 0
        assert len(scenario.read_text().splitlines()) == 24

        assert main(["batch", "run", "--input", str(scenario),
                     "--output", str(out1), "--workers", "1",
                     "--cache", str(cache)]) == 0
        assert main(["batch", "run", "--input", str(scenario),
                     "--output", str(out4), "--workers", "4",
                     "--chunk-size", "4", "--cache", str(cache)]) == 0
        assert out1.read_bytes() == out4.read_bytes()

        assert main(["cache", "info", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "existence verdicts" in out

    def test_cache_subcommand_rejects_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "typo.sqlite"
        assert main(["cache", "info", "--cache", str(missing)]) == 2
        assert "no such cache file" in capsys.readouterr().err
        assert not missing.exists()  # inspection must not create a DB

    def test_gen_to_stdout(self, capsys):
        assert main(["batch", "gen", "--kind", "path", "--count", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(decode_task(line).kind == "decide-path" for line in lines)
