"""The request service: protocol, parity, isolation, shutdown.

The headline contract: a ``repro serve`` daemon answers a 200-task
mixed JSONL stream **byte-identical** to ``repro batch run --workers
1``, with cross-request memo hits > 0.
"""

from __future__ import annotations

import asyncio
import io
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
import repro.service.async_daemon as async_daemon
from repro.batch.runner import iter_results
from repro.batch.scenarios import generate_scenario
from repro.batch.store import TieredHomStore
from repro.batch.tasks import (
    BatchCodecError,
    canonical_json,
    decode_task,
    make_hom_count_task,
)
from repro.errors import ReproError
from repro.obs import StructuredLogger
from repro.service import (
    AsyncDaemonHandle,
    AsyncSolverService,
    DaemonClient,
    TenantQuota,
    serve_async_stdio,
)
from repro.service.async_daemon import parse_control
from repro.session import SolverSession
from repro.structures.generators import clique_structure, path_structure


@pytest.fixture(autouse=True)
def _no_worker_outlives_its_daemon():
    yield
    assert multiprocessing.active_children() == []


def _stream(kind: str, count: int, seed: int):
    return [canonical_json(record)
            for record in generate_scenario(kind, count, seed=seed)]


def _serve(source, sink, **service_kwargs):
    """Answer ``source`` on the stdio front end into ``sink``;
    ``(lines written, service)``, the service closed so its worker
    counters are final."""
    async def main():
        service = AsyncSolverService(**service_kwargs)
        try:
            written = await serve_async_stdio(service, source=source,
                                              sink=sink)
        finally:
            await service.aclose()
        return written, service

    return asyncio.run(main())


def _serve_lines(lines, **service_kwargs):
    """``(response lines, closed service)`` for a list of lines."""
    sink = io.StringIO()
    _, service = _serve(iter(line + "\n" for line in lines), sink,
                        **service_kwargs)
    return sink.getvalue().splitlines(), service


def _with_service(body, **service_kwargs):
    """``await body(service)`` against a started in-process service."""
    async def main():
        service = AsyncSolverService(**service_kwargs)
        await service.start()
        try:
            return await body(service)
        finally:
            await service.aclose()

    return asyncio.run(main())


async def _answer_all(service, lines) -> list:
    """Each line's answer on the default tenant, one at a time."""
    return [await service.submit(service.default_tenant, line)
            for line in lines]


async def _control(service, record: dict) -> dict:
    answer = service.control_record(record)
    if not isinstance(answer, str):
        answer = await answer
    return json.loads(answer)


# ----------------------------------------------------------------------
# Batch parity (the acceptance criterion)
# ----------------------------------------------------------------------
class TestBatchParity:
    def test_200_task_mixed_stream_matches_batch_run(self):
        lines = _stream("mixed", 200, seed=11)
        batch = list(iter_results(lines, workers=1))
        served, service = _serve_lines(lines, workers=2)
        report = service.stats()
        assert served == batch  # byte-for-byte

        session = report["session"]
        # Cross-request reuse is the point of residency: the warm memo
        # answered some probes without recomputation.
        assert session["engine.memo.hits"] + session["engine.exists.hits"] > 0
        assert report["service"]["requests"] == 200
        assert report["service"]["errors"] == 0
        assert session["session.tasks.evaluated"] == 200

    def test_hom_scenario_matches_batch_run(self):
        lines = _stream("hom", 16, seed=5)
        batch = list(iter_results(lines, workers=1))
        assert _serve_lines(lines, workers=1)[0] == batch

    def test_iter_results_accepts_resident_session(self):
        """Inline evaluation under a caller-owned session keeps the
        memo warm across streams."""
        lines = _stream("hom", 8, seed=9)
        session = SolverSession()
        first = list(iter_results(lines, workers=1, session=session))
        warm_before = session.stats()["engine.memo.hits"]
        second = list(iter_results(lines, workers=1, session=session))
        assert first == second
        assert session.stats()["engine.memo.hits"] > warm_before
        assert session.tasks_evaluated == 16

    def test_iter_results_rejects_session_with_workers(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="workers"):
            list(iter_results([], workers=2, session=SolverSession()))

    def test_iter_results_rejects_session_plus_cache_path(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="not both"):
            list(iter_results([], workers=1, session=SolverSession(),
                              cache_path="x.sqlite"))


# ----------------------------------------------------------------------
# The hom-count request kind
# ----------------------------------------------------------------------
class TestHomCountKind:
    def test_round_trip_and_answer(self):
        source = path_structure(["R", "R"])
        target = clique_structure(4)
        record = make_hom_count_task("h1", source, target)
        task = decode_task(canonical_json(record))
        assert task.kind == "hom-count"
        assert task.source == source
        assert task.target == target

        [line], _ = _serve_lines([canonical_json(record)], workers=1)
        payload = json.loads(line)
        assert payload["ok"] is True
        assert int(payload["count"]) == SolverSession().count(source, target)

    def test_bad_payload_rejected(self):
        with pytest.raises(BatchCodecError, match="source"):
            decode_task('{"id": "x", "kind": "hom-count", '
                        '"source": 3, "target": 4}')

    def test_missing_target_rejected(self):
        source = path_structure(["R"])
        record = make_hom_count_task("x", source, source)
        del record["target"]
        with pytest.raises(BatchCodecError, match="target"):
            decode_task(record)


# ----------------------------------------------------------------------
# Control protocol
# ----------------------------------------------------------------------
class TestControlOps:
    def test_ping(self):
        async def body(service):
            return await _control(service, {"op": "ping"})

        assert _with_service(body, workers=1) == {"ok": True, "op": "ping"}

    def test_stats_reports_service_and_session(self):
        lines = _stream("hom", 4, seed=2)

        async def body(service):
            await _answer_all(service, lines)
            return await _control(service, {"op": "stats"})

        payload = _with_service(body, workers=1)
        assert payload["ok"] is True
        stats = payload["stats"]
        assert stats["service"]["requests"] == 4
        assert stats["service"]["kinds"] == {"hom-count": 4}
        assert "engine.memo.hits" in stats["session"]
        assert stats["service"]["mean_latency_ms"] >= 0.0

    def test_unknown_op_is_an_error_response(self):
        async def body(service):
            return await _control(service, {"op": "dance"})

        payload = _with_service(body, workers=1)
        assert payload["ok"] is False
        assert "dance" in payload["error"]

    def test_shutdown_stops_the_stream(self):
        lines = _stream("hom", 2, seed=3)
        source = [lines[0], '{"op": "shutdown"}', lines[1]]
        responses, service = _serve_lines(source, workers=1)
        assert service.draining
        assert len(responses) == 2  # task result + shutdown ack, no more
        assert json.loads(responses[0])["kind"] == "hom-count"
        assert json.loads(responses[1]) == {"ok": True, "op": "shutdown"}

    def test_control_lines_are_not_tasks(self):
        assert parse_control("not json at all") is None
        assert parse_control('{"kind": "hom-count"}') is None
        assert parse_control('{"op": "ping"}') == {"op": "ping"}


# ----------------------------------------------------------------------
# Error isolation
# ----------------------------------------------------------------------
class TestErrorIsolation:
    def test_poison_lines_do_not_kill_the_stream(self):
        lines = _stream("hom", 2, seed=7)
        source = ["garbage{{{",
                  '{"id": "u1", "kind": "unknown-kind"}',
                  lines[0],
                  '{"id": "", "kind": "hom-count"}',
                  lines[1]]
        responses, service = _serve_lines(source, workers=1)
        report = service.stats()
        assert len(responses) == 5
        verdicts = [json.loads(r)["ok"] for r in responses]
        assert verdicts == [False, False, True, False, True]
        assert report["service"]["errors"] == 3
        assert report["service"]["requests"] == 5

    def test_unexpected_exception_becomes_internal_error(self, monkeypatch):
        def boom(line, context):
            raise ValueError("wired to fail")

        # Patched before the workers fork, so they evaluate with it.
        monkeypatch.setattr(async_daemon, "evaluate_envelope", boom)
        [line], service = _serve_lines(['{"x": 1}'], workers=1)
        report = service.stats()
        payload = json.loads(line)
        assert payload["ok"] is False
        assert payload["error"].startswith("InternalError")
        assert report["service"]["errors"] == 1
        # service and session accounting stay in step on error streams
        assert report["service"]["requests"] == \
            report["session"]["session.tasks.evaluated"] == 1
        assert report["session"]["session.tasks.errors"] == 1

    def test_interactive_client_gets_response_before_next_request(self):
        """Request/response over a live pipe: the answer to request N
        must be flushed before the client sends request N+1 (the writer
        emits each response as it resolves — no batching until EOF)."""
        lines = _stream("hom", 2, seed=21)
        sink = io.StringIO()
        got_first = threading.Event()

        def interactive_source():
            yield lines[0] + "\n"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if sink.getvalue().count("\n") >= 1:
                    got_first.set()
                    break
                time.sleep(0.005)
            yield lines[1] + "\n"

        _serve(interactive_source(), sink, workers=2)
        assert got_first.is_set()
        assert len(sink.getvalue().splitlines()) == 2

    def test_ordering_preserved_with_concurrent_workers(self):
        lines = _stream("mixed", 40, seed=13)
        expected = list(iter_results(lines, workers=1))
        assert _serve_lines(lines, workers=4)[0] == expected


class TestPersistentStore:
    def test_store_survives_across_service_lifetimes(self, tmp_path):
        """Each worker opens the store and flushes it when it stops; a
        second daemon over the same store answers the whole stream from
        the preloaded warm memo."""
        path = str(tmp_path / "serve.sqlite")
        lines = _stream("hom", 12, seed=3)
        cold, first = _serve_lines(lines, workers=2, store_path=path)
        assert first.stats()["service"]["errors"] == 0

        async def body(service):
            warm = await _answer_all(service, lines)
            return warm, (await _control(service, {"op": "stats"}))["stats"]

        warm, report = _with_service(body, workers=2, store_path=path,
                                     preload=2048)
        assert warm == cold
        session = report["session"]
        assert session["engine.memo.misses"] == 0  # everything pre-warmed
        assert session["engine.memo.hits"] > 0
        assert session["store.counts"] >= 1


# ----------------------------------------------------------------------
# Socket front-end
# ----------------------------------------------------------------------
class TestSocketMode:
    def test_tcp_round_trip_and_shutdown(self):
        task = canonical_json(make_hom_count_task(
            "tcp-1", path_structure(["R"]), clique_structure(3)))
        with AsyncDaemonHandle(workers=2) as handle:
            with socket.create_connection(handle.address,
                                          timeout=10) as conn, \
                    conn.makefile("rw", encoding="utf-8") as wire:
                wire.write(task + "\n")
                wire.flush()
                answer = json.loads(wire.readline())
                assert answer["ok"] is True and answer["count"] == "6"
                wire.write('{"op": "stats"}\n')
                wire.flush()
                stats = json.loads(wire.readline())
                assert stats["stats"]["service"]["requests"] == 1
                wire.write('{"op": "shutdown"}\n')
                wire.flush()
                assert json.loads(wire.readline())["op"] == "shutdown"
            # The shutdown op alone stops the daemon.
            handle._thread.join(timeout=10)
            assert not handle._thread.is_alive()


# ----------------------------------------------------------------------
# Metrics control op + structured request logs
# ----------------------------------------------------------------------
class TestMetricsOp:
    def test_metrics_snapshot_schema(self):
        lines = _stream("hom", 3, seed=2)

        async def body(service):
            await _answer_all(service, lines)
            return await _control(service, {"op": "metrics"})

        response = _with_service(body, workers=1)
        assert response["ok"] is True and response["op"] == "metrics"
        metrics = response["metrics"]
        # The documented namespaced schema, across every layer.
        assert metrics["service.requests"] == 3
        assert metrics["service.errors"] == 0
        assert metrics["service.requests.kind.hom-count"] == 3
        assert metrics["session.tasks.evaluated"] == 3
        assert metrics["engine.memo.misses"] >= 1
        assert metrics["engine.targets.compiled"] >= 1
        assert metrics["intern.structures"] >= 1
        assert metrics["service.workers"] == 1
        assert metrics["service.uptime_s"] >= 0
        # The per-request latency histogram, with log2 bucket labels.
        latency = metrics["service.request.latency_us"]
        assert latency["count"] == 3
        assert latency["sum"] > 0
        assert sum(latency["buckets"].values()) == 3
        assert all(le == str(int(le)) for le in latency["buckets"])

    def test_metrics_prometheus_exposition(self):
        line = _stream("hom", 1, seed=2)[0]

        async def body(service):
            await _answer_all(service, [line])
            return await _control(service, {"op": "metrics",
                                            "format": "prometheus"})

        response = _with_service(body, workers=1)
        assert response["format"] == "prometheus"
        text = response["exposition"]
        assert "# TYPE service_requests counter" in text
        assert "service_requests 1" in text
        assert "engine_memo_hits" in text
        assert 'service_request_latency_us_bucket{le="+Inf"} 1' in text

    def test_flat_stats_is_the_metrics_view(self):
        line = _stream("hom", 1, seed=2)[0]

        async def body(service):
            await _answer_all(service, [line])
            flat = (await _control(service, {"op": "metrics"}))["metrics"]
            nested = (await _control(service, {"op": "stats"}))["stats"]
            return flat, nested

        flat, nested = _with_service(body, workers=1)
        assert flat["service.requests"] == \
            nested["service"]["requests"] == 1
        assert flat["engine.memo.hits"] == \
            nested["session"]["engine.memo.hits"]

    def test_store_gauges_are_not_summed_over_workers(self, tmp_path):
        path = str(tmp_path / "store")
        _serve_lines(_stream("hom", 8, seed=4), workers=1,
                     store_path=path, shards=4)
        with TieredHomStore(path) as store:
            rows = store.stats()["counts"]
        assert rows > 0

        async def body(service):
            return (
                (await _control(service, {"op": "metrics"}))["metrics"],
                (await _control(service, {"op": "metrics",
                                          "format": "prometheus"}))
                ["exposition"])

        # Both workers open the store and report its gauges: a sum
        # would read 8 shards and twice the rows.
        metrics, text = _with_service(body, workers=2, store_path=path)
        assert metrics["store.shards"] == 4
        assert metrics["store.counts"] == rows
        assert "store.exists" in metrics
        assert "store.tier.entries" in metrics
        assert "# TYPE store_shards gauge" in text

    def test_drain_op_flips_shutdown(self):
        async def body(service):
            response = await _control(service, {"op": "drain"})
            return response, service.draining

        response, draining = _with_service(body, workers=1)
        assert response == {"draining": True, "ok": True, "op": "drain"}
        assert draining


class TestRequestLog:
    def test_log_lines_carry_request_ids_and_phases(self):
        sink = io.StringIO()
        logger = StructuredLogger(stream=sink, component="repro.serve")
        out, _ = _serve_lines(_stream("hom", 2, seed=3), workers=1,
                              logger=logger)
        # Protocol output never gains log lines (byte-parity).
        assert all(json.loads(line)["ok"] for line in out)
        records = [json.loads(line)
                   for line in sink.getvalue().splitlines()]
        assert len(records) == 2
        ids = {record["request_id"] for record in records}
        assert len(ids) == 2
        for record in records:
            assert record["request_id"].startswith("req-")
            assert record["event"] == "request"
            assert record["kind"] == "hom-count"
            assert record["ok"] is True
            assert record["elapsed_ms"] >= 0
            assert "parse" in record["phases"]

    def test_no_logger_means_no_log_lines(self, capsys):
        _serve_lines(_stream("hom", 1, seed=3), workers=1)
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# DaemonClient over a live TCP daemon
# ----------------------------------------------------------------------
class TestDaemonClient:
    def test_tcp_round_trips_and_drain(self):
        with AsyncDaemonHandle(workers=2) as handle:
            host, port = handle.address
            client = DaemonClient(host=host, port=port, timeout=10)
            try:
                assert client.ping() == {"ok": True, "op": "ping"}

                task = canonical_json(make_hom_count_task(
                    "client-1", path_structure(["R"]), clique_structure(3)))
                answer = client.request_line(task)
                assert answer["ok"] is True and answer["count"] == "6"

                stats = client.stats()
                assert stats["stats"]["service"]["requests"] == 1

                metrics = client.metrics()["metrics"]
                assert metrics["service.requests"] == 1
                assert metrics["session.tasks.evaluated"] == 1
                assert metrics["service.request.latency_us"]["count"] == 1

                exposition = client.metrics(format="prometheus")["exposition"]
                assert "service_requests 1" in exposition

                drained = client.drain()
                assert drained == {"draining": True, "ok": True,
                                   "op": "drain"}
            finally:
                client.close()
            handle._thread.join(timeout=10)
            assert not handle._thread.is_alive()

        with pytest.raises(ReproError):
            client.ping()

    def test_unreachable_daemon_is_a_clean_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = DaemonClient(port=free_port, timeout=0.5)
        with pytest.raises(ReproError, match="cannot reach daemon"):
            client.ping()


# ----------------------------------------------------------------------
# CLI front-end
# ----------------------------------------------------------------------
class TestServeCli:
    def test_stdio_serve_command(self):
        # A subprocess: the stdio front end reads fd 0 itself, so a
        # patched sys.stdin would not reach it.
        lines = _stream("hom", 3, seed=1) + ['{"op": "shutdown"}']
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "start", "--workers",
             "2"],
            input="\n".join(lines) + "\n", capture_output=True, text=True,
            env=env, timeout=120)
        assert completed.returncode == 0, completed.stderr
        out_lines = completed.stdout.splitlines()
        assert len(out_lines) == 4
        assert all(json.loads(line) for line in out_lines)
        assert "repro serve:" in completed.stderr
        assert "3 requests" in completed.stderr

    def test_http_port_without_port_is_refused(self, capsys):
        from repro.cli import main

        # Refused before any worker starts: the stdio front end has no
        # HTTP facade to bind.
        assert main(["serve", "start", "--http-port", "7783"]) == 2
        assert "--http-port requires --port" in capsys.readouterr().err


# ----------------------------------------------------------------------
# stdio backpressure (bounded answer queue)
# ----------------------------------------------------------------------
class TestStdioBackpressure:
    def test_slow_consumer_stalls_the_reader(self):
        """When the sink stops draining, the answers not yet written
        fill their bounded queue and the *reader* stalls — memory stays
        bounded instead of buffering the whole stream's responses."""
        total = 40
        lines = _stream("hom", total, seed=13)
        consumed = []
        gate = threading.Event()

        class StallingSink:
            def write(self, text: str) -> None:
                if not gate.wait(timeout=30):  # pragma: no cover
                    raise TimeoutError("test gate never opened")
                consumed.append(text)

            def flush(self) -> None:
                pass

        produced = []

        def source():
            for line in lines:
                produced.append(line)
                yield line + "\n"

        done = []
        thread = threading.Thread(
            target=lambda: done.append(
                _serve(source(), StallingSink(), workers=1)[0]),
            daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and len(produced) < 6:
                time.sleep(0.01)
            time.sleep(0.2)  # give a runaway reader time to overshoot
            stalled_at = len(produced)
        finally:
            gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        # The writer holds one answer, the queue one tenant window's
        # worth, and the reader one more line before it stalls.
        assert stalled_at <= TenantQuota.max_inflight + 2, (
            f"reader consumed {stalled_at} of {total} lines while the "
            f"consumer was stalled — no backpressure")
        assert done == [total]
        assert len(consumed) == total

    def test_failing_sink_ends_the_stream_with_its_error(self):
        class BrokenSink:
            def write(self, text: str) -> None:
                raise BrokenPipeError("the consumer went away")

            def flush(self) -> None:
                pass

        lines = _stream("hom", 40, seed=13)
        with pytest.raises(BrokenPipeError):
            _serve(iter(line + "\n" for line in lines), BrokenSink(),
                   workers=1)
