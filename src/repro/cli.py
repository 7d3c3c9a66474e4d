"""Command-line front end: ``repro-determinacy`` / ``python -m repro``.

Command tree
------------
Commands are grouped by what they operate on — decision procedures,
benchmarks, batch streams, the persistent cache, and the resident
daemon — with verbs underneath (the ``kubectl``-style noun/verb idiom):

``decide cq``     decide boolean-CQ bag-determinacy, print verdict,
                  rewriting or witness summary.
``decide path``   decide path-query determinacy (both semantics),
                  print the certificate path or the reachable set.
``decide ucq``    try the linear certificate for boolean UCQs.
``report``        full markdown report for a CQ instance.
``hilbert``       build the Appendix-A reduction for a polynomial and
                  search for a bounded counterexample.
``bench run``     run the engine micro-benchmarks; ``--json`` writes
                  machine-readable timings to ``BENCH_engine.json`` so
                  successive PRs can track the perf trajectory.
``bench check``   compare a fresh bench report against a baseline and
                  fail on architecture-level regressions (the same
                  gate CI runs).
``batch gen``     synthesize JSONL scenario files.
``batch run``     evaluate a JSONL task stream across worker processes
                  with a persistent hom-count cache.
``cache info``    row counts (and shard layout) of a persistent
                  hom-count store; ``--json`` for the full report.
``cache flush``   delete every persisted answer from a store.
``cache merge``   merge several stores (files or shard directories)
                  into one — how N replicas' caches become one.
``cache compact`` VACUUM a store's files to their minimal size.
``cache warm-pack`` export the most recently recorded answers as a
                  compact pack that ``serve start --preload-pack``
                  ships into a cold replica.
``serve start``   resident mode: a long-running daemon answering the
                  batch task codec over stdio (default) or TCP, with
                  warm per-tenant sessions in worker processes (one
                  per usable CPU), priorities, backpressure, and an
                  optional ``--http-port`` HTTP/WebSocket facade.
``serve ping``    liveness probe against a running TCP daemon.
``serve stats``   nested statistics (service, summed worker counters,
                  tenants, workers) from a running daemon.
``serve metrics`` full namespaced metrics snapshot (``--prometheus``
                  for text exposition) from a running daemon.
``serve drain``   ask a running daemon to stop accepting new requests
                  and exit after in-flight ones finish.
``serve load``    closed-loop load run against a running daemon:
                  throughput + p50/p99 latency at N concurrent
                  clients over a chosen transport.

The management verbs (``ping``/``stats``/``metrics``/``drain``) share
one client context — ``--host``/``--port``/``--timeout`` — and speak
the same JSONL control protocol the daemon serves inline
(``{"op": "stats"}`` request lines).

The pre-grouping flat spellings (``decide-cq``, ``decide-path``,
``certify-ucq``, bare ``bench``/``serve``, ``batch cache``) keep
working as hidden deprecated aliases: they are rewritten to the
grouped form before parsing and print one deprecation notice per
process on stderr.

Examples
--------
::

    repro-determinacy decide cq --view "R(x,y)" --view "S(x,y)" \
        --query "R(x,y), S(u,v)"
    repro-determinacy decide path --view A.B --view B --query A
    repro-determinacy decide ucq --view "P(x)" --view "P(x) or R(x)" \
        --query "R(x)"
    repro-determinacy hilbert --monomial "1:x^2" --monomial="-2:y^2" \
        --bound 10
    repro-determinacy serve start --port 7777 --workers 4 &
    repro-determinacy serve metrics --port 7777 --prometheus

(Monomials with negative coefficients need the ``--monomial=...`` form,
otherwise argparse mistakes ``-2:y^2`` for a flag.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.queries.parser import parse_boolean_cq, parse_path, parse_ucq
from repro.core.decision import decide_bag_determinacy
from repro.core.pathdet import decide_path_determinacy
from repro.core.report import render_report
from repro.ucq.analysis import linear_certificate, semidecide_reduction_determinacy
from repro.ucq.hilbert import DiophantineInstance, Monomial
from repro.ucq.reduction import build_reduction


# ----------------------------------------------------------------------
# Legacy flat spellings (hidden deprecated aliases)
# ----------------------------------------------------------------------
# Old flat command -> grouped replacement.  Handled before argparse ever
# sees the argv, so the aliases stay out of --help while every existing
# script, CI job and doc example keeps working.
_LEGACY_COMMANDS = {
    "decide-cq": ["decide", "cq"],
    "decide-path": ["decide", "path"],
    "certify-ucq": ["decide", "ucq"],
}

# Groups whose bare legacy spelling (``repro serve --port N``) now needs
# a verb: anything that is not one of the group's verbs gets the default
# verb spliced in.
_GROUP_VERBS = {
    "serve": ("start", "ping", "stats", "metrics", "drain", "load"),
    "bench": ("run", "check"),
}
_GROUP_DEFAULTS = {"serve": "start", "bench": "run"}

_DEPRECATION_WARNED = False


def _warn_deprecated(old: str, new: str) -> None:
    """One deprecation notice per process, on stderr (never stdout —
    the serve/batch protocol streams own stdout byte-for-byte)."""
    global _DEPRECATION_WARNED
    if _DEPRECATION_WARNED:
        return
    _DEPRECATION_WARNED = True
    print(f"repro: '{old}' is deprecated; use '{new}'", file=sys.stderr)


def _rewrite_legacy(argv: List[str]) -> List[str]:
    """Map pre-grouping flat spellings onto the grouped command tree."""
    if not argv:
        return argv
    head, rest = argv[0], argv[1:]
    if head in _LEGACY_COMMANDS:
        replacement = _LEGACY_COMMANDS[head]
        _warn_deprecated(head, " ".join(["repro"] + replacement))
        return replacement + rest
    if head == "batch" and rest[:1] == ["cache"]:
        _warn_deprecated("batch cache", "repro cache info")
        return ["cache", "info"] + rest[1:]
    if head in _GROUP_VERBS:
        nxt = rest[0] if rest else None
        if nxt in _GROUP_VERBS[head] or nxt in ("-h", "--help"):
            return argv
        default = _GROUP_DEFAULTS[head]
        _warn_deprecated(head, f"repro {head} {default}")
        return [head, default] + rest
    return argv


# ----------------------------------------------------------------------
# decide / report / hilbert
# ----------------------------------------------------------------------
def _cmd_decide_cq(args: argparse.Namespace) -> int:
    views = [parse_boolean_cq(text) for text in args.view]
    query = parse_boolean_cq(args.query)
    result = decide_bag_determinacy(views, query)
    print("DETERMINED" if result.determined else "NOT DETERMINED")
    print(result.explain())
    if not result.determined and args.witness:
        pair = result.witness()
        print(pair.explain())
        report = pair.verify()
        print(f"witness verified: {report.ok} "
              f"(q answers {report.query_answers[0]} vs {report.query_answers[1]})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    views = [parse_boolean_cq(text) for text in args.view]
    query = parse_boolean_cq(args.query)
    print(render_report(views, query))
    return 0


def _cmd_decide_path(args: argparse.Namespace) -> int:
    views = [parse_path(text) for text in args.view]
    query = parse_path(args.query)
    result = decide_path_determinacy(views, query)
    print("DETERMINED (set ⟺ bag, Theorem 1)" if result.determined
          else "NOT DETERMINED (set ⟺ bag, Theorem 1)")
    print(result.explain())
    return 0


def _cmd_decide_ucq(args: argparse.Namespace) -> int:
    views = [parse_ucq(text) for text in args.view]
    query = parse_ucq(args.query)
    certificate = linear_certificate(views, query)
    if certificate is None:
        print("NO LINEAR CERTIFICATE (determinacy status unknown — "
              "the problem is undecidable, Theorem 2)")
        return 1
    print("DETERMINED via linear identity:")
    print(certificate.explain())
    return 0


def _parse_monomial(text: str) -> Monomial:
    """``"-2:x^2*y"`` → Monomial(-2, {x:2, y:1}); ``"3:"`` is constant 3."""
    head, _, tail = text.partition(":")
    coefficient = int(head)
    exponents = {}
    if tail.strip():
        for factor in tail.split("*"):
            name, _, power = factor.strip().partition("^")
            exponents[name] = int(power) if power else 1
    return Monomial(coefficient, exponents)


def _cmd_hilbert(args: argparse.Namespace) -> int:
    instance = DiophantineInstance([_parse_monomial(t) for t in args.monomial])
    reduction = build_reduction(instance)
    print(reduction.summary())
    verdict, witness = semidecide_reduction_determinacy(reduction, args.bound)
    if verdict == "not-determined":
        print(f"NOT DETERMINED: solution {witness.solution} gives structures "
              f"with q(D) = {witness.query_answers[0]} ≠ "
              f"{witness.query_answers[1]} = q(D')")
    else:
        print(f"no counterexample with unknowns ≤ {args.bound}; "
              f"V →bag q iff the polynomial has no natural solution at all")
    return 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.benchsuite import format_report, run_benchmarks, write_report

    if args.json or args.output is not None:
        path = args.output or "BENCH_engine.json"
        report = write_report(path=path, repeat=args.repeat)
        print(f"wrote {path}")
    else:
        report = run_benchmarks(repeat=args.repeat)
    print(format_report(report))
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.benchsuite import compare_reports, load_report, render_gate

    baseline = load_report(args.baseline)
    current = load_report(args.current)
    lines, failures = compare_reports(baseline, current,
                                      args.factor, args.slack)
    print(render_gate(lines, failures, args.factor, args.slack))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
def _cmd_batch_gen(args: argparse.Namespace) -> int:
    from repro.batch.scenarios import generate_scenario, write_scenario

    tasks = generate_scenario(args.kind, args.count, seed=args.seed)
    if args.output == "-":
        write_scenario(tasks, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as sink:
            written = write_scenario(tasks, sink)
        print(f"wrote {written} {args.kind} tasks to {args.output}")
    return 0


def _cmd_batch_run(args: argparse.Namespace) -> int:
    from repro.batch.runner import run_batch

    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults.inject import FaultPlan

        fault_plan = FaultPlan.from_file(args.fault_plan).to_spec()
    if args.cache is None and args.shards is not None:
        raise ReproError("--shards requires --cache")
    summary = run_batch(
        args.input,
        args.output,
        workers=args.workers,
        cache_path=args.cache,
        chunk_size=args.chunk_size,
        preload=args.preload_limit,
        resume=args.resume,
        max_retries=args.max_retries,
        fault_plan=fault_plan,
        chunk_timeout=args.chunk_timeout,
        shards=args.shards,
    )
    print(
        f"batch: {summary['written']} results written "
        f"({summary['skipped']} resumed, {summary['errors']} task errors, "
        f"{summary['quarantined']} quarantined, {summary['tasks']} tasks "
        f"seen)",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def _open_cache(path: str):
    import os

    from repro.batch.store import TieredHomStore

    if not os.path.exists(path):
        # Opening would silently create an empty store — a typo'd path
        # must not be indistinguishable from an empty cache.
        raise ReproError(f"no such cache file: {path}")
    return TieredHomStore(path)


def _cmd_cache_info(args: argparse.Namespace) -> int:
    with _open_cache(args.cache) as store:
        info = store.info()
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"{args.cache}: {info['counts']} persisted hom counts, "
              f"{info['exists']} existence verdicts")
        tier = info["tier"]
        print(f"  schema v{info['schema_version']}, "
              f"{info['shards']} shards, memory tier "
              f"{tier['entries']}/{tier['capacity']} entries")
        for shard in info["shard_files"]:
            print(f"  shard {shard['index']:03d}: "
                  f"{shard['counts']} counts, {shard['exists']} exists, "
                  f"{shard['bytes']} bytes")
    return 0


def _cmd_cache_flush(args: argparse.Namespace) -> int:
    with _open_cache(args.cache) as store:
        removed = store.clear()
    print(f"{args.cache}: flushed {removed} persisted answers")
    return 0


def _cmd_cache_merge(args: argparse.Namespace) -> int:
    from repro.batch.store import TieredHomStore, copy_rows

    with TieredHomStore(args.into, shards=args.shards) as destination:
        total = 0
        for source_path in args.sources:
            with _open_cache(source_path) as source:
                moved = copy_rows(source, destination)
            print(f"{source_path}: merged {moved} rows", file=sys.stderr)
            total += moved
        counts = destination.counts_len()
        exists = destination.exists_len()
    print(f"{args.into}: {total} rows merged "
          f"({counts} counts, {exists} verdicts persisted)")
    return 0


def _cmd_cache_compact(args: argparse.Namespace) -> int:
    with _open_cache(args.cache) as store:
        sizes = store.compact()
    print(f"{args.cache}: compacted {sizes['bytes_before']} -> "
          f"{sizes['bytes_after']} bytes")
    return 0


def _cmd_cache_warm_pack(args: argparse.Namespace) -> int:
    from repro.batch.store import export_warm_pack

    with _open_cache(args.cache) as store:
        rows = export_warm_pack(store, args.output, limit=args.limit)
    print(f"{args.output}: packed {rows} rows from {args.cache}")
    return 0


# ----------------------------------------------------------------------
# serve (daemon + management client)
# ----------------------------------------------------------------------
def _cmd_serve_start(args: argparse.Namespace) -> int:
    """The daemon: answers on stdio, or on TCP with ``--port`` (plus
    the HTTP/WebSocket facade with ``--http-port``)."""
    import asyncio
    import signal

    from repro.obs import StructuredLogger
    from repro.service import (
        AsyncSolverService,
        serve_async_stdio,
        serve_async_tcp,
    )

    if args.cache is None and (args.shards is not None
                               or args.preload_pack is not None):
        raise ReproError("--shards/--preload-pack require --cache")
    if args.http_port is not None and args.port is None:
        raise ReproError("--http-port requires --port (the HTTP/WebSocket "
                         "facade rides the TCP front end)")
    logger = None if args.no_request_log else \
        StructuredLogger(component="repro.serve")
    service = AsyncSolverService(
        workers=args.workers, max_queue=args.max_queue,
        store_path=args.cache, shards=args.shards,
        preload_pack=args.preload_pack,
        strategy=args.strategy, preload=args.preload, logger=logger,
        request_deadline_ms=args.request_deadline_ms,
        max_inflight=args.tenant_max_inflight)

    def _graceful(signum, frame):  # noqa: ARG001 — signal signature
        service.request_drain()

    async def _tcp() -> None:
        try:
            await serve_async_tcp(service, host=args.host, port=args.port,
                                  http_port=args.http_port)
        finally:
            await service.aclose()

    async def _stdio() -> None:
        try:
            await serve_async_stdio(service)
        finally:
            await service.aclose()

    previous = signal.signal(signal.SIGTERM, _graceful)
    try:
        if args.port is not None:
            facade = (f" + http :{args.http_port}"
                      if args.http_port is not None else "")
            print(f"repro serve: async listening on "
                  f"{args.host}:{args.port}{facade} "
                  f"({service.workers} workers)", file=sys.stderr)
            asyncio.run(_tcp())
        else:
            asyncio.run(_stdio())
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        report = service.stats()
        counters = report["session"]  # summed over the workers' sessions
        svc = report["service"]  # type: ignore[index]
        print(
            f"repro serve: {svc['requests']} requests "
            f"({svc['errors']} errors, {svc['overloaded']} overloaded) "
            f"in {svc['uptime_s']}s across "
            f"{len(report['tenants'])} tenant(s); "  # type: ignore[arg-type]
            f"memo hits {counters.get('engine.memo.hits', 0)}"
            f"+{counters.get('engine.exists.hits', 0)}, "
            f"misses {counters.get('engine.memo.misses', 0)}"
            f"+{counters.get('engine.exists.misses', 0)}",
            file=sys.stderr,
        )
    return 0


def _client(args: argparse.Namespace):
    from repro.service import DaemonClient

    return DaemonClient(host=args.host, port=args.port, timeout=args.timeout)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_serve_ping(args: argparse.Namespace) -> int:
    client = _client(args)
    if getattr(args, "wait", None) is not None:
        waited = client.wait_until_ready(timeout=args.wait)
        print(f"repro serve: ready after {waited:.3f}s", file=sys.stderr)
    _print_json(client.ping())
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    _print_json(_client(args).stats())
    return 0


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.prometheus:
        response = client.metrics(format="prometheus")
        exposition = response.get("exposition")
        if not isinstance(exposition, str):
            raise ReproError(
                f"daemon did not return an exposition: {response!r}")
        sys.stdout.write(exposition)
        return 0
    _print_json(client.metrics())
    return 0


def _cmd_serve_drain(args: argparse.Namespace) -> int:
    _print_json(_client(args).drain())
    return 0


def _cmd_serve_load(args: argparse.Namespace) -> int:
    """Closed-loop load run against a running daemon; JSON summary."""
    from repro.service.loadgen import default_task_lines, run_load

    report = run_load(
        args.host, args.port,
        default_task_lines(args.tasks, seed=args.seed),
        clients=args.clients,
        requests_per_client=args.requests,
        transport=args.transport,
        timeout=args.timeout)
    _print_json(report.summary())
    if report.errors and not args.allow_errors:
        print(f"repro serve load: {report.errors} request(s) errored",
              file=sys.stderr)
        return 1
    if args.max_p99_ms is not None and report.p99_ms > args.max_p99_ms:
        print(f"repro serve load: p99 {report.p99_ms:.3f}ms exceeds "
              f"bound {args.max_p99_ms}ms", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-determinacy",
        description="Bag-semantics query determinacy (PODS 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ---------------------------------------------------------- decide
    decide = sub.add_parser(
        "decide", help="determinacy decision procedures")
    decide_sub = decide.add_subparsers(dest="decide_command", required=True)

    cq = decide_sub.add_parser(
        "cq", help="boolean CQ determinacy (Theorem 3)")
    cq.add_argument("--view", action="append", default=[], metavar="CQ")
    cq.add_argument("--query", required=True, metavar="CQ")
    cq.add_argument("--witness", action="store_true",
                    help="construct and verify a counterexample when not determined")
    cq.set_defaults(handler=_cmd_decide_cq)

    path = decide_sub.add_parser(
        "path", help="path query determinacy (Theorem 1)")
    path.add_argument("--view", action="append", default=[], metavar="WORD")
    path.add_argument("--query", required=True, metavar="WORD")
    path.set_defaults(handler=_cmd_decide_path)

    ucq = decide_sub.add_parser(
        "ucq", help="linear certificate for boolean UCQs")
    ucq.add_argument("--view", action="append", default=[], metavar="UCQ")
    ucq.add_argument("--query", required=True, metavar="UCQ")
    ucq.set_defaults(handler=_cmd_decide_ucq)

    report = sub.add_parser("report", help="full markdown report for a CQ instance")
    report.add_argument("--view", action="append", default=[], metavar="CQ")
    report.add_argument("--query", required=True, metavar="CQ")
    report.set_defaults(handler=_cmd_report)

    hilbert = sub.add_parser("hilbert", help="Appendix-A reduction explorer")
    hilbert.add_argument("--monomial", action="append", required=True,
                         metavar="C:VARS", help='e.g. "-2:x^2*y"')
    hilbert.add_argument("--bound", type=int, default=10)
    hilbert.set_defaults(handler=_cmd_hilbert)

    # ----------------------------------------------------------- bench
    bench = sub.add_parser("bench", help="engine micro-benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run the micro-benchmark suite")
    bench_run.add_argument("--json", action="store_true",
                           help="write machine-readable timings to "
                                "BENCH_engine.json (or --output PATH)")
    bench_run.add_argument("--output", default=None, metavar="PATH",
                           help="write the JSON report to PATH (implies --json)")
    bench_run.add_argument("--repeat", type=int, default=3,
                           help="timing repetitions (best-of)")
    bench_run.set_defaults(handler=_cmd_bench_run)

    bench_check = bench_sub.add_parser(
        "check", help="compare a bench report against a baseline "
                      "(the CI regression gate)")
    bench_check.add_argument("--baseline", default="BENCH_engine.json",
                             metavar="PATH",
                             help="checked-in report "
                                  "(default: BENCH_engine.json)")
    bench_check.add_argument("--current", required=True, metavar="PATH",
                             help="freshly produced report to judge")
    bench_check.add_argument("--factor", type=float, default=2.0,
                             help="allowed slowdown factor (default: 2.0)")
    bench_check.add_argument("--slack", type=float, default=0.005,
                             help="additive slack in seconds (default: 0.005)")
    bench_check.set_defaults(handler=_cmd_bench_check)

    # ----------------------------------------------------------- batch
    batch = sub.add_parser(
        "batch", help="throughput mode: evaluate JSONL task streams")
    batch_sub = batch.add_subparsers(dest="batch_command", required=True)

    gen = batch_sub.add_parser(
        "gen", help="synthesize a randomized scenario file")
    gen.add_argument("--kind", default="cq",
                     choices=["cq", "cq-witness", "containment", "path",
                              "ucq", "dense", "hom", "mixed"],
                     help="instance family (default: cq)")
    gen.add_argument("--count", type=int, default=100, metavar="N",
                     help="number of tasks (default: 100)")
    gen.add_argument("--seed", type=int, default=0,
                     help="RNG seed; (kind, count, seed) fixes the file")
    gen.add_argument("--output", default="-", metavar="PATH",
                     help="JSONL destination ('-' = stdout)")
    gen.set_defaults(handler=_cmd_batch_gen)

    run = batch_sub.add_parser(
        "run", help="evaluate a JSONL task stream")
    run.add_argument("--input", default="-", metavar="PATH",
                     help="JSONL task source ('-' = stdin)")
    run.add_argument("--output", default="-", metavar="PATH",
                     help="JSONL result destination ('-' = stdout)")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes (1 = run inline)")
    run.add_argument("--cache", default=None, metavar="PATH",
                     help="persistent hom-count store directory shared "
                          "by all workers and across runs (created if "
                          "absent; an old single-file store at PATH is "
                          "migrated on first open)")
    run.add_argument("--shards", type=int, default=None, metavar="N",
                     help="partition a store created at --cache into N "
                          "hash-partitioned SQLite shards (default: 8; "
                          "workers open only the shards their keys hash "
                          "into)")
    run.add_argument("--preload-limit", type=int, default=2048,
                     metavar="K",
                     help="most-recently-recorded stored counts seeded "
                          "into each worker's memo at startup "
                          "(default: 2048)")
    run.add_argument("--chunk-size", type=int, default=2, metavar="M",
                     help="tasks per scheduling chunk (default: 2)")
    run.add_argument("--resume", action="store_true",
                     help="skip task ids already answered in --output "
                          "and append the rest")
    run.add_argument("--max-retries", type=int, default=2, metavar="R",
                     help="attempts per chunk after a worker death before "
                          "bisecting/quarantining (default: 2)")
    run.add_argument("--fault-plan", default=None, metavar="PATH",
                     help="JSON fault-injection plan (chaos testing): "
                          "seeded trigger points for worker kills, store "
                          "corruption, connect flaps and engine trips")
    run.add_argument("--chunk-timeout", type=float, default=None,
                     metavar="S",
                     help="seconds before an in-flight chunk's worker is "
                          "declared hung and restarted (default: no limit)")
    run.set_defaults(handler=_cmd_batch_run)

    # ----------------------------------------------------------- cache
    cache = sub.add_parser(
        "cache", help="manage the persistent hom-count store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    info = cache_sub.add_parser(
        "info", help="row counts (and shard layout) of a store")
    info.add_argument("--cache", required=True, metavar="PATH")
    info.add_argument("--json", action="store_true",
                      help="full machine-readable report: per-shard row "
                           "counts, file sizes, schema version, "
                           "memory tier occupancy")
    info.set_defaults(handler=_cmd_cache_info)

    flush = cache_sub.add_parser(
        "flush", help="delete every persisted answer from a store")
    flush.add_argument("--cache", required=True, metavar="PATH")
    flush.set_defaults(handler=_cmd_cache_flush)

    merge = cache_sub.add_parser(
        "merge", help="merge stores into one")
    merge.add_argument("sources", nargs="+", metavar="SRC",
                       help="stores to merge rows from")
    merge.add_argument("--into", required=True, metavar="DEST",
                       help="destination store; created if absent "
                            "(existing rows win on key collisions)")
    merge.add_argument("--shards", type=int, default=None, metavar="N",
                       help="shard count when DEST is created by this "
                            "merge (default: 8; ignored for an existing "
                            "store, which keeps its layout)")
    merge.set_defaults(handler=_cmd_cache_merge)

    compact = cache_sub.add_parser(
        "compact", help="VACUUM a store's files to their minimal size")
    compact.add_argument("--cache", required=True, metavar="PATH")
    compact.set_defaults(handler=_cmd_cache_compact)

    warm_pack = cache_sub.add_parser(
        "warm-pack",
        help="export the most recently recorded answers as a compact "
             "warm-start pack (consumed by serve start --preload-pack)")
    warm_pack.add_argument("--cache", required=True, metavar="PATH")
    warm_pack.add_argument("--output", required=True, metavar="PATH",
                           help="pack destination (JSONL)")
    warm_pack.add_argument("--limit", type=int, default=None, metavar="K",
                           help="at most K rows, newest first "
                                "(default: all)")
    warm_pack.set_defaults(handler=_cmd_cache_warm_pack)

    # ----------------------------------------------------------- serve
    serve = sub.add_parser(
        "serve", help="resident solver daemon and its management client")
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    start = serve_sub.add_parser(
        "start", help="run the daemon (stdio by default, TCP with --port)")
    start.add_argument("--host", default="127.0.0.1",
                       help="bind address for TCP mode (default: 127.0.0.1)")
    start.add_argument("--port", type=int, default=None, metavar="N",
                       help="listen on TCP port N; omitted = stdio mode "
                            "(read requests from stdin, answer on stdout)")
    start.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes holding the tenants' "
                            "sessions (default: the CPUs this process may "
                            "use)")
    start.add_argument("--cache", default=None, metavar="PATH",
                       help="persistent hom-count store directory shared "
                            "by every session (created if absent; an old "
                            "single-file store at PATH is migrated on "
                            "first open)")
    start.add_argument("--shards", type=int, default=None, metavar="N",
                       help="partition a store created at --cache into N "
                            "hash-partitioned SQLite shards (default: 8)")
    start.add_argument("--preload-pack", default=None, metavar="PATH",
                       help="warm-start pack (cache warm-pack) imported "
                            "into the store before serving")
    start.add_argument("--preload", type=int, default=2048, metavar="K",
                       help="stored counts seeded into each new session's "
                            "memo when --cache is given (default: 2048)")
    start.add_argument("--strategy", default="auto",
                       choices=["auto", "backtrack", "dp"],
                       help="counting-backend override for the sessions")
    start.add_argument("--no-request-log", action="store_true",
                       help="disable the per-request structured JSON log "
                            "lines on stderr")
    start.add_argument("--request-deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="default wall-clock budget per request; an "
                            "over-budget request is answered with a "
                            "structured budget-exceeded error instead of "
                            "stalling its worker (requests may still set "
                            "their own deadline_ms)")
    # Accepted and ignored: scripts written when this daemon was opt-in
    # still pass it.
    start.add_argument("--async", action="store_true",
                       help=argparse.SUPPRESS)
    start.add_argument("--http-port", type=int, default=None, metavar="N",
                       help="with --port: also serve the HTTP/WebSocket "
                            "facade (GET /healthz, GET /metrics, POST "
                            "/task, GET /ws) on port N")
    start.add_argument("--max-queue", type=int, default=256, metavar="N",
                       help="dispatch-queue bound; requests beyond it are "
                            "answered with a structured overloaded record "
                            "(default: 256)")
    start.add_argument("--tenant-max-inflight", type=int, default=None,
                       metavar="N",
                       help="default per-tenant in-flight admission quota "
                            "(default: 8; tenants may override via the "
                            "hello op)")
    start.set_defaults(handler=_cmd_serve_start)

    # Shared client context for the management verbs: every one of them
    # dials the same daemon address, so the connection options live in
    # one parent parser instead of four copies.
    client_opts = argparse.ArgumentParser(add_help=False)
    client_opts.add_argument("--host", default="127.0.0.1",
                             help="daemon address (default: 127.0.0.1)")
    client_opts.add_argument("--port", type=int, required=True, metavar="N",
                             help="daemon TCP port")
    client_opts.add_argument("--timeout", type=float, default=10.0,
                             metavar="S",
                             help="connection timeout in seconds "
                                  "(default: 10)")

    ping = serve_sub.add_parser(
        "ping", parents=[client_opts],
        help="liveness probe against a running daemon")
    ping.add_argument("--wait", type=float, default=None, metavar="S",
                      help="poll until the daemon answers (up to S "
                           "seconds) instead of failing on the first "
                           "refused connection — startup rendezvous for "
                           "scripts and CI")
    ping.set_defaults(handler=_cmd_serve_ping)

    stats = serve_sub.add_parser(
        "stats", parents=[client_opts],
        help="nested statistics from a running daemon")
    stats.set_defaults(handler=_cmd_serve_stats)

    metrics = serve_sub.add_parser(
        "metrics", parents=[client_opts],
        help="namespaced metrics snapshot from a running daemon")
    metrics.add_argument("--prometheus", action="store_true",
                         help="print Prometheus text exposition instead "
                              "of JSON")
    metrics.set_defaults(handler=_cmd_serve_metrics)

    drain = serve_sub.add_parser(
        "drain", parents=[client_opts],
        help="stop a running daemon after in-flight requests finish")
    drain.set_defaults(handler=_cmd_serve_drain)

    load = serve_sub.add_parser(
        "load", parents=[client_opts],
        help="closed-loop load run against a running daemon "
             "(throughput + p50/p99 latency at N concurrent clients)")
    load.add_argument("--clients", type=int, default=16, metavar="N",
                      help="concurrent closed-loop clients (default: 16)")
    load.add_argument("--requests", type=int, default=25, metavar="N",
                      help="requests per client (default: 25)")
    load.add_argument("--transport", default="persistent",
                      choices=["per-request", "persistent", "ws"],
                      help="per-request = dial per request (legacy "
                           "client); persistent = one reused connection "
                           "per client; ws = WebSocket via --http-port "
                           "(default: persistent)")
    load.add_argument("--tasks", type=int, default=8, metavar="N",
                      help="distinct task lines cycled through "
                           "(default: 8)")
    load.add_argument("--seed", type=int, default=2024, metavar="S",
                      help="scenario seed for the task lines")
    load.add_argument("--max-p99-ms", type=float, default=None,
                      metavar="MS",
                      help="exit non-zero when p99 latency exceeds MS")
    load.add_argument("--allow-errors", action="store_true",
                      help="tolerate overload rejections (stress runs) "
                           "instead of exiting non-zero")
    load.set_defaults(handler=_cmd_serve_load)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_rewrite_legacy(list(argv)))
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (``repro serve metrics ... | head``)
        # — not an error.  Point stdout at devnull so the interpreter's
        # shutdown flush does not raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
