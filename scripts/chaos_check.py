#!/usr/bin/env python
"""Chaos lane: one seeded fault plan exercised across every subsystem.

CI entry point for the fault-tolerance contract (DESIGN.md §14).  One
run asserts, against a single seeded :class:`repro.faults.FaultPlan`:

* **worker kills** — a poisoned task repeatedly kills its batch worker
  (``os._exit`` mid-chunk); the runner replaces that worker, retries
  and bisects the chunk and quarantines exactly that task, and every
  surviving result is byte-identical to a fault-free run;
* **store corruption** — an injected ``sqlite3.DatabaseError`` on the
  first store lookup quarantines the damaged shard file to
  ``<cache>/shard-NNN.sqlite.corrupt-<ts>`` and recreates the schema,
  without failing a single task;
* **connect flaps** — two injected connection refusals against a live
  daemon are absorbed by the client's retry/backoff loop;
* **deadlines** — a pinned adversarial request (``K7 → K25`` under
  ``deadline_ms=50``) comes back as a structured ``budget-exceeded``
  error in well under 500 ms and does not poison later requests;
* **daemon worker kills** — the poisoned task kills its
  ``serve start`` worker process (``os._exit``); that request
  alone is answered with a deterministic ``worker-crash`` record, every
  other answer is byte-identical to a clean run, a fresh worker takes
  over, and the daemon keeps serving, then drains and exits 0.

Exits nonzero with a labeled message on the first violated assertion.

Usage::

    PYTHONPATH=src python scripts/chaos_check.py
"""

from __future__ import annotations

import glob
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, "src")

from repro.batch.runner import iter_results, run_batch  # noqa: E402
from repro.batch.scenarios import generate_scenario, write_scenario  # noqa: E402
from repro.batch.tasks import canonical_json, make_hom_count_task  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultPlan,
    clear_fault_plan,
    install_fault_plan,
)
from repro.service import AsyncDaemonHandle, DaemonClient  # noqa: E402
from repro.structures.generators import clique_structure  # noqa: E402

CHAOS_SEED = 29
POISONED = "dn-00000"


def fail(message: str) -> None:
    print(f"chaos check: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def check_batch_under_faults(workdir: str) -> None:
    tasks = os.path.join(workdir, "tasks.jsonl")
    with open(tasks, "w") as sink:
        write_scenario(generate_scenario("mixed", 10, seed=11), sink)
    identifiers = [json.loads(line)["id"] for line in open(tasks)]
    if POISONED not in identifiers:
        fail(f"pinned poison task {POISONED!r} not in scenario "
             f"(ids: {identifiers})")

    clean_out = os.path.join(workdir, "clean.jsonl")
    run_batch(tasks, clean_out, workers=2, chunk_size=3,
              cache_path=os.path.join(workdir, "clean-cache.sqlite"))

    chaos_cache = os.path.join(workdir, "chaos-cache.sqlite")
    chaos_out = os.path.join(workdir, "chaos.jsonl")
    plan = {
        "seed": CHAOS_SEED,
        "worker.chunk": {"task_ids": [POISONED]},
        "store.lookup": [0],
    }
    summary = run_batch(tasks, chaos_out, workers=2, chunk_size=3,
                        cache_path=chaos_cache, fault_plan=plan)

    if summary["written"] != 10:
        fail(f"chaos batch incomplete: {summary}")
    if summary["quarantined"] != 1:
        fail(f"expected exactly 1 quarantined task, got {summary}")
    if summary["worker_restarts"] < 1:
        fail(f"expected at least one worker restart, got {summary}")

    chaos_lines = {json.loads(line)["id"]: line
                   for line in open(chaos_out)}
    quarantined = [identifier for identifier, line in chaos_lines.items()
                   if json.loads(line).get("quarantined")]
    if quarantined != [POISONED]:
        fail(f"wrong quarantine set: {quarantined}")
    for line in open(clean_out):
        identifier = json.loads(line)["id"]
        if identifier == POISONED:
            continue
        if chaos_lines[identifier] != line:
            fail(f"survivor {identifier} differs between clean and "
                 f"chaos runs")

    corpses = glob.glob(os.path.join(chaos_cache, "shard-*.sqlite.corrupt-*"))
    if not corpses:
        fail("injected store corruption left no quarantined "
             f"{chaos_cache}/shard-*.sqlite.corrupt-* file")
    print(f"chaos check: batch OK — 1 task quarantined, "
          f"{summary['worker_restarts']} worker restart(s), "
          f"{len(corpses)} corrupt store file(s) quarantined, "
          f"9 survivors byte-identical")


def check_daemon_under_faults() -> None:
    with AsyncDaemonHandle(workers=2, request_deadline_ms=5000.0) as handle:
        host, port = handle.address

        # Two injected connection refusals, absorbed by retry/backoff.
        install_fault_plan(FaultPlan({"seed": CHAOS_SEED,
                                      "client.connect": [0, 1]}))
        try:
            client = DaemonClient(host, port, retries=3)
            answer = client.ping()
        finally:
            clear_fault_plan()
        if not answer.get("ok") or client.connect_failures != 2:
            fail(f"connect-flap retry broken: answer={answer} "
                 f"failures={client.connect_failures}")

        # Pinned adversarial instance: a clique source into a big clique
        # target maximizes the counting kernels' branching.
        adversarial = make_hom_count_task(
            "adv-0",
            clique_structure(7, relation="E"),
            clique_structure(25, relation="E"))
        adversarial["deadline_ms"] = 50
        started = time.perf_counter()
        record = client.request_line(canonical_json(adversarial))
        elapsed_ms = (time.perf_counter() - started) * 1000
        if record.get("error_kind") != "budget-exceeded":
            fail(f"adversarial request was not budget-limited: {record}")
        if elapsed_ms >= 500:
            fail(f"budget-exceeded answer took {elapsed_ms:.0f}ms "
                 f"(>=500ms)")

        # Later requests are not poisoned.
        follow_up = make_hom_count_task(
            "ok-0", clique_structure(2, relation="E"),
            clique_structure(3, relation="E"))
        if not client.request_line(canonical_json(follow_up)).get("ok"):
            fail("request after budget trip failed")
        stats = client.stats()["stats"]["service"]
        if stats.get("budget_exceeded") != 1:
            fail(f"service.request.budget_exceeded miscounted: {stats}")

        client.shutdown()
        client.close()
    print(f"chaos check: daemon OK — 2 connect flaps absorbed, "
          f"budget-exceeded in {elapsed_ms:.0f}ms, follow-up clean")


def _pipeline(port: int, lines) -> list:
    """Send every line on one connection, then read every answer."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        with sock.makefile("rw", encoding="utf-8") as wire:
            for line in lines:
                wire.write(line + "\n")
            wire.flush()
            return [wire.readline().rstrip("\n") for _ in lines]


def check_async_daemon_under_faults(workdir: str) -> None:
    lines = [canonical_json(task)
             for task in generate_scenario("mixed", 10, seed=11)]
    clean = list(iter_results(lines, workers=1))
    plan = os.path.join(workdir, "serve-plan.json")
    with open(plan, "w") as sink:
        json.dump({"seed": CHAOS_SEED,
                   "serve.worker": {"task_ids": [POISONED]}}, sink)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ, REPRO_FAULT_PLAN=plan,
               PYTHONPATH=os.pathsep.join(
                   [os.path.abspath("src"), os.environ.get("PYTHONPATH", "")]))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "start",
         "--port", str(port), "--workers", "2",
         "--tenant-max-inflight", "64", "--no-request-log"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        client = DaemonClient("127.0.0.1", port)
        client.wait_until_ready(timeout=30)
        # Pipelined, so the task behind the poisoned one is already in
        # the dying worker's pipe when it exits.
        served = _pipeline(port, lines)
        poisoned = [i for i, line in enumerate(lines)
                    if json.loads(line)["id"] == POISONED]
        if len(served) != len(lines) or len(poisoned) != 1:
            fail(f"async daemon answered {len(served)}/{len(lines)} lines")
        crashed = json.loads(served[poisoned[0]])
        if crashed != {"id": POISONED, "kind": "decide-cq", "ok": False,
                       "error": "WorkerCrash: the worker process "
                                "evaluating this request exited",
                       "error_kind": "worker-crash"}:
            fail(f"killed request got {crashed}")
        for index, (answer, expected) in enumerate(zip(served, clean)):
            if index != poisoned[0] and answer != expected:
                fail(f"async survivor {json.loads(expected)['id']} differs "
                     f"from the clean run")
        survivors = [line for i, line in enumerate(lines)
                     if i != poisoned[0]]
        again = _pipeline(port, survivors)
        if again != [line for i, line in enumerate(clean)
                     if i != poisoned[0]]:
            fail("async daemon answers after the worker restart differ "
                 "from the clean run")
        restarts = client.stats()["stats"]["service"]["worker_restarts"]
        if restarts != 1:
            fail(f"expected 1 async worker restart, got {restarts}")
        client.drain()
        client.close()
        code = daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    if code != 0:
        fail(f"async daemon exited {code} after drain: "
             f"{daemon.stderr.read()[-2000:]}")
    daemon.stderr.close()
    print(f"chaos check: async daemon OK — 1 worker-crash record, "
          f"{restarts} worker restart, {len(lines) - 1} survivors and "
          f"{len(survivors)} later answers byte-identical, drained with "
          f"exit 0")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        check_batch_under_faults(workdir)
        check_async_daemon_under_faults(workdir)
    check_daemon_under_faults()
    print("chaos check: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
