"""End-to-end benchmark of the determinacy decider.

    python3 perfbench/run.py --workload batch|serve|symmetric \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark drives the program only
from outside: it launches fresh program processes (``prog.py`` under
the checkout's ``src``, or ``python -m repro serve start``), feeds them
task lines generated from the seed by ``gen.py``, checks the answers
with ``check.py`` and prints, as its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a traced run
attributes each task's time to the layers below it (``tracer.py``,
``layers.py``).  A detail record (digests, steal shares, failure
accounting per round) is printed on the line before.

Workloads (why each exists is in BENCHMARK.json):

* ``batch``: a cold ``iter_results(workers=nproc)`` run over a corpus of
  all five task kinds with a fresh sharded store, repeated in fresh
  processes for the whole window.  A task's latency runs from when the
  runner takes its line to when its result comes out.
* ``serve``: ``python -m repro serve start --async`` on a store filled
  from the corpus, driven closed-loop by ``client.py`` over nproc
  persistent connections with 4 requests in flight on each.
* ``symmetric``: one inline caller counting renamed symmetric sources,
  repeated in fresh processes; a task's latency is the caller's wait.

Set-up ends when a trivial probe task is answered (batch, symmetric)
or a ping is (serve).  Every failed answer (``ok: false``) and every
unanswered request counts as failed.

Noisy neighbours: a small shared virtual machine loses 2-50% of its
CPU time to the hypervisor (steal), in bursts lasting seconds, and a
burst slows every figure.  A sampler thread reads
``/proc/stat`` throughout, and each measured interval (a round, or a
one-second slice of a serve window) gets its steal share ``f``, and
each time in it (window, latency, set-up) is scaled by ``1 - f``: the
time the machine actually ran.  The CPUs' speed also drifts (frequency
boost, neighbours): a ``speed.py`` sampler on each CPU times a fixed
loop every 50 ms, and times are further scaled by reference / measured
speed over their interval, so every figure reads at one reference
speed.  Throughput is then the median of the intervals' rates, so a
burst the scaling leaves over moves only the intervals it hits, and
latency percentiles are over every interval's samples.  Set-up is the
median over the quiet rounds (steal within two points of the
least-stolen one, at least half of them).  Raw figures are in the
detail record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("batch", "serve", "symmetric")
HASH_SEED = "0"
CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(CPUS)
RUN_LIMIT_S = 170         # the whole run, so it always ends within 180 s
PROGRAM_TIMEOUT_S = 120

# Input digests of seed 0: a change to gen.py that alters what a seed
# feeds the program fails every run until these are re-pinned.
PINNED_SEED0 = {
    "batch": "0cce3f20e544292aed366c3bf1772eb862a33dae09aa75d7e01fb776f0a55b4e",
    "serve": "573e22e114fd1988a87ddd61b2954ea67428d5add9f0cf6e6813ee925db11cd4",
    "symmetric": "822b07973acfbf88741dfe2029824b0f7a7e0acec0519dfb8db61be888fab566",
}

BATCH_MIN_ROUNDS = 4
SYMMETRIC_ROUNDS = 8      # fresh inline callers per run
SERVE_ROUNDS = 4          # fresh daemons per run
SERVE_SLICE_S = 1.0       # serve windows are cut into slices this long
SERVE_WARMUP = 600        # responses before the window opens
# The daemon's memory grows with every first-touch request, so its peak
# is read after a fixed number of answers, not at the end of a window
# whose request count follows the host's speed.
SERVE_RSS_AFTER = SERVE_WARMUP + 2000
SERVE_INFLIGHT = 4        # requests outstanding per connection
SPEED_PERIOD_S = 0.05     # how often each CPU's speed is sampled
# The symmetric caller is one thread, so it feels the speed swings of
# the one CPU it runs on, which on a 2-vCPU virtual machine come in
# episodes of 1-2 s, each CPU on its own.  It times the speed loop after
# every task instead; a task's speed is the median loop time of the
# tasks within SPEED_SPAN of it.
SPEED_SPAN = 5
COUNT_SAMPLE = 2          # hom-count answers per round checked naively
REFERENCE_SAMPLE = 40     # serve answers re-evaluated in a fresh session
MIN_LATENCY_SAMPLES = 100  # leaves at least 10 beyond the p90


class BenchError(Exception):
    """The run could not be completed (not an output mismatch)."""


# ----------------------------------------------------------------------
# Host steal
# ----------------------------------------------------------------------
def cpu_times() -> List[int]:
    with open("/proc/stat", "r", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def _steal_and_busy(fields: List[int]):
    # user nice system idle iowait irq softirq steal ...
    steal = fields[7] if len(fields) > 7 else 0
    busy = sum(fields[i] for i in (0, 1, 2, 5, 6) if i < len(fields))
    return steal, busy + steal


class StealClock:
    """Samples /proc/stat every ``period`` seconds on a thread."""

    def __init__(self, period: float = 0.05):
        self.period = period
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            steal, busy = _steal_and_busy(cpu_times())
            self.samples.append((time.monotonic(), steal, busy))
            if self._stop.wait(self.period):
                return

    def start(self) -> "StealClock":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def share(self, start: float, end: float) -> float:
        """Stolen share of busy CPU time over ``[start, end]``."""
        samples = list(self.samples)
        before = [s for s in samples if s[0] <= start] or samples[:1]
        after = [s for s in samples if s[0] >= end] or samples[-1:]
        steal = after[0][1] - before[-1][1]
        busy = after[0][2] - before[-1][2]
        return steal / busy if busy > 0 else 0.0


class SpeedClock:
    """A ``speed.py`` sampler on each CPU, for the run's duration."""

    def __init__(self, directory: Path):
        self.paths = [directory / f"speed-{cpu}.txt" for cpu in CPUS]
        self.processes: List[subprocess.Popen] = []

    def start(self) -> "SpeedClock":
        for cpu, path in zip(CPUS, self.paths):
            self.processes.append(subprocess.Popen(
                [sys.executable, str(HERE / "speed.py"), str(cpu),
                 str(SPEED_PERIOD_S), str(path)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL))
        return self

    def stop(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.wait()

    def factor(self, start: float, end: float) -> float:
        """Reference / measured speed over ``[start, end]``: the median
        loop time of every CPU's samples in it (1 without samples)."""
        times = []
        for path in self.paths:
            with open(path, "r", encoding="ascii") as handle:
                for line in handle:
                    fields = line.split()
                    if len(fields) == 2 and start <= float(fields[0]) <= end:
                        times.append(float(fields[1]))
        if not times:
            return 1.0
        return speed.REFERENCE_MS / statistics.median(times)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def program_env(trace_dir: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    return env


def run_prog(args: List[str], trace_dir: Optional[str] = None) -> Dict:
    """Run ``prog.py`` in a fresh process; its report and launch time."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "prog.py")] + args, cwd=str(ROOT),
        env=program_env(trace_dir), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=PROGRAM_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"prog.py {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["launched"] = launched
    return report


def write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def read_lines(path: Path) -> List[str]:
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def quiet(items: List[Dict], key: str) -> List[Dict]:
    """The intervals the host stole least from: those within two points
    of the least-stolen one, but never fewer than half of them."""
    steals = sorted(item[key] for item in items)
    limit = max(steals[0] + 0.02, steals[(len(steals) - 1) // 2])
    return [item for item in items if item[key] <= limit]


def failures(result_lines: List[str]) -> int:
    return sum('"ok":false' in line for line in result_lines)


def count_sample(rng: random.Random, task_lines: List[str]) -> List[int]:
    indices = [i for i, line in enumerate(task_lines)
               if '"kind":"hom-count"' in line]
    return sorted(rng.sample(indices, min(COUNT_SAMPLE, len(indices))))


def trace_dir_for(run: "Run", index: int, traced: bool) -> Optional[str]:
    if not traced:
        return None
    path = run.work / f"trace-{index}"
    path.mkdir()
    return str(path)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, work: Path, clock: StealClock,
                 speed_clock: SpeedClock):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.clock = clock
        self.speed = speed_clock
        self.rng = random.Random(f"{args.workload}/{args.seed}")
        self.rounds: List[Dict] = []
        # Measured intervals: window_s, completions, latency_ms, steal,
        # scale.
        self.slices: List[Dict] = []
        self.layers: List[Dict[str, float]] = []
        self.problems: List[str] = []

    def add_round(self, record: Dict, slices: List[Dict]) -> None:
        record["slices"] = len(slices)
        self.rounds.append(record)
        for piece in slices:
            piece["traced"] = record["traced"]
        self.slices.extend(slices)

    def round_slice(self, start: float, end: float, completions: int,
                    latencies: List[float]) -> Dict:
        """A measured interval; its times count at ``scale``: the share
        of it the host ran, at the reference speed."""
        steal = self.clock.share(start, end)
        return {"window_s": end - start, "completions": completions,
                "latency_ms": latencies, "steal": steal,
                "scale": (1 - steal) * self.speed.factor(start, end)}

    def setup_figures(self, launched: float, ready: float) -> Dict:
        steal = self.clock.share(launched, ready)
        return {"setup_s": ready - launched, "setup_steal": steal,
                "setup_scale": (1 - steal) * self.speed.factor(launched,
                                                               ready)}


def summarize(slices: List[Dict]) -> Dict[str, float]:
    """Throughput as the median of the slices' rates, latency
    percentiles over every slice's samples; each slice's times scaled."""
    latencies = [value * piece["scale"] for piece in slices
                 for value in piece["latency_ms"]]
    if len(latencies) < MIN_LATENCY_SAMPLES:
        raise BenchError(f"only {len(latencies)} latency samples; at least "
                         f"{MIN_LATENCY_SAMPLES} are needed")
    return {
        "tasks_per_s": statistics.median(
            p["completions"] / (p["window_s"] * p["scale"]) for p in slices),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
    }


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
def batch_round(run: Run, tasks_path: Path, lines: List[str], index: int,
                traced: bool) -> None:
    cache = run.work / f"store-{index}"
    out = run.work / f"batch-{index}.jsonl"
    trace_dir = trace_dir_for(run, index, traced)
    report = run_prog(["batch", "--tasks", str(tasks_path), "--out", str(out),
                       "--cache", str(cache), "--workers", str(NPROC)],
                      trace_dir)
    results = read_lines(out)
    os.remove(out)
    shutil.rmtree(cache, ignore_errors=True)
    metrics = report["metrics"]
    record = {
        "round": index, "traced": traced, "peak_rss_mb": report["rss_mb"],
        "attempted": len(lines), "answered": len(results),
        "failed": failures(results) + len(lines) - len(results),
        "result_digest": gen.digest(results),
        "runner.pool_busy_share":
            report["pool_cpu_s"] / (report["pool_window_s"] * NPROC),
        "runner.worker_restarts": metrics.get("batch.worker.restarts", 0),
        "runner.chunk_retries": metrics.get("batch.chunk.retries", 0),
    }
    record.update(run.setup_figures(report["launched"], report["ready"]))
    if not run.rounds:
        run.problems += check.check_results(lines, results,
                                            count_sample(run.rng, lines))
    elif record["result_digest"] != run.rounds[0]["result_digest"]:
        run.problems.append(f"round {index}: result digest differs from "
                            f"round 0")
    if traced:
        spans, counters = layers.load(trace_dir)
        run.layers.append(layers.layer_metrics(
            spans, counters, len(results),
            keep=lambda task: not task.startswith("probe")))
    run.add_round(record, [run.round_slice(
        report["ready"], report["end"], report["answered"],
        report["latency_ms"])])


def run_batch(run: Run, lines: List[str]) -> None:
    tasks_path = run.work / "tasks.jsonl"
    write_lines(tasks_path, lines)
    start = time.monotonic()
    index = 0
    while index < BATCH_MIN_ROUNDS or time.monotonic() - start < run.seconds:
        # A traced run alternates untraced and traced rounds.
        batch_round(run, tasks_path, lines, index,
                    traced=run.trace and index % 2 == 1)
        index += 1


# ----------------------------------------------------------------------
# symmetric
# ----------------------------------------------------------------------
def symmetric_round(run: Run, tasks_path: Path, lines: List[str],
                    index: int, seconds: float, traced: bool) -> None:
    out = run.work / f"symmetric-{index}.jsonl"
    trace_dir = trace_dir_for(run, index, traced)
    report = run_prog(["inline", "--tasks", str(tasks_path), "--out",
                       str(out), "--warmup", str(gen.SYMMETRIC_WARMUP),
                       "--seconds", repr(seconds)], trace_dir)
    results = read_lines(out)
    os.remove(out)
    answered = report["answered"]
    if gen.SYMMETRIC_WARMUP + answered >= len(lines):
        raise BenchError("the symmetric stream ran out inside the window")
    record = {
        "round": index, "traced": traced, "peak_rss_mb": report["rss_mb"],
        "attempted": answered, "answered": len(results),
        "failed": failures(results) + answered - len(results),
        "result_digest": gen.digest(results),
    }
    record.update(run.setup_figures(report["launched"], report["ready"]))
    fed = lines[gen.SYMMETRIC_WARMUP:gen.SYMMETRIC_WARMUP + answered]
    run.problems += check.check_results(fed, results,
                                        count_sample(run.rng, fed))
    if traced:
        spans, counters = layers.load(trace_dir)
        run.layers.append(layers.layer_metrics(
            spans, counters, len(results),
            keep=lambda task: task.startswith("y")))
    latencies = at_reference_speed(report["latency_ms"], report["speed_ms"])
    piece = run.round_slice(report["start"], report["end"], answered,
                            latencies)
    # The in-thread speed already accounts for stolen time: the window is
    # the tasks' own time at reference speed, with no further scaling.
    piece.update(window_s=sum(latencies) / 1000.0, scale=1.0)
    run.add_round(record, [piece])


def at_reference_speed(latencies: List[float],
                       loop_ms: List[float]) -> List[float]:
    """Each latency scaled by reference / current speed, the current
    speed being the median loop time of the surrounding tasks."""
    scaled = []
    for k, latency in enumerate(latencies):
        around = sorted(loop_ms[max(0, k - SPEED_SPAN):k + SPEED_SPAN + 1])
        scaled.append(latency * speed.REFERENCE_MS / around[len(around) // 2])
    return scaled


def run_symmetric(run: Run, lines: List[str]) -> None:
    tasks_path = run.work / "tasks.jsonl"
    write_lines(tasks_path, lines)
    seconds = run.seconds / SYMMETRIC_ROUNDS
    for index in range(SYMMETRIC_ROUNDS):
        symmetric_round(run, tasks_path, lines, index, seconds,
                        traced=run.trace and index % 2 == 1)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def launch_daemon(cache: Path, trace_dir: Optional[str]):
    """Start a daemon on a free port: ``(process, port, launched,
    ready)``, ready being when it first answered a ping."""
    for _ in range(3):
        port = client.free_port()
        cli = ["serve", "start", "--async", "--port", str(port),
               "--cache", str(cache)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro"] + cli
        else:
            command = [sys.executable, str(HERE / "prog.py"), "daemon"] + cli
        launched = time.monotonic()
        process = subprocess.Popen(
            command, cwd=str(ROOT), env=program_env(trace_dir),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            ready = client.wait_ready(port, process, timeout=60.0)
        except RuntimeError:
            stop_daemon(process, None)
            continue
        return process, port, launched, ready
    raise BenchError("the daemon did not start on a free port")


def stop_daemon(process, port: Optional[int]) -> None:
    """Drain the daemon, then reap it (killing it if drain hangs)."""
    if port is not None and process.poll() is None:
        try:
            client.control(port, {"op": "drain"})
        except OSError:
            pass
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def serve_streams(run: Run, lines: List[str]):
    """One seeded ordering of the corpus per connection."""
    tasks = [(json.loads(line)["id"], line) for line in lines]
    streams = []
    for connection in range(NPROC):
        order = list(tasks)
        random.Random(f"serve/{run.seed}/{connection}").shuffle(order)
        streams.append(order)
    return streams


def serve_slices(run: Run, load) -> List[Dict]:
    span = load.window_last - load.window_start
    count = max(1, round(span / SERVE_SLICE_S))
    width = span / count
    pieces = []
    for k in range(count):
        start = load.window_start + k * width
        end = start + width
        inside = [latency for done, latency in load.completions
                  if start < done <= end]
        pieces.append(run.round_slice(
            start, end, len(inside),
            [latency for latency in inside if latency is not None]))
    return pieces


def serve_round(run: Run, cache: Path, streams, index: int, seconds: float,
                traced: bool) -> None:
    trace_dir = trace_dir_for(run, index, traced)
    process, port, launched, ready = launch_daemon(cache, trace_dir)
    rss = []
    try:
        load = client.run_load(
            port, streams, SERVE_WARMUP, seconds, SERVE_INFLIGHT,
            at_answer=(SERVE_RSS_AFTER,
                       lambda: rss.append(hwm_mb(process.pid))))
        if not rss:  # a program too slow to get there: read it now
            rss.append(hwm_mb(process.pid))
        metrics = client.control(port, {"op": "metrics"})["metrics"]
    finally:
        stop_daemon(process, port)
    if process.returncode != 0:
        raise BenchError(f"daemon exited {process.returncode} after drain")
    if not load.completions:
        raise BenchError("no request was answered inside the window")
    responses = [response for _, _, response, _ in load.exchanges]
    sent_lines = [line for _, line, _, _ in load.exchanges]
    record = {
        "round": index, "traced": traced, "peak_rss_mb": rss[0],
        "attempted": load.sent, "answered": len(responses),
        "failed": failures(responses) + load.unanswered,
        "result_digest": gen.digest(sorted(responses)),
        "service.overloaded": metrics.get("service.overloaded", 0),
    }
    record.update(run.setup_figures(launched, ready))
    run.problems += check.check_results(sent_lines, responses,
                                        count_sample(run.rng, sent_lines))
    if not run.rounds:
        reference_check(run, load)
    if traced:
        run.layers.append(serve_layers(trace_dir, load,
                                       record["service.overloaded"]))
    run.add_round(record, serve_slices(run, load))


def serve_layers(trace_dir: str, load, overloaded: int) -> Dict[str, float]:
    """Layer figures of the traced daemon over the window's requests;
    queue wait and evaluation per request from its spans, overhead as
    the client's latency minus both."""
    window = load.window_latency_ms
    spans, counters = layers.load(trace_dir)
    figures = layers.layer_metrics(spans, counters, len(window),
                                   keep=window.__contains__)
    queue, evaluation, overhead = [], [], []
    for task, (admitted, start, end) in layers.service_times(spans).items():
        if task in window:
            queue.append((start - admitted) * 1000.0)
            evaluation.append((end - start) * 1000.0)
            overhead.append(window[task] - queue[-1] - evaluation[-1])
    if not queue:
        raise BenchError("no service spans matched the window")
    figures["service.queue_wait_ms"] = statistics.median(queue)
    figures["service.eval_ms"] = statistics.median(evaluation)
    figures["service.overhead_ms"] = statistics.median(overhead)
    figures["service.overloaded"] = overloaded
    return figures


def reference_check(run: Run, load) -> None:
    """Window answers must be byte-identical to ``evaluate_line`` on
    the same lines under a fresh session."""
    window = [(line, response) for _, line, response, inside in
              load.exchanges if inside]
    sample = run.rng.sample(window, min(REFERENCE_SAMPLE, len(window)))
    path = run.work / "reference-tasks.jsonl"
    out = run.work / "reference-out.jsonl"
    write_lines(path, [line for line, _ in sample])
    run_prog(["reference", "--tasks", str(path), "--out", str(out)])
    expected = read_lines(out)
    if len(expected) != len(sample):
        run.problems.append("reference evaluation lost answers")
    for (_, response), reference in zip(sample, expected):
        if response != reference:
            run.problems.append(f"serve answer differs from evaluate_line: "
                                f"{response[:200]} != {reference[:200]}")


def run_serve(run: Run, lines: List[str]) -> None:
    tasks_path = run.work / "tasks.jsonl"
    write_lines(tasks_path, lines)
    cache = run.work / "store"
    prepared = run_prog(["prepare", "--tasks", str(tasks_path), "--cache",
                         str(cache), "--workers", str(NPROC)])
    if prepared["failed"]:
        raise BenchError(f"{prepared['failed']} tasks failed while "
                         f"preparing the store")
    streams = serve_streams(run, lines)
    if run.trace:
        plan = [(False, run.seconds / 2), (True, run.seconds / 2)]
    else:
        plan = [(False, run.seconds / SERVE_ROUNDS)] * SERVE_ROUNDS
    for index, (traced, seconds) in enumerate(plan):
        serve_round(run, cache, streams, index, seconds, traced)


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
RUNNER_LAYERS = ("runner.pool_busy_share", "runner.worker_restarts",
                 "runner.chunk_retries")


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for a run."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


def end_to_end(run: Run) -> Dict[str, float]:
    rounds = [r for r in run.rounds if not r["traced"]]
    figures = summarize([s for s in run.slices if not s["traced"]])
    figures["setup_s"] = statistics.median(
        r["setup_s"] * r["setup_scale"] for r in quiet(rounds, "setup_steal"))
    figures["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                               for r in rounds)
    return figures


def per_layer(run: Run) -> Dict[str, float]:
    """Layer figures; a layer the workload never reaches reads 0."""
    figures = {name: 0.0 for name in declared_metrics(trace=True)}
    for name in run.layers[0]:
        figures[name] = statistics.median(lay[name] for lay in run.layers)
    untraced = [r for r in run.rounds if not r["traced"]]
    if RUNNER_LAYERS[0] in untraced[0]:
        for name in RUNNER_LAYERS:
            figures[name] = statistics.median(r[name] for r in untraced)
    plain = summarize([s for s in run.slices if not s["traced"]])
    traced = summarize([s for s in run.slices if s["traced"]])
    figures["trace.tasks_per_s_untraced"] = plain["tasks_per_s"]
    figures["trace.tasks_per_s_traced"] = traced["tasks_per_s"]
    figures["trace.overhead_share"] = \
        1.0 - traced["tasks_per_s"] / plain["tasks_per_s"]
    return figures


def check_pinned(workload: str, seed: int, lines: List[str]) -> str:
    """The input digest of ``lines`` (the seed's inputs), after checking
    that seed 0 still gives its pinned inputs and this seed other ones."""
    pinned = gen.digest(gen.WORKLOAD_LINES[workload](0))
    if pinned != PINNED_SEED0[workload]:
        raise BenchError(f"seed 0 no longer gives the pinned {workload} "
                         f"inputs; gen.py changed what a seed means")
    digest = gen.digest(lines)
    if seed != 0 and digest == pinned:
        raise BenchError(f"seed {seed} gives the same inputs as seed 0")
    return digest


def warm_bytecode() -> None:
    """Compile the program's modules once, untimed, so that set-up time
    never includes writing bytecode caches."""
    subprocess.run([sys.executable, "-c",
                    "import repro.cli, repro.batch.runner, "
                    "repro.service.async_daemon"],
                   cwd=str(ROOT), env=program_env(), check=True,
                   timeout=PROGRAM_TIMEOUT_S)


def _out_of_time(signum, frame):
    raise BenchError(f"the run did not finish within {RUN_LIMIT_S}s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    clock = StealClock().start()
    speed_clock = SpeedClock(work).start()
    run = Run(args, work, clock, speed_clock)
    try:
        lines = gen.WORKLOAD_LINES[args.workload](args.seed)
        digest = check_pinned(args.workload, args.seed, lines)
        warm_bytecode()
        {"batch": run_batch, "serve": run_serve,
         "symmetric": run_symmetric}[args.workload](run, lines)
        values = per_layer(run) if args.trace else end_to_end(run)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared_metrics(args.trace).items()}
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as exc:
        traceback.print_exc()
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        clock.stop()
        speed_clock.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in run.rounds)
    failed = sum(r["failed"] for r in run.rounds)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_digest": digest, "nproc": NPROC,
        "steal_share": clock.share(clock.samples[0][0],
                                   clock.samples[-1][0]),
        "attempted": attempted,
        "answered": sum(r["answered"] for r in run.rounds),
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "problems": run.problems, "rounds": run.rounds,
        "slices": [{key: piece[key] for key in
                    ("window_s", "completions", "steal", "scale", "traced")}
                   for piece in run.slices],
    }
    print(json.dumps(detail, sort_keys=True))
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
