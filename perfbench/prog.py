"""The benchmark's side of a program process.

``run.py`` launches this file as a fresh ``python`` process with the
checkout's ``src`` on ``PYTHONPATH``; it drives the program through its
public entry points and prints one JSON report as its last stdout line.

    prog.py batch --tasks F --out F --cache DIR --workers N
    prog.py inline --tasks F --out F --warmup K --seconds S
    prog.py prepare --tasks F --cache DIR --workers N
    prog.py reference --tasks F --out F
    prog.py daemon serve start --async --port P --cache DIR

With ``PERFBENCH_TRACE_DIR`` set, the traced entry points are patched
first (see ``tracer.py``) and every process writes its spans there.
``daemon`` is the traced daemon's launcher: it installs the wrappers,
then hands its arguments to the normal command-line entry.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import gen
import speed

BATCH_PROBES = 8   # one whole chunk of the runner, so it is answered first
SHARDS = 8


def _tracer():
    directory = os.environ.get("PERFBENCH_TRACE_DIR")
    if not directory:
        return None
    import tracer

    return tracer.install(directory)


def _read_lines(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def _probes(count: int):
    base = gen.probe_line()
    return [base.replace('"id":"probe"', f'"id":"probe{i}"')
            for i in range(count)]


def _hwm_kib(pid) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def _peak_rss_mb() -> float:
    """Summed peak RSS of this process and its live children."""
    me = os.getpid()
    return sum(_hwm_kib(pid) for pid in [me] + _children(me)) / 1024.0


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cmd_batch(args) -> dict:
    from repro.batch.runner import iter_results

    tracer = _tracer()
    lines = _read_lines(args["--tasks"])
    feed_lines = _probes(BATCH_PROBES) + lines
    pulls = []

    def feed():
        for line in feed_lines:
            pulls.append(time.monotonic())
            yield line

    sink: dict = {}
    results = iter_results(feed(), workers=int(args["--workers"]),
                           cache_path=args["--cache"], shards=SHARDS,
                           metrics_sink=sink)
    answers, latencies = [], []
    ready = None
    for index in range(len(feed_lines)):
        line = next(results)
        now = time.monotonic()
        if ready is None:
            ready = now
        if index >= BATCH_PROBES:
            answers.append(line)
            latencies.append((now - pulls[index]) * 1000.0)
    end = time.monotonic()
    rss = _peak_rss_mb()   # before the pool exits
    for _ in results:       # exhausting the generator shuts the pool down
        pass
    cpu = _child_cpu_s()
    _write_lines(args["--out"], answers)
    if tracer is not None:
        tracer.dump()
    return {"ready": ready, "end": end, "answered": len(answers),
            "latency_ms": latencies, "rss_mb": rss, "pool_cpu_s": cpu,
            "pool_window_s": end - pulls[0], "metrics": sink}


def cmd_inline(args) -> dict:
    """One caller; the first ``--warmup`` lines are answered before the
    window of ``--seconds`` opens.  After each answer in the window the
    speed loop runs once on this thread; a task's latency excludes it."""
    from repro.batch.runner import iter_results

    tracer = _tracer()
    lines = _read_lines(args["--tasks"])
    warmup = int(args["--warmup"])
    seconds = float(args["--seconds"])
    deadline = [None]

    def feed():
        yield _probes(1)[0]
        for index, line in enumerate(lines):
            if index >= warmup and deadline[0] is not None \
                    and time.monotonic() >= deadline[0]:
                return
            yield line

    answers, latencies, loop_ms = [], [], []
    ready = start = last = None
    for index, line in enumerate(iter_results(feed(), workers=1)):
        now = time.monotonic()
        if ready is None:
            ready = now
        if index == warmup:
            start = last = now
            deadline[0] = now + seconds
        if index <= warmup:
            continue
        answers.append(line)
        latencies.append((now - last) * 1000.0)
        loop_ms.append(speed.loop_ms())
        last = time.monotonic()
    rss = _peak_rss_mb()
    _write_lines(args["--out"], answers)
    if tracer is not None:
        tracer.dump()
    return {"ready": ready, "start": start, "end": last,
            "answered": len(answers), "latency_ms": latencies,
            "speed_ms": loop_ms, "rss_mb": rss, "metrics": {}}


def cmd_prepare(args) -> dict:
    from repro.batch.runner import iter_results

    lines = _read_lines(args["--tasks"])
    answers = list(iter_results(lines, workers=int(args["--workers"]),
                                cache_path=args["--cache"], shards=SHARDS))
    return {"answered": len(answers),
            "failed": sum('"ok":false' in line for line in answers)}


def cmd_reference(args) -> dict:
    from repro.batch.runner import evaluate_line
    from repro.session import SolverSession

    lines = _read_lines(args["--tasks"])
    with SolverSession() as session:
        answers = [evaluate_line(line, session) for line in lines]
    _write_lines(args["--out"], answers)
    return {"answered": len(answers)}


def cmd_daemon(argv) -> int:
    tracer = _tracer()
    from repro.cli import main

    try:
        return main(argv)
    finally:
        if tracer is not None:
            tracer.dump()


COMMANDS = {"batch": cmd_batch, "inline": cmd_inline,
            "prepare": cmd_prepare, "reference": cmd_reference}


def main(argv) -> int:
    if not argv:
        print("usage: prog.py batch|inline|prepare|reference|daemon ...",
              file=sys.stderr)
        return 2
    if argv[0] == "daemon":
        return cmd_daemon(argv[1:])
    command = COMMANDS.get(argv[0])
    if command is None or len(argv[1:]) % 2:
        print(f"prog.py: bad arguments {argv!r}", file=sys.stderr)
        return 2
    args = dict(zip(argv[1::2], argv[2::2]))
    report = command(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
