"""E15: batch-evaluation throughput — workers, chunking, persistent cache.

Two faces:

* ``pytest benchmarks/bench_batch.py`` — pytest-benchmark timings for
  the single-worker evaluator, the chunk codec overhead, and the
  cache-warm rerun path;
* ``python benchmarks/bench_batch.py`` — the acceptance-style
  throughput sweep: evaluates one generated scenario at several worker
  counts and prints tasks/s and the speedup over one worker.  On a
  multi-core machine 4 workers should clear 2x; on a single-core
  container the sweep reports honestly that there is nothing to win.

The workload is deliberately CPU-heavy per task (witness construction
plus verification on multi-component instances), so process scheduling
overhead is amortized and the sweep measures compute scaling, not IPC.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.batch.runner import iter_results
from repro.batch.scenarios import generate_scenario
from repro.batch.tasks import encode_task


def heavy_lines(count: int, seed: int = 0):
    """A witness-heavy scenario: the per-task cost profile of E8."""
    tasks = generate_scenario("cq-witness", count, seed=seed,
                              n_views=16, max_components=4)
    return [encode_task(record) for record in tasks]


def light_lines(count: int, seed: int = 0):
    return [encode_task(record)
            for record in generate_scenario("mixed", count, seed=seed)]


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------
def test_single_worker_throughput(benchmark):
    lines = light_lines(40, seed=21)
    results = benchmark(lambda: list(iter_results(lines, workers=1)))
    assert len(results) == 40


def test_witness_task_evaluation(benchmark):
    lines = heavy_lines(6, seed=2)
    results = benchmark(lambda: list(iter_results(lines, workers=1)))
    assert all(json.loads(r)["ok"] for r in results)


def test_cache_warm_rerun(benchmark, tmp_path):
    """Second run over the same scenario with a persistent store."""
    from repro.batch.store import TieredHomStore

    cache = str(tmp_path / "bench-cache")
    lines = heavy_lines(6, seed=3)
    cold = list(iter_results(lines, workers=1, cache_path=cache))
    warm = benchmark(
        lambda: list(iter_results(lines, workers=1, cache_path=cache)))
    assert warm == cold
    with TieredHomStore(cache) as store:
        assert len(store) > 0


def test_worker_output_is_byte_identical():
    """Correctness companion to the sweep: 2 workers == 1 worker."""
    lines = light_lines(24, seed=4)
    assert list(iter_results(lines, workers=1)) == \
        list(iter_results(lines, workers=2, chunk_size=4))


# ----------------------------------------------------------------------
# Standalone throughput sweep
# ----------------------------------------------------------------------
def sweep(count: int, workers_list, seed: int, chunk_size: int) -> int:
    lines = heavy_lines(count, seed=seed)
    print(f"batch throughput sweep: {count} witness-heavy tasks, "
          f"chunk size {chunk_size}")
    reference_time = None
    reference_output = None
    for workers in workers_list:
        start = time.perf_counter()
        results = list(iter_results(lines, workers=workers,
                                    chunk_size=chunk_size))
        elapsed = time.perf_counter() - start
        if reference_output is None:
            reference_time = elapsed
            reference_output = results
        else:
            assert results == reference_output, "worker count changed output!"
        throughput = count / elapsed if elapsed else float("inf")
        speedup = reference_time / elapsed if elapsed else float("inf")
        print(f"  workers={workers}: {elapsed:.3f}s  "
              f"{throughput:.1f} tasks/s  speedup {speedup:.2f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chunk-size", type=int, default=4)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=[1, 2, 4])
    args = parser.parse_args(argv)
    return sweep(args.count, args.workers, args.seed, args.chunk_size)


if __name__ == "__main__":
    raise SystemExit(main())
