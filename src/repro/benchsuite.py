"""Machine-readable micro-benchmarks for the counting engine.

``python -m repro.cli bench --json`` runs this suite and writes
``BENCH_engine.json`` so the perf trajectory can be tracked PR over PR
(EXPERIMENTS.md records the history).  The workloads mirror the
E-series benchmarks in ``benchmarks/``:

* ``hom_large_target``       — E5: connected counting into cliques,
  cold engine (compile + count, no memo reuse) vs the naive direct
  backtracking counter;
* ``hom_memoized``           — E5 steady state: the shared-engine path
  the decision procedure actually exercises (memo hits);
* ``hom_isomorphic_components`` — canonical-component memoization over
  sources assembled from renamed copies of a small component pool;
* ``hom_interning``          — E18: the interned core in isolation —
  canonical-key dedup of mass-produced isomorphic components vs the
  seed-era pairwise ``find_isomorphism`` bucket scan, and cold
  large-target counting through the interned engine vs the naive
  constant-based counter;
* ``decision``               — E4: the full Theorem 3 pipeline on a
  synthetic 16-view catalog;
* ``hom_treewidth``          — E16: tree-decomposition DP vs
  backtracking on bounded-treewidth sources (a 3×4 grid and a long
  chained join) into a dense target, plus an assertion that cost-based
  plan selection picks the DP on its own;
* ``service_throughput``     — E17: one warm session answering a
  mixed request stream (the per-request work of a ``repro serve``
  worker) vs cold per-invocation dispatch (fresh session per task —
  the one-shot CLI cost model), results byte-compared before timing;
* ``service_concurrency``    — E21: 16 closed-loop clients against the
  daemon over persistent connections — throughput plus p50/p99 tail
  latency, results byte-compared against single-threaded batch
  evaluation before timing;
* ``linalg_det``             — Bareiss fraction-free determinant vs the
  textbook Fraction-Gauss reference on a radix-style integer matrix.

Every engine-built workload routes its sessions through one factory
(:func:`bench_session`), so a bench run reports unified session stats
instead of scattering anonymous ``HomEngine()`` instances.  Every
workload cross-checks its counts against ground truth before timing,
so a regression in correctness fails the bench run itself.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Dict, List

from repro.hom.count import count_homs
from repro.hom.engine import (
    TargetIndex,
    choose_strategy,
    count_plan,
    source_plan,
)
from repro.hom.search import count_homomorphisms_direct
from repro.linalg.matrix import QMatrix, gaussian_det
from repro.queries.cq import cq_from_structure
from repro.session import SolverSession, default_session
from repro.structures.generators import (
    clique_structure,
    cycle_structure,
    grid_structure,
    path_structure,
)
from repro.structures.operations import sum_with_multiplicities
from repro.structures.structure import Structure
from repro.core.decision import decide_bag_determinacy


def bench_session(**knobs) -> SolverSession:
    """The one session factory every bench workload goes through.

    Cold workloads get a fresh scoped session (same configuration
    surface as production: strategy/store/limits via ``knobs``); the
    factory is the single place a bench-wide override would be wired.
    """
    return SolverSession(**knobs)


def _component_pool():
    """The 7-element pool the synthetic workloads draw from (mirrors
    ``benchmarks/workloads.py``)."""
    return [
        path_structure(["R"]),
        path_structure(["R", "R"]),
        path_structure(["S"]),
        path_structure(["R", "S"]),
        path_structure(["S", "R"]),
        cycle_structure(3),
        cycle_structure(4),
    ]


def _make_instance(n_views: int, n_components: int, seed: int = 0):
    rng = random.Random(seed)
    pool = _component_pool()

    def make_query():
        pieces = [
            (rng.randint(1, 2), rng.choice(pool))
            for _ in range(rng.randint(1, n_components))
        ]
        return cq_from_structure(sum_with_multiplicities(pieces))

    views = [make_query() for _ in range(n_views)]
    return views, make_query()


def _timeit(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmarks(repeat: int = 3) -> Dict[str, object]:
    """Run every workload; returns the report dict."""
    repeat = max(1, repeat)
    report: Dict[str, object] = {
        "suite": "repro-engine-bench",
        "repeat": repeat,
        "workloads": {},
    }
    workloads: Dict[str, Dict[str, float]] = report["workloads"]  # type: ignore

    # -------------------------------------------------- hom_large_target
    path3 = path_structure(["R", "R", "R"])
    big = clique_structure(8)
    expected = 8 * 7 ** 3
    assert count_homs(path3, big) == expected
    assert count_homomorphisms_direct(path3, big) == expected

    def cold_engine():
        session = bench_session()
        for _ in range(5):
            session.clear()
            session.count(path3, big)

    direct = _timeit(lambda: [count_homomorphisms_direct(path3, big)
                              for _ in range(5)], repeat)
    cold = _timeit(cold_engine, repeat)
    workloads["hom_large_target"] = {
        "direct_backtracking_s": direct,
        "cold_engine_s": cold,
        "speedup": direct / cold if cold else float("inf"),
    }

    # -------------------------------------------------- hom_memoized
    shared = default_session()
    shared.count(path3, big)

    memo = _timeit(lambda: [shared.count(path3, big) for _ in range(5)], repeat)
    workloads["hom_memoized"] = {
        "direct_backtracking_s": direct,
        "memoized_engine_s": memo,
        "speedup": direct / memo if memo else float("inf"),
    }

    # -------------------------------------- hom_isomorphic_components
    pool = _component_pool()
    renamed: List = []
    for i in range(12):
        base = pool[i % len(pool)]
        renamed.append(base.rename({c: (i, c) for c in base.domain()}))
    source = sum_with_multiplicities([(1, s) for s in renamed])
    target = clique_structure(5)
    truth = count_homomorphisms_direct(source, target)

    def canonical_memo():
        session = bench_session()
        for _ in range(3):
            session.clear()
            assert session.count(source, target) == truth

    def exact_dict():
        # The seed-era strategy: exact (component, leaf) dict keys over
        # the naive counter — renamed components never share entries.
        from repro.structures.components import connected_components

        for _ in range(3):
            cache: dict = {}
            total = 1
            for component in connected_components(source):
                key = (component, target)
                value = cache.get(key)
                if value is None:
                    value = count_homomorphisms_direct(component, target)
                    cache[key] = value
                total *= value
            assert total == truth

    iso_engine = _timeit(canonical_memo, repeat)
    iso_dict = _timeit(exact_dict, repeat)
    workloads["hom_isomorphic_components"] = {
        "exact_key_dict_s": iso_dict,
        "canonical_engine_s": iso_engine,
        "speedup": iso_dict / iso_engine if iso_engine else float("inf"),
    }

    # -------------------------------------------------- hom_interning
    # E18: the interned-core layers in isolation.  (a) Identifying the
    # iso classes of mass-produced isomorphic components by canonical
    # byte key vs the seed-era invariant-bucket + pairwise
    # find_isomorphism scan.  The corpus is the bucket-degenerate
    # shape the pairwise design is weakest on: disjoint unions of
    # directed cycles partitioning 14 vertices are 1-WL-uniform, so
    # *every* copy of *every* class lands in one invariant bucket and
    # each probe scans failing iso-tests before its match, while the
    # canonical labeling factors per component and stays near-linear.
    # (b) A cold large-target count through the interned engine vs the
    # naive constant-based counter.  Caches are cleared inside each
    # timed run so both paths are measured cold.
    from repro.structures.canonical import canonical_key
    from repro.structures.interned import interned
    from repro.structures.isomorphism import (
        dedupe_up_to_isomorphism,
        invariant_key,
    )

    def cycle_union(lengths, tag) -> Structure:
        union = Structure()
        for position, length in enumerate(lengths):
            union = union.union(
                cycle_structure(length).tagged((tag, position)))
        return union

    partitions = [(14,), (3, 11), (4, 10), (5, 9), (6, 8), (7, 7),
                  (3, 3, 8), (3, 4, 7), (4, 4, 6), (4, 5, 5), (3, 5, 6),
                  (3, 3, 4, 4)]
    corpus: List[Structure] = [
        cycle_union(partitions[i % len(partitions)], i) for i in range(36)]
    classes = len(partitions)
    assert len({invariant_key(s) for s in corpus}) == 1  # one bucket
    assert len(dedupe_up_to_isomorphism(corpus)) == classes

    def dedup_canonical():
        interned.cache_clear()
        canonical_key.cache_clear()
        keys = {canonical_key(s) for s in corpus}
        assert len(keys) == classes

    def dedup_pairwise():
        interned.cache_clear()
        invariant_key.cache_clear()
        assert len(dedupe_up_to_isomorphism(corpus)) == classes

    canonical_dedup = _timeit(dedup_canonical, repeat)
    pairwise_dedup = _timeit(dedup_pairwise, repeat)

    path4 = path_structure(["R", "R", "R", "R"])
    big_target = clique_structure(10)
    truth_large = 10 * 9 ** 4
    assert count_homs(path4, big_target) == truth_large

    def interned_large():
        session = bench_session()
        for _ in range(3):
            session.clear()
            assert session.count(path4, big_target) == truth_large

    large_interned = _timeit(interned_large, repeat)
    large_direct = _timeit(
        lambda: [count_homomorphisms_direct(path4, big_target)
                 for _ in range(3)], repeat)
    workloads["hom_interning"] = {
        "pairwise_iso_dedup_s": pairwise_dedup,
        "canonical_dedup_s": canonical_dedup,
        "speedup_dedup": pairwise_dedup / canonical_dedup
        if canonical_dedup else float("inf"),
        "large_target_direct_s": large_direct,
        "large_target_interned_s": large_interned,
        "speedup_large_target": large_direct / large_interned
        if large_interned else float("inf"),
    }

    # -------------------------------------------------- decision
    views, query = _make_instance(n_views=16, n_components=2, seed=17)
    decide_bag_determinacy(views, query)  # warm the shared engine

    def decide():
        for _ in range(3):
            result = decide_bag_determinacy(views, query)
            assert result.basis.dimension >= 1

    workloads["decision"] = {
        "decide_16_views_s": _timeit(decide, repeat),
    }

    # -------------------------------------------------- hom_treewidth
    # Bounded-treewidth sources into a dense target: the shapes the
    # backtracking counter pays an exponential price for (every
    # homomorphism is enumerated) and the DP counts in |B|^{tw+1}.
    grid = grid_structure(3, 4, horizontal="R", vertical="S")
    chain = path_structure(["R", "S"] * 4)
    dense_target = Structure(
        [("R", (i, j)) for i in range(4) for j in range(4) if i != j]
        + [("S", (i, j)) for i in range(4) for j in range(4) if i != j],
        domain=range(4))
    index = TargetIndex(dense_target)
    plans = [source_plan(grid), source_plan(chain)]
    for plan in plans:
        truth = count_plan(plan, index, strategy="backtrack")
        assert count_plan(plan, index, strategy="dp") == truth
    assert count_plan(source_plan(chain), index, strategy="dp") == \
        count_homomorphisms_direct(chain, dense_target)
    # No override flag: the cost model must pick the DP by itself.
    # Reported as a measured 0/1 (not asserted-then-hardcoded) so a
    # plan-selection regression shows up in the JSON trajectory even
    # when asserts are stripped.
    auto_picks_dp = float(all(
        choose_strategy(plan, index) == "dp" for plan in plans))
    assert auto_picks_dp == 1.0

    backtrack = _timeit(lambda: [count_plan(p, index, strategy="backtrack")
                                 for p in plans], repeat)
    dp = _timeit(lambda: [count_plan(p, index, strategy="dp")
                          for p in plans], repeat)
    workloads["hom_treewidth"] = {
        "backtracking_engine_s": backtrack,
        "dp_engine_s": dp,
        "speedup": backtrack / dp if dp else float("inf"),
        "auto_picks_dp": auto_picks_dp,
    }

    # -------------------------------------------------- hom_bitset
    # E19: the bit-parallel kernels against their set-domain ablation
    # twins — same compiled plans, same target, so the measured gap is
    # purely the representation (int bitmask domains + packed int DP
    # keys vs frozenset domains + tuple keys).  Sources are cheap
    # bounded-treewidth shapes (a 2×3 grid, a 5-edge chain, two
    # triangles glued at a vertex) into a dense 6-element target; all
    # four kernels are cross-checked against the direct counter before
    # timing.
    from repro.hom.dpcount import _count_plan_dp_sets, count_plan_dp
    from repro.hom.engine import _count_bitset, _count_sets

    dense6 = Structure(
        [("R", (i, j)) for i in range(6) for j in range(6) if i != j],
        domain=range(6))
    bowtie = Structure([
        ("R", ("a", "b")), ("R", ("b", "c")), ("R", ("c", "a")),
        ("R", ("a", "d")), ("R", ("d", "e")), ("R", ("e", "a")),
    ])
    bitset_sources = [
        grid_structure(2, 3, horizontal="R", vertical="R"),
        path_structure(["R"] * 5),
        bowtie,
    ]
    bitset_index = TargetIndex(dense6)
    bitset_plans = [source_plan(s) for s in bitset_sources]
    for bitset_plan, bitset_source in zip(bitset_plans, bitset_sources):
        truth_bits = count_homomorphisms_direct(bitset_source, dense6)
        assert _count_bitset(bitset_plan, bitset_index, False) == truth_bits
        assert _count_sets(bitset_plan, bitset_index, False) == truth_bits
        assert count_plan_dp(bitset_plan, bitset_index) == truth_bits
        assert _count_plan_dp_sets(bitset_plan, bitset_index) == truth_bits

    bt_bitset = _timeit(lambda: [_count_bitset(p, bitset_index, False)
                                 for p in bitset_plans], repeat)
    bt_sets = _timeit(lambda: [_count_sets(p, bitset_index, False)
                               for p in bitset_plans], repeat)
    dp_bitset = _timeit(lambda: [count_plan_dp(p, bitset_index)
                                 for p in bitset_plans], repeat)
    dp_sets = _timeit(lambda: [_count_plan_dp_sets(p, bitset_index)
                               for p in bitset_plans], repeat)
    workloads["hom_bitset"] = {
        "backtrack_set_s": bt_sets,
        "backtrack_bitset_s": bt_bitset,
        "speedup_backtrack": bt_sets / bt_bitset
        if bt_bitset else float("inf"),
        "dp_set_s": dp_sets,
        "dp_bitset_s": dp_bitset,
        "speedup_dp": dp_sets / dp_bitset if dp_bitset else float("inf"),
    }

    # -------------------------------------------------- service_throughput
    # E17: what the resident service buys over one-shot dispatch.  The
    # same mixed request stream is answered (a) warm — one session
    # across all requests running evaluate_line, the per-request work a
    # `repro serve` worker does for its tenant — and (b) cold, with a
    # fresh session per task: the per-invocation CLI cost model minus
    # process startup (so the measured speedup is a *lower bound* on
    # the real serve-vs-CLI win).
    from repro.batch.runner import evaluate_line
    from repro.batch.scenarios import generate_scenario
    from repro.batch.tasks import canonical_json, make_hom_count_task

    # Production-shaped stream: requests repeat a small catalog of
    # counting shapes against stable dense targets (the hit pattern a
    # materialized-view service actually sees), plus a slice of mixed
    # decision traffic.  Each request's source is *renamed* (distinct
    # constants per request, as distinct clients would send), so the
    # cold path must recount every time while the warm session's
    # canonical-component memo recognizes the isomorphism class.
    svc_rng = random.Random(0x5E12)
    svc_shapes = [grid, chain]
    svc_targets = [
        Structure(
            [(rel, (i, j)) for rel in ("R", "S")
             for i in range(n) for j in range(n) if i != j],
            domain=range(n))
        for n in (5, 6)
    ]
    stream = [canonical_json(record)
              for record in generate_scenario("mixed", 16, seed=23)]
    for index in range(24):
        base = svc_rng.choice(svc_shapes)
        source = base.rename({c: (index, c) for c in base.domain()})
        stream.append(canonical_json(make_hom_count_task(
            f"svc-{index:03d}", source, svc_rng.choice(svc_targets))))

    def serve_warm() -> List[str]:
        with bench_session() as session:
            return [evaluate_line(line, session) for line in stream]

    def dispatch_cold() -> List[str]:
        return [evaluate_line(line, bench_session()) for line in stream]

    warm_results = serve_warm()
    cold_results = dispatch_cold()
    assert warm_results == cold_results  # serving must not change answers

    warm = _timeit(serve_warm, repeat) / len(stream)
    cold = _timeit(dispatch_cold, repeat) / len(stream)
    workloads["service_throughput"] = {
        "cold_dispatch_per_task_s": cold,
        "warm_service_per_task_s": warm,
        "speedup": cold / warm if warm else float("inf"),
        "tasks": float(len(stream)),
    }

    # -------------------------------------------------- store_tiered
    # E20: the persistent store layer in isolation (the duck-typed
    # protocol it serves the engine through).  Sources are distinct
    # small path shapes (every R/S word up to length 9) against two
    # database-sized targets — the regime the paper's queries live in
    # (small patterns, large instances).  Record throughput times fresh
    # rows flowing into existing shard files (steady state — file
    # creation and schema DDL happen once per directory, so they stay
    # outside the timed pass); lookup throughput times re-probing every
    # key through a warm store (answered from its LRU tier with zero
    # I/O).  The store is verified to return every recorded value
    # before timing.
    import itertools
    import os as os_module
    import shutil
    import tempfile

    from repro.batch.store import TieredHomStore

    store_sources = [
        path_structure(list(word))
        for length in range(1, 10)
        for word in itertools.product("RS", repeat=length)
    ]
    store_targets = [grid_structure(24, 24), clique_structure(28)]
    store_rows = [(source, target, 1000 + index)
                  for index, (source, target) in enumerate(
                      (s, t) for s in store_sources for t in store_targets)]

    def record_into(store) -> None:
        for source, target, value in store_rows:
            store.record(source, target, value)
        store.flush()

    def lookup_all(store) -> None:
        for _ in range(3):
            for source, target, value in store_rows:
                assert store.lookup(source, target) == value

    with tempfile.TemporaryDirectory() as scratch:
        tiered_record = float("inf")
        for attempt in range(repeat):
            path = os_module.path.join(scratch, f"rec{attempt}")
            store = TieredHomStore(path, shards=4)
            store.ensure_shards()
            start = time.perf_counter()
            record_into(store)
            tiered_record = min(tiered_record, time.perf_counter() - start)
            store.close()
            shutil.rmtree(path)

        tiered_store = TieredHomStore(
            os_module.path.join(scratch, "warm-tiered"), shards=4)
        record_into(tiered_store)
        for source, target, value in store_rows:
            assert tiered_store.lookup(source, target) == value
        tiered_lookup = _timeit(lambda: lookup_all(tiered_store), repeat)
        tiered_store.close()

    workloads["store_tiered"] = {
        "tiered_record_s": tiered_record,
        "tiered_lookup_s": tiered_lookup,
        "rows": float(len(store_rows)),
    }

    # -------------------------------------------------- service_concurrency
    # E21: concurrency as a measured dimension.  16 closed-loop clients
    # drive the daemon over persistent connections — one event loop
    # multiplexing all clients, per-tenant sessions in worker
    # processes.  The daemon must answer every request with exactly the
    # bytes single-threaded batch evaluation produces before it is
    # timed.  Timings are wall-clock per request at 16 clients
    # (connection setup happens before the measured window).
    from repro.service import AsyncDaemonHandle
    from repro.service.client import DaemonClient
    from repro.service.loadgen import default_task_lines, run_load

    conc_lines = default_task_lines(8, seed=2024)
    conc_clients = 16
    conc_requests = 12
    conc_total = conc_clients * conc_requests
    conc_expected = [evaluate_line(line, bench_session())
                     for line in conc_lines]

    with AsyncDaemonHandle(workers=4) as async_handle:
        as_host, as_port = async_handle.address
        probe = DaemonClient(host=as_host, port=as_port)
        try:
            for line, expected in zip(conc_lines, conc_expected):
                got = canonical_json(probe.request_line(line))
                assert got == expected  # serving must not change answers
        finally:
            probe.close()

        def async_run():
            report = run_load(as_host, as_port, conc_lines,
                              clients=conc_clients,
                              requests_per_client=conc_requests,
                              transport="persistent")
            assert report.errors == 0
            return report

        async_reports = [async_run() for _ in range(repeat)]

    async_fast = min(async_reports, key=lambda r: r.elapsed_s)
    workloads["service_concurrency"] = {
        "async_persistent_s": async_fast.elapsed_s / conc_total,
        "async_throughput_rps": async_fast.throughput_rps,
        "async_p50_ms": async_fast.p50_ms,
        "async_p99_ms": async_fast.p99_ms,
        "clients": float(conc_clients),
        "requests": float(conc_total),
    }

    # -------------------------------------------------- linalg_det
    rng = random.Random(0xBA5E)
    size = 9
    rows = [[rng.randint(0, 9) ** j for j in range(size)] for _ in range(size)]
    matrix = QMatrix(rows)
    assert matrix.det() == gaussian_det(matrix)

    bareiss = _timeit(lambda: QMatrix(rows).det(), repeat)
    gauss = _timeit(lambda: gaussian_det(QMatrix(rows)), repeat)
    workloads["linalg_det"] = {
        "gaussian_fraction_s": gauss,
        "bareiss_s": bareiss,
        "speedup": gauss / bareiss if bareiss else float("inf"),
    }

    # One copy of each stats block: the engine counters under the
    # established engine_stats key, the session-level remainder
    # (task accounting, strategy) under session_stats.
    session_report = default_session().stats()
    report["engine_stats"] = session_report.pop("engine")
    report["session_stats"] = session_report
    return report


def write_report(path: str = "BENCH_engine.json", repeat: int = 3) -> Dict[str, object]:
    report = run_benchmarks(repeat=repeat)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    lines = ["engine micro-benchmarks (best of %d):" % report["repeat"]]
    for name, numbers in sorted(report["workloads"].items()):  # type: ignore
        parts = ", ".join(
            f"{key}={value:.6f}" if "_s" in key else f"{key}={value:.2f}x"
            for key, value in sorted(numbers.items())
        )
        lines.append(f"  {name}: {parts}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Regression gate (``repro bench check`` / scripts/check_bench_regression)
# ----------------------------------------------------------------------
DEFAULT_FACTOR = 2.0
DEFAULT_SLACK_S = 0.005

# Timings of the deliberately-naive ablation/reference implementations.
# They exist only to compute speedups; their absolute cost on a noisy
# runner carries no product signal, so the gate ignores them.
ABLATION_KEYS = frozenset({
    "direct_backtracking_s",
    "exact_key_dict_s",
    "gaussian_fraction_s",
    "backtracking_engine_s",
    "cold_dispatch_per_task_s",
    "pairwise_iso_dedup_s",
    "large_target_direct_s",
    "backtrack_set_s",
    "dp_set_s",
})


def load_report(path: str) -> Dict[str, object]:
    """A bench report from disk, validated to actually be one."""
    from repro.errors import ReproError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read bench report {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not JSON: {exc}")
    if "workloads" not in report:
        raise ReproError(f"{path}: not a bench report (no 'workloads' key)")
    return report


def compare_reports(baseline: Dict[str, object], current: Dict[str, object],
                    factor: float = DEFAULT_FACTOR,
                    slack: float = DEFAULT_SLACK_S):
    """``(lines, failures)``: a human-readable table and the regressions.

    Every engine-side ``*_s`` timing present in the baseline is compared
    (ablation/reference timings are skipped — they only exist to compute
    speedups); a timing regresses when ``current > factor * baseline +
    slack``.  The factor is deliberately tolerant (CI runners are noisy,
    shared, and differently clocked than the machine that wrote the
    baseline) and the additive slack keeps microsecond-scale timings
    from tripping on clock resolution.  The gate is for
    *architecture-level* regressions — losing a 10x speedup — not for
    20% jitter.  A workload or timing missing from ``current`` is a
    silently dropped benchmark and fails the gate.
    """
    lines: List[str] = []
    failures: List[str] = []
    base_workloads = baseline.get("workloads", {})
    current_workloads = current.get("workloads", {})
    compared = 0
    for name in sorted(base_workloads):
        if name not in current_workloads:
            lines.append(f"  {name}: MISSING from current report")
            failures.append(f"{name} (missing workload)")
            continue
        for key in sorted(base_workloads[name]):
            if not key.endswith("_s") or key in ABLATION_KEYS:
                continue
            if key not in current_workloads[name]:
                lines.append(f"  {name}.{key}: MISSING from current report")
                failures.append(f"{name}.{key} (missing timing)")
                continue
            base_value = float(base_workloads[name][key])
            current_value = float(current_workloads[name][key])
            limit = factor * base_value + slack
            verdict = "ok" if current_value <= limit else "REGRESSED"
            lines.append(
                f"  {name}.{key}: {current_value:.6f}s vs baseline "
                f"{base_value:.6f}s (limit {limit:.6f}s) {verdict}")
            compared += 1
            if current_value > limit:
                failures.append(f"{name}.{key}")
    if compared == 0:
        failures.append("nothing compared: reports share no *_s timings")
    return lines, failures


def render_gate(lines: List[str], failures: List[str],
                factor: float, slack: float) -> str:
    """The gate verdict as the text both CLI entry points print."""
    out = [f"bench regression gate (factor {factor}x, slack {slack}s):"]
    out.extend(lines)
    if failures:
        out.append(f"FAIL: {len(failures)} regression(s): "
                   f"{', '.join(failures)}")
    else:
        out.append("PASS: no timing regressed past the gate")
    return "\n".join(out)
