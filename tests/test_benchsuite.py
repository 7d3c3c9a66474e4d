"""Schema tests for the machine-readable bench suite and its CLI face.

The CI regression gate (``scripts/check_bench_regression.py``) consumes
``repro.cli bench run --json`` output, so the shape of that report is a
compatibility contract — these tests pin it.
"""

from __future__ import annotations

import json

import pytest

from repro import benchsuite
from repro.benchsuite import format_report, run_benchmarks, write_report
from repro.cli import main

EXPECTED_WORKLOADS = {
    "hom_large_target": {"direct_backtracking_s", "cold_engine_s", "speedup"},
    "hom_memoized": {"direct_backtracking_s", "memoized_engine_s", "speedup"},
    "hom_isomorphic_components": {"exact_key_dict_s", "canonical_engine_s",
                                  "speedup"},
    "hom_interning": {"pairwise_iso_dedup_s", "canonical_dedup_s",
                      "speedup_dedup", "large_target_direct_s",
                      "large_target_interned_s", "speedup_large_target"},
    "decision": {"decide_16_views_s"},
    "hom_treewidth": {"backtracking_engine_s", "dp_engine_s", "speedup",
                      "auto_picks_dp"},
    "hom_bitset": {"backtrack_set_s", "backtrack_bitset_s",
                   "speedup_backtrack", "dp_set_s", "dp_bitset_s",
                   "speedup_dp"},
    "service_throughput": {"cold_dispatch_per_task_s",
                           "warm_service_per_task_s", "speedup", "tasks"},
    "service_concurrency": {"async_persistent_s", "async_throughput_rps",
                            "async_p50_ms", "async_p99_ms", "clients",
                            "requests"},
    "linalg_det": {"gaussian_fraction_s", "bareiss_s", "speedup"},
    "store_tiered": {"tiered_record_s", "tiered_lookup_s", "rows"},
}


def _check_report_schema(report):
    assert report["suite"] == "repro-engine-bench"
    assert isinstance(report["repeat"], int) and report["repeat"] >= 1
    workloads = report["workloads"]
    assert set(workloads) == set(EXPECTED_WORKLOADS)
    for name, keys in EXPECTED_WORKLOADS.items():
        numbers = workloads[name]
        assert set(numbers) == keys, f"workload {name} drifted"
        for key, value in numbers.items():
            assert isinstance(value, float) and value >= 0.0, (name, key)
            if key.endswith("_s"):
                assert value < 60.0, f"{name}.{key} implausibly slow"
    stats = report["engine_stats"]
    for field in ("engine.memo.hits", "engine.memo.misses",
                  "engine.memo.entries", "engine.targets.compiled"):
        assert isinstance(stats[field], int)


@pytest.fixture(scope="module")
def report():
    """One full suite run (seconds), shared by the tests that only read
    a report; ``repeat=0`` is clamped to one."""
    return run_benchmarks(repeat=0)


@pytest.fixture
def reused(report, monkeypatch):
    """``write_report`` and the CLI reuse the shared run; returns the
    ``repeat`` values they asked for."""
    calls = []

    def shared_run(repeat: int = 3):
        calls.append(repeat)
        return report

    monkeypatch.setattr(benchsuite, "run_benchmarks", shared_run)
    return calls


def test_run_benchmarks_schema(report):
    _check_report_schema(report)


def test_repeat_is_clamped_to_one(report):
    assert report["repeat"] == 1


def test_write_report_round_trips(tmp_path, reused):
    path = tmp_path / "bench.json"
    report = write_report(path=str(path), repeat=1)
    assert reused == [1]
    on_disk = json.loads(path.read_text())
    _check_report_schema(on_disk)
    assert set(on_disk["workloads"]) == set(report["workloads"])


def test_format_report_mentions_every_workload(report):
    text = format_report(report)
    for name in EXPECTED_WORKLOADS:
        assert name in text
    assert "best of 1" in text


def test_cli_bench_json_output(tmp_path, capsys):
    # The one test that runs the suite end to end through the CLI.
    path = tmp_path / "bench.json"
    assert main(["bench", "run", "--json", "--output", str(path),
                 "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert str(path) in out
    _check_report_schema(json.loads(path.read_text()))


def test_cli_bench_output_flag_implies_json(tmp_path, reused):
    path = tmp_path / "bench.json"
    assert main(["bench", "run", "--output", str(path),
                 "--repeat", "1"]) == 0
    assert path.exists()
    assert reused == [1]


# ----------------------------------------------------------------------
# The CI regression gate consuming these reports
# ----------------------------------------------------------------------
def _load_gate():
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / \
        "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(**timings):
    return {"suite": "repro-engine-bench", "repeat": 1,
            "workloads": {"w": dict(timings)}}


class TestRegressionGate:
    def test_identical_reports_pass(self):
        gate = _load_gate()
        report = _report(thing_s=0.5, speedup=2.0)
        _, failures = gate.compare(report, report)
        assert failures == []

    def test_regression_detected(self):
        gate = _load_gate()
        _, failures = gate.compare(_report(thing_s=0.1),
                                   _report(thing_s=0.5))
        assert failures == ["w.thing_s"]

    def test_tolerance_factor_and_slack(self):
        gate = _load_gate()
        # 1.9x is inside the default 2x gate; tiny absolute times sit
        # inside the additive slack even at huge relative blowups.
        _, failures = gate.compare(
            _report(thing_s=0.1, tiny_s=0.00001),
            _report(thing_s=0.19, tiny_s=0.004))
        assert failures == []

    def test_speedup_keys_are_ignored(self):
        gate = _load_gate()
        _, failures = gate.compare(_report(thing_s=0.1, speedup=100.0),
                                   _report(thing_s=0.1, speedup=1.0))
        assert failures == []

    def test_ablation_timings_are_ignored(self):
        gate = _load_gate()
        # Reference-implementation timings exist only to compute
        # speedups; a noisy runner slowing them down is not a product
        # regression and must not trip the gate.
        _, failures = gate.compare(
            _report(thing_s=0.1, direct_backtracking_s=0.02,
                    exact_key_dict_s=0.01, gaussian_fraction_s=0.01),
            _report(thing_s=0.1, direct_backtracking_s=0.9,
                    exact_key_dict_s=0.9, gaussian_fraction_s=0.9))
        assert failures == []

    def test_disjoint_reports_fail_loudly(self):
        gate = _load_gate()
        _, failures = gate.compare(_report(a_s=0.1),
                                   {"workloads": {"other": {"b_s": 0.1}}})
        assert failures

    def test_missing_workload_is_a_failure(self):
        gate = _load_gate()
        baseline = {"suite": "repro-engine-bench", "repeat": 1,
                    "workloads": {"kept": {"a_s": 0.1},
                                  "dropped": {"b_s": 0.1}}}
        current = {"suite": "repro-engine-bench", "repeat": 1,
                   "workloads": {"kept": {"a_s": 0.1}}}
        lines, failures = gate.compare(baseline, current)
        assert "dropped (missing workload)" in failures
        assert any("MISSING" in line for line in lines)

    def test_missing_gated_timing_is_a_failure(self):
        gate = _load_gate()
        _, failures = gate.compare(_report(a_s=0.1, b_s=0.2),
                                   _report(a_s=0.1))
        assert failures == ["w.b_s (missing timing)"]

    def test_main_exit_codes(self, tmp_path, capsys):
        gate = _load_gate()
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_report(thing_s=0.1)))
        good.write_text(json.dumps(_report(thing_s=0.11)))
        bad.write_text(json.dumps(_report(thing_s=9.9)))
        assert gate.main(["--baseline", str(base), "--current", str(good)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert gate.main(["--baseline", str(base), "--current", str(bad)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
