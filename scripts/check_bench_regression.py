#!/usr/bin/env python
"""CI gate: fail when engine benchmark timings regress vs the baseline.

Thin wrapper over the regression gate in :mod:`repro.benchsuite` — the
same comparison behind ``repro bench check`` — kept as a standalone
script so CI can invoke it with a bare ``python`` regardless of how the
package is (not) installed.

Usage::

    python -m repro.cli bench run --json --output bench_ci.json --repeat 5
    python scripts/check_bench_regression.py \
        --baseline BENCH_engine.json --current bench_ci.json --factor 2.0

See :func:`repro.benchsuite.compare_reports` for the gate semantics
(tolerant factor + additive slack; ablation timings skipped; missing
workloads fail loudly).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.benchsuite import (  # noqa: E402
    ABLATION_KEYS,
    DEFAULT_FACTOR,
    DEFAULT_SLACK_S,
    compare_reports,
    render_gate,
)
from repro.benchsuite import load_report as _load_report  # noqa: E402
from repro.errors import ReproError  # noqa: E402

# Historical module surface (tests and older tooling import these).
compare = compare_reports

__all__ = ["ABLATION_KEYS", "DEFAULT_FACTOR", "DEFAULT_SLACK_S",
           "compare", "load_report", "main"]


def load_report(path: str):
    try:
        return _load_report(path)
    except ReproError as error:
        raise SystemExit(str(error))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when bench timings regress vs the baseline")
    parser.add_argument("--baseline", required=True,
                        help="checked-in report (e.g. BENCH_engine.json)")
    parser.add_argument("--current", required=True,
                        help="freshly produced report to judge")
    parser.add_argument("--factor", type=float, default=DEFAULT_FACTOR,
                        help="allowed slowdown factor (default: 2.0)")
    parser.add_argument("--slack", type=float, default=DEFAULT_SLACK_S,
                        help="additive slack in seconds (default: 0.005)")
    args = parser.parse_args(argv)

    baseline = load_report(args.baseline)
    current = load_report(args.current)
    lines, failures = compare_reports(baseline, current,
                                      args.factor, args.slack)
    print(render_gate(lines, failures, args.factor, args.slack))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
