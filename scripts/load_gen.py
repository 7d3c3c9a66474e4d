#!/usr/bin/env python
"""Closed-loop load generator against a running repro daemon.

Thin wrapper over :mod:`repro.service.loadgen` — the same harness
behind ``repro serve load`` and the ``service_concurrency`` bench
workload — kept as a standalone script so CI can drive a daemon with a
bare ``python`` regardless of how the package is (not) installed.

Usage::

    python -m repro.cli serve start --port 7799 &
    python scripts/load_gen.py --port 7799 --clients 16 \
        --requests 25 --transport persistent

Prints one JSON summary line: clients, transport, requests, errors,
elapsed_s, throughput_rps, p50_ms, p99_ms.  Exits non-zero when any
request errored (pass ``--allow-errors`` to tolerate overload
rejections during stress runs) or when ``--max-p99-ms`` is exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.service.loadgen import (  # noqa: E402
    TRANSPORTS,
    default_task_lines,
    run_load,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client")
    parser.add_argument("--transport", choices=TRANSPORTS,
                        default="persistent")
    parser.add_argument("--tasks", type=int, default=8,
                        help="distinct task lines to cycle through")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="fail when p99 latency exceeds this bound")
    parser.add_argument("--allow-errors", action="store_true",
                        help="do not fail on overload rejections")
    args = parser.parse_args(argv)

    report = run_load(
        args.host, args.port,
        default_task_lines(args.tasks, seed=args.seed),
        clients=args.clients,
        requests_per_client=args.requests,
        transport=args.transport,
        timeout=args.timeout)
    print(json.dumps(report.summary(), sort_keys=True))
    if report.errors and not args.allow_errors:
        print(f"load_gen: {report.errors} request(s) errored",
              file=sys.stderr)
        return 1
    if args.max_p99_ms is not None and report.p99_ms > args.max_p99_ms:
        print(f"load_gen: p99 {report.p99_ms:.3f}ms exceeds bound "
              f"{args.max_p99_ms}ms", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
