"""Parallel batch evaluation over families of determinacy instances.

The throughput-oriented face of the library: where :mod:`repro.core`
answers one instance fast, this package answers *many* — sharded across
worker processes, backed by a persistent on-disk hom-count store, and
reproducible byte-for-byte regardless of worker count.

* :mod:`repro.batch.tasks` — the serializable task codec (JSONL).
* :mod:`repro.batch.scenarios` — seeded random instance families.
* :mod:`repro.batch.cache` — the SQLite hom-count store the engine
  consults across processes.
* :mod:`repro.batch.runner` — chunked evaluation in forked worker
  processes with deterministic result ordering and resume support.
* :mod:`repro.batch.pipe` — the worker pipe the runner shares with the
  async daemon.

CLI: ``repro batch gen`` / ``repro batch run`` / ``repro batch cache``.
"""

from repro.batch.cache import SQLiteHomStore
from repro.batch.runner import evaluate_task, iter_results, run_batch
from repro.batch.scenarios import SCENARIO_KINDS, generate_scenario, write_scenario
from repro.batch.tasks import (
    BatchCodecError,
    DecodedTask,
    decode_task,
    encode_task,
    make_containment_task,
    make_decision_task,
    make_hom_count_task,
    make_path_task,
    make_ucq_task,
    task_seed,
)

__all__ = [
    "BatchCodecError",
    "DecodedTask",
    "SCENARIO_KINDS",
    "SQLiteHomStore",
    "decode_task",
    "encode_task",
    "evaluate_task",
    "generate_scenario",
    "iter_results",
    "make_containment_task",
    "make_decision_task",
    "make_hom_count_task",
    "make_path_task",
    "make_ucq_task",
    "run_batch",
    "task_seed",
    "write_scenario",
]
