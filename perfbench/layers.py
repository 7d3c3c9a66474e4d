"""Per-layer metrics from the span files a traced run leaves behind.

A ``_ms`` metric is the self time of a layer's spans in milliseconds
per task: a span's duration minus the time its child spans cover, so
time spent in ``canonical_key`` under a store lookup is charged to
``structures``, not to ``store``.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Callable, Dict, List, Optional, Tuple

# metric -> span name (see tracer.install for what each span wraps)
SELF_TIME = {
    "codec.decode_ms": "codec.decode",
    "codec.encode_ms": "codec.encode",
    "structures.canonical_ms": "structures.canonical",
    "structures.isomorphism_ms": "structures.isomorphism",
    "hom.compile_ms": "hom.compile",
    "hom.count_ms": "hom.count",
    "hom.containment_ms": "hom.containment",
    "core.basis_ms": "core.basis",
    "core.witness_ms": "core.witness",
    "core.pathdet_ms": "core.pathdet",
    "linalg.span_ms": "linalg.span",
    "ucq.certificate_ms": "ucq.certificate",
    "store.record_ms": "store.record",
    "store.flush_ms": "store.flush",
    "store.lookup_ms": "store.lookup",
}

Span = Tuple[int, int, str, float, float, float, Optional[str]]


def load(directory: str) -> Tuple[List[Span], Dict[str, int]]:
    """Every span of every process, and the summed counters."""
    spans: List[Span] = []
    counters: Dict[str, int] = {}
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            for name, value in header["counters"].items():
                counters[name] = counters.get(name, 0) + value
            spans.extend(tuple(json.loads(line)) for line in handle)
    return spans, counters


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: List[Span], counters: Dict[str, int], tasks: int,
                  keep: Callable[[Optional[str]], bool]) -> Dict[str, float]:
    """Self time per task for each layer, plus the counter ratios.

    ``keep(task_id)`` selects the spans of measured tasks; spans that
    ran outside any task (a flush between chunks) always count.
    """
    totals = {name: 0.0 for name in SELF_TIME.values()}
    for _, _, name, _, _, self_time, task in spans:
        if name in totals and (task is None or keep(task)):
            totals[name] += self_time
    metrics = {metric: 1000.0 * totals[name] / max(tasks, 1)
               for metric, name in SELF_TIME.items()}
    get = counters.get
    metrics["structures.canonical_search_share"] = _ratio(
        get("canonical.misses", 0), get("canonical.calls", 0))
    metrics["hom.memo_hit_ratio"] = _ratio(
        get("memo.hits", 0), get("memo.hits", 0) + get("memo.misses", 0))
    metrics["hom.dp_share"] = _ratio(
        get("count.dp", 0), get("count.dp", 0) + get("count.backtrack", 0))
    metrics["store.lookup_hit_ratio"] = _ratio(
        get("store.lookup_hits", 0), get("store.lookups", 0))
    metrics["store.tier_hit_ratio"] = _ratio(
        get("store.tier_hits", 0),
        get("store.tier_hits", 0) + get("store.tier_misses", 0))
    return metrics


def service_times(spans: List[Span]) -> Dict[str, Tuple[float, float, float]]:
    """``task id -> (admitted, evaluation start, evaluation end)`` from
    the traced daemon's ``service.submit`` and ``service.eval`` spans."""
    admitted: Dict[str, float] = {}
    evaluated: Dict[str, Tuple[float, float]] = {}
    for _, _, name, start, end, _, task in spans:
        if task is None:
            continue
        if name == "service.submit":
            admitted[task] = end
        elif name == "service.eval":
            evaluated[task] = (start, end)
    return {task: (admitted[task],) + evaluated[task]
            for task in evaluated if task in admitted}
