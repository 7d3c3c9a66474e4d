"""The serializable task codec of the batch subsystem.

A *task* is one unit of batch work — a decision, containment, witness
or certification problem — written as a single JSON object (one line of
a JSONL scenario file).  The codec is deliberately thin: query payloads
reuse the wire format of :mod:`repro.structures.serialization`, so any
tool that can emit view catalogs can emit batch scenarios.

Task shapes::

    {"id": "t0", "kind": "decide-cq", "views": [<cq>...], "query": <cq>,
     "witness": false}
    {"id": "t1", "kind": "containment", "query": <cq>, "container": <cq>}
    {"id": "t2", "kind": "decide-path", "views": [<path>...], "query": <path>}
    {"id": "t3", "kind": "certify-ucq", "views": [<ucq>...], "query": <ucq>}
    {"id": "t4", "kind": "hom-count", "source": <structure>,
     "target": <structure>}

``decide-cq`` with ``"witness": true`` additionally constructs and
verifies a counterexample pair when the instance is not determined; the
construction is seeded from :func:`task_seed`, a content hash of the
task, so results are reproducible across runs, worker counts and
machines.

Structure payloads (``hom-count`` sources/targets, witness pairs in
result records) use the interned wire format of
:mod:`repro.structures.serialization`: the constant table is shipped
once per structure and fact terms are indices into it, so a task whose
source repeats bulky tagged-tuple constants across many facts pays for
each constant once per line, not once per occurrence.  Decoding still
accepts the pre-interning inline-constant form, so scenario files
written by older builds keep loading.

Everything round-trips: ``decode_task(encode_task(t))`` recovers the
query objects exactly, and ``encode_task``/``encode_record`` emit
*canonical* JSON (sorted keys, minimal separators) so batch outputs can
be compared byte-for-byte.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import PROCESS_METRICS
from repro.queries.cq import ConjunctiveQuery
from repro.queries.path import PathQuery
from repro.queries.ucq import UnionOfBooleanCQs
from repro.structures.serialization import (
    from_dict,
    structure_from_dict,
    structure_to_dict,
    to_dict,
)
from repro.structures.structure import Structure


class BatchCodecError(ReproError):
    """Malformed task lines and records."""


VALID_KINDS = ("decide-cq", "containment", "decide-path", "certify-ucq",
               "hom-count")

_QUERY_TYPES = {
    "decide-cq": ConjunctiveQuery,
    "containment": ConjunctiveQuery,
    "decide-path": PathQuery,
    "certify-ucq": UnionOfBooleanCQs,
}


def canonical_json(payload: Dict[str, Any]) -> str:
    """Canonical single-line JSON: sorted keys, minimal separators.

    Batch outputs are compared byte-for-byte across worker counts, so
    every record funnels through this one serializer.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


# ----------------------------------------------------------------------
# Task construction (object side)
# ----------------------------------------------------------------------
def make_decision_task(task_id: str, views, query: ConjunctiveQuery,
                       witness: bool = False) -> Dict[str, Any]:
    """A ``decide-cq`` task record for boolean-CQ bag-determinacy."""
    record = {
        "id": str(task_id),
        "kind": "decide-cq",
        "views": [to_dict(v) for v in views],
        "query": to_dict(query),
    }
    if witness:
        record["witness"] = True
    return record


def make_containment_task(task_id: str, query: ConjunctiveQuery,
                          container: ConjunctiveQuery) -> Dict[str, Any]:
    """A Chandra–Merlin set-containment probe ``query ⊆set container``."""
    return {
        "id": str(task_id),
        "kind": "containment",
        "query": to_dict(query),
        "container": to_dict(container),
    }


def make_path_task(task_id: str, views, query: PathQuery) -> Dict[str, Any]:
    """A Theorem 1 path-determinacy task."""
    return {
        "id": str(task_id),
        "kind": "decide-path",
        "views": [to_dict(v) for v in views],
        "query": to_dict(query),
    }


def make_ucq_task(task_id: str, views, query: UnionOfBooleanCQs) -> Dict[str, Any]:
    """A linear-certificate task for boolean UCQs."""
    return {
        "id": str(task_id),
        "kind": "certify-ucq",
        "views": [to_dict(v) for v in views],
        "query": to_dict(query),
    }


def make_hom_count_task(task_id: str, source: Structure,
                        target: Structure) -> Dict[str, Any]:
    """A raw ``|hom(source, target)|`` count request — the primitive
    the request service exposes directly (Lemma 4 work without the
    determinacy pipeline around it)."""
    return {
        "id": str(task_id),
        "kind": "hom-count",
        "source": structure_to_dict(source),
        "target": structure_to_dict(target),
    }


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
@dataclass
class DecodedTask:
    """A validated task with its query payloads materialized.

    ``query``/``views``/``container`` carry the determinacy payloads;
    ``source``/``target`` carry the structures of a ``hom-count`` task
    (whose ``query`` is ``None``).
    """

    id: str
    kind: str
    record: Dict[str, Any]
    query: Any
    views: Tuple[Any, ...] = ()
    container: Optional[ConjunctiveQuery] = None
    witness: bool = field(default=False)
    source: Optional[Structure] = None
    target: Optional[Structure] = None
    #: Per-task wall-clock deadline (``{"deadline_ms": …}`` in the
    #: envelope); ``None`` defers to the session default.
    deadline_ms: Optional[float] = None

    def seed(self) -> int:
        """The deterministic RNG seed for any randomized step."""
        return task_seed(self.record)


def encode_task(record: Dict[str, Any]) -> str:
    """Canonical JSONL line for a task record (validates first)."""
    decode_task(record)  # validation only
    return canonical_json(record)


# Sized like the canonical_key and component-certificate memos (E22).
DECODE_MEMO_SIZE = 1024

# The memo key: a payload's JSON text in its own key order.  Over the
# values json.loads builds it is exact (1, 1.0 and true differ, and so
# do two orders of one object, which from_dict may read in order, as
# in ``"letters": {"B": 0, "A": 0}``); sorted keys would not be.  Those
# values hold no cycles, so the encoder skips its cycle check.
_PAYLOAD_TEXT = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_MEMO_KINDS = ("cq", "ucq")


@lru_cache(maxsize=DECODE_MEMO_SIZE)
def query_from_text(text: str):
    """The query a payload's JSON text decodes to, memoized
    process-wide (a failed decode raises and is not cached)."""
    return from_dict(json.loads(text))


def _memoized_from_dict(payload):
    """:func:`from_dict` through :func:`query_from_text`.

    Views recur across a corpus, so each distinct CQ or UCQ payload is
    decoded once and every repeat shares one immutable query and its
    cached frozen body: the engine's and the store's memos then hit by
    identity.  Structures stay out: ``hom-count`` sources are mostly
    one-off, so they would only fill the memo.  Path words stay out
    too: one builds in about a microsecond, less than its key costs,
    and the path decider keeps nothing per query.
    """
    if isinstance(payload, dict) and payload.get("kind") in _MEMO_KINDS:
        return query_from_text(_PAYLOAD_TEXT.encode(payload))
    return from_dict(payload)


# Process-wide, like intern.* and canonical.*: every session's
# snapshot carries them.
def _decode_counters() -> Dict[str, int]:
    info = query_from_text.cache_info()
    return {"decode.hits": info.hits, "decode.misses": info.misses}


def _decode_gauges() -> Dict[str, int]:
    return {"decode.cached": query_from_text.cache_info().currsize}


PROCESS_METRICS.register_collector(_decode_counters, monotonic=True)
PROCESS_METRICS.register_collector(_decode_gauges, monotonic=False)


def _decode_payload(task_id: str, label: str, payload,
                    decode: Callable[[Any], Any], expected: type = object):
    try:
        value = decode(payload)
    except (ReproError, AttributeError, TypeError) as exc:
        raise BatchCodecError(
            f"task {task_id}: bad {label} payload: {exc}") from exc
    if not isinstance(value, expected):
        raise BatchCodecError(
            f"task {task_id}: {label} must decode to {expected.__name__}, "
            f"got {type(value).__name__}")
    return value


def decode_task(line: "str | Dict[str, Any]") -> DecodedTask:
    """Parse and validate one task line (or already-parsed record).

    The query payloads of a line go through the payload memo; a record
    handed in as a dict is decoded afresh, since its values need not be
    the JSON types the memo's key is exact for.
    """
    if isinstance(line, str):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BatchCodecError(f"invalid JSON task line: {exc}") from exc
        decode_query = _memoized_from_dict
    else:
        record = line
        decode_query = from_dict
    if not isinstance(record, dict):
        raise BatchCodecError(f"task must be a JSON object, got {type(record).__name__}")

    kind = record.get("kind")
    if kind not in VALID_KINDS:
        raise BatchCodecError(
            f"unknown task kind {kind!r}; expected one of {VALID_KINDS}")
    task_id = record.get("id")
    if not isinstance(task_id, str) or not task_id:
        raise BatchCodecError(f"task needs a non-empty string 'id', got {task_id!r}")

    deadline_ms = record.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) \
                or not isinstance(deadline_ms, (int, float)) \
                or deadline_ms <= 0:
            raise BatchCodecError(
                f"task {task_id}: 'deadline_ms' must be a positive "
                f"number, got {deadline_ms!r}")
        deadline_ms = float(deadline_ms)

    if kind == "hom-count":
        return DecodedTask(
            id=task_id,
            kind=kind,
            record=record,
            query=None,
            source=_decode_payload(task_id, "source", record.get("source"),
                                   structure_from_dict),
            target=_decode_payload(task_id, "target", record.get("target"),
                                   structure_from_dict),
            deadline_ms=deadline_ms,
        )

    expected = _QUERY_TYPES[kind]
    query = _decode_payload(task_id, "query", record.get("query"),
                            decode_query, expected)
    views: Tuple[Any, ...] = ()
    container: Optional[ConjunctiveQuery] = None
    if kind == "containment":
        container = _decode_payload(task_id, "container",
                                    record.get("container"), decode_query,
                                    expected)
    else:
        raw_views = record.get("views", [])
        if not isinstance(raw_views, list):
            raise BatchCodecError(f"task {task_id}: 'views' must be a list")
        views = tuple(
            _decode_payload(task_id, f"view #{position}", payload,
                            decode_query, expected)
            for position, payload in enumerate(raw_views))

    return DecodedTask(
        id=task_id,
        kind=kind,
        record=record,
        query=query,
        views=views,
        container=container,
        witness=bool(record.get("witness", False)),
        deadline_ms=deadline_ms,
    )


def task_seed(record: Dict[str, Any]) -> int:
    """Stable content hash of a task — the seed for randomized steps.

    Uses CRC32 of the canonical JSON so the same task gets the same
    randomness in every process on every machine (Python's built-in
    ``hash`` is salted per process and useless here).
    """
    return zlib.crc32(canonical_json(record).encode("utf-8"))
