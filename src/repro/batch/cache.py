"""The persistent on-disk homomorphism store.

:class:`~repro.hom.engine.HomEngine` memoizes ``|hom(component, leaf)|``
counts and Chandra–Merlin existence probes per process; a batch run
over thousands of instances drawn from a small component pool recomputes
the same answers in every fresh process.  This module adds the missing
layer: an SQLite-backed store that the engine consults on in-memory
misses (see ``HomEngine.store``), so each answer is computed **once per
machine**, not once per process.

Layout (schema version 2, ``PRAGMA user_version``)
--------------------------------------------------
``targets``     ``hash -> canonical JSON`` of every distinct counting
                target (stored once, referenced by hash).
``hom_counts``  exact counts; ``hom_exists`` existence verdicts.  Both
                are keyed by

* ``src``    — the source's
  :func:`~repro.structures.canonical.canonical_key` byte string: a
  *complete* isomorphism invariant, identical in every process for
  every member of the iso class;
* ``target`` — the target's hash.

A lookup is one primary-key probe.  The pre-canonical format keyed
rows by a WL-invariant digest and scanned the bucket with pairwise
``find_isomorphism`` calls; the canonical key removed both the scan
and the need to store source payloads at all — which also means
sources whose constants fall outside the JSON wire format persist fine
now (only the *target* still needs a JSON form).  Old-format store
files are detected through ``user_version`` and refused with
:class:`StoreFormatError` instead of silently missing every key.

Counts are stored as decimal text: hom counts routinely exceed 64-bit
range and SQLite integers would silently lose them.

Concurrency: writes are buffered and flushed with ``INSERT OR IGNORE``
under WAL journaling, so concurrent batch workers sharing one store
file never corrupt it and at worst recompute an answer another worker
was about to publish.

Self-healing: the store is a cache, so a damaged file is never worth
failing a batch over.  Any corruption SQLite reports ("database disk
image is malformed", "file is not a database") quarantines the bad
file to ``<path>.corrupt-<ts>``, recreates the schema in a fresh file
and retries the failed operation once; engines keep serving from their
in-memory memo throughout.  The ``corruptions``/``retries`` counters
surface in :meth:`SQLiteHomStore.stats` (and from there in the obs
registry as ``store.corruptions``/``store.retries``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

_T = TypeVar("_T")

from repro.errors import ReproError
from repro.faults.inject import should_inject
from repro.structures.canonical import canonical_key
from repro.structures.serialization import (
    SerializationError,
    structure_from_dict,
    structure_to_dict,
)
from repro.structures.structure import Structure
from repro.batch.tasks import canonical_json

SCHEMA_VERSION = 2

_COUNTS = "hom_counts"
_EXISTS = "hom_exists"

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS targets (
        hash TEXT PRIMARY KEY,
        json TEXT NOT NULL
    )
    """,
    f"""
    CREATE TABLE IF NOT EXISTS {_COUNTS} (
        src    BLOB NOT NULL,
        target TEXT NOT NULL,
        value  TEXT NOT NULL,
        PRIMARY KEY (src, target)
    )
    """,
    f"""
    CREATE TABLE IF NOT EXISTS {_EXISTS} (
        src    BLOB NOT NULL,
        target TEXT NOT NULL,
        value  TEXT NOT NULL,
        PRIMARY KEY (src, target)
    )
    """,
)


class StoreFormatError(ReproError):
    """A store file whose on-disk schema this version cannot serve."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The messages SQLite reports for a damaged file.  ``DatabaseError``
# raised as the *base* class is corruption too ("database disk image is
# malformed" surfaces that way); its OperationalError subclass usually
# means contention, which has its own (skip, don't heal) handling.
_CORRUPTION_MARKERS = ("malformed", "not a database", "corrupt")


def _is_corruption(exc: sqlite3.Error) -> bool:
    """Is this SQLite error a damaged file (as opposed to contention)?"""
    if not isinstance(exc, sqlite3.DatabaseError):
        return False
    if type(exc) is sqlite3.DatabaseError:
        return True
    message = str(exc).lower()
    return any(marker in message for marker in _CORRUPTION_MARKERS)


class SQLiteHomStore:
    """Persistent hom-count / hom-existence store for HomEngine.

    Implements the duck-typed store protocol the engine expects:
    ``lookup``/``record`` for exact counts,
    ``lookup_exists``/``record_exists`` for Chandra–Merlin probes,
    plus ``flush()``/``close()``.

    The schema is validated eagerly at construction (fail fast on
    old-format files), then the connection is re-opened lazily *per
    process* (keyed on ``os.getpid``) so a store object created before
    a ``fork`` never shares an SQLite handle with its children —
    sharing one is undefined behaviour.
    """

    def __init__(self, path: str, flush_every: int = 64):
        self.path = path
        self.flush_every = max(1, flush_every)
        self.lookups = 0
        self.lookup_hits = 0
        self.inserts = 0
        self.corruptions = 0
        self.retries = 0
        self._pending: Dict[str, List[Tuple[bytes, str, str]]] = {
            _COUNTS: [], _EXISTS: [],
        }
        self._pending_targets: List[Tuple[str, str]] = []
        self._json_cache: Dict[Structure, Optional[str]] = {}
        self._connection: Optional[sqlite3.Connection] = None
        self._owner_pid: Optional[int] = None
        # Migration guard runs before any lookup (fail fast on legacy
        # files) — on a short-lived connection, so a store constructed
        # before a fork still holds no SQLite handle (children must
        # never inherit one; see _connect).  A corrupt file heals here
        # instead of poisoning every later operation.
        self._guarded(lambda: self._connect().close(), None)
        self._connection = None
        self._owner_pid = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._connection is None or self._owner_pid != pid:
            # check_same_thread=False: the request service shares one
            # store across its pool threads with all access serialized
            # under the service's engine lock, which is the contract
            # sqlite3 requires for cross-thread handles.  Batch workers
            # are single-threaded processes and are unaffected.
            connection = sqlite3.connect(self.path, timeout=30.0,
                                         check_same_thread=False)
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
                self._check_version(connection)
                with connection:
                    for statement in _SCHEMA:
                        connection.execute(statement)
                    connection.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            except sqlite3.DatabaseError:
                # Don't leak an open handle to a file _heal may be
                # about to quarantine (_check_version closes its own).
                try:
                    connection.close()
                except sqlite3.Error:
                    pass
                raise
            self._connection = connection
            self._owner_pid = pid
            self._pending = {_COUNTS: [], _EXISTS: []}
            self._pending_targets = []
        return self._connection

    @staticmethod
    def _check_version(connection: sqlite3.Connection) -> None:
        """Refuse store files this schema version cannot serve.

        ``user_version`` 0 is ambiguous: both a brand-new file and a
        pre-versioning (PR 2 era) store report it, so the presence of
        the old tables is what distinguishes a legacy store — its rows
        are keyed by WL-digest buckets that canonical-key lookups would
        silently never hit.
        """
        version = connection.execute("PRAGMA user_version").fetchone()[0]
        if version == SCHEMA_VERSION:
            return
        if version == 0:
            legacy = connection.execute(
                "SELECT name FROM pragma_table_info(?) WHERE name='inv'",
                (_COUNTS,),
            ).fetchone()
            if legacy is None:
                return  # fresh (or at least inv-free) file: adopt it
            connection.close()
            raise StoreFormatError(
                "hom store uses the pre-canonical-key layout (rows keyed "
                "by invariant digests); its keys cannot be served by this "
                "version — delete the file and let the store rebuild, or "
                "re-run the batch that produced it")
        connection.close()
        raise StoreFormatError(
            f"hom store has schema version {version}, this build expects "
            f"{SCHEMA_VERSION}; refusing to read keys that would silently "
            f"never match")

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def _guarded(self, operation: Callable[[], _T], default: _T) -> _T:
        """Run one store operation with self-healing.

        Contention (:class:`sqlite3.OperationalError`) degrades to
        ``default`` — the existing never-block-the-batch contract.
        Corruption quarantines the damaged file, recreates the schema
        and retries the operation once; a second failure degrades to
        ``default`` too, so callers keep serving from the in-memory
        memo no matter what is on disk.
        """
        for attempt in (0, 1):
            try:
                return operation()
            except sqlite3.DatabaseError as exc:
                if _is_corruption(exc):
                    self._heal()
                    if attempt == 0:
                        self.retries += 1
                        continue
                    return default
                if isinstance(exc, sqlite3.OperationalError):
                    return default
                raise
        return default

    def _heal(self) -> None:
        """Drop the live connection and quarantine the corrupt file.

        The next ``_connect()`` recreates the schema in a fresh file.
        Queued writes and the serialization memo stay valid — they
        describe answers, not the damaged bytes.
        """
        self.corruptions += 1
        connection, self._connection = self._connection, None
        self._owner_pid = None
        if connection is not None:
            try:
                connection.close()
            except sqlite3.Error:
                pass
        stamp = int(time.time())
        destination = f"{self.path}.corrupt-{stamp}"
        suffix = 0
        while os.path.exists(destination):
            suffix += 1
            destination = f"{self.path}.corrupt-{stamp}.{suffix}"
        try:
            os.replace(self.path, destination)
        except OSError:
            # Already quarantined (or never written) — recreating the
            # schema is still the right next step.
            return
        for sidecar in ("-wal", "-shm"):
            try:
                os.replace(self.path + sidecar, destination + sidecar)
            except OSError:
                pass

    def close(self) -> None:
        self.flush()
        if self._connection is not None and self._owner_pid == os.getpid():
            self._connection.close()
        self._connection = None
        self._owner_pid = None

    def __enter__(self) -> "SQLiteHomStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serialization (memoized per structure; None = not serializable)
    # ------------------------------------------------------------------
    def _structure_json(self, structure: Structure) -> Optional[str]:
        if structure in self._json_cache:
            return self._json_cache[structure]
        try:
            text: Optional[str] = canonical_json(structure_to_dict(structure))
        except SerializationError:
            text = None
        if len(self._json_cache) > 4096:
            self._json_cache.clear()
        self._json_cache[structure] = text
        return text

    # ------------------------------------------------------------------
    # Store protocol (consumed by HomEngine)
    # ------------------------------------------------------------------
    def lookup(self, component: Structure, leaf: Structure) -> Optional[int]:
        """The stored count, matching ``component`` up to isomorphism."""
        value = self._lookup(_COUNTS, component, leaf)
        return None if value is None else int(value)

    def record(self, component: Structure, leaf: Structure, count: int) -> None:
        """Queue a freshly computed count for persistence."""
        self._record(_COUNTS, component, leaf, str(count))

    def lookup_exists(self, source: Structure,
                      target: Structure) -> Optional[bool]:
        """The stored Chandra–Merlin verdict, up to source isomorphism."""
        value = self._lookup(_EXISTS, source, target)
        return None if value is None else value == "1"

    def record_exists(self, source: Structure, target: Structure,
                      result: bool) -> None:
        self._record(_EXISTS, source, target, "1" if result else "0")

    def _lookup(self, table: str, source: Structure,
                target: Structure) -> Optional[str]:
        target_json = self._structure_json(target)
        if target_json is None:
            return None
        self.lookups += 1

        def probe() -> Optional[Tuple[str]]:
            # Inside the guarded operation so an injected corruption
            # exercises the same heal-and-retry path a real one does.
            if should_inject("store.lookup"):
                raise sqlite3.DatabaseError(
                    "database disk image is malformed (injected)")
            return self._connect().execute(
                f"SELECT value FROM {table} WHERE src=? AND target=?",
                (canonical_key(source), _digest(target_json)),
            ).fetchone()

        row = self._guarded(probe, None)
        if row is None:
            return None
        self.lookup_hits += 1
        return row[0]

    def _record(self, table: str, source: Structure, target: Structure,
                value: str) -> None:
        target_json = self._structure_json(target)
        if target_json is None:
            return
        target_hash = _digest(target_json)
        self._pending_targets.append((target_hash, target_json))
        self._pending[table].append((canonical_key(source), target_hash, value))
        if sum(len(rows) for rows in self._pending.values()) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Publish queued answers; contention drops the batch, not data."""
        if not any(self._pending.values()) and not self._pending_targets:
            return
        pending, self._pending = self._pending, {_COUNTS: [], _EXISTS: []}
        pending_targets, self._pending_targets = self._pending_targets, []

        def publish() -> None:
            connection = self._connect()
            with connection:
                connection.executemany(
                    "INSERT OR IGNORE INTO targets VALUES (?, ?)",
                    pending_targets,
                )
                for table, rows in pending.items():
                    if rows:
                        connection.executemany(
                            f"INSERT OR IGNORE INTO {table} VALUES (?, ?, ?)",
                            rows,
                        )
            self.inserts += sum(len(rows) for rows in pending.values())

        # Contention default: another worker holds the write lock past
        # the busy timeout; the answers stay correct in memory and will
        # be recomputed (or published by that worker) — never block the
        # batch.  Corruption heals and republishes the detached batch.
        self._guarded(publish, None)

    # ------------------------------------------------------------------
    # Warm start / introspection
    # ------------------------------------------------------------------
    def preload(self, engine, limit: int = 2048) -> int:
        """Seed an engine's in-memory memo from the store.

        Reads up to ``limit`` stored ``(src_key, target, count)`` rows
        — most recently recorded first (descending rowid), so a bounded
        preload keeps the answers the workload touched last — and
        pushes them through
        :meth:`~repro.hom.engine.HomEngine.seed_count_key`: the
        canonical key *is* the memo key, so no source structure is
        decoded (or stored) at all.  Returns the number of counts
        seeded; rows whose target no longer decodes are skipped.
        """
        def fetch() -> List[Tuple[bytes, str, str]]:
            return self._connect().execute(
                f"SELECT h.src, t.json, h.value"
                f" FROM {_COUNTS} h JOIN targets t ON t.hash = h.target"
                f" ORDER BY h.rowid DESC LIMIT ?",
                (limit,),
            ).fetchall()

        rows = self._guarded(fetch, [])
        targets: Dict[str, Optional[Structure]] = {}
        seeded = 0
        for src_key, target_json, value in rows:
            if target_json not in targets:
                targets[target_json] = self._decode(target_json)
            leaf = targets[target_json]
            if leaf is None:
                continue
            engine.seed_count_key(bytes(src_key), leaf, int(value))
            seeded += 1
        return seeded

    @staticmethod
    def _decode(text: str) -> Optional[Structure]:
        try:
            return structure_from_dict(json.loads(text))
        except (SerializationError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Row-level surface (cache merge / warm-pack / v3 migration)
    # ------------------------------------------------------------------
    def iter_rows(self, table: str, newest_first: bool = False,
                  limit: Optional[int] = None):
        """Yield ``(src_key, target_json, value)`` rows of one table.

        Pending rows are flushed first so the iteration sees every
        recorded answer.  ``newest_first`` walks descending rowid —
        the order warm packs are exported in.
        """
        self.flush()
        order = "DESC" if newest_first else "ASC"

        def fetch() -> List[Tuple[bytes, str, str]]:
            return self._connect().execute(
                f"SELECT h.src, t.json, h.value"
                f" FROM {table} h JOIN targets t ON t.hash = h.target"
                f" ORDER BY h.rowid {order} LIMIT ?",
                (-1 if limit is None else limit,),
            ).fetchall()

        for src_key, target_json, value in self._guarded(fetch, []):
            yield bytes(src_key), target_json, value

    def record_row(self, table: str, src_key: bytes, target_json: str,
                   value: str) -> None:
        """Queue one raw row (merge/import path — no Structures)."""
        target_hash = _digest(target_json)
        self._pending_targets.append((target_hash, target_json))
        self._pending[table].append((src_key, target_hash, value))
        if sum(len(rows) for rows in self._pending.values()) >= self.flush_every:
            self.flush()

    def compact(self) -> Dict[str, int]:
        """VACUUM the store file; returns byte sizes before/after."""
        self.flush()
        before = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        self._guarded(lambda: self._connect().execute("VACUUM"), None)
        after = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        return {"bytes_before": before, "bytes_after": after}

    def info(self) -> Dict[str, object]:
        """The ``repro cache info`` report for a single-file store."""
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "shards": 1,
            "counts": self.counts_len(),
            "exists": self.exists_len(),
            "memory_tier": None,
            "shard_files": [{
                "index": 0,
                "path": self.path,
                "counts": self.counts_len(),
                "exists": self.exists_len(),
                "bytes": os.path.getsize(self.path)
                if os.path.exists(self.path) else 0,
            }],
        }

    def clear(self) -> int:
        """Delete every persisted answer (``repro cache flush``).

        Drops pending (unflushed) rows too — flushing them after a
        clear would resurrect part of the cache the operator just
        asked to empty.  Returns the number of deleted rows.
        """
        self._pending = {_COUNTS: [], _EXISTS: []}
        self._pending_targets = []

        def wipe() -> int:
            removed = len(self)
            connection = self._connect()
            with connection:
                for table in (_COUNTS, _EXISTS, "targets"):
                    connection.execute(f"DELETE FROM {table}")
            return removed

        return self._guarded(wipe, 0)

    def counts_len(self) -> int:
        return self._table_len(_COUNTS)

    def exists_len(self) -> int:
        return self._table_len(_EXISTS)

    def _table_len(self, table: str) -> int:
        def count() -> int:
            row = self._connect().execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()
            return int(row[0])

        return self._guarded(count, 0)

    def __len__(self) -> int:
        return self.counts_len() + self.exists_len()

    def counters(self) -> Dict[str, int]:
        """The monotonic counters of :meth:`stats`, without its row
        counts: reads no SQL."""
        return {
            "lookups": self.lookups,
            "lookup_hits": self.lookup_hits,
            "inserts": self.inserts,
            "corruptions": self.corruptions,
            "retries": self.retries,
        }

    def stats(self) -> Dict[str, int]:
        stats = {"counts": self.counts_len(), "exists": self.exists_len()}
        stats.update(self.counters())
        return stats

    def __repr__(self) -> str:
        return (f"SQLiteHomStore(path={self.path!r}, entries={len(self)}, "
                f"hits={self.lookup_hits}/{self.lookups})")
