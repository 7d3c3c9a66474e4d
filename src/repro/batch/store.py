"""The tiered, sharded hom store (schema v3).

:class:`~repro.batch.cache.SQLiteHomStore` (schema v2) is one WAL
file: every lookup is a synchronous disk probe behind one service
lock, every record an eager write, and N resident replicas cannot
share state without queueing on a single writer.  This module is the
scale-out replacement — one store object, three tiers:

1. **Memory tier** (:class:`MemoryTier`) — a bounded LRU dict keyed by
   ``(table, canonical_key, target_hash)``.  Hot lookups are answered
   with zero I/O; hit/miss/eviction counters surface as
   ``store.tier.*`` in the obs registry.
2. **Shard tier** — ``shards`` SQLite files under one directory,
   hash-partitioned on the first bytes of the source's
   :func:`~repro.structures.canonical.canonical_key` (``crc32`` of the
   key prefix, deterministic across processes and hash seeds).  Each
   shard carries the v2 table layout stamped ``PRAGMA user_version=3``
   and is opened lazily — a batch worker touches only the shards its
   keys hash into (``store.shard.opens`` counts real opens).  The
   self-healing corruption path is per shard: a damaged shard file is
   quarantined and rebuilt while its siblings keep serving.
3. **Write-behind buffer** — records are queued per shard and
   published in one ``INSERT OR IGNORE`` transaction per shard when a
   shard's queue reaches ``flush_every`` rows, when
   ``flush_interval_s`` has elapsed since the last flush, on
   :meth:`flush` and on :meth:`close`.  The request path never waits
   on a per-record commit.

Layout on disk::

    <path>/                     # the store is a directory
        meta.json               # {"schema_version": 3, "shards": N}
        shard-000.sqlite        # v2 tables, user_version=3
        shard-001.sqlite
        ...

Migration: opening a ``path`` that is an existing **v2 single file**
performs the one-shot v2→v3 migration — the file is moved aside to
``<path>.v2-backup``, the shard directory is created at ``path``, and
every row is re-published into its shard (recency order preserved, so
``preload`` keeps serving the most recently recorded rows first).
Legacy (pre-v2) and future-versioned files are refused with
:class:`~repro.batch.cache.StoreFormatError`, exactly like the
single-file store.

Tooling (``repro cache merge|compact|warm-pack``) is built on the
row-level surface both store classes share: :meth:`iter_rows` /
:meth:`record_row` move answers between stores without decoding any
source structure (the canonical key *is* the identity), and
:func:`export_warm_pack` / :func:`import_warm_pack` ship a compact
JSONL pack of the most recently recorded answers that
``repro serve start --preload-pack`` feeds into a fresh replica's
store tiers.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import zlib
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import ReproError
from repro.faults.inject import should_inject
from repro.structures.canonical import canonical_key
from repro.structures.serialization import (
    SerializationError,
    structure_to_dict,
)
from repro.structures.structure import Structure
from repro.batch.cache import (
    _COUNTS,
    _EXISTS,
    _SCHEMA,
    SQLiteHomStore,
    StoreFormatError,
    _digest,
    _is_corruption,
)
from repro.batch.tasks import canonical_json

_T = TypeVar("_T")

SCHEMA_VERSION_V3 = 3
DEFAULT_SHARDS = 8
DEFAULT_MEMORY_TIER = 8192
DEFAULT_FLUSH_EVERY = 512
DEFAULT_FLUSH_INTERVAL_S = 2.0

META_NAME = "meta.json"
_SHARD_NAME = "shard-{:03d}.sqlite"

# Warm-pack line kinds: a target line introduces the next target index,
# count/exists lines reference targets by that index.
_PACK_FORMAT = "repro-warm-pack"
_PACK_VERSION = 1
_PACK_TABLE_TAGS = {_COUNTS: "c", _EXISTS: "e"}
_PACK_TAG_TABLES = {tag: table for table, tag in _PACK_TABLE_TAGS.items()}


def shard_of(key: bytes, shards: int) -> int:
    """The shard a canonical key hashes into.

    Canonical keys are ``repr`` text, so their leading bytes share long
    common prefixes within a workload — partitioning on the raw prefix
    would pile everything into one shard.  ``crc32`` over the first 64
    bytes mixes the prefix into a uniform bucket and is deterministic
    across processes, platforms and hash seeds (unlike ``hash()``).
    """
    if shards <= 1:
        return 0
    return zlib.crc32(key[:64]) % shards


class MemoryTier:
    """The in-process LRU tier: a bounded dict of answered lookups.

    Values are stored as the decimal/flag text the SQLite tables hold,
    so a tier hit and a shard hit are indistinguishable to callers.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_entries")

    def __init__(self, capacity: int = DEFAULT_MEMORY_TIER):
        self.capacity = max(1, capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple, str]" = OrderedDict()

    def get(self, key: Tuple) -> Optional[str]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Tuple, value: str) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = value
            return
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"MemoryTier(entries={len(self._entries)}/{self.capacity}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")


class TieredHomStore:
    """Memory tier + hash-partitioned SQLite shards + write-behind.

    Implements the same duck-typed store protocol as
    :class:`~repro.batch.cache.SQLiteHomStore` (``lookup``/``record``,
    ``lookup_exists``/``record_exists``, ``preload``, ``flush``,
    ``close``, ``clear``, ``stats``), so the engine, the session and
    every CLI verb treat the two interchangeably.

    ``path`` is a directory (created on first open).  An existing v2
    single file at ``path`` is migrated in one shot (see module docs).
    ``shards`` fixes the partition count at creation; reopening adopts
    the count recorded in ``meta.json`` and refuses a contradicting
    explicit value — resharding is ``repro cache merge`` into a fresh
    store, never a silent rehash that would orphan every existing row.
    """

    def __init__(self, path: str, shards: Optional[int] = None,
                 memory_tier: int = DEFAULT_MEMORY_TIER,
                 flush_every: int = DEFAULT_FLUSH_EVERY,
                 flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S):
        self.path = path
        self.flush_every = max(1, flush_every)
        self.flush_interval_s = flush_interval_s
        self.lookups = 0
        self.lookup_hits = 0
        self.inserts = 0
        self.corruptions = 0
        self.retries = 0
        self.flush_batches = 0
        self.flush_rows = 0
        self.shard_opens = 0
        self.tier = MemoryTier(memory_tier)
        # (json, sha256) per target Structure; None = unserializable.
        self._target_cache: Dict[Structure,
                                 Optional[Tuple[str, str]]] = {}
        self._owner_pid = os.getpid()
        migrate_from: Optional[str] = None
        if os.path.isdir(path):
            self.shards = self._adopt_meta(path, shards)
        elif os.path.exists(path):
            # A regular file where the shard directory should be: the
            # one-shot v2→v3 migration (or a refusal, for legacy and
            # future formats — _migrate_source_store raises for those).
            try:
                migrate_from = self._displace_v2_file(path)
            except FileNotFoundError:
                # A sibling process won the displace race and is
                # building the directory; adopt its layout instead.
                if not os.path.isdir(path):
                    raise
                self.shards = self._adopt_meta(path, shards)
            if migrate_from is not None:
                self.shards = (shards if shards is not None
                               else DEFAULT_SHARDS)
                self._create_dir(path, self.shards)
        else:
            self.shards = shards if shards is not None else DEFAULT_SHARDS
            self._create_dir(path, self.shards)
        if self.shards < 1:
            raise ReproError(f"shards must be >= 1, got {self.shards}")
        self._connections: Dict[int, sqlite3.Connection] = {}
        self._file_seen = [False] * self.shards
        self._pending: List[Dict[str, List[Tuple[bytes, str, str]]]] = [
            {_COUNTS: [], _EXISTS: []} for _ in range(self.shards)]
        self._pending_targets: List[Dict[str, str]] = [
            {} for _ in range(self.shards)]
        self._pending_count: List[int] = [0] * self.shards
        self._last_flush = time.monotonic()
        if migrate_from is not None:
            self._migrate_source_store(migrate_from)

    # ------------------------------------------------------------------
    # Layout: meta file, shard files, migration
    # ------------------------------------------------------------------
    @staticmethod
    def _meta_path(path: str) -> str:
        return os.path.join(path, META_NAME)

    def shard_path(self, index: int) -> str:
        return os.path.join(self.path, _SHARD_NAME.format(index))

    @classmethod
    def _adopt_meta(cls, path: str, shards: Optional[int]) -> int:
        meta = cls._read_meta(path)
        if meta is None:
            # No meta.json.  Either this directory is not a store at
            # all — refuse before touching it — or a sibling process
            # just created it and has not published meta.json yet (a
            # fleet of batch workers all opening one fresh store).
            # The publish is an atomic os.replace, so poll briefly for
            # it to land; if nobody publishes, claim the layout
            # ourselves — every opener of a fresh store was asked for
            # the same partitioning, and the claim is idempotent.
            if any(not cls._is_store_entry(name)
                   for name in os.listdir(path)):
                raise StoreFormatError(
                    f"{path} is a directory but has no {META_NAME}; not "
                    f"a sharded hom store (schema v3)")
            deadline = time.monotonic() + 2.0
            while meta is None and time.monotonic() < deadline:
                time.sleep(0.02)
                meta = cls._read_meta(path)
            if meta is None:
                cls._write_meta(
                    path, shards if shards is not None else DEFAULT_SHARDS)
                meta = cls._read_meta(path)
            if meta is None:
                raise StoreFormatError(
                    f"{path} is a directory but has no {META_NAME}; not "
                    f"a sharded hom store (schema v3)")
        version = meta.get("schema_version")
        if version != SCHEMA_VERSION_V3:
            raise StoreFormatError(
                f"sharded hom store {path} has schema version {version}, "
                f"this build expects {SCHEMA_VERSION_V3}")
        recorded = meta.get("shards")
        if not isinstance(recorded, int) or recorded < 1:
            raise StoreFormatError(
                f"{cls._meta_path(path)} carries an invalid shard count "
                f"{recorded!r}")
        if shards is not None and shards != recorded:
            raise StoreFormatError(
                f"store {path} is partitioned into {recorded} shards; "
                f"opening it with shards={shards} would rehash every key "
                f"away from its rows — use 'repro cache merge' into a "
                f"fresh store to reshard")
        return recorded

    @classmethod
    def _read_meta(cls, path: str) -> Optional[Dict[str, object]]:
        """The parsed meta.json, or ``None`` when it does not exist
        (yet — creation publishes it atomically, so a reader never
        sees a partial file; garbage is a format error, not a race)."""
        try:
            with open(cls._meta_path(path), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreFormatError(
                f"cannot read {cls._meta_path(path)}: {exc}")

    @classmethod
    def _write_meta(cls, path: str, shards: int) -> None:
        meta = {"schema_version": SCHEMA_VERSION_V3, "shards": shards}
        temp = cls._meta_path(path) + f".tmp-{os.getpid()}"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, sort_keys=True)
            handle.write("\n")
        os.replace(temp, cls._meta_path(path))

    @staticmethod
    def _is_store_entry(name: str) -> bool:
        """Directory entries a (possibly mid-creation) store may hold;
        anything else means the directory belongs to someone else."""
        return (name == META_NAME or name.startswith(META_NAME + ".tmp-")
                or name.startswith("shard-"))

    @classmethod
    def _create_dir(cls, path: str, shards: int) -> None:
        os.makedirs(path, exist_ok=True)
        cls._write_meta(path, shards)

    @staticmethod
    def _displace_v2_file(path: str) -> str:
        """Move the single-file store aside so the directory can take
        its path.  The backup is kept — migration is additive."""
        backup = f"{path}.v2-backup"
        suffix = 0
        while os.path.exists(backup):
            suffix += 1
            backup = f"{path}.v2-backup.{suffix}"
        os.replace(path, backup)
        for sidecar in ("-wal", "-shm"):
            try:
                os.replace(path + sidecar, backup + sidecar)
            except OSError:
                pass
        return backup

    def _migrate_source_store(self, source_path: str) -> None:
        """Publish every row of the displaced v2 file into its shard.

        Opening the backup through :class:`SQLiteHomStore` reuses the
        v2 version guard verbatim: a legacy (pre-canonical-key) or
        future-versioned file raises :class:`StoreFormatError` here,
        before the new directory has served a single lookup.
        """
        with SQLiteHomStore(source_path) as legacy:
            for table in (_COUNTS, _EXISTS):
                for src_key, target_json, value in legacy.iter_rows(table):
                    self.record_row(table, src_key, target_json, value)
        self.flush()

    # ------------------------------------------------------------------
    # Connection lifecycle (per shard, fork-safe)
    # ------------------------------------------------------------------
    def _ensure_pid(self) -> None:
        """Drop handles and queues inherited across a ``fork``.

        Sharing one SQLite handle across processes is undefined
        behaviour; the parent's pending rows belong to the parent (it
        will flush them itself), so a child starts from clean queues.
        The memory tier survives — its entries are answers, not
        handles.
        """
        pid = os.getpid()
        if pid == self._owner_pid:
            return
        self._owner_pid = pid
        self._connections = {}
        self._file_seen = [False] * self.shards
        self._pending = [{_COUNTS: [], _EXISTS: []}
                         for _ in range(self.shards)]
        self._pending_targets = [{} for _ in range(self.shards)]
        self._pending_count = [0] * self.shards

    def ensure_shards(self) -> None:
        """Materialize every shard file (schema included) up front.

        Lazy creation is right for readers, but a fleet of writers
        starting on an empty directory would all pay (and contend on)
        schema DDL for their first flush; creating the files once,
        before handing the directory out, keeps the write path to pure
        row inserts.
        """
        self._ensure_pid()
        for index in range(self.shards):
            self._guarded(index, lambda: self._connect(index, create=True),
                          None)

    def _connect(self, index: int,
                 create: bool = False) -> Optional[sqlite3.Connection]:
        """The live connection for one shard, or ``None`` when the
        shard file does not exist and ``create`` is False (a read of a
        never-written shard must not materialize an empty file)."""
        connection = self._connections.get(index)
        if connection is not None:
            return connection
        path = self.shard_path(index)
        if not create and not self._file_seen[index]:
            if not os.path.exists(path):
                return None
            self._file_seen[index] = True
        # check_same_thread=False for the same reason as the v2 store:
        # the request service serializes access under its engine lock.
        connection = sqlite3.connect(path, timeout=30.0,
                                     check_same_thread=False)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            if self._check_shard_version(connection, path) == 0:
                # A fresh file.  A stamped one got its tables in the
                # stamping transaction, so reopening it writes nothing
                # (and takes no write lock from a sibling process).
                with connection:
                    for statement in _SCHEMA:
                        connection.execute(statement)
                    connection.execute(
                        f"PRAGMA user_version={SCHEMA_VERSION_V3}")
        except sqlite3.DatabaseError:
            try:
                connection.close()
            except sqlite3.Error:
                pass
            raise
        self._connections[index] = connection
        self._file_seen[index] = True
        self.shard_opens += 1
        return connection

    @staticmethod
    def _check_shard_version(connection: sqlite3.Connection,
                             path: str) -> int:
        version = connection.execute("PRAGMA user_version").fetchone()[0]
        if version in (SCHEMA_VERSION_V3, 0):
            # 0 = fresh file this open is about to stamp.
            return version
        connection.close()
        raise StoreFormatError(
            f"shard file {path} has schema version {version}, this build "
            f"expects {SCHEMA_VERSION_V3}; a v2 single-file store belongs "
            f"at the store path itself (it is migrated on open), not "
            f"inside the shard directory")

    # ------------------------------------------------------------------
    # Self-healing (per shard)
    # ------------------------------------------------------------------
    def _guarded(self, index: int, operation: Callable[[], _T],
                 default: _T) -> _T:
        """Run one shard operation with the v2 store's healing contract,
        scoped to a single shard: contention degrades to ``default``,
        corruption quarantines *that shard's* file, rebuilds it and
        retries once — every sibling shard keeps serving untouched."""
        for attempt in (0, 1):
            try:
                return operation()
            except sqlite3.DatabaseError as exc:
                if _is_corruption(exc):
                    self._heal(index)
                    if attempt == 0:
                        self.retries += 1
                        continue
                    return default
                if isinstance(exc, sqlite3.OperationalError):
                    return default
                raise
        return default

    def _heal(self, index: int) -> None:
        self.corruptions += 1
        connection = self._connections.pop(index, None)
        self._file_seen[index] = False
        if connection is not None:
            try:
                connection.close()
            except sqlite3.Error:
                pass
        path = self.shard_path(index)
        stamp = int(time.time())
        destination = f"{path}.corrupt-{stamp}"
        suffix = 0
        while os.path.exists(destination):
            suffix += 1
            destination = f"{path}.corrupt-{stamp}.{suffix}"
        try:
            os.replace(path, destination)
        except OSError:
            return
        for sidecar in ("-wal", "-shm"):
            try:
                os.replace(path + sidecar, destination + sidecar)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Target serialization (memoized per structure)
    # ------------------------------------------------------------------
    def _target_entry(self, target: Structure
                      ) -> Optional[Tuple[str, str]]:
        entry = self._target_cache.get(target)
        if entry is not None or target in self._target_cache:
            return entry
        try:
            text = canonical_json(structure_to_dict(target))
            entry = (text, _digest(text))
        except SerializationError:
            entry = None
        if len(self._target_cache) > 4096:
            self._target_cache.clear()
        self._target_cache[target] = entry
        return entry

    # ------------------------------------------------------------------
    # Store protocol (consumed by HomEngine)
    # ------------------------------------------------------------------
    def lookup(self, component: Structure, leaf: Structure) -> Optional[int]:
        value = self._lookup(_COUNTS, component, leaf)
        return None if value is None else int(value)

    def record(self, component: Structure, leaf: Structure,
               count: int) -> None:
        self._record(_COUNTS, component, leaf, str(count))

    def lookup_exists(self, source: Structure,
                      target: Structure) -> Optional[bool]:
        value = self._lookup(_EXISTS, source, target)
        return None if value is None else value == "1"

    def record_exists(self, source: Structure, target: Structure,
                      result: bool) -> None:
        self._record(_EXISTS, source, target, "1" if result else "0")

    def _lookup(self, table: str, source: Structure,
                target: Structure) -> Optional[str]:
        entry = self._target_entry(target)
        if entry is None:
            return None
        self._ensure_pid()
        self.lookups += 1
        key = canonical_key(source)
        target_hash = entry[1]
        value = self.tier.get((table, key, target_hash))
        if value is not None:
            self.lookup_hits += 1
            return value
        index = shard_of(key, self.shards)

        def probe() -> Optional[Tuple[str]]:
            if should_inject("store.lookup"):
                raise sqlite3.DatabaseError(
                    "database disk image is malformed (injected)")
            connection = self._connect(index)
            if connection is None:
                return None
            return connection.execute(
                f"SELECT value FROM {table} WHERE src=? AND target=?",
                (key, target_hash),
            ).fetchone()

        row = self._guarded(index, probe, None)
        if row is None:
            return None
        self.lookup_hits += 1
        self.tier.put((table, key, target_hash), row[0])
        return row[0]

    def _record(self, table: str, source: Structure, target: Structure,
                value: str) -> None:
        # The hottest write path in the system (every fresh engine
        # answer lands here), hand-inlined: target entry, LRU insert
        # and shard enqueue are spelled out instead of delegated —
        # the per-record Python call overhead is what the record
        # benchmark measures against the single-file store.
        entry = self._target_cache.get(target)
        if entry is None:
            if target in self._target_cache:
                return  # memoized as unserializable
            entry = self._target_entry(target)
            if entry is None:
                return
        if os.getpid() != self._owner_pid:
            self._ensure_pid()
        key = canonical_key(source)
        target_hash = entry[1]
        # Read-allocate policy: the tier fills from lookups, not from
        # records.  The process that computed this answer already holds
        # it in its engine memo, so write-allocating here would spend
        # tier capacity (and per-record time) on rows the owner never
        # reads back; a sibling process pulls them into its own tier on
        # first SQL hit instead.
        index = zlib.crc32(key[:64]) % self.shards if self.shards > 1 else 0
        self._pending[index][table].append((key, target_hash, value))
        targets = self._pending_targets[index]
        if target_hash not in targets:
            targets[target_hash] = entry[0]
        count = self._pending_count[index] = self._pending_count[index] + 1
        if count >= self.flush_every:
            self._flush_shard(index)
        elif not count & 63 and (time.monotonic() - self._last_flush
                                 >= self.flush_interval_s):
            # Interval flushes only need coarse timing; polling the
            # clock every 64th queued row keeps it off the per-record
            # cost while still bounding write-behind staleness.
            self.flush()

    def record_row(self, table: str, src_key: bytes, target_json: str,
                   value: str) -> None:
        """Queue one raw row (merge/import path — no Structures)."""
        self._ensure_pid()
        target_hash = _digest(target_json)
        self.tier.put((table, src_key, target_hash), value)
        index = shard_of(src_key, self.shards)
        self._pending[index][table].append((src_key, target_hash, value))
        targets = self._pending_targets[index]
        if target_hash not in targets:
            targets[target_hash] = target_json
        count = self._pending_count[index] = self._pending_count[index] + 1
        if count >= self.flush_every:
            self._flush_shard(index)

    def flush(self) -> None:
        """Publish every queued row, one transaction per dirty shard."""
        self._ensure_pid()
        for index in range(self.shards):
            self._flush_shard(index)
        self._last_flush = time.monotonic()

    def _flush_shard(self, index: int) -> None:
        pending = self._pending[index]
        targets = self._pending_targets[index]
        if not pending[_COUNTS] and not pending[_EXISTS] and not targets:
            return
        self._pending[index] = {_COUNTS: [], _EXISTS: []}
        self._pending_targets[index] = {}
        self._pending_count[index] = 0
        rows = len(pending[_COUNTS]) + len(pending[_EXISTS])

        def publish() -> None:
            connection = self._connect(index, create=True)
            with connection:
                if targets:
                    connection.executemany(
                        "INSERT OR IGNORE INTO targets VALUES (?, ?)",
                        list(targets.items()))
                for table, table_rows in pending.items():
                    if table_rows:
                        connection.executemany(
                            f"INSERT OR IGNORE INTO {table} "
                            f"VALUES (?, ?, ?)",
                            table_rows)
            self.inserts += rows
            self.flush_batches += 1
            self.flush_rows += rows

        self._guarded(index, publish, None)

    # ------------------------------------------------------------------
    # Warm start / bulk row access
    # ------------------------------------------------------------------
    def preload(self, engine, limit: int = 2048) -> int:
        """Seed an engine memo with up to ``limit`` stored counts,
        most recently recorded first (per shard — shard files carry no
        global clock, and recency within a shard is its rowid order)."""
        from repro.structures.serialization import structure_from_dict

        self.flush()
        targets: Dict[str, Optional[Structure]] = {}
        seeded = 0
        for index in range(self.shards):
            if seeded >= limit:
                break
            remaining = limit - seeded

            def fetch() -> List[Tuple[bytes, str, str]]:
                connection = self._connect(index)
                if connection is None:
                    return []
                return connection.execute(
                    f"SELECT h.src, t.json, h.value FROM {_COUNTS} h "
                    f"JOIN targets t ON t.hash = h.target "
                    f"ORDER BY h.rowid DESC LIMIT ?",
                    (remaining,),
                ).fetchall()

            for src_key, target_json, value in self._guarded(index, fetch, []):
                if target_json not in targets:
                    try:
                        targets[target_json] = structure_from_dict(
                            json.loads(target_json))
                    except (SerializationError, ValueError):
                        targets[target_json] = None
                leaf = targets[target_json]
                if leaf is None:
                    continue
                engine.seed_count_key(bytes(src_key), leaf, int(value))
                seeded += 1
        return seeded

    def iter_rows(self, table: str, newest_first: bool = False,
                  limit: Optional[int] = None
                  ) -> Iterator[Tuple[bytes, str, str]]:
        """Yield ``(src_key, target_json, value)`` rows (flushed first).

        Shard order is fixed (0..N-1); within a shard, rowid order —
        ascending by default, descending with ``newest_first``.
        """
        self.flush()
        order = "DESC" if newest_first else "ASC"
        emitted = 0
        for index in range(self.shards):
            if limit is not None and emitted >= limit:
                return
            remaining = -1 if limit is None else limit - emitted

            def fetch() -> List[Tuple[bytes, str, str]]:
                connection = self._connect(index)
                if connection is None:
                    return []
                return connection.execute(
                    f"SELECT h.src, t.json, h.value FROM {table} h "
                    f"JOIN targets t ON t.hash = h.target "
                    f"ORDER BY h.rowid {order} LIMIT ?",
                    (remaining,),
                ).fetchall()

            for src_key, target_json, value in self._guarded(index, fetch, []):
                yield bytes(src_key), target_json, value
                emitted += 1

    # ------------------------------------------------------------------
    # Introspection / maintenance / lifecycle
    # ------------------------------------------------------------------
    def _shard_table_len(self, index: int, table: str) -> int:
        def count() -> int:
            connection = self._connect(index)
            if connection is None:
                return 0
            return int(connection.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0])

        return self._guarded(index, count, 0)

    def counts_len(self) -> int:
        self._ensure_pid()
        return sum(self._shard_table_len(i, _COUNTS)
                   for i in range(self.shards))

    def exists_len(self) -> int:
        self._ensure_pid()
        return sum(self._shard_table_len(i, _EXISTS)
                   for i in range(self.shards))

    def __len__(self) -> int:
        return self.counts_len() + self.exists_len()

    def clear(self) -> int:
        """Delete every persisted answer (``repro cache flush``)."""
        self._ensure_pid()
        self._pending = [{_COUNTS: [], _EXISTS: []}
                         for _ in range(self.shards)]
        self._pending_targets = [{} for _ in range(self.shards)]
        self._pending_count = [0] * self.shards
        self.tier.clear()
        removed = 0
        for index in range(self.shards):
            before = (self._shard_table_len(index, _COUNTS)
                      + self._shard_table_len(index, _EXISTS))

            def wipe() -> int:
                connection = self._connect(index)
                if connection is None:
                    return 0
                with connection:
                    for table in (_COUNTS, _EXISTS, "targets"):
                        connection.execute(f"DELETE FROM {table}")
                return before

            removed += self._guarded(index, wipe, 0)
        return removed

    def compact(self) -> Dict[str, int]:
        """VACUUM every materialized shard; returns byte sizes."""
        self.flush()
        before = after = 0
        for index in range(self.shards):
            path = self.shard_path(index)
            if not os.path.exists(path):
                continue
            before += os.path.getsize(path)

            def vacuum() -> None:
                connection = self._connect(index, create=True)
                connection.execute("VACUUM")

            self._guarded(index, vacuum, None)
            after += os.path.getsize(path)
        return {"bytes_before": before, "bytes_after": after}

    def info(self) -> Dict[str, object]:
        """The ``repro cache info`` report: per-shard row counts and
        file sizes, schema version, memory-tier occupancy — plus the
        legacy ``counts``/``exists`` totals."""
        self._ensure_pid()
        shard_files: List[Dict[str, object]] = []
        counts = exists = 0
        for index in range(self.shards):
            path = self.shard_path(index)
            shard_counts = self._shard_table_len(index, _COUNTS)
            shard_exists = self._shard_table_len(index, _EXISTS)
            counts += shard_counts
            exists += shard_exists
            shard_files.append({
                "index": index,
                "path": path,
                "counts": shard_counts,
                "exists": shard_exists,
                "bytes": os.path.getsize(path)
                if os.path.exists(path) else 0,
            })
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION_V3,
            "shards": self.shards,
            "counts": counts,
            "exists": exists,
            "memory_tier": {"capacity": self.tier.capacity,
                            "entries": len(self.tier)},
            "shard_files": shard_files,
        }

    def counters(self) -> Dict[str, int]:
        """The monotonic counters of :meth:`stats`, without its row
        counts: reads no SQL, so a metrics snapshot stays cheap however
        large the store grows."""
        return {
            "lookups": self.lookups,
            "lookup_hits": self.lookup_hits,
            "inserts": self.inserts,
            "corruptions": self.corruptions,
            "retries": self.retries,
            "tier_hits": self.tier.hits,
            "tier_misses": self.tier.misses,
            "tier_evictions": self.tier.evictions,
            "flush_batches": self.flush_batches,
            "flush_rows": self.flush_rows,
            "shard_opens": self.shard_opens,
        }

    def stats(self) -> Dict[str, int]:
        stats = {"counts": self.counts_len(), "exists": self.exists_len()}
        stats.update(self.counters())
        stats["tier_entries"] = len(self.tier)
        stats["shards"] = self.shards
        return stats

    def close(self) -> None:
        self.flush()
        if self._owner_pid == os.getpid():
            for connection in self._connections.values():
                try:
                    connection.close()
                except sqlite3.Error:
                    pass
        self._connections = {}

    def __enter__(self) -> "TieredHomStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"TieredHomStore(path={self.path!r}, shards={self.shards}, "
                f"tier={len(self.tier)}/{self.tier.capacity}, "
                f"hits={self.lookup_hits}/{self.lookups})")


# ----------------------------------------------------------------------
# Opening the right store for a path
# ----------------------------------------------------------------------
def open_store(path: str, shards: Optional[int] = None,
               memory_tier: Optional[int] = None,
               flush_every: Optional[int] = None):
    """The store object a ``store_path`` (plus knobs) denotes.

    * an existing **directory** is a sharded v3 store (the knobs may
      refine tier capacity; an explicit mismatched shard count is
      refused by the meta guard);
    * any path with ``shards``/``memory_tier`` set opts into the v3
      layout — an existing v2 file at that path is migrated in one
      shot;
    * otherwise the legacy single-file v2 store, byte-compatible with
      every pre-existing deployment.
    """
    if os.path.isdir(path) or shards is not None or memory_tier is not None:
        knobs: Dict[str, object] = {"shards": shards}
        if memory_tier is not None:
            knobs["memory_tier"] = memory_tier
        if flush_every is not None:
            knobs["flush_every"] = flush_every
        return TieredHomStore(path, **knobs)
    if flush_every is not None:
        return SQLiteHomStore(path, flush_every=flush_every)
    return SQLiteHomStore(path)


# ----------------------------------------------------------------------
# Tooling: merge, warm packs
# ----------------------------------------------------------------------
def copy_rows(source, destination) -> int:
    """Copy every persisted row from one store into another.

    ``INSERT OR IGNORE`` semantics: rows already present in the
    destination win (the values are exact answers, so colliding rows
    are identical anyway).  Returns the number of rows processed.
    """
    moved = 0
    for table in (_COUNTS, _EXISTS):
        for src_key, target_json, value in source.iter_rows(table):
            destination.record_row(table, src_key, target_json, value)
            moved += 1
    destination.flush()
    return moved


def export_warm_pack(store, path: str,
                     limit: Optional[int] = None) -> int:
    """Write the most recently recorded answers as a compact JSONL
    warm-start pack.

    Line 1 is the header; each distinct target appears once (assigned
    ascending indices in order of first use) and every row references
    its target by index — a pack of thousands of counts over a handful
    of targets stays small enough to ship to a cold replica.  Returns
    the number of answer rows written.
    """
    targets: Dict[str, int] = {}
    rows = 0
    with open(path, "w", encoding="utf-8") as sink:
        sink.write(json.dumps({"format": _PACK_FORMAT,
                               "version": _PACK_VERSION},
                              sort_keys=True) + "\n")
        for table in (_COUNTS, _EXISTS):
            remaining = None if limit is None else limit - rows
            if remaining is not None and remaining <= 0:
                break
            for src_key, target_json, value in store.iter_rows(
                    table, newest_first=True, limit=remaining):
                index = targets.get(target_json)
                if index is None:
                    index = len(targets)
                    targets[target_json] = index
                    sink.write(json.dumps(
                        {"k": "t", "json": target_json}) + "\n")
                sink.write(json.dumps(
                    {"k": _PACK_TABLE_TAGS[table], "s": src_key.hex(),
                     "t": index, "v": value}) + "\n")
                rows += 1
    return rows


def import_warm_pack(store, path: str) -> int:
    """Load a warm-start pack into a store's tiers.

    Feeding the *store* (not the engine memo) means the engine's first
    probe for each packed key is a store hit — ``engine.store.hits``
    rises, which is the observable a warm replica is deployed for.
    Returns the number of answer rows imported.
    """
    targets: List[str] = []
    rows = 0
    with open(path, "r", encoding="utf-8") as source:
        header_line = source.readline()
        try:
            header = json.loads(header_line) if header_line.strip() else {}
        except json.JSONDecodeError:
            header = {}
        if header.get("format") != _PACK_FORMAT:
            raise ReproError(
                f"{path} is not a repro warm pack (missing/foreign header)")
        if header.get("version") != _PACK_VERSION:
            raise ReproError(
                f"warm pack {path} has version {header.get('version')!r}, "
                f"this build expects {_PACK_VERSION}")
        for line_number, line in enumerate(source, start=2):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                kind = payload["k"]
                if kind == "t":
                    targets.append(payload["json"])
                    continue
                table = _PACK_TAG_TABLES[kind]
                src_key = bytes.fromhex(payload["s"])
                target_json = targets[payload["t"]]
                value = str(payload["v"])
            except (KeyError, IndexError, TypeError, ValueError,
                    json.JSONDecodeError) as exc:
                raise ReproError(
                    f"warm pack {path} line {line_number} is malformed: "
                    f"{exc}")
            store.record_row(table, src_key, target_json, value)
            rows += 1
    store.flush()
    return rows
