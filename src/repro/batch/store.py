"""The persistent hom store: a memory tier over SQLite shards.

:class:`~repro.hom.engine.HomEngine` memoizes ``|hom(component, leaf)|``
counts and Chandra–Merlin existence probes per process; a batch run
over thousands of instances drawn from a small component pool would
recompute the same answers in every fresh process.
:class:`TieredHomStore` is the layer the engine consults on in-memory
misses (see ``HomEngine.store``), so each answer is computed once per
machine and shared by batch workers and daemon replicas.  One store
object, three tiers:

1. **Memory tier** (:class:`MemoryTier`) — a bounded LRU dict keyed by
   ``(table, canonical_key, target_hash)``.  Hot lookups are answered
   with zero I/O; hit/miss/eviction counters surface as
   ``store.tier.*`` in the obs registry.
2. **Shard tier** — ``shards`` SQLite files under one directory,
   hash-partitioned on the first bytes of the source's
   :func:`~repro.structures.canonical.canonical_key` (``crc32`` of the
   key prefix, deterministic across processes and hash seeds).  Each
   shard is stamped ``PRAGMA user_version=3`` and is opened lazily — a
   batch worker touches only the shards its keys hash into
   (``store.shard.opens`` counts real opens).
3. **Write-behind buffer** — records are queued per shard and
   published in one ``INSERT OR IGNORE`` transaction per shard when a
   shard's queue reaches ``FLUSH_EVERY`` rows, when
   ``FLUSH_INTERVAL_S`` has elapsed since the last flush, on
   :meth:`flush` and on :meth:`close`.  The request path never waits
   on a per-record commit.

Rows (``_SCHEMA``, in every shard): ``targets`` maps the hash of each
distinct counting target to its canonical JSON (stored once);
``hom_counts`` holds exact counts and ``hom_exists`` existence
verdicts, both keyed by ``(src, target)`` — the source's canonical key
(a *complete* isomorphism invariant, identical in every process for
every member of the class) and the target's hash.  A lookup is one
primary-key probe, and only the target needs a JSON form.  Counts are
decimal text: hom counts routinely exceed 64-bit range.

Layout on disk::

    <path>/                     # the store is a directory
        meta.json               # {"schema_version": 3, "shards": N}
        shard-000.sqlite        # the tables above, user_version=3
        shard-001.sqlite
        ...

Migration: a **v2 single file** at ``path`` — the one-file layout of
earlier releases, the same tables stamped ``user_version=2`` — is
migrated once, on the first open.  Its version is checked where it
lies: a legacy (pre-canonical-key) or future-versioned file is refused
with :class:`StoreFormatError` and left in place, so every open refuses
it again; a file SQLite reports as damaged is quarantined to
``<path>.corrupt-<ts>`` (counted in ``corruptions``) and an empty store
takes its place.  A readable file is moved aside to
``<path>.v2-backup``, the shard directory is created at ``path``, and
every row is re-published into its shard (recency order preserved, so
``preload`` keeps serving the most recently recorded rows first).

Self-healing: the store is a cache, so a damaged shard is never worth
failing a batch over.  Corruption SQLite reports ("database disk image
is malformed", "file is not a database") quarantines that shard's file
to ``<shard>.corrupt-<ts>``, rebuilds it and retries the operation once,
while its siblings keep serving; contention degrades to a miss.  The
``corruptions``/``retries`` counters surface as ``store.corruptions`` /
``store.retries``.

Tooling (``repro cache merge|compact|warm-pack``) is built on the
row-level surface: :meth:`TieredHomStore.iter_rows` /
:meth:`TieredHomStore.record_row` move answers between stores without
decoding any source structure (the canonical key *is* the identity),
and :func:`export_warm_pack` / :func:`import_warm_pack` ship a compact
JSONL pack of the most recently recorded answers that
``repro serve start --preload-pack`` feeds into a fresh replica's
store tiers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import urllib.parse
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
from repro.batch.tasks import canonical_json

_T = TypeVar("_T")

SCHEMA_VERSION_V3 = 3
DEFAULT_SHARDS = 8
# Entries of the LRU memory tier, rows a shard queues before it
# flushes, and the longest a queued row waits for an interval flush.
TIER_CAPACITY = 8192
FLUSH_EVERY = 512
FLUSH_INTERVAL_S = 2.0

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

# The user_version of a v2 single-file store (migrated on open).
_V2_SCHEMA_VERSION = 2


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


def _move_aside(path: str, tag: str) -> str:
    """Rename an SQLite file and its WAL sidecars to ``<path>.<tag>``
    (``.1``, ``.2``, … when that name is taken); returns the new path.
    Raises :class:`OSError` when ``path`` itself cannot be moved."""
    destination = f"{path}.{tag}"
    suffix = 0
    while os.path.exists(destination):
        suffix += 1
        destination = f"{path}.{tag}.{suffix}"
    os.replace(path, destination)
    for sidecar in ("-wal", "-shm"):
        try:
            os.replace(path + sidecar, destination + sidecar)
        except OSError:
            pass
    return destination


def _check_v2_version(connection: sqlite3.Connection) -> None:
    """Refuse single files this build cannot migrate.

    ``user_version`` 0 is ambiguous: both a brand-new file and a
    pre-versioning store report it, so the presence of the old ``inv``
    column is what distinguishes a legacy store — its rows are keyed by
    WL-digest buckets that canonical-key lookups would silently never
    hit.
    """
    version = connection.execute("PRAGMA user_version").fetchone()[0]
    if version == _V2_SCHEMA_VERSION:
        return
    if version == 0:
        legacy = connection.execute(
            "SELECT name FROM pragma_table_info(?) WHERE name='inv'",
            (_COUNTS,),
        ).fetchone()
        if legacy is None:
            return  # an empty (or at least inv-free) file
        raise StoreFormatError(
            "hom store uses the pre-canonical-key layout (rows keyed "
            "by invariant digests); its keys cannot be served by this "
            "version — delete the file and let the store rebuild, or "
            "re-run the batch that produced it")
    raise StoreFormatError(
        f"hom store has schema version {version}, this build expects "
        f"{_V2_SCHEMA_VERSION} for a single file; refusing to read keys "
        f"that would silently never match")


def _read_v2_rows(path: str) -> List[Tuple[str, bytes, str, str]]:
    """Every ``(table, src_key, target_json, value)`` row of the v2
    single file at ``path``, each table in rowid (recording) order.

    Reads the file where it lies and issues no write of its own
    (``mode=rw`` also keeps a vanished file from being created empty).
    Raises :class:`StoreFormatError` for a file this build cannot
    migrate and :class:`sqlite3.DatabaseError` for one SQLite cannot
    read.
    """
    uri = f"file:{urllib.parse.quote(os.path.abspath(path))}?mode=rw"
    connection = sqlite3.connect(uri, uri=True, timeout=30.0)
    try:
        _check_v2_version(connection)
        tables = {name for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        rows: List[Tuple[str, bytes, str, str]] = []
        for table in (_COUNTS, _EXISTS):
            if table not in tables or "targets" not in tables:
                continue
            rows.extend(
                (table, bytes(src_key), target_json, value)
                for src_key, target_json, value in connection.execute(
                    f"SELECT h.src, t.json, h.value FROM {table} h "
                    f"JOIN targets t ON t.hash = h.target "
                    f"ORDER BY h.rowid"))
        return rows
    finally:
        connection.close()


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

    def __init__(self, capacity: int = TIER_CAPACITY):
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

    Implements the engine's duck-typed store protocol
    (``lookup``/``record``, ``lookup_exists``/``record_exists``,
    ``flush``) plus ``preload``, ``close``, ``clear``, ``stats`` and the
    row-level tooling surface; it is the store behind every ``--cache``
    and ``store_path``.

    ``path`` is a directory (created on first open).  An existing v2
    single file at ``path`` is migrated in one shot (see module docs).
    ``shards`` fixes the partition count at creation; reopening adopts
    the count recorded in ``meta.json`` and refuses a contradicting
    explicit value — resharding is ``repro cache merge`` into a fresh
    store, never a silent rehash that would orphan every existing row.
    """

    def __init__(self, path: str, shards: Optional[int] = None):
        if shards is not None and shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        self.path = path
        self.lookups = 0
        self.lookup_hits = 0
        self.inserts = 0
        self.corruptions = 0
        self.retries = 0
        self.flush_batches = 0
        self.flush_rows = 0
        self.shard_opens = 0
        self.tier = MemoryTier()
        # (json, sha256) per target Structure; None = unserializable.
        self._target_cache: Dict[Structure,
                                 Optional[Tuple[str, str]]] = {}
        self._owner_pid = os.getpid()
        legacy_rows: List[Tuple[str, bytes, str, str]] = []
        if os.path.isfile(path):
            legacy_rows = self._take_v2_file(path)
        if os.path.isdir(path):
            self.shards = self._adopt_meta(path, shards)
        else:
            self.shards = shards if shards is not None else DEFAULT_SHARDS
            self._create_dir(path, self.shards)
        self._connections: Dict[int, sqlite3.Connection] = {}
        self._file_seen = [False] * self.shards
        self._pending: List[Dict[str, List[Tuple[bytes, str, str]]]] = [
            {_COUNTS: [], _EXISTS: []} for _ in range(self.shards)]
        self._pending_targets: List[Dict[str, str]] = [
            {} for _ in range(self.shards)]
        self._pending_count: List[int] = [0] * self.shards
        self._last_flush = time.monotonic()
        if legacy_rows:
            for row in legacy_rows:
                self.record_row(*row)
            self.flush()

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

    def _take_v2_file(self, path: str) -> List[Tuple[str, bytes, str, str]]:
        """The rows of the v2 single file at ``path``, which is then
        moved aside to ``<path>.v2-backup`` (migration is additive).

        The version guard runs on the file where it lies, so a refused
        file stays at ``path`` and every open refuses it again.  A
        damaged file is quarantined instead and yields no rows; so does
        a file a sibling process moved first (that process migrates
        it).
        """
        try:
            rows = _read_v2_rows(path)
        except sqlite3.DatabaseError as exc:
            if not os.path.isfile(path):
                return []
            if not _is_corruption(exc):
                raise ReproError(
                    f"cannot migrate the single-file store {path}: {exc}")
            self.corruptions += 1
            try:
                _move_aside(path, f"corrupt-{int(time.time())}")
            except FileNotFoundError:
                pass
            return []
        try:
            _move_aside(path, "v2-backup")
        except FileNotFoundError:
            return []
        return rows

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
        # check_same_thread=False: a daemon worker shares one store
        # among its tenants behind LockedStore, which serializes every
        # access (the contract sqlite3 asks of cross-thread handles).
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
        """Run one shard operation with self-healing, scoped to that
        shard.  Contention degrades to ``default`` (a cache never blocks
        the batch); corruption quarantines *that shard's* file, rebuilds
        it on the next open and retries once, and a second failure
        degrades to ``default`` too — every sibling shard keeps serving
        untouched, and callers keep serving from their memo."""
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
        try:
            _move_aside(self.shard_path(index), f"corrupt-{int(time.time())}")
        except OSError:
            # Already quarantined (or never written) — recreating the
            # shard is still the right next step.
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
        # the per-record Python call overhead is most of what the
        # ``store_tiered`` record benchmark measures.
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
        if count >= FLUSH_EVERY:
            self._flush_shard(index)
        elif not count & 63 and (time.monotonic() - self._last_flush
                                 >= FLUSH_INTERVAL_S):
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
        if count >= FLUSH_EVERY:
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
        """The ``repro cache info`` report: row totals, per-shard row
        counts and file sizes, schema version and memory tier
        occupancy."""
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
            "tier": {"capacity": self.tier.capacity,
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
