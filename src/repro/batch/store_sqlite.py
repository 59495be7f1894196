"""The persistent store behind ``--cache-dir``: one WAL SQLite database.

Everything lives in ``<cache-dir>/store.sqlite3``: finished job results,
the measure, sweep and exploration-frontier entries of the measure engine,
the monotone run counter driving the GC, and a quarantine of damaged rows.
The store is a cache -- it saves recomputation and never changes a result
-- so every read is non-fatal: a damaged or incompatible row reads as a
miss.

* **concurrent readers, single writer** -- WAL readers never block on the
  writer and vice versa; writes go through short ``BEGIN IMMEDIATE``
  transactions serialized by SQLite itself (with a busy timeout);
* **indexed lookups** -- job results and entries are fetched by primary key;
* **incremental GC** -- every entry row carries its touch stamp (the run
  counter when it was last written or served as a persistent hit) in an
  indexed column, so :meth:`SqliteStore.prune` is one indexed ``DELETE``
  per kind;
* **transactional merges** -- a process killed mid-merge rolls back to a
  consistent state.

Every row holds a versioned *envelope*: the document carries a format
version plus a ``sha256`` checksum over its canonical payload
(:func:`seal_document` / :func:`verify_payload`), because the database's own
page checksums do not cover application-level corruption.  A row that fails
verification is moved into the ``quarantine`` table -- visible to
``repro doctor``, never silently dropped -- and reads as a miss.

Entry rows are keyed ``(kind, fingerprint, key)``, where the fingerprint is
the measure engine's primitive-registry fingerprint, so stores written under
different primitive semantics coexist side by side.

A directory left behind by the sharded-JSON layout of earlier versions
(``measures-*.json``, ``jobs/``, ``meta.json``, ...) is not read: its
entries are misses, the first run recomputes them into the database, and
``repro doctor`` names the leftover files.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import repro.telemetry as telemetry
from repro.batch.faults import active_plan
from repro.batch.jobs import JobResult
from repro.geometry.engine import MeasureEngine

CACHE_VERSION = 2
"""The checksummed-envelope format of every row's document."""

STORE_SCHEMA_VERSION = 1
"""The SQLite schema generation (``meta.store_version``)."""

DB_FILENAME = "store.sqlite3"
"""The database file inside a cache directory."""

_BUSY_TIMEOUT_MS = 30_000

_ENTRY_KINDS = ("measures", "sweeps", "frontiers")

_FRONTIER_INDEX = 6  # a sweep entry's optional persisted-frontier blob
_FRONTIER_BOXES_INDEX = 5  # the box list inside that blob

_LOGGER = logging.getLogger("repro.batch")

__all__ = [
    "CACHE_VERSION",
    "DB_FILENAME",
    "PruneReport",
    "STORE_SCHEMA_VERSION",
    "SqliteStore",
    "open_store",
    "seal_document",
    "sqlite_store_path",
    "verify_payload",
]


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _document_checksum(document: dict) -> str:
    """SHA-256 over the canonical JSON of everything except ``sha256``."""
    payload = {key: value for key, value in document.items() if key != "sha256"}
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def seal_document(document: dict) -> dict:
    """Stamp ``document`` with the current version and its payload checksum."""
    sealed = dict(document)
    sealed["version"] = CACHE_VERSION
    sealed.pop("sha256", None)
    sealed["sha256"] = _document_checksum(sealed)
    return sealed


_VERSION_TAIL = f',"version":{CACHE_VERSION}}}'
"""How the canonical JSON of a sealed payload ends: ``version`` sorts last."""


def _sealed_text(document: dict) -> str:
    """``_canonical(seal_document(document))``, from one JSON dump.

    Every key of the store's documents (``"entry"``, ``"result"``) sorts
    before ``"sha256"``, so the canonical payload ends with the ``version``
    member and the checksum member slots in just before it.  Any other
    document (an empty one, or one with a later key) takes the two-dump
    route.
    """
    if not document or not all(key < "sha256" for key in document):
        return _canonical(seal_document(document))
    payload = _canonical({**document, "version": CACHE_VERSION})
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f'{payload[: -len(_VERSION_TAIL)]},"sha256":"{digest}"{_VERSION_TAIL}'


def verify_payload(document) -> Tuple[str, Optional[dict]]:
    """Verify one parsed envelope, without side effects.

    Returns ``(status, document)`` where ``status`` is ``"ok"`` (current
    version, checksum verified), ``"unknown-version"`` (left in place: a
    newer tool may own it), or one of the *damaged* statuses
    ``"not-object"``, ``"missing-checksum"`` and ``"checksum-mismatch"``;
    the document is ``None`` unless the status is ``"ok"``.
    """
    if not isinstance(document, dict):
        return "not-object", None
    if document.get("version") != CACHE_VERSION:
        return "unknown-version", None
    recorded = document.get("sha256")
    if not isinstance(recorded, str):
        return "missing-checksum", None
    if recorded != _document_checksum(document):
        return "checksum-mismatch", None
    return "ok", document


def _parse_row(text: str) -> Tuple[str, Optional[dict]]:
    """Parse and verify one row's envelope (``"corrupt-json"`` if torn)."""
    try:
        document = json.loads(text)
    except ValueError:
        return "corrupt-json", None
    return verify_payload(document)


def _decode_job(key: str, document: dict) -> Tuple[str, Optional[JobResult]]:
    """The job result a verified ``jobs`` row holds, or why it holds none."""
    try:
        result = JobResult.from_cache_dict(document.get("result"))
    except (AttributeError, KeyError, TypeError, ValueError):
        return "undecodable-result", None
    if result.key != key:
        return "key-mismatch", None
    return "ok", result


def _row_filter(origin: str, fingerprint: str, key: str) -> Tuple[str, str, tuple]:
    """``(table, WHERE clause, parameters)`` selecting one row."""
    if origin == "jobs":
        return "jobs", "key = ?", (key,)
    return (
        "entries",
        "kind = ? AND fingerprint = ? AND key = ?",
        (origin, fingerprint, key),
    )


def sqlite_store_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / DB_FILENAME


def open_store(directory: Union[str, Path], backend: str = "sqlite") -> "SqliteStore":
    """Open (creating if needed) the persistent store of ``directory``.

    ``backend`` accepts only ``"sqlite"``, the one store there is.
    """
    if backend != "sqlite":
        raise ValueError(f"unknown store backend {backend!r}; expected 'sqlite'")
    return SqliteStore(directory)


@dataclass
class PruneReport:
    """What one :meth:`SqliteStore.prune` pass removed (and kept)."""

    run_counter: int
    min_age_runs: int
    pruned: Dict[str, int] = field(default_factory=dict)
    kept: Dict[str, int] = field(default_factory=dict)

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned.values())

    @property
    def kept_total(self) -> int:
        return sum(self.kept.values())

    def summary(self) -> str:
        lines = [
            f"run counter      : {self.run_counter}",
            f"stale after      : {self.min_age_runs} runs untouched",
        ]
        for kind in _ENTRY_KINDS:
            lines.append(
                f"{kind:<17s}: pruned {self.pruned.get(kind, 0)}, "
                f"kept {self.kept.get(kind, 0)}"
            )
        return "\n".join(lines)


class SqliteStore:
    """A persistent job/measure/sweep/frontier store in one WAL database.

    ``readonly=True`` opens an existing database without writing to it (the
    doctor's view): no schema set-up, and quarantining reads fail quietly.
    """

    def __init__(self, directory: Union[str, Path], readonly: bool = False) -> None:
        self.directory = Path(directory)
        self.path = sqlite_store_path(self.directory)
        self.quarantined: List[Tuple[str, str]] = []
        """``(origin/key, reason)`` for every row this instance quarantined."""

        # One connection per store instance.  The daemon touches the store
        # from its single engine thread, the batch runner from the
        # supervisor thread -- but ``check_same_thread=False`` plus our own
        # write lock keeps the instance safe either way.
        if readonly:
            database = f"{self.path.resolve().as_uri()}?mode=ro"
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            database = str(self.path)
        self._connection = sqlite3.connect(
            database,
            uri=readonly,
            timeout=_BUSY_TIMEOUT_MS / 1000,
            check_same_thread=False,
        )
        self._write_lock = threading.Lock()
        self._connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        if not readonly:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._initialize_schema()

    # -- schema ---------------------------------------------------------------

    def _initialize_schema(self) -> None:
        with self._transaction() as connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY,"
                " value TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                " key TEXT PRIMARY KEY,"
                " document TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " kind TEXT NOT NULL,"
                " fingerprint TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " document TEXT NOT NULL,"
                " touched INTEGER NOT NULL DEFAULT 0,"
                " PRIMARY KEY (kind, fingerprint, key))"
            )
            # The GC index: prune is one range DELETE over (kind, touched).
            connection.execute(
                "CREATE INDEX IF NOT EXISTS entries_by_touch"
                " ON entries (kind, touched)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS quarantine ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " origin TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " document TEXT NOT NULL,"
                " reason TEXT NOT NULL,"
                " fingerprint TEXT NOT NULL DEFAULT '')"
            )
            columns = {
                row[1] for row in connection.execute("PRAGMA table_info(quarantine)")
            }
            if "fingerprint" not in columns:  # a database from before the column
                connection.execute(
                    "ALTER TABLE quarantine"
                    " ADD COLUMN fingerprint TEXT NOT NULL DEFAULT ''"
                )
            connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("store_version", str(STORE_SCHEMA_VERSION)),
            )

    def _transaction(self):
        return _Transaction(self._connection, self._write_lock)

    def close(self) -> None:
        self._connection.close()

    # -- damage handling -------------------------------------------------------

    @property
    def quarantine_count(self) -> int:
        """How many damaged rows this instance has quarantined."""
        return len(self.quarantined)

    def _quarantine_row(
        self, origin: str, fingerprint: str, key: str, document_text: str, reason: str
    ) -> None:
        """Move one damaged row into the quarantine table -- never delete
        silently, never fail the read.  Only the ``(origin, fingerprint,
        key)`` row moves: the same key under another fingerprint is a
        different, healthy row."""
        table, where, parameters = _row_filter(origin, fingerprint, key)
        try:
            with self._transaction() as connection:
                connection.execute(
                    "INSERT INTO quarantine"
                    " (origin, fingerprint, key, document, reason)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (origin, fingerprint, key, document_text, reason),
                )
                connection.execute(f"DELETE FROM {table} WHERE {where}", parameters)
        except sqlite3.Error:
            return  # a read-only database still reads damage as a miss
        self.quarantined.append((f"{origin}/{key}", reason))
        telemetry.emit("quarantine", path=f"{origin}/{key}", reason=reason)
        _LOGGER.warning("quarantined damaged store row %s/%s (%s)", origin, key, reason)

    def _verify_row(
        self, origin: str, fingerprint: str, key: str, text: str
    ) -> Optional[dict]:
        """One row's verified envelope; damaged rows are quarantined.

        Unknown (future) versions read as misses but stay in place.
        """
        status, document = _parse_row(text)
        if status == "ok":
            return document
        if status != "unknown-version":
            self._quarantine_row(origin, fingerprint, key, text, status)
        return None

    def _inject_faults(self, plan, origin: str, fingerprint: str, rows) -> None:
        """Let an armed fault plan corrupt the ``(key, text)`` rows just
        committed (a torn write or a flipped bit, as on a lying disk)."""
        for key, text in rows:
            damaged = plan.on_store_write(f"{origin}/{key}", text)
            if damaged != text:
                table, where, parameters = _row_filter(origin, fingerprint, key)
                with self._transaction() as connection:
                    connection.execute(
                        f"UPDATE {table} SET document = ? WHERE {where}",
                        (damaged, *parameters),
                    )

    def quarantine_rows(self) -> List[Tuple[str, str, str]]:
        """Every quarantined row: ``(origin, key, reason)`` (doctor feed)."""
        cursor = self._connection.execute(
            "SELECT origin, key, reason FROM quarantine ORDER BY id"
        )
        return [(origin, key, reason) for origin, key, reason in cursor]

    def clear_quarantine(self) -> int:
        """Drop every quarantined row (the operator looked; exit-0 again)."""
        with self._transaction() as connection:
            cursor = connection.execute("DELETE FROM quarantine")
            return cursor.rowcount

    # -- job results -----------------------------------------------------------

    def load_job(self, key: str) -> Optional[JobResult]:
        """The cached result for ``key``, or ``None`` (incl. damaged rows)."""
        row = self._connection.execute(
            "SELECT document FROM jobs WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        document = self._verify_row("jobs", "", key, row[0])
        if document is None:
            return None
        status, result = _decode_job(key, document)
        if result is None:
            self._quarantine_row("jobs", "", key, row[0], status)
            return None
        return result if result.ok else None

    def store_job(self, result: JobResult) -> None:
        """Persist a finished job (error results are recomputed, not cached)."""
        if not result.ok:
            return
        document = _sealed_text({"result": result.to_cache_dict()})
        with self._transaction() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO jobs (key, document) VALUES (?, ?)",
                (result.key, document),
            )
        plan = active_plan()
        if plan is not None:
            self._inject_faults(plan, "jobs", "", [(result.key, document)])

    def job_count(self) -> int:
        return self._connection.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]

    # -- the run counter -------------------------------------------------------

    def run_counter(self) -> int:
        """The number of batch runs that have written to this store."""
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = 'run_counter'"
        ).fetchone()
        if row is None:
            return 0
        try:
            counter = int(row[0])
        except (TypeError, ValueError):
            return 0
        return counter if counter >= 0 else 0

    def begin_run(self) -> int:
        """Bump and return the run counter (one tick per working batch run).

        The counter is the GC clock: entries written or hit during run ``N``
        are stamped ``N`` and survive a later ``prune(min_age_runs=K)`` as
        long as the counter has not advanced past ``N + K - 1``.
        """
        with self._transaction() as connection:
            counter = self.run_counter() + 1
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("run_counter", str(counter)),
            )
            return counter

    # -- measure-, sweep- and frontier entries ---------------------------------

    def _load_kind(self, kind: str, fingerprint: str) -> Dict[str, List]:
        entries: Dict[str, List] = {}
        rows = self._connection.execute(
            "SELECT key, document FROM entries WHERE kind = ? AND fingerprint = ?",
            (kind, fingerprint),
        ).fetchall()
        for key, text in rows:
            document = self._verify_row(kind, fingerprint, key, text)
            if document is None:
                continue
            entry = document.get("entry")
            if isinstance(entry, list):
                entries[key] = entry
        return entries

    def load_measures(self, engine: MeasureEngine) -> Dict[str, List]:
        """The stored measure entries compatible with ``engine``.

        Entries recorded under a different primitive-registry fingerprint
        read as misses; damaged rows are quarantined and read as misses.
        """
        return self._load_kind("measures", engine.registry_fingerprint())

    def load_sweeps(self, engine: MeasureEngine) -> Dict[str, List]:
        """The stored per-block sweep entries compatible with ``engine``."""
        return self._load_kind("sweeps", engine.registry_fingerprint())

    def load_frontiers(self, engine: MeasureEngine) -> Dict[str, List]:
        """The stored exploration-frontier entries compatible with ``engine``.

        Values are the encoded frontier documents written by the distributed
        deepening scheduler (see :mod:`repro.batch.distribute`); they are
        fingerprinted like sweep entries, since the symbolic steps a
        frontier froze depend on primitive semantics.
        """
        return self._load_kind("frontiers", engine.registry_fingerprint())

    def measure_entry_count(self, engine: MeasureEngine) -> int:
        return self._count_kind("measures", engine.registry_fingerprint())

    def load_frontier_entry(self, engine: MeasureEngine, key: str):
        """One frontier entry by key (one indexed row read, not a kind scan).

        The distributed-deepening hot path: workers poll individual shard
        artifacts (``<master>:<depth>:<i>:in|out``) on every scan, far too
        often to parse every frontier entry -- master encodings included --
        per poll.  Returns ``None`` for a missing (or incompatible) key.
        """
        fingerprint = engine.registry_fingerprint()
        row = self._connection.execute(
            "SELECT document FROM entries"
            " WHERE kind = ? AND fingerprint = ? AND key = ?",
            ("frontiers", fingerprint, key),
        ).fetchone()
        if row is None:
            return None
        document = self._verify_row("frontiers", fingerprint, key, row[0])
        if document is None:
            return None
        entry = document.get("entry")
        return entry if isinstance(entry, list) else None

    def frontier_entry_count(self, engine: MeasureEngine) -> int:
        return self._count_kind("frontiers", engine.registry_fingerprint())

    def _count_kind(self, kind: str, fingerprint: str) -> int:
        return self._connection.execute(
            "SELECT COUNT(*) FROM entries WHERE kind = ? AND fingerprint = ?",
            (kind, fingerprint),
        ).fetchone()[0]

    def merge_measures(
        self,
        engine: MeasureEngine,
        new_entries: Mapping[str, List],
        run: Optional[int] = None,
        touched_keys: Iterable[str] = (),
    ) -> int:
        """Fold ``new_entries`` into the measure store (one transaction).

        ``run`` (default: the current run counter) stamps the written
        entries for the GC; ``touched_keys`` are existing entries this run
        answered from the store, whose stamps are refreshed in place.
        Returns the number of entries written.
        """
        return self._merge_kind("measures", engine, new_entries, run, touched_keys)

    def merge_sweeps(
        self,
        engine: MeasureEngine,
        new_entries: Mapping[str, List],
        run: Optional[int] = None,
        touched_keys: Iterable[str] = (),
    ) -> int:
        """Fold per-block sweep entries into the sweep store."""
        return self._merge_kind("sweeps", engine, new_entries, run, touched_keys)

    def merge_frontiers(
        self,
        engine: MeasureEngine,
        new_entries: Mapping[str, List],
        run: Optional[int] = None,
        touched_keys: Iterable[str] = (),
    ) -> int:
        """Fold encoded exploration frontiers into the store.

        Same transaction, checksum and touch-stamp semantics as the other
        entry kinds, so frontiers share GC (``prune``) and ``doctor``
        coverage with measures and sweeps.
        """
        return self._merge_kind("frontiers", engine, new_entries, run, touched_keys)

    def _merge_kind(
        self,
        kind: str,
        engine: MeasureEngine,
        new_entries: Mapping[str, List],
        run: Optional[int],
        touched_keys: Iterable[str],
    ) -> int:
        touched_keys = set(touched_keys)
        if not new_entries and not touched_keys:
            return 0
        fingerprint = engine.registry_fingerprint()
        if run is None:
            run = self.run_counter()
        rows = [
            (key, _sealed_text({"entry": list(entry)}))
            for key, entry in sorted(new_entries.items())
        ]
        with self._transaction() as connection:
            connection.executemany(
                "INSERT OR REPLACE INTO entries"
                " (kind, fingerprint, key, document, touched)"
                " VALUES (?, ?, ?, ?, ?)",
                ((kind, fingerprint, key, text, run) for key, text in rows),
            )
            # Refresh the GC stamps of entries this run answered from the
            # store.
            connection.executemany(
                "UPDATE entries SET touched = ?"
                " WHERE kind = ? AND fingerprint = ? AND key = ?",
                ((run, kind, fingerprint, key) for key in sorted(touched_keys)),
            )
        plan = active_plan()
        if plan is not None:
            self._inject_faults(plan, kind, fingerprint, rows)
        telemetry.emit(
            "store-merge",
            kind=kind,
            written=len(new_entries),
            touched=len(touched_keys),
        )
        return len(new_entries)

    # -- garbage collection ----------------------------------------------------

    def prune(self, min_age_runs: int) -> PruneReport:
        """Drop entries untouched for ``min_age_runs`` runs -- incrementally.

        An entry is stale when the run counter has advanced by at least
        ``min_age_runs`` since the entry was last written or last served as
        a persistent hit.  One indexed range ``DELETE`` per kind over
        ``(kind, touched)``: no entry document is parsed to age it.  Job
        results are content-addressed by program text and parameters and
        are not aged here.
        """
        if min_age_runs < 1:
            raise ValueError("min_age_runs must be at least 1")
        counter = self.run_counter()
        cutoff = counter - min_age_runs
        report = PruneReport(run_counter=counter, min_age_runs=min_age_runs)
        with self._transaction() as connection:
            for kind in _ENTRY_KINDS:
                cursor = connection.execute(
                    "DELETE FROM entries WHERE kind = ? AND touched <= ?",
                    (kind, cutoff),
                )
                report.pruned[kind] = cursor.rowcount
                report.kept[kind] = connection.execute(
                    "SELECT COUNT(*) FROM entries WHERE kind = ?", (kind,)
                ).fetchone()[0]
        return report

    # -- doctor feed -----------------------------------------------------------

    def integrity_check(self) -> Optional[str]:
        """SQLite's own page-level check; ``None`` when clean."""
        try:
            row = self._connection.execute("PRAGMA integrity_check").fetchone()
        except sqlite3.Error as error:
            return f"{type(error).__name__}: {error}"
        verdict = row[0] if row else "no verdict"
        return None if verdict == "ok" else str(verdict)

    def store_version(self) -> Optional[int]:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = 'store_version'"
        ).fetchone()
        if row is None:
            return None
        try:
            return int(row[0])
        except (TypeError, ValueError):
            return None

    def scan_rows(self, stale_runs: int, fingerprint: str) -> "SqliteScan":
        """Read-only full verification pass for ``repro doctor``.

        Unlike the store's own reads this never quarantines -- the doctor
        only *names* damage.  ``fingerprint`` is the reading engine's: rows
        written under another one are counted as foreign.
        """
        scan = SqliteScan(run_counter=self.run_counter())
        for key, text in self._connection.execute("SELECT key, document FROM jobs"):
            scan.job_rows += 1
            status, document = _parse_row(text)
            if status == "ok":
                status, _result = _decode_job(key, document)
            scan.note("jobs", key, status)
        cursor = self._connection.execute(
            "SELECT kind, fingerprint, key, document, touched FROM entries"
        )
        for kind, row_fingerprint, key, text, touched in cursor:
            scan.entry_rows[kind] = scan.entry_rows.get(kind, 0) + 1
            if row_fingerprint != fingerprint:
                scan.foreign_rows[kind] = scan.foreign_rows.get(kind, 0) + 1
            if scan.run_counter - int(touched) >= stale_runs:
                scan.stale_entries += 1
            status, document = _parse_row(text)
            scan.note(kind, key, status)
            if status == "ok" and kind == "sweeps":
                scan.note_sweep_frontier(document.get("entry"))
        return scan


@dataclass
class SqliteScan:
    """What one :meth:`SqliteStore.scan_rows` doctor pass found."""

    run_counter: int
    job_rows: int = 0
    entry_rows: Dict[str, int] = field(default_factory=dict)
    foreign_rows: Dict[str, int] = field(default_factory=dict)
    """Entry rows per kind written under another registry fingerprint."""
    stale_entries: int = 0
    unknown_version_rows: int = 0
    damaged: List[Tuple[str, str, str]] = field(default_factory=list)
    """``(origin, key, status)`` for rows the next store read quarantines."""
    sweep_frontiers: List[int] = field(default_factory=list)
    """The box count of every persisted sweep frontier."""

    def note(self, origin: str, key: str, status: str) -> None:
        if status == "unknown-version":
            self.unknown_version_rows += 1
        elif status != "ok":
            self.damaged.append((origin, key, status))

    def note_sweep_frontier(self, entry) -> None:
        """Record the frontier blob of one sweep entry, if it has one."""
        if not isinstance(entry, list) or len(entry) <= _FRONTIER_INDEX:
            return
        blob = entry[_FRONTIER_INDEX]
        if not isinstance(blob, list) or len(blob) <= _FRONTIER_BOXES_INDEX:
            return
        boxes = blob[_FRONTIER_BOXES_INDEX]
        if isinstance(boxes, list):
            self.sweep_frontiers.append(len(boxes))


class _Transaction:
    """A short write transaction: our instance lock + ``BEGIN IMMEDIATE``.

    The instance lock serializes this store object's own threads; ``BEGIN
    IMMEDIATE`` takes the database write lock up front so a concurrent
    *process* waits (bounded by the busy timeout) instead of failing at
    commit time.
    """

    def __init__(self, connection: sqlite3.Connection, lock: threading.Lock) -> None:
        self._connection = connection
        self._lock = lock

    def __enter__(self) -> sqlite3.Connection:
        self._lock.acquire()
        try:
            self._connection.execute("BEGIN IMMEDIATE")
        except BaseException:
            self._lock.release()
            raise
        return self._connection

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._connection.commit()
            else:
                self._connection.rollback()
        finally:
            self._lock.release()
