"""Disk-backed write-ahead logging for the database tier.

Every shard primary gets a :class:`ShardWal`: an append-only file of
length-prefixed, CRC32-checksummed frames carrying the same redo
after-images the replication layer ships (``RedoOp`` records from
:mod:`repro.db.replica`).  Three facts shape the format:

* **Frame layout** -- ``<u32 payload_len, u64 lsn, u8 kind, u32 crc>``
  (17 bytes, little-endian) followed by a canonical-JSON payload.  The
  LSN and kind live in the *header* so recovery can skip commit frames
  at or below the checkpoint low-water mark without validating their
  payloads: a corrupted frame whose effects a later checkpoint already
  covers does not block recovery.
* **Torn vs corrupt** -- frames are append-only, so an *incomplete*
  frame can only be the last one; recovery treats it as a crash
  mid-append and stops there.  A *complete* frame that fails its CRC
  (or breaks LSN monotonicity) is corruption and recovery fails fast
  with the offending LSN quoted (:class:`WalCorruptionError`).
* **2PC** -- a multi-shard transaction writes a ``prepare`` frame
  (redo stashed, not applied) per participant, the coordinator forces
  a ``decide`` record to its own log (the commit point), and each
  branch commit then appends an ops-less ``resolve`` frame.  Recovery
  applies a dangling prepare iff a durable commit decision exists for
  its gtid -- presumed abort otherwise.

Group commit: with ``sync_policy="group"`` appends only buffer; an
explicit :meth:`ShardWal.sync` (driven by a periodic virtual-clock
task in the serve layer) makes the batch durable with one fsync.
``sync_policy="commit"`` fsyncs every commit -- the differential
recovery tests use it so every acknowledged statement is durable.

Checkpoints snapshot every table (schema, rows in scan order, rowid
allocator position) into ``shard<i>.ckpt`` via write-temp + fsync +
atomic rename, then truncate the log below the checkpoint LSN (frames
of still-pending prepares are retained regardless of age).

Rows and after-images reach the JSON encoder as the tuples the engine
stores: the encoder writes a tuple as an array, so the bytes are those
of the nested lists the format describes, without a list -- a
GC-tracked container -- built per row on the way.

A checkpoint's bytes are those of one ``json.dumps`` of the snapshot
dict, but each table's rows are encoded in chunks of
``CHECKPOINT_CHUNK_ROWS`` consecutive ``(rowid, row)`` pairs whose text
the :class:`ShardWal` keeps, with the rowids and row tuples it
encoded, until the next checkpoint.  A chunk whose rowids and rows are
all the *same objects* as last time is written from that text, so a
checkpoint re-encodes only what changed since the previous one.
Identity is sound here: rows are immutable tuples, every write stores
a new one, and the cache's own references keep an object's identity
from being reused while it is compared against.
"""

from __future__ import annotations

import json
import operator
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.db.catalog import IndexSpec
from repro.db.engine import Database, RowidAllocator, Table
from repro.db.errors import WalCorruptionError, WalError
from repro.db.replica import RedoOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.shard import ShardedDatabase

# Frame header: payload length, LSN, kind code, CRC32 of the payload.
FRAME_HEADER = struct.Struct("<IQBI")

# Refuse to believe a frame claiming more than 256 MiB of payload --
# a length that large is a corrupted header, not a real frame.
MAX_FRAME_PAYLOAD = 1 << 28

FRAME_KINDS = ("commit", "prepare", "resolve", "decide")
_KIND_CODES = {name: code for code, name in enumerate(FRAME_KINDS, start=1)}
_CODE_KINDS = {code: name for name, code in _KIND_CODES.items()}

SYNC_POLICIES = ("commit", "group")

# Rows per cached checkpoint chunk (module docstring).
CHECKPOINT_CHUNK_ROWS = 256

# json.dumps(obj, separators=(",", ":")) without a new encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _encode_payload(record: dict) -> bytes:
    return _encode(record).encode("utf-8")


def encode_ops(ops: Iterable[RedoOp]) -> list:
    """Redo after-images, JSON-ready (tuples encode as arrays)."""
    return [(op.table, op.kind, op.rowid, op.after) for op in ops]


def decode_ops(encoded: Iterable[Sequence]) -> list[RedoOp]:
    return [
        RedoOp(table, kind, rowid,
               None if after is None else tuple(after))
        for table, kind, rowid, after in encoded
    ]


@dataclass
class WalFrame:
    """One decoded (or deliberately skipped) frame."""

    lsn: int
    kind: str
    record: Optional[dict]  # None when skipped below the checkpoint
    offset: int
    length: int


@dataclass
class WalScan:
    """Result of reading one log file."""

    frames: list[WalFrame]
    valid_end: int  # file offset after the last complete frame
    torn: bool      # an incomplete frame trails the log


def scan_wal(path: Path, *, skip_below: int = 0) -> WalScan:
    """Read every frame of ``path``, tolerating a torn final frame.

    ``commit`` frames with ``lsn <= skip_below`` are returned with
    ``record=None`` and *not* CRC-validated -- their effects are
    covered by a checkpoint, so damage to them must not block
    recovery.  ``prepare``/``resolve``/``decide`` frames are always
    validated and decoded (recovery needs them regardless of age).
    """
    path = Path(path)
    if not path.exists():
        return WalScan([], 0, False)
    data = path.read_bytes()
    frames: list[WalFrame] = []
    pos = 0
    size = len(data)
    last_lsn = 0
    while pos + FRAME_HEADER.size <= size:
        length, lsn, kind_code, crc = FRAME_HEADER.unpack_from(data, pos)
        kind = _CODE_KINDS.get(kind_code)
        if kind is None or length > MAX_FRAME_PAYLOAD:
            raise WalCorruptionError(
                path, lsn, f"unreadable frame header at offset {pos}"
            )
        end = pos + FRAME_HEADER.size + length
        if end > size:
            # Crash mid-append: the trailing frame never completed.
            return WalScan(frames, pos, True)
        if lsn <= last_lsn:
            raise WalCorruptionError(
                path, lsn, f"LSN not monotone (previous frame was {last_lsn})"
            )
        payload = data[pos + FRAME_HEADER.size:end]
        record: Optional[dict] = None
        if kind != "commit" or lsn > skip_below:
            if zlib.crc32(payload) != crc:
                raise WalCorruptionError(path, lsn, "payload CRC mismatch")
            record = json.loads(payload)
        frames.append(WalFrame(lsn, kind, record, pos, end - pos))
        last_lsn = lsn
        pos = end
    if pos < size:
        # A partial header trails the log -- same torn-append shape.
        return WalScan(frames, pos, True)
    return WalScan(frames, pos, False)


@dataclass
class WalStats:
    """Counters for one log file."""

    appends: int = 0
    commits: int = 0
    prepares: int = 0
    resolves: int = 0
    syncs: int = 0
    sync_failures: int = 0
    checkpoints: int = 0
    truncated_frames: int = 0
    bytes_written: int = 0


class ShardWal:
    """The append-only redo log of one shard primary.

    Reopening an existing file resumes its LSN sequence; a torn final
    frame left by a crash is physically dropped on open so subsequent
    appends extend a clean log.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        sync_policy: str = "commit",
    ) -> None:
        if sync_policy not in SYNC_POLICIES:
            raise WalError(
                f"unknown sync policy {sync_policy!r}; "
                f"options: {SYNC_POLICIES}"
            )
        self.path = Path(path)
        self.checkpoint_path = self.path.with_suffix(".ckpt")
        self.sync_policy = sync_policy
        self.stats = WalStats()
        # When True every fsync fails (storage-fault injection); the
        # durable horizon stops advancing until the fault heals.
        self.fsync_fail = False
        ckpt = self.read_checkpoint()
        ckpt_lsn = ckpt["lsn"] if ckpt is not None else 0
        scan = scan_wal(self.path, skip_below=ckpt_lsn)
        if scan.torn:
            with open(self.path, "r+b") as fh:
                fh.truncate(scan.valid_end)
        self.tip = max(ckpt_lsn, scan.frames[-1].lsn if scan.frames else 0)
        self.durable_lsn = self.tip
        self._size = scan.valid_end
        self._durable_size = scan.valid_end
        # gtid -> prepare LSN for prepares without a resolve yet.
        self._pending_prepares: dict[str, int] = {}
        for frame in scan.frames:
            if frame.kind == "prepare":
                self._pending_prepares[frame.record["gtid"]] = frame.lsn
            elif frame.kind == "resolve":
                self._pending_prepares.pop(frame.record["gtid"], None)
        # Armed by ShardedTransaction.commit just before each branch
        # commit: the next redo batch resolves this gtid's prepare
        # frame instead of duplicating its ops in a commit frame.
        self._resolving: Optional[str] = None
        # Table key -> the last checkpoint's row chunks, each
        # (rowids, rows, encoded text) -- see the module docstring.
        self._chunks: dict[str, list[tuple[list, list, str]]] = {}
        self._file = open(self.path, "ab")

    # -- appending -----------------------------------------------------------

    def _append(self, kind: str, lsn: int, record: dict) -> None:
        payload = _encode_payload(record)
        frame = FRAME_HEADER.pack(
            len(payload), lsn, _KIND_CODES[kind], zlib.crc32(payload)
        ) + payload
        self._file.write(frame)
        self._size += len(frame)
        self.tip = lsn
        self.stats.appends += 1
        self.stats.bytes_written += len(frame)

    def commit_ops(self, ops: Sequence[RedoOp]) -> int:
        """Log one committed redo batch; the ``redo_collector`` hook.

        If :meth:`mark_resolving` armed a gtid whose prepare frame is
        pending, the batch's ops are already durable there and an
        ops-less ``resolve`` frame is written instead.
        """
        gtid = self._resolving
        self._resolving = None
        lsn = self.tip + 1
        if gtid is not None and gtid in self._pending_prepares:
            self._append("resolve", lsn, {"gtid": gtid})
            del self._pending_prepares[gtid]
            self.stats.resolves += 1
        else:
            self._append("commit", lsn, {"ops": encode_ops(ops)})
            self.stats.commits += 1
        if self.sync_policy == "commit":
            self.sync()
        return lsn

    def log_prepare(self, gtid: str, ops: Sequence[RedoOp]) -> int:
        """Persist a 2PC participant's redo without applying it."""
        lsn = self.tip + 1
        self._append("prepare", lsn, {"gtid": gtid, "ops": encode_ops(ops)})
        self._pending_prepares[gtid] = lsn
        self.stats.prepares += 1
        return lsn

    def mark_resolving(self, gtid: str) -> None:
        self._resolving = gtid

    def abort_prepare(self, gtid: str) -> None:
        """Forget a prepare whose transaction rolled back.

        The frame itself stays in the log (appends are immutable);
        recovery presumes abort for it because no commit decision is
        durable, and the next checkpoint truncation drops it.
        """
        self._pending_prepares.pop(gtid, None)
        if self._resolving == gtid:
            self._resolving = None

    def pending_prepares(self) -> dict[str, int]:
        return dict(self._pending_prepares)

    # -- durability ----------------------------------------------------------

    def sync(self) -> bool:
        """Flush + fsync buffered frames; returns durability success.

        Under an ``fsyncfail`` fault the call fails without advancing
        the durable horizon (callers treat an unsynced prepare or
        decision as a vote to abort).
        """
        if self._size == self._durable_size:
            return True
        if self.fsync_fail:
            self.stats.sync_failures += 1
            return False
        self._file.flush()
        os.fsync(self._file.fileno())
        self.durable_lsn = self.tip
        self._durable_size = self._size
        self.stats.syncs += 1
        return True

    def drop_unsynced(self) -> None:
        """Machine-crash semantics: discard frames past the durable
        horizon (they were acknowledged to nobody)."""
        self._file.close()
        with open(self.path, "r+b") as fh:
            fh.truncate(self._durable_size)
        self._size = self._durable_size
        self.tip = self.durable_lsn
        self._pending_prepares = {
            gtid: lsn
            for gtid, lsn in self._pending_prepares.items()
            if lsn <= self.durable_lsn
        }
        self._file = open(self.path, "ab")

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    # -- checkpoints ---------------------------------------------------------

    def read_checkpoint(self) -> Optional[dict]:
        path = self.checkpoint_path
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise WalError(f"unreadable checkpoint {path}: {exc}") from exc

    def write_checkpoint(
        self, database: Database, *, truncate: bool = True
    ) -> Optional[int]:
        """Snapshot ``database`` and truncate the log below its LSN.

        Returns the checkpoint LSN, or None when the log could not be
        forced durable first (a checkpoint must never claim an LSN
        whose frames are still buffered).  The snapshot goes through a
        temp file + fsync + atomic rename: a crash mid-checkpoint
        leaves the previous checkpoint intact and a stale ``.tmp``
        that recovery ignores.  ``truncate=False`` keeps the covered
        frames on disk (log archiving); recovery skips them by LSN.
        """
        if not self.sync():
            return None
        lsn = self.tip
        # Tables absent from this checkpoint (dropped) leave the cache.
        chunks: dict[str, list[tuple[list, list, str]]] = {}
        tmp = self.checkpoint_path.with_suffix(".ckpt.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            # The bytes of json.dumps({"lsn", "name", "tables"}) with
            # compact separators, written fragment by fragment.
            fh.write(f'{{"lsn":{lsn},"name":{_encode(database.name)},')
            fh.write('"tables":[')
            for position, table in enumerate(database.tables()):
                if position:
                    fh.write(",")
                fh.writelines(self._table_fragments(table, chunks))
            fh.write("]}")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.checkpoint_path)
        self._chunks = chunks
        self.stats.checkpoints += 1
        if truncate:
            self.truncate_below(lsn)
        return lsn

    def _table_fragments(
        self, table: Table, chunks: dict[str, list[tuple[list, list, str]]]
    ) -> Iterator[str]:
        """One table's checkpoint object as text fragments, reusing the
        previous checkpoint's text for every unchanged row chunk and
        recording this checkpoint's chunks in ``chunks``."""
        schema = table.schema
        allocator = table._next_rowid  # noqa: SLF001
        table.ensure_scan_order()
        header = _encode({
            "name": schema.name,
            "columns": [
                [c.name, c.type.value, c.nullable] for c in schema.columns
            ],
            "primary_key": list(schema.primary_key),
            "indexes": [
                [s.name, list(s.columns), s.unique, s.ordered]
                for s in table._index_specs.values()  # noqa: SLF001
            ],
            "next_rowid": (
                allocator.peek()
                if isinstance(allocator, RowidAllocator) else None
            ),
            "rows": [],
        })
        yield header[:-2]  # up to and including the rows' "["
        rows = table.row_store
        rowids = list(rows)
        values = list(rows.values())
        previous = self._chunks.get(schema.name.lower(), ())
        current = chunks[schema.name.lower()] = []
        size = CHECKPOINT_CHUNK_ROWS
        same = operator.is_
        for index, start in enumerate(range(0, len(rowids), size)):
            ids = rowids[start:start + size]
            vals = values[start:start + size]
            entry = previous[index] if index < len(previous) else None
            if (
                entry is None
                or len(entry[0]) != len(ids)
                or not all(map(same, ids, entry[0]))
                or not all(map(same, vals, entry[1]))
            ):
                # [rowid, [..]] pairs, no list per row (module docstring).
                entry = (ids, vals, _encode(list(zip(ids, vals)))[1:-1])
            current.append(entry)
            if index:
                yield ","
            yield entry[2]
        yield "]}"

    def truncate_below(self, lsn: int) -> int:
        """Drop frames at or below ``lsn`` except pending prepares.

        Rewrites the file (temp + rename) keeping raw frame bytes, so
        even skipped/undecoded frames survive verbatim.  Returns the
        number of frames dropped.
        """
        self._file.flush()
        keep_lsns = set(self._pending_prepares.values())
        scan = scan_wal(self.path, skip_below=lsn)
        data = self.path.read_bytes()
        kept = [
            f for f in scan.frames if f.lsn > lsn or f.lsn in keep_lsns
        ]
        dropped = len(scan.frames) - len(kept)
        if dropped == 0:
            return 0
        self._file.close()
        tmp = self.path.with_suffix(".wal.tmp")
        with open(tmp, "wb") as fh:
            for frame in kept:
                fh.write(data[frame.offset:frame.offset + frame.length])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._size = sum(f.length for f in kept)
        self._durable_size = self._size
        self._file = open(self.path, "ab")
        self.stats.truncated_frames += dropped
        return dropped

    # -- storage-fault injection ---------------------------------------------

    def inject_torn_write(self) -> None:
        """Append half of a frame: a crash mid-write of the *next*,
        never-acknowledged commit.  The durable prefix is intact."""
        payload = _encode_payload({"ops": [["torn", "insert", 0, [0]]]})
        frame = FRAME_HEADER.pack(
            len(payload), self.tip + 1, _KIND_CODES["commit"],
            zlib.crc32(payload),
        ) + payload
        self._file.write(frame[: FRAME_HEADER.size + len(payload) // 2])
        self._file.flush()
        self._size = os.path.getsize(self.path)

    def inject_corruption(self, lsn: Optional[int] = None) -> Optional[int]:
        """Flip a payload byte of the frame at ``lsn`` (default: the
        last durable frame).  Returns the corrupted LSN, or None when
        the log holds no such frame."""
        self._file.flush()
        scan = scan_wal(self.path)
        frames = [f for f in scan.frames if lsn is None or f.lsn == lsn]
        if not frames:
            return None
        target = frames[-1]
        with open(self.path, "r+b") as fh:
            fh.seek(target.offset + FRAME_HEADER.size)
            byte = fh.read(1)
            fh.seek(target.offset + FRAME_HEADER.size)
            fh.write(bytes([byte[0] ^ 0xFF]))
        return target.lsn


class CoordinatorLog:
    """Durable 2PC commit decisions, one per cross-shard transaction.

    Only *commit* decisions are logged (presumed abort: the absence of
    a record is an abort).  Forcing the decision record is the commit
    point -- if the force fails, the coordinator still aborts.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.stats = WalStats()
        self.fsync_fail = False
        scan = scan_wal(self.path)
        if scan.torn:
            with open(self.path, "r+b") as fh:
                fh.truncate(scan.valid_end)
        self.decisions: dict[str, list[int]] = {}
        for frame in scan.frames:
            if frame.kind != "decide":
                raise WalCorruptionError(
                    self.path, frame.lsn,
                    f"unexpected {frame.kind!r} frame in a coordinator log",
                )
            self.decisions[frame.record["gtid"]] = list(
                frame.record.get("shards", [])
            )
        self.tip = scan.frames[-1].lsn if scan.frames else 0
        self._file = open(self.path, "ab")

    def log_commit(self, gtid: str, shards: Sequence[int]) -> bool:
        """Force a commit decision; False means it is NOT durable and
        the transaction must abort."""
        lsn = self.tip + 1
        payload = _encode_payload({"gtid": gtid, "shards": list(shards)})
        frame = FRAME_HEADER.pack(
            len(payload), lsn, _KIND_CODES["decide"], zlib.crc32(payload)
        ) + payload
        self._file.write(frame)
        self.tip = lsn
        self.stats.appends += 1
        self.stats.bytes_written += len(frame)
        if self.fsync_fail:
            self.stats.sync_failures += 1
            # The undurable record is dropped so a later crash cannot
            # resurrect a decision the coordinator reported as aborted.
            self._file.close()
            with open(self.path, "r+b") as fh:
                fh.truncate(os.path.getsize(self.path) - len(frame))
            self.tip = lsn - 1
            self._file = open(self.path, "ab")
            return False
        self._file.flush()
        os.fsync(self._file.fileno())
        self.decisions[gtid] = list(shards)
        self.stats.syncs += 1
        return True

    def committed(self, gtid: str) -> bool:
        return gtid in self.decisions

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


META_FILE = "meta.json"


def read_meta(directory: Path | str) -> dict:
    path = Path(directory) / META_FILE
    if not path.exists():
        raise WalError(f"no WAL metadata at {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise WalError(f"unreadable WAL metadata {path}: {exc}") from exc


def _serialize_scheme(scheme) -> dict:
    tables = {}
    for name, sharding in scheme._tables.items():  # noqa: SLF001
        tables[name] = (
            None if sharding is None else {
                "columns": list(sharding.columns),
                "strategy": sharding.strategy,
                "boundaries": list(sharding.boundaries),
            }
        )
    return {"tables": tables}


class WalManager:
    """Per-shard logs + coordinator decision log under one directory.

    ``meta.json`` records the cluster shape (name, shard count,
    replica count, sharding scheme) and a restart *epoch* folded into
    every gtid, so transaction ids never collide across restarts.
    """

    def __init__(
        self,
        directory: Path | str,
        *,
        shards: int,
        sync_policy: str = "commit",
    ) -> None:
        if shards < 1:
            raise WalError("a WAL manager needs at least one shard")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_policy = sync_policy
        self.wals = [
            ShardWal(
                self.directory / f"shard{i}.wal", sync_policy=sync_policy
            )
            for i in range(shards)
        ]
        self.coordinator = CoordinatorLog(self.directory / "coord.wal")
        self.epoch = 0
        self._gtid_counter = 0

    def wal_for(self, shard: int) -> ShardWal:
        return self.wals[shard]

    def next_gtid(self) -> str:
        self._gtid_counter += 1
        return f"e{self.epoch}-t{self._gtid_counter}"

    def mark_resolving(self, shard: int, gtid: str) -> None:
        self.wals[shard].mark_resolving(gtid)

    def sync_all(self) -> None:
        """Sync every shard's log; a failed fsync on one (counted in
        its ``sync_failures``) does not skip the rest."""
        for wal in self.wals:
            wal.sync()

    def checkpoint(
        self, databases: Sequence[Database], *, truncate: bool = True
    ) -> list[Optional[int]]:
        if len(databases) != len(self.wals):
            raise WalError(
                f"checkpoint got {len(databases)} database(s) for "
                f"{len(self.wals)} log(s)"
            )
        return [
            wal.write_checkpoint(db, truncate=truncate)
            for wal, db in zip(self.wals, databases)
        ]

    def set_fsync_fail(self, shard: int, active: bool) -> None:
        self.wals[shard].fsync_fail = active

    def drop_unsynced(self) -> None:
        for wal in self.wals:
            wal.drop_unsynced()

    def close(self) -> None:
        for wal in self.wals:
            wal.close()
        self.coordinator.close()

    def write_meta(self, payload: dict) -> None:
        path = self.directory / META_FILE
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(payload, separators=(",", ":"), sort_keys=True)
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


def attach_wal(
    database: "Database | ShardedDatabase",
    directory: Path | str,
    *,
    sync_policy: str = "commit",
    checkpoint_now: bool = True,
) -> WalManager:
    """Make ``database`` durable under ``directory``.

    Installs per-shard redo collectors (via each shard's
    :class:`~repro.db.replica.ReplicaGroup` when replicated, directly
    on the :class:`Database` otherwise), bumps the restart epoch in
    ``meta.json``, and -- by default -- takes an immediate checkpoint:
    rows bulk-loaded *before* the attach are not in the log, so the
    bootstrap snapshot is what makes the pre-existing state
    recoverable.
    """
    directory = Path(directory)
    is_sharded = hasattr(database, "shards")
    n_shards = database.n_shards if is_sharded else 1
    manager = WalManager(
        directory, shards=n_shards, sync_policy=sync_policy
    )
    meta: dict = {"epoch": 1, "name": database.name, "shards": n_shards}
    if (directory / META_FILE).exists():
        old = read_meta(directory)
        meta["epoch"] = int(old.get("epoch", 0)) + 1
    manager.epoch = meta["epoch"]
    if is_sharded:
        meta["single"] = False
        meta["replicas"] = database.replicas
        meta["scheme"] = _serialize_scheme(database.scheme)
        for index, shard_db in enumerate(database.shards):
            group = database.groups[index]
            if group is not None:
                group.wal = manager.wals[index]
            else:
                shard_db.redo_collector = manager.wals[index].commit_ops
        database.wal_manager = manager
        shard_dbs: Sequence[Database] = database.shards
    else:
        meta["single"] = True
        meta["replicas"] = 0
        database.redo_collector = manager.wals[0].commit_ops
        database.wal_manager = manager  # type: ignore[attr-defined]
        shard_dbs = [database]
    manager.write_meta(meta)
    if checkpoint_now:
        manager.checkpoint(shard_dbs)
    return manager
