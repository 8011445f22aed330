"""Append-only JSONL write-ahead journal for the campaign service.

The :class:`~repro.service.jobs.JobEngine` keeps all job state in memory;
this module is what makes that state survive a crash.  Every externally
visible fact about a job -- its submission, its state transitions, and
its canonical metrics record -- is appended to one journal file *before*
the in-memory structures reflect it (write-ahead ordering), so a ``kill
-9`` at any instant loses at most work that can be recomputed, never a
result a client was already able to observe.

Format
------

One JSON object per line::

    {"data": {...}, "kind": "submit|state|result", "seq": N, "sha256": H, "v": 1}

Each line is a sealed record (:func:`repro.ledger.seal`): ``sha256`` is
the hex digest over the canonical serialisation (sorted keys, compact
separators) of the record *without* the ``sha256`` field; ``seq`` is a
strictly increasing append counter.  Appends are a single
``write()`` of the full line followed by a flush, with the fsync policy
deciding when the bytes are forced to the platter:

``"always"``
    ``os.fsync`` after every append -- the durability default.  Campaign
    jobs run for seconds, so one fsync per job event is noise.
``"interval"``
    fsync at most once per ``fsync_interval`` seconds (and always on
    close) -- for journals on slow media under high submission rates.
``"never"``
    leave flushing to the OS page cache -- tests and throwaway runs.

Replay semantics
----------------

:meth:`JobJournal.replay` reads the file front to back, verifying every
record's hash and sequence.  Two failure classes are deliberately kept
apart:

* a defective **final** record (no trailing newline, unparseable JSON,
  or a hash mismatch) is the signature of a torn write -- the process
  died mid-append.  The record is dropped, ``torn_tail`` telemetry is
  set, and replay succeeds: write-ahead ordering guarantees the lost
  record's effect never became visible to a client.
* a defective record **before** the final line means durably written
  bytes were damaged (bit rot, truncation in the middle, a hostile
  edit).  Replaying past it could resurrect wrong job state, so the
  journal is *quarantined* -- renamed to ``<path>.corrupt`` -- and
  :exc:`~repro.exceptions.JournalCorrupt` is raised with the line number
  and reason.  A fresh journal starts in its place on the next boot.

The engine's recovery pass (:meth:`JobEngine._replay_journal`) folds the
replayed records into jobs: completed results are restored verbatim
(JSON round-trips bit-identically), the dedupe table is rebuilt, and
jobs that were queued or running when the process died are requeued.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import JournalCorrupt, ReproError
from ..ledger import seal, seal_digest, verify

__all__ = ["JobJournal", "JournalRecord", "JournalReplay", "record_digest"]

_VERSION = 1

#: append record kinds: job admitted / lifecycle transition / terminal
#: outcome (with the canonical metrics record when one exists).
KINDS = ("submit", "state", "result")

FSYNC_POLICIES = ("always", "interval", "never")


def record_digest(seq: int, kind: str, data: Dict[str, object]) -> str:
    """The per-record integrity hash: SHA-256 over the canonical record
    body (everything but the ``sha256`` field itself)."""
    return seal_digest({"data": data, "kind": kind, "seq": seq, "v": _VERSION})


@dataclass(frozen=True)
class JournalRecord:
    """One verified journal entry."""

    seq: int
    kind: str
    data: Dict[str, object]


@dataclass
class JournalReplay:
    """The outcome of replaying a journal file."""

    records: List[JournalRecord] = field(default_factory=list)
    torn_tail: bool = False
    bytes_read: int = 0

    @property
    def max_seq(self) -> int:
        return self.records[-1].seq if self.records else -1


class JobJournal:
    """One append-only journal file with per-record SHA-256 integrity.

    Thread-safe: the engine appends from shard executor threads and HTTP
    handler threads concurrently; a single lock serialises appends so
    each record is one contiguous ``write()``.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "always",
        fsync_interval: float = 1.0,
        chaos=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ReproError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if fsync_interval <= 0:
            raise ReproError(
                f"fsync_interval must be > 0, got {fsync_interval}"
            )
        self.path = path
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self._chaos = chaos
        self._lock = threading.Lock()
        self._handle = None
        self._seq = 0
        self._last_fsync: Optional[float] = None
        self._closed = False
        self.stats: Dict[str, int] = {
            "appends": 0,
            "fsyncs": 0,
            "bytes_written": 0,
            "replayed_records": 0,
            "torn_tail": 0,
        }

    # -- replay ---------------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Verify and return every record; see the module docstring for
        the torn-tail / corruption split.  Must run before :meth:`append`
        (the append counter resumes past the replayed sequence)."""
        replay = JournalReplay()
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return replay
        except OSError as exc:
            raise ReproError(f"cannot read journal {self.path!r}: {exc}") from exc
        replay.bytes_read = len(raw)
        if not raw:
            return replay

        lines = raw.split(b"\n")
        # A well-formed journal ends with a newline, leaving one empty
        # trailing element; anything else is a candidate torn tail.
        complete, tail = lines[:-1], lines[-1]
        defect: Optional[Tuple[int, str]] = None
        expected_seq = 0
        for index, line in enumerate(complete):
            if not line.strip():
                continue
            record, reason = self._verify_line(line, expected_seq)
            if record is None:
                defect = (index + 1, reason or "unreadable record")
                break
            expected_seq = record.seq + 1
            replay.records.append(record)
        if defect is not None:
            # Damage strictly before the file's final line: quarantine.
            # (A bad last *complete* line with nothing after it is a torn
            # tail -- the newline made it to disk but the payload did
            # not fully survive the crash.)  A sequence gap is corruption
            # wherever it sits: a torn write mangles bytes (JSON or hash
            # failure), it cannot produce a hash-valid record whose seq
            # skips -- that means a middle record was deleted.
            is_gap = defect[1].startswith("sequence gap")
            if is_gap or defect[0] < len(complete) or tail.strip():
                quarantined = self._quarantine()
                raise JournalCorrupt(
                    f"journal {self.path!r} corrupt at line {defect[0]}: "
                    f"{defect[1]}; quarantined to {quarantined!r}",
                    path=self.path,
                    line_no=defect[0],
                    reason=defect[1],
                    quarantined=quarantined,
                )
            replay.torn_tail = True
        elif tail.strip():
            record, _reason = self._verify_line(tail, expected_seq)
            if record is not None:
                # The newline was lost but the record itself is intact
                # and verified -- keep it (the next append re-terminates
                # the file).
                replay.records.append(record)
            replay.torn_tail = record is None
        self._seq = replay.max_seq + 1
        self.stats["replayed_records"] = len(replay.records)
        self.stats["torn_tail"] = int(replay.torn_tail)
        return replay

    @staticmethod
    def _verify_line(
        line: bytes, expected_seq: int
    ) -> Tuple[Optional[JournalRecord], Optional[str]]:
        try:
            payload = json.loads(line)
        except ValueError:
            return None, "not valid JSON"
        if not isinstance(payload, dict):
            return None, "record is not an object"
        if payload.get("v") != _VERSION:
            return None, f"unknown journal version {payload.get('v')!r}"
        kind = payload.get("kind")
        seq = payload.get("seq")
        data = payload.get("data")
        if kind not in KINDS or not isinstance(data, dict):
            return None, f"malformed record of kind {kind!r}"
        if not isinstance(seq, int) or seq != expected_seq:
            return None, f"sequence gap: expected {expected_seq}, got {seq!r}"
        mismatch = verify(payload)
        if mismatch is not None:
            return None, mismatch
        return JournalRecord(seq=seq, kind=kind, data=data), None

    def _quarantine(self) -> str:
        target = f"{self.path}.corrupt"
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = f"{self.path}.corrupt.{suffix}"
        try:
            os.replace(self.path, target)
        except OSError as exc:
            raise ReproError(
                f"cannot quarantine corrupt journal {self.path!r}: {exc}"
            ) from exc
        return target

    # -- appends --------------------------------------------------------------

    def append(self, kind: str, data: Dict[str, object]) -> int:
        """Durably append one record; returns its sequence number.

        The record is serialised to one line and written with a single
        ``write()`` + flush, then fsynced per policy -- so a crash leaves
        either the whole record or a torn tail that replay drops, never a
        half-record followed by later appends.
        """
        if kind not in KINDS:
            raise ReproError(f"unknown journal record kind {kind!r}")
        with self._lock:
            if self._closed:
                raise ReproError(f"journal {self.path!r} is closed")
            if self._handle is None:
                directory = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "ab")
            seq = self._seq
            self._seq += 1
            body = {"data": data, "kind": kind, "seq": seq, "v": _VERSION}
            line = (seal(body) + "\n").encode("utf-8")
            self._handle.write(line)
            self._handle.flush()
            self._maybe_fsync()
            self.stats["appends"] += 1
            self.stats["bytes_written"] += len(line)
        if self._chaos is not None:
            self._chaos.after_journal_append(self)
        return seq

    def _maybe_fsync(self) -> None:
        if self.fsync == "never" or self._handle is None:
            return
        now = time.monotonic()
        if (
            self.fsync == "interval"
            and self._last_fsync is not None
            and now - self._last_fsync < self.fsync_interval
        ):
            return
        os.fsync(self._handle.fileno())
        self._last_fsync = now
        self.stats["fsyncs"] += 1

    def tear_tail(self, drop_bytes: int = 9) -> None:
        """Chop ``drop_bytes`` off the end of the file (chaos hook).

        Simulates a torn write: the final record loses its tail (and its
        newline), exactly what a crash mid-``write`` leaves behind.  The
        in-memory handle is flushed first so the truncation hits the real
        end of the journal.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
            try:
                size = os.path.getsize(self.path)
            except OSError:
                return
            if size <= 1:
                return
            keep = max(1, size - max(1, drop_bytes))
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
            if self._handle is not None:
                # Re-open so subsequent appends land after the torn tail
                # (the old handle's file position is past the truncation).
                self._handle.close()
                self._handle = open(self.path, "ab")

    # -- telemetry / lifecycle ------------------------------------------------

    def stats_snapshot(self) -> Dict[str, object]:
        """JSON-able journal telemetry for ``/metrics``."""
        with self._lock:
            snapshot: Dict[str, object] = dict(self.stats)
        snapshot["path"] = self.path
        snapshot["fsync"] = self.fsync
        try:
            snapshot["bytes"] = os.path.getsize(self.path)
        except OSError:
            snapshot["bytes"] = 0
        return snapshot

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush, fsync (unless policy is ``never``) and close; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._handle is not None:
                self._handle.flush()
                if self.fsync != "never":
                    os.fsync(self._handle.fileno())
                    self.stats["fsyncs"] += 1
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
