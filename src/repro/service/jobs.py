"""The campaign job engine: priority scheduling over sharded pools.

:class:`JobEngine` turns the library's synthesis→BIST-campaign unit of
work (:func:`repro.suite.sweep.sweep_member`) into a long-running batch
facility: clients submit jobs to a shared service instead of each
linking the library and owning one in-process pool:

* **Priority queue with admission control.**  Jobs carry an integer
  ``priority`` (higher runs earlier; FIFO within a priority).  The queue
  is bounded: once ``max_queued`` jobs are waiting, further submissions
  raise :exc:`~repro.exceptions.AdmissionError` (HTTP 429 at the service
  boundary) instead of growing without bound.
* **Sharded persistent pools, bounded in-flight work.**  The engine runs
  ``shards`` executor threads, each owning one long-lived
  :class:`~repro.faults.pool.CampaignPool` (``pool_workers`` processes;
  ``pool_workers=0`` runs campaigns in-process).  A job is pinned to the
  shard ``int(subject_sha256, 16) % shards``, so repeated submissions of
  the same subject land on the same pool and hit its compiled-subject
  cache.  At most one job runs per shard, so in-flight work is bounded by
  the shard count.
* **SHA-256 content dedupe.**  A job's identity is the SHA-256 over its
  canonical payload (the subject's content hash -- the same
  SHA-256-of-content scheme as the corpus ledger and the pool subject
  cache -- plus the deterministic config fields).
  Submitting a job whose identity matches a queued, running or completed
  job returns *that* job instead of recomputing ("dedupe hits"
  telemetry); failed and cancelled jobs are not reused.
* **Cancellation.**  Queued jobs cancel immediately; a running campaign
  is never preempted (its pool workers would be left mid-slab) and
  reports ``"running"`` back instead.
* **Graceful drain.**  ``close(drain=True)`` stops admission, lets every
  queued and running job finish, then shuts the pools down;
  ``drain=False`` cancels the queue and only waits for the in-flight
  jobs.
* **Durability (opt-in).**  ``journal_dir=`` arms a write-ahead job
  journal (:mod:`repro.service.journal`): every submission, state
  transition and canonical result is appended (and fsynced per policy)
  *before* the in-memory state reflects it.  A restarted engine replays
  the journal -- completed results and the dedupe table come back
  verbatim, jobs that were queued or running when the process died are
  requeued and rerun (a job's record is deterministic) -- so a ``kill
  -9`` mid-sweep loses no admitted job and double-reports none.  The
  journal is the service's only durability mechanism: campaigns write no
  checkpoint files.

Everything here is deterministic where it matters: the *record* a job
produces is a pure function of its member and config (see
:func:`~repro.suite.sweep.sweep_member`), so a sweep driven through the
engine is bit-identical to the in-process path regardless of priorities,
shard assignment, dedupe or retries.  Campaign telemetry stays coherent
under concurrency because ``CAMPAIGN_STATS`` is per-thread and each shard
executor is one thread.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..exceptions import AdmissionError, PoolClosed, ReproError
from ..faults.chaos import ChaosState, service_generation
from ..fsm import kiss
from ..ledger import canonical_json
from ..suite import corpus as corpus_mod
from ..suite.sweep import SweepConfig, sweep_member
from .journal import JobJournal

__all__ = ["AdhocMember", "Job", "JobEngine", "job_payload_key"]

#: job lifecycle states.  ``done`` means the member record exists and has
#: ``status == "ok"``; ``failed`` covers both an error record (the
#: campaign raised a structured :exc:`~repro.exceptions.ReproError`, e.g.
#: a :exc:`~repro.exceptions.WorkerCrash` after chaos killed a pool
#: worker) and an unexpected executor exception.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL = (DONE, FAILED, CANCELLED)

#: completed jobs retained for polling/dedupe before FIFO eviction.
_DEFAULT_RETENTION = 4096


@dataclass(frozen=True)
class AdhocMember:
    """A corpus-member-shaped wrapper for an inline KISS2 subject.

    Lets clients submit machines that are not in the corpus: the job
    payload carries the KISS2 text itself, and this wrapper gives it the
    :class:`~repro.suite.corpus.CorpusMember` duck surface that
    :func:`~repro.suite.sweep.sweep_member` consumes.  The ledger
    identity is the SHA-256 of the text bytes (the kiss-file convention).
    """

    name: str
    text: str
    family: str = "adhoc"
    kind: str = "kiss-inline"

    @property
    def member_id(self) -> str:
        return f"{self.family}/{self.name}"

    def build(self):
        return kiss.loads(self.text, name=self.name)

    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def resolve_member(payload: Mapping):
    """The job payload's subject: a corpus member record or inline KISS2.

    ``{"member": <manifest record>}`` rebuilds a
    :class:`~repro.suite.corpus.CorpusMember` exactly like the sweep
    reproduction path; ``{"kiss": <text>, "name": <str>}`` wraps an
    inline machine.  Returns ``(member, subject_sha256)``.
    """
    if "member" in payload:
        record = payload["member"]
        if not isinstance(record, Mapping):
            raise ReproError("job 'member' must be a corpus manifest record")
        member = corpus_mod.member_from_manifest(record)
        claimed = record.get("sha256")
        subject_sha = str(claimed) if claimed else member.sha256()
        return member, subject_sha
    if "kiss" in payload:
        text = payload["kiss"]
        if not isinstance(text, str) or not text.strip():
            raise ReproError("job 'kiss' must be non-empty KISS2 text")
        member = AdhocMember(
            name=str(payload.get("name", "machine")), text=text
        )
        return member, member.sha256()
    raise ReproError("job payload needs 'member' (manifest record) or 'kiss'")


def job_payload_key(
    member_id: str, subject_sha256: str, config: SweepConfig
) -> str:
    """A job's content identity: SHA-256 over member id + subject hash +
    config.

    Only the deterministic config fields participate -- the wall-clock
    knobs (``workers``/``pool``) cannot change the canonical record, so
    two submissions differing only there are the same job and dedupe onto
    one computation.  The member id *does* participate: the metrics
    record embeds it, so two members with byte-identical machines but
    different names are different jobs.
    """
    payload = config.to_dict()
    for transient in ("workers", "pool"):
        payload.pop(transient, None)
    text = canonical_json(
        {"member": member_id, "subject": subject_sha256, "config": payload}
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One submitted campaign job and its lifecycle."""

    job_id: str
    key: str
    subject_sha256: str
    member: object
    config: SweepConfig
    priority: int
    shard: int
    state: str = QUEUED
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    dedupe_hits: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def describe(self, full: bool = True) -> Dict[str, object]:
        """JSON-able view; ``full=False`` omits the (possibly large) record."""
        out: Dict[str, object] = {
            "job": self.job_id,
            "key": self.key,
            "subject_sha256": self.subject_sha256,
            "member": getattr(self.member, "member_id", str(self.member)),
            "priority": self.priority,
            "shard": self.shard,
            "state": self.state,
            "submitted_unix": round(self.submitted_unix, 3),
            "dedupe_hits": self.dedupe_hits,
        }
        if self.started_unix is not None:
            out["started_unix"] = round(self.started_unix, 3)
        if self.finished_unix is not None:
            out["finished_unix"] = round(self.finished_unix, 3)
        if self.error is not None:
            out["error"] = self.error
        if full and self.record is not None:
            out["record"] = self.record
        return out


class JobEngine:
    """Async batch job engine over sharded :class:`CampaignPool`\\ s."""

    def __init__(
        self,
        shards: int = 1,
        pool_workers: int = 2,
        max_queued: int = 64,
        retention: int = _DEFAULT_RETENTION,
        pool_kwargs: Optional[Dict[str, object]] = None,
        journal_dir: Optional[str] = None,
        fsync: str = "always",
        fsync_interval: float = 1.0,
        chaos=None,
    ) -> None:
        if shards < 1:
            raise ReproError(f"job engine needs >= 1 shard, got {shards}")
        if pool_workers < 0:
            raise ReproError(f"pool_workers must be >= 0, got {pool_workers}")
        if max_queued < 1:
            raise ReproError(f"max_queued must be >= 1, got {max_queued}")
        if retention < 1:
            raise ReproError(f"retention must be >= 1, got {retention}")
        self.shards = shards
        self.pool_workers = pool_workers
        self.max_queued = max_queued
        self.retention = retention
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._heaps: List[List[Tuple[int, int, str]]] = [
            [] for _ in range(shards)
        ]
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._finished_order: List[str] = []
        self._queued = 0
        self._running = 0
        self._draining = False
        self._closed = False
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected": 0,
            "dedupe_hits": 0,
        }
        self._shard_telemetry: List[Optional[Dict[str, object]]] = [
            None
        ] * shards
        # Service-scope chaos (kill_server / torn_tail / http_stall);
        # generation-gated through the environment so a supervisor's
        # restart runs recovery chaos-free.
        self.chaos_state = ChaosState(
            chaos, scope="service", worker_index=0,
            generation=service_generation(),
        )
        # Durability: journal replay before the shard threads can observe
        # (or race) any restored state.
        self.journal: Optional[JobJournal] = None
        self.recovery: Dict[str, object] = {
            "replayed_records": 0,
            "restored_done": 0,
            "restored_failed": 0,
            "restored_cancelled": 0,
            "requeued": 0,
            "torn_tail": False,
        }
        if journal_dir is not None:
            os.makedirs(journal_dir, exist_ok=True)
            self.journal = JobJournal(
                os.path.join(journal_dir, "journal.jsonl"),
                fsync=fsync,
                fsync_interval=fsync_interval,
                chaos=self.chaos_state if self.chaos_state.armed else None,
            )
            self._replay_journal()
        self._pools = []
        if pool_workers:
            from ..faults.pool import CampaignPool

            kwargs = dict(pool_kwargs or {})
            self._pools = [
                CampaignPool(pool_workers, **kwargs) for _ in range(shards)
            ]
        else:
            self._pools = [None] * shards
        self._threads = [
            threading.Thread(
                target=self._shard_loop,
                args=(index,),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            for index in range(shards)
        ]
        for thread in self._threads:
            thread.start()

    # -- durability ----------------------------------------------------------

    def _journal_append(self, kind: str, data: Dict[str, object],
                        required: bool = True) -> None:
        """Write-ahead append; ``required=False`` tolerates append
        failure (the in-memory transition proceeds and the journal is
        merely behind -- replay then errs towards requeueing, never
        towards losing an observable result)."""
        if self.journal is None:
            return
        try:
            self.journal.append(kind, data)
        except (OSError, ReproError):
            if required:
                raise
            self.stats["journal_errors"] = (
                self.stats.get("journal_errors", 0) + 1
            )

    def _replay_journal(self) -> None:
        """Rebuild job state from the journal (constructor-only: runs
        before the shard threads start, so no locking is needed).

        Completed jobs come back verbatim -- record, error, dedupe-table
        entry -- and jobs that were queued or running when the process
        died are requeued in their original submission order with their
        original priorities.  :exc:`~repro.exceptions.JournalCorrupt`
        propagates (the journal quarantines itself first).
        """
        replay = self.journal.replay()
        self.recovery["replayed_records"] = len(replay.records)
        self.recovery["torn_tail"] = replay.torn_tail
        restored: Dict[str, Job] = {}
        order: List[str] = []
        seqs: Dict[str, int] = {}
        max_seq = -1
        unresolved = 0
        for entry in replay.records:
            data = entry.data
            if entry.kind == "submit":
                try:
                    member, subject_sha = resolve_member(data["subject"])
                    config = SweepConfig.from_dict(dict(data["config"]))
                except (ReproError, KeyError, TypeError, ValueError):
                    # The subject no longer resolves (corpus drift, a
                    # config field from a different version): drop the
                    # job rather than refuse to boot -- a client still
                    # polling it gets a 404 and resubmits.
                    unresolved += 1
                    continue
                job = Job(
                    job_id=str(data["job"]),
                    key=str(data["key"]),
                    subject_sha256=subject_sha,
                    member=member,
                    config=config,
                    priority=int(data.get("priority", 0)),
                    shard=int(subject_sha[:16], 16) % self.shards,
                )
                submitted = data.get("submitted_unix")
                if isinstance(submitted, (int, float)):
                    job.submitted_unix = float(submitted)
                seq = int(data.get("seq", 0))
                seqs[job.job_id] = seq
                max_seq = max(max_seq, seq)
                restored[job.job_id] = job
                order.append(job.job_id)
            elif entry.kind == "state":
                job = restored.get(str(data.get("job")))
                state = data.get("state")
                if job is not None and state in (RUNNING, CANCELLED):
                    job.state = state
                    if state == CANCELLED:
                        job.finished_unix = data.get("unix")
            elif entry.kind == "result":
                job = restored.get(str(data.get("job")))
                if job is not None:
                    state = data.get("state")
                    job.state = state if state in (DONE, FAILED) else FAILED
                    job.record = data.get("record")
                    error = data.get("error")
                    job.error = None if error is None else str(error)
                    job.finished_unix = data.get("unix")
        if unresolved:
            self.recovery["unresolved"] = unresolved

        for job_id in order:
            job = restored[job_id]
            self._jobs[job_id] = job
            self.stats["submitted"] += 1
            if job.state == DONE:
                self._by_key[job.key] = job_id
                self.stats["completed"] += 1
                self.recovery["restored_done"] += 1
                self._note_finished(job)
            elif job.state == FAILED:
                self.stats["failed"] += 1
                self.recovery["restored_failed"] += 1
                self._note_finished(job)
            elif job.state == CANCELLED:
                self.stats["cancelled"] += 1
                self.recovery["restored_cancelled"] += 1
                self._note_finished(job)
            else:
                # Queued -- or running when the process died, which the
                # write-ahead ordering makes indistinguishable from "not
                # finished": requeue with the original seq so FIFO within
                # a priority survives the restart.  An interrupted
                # campaign reruns from scratch.
                job.state = QUEUED
                job.started_unix = None
                heapq.heappush(
                    self._heaps[job.shard],
                    (-job.priority, seqs.get(job_id, 0), job_id),
                )
                self._by_key[job.key] = job_id
                self._queued += 1
                self.recovery["requeued"] = (
                    int(self.recovery["requeued"]) + 1
                )
        self._seq = itertools.count(max_seq + 1)

    # -- submission ----------------------------------------------------------

    def submit(
        self, payload: Mapping, priority: int = 0
    ) -> Tuple[Job, bool]:
        """Admit one job; returns ``(job, deduped)``.

        ``payload`` carries the subject (see :func:`resolve_member`) and
        optionally ``"config"`` (:class:`SweepConfig` fields).  A payload
        whose content identity matches a queued/running/done job returns
        that job with ``deduped=True`` -- the caller gets the shared
        result without a second campaign.  Raises
        :exc:`~repro.exceptions.AdmissionError` when the bounded queue is
        full or the engine is draining.
        """
        member, subject_sha = resolve_member(payload)
        config_payload = payload.get("config") or {}
        if not isinstance(config_payload, Mapping):
            raise ReproError("job 'config' must be a mapping of sweep fields")
        config = SweepConfig.from_dict(dict(config_payload))
        key = job_payload_key(
            getattr(member, "member_id", member.name), subject_sha, config
        )
        if "member" in payload:
            subject_payload: Dict[str, object] = {
                "member": dict(payload["member"])
            }
        else:
            subject_payload = {
                "kiss": payload["kiss"],
                "name": str(payload.get("name", "machine")),
            }
        with self._cond:
            if self._closed:
                raise PoolClosed("job engine is closed")
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                existing = self._jobs.get(existing_id)
                if existing is not None and existing.state in (
                    QUEUED,
                    RUNNING,
                    DONE,
                ):
                    existing.dedupe_hits += 1
                    self.stats["dedupe_hits"] += 1
                    return existing, True
            if self._draining:
                self.stats["rejected"] += 1
                raise AdmissionError("service is draining; not accepting jobs")
            if self._queued >= self.max_queued:
                self.stats["rejected"] += 1
                raise AdmissionError(
                    f"admission control: {self._queued} jobs queued "
                    f"(limit {self.max_queued}); retry later"
                )
            seq = next(self._seq)
            shard = int(subject_sha[:16], 16) % self.shards
            job = Job(
                job_id=f"j{seq:06d}",
                key=key,
                subject_sha256=subject_sha,
                member=member,
                config=config,
                priority=int(priority),
                shard=shard,
            )
            # Write-ahead: the submission is durable before it becomes
            # visible -- a failed append refuses the job (the client can
            # retry) rather than admitting work that would vanish on
            # restart.
            self._journal_append(
                "submit",
                {
                    "job": job.job_id,
                    "key": key,
                    "subject_sha256": subject_sha,
                    "priority": job.priority,
                    "seq": seq,
                    "subject": subject_payload,
                    "config": config.to_dict(),
                    "submitted_unix": round(job.submitted_unix, 3),
                },
            )
            self._jobs[job.job_id] = job
            self._by_key[key] = job.job_id
            heapq.heappush(self._heaps[shard], (-job.priority, seq, job.job_id))
            self._queued += 1
            self.stats["submitted"] += 1
            self._cond.notify_all()
            return job, False

    # -- lifecycle queries ---------------------------------------------------

    def job(self, job_id: str) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ReproError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        with self._cond:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> str:
        """Cancel a queued job; returns the job's state afterwards.

        Running jobs are not preempted (the state stays ``running``);
        terminal jobs report their final state unchanged.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ReproError(f"unknown job {job_id!r}")
            if job.state == QUEUED:
                self._journal_append(
                    "state",
                    {
                        "job": job.job_id,
                        "state": CANCELLED,
                        "unix": round(time.time(), 3),
                    },
                )
                job.state = CANCELLED
                job.finished_unix = time.time()
                self._queued -= 1
                self.stats["cancelled"] += 1
                if self._by_key.get(job.key) == job.job_id:
                    del self._by_key[job.key]
                self._note_finished(job)
                self._cond.notify_all()
            return job.state

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise ReproError(f"unknown job {job_id!r}")
                if job.terminal:
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ReproError(
                            f"timed out waiting for job {job_id}"
                        )
                self._cond.wait(remaining if remaining is not None else 1.0)

    def as_completed(
        self, job_ids: Iterable[str], timeout: Optional[float] = None
    ) -> Iterator[Job]:
        """Yield the given jobs as each reaches a terminal state.

        Completion order, not submission order -- the streaming endpoint
        sits directly on this.  ``timeout`` bounds the wait for *each*
        next completion.
        """
        pending = list(dict.fromkeys(job_ids))
        with self._cond:
            for job_id in pending:
                if job_id not in self._jobs:
                    raise ReproError(f"unknown job {job_id!r}")
        while pending:
            ready = None
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._cond:
                while ready is None:
                    for job_id in pending:
                        job = self._jobs.get(job_id)
                        if job is None or job.terminal:
                            ready = job_id
                            break
                    if ready is not None:
                        break
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise ReproError(
                                "timed out waiting for job completion"
                            )
                    self._cond.wait(
                        remaining if remaining is not None else 1.0
                    )
                job = self._jobs.get(ready)
            pending.remove(ready)
            if job is not None:
                yield job

    # -- execution -----------------------------------------------------------

    def _next_job(self, shard: int) -> Optional[Job]:
        """Pop the highest-priority queued job of one shard (caller holds
        the lock); lazily discards entries whose job was cancelled."""
        heap = self._heaps[shard]
        while heap:
            _neg_priority, _seq, job_id = heapq.heappop(heap)
            job = self._jobs.get(job_id)
            if job is not None and job.state == QUEUED:
                return job
        return None

    def _shard_loop(self, shard: int) -> None:
        pool = self._pools[shard]
        while True:
            if self.journal is not None and self.journal.closed:
                # The engine is dead (its journal was closed under it):
                # start no job whose result could not be made durable.
                return
            with self._cond:
                job = self._next_job(shard)
                while job is None and not self._closed:
                    self._cond.wait(0.5)
                    job = self._next_job(shard)
                if job is None:
                    return  # closed and drained
                job.state = RUNNING
                job.started_unix = time.time()
                self._queued -= 1
                self._running += 1
            # Best-effort transition record: losing it merely requeues
            # the job on restart, which the terminal-result write-ahead
            # below makes safe anyway.
            self._journal_append(
                "state",
                {
                    "job": job.job_id,
                    "state": RUNNING,
                    "unix": round(job.started_unix, 3),
                },
                required=False,
            )
            record = None
            error = None
            try:
                record = sweep_member(job.member, job.config, pool)
            # A failed job must transition to FAILED with its traceback
            # attached, never take the shard's executor thread down --
            # capturing everything here *is* the error path.
            except BaseException:  # repro-lint: disable=RL006
                error = traceback.format_exc()
            if record is not None:
                if record.get("status") == "ok":
                    final_state: str = DONE
                    final_error: Optional[str] = None
                else:
                    # A structured campaign failure (ReproError --
                    # including WorkerCrash/JobTimeout from the pool) is
                    # already folded into the record by sweep_member;
                    # surface it as a failed job rather than a hung or
                    # "ok" one.
                    final_state = FAILED
                    final_error = str(record.get("error"))
            else:
                final_state = FAILED
                final_error = error
            # Write-ahead: the terminal outcome hits the journal before
            # any client can observe it, so a crash after this point
            # cannot double-run the job, and a crash before it requeues
            # cleanly (the rerun is deterministic).
            self._journal_append(
                "result",
                {
                    "job": job.job_id,
                    "state": final_state,
                    "record": record,
                    "error": final_error,
                    "unix": round(time.time(), 3),
                },
                required=False,
            )
            self.chaos_state.after_job_result()
            telemetry = self._capture_telemetry()
            with self._cond:
                job.finished_unix = time.time()
                self._running -= 1
                self._shard_telemetry[shard] = telemetry
                job.record = record
                job.state = final_state
                job.error = final_error
                if final_state == DONE:
                    self.stats["completed"] += 1
                else:
                    self.stats["failed"] += 1
                    if self._by_key.get(job.key) == job.job_id:
                        del self._by_key[job.key]
                self._note_finished(job)
                self._cond.notify_all()

    @staticmethod
    def _capture_telemetry() -> Dict[str, object]:
        """This thread's last-campaign telemetry, JSON-able."""
        from ..faults.engine import CAMPAIGN_STATS, campaign_telemetry

        snapshot = campaign_telemetry()
        resilience = CAMPAIGN_STATS.get("resilience") or {}
        snapshot["resilience"] = {
            key: resilience.get(key, 0)
            for key in (
                "retries",
                "respawns",
                "timeouts",
                "redispatched_faults",
                "redispatched_chunks",
                "resumed",
            )
        }
        return snapshot

    def _note_finished(self, job: Job) -> None:
        """Retention bookkeeping (caller holds the lock)."""
        self._finished_order.append(job.job_id)
        while len(self._finished_order) > self.retention:
            stale_id = self._finished_order.pop(0)
            stale = self._jobs.pop(stale_id, None)
            if stale is not None and self._by_key.get(stale.key) == stale_id:
                del self._by_key[stale.key]

    # -- telemetry / shutdown ------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """The ``/metrics`` payload: engine counters + pool + campaign
        telemetry, all plain JSON-able values."""
        with self._cond:
            service = {
                **self.stats,
                "queued": self._queued,
                "running": self._running,
                "max_queued": self.max_queued,
                "shards": self.shards,
                "pool_workers": self.pool_workers,
                "max_inflight": self.shards,
                "draining": self._draining,
                "jobs_tracked": len(self._jobs),
            }
            campaigns = [
                dict(snapshot) if snapshot else None
                for snapshot in self._shard_telemetry
            ]
        pools = [
            pool.stats_snapshot() if pool is not None else None
            for pool in self._pools
        ]
        journal: Optional[Dict[str, object]] = None
        if self.journal is not None:
            journal = self.journal.stats_snapshot()
            journal["recovery"] = dict(self.recovery)
        return {
            "service": service,
            "pools": pools,
            "campaigns": campaigns,
            "journal": journal,
        }

    def drain(self) -> None:
        """Stop admitting; existing jobs keep running (half of ``close``)."""
        with self._cond:
            self._draining = True

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the engine down; idempotent.

        ``drain=True`` (the graceful path) refuses new admissions, lets
        every queued and running job finish, then stops the executor
        threads and closes the pools.  ``drain=False`` cancels the queue
        first and only waits for the in-flight jobs.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._closed and not self._threads:
                return
            self._draining = True
            if not drain:
                for job in self._jobs.values():
                    if job.state == QUEUED:
                        job.state = CANCELLED
                        job.finished_unix = time.time()
                        self._queued -= 1
                        self.stats["cancelled"] += 1
                        if self._by_key.get(job.key) == job.job_id:
                            del self._by_key[job.key]
                        self._note_finished(job)
            while self._queued or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(min(remaining or 0.5, 0.5))
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        for pool in self._pools:
            if pool is not None:
                pool.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
