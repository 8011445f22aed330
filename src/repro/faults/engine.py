"""High-throughput fault-simulation campaigns (exact dropping, superposition,
worker-pool fan-out).

This engine accelerates :func:`repro.faults.coverage.measure_coverage`
campaigns by orders of magnitude while returning **bit-identical**
:class:`~repro.faults.coverage.CoverageReport` objects.  The serial loop in
:mod:`repro.faults.coverage` remains the reference oracle; everything here
is an exactness-preserving reformulation of it.

Fault dropping (the ``dropping=True`` path)
-------------------------------------------

Classic fault dropping stops a faulty simulation at the first observed
divergence.  Done naively on signature BIST that is *wrong*: a fault whose
response stream diverges mid-session can still compact to the fault-free
signature (MISR aliasing), and the oracle counts such faults as *missed*.
Measured on this code base, 1-7% of the fault universe aliases that way, so
the engine drops faults without ever approximating the final signature:

1. **Session relevance.**  A self-test session's signature depends only on
   the blocks it exercises; faults in other blocks are skipped outright
   (e.g. a ``C2`` fault cannot disturb the pipeline's session A).
2. **Pattern-parallel screening.**  Where a session's block-under-test sees
   patterns that do not depend on compactor state (true for the
   conventional, doubled and pipeline sessions, whose patterns come from a
   free-running PRPG), the whole session's response stream is computed in
   *one* bit-parallel evaluation of the compiled netlist -- bit ``t`` of
   every net is its value in cycle ``t``.  A fault with no response error
   in any cycle provably leaves the session signature untouched and is
   dropped after that single evaluation.
3. **Linear signature-difference compaction.**  MISR state update is linear
   over GF(2): ``state' = L(state) xor data`` with ``L`` the shift-and-
   feedback map.  The faulty/fault-free signature difference therefore
   evolves as ``d' = L(d) xor e`` where ``e`` is the per-cycle response
   error from step 2, so the *final* signature comparison -- including any
   aliasing -- is reproduced exactly from the error stream with cheap
   integer arithmetic (:class:`LinearCompactor`), never re-running the
   session serially.  Zero-error stretches are jumped over with precomputed
   binary powers of ``L``.
4. **Superposed fallback sessions.**  Sessions that feed compactor state
   back into the logic under observation (the pipeline's ``lambda*`` path
   under a ``C1``/``C2`` fault, and the Figure-1 parallel self-test
   entirely) cannot be unrolled over cycles -- but they *can* be unrolled
   over faults.  The controllers' ``campaign_detects_batch`` packs one
   faulty machine per bit lane (lane 0 fault-free) and replays all of them
   in one multi-lane evaluation per cycle: per-lane fault overrides in the
   compiled kernel (:meth:`CompiledNetlist.lane_eval`), bit-sliced MISR
   banks (:class:`~repro.bist.compaction.LaneMisr`) for every register
   trajectory, and per-lane final-signature comparison, so verdicts --
   aliasing included -- are bit-identical to one serial replay per fault.
   ``superpose=False`` forces the old per-fault serial replays (kept as
   the oracle and as the benchmark baseline).

Worker pools (the ``workers=N`` and ``pool=`` paths)
----------------------------------------------------

Every multi-process campaign runs on a
:class:`~repro.faults.pool.CampaignPool`: chunk stealing over shared
memory with an index-ordered merge (see :mod:`repro.faults.pool`).
``pool=`` passes a caller-owned pool that keeps controllers cached
across campaigns; ``workers=N`` opens a short-lived pool for this one
campaign, whose workers are spawned already holding the controller and
its schedule.  Outcome codes, merge order and therefore the reports are
identical either way.

Fault collapsing (the ``collapse=`` path)
-----------------------------------------

``collapse="equiv"`` runs any of the schedules above over one
representative per structural equivalence class
(:mod:`repro.faults.collapse`) and expands the per-representative outcome
codes back onto the full universe before the deterministic merge --
equivalent faults compute the same faulty function on every observable
output, so they provably share a verdict in every session and the report
stays field-for-field identical while the scheduler sees a universe that
is typically 40-60% smaller (a multiplicative speedup on top of dropping,
superposition and fan-out).  ``collapse="dominance"`` additionally drops
gate-locally dominated classes; the report then covers the kept
representatives only (the universe genuinely changes), which is why it is
opt-in.  ``CAMPAIGN_STATS["collapse"]`` records class counts and the
achieved reduction.

Static prescreening (the ``prescreen=`` path)
---------------------------------------------

``prescreen="static"`` consults the sound untestability prover
(:mod:`repro.analysis.untestable`) before any scheduler runs: faults it
proves untestable -- constant sites, constant-blocked propagation cones
-- are resolved to ``FAULT_UNTESTABLE`` up front and ride the
already-resolved-codes machinery (the same path as a checkpoint resume),
so every rung skips them.  Proved faults are genuinely undetected, so the
report stays field-for-field identical to a full simulation while the
schedulers see strictly fewer faults.  ``prescreen="validate"`` inverts
the bargain: everything is simulated, and a detected proved-untestable
fault raises :exc:`~repro.exceptions.PrescreenViolation` -- the prover's
soundness (and the engines' exactness) as a continuously-checked
theorem.  ``CAMPAIGN_STATS["prescreen"]`` carries the verdict tallies,
the skip count and the per-fault proof witnesses.

Resilience (deadlines, retries, checkpoints, the degradation ladder)
--------------------------------------------------------------------

The runtime defends against *its own* failures, not just the simulated
ones:

* ``timeout=`` arms a no-progress watchdog on the pool (and a
  cooperative per-chunk deadline on the serial path);
  hung workers are killed and their unfinished chunks re-dispatched with
  bounded exponential backoff up to the retry budget, after which a
  structured :exc:`~repro.exceptions.JobTimeout` /
  :exc:`~repro.exceptions.WorkerCrash` propagates.
* ``checkpoint=`` periodically snapshots the per-fault outcome array to
  disk (:mod:`repro.faults.checkpoint`), keyed by the SHA of the subject
  and the full campaign token; a rerun resumes from the completed prefix
  and the final report is bit-identical to an uninterrupted run.
* ``degrade=True`` walks the degradation ladder on repeated failure:
  pool -> serial compiled -> serial interpreted, recording each step
  as a :class:`DegradationEvent`.
* every campaign exports ``CAMPAIGN_STATS["resilience"]`` telemetry:
  retries, worker respawns, watchdog timeouts, re-dispatched
  chunks/faults, checkpoint resume counts, and the fallback events.

``tests/test_chaos.py`` drives all of this with injected worker crashes,
hangs, closed pipes and poisoned payloads (:mod:`repro.faults.chaos`) and
asserts the reports stay field-for-field identical to the serial oracle.

Determinism guarantee
---------------------

Campaign results do not depend on ``workers``, ``dropping``, ``superpose``
or ``chunk_size`` -- nor on crashes, retries, resumes or degradation
fallbacks: every fault's outcome is computed independently (lanes never
interact), the shared outcome array is indexed by the controller's
canonical fault order, and the merge rebuilds the report in that order, so
``CoverageReport`` equality holds field-for-field against the serial
oracle (tests/test_engine.py, tests/test_differential.py and
tests/test_chaos.py assert this across all architectures, engines and
failure schedules).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..bist.compaction import LinearCompactor, stream_errors, transpose_words
from ..exceptions import JobTimeout, PrescreenViolation, ReproError, WorkerCrash
from .checkpoint import CampaignCheckpoint, campaign_key
from .collapse import COLLAPSE_MODES, FaultMap
from .coverage import (
    FAULT_DETECTED,
    FAULT_DROPPED,
    FAULT_UNTESTABLE,
    PRESCREEN_MODES,
    BlockFault,
    CoverageReport,
)
from .pool import CampaignPool, subject_digest

__all__ = [
    "LinearCompactor",
    "transpose_words",
    "stream_errors",
    "run_campaign",
    "CAMPAIGN_STATS",
    "campaign_telemetry",
    "DegradationEvent",
]

class _ThreadLocalStats(MutableMapping):
    """A dict façade whose contents are per-thread.

    Campaign telemetry was a plain module-level dict, which is fine for
    one campaign at a time but races as soon as two threads run campaigns
    concurrently -- the campaign service executes one campaign per pool
    shard thread, and each ``clear()``/``update()`` pair would trample the
    other shard's telemetry mid-read.  Backing the same mapping interface
    with :class:`threading.local` keeps every existing call site
    (``CAMPAIGN_STATS[...]``, ``.get``, ``.clear``, ``.update``,
    truthiness) working unchanged while giving each executor thread its
    own snapshot; :func:`campaign_telemetry` therefore always describes
    the campaign the *calling thread* just ran.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    @property
    def _data(self) -> Dict[str, object]:
        try:
            return self._local.data
        except AttributeError:
            self._local.data = {}
            return self._local.data

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        self._data[key] = value

    def __delitem__(self, key) -> None:
        del self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return repr(self._data)


#: telemetry of the most recent :func:`run_campaign` in the *calling
#: thread* (per-thread storage; see :class:`_ThreadLocalStats`):
#: ``workers``, ``chunk_size``, ``chunks_stolen`` (per worker), ``dropped``
#: (faults screened out pattern-parallel), ``collapse`` (class count /
#: universe reduction of the fault-collapsing layer, ``None`` when raw)
#: and ``resilience`` (retries, respawns, watchdog timeouts, re-dispatched
#: chunks/faults, checkpoint resume count, degradation fallbacks).
#: Diagnostics only -- never part of the returned report, which stays
#: bit-identical across schedules.
CAMPAIGN_STATS: MutableMapping = _ThreadLocalStats()


def campaign_telemetry() -> Dict[str, object]:
    """Deterministic, JSON-able slice of the last campaign's telemetry.

    The sweep harness (:mod:`repro.suite.sweep`) embeds this in each
    ``metrics.jsonl`` record, so only fields that are a pure function of
    the campaign *configuration* belong here: the collapse class counts
    (structural), the pattern-parallel ``dropped`` count (fixed by the
    chunking parameters, not by which worker stole which chunk) and the
    worker count.  Scheduling noise -- per-worker steal tallies, retries,
    respawns -- stays in :data:`CAMPAIGN_STATS` only, because metrics
    records must reproduce bit-identically from a manifest's seeds.  The
    prescreen slice qualifies too: proofs are a pure function of the
    netlist structure, so the proved/skipped tallies are
    scheduler-independent (witness strings stay in the full stats).
    """
    collapse = CAMPAIGN_STATS.get("collapse")
    prescreen = CAMPAIGN_STATS.get("prescreen")
    prescreen_slice: Optional[Dict[str, object]] = None
    if prescreen:
        prescreen_slice = {
            key: prescreen.get(key)
            for key in ("mode", "universe", "scheduled", "proved", "skipped")
        }
        prescreen_slice["by_verdict"] = dict(prescreen.get("by_verdict") or {})
    return {
        "collapse": dict(collapse) if collapse else None,
        "dropped": CAMPAIGN_STATS.get("dropped"),
        "workers": CAMPAIGN_STATS.get("workers"),
        "prescreen": prescreen_slice,
    }

#: the degradation ladder, most capable rung first.
_LADDER = ("pool", "serial", "interpreted")


@dataclass(frozen=True)
class DegradationEvent:
    """One step down the degradation ladder, recorded in telemetry.

    ``rung_from``/``rung_to`` name the scheduler rungs (``"pool"``,
    ``"serial"``, ``"interpreted"``); ``kind`` classifies
    the triggering failure (``"timeout"``, ``"crash"``, ``"error"``) and
    ``error`` carries its one-line summary.
    """

    rung_from: str
    rung_to: str
    kind: str
    error: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "rung_from": self.rung_from,
            "rung_to": self.rung_to,
            "kind": self.kind,
            "error": self.error,
        }


def _blank_resilience() -> Dict[str, object]:
    """Fresh ``CAMPAIGN_STATS["resilience"]`` telemetry record."""
    return {
        "retries": 0,
        "respawns": 0,
        "timeouts": 0,
        "redispatched_faults": 0,
        "redispatched_chunks": 0,
        "fallbacks": [],
        "resumed": 0,
        "checkpoint": None,
    }


# ---------------------------------------------------------------------------
# per-fault / per-chunk outcome computation (shared by all schedulers)
# ---------------------------------------------------------------------------


def _fault_outcome(controller, bundle, reference, block_fault, cycles, seed, options):
    if bundle is not None:
        return controller.campaign_detects(bundle, block_fault)
    signatures = controller.self_test_signatures(
        fault=block_fault, cycles=cycles, seed=seed, **options
    )
    return signatures != reference


def _chunk_outcomes(
    controller,
    bundle,
    reference,
    chunk: Sequence[BlockFault],
    cycles,
    seed,
    superpose: bool,
    options,
) -> List[int]:
    """Outcome codes for one chunk of faults.

    With a screening bundle and a batch-capable controller the whole chunk
    goes through ``campaign_detects_batch`` (which superposes any serial
    fallbacks into bit lanes); otherwise faults resolve one at a time via
    the per-fault oracle.
    """
    if (
        superpose
        and bundle is not None
        and hasattr(controller, "campaign_detects_batch")
    ):
        return [int(code) for code in controller.campaign_detects_batch(bundle, chunk)]
    return [
        int(_fault_outcome(controller, bundle, reference, block_fault, cycles, seed, options))
        for block_fault in chunk
    ]


def default_chunk_size(total: int, workers: int) -> int:
    """Default chunk granularity of the pool's steals and the serial path.

    Small enough that the tail balances across workers, large enough that
    superposed batches still fill their fault lanes.
    """
    return max(1, min(256, -(-total // (workers * 4))))


def _campaign_state(controller, cycles, seed, dropping, options):
    """(reference signatures, screening bundle) -- built once per process."""
    reference = controller.self_test_signatures(
        fault=None, cycles=cycles, seed=seed, **options
    )
    bundle = None
    if dropping and hasattr(controller, "campaign_reference"):
        bundle = controller.campaign_reference(cycles=cycles, seed=seed, **options)
    return reference, bundle


# ---------------------------------------------------------------------------
# serial scheduler (chunked for checkpointing and cooperative deadlines)
# ---------------------------------------------------------------------------


def _serial_outcomes(
    controller,
    schedule: List[BlockFault],
    cycles,
    seed,
    dropping: bool,
    superpose: bool,
    options,
    resume: Optional[Sequence[int]] = None,
    progress: Optional[Callable[[int, List[int]], None]] = None,
    deadline: Optional[float] = None,
    chunk_size: Optional[int] = None,
) -> List[int]:
    """In-process campaign, optionally chunked.

    Without resume/progress/deadline this is the historical single-batch
    call.  Otherwise the schedule is processed in chunks: resumed codes
    are skipped, ``progress(0, codes)`` fires after every chunk (the
    checkpoint writer rate-limits actual disk writes), and a chunk whose
    resolution exceeded ``deadline`` seconds raises
    :exc:`~repro.exceptions.JobTimeout` cooperatively -- the in-process
    analogue of the pool's no-progress watchdog.
    """
    reference, bundle = _campaign_state(controller, cycles, seed, dropping, options)
    total = len(schedule)
    if resume is None and progress is None and deadline is None:
        return _chunk_outcomes(
            controller, bundle, reference, schedule, cycles, seed, superpose, options
        )
    codes = list(resume) if resume is not None else [-1] * total
    step = chunk_size if chunk_size is not None else default_chunk_size(total, 1)
    for start in range(0, total, step):
        chunk_started = time.monotonic()
        todo = [
            (index, schedule[index])
            for index in range(start, min(start + step, total))
            if codes[index] < 0
        ]
        if todo:
            resolved = _chunk_outcomes(
                controller,
                bundle,
                reference,
                [block_fault for _index, block_fault in todo],
                cycles,
                seed,
                superpose,
                options,
            )
            for (index, _block_fault), code in zip(todo, resolved):
                codes[index] = code
        if progress is not None:
            progress(0, codes)
        elapsed = time.monotonic() - chunk_started
        if deadline is not None and elapsed > deadline:
            unprocessed = sum(1 for code in codes if code < 0)
            if unprocessed:
                raise JobTimeout(
                    f"serial campaign chunk exceeded the {deadline}s "
                    f"deadline ({elapsed:.2f}s; {unprocessed} faults "
                    "unprocessed)",
                    deadline=deadline,
                    attempts=1,
                    unprocessed=unprocessed,
                )
    return codes


# ---------------------------------------------------------------------------
# campaign runner
# ---------------------------------------------------------------------------


def _campaign_checkpoint(
    controller,
    schedule: List[BlockFault],
    cycles,
    seed,
    dropping: bool,
    options,
    collapse: str,
    path: str,
) -> CampaignCheckpoint:
    """Checkpoint keyed by the subject and the *exact* campaign.

    The subject digest is :func:`~repro.faults.pool.subject_digest` of
    the pickled controller -- the same content identity the
    :class:`~repro.faults.pool.CampaignPool` subject cache and the
    campaign service's job dedupe key on, so one digest scheme
    identifies a subject everywhere.
    """
    digest = subject_digest(
        pickle.dumps(controller, protocol=pickle.HIGHEST_PROTOCOL)
    )
    schedule_digest = hashlib.sha256(
        "\n".join(repr(block_fault) for block_fault in schedule).encode("utf-8")
    ).hexdigest()
    token = (
        cycles,
        seed,
        bool(dropping),
        tuple(sorted(options.items())),
        collapse,
        schedule_digest,
    )
    return CampaignCheckpoint(path, campaign_key(digest, token), len(schedule))


def _failure_kind(error: ReproError) -> str:
    if isinstance(error, JobTimeout):
        return "timeout"
    if isinstance(error, WorkerCrash):
        return "crash"
    return "error"


def run_campaign(
    controller,
    cycles: Optional[int] = None,
    seed: int = 1,
    workers: int = 0,
    dropping: bool = True,
    faults: Optional[Sequence[BlockFault]] = None,
    superpose: bool = True,
    chunk_size: Optional[int] = None,
    pool=None,
    collapse: str = "none",
    prescreen: str = "none",
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Optional[str] = None,
    degrade: bool = False,
    **session_options,
) -> CoverageReport:
    """Fault-simulation campaign with exact dropping and worker-pool fan-out.

    Semantics are identical to the serial
    :func:`repro.faults.coverage.measure_coverage` oracle (see the module
    docstring for why that holds even under fault dropping, lane
    superposition and equivalence collapsing); only the wall-clock
    changes.  ``workers <= 1`` runs in-process; larger values fan the
    fault universe out over a short-lived
    :class:`~repro.faults.pool.CampaignPool` of that many workers, opened
    for this campaign and closed when it ends.  ``superpose=False``
    disables the lane-packed fallback sessions in favour of per-fault
    serial replays (the oracle/benchmark baseline); ``chunk_size``
    overrides the steal granularity.  ``pool`` routes the campaign over a
    caller-owned persistent pool instead (``workers`` is then ignored;
    the pool's size applies).  ``collapse`` schedules collapsed
    representatives only -- ``"equiv"`` expands the verdicts back to the
    full universe, ``"dominance"`` reports over the kept representatives
    (see the module docstring).

    ``prescreen="static"`` resolves statically-proved-untestable faults
    (:mod:`repro.analysis.untestable`) to
    :data:`~repro.faults.coverage.FAULT_UNTESTABLE` before any scheduler
    runs -- they ride the same already-resolved-codes machinery as a
    checkpoint resume, so every rung skips them; the report is
    field-for-field identical to a full simulation because proved faults
    are genuinely undetected.  ``prescreen="validate"`` simulates the
    full schedule and raises
    :exc:`~repro.exceptions.PrescreenViolation` if any engine detects a
    proved fault.  Both compose with ``collapse=``: verdicts are proved
    on the scheduled representatives, and equivalence classes share them
    by construction.  Proof witnesses and the skip tally land in
    ``CAMPAIGN_STATS["prescreen"]``.

    Resilience knobs (module docstring, "Resilience"): ``timeout`` arms
    the no-progress watchdog / cooperative deadline, ``retries`` bounds
    the re-dispatch loop (``None`` defers to a caller-owned pool's
    default and means no retries otherwise), ``checkpoint`` names the
    snapshot file for crash-safe resume, and ``degrade=True`` walks the
    pool -> serial -> interpreted ladder on repeated failure instead of
    raising at the first exhausted budget.  All of them preserve the
    bit-identical report guarantee.
    """
    if collapse not in COLLAPSE_MODES:
        raise ReproError(
            f"unknown collapse mode {collapse!r}; expected one of "
            f"{COLLAPSE_MODES}"
        )
    if prescreen not in PRESCREEN_MODES:
        raise ReproError(
            f"unknown prescreen mode {prescreen!r}; expected one of "
            f"{PRESCREEN_MODES}"
        )
    universe: List[BlockFault] = (
        list(controller.fault_universe()) if faults is None else list(faults)
    )
    fault_map = None
    schedule = universe
    if collapse != "none":
        # When ``faults is None`` the universe above is the controller's
        # canonical order, so workers (which recompute it from their
        # cached subject) derive the exact same representative sequence.
        fault_map = FaultMap.for_controller(
            controller, faults=universe, mode=collapse
        )
        schedule = fault_map.representatives
    options = dict(session_options)
    resilience = _blank_resilience()

    # -- static prescreen (sound untestability proofs) -----------------------
    prescreen_verdicts = None
    prescreen_stats: Optional[Dict[str, object]] = None
    if prescreen != "none":
        from ..analysis.untestable import count_verdicts, prove_controller

        # Verdicts are proved on the *scheduled* faults: with collapsing
        # active these are the class representatives, and equivalence
        # classes share verdicts by construction, so expanding the codes
        # below spreads each proof over its whole class.
        prescreen_verdicts = prove_controller(controller, faults=schedule)
        by_verdict = count_verdicts(prescreen_verdicts)
        prescreen_stats = {
            "mode": prescreen,
            "universe": len(universe),
            "scheduled": len(schedule),
            "proved": sum(by_verdict.values()),
            "skipped": 0,
            "by_verdict": by_verdict,
            "reasons": {
                f"{block}:{fault.describe()}": verdict.reason
                for (block, fault), verdict in zip(
                    schedule, prescreen_verdicts
                )
                if verdict.is_untestable
            },
        }

    # -- checkpoint / shared progress state ----------------------------------
    ckpt: Optional[CampaignCheckpoint] = None
    codes_state: List[int] = [-1] * len(schedule)
    if checkpoint is not None:
        ckpt = _campaign_checkpoint(
            controller, schedule, cycles, seed, dropping, options, collapse,
            checkpoint,
        )
        loaded = ckpt.load()
        if loaded is not None:
            codes_state = loaded
            resilience["resumed"] = sum(1 for code in codes_state if code >= 0)
        resilience["checkpoint"] = {
            "path": checkpoint,
            "resumed": resilience["resumed"],
        }

    if prescreen == "static" and prescreen_verdicts is not None:
        # Proved faults ride the same already-resolved-codes machinery as
        # a checkpoint resume: every scheduler rung skips codes >= 0, so
        # they are never simulated.  Checkpointed codes take precedence
        # (both are correct; the resumed code is the simulated truth).
        skipped = 0
        for index, verdict in enumerate(prescreen_verdicts):
            if verdict.is_untestable and codes_state[index] < 0:
                codes_state[index] = FAULT_UNTESTABLE
                skipped += 1
        assert prescreen_stats is not None
        prescreen_stats["skipped"] = skipped

    def note_progress(offset: int, slab_codes: List[int]) -> None:
        codes_state[offset : offset + len(slab_codes)] = slab_codes
        if ckpt is not None:
            ckpt.save(codes_state)

    # -- the degradation ladder ----------------------------------------------
    multiprocess = pool is not None or (
        workers and workers > 1 and len(schedule) > 1
    )
    start_rung = 0 if multiprocess else 1
    rungs = list(_LADDER[start_rung:]) if degrade else [_LADDER[start_rung]]

    codes: Optional[List[int]] = None
    for position, rung in enumerate(rungs):
        resume = (
            list(codes_state)
            if any(code >= 0 for code in codes_state)
            else None
        )
        try:
            if rung == "pool":
                owned: Optional[CampaignPool] = None
                if pool is None:
                    # ``workers=N``: a pool for this campaign only.  No more
                    # workers than chunks: the worker count is part of the
                    # ledgered campaign telemetry.
                    step = chunk_size if chunk_size and chunk_size > 0 else 1
                    owned = CampaignPool(
                        min(workers, -(-len(schedule) // step)),
                        retries=0,
                        _campaign=(controller, collapse, schedule),
                    )
                rung_pool = pool if pool is not None else owned
                before = {key: rung_pool.stats[key] for key in (
                    "respawns", "retries", "timeouts",
                    "redispatched_faults", "redispatched_chunks",
                )}
                try:
                    codes = rung_pool.campaign_codes(
                        controller,
                        total=len(schedule),
                        faults=schedule if faults is not None else None,
                        cycles=cycles,
                        seed=seed,
                        dropping=dropping,
                        superpose=superpose,
                        chunk_size=chunk_size,
                        options=options,
                        collapse=collapse,
                        timeout=timeout,
                        retries=retries,
                        resume=resume,
                        progress=note_progress,
                    )
                finally:
                    for key, value in before.items():
                        resilience[key] += rung_pool.stats[key] - value
                    if owned is not None:
                        owned.close()
                note_progress(0, codes)
                CAMPAIGN_STATS.clear()
                CAMPAIGN_STATS.update(
                    workers=rung_pool.workers,
                    chunk_size=rung_pool.last_job.get("chunk_size"),
                    chunks_stolen=list(rung_pool.last_job.get("chunks_stolen", [])),
                    dropped=(
                        sum(1 for code in codes if code == FAULT_DROPPED)
                        if superpose
                        else None
                    ),
                    pool={
                        "reuse_hits": rung_pool.last_job.get("reuse_hits", 0),
                        "campaigns": rung_pool.stats["campaigns"],
                        "respawns": rung_pool.stats["respawns"],
                    },
                )
            else:
                rung_options = options
                rung_dropping = dropping
                rung_superpose = superpose
                if rung == "interpreted":
                    # Last rung: the seed dict-keyed session loops, no
                    # compiled kernels, no screening -- the slowest and
                    # most battle-tested path in the library.
                    rung_options = dict(options, engine="interpreted")
                    rung_dropping = False
                    rung_superpose = False
                codes = _serial_outcomes(
                    controller,
                    schedule,
                    cycles,
                    seed,
                    rung_dropping,
                    rung_superpose,
                    rung_options,
                    resume=resume,
                    progress=note_progress if (ckpt or degrade) else None,
                    deadline=timeout,
                    chunk_size=chunk_size,
                )
                note_progress(0, codes)
                CAMPAIGN_STATS.clear()
                CAMPAIGN_STATS.update(
                    workers=1,
                    chunk_size=(
                        chunk_size
                        if chunk_size is not None
                        else len(schedule)
                    ),
                    chunks_stolen=[1],
                    dropped=(
                        sum(1 for code in codes if code == FAULT_DROPPED)
                        if rung_superpose
                        else None
                    ),
                )
            break
        except ReproError as error:
            if ckpt is not None:
                ckpt.save(codes_state, flush=True)
            if position == len(rungs) - 1:
                CAMPAIGN_STATS.clear()
                CAMPAIGN_STATS.update(resilience=resilience)
                raise
            resilience["fallbacks"].append(
                DegradationEvent(
                    rung_from=rung,
                    rung_to=rungs[position + 1],
                    kind=_failure_kind(error),
                    error=str(error).splitlines()[0],
                )
            )

    CAMPAIGN_STATS["collapse"] = fault_map.stats() if fault_map else None
    CAMPAIGN_STATS["resilience"] = resilience
    CAMPAIGN_STATS["prescreen"] = prescreen_stats
    if prescreen == "validate" and prescreen_verdicts is not None:
        assert codes is not None
        violations = [
            (block, fault.describe(), verdict.reason)
            for (block, fault), verdict, code in zip(
                schedule, prescreen_verdicts, codes
            )
            if verdict.is_untestable and code == FAULT_DETECTED
        ]
        if violations:
            assert prescreen_stats is not None
            CAMPAIGN_STATS["prescreen"] = dict(
                prescreen_stats, violations=len(violations)
            )
            listed = "; ".join(
                f"{block} {description} ({reason})"
                for block, description, reason in violations[:5]
            )
            raise PrescreenViolation(
                f"{len(violations)} statically-proved-untestable fault(s) "
                f"were detected by simulation: {listed}",
                violations=violations,
            )
    if ckpt is not None:
        ckpt.clear()
    if fault_map is not None:
        if collapse == "equiv":
            # Verdict-preserving: every class member inherits its
            # representative's code, restoring the full universe before
            # the deterministic merge below.
            codes = fault_map.expand(codes)
        else:
            universe = schedule  # dominance reports over the kept faults

    undetected: List[BlockFault] = []
    by_block: Dict[str, List[int]] = {}
    detected = 0
    for block_fault, code in zip(universe, codes):
        block = block_fault[0]
        counts = by_block.setdefault(block, [0, 0])
        counts[1] += 1
        if code == FAULT_DETECTED:
            detected += 1
            counts[0] += 1
        else:
            undetected.append(block_fault)
    return CoverageReport(
        architecture=type(controller).__name__,
        total=len(universe),
        detected=detected,
        undetected=undetected,
        by_block={block: (c[0], c[1]) for block, c in by_block.items()},
        cycles=cycles,
    )
