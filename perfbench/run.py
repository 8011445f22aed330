"""The repo benchmark: one command, three workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs passes of the workload until ``--seconds`` is used up
(each pass in fresh processes, so caches start empty as they do for a
CLI user) and reports the end-to-end metrics.  ``--trace 1`` runs one
pass untraced, the same members traced on the workload's own path and
traced on the other path (in-process for the service workload, through
a service for the sweeps), and reports per-layer self times and counts
plus the tracing overhead.  Every record is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check failed.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: no pass or client op outlives this; with the server teardown's own
#: bounded waits (25 s at most) a run ends inside 180 s.
RUN_DEADLINE_S = 140.0
#: at least this many set-up samples per untraced run.
SETUP_TRIALS = 3
MAX_PASSES = 32

END_TO_END = ("setup_s", "machines_per_s", "member_p50_s", "peak_rss_mb")


def _log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


# -- passes ------------------------------------------------------------------


def _failed_pass(member_ids: Sequence[str], reason: str) -> Dict[str, object]:
    return {
        "setup_s": None,
        "latencies": [],
        "records": [None] * len(member_ids),
        "failures": {index: reason for index in range(len(member_ids))},
        "timed_s": 0.0,
        "peak_rss_mb": None,
        "spans": None,
    }


def inproc_pass(member_ids: Sequence[str], seed: int, deadline: float, trace: bool) -> Dict[str, object]:
    """Run ``inproc.py`` on the members in a fresh interpreter."""
    os.makedirs(common.WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="inproc-", dir=common.WORK_DIR)
    try:
        request_path = os.path.join(scratch, "request.json")
        result_path = os.path.join(scratch, "result.json")
        log_path = os.path.join(scratch, "worker.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = common.SRC
        env["TMPDIR"] = scratch
        spawned = time.monotonic()
        with open(request_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"members": list(member_ids), "seed": seed, "trace": trace, "spawned_monotonic": spawned},
                handle,
            )
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(common.BENCH_DIR, "inproc.py"), request_path, result_path],
                cwd=common.ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return _failed_pass(member_ids, "deadline fired: in-process pass")
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                tail = log.read()[-2000:]
            return _failed_pass(member_ids, f"in-process pass exited {proc.returncode}: {tail}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["failures"] = {}
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def service_pass(member_ids: Sequence[str], seed: int, deadline: float, tracer=None) -> Dict[str, object]:
    import svc
    from repro.exceptions import ReproError

    try:
        return svc.run_pass(member_ids, seed, deadline, tracer)
    except (RuntimeError, OSError, ReproError) as exc:
        return _failed_pass(member_ids, f"{type(exc).__name__}: {exc}")


def run_pass(path: str, member_ids: Sequence[str], seed: int, deadline: float, trace: bool = False):
    """One pass on ``path`` ("inproc" or "service"); returns (result, wall_s)."""
    started = time.monotonic()
    if path == "inproc":
        result = inproc_pass(member_ids, seed, deadline, trace)
    else:
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
        result = service_pass(member_ids, seed, deadline, tracer)
    return result, time.monotonic() - started


def setup_trial(path: str, deadline: float) -> Optional[float]:
    if path == "inproc":
        return inproc_pass([], common.DEFAULT_SEED, deadline, False)["setup_s"]
    import svc
    from repro.exceptions import ReproError

    try:
        return svc.boot_only(deadline)
    except (RuntimeError, OSError, ReproError) as exc:
        _log(f"set-up trial failed: {exc}")
        return None


# -- checks --------------------------------------------------------------------


class Checker:
    """Counts attempted and failed members over all passes of a run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.goldens = common.load_goldens()
        self.pins = common.load_pins()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._seen: Dict[str, str] = {}

    def check_pass(self, member_ids: Sequence[str], result: Mapping, pinned: bool) -> List[int]:
        """Check one pass; returns the indices of its good members."""
        records = result["records"]
        failures = {int(index): reason for index, reason in result.get("failures", {}).items()}
        bad = set()
        for index, member_id in enumerate(member_ids):
            record = records[index] if index < len(records) else None
            problems = []
            if index in failures:
                problems.append(f"{member_id}: {failures[index]}")
            elif record is None or record.get("id") != member_id:
                problems.append(f"{member_id}: missing or misplaced record")
            else:
                problems.extend(common.record_problems(record, self.goldens))
                line = common.canonical(record)
                if self._seen.setdefault(member_id, line) != line:
                    problems.append(f"{member_id}: record differs from an earlier pass of the run")
            if problems:
                bad.add(index)
                self.problems.extend(problems)
        if pinned and not bad:
            digest = common.ledger_digest(records)
            expected = self.pins.get(self.workload)
            if digest != expected:
                self.problems.append(
                    f"ledger digest {digest} != pinned {expected} (seed {self.seed}, pass 0)"
                )
                bad = set(range(len(member_ids)))
        self.attempted += len(member_ids)
        self.failed += len(bad)
        return [index for index in range(len(member_ids)) if index not in bad]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# -- reporting -----------------------------------------------------------------


def _metric(value: float, unit: str, samples: int) -> Dict[str, object]:
    return {"value": value, "unit": unit, "samples": samples}


def _emit(checker: Checker, metrics: Dict[str, Dict[str, object]], fingerprint: Mapping, extra: Sequence[str] = ()) -> int:
    _log("env " + json.dumps(fingerprint, sort_keys=True))
    for line in extra:
        _log(line)
    for name, metric in metrics.items():
        common.check_metric_name(name)
        _log(f"{name} = {metric['value']:.6g} {metric['unit']} (n={metric['samples']})")
    _log(f"failed_frac = {checker.failed / checker.attempted:.6g} "
         f"(failed {checker.failed} of {checker.attempted} attempted)")
    for problem in checker.problems[:50]:
        _log(f"FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()
                },
            },
            sort_keys=True,
        ),
        flush=True,
    )
    return 0 if checker.correct else 1


def _path(workload: str) -> str:
    return "service" if workload == "service-small" else "inproc"


def timed_run(args, checker: Checker, run_start: float, deadline: float) -> int:
    path = _path(args.workload)
    selections: List[List[str]] = []
    setups: List[float] = []
    latencies: List[float] = []
    rss: List[float] = []
    ok = 0
    timed_s = 0.0
    longest = 0.0
    events: List[str] = []
    while len(selections) < MAX_PASSES:
        member_ids = common.select_members(args.workload, args.seed, len(selections))
        result, wall_s = run_pass(path, member_ids, args.seed, deadline)
        pinned = args.seed == common.DEFAULT_SEED and not selections
        selections.append(member_ids)
        good = checker.check_pass(member_ids, result, pinned)
        ok += len(good)
        events.extend(result.get("events", []))
        if result["setup_s"] is not None:
            setups.append(result["setup_s"])
        if result["peak_rss_mb"] is not None:
            rss.append(result["peak_rss_mb"])
        latencies.extend(result["latencies"][index] for index in good)
        timed_s += result["timed_s"]
        longest = max(longest, wall_s)
        now = time.monotonic()
        if now - run_start + longest > args.seconds or now + longest > deadline:
            break
    while len(setups) < SETUP_TRIALS and time.monotonic() + 2 * max(setups or [5.0]) < deadline:
        trial = setup_trial(path, deadline)
        if trial is None:
            break
        setups.append(trial)

    metrics: Dict[str, Dict[str, object]] = {}
    if setups:
        metrics["setup_s"] = _metric(common.median(setups), "s", len(setups))
    if timed_s > 0:
        metrics["machines_per_s"] = _metric(ok / timed_s, "1/s", ok)
    if latencies:
        metrics["member_p50_s"] = _metric(common.median(latencies), "s", len(latencies))
    if rss:
        metrics["peak_rss_mb"] = _metric(common.median(rss), "MB", len(rss))
    missing = sorted(set(END_TO_END) - set(metrics))
    if missing:
        checker.problems.append(f"no samples for {missing}")
    extra = [f"passes = {len(selections)}, timed phase {timed_s:.3f} s"]
    tail = common.tail_percentile(len(latencies))
    if tail is not None and tail > 50.0:
        extra.append(
            f"member_p{tail:g}_s = {common.percentile(latencies, tail):.6g} s (n={len(latencies)})"
        )
    else:
        extra.append(f"no tail percentile: {len(latencies)} member latencies leave fewer than "
                     f"{common.TAIL_MIN_BEYOND} beyond p75")
    extra.extend(events)
    fingerprint = common.fingerprint(args.workload, args.seed, selections)
    return _emit(checker, metrics, fingerprint, extra)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(inproc: Mapping, service: Mapping) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from a traced in-process pass and a traced service pass."""
    import tracing

    spans = inproc["spans"] or []
    self_s = tracing.self_times(spans)
    counts = tracing.count_totals(spans)

    def count(span: str, key: str = "spans") -> float:
        return counts.get(span, {}).get(key, 0)

    universe = count("faults.campaign", "universe")
    scheduled = count("faults.campaign", "scheduled")
    values: Dict[str, Tuple[float, str]] = {
        "fsm.build_s": (self_s.get("fsm.build", 0.0), "s"),
        "ostr.search_s": (self_s.get("ostr.search", 0.0), "s"),
        "ostr.investigated": (count("ostr.search", "investigated"), "count"),
        "ostr.unique_joins": (count("ostr.search", "unique_joins"), "count"),
        "ostr.node_limit_hits": (count("ostr.search", "node_limit_hits"), "count"),
        "encoding.encode_s": (self_s.get("encoding.encode", 0.0), "s"),
        "logic.minimize_s": (self_s.get("logic.minimize", 0.0), "s"),
        "logic.calls": (count("logic.minimize"), "count"),
        "logic.terms": (count("logic.minimize", "terms"), "count"),
        "netlist.build_s": (self_s.get("netlist.build", 0.0), "s"),
        "netlist.compile_s": (self_s.get("netlist.compile", 0.0), "s"),
        "netlist.compiles": (count("netlist.compile"), "count"),
        "bist.verify_s": (self_s.get("bist.verify", 0.0), "s"),
        "faults.campaign_s": (self_s.get("faults.campaign", 0.0), "s"),
        "faults.universe": (universe, "count"),
        "faults.scheduled": (scheduled, "count"),
        "faults.scheduled_ratio": (scheduled / universe if universe else 0.0, "ratio"),
        "faults.detected": (count("faults.campaign", "detected"), "count"),
        "faults.dropped": (count("faults.campaign", "dropped"), "count"),
        "analysis.static_s": (self_s.get("analysis.static", 0.0), "s"),
        "suite.member_self_s": (self_s.get("suite.member", 0.0), "s"),
    }
    jobs = service.get("jobs") or {}
    served = service.get("metrics") or {}
    engine = served.get("service") or {}
    journal = served.get("journal") or {}
    pool = ((served.get("pools") or [None])[0] or {})
    pool_stats = pool.get("stats") or {}
    campaigns = pool_stats.get("campaigns", 0)
    reuse_hits = pool_stats.get("reuse_hits", 0)
    workers = pool.get("workers") or 0
    values.update({
        "service.submit_s": (_mean(jobs.get("submit_s", [])), "s"),
        "service.queue_wait_s": (_mean(jobs.get("queue_wait_s", [])), "s"),
        "service.run_s": (_mean(jobs.get("run_s", [])), "s"),
        "service.stream_lag_s": (_mean(jobs.get("stream_lag_s", [])), "s"),
        "service.rejected": (engine.get("rejected", 0), "count"),
        "service.dedupe_hits": (engine.get("dedupe_hits", 0), "count"),
        "journal.appends": (journal.get("appends", 0), "count"),
        "journal.fsyncs": (journal.get("fsyncs", 0), "count"),
        "journal.bytes": (journal.get("bytes_written", 0), "bytes"),
        "pool.campaigns": (campaigns, "count"),
        "pool.reuse_hits": (reuse_hits, "count"),
        "pool.reuse_ratio": (reuse_hits / (campaigns * workers) if campaigns and workers else 0.0, "ratio"),
        "pool.retries": (pool_stats.get("retries", 0), "count"),
        "pool.respawns": (pool_stats.get("respawns", 0), "count"),
    })
    return values


def traced_run(args, checker: Checker, deadline: float) -> int:
    member_ids = common.select_members(args.workload, args.seed, 0)
    primary = _path(args.workload)
    other = "inproc" if primary == "service" else "service"
    untraced, _ = run_pass(primary, member_ids, args.seed, deadline)
    traced, _ = run_pass(primary, member_ids, args.seed, deadline, trace=True)
    crossed, _ = run_pass(other, member_ids, args.seed, deadline, trace=True)
    rates = []
    for index, result in enumerate((untraced, traced, crossed)):
        good = checker.check_pass(member_ids, result, args.seed == common.DEFAULT_SEED and index == 0)
        rates.append(len(good) / result["timed_s"] if result["timed_s"] else 0.0)
    by_path = {primary: traced, other: crossed}
    values = layer_metrics(by_path["inproc"], by_path["service"])
    overhead = 1.0 - rates[1] / rates[0] if rates[0] else 0.0
    values["trace.overhead_frac"] = (overhead, "ratio")

    os.makedirs(common.WORK_DIR, exist_ok=True)
    spans_path = os.path.join(common.WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"inproc": by_path["inproc"]["spans"], "service": by_path["service"]["spans"]}, handle)
    extra = [
        f"tracing overhead: machines_per_s untraced {rates[0]:.6g} vs traced {rates[1]:.6g} 1/s",
        f"spans written to {os.path.relpath(spans_path, common.ROOT)}",
    ]
    extra.extend(untraced.get("events", []) + traced.get("events", []) + crossed.get("events", []))
    samples = len(member_ids)
    metrics = {name: _metric(value, unit, samples) for name, (value, unit) in values.items()}
    fingerprint = common.fingerprint(args.workload, args.seed, [member_ids])
    return _emit(checker, metrics, fingerprint, extra)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = time.monotonic()
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    deadline = run_start + RUN_DEADLINE_S
    checker = Checker(args.workload, args.seed)
    if args.trace:
        return traced_run(args, checker, deadline)
    return timed_run(args, checker, run_start, deadline)


if __name__ == "__main__":
    sys.exit(main())
