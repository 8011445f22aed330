"""Shared pieces of the repo benchmark: workloads, statistics, output checks.

Everything here is pure (no processes, no sockets) so the self-tests can
exercise it directly.  The orchestration lives in ``run.py``; one
in-process sweep pass runs in ``inproc.py``; the service path in ``svc.py``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: the seed whose pass-0 ledger digests are pinned in ``pins.json``.
DEFAULT_SEED = 1

WORKLOADS = ("table1-sweep", "medium-sweep", "service-small")

#: members per pass of the sampled workloads.
MEDIUM_SAMPLE = 20
SMALL_SAMPLE = 200

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: a tail percentile is reported only with at least this many samples
#: beyond it (fewer make it a statement about one or two members).
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name) or len(name) > 64:
        raise ValueError(f"illegal metric name {name!r}")
    return name


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (inclusive method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than 10 samples beyond it.
    """
    for pct in TAIL_CANDIDATES:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# -- workloads ---------------------------------------------------------------


def _family_ids(family: str) -> List[str]:
    from repro.suite import corpus

    return [member.member_id for member in corpus.members(family_filter=[family])]


def _spec_states(family: str) -> Dict[str, int]:
    from repro.suite import corpus

    return {
        member.member_id: int(member.spec["n_states"])
        for member in corpus.members(family_filter=[family])
    }


def select_members(workload: str, seed: int, pass_index: int) -> List[str]:
    """Member ids of one pass of a workload, in run order.

    ``table1-sweep`` runs all 13 Table-1 machines.
    ``medium-sweep`` draws one member from each of 20 strata of six
    consecutive ``pop-medium`` members ordered by state count, so every
    sample has the same state-count mix; per-seed differences then come
    from the members themselves, not from an unlucky mix.
    ``service-small`` draws a plain random sample of 200 ``pop-small``
    members.  Each pass of a run draws anew, so a run measures more
    distinct members than one pass holds.  Members run in id order: the
    order alone moves a Table-1 pass's peak RSS between 126 and 155 MB
    (caches retained from earlier members), which would swamp the metric.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "table1-sweep":
        chosen = _family_ids("table1")
    elif workload == "medium-sweep":
        states = _spec_states("pop-medium")
        ordered = sorted(states, key=lambda member_id: (states[member_id], member_id))
        width = len(ordered) // MEDIUM_SAMPLE
        chosen = [
            rng.choice(ordered[index * width : (index + 1) * width])
            for index in range(MEDIUM_SAMPLE)
        ]
    elif workload == "service-small":
        chosen = rng.sample(_family_ids("pop-small"), SMALL_SAMPLE)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return sorted(chosen)


def resolve_members(member_ids: Iterable[str]):
    """CorpusMember objects for ids, in the given order."""
    from repro.suite import corpus

    wanted = list(member_ids)
    families = sorted({member_id.split("/", 1)[0] for member_id in wanted})
    by_id = {
        member.member_id: member for member in corpus.members(family_filter=families)
    }
    return [by_id[member_id] for member_id in wanted]


def sweep_config(seed: int):
    """``SweepConfig`` defaults with the workload seed as campaign seed."""
    from repro.suite.sweep import SweepConfig

    return SweepConfig(seed=seed)


# -- output checks ---------------------------------------------------------------


def ledger_digest(records: Sequence[Mapping]) -> str:
    """The sweep's canonical ledger digest over records in member order."""
    from repro.suite.sweep import _canonical_digest

    return _canonical_digest(records)


def canonical(record: Mapping) -> str:
    from repro.suite.sweep import canonical_record

    return canonical_record(record)


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_goldens() -> Dict[str, object]:
    """The independent goldens the records are checked against."""
    corpus_members: Dict[str, Mapping] = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "golden", "corpus", "shard*.json"))):
        corpus_members.update(_load_json(path)["members"])
    table1 = _load_json(os.path.join(ROOT, "tests", "golden", "ostr_table1_stats.json"))
    return {"corpus": corpus_members, "table1": table1}


def load_pins() -> Dict[str, str]:
    return _load_json(os.path.join(BENCH_DIR, "pins.json"))["ledger_sha256"]


def _blocks(partition: str) -> int:
    return partition.count("{")


def record_problems(record: Mapping, goldens: Mapping) -> List[str]:
    """Why one metrics record is wrong (empty list: it passes).

    Checks status, the member's identity against the sharded corpus
    golden, coverage arithmetic, and for Table-1 machines the synthesis
    fields the OSTR golden determines under the sweep's own search
    settings: flip-flop count, basis size and exactness, plus the
    (s1, s2) register sizes when both searches are exact.  The golden's
    ``investigated`` count is not comparable: it was searched with each
    machine's Table-1 node limit and basis order, the sweep with the
    ``SweepConfig`` defaults.
    """
    member_id = record.get("id")
    if record.get("status") != "ok":
        return [f"{member_id}: status {record.get('status')!r} {record.get('error', '')}"]
    problems: List[str] = []
    pinned = goldens["corpus"].get(member_id)
    if pinned is None:
        problems.append(f"{member_id}: not in the corpus golden")
    else:
        for key in ("sha256", "n_states", "n_inputs", "n_outputs"):
            if record.get(key) != pinned[key]:
                problems.append(f"{member_id}: {key} {record.get(key)!r} != golden {pinned[key]!r}")
    coverage = record.get("coverage") or {}
    total = coverage.get("total")
    detected = coverage.get("detected")
    if not isinstance(total, int) or not isinstance(detected, int) or not 0 <= detected <= total:
        problems.append(f"{member_id}: coverage {detected}/{total} is not a fraction")
    elif sum(block[1] for block in coverage.get("by_block", {}).values()) != total:
        problems.append(f"{member_id}: per-block totals do not add up to {total}")
    elif (record.get("static") or {}).get("untestable", {}).get("universe") != total:
        problems.append(f"{member_id}: static universe differs from coverage total {total}")
    if record.get("family") == "table1":
        golden = goldens["table1"].get(record.get("name"))
        synthesis = record.get("synthesis") or {}
        if golden is None:
            problems.append(f"{member_id}: not in the Table-1 golden")
        else:
            stats = golden["stats"]
            golden_exact = not (stats["node_limit_hit"] or stats["timed_out"])
            expect = {
                "flipflops": golden["flipflops"],
                "basis_size": stats["basis_size"],
                "exact": golden_exact,
            }
            if golden_exact:
                sizes = (_blocks(golden["pi"]), _blocks(golden["theta"]))
                expect["s1"] = max(sizes)
                expect["s2"] = min(sizes)
            for key, value in expect.items():
                if synthesis.get(key) != value:
                    problems.append(
                        f"{member_id}: synthesis {key} {synthesis.get(key)!r} != golden {value!r}"
                    )
    return problems


# -- environment fingerprint ----------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/repro`` sources: identifies the code even where
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def fingerprint(workload: str, seed: int, member_ids: Sequence[Sequence[str]]) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "members": [list(ids) for ids in member_ids],
        "argv": sys.argv[1:],
    }
