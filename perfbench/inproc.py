"""One in-process sweep pass, run in a fresh interpreter.

Usage: ``python3 perfbench/inproc.py REQUEST.json RESULT.json``

The request names the member ids (in run order), the campaign seed, the
parent's ``time.monotonic()`` at spawn and whether to trace.  Every member
goes through ``sweep_member`` with ``SweepConfig`` defaults, serially, as
``repro sweep`` does.  The result holds the set-up time (spawn to the
first member's start: interpreter start, imports, member list), each
member's latency and record, the timed phase's wall time, the peak RSS
and, when traced, the spans.  An empty member list measures set-up only.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import common

    sys.path.insert(0, common.SRC)
    # Every module a member needs is imported here, as set-up, so the
    # first member's latency does not carry the import time.
    import repro.analysis.structure  # noqa: F401
    import repro.analysis.untestable  # noqa: F401
    import repro.bist  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.faults.engine  # noqa: F401
    import repro.ostr  # noqa: F401
    import repro.suite.sweep as sweep

    members = common.resolve_members(request["members"])
    config = common.sweep_config(request["seed"])
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first_start = time.monotonic()
    setup_s = first_start - request["spawned_monotonic"]
    latencies = []
    records = []
    started = time.perf_counter()
    for member in members:
        begin = time.perf_counter()
        records.append(sweep.sweep_member(member, config))
        latencies.append(time.perf_counter() - begin)
    timed_s = time.perf_counter() - started

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "records": records,
        "timed_s": timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
