"""One service pass: boot ``repro serve``, drive it closed-loop, tear it down.

The server runs at CLI defaults (1 shard x 2 pool workers, ``fsync``
always) with ``--journal`` in a fresh directory under the work dir.  Two
client threads each submit one job and wait for its terminal line on
``/stream`` before submitting the next.  Every wait has a deadline; a
fired deadline is recorded as that member's failure.  The server is
stopped with SIGTERM and a bounded wait, then SIGKILL to its whole
process group; ``POST /shutdown`` is not used because the listener stays
open after it and a client would block on it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

import common

CLIENT_THREADS = 2
BOOT_DEADLINE_S = 30.0
SUBMIT_DEADLINE_S = 10.0
STREAM_DEADLINE_S = 60.0
TERM_DEADLINE_S = 15.0
KILL_DEADLINE_S = 5.0
_TERMINAL = ("done", "failed", "cancelled")


class ServerHandle:
    """A booted ``repro serve`` subprocess (own session, log in a file)."""

    def __init__(self, deadline: float) -> None:
        os.makedirs(common.WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=common.WORK_DIR)
        self.log_path = os.path.join(self.dir, "serve.log")
        self.events: List[str] = []
        env = dict(os.environ)
        env["PYTHONPATH"] = common.SRC
        env["TMPDIR"] = self.dir
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--journal", os.path.join(self.dir, "journal"), "--quiet"],
                cwd=common.ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.url: Optional[str] = None
        try:
            self._await_health(min(deadline, time.monotonic() + BOOT_DEADLINE_S))
        except BaseException:
            self.stop()
            raise

    def _await_health(self, deadline: float) -> None:
        from repro.service.client import ServiceClient, ServiceError

        prefix = "campaign service on "
        while self.url is None:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                for line in log:
                    if line.startswith(prefix):
                        self.url = line[len(prefix):].split()[0]
                        break
            if self.url is None:
                self._check_alive(deadline, "server boot")
                time.sleep(0.01)
        client = ServiceClient(self.url, timeout=2.0, retries=0)
        while True:
            try:
                if client.health().get("ok"):
                    return
            except ServiceError:
                pass
            self._check_alive(deadline, "server health")
            time.sleep(0.01)

    def _check_alive(self, deadline: float, what: str) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"{what}: server exited with {self.proc.returncode}: {self.log_tail()}")
        if time.monotonic() >= deadline:
            raise RuntimeError(f"deadline fired: {what} after {BOOT_DEADLINE_S}s")

    def log_tail(self) -> str:
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                return log.read()[-2000:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, bounded wait, then SIGKILL the process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TERM_DEADLINE_S)
            except subprocess.TimeoutExpired:
                self.events.append(f"deadline fired: server SIGTERM wait {TERM_DEADLINE_S}s")
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=KILL_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.events.append("deadline fired: server did not die after SIGKILL")
        end = time.monotonic() + KILL_DEADLINE_S
        while _group_alive(self.proc.pid):
            if time.monotonic() >= end:
                self.events.append("deadline fired: server process group still alive")
                break
            time.sleep(0.02)
        shutil.rmtree(self.dir, ignore_errors=True)


def _group_alive(pgid: int) -> bool:
    """Any non-zombie process left in process group ``pgid``?"""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def boot_only(deadline: float) -> float:
    """Set-up trial: boot a server until ``/healthz`` answers; stop it."""
    started = time.monotonic()
    server = ServerHandle(deadline)
    setup_s = time.monotonic() - started
    server.stop()
    return setup_s


def run_pass(member_ids: Sequence[str], seed: int, deadline: float, tracer=None) -> Dict[str, object]:
    """Run one pass of members through a fresh server.

    Returns the same shape as an in-process pass (``setup_s``,
    ``latencies``, ``records``, ``timed_s``, ``peak_rss_mb``) plus
    ``failures`` (member index -> reason), per-job service timings,
    the final ``/metrics`` and any fired teardown deadlines.
    """
    from repro.exceptions import AdmissionError
    from repro.service.client import ServiceClient, ServiceError

    started = time.monotonic()
    config = common.sweep_config(seed).to_dict()
    payloads = [
        {"member": member.to_manifest(), "config": config}
        for member in common.resolve_members(member_ids)
    ]
    server = ServerHandle(deadline)
    setup_s = time.monotonic() - started
    count = len(payloads)
    outcomes: List[Optional[Dict[str, object]]] = [None] * count
    cursor = {"next": 0}
    lock = threading.Lock()

    def _span(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    def client_loop() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= count:
                    return
                cursor["next"] += 1
            remaining = deadline - time.monotonic()
            if remaining <= 1.0:
                outcomes[index] = {"error": "deadline fired: benchmark run"}
                continue
            # Per-op bounds, clipped so no op outlives the run deadline.
            submitter = ServiceClient(server.url, timeout=min(SUBMIT_DEADLINE_S, remaining), retries=0)
            stream_wait = min(STREAM_DEADLINE_S, remaining)
            streamer = ServiceClient(server.url, timeout=stream_wait + 1.0, retries=0)
            try:
                with _span("service.job"):
                    begin = time.perf_counter()
                    with _span("service.submit"):
                        described = submitter.submit(payloads[index])
                    submitted = time.perf_counter()
                    final = None
                    with _span("service.stream"):
                        for job in streamer.stream([described["job"]], timeout=stream_wait):
                            if job.get("state") in _TERMINAL:
                                final = job
                                break
                    seen_unix = time.time()
                    finished = time.perf_counter()
            except (ServiceError, AdmissionError, OSError, ValueError) as exc:
                outcomes[index] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            if final is None or final.get("state") != "done" or final.get("record") is None:
                state = final.get("state") if final else "no terminal line"
                error = final.get("error") if final else ""
                outcomes[index] = {"error": f"job ended {state}: {error}"}
                continue
            outcomes[index] = {
                "record": final["record"],
                "latency": finished - begin,
                "submit_s": submitted - begin,
                "queue_wait_s": final["started_unix"] - final["submitted_unix"],
                "run_s": final["finished_unix"] - final["started_unix"],
                "stream_lag_s": seen_unix - final["finished_unix"],
            }

    try:
        threads = [
            threading.Thread(target=client_loop, name=f"perfbench-client-{n}", daemon=True)
            for n in range(CLIENT_THREADS)
        ]
        timed_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            # Every client op ends by the run deadline (plus a socket
            # timeout's slack).
            thread.join(max(0.0, deadline - time.monotonic()) + 5.0)
            if thread.is_alive():
                raise RuntimeError("deadline fired: client thread did not finish")
        timed_s = time.perf_counter() - timed_start
        metrics = ServiceClient(server.url, timeout=SUBMIT_DEADLINE_S, retries=0).metrics()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    done = [outcome for outcome in outcomes if outcome and "record" in outcome]
    return {
        "setup_s": setup_s,
        "latencies": [(outcome or {}).get("latency") for outcome in outcomes],
        "records": [outcome.get("record") if outcome else None for outcome in outcomes],
        "failures": {
            index: (outcome or {}).get("error", "no outcome")
            for index, outcome in enumerate(outcomes)
            if not outcome or "record" not in outcome
        },
        "timed_s": timed_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": {
            key: [outcome[key] for outcome in done]
            for key in ("submit_s", "queue_wait_s", "run_s", "stream_lag_s")
        },
        "metrics": metrics,
        "events": server.events,
        "spans": tracer.spans if tracer is not None else None,
    }
