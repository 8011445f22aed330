"""Durable campaign service tests: crash recovery, chaos, retries, signals.

Covers PR-level durability of :mod:`repro.service`:

* a restarted :class:`~repro.service.jobs.JobEngine` replays its journal
  -- completed results and the dedupe table come back verbatim, queued
  and interrupted jobs are requeued and finish,
* torn journal tails are tolerated on boot; mid-file corruption
  quarantines and raises :exc:`~repro.exceptions.JournalCorrupt`,
* service-scope chaos events: ``torn_tail`` after an append,
  ``http_stall`` absorbed by the client's timeout + retry machinery
  (``kill_server`` runs in the subprocess acceptance test -- it SIGKILLs
  the process that arms it),
* :class:`~repro.service.client.ServiceClient` transient-fault retries,
  the capped-exponential 429 backoff, and ``run_batch`` surviving the
  server being torn down and restarted mid-batch,
* :meth:`CampaignCheckpoint.gc` housekeeping,
* subprocess signal delivery: ``SIGTERM`` drains like ``POST /shutdown``,
  and the acceptance flow -- ``kill -9`` mid-sweep, restart on the same
  journal, byte-identical ``metrics.jsonl``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.exceptions import JournalCorrupt
from repro.faults.chaos import CHAOS_ENV, GENERATION_ENV, ChaosEvent, ChaosPlan
from repro.faults.checkpoint import CampaignCheckpoint
from repro.fsm import kiss
from repro.service import CampaignServer, JobEngine, ServiceClient, ServiceError
from repro.suite import shift_register

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
CONFIG = {"record_timings": False}


def payload(bits: int = 2, **config) -> dict:
    merged = dict(CONFIG, **config)
    return {
        "kiss": kiss.dumps(shift_register(bits)),
        "name": f"sr{bits}",
        "config": merged,
    }


class _Stub:
    """Monkeypatched sweep_member: instant records, optional blocking.

    ``behave["block"]`` parks the next call on ``release`` (signalling
    ``entered``) -- the knob recovery tests use to freeze a job
    mid-flight, "crash" the engine around it, and later unstick the
    abandoned thread harmlessly.  Every call records the member name.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.behave = {"block": False}
        self.order = []

    def __call__(self, member, config, pool=None):
        self.order.append(member.name)
        if self.behave["block"]:
            self.behave["block"] = False
            self.entered.set()
            self.release.wait(60.0)
        return {
            "id": member.member_id,
            "name": member.name,
            "coverage": 0.123456789,
            "status": "ok",
        }


@pytest.fixture()
def stub(monkeypatch):
    instance = _Stub()
    monkeypatch.setattr("repro.service.jobs.sweep_member", instance)
    return instance


class TestEngineRecovery:
    def test_restart_restores_results_and_dedupe(self, tmp_path, stub):
        journal_dir = str(tmp_path / "svc")
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as first:
            job_a, _ = first.submit(payload(2))
            job_b, _ = first.submit(payload(3))
            record_a = first.wait(job_a.job_id, timeout=30.0).record
            first.wait(job_b.job_id, timeout=30.0)
        assert len(stub.order) == 2

        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as second:
            assert second.recovery["restored_done"] == 2
            assert second.recovery["requeued"] == 0
            restored = second.job(job_a.job_id)
            assert restored.state == "done"
            assert restored.record == record_a  # bit-identical round trip
            # the dedupe table survived: the same payload returns the
            # restored job without recomputing anything
            again, deduped = second.submit(payload(2))
            assert deduped and again.job_id == job_a.job_id
            assert len(stub.order) == 2
            # fresh submissions get non-colliding ids and still run
            fresh, _ = second.submit(payload(4))
            assert fresh.job_id not in (job_a.job_id, job_b.job_id)
            assert second.wait(fresh.job_id, timeout=30.0).state == "done"
            metrics = second.metrics()
            assert metrics["journal"]["recovery"]["restored_done"] == 2
            assert metrics["journal"]["appends"] >= 3

    def test_interrupted_jobs_requeue_and_finish(self, tmp_path, stub):
        journal_dir = str(tmp_path / "svc")
        stub.behave["block"] = True
        crashed = JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        )
        running, _ = crashed.submit(payload(2), priority=1)
        assert stub.entered.wait(10.0)
        queued, _ = crashed.submit(payload(3))
        # "kill -9": nothing else lands in the journal; the engine object
        # is abandoned mid-job (its parked thread is released at the end
        # and its late result-append lands in a closed journal, exactly
        # like a dead process's would have landed nowhere)
        crashed.journal.close()

        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as revived:
            assert revived.recovery["requeued"] == 2
            assert revived.recovery["restored_done"] == 0
            done_running = revived.wait(running.job_id, timeout=30.0)
            done_queued = revived.wait(queued.job_id, timeout=30.0)
            assert done_running.state == "done"
            assert done_queued.state == "done"
            # priority order survived the restart
            assert stub.order[-2:] == ["sr2", "sr3"]
        stub.release.set()

    def test_cancelled_jobs_stay_cancelled_after_restart(
        self, tmp_path, stub
    ):
        journal_dir = str(tmp_path / "svc")
        stub.behave["block"] = True
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as first:
            blocker, _ = first.submit(payload(2))
            assert stub.entered.wait(10.0)
            doomed, _ = first.submit(payload(3))
            assert first.cancel(doomed.job_id) == "cancelled"
            stub.release.set()
            first.wait(blocker.job_id, timeout=30.0)
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as second:
            assert second.recovery["restored_cancelled"] == 1
            assert second.job(doomed.job_id).state == "cancelled"
            assert "sr3" not in stub.order

    def test_torn_tail_on_boot_requeues_the_torn_job(self, tmp_path, stub):
        journal_dir = str(tmp_path / "svc")
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as first:
            job, _ = first.submit(payload(2))
            first.wait(job.job_id, timeout=30.0)
        with open(os.path.join(journal_dir, "journal.jsonl"), "ab") as handle:
            handle.write(b'{"data": {"job": "j0000')  # crash mid-append
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as second:
            assert second.recovery["torn_tail"]
            assert second.job(job.job_id).state == "done"

    def test_corrupt_journal_quarantines_and_boot_fails_loudly(
        self, tmp_path, stub
    ):
        journal_dir = str(tmp_path / "svc")
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as first:
            job, _ = first.submit(payload(2))
            first.wait(job.job_id, timeout=30.0)
        path = os.path.join(journal_dir, "journal.jsonl")
        raw = bytearray(open(path, "rb").read())
        raw[10] ^= 0xFF  # bit rot in the first record
        open(path, "wb").write(bytes(raw))
        with pytest.raises(JournalCorrupt) as excinfo:
            JobEngine(shards=1, pool_workers=0, journal_dir=journal_dir)
        assert os.path.exists(excinfo.value.quarantined)
        # the quarantine cleared the way: the next boot starts fresh
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as healed:
            assert healed.recovery["replayed_records"] == 0


    def test_journal_is_the_only_durable_state(self, tmp_path):
        journal_dir = tmp_path / "svc"
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=str(journal_dir)
        ) as engine:
            job, _ = engine.submit(payload(2))
            assert engine.wait(job.job_id, timeout=60.0).state == "done"
        assert sorted(os.listdir(journal_dir)) == ["journal.jsonl"]


class TestChaosHooks:
    def test_torn_tail_event_tears_the_result_record(self, tmp_path, stub):
        journal_dir = str(tmp_path / "svc")
        # append counter: 0=submit, 1=running, 2=result -- tear the result
        plan = ChaosPlan(
            [ChaosEvent(kind="torn_tail", target="service", on_chunk=2)]
        )
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir, chaos=plan
        ) as first:
            job, _ = first.submit(payload(2))
            assert first.wait(job.job_id, timeout=30.0).state == "done"
        with JobEngine(
            shards=1, pool_workers=0, journal_dir=journal_dir
        ) as second:
            # the torn result is gone, so recovery errs towards requeue
            assert second.recovery["torn_tail"]
            assert second.recovery["requeued"] == 1
            assert second.wait(job.job_id, timeout=30.0).state == "done"

    def test_http_stall_is_absorbed_by_client_retry(self, stub):
        plan = ChaosPlan(
            [
                ChaosEvent(
                    kind="http_stall", target="service",
                    on_chunk=0, seconds=2.0,
                )
            ]
        )
        with CampaignServer(
            port=0, shards=1, pool_workers=0, chaos=plan
        ) as srv:
            client = ServiceClient(
                srv.url, timeout=0.5, retries=3, backoff=0.01
            )
            health = client.health()  # first attempt stalls past timeout
            assert health["ok"]
            assert client.stats["retries"] >= 1


class TestClientResilience:
    def test_request_retries_then_structured_failure(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client._sleep", sleeps.append)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ServiceClient(
            f"http://127.0.0.1:{dead_port}", retries=2, backoff=0.05
        )
        with pytest.raises(ServiceError, match="after 3 attempts"):
            client.health()
        assert client.stats["retries"] == 2
        assert sleeps == [0.05, 0.1]  # capped exponential growth

    def test_call_deadline_bounds_retries_on_silent_listener(self):
        """A server that accepts but never answers costs one ``timeout``,
        not ``timeout`` per attempt plus backoff."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(16)  # the kernel completes the handshakes
            port = listener.getsockname()[1]
            client = ServiceClient(
                f"http://127.0.0.1:{port}", timeout=0.5, retries=4, backoff=0.01
            )
            start = time.monotonic()
            with pytest.raises(ServiceError, match=r"within the 0\.5s call deadline"):
                client.health()
            elapsed = time.monotonic() - start
        assert 0.4 < elapsed < 1.0
        assert client.stats["retries"] >= 1

    def test_run_batch_429_backoff_grows_exponentially(self, monkeypatch):
        from repro.exceptions import AdmissionError

        sleeps = []
        monkeypatch.setattr("repro.service.client._sleep", sleeps.append)

        class Refusing(ServiceClient):
            def submit_batch(self, jobs):
                error = AdmissionError("queue full")
                error.accepted = []
                raise error

        client = Refusing(
            "http://127.0.0.1:1", backoff=0.01, backoff_cap=0.08
        )
        with pytest.raises(ServiceError) as excinfo:
            client.run_batch([payload(2)], max_wait=0.2)
        assert excinfo.value.status == 429
        assert sleeps == sorted(sleeps)  # monotone growth
        assert max(sleeps) == 0.08  # ...up to the cap
        assert sleeps[:4] == [0.01, 0.02, 0.04, 0.08]

    def test_run_batch_survives_hard_restart_on_same_journal(
        self, tmp_path, stub
    ):
        journal_dir = str(tmp_path / "svc")
        stub.behave["block"] = True
        first = CampaignServer(
            port=0, shards=1, pool_workers=0, journal_dir=journal_dir
        ).start()
        port = first.address[1]
        # Short read timeout: the abandoned server's stream never sends
        # another byte, and the timeout is what breaks the client out of
        # it and into the reconnect path.
        client = ServiceClient(
            first.url, timeout=2.0, retries=4, backoff=0.05
        )
        outcome = {}

        def batch():
            outcome["jobs"] = client.run_batch(
                [payload(2), payload(3)], reconnect_wait=30.0
            )

        thread = threading.Thread(target=batch, daemon=True)
        thread.start()
        assert stub.entered.wait(10.0)
        # Tear the front end down mid-stream without draining -- the
        # closest an in-process test gets to kill -9 -- and make sure the
        # abandoned engine's late appends land nowhere.
        first._httpd.shutdown()
        first._httpd.server_close()
        first.engine.journal.close()

        # The stub stays blocked until the client has failed over, so the
        # abandoned engine cannot answer the stranded stream itself.
        try:
            with CampaignServer(
                port=port, shards=1, pool_workers=0, journal_dir=journal_dir
            ) as second:
                assert second.engine.recovery["requeued"] == 2
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            stub.release.set()
        finished = outcome["jobs"]
        assert [job["record"]["name"] for job in finished] == ["sr2", "sr3"]
        assert all(job["state"] == "done" for job in finished)
        assert client.stats["reconnects"] >= 1


class TestCheckpointGc:
    def test_gc_classification(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        good_key = "ab" * 32
        good = directory / f"{good_key}.ckpt"
        CampaignCheckpoint(str(good), good_key, total=1).save([1])
        stale = directory / ("cd" * 32 + ".ckpt")
        CampaignCheckpoint(str(stale), "cd" * 32, total=1).save([1])
        os.utime(stale, (time.time() - 10 * 86400, time.time() - 10 * 86400))
        orphan = directory / "whatever.ckpt.tmp.1234"
        orphan.write_text("half a snapshot")
        broken = directory / "broken.ckpt"
        broken.write_text("not json at all")
        presha = directory / "old.ckpt"
        presha.write_text(
            '{"version": 1, "key": "abc123", "total": 1, "codes": [1]}'
        )
        damaged = directory / ("ef" * 32 + ".ckpt")
        damaged.write_text(good.read_text().replace('"codes":[1]', '"codes":[0]'))
        swept = CampaignCheckpoint.gc(str(directory), max_age=86400.0)
        assert swept["kept"] == [good.name]
        assert sorted(swept["removed"]) == sorted(
            [stale.name, orphan.name, broken.name, presha.name, damaged.name]
        )
        assert good.exists() and not stale.exists()

    def test_gc_missing_directory_is_a_noop(self, tmp_path):
        swept = CampaignCheckpoint.gc(str(tmp_path / "nope"))
        assert swept == {"removed": [], "kept": []}

    def test_gc_rejects_negative_age(self, tmp_path):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="max_age"):
            CampaignCheckpoint.gc(str(tmp_path), max_age=-1.0)


def _wait_for_line(process, prefix, timeout=30.0):
    """Read child stdout until a line starting with ``prefix`` appears."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            time.sleep(0.05)
            continue
        if line.startswith(prefix):
            return line.strip()
    raise AssertionError(f"child never printed {prefix!r}")


_SERVE_SCRIPT = """
import sys
sys.path.insert(0, %(src)r)
from repro.service import CampaignServer
server = CampaignServer(
    host="127.0.0.1", port=%(port)d, shards=1, pool_workers=0,
    max_queued=8, journal_dir=%(journal)r,
)
server.install_signal_handlers()
print("URL", server.url, flush=True)
server.serve_forever()
print("DRAINED", flush=True)
"""


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestSignalDelivery:
    def test_sigterm_drains_like_post_shutdown(self, tmp_path):
        journal_dir = str(tmp_path / "svc")
        script = _SERVE_SCRIPT % {
            "src": SRC, "port": 0, "journal": journal_dir,
        }
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            url = _wait_for_line(process, "URL").split()[1]
            client = ServiceClient(url, timeout=30.0, backoff=0.05)
            accepted = client.submit(
                payload(2, cycles=64, coverage=True)
            )
            # SIGTERM mid-job: the drain must finish it, journal it, and
            # only then stop serving
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=120.0) == 0
            out = process.stdout.read()
            assert "DRAINED" in out
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10.0)
        # the drained job's terminal result reached the journal
        from repro.service.journal import JobJournal

        replay = JobJournal(
            os.path.join(journal_dir, "journal.jsonl")
        ).replay()
        kinds = [record.kind for record in replay.records]
        assert "submit" in kinds and "result" in kinds
        results = [r for r in replay.records if r.kind == "result"]
        assert results[-1].data["job"] == accepted["job"]
        assert results[-1].data["state"] == "done"


class TestKillNineAcceptance:
    def test_kill9_midsweep_restart_is_byte_identical(self, tmp_path):
        """The PR's acceptance flow: a ``kill -9``'d server restarted on
        the same journal completes ``sweep --service`` with a
        ``metrics.jsonl`` byte-identical to the in-process path."""
        from repro.suite.sweep import SweepConfig, run_sweep

        config = SweepConfig(
            families=("sequential",), limit=2, record_timings=False
        )
        local = run_sweep(config, str(tmp_path / "local"))

        journal_dir = str(tmp_path / "svc")
        port = _free_port()
        plan = ChaosPlan(
            [ChaosEvent(kind="kill_server", target="service", on_chunk=0)]
        )

        def boot(generation: int) -> subprocess.Popen:
            env = dict(os.environ)
            env[CHAOS_ENV] = plan.to_json()
            env[GENERATION_ENV] = str(generation)
            script = _SERVE_SCRIPT % {
                "src": SRC, "port": port, "journal": journal_dir,
            }
            process = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            _wait_for_line(process, "URL")
            return process

        process = boot(0)
        outcome = {}

        def remote_sweep():
            try:
                outcome["result"] = run_sweep(
                    config,
                    str(tmp_path / "remote"),
                    service=f"http://127.0.0.1:{port}",
                )
            except BaseException as error:  # surfaced by the assert below
                outcome["error"] = error

        thread = threading.Thread(target=remote_sweep, daemon=True)
        thread.start()
        try:
            # chaos SIGKILLs the server right after the first journaled
            # result -- the honest mid-sweep crash
            assert process.wait(timeout=300.0) == -signal.SIGKILL
            # supervisor restart: generation 1 runs recovery chaos-free
            process = boot(1)
            thread.join(300.0)
            assert not thread.is_alive(), "client never recovered"
            assert "error" not in outcome, outcome.get("error")

            remote = outcome["result"]
            local_bytes = (
                tmp_path / "local" / "metrics.jsonl"
            ).read_bytes()
            remote_bytes = (
                tmp_path / "remote" / "metrics.jsonl"
            ).read_bytes()
            assert remote_bytes == local_bytes
            assert remote.canonical_sha256 == local.canonical_sha256

            # recovery telemetry is on the wire: the restarted server
            # replayed the journal and restored/requeued the jobs
            metrics = ServiceClient(
                f"http://127.0.0.1:{port}", timeout=30.0
            ).metrics()
            recovery = metrics["journal"]["recovery"]
            assert recovery["replayed_records"] > 0
            assert recovery["restored_done"] + recovery["requeued"] >= 1
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10.0)
