"""The campaign service HTTP front-end (stdlib ``http.server`` only).

A thin, dependency-free REST surface over :class:`~repro.service.jobs.JobEngine`:

======  =====================  ==================================================
Method  Path                   Meaning
======  =====================  ==================================================
GET     ``/healthz``           liveness: ``{"ok": true, "draining": ...}``
GET     ``/metrics``           engine counters + per-shard pool/campaign telemetry
POST    ``/jobs``              submit one job (``{...}``) or a batch (``[{...}]``);
                               429 + ``Retry-After`` when admission control refuses
GET     ``/jobs``              list jobs (records omitted)
GET     ``/jobs/<id>``         one job, including its metrics record when finished
DELETE  ``/jobs/<id>``         cancel a queued job (running jobs are not preempted)
GET     ``/stream?jobs=a,b``   NDJSON: each job's full description as it finishes,
                               in completion order (chunked transfer encoding)
POST    ``/shutdown``          graceful drain: stop admitting, finish queued work,
                               then stop serving
======  =====================  ==================================================

The server is a ``ThreadingHTTPServer`` speaking HTTP/1.1, so streams and
polls proceed concurrently while the engine's shard threads run the
campaigns.  All request/response bodies are JSON; errors come back as
``{"error": ...}`` with a meaningful status code (400 malformed payload,
404 unknown job/route, 429 admission control, 503 draining).

With ``journal_dir=`` the engine journals every job (see
:mod:`repro.service.journal`); ``/metrics`` then carries a ``journal``
block (appends, fsyncs, bytes, and the boot's ``recovery`` telemetry:
replayed records, restored results, requeued jobs, torn tail).
:meth:`CampaignServer.install_signal_handlers` gives ``SIGTERM``/
``SIGINT`` the same graceful-drain semantics as ``POST /shutdown``.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import AdmissionError, PoolClosed, ReproError
from .jobs import JobEngine

__all__ = ["CampaignServer", "serve"]

_MAX_BODY = 16 << 20  # refuse request bodies past 16 MiB


class _Handler(BaseHTTPRequestHandler):
    """One request; the engine is shared via the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-campaign/1"

    # -- plumbing ------------------------------------------------------------

    @property
    def engine(self) -> JobEngine:
        return self.server.engine  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _chaos_hook(self) -> None:
        """Service-scope chaos: stall this response if the plan says so."""
        self.engine.chaos_state.before_http_response()

    def _send_json(self, status: int, payload, headers=()) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > _MAX_BODY:
            raise ReproError(f"request body of {length} bytes refused")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ReproError("request needs a JSON body")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ReproError(f"malformed JSON body: {exc}") from exc

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._chaos_hook()
        parts = urlsplit(self.path)
        route = parts.path.rstrip("/") or "/"
        try:
            if route == "/healthz":
                metrics = self.engine.metrics()
                self._send_json(
                    200,
                    {
                        "ok": True,
                        "draining": metrics["service"]["draining"],
                        "shards": metrics["service"]["shards"],
                    },
                )
            elif route == "/metrics":
                self._send_json(200, self.engine.metrics())
            elif route == "/jobs":
                self._send_json(
                    200,
                    {
                        "jobs": [
                            job.describe(full=False)
                            for job in self.engine.jobs()
                        ]
                    },
                )
            elif route.startswith("/jobs/"):
                job = self.engine.job(route[len("/jobs/") :])
                self._send_json(200, job.describe())
            elif route == "/stream":
                self._stream(parse_qs(parts.query))
            else:
                self._send_json(404, {"error": f"no route {route!r}"})
        except ReproError as exc:
            self._send_json(404, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802
        self._chaos_hook()
        route = urlsplit(self.path).path.rstrip("/")
        if route == "/jobs":
            self._submit()
        elif route == "/shutdown":
            self.engine.drain()
            self._send_json(200, {"ok": True, "draining": True})
            # Stop accepting connections once in-flight work drains; the
            # shutdown must come from another thread (serve_forever would
            # deadlock waiting on the request that called it).
            threading.Thread(
                target=self.server.close_service,  # type: ignore[attr-defined]
                name="repro-serve-shutdown",
                daemon=True,
            ).start()
        else:
            self._send_json(404, {"error": f"no route {route!r}"})

    def do_DELETE(self) -> None:  # noqa: N802
        self._chaos_hook()
        route = urlsplit(self.path).path.rstrip("/")
        if not route.startswith("/jobs/"):
            self._send_json(404, {"error": f"no route {route!r}"})
            return
        try:
            state = self.engine.cancel(route[len("/jobs/") :])
        except ReproError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        self._send_json(200, {"job": route[len("/jobs/") :], "state": state})

    # -- handlers ------------------------------------------------------------

    def _submit(self) -> None:
        try:
            payload = self._read_json()
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        batch = isinstance(payload, list)
        entries = payload if batch else [payload]
        accepted = []
        try:
            for entry in entries:
                if not isinstance(entry, dict):
                    raise ReproError("each job must be a JSON object")
                job, deduped = self.engine.submit(
                    entry, priority=int(entry.get("priority", 0))
                )
                described = job.describe(full=False)
                described["deduped"] = deduped
                accepted.append(described)
        except AdmissionError as exc:
            # Partial batches report what was admitted so the client can
            # resubmit only the remainder after backing off.
            self._send_json(
                429,
                {"error": str(exc), "accepted": accepted},
                headers=(("Retry-After", "1"),),
            )
            return
        except PoolClosed as exc:
            self._send_json(503, {"error": str(exc), "accepted": accepted})
            return
        except ReproError as exc:
            self._send_json(400, {"error": str(exc), "accepted": accepted})
            return
        self._send_json(202, accepted if batch else accepted[0])

    def _stream(self, query: Dict[str, list]) -> None:
        raw = ",".join(query.get("jobs", []))
        job_ids = [item for item in raw.split(",") if item]
        if not job_ids:
            self._send_json(400, {"error": "stream wants ?jobs=id1,id2,..."})
            return
        timeout_values = query.get("timeout", [])
        timeout = float(timeout_values[0]) if timeout_values else None
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data)
            self.wfile.write(b"\r\n")
            self.wfile.flush()

        try:
            for job in self.engine.as_completed(job_ids, timeout=timeout):
                line = json.dumps(job.describe(), sort_keys=True) + "\n"
                chunk(line.encode("utf-8"))
        except ReproError as exc:
            # Mid-stream failure: emit an error line so the client sees a
            # structured reason instead of a truncated body.
            line = json.dumps({"error": str(exc)}, sort_keys=True) + "\n"
            chunk(line.encode("utf-8"))
        chunk(b"")  # terminating chunk


class CampaignServer:
    """A running campaign service: HTTP front-end + job engine.

    Owns both halves' lifecycles: constructing one boots the engine and
    binds the socket; :meth:`serve_forever` blocks (the CLI path), while
    :meth:`start`/:meth:`close` run it on a background thread (tests,
    embedding).  Usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 1,
        pool_workers: int = 2,
        max_queued: int = 64,
        pool_kwargs: Optional[Dict[str, object]] = None,
        verbose: bool = False,
        journal_dir: Optional[str] = None,
        fsync: str = "always",
        fsync_interval: float = 1.0,
        chaos=None,
    ) -> None:
        self.engine = JobEngine(
            shards=shards,
            pool_workers=pool_workers,
            max_queued=max_queued,
            pool_kwargs=pool_kwargs,
            journal_dir=journal_dir,
            fsync=fsync,
            fsync_interval=fsync_interval,
            chaos=chaos,
        )
        try:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError:
            self.engine.close(drain=False)
            raise
        self._httpd.engine = self.engine  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.close_service = self.close  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._close_lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "CampaignServer":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until ``/shutdown`` or interrupt."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def install_signal_handlers(self) -> None:
        """Route ``SIGTERM``/``SIGINT`` through the graceful-drain path.

        A supervised ``repro serve`` gets the exact ``POST /shutdown``
        semantics on termination signals: both run :meth:`close` (stop
        admitting, let queued and running jobs finish -- their results
        reach the journal -- then stop serving and close the listener).
        The drain runs on a daemon thread because ``httpd.shutdown()``
        deadlocks when called from ``serve_forever``'s own thread -- and
        signal handlers run on the main thread, which is exactly that
        thread in the CLI path.  Idempotent under signal storms: only the
        first signal starts a drain.
        """
        started = threading.Event()

        def _handler(_signum, _frame) -> None:
            if started.is_set():
                return
            started.set()
            threading.Thread(
                target=self.close,
                name="repro-serve-signal-drain",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def close(self) -> None:
        """The one teardown (``POST /shutdown``, signals, ``with`` exit):
        drain the engine, stop the HTTP loop, close the listener.
        Idempotent; a concurrent second caller waits for the first."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self.engine.close(drain=True)
            self._httpd.shutdown()
            self._httpd.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._thread = None

    def __enter__(self) -> "CampaignServer":
        return self.start() if self._thread is None else self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8337,
    shards: int = 1,
    pool_workers: int = 2,
    max_queued: int = 64,
    verbose: bool = True,
    journal_dir: Optional[str] = None,
    fsync: str = "always",
) -> CampaignServer:
    """Build a :class:`CampaignServer` with CLI-friendly defaults."""
    return CampaignServer(
        host=host,
        port=port,
        shards=shards,
        pool_workers=pool_workers,
        max_queued=max_queued,
        verbose=verbose,
        journal_dir=journal_dir,
        fsync=fsync,
    )
