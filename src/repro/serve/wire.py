"""JSONL wire protocol for ``repro serve``.

One request per line, one response per line, JSON both ways — trivially
scriptable from a shell (``printf ... | python -m repro serve``) and
from any language with a socket and a JSON library.

Requests::

    {"id": 1, "kind": "ping"}
    {"id": 2, "kind": "compile", "source": "double A[64]; ... kernel f(n) {...}",
     "config": "SN-SLP", "target": "skylake-like", "unroll": 0}
    {"id": 3, "kind": "compile", "ir": "module m { ... }"}
    {"id": 4, "kind": "bench", "kernel": "motiv-leaf-reorder",
     "config": "SN-SLP", "seed": 20190216}
    {"id": 5, "kind": "stats"}
    {"id": 6, "kind": "shutdown"}

Any task request may carry an optional ``"trace"`` object —
``{"trace_id": ..., "span_id": ..., "attempt": ...}``, the JSON form of
:class:`~repro.observe.context.TraceContext` — and the service then
parents its request/worker spans under the caller's span instead of
minting a fresh trace.  ``stats`` answers with
:meth:`~repro.serve.service.CompileService.describe`: queue depth,
per-worker utilization and inflight counts, cache hit rate, p50/p99
queue/turnaround latency, compiles/sec and breaker state — the document
``repro top`` renders live.

Responses (order follows *completion*, not submission — match on
``id``)::

    {"id": 2, "ok": true, "result": {...}}
    {"id": 3, "ok": false, "error": {"type": "RemoteTaskError", "message": "..."}}

``stats`` and ``shutdown`` are answered synchronously by the front-end;
everything else is submitted to the :class:`~repro.serve.service.CompileService`
and answered from a future's done-callback.  ``shutdown`` drains
in-flight work before the acknowledgement line is written.

Two servers share this logic: :func:`serve_stream` (stdin/stdout, the
default for ``repro serve``) and :class:`SocketServer` (an AF_UNIX
socket serving concurrent clients, one thread per connection, used by
the CI smoke test and :class:`ServiceClient`).

Hardening: frames larger than :data:`MAX_FRAME_BYTES` or that are not a
JSON object draw a typed error reply (``FrameTooLarge`` / ``BadRequest``)
instead of tearing down the connection loop, and each socket client gets
its own stream state so one client's garbage cannot wedge another.  The
``serve.socket.disconnect`` fault site fires here (through the service
session's injector — never the ambient one, this runs on server threads)
and models the server dropping a connection mid-request;
:class:`ServiceClient` answers it with a bounded reconnect-and-resend.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Dict, IO, List, Optional, Tuple

from ..bench.runner import DEFAULT_SEED
from ..observe.context import TraceContext
from .service import CompileService, ServiceError
from .tasks import run_to_json

#: hard per-line cap for inbound request frames; a line longer than this
#: is answered with a ``FrameTooLarge`` error and skipped, because no
#: legitimate request (even a whole-module ``compile`` source) gets close
MAX_FRAME_BYTES = 1 << 20


def _task_for_request(doc: Dict[str, object]) -> Tuple[str, object, Optional[str]]:
    """Map one request document to ``(task_kind, payload, shard_key)``."""
    kind = doc.get("kind")
    if kind == "ping":
        return "ping", None, None
    if kind == "compile":
        if "ir" in doc:
            text, language = doc["ir"], "ir"
        elif "source" in doc:
            text, language = doc["source"], "kernel"
        else:
            raise ValueError("compile request needs 'source' or 'ir'")
        payload = {
            "text": text,
            "language": language,
            "config": doc.get("config", "SN-SLP"),
            "target": doc.get("target"),
            "unroll": int(doc.get("unroll", 0)),
            "cache": bool(doc.get("cache", True)),
        }
        return "compile", payload, None
    if kind == "bench":
        kernel = doc["kernel"]
        pair = (
            kernel,
            doc.get("config", "SN-SLP"),
            doc.get("target", "skylake-like"),
            int(doc.get("seed", DEFAULT_SEED)),
            bool(doc.get("journal", False)),
        )
        return "bench-pair", (pair, True), kernel
    raise ValueError(f"unknown request kind {kind!r}")


def _result_for_wire(kind: str, future) -> object:
    """Make a resolved task's result JSON-serializable for the response
    line; a bench reply adds facts from the task's telemetry record."""
    result = future.result()
    if kind == "bench-pair":
        telemetry = future.telemetry
        return {
            "run": run_to_json(result),
            "worker_pid": telemetry.pid,
            "worker_seconds": telemetry.seconds,
            "cached": bool(telemetry.counters.get("serve.task_cache.hits")),
        }
    return result


def serve_stream(
    service: CompileService,
    in_stream: IO[str],
    out_stream: IO[str],
    banner: Optional[IO[str]] = None,
    faults: Optional[object] = None,
) -> bool:
    """Serve JSONL requests from ``in_stream`` until EOF or ``shutdown``.

    Returns True when the client asked for ``shutdown`` (socket servers
    use that to stop accepting).  Every submitted request is answered
    before this function returns — EOF triggers a drain, not a drop.

    ``faults`` is a :class:`~repro.robust.faults.FaultInjector` (or
    None); the ``serve.socket.disconnect`` site fires per accepted
    request and, when armed, abandons the stream without answering —
    the client sees the connection close mid-request.
    """
    write_lock = threading.Lock()
    # One event per accepted request, set *after* its reply line is
    # written: a future resolving only means set_result ran, not that
    # the done-callback (which does the write) has — waiting on the
    # future alone could end the stream with a reply still in flight.
    outstanding: List[threading.Event] = []

    def reply(doc: Dict[str, object]) -> None:
        line = json.dumps(doc, sort_keys=True)
        with write_lock:
            try:
                out_stream.write(line + "\n")
                out_stream.flush()
            except (BrokenPipeError, ValueError, OSError):
                pass  # client vanished mid-reply; nobody left to answer

    def on_done(request_id: object, kind: str, replied: threading.Event):
        def callback(future) -> None:
            try:
                try:
                    result = _result_for_wire(kind, future)
                except ServiceError as exc:
                    reply({
                        "id": request_id,
                        "ok": False,
                        "error": {
                            "type": type(exc).__name__, "message": str(exc)
                        },
                    })
                except Exception as exc:  # pragma: no cover - defensive
                    reply({
                        "id": request_id,
                        "ok": False,
                        "error": {
                            "type": type(exc).__name__, "message": str(exc)
                        },
                    })
                else:
                    reply({
                        "id": request_id,
                        "ok": True,
                        "result": result,
                    })
            finally:
                replied.set()

        return callback

    shutdown = False
    for line in in_stream:
        if len(line) > MAX_FRAME_BYTES:
            service.session.log.emit(
                "warn", "frame-too-large",
                f"dropped a {len(line)}-byte request frame "
                f"(limit {MAX_FRAME_BYTES})",
                bytes=len(line),
            )
            reply({
                "id": None,
                "ok": False,
                "error": {
                    "type": "FrameTooLarge",
                    "message": (
                        f"request frame is {len(line)} bytes; the limit "
                        f"is {MAX_FRAME_BYTES}"
                    ),
                },
            })
            continue
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            reply({
                "id": None,
                "ok": False,
                "error": {"type": "BadRequest", "message": f"bad JSON: {exc}"},
            })
            continue
        if not isinstance(doc, dict):
            reply({
                "id": None,
                "ok": False,
                "error": {
                    "type": "BadRequest",
                    "message": "request frame must be a JSON object",
                },
            })
            continue
        if faults is not None and getattr(faults, "armed", None):
            from ..robust.faults import FaultError

            try:
                faults.fire("serve.socket.disconnect")
            except FaultError:
                # Model a dropped connection: stop reading, answer what
                # was already accepted, and let the close surface as a
                # mid-request EOF on the client side.
                break
        request_id = doc.get("id")
        kind = doc.get("kind")
        if kind == "shutdown":
            service.drain()
            reply({"id": request_id, "ok": True, "result": {"shutdown": True}})
            shutdown = True
            break
        if kind == "stats":
            reply({"id": request_id, "ok": True, "result": service.describe()})
            continue
        try:
            task_kind, payload, shard = _task_for_request(doc)
        except (KeyError, TypeError, ValueError) as exc:
            service.session.log.emit(
                "warn", "bad-request",
                f"rejected request {request_id!r}: {exc}",
                request=str(request_id),
            )
            reply({
                "id": request_id,
                "ok": False,
                "error": {"type": "BadRequest", "message": str(exc)},
            })
            continue
        trace = TraceContext.from_doc(doc.get("trace"))
        try:
            future = service.submit(
                task_kind, payload, shard_key=shard, trace=trace
            )
        except ServiceError as exc:
            reply({
                "id": request_id,
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })
            continue
        replied = threading.Event()
        outstanding.append(replied)
        future.add_done_callback(on_done(request_id, task_kind, replied))
    # EOF (or shutdown): answer everything already accepted.
    for replied in outstanding:
        replied.wait()
    return shutdown


class SocketServer:
    """AF_UNIX JSONL server: one thread per client, until ``shutdown``.

    Each connection gets its own :func:`serve_stream` (own read loop,
    write lock and outstanding-reply set), so framing damage from one
    client — oversized lines, garbage JSON, a mid-request disconnect —
    never bleeds into another client's stream.
    """

    def __init__(self, service: CompileService, path: str) -> None:
        self.service = service
        self.path = path
        if os.path.exists(path):
            os.unlink(path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(8)
        self._sock.settimeout(0.25)
        self._shutdown = threading.Event()
        self._clients: List[threading.Thread] = []

    def serve_forever(self) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    client, _ = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._handle_client,
                    args=(client,),
                    name="serve-client",
                    daemon=True,
                )
                thread.start()
                self._clients.append(thread)
        finally:
            for thread in self._clients:
                thread.join(timeout=10.0)
            self.close()

    def _handle_client(self, client: socket.socket) -> None:
        with client:
            rfile = client.makefile("r", encoding="utf-8")
            wfile = client.makefile("w", encoding="utf-8")
            try:
                # Server threads never see the submitting thread's
                # contextvars — fault firing must go through the
                # service session's injector explicitly.
                if serve_stream(
                    self.service,
                    rfile,
                    wfile,
                    faults=self.service.session.faults,
                ):
                    self._shutdown.set()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass  # this client is gone; others keep their threads
            finally:
                for stream in (rfile, wfile):
                    try:
                        stream.close()
                    except OSError:
                        pass

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def close(self) -> None:
        try:
            self._sock.close()
        finally:
            if os.path.exists(self.path):
                try:
                    os.unlink(self.path)
                except OSError:
                    pass


class ServiceClient:
    """Blocking JSONL client for an AF_UNIX ``repro serve``.

    When the server drops the connection mid-request (EOF on a pending
    response, or a reset on send), the client reconnects up to
    ``max_reconnects`` times and *resends every unanswered request* —
    task runners are deterministic and result-cached, so a replayed
    request is safe.  Reconnects exhausted → :class:`ConnectionError`.
    """

    def __init__(
        self,
        path: str,
        timeout: Optional[float] = 60.0,
        max_reconnects: int = 1,
    ) -> None:
        self.path = path
        self.timeout = timeout
        self.max_reconnects = max(0, max_reconnects)
        self.reconnects = 0
        #: request id -> document, for every request not yet answered
        self._unanswered: Dict[object, Dict[str, object]] = {}
        self._next_id = 1
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(self.timeout)
        self._sock.connect(self.path)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")

    def _reconnect(self, cause: str) -> None:
        if self.reconnects >= self.max_reconnects:
            raise ConnectionError(
                f"server dropped the connection ({cause}) and the "
                f"reconnect budget ({self.max_reconnects}) is spent"
            )
        self.reconnects += 1
        self.close(_keep_state=True)
        self._connect()
        # Replay everything still waiting for an answer, oldest first
        # so the server sees the original submission order.
        for doc in list(self._unanswered.values()):
            self._write(doc)

    def close(self, _keep_state: bool = False) -> None:
        for stream in (self._rfile, self._wfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        try:
            self._sock.close()
        except OSError:
            pass
        if not _keep_state:
            self._unanswered.clear()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _write(self, doc: Dict[str, object]) -> None:
        self._wfile.write(json.dumps(doc) + "\n")
        self._wfile.flush()

    def _send(self, doc: Dict[str, object]) -> object:
        if "id" not in doc:
            doc = dict(doc)
            doc["id"] = self._next_id
            self._next_id += 1
        self._unanswered[doc["id"]] = doc
        try:
            self._write(doc)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            self._reconnect(f"{type(exc).__name__} on send")
        return doc["id"]

    def _read_until(self, wanted_ids) -> Dict[object, Dict[str, object]]:
        responses: Dict[object, Dict[str, object]] = {}
        remaining = set(wanted_ids)
        while remaining:
            try:
                line = self._rfile.readline()
            except (ConnectionResetError, BrokenPipeError) as exc:
                self._reconnect(f"{type(exc).__name__} on read")
                continue
            if not line:
                self._reconnect("EOF with responses pending")
                continue
            response = json.loads(line)
            request_id = response.get("id")
            responses[request_id] = response
            self._unanswered.pop(request_id, None)
            remaining.discard(request_id)
        return responses

    def request(self, doc: Dict[str, object]) -> Dict[str, object]:
        """One request, blocking until its response arrives."""
        request_id = self._send(doc)
        return self._read_until([request_id])[request_id]

    def batch(self, docs) -> List[Dict[str, object]]:
        """Send every request, then collect responses in request order."""
        ids = [self._send(doc) for doc in docs]
        responses = self._read_until(ids)
        return [responses[request_id] for request_id in ids]
