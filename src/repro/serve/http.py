"""The asyncio HTTP/1.1 + WebSocket front of the gathering service.

Stdlib only: a hand-rolled HTTP/1.1 request loop (keep-alive, JSON bodies)
plus the RFC 6455 upgrade of :mod:`repro.serve.websocket` — no framework, so
the service runs wherever the package does.  Every request is wrapped in a ``serve.request`` span carrying
the request id (client-supplied ``X-Request-Id`` or generated) into the
JSONL trace sink, counts into ``serve.requests_total`` and the
``serve.request.seconds`` latency histogram, and echoes the id back in the
``X-Request-Id`` response header — the correlation handle the README
documents.

Shutdown is graceful: SIGTERM (or :meth:`GatheringServer.stop`) stops
accepting, lets in-flight requests finish inside a drain timeout, then
removes every private table store it published via the service — the
``/dev/shm`` leak check in the test suite runs against exactly this path.

Scale-out: ``serve_forever(workers=N)`` publishes the tables once and forks
``N - 1`` worker processes that map the published table stores and bind the
same port with ``SO_REUSEPORT``; the kernel load-balances accepted connections
across the sibling processes.
"""
from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import urllib.parse
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from ..obs import get_logger
from ..obs import metrics as _obs
from ..obs import span, telemetry_payload, render_prometheus
from . import websocket as ws
from .protocol import ProtocolError, parse_census, parse_sweep, parse_verify
from .service import GatheringService

_LOG = get_logger("serve.http")

__all__ = ["GatheringServer", "ServerThread", "serve_forever"]

#: Fine-grained request-latency buckets: the table kernel answers in
#: microseconds, so the default seconds buckets would collapse every
#: observation into the first slot.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
)

MAX_BODY_BYTES = 8 << 20
MAX_HEADER_LINES = 100

_REASONS = {
    101: "Switching Protocols",
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    request_id: str = ""

    def json(self) -> Any:
        if not self.body:
            # GET endpoints accept their parameters as query strings.
            payload: Dict[str, Any] = {}
            for key, value in self.query.items():
                if value.lstrip("-").isdigit():
                    payload[key] = int(value)
                else:
                    payload[key] = value
            return payload
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")


def _dump(payload: Any) -> bytes:
    # sort_keys keeps responses deterministic: byte-identical answers for
    # identical requests, which the concurrency property test asserts.
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line or not line.strip():
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ProtocolError("malformed request line")
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError("too many header lines")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise ProtocolError("invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError("request body too large", status=413)
        if length:
            body = await reader.readexactly(length)
    parsed = urllib.parse.urlsplit(target)
    query = dict(urllib.parse.parse_qsl(parsed.query))
    return Request(
        method=method.upper(),
        path=parsed.path,
        query=query,
        headers=headers,
        body=body,
    )


class GatheringServer:
    """One process's listening socket over a :class:`GatheringService`."""

    def __init__(
        self,
        service: GatheringService,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
        drain_timeout: float = 10.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self.drain_timeout = drain_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task]" = set()
        self._closing = False

    # -------------------------------------------------------------- lifecycle
    async def start(self, attach_handles: Sequence[Any] = ()) -> int:
        """Load tables and bind; returns the actual port (after port 0)."""
        self.service.startup(attach_handles=attach_handles)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self.port))
        self.port = sock.getsockname()[1]
        self._server = await asyncio.start_server(self._on_connection, sock=sock)
        _LOG.info("listening on %s:%d", self.host, self.port)
        return self.port

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, unpublish."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = {task for task in self._connections if not task.done()}
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.drain_timeout
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)
            _obs.counter("serve.drained_connections").inc(len(done))
            if still_pending:
                _obs.counter("serve.aborted_connections").inc(len(still_pending))
        self.service.shutdown()

    # ------------------------------------------------------------ connections
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._connection_loop(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _obs.gauge("serve.open_connections").inc()
        try:
            while not self._closing:
                try:
                    request = await _read_request(reader)
                except ProtocolError as exc:
                    await self._respond_json(
                        writer, exc.status, exc.payload(), request_id="-", close=True
                    )
                    return
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                if request is None:
                    return
                request.request_id = self._request_id(request)
                if request.headers.get("upgrade", "").lower() == "websocket":
                    await self._handle_websocket(request, reader, writer)
                    return
                keep_alive = await self._handle_http(request, writer)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            _obs.gauge("serve.open_connections").dec()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _request_id(request: Request) -> str:
        supplied = request.headers.get("x-request-id", "")
        if supplied and len(supplied) <= 64 and supplied.replace("-", "").isalnum():
            return supplied
        return uuid.uuid4().hex[:12]

    # ------------------------------------------------------------------ HTTP
    async def _handle_http(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        endpoint = self._endpoint_name(request.path)
        _obs.counter("serve.requests_total").inc()
        _obs.counter(f"serve.requests.{endpoint}").inc()
        _obs.gauge("serve.inflight_requests").inc()
        status = 500
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            with span(
                "serve.request",
                endpoint=endpoint,
                method=request.method,
                request_id=request.request_id,
            ):
                status, payload, content_type = await self._dispatch(request)
        except ProtocolError as exc:
            status = exc.status
            payload, content_type = exc.payload(request.request_id), "application/json"
            _obs.counter("serve.errors_total").inc()
        except asyncio.CancelledError:
            raise
        except Exception:
            _LOG.exception("request %s %s failed", request.method, request.path)
            status = 500
            payload = {
                "error": {"status": 500, "message": "internal server error"},
                "request_id": request.request_id,
            }
            content_type = "application/json"
            _obs.counter("serve.errors_total").inc()
        finally:
            _obs.gauge("serve.inflight_requests").dec()
            _obs.histogram("serve.request.seconds", LATENCY_BUCKETS).observe(
                loop.time() - started
            )
        close = self._closing or request.headers.get("connection", "").lower() == "close"
        await self._respond(
            writer,
            status,
            payload if isinstance(payload, bytes) else _dump(payload),
            content_type,
            request_id=request.request_id,
            close=close,
        )
        return not close

    def _endpoint_name(self, path: str) -> str:
        mapping = {
            "/healthz": "healthz",
            "/v1/telemetry": "telemetry",
            "/v1/verify": "verify",
            "/v1/sweep": "sweep",
            "/v1/census": "census",
            "/v1/witness": "witness",
            "/v1/stream": "stream",
        }
        return mapping.get(path, "unknown")

    async def _dispatch(self, request: Request) -> Tuple[int, Any, str]:
        path, method = request.path, request.method
        if path == "/healthz":
            if method != "GET":
                raise ProtocolError("use GET", status=405)
            return 200, self._healthz_payload(request.request_id), "application/json"
        if path == "/v1/telemetry":
            if method != "GET":
                raise ProtocolError("use GET", status=405)
            if request.query.get("format") == "prometheus":
                return 200, render_prometheus().encode("utf-8"), "text/plain; version=0.0.4"
            return 200, telemetry_payload(), "application/json"
        if path == "/v1/verify":
            if method != "POST":
                raise ProtocolError("use POST", status=405)
            parsed = parse_verify(request.json())
            payload = await self.service.handle_verify(parsed, request.request_id)
            return 200, payload, "application/json"
        if path == "/v1/sweep":
            if method != "POST":
                raise ProtocolError("use POST", status=405)
            parsed_sweep = parse_sweep(request.json())
            payload = await self.service.handle_sweep(parsed_sweep, request.request_id)
            return 200, payload, "application/json"
        if path == "/v1/census":
            if method not in ("GET", "POST"):
                raise ProtocolError("use GET or POST", status=405)
            parsed_census = parse_census(request.json())
            payload = self.service.handle_census(parsed_census, request.request_id)
            return 200, payload, "application/json"
        if path == "/v1/witness":
            if method != "POST":
                raise ProtocolError("use POST", status=405)
            parsed = parse_verify(request.json())
            payload = self.service.handle_witness(parsed, request.request_id)
            return 200, payload, "application/json"
        if path == "/v1/stream":
            raise ProtocolError(
                "/v1/stream is a WebSocket endpoint; send an Upgrade handshake",
                status=400,
            )
        raise ProtocolError(f"no such endpoint: {path}", status=404)

    def _healthz_payload(self, request_id: str) -> Dict[str, Any]:
        from ..obs import package_version, run_id

        return {
            "status": "ok",
            "request_id": request_id,
            "version": package_version(),
            "run_id": run_id(),
            "algorithms": list(self.service.algorithm_names),
            "sizes": list(self.service.sizes),
            "endpoints": [
                "/healthz", "/v1/telemetry", "/v1/verify", "/v1/sweep",
                "/v1/census", "/v1/witness", "/v1/stream",
            ],
        }

    # ------------------------------------------------------------- responses
    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        request_id: str,
        close: bool = False,
    ) -> None:
        await self._respond(
            writer, status, _dump(payload), "application/json",
            request_id=request_id, close=close,
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        request_id: str,
        close: bool,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Request-Id: {request_id}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------- websocket
    async def _handle_websocket(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if request.path != "/v1/stream":
            await self._respond_json(
                writer, 404,
                {"error": {"status": 404, "message": "no such WebSocket endpoint"}},
                request_id=request.request_id, close=True,
            )
            return
        key = request.headers.get("sec-websocket-key")
        if not key:
            await self._respond_json(
                writer, 400,
                {"error": {"status": 400, "message": "missing Sec-WebSocket-Key"}},
                request_id=request.request_id, close=True,
            )
            return
        _obs.counter("serve.requests_total").inc()
        _obs.counter("serve.requests.stream").inc()
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {ws.accept_key(key)}\r\n"
                f"X-Request-Id: {request.request_id}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            with span(
                "serve.request", endpoint="stream", method="WS",
                request_id=request.request_id,
            ):
                await self._stream_session(request, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            _obs.histogram("serve.request.seconds", LATENCY_BUCKETS).observe(
                loop.time() - started
            )

    async def _stream_session(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        frame = await ws.read_frame(reader)
        while frame is not None and frame[0] == ws.OP_PING:
            writer.write(ws.encode_frame(ws.OP_PONG, frame[1]))
            await writer.drain()
            frame = await ws.read_frame(reader)
        if frame is None or frame[0] != ws.OP_TEXT:
            writer.write(ws.encode_frame(ws.OP_CLOSE, b""))
            await writer.drain()
            return
        try:
            parsed = parse_verify(json.loads(frame[1].decode("utf-8")))
            messages = self.service.stream_messages(parsed, request.request_id)
        except (ValueError, ProtocolError) as exc:
            error = (
                exc.payload(request.request_id)
                if isinstance(exc, ProtocolError)
                else {"error": {"status": 400, "message": str(exc)}}
            )
            error["type"] = "error"
            writer.write(ws.encode_frame(ws.OP_TEXT, _dump(error).rstrip(b"\n")))
            writer.write(ws.encode_frame(ws.OP_CLOSE, b""))
            await writer.drain()
            _obs.counter("serve.errors_total").inc()
            return
        for message in messages:
            writer.write(ws.encode_frame(ws.OP_TEXT, _dump(message).rstrip(b"\n")))
        writer.write(ws.encode_frame(ws.OP_CLOSE, b""))
        await writer.drain()
        # Give the peer a chance to mirror the close frame (best effort).
        try:
            await asyncio.wait_for(ws.read_frame(reader), timeout=1.0)
        except (asyncio.TimeoutError, ConnectionError, ValueError):
            pass


# ---------------------------------------------------------------------------
# Process entry points: the CLI loop, spawned workers, the test-thread host.
# ---------------------------------------------------------------------------

def _worker_entry(
    handles: Sequence[Any],
    algorithms: Sequence[str],
    sizes: Sequence[int],
    host: str,
    port: int,
    batch_window: float,
) -> None:
    """Main of one spawned serving worker: attach the tables, share the port."""
    service = GatheringService(
        algorithms=algorithms, sizes=sizes, batch_window=batch_window
    )
    server = GatheringServer(service, host=host, port=port, reuse_port=True)

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await server.start(attach_handles=handles)
        await stop.wait()
        await server.stop()

    asyncio.run(_run())


async def serve_forever(
    service: GatheringService,
    host: str = "127.0.0.1",
    port: int = 8123,
    workers: int = 1,
    ready: Optional[Any] = None,
) -> int:
    """The CLI serving loop: run until SIGTERM/SIGINT, then drain and unpublish.

    With ``workers > 1`` the parent publishes the tables as table stores,
    spawns ``workers - 1`` sibling processes that attach them and bind the
    same port via ``SO_REUSEPORT``, and keeps serving itself.  On shutdown
    the parent signals the children, waits for their drains, and only then
    removes its private stores (children merely map).

    ``ready`` is an optional callable invoked with the bound port once the
    socket is listening (the CLI prints the ready line through it).
    """
    if workers > 1 and port == 0:
        raise ValueError("workers > 1 requires an explicit --port (SO_REUSEPORT)")
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    server = GatheringServer(
        service, host=host, port=port, reuse_port=workers > 1
    )
    bound = await server.start()
    children = []
    if workers > 1:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        for _ in range(workers - 1):
            child = context.Process(
                target=_worker_entry,
                args=(
                    list(service.published_handles),
                    list(service.algorithm_names),
                    list(service.sizes),
                    host,
                    bound,
                    service.batch_window,
                ),
                daemon=False,
            )
            child.start()
            children.append(child)
    if ready is not None:
        ready(bound)
    try:
        await stop.wait()
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()  # SIGTERM: the child drains and exits
        for child in children:
            child.join(timeout=15)
        await server.stop()
    return 0


@dataclass
class ServerThread:
    """A live server on a daemon thread: the tests' and benchmarks' harness.

    ``with ServerThread(service) as base_url:`` starts the event loop on a
    background thread, waits until the socket listens, and tears the server
    down (drain + unpublish) on exit.  The served port is picked by the
    kernel (port 0) unless given.
    """

    service: GatheringService
    host: str = "127.0.0.1"
    port: int = 0
    server: Optional[GatheringServer] = None
    _loop: Optional[asyncio.AbstractEventLoop] = field(default=None, repr=False)
    _thread: Optional[threading.Thread] = field(default=None, repr=False)
    _startup_error: Optional[BaseException] = field(default=None, repr=False)

    def __enter__(self) -> str:
        started = threading.Event()
        self._loop = asyncio.new_event_loop()
        self.server = GatheringServer(self.service, host=self.host, port=self.port)

        def _run() -> None:
            assert self._loop is not None and self.server is not None
            asyncio.set_event_loop(self._loop)
            try:
                self.port = self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # surface startup failures to the caller
                self._startup_error = exc
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=_run, daemon=True, name="repro-serve")
        self._thread.start()
        started.wait(timeout=120)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self.base_url

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._loop is None or self._thread is None or self.server is None:
            return
        if self._startup_error is None:
            future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
            future.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
