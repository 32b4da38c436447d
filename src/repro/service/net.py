"""TCP JSON-lines front end for the compilation service.

One request per line, one response per line (both UTF-8 JSON).  The wire
envelope is deliberately tiny -- stdlib asyncio streams only, no web
framework:

Request lines::

    {"op": "compile", "circuit": "ghz_4", "topology": "grid:3x3", ...}
    {"op": "calibrate", "topology": "grid:3x3", "frequency_shifts": {"0": 0.02}}
    {"op": "metrics"}
    {"op": "ping"}
    {"op": "shutdown"}

Response lines::

    {"ok": true, "result": {...}}
    {"ok": false, "error": "readable message"}

Malformed traffic (bad JSON, unknown ``op``, invalid request fields) is
answered with ``ok: false`` and a client-readable message; the connection
stays open.  A request line longer than the stream limit (64 KiB) is
answered the same way, but then that connection closes, since the framing
is lost: the server first reads and discards the rest of that line, so the
close is a clean EOF rather than a reset.  ``shutdown`` asks the server to
stop accepting and drain.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable

from repro.service.requests import RequestError
from repro.service.service import CompilationService

#: Operations the wire protocol understands.
OPS = ("compile", "calibrate", "metrics", "ping", "shutdown")

#: How long the server keeps reading an oversize line's tail before it
#: closes the connection anyway (seconds).
OVERSIZE_DISCARD_S = 5.0


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Consume input through the next newline, or up to EOF.

    Each read takes at most one stream limit's worth of buffered bytes, so
    an arbitrarily long line never sits in memory whole.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


async def serve_json_lines(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handle_line: Callable[[str], Awaitable[dict]],
    connections: set[asyncio.StreamWriter],
) -> None:
    """The JSON-lines connection loop shared by every wire endpoint.

    Reads one request per line, answers each with ``handle_line``'s
    envelope, and stops after an envelope flagged ``shutdown``.  A line over
    the reader's limit gets an ``ok: false`` answer and then the connection
    closes, since the rest of that line cannot be told from the next
    request.  Before closing, the rest of that line is read and dropped
    (for at most :data:`OVERSIZE_DISCARD_S`): closing a socket with unread
    input makes the kernel send a reset, which can destroy the answer
    before the client reads it.  ``connections`` tracks the live writers so
    the endpoint can sever them on stop.
    """
    connections.add(writer)
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # EOF; the last line may lack its newline
            except asyncio.LimitOverrunError:  # line over the reader's limit
                envelope = {
                    "ok": False,
                    "error": "request line exceeds the 64 KiB limit; "
                    "connection closed",
                }
                writer.write((json.dumps(envelope) + "\n").encode("utf-8"))
                await writer.drain()
                try:
                    await asyncio.wait_for(_discard_line(reader), OVERSIZE_DISCARD_S)
                except asyncio.TimeoutError:
                    pass  # a client still streaming: close regardless
                return
            if not line:
                return
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            response = await handle_line(text)
            writer.write((json.dumps(response) + "\n").encode("utf-8"))
            await writer.drain()
            if response.get("shutdown"):
                return
    except (ConnectionResetError, BrokenPipeError):
        return  # client went away mid-exchange; nothing to answer
    finally:
        connections.discard(writer)
        writer.close()


class ServiceServer:
    """An asyncio TCP server wrapping one :class:`CompilationService`.

    Example::

        server = ServiceServer(CompilationService(), port=0)   # ephemeral port
        await server.start()
        host, port = server.address
        ...                                # serve ServiceClient traffic
        final_metrics = await server.stop()
    """

    def __init__(
        self, service: CompilationService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._shutdown = asyncio.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) -- useful with ``port=0`` (ephemeral)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "ServiceServer":
        """Start the service (if needed) and begin accepting connections."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def serve_until_shutdown(self) -> dict:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`);
        returns the service's final metrics snapshot."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        return await self.stop()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_until_shutdown` to wind the server down."""
        self._shutdown.set()

    async def stop(self) -> dict:
        """Close the listener and stop the service; returns final metrics.

        Live connections are severed (not left answering errors against a
        stopped service): clients see a clean EOF, and a
        :class:`ServiceClient` with ``retries > 0`` fails over to wherever
        the service comes back up.  Accepted requests still drain inside
        ``service.stop()``; a response whose connection is already gone is
        safe to lose -- compiles are idempotent, so the client's resend
        lands on the same answer.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        self._shutdown.set()
        return await self.service.stop()

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_json_lines(reader, writer, self._handle_line, self._connections)

    async def _handle_line(self, text: str) -> dict:
        try:
            message = json.loads(text)
        except ValueError:
            return {"ok": False, "error": f"invalid JSON: {text[:120]!r}"}
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = message.pop("op", "compile")
        if op == "ping":
            return {"ok": True, "result": "pong"}
        if op == "metrics":
            return {"ok": True, "result": self.service.metrics_snapshot()}
        if op == "shutdown":
            self.request_shutdown()
            return {"ok": True, "result": "shutting down", "shutdown": True}
        if op == "compile":
            try:
                response = await self.service.compile(message)
            except RequestError as error:
                return {"ok": False, "error": str(error)}
            except Exception as error:  # noqa: BLE001 - wire boundary
                return {"ok": False, "error": f"internal error: {error}"}
            return {"ok": True, "result": response.to_dict()}
        if op == "calibrate":
            try:
                report = await self.service.calibrate(message)
            except RequestError as error:
                return {"ok": False, "error": str(error)}
            except Exception as error:  # noqa: BLE001 - wire boundary
                return {"ok": False, "error": f"internal error: {error}"}
            return {"ok": True, "result": report}
        return {"ok": False, "error": f"unknown op {op!r}; expected one of {list(OPS)}"}


class ServiceClient:
    """A minimal JSON-lines client for :class:`ServiceServer`.

    ``retries > 0`` makes :meth:`request` survive dropped connections: on a
    connection error it reconnects (exponential backoff starting at
    ``backoff_s``, capped at ``max_backoff_s``) and resends the envelope, up
    to ``retries`` attempts before the last error propagates.  Compile and
    calibrate ops are idempotent under the deterministic seeds, so a resend
    after a mid-request drop is safe.  The default (``retries=0``) keeps the
    historical fail-fast behaviour.

    Example::

        async with ServiceClient(host, port, retries=5) as client:
            result = await client.compile(circuit="ghz_4", topology="grid:3x3")
            print(result["results"]["criterion2"]["fidelity"])
            print(await client.metrics())
    """

    def __init__(
        self,
        host: str,
        port: int,
        retries: int = 0,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0 or max_backoff_s < 0:
            raise ValueError("backoff_s and max_backoff_s must be >= 0")
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._ever_connected = False

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self._ever_connected = True

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def request(self, message: dict) -> dict:
        """Send one envelope and return the decoded response envelope.

        With ``retries > 0``, connection drops (including a server restart
        between requests) are retried with backoff instead of propagating.
        """
        if not self._ever_connected and self._writer is None:
            raise RuntimeError("client is not connected")
        attempt = 0
        while True:
            try:
                return await self._request_once(message)
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as error:
                await self.close()
                attempt += 1
                if attempt > self.retries:
                    raise ConnectionError(
                        f"request failed after {attempt} attempt(s): {error}"
                    ) from error
                delay = min(self.max_backoff_s, self.backoff_s * (2 ** (attempt - 1)))
                if delay > 0:
                    await asyncio.sleep(delay)

    async def _request_once(self, message: dict) -> dict:
        if self._writer is None or self._reader is None:
            await self.connect()
        self._writer.write((json.dumps(message) + "\n").encode("utf-8"))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    async def compile(self, **fields) -> dict:
        """Compile via the wire; raises :class:`RequestError` on rejection."""
        envelope = await self.request({"op": "compile", **fields})
        if not envelope.get("ok"):
            raise RequestError(envelope.get("error", "unknown service error"))
        return envelope["result"]

    async def calibrate(self, **fields) -> dict:
        """Apply a calibration update via the wire; raises on rejection."""
        envelope = await self.request({"op": "calibrate", **fields})
        if not envelope.get("ok"):
            raise RequestError(envelope.get("error", "unknown service error"))
        return envelope["result"]

    async def metrics(self) -> dict:
        """Fetch the service's current metrics document."""
        envelope = await self.request({"op": "metrics"})
        return envelope["result"]

    async def shutdown(self) -> None:
        await self.request({"op": "shutdown"})
