"""The RPC front end: a TCP server over the in-process serving stack.

:class:`NetServer` puts a wire in front of a
:class:`~repro.service.QueryService` (or
:class:`~repro.cluster.ClusterService`): a threaded accept loop,
one handler thread per connection, length-prefixed JSON framing with a
hard frame-size limit, per-frame read timeouts, and graceful shutdown
(stop accepting, let in-flight requests answer, then close).

The request logic itself lives in :class:`ConnectionCore`, which is
**transport-agnostic**: the real server feeds it frames read from
sockets, and the deterministic simulation (:mod:`repro.net.sim`) feeds
it the same frames, parsed by the same ``read_frame``, through an
in-memory fault-injecting transport — so the exact code the production
wire runs, framing included, is what the seeded fuzzer exercises.

Every request is authenticated against the
:class:`~repro.net.tenants.TenantDirectory` and admitted through the
tenant's quota gate before any index work happens; per-tenant traffic
is labelled in the shared metrics registry
(``net.requests{tenant="..."}``), which the server also exposes as a
Prometheus page — ``GET /metrics`` (plus ``/healthz``) answered on the
*same* port by sniffing HTTP request bytes, so one address serves both
the binary protocol and the observability plane.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.model.document import SpatialDocument, document_from_record, json_number
from repro.temporal.model import TemporalDocument, TemporalQuery
from repro.net.errors import (
    DeadlineExceeded,
    FrameTooLarge,
    NetError,
    ProtocolError,
    QuotaExceeded,
    RemoteError,
    ServerClosed,
    ServerOverloaded,
    Unauthorized,
)
from repro.net.httpserver import handle_http_connection
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    error_response,
    ok_response,
    outcomes_to_wire,
    queries_from_args,
    query_from_args,
    read_frame,
    results_to_wire,
)
from repro.net.tenants import (
    REJECT_QUOTA,
    TenantAdmissionController,
    TenantDirectory,
)
from repro.service.errors import (
    AnswerDegraded,
    QueryTimeout,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.service.metrics import MetricsRegistry

__all__ = ["Backend", "ConnectionCore", "NetServer", "NetServerConfig"]

_HTTP_METHOD_PREFIXES = (b"GET ", b"HEAD", b"POST", b"PUT ", b"DELE", b"OPTI")

# How much of a refused frame's body the server reads off before closing,
# in units of ``max_frame``: enough for any honest client's mistake to get
# its typed answer, while a header announcing 4 GiB cannot hold a
# connection thread for 4 GiB.
_REFUSED_DRAIN_FRAMES = 16

# Listen backlog: covers a burst of dials between two trips of the accept
# loop; ``max_connections`` is the front door's one concurrency setting.
_LISTEN_BACKLOG = 128


@dataclass(frozen=True)
class NetServerConfig:
    """Tuning knobs of a :class:`NetServer`.

    Attributes:
        host: Bind address.
        port: Bind port (``0`` = OS-chosen ephemeral; read it back from
            :attr:`NetServer.port`).
        max_frame: Frame-size ceiling, enforced before reading bodies.
        read_timeout: Seconds a connection may sit idle between frames
            before the server drops it (``None`` = never).
        max_connections: Concurrent connections; further accepts are
            answered with one ``overloaded`` error frame and closed.
        drain_timeout: Seconds ``close()`` waits for in-flight requests
            to answer before force-closing sockets.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_frame: int = MAX_FRAME_BYTES
    read_timeout: Optional[float] = 30.0
    max_connections: int = 128
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_frame <= 0:
            raise ValueError(f"max_frame must be positive, got {self.max_frame}")
        if self.read_timeout is not None and not self.read_timeout > 0:
            raise ValueError(
                f"read_timeout must be positive, got {self.read_timeout}"
            )
        if self.max_connections <= 0:
            raise ValueError(
                f"max_connections must be positive, got {self.max_connections}"
            )


class Backend(Protocol):
    """What the wire needs of the serving stack behind it.

    :class:`~repro.service.QueryService` and
    :class:`~repro.cluster.ClusterService` satisfy it as they are;
    :class:`NetServer` (and the simulated transport) call the target
    through these names and never ask what kind of target it is.
    """

    metrics: MetricsRegistry
    #: ``None`` when the backend cannot answer a ``TemporalQuery``.
    temporal: Any
    #: Mutation epoch, reported back to writers.
    epoch: int

    def search(self, query, timeout: Optional[float] = None) -> Any:
        """One answer: a result list, or a cluster answer (``results``,
        ``degraded``, ``failed_shards``).  ``timeout`` is the request's
        remaining deadline in seconds; the backend enforces it."""

    def search_many(
        self, queries, timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[Any]:
        """One slot per query, in order: its answer as :meth:`search`
        would return it, or (``return_exceptions=True``) the exception
        it raised — a failed slot never discards its batch-mates."""

    def insert(self, doc: SpatialDocument) -> Any:
        """A temporal backend takes a ``TemporalDocument`` instead."""

    def delete(self, doc: SpatialDocument) -> Any: ...

    def streams(self) -> Any:
        """The per-subscriber :class:`~repro.streaming.StreamingService`."""


_TEMPORAL_REFUSED = "temporal queries require a temporal-index backend"


def _outcome(slot: Any) -> Any:
    """One backend slot as the wire reports it: a result list or a
    :class:`NetError`.  A degraded cluster answer is refused — a network
    caller must never mistake a partial answer for a complete one."""
    if isinstance(slot, (list, NetError)):
        return slot
    if isinstance(slot, QueryTimeout):
        return DeadlineExceeded(str(slot))
    if isinstance(slot, BaseException):
        return RemoteError(f"{type(slot).__name__}: {slot}")
    if slot.degraded:
        return RemoteError(str(AnswerDegraded(slot.failed_shards)))
    return list(slot.results)


def _doc_from_args(args: Any) -> Tuple[SpatialDocument, Optional[float]]:
    try:
        return document_from_record(args.get("doc") if isinstance(args, dict) else None)
    except ValueError as exc:
        raise ProtocolError(f"malformed document: {exc}") from None


class ConnectionCore:
    """One connection's request dispatch, independent of its transport.

    ``handle(payload)`` runs the full request pipeline — schema
    validation, tenant authentication, quota admission, deadline check,
    execution, metrics — and returns the response payload.  It never
    raises for request-level failures (those become typed error
    responses); only transport code decides what is fatal to the
    connection.
    """

    _conn_seq = itertools.count()

    def __init__(self, server: "NetServer") -> None:
        self._server = server
        self._subscription = None
        self._sub_lock = threading.Lock()
        # Sequential, not id()-based: subscriber names must be a pure
        # function of arrival order so simulation runs stay replayable.
        self._conn_id = next(self._conn_seq)
        self._tenant_metrics: Dict[Tuple[str, str], Any] = {}

    # -- streaming state -------------------------------------------------
    def _sub(self):
        with self._sub_lock:
            if self._subscription is None:
                streams = self._server.backend.streams()
                self._subscription = streams.subscribe(
                    f"net-conn-{self._conn_id}"
                )
            return self._subscription

    def close(self) -> None:
        """Release per-connection state (standing queries)."""
        with self._sub_lock:
            sub, self._subscription = self._subscription, None
        if sub is not None:
            try:
                self._server.backend.streams().unsubscribe(sub)
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    def _tenant_metric(self, kind: str, name: str, tenant: str, help_text: str):
        """The ``kind`` metric ``name{tenant=...}``: one dict read after
        the first, not the registry's locked lookup by label."""
        metric = self._tenant_metrics.get((name, tenant))
        if metric is None:
            metric = self._tenant_metrics[(name, tenant)] = getattr(
                self._server.metrics, kind
            )(name, labels={"tenant": tenant}, help_text=help_text)
        return metric

    # -- request pipeline ------------------------------------------------
    def handle(self, payload: Dict) -> Dict:
        server = self._server
        started = server.clock()
        try:
            op = payload.get("op")
            if not isinstance(op, str):
                raise ProtocolError('request must carry a string "op"')
            if op == "ping":
                return ok_response({"pong": True, "v": PROTOCOL_VERSION})
            if op == "health":
                return ok_response(server.health())
            if op == "metrics":
                return ok_response(
                    {"text": server.metrics.render_prometheus()}
                )
            if server.closed:
                raise ServerClosed("server is shutting down")
            tenant = server.tenants.authenticate(payload.get("key"))
            if tenant is None:
                server.metrics.counter("net.unauthorized").inc()
                raise Unauthorized("unknown API key")
            return self._admitted(op, payload, tenant, started)
        except NetError as exc:
            server.metrics.counter("net.errors").inc()
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            server.metrics.counter("net.errors").inc()
            return error_response(
                RemoteError(f"{type(exc).__name__}: {exc}")
            )

    def _admitted(
        self,
        op: str,
        payload: Dict,
        tenant: TenantAdmissionController,
        started: float,
    ) -> Dict:
        server = self._server
        name = tenant.quota.name
        self._tenant_metric(
            "counter", "net.requests", name, "requests received over the wire"
        ).inc()
        reason = tenant.try_admit()
        if reason is not None:
            server.metrics.counter(
                "net.rejected",
                labels={"tenant": name, "reason": reason},
                help_text="requests shed by tenant admission",
            ).inc()
            if reason == REJECT_QUOTA:
                raise QuotaExceeded(
                    f"tenant {tenant.quota.name!r} is over its rate quota",
                    retry_after_ms=max(
                        1, math.ceil(tenant.retry_after_s() * 1000)
                    ),
                )
            raise ServerOverloaded(
                f"tenant {tenant.quota.name!r} has "
                f"{tenant.pending} requests pending (cap {tenant.limit})"
            )
        try:
            deadline_s = self._deadline_s(payload)
            result = self._dispatch(op, payload, tenant, deadline_s)
            self._tenant_metric(
                "histogram", "net.request_ms", name,
                "request latency over the wire",
            ).observe((server.clock() - started) * 1000.0)
            return ok_response(result)
        finally:
            tenant.release()

    @staticmethod
    def _deadline_s(payload: Dict) -> Optional[float]:
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            return None
        # "None" is spelled by leaving the field out.
        try:
            remaining = json_number(deadline_ms, "deadline_ms") / 1000.0
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        if remaining <= 0:
            raise DeadlineExceeded(
                "request arrived with its deadline already expired"
            )
        return remaining

    def _answerable(self, query) -> bool:
        """Silently ignoring the temporal axis would serve *wrong*
        answers; an explicit refusal is the only safe default."""
        return (
            not isinstance(query, TemporalQuery)
            or self._server.backend.temporal is not None
        )

    def _outcomes(self, queries: List[Any], deadline_s: Optional[float]) -> List[Any]:
        """Wire outcomes of a batch, in input order: a query the backend
        cannot answer is refused in its own slot; the rest reach the
        backend as one batch."""
        answerable = [self._answerable(query) for query in queries]
        slots = iter(
            self._server.backend.search_many(
                [q for q, ok in zip(queries, answerable) if ok],
                deadline_s,
                return_exceptions=True,
            )
        )
        return [
            _outcome(next(slots)) if ok else ProtocolError(_TEMPORAL_REFUSED)
            for ok in answerable
        ]

    def _dispatch(
        self,
        op: str,
        payload: Dict,
        tenant: TenantAdmissionController,
        deadline_s: Optional[float],
    ):
        server = self._server
        args = payload.get("args", {})
        try:
            if op == "query":
                query = query_from_args(args)
                if not self._answerable(query):
                    raise ProtocolError(_TEMPORAL_REFUSED)
                outcome = _outcome(server.backend.search(query, deadline_s))
                if isinstance(outcome, NetError):
                    raise outcome
                return results_to_wire(outcome)
            if op == "query_many":
                return {
                    "outcomes": outcomes_to_wire(
                        self._outcomes(queries_from_args(args), deadline_s)
                    )
                }
            if op in ("insert", "delete"):
                if not tenant.quota.allow_writes:
                    raise Unauthorized(
                        f"tenant {tenant.quota.name!r} is read-only"
                    )
                doc, ts = _doc_from_args(args)
                if ts is not None:
                    if server.backend.temporal is None:
                        raise ProtocolError(
                            "a document ts requires a temporal-index backend"
                        )
                    doc = TemporalDocument(doc, ts)
                elif op == "insert" and server.backend.temporal is not None:
                    raise ProtocolError(
                        "an insert into a temporal-index backend needs a document ts"
                    )
                if op == "insert":
                    server.backend.insert(doc)
                else:
                    server.backend.delete(doc)
                return {"epoch": server.backend.epoch}
            if op == "register":
                query = query_from_args(args.get("query"))
                if isinstance(query, TemporalQuery):
                    raise ProtocolError(
                        "standing queries must be plain top-k (results age "
                        "out via retention, not via a per-query time range)"
                    )
                try:
                    alpha = json_number(args.get("alpha", 0.5), "alpha")
                    if not 0 <= alpha <= 1:
                        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
                    # A cluster refuses any alpha but its ranker's.
                    qid = server.backend.streams().register(
                        self._sub(), query, alpha=alpha
                    )
                except ValueError as exc:
                    raise ProtocolError(str(exc)) from None
                return {"query_id": qid}
            if op == "poll":
                updates = self._sub().poll(timeout=0.0)
                return {
                    "updates": [
                        {
                            "query_id": u.query_id,
                            "lsn": u.lsn,
                            "results": results_to_wire(u.results),
                        }
                        for u in updates
                    ]
                }
            raise ProtocolError(f"unknown op {op!r}")
        except ServiceOverloaded as exc:
            raise ServerOverloaded(str(exc)) from None
        except QueryTimeout as exc:
            raise DeadlineExceeded(str(exc)) from None
        except ServiceClosed as exc:
            raise ServerClosed(str(exc)) from None
        except AnswerDegraded as exc:
            raise RemoteError(str(exc)) from None


class NetServer:
    """The threaded TCP front end.  See the module docstring.

    Args:
        target: The :class:`Backend` to serve — a ``QueryService`` or a
            ``ClusterService``.
        tenants: The tenant roster; defaults to an open (unauthenticated,
            unlimited) directory for development use.
        config: Network tuning knobs.
        metrics: Registry to label per-tenant traffic into; defaults to
            the target's own registry so one ``/metrics`` page tells the
            whole story.
        clock: Injectable time source (the simulation passes SimClock).
    """

    def __init__(
        self,
        target: Backend,
        tenants: Optional[TenantDirectory] = None,
        config: Optional[NetServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.backend = target
        self.config = config if config is not None else NetServerConfig()
        self.clock = clock if clock is not None else time.monotonic
        self.tenants = (
            tenants if tenants is not None else TenantDirectory.open(clock=clock)
        )
        self.metrics = metrics if metrics is not None else target.metrics
        self._started = self.clock()
        self._closed = False
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._in_flight: Dict[socket.socket, bool] = {}
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "NetServer":
        """Bind, listen, and start accepting.  Returns self."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        if self._closed:
            raise RuntimeError("server already closed")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(_LISTEN_BACKLOG)
        # A blocked accept() does not reliably wake when another thread
        # closes the listener; poll so shutdown is bounded.
        listener.settimeout(0.2)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self.metrics.gauge(
            "net.connections", help_text="open client connections"
        ).set(0)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"repro-net-{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def closed(self) -> bool:
        return self._closed

    def health(self) -> Dict:
        return {
            "status": "closing" if self._closed else "ok",
            "uptime_s": self.clock() - self._started,
            "connections": len(self._connections),
            "tenants": self.tenants.names,
        }

    def close(self) -> None:
        """Graceful shutdown: stop accepting, drain, then force-close.

        In-flight requests get ``drain_timeout`` seconds to finish
        answering; whatever is still open after that is closed hard.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=self.config.drain_timeout)
        # Connections with no request in flight are just blocked waiting
        # for the peer's next frame — nothing to drain, close them now.
        with self._conn_lock:
            idle = [
                s for s in self._connections if not self._in_flight.get(s)
            ]
        for sock in idle:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + self.config.drain_timeout
        with self._conn_lock:
            threads = list(self._connections.values())
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._conn_lock:
            leftovers = list(self._connections)
        for sock in leftovers:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=1.0)

    def __enter__(self) -> "NetServer":
        return self.start() if self._listener is None else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accept / connection loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            with self._conn_lock:
                crowded = len(self._connections) >= self.config.max_connections
            if crowded:
                self.metrics.counter("net.connections_refused").inc()
                try:
                    sock.sendall(
                        encode_frame(
                            error_response(
                                ServerOverloaded(
                                    "connection limit "
                                    f"({self.config.max_connections}) reached"
                                )
                            )
                        )
                    )
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            )
            with self._conn_lock:
                self._connections[sock] = thread
                self.metrics.gauge("net.connections").set(
                    len(self._connections)
                )
            thread.start()

    def _http_routes(self):
        return {
            "/metrics": lambda: (
                self.metrics.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            ),
            "/healthz": lambda: (
                json.dumps(self.health()) + "\n",
                "application/json",
            ),
        }

    def _serve_connection(self, sock: socket.socket) -> None:
        core = ConnectionCore(self)
        try:
            sock.settimeout(self.config.read_timeout)
            first = sock.recv(4)
            if not first:
                return
            if first in (p[: len(first)] for p in _HTTP_METHOD_PREFIXES) or any(
                first.startswith(p) or p.startswith(first)
                for p in _HTTP_METHOD_PREFIXES
            ):
                self.metrics.counter("net.http_requests").inc()
                handle_http_connection(
                    sock, self._http_routes(), already_read=first
                )
                return
            buffered = bytearray(first)

            def recv(n: int) -> bytes:
                if buffered:
                    take = bytes(buffered[:n])
                    del buffered[:n]
                    return take
                return sock.recv(n)

            while True:
                try:
                    payload = read_frame(recv, self.config.max_frame)
                except FrameTooLarge as exc:
                    # The stream is no longer frame-aligned: answer once,
                    # then drop the connection.
                    self.metrics.counter("net.frames_rejected").inc()
                    if self._send(sock, error_response(exc)):
                        self._drain_refused_body(sock, exc.announced or 0)
                    return
                except ProtocolError as exc:
                    # Bad JSON in a well-framed body: still aligned, so
                    # answer and keep the connection.
                    self._send(sock, error_response(exc))
                    continue
                if payload is None:
                    return  # clean EOF
                self._in_flight[sock] = True
                try:
                    response = core.handle(payload)
                    if not self._send(sock, response):
                        return
                finally:
                    self._in_flight[sock] = False
                if self._closed:
                    return
        except (ConnectionError, socket.timeout, OSError):
            pass  # peer vanished or idled out; nothing to answer
        except Exception:  # noqa: BLE001 - never kill the server
            self.metrics.counter("net.connection_crashes").inc()
        finally:
            core.close()
            try:
                sock.close()
            except OSError:
                pass
            with self._conn_lock:
                self._connections.pop(sock, None)
                self._in_flight.pop(sock, None)
                self.metrics.gauge("net.connections").set(
                    len(self._connections)
                )

    def _drain_refused_body(self, sock: socket.socket, announced: int) -> None:
        """Let the body of a refused frame arrive before the close.

        Closing a socket whose receive buffer still holds unread bytes
        makes the kernel send RST instead of FIN, and a reset can
        destroy the error frame before the peer reads it.  So: half-close
        (the peer sees EOF right after the error frame), then read off
        what the peer declared — at most ``_REFUSED_DRAIN_FRAMES`` frame
        limits of it, and for at most ``read_timeout`` seconds in all.
        """
        remaining = min(announced, _REFUSED_DRAIN_FRAMES * self.config.max_frame)
        timeout = self.config.read_timeout
        give_up = None if timeout is None else time.monotonic() + timeout
        try:
            sock.shutdown(socket.SHUT_WR)
            while remaining > 0:
                if give_up is not None:
                    left = give_up - time.monotonic()
                    if left <= 0:
                        return
                    sock.settimeout(left)
                chunk = sock.recv(min(remaining, 1 << 16))
                if not chunk:
                    return
                remaining -= len(chunk)
        except OSError:
            pass  # peer reset or idled out: nothing left to protect

    def _send(self, sock: socket.socket, payload: Dict) -> bool:
        try:
            frame = encode_frame(payload, self.config.max_frame)
        except FrameTooLarge as exc:
            # The *response* outgrew the frame limit (huge k): replace it
            # with a structured error the client can size-limit against.
            frame = encode_frame(error_response(exc), self.config.max_frame)
        try:
            sock.sendall(frame)
            return True
        except (ConnectionError, socket.timeout, OSError):
            return False
