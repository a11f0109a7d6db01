"""The synchronous client library for the network serving tier.

:class:`Client` is the supported way for another process to talk to a
:class:`~repro.net.server.NetServer`: it frames requests, attaches the
tenant API key and the **remaining** deadline budget, and retries
transient failures (connection loss, ``overloaded``, ``quota_exceeded``)
with capped exponential backoff — never retrying past the caller's
deadline, and never retrying errors the server marked permanent.

The transport is a seam: pass ``connect_factory`` to substitute the TCP
socket with anything exposing ``sendall``/``recv``/``close`` — the
deterministic simulation uses this to run the very same retry logic over
an in-memory fault-injecting pipe under virtual time (``clock`` and
``sleeper`` are injectable for the same reason).

Deadline semantics on the wire: ``deadline_ms`` carries the *remaining*
budget in milliseconds, not an absolute timestamp — peers do not share a
clock.  Each retry attempt recomputes the remainder, so a request that
spent half its budget waiting out a quota window tells the server it has
only the other half left.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.model.document import SpatialDocument, document_to_record
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc
from repro.net.errors import (
    ConnectionLost,
    DeadlineExceeded,
    NetError,
    ProtocolError,
    error_from_payload,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    outcomes_from_wire,
    queries_to_args,
    query_to_args,
    read_frame,
    results_from_wire,
)
from repro.temporal.model import TemporalDocument

__all__ = ["Client"]


class _SocketTransport:
    """The default transport: one TCP connection with a recv timeout."""

    def __init__(self, host: str, port: int, timeout: Optional[float]) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        return self._sock.recv(n)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class Client:
    """Synchronous RPC client for :class:`~repro.net.server.NetServer`.

    Args:
        host, port: Server address (ignored when ``connect_factory`` is
            given).
        key: Tenant API key; ``None`` only works against an open server.
        deadline_ms: Default per-request budget; individual calls may
            override.  ``None`` means no deadline.
        retries: Extra attempts after the first for *retryable* failures.
        backoff_s: Initial backoff; doubles per attempt up to
            ``max_backoff_s``.  A server-supplied ``retry_after_ms`` hint
            (quota windows) takes precedence when larger.
        timeout_s: Socket-level connect/recv timeout.
        max_frame: Largest response frame the client will accept.
        connect_factory: Transport seam — a thunk returning an object
            with ``sendall``/``recv``/``close``.
        clock / sleeper: Time seams for deterministic tests (default
            ``time.monotonic`` / ``time.sleep``).

    A lost connection is re-established transparently on the next
    attempt.  Standing-query state (``register``/``poll``) lives on the
    server side of one connection, so those two ops are **not** retried
    across reconnects — a retry there would silently drop registrations.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        key: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        timeout_s: Optional[float] = 10.0,
        max_frame: int = MAX_FRAME_BYTES,
        connect_factory: Optional[Callable[[], Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        sleeper: Optional[Callable[[float], None]] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.key = key
        self.deadline_ms = deadline_ms
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.max_frame = max_frame
        self._timeout_s = timeout_s
        self._connect = connect_factory or (
            lambda: _SocketTransport(self.host, self.port, timeout_s)
        )
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleeper if sleeper is not None else time.sleep
        self._transport: Optional[Any] = None
        self.attempts = 0  # lifetime attempt count (observability/tests)
        self.reconnects = 0

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _ensure_transport(self) -> Any:
        if self._transport is None:
            try:
                self._transport = self._connect()
            except OSError as exc:
                raise ConnectionLost(f"connect failed: {exc}") from None
            if self._transport is None:  # factory refused (sim drop)
                raise ConnectionLost("connect refused by transport factory")
        return self._transport

    def _drop_transport(self) -> None:
        transport, self._transport = self._transport, None
        if transport is not None:
            try:
                transport.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        self.reconnects += 1

    def close(self) -> None:
        """Close the connection.  The client may be reused afterwards."""
        transport, self._transport = self._transport, None
        if transport is not None:
            try:
                transport.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request core
    # ------------------------------------------------------------------
    def _attempt(self, payload: Dict) -> Any:
        """One framed round trip.  Raises typed errors; drops the
        transport on any wire-level failure so the next attempt dials
        fresh."""
        transport = self._ensure_transport()
        self.attempts += 1
        try:
            transport.sendall(encode_frame(payload, self.max_frame))
            response = read_frame(transport.recv, self.max_frame)
        except (ConnectionError, socket.timeout, OSError) as exc:
            self._drop_transport()
            raise ConnectionLost(f"transport failed: {exc}") from None
        except ConnectionLost:
            self._drop_transport()
            raise
        except NetError:
            # Frame-level trouble (oversize/garbage): stream alignment is
            # gone, so the connection is unusable either way.
            self._drop_transport()
            raise
        if response is None:
            self._drop_transport()
            raise ConnectionLost("server closed the connection")
        if not isinstance(response, dict) or "ok" not in response:
            self._drop_transport()
            raise ProtocolError(f"malformed response: {response!r}")
        if response["ok"]:
            return response.get("result")
        error = error_from_payload(response.get("error"))
        if error.code == "server_closed":
            # This connection will not serve again; dial fresh on retry.
            self._drop_transport()
        raise error

    def call(
        self,
        op: str,
        args: Optional[Dict] = None,
        deadline_ms: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> Any:
        """Issue ``op`` with retry/backoff/deadline handling.

        The building block under every public method; exposed so tests
        and tools can speak raw protocol through the same policy layer.
        """
        budget_ms = self.deadline_ms if deadline_ms is None else deadline_ms
        attempts_left = (self.retries if retries is None else retries) + 1
        start = self._clock()
        backoff = self.backoff_s
        while True:
            payload: Dict[str, Any] = {"op": op}
            if self.key is not None:
                payload["key"] = self.key
            if args is not None:
                payload["args"] = args
            remaining_ms: Optional[float] = None
            if budget_ms is not None:
                remaining_ms = budget_ms - (self._clock() - start) * 1000.0
                if remaining_ms <= 0:
                    raise DeadlineExceeded(
                        f"deadline ({budget_ms:g}ms) spent before {op!r} "
                        "could be attempted"
                    )
                payload["deadline_ms"] = remaining_ms
            try:
                return self._attempt(payload)
            except NetError as exc:
                attempts_left -= 1
                if not exc.retryable or attempts_left <= 0:
                    raise
                pause = backoff
                if exc.retry_after_ms is not None:
                    pause = max(pause, exc.retry_after_ms / 1000.0)
                if remaining_ms is not None:
                    # Never sleep past the deadline: leave at least a
                    # sliver of budget for the retry itself.
                    pause = min(pause, max(0.0, remaining_ms / 1000.0 - 1e-3))
                if pause > 0:
                    self._sleep(pause)
                backoff = min(backoff * 2, self.max_backoff_s)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.call("ping")["pong"])

    def health(self) -> Dict:
        return self.call("health")

    def metrics_text(self) -> str:
        """The server's Prometheus exposition, over the binary protocol."""
        return self.call("metrics")["text"]

    def search(
        self,
        query: Optional[TopKQuery] = None,
        x: Optional[float] = None,
        y: Optional[float] = None,
        words: Optional[Iterable[str]] = None,
        k: int = 10,
        semantics: str = "OR",
        deadline_ms: Optional[float] = None,
    ) -> List[ScoredDoc]:
        """Top-k search; pass a :class:`TopKQuery` or its pieces."""
        if query is None:
            if x is None or y is None or words is None:
                raise ValueError(
                    "search() needs a TopKQuery or x, y and words"
                )
            if isinstance(semantics, str):
                semantics = Semantics(semantics.lower())
            query = TopKQuery(
                float(x), float(y), tuple(words), k, semantics=semantics
            )
        wire = self.call(
            "query", query_to_args(query), deadline_ms=deadline_ms
        )
        return results_from_wire(wire)

    def search_many(
        self,
        queries: Iterable[TopKQuery],
        deadline_ms: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[Any]:
        """Answer a query batch in one round trip; results in input order.

        The server executes the batch as one admitted unit, so per-query
        work (page reads, columnar decodes under the vector engine) is
        amortized across the batch.  Per-query failures are isolated:
        with ``return_exceptions`` they come back as
        :class:`~repro.net.errors.NetError` entries in their slots;
        otherwise the first failed slot is raised — after the whole
        batch has executed, so retrying only the failed queries is
        possible either way.
        """
        batch = list(queries)
        if not batch:
            return []
        wire = self.call(
            "query_many", queries_to_args(batch), deadline_ms=deadline_ms
        )
        if not isinstance(wire, dict) or "outcomes" not in wire:
            raise ProtocolError(f"malformed query_many response: {wire!r}")
        outcomes = outcomes_from_wire(wire["outcomes"])
        if len(outcomes) != len(batch):
            raise ProtocolError(
                f"server answered {len(outcomes)} outcomes "
                f"for {len(batch)} queries"
            )
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
        return outcomes

    def insert(
        self,
        doc: Union[SpatialDocument, TemporalDocument],
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Insert a document; returns the index epoch after the write.

        A temporal backend needs a :class:`TemporalDocument` (its record
        carries ``ts``); any other backend refuses one."""
        return self.call(
            "insert", {"doc": _doc_to_wire(doc)}, deadline_ms=deadline_ms
        )["epoch"]

    def delete(
        self,
        doc: Union[SpatialDocument, TemporalDocument],
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Delete a document; returns the index epoch after the write."""
        return self.call(
            "delete", {"doc": _doc_to_wire(doc)}, deadline_ms=deadline_ms
        )["epoch"]

    def register(
        self,
        query: TopKQuery,
        alpha: float = 0.5,
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Register a standing query on this connection; returns its id.

        Connection-scoped: a reconnect drops the registration, so this
        op is deliberately not retried (``retries=0``).
        """
        result = self.call(
            "register",
            {"query": query_to_args(query), "alpha": float(alpha)},
            deadline_ms=deadline_ms,
            retries=0,
        )
        return int(result["query_id"])

    def poll(
        self, deadline_ms: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Drain pending standing-query updates for this connection.

        Each update is ``{"query_id", "lsn", "results"}`` with results
        decoded to :class:`ScoredDoc`.  Not retried (see
        :meth:`register`).
        """
        result = self.call("poll", deadline_ms=deadline_ms, retries=0)
        return [
            {
                "query_id": u["query_id"],
                "lsn": u["lsn"],
                "results": results_from_wire(u["results"]),
            }
            for u in result["updates"]
        ]


def _doc_to_wire(doc: Union[SpatialDocument, TemporalDocument]) -> Dict:
    if isinstance(doc, TemporalDocument):
        return document_to_record(doc.doc, doc.timestamp)
    return document_to_record(doc)
