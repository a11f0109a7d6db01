"""Typed failures of the network tier, mirrored on both sides of the wire.

Every error the server can return travels as a structured payload
(``{"code", "message", "retryable", "retry_after_ms"}``); the client
raises the matching exception class, so callers program against types —
exactly like the in-process :mod:`repro.service.errors` family — while
load balancers and retry policies key off the wire ``code``.

``retryable`` is the contract the client's retry loop trusts: a
retryable failure means the request was **not** (or not observably)
executed and a later attempt may succeed; a non-retryable failure means
retrying the same request is pointless (bad key, malformed frame) or
unsafe to assume helpful (internal error).
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "ERR_BAD_REQUEST",
    "ERR_DEADLINE",
    "ERR_FRAME_TOO_LARGE",
    "ERR_INTERNAL",
    "ERR_OVERLOADED",
    "ERR_QUOTA",
    "ERR_SERVER_CLOSED",
    "ERR_UNAUTHORIZED",
    "ConnectionLost",
    "DeadlineExceeded",
    "FrameTooLarge",
    "NetError",
    "ProtocolError",
    "QuotaExceeded",
    "RemoteError",
    "ServerClosed",
    "ServerOverloaded",
    "Unauthorized",
    "error_from_payload",
]

# Wire error codes — the stable vocabulary of docs/wire_protocol.md.
ERR_BAD_REQUEST = "bad_request"
ERR_UNAUTHORIZED = "unauthorized"
ERR_QUOTA = "quota_exceeded"
ERR_OVERLOADED = "overloaded"
ERR_DEADLINE = "deadline_exceeded"
ERR_FRAME_TOO_LARGE = "frame_too_large"
ERR_SERVER_CLOSED = "server_closed"
ERR_INTERNAL = "internal"


class NetError(RuntimeError):
    """Base class of every network-tier failure.

    Attributes:
        code: The wire error code (one of the ``ERR_*`` constants).
        retryable: Whether a later identical attempt may succeed.
        retry_after_ms: Server back-off hint (quota shedding), or None.
    """

    code = ERR_INTERNAL
    retryable = False

    def __init__(
        self, message: str, retry_after_ms: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms

    def payload(self) -> Dict:
        """The structured form this error takes on the wire."""
        body: Dict = {
            "code": self.code,
            "message": str(self),
            "retryable": self.retryable,
        }
        if self.retry_after_ms is not None:
            body["retry_after_ms"] = self.retry_after_ms
        return body


class ProtocolError(NetError):
    """The peer violated the framing or schema contract (malformed JSON,
    missing fields, unknown op).  Never retryable — the same bytes would
    fail the same way."""

    code = ERR_BAD_REQUEST


class FrameTooLarge(NetError):
    """A frame announced a length beyond the negotiated maximum.  The
    receiving side refuses to even read the body; the connection is no
    longer frame-aligned and must be closed.

    Attributes:
        announced: The body length the peer's header declared, when a
            frame reader raised this (``None`` for an outgoing frame or
            an error rehydrated from the wire) — what a server has to
            let drain before it can close without a reset.
    """

    code = ERR_FRAME_TOO_LARGE

    def __init__(
        self,
        message: str,
        retry_after_ms: Optional[int] = None,
        announced: Optional[int] = None,
    ) -> None:
        super().__init__(message, retry_after_ms)
        self.announced = announced


class Unauthorized(NetError):
    """The request's API key matched no configured tenant."""

    code = ERR_UNAUTHORIZED


class QuotaExceeded(NetError):
    """The tenant's token bucket is empty: the request was shed before
    touching the query service.  Retryable after ``retry_after_ms``."""

    code = ERR_QUOTA
    retryable = True


class ServerOverloaded(NetError):
    """Admission control shed the request (per-tenant pending cap or the
    service-wide gate).  Retryable with backoff; never executed."""

    code = ERR_OVERLOADED
    retryable = True


class DeadlineExceeded(NetError):
    """The request's deadline expired — client-side before/between
    attempts, or server-side while the query was queued or running."""

    code = ERR_DEADLINE


class ServerClosed(NetError):
    """The server is shutting down and accepts no new work."""

    code = ERR_SERVER_CLOSED


class RemoteError(NetError):
    """The server failed internally while executing the request."""

    code = ERR_INTERNAL


class ConnectionLost(NetError):
    """The transport died mid-conversation (reset, EOF inside a frame,
    refused connect).  Retryable: the client reconnects and re-sends —
    reads are idempotent, so at-least-once delivery is safe here."""

    code = ERR_INTERNAL
    retryable = True


_BY_CODE = {
    cls.code: cls
    for cls in (
        ProtocolError,
        FrameTooLarge,
        Unauthorized,
        QuotaExceeded,
        ServerOverloaded,
        DeadlineExceeded,
        ServerClosed,
        RemoteError,
    )
}


def error_from_payload(payload: Dict) -> NetError:
    """Rehydrate the typed exception a wire error payload describes.

    Unknown codes degrade to :class:`RemoteError` (old client, newer
    server) but honour the payload's ``retryable`` flag so forward
    compatibility never turns a shed into a hard failure.
    """
    code = payload.get("code", ERR_INTERNAL)
    message = payload.get("message", code)
    cls = _BY_CODE.get(code, RemoteError)
    error = cls(message, retry_after_ms=payload.get("retry_after_ms"))
    if cls is RemoteError and payload.get("retryable"):
        error.retryable = True  # type: ignore[misc]
    return error
