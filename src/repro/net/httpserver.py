"""Minimal HTTP/1.0 plumbing: the observability side-channel.

The serving tier speaks length-prefixed JSON for queries, but operators
speak HTTP: Prometheus scrapes ``GET /metrics`` and load balancers poll
``GET /healthz``.  This module provides just enough of HTTP to answer
those two requests — request-line parsing and a response writer —
for :class:`~repro.net.server.NetServer`, which answers both routes on
its main port by sniffing the first bytes of each connection.

No third-party dependency, no ``http.server`` subclassing — a scrape is
one short-lived connection, read a line, write a body, close.
"""

from __future__ import annotations

import socket
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "handle_http_connection",
    "http_response",
    "parse_request_line",
]

MAX_HEADER_BYTES = 8192

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}


def http_response(
    status: int, body: str, content_type: str = "text/plain; charset=utf-8"
) -> bytes:
    """One complete ``Connection: close`` HTTP response."""
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


def parse_request_line(data: bytes) -> Optional[Tuple[str, str]]:
    """``(method, path)`` from a raw request head, or ``None`` if the
    bytes are not an HTTP request line."""
    try:
        line = data.split(b"\r\n", 1)[0].decode("ascii")
    except UnicodeDecodeError:
        return None
    parts = line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        return None
    return parts[0], parts[1]


def handle_http_connection(
    sock: socket.socket,
    routes: Dict[str, Callable[[], Tuple[str, str]]],
    already_read: bytes = b"",
) -> None:
    """Answer one HTTP request on ``sock`` and close it.

    ``routes`` maps a path to a thunk returning ``(body, content_type)``.
    ``already_read`` carries bytes the caller consumed while sniffing
    the protocol.  Only GET (and HEAD, body-less) are implemented.
    """
    data = bytearray(already_read)
    try:
        while b"\r\n\r\n" not in data and len(data) < MAX_HEADER_BYTES:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data.extend(chunk)
        parsed = parse_request_line(bytes(data))
        if parsed is None:
            sock.sendall(http_response(400, "malformed request\n"))
            return
        method, path = parsed
        if method not in ("GET", "HEAD"):
            sock.sendall(http_response(405, "only GET is supported\n"))
            return
        route = routes.get(path.split("?", 1)[0])
        if route is None:
            known = ", ".join(sorted(routes))
            sock.sendall(http_response(404, f"unknown path; try: {known}\n"))
            return
        try:
            body, content_type = route()
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            sock.sendall(http_response(500, f"handler failed: {exc}\n"))
            return
        if method == "HEAD":
            body = ""
        sock.sendall(http_response(200, body, content_type))
    except OSError:
        pass  # peer went away mid-scrape; nothing to salvage
    finally:
        try:
            sock.close()
        except OSError:
            pass
