"""The wire protocol: length-prefixed JSON frames and their schemas.

One frame is a 4-byte big-endian unsigned length ``N`` followed by ``N``
bytes of UTF-8 JSON.  Both sides enforce a maximum frame size *before*
reading the body, so a hostile or corrupt length prefix can never make a
peer allocate unbounded memory; an oversized announcement poisons the
stream (the reader cannot resynchronise) and closes the connection.

Requests and responses are plain JSON objects:

    {"v": 2, "op": "query", "key": "...", "deadline_ms": 1500,
     "args": {"x": 0.4, "y": 0.6, "words": ["cafe"], "k": 10,
              "semantics": "or"}}

    {"ok": true, "result": "<base64 of n u64 ids, then n f64 scores>"}
    {"ok": false, "error": {"code": "overloaded", "message": "...",
                            "retryable": true}}

A result list travels as one base64 string of packed little-endian
bytes (:func:`results_to_wire`): every score crosses as its exact 64
bits, so results that cross the wire compare byte-identical to
in-process answers — the property the equivalence suites assert — and
neither side formats or parses a float as text.

Everything here is transport-agnostic: the same functions frame bytes
for real sockets (:mod:`repro.net.server`, :mod:`repro.net.client`) and
for the deterministic in-memory transport (:mod:`repro.net.sim`).
"""

from __future__ import annotations

import base64
import json
import math
import struct
from typing import Callable, Dict, List, Optional

from repro.model.document import json_int, json_number
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc
from repro.net.errors import ConnectionLost, FrameTooLarge, ProtocolError
from repro.temporal.model import RecencySpec, TemporalQuery, TimeRange

__all__ = [
    "MAX_BATCH_QUERIES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
    "decode_payload",
    "error_response",
    "ok_response",
    "outcomes_from_wire",
    "outcomes_to_wire",
    "queries_from_args",
    "queries_to_args",
    "query_from_args",
    "query_to_args",
    "read_frame",
    "recv_exact",
    "results_from_wire",
    "results_to_wire",
]

PROTOCOL_VERSION = 2

# Default ceiling on one frame's JSON body.  Generous for any top-k
# response (a 400-result state probe is ~12 KB) while bounding what one
# connection can make the peer buffer.
MAX_FRAME_BYTES = 1 << 20

# Ceiling on one query_many request's batch size.  Keeps a single
# dispatch (which runs the whole batch as one admitted unit server-side)
# from monopolising the lane, independent of the frame-size bound.
MAX_BATCH_QUERIES = 256

_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def encode_frame(payload: Dict, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one payload to a length-prefixed frame.

    Raises :class:`FrameTooLarge` instead of emitting a frame the peer
    would be entitled to reject.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame:
        raise FrameTooLarge(
            f"frame body is {len(body)} bytes, limit {max_frame}"
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict:
    """Parse one frame body; the payload must be a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def recv_exact(recv: Callable[[int], bytes], n: int) -> bytes:
    """Read exactly ``n`` bytes from ``recv`` (a ``socket.recv``-shaped
    callable).  Raises :class:`ConnectionLost` if the stream ends first —
    a frame boundary is the only clean place for EOF."""
    chunks: List[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = recv(remaining)
        if not chunk:
            raise ConnectionLost(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    recv: Callable[[int], bytes], max_frame: int = MAX_FRAME_BYTES
) -> Optional[Dict]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameTooLarge` when the announced length exceeds
    ``max_frame`` (without reading the body) and :class:`ConnectionLost`
    on EOF inside a frame.
    """
    header = recv(HEADER_BYTES)
    if not header:
        return None
    header += recv_exact(recv, HEADER_BYTES - len(header))
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLarge(
            f"peer announced a {length}-byte frame, limit {max_frame}",
            announced=length,
        )
    return decode_payload(recv_exact(recv, length))


# ---------------------------------------------------------------------------
# Request/response payloads
# ---------------------------------------------------------------------------
def ok_response(result) -> Dict:
    return {"ok": True, "result": result}


def error_response(error) -> Dict:
    """The response payload for a :class:`~repro.net.errors.NetError`."""
    return {"ok": False, "error": error.payload()}


def query_to_args(query) -> Dict:
    """The wire form of a top-k query.

    A :class:`~repro.temporal.model.TemporalQuery` adds its optional
    ``time_range`` (``[start, end)`` pair) and ``recency``
    (``{"half_life", "origin"}``) fields; a plain query omits both, so
    pre-temporal peers interoperate unchanged.
    """
    base = query.base if isinstance(query, TemporalQuery) else query
    args = {
        "x": base.x,
        "y": base.y,
        "words": list(base.words),
        "k": base.k,
        "semantics": base.semantics.value,
    }
    if isinstance(query, TemporalQuery):
        if query.time_range is not None:
            args["time_range"] = [query.time_range.start, query.time_range.end]
        if query.recency is not None:
            args["recency"] = {
                "half_life": query.recency.half_life,
                "origin": query.recency.origin,
            }
    return args


def query_from_args(args: Dict):
    """Parse and validate a wire query; schema violations raise
    :class:`ProtocolError` (mapped to ``bad_request`` on the wire).

    Returns a :class:`TopKQuery`, or a :class:`TemporalQuery` when the
    args carry a ``time_range`` and/or ``recency`` field.  Numbers obey
    the record rule of :func:`~repro.model.document.json_number`.
    """
    if not isinstance(args, dict):
        raise ProtocolError("query args must be an object")
    words, semantics = args.get("words"), args.get("semantics", "or")
    span, recency = args.get("time_range"), args.get("recency")
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ProtocolError("query words must be a list of strings")
    if semantics not in ("and", "or"):
        raise ProtocolError(f"unknown semantics {semantics!r}")
    if span is not None and not (isinstance(span, list) and len(span) == 2):
        raise ProtocolError("time_range must be a [start, end] number pair")
    if recency is not None and not isinstance(recency, dict):
        raise ProtocolError("recency must be an object")
    try:
        base = TopKQuery(
            json_number(args["x"], "x"),
            json_number(args["y"], "y"),
            tuple(words),
            k=json_int(args.get("k", 10), "k"),
            semantics=Semantics.AND if semantics == "and" else Semantics.OR,
        )
        if span is not None:
            span = TimeRange(
                json_number(span[0], "time_range start"),
                json_number(span[1], "time_range end"),
            )
        if recency is not None:
            recency = RecencySpec(
                json_number(recency["half_life"], "half_life"),
                json_number(recency["origin"], "origin"),
            )
    except KeyError as exc:
        raise ProtocolError(f"malformed query args: missing {exc}") from None
    except ValueError as exc:  # a bad number, empty words, k <= 0, ...
        raise ProtocolError(str(exc)) from None
    if span is None and recency is None:
        return base
    return TemporalQuery(base, span, recency)


def queries_to_args(queries) -> Dict:
    """The wire form of a ``query_many`` batch."""
    return {"queries": [query_to_args(q) for q in queries]}


def queries_from_args(args: Dict) -> List:
    """Parse and validate a ``query_many`` batch.

    The whole request is rejected (``bad_request``) when any member is
    malformed or the batch exceeds :data:`MAX_BATCH_QUERIES` — a
    schema-level failure, unlike per-query *execution* failures which
    are isolated into their outcome slots.
    """
    if not isinstance(args, dict):
        raise ProtocolError("query_many args must be an object")
    raw = args.get("queries")
    if not isinstance(raw, list):
        raise ProtocolError("queries must be a list")
    if len(raw) > MAX_BATCH_QUERIES:
        raise ProtocolError(
            f"batch of {len(raw)} queries exceeds limit {MAX_BATCH_QUERIES}"
        )
    return [query_from_args(q) for q in raw]


def outcomes_to_wire(outcomes) -> List[Dict]:
    """Per-query batch outcomes: ``{"ok": true, "results": ...}`` or
    ``{"ok": false, "error": <payload>}`` — one slot per input query, so
    a failure never discards its batch-mates' answers."""
    wire: List[Dict] = []
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            wire.append({"ok": False, "error": outcome.payload()})
        else:
            wire.append({"ok": True, "results": results_to_wire(outcome)})
    return wire


def outcomes_from_wire(raw) -> List:
    """Decode batch outcomes; error slots become live
    :class:`~repro.net.errors.NetError` instances (not raised here —
    the client decides whether to raise or return them)."""
    from repro.net.errors import error_from_payload

    if not isinstance(raw, list):
        raise ProtocolError("batch outcomes must be a list")
    decoded: List = []
    for slot in raw:
        if not isinstance(slot, dict) or "ok" not in slot:
            raise ProtocolError(f"malformed batch outcome: {slot!r}")
        if slot["ok"]:
            decoded.append(results_from_wire(slot.get("results")))
        else:
            error = slot.get("error")
            if not isinstance(error, dict):
                raise ProtocolError(f"malformed batch error: {slot!r}")
            decoded.append(error_from_payload(error))
    return decoded


def results_to_wire(results) -> str:
    """Scored results, best first, as one ASCII base64 string: the
    ``n`` doc ids as little-endian u64, then the ``n`` scores as
    little-endian f64."""
    n = len(results)
    packed = struct.pack(
        f"<{n}Q{n}d",
        *[r.doc_id for r in results],
        *[r.score for r in results],
    )
    return base64.b64encode(packed).decode("ascii")


def results_from_wire(text) -> List[ScoredDoc]:
    """Decode :func:`results_to_wire`'s string back to :class:`ScoredDoc`.

    The scores are the sender's exact bits (``-0.0`` and subnormals
    included), so the decoded objects compare **equal** to the server's
    in-process answer — the property the wire-equivalence suite pins
    down.  Anything but a base64 string of 16-byte records with finite
    scores is a :class:`ProtocolError`.
    """
    if not isinstance(text, str):
        raise ProtocolError(
            f"results must be a base64 string, got {type(text).__name__}"
        )
    try:
        packed = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ProtocolError(f"results are not valid base64: {exc}") from None
    n, rest = divmod(len(packed), 16)
    if rest:
        raise ProtocolError(
            f"results hold {len(packed)} bytes, not a multiple of 16"
        )
    fields = struct.unpack(f"<{n}Q{n}d", packed)
    scores = fields[n:]
    if not all(map(math.isfinite, scores)):
        raise ProtocolError("result scores must be finite")
    return list(map(ScoredDoc, scores, fields[:n]))
