"""Unit tests for the wire protocol layer: framing, codecs, errors.

Everything here is transport-free — pure byte and payload manipulation —
so it pins the framing contract (4-byte big-endian length + UTF-8 JSON,
size limit enforced *before* the body is read) independently of any
socket behaviour.
"""

import base64
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc
from repro.net.errors import (
    ConnectionLost,
    FrameTooLarge,
    NetError,
    ProtocolError,
    QuotaExceeded,
    RemoteError,
    ServerOverloaded,
    Unauthorized,
    error_from_payload,
)
from repro.net.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
    query_from_args,
    query_to_args,
    read_frame,
    results_from_wire,
    results_to_wire,
)


def _reader(data: bytes, chunk: int = 65536):
    """A recv-like callable over a byte string."""
    view = bytearray(data)

    def recv(n: int) -> bytes:
        take = bytes(view[: min(n, chunk)])
        del view[: len(take)]
        return take

    return recv


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "query", "args": {"k": 5}, "nested": [1, 2.5, "x"]}
        frame = encode_frame(payload)
        assert frame[:HEADER_BYTES] == struct.pack("!I", len(frame) - HEADER_BYTES)
        assert read_frame(_reader(frame)) == payload

    def test_round_trip_byte_by_byte(self):
        # recv() returning one byte at a time must reassemble correctly.
        payload = {"op": "ping", "key": "abc"}
        frame = encode_frame(payload)
        assert read_frame(_reader(frame, chunk=1)) == payload

    def test_three_frames_in_7_byte_chunks(self):
        # Back-to-back frames delivered in arbitrary chunks: each read
        # takes exactly one frame, then EOF lands on a frame boundary.
        blob = b"".join(encode_frame({"i": i}) for i in range(3))
        recv = _reader(blob, chunk=7)
        frames = [read_frame(recv) for _ in range(4)]
        assert frames == [{"i": 0}, {"i": 1}, {"i": 2}, None]

    def test_clean_eof_returns_none(self):
        assert read_frame(_reader(b"")) is None

    def test_eof_inside_header_is_connection_lost(self):
        with pytest.raises(ConnectionLost):
            read_frame(_reader(b"\x00\x00"))

    def test_eof_inside_body_is_connection_lost(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ConnectionLost):
            read_frame(_reader(frame[:-3]))

    def test_oversized_announcement_rejected_before_body(self):
        header = struct.pack("!I", MAX_FRAME_BYTES + 1)
        reads = []

        def recv(n):
            reads.append(n)
            return _reader(header)(n) if len(reads) == 1 else b""

        with pytest.raises(FrameTooLarge):
            read_frame(recv)
        # Only the header was consumed; the body was never requested.
        assert len(reads) == 1

    def test_oversized_encode_rejected(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_custom_limit(self):
        payload = {"op": "ping"}
        frame = encode_frame(payload, max_frame=4096)
        with pytest.raises(FrameTooLarge):
            read_frame(_reader(frame), max_frame=8)

    def test_garbage_json_is_protocol_error(self):
        body = b"not json at all"
        frame = struct.pack("!I", len(body)) + body
        with pytest.raises(ProtocolError):
            read_frame(_reader(frame))

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")


class TestQueryCodec:
    def test_round_trip(self):
        query = TopKQuery(0.25, 0.75, ("cafe", "sushi"), 7,
                          semantics=Semantics.AND)
        assert query_from_args(query_to_args(query)) == query

    def test_or_default(self):
        query = TopKQuery(0.1, 0.2, ("bar",), 3)
        assert query_from_args(query_to_args(query)).semantics is Semantics.OR

    @pytest.mark.parametrize("mutation", [
        {"k": 0}, {"k": "five"}, {"words": []}, {"words": "cafe"},
        {"x": "left"}, {"semantics": "xor"}, {"x": float("nan")},
        {"k": float("inf")}, {"k": 2.9}, {"k": True}, {"k": "7"},
        {"x": "0.5"}, {"y": True}, {"y": 10 ** 400},
        {"recency": {"half_life": "10", "origin": 0.0}},
        {"recency": {"half_life": 10.0, "origin": True}},
    ])
    def test_malformed_args_rejected(self, mutation):
        args = query_to_args(TopKQuery(0.1, 0.2, ("bar",), 3))
        args.update(mutation)
        with pytest.raises(ProtocolError):
            query_from_args(args)

    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError):
            query_from_args(None)


class TestResultsCodec:
    def test_round_trip_is_equality(self):
        results = [ScoredDoc(0.875, 3), ScoredDoc(0.1234567890123456, 9)]
        assert results_from_wire(results_to_wire(results)) == results

    def test_float_round_trip_exact_through_json(self):
        # A score survives a JSON frame bit-exactly — the property the
        # wire-equivalence acceptance test relies on.
        score = math.pi / 3
        frame = encode_frame({"r": results_to_wire([ScoredDoc(score, 1)])})
        decoded = results_from_wire(read_frame(_reader(frame))["r"])
        assert decoded[0].score == score

    def test_malformed_pairs_rejected(self):
        """No pair list is a result list, however its ids and scores are
        spelled: ``"7"``, ``2.9`` and ``true`` are not doc 7, 2 and 1."""
        for pairs in ([[1]], "nope", [[1, "x"]], [["7", 0.5]], [[2.9, 0.5]],
                      [[True, True]], [[1, float("nan")]]):
            with pytest.raises(ProtocolError):
                results_from_wire(pairs)

    def test_golden_string(self):
        """Two ids as little-endian u64, then two scores as little-endian
        f64, base64 with its padding."""
        wire = results_to_wire([ScoredDoc(0.75, 3), ScoredDoc(0.5, 258)])
        assert wire == "AwAAAAAAAAACAQAAAAAAAAAAAAAAAOg/AAAAAAAA4D8="

    @pytest.mark.parametrize("results", [
        [],
        [ScoredDoc(-0.0, 1)],
        [ScoredDoc(5e-324, 2), ScoredDoc(2.2250738585072009e-308, 3)],
        [ScoredDoc(1.0, (1 << 64) - 1), ScoredDoc(0.5, 0)],
    ], ids=["empty", "negative-zero", "subnormal", "max-u64-id"])
    def test_edge_values_round_trip_bit_exactly(self, results):
        _assert_round_trip(results)

    @pytest.mark.parametrize("wire, reason", [
        ([[1, 0.5]], "base64 string"),
        (None, "base64 string"),
        (base64.b64encode(struct.pack("<Qd", 1, 0.5)), "base64 string"),
        ("AQAAAAAAAAAAAAAAAADgP!==", "not valid base64"),
        ("AQAAAAAAAAAAAAAAAADgPé==", "not valid base64"),
        ("AQAAAAAAAAAAAAAAAADgPw=", "not valid base64"),
        ("AQAAAAAAAAAAAAAAAADgP=w=", "not valid base64"),
        (base64.b64encode(bytes(15)).decode(), "multiple of 16"),
        (base64.b64encode(bytes(17)).decode(), "multiple of 16"),
        (base64.b64encode(struct.pack("<Qd", 1, math.nan)).decode(), "finite"),
        (base64.b64encode(struct.pack("<Qd", 1, math.inf)).decode(), "finite"),
        (base64.b64encode(struct.pack("<Qd", 1, -math.inf)).decode(), "finite"),
    ], ids=["pair-list", "none", "bytes", "bad-char", "non-ascii",
            "short-padding", "split-padding", "15-bytes", "17-bytes",
            "nan", "inf", "minus-inf"])
    def test_refusals_are_protocol_errors(self, wire, reason):
        with pytest.raises(ProtocolError, match=reason):
            results_from_wire(wire)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.integers(0, (1 << 64) - 1),
        st.floats(allow_nan=False, allow_infinity=False),
    ), max_size=40))
    def test_fuzzed_round_trip(self, rows):
        _assert_round_trip([ScoredDoc(score, doc_id) for doc_id, score in rows])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.binary(max_size=100))
    def test_fuzzed_bytes_decode_or_fail_typed(self, raw):
        """Any bytes, base64-encoded, decode to ``len // 16`` results
        exactly when they are whole records with finite scores; anything
        else is a ProtocolError, never another exception."""
        n, rest = divmod(len(raw), 16)
        whole = not rest and all(
            map(math.isfinite, struct.unpack(f"<{n}d", raw[8 * n:]))
        )
        try:
            decoded = results_from_wire(base64.b64encode(raw).decode())
        except ProtocolError:
            assert not whole
        else:
            assert whole and len(decoded) == n


def _assert_round_trip(results):
    """``results`` cross a frame as 16 bytes each and come back with
    every id and every score bit intact."""
    wire = read_frame(_reader(encode_frame({"r": results_to_wire(results)})))
    assert len(base64.b64decode(wire["r"], validate=True)) == 16 * len(results)
    back = results_from_wire(wire["r"])
    assert [r.doc_id for r in back] == [r.doc_id for r in results]
    bits = lambda rs: [struct.pack("<d", r.score) for r in rs]
    assert bits(back) == bits(results)


class TestErrorPayloads:
    @pytest.mark.parametrize("error", [
        ProtocolError("bad"),
        Unauthorized("key"),
        QuotaExceeded("slow down", retry_after_ms=250),
        ServerOverloaded("busy"),
        FrameTooLarge("big"),
    ])
    def test_round_trip_preserves_type_and_contract(self, error):
        back = error_from_payload(error.payload())
        assert type(back) is type(error)
        assert back.code == error.code
        assert back.retryable == error.retryable
        assert back.retry_after_ms == error.retry_after_ms

    def test_unknown_code_degrades_to_remote_error(self):
        back = error_from_payload(
            {"code": "future_thing", "message": "??", "retryable": True}
        )
        assert isinstance(back, RemoteError)
        assert back.retryable  # honours the wire flag

    def test_retryable_flags(self):
        assert QuotaExceeded("q").retryable
        assert ServerOverloaded("o").retryable
        assert ConnectionLost("c").retryable
        assert not Unauthorized("u").retryable
        assert not ProtocolError("p").retryable
        assert isinstance(ProtocolError("p"), NetError)
