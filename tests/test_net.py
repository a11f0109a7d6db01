"""Integration tests for the network serving tier over real TCP.

The load-bearing property is **wire equivalence**: a query answered
through the server must be byte-identical to the same query answered by
the in-process service — same documents, same scores to the last bit of
the float.  Everything else (auth, quotas, deadlines, retries, the
in-band HTTP routes, graceful shutdown) defends the operational
contract of ``docs/wire_protocol.md``.
"""

import json
import math
import random
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HashPartitioner,
    ReplicaFault,
    ShardChannel,
    SpatialGridPartitioner,
)
from repro.core.index import I3Index
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.net import (
    Client,
    DeadlineExceeded,
    FrameTooLarge,
    NetServer,
    NetServerConfig,
    ProtocolError,
    QuotaExceeded,
    RemoteError,
    TenantDirectory,
    Unauthorized,
)
from repro.net.errors import ConnectionLost, NetError
from repro.net.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    query_to_args,
    read_frame,
    results_to_wire,
)
from repro.net.sim import SimNetServer, sim_client
from repro.service.service import QueryService, ServiceConfig
from repro.simtest import SimClock
from repro.spatial.geometry import UNIT_SQUARE
from repro.temporal import (
    NaiveTemporalIndex,
    RecencySpec,
    TemporalConfig,
    TemporalDocument,
    TemporalIndex,
    TemporalQuery,
    TimeRange,
)

from tests.helpers import (
    DEFAULT_VOCAB,
    make_documents,
    stub_index,
    temporal_cluster,
    wait_for,
)

TENANTS = {
    "tenants": [
        {"name": "acme", "api_key": "key-acme", "rate": None},
        {"name": "trial", "api_key": "key-trial", "rate": 5.0, "burst": 3},
        {"name": "readonly", "api_key": "key-ro", "rate": None,
         "allow_writes": False},
    ]
}


@pytest.fixture(autouse=True)
def _engines(reference_check):
    """The module runs twice (shared ``reference_check`` fixture): as
    served, and with every answer behind the wire checked bit for bit
    against the tuple reference."""


def _queries(count: int, seed: int = 7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        words = tuple(rng.sample(DEFAULT_VOCAB, rng.randint(1, 3)))
        out.append(TopKQuery(
            rng.random(), rng.random(), words, k=rng.choice([3, 5, 10]),
            semantics=Semantics.AND if rng.random() < 0.3 else Semantics.OR,
        ))
    return out


@pytest.fixture(scope="class")
def served():
    """One service + server shared by a test class (expensive to boot)."""
    rng = random.Random(42)
    index = I3Index(UNIT_SQUARE, page_size=256)
    index.bulk_load(make_documents(250, rng))
    service = QueryService(index, ServiceConfig(metrics_seed=0))
    server = NetServer(
        service,
        tenants=TenantDirectory.from_dict(TENANTS),
        config=NetServerConfig(port=0, read_timeout=10.0),
    ).start()
    try:
        yield service, server
    finally:
        server.close()
        service.close(drain=False)


def _client(server, key="key-acme", **kwargs):
    return Client("127.0.0.1", server.port, key=key, **kwargs)


class TestWireEquivalence:
    def test_120_queries_byte_identical(self, served):
        service, server = served
        client = _client(server)
        try:
            for query in _queries(120):
                direct = service.search(query)
                over_wire = client.search(query)
                assert over_wire == direct
                # Byte-identical, not merely equal: the serialized forms
                # match down to every score bit.
                assert json.dumps(results_to_wire(over_wire)) == \
                    json.dumps(results_to_wire(direct))
        finally:
            client.close()

    def test_search_many_matches_singles(self, served):
        """One ``query_many`` round trip equals the same queries one by
        one — down to every score bit — and slots line up with
        input order."""
        service, server = served
        queries = _queries(24, seed=11)
        with _client(server) as client:
            singles = [client.search(q) for q in queries]
            batched = client.search_many(queries)
            assert batched == singles
            assert json.dumps(
                [results_to_wire(r) for r in batched]
            ) == json.dumps([results_to_wire(r) for r in singles])
            assert client.search_many([]) == []

    def test_search_by_parts_matches_query_object(self, served):
        service, server = served
        with _client(server) as client:
            got = client.search(x=0.4, y=0.6, words=["cafe", "bar"], k=5,
                                semantics="and")
            query = TopKQuery(0.4, 0.6, ("cafe", "bar"), 5,
                              semantics=Semantics.AND)
            assert got == service.search(query)

    def test_writes_visible_to_subsequent_queries(self, served):
        service, server = served
        with _client(server) as client:
            doc = SpatialDocument(90001, 0.314, 0.159,
                                  {"cafe": 0.99, "sushi": 0.5})
            epoch = client.insert(doc)
            assert epoch == service.index.epoch
            query = TopKQuery(0.314, 0.159, ("cafe",), 3)
            assert client.search(query) == service.search(query)
            epoch_after = client.delete(doc)
            assert epoch_after > epoch

    def test_ping_health_metrics_ops(self, served):
        _service, server = served
        with _client(server) as client:
            assert client.ping() is True
            health = client.health()
            assert health["status"] == "ok"
            assert "acme" in health["tenants"]
            # ping, health and metrics are not counted requests: make one
            # that is, so the exposition has the series however the test
            # is selected.
            client.search(TopKQuery(0.5, 0.5, ("cafe",), 3))
            assert "repro_net_requests" in client.metrics_text()


class TestStreamingOverWire:
    def test_register_then_poll_sees_mutations(self, served):
        service, server = served
        with _client(server) as client:
            query = TopKQuery(0.2, 0.2, ("noodle",), 5)
            qid = client.register(query, alpha=0.5)
            # Registration delivers an initial snapshot.
            first = client.poll()
            assert [u["query_id"] for u in first] == [qid]
            doc = SpatialDocument(90100, 0.2, 0.2, {"noodle": 1.0})
            client.insert(doc)
            updates = client.poll()
            assert updates and updates[-1]["query_id"] == qid
            assert any(r.doc_id == 90100 for r in updates[-1]["results"])
            client.delete(doc)

    def test_every_answer_carries_the_query_string(self, served):
        """A ``query`` result, a ``query_many`` slot and a ``poll``
        update are one packed string, the same for the same answer."""
        service, server = served
        query = TopKQuery(0.6, 0.3, ("cafe",), 5)
        args = query_to_args(query)
        with _client(server) as client:
            packed = client.call("query", args)
            assert isinstance(packed, str)
            assert packed == results_to_wire(service.search(query))
            slot = client.call("query_many", {"queries": [args]})["outcomes"]
            assert slot == [{"ok": True, "results": packed}]
            client.register(query)
            (update,) = client.call("poll", retries=0)["updates"]
            assert update["results"] == packed


class TestClusterStreamOverWire:
    """``subscribe`` on a cluster backend: the one stream a single index
    serves, pushed over a real socket."""

    def test_pushed_results_equal_the_scatter(self):
        docs = make_documents(200, random.Random(8))
        query = TopKQuery(0.3, 0.6, ("cafe", "noodle"), k=5)
        wire = lambda results: json.dumps(results_to_wire(results))
        with ClusterService.build(
            docs, HashPartitioner(3, UNIT_SQUARE), page_size=256,
        ) as cluster, NetServer(cluster) as server, Client(
            server.host, server.port
        ) as client:
            qid = client.register(query)
            [snapshot] = client.poll()
            assert snapshot["query_id"] == qid
            assert wire(snapshot["results"]) == wire(cluster.search(query).results)
            best = SpatialDocument(9_001, 0.3, 0.6, {"cafe": 1.0, "noodle": 1.0})
            client.insert(best)
            [update] = client.poll()
            assert update["results"][0].doc_id == 9_001
            assert wire(update["results"]) == wire(cluster.search(query).results)
            with pytest.raises(ProtocolError, match="alpha 0.5"):
                client.register(query, alpha=0.25)

    def test_a_degraded_seed_is_refused_like_a_degraded_search(self):
        docs = make_documents(200, random.Random(8))
        first, poisoned = _queries(2, seed=32)
        with ClusterService.build(
            docs, HashPartitioner(3, UNIT_SQUARE), ClusterConfig(retry_rounds=0),
            channel=_PoisonedChannel(poisoned), page_size=256,
        ) as cluster, NetServer(cluster) as server, Client(
            server.host, server.port
        ) as client:
            with pytest.raises(RemoteError, match="degraded") as searched:
                client.search(poisoned)
            with pytest.raises(RemoteError) as registered:
                client.register(poisoned)
            assert str(registered.value) == str(searched.value)
            client.register(first)
            assert len(cluster.streams().registry) == 1


class TestAuthAndAdmission:
    def test_unknown_key_is_unauthorized(self, served):
        _service, server = served
        with _client(server, key="bogus") as client:
            with pytest.raises(Unauthorized):
                client.search(x=0.5, y=0.5, words=["cafe"], k=3)

    def test_missing_key_is_unauthorized(self, served):
        _service, server = served
        with _client(server, key=None) as client:
            with pytest.raises(Unauthorized):
                client.search(x=0.5, y=0.5, words=["cafe"], k=3)

    def test_ping_needs_no_key(self, served):
        _service, server = served
        with _client(server, key=None) as client:
            assert client.ping() is True

    def test_readonly_tenant_cannot_write(self, served):
        _service, server = served
        with _client(server, key="key-ro") as client:
            assert client.search(x=0.5, y=0.5, words=["cafe"], k=3) is not None
            with pytest.raises(Unauthorized):
                client.insert(SpatialDocument(90200, 0.5, 0.5, {"cafe": 1.0}))

    def test_quota_shed_is_structured_and_retryable(self, served):
        _service, server = served
        with _client(server, key="key-trial", retries=0) as client:
            shed = None
            for _ in range(12):
                try:
                    client.search(x=0.5, y=0.5, words=["cafe"], k=3)
                except QuotaExceeded as exc:
                    shed = exc
                    break
            assert shed is not None, "trial tenant was never rate-limited"
            assert shed.retryable
            assert shed.retry_after_ms is not None and shed.retry_after_ms > 0

    def test_tenant_isolation_under_saturation(self, served):
        """A rate-limited tenant being hammered must not affect another
        tenant: every acme query still succeeds and answers exactly."""
        service, server = served
        stop = threading.Event()
        trial_outcomes = {"ok": 0, "shed": 0, "other": 0}

        def hammer():
            with _client(server, key="key-trial", retries=0) as noisy:
                while not stop.is_set():
                    try:
                        noisy.search(x=0.5, y=0.5, words=["pizza"], k=3)
                        trial_outcomes["ok"] += 1
                    except QuotaExceeded:
                        trial_outcomes["shed"] += 1
                    except NetError:
                        trial_outcomes["other"] += 1

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            with _client(server, key="key-acme") as client:
                for query in _queries(40, seed=11):
                    assert client.search(query) == service.search(query)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert trial_outcomes["shed"] > 0, "saturation never tripped the quota"
        assert trial_outcomes["other"] == 0
        snapshot = {s["tenant"]: s for s in server.tenants.snapshot()}
        assert snapshot["trial"]["rejected_quota"] > 0
        assert snapshot["acme"]["rejected_quota"] == 0
        assert snapshot["acme"]["rejected_pending"] == 0


class TestProtocolEdges:
    def test_oversized_frame_rejected_and_connection_closed(self, served):
        _service, server = served
        with _client(server, max_frame=1 << 30, retries=0) as client:
            with pytest.raises(FrameTooLarge):
                client.call("query", {
                    "x": 0.5, "y": 0.5, "k": 1,
                    "words": ["x" * (2 << 20)],
                })

    def test_oversized_frame_answer_survives_the_unread_body(self, served):
        """The typed answer must outlive the body the server refuses to
        read: a close over unread bytes is a TCP reset, and a reset can
        destroy the error frame.  Fifty connections in a row each write
        the whole 2 MiB body *after* the header, then read exactly the
        ``frame_too_large`` frame and a clean EOF — never ECONNRESET."""
        _service, server = served
        body = b"x" * (2 << 20)
        for attempt in range(50):
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            )
            try:
                sock.sendall(struct.pack("!I", len(body)))
                for at in range(0, len(body), 1 << 16):
                    sock.sendall(body[at:at + (1 << 16)])
                response = read_frame(sock.recv)
                assert response["ok"] is False, attempt
                assert response["error"]["code"] == "frame_too_large"
                assert sock.recv(1) == b"", attempt  # FIN, not RST
            finally:
                sock.close()

    @pytest.mark.parametrize("read_timeout, sent", [
        (30.0, 16 * 1024),  # the byte bound: sixteen frame limits, no more
        (0.2, 0),           # the time bound: read_timeout in all
    ])
    def test_oversized_frame_drain_is_bounded(self, served, read_timeout, sent):
        """A header announcing 4 GiB does not get 4 GiB of patience: the
        server hangs up by itself while the peer keeps the socket open."""
        service, _server = served
        server = NetServer(
            service,
            tenants=TenantDirectory.from_dict(TENANTS),
            config=NetServerConfig(
                port=0, max_frame=1024, read_timeout=read_timeout
            ),
        ).start()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            )
            try:
                sock.sendall(struct.pack("!I", 0xFFFFFFFF) + b"x" * sent)
                response = read_frame(sock.recv)
                assert response["error"]["code"] == "frame_too_large"
                assert sock.recv(1) == b""  # half-closed right after it
                give_up = time.monotonic() + 5.0
                while server.health()["connections"] and time.monotonic() < give_up:
                    time.sleep(0.01)
                assert server.health()["connections"] == 0
            finally:
                sock.close()
        finally:
            server.close()

    def test_malformed_json_gets_bad_request(self, served):
        _service, server = served
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            body = b"this is not json"
            sock.sendall(struct.pack("!I", len(body)) + body)
            response = read_frame(sock.recv)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            # The stream stays frame-aligned: a valid request after the
            # bad one still answers.
            sock.sendall(encode_frame({"op": "ping"}))
            assert read_frame(sock.recv)["result"] == {
                "pong": True, "v": PROTOCOL_VERSION
            }
        finally:
            sock.close()

    def test_non_finite_document_is_bad_request(self, served):
        """``json`` writes ``math.inf`` as the bare token ``Infinity`` and
        reads it back as a float: the document must be refused before it
        reaches the index, not ranked first with score ``inf``."""
        service, server = served
        epoch = service.index.epoch
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(encode_frame({
                "op": "insert", "key": "key-acme",
                "args": {"doc": {"id": 90300, "x": 0.5, "y": 0.5,
                                 "terms": {"cafe": math.inf}}},
            }))
            response = read_frame(sock.recv)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
        finally:
            sock.close()
        assert service.index.epoch == epoch

    @pytest.mark.parametrize("doc_id", [2**64, math.inf, 3.5, True, "7"])
    def test_non_integer_document_id_is_bad_request(self, served, doc_id):
        """An id must be a JSON integer below 2**64: ``3.5`` was stored
        as doc 3 (aliasing another document), and 2**64 or ``Infinity``
        failed inside the store as ``internal``."""
        service, server = served
        epoch = service.index.epoch
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(encode_frame({
                "op": "insert", "key": "key-acme",
                "args": {"doc": {"id": doc_id, "x": 0.5, "y": 0.5,
                                 "terms": {"cafe": 1.0}}},
            }))
            response = read_frame(sock.recv)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
        finally:
            sock.close()
        assert service.index.epoch == epoch

    @pytest.mark.parametrize("field, value", [
        ("x", "0.1"), ("y", False), ("weight", "2"),
    ])
    def test_non_number_document_field_is_bad_request(self, served, field, value):
        """Coordinates and term weights are JSON numbers: ``"0.1"`` and
        ``false`` were stored as 0.1 and 0.0."""
        service, server = served
        epoch = service.index.epoch
        doc = {"id": 90400, "x": 0.5, "y": 0.5, "terms": {"cafe": 1.0}}
        if field == "weight":
            doc["terms"]["cafe"] = value
        else:
            doc[field] = value
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(encode_frame({
                "op": "insert", "key": "key-acme", "args": {"doc": doc},
            }))
            response = read_frame(sock.recv)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
        finally:
            sock.close()
        assert service.index.epoch == epoch

    @pytest.mark.parametrize("alpha", [math.nan, 2.0, -0.5, True])
    def test_alpha_outside_the_unit_interval_is_bad_request(self, served, alpha):
        """``alpha`` must be a finite number in [0, 1]: NaN and 2.0 failed
        inside ``Ranker`` as ``internal``, and ``true`` registered as 1."""
        service, server = served
        epoch = service.index.epoch
        query = query_to_args(TopKQuery(0.5, 0.5, ("cafe",), 3))
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(encode_frame({
                "op": "register", "key": "key-acme",
                "args": {"query": query, "alpha": alpha},
            }))
            response = read_frame(sock.recv)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
        finally:
            sock.close()
        assert service.index.epoch == epoch

    def test_expired_deadline_answered_without_executing(self, served):
        _service, server = served
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(encode_frame({
                "op": "query", "key": "key-acme", "deadline_ms": -5,
                "args": query_to_args(TopKQuery(0.5, 0.5, ("cafe",), 3)),
            }))
            response = read_frame(sock.recv)
            assert response["ok"] is False
            assert response["error"]["code"] == "deadline_exceeded"
        finally:
            sock.close()

    def test_boolean_deadline_is_bad_request(self, served):
        """``"deadline_ms": true`` is not a 1 ms deadline."""
        _service, server = served
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(encode_frame({
                "op": "query", "key": "key-acme", "deadline_ms": True,
                "args": query_to_args(TopKQuery(0.5, 0.5, ("cafe",), 3)),
            }))
            response = read_frame(sock.recv)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
        finally:
            sock.close()

    def test_client_refuses_to_attempt_past_deadline(self, served):
        _service, server = served
        with _client(server) as client:
            with pytest.raises(DeadlineExceeded):
                client.search(x=0.5, y=0.5, words=["cafe"], k=3,
                              deadline_ms=0)

    def test_unknown_op_is_bad_request(self, served):
        _service, server = served
        with _client(server) as client:
            with pytest.raises(ProtocolError):
                client.call("frobnicate")


class _PoisonedChannel(ShardChannel):
    """Every shard attempt for one particular query fails."""

    def __init__(self, poisoned):
        self.poisoned = poisoned

    def search(self, replica, query, timeout):
        if query == self.poisoned:
            raise ReplicaFault(replica.shard_id, replica.replica_id, "poisoned")
        return super().search(replica, query, timeout)


class TestOneRefusedSlot:
    """A slot the server must refuse never costs its batch-mates their
    answers — whichever :class:`~repro.net.server.Backend` is behind the
    wire."""

    TEMPORAL = TemporalQuery(
        TopKQuery(0.5, 0.5, ("cafe",), 3), time_range=TimeRange(0.0, 10.0)
    )

    def test_temporal_query_on_a_plain_service(self, served):
        _service, server = served
        first, last = _queries(2, seed=31)
        with _client(server) as client:
            slots = client.search_many(
                [first, self.TEMPORAL, last], return_exceptions=True
            )
            assert isinstance(slots[1], ProtocolError)
            assert [slots[0], slots[2]] == [
                client.search(first), client.search(last)
            ]
            with pytest.raises(ProtocolError, match="temporal"):
                client.search(self.TEMPORAL)

    def test_degraded_and_temporal_slots_on_a_cluster(self):
        docs = make_documents(200, random.Random(8))
        mono = I3Index(UNIT_SQUARE, page_size=256)
        mono.bulk_load(docs)
        first, poisoned, last = _queries(3, seed=32)
        with ClusterService.build(
            docs, HashPartitioner(3, UNIT_SQUARE), ClusterConfig(retry_rounds=0),
            channel=_PoisonedChannel(poisoned), page_size=256,
        ) as cluster, NetServer(cluster) as server, Client(
            server.host, server.port
        ) as client:
            slots = client.search_many(
                [first, poisoned, self.TEMPORAL, last], return_exceptions=True
            )
            assert isinstance(slots[1], RemoteError)
            assert "degraded" in str(slots[1])
            assert isinstance(slots[2], ProtocolError)
            assert [slots[0], slots[3]] == [mono.query(first), mono.query(last)]
            assert client.search(first) == slots[0]
            with pytest.raises(RemoteError, match="degraded"):
                client.search(poisoned)
            # The rest of the protocol, against a cluster: writes report
            # the cluster epoch.
            extra = SpatialDocument(9_000, 0.5, 0.5, {"cafe": 1.0})
            assert client.insert(extra) == cluster.epoch
            assert client.search(x=0.5, y=0.5, words=["cafe"], k=1)[0].doc_id == 9_000
            assert client.delete(extra) == cluster.epoch


class TestDeadlineOverTheWire:
    def test_expiry_while_waiting_is_counted_by_the_service(self):
        """A wire deadline that runs out while the connection thread
        waits on the service is the service's ``queries.timed_out``."""
        gate = threading.Event()
        try:
            with QueryService(
                stub_index(gate), ServiceConfig()
            ) as service, \
                    NetServer(service) as server, \
                    Client(server.host, server.port, retries=0) as client:
                with pytest.raises(DeadlineExceeded):
                    client.search(x=0.5, y=0.5, words=["cafe"], deadline_ms=50)
                assert service.metrics.counter("queries.timed_out").value == 1
                gate.set()
        finally:
            gate.set()

    @pytest.mark.parametrize("transport", ["socket", "sim"])
    def test_a_batch_at_a_full_gate_is_refused_within_its_budget(self, transport):
        """``query_many`` waits for its one admission slot — on its
        ``deadline_ms``, not for as long as the gate stays full: the
        frame is answered ``deadline_exceeded`` and the connection
        serves the next one."""
        gate = threading.Event()
        stub = stub_index(gate)
        gated = stub.query
        stub.query = lambda *args, **kwargs: gated(*args, **kwargs)[:0]
        query = _queries(1, seed=35)[0]
        service = QueryService(stub, ServiceConfig(max_pending=1))
        server = NetServer(service).start()
        if transport == "socket":
            client = Client(server.host, server.port, retries=0)
        else:
            client = sim_client(
                SimNetServer(service, clock=SimClock()), retries=0
            )
        try:
            with client:
                running = service.submit(query)  # fills the gate
                started = time.monotonic()
                with pytest.raises(DeadlineExceeded, match="in queue"):
                    client.search_many([query, query], deadline_ms=50)
                assert time.monotonic() - started < 2.0
                assert service.metrics.counter("queries.timed_out").value == 1
                gate.set()
                assert running.result(timeout=5) == []
                assert client.search_many([query], deadline_ms=5000) == [[]]
        finally:
            gate.set()
            server.close()
            service.close()

    @pytest.mark.parametrize("transport", ["socket", "sim"])
    def test_a_deadline_is_a_finite_number(self, served, transport):
        """``Infinity`` parses as JSON here but is no deadline: refused
        as a protocol error before any work is admitted — not answered
        with the ``OverflowError`` of a lock asked to wait forever, its
        task still running.  A finite but absurd budget is served."""
        service, server = served
        query = _queries(1, seed=33)[0]
        if transport == "socket":
            client = _client(server, retries=0)
        else:
            client = sim_client(
                SimNetServer(service, clock=SimClock()), retries=0
            )
        submitted = service.metrics.counter("queries.submitted")
        with client:
            before = submitted.value
            with pytest.raises(ProtocolError, match="deadline_ms"):
                client.search(query, deadline_ms=math.inf)
            with pytest.raises(ProtocolError, match="deadline_ms"):
                client.search_many([query], deadline_ms=math.inf)
            assert submitted.value == before
            assert client.search(query, deadline_ms=1e300) == service.search(query)
            assert client.search_many([query], deadline_ms=1e300) == [
                service.search(query)
            ]


class TestTemporalShardsOverTheWire:
    """Temporal shards behind the one scatter-gather, over a real
    socket: ``ClusterService.temporal`` is the shards' handle, so the
    wire serves a ``TemporalQuery`` instead of refusing it."""

    def test_singles_and_batches_match_the_oracle(self):
        rng = random.Random(19)
        tdocs = [
            TemporalDocument(doc, float(rng.randrange(0, 600)))
            for doc in make_documents(240, rng)
        ]
        oracle = NaiveTemporalIndex(UNIT_SQUARE, 50.0)
        for tdoc in tdocs:
            oracle.insert(tdoc)
        queries = [
            TemporalQuery(
                base,
                TimeRange(100.0, 450.0) if i % 2 else None,
                RecencySpec(80.0, 600.0) if i % 3 else None,
            )
            for i, base in enumerate(_queries(36, seed=34))
        ]
        with temporal_cluster(
            tdocs,
            SpatialGridPartitioner.from_documents(
                3, UNIT_SQUARE, tdocs, leaf_capacity=16
            ),
            TemporalConfig(slice_width=50.0, page_size=256),
            ClusterConfig(replicas=2),
        ) as cluster, NetServer(cluster) as server, Client(
            server.host, server.port
        ) as client:
            expected = [oracle.query(tq, cluster.ranker) for tq in queries]
            singles = [client.search(tq) for tq in queries]
            cluster.replica(1, 0).kill()  # batches ride the failover
            batch = client.search_many(queries + queries[:3])
            for got in (singles, batch[: len(queries)]):
                assert [json.dumps(results_to_wire(r)) for r in got] == [
                    json.dumps(results_to_wire(r)) for r in expected
                ]
            assert batch[len(queries):] == batch[:3]
            assert any(expected)
            # A plain query over temporal shards: all time, no decay.
            assert client.search(queries[0].base) == oracle.query(
                queries[0].base, cluster.ranker
            )


class TestTimestampedWritesOverTheWire:
    """A document record may carry ``ts``: a temporal backend is fed
    over the wire, and a backend refuses, epoch unchanged, the record
    it cannot store."""

    def test_inserts_and_deletes_match_the_oracle_and_reopen(self, tmp_path):
        rng = random.Random(23)
        tdocs = [
            TemporalDocument(doc, float(rng.randrange(0, 600)))
            for doc in make_documents(120, rng)
        ]
        root = str(tmp_path / "store")
        index = TemporalIndex(
            UNIT_SQUARE, TemporalConfig(slice_width=50.0, page_size=256),
            durable_root=root,
        )
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        oracle = NaiveTemporalIndex(UNIT_SQUARE, 50.0)
        queries = [
            TemporalQuery(base, recency=RecencySpec(80.0, 600.0))
            for base in _queries(12, seed=35)
        ]
        with QueryService(index, ranker=ranker) as service, NetServer(
            service
        ) as server, Client(server.host, server.port) as client:
            for tdoc in tdocs:
                client.insert(tdoc)
                oracle.insert(tdoc)
            for tdoc in tdocs[::7]:
                client.delete(tdoc)
                oracle.delete(tdoc)
            expected = [oracle.query(tq, ranker) for tq in queries]
            assert [client.search(tq) for tq in queries] == expected
            assert any(expected)
            service.checkpoint()
        live = [t for t in tdocs if oracle.get(t.doc_id) is not None]
        reopened = TemporalIndex.open(root)
        assert reopened.num_documents == len(live)
        assert all(reopened.get(t.doc_id) == t for t in live)

    def test_a_ts_to_a_plain_backend_is_bad_request(self, served):
        service, server = served
        epoch = service.index.epoch
        doc = SpatialDocument(90500, 0.5, 0.5, {"cafe": 1.0})
        with _client(server) as client:
            with pytest.raises(ProtocolError, match="ts requires a temporal"):
                client.insert(TemporalDocument(doc, 5.0))
            with pytest.raises(ProtocolError, match="ts requires a temporal"):
                client.delete(TemporalDocument(doc, 5.0))
        assert service.index.epoch == epoch

    def test_an_insert_without_ts_to_a_temporal_backend_is_bad_request(self):
        doc = SpatialDocument(7, 0.5, 0.5, {"cafe": 1.0})
        index = TemporalIndex(UNIT_SQUARE, TemporalConfig(slice_width=50.0))
        with QueryService(index) as service, NetServer(
            service
        ) as server, Client(server.host, server.port) as client:
            client.insert(TemporalDocument(doc, 5.0))
            epoch = service.epoch
            with pytest.raises(ProtocolError, match="needs a document ts"):
                client.insert(SpatialDocument(8, 0.5, 0.5, {"cafe": 1.0}))
            assert service.epoch == epoch
            # A delete names its document by id and needs no ts.
            client.delete(doc)
            assert index.get(7) is None


class TestHTTPOnMainPort:
    def test_metrics_scrape(self, served):
        _service, server = served
        with _client(server) as client:
            client.search(x=0.5, y=0.5, words=["cafe"], k=3)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics", timeout=5
        ) as response:
            assert response.status == 200
            assert "version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode()
        assert '# TYPE repro_net_requests counter' in text
        assert 'repro_net_requests{tenant="acme"}' in text

    def test_healthz(self, served):
        _service, server = served
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/healthz", timeout=5
        ) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert {"status", "uptime_s", "connections", "tenants"} <= set(payload)
        assert "acme" in payload["tenants"]

    def test_unknown_path_404(self, served):
        _service, server = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=5
            )
        assert exc_info.value.code == 404

    @staticmethod
    def _exchange(server, request: bytes):
        """Send raw request bytes; ``(status, headers, body)`` back."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(request)
            raw = bytearray()
            while chunk := sock.recv(4096):
                raw.extend(chunk)
        head, _, body = bytes(raw).partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("ascii").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        return int(status_line.split(" ")[1]), headers, body

    def test_head_metrics_has_empty_body(self, served):
        _service, server = served
        status, headers, body = self._exchange(
            server, b"HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 200
        assert headers["Content-Length"] == "0" and body == b""

    def test_post_metrics_405(self, served):
        _service, server = served
        status, _headers, _body = self._exchange(
            server, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 405

    def test_malformed_request_line_400(self, served):
        _service, server = served
        status, _headers, _body = self._exchange(server, b"GET /metrics\r\n\r\n")
        assert status == 400

    def test_query_string_is_stripped(self, served):
        _service, server = served
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics?x=1", timeout=5
        ) as response:
            assert response.status == 200
            assert "# TYPE repro_net_requests counter" in response.read().decode()


class TestRetries:
    def test_client_retries_through_flaky_transport(self, served):
        service, server = served
        real_connects = []

        class FlakyOnce:
            """First transport dies on send; later connects are real."""

            def __init__(self):
                self.failed = not real_connects

            def sendall(self, data):
                if self.failed:
                    raise ConnectionResetError("injected")
                self._sock.sendall(data)

            def recv(self, n):
                return self._sock.recv(n)

            def close(self):
                if not self.failed:
                    self._sock.close()

        def connect():
            transport = FlakyOnce()
            if not transport.failed:
                transport._sock = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5
                )
            real_connects.append(True)
            return transport

        client = Client(key="key-acme", connect_factory=connect,
                        retries=2, backoff_s=0.001)
        try:
            query = TopKQuery(0.5, 0.5, ("cafe",), 5)
            assert client.search(query) == service.search(query)
            assert client.attempts == 2
            assert client.reconnects >= 1
        finally:
            client.close()

    def test_non_retryable_error_not_retried(self, served):
        _service, server = served
        with _client(server, key="bogus", retries=3) as client:
            before = client.attempts
            with pytest.raises(Unauthorized):
                client.search(x=0.5, y=0.5, words=["cafe"], k=3)
            assert client.attempts == before + 1


class TestConnectionCap:
    def test_the_cap_refuses_with_one_frame_and_frees_on_close(
        self, served, monkeypatch
    ):
        """``max_connections`` is the front door's one concurrency
        setting.  At a cap of 2: the third dial reads exactly one
        ``overloaded`` frame and EOF, the two inside keep answering
        byte-identical to in-process, and a slot freed by a close is
        reusable."""
        service, _shared = served
        server = NetServer(
            service,
            tenants=TenantDirectory.from_dict(TENANTS),
            config=NetServerConfig(port=0, max_connections=2),
        ).start()
        gauge = server.metrics.gauge("net.connections")
        levels = []
        plain_set = type(gauge).set

        def recording_set(self, value):
            if self is gauge:
                levels.append(value)
            plain_set(self, value)

        monkeypatch.setattr(type(gauge), "set", recording_set)
        refused = server.metrics.counter("net.connections_refused")
        queries = _queries(12, seed=36)

        def inside(count):
            wait_for(lambda: server.health()["connections"] == count)

        def same_as_in_process(client, batch):
            for query in batch:
                assert json.dumps(results_to_wire(client.search(query))) == \
                    json.dumps(results_to_wire(service.search(query)))

        first, second = _client(server, retries=0), _client(server, retries=0)
        try:
            assert first.ping() and second.ping()
            inside(2)
            before = refused.value
            third = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            try:
                response = read_frame(third.recv)
                assert response["ok"] is False
                assert response["error"]["code"] == "overloaded"
                assert response["error"]["retryable"] is True
                assert third.recv(1) == b""  # one frame, then EOF
            finally:
                third.close()
            assert refused.value == before + 1
            same_as_in_process(first, queries[:4])
            same_as_in_process(second, queries[4:8])
            first.close()
            inside(1)
            with _client(server, retries=0) as fourth:
                same_as_in_process(fourth, queries[8:])
                same_as_in_process(second, queries[:2])
                inside(2)
        finally:
            first.close()
            second.close()
            server.close()
        assert levels and max(levels) <= 2


class TestLifecycle:
    def test_graceful_close_then_connect_refused(self):
        rng = random.Random(1)
        index = I3Index(UNIT_SQUARE, page_size=256)
        index.bulk_load(make_documents(40, rng))
        service = QueryService(index, ServiceConfig())
        server = NetServer(service, config=NetServerConfig(
            port=0, drain_timeout=2.0)).start()
        client = Client("127.0.0.1", server.port)
        try:
            assert client.ping()
            server.close()
            assert server.closed
            with pytest.raises(ConnectionLost):
                Client("127.0.0.1", server.port, retries=0).ping()
        finally:
            client.close()
            service.close(drain=False)

    def test_close_is_idempotent(self):
        rng = random.Random(2)
        index = I3Index(UNIT_SQUARE, page_size=256)
        index.bulk_load(make_documents(20, rng))
        service = QueryService(index, ServiceConfig())
        with NetServer(service, config=NetServerConfig(port=0)) as server:
            assert server.port != 0
            server.close()
            server.close()
        service.close(drain=False)
