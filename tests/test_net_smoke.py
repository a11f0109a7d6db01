"""End-to-end smoke: a real ``repro serve`` subprocess, real sockets.

A tier-1 test, so CI runs it on every Python version it tests: boot
the CLI server over a seeded corpus, drive 200 client queries against it —
including an unauthorized key and an oversized frame — and require the
answers byte-identical to an in-process :class:`QueryService` built
from the *same* seed.  Finishes by scraping ``/metrics`` and shutting
the server down cleanly with SIGTERM.
"""

import json
import random
import signal
import socket

import pytest

from repro.core.index import I3Index
from repro.datasets.generators import TwitterLikeGenerator
from repro.model.query import Semantics, TopKQuery
from repro.net.client import Client
from repro.net.errors import FrameTooLarge, Unauthorized
from repro.net.protocol import results_to_wire
from repro.model.scoring import Ranker
from repro.service.service import QueryService, ServiceConfig
from tests.helpers import serving

DOCS = 400
SEED = 7
N_QUERIES = 200

TENANTS = {
    "tenants": [
        {"name": "smoke", "api_key": "smoke-key", "rate": None,
         "max_pending": 64},
    ]
}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("net_smoke")
    tenants_path = tmp / "tenants.json"
    tenants_path.write_text(json.dumps(TENANTS))
    with serving(
        tmp / "port.json",
        "--docs", str(DOCS), "--seed", str(SEED),
        "--tenants", str(tenants_path),
    ) as (address, proc):
        yield address, proc


@pytest.fixture(scope="module")
def reference():
    """The same corpus and service configuration ``serve`` builds."""
    corpus = TwitterLikeGenerator(DOCS, seed=SEED).generate()
    index = I3Index(corpus.space, page_size=4096)
    index.bulk_load(corpus.documents)
    service = QueryService(
        index,
        ServiceConfig(metrics_seed=SEED),
        ranker=Ranker(corpus.space, alpha=0.5),
    )
    try:
        yield corpus, service
    finally:
        service.close(drain=False)


def _workload(corpus):
    rng = random.Random(0xC1)
    words = corpus.most_frequent_keywords(30)
    locations = corpus.sample_locations(rng, N_QUERIES)
    queries = []
    for x, y in locations:
        picked = rng.sample(words, rng.randint(1, 3))
        queries.append(
            TopKQuery(
                x, y, tuple(picked), k=rng.choice([1, 5, 10]),
                semantics=rng.choice([Semantics.AND, Semantics.OR]),
            )
        )
    return queries


def test_smoke_200_queries_byte_identical(served, reference):
    address, _proc = served
    corpus, service = reference
    mismatches = 0
    with Client(address["host"], address["port"], key="smoke-key",
                deadline_ms=10_000) as client:
        for query in _workload(corpus):
            over_wire = json.dumps(results_to_wire(client.search(query)))
            in_process = json.dumps(results_to_wire(service.search(query)))
            if over_wire != in_process:
                mismatches += 1
    assert mismatches == 0


def test_smoke_unauthorized_key_refused(served):
    address, _proc = served
    with Client(address["host"], address["port"], key="wrong-key") as client:
        with pytest.raises(Unauthorized):
            client.search(x=0.5, y=0.5, words=["the"])
        assert client.ping()  # ping needs no key; connection still fine


def test_smoke_oversized_frame_rejected(served):
    address, _proc = served
    with socket.create_connection(
        (address["host"], address["port"]), timeout=10
    ) as sock:
        sock.sendall((64 << 20).to_bytes(4, "big"))
        header = sock.recv(4)
        assert header, "server must answer before closing"
        length = int.from_bytes(header, "big")
        body = b""
        while len(body) < length:
            chunk = sock.recv(length - len(body))
            if not chunk:
                break
            body += chunk
        payload = json.loads(body)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "frame_too_large"
        assert sock.recv(1) == b""  # poisoned stream: server hangs up


def test_smoke_metrics_scrape(served):
    address, _proc = served
    with Client(address["host"], address["port"], key="smoke-key") as client:
        text = client.metrics_text()
    assert "repro_net_requests" in text
    assert 'tenant="smoke"' in text
    # The same exposition answers HTTP GET /metrics on the main port.
    with socket.create_connection(
        (address["host"], address["port"]), timeout=10
    ) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, http_body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head.splitlines()[0]
    assert b"repro_net_requests" in http_body


def test_smoke_sigterm_clean_exit(served):
    # Runs last (file order): everything above has finished its traffic.
    address, proc = served
    assert proc.poll() is None
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=15)
    assert rc == 0
    with pytest.raises(OSError):
        socket.create_connection(
            (address["host"], address["port"]), timeout=2
        )


def test_smoke_client_frame_limit_client_side():
    """The client refuses to *send* an oversized frame — no bytes leave."""
    sent = []

    class Recorder:
        def sendall(self, data):
            sent.append(data)

        def recv(self, n):
            return b""

        def close(self):
            pass

    client = Client(key="x", max_frame=128, connect_factory=Recorder)
    with pytest.raises(FrameTooLarge):
        client.call("query", {"words": ["w" * 4096], "x": 0, "y": 0})
    assert sent == []
