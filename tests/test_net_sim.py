"""The simulated network seam: faults may cost retries, never answers.

Two layers of coverage.  Unit-level: :class:`SimTransport` +
:func:`sim_client` against a real service, one scripted fault at a
time, asserting the retry loop converges on the exact in-process
answer under virtual time.  System-level: hand-rolled harness traces
whose ``net_query`` steps script every fault shape, asserting the
``net-equivalence`` invariant holds and the whole run stays a pure
function of the trace (same trace, same hash).
"""

import random

import pytest

from repro.core.index import I3Index
from repro.model.query import TopKQuery
from repro.net.errors import QuotaExceeded
from repro.net.sim import FAULTS, SimNetServer, SimTransport, sim_client
from repro.net.tenants import TenantDirectory
from repro.service.service import QueryService, ServiceConfig
from repro.simtest.clock import SimClock
from repro.simtest.harness import run_trace
from repro.simtest.workload import generate_trace
from repro.spatial.geometry import UNIT_SQUARE

from tests.helpers import make_documents


@pytest.fixture()
def sim_setup():
    rng = random.Random(5)
    index = I3Index(UNIT_SQUARE, page_size=256)
    index.bulk_load(make_documents(120, rng))
    clock = SimClock()
    service = QueryService(index, ServiceConfig(metrics_seed=0))
    server = SimNetServer(service, clock=clock)
    try:
        yield service, server, clock
    finally:
        service.close(drain=False)


QUERY = TopKQuery(0.4, 0.4, ("cafe", "sushi"), 5)


class TestScriptedFaults:
    @pytest.mark.parametrize("fault", [f for f in FAULTS if f != "ok"])
    def test_single_fault_retries_to_exact_answer(self, sim_setup, fault):
        service, server, clock = sim_setup
        client = sim_client(server, faults=[fault, "ok"])
        assert client.search(QUERY) == service.search(QUERY)
        assert client.attempts >= 1
        if fault in ("drop", "delay"):
            # drop fails before an attempt is counted; delay succeeds on
            # the first try, just late.
            assert client.attempts == 1
        else:
            assert client.attempts == 2
            assert client.reconnects >= 1

    def test_fault_chain_converges(self, sim_setup):
        service, server, clock = sim_setup
        client = sim_client(
            server,
            faults=["drop", "reset_send", "truncate_response",
                    "reset_recv", "ok"],
        )
        assert client.search(QUERY) == service.search(QUERY)
        assert client.attempts == 4  # "drop" fails before an attempt counts

    def test_virtual_time_only(self, sim_setup):
        """Backoff between retries advances the SimClock, not the wall."""
        _service, server, clock = sim_setup
        client = sim_client(server, faults=["reset_send", "reset_send", "ok"],
                            backoff_s=0.5)
        before = clock()
        client.search(QUERY)
        assert clock() > before  # slept virtually

    def test_unknown_fault_rejected(self, sim_setup):
        _service, server, _clock = sim_setup
        with pytest.raises(ValueError):
            SimTransport(server, "gremlins")

    def test_quota_retry_waits_out_window_in_virtual_time(self):
        rng = random.Random(6)
        index = I3Index(UNIT_SQUARE, page_size=256)
        index.bulk_load(make_documents(60, rng))
        clock = SimClock()
        tenants = TenantDirectory.from_dict(
            {"tenants": [{"name": "t", "api_key": "k",
                          "rate": 1.0, "burst": 1}]},
            clock=clock,
        )
        with QueryService(index, ServiceConfig()) as service:
            server = SimNetServer(service, clock=clock, tenants=tenants)
            client = sim_client(server, key="k", retries=3)
            direct = service.search(QUERY)
            assert client.search(QUERY) == direct   # burns the one token
            before = clock()
            assert client.search(QUERY) == direct   # shed, waits, retries
            assert clock() - before >= 0.9          # ~the 1 req/s window
            strict = sim_client(server, key="k", retries=0)
            with pytest.raises(QuotaExceeded):
                strict.search(QUERY)


def _net_query_trace(faults_per_step, seed=1234):
    """A single-mode trace whose steps are exactly the given net queries."""
    base = generate_trace(seed, mode="single")
    words_pool = [["cafe"], ["museum", "park"], ["sushi", "bar", "gym"]]
    base["steps"] = [
        {
            "op": "net_query",
            "query": {"x": 0.3, "y": 0.7, "words": words_pool[i % 3],
                      "k": 5, "semantics": "or"},
            "faults": faults,
        }
        for i, faults in enumerate(faults_per_step)
    ]
    return base


class TestHarnessIntegration:
    def test_every_fault_shape_keeps_net_equivalence(self):
        shapes = [[f, "ok"] for f in FAULTS if f != "ok"]
        shapes += [["ok"], ["drop", "reset_recv", "ok"],
                   ["truncate_response", "truncate_response", "ok"]]
        report = run_trace(_net_query_trace(shapes))
        assert report.ok, report.failure
        assert report.steps_run == len(shapes)

    def test_faulted_run_is_deterministic(self):
        trace = _net_query_trace(
            [["reset_send", "ok"], ["delay", "ok"], ["drop", "ok"]]
        )
        first = run_trace(trace)
        second = run_trace(trace)
        assert first.ok and second.ok
        assert first.run_hash == second.run_hash

    def test_generated_seeds_include_and_survive_net_queries(self):
        seen_net = 0
        seen_faulted = 0
        for seed in range(8):
            trace = generate_trace(seed, mode="single")
            for step in trace["steps"]:
                if step["op"] == "net_query":
                    seen_net += 1
                    assert step["faults"][-1] == "ok"
                    if len(step["faults"]) > 1:
                        seen_faulted += 1
            report = run_trace(trace)
            assert report.ok, (seed, report.failure)
        assert seen_net > 0
        assert seen_faulted > 0
