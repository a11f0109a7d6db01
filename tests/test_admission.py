"""Edge-case tests for admission control: the base gate and tenant quotas.

The base :class:`AdmissionController` caps pending work; the network
tier's :class:`TenantAdmissionController` stacks a token-bucket rate
quota on top of it.  These tests pin the boundary behaviours — zero
quota, exhausted quota, refund on pending rejection, counter accuracy
under thread contention — and the observability contract (rejections
must be visible in ``QueryService.metrics_snapshot()``).
"""

import random
import threading

import pytest

from repro.core.index import I3Index
from repro.net.tenants import (
    REJECT_PENDING,
    REJECT_QUOTA,
    TenantAdmissionController,
    TenantDirectory,
    TenantQuota,
)
from repro.service.admission import AdmissionController
from repro.service.service import QueryService, ServiceConfig
from repro.simtest.clock import SimClock
from repro.spatial.geometry import UNIT_SQUARE

from tests.helpers import make_documents


class TestLifetimeCounters:
    def test_try_acquire_counts_both_ways(self):
        gate = AdmissionController(limit=1)
        assert gate.try_acquire()
        assert not gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()
        assert gate.admitted == 2
        assert gate.rejected == 2
        assert gate.snapshot() == {
            "pending": 1, "limit": 1, "admitted": 2, "rejected": 2,
        }

    def test_acquire_timeout_counts_as_rejection(self):
        gate = AdmissionController(limit=1)
        assert gate.acquire()
        assert not gate.acquire(timeout=0.01)
        assert gate.rejected == 1
        assert gate.pending == 1  # the timeout leaked no slot

    def test_concurrent_acquire_under_contention(self):
        """Hammer one gate from many threads: the pending count must
        never exceed the limit and the lifetime counters must balance
        exactly (admitted + rejected == attempts)."""
        gate = AdmissionController(limit=4)
        attempts_per_thread = 200
        threads = 8
        max_seen = []
        lock = threading.Lock()

        def worker():
            local_max = 0
            for _ in range(attempts_per_thread):
                if gate.try_acquire():
                    local_max = max(local_max, gate.pending)
                    gate.release()
            with lock:
                max_seen.append(local_max)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert max(max_seen) <= gate.limit
        assert gate.pending == 0
        assert gate.admitted + gate.rejected == attempts_per_thread * threads
        assert gate.admitted >= attempts_per_thread  # sanity: some got in


class TestRejectionVisibility:
    def test_rejections_surface_in_metrics_snapshot(self):
        rng = random.Random(0)
        index = I3Index(UNIT_SQUARE, page_size=256)
        index.bulk_load(make_documents(30, rng))
        with QueryService(index, ServiceConfig()) as service:
            gate = service._admission
            # Occupy the gate directly and shed one admission.
            while gate.try_acquire():
                pass
            assert not gate.try_acquire()
            snapshot = service.metrics_snapshot()
            assert snapshot["admission"]["rejected"] >= 1
            assert snapshot["admission"]["limit"] == gate.limit
            assert snapshot["admission"]["pending"] == gate.limit
            while gate.pending:
                gate.release()


class TestTenantQuota:
    def test_zero_quota_tenant_always_shed(self):
        clock = SimClock()
        gate = TenantAdmissionController(
            TenantQuota("frozen", "k", rate=0.0), clock=clock
        )
        for _ in range(5):
            assert gate.try_admit() == REJECT_QUOTA
        clock.advance(3600)
        assert gate.try_admit() == REJECT_QUOTA  # zero rate never refills
        assert gate.snapshot()["rejected_quota"] == 6

    def test_burst_then_exhaustion_then_refill(self):
        clock = SimClock()
        gate = TenantAdmissionController(
            TenantQuota("t", "k", rate=2.0, burst=3), clock=clock
        )
        for _ in range(3):
            assert gate.try_admit() is None
            gate.release()
        assert gate.try_admit() == REJECT_QUOTA
        # rate=2/s: half a second buys one token back.
        clock.advance(0.5)
        assert gate.try_admit() is None
        gate.release()
        assert gate.try_admit() == REJECT_QUOTA

    def test_retry_after_matches_refill_rate(self):
        clock = SimClock()
        gate = TenantAdmissionController(
            TenantQuota("t", "k", rate=4.0, burst=1), clock=clock
        )
        assert gate.try_admit() is None
        gate.release()
        assert gate.try_admit() == REJECT_QUOTA
        assert gate.retry_after_s() == pytest.approx(0.25, abs=0.01)

    def test_pending_rejection_refunds_token(self):
        clock = SimClock()
        gate = TenantAdmissionController(
            TenantQuota("t", "k", rate=1.0, burst=2, max_pending=1),
            clock=clock,
        )
        assert gate.try_admit() is None  # occupies the single pending slot
        tokens_before = gate.tokens
        assert gate.try_admit() == REJECT_PENDING
        # The shed attempt must not burn quota: the token came back.
        assert gate.tokens == pytest.approx(tokens_before)
        assert gate.snapshot()["rejected_pending"] == 1
        gate.release()
        assert gate.try_admit() is None

    def test_unlimited_tenant_never_rate_limited(self):
        clock = SimClock()
        gate = TenantAdmissionController(
            TenantQuota("vip", "k", rate=None), clock=clock
        )
        for _ in range(500):
            assert gate.try_admit() is None
            gate.release()
        assert gate.snapshot()["rejected_quota"] == 0

    def test_concurrent_token_accounting(self):
        """Parallel admits against a finite bucket: exactly ``burst``
        succeed, the rest shed as quota, and counters balance."""
        clock = SimClock()
        gate = TenantAdmissionController(
            TenantQuota("t", "k", rate=1e-9, burst=16, max_pending=64),
            clock=clock,
        )
        outcomes = []
        lock = threading.Lock()

        def worker():
            result = gate.try_admit()
            with lock:
                outcomes.append(result)
            if result is None:
                gate.release()

        pool = [threading.Thread(target=worker) for _ in range(64)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert outcomes.count(None) == 16
        assert outcomes.count(REJECT_QUOTA) == 48
        snap = gate.snapshot()
        assert snap["admitted"] == 16
        assert snap["rejected_quota"] == 48


class TestTenantDirectory:
    def test_authenticate_and_reject(self):
        directory = TenantDirectory.from_dict({
            "tenants": [{"name": "a", "api_key": "ka"},
                        {"name": "b", "api_key": "kb", "rate": 1.0}],
        })
        assert directory.authenticate("ka").quota.name == "a"
        assert directory.authenticate("nope") is None
        assert directory.authenticate(None) is None
        assert directory.names == ["a", "b"]

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            TenantDirectory.from_dict({
                "tenants": [{"name": "a", "api_key": "k"},
                            {"name": "b", "api_key": "k"}],
            })

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota.from_dict({"name": "a", "api_key": "k",
                                   "burstiness": 9})

    def test_open_directory_accepts_anything(self):
        directory = TenantDirectory.open()
        assert directory.authenticate("whatever").quota.name == "default"
        assert directory.authenticate(None).quota.name == "default"
