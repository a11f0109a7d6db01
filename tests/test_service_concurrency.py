"""Stress tests: the serving layer under real thread concurrency.

The acceptance bar for the service is that concurrency never changes
answers or accounting.  A service runs its own queries one at a time
(one lane), but its index is still read concurrently — by the lane, by
router threads through ``QueryService.read``, by streams and by library
callers of ``index.query`` — so the stress passes put 8 caller threads
on one index at once (:func:`_concurrently`): results must be
byte-identical to sequential ``I3Index.query`` execution, and the
shared I/O counters and decoded-cell counters must not lose updates
(data-page reads + cell hits, cells asked for and head reads all equal
the sequential pass's).

The *timing-sensitive* behaviours — admission-control shedding and
per-query deadlines — run on the simulation clock/scheduler
(:mod:`repro.simtest.clock`) instead of real threads: the same service
code executes, but which queries shed or expire is a pure function of
the submission pattern and the virtual clock, so the assertions are
exact counts rather than wall-clock races.
"""

import random
import sys
import threading

import pytest

from repro.core.index import I3Index
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.service import (
    QueryService,
    QueryTimeout,
    ServiceConfig,
    ServiceOverloaded,
)
from repro.simtest.clock import SimClock, SimScheduler
from repro.spatial.geometry import UNIT_SQUARE
from tests.helpers import DEFAULT_VOCAB, make_documents, results_as_pairs


def _build_index(rng, docs=160):
    """A populated index on small pages, so queries touch many cells."""
    index = I3Index(UNIT_SQUARE, page_size=256)
    for doc in make_documents(docs, rng):
        index.insert_document(doc)
    return index


def _mixed_workload(rng, count=400, distinct=60):
    """A skewed hot/cold request stream: few hot query shapes dominate,
    with a long cold tail (the FAST paper's workload shape)."""
    shapes = []
    for _ in range(distinct):
        words = tuple(rng.sample(DEFAULT_VOCAB, rng.randint(1, 3)))
        shapes.append(
            TopKQuery(
                rng.random(),
                rng.random(),
                words,
                k=rng.randint(1, 10),
                semantics=Semantics.OR,
            )
        )
    weights = [1.0 / (rank + 1) for rank in range(distinct)]
    return rng.choices(shapes, weights=weights, k=count)


def _concurrently(service, requests, direct, callers=8):
    """Answers to ``requests`` in input order, computed by ``callers``
    threads at once.  Each thread sends every other query of its share
    through the service (a turn on the lane) and runs the rest itself
    as ``direct(query)`` under ``service.read`` — several traversals on
    one index at the same time, the lane's among them."""
    answers = [None] * len(requests)
    errors = []

    def caller(first):
        try:
            for i in range(first, len(requests), callers):
                query = requests[i]
                if (i // callers) % 2:
                    answers[i] = service.read(lambda _target: direct(query))
                else:
                    answers[i] = service.submit(query, block=True).result(timeout=30)
        except Exception as exc:  # noqa: BLE001 - collected
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(n,)) for n in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the traversals for real
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return answers


class TestStressAgainstSequential:
    def test_batch_results_identical_and_no_lost_io(self):
        rng = random.Random(7)
        index = _build_index(rng)
        requests = _mixed_workload(random.Random(13))
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        cells = index.data.cells

        def work_done():
            """Data-page reads + decoded-cell hits (every keyword cell a
            query asks for is one or the other: two callers racing to
            decode one single-page cell read its page twice and hit once
            less), cells asked for, head reads."""
            decoded = cells.stats()
            return (
                index.stats.reads("i3.data") + decoded["hits"],
                decoded["hits"] + decoded["misses"],
                index.stats.reads("i3.head"),
            )

        # Both passes start cold, so both exercise misses as well as hits.
        index.clear_cache()
        base = work_done()
        expected = [results_as_pairs(index.query(q, ranker)) for q in requests]
        sequential = [b - a for a, b in zip(base, work_done())]

        index.clear_cache()
        base = work_done()

        # Cache disabled: every request must actually execute, the lane's
        # half and the callers' own half at the same time.
        config = ServiceConfig(max_pending=48, cache_capacity=0)
        with QueryService(index, config, ranker=ranker) as service:
            answers = _concurrently(
                service, requests, lambda q: index.query(q, ranker)
            )
            got = [results_as_pairs(a) for a in answers]
            snap = service.metrics_snapshot()

        assert got == expected

        # Same logical work as the sequential pass: no lost increments,
        # on the I/O counters or the cell cache's lock-free hit count.
        assert [b - a for a, b in zip(base, work_done())] == sequential
        assert cells.stats()["hits"] > 0
        # 400 requests over 8 callers: rounds 0, 2, ... of each took the lane.
        assert snap["counters"]["queries.completed"] == len(requests) // 2

    def test_hot_cold_with_result_cache(self):
        rng = random.Random(21)
        index = _build_index(rng, docs=120)
        requests = _mixed_workload(random.Random(22), count=300, distinct=40)
        ranker = Ranker(UNIT_SQUARE)

        expected = [results_as_pairs(index.query(q, ranker)) for q in requests]

        config = ServiceConfig(max_pending=32, cache_capacity=128)
        answers = [None] * len(requests)
        errors = []
        with QueryService(index, config, ranker=ranker) as service:

            def caller(first):
                try:
                    for i in range(first, len(requests), 8):
                        answers[i] = service.search(requests[i])
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            cache = service.cache.stats()

        assert errors == []
        assert [results_as_pairs(a) for a in answers] == expected
        # One cache lookup per request, at admission, none lost to races.
        assert cache["hits"] + cache["misses"] == len(requests)
        assert cache["hits"] > 0  # the hot head of the stream repeats

    def test_reads_interleaved_with_mutations(self):
        rng = random.Random(3)
        index = _build_index(rng, docs=100)
        ranker = Ranker(UNIT_SQUARE)
        requests = _mixed_workload(random.Random(5), count=200, distinct=30)
        new_docs = make_documents(30, rng, start_id=10_000)
        errors = []

        config = ServiceConfig(max_pending=64)
        with QueryService(index, config, ranker=ranker) as service:

            def reader(chunk):
                for query in chunk:
                    try:
                        service.search(query)
                    except Exception as exc:  # noqa: BLE001 - collected
                        errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(requests[i::4],))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for doc in new_docs:
                service.insert(doc)
            for t in threads:
                t.join()

            assert errors == []
            assert index.num_documents == 130
            # After the dust settles: the service (cache included) agrees
            # with direct sequential execution on the mutated index.
            for query in requests[:10]:
                assert results_as_pairs(service.search(query)) == results_as_pairs(
                    index.query(query, ranker)
                )

    def test_shedding_accounting_under_contention(self):
        """Admission control on the virtual scheduler: shedding is an
        exact function of the submission pattern, not of thread timing.

        Bursts of 16 submissions hit a max_pending=8 service with no
        drain in between, so exactly 8 of every burst shed; the service
        then drains fully before the next burst.  Accounting identities
        must hold with exact, deterministic counts.
        """
        index = _build_index(random.Random(1), docs=60)
        requests = _mixed_workload(random.Random(2), count=304, distinct=40)
        ranker = Ranker(UNIT_SQUARE)
        expected = {q: results_as_pairs(index.query(q, ranker)) for q in requests}

        clock = SimClock()
        sched = SimScheduler(seed=2, clock=clock)
        config = ServiceConfig(max_pending=8, cache_capacity=0)
        outcomes = {"ok": 0, "shed": 0}
        admitted = []
        with QueryService(
            index, config, ranker=ranker, clock=clock, executor=sched
        ) as service:
            for burst_start in range(0, len(requests), 16):
                for query in requests[burst_start:burst_start + 16]:
                    try:
                        admitted.append((query, service.submit(query)))
                    except ServiceOverloaded:
                        outcomes["shed"] += 1
                sched.run_until_idle()
            for query, future in admitted:
                assert results_as_pairs(future.result(timeout=0)) == expected[query]
                outcomes["ok"] += 1
            snap = service.metrics_snapshot()

        counters = snap["counters"]
        assert outcomes["ok"] + outcomes["shed"] == len(requests)
        # Every 16-burst against an empty max_pending=8 queue admits
        # exactly 8 and sheds exactly 8 — deterministically.
        assert outcomes["shed"] == len(requests) // 2
        assert counters["queries.submitted"] == len(requests)
        assert counters.get("queries.shed", 0) == outcomes["shed"]
        assert counters["queries.completed"] == outcomes["ok"]

    def test_queued_deadline_expiry_on_virtual_clock(self):
        """Deadline enforcement without sleeping: queries sit queued
        while the virtual clock jumps past their deadline, so every one
        of them must expire with ``queued=True`` — no wall-clock margin,
        no flakes."""
        index = _build_index(random.Random(9), docs=40)
        clock = SimClock()
        sched = SimScheduler(seed=5, clock=clock)
        config = ServiceConfig(
            max_pending=8, timeout=0.05, cache_capacity=0
        )
        query = TopKQuery(0.5, 0.5, (DEFAULT_VOCAB[0],), k=3)
        with QueryService(index, config, clock=clock, executor=sched) as service:
            futures = [service.submit(query) for _ in range(4)]
            clock.advance(0.1)  # all four are now past their deadline
            sched.run_until_idle()
            for future in futures:
                with pytest.raises(QueryTimeout) as excinfo:
                    future.result(timeout=0)
                assert excinfo.value.queued is True
            snap = service.metrics_snapshot()
        assert snap["counters"]["queries.timed_out"] == 4
        assert snap["counters"].get("queries.completed", 0) == 0

    def test_virtual_scheduler_matches_sequential_results(self):
        """The sim-scheduled service returns byte-identical answers to
        direct index execution, whatever order the seeded scheduler
        interleaves the lane's steps in."""
        index = _build_index(random.Random(11), docs=80)
        requests = _mixed_workload(random.Random(12), count=60, distinct=20)
        ranker = Ranker(UNIT_SQUARE, alpha=0.5)
        expected = [results_as_pairs(index.query(q, ranker)) for q in requests]
        for seed in (0, 1, 2):
            clock = SimClock()
            sched = SimScheduler(seed=seed, clock=clock)
            config = ServiceConfig(max_pending=64, cache_capacity=0)
            with QueryService(
                index, config, ranker=ranker, clock=clock, executor=sched
            ) as service:
                got = [results_as_pairs(service.search(q)) for q in requests]
            assert got == expected
