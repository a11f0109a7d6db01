"""The traced run: a per-query cost ladder, measured from outside.

In-process, one thread.  Each rung times the same sample of the
workload's queries through one more layer's public call, under a span
per query; a layer's self time is its rung minus the rung below.  All
result caches are off on the ladder itself (the warm-hit rungs say
so), so every rung answers every query from the index.  Counts come
from the layers' own counters and repeat exactly.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import closing
from typing import Callable, Dict, List, Sequence, Tuple

import ladder_inputs as inputs
from ladder_api import (
    Client,
    ClusterConfig,
    ClusterService,
    DurableIndex,
    HashPartitioner,
    IOStats,
    NetServer,
    NetServerConfig,
    QueryService,
    ServiceConfig,
    TopKQuery,
    WorkloadModel,
    WorkloadPartitioner,
    decode_payload,
    encode_frame,
    kernels,
    load_index,
    np,
    ok_response,
    open_snapshot,
    results_from_wire,
    results_to_wire,
)
from ladder_timing import Tracer
from ladder_verify import wire_bytes
from ladder_workloads import PAGE_SIZE, SHARDS, Run

NOMINAL_SAMPLE = 300
NOMINAL_MUTATIONS = 750
BATCH = 32
KERNEL_ROWS = 50_000
WARM_SAMPLE = 128  # well under the default result-cache capacity of 256
REBALANCE_SHARE = 20  # rebalance is timed on 1/20 of the corpus
UNCACHED = ServiceConfig(cache_capacity=0)
UNCACHED_CLUSTER = ClusterConfig(cache_capacity=0, shard_config=UNCACHED)
# (lowest, highest) result-cache hit ratio a workload's stream may show.
REGIME = {
    "wire-distinct": (0.0, 0.0),
    "wire-hot": (0.99, 1.0),
    "cluster-selective": (0.0, 0.0),
    "ingest-mixed": (0.0, 0.05),
}

Metrics = Dict[str, Tuple[float, str]]


class Ladder:
    def __init__(self, run: Run) -> None:
        self.run = run
        self.metrics: Metrics = {}
        self.attempted = 0
        self.failed = 0
        self.notes: Dict[str, float] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, good: bool) -> None:
        self.attempted += 1
        self.failed += not good

    def stage_s(self, name: str) -> float:
        return self.run.stages[name].scaled

    def rungs(self, block: str, calls: Dict[str, Callable],
              items: Sequence) -> Tuple[Dict[str, float], Dict[str, List]]:
        """Time each call on each item, one span per call.

        The calls take turns on every item, and who goes first rotates,
        so two rungs that are subtracted or divided saw the same host
        speed and the same share of warm caches.  Returns, per call
        name, the mean seconds per item at reference speed and what the
        calls returned.
        """
        tracer = self.run.tracer
        names = list(calls)
        spent = {name: 0.0 for name in names}
        returned: Dict[str, List] = {name: [] for name in names}
        with self.run.stage(block) as box:
            for i, item in enumerate(items):
                first = i % len(names)
                for name in names[first:] + names[:first]:
                    with tracer.span(name, query_id=i) as span:
                        returned[name].append(calls[name](item))
                    spent[name] += span["end"] - span["start"]
        means = {name: spent[name] / len(items) * box.factor for name in calls}
        return means, returned

    def same_answers(self, answers: List, reference: List) -> None:
        for got, want in zip(answers, reference):
            self.check(wire_bytes(got) == wire_bytes(want))


def per_layer(run: Run):
    run.prepare()
    ladder = Ladder(run)
    view = run.view
    seconds, rounds = run.profile.seconds, run.profile.rounds
    sample_size = inputs.scaled(NOMINAL_SAMPLE, seconds, floor=24)
    sample = _sample(run, sample_size)
    with run.stage("core.persistence.load"):
        index = load_index(run.snapshot)
    with run.stage("exec.snapshot.open"):
        open_snapshot(run.snapshot)
    ranker = run.oracle.ranker

    with QueryService(index, UNCACHED, ranker=ranker) as service:
        answers = _index_rungs(ladder, index, service, ranker, sample)
        for query, got in zip(sample, answers):
            ladder.check(wire_bytes(got) == wire_bytes(run.oracle.query(query)))
        _count_pass(ladder, index, ranker, sample, answers)
        _warm_rungs(ladder, index, ranker, sample, answers)
    training = inputs.cluster_selective(view, run.seed, seconds, rounds).training
    _cluster_rungs(ladder, ranker, sample, answers, training)
    # The last inserts of the ingest stream: the hit-ratio replay below
    # applies that stream's first ops, and must not meet them again.
    fresh = [doc for kind, doc in inputs.ingest_mixed(
        view, run.seed, seconds, rounds).timed_ops() if kind == "i"]
    fresh = fresh[-inputs.scaled(NOMINAL_MUTATIONS, seconds, floor=40):]
    _mutation_rungs(ladder, index, ranker, fresh, sample_size)

    for name in ("datasets.generate", "core.bulk_load", "core.persistence.save",
                 "core.persistence.load", "exec.snapshot.open",
                 "core.recovery.create"):
        ladder.put(name + "_s", ladder.stage_s(name), "s")
    ladder.put("core.index_bytes_per_doc",
               run.index.size_bytes / run.profile.docs, "bytes")
    quiet = Tracer()
    start = time.perf_counter()
    for _ in range(1000):
        with quiet.span("empty"):
            pass
    ladder.put("trace.span_overhead_us",
               (time.perf_counter() - start) / 1000 * 1e6, "us")
    ladder.put("calib_cv", run.cal.cv, "ratio")
    ladder.notes["sample_queries"] = float(len(sample))
    return ladder.metrics, ladder.attempted, ladder.failed, ladder.notes


def _sample(run: Run, size: int) -> List[TopKQuery]:
    """The first ``size`` distinct queries of the workload's timed stream."""
    distinct = dict.fromkeys(
        op[1] for op in run.stream.timed_ops() if op[0] == "q"
    )
    return list(distinct)[:size]


def _index_rungs(ladder: Ladder, index, service, ranker, sample) -> List:
    """Tuple engine, vector engine, uncached service; batches; kernels."""
    for query in sample:  # lazy set-up and page buffers, before any timing
        index.query(query, ranker, engine="vector")
    means, got = ladder.rungs("ladder.index", {
        "core.query_tuple": lambda q: index.query(q, ranker, engine="tuple"),
        "exec.query_vector": lambda q: index.query(q, ranker, engine="vector"),
        "service.search_uncached": service.search,
    }, sample)
    answers = got["exec.query_vector"]
    ladder.same_answers(got["core.query_tuple"], answers)
    ladder.same_answers(got["service.search_uncached"], answers)
    vector_s, service_s = means["exec.query_vector"], means["service.search_uncached"]
    ladder.put("core.query_tuple_ms", means["core.query_tuple"] * 1e3, "ms")
    ladder.put("exec.query_vector_ms", vector_s * 1e3, "ms")
    ladder.put("service.dispatch_us", (service_s - vector_s) * 1e6, "us")

    halves = [sample[0::2], sample[1::2]]
    callers = [
        threading.Thread(target=lambda part=part: [service.search(q) for q in part])
        for part in halves
    ]
    with ladder.run.stage("service.search_two_callers") as both:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
    ladder.put("service.concurrency_scaling",
               service_s * len(sample) / both.scaled, "ratio")

    batches = [sample[i:i + BATCH] for i in range(0, len(sample), BATCH)]
    means, got = ladder.rungs("ladder.batch", {
        "exec.query_many": lambda b: index.query_many(b, ranker, engine="vector"),
    }, batches)
    ladder.same_answers([a for batch in got["exec.query_many"] for a in batch], answers)
    ladder.put("exec.query_many_ms",
               means["exec.query_many"] * len(batches) / len(sample) * 1e3, "ms")

    rng = np.random.default_rng(ladder.run.seed)
    xs, ys, phi_t = (rng.random(KERNEL_ROWS) for _ in range(3))
    means, _ = ladder.rungs("ladder.kernels", {
        "exec.kernels.score": lambda _i: kernels.combine(
            ranker.alpha,
            kernels.spatial_proximity(0.5, 0.5, xs, ys, ranker.space.diagonal),
            phi_t),
    }, range(40))
    ladder.put("exec.kernels.score_ns_per_doc",
               means["exec.kernels.score"] / KERNEL_ROWS * 1e9, "ns")
    return answers


def _count_pass(ladder: Ladder, index, ranker, sample, answers) -> None:
    """Exact counts, on a pass of their own so the sink costs no rung."""
    processor = index.engine_processor("vector")
    head = data = popped = pruned = scored = 0
    for query in sample:
        sink = IOStats()
        index.query(query, ranker, io_sink=sink, engine="vector")
        head += sink.reads("i3.head")
        data += sink.reads("i3.data")
        ladder.check(sink.reads() == sink.reads("i3.head") + sink.reads("i3.data"))
        trace = processor.last_trace
        popped += trace.candidates_popped
        pruned += trace.cells_pruned
        scored += trace.docs_scored
    n = len(sample)
    ladder.put("storage.reads_per_query", (head + data) / n, "pages")
    ladder.put("storage.head_reads_per_query", head / n, "pages")
    ladder.put("storage.data_reads_per_query", data / n, "pages")
    ladder.put("core.candidates_popped_per_query", popped / n, "count")
    ladder.put("core.cells_pruned_per_query", pruned / n, "count")
    ladder.put("core.docs_scored_per_result",
               scored / max(1, sum(len(a) for a in answers)), "ratio")


def _warm_rungs(ladder: Ladder, index, ranker, sample, answers) -> None:
    """A result-cache hit in process and over a socket; the codec alone."""
    warm = sample[:WARM_SAMPLE]
    with QueryService(index, ServiceConfig(), ranker=ranker) as service:
        server = NetServer(service, config=NetServerConfig(port=0)).start()
        with closing(server), Client(server.host, server.port, retries=0) as client:
            for query in warm:
                client.search(query)
            means, got = ladder.rungs("ladder.hit", {
                "service.search_hit": service.search,
                "net.client_search_hit": client.search,
            }, warm)
    ladder.same_answers(got["service.search_hit"], answers)
    ladder.same_answers(got["net.client_search_hit"], answers)
    hit_s = means["service.search_hit"]
    ladder.put("service.cache_hit_us", hit_s * 1e6, "us")
    ladder.put("net.roundtrip_overhead_us",
               (means["net.client_search_hit"] - hit_s) * 1e6, "us")

    means, got = ladder.rungs("ladder.encode", {
        "net.encode": lambda a: encode_frame(ok_response(results_to_wire(a))),
    }, answers)
    frames = got["net.encode"]
    ladder.put("net.encode_us", means["net.encode"] * 1e6, "us")
    ladder.put("net.bytes_per_response",
               statistics.fmean(len(f) for f in frames), "bytes")
    means, got = ladder.rungs("ladder.decode", {
        "net.decode": lambda f: results_from_wire(decode_payload(f[4:])["result"]),
    }, frames)
    ladder.same_answers(got["net.decode"], answers)
    ladder.put("net.decode_us", means["net.decode"] * 1e6, "us")


def _cluster_rungs(ladder: Ladder, ranker, sample, answers, training) -> None:
    """One hash shard, four hash shards, four learned shards — and
    beside them the uncached service over the index ``prepare`` built,
    which is what the one hash shard holds: their difference is the
    cluster layer's own cost."""
    run = ladder.run
    corpus = run.corpus

    def build(partitioner, documents=corpus.documents) -> ClusterService:
        return ClusterService.build(
            documents, partitioner, UNCACHED_CLUSTER, page_size=PAGE_SIZE)

    def counters(cluster: ClusterService) -> Dict[str, float]:
        return cluster.metrics_snapshot()["counters"]

    with run.stage("planner.learn"):
        model = WorkloadModel.from_queries(training, corpus.space)
        placement = WorkloadPartitioner.learn(
            SHARDS, corpus.space, corpus.documents, model)
    with run.stage("cluster.build"):
        hashed = build(HashPartitioner(SHARDS, corpus.space))
    with closing(hashed), \
            closing(build(HashPartitioner(1, corpus.space))) as one, \
            closing(build(placement)) as learned, \
            QueryService(run.index, UNCACHED, ranker=ranker) as service:
        clusters = {"cluster.search_one_shard": one, "cluster.search_hash": hashed,
                    "cluster.search": learned}
        for cluster in clusters.values():  # fill the routers' bounds caches
            for query in sample:
                cluster.search(query)
        before = {name: counters(c) for name, c in clusters.items()}
        calls = {"service.search_uncached": service.search}
        for name, cluster in clusters.items():
            calls[name] = lambda q, c=cluster: c.search(q).results
        means, got = ladder.rungs("ladder.cluster", calls, sample)
        moved = {
            name: {key: (value - before[name].get(key, 0)) / len(sample)
                   for key, value in counters(c).items()}
            for name, c in clusters.items()
        }
        bounds = counters(learned)
    for name in clusters:
        ladder.same_answers(got[name], answers)
    part = corpus.documents[:max(400, len(corpus.documents) // REBALANCE_SHARE)]
    with closing(build(HashPartitioner(SHARDS, corpus.space), part)) as small:
        with run.stage("cluster.rebalance") as pause:
            docs_moved = small.rebalance(placement)["moved"]

    one_s, learned_s = means["cluster.search_one_shard"], means["cluster.search"]
    touched = moved["cluster.search"].get("cluster.shards_queried", 0.0)
    hits = bounds.get("cluster.bounds_cache_hits", 0)
    ladder.put("cluster.overhead_1shard_us",
               (one_s - means["service.search_uncached"]) * 1e6, "us")
    ladder.put("cluster.search_ms", learned_s * 1e3, "ms")
    ladder.put("cluster.shards_touched_per_query", touched, "count")
    ladder.put("cluster.shards_no_candidates_per_query",
               moved["cluster.search"].get("cluster.shards_no_candidates", 0.0), "count")
    ladder.put("cluster.shards_pruned_per_query",
               moved["cluster.search"].get("cluster.shards_pruned", 0.0), "count")
    ladder.put("cluster.bounds_cache_hit_ratio",
               hits / max(1, hits + bounds.get("cluster.bounds_cache_misses", 0)),
               "ratio")
    ladder.put("planner.touched_ratio_vs_hash",
               touched / max(1e-9, moved["cluster.search_hash"].get(
                   "cluster.shards_queried", 0.0)), "ratio")
    ladder.put("planner.latency_ratio_vs_hash",
               learned_s / means["cluster.search_hash"], "ratio")
    ladder.put("planner.learn_s", ladder.stage_s("planner.learn"), "s")
    ladder.put("cluster.build_s", ladder.stage_s("cluster.build"), "s")
    ladder.put("cluster.rebalance_us_per_doc",
               pause.scaled / max(1, docs_moved) * 1e6, "us")
    ladder.notes["one_shard_ms"] = one_s * 1e3
    ladder.notes["rebalance_docs_moved"] = float(docs_moved)


def _mutation_rungs(ladder: Ladder, index, ranker, fresh, replayed_ops: int) -> None:
    run = ladder.run
    means, _ = ladder.rungs(
        "ladder.insert", {"core.insert": index.insert_document}, fresh)
    insert_s = means["core.insert"]
    means, got = ladder.rungs(
        "ladder.delete", {"core.delete": index.delete_document}, fresh)
    ladder.check(all(got["core.delete"]))
    ladder.put("core.insert_us", insert_s * 1e6, "us")
    ladder.put("core.delete_us", means["core.delete"] * 1e6, "us")

    store = os.path.join(run.tmp, "trace-store")
    wal = os.path.join(store, DurableIndex.WAL_NAME)
    with run.stage("core.recovery.create"):
        durable = DurableIndex.create(store, run.index)
    with closing(durable):
        before = os.path.getsize(wal)
        means, _ = ladder.rungs(
            "ladder.logged_insert",
            {"core.recovery.insert": durable.insert_document}, fresh)
        wal_bytes = os.path.getsize(wal) - before
    ladder.put("storage.wal_us_per_insert",
               (means["core.recovery.insert"] - insert_s) * 1e6, "us")
    ladder.put("storage.wal_bytes_per_insert", wal_bytes / len(fresh), "bytes")

    with run.stage("core.recovery.open"):
        durable = DurableIndex.open(store)
    with closing(durable):
        replayed = durable.last_report.records_replayed
        ladder.check(replayed == len(fresh))
        with run.stage("core.recovery.checkpoint"):
            durable.checkpoint()
        ratio = _replay_hit_ratio(run, durable, ranker, replayed_ops)
    open_s = ladder.stage_s("core.recovery.open")
    ladder.put("core.recovery.open_s", open_s, "s")
    ladder.put("core.recovery.replay_us_per_record",
               (open_s - ladder.stage_s("core.persistence.load"))
               / max(1, replayed) * 1e6, "us")
    ladder.put("core.recovery.checkpoint_s",
               ladder.stage_s("core.recovery.checkpoint"), "s")
    ladder.put("service.cache_hit_ratio", ratio, "ratio")
    low, high = REGIME[run.workload]
    ladder.check(low <= ratio <= high)


def _replay_hit_ratio(run: Run, durable, ranker, count: int) -> float:
    """Result-cache hit ratio of the workload's own stream: its warm-up,
    then its first ``count`` timed ops, through a default
    ``QueryService`` (on the durable store, so that the mutations of
    ``ingest-mixed`` are replayed too)."""
    stream = run.stream
    with QueryService(durable, ServiceConfig(), ranker=ranker) as service:
        def apply(op) -> None:
            kind, body = op
            if kind == "q":
                service.search(body)
            elif kind == "i":
                service.insert(body)
            else:
                service.delete(body)

        for conn in stream.warmup:
            for op in conn:
                apply(op)
        before = service.metrics_snapshot()["cache"]
        for op in stream.timed_ops()[:count]:
            apply(op)
        after = service.metrics_snapshot()["cache"]
    hits = after["hits"] - before["hits"]
    return hits / max(1, hits + after["misses"] - before["misses"])
