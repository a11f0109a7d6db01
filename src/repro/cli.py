"""Command-line interface: generate corpora, build, inspect and query.

Usage (also via ``python -m repro``):

    python -m repro generate --kind twitter --docs 2000 --out corpus.jsonl
    python -m repro build    --corpus corpus.jsonl --out city.i3ix
    python -m repro build    --corpus corpus.jsonl --durable-dir city.d/
    python -m repro recover  --dir city.d/
    python -m repro info     --index city.i3ix
    python -m repro query    --index city.i3ix --at 0.4,0.6 \
                             --words "spicy restaurant" --k 5 --semantics and
    python -m repro serve-bench --docs 2000 --queries 400 --workers 4 --json
    python -m repro serve    --index city.i3ix --port 7070 \
                             --tenants tenants.json --metrics-port 9100

Corpora are exchanged as JSON lines, one document per line:

    {"id": 7, "x": 0.41, "y": 0.63, "terms": {"spicy": 0.7, ...}}
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Iterable, List, Optional

from repro.core.index import I3Index
from repro.core.persistence import load_index, save_index
from repro.core.recovery import DurableIndex
from repro.datasets.generators import TwitterLikeGenerator, WikipediaLikeGenerator
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect

__all__ = ["main"]


def _write_corpus(
    documents: Iterable[SpatialDocument], out, timestamps=None
) -> int:
    count = 0
    for i, doc in enumerate(documents):
        record = {"id": doc.doc_id, "x": doc.x, "y": doc.y, "terms": dict(doc.terms)}
        if timestamps is not None:
            record["ts"] = timestamps[i]
        out.write(json.dumps(record) + "\n")
        count += 1
    return count


def _read_corpus_records(path: str):
    """JSONL corpus as ``(documents, timestamps)``; ``timestamps`` is
    ``None`` unless every record carries a ``ts`` field."""
    documents = []
    timestamps = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                documents.append(
                    SpatialDocument(
                        record["id"], record["x"], record["y"], record["terms"]
                    )
                )
                if "ts" in record:
                    timestamps.append(float(record["ts"]))
            except (KeyError, ValueError, TypeError) as exc:
                raise SystemExit(f"{path}:{line_no}: bad document record: {exc}")
    if timestamps and len(timestamps) != len(documents):
        raise SystemExit(
            f"{path}: {len(timestamps)} of {len(documents)} records carry a "
            "ts field — a temporal corpus must timestamp every document"
        )
    return documents, (timestamps if timestamps else None)


def _read_corpus(path: str) -> List[SpatialDocument]:
    return _read_corpus_records(path)[0]


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.scenario:
        from repro.datasets.generators import TEMPORAL_SCENARIOS

        corpus = TEMPORAL_SCENARIOS[args.scenario](
            args.docs, seed=args.seed, horizon=args.horizon
        )
        label = f"{args.scenario}-scenario"
    elif args.kind == "twitter":
        corpus = TwitterLikeGenerator(args.docs, seed=args.seed).generate()
        label = f"{args.kind}-like"
    else:
        corpus = WikipediaLikeGenerator(args.docs, seed=args.seed).generate()
        label = f"{args.kind}-like"
    if args.out == "-":
        count = _write_corpus(corpus.documents, sys.stdout, corpus.timestamps)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            count = _write_corpus(corpus.documents, fh, corpus.timestamps)
    print(
        f"generated {count} {label} documents "
        f"({len(corpus.vocabulary)} distinct keywords"
        + (", timestamped" if corpus.timestamps is not None else "")
        + f") -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if not args.out and not args.durable_dir and not args.temporal_dir:
        raise SystemExit("build needs --out, --durable-dir and/or --temporal-dir")
    documents, timestamps = _read_corpus_records(args.corpus)
    if not documents:
        raise SystemExit(f"{args.corpus}: no documents")
    if args.space:
        space = _parse_rect(args.space)
    else:
        xs = [d.x for d in documents]
        ys = [d.y for d in documents]
        space = Rect(min(xs), min(ys), max(xs) + 1e-9, max(ys) + 1e-9)
    if args.temporal_dir:
        from repro.temporal import TemporalConfig, TemporalDocument, TemporalIndex

        if timestamps is None:
            raise SystemExit(
                f"{args.corpus}: --temporal-dir needs a timestamped corpus "
                "(generate one with --scenario)"
            )
        temporal = TemporalIndex.build(
            space,
            (TemporalDocument(d, ts) for d, ts in zip(documents, timestamps)),
            TemporalConfig(
                slice_width=args.slice_width,
                retention_age=args.retention_age,
                page_size=args.page_size,
                eta=args.eta,
            ),
            durable_root=args.temporal_dir,
        )
        temporal.checkpoint()
        stats = temporal.slice_stats()
        temporal.close()
        print(
            f"built temporal index over {int(stats['documents'])} documents: "
            f"{int(stats['slices'])} slices "
            f"({int(stats['sealed_slices'])} sealed, "
            f"{int(stats['sealed_bytes']):,}B sealed pages); "
            f"saved -> {args.temporal_dir}/",
            file=sys.stderr,
        )
        if not args.out and not args.durable_dir:
            return 0
    index = I3Index(space, eta=args.eta, page_size=args.page_size)
    if args.incremental:
        for doc in documents:
            index.insert_document(doc)
    else:
        index.bulk_load(documents)
    destinations = []
    if args.out:
        save_index(index, args.out)
        destinations.append(args.out)
    if args.durable_dir:
        # Start a WAL-backed store: snapshot now, log future mutations.
        durable = DurableIndex.create(args.durable_dir, index)
        durable.close()
        destinations.append(f"{args.durable_dir}/ (durable store)")
    breakdown = ", ".join(f"{k}={v:,}B" for k, v in index.size_breakdown().items())
    print(
        f"built I3 over {index.num_documents} documents "
        f"({index.num_tuples} tuples); {breakdown}; "
        f"saved -> {' and '.join(destinations)}",
        file=sys.stderr,
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    try:
        durable = DurableIndex.open(args.dir)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    report = durable.last_report
    if not args.no_checkpoint:
        # Fold the replayed tail into a fresh snapshot so the next
        # recovery starts from here instead of replaying again.
        durable.checkpoint()
    durable.close()
    if args.json:
        payload = report.as_dict()
        payload["checkpointed"] = not args.no_checkpoint
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(
            f"recovered {report.num_documents} documents "
            f"({report.num_tuples} tuples) at epoch {report.epoch}"
        )
        print(
            f"snapshot covered LSN {report.snapshot_lsn}; "
            f"replayed {report.records_replayed} WAL records"
            + (
                f"; discarded {report.torn_bytes_discarded} torn tail bytes"
                if report.torn_bytes_discarded
                else ""
            )
        )
        if not args.no_checkpoint:
            print(f"checkpointed -> {args.dir}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    print(index.describe().render())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    x, y = _parse_point(args.at)
    words = tuple(args.words.split())
    if not words:
        raise SystemExit("--words must contain at least one keyword")
    semantics = Semantics.AND if args.semantics == "and" else Semantics.OR
    query = TopKQuery(x, y, words, k=args.k, semantics=semantics)
    ranker = Ranker(index.space, alpha=args.alpha)
    results = index.query(query, ranker, engine=args.engine)
    if args.json:
        json.dump(
            [{"doc_id": r.doc_id, "score": r.score} for r in results],
            sys.stdout,
        )
        print()
    else:
        if not results:
            print("(no results)")
        for rank, result in enumerate(results, start=1):
            print(f"{rank:>3}. doc {result.doc_id:<10} score {result.score:.6f}")
    reads = index.stats.reads()
    print(f"[{len(results)} results, {reads} page reads]", file=sys.stderr)
    return 0


def _serve_bench_queries(index: I3Index, args: argparse.Namespace) -> List[TopKQuery]:
    """A skewed request stream over the index's own vocabulary.

    Distinct query shapes are drawn from the indexed keywords; requests
    repeat them with a 1/rank (Zipf-like) skew so the hottest queries
    dominate — the workload property FAST exploits and the result cache
    is built for.
    """
    rng = random.Random(args.seed)
    words = sorted(word for word, _ in index.lookup.items())
    if not words:
        raise SystemExit("index has no keywords to query")
    semantics = Semantics.AND if args.semantics == "and" else Semantics.OR
    distinct = max(1, args.queries // max(1, args.skew))
    shapes = []
    for _ in range(distinct):
        qn = rng.randint(1, min(3, len(words)))
        shapes.append(
            TopKQuery(
                rng.uniform(index.space.min_x, index.space.max_x),
                rng.uniform(index.space.min_y, index.space.max_y),
                tuple(rng.sample(words, qn)),
                k=args.k,
                semantics=semantics,
            )
        )
    weights = [1.0 / rank for rank in range(1, len(shapes) + 1)]
    return rng.choices(shapes, weights=weights, k=args.queries)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network serving tier until interrupted (SIGINT/SIGTERM)."""
    import signal
    import threading

    from repro.net import (
        MetricsHTTPServer,
        NetServer,
        NetServerConfig,
        TenantDirectory,
    )
    from repro.service import QueryService, ServiceConfig

    if args.index:
        target = load_index(args.index)
        space = target.space
    elif args.durable_dir:
        target = DurableIndex.open(args.durable_dir)
        space = target.index.space
    elif getattr(args, "temporal_dir", None):
        from repro.temporal import TemporalIndex

        target = TemporalIndex.open(args.temporal_dir)
        space = target.space
    else:
        corpus = TwitterLikeGenerator(args.docs, seed=args.seed).generate()
        target = I3Index(corpus.space, page_size=args.page_size)
        target.bulk_load(corpus.documents)
        space = corpus.space
    if args.tenants:
        try:
            tenants = TenantDirectory.load(args.tenants)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--tenants: {exc}")
        roster = ", ".join(tenants.names)
    else:
        tenants = TenantDirectory.open()
        roster = "(open access — no API keys configured)"
    config = ServiceConfig(
        workers=args.workers,
        max_pending=max(args.max_pending, args.workers),
        timeout=args.timeout,
        cache_capacity=args.cache,
        metrics_seed=args.seed,
        engine=args.engine,
    )
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, request_stop)
    exporter = None
    with QueryService(target, config, ranker=Ranker(space, alpha=args.alpha)) as service:
        server = NetServer(
            service,
            tenants=tenants,
            config=NetServerConfig(
                host=args.host,
                port=args.port,
                max_frame=args.max_frame,
                read_timeout=args.read_timeout,
            ),
        ).start()
        try:
            if args.metrics_port is not None:
                exporter = MetricsHTTPServer(
                    service.metrics.render_prometheus,
                    host=args.host,
                    port=args.metrics_port,
                )
            if args.port_file:
                # Written only once everything is bound, so a supervisor
                # polling this file never dials a half-started server.
                with open(args.port_file, "w", encoding="utf-8") as fh:
                    json.dump(
                        {
                            "host": server.host,
                            "port": server.port,
                            "metrics_port": exporter.port if exporter else None,
                        },
                        fh,
                    )
                    fh.write("\n")
            print(
                f"serving on {server.host}:{server.port} "
                f"(workers={args.workers}, tenants: {roster})",
                file=sys.stderr,
            )
            if exporter is not None:
                print(f"metrics on {exporter.url}", file=sys.stderr)
            try:
                while not stop.is_set():
                    stop.wait(0.2)
            except KeyboardInterrupt:
                pass
            print("shutting down...", file=sys.stderr)
        finally:
            server.close()
            if exporter is not None:
                exporter.close()
            if args.metrics_out:
                with open(args.metrics_out, "w", encoding="utf-8") as fh:
                    fh.write(service.metrics.render_prometheus())
                print(f"prometheus metrics -> {args.metrics_out}", file=sys.stderr)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.service import QueryService, ServiceConfig

    if args.index:
        index = load_index(args.index)
        if args.buffer_pages and index.data.buffer is None:
            # Re-attach a buffer pool so workers share a page cache.
            from repro.storage.buffer import BufferPool

            index.data.buffer = BufferPool(index.data.file, args.buffer_pages)
            index.data.slotted.store = index.data.buffer
    else:
        corpus = TwitterLikeGenerator(args.docs, seed=args.seed).generate()
        index = I3Index(
            corpus.space,
            page_size=args.page_size,
            buffer_pages=args.buffer_pages or None,
        )
        index.bulk_load(corpus.documents)
    queries = _serve_bench_queries(index, args)
    config = ServiceConfig(
        workers=args.workers,
        max_pending=max(args.max_pending, args.workers),
        timeout=args.timeout,
        cache_capacity=args.cache,
        metrics_seed=args.seed,
        engine=args.engine,
    )
    ranker = Ranker(index.space, alpha=args.alpha)
    start = time.perf_counter()
    with QueryService(index, config, ranker=ranker) as service:
        exporter = None
        if args.metrics_port is not None:
            from repro.net import MetricsHTTPServer

            exporter = MetricsHTTPServer(
                service.metrics.render_prometheus, port=args.metrics_port
            )
            print(f"metrics on {exporter.url}", file=sys.stderr)
        try:
            service.search_batch(queries)
        finally:
            if exporter is not None:
                exporter.close()
        elapsed = time.perf_counter() - start
        snapshot = service.metrics_snapshot()
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(service.metrics.render_prometheus())
            print(f"prometheus metrics -> {args.metrics_out}", file=sys.stderr)
    snapshot["service"]["wall_seconds"] = elapsed
    snapshot["service"]["qps"] = len(queries) / elapsed if elapsed > 0 else 0.0
    if args.json:
        json.dump(snapshot, sys.stdout, indent=2)
        print()
    else:
        latency = snapshot["histograms"]["latency_ms"]
        wait = snapshot["histograms"]["queue_wait_ms"]
        print(
            f"{len(queries)} queries, {args.workers} workers: "
            f"{snapshot['service']['qps']:.0f} q/s in {elapsed:.2f}s"
        )
        print(
            f"latency ms  p50 {latency['p50']:.2f}  p95 {latency['p95']:.2f}  "
            f"p99 {latency['p99']:.2f}  (mean {latency['mean']:.2f})"
        )
        print(
            f"queue wait ms  p50 {wait['p50']:.2f}  p95 {wait['p95']:.2f}  "
            f"p99 {wait['p99']:.2f}"
        )
        cache = snapshot.get("cache")
        if cache:
            print(
                f"result cache: {cache['hits']} hits / "
                f"{cache['hits'] + cache['misses']} lookups "
                f"({100 * cache['hit_ratio']:.0f}%)"
            )
        pool = snapshot.get("buffer_pool")
        if pool:
            print(
                f"buffer pool: {pool['logical_reads']} logical reads, "
                f"{pool['misses']} misses ({100 * pool['hit_ratio']:.0f}% hit)"
            )
        decoded = snapshot.get("decoded_cells")
        if decoded and decoded["hits"] + decoded["misses"]:
            print(
                f"decoded cells: {decoded['hits']} hits / "
                f"{decoded['hits'] + decoded['misses']} asked for, "
                f"{decoded['entries']} kept in {decoded['bytes']} bytes, "
                f"{decoded['evictions']} evicted"
            )
    return 0


def _standing_queries(corpus, count: int, seed: int) -> List[TopKQuery]:
    """A mixed standing-query workload: FREQ-derived shapes with
    randomised k, alternating AND/OR semantics (alpha is randomised at
    registration time, per query)."""
    from repro.datasets.querylog import QueryLogGenerator

    rng = random.Random(seed)
    qlog = QueryLogGenerator(corpus, seed=seed)
    base: List[TopKQuery] = []
    qn = 1
    while len(base) < count:
        take = min(count - len(base), 100)
        base.extend(qlog.freq(1 + qn % 3, count=take, k=10).queries)
        qn += 1
    queries = []
    for i, query in enumerate(base[:count]):
        shaped = query.with_k(rng.choice((1, 5, 10, 20)))
        if i % 2:
            shaped = shaped.with_semantics(Semantics.AND)
        queries.append(shaped)
    return queries


def _cmd_stream_bench(args: argparse.Namespace) -> int:
    from repro.streaming import StreamConfig, StreamingService

    corpus = TwitterLikeGenerator(args.docs, seed=args.seed).generate()
    documents = corpus.documents
    primed = documents[: args.docs // 2]
    feed = documents[args.docs // 2 :]
    index = I3Index(corpus.space, page_size=args.page_size)
    if primed:
        index.bulk_load(primed)
    streams = StreamingService(
        index,
        StreamConfig(queue_capacity=args.queue_capacity, policy=args.policy),
    )
    sub = streams.subscribe("stream-bench")
    rng = random.Random(args.seed)
    for query in _standing_queries(corpus, args.standing, args.seed):
        streams.register(sub, query, alpha=rng.choice((0.2, 0.5, 0.8)))
    sub.poll()  # drain registration snapshots
    live = list(primed)
    delivered = 0
    mutations = 0
    start = time.perf_counter()
    for i, doc in enumerate(feed):
        index.insert_document(doc)
        live.append(doc)
        mutations += 1
        if args.delete_every and i % args.delete_every == args.delete_every - 1:
            index.delete_document(live.pop(rng.randrange(len(live))))
            mutations += 1
        delivered += len(sub.poll())
    elapsed = time.perf_counter() - start
    counters = streams.metrics.as_dict()["counters"]
    report = {
        "docs": args.docs,
        "standing_queries": args.standing,
        "mutations": mutations,
        "wall_seconds": elapsed,
        "mutations_per_second": mutations / elapsed if elapsed > 0 else 0.0,
        "updates_delivered": delivered,
        "updates_dropped": sub.dropped,
        "stream": {
            name: value
            for name, value in counters.items()
            if name.startswith("stream.")
        },
    }
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        print(
            f"{mutations} mutations against {args.standing} standing queries: "
            f"{report['mutations_per_second']:.0f} mutations/s in {elapsed:.2f}s"
        )
        print(
            f"delivered {delivered} updates ({sub.dropped} dropped); "
            f"{counters.get('stream.requeries', 0)} re-queries, "
            f"{counters.get('stream.buckets_skipped', 0)} buckets pruned, "
            f"{counters.get('stream.queries_touched', 0)} queries touched"
        )
    streams.close()
    return 0


def _shard_bench_queries(corpus, args: argparse.Namespace) -> List[TopKQuery]:
    """A skewed request stream over the corpus vocabulary (the cluster
    analogue of the serve-bench stream — same Zipf-like repetition)."""
    rng = random.Random(args.seed)
    words = sorted(corpus.vocabulary.words())
    if not words:
        raise SystemExit("corpus has no keywords to query")
    semantics = Semantics.AND if args.semantics == "and" else Semantics.OR
    distinct = max(1, args.queries // max(1, args.skew))
    shapes = []
    for _ in range(distinct):
        qn = rng.randint(1, min(3, len(words)))
        shapes.append(
            TopKQuery(
                rng.uniform(corpus.space.min_x, corpus.space.max_x),
                rng.uniform(corpus.space.min_y, corpus.space.max_y),
                tuple(rng.sample(words, qn)),
                k=args.k,
                semantics=semantics,
            )
        )
    weights = [1.0 / rank for rank in range(1, len(shapes) + 1)]
    return rng.choices(shapes, weights=weights, k=args.queries)


def _cmd_shard_bench(args: argparse.Namespace) -> int:
    from repro.cluster import (
        ClusterConfig,
        ClusterService,
        HashPartitioner,
        SpatialGridPartitioner,
    )
    from repro.service import ServiceConfig

    corpus = TwitterLikeGenerator(args.docs, seed=args.seed).generate()
    queries = _shard_bench_queries(corpus, args)
    if args.partitioner == "hash":
        partitioner = HashPartitioner(args.shards, corpus.space)
    elif args.partitioner == "spatial":
        partitioner = SpatialGridPartitioner.from_documents(
            args.shards, corpus.space, corpus.documents
        )
    else:
        from repro.planner import WorkloadModel, WorkloadPartitioner

        # Learn from the benchmark's own request stream — the offline
        # analogue of recording live traffic and running `repro plan`.
        partitioner = WorkloadPartitioner.learn(
            args.shards,
            corpus.space,
            corpus.documents,
            model=WorkloadModel.from_queries(queries, corpus.space),
        )
    config = ClusterConfig(
        replicas=args.replicas,
        scatter_width=args.scatter_width,
        cache_capacity=args.cache,
        shard_config=ServiceConfig(
            workers=args.workers, cache_capacity=0, metrics_seed=args.seed
        ),
        metrics_seed=args.seed,
    )
    ranker = Ranker(corpus.space, alpha=args.alpha)
    degraded = 0
    start = time.perf_counter()
    with ClusterService.build(
        corpus.documents, partitioner, config, ranker=ranker
    ) as cluster:
        exporter = None
        if args.metrics_port is not None:
            from repro.net import MetricsHTTPServer

            exporter = MetricsHTTPServer(
                cluster.metrics.render_prometheus, port=args.metrics_port
            )
            print(f"metrics on {exporter.url}", file=sys.stderr)
        try:
            kill_at = len(queries) // 2 if args.kill else None
            for i, query in enumerate(queries):
                if kill_at is not None and i == kill_at:
                    # Fault injection half-way: dead primaries exercise the
                    # failover path for the rest of the run.
                    for sid in range(min(args.kill, args.shards)):
                        cluster.replica(sid, 0).kill()
                if cluster.search(query).degraded:
                    degraded += 1
        finally:
            if exporter is not None:
                exporter.close()
        elapsed = time.perf_counter() - start
        snapshot = cluster.metrics_snapshot()
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(cluster.metrics.render_prometheus())
            print(f"prometheus metrics -> {args.metrics_out}", file=sys.stderr)
        if args.manifest_out:
            cluster.save_manifest(args.manifest_out)
    snapshot["cluster"]["wall_seconds"] = elapsed
    snapshot["cluster"]["qps"] = len(queries) / elapsed if elapsed > 0 else 0.0
    snapshot["cluster"]["degraded_answers"] = degraded
    if args.json:
        json.dump(snapshot, sys.stdout, indent=2)
        print()
    else:
        counters = snapshot["counters"]
        latency = snapshot["histograms"]["cluster.latency_ms"]
        route = snapshot["histograms"]["cluster.route_ms"]
        print(
            f"{len(queries)} queries over {args.shards} {args.partitioner} "
            f"shards x{args.replicas}: {snapshot['cluster']['qps']:.0f} q/s "
            f"in {elapsed:.2f}s"
        )
        print(
            f"latency ms  p50 {latency['p50']:.2f}  p95 {latency['p95']:.2f}  "
            f"p99 {latency['p99']:.2f}  (mean {latency['mean']:.2f})"
        )
        print(
            f"routing ms  p50 {route['p50']:.3f}  (mean {route['mean']:.3f})"
        )
        queried = counters.get("cluster.shards_queried", 0)
        pruned = counters.get("cluster.shards_pruned", 0)
        no_cand = counters.get("cluster.shards_no_candidates", 0)
        total = queried + pruned + no_cand
        skip_pct = 100.0 * (pruned + no_cand) / total if total else 0.0
        print(
            f"shard visits: {queried} queried, {pruned} bound-pruned, "
            f"{no_cand} keyword-absent ({skip_pct:.0f}% skipped)"
        )
        print(
            f"failovers: {counters.get('cluster.failovers', 0)}  "
            f"attempt failures: {counters.get('cluster.attempt_failures', 0)}  "
            f"degraded answers: {degraded}"
        )
        cache = snapshot.get("cache")
        if cache:
            print(
                f"result cache: {cache['hits']} hits / "
                f"{cache['hits'] + cache['misses']} lookups "
                f"({100 * cache['hit_ratio']:.0f}%)"
            )
        if args.manifest_out:
            print(f"manifest -> {args.manifest_out}", file=sys.stderr)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Learn a workload-aware shard placement offline.

    Reads a JSONL corpus plus (optionally) a query log persisted by
    :meth:`repro.planner.QueryLogRecorder.save`, learns a
    :class:`~repro.planner.WorkloadPartitioner`, and writes the shard
    manifest ``ClusterService.build``/``recover`` consume — the offline
    half of the record -> plan -> rebalance loop.
    """
    from repro.cluster import HashPartitioner
    from repro.cluster.partition import build_manifest
    from repro.planner import (
        QueryLogRecorder,
        WorkloadModel,
        WorkloadPartitioner,
        estimate_shards_touched,
    )

    documents = _read_corpus(args.corpus)
    recorder = None
    model = None
    if args.query_log:
        recorder = QueryLogRecorder.load(args.query_log)
        model = WorkloadModel.from_recorder(recorder)
        space = recorder.space
    else:
        try:
            values = tuple(float(v) for v in args.space.split(","))
            space = Rect(*values)
        except (TypeError, ValueError):
            raise SystemExit(
                f"bad --space {args.space!r}; expected minx,miny,maxx,maxy"
            )
    partitioner = WorkloadPartitioner.learn(
        args.shards, space, documents, model=model
    )
    counts = [0] * args.shards
    for doc in documents:
        counts[partitioner.shard_of(doc)] += 1
    manifest = build_manifest(partitioner, args.replicas, counts)
    manifest.save(args.out)
    report = {
        "shards": args.shards,
        "documents": len(documents),
        "shard_documents": counts,
        "recorded_queries": recorder.recorded if recorder is not None else 0,
        "query_shapes": len(model) if model is not None else 0,
        "manifest": args.out,
    }
    if model is not None and model.total_weight > 0:
        report["expected_shards_touched"] = round(
            estimate_shards_touched(partitioner, documents, model), 3
        )
        report["expected_shards_touched_hash"] = round(
            estimate_shards_touched(
                HashPartitioner(args.shards, space), documents, model
            ),
            3,
        )
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        print(
            f"planned {len(documents)} documents onto {args.shards} shards "
            f"(loads {counts}) -> {args.out}"
        )
        if model is not None and model.total_weight > 0:
            print(
                f"workload: {report['recorded_queries']} recorded queries, "
                f"{report['query_shapes']} shapes; expected shards touched "
                f"per query {report['expected_shards_touched']} "
                f"(hash placement: {report['expected_shards_touched_hash']})"
            )
        else:
            print(
                "no query log: balanced spatial packing only "
                "(pass --query-log to optimise for a workload)"
            )
    return 0


def _cmd_temporal_bench(args: argparse.Namespace) -> int:
    """Demonstrate slice-level pruning and O(slices) retention."""
    import random
    import time

    from repro.datasets.generators import TEMPORAL_SCENARIOS
    from repro.temporal import (
        RecencySpec,
        TemporalConfig,
        TemporalIndex,
        TemporalQuery,
        TimeRange,
    )

    corpus = TEMPORAL_SCENARIOS[args.scenario](
        args.docs, seed=args.seed, horizon=args.horizon
    )
    config = TemporalConfig(
        slice_width=args.slice_width,
        retention_age=args.hot_window * args.slice_width,
        page_size=args.page_size,
    )
    build_start = time.perf_counter()
    index = TemporalIndex.build(corpus.space, corpus.temporal_documents(), config)
    index.advance(args.horizon)  # everything before "now" seals
    build_s = time.perf_counter() - build_start
    ranker = Ranker(corpus.space, alpha=args.alpha)
    rng = random.Random(("temporal-bench", args.seed).__repr__())
    keywords = corpus.most_frequent_keywords(60)
    locations = corpus.sample_locations(rng, args.queries)
    half_life = args.half_life if args.half_life else args.slice_width
    window = TimeRange(
        args.horizon - args.hot_window * args.slice_width, args.horizon
    )
    query_start = time.perf_counter()
    for x, y in locations:
        words = tuple(rng.sample(keywords, rng.randint(1, 3)))
        index.query(
            TemporalQuery(
                TopKQuery(x, y, words, k=args.k),
                time_range=window,
                recency=RecencySpec(half_life, args.horizon),
            ),
            ranker,
        )
    query_s = time.perf_counter() - query_start
    stats = index.slice_stats()
    # Retention: expire everything outside the hot window and time it.
    docs_before = index.num_documents
    retain_start = time.perf_counter()
    dropped = index.expire()
    retention_s = time.perf_counter() - retain_start
    report = {
        "scenario": args.scenario,
        "documents": args.docs,
        "slices": int(stats["slices"]),
        "sealed_slices": int(stats["sealed_slices"]),
        "build_s": round(build_s, 4),
        "queries": args.queries,
        "qps": round(args.queries / query_s, 1) if query_s > 0 else None,
        "sealed_skip_ratio": round(stats["skip_ratio"], 4),
        "retention": {
            "slices_dropped": len(dropped),
            "documents_dropped": docs_before - index.num_documents,
            "seconds": round(retention_s, 6),
        },
    }
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        print(
            f"{args.scenario}: {args.docs} docs in {report['slices']} slices "
            f"({report['sealed_slices']} sealed), built in {build_s:.2f}s"
        )
        print(
            f"hot-window queries ({args.queries}, last "
            f"{args.hot_window:g} slices): {report['qps']} qps, "
            f"sealed-slice skip ratio {report['sealed_skip_ratio']:.2f}"
        )
        print(
            f"retention: dropped {len(dropped)} slices "
            f"({report['retention']['documents_dropped']} docs) in "
            f"{retention_s * 1000:.2f} ms — O(slices), no per-doc deletes"
        )
    return 0


def _cmd_simtest(args: argparse.Namespace) -> int:
    import os

    from repro.simtest import (
        generate_trace,
        load_trace,
        run_seed,
        run_trace,
        save_trace,
        shrink_failure,
    )

    def emit(payload: dict, text: str) -> None:
        print(json.dumps(payload) if args.json else text)

    def save_failure(trace: dict, invariant: str, label: str) -> str:
        os.makedirs(args.trace_dir, exist_ok=True)
        path = os.path.join(args.trace_dir, f"{label}-{invariant}.json")
        save_trace(trace, path)
        return path

    # --replay: re-execute a saved trace exactly.
    if args.replay:
        trace = load_trace(args.replay)
        report = run_trace(trace, inject_bug=args.inject_bug)
        if report.ok:
            emit(
                {"replay": args.replay, "ok": True, "hash": report.run_hash},
                f"replay {args.replay}: ok ({report.steps_run} steps, "
                f"hash {report.run_hash[:12]})",
            )
            return 0
        emit(
            {
                "replay": args.replay,
                "ok": False,
                "invariant": report.failure.invariant,
                "step": report.failure.step_index,
                "detail": report.failure.detail,
            },
            f"replay {args.replay}: FAILED [{report.failure.invariant}] at "
            f"step {report.failure.step_index}\n{report.failure.detail}",
        )
        return 1

    # --inject-bug: canary mode — prove the harness catches a known-bad
    # code path, then prove the shrunk trace still reproduces it.
    if args.inject_bug:
        start = args.seed if args.seed is not None else 0
        caught = None
        for seed in range(start, start + args.seeds):
            report = run_seed(seed, steps=args.steps, inject_bug=args.inject_bug)
            if not report.ok:
                caught = report
                break
        if caught is None:
            emit(
                {"bug": args.inject_bug, "caught": False, "seeds": args.seeds},
                f"canary FAILED: {args.inject_bug} not caught in "
                f"{args.seeds} seeds",
            )
            return 1
        invariant = caught.failure.invariant
        shrunk = shrink_failure(
            caught.trace, invariant, inject_bug=args.inject_bug
        )
        replayed = run_trace(shrunk, inject_bug=args.inject_bug)
        same = (
            replayed.failure is not None
            and replayed.failure.invariant == invariant
        )
        path = save_failure(shrunk, invariant, f"bug-{args.inject_bug}")
        emit(
            {
                "bug": args.inject_bug,
                "caught": True,
                "seed": caught.seed,
                "invariant": invariant,
                "shrunk_steps": len(shrunk["steps"]),
                "original_steps": shrunk["shrunk_from"],
                "replay_same_failure": same,
                "trace": path,
            },
            f"canary ok: {args.inject_bug} caught at seed {caught.seed} "
            f"[{invariant}], shrunk {shrunk['shrunk_from']} -> "
            f"{len(shrunk['steps'])} steps, replay "
            f"{'reproduces' if same else 'DIVERGED'} ({path})",
        )
        return 0 if same else 1

    # Fuzz a seed range.  --seed shifts the start (disjoint nightly
    # sweeps); --seed N --seeds 1 runs exactly one seed.
    start = args.seed if args.seed is not None else 0
    seeds = list(range(start, start + args.seeds))
    modes = {"single": 0, "cluster": 0}
    for seed in seeds:
        report = run_seed(seed, steps=args.steps, mode=args.mode)
        if args.check_determinism and report.ok:
            again = run_trace(generate_trace(seed, steps=args.steps, mode=args.mode))
            if again.run_hash != report.run_hash:
                emit(
                    {"seed": seed, "ok": False, "nondeterministic": True,
                     "hashes": [report.run_hash, again.run_hash]},
                    f"seed {seed}: NONDETERMINISTIC "
                    f"({report.run_hash[:12]} != {again.run_hash[:12]})",
                )
                return 1
        if not report.ok:
            invariant = report.failure.invariant
            shrunk = shrink_failure(report.trace, invariant)
            path = save_failure(shrunk, invariant, f"seed{seed}")
            emit(
                {
                    "seed": seed,
                    "ok": False,
                    "invariant": invariant,
                    "step": report.failure.step_index,
                    "detail": report.failure.detail,
                    "shrunk_steps": len(shrunk["steps"]),
                    "trace": path,
                },
                f"seed {seed} ({report.mode}): FAILED [{invariant}] at step "
                f"{report.failure.step_index}\n{report.failure.detail}\n"
                f"shrunk repro ({len(shrunk['steps'])} steps) saved; "
                f"replay with: repro simtest --replay {path}",
            )
            return 1
        modes[report.mode] += 1
    emit(
        {"ok": True, "seeds": len(seeds), **modes},
        f"{len(seeds)} seeds ok ({modes['single']} single, "
        f"{modes['cluster']} cluster"
        + (", determinism checked" if args.check_determinism else "")
        + ")",
    )
    return 0


def _parse_point(text: str):
    try:
        x_str, y_str = text.split(",")
        return float(x_str), float(y_str)
    except ValueError:
        raise SystemExit(f"bad point {text!r}; expected X,Y")


def _parse_rect(text: str) -> Rect:
    try:
        parts = [float(p) for p in text.split(",")]
        min_x, min_y, max_x, max_y = parts
        return Rect(min_x, min_y, max_x, max_y)
    except ValueError:
        raise SystemExit(f"bad rectangle {text!r}; expected minX,minY,maxX,maxY")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="I3 top-k spatial keyword search (EDBT 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("--kind", choices=["twitter", "wikipedia"], default="twitter")
    generate.add_argument("--docs", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--scenario", choices=["time-skewed", "burst"],
        help="temporal arrival scenario: timestamp every document "
        "(records gain a ts field)",
    )
    generate.add_argument(
        "--horizon", type=float, default=86400.0,
        help="time span of the temporal scenarios, seconds (default 1 day)",
    )
    generate.add_argument("--out", default="-", help="output path or - for stdout")
    generate.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="build and save an I3 index")
    build.add_argument("--corpus", required=True, help="JSON-lines corpus path")
    build.add_argument("--out", help="index snapshot output path (.i3ix)")
    build.add_argument(
        "--temporal-dir",
        help="build a time-sliced temporal index from a timestamped corpus "
        "into this directory",
    )
    build.add_argument(
        "--slice-width", type=float, default=3600.0,
        help="temporal slice width, seconds (default 1 hour)",
    )
    build.add_argument(
        "--retention-age", type=float, default=None,
        help="drop slices older than this behind the watermark, seconds "
        "(default: keep forever)",
    )
    build.add_argument(
        "--durable-dir",
        help="also start a WAL-backed durable store in this directory "
        "(recoverable with `repro recover`)",
    )
    build.add_argument("--eta", type=int, default=300)
    build.add_argument("--page-size", type=int, default=4096)
    build.add_argument(
        "--space", help="data space as minX,minY,maxX,maxY (default: bounding box)"
    )
    build.add_argument(
        "--incremental",
        action="store_true",
        help="insert one document at a time instead of bulk loading",
    )
    build.set_defaults(func=_cmd_build)

    info = sub.add_parser("info", help="print an index's structural report")
    info.add_argument("--index", required=True)
    info.set_defaults(func=_cmd_info)

    recover = sub.add_parser(
        "recover",
        help="recover a durable store: verify checksums, replay the WAL tail",
    )
    recover.add_argument(
        "--dir", required=True, help="durable store directory (snapshot + WAL)"
    )
    recover.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="report only; do not fold the replayed tail into a new snapshot",
    )
    recover.add_argument("--json", action="store_true", help="JSON report")
    recover.set_defaults(func=_cmd_recover)

    query = sub.add_parser("query", help="run a top-k query against an index")
    query.add_argument("--index", required=True)
    query.add_argument("--at", required=True, help="query location X,Y")
    query.add_argument("--words", required=True, help="space-separated keywords")
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--semantics", choices=["and", "or"], default="or")
    query.add_argument("--alpha", type=float, default=0.5)
    query.add_argument(
        "--engine",
        choices=["tuple", "vector"],
        default=None,
        help="execution engine (default: vector when numpy is "
        "available, else tuple; REPRO_ENGINE overrides)",
    )
    query.add_argument("--json", action="store_true", help="JSON output")
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve-bench",
        help="drive the concurrent query service and report serving metrics",
    )
    source = serve.add_mutually_exclusive_group()
    source.add_argument("--index", help="existing .i3ix index to serve")
    source.add_argument(
        "--docs", type=int, default=2000,
        help="size of the generated twitter-like corpus (when no --index)",
    )
    serve.add_argument("--queries", type=int, default=400, help="requests to issue")
    serve.add_argument(
        "--skew", type=int, default=4,
        help="requests per distinct query shape (higher = hotter workload)",
    )
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--semantics", choices=["and", "or"], default="or")
    serve.add_argument("--alpha", type=float, default=0.5)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--max-pending", type=int, default=1024,
        help="admission limit (queued + running queries)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, help="per-query deadline in seconds"
    )
    serve.add_argument(
        "--cache", type=int, default=256,
        help="result-cache entries (0 disables the cache)",
    )
    serve.add_argument("--buffer-pages", type=int, default=1024,
                       help="shared buffer-pool pages (0 = unbuffered)")
    serve.add_argument("--page-size", type=int, default=4096)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--engine",
        choices=["tuple", "vector"],
        default=None,
        help="execution engine for every worker (default: vector when "
        "numpy is available, else tuple; REPRO_ENGINE overrides)",
    )
    serve.add_argument("--json", action="store_true", help="JSON metrics output")
    serve.add_argument(
        "--metrics-out",
        default=None,
        help="write the Prometheus text exposition of the run's metrics here",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve /metrics and /healthz over HTTP on this port during "
        "the run (0 = ephemeral)",
    )
    serve.set_defaults(func=_cmd_serve_bench)

    server = sub.add_parser(
        "serve",
        help="run the network serving tier: length-prefixed JSON over TCP "
        "with per-tenant admission (see docs/wire_protocol.md)",
    )
    server_source = server.add_mutually_exclusive_group()
    server_source.add_argument("--index", help="existing .i3ix index to serve")
    server_source.add_argument(
        "--durable-dir", help="WAL-backed durable store directory to serve"
    )
    server_source.add_argument(
        "--temporal-dir",
        help="time-sliced temporal index directory to serve "
        "(accepts time_range/recency query fields)",
    )
    server_source.add_argument(
        "--docs", type=int, default=2000,
        help="size of the generated twitter-like corpus (when no --index)",
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument(
        "--port", type=int, default=7070,
        help="TCP port (0 = OS-chosen ephemeral; see --port-file)",
    )
    server.add_argument(
        "--tenants",
        help="tenant roster JSON ({\"tenants\": [{name, api_key, rate, "
        "burst, ...}]}); omitted = open access",
    )
    server.add_argument(
        "--port-file",
        help="write the bound address as JSON here once ready "
        "(supervisors and tests poll this)",
    )
    server.add_argument("--workers", type=int, default=4)
    server.add_argument(
        "--max-pending", type=int, default=1024,
        help="service-wide admission limit (queued + running queries)",
    )
    server.add_argument(
        "--timeout", type=float, default=None,
        help="per-query deadline in seconds (service-side)",
    )
    server.add_argument(
        "--cache", type=int, default=256,
        help="result-cache entries (0 disables the cache)",
    )
    server.add_argument(
        "--max-frame", type=int, default=1 << 20,
        help="largest request/response frame in bytes",
    )
    server.add_argument(
        "--read-timeout", type=float, default=30.0,
        help="idle seconds before a connection is dropped",
    )
    server.add_argument("--alpha", type=float, default=0.5)
    server.add_argument("--page-size", type=int, default=4096)
    server.add_argument("--seed", type=int, default=0)
    server.add_argument(
        "--engine",
        choices=["tuple", "vector"],
        default=None,
        help="execution engine for every worker (default: vector when "
        "numpy is available, else tuple; REPRO_ENGINE overrides)",
    )
    server.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve /metrics and /healthz over HTTP on this port "
        "(0 = ephemeral; the main port answers them too)",
    )
    server.add_argument(
        "--metrics-out",
        default=None,
        help="write the final Prometheus exposition here on shutdown",
    )
    server.set_defaults(func=_cmd_serve)

    stream = sub.add_parser(
        "stream-bench",
        help="ingest a live document feed against standing top-k queries "
        "and report streaming metrics",
    )
    stream.add_argument(
        "--docs", type=int, default=2000,
        help="twitter-like corpus size (half primes the index, half streams)",
    )
    stream.add_argument(
        "--standing", type=int, default=200,
        help="standing queries registered before the feed starts",
    )
    stream.add_argument(
        "--delete-every", type=int, default=25,
        help="interleave one deletion every N inserts (0 disables)",
    )
    stream.add_argument(
        "--queue-capacity", type=int, default=256,
        help="bounded subscription queue depth",
    )
    stream.add_argument(
        "--policy", choices=["coalesce", "drop_oldest"], default="coalesce",
        help="subscription overflow policy",
    )
    stream.add_argument("--page-size", type=int, default=4096)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--json", action="store_true", help="JSON report")
    stream.set_defaults(func=_cmd_stream_bench)

    shard = sub.add_parser(
        "shard-bench",
        help="drive a sharded cluster and report scatter-gather metrics",
    )
    shard.add_argument(
        "--docs", type=int, default=2000,
        help="size of the generated twitter-like corpus",
    )
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--replicas", type=int, default=1)
    shard.add_argument(
        "--partitioner", choices=["hash", "spatial", "workload"], default="hash"
    )
    shard.add_argument(
        "--scatter-width", type=int, default=2,
        help="shards queried concurrently per gather wave",
    )
    shard.add_argument("--queries", type=int, default=400)
    shard.add_argument(
        "--skew", type=int, default=4,
        help="requests per distinct query shape (higher = hotter workload)",
    )
    shard.add_argument("--k", type=int, default=10)
    shard.add_argument("--semantics", choices=["and", "or"], default="or")
    shard.add_argument("--alpha", type=float, default=0.5)
    shard.add_argument(
        "--workers", type=int, default=2, help="query workers per shard replica"
    )
    shard.add_argument(
        "--cache", type=int, default=256,
        help="cluster result-cache entries (0 disables)",
    )
    shard.add_argument(
        "--kill", type=int, default=0,
        help="primaries to kill half-way through (exercises failover; "
        "needs --replicas >= 2 to stay non-degraded)",
    )
    shard.add_argument(
        "--manifest-out", help="write the shard manifest JSON here"
    )
    shard.add_argument(
        "--metrics-out",
        default=None,
        help="write the Prometheus text exposition of the run's metrics here",
    )
    shard.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve /metrics and /healthz over HTTP on this port during "
        "the run (0 = ephemeral)",
    )
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--json", action="store_true", help="JSON metrics output")
    shard.set_defaults(func=_cmd_shard_bench)

    temporal = sub.add_parser(
        "temporal-bench",
        help="demo temporal slicing: hot-window pruning and O(slices) retention",
    )
    temporal.add_argument(
        "--scenario", choices=["time-skewed", "burst"], default="time-skewed"
    )
    temporal.add_argument("--docs", type=int, default=4000)
    temporal.add_argument("--seed", type=int, default=0)
    temporal.add_argument(
        "--horizon", type=float, default=86400.0,
        help="corpus time span, seconds (default 1 day)",
    )
    temporal.add_argument(
        "--slice-width", type=float, default=3600.0,
        help="slice width, seconds (default 1 hour)",
    )
    temporal.add_argument("--queries", type=int, default=200)
    temporal.add_argument("--k", type=int, default=10)
    temporal.add_argument("--alpha", type=float, default=0.5)
    temporal.add_argument("--page-size", type=int, default=1024)
    temporal.add_argument(
        "--hot-window", type=float, default=2.0,
        help="queried window, in slice widths back from now (default 2)",
    )
    temporal.add_argument(
        "--half-life", type=float, default=None,
        help="recency half-life, seconds (default: one slice width)",
    )
    temporal.add_argument("--json", action="store_true", help="JSON report")
    temporal.set_defaults(func=_cmd_temporal_bench)

    simtest = sub.add_parser(
        "simtest",
        help="seeded whole-system simulation: fuzz, replay, or run canaries",
    )
    simtest.add_argument(
        "--seeds", type=int, default=20,
        help="number of seeds to fuzz (with --inject-bug: seeds scanned)",
    )
    simtest.add_argument(
        "--seed", type=int,
        help="first seed of the range (with --seeds 1: exactly this seed)",
    )
    simtest.add_argument(
        "--steps", type=int, help="override the per-trace step count"
    )
    simtest.add_argument(
        "--mode", choices=["single", "cluster"],
        help="force the workload mode (default: seed-chosen, ~25%% cluster)",
    )
    simtest.add_argument(
        "--replay", metavar="TRACE",
        help="re-execute a saved failure trace instead of fuzzing",
    )
    simtest.add_argument(
        "--inject-bug",
        choices=["lost-wal-record", "stale-cache", "dropped-push",
                 "stale-slice", "vector-skew", "stale-decoded-cell",
                 "lost-shard-route",
                 "silent-shard-drop", "stuck-scatter"],
        help="canary mode: flip a known-bad code path and assert the "
        "harness catches it (and that the shrunk trace still fails)",
    )
    simtest.add_argument(
        "--check-determinism", action="store_true",
        help="run every passing seed twice and compare run hashes",
    )
    simtest.add_argument(
        "--trace-dir", default="simtraces",
        help="directory for shrunk failure traces (default: simtraces/)",
    )
    simtest.add_argument("--json", action="store_true", help="JSON output")
    simtest.set_defaults(func=_cmd_simtest)

    plan = sub.add_parser(
        "plan",
        help="learn a workload-aware shard placement from a query log "
        "and write its shard manifest",
    )
    plan.add_argument(
        "--corpus", required=True, help="JSONL corpus to place onto shards"
    )
    plan.add_argument("--shards", type=int, default=4)
    plan.add_argument(
        "--replicas", type=int, default=1,
        help="replica count recorded in the manifest",
    )
    plan.add_argument(
        "--query-log",
        help="query log JSON written by the service recorder; omitted = "
        "balanced spatial packing with no workload signal",
    )
    plan.add_argument(
        "--space", default="0,0,1,1",
        help="data space as minx,miny,maxx,maxy (ignored when --query-log "
        "carries the recorded space)",
    )
    plan.add_argument(
        "--out", required=True, help="shard manifest JSON output path"
    )
    plan.add_argument("--json", action="store_true", help="JSON report")
    plan.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    raise SystemExit(main())
