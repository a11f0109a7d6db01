"""Command-line interface: generate corpora, build, inspect and query.

Usage (also via ``python -m repro``):

    python -m repro generate --kind twitter --docs 2000 --out corpus.jsonl
    python -m repro build    --corpus corpus.jsonl --out city.i3ix
    python -m repro build    --corpus corpus.jsonl --durable-dir city.d/
    python -m repro recover  --dir city.d/
    python -m repro info     --index city.i3ix
    python -m repro query    --index city.i3ix --at 0.4,0.6 \
                             --words "spicy restaurant" --k 5 --semantics and
    python -m repro serve    --index city.i3ix --port 7070 \
                             --tenants tenants.json

Corpora are exchanged as JSON lines, one document per line:

    {"id": 7, "x": 0.41, "y": 0.63, "terms": {"spicy": 0.7, ...}}
"""

from __future__ import annotations

import argparse
import json
import sys
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
    results = index.query(query, ranker)
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


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network serving tier until interrupted (SIGINT/SIGTERM)."""
    import signal
    import threading

    from repro.net import NetServer, NetServerConfig, TenantDirectory
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
        max_pending=args.max_pending,
        timeout=args.timeout,
        cache_capacity=args.cache,
        metrics_seed=args.seed,
    )
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, request_stop)
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
            if args.port_file:
                # Written only once the server is bound, so a supervisor
                # polling this file never dials a half-started server.
                with open(args.port_file, "w", encoding="utf-8") as fh:
                    json.dump({"host": server.host, "port": server.port}, fh)
                    fh.write("\n")
            print(
                f"serving on {server.host}:{server.port} "
                f"(tenants: {roster}; GET /metrics and /healthz on the same port)",
                file=sys.stderr,
            )
            try:
                while not stop.is_set():
                    stop.wait(0.2)
            except KeyboardInterrupt:
                pass
            print("shutting down...", file=sys.stderr)
        finally:
            server.close()
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
    query.add_argument("--json", action="store_true", help="JSON output")
    query.set_defaults(func=_cmd_query)

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
    server.set_defaults(func=_cmd_serve)

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
