"""The untraced run: set-up, the four closed-loop workloads, their checks.

Load comes from this process: one client thread per connection, each
sending its next op only after the previous one answered.  A run is
``Run.prepare`` (generate, ``bulk_load``, ``save_index`` — the same
for every workload), the workload's own set-up (server start, durable
store, placement learning and cluster build), an untimed warm-up, and
``rounds`` timed rounds of identical mix with the calibration kernel
between them.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import ladder_inputs as inputs
from ladder_api import (
    ROOT,
    SRC,
    Client,
    ClusterConfig,
    ClusterService,
    DurableIndex,
    I3Index,
    Rect,
    Semantics,
    WorkloadModel,
    WorkloadPartitioner,
    save_index,
)
from ladder_timing import Calibrator, Timed, Tracer, quantile
from ladder_verify import Oracle, well_formed

SHARDS = 4
PAGE_SIZE = 4096
IGNORED_ENV = ("REPRO_ENGINE", "REPRO_BENCH_PROFILE")
_WAIT_S = 170.0  # under the contract's 180 s ceiling for one run


@dataclass(frozen=True)
class Profile:
    docs: int
    rounds: int
    seconds: float


class Run:
    """What one benchmark run shares between set-up, load and checks."""

    def __init__(self, workload: str, seed: int, profile: Profile,
                 pins: Dict, out_dir: str, tmp: str) -> None:
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.pins = pins
        self.out_dir = out_dir
        self.tmp = tmp
        self.cal = Calibrator(pins["calib_ref_s"])
        self.tracer = Tracer()
        self.stages: Dict[str, Timed] = {}
        self.snapshot = os.path.join(tmp, "corpus.i3ix")
        self.digests: Dict[str, str] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[Timed]:
        """A set-up call (or a ladder rung): one span, timed at
        reference speed."""
        with self.cal.timed() as box, self.tracer.span(name):
            yield box
        self.stages[name] = box

    def prepare(self) -> None:
        """Corpus, index, snapshot, op stream, oracle."""
        profile = self.profile
        with self.stage("datasets.generate"):
            self.corpus = inputs.make_corpus(profile.docs)
        with self.stage("core.bulk_load"):
            self.index = I3Index(self.corpus.space, page_size=PAGE_SIZE)
            self.index.bulk_load(self.corpus.documents)
        with self.stage("core.persistence.save"):
            save_index(self.index, self.snapshot)
        self.snapshot_mb = os.path.getsize(self.snapshot) / 1e6
        self.view = inputs.CorpusView(self.corpus)
        self.stream = inputs.GENERATORS[self.workload](
            self.view, self.seed, profile.seconds, profile.rounds
        )
        self.digests = {
            "corpus": inputs.digest_corpus(self.corpus.documents),
            self.workload: inputs.digest_stream(self.stream),
        }
        inputs.check_pins(self.pins, profile.docs, self.seed,
                          profile.seconds, self.digests)
        self.oracle = Oracle(self.corpus.documents, self.corpus.space)

    def setup_seconds(self, scaled: bool = True) -> float:
        return sum(b.scaled if scaled else b.raw for b in self.stages.values())


# ----------------------------------------------------------------------
# The serving child process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` as a child, gone on every exit path."""

    def __init__(self, run: Run, source: List[str]) -> None:
        self._port_file = os.path.join(run.tmp, "port.json")
        self._log_path = os.path.join(run.out_dir, f"server-{run.workload}.log")
        self._argv = [
            sys.executable, "-m", "repro", "serve", *source,
            "--port", "0", "--port-file", self._port_file,
        ]
        self._proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        env = {k: v for k, v in os.environ.items() if k not in IGNORED_ENV}
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
        with open(self._log_path, "wb") as log:
            self._proc = subprocess.Popen(
                self._argv, stdout=log, stderr=log, env=env, cwd=ROOT
            )
        deadline = time.monotonic() + 60.0
        while True:
            if os.path.exists(self._port_file) and os.path.getsize(self._port_file):
                break
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(
                    f"`{' '.join(self._argv[1:])}` did not come up; "
                    f"see {self._log_path}"
                )
            time.sleep(0.01)
        with open(self._port_file, encoding="utf-8") as fh:
            bound = json.load(fh)
        self.host, self.port = bound["host"], bound["port"]

    def client(self) -> Client:
        # retries=0: an error, refusal or timeout is counted, never hidden.
        return Client(self.host, self.port, retries=0)

    def rss_mb(self) -> float:
        return peak_rss_mb(self._proc.pid)

    def reads(self) -> Tuple[float, float]:
        """Lifetime ``io.reads_per_query`` sum and count of the server."""
        with self.client() as client:
            text = client.metrics_text()
        found = dict(re.findall(
            r"^repro_io_reads_per_query_(sum|count) (\S+)$", text, re.M
        ))
        return float(found["sum"]), float(found["count"])

    def close(self) -> None:
        """SIGKILL the child (no graceful shutdown is being measured)."""
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class _WireSession:
    def __init__(self, server: Server) -> None:
        self._client = server.client()

    def run(self, op):
        kind, body = op
        if kind == "q":
            return self._client.search(body)
        if kind == "i":
            return self._client.insert(body)
        return self._client.delete(body)

    def close(self) -> None:
        self._client.close()


class _ClusterSession:
    def __init__(self, cluster: ClusterService) -> None:
        self._cluster = cluster

    def run(self, op):
        answer = self._cluster.search(op[1])
        if answer.degraded:
            raise RuntimeError(f"degraded answer, shards {answer.failed_shards}")
        return answer.results

    def close(self) -> None:
        pass


def answered_well(op, outcome) -> bool:
    """An op fails when it raised, when ``drive``'s judge said
    ``False``, or when a query's answer is not well formed."""
    if isinstance(outcome, BaseException) or outcome is False:
        return False
    if op[0] == "q" and outcome is not True:
        return well_formed(outcome, op[1].k)
    return True


@dataclass
class Load:
    """What the timed rounds produced.  A record is ``(op, seconds,
    outcome)``; the outcome is the answer, or the exception raised."""

    walls: List[Timed] = field(default_factory=list)
    records: List[List[Tuple]] = field(default_factory=list)  # per round

    def latencies_ms(self, kinds: str, scaled: bool = True) -> List[float]:
        """Sorted latencies (at reference speed unless ``scaled`` is off)
        of the ops whose kind is in ``kinds`` and that answered well."""
        return sorted(
            seconds * (wall.factor if scaled else 1.0) * 1e3
            for wall, records in zip(self.walls, self.records)
            for op, seconds, outcome in records
            if op[0] in kinds and answered_well(op, outcome)
        )

    def round_qps(self) -> List[float]:
        """Per round, at reference speed: ops that answered well per second."""
        return [
            sum(answered_well(op, out) for op, _s, out in records) / wall.scaled
            for wall, records in zip(self.walls, self.records)
        ]

    def all_records(self) -> List[Tuple]:
        return [rec for records in self.records for rec in records]


def drive(run: Run, session_for: Callable[[int], object],
          judge: Optional[Callable] = None) -> Load:
    """Warm up, then run the stream's rounds on one thread per connection.

    ``judge(op, answer)`` replaces an answer by what is kept of it; it
    runs between ops, outside every latency sample.
    """
    stream = run.stream
    rounds = len(stream.rounds)
    gate = threading.Barrier(inputs.CONNECTIONS + 1)
    kept: List[List[List[Tuple]]] = [
        [[] for _ in range(inputs.CONNECTIONS)] for _ in range(rounds)
    ]
    crashes: List[BaseException] = []

    def connection(conn: int) -> None:
        try:
            session = session_for(conn)
            try:
                for op in stream.warmup[conn]:
                    session.run(op)
                gate.wait(_WAIT_S)
                for rnd in range(rounds):
                    records = kept[rnd][conn]
                    gate.wait(_WAIT_S)
                    for op in stream.rounds[rnd][conn]:
                        start = time.perf_counter()
                        try:
                            outcome = session.run(op)
                        except Exception as exc:  # counted as a failed op
                            outcome = exc
                        seconds = time.perf_counter() - start
                        if judge is not None and not isinstance(outcome, Exception):
                            outcome = judge(op, outcome)
                        records.append((op, seconds, outcome))
                    gate.wait(_WAIT_S)
            finally:
                session.close()
        except threading.BrokenBarrierError:
            pass  # another thread failed first
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            crashes.append(exc)
            gate.abort()

    threads = [
        threading.Thread(target=connection, args=(conn,), daemon=True)
        for conn in range(inputs.CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    load = Load()
    try:
        gate.wait(_WAIT_S)  # warm-up done
        for rnd in range(rounds):
            with run.cal.timed() as wall:
                gate.wait(_WAIT_S)
                gate.wait(_WAIT_S)
            load.walls.append(wall)
            load.records.append([rec for conn in kept[rnd] for rec in conn])
    except BaseException:
        gate.abort()
        raise
    finally:
        for thread in threads:
            thread.join(_WAIT_S)
        if crashes:
            raise crashes[0]
    return load


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    load: Load
    reads: float
    queries: float
    rss_mb: float
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, float] = field(default_factory=dict)
    rounds: List[Dict[str, float]] = field(default_factory=list)

    def count(self, checks: int, failures: int) -> None:
        self.attempted += checks
        self.failed += failures

    def judge_timed(self) -> List[Tuple]:
        """Count the timed ops; returns the ``(query, answer)`` pairs
        that answered well and were kept whole."""
        answered = []
        for op, _seconds, result in self.load.all_records():
            good = answered_well(op, result)
            if good and op[0] == "q" and result is not True:
                answered.append((op[1], result))
            self.count(1, not good)
        return answered

    def check_sample(self, oracle: Oracle, answered: List[Tuple], seed: int) -> None:
        sample = oracle.sample(answered, seed)
        self.count(len(sample), oracle.mismatches(sample))


def _wire_distinct(run: Run) -> Outcome:
    with closing(Server(run, ["--index", run.snapshot])) as server:
        with run.stage("serve.start"):
            server.start()
        load = drive(run, lambda conn: _WireSession(server))
        reads, queries = server.reads()
        outcome = Outcome(load, reads, queries, server.rss_mb())
    outcome.check_sample(run.oracle, outcome.judge_timed(), run.seed)
    return outcome


def _wire_hot(run: Run) -> Outcome:
    # 64 shapes: the oracle answers each once and every one of the
    # timed answers is compared, not a sample.
    expected = {op[1]: run.oracle.query(op[1])
                for conn in run.stream.warmup for op in conn}

    def judge(op, answer) -> bool:
        return answer == expected[op[1]]

    with closing(Server(run, ["--index", run.snapshot])) as server:
        with run.stage("serve.start"):
            server.start()
        load = drive(run, lambda conn: _WireSession(server), judge)
        reads, queries = server.reads()
        outcome = Outcome(load, reads, queries, server.rss_mb())
    outcome.judge_timed()
    return outcome


def _cluster_selective(run: Run) -> Outcome:
    corpus = run.corpus
    with run.stage("planner.learn"):
        model = WorkloadModel.from_queries(run.stream.training, corpus.space)
        placement = WorkloadPartitioner.learn(
            SHARDS, corpus.space, corpus.documents, model
        )
    with run.stage("cluster.build"):
        cluster = ClusterService.build(
            corpus.documents, placement, ClusterConfig(), page_size=PAGE_SIZE
        )
    with closing(cluster):
        load = drive(run, lambda conn: _ClusterSession(cluster))
        reads, queries = cluster_reads(cluster)
    outcome = Outcome(load, reads, queries, peak_rss_mb(os.getpid()))
    outcome.check_sample(run.oracle, outcome.judge_timed(), run.seed)
    return outcome


def cluster_reads(cluster: ClusterService) -> Tuple[float, float]:
    """Page reads summed over the shard services, and cluster queries."""
    reads = 0.0
    for shard in range(cluster.num_shards):
        summary = cluster.replica(shard).service.metrics_snapshot()[
            "histograms"
        ].get("io.reads_per_query")
        if summary:
            reads += summary["mean"] * summary["count"]
    return reads, cluster.metrics_snapshot()["counters"]["cluster.queries"]


def _ingest_mixed(run: Run) -> Outcome:
    store = os.path.join(run.tmp, "store")
    with run.stage("core.recovery.create"):
        DurableIndex.create(store, run.index).close()
    oracle = run.oracle
    with closing(Server(run, ["--durable-dir", store])) as server:
        with run.stage("serve.start"):
            server.start()
        load = drive(run, lambda conn: _WireSession(server))
        outcome = Outcome(load, 0.0, 0.0, 0.0)
        answered = outcome.judge_timed()
        # Writers are quiet: bring the oracle to the acknowledged state
        # (warm-up mutations are acknowledged too — a warm-up error
        # aborts the run) and ask a sample of the timed queries again.
        acked = [op for conn in run.stream.warmup for op in conn]
        acked += [op for op, _s, result in load.all_records()
                  if not isinstance(result, BaseException)]
        inserted, deleted = [], []
        for kind, doc in acked:
            if kind == "i":
                oracle.insert(doc)
                inserted.append(doc)
            elif kind == "d":
                oracle.delete(doc)
                deleted.append(doc)
        with server.client() as client:
            again = [(query, client.search(query))
                     for query, _ in oracle.sample(answered, run.seed)]
        outcome.count(len(again), oracle.mismatches(again))
        outcome.reads, outcome.queries = server.reads()
        outcome.rss_mb = server.rss_mb()
        server.close()  # SIGKILL, no shutdown hook runs
    with run.cal.timed() as recovery:
        durable = DurableIndex.open(store)
    with closing(durable):
        lost = sum(not _stored(durable, doc) for doc in inserted if doc.doc_id in oracle)
        risen = sum(_stored(durable, doc) for doc in deleted)
    outcome.count(len(inserted) + len(deleted), lost + risen)
    writes = load.latencies_ms("id")
    outcome.notes = {
        "recover_s": recovery.scaled,
        "recover_raw_s": recovery.raw,
        "write_p50_ms": quantile(writes, 0.50),
        "write_p95_ms": quantile(writes, 0.95),
        "acked_writes": float(len(inserted) + len(deleted)),
        "lost_acked_writes": float(lost + risen),
    }
    return outcome


def _stored(durable: DurableIndex, doc) -> bool:
    here = Rect(doc.x, doc.y, doc.x, doc.y)
    hits = durable.range_query(here, tuple(doc.terms), Semantics.AND)
    return any(hit.doc_id == doc.doc_id for hit in hits)


WORKLOADS = {
    "wire-distinct": _wire_distinct,
    "wire-hot": _wire_hot,
    "cluster-selective": _cluster_selective,
    "ingest-mixed": _ingest_mixed,
}


def end_to_end(run: Run) -> Tuple[Dict[str, Tuple[float, str]], Outcome]:
    """Prepare, run the workload, and name its end-to-end metrics."""
    run.prepare()
    outcome = WORKLOADS[run.workload](run)
    load = outcome.load
    queries = load.latencies_ms("q")
    raw = load.latencies_ms("q", scaled=False)
    metrics = {
        "setup_s": (run.setup_seconds(), "s"),
        "snapshot_mb": (run.snapshot_mb, "MB"),
        "qps": (statistics.median(load.round_qps()), "ops/s"),
        "p50_ms": (quantile(queries, 0.50), "ms"),
        "p95_ms": (quantile(queries, 0.95), "ms"),
        "reads_per_query": (outcome.reads / outcome.queries, "pages"),
        "rss_mb": (outcome.rss_mb, "MB"),
    }
    outcome.notes.update({
        "setup_raw_s": run.setup_seconds(scaled=False),
        "qps_raw": len(load.all_records()) / sum(w.raw for w in load.walls),
        "p50_raw_ms": quantile(raw, 0.50),
        "p95_raw_ms": quantile(raw, 0.95),
        "query_samples": float(len(queries)),
        "calib_cv": run.cal.cv,
    })
    outcome.rounds = [
        {"ops": len(records), "wall_raw_s": wall.raw, "factor": wall.factor}
        for wall, records in zip(load.walls, load.records)
    ]
    return metrics, outcome
