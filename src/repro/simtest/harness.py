"""The whole-system simulation: execute one trace, check every invariant.

One :func:`run_trace` call builds a complete system — virtual clock,
seeded cooperative scheduler, in-memory crash-injectable filesystem,
durable index (or a sharded cluster of them), query service, streaming
service — executes the trace's steps, and checks the system against the
:class:`~repro.simtest.oracle.ModelOracle` after every step.  Nothing
touches real time, real threads, or the real disk, so the entire run is
a pure function of the trace: same trace, byte-identical
:attr:`SimReport.run_hash`.

Invariants checked (named for shrinking identity):

* ``topk-equivalence`` — every query/search answer equals the model's
  exact top-k (scores compared to 9 decimals, like the equivalence
  suite).
* ``cache-coherence`` — when a served answer is wrong but a fresh
  index query is right, the result cache returned a stale epoch.
* ``epoch-monotonicity`` — the mutation epoch never goes backwards,
  and recovery restores exactly the acknowledged epoch.
* ``prefix-durability`` — recovery covers ``M`` mutations with
  ``acked <= M <= submitted`` and answers equal to the model replayed
  to ``M`` (crash-killed calls count as *in doubt*: allowed, not
  required, in the recovered prefix).
* ``standing-query`` — every registered standing query's maintained
  top-k equals a from-scratch query of the model.
* ``stream-delivery`` — after draining a subscription, the last
  delivered update per query equals the model's top-k, on every poll
  (a subscription never drops an update).
* ``cluster-degraded`` — with a full replica set (even during a
  single-replica outage) no scatter-gather answer is degraded.
* ``degraded-correctness`` — under injected shard faults
  (``chaos_search`` steps through the
  :class:`~repro.net.sim.SimShardChannel` transport seam), an answer
  flagged degraded must be the exact top-k over the shards that
  actually responded (the model restricted to non-failed shards), and
  an answer *not* flagged degraded must equal the full model — a
  failed shard can never silently vanish from a "complete" answer.
* ``scatter-no-hang`` — every scatter-gather completes within the
  cluster deadline on virtual time, even when every shard stalls: a
  stalled attempt burns its deadline slice, never more.
* ``planner-equivalence`` — learning a workload partitioner from the
  run's own recorded query log and rebalancing the live cluster onto
  it never changes an answer: probes bracketing the move return
  byte-identical results, both to each other and to the model.
* ``net-equivalence`` — queries issued through the simulated network
  tier (real :class:`~repro.net.server.ConnectionCore`, scripted
  connection faults, virtual-time retries) return exactly the model's
  top-k: wire trouble may cost retries, never correctness.
* ``exec-equivalence`` — on every ``query_many`` step and every
  temporal query step, the same queries executed directly under each
  available execution engine return **bit-identical** ``ScoredDoc``
  streams (``float.hex`` comparison, stricter than the 9-decimal
  rounding every other invariant uses).
  This is the only invariant that can see a sub-rounding score drift
  in the vectorized engine.
* ``temporal-equivalence`` — every time-filtered / recency-weighted
  query against the time-sliced index equals the naive temporal
  oracle's full-scan answer.
* ``retention`` — after every retention pass, no live slice's span
  ends behind the horizon, and no document the oracle has expired is
  ever served again.
* ``unhandled-exception`` — nothing under test raised unexpectedly.

The ``inject_bug`` hooks flip known-bad behaviours so CI can prove the
harness actually catches what it claims to catch: ``lost-wal-record``
applies every 5th mutation to the index while skipping its WAL append;
``stale-cache`` swaps in a result cache that ignores epochs;
``dropped-push`` silently discards every 3rd subscriber notification;
``stale-slice`` resurrects every retention-dropped slice so expired
documents never actually leave the query path; ``vector-skew`` drifts
every vector-engine score by one ulp — invisible to every rounded
comparison, caught only by the bit-exact ``exec-equivalence``
differential; ``lost-shard-route`` drops the best-bound shard from
every scatter plan with more than one candidate shard, so the
documents it owns silently vanish from merged answers;
``stale-decoded-cell`` skips the decoded-cell invalidation in
``DataFile.insert_into_cell``, so the vector engine keeps answering
from a keyword cell's columns as they were before an insert while the
tuple engine reads the pages — the same cross-engine differential
convicts it;
``silent-shard-drop`` strips the degraded flag (and the failed-shard
ids) off any answer that lost shards, passing a partial answer off as
complete — caught by ``degraded-correctness`` comparing it to the
full model; ``stuck-scatter`` makes the deadline-slice arithmetic
never expire, so a stalled shard burns unbounded virtual time —
caught by ``scatter-no-hang``.  The last three are cluster-mode bugs.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.partition import HashPartitioner
from repro.cluster.service import ClusterConfig, ClusterService
from repro.net.sim import SimNetServer, SimShardChannel, sim_client
from repro.net.tenants import TenantDirectory
from repro.planner import QueryLogRecorder, WorkloadModel, WorkloadPartitioner
from repro.core.index import I3Index
from repro.core.recovery import DurableIndex
from repro.model.query import TopKQuery
from repro.model.scoring import Ranker
from repro.service.cache import QueryResultCache
from repro.service.service import QueryService, ServiceConfig
from repro.simtest.clock import SimClock, SimScheduler
from repro.simtest.oracle import InvariantViolation, ModelOracle, result_pairs
from repro.simtest.simfs import SimFileSystem, SimulatedCrash
from repro.simtest.trace import shrink_trace, trace_hash
from repro.simtest.workload import (
    doc_from_dict,
    generate_trace,
    query_from_dict,
)
from repro.spatial.geometry import UNIT_SQUARE
from repro.temporal.index import TemporalConfig, TemporalIndex
from repro.temporal.model import (
    RecencySpec,
    TemporalDocument,
    TemporalQuery,
    TimeRange,
    slice_span,
)
from repro.temporal.oracle import NaiveTemporalIndex

__all__ = ["BUGS", "SimFailure", "SimReport", "run_seed", "run_trace", "shrink_failure"]

BUGS = (
    "lost-wal-record",
    "stale-cache",
    "dropped-push",
    "stale-slice",
    "vector-skew",
    "stale-decoded-cell",
    "lost-shard-route",
    "silent-shard-drop",
    "stuck-scatter",
)

# Bugs that only exist in the cluster's scatter path: their canary runs
# force cluster mode so every seed exercises the buggy code.
_CLUSTER_BUGS = frozenset(
    {"lost-shard-route", "silent-shard-drop", "stuck-scatter"}
)


@dataclass(frozen=True)
class SimFailure:
    """One invariant violation, pinned to the step that surfaced it."""

    invariant: str
    step_index: int
    detail: str


@dataclass
class SimReport:
    """The outcome of executing one trace."""

    seed: int
    mode: str
    steps_run: int
    run_hash: str
    failure: Optional[SimFailure] = None
    trace: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None


class _SkewedVectorProcessor:
    """Injected bug: the vector engine's scores drift by one ulp.

    This is the failure mode a real vectorization bug produces — an
    accumulation-order or precision change too small for any rounded
    comparison to see.  ``result_pairs`` rounds to 9 decimals, so every
    other invariant stays green; only the bit-exact cross-engine
    differential (``exec-equivalence``) can convict it.
    """

    def __init__(self, index) -> None:
        from repro.exec.vector import VectorQueryProcessor

        self._real = VectorQueryProcessor(index)

    def search(self, query, ranker):
        import math

        out = self._real.search(query, ranker)
        return [
            type(r)(math.nextafter(r.score, math.inf), r.doc_id) for r in out
        ]


class _StaleCache(QueryResultCache):
    """Injected bug: stamps every entry with epoch 0 and looks entries
    up at epoch 0, so mutations never invalidate anything."""

    def put(self, key, epoch, value) -> None:  # noqa: D102
        super().put(key, 0, value)

    def get(self, key, epoch):  # noqa: D102
        return super().get(key, 0)


def run_seed(
    seed: int,
    steps: Optional[int] = None,
    mode: Optional[str] = None,
    inject_bug: Optional[str] = None,
) -> SimReport:
    """Generate the seed's trace and execute it."""
    if inject_bug is not None:
        # The injected bugs live in the single-node stack — except the
        # routing/scatter bugs, which only exist in the cluster path.
        mode = "cluster" if inject_bug in _CLUSTER_BUGS else "single"
    return run_trace(generate_trace(seed, steps=steps, mode=mode), inject_bug)


def run_trace(trace: Dict, inject_bug: Optional[str] = None) -> SimReport:
    """Execute one trace against a freshly built simulated system."""
    if inject_bug is not None and inject_bug not in BUGS:
        raise ValueError(f"unknown bug {inject_bug!r}; choose from {BUGS}")
    sim = _Simulation(trace, inject_bug)
    return sim.run()


def shrink_failure(
    trace: Dict,
    invariant: str,
    inject_bug: Optional[str] = None,
    max_attempts: int = 400,
) -> Dict:
    """Shrink a failing trace, preserving the violated invariant."""

    def still_fails(candidate: Dict) -> bool:
        report = run_trace(candidate, inject_bug)
        return report.failure is not None and report.failure.invariant == invariant

    return shrink_trace(trace, still_fails, max_attempts=max_attempts)


class _Simulation:
    """One trace execution: system under test + oracle + checkers."""

    def __init__(self, trace: Dict, bug: Optional[str]) -> None:
        self.trace = trace
        self.bug = bug
        self.space = UNIT_SQUARE
        self.ranker = Ranker(self.space, alpha=0.5)
        self.clock = SimClock()
        self.sched = SimScheduler(seed=trace["seed"], clock=self.clock)
        self.fs = SimFileSystem()
        self.events: List[Dict] = []
        self._mutations = 0
        self._epoch_watermark = 0
        initial = [doc_from_dict(d) for d in trace["config"]["initial_docs"]]
        self.oracle = ModelOracle(self.space, alpha=0.5, initial_docs=initial)
        if trace["mode"] == "single":
            self._setup_single(initial)
        else:
            self._setup_cluster(initial)

    # ------------------------------------------------------------------
    # System construction
    # ------------------------------------------------------------------
    def _setup_single(self, initial) -> None:
        cfg = self.trace["config"]
        index = I3Index(self.space, page_size=256)
        if initial:
            index.bulk_load(initial)
        self.durable = DurableIndex.create(
            "simstore", index, fs=self.fs, sync_every=cfg["sync_every"]
        )
        self.service = QueryService(
            self.durable,
            ServiceConfig(max_pending=64, cache_capacity=64, metrics_seed=0),
            ranker=self.ranker,
            clock=self.clock,
            executor=self.sched,
        )
        if self.bug == "stale-cache":
            self.service.cache = _StaleCache(capacity=64)
        self._install_engine_bug()
        self.streams = self.service.streams()
        if self.bug == "dropped-push":
            matcher = self.streams.matcher
            emit = matcher._emit
            dropped = [0]

            def lossy_emit(sq):
                dropped[0] += 1
                if dropped[0] % 3 == 0:
                    return
                emit(sq)

            matcher._emit = lossy_emit
        # The network seam: the production ConnectionCore over the sim
        # clock, dialled through a fault-scripted in-memory transport.
        self.net = SimNetServer(
            self.service,
            clock=self.clock,
            tenants=TenantDirectory.from_dict(
                {"tenants": [{"name": "sim", "api_key": "sim-key",
                              "rate": None, "max_pending": 64}]},
                clock=self.clock,
            ),
        )
        self.cluster = None
        # Subscriber-side state.
        self.subs: Dict[str, Any] = {}
        self.owned: Dict[str, Dict[int, Tuple[TopKQuery, float]]] = {}
        self.last_delivered: Dict[int, List] = {}
        for sub_cfg in cfg["subscribers"]:
            name = sub_cfg["name"]
            self.subs[name] = self.streams.subscribe(name)
            self.owned[name] = {}
        self._setup_temporal(cfg.get("temporal"))

    def _install_engine_bug(self) -> None:
        """Plant the vector-engine bugs on the index currently served.

        Re-run after every recovery: a crash step swaps in a freshly
        rebuilt index, and the canary must keep limping on it."""
        if self.bug not in ("vector-skew", "stale-decoded-cell"):
            return
        from repro.exec import available_engines

        if "vector" not in available_engines():
            return  # no vector engine to break on this host
        index = self.service.index
        if self.bug == "vector-skew":
            index._vector_processor = _SkewedVectorProcessor(index)
            return
        # Serve from the tuple engine, which never consults decoded
        # cells: the vector engine then runs only inside the cross-engine
        # differential, and that differential has to be what convicts.
        index.engine = "tuple"
        data = index.data
        insert_into_cell = data.insert_into_cell

        def forgetful_insert(cell, record, allow_overflow=False):
            # The bug: whatever was decoded before the insert survives it.
            stale = data.cells.get(cell)
            insert_into_cell(cell, record, allow_overflow)
            if stale is not None:
                data.cells.put(cell, stale, stale.nbytes)

        data.insert_into_cell = forgetful_insert

    def _setup_temporal(self, tcfg: Optional[Dict]) -> None:
        """The temporal sub-system and its naive oracle (single mode).

        Lives beside the durable single-node stack rather than inside
        it: the temporal invariants (exact equivalence, retention) are
        about slice bookkeeping and pruning, which an in-memory index
        exercises fully.
        """
        self.temporal: Optional[TemporalIndex] = None
        self.toracle: Optional[NaiveTemporalIndex] = None
        self.t_expired: Set[int] = set()
        if tcfg is None:
            return  # pre-temporal trace shape
        config = TemporalConfig(
            slice_width=tcfg["slice_width"],
            retention_age=tcfg["retention_age"],
            page_size=256,
        )
        self.temporal = TemporalIndex(self.space, config)
        self.toracle = NaiveTemporalIndex(
            self.space, tcfg["slice_width"], tcfg["retention_age"]
        )
        for rec in sorted(
            tcfg["initial"], key=lambda r: (r["ts"], r["doc"]["id"])
        ):
            tdoc = TemporalDocument(doc_from_dict(rec["doc"]), rec["ts"])
            self.temporal.insert(tdoc)
            self.toracle.insert(tdoc)
        if self.bug == "stale-slice":
            temporal = self.temporal
            real_drop = temporal._drop

            def leaky_drop(sid: int) -> None:
                s = temporal._slices.get(sid)
                real_drop(sid)
                if s is not None:
                    # The bug: the dropped slice is resurrected, so its
                    # documents never leave the query path.
                    temporal._slices[sid] = s

            temporal._drop = leaky_drop

    def _setup_cluster(self, initial) -> None:
        cfg = self.trace["config"]
        partitioner = HashPartitioner(cfg["shards"], self.space)
        # Every shard read goes through the scripted chaos channel;
        # outside chaos_search steps its plan is empty, so it is a
        # transparent pass-through.  Healthy attempts cost zero virtual
        # time, so the deadline and (non-zero) backoff only ever tick
        # under injected faults — which is exactly when scatter-no-hang
        # needs them to be load-bearing.
        self.channel = SimShardChannel(self.clock)
        self.cluster = ClusterService.build(
            initial,
            partitioner,
            ClusterConfig(
                replicas=cfg["replicas"],
                retry_rounds=1,
                backoff=0.001,
                deadline=cfg.get("deadline"),
                failure_threshold=2,
                cache_capacity=64,
                shard_config=ServiceConfig(
                    max_pending=64, cache_capacity=32, metrics_seed=0
                ),
                metrics_seed=0,
            ),
            ranker=self.ranker,
            durable_root="simcluster",
            clock=self.clock,
            executor=self.sched,
            fs=self.fs,
            channel=self.channel,
            page_size=256,
        )
        self.service = None
        self.streams = None
        # Every cluster query feeds the workload recorder, so a
        # rebalance step can learn a partitioner from the trace's own
        # traffic — the same loop a production cluster runs.
        self.recorder = QueryLogRecorder(self.space)
        self.cluster.attach_recorder(self.recorder)
        if self.bug == "lost-shard-route":
            cluster = self.cluster
            real_route = cluster._route

            def lossy_route(query):
                ranked, absent, dead = real_route(query)
                if len(ranked) > 1:
                    # The bug: the best-bound shard is silently dropped
                    # from the plan, so the documents it owns vanish
                    # from the merged answer without degrading it.
                    ranked = ranked[1:]
                return ranked, absent, dead

            cluster._route = lossy_route
        if self.bug == "silent-shard-drop":
            cluster = self.cluster
            real_scatter = cluster._scatter_gather

            def lying_scatter(query, give_up_at):
                answer = real_scatter(query, give_up_at)
                if answer.failed_shards:
                    # The bug: shards that contributed nothing are
                    # scrubbed from the answer's provenance, so a
                    # partial answer is passed off as complete (and
                    # cached!).  degraded-correctness convicts it by
                    # comparing the "complete" answer to the full
                    # model.
                    return replace(
                        answer, degraded=False, failed_shards=()
                    )
                return answer

            cluster._scatter_gather = lying_scatter
        if self.bug == "stuck-scatter":
            cluster = self.cluster

            def stuck_budget(deadline_at):
                # The bug: the deadline slice never expires and never
                # caps an attempt, so a stalled shard burns unbounded
                # virtual time.  scatter-no-hang convicts the first
                # chaos delay that blows past the cluster deadline.
                return False, cluster.config.attempt_timeout

            cluster._attempt_budget = stuck_budget

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> SimReport:
        failure: Optional[SimFailure] = None
        steps_run = 0
        handlers: Dict[str, Callable[[Dict], None]] = (
            self._single_handlers() if self.trace["mode"] == "single"
            else self._cluster_handlers()
        )
        try:
            for i, step in enumerate(self.trace["steps"]):
                try:
                    handler = handlers.get(step["op"])
                    if handler is None:
                        raise InvariantViolation(
                            "unhandled-exception", f"unknown op {step['op']!r}"
                        )
                    handler(step)
                    self._check_step(i, step)
                except InvariantViolation as exc:
                    failure = SimFailure(exc.invariant, i, exc.detail
                                         if hasattr(exc, "detail") else str(exc))
                    break
                except (Exception, SimulatedCrash):
                    failure = SimFailure(
                        "unhandled-exception", i,
                        traceback.format_exc(limit=6),
                    )
                    break
                steps_run += 1
        finally:
            try:
                if self.cluster is not None:
                    self.cluster.close()
                elif self.service is not None:
                    self.service.close(drain=False)
            except (Exception, SimulatedCrash):
                pass
        return SimReport(
            seed=self.trace["seed"],
            mode=self.trace["mode"],
            steps_run=steps_run,
            run_hash=trace_hash(self.trace, self.events),
            failure=failure,
            trace=self.trace,
        )

    # ------------------------------------------------------------------
    # Shared per-step checks
    # ------------------------------------------------------------------
    def _current_epoch(self) -> int:
        target = self.cluster if self.cluster is not None else self.service
        return target.epoch

    def _check_step(self, i: int, step: Dict) -> None:
        epoch = self._current_epoch()
        if epoch < self._epoch_watermark:
            raise InvariantViolation(
                "epoch-monotonicity",
                f"epoch went backwards: {self._epoch_watermark} -> {epoch} "
                f"after step {i} ({step['op']})",
            )
        self._epoch_watermark = epoch
        if self.streams is not None:
            for name, qmap in self.owned.items():
                for qid, (query, alpha) in qmap.items():
                    current = self.streams.results(qid)
                    if current is None:
                        raise InvariantViolation(
                            "standing-query",
                            f"query {qid} vanished from the registry",
                        )
                    expected = self.oracle.topk_pairs(
                        query, Ranker(self.space, alpha)
                    )
                    got = result_pairs(current)
                    if got != expected:
                        raise InvariantViolation(
                            "standing-query",
                            f"standing query {qid} ({name}) maintains {got}, "
                            f"model says {expected}",
                        )
        self.events.append({"i": i, "op": step["op"], "epoch": epoch})

    # ------------------------------------------------------------------
    # Single-node handlers
    # ------------------------------------------------------------------
    def _single_handlers(self) -> Dict[str, Callable[[Dict], None]]:
        return {
            "insert": self._do_mutation,
            "delete": self._do_mutation,
            "update": self._do_mutation,
            "query": self._do_query,
            "query_many": self._do_query_many,
            "net_query": self._do_net_query,
            "checkpoint": lambda step: self.service.checkpoint(),
            "crash": self._do_crash,
            "register": self._do_register,
            "poll": self._do_poll,
            "kill_resume": self._do_kill_resume,
            "t_insert": self._do_t_insert,
            "t_delete": self._do_t_delete,
            "t_query": self._do_t_query,
            "t_advance": self._do_t_advance,
            "t_retention": self._do_t_retention,
        }

    def _do_mutation(self, step: Dict) -> None:
        op = step["op"]
        if op == "insert":
            doc = doc_from_dict(step["doc"])
            if self.oracle.get(doc.doc_id) is not None:
                return  # duplicate id (possible in shrunk traces): skip
            self._mutate("insert", doc)
        elif op == "delete":
            doc = self.oracle.get(step["doc_id"])
            if doc is None:
                return
            self._mutate("delete", doc)
        else:
            old = self.oracle.get(step["doc_id"])
            if old is None:
                return
            self._mutate("update", old, doc_from_dict(step["new"]))

    def _mutate(self, kind: str, doc, new=None) -> None:
        self._mutations += 1
        bypass = (
            self.bug == "lost-wal-record" and self._mutations % 5 == 0
        )
        try:
            if kind == "insert":
                if bypass:
                    self.service.mutate(lambda t: t.index.insert_document(doc))
                else:
                    self.service.insert(doc)
            elif kind == "delete":
                if bypass:
                    self.service.mutate(lambda t: t.index.delete_document(doc))
                else:
                    self.service.delete(doc)
            else:
                target = (lambda t: t.index) if bypass else (lambda t: t)
                self.service.mutate(
                    lambda t: target(t).update_document(doc, new)
                )
        except SimulatedCrash:
            # The call died mid-write: its WAL record may or may not be
            # durable.  Record it as in doubt and let the crash step
            # resolve which world we are in.
            self.oracle.record_in_doubt(kind, doc, new)
            raise
        epoch = self.service.index.epoch
        if kind == "insert":
            self.oracle.apply_insert(doc, epoch)
        elif kind == "delete":
            self.oracle.apply_delete(doc, epoch)
        else:
            self.oracle.apply_update(doc, new, epoch)

    def _do_query(self, step: Dict) -> None:
        query = query_from_dict(step["query"])
        got = result_pairs(self.service.search(query))
        expected = self.oracle.topk_pairs(query)
        if got != expected:
            # Distinguish a stale cached answer from a wrong index: ask
            # the index directly, bypassing the result cache.
            fresh = result_pairs(
                self.service.read(
                    lambda _t: self.service.index.query(query, self.ranker)
                )
            )
            if fresh == expected:
                raise InvariantViolation(
                    "cache-coherence",
                    f"served {got} but a cache-bypassing query agrees with "
                    f"the model ({expected}) — stale cache entry",
                )
            raise InvariantViolation(
                "topk-equivalence",
                f"query {step['query']} returned {got}, model says {expected}",
            )
        self.events.append({"op": "query", "results": got})

    def _do_query_many(self, step: Dict) -> None:
        queries = [query_from_dict(q) for q in step["queries"]]
        answers = self.service.search_many(queries)
        got = [result_pairs(r) for r in answers]
        expected = [self.oracle.topk_pairs(q) for q in queries]
        if got != expected:
            i = next(
                j for j, (g, e) in enumerate(zip(got, expected)) if g != e
            )
            # Same stale-vs-wrong distinction as the single-query path.
            fresh = result_pairs(
                self.service.read(
                    lambda _t: self.service.index.query(
                        queries[i], self.ranker
                    )
                )
            )
            if fresh == expected[i]:
                raise InvariantViolation(
                    "cache-coherence",
                    f"batch slot {i} served {got[i]} but a cache-bypassing "
                    f"query agrees with the model ({expected[i]}) — stale "
                    f"cache entry",
                )
            raise InvariantViolation(
                "topk-equivalence",
                f"batch slot {i} ({step['queries'][i]}) returned {got[i]}, "
                f"model says {expected[i]}",
            )
        self._check_exec_equivalence(
            lambda engine: self.service.read(
                lambda _t: self.service.index.query_many(
                    queries, self.ranker, engine=engine
                )
            ),
            [f"batch slot {i} ({q})" for i, q in enumerate(step["queries"])],
        )
        self.events.append({"op": "query_many", "results": got})

    def _check_exec_equivalence(self, run, labels: List[str]) -> None:
        """The cross-engine differential, bit-exact.

        ``run(engine)`` answers the same queries (one result list per
        label) directly against the index — no service, no cache — and
        is called once per available engine; ``float.hex`` score streams
        are compared, so a divergence is attributable to the engines
        alone and even a one-ulp drift is a conviction.
        """
        from repro.exec import available_engines

        engines = available_engines()
        if len(engines) < 2:
            return  # one engine: nothing to differ
        streams = {
            engine: [
                [(d.doc_id, d.score.hex()) for d in result]
                for result in run(engine)
            ]
            for engine in engines
        }
        baseline_engine = engines[0]
        baseline = streams[baseline_engine]
        for engine in engines[1:]:
            if streams[engine] != baseline:
                i = next(
                    j
                    for j, (a, b) in enumerate(zip(streams[engine], baseline))
                    if a != b
                )
                raise InvariantViolation(
                    "exec-equivalence",
                    f"{labels[i]}: engine "
                    f"{engine!r} returned {streams[engine][i]}, "
                    f"{baseline_engine!r} returned {baseline[i]}",
                )

    def _do_net_query(self, step: Dict) -> None:
        query = query_from_dict(step["query"])
        faults = list(step.get("faults", ()))
        client = sim_client(self.net, key="sim-key", faults=faults)
        try:
            got = result_pairs(client.search(query))
        finally:
            client.close()
        expected = self.oracle.topk_pairs(query)
        if got != expected:
            raise InvariantViolation(
                "net-equivalence",
                f"query {step['query']} over the wire (faults {faults}) "
                f"returned {got}, model says {expected}",
            )
        self.events.append(
            {"op": "net_query", "results": got, "faults": faults}
        )

    def _do_crash(self, step: Dict) -> None:
        if step["after_ops"] is not None:
            self.fs.schedule_crash(step["after_ops"])
        for mutation in step["burst"]:
            try:
                self._do_mutation(mutation)
            except SimulatedCrash:
                break
        self.fs.disarm()
        acked = self.durable.synced_lsn
        submitted = len(self.oracle.history)
        self.fs.crash(random.Random(step["salt"]))
        report = self.service.recover()
        recovered = report.mutations_recovered
        if not acked <= recovered <= submitted:
            raise InvariantViolation(
                "prefix-durability",
                f"recovery covers {recovered} mutations, outside "
                f"[acked={acked}, submitted={submitted}]",
            )
        reference = self.oracle.state_at(recovered)
        for probe in step["probes"]:
            query = query_from_dict(probe)
            got = result_pairs(self.service.search(query))
            expected = result_pairs(reference.query(query, self.ranker))
            if got != expected:
                raise InvariantViolation(
                    "prefix-durability",
                    f"after recovering {recovered}/{submitted} mutations "
                    f"probe {probe['words']} returned {got}, replaying the "
                    f"acknowledged prefix gives {expected}",
                )
        expected_epoch = self.oracle.epoch_at(recovered)
        if (
            expected_epoch is not None
            and self.service.index.epoch != expected_epoch
        ):
            raise InvariantViolation(
                "epoch-monotonicity",
                f"recovery restored epoch {self.service.index.epoch}, the "
                f"acknowledged history left it at {expected_epoch}",
            )
        self.oracle.truncate_to(recovered)
        self._install_engine_bug()  # recovery swapped in a fresh index
        self._epoch_watermark = self.service.index.epoch
        self.events.append({"op": "crash", "recovered": recovered,
                            "acked": acked, "submitted": submitted})

    def _do_register(self, step: Dict) -> None:
        name = step["sub"]
        query = query_from_dict(step["query"])
        qid = self.streams.register(self.subs[name], query, alpha=step["alpha"])
        self.owned[name][qid] = (query, step["alpha"])

    def _do_poll(self, step: Dict) -> None:
        name = step["sub"]
        sub = self.subs[name]
        updates = sub.poll(timeout=0.0)
        for update in updates:
            self.last_delivered[update.query_id] = result_pairs(update.results)
        for qid, (query, alpha) in self.owned[name].items():
            expected = self.oracle.topk_pairs(query, Ranker(self.space, alpha))
            got = self.last_delivered.get(qid)
            if got != expected:
                raise InvariantViolation(
                    "stream-delivery",
                    f"subscriber {name} last saw {got} for query {qid}, "
                    f"model says {expected}",
                )
        self.events.append(
            {"op": "poll", "sub": name, "delivered": len(updates)}
        )

    def _do_kill_resume(self, step: Dict) -> None:
        name = step["sub"]
        # Kill: the subscriber process dies without unsubscribing —
        # pending and future pushes are lost on the floor.
        self.subs[name].close()
        self.subs[name] = self.streams.resume(name, self.owned[name])
        # Resume queued fresh snapshots; drain them so delivered state
        # reflects the reconnect.
        self._do_poll({"op": "poll", "sub": name})

    # ------------------------------------------------------------------
    # Temporal handlers
    # ------------------------------------------------------------------
    @staticmethod
    def _temporal_query(d: Dict) -> TemporalQuery:
        tr = d.get("time_range")
        rc = d.get("recency")
        return TemporalQuery(
            query_from_dict(d["query"]),
            TimeRange(tr[0], tr[1]) if tr is not None else None,
            RecencySpec(rc["half_life"], rc["origin"]) if rc is not None else None,
        )

    def _do_t_insert(self, step: Dict) -> None:
        if self.temporal is None:
            return
        doc = doc_from_dict(step["doc"])
        ts = step["ts"]
        if self.temporal.get(doc.doc_id) is not None:
            return  # duplicate id (possible in shrunk traces): skip
        if not self.temporal.accepts(ts):
            return  # behind the horizon: skip on BOTH sides
        tdoc = TemporalDocument(doc, ts)
        self.temporal.insert(tdoc)
        self.toracle.insert(tdoc)
        self.events.append({"op": "t_insert", "id": doc.doc_id, "ts": ts})

    def _do_t_delete(self, step: Dict) -> None:
        if self.temporal is None:
            return
        doc_id = step["doc_id"]
        if self.toracle.get(doc_id) is None:
            return  # already deleted or expired (possible in shrunk traces)
        self.temporal.delete_document(doc_id)
        self.toracle.delete(doc_id)
        self.events.append({"op": "t_delete", "id": doc_id})

    def _do_t_query(self, step: Dict) -> None:
        if self.temporal is None:
            return
        tq = self._temporal_query(step)
        got = result_pairs(self.temporal.query(tq, self.ranker))
        expected = result_pairs(self.toracle.query(tq, self.ranker))
        if got != expected:
            raise InvariantViolation(
                "temporal-equivalence",
                f"temporal query {step['query']['words']} "
                f"(range {step.get('time_range')}, "
                f"recency {step.get('recency')}) returned {got}, "
                f"the naive oracle says {expected}",
            )
        self._check_exec_equivalence(
            lambda engine: [self.temporal.query(tq, self.ranker, engine=engine)],
            [
                f"temporal query {step['query']['words']} (range "
                f"{step.get('time_range')}, recency {step.get('recency')})"
            ],
        )
        self.events.append({"op": "t_query", "results": got})

    def _do_t_advance(self, step: Dict) -> None:
        if self.temporal is None:
            return
        self.temporal.advance(step["now"])
        self.toracle.advance(step["now"])
        self.events.append({"op": "t_advance", "now": step["now"]})

    def _do_t_retention(self, step: Dict) -> None:
        if self.temporal is None:
            return
        dropped = self.temporal.expire(step["now"])
        expired = self.toracle.expire(step["now"])
        self.t_expired.update(expired)
        # (1) Structural: every live slice's span must end after the
        # retention horizon.
        cutoff = self.temporal.watermark - self.temporal.config.retention_age
        width = self.temporal.config.slice_width
        for sid in self.temporal.live_slice_ids():
            if slice_span(sid, width)[1] <= cutoff:
                raise InvariantViolation(
                    "retention",
                    f"slice {sid} (span ends "
                    f"{slice_span(sid, width)[1]}) survived a retention "
                    f"pass with horizon {cutoff}",
                )
        # (2) Observable: no expired document may ever be served again.
        probe = self._temporal_query(step["probe"])
        served = result_pairs(self.temporal.query(probe, self.ranker))
        stale = sorted(p[0] for p in served if p[0] in self.t_expired)
        if stale:
            raise InvariantViolation(
                "retention",
                f"expired documents {stale} still served after a "
                f"retention pass at now={step['now']}",
            )
        expected = result_pairs(self.toracle.query(probe, self.ranker))
        if served != expected:
            raise InvariantViolation(
                "temporal-equivalence",
                f"post-retention probe returned {served}, "
                f"the naive oracle says {expected}",
            )
        self.events.append({
            "op": "t_retention",
            "dropped_slices": dropped,
            "expired_docs": expired,
        })

    # ------------------------------------------------------------------
    # Cluster handlers
    # ------------------------------------------------------------------
    def _cluster_handlers(self) -> Dict[str, Callable[[Dict], None]]:
        return {
            "insert": self._do_cluster_mutation,
            "delete": self._do_cluster_mutation,
            "search": self._do_search,
            "chaos_search": self._do_chaos_search,
            "search_many": self._do_search_many,
            "shard_checkpoint": self._do_shard_checkpoint,
            "outage": self._do_outage,
            "rebalance": self._do_rebalance,
        }

    def _do_cluster_mutation(self, step: Dict) -> None:
        if step["op"] == "insert":
            doc = doc_from_dict(step["doc"])
            if self.oracle.get(doc.doc_id) is not None:
                return
            self.cluster.insert(doc)
            self.oracle.apply_insert(doc)
        else:
            doc = self.oracle.get(step["doc_id"])
            if doc is None:
                return
            self.cluster.delete(doc)
            self.oracle.apply_delete(doc)

    def _search_and_check(self, query_dict: Dict, context: str) -> None:
        query = query_from_dict(query_dict)
        answer = self.cluster.search(query)
        if answer.degraded:
            raise InvariantViolation(
                "cluster-degraded",
                f"{context}: answer degraded (failed shards "
                f"{answer.failed_shards}) with a full replica set",
            )
        got = result_pairs(answer.results)
        expected = self.oracle.topk_pairs(query)
        if got != expected:
            raise InvariantViolation(
                "topk-equivalence",
                f"{context}: scatter-gather returned {got}, "
                f"model says {expected}",
            )
        self.events.append({"op": "search", "results": got})

    def _do_search(self, step: Dict) -> None:
        self._search_and_check(step["query"], "search")

    def _do_chaos_search(self, step: Dict) -> None:
        """One search under an armed shard-fault plan, checked against
        the degraded-correctness and scatter-no-hang invariants."""
        query = query_from_dict(step["query"])
        plan = step.get("plan", {})
        self.channel.set_plan(
            plan.get("scripts"), plan.get("partition", ())
        )
        started = self.clock()
        try:
            answer = self.cluster.search(query)
        finally:
            self.channel.clear_plan()
        elapsed = self.clock() - started
        deadline = self.cluster.config.deadline
        if deadline is not None and elapsed > deadline + 1e-6:
            raise InvariantViolation(
                "scatter-no-hang",
                f"chaos search (plan {plan}) took {elapsed:.6f} virtual "
                f"seconds against a {deadline}s cluster deadline",
            )
        got = result_pairs(answer.results)
        if answer.degraded:
            failed = set(answer.failed_shards)
            shard_of = self.cluster.partitioner.shard_of
            expected = self.oracle.topk_pairs_restricted(
                query, lambda doc: shard_of(doc) not in failed
            )
            if got != expected:
                raise InvariantViolation(
                    "degraded-correctness",
                    f"degraded answer (failed shards {sorted(failed)}, "
                    f"plan {plan}) returned {got}, the model restricted "
                    f"to responsive shards says {expected}",
                )
        else:
            expected = self.oracle.topk_pairs(query)
            if got != expected:
                raise InvariantViolation(
                    "degraded-correctness",
                    f"non-degraded answer under shard faults (plan {plan}) "
                    f"returned {got}, the full model says {expected} — a "
                    f"failed shard was not reflected in the degraded flag",
                )
        self.events.append({
            "op": "chaos_search",
            "results": got,
            "degraded": answer.degraded,
            "failed": sorted(answer.failed_shards),
            "elapsed": round(elapsed, 9),
        })

    def _do_search_many(self, step: Dict) -> None:
        queries = [query_from_dict(q) for q in step["queries"]]
        answers = self.cluster.search_many(queries)
        batch_results = []
        for i, (query, answer) in enumerate(zip(queries, answers)):
            if answer.degraded:
                raise InvariantViolation(
                    "cluster-degraded",
                    f"search_many slot {i}: answer degraded (failed shards "
                    f"{answer.failed_shards}) with a full replica set",
                )
            got = result_pairs(answer.results)
            expected = self.oracle.topk_pairs(query)
            if got != expected:
                raise InvariantViolation(
                    "topk-equivalence",
                    f"search_many slot {i} ({step['queries'][i]}) returned "
                    f"{got}, model says {expected}",
                )
            batch_results.append(got)
        self.events.append({"op": "search_many", "results": batch_results})

    def _do_rebalance(self, step: Dict) -> None:
        """Learn a workload partitioner from the recorded traffic, swap
        the live cluster onto it mid-churn, and prove no answer moved
        (the planner-equivalence invariant)."""
        probes = [query_from_dict(p) for p in step["probes"]]
        before = [
            result_pairs(self.cluster.search(p).results) for p in probes
        ]
        docs = []
        for sid in range(self.cluster.num_shards):
            rep = self.cluster._first_alive(sid)
            if rep is None:
                continue
            docs.extend(rep.read(lambda _t, _rep=rep: _rep.index.documents()))
        docs.sort(key=lambda d: d.doc_id)
        partitioner = WorkloadPartitioner.learn(
            self.cluster.num_shards,
            self.space,
            docs,
            model=WorkloadModel.from_recorder(self.recorder),
        )
        info = self.cluster.rebalance(partitioner)
        for probe, pre in zip(probes, before):
            answer = self.cluster.search(probe)
            if answer.degraded:
                raise InvariantViolation(
                    "planner-equivalence",
                    f"probe {probe.words} degraded after rebalance "
                    f"(failed shards {answer.failed_shards})",
                )
            got = result_pairs(answer.results)
            expected = self.oracle.topk_pairs(probe)
            if got != pre or got != expected:
                raise InvariantViolation(
                    "planner-equivalence",
                    f"rebalance moved probe {probe.words}: before {pre}, "
                    f"after {got}, model says {expected}",
                )
        self.events.append({"op": "rebalance", "moved": info["moved"]})

    def _do_shard_checkpoint(self, step: Dict) -> None:
        rep = self.cluster.replica(step["shard"], step["replica"])
        if rep.alive:
            rep.service.checkpoint()

    def _do_outage(self, step: Dict) -> None:
        rep = self.cluster.replica(step["shard"], step["replica"])
        if not rep.alive:
            return  # already down (possible in shrunk traces)
        rep.kill()
        for probe in step["probes"]:
            self._search_and_check(
                probe,
                f"during outage of shard {step['shard']} "
                f"replica {step['replica']}",
            )
        self.cluster.recover(step["shard"], step["replica"])
        self._search_and_check(
            step["probes"][0],
            f"after recovering shard {step['shard']} "
            f"replica {step['replica']}",
        )
        self.events.append({"op": "outage", "shard": step["shard"],
                            "replica": step["replica"]})
