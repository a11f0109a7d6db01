"""Seeded workload generation for the simulation harness.

A *trace* is a plain-JSON description of one whole-system run: the
initial corpus, the subscriber roster, and a step list mixing document
mutations, AND/OR top-k queries (single and batched), checkpoints,
crash/recover cycles, replica outages, workload-learned rebalances,
shard-fault chaos searches (scripted scatter-attempt faults and shard
partitions), and subscriber kill/resume.  Every step is
**self-contained** — it carries all the randomness it needs (document
payloads, crash salts, crash-point offsets) rather than drawing from a
shared RNG at execution time.  That property is what makes traces
replayable and shrinkable: deleting a step never changes what any other
step does.

``generate_trace(seed)`` is a pure function of its arguments, so the
same seed always produces the same trace, and the harness's execution
of it (virtual clock, seeded scheduler, in-memory filesystem) is a pure
function of the trace.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.model.document import SpatialDocument, document_to_record

__all__ = ["VOCAB", "generate_trace"]

# A compact vocabulary keeps keyword overlap high, so AND queries match,
# signatures saturate, and deletes actually shrink posting lists.
VOCAB = (
    "cafe", "sushi", "pizza", "museum", "park", "hotel",
    "bar", "gym", "library", "cinema", "market", "bakery",
    "pharmacy", "theater",
)

_CLUSTER_FRACTION = 0.25  # of seeds run the sharded-cluster workload


# ---------------------------------------------------------------------------
# Random pieces
# ---------------------------------------------------------------------------
def _rand_doc(rng: random.Random, doc_id: int) -> Dict:
    n_terms = rng.randint(1, 4)
    words = rng.sample(VOCAB, n_terms)
    return document_to_record(
        SpatialDocument(
            doc_id,
            round(rng.random(), 6),
            round(rng.random(), 6),
            # Raw decimal weights: the document rounds them to the f32
            # values every index and the naive oracle then score.
            {w: round(rng.uniform(0.1, 1.0), 3) for w in sorted(words)},
        )
    )


def _rand_query(rng: random.Random) -> Dict:
    n_words = rng.randint(1, 3)
    return {
        "x": round(rng.random(), 6),
        "y": round(rng.random(), 6),
        "words": sorted(rng.sample(VOCAB, n_words)),
        "k": rng.choice([3, 5, 10]),
        "semantics": rng.choice(["and", "or", "or"]),
    }


def _temporal_probe(k: int = 400) -> Dict:
    """The temporal analogue of ``_state_probe``: an all-time OR query
    over the whole vocabulary with a huge k, pinning the entire live
    temporal document set (what retention is checked against)."""
    return {
        "query": _state_probe(k),
        "time_range": None,
        "recency": None,
    }


def _state_probe(k: int = 400) -> Dict:
    """An OR query over the whole vocabulary with a huge k: its answer
    pins (nearly) the entire document set, so comparing it against the
    model after a recovery checks the full recovered state, not a
    lucky top-k corner."""
    return {
        "x": 0.5,
        "y": 0.5,
        "words": sorted(VOCAB),
        "k": k,
        "semantics": "or",
    }


class _QueryPool:
    """Remembers generated queries so a share of later ones repeat an
    earlier shape exactly — repeated shapes are what exercise the result
    caches (and what catches an epoch-ignoring cache)."""

    def __init__(self, rng: random.Random, reuse: float) -> None:
        self._rng = rng
        self._reuse = reuse
        self._pool: List[Dict] = []

    def next(self) -> Dict:
        if self._pool and self._rng.random() < self._reuse:
            return dict(self._rng.choice(self._pool))
        q = _rand_query(self._rng)
        self._pool.append(q)
        return q


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------
def generate_trace(
    seed: int,
    steps: Optional[int] = None,
    mode: Optional[str] = None,
) -> Dict:
    """Build the full trace for one seed.

    Args:
        seed: Workload seed; also seeds the harness's scheduler.
        steps: Step count override (defaults to a seed-chosen length).
        mode: Force ``"single"`` or ``"cluster"`` (defaults to a
            seed-chosen mode, ~25% cluster).
    """
    rng = random.Random(("repro-simtest", seed).__repr__())
    # Draw the mode coin even when overridden so the rest of the stream
    # is identical either way.
    coin = rng.random()
    if mode is None:
        mode = "cluster" if coin < _CLUSTER_FRACTION else "single"
    elif mode not in ("single", "cluster"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "cluster":
        return _cluster_trace(seed, rng, steps)
    return _single_trace(seed, rng, steps)


def _single_trace(seed: int, rng: random.Random, steps: Optional[int]) -> Dict:
    n_steps = steps if steps is not None else rng.randint(30, 50)
    next_id = 0
    initial: List[Dict] = []
    for _ in range(rng.randint(20, 40)):
        initial.append(_rand_doc(rng, next_id))
        next_id += 1
    live: Set[int] = {d["id"] for d in initial}

    subscribers = []
    for i in range(rng.randint(1, 2)):
        subscribers.append({"name": f"sim-sub-{i}"})
        # Draw where the queue capacity and the three-way overflow-policy
        # choice used to be, so every later draw (and each seed's canary
        # catch) stays put.
        rng.choice([4, 16, 128])
        rng.randrange(3)
    pool = _QueryPool(rng, reuse=0.3)

    # --- temporal sub-population --------------------------------------
    # A separate id space (>= 100000) feeds the time-sliced index; its
    # virtual "now" only moves forward, and generated insert timestamps
    # always sit strictly inside the retention window *at generation
    # time*.  Removing steps can only lower the runtime watermark, so
    # every timestamp stays valid in every shrunk subsequence.
    slice_width = rng.choice([5.0, 10.0])
    retention_age = slice_width * rng.choice([3, 4])
    next_tid = 100000
    t_live: Dict[int, float] = {}
    tnow = 0.0
    t_initial: List[Dict] = []
    for _ in range(rng.randint(6, 14)):
        ts = round(rng.uniform(0.0, 2.0 * slice_width), 3)
        t_initial.append({"doc": _rand_doc(rng, next_tid), "ts": ts})
        t_live[next_tid] = ts
        next_tid += 1
        tnow = max(tnow, ts)

    def prune_expired() -> None:
        # Conservative mirror of the retention rule: the runtime
        # watermark never exceeds the generator's ``tnow`` (every insert
        # timestamp and every advance target is <= tnow when emitted),
        # so any slice still alive under tnow is alive at runtime —
        # t_delete steps therefore only ever name live documents.
        cutoff = tnow - retention_age
        for doc_id, ts in list(t_live.items()):
            slice_end = (math.floor(ts / slice_width) + 1) * slice_width
            if slice_end <= cutoff:
                del t_live[doc_id]

    def temporal_query() -> Dict:
        step = {"op": "t_query", "query": _rand_query(rng),
                "time_range": None, "recency": None}
        if rng.random() < 0.6:
            start = round(tnow - rng.uniform(slice_width, 3 * slice_width), 3)
            step["time_range"] = [
                start, round(start + rng.uniform(slice_width, 3 * slice_width), 3)
            ]
        if rng.random() < 0.5:
            step["recency"] = {
                "half_life": slice_width * rng.choice([1.0, 2.0]),
                "origin": round(tnow, 3),
            }
        return step

    def temporal_step() -> Dict:
        nonlocal next_tid, tnow
        roll = rng.random()
        if roll < 0.40:
            if t_live and rng.random() < 0.25:
                doc_id = rng.choice(sorted(t_live))
                del t_live[doc_id]
                return {"op": "t_delete", "doc_id": doc_id}
            # Strictly inside the window: < 0.8 of the retention age
            # behind "now", so no subsequence can ever expire it first.
            ts = round(max(0.0, tnow - rng.uniform(0.0, 0.8 * retention_age)), 3)
            doc = _rand_doc(rng, next_tid)
            t_live[next_tid] = ts
            next_tid += 1
            return {"op": "t_insert", "doc": doc, "ts": ts}
        if roll < 0.75:
            return temporal_query()
        if roll < 0.90:
            tnow = round(tnow + rng.uniform(0.5 * slice_width, 1.5 * slice_width), 3)
            prune_expired()
            return {"op": "t_advance", "now": tnow}
        prune_expired()
        return {"op": "t_retention", "now": tnow, "probe": _temporal_probe()}

    def mutation_step() -> Dict:
        nonlocal next_id
        roll = rng.random()
        if roll < 0.5 or not live:
            doc = _rand_doc(rng, next_id)
            next_id += 1
            live.add(doc["id"])
            return {"op": "insert", "doc": doc}
        if roll < 0.75:
            doc_id = rng.choice(sorted(live))
            live.discard(doc_id)
            return {"op": "delete", "doc_id": doc_id}
        doc_id = rng.choice(sorted(live))
        new = _rand_doc(rng, doc_id)
        return {"op": "update", "doc_id": doc_id, "new": new}

    def net_faults() -> List[str]:
        """The connection-fault script of one net_query step.

        Self-contained like every other step: the faults are drawn at
        generation time and embedded, so replay and shrinking never
        consult a live RNG.  The script always ends in "ok" — the point
        is that faults may only cost retries, so the step must converge.
        """
        n = rng.choice([0, 0, 0, 1, 1, 2])
        pool = ["reset_send", "reset_recv", "truncate_response",
                "drop", "delay"]
        return [rng.choice(pool) for _ in range(n)] + ["ok"]

    trace_steps: List[Dict] = []
    # Standing queries go in early so most of the run exercises them.
    for sub in subscribers:
        for _ in range(rng.randint(1, 3)):
            trace_steps.append({
                "op": "register",
                "sub": sub["name"],
                "query": pool.next(),
                "alpha": 0.5,
            })
    while len(trace_steps) < n_steps:
        roll = rng.random()
        if roll < 0.32:
            trace_steps.append(mutation_step())
        elif roll < 0.44:
            trace_steps.append({"op": "query", "query": pool.next()})
        elif roll < 0.50:
            # A batch through query_many: the step both checks every
            # slot against the model and runs the cross-engine
            # differential (the exec-equivalence invariant).
            batch = [pool.next() for _ in range(rng.randint(2, 5))]
            if rng.random() < 0.3:
                batch[-1] = dict(batch[0])  # duplicates exercise dedup
            trace_steps.append({"op": "query_many", "queries": batch})
        elif roll < 0.56:
            trace_steps.append({
                "op": "net_query",
                "query": pool.next(),
                "faults": net_faults(),
            })
        elif roll < 0.60:
            trace_steps.append({"op": "checkpoint"})
        elif roll < 0.65:
            burst = [mutation_step() for _ in range(rng.randint(1, 4))]
            trace_steps.append({
                "op": "crash",
                "salt": rng.getrandbits(32),
                # None = clean stop mid-burst is skipped; the crash still
                # loses whatever the fsync cadence left unsynced.
                "after_ops": None if rng.random() < 0.3 else rng.randint(1, 14),
                "burst": burst,
                "probes": [_state_probe(), pool.next(), pool.next()],
            })
        elif roll < 0.68:
            sub = rng.choice(subscribers)
            trace_steps.append({
                "op": "register", "sub": sub["name"],
                "query": pool.next(), "alpha": 0.5,
            })
        elif roll < 0.76:
            trace_steps.append({"op": "poll", "sub": rng.choice(subscribers)["name"]})
        elif roll < 0.80:
            trace_steps.append({"op": "kill_resume",
                                "sub": rng.choice(subscribers)["name"]})
        else:
            trace_steps.append(temporal_step())
    return {
        "version": 1,
        "seed": seed,
        "mode": "single",
        "config": {
            "initial_docs": initial,
            "sync_every": rng.choice([1, 1, 1, 2, 4]),
            "subscribers": subscribers,
            "temporal": {
                "slice_width": slice_width,
                "retention_age": retention_age,
                "initial": t_initial,
            },
        },
        "steps": trace_steps,
    }


def _cluster_trace(seed: int, rng: random.Random, steps: Optional[int]) -> Dict:
    n_steps = steps if steps is not None else rng.randint(20, 35)
    shards = rng.choice([2, 3])
    next_id = 0
    initial: List[Dict] = []
    for _ in range(rng.randint(24, 40)):
        initial.append(_rand_doc(rng, next_id))
        next_id += 1
    live: Set[int] = {d["id"] for d in initial}
    pool = _QueryPool(rng, reuse=0.4)

    def chaos_plan() -> Dict:
        """The shard-fault plan of one chaos_search step.

        Self-contained like ``net_faults`` one tier up: all randomness
        is drawn now and embedded, so replay and shrinking never touch
        a live RNG.  ``scripts`` afflict individual scatter attempts
        (``"<shard>:<replica>"`` → consumed fault list, vocabulary in
        :data:`repro.net.sim.SHARD_FAULTS`); ``partition`` cuts whole
        shards off for the step.  A "blackout" script faults every
        attempt the gatherer can make (replicas × retry rounds), so
        degraded answers are exercised even without a partition; "flap"
        alternates failure and health within the step.
        """
        scripts: Dict[str, List[str]] = {}
        partitioned: List[int] = []
        if rng.random() < 0.35:
            partitioned = sorted(
                rng.sample(range(shards), rng.choice([1, 1, 2]))
            )
        reachable = [sid for sid in range(shards) if sid not in partitioned]
        low = 0 if partitioned else 1
        n_targets = rng.randint(low, min(2, len(reachable)))
        for sid in sorted(rng.sample(reachable, n_targets)):
            style = rng.choice(
                ["reset", "drop", "truncate", "delay",
                 "delay", "flap", "blackout"]
            )
            for rid in range(2):
                if style == "flap":
                    scripts[f"{sid}:{rid}"] = ["reset", "ok", "reset"]
                elif style == "blackout":
                    scripts[f"{sid}:{rid}"] = (
                        [rng.choice(["reset", "drop", "truncate"])] * 2
                    )
                elif style == "delay":
                    scripts[f"{sid}:{rid}"] = ["delay"] * rng.choice([1, 2])
                elif rid == 0 or rng.random() < 0.5:
                    # Single-replica faults: failover should absorb
                    # them without degrading the answer.
                    scripts[f"{sid}:{rid}"] = [style] * rng.randint(1, 2)
        return {"scripts": scripts, "partition": partitioned}

    trace_steps: List[Dict] = []
    while len(trace_steps) < n_steps:
        roll = rng.random()
        if roll < 0.28:
            doc = _rand_doc(rng, next_id)
            next_id += 1
            live.add(doc["id"])
            trace_steps.append({"op": "insert", "doc": doc})
        elif roll < 0.40 and live:
            doc_id = rng.choice(sorted(live))
            live.discard(doc_id)
            trace_steps.append({"op": "delete", "doc_id": doc_id})
        elif roll < 0.58:
            trace_steps.append({"op": "search", "query": pool.next()})
        elif roll < 0.72:
            trace_steps.append({
                "op": "chaos_search",
                "query": pool.next(),
                "plan": chaos_plan(),
            })
        elif roll < 0.80:
            trace_steps.append({
                "op": "search_many",
                "queries": [pool.next() for _ in range(rng.randint(2, 4))],
            })
        elif roll < 0.86:
            trace_steps.append({
                "op": "shard_checkpoint",
                "shard": rng.randrange(shards),
                "replica": rng.randrange(2),
            })
        elif roll < 0.90:
            # Learn a workload partitioner from the queries recorded so
            # far and rebalance the live cluster onto it mid-churn.  The
            # probes bracket the move: answered before and after, they
            # must stay byte-identical (the planner-equivalence
            # invariant) — a state probe pins the whole corpus, the pool
            # queries hit the hot shapes the planner optimised for.
            trace_steps.append({
                "op": "rebalance",
                "probes": [_state_probe(), pool.next(), pool.next()],
            })
        else:
            # Kill one replica, prove failover answers stay exact and
            # complete, then recover it — all within one step, because
            # the cluster has no anti-entropy: a replica that misses a
            # write while dead can only rejoin via recovery *before*
            # the next mutation reaches its shard.
            trace_steps.append({
                "op": "outage",
                "shard": rng.randrange(shards),
                "replica": rng.randrange(2),
                "probes": [_state_probe(), pool.next()],
            })
    subscribers, trace_steps = _weave_stream_steps(seed, trace_steps)
    return {
        "version": 1,
        "seed": seed,
        "mode": "cluster",
        "config": {
            "initial_docs": initial,
            "shards": shards,
            "replicas": 2,
            "subscribers": subscribers,
            # Whole-query budget in virtual seconds: healthy attempts
            # cost zero virtual time, so only chaos delays and retry
            # backoff consume it — scatter-no-hang checks every search
            # finishes inside it.
            "deadline": 5.0,
        },
        "steps": trace_steps,
    }


def _weave_stream_steps(
    seed: int, steps: List[Dict]
) -> Tuple[List[Dict], List[Dict]]:
    """A cluster trace's standing-query steps, woven between its steps.

    Drawn from their own generator, so the cluster workload underneath
    (and every seed's chaos and routing canary) is the one it was
    without them.  Returns ``(subscribers, steps)``.
    """
    rng = random.Random(("repro-simtest-stream", seed).__repr__())
    pool = _QueryPool(rng, reuse=0.4)
    names = [f"sim-sub-{i}" for i in range(rng.randint(1, 2))]

    def stream_step(op: str) -> Dict:
        step = {"op": op, "sub": rng.choice(names)}
        if op == "register":  # at the harness ranker's: a cluster has one
            step.update(query=pool.next(), alpha=0.5)
        return step

    # Standing queries go in early so most of the run exercises them.
    woven = [stream_step("register") for _ in range(rng.randint(1, 3))]
    for step in steps:
        woven.append(step)
        roll = rng.random()
        if roll < 0.23:
            woven.append(stream_step(
                "register" if roll < 0.05 else "poll" if roll < 0.20 else "kill_resume"
            ))
    return [{"name": name} for name in names], woven
