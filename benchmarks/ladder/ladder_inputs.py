"""Seeded inputs of the ladder benchmark: corpus and the four op streams.

Everything here is a pure function of ``(seed, docs, seconds)``.  The
corpus comes from ``TwitterLikeGenerator``; every query and mutation
comes from the generators below, which read only the corpus's keyword
frequencies and document locations.  The digests pin both, so a later
change to ``repro.datasets`` cannot silently give a parent commit and
its change different work.

What an installation would keep fixed is fixed here too, under
``CORPUS_SEED``: the corpus, the query shapes that repeat (the 64 of
``wire-hot``, the 200 of ``cluster-selective``) and the recorded log
the placement is learned from.  ``--seed`` drives
the traffic: which shape when, every fresh location and keyword draw,
every inserted document.  With the corpus seeded per run, the learned
placement had 2 284 leaves under one seed and 3 073 under another, and
routing over them moved ``cluster-selective`` by 40 % - a difference
between inputs, which a run-to-run comparison cannot tell from one
between commits.

An op is ``("q", TopKQuery)``, ``("i", SpatialDocument)`` or
``("d", SpatialDocument)``.  A stream is laid out as
``rounds[r][c]`` — the ops connection ``c`` issues in round ``r`` —
with every round holding the same mix of op kinds.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ladder_api import Semantics, SpatialDocument, TopKQuery, TwitterLikeGenerator

CORPUS_SEED = 2013
CONNECTIONS = 2  # closed loop, one client thread per core of this host
ROUNDS = 12
K = 50
# Op counts of the issue, sized for 37.5 s per workload on the seed
# commit; a run of --seconds S issues S / 37.5 of each.
NOMINAL_SECONDS = 37.5
NOMINAL_OPS = {
    "wire-distinct": 2400,
    "wire-hot": 100_000,
    "cluster-selective": 16_000,
    "ingest-mixed": 6000,
}
NOMINAL_TRAINING = 4000
NOMINAL_WARMUP = 50  # per connection
HOT_SHAPES = 64
SELECTIVE_SHAPES = 200
FREQ_POOL = 40
JITTER = 1e-4

Op = Tuple[str, object]


@dataclass
class Stream:
    """One workload's ops: warm-up (untimed) and the timed rounds."""

    warmup: List[List[Op]]
    rounds: List[List[List[Op]]]
    training: List[TopKQuery] = field(default_factory=list)

    def timed_ops(self) -> List[Op]:
        return [op for rnd in self.rounds for conn in rnd for op in conn]


class CorpusView:
    """The corpus facts the generators draw from."""

    def __init__(self, corpus) -> None:
        self.space = corpus.space
        self.documents: List[SpatialDocument] = corpus.documents
        frequency: Counter = Counter()
        for doc in self.documents:
            frequency.update(doc.terms)
        ranked = sorted(frequency.items(), key=lambda kv: (-kv[1], kv[0]))
        self.by_frequency = [word for word, _ in ranked]
        # Selective keywords name specific content: anything outside the
        # 5 % most frequent words.  One frequent word in a popular shape
        # would otherwise set the whole run's cost (10x between seeds).
        self.selective = self.by_frequency[len(ranked) // 20:]
        # REST: one fairly frequent head keyword and what co-occurs with it.
        self.head = self.by_frequency[min(19, len(ranked) - 1)]
        together: Counter = Counter()
        for doc in self.documents:
            if self.head in doc.terms:
                together.update(w for w in doc.terms if w != self.head)
        ranked = sorted(together.items(), key=lambda kv: (-kv[1], kv[0]))
        self.companions = [word for word, _ in ranked[:200]]


class _Deck:
    """Deals items so that each is used equally often.

    Independent draws would let one seed's queries lean on the corpus's
    heaviest keywords and another's on its lightest; page reads per
    query would then differ by seed more than by code.
    """

    def __init__(self, items: Sequence[str], rng: random.Random) -> None:
        self._items = list(items)
        self._rng = rng
        self._pile: List[str] = []

    def deal(self, count: int) -> Tuple[str, ...]:
        count = min(count, len(self._items))
        hand: List[str] = []
        while len(hand) < count:
            if not self._pile:
                self._pile = self._items[:]
                self._rng.shuffle(self._pile)
            card = self._pile.pop()
            if card not in hand:
                hand.append(card)
        return tuple(hand)


def make_corpus(docs: int):
    return TwitterLikeGenerator(docs, seed=CORPUS_SEED).generate()


def scaled(nominal: int, seconds: float, floor: int = 1) -> int:
    return max(floor, round(nominal * seconds / NOMINAL_SECONDS))


def _warmup(seconds: float) -> int:
    return scaled(NOMINAL_WARMUP, seconds, floor=10)


def _per_connection_round(total: int, rounds: int, unit: int) -> int:
    share = total / (rounds * CONNECTIONS)
    return max(unit, round(share / unit) * unit)


def _location(view: CorpusView, rng: random.Random) -> Tuple[float, float]:
    doc = rng.choice(view.documents)
    return doc.x, doc.y


class _QueryMaker:
    """FREQ_2-OR, FREQ_3-OR, FREQ_3-AND and REST-OR queries in turn."""

    def __init__(self, view: CorpusView, rng: random.Random) -> None:
        self.view = view
        self.rng = rng
        self.frequent = _Deck(view.by_frequency[:FREQ_POOL], rng)
        self.companions = _Deck(view.companions, rng)
        self.seen: set = set()
        self.made = 0
        self._rest = 0

    def _words(self, kind: int) -> Tuple[Tuple[str, ...], Semantics]:
        if kind == 0:
            return self.frequent.deal(2), Semantics.OR
        if kind == 1:
            return self.frequent.deal(3), Semantics.OR
        if kind == 2:
            return self.frequent.deal(3), Semantics.AND
        self._rest += 1  # zero, one, two companions in turn
        return (self.view.head, *self.companions.deal(self._rest % 3)), Semantics.OR

    def fresh(self, kind: Optional[int] = None) -> TopKQuery:
        """A query no earlier call returned."""
        if kind is None:
            kind = self.made % 4
        while True:
            words, semantics = self._words(kind)
            x, y = _location(self.view, self.rng)
            query = TopKQuery(x, y, words, k=K, semantics=semantics)
            if query not in self.seen:
                self.seen.add(query)
                self.made += 1
                return query


def _deal_rounds(ops: List[Op], rounds: int, per_conn: int) -> List[List[List[Op]]]:
    it = iter(ops)
    return [
        [[next(it) for _ in range(per_conn)] for _ in range(CONNECTIONS)]
        for _ in range(rounds)
    ]


def wire_distinct(view: CorpusView, seed: int, seconds: float, rounds: int) -> Stream:
    rng = random.Random(f"{seed}/wire-distinct")
    maker = _QueryMaker(view, rng)
    total = scaled(NOMINAL_OPS["wire-distinct"], seconds)
    per_conn = _per_connection_round(total, rounds, unit=4)
    warm = _warmup(seconds)
    warmup = [[("q", maker.fresh()) for _ in range(warm)] for _ in range(CONNECTIONS)]
    ops = [("q", maker.fresh()) for _ in range(rounds * CONNECTIONS * per_conn)]
    return Stream(warmup, _deal_rounds(ops, rounds, per_conn))


def wire_hot(view: CorpusView, seed: int, seconds: float, rounds: int) -> Stream:
    maker = _QueryMaker(view, random.Random(f"{CORPUS_SEED}/wire-hot/shapes"))
    shapes = [maker.fresh() for _ in range(HOT_SHAPES)]
    rng = random.Random(f"{seed}/wire-hot")
    rng.shuffle(shapes)
    weights = [1.0 / rank for rank in range(1, len(shapes) + 1)]
    total = scaled(NOMINAL_OPS["wire-hot"], seconds)
    per_conn = _per_connection_round(total, rounds, unit=1)
    picks = rng.choices(shapes, weights=weights, k=rounds * CONNECTIONS * per_conn)
    warmup = [[("q", s) for s in shapes[c::CONNECTIONS]] for c in range(CONNECTIONS)]
    return Stream(warmup, _deal_rounds([("q", q) for q in picks], rounds, per_conn))


def cluster_selective(view: CorpusView, seed: int, seconds: float, rounds: int) -> Stream:
    rng = random.Random(f"{CORPUS_SEED}/cluster-selective/shapes")
    shapes = []
    for i in range(SELECTIVE_SHAPES):
        words = tuple(rng.sample(view.selective, 1 + i % 3))
        x, y = _location(view, rng)
        shapes.append((x, y, words, Semantics.AND if i % 2 == 0 else Semantics.OR))
    weights = [1.0 / rank for rank in range(1, len(shapes) + 1)]
    space = view.space
    seen: set = set()

    def draw(rng: random.Random, count: int) -> List[TopKQuery]:
        out = []
        while len(out) < count:
            x, y, words, semantics = rng.choices(shapes, weights=weights)[0]
            x = min(space.max_x, max(space.min_x, x + rng.uniform(-JITTER, JITTER)))
            y = min(space.max_y, max(space.min_y, y + rng.uniform(-JITTER, JITTER)))
            query = TopKQuery(x, y, words, k=K, semantics=semantics)
            if query not in seen:
                seen.add(query)
                out.append(query)
        return out

    # The recorded log the placement is learned from is part of the
    # installation too; the seed's traffic never repeats one of its queries.
    training = draw(rng, scaled(NOMINAL_TRAINING, seconds, 8))
    rng = random.Random(f"{seed}/cluster-selective")
    total = scaled(NOMINAL_OPS["cluster-selective"], seconds)
    per_conn = _per_connection_round(total, rounds, unit=1)
    warm = _warmup(seconds)
    warmup = [[("q", q) for q in draw(rng, warm)] for _ in range(CONNECTIONS)]
    ops = [("q", q) for q in draw(rng, rounds * CONNECTIONS * per_conn)]
    return Stream(warmup, _deal_rounds(ops, rounds, per_conn), training)


def ingest_mixed(view: CorpusView, seed: int, seconds: float, rounds: int) -> Stream:
    """Per connection and round: 50 % REST-OR queries, 40 % inserts of
    fresh documents, 10 % deletes of documents that connection inserted."""
    rng = random.Random(f"{seed}/ingest-mixed")
    maker = _QueryMaker(view, rng)
    total = scaled(NOMINAL_OPS["ingest-mixed"], seconds)
    per_conn = _per_connection_round(total, rounds, unit=10)
    warm = _warmup(seconds)
    next_id = len(view.documents)
    live: List[List[SpatialDocument]] = [[] for _ in range(CONNECTIONS)]

    def fresh_document() -> SpatialDocument:
        nonlocal next_id
        x, y = _location(view, rng)
        terms = dict(rng.choice(view.documents).terms)
        next_id += 1
        return SpatialDocument(next_id, x, y, terms)

    def block(conn: int, count: int) -> List[Op]:
        kinds = ["q"] * (count // 2) + ["i"] * (count * 4 // 10)
        kinds += ["d"] * (count - len(kinds))
        rng.shuffle(kinds)
        ops: List[Op] = []
        for kind in kinds:
            if kind == "d" and not live[conn]:
                kind = "i"
            if kind == "q":
                ops.append(("q", maker.fresh(kind=3)))
            elif kind == "i":
                doc = fresh_document()
                live[conn].append(doc)
                ops.append(("i", doc))
            else:
                ops.append(("d", live[conn].pop(rng.randrange(len(live[conn])))))
        return ops

    warmup = [block(c, warm) for c in range(CONNECTIONS)]
    timed = [[block(c, per_conn) for c in range(CONNECTIONS)] for _ in range(rounds)]
    return Stream(warmup, timed)


GENERATORS = {
    "wire-distinct": wire_distinct,
    "wire-hot": wire_hot,
    "cluster-selective": cluster_selective,
    "ingest-mixed": ingest_mixed,
}


def _op_line(op: Op) -> str:
    kind, body = op
    if kind == "q":
        return (f"q {body.x!r} {body.y!r} {' '.join(body.words)} "
                f"{body.k} {body.semantics.value}")
    return f"{kind} {_doc_line(body)}"


def _doc_line(doc: SpatialDocument) -> str:
    terms = " ".join(f"{w}={doc.terms[w]!r}" for w in sorted(doc.terms))
    return f"{doc.doc_id} {doc.x!r} {doc.y!r} {terms}"


def digest_corpus(documents: Sequence[SpatialDocument]) -> str:
    sha = hashlib.sha256()
    for doc in documents:
        sha.update(_doc_line(doc).encode("utf-8") + b"\n")
    return sha.hexdigest()


def digest_stream(stream: Stream) -> str:
    sha = hashlib.sha256()
    for query in stream.training:
        sha.update(_op_line(("q", query)).encode("utf-8") + b"\n")
    for conn in stream.warmup:
        for op in conn:
            sha.update(_op_line(op).encode("utf-8") + b"\n")
    for op in stream.timed_ops():
        sha.update(_op_line(op).encode("utf-8") + b"\n")
    return sha.hexdigest()


def check_pins(pins: Dict, docs: int, seed: int, seconds: float,
               found: Dict[str, str]) -> None:
    """Abort when the corpus, or the default seed's op stream, no
    longer hashes to its pin."""
    if docs != pins["docs"]:
        return
    if (seed, seconds) != (pins["seed"], pins["seconds"]):
        found = {"corpus": found["corpus"]}
    for name, value in found.items():
        if pins["sha256"].get(name) != value:
            raise SystemExit(
                f"ladder: inputs drifted: sha256 of {name} is {value}, "
                f"pinned {pins['sha256'].get(name)}"
            )
