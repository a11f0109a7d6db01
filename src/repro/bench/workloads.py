"""Reusable workload builders for the benchmark suite.

Keeps the benchmark files declarative: each figure's bench asks for
"the FREQ_3 query set on Twitter5M" or "4000 random updates" and gets a
deterministic, index-independent workload.
"""

from __future__ import annotations

import random
from typing import Callable, List

from repro.datasets.generators import Corpus
from repro.model.document import SpatialDocument

__all__ = ["update_workload"]


def update_workload(
    corpus: Corpus,
    num_operations: int,
    seed: int = 0,
    insert_fraction: float = 0.5,
) -> List[Callable[[object], None]]:
    """A reproducible mix of document insertions and deletions.

    Mirrors the paper's Figure 13 methodology: "execute 4,000 randomly
    generated data operations, including insertion and deletion of
    spatial documents" against an index built to a moderate size.
    Deletions pick documents that are in the index; insertions create
    fresh documents resampled from the corpus's own distribution (an
    existing document's keywords and a perturbed location), with new ids.

    Returns closures taking the index, so the identical operation
    sequence can be replayed against every index under test.
    """
    rng = random.Random(f"{seed}/updates")
    alive = list(corpus.documents)
    next_id = max((d.doc_id for d in alive), default=0) + 1
    operations: List[Callable[[object], None]] = []
    for _ in range(num_operations):
        do_insert = rng.random() < insert_fraction or len(alive) < 2
        if do_insert:
            template = rng.choice(alive)
            x = min(max(template.x + rng.gauss(0.0, 0.01), corpus.space.min_x), corpus.space.max_x)
            y = min(max(template.y + rng.gauss(0.0, 0.01), corpus.space.min_y), corpus.space.max_y)
            doc = SpatialDocument(next_id, x, y, template.terms)
            next_id += 1
            alive.append(doc)
            operations.append(_insert_op(doc))
        else:
            victim = alive.pop(rng.randrange(len(alive)))
            operations.append(_delete_op(victim))
    return operations


def _insert_op(doc: SpatialDocument) -> Callable[[object], None]:
    def op(index: object) -> None:
        index.insert_document(doc)

    return op


def _delete_op(doc: SpatialDocument) -> Callable[[object], None]:
    def op(index: object) -> None:
        index.delete_document(doc)

    return op
