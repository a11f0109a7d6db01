"""Shared fixtures for the test suite.

Conventions used throughout the tests:

* tiny page sizes (64 bytes -> 2 tuple slots) recreate the paper's
  Figure 2 example scale and force every split/move code path;
* all term weights are f32-quantised so disk round-trips are exact and
  every index produces bit-identical scores;
* ``tests.helpers.make_documents`` produces small reproducible corpora.
"""

from __future__ import annotations

import itertools
import random
from typing import List

import pytest

from repro.core.index import I3Index
from repro.exec.vector import VectorQueryProcessor
from repro.model.document import SpatialDocument
from repro.storage.records import f32

from tests.helpers import make_documents


@pytest.fixture(params=("tuple", "vector"))
def engine(request) -> str:
    """Each cell model, by the name ``I3Index.engine_processor`` resolves.

    Index-level reference tests pass it on (``I3Index.query(...,
    engine=engine)``, ``engine_processor(engine)``) or depend on
    :func:`named_engine`.  Suites above the index, which always serve
    from the vector model, depend on :func:`reference_check` instead.
    """
    return request.param


@pytest.fixture
def named_engine(engine, monkeypatch) -> str:
    """Index-level suites whose calls name no model (``query``,
    ``iter_query``, ``range_query``, the direction searcher) run on each
    one in turn: ``I3Index.engine_processor`` resolves ``None`` to the
    parametrized name for the duration of the test."""
    resolve = I3Index.engine_processor
    monkeypatch.setattr(
        I3Index, "engine_processor",
        lambda index, name=None: resolve(index, name or engine),
    )
    return engine


def _hexed(results):
    return [(d.doc_id, d.score.hex()) for d in results]


@pytest.fixture
def reference_check(engine, monkeypatch) -> None:
    """Under ``"vector"`` the stack runs as served.  Under ``"tuple"``
    every answer the vector model gives — ``search``, each streamed
    ``iter_search`` item, ``range_search`` — is also computed by the
    tuple reference on the same index at the same moment and must match
    it bit for bit, so the service, cluster, wire and temporal stacks
    are a differential against the reference as well as against the
    naive oracle.  (The reference's page reads land in the index's
    counters: suites that assert I/O use ``engine`` directly.)
    """
    if engine == "vector":
        return
    search = VectorQueryProcessor.search
    iter_search = VectorQueryProcessor.iter_search
    range_search = VectorQueryProcessor.range_search

    def reference(processor):
        return processor.index.engine_processor("tuple")

    def checked_search(self, query, ranker, *args, **kwargs):
        got = search(self, query, ranker, *args, **kwargs)
        want = reference(self).search(query, ranker, *args, **kwargs)
        assert _hexed(got) == _hexed(want), query
        return got

    def checked_iter_search(self, query, ranker):
        want = reference(self).iter_search(query, ranker)
        for got in iter_search(self, query, ranker):
            assert _hexed([got]) == _hexed(itertools.islice(want, 1)), query
            yield got
        assert next(want, None) is None, query

    def checked_range_search(self, region, words, semantics):
        got = range_search(self, region, words, semantics)
        want = reference(self).range_search(region, words, semantics)
        assert _hexed(got) == _hexed(want), (region, words)
        return got

    monkeypatch.setattr(VectorQueryProcessor, "search", checked_search)
    monkeypatch.setattr(VectorQueryProcessor, "iter_search", checked_iter_search)
    monkeypatch.setattr(VectorQueryProcessor, "range_search", checked_range_search)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator per test."""
    return random.Random(0xED87)


@pytest.fixture
def small_docs(rng) -> List[SpatialDocument]:
    """Thirty tiny documents over the default vocabulary."""
    return make_documents(30, rng)


@pytest.fixture
def paper_documents() -> List[SpatialDocument]:
    """The paper's Figure 1 running example: 8 documents.

    Locations are chosen to match Figure 2's cell layout on the unit
    square (C1 = SW, C2 = SE, C3 = NW, C4 = NE in our quadrant order;
    the figure's d4, d7, d8 share C4 and split into sub-cells).
    """
    raw = [
        SpatialDocument(1, 0.30, 0.30, {"chinese": 0.6, "restaurant": 0.4}),
        SpatialDocument(2, 0.70, 0.40, {"korean": 0.7, "restaurant": 0.3}),
        SpatialDocument(3, 0.70, 0.10, {"spicy": 0.2, "chinese": 0.2, "restaurant": 0.5}),
        SpatialDocument(4, 0.60, 0.70, {"spicy": 0.7, "restaurant": 0.7}),
        SpatialDocument(5, 0.20, 0.80, {"spicy": 0.8, "korean": 0.5, "restaurant": 0.6}),
        SpatialDocument(6, 0.40, 0.45, {"spicy": 0.4, "restaurant": 0.5}),
        SpatialDocument(7, 0.90, 0.60, {"chinese": 0.1, "restaurant": 0.3}),
        SpatialDocument(8, 0.55, 0.95, {"restaurant": 0.2}),
    ]
    # Weights f32-quantised so disk round-trips are score-exact.
    return [
        SpatialDocument(d.doc_id, d.x, d.y, {w: f32(v) for w, v in d.terms.items()})
        for d in raw
    ]
