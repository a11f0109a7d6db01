"""Shared fixtures for the test suite.

Conventions used throughout the tests:

* tiny page sizes (64 bytes -> 2 tuple slots) recreate the paper's
  Figure 2 example scale and force every split/move code path;
* all term weights are f32-quantised so disk round-trips are exact and
  every index produces bit-identical scores;
* ``tests.helpers.make_documents`` produces small reproducible corpora.
"""

from __future__ import annotations

import random
from typing import List

import pytest

import repro.exec
from repro.exec import available_engines
from repro.model.document import SpatialDocument
from repro.storage.records import f32

from tests.helpers import make_documents


@pytest.fixture(params=list(available_engines()))
def engine(request, monkeypatch) -> str:
    """Parametrizes a test over every available execution engine.

    Replaces ``repro.exec.default_engine`` so *default* engine
    resolution — the path every index/service/wire call takes unless an
    engine is pinned — selects the parametrized engine.  Suites that must
    hold for both engines (the equivalence suites) opt in with a
    module-level autouse fixture depending on this one; without numpy
    the vector parameter disappears and the suites run tuple-only.
    """
    monkeypatch.setattr(repro.exec, "default_engine", lambda: request.param)
    return request.param


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
