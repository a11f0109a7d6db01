"""repro: reproduction of "Scalable Top-K Spatial Keyword Search" (EDBT 2013).

The package implements the paper's I3 integrated inverted index, the
IR-tree and S2I baselines it is evaluated against, the storage and
spatial substrates they all share, synthetic Twitter-like / Wikipedia-
like workloads, and a benchmark harness regenerating every table and
figure of the paper's evaluation.

Quickstart::

    from repro import I3Index, Ranker, SpatialDocument, TopKQuery, Semantics
    from repro.spatial import UNIT_SQUARE

    index = I3Index(UNIT_SQUARE)
    index.insert_document(
        SpatialDocument(1, 0.2, 0.3, {"spicy": 0.7, "restaurant": 0.7})
    )
    hits = index.query(
        TopKQuery(0.25, 0.25, ("spicy", "restaurant"), k=5, semantics=Semantics.AND),
        Ranker(UNIT_SQUARE, alpha=0.5),
    )
"""

from repro.core.index import I3Index
from repro.core.persistence import load_index, save_index
from repro.db import SearchHit, SpatialKeywordDatabase
from repro.model import (
    Ranker,
    ScoredDoc,
    Semantics,
    SpatialDocument,
    SpatialTuple,
    TopKCollector,
    TopKQuery,
)
from repro.service import QueryService, ServiceConfig
from repro.spatial.geometry import Rect, UNIT_SQUARE
from repro.streaming import (
    ResultUpdate,
    StreamingService,
    StreamSubscription,
)

__version__ = "1.0.0"

__all__ = [
    "I3Index",
    "load_index",
    "save_index",
    "SearchHit",
    "SpatialKeywordDatabase",
    "Ranker",
    "ScoredDoc",
    "Semantics",
    "SpatialDocument",
    "SpatialTuple",
    "TopKCollector",
    "TopKQuery",
    "QueryService",
    "ServiceConfig",
    "Rect",
    "UNIT_SQUARE",
    "ResultUpdate",
    "StreamingService",
    "StreamSubscription",
    "__version__",
]
