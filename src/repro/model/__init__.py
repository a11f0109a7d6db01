"""Shared data model: documents, tuples, queries, scoring, results."""

from repro.model.document import SpatialDocument, SpatialTuple
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc, TopKCollector
from repro.model.scoring import Ranker

__all__ = [
    "SpatialDocument",
    "SpatialTuple",
    "Semantics",
    "TopKQuery",
    "ScoredDoc",
    "TopKCollector",
    "Ranker",
]
