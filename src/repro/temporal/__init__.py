"""Temporal top-k: time-sliced partitions, recency scoring, retention.

See :mod:`repro.temporal.model` for the query/document vocabulary,
:mod:`repro.temporal.index` for the rolling sliced index,
:mod:`repro.temporal.oracle` for the naive reference implementation.
Sharding composed with slicing is :class:`~repro.cluster.ClusterService`
over replica sets of ``QueryService(TemporalIndex)`` (docs/temporal.md).
"""

from repro.temporal.index import TemporalConfig, TemporalIndex, TimeSlice
from repro.temporal.model import (
    RecencySpec,
    TemporalDocument,
    TemporalQuery,
    TimeRange,
    recency_weight,
    slice_of,
    slice_span,
)
from repro.temporal.oracle import NaiveTemporalIndex

__all__ = [
    "NaiveTemporalIndex",
    "RecencySpec",
    "TemporalConfig",
    "TemporalDocument",
    "TemporalIndex",
    "TemporalQuery",
    "TimeRange",
    "TimeSlice",
    "recency_weight",
    "slice_of",
    "slice_span",
]
