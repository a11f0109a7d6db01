"""Temporal model types: timestamps, time ranges, recency scoring.

Efficient Top-K Temporal Spatial Keyword Search (arXiv:1805.02009)
extends the paper's query class with a temporal axis.  This module adds
the model vocabulary for that axis:

* a :class:`TemporalDocument` — a spatial document plus its timestamp;
* a :class:`TimeRange` filter (half-open ``[start, end)``);
* a :class:`RecencySpec` — an exponential half-life decay folded into
  the combined score as a **per-document multiplier**

      score'(D) = score(D) * 2^(-(origin - D.ts) / half_life)

  The multiplier is in ``(0, 1]`` and monotone non-increasing in the
  document's age, so every admissible upper bound on ``score(D)`` over
  a document set times the decay at the set's *newest* timestamp is an
  admissible upper bound on ``score'(D)`` — the property that keeps
  the I3 bound-based pruning (and slice-level pruning) exact.

Slice arithmetic lives here too, shared by the index and the oracle:
``slice_of`` assigns every finite timestamp to exactly one slice id and
``slice_span`` gives the slice's half-open ``[start, end)`` span, with
float guards so the two functions always agree at slice boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.model.document import SpatialDocument
from repro.model.query import TopKQuery

__all__ = [
    "RecencySpec",
    "TemporalDocument",
    "TemporalQuery",
    "TimeRange",
    "recency_weight",
    "slice_of",
    "slice_span",
]


@dataclass(frozen=True, slots=True)
class TimeRange:
    """A half-open time interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"time range must be finite, got {self}")
        if self.start >= self.end:
            raise ValueError(f"empty time range [{self.start}, {self.end})")

    def contains(self, ts: float) -> bool:
        return self.start <= ts < self.end

    def overlaps_span(self, lo: float, hi: float) -> bool:
        """Whether this range intersects the half-open span ``[lo, hi)``."""
        return self.start < hi and lo < self.end


@dataclass(frozen=True, slots=True)
class RecencySpec:
    """Exponential recency decay: weight halves every ``half_life``
    seconds of age, measured backwards from ``origin`` (the caller's
    "now" — explicit, so the same query always scores the same way)."""

    half_life: float
    origin: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_life) and self.half_life > 0):
            raise ValueError(f"half_life must be positive, got {self.half_life}")
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")


def recency_weight(spec: RecencySpec, ts: float) -> float:
    """The per-document recency multiplier in ``(0, 1]``.

    Documents newer than ``origin`` clamp to age 0 (weight 1.0), so a
    "future" timestamp can never outrank the base score.  Shared by the
    index and the naive oracle so both sides compute bit-identical
    weights.
    """
    age = spec.origin - ts
    if age <= 0.0:
        return 1.0
    return 2.0 ** (-(age / spec.half_life))


@dataclass(frozen=True, slots=True)
class TemporalDocument:
    """A spatial document stamped with its ingestion/event time.

    ``doc_id``/``x``/``y`` read through to the document, so a
    partitioner's ``shard_of`` places it exactly like the plain one."""

    doc: SpatialDocument
    timestamp: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp}")

    @property
    def doc_id(self) -> int:
        return self.doc.doc_id

    @property
    def x(self) -> float:
        return self.doc.x

    @property
    def y(self) -> float:
        return self.doc.y


@dataclass(frozen=True, slots=True)
class TemporalQuery:
    """A top-k spatial keyword query with an optional temporal axis.

    ``time_range`` filters candidates to ``[start, end)``; ``recency``
    multiplies every candidate's combined score by its decay weight.
    Both ``None`` makes this exactly the base query over all time.
    Hashable, so it keys result caches like :class:`TopKQuery` does.
    """

    base: TopKQuery
    time_range: Optional[TimeRange] = None
    recency: Optional[RecencySpec] = None

    @property
    def x(self) -> float:
        return self.base.x

    @property
    def y(self) -> float:
        return self.base.y

    @property
    def words(self) -> Tuple[str, ...]:
        return self.base.words

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def semantics(self):
        return self.base.semantics

    @property
    def is_plain(self) -> bool:
        """True when there is no temporal component at all."""
        return self.time_range is None and self.recency is None


def slice_of(ts: float, width: float) -> int:
    """The slice id owning timestamp ``ts`` for a given slice width.

    Nominal assignment is ``floor(ts / width)``; the loops repair the
    one-ulp cases where float division lands across a boundary, so the
    invariant ``slice_span(slice_of(ts))[0] <= ts < slice_span(...)[1]``
    holds for *every* finite timestamp.
    """
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"slice width must be positive, got {width}")
    if not math.isfinite(ts):
        raise ValueError(f"timestamp must be finite, got {ts}")
    sid = math.floor(ts / width)
    while ts < sid * width:
        sid -= 1
    while ts >= (sid + 1) * width:
        sid += 1
    return sid


def slice_span(sid: int, width: float) -> Tuple[float, float]:
    """The half-open ``[start, end)`` span of slice ``sid``.

    Adjacent slices share the exact float boundary (``end`` of ``sid``
    is the same expression as ``start`` of ``sid + 1``), so the spans
    partition the time line.
    """
    return (sid * width, (sid + 1) * width)
