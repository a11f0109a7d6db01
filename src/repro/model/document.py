"""Core data model: spatial documents and their per-keyword tuples.

The paper's data model (Section 3) represents a *spatial document* as

    D = <D.id, D.lat, D.lng, D.terms = {<w_i, s_i>}>

i.e. a point location plus a bag of weighted keywords, and shreds each
document into per-keyword *spatial tuples*

    T = <T.id, T.w, D.id, D.lat, D.lng, T.s>

during the textual-first partition (Section 4.1).  This module defines
both records.  Coordinates are modelled as abstract ``(x, y)`` floats; the
benchmark generators use the unit square, but nothing in the library
assumes a particular extent — every index receives the data-space
rectangle explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple

__all__ = ["SpatialDocument", "SpatialTuple"]


@dataclass(frozen=True, slots=True)
class SpatialDocument:
    """A document with a point location and weighted keywords.

    Attributes:
        doc_id: Unique non-negative integer identifier.
        x: Horizontal coordinate (longitude in geographic use).
        y: Vertical coordinate (latitude in geographic use).
        terms: Mapping from keyword to its term weight (e.g. tf-idf).
    """

    doc_id: int
    x: float
    y: float
    terms: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise ValueError(f"doc_id must be non-negative, got {self.doc_id}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                f"document location must be finite, got ({self.x}, {self.y})"
            )
        for word, weight in self.terms.items():
            if not word:
                raise ValueError("empty keyword in document terms")
            # The chained comparison also refuses NaN, which a plain
            # ``weight < 0`` lets through.
            if not 0 <= weight < math.inf:
                raise ValueError(
                    f"weight {weight!r} for keyword {word!r} must be "
                    "finite and non-negative"
                )

    @property
    def location(self) -> Tuple[float, float]:
        """The document's point location as an ``(x, y)`` pair."""
        return (self.x, self.y)

    def weight(self, word: str) -> float:
        """Return the term weight of ``word``, or ``0.0`` if absent."""
        return self.terms.get(word, 0.0)

    def contains_all(self, words) -> bool:
        """True if every keyword in ``words`` appears in this document."""
        return all(w in self.terms for w in words)

    def contains_any(self, words) -> bool:
        """True if at least one keyword in ``words`` appears here."""
        return any(w in self.terms for w in words)

    def tuples(self) -> Iterator["SpatialTuple"]:
        """Shred the document into per-keyword tuples (textual partition).

        This is the Section 4.1 operation: one :class:`SpatialTuple` per
        distinct keyword, inheriting the document's location and id.
        """
        for word, weight in self.terms.items():
            yield SpatialTuple(
                doc_id=self.doc_id, word=word, x=self.x, y=self.y, weight=weight
            )


@dataclass(frozen=True, slots=True)
class SpatialTuple:
    """One (document, keyword) pair produced by the textual partition.

    This is the unit stored in every index in this library: the data file
    of I3, the leaf entries of IR-tree and the per-keyword structures of
    S2I all store spatial tuples.

    Attributes:
        doc_id: Identifier of the originating document.
        word: The single keyword this tuple carries.
        x: Horizontal coordinate inherited from the document.
        y: Vertical coordinate inherited from the document.
        weight: Term weight of ``word`` in the document.
    """

    doc_id: int
    word: str
    x: float
    y: float
    weight: float

    @property
    def location(self) -> Tuple[float, float]:
        """The tuple's point location as an ``(x, y)`` pair."""
        return (self.x, self.y)


def documents_from_tuples(tuples) -> Dict[int, SpatialDocument]:
    """Reassemble documents from a stream of spatial tuples.

    Inverse of :meth:`SpatialDocument.tuples`; used by tests to check
    that shredding is lossless.
    """
    locations: Dict[int, Tuple[float, float]] = {}
    terms: Dict[int, Dict[str, float]] = {}
    for t in tuples:
        locations[t.doc_id] = (t.x, t.y)
        terms.setdefault(t.doc_id, {})[t.word] = t.weight
    return {
        doc_id: SpatialDocument(doc_id, x, y, terms[doc_id])
        for doc_id, (x, y) in locations.items()
    }
