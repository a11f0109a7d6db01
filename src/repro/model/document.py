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

A document is where a term weight becomes what the index stores: its
constructor rounds every weight to single precision (the slot's 4-byte
weight, Section 4.1) once, so every index, oracle and standing query
that reads ``terms`` scores the same doubles.

It also holds the one JSON codec of a document, the record
``{"id", "x", "y", "terms"[, "ts"]}`` (``ts`` is the temporal model's
optional timestamp) that every boundary writes and reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.storage.records import f32

__all__ = [
    "SpatialDocument",
    "SpatialTuple",
    "document_from_record",
    "document_to_record",
    "json_int",
    "json_number",
]

F32_LIMIT = float.fromhex("0x1.ffffffp+127")
"""The smallest double that rounds to infinity in single precision: a
term weight is stored as an f32, so every weight must lie below it."""


@dataclass(frozen=True, slots=True)
class SpatialDocument:
    """A document with a point location and weighted keywords.

    Attributes:
        doc_id: Unique integer identifier in ``[0, 2**64)``.
        x: Horizontal coordinate (longitude in geographic use).
        y: Vertical coordinate (latitude in geographic use).
        terms: Mapping from keyword to its term weight (e.g. tf-idf),
            rounded to the nearest f32 on construction (an f32 weight
            keeps its bits).
    """

    doc_id: int
    x: float
    y: float
    terms: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.doc_id < 1 << 64:  # stored as an unsigned 64-bit int
            raise ValueError(f"doc_id must be in [0, 2**64), got {self.doc_id}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                f"document location must be finite, got ({self.x}, {self.y})"
            )
        terms = {}
        for word, weight in self.terms.items():
            if not word:
                raise ValueError("empty keyword in document terms")
            # The chained comparison also refuses NaN, which a plain
            # ``weight < 0`` lets through.
            if not 0 <= weight < F32_LIMIT:
                raise ValueError(
                    f"weight {weight!r} for keyword {word!r} must be "
                    "non-negative and finite in single precision (f32)"
                )
            terms[word] = f32(weight)
        object.__setattr__(self, "terms", terms)

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


def json_int(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer, else :class:`ValueError`.

    ``int()`` would run ``2.9`` as 2, ``true`` as 1 and ``"7"`` as 7,
    and raise ``OverflowError`` on ``Infinity``; none of those is an
    integer in a record.
    """
    if type(value) is not int:  # bool is an int subclass
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value: Any, name: str) -> float:
    """``value`` as a float if it is a finite JSON number, else
    :class:`ValueError`.

    ``float()`` would run ``"0.5"`` as 0.5 and ``true`` as 1.0, and
    Python's ``json`` reads the bare tokens ``NaN`` and ``Infinity``;
    none of those is a number in a record.
    """
    # NaN fails the comparison; an integer too big for a float fails it
    # without the OverflowError math.isfinite would raise.
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def document_to_record(doc: SpatialDocument, ts: Optional[float] = None) -> Dict:
    """The JSON record of ``doc``, with ``ts`` when it is given."""
    record = {"id": doc.doc_id, "x": doc.x, "y": doc.y, "terms": dict(doc.terms)}
    if ts is not None:
        record["ts"] = ts
    return record


def document_from_record(record: Any) -> Tuple[SpatialDocument, Optional[float]]:
    """``(document, ts or None)`` of a record, or one :class:`ValueError`
    naming the field: the id is a JSON integer, ``x``, ``y``, weights and
    ``ts`` are finite JSON numbers, keywords are strings."""
    if not isinstance(record, dict):
        raise ValueError(f"document record must be an object, got {record!r}")
    try:
        doc_id, x, y, terms = (record[f] for f in ("id", "x", "y", "terms"))
    except KeyError as exc:
        raise ValueError(f"document {exc.args[0]} is missing") from None
    if not isinstance(terms, dict) or not all(isinstance(w, str) for w in terms):
        raise ValueError(
            f"document terms must map string keywords to weights, got {terms!r}"
        )
    doc = SpatialDocument(
        json_int(doc_id, "document id"),
        json_number(x, "document x"),
        json_number(y, "document y"),
        {w: json_number(v, f"weight of {w!r}") for w, v in terms.items()},
    )
    if "ts" not in record:
        return doc, None
    return doc, json_number(record["ts"], "document ts")
