"""Signature files: fixed-length document-id bitmaps (Faloutsos [7]).

A dense keyword cell's summary (paper Section 4.3.2) carries a signature
``sig``: a bitmap of length eta with a hash function over document ids.
Inserting a tuple sets bit ``H(doc_id)``.  Signatures admit *false
positives* but never false negatives, so intersecting the signatures of
all query keywords in a cell and finding no common bit **proves** no
document there contains every keyword — the cell can be pruned under
AND semantics without touching its pages (Algorithm 5).

The hash is the paper's worked example, ``H(id) = id mod eta``, and
nothing else: the OR lattice and the columnar engine's ``sig_bits`` test
``id % eta`` directly, so any other hash would make their bounds
inadmissible.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Signature"]


class Signature:
    """An eta-bit superimposed-coding bitmap over document ids.

    Implemented as a Python big-int bitmask: intersection is ``&``,
    union ``|``, emptiness a zero test — all constant-cost at the
    bit lengths used here (eta defaults to 300, the paper's tuned value).
    """

    __slots__ = ("eta", "_bits")

    def __init__(self, eta: int, bits: int = 0) -> None:
        if eta <= 0:
            raise ValueError(f"signature length must be positive, got {eta}")
        self.eta = eta
        self._bits = bits

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, doc_id: int) -> None:
        """Set the bit of ``doc_id``."""
        self._bits |= 1 << doc_id % self.eta

    def add_all(self, doc_ids: Iterable[int]) -> None:
        """Set the bits of many document ids."""
        for doc_id in doc_ids:
            self.add(doc_id)

    def copy(self) -> "Signature":
        """An independent copy."""
        return Signature(self.eta, self._bits)

    @classmethod
    def full(cls, eta: int) -> "Signature":
        """A signature with every bit set — the identity for intersection
        (Algorithm 5 line 1: "set all bits of sig to be 1")."""
        return cls(eta, (1 << eta) - 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def might_contain(self, doc_id: int) -> bool:
        """Whether ``doc_id``'s bit is set (false positives possible,
        false negatives impossible)."""
        return bool(self._bits >> doc_id % self.eta & 1)

    def intersect(self, other: "Signature") -> "Signature":
        """Bitwise AND of two signatures of equal length."""
        self._check_compatible(other)
        return Signature(self.eta, self._bits & other._bits)

    def union(self, other: "Signature") -> "Signature":
        """Bitwise OR of two signatures of equal length."""
        self._check_compatible(other)
        return Signature(self.eta, self._bits | other._bits)

    def _check_compatible(self, other: "Signature") -> None:
        if self.eta != other.eta:
            raise ValueError(
                f"signature lengths differ: {self.eta} vs {other.eta}"
            )

    @property
    def bits(self) -> int:
        """The bitmap as an integer (bit ``id % eta`` set per added id)."""
        return self._bits

    @property
    def is_zero(self) -> bool:
        """Whether no bit is set (a provably empty intersection)."""
        return self._bits == 0

    @property
    def bit_count(self) -> int:
        """Number of set bits (saturation diagnostic)."""
        return self._bits.bit_count()

    @property
    def saturation(self) -> float:
        """Fraction of set bits; near 1.0 the signature prunes nothing."""
        return self.bit_count / self.eta

    @property
    def size_bytes(self) -> int:
        """On-disk size of the bitmap."""
        return (self.eta + 7) // 8

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self.eta == other.eta and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.eta, self._bits))

    def __repr__(self) -> str:
        return f"Signature(eta={self.eta}, bits={self.bit_count} set)"
