"""Zipf-distributed sampling and Heaps-law vocabulary sizing.

The paper's corpora (Table 2) show the two regularities every natural
text corpus does:

* **Zipf's law** — keyword frequencies are heavy-tailed: a handful of
  keywords appear in a large fraction of documents while most appear
  once or twice.  This is what makes the FREQ query workload hard and
  what S2I's frequent/infrequent split reacts to.
* **Heaps' law** — vocabulary grows sublinearly with corpus size:
  Table 2's Twitter samples fit ``V(n) ~ 57 * n^0.648`` almost exactly
  (441 K unique keywords at 1 M tweets, 2.56 M at 15 M).

The synthetic generators use both so that the scaled-down corpora keep
the frequency *shape* the experiments depend on.
"""

from __future__ import annotations

import bisect
import random
from typing import List

__all__ = ["ZipfSampler", "heaps_vocabulary_size"]

HEAPS_K_TWITTER = 57.0
HEAPS_BETA_TWITTER = 0.648
"""Heaps-law constants fitted to the paper's Table 2 Twitter rows."""


def heaps_vocabulary_size(
    num_documents: int,
    keywords_per_doc: float,
    k: float = HEAPS_K_TWITTER,
    beta: float = HEAPS_BETA_TWITTER,
) -> int:
    """Vocabulary size for a corpus by Heaps' law ``V = K * T^beta``.

    ``T`` is the total token count (documents x keywords per document).
    The default constants reproduce Table 2's Twitter vocabulary growth
    when applied to the token counts of the full-scale corpora.
    """
    tokens = max(1.0, num_documents * keywords_per_doc)
    # Fit was against document counts with ~6.5 keywords each; rescale so
    # V(1e6 docs * 6.5) = 441_457 still holds.
    tokens_per_fit_doc = 6.5
    return max(1, int(k * (tokens / tokens_per_fit_doc) ** beta))


class ZipfSampler:
    """Draws ranks 1..n with probability proportional to ``1 / rank^s``.

    Uses a precomputed cumulative table and binary search, so a draw is
    O(log n); the table is built once per generator.
    """

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n <= 0:
            raise ValueError(f"need a positive support size, got {n}")
        if s < 0:
            raise ValueError(f"exponent must be non-negative, got {s}")
        self.n = n
        self.s = s
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank**s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """Draw one rank in ``[0, n)`` (0 = the most frequent)."""
        u = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, u)

    def sample_distinct(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` *distinct* ranks (a document's keyword set)."""
        if count > self.n:
            raise ValueError(f"cannot draw {count} distinct ranks from {self.n}")
        out: List[int] = []
        seen = set()
        # Rejection sampling is fast here because count << n in practice;
        # fall back to exhaustive choice when the support is tiny.
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 50 * count + 100:
                remaining = [r for r in range(self.n) if r not in seen]
                rng.shuffle(remaining)
                out.extend(remaining[: count - len(out)])
                break
            rank = self.sample(rng)
            if rank not in seen:
                seen.add(rank)
                out.append(rank)
        return out

    def probability(self, rank: int) -> float:
        """The probability of drawing ``rank`` (0-based)."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range")
        return (1.0 / (rank + 1) ** self.s) / self._total
