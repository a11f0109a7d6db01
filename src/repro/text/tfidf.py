"""Classic tf-idf term weighting (paper Section 3).

The paper evaluates textual relevance "in the same way as in
traditional search engines", citing the classic tf-idf measure.  This
module turns token multisets into the per-document ``{keyword: weight}``
maps that :class:`~repro.model.document.SpatialDocument` carries, using

    tf(w, D)  = 1 + log(count of w in D)
    idf(w)    = log(1 + N / df(w))
    weight    = tf * idf, normalised by the document's maximum weight

so weights always fall in (0, 1] — matching the paper's running example
(Figure 1), whose weights are fractions like 0.7 or 0.2.  The
normalisation choice is internal to document construction; every index
consumes the resulting weights opaquely.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.text.vocabulary import Vocabulary

__all__ = ["TfIdfWeigher"]


class TfIdfWeigher:
    """Computes normalised tf-idf weights against a corpus vocabulary."""

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary

    def tf(self, count: int) -> float:
        """Sub-linear term-frequency component."""
        if count <= 0:
            raise ValueError(f"term count must be positive, got {count}")
        return 1.0 + math.log(count)

    def idf(self, word: str) -> float:
        """Inverse document frequency; unseen words get the maximum."""
        n = max(self.vocabulary.num_documents, 1)
        df = max(self.vocabulary.doc_frequency(word), 1)
        return math.log(1.0 + n / df)

    def weigh(self, tokens: Sequence[str]) -> Dict[str, float]:
        """Per-keyword normalised weights for one document's tokens.

        The document must already be registered in the vocabulary (its
        keywords contribute to document frequencies).
        """
        counts: Dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        if not counts:
            return {}
        raw = {w: self.tf(c) * self.idf(w) for w, c in counts.items()}
        top = max(raw.values())
        if top <= 0.0:
            return {w: 0.0 for w in raw}
        return {w: v / top for w, v in raw.items()}
