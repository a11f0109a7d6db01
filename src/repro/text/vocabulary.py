"""Corpus vocabulary: word identities and document frequencies.

Keeps the global word <-> id mapping and per-word document frequencies
that the tf-idf weigher needs.  The vocabulary also answers the
frequency questions S2I's threshold logic asks ("is this keyword
frequent?") and the dataset-statistics table (paper Table 2) reports.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

__all__ = ["Vocabulary"]


class Vocabulary:
    """Word ids and document frequencies for one corpus.

    Word ids are dense integers in registration order; document
    frequency counts in how many documents a word appears (not total
    occurrences).
    """

    __slots__ = ("_ids", "_words", "_doc_freq", "num_documents")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._words: List[str] = []
        self._doc_freq: Counter[str] = Counter()
        self.num_documents = 0

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def word_id(self, word: str) -> int:
        """The id of ``word``, registering it if new."""
        existing = self._ids.get(word)
        if existing is not None:
            return existing
        new_id = len(self._words)
        self._ids[word] = new_id
        self._words.append(word)
        return new_id

    def word(self, word_id: int) -> str:
        """The word with a given id."""
        return self._words[word_id]

    def add_document(self, keywords: Iterable[str]) -> None:
        """Register one document's distinct keywords."""
        self.num_documents += 1
        for word in dict.fromkeys(keywords):
            self.word_id(word)
            self._doc_freq[word] += 1

    def remove_document(self, keywords: Iterable[str]) -> None:
        """Unregister one document's distinct keywords (ids are kept)."""
        if self.num_documents == 0:
            raise ValueError("no documents registered")
        self.num_documents -= 1
        for word in dict.fromkeys(keywords):
            if self._doc_freq[word] <= 0:
                raise ValueError(f"{word!r} has no registered occurrences")
            self._doc_freq[word] -= 1

    def doc_frequency(self, word: str) -> int:
        """Number of documents containing ``word``."""
        return self._doc_freq[word]

    def most_frequent(self, n: int) -> List[Tuple[str, int]]:
        """The ``n`` words with the highest document frequency."""
        return self._doc_freq.most_common(n)

    def words(self) -> List[str]:
        """All registered words, id order."""
        return list(self._words)
