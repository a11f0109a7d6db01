"""A batteries-included facade: raw text in, ranked results out.

:class:`SpatialKeywordDatabase` wires the whole pipeline together for
downstream users who have *text*, not pre-weighted keyword maps:

    tokenise -> maintain corpus vocabulary -> tf-idf weights ->
    I3 index -> top-k queries by keyword string

It also keeps the document store needed for deletes/updates by id (the
raw index API requires the full document on delete, mirroring the
paper's tuple-level operations).

Note on weights: term weights are computed against the vocabulary *at
insertion time* (classic search-engine behaviour — documents are not
re-weighted when idf drifts).  Call :meth:`reweigh` to rebuild all
weights after bulk changes if exact global tf-idf matters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.index import I3Index
from repro.core.kwcells import DataFile
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.results import ScoredDoc
from repro.model.scoring import Ranker
from repro.spatial.geometry import Rect, UNIT_SQUARE
from repro.storage.iostats import IOStats
from repro.storage.records import f32
from repro.text.tfidf import TfIdfWeigher
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary

__all__ = ["SpatialKeywordDatabase", "SearchHit"]


class SearchHit:
    """One search result: the stored document plus its score."""

    __slots__ = ("doc_id", "score", "x", "y", "text")

    def __init__(self, doc_id: int, score: float, x: float, y: float, text: str):
        self.doc_id = doc_id
        self.score = score
        self.x = x
        self.y = y
        self.text = text

    def __repr__(self) -> str:
        return f"SearchHit(doc_id={self.doc_id}, score={self.score:.4f})"


class SpatialKeywordDatabase:
    """Top-k spatial keyword search over raw geo-tagged text.

    The facade presents the shape a :class:`~repro.service.QueryService`
    serves, as :class:`~repro.temporal.TemporalIndex` does: ``query``,
    ``epoch``, ``stats``, ``data`` and ``insert_document`` /
    ``delete_document``, all reading the *current* :attr:`index` (which
    :meth:`reweigh` replaces).

    Attributes:
        space: Data-space rectangle locations must fall into.
        alpha: Default spatial weight of the ranking function.
        index: The underlying :class:`~repro.core.index.I3Index`.
        tokenizer: The text normalisation pipeline.
    """

    def __init__(
        self,
        space: Rect = UNIT_SQUARE,
        alpha: float = 0.5,
        tokenizer: Optional[Tokenizer] = None,
        **index_kwargs,
    ) -> None:
        self.space = space
        self.alpha = alpha
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.index = I3Index(space, **index_kwargs)
        self.vocabulary = Vocabulary()
        self._weigher = TfIdfWeigher(self.vocabulary)
        self._texts: Dict[int, Tuple[float, float, str]] = {}
        self._docs: Dict[int, SpatialDocument] = {}

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._docs

    @property
    def epoch(self) -> int:
        """The current index's mutation epoch."""
        return self.index.epoch

    @property
    def stats(self) -> IOStats:
        """The current index's I/O counters."""
        return self.index.stats

    @property
    def data(self) -> DataFile:
        """The current index's data file."""
        return self.index.data

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, doc_id: int, x: float, y: float, text: str) -> SpatialDocument:
        """Tokenise, weigh and index one geo-tagged text document.

        Returns the indexed :class:`SpatialDocument`; raises if the id
        is taken, the location is outside the space, or no indexable
        keyword survives tokenisation.
        """
        if doc_id in self._docs:
            raise ValueError(f"document {doc_id} already exists")
        if not self.space.contains_point(x, y):
            raise ValueError(f"location ({x}, {y}) outside the data space")
        tokens = self.tokenizer.tokenize(text)
        if not tokens:
            raise ValueError("document has no indexable keywords")
        self.vocabulary.add_document(tokens)
        weights = {w: f32(v) for w, v in self._weigher.weigh(tokens).items()}
        doc = SpatialDocument(doc_id, x, y, weights)
        self.index.insert_document(doc)
        self._docs[doc_id] = doc
        self._texts[doc_id] = (x, y, text)
        return doc

    def remove(self, doc_id: int) -> bool:
        """Delete a document by id."""
        doc = self._docs.pop(doc_id, None)
        if doc is None:
            return False
        x, y, text = self._texts.pop(doc_id)
        self.vocabulary.remove_document(self.tokenizer.tokenize(text))
        return self.index.delete_document(doc)

    # The index-shaped names a QueryService mutates through.
    insert_document = add
    delete_document = remove

    def move(self, doc_id: int, x: float, y: float) -> None:
        """Relocate a document (delete + reinsert, per the paper)."""
        if doc_id not in self._docs:
            raise KeyError(f"no document {doc_id}")
        if not self.space.contains_point(x, y):
            raise ValueError(f"location ({x}, {y}) outside the data space")
        old = self._docs[doc_id]
        new = SpatialDocument(doc_id, x, y, dict(old.terms))
        self.index.update_document(old, new)
        self._docs[doc_id] = new
        _, _, text = self._texts[doc_id]
        self._texts[doc_id] = (x, y, text)

    def reweigh(self) -> None:
        """Recompute every document's weights against the current corpus
        statistics and rebuild the index (bulk idf refresh)."""
        entries = list(self._texts.items())
        old_epoch = self.index.epoch
        self.index = I3Index(
            self.space,
            eta=self.index.eta,
            page_size=self.index.data.file.page_size,
            max_depth=self.index.max_depth,
        )
        # Keep the mutation epoch monotonic across the rebuild so external
        # result caches stamped against the old index can never validate.
        self.index.epoch = old_epoch + 1
        self._docs.clear()
        for doc_id, (x, y, text) in entries:
            tokens = self.tokenizer.tokenize(text)
            weights = {w: f32(v) for w, v in self._weigher.weigh(tokens).items()}
            doc = SpatialDocument(doc_id, x, y, weights)
            self.index.insert_document(doc)
            self._docs[doc_id] = doc

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(
        self,
        x: float,
        y: float,
        keywords,
        k: int = 10,
        semantics: Semantics = Semantics.OR,
        alpha: Optional[float] = None,
    ) -> List[SearchHit]:
        """Top-k documents for a location plus keywords.

        ``keywords`` may be a raw query string (tokenised with the same
        pipeline as documents) or a pre-split sequence of keywords.
        """
        if isinstance(keywords, str):
            words: Sequence[str] = self.tokenizer.keywords(keywords)
        else:
            words = list(keywords)
        if not words:
            return []
        query = TopKQuery(x, y, tuple(words), k=k, semantics=semantics)
        ranker = Ranker(self.space, self.alpha if alpha is None else alpha)
        return self.query(query, ranker)

    def query(self, query: TopKQuery, ranker: Ranker) -> List[SearchHit]:
        """Top-k hits for a parsed query under ``ranker``."""
        return [self._hit(r) for r in self.index.query(query, ranker)]

    def _hit(self, result: ScoredDoc) -> SearchHit:
        x, y, text = self._texts[result.doc_id]
        return SearchHit(result.doc_id, result.score, x, y, text)

    def get(self, doc_id: int) -> Optional[SpatialDocument]:
        """The indexed document for an id, if any."""
        return self._docs.get(doc_id)

    def text_of(self, doc_id: int) -> Optional[str]:
        """The original raw text for an id, if any."""
        entry = self._texts.get(doc_id)
        return entry[2] if entry else None
