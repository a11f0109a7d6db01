"""Synthetic corpora mirroring the paper's Twitter and Wikipedia datasets.

The real datasets (15 M geo-tweets, 402 K geo-tagged Wikipedia articles)
are not available offline; these generators produce corpora with the
same *statistical shape* at reduced cardinality (see DESIGN.md's
substitution table):

* ``TwitterLikeGenerator`` — short documents (~6.5 keywords, every
  keyword appearing once per document), Zipf keyword frequencies over a
  Heaps-law-sized vocabulary, and spatially clustered locations (a
  Gaussian mixture of "cities" over the unit square plus a uniform
  background), matching Table 2's Twitter rows.
* ``WikipediaLikeGenerator`` — long documents (~130 keywords with real
  term-frequency variation, so tf-idf weights genuinely vary), a
  proportionally larger vocabulary, mildly clustered locations,
  matching Table 2's Wikipedia row.

Scaled dataset presets keep the paper's names: ``Twitter1M`` ..
``Twitter15M`` map to 2 000 .. 30 000 documents (a fixed 1:500 scale),
``Wikipedia`` to 2 000 long documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.datasets.zipf import ZipfSampler, heaps_vocabulary_size
from repro.model.document import SpatialDocument
from repro.spatial.geometry import Rect, UNIT_SQUARE
from repro.text.tfidf import TfIdfWeigher
from repro.text.vocabulary import Vocabulary

__all__ = [
    "Corpus",
    "TwitterLikeGenerator",
    "WikipediaLikeGenerator",
    "SCALE_FACTOR",
    "TEMPORAL_SCENARIOS",
    "burst_arrival",
    "time_skewed",
    "twitter_like",
    "wikipedia_like",
    "TWITTER_SCALES",
]

SCALE_FACTOR = 500
"""Paper cardinality divided by this gives the scaled corpus size."""

TWITTER_SCALES: Dict[str, int] = {
    "Twitter1M": 1_000_000 // SCALE_FACTOR,
    "Twitter5M": 5_000_000 // SCALE_FACTOR,
    "Twitter10M": 10_000_000 // SCALE_FACTOR,
    "Twitter15M": 15_000_000 // SCALE_FACTOR,
}
"""The paper's Twitter samples mapped to scaled document counts."""


@dataclass
class Corpus:
    """A generated corpus: documents plus the vocabulary they were
    weighted against.

    Attributes:
        name: Dataset label (kept from the paper, e.g. ``Twitter5M``).
        space: The data-space rectangle all locations fall into.
        documents: The spatial documents, ids dense from 0.
        vocabulary: Corpus vocabulary with document frequencies.
    """

    name: str
    space: Rect
    documents: List[SpatialDocument]
    vocabulary: Vocabulary
    timestamps: Optional[List[float]] = None
    """Per-document arrival times (aligned with ``documents``), set by
    the temporal workload scenarios (``time_skewed``/``burst_arrival``)."""

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[SpatialDocument]:
        return iter(self.documents)

    def temporal_documents(self):
        """The corpus as ``TemporalDocument`` objects; requires
        timestamps (use a temporal scenario generator)."""
        from repro.temporal.model import TemporalDocument

        if self.timestamps is None:
            raise ValueError(f"corpus {self.name!r} has no timestamps")
        return [
            TemporalDocument(doc, ts)
            for doc, ts in zip(self.documents, self.timestamps)
        ]

    def most_frequent_keywords(self, n: int) -> List[str]:
        """The n keywords with the highest document frequency."""
        return [w for w, _ in self.vocabulary.most_frequent(n)]

    def sample_locations(
        self, rng: random.Random, count: int
    ) -> List[Tuple[float, float]]:
        """Locations sampled from the corpus's spatial distribution — the
        paper samples query locations "from the spatial distribution of
        the Twitter data set" (Section 6.2)."""
        docs = [rng.choice(self.documents) for _ in range(count)]
        return [(d.x, d.y) for d in docs]


class _SpatialMixture:
    """Gaussian-mixture point sampler: clustered 'cities' plus background."""

    def __init__(
        self,
        space: Rect,
        num_clusters: int,
        cluster_stddev: float,
        background_fraction: float,
        rng: random.Random,
    ) -> None:
        self.space = space
        self.background_fraction = background_fraction
        self.cluster_stddev = cluster_stddev
        # Cluster weights are themselves Zipf-ish: big cities dominate.
        self.centers = [
            (rng.uniform(space.min_x, space.max_x), rng.uniform(space.min_y, space.max_y))
            for _ in range(num_clusters)
        ]
        raw = [1.0 / (i + 1) for i in range(num_clusters)]
        total = sum(raw)
        self.weights = [w / total for w in raw]

    def sample(self, rng: random.Random) -> Tuple[float, float]:
        if rng.random() < self.background_fraction:
            return (
                rng.uniform(self.space.min_x, self.space.max_x),
                rng.uniform(self.space.min_y, self.space.max_y),
            )
        (cx, cy) = rng.choices(self.centers, weights=self.weights, k=1)[0]
        scale_x = self.cluster_stddev * self.space.width
        scale_y = self.cluster_stddev * self.space.height
        x = min(max(rng.gauss(cx, scale_x), self.space.min_x), self.space.max_x)
        y = min(max(rng.gauss(cy, scale_y), self.space.min_y), self.space.max_y)
        return (x, y)


class TwitterLikeGenerator:
    """Generates short spatial documents with Table 2's Twitter shape."""

    def __init__(
        self,
        num_documents: int,
        seed: int = 0,
        space: Rect = UNIT_SQUARE,
        mean_keywords: float = 6.5,
        zipf_exponent: float = 1.0,
        num_clusters: int = 64,
        cluster_stddev: float = 0.01,
        background_fraction: float = 0.15,
        name: Optional[str] = None,
    ) -> None:
        if num_documents <= 0:
            raise ValueError("need a positive document count")
        self.num_documents = num_documents
        self.seed = seed
        self.space = space
        self.mean_keywords = mean_keywords
        self.zipf_exponent = zipf_exponent
        self.num_clusters = num_clusters
        self.cluster_stddev = cluster_stddev
        self.background_fraction = background_fraction
        self.name = name or f"TwitterLike{num_documents}"

    def generate(self) -> Corpus:
        """Produce the corpus (deterministic for a given seed)."""
        rng = random.Random(self.seed)
        vocab_size = heaps_vocabulary_size(self.num_documents, self.mean_keywords)
        sampler = ZipfSampler(vocab_size, self.zipf_exponent)
        mixture = _SpatialMixture(
            self.space,
            self.num_clusters,
            self.cluster_stddev,
            self.background_fraction,
            rng,
        )
        words = [f"kw{rank}" for rank in range(vocab_size)]
        # First pass: keyword sets, so document frequencies are known
        # before tf-idf weighing (idf needs the whole corpus).
        keyword_sets: List[List[str]] = []
        vocabulary = Vocabulary()
        for _ in range(self.num_documents):
            count = max(1, min(round(rng.gauss(self.mean_keywords, 1.5)), vocab_size))
            ranks = sampler.sample_distinct(rng, count)
            keywords = [words[r] for r in ranks]
            keyword_sets.append(keywords)
            vocabulary.add_document(keywords)
        weigher = TfIdfWeigher(vocabulary)
        documents: List[SpatialDocument] = []
        for doc_id, keywords in enumerate(keyword_sets):
            x, y = mixture.sample(rng)
            # Tweets: every keyword appears once (tf = 1 for all).
            documents.append(SpatialDocument(doc_id, x, y, weigher.weigh(keywords)))
        return Corpus(
            name=self.name, space=self.space, documents=documents, vocabulary=vocabulary
        )


class WikipediaLikeGenerator:
    """Generates long, textually rich documents (Table 2's Wikipedia row)."""

    def __init__(
        self,
        num_documents: int,
        seed: int = 0,
        space: Rect = UNIT_SQUARE,
        mean_keywords: float = 130.0,
        zipf_exponent: float = 1.05,
        num_clusters: int = 32,
        cluster_stddev: float = 0.03,
        background_fraction: float = 0.35,
        name: Optional[str] = None,
    ) -> None:
        if num_documents <= 0:
            raise ValueError("need a positive document count")
        self.num_documents = num_documents
        self.seed = seed
        self.space = space
        self.mean_keywords = mean_keywords
        self.zipf_exponent = zipf_exponent
        self.num_clusters = num_clusters
        self.cluster_stddev = cluster_stddev
        self.background_fraction = background_fraction
        self.name = name or f"WikipediaLike{num_documents}"

    def generate(self) -> Corpus:
        """Produce the corpus (deterministic for a given seed)."""
        rng = random.Random(self.seed)
        # Table 2: 866 K unique keywords over 402 K articles — a 2.15x
        # ratio; keep that ratio at reduced scale.
        vocab_size = max(64, int(2.15 * self.num_documents))
        sampler = ZipfSampler(vocab_size, self.zipf_exponent)
        mixture = _SpatialMixture(
            self.space,
            self.num_clusters,
            self.cluster_stddev,
            self.background_fraction,
            rng,
        )
        words = [f"art{rank}" for rank in range(vocab_size)]
        token_lists: List[List[str]] = []
        vocabulary = Vocabulary()
        for _ in range(self.num_documents):
            distinct = max(5, min(round(rng.gauss(self.mean_keywords, 25.0)), vocab_size))
            ranks = sampler.sample_distinct(rng, distinct)
            tokens: List[str] = []
            for rank in ranks:
                # Articles repeat terms: term frequency is geometric-ish.
                tf = 1 + min(int(rng.expovariate(0.7)), 20)
                tokens.extend([words[rank]] * tf)
            token_lists.append(tokens)
            vocabulary.add_document(tokens)
        weigher = TfIdfWeigher(vocabulary)
        documents: List[SpatialDocument] = []
        for doc_id, tokens in enumerate(token_lists):
            x, y = mixture.sample(rng)
            documents.append(SpatialDocument(doc_id, x, y, weigher.weigh(tokens)))
        return Corpus(
            name=self.name, space=self.space, documents=documents, vocabulary=vocabulary
        )


def twitter_like(scale: str = "Twitter5M", seed: int = 0, **kwargs) -> Corpus:
    """A scaled Twitter-like corpus by the paper's dataset name.

    ``scale`` is one of ``Twitter1M``, ``Twitter5M``, ``Twitter10M``,
    ``Twitter15M`` (scaled 1:500), or an integer document count.
    """
    if isinstance(scale, int):
        n, name = scale, f"TwitterLike{scale}"
    else:
        if scale not in TWITTER_SCALES:
            raise ValueError(f"unknown Twitter scale {scale!r}")
        n, name = TWITTER_SCALES[scale], scale
    return TwitterLikeGenerator(n, seed=seed, name=name, **kwargs).generate()


def wikipedia_like(num_documents: int = 800, seed: int = 0, **kwargs) -> Corpus:
    """A scaled Wikipedia-like corpus (402 K articles -> 800 by default)."""
    return WikipediaLikeGenerator(
        num_documents, seed=seed, name="Wikipedia", **kwargs
    ).generate()


# ---------------------------------------------------------------------------
# Temporal arrival scenarios
# ---------------------------------------------------------------------------
def time_skewed(
    num_documents: int = 2000,
    seed: int = 0,
    *,
    horizon: float = 86400.0,
    hot_fraction: float = 8.0,
    **kwargs,
) -> Corpus:
    """A recency-skewed corpus: arrivals pile up near "now".

    Ages are exponential with mean ``horizon / hot_fraction`` (clamped
    to the horizon), so most documents land in the most recent slices —
    the shape real ingest feeds have, and the one that makes hot-window
    pruning matter.  Timestamps span ``[0, horizon)`` with the newest
    near ``horizon``.
    """
    corpus = TwitterLikeGenerator(
        num_documents, seed=seed, name=f"TimeSkewed{num_documents}", **kwargs
    ).generate()
    rng = random.Random(("time-skewed", seed).__repr__())
    scale = horizon / hot_fraction
    timestamps = []
    for _ in corpus.documents:
        age = min(rng.expovariate(1.0 / scale), horizon * 0.999)
        timestamps.append(round(horizon - age, 6))
    corpus.timestamps = timestamps
    return corpus


def burst_arrival(
    num_documents: int = 2000,
    seed: int = 0,
    *,
    horizon: float = 86400.0,
    bursts: int = 6,
    burst_sigma_fraction: float = 0.01,
    background: float = 0.2,
    **kwargs,
) -> Corpus:
    """A bursty corpus: arrivals cluster around a few event times.

    ``bursts`` Gaussian arrival spikes (width ``burst_sigma_fraction``
    of the horizon) sit on a uniform ``background`` fraction of
    arrivals — the flash-crowd shape (breaking news, flash sales) that
    stresses slice sealing and uneven slice sizes.
    """
    corpus = TwitterLikeGenerator(
        num_documents, seed=seed, name=f"BurstArrival{num_documents}", **kwargs
    ).generate()
    rng = random.Random(("burst-arrival", seed).__repr__())
    centers = sorted(
        rng.uniform(0.1 * horizon, 0.95 * horizon) for _ in range(bursts)
    )
    sigma = horizon * burst_sigma_fraction
    timestamps = []
    for _ in corpus.documents:
        if rng.random() < background:
            ts = rng.uniform(0.0, horizon)
        else:
            ts = rng.gauss(rng.choice(centers), sigma)
        timestamps.append(round(min(max(ts, 0.0), horizon * 0.999999), 6))
    corpus.timestamps = timestamps
    return corpus


TEMPORAL_SCENARIOS = {
    "time-skewed": time_skewed,
    "burst": burst_arrival,
}
"""Named temporal arrival scenarios for the CLI and benches."""
