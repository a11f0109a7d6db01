"""Unit tests for the synthetic workload generators."""

import os
import random
import subprocess
import sys

import pytest

from repro.datasets.generators import (
    Corpus,
    TWITTER_SCALES,
    TwitterLikeGenerator,
    WikipediaLikeGenerator,
    twitter_like,
    wikipedia_like,
)
from repro.datasets.querylog import QueryLogGenerator
from repro.datasets.stats import corpus_stats, format_table2
from repro.datasets.zipf import ZipfSampler, heaps_vocabulary_size
from repro.model.query import Semantics


class TestZipfSampler:
    def test_rank_zero_most_probable(self):
        z = ZipfSampler(100, 1.0)
        assert z.probability(0) > z.probability(1) > z.probability(50)

    def test_probabilities_sum_to_one(self):
        z = ZipfSampler(50, 1.0)
        assert sum(z.probability(r) for r in range(50)) == pytest.approx(1.0)

    def test_samples_in_range_and_skewed(self):
        z = ZipfSampler(1000, 1.0)
        rng = random.Random(1)
        draws = [z.sample(rng) for _ in range(5000)]
        assert all(0 <= d < 1000 for d in draws)
        head_share = sum(1 for d in draws if d < 10) / len(draws)
        assert head_share > 0.2  # heavy head

    def test_sample_distinct(self):
        z = ZipfSampler(20, 1.0)
        rng = random.Random(2)
        picks = z.sample_distinct(rng, 10)
        assert len(picks) == len(set(picks)) == 10
        with pytest.raises(ValueError):
            z.sample_distinct(rng, 21)

    def test_distinct_exhaustive_fallback(self):
        # With s large, low ranks dominate so rejection would stall;
        # the fallback must still deliver distinct ranks.
        z = ZipfSampler(8, 4.0)
        rng = random.Random(3)
        picks = z.sample_distinct(rng, 8)
        assert sorted(picks) == list(range(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0)

    def test_heaps_growth_sublinear(self):
        v1 = heaps_vocabulary_size(1000, 6.5)
        v10 = heaps_vocabulary_size(10000, 6.5)
        assert v10 > v1
        assert v10 < 10 * v1


class TestTwitterLikeGenerator:
    @pytest.fixture(scope="class")
    def corpus(self) -> Corpus:
        return TwitterLikeGenerator(800, seed=5).generate()

    def test_deterministic_for_seed(self):
        a = TwitterLikeGenerator(100, seed=9).generate()
        b = TwitterLikeGenerator(100, seed=9).generate()
        assert [(d.doc_id, d.x, d.y, dict(d.terms)) for d in a.documents] == [
            (d.doc_id, d.x, d.y, dict(d.terms)) for d in b.documents
        ]

    def test_shape_matches_table2(self, corpus):
        stats = corpus_stats(corpus)
        assert stats.num_documents == 800
        assert 4.0 < stats.avg_keywords_per_doc < 9.0  # ~6.5
        # Vocabulary sublinear but substantial (Heaps).
        assert 200 < stats.num_unique_keywords < 800 * 7

    def test_zipf_head(self, corpus):
        (top_word, top_df), *_ = corpus.vocabulary.most_frequent(1)
        assert top_df > 0.2 * len(corpus)  # the head keyword is common

    def test_locations_inside_space(self, corpus):
        for doc in corpus.documents:
            assert corpus.space.contains_point(doc.x, doc.y)

    def test_weights_in_unit_interval(self, corpus):
        for doc in corpus.documents:
            assert all(0.0 < w <= 1.0 for w in doc.terms.values())

    def test_spatial_clustering_present(self, corpus):
        """Clustered generation concentrates mass: the densest of a 10x10
        grid of cells holds far more than the uniform share."""
        counts = {}
        for doc in corpus.documents:
            key = (int(doc.x * 10), int(doc.y * 10))
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) > 3 * len(corpus) / 100

    def test_scale_presets(self):
        assert TWITTER_SCALES["Twitter5M"] == 10_000
        small = twitter_like("Twitter1M")
        assert small.name == "Twitter1M"
        assert len(small) == TWITTER_SCALES["Twitter1M"]
        custom = twitter_like(50)
        assert len(custom) == 50
        with pytest.raises(ValueError):
            twitter_like("Twitter99M")


class TestWikipediaLikeGenerator:
    @pytest.fixture(scope="class")
    def corpus(self) -> Corpus:
        return WikipediaLikeGenerator(120, seed=4).generate()

    def test_long_documents(self, corpus):
        stats = corpus_stats(corpus)
        assert stats.avg_keywords_per_doc > 60

    def test_tf_variation_produces_weight_spread(self, corpus):
        """Unlike tweets, article term weights must genuinely vary."""
        doc = max(corpus.documents, key=lambda d: len(d.terms))
        values = sorted(doc.terms.values())
        assert values[0] < 0.9 * values[-1]

    def test_factory(self):
        c = wikipedia_like(30, seed=1)
        assert c.name == "Wikipedia"
        assert len(c) == 30


class TestQueryLog:
    @pytest.fixture(scope="class")
    def corpus(self):
        return TwitterLikeGenerator(600, seed=8).generate()

    def test_freq_properties(self, corpus):
        qg = QueryLogGenerator(corpus, seed=3)
        for qn in (2, 3, 4, 5):
            qs = qg.freq(qn, count=20)
            assert qs.name == f"FREQ_{qn}"
            assert len(qs) == 20
            pool = set(corpus.most_frequent_keywords(40))
            for q in qs:
                assert len(q.words) == qn
                assert set(q.words) <= pool

    def test_rest_has_fixed_head(self, corpus):
        qg = QueryLogGenerator(corpus, seed=3)
        qs = qg.rest(count=25)
        heads = {q.words[0] for q in qs}
        assert len(heads) == 1
        assert any(len(q.words) > 1 for q in qs)

    def test_query_locations_follow_corpus(self, corpus):
        qg = QueryLogGenerator(corpus, seed=3)
        for q in qg.freq(2, count=10):
            assert corpus.space.contains_point(q.x, q.y)

    def test_set_transformations(self, corpus):
        qg = QueryLogGenerator(corpus, seed=3)
        qs = qg.freq(2, count=5)
        and_set = qs.with_semantics(Semantics.AND)
        assert all(q.semantics is Semantics.AND for q in and_set)
        k_set = qs.with_k(200)
        assert all(q.k == 200 for q in k_set)
        assert [q.words for q in k_set] == [q.words for q in qs]

    def test_deterministic(self, corpus):
        a = QueryLogGenerator(corpus, seed=3).freq(3, count=10)
        b = QueryLogGenerator(corpus, seed=3).freq(3, count=10)
        assert [q.words for q in a] == [q.words for q in b]

    def test_mixed_varies_qn(self, corpus):
        qs = QueryLogGenerator(corpus, seed=3).mixed(count=30)
        assert {len(q.words) for q in qs} >= {2, 3}

    def test_independent_of_the_hash_seed(self):
        """Document frequencies tie often; ``most_frequent`` breaks ties
        by the order words were first counted, which must not be set
        iteration order — so the FREQ pool, and every query drawn from
        it, is the same under any ``PYTHONHASHSEED``."""
        script = (
            "from repro.datasets.generators import wikipedia_like\n"
            "from repro.datasets.querylog import QueryLogGenerator\n"
            "corpus = wikipedia_like(300, seed=4)\n"
            "print(corpus.vocabulary.most_frequent(60))\n"
            "for q in QueryLogGenerator(corpus, seed=3).freq(3, count=20):\n"
            "    print(q.x.hex(), q.y.hex(), q.words)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

        def run(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            ).stdout

        first = run("1")
        assert first and run("2") == first


class TestStatsFormatting:
    def test_format_table2(self):
        c = TwitterLikeGenerator(50, seed=1).generate()
        text = format_table2([corpus_stats(c)])
        assert "DataSets" in text
        assert c.name in text
