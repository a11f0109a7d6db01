"""Property-based differential testing of the vectorized engine.

The vector engine's one promise is **bit-for-bit equivalence** with the
tuple engine: for every corpus, query mix, semantics, k, alpha — and,
through the decay kernel, every recency weighting — the two engines
return identical ``ScoredDoc`` streams, ties and all.  Hypothesis
searches that space adversarially; the f32 quantisation of term weights
is what makes equal-score ties common enough to matter, so the
strategies bias toward weight collisions on purpose.

Also covered: engine-name resolution at the index and the decay
kernel's exact match with scalar ``2.0 ** x`` weighting.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.index import I3Index
from repro.core.query import I3QueryProcessor
from repro.exec.vector import VectorQueryProcessor
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.records import f32

# ----------------------------------------------------------------------
# Strategies — small vocabularies and quantised weights force shared
# cells, duplicate weights and score ties: the hard cases.
# ----------------------------------------------------------------------

WORDS = ["alpha", "beta", "gamma", "delta", "eps"]

coords = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, exclude_max=True
)
# Few distinct weight values -> frequent exact score ties after the
# f32 round trip, exercising the doc-id tie-break in both engines.
tie_weights = st.sampled_from([f32(v) for v in (0.125, 0.25, 0.5, 0.5, 1.0)])
free_weights = st.floats(min_value=0.01, max_value=1.0, allow_nan=False).map(f32)
weights = st.one_of(tie_weights, free_weights)


@st.composite
def documents(draw, max_id=300):
    terms = draw(st.dictionaries(st.sampled_from(WORDS), weights,
                                 min_size=1, max_size=4))
    return SpatialDocument(
        draw(st.integers(0, max_id)), draw(coords), draw(coords), terms
    )


@st.composite
def corpora(draw, max_docs=50):
    docs = draw(st.lists(documents(), min_size=1, max_size=max_docs))
    unique = {}
    for doc in docs:
        unique[doc.doc_id] = doc
    return list(unique.values())


@st.composite
def queries(draw):
    words = draw(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True)
    )
    return TopKQuery(
        draw(coords),
        draw(coords),
        tuple(words),
        k=draw(st.sampled_from([1, 3, 10, 40])),
        semantics=draw(st.sampled_from([Semantics.OR, Semantics.AND])),
    )


def build_index(docs, page_size=128):
    index = I3Index(UNIT_SQUARE, page_size=page_size)
    for doc in docs:
        index.insert_document(doc)
    return index


# ----------------------------------------------------------------------
# The differential property
# ----------------------------------------------------------------------


class TestCrossEngineDifferential:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        corpus=corpora(),
        query_list=st.lists(queries(), min_size=1, max_size=6),
        alpha=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    )
    def test_engines_byte_identical(self, corpus, query_list, alpha):
        index = build_index(corpus)
        ranker = Ranker(UNIT_SQUARE, alpha)
        for query in query_list:
            tuple_res = index.query(query, ranker, engine="tuple")
            vector_res = index.query(query, ranker, engine="vector")
            assert vector_res == tuple_res, (
                f"engines diverge for {query.words} {query.semantics} "
                f"k={query.k} alpha={alpha}: "
                f"{vector_res[:3]} vs {tuple_res[:3]}"
            )
            # Bit-identical scores, not merely ==-equal results.
            assert [r.score.hex() for r in vector_res] == [
                r.score.hex() for r in tuple_res
            ]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=corpora(max_docs=30), query=queries())
    def test_batch_equals_singles(self, corpus, query):
        """query_many is amortization, never approximation: a batch with
        duplicates returns exactly the per-query answers."""
        index = build_index(corpus)
        ranker = Ranker(UNIT_SQUARE, 0.5)
        batch = [query, query, query]
        for engine in ("tuple", "vector"):
            singles = [index.query(query, ranker, engine=engine)] * 3
            assert index.query_many(batch, ranker, engine=engine) == singles

    @settings(max_examples=60, deadline=None)
    @given(
        ages=st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        half_life=st.sampled_from([0.5, 2.0, 40.0]),
        scores=st.lists(free_weights, min_size=30, max_size=30),
    )
    def test_decay_kernel_matches_scalar(self, ages, half_life, scores):
        """The vectorized recency multiply is bit-identical to the
        scalar path *given the same decay weights*: weights stay scalar
        ``2.0 ** (-age / half_life)`` (numpy's exp2 may differ by an
        ulp), and only the multiplication is vectorized."""
        from repro.exec import kernels

        base = np.asarray(scores[: len(ages)], dtype=np.float64)
        decay = [2.0 ** (-(age / half_life)) for age in ages]
        got = kernels.apply_decay(base, np.asarray(decay, dtype=np.float64))
        expected = [float(s) * w for s, w in zip(scores, decay)]
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in expected
        ]


# ----------------------------------------------------------------------
# Engine names: resolved at the index, nowhere else
# ----------------------------------------------------------------------


class TestEngineSeam:
    def test_names_resolve_at_the_index(self):
        index = I3Index(UNIT_SQUARE)
        assert isinstance(index.engine_processor(), VectorQueryProcessor)
        assert index.engine_processor("vector") is index.engine_processor()
        assert isinstance(index.engine_processor("tuple"), I3QueryProcessor)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            I3Index(UNIT_SQUARE).engine_processor("warp")
