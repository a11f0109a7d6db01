"""Textual substrate: tokenisation, tf-idf, signatures, inverted lists."""

from repro.text.inverted import InvertedIndex, Posting
from repro.text.signature import Signature
from repro.text.tfidf import TfIdfWeigher
from repro.text.tokenizer import DEFAULT_STOPWORDS, Tokenizer
from repro.text.vocabulary import Vocabulary

__all__ = [
    "InvertedIndex",
    "Posting",
    "Signature",
    "TfIdfWeigher",
    "DEFAULT_STOPWORDS",
    "Tokenizer",
    "Vocabulary",
]
