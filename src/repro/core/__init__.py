"""The paper's contribution: the I3 integrated inverted index."""

from repro.core.and_semantics import AndSemantics
from repro.core.candidates import AccumulatorCells, Candidate, DenseRef, DocAccumulator
from repro.core.headfile import CellPages, HeadFile, SummaryInfo, SummaryNode
from repro.core.index import DEFAULT_ETA, DEFAULT_MAX_DEPTH, I3Index
from repro.core.kwcells import DataFile
from repro.core.lookup import LookupEntry, LookupTable
from repro.core.or_semantics import OrSemantics
from repro.core.persistence import SnapshotMeta, load_index, load_snapshot, save_index
from repro.core.query import BestFirstProcessor, I3QueryProcessor, QueryTrace
from repro.core.recovery import DurableIndex, RecoveryReport

__all__ = [
    "AccumulatorCells",
    "AndSemantics",
    "BestFirstProcessor",
    "Candidate",
    "DenseRef",
    "DocAccumulator",
    "CellPages",
    "HeadFile",
    "SummaryInfo",
    "SummaryNode",
    "DEFAULT_ETA",
    "DEFAULT_MAX_DEPTH",
    "I3Index",
    "DataFile",
    "LookupEntry",
    "LookupTable",
    "OrSemantics",
    "SnapshotMeta",
    "load_index",
    "load_snapshot",
    "save_index",
    "I3QueryProcessor",
    "QueryTrace",
    "DurableIndex",
    "RecoveryReport",
]
