"""Helpers shared by the figure benchmarks."""

from __future__ import annotations

from typing import Dict

from repro.bench.harness import BuiltIndex, QueryRunMetrics, run_query_set
from repro.datasets.querylog import QuerySet
from repro.model.scoring import Ranker

# Index kinds in the paper's presentation order.
KINDS = ("I3", "S2I", "IR-tree")

# I/O component names per index kind, (detail label, component) pairs in
# the stacking order of the paper's Figures 8-9 histograms.
IO_COMPONENTS = {
    "I3": (("head", "i3.head"), ("data", "i3.data")),
    "S2I": (("tree", "s2i.tree"), ("flat", "s2i.flat")),
    "IR-tree": (("inv", "irtree.inv"), ("node", "irtree.nodes")),
}


def measure(
    built: BuiltIndex, queries: QuerySet, ranker: Ranker
) -> QueryRunMetrics:
    """Run a query set once and return its metrics."""
    return run_query_set(built, queries, ranker)


def io_split(metrics: QueryRunMetrics, kind: str) -> Dict[str, float]:
    """Mean per-query reads per component, in the figure's split."""
    return {
        label: metrics.mean_reads(component)
        for label, component in IO_COMPONENTS[kind]
    }


def fmt_io(metrics: QueryRunMetrics, kind: str) -> str:
    """Render the component split like '12.3 (head 2.1 + data 10.2)'."""
    parts = io_split(metrics, kind)
    detail = " + ".join(f"{label} {value:.1f}" for label, value in parts.items())
    return f"{metrics.mean_io:.1f} ({detail})"
