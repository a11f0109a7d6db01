"""Ablations beyond the paper's figures, isolating design choices that
DESIGN.md calls out:

* **signature ablation** — eta = 1 saturates every signature, disabling
  AND-semantics intersection pruning while keeping results identical;
  quantifies what the head file's signatures buy.
* **Apriori OR bound ablation** — replace the Section 5.3 lattice with
  the naive "sum of all keyword maxima" bound; quantifies how much the
  lattice tightens upper bounds (candidates examined / I/O).
* **cell capacity (page size) sweep** — smaller pages mean finer cells:
  more pruning granularity but more pages; the paper fixes P = 4 KB.
* **DIR-tree insertion policy** — the IR-tree variant the paper tried
  and dropped ("little improvement, much longer build").
"""

from __future__ import annotations


import pytest

from repro.baselines.dirtree import DirInsertionPolicy
from repro.baselines.irtree import IRTree
from repro.bench.harness import build_index, run_query_set
from repro.bench.reporting import Table, collect, format_bytes
from repro.core.query import I3QueryProcessor
from repro.model.query import Semantics
from repro.model.scoring import Ranker

from _shared import measure

DATASET = "Twitter5M"


@pytest.mark.benchmark(group="ablations")
def test_ablation_signature_pruning(benchmark, corpus_factory, querylog_factory, profile):
    """AND-semantics query cost with signatures on (eta=300) vs off (eta=1)."""
    corpus = corpus_factory(DATASET)
    with_sig = build_index("I3", corpus, eta=300)
    without_sig = build_index("I3", corpus, eta=1)
    queries = querylog_factory(DATASET).freq(
        3, count=profile.queries_per_set, semantics=Semantics.AND
    )
    ranker = Ranker(corpus.space, 0.5)

    def run():
        return (
            measure(with_sig, queries, ranker),
            measure(without_sig, queries, ranker),
        )

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Ablation: AND-semantics signature pruning (FREQ_3, Twitter5M)",
        ["variant", "mean ms", "mean I/O"],
    )
    table.add_row("signatures on (eta=300)", on.mean_ms, on.mean_io)
    table.add_row("signatures off (eta=1)", off.mean_ms, off.mean_io)
    collect(table.render())
    assert on.mean_io < off.mean_io  # Algorithm 5 prunes cells and documents


@pytest.mark.benchmark(group="ablations")
def test_ablation_or_lattice(benchmark, corpus_factory, querylog_factory, profile):
    """OR upper bound: Apriori lattice vs the naive sum-of-maxima bound."""
    corpus = corpus_factory(DATASET)
    built = build_index("I3", corpus, eta=300)
    lattice = I3QueryProcessor(built.index, or_lattice=True)
    naive = I3QueryProcessor(built.index, or_lattice=False)
    queries = querylog_factory(DATASET).freq(
        4, count=profile.queries_per_set, semantics=Semantics.OR
    )
    ranker = Ranker(corpus.space, 0.5)

    def run_with(processor):
        popped = 0
        for query in queries:
            processor.search(query, ranker)
            popped += processor.last_trace.candidates_popped
        return popped / len(queries)

    popped_lattice, popped_naive = benchmark.pedantic(
        lambda: (run_with(lattice), run_with(naive)), rounds=1, iterations=1
    )
    # Both must return identical results (bounds differ, answers don't).
    for query in list(queries)[:5]:
        assert [r.doc_id for r in lattice.search(query, ranker)] == [
            r.doc_id for r in naive.search(query, ranker)
        ]
    table = Table(
        "Ablation: OR-semantics upper bound (FREQ_4, Twitter5M)",
        ["bound", "candidates popped / query"],
    )
    table.add_row("Apriori lattice (Section 5.3)", popped_lattice)
    table.add_row("naive sum of maxima", popped_naive)
    collect(table.render())
    assert popped_lattice <= popped_naive


@pytest.mark.benchmark(group="ablations")
def test_ablation_cell_capacity(benchmark, corpus_factory, querylog_factory, profile):
    """Page size sweep: capacity P/B = 32, 64, 128, 256 tuples."""
    corpus = corpus_factory("Twitter1M")
    queries = querylog_factory("Twitter1M").freq(
        3, count=profile.queries_per_set, semantics=Semantics.OR
    )
    ranker = Ranker(corpus.space, 0.5)
    rows = []

    def run():
        rows.clear()
        for page_size in (1024, 2048, 4096, 8192):
            built = build_index("I3", corpus, page_size=page_size)
            metrics = run_query_set(built, queries, ranker)
            rows.append(
                (page_size, built.size_bytes, metrics.mean_io, metrics.mean_ms)
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Ablation: I3 page size / keyword-cell capacity (Twitter1M, FREQ_3 OR)",
        ["page size", "index size", "mean I/O", "mean ms"],
    )
    for page_size, size, io, ms in rows:
        table.add_row(f"{page_size}B (P/B={page_size // 32})", format_bytes(size), io, ms)
    collect(table.render())
    assert len(rows) == 4


@pytest.mark.benchmark(group="ablations")
def test_ablation_dir_tree(benchmark, corpus_factory, querylog_factory, profile):
    """DIR-tree vs IR-tree: build cost and query performance."""
    corpus = corpus_factory("Twitter1M")
    queries = querylog_factory("Twitter1M").freq(
        3, count=profile.queries_per_set, semantics=Semantics.OR
    )
    ranker = Ranker(corpus.space, 0.5)

    def build_variant(policy):
        import time

        tree = IRTree(corpus.space, insertion_policy=policy)
        start = time.perf_counter()
        for doc in corpus.documents:
            tree.insert_document(doc)
        return tree, time.perf_counter() - start

    def run():
        ir, ir_time = build_variant(None)
        dirt, dir_time = build_variant(DirInsertionPolicy(beta=0.5))
        out = []
        for name, tree, seconds in (("IR-tree", ir, ir_time), ("DIR-tree", dirt, dir_time)):
            before = tree.stats.snapshot()
            import time as _t

            start = _t.perf_counter()
            for query in queries:
                tree.query(query, ranker)
            elapsed = _t.perf_counter() - start
            io = (tree.stats.snapshot() - before).total_reads / len(queries)
            out.append((name, seconds, 1000 * elapsed / len(queries), io))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Ablation: DIR-tree insertion policy (Twitter1M, FREQ_3 OR)",
        ["variant", "build s", "mean ms", "mean I/O"],
    )
    for row in rows:
        table.add_row(*row)
    collect(table.render())
    # Paper's finding: DIR-tree builds slower for little query gain.
    (_, ir_build, _, _), (_, dir_build, _, _) = rows
    assert dir_build >= 0.8 * ir_build


@pytest.mark.benchmark(group="ablations")
def test_ablation_bulk_load(benchmark, corpus_factory):
    """Bulk loading vs incremental insertion for I3 construction."""
    import time

    from repro.core.index import I3Index

    corpus = corpus_factory("Twitter5M")

    def run():
        incremental = I3Index(corpus.space)
        start = time.perf_counter()
        for doc in corpus.documents:
            incremental.insert_document(doc)
        incr_seconds = time.perf_counter() - start
        bulk = I3Index(corpus.space)
        start = time.perf_counter()
        bulk.bulk_load(corpus.documents)
        bulk_seconds = time.perf_counter() - start
        return (
            ("incremental", incr_seconds, incremental.stats.total()),
            ("bulk", bulk_seconds, bulk.stats.total()),
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Ablation: I3 construction mode (Twitter5M)",
        ["mode", "build s", "build I/O"],
    )
    for row in rows:
        table.add_row(*row)
    collect(table.render())
    (_, _, incr_io), (_, _, bulk_io) = rows
    assert bulk_io < incr_io  # each page/node written once, not per tuple
