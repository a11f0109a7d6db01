"""The data file's decoded-cell cache and its four invalidation points.

A decoded keyword cell outlives the query that decoded it, so every path
that changes a cell's tuples must forget it first.  Each test below
warms the cache, takes one such path (and checks it was really taken),
then requires vector == tuple == the exhaustive scan.  The remaining
tests pin the budget, the cold-read contract of ``clear_cache()`` and
what the service exports.
"""

import random
import threading
from types import SimpleNamespace

import numpy as np

from repro.baselines.naive import NaiveScanIndex
from repro.bench.harness import BuiltIndex, run_query_set
from repro.cluster.partition import HashPartitioner
from repro.cluster.service import ClusterConfig, ClusterService
from repro.core.index import I3Index
from repro.core.kwcells import DECODED_CELL_BUDGET, DataFile, DecodedCellCache
from repro.datasets.querylog import QuerySet
from repro.exec.columns import COLUMNS_OVERHEAD, cell_columns
from repro.model.document import SpatialDocument
from repro.model.query import Semantics, TopKQuery
from repro.model.scoring import Ranker
from repro.service import QueryService, ServiceConfig
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.iostats import IOStats
from repro.storage.records import f32
from tests.helpers import DEFAULT_VOCAB, make_documents, results_as_pairs

RANKER = Ranker(UNIT_SQUARE, 0.5)


def doc(doc_id, x, y, **terms):
    return SpatialDocument(doc_id, x, y, {w: f32(v) for w, v in terms.items()})


def probes(words):
    """Every word alone, every pair under both semantics, three places."""
    words = list(words)
    shapes = [(w,) for w in words] + [
        (a, b) for i, a in enumerate(words) for b in words[i + 1:]
    ]
    return [
        TopKQuery(x, y, shape, k=50, semantics=semantics)
        for shape in shapes
        for semantics in (Semantics.OR, Semantics.AND)
        for x, y in ((0.1, 0.1), (0.5, 0.6), (0.95, 0.2))
    ]


class Pair:
    """An index and the exhaustive scan, mutated in lockstep."""

    def __init__(self, docs, page_size=128):
        self.index = I3Index(UNIT_SQUARE, page_size=page_size)
        self.naive = NaiveScanIndex()
        self.words = set()
        for d in docs:
            self.insert(d)

    def insert(self, d):
        self.index.insert_document(d)
        self.naive.insert_document(d)
        self.words.update(d.terms)

    def delete(self, d):
        assert self.index.delete_document(d)
        self.naive.delete_document(d)

    def update(self, old, new):
        self.index.update_document(old, new)
        self.naive.update_document(old, new)
        self.words.update(new.terms)

    def warm(self):
        for query in probes(sorted(self.words)):
            self.index.query(query, RANKER, engine="vector")
        assert len(self.index.data.cells) > 0

    def check(self):
        self.index.check_invariants()
        for query in probes(sorted(self.words)):
            vector = self.index.query(query, RANKER, engine="vector")
            scalar = self.index.query(query, RANKER, engine="tuple")
            assert [(d.doc_id, d.score.hex()) for d in vector] == [
                (d.doc_id, d.score.hex()) for d in scalar
            ], query
            assert results_as_pairs(vector) == results_as_pairs(
                self.naive.query(query, RANKER)
            ), query


class TestInvalidationPaths:
    """128-byte pages: four tuple slots, so every path is a few inserts."""

    def test_insert_into_free_slot(self):
        pair = Pair([doc(1, 0.2, 0.2, a=0.5), doc(2, 0.8, 0.7, a=0.4)])
        cell = pair.index.lookup.get("a").target
        pages = list(cell.pages)
        pair.warm()
        assert pair.index.data.cells.get(cell) is not None
        pair.insert(doc(3, 0.5, 0.6, a=0.9))
        assert cell.pages == pages and cell.count == 3  # grew in place
        assert pair.index.data.cells.get(cell) is None
        pair.check()

    def test_relocation_to_a_roomier_page(self):
        pair = Pair([
            doc(1, 0.2, 0.2, a=0.5, b=0.3),
            doc(2, 0.8, 0.7, a=0.4, b=0.6),
        ])
        a = pair.index.lookup.get("a").target
        b = pair.index.lookup.get("b").target
        assert a.pages == b.pages  # one full page, shared by both cells
        old_page = list(a.pages)
        pair.warm()
        pair.insert(doc(3, 0.5, 0.6, a=0.9))
        assert a.pages != old_page and a.count == 3  # moved, whole
        assert pair.index.data.cells.get(a) is None
        assert pair.index.data.cells.get(b) is not None  # b never changed
        pair.check()

    def test_split_to_dense_dissolves_the_cell(self):
        docs = [
            doc(i, 0.1 + 0.2 * i, 0.9 - 0.2 * i, a=0.1 * (i + 1))
            for i in range(4)
        ]
        pair = Pair(docs)
        entry = pair.index.lookup.get("a")
        assert not entry.dense and entry.target.count == 4  # at capacity
        root = entry.target
        pair.warm()
        pair.insert(doc(9, 0.55, 0.45, a=0.95))
        assert pair.index.lookup.get("a").dense
        assert root.pages == [] and pair.index.data.cells.get(root) is None
        pair.check()
        # And again one level down: a child keyword cell fills and splits.
        pair.warm()
        for i in range(10, 16):
            pair.insert(doc(i, 0.05 + 0.01 * i, 0.05 + 0.01 * i, a=0.2))
        pair.check()

    def test_delete_to_empty_and_reinsert(self):
        first, last = doc(1, 0.3, 0.3, a=0.5, z=0.8), doc(2, 0.7, 0.2, z=0.6)
        pair = Pair([first, last, doc(3, 0.6, 0.6, a=0.7)])
        cell = pair.index.lookup.get("z").target
        pair.warm()
        pair.delete(first)
        assert cell.count == 1 and pair.index.data.cells.get(cell) is None
        pair.check()
        pair.warm()
        pair.delete(last)
        assert cell.count == 0 and pair.index.lookup.get("z") is None
        pair.check()
        pair.insert(doc(4, 0.4, 0.4, z=0.9))
        pair.check()

    def test_delete_under_a_dense_keyword(self):
        docs = [doc(i, 0.06 * i + 0.02, 0.9 - 0.05 * i, a=0.05 * (i + 1))
                for i in range(14)]
        pair = Pair(docs)
        assert pair.index.lookup.get("a").dense
        pair.warm()
        for victim in (docs[3], docs[11], docs[0]):
            pair.delete(victim)
            pair.check()

    def test_update_document_moves_tuples_between_cells(self):
        rng = random.Random(5)
        docs = make_documents(40, rng, vocab=DEFAULT_VOCAB[:4])
        pair = Pair(docs)
        pair.warm()
        old = docs[7]
        pair.update(
            old,
            SpatialDocument(
                old.doc_id, 1.0 - old.x, 1.0 - old.y,
                {DEFAULT_VOCAB[0]: f32(0.99), DEFAULT_VOCAB[3]: f32(0.5)},
            ),
        )
        pair.check()


class TestBudget:
    def test_sweep_larger_than_the_budget(self):
        """Accounted bytes never pass the constant; the oldest cells go
        first, and an evicted cell reloads to the same columns."""
        data = DataFile(page_size=4096)
        index = SimpleNamespace(data=data)
        per_cell = data.capacity * 28 + COLUMNS_OVERHEAD
        surplus = 150
        cells = [
            data.create_cell([
                (n * 1000 + j, j / 128, n / 4096, f32(0.5))
                for j in range(data.capacity)
            ])
            for n in range(DECODED_CELL_BUDGET // per_cell + surplus)
        ]
        first = cell_columns(index, cells[0])
        for cell in cells:
            cell_columns(index, cell)
            assert data.cells.bytes <= DECODED_CELL_BUDGET
        stats = data.cells.stats()
        assert stats["evictions"] == surplus
        assert stats["entries"] == len(cells) - surplus
        assert stats["bytes"] == stats["entries"] * per_cell
        assert data.cells.get(cells[-1]) is not None
        assert data.cells.get(cells[0]) is None  # oldest inserted went first
        reads = data.file.stats.reads("i3.data")
        again = cell_columns(index, cells[0])
        assert data.file.stats.reads("i3.data") == reads + 1
        assert again is not first
        for name in ("ids", "xs", "ys", "ws"):
            assert np.array_equal(getattr(again, name), getattr(first, name))

    def test_entry_is_keyed_by_the_cell_object(self):
        cache = DecodedCellCache()
        data = DataFile(page_size=128)
        cell = data.create_cell([(1, 0.5, 0.5, f32(0.5))])
        cache.put(cell, "decoded", 10)
        assert cache.get(cell) == "decoded"
        cache.put(cell, "again", 30)  # replaces, does not double-count
        assert cache.stats()["bytes"] == 30
        cache.drop(cell)
        assert cache.get(cell) is None and cache.stats()["bytes"] == 0
        cache.put(cell, "too big", DECODED_CELL_BUDGET + 1)  # cannot fit alone
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "bytes": 0, "entries": 0,
        }


def _corpus(count=300, seed=11):
    return make_documents(count, random.Random(seed))


def _or_queries(count, seed):
    rng = random.Random(seed)
    return [
        TopKQuery(
            rng.random(), rng.random(),
            tuple(rng.sample(DEFAULT_VOCAB, rng.randint(1, 3))),
            k=rng.choice([1, 5, 20]), semantics=Semantics.OR,
        )
        for _ in range(count)
    ]


class TestColdReads:
    def test_query_after_clear_reads_what_the_tuple_engine_reads(self):
        """The paper's I/O tables come from the default engine: after
        ``clear_cache()`` a query must read exactly the pages the tuple
        engine reads, component by component (OR: identical bounds, so
        identical traversals)."""
        index = I3Index(UNIT_SQUARE, page_size=256)
        for d in _corpus():
            index.insert_document(d)
        for query in _or_queries(40, seed=3):
            scalar, vector = IOStats(), IOStats()
            index.query(query, RANKER, io_sink=scalar, engine="tuple")
            index.clear_cache()
            index.query(query, RANKER, io_sink=vector, engine="vector")
            assert vector.snapshot().reads == scalar.snapshot().reads
            warm = IOStats()
            index.query(query, RANKER, io_sink=warm, engine="vector")
            assert warm.reads("i3.data") == 0

    def test_and_after_clear_reads_and_pops_what_the_tuple_engine_does(self):
        """Algorithm 5 lines 7-12: both cell models drop a fetched
        document whose bit ``id mod eta`` is missing from the dense
        keywords' signature intersection, so an AND query reads the same
        pages and pops the same candidates under either model."""
        index = I3Index(UNIT_SQUARE, page_size=256)
        for d in _corpus(600):
            index.insert_document(d)
        rng = random.Random(21)
        for _ in range(40):
            query = TopKQuery(
                rng.random(), rng.random(),
                tuple(rng.sample(DEFAULT_VOCAB, rng.randint(2, 3))),
                k=50, semantics=Semantics.AND,
            )
            seen = {}
            for engine in ("tuple", "vector"):
                index.clear_cache()
                io = IOStats()
                answer = index.query(query, RANKER, io_sink=io, engine=engine)
                seen[engine] = (
                    [(d.doc_id, d.score.hex()) for d in answer],
                    io.snapshot().reads,
                    index.engine_processor(engine).last_trace.candidates_popped,
                )
            assert seen["vector"] == seen["tuple"], query

    def test_warm_queries_cost_less_physical_io(self):
        """Decoded cells are free to reuse, and ``clear_cache()`` restores
        the paper's cold-cache measurement conditions."""
        index = I3Index(UNIT_SQUARE, page_size=256)
        for d in make_documents(150, random.Random(5)):
            index.insert_document(d)
        query = TopKQuery(0.5, 0.5, ("spicy", "restaurant"), k=10)

        def data_reads():
            io = IOStats()
            answer = index.query(query, RANKER, io_sink=io, engine="vector")
            return results_as_pairs(answer), io.reads("i3.data")

        index.clear_cache()
        cold, cold_io = data_reads()
        warm, warm_io = data_reads()
        assert cold == warm
        assert warm_io < cold_io  # hot cells served decoded
        index.clear_cache()
        assert data_reads() == (cold, cold_io)  # cold again

    def test_bench_harness_stays_cold(self):
        """``run_query_set`` feeds the Fig. 8-9 tables: every query reads
        what the tuple reference (which keeps no decoded cells) reads,
        however warm the index was left."""
        index = I3Index(UNIT_SQUARE, page_size=256)
        for d in _corpus():
            index.insert_document(d)
        built = BuiltIndex("I3", index, None, 0.0, index.stats.snapshot())
        queries = QuerySet(name="or", queries=_or_queries(30, seed=8))
        scalar = IOStats()
        for _ in range(2):
            for query in queries:
                index.query(query, RANKER, io_sink=scalar, engine="tuple")
        vector = run_query_set(built, queries, RANKER, repeat=2)
        assert vector.io.reads == scalar.snapshot().reads


class TestServiceSurface:
    def test_readers_and_a_writer_with_the_cache_warm(self):
        """Readers compare the two engines inside one read-lock hold
        while a writer inserts and deletes: any decoded cell that
        survives a change to its tuples is a mismatch at some reader."""
        rng = random.Random(17)
        index = I3Index(UNIT_SQUARE, page_size=256)
        naive = NaiveScanIndex()
        docs = make_documents(150, rng)
        for d in docs:
            index.insert_document(d)
            naive.insert_document(d)
        queries = _or_queries(60, seed=4) + probes(DEFAULT_VOCAB[:3])
        fresh = make_documents(40, rng, start_id=10_000)
        mismatches, errors = [], []
        config = ServiceConfig(max_pending=64, cache_capacity=0)
        with QueryService(index, config, ranker=RANKER) as service:
            for query in queries:
                service.search(query)  # warm
            assert service.metrics_snapshot()["decoded_cells"]["entries"] > 0

            def both_engines(query):
                def run(_target):
                    return [
                        [(d.doc_id, d.score.hex())
                         for d in index.query(query, RANKER, engine=engine)]
                        for engine in ("vector", "tuple")
                    ]
                return service.read(run)

            def reader(chunk):
                try:
                    for _ in range(3):
                        for query in chunk:
                            vector, scalar = both_engines(query)
                            if vector != scalar:
                                mismatches.append(query)
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(queries[i::3],))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for n, d in enumerate(fresh):
                service.insert(d)
                naive.insert_document(d)
                if n % 3 == 0:
                    service.delete(docs[n])
                    naive.delete_document(docs[n])
            for t in threads:
                t.join()
            assert errors == [] and mismatches == []
            for query in queries:
                assert results_as_pairs(service.search(query)) == (
                    results_as_pairs(naive.query(query, RANKER))
                )

    def test_decoded_cells_block_counts_every_cell_asked_for(self, monkeypatch):
        import repro.exec.vector as vector_module

        asked = []

        def counting(index, cell):
            asked.append(cell)
            return cell_columns(index, cell)

        monkeypatch.setattr(vector_module, "cell_columns", counting)
        index = I3Index(UNIT_SQUARE, page_size=256)
        for d in _corpus(200):
            index.insert_document(d)
        config = ServiceConfig(cache_capacity=0)
        with QueryService(index, config, ranker=RANKER) as service:
            queries = _or_queries(25, seed=6)
            # Two callers read the index themselves while the lane
            # works: the counters are lock-free and must lose nothing.
            readers = [
                threading.Thread(target=lambda: [
                    service.read(lambda t: t.query(q, RANKER, engine="vector"))
                    for q in queries
                ])
                for _ in range(2)
            ]
            for t in readers:
                t.start()
            for future in [service.submit(q, block=True) for q in queries]:
                future.result(timeout=30)
            for t in readers:
                t.join()
            service.search_many(queries[:10])
            block = service.metrics_snapshot()["decoded_cells"]
            text = service.metrics.render_prometheus()
            counters = service.metrics.as_dict()["counters"]
        assert set(block) == {"hits", "misses", "evictions", "bytes", "entries"}
        assert block["hits"] + block["misses"] == len(asked) > 0
        assert block["entries"] == len({id(c) for c in asked})
        assert block["evictions"] == 0 < block["bytes"] <= DECODED_CELL_BUDGET
        assert counters["decoded_cells.hits"] == block["hits"]
        assert f"repro_decoded_cells_hits {block['hits']}\n" in text
        assert f"repro_decoded_cells_misses {block['misses']}\n" in text
        assert "# TYPE repro_decoded_cells_evictions counter" in text
        assert f"repro_decoded_cells_entries {block['entries']}\n" in text
        assert "# TYPE repro_decoded_cells_bytes gauge" in text

    def test_cluster_rollup_labels_decoded_cells_per_shard(self):
        docs = _corpus(200)
        with ClusterService.build(
            docs,
            HashPartitioner(2, UNIT_SQUARE),
            ClusterConfig(shard_config=ServiceConfig()),
            ranker=RANKER,
        ) as cluster:
            for query in _or_queries(12, seed=2):
                cluster.search(query)
            rollup = cluster.metrics_snapshot()["rollup"]
        per_shard = [
            rollup["per_shard"][f"decoded_cells.misses{{shard={sid}}}"]
            for sid in (0, 1)
        ]
        assert sum(per_shard) == rollup["totals"]["decoded_cells.misses"] > 0
