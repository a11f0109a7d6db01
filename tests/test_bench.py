"""Unit tests for the benchmark harness and workloads."""

import pytest

from repro.bench.config import FULL, QUICK, active_profile
from repro.bench.harness import build_index, run_query_set, run_updates
from repro.bench.reporting import Table, collect, drain_reports, format_bytes
from repro.bench.workloads import update_workload
from repro.datasets.generators import TwitterLikeGenerator
from repro.datasets.querylog import QueryLogGenerator
from repro.model.query import Semantics
from repro.model.scoring import Ranker


@pytest.fixture(scope="module")
def corpus():
    return TwitterLikeGenerator(300, seed=6).generate()


class TestBuildIndex:
    @pytest.mark.parametrize("kind", ["I3", "S2I", "IR-tree"])
    def test_builds_and_measures(self, corpus, kind):
        built = build_index(kind, corpus)
        assert built.name == kind
        assert built.build_seconds > 0
        assert built.build_io.total > 0
        assert built.size_bytes > 0
        assert built.index.num_documents == len(corpus)

    def test_unknown_kind(self, corpus):
        with pytest.raises(ValueError):
            build_index("BTree", corpus)


class TestRunQuerySet:
    def test_metrics_populated(self, corpus):
        built = build_index("I3", corpus)
        queries = QueryLogGenerator(corpus, seed=1).freq(2, count=5)
        ranker = Ranker(corpus.space, 0.5)
        metrics = run_query_set(built, queries, ranker)
        assert metrics.num_queries == 5
        assert metrics.mean_ms > 0
        assert metrics.mean_io > 0
        assert metrics.mean_reads("i3.data") > 0
        # Head + data reads account for all I3 read I/O.
        assert metrics.io.total_reads == sum(metrics.io.reads.values())

    def test_io_attribution_separates_components(self, corpus):
        built = build_index("IR-tree", corpus)
        queries = QueryLogGenerator(corpus, seed=1).freq(
            3, count=5, semantics=Semantics.OR
        )
        metrics = run_query_set(built, queries, Ranker(corpus.space, 0.5))
        assert metrics.mean_reads("irtree.nodes") > 0
        assert metrics.mean_reads("irtree.inv") > 0


class TestUpdateWorkload:
    def test_operations_replayable_across_indexes(self, corpus):
        ops = update_workload(corpus, 60, seed=2)
        assert len(ops) == 60
        a = build_index("I3", corpus)
        b = build_index("S2I", corpus)
        ma = run_updates(a, ops)
        mb = run_updates(b, ops)
        assert ma.num_operations == mb.num_operations == 60
        assert ma.total_seconds > 0 and mb.total_seconds > 0
        a.index.check_invariants()

    def test_deterministic_sequence(self, corpus):
        # Two generations produce the same op kinds on the same docs.
        ops_a = update_workload(corpus, 30, seed=9)
        ops_b = update_workload(corpus, 30, seed=9)
        assert [op.__qualname__ for op in ops_a] == [
            op.__qualname__ for op in ops_b
        ]


class TestProfiles:
    def test_default_profile_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert active_profile().name == "quick"

    def test_full_profile_selectable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "full")
        assert active_profile().name == "full"

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "huge")
        with pytest.raises(ValueError):
            active_profile()

    def test_scaling_ratios_preserved(self):
        for profile in (QUICK, FULL):
            sizes = profile.twitter_sizes
            assert sizes["Twitter5M"] / sizes["Twitter1M"] == pytest.approx(
                5.0, rel=0.6
            )
            assert sizes["Twitter15M"] > sizes["Twitter10M"] > sizes["Twitter5M"]


class TestReporting:
    def test_table_rendering(self):
        t = Table("Fig X", ["setting", "I3", "S2I"])
        t.add_row("qn=2", 1.234, 10_000)
        text = t.render()
        assert "Fig X" in text and "qn=2" in text and "10,000" in text
        with pytest.raises(ValueError):
            t.add_row("too", "few")

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(4096) == "4.0KB"
        assert format_bytes(3 * 1024 * 1024) == "3.0MB"

    def test_collect_and_drain(self):
        drain_reports()
        collect("block one")
        collect("block two")
        text = drain_reports()
        assert "block one" in text and "block two" in text
        assert drain_reports() == ""
