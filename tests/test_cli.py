"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.persistence import load_index


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert main(["generate", "--kind", "twitter", "--docs", "120",
                 "--seed", "5", "--out", str(path)]) == 0
    return path


@pytest.fixture
def index_file(tmp_path, corpus_file):
    path = tmp_path / "corpus.i3ix"
    assert main(["build", "--corpus", str(corpus_file), "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_jsonl(self, corpus_file):
        lines = corpus_file.read_text().strip().splitlines()
        assert len(lines) == 120
        record = json.loads(lines[0])
        assert set(record) == {"id", "x", "y", "terms"}
        assert record["terms"]

    def test_stdout_output(self, capsys):
        assert main(["generate", "--docs", "5", "--out", "-"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5

    def test_wikipedia_kind(self, tmp_path):
        path = tmp_path / "wiki.jsonl"
        assert main(["generate", "--kind", "wikipedia", "--docs", "10",
                     "--out", str(path)]) == 0
        record = json.loads(path.read_text().splitlines()[0])
        assert len(record["terms"]) > 20  # long documents


class TestBuild:
    def test_builds_loadable_index(self, index_file):
        index = load_index(str(index_file))
        assert index.num_documents == 120
        index.check_invariants()

    def test_incremental_equals_bulk_results(self, tmp_path, corpus_file):
        bulk = tmp_path / "bulk.i3ix"
        incr = tmp_path / "incr.i3ix"
        assert main(["build", "--corpus", str(corpus_file), "--out", str(bulk)]) == 0
        assert main(["build", "--corpus", str(corpus_file), "--out", str(incr),
                     "--incremental"]) == 0
        a = load_index(str(bulk))
        b = load_index(str(incr))
        assert a.num_tuples == b.num_tuples
        assert len(a.lookup) == len(b.lookup)

    def test_explicit_space(self, tmp_path, corpus_file):
        path = tmp_path / "spaced.i3ix"
        assert main(["build", "--corpus", str(corpus_file), "--out", str(path),
                     "--space", "0,0,1,1"]) == 0
        assert load_index(str(path)).space.max_x == 1.0

    def test_bad_corpus_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": 1}\n')
        with pytest.raises(SystemExit):
            main(["build", "--corpus", str(bad), "--out", str(tmp_path / "x.i3ix")])

    def test_empty_corpus(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["build", "--corpus", str(empty), "--out", str(tmp_path / "x.i3ix")])


class TestDurableBuildAndRecover:
    def test_build_durable_dir(self, tmp_path, corpus_file):
        store = tmp_path / "store"
        assert main(["build", "--corpus", str(corpus_file),
                     "--durable-dir", str(store)]) == 0
        assert (store / "snapshot.i3ix").exists()
        assert (store / "wal.log").exists()

    def test_build_requires_some_destination(self, corpus_file):
        with pytest.raises(SystemExit, match="--out"):
            main(["build", "--corpus", str(corpus_file)])

    def test_recover_reports_and_checkpoints(self, tmp_path, corpus_file, capsys):
        store = tmp_path / "store"
        assert main(["build", "--corpus", str(corpus_file),
                     "--durable-dir", str(store)]) == 0
        wal_before = (store / "wal.log").read_bytes()
        # Append a mutation so recovery has a tail to replay.
        from repro.core.recovery import DurableIndex
        from repro.model.document import SpatialDocument

        du = DurableIndex.open(str(store))
        doc = SpatialDocument(
            999_999,
            du.index.space.min_x,
            du.index.space.min_y,
            {"recovered": 1.0},
        )
        du.insert_document(doc)
        du.close()
        capsys.readouterr()
        assert main(["recover", "--dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "recovered 121 documents" in out
        assert "replayed 1 WAL records" in out
        # The default checkpoint folded the tail into a new snapshot.
        assert (store / "wal.log").read_bytes() != wal_before
        assert main(["recover", "--dir", str(store), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["records_replayed"] == 0
        assert report["num_documents"] == 121
        assert report["checkpointed"] is True

    def test_recover_no_checkpoint_leaves_wal(self, tmp_path, corpus_file, capsys):
        store = tmp_path / "store"
        assert main(["build", "--corpus", str(corpus_file),
                     "--durable-dir", str(store)]) == 0
        wal_before = (store / "wal.log").read_bytes()
        assert main(["recover", "--dir", str(store),
                     "--no-checkpoint", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checkpointed"] is False
        assert (store / "wal.log").read_bytes() == wal_before

    def test_recover_missing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="no durable index"):
            main(["recover", "--dir", str(tmp_path / "nope")])


class TestInfoAndQuery:
    def test_info_renders_report(self, index_file, capsys):
        assert main(["info", "--index", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "documents" in out and "120" in out

    def test_query_text_output(self, index_file, capsys):
        assert main(["query", "--index", str(index_file), "--at", "0.5,0.5",
                     "--words", "kw0 kw1", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "doc" in out and "score" in out

    def test_query_json_output(self, index_file, capsys):
        assert main(["query", "--index", str(index_file), "--at", "0.5,0.5",
                     "--words", "kw0", "--k", "2", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert len(results) <= 2
        assert all({"doc_id", "score"} <= set(r) for r in results)

    def test_query_and_semantics_subset(self, index_file, capsys):
        assert main(["query", "--index", str(index_file), "--at", "0.5,0.5",
                     "--words", "kw0 kw1 kw2", "--semantics", "and",
                     "--k", "50", "--json"]) == 0
        and_ids = {r["doc_id"] for r in json.loads(capsys.readouterr().out)}
        assert main(["query", "--index", str(index_file), "--at", "0.5,0.5",
                     "--words", "kw0 kw1 kw2", "--semantics", "or",
                     "--k", "120", "--json"]) == 0
        or_ids = {r["doc_id"] for r in json.loads(capsys.readouterr().out)}
        assert and_ids <= or_ids

    def test_bad_point(self, index_file):
        with pytest.raises(SystemExit):
            main(["query", "--index", str(index_file), "--at", "nope",
                  "--words", "kw0"])

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_has_no_pool_size(self, capsys):
        """A service is one lane: ``--workers`` is not a flag, and
        argparse says so (exit 2) before anything is built or bound."""
        with pytest.raises(SystemExit) as err:
            main(["serve", "--docs", "50", "--workers", "2"])
        assert err.value.code == 2
        assert "--workers" in capsys.readouterr().err
