"""Self-test of the ladder benchmark, outside tier-1's ``testpaths``:

    PYTHONPATH=src python -m pytest benchmarks/ladder -q

Runs ``run.py --smoke`` (2 000 documents, one round) for every
workload, traced and untraced, and checks the benchmark against
``BENCHMARK.json``; it measures nothing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT_END_TO_END = ("reads_per_query", "snapshot_mb")
EXACT_PER_LAYER = ("cluster.shards_touched_per_query",
                   "storage.wal_bytes_per_insert", "storage.reads_per_query")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DECLARED = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}


def smoke(out, workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workload", workload,
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("ladder")


@pytest.fixture(scope="module")
def runs(out):
    return {(w, t): smoke(out, w, t) for w in WORKLOADS for t in (0, 1)}


def test_benchmark_json_follows_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert SPEC["paths"] == ["benchmarks/ladder"]
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for t in DECLARED for m in DECLARED[t]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_once_with_its_unit(runs, workload, trace):
    report, result = runs[workload, trace]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[trace]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
        printed = [line for line in report if line.split()[:1] == [name]]
        assert len(printed) == 1 and printed[0].split()[-1] == unit
    if trace == 0:
        assert all(result["metrics"][name]["value"] > 0 for name in declared)


def test_workloads_stay_in_their_cache_regime(runs):
    ratio = {w: runs[w, 1][1]["metrics"]["service.cache_hit_ratio"]["value"]
             for w in WORKLOADS}
    assert ratio["wire-distinct"] == 0 and ratio["cluster-selective"] == 0
    assert ratio["wire-hot"] >= 0.99 and ratio["ingest-mixed"] <= 0.05


def test_same_seed_gives_the_same_inputs_and_the_same_counts(runs, out):
    def digests(workload: str, trace: int):
        with open(os.path.join(out, f"{workload}-trace{trace}.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)["provenance"]["sha256"]

    for workload in WORKLOADS:
        # Two processes, one seed: the traced and the untraced run.
        assert digests(workload, 0) == digests(workload, 1)
        if workload == "ingest-mixed":
            continue  # two writers race: what a query reads depends on timing
        _, again = smoke(out, workload, 0)
        for name in EXACT_END_TO_END:
            assert (again["metrics"][name]["value"]
                    == runs[workload, 0][1]["metrics"][name]["value"]), name
    _, again = smoke(out, "cluster-selective", 1)
    for name in EXACT_PER_LAYER:
        assert (again["metrics"][name]["value"]
                == runs["cluster-selective", 1][1]["metrics"][name]["value"]), name


def test_another_seed_gives_other_inputs_and_the_oracle_filter_is_exact():
    sys.path.insert(0, HERE)
    try:
        import ladder_inputs as inputs
        from ladder_verify import Oracle, wire_bytes
    finally:
        sys.path.remove(HERE)
    corpus = inputs.make_corpus(600)
    view = inputs.CorpusView(corpus)
    oracle = Oracle(corpus.documents, corpus.space)
    for name, generate in inputs.GENERATORS.items():
        stream = generate(view, 1, 1.5, 1)
        assert inputs.digest_stream(stream) == inputs.digest_stream(
            generate(view, 1, 1.5, 1)), name
        assert inputs.digest_stream(stream) != inputs.digest_stream(
            generate(view, 2, 1.5, 1)), name
        queries = [op[1] for op in stream.timed_ops() if op[0] == "q"][:25]
        assert queries
        for query in queries:
            assert wire_bytes(oracle.query(query)) == wire_bytes(
                oracle.query(query, full_scan=True))


def test_no_scratch_and_no_server_is_left_behind(runs, out):
    assert not [name for name in os.listdir(out) if name.startswith("tmp-")]
    listing = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True)
    assert str(out) not in listing.stdout


def test_it_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "ladder" / "run.py"),
         "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "ladder: cannot import repro" in done.stderr
    assert not done.stdout.strip().endswith("}")
