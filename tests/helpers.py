"""Test helpers shared across the suite (importable as tests.helpers)."""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import Dict, List, Sequence

from repro.cluster import ClusterConfig, ClusterService, ShardReplica
from repro.model.document import SpatialDocument
from repro.service import QueryService
from repro.spatial.cells import CellGrid
from repro.spatial.geometry import Rect, UNIT_SQUARE
from repro.storage.iostats import IOStats
from repro.storage.records import f32
from repro.temporal import TemporalIndex

DEFAULT_VOCAB = [
    "spicy",
    "chinese",
    "restaurant",
    "korean",
    "pizza",
    "sushi",
    "bar",
    "cafe",
    "noodle",
    "grill",
]


def make_documents(
    count: int,
    rng: random.Random,
    vocab: Sequence[str] = DEFAULT_VOCAB,
    space: Rect = UNIT_SQUARE,
    min_words: int = 1,
    max_words: int = 4,
    start_id: int = 0,
) -> List[SpatialDocument]:
    """Random small documents with f32-exact weights inside ``space``."""
    docs = []
    for i in range(count):
        n = rng.randint(min_words, min(max_words, len(vocab)))
        words = rng.sample(list(vocab), n)
        terms: Dict[str, float] = {w: f32(rng.uniform(0.05, 1.0)) for w in words}
        x = rng.uniform(space.min_x, space.max_x)
        y = rng.uniform(space.min_y, space.max_y)
        docs.append(SpatialDocument(start_id + i, x, y, terms))
    return docs


def hot_spot_documents(
    count: int,
    seed: int,
    space: Rect = UNIT_SQUARE,
    vocab: Sequence[str] = DEFAULT_VOCAB,
) -> List[SpatialDocument]:
    """Seeded documents, two in three crowded round three hot spots, so
    a quadtree over them splits deep in some places and not in others,
    and the last 63 on the split lines of the cells of levels 0-2 (where
    each cell's quadrant test must pick the higher quadrant)."""
    rng = random.Random(seed)
    grid = CellGrid(space)
    lines = []
    for cell in [1, *range(4, 8), *range(16, 32)]:
        r = grid.rect(cell)
        cx, cy = r.center
        lines += [(cx, cy), (cx, r.min_y), (r.min_x, cy)]
    hot = [(rng.random(), rng.random()) for _ in range(3)]
    points = []
    for i in range(count - len(lines)):
        if i % 3:
            cx, cy = hot[i % 3]
            u = min(1.0, max(0.0, cx + rng.gauss(0.0, 0.04)))
            v = min(1.0, max(0.0, cy + rng.gauss(0.0, 0.04)))
        else:
            u, v = rng.random(), rng.random()
        points.append((
            min(space.max_x, space.min_x + u * (space.max_x - space.min_x)),
            min(space.max_y, space.min_y + v * (space.max_y - space.min_y)),
        ))
    docs = []
    for i, (x, y) in enumerate(points + lines):
        words = rng.sample(list(vocab), rng.randint(1, 4))
        terms = {w: f32(rng.uniform(0.05, 1.0)) for w in words}
        docs.append(SpatialDocument(i, x, y, terms))
    return docs


def results_as_pairs(results) -> List[tuple]:
    """Normalise ScoredDoc lists for exact comparison."""
    return [(r.doc_id, round(r.score, 9)) for r in results]


def temporal_cluster(
    tdocs, partitioner, temporal_config=None, config=None,
    *, clock=None, executor=None, channel=None,
) -> ClusterService:
    """Temporal shards on the one scatter-gather, stood up the way
    docs/temporal.md ("Sharding × slicing") says: every replica a
    ``QueryService(TemporalIndex)``, handed to the ``ClusterService``
    constructor and fed oldest-first through ``cluster.insert``.
    ``clock``/``executor``/``channel`` are the simulation seams."""
    config = config if config is not None else ClusterConfig()
    shards = [
        [
            ShardReplica(
                sid, rid,
                QueryService(
                    TemporalIndex(partitioner.space, temporal_config),
                    config.shard_config, clock=clock, executor=executor,
                ),
                failure_threshold=config.failure_threshold,
            )
            for rid in range(config.replicas)
        ]
        for sid in range(partitioner.num_shards)
    ]
    cluster = ClusterService(
        shards, partitioner, config,
        clock=clock, executor=executor, channel=channel,
    )
    for tdoc in sorted(tdocs, key=lambda t: (t.timestamp, t.doc_id)):
        cluster.insert(tdoc)
    return cluster


def stub_index(gate=None):
    """An index-shaped stub whose queries block on ``gate`` (if given) —
    makes overload/timeout behaviour deterministic in tests."""
    stub = SimpleNamespace(
        space=UNIT_SQUARE,
        stats=IOStats(),
        epoch=0,
        data=SimpleNamespace(buffer=None),
    )

    def query(q, ranker=None, io_sink=None):
        if gate is not None:
            gate.wait(timeout=10)
        return [q.k]

    stub.query = query
    return stub


def wait_for(condition, seconds: float = 5.0) -> None:
    """Poll until ``condition()`` holds; fail the test if it never does."""
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def serving(port_file: pathlib.Path, *args: str, timeout_s: float = 30.0):
    """A real ``python -m repro serve --port 0 ...`` subprocess.

    Yields ``(address, process)`` once the server has written
    ``port_file`` (it does so only after everything is bound); on exit a
    still-running server gets SIGTERM and is waited for.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(port_file), *args,
        ],
        cwd=str(REPO_ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + timeout_s
        while not (port_file.exists() and port_file.read_text().strip()):
            if proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited early (rc={proc.returncode}): "
                    f"{proc.stderr.read()[-2000:]}"
                )
            if time.monotonic() >= deadline:
                raise TimeoutError("serve never wrote its port file")
            time.sleep(0.05)
        yield json.loads(port_file.read_text()), proc
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
