"""Every public ``repro`` name the ladder benchmark depends on.

The benchmark reaches the system only through these names and
``python -m repro serve --index | --durable-dir, --port, --port-file``
(``ladder_workloads.Server``).  A later change that renames one needs
a benchmark issue first; until then the benchmark stops with the
missing name instead of a traceback.
"""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _need(module: str, *names: str):
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        raise SystemExit(f"ladder: cannot import {module}: {exc}")
    if not names:
        return mod
    found = []
    for name in names:
        if not hasattr(mod, name):
            raise SystemExit(f"ladder: missing public name {module}.{name}")
        found.append(getattr(mod, name))
    return found[0] if len(found) == 1 else found


def _need_attrs(owner, *attrs: str) -> None:
    for attr in attrs:
        if not hasattr(owner, attr):
            raise SystemExit(
                f"ladder: missing public name "
                f"{owner.__module__}.{owner.__qualname__}.{attr}"
            )


np = _need("numpy")

(I3Index, Ranker, Rect, ScoredDoc, Semantics, SpatialDocument, TopKQuery,
 load_index, save_index) = _need(
    "repro", "I3Index", "Ranker", "Rect", "ScoredDoc", "Semantics",
    "SpatialDocument", "TopKQuery", "load_index", "save_index",
)
TwitterLikeGenerator = _need("repro.datasets.generators", "TwitterLikeGenerator")
NaiveScanIndex = _need("repro.baselines.naive", "NaiveScanIndex")
IOStats = _need("repro.storage.iostats", "IOStats")
DurableIndex = _need("repro.core.recovery", "DurableIndex")
kernels = _need("repro.exec.kernels")
open_snapshot = _need("repro.exec.snapshot", "open_snapshot")
QueryService, ServiceConfig = _need("repro.service", "QueryService", "ServiceConfig")
ClusterConfig, ClusterService, HashPartitioner = _need(
    "repro.cluster", "ClusterConfig", "ClusterService", "HashPartitioner"
)
WorkloadModel, WorkloadPartitioner = _need(
    "repro.planner", "WorkloadModel", "WorkloadPartitioner"
)
Client, NetServer, NetServerConfig = _need(
    "repro.net", "Client", "NetServer", "NetServerConfig"
)
(decode_payload, encode_frame, ok_response, results_from_wire,
 results_to_wire) = _need(
    "repro.net.protocol", "decode_payload", "encode_frame", "ok_response",
    "results_from_wire", "results_to_wire",
)

_need_attrs(I3Index, "bulk_load", "query", "query_many", "insert_document",
            "delete_document", "engine_processor", "size_bytes")
_need_attrs(DurableIndex, "create", "open", "insert_document",
            "delete_document", "checkpoint", "close", "query", "range_query")
_need_attrs(QueryService, "search", "insert", "delete", "metrics_snapshot", "close")
_need_attrs(ClusterService, "build", "search", "rebalance", "replica",
            "metrics_snapshot", "close")
_need_attrs(WorkloadModel, "from_queries")
_need_attrs(WorkloadPartitioner, "learn")
_need_attrs(Client, "search", "insert", "delete", "metrics_text", "close")
_need_attrs(NetServer, "start", "close")
_need_attrs(kernels, "spatial_proximity", "combine")
