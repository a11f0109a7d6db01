"""The one document record ``{id, x, y, terms[, ts]}`` and its codec.

``document_to_record`` / ``document_from_record`` are the only writer
and reader of the record.  The round trip is a property over arbitrary
documents, with and without ``ts``; the refusals are one rule, checked
at every boundary that reads the record: the wire's ``insert`` op
(``bad_request``, epoch unchanged), the CLI corpus reader (``path:line``)
and a temporal slice's ``meta.json`` sidecar (``CorruptionError``).
"""

import json
import math
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import _read_corpus_records
from repro.model.document import (
    F32_LIMIT,
    SpatialDocument,
    document_from_record,
    document_to_record,
)
from repro.net import NetServer
from repro.net.server import ConnectionCore
from repro.service.service import QueryService, ServiceConfig
from repro.spatial.geometry import UNIT_SQUARE
from repro.storage.errors import CorruptionError
from repro.temporal import TemporalConfig, TemporalDocument, TemporalIndex

finite = st.floats(allow_nan=False, allow_infinity=False)
documents = st.builds(
    SpatialDocument,
    st.integers(min_value=0, max_value=2**64 - 1),
    finite,
    finite,
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=math.nextafter(F32_LIMIT, 0.0)),
        max_size=5,
    ),
)


@settings(max_examples=200, deadline=None)
@given(doc=documents, ts=st.none() | finite)
def test_record_round_trips_through_json(doc, ts):
    record = json.loads(json.dumps(document_to_record(doc, ts)))
    assert ("ts" in record) == (ts is not None)
    assert document_from_record(record) == (doc, ts)


def _good():
    return {"id": 7, "x": 0.25, "y": 0.75, "terms": {"cafe": 0.5}, "ts": 5.0}


_MISSING = object()


def _with(**changes):
    record = _good()
    for name, value in changes.items():
        if value is _MISSING:
            del record[name]
        else:
            record[name] = value
    return record

# (case, record, words the refusal must name)
BAD = [
    ("bool id", _with(id=True), "document id"),
    ("string number", _with(x="0.5"), "document x"),
    ("NaN", _with(y=math.nan), "document y"),
    ("Infinity", _with(terms={"cafe": math.inf}), "weight of 'cafe'"),
    ("beyond f32", _with(terms={"cafe": 1e39}), "keyword 'cafe'"),
    ("missing field", _with(x=_MISSING), "document x"),
    ("non-string keyword", _with(terms={1: 0.5}), "document terms"),
    ("non-finite ts", _with(ts=math.inf), "document ts"),
]
# JSON text has string keys only (``json.dumps`` writes the key 1 as
# "1"), so the file boundaries never see a non-string keyword.
IN_JSON_TEXT = [case for case in BAD if case[0] != "non-string keyword"]


@pytest.mark.parametrize("case, record, field", BAD, ids=[c[0] for c in BAD])
def test_the_codec_refuses(case, record, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        document_from_record(record)


@pytest.mark.parametrize("case, record, field", BAD, ids=[c[0] for c in BAD])
def test_the_wire_refuses(case, record, field):
    """The request pipeline both transports run, over a temporal backend
    so a well-formed ``ts`` is not what gets the record refused."""
    index = TemporalIndex(UNIT_SQUARE, TemporalConfig(slice_width=10.0))
    with QueryService(index, ServiceConfig(metrics_seed=0)) as service:
        core = ConnectionCore(NetServer(service))
        response = core.handle({"op": "insert", "args": {"doc": record}})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert field in response["error"]["message"]
        assert service.epoch == 0


@pytest.mark.parametrize(
    "case, record, field", IN_JSON_TEXT, ids=[c[0] for c in IN_JSON_TEXT]
)
def test_the_cli_corpus_reader_refuses(tmp_path, case, record, field):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_good()) + "\n" + json.dumps(record) + "\n")
    where = re.escape(f"{path}:2: ")
    with pytest.raises(SystemExit, match=f"{where}.*{re.escape(field)}"):
        _read_corpus_records(str(path))


@pytest.mark.parametrize(
    "case, record, field", IN_JSON_TEXT, ids=[c[0] for c in IN_JSON_TEXT]
)
def test_the_temporal_sidecar_refuses(tmp_path, case, record, field):
    root = str(tmp_path / "store")
    doc, ts = document_from_record(_good())
    index = TemporalIndex(
        UNIT_SQUARE, TemporalConfig(slice_width=10.0), durable_root=root
    )
    index.insert(TemporalDocument(doc, ts))
    index.checkpoint()
    meta_path = os.path.join(root, "slice-0", "meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["docs"] = [record]
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    where = re.escape(f"{meta_path}: ")
    with pytest.raises(CorruptionError, match=f"{where}.*{re.escape(field)}"):
        TemporalIndex.open(root)
