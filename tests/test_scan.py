"""index_scan / export_matches / delete_by_query: the streaming
query-to-Dataset export surface and query-addressed deletes.

Exactness contract: for any filter-only query, index_scan's row set (in
ascending doc_id order) equals run_query's matched set — per-doc
independence makes the union over disjoint covering doc ranges exactly
the global matched set (noise_ray/query/scan.py docstring).
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from noise_ray.build import build_index, delete_by_query
from noise_ray.query import (IndexReader, export_matches, index_scan,
                             run_query)

ROWS = [
    ("a", 0, "user", "the quick brown fox"),
    ("a", 1, "assistant", "lazy dogs sleep all day"),
    ("b", 0, "user", "fox hunting season opens"),
    ("b", 1, "assistant", "quick quick fox"),
    ("c", 0, "user", "dogs and cats living together"),
    ("c", 1, "user", "a fox a dog a cat"),
]


@pytest.fixture(scope="module")
def scan_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("scanidx")
    p = os.path.join(d, "in.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array([r[0] for r in ROWS], pa.string()),
        "turn_idx": pa.array([r[1] for r in ROWS], pa.int32()),
        "role": pa.array([r[2] for r in ROWS], pa.string()),
        "text": pa.array([r[3] for r in ROWS], pa.string()),
        "tool": pa.array([None] * len(ROWS), pa.string()),
    }), p)
    idx = os.path.join(d, "idx")
    build_index([p], idx, num_buckets=4)
    return idx


def test_scan_matches_run_query(scan_index):
    q = 'find {text: ~="fox"} ;'
    expect = sorted(run_query(IndexReader(scan_index), q)
                    .column("doc_id").to_pylist())
    # docs_per_task=2 forces multiple ranges over the 6-doc index
    got = index_scan(scan_index, q,
                     columns=["doc_id", "conv_id", "turn_idx"],
                     docs_per_task=2).take_all()
    # ranges arrive in completion order; the matched SET is exact
    assert sorted(r["doc_id"] for r in got) == expect
    # stored fields came back from the doc store
    keys = {(r["conv_id"], r["turn_idx"]) for r in got}
    assert keys == {("a", 0), ("b", 0), ("b", 1), ("c", 1)}


def test_scan_score_column_matches_engine(scan_index):
    q = 'find {text: ~="fox"} ;'
    t = run_query(IndexReader(scan_index), q)
    engine = dict(zip(t.column("doc_id").to_pylist(),
                      t.column("score").to_pylist()))
    got = index_scan(scan_index, q, columns=["doc_id", "score"],
                     docs_per_task=2).take_all()
    for r in got:
        assert np.float32(r["score"]) == np.float32(engine[r["doc_id"]])


def test_scan_empty_match_keeps_schema(scan_index):
    ds = index_scan(scan_index, 'find {text: ~="zebra"} ;',
                    columns=["doc_id", "text"], docs_per_task=2)
    assert ds.take_all() == []
    assert [f.name for f in ds.schema().base_schema] == ["doc_id", "text"]


def test_scan_rejects_ordered_and_aggregate_queries(scan_index):
    with pytest.raises(ValueError):
        index_scan(scan_index,
                   'find {text: ~="fox"} order score() desc limit 2 ;')
    with pytest.raises(ValueError):
        index_scan(scan_index,
                   'find {text: ~="fox"} return {n: count()} ;')
    with pytest.raises(KeyError):
        index_scan(scan_index, 'find {text: ~="fox"} ;',
                   columns=["nope"])


def test_export_matches_round_trip(scan_index, tmp_path):
    out = str(tmp_path / "export")
    n = export_matches(scan_index, 'find {text: ~="dogs"} ;', out,
                       columns=["doc_id", "text"], docs_per_task=2)
    back = pq.read_table(out)
    assert n == back.num_rows == 3  # "dogs" stems to "dog" -> 3 matches
    assert all("dog" in s for s in back.column("text").to_pylist())


def test_delete_by_query_then_scan(ray_session, tmp_path):
    p = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array([r[0] for r in ROWS], pa.string()),
        "turn_idx": pa.array([r[1] for r in ROWS], pa.int32()),
        "role": pa.array([r[2] for r in ROWS], pa.string()),
        "text": pa.array([r[3] for r in ROWS], pa.string()),
        "tool": pa.array([None] * len(ROWS), pa.string()),
    }), p)
    idx = str(tmp_path / "idx")
    build_index([p], idx, num_buckets=4)

    n = delete_by_query(idx, 'find {text: ~="fox"} ;')
    assert n == 4
    # idempotent: a second identical delete removes nothing new
    assert delete_by_query(idx, 'find {text: ~="fox"} ;') == 0

    assert run_query(IndexReader(idx), 'find {text: ~="fox"} ;').num_rows == 0
    live = run_query(IndexReader(idx), 'find {text: ~="dogs"} ;')
    assert sorted(zip(live.column("conv_id").to_pylist(),
                      live.column("turn_idx").to_pylist())) == [
        ("a", 1), ("c", 0)]
    # the scan path sees the tombstones too
    got = index_scan(idx, 'find {text: ~="fox"} ;',
                     columns=["doc_id"], docs_per_task=2).take_all()
    assert got == []

    with pytest.raises(ValueError):
        delete_by_query(idx, 'find {text: ~="fox"} limit 1 ;')


def test_delete_json_by_query(ray_session, tmp_path):
    from noise_ray.build import delete_by_query
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    docs = [
        {"_id": "a", "msgs": [{"t": "quick brown fox"}], "n": 1},
        {"_id": "b", "msgs": [{"t": "lazy dog"}], "n": 2},
        {"_id": "c", "msgs": [{"t": "fox season"}], "n": 3},
        {"_id": "d", "msgs": [{"t": "dog and fox"}], "n": 4},
    ]
    p = docs_to_parquet(docs, os.path.join(tmp_path, "in.parquet"))
    idx = os.path.join(tmp_path, "idx")
    build_json_index([p], idx, num_buckets=8)

    n = delete_by_query(idx, 'find {msgs: [{t: ~="fox"}]} ;')
    assert n == 3
    assert delete_by_query(idx, 'find {msgs: [{t: ~="fox"}]} ;') == 0

    r = JsonIndexReader(idx)
    assert run_json_query(r, 'find {msgs: [{t: ~="fox"}]} return ._id ;') == []
    assert run_json_query(r, 'find {msgs: [{t: ~="dog"}]} return ._id ;') == ["b"]
    assert run_json_query(r, 'find {n: > 0} return ._id ;') == ["b"]

    with pytest.raises(ValueError):
        delete_by_query(idx, 'find {n: > 0} limit 1 ;')


def test_json_index_scan(ray_session, tmp_path):
    import json

    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader
    from noise_ray.query.scan import json_index_scan

    docs = [
        {"_id": "a", "msgs": [{"t": "quick brown fox"}], "n": 1},
        {"_id": "b", "msgs": [{"t": "lazy dog"}], "n": 2},
        {"_id": "c", "msgs": [{"t": "fox season"}], "n": 3},
        {"_id": "d", "msgs": [{"t": "dog and fox"}], "n": 4},
    ]
    p = docs_to_parquet(docs, os.path.join(tmp_path, "in.parquet"))
    idx = os.path.join(tmp_path, "idx")
    build_json_index([p], idx, num_buckets=8)

    q = 'find {msgs: [{t: ~="fox"}]} ;'
    expect = set(run_json_query(JsonIndexReader(idx),
                                'find {msgs: [{t: ~="fox"}]} return ._id ;'))
    got = json_index_scan(idx, q, docs_per_task=2).take_all()
    assert {r["_id"] for r in got} == expect == {"a", "c", "d"}
    for r in got:  # stored JSON round-trips to the source doc
        src = next(d for d in docs if d["_id"] == r["_id"])
        assert json.loads(r["doc"]) == src

    empty = json_index_scan(idx, 'find {msgs: [{t: ~="zebra"}]} ;',
                            docs_per_task=2)
    assert empty.take_all() == []
    assert [f.name for f in empty.schema().base_schema] == ["_id", "doc"]

    with pytest.raises(ValueError):
        json_index_scan(idx, 'find {n: > 0} limit 1 ;')
    with pytest.raises(ValueError):
        json_index_scan(idx, 'find !{n: > 0} ;')
