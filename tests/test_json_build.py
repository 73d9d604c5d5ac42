"""Nested-index build invariants: determinism and crash-resume.

Mirrors the flat build's guarantees (tests/test_build_invariants.py):
interrupting a build after partial output and re-running produces an
index that answers queries identically to an uninterrupted build —
the committed-group resume of build/json_pipeline.py plus idempotent
docmap/values writes.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

DOCS = [
    {"_id": "a", "msgs": [{"who": "u", "t": "quick brown fox"},
                          {"who": "b", "t": "lazy dog sleeps"}],
     "n": 3, "flag": True},
    {"_id": "b", "msgs": [{"who": "u", "t": "fox hunting season"}],
     "n": 7.5, "tags": []},
    {"_id": "c", "deep": [[{"x": "nested quick values"}], [{"x": "fox"}]],
     "n": -2, "note": None},
    {"_id": "d", "msgs": [{"who": "u", "t": "the quick quick fox"}],
     "meta": {}},
]

QUERIES = [
    'find {msgs: [{t: ~="fox", who: =="u"}]} return ._id ;',
    'find {n: > 0} return [._id, .n] ;',
    'find {deep: [[{x: ~="quick"}]]} return ._id ;',
    'find {msgs: [{t: ~="quick fox"}]} order score() desc '
    "return [._id, score()] ;",
]


def _build(tmpdir, docs, **kw):
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet

    os.makedirs(tmpdir, exist_ok=True)
    split = max(1, len(docs) // 2)
    p1 = docs_to_parquet(docs[:split], os.path.join(tmpdir, "in0.parquet"))
    p2 = docs_to_parquet(docs[split:], os.path.join(tmpdir, "in1.parquet"),
                         docid_base=split)
    idx = os.path.join(tmpdir, "idx")
    build_json_index([p1, p2], idx, num_buckets=8, **kw)
    return idx


def _run_all(idx):
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    r = JsonIndexReader(idx)
    return [run_json_query(r, q) for q in QUERIES]


def test_build_deterministic(tmp_path):
    a = _run_all(_build(str(tmp_path / "one"), DOCS))
    b = _run_all(_build(str(tmp_path / "two"), DOCS))
    assert a == b
    assert a[0] == ["a", "b", "d"]
    assert a[2] == ["c"]


# build_json_index arguments per route: the default driver run (a corpus
# of one ingest task's worth), or a Ray Data job (tasks one doc smaller)
ROUTES = {"driver": {}, "ray": {"docs_per_ingest_task": len(DOCS) - 1}}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_resume_after_partial_output(ray_session, tmp_path, route):
    from noise_ray.build.json_pipeline import build_json_index

    base = str(tmp_path / "crash")
    idx = _build(base, DOCS, **ROUTES[route])
    expected = _run_all(idx)

    # simulate a crash: manifest gone, some segments/stats/values/docmap
    # partially written
    os.remove(os.path.join(idx, "manifest.json"))
    segs = sorted(os.listdir(os.path.join(idx, "segments")))
    for f in segs[::2]:
        os.remove(os.path.join(idx, "segments", f))
    stats = sorted(os.listdir(os.path.join(idx, "stats")))
    if stats:
        os.remove(os.path.join(idx, "stats", stats[0]))
    os.remove(os.path.join(idx, "values", "values-00000.parquet"))
    os.remove(os.path.join(idx, "docmap", "docmap-00001.parquet"))

    p1 = os.path.join(base, "in0.parquet")
    p2 = os.path.join(base, "in1.parquet")
    m = build_json_index([p1, p2], idx, num_buckets=8, **ROUTES[route])
    assert m["metrics"]["local"] is (route == "driver")
    assert _run_all(idx) == expected


def test_local_and_ray_builds_identical(ray_session, tmp_path):
    a = _run_all(_build(str(tmp_path / "loc"), DOCS, **ROUTES["driver"]))
    b = _run_all(_build(str(tmp_path / "ray"), DOCS, **ROUTES["ray"]))
    assert a == b


def test_values_zone_maps_present(tmp_path):
    import pyarrow.parquet as pq

    idx = _build(str(tmp_path / "z"), DOCS)
    md = pq.read_metadata(
        os.path.join(idx, "values", "values-00000.parquet")).metadata
    zones = json.loads(md[b"noise_kp_zones"])
    assert ".n" in zones and zones[".n"]["fmin"] <= 3 <= zones[".n"]["fmax"]
