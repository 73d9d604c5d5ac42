"""Grid-bucketed bbox index (build/spatial.py + spatial sidecars): a
selective ``&&`` query must read only intersecting grid cells' row
groups and return results identical to the exact values-partition scan.
geojson.noise byte-identity stays locked by test_noise_transcripts.py."""

from __future__ import annotations

import os

import numpy as np
import pytest


def _geo_doc(k: int, lon: float, lat: float):
    return {"_id": f"g{k:05d}",
            "name": f"place {k}",
            "geometry": {"type": "Point", "coordinates": [lon, lat]}}


@pytest.fixture(scope="module")
def geo_index(ray_session, tmp_path_factory):
    """400 points in four distant clusters + a world-spanning polygon."""
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet

    root = str(tmp_path_factory.mktemp("spatial"))
    docs = []
    clusters = [(-120.0, 40.0), (10.0, 50.0), (140.0, -30.0), (70.0, 10.0)]
    k = 0
    for cx, cy in clusters:
        for i in range(100):
            docs.append(_geo_doc(k, cx + (i % 10) * 0.01,
                                 cy + (i // 10) * 0.01))
            k += 1
    docs.append({"_id": "world", "name": "everywhere",
                 "geometry": {"type": "Polygon", "coordinates": [
                     [[-179.0, -89.0], [179.0, -89.0], [179.0, 89.0],
                      [-179.0, 89.0], [-179.0, -89.0]]]}})
    shards = [docs_to_parquet(docs[:200], os.path.join(root, "in0.parquet")),
              docs_to_parquet(docs[200:], os.path.join(root, "in1.parquet"),
                              docid_base=200)]
    idx = os.path.join(root, "idx")
    build_json_index(shards, idx, num_buckets=4)
    return idx, docs


def test_sidecars_written(geo_index):
    idx, _ = geo_index
    spatial = os.path.join(idx, "spatial")
    assert os.path.isdir(spatial) and len(os.listdir(spatial)) == 2


def test_grid_prunes_candidates(geo_index):
    """A query box over one cluster must materialize only that cluster's
    cells (plus the one oversize world polygon), not all 401 boxes."""
    from noise_ray.query.json_reader import JsonIndexReader

    idx, _ = geo_index
    r = JsonIndexReader(idx)
    docs, aps, bb = r.bbox_rows(".geometry", (-121.0, -119.0, 39.0, 41.0))
    # candidates: the 100 cluster-0 points + the oversize polygon, within
    # a couple of cells — far fewer than the full 401-row scan
    assert 101 <= docs.size <= 120
    # and the exact set is recovered after the engine predicate
    full_docs, full_aps, full_codes, _n, _s, full_bb = \
        r.values_kp(".geometry")
    assert (full_codes == "r").sum() == 401


def test_bbox_query_equals_fallback_scan(geo_index):
    """Query results through the grid path == the pre-sidecar full scan
    (sidecars renamed away to force the fallback)."""
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    idx, _ = geo_index
    queries = [
        'find {geometry: && [-121, 39, -119, 41]} return ._id ;',
        'find {geometry: && [5, 45, 15, 55]} return ._id ;',
        'find {geometry: && [60, -50, 150, 20]} return ._id ;',
    ]
    got = [run_json_query(JsonIndexReader(idx), q) for q in queries]
    spatial = os.path.join(idx, "spatial")
    hidden = spatial + ".hidden"
    os.rename(spatial, hidden)
    try:
        want = [run_json_query(JsonIndexReader(idx), q) for q in queries]
    finally:
        os.rename(hidden, spatial)
    assert got == want
    assert all(len(g) >= 100 for g in got)  # cluster + world polygon


def test_mixed_sidecar_index_prunes_per_partition(geo_index):
    """One pre-sidecar partition (an old base under newer epochs) must
    fall back to an exact scan for THAT partition only — the others keep
    their cell-pruned reads, and results are unchanged."""
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    idx, _ = geo_index
    q = 'find {geometry: && [-121, 39, -119, 41]} return ._id ;'
    want = run_json_query(JsonIndexReader(idx), q)
    spatial = os.path.join(idx, "spatial")
    names = sorted(os.listdir(spatial))
    one = os.path.join(spatial, names[0])
    os.rename(one, one + ".hidden")
    try:
        r = JsonIndexReader(idx)
        assert run_json_query(r, q) == want
        # partition 1 still prunes: its sidecar read returns only the
        # queried cells' rows, so total candidates stay bounded (cluster
        # + polygon + partition-0's full 200-row exact scan at most)
        docs, _aps, _bb = r.bbox_rows(".geometry",
                                      (-121.0, -119.0, 39.0, 41.0))
        assert docs.size <= 220
    finally:
        os.rename(one + ".hidden", one)


def test_merged_epoch_keeps_sidecars(ray_session, tmp_path):
    """merge_epochs copies each epoch's spatial sidecar beside its values
    partition under the matching new name: bbox queries answer the same
    after the merge, and the merged epoch's reads stay cell-pruned."""
    from noise_ray.build import add_documents, merge_epochs
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    docs = [_geo_doc(k, -120.0 + (k % 10) * 0.01 + 130.0 * (k // 100),
                     40.0 + (k % 100 // 10) * 0.01) for k in range(300)]
    idx = str(tmp_path / "idx")
    build_json_index([docs_to_parquet(docs[:100],
                                      str(tmp_path / "in0.parquet"))],
                     idx, num_buckets=4)
    for e in (1, 2):
        add_documents(idx, [docs_to_parquet(
            docs[100 * e:100 * (e + 1)], str(tmp_path / f"in{e}.parquet"),
            docid_base=100 * e)])
    queries = [
        'find {geometry: && [-121, 39, -119, 41]} return ._id ;',
        'find {geometry: && [9, 39, 11, 41]} return ._id ;',
        'find {geometry: && [139, 39, 141, 41]} return ._id ;',
    ]
    want = [run_json_query(JsonIndexReader(idx), q) for q in queries]
    assert [len(w) for w in want] == [100, 100, 100]

    assert merge_epochs(idx) is not None
    merged = os.path.join(idx, "epochs", "epoch-0001-0002")
    assert sorted(os.listdir(os.path.join(merged, "spatial"))) == [
        "spatial-00000.parquet", "spatial-00001.parquet"]
    r = JsonIndexReader(idx)
    assert [run_json_query(r, q) for q in queries] == want
    docs_hit, _aps, _bb = r.bbox_rows(".geometry", (9.0, 11.0, 39.0, 41.0))
    assert docs_hit.size == 100  # only the queried epoch's cells


def test_random_query_boxes_match_full_scan(geo_index):
    """Property: for ANY query box, the grid path's post-predicate match
    set equals the exact full scan's — including boxes straddling cell
    edges, degenerate (point) boxes, and boxes clipping the world edge."""
    import random

    from noise_ray.query.json_reader import JsonIndexReader

    idx, _ = geo_index
    r = JsonIndexReader(idx)
    full_docs, full_aps, full_codes, _n, _s, full_bb = \
        r.values_kp(".geometry")
    rm = full_codes == "r"
    fd, fb = full_docs[rm], full_bb[rm]
    rng = random.Random(42)
    for _ in range(50):
        w = rng.uniform(-200, 180)
        e = w + rng.choice([0.0, 0.005, 0.5, 5.0, 40.0, 400.0])
        s = rng.uniform(-100, 90)
        n = s + rng.choice([0.0, 0.005, 0.5, 5.0, 30.0, 200.0])
        docs, aps, bb = r.bbox_rows(".geometry", (w, e, s, n))
        got = docs[(bb[:, 0] <= e) & (bb[:, 1] >= w)
                   & (bb[:, 2] <= n) & (bb[:, 3] >= s)]
        want = fd[(fb[:, 0] <= e) & (fb[:, 1] >= w)
                  & (fb[:, 2] <= n) & (fb[:, 3] >= s)]
        assert set(got.tolist()) == set(want.tolist()), (w, e, s, n)


def test_oversize_bucket_always_probed():
    from noise_ray.build.spatial import (
        MAX_CELLS, OVERSIZE, cells_for_boxes, cells_for_query,
    )

    rows, cells = cells_for_boxes(
        np.array([[-179.0, 179.0, -89.0, 89.0],     # oversize
                  [10.0, 10.1, 50.0, 50.1]]))       # one cell
    assert (cells[rows == 0] == OVERSIZE).all()
    assert (cells[rows == 1] != OVERSIZE).all() and (rows == 1).sum() <= 4
    assert OVERSIZE in cells_for_query(0.0, 1.0, 0.0, 1.0)
    # replication is bounded
    rows2, cells2 = cells_for_boxes(np.array([[0.0, 20.0, 0.0, 20.0]]))
    assert len(rows2) <= MAX_CELLS or (cells2 == OVERSIZE).all()
