"""Geospatial queries over the grid-bucketed spatial sidecar.

The nested build already materializes the reference's rtree analogue
(`build/spatial.py`: ``r`` rows replicated per intersected grid cell,
``cell IN`` parquet pushdown — SURVEY §2.2 `add_rtree_entries`,
/root/reference/src/json_shred.rs:55-61 + src/filters.rs:503-586).
This module puts that surface under the ORACLE GATE with a
deterministic geo corpus and adds the natural extension every search
engine pairs with bbox: radius (geo-distance) search.

- ``geo_corpus``: closed-form GeoJSON points per documents-table row
  (lon/lat are pure functions of doc_id), packed and indexed by the
  nested build — so a SQL oracle recomputes membership without reading
  the index.
- ``geo_bbox``: the reference's ``&&`` bbox query END TO END (noise
  parser → BboxFilter → grid-pruned sidecar read → exact predicate).
- ``geo_distance``: points within ``radius`` (euclidean degrees — the
  deterministic, SQL-replicable metric; haversine would oracle too but
  adds nothing to the execution shape) of a center.  Candidates come
  from the sidecar pruned to the circle's bounding box — the same cell
  pushdown bbox uses — then one vectorized exact verify; ordered
  (distance asc, _id asc), distance rounded 6dp.

At 100 TB the shape holds: the sidecar is cell-partitioned parquet, a
query touches only intersected cells' row groups, and the exact verify
is per-candidate vectorized numpy.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa


def _lonlat(doc_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form point per doc: two coprime multipliers spread points
    over the full lon/lat range at 0.01° resolution."""
    d = doc_ids.astype(np.int64)
    lon = -180.0 + (d * 7919 % 36000) / 100.0
    lat = -90.0 + (d * 104729 % 18000) / 100.0
    return lon, lat


def geo_corpus(sf_dir: str) -> str:
    """Build (cached) the nested geo index: one GeoJSON point feature
    per documents-table row, ``{_id, geometry: {type: Point,
    coordinates: [lon, lat]}}`` — the bbox state machine in the nested
    shredder emits the ``r`` row + spatial sidecar."""
    import json

    from ..build.json_pipeline import build_json_index, docs_to_parquet

    import glob

    import ray.data

    import hashlib

    # key by abspath hash (not basename): two corpora a/sf0.01 and
    # b/sf0.01 must not silently share an index (cf. nested_docs)
    tag = hashlib.md5(
        os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    root = f"/tmp/noise_ray_cache/geo-{tag}-v1"
    idx = os.path.join(root, "idx")
    if os.path.exists(os.path.join(idx, "manifest.json")):
        return idx
    os.makedirs(root, exist_ok=True)
    shard_dir = os.path.join(root, "shards")
    os.makedirs(shard_dir, exist_ok=True)

    # shard construction streams: one task per input batch renders its
    # GeoJSON docs and writes a build-ready shard — only ack paths reach
    # the driver (shard names carry the batch's first doc_id, so file
    # order == doc order at any batch split)
    def write_shard(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string())})
        ids = batch.column("doc_id").to_numpy()
        lon, lat = _lonlat(ids)
        docs = [json.dumps({"_id": f"p{int(d)}",
                            "geometry": {"type": "Point",
                                         "coordinates": [float(x),
                                                         float(y)]}})
                for d, x, y in zip(ids, lon, lat)]
        p = os.path.join(shard_dir, f"docs-{int(ids[0]):012d}.parquet")
        docs_to_parquet(docs, p)
        return pa.table({"path": pa.array([p])})

    (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
     .map_batches(write_shard, batch_format="pyarrow", batch_size=8192)
     .take_all())  # ack rows only
    paths = sorted(glob.glob(os.path.join(shard_dir, "*.parquet")))
    build_json_index(paths, idx)
    return idx


def geo_bbox(sf_dir: str, west: float = -60.0, east: float = 40.0,
             south: float = -25.0, north: float = 35.0) -> pa.Table:
    """The reference's bbox intersection query (``&&``) end to end
    through parser + BboxFilter + grid sidecar; returns matched _ids
    ordered ascending."""
    from ..query.json_executor import run_json_query
    from ..query.json_reader import JsonIndexReader

    idx = geo_corpus(sf_dir)
    reader = JsonIndexReader(idx)
    q = (f"find {{geometry: && [{west}, {south}, {east}, {north}]}} "
         "order ._id asc return ._id ;")
    rows = run_json_query(reader, q)
    return pa.table({"_id": pa.array([r for r in rows], pa.string())})


def geo_distance_range(idx: str, lon0: float, lat0: float,
                       radius: float, k: int, lo: int, hi: int):
    """One doc range's top-``k`` partial for geo_distance: grid-pruned
    sidecar read bounded to ``[lo, hi)``, exact verify, local
    (dist asc, _id asc) top-k — at most ``k`` rows leave the range.
    Runs on a range worker (cached reader) under the pool dispatch."""
    from ..query.distributed import _cached_reader
    from ..query.json_reader import JsonIndexReader

    reader = _cached_reader(idx, JsonIndexReader)
    docs, _aps, bboxes = reader.bbox_rows(
        ".geometry", (lon0 - radius, lon0 + radius,
                      lat0 - radius, lat0 + radius), (lo, hi))
    if not docs.size:
        return [], np.zeros(0, np.float64)
    lon = bboxes[:, 0]  # degenerate point boxes: west == east
    lat = bboxes[:, 2]
    d2 = (lon - lon0) ** 2 + (lat - lat0) ** 2
    keep = d2 <= radius * radius
    docs, d2 = docs[keep], d2[keep]
    dist = np.round(np.sqrt(d2), 6)
    ids = np.asarray(reader.doc_id_strs(docs), dtype=object)
    top = np.lexsort((ids, dist))[:k]
    return ids[top].tolist(), dist[top]


def geo_centroid_range(idx: str, west: float, east: float, south: float,
                       north: float, lo: int, hi: int):
    """One doc range's (n, Σklon, Σklat) integer partial for
    geo_centroid — three scalars leave the range regardless of how many
    candidates the bbox pruned to."""
    from ..query.distributed import _cached_reader
    from ..query.json_reader import JsonIndexReader

    reader = _cached_reader(idx, JsonIndexReader)
    _docs, _aps, bboxes = reader.bbox_rows(
        ".geometry", (west, east, south, north), (lo, hi))
    lon = bboxes[:, 0]
    lat = bboxes[:, 2]
    keep = (lon >= west) & (lon <= east) & (lat >= south) & (lat <= north)
    lon, lat = lon[keep], lat[keep]
    klon = np.rint((lon + 180.0) * 100.0).astype(np.int64)
    klat = np.rint((lat + 90.0) * 100.0).astype(np.int64)
    return int(lon.size), int(klon.sum()), int(klat.sum())


def geo_distance(sf_dir: str, lon0: float = 10.0, lat0: float = 5.0,
                 radius: float = 40.0, k: int = 50) -> pa.Table:
    """Top-``k`` points within ``radius`` degrees (euclidean) of
    (lon0, lat0), folded per doc range: each range reads only its
    grid-pruned sidecar slice and returns a local top-k, the driver
    merges ≤ k·ranges bounded partials — no corpus-scale candidate
    array ever materializes in one process (a continent-sized box at
    100 TB stays sharded).  Fan-out through the range-actor pool above
    ``dist_min_docs`` documents, in-process per-range folds below."""
    from ..query.distributed import (dist_min_docs, doc_ranges,
                                     pool_batched, worker_pool)
    from ..query.json_reader import JsonIndexReader

    idx = geo_corpus(sf_dir)
    num_docs = JsonIndexReader(idx).num_docs
    ranges = doc_ranges(num_docs)
    if num_docs >= dist_min_docs():
        parts = pool_batched(worker_pool(), [
            ("ops_call", ("geo", "geo_distance_range",
                          (idx, lon0, lat0, radius, k, lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [geo_distance_range(idx, lon0, lat0, radius, k, lo, hi)
                 for lo, hi in ranges]
    ids = np.asarray([i for p in parts for i in p[0]], dtype=object)
    dist = (np.concatenate([p[1] for p in parts])
            if parts else np.zeros(0, np.float64))
    if not ids.size:
        return pa.table({"_id": pa.array([], pa.string()),
                         "dist": pa.array([], pa.float64())})
    top = np.lexsort((ids, dist))[:k]
    return pa.table({"_id": pa.array(ids[top].tolist(), pa.string()),
                     "dist": pa.array(dist[top], pa.float64())})


def geo_grid_agg(sf_dir: str, res: float = 10.0,
                 top_n: int = 30) -> pa.Table:
    """Grid-bucket counts (cf. Elasticsearch ``geotile_grid`` /
    ``geohash_grid``, on an equirectangular lon/lat grid — the
    deterministic SQL-replicable tiling): point counts per ``res``°
    cell over the whole corpus, top ``top_n`` buckets by (count desc,
    tile_x asc, tile_y asc).  A corpus-wide aggregation, so it runs as
    a streaming Ray Data fold over the spatial sidecar partitions —
    per-batch vectorized floor-divide partials, one cell-cardinality
    groupby sum — and only the (bounded) cell table reaches the driver.
    Point geometries occupy exactly one sidecar grid cell, so raw rows
    count 1:1 (box geometries would need a per-doc distinct first)."""
    import glob

    import ray.data
    from ray.data.aggregate import Sum

    idx = geo_corpus(sf_dir)
    files = sorted(glob.glob(os.path.join(idx, "spatial", "*.parquet")))

    def partial(batch: pa.Table) -> pa.Table:
        kp = batch.column("kp")
        if kp.type != pa.string():
            kp = kp.cast(pa.string())
        batch = batch.filter(pa.compute.equal(kp, ".geometry"))
        bb = np.array(batch.column("bbox").to_pylist(), np.float64) \
            if batch.num_rows else np.zeros((0, 4))
        tx = np.floor((bb[:, 0] + 180.0) / res).astype(np.int64)
        ty = np.floor((bb[:, 2] + 90.0) / res).astype(np.int64)
        key = tx * 100000 + ty
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "tile_x": pa.array(uniq // 100000, pa.int64()),
            "tile_y": pa.array(uniq % 100000, pa.int64()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    t = (ray.data.read_parquet(files, columns=["kp", "bbox"])
         .map_batches(partial, batch_format="pyarrow")
         .groupby(["tile_x", "tile_y"])
         .aggregate(Sum("n", alias_name="n"))
         .to_pandas())
    tx = t["tile_x"].to_numpy()
    ty = t["tile_y"].to_numpy()
    n = t["n"].to_numpy().astype(np.int64)
    order = np.lexsort((ty, tx, -n))[:top_n]
    return pa.table({
        "tile_x": pa.array(tx[order], pa.int64()),
        "tile_y": pa.array(ty[order], pa.int64()),
        "n": pa.array(n[order], pa.int64()),
    })


def geo_centroid(sf_dir: str, west: float = -60.0, east: float = 40.0,
                 south: float = -25.0, north: float = 35.0) -> pa.Table:
    """Centroid of the points inside a bbox (cf. ES ``geo_centroid``
    sub-aggregation): integer-exact via the 0.01°-grid coordinates —
    lon/lat recover their integer grid index with one rint, sums fold
    as int64 per doc range (three scalars per range reach the driver),
    and the mean divides once at the end (both sides of the oracle
    compute the identical f64 division).  Same per-range pool dispatch
    as geo_distance above ``dist_min_docs``."""
    from ..query.distributed import (dist_min_docs, doc_ranges,
                                     pool_batched, worker_pool)
    from ..query.json_reader import JsonIndexReader

    idx = geo_corpus(sf_dir)
    num_docs = JsonIndexReader(idx).num_docs
    ranges = doc_ranges(num_docs)
    if num_docs >= dist_min_docs():
        parts = pool_batched(worker_pool(), [
            ("ops_call", ("geo", "geo_centroid_range",
                          (idx, west, east, south, north, lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [geo_centroid_range(idx, west, east, south, north, lo, hi)
                 for lo, hi in ranges]
    n = sum(p[0] for p in parts)
    if not n:
        return pa.table({"n": pa.array([0], pa.int64()),
                         "lon": pa.array([None], pa.float64()),
                         "lat": pa.array([None], pa.float64())})
    klon = sum(p[1] for p in parts)
    klat = sum(p[2] for p in parts)
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "lon": pa.array([round(float(klon) / (100.0 * n) - 180.0,
                               6)], pa.float64()),
        "lat": pa.array([round(float(klat) / (100.0 * n) - 90.0,
                               6)], pa.float64()),
    })
