"""Grid bucketing for the geospatial bbox index — the scale path next to
the values-partition scan.

The reference keeps an R-tree column family for GeoJSON bboxes
(/root/reference/src/index.rs:69-75, src/key_builder.rs:145-160).  The
columnar analogue here: every values partition with ``r`` rows gets a
SPATIAL SIDECAR parquet (``spatial/spatial-NNNNN.parquet``) holding those
rows replicated into each fixed-grid cell their box intersects, sorted by
(kp, cell, doc_id) with small row groups — so a selective ``&&`` query
reads only the row groups of intersecting cells (parquet predicate
pushdown on ``cell``) instead of every ``r`` row of the keypath.

Pruning-only by construction: every stored box intersecting the query box
lands in at least one queried cell (boxes spanning more than
``MAX_CELLS`` cells go to the always-queried OVERSIZE bucket), the exact
box-intersection predicate still runs on the candidates, and duplicates
from replication are collapsed to unique (doc, arraypath) instances — so
results are identical to the full scan (asserted in
tests/test_spatial_bucketing.py; geojson.noise stays byte-identical).
"""

from __future__ import annotations

import os

import numpy as np

# fixed world grid over GeoJSON lon/lat: 64 x 32 cells of 5.625 x 5.625
# degrees.  Must be identical at write and read time; bump the sidecar
# file naming if it ever changes.
GX, GY = 64, 32
OVERSIZE = -1      # bucket for boxes spanning > MAX_CELLS cells
MAX_CELLS = 8


def sidecar_path(values_path: str) -> str:
    """The spatial sidecar of a values partition: ``<index>/spatial/
    spatial-NNNNN.parquet`` beside ``<index>/values/values-NNNNN.parquet``
    (the build writes it, the bbox reader and ``merge_epochs`` find it by
    this name)."""
    return os.path.join(os.path.dirname(os.path.dirname(values_path)),
                        "spatial", os.path.basename(values_path).replace(
                            "values-", "spatial-"))


def _clip_idx(vals: np.ndarray, lo: float, span: float, n: int) -> np.ndarray:
    idx = np.floor((np.asarray(vals, dtype=np.float64) - lo) / span)
    return np.clip(idx, 0, n - 1).astype(np.int64)


def _cell_ranges(boxes: np.ndarray):
    """(gx0, gx1, gy0, gy1) inclusive cell index ranges per (w,e,s,n) box;
    out-of-range coordinates clip to the edge cells so every box maps."""
    w, e = boxes[:, 0], boxes[:, 1]
    s, n = boxes[:, 2], boxes[:, 3]
    gx0 = _clip_idx(w, -180.0, 360.0 / GX, GX)
    gx1 = _clip_idx(e, -180.0, 360.0 / GX, GX)
    gy0 = _clip_idx(s, -90.0, 180.0 / GY, GY)
    gy1 = _clip_idx(n, -90.0, 180.0 / GY, GY)
    return gx0, np.maximum(gx0, gx1), gy0, np.maximum(gy0, gy1)


def cells_for_boxes(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replication plan for stored boxes: ``(row_idx, cell)`` pairs — one
    per (box, intersected grid cell), or a single OVERSIZE pair for boxes
    spanning more than MAX_CELLS cells."""
    m = boxes.shape[0]
    if m == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    gx0, gx1, gy0, gy1 = _cell_ranges(boxes)
    counts = (gx1 - gx0 + 1) * (gy1 - gy0 + 1)
    rows: list[int] = []
    cells: list[int] = []
    for i in range(m):
        if counts[i] > MAX_CELLS:
            rows.append(i)
            cells.append(OVERSIZE)
            continue
        for gy in range(int(gy0[i]), int(gy1[i]) + 1):
            base = gy * GX
            for gx in range(int(gx0[i]), int(gx1[i]) + 1):
                rows.append(i)
                cells.append(base + gx)
    return (np.asarray(rows, dtype=np.int64),
            np.asarray(cells, dtype=np.int64))


def cells_for_query(west: float, east: float, south: float,
                    north: float) -> list[int]:
    """All grid cells a query box intersects, plus the OVERSIZE bucket."""
    box = np.array([[west, east, south, north]], dtype=np.float64)
    gx0, gx1, gy0, gy1 = _cell_ranges(box)
    out = [OVERSIZE]
    for gy in range(int(gy0[0]), int(gy1[0]) + 1):
        base = gy * GX
        out.extend(base + gx for gx in range(int(gx0[0]), int(gx1[0]) + 1))
    return out
