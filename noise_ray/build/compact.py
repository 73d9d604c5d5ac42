"""Compaction: fold epochs + tombstones back into a fresh base index.

The reference GCs dead entries during RocksDB compaction (zero-count keys
dropped by the compaction filter, /root/reference/src/index.rs:271-282);
Lucene merges segments and drops hidden deletes.  Our analogue rewrites the
index so that ``compact_index(dir)`` produces exactly what
``build_index(live rows)`` would: tombstoned and upsert-shadowed docs
disappear from postings AND stats (idf inputs shrink — merge semantics),
epochs fold into the base, and tombstones reset to empty.

Invariant (tested): because doc_ids are dense in global key order and the
staged partition files keep non-overlapping key ranges, the compacted index
is byte-equivalent in query results — doc_ids and f32 scores — to a fresh
``build_index`` over the merged live source rows.

Scale shape: one streaming fan-out over the BASE docmap partitions (each
task filters its partition and splices in the epoch rows routed to its key
range), with the epoch live-set broadcast once via ``ray.put`` — epochs are
assumed small relative to the base (the normal compaction regime; a
base-sized epoch set should be rebuilt from source instead).  No driver-side
iteration over base data; the only wide operation is the rebuild's own
posting shuffle.

A nested index (manifest ``nested``) compacts by live set instead: the
highest live doc per ``_id`` (a distributed groupby over the docmap key
columns), whose stored JSON rebuilds a fresh base in live seq order —
doc_ids reassigned dense, what a fresh ``build_json_index`` over the live
documents would produce.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from .json_pipeline import build_json_index
from .pipeline import MANIFEST_NAME, _one_row_blocks, build_index


def _restore_source_schema(t: pa.Table) -> pa.Table:
    """Drop the internal doc_id and restore a source-held doc_id column."""
    t = t.drop_columns(["doc_id"])
    if "src_doc_id" in t.column_names:
        t = t.rename_columns(
            ["doc_id" if c == "src_doc_id" else c for c in t.column_names])
    return t


def _first_key(path: str, key_columns: list[str]) -> tuple:
    """The partition's lexicographic minimum key = its FIRST row (docmap
    partitions are written key-sorted).  Per-column footer minima would be
    wrong for composite keys: min(col1) over all rows is not the first
    row's col1, and routing on it can create overlapping staged ranges
    (forcing the rebuild into a needless global re-sort)."""
    pf = pq.ParquetFile(path)
    first = pf.read_row_group(0, columns=list(key_columns)).slice(0, 1)
    return tuple(first.column(c)[0].as_py() for c in key_columns)


def _stage_partition(batch: pa.Table, *, staging_dir: str, tombstones: tuple,
                     key_columns: tuple, epoch_ref) -> pa.Table:
    """Write one staging file per base docmap partition in ``batch``:
    live base rows + the epoch rows routed to this partition's key range.
    Idempotent (tmp+rename); build_index re-sorts rows within each file."""
    tomb = np.asarray(tombstones, dtype=np.int64)
    epoch_tbl = ray.get(epoch_ref) if epoch_ref is not None else None
    acks = {"part": [], "path": [], "rows": []}
    for row in batch.to_pylist():
        part, dm_path = int(row["part"]), row["path"]
        out_path = os.path.join(staging_dir, f"part-{part:05d}.parquet")
        idx = json.loads(row["epoch_idx"])
        t = pq.read_table(dm_path)
        if tomb.size:
            live = ~np.isin(t.column("doc_id").to_numpy(), tomb)
            if not live.all():
                t = t.filter(pa.array(live))
        t = _restore_source_schema(t)
        if idx:
            extra = _restore_source_schema(epoch_tbl.take(idx))
            t = pa.concat_tables([t, extra.select(t.column_names)],
                                 promote_options="permissive")
        if t.num_rows == 0:
            continue  # fully-dead partition: no staging file
        tmp = f"{out_path}.tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(t, tmp, row_group_size=65536)
        os.replace(tmp, out_path)
        acks["part"].append(part)
        acks["path"].append(out_path)
        acks["rows"].append(t.num_rows)
    return pa.table(acks)


def compact_index(index_dir: str) -> dict:
    """Rewrite ``index_dir`` as a single fresh base index (no epochs, no
    tombstones) over its current live document set.  Returns the new
    manifest.  doc_ids are reassigned (dense in key order; live seq order
    for a nested index), exactly as a fresh build over the live rows would
    assign them."""
    from ..query.reader import IndexReader

    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        if json.load(f).get("nested"):
            return _compact_nested(index_dir)
    reader = IndexReader(index_dir)
    if not reader._epochs and not reader.tombstones.size:
        return reader.manifest  # nothing to fold: no-op

    key_columns = list(reader.manifest["key_columns"])
    tombs = set(int(d) for d in reader.tombstones.tolist())

    # ---- epoch live rows: loaded once, broadcast once (epochs << base)
    epoch_parts = []
    for e in reader._epochs:
        for dm in e.manifest["docmap"]:
            t = pq.read_table(dm["path"])
            if tombs:
                live = ~np.isin(t.column("doc_id").to_numpy(),
                                np.fromiter(tombs, dtype=np.int64))
                if not live.all():
                    t = t.filter(pa.array(live))
            if t.num_rows:
                epoch_parts.append(t)
    epoch_tbl = (pa.concat_tables(epoch_parts, promote_options="permissive")
                 if epoch_parts else None)

    # ---- route epoch rows to base partitions by first-row key boundaries
    base_dms = reader.manifest["docmap"]
    routed: list[list[int]] = [[] for _ in base_dms]
    extra_rows: list[int] = []  # epoch rows with no base partition to join
    if epoch_tbl is not None:
        key_cols = [epoch_tbl.column(c).to_pylist() for c in key_columns]
        if base_dms:
            mins = [_first_key(dm["path"], key_columns) for dm in base_dms]
            for i, key in enumerate(zip(*key_cols)):
                j = bisect.bisect_right(mins, key) - 1
                routed[max(j, 0)].append(i)
        else:
            # base fully deleted earlier: every live row comes from epochs
            extra_rows = list(range(epoch_tbl.num_rows))

    # ---- staging fan-out (one file per base partition, epoch broadcast)
    work_root = index_dir.rstrip("/") + ".compacting"
    if os.path.exists(work_root):
        shutil.rmtree(work_root)
    staging_dir = os.path.join(work_root, "staging")
    new_index = os.path.join(work_root, "index")
    os.makedirs(staging_dir)

    epoch_ref = ray.put(epoch_tbl) if epoch_tbl is not None else None
    items = [{"part": i, "path": dm["path"],
              "epoch_idx": json.dumps(routed[i])}
             for i, dm in enumerate(base_dms)]
    acks: list = []
    if extra_rows:
        # no base partition exists: stage the epoch live rows directly
        t = _restore_source_schema(epoch_tbl)
        out_path = os.path.join(staging_dir, "part-epochs.parquet")
        pq.write_table(t, out_path, row_group_size=65536)
        acks.append({"part": -1, "path": out_path, "rows": t.num_rows})
    if items:
        cpus = int(ray.cluster_resources().get("CPU", 32))
        with _one_row_blocks():
            acks.extend(
                ray.data.from_items(
                    items,
                    override_num_blocks=max(1, min(len(items), 3 * cpus)))
                .map_batches(
                    _stage_partition, batch_format="pyarrow",
                    fn_kwargs={"staging_dir": staging_dir,
                               "tombstones": tuple(sorted(tombs)),
                               "key_columns": tuple(key_columns),
                               "epoch_ref": epoch_ref})
                .take_all()
            )

    base_manifest = reader.manifest
    del reader  # release docmap caches before the swap

    # an empty staged list (every doc deleted) builds the 0-doc index
    build_index(sorted(a["path"] for a in acks), new_index,
                fields=tuple(base_manifest["fields"]),
                key_columns=tuple(key_columns),
                num_buckets=int(base_manifest["num_buckets"]),
                block_size=int(base_manifest.get("block_size", 4096)))

    # ---- swap (two renames; if interrupted between them the old index
    # survives intact at <dir>.pre-compact — documented recovery point)
    old = index_dir.rstrip("/") + f".pre-compact-{uuid.uuid4().hex[:8]}"
    os.replace(index_dir, old)
    os.replace(new_index, index_dir)
    shutil.rmtree(old)
    shutil.rmtree(work_root, ignore_errors=True)

    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        return json.load(f)


def _nested_live_doc_ids(reader) -> np.ndarray:
    """Live set for nested compaction — the highest non-tombstoned doc per
    ``_id`` — computed as a distributed groupby over the docmap
    partitions.  Nothing corpus-sized crosses the driver except the final
    int64 doc_id array (which compaction broadcasts to the rewrite tasks
    anyway)."""
    from ray.data.aggregate import Max

    paths = [dm["path"] for dm in reader._docmap]
    if not paths:
        return np.zeros(0, dtype=np.int64)
    dead = np.sort(np.asarray(reader.tombstones, dtype=np.int64))
    dead_ref = ray.put(dead)

    def load(batch: pa.Table) -> pa.Table:
        from ..nputil import sorted_member_mask

        dd = ray.get(dead_ref)
        outs = []
        for p in batch.column("path").to_pylist():
            t = pq.read_table(p, columns=["doc_id", "_id"])
            docs = t.column("doc_id").to_numpy().astype(np.int64)
            if dd.size:
                t = t.filter(pa.array(~sorted_member_mask(dd, docs)))
            outs.append(t)
        return pa.concat_tables(outs)

    # blocks capped: this feeds a groupby, whose shuffle overhead grows
    # with map-blocks x reduce-partitions (the 22M compaction spent
    # ~10 min in this aggregate when blocks tracked the 2048 docmap
    # partitions; each load batch loops its paths, so fewer blocks just
    # means more files per task)
    agg = (ray.data.from_items([{"path": p} for p in paths],
                         override_num_blocks=max(1, min(len(paths), 256)))
           .map_batches(load, batch_format="pyarrow")
           .groupby("_id")
           .aggregate(Max("doc_id", alias_name="doc_id"))
           .select_columns(["doc_id"]))
    # materialize first: to_arrow_refs on a lazy ds re-executes for schema
    tables = [t for t in ray.get(agg.materialize().to_arrow_refs())
              if t.num_rows]
    if not tables:
        return np.zeros(0, dtype=np.int64)
    t = pa.concat_tables(tables)
    return np.sort(t.column("doc_id").to_numpy().astype(np.int64))


def _compact_nested(index_dir: str) -> dict:
    """Nested compaction: rebuild from the live documents in seq order
    (doc_ids reassigned dense), then atomically swap directories —
    identical results to a fresh build over the live rows.

    Same distributed shape as the flat compaction: a metadata-light pass
    over (doc_id, _id) columns derives the live set (highest live doc
    per _id), which is broadcast once via ``ray.put``; per-docmap-
    partition Ray tasks then rewrite only their live payload rows into
    build-ready shards — the json column never crosses the driver."""
    from ..query.json_reader import JsonIndexReader

    reader = JsonIndexReader(index_dir)
    live = _nested_live_doc_ids(reader)

    tmp = index_dir + ".compact-tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shard_dir = os.path.join(tmp, "live-src")
    os.makedirs(shard_dir)
    live_ref = ray.put(live)

    def one_part(row: dict) -> dict:
        from ..nputil import sorted_member_mask

        lv = ray.get(live_ref)
        t = pq.read_table(row["path"],
                          columns=["doc_id", "_id", "json"])
        docs = t.column("doc_id").to_numpy().astype(np.int64)
        mask = sorted_member_mask(lv, docs)
        if not mask.any():
            return {"path": ""}
        sub = t.filter(pa.array(mask))
        out = os.path.join(shard_dir,
                           f"live-{int(docs[mask][0]):012d}.parquet")
        pq.write_table(pa.table({"_id": sub.column("_id"),
                                 "json": sub.column("json")}),
                       out + ".tmp")
        os.replace(out + ".tmp", out)
        return {"path": out}

    acks = ray.data.from_items(
        [{"path": dm["path"]} for dm in reader._docmap]
    ).map(one_part).take_all()
    paths = sorted(a["path"] for a in acks if a["path"])
    base = reader.manifest
    manifest = build_json_index(
        paths, tmp,
        num_buckets=int(base["num_buckets"]),
        block_size=int(base.get("block_size", 4096)))
    old = index_dir + ".compact-old"
    shutil.rmtree(old, ignore_errors=True)
    os.replace(index_dir, old)
    os.replace(tmp, index_dir)
    shutil.rmtree(old, ignore_errors=True)
    return manifest
