"""Incremental adds for NESTED indexes: the epoch design of
incremental.py applied to the JSON build.

Each ``add_json_documents`` call builds a self-contained nested delta
index under ``<index>/epochs/epoch-NNNN/`` with the same streaming
pipeline (build_json_index), doc_ids continuing the parent's seq space;
re-adding an existing ``_id`` tombstones the older doc — the reference's
``Index::add`` upsert on a live index (src/index.rs:131-161) with
Lucene hidden-doc deletes instead of in-place key rewrites.  The root
JsonIndexReader merges postings / values / docmaps across epochs.

``compact_json_index`` folds epochs + tombstones back into a fresh base
(dense doc_ids in live seq order) — what a fresh build over the live
documents would produce.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq

from .incremental import _EPOCH_RE, _epoch_dirs
from .json_pipeline import build_json_index
from .pipeline import MANIFEST_NAME


def add_json_documents(index_dir: str, new_paths: list[str],
                       *, update: bool = True) -> dict:
    """Append ``(_id, json)`` parquet shards to a live nested index as a
    new epoch; with ``update=True`` older docs sharing the new ``_id``s
    are tombstoned.  Returns the epoch manifest."""
    from ..query.json_reader import JsonIndexReader

    reader = JsonIndexReader(index_dir)  # refuses a flat index
    base, offset = reader.manifest, reader.num_docs

    existing = _epoch_dirs(index_dir)
    n = (int(_EPOCH_RE.match(os.path.basename(existing[-1])).group(1)) + 1
         if existing else 1)
    epoch_dir = os.path.join(index_dir, "epochs", f"epoch-{n:04d}")
    fp = {"paths": sorted(os.path.abspath(p) for p in new_paths),
          "offset": offset}
    fp_path = os.path.join(epoch_dir, "inputs.json")
    if os.path.isdir(epoch_dir):
        old_fp = None
        if os.path.exists(fp_path):
            with open(fp_path) as f:
                old_fp = json.load(f)
        if old_fp != fp:
            shutil.rmtree(epoch_dir)
    os.makedirs(epoch_dir, exist_ok=True)
    with open(fp_path, "w") as f:
        json.dump(fp, f)

    manifest = build_json_index(
        list(new_paths), epoch_dir,
        num_buckets=int(base["num_buckets"]),
        block_size=int(base.get("block_size", 4096)),
        doc_id_offset=offset,
    )

    tombstoned: list[int] = []
    if update:
        import pyarrow as pa

        from .incremental import shadowed_doc_ids

        new_ids = pa.concat_tables(
            [pq.read_table(p, columns=["_id"]) for p in new_paths])
        tombstoned = shadowed_doc_ids(reader._docmap, new_ids, ["_id"],
                                      offset)
        if tombstoned:
            reader.add_tombstones(tombstoned)
    manifest["tombstoned"] = sorted(tombstoned)
    return manifest


def _live_doc_ids(reader) -> np.ndarray:
    """Live set for compaction — the highest non-tombstoned doc per
    ``_id`` — computed as a distributed groupby over the docmap
    partitions.  Nothing corpus-sized crosses the driver except the final
    int64 doc_id array (which compaction broadcasts to the rewrite tasks
    anyway); the old implementation built a per-row Python dict of every
    doc on the driver."""
    import pyarrow as pa
    import ray
    import ray.data as rd
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
    agg = (rd.from_items([{"path": p} for p in paths],
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


def compact_json_index(index_dir: str) -> dict:
    """Fold epochs + tombstones into a fresh base: rebuild from the live
    documents in seq order (doc_ids reassigned dense), then atomically
    swap directories — identical results to a fresh build over the live
    rows.

    Same distributed shape as the flat compaction: a metadata-light pass
    over (doc_id, _id) columns derives the live set (highest live doc
    per _id), which is broadcast once via ``ray.put``; per-docmap-
    partition Ray tasks then rewrite only their live payload rows into
    build-ready shards — the json column never crosses the driver."""
    import ray

    from ..query.json_reader import JsonIndexReader

    reader = JsonIndexReader(index_dir)
    live = _live_doc_ids(reader)

    tmp = index_dir + ".compact-tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shard_dir = os.path.join(tmp, "live-src")
    os.makedirs(shard_dir)
    live_ref = ray.put(live)
    dm_paths = [dict(dm) for dm in reader._docmap]

    import ray.data as rd

    def one_part(row: dict) -> dict:
        import pyarrow as pa

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

    acks = rd.from_items([{"path": dm["path"]} for dm in dm_paths]) \
        .map(one_part).take_all()
    paths = sorted(a["path"] for a in acks if a["path"])
    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        base = json.load(f)
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


def delete_json_by_query(index_dir: str, query: str,
                         params: dict | None = None) -> int:
    """Tombstone every nested doc matching a filter-only ``query`` — the
    nested twin of ``incremental.delete_by_query`` (the reference's
    ``Index::delete`` takes one _id at a time, src/index.rs).  Returns the
    number of NEWLY deleted docs; follow a mass delete with
    ``compact_json_index`` to shrink segments and stats to the live set.

    Above the distributed threshold the matched set is evaluated with the
    same actor-pool range fan-out as run_json_query (per-doc independence
    makes the union over disjoint ranges exact)."""
    from ..query import ast as qast
    from ..query.json_reader import JsonIndexReader
    from ..query.noise_parser import parse_noise_query, ret_leaves

    q = parse_noise_query(query, params)
    if q.order or q.limit is not None:
        raise ValueError("delete_json_by_query takes a filter-only query "
                         "(no order/limit)")
    if any(isinstance(l, qast.RetAgg) for l in ret_leaves(q.returns)):
        raise ValueError("delete_json_by_query takes a filter-only query "
                         "(no aggregate return clause)")

    reader = JsonIndexReader(index_dir)
    if reader.num_docs >= 2_000_000:
        from ..query.json_engine import _check_double_not, _is_all_not
        from ..query.json_executor import _evaluate_distributed

        _check_double_not(q.filter, False)
        if _is_all_not(q.filter):
            raise ValueError(
                "query cannot be made up of only logical not. Must have "
                "at least one match clause not negated.")
        docs, _, _ = _evaluate_distributed(reader, q.filter)
    else:
        from ..query.json_engine import CompiledJsonQuery

        docs = CompiledJsonQuery(reader, q.filter).evaluate().docs
    before = reader.tombstones.size
    if docs.size:
        reader.add_tombstones(docs.tolist())
    return int(reader.tombstones.size - before)
