"""Incremental document adds: Lucene-style epoch indexes, for flat and
nested indexes alike.

The reference's ``Index::add`` + ``flush`` appends documents to a live
index under a monotonically increasing seq, and re-adding an existing
``_id`` is an upsert (delete old entries + reinsert,
/root/reference/src/index.rs:131-161, src/json_shred.rs:452-475).

Our batch-immutable analogue: each ``add_documents`` call builds a
self-contained DELTA index ("epoch") under ``<index>/epochs/epoch-NNNN/``
with the SAME pipeline as the base build (``build_index`` for a flat
index, ``build_json_index`` when the base manifest is ``nested``), doc_ids
continuing the parent's seq space (``doc_id_offset``); a flat delta of at
most ``pipeline.DOCS_PER_TASK`` docs builds in the driver with no Ray Data
job, into one term bucket (one segment and one stats file), and the
upsert semi-join always runs in the driver.  Each epoch records its own
bucket count, so base and epochs need not share one.  The root reader
(``IndexReader`` / ``JsonIndexReader``) merges postings / stats / docmaps
(and nested values) across epochs at query time; upserts tombstone the
older doc_id (Lucene hidden-doc deletes).  ``merge_epochs`` and
``delete_by_query`` read the engine from the same manifest flag.

An epoch is visible only once its ``manifest.json`` exists (the build
publishes it last, atomically), so a crashed add leaves an invisible
partial epoch that the next add with the same inputs resumes (same epoch
id = max existing + 1 only counts *published* epochs; unpublished
directories are re-entered by name).
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .json_pipeline import build_json_index
from .pipeline import MANIFEST_NAME, build_index

_EPOCH_RE = re.compile(r"^epoch-(\d{4})(?:-(\d{4}))?$")


def _epoch_span(name: str) -> tuple[int, int] | None:
    """(first, last) epoch numbers a directory covers — a plain
    ``epoch-0007`` covers (7, 7); a merged ``epoch-0001-0006`` covers
    (1, 6).  None for non-epoch names."""
    m = _EPOCH_RE.match(name)
    if not m:
        return None
    a = int(m.group(1))
    return a, (int(m.group(2)) if m.group(2) else a)


def _epoch_dirs(index_dir: str) -> list[str]:
    """Published epoch directories (manifest present), in epoch order
    (names sort by first covered number, so a merged epoch sorts before
    the epochs kept after it — reader postings concatenate in this order
    and doc ids must ascend).  Directories named in a published merged
    epoch's ``supersedes.json`` are hidden: the merge publish is atomic
    at the manifest write, deleting the sources afterwards is garbage
    collection, not correctness."""
    edir = os.path.join(index_dir, "epochs")
    if not os.path.isdir(edir):
        return []
    pub = [name for name in sorted(os.listdir(edir))
           if _EPOCH_RE.match(name) and os.path.exists(
               os.path.join(edir, name, MANIFEST_NAME))]
    superseded: set[str] = set()
    for name in pub:
        sp = os.path.join(edir, name, "supersedes.json")
        if os.path.exists(sp):
            with open(sp) as f:
                superseded.update(json.load(f))
    return [os.path.join(edir, name) for name in pub
            if name not in superseded]


# tombstoned doc ids of an index, a JSON list at its root (Lucene-style
# hidden deletes: every query drops them, stats stay until compaction)
TOMBSTONES_NAME = "tombstones.json"


def read_tombstones(index_dir: str) -> np.ndarray:
    """The index's tombstoned doc ids, sorted and unique (int64)."""
    path = os.path.join(index_dir, TOMBSTONES_NAME)
    if not os.path.exists(path):
        return np.zeros(0, dtype=np.int64)
    with open(path) as f:
        return np.unique(np.asarray(json.load(f), dtype=np.int64))


def add_tombstones(index_dir: str, doc_ids) -> np.ndarray:
    """Union ``doc_ids`` into the index's tombstone file and publish it
    atomically (temp file + rename); returns the new sorted set."""
    import uuid

    merged = np.union1d(read_tombstones(index_dir),
                        np.asarray(list(doc_ids), dtype=np.int64))
    path = os.path.join(index_dir, TOMBSTONES_NAME)
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(merged.tolist(), f)
    os.replace(tmp, path)
    return merged


def total_docs(index_dir: str) -> int:
    """Seq-space high-water mark across the base index and all epochs."""
    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        base = json.load(f)
    total = int(base.get("doc_id_offset", 0)) + int(base["num_docs"])
    for ed in _epoch_dirs(index_dir):
        with open(os.path.join(ed, MANIFEST_NAME)) as f:
            m = json.load(f)
        total = max(total, int(m.get("doc_id_offset", 0)) + int(m["num_docs"]))
    return total


def _reader_class(manifest: dict):
    """The reader of an index with this manifest: ``JsonIndexReader`` when
    it is ``nested``, else ``IndexReader``."""
    from ..query.json_reader import JsonIndexReader
    from ..query.reader import IndexReader

    return JsonIndexReader if manifest.get("nested") else IndexReader


def add_documents(index_dir: str, new_paths: list[str],
                  *, update: bool = True) -> dict:
    """Append documents from ``new_paths`` to an existing index.

    Builds one new epoch with the base's engine: flat rows for a flat
    index, ``(_id, json)`` shards for a nested one.  With ``update=True``
    (the reference's upsert semantics) any older doc sharing the new docs'
    key columns (``_id`` when nested) is tombstoned so the new row shadows
    it.  Returns the epoch manifest.
    """
    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        base = json.load(f)
    key_columns = list(base["key_columns"])
    offset = total_docs(index_dir)

    # number from the raw PUBLISHED listing (including superseded dirs
    # pending deletion) so a merged epoch's sources are never renumbered
    # over while they still exist on disk
    edir = os.path.join(index_dir, "epochs")
    published = [s for name in (sorted(os.listdir(edir))
                                if os.path.isdir(edir) else [])
                 if (s := _epoch_span(name)) is not None
                 and os.path.exists(os.path.join(edir, name, MANIFEST_NAME))]
    n = max((last for _, last in published), default=0) + 1
    epoch_dir = os.path.join(index_dir, "epochs", f"epoch-{n:04d}")
    # A crashed (unpublished) epoch dir is resumed ONLY for the same
    # inputs: the build's lineage checks (docmap row counts, committed
    # segments) can't tell two input sets with equal shapes apart, so a
    # fingerprint mismatch wipes the partial dir instead of splicing the
    # old inputs' committed files into the new epoch.
    fp = {"paths": sorted(os.path.abspath(p) for p in new_paths),
          "offset": offset}
    fp_path = os.path.join(epoch_dir, "inputs.json")
    if os.path.isdir(epoch_dir):
        old_fp = None
        if os.path.exists(fp_path):
            with open(fp_path) as f:
                old_fp = json.load(f)
        if old_fp != fp:
            import shutil

            shutil.rmtree(epoch_dir)
    os.makedirs(epoch_dir, exist_ok=True)
    with open(fp_path, "w") as f:
        json.dump(fp, f)

    # the epoch sizes its own bucket count (``pipeline.bucket_count``:
    # one bucket for a one-task delta) and records it in its manifest;
    # readers route a term with each epoch's own count.  Block geometry
    # is the base's, so base and epochs share one posting-block layout
    geometry = {"block_size": int(base.get("block_size", 4096)),
                "doc_id_offset": offset}
    if base.get("nested"):
        manifest = build_json_index(list(new_paths), epoch_dir, **geometry)
    else:
        manifest = build_index(list(new_paths), epoch_dir,
                               fields=tuple(base["fields"]),
                               key_columns=tuple(key_columns), **geometry)

    tombstoned: list[int] = []
    if update:
        tombstoned = _tombstone_shadowed(index_dir, new_paths, key_columns,
                                         offset, _reader_class(base))
    manifest["tombstoned"] = tombstoned
    return manifest


def read_bucket(sources, bucket: int, num_buckets: int,
                nested: bool) -> pa.Table | None:
    """The posting-block rows of output ``bucket`` (of ``num_buckets``)
    in ``sources``, (segment path, its bucket, its index's bucket count)
    triples; None when there are none.  A crc32 value v has v % n_s == s
    and v % n == b only if s and b agree modulo gcd(n_s, n), so files
    that cannot hold the bucket's terms are never read, files that map
    wholly onto it (n divides n_s) pass through, and the rest are
    filtered with ``pipeline.row_buckets``."""
    import math

    from .pipeline import row_buckets

    parts = []
    for path, src_bucket, src_buckets in sources:
        g = math.gcd(src_buckets, num_buckets)
        if src_bucket % g != bucket % g:
            continue
        t = pq.read_table(path)
        if g < num_buckets:
            t = t.filter(pa.array(row_buckets(t, num_buckets, nested)
                                  == bucket))
        if t.num_rows:
            parts.append(t)
    return pa.concat_tables(parts) if parts else None


def merge_epochs(index_dir: str, *, keep: int = 0) -> dict | None:
    """Tiered epoch merge (the Lucene TieredMergePolicy analogue): fold
    the OLDEST published epochs — all but the newest ``keep`` — into one
    equivalent epoch WITHOUT re-tokenizing anything.

    Epoch doc ids are append-ordered and never change, so a term's
    merged posting rows are exactly the source epochs' rows.  The merged
    epoch takes ``pipeline.bucket_count`` of its doc span; each source row
    goes to its output bucket by its term hash (``read_bucket``: sources
    may have been written under any count), and each bucket's rows go
    through the build's segment writer
    (``pipeline.write_segment_group``), which re-sorts them by (field,
    term, min_doc) with encoded payload bytes untouched and recomputes
    the bucket's stats (and its segment / stats metadata) from the block
    rows — no stats file is read.  Docmap partitions are copied, and on a
    nested index so are the values partitions with the spatial sidecar of
    each under the matching new name.
    Query results are bit-identical before/after (the reader sees the
    same postings, stats totals, ids and tombstones; only the number of
    per-term segment lookups shrinks from k epochs to one).

    The merged directory is named ``epoch-<first>-<last>`` so it SORTS
    BEFORE any kept epochs (reader postings concatenate in name order
    and doc ids must ascend).  Publication is atomic: everything is
    written into the final directory, ``supersedes.json`` (naming the
    source dirs) before the manifest, the manifest last via tmp+rename —
    ``_epoch_dirs`` hides the sources the instant the manifest exists,
    and deleting them afterwards is garbage collection.  A crash mid-
    merge leaves an invisible unpublished dir that the next call wipes.

    Scale shape: one Ray Data fan-out with a task per bucket (each task
    reads only the source segment files that can hold its terms and
    writes the merged pair); the calling process handles only manifests
    and the docmap file copies.  A one-bucket merge (a span of at most one
    ingest task) runs in the calling process, with no Ray Data job.
    Returns the merged manifest, or None when fewer than two epochs would
    merge."""
    import shutil
    import uuid

    import ray.data as rd

    from .pipeline import bucket_count, write_segment_group
    from .spatial import sidecar_path

    edir = os.path.join(index_dir, "epochs")
    # GC superseded dirs a crashed earlier merge left behind
    live = {os.path.basename(d) for d in _epoch_dirs(index_dir)}
    if os.path.isdir(edir):
        for name in os.listdir(edir):
            if (_EPOCH_RE.match(name) and name not in live
                    and os.path.exists(os.path.join(edir, name,
                                                    MANIFEST_NAME))):
                shutil.rmtree(os.path.join(edir, name))

    eds = _epoch_dirs(index_dir)
    if keep:
        eds = eds[:len(eds) - keep]
    if len(eds) < 2:
        return None
    manifests = []
    for ed in eds:
        with open(os.path.join(ed, MANIFEST_NAME)) as f:
            manifests.append(json.load(f))
    m0 = manifests[0]
    for m in manifests[1:]:
        for key in ("version", "nested", "analyzer", "fields",
                    "key_columns", "block_size"):
            if m.get(key) != m0.get(key):
                raise ValueError(f"epochs disagree on {key}: "
                                 f"{m.get(key)!r} != {m0.get(key)!r}")
    spans = [_epoch_span(os.path.basename(ed)) for ed in eds]
    first, last = spans[0][0], spans[-1][1]
    out_name = f"epoch-{first:04d}-{last:04d}"
    out_dir = os.path.join(edir, out_name)
    if os.path.isdir(out_dir):  # unpublished leftover of a crashed merge
        shutil.rmtree(out_dir)
    nested = bool(m0.get("nested"))
    for sub in ("segments", "stats", "docmap") + (
            ("values", "spatial") if nested else ()):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    offset = min(int(m.get("doc_id_offset", 0)) for m in manifests)
    high = max(int(m.get("doc_id_offset", 0)) + int(m["num_docs"])
               for m in manifests)
    # the merged epoch sizes its bucket count like a build of its span;
    # sources written under other counts are re-bucketed row by row
    num_buckets = bucket_count(high - offset, nested)
    sources = [(os.path.join(ed, s["path"]),
                int(s["gkey"]) // int(m["num_ranges"]),
                int(m["num_buckets"]))
               for ed, m in zip(eds, manifests) for s in m["segments"]]

    def merge_bucket(batch: pa.Table) -> pa.Table:
        outs = []
        for bucket in batch.column("bucket").to_pylist():
            rows = read_bucket(sources, bucket, num_buckets, nested)
            if rows is None:
                continue
            seg_rel = f"segments/seg-{bucket:08d}.parquet"
            stats_rel = f"stats/stats-{bucket:08d}.parquet"
            postings, _ = write_segment_group(
                rows, bucket, os.path.join(out_dir, seg_rel),
                os.path.join(out_dir, stats_rel))
            outs.append({"bucket": bucket, "seg": seg_rel,
                         "stats": stats_rel, "postings": postings})
        return pa.Table.from_pylist(outs) if outs else pa.table(
            {"bucket": pa.array([], pa.int64()),
             "seg": pa.array([], pa.string()),
             "stats": pa.array([], pa.string()),
             "postings": pa.array([], pa.int64())})

    buckets = [{"bucket": b} for b in range(num_buckets)]
    if num_buckets == 1:  # one group: no Ray Data job, like a one-task build
        acks = merge_bucket(pa.Table.from_pylist(buckets)).to_pylist()
    else:
        acks = sorted(
            rd.from_items(buckets, override_num_blocks=num_buckets)
            .map_batches(merge_bucket, batch_format="pyarrow")
            .take_all(), key=lambda a: a["bucket"])

    def copy(src: str, dst: str) -> None:
        shutil.copyfile(src, dst + ".tmp")
        os.replace(dst + ".tmp", dst)

    # docmap (and values, each with its spatial sidecar when it has one):
    # copy partitions in epoch order (ids ascend across epochs)
    docmap_entries, values_entries = [], []
    for ed, m in zip(eds, manifests):
        for dm in m["docmap"]:
            rel = f"docmap/docmap-{len(docmap_entries):05d}.parquet"
            copy(os.path.join(ed, dm["path"]), os.path.join(out_dir, rel))
            docmap_entries.append({"path": rel, "rows": dm["rows"],
                                   "min_doc": dm["min_doc"],
                                   "max_doc": dm["max_doc"]})
        for v in m.get("values", []):
            src = os.path.join(ed, v["path"])
            rel = f"values/values-{len(values_entries):05d}.parquet"
            copy(src, os.path.join(out_dir, rel))
            if os.path.exists(sidecar_path(src)):
                copy(sidecar_path(src),
                     sidecar_path(os.path.join(out_dir, rel)))
            values_entries.append({"path": rel, "min_doc": v["min_doc"],
                                   "max_doc": v["max_doc"]})

    field_k: dict[str, int] = {}
    for m in manifests:
        for fid, kv in m["field_k"].items():
            field_k[fid] = field_k.get(fid, 0) + int(kv)
    manifest = {
        "version": m0["version"],
        "analyzer": m0["analyzer"],
        "fields": m0["fields"],
        "key_columns": m0["key_columns"],
        "num_docs": high - offset,
        "doc_id_offset": offset,
        "num_buckets": num_buckets,
        "num_ranges": 1,
        "range_span": high - offset,
        "block_size": m0.get("block_size", 4096),
        "field_k": field_k,
        "docmap": docmap_entries,
        "segments": [{"gkey": a["bucket"], "path": a["seg"],
                      "postings": a["postings"]} for a in acks],
        "stats": [{"gkey": a["bucket"], "bucket": a["bucket"],
                   "path": a["stats"]} for a in acks],
        "metrics": {"merged_epochs": [os.path.basename(d) for d in eds]},
    }
    if nested:
        manifest["nested"] = True
        manifest["values"] = values_entries
    with open(os.path.join(out_dir, "supersedes.json"), "w") as f:
        json.dump([os.path.basename(d) for d in eds], f)
    tmp = os.path.join(out_dir, f".manifest-{uuid.uuid4().hex}.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))  # publish
    for ed in eds:  # GC — correctness no longer depends on it
        shutil.rmtree(ed)
    return manifest


def _tombstone_shadowed(index_dir: str, new_paths: list[str],
                        key_columns: list[str], offset: int,
                        reader_cls) -> list[int]:
    """Tombstone older docs whose key columns collide with the new batch
    (upsert semantics): a hash semi-join over the docmap partitions' key
    columns only (``shadowed_doc_ids``)."""
    new_keys = pa.concat_tables(
        [pq.read_table(p, columns=key_columns) for p in new_paths]
    )
    # root-level reader state: tombstones live at the index root
    reader = reader_cls(index_dir)
    dead = shadowed_doc_ids(reader._docmap, new_keys, key_columns, offset)
    if dead:
        reader.add_tombstones(dead)
    return dead


def shadowed_doc_ids(docmap_parts, new_keys: pa.Table,
                     key_columns: list[str], offset: int) -> list[int]:
    """Doc ids of pre-``offset`` docs whose key columns collide with
    ``new_keys``, sorted.

    The driver reads each older docmap partition's key columns and joins
    them with the delta-sized key table, one partition at a time.  A Ray
    Data task per partition was 5-6x slower than this on one CPU, for a
    1000-key delta over 2.2e5 to 2.2e6 older rows (88 vs 557 ms, 799 vs
    4737 ms), so there is no distributed route."""
    if new_keys.num_rows == 0:
        return []
    # dedupe: indexes keyed ON doc_id would otherwise request the column
    # twice and break the acero join's field lookup
    columns = list(dict.fromkeys(["doc_id", *key_columns]))
    return sorted(
        d for dm in docmap_parts if dm["min_doc"] < offset
        for d in pq.read_table(dm["path"], columns=columns)
        .join(new_keys, keys=key_columns, join_type="inner")
        .column("doc_id").to_pylist())


def delete_by_query(index_dir: str, query: str,
                    params: dict | None = None) -> int:
    """Tombstone every doc matching a filter-only ``query`` — the natural
    extension of the reference's id-list delete (src/index.rs
    ``Index::delete``; the reference has no query-addressed delete, its
    REPL deletes one _id at a time).  Takes either engine's index (the
    manifest's ``nested`` flag picks the parser and the evaluator).
    Returns the number of NEWLY deleted docs.

    The matched set is evaluated on the route every query takes
    (``distributed.query_ranges``: in-process, or the range fan-out of
    ``distributed.evaluate_ranges`` on a large index) and folded into the
    tombstone sidecar, which every cached reader picks up via its
    mtime-keyed cache.  The sidecar holds an id list, so a MASS delete (a
    large corpus fraction) should be followed by ``compact_index()``:
    compaction rewrites segments without the tombstoned docs and clears
    the sidecar, restoring O(live) state.
    """
    from ..query import ast as qast
    from ..query.distributed import evaluate_ranges, query_ranges
    from ..query.noise_parser import parse_noise_query, parse_query, ret_leaves

    with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
        manifest = json.load(f)
    q = (parse_noise_query if manifest.get("nested") else parse_query)(
        query, params)
    if q.order or q.limit is not None:
        raise ValueError("delete_by_query takes a filter-only query "
                         "(no order/limit)")
    if any(isinstance(l, qast.RetAgg) for l in ret_leaves(q.returns)):
        raise ValueError("delete_by_query takes a filter-only query "
                         "(no aggregate return clause)")

    reader = _reader_class(manifest)(index_dir)
    docs = evaluate_ranges(reader, q.filter, query_ranges(reader), None)[0]
    before = reader.tombstones.size
    if docs.size:
        reader.add_tombstones(docs.tolist())
    return int(reader.tombstones.size - before)
