"""Posting-level index merge: N sealed indexes → one, WITHOUT re-tokenizing
(flat and nested engines both).

The Lucene segment-merge analogue (and the "merge" of the north rule's
"posting-list construction, merge, compression, top-k scoring"): given N
independently built indexes over disjoint corpora, produce a single index
whose query results are bit-identical to a fresh ``build_index`` over the
concatenated source rows — while never touching raw text:

- **segments**: posting blocks are self-contained (doc deltas restart
  absolute at each block, query/reader.py:380-383), so shifting a source
  into the merged doc-id space patches ONLY the first varint of each
  block's ``docs`` buffer (+ the block's min_doc/max_doc columns).  tfs,
  lens, positions, and the WAND block bounds (max_tf_norm, max_tf,
  min_len) are doc-id-free and copy through byte-identical.  No shuffle,
  no re-encode of the delta tails.
- **gkeys**: the merged index keeps per-source range files side by side —
  ``num_ranges = Σ nrᵢ``; source *i*'s (bucket, rng) file becomes merged
  gkey ``bucket·NR + (Σ_{j<i} nr_j + rng)``.  The reader walks rngs in
  order and sources occupy ascending doc spans, so concatenated blocks
  stay globally doc-sorted — the invariant every posting consumer relies
  on.  The merged index takes the sources' largest ``num_buckets``.  A
  source at that count copies through as above; any other source is
  re-bucketed: each (bucket, source range) group reads the source files
  that can hold the bucket's terms, keeps the rows whose term hashes to
  it (``incremental.read_bucket``), shifts them and hands them to the
  build's segment writer, which also writes the group's stats.
- **stats**: sidecar rows carry no doc ids; a copied-through source's
  files copy through and the reader's sum-across-files semantics merges
  dfs exactly.  ``field_k``
  (per-field token totals) sums per field, so merged idf/avgdl equal the
  unified build's — which is why merged BM25 scores are f64-bit-equal.
- **docmap**: partitions are rewritten, under the build's
  ``pipeline.DOCMAP_WRITE`` policy, with the shifted ``doc_id``
  column (the one column readers consult raw: ``lookup_doc``,
  incremental's collision scan); stored payload columns pass through
  unchanged.  This is the only data-sized copy — sequential I/O, one
  task per partition, no shuffle (Lucene merges copy stored fields too).
- **tombstones**: shifted per source and unioned.
- **values** (nested sources): rewritten with the shifted ``doc_id``
  column like the docmap, the per-kp zone maps riding along in the
  preserved parquet KV metadata (nested posting blocks use the identical
  docs-delta layout; arraypaths are plain varints with no doc dependency,
  so they copy through).  Spatial sidecars are NOT carried (the merged
  values file names no longer match a sidecar): bbox queries on
  geometry-bearing merged partitions take the reader's per-partition
  fallback scan until a compaction rebuilds the sidecars.

All file work runs as Ray tasks over a work-item Dataset (one item per
output file, written tmp+rename and skipped when already present —
re-running a crashed merge resumes), and the manifest commits atomically
last, the same checkpoint discipline as build_index.  Sources must be
epoch-free (compact first; epochs are a *mutation* log, merge is for
sealed indexes).

The inverse, ``split_index``: one task per (bucket, split) decodes the
bucket's blocks masked to the split's doc range (nested blocks also mask
their arraypath stream), rebases and re-encodes them — cut points land
inside blocks — and hands the rows, in the source segment schema, to the
build's one segment writer (``pipeline.write_segment_group``), which
recomputes the term stats and writes the engine's row-group size.  Docmap
and values partitions filter + rebase; resumes read the committed
group's ``read_group_meta``.

Both take either engine's indexes and read the engine from the source
manifests' ``nested`` flag; merge sources of mixed engines raise.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codec import (decode_position_lists, decode_varint, encode_deltas,
                    encode_position_lists, encode_varint)
from .incremental import (_epoch_dirs, add_tombstones, read_bucket,
                          read_tombstones)
from .pipeline import (DOCMAP_WRITE, MANIFEST_NAME, SEGMENT_WRITE,
                       VALUES_WRITE, _atomic_write_table, read_group_meta,
                       segment_row_group, write_segment_group)


def _shift_first_varint(buf, offset: int) -> bytes:
    """Add ``offset`` to the FIRST value of a varint-delta buffer (the
    block's absolute first doc id); the delta tail passes through."""
    b = bytes(buf)
    i = 0
    while b[i] & 0x80:
        i += 1
    first = int(decode_varint(b[: i + 1], 1)[0])
    head = encode_varint(np.array([first + offset], dtype=np.uint64))
    return head + b[i + 1:]


def _shift_blocks(t: pa.Table, offset: int) -> pa.Table:
    """Posting-block rows moved ``offset`` doc ids up: each block's first
    ``docs`` varint and its min_doc/max_doc."""
    if not offset:
        return t
    docs = [_shift_first_varint(v, offset)
            for v in t.column("docs").to_pylist()]
    return (t.set_column(t.schema.get_field_index("docs"), "docs",
                         pa.array(docs, pa.binary()))
            .set_column(t.schema.get_field_index("min_doc"), "min_doc",
                        pa.compute.add(t.column("min_doc"), offset))
            .set_column(t.schema.get_field_index("max_doc"), "max_doc",
                        pa.compute.add(t.column("max_doc"), offset)))


def _patch_segment(src: str, dst: str, offset: int) -> None:
    """A copied-through segment file moved ``offset`` doc ids up, written
    like the build writes segments (schema metadata kept)."""
    t = _shift_blocks(pq.read_table(src), offset)
    _atomic_write_table(t, dst, segment_row_group(t), SEGMENT_WRITE)


def _patch_docmap(src: str, dst: str, offset: int, policy: dict) -> None:
    """A docmap or values partition (``policy``) with its ``doc_id``
    moved ``offset`` up."""
    t = pq.read_table(src)
    if offset:
        i = t.schema.get_field_index("doc_id")
        t = t.set_column(i, "doc_id",
                         pa.compute.add(t.column("doc_id"), offset))
    _atomic_write_table(t, dst, policy=policy)


def _copy_file(src: str, dst: str) -> None:
    try:  # hardlink when possible: stats files are immutable
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst + ".tmp")
        os.replace(dst + ".tmp", dst)


def _rebucket_group(row: dict, num_buckets: int,
                    nested: bool) -> list[dict]:
    """One re-bucketed merge group: the rows of output bucket
    ``row["bucket"]`` in one source range's segment files
    (``incremental.read_bucket``), moved into the merged doc-id space and
    written by the build's segment writer.  Returns its ack, or nothing
    when the group is empty; a committed group is read back (resume)."""
    seg = row["dst"]
    stats = os.path.join(os.path.dirname(os.path.dirname(seg)), "stats",
                         os.path.basename(seg).replace("seg-", "stats-"))
    if os.path.exists(seg) and os.path.exists(stats):
        postings = read_group_meta(stats)[0]
    else:
        rows = read_bucket(json.loads(row["src"]), row["bucket"],
                           num_buckets, nested)
        if rows is None:
            return []
        postings = write_segment_group(
            _shift_blocks(rows, row["off"]), row["gkey"], seg, stats)[0]
    return [{"gkey": row["gkey"], "bucket": row["bucket"], "seg": seg,
             "stats": stats, "postings": postings}]


def merge_indexes(src_dirs: list[str], out_dir: str) -> dict:
    """Merge sealed indexes of one engine into ``out_dir`` (module
    docstring).  Returns the merged manifest."""
    import ray.data

    mans = []
    for d in src_dirs:
        with open(os.path.join(d, MANIFEST_NAME)) as f:
            mans.append(json.load(f))
        if _epoch_dirs(d):
            raise ValueError(f"{d} has live epochs — compact before merge")
    base = mans[0]
    nested = bool(base.get("nested"))
    for key in ("version", "nested", "analyzer", "fields", "key_columns",
                "block_size"):
        vals = {json.dumps(m.get(key)) for m in mans}
        if len(vals) != 1:
            raise ValueError(f"sources disagree on {key}: {vals}")
    # the merged index takes the sources' largest bucket count: sources
    # at it copy through, the others are re-bucketed into it
    nb = max(int(m["num_buckets"]) for m in mans)

    # doc-id space layout: source i shifts by the size of all earlier
    # sources' id spaces (offset + num_docs = the span queries can see)
    sizes = [int(m.get("doc_id_offset", 0)) + int(m["num_docs"])
             for m in mans]
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    nrs = [int(m["num_ranges"]) for m in mans]
    nr_merged = sum(nrs)
    rng_base = [0]
    for r in nrs[:-1]:
        rng_base.append(rng_base[-1] + r)

    parts_list = ("docmap", "segments", "stats", "values") if nested \
        else ("docmap", "segments", "stats")
    for part in parts_list:
        os.makedirs(os.path.join(out_dir, part), exist_ok=True)

    items, man_docmap, man_segments, man_stats = [], [], [], []
    man_values: list = []

    def item(kind: str, src: str, rel: str, off: int = 0, gkey: int = -1,
             bucket: int = -1) -> None:
        # one key set for every work item: Ray Data rows share a schema
        items.append({"kind": kind, "src": src, "off": off, "gkey": gkey,
                      "bucket": bucket, "dst": os.path.join(out_dir, rel)})

    for i, (d, m) in enumerate(zip(src_dirs, mans)):
        off = offsets[i]
        for e in m["docmap"]:
            rel = f"docmap/m{i:02d}-{os.path.basename(e['path'])}"
            item("docmap", os.path.join(d, e["path"]), rel, off)
            man_docmap.append({"path": rel, "rows": e["rows"],
                               "min_doc": e["min_doc"] + off,
                               "max_doc": e["max_doc"] + off})
        for e in m.get("values", []):
            rel = f"values/m{i:02d}-{os.path.basename(e['path'])}"
            item("values", os.path.join(d, e["path"]), rel, off)
            man_values.append({"path": rel,
                               "min_doc": e["min_doc"] + off,
                               "max_doc": e["max_doc"] + off})
        nr_i = nrs[i]
        if int(m["num_buckets"]) != nb:
            # one re-bucketed group per (output bucket, source range)
            for b in range(nb):
                for rng in range(nr_i):
                    gkey = b * nr_merged + rng_base[i] + rng
                    item("rebucket", json.dumps([
                        (os.path.join(d, e["path"]), int(e["gkey"]) // nr_i,
                         int(m["num_buckets"]))
                        for e in m["segments"]
                        if int(e["gkey"]) % nr_i == rng]),
                         f"segments/m{i:02d}-seg-{gkey:08d}.parquet", off,
                         gkey, b)
            continue
        for e in m["segments"]:
            bucket, rng = divmod(int(e["gkey"]), nr_i)
            rel = f"segments/m{i:02d}-{os.path.basename(e['path'])}"
            item("segment", os.path.join(d, e["path"]), rel, off)
            man_segments.append(
                {"gkey": bucket * nr_merged + rng_base[i] + rng,
                 "path": rel, "postings": e.get("postings", 0)})
        for e in m["stats"]:
            rel = f"stats/m{i:02d}-{os.path.basename(e['path'])}"
            item("stats", os.path.join(d, e["path"]), rel)
            man_stats.append({"bucket": e["bucket"], "path": rel})

    def work(row: dict) -> list[dict]:
        if row["kind"] == "rebucket":
            return _rebucket_group(row, nb, nested)
        if not os.path.exists(row["dst"]):  # resume: skip finished files
            if row["kind"] == "segment":
                _patch_segment(row["src"], row["dst"], row["off"])
            elif row["kind"] in ("docmap", "values"):
                _patch_docmap(row["src"], row["dst"], row["off"],
                              VALUES_WRITE if row["kind"] == "values"
                              else DOCMAP_WRITE)
            else:
                _copy_file(row["src"], row["dst"])
        return []

    for a in sorted((ray.data.from_items(items,
                                         override_num_blocks=max(1, len(items)))
                     .flat_map(work).take_all()), key=lambda a: a["gkey"]):
        man_segments.append({"gkey": a["gkey"],
                             "path": os.path.relpath(a["seg"], out_dir),
                             "postings": a["postings"]})
        man_stats.append({"bucket": a["bucket"],
                          "path": os.path.relpath(a["stats"], out_dir)})

    # merged field_k: per-field token totals sum (exact avgdl inputs)
    field_k: dict[str, int] = {}
    for m in mans:
        for k, v in m["field_k"].items():
            field_k[k] = field_k.get(k, 0) + int(v)

    tombs = [read_tombstones(d) + offsets[i]
             for i, d in enumerate(src_dirs)]
    if any(t.size for t in tombs):
        add_tombstones(out_dir, np.concatenate(tombs))

    man = dict(base)
    man.update({
        "num_docs": int(sum(sizes)),
        "doc_id_offset": 0,
        "num_buckets": nb,
        "num_ranges": nr_merged,
        "range_span": max(int(m.get("range_span", 0)) for m in mans),
        "field_k": field_k,
        "docmap": man_docmap,
        "segments": man_segments,
        "stats": man_stats,
        "metrics": {"merged_from": [os.path.abspath(d) for d in src_dirs],
                    "source_sizes": sizes},
    })
    if nested:
        man["values"] = man_values
    tmp = os.path.join(out_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))
    return man


# ---------------------------------------------------------------- split


def _split_bucket(src_dir: str, man: dict, bucket: int, lo: int, hi: int,
                  out_seg: str, out_stats: str) -> tuple[int, dict]:
    """One (bucket, split) task: decode the bucket's posting blocks
    masked to [lo, hi), rebase doc ids to 0, re-encode, recompute the
    block metadata from the kept entries and hand the rows, in the source
    schema, to the build's segment writer (which recomputes the term
    stats).  Nested blocks also mask their arraypath stream (cnt × depth
    plain varints, no doc dependency).  Returns (postings, field_k);
    empty splits write no files."""
    nested = bool(man.get("nested"))
    nr = int(man["num_ranges"])
    seg_by_gkey = {s["gkey"]: s["path"] for s in man["segments"]}
    filters = [("max_doc", ">=", lo), ("min_doc", "<", hi)]
    parts = [pq.read_table(os.path.join(src_dir, seg_by_gkey[g]),
                           filters=filters)
             for g in range(bucket * nr, (bucket + 1) * nr)
             if g in seg_by_gkey]
    if not parts:
        return 0, {}
    t = pa.concat_tables(parts)
    cols: dict[str, list] = {c: [] for c in (
        "min_doc", "max_doc", "cnt", "c_block", "max_tf_norm", "max_tf",
        "min_len", "docs", "aps", "tfs", "lens", "positions")}
    kept = []
    for i, r in enumerate(t.select(
            ["cnt", "docs", "tfs", "lens", "positions"]
            + (["depth", "aps"] if nested else [])).to_pylist()):
        cnt = r["cnt"]
        docs = np.cumsum(decode_varint(r["docs"], cnt).astype(np.int64))
        keep = (docs >= lo) & (docs < hi)
        if not keep.any():
            continue
        kept.append(i)
        tfs = decode_varint(r["tfs"], cnt).astype(np.int64)
        lens = decode_varint(r["lens"], cnt).astype(np.int64)
        pos = decode_position_lists(r["positions"], tfs)[np.repeat(keep, tfs)]
        docs, tfs, lens = docs[keep] - lo, tfs[keep], lens[keep]
        tf_norm = (np.sqrt(tfs.astype(np.float32))
                   / np.sqrt(lens.astype(np.float32)))
        for c, v in (("min_doc", docs[0]), ("max_doc", docs[-1]),
                     ("cnt", docs.size), ("c_block", tfs.sum()),
                     ("max_tf_norm", tf_norm.max()), ("max_tf", tfs.max()),
                     ("min_len", lens.min()), ("docs", encode_deltas(docs)),
                     ("tfs", encode_varint(tfs)),
                     ("lens", encode_varint(lens)),
                     ("positions", encode_position_lists(pos, tfs))):
            cols[c].append(v)
        if nested:
            aps = decode_varint(r["aps"], cnt * r["depth"]).astype(np.int64)
            cols["aps"].append(
                encode_varint(aps.reshape(cnt, r["depth"])[keep].ravel()))
    if not kept:
        return 0, {}
    t = t.take(pa.array(kept))
    for c, v in cols.items():
        if c in t.column_names:
            f = t.schema.field(c)
            t = t.set_column(t.schema.get_field_index(c), f,
                             pa.array(v, f.type))
    return write_segment_group(t, bucket, out_seg, out_stats)


def _split_part(src: str, dst: str, lo: int, hi: int, values: bool) -> None:
    """Filter one docmap or values partition to [lo, hi) and rebase
    doc_id; a values partition also recomputes its per-kp zone maps from
    the kept rows (same format the build writes: n / sorted codes / fmin
    / fmax when numeric).  Empty slices write no file."""
    t = pq.read_table(src, filters=[("doc_id", ">=", lo),
                                    ("doc_id", "<", hi)])
    if not t.num_rows:
        return
    i = t.schema.get_field_index("doc_id")
    t = t.set_column(i, "doc_id",
                     pa.compute.subtract(t.column("doc_id"), lo))
    if not values:
        _atomic_write_table(t, dst, policy=DOCMAP_WRITE)
        return
    kps = t.column("kp").to_pylist()
    codes = t.column("code").to_pylist()
    nums = t.column("num").to_pylist()
    zones: dict = {}
    for kp, code, num in zip(kps, codes, nums):
        z = zones.get(kp)
        if z is None:
            z = zones[kp] = {"n": 0, "codes": set()}
        z["n"] += 1
        z["codes"].add(code)
        if num is not None:
            z["fmin"] = min(z.get("fmin", num), num)
            z["fmax"] = max(z.get("fmax", num), num)
    zmeta = {kp: {**{key: v for key, v in z.items() if key != "codes"},
                  "codes": sorted(z["codes"])}
             for kp, z in zones.items()}
    t = t.replace_schema_metadata(
        {"noise_kp_zones": json.dumps(zmeta, sort_keys=True)})
    _atomic_write_table(t, dst, policy=VALUES_WRITE)


def split_index(src_dir: str, out_dirs: list[str],
                cuts: list[int] | None = None) -> list[dict]:
    """The merge's inverse: physically repartition a sealed index (either
    engine) into ``len(out_dirs)`` doc-range splits, each a standalone
    index rebased to doc ids 0..nⱼ — WITHOUT re-tokenizing.  Posting blocks
    decode→mask→re-encode (the only op that must re-encode: cut points
    land inside blocks), block WAND metadata (max_tf_norm/max_tf/
    min_len, corpus-independent) and the term stats (c = Σ tf,
    k = Σ postings, field_k) recompute EXACTLY from the kept entries,
    and docmap partitions rewrite filtered + rebased.  A nested index's
    values partitions filter + rebase too and recompute their per-kp zone
    maps (spatial sidecars are NOT carried — the bbox reader's
    per-partition fallback scan covers sidecar-less partitions).  merge +
    split = shard rebalancing for sealed indexes at any layout.  One Ray
    task per (bucket, split) and per docmap slice; resumable (skip-if-
    present, manifests commit last).  Returns the split manifests."""
    import ray.data

    if _epoch_dirs(src_dir):
        raise ValueError("compact before split")
    with open(os.path.join(src_dir, MANIFEST_NAME)) as f:
        man = json.load(f)
    nested = bool(man.get("nested"))
    n_docs = int(man.get("doc_id_offset", 0)) + int(man["num_docs"])
    n = len(out_dirs)
    if cuts is None:
        cuts = [round(j * n_docs / n) for j in range(n + 1)]
    if len(cuts) != n + 1 or cuts[0] != 0 or cuts[-1] != n_docs:
        raise ValueError("cuts must be [0, ..., num_docs]")

    doc_parts = ("docmap", "values") if nested else ("docmap",)
    for d in out_dirs:
        for part in ("segments", "stats", *doc_parts):
            os.makedirs(os.path.join(d, part), exist_ok=True)

    nb = int(man["num_buckets"])
    items = [{"kind": "bucket", "bucket": b, "j": j, "src": "", "name": ""}
             for b in range(nb) for j in range(n)]
    for j in range(n):
        lo, hi = cuts[j], cuts[j + 1]
        for part in doc_parts:
            for e in man[part]:
                if e["max_doc"] < lo or e["min_doc"] >= hi:
                    continue
                items.append({"kind": part, "bucket": -1, "j": j,
                              "src": e["path"],
                              "name": os.path.basename(e["path"])})
    src_abs = os.path.abspath(src_dir)
    outs_abs = [os.path.abspath(d) for d in out_dirs]
    cuts_t = list(cuts)

    def work(row: dict) -> list[dict]:
        j = row["j"]
        lo, hi = cuts_t[j], cuts_t[j + 1]
        ack = {"j": j, "kind": row["kind"], "bucket": row["bucket"],
               "postings": 0, "field_k": "{}", "rows": 0, "min_doc": 0,
               "max_doc": 0, "name": row["name"]}
        if row["kind"] == "bucket":
            b = row["bucket"]
            seg = os.path.join(outs_abs[j], "segments", f"seg-{b:08d}.parquet")
            stp = os.path.join(outs_abs[j], "stats", f"stats-{b:08d}.parquet")
            if os.path.exists(seg) and os.path.exists(stp):
                postings, fk = read_group_meta(stp)
            else:
                postings, fk = _split_bucket(src_abs, man, b, lo, hi, seg,
                                             stp)
            return [{**ack, "postings": postings,
                     "field_k": json.dumps(fk)}]
        dst = os.path.join(outs_abs[j], row["kind"], row["name"])
        if not os.path.exists(dst):
            _split_part(os.path.join(src_abs, row["src"]), dst, lo, hi,
                        values=row["kind"] == "values")
        if not os.path.exists(dst):
            return []
        ids = pq.read_table(dst, columns=["doc_id"]).column("doc_id")
        return [{**ack, "rows": len(ids),
                 "min_doc": int(pa.compute.min(ids).as_py()),
                 "max_doc": int(pa.compute.max(ids).as_py())}]

    acks = (ray.data.from_items(items,
                                override_num_blocks=max(1, len(items)))
            .flat_map(work).take_all())

    tombs = read_tombstones(src_dir)

    mans = []
    for j, d in enumerate(out_dirs):
        lo, hi = cuts[j], cuts[j + 1]
        field_k: dict[str, int] = {}
        segs, stats = [], []
        parts: dict[str, list] = {p: [] for p in doc_parts}
        for a in sorted((a for a in acks if a["j"] == j),
                        key=lambda a: (a["kind"], a["bucket"], a["name"])):
            if a["kind"] == "bucket":
                if a["postings"]:
                    segs.append({"gkey": a["bucket"],
                                 "path": f"segments/seg-{a['bucket']:08d}"
                                         ".parquet",
                                 "postings": a["postings"]})
                    stats.append({"bucket": a["bucket"],
                                  "path": f"stats/stats-{a['bucket']:08d}"
                                          ".parquet"})
                for k, v in json.loads(a["field_k"]).items():
                    field_k[k] = field_k.get(k, 0) + int(v)
            else:
                e = {"path": f"{a['kind']}/{a['name']}", "rows": a["rows"],
                     "min_doc": a["min_doc"], "max_doc": a["max_doc"]}
                if a["kind"] == "values":
                    del e["rows"]
                parts[a["kind"]].append(e)
        out_man = dict(man)
        out_man.update({
            "num_docs": hi - lo, "doc_id_offset": 0, "num_ranges": 1,
            "range_span": hi - lo, "field_k": field_k,
            **{p: sorted(es, key=lambda e: e["min_doc"])
               for p, es in parts.items()},
            "segments": segs, "stats": stats,
            "metrics": {"split_from": src_abs, "doc_range": [lo, hi]},
        })
        st = tombs[(tombs >= lo) & (tombs < hi)] - lo
        if st.size:
            add_tombstones(d, st)
        tmp = os.path.join(d, MANIFEST_NAME + ".tmp")
        with open(tmp, "w") as f:
            json.dump(out_man, f)
        os.replace(tmp, os.path.join(d, MANIFEST_NAME))
        mans.append(out_man)
    return mans


def merge_dedup_keys(out_dir: str) -> int:
    """Upsert semantics for merges of OVERLAPPING corpora: tombstone
    every doc whose key columns collide with a higher merged doc id
    (later source wins — the lookup rule).  One key-hash groupby over
    the merged docmap's key columns (column-pruned read, only colliding
    ids return to the driver); stats stay untouched until compaction —
    the same Lucene hidden-delete semantics as the incremental upsert.
    Returns the number of tombstoned docs."""
    import ray.data

    with open(os.path.join(out_dir, MANIFEST_NAME)) as f:
        man = json.load(f)
    kc = list(man["key_columns"])
    paths = [os.path.join(out_dir, e["path"]) for e in man["docmap"]]
    schema_names = pq.read_schema(paths[0]).names
    # when the key column IS doc_id, the source key rides as src_doc_id
    # (the internal doc_id column was rewritten by the merge)
    keycols = [("src_doc_id" if c == "doc_id"
                and "src_doc_id" in schema_names else c) for c in kc]
    cols = list(dict.fromkeys(["doc_id", *keycols]))

    def dead_of(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id")
        if g.num_rows <= 1:
            return pa.table({"dead": pa.array([], pa.int64())})
        mx = pa.compute.max(ids).as_py()
        dead = [int(v.as_py()) for v in ids if v.as_py() != mx]
        return pa.table({"dead": pa.array(dead, pa.int64())})

    dead_rows = (ray.data.read_parquet(paths, columns=cols)
                 .groupby(keycols)
                 .map_groups(dead_of, batch_format="pyarrow")
                 .take_all())
    dead = sorted(int(r["dead"]) for r in dead_rows)
    if not dead:
        return 0
    add_tombstones(out_dir, dead)
    return len(dead)
