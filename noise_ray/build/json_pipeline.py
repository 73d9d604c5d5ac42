"""Nested-JSON index build pipeline (Ray Data).

The nested-document analogue of ``pipeline.build_index``: input rows are
arbitrary JSON documents (``_id`` + ``json`` string columns); each doc is
shredded (build/shred.py, the analogue of the reference Shredder,
/root/reference/src/json_shred.rs:485-576) into

- **docmap** partitions ``(doc_id, _id, json)`` — the doc store,
- **values** partitions ``(doc_id, kp, ap, code, num, str)`` — every
  shredded scalar/marker entry, one row per (doc, keypath, arraypath).
  This is the columnar analogue of the reference's V/f/T/F/N value
  keyspaces (src/key_builder.rs:163-262): RangeQ scans filter it by kp,
  exact matches verify against it, NOT existence checks consult it.
- **segments** of instance-level posting blocks: ``field`` is the full
  keypath STRING (e.g. ``.msgs$.text``), and each posting entry is one
  (doc, arraypath) string instance — the block rows carry an extra
  ``aps`` varint stream (cnt × depth indices) and a ``depth`` column.
  Within a (field, term) run entries sort by (doc, arraypath) in NUMERIC
  order.  (The reference iterates RocksDB keys whose seq/arraypath are
  DECIMAL STRINGS, so its iteration order diverges from its own numeric
  DocResult comparisons once an array has 10+ elements — undefined
  behavior we do not replicate; numeric order is used throughout.)
- **stats**: C = Σ tf per (kp, stem), K per kp = Σ (instance ×
  distinct-stem) — the same merge-summed counters as the flat build
  (src/json_shred.rs:191-199), keyed by keypath string.

Doc ids are assigned by INPUT ORDER (file order × row order), mirroring
the reference's monotonically increasing seq on add — there is no sort
key for arbitrary JSON.  The pipeline is one streaming execution with
the same map-side combiner, gkey = (hash(kp, term) bucket × doc range)
shuffle, idempotent tmp+rename writes and committed-group resume as the
flat build.  Only the plan rows (input order) and the shred of stages
1+2 (``ShredTokenize``) are nested-specific: the driver is the flat
build's ``pipeline.run_build``, with its one route rule (one ingest
task's worth runs in the driver), sizing, stage 3 and manifest publish.
``ShredTokenize``'s postings come from the flat build's kernel: every
string value of the batch is one instance, ranked by (doc, arraypath),
tokenized by the flat ``pipeline.batch_tokens`` (term ids from the one
``TermTable``) and grouped by ``pipeline.group_postings`` with the
keypath as the group; bucket ids come from each term's CRC-32 and length
(``kp_term_buckets``), with no per-key string hashed.  Segment
groups go through the one writer ``pipeline.write_segment_group``,
which gives rows with ``aps`` the nested row-group size — their keypath
``field`` strings and the extra ``aps`` / ``depth`` columns pass through
it like any other payload column.  Docmap and values partitions are
written under the build's ``pipeline.DOCMAP_WRITE`` / ``VALUES_WRITE``
policies (zstd; ``doc_id`` / ``seq`` / the arraypath elements delta-coded;
dictionary pages on ``kp``, ``code`` and, until they pass the page limit,
the ``_id`` / ``json`` / ``str`` strings), like every other producer's.
"""

from __future__ import annotations

import itertools
import json
import os
import zlib
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from .arrow_shred import shred_table_fast
from .codec import encode_varint
from .pipeline import (DOCMAP_WRITE, VALUES_WRITE, _atomic_write_table,
                       _binary_rows, _dict_ranks, batch_tokens,
                       encode_posting_blocks, group_postings, run_build)
from .shred import shred
from .spatial import sidecar_path

VALUES_CODES = ("s", "f", "T", "F", "N", "o", "a", "r")
# one string value at one (doc, keypath, arraypath): the nested posting
# instance, as ``ShredTokenize._shred_file`` returns it
_INSTANCES = pa.schema([("doc_id", pa.int64()),
                        ("kp", pa.dictionary(pa.int32(), pa.string())),
                        ("ap", pa.list_(pa.int64())), ("str", pa.string())])


def kp_term_bucket(kp: str, term: str, num_buckets: int) -> int:
    return zlib.crc32(f"{kp}\0{term}".encode("utf-8")) % num_buckets


def kp_term_buckets(kps: pa.Array, term_crc: np.ndarray,
                    term_nbytes: np.ndarray, num_buckets: int) -> np.ndarray:
    """``kp_term_bucket`` of many (keypath, term) pairs, from the keypath
    strings ``kps`` and each term's CRC-32 and UTF-8 length, with no
    joined string hashed.  CRC-32 is affine in its start value:
    crc32(t, v) = A·v ⊕ crc32(t), where A depends only on len(t), and
    A·v = crc32(z, v) ⊕ crc32(z) for z = len(t) zero bytes.  So each
    distinct (keypath, term length) costs one pair of calls."""
    enc = pc.dictionary_encode(kps)
    kp_crc = [zlib.crc32(f"{kp}\0".encode("utf-8"))
              for kp in enc.dictionary.to_pylist()]
    span = int(term_nbytes.max(initial=0)) + 1
    pairs, inv = np.unique(enc.indices.to_numpy().astype(np.int64) * span
                           + term_nbytes, return_inverse=True)
    shift = np.fromiter(
        (zlib.crc32(bytes(p % span), kp_crc[p // span])
         ^ zlib.crc32(bytes(p % span)) for p in pairs.tolist()),
        np.int64, pairs.size)
    return (shift[inv] ^ term_crc) % num_buckets


# ------------------------------------------------------------------ inputs

def docs_to_parquet(docs: list, out_path: str, docid_base: int = 0,
                    seqs: list[int] | None = None,
                    id_prefix: str = ""):
    """Write JSON documents to one build-ready parquet shard
    ``(_id, json, seq)``.  ``docs`` entries are dicts or JSON strings;
    docs without a root ``_id`` get a deterministic ``"doc<n>"`` id (the
    reference generates a UUID here, src/json_shred.rs:477-483 — we need
    determinism for resumable builds).  ``seqs`` records the reference's
    monotonically increasing add-order seq per doc (defaults to position);
    it is carried for the REPL's seq-string iteration-order quirks, not
    used as the doc_id."""
    ids, texts = [], []
    for i, d in enumerate(docs):
        if isinstance(d, str):
            d = json.loads(d)
        if not isinstance(d, dict):
            raise ValueError("Expected JSON object document")
        if "_id" in d and not isinstance(d["_id"], str):
            # a present-but-non-string _id (incl. null) is an error,
            # like the reference shredder
            raise ValueError(
                "Expected string for `_id` field, got another type")
        the_id = d.get("_id")
        if the_id is None:
            # inject the generated id into the stored doc, like the
            # reference's add_id (src/json_shred.rs:477-483): `return
            # ._id` and whole-doc fetches must see it
            the_id = f"doc{id_prefix}{docid_base + i}"
            d = {**d, "_id": the_id}
        ids.append(the_id)
        texts.append(json.dumps(d, ensure_ascii=False))
    if seqs is None:
        seqs = list(range(docid_base, docid_base + len(ids)))
    t = pa.table({"_id": pa.array(ids, pa.string()),
                  "json": pa.array(texts, pa.string()),
                  "seq": pa.array(seqs, pa.int64())})
    _atomic_write_table(t, out_path)
    return out_path


def jsonl_to_doc_parquet(in_paths: list[str], out_dir: str) -> list[str]:
    """Convert JSONL files of arbitrary JSON docs into ``(_id, json)``
    shards, one per input file (per-file tasks keep within-file line
    order, which defines doc_id order)."""
    import hashlib as _hashlib

    os.makedirs(out_dir, exist_ok=True)
    dest_tag = _hashlib.md5(
        os.path.abspath(out_dir).encode()).hexdigest()[:8]

    def _one(row: dict) -> dict:
        src = row["path"]
        out = os.path.join(out_dir, f"docs-{row['seq']:05d}.parquet")
        if not os.path.exists(out):
            with open(src) as f:
                docs = [l for l in f if l.strip()]
            # id prefix unique per (destination, file): _id-less docs
            # must not collide across files OR across separate ingest
            # calls (the reference generates UUIDs; we keep determinism
            # per destination so resumed conversions reuse the same ids)
            docs_to_parquet(docs, out, id_prefix=f"{dest_tag}-{row['seq']}-")
        return {"path": out}

    items = [{"path": p, "seq": i} for i, p in enumerate(sorted(in_paths))]
    outs = ray.data.from_items(items).map(_one).take_all()
    # take_all row order is not guaranteed across parallel tasks; shard
    # names carry the input file order, so sorting restores doc order
    return sorted(o["path"] for o in outs)


# ----------------------------------------------------------------- stage 1+2

class ShredTokenize:
    """Fused shred + tokenize + map-side combiner for one batch of plan
    rows.  Writes the docmap and values partitions as side effects
    (idempotent per input file) and returns finished posting-block rows
    keyed by gkey for the shuffle.

    Postings follow add_stemmed_entries (src/json_shred.rs:148-203): one
    per (keypath, stem, doc, arraypath).  The string instances of all the
    batch's files are tokenized by one ``batch_tokens`` call and turned
    into postings by the flat build's ``group_postings`` — key =
    (keypath, term), instance = one string value at one (doc, arraypath)
    — so each (keypath, term) run comes out in (doc, arraypath) order."""

    def __init__(self, docmap_dir: str, values_dir: str, num_buckets: int,
                 num_ranges: int, range_span: int, range_base: int,
                 block_size: int, fast: bool = True):
        self.docmap_dir = docmap_dir
        self.values_dir = values_dir
        self.num_buckets = num_buckets
        self.num_ranges = num_ranges
        self.range_span = range_span
        self.range_base = range_base
        self.block_size = block_size
        self.fast = fast  # try the Arrow column-wise shred first

    # -------------------------------------------------------- per file

    def _shred_file(self, path: str, offset: int, rows: int,
                    seq: int) -> pa.Table:
        """Shred one input file: write its docmap and values partitions
        (under the build's write policies) and its spatial sidecar (Parquet
        defaults), each idempotent, and return its string instances —
        the values rows of code ``s`` — as ``(doc_id, kp, ap, str)``."""
        docmap_path = os.path.join(self.docmap_dir,
                                   f"docmap-{seq:05d}.parquet")
        values_path = os.path.join(self.values_dir,
                                   f"values-{seq:05d}.parquet")
        have_seq = "seq" in pq.read_schema(path).names
        t = pq.read_table(path, columns=(["_id", "json", "seq"] if have_seq
                                         else ["_id", "json"]))
        if t.num_rows != rows:
            raise ValueError(
                f"{path}: footer said {rows} rows, read {t.num_rows}")
        ids = t.column("_id").to_pylist()
        texts = t.column("json").to_pylist()

        vt = zmeta = None
        slow_sel = range(rows)
        if self.fast:
            fast = shred_table_fast(ids, texts, offset)
            if fast is not None:
                vt, zmeta, slow_sel = fast
        if vt is None or slow_sel:
            # per-document walk: the whole shard when the fast path bailed,
            # else just the null-bearing rows the fast path routed here
            vt, zmeta = self._shred_rows(ids, texts, offset, slow_sel, seq,
                                         vt, zmeta)
        if not os.path.exists(values_path):
            vt_out = vt.replace_schema_metadata(
                {"noise_kp_zones": json.dumps(zmeta, sort_keys=True)})
            _atomic_write_table(vt_out, values_path, policy=VALUES_WRITE)
        if not os.path.exists(docmap_path):
            cols = {
                "doc_id": pa.array(
                    np.arange(offset, offset + rows, dtype=np.int64)),
                "_id": pa.array(ids, pa.string()),
                "json": pa.array(texts, pa.string()),
            }
            if have_seq:
                cols["seq"] = t.column("seq")
            _atomic_write_table(pa.table(cols), docmap_path,
                                policy=DOCMAP_WRITE)
        return vt.filter(pc.equal(vt.column("code"), "s")).select(
            _INSTANCES.names)

    def _shred_rows(self, ids, texts, offset: int, sel, seq: int,
                    vt_fast, zmeta_fast) -> tuple[pa.Table, dict]:
        """The per-document shred of rows ``sel`` (writing their spatial
        sidecar), merged with the fast shred ``vt_fast`` of the other rows
        when there is one → (values table, per-kp zones)."""
        v_doc: list[int] = []
        v_kp: list[str] = []
        v_ap: list[list[int]] = []
        v_code: list[str] = []
        v_num: list[float | None] = []
        v_str: list[str | None] = []
        v_bbox: list[list[float] | None] = []
        for i in sel:
            sd = shred(json.loads(texts[i]), docid=ids[i], sort=False)
            for e in sd.entries:
                v_doc.append(offset + i)
                v_kp.append(e.kp)
                v_ap.append(list(e.ap))
                v_code.append(e.code)
                v_num.append(e.value if e.code == "f" else None)
                v_str.append(e.value if e.code == "s" else None)
                v_bbox.append(list(e.value) if e.code == "r" else None)

        spatial_path = sidecar_path(
            os.path.join(self.values_dir, f"values-{seq:05d}.parquet"))
        if not os.path.exists(spatial_path):
            self._write_spatial(spatial_path, v_doc, v_kp, v_ap, v_code,
                                v_bbox)
        # (kp, doc)-sorted rows: every values read filters on kp, so
        # kp-contiguous row groups let parquet stats prune the other
        # keypaths; the stable sort keeps docs ascending per kp for
        # the doc-range filters (same layout as the Arrow fast path)
        _, kp_inv = np.unique(
            np.asarray(v_kp, dtype=object), return_inverse=True)
        vorder = np.argsort(kp_inv, kind="stable")
        v_doc = [v_doc[i] for i in vorder]
        v_kp = [v_kp[i] for i in vorder]
        v_ap = [v_ap[i] for i in vorder]
        v_code = [v_code[i] for i in vorder]
        v_num = [v_num[i] for i in vorder]
        v_str = [v_str[i] for i in vorder]
        v_bbox = [v_bbox[i] for i in vorder]
        vt = pa.table({
            "doc_id": pa.array(v_doc, pa.int64()),
            "kp": pa.array(v_kp, pa.string()).dictionary_encode(),
            "ap": pa.array(v_ap, pa.list_(pa.int64())),
            "code": pa.array(v_code, pa.string()).dictionary_encode(),
            "num": pa.array(v_num, pa.float64()),
            "str": pa.array(v_str, pa.string()),
            "bbox": pa.array(v_bbox, pa.list_(pa.float64())),
        })
        # per-kp zone map (numeric min/max + row count + codes seen):
        # the value-index analogue the flat path gets from Parquet
        # footer stats per column; here columns are rows, so the zones
        # are computed at write time and stored in the file metadata
        zones: dict[str, dict] = {}
        for kp, code, num in zip(v_kp, v_code, v_num):
            z = zones.get(kp)
            if z is None:
                z = zones[kp] = {"n": 0, "codes": set()}
            z["n"] += 1
            z["codes"].add(code)
            if num is not None:
                z["fmin"] = min(z.get("fmin", num), num)
                z["fmax"] = max(z.get("fmax", num), num)
        zmeta = {kp: {**{k: v for k, v in z.items() if k != "codes"},
                      "codes": sorted(z["codes"])}
                 for kp, z in zones.items()}
        if vt_fast is not None:
            # mixed shard: merge the column-wise shred of the
            # null-free rows with the per-doc shred of the rest.
            # np.lexsort is stable, and a doc is in exactly one
            # source, so within-(kp, doc) arraypath order survives.
            # kp sort keys come from the dictionary chunks (a rank
            # per DISTINCT kp), never a per-row string gather
            vt = pa.concat_tables([vt_fast, vt],
                                  promote_options="default")
            m_doc = vt.column("doc_id").to_numpy()
            vt = vt.take(pa.array(np.lexsort(
                (m_doc, _dict_ranks(vt.column("kp"))))))
            for kp, zf in zmeta_fast.items():
                z = zones.get(kp)
                if z is None:
                    zmeta[kp] = zf
                    continue
                merged = {"n": z["n"] + zf["n"],
                          "codes": sorted(set(z["codes"])
                                          | set(zf["codes"]))}
                fmins = [v for v in (z.get("fmin"), zf.get("fmin"))
                         if v is not None]
                fmaxs = [v for v in (z.get("fmax"), zf.get("fmax"))
                         if v is not None]
                if fmins:
                    merged["fmin"] = min(fmins)
                    merged["fmax"] = max(fmaxs)
                zmeta[kp] = merged
        return vt, zmeta

    @staticmethod
    def _write_spatial(spatial_path: str, v_doc, v_kp, v_ap, v_code,
                       v_bbox) -> None:
        """Grid-bucketed sidecar of this partition's ``r`` rows (the
        rtree-CF analogue, build/spatial.py): rows replicated per
        intersected cell, sorted by (kp, cell, doc) with small row groups
        so a bbox query's cell filter prunes at the parquet layer.  No
        file is written when the partition has no geometry."""
        from .spatial import cells_for_boxes

        r_idx = [i for i, c in enumerate(v_code) if c == "r"]
        if not r_idx:
            return
        boxes = np.asarray([v_bbox[i] for i in r_idx], dtype=np.float64)
        rows, cells = cells_for_boxes(boxes)
        docs = np.asarray([v_doc[i] for i in r_idx], dtype=np.int64)[rows]
        kps = [v_kp[r_idx[i]] for i in rows]
        aps = [v_ap[r_idx[i]] for i in rows]
        order = sorted(range(len(rows)),
                       key=lambda i: (kps[i], int(cells[i]), int(docs[i])))
        st = pa.table({
            "kp": pa.array([kps[i] for i in order],
                           pa.string()).dictionary_encode(),
            "cell": pa.array([int(cells[i]) for i in order], pa.int32()),
            "doc_id": pa.array([int(docs[i]) for i in order], pa.int64()),
            "ap": pa.array([aps[i] for i in order], pa.list_(pa.int64())),
            "bbox": pa.array([list(boxes[rows[i]]) for i in order],
                             pa.list_(pa.float64())),
        })
        os.makedirs(os.path.dirname(spatial_path), exist_ok=True)
        _atomic_write_table(st, spatial_path, row_group_size=4096)

    # ------------------------------------------------------------ batch

    def __call__(self, batch: pa.Table) -> pa.Table:
        inst = pa.concat_tables([_INSTANCES.empty_table()] + [
            self._shred_file(row["path"], int(row["offset"]),
                             int(row["rows"]), int(row["seq"]))
            for row in batch.to_pylist()])
        # rank the string instances by (doc, arraypath): arraypaths are
        # zero-padded to the batch's deepest, and every keypath has one
        # depth, so this is the numeric order within each keypath
        ap = inst.column("ap").combine_chunks()
        depth = pc.list_value_length(ap).to_numpy()
        in_ap = np.arange(int(depth.max(initial=0))) < depth[:, None]
        ap_mat = np.zeros(in_ap.shape, dtype=np.int64)
        ap_mat[in_ap] = ap.flatten().to_numpy()
        rank = np.lexsort((*ap_mat.T[::-1],
                           inst.column("doc_id").to_numpy()))
        inst = inst.take(pa.array(rank))
        ap_mat, in_ap, depth = ap_mat[rank], in_ap[rank], depth[rank]

        _, row, pos, tid, flen, (terms, crc, nbytes) = batch_tokens(
            [inst.column("str")], inst.num_rows)
        kp = _dict_ranks(inst.column("kp"))
        p_key, p_inst, tfs, pos, first = group_postings(
            kp[row], row, pos, tid, int(kp.max(initial=0)) + 1)
        key_field = inst.column("kp").take(pa.array(row[first])).cast(
            pa.string()).combine_chunks()
        key_tid = tid[first]
        bucket = kp_term_buckets(key_field, crc[key_tid], nbytes[key_tid],
                                 self.num_buckets)
        bounds, cols = encode_posting_blocks(
            p_key, inst.column("doc_id").to_numpy()[p_inst], tfs,
            flen[0][p_inst], pos, bucket, num_ranges=self.num_ranges,
            range_span=self.range_span, range_base=self.range_base,
            block_size=self.block_size)
        row_key = p_key[bounds[:-1]]
        p_depth = depth[p_inst]
        ap_bounds = np.concatenate(([0], np.cumsum(p_depth)))[bounds]
        cols["aps"] = _binary_rows(
            encode_varint(ap_mat[p_inst][in_ap[p_inst]]), ap_bounds)
        cols["depth"] = pa.array(p_depth[bounds[:-1]], pa.int32())
        cols["field"] = key_field.take(row_key)
        cols["term"] = terms.take(key_tid[row_key])
        return pa.table({c: cols[c] for c in (
            "gkey", "field", "term", "depth", "min_doc", "max_doc", "cnt",
            "c_block", "max_tf_norm", "docs", "aps", "tfs", "lens", "pos")})


# ------------------------------------------------------------------ driver

def build_json_index(
    input_paths: list[str],
    index_dir: str,
    *,
    num_buckets: int | None = None,
    docs_per_range: int | None = None,
    block_size: int = 4096,
    doc_id_offset: int = 0,
    docs_per_ingest_task: int | None = None,
) -> dict[str, Any]:
    """Build (or resume) a nested-JSON index; returns the manifest.

    ``input_paths`` are parquet shards with ``(_id, json)`` columns (see
    docs_to_parquet / jsonl_to_doc_parquet).

    The nested engine's share of ``pipeline.run_build``: plan rows in
    input order and the one-stage chain ``ShredTokenize``.  A build of at
    most ``docs_per_ingest_task`` docs (by default ``NESTED_DOCS_PER_TASK``
    or more) runs in the driver, as the REPL's re-index of a handful of
    documents between statements does."""

    def plan() -> list[dict]:
        rows = [pq.read_metadata(p).num_rows for p in input_paths]
        offsets = itertools.accumulate(rows, initial=doc_id_offset)
        return [{"path": os.path.abspath(p), "offset": o, "rows": n, "seq": i}
                for i, (p, o, n) in enumerate(zip(input_paths, offsets, rows))]

    def stages(dirs, sizing):
        return [ShredTokenize(dirs["docmap"], dirs["values"], **sizing)]

    return run_build(index_dir, plan, stages, nested=True, fields=(),
                     key_columns=("_id",), num_buckets=num_buckets,
                     docs_per_range=docs_per_range, block_size=block_size,
                     doc_id_offset=doc_id_offset,
                     docs_per_ingest_task=docs_per_ingest_task)
