"""JsonIndexReader: manifest-bound lookups into a NESTED-JSON index.

The nested half of the one reader (reader.py).  ``ReaderCore`` owns the
index-wide work for both engines: the manifest and epoch binding, the
tombstone set, the postings read and decode, term stats, token totals,
stats paths and the highest-live-doc key lookup.  Here a ``field`` is a
full keypath string (``.msgs$.text``) and postings are (doc, arraypath)
STRING INSTANCES, so the core also decodes the segments' ``aps`` column
at the keypath's array depth.

What only the nested engine has lives in this module.  The values
partitions (one row per shredded scalar/marker entry) stand in for the
reference's V/f/T/F/N keyspaces
(/root/reference/src/key_builder.rs:163-262): RangeQ scans them by keypath,
ExactMatch verifies literals against them, NOT existence checks consult
them, and the JSON fetcher re-parses the docmap's stored ``json`` column
(the analogue of reconstructing a doc from its V keys,
src/snapshot.rs:194-433).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..build.json_pipeline import kp_term_bucket
from ..build.shred import parse_kp
from ..nputil import sorted_member_mask
from .reader import PostingList, ReaderCore, _empty_postings


# nested postings are PostingLists with the arraypath matrix ``aps`` set
InstPostings = PostingList


def _empty_inst(depth: int = 0) -> PostingList:
    return _empty_postings(depth)


def kp_depth(kp: str) -> int:
    """Array depth of a keypath = number of ``$`` markers."""
    return sum(1 for s in parse_kp(kp) if s == "$")


def kp_seg_prefix(prefix_segs: list[str], kp: str) -> bool:
    """True iff ``kp`` starts with ``prefix_segs`` at a segment boundary —
    the keypath-level half of ``is_kp_value_key_prefix``
    (src/key_builder.rs:315-325)."""
    segs = parse_kp(kp) if kp else []
    if len(segs) < len(prefix_segs):
        return False
    return segs[: len(prefix_segs)] == prefix_segs


class JsonIndexReader(ReaderCore):
    """Reader of a nested-JSON index: a field is a full keypath string
    and postings are (doc, arraypath) instances decoded with their
    ``aps`` matrix at the keypath's array depth.  Adds the values
    partitions (merged across epochs like the docmap) and the stored
    JSON / ``_id`` / seq fetchers.  Tombstoned (upserted / deleted) docs
    are hidden by the engine per leaf."""

    _NESTED = True
    _FIELD_TYPE = str

    def __init__(self, index_dir: str, _is_epoch: bool = False):
        super().__init__(index_dir, _is_epoch)
        self._values = list(self.manifest["values"])
        for e in self._epochs:
            self._values.extend(e._values)
        self._values_kp_cache: dict[tuple, tuple] = {}
        self._pushdown_counts: dict[tuple, int] = {}
        self._zones_cache: dict[str, dict] = {}
        self._kp_n_cache: dict[str, int] = {}
        self._json_cache: dict = {}

    def _field_key(self, kp: str) -> str:
        return kp

    def _bucket(self, kp: str, term: str) -> int:
        return kp_term_bucket(kp, term, self.num_buckets)

    def _aps_depth(self, kp: str) -> int:
        return kp_depth(kp)

    def kp_instance_count(self, kp: str) -> int:
        """Total string/value instances under exactly ``kp`` across the
        corpus — the per-kp ``n`` zone counters summed over the values
        partitions (zone metadata only, no data read; epochs are already
        merged into ``_values`` at construction)."""
        hit = self._kp_n_cache.get(kp)
        if hit is not None:
            return hit
        n = 0
        for v in self._values:
            z = self._kp_zones(v["path"]).get(kp)
            if z is not None:
                n += int(z.get("n", 0))
        self._kp_n_cache[kp] = n
        return n

    # ------------------------------------------------------------ values

    def _kp_zones(self, path: str) -> dict:
        z = self._zones_cache.get(path)
        if z is None:
            md = pq.read_metadata(path).metadata or {}
            z = json.loads(md.get(b"noise_kp_zones", b"{}"))
            self._zones_cache[path] = z
        return z

    @staticmethod
    def _decode_values(t: pa.Table, depth: int):
        """A filtered values read → the 6-tuple arrays, (doc, ap)-sorted."""
        n = t.num_rows
        if not n:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros((0, depth), dtype=np.int64),
                    np.zeros(0, dtype=object),
                    np.zeros(0, dtype=np.float64),
                    np.zeros(0, dtype=object),
                    np.zeros((0, 4), dtype=np.float64))
        docs = t.column("doc_id").to_numpy().astype(np.int64)
        if depth:
            flat = pc.list_flatten(t.column("ap")).to_numpy()
            aps = flat.astype(np.int64).reshape(n, depth)
        else:
            aps = np.zeros((n, 0), dtype=np.int64)
        codes = np.asarray(t.column("code").to_pylist(), dtype=object)
        nums = t.column("num").to_numpy(zero_copy_only=False)
        strs = np.asarray(t.column("str").to_pylist(), dtype=object)
        bboxes = np.full((n, 4), np.nan)
        if "bbox" in t.schema.names:
            for i, b in enumerate(t.column("bbox").to_pylist()):
                if b is not None:
                    bboxes[i] = b
        order = np.lexsort(tuple(aps.T[::-1]) + (docs,))
        return (docs[order], aps[order], codes[order], nums[order],
                strs[order], bboxes[order])

    def _values_kp_part(self, kp: str, path: str):
        """One partition's decoded value entries for a keypath, sorted by
        (doc, arraypath) — cached per (kp, partition) so a range-
        partitioned worker never decodes another range's values."""
        ckey = (kp, path)
        cached = self._values_kp_cache.get(ckey)
        if cached is not None:
            return cached
        depth = kp_depth(kp)
        t = pq.read_table(path, filters=[("kp", "==", kp)])
        cached = self._decode_values(t, depth)
        if len(self._values_kp_cache) < 4096:
            self._values_kp_cache[ckey] = cached
        return cached

    def values_kp_for_docs(self, kp: str, docs: np.ndarray):
        """Value entries under ``kp`` for exactly these (sorted) docs —
        the candidate-pushdown read: partitions prune to the docs' span,
        the parquet read filters to [min, max] (row groups are doc-
        sorted), then an exact membership mask.  Cold reads bypass the
        per-kp cache — a selective AND sibling makes this a handful of
        row groups however large the corpus — but a (kp, partition) that
        keeps getting pushdown-read (>= 3 times) is PROMOTED to the full
        decoded cache when its kp row count (zone metadata) is small
        enough, so warm repeated queries slice from memory instead of
        re-reading parquet.  A range-partitioned worker only ever
        promotes its own ranges' partitions."""
        depth = kp_depth(kp)
        docs = np.asarray(docs, dtype=np.int64)
        if docs.size == 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros((0, depth), dtype=np.int64),
                    np.zeros(0, dtype=object),
                    np.zeros(0, dtype=np.float64),
                    np.zeros(0, dtype=object),
                    np.zeros((0, 4), dtype=np.float64))
        parts = []
        for v in self._values:
            # a partition qualifies only if it CONTAINS one of the docs
            # (span overlap is not enough: a handful of spread-out
            # candidates would otherwise open every partition between
            # them — hundreds of small files at corpus scale)
            s_ = int(np.searchsorted(docs, v["min_doc"], side="left"))
            e_ = int(np.searchsorted(docs, v["max_doc"], side="right"))
            if e_ <= s_:
                continue
            zones = self._kp_zones(v["path"])
            if kp not in zones:
                continue
            lo, hi = int(docs[s_]), int(docs[e_ - 1])
            ckey = (kp, v["path"])
            cached = self._values_kp_cache.get(ckey)
            if cached is None:
                cnt = self._pushdown_counts.get(ckey, 0) + 1
                self._pushdown_counts[ckey] = cnt
                if (cnt >= 3
                        and zones[kp].get("n", 1 << 60) <= 1 << 18):
                    cached = self._values_kp_part(kp, v["path"])
            if cached is not None:
                cs = int(np.searchsorted(cached[0], lo, side="left"))
                ce = int(np.searchsorted(cached[0], hi, side="right"))
                if ce > cs:
                    parts.append(tuple(c[cs:ce] for c in cached))
                continue
            t = pq.read_table(v["path"],
                              filters=[("kp", "==", kp),
                                       ("doc_id", ">=", lo),
                                       ("doc_id", "<=", hi)])
            if t.num_rows:
                parts.append(self._decode_values(t, depth))
        if not parts:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros((0, depth), dtype=np.int64),
                    np.zeros(0, dtype=object),
                    np.zeros(0, dtype=np.float64),
                    np.zeros(0, dtype=object),
                    np.zeros((0, 4), dtype=np.float64))
        out = parts[0] if len(parts) == 1 else tuple(
            np.concatenate([p[i] for p in parts]) for i in range(6))
        keep = sorted_member_mask(docs, out[0])
        if keep.all():
            return out
        return tuple(c[keep] for c in out)

    def values_kp(self, kp: str, doc_range: tuple[int, int] | None = None):
        """All value entries under EXACTLY keypath ``kp``:
        ``(docs, aps, codes, nums, strs, bboxes)`` sorted by
        (doc, arraypath) — the f/T/F/N/r + V keyspace scan for one
        keypath.  ``bboxes`` is (n × 4) float64, NaN rows for non-``r``
        entries.  Partitions are pruned TWICE before any data read: by
        the per-kp zone maps written at ingest, and — under a doc_range
        (distributed range workers) — by the partition's doc interval."""
        parts = []
        for v in self._values:
            if doc_range is not None and (
                    v["max_doc"] < doc_range[0]
                    or v["min_doc"] >= doc_range[1]):
                continue
            if kp not in self._kp_zones(v["path"]):
                continue
            p = self._values_kp_part(kp, v["path"])
            if p[0].size:
                parts.append(p)
        if not parts:
            depth = kp_depth(kp)
            out = (np.zeros(0, dtype=np.int64),
                   np.zeros((0, depth), dtype=np.int64),
                   np.zeros(0, dtype=object),
                   np.zeros(0, dtype=np.float64),
                   np.zeros(0, dtype=object),
                   np.zeros((0, 4), dtype=np.float64))
        elif len(parts) == 1:
            out = parts[0]
        else:
            # partitions hold ascending disjoint doc ranges: concat keeps
            # global (doc, arraypath) order
            out = tuple(
                np.concatenate([p[i] for p in parts])
                for i in range(6))
        if doc_range is not None:
            docs = out[0]
            s = int(np.searchsorted(docs, doc_range[0], side="left"))
            e = int(np.searchsorted(docs, doc_range[1], side="left"))
            if s != 0 or e != docs.size:
                out = tuple(c[s:e] for c in out)
        return out

    def bbox_rows(self, kp: str, query_box: tuple[float, float, float,
                                                  float],
                  doc_range: tuple[int, int] | None = None):
        """Grid-pruned ``r`` rows for a bbox query: ``(docs, aps, bboxes)``
        sorted by (doc, arraypath), candidates only — the exact
        intersection predicate still runs in the engine.

        Reads the spatial sidecars (build/spatial.py) with a parquet
        ``cell IN (...)`` filter, so only row groups of grid cells the
        query box touches are materialized; partitions prune by doc range
        and by the kp zone maps ("r" code present) first.  Falls back to
        the full values scan for indexes built before the sidecars
        existed."""
        from ..build.spatial import cells_for_query, sidecar_path

        depth = kp_depth(kp)
        cells = cells_for_query(*query_box)
        doc_parts: list[np.ndarray] = []
        ap_parts: list[np.ndarray] = []
        bb_parts: list[np.ndarray] = []
        for v in self._values:
            if doc_range is not None and (
                    v["max_doc"] < doc_range[0]
                    or v["min_doc"] >= doc_range[1]):
                continue
            z = self._kp_zones(v["path"]).get(kp)
            if z is None or "r" not in z.get("codes", []):
                continue
            spath = sidecar_path(v["path"])
            if not os.path.exists(spath):
                # partition from before the sidecars existed (e.g. an old
                # base under newer epochs): exact per-partition values
                # scan — other partitions keep their cell-pruned reads
                d, a, c, _n, _s, b = self._values_kp_part(kp, v["path"])
                m = c == "r"
                d, a, b = d[m], a[m], b[m]
            else:
                ckey = (kp, spath, tuple(cells))
                cached = self._values_kp_cache.get(ckey)
                if cached is None:
                    t = pq.read_table(spath,
                                      filters=[("kp", "==", kp),
                                               ("cell", "in", cells)])
                    d = t.column("doc_id").to_numpy().astype(np.int64)
                    if depth:
                        a = (pc.list_flatten(t.column("ap")).to_numpy()
                             .astype(np.int64).reshape(len(d), depth))
                    else:
                        a = np.zeros((len(d), 0), dtype=np.int64)
                    b = (pc.list_flatten(t.column("bbox")).to_numpy()
                         .astype(np.float64).reshape(len(d), 4))
                    cached = (d, a, b)
                    if len(self._values_kp_cache) < 4096:
                        self._values_kp_cache[ckey] = cached
                d, a, b = cached
            if d.size:
                doc_parts.append(d)
                ap_parts.append(a)
                bb_parts.append(b)
        if not doc_parts:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros((0, depth), dtype=np.int64),
                    np.zeros((0, 4), dtype=np.float64))
        docs = np.concatenate(doc_parts)
        aps = np.concatenate(ap_parts)
        bb = np.concatenate(bb_parts)
        if doc_range is not None:
            m = (docs >= doc_range[0]) & (docs < doc_range[1])
            docs, aps, bb = docs[m], aps[m], bb[m]
        # collapse cell-replication duplicates; (doc, ap) is unique per
        # stored box, so first-occurrence keeps the right bbox
        order = np.lexsort(tuple(aps.T[::-1]) + (docs,))
        docs, aps, bb = docs[order], aps[order], bb[order]
        if docs.size > 1:
            keys = np.hstack([docs[:, None], aps])
            keep = np.empty(docs.size, dtype=bool)
            keep[0] = True
            keep[1:] = np.any(keys[1:] != keys[:-1], axis=1)
            docs, aps, bb = docs[keep], aps[keep], bb[keep]
        return docs, aps, bb

    def zero_prefix_lengths(self, prefix_segs: list[str],
                            doc_range: tuple[int, int] | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Per-doc array length at the all-zeros arraypath prefix of a
        NOT clause's keypath (``prefix_segs`` ends with ``"$"``):
        L(doc) = 1 + max{ j : an entry exists whose vkey extends
        ``fill(prefix, (0,...,0,j))`` } — the existence domain NotFilter's
        candidate walk probes (src/filters.rs:964-993; the walk holds
        every arraypath dimension but the last at 0).  Returns
        ``(docs, lengths)`` for docs with L > 0."""
        d = sum(1 for s in prefix_segs if s == "$")
        assert d >= 1
        doc_parts: list[np.ndarray] = []
        j_parts: list[np.ndarray] = []
        for v in self._values:
            if doc_range is not None and (
                    v["max_doc"] < doc_range[0]
                    or v["min_doc"] >= doc_range[1]):
                continue
            zones = self._kp_zones(v["path"])
            kps = [k for k in zones if kp_seg_prefix(prefix_segs, k)]
            if not kps:
                continue
            # each matching keypath has a FIXED arraypath depth — gather
            # its (doc, ap[:d]) columns vectorized via the per-(kp,
            # partition) cache instead of Python-iterating every row
            for kp in kps:
                docs, aps, _c, _n, _s, _b = self._values_kp_part(
                    kp, v["path"])
                if docs.size == 0:
                    continue
                if doc_range is not None:
                    s_ = int(np.searchsorted(docs, doc_range[0]))
                    e_ = int(np.searchsorted(docs, doc_range[1]))
                    docs, aps = docs[s_:e_], aps[s_:e_]
                    if docs.size == 0:
                        continue
                if d > 1:
                    mid = np.all(aps[:, : d - 1] == 0, axis=1)
                    docs, aps = docs[mid], aps[mid]
                    if docs.size == 0:
                        continue
                doc_parts.append(docs)
                j_parts.append(aps[:, d - 1])
        if not doc_parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        alldocs = np.concatenate(doc_parts)
        allj = np.concatenate(j_parts)
        order = np.argsort(alldocs, kind="stable")
        alldocs, allj = alldocs[order], allj[order]
        uniq, starts = np.unique(alldocs, return_index=True)
        maxj = np.maximum.reduceat(allj, starts)
        return uniq, maxj + 1

    # ------------------------------------------------------------ docmap

    def doc_json(self, doc_ids: np.ndarray) -> list:
        """Raw stored JSON strings in ``doc_ids`` order (the whole-doc
        fetch behind every Returnable; parsed values are memoized)."""
        return self._doc_col(doc_ids, "json")

    def doc_id_strs(self, doc_ids: np.ndarray) -> list:
        return self._doc_col(doc_ids, "_id")

    def doc_seqs(self, doc_ids: np.ndarray) -> list:
        """The reference's add-order seq per doc (docmap ``seq`` column;
        equals doc_id for docs in partitions built without one — epochs
        ingested from raw ``(_id, json)`` shards may mix with seq-bearing
        base partitions, so the fallback is PER PARTITION)."""
        return self._doc_col(doc_ids, "seq", missing_fallback=int)

    def _doc_col(self, doc_ids: np.ndarray, col: str,
                 missing_fallback=None) -> list:
        """Per-doc values of one docmap column, in ``doc_ids`` order.
        ``missing_fallback(doc_id)`` supplies values for docs whose
        partition lacks the column (only the optional ``seq`` column);
        without it a missing column raises."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        out = [None] * doc_ids.size
        srt = np.argsort(doc_ids, kind="stable")
        sorted_ids = doc_ids[srt]
        for dm in self._docmap:
            lo, hi = dm["min_doc"], dm["max_doc"]
            s = np.searchsorted(sorted_ids, lo, side="left")
            e = np.searchsorted(sorted_ids, hi, side="right")
            if e <= s:
                continue
            if missing_fallback is not None:
                key = f"_has_{col}"
                has = dm.get(key)
                if has is None:
                    has = col in pq.read_schema(dm["path"]).names
                    dm[key] = has
                if not has:
                    for i in range(s, e):
                        out[srt[i]] = missing_fallback(sorted_ids[i])
                    continue
            ckey = (dm["path"], col)
            arr = self._json_cache.get(ckey)
            if arr is None:
                arr = pq.read_table(dm["path"],
                                    columns=[col]).column(col).to_pylist()
                if len(self._json_cache) < 64:
                    self._json_cache[ckey] = arr
            for i in range(s, e):
                out[srt[i]] = arr[sorted_ids[i] - lo]
        return out

    def lookup_id(self, id_str: str) -> int | None:
        """_id → live doc_id (the reference's I<id> lookup); upsert
        semantics: the HIGHEST live doc wins."""
        return self._highest_live([("_id", "==", id_str)])
