"""Index readers: manifest-bound point lookups into the segment/stats files.

The query-side analogue of the reference's ``Snapshot``
(/root/reference/src/snapshot.rs:17-67): a reader binds to one immutable
manifest version.  Segment and stats files are sorted by (field, term);
each file's key columns are read once into a per-file index
(``_SegBlockIndex`` / ``_StatsIndex``), a (field, term) resolves to a row
range by binary search, and only the row groups that range spans are
read — the columnar stand-in for RocksDB prefix seeks.

Both engines write the same ``segments/`` + ``stats/`` layout, so one
``ReaderCore`` serves both: it binds the manifest and its epochs, owns
the tombstone set, reads and decodes postings (flat ones and nested
(doc, arraypath) instances alike, as ``PostingList``), and answers term
stats, token totals, stats paths and the highest-live-doc key lookup.
``IndexReader`` (flat: a field is a field id) adds the lazy block path
for block-max WAND and phrase candidates plus the docmap column, zone
map and key lookups; ``JsonIndexReader`` (json_reader.py, a field is a
keypath) adds the values partitions and the stored-JSON fetchers.
"""

from __future__ import annotations

import bisect
import json
import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..build import incremental
from ..build.codec import decode_deltas, decode_position_lists, decode_varint
from ..build.pipeline import MANIFEST_NAME, term_bucket
from ..nputil import sorted_member_mask


@dataclass
class PostingList:
    """Decoded postings of one (field, term), doc-ascending.

    A flat posting is one doc.  A nested posting is one (doc, arraypath)
    string instance, sorted by (doc, arraypath) numerically, and ``aps``
    is the (n × depth) arraypath matrix (depth 0 for array-free keypaths;
    None on flat indexes).

    ``pos_concat`` / ``pos_starts`` are None when the postings were read
    without positions (term / boolean / range evaluation never touches
    them; skipping the positions column halves the segment bytes read and
    the decode work for the hottest stopword terms)."""
    docs: np.ndarray                   # int64
    tfs: np.ndarray                    # int64
    lens: np.ndarray                   # int64 (field length per instance)
    pos_concat: np.ndarray | None      # int64, concatenated position lists
    pos_starts: np.ndarray | None      # int64, per-posting start offsets
    aps: np.ndarray | None = None      # int64 (n, depth), nested only

    @property
    def size(self) -> int:
        return int(self.docs.size)

    def positions_of(self, i: int) -> np.ndarray:
        s = self.pos_starts[i]
        e = s + self.tfs[i]
        return self.pos_concat[s:e]

    def slice_range(self, lo: int, hi: int) -> "PostingList":
        """Postings restricted to doc_ids in [lo, hi) — zero-copy views.
        Used by range-partitioned (distributed) query evaluation."""
        s = int(np.searchsorted(self.docs, lo, side="left"))
        e = int(np.searchsorted(self.docs, hi, side="left"))
        if s == 0 and e == self.size:
            return self
        aps = None if self.aps is None else self.aps[s:e]
        if self.pos_concat is None:
            return PostingList(self.docs[s:e], self.tfs[s:e], self.lens[s:e],
                               None, None, aps)
        p0 = int(self.pos_starts[s]) if s < self.size else len(self.pos_concat)
        p1 = (int(self.pos_starts[e - 1] + self.tfs[e - 1])
              if e > s else p0)
        return PostingList(self.docs[s:e], self.tfs[s:e], self.lens[s:e],
                           self.pos_concat[p0:p1],
                           self.pos_starts[s:e] - p0, aps)

    def restrict_to(self, cand: np.ndarray) -> "PostingList":
        """Postings restricted to the sorted candidate doc ids ``cand``
        (positions gathered per kept posting) — the phrase kernel then
        runs over candidate rows only, not the full posting list."""
        idx = np.searchsorted(cand, self.docs)
        idx[idx == cand.size] = 0  # out-of-range rows can't match
        m = cand[idx] == self.docs
        if m.all():
            return self
        docs, tfs, lens = self.docs[m], self.tfs[m], self.lens[m]
        aps = None if self.aps is None else self.aps[m]
        if self.pos_concat is None:
            return PostingList(docs, tfs, lens, None, None, aps)
        out_starts = _starts(tfs)
        take = (np.repeat(self.pos_starts[m] - out_starts, tfs)
                + np.arange(int(tfs.sum()), dtype=np.int64))
        return PostingList(docs, tfs, lens, self.pos_concat[take],
                           out_starts, aps)


@dataclass
class LazyBlock:
    """One posting block: skip metadata eager, payload FETCHED and decoded
    on demand.  ``max_tf``/``min_len`` are the BM25 block bounds written by
    round-3 builds (0 = unknown: pre-upgrade segment file, BM25 pruning
    falls back to exhaustive scoring).  ``_loader`` fetches this block
    row's raw payload bytes through its segment file's cached skip index
    (one row-group read, footer parsed once per file) — pruned blocks
    never read their payload columns at all."""
    min_doc: int
    max_doc: int
    cnt: int
    max_tf_norm: float
    _docs_raw: bytes | None
    _tfs_raw: bytes | None
    _lens_raw: bytes | None
    _decoded: tuple | None = None
    max_tf: int = 0
    min_len: int = 0
    _loader: "object | None" = None
    _pos_raw: bytes | None = None
    _pos_decoded: np.ndarray | None = None

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docs, tfs, lens), doc-ascending."""
        if self._decoded is None:
            if self._docs_raw is None:
                self._loader(self)
            docs = decode_deltas(self._docs_raw, self.cnt)
            tfs = decode_varint(self._tfs_raw, self.cnt).astype(np.int64)
            lens = decode_varint(self._lens_raw, self.cnt).astype(np.int64)
            self._decoded = (docs, tfs, lens)
        return self._decoded

    def decode_with_positions(self):
        """(docs, tfs, lens, pos_concat) — the candidate-driven phrase
        path decodes positions for ONLY the blocks overlapping its
        candidate docs; every other access path never touches the
        positions payload of this block."""
        if self._pos_decoded is None:
            if self._pos_raw is None:
                self._loader(self, True)
            _, tfs, _ = self.decode()
            self._pos_decoded = decode_position_lists(self._pos_raw, tfs)
        docs, tfs, lens = self.decode()
        return docs, tfs, lens, self._pos_decoded

    @property
    def fetched(self) -> bool:
        return self._docs_raw is not None


def _offsets(arr) -> np.ndarray:
    """The value offsets of a (large_)string / (large_)binary Arrow
    array, as a numpy view (len + 1 entries)."""
    import pyarrow as pa

    wide = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(
        arr.type)
    dt = np.int64 if wide else np.int32
    return np.frombuffer(arr.buffers()[1], dtype=dt, count=len(arr) + 1,
                         offset=arr.offset * np.dtype(dt).itemsize)


def _blob(col) -> list:
    """The concatenated values of a binary column, one bytes-like slice
    per chunk: no Python object per row."""
    out = []
    for ch in col.chunks:
        data = ch.buffers()[2]
        if len(ch) and data is not None:
            o = _offsets(ch)
            out.append(memoryview(data)[int(o[0]):int(o[-1])])
    return out


def _value_slices(col) -> tuple:
    """(value buffer, per-row offsets list) of a binary column: row i's
    bytes are ``buf[offs[i]:offs[i + 1]]``."""
    ch = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    data = ch.buffers()[2]
    return (memoryview(data) if data is not None else memoryview(b""),
            _offsets(ch).tolist())


class _KeyIndex:
    """(field, term) → row range of one file whose rows are sorted by
    (field, term): segment files (several block rows per key) and stats
    files (one row per key).  Each distinct field keeps its row span (a
    dict no larger than the field count), and a term resolves within it
    by binary search over the term column's UTF-8 bytes, the order the
    writer sorted by — no Python object or dict entry per row."""

    def _index_keys(self, field, term) -> None:
        n = len(term)
        self.fields: dict = {}
        if n:
            enc = pc.dictionary_encode(field)
            codes = enc.indices.to_numpy()
            starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
            vals = enc.dictionary.to_pylist()
            for s, e in zip(starts.tolist(), np.r_[starts[1:], n].tolist()):
                self.fields[vals[codes[s]]] = (s, e)
            data = term.buffers()[2]
            self._term_offs = memoryview(_offsets(term))
            self._term_data = b"" if data is None else data.to_pybytes()

    def key_rows(self, fkey, term: str) -> tuple[int, int]:
        """[start, end) of the rows of (fkey, term); empty when absent."""
        span = self.fields.get(fkey)
        if span is None:
            return 0, 0
        offs, data = self._term_offs, self._term_data
        rows, key = range(*span), term.encode("utf-8")

        def term_of(i: int) -> bytes:
            return data[offs[i]:offs[i + 1]]

        return (span[0] + bisect.bisect_left(rows, key, key=term_of),
                span[0] + bisect.bisect_right(rows, key, key=term_of))


class _SegBlockIndex(_KeyIndex):
    """In-memory index of ONE segment file, for both engines: the small
    metadata columns of every block row (field/term/min_doc/max_doc/cnt/
    max_tf_norm and, in the round-3 flat format, max_tf/min_len), the
    (field, term) → row range search of ``_KeyIndex``, and a
    footer-parsed ``ParquetFile`` handle for row-group payload reads.

    The footer and metadata columns are read ONCE per reader and serve
    every query; payload bytes (docs/tfs/lens/positions/aps, the heavy
    columns) are read per ROW GROUP, only for the groups a term's rows
    span: ``read`` for a whole posting list, ``fetch`` for one WAND
    block.  A ``pq.read_table(filters=...)`` per term would re-parse the
    footer and re-evaluate the filter over the whole file on every
    call."""

    def __init__(self, path: str):
        self.path = path
        self.pf = pq.ParquetFile(path)
        names = self.pf.schema_arrow.names
        # every column a read or fetch takes but positions (the heaviest,
        # cached apart): nested files add their arraypaths
        self._payload = ["docs", "tfs", "lens"] + (
            ["aps"] if "aps" in names else [])
        self.has_bounds = "max_tf" in names
        cols = ["field", "term", "min_doc", "max_doc", "cnt",
                "max_tf_norm"]
        if self.has_bounds:
            cols += ["max_tf", "min_len"]
        t = self.pf.read(columns=cols)
        self.min_doc = t.column("min_doc").to_numpy()
        self.max_doc = t.column("max_doc").to_numpy()
        self.cnt = t.column("cnt").to_numpy()
        self.max_tf_norm = t.column("max_tf_norm").to_numpy()
        if self.has_bounds:
            self.max_tf = t.column("max_tf").to_numpy()
            self.min_len = t.column("min_len").to_numpy()
        else:
            self.max_tf = np.zeros(t.num_rows, np.int64)
            self.min_len = np.zeros(t.num_rows, np.int64)
        self._index_keys(t.column("field").combine_chunks(),
                         t.column("term").combine_chunks())
        # uniform row groups (last may be short): ordinal -> group is a
        # division, no per-group scan
        self._rg_rows = (self.pf.metadata.row_group(0).num_rows
                         if self.pf.metadata.num_row_groups else 1)
        self._rg_cache: OrderedDict[tuple, list] = OrderedDict()

    def rows(self, fkey, term: str,
             doc_range: tuple[int, int] | None = None) -> tuple[int, int]:
        """[start, end) of the block rows of (fkey, term), narrowed to
        the blocks overlapping ``doc_range`` (block-granular: a run's
        min_doc and max_doc both ascend, its blocks being disjoint)."""
        s, e = self.key_rows(fkey, term)
        if doc_range is not None and e > s:
            lo, hi = doc_range
            s, e = (s + int(np.searchsorted(self.max_doc[s:e], lo)),
                    s + int(np.searchsorted(self.min_doc[s:e], hi)))
        return s, e

    def _groups(self, g0: int, g1: int, positions: bool) -> list:
        """Cache entries ``[table, buffers]`` of row groups g0..g1: the
        payload table (with the positions column when ``positions``) and
        ``fetch``'s per-column buffer views (None until a fetch needs
        them), through a small LRU of recently read groups keyed (group,
        positions): ``read`` and ``fetch`` share it, so the many short
        runs that share a row group read it once.  Missing groups are
        read in one call."""
        cache, want = self._rg_cache, range(g0, g1 + 1)
        got = {g: cache.get((g, positions)) for g in want}
        miss = [g for g, t in got.items() if t is None]
        for g in want:
            if got[g] is not None:
                cache.move_to_end((g, positions))
        if miss:
            t = self.pf.read_row_groups(
                miss, columns=self._payload + (["positions"] if positions
                                               else []))
            rg = self._rg_rows  # only the file's last group is short
            for i, g in enumerate(miss):
                got[g] = cache[(g, positions)] = [t.slice(i * rg, rg), None]
                if len(cache) > 8:
                    cache.popitem(last=False)
        return [got[g] for g in want]

    def read(self, s: int, e: int, cols: list[str]):
        """Columns ``cols`` (payload, optionally ``positions``) of rows
        [s, e): only the row groups the rows span are read."""
        g0, g1 = s // self._rg_rows, (e - 1) // self._rg_rows
        t = pa.concat_tables(
            [t for t, _ in self._groups(g0, g1, "positions" in cols)])
        return t.slice(s - g0 * self._rg_rows, e - s)

    def fetch(self, blk: "LazyBlock", row: int,
              positions: bool = False) -> None:
        """Assign one block row's payload bytes from its row group
        (footer already parsed; the row-group LRU of ``_groups``), sliced
        from each column's value buffer at its offsets, as ``_blob``
        reads them, with no Arrow scalar per value.
        ``positions=True`` additionally loads the positions column —
        cached separately so position-free access paths never pay for
        the heaviest column."""
        gid = row // self._rg_rows
        entry = self._groups(gid, gid, positions)[0]
        if entry[1] is None:
            entry[1] = [_value_slices(entry[0].column(c)) for c in (
                "docs", "tfs", "lens") + (("positions",) if positions
                                          else ())]
        off = row - gid * self._rg_rows
        raw = [bytes(data[offs[off]:offs[off + 1]])
               for data, offs in entry[1]]
        blk._docs_raw, blk._tfs_raw, blk._lens_raw = raw[:3]
        if positions:
            blk._pos_raw = raw[3]


class _StatsIndex(_KeyIndex):
    """In-memory index of ONE stats file: (field, term, c) read once,
    C of a (field, term) by ``_KeyIndex`` search, and the per-field Σ c
    (token totals)."""

    def __init__(self, path: str):
        t = pq.read_table(path, columns=["field", "term", "c"])
        self.c = t.column("c").to_numpy()
        self._index_keys(t.column("field").combine_chunks(),
                         t.column("term").combine_chunks())
        self.field_c = {f: int(self.c[s:e].sum())
                        for f, (s, e) in self.fields.items()}

    def term_c(self, fkey, term: str) -> int:
        s, e = self.key_rows(fkey, term)
        return int(self.c[s:e].sum())


class _BlockFetch:
    """Bound (segment index, row ordinal) loader for one LazyBlock."""

    __slots__ = ("seg", "row")

    def __init__(self, seg: _SegBlockIndex, row: int):
        self.seg, self.row = seg, row

    def __call__(self, blk: "LazyBlock", positions: bool = False) -> None:
        self.seg.fetch(blk, self.row, positions)


def _zone_value(v, arrow_type=None):
    """Map a Parquet-footer min/max into the engine's RangeQ comparison
    domain (engine._eval_range casts timestamps/dates to int64 in the
    COLUMN'S OWN UNIT and numerics to float64), so the timestamp cast
    must use the column unit — a ns column's stat converted at the
    datetime default (us) would be 1000x off and silently prune
    partitions that match.  Bools pass through; unmappable → None."""
    import datetime

    import pyarrow.types as pt

    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, datetime.datetime):
        unit = (arrow_type.unit if arrow_type is not None
                and pt.is_timestamp(arrow_type) else "us")
        return float(np.datetime64(v.replace(tzinfo=None), unit)
                     .astype(np.int64))
    if isinstance(v, datetime.date):
        return float(np.datetime64(v, "D").astype(np.int64))
    return None


_EMPTY = None


def _empty_postings(depth: int | None = None) -> PostingList:
    """An empty posting list: one shared flat instance, or a nested one
    with a (0 × depth) arraypath matrix."""
    global _EMPTY
    z = np.zeros(0, dtype=np.int64)
    if depth is not None:
        return PostingList(z, z, z, z, z, np.zeros((0, depth), np.int64))
    if _EMPTY is None:
        _EMPTY = PostingList(z, z, z, z, z)
    return _EMPTY


def _starts(tfs: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of ``tfs``: each posting's offset into the
    concatenated position lists."""
    out = np.zeros(tfs.size, dtype=np.int64)
    np.cumsum(tfs[:-1], out=out[1:])
    return out


def _decode_blocks(cnts: np.ndarray, bufs: dict[str, list],
                   depth: int | None) -> PostingList:
    """Decode a term's raw block rows (doc order; ``bufs`` holds each
    stream's bytes as concatenated chunks) in one vectorized pass per
    stream: block doc deltas restart absolute at each block, recovered
    with a segmented-cumsum reset rather than a per-block Python loop.
    ``aps`` is decoded only when ``depth`` is not None; positions only
    when ``bufs`` carries them."""
    cnts = np.asarray(cnts, dtype=np.int64)
    total = int(cnts.sum())
    blk_starts = _starts(cnts)
    run = np.cumsum(decode_varint(b"".join(bufs["docs"]), total)
                    .astype(np.int64))
    # each block's first delta is its absolute min_doc: subtract the
    # running total at each block start (valid: run is non-decreasing)
    base = np.zeros(total, dtype=np.int64)
    base[blk_starts[1:]] = run[blk_starts[1:] - 1]
    docs = run - np.maximum.accumulate(base)
    tfs = decode_varint(b"".join(bufs["tfs"]), total).astype(np.int64)
    lens = decode_varint(b"".join(bufs["lens"]), total).astype(np.int64)
    aps = None
    if depth is not None:
        aps = (decode_varint(b"".join(bufs["aps"]), total * depth)
               .astype(np.int64).reshape(total, depth))
    if "positions" not in bufs:
        return PostingList(docs, tfs, lens, None, None, aps)
    pos = decode_position_lists(b"".join(bufs["positions"]), tfs)
    return PostingList(docs, tfs, lens, pos, _starts(tfs), aps)


def _concat(parts: list[PostingList], need_positions: bool) -> PostingList:
    """Doc-ordered posting lists (base, then epochs) as one list."""
    tfs = np.concatenate([p.tfs for p in parts])
    pos = starts = None
    if need_positions:
        pos = np.concatenate([p.pos_concat for p in parts])
        starts = _starts(tfs)
    aps = (None if parts[0].aps is None
           else np.vstack([p.aps for p in parts]))
    return PostingList(np.concatenate([p.docs for p in parts]), tfs,
                       np.concatenate([p.lens for p in parts]), pos, starts,
                       aps)


class ReaderCore:
    """The index-wide half of a reader, shared by the flat
    ``IndexReader`` and the nested ``JsonIndexReader``: manifest binding,
    epochs, tombstones, the postings read + decode, term stats, token
    totals and the highest-live-doc key lookup.

    A reader binds to the index as published at construction time: the
    base manifest plus every published epoch (incremental add,
    build/incremental.py).  Epoch postings, stats and docmaps merge here
    — the multi-segment analogue of the reference's snapshot over one
    LSM (/root/reference/src/snapshot.rs:17-67).

    A subclass supplies how a field resolves to the segments' ``field``
    value (``_field_key``; ``_FIELD_TYPE`` types the manifest's
    ``field_k`` keys), its term bucket function (``_bucket``) and the
    arraypath depth of a field's postings (``_aps_depth``: None when the
    segments carry no ``aps`` column)."""

    _NESTED = False  # the manifest "nested" flag this reader opens

    def __init__(self, index_dir: str, _is_epoch: bool = False):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
            self.manifest = json.load(f)
        nested = bool(self.manifest.get("nested"))
        if nested != self._NESTED:
            kind, cls = (("a nested-JSON", "JsonIndexReader") if nested
                         else ("a flat", "IndexReader"))
            raise ValueError(
                f"{index_dir} is {kind} index: open it with {cls}")
        # manifests store index-relative paths (relocatable directory);
        # absolutize once here — older absolute-path manifests pass through
        for part in ("docmap", "values", "segments", "stats"):
            for e in self.manifest.get(part, []):
                if not os.path.isabs(e["path"]):
                    e["path"] = os.path.join(index_dir, e["path"])
        self.num_buckets: int = self.manifest["num_buckets"]
        self.num_ranges: int = self.manifest["num_ranges"]
        self.num_docs: int = (int(self.manifest.get("doc_id_offset", 0))
                              + int(self.manifest["num_docs"]))
        self.field_k = {self._FIELD_TYPE(k): v
                        for k, v in self.manifest["field_k"].items()}
        self._docmap = list(self.manifest["docmap"])
        # epochs (never nested: an epoch index has no epochs/ dir); every
        # epoch's doc_ids exceed all earlier ones
        self._epochs = [] if _is_epoch else [
            type(self)(d, _is_epoch=True)
            for d in incremental._epoch_dirs(index_dir)]
        for e in self._epochs:
            self.num_docs = max(self.num_docs, e.num_docs)
            for f, k in e.field_k.items():
                self.field_k[f] = self.field_k.get(f, 0) + k
            self._docmap.extend(e._docmap)
        self._seg_by_gkey = {s["gkey"]: s["path"]
                             for s in self.manifest["segments"]}
        # one stats partition per shuffle group; a bucket spans num_ranges
        # groups, so stats lookups sum across the bucket's partitions
        self._stats_by_bucket: dict[int, list[str]] = {}
        for s in self.manifest["stats"]:
            self._stats_by_bucket.setdefault(s["bucket"], []).append(s["path"])
        self._postings_cache: dict[tuple, PostingList] = {}
        self._stats_cache: dict[tuple, tuple[int, int]] = {}
        self._token_totals: dict = {}
        # per-file indexes (key columns read once), built on first use
        self._seg_index_cache: dict[str, _SegBlockIndex] = {}
        self._stats_index_cache: dict[str, _StatsIndex] = {}
        # tombstoned doc_ids (Lucene-style deletes: hidden from every query,
        # stats unchanged until a rebuild — the segment-tombstone design
        # SURVEY §2.10 reserves for the reference's Index::delete,
        # /root/reference/src/index.rs:164-179)
        self.tombstones = incremental.read_tombstones(index_dir)

    def add_tombstones(self, doc_ids) -> int:
        """Mark docs deleted (atomic publish); returns the tombstone count."""
        self.tombstones = incremental.add_tombstones(self.index_dir, doc_ids)
        return int(self.tombstones.size)

    def _highest_live(self, filters) -> int | None:
        """The highest non-tombstoned doc_id among the docmap rows matching
        ``filters`` — upsert semantics: the latest version of a key wins
        (the analogue of the reference's I<id> lookup,
        src/key_builder.rs:104-109).  Partitions ascend in doc id (base,
        then epochs), so the walk goes newest-first and stops at the
        first partition holding a live match."""
        for dm in reversed(self._docmap):
            ids = pq.read_table(dm["path"], columns=["doc_id"],
                                filters=filters).column("doc_id").to_numpy()
            live = ids[~sorted_member_mask(self.tombstones, ids)]
            if live.size:
                return int(live.max())
        return None

    # ---------------------------------------------------------- postings

    def _seg_index(self, path: str) -> _SegBlockIndex:
        """Per-segment-file index (footer + small key and block-metadata
        columns), built once per reader and shared by every lookup."""
        idx = self._seg_index_cache.get(path)
        if idx is None:
            idx = self._seg_index_cache[path] = _SegBlockIndex(path)
        return idx

    def _stats_index(self, path: str) -> _StatsIndex:
        """Per-stats-file index, built once per reader."""
        idx = self._stats_index_cache.get(path)
        if idx is None:
            idx = self._stats_index_cache[path] = _StatsIndex(path)
        return idx

    def _seg_paths(self, fkey, term: str) -> list[str]:
        """The segment files of (fkey, term)'s bucket, in range order."""
        bucket = self._bucket(fkey, term)
        return [p for p in (self._seg_by_gkey.get(bucket * self.num_ranges
                                                  + rng)
                            for rng in range(self.num_ranges))
                if p is not None]

    def postings(self, field, term: str, need_positions: bool = True,
                 doc_range: tuple[int, int] | None = None) -> PostingList:
        """Decoded postings of one (field, term), doc-ascending.

        ``need_positions=False`` (term / boolean / range evaluation) skips
        reading AND decoding the positions column — roughly half the bytes
        of a stopword's postings.  ``doc_range=(lo, hi)`` narrows the
        term's block rows to those overlapping the range (``max_doc >=
        lo``, ``min_doc < hi``) so a range-partitioned worker decodes only
        its slice of each posting list, not the whole corpus's.  Each
        segment file resolves the rows through its cached index
        (``_SegBlockIndex``) and reads only the row groups they span.
        Reads are block-granular SUPERSETS of the range (a cached full
        list serves every range as is): callers slice to ``[lo, hi)``."""
        fkey = self._field_key(field)
        if fkey is None:
            return _empty_postings()
        full = (fkey, term)
        key = full if doc_range is None else (fkey, term, doc_range)
        for k in (key, full):
            hit = self._postings_cache.get(k)
            if hit is not None and (not need_positions
                                    or hit.pos_concat is not None
                                    or hit.size == 0):
                return hit
        depth = self._aps_depth(fkey)
        cols = ["docs", "tfs", "lens"]
        if depth is not None:
            cols.append("aps")
        if need_positions:
            cols.append("positions")
        cnts: list[np.ndarray] = []
        bufs: dict[str, list] = {c: [] for c in cols}
        for path in self._seg_paths(fkey, term):
            seg = self._seg_index(path)
            s, e = seg.rows(fkey, term, doc_range)
            if e > s:
                cnts.append(seg.cnt[s:e])
                t = seg.read(s, e, cols)
                for c in bufs:
                    bufs[c].extend(_blob(t.column(c)))
        parts = ([_decode_blocks(np.concatenate(cnts), bufs, depth)]
                 if cnts else [])
        # epoch postings: every epoch's doc_ids exceed all earlier ones,
        # so appending in epoch order preserves global doc order
        for e in self._epochs:
            pl = e.postings(fkey, term, need_positions, doc_range)
            if pl.size:
                parts.append(pl)
        if not parts:
            pl = _empty_postings(depth)
        else:
            pl = (parts[0] if len(parts) == 1
                  else _concat(parts, need_positions))
            # one flat posting per doc; nested postings are instances,
            # several per doc
            if (np.diff(pl.docs) < (1 if depth is None else 0)).any():
                raise AssertionError(f"postings for {key} not doc-sorted")
        if len(self._postings_cache) < 4096 or key in self._postings_cache:
            self._postings_cache[key] = pl
        return pl

    # ------------------------------------------------------------- stats

    def term_stats(self, field, term: str) -> tuple[int, int]:
        """(C, K) for the scorer: C = index-wide total occurrences of the
        term under the field (the reference's merge-summed ``C`` key), K =
        the field's total (instance × distinct-stem) count (``K`` key)."""
        fkey = self._field_key(field)
        if fkey is None:
            return (0, 0)
        key = (fkey, term)
        hit = self._stats_cache.get(key)
        if hit is None:
            paths = self._stats_by_bucket.get(self._bucket(fkey, term), ())
            c = sum(self._stats_index(p).term_c(fkey, term) for p in paths)
            c += sum(e.term_stats(fkey, term)[0] for e in self._epochs)
            # field_k was merged across epochs at construction time
            hit = (c, int(self.field_k.get(fkey, 0)))
            self._stats_cache[key] = hit
        return hit

    def token_total(self, field) -> int:
        """Σ term-occurrence counts (stats ``c``) under one field: its
        corpus token total, the BM25 avgdl numerator (``field_k`` is the
        reference's K = distinct (instance, stem) count, not this).  The
        per-field sums of each stats file's index (term-cardinality-sized,
        no posting payload), memoized; epochs recurse."""
        fkey = self._field_key(field)
        if fkey is None:
            return 0
        hit = self._token_totals.get(fkey)
        if hit is None:
            hit = sum(self._stats_index(p).field_c.get(fkey, 0)
                      for ps in self._stats_by_bucket.values() for p in ps)
            hit += sum(e.token_total(fkey) for e in self._epochs)
            self._token_totals[fkey] = hit
        return hit

    def stats_paths(self) -> list[str]:
        """Every stats-sidecar partition of the index, epochs included."""
        out = [p for ps in self._stats_by_bucket.values() for p in ps]
        for e in self._epochs:
            out.extend(e.stats_paths())
        return out


class IndexReader(ReaderCore):
    """Reader of a flat index: a field resolves to its manifest field id.
    Adds the lazy posting-block access path (``term_blocks``,
    ``positions_for_docs``) and the docmap readers (column fetch, zone
    maps, key lookup)."""

    _FIELD_TYPE = int

    def __init__(self, index_dir: str, _is_epoch: bool = False):
        super().__init__(index_dir, _is_epoch)
        self.fields: list[str] = self.manifest["fields"]
        self.field_id = {f: i for i, f in enumerate(self.fields)}
        self._block_cache: dict[tuple, list] = {}
        self._docmap_col_cache: OrderedDict = OrderedDict()
        self._docmap_cache_bytes = 0
        # zone maps: per-(docmap partition, column) footer statistics
        self._zone_cache: dict[tuple[str, str], tuple] = {}
        self._docmap_meta: dict[str, "pq.FileMetaData"] = {}

    def _field_key(self, field: str | int) -> int | None:
        fid = field if isinstance(field, int) else self.field_id.get(field, -1)
        return fid if fid >= 0 else None

    def _bucket(self, fid: int, term: str) -> int:
        return term_bucket(term, self.num_buckets)

    def _aps_depth(self, fid: int) -> None:
        return None

    def lookup_doc(self, conv_id: str, turn_idx: int) -> int | None:
        """Resolve a (key columns) identity to its live doc_id."""
        keys = list(self.manifest["key_columns"])
        if keys[0] == "doc_id":
            # the internal doc_id column shadows a doc_id key column;
            # the SOURCE key rides as src_doc_id in the docmap
            names = pq.read_schema(self._docmap[0]["path"]).names
            if "src_doc_id" in names:
                keys[0] = "src_doc_id"
        filters = [(keys[0], "==", conv_id)]
        if len(keys) > 1:
            filters.append((keys[1], "==", turn_idx))
        return self._highest_live(filters)

    # ------------------------------------------------- lazy posting blocks

    def term_blocks(self, field: str | int, term: str,
                    doc_range: tuple[int, int] | None = None
                    ) -> list["LazyBlock"]:
        """Per-block view of a term's postings with skip metadata
        (min_doc/max_doc/cnt/max_tf_norm + BM25 max_tf/min_len when the
        segment format carries them) served from the in-memory segment
        skip index; payload bytes are NOT read until a block is decoded
        (then one row-group read through the cached footer) — the
        block-max WAND access path never touches the payload of pruned
        blocks.  ``doc_range`` masks to overlapping blocks
        (block-granular like ``postings``).  Blocks are doc-range sorted
        and disjoint."""
        fid = self._field_key(field)
        if fid is None:
            return []
        key = (fid, term) if doc_range is None else (fid, term, doc_range)
        hit = self._block_cache.get(key)
        if hit is not None:
            return hit
        if doc_range is not None:
            full = self._block_cache.get((fid, term))
            if full is not None:
                # the cached full block list serves any range (block-granular)
                sub = [b for b in full if b.max_doc >= doc_range[0]
                       and b.min_doc < doc_range[1]]
                if len(self._block_cache) < 4096:
                    self._block_cache[key] = sub
                return sub
        blocks: list[LazyBlock] = []
        for path in self._seg_paths(fid, term):
            seg = self._seg_index(path)
            s, e = seg.rows(fid, term, doc_range)
            for row in range(s, e):
                blocks.append(LazyBlock(
                    min_doc=int(seg.min_doc[row]),
                    max_doc=int(seg.max_doc[row]),
                    cnt=int(seg.cnt[row]),
                    max_tf_norm=float(seg.max_tf_norm[row]),
                    _docs_raw=None, _tfs_raw=None, _lens_raw=None,
                    max_tf=int(seg.max_tf[row]),
                    min_len=int(seg.min_len[row]),
                    _loader=_BlockFetch(seg, row),
                ))
        for e in self._epochs:
            blocks.extend(e.term_blocks(fid, term, doc_range))
        blocks.sort(key=lambda b: b.min_doc)
        if len(self._block_cache) < 4096:
            self._block_cache[key] = blocks
        return blocks

    def positions_for_docs(self, field: str | int, term: str,
                           cand: np.ndarray,
                           doc_range: tuple[int, int] | None = None
                           ) -> PostingList:
        """Positional postings of one (field, term) restricted to the
        sorted candidate doc ids ``cand`` — the phrase access path: the
        doc-set intersection (position-free, cheap) picks candidates
        first, then ONLY the blocks containing a candidate fetch and
        decode their positions payload.  A phrase pairing a rare word
        with a stopword decodes the stopword's positions for a handful
        of blocks instead of the whole corpus."""
        blocks = self.term_blocks(field, term, doc_range)
        d_p, t_p, l_p, p_p = [], [], [], []
        for bl in blocks:
            i = int(np.searchsorted(cand, bl.min_doc, side="left"))
            if i == cand.size or cand[i] > bl.max_doc:
                continue  # no candidate in this block: positions unread
            docs, tfs, lens, pos = bl.decode_with_positions()
            idx = np.searchsorted(cand, docs)
            idx[idx == cand.size] = 0  # out-of-range rows can't match
            m = cand[idx] == docs
            if not m.any():
                continue
            d_p.append(docs[m])
            t_p.append(tfs[m])
            l_p.append(lens[m])
            # gather the kept postings' position segments
            keep_tfs = tfs[m]
            out_starts = _starts(keep_tfs)
            take = (np.repeat(_starts(tfs)[m] - out_starts, keep_tfs)
                    + np.arange(int(keep_tfs.sum()), dtype=np.int64))
            p_p.append(pos[take])
        if not d_p:
            return _empty_postings()
        tfs = np.concatenate(t_p)
        return PostingList(np.concatenate(d_p), tfs, np.concatenate(l_p),
                           np.concatenate(p_p), _starts(tfs))


    # ------------------------------------------------------------ docmap

    # decoded docmap-column LRU budget: sized so a dictionary-encoded
    # metadata column of a ~10^7-doc index stays resident (a single string
    # column at 22M rows is ~200 MB; thrashing it re-reads every partition
    # per query)
    _DOCMAP_CACHE_CAP = 1 << 30

    def _docmap_col(self, path: str, col: str):
        """LRU-cached decoded docmap column (combine-chunked Array)."""
        key = (path, col)
        hit = self._docmap_col_cache.get(key)
        if hit is not None:
            self._docmap_col_cache.move_to_end(key)
            return hit
        arr = pq.read_table(path, columns=[col]).column(col).combine_chunks()
        self._docmap_col_cache[key] = arr
        self._docmap_cache_bytes += arr.nbytes
        while (self._docmap_cache_bytes > self._DOCMAP_CACHE_CAP
               and len(self._docmap_col_cache) > 1):
            _, old = self._docmap_col_cache.popitem(last=False)
            self._docmap_cache_bytes -= old.nbytes
        return arr

    def docmap_zone(self, path: str, col: str):
        """Zone map of one docmap partition column, read from the Parquet
        footer statistics (never the data pages): ``(vmin, vmax,
        null_count, num_rows)``.  The reference keeps a dedicated
        number/bool/null value keyspace (``f``/``T``/``F``/``N``,
        /root/reference/src/key_builder.rs:163-188); our columnar analogue
        is the min/max statistics Parquet already persists per row group —
        RangeQ evaluation prunes whole partitions on them before touching
        any data (engine._eval_range).

        ``vmin``/``vmax`` are mapped into the engine's comparison domain
        (numbers as float64; timestamps/dates as their int64 cast; bools
        kept as bools) and are None when the footer has no usable stats
        for the column — callers must then fall back to reading.
        ``null_count`` is None when unavailable."""
        key = (path, col)
        hit = self._zone_cache.get(key)
        if hit is not None:
            return hit
        md = self._docmap_meta.get(path)
        if md is None:
            md = self._docmap_meta[path] = pq.read_metadata(path)
        try:
            schema = md.schema.to_arrow_schema()
            ci = schema.names.index(col)
            arrow_type = schema.field(ci).type
        except ValueError:
            out = (None, None, None, 0)
            self._zone_cache[key] = out
            return out
        vmin = vmax = None
        null_count: int | None = 0
        rows = 0
        ok = True
        for rg in range(md.num_row_groups):
            c = md.row_group(rg).column(ci)
            rows += md.row_group(rg).num_rows
            st = c.statistics
            if st is None:
                ok = False
                null_count = None
                break
            if st.null_count is None:
                null_count = None
            elif null_count is not None:
                null_count += st.null_count
            if not st.has_min_max:
                # all-null row groups legitimately carry no min/max
                if st.null_count == md.row_group(rg).num_rows:
                    continue
                ok = False
                continue
            lo = _zone_value(st.min, arrow_type)
            hi = _zone_value(st.max, arrow_type)
            if lo is None or hi is None:
                ok = False
                continue
            import pyarrow.types as _pt

            if _pt.is_timestamp(arrow_type) and arrow_type.unit == "ns":
                # footer stats surface as datetimes (us precision): widen
                # by the truncation so boundary rows never prune away
                lo -= 1000.0
                hi += 1000.0
            vmin = lo if vmin is None else min(vmin, lo)
            vmax = hi if vmax is None else max(vmax, hi)
        out = ((vmin, vmax, null_count, rows) if ok
               else (None, None, null_count, rows))
        self._zone_cache[key] = out
        return out

    def fetch_docs(self, doc_ids: np.ndarray, columns: list[str] | None = None):
        """Materialize doc rows for result rendering (the analogue of the
        reference's V-key fetches, src/snapshot.rs:233-433).

        Docmap partitions hold contiguous doc_id ranges, so a doc's row index
        inside its partition is ``doc_id - min_doc`` — lookups are pure
        vectorized gathers on LRU-cached columns, no filter expressions.
        Rows come back in ``doc_ids`` order."""
        import pyarrow as pa

        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if columns is None:
            schema = pq.read_schema(self._docmap[0]["path"])
            columns = [n for n in schema.names if n != "doc_id"]
        sorted_ids = np.sort(doc_ids)
        col_parts: dict[str, list] = {c: [] for c in columns}
        for dm in self._docmap:
            lo, hi = dm["min_doc"], dm["max_doc"]
            s = np.searchsorted(sorted_ids, lo, side="left")
            e = np.searchsorted(sorted_ids, hi, side="right")
            if e <= s:
                continue
            idx = pa.array(sorted_ids[s:e] - lo, pa.int64())
            for c in columns:
                col_parts[c].append(self._docmap_col(dm["path"], c).take(idx))
        out = {"doc_id": pa.array(sorted_ids, pa.int64())}
        for c in columns:
            if col_parts[c]:
                out[c] = pa.concat_arrays(
                    [a if isinstance(a, pa.Array) else a.combine_chunks()
                     for a in col_parts[c]])
            else:
                out[c] = pa.array([], pa.string())
        full = pa.table(out)
        if doc_ids.size and not np.array_equal(sorted_ids, doc_ids):
            # restore caller order
            pos = np.searchsorted(sorted_ids, doc_ids)
            full = full.take(pa.array(pos, pa.int64()))
        return full

    def doc_values(self, doc_ids: np.ndarray, column: str) -> list:
        t = self.fetch_docs(doc_ids, [column])
        return t.column(column).to_pylist()
