"""Index build pipeline (Ray Data).

Logical stages, mirroring the reference ingest path
(/root/reference/src/index.rs:131-161 ``add`` → shred → postings → counts)
re-expressed as ONE streaming Ray Data execution — or, when the input fits
one ingest task (``DOCS_PER_TASK`` docs or fewer, e.g. an incremental
add), as the same stage functions called in the driver, with no Ray Data
job at all (the reference's in-process ``add`` + flush).  Both routes
write byte-identical files.  ``run_build`` is the one driver of both
engines (sizing, route, stage 3, manifest); ``build_index`` and the
nested ``json_pipeline.build_json_index`` supply only their plan rows and
stage chain:

  stage 1  ingest+docmap   per input file task: assign dense doc_ids from the
                           metadata plan, verify/establish (conv_id, turn_idx)
                           order, write `docmap-*.parquet` (the doc store —
                           the analogue of noise's V keyspace) as a side
                           effect, and EMIT the sorted (doc_id, fields…)
                           table downstream — no write+read-back round trip.
                           Written under ``DOCMAP_WRITE`` (zstd, delta-coded
                           integer and timestamp columns, a small
                           dictionary page on the other string columns,
                           statistics on every column: ``parquet_options``).
                           Idempotent (tmp+rename), resumable per file.
  stage 2  tokenize        task ``map_batches`` over zero-copy Arrow
                           batches → per-(field, term) PRE-COMBINED posting
                           runs, built as Arrow/numpy arrays end to end
                           (``batch_tokens``): ASCII rows are split for
                           the whole column by numpy byte classes over its
                           offsets and UTF-8 buffer (``ascii_word_tokens``),
                           an ASCII row with no kept token is its own
                           token, and the raw tokens get term ids from one
                           ``pc.index_in`` against the process-wide
                           ``TermTable``, so only a raw token never seen
                           before reaches the stemmer; only non-ASCII rows
                           go through the per-text ``tokenize_grouped``.
                           ``group_postings`` lays the tokens out posting
                           by posting with one argsort of a packed key;
                           the nested build's ``ShredTokenize`` calls the
                           same kernel with keypaths as groups and string
                           values as instances.  The runs are
                           cut into finished blocks and already
                           delta+varint ENCODED (ascending doc order) with
                           a shuffle key `gkey` = (term bucket, doc range).
                           Replicates src/json_shred.rs:148-203 with a
                           map-side combiner: the wide shuffle moves one
                           ~2B/posting binary row per (task, field, term),
                           not one 20B+ row per posting.  Encoding is
                           batch-level (``encode_posting_blocks``): each
                           stream is encoded by ONE codec call over the
                           whole batch, block metadata comes from
                           ``reduceat`` over the row starts, and the bytes
                           are sliced into rows — no per-block Python loop.
  stage 3  shuffle+write   ``groupby(gkey).map_groups`` → segment writer.
                           ``write_segment_group`` is the ONE writer of the
                           segment / stats format; its callers are this
                           stage (``_write_segment_group``, both engines,
                           Ray and in-process), ``merge_epochs`` and the
                           split (build/merge.py).  It orders the finished
                           blocks by (field, term, min_doc) and writes them
                           through (runs are doc-disjoint — each ingest
                           task owns a contiguous doc range — and arrive
                           pre-chunked to block_size with block-max
                           metadata, so no posting is decoded or
                           re-encoded here), then writes `seg-*.parquet`
                           AND the group's term-stats partition
                           `stats-*.parquet` (C = Σ tf and K-contribution
                           = Σ postings per (field, term) — the
                           reference's merge-summed C/K counters,
                           src/key_builder.rs:84-102, computed locally
                           since a (field, term) run lives wholly inside
                           its shuffle group).  Only the segment row-group
                           size differs per engine (``segment_row_group``):
                           a flat file's groups hold ~64 KiB of payload
                           each (perfbench block rows carry 49 B on
                           average, 5 B at the median) but at least 64
                           rows (FLAT_ROW_GROUP), a nested file's 2048
                           rows (NESTED_ROW_GROUP).  Both files are
                           snappy, with no dictionary pages, delta-coded
                           integer and sorted string columns, length-
                           delta payload blobs and min/max statistics
                           only on the columns filtered reads prune row
                           groups by:
                           field/term/min_doc/max_doc for the split's
                           reads (SEGMENT_WRITE), field/term for the df
                           lookups (STATS_WRITE).  Idempotent, resumable per
                           group (committed groups are filtered before the
                           shuffle); commit order stats→segment so a
                           segment file's presence implies its stats exist.
  stage 4  manifest        atomic manifest.json publish (the analogue of the
                           reference's atomic WriteBatch flush,
                           src/index.rs:218-227), assembled from the plan
                           metadata + writer acks — no re-read of payloads.

Hot-term skew is handled structurally: the shuffle key includes the doc
range, so a hot term's postings split across `num_ranges` groups, each
bounded; the per-term posting list is the doc-ordered concatenation of its
blocks across range files (a streaming merge at query time).

``num_buckets`` (the shuffle fan-out) defaults to ``bucket_count``: one
bucket for a build of at most one ingest task's docs, so a small epoch is
one segment file and one stats file, else one per 200k docs (32 to
4096).  Every index and epoch records its own count (and
``docs_per_range``, the group memory bound) in its manifest, and readers
route a term with each manifest's own count, so an epoch need not share
its base's count; merges re-bucket rows written under another count
(``row_buckets``).  At 10^12-turn scale, tune ``docs_per_range`` and
``num_buckets`` together.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
import uuid
import zlib
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..analysis.tokenizer import (_norm_lower_stem, ascii_word_tokens,
                                  tokenize_grouped)
from .codec import (encode_deltas, encode_position_lists, encode_varint,
                    varint_ends)
from .docids import FilePlan, plan_doc_ids, sorted_key_indices

DEFAULT_FIELDS = ("role", "text", "tool")
MANIFEST_NAME = "manifest.json"
# Segment row-group sizes (``segment_row_group``).  A flat file's row
# groups are sized by its own payload bytes: readers read payload by row
# group (query/reader.py ``_SegBlockIndex``), and a row group's bytes
# follow its rows' postings, not ``block_size``.  On the perfbench
# transcripts most terms are rare, so a block row's payload (docs + tfs
# + lens + positions) is 5 B at the median (1 B of positions) and 49 B
# on average in an 8k-turn build: fixed 64-row groups held ~3 KB each,
# 146 of them in a 985 KB file with a 112 KB footer.  64 KiB groups make
# it 8 groups of 1328 rows in 630 KB.  Files of heavier rows keep the
# 64-row floor (FLAT_ROW_GROUP): the sf0.1 bench build's 32 bucket files
# (hot terms at block_size 4096, ~3.3 KB per block row) would get ~20-row
# groups, 267 in 14.07 MB against 76 in 13.69 MB at 64 rows, and each
# group costs fixed write time in the small key columns.  Nested
# files keep 2048 rows (64-row groups grew nested segments 3.4 → 6.3 MB
# on a 40k-turn transcript corpus).
FLAT_ROW_GROUP_BYTES = 64 * 1024
FLAT_ROW_GROUP = 64
NESTED_ROW_GROUP = 2048
# The Parquet writer policy of the four index file kinds, one dict each:
# codec, the columns that carry min/max statistics (None: all), the
# string columns whose rows are sorted, and the row-group size (the
# segment's comes from ``segment_row_group``).  ``parquet_options`` turns
# a policy and a table's schema into writer properties, each column's
# encoding following from its Arrow type:
# - integer and temporal columns: DELTA_BINARY_PACKED (the docmap's dense
#   ``doc_id`` 45 KB → 92 B, ``ts`` 69 KB → 3.4 KB on a perfbench 8k-turn
#   build);
# - sorted string columns (``term``, and ``field`` where it holds nested
#   keypaths): DELTA_BYTE_ARRAY, the shared prefix of neighbours stored
#   once;
# - binary columns (the varint payloads docs / tfs / lens / positions /
#   aps, unique blobs): DELTA_LENGTH_BYTE_ARRAY;
# - other string columns: a dictionary under ``DICT_PAGE_LIMIT``, so a
#   high-cardinality ``text`` or ``json`` column falls back to plain at
#   once rather than after ~1 MB of dictionary;
# - everything else (floats, bools): plain.
# Docmap and values files take zstd: they are the stored documents, read
# by doc-range scans and key lookups that decode whole pages anyway.
# Segment and stats files keep snappy, because zstd added about 6 ms to
# each 8k-turn segment write.  Statistics: the docmap's footer min/max
# feed the reader's zone maps (``IndexReader.docmap_zone``), the doc-id
# plan (``docids.plan_doc_ids``) and the key lookups, and values files
# are filtered by kp / doc_id, so both keep them on every column;
# segment and stats files carry them only on the columns filtered reads
# prune row groups by: (field, term, max_doc, min_doc) in the split's
# doc-range read (build/merge.py) and (field, term) in the ``ops/aggs``
# df lookups.  The reader reads the key columns whole into a per-file
# index and payload row groups by ordinal (``query.reader.
# _SegBlockIndex`` / ``_StatsIndex``).  Readers never depend on the
# encodings: Parquet files describe their own, so files written under
# older policies read the same.
DICT_PAGE_LIMIT = 64 * 1024
SEGMENT_WRITE = {"compression": "snappy",
                 "statistics": ["field", "term", "min_doc", "max_doc"],
                 "sorted": ("field", "term")}
STATS_WRITE = {"compression": "snappy", "statistics": ["field", "term"],
               "sorted": ("field", "term"), "row_group_size": 8192}
DOCMAP_WRITE = {"compression": "zstd", "statistics": None, "sorted": (),
                "row_group_size": 65536}
VALUES_WRITE = {"compression": "zstd", "statistics": None, "sorted": (),
                "row_group_size": 16384}


def _leaves(field: pa.Field, prefix: str = ""):
    """(Parquet column path, Arrow type) of each leaf column of ``field``
    (lists and structs descend; other nested types are skipped)."""
    path, t = prefix + field.name, field.type
    if pa.types.is_dictionary(t):
        t = t.value_type
    if pa.types.is_struct(t):
        for i in range(t.num_fields):
            yield from _leaves(t.field(i), path + ".")
    elif (pa.types.is_list(t) or pa.types.is_large_list(t)
          or pa.types.is_fixed_size_list(t)):
        yield from _leaves(pa.field("element", t.value_type),
                           path + ".list.")
    elif not pa.types.is_nested(t):
        yield path, t


def parquet_options(schema: pa.Schema, policy: dict) -> dict:
    """``pq.write_table`` keywords of one index file: ``policy`` (one of
    ``SEGMENT_WRITE``, ``STATS_WRITE``, ``DOCMAP_WRITE``,
    ``VALUES_WRITE``) applied to ``schema``, each column encoded by its
    Arrow type (the policy comment above)."""
    dictionary, encoding = [], {}
    for f in schema:
        for path, t in _leaves(f):
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                if path in policy["sorted"]:
                    encoding[path] = "DELTA_BYTE_ARRAY"
                else:
                    dictionary.append(path)
            elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
                encoding[path] = "DELTA_LENGTH_BYTE_ARRAY"
            elif pa.types.is_integer(t) or pa.types.is_temporal(t):
                encoding[path] = "DELTA_BINARY_PACKED"
    stats = policy["statistics"]
    return {"compression": policy["compression"],
            "use_dictionary": dictionary,
            "dictionary_pagesize_limit": DICT_PAGE_LIMIT,
            "column_encoding": encoding,
            "write_statistics": True if stats is None else stats}


# Docs one ingest task takes at the least, per engine.  A build of at most
# this many docs is one task anyway, so it runs in the driver with no Ray
# Data job (``run_build``).  The floors stay apart: the flat one would cut
# the sf0.1 nested build from 20 ingest tasks to 2, a change in
# parallelism not yet measured on a many-CPU host.
DOCS_PER_TASK = 16384
NESTED_DOCS_PER_TASK = 1024


def term_bucket(term: str, num_buckets: int) -> int:
    return zlib.crc32(term.encode("utf-8")) % num_buckets


def bucket_count(num_docs: int, nested: bool) -> int:
    """The term-bucket count of a build (or merged epoch) of ``num_docs``
    docs: 1 up to the engine's one-task size (``DOCS_PER_TASK`` flat,
    ``NESTED_DOCS_PER_TASK`` nested), where there is no shuffle for
    buckets to spread and each bucket only adds a segment and a stats
    file; above it, one bucket per 200k docs, floor 32, cap 4096.  The
    rule reads only the doc count, never the route, so the driver and
    Ray routes of one corpus write the same files."""
    if num_docs <= (NESTED_DOCS_PER_TASK if nested else DOCS_PER_TASK):
        return 1
    return max(32, min(4096, -(-num_docs // 200_000)))


def segment_row_group(seg: pa.Table) -> int:
    """Rows per row group of one segment file (uniform per file: the
    reader finds a row's group by division).  Nested files (their rows
    carry ``aps``): ``NESTED_ROW_GROUP``.  Flat files: the row count
    that holds ``FLAT_ROW_GROUP_BYTES`` of payload (docs + tfs + lens +
    positions) at the file's mean row size, at least ``FLAT_ROW_GROUP``
    and at most the file's rows.  Read only from the rows, so every
    route and merge writes the same file."""
    if "aps" in seg.column_names:
        return NESTED_ROW_GROUP
    rows = seg.num_rows
    payload = sum(pc.sum(pc.binary_length(seg.column(c))).as_py() or 0
                  for c in ("docs", "tfs", "lens", "positions"))
    if not payload:
        return max(rows, 1)
    return max(1, min(rows, max(FLAT_ROW_GROUP,
                                -(-FLAT_ROW_GROUP_BYTES * rows // payload))))


def row_buckets(rows: pa.Table, num_buckets: int, nested: bool) -> np.ndarray:
    """Each posting-block row's term bucket under ``num_buckets``:
    ``term_bucket`` of its term (flat) or ``kp_term_bucket`` of its
    (keypath, term) (nested).  Hashes each distinct (field, term) once.
    Merges use it to re-bucket rows written under another count."""
    if num_buckets == 1 or not rows.num_rows:
        return np.zeros(rows.num_rows, dtype=np.int64)
    from .json_pipeline import kp_term_bucket

    fenc = pc.dictionary_encode(rows.column("field").combine_chunks())
    tenc = pc.dictionary_encode(rows.column("term").combine_chunks())
    pair = (fenc.indices.to_numpy().astype(np.int64) * len(tenc.dictionary)
            + tenc.indices.to_numpy())
    uniq, inv = np.unique(pair, return_inverse=True)
    fields = fenc.dictionary.to_pylist()
    terms = tenc.dictionary.to_pylist()
    nt = len(terms)
    hashed = np.fromiter(
        (kp_term_bucket(fields[u // nt], terms[u % nt], num_buckets)
         if nested else term_bucket(terms[u % nt], num_buckets)
         for u in uniq.tolist()), dtype=np.int64, count=uniq.size)
    return hashed[inv]


def _atomic_write_table(table: pa.Table, path: str,
                        row_group_size: int | None = None,
                        policy: dict | None = None):
    """Write ``table`` to ``path`` via a temp file and a rename.  An index
    file passes its kind's ``policy`` (``parquet_options``; its
    ``row_group_size`` unless one is given); other files get Parquet's
    defaults in 2048-row groups.  A failed write removes its temp file and
    re-raises."""
    writer = {} if policy is None else parquet_options(table.schema, policy)
    if row_group_size is None:
        row_group_size = (policy or {}).get("row_group_size", 2048)
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    try:
        pq.write_table(table, tmp, row_group_size=row_group_size, **writer)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


# ----------------------------------------------------------------- stage 1

def _ingest_emit(batch: pa.Table, key_columns, docmap_dir: str,
                 fields: tuple) -> pa.Table:
    """Ingest the plan rows in ``batch``: write each file's docmap partition
    (idempotent) and emit the sorted (doc_id, *fields) rows downstream."""
    outs = []
    emit_cols = ["doc_id", *fields]
    for row in batch.to_pylist():
        plan_path, offset, rows, seq = (
            row["path"], int(row["offset"]), int(row["rows"]), int(row["seq"]))
        out_path = os.path.join(docmap_dir, f"docmap-{seq:05d}.parquet")
        if os.path.exists(out_path):
            md = pq.read_metadata(out_path)
            if md.num_rows == rows:  # lineage hit: already ingested
                outs.append(pq.read_table(out_path, columns=emit_cols))
                continue
        t = pq.read_table(plan_path)
        idx = sorted_key_indices(t, list(key_columns))
        idx_np = np.asarray(idx)
        if not (idx_np == np.arange(len(idx_np))).all():
            t = t.take(idx)
        if "doc_id" in t.column_names:  # source already has a doc_id column
            t = t.rename_columns(
                ["src_doc_id" if c == "doc_id" else c for c in t.column_names])
        doc_ids = pa.array(np.arange(offset, offset + t.num_rows, dtype=np.int64))
        t = t.add_column(0, "doc_id", doc_ids)
        if t.num_rows != rows:
            raise ValueError(
                f"{plan_path}: footer said {rows} rows, read {t.num_rows}")
        _atomic_write_table(t, out_path, policy=DOCMAP_WRITE)
        outs.append(t.select(emit_cols))
    if not outs:
        return pa.table({c: [] for c in emit_cols})
    return pa.concat_tables(outs)


# ----------------------------------------------------------------- stage 2

class TermTable:
    """The build's term ids: one table per process, shared by every batch
    of both engines' stage 2.

    ``raws`` (an Arrow string array) holds every raw token seen so far and
    ``raw_tid`` its term id; ``terms`` holds each term id's indexed term,
    ``crc`` its CRC-32 (``crc % num_buckets`` is ``term_bucket`` under any
    bucket count) and ``nbytes`` its UTF-8 length.  A batch looks its raw
    tokens up with one ``pc.index_in``, and only raw tokens never seen
    before reach the stemmer.  A raw token is an ASCII word run (its term
    is ``_norm_lower_stem`` of it) or an ASCII text with no kept token (the
    whole-text fallback: its term is the text); a word run starts with a
    letter and such a text never does, so one table holds both.

    ``index_in`` hashes the whole table on every call (about 1.2 ms at
    16k entries, 11 ms at 64k and 52 ms at 256k on one core), so ``begin``
    starts it over once it holds more than ``LIMIT`` raw tokens or terms;
    the stemmer's own cache (``_norm_lower_stem``) outlives a restart.
    The perfbench and sf0.1 transcripts stay far below it (30k and a few
    hundred raw tokens).  Term ids are only compared within one batch
    (``group_postings`` numbers keys by first occurrence), so a restart
    between batches changes no output byte."""

    LIMIT = 65536

    def __init__(self):
        self.lock = threading.Lock()  # a batch's lookups and their view
        self.clear()

    def clear(self) -> None:
        self.raws = self.terms = pa.array([], pa.string())
        self.raw_tid = self.crc = self.nbytes = np.zeros(0, np.int64)

    def begin(self) -> None:
        if max(len(self.raws), len(self.terms)) > self.LIMIT:
            self.clear()

    def raw_ids(self, raws) -> np.ndarray:
        """Term ids of ASCII raw tokens (word runs or fallback texts)."""
        if not len(raws):
            return np.zeros(0, np.int64)
        idx = pc.index_in(raws, value_set=self.raws)
        if idx.null_count:
            new = pc.unique(raws.filter(idx.is_null()))
            tid = self.term_ids(pa.array(
                [_norm_lower_stem(r) if r[:1].isalpha() else r
                 for r in new.to_pylist()], pa.string()))
            self.raws = pa.concat_arrays([self.raws, new])
            self.raw_tid = np.concatenate((self.raw_tid, tid))
            idx = pc.index_in(raws, value_set=self.raws)
        return self.raw_tid[idx.to_numpy()]

    def term_ids(self, terms: pa.Array) -> np.ndarray:
        """Term ids of indexed terms, adding the new ones."""
        if not len(terms):
            return np.zeros(0, np.int64)
        idx = pc.index_in(terms, value_set=self.terms)
        if idx.null_count:
            new = pc.unique(terms.filter(idx.is_null()))
            self.terms = pa.concat_arrays([self.terms, new])
            self.crc = np.concatenate((self.crc, np.fromiter(
                (zlib.crc32(t.encode("utf-8")) for t in new.to_pylist()),
                np.int64, len(new))))
            self.nbytes = np.concatenate(
                (self.nbytes, pc.binary_length(new).to_numpy()))
            idx = pc.index_in(terms, value_set=self.terms)
        return idx.to_numpy().astype(np.int64)


_TERMS = TermTable()


def batch_tokens(cols, num_rows: int):
    """Every token of the string columns ``cols`` (``num_rows`` rows
    each): per token its column, row, position and term id, per column
    and row the field length (0 for null rows), and the ``(terms, crc,
    nbytes)`` arrays of ``TermTable`` that the term ids index.

    ASCII rows are split for the whole column at once
    (``ascii_word_tokens``).  An ASCII row with no kept token yields one
    token, the text itself (NFKC is the identity on ASCII), at position 0
    with field length 1.  These raw tokens get their term ids from one
    ``TermTable.raw_ids`` lookup for all of ``cols``.  Only non-ASCII rows
    go through the per-text ``tokenize_grouped``."""
    flen = np.zeros((len(cols), num_rows), np.int64)
    raws, col_of, row, pos = [], [], [], []
    terms, t_cnt = [], []
    t_col, t_row, t_pos = [], [], []
    for c, col in enumerate(cols):
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_null(col.type):  # all-null field: no postings
            continue
        col = col.cast(pa.string())
        is_ascii = pc.fill_null(pc.string_is_ascii(col), False).to_numpy(
            zero_copy_only=False)
        ascii_rows = np.flatnonzero(is_ascii)
        toks, rel = ascii_word_tokens(
            col if ascii_rows.size == num_rows else col.take(ascii_rows))
        w_row = ascii_rows[rel]
        fl = flen[c]
        fl += np.bincount(w_row, minlength=num_rows)
        w_pos = np.arange(w_row.size) - (np.cumsum(fl) - fl)[w_row]
        fb = ascii_rows[fl[ascii_rows] == 0]
        fl[fb] = 1
        raws += [toks, col.take(fb)]
        row += [w_row, fb]
        pos += [w_pos, np.zeros(fb.size, np.int64)]
        col_of.append(np.full(w_row.size + fb.size, c))
        rest = np.flatnonzero(~is_ascii & col.is_valid().to_numpy(
            zero_copy_only=False))
        for i, text in zip(rest.tolist(), col.take(rest).to_pylist()):
            t_terms, positions, fl[i] = tokenize_grouped(text)
            terms += t_terms
            t_cnt += map(len, positions)
            t_pos += itertools.chain.from_iterable(positions)
            t_row.append(np.full(fl[i], i))
            t_col.append(np.full(fl[i], c))
    with _TERMS.lock:
        _TERMS.begin()
        tid = np.concatenate((
            _TERMS.raw_ids(pa.chunked_array(raws, pa.string())),
            np.repeat(_TERMS.term_ids(pa.array(terms, pa.string())), t_cnt)))
        view = (_TERMS.terms, _TERMS.crc, _TERMS.nbytes)
    empty = [np.zeros(0, np.int64)]
    return (np.concatenate(col_of + t_col + empty),
            np.concatenate(row + t_row + empty),
            np.concatenate(pos + [np.array(t_pos, np.int64)]),
            tid, flen, view)


def tokenize_batch(batch: pa.Table, *, fields: tuple, num_buckets: int,
                   num_ranges: int, range_span: int,
                   range_base: int = 0, block_size: int = 4096) -> pa.Table:
    """Stage 2 of the flat build: a batch of ingested rows → encoded
    posting-block rows, with a map-side combiner.

    Tokenizes every field of every doc in the batch
    (src/json_shred.rs:148-203) and PRE-COMBINES postings per (field, term)
    into one posting run per distinct term: ``docs`` ascending, plus
    aligned ``tfs`` / ``lens`` and the flattened position lists, emitted
    as encoded block rows (``encode_posting_blocks``).  Batches arrive in
    ascending doc order (each ingest task covers a contiguous doc_id
    range), so runs from different tasks are doc-disjoint and the segment
    writer can merge them by simple min_doc-ordered concatenation.  This
    shrinks the wide shuffle from one row per posting to one row per
    (task, field, term) — the partial-aggregation-before-groupby pattern.

    The combiner works on token arrays, never on per-posting Python
    objects: ``batch_tokens`` yields (field, row, pos, term id) per token,
    and ``group_postings`` — the posting kernel the nested
    ``ShredTokenize`` shares, with the field as the group and the row as
    the instance — lays them out posting by posting.  Keys are ordered by
    first occurrence (field, row, position), so block rows come out in the
    order a per-text pass would emit them.  Worker processes keep module
    state across tasks, so the stemmer cache and the term table warm up
    across a worker's batches."""
    field, row, pos, tid, field_len, (terms, crc, _) = batch_tokens(
        [batch.column(f) for f in fields], batch.num_rows)
    p_key, p_row, tfs, pos, first = group_postings(field, row, pos, tid,
                                                   len(fields))
    key_field, key_tid = field[first], tid[first]
    docs = batch.column("doc_id").to_numpy()[p_row].astype(np.int64,
                                                           copy=False)
    lens = field_len[key_field[p_key], p_row]
    bounds, cols = encode_posting_blocks(
        p_key, docs, tfs, lens, pos, crc[key_tid] % num_buckets,
        num_ranges=num_ranges, range_span=range_span, range_base=range_base,
        block_size=block_size)
    row_key = p_key[bounds[:-1]]
    cols["field"] = pa.array(key_field.astype(np.int32)[row_key])
    cols["term"] = terms.take(key_tid[row_key])
    return pa.table({c: cols[c] for c in (
        "gkey", "field", "term", "min_doc", "max_doc", "cnt", "c_block",
        "max_tf_norm", "max_tf", "min_len", "docs", "tfs", "lens", "pos")})


def _argsort_pairs(major: np.ndarray, minor: np.ndarray,
                   span: int) -> np.ndarray:
    """The order of distinct (major, minor) pairs, ``minor`` in [0,
    ``span``): one argsort of the packed key ``major * span + minor`` when
    it fits an int64, else a two-key lexsort (the same order)."""
    if (int(major.max(initial=0)) + 1) * span < 2 ** 63:
        return np.argsort(major * span + minor)
    return np.lexsort((minor, major))


def group_postings(group, inst, pos, tid, num_groups: int):
    """The posting kernel of both builds: tokens → postings.

    Each token is (``group``, ``inst``, ``pos``, ``tid``): the flat field
    index or nested keypath id, the instance it came from (a flat row, or
    one nested string value), its position and its term id.  A key is one
    (group, term); keys are numbered by first occurrence — group, then
    instance, then position — and one sort lays the tokens out key by
    key, each key in (instance, pos) order.  One posting per (key,
    instance), whose tf is its token count.

    Returns per posting (key id, instance, tf), the positions in posting
    order, and each key's first token index."""
    # (instance, pos) packed exactly: both are below 2^31 (string offsets
    # are int32), so the product is below 2^62
    ip = inst * (int(pos.max(initial=0)) + 1) + pos
    span = int(ip.max(initial=0)) + 1
    # group tokens by key, each key in (instance, pos) order
    gt = tid * num_groups + group
    order = _argsort_pairs(gt, ip, span)
    n = order.size
    s_key = gt[order]
    g_cut = np.ones(n, dtype=bool)
    g_cut[1:] = s_key[1:] != s_key[:-1]
    g_start = np.flatnonzero(g_cut)
    g_len = np.diff(np.append(g_start, n))
    # key ids = keys ranked by first occurrence: group, instance, pos
    first = order[g_start]
    rank = _argsort_pairs(group[first], ip[first], span)
    g_len = g_len[rank]
    out_start = np.cumsum(g_len) - g_len
    order = order[np.repeat(g_start[rank] - out_start, g_len) + np.arange(n)]
    key = np.repeat(np.arange(rank.size), g_len)
    # one posting per (key, instance): tf = its token count
    s_inst = inst[order]
    p_cut = np.ones(n, dtype=bool)
    p_cut[1:] = (key[1:] != key[:-1]) | (s_inst[1:] != s_inst[:-1])
    p_start = np.flatnonzero(p_cut)
    return (key[p_start], s_inst[p_start], np.diff(np.append(p_start, n)),
            pos[order], first[rank])


def _binary_rows(data: bytes, bounds: np.ndarray) -> pa.Array:
    """Split concatenated LEB128 ``data`` into one binary value per row:
    row i holds values ``bounds[i]:bounds[i+1]``."""
    ends = np.concatenate(([0], varint_ends(data)))
    offsets = pa.array(ends[bounds], pa.int32())
    return pa.Array.from_buffers(pa.binary(), len(bounds) - 1,
                                 [None, offsets.buffers()[1],
                                  pa.py_buffer(data)])


def encode_posting_blocks(key, docs, tfs, lens, pos, bucket, *,
                          num_ranges: int, range_span: int, range_base: int,
                          block_size: int) -> tuple[np.ndarray, dict]:
    """Cut a batch's postings into finished posting blocks, one row each.

    Postings arrive grouped by ``key`` id and doc-ascending within a key;
    ``pos`` holds their position lists back to back.  A row starts where
    the key or the doc range changes, or a run reaches ``block_size``,
    so each row belongs to exactly one shuffle group (gkey = ``bucket`` of
    its key × doc range).  Every stream is encoded in ONE codec call over
    the batch and sliced into rows: the encodings are self-contained per
    row (doc deltas restart at each row, position deltas at each
    posting), so the segment writer never re-encodes.  Returns the row
    bounds (posting index of each row start, then the posting count) and
    the block columns.
    """
    n = docs.size
    rng = np.minimum((docs - range_base) // range_span, num_ranges - 1)
    cut = np.ones(n, dtype=bool)
    cut[1:] = (key[1:] != key[:-1]) | (rng[1:] != rng[:-1])
    idx = np.arange(n)
    run_start = np.maximum.accumulate(np.where(cut, idx, 0))
    cut |= (idx - run_start) % block_size == 0
    starts = np.flatnonzero(cut)
    bounds = np.append(starts, n)
    pos_bounds = np.concatenate(([0], np.cumsum(tfs)))[bounds]
    tf_norm = np.sqrt(tfs.astype(np.float32)) / np.sqrt(
        lens.astype(np.float32))
    cols = {
        "gkey": pa.array(bucket[key[starts]] * num_ranges + rng[starts],
                         pa.int32()),
        "min_doc": pa.array(docs[starts]),
        "max_doc": pa.array(docs[bounds[1:] - 1]),
        "cnt": pa.array(np.diff(bounds), pa.int32()),
        "c_block": pa.array(np.diff(pos_bounds)),
        "max_tf_norm": pa.array(np.maximum.reduceat(tf_norm, starts)),
        # BM25 block bounds: the kernel is increasing in tf and decreasing
        # in dl, so (max tf, min dl) upper-bounds any posting's
        # contribution (Lucene-impact-style skip data)
        "max_tf": pa.array(np.maximum.reduceat(tfs, starts)),
        "min_len": pa.array(np.minimum.reduceat(lens, starts)),
        # pre-encode in the mapper: the wide shuffle moves varint bytes
        # (~2B/posting), not int64 lists (~20B/posting)
        "docs": _binary_rows(encode_deltas(docs, starts=starts), bounds),
        "tfs": _binary_rows(encode_varint(tfs), bounds),
        "lens": _binary_rows(encode_varint(lens), bounds),
        "pos": _binary_rows(encode_position_lists(pos, tfs), pos_bounds),
    }
    return bounds, cols


# ----------------------------------------------------------------- stage 3

def _seg_path(seg_dir: str, gkey: int) -> str:
    return os.path.join(seg_dir, f"seg-{gkey:08d}.parquet")


def _stats_path(stats_dir: str, gkey: int) -> str:
    return os.path.join(stats_dir, f"stats-{gkey:08d}.parquet")


def _ack(gkey: int, path: str, stats_path: str, postings: int,
         field_k: dict) -> pa.Table:
    return pa.table({
        "gkey": pa.array([gkey], pa.int32()),
        "path": pa.array([path]),
        "stats_path": pa.array([stats_path]),
        "postings": pa.array([postings], pa.int64()),
        "field_k": pa.array([json.dumps(field_k, sort_keys=True)]),
    })


def read_group_meta(stats_path: str) -> tuple[int, dict]:
    """A committed group's (postings count, per-field K contribution)
    from its stats file's schema metadata — no payload read."""
    md = pq.read_metadata(stats_path).metadata or {}
    return (int(md.get(b"noise_postings", b"0")),
            json.loads(md.get(b"noise_field_k", b"{}")))


def _dict_ranks(col) -> np.ndarray:
    """Per-row sort rank of ``col``'s values.  The sort runs over the
    DISTINCT values (dictionary encoding; distinct << rows), so int32
    field ids and keypath / term strings take one path and no object
    array of row values ever materializes."""
    enc = pc.dictionary_encode(col.combine_chunks())
    rank = np.empty(len(enc.dictionary), np.int64)
    rank[pc.array_sort_indices(enc.dictionary).to_numpy()] = np.arange(
        rank.size)
    return rank[enc.indices.to_numpy()]


def write_segment_group(rows: pa.Table, gkey: int, seg_path: str,
                        stats_path: str) -> tuple[int, dict]:
    """The one writer of the segment / stats format: posting-block
    ``rows`` of one group → ``seg_path`` + its term-stats partition
    ``stats_path``, the segment in row groups of ``segment_row_group``
    rows.  Returns (postings, field_k).

    Rows are ordered by (field, term, min_doc) and otherwise pass through
    (``gkey`` dropped, ``pos`` renamed ``positions``): every block's
    encodings are self-contained and runs are doc-disjoint per (field,
    term), so no posting is decoded or re-encoded here.  Stats are C =
    Σ c_block and K = Σ cnt per (field, term) — the reference's
    merge-summed counters (its src/json_shred.rs:191-199) —
    plus K per field in the ``noise_field_k`` metadata.  Commit order is
    stats first, segment last, so a segment file's presence implies its
    stats exist."""
    f_rank = _dict_ranks(rows.column("field"))
    t_rank = _dict_ranks(rows.column("term"))
    order = np.lexsort((rows.column("min_doc").to_numpy(), t_rank, f_rank))
    seg = rows.select([c for c in rows.column_names if c != "gkey"]).take(
        pa.array(order))
    s_field, s_term = f_rank[order], t_rank[order]
    cnt = seg.column("cnt").to_numpy().astype(np.int64)
    new_field = np.ones(order.size, dtype=bool)
    new_field[1:] = s_field[1:] != s_field[:-1]
    new_term = new_field.copy()
    new_term[1:] |= s_term[1:] != s_term[:-1]
    t_starts, f_starts = np.flatnonzero(new_term), np.flatnonzero(new_field)
    stats = pa.table({
        "field": seg.column("field").take(t_starts),
        "term": seg.column("term").take(t_starts),
        "c": pa.array(np.add.reduceat(seg.column("c_block").to_numpy(),
                                      t_starts).astype(np.int64)),
        "k": pa.array(np.add.reduceat(cnt, t_starts)),
    })
    postings = int(cnt.sum())
    field_k = {str(f): int(k) for f, k in zip(
        seg.column("field").take(f_starts).to_pylist(),
        np.add.reduceat(cnt, f_starts))}
    meta = {"noise_gkey": str(gkey), "noise_postings": str(postings)}
    stats = stats.replace_schema_metadata(
        {**meta, "noise_field_k": json.dumps(field_k, sort_keys=True)})
    seg = seg.rename_columns(["positions" if c == "pos" else c
                              for c in seg.column_names])
    _atomic_write_table(stats, stats_path, policy=STATS_WRITE)
    _atomic_write_table(seg.replace_schema_metadata(meta), seg_path,
                        segment_row_group(seg), SEGMENT_WRITE)
    return postings, field_k


def _write_segment_group(group: pa.Table, seg_dir: str, stats_dir: str,
                         block_size: int | None = None) -> pa.Table:
    """Stage-3 ``map_groups`` adapter: one shuffle group (term bucket ×
    doc range) → ``write_segment_group``, skipped when the group is
    already committed (resume), → one ack row.  ``block_size`` is unused
    (blocks arrive finished); it stays only because perfbench/spans.py
    calls this with (group, seg_dir, stats_dir, block_size)."""
    gkey = int(group.column("gkey")[0].as_py())
    seg_path = _seg_path(seg_dir, gkey)
    stats_path = _stats_path(stats_dir, gkey)
    if os.path.exists(seg_path) and os.path.exists(stats_path):
        postings, field_k = read_group_meta(stats_path)
    else:
        postings, field_k = write_segment_group(group, gkey, seg_path,
                                                stats_path)
    return _ack(gkey, seg_path, stats_path, postings, field_k)


def _committed_gkeys(seg_dir: str, stats_dir: str) -> frozenset:
    """Resume state: a group is committed iff BOTH its files exist."""
    return frozenset(
        g for g in (
            int(f.split("-")[1].split(".")[0])
            for f in os.listdir(seg_dir)
            if f.startswith("seg-") and f.endswith(".parquet")
        )
        if os.path.exists(_stats_path(stats_dir, g))
    )


def _drop_done(batch: pa.Table, done: np.ndarray) -> pa.Table:
    """Drop the block rows of already-committed groups."""
    return batch.filter(pa.array(np.isin(batch.column("gkey").to_numpy(),
                                         done, invert=True)))


def _write_groups(blocks, seg_dir: str, stats_dir: str,
                  done: frozenset) -> list[dict]:
    """Stage 3 for either engine: one ``_write_segment_group`` call per
    gkey, minus the groups in ``done``.  ``blocks`` is a Ray Dataset
    (shuffled by ``groupby``) or an in-process table (sorted by gkey once
    and sliced).  Returns the writer acks."""
    done_arr = np.fromiter(done, dtype=np.int64, count=len(done))
    kw = {"seg_dir": seg_dir, "stats_dir": stats_dir}
    if isinstance(blocks, pa.Table):
        blocks = _drop_done(blocks, done_arr)
        gkeys = blocks.column("gkey").to_numpy()
        order = np.argsort(gkeys, kind="stable")
        blocks, gkeys = blocks.take(pa.array(order)), gkeys[order]
        cuts = np.flatnonzero(np.diff(gkeys)) + 1
        return [_write_segment_group(blocks.slice(lo, hi - lo), **kw)
                .to_pylist()[0]
                for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, gkeys.size])
                if hi > lo]
    if done:
        blocks = blocks.map_batches(_drop_done, fn_kwargs={"done": done_arr},
                                    batch_format="pyarrow")
    acks_ds = blocks.groupby("gkey").map_groups(
        _write_segment_group, batch_format="pyarrow", fn_kwargs=kw)
    return acks_ds.take_all()


def _group_entries(acks: list[dict], done: frozenset, seg_dir: str,
                   stats_dir: str, num_ranges: int,
                   field_key=int) -> tuple[dict, list, list]:
    """Manifest ``field_k``, ``segments`` and ``stats`` entries from the
    writer acks plus the committed groups a resume skipped.  ``field_key``
    orders the ``field_k`` keys (int field ids, or keypath strings)."""
    groups = {int(a["gkey"]): (a["path"], a["stats_path"],
                               int(a["postings"]), json.loads(a["field_k"]))
              for a in acks}
    for g in done - groups.keys():
        groups[g] = (_seg_path(seg_dir, g), _stats_path(stats_dir, g),
                     *read_group_meta(_stats_path(stats_dir, g)))
    field_k: dict = {}
    for _, _, _, fk in groups.values():
        for f, k in fk.items():
            field_k[field_key(f)] = field_k.get(field_key(f), 0) + int(k)
    items = sorted(groups.items())
    return ({str(f): k for f, k in sorted(field_k.items())},
            [{"gkey": g, "path": p, "postings": n}
             for g, (p, _, n, _) in items],
            [{"gkey": g, "bucket": g // num_ranges, "path": sp}
             for g, (_, sp, _, _) in items])


def _publish_manifest(manifest: dict, index_dir: str) -> None:
    """Atomic manifest publish (the analogue of the reference's WriteBatch
    flush, src/index.rs:218-227).  On disk the manifest
    holds RELATIVE paths (the index directory is relocatable — compaction
    swaps directories, and a 100 TB index moves between stores); the
    caller's dict keeps absolute paths."""
    disk = json.loads(json.dumps(manifest))
    for part in ("docmap", "values", "segments", "stats"):
        for e in disk.get(part, ()):
            e["path"] = os.path.relpath(e["path"], index_dir)
    tmp = os.path.join(index_dir,
                       f".{MANIFEST_NAME}.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(disk, f, indent=1)
    os.replace(tmp, os.path.join(index_dir, MANIFEST_NAME))


@contextlib.contextmanager
def _one_row_blocks():
    """Let Ray Data keep 1-row plan blocks apart.  The plan rows are
    ~100-byte blocks; without this, Ray Data bundles them all into ONE
    ingest task (target_min_block_size coalescing) and the whole pipeline
    serializes."""
    ctx = ray.data.DataContext.get_current()
    prev = ctx.target_min_block_size
    ctx.target_min_block_size = 1
    try:
        yield
    finally:
        ctx.target_min_block_size = prev


# ------------------------------------------------------------------ driver

def _repartition_by_key(paths: list[str], key_columns: list[str],
                        out_dir: str) -> list[str]:
    """Globally sort ``paths`` by ``key_columns`` into a range-partitioned
    copy under ``out_dir`` (one explicit wide shuffle), so the metadata-only
    doc_id plan applies.  Idempotent: an existing copy whose recorded input
    fingerprint (sorted paths + sizes + mtimes) matches is reused (resume);
    anything else — partial copy, or a rebuild with different inputs that
    happen to share a row count — is rebuilt."""
    import shutil

    expected = sum(pq.read_metadata(p).num_rows for p in paths)
    fp = {"inputs": sorted(
        [os.path.abspath(p), os.path.getsize(p), os.path.getmtime(p)]
        for p in paths)}

    def _files(d: str) -> list[str]:
        return sorted(os.path.join(d, f) for f in os.listdir(d)
                      if f.endswith(".parquet"))

    fp_name = "inputs.json"
    if os.path.isdir(out_dir):
        files = _files(out_dir)
        old_fp = None
        try:
            with open(os.path.join(out_dir, fp_name)) as f:
                old_fp = json.load(f)
        except (FileNotFoundError, ValueError):
            pass
        if (files and old_fp == fp
                and sum(pq.read_metadata(f).num_rows for f in files) == expected):
            return files
        shutil.rmtree(out_dir)

    tmp = f"{out_dir}.tmp-{uuid.uuid4().hex[:8]}"
    ray.data.read_parquet(paths).sort(list(key_columns)).write_parquet(tmp)
    files = _files(tmp)
    got = sum(pq.read_metadata(f).num_rows for f in files)
    if got != expected:
        raise RuntimeError(
            f"repartition wrote {got} rows, expected {expected}")
    with open(os.path.join(tmp, fp_name), "w") as f:
        json.dump(fp, f)
    os.replace(tmp, out_dir)
    return _files(out_dir)


def run_build(index_dir: str, plan, stages, *, nested: bool,
              fields: tuple, key_columns: tuple, num_buckets: int | None,
              docs_per_range: int | None, block_size: int,
              doc_id_offset: int,
              docs_per_ingest_task: int | None) -> dict[str, Any]:
    """The build driver of both engines: plan rows → stage chain → segment
    groups → manifest publish; returns the manifest.

    ``plan()`` gives the engine's plan rows ``{path, offset, rows, seq}``,
    one per input file, doc ids contiguous in ``seq`` order.
    ``stages(dirs, sizing)`` gives its stage chain: callables from a table
    of plan rows, each feeding the next, to posting-block rows; ``sizing``
    is the ``num_buckets`` / ``num_ranges`` / ``range_span`` /
    ``range_base`` / ``block_size`` keywords of both tokenizers.
    ``nested`` picks the rest: the ``values`` directory, the ingest task
    floor (``NESTED_DOCS_PER_TASK``) and the ``field_k`` key type.

    One route rule: a build of at most ``docs_per_ingest_task`` docs is
    one ingest task's worth, so the chain runs once over the whole plan in
    the driver; larger builds map it over ``ray.data.from_items``.  The
    driver writes the files a one-task Ray job would;
    ``metrics["local"]`` records the route."""
    t_build_start = time.time()
    dirs = {sub: os.path.join(index_dir, sub) for sub in (
        ("docmap", "values", "segments", "stats") if nested
        else ("docmap", "segments", "stats"))}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    plan_rows = plan()
    num_docs = sum(r["rows"] for r in plan_rows)
    if docs_per_range is None:
        # doc ranges bound per-group work AND split hot-term buckets (Zipf
        # skew): the hottest stem's postings never concentrate in a single
        # straggler group.  Cap range count so the manifest stays small.
        docs_per_range = 250_000
    num_ranges = max(1, min(64, -(-num_docs // docs_per_range)))
    range_span = max(1, -(-num_docs // num_ranges))
    if num_buckets is None:
        # sized from the doc count alone (never the route), so both
        # routes write the same files: 1 bucket up to one ingest task,
        # else the shuffle fan-out sized to the corpus
        num_buckets = bucket_count(num_docs, nested)

    # Ingest tasks are DATA-proportional (~docs_per_ingest_task docs each),
    # never file- or cluster-proportional: one task per file makes the
    # shuffle's partition-object count quadratic in file count (400 files
    # -> 160k tiny objects) and multiplies combiner rows, and CPU-scaled
    # tasks would make the total work depend on cluster size (the same
    # input must give the same tasks at every parallelism).  Each task
    # owns a contiguous run of files, so doc_id ranges stay contiguous for
    # the segment writer's run-merge.  Above 256 x the floor the task
    # count caps at 256: shuffle overhead grows with map-blocks x
    # reduce-partitions (22M turns: 172 s with 1343 blocks vs 112 s with
    # 245; 2M nested docs on 32 CPUs: 1313 s with 2048 tasks vs 236 s
    # with ~250; same output).
    if docs_per_ingest_task is None:
        docs_per_ingest_task = max(
            NESTED_DOCS_PER_TASK if nested else DOCS_PER_TASK,
            -(-max(num_docs, 1) // 256))
    local = num_docs <= docs_per_ingest_task
    num_tasks = 1 if local else min(len(plan_rows),
                                    -(-num_docs // docs_per_ingest_task))

    done_gkeys = _committed_gkeys(dirs["segments"], dirs["stats"])
    chain = stages(dirs, {"num_buckets": num_buckets,
                          "num_ranges": num_ranges, "range_span": range_span,
                          "range_base": doc_id_offset,
                          "block_size": block_size})
    with _one_row_blocks():
        if local:  # one task's worth: the same stages, in the driver
            blocks = pa.Table.from_pylist(plan_rows)
            for stage in chain:
                blocks = stage(blocks)
        else:
            # map_batches' default batch_size (None) keeps one batch per
            # plan block, so the fused chain runs one task per block; an
            # explicit batch_size would bundle the blocks into one task
            blocks = ray.data.from_items(plan_rows,
                                         override_num_blocks=num_tasks)
            for stage in chain:
                blocks = blocks.map_batches(stage, batch_format="pyarrow")
        acks = _write_groups(blocks, dirs["segments"], dirs["stats"],
                             done_gkeys)
    field_k, segments, stats = _group_entries(
        acks, done_gkeys, dirs["segments"], dirs["stats"], num_ranges,
        str if nested else int)

    def parts(sub: str, with_rows: bool = False) -> list[dict]:
        """The manifest entry of each plan row's ``sub`` partition."""
        return [{"path": os.path.join(dirs[sub],
                                      f"{sub}-{r['seq']:05d}.parquet"),
                 **({"rows": r["rows"]} if with_rows else {}),
                 "min_doc": r["offset"],
                 "max_doc": r["offset"] + r["rows"] - 1} for r in plan_rows]

    manifest = {
        "version": 1,
        **({"nested": True} if nested else {}),
        "analyzer": "noise-porter2-v1",
        "fields": list(fields),
        "key_columns": list(key_columns),
        "num_docs": num_docs,
        "doc_id_offset": doc_id_offset,
        "num_buckets": num_buckets,
        "num_ranges": num_ranges,
        "range_span": range_span,
        "block_size": block_size,
        "field_k": field_k,
        "docmap": parts("docmap", with_rows=True),
        **({"values": parts("values")} if nested else {}),
        "segments": segments,
        "stats": stats,
        # build metrics next to the lineage (north-rule: resumable from
        # checkpoint with per-partition lineage + metrics): wall/throughput
        # for THIS invocation, and how much of the work a resume skipped
        "metrics": {
            "build_wall_sec": round(time.time() - t_build_start, 3),
            "docs_per_sec": round(
                num_docs / max(time.time() - t_build_start, 1e-9), 1),
            "ingest_tasks": num_tasks,
            "segment_groups": len(segments),
            "resumed_groups": len(done_gkeys),
            "total_postings": sum(e["postings"] for e in segments),
            "local": local,
        },
    }
    _publish_manifest(manifest, index_dir)
    return manifest


def build_index(
    input_paths: list[str],
    index_dir: str,
    *,
    fields: tuple = DEFAULT_FIELDS,
    key_columns: tuple = ("conv_id", "turn_idx"),
    num_buckets: int | None = None,
    docs_per_range: int | None = None,
    block_size: int = 4096,
    doc_id_offset: int = 0,
    docs_per_ingest_task: int | None = None,
) -> dict[str, Any]:
    """Build (or resume) a flat index at ``index_dir``; returns the
    manifest.

    ``doc_id_offset`` shifts all assigned doc_ids (used by incremental
    epochs, noise_ray/build/incremental.py: new docs continue the parent
    index's seq space, mirroring the reference's monotonically increasing
    seq across adds, src/index.rs:146-155).

    The flat engine's share of ``run_build``: plan rows from the
    metadata-only doc_id plan, and the stage chain ``_ingest_emit`` →
    ``tokenize_batch``."""
    fields, key_columns = tuple(fields), tuple(key_columns)

    def plan() -> list[dict]:
        # metadata-only doc_id assignment; inputs whose key ranges overlap
        # first pass through ONE global sort into a range-partitioned copy
        # (the fallback in docids.py; the normal layout skips it)
        try:
            plans: list[FilePlan] = plan_doc_ids(list(input_paths),
                                                 list(key_columns))
        except ValueError:
            repart = _repartition_by_key(
                list(input_paths), list(key_columns),
                os.path.join(index_dir, "repartitioned"))
            plans = plan_doc_ids(repart, list(key_columns))
        return [{"path": p.path, "offset": p.offset + doc_id_offset,
                 "rows": p.rows, "seq": i} for i, p in enumerate(plans)]

    def stages(dirs, sizing):
        return [functools.partial(_ingest_emit, key_columns=key_columns,
                                  docmap_dir=dirs["docmap"], fields=fields),
                functools.partial(tokenize_batch, fields=fields, **sizing)]

    return run_build(index_dir, plan, stages, nested=False, fields=fields,
                     key_columns=key_columns, num_buckets=num_buckets,
                     docs_per_range=docs_per_range, block_size=block_size,
                     doc_id_offset=doc_id_offset,
                     docs_per_ingest_task=docs_per_ingest_task)
