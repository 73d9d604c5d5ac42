"""Segment-group invariants for every producer of segment + stats files.

A fresh flat build, a fresh nested build, a merged flat epoch, a merged
nested epoch, a flat split and a nested split must all hold the same
format: block rows ordered by
(field, term, min_doc); stats rows equal to the per-(field, term) sums of
the segment's ``c_block`` / ``cnt``; ``noise_postings`` (in both files)
and ``noise_field_k`` equal to those sums; the segment schema of a
fresh build of the same engine; and the engine's row-group size: 2048
rows nested, and flat the row count that holds
``pipeline.FLAT_ROW_GROUP_BYTES`` of payload at the file's mean row
size but at least ``pipeline.FLAT_ROW_GROUP`` (64), uniform per file.
Light transcript files get one group wider than 64 rows; a hot-term
build at block_size 4096, its split and its merged epochs get 64-row
groups and span several.  Every file also has
the writer layout of ``pipeline.SEGMENT_WRITE`` / ``STATS_WRITE``:
snappy, no dictionary pages, per-column encodings by Arrow type
(``pipeline.parquet_options``) and min/max statistics only on the columns
that filtered reads prune row groups by.  Every producer's docmap and
values files (both build routes of both engines, merged epochs, merged
indexes, splits and compactions) have the layout of
``pipeline.DOCMAP_WRITE`` / ``VALUES_WRITE``: zstd, dictionary pages only
on unsorted string columns, statistics on every column.

Indexes written before that layout (Parquet's defaults, 64-row flat
row groups) still open: an index whose base and first epoch are
rewritten in the old layout answers, upserts and merges like the
untouched one.
"""

import json
import os
import random
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from noise_ray.build import (add_documents, build_index, compact_index,
                             merge_epochs)
from noise_ray.build import merge, pipeline
from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
from noise_ray.build.merge import merge_indexes, split_index
from noise_ray.sources import generate_transcripts

# the columns filtered reads prune row groups by, per file kind
SEG_FILTER_COLS = {"field", "term", "min_doc", "max_doc"}
STATS_FILTER_COLS = {"field", "term"}

WORDS = ("fox dog quick brown lazy river stone cloud amber delta echo "
         "field grain harbor island jungle kettle lemon meadow noble ocean "
         "pepper quartz raven silver timber umbra violet willow yarrow zephyr"
         ).split()


def _nested_docs(n: int, seed: int = 5, prefix: str = "d") -> list[dict]:
    rng = random.Random(seed)
    return [{"_id": f"{prefix}{i:04d}",
             "turns": [{"role": rng.choice(("user", "assistant")),
                        "text": " ".join(rng.choices(WORDS, k=12))}
                       for _ in range(rng.randint(1, 4))]}
            for i in range(n)]


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """name -> (index dir holding segments/ + stats/, fresh build of the
    same engine)."""
    root = tmp_path_factory.mktemp("segwriter")
    flat = str(root / "flat")
    paths = generate_transcripts(str(root / "in0"), num_convs=60,
                                 num_files=3)
    build_index(paths, flat, num_buckets=4)

    live = str(root / "live")
    shutil.copytree(flat, live)
    for ep, seed in ((1, 7), (2, 9)):
        add_documents(live, generate_transcripts(
            str(root / f"in{ep}"), num_convs=30, num_files=2, seed=seed))
    assert merge_epochs(live) is not None
    merged = os.path.join(live, "epochs", "epoch-0001-0002")

    with open(os.path.join(flat, "manifest.json")) as f:
        n = json.load(f)["num_docs"]
    split_index(flat, [str(root / "fa"), str(root / "fb")],
                [0, n // 3, n])
    # the Ray route of the same corpus (one task fewer docs than it holds)
    build_index(paths, str(root / "flat_ray"), num_buckets=4,
                docs_per_ingest_task=n - 1)
    # two sources at the same bucket count: segments copy through
    other = str(root / "other")
    build_index(generate_transcripts(str(root / "in3"), num_convs=40,
                                     num_files=2, seed=11), other,
                num_buckets=4)
    merge_indexes([flat, other], str(root / "mi"))
    compacted = str(root / "compacted")
    shutil.copytree(live, compacted)
    compact_index(compacted)

    # one bucket and one-posting blocks: nested segments long enough to
    # span several row groups
    nested = str(root / "nested")
    shard = docs_to_parquet(_nested_docs(400),
                            str(root / "docs-00000.parquet"))
    build_json_index([shard], nested, num_buckets=1, block_size=1)
    split_index(nested, [str(root / "na"), str(root / "nb")])
    build_json_index([shard], str(root / "nested_ray"), num_buckets=1,
                     block_size=1, docs_per_ingest_task=399)
    merge_indexes([nested, nested], str(root / "nmi"))

    nested_live = str(root / "nested_live")
    shutil.copytree(nested, nested_live)
    for ep, seed in ((1, 7), (2, 9)):
        add_documents(nested_live, [docs_to_parquet(
            _nested_docs(150, seed, f"e{ep}-"),
            str(root / f"nested-{ep}.parquet"), docid_base=250 + 150 * ep)])
    nested_compacted = str(root / "nested_compacted")
    shutil.copytree(nested_live, nested_compacted)
    compact_index(nested_compacted)
    assert merge_epochs(nested_live) is not None
    nested_merged = os.path.join(nested_live, "epochs", "epoch-0001-0002")

    # hot terms at the default block_size 4096: each of 100 words is in
    # ~40% of the docs, so block rows carry KBs of payload and the 64-row
    # floor sets the row groups of the base, its split halves and its
    # merged epochs (~100 rows per file, ~200 merged)
    heavy = str(root / "heavy")
    rng = np.random.default_rng(3)
    hot = [f"hot{i:03d}" for i in range(100)]

    def hot_docs(n: int, first: int, path) -> str:
        pq.write_table(pa.table({
            "conv_id": [f"c{first + i:05d}" for i in range(n)],
            "turn_idx": np.zeros(n, np.int64),
            "role": ["user"] * n,
            "text": [" ".join(rng.choice(hot, 50)) for _ in range(n)],
            "tool": [None] * n}), str(path))
        return str(path)

    build_index([hot_docs(8000, 0, root / "heavy.parquet")], heavy,
                num_buckets=1)
    split_index(heavy, [str(root / "ha"), str(root / "hb")])
    heavy_live = str(root / "heavy_live")
    shutil.copytree(heavy, heavy_live)
    for ep in (1, 2):
        add_documents(heavy_live, [hot_docs(
            2000, 8000 * ep, root / f"heavy-{ep}.parquet")])
    assert merge_epochs(heavy_live) is not None
    heavy_merged = os.path.join(heavy_live, "epochs", "epoch-0001-0002")
    return {
        "flat_build": (flat, flat),
        "nested_build": (nested, nested),
        "merged_epoch": (merged, flat),
        "nested_merged_epoch": (nested_merged, nested),
        "flat_split": (str(root / "fa"), flat),
        "nested_split": (str(root / "na"), nested),
        "flat_heavy": (heavy, flat),
        "flat_heavy_split": (str(root / "ha"), flat),
        "flat_heavy_merged": (heavy_merged, flat),
        "merged_indexes": (str(root / "mi"), flat),
        "nested_merged_indexes": (str(root / "nmi"), nested),
        "flat_ray": (str(root / "flat_ray"), flat),
        "nested_ray": (str(root / "nested_ray"), nested),
        "compacted": (compacted, flat),
        "nested_compacted": (nested_compacted, nested),
    }


def _groups(index_dir: str):
    """(segment path, stats path) per committed group."""
    seg_dir = os.path.join(index_dir, "segments")
    names = sorted(f for f in os.listdir(seg_dir) if f.endswith(".parquet"))
    assert names, index_dir
    return [(os.path.join(seg_dir, f),
             os.path.join(index_dir, "stats",
                          f.replace("seg-", "stats-", 1))) for f in names]


def _parts(index_dir: str, sub: str) -> list[str]:
    d = os.path.join(index_dir, sub)
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet")) if os.path.isdir(d) else []


def _row_groups(path: str) -> list[int]:
    md = pq.read_metadata(path)
    return [md.row_group(i).num_rows for i in range(md.num_row_groups)]


def _byte_rows(seg) -> int:
    """The rows that hold ``FLAT_ROW_GROUP_BYTES`` of docs + tfs + lens +
    positions at a segment table's mean row size, recomputed from its
    values."""
    payload = sum(len(v) for c in ("docs", "tfs", "lens", "positions")
                  for v in seg.column(c).to_pylist())
    return -(-pipeline.FLAT_ROW_GROUP_BYTES * seg.num_rows // payload)


# flat producers whose fixture files hold light rows: under 64 KiB of
# payload per file, so one row group each, wider than the 64-row floor.
# Every other producer's files must span row groups.
LIGHT = {"flat_build", "merged_epoch", "flat_split", "merged_indexes"}


@pytest.mark.parametrize("name", ["flat_build", "nested_build",
                                  "merged_epoch", "nested_merged_epoch",
                                  "flat_split",
                                  "nested_split", "flat_heavy",
                                  "flat_heavy_split", "flat_heavy_merged",
                                  "merged_indexes"])
def test_segment_group_invariants(indexes, name):
    index_dir, fresh_dir = indexes[name]
    schema = pq.read_schema(_groups(fresh_dir)[0][0]).remove_metadata()
    nested = name.startswith("nested")
    spans_row_groups, widest = False, 0
    for seg_path, stats_path in _groups(index_dir):
        seg = pq.read_table(seg_path)
        keys = list(zip(*(seg.column(c).to_pylist()
                          for c in ("field", "term", "min_doc"))))
        assert keys == sorted(keys), seg_path

        sums: dict = {}
        for (f, t, _), c, k in zip(keys, seg.column("c_block").to_pylist(),
                                   seg.column("cnt").to_pylist()):
            acc = sums.setdefault((f, t), [0, 0])
            acc[0] += c
            acc[1] += k
        st = pq.read_table(stats_path)
        assert list(zip(*(st.column(c).to_pylist()
                          for c in ("field", "term", "c", "k")))) == [
            (f, t, c, k) for (f, t), (c, k) in sorted(sums.items())]

        postings = sum(k for _, k in sums.values())
        field_k: dict = {}
        for (f, _), (_, k) in sums.items():
            field_k[str(f)] = field_k.get(str(f), 0) + k
        seg_md = pq.read_schema(seg_path).metadata or {}
        st_md = pq.read_schema(stats_path).metadata or {}
        assert int(seg_md.get(b"noise_postings", -1)) == postings
        assert int(st_md.get(b"noise_postings", -1)) == postings
        assert json.loads(st_md.get(b"noise_field_k", b"null")) == field_k

        assert seg.schema.remove_metadata() == schema
        rgs = _row_groups(seg_path)
        n = seg.num_rows
        rg_size = (pipeline.NESTED_ROW_GROUP if nested else max(1, min(
            n, max(pipeline.FLAT_ROW_GROUP, _byte_rows(seg)))))
        assert rgs == [rg_size] * (n // rg_size) + (
            [n % rg_size] if n % rg_size else []), (seg_path, rgs)
        if name.startswith("flat_heavy"):  # the floor, not the bytes
            assert _byte_rows(seg) < rg_size == pipeline.FLAT_ROW_GROUP
        spans_row_groups |= len(rgs) > 1
        widest = max(widest, rgs[0])

        _assert_writer_layout(stats_path, pipeline.STATS_WRITE)
        _assert_writer_layout(seg_path, pipeline.SEGMENT_WRITE)
        md = pq.read_metadata(seg_path)
        names = md.schema.names
        start = 0
        for rg, rows in enumerate(rgs):
            for c in ("min_doc", "max_doc"):
                st = md.row_group(rg).column(names.index(c)).statistics
                vals = seg.column(c).to_numpy()[start:start + rows]
                assert st.has_min_max, (seg_path, rg, c)
                assert (st.min, st.max) == (vals.min(), vals.max())
            start += rows
    if name in LIGHT:
        assert widest > pipeline.FLAT_ROW_GROUP, "no byte-sized row group"
    else:
        assert spans_row_groups, "no segment spans two row groups"


# the encoding of the index columns whose Arrow type fixes it
ENCODING = {"doc_id": "DELTA_BINARY_PACKED", "seq": "DELTA_BINARY_PACKED",
            "turn_idx": "DELTA_BINARY_PACKED", "ts": "DELTA_BINARY_PACKED",
            "min_doc": "DELTA_BINARY_PACKED", "cnt": "DELTA_BINARY_PACKED",
            "c": "DELTA_BINARY_PACKED", "term": "DELTA_BYTE_ARRAY",
            "docs": "DELTA_LENGTH_BYTE_ARRAY",
            "positions": "DELTA_LENGTH_BYTE_ARRAY",
            "aps": "DELTA_LENGTH_BYTE_ARRAY",
            "ap.list.element": "DELTA_BINARY_PACKED"}
# string columns that keep a dictionary page (a plain fallback past
# ``pipeline.DICT_PAGE_LIMIT``)
DICT_COLS = {"conv_id", "role", "text", "tool", "_id", "json", "kp", "code",
             "str"}


def _assert_writer_layout(path: str, policy: dict) -> None:
    """The file has ``policy``'s layout: its codec, dictionary pages
    exactly on its unsorted string columns, each column's encoding by
    Arrow type (``pipeline.parquet_options``) and statistics exactly on
    the policy's columns (every column when it names none)."""
    md = pq.read_metadata(path)
    want = pipeline.parquet_options(pq.read_schema(path), policy)
    stats = policy["statistics"]
    assert md.num_row_groups, path
    for rg in range(md.num_row_groups):
        for j in range(md.num_columns):
            c = md.row_group(rg).column(j)
            col = c.path_in_schema
            where = (path, rg, col)
            assert c.compression == policy["compression"].upper(), where
            assert c.has_dictionary_page == (
                col in want["use_dictionary"]), where
            if col in ENCODING:
                assert ENCODING[col] in c.encodings, (where, c.encodings)
            if col in want["column_encoding"]:
                assert want["column_encoding"][col] in c.encodings, where
            if col in DICT_COLS:
                assert c.has_dictionary_page, where
            assert c.is_stats_set == (stats is None or col in stats), where


def test_policies_name_the_filter_columns():
    assert set(pipeline.SEGMENT_WRITE["statistics"]) == SEG_FILTER_COLS
    assert set(pipeline.STATS_WRITE["statistics"]) == STATS_FILTER_COLS


@pytest.mark.parametrize("name", ["flat_build", "nested_build",
                                  "flat_ray", "nested_ray",
                                  "merged_epoch", "nested_merged_epoch",
                                  "merged_indexes", "nested_merged_indexes",
                                  "flat_split", "nested_split",
                                  "compacted", "nested_compacted"])
def test_docmap_values_layout(indexes, name):
    index_dir = indexes[name][0]
    docmaps = _parts(index_dir, "docmap")
    values = _parts(index_dir, "values")
    assert docmaps and bool(values) == ("nested" in name)
    for p in docmaps:
        _assert_writer_layout(p, pipeline.DOCMAP_WRITE)
    for p in values:
        _assert_writer_layout(p, pipeline.VALUES_WRITE)


def test_failed_write_leaves_no_file(indexes, tmp_path, monkeypatch):
    """A write that raises mid-file removes its temp file and re-raises:
    neither a temp file nor the segment file is left (the stats file,
    committed first, may stay; resume needs both files of a group)."""
    seg_path, _ = _groups(indexes["flat_build"][0])[0]
    rows = pq.read_table(seg_path)
    real = pq.write_table

    def failing(table, where, **kw):
        if "seg-" in os.path.basename(where):
            with open(where, "wb") as f:
                f.write(b"PAR1")
            raise OSError("disk full")
        real(table, where, **kw)

    monkeypatch.setattr(pipeline.pq, "write_table", failing)
    with pytest.raises(OSError, match="disk full"):
        pipeline.write_segment_group(
            rows, 0, str(tmp_path / "seg-00000000.parquet"),
            str(tmp_path / "stats-00000000.parquet"))
    assert os.listdir(tmp_path) == ["stats-00000000.parquet"]
    # the merge's copy-through segment write takes the same path
    out = tmp_path / "merged"
    out.mkdir()
    with pytest.raises(OSError, match="disk full"):
        merge._patch_segment(seg_path, str(out / "m00-seg-00000000.parquet"),
                             5)
    assert os.listdir(out) == []


def _rewrite_old_layout(index_dir: str) -> None:
    """Rewrite the ``segments/``, ``stats/``, ``docmap/`` (and nested
    ``values/``) files directly under ``index_dir`` with Parquet's default
    writer properties (snappy, dictionary pages, plain fallbacks,
    statistics on every column) and 64-row segment row groups, keeping
    the other files' row-group size and every file's schema metadata: the
    layout of indexes written before ``pipeline.parquet_options`` and
    ``pipeline.segment_row_group``."""
    for sub in ("segments", "stats", "docmap", "values"):
        d = os.path.join(index_dir, sub)
        for f in sorted(os.listdir(d)) if os.path.isdir(d) else ():
            p = os.path.join(d, f)
            md = pq.read_metadata(p)
            t = pq.read_table(p)
            rg = 64 if sub == "segments" else md.row_group(0).num_rows
            pq.write_table(t, p, row_group_size=rg)
            old = pq.read_metadata(p)
            assert old.num_row_groups == -(-t.num_rows // rg)
            assert old.row_group(0).column(0).has_dictionary_page
            assert all(old.row_group(0).column(j).is_stats_set
                       for j in range(old.num_columns))
            assert pq.read_table(p).equals(t, check_metadata=True)


@pytest.fixture(scope="module")
def layouts(ray_session, tmp_path_factory):
    """(untouched index, the same index with its base and first epoch in
    the old layout), each with a second epoch added after the rewrite."""
    root = tmp_path_factory.mktemp("oldlayout")
    new, old = str(root / "new"), str(root / "old")
    build_index(generate_transcripts(str(root / "in0"), num_convs=60,
                                     num_files=3), new,
                num_buckets=4, block_size=4)
    add_documents(new, generate_transcripts(str(root / "in1"), num_convs=30,
                                            num_files=2, seed=7))
    shutil.copytree(new, old)
    _rewrite_old_layout(old)
    (epoch,) = [os.path.join(old, "epochs", e)
                for e in os.listdir(os.path.join(old, "epochs"))]
    _rewrite_old_layout(epoch)
    second = generate_transcripts(str(root / "in2"), num_convs=30,
                                  num_files=2, seed=9)
    # upserts: the second epoch's keys shadow docs of the old-layout base
    upserted = [add_documents(idx, second)["tombstoned"]
                for idx in (new, old)]
    assert upserted[0] and upserted[0] == upserted[1]
    return new, old


def _answers(index_dir: str) -> dict:
    """Postings (full and doc-range reads, with positions), term stats,
    BM25 top-k and a phrase query of one index."""
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.query import IndexReader, run_query

    r = IndexReader(index_dir)
    fid, n = r.field_id["text"], r.num_docs
    with open(os.path.join(index_dir, "manifest.json")) as f:
        stats = json.load(f)["stats"]
    terms = sorted({t for s in stats for t in pq.read_table(
        os.path.join(index_dir, s["path"]), columns=["term"],
        filters=[("field", "==", fid)]).column("term").to_pylist()})
    out: dict = {}
    for t in terms[::3]:
        for rng in (None, (0, n), (n // 5, n // 2), (n - n // 7, n)):
            pl = r.postings(fid, t, True, rng)
            if rng is not None:
                pl = pl.slice_range(*rng)
            out[(t, rng)] = [np.asarray(a).tolist() for a in (
                pl.docs, pl.tfs, pl.lens, pl.pos_concat)]
        out[(t, "stats")] = r.term_stats(fid, t)
    out["bm25"] = bm25_topk("", terms=tuple(terms[:6]), k=50,
                            index_dir=index_dir).to_pylist()
    # two adjacent words of the first text that has a pair of plain ones
    texts = r.fetch_docs(np.arange(min(n, 100)), ["text"]).column("text")
    phrase = next(m.group(0) for t in texts.to_pylist() if t
                  for m in [re.search(r"\b[a-z]{4,} [a-z]{4,}\b", t)] if m)
    out["phrase"] = run_query(
        r, f'find {{text: ~="{phrase}"}} order score() desc '
        'return [.conv_id, .turn_idx, score()] ;').to_pylist()
    # key lookups over every docmap partition, base ones included
    keys = r.fetch_docs(np.arange(0, n, 7), ["conv_id", "turn_idx"])
    out["lookup"] = [r.lookup_doc(k["conv_id"], k["turn_idx"])
                     for k in keys.to_pylist()]
    out["fetch"] = r.fetch_docs(np.arange(0, n, 5)).to_pylist()
    return out


def test_old_layout_answers_and_merges_the_same(layouts):
    new, old = layouts
    # the rewritten base holds 64-row groups where the byte rule wrote
    # fewer, larger ones
    pairs = [(a, os.path.join(old, os.path.relpath(a, new)))
             for a, _ in _groups(new)]
    assert any(len(_row_groups(b)) > len(_row_groups(a)) for a, b in pairs)
    want = _answers(new)
    assert want["bm25"] and want["phrase"]
    assert _answers(old) == want

    assert all(merge_epochs(idx) is not None for idx in (new, old))
    dirs = [os.path.join(idx, "epochs", "epoch-0001-0002")
            for idx in (new, old)]
    for sub in ("segments", "stats"):
        names = sorted(os.listdir(os.path.join(dirs[0], sub)))
        assert names == sorted(os.listdir(os.path.join(dirs[1], sub)))
        for f in names:
            a, b = (os.path.join(d, sub, f) for d in dirs)
            assert pq.read_table(a).equals(pq.read_table(b),
                                           check_metadata=True), f
            assert (pq.read_metadata(a).num_row_groups
                    == pq.read_metadata(b).num_row_groups), f
    assert _answers(old) == _answers(new)
