"""Term-bucket layout: the bucket-count rule, merges of indexes and epochs
written under different counts, and the reader's per-file index.

- A build of at most the engine's one-task size has one bucket, one doc
  more has 32, and the driver and Ray routes write the same files at both
  sizes (``pipeline.bucket_count``).
- ``merge_epochs`` and ``merge_indexes`` re-bucket sources written under
  another count and answer as before / as a fresh build.
- The reader's per-file index (``_SegBlockIndex`` / ``_StatsIndex``)
  answers every (field, term) like a brute-force filtered read of every
  segment and stats file, on 1-bucket and 32-bucket indexes with epochs
  (the 32-bucket one has the layout of indexes whose epochs shared the
  base's count) and on one whose segments are in 3-row groups (reads
  through the per-file row-group cache), and the two bucket layouts
  answer, and merge, the same.
"""

import contextlib
import hashlib
import json
import os
import random
import shutil

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from noise_ray.build import add_documents, build_index, merge_epochs
from noise_ray.build import pipeline
from noise_ray.build.codec import (decode_deltas, decode_position_lists,
                                   decode_varint)
from noise_ray.build.incremental import _epoch_dirs
from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
from noise_ray.build.merge import merge_indexes
from noise_ray.query import (IndexReader, JsonIndexReader, run_json_query,
                             run_query)
from noise_ray.sources import generate_transcripts

WORDS = ("fox dog quick brown lazy river stone cloud amber delta echo "
         "field grain harbor island jungle kettle lemon meadow noble ocean"
         ).split()

FLAT_QUERIES = [
    'find {text: ~="the"} order score() desc return [.conv_id, .turn_idx, '
    'score()] limit 40 ;',
    'find {text: ~="the", role: =="user"} return [.conv_id, .turn_idx] ;',
    'find {text: ~2="of the"} return [.conv_id, .turn_idx] ;',
]
NESTED_QUERIES = [
    'find {turns: [{text: ~="fox"}]} order score() desc, ._id asc '
    'return [._id, score()] ;',
    'find {turns: x::[{role: =="user", text: ~="river stone"}]} '
    'return [._id, x] ;',
    'find {turns: [{text: ~="lazy"}]} && !{turns: [{role: =="assistant"}]} '
    'return ._id ;',
]


def _nested_docs(n: int, seed: int, prefix: str) -> list[dict]:
    rng = random.Random(seed)
    return [{"_id": f"{prefix}{i:04d}",
             "turns": [{"role": rng.choice(("user", "assistant")),
                        "text": " ".join(rng.choices(WORDS, k=8))}
                       for _ in range(rng.randint(1, 3))]}
            for i in range(n)]


def _hash_files(index_dir: str) -> dict:
    out = {}
    for sub in ("docmap", "values", "segments", "stats"):
        d = os.path.join(index_dir, sub)
        for f in sorted(os.listdir(d)) if os.path.isdir(d) else ():
            with open(os.path.join(d, f), "rb") as fh:
                out[f"{sub}/{f}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "manifest.json")) as f:
        return json.load(f)


@contextlib.contextmanager
def _buckets(n: int | None):
    """Every build and merge inside sizes itself to ``n`` buckets (None:
    the rule)."""
    with pytest.MonkeyPatch.context() as mp:
        if n is not None:
            mp.setattr(pipeline, "bucket_count", lambda docs, nested: n)
        yield


# ------------------------------------------------------------ answers


def _reader(index_dir: str):
    return (JsonIndexReader if _manifest(index_dir).get("nested")
            else IndexReader)(index_dir)


def _keys(reader) -> list:
    """Every (field, term) in the index's stats files, epochs included."""
    keys = set()
    for p in reader.stats_paths():
        t = pq.read_table(p, columns=["field", "term"])
        keys.update(zip(t.column("field").to_pylist(),
                        t.column("term").to_pylist()))
    return sorted(keys)


def _ranges(n: int) -> list:
    return [None, (0, n), (n // 5, n // 2), (n - n // 7, n)]


def _pl(pl) -> list:
    return [None if a is None else np.asarray(a).tolist() for a in (
        pl.docs, pl.tfs, pl.lens, pl.pos_concat, pl.pos_starts, pl.aps)]


def _answers(index_dir: str) -> dict:
    """Postings (full and sliced doc-range reads, with and without
    positions), term stats and token totals of every (field, term), and
    the engine's queries."""
    r = _reader(index_dir)
    nested = isinstance(r, JsonIndexReader)
    out: dict = {}
    for f, t in _keys(r):
        for pos in (False, True):
            for rng in _ranges(r.num_docs):
                pl = r.postings(f, t, pos, rng)
                out[(f, t, pos, rng)] = _pl(
                    pl if rng is None else pl.slice_range(*rng))
        out[(f, t)] = r.term_stats(f, t)
        out[f] = r.token_total(f)
    for q in NESTED_QUERIES if nested else FLAT_QUERIES:
        rows = (run_json_query(r, q) if nested else run_query(r, q)
                .to_pylist())
        out[q] = rows
    return out


# ----------------------------------------------------------- corpora


def _flat_part(root: str, name: str, num_convs: int, seed: int,
               prefix: str = "", num_files: int = 2) -> list[str]:
    """A transcript corpus, its conv ids prefixed with ``prefix``."""
    paths = generate_transcripts(os.path.join(root, name),
                                 num_convs=num_convs, num_files=num_files,
                                 seed=seed)
    if prefix:
        for p in paths:
            t = pq.read_table(p)
            i = t.schema.get_field_index("conv_id")
            t = t.set_column(i, "conv_id", pc.binary_join_element_wise(
                prefix, t.column("conv_id"), ""))
            pq.write_table(t, p)
    return paths


def _nested_part(root: str, name: str, n: int, seed: int, base: int
                 ) -> list[str]:
    os.makedirs(root, exist_ok=True)
    return [docs_to_parquet(_nested_docs(n, seed, f"{name}-"),
                            os.path.join(root, f"{name}.parquet"),
                            docid_base=base)]


def _layout_index(root: str, engine: str, buckets: int,
                  block_size: int = 4096) -> str:
    """A base and two epochs (upserts and new docs), every part written
    under ``buckets`` buckets."""
    idx = os.path.join(root, f"{engine}{buckets}")
    with _buckets(buckets):
        if engine == "flat":
            build_index(_flat_part(root, "in0", 30, 3), idx,
                        block_size=block_size)
            for ep, seed in ((1, 7), (2, 9)):
                add_documents(idx, _flat_part(root, f"in{ep}", 12, seed))
        else:
            build_json_index(_nested_part(root, "base", 120, 3, 0), idx,
                             block_size=block_size)
            for ep, seed in ((1, 7), (2, 9)):
                docs = (_nested_docs(20, seed, "base-")
                        + _nested_docs(20, seed, f"e{ep}-"))
                add_documents(idx, [docs_to_parquet(
                    docs, os.path.join(root, f"e{ep}.parquet"),
                    docid_base=100 * ep)])
    return idx


def _small_row_groups(idx: str) -> str:
    """Rewrite index ``idx``'s segment files (epochs included) in 3-row
    groups: with 2-posting blocks, a term's rows span several groups and
    a file more groups than the reader's per-file row-group cache
    keeps."""
    for d in [idx] + _epoch_dirs(idx):
        for s in _manifest(d)["segments"]:
            p = os.path.join(d, s["path"])
            t = pq.read_table(p)
            pq.write_table(t, p, row_group_size=3, **pipeline.parquet_options(
                t.schema, pipeline.SEGMENT_WRITE))
            assert pq.read_metadata(p).num_row_groups == -(-t.num_rows // 3)
    return idx


@pytest.fixture(scope="module")
def layouts(ray_session, tmp_path_factory):
    """(engine, buckets) -> index dir, for 1 and 32 buckets, and
    (engine, "rg3"): a 1-bucket index of 2-posting blocks in 3-row
    segment row groups."""
    root = str(tmp_path_factory.mktemp("layouts"))
    out = {(e, b): _layout_index(os.path.join(root, str(b)), e, b)
           for e in ("flat", "nested") for b in (1, 32)}
    for e in ("flat", "nested"):
        out[(e, "rg3")] = _small_row_groups(_layout_index(
            os.path.join(root, "rg3"), e, 1, block_size=2))
    return out


# ------------------------------------------------------ sizing rule


def _flat_boundary(root: str):
    # one file: a one-task Ray job cuts the same blocks as the driver
    paths = _flat_part(root, "in", 20, 5, num_files=1)
    return build_index, paths, sum(pq.read_metadata(p).num_rows
                                   for p in paths), "DOCS_PER_TASK"


def _nested_boundary(root: str):
    paths = _nested_part(root, "docs", 60, 5, 0)
    return build_json_index, paths, 60, "NESTED_DOCS_PER_TASK"


@pytest.mark.parametrize("corpus", [_flat_boundary, _nested_boundary],
                         ids=["flat", "nested"])
def test_one_task_build_has_one_bucket(ray_session, tmp_path, monkeypatch,
                                       corpus):
    """At the engine's one-task size a build has 1 bucket, one doc more
    has 32; at both sizes the driver route and a forced Ray route write
    the same files."""
    build, paths, n, const = corpus(str(tmp_path))
    for task_size, want in ((n, 1), (n - 1, 32)):
        monkeypatch.setattr(pipeline, const, task_size)
        assert pipeline.bucket_count(n, const.startswith("NESTED")) == want
        out = {}
        for route, kw in (("default", {}),
                          ("driver", {"docs_per_ingest_task": n}),
                          ("ray", {"docs_per_ingest_task": n - 1})):
            d = str(tmp_path / f"{task_size}-{route}")
            build(paths, d, **kw)
            m = _manifest(d)
            assert m["num_buckets"] == want, route
            assert m["metrics"]["local"] is (route == "driver"
                                             or (route == "default"
                                                 and want == 1))
            m.pop("metrics")
            out[route] = (m, _hash_files(d))
        assert out["driver"] == out["ray"] == out["default"]
        if want == 1:
            assert len(out["driver"][0]["segments"]) == 1


# ----------------------------------------------------- merge_epochs


@pytest.mark.parametrize("engine", ["flat", "nested"])
@pytest.mark.parametrize("merged", [1, 32])
def test_merge_epochs_rebuckets_mixed_counts(ray_session, tmp_path, engine,
                                             merged):
    """A 32-bucket epoch plus 1-bucket epochs merge into one epoch of the
    rule's count (forced to 1 or 32 here) with the same answers."""
    idx = _layout_index(str(tmp_path), engine, 32)  # base + 2 epochs @32
    with _buckets(1):
        if engine == "flat":
            add_documents(idx, _flat_part(str(tmp_path), "in3", 10, 11))
        else:
            add_documents(idx, _nested_part(str(tmp_path), "e3", 30, 11,
                                            300))
    counts = [_manifest(e)["num_buckets"] for e in _epoch_dirs(idx)]
    assert counts == [32, 32, 1]
    want = _answers(idx)
    with _buckets(merged):
        m = merge_epochs(idx)
    assert m["num_buckets"] == merged
    assert len(_epoch_dirs(idx)) == 1
    assert _answers(idx) == want


# ---------------------------------------------------- merge_indexes


def test_merge_indexes_rebuckets_mixed_counts(ray_session, tmp_path):
    """A 32-bucket and a 1-bucket source merge into a 32-bucket index that
    answers like one fresh build over the concatenated rows."""
    root = str(tmp_path)
    a = _flat_part(root, "a", 20, 3, prefix="a-")
    b = _flat_part(root, "b", 15, 4, prefix="b-")
    build_index(a, os.path.join(root, "ia"), num_buckets=32)
    build_index(b, os.path.join(root, "ib"))
    assert _manifest(os.path.join(root, "ib"))["num_buckets"] == 1
    out = os.path.join(root, "merged")
    m = merge_indexes([os.path.join(root, "ia"), os.path.join(root, "ib")],
                      out)
    assert m["num_buckets"] == 32
    build_index(a + b, os.path.join(root, "fresh"))
    assert _answers(out) == _answers(os.path.join(root, "fresh"))


def test_merge_indexes_rebuckets_nested(ray_session, tmp_path):
    root = str(tmp_path)
    pa_ = _nested_part(root, "a", 80, 3, 0)
    pb = _nested_part(root, "b", 50, 4, 80)
    build_json_index(pa_, os.path.join(root, "ia"))
    build_json_index(pb, os.path.join(root, "ib"), num_buckets=8)
    out = os.path.join(root, "merged")
    assert merge_indexes([os.path.join(root, "ia"),
                          os.path.join(root, "ib")], out)["num_buckets"] == 8
    build_json_index(pa_ + pb, os.path.join(root, "fresh"))
    assert _answers(out) == _answers(os.path.join(root, "fresh"))


# --------------------------------------------------- per-file index


def _brute(index_dir: str):
    """Per-(field, term) block rows and stats sums of every segment and
    stats file of the index and its epochs, from plain whole-file reads."""
    blocks: dict = {}
    stats: dict = {}
    field_k: dict = {}
    for d in [index_dir] + _epoch_dirs(index_dir):
        m = _manifest(d)
        for k, v in m["field_k"].items():
            field_k[k] = field_k.get(k, 0) + int(v)
        for s in m["segments"]:
            for row in pq.read_table(os.path.join(d, s["path"])).to_pylist():
                blocks.setdefault((row["field"], row["term"]), []).append(row)
        for s in m["stats"]:
            for row in pq.read_table(os.path.join(d, s["path"]),
                                     columns=["field", "term", "c"]
                                     ).to_pylist():
                key = (row["field"], row["term"])
                stats[key] = stats.get(key, 0) + row["c"]
    return blocks, stats, field_k


def _brute_postings(rows, positions: bool, rng, depth):
    """The decoded blocks of ``rows`` that overlap ``rng``, as ``_pl``
    lists; no block: the reader's empty list."""
    rows = [r for r in sorted(rows, key=lambda r: r["min_doc"])
            if rng is None or (r["max_doc"] >= rng[0]
                               and r["min_doc"] < rng[1])]
    if not rows:
        return [[], [], [], [], [], None if depth is None else []]
    docs, tfs, lens, pos, aps = [], [], [], [], []
    for r in rows:
        n = r["cnt"]
        docs.append(decode_deltas(r["docs"], n))
        tf = decode_varint(r["tfs"], n).astype(np.int64)
        tfs.append(tf)
        lens.append(decode_varint(r["lens"], n).astype(np.int64))
        if positions:
            pos.append(decode_position_lists(r["positions"], tf))
        if depth is not None:
            aps.append(decode_varint(r["aps"], n * depth)
                       .astype(np.int64).reshape(n, depth))
    cat = np.concatenate
    tf = cat(tfs)
    starts = np.zeros(tf.size, np.int64)
    np.cumsum(tf[:-1], out=starts[1:])
    return [cat(docs).tolist(), tf.tolist(), cat(lens).tolist(),
            cat(pos).tolist() if positions else None,
            starts.tolist() if positions else None,
            None if depth is None else np.vstack(aps).tolist()]


@pytest.mark.parametrize("key", [("flat", 1), ("flat", 32), ("nested", 1),
                                 ("nested", 32), ("flat", "rg3"),
                                 ("nested", "rg3")],
                         ids=["flat1", "flat32", "nested1", "nested32",
                              "flat1rg3", "nested1rg3"])
def test_per_file_index_matches_brute_force(layouts, key):
    idx = layouts[key]
    blocks, stats, field_k = _brute(idx)
    r = _reader(idx)
    nested = isinstance(r, JsonIndexReader)
    assert len(r._epochs) == 2
    totals: dict = {}
    for (f, t), c in stats.items():
        totals[f] = totals.get(f, 0) + c
    keys = _keys(r)
    assert set(keys) == set(blocks) == set(stats)
    for f, t in keys + [(keys[0][0], "zzabsent")]:
        depth = r._aps_depth(f)
        for pos in (False, True):
            for rng in _ranges(r.num_docs):
                for sub in [r] + r._epochs:  # each read from the files
                    sub._postings_cache.clear()
                got = r.postings(f, t, pos, rng)
                want = _brute_postings(blocks.get((f, t), []), pos, rng,
                                       depth)
                assert _pl(got) == want, (f, t, pos, rng)
        assert r.term_stats(f, t) == (stats.get((f, t), 0),
                                      field_k.get(str(f), 0)), (f, t)
    for f, total in totals.items():
        assert r.token_total(f) == total, f
    if not nested:  # the WAND block path reads the same per-file index
        fid = r.field_id["text"]
        for f, t in keys[::7]:
            if f != fid:
                continue
            bl = r.term_blocks(f, t)
            got = np.concatenate([b.decode()[0] for b in bl])
            assert got.tolist() == r.postings(f, t, False).docs.tolist()


@pytest.mark.parametrize("engine", ["flat", "nested"])
def test_parent_layout_answers_and_merges_like_one_bucket(layouts, tmp_path,
                                                          engine):
    """An index whose base and epochs all have 32 buckets (epochs that
    shared the base's count) answers like the 1-bucket layout of the same
    inputs, takes a self-sized epoch, and merges to the same answers."""
    dirs = []
    for b in (32, 1):
        d = str(tmp_path / f"{engine}{b}")
        shutil.copytree(layouts[(engine, b)], d)
        dirs.append(d)
    assert _answers(dirs[0]) == _answers(dirs[1])
    for d in dirs:
        if engine == "flat":
            add_documents(d, _flat_part(str(tmp_path), "in3", 10, 11))
        else:
            add_documents(d, _nested_part(str(tmp_path), "e3", 30, 11, 300))
        assert _manifest(_epoch_dirs(d)[-1])["num_buckets"] == 1
    want = _answers(dirs[1])
    assert _answers(dirs[0]) == want
    for d in dirs:
        assert merge_epochs(d)["num_buckets"] == 1
    assert _answers(dirs[0]) == _answers(dirs[1]) == want
