"""Build-pipeline invariants: text equality, determinism, resume lineage.

Covers FIXTURES.md §4 and the north rule's resumability requirement: a build
killed after some partitions committed must resume to an identical index.
"""

import hashlib
import json
import os
import shutil

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from noise_ray.build import build_index
from noise_ray.query import IndexReader, run_query
from noise_ray.sources import generate_transcripts


def _hash_dir_files(index_dir):
    out = {}
    for sub in ("docmap", "values", "segments", "stats"):
        d = os.path.join(index_dir, sub)
        if not os.path.isdir(d):  # values: nested indexes only
            continue
        for f in sorted(os.listdir(d)):
            with open(os.path.join(d, f), "rb") as fh:
                out[f"{sub}/{f}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_text_equality_under_stable_order(small_transcripts):
    """Per-turn text byte-equality between source and doc store, and doc_id
    order == stable (conv_id, turn_idx) order (the input_hint invariant)."""
    import pyarrow as pa

    src = pq.read_table(
        [p for p in small_transcripts["input"]],
        columns=["conv_id", "turn_idx", "text"],
    )
    idx = pc.sort_indices(
        src, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    src = src.take(idx)

    dm_files = [d["path"] for d in small_transcripts["manifest"]["docmap"]]
    dm = pq.read_table(dm_files, columns=["doc_id", "conv_id", "turn_idx", "text"])
    dm = dm.take(pc.sort_indices(dm, sort_keys=[("doc_id", "ascending")]))

    assert dm.num_rows == src.num_rows
    assert dm.column("doc_id").to_pylist() == list(range(src.num_rows))
    for col in ("conv_id", "turn_idx", "text"):
        assert dm.column(col).to_pylist() == src.column(col).to_pylist(), col


def test_build_deterministic(ray_session, tmp_path):
    paths = generate_transcripts(str(tmp_path / "in"), num_convs=40, num_files=4)
    m1 = build_index(paths, str(tmp_path / "idx1"), num_buckets=8)
    m2 = build_index(paths, str(tmp_path / "idx2"), num_buckets=8)
    assert _hash_dir_files(str(tmp_path / "idx1")) == _hash_dir_files(
        str(tmp_path / "idx2")
    )
    assert m1["field_k"] == m2["field_k"]
    assert m1["num_docs"] == m2["num_docs"]


def _num_rows(paths):
    return sum(pq.read_metadata(p).num_rows for p in paths)


def _route_kwargs(route, paths):
    """Build arguments (either engine) that take ``route``: the default
    driver run, or a Ray Data job (an ingest task one doc smaller than the
    corpus)."""
    if route == "driver":
        return {}
    return {"docs_per_ingest_task": _num_rows(paths) - 1}


def _disk_manifest(index_dir):
    with open(os.path.join(index_dir, "manifest.json")) as f:
        m = json.load(f)
    return m, m.pop("metrics")


def _flat_corpus(root):
    """A one-file flat corpus and the flat build."""
    return build_index, generate_transcripts(os.path.join(root, "in"),
                                             num_convs=40, num_files=1)


def _nested_corpus(root):
    """A one-file nested corpus (arrays of 1-4 objects) and the nested
    build."""
    from noise_ray.build.json_pipeline import (build_json_index,
                                               docs_to_parquet)

    docs = [{"_id": f"d{i}", "n": i,
             "msgs": [{"t": f"word{(i + j) % 7} text {j}"}
                      for j in range(1 + i % 4)]} for i in range(60)]
    os.makedirs(root, exist_ok=True)
    return build_json_index, [docs_to_parquet(
        docs, os.path.join(root, "docs.parquet"))]


@pytest.mark.parametrize("corpus", [_flat_corpus, _nested_corpus],
                         ids=["flat", "nested"])
def test_driver_and_ray_routes_write_identical_files(ray_session, tmp_path,
                                                     corpus):
    """A one-file corpus built in the driver (the default at one ingest
    task's worth of docs) and by a one-task Ray Data job writes the same
    bytes: the two routes run the same stage functions."""
    build, paths = corpus(str(tmp_path))
    local_dir, ray_dir = str(tmp_path / "driver"), str(tmp_path / "ray")
    build(paths, local_dir)
    build(paths, ray_dir, **_route_kwargs("ray", paths))
    m_local, metrics_local = _disk_manifest(local_dir)
    m_ray, metrics_ray = _disk_manifest(ray_dir)
    assert metrics_local["local"] is True
    assert metrics_ray["local"] is False
    assert m_local == m_ray
    hashes = _hash_dir_files(local_dir)
    assert any(k.startswith("segments/") for k in hashes)
    assert hashes == _hash_dir_files(ray_dir)


@pytest.mark.parametrize("route", ["driver", "ray"])
def test_resume_after_partial_build(ray_session, tmp_path, route):
    """Delete the manifest plus some committed outputs; resume must
    reconstruct a byte-identical index and skip already-done partitions."""
    paths = generate_transcripts(str(tmp_path / "in"), num_convs=40, num_files=4)
    kw = _route_kwargs(route, paths)
    full_dir = str(tmp_path / "full")
    m = build_index(paths, full_dir, num_buckets=8, **kw)
    assert m["metrics"]["local"] is (route == "driver")
    want = _hash_dir_files(full_dir)

    resume_dir = str(tmp_path / "resume")
    build_index(paths, resume_dir, num_buckets=8, **kw)
    # simulate a crash: manifest gone, one docmap partition and two segment
    # groups lost, stats lost
    os.remove(os.path.join(resume_dir, "manifest.json"))
    dm = sorted(os.listdir(os.path.join(resume_dir, "docmap")))
    os.remove(os.path.join(resume_dir, "docmap", dm[1]))
    segs = sorted(os.listdir(os.path.join(resume_dir, "segments")))
    for s in segs[:2]:
        os.remove(os.path.join(resume_dir, "segments", s))
    shutil.rmtree(os.path.join(resume_dir, "stats"))
    os.makedirs(os.path.join(resume_dir, "stats"))

    m = build_index(paths, resume_dir, num_buckets=8, **kw)
    assert _hash_dir_files(resume_dir) == want
    with open(os.path.join(full_dir, "manifest.json")) as f:
        full_segs = json.load(f)["segments"]
    assert [(s["gkey"], s["postings"]) for s in m["segments"]] == [
        (s["gkey"], s["postings"]) for s in full_segs
    ]


def _empty_like(path, out):
    """A zero-row copy of ``path`` (same schema, no column statistics)."""
    pq.write_table(pq.read_table(path).slice(0, 0), out)
    return out


def test_zero_row_files_are_skipped(ray_session, tmp_path):
    """A zero-row input file holds no docs: ``[empty]`` builds the same
    0-doc index as ``[]``, and ``[empty, a]`` the same files as ``[a]``."""
    (a,) = generate_transcripts(str(tmp_path / "in"), num_convs=20,
                                num_files=1)
    empty = _empty_like(a, str(tmp_path / "in" / "empty.parquet"))

    m_none = build_index([], str(tmp_path / "none"))
    m_empty = build_index([empty], str(tmp_path / "empty"))
    assert m_empty["num_docs"] == m_none["num_docs"] == 0
    assert _disk_manifest(str(tmp_path / "empty"))[0] == _disk_manifest(
        str(tmp_path / "none"))[0]
    assert _hash_dir_files(str(tmp_path / "empty")) == _hash_dir_files(
        str(tmp_path / "none")) == {}

    build_index([a], str(tmp_path / "a"))
    build_index([empty, a], str(tmp_path / "empty_a"))
    assert _disk_manifest(str(tmp_path / "empty_a"))[0] == _disk_manifest(
        str(tmp_path / "a"))[0]
    assert _hash_dir_files(str(tmp_path / "empty_a")) == _hash_dir_files(
        str(tmp_path / "a"))


def _flat_upsert_case(root):
    """A 3-file flat base and a delta re-adding every 5th base key plus
    new ones: (docmap, delta keys, key columns, offset, shadowed ids)."""
    import pyarrow as pa

    paths = generate_transcripts(os.path.join(root, "in"), num_convs=30,
                                 num_files=3)
    m = build_index(paths, os.path.join(root, "idx"), num_buckets=8)
    keys = ["conv_id", "turn_idx"]
    dm = pq.read_table([e["path"] for e in m["docmap"]],
                       columns=["doc_id", *keys])
    picked = dm.take(pa.array(range(0, dm.num_rows, 5)))
    new_keys = pa.concat_tables([picked.select(keys), pa.table({
        "conv_id": pa.array(["zz-new"] * 2),
        "turn_idx": pa.array([0, 1], dm.schema.field("turn_idx").type)})])
    return (m["docmap"], new_keys, keys, m["num_docs"],
            sorted(picked.column("doc_id").to_pylist()))


def _nested_upsert_case(root):
    import pyarrow as pa

    from noise_ray.build.json_pipeline import (build_json_index,
                                               docs_to_parquet)

    docs = [{"_id": f"d{i}", "t": f"word{i % 7} text"} for i in range(40)]
    paths = [docs_to_parquet(docs[i:i + 10],
                             os.path.join(root, f"j{i}.parquet"),
                             docid_base=i) for i in range(0, 40, 10)]
    m = build_json_index(paths, os.path.join(root, "idx"), num_buckets=4)
    new_keys = pa.table({"_id": ["d3", "d17", "d39", "fresh"]})
    return m["docmap"], new_keys, ["_id"], m["num_docs"], [3, 17, 39]


@pytest.mark.parametrize("case", [_flat_upsert_case, _nested_upsert_case],
                         ids=["flat", "nested"])
def test_shadowed_doc_ids_finds_the_older_colliding_docs(ray_session,
                                                         tmp_path, case):
    """The upsert semi-join over several docmap partitions returns exactly
    the older docs whose keys the delta re-adds, sorted; docs at or past
    ``offset`` and an empty delta shadow nothing."""
    from noise_ray.build.incremental import shadowed_doc_ids

    docmap, new_keys, keys, offset, want = case(str(tmp_path))
    assert len(docmap) > 1 and want
    assert shadowed_doc_ids(docmap, new_keys, keys, offset) == want
    assert shadowed_doc_ids(docmap, new_keys, keys, 0) == []
    assert shadowed_doc_ids(docmap, new_keys.slice(0, 0), keys, offset) == []


def test_partitioning_independence(ray_session, tmp_path):
    """Index CONTENT must not depend on input file layout or ingest task
    size (the sandbox stand-in for cluster-size independence): identical term
    stats (byte-for-byte — they are per-term totals), identical decoded
    posting lists for the whole vocabulary, identical scores.  Segment
    FILES may differ: posting blocks are finished in the mapper, so block
    boundaries follow ingest-task boundaries (by design — the writer never
    re-encodes)."""
    p_a = generate_transcripts(str(tmp_path / "a"), num_convs=40, num_files=2)
    p_b = generate_transcripts(str(tmp_path / "b"), num_convs=40, num_files=7)
    # both builds take the Ray Data route, with different task sizes (a
    # corpus of one task's worth would otherwise run in the driver)
    m_a = build_index(p_a, str(tmp_path / "idxa"), num_buckets=8,
                      docs_per_ingest_task=_num_rows(p_a) // 3)
    m_b = build_index(p_b, str(tmp_path / "idxb"), num_buckets=8,
                      docs_per_ingest_task=_num_rows(p_b) // 5)
    assert not m_a["metrics"]["local"] and not m_b["metrics"]["local"]
    ha = {k: v for k, v in _hash_dir_files(str(tmp_path / "idxa")).items()
          if k.startswith("stats/")}
    hb = {k: v for k, v in _hash_dir_files(str(tmp_path / "idxb")).items()
          if k.startswith("stats/")}
    assert ha == hb

    ra = IndexReader(str(tmp_path / "idxa"))
    rb = IndexReader(str(tmp_path / "idxb"))

    # whole-vocabulary postings equality (decoded form)
    vocab = set()
    for s in ra.manifest["stats"]:
        t = pq.read_table(s["path"], columns=["field", "term"])
        vocab.update(zip(t.column("field").to_pylist(),
                         t.column("term").to_pylist()))
    assert vocab
    for fid, term in sorted(vocab):
        pa_, pb_ = ra.postings(fid, term), rb.postings(fid, term)
        assert pa_.docs.tolist() == pb_.docs.tolist(), (fid, term)
        assert pa_.tfs.tolist() == pb_.tfs.tolist(), (fid, term)
        assert pa_.lens.tolist() == pb_.lens.tolist(), (fid, term)
        assert pa_.pos_concat.tolist() == pb_.pos_concat.tolist(), (fid, term)
        assert ra.term_stats(fid, term) == rb.term_stats(fid, term)

    q = 'find {text: ~="the quick"} order score() desc return score() limit 10 ;'
    ta, tb = run_query(ra, q), run_query(rb, q)
    assert ta.column("doc_id").to_pylist() == tb.column("doc_id").to_pylist()
    assert ta.column("score").to_pylist() == tb.column("score").to_pylist()


def _reference_posting_blocks(batch, fields, num_buckets, num_ranges,
                              range_span, range_base, block_size):
    """Per-(field, term) reference for ``tokenize_batch``: one codec call
    per block row, rows cut at doc-range boundaries and ``block_size``."""
    import numpy as np
    import pyarrow as pa

    from noise_ray.analysis.tokenizer import tokenize_grouped
    from noise_ray.build.codec import (encode_deltas, encode_position_lists,
                                       encode_varint)
    from noise_ray.build.pipeline import term_bucket

    doc_ids = batch.column("doc_id").to_numpy()
    acc = {}
    for fi, fname in enumerate(fields):
        for i, v in enumerate(batch.column(fname).to_pylist()):
            if v is None:
                continue
            terms, positions, field_len = tokenize_grouped(v)
            for t, p in zip(terms, positions):
                e = acc.setdefault((fi, t), ([], [], [], []))
                e[0].append(int(doc_ids[i]))
                e[1].append(len(p))
                e[2].append(field_len)
                e[3].extend(p)
    rows = []
    for (fi, t), run in acc.items():
        docs, tfs, lens, pos = (np.asarray(x, dtype=np.int64) for x in run)
        pos_ends = np.cumsum(tfs)
        tf_norm = (np.sqrt(tfs.astype(np.float32))
                   / np.sqrt(lens.astype(np.float32)))
        rng_of = np.minimum((docs - range_base) // range_span,
                            num_ranges - 1)
        cut = np.flatnonzero(np.diff(rng_of)) + 1
        for r_lo, r_hi in zip(np.r_[0, cut], np.r_[cut, docs.size]):
            for lo in range(int(r_lo), int(r_hi), block_size):
                hi = min(lo + block_size, int(r_hi))
                p_lo = int(pos_ends[lo - 1]) if lo else 0
                p_hi = int(pos_ends[hi - 1])
                rows.append({
                    "gkey": term_bucket(t, num_buckets) * num_ranges
                    + int(rng_of[lo]),
                    "field": fi, "term": t,
                    "min_doc": int(docs[lo]), "max_doc": int(docs[hi - 1]),
                    "cnt": hi - lo, "c_block": p_hi - p_lo,
                    "max_tf_norm": float(tf_norm[lo:hi].max()),
                    "max_tf": int(tfs[lo:hi].max()),
                    "min_len": int(lens[lo:hi].min()),
                    "docs": encode_deltas(docs[lo:hi]),
                    "tfs": encode_varint(tfs[lo:hi]),
                    "lens": encode_varint(lens[lo:hi]),
                    "pos": encode_position_lists(pos[p_lo:p_hi],
                                                 tfs[lo:hi]),
                })
    schema = pa.schema([
        ("gkey", pa.int32()), ("field", pa.int32()), ("term", pa.string()),
        ("min_doc", pa.int64()), ("max_doc", pa.int64()),
        ("cnt", pa.int32()), ("c_block", pa.int64()),
        ("max_tf_norm", pa.float32()), ("max_tf", pa.int64()),
        ("min_len", pa.int64()), ("docs", pa.binary()),
        ("tfs", pa.binary()), ("lens", pa.binary()), ("pos", pa.binary())])
    return pa.Table.from_pylist(rows, schema=schema)


@pytest.mark.parametrize("table", ["cold", "warm"])
@pytest.mark.parametrize("num_ranges,range_span,range_base,block_size", [
    (1, 10**9, 0, 4096),
    (3, 40, 17, 4096),   # doc-range splits with a nonzero base
    (1, 10**9, 0, 3),    # block_size cuts
    (4, 25, 5, 3),       # both
])
def test_tokenize_batch_matches_per_term_reference(
        num_ranges, range_span, range_base, block_size, table):
    # ``table``: the process-wide term table starts empty ("cold") or
    # already holds every raw token of both batches under other term ids
    # ("warm": both batches tokenized first, in the other order)
    import numpy as np
    import pyarrow as pa

    from noise_ray.build.pipeline import _TERMS, tokenize_batch

    rng = np.random.default_rng(7)
    words = ["cat", "cats", "dog", "running", "runs", "the", "naïve",
             "x9", "zebra", "apple", "bee"]
    n = 120
    texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 12))))
             for _ in range(n)]
    texts[3] = None
    texts[4] = ""                                 # fallback token
    texts[5] = "!!! 42 ???"                       # no alphabetic token
    texts[6] = "dog dog dog cat dog"              # repeated terms
    roles = [[None, "user", "assistant"][i % 3] for i in range(n)]
    tools = [None] * n
    tools[10] = tools[11] = "grep the cats"
    batch = pa.table({
        "doc_id": pa.array(np.arange(range_base, range_base + n), pa.int64()),
        "role": roles, "text": texts, "tool": tools})

    # segmentation edge cases for the batch ASCII splitter, ASCII and
    # non-ASCII rows interleaved, an all-null (null-typed) field, and a
    # field whose every row takes the whole-text fallback
    edge = ["a..b", "'tis", "9abc _x x9", "a.;b", "dog.", "tab\tdog\tcat",
            "two\nlines dog.\r\n", "naïve cafés", "dog’s bone", "ﬁne dog",
            "™ mark", None, "cat, dog; x:y", "日本語 dog", ""]
    fallback = ["", "42", "!!", "...", "9_9", "½", None, "١٢٣", " \t"]
    m = 2 * len(edge)
    edge_batch = pa.table({
        "doc_id": pa.array(np.arange(range_base, range_base + m), pa.int64()),
        "text": [edge[i % len(edge)] for i in range(m)],
        "none": pa.nulls(m),
        "fallback": [fallback[i % len(fallback)] for i in range(m)]})

    cases = ((batch, ("role", "text", "tool")),
             (edge_batch, ("text", "none", "fallback")))
    _TERMS.clear()
    if table == "warm":
        for b, fields in cases[::-1]:
            tokenize_batch(b.slice(1), fields=fields, num_buckets=1,
                           num_ranges=1, range_span=10**9,
                           range_base=range_base + 1)
    for b, fields in cases:
        kw = dict(fields=fields, num_buckets=8, num_ranges=num_ranges,
                  range_span=range_span, range_base=range_base,
                  block_size=block_size)
        if table == "cold":
            _TERMS.clear()
        got = tokenize_batch(b, **kw)
        want = _reference_posting_blocks(b, fields, 8, num_ranges,
                                         range_span, range_base, block_size)
        assert got.num_rows == want.num_rows > 0
        assert got.equals(want)
        empty = tokenize_batch(b.slice(0, 0), **kw)
        assert empty.equals(want.slice(0, 0))


def _term_table_corpora(root):
    """Two flat corpora (B's texts differ from A's) and two nested ones."""
    from noise_ray.build.json_pipeline import docs_to_parquet

    flat = [generate_transcripts(os.path.join(root, f"f{k}"), num_convs=30,
                                 num_files=2, seed=seed)
            for k, seed in enumerate((3, 11))]
    os.makedirs(os.path.join(root, "n"), exist_ok=True)
    nested = [[docs_to_parquet(
        [{"_id": f"d{i}", "msgs": [{"t": f"w{(i * j + k) % 17} naïve {j}"}
                                   for j in range(1 + i % 4)],
          "s": ["", "42", "日本 dog", "Running runs"][(i + k) % 4]}
         for i in range(50)], os.path.join(root, "n", f"n{k}.parquet"))]
        for k in range(2)]
    return flat, nested


_FRESH_BUILD = """
import sys
sys.path.insert(0, sys.argv[1])
from noise_ray.build import build_index
from noise_ray.build.json_pipeline import build_json_index
flat = sys.argv[2] == "flat"
(build_index if flat else build_json_index)(sys.argv[4:], sys.argv[3])
"""


def test_term_table_state_never_reaches_the_files(tmp_path, monkeypatch):
    # (a) corpus B built after corpus A in one process writes the files a
    # fresh process writes for B; (b) so does B built with the table
    # restarted before its batch, and B's rows tokenized in three batches
    # with a restart before each equal B's rows tokenized in one batch
    import subprocess
    import sys

    import numpy as np
    import pyarrow as pa

    from noise_ray.build import pipeline
    from noise_ray.build.json_pipeline import build_json_index

    flat, nested = _term_table_corpora(str(tmp_path / "in"))
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for kind, (a, b), build in (("flat", flat, build_index),
                                ("nested", nested, build_json_index)):
        fresh = str(tmp_path / f"{kind}_fresh")
        subprocess.run([sys.executable, "-c", _FRESH_BUILD, repo, kind,
                        fresh, *b], check=True)
        want = _hash_dir_files(fresh)
        assert any(k.startswith("segments/") for k in want)
        build(a, str(tmp_path / f"{kind}_a"))
        assert len(pipeline._TERMS.raws) + len(pipeline._TERMS.terms) > 8
        build(b, str(tmp_path / f"{kind}_after_a"))
        assert _hash_dir_files(str(tmp_path / f"{kind}_after_a")) == want
        with monkeypatch.context() as m:
            m.setattr(pipeline.TermTable, "LIMIT", 8)
            build(a, str(tmp_path / f"{kind}_a2"))
            build(b, str(tmp_path / f"{kind}_restart"))
        assert _hash_dir_files(str(tmp_path / f"{kind}_restart")) == want

    fields = ("role", "text", "tool")
    t = pa.concat_tables([pq.read_table(p) for p in flat[1]])
    batch = t.select(fields).add_column(
        0, "doc_id", pa.array(np.arange(t.num_rows), pa.int64()))
    kw = dict(fields=fields, num_buckets=4, num_ranges=3,
              range_span=-(-t.num_rows // 3))
    cuts = [0, t.num_rows // 3, 2 * t.num_rows // 3, t.num_rows]
    pipeline._TERMS.clear()
    want = pa.concat_tables([pipeline.tokenize_batch(
        batch.slice(lo, hi - lo), **kw) for lo, hi in zip(cuts, cuts[1:])])
    clears = []
    real_clear = pipeline.TermTable.clear
    monkeypatch.setattr(pipeline.TermTable, "LIMIT", 8)
    monkeypatch.setattr(pipeline.TermTable, "clear",
                        lambda self: clears.append(1) or real_clear(self))
    got = pa.concat_tables([pipeline.tokenize_batch(
        batch.slice(lo, hi - lo), **kw) for lo, hi in zip(cuts, cuts[1:])])
    assert len(clears) == 3 and got.equals(want)


def test_term_table_shared_by_threads(monkeypatch):
    # threads tokenizing different batches share the process-wide term
    # table, restarting it before nearly every batch: each output must
    # equal the same batch's single-threaded output
    import sys
    import threading

    import numpy as np
    import pyarrow as pa

    from noise_ray.build import pipeline

    rng = np.random.default_rng(5)
    words = ["cat", "cats", "dog", "running", "naïve", "x9", "42", "",
             "zebra", "apple", "bee", "tab\tdog"]
    batches = [pa.table({
        "doc_id": pa.array(np.arange(k * 50, k * 50 + 50), pa.int64()),
        "text": [" ".join(rng.choice(words, size=int(rng.integers(1, 6))))
                 for _ in range(50)]}) for k in range(6)]
    kw = dict(fields=("text",), num_buckets=4, num_ranges=1,
              range_span=10**9)
    want = [pipeline.tokenize_batch(b, **kw) for b in batches]
    monkeypatch.setattr(pipeline.TermTable, "LIMIT", 4)
    bad = []

    def work(k):
        try:
            for i in range(60):
                j = (k + i) % len(batches)
                got = pipeline.tokenize_batch(batches[j], **kw)
                if not got.equals(want[j]):
                    bad.append(j)
        except Exception as e:  # a thread's error fails the test too
            bad.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_kp_term_buckets_equal_kp_term_bucket():
    import numpy as np
    import pyarrow as pa

    from noise_ray.build.json_pipeline import kp_term_bucket, kp_term_buckets
    from noise_ray.build.pipeline import TermTable

    rng = np.random.default_rng(3)
    alphabet = list("ab.$_ é日\0")
    words = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 12))))
             for _ in range(300)]
    kps = [".a", ".msgs$.t", "", ".ü$$"]
    table = TermTable()
    tid = table.term_ids(pa.array(words))
    kp = [kps[i % len(kps)] for i in range(len(words))]
    for nb in (1, 7, 32, 4096):
        got = kp_term_buckets(pa.array(kp), table.crc[tid], table.nbytes[tid],
                              nb)
        assert got.tolist() == [kp_term_bucket(k, w, nb)
                                for k, w in zip(kp, words)]


def test_group_postings_lexsort_fallback_agrees():
    # term ids so large that the packed (key, instance, pos) sort key
    # cannot fit an int64 take group_postings' two-key lexsort: the
    # postings must be the packed sort's
    import numpy as np

    from noise_ray.build import pipeline

    rng = np.random.default_rng(9)
    group, inst, pos = [], [], []
    for g in range(3):
        for i in range(40):
            k = int(rng.integers(0, 30))
            group += [g] * k
            inst += [i] * k
            pos += rng.permutation(k).tolist()
    group, inst, pos = (np.array(x, np.int64) for x in (group, inst, pos))
    tid = rng.integers(0, 50, group.size)
    perm = rng.permutation(group.size)
    group, inst, pos, tid = group[perm], inst[perm], pos[perm], tid[perm]
    packed = pipeline.group_postings(group, inst, pos, tid, 3)
    big = tid + 2 ** 59  # (3 * 2**59 + 3) * span >= 2**63
    assert (int((big * 3 + group).max()) + 1) * (
        int((inst * (pos.max() + 1) + pos).max()) + 1) >= 2 ** 63
    for a, b in zip(packed, pipeline.group_postings(group, inst, pos, big, 3)):
        assert np.array_equal(a, b)


def _reference_nested_blocks(paths, offsets, num_buckets, num_ranges,
                             range_span, range_base, block_size):
    """Per-(keypath, term) reference for ``ShredTokenize``: every doc goes
    through the per-document shredder, each string value is tokenized on
    its own into a (kp, term) accumulator, each run is sorted by (doc,
    arraypath) numerically, and every block row gets its own codec calls,
    rows cut at doc-range boundaries and ``block_size``."""
    import numpy as np
    import pyarrow as pa

    from noise_ray.analysis.tokenizer import tokenize_grouped
    from noise_ray.build.codec import (encode_deltas, encode_position_lists,
                                       encode_varint)
    from noise_ray.build.json_pipeline import kp_term_bucket
    from noise_ray.build.shred import shred

    acc = {}
    for path, off in zip(paths, offsets):
        t = pq.read_table(path, columns=["_id", "json"])
        for i, (the_id, text) in enumerate(zip(
                t.column("_id").to_pylist(), t.column("json").to_pylist())):
            for e in shred(json.loads(text), docid=the_id,
                           sort=False).entries:
                if e.code != "s":
                    continue
                terms, positions, field_len = tokenize_grouped(e.value)
                for term, p in zip(terms, positions):
                    acc.setdefault((e.kp, term), []).append(
                        (off + i, tuple(e.ap), list(p), field_len))
    rows = []
    for (kp, term), insts in acc.items():
        insts.sort(key=lambda x: (x[0], x[1]))
        docs = np.array([x[0] for x in insts], np.int64)
        tfs = np.array([len(x[2]) for x in insts], np.int64)
        lens = np.array([x[3] for x in insts], np.int64)
        pos_ends = np.cumsum(tfs)
        pos = np.array([q for x in insts for q in x[2]], np.int64)
        tf_norm = (np.sqrt(tfs.astype(np.float32))
                   / np.sqrt(lens.astype(np.float32)))
        rng_of = np.minimum((docs - range_base) // range_span,
                            num_ranges - 1)
        cut = np.flatnonzero(np.diff(rng_of)) + 1
        for r_lo, r_hi in zip(np.r_[0, cut], np.r_[cut, docs.size]):
            for lo in range(int(r_lo), int(r_hi), block_size):
                hi = min(lo + block_size, int(r_hi))
                p_lo = int(pos_ends[lo - 1]) if lo else 0
                p_hi = int(pos_ends[hi - 1])
                rows.append({
                    "gkey": kp_term_bucket(kp, term, num_buckets)
                    * num_ranges + int(rng_of[lo]),
                    "field": kp, "term": term, "depth": len(insts[lo][1]),
                    "min_doc": int(docs[lo]), "max_doc": int(docs[hi - 1]),
                    "cnt": hi - lo, "c_block": p_hi - p_lo,
                    "max_tf_norm": float(tf_norm[lo:hi].max()),
                    "docs": encode_deltas(docs[lo:hi]),
                    "aps": encode_varint(np.array(
                        [a for x in insts[lo:hi] for a in x[1]], np.int64)),
                    "tfs": encode_varint(tfs[lo:hi]),
                    "lens": encode_varint(lens[lo:hi]),
                    "pos": encode_position_lists(pos[p_lo:p_hi],
                                                 tfs[lo:hi]),
                })
    schema = pa.schema([
        ("gkey", pa.int32()), ("field", pa.string()), ("term", pa.string()),
        ("depth", pa.int32()), ("min_doc", pa.int64()),
        ("max_doc", pa.int64()), ("cnt", pa.int32()),
        ("c_block", pa.int64()), ("max_tf_norm", pa.float32()),
        ("docs", pa.binary()), ("aps", pa.binary()), ("tfs", pa.binary()),
        ("lens", pa.binary()), ("pos", pa.binary())])
    return pa.Table.from_pylist(rows, schema=schema)


@pytest.mark.parametrize("num_ranges,range_span,range_base,block_size", [
    (1, 10**9, 0, 4096),
    (3, 25, 17, 4096),   # doc-range splits with a nonzero base
    (1, 10**9, 0, 3),    # block_size cuts, also inside one doc's instances
    (3, 25, 17, 3),      # both
])
def test_shred_tokenize_matches_per_key_reference(
        tmp_path, num_ranges, range_span, range_base, block_size):
    import pyarrow as pa

    from noise_ray.build.json_pipeline import ShredTokenize, docs_to_parquet

    words = ["cat", "cats", "dog", "running", "the", "naïve café",
             "日本語 dog", "!!", "42", "", "x9 zebra"]
    # homogeneous: 11+-element arrays (numeric, not decimal-string,
    # arraypath order) and arrays nested two deep
    arrays = [{"_id": f"a{i}", "tag": words[i % 3],
               "xs": [words[(i + j) % len(words)] for j in range(11 + i % 3)],
               "m": [[words[(i * j + k) % len(words)] for k in range(1 + j)]
                     for j in range(3)]}
              for i in range(20)]
    # mixed: null-bearing docs take the per-document walk, the rest the
    # column-wise shred
    mixed = [{"_id": f"m{i}", "v": None if i % 4 == 0 else words[i % 11],
              "xs": [words[(i + j) % 11] for j in range(i % 13)]}
             for i in range(26)]
    # heterogeneous types: the whole shard takes the per-document walk
    hetero = [{"_id": f"h{i}", "x": i if i % 2 else words[i % 11],
               "ys": [{"z": words[(i + j) % 11]} for j in range(i % 4)]}
              for i in range(12)]
    paths, offsets, off = [], [], range_base
    for k, docs in enumerate((arrays, mixed, hetero)):
        paths.append(docs_to_parquet(docs, str(tmp_path / f"in{k}.parquet")))
        offsets.append(off)
        off += len(docs)
    (tmp_path / "dm").mkdir()
    (tmp_path / "v").mkdir()
    st_ = ShredTokenize(str(tmp_path / "dm"), str(tmp_path / "v"), 8,
                        num_ranges, range_span, range_base, block_size)
    got = st_(pa.table({"path": paths, "offset": offsets,
                        "rows": [len(d) for d in
                                 (arrays, mixed, hetero)],
                        "seq": [0, 1, 2]}))
    want = _reference_nested_blocks(paths, offsets, 8, num_ranges,
                                    range_span, range_base, block_size)
    keys = [(c, "ascending") for c in ("gkey", "field", "term", "min_doc")]
    assert got.num_rows == want.num_rows > 0
    assert got.sort_by(keys).equals(want.sort_by(keys))
