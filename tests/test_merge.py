"""Posting-level index merge (build/merge.py): merging the 3 document
shards must be query-equivalent — BM25 scores, phrase positions, stats,
docmap gathers — to the single unified index, without re-tokenizing."""

import json
import os
import shutil

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def merged_dir(ray_session, tmp_path_factory):
    from noise_ray.build.merge import merge_indexes
    from noise_ray.ops.federated import shard_documents_indexes

    dirs = shard_documents_indexes(SF, 3)
    out = str(tmp_path_factory.mktemp("merged") / "idx")
    for part in ("docmap", "segments", "stats"):
        os.makedirs(os.path.join(out, part), exist_ok=True)
    merge_indexes(dirs, out)
    return out


def test_merged_bm25_equals_unified(ray_session, merged_dir):
    """Shard doc-id spaces are contiguous row slices, so merged internal
    ids == the documents table's doc_id — scores and ids must equal the
    single-index run bit-exactly."""
    from noise_ray.ops.bm25 import bm25_topk

    want = bm25_topk(SF, k=50)
    got = bm25_topk(SF, k=50, index_dir=merged_dir)
    assert got.equals(want)


def test_merged_phrase_equals_unified(ray_session, merged_dir):
    """Positions pass through the merge byte-identical."""
    from noise_ray.ops.bm25 import bm25_phrase_topk

    want = bm25_phrase_topk(SF, k=30)
    got = bm25_phrase_topk(SF, k=30, index_dir=merged_dir)
    assert got.equals(want)


def test_merged_stats_and_postings(ray_session, merged_dir):
    from noise_ray.pipelines import documents_index
    from noise_ray.query.reader import IndexReader

    uni = documents_index(SF)
    mer = IndexReader(merged_dir)
    assert mer.num_docs == uni.num_docs
    for term in ("merg", "scan", "row"):
        assert mer.term_stats("text", term) == uni.term_stats("text", term)
        a = mer.postings("text", term)
        b = uni.postings("text", term)
        assert np.array_equal(a.docs, b.docs)
        assert np.array_equal(a.tfs, b.tfs)
        assert np.array_equal(a.lens, b.lens)
        assert np.array_equal(a.pos_concat, b.pos_concat)


def test_merged_docmap_gather_and_lookup(ray_session, merged_dir):
    from noise_ray.pipelines import documents_index
    from noise_ray.query.reader import IndexReader

    uni = documents_index(SF)
    mer = IndexReader(merged_dir)
    ids = np.array([0, 1, uni.num_docs // 2, uni.num_docs - 1],
                   dtype=np.int64)
    a = mer.fetch_docs(ids, ["text", "source"])
    b = uni.fetch_docs(ids, ["text", "source"])
    assert a.equals(b)
    # lookup_doc reads the REWRITTEN doc_id column
    key = b.column("doc_id")[2].as_py()
    assert mer.lookup_doc(key, 0) == uni.lookup_doc(key, 0)


def test_merge_is_resumable(ray_session, merged_dir, tmp_path):
    """Deleting the manifest and some outputs, then re-merging, must
    reproduce the identical index (tmp+rename, skip-if-present)."""
    from noise_ray.build.merge import merge_indexes
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.federated import shard_documents_indexes

    dirs = shard_documents_indexes(SF, 3)
    out = str(tmp_path / "idx")
    for part in ("docmap", "segments", "stats"):
        os.makedirs(os.path.join(out, part), exist_ok=True)
    merge_indexes(dirs, out)
    os.remove(os.path.join(out, "manifest.json"))
    segs = sorted(os.listdir(os.path.join(out, "segments")))
    for f in segs[: len(segs) // 2]:
        os.remove(os.path.join(out, "segments", f))
    merge_indexes(dirs, out)
    with open(os.path.join(out, "manifest.json")) as f:
        m1 = json.load(f)
    with open(os.path.join(merged_dir, "manifest.json")) as f:
        m2 = json.load(f)
    assert m1["segments"] == m2["segments"]
    assert bm25_topk(SF, k=20, index_dir=out).equals(
        bm25_topk(SF, k=20, index_dir=merged_dir))


def test_merged_tombstones_shift(ray_session, tmp_path):
    """Tombstones from each source land in the merged doc-id space."""
    from noise_ray.build.merge import merge_indexes
    from noise_ray.ops.federated import shard_documents_indexes
    from noise_ray.query.reader import IndexReader

    dirs = shard_documents_indexes(SF, 3)
    staged = []
    for i, d in enumerate(dirs):
        c = str(tmp_path / f"src{i}")
        shutil.copytree(d, c)
        with open(os.path.join(c, "tombstones.json"), "w") as f:
            json.dump([i], f)  # shard-local doc i
        staged.append(c)
    sizes = []
    for d in staged:
        with open(os.path.join(d, "manifest.json")) as f:
            m = json.load(f)
        sizes.append(m["doc_id_offset"] + m["num_docs"])
    out = str(tmp_path / "idx")
    for part in ("docmap", "segments", "stats"):
        os.makedirs(os.path.join(out, part), exist_ok=True)
    merge_indexes(staged, out)
    mer = IndexReader(out)
    want = sorted([0, sizes[0] + 1, sizes[0] + sizes[1] + 2])
    assert mer.tombstones.tolist() == want


def test_merged_nested_equals_unified(ray_session, tmp_path):
    """Nested merge: split the transcript conversation shards in two,
    build two independent nested indexes, merge — queries, values
    (zone maps ride the preserved KV metadata), scoring and doc fetch
    must equal the single nested build."""
    from noise_ray.build.json_pipeline import build_json_index
    from noise_ray.build.merge import merge_indexes
    from noise_ray.ops.nested_docs import nested_transcripts_index
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    uni = nested_transcripts_index(SF)
    shard_dir = os.path.join(os.path.dirname(uni.index_dir), "..",
                             "nested", "shards")
    shards = sorted(
        os.path.join(shard_dir, f) for f in os.listdir(shard_dir))
    assert len(shards) >= 2
    half = len(shards) // 2
    dirs = []
    for i, grp in enumerate((shards[:half], shards[half:])):
        d = str(tmp_path / f"n{i}")
        build_json_index(grp, d)
        dirs.append(d)
    out = str(tmp_path / "merged")
    merge_indexes(dirs, out)
    mer = JsonIndexReader(out)
    assert mer.num_docs == uni.num_docs
    q = ('find {turns: [{role: =="assistant", text: ~="of your"}]} '
         "order score() desc, ._id asc return [._id, score()] limit 50 ;")
    assert run_json_query(mer, q) == run_json_query(uni, q)
    rq = "find {n_turns: >= 18.0} return ._id ;"  # values partitions
    assert run_json_query(mer, rq) == run_json_query(uni, rq)
    assert (mer.kp_instance_count(".turns$.text")
            == uni.kp_instance_count(".turns$.text"))
    assert (mer.token_total(".turns$.text")
            == uni.token_total(".turns$.text"))
    ids = np.array([0, uni.num_docs // 2, uni.num_docs - 1], np.int64)
    assert mer.doc_json(ids) == uni.doc_json(ids)
    assert mer.doc_id_strs(ids) == uni.doc_id_strs(ids)
    some_id = uni.doc_id_strs(np.array([uni.num_docs - 1]))[0]
    assert mer.lookup_id(some_id) == uni.lookup_id(some_id)

    # one name for both engines: sources of mixed engines still refuse
    from noise_ray.ops.federated import shard_documents_indexes

    flat = shard_documents_indexes(SF, 3)[0]
    for mixed in ([dirs[0], flat], [flat, dirs[0]]):
        with pytest.raises(ValueError, match="disagree on nested"):
            merge_indexes(mixed, str(tmp_path / "mixed"))


def test_split_then_queries_match_shard_builds(ray_session, tmp_path):
    """split(unified, 3) must be query-equivalent to the 3 shard indexes
    built independently over the same row slices — postings, positions,
    stats, docmap — and merge(split(X)) must equal X."""
    from noise_ray.build.merge import merge_indexes, split_index
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.federated import shard_documents_indexes
    from noise_ray.pipelines import documents_index
    from noise_ray.query.reader import IndexReader

    uni = documents_index(SF)
    n = uni.num_docs
    span = -(-n // 3)
    cuts = [0, span, 2 * span, n]  # the shard builder's slicing
    outs = [str(tmp_path / f"s{j}") for j in range(3)]
    mans = split_index(uni.index_dir, outs, cuts)
    assert [m["num_docs"] for m in mans] == [span, span, n - 2 * span]

    shards = shard_documents_indexes(SF, 3)
    for out, shard in zip(outs, shards):
        a = IndexReader(out)
        b = IndexReader(shard)
        assert a.num_docs == b.num_docs
        for term in ("merg", "scan"):
            pa_, pb = a.postings("text", term), b.postings("text", term)
            assert np.array_equal(pa_.docs, pb.docs)
            assert np.array_equal(pa_.tfs, pb.tfs)
            assert np.array_equal(pa_.lens, pb.lens)
            assert np.array_equal(pa_.pos_concat, pb.pos_concat)
            assert a.term_stats("text", term) == b.term_stats("text", term)
        ids = np.arange(min(5, a.num_docs), dtype=np.int64)
        assert (a.fetch_docs(ids, ["text"]).column("text").to_pylist()
                == b.fetch_docs(ids, ["text"]).column("text").to_pylist())

    # round-trip: merge the splits back; BM25 must equal the unified run
    back = str(tmp_path / "back")
    for part in ("docmap", "segments", "stats"):
        os.makedirs(os.path.join(back, part), exist_ok=True)
    merge_indexes(outs, back)
    assert bm25_topk(SF, k=50, index_dir=back).equals(bm25_topk(SF, k=50))


def test_split_tombstones_rebase(ray_session, tmp_path):
    from noise_ray.build.merge import split_index
    from noise_ray.pipelines import documents_index
    from noise_ray.query.reader import IndexReader

    uni = documents_index(SF)
    src = str(tmp_path / "src")
    shutil.copytree(uni.index_dir, src)
    n = uni.num_docs
    with open(os.path.join(src, "tombstones.json"), "w") as f:
        json.dump([1, n // 2 + 1, n - 1], f)
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    cuts = [0, n // 2, n]
    split_index(src, outs, cuts)
    a, b = IndexReader(outs[0]), IndexReader(outs[1])
    assert a.tombstones.tolist() == [1]
    assert b.tombstones.tolist() == [n // 2 + 1 - n // 2, n - 1 - n // 2]


def test_merge_then_epoch_then_compact(ray_session, tmp_path):
    """Lifecycle interop: a MERGED index accepts epoch adds and
    compaction like any built index — after compact it answers exactly
    like a fresh unified build over the concatenated live rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from noise_ray.build.compact import compact_index
    from noise_ray.build.incremental import add_documents
    from noise_ray.build.merge import merge_indexes
    from noise_ray.build.pipeline import build_index
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.federated import shard_documents_indexes

    dirs = shard_documents_indexes(SF, 3)
    out = str(tmp_path / "merged")
    for part in ("docmap", "segments", "stats"):
        os.makedirs(os.path.join(out, part), exist_ok=True)
    merge_indexes(dirs, out)

    base = pq.read_table(os.path.join(SF, "documents.parquet"))
    n = base.num_rows
    texts = ["merge scan merge epoch row",
             "group row scan filter merge"]
    delta = pa.table({
        "doc_id": pa.array([n, n + 1], pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en", "en"], pa.string()),
        "source": pa.array(["srcX", "srcX"], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }).select(base.column_names)
    dp = str(tmp_path / "delta.parquet")
    pq.write_table(delta, dp)
    add_documents(out, [dp])
    # epoch visible before compaction
    pre = bm25_topk(SF, k=60, index_dir=out)
    assert n in pre.column("doc_id").to_pylist()

    compact_index(out)

    fresh_src = str(tmp_path / "all.parquet")
    pq.write_table(pa.concat_tables([base, delta]), fresh_src)
    fresh = str(tmp_path / "fresh")
    build_index([fresh_src], fresh, fields=("text", "source", "lang"),
                key_columns=("doc_id",))
    a = bm25_topk(SF, k=60, index_dir=out)
    b = bm25_topk(SF, k=60, index_dir=fresh)
    assert a.equals(b)


def test_split_json_matches_independent_builds(ray_session, tmp_path):
    """Nested split: splitting the unified nested index at a shard
    boundary must be query-equivalent to the independently built halves
    — scored array-context queries, values ranges (zone maps
    recomputed), keypath stats, doc fetch."""
    from noise_ray.build.json_pipeline import build_json_index
    from noise_ray.build.merge import split_index
    from noise_ray.ops.nested_docs import nested_transcripts_index
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    uni = nested_transcripts_index(SF)
    shard_dir = os.path.join(os.path.dirname(uni.index_dir), "..",
                             "nested", "shards")
    shards = sorted(
        os.path.join(shard_dir, f) for f in os.listdir(shard_dir))
    half = len(shards) // 2
    import pyarrow.parquet as pq

    cut = sum(pq.read_metadata(p).num_rows for p in shards[:half])
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    mans = split_index(uni.index_dir, outs,
                            [0, cut, uni.num_docs])
    assert [m["num_docs"] for m in mans] == [cut, uni.num_docs - cut]

    builds = []
    for i, grp in enumerate((shards[:half], shards[half:])):
        d = str(tmp_path / f"ref{i}")
        build_json_index(grp, d)
        builds.append(d)

    q = ('find {turns: [{role: =="assistant", text: ~="of your"}]} '
         "order score() desc, ._id asc return [._id, score()] limit 20 ;")
    rq = "find {n_turns: >= 18.0} return ._id ;"
    for out, ref in zip(outs, builds):
        a, b = JsonIndexReader(out), JsonIndexReader(ref)
        assert a.num_docs == b.num_docs
        assert run_json_query(a, q) == run_json_query(b, q)
        assert run_json_query(a, rq) == run_json_query(b, rq)
        assert (a.kp_instance_count(".turns$.text")
                == b.kp_instance_count(".turns$.text"))
        assert (a.token_total(".turns$.text")
                == b.token_total(".turns$.text"))
        assert a.field_k == b.field_k
        ids = np.array([0, a.num_docs - 1], np.int64)
        assert a.doc_json(ids) == b.doc_json(ids)
        assert a.lookup_id(a.doc_id_strs(ids)[1]) == int(ids[1])


def test_merge_overlapping_with_dedup_keys(ray_session, tmp_path):
    """Merging a shard with a COPY of itself + merge_dedup_keys
    tombstones the earlier copy (later source wins); after compaction
    the result answers exactly like the single shard."""
    from noise_ray.build.compact import compact_index
    from noise_ray.build.merge import merge_dedup_keys, merge_indexes
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.federated import shard_documents_indexes
    from noise_ray.query.reader import IndexReader

    shard = shard_documents_indexes(SF, 3)[0]
    n = IndexReader(shard).num_docs
    out = str(tmp_path / "m")
    for part in ("docmap", "segments", "stats"):
        os.makedirs(os.path.join(out, part), exist_ok=True)
    merge_indexes([shard, shard], out)
    dead = merge_dedup_keys(out)
    assert dead == n  # every source-0 doc shadowed by its copy
    mer = IndexReader(out)
    assert mer.tombstones.tolist() == list(range(n))
    # lookup resolves to the surviving (higher) copy
    assert mer.lookup_doc(0, 0) >= n

    compact_index(out)
    a = bm25_topk(SF, k=20, index_dir=out)
    b = bm25_topk(SF, k=20, index_dir=shard)
    assert a.equals(b)


def test_split_random_cuts_property(ray_session, tmp_path):
    """Property: for ANY cut points, each split's postings equal the
    unified postings restricted to the range and rebased."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from noise_ray.pipelines import documents_index

    uni = documents_index(SF)
    n = uni.num_docs
    counter = [0]

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(1, n - 1), min_size=1, max_size=3,
                    unique=True))
    def check(mids):
        from noise_ray.build.merge import split_index
        from noise_ray.query.reader import IndexReader

        cuts = [0] + sorted(mids) + [n]
        counter[0] += 1
        outs = [str(tmp_path / f"r{counter[0]}-{j}")
                for j in range(len(cuts) - 1)]
        split_index(uni.index_dir, outs, cuts)
        for j, out in enumerate(outs):
            lo, hi = cuts[j], cuts[j + 1]
            r = IndexReader(out)
            for term in ("merg", "scan"):
                a = r.postings("text", term)
                b = uni.postings("text", term)
                m = (b.docs >= lo) & (b.docs < hi)
                assert np.array_equal(a.docs, b.docs[m] - lo)
                assert np.array_equal(a.tfs, b.tfs[m])
                assert np.array_equal(a.lens, b.lens[m])

    check()
