"""Okapi BM25 over the inverted index (ops/bm25.py): compared against
an independent raw-text recomputation (no index involved)."""

import collections
import math
import re

import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _reference_bm25(terms=("merge", "scan"), k=20, k1=1.2, b=0.75):
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()
    toks = [re.findall(r"[a-z0-9]+", s.lower()) for s in texts]
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n
    df = collections.Counter()
    for x in toks:
        for term in set(x) & set(terms):
            df[term] += 1
    scores = {}
    for d, x in zip(ids, toks):
        s = 0.0
        cnt = collections.Counter(x)
        for term in terms:
            tf = cnt.get(term, 0)
            if not tf:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            s += idf * tf * (k1 + 1.0) / (
                tf + k1 * (1.0 - b + b * len(x) / avgdl))
        if s > 0.0:
            scores[d] = round(s, 4)
    top = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:k]
    return top


def test_bm25_matches_raw_recomputation(ray_session):
    from noise_ray.ops.bm25 import bm25_topk

    got = bm25_topk(SF)
    rows = list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist()))
    assert rows == _reference_bm25()
    assert len(rows) == 20
    # scores strictly positive, non-increasing after 4dp rounding
    vals = [s for _, s in rows]
    assert all(v > 0 for v in vals) and vals == sorted(vals, reverse=True)


def test_bm25_b_zero_removes_length_normalization(ray_session):
    """With b=0 the per-term contribution depends only on tf, so any two
    docs with equal tf for the single query term tie exactly."""
    from noise_ray.ops.bm25 import bm25_topk

    got = bm25_topk(SF, terms=("merge",), k=1000, b=0.0)
    by_score = {}
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    cnt = {d: len(re.findall(r"\bmerge\b", s.lower()))
           for d, s in zip(t.column("doc_id").to_pylist(),
                           t.column("text").to_pylist())}
    for d, s in zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist()):
        by_score.setdefault(s, set()).add(cnt[d])
    for tf_set in by_score.values():
        assert len(tf_set) == 1  # equal score <=> equal tf


def test_rerank_topk_two_stage(ray_session):
    """Final docs must come from the BM25 candidate set, ordered by the
    rerank feature (coverage-dominant), recomputed independently."""
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.rerank import _rerank_score, rerank_topk

    terms = ("merge", "scan")
    cand = set(bm25_topk(SF, terms=terms,
                         k=100).column("doc_id").to_pylist())
    got = rerank_topk(SF, terms=terms, k_retrieve=100, k_final=10)
    ids = got.column("doc_id").to_pylist()
    scores = got.column("rerank").to_pylist()
    assert set(ids) <= cand and len(ids) == 10

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(t.column("doc_id").to_pylist(),
                     t.column("text").to_pylist()))
    expect = sorted(((d, round(_rerank_score(texts[d], terms), 6))
                     for d in cand), key=lambda p: (-p[1], p[0]))[:10]
    assert list(zip(ids, scores)) == expect
    # coverage dominates: any doc with both terms outranks any with one
    both = [s for s in scores if s >= 20.0]
    assert both == scores[:len(both)]


def test_bm25_filtered_subset_semantics(ray_session):
    """Filtered BM25: every hit satisfies the predicate, scores equal
    the unfiltered scores (filter narrows, never re-weights), and the
    distributed-path helper matches on a range."""
    from noise_ray.ops.bm25 import bm25_topk

    full = dict(zip(*[bm25_topk(SF, k=1000).column(c).to_pylist()
                      for c in ("doc_id", "score")]))
    filt = bm25_topk(SF, k=1000, filter_query='find {lang: =="en"} ;')
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    lang = dict(zip(t.column("doc_id").to_pylist(),
                    t.column("lang").to_pylist()))
    ids = filt.column("doc_id").to_pylist()
    assert ids and all(lang[d] == "en" for d in ids)
    for d, s in zip(ids, filt.column("score").to_pylist()):
        assert s == full[d]
    assert set(ids) == {d for d in full if lang[d] == "en"}

# ---------------------------------------------------- block-max WAND

import numpy as np
import pyarrow as pa
import pytest


def _wand_vs_exhaustive(idx, terms, k=10, mode="or", filter_query=None,
                        stats=None):
    """(pruned table, exhaustive table) on a standalone index dir."""
    from noise_ray.ops.bm25 import bm25_topk

    # index_dir paths >= 5M docs go distributed; these test indexes are
    # tiny, so route through the same in-process code both ways
    a = bm25_topk("unused", terms=terms, k=k, mode=mode,
                  filter_query=filter_query, index_dir=idx, pruned=True,
                  stats_out=stats)
    b = bm25_topk("unused", terms=terms, k=k, mode=mode,
                  filter_query=filter_query, index_dir=idx, pruned=False)
    return a, b


@pytest.fixture(scope="module")
def multiblock_index(ray_session, tmp_path_factory):
    """A skewed corpus indexed with tiny blocks: the hot term 'zzz'
    appears once in most docs and many times in a handful, so its
    posting list spans many blocks of which only a few can reach the
    top-k — the WAND pruning regime."""
    root = tmp_path_factory.mktemp("bm25wand")
    rng = np.random.default_rng(7)
    rows = []
    for d in range(1200):
        words = ["pad"] * int(rng.integers(3, 40))
        if d % 3 != 0:
            words += ["zzz"]          # hot: most docs, tf 1
        if d in (17, 411, 913, 1100):
            words += ["zzz"] * 25     # rare high-impact docs
        if d % 7 == 0:
            words += ["qqq"] * int(rng.integers(1, 4))
        rng.shuffle(words)
        rows.append({"doc_id": d, "text": " ".join(words)})
    src = str(root / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(root / "index")
    from noise_ray.build import build_index

    build_index([src], idx, fields=("text",), key_columns=("doc_id",),
                num_buckets=4, block_size=32)
    return idx


@pytest.mark.parametrize("terms,mode,k", [
    (("zzz",), "or", 5),
    (("zzz",), "or", 50),
    (("zzz", "qqq"), "or", 10),
    (("zzz", "qqq"), "and", 10),
    (("zzz", "pad", "qqq"), "or", 25),
    (("zzz", "pad", "qqq"), "and", 25),
    (("missingterm", "zzz"), "or", 5),
    (("missingterm", "zzz"), "and", 5),
])
def test_bm25_wand_identical_to_exhaustive(multiblock_index, terms, mode, k):
    got, want = _wand_vs_exhaustive(multiblock_index, terms, k=k, mode=mode)
    assert got.equals(want)


def test_bm25_wand_prunes_blocks(multiblock_index):
    """The hot term's low-impact blocks must be skipped: fewer payloads
    fetched than blocks exist, and the results still exact."""
    from noise_ray.ops.bm25 import _bm25_wand, bm25_topk
    from noise_ray.query.reader import IndexReader

    # FRESH reader: the process-cached reader shared by the other tests
    # has already fetched every block's payload
    reader = IndexReader(multiblock_index)
    n_docs = float(reader.num_docs)
    avgdl = reader.token_total(0) / n_docs
    stats = {}
    # k=3 < the 4 tf=25 docs: the running threshold lands on a tf=25
    # score, far above every tf=1 block's bound — those blocks must be
    # skipped without fetching their payloads
    uniq, r4 = _bm25_wand(reader, 0, ["zzz"], 3, 1.2, 0.75, n_docs, avgdl,
                          stats_out=stats)
    top = np.lexsort((uniq, -r4))[:3]
    want = bm25_topk("unused", terms=("zzz",), k=3,
                     index_dir=multiblock_index, pruned=False)
    assert uniq[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()
    assert stats["blocks_total"] > 10  # block_size=32 really split the list
    assert stats["blocks_decoded"] < stats["blocks_total"] // 2
    assert stats["intervals_scored"] < stats["intervals_total"] // 2


def test_bm25_and_mode_is_intersection(multiblock_index):
    """mode='and' keeps exactly the docs matching every term, with the
    same scores the OR ranking assigns them."""
    from noise_ray.ops.bm25 import bm25_topk

    both = bm25_topk("unused", terms=("zzz", "qqq"), k=2000, mode="and",
                     index_dir=multiblock_index)
    any_ = bm25_topk("unused", terms=("zzz", "qqq"), k=2000, mode="or",
                     index_dir=multiblock_index)
    t = pq.read_table(f"{multiblock_index}/docmap/docmap-00000.parquet",
                      columns=["doc_id", "text"])
    texts = dict(zip(t.column("doc_id").to_pylist(),
                     t.column("text").to_pylist()))
    expect = {d for d, s in texts.items()
              if "zzz" in s.split() and "qqq" in s.split()}
    assert set(both.column("doc_id").to_pylist()) == expect
    or_scores = dict(zip(any_.column("doc_id").to_pylist(),
                         any_.column("score").to_pylist()))
    for d, s in zip(both.column("doc_id").to_pylist(),
                    both.column("score").to_pylist()):
        assert s == or_scores[d]


def test_bm25_wand_falls_back_on_pre_bounds_segments(multiblock_index,
                                                     tmp_path):
    """An index whose segment files predate the (max_tf, min_len) bounds
    must still answer correctly via the exhaustive path."""
    import shutil

    from noise_ray.ops.bm25 import bm25_topk

    old = str(tmp_path / "oldidx")
    shutil.copytree(multiblock_index, old)
    import glob

    for seg in glob.glob(f"{old}/segments/*.parquet"):
        t = pq.read_table(seg)
        md = t.schema.metadata
        t = t.drop_columns(["max_tf", "min_len"])
        pq.write_table(t.replace_schema_metadata(md), seg)
    stats = {}
    got = bm25_topk("unused", terms=("zzz", "qqq"), k=10, index_dir=old,
                    pruned=True, stats_out=stats)
    want = bm25_topk("unused", terms=("zzz", "qqq"), k=10,
                     index_dir=multiblock_index, pruned=False)
    assert got.equals(want)
    assert stats == {}  # WAND bailed out before touching anything


def test_bm25_wand_with_epochs(multiblock_index, tmp_path, ray_session):
    """Incremental epochs inherit the block-bound format; WAND stays
    exact across base + epoch posting lists."""
    import shutil

    from noise_ray.build.incremental import add_documents

    idx = str(tmp_path / "epochidx")
    shutil.copytree(multiblock_index, idx)
    extra = [{"doc_id": 10_000 + i,
              "text": "zzz " * (30 if i == 0 else 1) + "qqq pad"}
             for i in range(40)]
    p = str(tmp_path / "extra.parquet")
    pq.write_table(pa.Table.from_pylist(extra), p)
    add_documents(idx, [p], update=False)  # fresh keys: no upsert scan
    got, want = _wand_vs_exhaustive(idx, ("zzz", "qqq"), k=8)
    assert got.equals(want)
    # epoch docs (internal ids >= base num_docs = 1200) are visible and
    # score identically on both paths
    full, full_ex = _wand_vs_exhaustive(idx, ("zzz", "qqq"), k=5000)
    assert full.equals(full_ex)
    assert any(d >= 1200 for d in full.column("doc_id").to_pylist())


def test_bm25_score_range_wand_matches_global(multiblock_index):
    """Distributed phase-2 bodies (range-restricted WAND) fold to exactly
    the in-process global top-k."""
    from noise_ray.ops.bm25 import (bm25_df_range, bm25_score_range,
                                    bm25_topk)
    from noise_ray.query.reader import IndexReader

    reader = IndexReader(multiblock_index)
    n_docs = float(reader.num_docs)
    avgdl = reader.token_total(0) / n_docs
    terms = ["zzz", "qqq"]
    k = 10
    mid = reader.num_docs // 2
    ranges = [(0, mid), (mid, reader.num_docs)]
    dfs_parts = [bm25_df_range(multiblock_index, "text", terms, lo, hi)
                 for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in dfs_parts)) for j in range(len(terms))]
    parts = [bm25_score_range(multiblock_index, "text", terms, dfs, n_docs,
                              avgdl, 1.2, 0.75, k, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:k]
    want = bm25_topk("unused", terms=tuple(terms), k=k,
                     index_dir=multiblock_index, pruned=False)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()


# ------------------------------------------------------- phrase BM25

def test_bm25_phrase_matches_brute_force(ray_session):
    """Phrase BM25 vs an independent Python recomputation: stem each
    token (the index stores stemmed positions), count adjacent runs."""
    from noise_ray.ops.bm25 import bm25_phrase_topk
    from noise_ray.query.engine import _stem_one

    phrase = ("row", "scan")
    k1, b = 1.2, 0.75
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    seqs = [[_stem_one(w) for w in re.findall(r"[a-z0-9]+", s.lower())]
            for s in t.column("text").to_pylist()]
    n = len(ids)
    avgdl = sum(len(x) for x in seqs) / n
    target = [_stem_one(w) for w in phrase]
    tf = {}
    for d, x in zip(ids, seqs):
        c = sum(1 for i in range(len(x) - 1)
                if x[i] == target[0] and x[i + 1] == target[1])
        if c:
            tf[d] = c
    df = len(tf)
    assert df > 3  # the corpus really contains the phrase
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    scores = {d: round(idf * c * (k1 + 1.0)
                       / (c + k1 * (1.0 - b + b * len(seqs[ids.index(d)])
                                    / avgdl)), 4)
              for d, c in tf.items()}
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]
    got = bm25_phrase_topk(SF, phrase)
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want


def test_bm25_phrase_repeated_word_overlapping(ray_session):
    """A repeated-word phrase ('merge merge merge') exercises the
    shifted-set intersection's repeated-term handling AND overlapping
    occurrence counting (a 4-run contains 2 occurrences); brute-forced
    against the raw corpus."""
    from noise_ray.ops.bm25 import bm25_phrase_topk
    from noise_ray.query.engine import _stem_one

    phrase = ("merge", "merge", "merge")
    k1, b = 1.2, 0.75
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    seqs = [[_stem_one(w) for w in re.findall(r"[a-z0-9]+", s.lower())]
            for s in t.column("text").to_pylist()]
    n = len(ids)
    avgdl = sum(len(x) for x in seqs) / n
    target = _stem_one("merge")
    tf = {}
    for d, x in zip(ids, seqs):
        c = sum(1 for i in range(len(x) - 2)
                if x[i] == x[i + 1] == x[i + 2] == target)
        if c:
            tf[d] = c
    assert tf  # the corpus really contains the trigram
    df = len(tf)
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    scores = {d: round(idf * c * (k1 + 1.0)
                       / (c + k1 * (1.0 - b + b * len(seqs[ids.index(d)])
                                    / avgdl)), 4)
              for d, c in tf.items()}
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]
    got = bm25_phrase_topk(SF, phrase)
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want
    # an absent-word phrase returns empty
    absent = bm25_phrase_topk(SF, ("merge", "qqqneverthere"))
    assert absent.num_rows == 0


def test_bm25_phrase_range_fold_matches_global(tmp_path, ray_session):
    """Distributed phrase bodies (per-range df partials + per-range
    scoring with the global df) fold to exactly the in-process result —
    including boundary docs, which the block-granular position pushdown
    could double-count without the exact [lo, hi) mask."""
    from noise_ray.build import build_index
    from noise_ray.ops.bm25 import (bm25_phrase_df_range,
                                    bm25_phrase_score_range,
                                    bm25_phrase_topk)
    from noise_ray.query.reader import IndexReader

    rng = np.random.default_rng(11)
    rows = []
    for d in range(900):
        words = ["pad"] * int(rng.integers(3, 30))
        rng.shuffle(words)
        # phrase "alpha beta" with varying multiplicity in ~1/4 of docs
        for _ in range(int(rng.integers(0, 4)) if d % 4 == 0 else 0):
            at = int(rng.integers(0, len(words)))
            words[at:at] = ["alpha", "beta"]
        rows.append({"doc_id": d, "text": " ".join(words)})
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "index")
    build_index([src], idx, fields=("text",), key_columns=("doc_id",),
                num_buckets=4, block_size=32)

    reader = IndexReader(idx)
    n_docs = float(reader.num_docs)
    avgdl = reader.token_total(0) / n_docs
    stemmed = ["alpha", "beta"]
    k = 15
    ranges = [(0, 300), (300, 600), (600, 900)]
    df = float(sum(bm25_phrase_df_range(idx, "text", stemmed, lo, hi)
                   for lo, hi in ranges))
    parts = [bm25_phrase_score_range(idx, "text", stemmed, df, n_docs,
                                     avgdl, 1.2, 0.75, k, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:k]
    want = bm25_phrase_topk("unused", ("alpha", "beta"), k=k,
                            index_dir=idx)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()
    # df really summed across ranges (the phrase exists in many docs)
    assert df == want.num_rows or df >= k


def _rare_hot_index(tmp_path):
    """2000 docs; 'hot' appears in every doc (many blocks), the phrase
    'rareword hot' in exactly 6 known docs."""
    from noise_ray.build import build_index

    rng = np.random.default_rng(23)
    rows = []
    phrase_docs = {101, 502, 777, 1204, 1650, 1999}
    for d in range(2000):
        words = ["pad"] * int(rng.integers(3, 12)) + ["hot"] * int(
            rng.integers(1, 4))
        rng.shuffle(words)
        if d in phrase_docs:
            words += ["rareword", "hot"]
        rows.append({"doc_id": d, "text": " ".join(words)})
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "index")
    build_index([src], idx, fields=("text",), key_columns=("doc_id",),
                num_buckets=4, block_size=32)
    return idx, rows, phrase_docs


def test_positions_for_docs_matches_full_and_prunes(tmp_path, ray_session):
    """Candidate-restricted positional fetch returns exactly the full
    posting list's rows for those docs, and leaves the positions payload
    of candidate-free blocks undecoded."""
    from noise_ray.query.reader import IndexReader

    idx, _, phrase_docs = _rare_hot_index(tmp_path)
    reader = IndexReader(idx)
    cand = np.array(sorted(phrase_docs), np.int64)
    sub = reader.positions_for_docs("text", "hot", cand)
    blocks = reader.term_blocks("text", "hot")
    decoded = sum(1 for bl in blocks if bl._pos_decoded is not None)
    assert len(blocks) > 10  # block_size=32 really split the hot list
    assert decoded <= len(cand)  # only candidate-bearing blocks decoded

    full = reader.postings("text", "hot", need_positions=True)
    want_rows = np.flatnonzero(np.isin(full.docs, cand))
    assert sub.docs.tolist() == full.docs[want_rows].tolist()
    assert sub.tfs.tolist() == full.tfs[want_rows].tolist()
    assert sub.lens.tolist() == full.lens[want_rows].tolist()
    for i, r in enumerate(want_rows):
        assert sub.positions_of(i).tolist() == \
            full.positions_of(int(r)).tolist()


def test_bm25_phrase_rare_hot_candidate_path(tmp_path, ray_session):
    """A rare+hot phrase routes through the candidate-driven positional
    fetch; scores match an independent brute-force recomputation and the
    hot word's positions decode for only a handful of blocks."""
    from noise_ray.ops.bm25 import bm25_phrase_topk
    from noise_ray.query.distributed import _cached_reader

    idx, rows, phrase_docs = _rare_hot_index(tmp_path)
    got = bm25_phrase_topk("unused", ("rareword", "hot"), k=20,
                           index_dir=idx)
    # brute force over the raw rows
    k1, b = 1.2, 0.75
    seqs = {r["doc_id"]: r["text"].split() for r in rows}
    n = len(rows)
    avgdl = sum(len(x) for x in seqs.values()) / n
    tf = {}
    for d, x in seqs.items():
        c = sum(1 for i in range(len(x) - 1)
                if x[i] == "rareword" and x[i + 1] == "hot")
        if c:
            tf[d] = c
    assert set(tf) == phrase_docs
    df = len(tf)
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    scores = {d: round(idf * c * (k1 + 1.0)
                       / (c + k1 * (1.0 - b + b * len(seqs[d]) / avgdl)), 4)
              for d, c in tf.items()}
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want
    # the hot word's positions were decoded for few blocks only
    reader = _cached_reader(idx)
    blocks = reader.term_blocks("text", "hot")
    decoded = sum(1 for bl in blocks if bl._pos_decoded is not None)
    assert decoded <= len(phrase_docs)
    assert decoded < len(blocks) // 4


@pytest.mark.parametrize("pruned", [True, False])
def test_bm25_search_after_pages_partition_ranking(multiblock_index,
                                                   pruned):
    """Three cursor pages reassemble exactly the one-shot top-30 (both
    the WAND and exhaustive paths), and a cursor past the last match
    returns empty."""
    from noise_ray.ops.bm25 import bm25_topk

    full = bm25_topk("unused", terms=("zzz", "qqq"), k=30,
                     index_dir=multiblock_index, pruned=pruned)
    pages = []
    cursor = None
    for _ in range(3):
        p = bm25_topk("unused", terms=("zzz", "qqq"), k=10,
                      index_dir=multiblock_index, pruned=pruned,
                      search_after=cursor)
        assert p.num_rows == 10
        pages.append(p)
        cursor = (p.column("score")[-1].as_py(),
                  p.column("doc_id")[-1].as_py())
    got = pa.concat_tables(pages)
    assert got.column("doc_id").to_pylist() == \
        full.column("doc_id").to_pylist()
    assert got.column("score").to_pylist() == \
        full.column("score").to_pylist()
    # a cursor below every score: empty page
    empty = bm25_topk("unused", terms=("zzz", "qqq"), k=10,
                      index_dir=multiblock_index, pruned=pruned,
                      search_after=(-1.0, 0))
    assert empty.num_rows == 0


def test_bm25_fields_range_fold_matches_global(ray_session):
    """Multi-field distributed bodies (per-(field, term) df partials +
    per-range weighted scoring) fold to exactly the in-process result on
    the sf corpus."""
    from noise_ray.ops.bm25 import (bm25_df_range, bm25_fields_score_range,
                                    bm25_fields_topk)
    from noise_ray.pipelines import documents_index

    import os

    from noise_ray.pipelines import flagship

    reader = documents_index(SF)
    idx = os.path.join(flagship._CACHE_ROOT,
                       f"documents-{flagship._sf_of(SF)}-v3")
    weights = (("text", 1.0), ("source", 0.7), ("lang", 0.3))
    terms = ["merg", "src3", "en"]  # stems, as the driver passes them
    n_docs = float(reader.num_docs)
    k = 20
    mid = reader.num_docs // 2
    ranges = [(0, mid), (mid, reader.num_docs)]
    dfs = {}
    for f, _ in weights:
        parts = [bm25_df_range(idx, f, terms, lo, hi) for lo, hi in ranges]
        for j, t in enumerate(terms):
            dfs[(f, t)] = float(sum(p[j] for p in parts))
    avgdls = {f: reader.token_total(reader.field_id[f]) / n_docs
              for f, _ in weights}
    parts = [bm25_fields_score_range(idx, weights, terms, dfs, avgdls,
                                     n_docs, 1.2, 0.75, k, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:k]
    want = bm25_fields_topk(SF, ("merge", "src3", "en"), weights, k=k)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()


def test_bm25_fields_weights_change_ranking(ray_session):
    """Field weights really act: text-only weighting equals plain BM25
    restricted to text, and a source-heavy weighting promotes src3
    docs."""
    from noise_ray.ops.bm25 import bm25_fields_topk, bm25_topk

    text_only = bm25_fields_topk(SF, ("merge",), (("text", 1.0),), k=20)
    plain = bm25_topk(SF, ("merge",), k=20)
    assert text_only.column("doc_id").to_pylist() == \
        plain.column("doc_id").to_pylist()
    assert text_only.column("score").to_pylist() == \
        plain.column("score").to_pylist()

    heavy = bm25_fields_topk(SF, ("merge", "src3"),
                             (("text", 0.1), ("source", 5.0)), k=20)
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "source"])
    src3 = set(t.column("doc_id").to_pylist()[i]
               for i, s in enumerate(t.column("source").to_pylist())
               if s == "src3")
    top = heavy.column("doc_id").to_pylist()
    assert all(d in src3 for d in top)


def test_spannear_slop0_is_exact_phrase(ray_session):
    """slop=0 degenerates to the exact phrase: same (doc, score) rows."""
    from noise_ray.ops.bm25 import bm25_phrase_topk, bm25_spannear_topk

    ph = bm25_phrase_topk(SF, ("row", "scan"), k=50).to_pandas()
    sn = bm25_spannear_topk(SF, ("row", "scan"), slop=0, k=50).to_pandas()
    assert sn.equals(ph)


def test_spannear_matches_raw_recomputation(ray_session):
    """slop=2 span-near vs a direct per-doc chain recomputation: tf =
    start ordinals of w0 with an ordered chain, adjacent gap <= slop."""
    from noise_ray.ops.bm25 import bm25_spannear_topk

    words, slop, k1, b = ("merge", "scan"), 2, 1.2, 0.75
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    toks = [re.findall(r"[a-z0-9]+", s.lower())
            for s in t.column("text").to_pylist()]
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n

    def tf_of(x):
        pos = {w: [i for i, tk in enumerate(x) if tk == w] for w in words}
        good = set(pos[words[-1]])
        for w in reversed(words[:-1]):
            good = {p for p in pos[w]
                    if any(p < q <= p + 1 + slop for q in good)}
        return len(good)

    tfs = {d: tf_of(x) for d, x in zip(ids, toks) if tf_of(x)}
    df = len(tfs)
    assert df > 0
    want = {}
    for d, tf in tfs.items():
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        dl = len(toks[d])
        want[d] = round(idf * tf * (k1 + 1.0)
                        / (tf + k1 * (1.0 - b + b * dl / avgdl)), 4)
    top = sorted(want.items(), key=lambda p: (-p[1], p[0]))[:20]

    got = bm25_spannear_topk(SF, words, slop=slop, k=20)
    rows = list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist()))
    assert rows == top


def test_spannear_order_matters(ray_session):
    """Span-near is ORDERED: reversing the words changes the match set
    (on a corpus where both orders occur, the two dfs differ)."""
    from noise_ray.ops.bm25 import bm25_spannear_topk

    a = bm25_spannear_topk(SF, ("merge", "scan"), slop=2, k=500).to_pandas()
    c = bm25_spannear_topk(SF, ("scan", "merge"), slop=2, k=500).to_pandas()
    assert not a.equals(c)


def test_spannear_range_fold_matches_global(tmp_path, ray_session):
    """Distributed span-near bodies (per-range df partials + per-range
    scoring with the global df) fold to exactly the in-process result,
    including boundary docs under the [lo, hi) mask."""
    from noise_ray.build import build_index
    from noise_ray.ops.bm25 import (bm25_spannear_topk,
                                    spannear_df_range,
                                    spannear_score_range)
    from noise_ray.query.reader import IndexReader

    rng = np.random.default_rng(31)
    rows = []
    for d in range(900):
        words = ["pad"] * int(rng.integers(4, 30))
        rng.shuffle(words)
        if d % 3 == 0:  # "alpha <gap> beta" with gap 0..3
            at = int(rng.integers(0, len(words) - 1))
            gap = ["pad"] * int(rng.integers(0, 4))
            words[at:at] = ["alpha", *gap, "beta"]
        rows.append({"doc_id": d, "text": " ".join(words)})
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "index")
    build_index([src], idx, fields=("text",), key_columns=("doc_id",),
                num_buckets=4, block_size=32)

    reader = IndexReader(idx)
    n_docs = float(reader.num_docs)
    avgdl = reader.token_total(0) / n_docs
    stemmed, slop, k = ["alpha", "beta"], 2, 15
    ranges = [(0, 300), (300, 600), (600, 900)]
    df = float(sum(spannear_df_range(idx, "text", stemmed, slop, lo, hi)
                   for lo, hi in ranges))
    parts = [spannear_score_range(idx, "text", stemmed, slop, df, n_docs,
                                  avgdl, 1.2, 0.75, k, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:k]
    want = bm25_spannear_topk("unused", ("alpha", "beta"), slop=slop,
                              k=k, index_dir=idx)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()
    assert df >= k  # the fold really summed per-range dfs


def test_msearch_matches_individual_queries(ray_session):
    """The batched multi-search returns exactly each query's bm25_topk
    rows, tagged with the query position."""
    from noise_ray.ops.bm25 import DEFAULT_MSEARCH, bm25_msearch, bm25_topk

    got = bm25_msearch(SF, k=10).to_pandas()
    assert list(got.columns) == ["query_id", "doc_id", "score"]
    for qid, terms in enumerate(DEFAULT_MSEARCH):
        want = bm25_topk(SF, terms, k=10).to_pandas()
        sub = got[got.query_id == qid].reset_index(drop=True)
        assert sub.doc_id.tolist() == want.doc_id.tolist()
        assert sub.score.tolist() == want.score.tolist()


def test_msearch_range_fold_matches_global(tmp_path, ray_session):
    """The batched per-range worker bodies fold to the same per-query
    results as in-process bm25_topk."""
    from noise_ray.build import build_index
    from noise_ray.ops.bm25 import (bm25_topk, msearch_df_range,
                                    msearch_score_range)
    from noise_ray.query.reader import IndexReader

    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta", "pad"]
    rows = [{"doc_id": d,
             "text": " ".join(rng.choice(vocab,
                                          size=int(rng.integers(3, 25))))}
            for d in range(600)]
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pylist(rows), src)
    idx = str(tmp_path / "index")
    build_index([src], idx, fields=("text",), key_columns=("doc_id",),
                num_buckets=4, block_size=32)
    reader = IndexReader(idx)
    n_docs = float(reader.num_docs)
    avgdl = reader.token_total(0) / n_docs
    qlists = [["alpha", "beta"], ["gamma"]]
    k = 12
    ranges = [(0, 200), (200, 400), (400, 600)]
    df_parts = [msearch_df_range(idx, "text", qlists, lo, hi)
                for lo, hi in ranges]
    dfs_list = [[float(sum(p[qi][j] for p in df_parts))
                 for j in range(len(q))] for qi, q in enumerate(qlists)]
    parts = [msearch_score_range(idx, "text", qlists, dfs_list, n_docs,
                                 avgdl, 1.2, 0.75, k, lo, hi)
             for lo, hi in ranges]
    for qi, terms in enumerate([("alpha", "beta"), ("gamma",)]):
        docs = np.concatenate([p[qi][0] for p in parts])
        r4 = np.concatenate([p[qi][1] for p in parts])
        top = np.lexsort((docs, -r4))[:k]
        want = bm25_topk("unused", terms, k=k, index_dir=idx)
        assert docs[top].tolist() == want.column("doc_id").to_pylist()
        assert r4[top].tolist() == want.column("score").to_pylist()


def test_mmr_lambda_one_is_pure_relevance(ray_session):
    """λ=1 removes the diversity term: MMR order == BM25 candidate
    order (restricted to candidates that have embeddings)."""
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.rerank import mmr_rerank

    plain = bm25_topk(SF, ("merge", "scan"), k=20)
    got = mmr_rerank(SF, ("merge", "scan"), k=10, n_cand=20, lam=1.0)
    assert got.column("doc_id").to_pylist() == \
        plain.column("doc_id").to_pylist()[:10]
    assert got.column("rank").to_pylist() == list(range(1, 11))


def test_mmr_diversifies(ray_session):
    """With λ<1 the selected set is less self-similar than the plain
    top-k (mean pairwise cosine drops), and the winner is unchanged."""
    import pyarrow.parquet as pq

    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.rerank import mmr_rerank
    from noise_ray.ops.similarity import embed_matrix

    def mean_pairwise_cos(doc_ids):
        t = pq.read_table(f"{SF}/embeddings.parquet",
                          columns=["vec_id", "embedding"],
                          filters=[("vec_id", "in", list(doc_ids))])
        m = embed_matrix(t.column("embedding"))
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                            1e-30)
        g = mn @ mn.T
        n = g.shape[0]
        return (g.sum() - n) / (n * (n - 1))

    plain = bm25_topk(SF, ("merge", "scan"), k=10)
    mmr = mmr_rerank(SF, ("merge", "scan"), k=10, n_cand=40, lam=0.3)
    assert mmr.column("doc_id").to_pylist()[0] == \
        plain.column("doc_id").to_pylist()[0]
    assert mean_pairwise_cos(mmr.column("doc_id").to_pylist()) < \
        mean_pairwise_cos(plain.column("doc_id").to_pylist())


def test_rank_eval_matches_oracle(ray_session):
    """Rank-eval metrics (P@k, recall@k, NDCG@k) against the unstated-
    intent conjunctive labels match the DuckDB oracle exactly."""
    import duckdb

    from noise_ray.ops.rank_eval import rank_eval
    from noise_ray.ops.score_oracle import rank_eval_sql

    sf = "/root/testdata/sf0.001"
    got = rank_eval(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(rank_eval_sql()).fetchdf()
    assert got.astype(want.dtypes.to_dict()).equals(want)
    # the labels discriminate: no metric pinned at 0 or 1
    assert all(0.0 < p < 1.0 for p in got["p_at_k"])
    assert all(0.0 < v < 1.0 for v in got["ndcg_at_k"])


def test_rank_eval_perfect_when_labels_equal_query(ray_session):
    """With intent == a query term the label set is the plain AND match,
    which BM25 ranks on top at small k — NDCG must be 1."""
    from noise_ray.ops.rank_eval import rank_eval

    got = rank_eval("/root/testdata/sf0.001",
                    queries=((("merge", "scan"), "merge"),), k=10)
    assert got.column("ndcg_at_k").to_pylist() == [1.0]
    assert got.column("p_at_k").to_pylist() == [1.0]


def test_rank_eval_range_fold_matches_inprocess(ray_session):
    """Per-range (n_rel, hit-mask) partials sum/OR to the in-process
    label computation (disjoint ranges)."""
    import numpy as np

    from noise_ray.ops.rank_eval import _rel_docs, rank_eval_range
    from noise_ray.pipelines import documents_index

    reader = documents_index("/root/testdata/sf0.001")
    idx = reader.index_dir
    fid = reader.field_id["text"]
    stemmed = ["merg", "scan", "row"]
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    docs = np.array([0, 5, n // 2, n - 1], np.int64)
    parts = [rank_eval_range(idx, "text", stemmed, docs, lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    n_rel = sum(p[0] for p in parts)
    hit = np.zeros(docs.size, bool)
    for p in parts:
        hit |= p[1]
    rel = _rel_docs(reader, fid, stemmed)
    assert n_rel == rel.size
    assert np.array_equal(hit, np.isin(docs, rel))


def test_search_batcher_matches_individual_queries(ray_session):
    """SearchBatcher coalesces concurrent callers into msearch rounds;
    every caller gets exactly its individual bm25_topk answer."""
    import threading

    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.search_server import SearchBatcher
    from noise_ray.pipelines import documents_index

    reader = documents_index("/root/testdata/sf0.001")
    batcher = SearchBatcher(reader.index_dir, k=10)
    queries = [("merge", "scan"), ("row", "group"), ("sort", "filter"),
               ("join", "scan"), ("merge",), ("row", "merge")]
    results = [None] * len(queries)

    def call(i):
        results[i] = batcher.search(queries[i])

    threads = [threading.Thread(target=call, args=(i,))
               for i in range(len(queries))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    batcher.close()
    for i, terms in enumerate(queries):
        want = bm25_topk("/root/testdata/sf0.001", terms=terms, k=10,
                         index_dir=reader.index_dir)
        got = results[i].combine_chunks()
        assert got.column("doc_id").to_pylist() == \
            want.column("doc_id").to_pylist()
        assert got.column("score").to_pylist() == \
            want.column("score").to_pylist()


def test_search_batcher_propagates_errors(ray_session):
    from noise_ray.ops.search_server import SearchBatcher

    b = SearchBatcher("/nonexistent/idx", k=5)
    import pytest

    with pytest.raises(Exception):
        b.search(("merge",))
    b.close()


def test_search_batcher_close_serves_queue_then_refuses(ray_session):
    """close() answers every request queued before it, even when they
    need several rounds; a later search() raises BatcherClosed at once
    instead of blocking on the exited collector."""
    import threading
    import time

    import pytest

    from noise_ray.ops.search_server import BatcherClosed, SearchBatcher

    def wait_for(cond):
        deadline = time.monotonic() + 10
        while not cond():
            assert time.monotonic() < deadline
            time.sleep(0.01)

    b = SearchBatcher("/nonexistent/idx", k=5, max_batch=1, inflight=1)
    b._sem.acquire()  # hold the only round slot: requests pile up
    errors: list = []

    def call():
        try:
            b.search(("merge",))
        except Exception as e:
            errors.append(e)

    callers = [threading.Thread(target=call, daemon=True) for _ in range(4)]
    callers[0].start()
    # the collector took the first request and waits for the slot
    wait_for(lambda: b._q.unfinished_tasks == 1 and b._q.qsize() == 0)
    for t in callers[1:]:
        t.start()
    wait_for(lambda: b._q.qsize() == 3)
    closer = threading.Thread(target=b.close, daemon=True)
    closer.start()
    wait_for(lambda: b._closed)
    b._sem.release()
    for t in [closer, *callers]:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(errors) == 4  # the missing index fails every round

    done: list = []
    late = threading.Thread(daemon=True, target=lambda: done.append(
        pytest.raises(BatcherClosed, b.search, ("merge",))))
    late.start()
    late.join(timeout=3)
    assert not late.is_alive() and done


def test_msearch_replica_groups_bit_identical(ray_session, monkeypatch):
    """Serving-path replica routing (fixed fan-out width + replica
    group slices of the pool) only relocates which actor evaluates a
    range — every group returns exactly the default dispatch's rows."""
    from noise_ray.ops.bm25 import bm25_msearch
    from noise_ray.pipelines import documents_index
    from noise_ray.query.distributed import replica_slice, worker_pool

    monkeypatch.setenv("NOISE_RAY_DIST_MIN_DOCS", "1")
    monkeypatch.setenv("NOISE_RAY_SERVE_PARTITIONS", "2")
    reader = documents_index(SF)
    queries = (("merge", "scan"), ("row",), ("sort", "filter"))
    base = bm25_msearch("", queries=queries, k=10,
                        index_dir=reader.index_dir).to_pandas()
    for g in range(5):  # wraps past R, exercising group % R
        got = bm25_msearch("", queries=queries, k=10,
                           index_dir=reader.index_dir,
                           replica_group=g).to_pandas()
        assert got.equals(base)
    # the slice helper itself: disjoint groups, stable fallback
    pool = worker_pool()
    if len(pool) >= 4:
        a = replica_slice(pool, 2, 0)
        b = replica_slice(pool, 2, 1)
        assert len(a) == len(b) == 2 and not set(map(id, a)) & \
            set(map(id, b))
    assert replica_slice(pool, len(pool), 3) == pool  # r < 2 fallback
