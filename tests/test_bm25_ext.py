"""BM25 extensions (ops/bm25_ext.py, ops/federated.py) and the
min_match mode of ops/bm25.py — each checked against an independent
raw-text recomputation or the single-index engine, plus range-fold
partials (the distributed worker bodies) vs the global fold."""

import collections
import math
import re

import numpy as np
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _tokenized():
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text", "n_chars"])
    ids = t.column("doc_id").to_pylist()
    toks = [re.findall(r"[a-z0-9]+", s.lower())
            for s in t.column("text").to_pylist()]
    chars = t.column("n_chars").to_pylist()
    return ids, toks, chars


def _kernel(tf, df, n, dl, avgdl, k1=1.2, b=0.75):
    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    return idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def test_min_match_matches_raw_recomputation(ray_session):
    """min_match=2 of 3 terms: docs matching >= 2 distinct terms rank
    with their plain BM25 score; others drop."""
    from noise_ray.ops.bm25 import bm25_topk

    terms = ("merge", "scan", "row")
    ids, toks, _ = _tokenized()
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n
    df = collections.Counter()
    for x in toks:
        for term in set(x) & set(terms):
            df[term] += 1
    scores = {}
    for d, x in zip(ids, toks):
        cnt = collections.Counter(x)
        matched = [t for t in terms if cnt.get(t, 0)]
        if len(matched) < 2:
            continue
        s = sum(_kernel(cnt[t], df[t], n, len(x), avgdl) for t in matched)
        scores[d] = round(s, 4)
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]

    got = bm25_topk(SF, terms=terms, min_match=2)
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want


def test_min_match_pruned_equals_exhaustive(ray_session):
    """The WAND coverage-count bound (>= m covering terms per interval)
    must not drop any doc the exhaustive fold keeps."""
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.pipelines import documents_index

    idx = documents_index(SF).index_dir
    for m in (1, 2, 3):
        a = bm25_topk("unused", terms=("merge", "scan", "row", "column"),
                      min_match=m, k=40, index_dir=idx, pruned=True)
        b = bm25_topk("unused", terms=("merge", "scan", "row", "column"),
                      min_match=m, k=40, index_dir=idx, pruned=False)
        assert a.equals(b), f"min_match={m}"


def test_min_match_rejects_and_mode(ray_session):
    import pytest as _pytest

    from noise_ray.ops.bm25 import bm25_topk

    with _pytest.raises(ValueError):
        bm25_topk(SF, mode="and", min_match=2)


def test_synonyms_match_raw_recomputation(ray_session):
    """Group scores as ONE pseudo-term: tf summed over members, ONE idf
    from the union df — not a per-member idf sum."""
    from noise_ray.ops.bm25_ext import bm25_synonyms_topk

    groups = (("merge", "join"), ("scan",))
    ids, toks, _ = _tokenized()
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n
    gdf = [sum(1 for x in toks if set(g) & set(x)) for g in groups]
    scores = {}
    for d, x in zip(ids, toks):
        cnt = collections.Counter(x)
        s = 0.0
        for g, df in zip(groups, gdf):
            tf = sum(cnt.get(t, 0) for t in g)
            if tf:
                s += _kernel(tf, df, n, len(x), avgdl)
        if s > 0.0:
            scores[d] = round(s, 4)
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]

    got = bm25_synonyms_topk(SF, groups)
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want


def test_synonyms_differ_from_plain_or(ray_session):
    """The blended group must NOT equal the per-term OR (which would
    idf-stack the members) — they coincide only if no doc contains both
    members, which this corpus does have."""
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.bm25_ext import bm25_synonyms_topk

    syn = bm25_synonyms_topk(SF, (("merge", "join"),), k=50)
    plain = bm25_topk(SF, terms=("merge", "join"), k=50)
    assert not syn.equals(plain)


def test_synonyms_range_fold_matches_global(ray_session):
    """The distributed worker bodies (per-range union df partials +
    per-range scoring with global stats) merged over 3 ranges must
    reproduce the in-process result — exercises the block-granular
    doc_range mask in _group_fold."""
    import numpy as np

    from noise_ray.ops.bm25_ext import (_stem_groups, bm25_synonyms_topk,
                                        syn_df_range, syn_score_range)
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    # worker bodies receive STEMMED groups (bm25_synonyms_topk stems
    # before fanning out)
    groups = _stem_groups([["merge", "join"], ["scan"]])
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    ranges = list(zip(cuts, cuts[1:]))
    df_parts = [syn_df_range(idx, "text", groups, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(groups))]
    avgdl = reader.token_total(reader.field_id["text"]) / float(n)
    parts = [syn_score_range(idx, "text", groups, dfs, float(n), avgdl,
                             1.2, 0.75, 20, lo, hi) for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:20]

    want = bm25_synonyms_topk(SF, (("merge", "join"), ("scan",)))
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()


def test_value_boost_matches_raw_recomputation(ray_session):
    from noise_ray.ops.bm25_ext import bm25_value_boost

    terms, lam = ("merge", "scan"), 0.001
    ids, toks, chars = _tokenized()
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n
    df = collections.Counter()
    for x in toks:
        for term in set(x) & set(terms):
            df[term] += 1
    scores = {}
    for d, x, v in zip(ids, toks, chars):
        cnt = collections.Counter(x)
        s = sum(_kernel(cnt[t], df[t], n, len(x), avgdl)
                for t in terms if cnt.get(t, 0))
        if s > 0.0:
            scores[d] = round(s * (1.0 / (1.0 + lam * v)), 4)
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]

    got = bm25_value_boost(SF, terms, lam=lam)
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want


def test_value_boost_range_fold_matches_global(ray_session):
    """Per-range boosted scoring with global dfs (the worker body,
    incl. its per-range docmap gather) merged over ranges equals the
    in-process result."""
    from noise_ray.ops.bm25 import bm25_df_range
    from noise_ray.ops.bm25_ext import bm25_value_boost, boost_score_range
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    stemmed = ["merg", "scan"]  # porter2 stems of the query terms
    n = reader.num_docs
    cuts = [0, n // 2, n]
    ranges = list(zip(cuts, cuts[1:]))
    df_parts = [bm25_df_range(idx, "text", stemmed, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    avgdl = reader.token_total(reader.field_id["text"]) / float(n)
    parts = [boost_score_range(idx, "text", stemmed, dfs, float(n), avgdl,
                               1.2, 0.75, "n_chars", ("recip", 0.001),
                               20, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:20]

    want = bm25_value_boost(SF, ("merge", "scan"))
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()


def test_federated_bitidentical_to_single_index(ray_session):
    """Two and three independently built shards (own doc-id spaces)
    under the dfs_query_then_fetch protocol reproduce the single-index
    ranking bit-identically, keyed by the stored source doc_id."""
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.federated import (federated_bm25,
                                         shard_documents_indexes)

    single = bm25_topk(SF)
    for n_shards in (2, 3):
        shards = shard_documents_indexes(SF, n_shards)
        assert federated_bm25(shards).equals(single), n_shards


def test_federated_local_stats_would_differ(ray_session):
    """Sanity that the global-stats phase is load-bearing: scoring each
    shard with its LOCAL stats (the naive union) gives a different
    ranking on this corpus, so the equality above is not vacuous."""
    import pyarrow as pa

    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.federated import shard_documents_indexes

    shards = shard_documents_indexes(SF, 2)
    parts = []
    for d in shards:
        t = bm25_topk("unused", index_dir=d, k=20)
        # remap internal ids -> stored source key like federated does
        from noise_ray.query.distributed import _cached_reader
        r = _cached_reader(d)
        keys = r.fetch_docs(
            np.asarray(t.column("doc_id").to_pylist(), np.int64),
            ["src_doc_id"]).column("src_doc_id")
        parts.append(pa.table({"doc_id": keys.cast(pa.int64()),
                               "score": t.column("score")}))
    naive = pa.concat_tables(parts)
    naive = naive.take(
        np.lexsort((naive.column("doc_id").to_numpy(zero_copy_only=False),
                    -naive.column("score").to_numpy(zero_copy_only=False))
                   )[:20])
    single = bm25_topk(SF)
    assert not naive.equals(single)


def test_ops_call_actor_dispatch(ray_session):
    """An ``ops_call`` through pool_batched (the hook the >=5M
    synonym/boost fan-outs ride) runs a worker body on a pool actor and
    returns the same partial as the in-process call."""
    from noise_ray.ops.bm25_ext import _stem_groups, syn_df_range
    from noise_ray.pipelines import documents_index
    from noise_ray.query.distributed import pool_batched, worker_pool

    reader = documents_index(SF)
    idx = reader.index_dir
    groups = _stem_groups([["merge", "join"], ["scan"]])
    n = reader.num_docs
    want = syn_df_range(idx, "text", groups, 0, n)
    [got] = pool_batched(worker_pool()[:1], [
        ("ops_call", ("bm25_ext", "syn_df_range",
                      (idx, "text", groups, 0, n)))])
    assert got == want and sum(want) > 0


def test_boosting_demotes_not_excludes(ray_session):
    """Docs matching a negative term keep ranking, at nb x their BM25;
    nb=1 is a no-op; demoted docs' scores shrink by exactly nb."""
    import numpy as np

    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.bm25_ext import bm25_boosting_topk

    plain = bm25_topk(SF, ("merge", "scan"), k=10_000).to_pandas()
    noop = bm25_boosting_topk(SF, ("merge", "scan"), ("slow",),
                              negative_boost=1.0, k=10_000).to_pandas()
    assert noop.equals(plain)

    nb = 0.3
    demoted = bm25_boosting_topk(SF, ("merge", "scan"), ("slow",),
                                 negative_boost=nb, k=10_000).to_pandas()
    # same doc SET (demotion never drops a doc)
    assert set(demoted.doc_id) == set(plain.doc_id)
    ps = dict(zip(plain.doc_id, plain.score))
    import pyarrow.parquet as pq
    import re
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    has_neg = {d for d, s in zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist())
               if "slow" in re.findall(r"[a-z0-9]+", s.lower())}
    n_dem = 0
    for d, s in zip(demoted.doc_id, demoted.score):
        if d in has_neg:
            # plain score was rounded once; re-demote within 1e-4 slack
            assert abs(s - ps[d] * nb) < 2e-4
            n_dem += 1
        else:
            assert s == ps[d]
    assert n_dem > 0


def test_boosting_range_fold_matches_global(ray_session):
    """boosting_score_range over split ranges + driver merge equals the
    in-process boosting top-k on the sf0.001 documents index."""
    import numpy as np

    from noise_ray.ops.bm25 import bm25_df_range
    from noise_ray.ops.bm25_ext import (boosting_score_range,
                                        bm25_boosting_topk)
    from noise_ray.pipelines import documents_index
    from noise_ray.query.engine import _stem_one

    reader = documents_index(SF)
    idx = reader.index_dir
    n_docs = float(reader.num_docs)
    avgdl = reader.token_total(reader.field_id["text"]) / n_docs
    stemmed = [_stem_one(t) for t in ("merge", "scan")]
    neg, nb, k = [_stem_one("slow")], 0.3, 20
    n = reader.num_docs
    ranges = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
    df_parts = [bm25_df_range(idx, "text", stemmed, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    parts = [boosting_score_range(idx, "text", stemmed, neg, nb, dfs,
                                  n_docs, avgdl, 1.2, 0.75, k, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:k]
    want = bm25_boosting_topk(SF, ("merge", "scan"), ("slow",), nb, k=k)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()


def test_dismax_matches_oracle(ray_session):
    import duckdb

    from noise_ray.ops.bm25_ext import bm25_dismax_topk
    from noise_ray.ops.score_oracle import bm25_dismax_sql

    sf = "/root/testdata/sf0.001"
    got = bm25_dismax_topk(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(bm25_dismax_sql(
        ("merge", "src3", "en"),
        (("text", 1.0), ("source", 0.7), ("lang", 0.3)), 0.3,
        20)).fetchdf()
    assert got.astype(want.dtypes.to_dict()).equals(want)


def test_dismax_tiebreaker_one_equals_weighted_sum(ray_session):
    """tie_breaker=1 degenerates dis_max to the plain weighted sum."""
    from noise_ray.ops.bm25 import bm25_fields_topk
    from noise_ray.ops.bm25_ext import bm25_dismax_topk

    sf = "/root/testdata/sf0.001"
    a = bm25_dismax_topk(sf, tie_breaker=1.0)
    b = bm25_fields_topk(sf)
    assert a.equals(b)


def test_dismax_range_fold_matches_global(ray_session):
    from noise_ray.ops.bm25_ext import (bm25_dismax_topk, dismax_df_range,
                                        dismax_score_range)
    from noise_ray.pipelines import documents_index

    sf = "/root/testdata/sf0.001"
    reader = documents_index(sf)
    idx = reader.index_dir
    fields = (("text", 1.0), ("source", 0.7), ("lang", 0.3))
    stemmed = ["merg", "src3", "en"]
    n = reader.num_docs
    avgdls = {f: reader.token_total(reader.field_id[f]) / n
              for f, _ in fields}
    cuts = [0, n // 3, 2 * n // 3, n]
    ranges = list(zip(cuts, cuts[1:]))
    dfs_flat = {}
    for lo, hi in ranges:
        for key, v in dismax_df_range(idx, fields, stemmed,
                                      lo, hi).items():
            dfs_flat[key] = dfs_flat.get(key, 0) + v
    dfs_flat = {key: float(v) for key, v in dfs_flat.items()}
    parts = [dismax_score_range(idx, fields, stemmed, dfs_flat, avgdls,
                                float(n), 1.2, 0.75, 0.3, 20, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:20]
    want = bm25_dismax_topk(sf)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert np.allclose(r4[top], want.column("score").to_numpy())


def test_phrase_prefix_matches_oracle(ray_session):
    import duckdb

    from noise_ray.ops.bm25_ext import bm25_phrase_prefix_topk
    from noise_ray.ops.score_oracle import bm25_phrase_prefix_sql

    sf = "/root/testdata/sf0.001"
    got = bm25_phrase_prefix_topk(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(bm25_phrase_prefix_sql(("window",), "jo",
                                              20)).fetchdf()
    assert len(got) == 20
    assert got.astype(want.dtypes.to_dict()).equals(want)


def test_phrase_prefix_full_word_equals_phrase(ray_session):
    """A prefix that matches exactly one dictionary token degenerates
    to the exact two-word phrase query."""
    from noise_ray.ops.bm25 import bm25_phrase_topk
    from noise_ray.ops.bm25_ext import bm25_phrase_prefix_topk

    sf = "/root/testdata/sf0.001"
    a = bm25_phrase_prefix_topk(sf, words=("window",), prefix="join")
    b = bm25_phrase_topk(sf, phrase=("window", "join"))
    assert a.equals(b)


def test_decay_matches_raw_recomputation(ray_session):
    from noise_ray.ops.bm25_ext import bm25_decay

    terms = ("merge", "scan")
    origin, offset, scale = 300.0, 50.0, 150.0
    ids, toks, chars = _tokenized()
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n
    df = collections.Counter()
    for x in toks:
        for term in set(x) & set(terms):
            df[term] += 1
    import numpy as np
    scores = {}
    for d, x, v in zip(ids, toks, chars):
        cnt = collections.Counter(x)
        s = sum(_kernel(cnt[t], df[t], n, len(x), avgdl)
                for t in terms if cnt.get(t, 0))
        if s > 0.0:
            dist = max(abs(float(v) - origin) - offset, 0.0)
            mult = float(np.power(0.5, (dist / scale) ** 2))
            scores[d] = round(s * mult, 4)
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]

    got = bm25_decay(SF, terms)
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want
    # full score inside the offset window, decayed outside
    assert any(abs(chars[d] - origin) > offset + scale for d in scores)


def test_decay_range_fold_matches_global(ray_session):
    from noise_ray.ops.bm25 import bm25_df_range
    from noise_ray.ops.bm25_ext import bm25_decay, boost_score_range
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    stemmed = ["merg", "scan"]
    n = reader.num_docs
    cuts = [0, n // 2, n]
    ranges = list(zip(cuts, cuts[1:]))
    df_parts = [bm25_df_range(idx, "text", stemmed, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    avgdl = reader.token_total(reader.field_id["text"]) / float(n)
    spec = ("gauss", 300.0, 50.0, 150.0)
    import numpy as np
    parts = [boost_score_range(idx, "text", stemmed, dfs, float(n), avgdl,
                               1.2, 0.75, "n_chars", spec, 20, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:20]
    want = bm25_decay(SF)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()


def test_span_first_matches_raw_recomputation(ray_session):
    from noise_ray.ops.bm25 import bm25_span_first_topk

    term, end = "merge", 10
    ids, toks, _ = _tokenized()
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n
    occ = {d: sum(1 for w in x[:end] if w == term)
           for d, x in zip(ids, toks)}
    occ = {d: c for d, c in occ.items() if c}
    df = len(occ)
    scores = {d: round(_kernel(c, df, n, len(toks[d]), avgdl), 4)
              for d, c in occ.items()}
    want = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:20]

    got = bm25_span_first_topk(SF, term, end)
    assert list(zip(got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist())) == want
    # span df is strictly smaller than the term df on this corpus
    term_df = sum(1 for x in toks if term in x)
    assert df < term_df


def test_span_first_range_fold_matches_global(ray_session):
    from noise_ray.ops.bm25 import (bm25_span_first_topk,
                                    span_first_df_range,
                                    span_first_score_range)
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    n = reader.num_docs
    cuts = [0, n // 2, n]
    ranges = list(zip(cuts, cuts[1:]))
    df = float(sum(span_first_df_range(idx, "text", "merg", 10, lo, hi)
                   for lo, hi in ranges))
    avgdl = reader.token_total(reader.field_id["text"]) / float(n)
    import numpy as np
    parts = [span_first_score_range(idx, "text", "merg", 10, df, float(n),
                                    avgdl, 1.2, 0.75, 20, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:20]
    want = bm25_span_first_topk(SF)
    assert docs[top].tolist() == want.column("doc_id").to_pylist()
    assert r4[top].tolist() == want.column("score").to_pylist()
