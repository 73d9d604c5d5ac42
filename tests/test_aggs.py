"""Search-time aggregations (ops/aggs.py): field collapsing, histogram
facet, significant terms — checked against raw-text recomputations and
range-fold partials (the distributed worker bodies) vs the global run."""

import collections
import math
import re

import numpy as np
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _corpus():
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text", "source", "n_chars"])
    ids = t.column("doc_id").to_pylist()
    toks = [re.findall(r"[a-z0-9]+", s.lower())
            for s in t.column("text").to_pylist()]
    return (ids, toks, t.column("source").to_pylist(),
            t.column("n_chars").to_pylist())


def _bm25_scores(ids, toks, terms, k1=1.2, b=0.75):
    n = len(ids)
    avgdl = sum(len(x) for x in toks) / n
    df = collections.Counter()
    for x in toks:
        for term in set(x) & set(terms):
            df[term] += 1
    out = {}
    for d, x in zip(ids, toks):
        cnt = collections.Counter(x)
        s = 0.0
        for term in terms:
            tf = cnt.get(term, 0)
            if tf:
                idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                s += idf * tf * (k1 + 1.0) / (
                    tf + k1 * (1.0 - b + b * len(x) / avgdl))
        if s > 0.0:
            out[d] = round(s, 4)
    return out


def test_collapse_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import collapse_topk

    ids, toks, src, _ = _corpus()
    scores = _bm25_scores(ids, toks, ("merge", "scan"))
    best = {}
    for d, s in sorted(scores.items(), key=lambda p: (-p[1], p[0])):
        key = src[d]
        if key not in best:
            best[key] = (d, s)
    want = sorted(((k, d, s) for k, (d, s) in best.items()),
                  key=lambda r: (-r[2], r[1]))[:10]

    got = collapse_topk(SF)
    rows = list(zip(got.column("key").to_pylist(),
                    got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist()))
    assert rows == want
    # at most one row per key
    assert len({r[0] for r in rows}) == len(rows)


def test_collapse_range_fold_matches_global(ray_session):
    """Per-range winner partials merged by _collapse_merge equal the
    index-wide run (winner-per-key is associative over disjoint
    ranges)."""
    from noise_ray.ops.aggs import (_collapse_merge, collapse_range,
                                    collapse_topk)
    from noise_ray.ops.bm25 import bm25_df_range
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    stemmed = ["merg", "scan"]
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    ranges = list(zip(cuts, cuts[1:]))
    df_parts = [bm25_df_range(idx, "text", stemmed, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    avgdl = reader.token_total(reader.field_id["text"]) / float(n)
    parts = [collapse_range(idx, "text", stemmed, dfs, float(n), avgdl,
                            1.2, 0.75, "source", lo, hi)
             for lo, hi in ranges]
    got = _collapse_merge(parts, 10)
    want = collapse_topk(SF)
    assert got.equals(want)


def test_top_hits_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import top_hits

    ids, toks, src, _ = _corpus()
    scores = _bm25_scores(ids, toks, ("merge", "scan"))
    per_key = collections.defaultdict(list)
    for d, s in sorted(scores.items(), key=lambda p: (-p[1], p[0])):
        if len(per_key[src[d]]) < 3:
            per_key[src[d]].append((d, s))
    groups = sorted(per_key.items(), key=lambda p: (-p[1][0][1], p[0]))[:10]
    want = [(k, r, d, s)
            for k, hits in groups
            for r, (d, s) in enumerate(hits, 1)]

    got = top_hits(SF)
    rows = list(zip(got.column("key").to_pylist(),
                    got.column("hit_rank").to_pylist(),
                    got.column("doc_id").to_pylist(),
                    got.column("score").to_pylist()))
    assert rows == want
    # at most three rows per key
    cnt = collections.Counter(r[0] for r in rows)
    assert max(cnt.values()) <= 3


def test_top_hits_matches_duckdb_oracle(ray_session):
    import duckdb

    import __ray_entry__ as entry

    got = entry.queries()["top_hits"](SF).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * "
                f"FROM read_parquet('{SF}/documents.parquet')")
    want = con.execute(entry.oracle_sql()["top_hits"]).fetchdf()
    assert list(got.columns) == list(want.columns)
    assert got.astype(want.dtypes.to_dict()).equals(want)


def test_top_hits_range_fold_matches_global(ray_session):
    """Per-range per-key top-3 partials re-cut globally equal the
    index-wide run (per-key top-N is associative over disjoint
    ranges)."""
    from noise_ray.ops.aggs import top_hits, tophits_range
    from noise_ray.ops.bm25 import bm25_df_range
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    stemmed = ["merg", "scan"]
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    ranges = list(zip(cuts, cuts[1:]))
    df_parts = [bm25_df_range(idx, "text", stemmed, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    avgdl = reader.token_total(reader.field_id["text"]) / float(n)
    parts = [tophits_range(idx, "text", stemmed, dfs, float(n), avgdl,
                           1.2, 0.75, "source", 3, lo, hi)
             for lo, hi in ranges]
    # merge exactly as the distributed driver does
    keys = np.asarray(sum((p[0] for p in parts), []), dtype=object)
    docs = np.concatenate([p[1] for p in parts])
    r4 = np.concatenate([p[2] for p in parts])
    from noise_ray.ops.aggs import _tophits_prune

    ks, us, rs = _tophits_prune(keys, docs, r4, 3)
    want = top_hits(SF)
    got = {(k, int(d), float(s)) for k, d, s in zip(ks, us, rs)}
    rows = set(zip(want.column("key").to_pylist(),
                   want.column("doc_id").to_pylist(),
                   want.column("score").to_pylist()))
    assert rows <= got  # global output is the k_groups cut of the fold


def test_histogram_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import histogram_facet

    ids, toks, _, chars = _corpus()
    matched = [d for d, x in zip(ids, toks) if "merge" in x]
    counts = collections.Counter(
        int(chars[d] // 200) * 200 for d in matched)
    want = sorted(counts.items())

    got = histogram_facet(SF)
    assert list(zip(got.column("bucket").to_pylist(),
                    got.column("n").to_pylist())) == want
    assert sum(counts.values()) == len(matched)


def test_histogram_range_fold_matches_global(ray_session):
    from noise_ray.ops.aggs import hist_range, histogram_facet
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    n = reader.num_docs
    cuts = [0, n // 2, n]
    parts = [hist_range(idx, "text", ["merg"], "n_chars", 200, lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    agg = collections.Counter()
    for buckets, counts in parts:
        for bkt, c in zip(buckets.tolist(), counts.tolist()):
            agg[bkt] += c
    want = histogram_facet(SF)
    assert sorted(agg.items()) == list(zip(
        want.column("bucket").to_pylist(), want.column("n").to_pylist()))


def test_significant_terms_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import significant_terms

    ids, toks, _, _ = _corpus()
    n = float(len(ids))
    fg = [x for x in toks if "merge" in x]
    fg_n = float(len(fg))
    vocab = sorted({t for x in toks for t in x} - {"merge"})
    rows = []
    for t in vocab:
        fg_df = sum(1 for x in fg if t in x)
        bg_df = sum(1 for x in toks if t in x)
        if not fg_df:
            continue
        score = round((fg_df / fg_n)
                      * math.log((fg_df / fg_n) / (bg_df / n)), 6)
        rows.append((t, fg_df, bg_df, score))
    want = sorted(rows, key=lambda r: (-r[3], r[0]))[:10]

    got = significant_terms(SF)
    assert list(zip(got.column("term").to_pylist(),
                    got.column("fg_df").to_pylist(),
                    got.column("bg_df").to_pylist(),
                    got.column("score").to_pylist())) == want


def test_significant_terms_range_fold_matches_global(ray_session):
    """Per-range (fg_n, terms, counts) foreground partials merge to the
    index-wide counts (disjoint ranges), and no vocabulary-sized object
    rides in the per-range call args (scale contract: args are just
    (index_dir, field, query stems, lo, hi))."""
    from noise_ray.ops.aggs import (_merge_fg_parts, sig_fg_range,
                                    sig_fg_range_local)
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    fid = reader.field_id["text"]
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    parts = [sig_fg_range(idx, "text", ["merg"], lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    fg_n, vocab, fg_df = _merge_fg_parts(parts)
    w_n, w_terms, w_counts = sig_fg_range_local(reader, fid, ["merg"])
    assert fg_n == w_n
    assert vocab == w_terms
    assert fg_df.astype(int).tolist() == w_counts
    import inspect

    sig = inspect.signature(sig_fg_range)
    assert list(sig.parameters) == ["index_dir", "field", "stemmed",
                                    "lo", "hi"]


def test_sig_bg_df_matches_posting_scan(ray_session):
    """The stats-sidecar background fold equals a direct posting scan
    for every foreground term (the former per-vocab-term loop)."""
    from noise_ray.ops.aggs import (_bg_df_for_terms, _matched_union,
                                    sig_fg_range_local)
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    fid = reader.field_id["text"]
    _, vocab, _ = sig_fg_range_local(reader, fid, ["merg"])
    got = _bg_df_for_terms(reader, fid, vocab)
    for t, g in zip(vocab, got):
        pl = reader.postings(fid, t, need_positions=False)
        d = np.unique(pl.docs)
        tomb = reader.tombstones
        if tomb is not None and tomb.size:
            d = d[~np.isin(d, tomb)]
        assert int(g) == int(d.size), t


def test_significant_terms_forced_distributed_dispatch(ray_session,
                                                       monkeypatch):
    """NOISE_RAY_DIST_MIN_DOCS=1 forces the worker_pool() dispatch at
    small scale; results are identical to the in-process path."""
    from noise_ray.ops.aggs import rare_terms, significant_terms
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    local_sig = significant_terms(SF)
    local_rare = rare_terms(SF)
    monkeypatch.setenv("NOISE_RAY_DIST_MIN_DOCS", "1")
    dist_sig = significant_terms(SF, index_dir=reader.index_dir)
    dist_rare = rare_terms(SF, index_dir=reader.index_dir)
    # the index_dir path reports stems when no dictionary was built via
    # _reader_and_dict; documents_index shares the same dir, so the
    # lazily-built dictionary from the local run backs naming here too
    assert dist_sig.equals(local_sig)
    assert dist_rare.equals(local_rare)


def test_percentiles_agg_exact_disc(ray_session):
    """Exact PERCENTILE_DISC over the matched docs' n_chars: smallest
    value whose cumulative count satisfies cum*100 >= p*n."""
    from noise_ray.ops.aggs import percentiles_agg

    ids, toks, _, nchars = _corpus()
    vals = sorted(nchars[d] for d, x in zip(ids, toks) if "merge" in x)
    n = len(vals)
    assert n > 0
    want = []
    for p in (25, 50, 75, 95, 99):
        i = next(j for j in range(n) if (j + 1) * 100 >= p * n)
        want.append((p, vals[i]))

    got = percentiles_agg(SF)
    rows = list(zip(got.column("p").to_pylist(),
                    got.column("value").to_pylist()))
    assert rows == want


def test_percentiles_range_fold_matches_global(ray_session):
    """hist_range(interval=1) partials over split ranges walk to the
    same percentiles as the in-process run (disjoint-range sums)."""
    import numpy as np

    from noise_ray.ops.aggs import hist_range, percentiles_agg
    from noise_ray.pipelines import documents_index
    from noise_ray.query.engine import _stem_one

    reader = documents_index(SF)
    idx = reader.index_dir
    n = reader.num_docs
    ranges = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
    parts = [hist_range(idx, "text", [_stem_one("merge")], "n_chars", 1,
                        lo, hi)
             for lo, hi in ranges]
    vals = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    order = np.argsort(vals, kind="stable")
    vals, counts = vals[order], counts[order]
    uniq, starts = np.unique(vals, return_index=True)
    summed = np.add.reduceat(counts, starts).astype(np.int64)
    cum = np.cumsum(summed)
    tot = int(cum[-1])
    want = percentiles_agg(SF)
    for p, v in zip(want.column("p").to_pylist(),
                    want.column("value").to_pylist()):
        i = int(np.searchsorted(cum * 100, p * tot, side="left"))
        assert int(uniq[min(i, uniq.size - 1)]) == v


def test_terms_facet_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import terms_facet

    ids, toks, _, _ = _corpus()
    import pyarrow.parquet as pq

    langs = pq.read_table(f"{SF}/documents.parquet",
                          columns=["lang"]).column("lang").to_pylist()
    counts = collections.Counter(
        langs[d] for d, x in zip(ids, toks) if "merge" in x)
    want = sorted(counts.items(), key=lambda p: (-p[1], p[0]))[:10]

    got = terms_facet(SF)
    assert list(zip(got.column("key").to_pylist(),
                    got.column("n").to_pylist())) == want


def test_terms_facet_range_fold_matches_global(ray_session):
    from noise_ray.ops.aggs import terms_facet, terms_facet_range
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    parts = [terms_facet_range(idx, "text", ["merg"], "lang", lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    agg = collections.Counter()
    for keys, cnts in parts:
        for key, c in zip(keys, cnts.tolist()):
            agg[key] += c
    want = terms_facet(SF)
    rows = sorted(agg.items(), key=lambda p: (-p[1], p[0]))[:10]
    assert rows == list(zip(want.column("key").to_pylist(),
                            want.column("n").to_pylist()))


def test_cardinality_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import cardinality_agg

    ids, toks, src, _ = _corpus()
    want = len({src[d] for d, x in zip(ids, toks) if "merge" in x})
    got = cardinality_agg(SF)
    assert got.column("n_distinct").to_pylist() == [want]


def test_filters_agg_matches_raw_and_range_fold(ray_session):
    from noise_ray.ops.aggs import filters_agg, filters_agg_range
    from noise_ray.pipelines import documents_index

    ids, toks, _, _ = _corpus()
    want = {
        "merge_docs": sum(1 for x in toks if "merge" in x),
        "scan_docs": sum(1 for x in toks if "scan" in x),
        "either": sum(1 for x in toks if "merge" in x or "scan" in x),
    }
    got = filters_agg(SF)
    assert dict(zip(got.column("name").to_pylist(),
                    got.column("n").to_pylist())) == want

    reader = documents_index(SF)
    n = reader.num_docs
    named = [("merge_docs", ("merg",)), ("scan_docs", ("scan",)),
             ("either", ("merg", "scan"))]
    cuts = [0, n // 3, 2 * n // 3, n]
    parts = [filters_agg_range(reader.index_dir, "text", named, lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    folded = [sum(p[j] for p in parts) for j in range(3)]
    assert folded == got.column("n").to_pylist()


def test_adjacency_matrix_matches_raw_and_range_fold(ray_session):
    from noise_ray.ops.aggs import adjacency_matrix, adjacency_matrix_range
    from noise_ray.pipelines import documents_index

    ids, toks, _, _ = _corpus()
    m = {d for d, x in zip(ids, toks) if "merge" in x}
    s = {d for d, x in zip(ids, toks) if "scan" in x}
    r = {d for d, x in zip(ids, toks) if "row" in x}
    want = [len(m), len(s), len(r), len(m & s), len(m & r), len(s & r)]

    got = adjacency_matrix(SF)
    assert got.column("n").to_pylist() == want
    assert got.column("key").to_pylist() == [
        "merge_docs", "scan_docs", "row_docs",
        "merge_docs&scan_docs", "merge_docs&row_docs",
        "scan_docs&row_docs"]

    reader = documents_index(SF)
    n = reader.num_docs
    named = [("merge_docs", ("merg",)), ("scan_docs", ("scan",)),
             ("row_docs", ("row",))]
    cuts = [0, n // 3, 2 * n // 3, n]
    parts = [adjacency_matrix_range(reader.index_dir, "text", named,
                                    lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    folded = [sum(p[j] for p in parts) for j in range(6)]
    assert folded == want


def test_composite_agg_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import composite_agg

    ids, toks, src, n_chars = _corpus()
    counts = collections.Counter(
        (src[d], (n_chars[d] // 100) * 100)
        for d, x in zip(ids, toks) if "merge" in x)
    after = ("src12", 200)
    want = sorted(
        (kk, c) for kk, c in counts.items()
        if kk[0] > after[0] or (kk[0] == after[0] and kk[1] > after[1])
    )[:15]

    got = composite_agg(SF)
    rows = list(zip(
        zip(got.column("key").to_pylist(),
            got.column("bucket").to_pylist()),
        got.column("n").to_pylist()))
    assert rows == want


def test_composite_agg_pagination_stitches(ray_session):
    """Paging with the last row of each page as the next cursor
    reconstructs the unpaged bucket list exactly, without overlap."""
    from noise_ray.ops.aggs import composite_agg

    full = composite_agg(SF, size=10**9, after=None)
    full_rows = list(zip(full.column("key").to_pylist(),
                         full.column("bucket").to_pylist(),
                         full.column("n").to_pylist()))
    assert full_rows == sorted(full_rows)

    pages, cursor = [], None
    while True:
        page = composite_agg(SF, size=7, after=cursor)
        rows = list(zip(page.column("key").to_pylist(),
                        page.column("bucket").to_pylist(),
                        page.column("n").to_pylist()))
        if not rows:
            break
        pages.extend(rows)
        cursor = (rows[-1][0], rows[-1][1])
        if len(rows) < 7:
            break
    assert pages == full_rows


def test_composite_agg_range_fold_matches_global(ray_session):
    from noise_ray.ops.aggs import composite_agg, composite_range
    from noise_ray.pipelines import documents_index

    reader = documents_index(SF)
    idx = reader.index_dir
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    after = ("src12", 200)
    parts = [composite_range(idx, "text", ["merg"], "source", "n_chars",
                             100, after, lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    agg = collections.Counter()
    for keys, bks, cnts in parts:
        for key, bkt, c in zip(keys, bks.tolist(), cnts.tolist()):
            agg[(key, bkt)] += c
    rows = sorted(agg.items())[:15]
    want = composite_agg(SF)
    assert rows == list(zip(
        zip(want.column("key").to_pylist(),
            want.column("bucket").to_pylist()),
        want.column("n").to_pylist()))


def test_extended_stats_matches_raw_and_range_fold(ray_session):
    from noise_ray.ops.aggs import (_extended_stats_fold, extended_stats,
                                    extended_stats_range)
    from noise_ray.pipelines import documents_index

    ids, toks, _, n_chars = _corpus()
    vals = [n_chars[d] for d, x in zip(ids, toks) if "merge" in x]
    n = len(vals)
    s, sq = sum(vals), sum(v * v for v in vals)
    mean = float(s) / n
    var = float(sq) / n - mean * mean

    got = extended_stats(SF)
    assert got.column("n")[0].as_py() == n
    assert got.column("lo")[0].as_py() == min(vals)
    assert got.column("hi")[0].as_py() == max(vals)
    assert got.column("total")[0].as_py() == s
    assert got.column("mean")[0].as_py() == round(mean, 4)
    assert got.column("variance")[0].as_py() == round(var, 4)
    assert got.column("std_dev")[0].as_py() == round(math.sqrt(var), 4)

    reader = documents_index(SF)
    cuts = [0, reader.num_docs // 3, 2 * reader.num_docs // 3,
            reader.num_docs]
    parts = [extended_stats_range(reader.index_dir, "text", ["merg"],
                                  "n_chars", lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    assert sum(p[0] for p in parts) == n
    assert min(p[1] for p in parts if p[0]) == min(vals)
    assert max(p[2] for p in parts if p[0]) == max(vals)
    assert sum(p[3] for p in parts) == s
    assert sum(p[4] for p in parts) == sq


def test_rare_terms_matches_raw_recomputation(ray_session):
    from noise_ray.ops.aggs import rare_terms

    ids, toks, _, _ = _corpus()
    fg = [x for x in toks if "merge" in x]
    df = collections.Counter()
    for x in fg:
        df.update(set(x))
    want = sorted(((t, c) for t, c in df.items()
                   if c <= 100 and t != "merge"),
                  key=lambda p: (p[1], p[0]))[:20]
    got = rare_terms(SF)
    assert list(zip(got.column("term").to_pylist(),
                    got.column("n").to_pylist())) == want
    assert len(want) >= 1  # the corpus has a genuine long-tail term
