"""Search-time aggregations over the inverted index: field collapsing,
histogram facets, significant terms.

The Elasticsearch aggregation shapes every search deployment layers on
top of ranked retrieval, computed straight off the index artifacts
(posting lists + docmap + stats sidecar, never a corpus scan):

- **Field collapsing** (``collapse_topk``, cf. Elasticsearch
  ``collapse`` / Lucene grouping): the BM25 top-k with at most ONE doc
  per value of a stored field — "best hit per source".  Per-key best is
  an associative max under the total (rounded score desc, doc_id asc)
  order, so per-range partials merge exactly: each range returns its
  own per-key winner (≤ key-cardinality rows) and the driver folds
  winners-of-winners.

- **Histogram facet** (``histogram_facet``, cf. Elasticsearch
  ``histogram`` aggregation): matched-doc counts per fixed-width bucket
  of a stored numeric field, ``bucket = floor(v / interval) ·
  interval``.  Counts are disjoint-range sums; the per-range docmap
  gather happens on the worker owning the range.

- **Significant terms** (``significant_terms``, cf. Elasticsearch
  ``significant_terms``): terms overrepresented in the query's matched
  set (foreground) vs the whole corpus (background), scored with the
  per-term relative-entropy contribution ``(fg_df/fg_n) ·
  ln((fg_df/fg_n)/(bg_df/N))`` (the population term of Kullback-Leibler
  divergence; deterministic, SQL-expressible).  Foreground counts come
  from per-range re-analysis of the matched docs (a forward docmap
  gather, O(matched) — the ES fielddata strategy); background df is the
  stats sidecar's per-term posting count restricted to the foreground
  vocabulary — no global vocabulary ever materializes on the driver or
  rides in task args.

Round 3 adds top-hits (per-group top-N, collapse generalized), the
terms facet (matched-doc counts per keyword value), exact cardinality
(distinct stored values over the matched set), and exact percentiles
(see their docstrings).  Every aggregation fans out per doc range above
5M docs through the shared range-actor pool
(query/distributed.worker_pool, one ``ops_call`` per range);
determinism contract as ops/bm25.py: f64 in fixed operand order,
rounded once (4dp scores / 6dp significance), total tiebreak orders.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..query.distributed import dist_min_docs, doc_ranges
from .bm25 import _fold_scores


def _reader_for(sf_dir: str, index_dir: str | None):
    if index_dir is not None:
        from ..query.distributed import _cached_reader

        return _cached_reader(index_dir)
    from ..pipelines import documents_index

    return documents_index(sf_dir)


def _matched_union(reader, fid: int, stemmed: list[str],
                   doc_range: tuple[int, int] | None = None) -> np.ndarray:
    """Sorted unique live docs containing ANY query term (the bool
    ``should`` match set), optionally masked to [lo, hi) exactly."""
    parts = []
    for t in stemmed:
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=doc_range)
        if pl is None or not pl.docs.size:
            continue
        d = pl.docs
        if doc_range is not None:
            lo, hi = doc_range
            d = d[(d >= lo) & (d < hi)]  # block-granular pushdown: mask
        parts.append(d)
    if not parts:
        return np.zeros(0, np.int64)
    docs = np.unique(np.concatenate(parts)).astype(np.int64)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        docs = docs[~np.isin(docs, tomb)]
    return docs


# -------------------------------------------------------- collapse


def _collapse_fold(reader, fid, stemmed, dfs, n_docs, avgdl, k1, b,
                   collapse_field, doc_range):
    """Per-key best (keys, docs, r4) for one range (or the whole index
    when doc_range is None; dfs=None takes local dfs, index-wide only).
    Winner per key under (r4 desc, doc asc) — first occurrence in that
    sort order."""
    keys, uniq, r4 = _collapse_fold_all(reader, fid, stemmed, dfs,
                                        n_docs, avgdl, k1, b,
                                        collapse_field, doc_range)
    if not uniq.size:
        return [], uniq, r4
    order = np.lexsort((uniq, -r4))
    ks, us, rs = keys[order], uniq[order], r4[order]
    _, first = np.unique(ks, return_index=True)  # first hit in score order
    return ks[first].tolist(), us[first], rs[first]


def _collapse_merge(parts, k: int) -> pa.Table:
    """Fold per-range winners into the global per-key best, then top-k."""
    keys = np.asarray(sum((p[0] for p in parts), []), dtype=object)
    docs = np.concatenate([p[1] for p in parts])
    r4 = np.concatenate([p[2] for p in parts])
    if not docs.size:
        return pa.table({"key": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    order = np.lexsort((docs, -r4))
    ks, us, rs = keys[order], docs[order], r4[order]
    _, first = np.unique(ks, return_index=True)
    first = np.sort(first)  # keep score-desc order among winners
    ks, us, rs = ks[first], us[first], rs[first]
    top = np.lexsort((us, -rs))[:k]
    return pa.table({"key": pa.array(ks[top].tolist(), pa.string()),
                     "doc_id": pa.array(us[top], pa.int64()),
                     "score": pa.array(rs[top], pa.float64())})


def collapse_topk(sf_dir: str, terms=("merge", "scan"),
                  collapse_field: str = "source", k: int = 10,
                  k1: float = 1.2, b: float = 0.75, field: str = "text",
                  *, index_dir: str | None = None) -> pa.Table:
    """BM25 top-``k`` collapsed to the best doc per ``collapse_field``
    value (module docstring).  Returns (key, doc_id, score) ordered by
    (rounded score desc, doc_id asc)."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _collapse_distributed(index_dir, reader, stemmed, field,
                                     collapse_field, k, k1, b, n_docs,
                                     avgdl)
    part = _collapse_fold(reader, fid, stemmed, None, n_docs, avgdl,
                          k1, b, collapse_field, None)
    return _collapse_merge([part], k)


def collapse_range(index_dir, field, stemmed, dfs, n_docs, avgdl, k1, b,
                   collapse_field, lo, hi):
    """Phase-2 worker body: this range's per-key winners under GLOBAL
    dfs (winner-per-key is associative, so winners-of-winners on the
    driver is exact)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    return _collapse_fold(reader, fid, stemmed, dfs, n_docs, avgdl, k1,
                          b, collapse_field, (lo, hi))


def _collapse_distributed(index_dir, reader, stemmed, field,
                          collapse_field, k, k1, b, n_docs, avgdl):
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    df_parts = pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_df_range",
                      (index_dir, field, stemmed, lo, hi)))
        for (lo, hi) in ranges])
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    parts = pool_batched(pool, [
        ("ops_call", ("aggs", "collapse_range",
                      (index_dir, field, stemmed, dfs, n_docs, avgdl, k1, b,
                       collapse_field, lo, hi)))
        for (lo, hi) in ranges])
    return _collapse_merge(parts, k)


# -------------------------------------------------------- histogram


def _hist_fold(reader, fid, stemmed, value_column, interval, doc_range):
    """(buckets, counts) partial for one range."""
    docs = _matched_union(reader, fid, stemmed, doc_range)
    if not docs.size:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    v = (reader.fetch_docs(docs, [value_column]).column(value_column)
         .to_numpy(zero_copy_only=False).astype(np.float64))
    buckets = (np.floor(v / interval) * interval).astype(np.int64)
    uniq, cnt = np.unique(buckets, return_counts=True)
    return uniq, cnt.astype(np.int64)


def histogram_facet(sf_dir: str, terms=("merge",),
                    value_column: str = "n_chars", interval: int = 200,
                    field: str = "text", *,
                    index_dir: str | None = None) -> pa.Table:
    """Matched-doc counts per fixed-width ``value_column`` bucket
    (module docstring).  Returns (bucket, n) ordered by bucket."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "hist_range",
                          (index_dir, field, stemmed, value_column, interval,
                           lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [_hist_fold(reader, fid, stemmed, value_column, interval,
                            None)]
    buckets = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    if not buckets.size:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    order = np.argsort(buckets, kind="stable")
    buckets, counts = buckets[order], counts[order]
    uniq, starts = np.unique(buckets, return_index=True)
    summed = np.add.reduceat(counts, starts)
    return pa.table({"bucket": pa.array(uniq, pa.int64()),
                     "n": pa.array(summed.astype(np.int64), pa.int64())})


def hist_range(index_dir, field, stemmed, value_column, interval, lo, hi):
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    return _hist_fold(reader, fid, stemmed, value_column, interval,
                      (lo, hi))


def _tophits_prune(keys, docs, r4, per: int):
    """Keep at most ``per`` rows per key, rows already in (r4 desc, doc
    asc) rank order — vectorized grouped cumcount."""
    order = np.lexsort((docs, -r4))
    ks, us, rs = keys[order], docs[order], r4[order]
    korder = np.argsort(ks, kind="stable")  # stable: rank order per key
    ksort = ks[korder]
    new = np.ones(ksort.size, bool)
    new[1:] = ksort[1:] != ksort[:-1]
    idx = np.arange(ksort.size)
    run_start = np.maximum.accumulate(np.where(new, idx, 0))
    keep_sorted = (idx - run_start) < per
    keep = np.zeros(ksort.size, bool)
    keep[korder[keep_sorted]] = True
    return ks[keep], us[keep], rs[keep]


def tophits_range(index_dir, field, stemmed, dfs, n_docs, avgdl, k1, b,
                  group_field, per, lo, hi):
    """Phase-2 worker body for top_hits: this range's per-key top-``per``
    under GLOBAL dfs (per-key top-N is associative: merging two ranges'
    per-key top-Ns and re-cutting gives the global per-key top-N)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    keys, docs, r4 = _collapse_fold_all(reader, fid, stemmed, dfs, n_docs,
                                        avgdl, k1, b, group_field,
                                        (lo, hi))
    ks, us, rs = _tophits_prune(keys, docs, r4, per)
    return ks.tolist(), us, rs


def _collapse_fold_all(reader, fid, stemmed, dfs, n_docs, avgdl, k1, b,
                       group_field, doc_range):
    """Scored matched set with group keys (no per-key cut) — the shared
    body of collapse (per=1) and top_hits (per=N)."""
    parts = []
    for j, t in enumerate(stemmed):
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=doc_range)
        if pl is None or not pl.docs.size:
            continue
        d, tf, dl = pl.docs, pl.tfs, pl.lens
        if doc_range is not None:
            lo, hi = doc_range
            m = (d >= lo) & (d < hi)
            d, tf, dl = d[m], tf[m], dl[m]
        df = float(np.unique(d).size) if dfs is None else dfs[j]
        if d.size and df:
            parts.append((d, tf, dl, df))
    if not parts:
        z = np.zeros(0, np.int64)
        return np.zeros(0, object), z, np.zeros(0, np.float64)
    uniq, r4, _ = _fold_scores(parts, n_docs, avgdl, k1, b,
                               reader.tombstones)
    if not uniq.size:
        return np.zeros(0, object), uniq, r4
    keys = np.asarray(
        reader.fetch_docs(uniq, [group_field]).column(group_field)
        .to_pylist(), dtype=object)
    return keys, uniq, r4


def top_hits(sf_dir: str, terms=("merge", "scan"),
             group_field: str = "source", per: int = 3,
             k_groups: int = 10, k1: float = 1.2, b: float = 0.75,
             field: str = "text", *,
             index_dir: str | None = None) -> pa.Table:
    """Top-hits aggregation (cf. Elasticsearch ``top_hits`` inside a
    terms agg): for each ``group_field`` value, the top-``per`` BM25
    hits; groups ordered by their best hit (the terms-agg-by-max-score
    shape), ``k_groups`` groups out.  Per-key top-N is associative, so
    per-range partials (each ≤ keys × per rows) merge exactly — the
    distributed path ships nothing bigger.  Returns (key, hit_rank,
    doc_id, score) ordered (group best desc, key asc, hit_rank)."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        df_parts = pool_batched(pool, [
            ("ops_call", ("bm25", "bm25_df_range",
                          (index_dir, field, stemmed, lo, hi)))
            for (lo, hi) in ranges])
        dfs = [float(sum(p[j] for p in df_parts))
               for j in range(len(stemmed))]
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "tophits_range",
                          (index_dir, field, stemmed, dfs, n_docs, avgdl, k1,
                           b, group_field, per, lo, hi)))
            for (lo, hi) in ranges])
        keys = np.asarray(sum((p[0] for p in parts), []), dtype=object)
        docs = np.concatenate([p[1] for p in parts])
        r4 = np.concatenate([p[2] for p in parts])
    else:
        keys, docs, r4 = _collapse_fold_all(reader, fid, stemmed, None,
                                            n_docs, avgdl, k1, b,
                                            group_field, None)
    empty = pa.table({"key": pa.array([], pa.string()),
                      "hit_rank": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if not docs.size:
        return empty
    keys, docs, r4 = _tophits_prune(keys, docs, r4, per)
    # group order: best hit desc, key asc; hits within group by rank
    order = np.lexsort((docs, -r4))
    ks, us, rs = keys[order], docs[order], r4[order]
    best: dict = {}
    for i in range(ks.size):
        best.setdefault(ks[i], (float(rs[i]), i))
    groups = sorted(best.items(), key=lambda p: (-p[1][0], p[0]))
    groups = [g for g, _ in groups[:k_groups]]
    out_k, out_r, out_d, out_s = [], [], [], []
    for g in groups:
        m = np.flatnonzero(ks == g)
        for r, i in enumerate(m, 1):
            out_k.append(str(g))
            out_r.append(r)
            out_d.append(int(us[i]))
            out_s.append(float(rs[i]))
    return pa.table({"key": pa.array(out_k, pa.string()),
                     "hit_rank": pa.array(out_r, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64()),
                     "score": pa.array(out_s, pa.float64())})


# ------------------------------------------------------- percentiles


def percentiles_agg(sf_dir: str, terms=("merge",),
                    value_column: str = "n_chars",
                    percentiles: tuple[int, ...] = (25, 50, 75, 95, 99),
                    field: str = "text", *,
                    index_dir: str | None = None) -> pa.Table:
    """Percentiles aggregation (cf. Elasticsearch ``percentiles``) over
    a stored integer field of the matched docs — EXACT, not t-digest:
    the per-range partial is the (value, count) histogram
    (:func:`hist_range` with interval=1 — distinct-value-bounded, tiny
    for integer fields), partials sum, and each requested percentile is
    the PERCENTILE_DISC walk "smallest value whose cumulative count
    satisfies ``cum * 100 >= p * n``" — all-integer arithmetic, so the
    DuckDB oracle (the same inequality on a windowed running sum) is
    byte-exact with no float-threshold edge cases.  Returns (p, value)
    ordered by p.  At 100 TB the shipped partial stays
    distinct-value-bounded per range; nothing row-sized leaves a
    worker."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "hist_range",
                          (index_dir, field, stemmed, value_column, 1, lo,
                           hi)))
            for (lo, hi) in ranges])
    else:
        parts = [_hist_fold(reader, fid, stemmed, value_column, 1, None)]
    vals = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    if not vals.size:
        return pa.table({"p": pa.array([], pa.int64()),
                         "value": pa.array([], pa.int64())})
    order = np.argsort(vals, kind="stable")
    vals, counts = vals[order], counts[order]
    uniq, starts = np.unique(vals, return_index=True)
    summed = np.add.reduceat(counts, starts).astype(np.int64)
    cum = np.cumsum(summed)
    n = int(cum[-1])
    out_p, out_v = [], []
    for p in percentiles:
        i = int(np.searchsorted(cum * 100, p * n, side="left"))
        out_p.append(int(p))
        out_v.append(int(uniq[min(i, uniq.size - 1)]))
    return pa.table({"p": pa.array(out_p, pa.int64()),
                     "value": pa.array(out_v, pa.int64())})


# -------------------------------------------------- significant terms


def _fg_term_counts(reader, fid: int, docs: np.ndarray,
                    exclude: set) -> dict[str, int]:
    """Distinct-term doc counts over ``docs`` via the forward path: a
    docmap gather of the stored field text + the SAME analyzer the build
    ran (analysis/tokenizer.tokenize_grouped, whose term list is already
    per-doc-distinct).  Cost is O(matched docs), independent of the
    vocabulary — the Elasticsearch fielddata strategy, vs the former
    O(vocabulary) posting loop."""
    from ..analysis.tokenizer import tokenize_grouped

    counts: dict[str, int] = {}
    if not docs.size:
        return counts
    fname = reader.fields[fid]
    for v in reader.fetch_docs(docs, [fname]).column(fname).to_pylist():
        if v is None:
            continue
        for t in tokenize_grouped(v)[0]:
            if t not in exclude:
                counts[t] = counts.get(t, 0) + 1
    return counts


def sig_fg_range(index_dir, field, stemmed, lo, hi):
    """Worker body: (fg_n, terms, counts) within [lo, hi) — per-term
    counts of matched docs containing the term, from re-analysis of the
    range's matched docs only.  Disjoint ranges sum to the global
    counts; the return is foreground-vocabulary-sized and NO vocabulary
    rides in the task args."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    rng = None if lo is None else (lo, hi)
    fg = _matched_union(reader, fid, stemmed, rng)
    counts = _fg_term_counts(reader, fid, fg, set(stemmed))
    terms = sorted(counts)
    return int(fg.size), terms, [counts[t] for t in terms]


def _merge_fg_parts(parts) -> tuple[float, list[str], np.ndarray]:
    """Fold per-range (fg_n, terms, counts) partials: disjoint ranges
    sum exactly."""
    fg_n = float(sum(p[0] for p in parts))
    acc: dict[str, int] = {}
    for p in parts:
        for t, c in zip(p[1], p[2]):
            acc[t] = acc.get(t, 0) + int(c)
    vocab = sorted(acc)
    return fg_n, vocab, np.array([acc[t] for t in vocab], np.float64)


def bg_df_paths(paths: list[str], fid: int, terms_ref) -> dict[str, int]:
    """Worker body: fold ``k`` per term over a slice of stats files.
    ``terms_ref`` is a ray.put ObjectRef of the foreground vocabulary —
    broadcast once, never re-serialized per task (a plain set also
    accepted for the in-process path)."""
    import pyarrow.parquet as pq

    want = terms_ref
    if not isinstance(want, (set, frozenset)):
        import ray

        want = ray.get(want)
    acc: dict[str, int] = {}
    for p in paths:
        t = pq.read_table(p, columns=["term", "k"],
                          filters=[("field", "==", fid),
                                   ("term", "in", want)])
        for tt, kk in zip(t.column("term").to_pylist(),
                          t.column("k").to_pylist()):
            acc[tt] = acc.get(tt, 0) + int(kk)
    return acc


def _bg_df_for_terms(reader, fid: int, terms: list[str],
                     distributed: bool = False) -> np.ndarray:
    """Background df per term, aligned to ``terms``: the per-(field,
    term) posting count ``k`` the build already materialized in the
    stats sidecar (build/pipeline.py segment-writer reduceat) summed
    across partitions and epochs — a metadata fold with a ``term IN``
    pushdown, never a posting read.  ``distributed=True`` fans the
    fold over the range-actor pool (one task per stats-path slice, the
    vocabulary broadcast once via ray.put).  Tombstoned docs (deletes
    AND superseded upsert versions — both live in reader.tombstones)
    are corrected by re-analyzing just those bounded-count docs."""
    want = set(terms)
    paths = reader.stats_paths()
    acc = {t: 0 for t in terms}
    if distributed and len(paths) > 1:
        import ray

        from ..query.distributed import pool_batched, worker_pool

        pool = worker_pool()
        terms_ref = ray.put(want)
        n = min(len(pool), len(paths))
        slices = [paths[i::n] for i in range(n)]
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "bg_df_paths", (sl, fid, terms_ref)))
            for sl in slices])
        for part in parts:
            for t, k in part.items():
                acc[t] += k
    else:
        for t, k in bg_df_paths(paths, fid, want).items():
            acc[t] += k
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        for t, c in _fg_term_counts(reader, fid, tomb, set()).items():
            if t in acc:
                acc[t] -= c
    return np.array([acc[t] for t in terms], np.float64)


def _surface_names_for(reader, fid: int, stems: list[str]) -> dict[str, str]:
    """Surface-form naming for ONLY the given stems: stem ->
    lexicographically-least raw token from the index's (lazily built,
    ops/termdict) term dictionary, with a ``stem IN`` parquet pushdown —
    the driver holds a kept-vocabulary-sized dict, never the whole
    dictionary.  Empty when no dictionary exists — callers then report
    the stem itself (the indexed term, Elasticsearch's behavior)."""
    import glob
    import os

    import pyarrow.parquet as pq

    ddir = os.path.join(reader.index_dir, "dictionary")
    paths = sorted(glob.glob(os.path.join(ddir, "*.parquet")))
    out: dict[str, str] = {}
    if not paths or not stems:
        return out
    want = set(stems)
    for p in paths:
        t = pq.read_table(p, columns=["token", "stem"],
                          filters=[("field", "==", fid),
                                   ("stem", "in", want)])
        for tok, stem in zip(t.column("token").to_pylist(),
                             t.column("stem").to_pylist()):
            if stem not in out or tok < out[stem]:
                out[stem] = tok
    return out


def significant_terms(sf_dir: str, terms=("merge",), top_n: int = 10,
                      field: str = "text", *,
                      index_dir: str | None = None) -> pa.Table:
    """Terms overrepresented in the query's matched docs vs the corpus
    (module docstring).  Returns (term, fg_df, bg_df, score) with score
    the 6dp KL contribution, ordered (score desc, term asc), query
    terms excluded, fg_df = 0 rows dropped.  ``term`` is the surface
    token when the index carries a term dictionary (built lazily here
    for the documents-table path, like ops/termdict), else the stem.

    Scale shape (round 4): the foreground fold is a per-range
    re-analysis of the MATCHED docs (sig_fg_range — O(matched docs), no
    vocabulary in task args or on the driver), the background df is the
    stats-sidecar ``k`` fold restricted to the foreground vocabulary
    (_bg_df_for_terms), and surface naming is a ``stem IN`` filtered
    dictionary read (_surface_names_for).  Driver state is
    foreground-vocabulary-sized throughout."""
    from ..query.engine import _stem_one

    if index_dir is None:
        # ensure the term dictionary exists for surface naming
        from .termdict import _reader_and_dict

        reader, _ = _reader_and_dict(sf_dir)
    else:
        reader = _reader_for(sf_dir, index_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "sig_fg_range",
                          (index_dir, field, stemmed, lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [sig_fg_range_local(reader, fid, stemmed)]
    fg_n, vocab, fg_df = _merge_fg_parts(parts)
    if not fg_n or not vocab:
        return pa.table({"term": pa.array([], pa.string()),
                         "fg_df": pa.array([], pa.int64()),
                         "bg_df": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    bg_df = _bg_df_for_terms(
        reader, fid, vocab,
        distributed=(index_dir is not None
                     and reader.num_docs >= dist_min_docs()))
    score = np.round((fg_df / fg_n)
                     * np.log((fg_df / fg_n) / (bg_df / n_docs)), 6)
    # surface naming BEFORE the sort: ties break on the reported name
    names = _surface_names_for(reader, fid, vocab)
    vocab = [names.get(t, t) for t in vocab]
    top = np.lexsort((np.array(vocab), -score))[:top_n]
    return pa.table({"term": pa.array([vocab[i] for i in top], pa.string()),
                     "fg_df": pa.array(fg_df[top].astype(np.int64),
                                       pa.int64()),
                     "bg_df": pa.array(bg_df[top].astype(np.int64),
                                       pa.int64()),
                     "score": pa.array(score[top], pa.float64())})


def sig_fg_range_local(reader, fid, stemmed):
    """Index-wide foreground counts on an open reader (in-process
    path); same return shape as sig_fg_range."""
    fg = _matched_union(reader, fid, stemmed, None)
    counts = _fg_term_counts(reader, fid, fg, set(stemmed))
    terms = sorted(counts)
    return int(fg.size), terms, [counts[t] for t in terms]


# ----------------------------------------------- terms facet / cardinality


def terms_facet_range(index_dir, field, stemmed, group_field, lo, hi):
    """Per-range (keys, counts) partial: matched-doc counts per
    ``group_field`` value in [lo, hi)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    return _terms_facet_fold(reader, fid, stemmed, group_field, (lo, hi))


def _terms_facet_fold(reader, fid, stemmed, group_field, doc_range):
    docs = _matched_union(reader, fid, stemmed, doc_range)
    if not docs.size:
        return [], np.zeros(0, np.int64)
    keys = np.asarray(
        reader.fetch_docs(docs, [group_field]).column(group_field)
        .to_pylist(), dtype=object)
    uniq, cnt = np.unique(keys, return_counts=True)
    return uniq.tolist(), cnt.astype(np.int64)


def terms_facet(sf_dir: str, terms=("merge",),
                group_field: str = "lang", top_n: int = 10,
                field: str = "text", *,
                index_dir: str | None = None) -> pa.Table:
    """Terms facet (cf. Elasticsearch ``terms`` aggregation): matched-doc
    (ANY query term) counts per value of a stored keyword field, the
    ``top_n`` buckets by (count desc, key asc).  Per-range partials are
    key-cardinality-sized count vectors; disjoint ranges sum exactly."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "terms_facet_range",
                          (index_dir, field, stemmed, group_field, lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [_terms_facet_fold(reader, fid, stemmed, group_field,
                                   None)]
    agg: dict = {}
    for keys, cnts in parts:
        for key, c in zip(keys, cnts.tolist()):
            agg[key] = agg.get(key, 0) + c
    rows = sorted(agg.items(), key=lambda p: (-p[1], p[0]))[:top_n]
    return pa.table({"key": pa.array([str(k) for k, _ in rows],
                                     pa.string()),
                     "n": pa.array([c for _, c in rows], pa.int64())})


def card_range(index_dir, field, stemmed, value_field, lo, hi):
    """Per-range distinct-value partial (key-cardinality-sized set)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    keys, _ = _terms_facet_fold(reader, fid, stemmed, value_field,
                                (lo, hi))
    return keys


def cardinality_agg(sf_dir: str, terms=("merge",),
                    value_field: str = "source",
                    field: str = "text", *,
                    index_dir: str | None = None) -> pa.Table:
    """Cardinality aggregation (cf. Elasticsearch ``cardinality``, here
    EXACT): the number of distinct ``value_field`` values among docs
    matching ANY query term.  Per-range partials are distinct-value
    sets (bounded by the keyword field's cardinality, never doc-sized);
    the union folds on the driver."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "card_range",
                          (index_dir, field, stemmed, value_field, lo, hi)))
            for (lo, hi) in ranges])
    else:
        keys, _ = _terms_facet_fold(reader, fid, stemmed, value_field,
                                    None)
        parts = [keys]
    distinct = set()
    for keys in parts:
        distinct.update(keys)
    return pa.table({"n_distinct": pa.array([len(distinct)], pa.int64())})


def filters_agg_range(index_dir, field, named, lo, hi):
    """Per-range matched-doc counts for each named term-bag filter."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    return [int(_matched_union(reader, fid, list(stemmed),
                               (lo, hi)).size)
            for _name, stemmed in named]


def filters_agg(sf_dir: str,
                filters: tuple = (("merge_docs", ("merge",)),
                                  ("scan_docs", ("scan",)),
                                  ("either", ("merge", "scan"))),
                field: str = "text", *,
                index_dir: str | None = None) -> pa.Table:
    """Filters aggregation (cf. Elasticsearch ``filters``): one matched-
    doc count per NAMED query bucket (each an any-term match), answered
    from posting metadata + union sizes — disjoint-range partials sum.
    Returns (name, n) in the given filter order."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    named = [(name, tuple(dict.fromkeys(_stem_one(t) for t in terms)))
             for name, terms in filters]

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "filters_agg_range",
                          (index_dir, field, named, lo, hi)))
            for (lo, hi) in ranges])
        counts = [sum(p[j] for p in parts) for j in range(len(named))]
    else:
        counts = [int(_matched_union(reader, fid, list(st), None).size)
                  for _n, st in named]
    return pa.table({
        "name": pa.array([n for n, _ in named], pa.string()),
        "n": pa.array(counts, pa.int64()),
    })


def adjacency_matrix_range(index_dir, field, named, lo, hi):
    """Per-range single + pairwise intersection counts (dense-mask ANDs
    over the range span — set algebra on postings, no doc payload)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    masks = []
    for _name, stemmed in named:
        docs = _matched_union(reader, fid, list(stemmed), (lo, hi))
        m = np.zeros(hi - lo, bool)
        if docs.size:
            m[docs - lo] = True
        masks.append(m)
    out = []
    for i in range(len(named)):
        out.append(int(masks[i].sum()))
    for i in range(len(named)):
        for j in range(i + 1, len(named)):
            out.append(int((masks[i] & masks[j]).sum()))
    return out


def adjacency_matrix(sf_dir: str,
                     filters: tuple = (("merge_docs", ("merge",)),
                                       ("scan_docs", ("scan",)),
                                       ("row_docs", ("row",))),
                     field: str = "text", *,
                     index_dir: str | None = None) -> pa.Table:
    """Adjacency-matrix aggregation (cf. Elasticsearch
    ``adjacency_matrix``): matched-doc counts for every named filter AND
    every pairwise intersection ("a&b") — the co-occurrence matrix shape
    behind graph/Venn analytics.  Pure posting-set algebra per doc range
    (dense boolean masks, one AND + popcount per pair), disjoint-range
    partials sum.  Returns (key, n): singles in filter order, then pairs
    "name_i&name_j" for i < j."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    named = [(name, tuple(dict.fromkeys(_stem_one(t) for t in terms)))
             for name, terms in filters]
    keys = [n for n, _ in named] + [
        f"{named[i][0]}&{named[j][0]}"
        for i in range(len(named)) for j in range(i + 1, len(named))]

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "adjacency_matrix_range",
                          (index_dir, field, named, lo, hi)))
            for (lo, hi) in ranges])
        counts = [sum(p[j] for p in parts) for j in range(len(keys))]
    else:
        sets = [set(_matched_union(reader, fid, list(st), None).tolist())
                for _n, st in named]
        counts = [len(s) for s in sets] + [
            len(sets[i] & sets[j])
            for i in range(len(sets)) for j in range(i + 1, len(sets))]
    return pa.table({"key": pa.array(keys, pa.string()),
                     "n": pa.array(counts, pa.int64())})


def composite_range(index_dir, field, stemmed, group_field, value_column,
                    interval, after, lo, hi):
    """Per-range composite-bucket partial (after-key pre-filtered)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    return _composite_fold(reader, fid, stemmed, group_field, value_column,
                           interval, after, (lo, hi))


def _composite_fold(reader, fid, stemmed, group_field, value_column,
                    interval, after, doc_range):
    empty = ([], np.zeros(0, np.int64), np.zeros(0, np.int64))
    docs = _matched_union(reader, fid, stemmed, doc_range)
    if not docs.size:
        return empty
    t = reader.fetch_docs(docs, [group_field, value_column])
    keys = np.asarray(t.column(group_field).to_pylist(), dtype=object)
    v = (t.column(value_column).to_numpy(zero_copy_only=False)
         .astype(np.float64))
    buckets = (np.floor(v / interval) * interval).astype(np.int64)
    if after is not None:
        a_key, a_bucket = after
        keep = (keys > a_key) | ((keys == a_key) & (buckets > a_bucket))
        keys, buckets = keys[keep], buckets[keep]
    if not keys.size:
        return empty
    u_keys, codes = np.unique(keys, return_inverse=True)
    order = np.lexsort((buckets, codes))
    sc, sb = codes[order], buckets[order]
    starts = np.flatnonzero(
        np.r_[True, (sc[1:] != sc[:-1]) | (sb[1:] != sb[:-1])])
    cnts = np.diff(np.append(starts, sc.size)).astype(np.int64)
    return (u_keys[sc[starts]].tolist(), sb[starts], cnts)


def composite_agg(sf_dir: str, terms=("merge",),
                  group_field: str = "source",
                  value_column: str = "n_chars", interval: int = 100,
                  size: int = 15, after: tuple | None = ("src12", 200),
                  field: str = "text", *,
                  index_dir: str | None = None) -> pa.Table:
    """Composite aggregation (cf. Elasticsearch ``composite``): paginated
    multi-source buckets — here ``terms(group_field)`` ×
    ``histogram(value_column, interval)`` — over the matched set,
    ordered by the composite key ascending, the page strictly AFTER
    ``after`` (an exclusive (key, bucket) cursor; ``None`` = first
    page), at most ``size`` buckets.  The caller pages by feeding the
    last returned row back as ``after``.

    Exactness: the composite key is per-doc deterministic, so the
    ``after`` cursor pushes down into the per-range fold (each range
    drops cursor-≤ docs before counting); disjoint ranges then sum per
    bucket and the global key-ascending sort + ``size`` cut happen on
    bucket-cardinality-sized partials, never doc-sized.  Returns
    (key, bucket, n)."""
    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "composite_range",
                          (index_dir, field, stemmed, group_field,
                           value_column, interval, after, lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [_composite_fold(reader, fid, stemmed, group_field,
                                 value_column, interval, after, None)]
    agg: dict = {}
    for keys, bks, cnts in parts:
        for k, bkt, c in zip(keys, bks.tolist(), cnts.tolist()):
            kk = (k, bkt)
            agg[kk] = agg.get(kk, 0) + c
    rows = sorted(agg.items())[:size]
    return pa.table({
        "key": pa.array([str(k) for (k, _b), _n in rows], pa.string()),
        "bucket": pa.array([b for (_k, b), _n in rows], pa.int64()),
        "n": pa.array([n for _kk, n in rows], pa.int64()),
    })


def extended_stats_range(index_dir, field, stemmed, value_column, lo, hi):
    """Per-range exact integer moments (n, min, max, sum, sumsq)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    return _extended_stats_fold(reader, fid, stemmed, value_column,
                                (lo, hi))


def _extended_stats_fold(reader, fid, stemmed, value_column, doc_range):
    docs = _matched_union(reader, fid, stemmed, doc_range)
    if not docs.size:
        return 0, None, None, 0, 0
    v = (reader.fetch_docs(docs, [value_column]).column(value_column)
         .to_numpy(zero_copy_only=False).astype(np.int64))
    return (int(v.size), int(v.min()), int(v.max()), int(v.sum()),
            int((v * v).sum()))


def extended_stats(sf_dir: str, terms=("merge",),
                   value_column: str = "n_chars", field: str = "text", *,
                   index_dir: str | None = None) -> pa.Table:
    """Extended stats (cf. Elasticsearch ``extended_stats``): count /
    min / max / sum / avg / population variance / std deviation of a
    stored integer field over the matched set.

    Exactness: the per-range partials are integer moments (n, min, max,
    Σv, Σv²) — exact int64, disjoint ranges fold exactly — and the
    floats are derived ONCE from the folded integers in a fixed operand
    order (``avg = Σv/n``; ``var = Σv²/n − avg·avg``; the oracle spells
    the same expressions instead of VAR_POP), rounded to 4dp."""
    import math

    from ..query.engine import _stem_one

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "extended_stats_range",
                          (index_dir, field, stemmed, value_column, lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [_extended_stats_fold(reader, fid, stemmed, value_column,
                                      None)]
    n = sum(p[0] for p in parts)
    if not n:
        return pa.table({"n": pa.array([0], pa.int64()),
                         "lo": pa.array([None], pa.int64()),
                         "hi": pa.array([None], pa.int64()),
                         "total": pa.array([None], pa.int64()),
                         "mean": pa.array([None], pa.float64()),
                         "variance": pa.array([None], pa.float64()),
                         "std_dev": pa.array([None], pa.float64())})
    lo_v = min(p[1] for p in parts if p[0])
    hi_v = max(p[2] for p in parts if p[0])
    s = sum(p[3] for p in parts)
    sq = sum(p[4] for p in parts)
    mean = float(s) / n
    var = float(sq) / n - mean * mean
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "lo": pa.array([lo_v], pa.int64()),
        "hi": pa.array([hi_v], pa.int64()),
        "total": pa.array([s], pa.int64()),
        "mean": pa.array([round(mean, 4)], pa.float64()),
        "variance": pa.array([round(var, 4)], pa.float64()),
        # max(var, 0): Σv²/n − mean² can underflow to a tiny negative
        # under catastrophic cancellation (large near-constant values);
        # the variance column keeps the raw value for oracle parity
        "std_dev": pa.array([round(math.sqrt(max(var, 0.0)), 4)],
                            pa.float64()),
    })


def rare_terms(sf_dir: str, terms=("merge",), max_doc_count: int = 100,
               top_n: int = 20, field: str = "text", *,
               index_dir: str | None = None) -> pa.Table:
    """Rare terms (cf. Elasticsearch ``rare_terms``): the long-tail
    vocabulary of the matched set — terms appearing in at least one but
    at most ``max_doc_count`` matched docs, ordered (doc count asc,
    term asc), at most ``top_n`` buckets, query terms excluded.

    Reuses the significant_terms per-range foreground fold
    (``sig_fg_range``): per-term matched-doc counts are exact
    disjoint-range sums from re-analysis of the matched docs only,
    never a corpus or vocabulary scan; ES approximates this with a
    CuckooFilter at scale, here counts are exact.  ``term`` is the
    surface token when the index carries a dictionary, else the
    stem."""
    from ..query.engine import _stem_one

    if index_dir is None:
        from .termdict import _reader_and_dict

        reader, _ = _reader_and_dict(sf_dir)
    else:
        reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        parts = pool_batched(pool, [
            ("ops_call", ("aggs", "sig_fg_range",
                          (index_dir, field, stemmed, lo, hi)))
            for (lo, hi) in ranges])
    else:
        parts = [sig_fg_range_local(reader, fid, stemmed)]
    _, vocab, fg_f64 = _merge_fg_parts(parts)
    fg_df = fg_f64.astype(np.int64)
    keep = fg_df <= max_doc_count  # fg_df > 0 by construction
    vocab = [t for t, m in zip(vocab, keep) if m]
    fg_df = fg_df[keep]
    names = _surface_names_for(reader, fid, vocab)
    vocab = [names.get(t, t) for t in vocab]
    top = np.lexsort((np.array(vocab) if vocab else
                      np.array([], dtype=object), fg_df))[:top_n]
    return pa.table({
        "term": pa.array([vocab[i] for i in top], pa.string()),
        "n": pa.array(fg_df[top], pa.int64()),
    })
