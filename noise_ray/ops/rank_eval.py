"""Ranking-quality evaluation (cf. Elasticsearch ``_rank_eval``).

Given a query set, score each query's BM25 top-k against DETERMINISTIC
relevance labels — a doc is relevant iff it contains ALL the query's
terms AND a held-out INTENT term the query didn't say (the classic
unstated-intent proxy: the label is stricter than the ranking signal,
so the metrics discriminate; conjunctive matches are derivable in SQL,
so the whole evaluation has an exact DuckDB oracle) — and report the
standard retrieval metrics:

- ``p_at_k``       precision@k = |top-k ∩ rel| / k
- ``recall_at_k``  = |top-k ∩ rel| / |rel|
- ``ndcg_at_k``    binary-gain NDCG: DCG = Σ_{hit at rank i} 1/log2(i+1),
                   IDCG = Σ_{i=1..min(|rel|,k)} 1/log2(i+1)

Rank order is the engine's total order (rounded score desc, doc_id asc)
on BOTH sides; metrics round once to 4dp in f64.  The ranking reuses
``ops.bm25.bm25_topk`` (two-phase distributed fan-out above 5M docs);
the |rel| count and the top-k membership checks are posting reads —
|rel| via the intersection of the terms' doc lists, membership via
sorted ``np.isin`` of ≤k docs.  Above 5M docs the label intersection
fans out per doc range through the shared worker pool (rel counts and
top-k hit masks are disjoint-range partials), so nothing corpus-sized
is ever read on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..query.distributed import dist_min_docs, doc_ranges
from .aggs import _reader_for


def _rel_docs(reader, fid, stemmed) -> np.ndarray:
    """Sorted live docs containing ALL terms (the relevance label)."""
    rel = None
    for t in stemmed:
        pl = reader.postings(fid, t, need_positions=False)
        d = pl.docs if pl is not None else np.zeros(0, np.int64)
        rel = d if rel is None else rel[np.isin(rel, d)]
        if rel is None or not rel.size:
            return np.zeros(0, np.int64)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        rel = rel[~np.isin(rel, tomb)]
    return np.unique(rel)


def rank_eval_range(index_dir, field, stemmed, topk_docs, lo, hi):
    """Worker body: (|rel ∩ [lo,hi)|, hit mask of ``topk_docs`` whose
    doc lies in this range) — disjoint ranges sum/OR exactly."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    rel = None
    for t in stemmed:
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=(lo, hi))
        d = pl.docs if pl is not None else np.zeros(0, np.int64)
        if d.size:
            d = d[(d >= lo) & (d < hi)]
        rel = d if rel is None else rel[np.isin(rel, d)]
        if not rel.size:
            break
    if rel is None:
        rel = np.zeros(0, np.int64)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        rel = rel[~np.isin(rel, tomb)]
    rel = np.unique(rel)
    docs = np.asarray(topk_docs, np.int64)
    in_range = (docs >= lo) & (docs < hi)
    hit = np.zeros(docs.size, bool)
    hit[in_range] = np.isin(docs[in_range], rel)
    return int(rel.size), hit


def rank_eval(sf_dir: str,
              queries=((("merge", "scan"), "row"),
                       (("row", "group"), "merge"),
                       (("sort", "filter"), "join")),
              k: int = 50, k1: float = 1.2, b: float = 0.75,
              field: str = "text", *,
              index_dir: str | None = None) -> pa.Table:
    """Evaluate each query's BM25 top-``k`` against the conjunctive
    relevance labels (module docstring).  Returns one row per query:
    (query_id, n_rel, p_at_k, recall_at_k, ndcg_at_k), 4dp."""
    from ..query.engine import _stem_one

    from .bm25 import bm25_topk

    reader = _reader_for(sf_dir, index_dir)
    fid = reader.field_id[field]
    out = {"query_id": [], "n_rel": [], "p_at_k": [],
           "recall_at_k": [], "ndcg_at_k": []}
    for qi, (terms, intent) in enumerate(queries):
        stemmed = list(dict.fromkeys(
            _stem_one(t) for t in (*terms, intent)))
        top = bm25_topk(sf_dir, terms=tuple(terms), k=k,
                        k1=k1, b=b, field=field, index_dir=index_dir)
        docs = top.column("doc_id").to_numpy()
        if index_dir is not None and reader.num_docs >= dist_min_docs():
            from ..query.distributed import pool_batched, worker_pool

            ranges = doc_ranges(reader.num_docs)
            pool = worker_pool()
            parts = pool_batched(pool, [
                ("ops_call", ("rank_eval", "rank_eval_range",
                              (index_dir, field, stemmed, docs, lo, hi)))
                for (lo, hi) in ranges])
            n_rel = int(sum(p[0] for p in parts))
            hit = np.zeros(docs.size, bool)
            for p in parts:
                hit |= p[1]
        else:
            rel = _rel_docs(reader, fid, stemmed)
            hit = np.isin(docs, rel)
            n_rel = int(rel.size)
        kk = float(k)
        p = float(hit.sum()) / kk
        r = (float(hit.sum()) / n_rel) if n_rel else 0.0
        ranks = np.arange(1, docs.size + 1, dtype=np.float64)
        dcg = float((hit / np.log2(ranks + 1.0)).sum())
        ideal = np.arange(1, min(n_rel, k) + 1, dtype=np.float64)
        idcg = float((1.0 / np.log2(ideal + 1.0)).sum())
        ndcg = dcg / idcg if idcg else 0.0
        out["query_id"].append(qi)
        out["n_rel"].append(n_rel)
        out["p_at_k"].append(round(p, 4))
        out["recall_at_k"].append(round(r, 4))
        out["ndcg_at_k"].append(round(ndcg, 4))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "n_rel": pa.array(out["n_rel"], pa.int64()),
        "p_at_k": pa.array(out["p_at_k"], pa.float64()),
        "recall_at_k": pa.array(out["recall_at_k"], pa.float64()),
        "ndcg_at_k": pa.array(out["ndcg_at_k"], pa.float64()),
    })
