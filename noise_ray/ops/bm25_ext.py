"""BM25 extensions: synonym-blended scoring and function-score boosts.

Two retrieval shapes standard engines layer on top of plain Okapi BM25
(cf. Lucene's SynonymQuery and Elasticsearch's function_score), both
computed straight off the index artifacts like ops/bm25.py:

- **Synonym groups** (``bm25_synonyms_topk``): each query "term" is a
  GROUP of interchangeable surface forms.  The group scores as one
  pseudo-term — ``tf_g(d) = Σ_t tf_t(d)`` (every occurrence of any
  member counts) and ``df_g = |{d : any member occurs}|`` (the union
  doc frequency, so a group of common synonyms is down-weighted like
  the single common term it behaves as, instead of idf-stacking).
  A plain OR over the same words would score each member with its own
  idf and reward documents for using rarer spellings of the same
  concept; the blended form is spelling-invariant.

- **Value boost** (``bm25_value_boost``): ``score'(d) = bm25(d) ·
  1/(1 + λ·v_d)`` for a stored numeric doc value ``v_d`` (recency age,
  length, spam score, …) gathered from the docmap — the
  field_value_factor / decay shape.  The boost is per-doc, so scoring
  stays per-doc independent and the distributed union-of-local-top-k
  argument carries over unchanged.

Both fan out per doc range above 5M docs through the shared range-actor
pool (query/distributed.worker_pool, one ``ops_call`` per range):
phase 1 folds per-range statistic partials (group union dfs
are disjoint-range sums, exactly like term dfs), phase 2 scores each
range with the GLOBAL stats and returns a local top-k.

Determinism contract: scores are f64 in the engine's operand order,
rounded to 4dp, ordered by (rounded score desc, doc_id asc) — the same
cross-engine contract as ops/bm25.py so DuckDB oracles compare exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..query.distributed import dist_min_docs, doc_ranges
from .bm25 import (
    _empty_topk,
    _fold_scores_raw,
    _merge_topk,
)


def _stem_groups(groups) -> list[list[str]]:
    from ..query.engine import _stem_one

    out = []
    for g in groups:
        stemmed = list(dict.fromkeys(_stem_one(t) for t in g))
        if stemmed:
            out.append(stemmed)
    return out


def _group_fold(reader, fid: int, group: list[str],
                doc_range: tuple[int, int] | None = None):
    """(uniq_docs, tf_sum, dl) for one synonym group — the group's
    pseudo-posting-list: docs where ANY member occurs, tf summed over
    members, dl from the shared per-doc field length.  ``doc_range``
    masks exactly (the posting pushdown is block-granular)."""
    parts_d, parts_t, parts_l = [], [], []
    for t in group:
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=doc_range)
        if pl is None or not pl.docs.size:
            continue
        d = pl.docs
        m = None
        if doc_range is not None:
            lo, hi = doc_range
            m = (d >= lo) & (d < hi)
            if not m.any():
                continue
        parts_d.append(d if m is None else d[m])
        parts_t.append(pl.tfs if m is None else pl.tfs[m])
        parts_l.append(pl.lens if m is None else pl.lens[m])
    if not parts_d:
        return None
    docs = np.concatenate(parts_d).astype(np.int64)
    tfs = np.concatenate(parts_t).astype(np.float64)
    lens = np.concatenate(parts_l)
    order = np.argsort(docs, kind="stable")
    docs, tfs, lens = docs[order], tfs[order], lens[order]
    uniq, starts = np.unique(docs, return_index=True)
    tf_sum = np.add.reduceat(tfs, starts)
    dl = lens[starts].astype(np.float64)  # same doc -> same field length
    return uniq, tf_sum, dl


def _score_groups(group_folds, dfs, n_docs, avgdl, k1, b, tomb):
    """Cross-group sum of per-group BM25 kernels -> (docs, r4), rounded
    once after the sum (mirrors _fold_scores' term-major shape)."""
    all_d, all_s = [], []
    for fold, df in zip(group_folds, dfs):
        if fold is None or not df:
            continue
        uniq, tf, dl = fold
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        all_d.append(uniq)
        all_s.append(idf * tf * (k1 + 1.0)
                     / (tf + k1 * (1.0 - b + b * dl / avgdl)))
    if not all_d:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    docs = np.concatenate(all_d)
    scores = np.concatenate(all_s)
    order = np.argsort(docs, kind="stable")
    docs, scores = docs[order], scores[order]
    uniq, starts = np.unique(docs, return_index=True)
    summed = np.add.reduceat(scores, starts)
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, summed = uniq[live], summed[live]
    return uniq, np.round(summed, 4)


def bm25_synonyms_topk(sf_dir: str,
                       groups=(("merge", "join"), ("scan",)),
                       k: int = 20, k1: float = 1.2, b: float = 0.75,
                       field: str = "text", *,
                       index_dir: str | None = None) -> pa.Table:
    """Synonym-blended BM25 top-k: each group scores as ONE pseudo-term
    with summed tf and union df (docstring at module top).  Returns
    (doc_id, score) by (rounded score desc, doc_id asc)."""
    from ..pipelines import documents_index

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    sgroups = _stem_groups(groups)

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _synonyms_distributed(index_dir, reader, sgroups, field,
                                     k, k1, b, n_docs, avgdl)

    folds = [_group_fold(reader, fid, g) for g in sgroups]
    dfs = [float(f[0].size) if f is not None else 0.0 for f in folds]
    uniq, r4 = _score_groups(folds, dfs, n_docs, avgdl, k1, b,
                             reader.tombstones)
    if not uniq.size:
        return _empty_topk()
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def syn_df_range(index_dir: str, field: str, sgroups, lo: int,
                 hi: int) -> list[int]:
    """Phase-1 worker body: per-group UNION df within [lo, hi).  Ranges
    are disjoint, so per-range union counts sum to the global union df."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    out = []
    for g in sgroups:
        fold = _group_fold(reader, fid, list(g), (lo, hi))
        out.append(0 if fold is None else int(fold[0].size))
    return out


def syn_score_range(index_dir: str, field: str, sgroups, dfs,
                    n_docs: float, avgdl: float, k1: float, b: float,
                    k: int, lo: int, hi: int):
    """Phase-2 worker body: fold this range's groups with the GLOBAL
    union dfs, return the local top-k (union-of-local-top-k exactness:
    per-doc scoring is independent)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    folds = [_group_fold(reader, fid, list(g), (lo, hi)) for g in sgroups]
    uniq, r4 = _score_groups(folds, dfs, n_docs, avgdl, k1, b,
                             reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def _synonyms_distributed(index_dir: str, reader, sgroups, field: str,
                          k: int, k1: float, b: float, n_docs: float,
                          avgdl: float) -> pa.Table:
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    df_parts = pool_batched(pool, [
        ("ops_call", ("bm25_ext", "syn_df_range",
                      (index_dir, field, sgroups, lo, hi)))
        for (lo, hi) in ranges])
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(sgroups))]
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25_ext", "syn_score_range",
                      (index_dir, field, sgroups, dfs, n_docs, avgdl, k1, b, k,
                       lo, hi)))
        for (lo, hi) in ranges]), k)


# ----------------------------------------------------- boosting query

def bm25_boosting_topk(sf_dir: str, terms=("merge", "scan"),
                       negative=("slow",), negative_boost: float = 0.3,
                       k: int = 20, k1: float = 1.2, b: float = 0.75,
                       field: str = "text", *,
                       index_dir: str | None = None) -> pa.Table:
    """Boosting query (cf. Elasticsearch/Lucene ``boosting``): rank by
    the positive terms' BM25, but DEMOTE — not exclude — docs matching
    any ``negative`` term: ``score'(d) = bm25(d) · negative_boost`` if
    d contains a negative term, else ``bm25(d)``.  Unlike a NOT filter
    the demoted docs can still surface when nothing better matches.
    Demotion is per-doc, so the union-of-local-top-k distribution
    argument carries over; the negative match set is read per range
    from the postings (never corpus-wide).  Returns (doc_id, score) by
    (rounded demoted score desc, doc_id asc)."""
    from ..query.engine import _stem_one
    from ..pipelines import documents_index

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))
    neg = list(dict.fromkeys(_stem_one(t) for t in negative))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _boosting_distributed(index_dir, reader, stemmed, neg,
                                     negative_boost, field, k, k1, b,
                                     n_docs, avgdl)
    uniq, r4 = _boosting_fold(reader, fid, stemmed, neg, negative_boost,
                              None, n_docs, avgdl, k1, b, None)
    if not uniq.size:
        return _empty_topk()
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def _boosting_fold(reader, fid, stemmed, neg, nb, dfs, n_docs, avgdl,
                   k1, b, doc_range):
    """Demoted per-doc scores for one range (dfs=None → local dfs,
    index-wide only).  Rounds AFTER the demotion (the score users see)."""
    parts = []
    for j, t in enumerate(stemmed):
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=doc_range)
        if pl is None or not pl.docs.size:
            continue
        d, tf, dl = pl.docs, pl.tfs, pl.lens
        if doc_range is not None:
            lo, hi = doc_range
            m = (d >= lo) & (d < hi)  # block-granular pushdown: mask
            d, tf, dl = d[m], tf[m], dl[m]
        df = float(d.size) if dfs is None else dfs[j]
        if d.size and df:
            parts.append((d, tf, dl, df))
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    uniq, summed = _fold_scores_raw(parts, n_docs, avgdl, k1, b)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, summed = uniq[live], summed[live]
    if not uniq.size:
        return uniq, summed
    neg_parts = []
    for t in neg:
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=doc_range)
        if pl is not None and pl.docs.size:
            neg_parts.append(pl.docs)
    if neg_parts:
        neg_docs = np.unique(np.concatenate(neg_parts))
        demote = np.isin(uniq, neg_docs)
        summed = np.where(demote, summed * nb, summed)
    return uniq, np.round(summed, 4)


def boosting_score_range(index_dir, field, stemmed, neg, nb, dfs,
                         n_docs, avgdl, k1, b, k, lo, hi):
    """Phase-2 worker body: this range's demoted scores under GLOBAL
    dfs, local top-k out."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    uniq, r4 = _boosting_fold(reader, fid, stemmed, neg, nb, dfs,
                              n_docs, avgdl, k1, b, (lo, hi))
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def _boosting_distributed(index_dir, reader, stemmed, neg, nb, field,
                          k, k1, b, n_docs, avgdl) -> pa.Table:
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    df_parts = pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_df_range",
                      (index_dir, field, stemmed, lo, hi)))
        for (lo, hi) in ranges])
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25_ext", "boosting_score_range",
                      (index_dir, field, stemmed, neg, nb, dfs, n_docs, avgdl,
                       k1, b, k, lo, hi)))
        for (lo, hi) in ranges]), k)


# -------------------------------------------------------- value boost

def bm25_value_boost(sf_dir: str, terms=("merge", "scan"),
                     k: int = 20, k1: float = 1.2, b: float = 0.75,
                     field: str = "text",
                     value_column: str = "n_chars",
                     lam: float = 0.001, *,
                     index_dir: str | None = None) -> pa.Table:
    """Function-score BM25: ``score'(d) = bm25(d) · 1/(1 + λ·v_d)`` with
    ``v_d`` the doc's stored ``value_column`` (docmap gather — the doc
    store the index already carries; no corpus read).  With
    ``value_column`` an age this is recency decay; here the testdata's
    ``n_chars`` demotes long documents.  Returns (doc_id, score) by
    (rounded boosted score desc, doc_id asc)."""
    from ..query.engine import _stem_one
    from ..pipelines import documents_index

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _boost_distributed(index_dir, reader, stemmed, field, k,
                                  k1, b, n_docs, avgdl, value_column,
                                  ("recip", lam))

    uniq, r4 = _boost_fold(reader, fid, stemmed, None, n_docs, avgdl,
                           k1, b, value_column, ("recip", lam), None)
    if not uniq.size:
        return _empty_topk()
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def bm25_decay(sf_dir: str, terms=("merge", "scan"), k: int = 20,
               k1: float = 1.2, b: float = 0.75, field: str = "text",
               value_column: str = "n_chars", origin: float = 300.0,
               offset: float = 50.0, scale: float = 150.0, *,
               index_dir: str | None = None) -> pa.Table:
    """Gauss-decay function score (cf. Elasticsearch ``function_score``
    decay functions): ``score'(d) = bm25(d) · 0.5^((max(0, |v −
    origin| − offset) / scale)²)`` — full score inside ``offset`` of
    ``origin``, halved at ``origin ± (offset + scale)``; the ES recency
    / geo-distance decay shape over any stored numeric field (docmap
    gather, no corpus read).  Same two-phase fan-out and determinism
    contract as bm25_value_boost (one 4dp rounding AFTER the
    multiply)."""
    from ..pipelines import documents_index
    from ..query.engine import _stem_one

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))
    spec = ("gauss", origin, offset, scale)

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _boost_distributed(index_dir, reader, stemmed, field, k,
                                  k1, b, n_docs, avgdl, value_column,
                                  spec)

    uniq, r4 = _boost_fold(reader, fid, stemmed, None, n_docs, avgdl,
                           k1, b, value_column, spec, None)
    if not uniq.size:
        return _empty_topk()
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def boost_score_range(index_dir, field, stemmed, dfs, n_docs, avgdl,
                      k1, b, value_column, spec, k, lo, hi):
    """Phase-2 worker body: fold one doc range's boosted scores with the
    GLOBAL dfs, return the local top-k.  The per-range docmap gather
    happens on the worker that owns the range (fetch_docs is a
    vectorized partition-local take, never a corpus scan)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    uniq, r4 = _boost_fold(reader, fid, stemmed, dfs, n_docs, avgdl,
                           k1, b, value_column, spec, (lo, hi))
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def _boost_multiplier(v: np.ndarray, spec) -> np.ndarray:
    """Per-doc function-score multiplier over the stored values ``v``.
    ``("recip", λ)`` → 1/(1 + λ·v); ``("gauss", origin, offset, scale)``
    → 0.5^((max(0, |v − origin| − offset) / scale)²) — ES's gauss decay
    with decay=0.5 at distance offset+scale."""
    if spec[0] == "recip":
        return 1.0 / (1.0 + spec[1] * v)
    _kind, origin, offset, scale = spec
    dist = np.maximum(np.abs(v - origin) - offset, 0.0)
    return np.power(0.5, (dist / scale) ** 2)


def _boost_fold(reader, fid, stemmed, dfs, n_docs, avgdl, k1, b,
                value_column, spec, doc_range):
    """Boosted per-doc scores for one range (or the whole index when
    ``doc_range`` is None; dfs=None takes them from the local posting
    lists — only valid index-wide)."""
    parts = []
    for j, t in enumerate(stemmed):
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=doc_range)
        if pl is None or not pl.docs.size:
            continue
        d, tf, dl = pl.docs, pl.tfs, pl.lens
        if doc_range is not None:
            lo, hi = doc_range
            m = (d >= lo) & (d < hi)  # block-granular pushdown: mask
            d, tf, dl = d[m], tf[m], dl[m]
        df = float(d.size) if dfs is None else dfs[j]
        if d.size and df:
            parts.append((d, tf, dl, df))
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    uniq, summed = _fold_scores_raw(parts, n_docs, avgdl, k1, b)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, summed = uniq[live], summed[live]
    if not uniq.size:
        return uniq, summed
    vals = reader.fetch_docs(uniq, [value_column]).column(value_column)
    v = vals.to_numpy(zero_copy_only=False).astype(np.float64)
    return uniq, np.round(summed * _boost_multiplier(v, spec), 4)


def _boost_distributed(index_dir: str, reader, stemmed, field: str,
                       k: int, k1: float, b: float, n_docs: float,
                       avgdl: float, value_column: str,
                       spec) -> pa.Table:
    """Two-phase fan-out: global term dfs (phase 1 reuses bm25_df_range),
    then per-range boosted scoring with local top-k."""
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    df_parts = pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_df_range",
                      (index_dir, field, stemmed, lo, hi)))
        for (lo, hi) in ranges])
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25_ext", "boost_score_range",
                      (index_dir, field, stemmed, dfs, n_docs, avgdl, k1, b,
                       value_column, spec, k, lo, hi)))
        for (lo, hi) in ranges]), k)


# ------------------------------------------------------------ dis_max


def _dismax_fold(reader, fields, stemmed, dfs, avgdls, n_docs, k1, b,
                 tie_breaker, doc_range):
    """Per-doc dis_max combination: score = max_f(w_f·s_f) +
    tie_breaker · (Σ_f w_f·s_f − max).  Per-field sums fold field-major
    (matching the SQL's left-to-right `w1·c1 + w2·c2 + …` with 0.0 for
    absent fields — adding exact zeros is an f64 no-op, so skipping
    absent fields is bit-equal).  dfs/avgdls None → local stats."""
    from .bm25 import _fold_scores_raw

    field_d, field_s = [], []
    for field, w in fields:
        fid = reader.field_id.get(field, -1)
        if fid < 0:
            continue
        avgdl = (avgdls[field] if avgdls is not None
                 else reader.token_total(fid) / n_docs)
        parts = []
        for t in stemmed:
            pl = reader.postings(fid, t, need_positions=False,
                                 doc_range=doc_range)
            d, tf, dl = pl.docs, pl.tfs, pl.lens
            if doc_range is not None:
                lo, hi = doc_range
                m = (d >= lo) & (d < hi)
                d, tf, dl = d[m], tf[m], dl[m]
            df = (dfs.get((field, t), 0.0) if dfs is not None
                  else float(d.size))
            if d.size and df:
                parts.append((d, tf, dl, df))
        if not parts:
            continue
        uniq_f, sums_f = _fold_scores_raw(parts, n_docs, avgdl, k1, b)
        field_d.append(uniq_f)
        field_s.append(w * sums_f)
    if not field_d:
        z = np.zeros(0, np.int64)
        return z, np.zeros(0, np.float64)
    docs = np.concatenate(field_d)
    scores = np.concatenate(field_s)
    order = np.argsort(docs, kind="stable")  # stable: field-major order
    docs, scores = docs[order], scores[order]
    uniq, starts = np.unique(docs, return_index=True)
    sm = np.add.reduceat(scores, starts)
    mx = np.maximum.reduceat(scores, starts)
    combined = mx + tie_breaker * (sm - mx)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, combined = uniq[live], combined[live]
    return uniq, np.round(combined, 4)


def dismax_df_range(index_dir, fields, stemmed, lo, hi):
    """Phase-1 worker body: per-(field, term) dfs in [lo, hi)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    out = {}
    for field, _w in fields:
        fid = reader.field_id.get(field, -1)
        if fid < 0:
            continue
        for t in stemmed:
            pl = reader.postings(fid, t, need_positions=False,
                                 doc_range=(lo, hi))
            d = pl.docs
            out[f"{field}\x00{t}"] = (
                int(((d >= lo) & (d < hi)).sum()) if d.size else 0)
    return out


def dismax_score_range(index_dir, fields, stemmed, dfs_flat, avgdls,
                       n_docs, k1, b, tie_breaker, k, lo, hi):
    """Phase-2 worker body: this range's dis_max scores under GLOBAL
    stats, local top-k + rounded-score ties."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    dfs = {tuple(key.split("\x00")): v for key, v in dfs_flat.items()}
    uniq, r4 = _dismax_fold(reader, fields, stemmed, dfs, avgdls,
                            n_docs, k1, b, tie_breaker, (lo, hi))
    if uniq.size > k:
        order = np.lexsort((uniq, -r4))
        cut = r4[order[k - 1]]
        keep = order[:k + int(np.count_nonzero(r4[order[k:]] == cut))]
        uniq, r4 = uniq[keep], r4[keep]
    return uniq, r4


def bm25_dismax_topk(sf_dir: str,
                     terms: tuple[str, ...] = ("merge", "src3", "en"),
                     fields: tuple[tuple[str, float], ...] = (
                         ("text", 1.0), ("source", 0.7), ("lang", 0.3)),
                     tie_breaker: float = 0.3, k: int = 20,
                     k1: float = 1.2, b: float = 0.75, *,
                     index_dir: str | None = None) -> pa.Table:
    """Disjunction-max multi-field query (cf. Elasticsearch/Lucene
    ``dis_max`` and the ``multi_match best_fields`` type): the doc's
    score is its BEST field's weighted BM25 plus ``tie_breaker`` times
    the other fields' — rewarding docs whose match concentrates in one
    field over docs with scattered weak matches, the opposite bias from
    ``bm25_fields_topk``'s pure weighted sum (tie_breaker=1 degenerates
    to it).  Per-field stats (df, avgdl) as bm25_fields_topk; two-phase
    range fan-out above 5M docs.  Returns (doc_id, score) by (rounded
    score desc, doc_id asc)."""
    from ..pipelines import documents_index
    from ..query.engine import _stem_one

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    n_docs = float(reader.num_docs)
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        from ..query.distributed import pool_batched, worker_pool

        avgdls = {f: reader.token_total(reader.field_id[f])
                  / n_docs
                  for f, _ in fields if f in reader.field_id}
        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        df_parts = pool_batched(pool, [
            ("ops_call", ("bm25_ext", "dismax_df_range",
                          (index_dir, fields, stemmed, lo, hi)))
            for (lo, hi) in ranges])
        dfs_flat: dict = {}
        for p in df_parts:
            for key, v in p.items():
                dfs_flat[key] = dfs_flat.get(key, 0) + v
        dfs_flat = {key: float(v) for key, v in dfs_flat.items()}
        parts = pool_batched(pool, [
            ("ops_call", ("bm25_ext", "dismax_score_range",
                          (index_dir, fields, stemmed, dfs_flat, avgdls,
                           n_docs, k1, b, tie_breaker, k, lo, hi)))
            for (lo, hi) in ranges])
        uniq = np.concatenate([p[0] for p in parts])
        r4 = np.concatenate([p[1] for p in parts])
    else:
        uniq, r4 = _dismax_fold(reader, fields, stemmed, None, None,
                                n_docs, k1, b, tie_breaker, None)
    if not uniq.size:
        from .bm25 import _empty_topk

        return _empty_topk()
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


# ---------------------------------------------------- phrase-prefix


def bm25_phrase_prefix_topk(sf_dir: str, words: tuple[str, ...] = ("window",),
                            prefix: str = "jo", k: int = 20,
                            max_expansions: int = 50, k1: float = 1.2,
                            b: float = 0.75, field: str = "text",
                            *, index_dir: str | None = None) -> pa.Table:
    """Search-as-you-type phrase (cf. Elasticsearch
    ``match_phrase_prefix``): the fixed ``words`` followed immediately by
    ANY dictionary token starting with ``prefix`` — the last word the
    user is still typing.  Expansion is a footer-pruned term-dictionary
    read capped at ``max_expansions`` raw tokens in ascending order (the
    ES cap, replicated in the oracle); tf = number of phrase-with-any-
    expansion occurrences, df = docs with >= 1, then the exact phrase
    kernel of ``bm25_phrase_topk``.  One position holds one token, so
    summing adjacency counts over expansions never double-counts.

    The expansion probe is |word postings| × n_expansions sorted key
    lookups (doc<<32|pos keys) — vocabulary-bounded, never corpus-sized.
    Returns (doc_id, score) by (rounded score desc, doc_id asc)."""
    from ..build.dictionary import prefix_terms
    from ..query.engine import _stem_one

    from .bm25 import _phrase_score
    from .termdict import _reader_and_dict

    reader, ddir = _reader_and_dict(sf_dir, index_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    stemmed = [_stem_one(w) for w in words]

    raw = sorted(prefix_terms(ddir, fid, prefix)
                 .column("token").to_pylist())[:max_expansions]
    expansions = list(dict.fromkeys(_stem_one(t) for t in raw))
    if not expansions:
        from .bm25 import _empty_topk

        return _empty_topk()

    # anchor: the fixed words as an exact sub-phrase — keys at the slot
    # AFTER the last fixed word
    mul = np.int64(1) << np.int64(32)
    anchor_d = anchor_keys = None
    for i, t in enumerate(stemmed):
        pl = reader.postings(fid, t, need_positions=True)
        if not pl.docs.size:
            from .bm25 import _empty_topk

            return _empty_topk()
        d = np.repeat(pl.docs, pl.tfs)
        keys = d * mul + (pl.pos_concat.astype(np.int64) - i)
        if anchor_keys is None:
            anchor_d, anchor_keys = d, keys
            lens_map = (pl.docs, pl.lens)
        else:
            m = np.isin(anchor_keys, keys)
            anchor_d, anchor_keys = anchor_d[m], anchor_keys[m]
    # anchor_keys hold (doc, start_pos); the expansion must sit at
    # start_pos + len(words)
    probe = anchor_keys + np.int64(len(words))
    hit = np.zeros(probe.size, bool)
    for e in expansions:
        pl = reader.postings(fid, e, need_positions=True)
        if not pl.docs.size:
            continue
        keys = (np.repeat(pl.docs, pl.tfs) * mul
                + pl.pos_concat.astype(np.int64))
        hit |= np.isin(probe, keys)
    docs = anchor_d[hit]
    if not docs.size:
        from .bm25 import _empty_topk

        return _empty_topk()
    uniq, tf = np.unique(docs, return_counts=True)
    dl = lens_map[1][np.searchsorted(lens_map[0], uniq)]
    uniq, r4 = _phrase_score(uniq, tf.astype(np.int64),
                             dl.astype(np.int64), float(uniq.size),
                             n_docs, avgdl, k1, b, reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})
