"""True BM25 (Okapi, k1/b) top-k straight off the inverted index.

The engine's native scorer reproduces the reference's TF-IDF formula
bit-for-bit (query/engine.py — that is the parity contract).  This
operator adds the standard BM25 ranking the north rule names, computed
from exactly the index artifacts the posting lists already carry: per
posting ``tfs`` (term frequency) and ``lens`` (field length), per term
the doc frequency (posting length), and corpus stats from the manifest
(``N`` docs, ``field_k`` total tokens → ``avgdl``).  No extra pass over
the corpus: scoring k terms touches k posting lists.

``idf_t = ln(1 + (N - df + 0.5) / (df + 0.5))`` (the Lucene/standard
non-negative variant) and
``score = Σ_t idf_t · tf·(k1+1) / (tf + k1·(1 - b + b·dl/avgdl))``.

Block-max WAND pruning (the north rule's access path): segment blocks
carry ``(max_tf, min_len)`` skip metadata; because the BM25 kernel is
increasing in tf and decreasing in dl, ``kernel(max_tf, min_len)``
upper-bounds every posting in the block.  Doc space is cut into
elementary intervals at the union of the query terms' block boundaries,
each interval bounded by the sum of its covering blocks' bounds
(conjunctive mode zeroes intervals missing any term — classic
intersection pruning), and intervals are scored exactly in
descending-bound order until the running k-th best rounded score
exceeds every remaining bound.  Results are IDENTICAL to the exhaustive
path: per-doc scoring is independent (a doc's every term contribution
lands in its one covering interval), the same f64 kernels run over
block slices in the same term order, and ties at the k-th rounded score
are never pruned (SAFETY covers the 4dp rounding half-step).  Pruned
term runs never even fetch their payload bytes (reader.LazyBlock
lazy-loads per run) — at 10^12-doc scale this is the difference between
decoding a stopword's whole posting list and touching the few blocks
whose bound clears the threshold.  Pre-bounds segment files (older
builds) fall back to exhaustive scoring automatically.

Determinism: scores are f64, rounded to 4dp, ordered by (rounded score
desc, doc_id asc) on BOTH sides — the same cross-engine contract as the
other scored oracles (ops/score_oracle.py).
"""

from __future__ import annotations

import bisect
import math

import numpy as np
import pyarrow as pa

from ..query.distributed import dist_min_docs, doc_ranges

DEFAULT_TERMS = ("merge", "scan")

_EMPTY_TOPK = None


def _empty_topk() -> pa.Table:
    global _EMPTY_TOPK
    if _EMPTY_TOPK is None:
        _EMPTY_TOPK = pa.table({"doc_id": pa.array([], pa.int64()),
                                "score": pa.array([], pa.float64())})
    return _EMPTY_TOPK


def _merge_topk(parts, k: int) -> pa.Table:
    """Driver-side merge of per-range local top-k partials ``[(docs,
    r4), ...]``: the global top ``k`` by (rounded score desc, doc_id
    asc) as a (doc_id, score) table."""
    docs = np.concatenate([p[0] for p in parts])
    r4 = np.concatenate([p[1] for p in parts])
    top = np.lexsort((docs, -r4))[:k]
    return pa.table({"doc_id": pa.array(docs[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def bm25_topk(sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS,
              k: int = 20, k1: float = 1.2, b: float = 0.75,
              field: str = "text", *,
              index_dir: str | None = None,
              filter_query: str | None = None,
              mode: str = "or",
              min_match: int | None = None,
              search_after: tuple[float, int] | None = None,
              pruned: bool = True,
              stats_out: dict | None = None) -> pa.Table:
    """BM25 top-``k`` over the documents index for a bag of ``terms``
    (terms must be their own stem on this corpus, like every term-oracle
    entry).  Returns (doc_id, score) with score rounded to 4dp.
    ``index_dir`` points at any flat index (e.g. the 22M transcript one)
    instead of the per-sf documents index.  ``filter_query`` is a
    filter-only noise query (e.g. ``'find {lang: =="en"} ;'``) narrowing
    the scored set — the filter+relevance "bool query" shape; the
    engine's own filter machinery (postings, zone maps, tombstones)
    computes the allowed set, BM25 ranks only inside it.  IDF statistics
    stay CORPUS-wide (the standard filtered-search semantics: a filter
    narrows candidates, it does not re-weight terms).  ``mode="and"``
    keeps only docs matching EVERY query term (posting-list
    intersection); scores are unchanged where defined.
    ``min_match=m`` is Lucene's minimum_should_match: only docs matching
    at least ``m`` distinct query terms rank (``mode="or"`` is m=1,
    ``mode="and"`` is m=len(terms); both are expressed through the same
    matched-term-count filter).  ``search_after=(score, doc_id)`` is
    cursor pagination: return the next ``k`` docs strictly after the
    cursor row in (rounded score desc, doc_id asc) order — deep paging
    never re-ships earlier pages, and because the ordering is total the
    page sequence is exactly OFFSET semantics without the offset cost.
    ``pruned=False`` forces the exhaustive path (testing / older
    indexes)."""
    from ..query.engine import _stem_one
    from ..pipelines import documents_index

    if mode not in ("or", "and"):
        raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")
    if min_match is not None and mode == "and":
        raise ValueError("min_match only composes with mode='or' "
                         "(mode='and' IS min_match=len(terms))")
    if index_dir is not None:
        # version-keyed cache: repeat queries reuse the decoded stats
        # sidecar totals and posting caches instead of re-opening
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs

    # dict.fromkeys: duplicate query terms collapse (a term scores once)
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))
    # both boolean modes reduce to a matched-term-count floor
    m_req = len(stemmed) if mode == "and" else max(1, min_match or 1)
    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _bm25_distributed(index_dir, reader, stemmed, field,
                                 k, k1, b, n_docs, avgdl, filter_query,
                                 min_match=m_req, search_after=search_after)

    allowed = (_allowed_docs(reader, filter_query, None)
               if filter_query is not None else None)
    if pruned:
        res = _bm25_wand(reader, fid, stemmed, k, k1, b, n_docs, avgdl,
                         allowed=allowed, min_match=m_req,
                         search_after=search_after, stats_out=stats_out)
        if res is not None:
            uniq, r4 = res
            top = np.lexsort((uniq, -r4))[:k]
            return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                             "score": pa.array(r4[top], pa.float64())})

    dfs = {}
    pls = {}
    for t in stemmed:
        pl = reader.postings(field, t, need_positions=False)
        if pl is not None and pl.docs.size:
            pls[t] = pl
            dfs[t] = float(pl.docs.size)
    uniq, r4, cnts = _fold_scores(
        [(pls[t].docs, pls[t].tfs, pls[t].lens, dfs[t]) for t in pls],
        n_docs, avgdl, k1, b, reader.tombstones)
    if m_req > 1:
        m = cnts >= m_req
        uniq, r4 = uniq[m], r4[m]
    if allowed is not None:
        m = np.isin(uniq, allowed)
        uniq, r4 = uniq[m], r4[m]
    if search_after is not None:
        cs, cd = search_after
        m = (r4 < cs) | ((r4 == cs) & (uniq > cd))
        uniq, r4 = uniq[m], r4[m]
    top = np.lexsort((uniq, -r4))[:k]  # rounded score desc, doc_id asc
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def _allowed_docs(reader, filter_query: str, doc_range):
    """Matched doc set of a filter-only noise query (the engine's own
    filter machinery: postings, zone maps, tombstones)."""
    from ..query.engine import CompiledQuery
    from ..query.noise_parser import parse_query

    q = parse_query(filter_query)
    if q.order or q.limit is not None:
        raise ValueError("bm25 filter_query must be filter-only")
    return CompiledQuery(reader, q.filter, doc_range=doc_range).evaluate().docs


def _fold_scores(term_parts, n_docs, avgdl, k1, b, tomb):
    """Sum per-term BM25 contributions into per-doc 4dp scores.
    ``term_parts`` = [(docs, tfs, lens, global_df)] in term order.
    Returns (uniq_docs, rounded_scores, per-doc matched-term counts)."""
    all_docs, all_scores = [], []
    for docs_t, tfs, lens, df in term_parts:
        if not len(docs_t):
            continue
        idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf = np.asarray(tfs, np.float64)
        dl = np.asarray(lens, np.float64)
        all_docs.append(np.asarray(docs_t, np.int64))
        all_scores.append(idf * tf * (k1 + 1.0)
                          / (tf + k1 * (1.0 - b + b * dl / avgdl)))
    if not all_docs:
        z = np.zeros(0, np.int64)
        return z, np.zeros(0, np.float64), np.zeros(0, np.int64)
    lo = min(int(d.min()) for d in all_docs)
    hi = max(int(d.max()) for d in all_docs)
    span = hi - lo + 1
    # dense only where it measurably wins: summed entry density >= 1
    # (stopword-heavy folds); sparser folds keep the sort path
    total = sum(d.size for d in all_docs)
    if span <= 4 << 20 and total >= span:
        # dense fast path (range workers / stopword-scale runs): per-term
        # docs are sorted UNIQUE, so fancy-assign += accumulates one add
        # per (doc, term) in the SAME term order the sort path's stable
        # reduceat uses — bit-equal f64 sums, no O(n log n) argsort
        acc = np.zeros(span, np.float64)
        cnt = np.zeros(span, np.int16)
        for d, s in zip(all_docs, all_scores):
            acc[d - lo] += s
            cnt[d - lo] += 1
        idx = np.flatnonzero(cnt)
        uniq = idx + lo
        summed = acc[idx]
        cnts = cnt[idx].astype(np.int64)
    else:
        docs = np.concatenate(all_docs)
        scores = np.concatenate(all_scores)
        order = np.argsort(docs, kind="stable")
        docs, scores = docs[order], scores[order]
        uniq, starts = np.unique(docs, return_index=True)
        summed = np.add.reduceat(scores, starts)
        cnts = np.diff(np.append(starts, docs.size))
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, summed, cnts = uniq[live], summed[live], cnts[live]
    return uniq, np.round(summed, 4), cnts


# ------------------------------------------------------- block-max WAND

# prune threshold slack: 4dp rounding half-step (5e-5) + f64 guard — a doc
# ties into the final top-k only if round(score,4) >= kth rounded score,
# i.e. score >= kth - 5e-5; bounds are f64 upper bounds of f64 scores
_SAFETY = 5.0005e-5


def _bm25_wand(reader, fid: int, stemmed: list[str], k: int,
               k1: float, b: float, n_docs: float, avgdl: float, *,
               dfs: list[float] | None = None,
               allowed=None,
               doc_range: tuple[int, int] | None = None,
               min_match: int = 1,
               search_after: tuple[float, int] | None = None,
               stats_out: dict | None = None):
    """Block-max-pruned candidate set ``(docs, rounded_scores)`` provably
    containing the global top-k under (score desc, doc asc), or ``None``
    when any block predates the (max_tf, min_len) skip metadata (the
    caller falls back to exhaustive scoring).  ``dfs`` must be the
    CORPUS-wide doc frequencies when ``doc_range`` narrows the blocks
    (distributed phase-2); with ``dfs=None`` they are taken from the
    block metadata (Σ cnt — no payload read)."""
    infos = []  # (blocks, min_doc array) per term
    for t in stemmed:
        blocks = reader.term_blocks(fid, t, doc_range=doc_range)
        if any(bl.max_tf <= 0 or bl.min_len <= 0 for bl in blocks):
            return None
        infos.append((blocks, np.array([bl.min_doc for bl in blocks],
                                       dtype=np.int64)))
    if dfs is None:
        if doc_range is not None:
            raise ValueError("doc_range requires corpus-wide dfs")
        dfs = [float(sum(bl.cnt for bl in blocks)) for blocks, _ in infos]
    nt = len(stemmed)
    idfs = [math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)) if df > 0
            else 0.0 for df in dfs]

    # ---- elementary intervals at the union of block boundaries
    pts: set[int] = set()
    for blocks, _ in infos:
        for bl in blocks:
            pts.add(bl.min_doc)
            pts.add(bl.max_doc + 1)
    if not pts:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    if doc_range is not None:
        lo_r, hi_r = doc_range
        pts = {min(max(p, lo_r), hi_r) for p in pts} | {lo_r, hi_r}
    spts = sorted(pts)
    starts = np.asarray(spts[:-1], np.int64)
    ends = np.asarray(spts[1:], np.int64)
    nz = starts < ends
    starts, ends = starts[nz], ends[nz]
    if not starts.size:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)

    bound = np.zeros(starts.size, np.float64)
    ivl_cnt = np.zeros(starts.size, np.int64)  # posting-volume estimate
    cov = np.zeros((nt, starts.size), dtype=bool)
    for ti, (blocks, _) in enumerate(infos):
        idf = idfs[ti]
        for bl in blocks:
            s = int(np.searchsorted(starts, bl.min_doc, side="left"))
            e = int(np.searchsorted(starts, bl.max_doc, side="right"))
            tb = (idf * (k1 + 1.0) * bl.max_tf
                  / (bl.max_tf + k1 * (1.0 - b + b * bl.min_len / avgdl)))
            bound[s:e] += tb
            ivl_cnt[s:e] += bl.cnt
            cov[ti, s:e] = True
    if min_match > 1:
        # a doc's matched terms are a subset of its interval's covering
        # terms, so coverage-count < m means no doc there can reach m
        bound = np.where(cov.sum(axis=0) >= min_match, bound, -1.0)

    # Intervals are scored in descending-bound order, but in GEOMETRIC
    # CHUNKS (first ~4k-doc-volume worth, then 4x per round): each chunk
    # is one vectorized fold, so a query whose bounds are too flat to
    # prune costs ~the exhaustive fold plus a couple of extra passes,
    # while a skewed query stops after the first small chunk.  Within a
    # doc, every term contribution lands in the doc's single covering
    # interval, so per-chunk folds see complete docs — scores are
    # bit-identical to the exhaustive path.
    order = np.argsort(-bound, kind="stable")
    cand_d: list[np.ndarray] = []
    cand_s: list[np.ndarray] = []
    topk = np.zeros(0, np.float64)
    n_scored = 0
    n_chunks = 0
    target = max(4 * k, 256)
    pos = 0
    while pos < order.size:
        oi0 = int(order[pos])
        if bound[oi0] < 0.0:
            break  # and-mode: every remaining interval misses a term
        if topk.size >= k and bound[oi0] < topk[-1] - _SAFETY:
            break  # every remaining interval is bounded lower
        chunk: list[int] = []
        cum = 0
        while pos < order.size and cum < target:
            oi = int(order[pos])
            if bound[oi] < 0.0:
                break
            if topk.size >= k and bound[oi] < topk[-1] - _SAFETY:
                break
            chunk.append(oi)
            cum += int(ivl_cnt[oi])
            pos += 1
        if not chunk:
            break
        target *= 4
        n_chunks += 1
        n_scored += len(chunk)
        parts = []
        for ti, (blocks, mins) in enumerate(infos):
            d_p, t_p, l_p = [], [], []
            for oi in chunk:
                if not cov[ti, oi]:
                    continue
                lo, hi = int(starts[oi]), int(ends[oi])
                bl = blocks[int(np.searchsorted(mins, lo,
                                                side="right")) - 1]
                docs, tfs, lens = bl.decode()
                s = int(np.searchsorted(docs, lo, side="left"))
                e = int(np.searchsorted(docs, hi, side="left"))
                if e > s:
                    d_p.append(docs[s:e])
                    t_p.append(tfs[s:e])
                    l_p.append(lens[s:e])
            if d_p:
                parts.append((np.concatenate(d_p), np.concatenate(t_p),
                              np.concatenate(l_p), dfs[ti]))
        if not parts:
            continue
        uniq, r4, cnts = _fold_scores(parts, n_docs, avgdl, k1, b,
                                      reader.tombstones)
        if min_match > 1:
            m = cnts >= min_match
            uniq, r4 = uniq[m], r4[m]
        if allowed is not None:
            m = np.isin(uniq, allowed)
            uniq, r4 = uniq[m], r4[m]
        if search_after is not None and uniq.size:
            # pagination cursor: keep docs strictly after (score, id) in
            # (rounded score desc, id asc) order.  The exact == compare
            # is sound: the cursor IS a previous page's rounded score.
            cs, cd = search_after
            m = (r4 < cs) | ((r4 == cs) & (uniq > cd))
            uniq, r4 = uniq[m], r4[m]
        if not uniq.size:
            continue
        cand_d.append(uniq)
        cand_s.append(r4)
        merged = np.concatenate([topk, r4])
        merged.sort()
        topk = merged[::-1][:k]
    if stats_out is not None:
        stats_out.update(
            blocks_total=sum(len(blocks) for blocks, _ in infos),
            blocks_decoded=sum(1 for blocks, _ in infos
                               for bl in blocks if bl._decoded is not None),
            intervals_total=int(starts.size),
            intervals_scored=n_scored,
            chunks=n_chunks,
        )
    if not cand_d:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    return np.concatenate(cand_d), np.concatenate(cand_s)


def bm25_fields_topk(sf_dir: str,
                     terms: tuple[str, ...] = ("merge", "src3", "en"),
                     weights: tuple[tuple[str, float], ...] = (
                         ("text", 1.0), ("source", 0.7), ("lang", 0.3)),
                     k: int = 20, k1: float = 1.2, b: float = 0.75, *,
                     index_dir: str | None = None) -> pa.Table:
    """Weighted multi-field BM25 (the BM25F-style linear combination of
    per-field Okapi scores): ``score(d) = Σ_f w_f · Σ_t bm25_f(t, d)``
    with per-field df and per-field avgdl (each field's stats-sidecar
    token total / N).  A term can match any field — e.g. "src3" scores
    through the single-token ``source`` field while "merge" scores
    through ``text``.  Combination order is field-major exactly like the
    oracle SQL's ``w_text·s_text + w_source·s_source + ...`` expression
    so the 4dp-rounded f64 sums agree.  Returns (doc_id, score) by
    (rounded score desc, doc_id asc)."""
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
        return _bm25_fields_distributed(index_dir, reader, stemmed,
                                        weights, k, k1, b, n_docs)

    field_d, field_s = [], []
    for field, w in weights:
        fid = reader.field_id.get(field, -1)
        if fid < 0:
            continue
        avgdl = reader.token_total(fid) / n_docs
        parts = []
        for t in stemmed:
            pl = reader.postings(fid, t, need_positions=False)
            if pl.docs.size:
                parts.append((pl.docs, pl.tfs, pl.lens,
                              float(pl.docs.size)))
        if not parts:
            continue
        uniq_f, sums_f = _fold_scores_raw(parts, n_docs, avgdl, k1, b)
        field_d.append(uniq_f)
        field_s.append(w * sums_f)
    if not field_d:
        return _empty_topk()
    docs = np.concatenate(field_d)
    scores = np.concatenate(field_s)
    order = np.argsort(docs, kind="stable")  # stable: field-major sums
    docs, scores = docs[order], scores[order]
    uniq, starts = np.unique(docs, return_index=True)
    summed = np.add.reduceat(scores, starts)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, summed = uniq[live], summed[live]
    r4 = np.round(summed, 4)
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def _fold_scores_raw(term_parts, n_docs, avgdl, k1, b):
    """Per-doc UNROUNDED per-field BM25 sums (the multi-field combiner
    rounds once after the weighted cross-field sum, matching the SQL
    oracle's expression shape).  ``term_parts`` as in ``_fold_scores``;
    tombstones are the caller's job."""
    all_docs, all_scores = [], []
    for docs_t, tfs, lens, df in term_parts:
        idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf = np.asarray(tfs, np.float64)
        dl = np.asarray(lens, np.float64)
        all_docs.append(np.asarray(docs_t, np.int64))
        all_scores.append(idf * tf * (k1 + 1.0)
                          / (tf + k1 * (1.0 - b + b * dl / avgdl)))
    docs = np.concatenate(all_docs)
    scores = np.concatenate(all_scores)
    order = np.argsort(docs, kind="stable")
    docs, scores = docs[order], scores[order]
    uniq, starts = np.unique(docs, return_index=True)
    return uniq, np.add.reduceat(scores, starts)


def bm25_fields_score_range(index_dir: str, weights, stemmed: list[str],
                            dfs: dict, avgdls: dict, n_docs: float,
                            k1: float, b: float, k: int,
                            lo: int, hi: int):
    """Phase-2 worker body for multi-field BM25: fold this range's
    per-field contributions with the GLOBAL per-(field, term) dfs and
    per-field avgdls, return the local top-k (same union-of-local-top-k
    exactness argument as ``bm25_score_range``)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    field_d, field_s = [], []
    for field, w in weights:
        fid = reader.field_id.get(field, -1)
        if fid < 0:
            continue
        parts = []
        for t in stemmed:
            df = dfs.get((field, t), 0.0)
            if not df:
                continue
            pl = reader.postings(fid, t, need_positions=False,
                                 doc_range=(lo, hi))
            m = (pl.docs >= lo) & (pl.docs < hi)  # block-granular read
            if m.any():
                parts.append((pl.docs[m], pl.tfs[m], pl.lens[m], df))
        if not parts:
            continue
        uniq_f, sums_f = _fold_scores_raw(parts, n_docs, avgdls[field],
                                          k1, b)
        field_d.append(uniq_f)
        field_s.append(w * sums_f)
    if not field_d:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    docs = np.concatenate(field_d)
    scores = np.concatenate(field_s)
    order = np.argsort(docs, kind="stable")
    docs, scores = docs[order], scores[order]
    uniq, starts = np.unique(docs, return_index=True)
    summed = np.add.reduceat(scores, starts)
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, summed = uniq[live], summed[live]
    r4 = np.round(summed, 4)
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def _bm25_fields_distributed(index_dir: str, reader, stemmed: list[str],
                             weights, k: int, k1: float, b: float,
                             n_docs: float) -> pa.Table:
    """Two-phase range fan-out for multi-field BM25: per-(field, term)
    df partials per range, then per-range weighted scoring with local
    top-k.  avgdls come off the stats sidecar (one read, not a pass)."""
    from ..query.distributed import pool_batched, worker_pool

    fields = [f for f, _ in weights if f in reader.field_id]
    avgdls = {f: reader.token_total(reader.field_id[f]) / n_docs
              for f in fields}
    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    fr = [(f, lo, hi) for f in fields for (lo, hi) in ranges]
    flat_parts = pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_df_range",
                      (index_dir, f, stemmed, lo, hi)))
        for f, lo, hi in fr])
    dfs = {}
    for f in fields:
        parts = [p for (pf, _l, _h), p in zip(fr, flat_parts) if pf == f]
        for j, t in enumerate(stemmed):
            dfs[(f, t)] = float(sum(p[j] for p in parts))
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_fields_score_range",
                      (index_dir, tuple(weights), stemmed, dfs, avgdls, n_docs,
                       k1, b, k, lo, hi)))
        for (lo, hi) in ranges]), k)


# --------------------------------------------------------- phrase BM25

def _positional_lists(reader, fid: int, stemmed: list[str],
                      doc_range: tuple[int, int] | None = None):
    """Per-word positional postings for a multi-word positional query
    (one PostingList per word of ``stemmed``, repeats shared), or
    ``None`` when some word never occurs.  Implements the access-path
    selection documented on :func:`_phrase_occurrences`: rarest word
    read in full; every other word full / block-pruned
    (``positions_for_docs``) / bulk-masked (``restrict_to``) by how its
    blocks overlap the candidate doc set."""
    distinct = list(dict.fromkeys(stemmed))
    est: dict[str, tuple[int, list]] = {}
    for t in distinct:
        blocks = reader.term_blocks(fid, t, doc_range)
        if not blocks:
            return None
        est[t] = (sum(bl.cnt for bl in blocks), blocks)
    rare = min(distinct, key=lambda t: est[t][0])
    rare_pl = reader.postings(fid, rare, need_positions=True,
                              doc_range=doc_range)
    if not rare_pl.docs.size:
        return None
    cand = rare_pl.docs
    if doc_range is not None:
        lo, hi = doc_range
        cand = cand[(cand >= lo) & (cand < hi)]
        if not cand.size:
            return None
    by_term = {rare: rare_pl}
    for t in distinct:
        if t == rare:
            continue
        df_est, blocks = est[t]
        if cand.size * 4 > df_est:
            by_term[t] = reader.postings(fid, t, need_positions=True,
                                         doc_range=doc_range)
            continue
        mins = np.array([bl.min_doc for bl in blocks], np.int64)
        maxs = np.array([bl.max_doc for bl in blocks], np.int64)
        idx = np.searchsorted(cand, mins)
        ok = idx < cand.size
        n_hit = int((cand[np.minimum(idx, cand.size - 1)][ok]
                     <= maxs[ok]).sum())
        if n_hit * 2 < len(blocks):
            by_term[t] = reader.positions_for_docs(fid, t, cand,
                                                   doc_range)
        else:
            by_term[t] = reader.postings(
                fid, t, need_positions=True,
                doc_range=doc_range).restrict_to(cand)
    pls = [by_term[t] for t in stemmed]
    if any(pl.docs.size == 0 for pl in pls):
        return None
    return pls


def _phrase_occurrences(reader, fid: int, stemmed: list[str],
                        doc_range: tuple[int, int] | None = None):
    """(uniq_docs, tf, dl) of exact-phrase matches, doc-sorted; ``None``
    when the phrase never occurs.  tf counts are NOT tombstone-filtered
    (callers score first, then drop tombstoned docs — keeping df
    identical between the in-process and per-range paths).

    Occurrence detection is one vectorized set intersection over the
    positional postings: word i contributes keys (doc, pos - i); a phrase
    occurrence exists exactly where all ``len(stemmed)`` shifted sets
    share a key (each shift contributes a key at most once, so a key
    group of size n means all n words aligned — repeated words included,
    their shifts differ).  No per-doc Python loop.  ``doc_range`` pushes
    block bounds into the posting reads and masks exactly (the pushdown
    is block-granular; an unmasked boundary doc would double-count df
    across ranges).

    Access path: block METADATA alone (Σ cnt per term — no payload
    read) picks the rarest word; its positional postings are read in
    full (it is the cheap one) and its doc set becomes the candidate
    superset — a superset of the true phrase docs is always sound
    because the intersection kernel drops any doc missing a full n-way
    aligned key group.  Every OTHER word then chooses per-term: plain
    full read when candidates cover most of its list (two stopwords —
    restriction can't prune anything); block-pruned positional fetch
    when few of its blocks contain a candidate
    (``reader.positions_for_docs`` — a rare word clustered in few
    blocks never decodes a stopword partner's corpus-wide positions);
    otherwise the bulk positional read masked to candidates
    (``PostingList.restrict_to`` — candidates scattered across every
    block can't prune IO but still shrink the kernel's input from the
    stopword's full list to the candidate rows).  All paths feed the
    identical kernel, so results are bit-identical."""
    pls = _positional_lists(reader, fid, stemmed, doc_range)
    if pls is None:
        return None
    n = len(stemmed)
    parts_d, parts_p = [], []
    for i, pl in enumerate(pls):
        parts_d.append(np.repeat(pl.docs, pl.tfs))
        parts_p.append(pl.pos_concat.astype(np.int64) - i)
    D = np.concatenate(parts_d)
    P = np.concatenate(parts_p)
    order = np.lexsort((P, D))
    D, P = D[order], P[order]
    new = np.empty(D.size, dtype=bool)
    new[0] = True
    new[1:] = (D[1:] != D[:-1]) | (P[1:] != P[:-1])
    kstarts = np.flatnonzero(new)
    kcounts = np.diff(np.append(kstarts, D.size))
    occ = kcounts == n
    occ_docs = D[kstarts[occ]]  # one row per phrase occurrence, doc-sorted
    if doc_range is not None and occ_docs.size:
        lo, hi = doc_range
        occ_docs = occ_docs[(occ_docs >= lo) & (occ_docs < hi)]
    if not occ_docs.size:
        return None
    uniq, u_starts = np.unique(occ_docs, return_index=True)
    tf = np.diff(np.append(u_starts, occ_docs.size)).astype(np.float64)
    dl = pls[0].lens[np.searchsorted(pls[0].docs, uniq)].astype(np.float64)
    return uniq, tf, dl


def _phrase_score(uniq, tf, dl, df: float, n_docs: float, avgdl: float,
                  k1: float, b: float, tomb):
    """Score phrase matches with the shared BM25 kernel, round to 4dp,
    drop tombstoned docs.  Returns (docs, r4)."""
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    score = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    r4 = np.round(score, 4)
    if tomb is not None and tomb.size:
        live = ~np.isin(uniq, tomb)
        uniq, r4 = uniq[live], r4[live]
    return uniq, r4


def bm25_phrase_topk(sf_dir: str, phrase: tuple[str, ...] = ("row", "scan"),
                     k: int = 20, k1: float = 1.2, b: float = 0.75,
                     field: str = "text", *,
                     index_dir: str | None = None) -> pa.Table:
    """BM25 top-``k`` where the "term" is an exact phrase: tf = number of
    phrase occurrences in the doc, df = number of docs containing the
    phrase at least once (the north rule reduces the reference query
    suite to term AND phrase BM25 queries).  Large indexes (``index_dir``
    with >= 5M docs) fan out per doc range like ``bm25_topk`` — the
    positional decode of a hot word's postings happens inside the range
    workers, never corpus-wide on the driver."""
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
    stemmed = [_stem_one(w) for w in phrase]

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _bm25_phrase_distributed(index_dir, reader, stemmed, field,
                                        k, k1, b, n_docs, avgdl)

    res = _phrase_occurrences(reader, fid, stemmed)
    if res is None:
        return _empty_topk()
    uniq, tf, dl = res
    uniq, r4 = _phrase_score(uniq, tf, dl, float(uniq.size), n_docs,
                             avgdl, k1, b, reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


DEFAULT_MSEARCH = (("merge", "scan"), ("row", "column"), ("fast", "batch"))


def bm25_msearch(sf_dir: str, queries=DEFAULT_MSEARCH, k: int = 10,
                 k1: float = 1.2, b: float = 0.75, field: str = "text", *,
                 index_dir: str | None = None,
                 replica_group: int | None = None) -> pa.Table:
    """Multi-search (cf. Elasticsearch ``_msearch``): N term-bag BM25
    queries answered in ONE request.  Per query the semantics are
    exactly :func:`bm25_topk`; the batching is the scale win — above
    5M docs the N queries share one two-phase pool round-trip per doc
    range (phase 1 returns every query's df partials in one message,
    phase 2 scores every query against the range's already-hot cached
    reader), so fan-out latency is paid once, not N times.  Returns
    (query_id, doc_id, score) ordered (query_id, rounded score desc,
    doc_id asc); query_id = position in ``queries``."""
    from ..query.engine import _stem_one
    from ..pipelines import documents_index

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    qlists = [list(dict.fromkeys(_stem_one(t) for t in q))
              for q in queries]

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        n_docs = float(reader.num_docs)
        fid = reader.field_id[field]
        avgdl = reader.token_total(fid) / n_docs
        per_query = _msearch_distributed(index_dir, reader, qlists,
                                         field, k, k1, b, n_docs, avgdl,
                                         replica_group)
    else:
        per_query = [bm25_topk(sf_dir, tuple(q), k=k, k1=k1, b=b,
                               field=field, index_dir=index_dir)
                     for q in queries]
    out_q, out_d, out_s = [], [], []
    for qid, t in enumerate(per_query):
        out_q.extend([qid] * t.num_rows)
        out_d.extend(t.column("doc_id").to_pylist())
        out_s.extend(t.column("score").to_pylist())
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64()),
                     "score": pa.array(out_s, pa.float64())})


def msearch_df_range(index_dir: str, field: str, qlists, lo: int,
                     hi: int) -> list[list[int]]:
    """Phase-1 worker body: df partials for EVERY query of the batch in
    one call (one pool message per range for the whole msearch)."""
    return [bm25_df_range(index_dir, field, q, lo, hi) for q in qlists]


def msearch_score_range(index_dir: str, field: str, qlists, dfs_list,
                        n_docs: float, avgdl: float, k1: float, b: float,
                        k: int, lo: int, hi: int):
    """Phase-2 worker body: every query's local top-k for this range in
    one call — the cached reader's postings stay hot across the batch."""
    return [bm25_score_range(index_dir, field, q, dfs, n_docs, avgdl,
                             k1, b, k, lo, hi)
            for q, dfs in zip(qlists, dfs_list)]


def _msearch_distributed(index_dir: str, reader, qlists, field: str,
                         k: int, k1: float, b: float, n_docs: float,
                         avgdl: float, replica_group: int | None = None):
    """One two-phase fan-out for the whole query batch; per-query merge
    on the driver (k rows per query per range).  With ``replica_group``
    set (the serving path), the fan-out width is pinned to
    ``serve_partitions()`` and the round runs on that replica group's
    slice of the pool — per-query cost stays constant as the cluster
    grows, and disjoint groups serve rounds concurrently (see
    query/distributed.replica_slice)."""
    from ..query.distributed import (pool_batched, replica_slice,
                                     serve_partitions, worker_pool)

    pool = worker_pool()
    n = None
    if replica_group is not None:
        n = max(1, min(serve_partitions(), len(pool),
                       reader.num_docs // 10_000 + 1))
        pool = replica_slice(pool, n, replica_group)
    ranges = doc_ranges(reader.num_docs, n)
    df_parts = pool_batched(pool, [
        ("ops_call", ("bm25", "msearch_df_range",
                      (index_dir, field, qlists, lo, hi)))
        for (lo, hi) in ranges])
    dfs_list = [[float(sum(p[qi][j] for p in df_parts))
                 for j in range(len(q))]
                for qi, q in enumerate(qlists)]
    parts = pool_batched(pool, [
        ("ops_call", ("bm25", "msearch_score_range",
                      (index_dir, field, qlists, dfs_list, n_docs, avgdl, k1,
                       b, k, lo, hi)))
        for (lo, hi) in ranges])
    return [_merge_topk([p[qi] for p in parts], k)
            for qi in range(len(qlists))]


def _spannear_occurrences(reader, fid: int, stemmed: list[str], slop: int,
                          doc_range: tuple[int, int] | None = None):
    """(uniq_docs, tf, dl) of ordered span-near matches — the words in
    order with at most ``slop`` intervening tokens between each adjacent
    pair (Lucene interval/SpanNear ``maxgaps`` semantics; ``slop == 0``
    degenerates to the exact phrase).  tf = number of distinct START
    positions from which a valid chain exists.

    The kernel is a right-to-left existence DP over composite
    ``doc << 32 | pos`` keys: a position of word i is GOOD iff some good
    position of word i+1 lies in ``(pos, pos + 1 + slop]`` — one sorted
    ``searchsorted`` pair per word, no per-doc Python.  The key range
    never crosses a doc boundary (positions are far below 2^32), so
    same-doc is implied by the key interval.  Greedy adjacency is NOT
    sound here (an earlier choice of word i can strand word i+1), which
    is why the DP runs backward over full good-sets instead."""
    pls = _positional_lists(reader, fid, stemmed, doc_range)
    if pls is None:
        return None
    keys = []
    for pl in pls:
        k = (np.repeat(pl.docs, pl.tfs).astype(np.int64) << 32) \
            | pl.pos_concat.astype(np.int64)
        keys.append(np.sort(k))
    good = keys[-1]
    for i in range(len(keys) - 2, -1, -1):
        if not good.size:
            return None
        ki = keys[i]
        lo = np.searchsorted(good, ki, "right")
        hi = np.searchsorted(good, ki + (slop + 1), "right")
        good = ki[lo < hi]
    if not good.size:
        return None
    start_docs = (good >> 32).astype(np.int64)
    if doc_range is not None:
        rlo, rhi = doc_range
        start_docs = start_docs[(start_docs >= rlo) & (start_docs < rhi)]
        if not start_docs.size:
            return None
    uniq, u_starts = np.unique(start_docs, return_index=True)
    tf = np.diff(np.append(u_starts, start_docs.size)).astype(np.float64)
    dl = pls[0].lens[np.searchsorted(pls[0].docs, uniq)].astype(np.float64)
    return uniq, tf, dl


def bm25_spannear_topk(sf_dir: str, phrase: tuple[str, ...] = ("row", "scan"),
                       slop: int = 2, k: int = 20, k1: float = 1.2,
                       b: float = 0.75, field: str = "text", *,
                       index_dir: str | None = None) -> pa.Table:
    """BM25 top-``k`` for an ordered span-near "term": the words of
    ``phrase`` in order with <= ``slop`` extra tokens between adjacent
    words; tf = valid start positions, df = docs with >= 1.  Same Okapi
    kernel, pruned positional access paths and >= 5M-doc range fan-out
    as :func:`bm25_phrase_topk` (the occurrence kernel is the only
    difference — see :func:`_spannear_occurrences`)."""
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
    stemmed = [_stem_one(w) for w in phrase]

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _bm25_spannear_distributed(index_dir, reader, stemmed, slop,
                                          field, k, k1, b, n_docs, avgdl)

    res = _spannear_occurrences(reader, fid, stemmed, slop)
    if res is None:
        return _empty_topk()
    uniq, tf, dl = res
    uniq, r4 = _phrase_score(uniq, tf, dl, float(uniq.size), n_docs,
                             avgdl, k1, b, reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def spannear_df_range(index_dir: str, field: str, stemmed: list[str],
                      slop: int, lo: int, hi: int) -> int:
    """Phase-1 range-worker body (an ``ops_call`` on the pool): span-near
    df in [lo, hi); occurrences memoized on the cached reader for
    phase 2, keyed like the phrase memo plus slop."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    memo = getattr(reader, "_phrase_memo", None)
    if memo is None:
        memo = reader._phrase_memo = {}
    key = (fid, tuple(stemmed), "spannear", slop, lo, hi)
    if key not in memo:
        if len(memo) > 64:
            memo.clear()
        memo[key] = _spannear_occurrences(reader, fid, stemmed, slop,
                                          (lo, hi))
    res = memo[key]
    return 0 if res is None else int(res[0].size)


def spannear_score_range(index_dir: str, field: str, stemmed: list[str],
                         slop: int, df: float, n_docs: float, avgdl: float,
                         k1: float, b: float, k: int, lo: int, hi: int):
    """Phase-2 range-worker body: score this range's span-near matches
    with the GLOBAL df, local top-k out (same exactness argument as
    bm25_phrase_score_range)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    memo = getattr(reader, "_phrase_memo", None) or {}
    res = memo.get((fid, tuple(stemmed), "spannear", slop, lo, hi))
    if res is None:
        res = _spannear_occurrences(reader, fid, stemmed, slop, (lo, hi))
    if res is None:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    uniq, tf, dl = res
    uniq, r4 = _phrase_score(uniq, tf, dl, df, n_docs, avgdl, k1, b,
                             reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def _bm25_spannear_distributed(index_dir: str, reader, stemmed: list[str],
                               slop: int, field: str, k: int, k1: float,
                               b: float, n_docs: float,
                               avgdl: float) -> pa.Table:
    """Two-phase range fan-out for span-near BM25 (mirrors
    ``_bm25_phrase_distributed``): both phases are ``ops_call`` bodies
    of this module."""
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    df = float(sum(pool_batched(pool, [
        ("ops_call", ("bm25", "spannear_df_range",
                      (index_dir, field, stemmed, slop, lo, hi)))
        for (lo, hi) in ranges])))
    if not df:
        return _empty_topk()
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25", "spannear_score_range",
                      (index_dir, field, stemmed, slop, df, n_docs, avgdl, k1,
                       b, k, lo, hi)))
        for (lo, hi) in ranges]), k)


# --------------------------------------------------- distributed fan-out

def bm25_df_range(index_dir: str, field: str, stemmed: list[str],
                  lo: int, hi: int) -> list[int]:
    """Phase-1 worker body: per-range doc frequency per term.  With BM25
    block bounds present this is pure skip metadata (Σ block cnt, masked
    to the range boundary blocks' decoded docs only when a block straddles
    the range edge); pre-bounds indexes read+decode postings as before."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    out = []
    for t in stemmed:
        blocks = reader.term_blocks(fid, t, doc_range=(lo, hi))
        if blocks and all(bl.max_tf > 0 for bl in blocks):
            n = 0
            for bl in blocks:
                if bl.min_doc >= lo and bl.max_doc < hi:
                    n += bl.cnt  # interior block: metadata only
                else:
                    d = bl.decode()[0]  # range-edge block: exact mask
                    n += int(((d >= lo) & (d < hi)).sum())
            out.append(n)
            continue
        pl = reader.postings(fid, t, need_positions=False,
                             doc_range=(lo, hi))
        if pl is None:
            out.append(0)
            continue
        # the pushdown is block-granular (may return boundary docs
        # outside [lo, hi), or the cached full list) — mask exactly
        d = pl.docs
        out.append(int(((d >= lo) & (d < hi)).sum()))
    return out


def bm25_score_range(index_dir: str, field: str, stemmed: list[str],
                     dfs: list[float], n_docs: float, avgdl: float,
                     k1: float, b: float, k: int, lo: int, hi: int,
                     filter_query: str | None = None, min_match: int = 1,
                     search_after: tuple[float, int] | None = None):
    """Phase-2 worker body: score one doc range, return its local top-k
    by (rounded score desc, doc_id asc) — a doc outside its range's
    top-k is beaten by >= k docs of that range alone, so the union of
    local top-ks contains the global top-k exactly.  Uses block-max WAND
    within the range when the segment format carries the bounds."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    allowed = (_allowed_docs(reader, filter_query, (lo, hi))
               if filter_query is not None else None)
    res = _bm25_wand(reader, fid, stemmed, k, k1, b, n_docs, avgdl,
                     dfs=dfs, allowed=allowed, doc_range=(lo, hi),
                     min_match=min_match, search_after=search_after)
    if res is not None:
        uniq, r4 = res
    else:
        parts = []
        for t, df in zip(stemmed, dfs):
            pl = reader.postings(fid, t, need_positions=False,
                                 doc_range=(lo, hi))
            if pl is None or not pl.docs.size or not df:
                continue
            m = (pl.docs >= lo) & (pl.docs < hi)  # block-granular pushdown
            if m.any():
                parts.append((pl.docs[m], pl.tfs[m], pl.lens[m], df))
        uniq, r4, cnts = _fold_scores(parts, n_docs, avgdl, k1, b,
                                      reader.tombstones)
        if min_match > 1:
            m = cnts >= min_match
            uniq, r4 = uniq[m], r4[m]
        if allowed is not None:
            m = np.isin(uniq, allowed)
            uniq, r4 = uniq[m], r4[m]
        if search_after is not None:
            cs, cd = search_after
            m = (r4 < cs) | ((r4 == cs) & (uniq > cd))
            uniq, r4 = uniq[m], r4[m]
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def bm25_phrase_df_range(index_dir: str, field: str, stemmed: list[str],
                         lo: int, hi: int) -> int:
    """Phase-1 worker body: number of docs in [lo, hi) containing the
    exact phrase.  The (uniq, tf, dl) arrays are memoized ON the cached
    reader (so their validity tracks the index version exactly like the
    posting caches) for phase 2 to reuse — the positional set
    intersection runs once per (phrase, range), not twice."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    memo = getattr(reader, "_phrase_memo", None)
    if memo is None:
        memo = reader._phrase_memo = {}
    key = (fid, tuple(stemmed), lo, hi)
    if key not in memo:
        if len(memo) > 64:
            memo.clear()
        memo[key] = _phrase_occurrences(reader, fid, stemmed, (lo, hi))
    res = memo[key]
    return 0 if res is None else int(res[0].size)


def bm25_phrase_score_range(index_dir: str, field: str,
                            stemmed: list[str], df: float, n_docs: float,
                            avgdl: float, k1: float, b: float, k: int,
                            lo: int, hi: int):
    """Phase-2 worker body: score this range's phrase matches with the
    GLOBAL df, return the local top-k by (rounded score desc, doc_id
    asc) — the union of local top-ks contains the global top-k exactly
    (per-doc scoring is independent)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    memo = getattr(reader, "_phrase_memo", None) or {}
    res = memo.get((fid, tuple(stemmed), lo, hi))
    if res is None:  # actor restarted between phases: recompute
        res = _phrase_occurrences(reader, fid, stemmed, (lo, hi))
    if res is None:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    uniq, tf, dl = res
    uniq, r4 = _phrase_score(uniq, tf, dl, df, n_docs, avgdl, k1, b,
                             reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def _bm25_phrase_distributed(index_dir: str, reader, stemmed: list[str],
                             field: str, k: int, k1: float, b: float,
                             n_docs: float, avgdl: float) -> pa.Table:
    """Two-phase range fan-out for phrase BM25 (mirrors
    ``_bm25_distributed``): per-range phrase df partials sum to the
    global df, then each range scores its own matches and returns a
    local top-k.  The hot word's positional postings are decoded inside
    the range workers (block-bound pushdown), never corpus-wide on the
    driver."""
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    df = float(sum(pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_phrase_df_range",
                      (index_dir, field, stemmed, lo, hi)))
        for (lo, hi) in ranges])))
    if not df:
        return _empty_topk()
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_phrase_score_range",
                      (index_dir, field, stemmed, df, n_docs, avgdl, k1, b, k,
                       lo, hi)))
        for (lo, hi) in ranges]), k)


def _bm25_distributed(index_dir: str, reader, stemmed: list[str],
                      field: str, k: int, k1: float, b: float,
                      n_docs: float, avgdl: float,
                      filter_query: str | None = None,
                      min_match: int = 1,
                      search_after: tuple[float, int] | None = None
                      ) -> pa.Table:
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    # term dfs are static per index version: cache them on the driver's
    # version-keyed cached reader, so WARM repeated queries (and paging
    # via search_after) skip the whole phase-1 fan-out round
    cache = getattr(reader, "_df_cache", None)
    if cache is None:
        cache = reader._df_cache = {}
    missing = [t for t in stemmed if (field, t) not in cache]
    fresh: dict = {}
    if missing:
        df_parts = pool_batched(pool, [
            ("ops_call", ("bm25", "bm25_df_range",
                          (index_dir, field, missing, lo, hi)))
            for (lo, hi) in ranges])
        for j, t in enumerate(missing):
            fresh[t] = float(sum(p[j] for p in df_parts))
            if len(cache) < 65536:
                cache[(field, t)] = fresh[t]
    dfs = [cache.get((field, t), fresh.get(t, 0.0)) for t in stemmed]
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_score_range",
                      (index_dir, field, stemmed, dfs, n_docs, avgdl, k1, b, k,
                       lo, hi, filter_query, min_match, search_after)))
        for (lo, hi) in ranges]), k)


def _span_first_occ(reader, fid: int, stem: str, end: int,
                    doc_range: tuple[int, int] | None = None):
    """(uniq_docs, tf, dl) of term occurrences at 0-based kept-token
    position < ``end`` — Lucene SpanFirstQuery matches.  One positional
    posting read + a vectorized mask; no per-doc work."""
    pl = reader.postings(fid, stem, need_positions=True,
                         doc_range=doc_range)
    if pl is None or not pl.docs.size:
        return None
    docs_rep = np.repeat(pl.docs, pl.tfs).astype(np.int64)
    m = pl.pos_concat < end
    if doc_range is not None:
        lo, hi = doc_range
        m &= (docs_rep >= lo) & (docs_rep < hi)
    d = docs_rep[m]
    if not d.size:
        return None
    uniq, starts = np.unique(d, return_index=True)
    tf = np.diff(np.append(starts, d.size)).astype(np.float64)
    dl = pl.lens[np.searchsorted(pl.docs, uniq)].astype(np.float64)
    return uniq, tf, dl


def bm25_span_first_topk(sf_dir: str, term: str = "merge",
                         end: int = 10, k: int = 20, k1: float = 1.2,
                         b: float = 0.75, field: str = "text", *,
                         index_dir: str | None = None) -> pa.Table:
    """BM25 top-``k`` for a span-first "term" (cf. Lucene
    ``SpanFirstQuery`` / ES ``span_first``): the term within the first
    ``end`` kept-token positions of the field — "matches near the start
    of the document".  tf = in-window occurrences, df = docs with >= 1
    (the span df, not the term df), same Okapi kernel / 4dp / (score
    desc, id asc) contract as the phrase kernels.  Large indexes fan
    out per doc range like :func:`bm25_phrase_topk` (phase 1 sums
    per-range span dfs, phase 2 scores with the global df)."""
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
    stem = _stem_one(term)

    if index_dir is not None and reader.num_docs >= dist_min_docs():
        return _span_first_distributed(index_dir, reader, stem, end,
                                       field, k, k1, b, n_docs, avgdl)

    res = _span_first_occ(reader, fid, stem, end)
    if res is None:
        return _empty_topk()
    uniq, tf, dl = res
    uniq, r4 = _phrase_score(uniq, tf, dl, float(uniq.size), n_docs,
                             avgdl, k1, b, reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def span_first_df_range(index_dir, field, stem, end, lo, hi) -> int:
    """Phase-1 worker body: span-first df in [lo, hi)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    res = _span_first_occ(reader, fid, stem, end, (lo, hi))
    return 0 if res is None else int(res[0].size)


def span_first_score_range(index_dir, field, stem, end, df, n_docs,
                           avgdl, k1, b, k, lo, hi):
    """Phase-2 worker body: this range's span-first scores under the
    GLOBAL span df, local top-k out."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id.get(field, -1) if isinstance(field, str) else field
    res = _span_first_occ(reader, fid, stem, end, (lo, hi))
    if res is None:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    uniq, tf, dl = res
    uniq, r4 = _phrase_score(uniq, tf, dl, df, n_docs, avgdl, k1, b,
                             reader.tombstones)
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]


def _span_first_distributed(index_dir, reader, stem, end, field, k, k1,
                            b, n_docs, avgdl) -> pa.Table:
    from ..query.distributed import pool_batched, worker_pool

    ranges = doc_ranges(reader.num_docs)
    pool = worker_pool()
    df = float(sum(pool_batched(pool, [
        ("ops_call", ("bm25", "span_first_df_range",
                      (index_dir, field, stem, end, lo, hi)))
        for (lo, hi) in ranges])))
    return _merge_topk(pool_batched(pool, [
        ("ops_call", ("bm25", "span_first_score_range",
                      (index_dir, field, stem, end, df, n_docs, avgdl, k1, b,
                       k, lo, hi)))
        for (lo, hi) in ranges]), k)
