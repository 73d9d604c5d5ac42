"""Block-max WAND top-k pruning for scored term/OR queries.

The segment writer stores per-block skip metadata (min_doc, max_doc,
max_tf_norm = max sqrt(tf)/sqrt(field_len)); here it prunes `order score()
desc limit k` evaluation: doc space is cut into elementary intervals at the
block boundaries of every query term, each interval gets a score upper
bound

    bound(I) = query_norm · Σ_t idf_t² · max_tf_norm(block_t ⊇ I) · boost_t

(valid because the final score multiplies Σ per-term mean match scores —
each ≤ idf²·max_tf_norm·boost — by matched/num_terms ≤ 1,
/root/reference/src/query.rs:463-477), and intervals are scored
exactly in descending-bound order until the running k-th best exact score
exceeds every remaining bound.  Scores of SURVIVING docs are bit-identical
to the unpruned path: per-doc scoring is independent of other docs, and the
same f32 kernels run over block slices.  Ties at the k-th score are never
pruned (intervals are kept while bound >= threshold), so the downstream
buffered order/limit machinery sees every doc the unpruned path would
surface into the top k.

Pruning only helps (and block payloads are only decoded) for the intervals
that survive; at 10^12-doc scale this is the difference between touching
every posting block of a stopword and touching the few whose bound clears
the threshold.
"""

from __future__ import annotations

import numpy as np

from . import ast
from .engine import F32, CompiledQuery, EvalResult, _stem_one

_SAFETY = 1.0 + 1e-4  # f64 bound vs f32 arithmetic guard


def _collect_terms(node, boost=1.0, out=None):
    """Flatten Term/Boost/Or into scored term leaves; None if anything else
    appears (those shapes fall back to the exhaustive path)."""
    if out is None:
        out = []
    if isinstance(node, ast.Boost):
        return _collect_terms(node.inner, boost * node.factor, out)
    if isinstance(node, ast.Or):
        if _collect_terms(node.left, boost, out) is None:
            return None
        return _collect_terms(node.right, boost, out)
    if isinstance(node, ast.Term):
        out.append((node, boost))
        return out
    return None


def wand_topk(reader, cq: CompiledQuery, q: ast.Query):
    """(docs_asc, scores) for the top-k candidate superset, or None when the
    query shape isn't an OR-of-terms scored top-k."""
    if not (q.limit and q.order and len(q.order) == 1
            and q.order[0].score and q.order[0].desc):
        return None
    leaves = _collect_terms(q.filter)
    if not leaves:
        return None
    k = q.limit

    qn = float(cq.query_norm)
    infos = []  # (slot, blocks, per-block bound Σ-term component)
    for node, _boost in leaves:
        slot = node._slot
        blocks = reader.term_blocks(node.field, _stem_one(node.word))
        idf2b = float(slot.idf) * float(slot.idf) * float(slot.boost)
        infos.append((slot, blocks, idf2b))
    if all(not blocks for _, blocks, _ in infos):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=F32)

    # ---- elementary intervals at block boundaries, summed bounds
    bounds_pts = sorted({b.min_doc for _, bl, _ in infos for b in bl}
                        | {b.max_doc + 1 for _, bl, _ in infos for b in bl})
    starts = np.array(bounds_pts[:-1], dtype=np.int64)
    ends = np.array(bounds_pts[1:], dtype=np.int64)
    ivl_bound = np.zeros(starts.size, dtype=np.float64)
    for _, blocks, idf2b in infos:
        for b in blocks:
            s = np.searchsorted(starts, b.min_doc, side="left")
            e = np.searchsorted(starts, b.max_doc, side="right")
            ivl_bound[s:e] += idf2b * b.max_tf_norm
    ivl_bound *= qn * _SAFETY

    order = np.argsort(-ivl_bound, kind="stable")
    cand_docs: list[np.ndarray] = []
    cand_scores: list[np.ndarray] = []
    topk: np.ndarray = np.zeros(0, dtype=np.float64)

    for oi in order:
        lo, hi = int(starts[oi]), int(ends[oi])
        if topk.size >= k and ivl_bound[oi] < topk[-1]:
            break  # every remaining interval is bounded lower
        docs, scores = _score_interval(cq, infos, lo, hi)
        if docs.size == 0:
            continue
        cand_docs.append(docs)
        cand_scores.append(scores)
        merged = np.concatenate([topk, scores.astype(np.float64)])
        merged.sort()
        topk = merged[::-1][:k]

    if not cand_docs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=F32)
    docs = np.concatenate(cand_docs)
    scores = np.concatenate(cand_scores)
    idx = np.argsort(docs, kind="stable")
    return docs[idx], scores[idx]


def _score_interval(cq, infos, lo, hi):
    """Exact scores for all docs matching any term within [lo, hi): the
    same f32 kernels as the unpruned path over block slices."""
    parts = []  # (docs, slot_ordinal, slot_scores)
    for slot, blocks, _ in infos:
        d_parts, s_parts = [], []
        for b in blocks:
            if b.max_doc < lo or b.min_doc >= hi:
                continue
            docs, tfs, lens = b.decode()
            s = np.searchsorted(docs, lo, side="left")
            e = np.searchsorted(docs, hi, side="left")
            if e <= s:
                continue
            d_parts.append(docs[s:e])
            s_parts.append(cq._term_scores(tfs[s:e], lens[s:e], slot))
        if d_parts:
            parts.append((slot.ordinal, np.concatenate(d_parts),
                          np.concatenate(s_parts)))
    if not parts:
        z = np.zeros(0, dtype=np.int64)
        return z, np.zeros(0, dtype=F32)
    res = None
    for ordinal, d, sc in parts:
        r = EvalResult(d, {ordinal: (sc, np.ones(d.size, dtype=np.int32))})
        res = r if res is None else cq._union(res, r)
    res = cq._drop_dead(res)  # tombstoned docs never surface
    return res.docs, cq.final_scores(res)
