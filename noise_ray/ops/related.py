"""More-like-this: related-document retrieval through the index.

The classic IR surface built on the inverted index: take the seed
document's distinct terms, score every other document against the OR
of those terms with the engine's own TF-IDF kernels, and return the
top-k related docs.  All index-side — one doc-store fetch for the
seed, one multi-term scored query (each term's postings read once; the
reference's OrFilter semantics give matched/num_slots weighting,
/root/reference/src/query.rs:463-477) — so corpus cost is that of any
scored OR query regardless of k.

The cutoff ranks on the 4dp-rounded score with doc_id tiebreak, same
rationale as ops/highlight.py: the engine's f32 kernels order
mathematically-tied scores by rounding noise no f64 oracle can
reproduce.  The DuckDB oracle (ops/score_oracle.more_like_this_sql)
recomputes seed terms, per-term idf, and the OR score relationally
with DYNAMIC terms (joins against the seed-term set instead of
inlined per-term columns).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashing import tokenize_values


def more_like_this(sf_dir: str, seed_doc: int = 0, k: int = 10) -> pa.Table:
    """(doc_id, score): the k documents most similar to ``seed_doc``
    under the engine's TF-IDF OR scoring of the seed's distinct terms
    (seed itself excluded), score rounded to 4dp."""
    from ..pipelines import documents_index
    from ..query import run_query

    reader = documents_index(sf_dir)
    seed = reader.fetch_docs(np.array([seed_doc], np.int64), ["text"])
    toks, _ = tokenize_values(seed.column("text").combine_chunks())
    terms = sorted(set(toks.to_pylist()))
    clause = " || ".join(f'{{text: ~="{t}"}}' for t in terms)
    fetch = max(4 * k, k + 32) + 1          # +1: the seed ranks high
    top = run_query(
        reader,
        f"find {clause} order score() desc, .doc_id asc "
        f"return score() limit {fetch} ;")
    doc_ids = top.column("doc_id").to_numpy()
    scores = np.round(top.column("score").to_numpy().astype(np.float64), 4)
    keep = doc_ids != seed_doc
    doc_ids, scores = doc_ids[keep], scores[keep]
    order = np.lexsort((doc_ids, -scores))[:k]
    return pa.table({
        "doc_id": pa.array(doc_ids[order], pa.int64()),
        "score": pa.array(scores[order], pa.float64()),
    })
