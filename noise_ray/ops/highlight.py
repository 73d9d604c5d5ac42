"""Match highlighting: top-k search hits with the positions of every
term occurrence and a token-window snippet.

The engine indexes word positions per (field, term, doc) for phrase and
proximity evaluation (StemmedWordPosFilter,
/root/reference/src/filters.rs:85-131); this surfaces them as a user
feature the reference never exposed — the standard search-engine
highlight/snippet response.  The pipeline is all index-side: one scored
top-k query, one positions-enabled postings read for the query term,
and one doc-store fetch of the k winning texts (never the corpus).

Positions are indexes into the ANALYZER's kept-token stream (counted
from 0, the reference's word_pos semantics); the snippet joins the
lowercased ``[a-z0-9]+`` surface tokens of the +-ctx window.  On the
synthetic documents corpus the two token streams coincide (closed
alphabetic vocabulary, asserted corpus-wide in
tests/test_score_oracle.py), which is what makes the DuckDB oracle
(ops/score_oracle.term_highlight_sql) exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashing import tokenize_values


def search_highlight(sf_dir: str, term: str = "merge", k: int = 10,
                     ctx: int = 2) -> pa.Table:
    """(doc_id, score, pos, snippet): one row per occurrence of ``term``
    in each of the top-k scored documents, score rounded to 4dp (the
    oracled-score convention), snippet = the +-ctx token window."""
    from ..pipelines import documents_index
    from ..query import run_query
    from ..query.engine import _stem_one

    reader = documents_index(sf_dir)
    # Rank on the 4dp-ROUNDED score with doc_id tiebreak: the engine's
    # f32 kernels order mathematically-equal scores (sqrt(2)/sqrt(20) vs
    # sqrt(1)/sqrt(10)) by rounding noise, which no f64 oracle can
    # reproduce at a tie-straddling cutoff.  Over-fetch to absorb the
    # boundary tie group, then cut deterministically.
    fetch = max(4 * k, k + 32)
    top = run_query(
        reader,
        f'find {{text: ~="{term}"}} order score() desc, .doc_id asc '
        f"return score() limit {fetch} ;")
    doc_ids = top.column("doc_id").to_numpy()
    scores = np.round(top.column("score").to_numpy().astype(np.float64), 4)
    order = np.lexsort((doc_ids, -scores))[:k]
    doc_ids, scores = doc_ids[order], scores[order]

    pl = reader.postings("text", _stem_one(term), need_positions=True)
    idx = np.searchsorted(pl.docs, doc_ids)

    texts = reader.fetch_docs(doc_ids, ["text"]).column("text")
    toks, offs = tokenize_values(texts.combine_chunks())

    out_doc, out_score, out_pos, out_snip = [], [], [], []
    for j, (did, sc) in enumerate(zip(doc_ids, scores)):
        positions = pl.positions_of(int(idx[j]))
        lo, hi = int(offs[j]), int(offs[j + 1])
        dtoks = toks.slice(lo, hi - lo).to_pylist()
        for p in positions.tolist():
            out_doc.append(int(did))
            out_score.append(float(sc))
            out_pos.append(int(p))
            out_snip.append(" ".join(
                dtoks[max(0, p - ctx): p + ctx + 1]))
    return pa.table({
        "doc_id": pa.array(out_doc, pa.int64()),
        "score": pa.array(out_score, pa.float64()),
        "pos": pa.array(out_pos, pa.int64()),
        "snippet": pa.array(out_snip, pa.string()),
    })
