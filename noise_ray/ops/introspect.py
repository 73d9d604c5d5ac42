"""Introspection surfaces: score explanation and index statistics.

- **explain_score** (cf. Elasticsearch ``_explain`` / Lucene
  ``Explanation``): the per-term breakdown of the BM25 top-1 document's
  score for a query — tf, df, idf and the Okapi contribution per
  matching term, everything the engine's kernel actually used.  All
  components are reread from the index artifacts (postings for tf/df/dl,
  stats sidecar for N/avgdl), so the explanation IS an audit of the
  index, not a recomputation from raw text; the DuckDB oracle
  (ops/score_oracle.explain_score_sql) recomputes the same numbers from
  the raw corpus and must agree to 6dp.

- **index_stats** (cf. ``_cat/indices``): per-field document and token
  totals straight off the manifest (`field_k`) and the stats sidecar —
  metadata-sized reads, no posting payloads.  Oracled against raw-text
  recomputation, which makes it a cheap end-to-end invariant: if any
  build stage dropped or duplicated tokens, this surface disagrees.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from .bm25 import bm25_topk


def explain_score(sf_dir: str, terms=("merge", "scan"), k1: float = 1.2,
                  b: float = 0.75, field: str = "text", *,
                  index_dir: str | None = None) -> pa.Table:
    """Per-term score breakdown for the query's BM25 top-1 doc (module
    docstring).  Returns (doc_id, term, tf, df, idf, contrib) for each
    matching query term, ordered by term; idf/contrib rounded to 6dp;
    ``term`` is the surface form passed in (its stem is what the index
    stores)."""
    from ..query.engine import _stem_one
    from ..pipelines import documents_index

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    top = bm25_topk(sf_dir, tuple(terms), k=1, k1=k1, b=b, field=field,
                    index_dir=index_dir)
    if not top.num_rows:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64()),
                         "df": pa.array([], pa.int64()),
                         "idf": pa.array([], pa.float64()),
                         "contrib": pa.array([], pa.float64())})
    doc = int(top.column("doc_id")[0].as_py())
    n_docs = float(reader.num_docs)
    fid = reader.field_id[field]
    avgdl = reader.token_total(fid) / n_docs
    out_t, out_tf, out_df, out_idf, out_c = [], [], [], [], []
    for t in sorted(dict.fromkeys(terms)):
        pl = reader.postings(fid, _stem_one(t), need_positions=False)
        if pl is None or not pl.docs.size:
            continue
        i = int(np.searchsorted(pl.docs, doc))
        if i >= pl.docs.size or int(pl.docs[i]) != doc:
            continue
        tf = float(pl.tfs[i])
        dl = float(pl.lens[i])
        df = float(np.unique(pl.docs).size)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        contrib = (idf * tf * (k1 + 1.0)
                   / (tf + k1 * (1.0 - b + b * dl / avgdl)))
        out_t.append(t)
        out_tf.append(int(tf))
        out_df.append(int(df))
        out_idf.append(round(idf, 6))
        out_c.append(round(contrib, 6))
    return pa.table({"doc_id": pa.array([doc] * len(out_t), pa.int64()),
                     "term": pa.array(out_t, pa.string()),
                     "tf": pa.array(out_tf, pa.int64()),
                     "df": pa.array(out_df, pa.int64()),
                     "idf": pa.array(out_idf, pa.float64()),
                     "contrib": pa.array(out_c, pa.float64())})


def index_stats(sf_dir: str, fields=("text", "lang", "source"), *,
                index_dir: str | None = None) -> pa.Table:
    """(field, n_docs, total_tokens) per indexed field, off manifest +
    stats sidecar (module docstring)."""
    from ..pipelines import documents_index

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        reader = documents_index(sf_dir)
    out_f, out_n, out_tok = [], [], []
    for f in sorted(fields):
        fid = reader.field_id[f]
        out_f.append(f)
        out_n.append(int(reader.num_docs))
        out_tok.append(int(reader.token_total(fid)))
    return pa.table({"field": pa.array(out_f, pa.string()),
                     "n_docs": pa.array(out_n, pa.int64()),
                     "total_tokens": pa.array(out_tok, pa.int64())})


def term_vectors(sf_dir: str, doc_ids=(3, 7, 11), field: str = "text", *,
                 index_dir: str | None = None):
    """Term vectors with term statistics (cf. Elasticsearch
    ``_termvectors`` with ``term_statistics=true``): for each requested
    doc, its distinct terms with in-doc tf, corpus df (docs containing
    the term) and corpus cf (total occurrences).  Returns (doc_id,
    term, tf, df, cf) ordered (doc_id, term).

    ES re-analyzes the stored field, and so does this: doc text comes
    from the docmap (a vectorized partition-local gather), tf from the
    engine's own tokenize+stem analyzer, cf from the stats sidecar (a
    metadata read), df from the per-term posting headers.  Work is
    bounded by Σ requested docs' vocabularies — a per-doc diagnostic
    surface, never a corpus scan, so it needs no fan-out at any index
    size."""
    import numpy as np
    import pyarrow as pa

    from ..analysis.tokenizer import tokenize

    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
    else:
        # the dictionary backs surface naming (stem -> raw token),
        # exactly like significant_terms
        from .termdict import _reader_and_dict

        reader, _ = _reader_and_dict(sf_dir)
    fid = reader.field_id[field]
    ids = np.array(sorted(doc_ids), np.int64)
    texts = (reader.fetch_docs(ids, [field]).column(field)
             .to_pylist())

    # per-doc stem tfs from the engine's own analyzer
    per_doc: list[dict[str, int]] = []
    vocab: set[str] = set()
    for txt in texts:
        tf: dict[str, int] = {}
        for _pos, stem in tokenize(txt):
            tf[stem] = tf.get(stem, 0) + 1
        per_doc.append(tf)
        vocab.update(tf)

    # corpus stats for exactly the touched vocabulary
    tomb = reader.tombstones
    df: dict[str, int] = {}
    cf: dict[str, int] = {}
    for t in sorted(vocab):
        pl = reader.postings(fid, t, need_positions=False)
        if pl is None or not pl.docs.size:
            df[t], cf[t] = 0, 0
            continue
        d = np.unique(pl.docs)
        if tomb is not None and tomb.size:
            d = d[~np.isin(d, tomb)]
        df[t] = int(d.size)
        cf[t] = int(pl.tfs.sum())

    from .aggs import _surface_names_for

    names = _surface_names_for(reader, fid, sorted(vocab))
    rows_d, rows_t, rows_tf, rows_df, rows_cf = [], [], [], [], []
    for did, tf_map in zip(ids.tolist(), per_doc):
        # surface naming BEFORE the per-doc sort: order is on the
        # reported name (the stem itself when no dictionary exists)
        named = sorted((names.get(t, t), t) for t in tf_map)
        for name, t in named:
            rows_d.append(did)
            rows_t.append(name)
            rows_tf.append(tf_map[t])
            rows_df.append(df[t])
            rows_cf.append(cf[t])
    return pa.table({
        "doc_id": pa.array(rows_d, pa.int64()),
        "term": pa.array(rows_t, pa.string()),
        "tf": pa.array(rows_tf, pa.int64()),
        "df": pa.array(rows_df, pa.int64()),
        "cf": pa.array(rows_cf, pa.int64()),
    })
