"""Dictionary-expanded search: prefix (wildcard) queries, fuzzy
(edit-distance) queries, and did-you-mean suggestions.

Classic IR surfaces the reference engine lacks (its grammar stops at
exact/stemmed/phrase/range — /root/reference/src/parser.rs:665-1307):
expand the user's pattern against the term DICTIONARY
(build/dictionary.py: raw pre-stem surface forms with df/cf), then run
the expansion as one multi-slot scored OR through the engine's own
TF-IDF kernels — so corpus cost is that of any scored OR query and the
expansion cost is vocabulary-bounded (a pruned dictionary lookup),
never a corpus scan.

Expanded terms are fed to the query parser as RAW tokens (the parser
stems them exactly as the build did), which keeps engine/SQL parity
without assuming stems are Porter2 fixed points.  The top-k cutoff
ranks on the 4dp-rounded score with doc_id tiebreak, same rationale as
ops/related.py: the engine's f32 kernels order mathematically-tied
scores by rounding noise no f64 oracle can reproduce.  DuckDB oracles:
ops/score_oracle.prefix_topk_sql / fuzzy_topk_sql / did_you_mean_sql
(LIKE- and levenshtein()-expanded dynamic-term OR scoring).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..build.dictionary import (build_term_dictionary, fuzzy_terms,
                                prefix_terms)


def _reader_and_dict(sf_dir: str, index_dir: str | None = None):
    """The documents index plus its (lazily built) term dictionary.
    With ``index_dir``, ANY flat index serves: the dictionary builds
    from the index's own docmap partitions (they carry the stored
    source columns), written beside the index — so the whole termdict
    family (prefix / fuzzy / suggest / did-you-mean) runs against
    arbitrary indexes, not just the sf-cached documents one."""
    if index_dir is not None:
        from ..query.distributed import _cached_reader

        reader = _cached_reader(index_dir)
        ddir = os.path.join(index_dir, "dictionary")
        build_term_dictionary([e["path"] for e in reader._docmap], ddir,
                              fields=tuple(reader.fields))
        return reader, ddir
    from ..pipelines import documents_index

    reader = documents_index(sf_dir)
    ddir = os.path.join(reader.index_dir, "dictionary")
    build_term_dictionary([f"{sf_dir}/documents.parquet"], ddir,
                          fields=tuple(reader.fields))
    return reader, ddir


def _scored_or_topk(reader, raw_terms: list[str], k: int) -> pa.Table:
    """One scored OR over the expanded raw terms, reranked on the rounded
    score (fetch a safety margin past k, exactly like ops/related.py)."""
    if not raw_terms:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    from ..query import run_query

    clause = " || ".join(f'{{text: ~="{t}"}}' for t in sorted(set(raw_terms)))
    fetch = max(4 * k, k + 32)
    top = run_query(
        reader,
        f"find {clause} order score() desc, .doc_id asc "
        f"return score() limit {fetch} ;")
    doc_ids = top.column("doc_id").to_numpy()
    scores = np.round(top.column("score").to_numpy().astype(np.float64), 4)
    order = np.lexsort((doc_ids, -scores))[:k]
    return pa.table({
        "doc_id": pa.array(doc_ids[order], pa.int64()),
        "score": pa.array(scores[order], pa.float64()),
    })


def search_prefix(sf_dir: str, prefix: str = "s", k: int = 10,
                  field: str = "text", *,
                  index_dir: str | None = None) -> pa.Table:
    """(doc_id, score): top-k docs under the engine's TF-IDF OR scoring
    of every dictionary term starting with ``prefix`` — the wildcard
    query ``text: ~="<prefix>*"``.  Expansion is a footer-pruned
    dictionary read (build/dictionary.prefix_terms)."""
    reader, ddir = _reader_and_dict(sf_dir, index_dir)
    terms = prefix_terms(ddir, reader.field_id[field], prefix)
    return _scored_or_topk(reader, terms.column("token").to_pylist(), k)


def suggest_complete(sf_dir: str, prefix: str = "s", n: int = 10,
                     field: str = "text", *,
                     index_dir: str | None = None) -> pa.Table:
    """Completion suggester (cf. Elasticsearch ``completion``): the
    top-``n`` raw dictionary tokens starting with ``prefix``, weighted
    by document frequency, (df desc, token asc).  Pure vocabulary-
    bounded dictionary read — footer-pruned by the (field, token)
    parquet statistics, no posting or corpus access at all, which is
    what makes type-ahead viable against a 100 TB corpus: the
    dictionary is metadata-sized and the prefix prunes it further."""
    reader, ddir = _reader_and_dict(sf_dir, index_dir)
    t = prefix_terms(ddir, reader.field_id[field], prefix)
    toks = np.asarray(t.column("token").to_pylist(), dtype=object)
    df = t.column("df").to_numpy()
    top = np.lexsort((toks, -df))[:n]
    return pa.table({
        "token": pa.array(toks[top].tolist(), pa.string()),
        "df": pa.array(df[top], pa.int64()),
    })


def search_fuzzy(sf_dir: str, word: str = "sart", max_dist: int = 1,
                 k: int = 10, field: str = "text", *,
                 index_dir: str | None = None) -> pa.Table:
    """(doc_id, score): top-k docs matching any dictionary term within
    Levenshtein distance ``max_dist`` of ``word`` (fuzzy query
    ``text: ~="<word>"~1`` in Lucene terms), scored as one OR."""
    reader, ddir = _reader_and_dict(sf_dir, index_dir)
    terms = fuzzy_terms(ddir, reader.field_id[field], word, max_dist)
    return _scored_or_topk(reader, terms.column("token").to_pylist(), k)


def search_regex(sf_dir: str, pattern: str = "[a-z]{3}", k: int = 10,
                 field: str = "text", *,
                 index_dir: str | None = None) -> pa.Table:
    """(doc_id, score): top-k docs matching any dictionary term that
    FULLY matches ``pattern`` (Lucene RegexpQuery), scored as one OR.
    RE2 on both sides: pyarrow's match_substring_regex anchored, DuckDB's
    regexp_full_match."""
    from ..build.dictionary import regex_terms

    reader, ddir = _reader_and_dict(sf_dir, index_dir)
    terms = regex_terms(ddir, reader.field_id[field], pattern)
    return _scored_or_topk(reader, terms.column("token").to_pylist(), k)


def did_you_mean(sf_dir: str, word: str = "qery", max_dist: int = 2,
                 k: int = 5, field: str = "text", *,
                 index_dir: str | None = None) -> pa.Table:
    """(token, dist, cf): spell-correction candidates — dictionary terms
    within ``max_dist`` edits of ``word``, ranked closest-first then by
    collection frequency (the standard did-you-mean ranking)."""
    reader, ddir = _reader_and_dict(sf_dir, index_dir)
    t = fuzzy_terms(ddir, reader.field_id[field], word, max_dist)
    toks = t.column("token").to_pylist()
    dist = t.column("dist").to_numpy()
    cf = t.column("cf").to_numpy()
    tok_arr = np.array(toks) if toks else np.array([], dtype=str)
    order = np.lexsort((tok_arr, -cf, dist))[:k]
    return pa.table({
        "token": pa.array([toks[i] for i in order], pa.string()),
        "dist": pa.array(dist[order], pa.int64()),
        "cf": pa.array(cf[order], pa.int64()),
    })


def did_you_mean_phrase(sf_dir: str,
                        words: tuple[str, str] = ("mrge", "scn"),
                        max_dist: int = 1, k: int = 3,
                        max_cand: int = 8, field: str = "text", *,
                        index_dir: str | None = None) -> pa.Table:
    """Phrase suggester (cf. Elasticsearch ``phrase`` suggester): correct
    a whole misspelled 2-word phrase by generating per-word candidates
    (dictionary tokens within ``max_dist`` edits, capped at ``max_cand``
    by (dist, cf desc, token) — the ES candidate-generator cap) and
    re-ranking candidate PAIRS by corpus bigram evidence: (adjacency
    count desc, cf sum desc, phrase asc), all integer-exact.  The
    adjacency count comes from the positional postings (the exact-phrase
    occurrence kernel summed corpus-wide), never a corpus re-scan.
    Returns (phrase, bigram_n, cf_sum) top-``k``."""
    import numpy as np

    from ..analysis.porter2 import stem as _stem
    from ..build.dictionary import fuzzy_terms

    reader, ddir = _reader_and_dict(sf_dir, index_dir)
    fid = reader.field_id[field]

    def cands(word):
        t = fuzzy_terms(ddir, fid, word, max_dist)
        toks = t.column("token").to_pylist()
        dist = t.column("dist").to_numpy()
        cf = t.column("cf").to_numpy()
        arr = np.array(toks) if toks else np.array([], dtype=str)
        order = np.lexsort((arr, -cf, dist))[:max_cand]
        return [(toks[i], int(cf[i])) for i in order]

    c0, c1 = cands(words[0]), cands(words[1])
    mul = np.int64(1) << np.int64(32)

    def keys_of(token, shift):
        pl = reader.postings(fid, _stem(token), need_positions=True)
        if not pl.docs.size:
            return np.zeros(0, np.int64)
        return (np.repeat(pl.docs, pl.tfs) * mul
                + pl.pos_concat.astype(np.int64) - shift)

    k0 = {t: keys_of(t, 0) for t, _ in c0}
    k1 = {t: keys_of(t, 1) for t, _ in c1}
    rows = []
    for t0, cf0 in c0:
        a = k0[t0]
        for t1, cf1 in c1:
            n = int(np.isin(a, k1[t1]).sum()) if a.size else 0
            rows.append((f"{t0} {t1}", n, cf0 + cf1))
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    rows = rows[:k]
    return pa.table({
        "phrase": pa.array([r[0] for r in rows], pa.string()),
        "bigram_n": pa.array([r[1] for r in rows], pa.int64()),
        "cf_sum": pa.array([r[2] for r in rows], pa.int64()),
    })
