"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship full-text pipeline (synthesize transcripts →
build the inverted index → BM25-style top-k query) at sf0.001.
``queries()`` exposes one entry per implemented operator family from
SURVEY.md §2 plus the training-data-pipeline suite; ``oracle_sql()`` gives
the DuckDB-equivalent SQL wherever the operator is SQL-expressible.  The
MinHash/SimHash/language-ID entries are EXACT oracles: the token-hash +
signature arithmetic is replicated in SQL via HUGEINT mod-2**64 math
(noise_ray/ops/oracle_sqlgen.py).  The scored relevance queries
(term/phrase/flagship-OR top-k and the lifecycle entries) are ALSO exact
oracles: the reference TF-IDF formula is replicated in SQL with scores
rounded to 4dp on both sides (noise_ray/ops/score_oracle.py); raw-f32
golden parity vs the reference transcripts stays in tests/.
``nested_conv_search``, ``ann_bucketed`` and ``ann_ivf`` are exact too
(the nested first-matching-instance score in SQL; deterministic
Rademacher LSH planes inlined as SQL literals; deterministic
corpus-sample IVF centroids).  The duplicate-cluster entries wrap their
pair SQL in recursive-CTE transitive closures; ``kmeans_embeddings``
replicates the Lloyd rounds as chained CTEs.  The ONE remaining
rows-only entry is
``flagship_proximity``: the reference's DistanceFilter carries round-robin
iterator state ACROSS documents, so even its matched set has no closed
form (verified empirically) — covered by property tests instead.

Ray is initialised by the driver BEFORE this module is imported: nothing in
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: build the transcript index at sf0.001 scale and run the
    reference scoring query (top-k by relevance)."""
    from noise_ray.pipelines import transcripts_index
    from noise_ray.query import run_query

    reader = transcripts_index("/root/testdata/sf0.001")
    return run_query(
        reader,
        'find {text: ~="quick" || text: ~="brown" || text: ~="fox"} '
        "order score() desc return score() limit 100 ;",
    )


# --------------------------------------------------------------- queries

def _doc_ids_only(t):
    return t.select(["doc_id"])


def _round4(t, cols=("score",)):
    """Round float columns to 4 decimals as float64 so an engine-f32 score
    hash-matches its f64 DuckDB oracle (noise_ray/ops/score_oracle.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    for c in cols:
        if c in t.column_names:
            x = pc.round(pc.cast(t.column(c), pa.float64()), ndigits=4)
            t = t.set_column(t.column_names.index(c), c, x)
    return t


def _search_highlight(sf_dir: str):
    from noise_ray.ops.highlight import search_highlight

    return search_highlight(sf_dir)


def _more_like_this(sf_dir: str):
    from noise_ray.ops.related import more_like_this

    return more_like_this(sf_dir)


def _termdict(name: str):
    """Dictionary-expanded search surfaces (prefix / fuzzy / did-you-mean,
    noise_ray/ops/termdict.py) at their default fixtures."""
    def run(sf_dir: str):
        from noise_ray.ops import termdict

        return getattr(termdict, name)(sf_dir)

    return run


def _search_documents(query: str, columns=("doc_id",), round_score=False):
    def run(sf_dir: str):
        from noise_ray.pipelines import documents_index
        from noise_ray.query import run_query

        t = run_query(documents_index(sf_dir), query).select(list(columns))
        return _round4(t) if round_score else t

    return run


def _search_transcripts(query: str, columns=None, round_score=False):
    def run(sf_dir: str):
        from noise_ray.pipelines import transcripts_index
        from noise_ray.query import run_query

        t = run_query(transcripts_index(sf_dir), query)
        if columns is not None:
            t = t.select(list(columns))
        return _round4(t) if round_score else t

    return run


def _incremental_upsert(sf_dir: str):
    """Incremental add + upsert (SURVEY §2.0 Index::add on a live index):
    build a tiny base index, append an epoch that also re-adds one existing
    (conv_id, turn_idx) key, and query across epochs.  Deterministic fixed
    corpus; the oracle scores the post-upsert live corpus inlined as VALUES
    (ops/score_oracle.py); value-exact epoch tests in
    tests/test_incremental.py."""
    import os
    import tempfile

    from noise_ray.build import add_documents, build_index
    from noise_ray.query import IndexReader, run_query

    root = tempfile.mkdtemp(prefix="noise_ray_incr_")
    base = _write_turns(os.path.join(root, "in0"), [
        ("a", 0, "user", "the quick brown fox"),
        ("a", 1, "assistant", "lazy dogs sleep"),
        ("b", 0, "user", "fox hunting season"),
    ])
    idx = os.path.join(root, "idx")
    build_index([base], idx, num_buckets=4)
    delta = _write_turns(os.path.join(root, "in1"), [
        ("a", 0, "user", "updated fox text entirely"),  # upsert of (a, 0)
        ("c", 0, "user", "quick quick fox"),
    ])
    add_documents(idx, [delta])
    t = run_query(
        IndexReader(idx),
        'find {text: ~="fox"} order score() desc return score() limit 10 ;')
    return _round4(t.select(["conv_id", "turn_idx", "score"]))


def _lifecycle_compact(sf_dir: str):
    """Full lifecycle (SURVEY §2.0): base build → epoch add with upsert →
    tombstone delete → compaction, then query the compacted index.
    Deterministic fixed corpus; the oracle scores the post-lifecycle live
    corpus inlined as VALUES (ops/score_oracle.py); compaction ≡ fresh
    build is value-exact in tests/test_compact.py."""
    import os
    import tempfile

    from noise_ray.build import add_documents, build_index, compact_index
    from noise_ray.query import IndexReader, run_query

    root = tempfile.mkdtemp(prefix="noise_ray_compact_")
    base = _write_turns(os.path.join(root, "in0"), [
        ("a", 0, "user", "the quick brown fox"),
        ("a", 1, "assistant", "lazy dogs sleep"),
        ("b", 0, "user", "fox hunting season"),
    ])
    idx = os.path.join(root, "idx")
    build_index([base], idx, num_buckets=4)
    delta = _write_turns(os.path.join(root, "in1"), [
        ("a", 0, "user", "updated fox text entirely"),  # upsert of (a, 0)
        ("c", 0, "user", "quick quick fox"),
    ])
    add_documents(idx, [delta])
    IndexReader(idx).add_tombstones([1])  # delete (a, 1)
    compact_index(idx)
    t = run_query(
        IndexReader(idx),
        'find {text: ~="fox"} order score() desc return score() limit 10 ;')
    return _round4(t.select(["conv_id", "turn_idx", "score"]))


def _lifecycle_merge(sf_dir: str):
    """Tiered epoch merge (build/incremental.merge_epochs): base build →
    two epoch adds (one an upsert) → fold both epochs into ONE merged
    epoch at O(epoch bytes) with no re-tokenize, then query.  Results
    are bit-identical to the unmerged epoch view; the single-term score
    sqrt(tf/len) cancels idf, so the merged index's stale-stats
    semantics (shadowed docs GC'd only at compaction) cannot leak into
    the oracle comparison."""
    import os
    import tempfile

    from noise_ray.build import add_documents, build_index, merge_epochs
    from noise_ray.query import IndexReader, run_query

    root = tempfile.mkdtemp(prefix="noise_ray_merge_")
    base = _write_turns(os.path.join(root, "in0"), [
        ("a", 0, "user", "the quick brown fox"),
        ("a", 1, "assistant", "lazy dogs sleep"),
        ("b", 0, "user", "fox hunting season"),
    ])
    idx = os.path.join(root, "idx")
    build_index([base], idx, num_buckets=4)
    delta1 = _write_turns(os.path.join(root, "in1"), [
        ("a", 0, "user", "updated fox text entirely"),  # upsert of (a, 0)
        ("c", 0, "user", "quick quick fox"),
    ])
    add_documents(idx, [delta1])
    delta2 = _write_turns(os.path.join(root, "in2"), [
        ("d", 0, "user", "fox fox fox den"),
    ])
    add_documents(idx, [delta2])
    merge_epochs(idx)
    t = run_query(
        IndexReader(idx),
        'find {text: ~="fox"} order score() desc return score() limit 10 ;')
    return _round4(t.select(["conv_id", "turn_idx", "score"]))


def _ann_ivf_indexed(sf_dir: str):
    """ann_ivf through the PERSISTENT IVF-partitioned vector index
    (build once, query reads only probed lists — build/vector_index.py);
    bit-identical to ann_ivf, so it shares ann_ivf_sql."""
    from noise_ray.build.vector_index import ann_ivf_indexed

    return ann_ivf_indexed(sf_dir)


def _bm25_topk(sf_dir: str):
    """Okapi BM25 top-k straight off the inverted index (ops/bm25.py):
    per-posting tf + field length, manifest corpus stats, no extra
    corpus pass; exact 4dp oracle (ops/score_oracle.bm25_topk_sql)."""
    from noise_ray.ops.bm25 import bm25_topk

    return bm25_topk(sf_dir)


def _bm25_filtered(sf_dir: str):
    """Filtered BM25 (the bool-query shape): the engine's own filter
    machinery computes the allowed set, BM25 ranks inside it with
    corpus-wide idf/avgdl (ops/bm25.py filter_query)."""
    from noise_ray.ops.bm25 import bm25_topk

    return bm25_topk(sf_dir, filter_query='find {lang: =="en"} ;')


def _bm25_and_topk(sf_dir: str):
    """Conjunctive BM25 (posting-list INTERSECTION + block-max WAND, the
    north rule's named access path): only docs matching every query term
    rank; uncovered doc intervals are pruned without touching payload
    bytes (ops/bm25.py mode="and")."""
    from noise_ray.ops.bm25 import bm25_topk

    return bm25_topk(sf_dir, mode="and")


def _bm25_fields(sf_dir: str):
    """Weighted multi-field BM25 (BM25F-style): score = sum over fields
    of w_f * BM25_f(terms) with per-field df and avgdl — "merge" scores
    through text, "src3"/"en" through the single-token source/lang
    fields (ops/bm25.bm25_fields_topk; exact SQL oracle
    bm25_fields_sql)."""
    from noise_ray.ops.bm25 import bm25_fields_topk

    return bm25_fields_topk(sf_dir)


def _bm25_page2(sf_dir: str):
    """Cursor pagination (search_after): page 2 of the bm25_topk
    ranking — fetch page 1, use its last (rounded score, doc_id) row as
    the cursor, return the next 20.  The (rounded score desc, doc_id
    asc) ordering is total, so the page sequence equals OFFSET
    semantics; deep paging never re-ships earlier pages (each worker
    filters below the cursor before its local top-k)."""
    from noise_ray.ops.bm25 import bm25_topk

    p1 = bm25_topk(sf_dir)
    cursor = (p1.column("score")[-1].as_py(),
              p1.column("doc_id")[-1].as_py())
    return bm25_topk(sf_dir, search_after=cursor)


def _bm25_phrase(sf_dir: str):
    """Phrase BM25 (the north rule reduces the reference suite to term
    AND phrase BM25 queries): tf = exact phrase occurrence count via one
    vectorized shifted-position set intersection over the positional
    postings (ops/bm25.bm25_phrase_topk)."""
    from noise_ray.ops.bm25 import bm25_phrase_topk

    return bm25_phrase_topk(sf_dir, ("row", "scan"))


def _bm25_msm(sf_dir: str):
    """minimum_should_match BM25 (ops/bm25.py min_match): only docs
    matching >= 2 of the 3 query terms rank — the Lucene msm middle
    ground between pure OR and AND, pruned through the same block-max
    coverage-count bound."""
    from noise_ray.ops.bm25 import bm25_topk

    return bm25_topk(sf_dir, terms=("merge", "scan", "row"), min_match=2)


def _bm25_synonyms(sf_dir: str):
    """Synonym-blended BM25 (ops/bm25_ext.bm25_synonyms_topk): each
    query "term" is a GROUP of interchangeable surface forms scoring as
    one pseudo-term (summed tf, union df) — Lucene's SynonymQuery."""
    from noise_ray.ops.bm25_ext import bm25_synonyms_topk

    return bm25_synonyms_topk(sf_dir)


def _bm25_value_boost(sf_dir: str):
    """Function-score BM25 (ops/bm25_ext.bm25_value_boost):
    score' = bm25 · 1/(1 + λ·n_chars) with the boost value gathered
    from the docmap — the field_value_factor / recency-decay shape."""
    from noise_ray.ops.bm25_ext import bm25_value_boost

    return bm25_value_boost(sf_dir)


def _assert_stem_fold_covers(sf_dir: str) -> None:
    """Corpus invariant behind the term_vectors oracle (ADVICE round 3):
    every stem-collision group in the ACTUAL corpus must be covered by
    the static _docs_stem_fold CASE (built from the generator
    vocabulary).  Collisions outside it would silently desync engine
    (stem-merged) and oracle (raw-token) statistics — fail loudly
    instead."""
    import re as _re

    import pyarrow.parquet as pq

    from noise_ray.analysis.porter2 import stem as _stem
    from noise_ray.sources.transcripts import _VOCAB, FIXTURE_TEXTS

    known = {str(w).lower() for w in _VOCAB}
    for t in FIXTURE_TEXTS:
        known.update(_re.findall(r"[a-z0-9]+", t.lower()))
    toks: set[str] = set()
    for txt in pq.read_table(f"{sf_dir}/documents.parquet",
                             columns=["text"]).column("text").to_pylist():
        toks.update(_re.findall(r"[a-z0-9]+", txt.lower()))
    by_stem: dict[str, list[str]] = {}
    for w in sorted(toks):
        by_stem.setdefault(_stem(w), []).append(w)
    bad = {s: ws for s, ws in by_stem.items()
           if len(ws) > 1 and not set(ws) <= known}
    assert not bad, (
        f"stem collisions outside the generator vocabulary: {bad} — "
        "extend _docs_stem_fold or regenerate the corpus")


def _term_vectors(sf_dir: str):
    """Term vectors with term statistics (ops/introspect.term_vectors,
    cf. ES _termvectors): requested docs re-analyzed with the engine's
    own tokenizer, df/cf from posting headers — per-doc diagnostic,
    never a corpus scan.  The oracle's stem fold is asserted to cover
    the actual corpus's collision groups first (the correctness wrapper
    may scan; the op itself never does)."""
    from noise_ray.ops.introspect import term_vectors

    _assert_stem_fold_covers(sf_dir)
    return term_vectors(sf_dir)


def _bm25_span_first(sf_dir: str):
    """Span-first query (ops/bm25.bm25_span_first_topk, cf. Lucene
    SpanFirstQuery): the term within the first 10 kept-token positions,
    tf = in-window occurrences, span df — one positional posting read
    plus a vectorized mask."""
    from noise_ray.ops.bm25 import bm25_span_first_topk

    return bm25_span_first_topk(sf_dir)


def _bm25_decay(sf_dir: str):
    """Gauss-decay function score (ops/bm25_ext.bm25_decay):
    score' = bm25 · 0.5^((max(0,|n_chars−300|−50)/150)²) — the ES
    function_score decay shape (recency / geo-distance) over a stored
    numeric field."""
    from noise_ray.ops.bm25_ext import bm25_decay

    return bm25_decay(sf_dir)


def _federated_bm25(sf_dir: str):
    """Federated search (ops/federated.py): the documents corpus split
    into 3 INDEPENDENTLY built shard indexes (own doc-id spaces), one
    exact global BM25 ranking via the dfs_query_then_fetch two-phase
    protocol — bit-identical to single-index bm25_topk, so the oracle
    IS the plain BM25 SQL."""
    from noise_ray.ops.federated import (federated_bm25,
                                         shard_documents_indexes)

    return federated_bm25(shard_documents_indexes(sf_dir, 3))


def _merged_index_bm25(sf_dir: str):
    """Posting-level index merge (build/merge.py): the 3 shard indexes
    physically fused — first-varint doc shifts, gkey remap, stats
    concat, docmap rewrite, NO re-tokenization — then queried as ONE
    index.  Shards slice contiguous rows, so merged internal ids ==
    the table's doc_id and the oracle is the plain BM25 SQL."""
    import os

    from noise_ray.build.merge import merge_indexes
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.ops.federated import shard_documents_indexes

    dirs = shard_documents_indexes(sf_dir, 3)
    out = os.path.join(os.path.dirname(dirs[0]), "merged")
    if not os.path.exists(os.path.join(out, "manifest.json")):
        for part in ("docmap", "segments", "stats"):
            os.makedirs(os.path.join(out, part), exist_ok=True)
        merge_indexes(dirs, out)
    return bm25_topk(sf_dir, k=20, index_dir=out)


def _split_index_bm25(sf_dir: str):
    """Split-index query (build/merge.split_index): the unified index
    physically repartitioned into 3 rebased doc-range splits; the first
    split answers BM25 with its own SLICE-LOCAL stats (recomputed
    exactly during the split), so the oracle is plain BM25 over the
    doc_id slice."""
    import os

    from noise_ray.build.merge import split_index
    from noise_ray.ops.bm25 import bm25_topk
    from noise_ray.pipelines import documents_index

    uni = documents_index(sf_dir)
    n = uni.num_docs
    span = -(-n // 3)
    root = uni.index_dir.rstrip("/") + "-split3"  # per-sf cache
    outs = [os.path.join(root, f"s{j}") for j in range(3)]
    if not all(os.path.exists(os.path.join(d, "manifest.json"))
               for d in outs):
        split_index(uni.index_dir, outs, [0, span, 2 * span, n])
    return bm25_topk(sf_dir, k=20, index_dir=outs[0])


def _bm25_dismax(sf_dir: str):
    """Disjunction-max multi-field query (ops/bm25_ext.bm25_dismax_topk,
    cf. ES dis_max / multi_match best_fields): best field's weighted
    BM25 + tie_breaker × the rest."""
    from noise_ray.ops.bm25_ext import bm25_dismax_topk

    return bm25_dismax_topk(sf_dir)


def _winnow_fingerprints(sf_dir: str):
    """Winnowing fingerprints (ops/text.winnow_fingerprints — the MOSS
    local-sampling sketch): per-doc sliding-window minima over the
    shared 3-gram shingle hashes, distinct (doc, fp)."""
    from noise_ray.ops.text import winnow_fingerprints

    return winnow_fingerprints(sf_dir)


def _winnow_dup_pairs(sf_dir: str):
    """Winnow near-dup candidates (ops/text.winnow_dup_pairs): pairs
    sharing >= 2 fingerprints through bounded buckets — the MOSS match
    step as two bounded groupbys."""
    from noise_ray.ops.text import winnow_dup_pairs

    return winnow_dup_pairs(sf_dir)


def _did_you_mean_phrase(sf_dir: str):
    """Phrase suggester (ops/termdict.did_you_mean_phrase, cf. ES
    phrase suggester): per-word fuzzy candidates re-ranked by corpus
    bigram evidence from the positional postings."""
    from noise_ray.ops.termdict import did_you_mean_phrase

    return did_you_mean_phrase(sf_dir)


def _bm25_phrase_prefix(sf_dir: str):
    """Search-as-you-type (ops/bm25_ext.bm25_phrase_prefix_topk, cf. ES
    match_phrase_prefix): fixed words + any dictionary token with the
    typed prefix, scored with the exact phrase kernel."""
    from noise_ray.ops.bm25_ext import bm25_phrase_prefix_topk

    return bm25_phrase_prefix_topk(sf_dir)


def _rank_eval(sf_dir: str):
    """Ranking-quality evaluation (ops/rank_eval.py, cf. ES _rank_eval):
    BM25 top-50 per query scored against conjunctive unstated-intent
    relevance labels — precision@k, recall@k, binary-gain NDCG@k."""
    from noise_ray.ops.rank_eval import rank_eval

    return rank_eval(sf_dir)


def _collapse_topk(sf_dir: str):
    """Field collapsing (ops/aggs.collapse_topk): the BM25 top-k with
    at most ONE doc per `source` value — per-key best is an associative
    max, so per-range winner partials merge exactly."""
    from noise_ray.ops.aggs import collapse_topk

    return collapse_topk(sf_dir)


def _top_hits(sf_dir: str):
    """Top-hits aggregation (ops/aggs.top_hits): per-`source` top-3
    BM25 hits, groups ordered by their best hit — per-key top-N is
    associative so per-range partials merge exactly."""
    from noise_ray.ops.aggs import top_hits

    return top_hits(sf_dir)


def _terms_facet(sf_dir: str):
    """Terms facet (ops/aggs.terms_facet): matched-doc counts per
    `lang` value — per-range key-cardinality count partials summed."""
    from noise_ray.ops.aggs import terms_facet

    return terms_facet(sf_dir)


def _cardinality_agg(sf_dir: str):
    """Exact cardinality (ops/aggs.cardinality_agg): distinct `source`
    values over the matched set — per-range distinct-value sets
    unioned."""
    from noise_ray.ops.aggs import cardinality_agg

    return cardinality_agg(sf_dir)


def _adjacency_matrix(sf_dir: str):
    """Adjacency matrix (ops/aggs.adjacency_matrix, cf. ES
    adjacency_matrix): singles + pairwise filter-intersection counts,
    dense-mask set algebra per doc range."""
    from noise_ray.ops.aggs import adjacency_matrix

    return adjacency_matrix(sf_dir)


def _filters_agg(sf_dir: str):
    """Filters aggregation (ops/aggs.filters_agg, cf. ES filters): one
    matched-doc count per named query bucket, disjoint-range partials
    summed."""
    from noise_ray.ops.aggs import filters_agg

    return filters_agg(sf_dir)


def _extended_stats(sf_dir: str):
    """Extended stats (ops/aggs.extended_stats, cf. ES extended_stats):
    exact per-range integer moments folded, floats derived once from
    the folded integers in fixed operand order, 4dp."""
    from noise_ray.ops.aggs import extended_stats

    return extended_stats(sf_dir)


def _rare_terms(sf_dir: str):
    """Rare terms (ops/aggs.rare_terms, cf. ES rare_terms): long-tail
    matched-set vocabulary from exact per-range foreground partials.
    The doc-count ceiling scales with the corpus (max(100, N/10), same
    formula in the SQL oracle) so the correctness check stays
    non-vacuous at every sf."""
    import pyarrow.parquet as pq

    from noise_ray.ops.aggs import rare_terms

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return rare_terms(sf_dir, max_doc_count=max(100, n // 10))


def _composite_agg(sf_dir: str):
    """Composite aggregation (ops/aggs.composite_agg, cf. ES
    composite): paginated source × n_chars-histogram buckets, composite
    key ascending, page strictly after the ('src12', 200) cursor —
    the cursor pushes down into the per-range folds."""
    from noise_ray.ops.aggs import composite_agg

    return composite_agg(sf_dir)


def _histogram_facet(sf_dir: str):
    """Histogram facet (ops/aggs.histogram_facet): matched-doc counts
    per 200-char n_chars bucket, per-range bincount partials summed."""
    from noise_ray.ops.aggs import histogram_facet

    return histogram_facet(sf_dir)


def _percentiles_agg(sf_dir: str):
    """Percentiles aggregation (ops/aggs.percentiles_agg): EXACT
    PERCENTILE_DISC over the matched docs' n_chars — per-range
    (value, count) histogram partials (distinct-value-bounded), then an
    all-integer cumulative walk; no t-digest approximation needed for
    integer fields."""
    from noise_ray.ops.aggs import percentiles_agg

    return percentiles_agg(sf_dir)


def _significant_terms(sf_dir: str):
    """Significant terms (ops/aggs.significant_terms): terms
    overrepresented in the matched set vs the corpus, scored with the
    per-term KL contribution; vocabulary from the stats sidecar,
    surface names from the term dictionary."""
    from noise_ray.ops.aggs import significant_terms

    return significant_terms(sf_dir)


def _forced_dist(op_module: str, op_name: str, doc: str, *,
                 needs_index_dir: bool = True, pre_dictionary: bool = False,
                 kwargs_fn=None):
    """Wrap an op so its distributed dispatch (worker_pool fan-out)
    executes end-to-end at small scale: NOISE_RAY_DIST_MIN_DOCS=1 for
    the duration of the call (driver-side dispatch knob,
    query/distributed.dist_min_docs).  Results must be bit-identical to
    the in-process path — these entries share the plain entries'
    oracles, so the driver's gate checks the DISPATCH itself, not just
    the (separately equality-tested) worker bodies."""
    def run(sf_dir: str):
        import importlib
        import os

        kw = dict(kwargs_fn(sf_dir)) if kwargs_fn is not None else {}
        if pre_dictionary:
            # surface naming reads the term dictionary; build it first so
            # results don't depend on which entry the driver ran earlier
            from noise_ray.ops.termdict import _reader_and_dict

            _reader_and_dict(sf_dir)
        if needs_index_dir:
            from noise_ray.pipelines import documents_index

            kw["index_dir"] = documents_index(sf_dir).index_dir
        fn = getattr(importlib.import_module(f"noise_ray.ops.{op_module}"),
                     op_name)
        old = os.environ.get("NOISE_RAY_DIST_MIN_DOCS")
        os.environ["NOISE_RAY_DIST_MIN_DOCS"] = "1"
        try:
            return fn(sf_dir, **kw)
        finally:
            if old is None:
                os.environ.pop("NOISE_RAY_DIST_MIN_DOCS", None)
            else:
                os.environ["NOISE_RAY_DIST_MIN_DOCS"] = old

    run.__doc__ = doc
    return run


def _ann_ivf_filtered_indexed(sf_dir: str):
    """ann_ivf_filtered through the PERSISTENT IVF index with the label
    stored per list (build/vector_index.ann_ivf_filtered_indexed):
    list routing prunes files, the label predicate prunes row groups
    inside them; bit-identical to ann_ivf_filtered, shared oracle."""
    from noise_ray.build.vector_index import ann_ivf_filtered_indexed

    return ann_ivf_filtered_indexed(sf_dir)


def _rag_search(sf_dir: str):
    """Chunked retrieval (ops/rag.py): overlapping token-window chunks
    indexed as their own corpus, BM25 at chunk granularity (passage
    stats: N/df/avgdl over chunks), top candidates collapsed to the
    best chunk per parent document — the RAG retrieval shape."""
    from noise_ray.ops.rag import rag_search

    return rag_search(sf_dir)


def _bm25_msearch(sf_dir: str):
    """Multi-search (ops/bm25.bm25_msearch): 3 term-bag BM25 queries in
    ONE request — above 5M docs the batch shares a single two-phase
    pool round-trip per doc range instead of one per query."""
    from noise_ray.ops.bm25 import bm25_msearch

    return bm25_msearch(sf_dir)


def _chunk_documents(sf_dir: str):
    """RAG-prep chunking (ops/text.chunk_documents): 64-token windows
    every 48 tokens (overlap 16), one streaming fan-out map_batches
    pass; sorted here only for the deterministic oracle compare."""
    from noise_ray.ops.text import chunk_documents

    return chunk_documents(sf_dir).sort(["doc_id", "chunk_idx"])


def _bm25_boosting(sf_dir: str):
    """Boosting query (ops/bm25_ext.bm25_boosting_topk): positive-term
    BM25 with docs matching any negative term DEMOTED by a constant
    factor (not excluded) — the Elasticsearch/Lucene boosting shape."""
    from noise_ray.ops.bm25_ext import bm25_boosting_topk

    return bm25_boosting_topk(sf_dir)


def _suggest_complete(sf_dir: str):
    """Completion suggester (ops/termdict.suggest_complete): top-n
    dictionary tokens with the prefix by (df desc, token asc) — a pure
    footer-pruned, vocabulary-bounded dictionary read; no posting or
    corpus access (the type-ahead surface)."""
    from noise_ray.ops.termdict import suggest_complete

    return suggest_complete(sf_dir, "s", 10)


def _bm25_spannear(sf_dir: str):
    """Ordered span-near BM25 (ops/bm25.bm25_spannear_topk): the words
    in order with <= slop intervening tokens between adjacent words —
    Lucene's interval/SpanNear maxgaps shape; slop=0 is the exact
    phrase.  tf = distinct valid start positions via a right-to-left
    existence DP over (doc, pos) keys (greedy adjacency is unsound)."""
    from noise_ray.ops.bm25 import bm25_spannear_topk

    return bm25_spannear_topk(sf_dir, ("merge", "scan"), slop=2)


def _percolate_qspec():
    from noise_ray.ops.percolate import DEFAULT_QUERIES

    return DEFAULT_QUERIES


def _percolate(sf_dir: str):
    """Percolator / reverse search (ops/percolate.py): standing
    registered queries matched against the document stream — every
    (doc, query) pair where the doc contains >= m distinct terms of the
    query.  Pure streaming map_batches over an actor pool; the
    registered-term hash index is built once per actor."""
    from noise_ray.ops.percolate import percolate

    return percolate(sf_dir).sort(["doc_id", "query_id"])


def _explain_score(sf_dir: str):
    """Score explanation (ops/introspect.explain_score): the BM25
    top-1 doc's per-term tf/df/idf/contribution, read off the index
    artifacts — an audit of what the kernel actually used."""
    from noise_ray.ops.introspect import explain_score

    return explain_score(sf_dir)


def _index_stats(sf_dir: str):
    """Index statistics (ops/introspect.index_stats): per-field doc and
    token totals off the manifest + stats sidecar; the oracle recomputes
    from raw text, so agreement is a whole-build token-conservation
    invariant."""
    from noise_ray.ops.introspect import index_stats

    return index_stats(sf_dir)


def _mmr_rerank(sf_dir: str):
    """MMR-diversified retrieval (ops/rerank.mmr_rerank): greedy
    maximal-marginal-relevance over BM25 candidates using their
    embeddings — λ·rel − (1−λ)·max-cosine-to-selected per round;
    oracle = the greedy loop unrolled into per-round CTEs."""
    from noise_ray.ops.rerank import mmr_rerank

    return mmr_rerank(sf_dir)


def _rerank_topk(sf_dir: str):
    """Retrieve-then-rerank (ops/rerank.py): BM25 top-100 candidates off
    the index, then a deterministic lexical-feature second stage (the
    cross-encoder pipeline shape with a deterministic stand-in scorer —
    no model weights ship here); exact oracle
    (ops/score_oracle.rerank_topk_sql)."""
    from noise_ray.ops.rerank import rerank_topk

    return rerank_topk(sf_dir)


def _hybrid_search(sf_dir: str):
    """BM25-style term top-k + embedding-cosine top-k fused by
    reciprocal-rank fusion (ops/hybrid.py); exact SQL oracle because RRF
    uses only ranks, never the incomparable raw scores."""
    from noise_ray.ops.hybrid import hybrid_search

    return hybrid_search(sf_dir)


def _search_export(sf_dir: str):
    """Streaming query->Dataset export (noise_ray/query/scan.py
    index_scan): the FULL matched set of a filter-only query leaves the
    index as a lazy Ray Dataset — one map task per doc range, stored
    fields fetched worker-side, nothing corpus-sized on the driver
    (export_matches chains write_parquet for the query->parquet sink).
    Collected + sorted here only because the oracle compare needs a
    deterministic table."""
    import pyarrow as pa

    from noise_ray.ops.collect import arrow_blocks
    from noise_ray.pipelines import documents_index
    from noise_ray.query import index_scan

    r = documents_index(sf_dir)
    ds = index_scan(r.index_dir, 'find {lang: =="en", n_chars: > 300} ;',
                    columns=["doc_id", "lang", "source", "n_chars"])
    t = pa.concat_tables(arrow_blocks(ds))
    return t.sort_by("doc_id")


def _delete_by_query(sf_dir: str):
    """Query-addressed delete (SURVEY §2.0 extension of Index::delete):
    build a tiny fixed index, ``delete_by_query`` every doc matching
    ``fox``, compact (the documented mass-delete path — segments and
    corpus stats shrink to the live set), then run a scored term query.
    Oracle scores the post-delete live corpus inlined as VALUES
    (ops/score_oracle.py); exactness tests in tests/test_scan.py."""
    import os
    import tempfile

    from noise_ray.build import build_index, compact_index, delete_by_query
    from noise_ray.query import IndexReader, run_query

    root = tempfile.mkdtemp(prefix="noise_ray_dbq_")
    base = _write_turns(os.path.join(root, "in0"), [
        ("a", 0, "user", "the quick brown fox"),
        ("a", 1, "assistant", "dogs sleep all day"),
        ("b", 0, "user", "fox hunting season"),
        ("c", 0, "user", "cats sleep and the fox waits"),
        ("d", 0, "user", "birds sing and cats sleep"),
    ])
    idx = os.path.join(root, "idx")
    build_index([base], idx, num_buckets=4)
    delete_by_query(idx, 'find {text: ~="fox"} ;')
    compact_index(idx)
    t = run_query(
        IndexReader(idx),
        'find {text: ~="sleep"} order score() desc return score() limit 10 ;')
    return _round4(t.select(["conv_id", "turn_idx", "score"]))


def _nested_delete_by_query(sf_dir: str):
    """Nested query-addressed delete (delete_by_query): build a tiny
    nested index, tombstone every doc whose turns match ``fox``, and list
    the surviving _ids.  Exactness tests in tests/test_scan.py."""
    import os
    import tempfile

    import pyarrow as pa

    from noise_ray.build import delete_by_query
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    docs = [
        {"_id": "a", "msgs": [{"t": "quick brown fox"}], "n": 1},
        {"_id": "b", "msgs": [{"t": "lazy dog"}], "n": 2},
        {"_id": "c", "msgs": [{"t": "fox season"}], "n": 3},
        {"_id": "d", "msgs": [{"t": "dog and fox"}], "n": 4},
    ]
    root = tempfile.mkdtemp(prefix="noise_ray_jdbq_")
    p = docs_to_parquet(docs, os.path.join(root, "in.parquet"))
    idx = os.path.join(root, "idx")
    build_json_index([p], idx, num_buckets=8)
    delete_by_query(idx, 'find {msgs: [{t: ~="fox"}]} ;')
    ids = run_json_query(JsonIndexReader(idx),
                         'find {n: > 0} return ._id ;')
    return pa.table({"_id": pa.array(ids, pa.string())})


def _write_turns(dirpath, rows):
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(dirpath, exist_ok=True)
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "tool": pa.array([None] * len(rows), pa.string()),
        "ts": pa.array(range(len(rows)), pa.timestamp("us")),
    })
    p = os.path.join(dirpath, "part-0.parquet")
    pq.write_table(t, p)
    return p


def queries() -> dict[str, Callable[[str], Any]]:
    from noise_ray.ops import (
        bpe, cluster, dedup, geo, mixing, multimodal, nested_docs, pca,
        relational, similarity, sketch, text,
    )

    return {
        # --- nested-JSON engine (keypaths, array contexts, return paths)
        "nested_kp_range": nested_docs.nested_kp_range,
        "nested_kp_exact_arrayctx": nested_docs.nested_kp_exact_arrayctx,
        "nested_return_path": nested_docs.nested_return_path,
        "nested_conv_search": nested_docs.nested_conv_search,
        "nested_kp_bm25": nested_docs.nested_kp_bm25,
        "nested_kp_bm25_filtered": nested_docs.nested_kp_bm25_filtered,
        # --- full-text engine over the documents table (oracle-checked)
        "search_exact_lang": _search_documents('find {lang: =="en"} ;'),
        "search_exact_and": _search_documents(
            'find {lang: =="en", source: =="src0"} ;'),
        "search_bool_not": _search_documents(
            'find {lang: =="en"} && !{source: =="src0"} ;'),
        "search_or": _search_documents(
            'find {lang: =="de"} || {lang: =="fr"} ;'),
        "search_range_nchars": _search_documents("find {n_chars: > 300} ;"),
        "search_range_band": _search_documents(
            "find {n_chars: >= 100, n_chars: < 200} ;"),
        # --- scored relevance queries (EXACT oracles: the reference TF-IDF
        #     formula replicated in SQL, score rounded to 4dp on both sides
        #     — noise_ray/ops/score_oracle.py; raw-f32 golden parity stays
        #     in tests/)
        "search_highlight": _search_highlight,
        "more_like_this": _more_like_this,
        "search_prefix": _termdict("search_prefix"),
        "search_fuzzy": _termdict("search_fuzzy"),
        "search_regex": _termdict("search_regex"),
        "did_you_mean": _termdict("did_you_mean"),
        # faceted search: full-text match -> per-facet doc counts, all
        # through the engine's own grouped-aggregate return clause
        "search_facets": _search_documents(
            'find {text: ~="merge"} '
            "return {src: group(.source), n: count()} ;",
            columns=("src", "n")),
        "hybrid_search": _hybrid_search,
        "bm25_topk": _bm25_topk,
        "bm25_filtered": _bm25_filtered,
        "bm25_and_topk": _bm25_and_topk,
        "bm25_fields": _bm25_fields,
        "bm25_page2": _bm25_page2,
        "bm25_phrase": _bm25_phrase,
        "bm25_spannear": _bm25_spannear,
        "bm25_boosting": _bm25_boosting,
        "bm25_msearch": _bm25_msearch,
        "rag_search": _rag_search,
        "suggest_complete": _suggest_complete,
        "bm25_msm": _bm25_msm,
        "bm25_synonyms": _bm25_synonyms,
        "bm25_value_boost": _bm25_value_boost,
        "bm25_decay": _bm25_decay,
        "bm25_span_first": _bm25_span_first,
        "federated_bm25": _federated_bm25,
        "merged_index_bm25": _merged_index_bm25,
        "split_index_bm25": _split_index_bm25,
        "rank_eval": _rank_eval,
        "bm25_dismax": _bm25_dismax,
        "bm25_phrase_prefix": _bm25_phrase_prefix,
        "did_you_mean_phrase": _did_you_mean_phrase,
        "winnow_fingerprints": _winnow_fingerprints,
        "winnow_dup_pairs": _winnow_dup_pairs,
        "collapse_topk": _collapse_topk,
        "top_hits": _top_hits,
        "terms_facet": _terms_facet,
        "cardinality_agg": _cardinality_agg,
        "filters_agg": _filters_agg,
        "adjacency_matrix": _adjacency_matrix,
        "histogram_facet": _histogram_facet,
        "composite_agg": _composite_agg,
        "extended_stats": _extended_stats,
        "rare_terms": _rare_terms,
        "percentiles_agg": _percentiles_agg,
        "significant_terms": _significant_terms,
        # --- forced distributed dispatch (one per worker_pool family):
        #     NOISE_RAY_DIST_MIN_DOCS=1 routes the SAME computation
        #     through the range-actor fan-out; shared oracles
        "dist_bm25_topk": _forced_dist(
            "bm25", "bm25_topk",
            "bm25_topk through the two-phase distributed fan-out "
            "(ops/bm25._bm25_distributed) forced at small scale."),
        "dist_bm25_synonyms": _forced_dist(
            "bm25_ext", "bm25_synonyms_topk",
            "bm25_synonyms through the per-range pool dispatch "
            "(ops/bm25_ext) forced at small scale."),
        "dist_significant_terms": _forced_dist(
            "aggs", "significant_terms",
            "significant_terms through the per-range sig_fg_range "
            "fan-out forced at small scale.", pre_dictionary=True),
        "dist_rare_terms": _forced_dist(
            "aggs", "rare_terms",
            "rare_terms through the per-range sig_fg_range fan-out "
            "forced at small scale.", pre_dictionary=True,
            kwargs_fn=lambda sf: {"max_doc_count": max(100, __import__(
                "pyarrow.parquet", fromlist=["parquet"]).read_metadata(
                f"{sf}/documents.parquet").num_rows // 10)}),
        "dist_terms_facet": _forced_dist(
            "aggs", "terms_facet",
            "terms_facet through the per-range partial-fold dispatch "
            "forced at small scale."),
        "dist_rank_eval": _forced_dist(
            "rank_eval", "rank_eval",
            "rank_eval through the per-range hit-mask fold forced at "
            "small scale."),
        "dist_nested_kp_bm25": _forced_dist(
            "nested_docs", "nested_kp_bm25",
            "nested_kp_bm25 through the per-range nested pool dispatch "
            "(instances >= threshold) forced at small scale.",
            needs_index_dir=False),
        "dist_geo_distance": _forced_dist(
            "geo", "geo_distance",
            "geo_distance through the per-range top-k pool dispatch "
            "(ops/geo.geo_distance_range) forced at small scale.",
            needs_index_dir=False),
        "dist_geo_centroid": _forced_dist(
            "geo", "geo_centroid",
            "geo_centroid through the per-range (n, sums) pool fold "
            "(ops/geo.geo_centroid_range) forced at small scale.",
            needs_index_dir=False),
        "rerank_topk": _rerank_topk,
        "mmr_rerank": _mmr_rerank,
        "explain_score": _explain_score,
        "term_vectors": _term_vectors,
        "index_stats": _index_stats,
        "percolate": _percolate,
        "search_term_topk": _search_documents(
            'find {text: ~="merge"} order score() desc, .doc_id asc '
            "return score() limit 20 ;",
            columns=("doc_id", "score"), round_score=True),
        "search_phrase_topk": _search_documents(
            'find {text: ~="row scan"} order score() desc, .doc_id asc '
            "return score() limit 20 ;",
            columns=("doc_id", "score"), round_score=True),
        "flagship_or_topk": _search_transcripts(
            'find {text: ~="quick" || text: ~="brown" || text: ~="fox"} '
            "order score() desc, .conv_id asc, .turn_idx asc "
            "return score() limit 50 ;",
            columns=("conv_id", "turn_idx", "score"), round_score=True),
        "flagship_proximity": _search_transcripts(
            'find {text: ~3="time work"} order score() desc limit 50 ;'),
        # --- query-language group/aggregate return clauses (SURVEY §2.7,
        #     reference repl-tests/group.noise semantics; oracle-checked)
        "agg_group_stats": _search_documents(
            'find {lang: =="en"} '
            "return {src: group(.source), n: count(), chars: sum(.n_chars)} ;",
            columns=("src", "n", "chars")),
        "agg_minmax_lang": _search_documents(
            'find {source: =="src0"} '
            "return {lang: group(.lang), lo: min(.n_chars), hi: max(.n_chars), "
            "mean: avg(.n_chars)} ;",
            columns=("lang", "lo", "hi", "mean")),
        # --- relational / aggregation (noise return-clause surface)
        "pricing_summary": relational.pricing_summary,
        "orders_topk": relational.orders_topk,
        "region_nations_concat": relational.region_nations_concat,
        "events_hourly": relational.events_hourly,
        "events_hourly_ma": relational.events_hourly_ma,
        "events_hourly_pipeline": relational.events_hourly_pipeline,
        "orders_by_segment": relational.orders_by_segment,
        "shipdate_range_counts": relational.shipdate_range_counts,
        "sessionize": relational.sessionize,
        "asof_latest_order": relational.asof_latest_order,
        "prev_event": relational.prev_event,
        "sliding_window_stats": relational.sliding_window_stats,
        "hopping_window_stats": relational.hopping_window_stats,
        "order_priority_revenue": relational.order_priority_revenue,
        # --- dedup suite
        "dedup_exact": dedup.dedup_exact,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
        "simhash_pairs": dedup.simhash_pairs,
        "embedding_dup_pairs": dedup.embedding_dup_pairs,
        "embedding_dup_pairs_bucketed": dedup.embedding_dup_pairs_bucketed,
        "dedup_clusters": cluster.dedup_clusters,
        "substring_dup_clusters": dedup.substring_dup_clusters,
        "duplicate_spans": dedup.duplicate_spans,
        "remove_duplicate_spans": dedup.remove_duplicate_spans,
        # forces the above-broadcast-limit doc_id-range-partitioned span
        # sidecar path end-to-end at small scale; shares the plain oracle
        "part_remove_duplicate_spans": (
            lambda sf_dir: dedup.remove_duplicate_spans(
                sf_dir, broadcast_limit=0)),
        "dedup_clusters_lsh": cluster.dedup_clusters_lsh,
        "dedup_keep_first": cluster.dedup_keep_first,
        # --- similarity search
        "ann_topk": similarity.ann_topk_bruteforce,
        "ann_bucketed": similarity.ann_bucketed,
        "ann_ivf": similarity.ann_ivf,
        "ann_ivf_indexed": _ann_ivf_indexed,
        "ann_filtered": similarity.ann_filtered,
        "ann_ivf_filtered": similarity.ann_ivf_filtered,
        "ann_ivf_filtered_indexed": _ann_ivf_filtered_indexed,
        "kmeans_embeddings": similarity.kmeans_embeddings,
        "semdedup": similarity.semdedup,
        "pca_project": pca.pca_project,
        # --- text analysis
        "token_stats": text.token_stats,
        "chunk_documents": _chunk_documents,
        "fingerprint": text.fingerprint,
        "quality_bucket": text.quality_bucket,
        "langid": text.langid,
        "top_terms": text.top_terms,
        "grouped_topk": text.grouped_topk,
        "char_percentiles": text.char_percentiles,
        "sample_stratified": text.sample_stratified,
        "benchmark_contamination": text.benchmark_contamination,
        "regex_redact": text.regex_redact,
        "pii_redact": text.pii_redact,
        "repetition_stats": text.repetition_stats,
        "bpe_pair_counts": text.bpe_pair_counts,
        "bpe_train": bpe.bpe_train,
        "bpe_encode_counts": bpe.bpe_encode_counts,
        "quality_filter_gopher": text.quality_filter_gopher,
        "quality_filter_c4": text.quality_filter_c4,
        "surprising_bigrams": text.surprising_bigrams,
        "lm_perplexity": text.lm_perplexity,
        "dsir_select": text.dsir_select,
        "nb_classify": text.nb_classify,
        "tfidf_keywords": text.tfidf_keywords,
        "vocab_growth": text.vocab_growth,
        "kmv_distinct": text.kmv_distinct,
        "countmin_heavy": sketch.countmin_heavy,
        "hll_distinct": sketch.hll_distinct,
        # --- corpus assembly: packing, mixing, splits
        "pack_sequences": mixing.pack_sequences,
        "domain_mix_split": mixing.domain_mix_split,
        "corpus_prep": mixing.corpus_prep,
        # --- multimodal plumbing
        "payload_decode": multimodal.payload_decode,
        "jpeg_decode": multimodal.jpeg_decode,
        "audio_decode": multimodal.audio_decode,
        "video_frames": multimodal.video_frames,
        # --- geospatial (grid-bucketed sidecar under the oracle gate)
        "geo_bbox": geo.geo_bbox,
        "geo_distance": geo.geo_distance,
        "geo_grid_agg": geo.geo_grid_agg,
        "geo_centroid": geo.geo_centroid,
        "payload_metadata": multimodal.payload_metadata,
        "payload_features": multimodal.payload_features_flat,
        "payload_resize": multimodal.payload_resize,
        "frame_sample": multimodal.frame_sample,
        # --- lifecycle: incremental add + upsert epochs; compaction
        "incremental_upsert": _incremental_upsert,
        "lifecycle_compact": _lifecycle_compact,
        "lifecycle_merge": _lifecycle_merge,
        "delete_by_query": _delete_by_query,
        "nested_delete_by_query": _nested_delete_by_query,
        "search_export": _search_export,
    }


# ------------------------------------------------------------ oracle SQL

_TOK = "regexp_extract_all(lower(text), '[a-z0-9]+')"


def _docs_stem_fold() -> str:
    """CASE expression folding raw tokens that share a Porter2 stem to
    the group's lexicographically-least member — the engine's surface
    name for the merged stem row (ops/aggs._surface_names_for
    semantics).  Built from the closed generator vocabulary
    (sources/transcripts._VOCAB + fixture texts), which is the surface
    the documents table draws from; tokens outside it pass through
    (the term_vectors wrapper asserts the bijection for those)."""
    import re as _re

    from noise_ray.analysis.porter2 import stem as _stem
    from noise_ray.sources.transcripts import _VOCAB, FIXTURE_TEXTS

    vocab = {str(w).lower() for w in _VOCAB}
    for t in FIXTURE_TEXTS:
        vocab.update(_re.findall(r"[a-z0-9]+", t.lower()))
    by_stem: dict[str, list[str]] = {}
    for w in sorted(vocab):
        by_stem.setdefault(_stem(w), []).append(w)
    cases = []
    for _s, ws in sorted(by_stem.items()):
        if len(ws) > 1:
            target = min(ws)
            for w in ws:
                if w != target:
                    cases.append(f"WHEN '{w}' THEN '{target}'")
    return ("CASE tok " + " ".join(cases) + " ELSE tok END") if cases \
        else "tok"


def _sqlgen():
    from noise_ray.ops import oracle_sqlgen

    return oracle_sqlgen


def _score_oracle():
    from noise_ray.ops import score_oracle

    return score_oracle


def oracle_sql() -> dict[str, str]:
    sqls = {
        "nested_kp_range": """
            SELECT DISTINCT CAST(l_orderkey AS VARCHAR) AS _id
            FROM lineitem WHERE l_quantity >= 49""",
        "nested_kp_exact_arrayctx": """
            SELECT DISTINCT CAST(l_orderkey AS VARCHAR) AS _id
            FROM lineitem WHERE l_returnflag = 'R' AND l_quantity >= 48""",
        "nested_return_path": """
            WITH m AS (SELECT DISTINCT l_orderkey AS k FROM lineitem
                       WHERE l_quantity >= 49)
            SELECT CAST(k AS VARCHAR) AS id,
                   (SELECT l_quantity FROM lineitem li
                    WHERE li.l_orderkey = m.k
                    ORDER BY l_linenumber, l_quantity, l_returnflag
                    LIMIT 1) AS first_qty,
                   (SELECT string_agg(l_returnflag, '|'
                                      ORDER BY l_linenumber, l_quantity,
                                               l_returnflag)
                    FROM lineitem li WHERE li.l_orderkey = m.k) AS flags
            FROM m""",
        "search_exact_lang":
            "SELECT doc_id FROM documents WHERE lang = 'en'",
        "search_exact_and":
            "SELECT doc_id FROM documents WHERE lang = 'en' AND source = 'src0'",
        "search_bool_not":
            "SELECT doc_id FROM documents WHERE lang = 'en' AND source <> 'src0'",
        "search_or":
            "SELECT doc_id FROM documents WHERE lang IN ('de','fr')",
        "search_range_nchars":
            "SELECT doc_id FROM documents WHERE n_chars > 300",
        "search_range_band":
            "SELECT doc_id FROM documents WHERE n_chars >= 100 AND n_chars < 200",
        "agg_group_stats": """
            SELECT source AS src, CAST(count(*) AS DOUBLE) AS n,
                   CAST(sum(n_chars) AS DOUBLE) AS chars
            FROM documents WHERE lang = 'en' GROUP BY source""",
        "agg_minmax_lang": """
            SELECT lang, CAST(min(n_chars) AS DOUBLE) AS lo,
                   CAST(max(n_chars) AS DOUBLE) AS hi,
                   avg(n_chars) AS mean
            FROM documents WHERE source = 'src0' GROUP BY lang""",
        "nested_conv_search": _score_oracle().nested_conv_phrase_sql(
            w1="of", w2="your"),
        "nested_kp_bm25": _score_oracle().nested_kp_bm25_sql(),
        "nested_kp_bm25_filtered":
            _score_oracle().nested_kp_bm25_filtered_sql(),
        "flagship_or_topk": _score_oracle().flagship_or_topk_sql(),
        "search_highlight": _score_oracle().term_highlight_sql("merge", 10),
        "more_like_this": _score_oracle().more_like_this_sql(0, 10),
        "search_prefix": _score_oracle().prefix_topk_sql("s", 10),
        "search_fuzzy": _score_oracle().fuzzy_topk_sql("sart", 1, 10),
        "search_regex": _score_oracle().regex_topk_sql("[a-z]{3}", 10),
        "did_you_mean": _score_oracle().did_you_mean_sql("qery", 2, 5),
        "search_facets": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                       AS tok
              FROM documents),
            m AS (SELECT DISTINCT doc_id FROM toks WHERE tok = 'merge')
            SELECT source AS src, CAST(count(*) AS DOUBLE) AS n
            FROM documents JOIN m USING (doc_id) GROUP BY source""",
        "hybrid_search": _score_oracle().hybrid_rrf_sql(
            "merge", 0, 50, 60, 10),
        "bm25_topk": _score_oracle().bm25_topk_sql(
            ("merge", "scan"), 20, 1.2, 0.75),
        "bm25_filtered": _score_oracle().bm25_topk_sql(
            ("merge", "scan"), 20, 1.2, 0.75, where="lang = 'en'"),
        "bm25_and_topk": _score_oracle().bm25_topk_sql(
            ("merge", "scan"), 20, 1.2, 0.75, require_all=True),
        "bm25_fields": _score_oracle().bm25_fields_sql(
            ("merge", "src3", "en"),
            (("text", 1.0), ("source", 0.7), ("lang", 0.3)), 20),
        "bm25_page2": _score_oracle().bm25_topk_sql(
            ("merge", "scan"), 20, 1.2, 0.75, offset=20),
        "bm25_phrase": _score_oracle().bm25_phrase_topk_sql(
            ("row", "scan"), 20),
        "bm25_spannear": _score_oracle().bm25_spannear_topk_sql(
            ("merge", "scan"), 2, 20),
        "bm25_boosting": _score_oracle().bm25_boosting_sql(
            ("merge", "scan"), ("slow",), 0.3, 20),
        "bm25_msearch": _score_oracle().bm25_msearch_sql(
            (("merge", "scan"), ("row", "column"), ("fast", "batch")), 10),
        "rag_search": _score_oracle().rag_search_sql(
            ("merge", "scan"), 10, 100, 64, 48),
        "suggest_complete": _score_oracle().suggest_complete_sql("s", 10),
        "bm25_msm": _score_oracle().bm25_topk_sql(
            ("merge", "scan", "row"), 20, 1.2, 0.75, min_match=2),
        "bm25_synonyms": _score_oracle().bm25_synonyms_sql(
            (("merge", "join"), ("scan",)), 20),
        "bm25_value_boost": _score_oracle().bm25_value_boost_sql(
            ("merge", "scan"), 20),
        "bm25_decay": _score_oracle().bm25_decay_sql(
            ("merge", "scan"), 20),
        "bm25_span_first": _score_oracle().bm25_span_first_sql(
            "merge", 10, 20),
        # stem-aware (round 4, ADVICE): raw tokens sharing a Porter2 stem
        # fold to the group's lexicographically-least member — exactly
        # the engine's surface naming of a stem row — via a CASE built
        # from the closed generator vocabulary (_docs_stem_fold)
        "term_vectors": f"""
            WITH toks AS (SELECT doc_id, {_docs_stem_fold()} AS tok
                          FROM (SELECT doc_id,
                                       unnest(regexp_extract_all(
                                           lower(text), '[a-z0-9]+')) AS tok
                                FROM documents)),
            sel AS (SELECT doc_id, tok, count(*) AS tf FROM toks
                    WHERE doc_id IN (3, 7, 11) GROUP BY 1, 2),
            stat AS (SELECT tok, count(DISTINCT doc_id) AS df,
                            count(*) AS cf
                     FROM toks GROUP BY tok)
            SELECT sel.doc_id, sel.tok AS term, CAST(tf AS BIGINT) AS tf,
                   CAST(df AS BIGINT) AS df, CAST(cf AS BIGINT) AS cf
            FROM sel JOIN stat USING (tok)
            ORDER BY sel.doc_id, term""",
        # federated == single-index ranking by construction (module doc)
        "federated_bm25": _score_oracle().bm25_topk_sql(
            ("merge", "scan"), 20, 1.2, 0.75),
        # posting-level merge == unified index by construction
        "merged_index_bm25": _score_oracle().bm25_topk_sql(
            ("merge", "scan"), 20, 1.2, 0.75),
        "split_index_bm25": _score_oracle().split_bm25_sql(),
        "rank_eval": _score_oracle().rank_eval_sql(),
        "bm25_dismax": _score_oracle().bm25_dismax_sql(
            ("merge", "src3", "en"),
            (("text", 1.0), ("source", 0.7), ("lang", 0.3)), 0.3, 20),
        "bm25_phrase_prefix": _score_oracle().bm25_phrase_prefix_sql(
            ("window",), "jo", 20),
        "did_you_mean_phrase": _score_oracle().did_you_mean_phrase_sql(
            ("mrge", "scn")),
        "collapse_topk": _score_oracle().collapse_topk_sql(
            ("merge", "scan"), "source", 10),
        "top_hits": _score_oracle().top_hits_sql(
            ("merge", "scan"), "source", 3, 10),
        "terms_facet": _score_oracle().terms_facet_sql(
            ("merge",), "lang", 10),
        "cardinality_agg": _score_oracle().cardinality_agg_sql(
            ("merge",), "source"),
        "filters_agg": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                         AS tok
              FROM documents)
            SELECT * FROM (
              SELECT 'merge_docs' AS name,
                     count(DISTINCT doc_id) AS n FROM toks
              WHERE tok = 'merge'
              UNION ALL
              SELECT 'scan_docs', count(DISTINCT doc_id) FROM toks
              WHERE tok = 'scan'
              UNION ALL
              SELECT 'either', count(DISTINCT doc_id) FROM toks
              WHERE tok IN ('merge', 'scan'))""",
        "adjacency_matrix": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                         AS tok
              FROM documents),
            m AS (SELECT DISTINCT doc_id FROM toks WHERE tok = 'merge'),
            s AS (SELECT DISTINCT doc_id FROM toks WHERE tok = 'scan'),
            r AS (SELECT DISTINCT doc_id FROM toks WHERE tok = 'row')
            SELECT * FROM (
              SELECT 'merge_docs' AS key, count(*) AS n FROM m
              UNION ALL SELECT 'scan_docs', count(*) FROM s
              UNION ALL SELECT 'row_docs', count(*) FROM r
              UNION ALL SELECT 'merge_docs&scan_docs', count(*)
                        FROM m JOIN s USING (doc_id)
              UNION ALL SELECT 'merge_docs&row_docs', count(*)
                        FROM m JOIN r USING (doc_id)
              UNION ALL SELECT 'scan_docs&row_docs', count(*)
                        FROM s JOIN r USING (doc_id))""",
        "histogram_facet": _score_oracle().histogram_facet_sql(
            ("merge",), "n_chars", 200),
        "composite_agg": _score_oracle().composite_agg_sql(
            ("merge",), "source", "n_chars", 100, 15, ("src12", 200)),
        "extended_stats": _score_oracle().extended_stats_sql(
            ("merge",), "n_chars"),
        "rare_terms": _score_oracle().rare_terms_sql(
            ("merge",),
            "GREATEST(100, (SELECT count(*) FROM documents) // 10)", 20),
        "significant_terms": _score_oracle().significant_terms_sql(
            ("merge",), 10),
        "percentiles_agg": _score_oracle().percentiles_agg_sql(
            ("merge",), "n_chars", (25, 50, 75, 95, 99)),
        "rerank_topk": _score_oracle().rerank_topk_sql(
            ("merge", "scan"), 100, 10),
        "mmr_rerank": _score_oracle().mmr_rerank_sql(
            ("merge", "scan"), 10, 20, 0.7),
        "explain_score": _score_oracle().explain_score_sql(
            ("merge", "scan")),
        "index_stats": _score_oracle().index_stats_sql(),
        "percolate": _score_oracle().percolate_sql(
            _percolate_qspec()),
        "search_term_topk": _score_oracle().term_topk_sql("merge", 20),
        "search_phrase_topk": _score_oracle().phrase_topk_sql(
            "row", "scan", 20),
        "incremental_upsert": _score_oracle().values_corpus_term_sql([
            ("a", 0, "updated fox text entirely"),
            ("a", 1, "lazy dogs sleep"),
            ("b", 0, "fox hunting season"),
            ("c", 0, "quick quick fox"),
        ], "fox", 10),
        "lifecycle_compact": _score_oracle().values_corpus_term_sql([
            ("a", 0, "updated fox text entirely"),
            ("b", 0, "fox hunting season"),
            ("c", 0, "quick quick fox"),
        ], "fox", 10),
        "lifecycle_merge": _score_oracle().values_corpus_term_sql([
            ("a", 0, "updated fox text entirely"),
            ("b", 0, "fox hunting season"),
            ("c", 0, "quick quick fox"),
            ("d", 0, "fox fox fox den"),
        ], "fox", 10),
        "delete_by_query": _score_oracle().values_corpus_term_sql([
            ("a", 1, "dogs sleep all day"),
            ("d", 0, "birds sing and cats sleep"),
        ], "sleep", 10),
        "nested_delete_by_query": """
            SELECT * FROM (VALUES ('b')) AS t(_id)""",
        "search_export": """
            SELECT doc_id, lang, source, n_chars FROM documents
            WHERE lang = 'en' AND n_chars > 300 ORDER BY doc_id""",
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(sum(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "orders_topk": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10""",
        "region_nations_concat": """
            SELECT r_name, string_agg(n_name, ',' ORDER BY n_name) AS nations
            FROM nation JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name""",
        "events_hourly": """
            SELECT date_trunc('hour', ts) AS hour, event_type,
                   count(*) AS n_events,
                   CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_cents
            FROM events GROUP BY 1, 2""",
        # pipeline agg: trailing 3-existing-bucket moving average
        "events_hourly_ma": """
            WITH h AS (SELECT date_trunc('hour', ts) AS hour, event_type,
                              count(*) AS n_events
                       FROM events GROUP BY 1, 2)
            SELECT hour, event_type, n_events,
                   ROUND(AVG(CAST(n_events AS DOUBLE)) OVER (
                       PARTITION BY event_type ORDER BY hour
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4)
                       AS ma
            FROM h""",
        # pipeline aggs: derivative vs previous existing bucket +
        # running cumulative sum (ES derivative / cumulative_sum)
        "events_hourly_pipeline": """
            WITH h AS (SELECT date_trunc('hour', ts) AS hour, event_type,
                              count(*) AS n_events
                       FROM events GROUP BY 1, 2)
            SELECT hour, event_type, CAST(n_events AS BIGINT) AS n_events,
                   CAST(n_events - LAG(n_events) OVER (
                       PARTITION BY event_type ORDER BY hour) AS DOUBLE)
                       AS deriv,
                   CAST(SUM(n_events) OVER (
                       PARTITION BY event_type ORDER BY hour
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum
            FROM h""",
        "orders_by_segment": """
            SELECT c_mktsegment, count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        "shipdate_range_counts": """
            SELECT l_returnflag, count(*) AS n_rows FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
            GROUP BY l_returnflag""",
        "sessionize": """
            SELECT user_id,
                   CAST(1 + sum(CASE WHEN gap THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
            FROM (
                SELECT user_id,
                       ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                           > INTERVAL 30 MINUTE AS gap
                FROM events
            ) GROUP BY user_id""",
        "asof_latest_order": """
            SELECT e.event_id, o.o_orderdate AS asof_date
            FROM events e ASOF JOIN orders o
              ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts
            ORDER BY e.event_id""",
        "prev_event": """
            SELECT event_id,
                   coalesce(lag(event_id) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id), -1)
                       AS prev_event_id
            FROM events ORDER BY event_id""",
        "dedup_exact": """
            SELECT CAST(min(doc_id) AS BIGINT) AS doc_id
            FROM documents GROUP BY md5(text)""",
        "ngram_jaccard_pairs": f"""
            WITH tok AS (
                SELECT doc_id, {_TOK} AS t FROM documents WHERE doc_id < 300
            ),
            g AS (
                SELECT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS gram
                FROM tok, UNNEST(range(1, array_length(t) - 1)) AS u(i)
                WHERE array_length(t) >= 3
                UNION
                SELECT doc_id, array_to_string(t, ' ') AS gram
                FROM tok WHERE array_length(t) BETWEEN 1 AND 2
            ),
            sizes AS (SELECT doc_id, count(DISTINCT gram) AS n FROM g GROUP BY doc_id),
            inter AS (
                SELECT a.doc_id AS a_id, b.doc_id AS b_id,
                       count(DISTINCT a.gram) AS i
                FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT a_id, b_id FROM inter
            JOIN sizes sa ON sa.doc_id = a_id
            JOIN sizes sb ON sb.doc_id = b_id
            WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.5""",
        "embedding_dup_pairs": """
            SELECT a.vec_id AS a_id, b.vec_id AS b_id
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45""",
        # the bucketed path verifies candidates with exact cosine
        # (precision 1.0); its 48-table LSH recall is 1.0 on this corpus
        # (pair-set equality with brute force asserted in
        # tests/test_ops_dedup.py), so the brute-force SQL is its oracle
        "embedding_dup_pairs_bucketed": """
            SELECT a.vec_id AS a_id, b.vec_id AS b_id
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45""",
        # exact SQL replicas of the LSH hash pipelines (see oracle_sqlgen)
        "minhash_lsh_pairs": _sqlgen().minhash_lsh_pairs_sql(),
        "winnow_fingerprints": _sqlgen().winnow_fingerprints_sql(),
        "winnow_dup_pairs": _sqlgen().winnow_dup_pairs_sql(),
        "simhash_pairs": _sqlgen().simhash_pairs_sql(),
        "langid": _sqlgen().langid_sql(),
        "ann_bucketed": _sqlgen().ann_bucketed_sql(),
        "ann_ivf": _sqlgen().ann_ivf_sql(),
        "ann_filtered": _sqlgen().ann_filtered_sql(),
        "ann_ivf_filtered": _sqlgen().ann_ivf_sql(nprobe=8, label=3),
        # the persistent filtered-index path reproduces ann_ivf_filtered
        # exactly (same centroids/nprobe/ties), so it shares the oracle
        "ann_ivf_filtered_indexed": _sqlgen().ann_ivf_sql(nprobe=8,
                                                          label=3),
        # the persistent-index path reproduces ann_ivf exactly, so it
        # shares the oracle (build/vector_index.py; pruning proven in
        # tests/test_vector_index.py by deleting unprobed lists)
        "ann_ivf_indexed": _sqlgen().ann_ivf_sql(),
        "ann_topk": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5),
            c AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id >= 5),
            s AS (SELECT qid, vec_id,
                         list_cosine_similarity(qe, embedding) AS sim FROM q, c),
            r AS (SELECT qid AS query_id, vec_id,
                         row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
                  FROM s)
            SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id
            FROM r WHERE rank <= 10""",
        "chunk_documents": """
            WITH t AS (SELECT doc_id,
                              regexp_extract_all(lower(text), '[a-z0-9]+')
                                AS toks
                       FROM documents),
            s AS (SELECT doc_id, toks,
                         unnest(range(0, len(toks), 48)) AS start FROM t),
            k AS (SELECT doc_id, CAST(start // 48 AS BIGINT) AS chunk_idx,
                         list_slice(toks, start + 1, start + 64) AS ck
                  FROM s WHERE start = 0 OR start + 64 - 48 < len(toks))
            SELECT doc_id, chunk_idx, array_to_string(ck, ' ') AS chunk_text,
                   CAST(len(ck) AS BIGINT) AS n_tokens
            FROM k ORDER BY doc_id, chunk_idx""",
        "token_stats": f"""
            SELECT doc_id,
                   CAST(coalesce(array_length({_TOK}), 0) AS BIGINT) AS n_tokens,
                   CAST(coalesce(array_length(list_distinct({_TOK})), 0) AS BIGINT) AS n_distinct
            FROM documents""",
        "fingerprint": """
            SELECT doc_id,
                   md5(regexp_replace(lower(text), '[ \\t\\n\\x0b\\x0c\\r]+', ' ', 'g')) AS fp
            FROM documents""",
        "quality_bucket": f"""
            SELECT doc_id,
                   CAST((n_chars >= 200)::INT
                        + (coalesce(array_length({_TOK}), 0) >= 40)::INT AS BIGINT) AS bucket
            FROM documents""",
        "payload_metadata": """
            SELECT doc_id, CAST(octet_length(encode(text)) AS BIGINT) AS n_bytes,
                   md5(text) AS digest
            FROM documents""",
        # real-PNG decode: the engine round-trips genuine PNG bytes
        # (ops/png.py encode → chunk-walk/CRC/inflate/unfilter decode);
        # the oracle recomputes the synthetic image's closed-form pixel
        # sums without touching bytes — a decode bug cannot cancel out
        "payload_decode": """
            WITH dims AS (
                SELECT doc_id,
                       8 + doc_id % 9 AS width,
                       8 + (doc_id * 7) % 9 AS height
                FROM documents),
            px AS (
                SELECT d.doc_id, d.width, d.height,
                       ((d.doc_id * 31 + y.y * 17 + x.x * 5) % 256) AS r,
                       ((d.doc_id * 31 + y.y * 17 + x.x * 5 + 11) % 256) AS g,
                       ((d.doc_id * 31 + y.y * 17 + x.x * 5 + 22) % 256) AS b
                FROM dims d,
                     UNNEST(range(0, d.height)) AS y(y),
                     UNNEST(range(0, d.width)) AS x(x))
            SELECT doc_id, CAST(width AS BIGINT) AS width,
                   CAST(height AS BIGINT) AS height,
                   CAST(3 AS BIGINT) AS channels,
                   CAST(sum(r) AS BIGINT) AS sum_r,
                   CAST(sum(g) AS BIGINT) AS sum_g,
                   CAST(sum(b) AS BIGINT) AS sum_b
            FROM px GROUP BY doc_id, width, height""",
        # real-JPEG decode: baseline-DCT Huffman/IDCT/color-convert in
        # the engine (ops/jpeg.py); block-constant synth images give
        # exact DC-only round-trips, so the oracle recomputes the full
        # integer chain (RGB -> rounded JFIF YCbCr -> rounded inverse)
        # per 8x8 block in closed form — a decode bug cannot cancel out
        "jpeg_decode": """
            WITH dims AS (
                SELECT doc_id,
                       8 * (1 + doc_id % 3) AS width,
                       8 * (1 + (doc_id * 5 + 1) % 3) AS height
                FROM documents),
            blk AS (
                SELECT d.doc_id, d.width, d.height,
                       ((d.doc_id * 31 + by.by * 17 + bx.bx * 5) % 256)
                           AS r,
                       ((d.doc_id * 31 + by.by * 17 + bx.bx * 5 + 11)
                           % 256) AS g,
                       ((d.doc_id * 31 + by.by * 17 + bx.bx * 5 + 22)
                           % 256) AS b
                FROM dims d,
                     UNNEST(range(0, d.height // 8)) AS by(by),
                     UNNEST(range(0, d.width // 8)) AS bx(bx)),
            ycc AS (
                SELECT doc_id, width, height,
                       LEAST(255, GREATEST(0, floor(
                           0.299 * r + 0.587 * g + 0.114 * b + 0.5)))
                           AS y,
                       LEAST(255, GREATEST(0, floor(
                           128.0 - 0.168736 * r - 0.331264 * g
                           + 0.5 * b + 0.5))) AS cb,
                       LEAST(255, GREATEST(0, floor(
                           128.0 + 0.5 * r - 0.418688 * g
                           - 0.081312 * b + 0.5))) AS cr
                FROM blk),
            rgb AS (
                SELECT doc_id, width, height,
                       LEAST(255, GREATEST(0, floor(
                           y + 1.402 * (cr - 128.0) + 0.5))) AS r2,
                       LEAST(255, GREATEST(0, floor(
                           y - 0.344136 * (cb - 128.0)
                           - 0.714136 * (cr - 128.0) + 0.5))) AS g2,
                       LEAST(255, GREATEST(0, floor(
                           y + 1.772 * (cb - 128.0) + 0.5))) AS b2
                FROM ycc)
            SELECT doc_id, CAST(width AS BIGINT) AS width,
                   CAST(height AS BIGINT) AS height,
                   CAST(3 AS BIGINT) AS channels,
                   CAST(64 * sum(r2) AS BIGINT) AS sum_r,
                   CAST(64 * sum(g2) AS BIGINT) AS sum_g,
                   CAST(64 * sum(b2) AS BIGINT) AS sum_b
            FROM rgb GROUP BY doc_id, width, height""",
        # real-WAV decode: RIFF chunk walk + PCM16 validation in the
        # engine; the oracle recomputes the closed-form sample stats
        "audio_decode": """
            WITH dims AS (
                SELECT doc_id,
                       256 + (doc_id * 13) % 256 AS n_samples,
                       8000 + (doc_id % 4) * 4000 AS sample_rate
                FROM documents),
            smp AS (
                SELECT d.doc_id, d.n_samples, d.sample_rate,
                       abs(((d.doc_id * 37 + i.i * 71) % 4096) - 2048) AS a
                FROM dims d, UNNEST(range(0, d.n_samples)) AS i(i))
            SELECT doc_id, CAST(n_samples AS BIGINT) AS n_samples,
                   CAST(sample_rate AS BIGINT) AS sample_rate,
                   CAST(1 AS BIGINT) AS channels,
                   CAST(sum(a) AS BIGINT) AS sum_abs,
                   CAST(max(a) AS BIGINT) AS peak
            FROM smp GROUP BY doc_id, n_samples, sample_rate""",
        # container parse + per-frame real PNG decode; oracle recomputes
        # every sampled frame's pixel sums in closed form
        "video_frames": """
            WITH clips AS (
                SELECT doc_id,
                       4 + doc_id % 5 AS n_frames,
                       8 + doc_id % 5 AS width,
                       8 + (doc_id * 3) % 5 AS height
                FROM documents),
            fr AS (
                SELECT c.doc_id, f.f AS frame_idx, c.width, c.height
                FROM clips c, UNNEST(range(0, c.n_frames)) AS f(f)
                WHERE f.f % 2 = 0),
            px AS (
                SELECT fr.doc_id, fr.frame_idx, fr.width, fr.height,
                       ((fr.doc_id * 31 + fr.frame_idx * 131
                         + y.y * 17 + x.x * 5) % 256) AS r,
                       ((fr.doc_id * 31 + fr.frame_idx * 131
                         + y.y * 17 + x.x * 5 + 11) % 256) AS g,
                       ((fr.doc_id * 31 + fr.frame_idx * 131
                         + y.y * 17 + x.x * 5 + 22) % 256) AS b
                FROM fr,
                     UNNEST(range(0, fr.height)) AS y(y),
                     UNNEST(range(0, fr.width)) AS x(x))
            SELECT doc_id, CAST(frame_idx AS BIGINT) AS frame_idx,
                   CAST(width AS BIGINT) AS width,
                   CAST(height AS BIGINT) AS height,
                   CAST(sum(r) AS BIGINT) AS sum_r,
                   CAST(sum(g) AS BIGINT) AS sum_g,
                   CAST(sum(b) AS BIGINT) AS sum_b
            FROM px GROUP BY doc_id, frame_idx, width, height""",
        # geospatial: closed-form point per doc (ops/geo._lonlat), so
        # bbox membership / radius distance recompute without the index
        "geo_bbox": """
            WITH pts AS (
                SELECT doc_id,
                       -180.0 + (doc_id * 7919 % 36000) / 100.0 AS lon,
                       -90.0 + (doc_id * 104729 % 18000) / 100.0 AS lat
                FROM documents)
            SELECT 'p' || CAST(doc_id AS VARCHAR) AS _id
            FROM pts
            WHERE lon BETWEEN -60.0 AND 40.0
              AND lat BETWEEN -25.0 AND 35.0
            ORDER BY _id""",
        "geo_distance": """
            WITH pts AS (
                SELECT doc_id,
                       -180.0 + (doc_id * 7919 % 36000) / 100.0 AS lon,
                       -90.0 + (doc_id * 104729 % 18000) / 100.0 AS lat
                FROM documents),
            d AS (
                SELECT 'p' || CAST(doc_id AS VARCHAR) AS _id,
                       ROUND(sqrt((lon - 10.0) * (lon - 10.0)
                                  + (lat - 5.0) * (lat - 5.0)), 6) AS dist
                FROM pts
                WHERE (lon - 10.0) * (lon - 10.0)
                      + (lat - 5.0) * (lat - 5.0) <= 1600.0)
            SELECT _id, dist FROM d ORDER BY dist, _id LIMIT 50""",
        "geo_grid_agg": """
            WITH pts AS (
                SELECT doc_id,
                       -180.0 + (doc_id * 7919 % 36000) / 100.0 AS lon,
                       -90.0 + (doc_id * 104729 % 18000) / 100.0 AS lat
                FROM documents),
            cells AS (
                SELECT CAST(floor((lon + 180.0) / 10.0) AS BIGINT) AS tile_x,
                       CAST(floor((lat + 90.0) / 10.0) AS BIGINT) AS tile_y,
                       count(*) AS n
                FROM pts GROUP BY 1, 2)
            SELECT tile_x, tile_y, CAST(n AS BIGINT) AS n FROM cells
            ORDER BY n DESC, tile_x, tile_y LIMIT 30""",
        # integer grid indices (doc_id*7919 % 36000 IS rint((lon+180)*100))
        # keep the centroid sums exact; one identical f64 division + round
        "geo_centroid": """
            WITH pts AS (
                SELECT doc_id,
                       doc_id * 7919 % 36000 AS klon,
                       doc_id * 104729 % 18000 AS klat,
                       -180.0 + (doc_id * 7919 % 36000) / 100.0 AS lon,
                       -90.0 + (doc_id * 104729 % 18000) / 100.0 AS lat
                FROM documents)
            SELECT CAST(count(*) AS BIGINT) AS n,
                   ROUND(SUM(klon) / (100.0 * count(*)) - 180.0, 6) AS lon,
                   ROUND(SUM(klat) / (100.0 * count(*)) - 90.0, 6) AS lat
            FROM pts
            WHERE lon BETWEEN -60.0 AND 40.0
              AND lat BETWEEN -25.0 AND 35.0""",
        "payload_features": """
            SELECT doc_id,
                   CAST(length(text) AS DOUBLE) AS f_len,
                   CAST(length(text) - length(replace(text, ' ', ''))
                        AS DOUBLE) AS f_spaces,
                   CAST(length(regexp_replace(text, '[^aeiou]', '', 'g'))
                        AS DOUBLE) AS f_vowels,
                   CAST(length(regexp_replace(text, '[^0-9]', '', 'g'))
                        AS DOUBLE) AS f_digits
            FROM documents""",
        "payload_resize": """
            SELECT doc_id,
                   CAST(least(octet_length(encode(text)), 64) AS BIGINT)
                       AS n_bytes_out
            FROM documents""",
        "frame_sample": """
            SELECT d.doc_id, CAST(u.f AS BIGINT) AS frame_idx,
                   substr(d.text, CAST(u.f * 16 + 1 AS INT), 16) AS frame
            FROM documents d,
                 UNNEST(range(0, CAST(ceil(length(d.text) / 16.0) AS INT), 4))
                     AS u(f)""",
    }
    # span-level exact-substring dedup (Lee et al.): literal window
    # strings + gaps-and-islands merge — the engine's 64-bit window
    # hashes and vectorized island fold must reproduce this exactly
    sqls["duplicate_spans"] = f"""
        WITH toks AS (SELECT doc_id, {_TOK} AS t FROM documents),
        win AS (SELECT doc_id, CAST(i.i - 1 AS BIGINT) AS s,
                       array_to_string(t[i.i:i.i+11], ' ') AS w
                FROM toks, UNNEST(range(1, array_length(t) - 10)) AS i(i)
                WHERE array_length(t) >= 12),
        dup AS (SELECT w FROM win GROUP BY w
                HAVING count(DISTINCT doc_id) >= 2),
        kept AS (SELECT win.doc_id, win.s FROM win JOIN dup USING (w)),
        num AS (SELECT doc_id, s,
                       CASE WHEN s - LAG(s) OVER (
                                PARTITION BY doc_id ORDER BY s) <= 12
                            THEN 0 ELSE 1 END AS brk
                FROM kept),
        grp AS (SELECT doc_id, s,
                       SUM(brk) OVER (PARTITION BY doc_id ORDER BY s
                                      ROWS UNBOUNDED PRECEDING) AS g
                FROM num)
        SELECT doc_id, MIN(s) AS start_tok,
               CAST(MAX(s) + 11 AS BIGINT) AS end_tok,
               count(*) AS n_windows
        FROM grp GROUP BY doc_id, g ORDER BY doc_id, start_tok"""
    # span REMOVAL: the same spans CTE, then token-position anti-join +
    # ordered string_agg rebuild of the cleaned analyzer-normalized text
    sqls["remove_duplicate_spans"] = f"""
        WITH toks AS (SELECT doc_id, {_TOK} AS t FROM documents),
        win AS (SELECT doc_id, CAST(i.i - 1 AS BIGINT) AS s,
                       array_to_string(t[i.i:i.i+11], ' ') AS w
                FROM toks, UNNEST(range(1, array_length(t) - 10)) AS i(i)
                WHERE array_length(t) >= 12),
        dup AS (SELECT w FROM win GROUP BY w
                HAVING count(DISTINCT doc_id) >= 2),
        kept AS (SELECT win.doc_id, win.s FROM win JOIN dup USING (w)),
        num AS (SELECT doc_id, s,
                       CASE WHEN s - LAG(s) OVER (
                                PARTITION BY doc_id ORDER BY s) <= 12
                            THEN 0 ELSE 1 END AS brk
                FROM kept),
        grp AS (SELECT doc_id, s,
                       SUM(brk) OVER (PARTITION BY doc_id ORDER BY s
                                      ROWS UNBOUNDED PRECEDING) AS g
                FROM num),
        spans AS (SELECT doc_id, MIN(s) AS s0, MAX(s) + 11 AS e0
                  FROM grp GROUP BY doc_id, g),
        tk AS (SELECT doc_id, unnest(t) AS tok,
                      CAST(generate_subscripts(t, 1) - 1 AS BIGINT) AS p
               FROM toks),
        rem AS (SELECT DISTINCT tk.doc_id, tk.p
                FROM tk JOIN spans s
                  ON tk.doc_id = s.doc_id AND tk.p BETWEEN s.s0 AND s.e0),
        keptk AS (SELECT tk.doc_id, tk.tok, tk.p
                  FROM tk LEFT JOIN rem
                    ON tk.doc_id = rem.doc_id AND tk.p = rem.p
                  WHERE rem.p IS NULL),
        agg AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY p) AS ct
                FROM keptk GROUP BY doc_id),
        remc AS (SELECT doc_id, count(*) AS n_removed
                 FROM rem GROUP BY doc_id)
        SELECT d.doc_id, coalesce(a.ct, '') AS clean_text,
               CAST(coalesce(r.n_removed, 0) AS BIGINT) AS n_removed
        FROM documents d
        LEFT JOIN agg a USING (doc_id)
        LEFT JOIN remc r USING (doc_id)
        ORDER BY d.doc_id"""
    # duplicate-cluster closures: the same pair SQL each operator's pair
    # stage is oracled by, wrapped in a recursive-CTE connected-components
    # closure (ops/oracle_sqlgen.py)
    # forced-distributed entries compute the SAME result through the
    # worker_pool dispatch — they share the plain entries' oracles
    for plain in ("bm25_topk", "bm25_synonyms", "significant_terms",
                  "rare_terms", "terms_facet", "rank_eval",
                  "nested_kp_bm25", "geo_distance", "geo_centroid"):
        sqls[f"dist_{plain}"] = sqls[plain]
    sqls["part_remove_duplicate_spans"] = sqls["remove_duplicate_spans"]
    sqls["dedup_clusters"] = _sqlgen().closure_sql(sqls["ngram_jaccard_pairs"])
    sqls["dedup_clusters_lsh"] = _sqlgen().closure_sql(
        sqls["minhash_lsh_pairs"])
    sqls["dedup_keep_first"] = _sqlgen().keep_first_sql(
        sqls["minhash_lsh_pairs"])
    sqls["kmeans_embeddings"] = _sqlgen().kmeans_sql()
    sqls["semdedup"] = _sqlgen().semdedup_sql()
    sqls["pca_project"] = _sqlgen().pca_project_sql()
    sqls["countmin_heavy"] = _sqlgen().countmin_heavy_sql()
    sqls["hll_distinct"] = _sqlgen().hll_distinct_sql()
    # substring dedup: star edges (doc, per-window min) over the literal
    # 12-token window strings, then the same recursive closure
    sqls["substring_dup_clusters"] = _sqlgen().closure_sql(f"""
        WITH tok AS (SELECT doc_id, {_TOK} AS t FROM documents),
        win AS (SELECT DISTINCT doc_id, array_to_string(t[i:i+11], ' ') AS win
                FROM tok, UNNEST(range(1, array_length(t) - 10)) AS u(i)
                WHERE array_length(t) >= 12),
        m AS (SELECT win, min(doc_id) AS mn FROM win GROUP BY win)
        SELECT DISTINCT win.doc_id AS a_id, m.mn AS b_id
        FROM win JOIN m USING (win) WHERE win.doc_id <> m.mn""")
    sqls["top_terms"] = f"""
        WITH tok AS (SELECT unnest({_TOK}) AS term FROM documents)
        SELECT term, CAST(count(*) AS BIGINT) AS n FROM tok
        GROUP BY term ORDER BY n DESC, term LIMIT 25"""
    sqls["grouped_topk"] = """
        SELECT source, doc_id, CAST(n_chars AS BIGINT) AS n_chars,
               CAST(rank AS BIGINT) AS rank
        FROM (SELECT source, doc_id, n_chars,
                     row_number() OVER (PARTITION BY source
                         ORDER BY n_chars DESC, doc_id) AS rank
              FROM documents)
        WHERE rank <= 3 ORDER BY source, rank"""
    # integer rank semantics (smallest k with 100*k >= pct*n) shared
    # verbatim with the histogram finalize — no float percentile ambiguity
    sqls["char_percentiles"] = """
        WITH r AS (SELECT lang, n_chars,
                          row_number() OVER (PARTITION BY lang
                                             ORDER BY n_chars) AS rn,
                          count(*) OVER (PARTITION BY lang) AS n
                   FROM documents)
        SELECT lang,
               CAST(min(CASE WHEN 100*rn >= 50*n THEN n_chars END)
                    AS BIGINT) AS p50,
               CAST(min(CASE WHEN 100*rn >= 90*n THEN n_chars END)
                    AS BIGINT) AS p90,
               CAST(min(CASE WHEN 100*rn >= 99*n THEN n_chars END)
                    AS BIGINT) AS p99
        FROM r GROUP BY lang ORDER BY lang"""
    # deterministic hash sample: the same splitmix64(doc_id) < 10% of
    # hash space, inlined as HUGEINT mod-2**64 SQL
    _sm = _sqlgen()._sm
    sqls["sample_stratified"] = f"""
        SELECT doc_id, lang FROM documents
        WHERE {_sm("CAST(doc_id AS UBIGINT)")}
              < CAST({(2**64 // 100) * 10} AS UBIGINT)
        ORDER BY doc_id"""
    # decontamination: corpus docs sharing any word 5-gram with the
    # benchmark slice (doc_id < 20), counting DISTINCT shared 5-grams
    sqls["benchmark_contamination"] = f"""
        WITH toks AS (SELECT doc_id, {_TOK} AS ts FROM documents),
        g AS (SELECT doc_id,
                     ts[i]||' '||ts[i+1]||' '||ts[i+2]||' '||ts[i+3]
                          ||' '||ts[i+4] AS gram
              FROM toks, UNNEST(generate_series(1, len(ts)-4)) AS s(i)
              WHERE len(ts) >= 5),
        b AS (SELECT DISTINCT gram FROM g WHERE doc_id < 20)
        SELECT g.doc_id, CAST(count(DISTINCT g.gram) AS BIGINT) AS n_shared
        FROM g JOIN b USING (gram) WHERE g.doc_id >= 20
        GROUP BY g.doc_id ORDER BY g.doc_id"""
    # regex redaction: DuckDB's regexp_* and pyarrow's string kernels are
    # both re2, so the full redacted strings compare byte-exactly
    sqls["regex_redact"] = r"""
        SELECT doc_id,
               regexp_replace(text, '\bcustomer\b', '[REDACTED]', 'g')
                   AS redacted,
               CAST(len(regexp_extract_all(text, '\bcustomer\b'))
                    AS BIGINT) AS n_hits
        FROM documents ORDER BY doc_id"""
    from noise_ray.ops.text import PII_PATTERNS
    _pii = "|".join(f"(?:{p})" for p in PII_PATTERNS.values())
    sqls["pii_redact"] = f"""
        SELECT doc_id,
               regexp_replace(text, '{_pii}', '[PII]', 'g') AS redacted,
               CAST(len(regexp_extract_all(text, '{_pii}'))
                    AS BIGINT) AS n_hits
        FROM documents ORDER BY doc_id"""
    sqls["repetition_stats"] = f"""
        WITH toks AS (SELECT doc_id, {_TOK} AS ts FROM documents),
        g AS (SELECT doc_id, ts[i]||' '||ts[i+1] AS gram
              FROM toks, UNNEST(generate_series(1, len(ts)-1)) AS s(i)
              WHERE len(ts) >= 2),
        c AS (SELECT doc_id, gram, count(*) AS c FROM g GROUP BY 1, 2)
        SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_bigrams,
               CAST(count(*) AS BIGINT) AS n_distinct_bigrams,
               CAST(max(c) AS BIGINT) AS top_bigram_count
        FROM c GROUP BY doc_id ORDER BY doc_id"""
    # BPE-trainer statistic: adjacent byte pairs inside [a-z0-9]+ tokens
    sqls["bpe_pair_counts"] = f"""
        WITH tok AS (SELECT unnest({_TOK}) AS t FROM documents),
        p AS (SELECT substr(t, CAST(i AS INT), 2) AS pair
              FROM tok, UNNEST(generate_series(1, len(t) - 1)) AS s(i)
              WHERE len(t) >= 2)
        SELECT pair, CAST(count(*) AS BIGINT) AS n
        FROM p GROUP BY pair ORDER BY n DESC, pair LIMIT 20"""
    from noise_ray.ops.text import _GOPHER_STOPWORDS
    _stop_sql = ", ".join(f"'{w}'" for w in _GOPHER_STOPWORDS)
    sqls["quality_filter_gopher"] = f"""
        WITH t AS (SELECT doc_id, {_TOK} AS ts FROM documents),
        u AS (SELECT doc_id, unnest(ts) AS tok FROM t),
        a AS (SELECT doc_id, count(*) AS nt, sum(len(tok)) AS nc,
                     sum(CASE WHEN regexp_matches(tok, '[a-z]')
                              THEN 1 ELSE 0 END) AS na,
                     sum(CASE WHEN tok IN ({_stop_sql})
                              THEN 1 ELSE 0 END) AS ns
              FROM u GROUP BY doc_id)
        SELECT t.doc_id,
               CAST(coalesce(nt, 0) AS BIGINT) AS n_tokens,
               CAST(coalesce(nc, 0) AS BIGINT) AS n_tok_chars,
               CAST(coalesce(na, 0) AS BIGINT) AS n_alpha,
               CAST(coalesce(ns, 0) AS BIGINT) AS n_stop,
               CAST((coalesce(nt, 0) BETWEEN 5 AND 10000
                     AND 2 * coalesce(nt, 0) <= coalesce(nc, 0)
                     AND coalesce(nc, 0) <= 12 * coalesce(nt, 0)
                     AND 10 * coalesce(na, 0) >= 7 * coalesce(nt, 0)
                     AND coalesce(ns, 0) >= 2)::INT AS BIGINT) AS keep
        FROM t LEFT JOIN a USING (doc_id)"""
    # identical IEEE double tf/df on both sides; ties break on term
    sqls["tfidf_keywords"] = f"""
        WITH t AS (SELECT doc_id, unnest({_TOK}) AS term FROM documents),
        tf AS (SELECT doc_id, term, count(*) AS tf FROM t GROUP BY 1, 2),
        df AS (SELECT term, count(DISTINCT doc_id) AS df FROM t
               GROUP BY term),
        s AS (SELECT doc_id, term, tf, df,
                     row_number() OVER (PARTITION BY doc_id
                         ORDER BY CAST(tf AS DOUBLE) / df DESC, term)
                         AS rank
              FROM tf JOIN df USING (term))
        SELECT doc_id, CAST(rank AS BIGINT) AS rank, term,
               CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df
        FROM s WHERE rank <= 5 ORDER BY doc_id, rank"""
    sqls["bpe_train"] = _sqlgen().bpe_train_sql()
    sqls["bpe_encode_counts"] = _sqlgen().bpe_encode_counts_sql()
    sqls["kmv_distinct"] = _sqlgen().kmv_distinct_sql()
    sqls["dsir_select"] = _sqlgen().dsir_select_sql()
    # multinomial NB: V from the whole corpus vocabulary so unseen
    # tokens smooth identically; logodds 4dp, pred on the ROUNDED value
    sqls["nb_classify"] = f"""
        WITH toks AS (SELECT doc_id,
                             unnest(regexp_extract_all(lower(text),
                                                       '[a-z0-9]+')) AS tok
                      FROM documents),
        vt AS (SELECT DISTINCT tok FROM toks),
        nv AS (SELECT count(*) AS v FROM vt),
        pc AS (SELECT t.tok, count(*) AS n FROM toks t
               JOIN documents d USING (doc_id)
               WHERE d.source = 'src0' GROUP BY t.tok),
        nc AS (SELECT t.tok, count(*) AS n FROM toks t
               JOIN documents d USING (doc_id)
               WHERE d.source = 'src1' GROUP BY t.tok),
        tp AS (SELECT coalesce(sum(n), 0) AS n FROM pc),
        tn AS (SELECT coalesce(sum(n), 0) AS n FROM nc),
        dp AS (SELECT count(*) AS n FROM documents WHERE source = 'src0'),
        dn AS (SELECT count(*) AS n FROM documents WHERE source = 'src1'),
        lr AS (SELECT vt.tok,
                      ln((coalesce(pc.n, 0) + 1.0)
                         / (CAST((SELECT n FROM tp) AS DOUBLE)
                            + (SELECT v FROM nv)))
                    - ln((coalesce(nc.n, 0) + 1.0)
                         / (CAST((SELECT n FROM tn) AS DOUBLE)
                            + (SELECT v FROM nv))) AS r
               FROM vt LEFT JOIN pc USING (tok) LEFT JOIN nc USING (tok)),
        s AS (SELECT doc_id, sum(r) AS ts, count(*) AS ntok
              FROM toks JOIN lr USING (tok) GROUP BY doc_id)
        SELECT d.doc_id, CAST(coalesce(s.ntok, 0) AS BIGINT) AS n_tokens,
               round(ln(CAST((SELECT n FROM dp) AS DOUBLE)
                        / (SELECT n FROM dn))
                     + coalesce(s.ts, 0.0), 4) AS logodds,
               CAST((round(ln(CAST((SELECT n FROM dp) AS DOUBLE)
                              / (SELECT n FROM dn))
                           + coalesce(s.ts, 0.0), 4) > 0)::INT AS BIGINT)
                   AS pred
        FROM documents d LEFT JOIN s USING (doc_id)
        ORDER BY d.doc_id"""
    sqls["sliding_window_stats"] = """
        WITH e AS (SELECT event_id, user_id, ts,
                          CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
                   FROM events)
        SELECT event_id,
               CAST(count(*) OVER w AS BIGINT) AS n_window,
               CAST(sum(cents) OVER w AS BIGINT) AS sum_cents_window
        FROM e
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                     AND CURRENT ROW)
        ORDER BY event_id"""
    sqls["order_priority_revenue"] = """
        WITH l AS (SELECT l_orderkey,
                          CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                              AS cents
                   FROM lineitem)
        SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_items,
               CAST(sum(cents) AS BIGINT) AS revenue_cents
        FROM l JOIN orders ON l_orderkey = o_orderkey
        GROUP BY o_orderpriority ORDER BY o_orderpriority"""
    sqls["hopping_window_stats"] = """
        WITH e AS (SELECT ts, event_type,
                          CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
                   FROM events),
        w AS (SELECT make_timestamp(
                         (epoch_us(ts) // 900000000) * 900000000
                         - CAST(i AS BIGINT) * 900000000) AS window_start,
                     event_type, cents
              FROM e, UNNEST(generate_series(0, 3)) AS u(i))
        SELECT window_start, event_type,
               CAST(count(*) AS BIGINT) AS n_events,
               CAST(sum(cents) AS BIGINT) AS sum_cents
        FROM w GROUP BY 1, 2 ORDER BY window_start, event_type"""
    sqls["quality_filter_c4"] = r"""
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '[.!?]')) AS BIGINT)
                   AS n_sentences,
               CAST(contains(text, '{')::INT AS BIGINT) AS has_brace,
               CAST(contains(lower(text), 'lorem ipsum')::INT AS BIGINT)
                   AS has_lorem,
               CAST(regexp_matches(text, '[.!?"][ \t\r\n]*$')::INT
                    AS BIGINT) AS ends_punct,
               CAST((len(regexp_extract_all(text, '[.!?]')) >= 3
                     AND NOT contains(text, '{')
                     AND NOT contains(lower(text), 'lorem ipsum')
                     AND regexp_matches(text, '[.!?"][ \t\r\n]*$'))::INT
                    AS BIGINT) AS keep
        FROM documents"""
    sqls["surprising_bigrams"] = f"""
        WITH t AS (SELECT doc_id, {_TOK} AS ts FROM documents),
        g AS (SELECT doc_id, ts[CAST(i AS INT)] AS w1,
                     ts[CAST(i AS INT) + 1] AS w2
              FROM t, UNNEST(generate_series(1, len(ts) - 1)) AS s(i)
              WHERE len(ts) >= 2),
        bc AS (SELECT w1, w2, count(*) AS cb FROM g GROUP BY 1, 2),
        uc AS (SELECT w1, sum(cb) AS cp FROM bc GROUP BY w1),
        dg AS (SELECT DISTINCT doc_id, w1, w2 FROM g),
        s AS (SELECT doc_id, w1 || ' ' || w2 AS bigram, cb, cp,
                     row_number() OVER (PARTITION BY doc_id
                         ORDER BY CAST(cb AS DOUBLE) / cp ASC,
                                  w1 || ' ' || w2) AS rank
              FROM dg JOIN bc USING (w1, w2) JOIN uc USING (w1))
        SELECT doc_id, CAST(rank AS BIGINT) AS rank, bigram,
               CAST(cb AS BIGINT) AS c_bigram, CAST(cp AS BIGINT) AS c_prefix
        FROM s WHERE rank <= 3 ORDER BY doc_id, rank"""
    # bigram-LM perplexity: same MLE model as surprising_bigrams; the
    # per-doc mean of log2 terms is rounded to 4dp on both sides (the
    # score-oracle contract) and `keep` compares the ROUNDED value
    sqls["lm_perplexity"] = f"""
        WITH t AS (SELECT doc_id, {_TOK} AS ts FROM documents),
        g AS (SELECT doc_id, ts[CAST(i AS INT)] AS w1,
                     ts[CAST(i AS INT) + 1] AS w2
              FROM t, UNNEST(generate_series(1, len(ts) - 1)) AS s(i)
              WHERE len(ts) >= 2),
        bc AS (SELECT w1, w2, count(*) AS cb FROM g GROUP BY 1, 2),
        uc AS (SELECT w1, sum(cb) AS cp FROM bc GROUP BY w1),
        s AS (SELECT doc_id,
                     log2(CAST(cp AS DOUBLE)) - log2(CAST(cb AS DOUBLE))
                         AS nll
              FROM g JOIN bc USING (w1, w2) JOIN uc USING (w1))
        SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
               round(sum(nll) / count(*), 4) AS bits,
               CAST((round(sum(nll) / count(*), 4) <= 4.885)::INT
                    AS BIGINT) AS keep
        FROM s GROUP BY doc_id ORDER BY doc_id"""
    sqls["vocab_growth"] = f"""
        WITH t AS (SELECT source, unnest({_TOK}) AS term FROM documents),
        c AS (SELECT source, term, count(*) AS n FROM t GROUP BY 1, 2)
        SELECT source, CAST(sum(n) AS BIGINT) AS n_tokens,
               CAST(count(*) AS BIGINT) AS n_terms,
               CAST(sum((n = 1)::INT) AS BIGINT) AS n_hapax
        FROM c GROUP BY source ORDER BY source"""
    # composite corpus-prep: gopher keep -> PII redact -> exact
    # keep-first dedup on the redacted text (md5 groups == the Ray
    # side's 128-bit hash groups) -> prefix-sum packing of survivors
    sqls["corpus_prep"] = f"""
        WITH gop AS ({sqls['quality_filter_gopher']}),
        red AS (SELECT d.doc_id,
                       regexp_replace(d.text, '{_pii}', '[PII]', 'g')
                           AS rtext
                FROM documents d JOIN gop USING (doc_id)
                WHERE gop.keep = 1),
        m AS (SELECT md5(rtext) AS h, min(doc_id) AS mn
              FROM red GROUP BY 1),
        kept AS (SELECT r.doc_id, r.rtext FROM red r
                 JOIN m ON md5(r.rtext) = m.h AND r.doc_id = m.mn),
        t AS (SELECT doc_id,
                     coalesce(len(regexp_extract_all(lower(rtext),
                                                     '[a-z0-9]+')), 0) AS n
              FROM kept),
        s AS (SELECT doc_id, n,
                     coalesce(sum(n) OVER (ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS cb
              FROM t)
        SELECT doc_id, CAST(n AS BIGINT) AS n_tokens,
               CAST(cb // 256 AS BIGINT) AS pack_id
        FROM s ORDER BY doc_id"""
    sqls["pack_sequences"] = f"""
        WITH t AS (SELECT doc_id,
                          coalesce(len({_TOK}), 0) AS n FROM documents),
        s AS (SELECT doc_id, n,
                     coalesce(sum(n) OVER (ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS cb
              FROM t)
        SELECT doc_id, CAST(n AS BIGINT) AS n_tokens,
               CAST(cb // 256 AS BIGINT) AS pack_id
        FROM s ORDER BY doc_id"""
    from noise_ray.ops.mixing import _SPLIT_SALT, default_domain_rates
    _rates = default_domain_rates([f"src{i}" for i in range(20)])
    _u = 2**64 // 100
    _cases = " ".join(
        f"WHEN '{s}' THEN CAST({_u * p} AS UBIGINT)"
        for s, p in sorted(_rates.items()))
    _h2 = _sm(f"CAST(doc_id + {int(_SPLIT_SALT)} AS UBIGINT)")
    sqls["domain_mix_split"] = f"""
        SELECT doc_id, source,
               CAST(CASE WHEN {_h2} < CAST({_u * 98} AS UBIGINT) THEN 0
                         WHEN {_h2} < CAST({_u * 99} AS UBIGINT) THEN 1
                         ELSE 2 END AS BIGINT) AS split
        FROM documents
        WHERE {_sm("CAST(doc_id AS UBIGINT)")}
              < CASE source {_cases} END
        ORDER BY doc_id"""
    return sqls
