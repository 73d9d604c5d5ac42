"""Federated search: one exact BM25 ranking over many independent shards.

The multi-node shape every distributed search engine has (Elasticsearch
shards, Solr distributed search): the corpus lives in N INDEPENDENTLY
BUILT indexes — separate builds, separate manifests, separate doc-id
spaces — and a query must return the same ranking a single unified index
would give.  The subtlety is statistics: BM25's idf and avgdl are
corpus-wide, and a shard scoring with its LOCAL stats ranks differently
whenever term distributions differ across shards (Elasticsearch ships
``dfs_query_then_fetch`` precisely for this).  This operator makes the
global ranking exact with a two-phase protocol:

1. **stats phase** — each shard reports per-term df (block metadata
   only: Σ block cnt — no payload read), its doc count, and its token
   total (stats sidecar).  Shard doc-id spaces are disjoint, so the
   global stats are plain sums: ``N = Σ nᵢ``, ``df_t = Σ df_tᵢ``,
   ``avgdl = Σ tokᵢ / N``.
2. **query phase** — each shard scores its own docs with the GLOBAL
   stats (block-max WAND inside the shard when the segment format
   carries bounds) and returns a local top-k mapped to its STORED
   source key (docmap gather of k rows).  The union of shard top-ks
   provably contains the global top-k (per-doc scoring is independent),
   so the driver's merge of N·k rows is exact.

Because every per-doc f64 kernel runs with the same operand values in
the same order as the single-index fold, federated scores are
bit-identical to ``ops.bm25.bm25_topk`` over the unified corpus — the
oracle for the federated entry IS the plain single-index BM25 SQL.

Shards above 5M docs fan their two phases out per doc range through the
shared range-actor pool (the same path as ``_bm25_distributed``, with
federated global stats injected); small shards run in-process.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .bm25 import (
    _bm25_wand,
    _empty_topk,
    _fold_scores,
)

_CACHE_ROOT = os.environ.get("NOISE_RAY_CACHE", "/tmp/noise_ray_cache")
_LOCK = threading.Lock()


def shard_documents_indexes(sf_dir: str, n_shards: int = 2) -> list[str]:
    """Split the documents table into ``n_shards`` contiguous row
    slices and build one INDEPENDENT index per slice (own doc-id space
    0..nᵢ, own manifest; the original doc_id rides along as the stored
    source key).  Cached under /tmp per (sf, n_shards)."""
    import re

    from ..build import build_index

    m = re.search(r"sf([0-9.]+)", sf_dir)
    # non-sf corpora (synthetic scale dirs) key by their basename so two
    # different corpora never share a shard cache
    sf = m.group(1) if m else re.sub(r"[^A-Za-z0-9._-]", "_",
                                     os.path.basename(sf_dir.rstrip("/")))
    root = os.path.join(_CACHE_ROOT, f"documents-shards-{sf}-{n_shards}")
    marker = os.path.join(root, ".done")
    with _LOCK:
        if not os.path.exists(marker):
            t = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
            span = -(-t.num_rows // n_shards)
            for i in range(n_shards):
                sdir = os.path.join(root, f"shard-{i}")
                os.makedirs(sdir, exist_ok=True)
                part = t.slice(i * span, span)
                pq.write_table(part, os.path.join(sdir, "docs.parquet"))
                build_index([os.path.join(sdir, "docs.parquet")],
                            os.path.join(sdir, "index"),
                            fields=("text", "lang", "source"),
                            key_columns=("doc_id",), num_buckets=8)
            with open(marker, "w") as f:
                f.write("\n".join(
                    os.path.join(root, f"shard-{i}", "index")
                    for i in range(n_shards)))
    with open(marker) as f:
        return f.read().splitlines()


def federated_bm25(index_dirs: list[str], terms=("merge", "scan"),
                   k: int = 20, k1: float = 1.2, b: float = 0.75,
                   field: str = "text",
                   key_column: str = "src_doc_id") -> pa.Table:
    """Exact global BM25 top-k over independently built shard indexes
    (module docstring).  Returns (doc_id, score) keyed by each shard's
    stored ``key_column`` — the unified corpus key — ordered by
    (rounded score desc, key asc), bit-identical to single-index
    ``bm25_topk`` over the union corpus.

    Shards score in PARALLEL: each phase launches every shard's futures
    first (small shards as one ``ops_call`` each, big shards as per-doc-
    range tasks), then gathers once — the wall-clock per phase is the
    slowest shard, not the sum, matching the one-node-per-shard
    deployment this models.  Doc counts and token totals come from the
    driver-side readers' manifest/stats metadata (no payload read)."""
    from ..query.distributed import (_cached_reader, dist_min_docs,
                                     doc_ranges, pool_batched, worker_pool)
    from ..query.engine import _stem_one

    readers = [_cached_reader(d) for d in index_dirs]
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))
    n_docs = sum(float(r.num_docs) for r in readers)
    if not n_docs:
        return _empty_topk()
    tok_total = sum(r.token_total(r.field_id[field])
                    for r in readers)
    avgdl = tok_total / n_docs
    pool = worker_pool()
    big = [r.num_docs >= dist_min_docs() for r in readers]
    shard_ranges = [doc_ranges(r.num_docs) if bg else [(0, r.num_docs)]
                    for r, bg in zip(readers, big)]

    # ---- phase 1: per-shard df partials, all (shard, range) pairs in
    # ONE coalesced round (one remote call per worker)
    dr = [(d, lo, hi) for d, ranges in zip(index_dirs, shard_ranges)
          for lo, hi in ranges]
    df_parts = pool_batched(pool, [
        ("ops_call", ("bm25", "bm25_df_range", (d, field, stemmed, lo, hi)))
        for d, lo, hi in dr])
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]

    # ---- phase 2: per-shard local top-k with the GLOBAL stats, again
    # one coalesced round across every (shard, range)
    calls, owners = [], []
    for si, (d, ranges, bg) in enumerate(zip(index_dirs, shard_ranges,
                                             big)):
        if bg:
            for lo, hi in ranges:
                calls.append(("ops_call",
                              ("bm25", "bm25_score_range",
                               (d, field, stemmed, dfs, n_docs, avgdl,
                                k1, b, k, lo, hi))))
                owners.append(si)
        else:
            calls.append(("ops_call",
                          ("federated", "fed_topk_shard",
                           (d, field, stemmed, dfs, n_docs, avgdl, k1,
                            b, k))))
            owners.append(si)
    all_parts = pool_batched(pool, calls)

    keys_parts, score_parts = [], []
    for si, r in enumerate(readers):
        parts = [p for o, p in zip(owners, all_parts) if o == si]
        docs = np.concatenate([p[0] for p in parts])
        r4 = np.concatenate([p[1] for p in parts])
        if not docs.size:
            continue
        top = np.lexsort((docs, -r4))[:k]
        docs, r4 = docs[top], r4[top]
        # map k internal ids -> the stored source key (k-row gather)
        gkey = r.fetch_docs(docs, [key_column]).column(key_column)
        keys_parts.append(gkey.to_numpy(zero_copy_only=False)
                          .astype(np.int64))
        score_parts.append(r4)
    if not keys_parts:
        return _empty_topk()
    keys = np.concatenate(keys_parts)
    r4 = np.concatenate(score_parts)
    top = np.lexsort((keys, -r4))[:k]
    return pa.table({"doc_id": pa.array(keys[top], pa.int64()),
                     "score": pa.array(r4[top], pa.float64())})


def fed_topk_shard(index_dir: str, field: str, stemmed: list[str],
                   dfs, n_docs: float, avgdl: float, k1: float, b: float,
                   k: int):
    """Small-shard phase-2 worker body: the whole shard's top-k under
    the GLOBAL stats in one task (internal doc ids; the driver maps the
    k survivors to the stored key)."""
    from ..query.distributed import _cached_reader

    reader = _cached_reader(index_dir)
    fid = reader.field_id[field]
    res = _bm25_wand(reader, fid, stemmed, k, k1, b, n_docs, avgdl,
                     dfs=[float(d) for d in dfs])
    if res is None:
        parts = []
        for t, df in zip(stemmed, dfs):
            pl = reader.postings(fid, t, need_positions=False)
            if pl is not None and pl.docs.size and df:
                parts.append((pl.docs, pl.tfs, pl.lens, float(df)))
        uniq, r4, _ = _fold_scores(parts, n_docs, avgdl, k1, b,
                                   reader.tombstones)
    else:
        uniq, r4 = res
    top = np.lexsort((uniq, -r4))[:k]
    return uniq[top], r4[top]
