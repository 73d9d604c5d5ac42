"""Hybrid retrieval: lexical top-k fused with embedding top-k by
reciprocal-rank fusion (RRF, Cormack/Clarke/Buettcher, SIGIR 2009).

The two sides are the engine's existing scale paths — the scored
inverted-index query (distributed range fan-out above 5M docs,
pipelines.search) and the broadcast-query cosine top-k over the
embeddings table (per-batch partial top-k, driver merges only
``k × blocks`` rows, ops/similarity.py).  Fusion itself touches at most
``2k`` (doc, rank) pairs, so it is driver-side by construction: RRF uses
only the RANKS, never the incomparable raw scores, which is exactly why
it is the standard fusion for BM25 + vector search.

Determinism: both sides break score ties by ascending id, and the fused
score ``1/(K+r_text) + 1/(K+r_vec)`` is a fixed-order two-term IEEE sum
of exact rationals — reproducible across engines, which is what makes
the DuckDB oracle (__ray_entry__) an exact rank-and-value check.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .collect import arrow_blocks
from .similarity import embed_matrix

RRF_K = 60  # the paper's (and industry-default) rank damping constant


def _vector_topk(sf_dir: str, query_vec_id: int, k: int, *,
                 bucketed: bool = False, n_planes: int = 6,
                 n_tables: int = 4, seed: int = 777) -> list[int]:
    """Cosine top-k vec_ids against one broadcast query vector (the
    corpus embedding of ``query_vec_id``; the query itself excluded).

    ``bucketed=True`` routes through the same hamming<=1 hyperplane-LSH
    multiprobe plan as ops/similarity.ann_bucketed — each task scores
    only the corpus vectors sharing a probed bucket with the query in
    some table, the 100 TB scale path for the vector side."""
    import pyarrow.parquet as pq

    from .similarity import hyperplane_keys, rademacher_tables

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", query_vec_id)])
    q = embed_matrix(qt.column("embedding"))[0]
    qn = q / max(np.linalg.norm(q), 1e-30)
    tables = None
    probe: set | None = None
    if bucketed:
        tables = rademacher_tables(n_tables, n_planes, qn.size, seed)
        probe = set()
        for ti, planes in enumerate(tables):
            key = int(hyperplane_keys(qn[None, :], planes)[0])
            probe.add((ti, key))
            probe.update((ti, key ^ (1 << p)) for p in range(n_planes))
    q_ref = ray.put((qn, tables, probe))

    def partial(batch: pa.Table) -> pa.Table:
        qv, tables, probe = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy()
        keep = ids != query_vec_id
        ids = ids[keep]
        empty = pa.table({"vec_id": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if not ids.size:
            return empty
        m = embed_matrix(batch.column("embedding"))[keep]
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        if tables is not None:
            cand = np.zeros(ids.size, bool)
            for ti, planes in enumerate(tables):
                keys = hyperplane_keys(mn, planes)
                for b in np.unique(keys):
                    if (ti, int(b)) in probe:
                        cand |= keys == b
            if not cand.any():
                return empty
            ids, mn = ids[cand], mn[cand]
        sims = mn @ qv
        kk = min(k, ids.size)
        top = np.argpartition(-sims, kk - 1)[:kk]
        return pa.table({"vec_id": pa.array(ids[top], pa.int64()),
                         "sim": pa.array(sims[top], pa.float64())})

    parts = (ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                   columns=["vec_id", "embedding"])
             .map_batches(partial, batch_format="pyarrow", batch_size=4096))
    t = pa.concat_tables(arrow_blocks(parts))
    v = t.column("vec_id").to_numpy()
    s = t.column("sim").to_numpy()
    order = np.lexsort((v, -s))[:k]  # sim desc, vec_id asc
    return [int(x) for x in v[order]]


def _vector_topk_ivf(emb_dir: str, query_vec_id: int, k: int,
                     vec_index_dir: str | None,
                     n_centroids: int = 32, nprobe: int = 4) -> list[int]:
    """Vector side through the persistent IVF index: only the probed
    lists' files are opened (build/vector_index.py)."""
    import os

    import pyarrow.parquet as pq

    from ..build.vector_index import (MANIFEST, build_vector_index,
                                      ivf_query)

    if vec_index_dir is None:
        base = os.environ.get("NOISE_RAY_CACHE", "/tmp/noise_ray_cache")
        tag = os.path.basename(os.path.normpath(emb_dir))
        vec_index_dir = os.path.join(base, f"vecidx-{tag}-{n_centroids}-0")
    if not os.path.exists(os.path.join(vec_index_dir, MANIFEST)):
        build_vector_index(f"{emb_dir}/embeddings.parquet", vec_index_dir,
                           n_centroids=n_centroids)
    qt = pq.read_table(f"{emb_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", query_vec_id)])
    q = embed_matrix(qt.column("embedding"))
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    t = ivf_query(vec_index_dir, qn, np.asarray([query_vec_id]), k=k,
                  nprobe=nprobe, exclude_id=query_vec_id)
    return [int(v) for v in t.column("vec_id").to_pylist()]


def hybrid_search(sf_dir: str, term: str = "merge",
                  query_vec_id: int = 0, k: int = 50,
                  rrf_k: int = RRF_K, topn: int = 10, *,
                  emb_dir: str | None = None,
                  index_dir: str | None = None,
                  vector: str = "brute",
                  vec_index_dir: str | None = None) -> pa.Table:
    """Fuse the term query's top-``k`` (relevance-ordered, ties by
    doc_id) with the cosine top-``k`` around ``query_vec_id``'s
    embedding; return the RRF top-``topn`` as (doc_id, rrf).

    ``emb_dir`` / ``index_dir`` override the table and index locations
    for scale runs over the synthetic corpora (tools/scale_run.py);
    defaults read both from ``sf_dir``.  ``vector="bucketed"`` swaps the
    vector side's exact scan for the LSH multiprobe plan (approximate —
    lossy where the fused list depends on vectors the probe misses);
    ``vector="ivf"`` routes it through the PERSISTENT IVF-partitioned
    vector index (build/vector_index.py — reads only the ``nprobe``
    probed lists off disk, the repeat-query scale path;
    ``vec_index_dir`` reuses an existing index, else one is built and
    cached per (corpus, n_centroids))."""
    from ..pipelines import documents_index
    from ..query import run_query

    # over-fetch 2k by engine order, then rank on the 4dp-ROUNDED score
    # with doc_id tie-break: the engine scores in f32, SQL in f64, and
    # inside a rounded-tie group their ULP-level orderings differ — the
    # rounded rank is the cross-engine-deterministic one (same contract
    # as every oracled scored entry; exact as long as no tie group spans
    # more than k positions, which vectors of distinct (tf, len) don't)
    if index_dir is not None:
        from ..query import IndexReader

        reader = IndexReader(index_dir)
    else:
        reader = documents_index(sf_dir)
    t = run_query(
        reader,
        f'find {{text: ~="{term}"}} order score() desc, .doc_id asc '
        f"return score() limit {2 * k} ;")
    pairs = sorted(
        ((-round(float(s), 4), int(d))
         for d, s in zip(t.column("doc_id").to_pylist(),
                         t.column("score").to_pylist())))
    text_rank = {d: r for r, (_, d) in enumerate(pairs[:k], 1)}
    if vector == "ivf":
        vec_ids = _vector_topk_ivf(emb_dir or sf_dir, query_vec_id, k,
                                   vec_index_dir)
    else:
        vec_ids = _vector_topk(emb_dir or sf_dir, query_vec_id, k,
                               bucketed=vector == "bucketed")
    vec_rank = {d: r for r, d in enumerate(vec_ids, 1)}

    fused = []
    for d in set(text_rank) | set(vec_rank):
        tr, vr = text_rank.get(d), vec_rank.get(d)
        rrf = ((1.0 / (rrf_k + tr) if tr else 0.0)
               + (1.0 / (rrf_k + vr) if vr else 0.0))
        fused.append((d, rrf))
    fused.sort(key=lambda p: (-p[1], p[0]))
    fused = fused[:topn]
    return pa.table({
        "doc_id": pa.array([d for d, _ in fused], pa.int64()),
        "rrf": pa.array([round(s, 6) for _, s in fused], pa.float64()),
    })
