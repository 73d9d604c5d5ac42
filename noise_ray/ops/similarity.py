"""Similarity search over the ``embeddings`` table.

Brute-force cosine top-k is the oracle-checkable baseline: the query matrix
is broadcast once (``ray.put``) and each ``map_batches`` task computes a
partial top-k against its batch (numpy matmul); the driver merges partial
heaps.  The LSH-bucketed variant is the 100 TB scale path: random-hyperplane
bucket keys turn the all-pairs problem into a bounded groupby.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .collect import arrow_blocks


def embed_matrix(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Zero-copy-ish (n, dim) float64 matrix from a fixed-width list column
    (avoids to_pylist + np.stack row materialization)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0))
    vals = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return vals.reshape(n, -1)


def _load_queries(sf_dir: str, n_queries: int):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n_queries)])
    q = embed_matrix(t.column("embedding"))
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    return t.column("vec_id").to_numpy(), qn


def ann_topk_bruteforce(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Exact cosine top-k of each query vector against the corpus
    (vec_id >= n_queries).  Output (query_id, rank, vec_id)."""
    qids, qn = _load_queries(sf_dir, n_queries)
    q_ref = ray.put(qn)

    def partial_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy()
        keep = ids >= n_queries
        if not keep.any():
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        ids = ids[keep]
        m = embed_matrix(batch.column("embedding"))[keep]
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = q @ mn.T  # (nq, nb)
        out_q, out_v, out_s = [], [], []
        kk = min(k, ids.size)
        for qi in range(q.shape[0]):
            # partial top-k per batch; ties resolved at the final merge
            top = np.argpartition(-sims[qi], kk - 1)[:kk]
            out_q.extend([int(qids[qi])] * top.size)
            out_v.extend(ids[top].tolist())
            out_s.extend(sims[qi][top].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    parts = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        .map_batches(partial_topk, batch_format="pyarrow", batch_size=4096)
    )
    t = pa.concat_tables(arrow_blocks(parts))
    # driver-side final merge: tiny (n_queries × k per input block)
    out_q, out_r, out_v = [], [], []
    tq = t.column("query_id").to_numpy()
    tv = t.column("vec_id").to_numpy()
    ts = t.column("sim").to_numpy()
    for qid in sorted(set(qids.tolist())):
        m = tq == qid
        v, s = tv[m], ts[m]
        order = np.lexsort((v, -s))[:k]  # sim desc, vec_id asc
        for r, i in enumerate(order, 1):
            out_q.append(int(qid))
            out_r.append(r)
            out_v.append(int(v[i]))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "rank": pa.array(out_r, pa.int64()),
                     "vec_id": pa.array(out_v, pa.int64())})


def hyperplane_keys(mn: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Random-hyperplane LSH bucket key per (normalized) vector."""
    bits = (mn @ planes.T) > 0
    return (bits.astype(np.uint32)
            << np.arange(bits.shape[1], dtype=np.uint32)).sum(axis=1)


def rademacher_tables(n_tables: int, n_planes: int, dim: int,
                      seed: int) -> list[np.ndarray]:
    """Deterministic ±1 hyperplane tables derived from splitmix64.

    Sign-of-projection LSH needs only a symmetric component distribution,
    so Rademacher (±1) planes give the same collision guarantees as
    Gaussian ones — and, being integer-derived, the exact same planes can
    be inlined as SQL literals, which is what makes ``ann_bucketed``
    oracle-checkable end to end (ops/oracle_sqlgen.ann_bucketed_sql)."""
    from .hashing import splitmix64

    with np.errstate(over="ignore"):
        idx = (np.arange(n_tables * n_planes * dim, dtype=np.uint64)
               + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15))
    bits = splitmix64(idx)
    signs = np.where(bits & np.uint64(1), 1.0, -1.0).reshape(
        n_tables, n_planes, dim)
    return [signs[t] for t in range(n_tables)]


def ann_bucketed(sf_dir: str, n_queries: int = 5, k: int = 10,
                 n_planes: int = 6, n_tables: int = 4, seed: int = 777):
    """LSH-bucket-routed ANN top-k: the 100 TB scale path next to
    ``ann_topk_bruteforce``.

    ``n_tables`` independent hyperplane tables of ``n_planes`` bits; a
    query probes its own bucket plus all 1-bit neighbors in every table
    (hamming <= 1 multiprobe).  The probe plan — (table, bucket) ->
    query rows for a handful of query vectors — is broadcast once via
    ``ray.put``; each ``map_batches`` task hashes its corpus vectors with
    the same planes, builds a per-query candidate mask across tables
    (union, so a vector is scored once per query), one matmul per query
    over its candidates, per-query partial top-k out.  Only nq x k rows
    per block reach the driver.

    Recall/scan-fraction is the hyperplane-LSH collision probability; the
    synthetic benchmark embeddings are near-uniform on the sphere (the
    adversarial case for ANN — true neighbors sit at ~65-70 degrees), so
    defaults favor recall (~0.7 at ~2/3 scan on the fixture, measured in
    tests/test_ops_similarity.py); clustered real-world embeddings prune
    far harder at the same recall.  The planes are deterministic ±1
    Rademacher tables (splitmix64), so the whole pipeline — bucketing,
    hamming<=1 multiprobe, exact-cosine ranking inside the candidate set —
    is replicated as an EXACT DuckDB oracle
    (ops/oracle_sqlgen.ann_bucketed_sql)."""
    qids, qn = _load_queries(sf_dir, n_queries)
    tables = rademacher_tables(n_tables, n_planes, qn.shape[1], seed)
    probe: dict[tuple[int, int], list[int]] = {}
    for ti, planes in enumerate(tables):
        qkeys = hyperplane_keys(qn, planes)
        for qi, key in enumerate(qkeys):
            for b in [int(key)] + [int(key) ^ (1 << p)
                                   for p in range(n_planes)]:
                probe.setdefault((ti, b), []).append(qi)
    probe = {tb: np.asarray(qs, np.int64) for tb, qs in probe.items()}
    plan_ref = ray.put((qn, tables, probe))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qn, tables, probe = ray.get(plan_ref)
        ids = batch.column("vec_id").to_numpy()
        keep = ids >= n_queries
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if not keep.any():
            return empty
        ids = ids[keep]
        m = embed_matrix(batch.column("embedding"))[keep]
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        cand = np.zeros((qn.shape[0], ids.size), bool)
        for ti, planes in enumerate(tables):
            keys = hyperplane_keys(mn, planes)
            for b in np.unique(keys):
                qs = probe.get((ti, int(b)))
                if qs is not None:
                    cand[np.ix_(qs, keys == b)] = True
        out_q, out_v, out_s = [], [], []
        for qi in range(qn.shape[0]):
            sel = cand[qi]
            if not sel.any():
                continue
            sims = qn[qi] @ mn[sel].T
            bids = ids[sel]
            kk = min(k, bids.size)
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([int(qids[qi])] * top.size)
            out_v.extend(bids[top].tolist())
            out_s.extend(sims[top].tolist())
        if not out_q:
            return empty
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    parts = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        .map_batches(partial_topk, batch_format="pyarrow", batch_size=4096)
    )
    t = pa.concat_tables(arrow_blocks(parts))
    out_q, out_r, out_v = [], [], []
    tq = t.column("query_id").to_numpy()
    tv = t.column("vec_id").to_numpy()
    ts = t.column("sim").to_numpy()
    for qid in sorted(set(qids.tolist())):
        m = tq == qid
        v, s = tv[m], ts[m]
        order = np.lexsort((v, -s))[:k]  # sim desc, vec_id asc
        for r, i in enumerate(order, 1):
            out_q.append(int(qid))
            out_r.append(r)
            out_v.append(int(v[i]))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "rank": pa.array(out_r, pa.int64()),
                     "vec_id": pa.array(out_v, pa.int64())})


def ann_ivf(sf_dir: str, n_queries: int = 5, k: int = 10,
            n_centroids: int = 32, nprobe: int = 4):
    """IVF-flat ANN: the second scale path next to the LSH-bucketed one.

    Every corpus vector is assigned to its nearest centroid (an inverted
    list); a query scans only its ``nprobe`` nearest lists and ranks the
    candidates by exact cosine.  Centroids are a DETERMINISTIC corpus
    sample — the first ``n_centroids`` corpus vectors — so the whole
    pipeline (assignment, probing, ranking, all ties broken toward the
    smaller id) is replicated as an exact DuckDB oracle
    (ops/oracle_sqlgen.ann_ivf_sql).  At 100 TB: the centroid matrix is a
    broadcast ``ray.put``, the assignment is one vectorized matmul per
    batch, and the inverted lists are the natural partition key for the
    routed re-read (write corpus parquet partitioned by list id; a query
    then opens only nprobe directories).

    nprobe == n_centroids probes every list == exact brute force
    (asserted in tests/test_ops_similarity.py)."""
    import pyarrow.parquet as pq

    qids, qn = _load_queries(sf_dir, n_queries)
    ct = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", ">=", n_queries),
                 ("vec_id", "<", n_queries + n_centroids)])
    cm = embed_matrix(ct.column("embedding"))
    cn = cm / np.maximum(np.linalg.norm(cm, axis=1, keepdims=True), 1e-30)
    # per-query probe set: nprobe nearest centroids (sim desc, cid asc)
    csims = qn @ cn.T
    probes = np.stack([
        np.lexsort((np.arange(cn.shape[0]), -csims[qi]))[:nprobe]
        for qi in range(qn.shape[0])])
    plan_ref = ray.put((qn, cn, probes))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qn, cn, probes = ray.get(plan_ref)
        ids = batch.column("vec_id").to_numpy()
        keep = ids >= n_queries
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if not keep.any():
            return empty
        ids = ids[keep]
        m = embed_matrix(batch.column("embedding"))[keep]
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        # nearest-centroid assignment; argmax ties pick the first
        # (smallest cid), matching the oracle's rank tie-break
        assign = np.argmax(mn @ cn.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(qn.shape[0]):
            sel = np.isin(assign, probes[qi])
            if not sel.any():
                continue
            sims = qn[qi] @ mn[sel].T
            bids = ids[sel]
            kk = min(k, bids.size)
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([int(qids[qi])] * top.size)
            out_v.extend(bids[top].tolist())
            out_s.extend(sims[top].tolist())
        if not out_q:
            return empty
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    parts = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        .map_batches(partial_topk, batch_format="pyarrow", batch_size=4096)
    )
    t = pa.concat_tables(arrow_blocks(parts))
    out_q, out_r, out_v = [], [], []
    tq = t.column("query_id").to_numpy()
    tv = t.column("vec_id").to_numpy()
    ts = t.column("sim").to_numpy()
    for qid in sorted(set(qids.tolist())):
        m = tq == qid
        v, s = tv[m], ts[m]
        order = np.lexsort((v, -s))[:k]  # sim desc, vec_id asc
        for r, i in enumerate(order, 1):
            out_q.append(int(qid))
            out_r.append(r)
            out_v.append(int(v[i]))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "rank": pa.array(out_r, pa.int64()),
                     "vec_id": pa.array(out_v, pa.int64())})


def _merge_topk(parts, qids, k: int) -> pa.Table:
    """Driver-side final merge of per-batch partial top-k rows — tiny
    (n_queries × k per input block); sim desc, vec_id asc, rank from 1."""
    # a filtered read can emit columnless empty blocks; keep real ones
    tabs = [b for b in arrow_blocks(parts) if b.num_columns]
    t = (pa.concat_tables(tabs) if tabs
         else pa.table({"query_id": pa.array([], pa.int64()),
                        "vec_id": pa.array([], pa.int64()),
                        "sim": pa.array([], pa.float64())}))
    out_q, out_r, out_v = [], [], []
    tq = t.column("query_id").to_numpy() if t.num_rows else np.array([])
    tv = t.column("vec_id").to_numpy() if t.num_rows else np.array([])
    ts = t.column("sim").to_numpy() if t.num_rows else np.array([])
    for qid in sorted(set(qids.tolist())):
        m = tq == qid
        v, s = tv[m], ts[m]
        order = np.lexsort((v, -s))[:k]
        for r, i in enumerate(order, 1):
            out_q.append(int(qid))
            out_r.append(r)
            out_v.append(int(v[i]))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "rank": pa.array(out_r, pa.int64()),
                     "vec_id": pa.array(out_v, pa.int64())})


def ann_filtered(sf_dir: str, n_queries: int = 5, k: int = 10,
                 label: int = 3):
    """Filtered kNN: exact cosine top-k restricted to corpus vectors whose
    metadata ``label`` matches — the Elasticsearch/OpenSearch filtered-kNN
    (pre-filter) shape.  The predicate is pushed INTO the parquet read as
    a pyarrow dataset filter, so row groups whose ``label`` statistics
    exclude the value never leave storage; at 100 TB with label-partitioned
    parquet the read opens only matching directories.  The per-batch
    kernel therefore sees survivors only — no post-hoc masking, and the
    scan cost scales with the filter's selectivity, not the corpus."""
    import pyarrow.compute as pc

    qids, qn = _load_queries(sf_dir, n_queries)
    q_ref = ray.put(qn)

    def partial_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy()
        if not ids.size:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        m = embed_matrix(batch.column("embedding"))
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = q @ mn.T
        out_q, out_v, out_s = [], [], []
        kk = min(k, ids.size)
        for qi in range(q.shape[0]):
            top = np.argpartition(-sims[qi], kk - 1)[:kk]
            out_q.extend([int(qids[qi])] * top.size)
            out_v.extend(ids[top].tolist())
            out_s.extend(sims[qi][top].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding"],
            filter=(pc.field("label") == label)
            & (pc.field("vec_id") >= n_queries))
        .map_batches(partial_topk, batch_format="pyarrow", batch_size=4096)
    )
    return _merge_topk(parts, qids, k)


def ann_ivf_filtered(sf_dir: str, n_queries: int = 5, k: int = 10,
                     n_centroids: int = 32, nprobe: int = 8,
                     label: int = 3):
    """Filtered IVF kNN: :func:`ann_ivf`'s probe plan with the metadata
    pre-filter pushed into the parquet read (see :func:`ann_filtered`).
    Centroid assignment runs only over surviving vectors — assigning
    filtered-out vectors would be wasted work since they can never be
    candidates — and the probed lists rank survivors by exact cosine.
    ``nprobe`` defaults WIDER than the unfiltered path (8 vs 4): a
    selective filter thins every inverted list, so holding recall
    steady needs proportionally more lists scanned — the same
    selectivity-aware probe widening FAISS/Lucene apply to filtered
    HNSW/IVF.  Deterministic sample centroids keep the whole pipeline
    SQL-exact (ops/oracle_sqlgen.ann_ivf_sql(label=...))."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    qids, qn = _load_queries(sf_dir, n_queries)
    ct = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", ">=", n_queries),
                 ("vec_id", "<", n_queries + n_centroids)])
    cm = embed_matrix(ct.column("embedding"))
    cn = cm / np.maximum(np.linalg.norm(cm, axis=1, keepdims=True), 1e-30)
    csims = qn @ cn.T
    probes = np.stack([
        np.lexsort((np.arange(cn.shape[0]), -csims[qi]))[:nprobe]
        for qi in range(qn.shape[0])])
    plan_ref = ray.put((qn, cn, probes))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qn, cn, probes = ray.get(plan_ref)
        ids = batch.column("vec_id").to_numpy()
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if not ids.size:
            return empty
        m = embed_matrix(batch.column("embedding"))
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        assign = np.argmax(mn @ cn.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(qn.shape[0]):
            sel = np.isin(assign, probes[qi])
            if not sel.any():
                continue
            sims = qn[qi] @ mn[sel].T
            bids = ids[sel]
            kk = min(k, bids.size)
            top = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([int(qids[qi])] * top.size)
            out_v.extend(bids[top].tolist())
            out_s.extend(sims[top].tolist())
        if not out_q:
            return empty
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    parts = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding"],
            filter=(pc.field("label") == label)
            & (pc.field("vec_id") >= n_queries))
        .map_batches(partial_topk, batch_format="pyarrow", batch_size=4096)
    )
    return _merge_topk(parts, qids, k)


def _kmeans_assign(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    # squared L2 via the expansion; argmin ties pick the first
    # (smallest cluster id), matching the oracle's rank tie-break
    d2 = (m * m).sum(1)[:, None] - 2.0 * (m @ c.T) + (c * c).sum(1)[None]
    return np.argmin(d2, axis=1)


def _kmeans_centroids(sf_dir: str, n_clusters: int, iters: int) -> np.ndarray:
    """Run the Lloyd rounds of :func:`kmeans_embeddings` and return the
    final (k, dim) centroid matrix (shared with :func:`semdedup`)."""
    import pyarrow.parquet as pq

    ct = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_clusters)])
    cen = embed_matrix(ct.column("embedding"))  # (k, dim) float64

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    for _ in range(iters):
        ref = ray.put(cen)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = embed_matrix(batch.column("embedding"))
            a = _kmeans_assign(m, c)
            sums = np.zeros_like(c)
            np.add.at(sums, a, m)
            counts = np.bincount(a, minlength=c.shape[0])
            return pa.table({
                "cid": pa.array(np.arange(c.shape[0]), pa.int64()),
                "n": pa.array(counts, pa.int64()),
                "s": pa.array(list(sums), pa.list_(pa.float64())),
            })

        parts = pa.concat_tables(arrow_blocks(
            ds.map_batches(partial, batch_format="pyarrow")))
        cids = parts.column("cid").to_numpy()
        ns = parts.column("n").to_numpy()
        svs = embed_matrix(parts.column("s"))
        k, dim = cen.shape
        tot_n = np.zeros(k)
        tot_s = np.zeros((k, dim))
        np.add.at(tot_n, cids, ns)
        np.add.at(tot_s, cids, svs)
        nonempty = tot_n > 0
        cen = cen.copy()
        cen[nonempty] = tot_s[nonempty] / tot_n[nonempty, None]
    return cen


def kmeans_embeddings(sf_dir: str, n_clusters: int = 8, iters: int = 3):
    """Lloyd k-means over the embedding column: (vec_id, cluster) after
    ``iters`` full assign+update rounds plus a final assignment pass.

    The canonical iterative Ray Data shape: centroids (k x dim — tiny)
    are broadcast per round with ``ray.put``; each ``map_batches`` task
    reduces its batch to per-cluster partial sums + counts (k rows), so
    each round streams the corpus once and ships only k*dim floats per
    task; the centroid update folds those partials on the driver.  Init
    is DETERMINISTIC (the first ``n_clusters`` corpus vectors) and ties
    go to the smaller cluster id, so the whole pipeline replicates as an
    exact DuckDB oracle (ops/oracle_sqlgen.kmeans_sql: the same rounds as
    chained CTEs).  An empty cluster keeps its previous centroid."""
    cen = _kmeans_centroids(sf_dir, n_clusters, iters)
    fref = ray.put(cen)

    def final(batch: pa.Table) -> pa.Table:
        c = ray.get(fref)
        m = embed_matrix(batch.column("embedding"))
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "cluster": pa.array(_kmeans_assign(m, c), pa.int64()),
        })

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return ds.map_batches(final, batch_format="pyarrow").sort("vec_id")


def semdedup(sf_dir: str, n_clusters: int = 8, iters: int = 3,
             threshold: float = 0.45):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023): k-means
    the embedding space, then deduplicate WITHIN each cluster only — a
    vec is dropped when a smaller-id vec in the same cluster has cosine
    similarity >= ``threshold``.  Returns the surviving (vec_id, cluster)
    rows.

    The clustering is what makes the quadratic affordable at scale: the
    pairwise cosine never crosses cluster boundaries, so per-group work
    is bounded by cluster size (pick n_clusters ~ corpus_size/10k to cap
    it), and the only corpus-wide moves are the k-means partials (k*dim
    floats per task) and ONE groupby(cluster) shuffle into the per-group
    dedup.  Deterministic end to end — first-k centroid init, pairwise
    drop rule — so the whole pipeline has an exact DuckDB oracle
    (ops/oracle_sqlgen.semdedup_sql: the k-means CTE chain plus a
    within-cluster anti-join).  The drop rule is pairwise by id — j is
    dropped when ANY smaller-id same-cluster vec is within threshold
    (dropped vecs included, so a chain a~b~c keeps only a) — the
    keep-one-representative-per-neighborhood semantics of the paper,
    in the closed form that joins cleanly in SQL."""
    cen = _kmeans_centroids(sf_dir, n_clusters, iters)
    fref = ray.put(cen)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(fref)
        m = embed_matrix(batch.column("embedding"))
        return batch.append_column(
            "cluster", pa.array(_kmeans_assign(m, c), pa.int64()))

    def dedup_group(g: pa.Table) -> pa.Table:
        ids = g.column("vec_id").to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        m = embed_matrix(g.column("embedding"))[order]
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = mn @ mn.T
        # drop j when any i<j has sims[i, j] >= threshold
        drop = (np.triu(sims >= threshold, k=1)).any(axis=0)
        return pa.table({
            "vec_id": pa.array(ids[~drop], pa.int64()),
            "cluster": pa.array(
                np.full(int((~drop).sum()), g.column("cluster")[0].as_py()),
                pa.int64()),
        })

    return (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(dedup_group, batch_format="pyarrow")
        .sort("vec_id")
    )
