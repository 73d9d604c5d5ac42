"""Hybrid RRF retrieval (ops/hybrid.py): fusion invariants plus an
independently-computed driver-side reference on the sf0.001 tables."""

import numpy as np
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _reference_rrf(term="merge", query_vec_id=0, k=50, rrf_k=60, topn=10):
    """Single-process recomputation: engine text ranks + numpy cosine
    ranks, fused the same way."""
    from noise_ray.pipelines import documents_index
    from noise_ray.query import run_query

    t = run_query(
        documents_index(SF),
        f'find {{text: ~="{term}"}} order score() desc, .doc_id asc '
        f"return score() limit {2 * k} ;")
    pairs = sorted(
        ((-round(float(s), 4), int(d))
         for d, s in zip(t.column("doc_id").to_pylist(),
                         t.column("score").to_pylist())))
    text_rank = {d: r for r, (_, d) in enumerate(pairs[:k], 1)}

    e = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = e.column("vec_id").to_numpy()
    m = np.asarray(e.column("embedding").combine_chunks()
                   .flatten().to_numpy(zero_copy_only=False),
                   np.float64).reshape(len(ids), -1)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
    qv = mn[ids == query_vec_id][0]
    keep = ids != query_vec_id
    sims = mn[keep] @ qv
    cand = ids[keep]
    order = np.lexsort((cand, -sims))[:k]
    vec_rank = {int(v): r for r, v in enumerate(cand[order], 1)}

    fused = []
    for d in set(text_rank) | set(vec_rank):
        tr, vr = text_rank.get(d), vec_rank.get(d)
        fused.append((d, (1.0 / (rrf_k + tr) if tr else 0.0)
                      + (1.0 / (rrf_k + vr) if vr else 0.0)))
    fused.sort(key=lambda p: (-p[1], p[0]))
    return [(d, round(s, 6)) for d, s in fused[:topn]]


def test_hybrid_matches_reference(ray_session):
    from noise_ray.ops.hybrid import hybrid_search

    got = hybrid_search(SF)
    rows = list(zip(got.column("doc_id").to_pylist(),
                    got.column("rrf").to_pylist()))
    assert rows == _reference_rrf()
    # fused scores are bounded by 2/(rrf_k+1) and strictly positive
    assert all(0 < s <= 2 / 61 for _, s in rows)
    # output is rrf-desc with doc_id tiebreak
    assert rows == sorted(rows, key=lambda p: (-p[1], p[0]))


def test_hybrid_candidate_set_is_union_of_sides(ray_session):
    """With topn above the candidate count, the result is exactly the
    union of the two top-k lists (RRF never invents or drops docs)."""
    from noise_ray.ops.hybrid import hybrid_search

    got = hybrid_search(SF, topn=10_000, k=50)
    full = _reference_rrf(topn=10_000)
    assert got.num_rows == len(full) <= 100  # <= 2k candidates
    assert got.column("doc_id").to_pylist() == [d for d, _ in full]


def test_hybrid_bucketed_overlaps_brute(ray_session):
    """The LSH-routed vector side is approximate; the fused top-10 must
    still share most members with the exact hybrid (the lexical side is
    identical, so divergence is bounded by vector-side recall)."""
    from noise_ray.ops.hybrid import hybrid_search

    exact = set(hybrid_search(SF).column("doc_id").to_pylist())
    approx_t = hybrid_search(SF, vector="bucketed")
    approx = set(approx_t.column("doc_id").to_pylist())
    assert len(approx_t) == len(approx) == 10
    # near-uniform synthetic vectors are the LSH worst case; >= 0.5
    # overlap matches the pinned ann_bucketed recall on this fixture
    assert len(exact & approx) >= 5, (sorted(exact), sorted(approx))


def test_hybrid_ivf_overlaps_brute(ray_session, tmp_path):
    """IVF-routed vector side: nprobe < n_centroids is approximate, so
    pin overlap with the exact hybrid like the bucketed variant."""
    from noise_ray.ops.hybrid import hybrid_search

    exact = set(hybrid_search(SF).column("doc_id").to_pylist())
    approx = set(hybrid_search(
        SF, vector="ivf",
        vec_index_dir=str(tmp_path / "vecidx")).column("doc_id").to_pylist())
    assert len(approx) == 10
    assert len(exact & approx) >= 5, (sorted(exact), sorted(approx))
