"""Keypath-qualified BM25 over the nested conversation index
(ops/nested_docs.nested_kp_bm25): per-turn instances score against the
DuckDB per-turn BM25 oracle, and the distributed worker bodies
(df + score ranges) fold to the in-process result exactly."""

import duckdb
import numpy as np

SF = "/root/testdata/sf0.001"


def test_nested_kp_bm25_matches_oracle(ray_session):
    from noise_ray.ops.nested_docs import nested_kp_bm25
    from noise_ray.ops.score_oracle import nested_kp_bm25_sql

    got = nested_kp_bm25(SF).to_pandas()
    want = duckdb.connect().execute(
        nested_kp_bm25_sql(sf_dir=SF)).fetchdf()
    assert list(got.columns) == list(want.columns)
    assert got.astype(want.dtypes.to_dict()).equals(want)
    assert len(got) == 20


def test_nested_kp_bm25_stats_from_index_artifacts(ray_session):
    """N (instance count) and the token total come from zone counters /
    the stats sidecar — they must equal the raw corpus recount."""
    import re

    import pyarrow.parquet as pq

    from noise_ray.ops.nested_docs import nested_transcripts_index
    from noise_ray.pipelines.flagship import transcripts_corpus

    reader = nested_transcripts_index(SF)
    texts = []
    for p in transcripts_corpus(SF):
        texts.extend(pq.read_table(p, columns=["text"])
                     .column("text").to_pylist())
    from noise_ray.analysis.tokenizer import tokenize

    n_tokens = sum(len(list(tokenize(t))) for t in texts)
    assert reader.kp_instance_count(".turns$.text") == len(texts)
    assert reader.token_total(".turns$.text") == n_tokens


def test_nested_kp_bm25_range_fold_matches_global(ray_session):
    """Per-range df partials + top-k-with-ties score partials re-cut
    globally equal the in-process run (instances are disjoint across
    doc ranges)."""
    from noise_ray.ops.nested_docs import (_kp_bm25_order, kp_bm25_df_range,
                                           kp_bm25_score_range,
                                           nested_kp_bm25,
                                           nested_transcripts_index)

    reader = nested_transcripts_index(SF)
    idx = reader.index_dir
    kp, stemmed, k = ".turns$.text", ["quick", "brown"], 20
    n_inst = float(reader.kp_instance_count(kp))
    avgdl = float(reader.token_total(kp)) / n_inst
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    ranges = list(zip(cuts, cuts[1:]))
    df_parts = [kp_bm25_df_range(idx, kp, stemmed, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    parts = [kp_bm25_score_range(idx, kp, stemmed, dfs, n_inst, avgdl,
                                 1.2, 0.75, k, lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    aps = np.vstack([p[1] for p in parts])
    r4 = np.concatenate([p[2] for p in parts])
    top = _kp_bm25_order(docs, aps, r4)[:k]
    want = nested_kp_bm25(SF)
    convs = reader.doc_id_strs(docs[top])
    assert convs == want.column("conv_id").to_pylist()
    assert aps[top, 0].tolist() == want.column("turn_idx").to_pylist()
    assert np.allclose(r4[top], want.column("score").to_numpy())


def test_nested_kp_bm25_filtered_matches_oracle(ray_session):
    from noise_ray.ops.nested_docs import nested_kp_bm25_filtered
    from noise_ray.ops.score_oracle import nested_kp_bm25_filtered_sql

    got = nested_kp_bm25_filtered(SF).to_pandas()
    want = duckdb.connect().execute(
        nested_kp_bm25_filtered_sql(sf_dir=SF)).fetchdf()
    assert list(got.columns) == list(want.columns)
    assert got.astype(want.dtypes.to_dict()).equals(want)
    assert len(got) > 0


def test_nested_kp_bm25_filtered_is_subset_same_scores(ray_session):
    """post_filter semantics: every filtered hit appears in the
    unfiltered ranking with the SAME score (index-wide stats)."""
    from noise_ray.ops.nested_docs import (nested_kp_bm25,
                                           nested_kp_bm25_filtered)

    full = nested_kp_bm25(SF, k=10_000).to_pandas()
    filt = nested_kp_bm25_filtered(SF, k=10_000).to_pandas()
    full_map = {(r.conv_id, r.turn_idx): r.score
                for r in full.itertuples()}
    assert len(filt) < len(full)
    for r in filt.itertuples():
        assert full_map[(r.conv_id, r.turn_idx)] == r.score


def test_nested_kp_bm25_filtered_range_fold_matches_global(ray_session):
    from noise_ray.ops.nested_docs import (_kp_bm25_order,
                                           kp_bm25_df_range,
                                           kp_bm25_filtered_range,
                                           nested_kp_bm25_filtered,
                                           nested_transcripts_index)

    reader = nested_transcripts_index(SF)
    idx = reader.index_dir
    kp, stemmed, k = ".turns$.text", ["quick", "brown"], 20
    n_inst = float(reader.kp_instance_count(kp))
    avgdl = float(reader.token_total(kp)) / n_inst
    n = reader.num_docs
    cuts = [0, n // 3, 2 * n // 3, n]
    ranges = list(zip(cuts, cuts[1:]))
    df_parts = [kp_bm25_df_range(idx, kp, stemmed, lo, hi)
                for lo, hi in ranges]
    dfs = [float(sum(p[j] for p in df_parts)) for j in range(len(stemmed))]
    parts = [kp_bm25_filtered_range(idx, kp, stemmed, dfs, n_inst, avgdl,
                                    1.2, 0.75, k, ".turns$.role",
                                    "assistant", lo, hi)
             for lo, hi in ranges]
    docs = np.concatenate([p[0] for p in parts])
    aps = np.vstack([p[1] for p in parts])
    r4 = np.concatenate([p[2] for p in parts])
    top = _kp_bm25_order(docs, aps, r4)[:k]
    want = nested_kp_bm25_filtered(SF)
    assert reader.doc_id_strs(docs[top]) == \
        want.column("conv_id").to_pylist()
    assert aps[top, 0].tolist() == want.column("turn_idx").to_pylist()
    assert np.allclose(r4[top], want.column("score").to_numpy())
