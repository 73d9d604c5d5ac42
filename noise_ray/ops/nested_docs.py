"""Nested-JSON document pipelines over the relational test tables.

Exercises the nested index end to end on DuckDB-oracleable data: orders
become one JSON document each with their lineitems as a nested array
(sorted by linenumber), built into a nested index
(build/json_pipeline.py) and queried with keypath / array-context find
clauses (query/json_executor.py).  The array-context queries are the
semantics SQL EXISTS subqueries express — both clauses must hit the SAME
array element — which is exactly what the reference's arraypath
granularity provides (/root/reference/src/filters.rs:727-807).

Corpus construction is a Ray Data ``groupby(l_orderkey).map_groups``
(one all-to-all shuffle on the join key — at 100 TB this is the same
single co-shuffle every doc-assembly join needs), writing build-ready
``(_id, json)`` shards; the nested index build then streams them.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import ray.data

from ..query.distributed import dist_min_docs, doc_ranges

_CACHE = "/tmp/noise_ray_cache"


def _orders_index(sf_dir: str) -> str:
    """Build (once) the nested orders corpus + index for ``sf_dir``."""
    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    root = os.path.join(_CACHE, f"nested-orders-v1-{key}")
    idx_dir = os.path.join(root, "idx")
    if os.path.exists(os.path.join(idx_dir, "manifest.json")):
        return idx_dir
    os.makedirs(root, exist_ok=True)
    shard_dir = os.path.join(root, "shards")
    os.makedirs(shard_dir, exist_ok=True)

    def one_order(group: pa.Table) -> pa.Table:
        # strict total order: linenumbers can repeat in the synthetic
        # data and group row order is shuffle-dependent, so break ties on
        # every carried column (identical rows are then interchangeable)
        order = np.lexsort((
            np.asarray(group.column("l_returnflag").to_pylist(),
                       dtype=object),
            group.column("l_quantity").to_numpy(),
            group.column("l_linenumber").to_numpy(),
        ))
        lines = [
            {"ln": float(group.column("l_linenumber")[int(i)].as_py()),
             "flag": group.column("l_returnflag")[int(i)].as_py(),
             "qty": float(group.column("l_quantity")[int(i)].as_py())}
            for i in order
        ]
        okey = int(group.column("l_orderkey")[0].as_py())
        doc = {"_id": str(okey), "okey": float(okey), "lines": lines}
        return pa.table({
            "okey": pa.array([okey], pa.int64()),
            "json": pa.array([json.dumps(doc, ensure_ascii=False)]),
        })

    docs = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_linenumber", "l_returnflag",
                     "l_quantity"])
        .groupby("l_orderkey")
        .map_groups(one_order, batch_format="pyarrow")
    )
    # deterministic doc order: one shard per sorted block, written INSIDE
    # the task (nothing reaches the driver but ack rows); shard names
    # carry the block's first order key, so file order == doc order no
    # matter how the sort split blocks
    def write_shard(part: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if part.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string())})
        first = int(part.column("okey")[0].as_py())
        p = os.path.join(shard_dir, f"docs-{first:012d}.parquet")
        # always overwrite via tmp+rename: a crashed earlier run may have
        # left a same-named shard from different sort-block boundaries
        pq.write_table(pa.table({
            "_id": pa.compute.cast(part.column("okey"), pa.string()),
            "json": part.column("json"),
        }), p + ".tmp")
        os.replace(p + ".tmp", p)
        return pa.table({"path": pa.array([p])})

    from ..build.json_pipeline import build_json_index

    acks = (docs.sort("okey")
            .map_batches(write_shard, batch_format="pyarrow",
                         batch_size=None)
            .take_all())
    paths = sorted(a["path"] for a in acks)
    build_json_index(paths, idx_dir)
    return idx_dir


def nested_transcripts_index(sf_dir: str, paths: list[str] | None = None):
    """The flagship transcript corpus packed as NESTED conversation
    documents — ``{_id: conv_id, turns: [{i, role, text, tool}, ...]}``
    — indexed by the nested build.  This is the reference's native data
    model applied to the target workload: per-turn postings under
    ``.turns$.text`` with the turn index as the arraypath, so
    array-context queries scope boolean logic to a single turn.

    ``paths`` overrides the corpus (bench.py passes its own, which may
    be resized via GRAFT_BENCH_CONVS — the cache dir must follow the
    ACTUAL corpus or a stale index gets measured)."""
    if paths is None:
        from ..pipelines.flagship import transcripts_corpus

        paths = transcripts_corpus(sf_dir)
    root = os.path.join(os.path.dirname(paths[0]), "nested")
    idx_dir = os.path.join(root, "idx")
    from ..query.json_reader import JsonIndexReader

    if os.path.exists(os.path.join(idx_dir, "manifest.json")):
        return JsonIndexReader(idx_dir)
    os.makedirs(root, exist_ok=True)
    shard_dir = os.path.join(root, "shards")
    os.makedirs(shard_dir, exist_ok=True)

    # The corpus files hold NON-OVERLAPPING conv_id ranges sorted by
    # (conv_id, turn_idx) (sources/transcripts.py), so packing needs no
    # shuffle at all: one task per file groups rows at conv boundaries
    # and writes a build-ready (_id, json) shard — the same
    # partitioning-reuse the flat build exploits.
    def pack_file(row: dict) -> list[dict]:
        import pyarrow.parquet as pq

        t = pq.read_table(row["path"],
                          columns=["conv_id", "turn_idx", "role", "text",
                                   "tool"])
        conv = np.asarray(t.column("conv_id").to_pylist(), dtype=object)
        idxs = t.column("turn_idx").to_numpy()
        roles = t.column("role").to_pylist()
        texts = t.column("text").to_pylist()
        tools = t.column("tool").to_pylist()
        starts = np.flatnonzero(
            np.concatenate(([True], conv[1:] != conv[:-1])))
        ends = np.append(starts[1:], conv.size)
        ids, docs = [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            turns = []
            for i in range(s, e):
                turn = {"i": float(idxs[i]), "role": roles[i],
                        "text": texts[i]}
                if tools[i] is not None:
                    turn["tool"] = tools[i]
                turns.append(turn)
            doc = {"_id": conv[s], "turns": turns,
                   "n_turns": float(e - s)}
            ids.append(conv[s])
            docs.append(json.dumps(doc, ensure_ascii=False))
        # multiple shards per input file: the shred stage parallelizes
        # per shard, so shard count — not input file count — bounds the
        # build's ingest parallelism
        outs = []
        chunk = 1024
        for ci, lo in enumerate(range(0, len(ids), chunk)):
            out = os.path.join(
                shard_dir, f"docs-{row['seq']:05d}-{ci:03d}.parquet")
            hi = min(lo + chunk, len(ids))
            pq.write_table(
                pa.table({"_id": pa.array(ids[lo:hi], pa.string()),
                          "json": pa.array(docs[lo:hi], pa.string())}),
                out + ".tmp")
            os.replace(out + ".tmp", out)
            outs.append({"path": out})
        return outs

    items = [{"path": p, "seq": i} for i, p in enumerate(paths)]
    shard_paths = [r["path"] for r in ray.data.from_items(items)
                   .flat_map(pack_file).take_all()]
    shard_paths.sort()

    from ..build.json_pipeline import build_json_index

    # the build sizes its ingest tasks and picks its route from the doc
    # count (pipeline.run_build): the task count bounds the sort-input
    # block count, whose shuffle overhead was the 22M-scale wall when it
    # tracked the fixed 1024-doc shard size
    build_json_index(shard_paths, idx_dir)
    return JsonIndexReader(idx_dir)


def nested_conv_search(sf_dir: str) -> pa.Table:
    """Array-context search over nested conversations: convs where ONE
    turn is an assistant turn matching a phrase, scored.  Exact oracle:
    the nested TF-IDF score (first matching instance per doc) is
    replicated in SQL over the flat turn corpus
    (ops/score_oracle.nested_conv_phrase_sql); rounded to 4dp on both
    sides."""
    from ..query.json_executor import run_json_query

    r = nested_transcripts_index(sf_dir)
    # phrase chosen to match ~45 convs at the driver's sf0.01 — enough
    # rows to exercise per-instance scoring, but under the limit so the
    # 4dp-rounded oracle never has to break a tie at the cutoff
    rows = run_json_query(
        r,
        'find {turns: [{role: =="assistant", text: ~="of your"}]} '
        "order score() desc, ._id asc return [._id, score()] limit 50 ;")
    return pa.table({
        "_id": pa.array([x[0] for x in rows], pa.string()),
        "score": pa.array([round(float(x[1]), 4) for x in rows],
                          pa.float64()),
    })


def _rows_table(rows: list, cols: dict) -> pa.Table:
    """rows of dicts → table with the given (name → pa type) columns."""
    return pa.table({
        name: pa.array([r[name] for r in rows], typ)
        for name, typ in cols.items()
    })


def nested_kp_range(sf_dir: str) -> pa.Table:
    """Orders with ANY lineitem quantity >= 49 — keypath range inside an
    array context (``find {lines: [{qty: >= 49}]}``)."""
    from ..query.json_executor import run_json_query
    from ..query.json_reader import JsonIndexReader

    r = JsonIndexReader(_orders_index(sf_dir))
    ids = run_json_query(r, "find {lines: [{qty: >= 49}]} return ._id ;")
    return pa.table({"_id": pa.array(ids, pa.string())})


def nested_kp_exact_arrayctx(sf_dir: str) -> pa.Table:
    """Orders with a SINGLE lineitem that both has returnflag "R" AND
    quantity >= 48: the array-element-scoped AND that a flat engine
    cannot express (the two clauses must match the same array element,
    like SQL EXISTS over the child table)."""
    from ..query.json_executor import run_json_query
    from ..query.json_reader import JsonIndexReader

    r = JsonIndexReader(_orders_index(sf_dir))
    ids = run_json_query(
        r, 'find {lines: [{flag: =="R", qty: >= 48}]} return ._id ;')
    return pa.table({"_id": pa.array(ids, pa.string())})


def nested_return_path(sf_dir: str) -> pa.Table:
    """Nested return paths: for matched orders return the FIRST
    lineitem's quantity (``.lines[0].qty``) and every flag (``[]``
    fan-out, ``.lines[].flag``)."""
    from ..query.json_executor import run_json_query
    from ..query.json_reader import JsonIndexReader

    r = JsonIndexReader(_orders_index(sf_dir))
    rows = run_json_query(
        r,
        "find {lines: [{qty: >= 49}]} "
        "return {id: ._id, first_qty: .lines[0].qty, "
        "flags: .lines[].flag} ;")
    for row in rows:
        row["flags"] = "|".join(row["flags"])
    return _rows_table(rows, {"id": pa.string(),
                              "first_qty": pa.float64(),
                              "flags": pa.string()})


# ------------------------------------------------- keypath-qualified BM25


def _kp_bm25_fold(reader, kp: str, stemmed: list[str],
                  dfs: list[float] | None, n_inst: float, avgdl: float,
                  k1: float, b: float,
                  doc_range: tuple[int, int] | None):
    """Per-INSTANCE BM25 fold for one keypath: every (doc, arraypath)
    string instance under ``kp`` scores independently with its own
    length (``InstPostings.lens``), the BM25 unit being the instance —
    for ``.turns$.text`` that is exactly per-turn ranking inside the
    conversation documents.  ``dfs=None`` takes corpus-wide dfs from
    the posting sizes (in-process, doc_range None only).  Returns
    (docs, aps, r4) with scores summed per instance and rounded 4dp;
    tombstoned docs dropped."""
    parts_d, parts_a, parts_s = [], [], []
    for j, t in enumerate(stemmed):
        pl = reader.postings(kp, t, need_positions=False,
                             doc_range=doc_range)
        if not pl.size:
            continue
        d, a, tf, dl = pl.docs, pl.aps, pl.tfs, pl.lens
        if doc_range is not None:
            lo, hi = doc_range
            m = (d >= lo) & (d < hi)  # postings pushdown is block-granular
            d, a, tf, dl = d[m], a[m], tf[m], dl[m]
        df = float(d.size) if dfs is None else dfs[j]
        if not d.size or not df:
            continue
        idf = np.log(1.0 + (n_inst - df + 0.5) / (df + 0.5))
        tfd = tf.astype(np.float64)
        parts_d.append(d)
        parts_a.append(a)
        parts_s.append(idf * tfd * (k1 + 1.0)
                       / (tfd + k1 * (1.0 - b
                                      + b * dl.astype(np.float64) / avgdl)))
    depth = 1 if not parts_a else parts_a[0].shape[1]
    if not parts_d:
        return (np.zeros(0, np.int64), np.zeros((0, depth), np.int64),
                np.zeros(0, np.float64))
    docs = np.concatenate(parts_d)
    aps = np.vstack(parts_a)
    scores = np.concatenate(parts_s)
    # group by (doc, arraypath): one summed score per instance
    keys = [aps[:, j] for j in range(aps.shape[1] - 1, -1, -1)] + [docs]
    order = np.lexsort(keys)
    docs, aps, scores = docs[order], aps[order], scores[order]
    new = np.ones(docs.size, bool)
    new[1:] = (docs[1:] != docs[:-1]) | (aps[1:] != aps[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    summed = np.add.reduceat(scores, starts)
    docs, aps = docs[starts], aps[starts]
    tomb = reader.tombstones
    if tomb is not None and tomb.size:
        keep = ~np.isin(docs, tomb)
        docs, aps, summed = docs[keep], aps[keep], summed[keep]
    return docs, aps, np.round(summed, 4)


def _kp_bm25_order(docs, aps, r4):
    """Total-order permutation (r4 desc, doc asc, arraypath asc)."""
    keys = [aps[:, j] for j in range(aps.shape[1] - 1, -1, -1)]
    return np.lexsort(keys + [docs, -r4])


def kp_bm25_df_range(index_dir, kp, stemmed, lo, hi):
    """Phase-1 worker body: per-term instance dfs in [lo, hi)."""
    from ..query.distributed import _cached_reader
    from ..query.json_reader import JsonIndexReader

    reader = _cached_reader(index_dir, JsonIndexReader)
    out = []
    for t in stemmed:
        pl = reader.postings(kp, t, need_positions=False,
                             doc_range=(lo, hi))
        d = pl.docs
        out.append(int(((d >= lo) & (d < hi)).sum()) if d.size else 0)
    return out


def kp_bm25_score_range(index_dir, kp, stemmed, dfs, n_inst, avgdl,
                        k1, b, k, lo, hi):
    """Phase-2 worker body: this range's instance scores under GLOBAL
    dfs, pruned to the local top-k plus rounded-score ties at the cut
    (instances are disjoint across ranges, so merging per-range top-k
    + ties and re-cutting is exact)."""
    from ..query.distributed import _cached_reader
    from ..query.json_reader import JsonIndexReader

    reader = _cached_reader(index_dir, JsonIndexReader)
    docs, aps, r4 = _kp_bm25_fold(reader, kp, stemmed, dfs, n_inst,
                                  avgdl, k1, b, (lo, hi))
    if docs.size > k:
        order = _kp_bm25_order(docs, aps, r4)
        cut = r4[order[k - 1]]
        keep = order[:k + int(np.count_nonzero(r4[order[k:]] == cut))]
        docs, aps, r4 = docs[keep], aps[keep], r4[keep]
    return docs, aps, r4


def nested_kp_bm25(sf_dir: str, terms=("quick", "brown"), k: int = 20,
                   k1: float = 1.2, b: float = 0.75,
                   kp: str = ".turns$.text", *,
                   index_dir: str | None = None) -> pa.Table:
    """Keypath-qualified BM25 over the NESTED conversation index: rank
    the individual ``turns[].text`` instances (not whole documents) —
    the JSON-path-scoped twin of the flat engine's per-turn BM25, served
    entirely from the nested index artifacts:

    - tf / instance length: ``InstPostings.tfs`` / ``.lens``;
    - df: instances containing the term (posting entry count);
    - N / avgdl: per-kp ``n`` zone counters (metadata-only) and the
      stats sidecar's per-kp token total (``token_total``).

    Fans out per doc range through the shared worker pool above
    5M docs with global dfs (dfs_query_then_fetch), per-range local
    top-k + tie pruning.  Returns (conv_id, turn_idx, score) ordered by
    (score desc, conv_id asc, turn_idx asc) — arraypath IS the turn
    index for the packed corpus (ops/nested_docs.pack_file appends turns
    in turn_idx order)."""
    from ..query.engine import _stem_one

    if index_dir is not None:
        from ..query.distributed import _cached_reader
        from ..query.json_reader import JsonIndexReader

        reader = _cached_reader(index_dir, JsonIndexReader)
    else:
        reader = nested_transcripts_index(sf_dir)
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))
    n_inst = float(reader.kp_instance_count(kp))
    tok_total = float(reader.token_total(kp))
    if not n_inst or not tok_total:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "turn_idx": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    avgdl = tok_total / n_inst

    if n_inst >= dist_min_docs():  # instances (turns) are the scoring unit
        from ..query.distributed import pool_batched, worker_pool

        index_dir = reader.index_dir
        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        df_parts = pool_batched(pool, [
            ("ops_call", ("nested_docs", "kp_bm25_df_range",
                          (index_dir, kp, stemmed, lo, hi)))
            for (lo, hi) in ranges])
        dfs = [float(sum(p[j] for p in df_parts))
               for j in range(len(stemmed))]
        parts = pool_batched(pool, [
            ("ops_call", ("nested_docs", "kp_bm25_score_range",
                          (index_dir, kp, stemmed, dfs, n_inst, avgdl, k1, b,
                           k, lo, hi)))
            for (lo, hi) in ranges])
        docs = np.concatenate([p[0] for p in parts])
        aps = np.vstack([p[1] for p in parts])
        r4 = np.concatenate([p[2] for p in parts])
    else:
        docs, aps, r4 = _kp_bm25_fold(reader, kp, stemmed, None, n_inst,
                                      avgdl, k1, b, None)
    top = _kp_bm25_order(docs, aps, r4)[:k]
    docs, aps, r4 = docs[top], aps[top], r4[top]
    convs = reader.doc_id_strs(docs)
    return pa.table({"conv_id": pa.array(convs, pa.string()),
                     "turn_idx": pa.array(aps[:, 0], pa.int64()),
                     "score": pa.array(r4, pa.float64())})


_FILTER_MUL = np.int64(1) << np.int64(32)


def _kp_instance_filter(reader, docs, aps, r4, filter_kp: str,
                        value: str,
                        doc_range: tuple[int, int] | None = None):
    """Keep only instances whose SIBLING keypath instance (same doc,
    same arraypath prefix) equals ``value`` — the array-context
    post-filter.  Selective match sets use the candidate-pushdown read
    (only the matched docs' values rows decode); broad ones read the kp
    column once and cache the matching instance-key set ON THE READER
    (readers are cached per index version, so the derived set inherits
    the right invalidation), leaving warm queries a pure sorted
    membership probe."""
    if not docs.size:
        return docs, aps, r4
    uniq = np.unique(docs)
    keys = docs * _FILTER_MUL + aps[:, 0]
    lo, hi = doc_range if doc_range is not None else (0, reader.num_docs)
    if uniq.size * 8 >= hi - lo:  # breadth vs THIS range, not the corpus
        # broad match set: every partition qualifies anyway, so read the
        # kp column once through the per-partition decoded cache
        # (values_kp caches on FIRST read; the pushdown read only
        # promotes after 3 visits) — the doc-span restriction still
        # prunes partitions outside a range worker's slice
        span = (lo, hi) if doc_range is not None else (
            int(uniq[0]), int(uniq[-1]) + 1)
        cache = getattr(reader, "_kp_filter_keys", None)
        if cache is None:
            cache = reader._kp_filter_keys = {}
        ck = (filter_kp, value, span)
        want = cache.get(ck)
        if want is None:
            vd, va, codes, _nums, strs, _bb = reader.values_kp(
                filter_kp, doc_range=span)
            sel = np.zeros(vd.size, bool) if not vd.size else (
                (codes == "s") & (strs == value))
            want = vd[sel] * _FILTER_MUL + va[sel, 0]  # sorted (doc, ap)
            if len(cache) < 64:
                cache[ck] = want
        # sorted membership probe (want ascends with (doc, arraypath))
        pos = np.searchsorted(want, keys)
        keep = np.zeros(keys.size, bool)
        inb = pos < want.size
        keep[inb] = want[pos[inb]] == keys[inb]
    else:
        vd, va, codes, _nums, strs, _bb = reader.values_kp_for_docs(
            filter_kp, uniq)
        sel = np.zeros(vd.size, bool) if not vd.size else (
            (codes == "s") & (strs == value))
        want = vd[sel] * _FILTER_MUL + va[sel, 0]
        keep = np.isin(keys, want)
    return docs[keep], aps[keep], r4[keep]


def kp_bm25_filtered_range(index_dir, kp, stemmed, dfs, n_inst, avgdl,
                           k1, b, k, filter_kp, value, lo, hi):
    """Phase-2 worker body for the filtered variant: fold, sibling
    filter, then local top-k + ties (same exactness argument as
    kp_bm25_score_range — instances are disjoint across ranges)."""
    from ..query.distributed import _cached_reader
    from ..query.json_reader import JsonIndexReader

    reader = _cached_reader(index_dir, JsonIndexReader)
    docs, aps, r4 = _kp_bm25_fold(reader, kp, stemmed, dfs, n_inst,
                                  avgdl, k1, b, (lo, hi))
    docs, aps, r4 = _kp_instance_filter(reader, docs, aps, r4,
                                        filter_kp, value, (lo, hi))
    if docs.size > k:
        order = _kp_bm25_order(docs, aps, r4)
        cut = r4[order[k - 1]]
        keep = order[:k + int(np.count_nonzero(r4[order[k:]] == cut))]
        docs, aps, r4 = docs[keep], aps[keep], r4[keep]
    return docs, aps, r4


def nested_kp_bm25_filtered(sf_dir: str, terms=("quick", "brown"),
                            k: int = 20, k1: float = 1.2, b: float = 0.75,
                            kp: str = ".turns$.text",
                            filter_kp: str = ".turns$.role",
                            value: str = "assistant", *,
                            index_dir: str | None = None) -> pa.Table:
    """Sibling-filtered keypath BM25: rank ``turns[].text`` instances
    where the SAME turn's ``role`` equals ``value`` — the array-context
    AND (both clauses hit one array element) composed with per-instance
    ranking.  Elasticsearch post_filter semantics: the filter gates
    candidates but BM25 statistics (df, N, avgdl) stay INDEX-WIDE, so
    scores equal the unfiltered ``nested_kp_bm25`` on the surviving
    instances.  The filter reads only matched docs' values rows
    (candidate pushdown), never a corpus scan."""
    from ..query.engine import _stem_one

    if index_dir is not None:
        from ..query.distributed import _cached_reader
        from ..query.json_reader import JsonIndexReader

        reader = _cached_reader(index_dir, JsonIndexReader)
    else:
        reader = nested_transcripts_index(sf_dir)
    stemmed = list(dict.fromkeys(_stem_one(t) for t in terms))
    n_inst = float(reader.kp_instance_count(kp))
    tok_total = float(reader.token_total(kp))
    if not n_inst or not tok_total:
        return pa.table({"conv_id": pa.array([], pa.string()),
                         "turn_idx": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    avgdl = tok_total / n_inst

    if n_inst >= dist_min_docs():  # instances (turns) are the scoring unit
        from ..query.distributed import pool_batched, worker_pool

        index_dir = reader.index_dir
        ranges = doc_ranges(reader.num_docs)
        pool = worker_pool()
        df_parts = pool_batched(pool, [
            ("ops_call", ("nested_docs", "kp_bm25_df_range",
                          (index_dir, kp, stemmed, lo, hi)))
            for (lo, hi) in ranges])
        dfs = [float(sum(p[j] for p in df_parts))
               for j in range(len(stemmed))]
        parts = pool_batched(pool, [
            ("ops_call", ("nested_docs", "kp_bm25_filtered_range",
                          (index_dir, kp, stemmed, dfs, n_inst, avgdl, k1, b,
                           k, filter_kp, value, lo, hi)))
            for (lo, hi) in ranges])
        docs = np.concatenate([p[0] for p in parts])
        aps = np.vstack([p[1] for p in parts])
        r4 = np.concatenate([p[2] for p in parts])
    else:
        docs, aps, r4 = _kp_bm25_fold(reader, kp, stemmed, None, n_inst,
                                      avgdl, k1, b, None)
        docs, aps, r4 = _kp_instance_filter(reader, docs, aps, r4,
                                            filter_kp, value)
    top = _kp_bm25_order(docs, aps, r4)[:k]
    docs, aps, r4 = docs[top], aps[top], r4[top]
    convs = reader.doc_id_strs(docs)
    return pa.table({"conv_id": pa.array(convs, pa.string()),
                     "turn_idx": pa.array(aps[:, 0], pa.int64()),
                     "score": pa.array(r4, pa.float64())})
