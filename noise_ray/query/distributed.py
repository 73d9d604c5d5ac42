"""Distributed query execution: the range fan-out of both engines.

The SURVEY §3.2 query path for cluster scale: the doc space is split into
contiguous doc_id ranges (``doc_ranges``) and one call per range on a
long-lived pool actor (``_RangeWorker``) evaluates the query restricted
to its range.  ``query_ranges`` is the one route rule — in-process, or
which ranges — of ``run_query``, ``run_json_query`` and
``delete_by_query``; ``run_query_distributed`` forces the fan-out on
either engine's index.  Two functions put query and delete bodies on the
pool, for both engines:

- ``evaluate_ranges`` runs one match body per range and returns the
  range's candidates: for scored top-k queries only the local top k plus
  every tie at the local k-th score (a doc outside its range's top k is
  beaten by >= k docs of that range alone, so it can never reach the
  global top k; ties at the cut are kept so the global tie-break
  machinery sees every contender), for unordered limits the local first
  k.  The driver concatenates candidates in doc order and applies the
  SAME order/limit machinery as the in-process path, so results are
  bit-identical to it.
- ``fold_ranges`` runs an aggregate query as per-range PARTIAL folds in
  the workers with a driver-side state merge (only one state row per
  (range, group) crosses the wire).  The merge reproduces the local
  buffered fold exactly — including array()/concat()'s reversed
  accumulation order — except that sum/avg reassociate float addition
  across ranges (deterministic, last-ulp on non-integer data).  An
  aggregate query WITH a limit streams matches back and folds on the
  driver instead: the reference's buffered early-cut truncates mid-merge
  in an order-sensitive way per-range partials cannot reproduce.

Workers receive the parsed query, never its text, and the engine (the
manifest's ``nested`` flag).  The driver runs the engine's not-check
once before any pool call, so a malformed filter raises the engine's
plain error.  Exactness rests on per-doc independence: every filter
decision, bind collection and score component (tf, field_len, idf from
GLOBAL stats, query_norm) depends only on the doc itself and index-wide
statistics, never on other matched docs.  Workers open the manifest
independently and cache readers process-wide (one open per worker per
index version).
"""

from __future__ import annotations

import importlib
import json
import os

import numpy as np
import ray

from . import ast
from .aggregates import AGG_IMPLS, agg_plan
from .engine import F32, CompiledQuery
from .json_engine import CompiledJsonQuery
from .json_reader import JsonIndexReader
from .noise_parser import parse_noise_query, parse_query, ret_leaves
from .reader import IndexReader

_READER_CACHE: dict[tuple, object] = {}


def dist_min_docs() -> int:
    """Document-count threshold above which ops fan out through the
    range-actor pool instead of evaluating in-process.  Overridable via
    ``NOISE_RAY_DIST_MIN_DOCS`` so the correctness harness can force the
    distributed dispatch end-to-end at small scale (the worker bodies
    are equality-tested regardless; this gates the *dispatch* itself)."""
    return int(os.environ.get("NOISE_RAY_DIST_MIN_DOCS", 5_000_000))


def query_ranges(reader) -> list[tuple[int, int]] | None:
    """The route of a query or delete over ``reader``: None to evaluate
    in-process, else the doc ranges to fan out over.  A flat index fans
    out from ``dist_min_docs()`` docs over ``doc_ranges(n)``; a nested
    one from 2M docs over one range per 250k docs, at most 32 — the split
    the nested BASELINE rows were measured on.  ``NOISE_RAY_DIST_MIN_DOCS``
    moves both thresholds."""
    n = reader.num_docs
    if not reader.manifest.get("nested"):
        return doc_ranges(n) if n >= dist_min_docs() else None
    if n < (dist_min_docs() if "NOISE_RAY_DIST_MIN_DOCS" in os.environ
            else 2_000_000):
        return None
    return doc_ranges(n, min(32, max(1, n // 250_000)))


def _cached_reader(index_dir: str, cls: type = IndexReader):
    """Per-worker-process reader cache, shared by the flat AND nested
    (``cls=JsonIndexReader``) distributed paths: one open per worker per
    index version, so repeated range tasks reuse decoded postings /
    values / docmap caches instead of rebuilding them per query."""
    from ..build.incremental import TOMBSTONES_NAME, _epoch_dirs

    try:
        tomb_mtime = os.stat(os.path.join(index_dir,
                                          TOMBSTONES_NAME)).st_mtime_ns
    except FileNotFoundError:
        tomb_mtime = 0
    # key includes the published-epoch set (an incremental add must refresh
    # cached readers even when it tombstoned nothing) AND the manifest
    # mtime (compaction swaps in a new manifest with no epochs and no
    # tombstones — indistinguishable from the original build otherwise)
    man_mtime = os.stat(os.path.join(index_dir, "manifest.json")).st_mtime_ns
    key = (index_dir, cls.__name__, man_mtime, tomb_mtime,
           tuple(os.path.basename(d) for d in _epoch_dirs(index_dir)))
    r = _READER_CACHE.get(key)
    if r is None:
        # evict this index's older versions: each stale reader pins up to
        # _DOCMAP_CACHE_CAP of decoded columns and is never used again
        for k in [k for k in _READER_CACHE
                  if k[0] == index_dir and k[1] == cls.__name__]:
            del _READER_CACHE[k]
        r = _READER_CACHE[key] = cls(index_dir)
    return r


def _engine(nested: bool) -> tuple[type, type]:
    """(reader class, compiled-query class) of the flat or nested
    engine."""
    if nested:
        return JsonIndexReader, CompiledJsonQuery
    return IndexReader, CompiledQuery


def _match(reader, cq_cls, filter_node, doc_range, keep):
    """The one match body: ``(docs, f32 scores, binds-or-None, pos, n)``
    of ``filter_node`` over ``doc_range`` (None: the whole index).  Of
    the n matches, ``keep`` keeps the top k plus ties at the k-th score
    (``("score", k)``), the first k (``("head", k)``) or all (None);
    ``pos`` holds the kept rows' indexes among the n (None when ``keep``
    is None)."""
    cq = cq_cls(reader, filter_node, doc_range=doc_range)
    res = cq.evaluate()
    docs, scores = res.docs, cq.final_scores(res)
    binds = getattr(res, "binds", None)
    n = docs.size
    pos = None
    if keep is not None:
        mode, k = keep
        if mode == "head" or n <= k:
            pos = np.arange(min(k, n))
        else:
            # float64 view is fine for selection: equal f32s are equal f64s
            pos = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
        if pos.size < n:
            docs, scores = docs[pos], scores[pos]
            if binds is not None:
                binds = [binds[i] for i in pos]
    return docs, scores.astype(F32), binds, pos, n


def _match_range(index_dir: str, nested: bool, filter_node, lo: int,
                 hi: int, keep):
    """Pool body of ``evaluate_ranges``: ``_match`` over ``[lo, hi)``
    through the worker's cached reader."""
    reader_cls, cq_cls = _engine(nested)
    return _match(_cached_reader(index_dir, reader_cls), cq_cls,
                  filter_node, (lo, hi), keep)


def limit_keep(q) -> tuple[str, int] | None:
    """The worker-side prune a non-aggregate query's order and limit make
    exact: ``("score", k)`` for ``order score() desc ... limit k``,
    ``("head", k)`` for an unordered ``limit k`` (matches stream in doc
    order and ranges ascend, so the global first k lie within the ranges'
    first k), else None."""
    if not q.limit:
        return None
    if not q.order:
        return ("head", q.limit)
    if len(q.order) == 1 and q.order[0].score and q.order[0].desc:
        return ("score", q.limit)
    return None


def evaluate_ranges(reader, filter_node, ranges, keep):
    """``(docs, f32 scores, binds-or-None, pos)`` of ``filter_node`` over
    either engine's ``reader``, in doc order: in-process when ``ranges``
    is None (``query_ranges``' in-process route), else one pool call per
    doc range, each pruned to ``keep`` (see ``_match``).  ``pos`` holds
    each row's index in the unpruned match stream (None when ``keep`` is
    None): the nested engine's buffered order/limit merges on the
    stream's arrival batches, which a prune would otherwise shift.  Binds
    are None for the flat engine."""
    nested = bool(reader.manifest.get("nested"))
    cq_cls = _engine(nested)[1]
    if ranges is None:
        return _match(reader, cq_cls, filter_node, None, keep)[:4]
    cq_cls._check_not_validity(filter_node)
    parts = pool_batched(worker_pool(), [
        ("ops_call", (".query.distributed", "_match_range",
                      (reader.index_dir, nested, filter_node, lo, hi, keep)))
        for lo, hi in ranges])
    # ranges are disjoint and ascending → already doc-ordered; an empty
    # index has no ranges
    docs = np.concatenate([p[0] for p in parts] or [np.zeros(0, np.int64)])
    scores = np.concatenate([p[1] for p in parts] or [np.zeros(0, F32)])
    binds = None
    if any(p[2] is not None for p in parts):
        binds = [b for p in parts
                 for b in (p[2] if p[2] is not None else [None] * p[0].size)]
    pos = None
    if keep is not None:
        starts = np.cumsum([0] + [p[4] for p in parts])
        pos = np.concatenate([p[3] + st for p, st in zip(parts, starts)]
                             or [np.zeros(0, np.int64)])
    return docs, scores, binds, pos


def _fold_range(index_dir: str, nested: bool, q, lo: int, hi: int):
    """Pool body of ``fold_ranges``: match, leaf-fetch and partially
    aggregate ``[lo, hi)`` — docmap reads and the per-row fold never
    leave the worker."""
    reader_cls, cq_cls = _engine(nested)
    reader = _cached_reader(index_dir, reader_cls)
    docs, scores, binds, _, _ = _match(reader, cq_cls, q.filter, (lo, hi),
                                       None)
    leaves = ret_leaves(q.returns)
    if nested:
        from .json_executor import _LeafEval

        ev = _LeafEval(reader, leaves, docs, scores, binds)
        rows = [ev.row(i) for i in range(docs.size)]
    else:
        from .executor import _leaf_values

        rows = _leaf_values(reader, leaves, docs, scores)
    return _partial_fold(leaves, rows)


def fold_ranges(reader, q, ranges) -> list:
    """The final group rows (one value list per group, in output order)
    of an aggregate query without a limit over either engine's
    ``reader``: one pool call per doc range folds its matches to one
    state row per group (``_partial_fold``); the driver merges them in
    reversed range order, finalizes and orders the groups."""
    import functools

    from .results import cmp_json

    nested = bool(reader.manifest.get("nested"))
    _engine(nested)[1]._check_not_validity(q.filter)
    parts = pool_batched(worker_pool(), [
        ("ops_call", (".query.distributed", "_fold_range",
                      (reader.index_dir, nested, q, lo, hi)))
        for lo, hi in ranges])
    leaves = ret_leaves(q.returns)
    orders, _, _, finals = agg_plan(leaves)
    agg_slots = [(n, l.fun, l.sep) for n, l in enumerate(leaves)
                 if isinstance(l, ast.RetAgg) and l.fun != "group"]
    merged: dict = {}
    for part in reversed(parts):  # reversed range order (see _partial_fold)
        for key, state in part:
            cur = merged.get(key)
            if cur is None:
                merged[key] = state
            else:
                for n, fun, sep in agg_slots:
                    cur[n] = _merge_states(fun, cur[n], state[n], sep)
    rows = list(merged.values())
    for fin, n in finals:
        for row in rows:
            row[n] = fin(row[n])

    def cmp(a, b):
        for desc, n in orders:
            c = cmp_json(b[n], a[n]) if desc else cmp_json(a[n], b[n])
            if c:
                return c
        return 0

    rows.sort(key=functools.cmp_to_key(cmp))
    return rows


def _merge_states(fun: str, a, b, sep):
    """Merge two per-range partial aggregate states (same group).

    States are exactly the local fold's state domain, so min/max/array
    merges reuse the ported actions.  sum/avg reassociate float addition
    across ranges (deterministic — fixed range boundaries — but may differ
    from the sequential fold in the last ulp on non-integer data)."""
    if fun == "count" or fun == "sum":
        return a + b
    if fun == "avg":
        n = a[1] + b[1]
        if n == 0.0:
            return [0.0, 0.0]
        return [(a[0] * a[1] + b[0] * b[1]) / n, n]
    if fun in ("array", "array_flat"):
        return a + b
    if fun == "concat":
        if isinstance(a, str) and isinstance(b, str):
            return a + sep + b
        return a if isinstance(a, str) else b
    # min / max / min_array / max_array: b's state is in the value domain
    # the action accepts as `new`
    return AGG_IMPLS[fun][1](a, b, None)


def _partial_fold(leaves, rows):
    """Per-range partial aggregation: fold rows (doc order) into one state
    row per group.  Returns [(hashable_group_key, slot_states)] in
    first-seen order."""
    orders, inits, actions, _ = agg_plan(leaves)
    group_slots = [n for _, n in orders]

    # Type-tagged canonical key: two values collide iff cmp_json treats
    # them as equal.  A bare Python-hash key would merge True with 1.0
    # (hash-equal, cmp_json-distinct) and TypeError on dict group values.
    def hashable(v):
        if v is None:
            return (0,)
        if isinstance(v, bool):  # before int: bool is an int subclass
            return (1, v)
        if isinstance(v, (int, float)):
            return (2, float(v))
        if isinstance(v, str):
            return (3, v)
        if isinstance(v, list):
            return (4, tuple(map(hashable, v)))
        if isinstance(v, dict):
            return (5, tuple((k, hashable(x)) for k, x in v.items()))
        return (6, v)

    # REVERSED doc order: the local buffered merge accumulates group rows
    # back to front (observable in array()/concat() output,
    # repl-tests/group.noise); folding each range reversed — and merging
    # ranges reversed — reproduces it exactly for unlimited aggregates
    partial: dict = {}
    for row in reversed(rows):
        key = tuple(hashable(row[n]) for n in group_slots)
        state = partial.get(key)
        if state is None:
            state = list(row)
            for init, n in inits:
                state[n] = init(row[n])
            partial[key] = state
        else:
            for action, sep, n in actions:
                state[n] = action(state[n], row[n], sep)
    return list(partial.items())


def _resolve(module: str, fn: str):
    """The pool's one dispatch resolver: ``fn`` of the module named
    relative to ``noise_ray.ops`` — ``"bm25"`` is ``noise_ray.ops.bm25``,
    ``".query.distributed"`` is ``noise_ray.query.distributed``."""
    return getattr(importlib.import_module("." + module, "noise_ray.ops"),
                   fn)


@ray.remote
class _RangeWorker:
    """Long-lived range worker shared by every distributed fan-out (flat
    and nested queries, ops, builds).

    Plain ``ray.remote`` tasks land on arbitrary worker processes, so the
    per-process reader cache (``_cached_reader``) only helped when Ray
    happened to reschedule a range onto a process that had served it
    before — warm latencies of values-heavy queries equalled cold ones.
    A pool of actors with a deterministic range→actor assignment (range
    i → actor i mod n) gives every doc range a stable home: the second
    query finds that range's postings/values/docmap already decoded.

    ``num_cpus=0``: the pool must not RESERVE cores — an idle pool
    holding n×1 CPU starves every later Ray Data job on the cluster
    (builds, compactions) into deadlock.  Parallelism is bounded by the
    actor count instead."""

    def call_batch(self, calls):
        """Run ``[("ops_call", (module, fn, args)), ...]`` sequentially
        on this actor and return their results as a list — the
        per-WORKER coalesced form of the per-range dispatch (see
        pool_batched)."""
        return [_resolve(module, fn)(*args)
                for _tag, (module, fn, args) in calls]


_pool: list = []


def pool_batched(pool: list, calls: list) -> list:
    """Dispatch ``calls[i] = ("ops_call", (module, fn, args))`` — run
    ``fn(*args)`` of ``module`` (named relative to ``noise_ray.ops``, see
    ``_resolve``) on a pool actor — with ONE remote
    round-trip per WORKER instead of one per range: call ``i`` keeps its
    deterministic home ``pool[i % len(pool)]`` (so per-actor reader
    caches stay warm across this change), but each actor receives a
    single task carrying all of its calls and returns their results
    together.  Actors execute tasks sequentially anyway
    (max_concurrency=1), so grouping changes only the dispatch count —
    it cuts the per-query latency floor from ~rtt × ranges to
    ~rtt × workers — never the results, and shared per-call args (df
    tables, vocab dicts) serialize once per worker, not once per range.
    Results return in the original call order.

    Every call keeps the one tagged shape, ``"ops_call"`` tag and
    ``noise_ray.ops``-relative module names included, even though the
    worker has a single entry point: the benchmark tracer
    (perfbench/spans.py) wraps this function, replays each recorded round
    by that shape and sorts rounds into df and score rounds by ``fn``.
    Callers therefore import this name at call time, not at module
    import, so a wrapper installed later still sees every round."""
    if not calls:
        return []
    n = len(pool)
    groups: dict[int, list[int]] = {}
    for i in range(len(calls)):
        groups.setdefault(i % n, []).append(i)
    ws = sorted(groups)
    refs = [pool[w].call_batch.remote([calls[i] for i in groups[w]])
            for w in ws]
    out: list = [None] * len(calls)
    for w, res in zip(ws, ray.get(refs)):
        for i, r in zip(groups[w], res):
            out[i] = r
    return out


def doc_ranges(num_docs: int,
               parts: int | None = None) -> list[tuple[int, int]]:
    """Split ``[0, num_docs)`` into at most ``parts`` contiguous,
    ascending doc ranges of ``ceil(num_docs / parts)`` docs (the last
    may be shorter); an empty index has no ranges.  ``parts`` defaults
    to one range per 10k docs, capped at the cluster's CPU count.  The
    boundaries fix the order in which per-range sum/avg partials
    reassociate, so they are part of every distributed result."""
    if parts is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        parts = max(1, min(cpus, num_docs // 10_000 + 1))
    span = max(1, -(-num_docs // parts))
    return [(lo, min(lo + span, num_docs))
            for lo in range(0, num_docs, span)]


def serve_partitions() -> int:
    """Per-query fan-out width on the SERVING path (concurrent-query
    workloads).  A single query's useful work (k posting lookups + WAND
    over its ranges) is milliseconds; fanning it over every core of a
    growing cluster multiplies its FIXED costs (dispatch, per-range
    setup) by the cluster size — measured on the 22M index, 8->32 CPUs
    only cut 16-query round latency 0.12s -> 0.053s (2.2x for 4x
    cores).  Serving therefore pins each query to a fixed number of
    partitions and scales concurrency with REPLICA GROUPS instead
    (``replica_slice``), the partition x replication grid every search
    cluster uses: latency governed by P, throughput by R = pool/P."""
    import os

    return max(1, int(os.environ.get("NOISE_RAY_SERVE_PARTITIONS", "8")))


def replica_slice(pool: list, partitions: int, group: int) -> list:
    """Carve the worker pool into R = len(pool) // partitions disjoint
    replica groups of ``partitions`` actors; round ``group`` is served
    by group ``group % R``.  Range i keeps a deterministic home WITHIN
    each group (``pool_batched``'s i % n over the slice), so every
    group independently warms reader caches for all ranges and
    concurrent rounds on different groups never queue on each other's
    actors.  Falls back to the whole pool when it cannot hold two full
    groups.  Routing only relocates which actor evaluates a range —
    the per-range bodies and the merge are untouched, so results are
    bit-identical for every group value
    (tests/test_bm25.py::test_msearch_replica_groups_bit_identical)."""
    r = len(pool) // partitions
    if r < 2:
        return pool
    g = group % r
    return pool[g * partitions:(g + 1) * partitions]


def worker_pool() -> list:
    """Lazily created, driver-lifetime actor pool sized to the cluster
    (<= 32); actors die with the driver.  ``NOISE_RAY_POOL_SIZE`` caps
    the size per driver — a serving frontend sharing the cluster with
    other frontends takes only its slice of actors (one frontend per
    ~8 cores, each an independent partition-complete serving unit; see
    bench.py qps mode)."""
    import os

    global _pool
    cap = int(os.environ.get("NOISE_RAY_POOL_SIZE", "32"))
    n = max(1, min(cap, int(ray.cluster_resources().get("CPU", 1))))
    if len(_pool) != n:
        _pool = [_RangeWorker.options(num_cpus=0).remote()
                 for _ in range(n)]
    return _pool


def run_query_distributed(index_dir: str, query: str,
                          params: dict | None = None,
                          num_partitions: int | None = None):
    """Evaluate ``query`` on either engine's index with one pool-actor
    call per doc range (``doc_ranges(n, num_partitions)``), whatever the
    index size; returns what ``run_query`` (flat) or ``run_json_query``
    (nested) returns, identically."""
    from . import executor, json_executor

    with open(os.path.join(index_dir, "manifest.json")) as f:
        nested = bool(json.load(f).get("nested"))
    reader = _cached_reader(index_dir, _engine(nested)[0])
    ranges = doc_ranges(reader.num_docs, num_partitions)
    if nested:
        return json_executor._execute(
            reader, parse_noise_query(query, params), ranges)
    return executor._execute(reader, parse_query(query, params), ranges)
