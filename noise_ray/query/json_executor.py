"""Nested-query execution: compile → evaluate → fetch → order/limit →
render.

The nested analogue of executor.run_query, consuming json_engine results
the way the reference's QueryResults loop does (src/query.rs:479-573):
one result per doc (the first matching (seq, arraypath) instance), scores
from that instance, returnables fetched from the stored document by
ReturnPath (the JsonFetcher re-expressed over parsed JSON,
src/snapshot.rs:194-433), ordering/limit/aggregates through the ported
buffered machinery (results.py / aggregates.py).

``run_json_query`` returns the reference's JSON value stream (one Python
value per result row) — the REPL renders it byte-identically to the
reference's ``JsonValue::render``; ``json_query_table`` adapts the same
rows into a pyarrow Table for the Dataset-facing API.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from ..build.shred import escape_key, parse_kp, unescape_segment
from . import ast
from .aggregates import AGG_FINALS, AGG_IMPLS, aggregate_order_limit
from .json_engine import CompiledJsonQuery
from .json_reader import JsonIndexReader
from .noise_parser import parse_noise_query, ret_leaves
from .results import order_and_limit

_MISSING = object()

# index size (docs) from which nested matching fans out over the range
# worker pool (run_json_query, incremental.delete_by_query)
DIST_MIN_DOCS = 2_000_000


# --------------------------------------------------------------- fetcher

def canonical(v):
    """A parsed JSON value as the reference's fetcher reconstructs it from
    V keys (src/snapshot.rs:325-433): object keys in escaped-key byte
    order (RocksDB iteration order), all numbers f64."""
    if isinstance(v, dict):
        return {k: canonical(v[k])
                for k in sorted(v, key=escape_key)}
    if isinstance(v, list):
        return [canonical(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    raise TypeError(f"unjsonable value {v!r}")


def literal_value(v):
    """Normalize a query-literal JSON value (default=, RetLiteral):
    numbers widen to f64 but object key order stays AS WRITTEN — the
    reference stores these as literal JsonValues, never through the
    V-key reconstruction that canonical() models."""
    if isinstance(v, dict):
        return {k: literal_value(x) for k, x in v.items()}
    if isinstance(v, list):
        return [literal_value(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    return float(v)


def fetch_path(value, segs: tuple, i: int = 0):
    """descend_return_path (src/snapshot.rs:232-295) over a parsed doc:
    returns the value at the path or ``_MISSING``.  ``('*',)`` fans out
    over array elements, skipping elements where the rest of the path is
    missing, stopping at the first non-existent element, missing if no
    element yielded a value."""
    while i < len(segs):
        seg = segs[i]
        i += 1
        if seg[0] == "k":
            if not isinstance(value, dict) or seg[1] not in value:
                return _MISSING
            value = value[seg[1]]
        elif seg[0] == "i":
            if not isinstance(value, list) or seg[1] >= len(value):
                return _MISSING
            value = value[seg[1]]
        else:  # ('*',) fan-out
            if not isinstance(value, list):
                return _MISSING
            out = []
            for el in value:
                sub = fetch_path(el, segs, i)
                if sub is not _MISSING:
                    out.append(sub)
            return out if out else _MISSING
    return canonical(value)


def vkey_segs(vkey: str) -> tuple:
    """A filled value key (``.bar$1``) as a fetch path."""
    out = []
    for seg in parse_kp(vkey):
        if seg.startswith("$"):
            out.append(("i", int(seg[1:] or 0)))
        else:
            out.append(("k", unescape_segment(seg)))
    return tuple(out)


class _DocFetcher:
    """Lazy doc-store access: text fetch happens on FIRST use, so queries
    whose leaves touch no document (``return {n: count()}``) never read
    the json column at all."""

    def __init__(self, reader: JsonIndexReader, doc_ids: np.ndarray):
        self.reader = reader
        self._doc_ids = doc_ids
        self._parsed = [None] * len(doc_ids)
        self._texts = None

    def doc(self, row: int):
        v = self._parsed[row]
        if v is None:
            if self._texts is None:
                self._texts = self.reader.doc_json(self._doc_ids)
            v = self._parsed[row] = json.loads(self._texts[row])
        return v


class _LeafEval:
    """Leaf-row materialization shared by the local executor and the
    distributed per-range aggregate tasks: one JSON value per (leaf, row),
    fetched lazily from the doc store."""

    def __init__(self, reader: JsonIndexReader, leaves, docs: np.ndarray,
                 scores: np.ndarray, binds):
        self.leaves = leaves
        self.scores = scores
        self.binds = binds
        self.fetcher = _DocFetcher(reader, docs)

    def row(self, i: int) -> list:
        return [self.leaf_value(l, i) for l in self.leaves]

    def leaf_value(self, leaf, row: int):
        if isinstance(leaf, ast.RetScore):
            return float(np.float64(self.scores[row]))
        if isinstance(leaf, ast.RetLiteral):
            return literal_value(leaf.value)
        if isinstance(leaf, ast.RetAgg):
            if leaf.fun == "count":
                return None  # count() fetches nothing (returnable.rs:312)
            if leaf.bind:
                return self._bind_value(leaf.bind, leaf.field or (), None,
                                        row)
            return self._path_value(leaf.field or (), leaf.default, row)
        if isinstance(leaf, ast.RetBind):
            return self._bind_value(leaf.name, leaf.extra, leaf.default, row)
        # RetPath
        return self._path_value(leaf.field, leaf.default, row)

    def _path_value(self, segs, default, row: int):
        v = fetch_path(self.fetcher.doc(row), segs)
        if v is _MISSING:
            return literal_value(default) if default is not None else None
        return v

    def _bind_value(self, name, extra, default, row: int):
        """RetBind::fetch_result (src/returnable.rs:357-381)."""
        row_binds = self.binds[row] if self.binds is not None else None
        dflt = literal_value(default) if default is not None else None
        if not row_binds or name not in row_binds:
            return [dflt]
        out = []
        for vkey in row_binds[name]:
            v = fetch_path(self.fetcher.doc(row),
                           vkey_segs(vkey) + tuple(extra))
            out.append(dflt if v is _MISSING else v)
        return out


# -------------------------------------------------------------- executor

def run_json_query(reader: JsonIndexReader, q, params: dict | None = None,
                   distributed_threshold: int = DIST_MIN_DOCS) -> list:
    """Evaluate a nested query; returns the reference's JSON result stream
    as Python values.

    Above ``distributed_threshold`` docs, matching+scoring fan out as one
    range-pool call per doc range (exact under range partitioning: every
    filter, bind collection and score is per-doc independent; idf/stats
    are global reads, identical in every call).  Fetch/order/limit/aggregate
    stay on the driver — the result set is already per-doc."""
    if isinstance(q, str):
        q = parse_noise_query(q, params)
    leaves = ret_leaves(q.returns)
    has_ags = any(isinstance(l, ast.RetAgg) for l in leaves)
    if reader.num_docs >= distributed_threshold:
        check_distributable(q.filter)
        is_alldocs = isinstance(q.filter, ast.AllDocs)
        if has_ags and q.limit is None and not is_alldocs:
            # per-range partial folds: leaf fetch + fold stay in the
            # workers, one state row per (range, group) crosses the wire
            # (mirrors the flat path; AllDocs roots fall through — their
            # string-seq row order isn't range-reconstructible, and
            # limited aggregates keep the reference's order-sensitive
            # buffered early-cut on the driver)
            from .distributed import (doc_ranges, merge_agg_rows,
                                      pool_batched, worker_pool)

            n = reader.num_docs
            parts = pool_batched(worker_pool(), [
                ("ops_call", (".query.json_executor", "_json_agg_range_impl",
                              (reader.index_dir, q, lo, hi)))
                for (lo, hi) in doc_ranges(n, min(32, max(1, n // 250_000)))])
            out_rows = merge_agg_rows(q, leaves, parts)
            return [_render_tree(q.returns, iter(r)) for r in out_rows]
        keep = None
        if not has_ags and q.limit is not None:
            if (q.order and len(q.order) == 1 and q.order[0].score
                    and q.order[0].desc):
                keep = ("score", q.limit)
            elif not q.order and not is_alldocs:
                # unordered limit truncates the doc-ordered stream: the
                # global first k is within each range's first k
                keep = ("head", q.limit)
        docs, scores, binds = _evaluate_distributed(reader, q.filter, keep)
    else:
        compiled = CompiledJsonQuery(reader, q.filter)
        result = compiled.evaluate()
        scores = compiled.final_scores(result)
        docs = result.docs
        binds = result.binds

    if isinstance(q.filter, ast.AllDocs) and docs.size:
        # a bare `find {}` streams the V keyspace, whose seqs are DECIMAL
        # STRINGS — RocksDB iteration yields 1, 10, 11, ..., 2
        # (AllDocsIterator, src/snapshot.rs:435-456; repl-tests/
        # query_basic.noise encodes this order).  Composed filters seek
        # and compare numerically, so only the pure-AllDocs root gets
        # the string order.
        seqs = np.asarray(reader.doc_seqs(docs)).astype("U20")
        perm = np.argsort(seqs, kind="stable")
        docs = docs[perm]
        scores = scores[perm]
        if binds is not None:
            binds = [binds[i] for i in perm]

    if not has_ags and not q.order and q.limit is not None:
        # unordered limit truncates the seq-ordered stream up front
        # (src/query.rs:558-560) — fetch only the surviving docs
        docs = docs[: q.limit]
        scores = scores[: q.limit]
        if binds is not None:
            binds = binds[: q.limit]

    ev = _LeafEval(reader, leaves, docs, scores, binds)

    n = docs.size
    if has_ags:
        rows = [ev.row(i) for i in range(n)]
        orders: list[tuple[bool, int]] = []
        inits, actions, finals = [], [], []
        for slot, leaf in enumerate(leaves):
            if not isinstance(leaf, ast.RetAgg):
                continue
            if leaf.fun == "group":
                orders.append((leaf.desc, slot))
                continue
            init, action, _ = AGG_IMPLS[leaf.fun]
            if init is not None:
                inits.append((init, slot))
            actions.append((action, leaf.sep, slot))
            fin = AGG_FINALS.get(leaf.fun)
            if fin is not None:
                finals.append((fin, slot))
        out_rows = aggregate_order_limit(rows, orders, q.limit, inits,
                                         actions, finals)
        return [_render_tree(q.returns, iter(r)) for r in out_rows]

    if q.order:
        score_only = all(k.score for k in q.order)
        if score_only and n and np.unique(scores).size == n:
            # untied score ordering is a TOTAL order: any sort method
            # yields the buffered machinery's exact output, so skip the
            # per-row Python rows (ties — where merge interleaving is
            # observable, query_basic.noise — fall through to the port)
            prim = scores.astype(np.float64)
            sel = np.argsort(-prim if q.order[0].desc else prim,
                             kind="stable")
            if q.limit is not None:
                sel = sel[: q.limit]
            sel = sel.tolist()
        else:
            def order_key(k: ast.OrderKey, i: int):
                if k.score:
                    return float(np.float64(scores[i]))
                v = fetch_path(ev.fetcher.doc(i), k.field)
                if v is _MISSING:
                    return literal_value(k.default) \
                        if k.default is not None else None
                return v

            rows = [tuple(order_key(k, i) for k in q.order) + (i,)
                    for i in range(n)]
            ordered = order_and_limit(rows, [k.desc for k in q.order],
                                      q.limit)
            sel = [r[-1] for r in ordered]
    elif q.limit is not None:
        sel = range(min(q.limit, n))
    else:
        sel = range(n)

    out = []
    for i in sel:
        out.append(_render_tree(q.returns, iter(ev.row(i))))
    return out


def _range_eval(index_dir: str, filter_node, lo: int, hi: int):
    """One range's (docs, scores, binds) through the per-worker cached
    reader (distributed.py:_cached_reader — one open per worker per index
    version, so repeated queries reuse decoded postings/values/docmap
    caches instead of rebuilding them per task per query)."""
    from .distributed import _cached_reader
    from .json_engine import CompiledJsonQuery as _CJQ

    r = _cached_reader(index_dir, JsonIndexReader)
    c = _CJQ(r, filter_node, doc_range=(lo, hi))
    s = c.evaluate()
    return r, s.docs, c.final_scores(s), s.binds


def _json_eval_range_impl(index_dir: str, filter_node, lo: int, hi: int,
                          keep):
    _, docs, scores, binds = _range_eval(index_dir, filter_node, lo, hi)
    if keep is not None and docs.size > keep[1]:
        mode, k = keep
        if mode == "score":
            # local top-k + ties at the k-th score: a doc outside its
            # range's top k is beaten by >= k docs of that range alone
            # (same exactness argument as the flat path,
            # distributed.py:_eval_range_impl)
            kth = np.partition(scores, docs.size - k)[docs.size - k]
            m = scores >= kth
            docs, scores = docs[m], scores[m]
            if binds is not None:
                binds = [b for b, ok in zip(binds, m) if ok]
        else:  # "head": first k in doc order — superset of the global k
            docs, scores = docs[:k], scores[:k]
            if binds is not None:
                binds = binds[:k]
    return docs, scores, binds


def _json_agg_range_impl(index_dir: str, q, lo: int, hi: int):
    """Evaluate + leaf-fetch + partial-aggregate one doc range: docmap
    json reads and the per-row fold never leave the worker; only one
    state row per (range, group) reaches the driver (nested analogue of
    distributed.py:_agg_range_impl)."""
    from .distributed import _partial_fold

    r, docs, scores, binds = _range_eval(index_dir, q.filter, lo, hi)
    leaves = ret_leaves(q.returns)
    ev = _LeafEval(r, leaves, docs, scores, binds)
    rows = [ev.row(i) for i in range(docs.size)]
    return _partial_fold(leaves, rows)


def check_distributable(filter_node) -> None:
    """Validate a filter on the driver before a range fan-out: an all-not
    / double-not query must raise the reference's plain error, not a
    RayTaskError from every range task."""
    from .json_engine import _check_double_not, _is_all_not

    _check_double_not(filter_node, False)
    if _is_all_not(filter_node):
        raise ValueError(
            "query cannot be made up of only logical not. Must have "
            "at least one match clause not negated.")


def _evaluate_distributed(reader: JsonIndexReader, filter_node, keep=None):
    """Range-partitioned filter evaluation: one actor call per doc range,
    each evaluating the compiled query restricted to its range (slot
    ordinals are deterministic DFS order, so per-task scoring state is
    identical) through a per-worker cached reader, and returning its
    depth-0 (docs, scores, binds) — pruned worker-side to the local top-k
    + ties (``keep=("score", k)``) or the local head (``keep=("head",
    k)``) when the driver's order/limit makes that exact.  Ranges are
    contiguous and ordered, so concatenation preserves global doc order.
    The proximity filter keeps the reference's sequential iterator inside
    each range (same caveat as the flat distributed path)."""
    from .distributed import doc_ranges, pool_batched, worker_pool

    n = reader.num_docs
    parts = pool_batched(worker_pool(), [
        ("ops_call", (".query.json_executor", "_json_eval_range_impl",
                      (reader.index_dir, filter_node, lo, hi, keep)))
        for (lo, hi) in doc_ranges(n, min(32, max(1, n // 250_000)))])
    if not parts:  # empty index: no ranges
        return np.zeros(0, np.int64), np.zeros(0, np.float32), None
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    binds = None
    if any(p[2] is not None for p in parts):
        binds = []
        for p in parts:
            binds.extend(p[2] if p[2] is not None else [None] * p[0].size)
    return docs, scores, binds


def _render_tree(expr, it):
    if isinstance(expr, ast.RetObject):
        return {name: _render_tree(e, it) for name, e in expr.items}
    if isinstance(expr, ast.RetArray):
        return [_render_tree(e, it) for e in expr.items]
    return next(it)


def json_query_table(reader: JsonIndexReader, q, params: dict | None = None
                     ) -> pa.Table:
    """Dataset-facing adapter: result rows as a single-column ``value``
    table (JSON-encoded when rows aren't scalars of one type)."""
    rows = run_json_query(reader, q, params)
    try:
        arr = pa.array(rows)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        arr = pa.array([json.dumps(r) for r in rows])
    return pa.table({"value": arr})


# -------------------------------------------------------------- renderer

def fmt_f64(v: float) -> str:
    """Rust ``f64::Display`` (shortest roundtrip, never exponent
    notation, integral values without a fraction).  Above 2^53 the exact
    binary value differs from the shortest roundtrip digits —
    ``str(int(1e23))`` would print 99999999999999991611392 where Rust
    prints 100000000000000000000000 — so large magnitudes go through
    the shortest repr with the exponent expanded positionally."""
    if v != v:
        return "NaN"
    if v in (float("inf"), float("-inf")):
        return "inf" if v > 0 else "-inf"
    if v == int(v) and abs(v) < 2.0 ** 53:
        if v == 0.0 and np.copysign(1.0, v) < 0:
            return "-0"
        return str(int(v))
    r = repr(float(v))
    if "e" in r or "E" in r:
        from decimal import Decimal

        r = format(Decimal(r), "f")
    if r.endswith(".0"):
        r = r[:-2]
    return r


def str_literal(s: str) -> str:
    """JsonValue::str_to_literal (src/json_value.rs:19-29): only ``"`` and
    ``\\`` are escaped — control characters pass through raw."""
    out = ['"']
    for c in s:
        if c in '"\\':
            out.append("\\")
        out.append(c)
    out.append('"')
    return "".join(out)


class PrettyPrint:
    """src/json_value.rs:222-260."""

    def __init__(self, indention: str = "", newline: str = "",
                 spacing: str = ""):
        self.indention = indention
        self.newline = newline
        self.spacing = spacing
        self.buffer = ""
        self._next_is_space = False

    def push(self):
        self.buffer += self.indention

    def pop(self):
        self.buffer = self.buffer[: len(self.buffer) - len(self.indention)]

    def next_prefix_is_space(self):
        self._next_is_space = True

    def prefix(self) -> str:
        if self._next_is_space:
            self._next_is_space = False
            return self.spacing
        return self.buffer


def render_json(v, pretty: PrettyPrint, out: list):
    """JsonValue::render (src/json_value.rs:125-199)."""
    if isinstance(v, bool):
        out.append(pretty.prefix())
        out.append("true" if v else "false")
    elif v is None:
        out.append(pretty.prefix())
        out.append("null")
    elif isinstance(v, (int, float)):
        out.append(pretty.prefix())
        out.append(fmt_f64(float(v)))
    elif isinstance(v, str):
        out.append(pretty.prefix())
        out.append(str_literal(v))
    elif isinstance(v, list):
        if not v:
            out.append(pretty.prefix())
            out.append("[]")
            return
        out.append(pretty.prefix())
        out.append("[")
        out.append(pretty.newline)
        pretty.push()
        for i, el in enumerate(v):
            render_json(el, pretty, out)
            if i + 1 < len(v):
                out.append(",")
            out.append(pretty.newline)
        pretty.pop()
        out.append(pretty.prefix())
        out.append("]")
    elif isinstance(v, dict):
        if not v:
            out.append(pretty.prefix())
            out.append("{}")
            return
        out.append(pretty.prefix())
        out.append("{")
        out.append(pretty.newline)
        pretty.push()
        items = list(v.items())
        for i, (k, el) in enumerate(items):
            out.append(pretty.prefix())
            out.append(str_literal(k))
            out.append(":")
            pretty.next_prefix_is_space()
            render_json(el, pretty, out)
            if i + 1 < len(items):
                out.append(",")
            out.append(pretty.newline)
        pretty.pop()
        out.append(pretty.prefix())
        out.append("}")
    else:
        raise TypeError(f"unrenderable {v!r}")


def render_value(v, pretty_on: bool = False) -> str:
    pp = (PrettyPrint("  ", "\n", " ") if pretty_on else PrettyPrint())
    out: list = []
    render_json(v, pp, out)
    return "".join(out)
