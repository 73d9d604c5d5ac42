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
from .aggregates import aggregate_order_limit
from .distributed import evaluate_ranges, fold_ranges, limit_keep, query_ranges
from .json_reader import JsonIndexReader
from .noise_parser import parse_noise_query, render_tree, ret_leaves
from .results import order_and_limit, order_and_limit_batched

_MISSING = object()


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

def run_json_query(reader: JsonIndexReader, q, params: dict | None = None
                   ) -> list:
    """Evaluate a nested query; returns the reference's JSON result stream
    as Python values.  Large indexes fan out over doc ranges
    (``distributed.query_ranges``); fetch/order/limit stay on the driver —
    the result set is already per-doc."""
    if isinstance(q, str):
        q = parse_noise_query(q, params)
    return _execute(reader, q, query_ranges(reader))


def _execute(reader: JsonIndexReader, q, ranges) -> list:
    """``run_json_query`` on a route: in-process when ``ranges`` is None,
    else fanned out over those doc ranges (query/distributed.py)."""
    leaves = ret_leaves(q.returns)
    has_ags = any(isinstance(l, ast.RetAgg) for l in leaves)
    is_alldocs = isinstance(q.filter, ast.AllDocs)
    if ranges is not None and has_ags and q.limit is None and not is_alldocs:
        # per-range partial folds.  Limited aggregates fold on the driver
        # (the reference's buffered early-cut is order-sensitive), and so
        # do AllDocs roots: their string-seq row order isn't
        # range-reconstructible
        return [render_tree(q.returns, iter(r))
                for r in fold_ranges(reader, q, ranges)]
    keep = None
    if ranges is not None and not has_ags and not is_alldocs:
        # (an AllDocs root streams in string-seq order, see below)
        keep = limit_keep(q)
    docs, scores, binds, pos = evaluate_ranges(reader, q.filter, ranges,
                                               keep)

    if is_alldocs and docs.size:
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
        out_rows = aggregate_order_limit(rows, leaves, q.limit)
        return [render_tree(q.returns, iter(r)) for r in out_rows]

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
            descs = [k.desc for k in q.order]
            if pos is None:
                ordered = order_and_limit(rows, descs, q.limit)
            else:
                # a pruned stream merges on the unpruned stream's arrival
                # batches: the pruned rows sort strictly after every row
                # that can be output, so the ties come out as in-process
                batches: dict[int, list] = {}
                for row, b in zip(rows, (pos // q.limit).tolist()):
                    batches.setdefault(b, []).append(row)
                ordered = order_and_limit_batched(
                    [batches[b] for b in sorted(batches)], descs, q.limit)
            sel = [r[-1] for r in ordered]
    elif q.limit is not None:
        sel = range(min(q.limit, n))
    else:
        sel = range(n)

    out = []
    for i in sel:
        out.append(render_tree(q.returns, iter(ev.row(i))))
    return out


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
