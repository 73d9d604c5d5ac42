"""Query execution: compile → evaluate → score → order/limit → materialize.

Mirrors the reference's QueryResults loop (src/query.rs:511-573): matches
stream in doc (seq) order; scores are computed per match; ordering and limit
use the ported buffered machinery (results.py); finally the winning docs are
materialized from the docmap (the analogue of V-key fetches).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import ast
from .aggregates import aggregate_order_limit
from .distributed import evaluate_ranges, fold_ranges, limit_keep, query_ranges
from .engine import CompiledQuery
from .noise_parser import parse_query, render_tree, ret_leaves
from .reader import IndexReader
from .results import order_and_limit
from .wand import wand_topk

_TREE_TYPES = (ast.RetObject, ast.RetArray, ast.RetAgg, ast.RetPath,
               ast.RetScore, ast.RetLiteral)


def run_query(reader: IndexReader, q: ast.Query | str,
              params: dict | None = None) -> pa.Table:
    if isinstance(q, str):
        q = parse_query(q, params)
    return _execute(reader, q, query_ranges(reader))


def _execute(reader: IndexReader, q: ast.Query, ranges) -> pa.Table:
    """``run_query`` on a route: in-process when ``ranges`` is None, else
    fanned out over those doc ranges (query/distributed.py)."""
    leaves = (ret_leaves(q.returns) if isinstance(q.returns, _TREE_TYPES)
              else None)
    agg = leaves is not None and any(isinstance(l, ast.RetAgg)
                                     for l in leaves)
    if ranges is None:
        compiled = CompiledQuery(reader, q.filter)
        # block-max WAND fast path for scored top-k term/OR queries:
        # prunes whole posting blocks by score upper bound; surviving docs
        # are scored by the same f32 kernels, so results are identical to
        # the full path
        pruned = None if agg else wand_topk(reader, compiled, q)
        if pruned is not None:
            compiled._check_not_validity(q.filter)
            docs, scores = pruned
        else:
            result = compiled.evaluate()
            docs = result.docs
            scores = compiled.final_scores(result)
    elif agg and q.limit is None:
        return _rows_to_table(q.returns, fold_ranges(reader, q, ranges))
    else:
        # an aggregate WITH a limit folds here: the reference's buffered
        # early-cut is order-sensitive mid-merge
        docs, scores, _, _ = evaluate_ranges(reader, q.filter, ranges,
                                             None if agg else limit_keep(q))

    if agg:
        rows = _leaf_values(reader, leaves, docs, scores)
        return _rows_to_table(q.returns,
                              aggregate_order_limit(rows, leaves, q.limit))
    docs, scores = _apply_order_limit(reader, q, docs, scores)
    if leaves is not None:
        # non-aggregate tree: order/limit per doc, then render the tree
        return _rows_to_table(q.returns,
                              _leaf_values(reader, leaves, docs, scores))
    return _materialize(reader, docs, scores, q.returns)


def _apply_order_limit(reader, q, docs, scores):
    if q.order:
        # Pure relevance ordering gets an implicit ascending doc_id
        # tie-break (SURVEY §2.6: "ties broken by doc_id asc to mirror seq
        # order").  This makes the ordering TOTAL, so the output is
        # independent of which non-qualifying rows a pruned candidate
        # stream (WAND / distributed local-top-k) omitted — the buffered
        # merge's tie behavior otherwise depends on chunk boundaries.
        # Field orderings keep the reference's ported buffer semantics
        # (limit.noise tie quirks) unchanged.
        score_only = all(k.score for k in q.order)
        if score_only:
            # vectorized fast path: the ordering is TOTAL on
            # (score, doc_id), so a numpy lexsort is exactly the buffered
            # machinery's output without the per-row Python comparator
            # (the dominant cost of every scored top-k query)
            import numpy as np

            primary = scores.astype(np.float64)
            if q.order[0].desc:
                primary = -primary
            sel = np.lexsort((docs, primary))
            if q.limit is not None:
                sel = sel[: q.limit]
            return docs[sel], scores[sel]
        # fetch field values for all matched docs (only fields used as keys)
        key_fields = [k.field for k in q.order if not k.score]
        key_table = (reader.fetch_docs(docs, key_fields)
                     if key_fields and docs.size else None)
        sel = _field_order_select(q, docs, scores, key_table)
        if sel is None:
            # mixed-type / exotic keys: the ported per-row machinery
            field_vals: dict[str, list] = {}
            if key_table is not None:
                for f in key_fields:
                    field_vals[f] = key_table.column(f).to_pylist()
            rows = []
            for i in range(docs.size):
                keys = []
                for k in q.order:
                    if k.score:
                        keys.append(float(scores[i]))
                    else:
                        v = field_vals[k.field][i] if docs.size else None
                        if v is None:
                            v = k.default
                        keys.append(_normalize_key(v))
                rows.append((*keys, i))
            orders = [k.desc for k in q.order]
            ordered = order_and_limit(rows, orders, q.limit)
            sel = [r[-1] for r in ordered]
        docs = docs[sel]
        scores = scores[sel]
    elif q.limit is not None:
        docs = docs[: q.limit]
        scores = scores[: q.limit]
    return docs, scores


def _encode_order_key(k, docs, scores, key_table):
    """(rank[float64], sub[float64]) arrays whose lexicographic order
    equals cmp_json over the key's _normalize_key'd values — or None when
    the column can't be encoded vectorized (nested types, NaN floats,
    defaults that would need cross-scale comparison).  Polarity (desc) is
    applied by the caller."""
    n = docs.size
    if k.score:
        return np.full(n, 3.0), scores.astype(np.float64)
    col = key_table.column(k.field) if key_table is not None else None
    if col is None:
        return None
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = col.type
    any_null = col.null_count > 0
    nulls = (col.is_null().to_numpy(zero_copy_only=False).astype(bool)
             if any_null else np.zeros(n, bool))
    rank = np.empty(n, np.float64)
    sub = np.zeros(n, np.float64)
    import pyarrow.types as pt

    if pt.is_integer(t) or pt.is_floating(t):
        vals = col.to_numpy(zero_copy_only=False).astype(np.float64)
        if np.isnan(vals[~nulls] if any_null else vals).any():
            return None  # NaN breaks total order; use the cmp path
        rank[:] = 3.0
        sub = np.where(nulls, 0.0, vals) if any_null else vals
        fam = 3
    elif pt.is_timestamp(t) or pt.is_date(t):
        if any_null and k.default is not None:
            # default is compared in _normalize_key's epoch-seconds
            # domain while values encode as raw int64 — scales differ
            return None
        vals = col.cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.float64)
        rank[:] = 3.0
        sub = (np.where(nulls, 0.0, np.nan_to_num(vals)) if any_null
               else vals)
        fam = 3
    elif pt.is_boolean(t):
        b = col.to_numpy(zero_copy_only=False)
        rank = np.where(nulls, 0.0,
                        1.0 + np.where(b == True, 1.0, 0.0))  # noqa: E712
        fam = None  # rank already encodes the value
    elif pt.is_string(t) or pt.is_large_string(t):
        rank[:] = 4.0
        fam = 4
        # dictionary-encode in Arrow (C hashing over the full column),
        # then sort only the SMALL distinct set in Python — same
        # codepoint order as cmp_json/_normalize_key, but ~10x cheaper
        # than to_pylist + np.unique over every matched row
        dn = col.dictionary_encode()
        dict_vals = dn.dictionary.to_pylist()
        add_default = (any_null and isinstance(k.default, str)
                       and k.default not in dict_vals)
        allv = dict_vals + [k.default] if add_default else dict_vals
        if allv:
            order = sorted(range(len(allv)), key=allv.__getitem__)
            pos = np.empty(len(allv), np.float64)
            pos[order] = np.arange(len(allv), dtype=np.float64)
            idx = dn.indices.to_numpy(zero_copy_only=False)
            idx = (np.where(nulls, 0, idx) if any_null else idx).astype(
                np.int64)
            sub = pos[idx]
            if any_null and isinstance(k.default, str):
                codes_default = float(
                    pos[len(dict_vals)] if add_default
                    else pos[dict_vals.index(k.default)])
        else:
            sub = np.zeros(n, np.float64)
    else:
        return None
    if any_null:
        d = _normalize_key(k.default) if k.default is not None else None
        from .results import json_type_rank

        drank = float(json_type_rank(d))
        rank[nulls] = drank
        # default's sub must live in the column's comparison domain when
        # the ranks coincide; otherwise any constant works (all defaulted
        # rows carry the SAME default)
        if fam == 3 and drank == 3.0:
            sub[nulls] = float(d)
        elif fam == 4 and drank == 4.0:
            sub[nulls] = codes_default
        else:
            sub[nulls] = 0.0
    return rank, sub


def _field_order_select(q, docs, scores, key_table):
    """Vectorized field-ordered order/limit (VERDICT r1 #6): encode each
    order key into (type-rank, sub-key) float arrays, lexsort, and — with
    a limit — drop every row whose key tuple sorts strictly after the
    limit-th best before running the ported buffered machinery on the
    survivors grouped by original arrival batch (results.py
    order_and_limit_batched keeps the merge interleaving identical).
    Returns selected indices into ``docs``, or None to use the unpruned
    per-row machinery (mixed-type keys, NaN, nested values)."""
    n = docs.size
    if n == 0:
        return []
    if q.limit is not None and q.limit <= 0:
        return None
    encoded = []
    for k in q.order:
        e = _encode_order_key(k, docs, scores, key_table)
        if e is None:
            return None
        rank, sub = e
        if k.desc:
            rank, sub = -rank, -sub
        encoded.append((rank, sub))
    if q.limit is None:
        # full output: ties in seq-descending order == stable sort of the
        # reversed sequence; lexsort keys are (primary last)
        keys = [-np.arange(n)]
        for rank, sub in reversed(encoded):
            keys.extend([sub, rank])
        return np.lexsort(keys)
    limit = q.limit
    if n <= limit:
        kept = np.arange(n)
    else:
        keys = []
        for rank, sub in reversed(encoded):
            keys.extend([sub, rank])
        order = np.lexsort(keys)
        thr = order[limit - 1]
        less = np.zeros(n, bool)
        eq = np.ones(n, bool)
        for rank, sub in encoded:
            for arr in (rank, sub):
                tv = arr[thr]
                less |= eq & (arr < tv)
                eq &= arr == tv
        kept = np.flatnonzero(less | eq)  # arrival (doc) order preserved
    # survivors run through the EXACT ported machinery with original
    # arrival batching: build Python key rows only for the ~limit kept
    rows_by_batch: dict[int, list] = {}
    field_cache: dict[str, list] = {}
    for k in q.order:
        if not k.score and k.field not in field_cache:
            field_cache[k.field] = (
                key_table.column(k.field).take(pa.array(kept)).to_pylist())
    orders = [k.desc for k in q.order]
    for row_n, i in enumerate(kept.tolist()):
        keys = []
        for k in q.order:
            if k.score:
                keys.append(float(scores[i]))
            else:
                v = field_cache[k.field][row_n]
                if v is None:
                    v = k.default
                keys.append(_normalize_key(v))
        rows_by_batch.setdefault(i // limit, []).append((*keys, i))
    from .results import order_and_limit_batched

    ordered = order_and_limit_batched(
        [rows_by_batch[b] for b in sorted(rows_by_batch)], orders, limit)
    return [r[-1] for r in ordered]


def _leaf_values(reader, leaves, docs, scores):
    """Per-doc slot values for every leaf, in doc order.  Missing fields
    take the leaf's default (else null), numbers collapse to f64 — the
    reference's JSON value domain."""
    fields = sorted({l.field for l in leaves
                     if isinstance(l, (ast.RetPath, ast.RetAgg)) and l.field})
    field_vals: dict[str, list] = {}
    if fields and docs.size:
        t = reader.fetch_docs(docs, fields)
        for f in fields:
            field_vals[f] = t.column(f).to_pylist()

    def value(leaf, i):
        if isinstance(leaf, ast.RetScore):
            return float(scores[i])
        if isinstance(leaf, ast.RetLiteral):
            return leaf.value
        if leaf.field is None:  # count()
            return None
        v = field_vals.get(leaf.field, [None] * docs.size)[i] if docs.size else None
        if v is None:
            v = leaf.default
        return _normalize_key(v)

    return [[value(l, i) for l in leaves] for i in range(docs.size)]


def _rows_to_table(tree, rows) -> pa.Table:
    """Column convention: top-level object → one column per key; top-level
    array → c0..cN; single expr → one column named after it.  Nested
    structures render as Python values inside the column."""
    if isinstance(tree, ast.RetObject):
        names = [name for name, _ in tree.items]
        exprs = [e for _, e in tree.items]
    elif isinstance(tree, ast.RetArray):
        names = [f"c{i}" for i in range(len(tree.items))]
        exprs = tree.items
    else:
        if isinstance(tree, ast.RetScore):
            names = ["score"]
        elif isinstance(tree, ast.RetAgg):
            names = [tree.fun]
        elif isinstance(tree, ast.RetPath):
            names = [tree.field]
        else:
            names = ["value"]
        exprs = [tree]

    cols: dict[str, list] = {n: [] for n in names}
    for row in rows:
        it = iter(row)
        for n, e in zip(names, exprs):
            cols[n].append(render_tree(e, it))
    arrays = {}
    for n in names:
        try:
            arrays[n] = pa.array(cols[n])
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            import json as _j
            arrays[n] = pa.array([_j.dumps(v) for v in cols[n]])
    if not arrays:
        return pa.table({"value": pa.array([])})
    return pa.table(arrays)


def _normalize_key(v):
    """Map a doc value to the reference's JSON value domain (timestamps and
    ints become numbers, like noise's all-numbers-are-f64)."""
    import datetime

    if isinstance(v, datetime.datetime):
        return v.timestamp()
    if isinstance(v, (np.integer, np.floating)) or (
            type(v) is int):  # bools stay bools (JSON True/False)
        return float(v)
    return v


def _materialize(reader: IndexReader, docs: np.ndarray, scores: np.ndarray,
                 returns) -> pa.Table:
    cols: dict[str, pa.Array] = {}
    want_fields: list[str] = []
    if returns:
        for r in returns:
            if r in ("score()", "_id", "."):
                continue
            want_fields.append(r)
    key_cols = reader.manifest["key_columns"]
    fetch_cols = list(dict.fromkeys([*key_cols, *want_fields]))
    t = (reader.fetch_docs(docs, fetch_cols) if docs.size
         else None)
    out = {"doc_id": pa.array(docs, pa.int64())}
    for c in fetch_cols:
        if t is not None:
            out[c] = t.column(c)
        else:
            out[c] = pa.array([], pa.string())
    out["score"] = pa.array(scores.astype(np.float32), pa.float32())
    return pa.table(out)
