"""Group/aggregate machinery, ported from the reference.

Aggregate function triples (init, action, extract) replicate
/root/reference/src/aggregates.rs exactly over the Python JSON value domain
(None/False/True/float/str/list/dict).  The buffered aggregate merge
replicates /root/reference/src/query.rs:682-764: rows arrive in doc (seq)
order, every ``limit`` rows the in-buffer is sorted by the group keys and
merged into the bounded ordered buffer, applying aggregate actions when the
group keys compare equal.  Output order and tie behavior are therefore
bit-identical to the reference, including the reversed accumulation order
observable in ``array()`` results (repl-tests/group.noise).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable

from . import ast
from .results import cmp_json


def _is_number(v: Any) -> bool:
    return type(v) is float or type(v) is int  # bools excluded (JSON True/False)


# ---------------------------------------------------------- function triples
# Each aggregate is (init, action, extract); action(existing, new, user_arg)
# returns the new `existing`.  src/aggregates.rs:94-288.

def _sum_action(existing, new, _ua):
    if _is_number(new):
        if _is_number(existing):
            return existing + new
        return existing
    if isinstance(new, list):
        for v in new:
            existing = _sum_action(existing, v, _ua)
    return existing


def _max_action(existing, new, _ua):
    return new if cmp_json(existing, new) < 0 else existing


def _min_action(existing, new, _ua):
    return new if cmp_json(existing, new) > 0 else existing


def _max_array_action(existing, new, _ua):
    if isinstance(new, list):
        for v in new:
            existing = _max_array_action(existing, v, _ua)
        return existing
    if isinstance(existing, list):
        return new  # the [] sentinel: first scalar replaces it
    return new if cmp_json(existing, new) < 0 else existing


def _min_array_action(existing, new, _ua):
    if isinstance(new, list):
        for v in new:
            existing = _min_array_action(existing, v, _ua)
        return existing
    if isinstance(existing, list):
        return new
    return new if cmp_json(existing, new) > 0 else existing


def _array_action(existing, new, _ua):
    if isinstance(existing, list):
        existing.append(new)
    return existing


def _array_flat_action(existing, new, _ua):
    if isinstance(new, list):
        for v in new:
            existing = _array_flat_action(existing, v, _ua)
    elif isinstance(existing, list):
        existing.append(new)
    return existing


def _concat_action(existing, new, ua):
    if isinstance(existing, str) and isinstance(new, str) and isinstance(ua, str):
        return existing + ua + new
    return existing


def _avg_action(existing, new, _ua):
    if _is_number(new):
        if isinstance(existing, list):
            avg, count = existing
            existing[0] = (avg * count + new) / (count + 1.0)
            existing[1] = count + 1.0
        return existing
    if isinstance(new, list):
        for v in new:
            existing = _avg_action(existing, v, _ua)
    return existing


def _avg_final(existing):
    if isinstance(existing, list) and existing[1] != 0.0:
        return existing[0]
    return None


def _count_action(existing, _new, _ua):
    if _is_number(existing):
        return existing + 1.0
    return existing


AGG_IMPLS: dict[str, tuple] = {
    # fun -> (init(value)->state, action, extract|None)
    "sum": (lambda v: _sum_action(0.0, v, None), _sum_action, None),
    "max": (None, _max_action, None),
    "min": (None, _min_action, None),
    "max_array": (lambda v: _max_array_action([], v, None),
                  _max_array_action, None),
    "min_array": (lambda v: _min_array_action([], v, None),
                  _min_array_action, None),
    "array": (lambda v: [v], _array_action, None),
    "array_flat": (lambda v: _array_flat_action([], v, None),
                   _array_flat_action, None),
    "concat": (lambda v: v if isinstance(v, str) else "",
               _concat_action, None),
    "avg": (lambda v: ([v, 1.0] if _is_number(v)
                       else _avg_action([0.0, 0.0], v, None)
                       if isinstance(v, list) else [0.0, 0.0]),
            _avg_action, None),
    "count": (lambda v: 1.0, _count_action, None),
}
AGG_FINALS: dict[str, Callable] = {"avg": _avg_final}


# ------------------------------------------------------------ buffered merge

def agg_plan(leaves: list) -> tuple[list, list, list, list]:
    """The aggregate plan of a return clause's leaf slots: ``orders``
    (desc, slot) for each group slot, leftmost group first, then
    ``inits`` (fn, slot), ``actions`` (fn, user_arg, slot) and ``finals``
    (fn, slot) for each other aggregate slot.  Literal slots stay
    constant and appear in none of them."""
    orders, inits, actions, finals = [], [], [], []
    for n, leaf in enumerate(leaves):
        if not isinstance(leaf, ast.RetAgg):
            continue
        if leaf.fun == "group":
            orders.append((leaf.desc, n))
            continue
        init, action, _ = AGG_IMPLS[leaf.fun]
        if init is not None:
            inits.append((init, n))
        actions.append((action, leaf.sep, n))
        fin = AGG_FINALS.get(leaf.fun)
        if fin is not None:
            finals.append((fin, n))
    return orders, inits, actions, finals


def aggregate_order_limit(rows: Iterable[list], leaves: list,
                          limit: int | None) -> list[list]:
    """Port of QueryResults::do_ordering_and_ags for the aggregate case.

    ``rows``: mutable slot lists in doc order, one slot per leaf of
    ``leaves`` (see ``agg_plan``).  Returns grouped rows in output
    order."""
    orders, inits, actions, finals = agg_plan(leaves)

    def cmp(a, b):
        for desc, n in orders:
            c = cmp_json(a[n], b[n]) if desc else cmp_json(b[n], a[n])
            if c:
                return c
        return 0

    keyfn = functools.cmp_to_key(cmp)
    lim = float("inf") if limit is None else limit
    ordered: list[list] = []
    in_buffer: list[list] = []

    def merge():
        nonlocal ordered, in_buffer
        in_buffer.sort(key=keyfn)
        new_buffer: list[list] = []
        a = ordered.pop() if ordered else None
        b = in_buffer.pop() if in_buffer else None
        while True:
            if a is not None and b is not None:
                c = cmp(a, b)
                if c < 0:
                    # fresh group: init the new row, push the old one back
                    for fn, n in inits:
                        b[n] = fn(b[n])
                    ordered.append(a)
                    a = b
                    b = in_buffer.pop() if in_buffer else None
                elif c > 0:
                    new_buffer.append(a)
                    a = ordered.pop() if ordered else None
                else:
                    for fn, ua, n in actions:
                        a[n] = fn(a[n], b[n], ua)
                    b = in_buffer.pop() if in_buffer else None
                if len(new_buffer) == lim:
                    ordered.clear()
                    in_buffer.clear()
                    break
            elif a is not None:
                new_buffer.append(a)
                if len(new_buffer) == lim:
                    break
                while ordered:
                    new_buffer.append(ordered.pop())
                    if len(new_buffer) == lim:
                        break
                break
            elif b is not None:
                for fn, n in inits:
                    b[n] = fn(b[n])
                a = b
                b = in_buffer.pop() if in_buffer else None
            else:
                break
        new_buffer.reverse()
        ordered = new_buffer
        in_buffer = []

    for row in rows:
        in_buffer.append(row)
        if len(in_buffer) == lim:
            merge()
    merge()

    for row in ordered:
        for fn, n in finals:
            row[n] = fn(row[n])
    out = []
    while ordered:
        out.append(ordered.pop())
    return out
