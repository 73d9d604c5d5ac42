"""Property tests: nested-engine boolean algebra vs a brute-force
instance-set evaluator.

The transcripts (test_noise_transcripts.py) lock observable behavior on
the reference's own cases; this suite drives randomized nested documents
and random grammar-correct query trees through an independently-written
brute-force evaluator of the (seq, arraypath) semantics:

- a leaf's instance set is every value reachable by walking its EXACT
  keypath (object keys and ``$`` array hops — no implicit array
  descent, matching the reference's key-qualified postings);
- AND/OR truncate/zero-pad arraypaths to the array-context depth at the
  operator and intersect/union;
- a doc matches iff the root set is non-empty (the reference's
  first-result-per-seq consumption).

Query trees follow the real grammar: object contexts introduce
``field:`` prefixes, array contexts ``[...]`` hold bare compares /
objects / deeper arrays.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

WORDS = ["alpha", "beta", "gamma", "delta", "fox", "quick"]
FIELDS = ["a", "b"]


@st.composite
def documents(draw):
    def value(depth):
        kind = draw(st.integers(0, 5 if depth < 2 else 2))
        if kind <= 1:  # text
            n = draw(st.integers(1, 3))
            return " ".join(draw(st.sampled_from(WORDS)) for _ in range(n))
        if kind == 2:  # number
            return draw(st.integers(-5, 5))
        if kind == 3:  # array of values
            return [value(depth + 1)
                    for _ in range(draw(st.integers(1, 3)))]
        if kind == 4:  # object
            return {f: value(depth + 1)
                    for f in draw(st.sets(st.sampled_from(FIELDS),
                                          min_size=1, max_size=2))}
        return draw(st.sampled_from([True, False, None]))

    n_docs = draw(st.integers(2, 8))
    docs = []
    for i in range(n_docs):
        docs.append({
            "_id": f"d{i}",
            **{f: value(0)
               for f in draw(st.sets(st.sampled_from(FIELDS),
                                     min_size=1, max_size=2))},
        })
    return docs


def _compare(draw, segs):
    """A bare compare leaf at keypath ``segs``."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        w = draw(st.sampled_from(WORDS))
        return f'~="{w}"', ("term", segs, w)
    if kind == 1:
        v = draw(st.integers(-4, 4))
        op = draw(st.sampled_from([">", "<", ">=", "<="]))
        return f"{op} {v}", ("range", segs, op, v)
    w = draw(st.sampled_from(WORDS))
    return f'== "{w}"', ("exact", segs, w)


@st.composite
def _ocompare(draw, segs, nest):
    """``field: X`` where X = compare | [abool] | {obool}."""
    field = draw(st.sampled_from(FIELDS))
    fsegs = segs + (("k", field),)
    kind = draw(st.integers(0, 2 if nest > 0 else 0))
    if kind == 0:
        text, node = _compare(draw, fsegs)
        return f"{field}: {text}", node
    if kind == 1:
        sub_t, sub_n = draw(_abool(fsegs + (("$",),), nest - 1))
        return f"{field}: [{sub_t}]", sub_n
    sub_t, sub_n = draw(_obool(fsegs, nest - 1))
    return f"{field}: {{{sub_t}}}", sub_n


@st.composite
def _obool(draw, segs, nest):
    # operands are parenthesized when combined: a bare `f: {..} && ..`
    # is NOT an obool — the object form consumes the `&&` itself and
    # then requires an object/parens right side (reference object(),
    # src/parser.rs:685-713)
    depth = sum(1 for s in segs if s[0] == "$")
    left_t, left_n = draw(_ocompare(segs, nest))
    if draw(st.booleans()):
        op = draw(st.sampled_from(["&&", "||"]))
        right_t, right_n = draw(_obool(segs, nest))
        return (f"({left_t}) {op} ({right_t})",
                ("and" if op == "&&" else "or", depth, left_n, right_n))
    return left_t, left_n


@st.composite
def _abool(draw, segs, nest):
    """Inside ``[...]``: bare compares / objects / deeper arrays."""
    depth = sum(1 for s in segs if s[0] == "$")

    def one():
        kind = draw(st.integers(0, 2 if nest > 0 else 0))
        if kind == 0:
            return _compare(draw, segs)
        if kind == 1:
            t, n = draw(_abool(segs + (("$",),), nest - 1))
            return f"[{t}]", n
        t, n = draw(_obool(segs, nest - 1))
        return f"{{{t}}}", n

    left_t, left_n = one()
    if draw(st.booleans()):
        op = draw(st.sampled_from(["&&", "||"]))
        right_t, right_n = draw(_abool(segs, nest))
        return (f"({left_t}) {op} ({right_t})",
                ("and" if op == "&&" else "or", depth, left_n, right_n))
    return left_t, left_n


# ----------------------------------------------------- brute-force eval

def _walk(doc, segs, ap):
    """(arraypath, value) for values at EXACTLY the keypath ``segs``."""
    if not segs:
        yield ap, doc
        return
    head = segs[0]
    if head[0] == "k":
        if isinstance(doc, dict) and head[1] in doc:
            yield from _walk(doc[head[1]], segs[1:], ap)
    else:  # "$"
        if isinstance(doc, list):
            for i, el in enumerate(doc):
                yield from _walk(el, segs[1:], ap + (i,))


def _fit(ap, depth):
    ap = tuple(ap[:depth])
    return ap + (0,) * (depth - len(ap))


def _brute(node, doc):
    kind = node[0]
    if kind in ("term", "range", "exact"):
        segs = node[1]
        out = set()
        for ap, v in _walk(doc, segs, ()):
            if kind == "term":
                ok = isinstance(v, str) and node[2] in v.split()
            elif kind == "exact":
                ok = isinstance(v, str) and v == node[2]
            else:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    ok = False
                else:
                    op, lim = node[2], node[3]
                    ok = {"<": v < lim, ">": v > lim,
                          "<=": v <= lim, ">=": v >= lim}[op]
            if ok:
                out.add(ap)
        return out
    _, depth, l_n, r_n = node
    l = {_fit(ap, depth) for ap in _brute(l_n, doc)}
    r = {_fit(ap, depth) for ap in _brute(r_n, doc)}
    return (l & r) if kind == "and" else (l | r)


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(docs=documents(), qt=st.deferred(lambda: _obool((), 2)))
def test_boolean_algebra_matches_bruteforce(docs, qt, tmp_path_factory):
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    q_text, brute_node = qt
    d = tmp_path_factory.mktemp("jprop")
    p = docs_to_parquet(docs, os.path.join(str(d), "in.parquet"))
    idx = os.path.join(str(d), "idx")
    build_json_index([p], idx, num_buckets=4)
    r = JsonIndexReader(idx)

    got = run_json_query(r, f"find {{{q_text}}} return ._id ;")
    want = [doc["_id"] for doc in docs
            if {_fit(ap, 0) for ap in _brute(brute_node, doc)}]
    assert got == want, f"query: {q_text}\ndocs: {json.dumps(docs)}"
