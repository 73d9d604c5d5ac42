"""Property-based conformance: hundreds of generated find-queries against a
brute-force Python evaluator over one fixed edge-case corpus.

The corpus is built ONCE (module fixture); hypothesis only generates query
shapes, so each example is an in-process run_query (no Ray builds in the
loop).  The brute force evaluates doc-level semantics directly from the
analyzer's token streams: matching SETS must agree exactly (scores are
covered by the reference-golden conformance tests).  This exceeds the
reference's own test strategy, which has no property-based tests
(SURVEY.md §5)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noise_ray.analysis.tokenizer import tokenize
from noise_ray.build import build_index
from noise_ray.query import IndexReader, run_query

VOCAB = ["quick", "brown", "fox", "dogs", "running", "runs", "jump",
         "don't", "naïve", "Σίσυφος", "123", "tm™", "server", "error"]
ROLES = ["user", "assistant", "system"]
TOOLS = [None, "search", "exec"]
FIELDS = ("role", "text", "tool")


def _corpus_rows():
    import random
    rng = random.Random(7)
    rows = []
    for ci, conv in enumerate("abcdef"):
        for turn in range(rng.randint(4, 12)):
            n = rng.randint(0, 8)
            text = " ".join(rng.choice(VOCAB) for _ in range(n))
            rows.append((f"conv-{conv}", turn, rng.choice(ROLES), text,
                         rng.choice(TOOLS)))
    # hand-picked edges: empty text, punctuation-only, exact-dup text
    rows.append(("conv-g", 0, "user", "", None))
    rows.append(("conv-g", 1, "user", "!!! ...", "exec"))
    rows.append(("conv-g", 2, "user", "quick brown fox", None))
    rows.append(("conv-g", 3, "assistant", "quick brown fox", "search"))
    return rows


@pytest.fixture(scope="module")
def prop_index(ray_session, tmp_path_factory):
    rows = _corpus_rows()
    d = tmp_path_factory.mktemp("prop")
    p = str(d / "corpus.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "tool": pa.array([r[4] for r in rows], pa.string()),
        "ts": pa.array(range(len(rows)), pa.timestamp("us")),
    }), p)
    idx = str(d / "idx")
    build_index([p], idx, num_buckets=4)
    reader = IndexReader(idx)
    # doc_id order == stable (conv_id, turn_idx) order == rows order here
    docs = [{"doc_id": i, "conv_id": r[0], "turn_idx": r[1], "role": r[2],
             "text": r[3], "tool": r[4]} for i, r in enumerate(sorted(rows))]
    return reader, docs


# ------------------------------------------------------------- brute force

def _positions(value: str | None, term: str) -> list[int]:
    if value is None:
        return []
    return [p for p, t in tokenize(value) if t == term]


def _match_phrase(value: str | None, literal: str) -> bool:
    """~= semantics: the reference's surviving-positions chain
    (src/filters.rs:206-215), INCLUDING the saturating_sub(1) quirk —
    position 0 of term i+1 survives whenever position 0 of the chain
    survived, so e.g. "quick quick" matches a doc whose text starts with a
    single "quick"."""
    if value is None:
        return False
    terms = [t for _, t in tokenize(literal)]
    if not terms:
        return False
    surviving = _positions(value, terms[0])
    for t in terms[1:]:
        surviving = [p for p in _positions(value, t)
                     if max(p - 1, 0) in surviving]
    return bool(surviving)


def _brute(node, docs) -> set:
    kind = node[0]
    if kind == "match":
        _, f, lit = node
        return {d["doc_id"] for d in docs if _match_phrase(d[f], lit)}
    if kind == "exact":
        _, f, lit = node
        # engine path: phrase candidates then whole-value equality
        return {d["doc_id"] for d in docs
                if d[f] is not None and d[f] == lit and _match_phrase(d[f], lit)}
    if kind == "range":
        _, op, val = node
        import operator
        ops = {">": operator.gt, "<": operator.lt,
               ">=": operator.ge, "<=": operator.le}
        return {d["doc_id"] for d in docs if ops[op](d["turn_idx"], val)}
    if kind == "and":
        return _brute(node[1], docs) & _brute(node[2], docs)
    if kind == "or":
        return _brute(node[1], docs) | _brute(node[2], docs)
    if kind == "andnot":
        return _brute(node[1], docs) - _brute(node[2], docs)
    if kind == "and_ornot":
        # an AND whose second clause is an OR of two NOTs: itself all-not
        every = {d["doc_id"] for d in docs}
        return _brute(node[1], docs) & (
            (every - _brute(node[2], docs)) | (every - _brute(node[3], docs)))
    raise AssertionError(kind)


def _render_leaf(node) -> str:
    kind = node[0]
    if kind == "match":
        return f'{node[1]}: ~="{node[2]}"'
    if kind == "exact":
        return f'{node[1]}: =="{node[2]}"'
    if kind == "range":
        return f"turn_idx: {node[1]} {node[2]}"
    raise AssertionError(kind)


def _render(node) -> str:
    kind = node[0]
    if kind in ("match", "exact", "range"):
        return "find {" + _render_leaf(node) + "} ;"
    if kind == "and":
        # same-object conjunction when both sides are leaves
        return ("find {" + _render_leaf(node[1]) + ", "
                + _render_leaf(node[2]) + "} ;")
    if kind == "or":
        return ("find {" + _render_leaf(node[1]) + "} || {"
                + _render_leaf(node[2]) + "} ;")
    if kind == "andnot":
        return ("find {" + _render_leaf(node[1]) + "} && !{"
                + _render_leaf(node[2]) + "} ;")
    if kind == "and_ornot":
        return ("find {" + _render_leaf(node[1]) + "} && ({!("
                + _render_leaf(node[2]) + ")} || {!("
                + _render_leaf(node[3]) + ")}) ;")
    raise AssertionError(kind)


# -------------------------------------------------------------- strategies

_words = st.sampled_from(VOCAB)
_literals = st.one_of(
    _words,
    st.tuples(_words, _words).map(lambda t: " ".join(t)),  # phrases
    st.sampled_from(["quick brown fox", "user", "missing-term"]),
)
_leaf = st.one_of(
    st.tuples(st.just("match"), st.sampled_from(FIELDS), _literals),
    st.tuples(st.just("exact"), st.sampled_from(FIELDS),
              st.sampled_from(["user", "assistant", "search", "quick brown fox",
                               "quick", "nope"])),
    st.tuples(st.just("range"), st.sampled_from([">", "<", ">=", "<="]),
              st.integers(min_value=-1, max_value=12)),
)
_query = st.one_of(
    _leaf,
    st.tuples(st.just("and"), _leaf, _leaf),
    st.tuples(st.just("or"), _leaf, _leaf),
    st.tuples(st.just("andnot"), _leaf, _leaf),
    st.tuples(st.just("and_ornot"), _leaf, _leaf, _leaf),
)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(node=_query)
def test_engine_matches_brute_force(prop_index, node):
    reader, docs = prop_index
    q = _render(node)
    want = sorted(_brute(node, docs))
    got = run_query(reader, q).column("doc_id").to_pylist()
    assert got == want, q


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(node=_query, k=st.integers(min_value=1, max_value=20),
       desc=st.booleans())
def test_field_ordered_limit_values(prop_index, node, k, desc):
    """Field orderings go through the ported buffered machinery; the
    returned order-key VALUES must be the first k of the brute-force sort
    (tie order among equal keys is the reference's buffered quirk, so only
    values are asserted)."""
    reader, docs = prop_index
    body = _render(node)[:-2]
    direction = "desc" if desc else "asc"
    got = run_query(
        reader, body + f" order .turn_idx {direction} limit {k} ;")
    want_docs = _brute(node, docs)
    by_id = {d["doc_id"]: d["turn_idx"] for d in docs}
    want_vals = sorted((by_id[d] for d in want_docs), reverse=desc)[:k]
    assert got.column("turn_idx").to_pylist() == want_vals


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(node=_query, k=st.integers(min_value=1, max_value=20))
def test_scored_limit_is_prefix_of_full_ordering(prop_index, node, k):
    """WAND pruning + the vectorized top-k fast path must agree with the
    exhaustive scored ordering for every generated query: `limit k` is
    exactly the first k rows of the unlimited (score desc, doc_id asc)
    result."""
    reader, _docs = prop_index
    body = _render(node)[:-2]  # strip " ;"
    full = run_query(reader, body + " order score() desc return score() ;")
    lim = run_query(
        reader, body + f" order score() desc return score() limit {k} ;")
    assert lim.column("doc_id").to_pylist() == \
        full.column("doc_id").to_pylist()[:k]
    assert lim.column("score").to_pylist() == \
        full.column("score").to_pylist()[:k]
