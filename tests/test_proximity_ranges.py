"""Proximity is exact under doc ranges and AND pushdown, in both engines.

DistanceFilter's current-filter state carries from one doc to the next
(src/filters.rs:588-726), so a stream started at doc ``lo`` can differ
from the whole-index stream, in which docs match and in which slot (and
so which score) a match reports.  Evaluating over ``doc_range=(lo, hi)``
— the distributed fan-out, ``index_scan`` ranges — or under the
candidate span an AND pushes into its clauses must still equal the
whole-index evaluation restricted to those docs.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

N = 400
WORDS = ["red", "blue", "green", "gold"]
QUERIES = [
    'find {text: ~2="red blue"} ;',
    'find {text: ~1="green red gold"} ;',
]
AND_QUERY = 'find {text: ~="gold", text: ~2="red blue"} ;'


def _texts():
    rng = np.random.default_rng(11)
    return [" ".join(rng.choice(WORDS, int(rng.integers(1, 9))))
            for _ in range(N)]


@pytest.fixture(scope="module")
def engines(ray_session, tmp_path_factory):
    """(compile(query, doc_range), num_docs) per engine over one corpus."""
    from noise_ray.build import build_index
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query import (CompiledJsonQuery, CompiledQuery,
                                 IndexReader, JsonIndexReader)
    from noise_ray.query.noise_parser import parse_noise_query, parse_query

    d = str(tmp_path_factory.mktemp("proxrange"))
    texts = _texts()
    flat_in = os.path.join(d, "flat.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array([f"c{i:03d}" for i in range(N)]),
        "turn_idx": pa.array([0] * N, pa.int32()),
        "role": pa.array(["user"] * N),
        "text": pa.array(texts),
        "tool": pa.array([None] * N, pa.string()),
    }), flat_in)
    build_index([flat_in], os.path.join(d, "flat"), num_buckets=4)
    nested_in = docs_to_parquet(
        [{"_id": f"c{i:03d}", "text": t} for i, t in enumerate(texts)],
        os.path.join(d, "nested.parquet"))
    build_json_index([nested_in], os.path.join(d, "nested"), num_buckets=4)
    flat = IndexReader(os.path.join(d, "flat"))
    nested = JsonIndexReader(os.path.join(d, "nested"))
    return {
        "flat": lambda q, rng=None: CompiledQuery(
            flat, parse_query(q).filter, doc_range=rng),
        "nested": lambda q, rng=None: CompiledJsonQuery(
            nested, parse_noise_query(q).filter, doc_range=rng),
    }


def _answer(cq):
    r = cq.evaluate()
    return r.docs, cq.final_scores(r)


@pytest.mark.parametrize("kind", ["flat", "nested"])
def test_proximity_range_equals_full_restricted(engines, kind):
    compile_ = engines[kind]
    for q in QUERIES:
        docs, scores = _answer(compile_(q))
        assert docs.size > 20, q  # the sweep crosses real matches
        for lo in range(0, N, 3):
            for hi in (N, min(N, lo + 57)):
                rdocs, rscores = _answer(compile_(q, (lo, hi)))
                keep = (docs >= lo) & (docs < hi)
                assert np.array_equal(rdocs, docs[keep]), (q, lo, hi)
                assert rscores.tobytes() == scores[keep].tobytes(), (q, lo, hi)


@pytest.mark.parametrize("kind", ["flat", "nested"])
def test_proximity_under_and_pushdown_is_exact(engines, kind):
    """The AND evaluates the term first and pushes its candidate span
    into the proximity clause; the answer equals the intersection of the
    two clauses each evaluated over the whole index."""
    cq = engines[kind](AND_QUERY)
    docs, scores = _answer(cq)
    whole = [cq._resized(cq._eval(c), cq.node.depth) for c in cq.node.clauses]
    want = cq._resized(cq._intersect(whole), 0)
    assert docs.size > 5
    assert np.array_equal(docs, want.docs)
    assert scores.tobytes() == cq.final_scores(want).tobytes()
