"""Bind-variable collection is lazy (json_engine.LazyVkeys): vkey strings
materialize only for docs that survive order/limit.  These tests pin the
laziness contract and that limited bind queries stay value-identical to
the unlimited prefix (the reference's bind semantics are locked by
bind_var.noise byte-identity in test_noise_transcripts.py)."""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

WORDS = ["alpha", "beta", "fox", "quick"]


def test_lazy_vkeys_defer_and_pickle():
    from noise_ray.query.json_engine import LazyVkeys

    lv = LazyVkeys(".a$", np.array([[2], [0], [7]], dtype=np.int64))
    assert lv._mat is None
    assert len(lv) == 3
    assert lv._mat is None          # len() must not materialize
    rt = pickle.loads(pickle.dumps(lv))
    assert rt._mat is None          # pickling ships ints, not strings
    assert list(rt) == [".a$2", ".a$0", ".a$7"]
    assert list(lv) == [".a$2", ".a$0", ".a$7"]
    assert lv._mat is not None      # cached after first iteration


def test_merge_bind_rows_accepts_lazy():
    from noise_ray.query.json_engine import LazyVkeys, _merge_bind_rows

    a = {"x": LazyVkeys(".a$", np.array([[1]], dtype=np.int64))}
    b = {"x": LazyVkeys(".a$", np.array([[3]], dtype=np.int64)),
         "y": LazyVkeys(".b$", np.array([[0]], dtype=np.int64))}
    out = _merge_bind_rows(a, b)
    assert list(out["x"]) == [".a$1", ".a$3"]
    assert list(out["y"]) == [".b$0"]


@st.composite
def _bind_docs(draw):
    n_docs = draw(st.integers(3, 8))
    docs = []
    for i in range(n_docs):
        arr = [draw(st.sampled_from(WORDS))
               for _ in range(draw(st.integers(1, 4)))]
        docs.append({"_id": f"d{i:02d}", "a": arr})
    return docs


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(docs=_bind_docs(), word=st.sampled_from(WORDS),
       limit=st.integers(1, 4))
def test_limited_bind_equals_unlimited_prefix(docs, word, limit,
                                              tmp_path_factory):
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    d = tmp_path_factory.mktemp("bindlazy")
    p = docs_to_parquet(docs, os.path.join(str(d), "in.parquet"))
    idx = os.path.join(str(d), "idx")
    build_json_index([p], idx, num_buckets=4)
    r = JsonIndexReader(idx)

    q = f'find {{a: x::[ =="{word}" ]}} return {{id: ._id, m: x}}'
    full = run_json_query(r, q + " ;")
    lim = run_json_query(r, q + f" limit {limit} ;")
    assert lim == full[:limit]
    # and the bind payload is the matched elements themselves
    for row in full:
        doc = next(x for x in docs if x["_id"] == row["id"])
        assert row["m"] == [v for v in doc["a"] if v == word]
        assert json.dumps(row["m"])  # render produced plain JSON values
