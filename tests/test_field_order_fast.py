"""Property test for the vectorized field-ordered order/limit fast path
(executor._field_order_select): on random tie-heavy corpora it must be
byte-identical to the ported per-row buffered machinery (the fallback)."""

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from noise_ray.query import IndexReader, run_query


@pytest.fixture(scope="module")
def tie_index(ray_session, tmp_path_factory):
    from noise_ray.build import build_index

    rng = random.Random(123)
    d = tmp_path_factory.mktemp("tieidx")
    inp = d / "input"
    os.makedirs(inp)
    n = 200
    roles = [rng.choice(["user", "assistant", "system"]) for _ in range(n)]
    tools = [rng.choice([None, "search", "calc"]) for _ in range(n)]
    t = pa.table({
        "conv_id": pa.array([f"c{i // 7:03d}" for i in range(n)], pa.string()),
        "turn_idx": pa.array([i % 7 for i in range(n)], pa.int32()),
        "role": pa.array(roles, pa.string()),
        "text": pa.array([f"word{i % 11} common" for i in range(n)],
                         pa.string()),
        "tool": pa.array(tools, pa.string()),
        # heavy ties: timestamps drawn from 6 distinct values
        "ts": pa.array([rng.choice([10, 10, 20, 30, 30, 40]) * 1000
                        for _ in range(n)], pa.timestamp("us")),
    })
    pq.write_table(t, str(inp / "part-0.parquet"))
    idx_dir = str(d / "index")
    build_index([str(inp / "part-0.parquet")], idx_dir, num_buckets=4)
    return IndexReader(idx_dir)


QUERIES = [
    'find {text: ~="common"} order .ts ;',
    'find {text: ~="common"} order .ts desc ;',
    'find {text: ~="common"} order .ts limit 1 ;',
    'find {text: ~="common"} order .ts limit 7 ;',
    'find {text: ~="common"} order .ts desc limit 13 ;',
    'find {text: ~="common"} order .role, .ts desc ;',
    'find {text: ~="common"} order .role desc, .ts limit 10 ;',
    'find {text: ~="common"} order .tool default="zz" limit 9 ;',
    'find {text: ~="common"} order .tool limit 9 ;',
    'find {text: ~="common"} order .tool desc, .role limit 25 ;',
    'find {text: ~="common"} order .ts, score() desc limit 11 ;',
    'find {text: ~="common"} order score() desc, .ts limit 11 ;',
    'find {text: ~="common"} order .turn_idx desc, .role limit 40 ;',
    'find {text: ~="common"} order .turn_idx limit 199 ;',
    'find {text: ~="common"} order .turn_idx limit 200 ;',
    'find {text: ~="common"} order .turn_idx limit 201 ;',
]


@pytest.mark.parametrize("q", QUERIES)
def test_fast_path_matches_ported_machinery(tie_index, monkeypatch, q):
    import noise_ray.query.executor as ex

    fast = run_query(tie_index, q)
    called = {"n": 0}
    orig = ex._field_order_select

    def spy(*a, **k):
        called["n"] += 1
        return orig(*a, **k)

    monkeypatch.setattr(ex, "_field_order_select", spy)
    sel_fast = run_query(tie_index, q)
    assert called["n"] == 1
    monkeypatch.setattr(ex, "_field_order_select",
                        lambda *a, **k: None)
    slow = run_query(tie_index, q)
    assert fast.equals(slow)
    assert sel_fast.equals(slow)


def test_fast_path_engages(tie_index):
    """The encoder must actually handle the common column types (no
    silent fallback): spy that a selection list is returned."""
    import noise_ray.query.executor as ex
    from noise_ray.query.noise_parser import parse_query

    q = parse_query('find {text: ~="common"} order .role, .ts limit 5 ;')
    compiled_docs = run_query(tie_index,
                              'find {text: ~="common"} ;')
    docs = compiled_docs.column("doc_id").to_numpy()
    import numpy as np

    scores = np.ones(docs.size, dtype=np.float32)
    kt = tie_index.fetch_docs(docs, ["role", "ts"])
    sel = ex._field_order_select(q, docs, scores, kt)
    assert sel is not None and len(sel) == 5
