"""Block-max WAND pruning must never change results.

For every scored top-k term/OR query shape, the pruned fast path
(noise_ray/query/wand.py) must return doc_ids AND f32 scores identical to
the exhaustive evaluation over the full posting lists — including ties at
the k-th score, which the buffered order/limit machinery resolves.
"""

import numpy as np
import pytest

from noise_ray.query import IndexReader, run_query
from noise_ray.query import executor as ex
from noise_ray.query.noise_parser import parse_query


@pytest.fixture(scope="module")
def reader(small_transcripts):
    return IndexReader(small_transcripts["index"])


QUERIES = [
    'find {text: ~="the"} order score() desc return score() limit %d ;',
    'find {text: ~="fox"} order score() desc return score() limit %d ;',
    'find {text: ~="quick" || text: ~="brown" || text: ~="fox"} '
    "order score() desc return score() limit %d ;",
    'find {text: ~="the"^2 || text: ~="work"} order score() desc '
    "return score() limit %d ;",
    'find {text: ~="zzznomatch"} order score() desc limit %d ;',
    'find {text: ~="time" || role: ~="user"} order score() desc limit %d ;',
]


def _run_unpruned(reader, q):
    saved = ex.wand_topk
    ex.wand_topk = lambda *a, **k: None
    try:
        return run_query(reader, q)
    finally:
        ex.wand_topk = saved


@pytest.mark.parametrize("qtpl", QUERIES)
@pytest.mark.parametrize("k", [1, 3, 10, 1000])
def test_wand_identical(reader, qtpl, k):
    q = qtpl % k
    fast = run_query(reader, q)
    slow = _run_unpruned(reader, q)
    assert fast.column("doc_id").to_pylist() == slow.column("doc_id").to_pylist()
    assert fast.column("score").to_pylist() == slow.column("score").to_pylist()


def test_wand_fast_path_taken(reader):
    """The pruned path actually engages for the OR shape (guard against the
    gate silently never matching)."""
    from noise_ray.query.engine import CompiledQuery
    from noise_ray.query.wand import wand_topk

    q = parse_query('find {text: ~="the" || text: ~="fox"} '
                    "order score() desc limit 5 ;")
    cq = CompiledQuery(reader, q.filter)
    out = wand_topk(reader, cq, q)
    assert out is not None
    docs, scores = out
    assert docs.size > 0
    assert np.all(np.diff(docs) > 0)  # ascending, unique


def test_wand_declines_non_term_shapes(reader):
    from noise_ray.query.engine import CompiledQuery
    from noise_ray.query.wand import wand_topk

    for qs in ['find {text: ~="quick fox"} order score() desc limit 5 ;',
               'find {text: ~="the"} limit 5 ;',
               'find {text: ~="the"} order score() asc limit 5 ;',
               'find {text: ~="the", role: =="user"} order score() desc limit 5 ;']:
        q = parse_query(qs)
        cq = CompiledQuery(reader, q.filter)
        assert wand_topk(reader, cq, q) is None
