"""Distributed (range-partitioned) query execution must be bit-identical
to local evaluation for every query shape — filters, scoring, ordering,
ties, aggregates, params."""

import pytest

from noise_ray.query import IndexReader, run_query, run_query_distributed


@pytest.fixture(scope="module")
def idx(small_transcripts):
    return small_transcripts["index"]


QUERIES = [
    'find {text: ~="fox"} order score() desc return score() limit 10 ;',
    'find {text: ~="the"} order score() desc return score() limit 25 ;',
    'find {text: ~="quick" || text: ~="brown" || text: ~="fox"} '
    "order score() desc return score() limit 15 ;",
    'find {text: ~="quick fox"} order score() desc return score() ;',
    'find {text: ~2="quick fox"} limit 40 ;',
    'find {role: =="assistant", text: ~="time"} limit 30 ;',
    'find {text: ~="work"} && !{role: =="system"} limit 50 ;',
    'find {turn_idx: >= 3, turn_idx: < 6} limit 100 ;',
    'find {text: ~="time"} order .conv_id desc, .turn_idx asc limit 20 ;',
    'find {role: =="user"} return {r: group(.role), n: count()} ;',
    'find {text: ~="the"} return {t: group(.tool), n: count(), '
    "mx: max(.turn_idx)} ;",
    # partial-aggregation path: every aggregate, incl. the reversed
    # accumulation order observable in array()/concat()
    'find {text: ~="the"} return {g: group(.role), n: count(), '
    "s: sum(.turn_idx), lo: min(.turn_idx), hi: max(.turn_idx)} ;",
    'find {role: =="user"} return {g: group(.tool), ids: array(.turn_idx), '
    'c: concat(.conv_id sep="|")} ;',
    'find {role: =="user"} return {g: group(.tool), '
    "f: array_flat(.turn_idx), mn: min_array(.turn_idx), "
    "mx: max_array(.turn_idx)} ;",
    'find {role: =="user"} return {g: group(.role order=desc), '
    "n: count()} limit 1 ;",
]


@pytest.mark.parametrize("parts", [1, 3, 7])
@pytest.mark.parametrize("q", QUERIES)
def test_distributed_identical(idx, q, parts):
    local = run_query(IndexReader(idx), q).to_pylist()
    dist = run_query_distributed(idx, q, num_partitions=parts).to_pylist()
    assert dist == local


def test_distributed_avg_reassociates_within_ulp(idx):
    """avg() merges per-range (mean, n) partials: float addition
    reassociates across ranges, so the distributed result may differ from
    the sequential incremental mean in the last ulp — and no more."""
    import math

    q = ('find {text: ~="the"} return {g: group(.role), '
         "m: avg(.turn_idx)} ;")
    local = run_query(IndexReader(idx), q).to_pylist()
    dist = run_query_distributed(idx, q, num_partitions=3).to_pylist()
    assert [r["g"] for r in dist] == [r["g"] for r in local]
    for a, b in zip(local, dist):
        assert math.isclose(a["m"], b["m"], rel_tol=1e-12)


def test_run_query_plan_switch_is_transparent(idx, monkeypatch):
    """run_query picks in-process vs distributed by index size; forcing
    the switch with a tiny threshold must not change any result."""
    r = IndexReader(idx)
    qs = ['find {text: ~="fox"} order score() desc return score() limit 20 ;',
          'find {role: =="user"} return {r: group(.role), n: count()} ;',
          'find {text: ~="time"} return .conv_id limit 7 ;']
    local = [run_query(r, q).to_pylist() for q in qs]
    monkeypatch.setenv("NOISE_RAY_DIST_MIN_DOCS", "1")
    for q, want in zip(qs, local):
        assert run_query(r, q).to_pylist() == want, q


def test_distributed_params(idx):
    q = 'find {role: ==@r} return {n: count()} ;'
    local = run_query(IndexReader(idx), q, {"r": "user"}).to_pylist()
    dist = run_query_distributed(idx, q, {"r": "user"},
                                 num_partitions=4).to_pylist()
    assert dist == local


# ------------------------------------------- forced range-pool dispatch

SF = "/root/testdata/sf0.001"


def _bm25_search_after(idx, _tmp):
    from noise_ray.ops.bm25 import bm25_topk

    first = bm25_topk(SF, k=5, index_dir=idx)
    cursor = (first.column("score")[-1].as_py(),
              first.column("doc_id")[-1].as_py())
    return bm25_topk(SF, k=10, index_dir=idx, search_after=cursor)


def _federated_one_big_shard(_idx, _tmp):
    """Disjoint shards of 250 (docs 0..249) and 166 (docs 334..499)
    docs; a 250-doc threshold sends only the first down the per-range
    ``bm25_score_range`` branch, the other through ``fed_topk_shard``."""
    from noise_ray.ops.federated import (federated_bm25,
                                         shard_documents_indexes)

    shards = [shard_documents_indexes(SF, 2)[0],
              shard_documents_indexes(SF, 3)[2]]
    return federated_bm25(shards)


def _delete_by_query(idx, tmp):
    import os
    import shutil

    from noise_ray.build import delete_by_query

    d = str(tmp / f"copy-{os.environ.get('NOISE_RAY_DIST_MIN_DOCS', 'local')}")
    shutil.copytree(idx, d)
    assert delete_by_query(d, 'find {text: ~="merge"} ;') > 0
    return IndexReader(d).tombstones.tolist()


def _op(module, fn, **kw):
    def run(idx, _tmp):
        import importlib

        op = getattr(importlib.import_module(f"noise_ray.{module}"), fn)
        return op(SF, index_dir=idx, **kw)
    return run


FORCED = {
    "bm25_topk": (_op("ops.bm25", "bm25_topk"), "1"),
    "bm25_topk_filter": (_op("ops.bm25", "bm25_topk",
                             filter_query='find {lang: =="en"} ;'), "1"),
    "bm25_topk_search_after": (_bm25_search_after, "1"),
    "bm25_fields_topk": (_op("ops.bm25", "bm25_fields_topk"), "1"),
    "bm25_phrase_topk": (_op("ops.bm25", "bm25_phrase_topk"), "1"),
    "bm25_spannear_topk": (_op("ops.bm25", "bm25_spannear_topk"), "1"),
    "bm25_span_first_topk": (_op("ops.bm25", "bm25_span_first_topk"), "1"),
    "bm25_boosting_topk": (_op("ops.bm25_ext", "bm25_boosting_topk"), "1"),
    "bm25_value_boost": (_op("ops.bm25_ext", "bm25_value_boost"), "1"),
    "bm25_decay": (_op("ops.bm25_ext", "bm25_decay"), "1"),
    "bm25_dismax_topk": (_op("ops.bm25_ext", "bm25_dismax_topk"), "1"),
    "collapse_topk": (_op("ops.aggs", "collapse_topk"), "1"),
    "top_hits": (_op("ops.aggs", "top_hits"), "1"),
    "federated_bm25": (_federated_one_big_shard, "250"),
    "delete_by_query": (_delete_by_query, "1"),
}


@pytest.mark.parametrize("case", sorted(FORCED))
def test_forced_pool_dispatch_identical(ray_session, monkeypatch, tmp_path,
                                        case):
    """Lowering NOISE_RAY_DIST_MIN_DOCS sends each op through the
    range-actor pool; every result equals the in-process one."""
    from noise_ray.pipelines import documents_index

    run, threshold = FORCED[case]
    idx = documents_index(SF).index_dir
    local = run(idx, tmp_path)
    monkeypatch.setenv("NOISE_RAY_DIST_MIN_DOCS", threshold)
    dist = run(idx, tmp_path)
    if isinstance(local, list):
        assert local and dist == local
    else:
        assert local.num_rows and dist.equals(local)


# ------------------------------------------------ one dispatch primitive

def _ops_call_literals():
    """Every ``("ops_call", (module, fn, args))`` tuple in noise_ray/,
    as (file:line, module, fn); module/fn None when not a literal."""
    import ast
    import pathlib

    import noise_ray

    root = pathlib.Path(noise_ray.__file__).parent
    out = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Tuple) and len(node.elts) == 2
                    and isinstance(node.elts[0], ast.Constant)
                    and node.elts[0].value == "ops_call"):
                continue
            inner = node.elts[1]
            names = [None, None]
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 3:
                names = [e.value if isinstance(e, ast.Constant)
                         and isinstance(e.value, str) else None
                         for e in inner.elts[:2]]
            out.append((f"{path.relative_to(root)}:{node.lineno}", *names))
    return out


def test_ops_call_names_resolve():
    """Pool calls name their body by string, so a typo would only fail
    on an index large enough to dispatch; resolve every literal here
    through the worker's own resolver."""
    from noise_ray.query.distributed import _resolve

    calls = _ops_call_literals()
    assert len(calls) > 40
    for where, module, fn in calls:
        assert module is not None and fn is not None, \
            f"{where}: non-literal ops_call target"
        assert callable(_resolve(module, fn)), f"{where}: {module}.{fn}"


# Split formulas the range fan-outs used before doc_ranges: the default
# per-10k-docs rule (ops modules, delete_by_query), an explicit count
# (run_query_distributed's num_partitions, msearch's serve partitions)
# and the nested engine's per-250k-docs rule.
def _old_default(n, cpus):
    parts = max(1, min(cpus, n // 10_000 + 1))
    span = max(1, -(-n // parts))
    return [(lo, min(lo + span, n)) for lo in range(0, n, span)]


def _old_count(n, parts):
    span = max(1, -(-n // parts))
    return [(lo, min(lo + span, n)) for lo in range(0, n, span)]


def _old_nested(n):
    n_tasks = min(32, max(1, n // 250_000))
    span = -(-n // n_tasks)
    return [(lo, min(lo + span, n)) for lo in range(0, n, span)]


@pytest.mark.parametrize("n", [0, 1, 9_999, 10_000, 123_457, 2_000_001])
@pytest.mark.parametrize("cpus", [1, 4, 8, 32])
def test_doc_ranges_match_old_splits(monkeypatch, n, cpus):
    from noise_ray.query import distributed

    monkeypatch.setattr(distributed.ray, "cluster_resources",
                        lambda: {"CPU": float(cpus)})
    got = distributed.doc_ranges(n)
    assert got == _old_default(n, cpus)
    for parts in (1, 3, 7, cpus):
        assert distributed.doc_ranges(n, parts) == _old_count(n, parts)
    for serve in (2, 8):  # msearch: min(serve, pool, n // 10_000 + 1)
        parts = max(1, min(serve, cpus, n // 10_000 + 1))
        assert distributed.doc_ranges(n, parts) == _old_count(n, parts)
    nested = distributed.doc_ranges(n, min(32, max(1, n // 250_000)))
    if n:
        assert nested == _old_nested(n)
    else:  # the old nested split raised on an empty index
        with pytest.raises(ValueError):
            _old_nested(n)
        assert nested == [] and got == []
    if got:
        assert got[0][0] == 0 and got[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(got, got[1:]))


def test_nested_distributed_empty_index(ray_session, tmp_path):
    """A zero-doc nested index answers through the range fan-out (no
    ranges, no pool call) exactly as in-process."""
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query import JsonIndexReader, run_json_query

    p = docs_to_parquet([], str(tmp_path / "in.parquet"), docid_base=0)
    idx = str(tmp_path / "idx")
    build_json_index([p], idx, num_buckets=2)
    r = JsonIndexReader(idx)
    assert r.num_docs == 0
    for q in ['find {n: >= 1} return ._id ;',
              'find {n: >= 1} order score() desc return ._id limit 3 ;',
              'find {msgs: [{t: ~="fox"}]} return {n: count()} ;']:
        assert run_query_distributed(idx, q, num_partitions=3) == \
            run_json_query(r, q)
