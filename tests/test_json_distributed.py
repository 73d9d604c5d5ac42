"""Distributed nested evaluation ≡ in-process evaluation.

The range fan-out (distributed.evaluate_ranges / fold_ranges) is exact
because every filter, score and bind collection is per-doc independent
and term stats are global — asserted here by forcing the distributed path
(``run_query_distributed``) on a small corpus over 1, 3 and 7 doc ranges
and comparing full result streams.  Malformed filters raise the engine's
plain error on the driver, before any pool call, for both engines."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="module")
def nested_idx(tmp_path_factory):
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet

    base = str(tmp_path_factory.mktemp("njdist"))
    docs = []
    words = ["quick", "brown", "fox", "lazy", "dog", "engine", "ray"]
    for i in range(200):
        docs.append({
            "_id": f"d{i:03d}",
            "msgs": [{"who": ["u", "b"][t % 2],
                      "t": " ".join(words[(i + t + j) % len(words)]
                                    for j in range(4))}
                     for t in range(1 + i % 4)],
            "n": float(i % 17),
            # two geo clusters, exercising the grid-bucketed bbox read
            # inside range workers
            "geometry": {"type": "Point",
                         "coordinates": [(-100.0 if i % 2 else 15.0)
                                         + (i % 9) * 0.01,
                                         (30.0 if i % 2 else -40.0)
                                         + (i % 7) * 0.01]},
        })
    paths = []
    for s in range(4):
        paths.append(docs_to_parquet(
            docs[s * 50:(s + 1) * 50],
            os.path.join(base, f"in{s}.parquet"), docid_base=s * 50))
    idx = os.path.join(base, "idx")
    build_json_index(paths, idx, num_buckets=8, docs_per_range=50)
    return idx


QUERIES = [
    'find {msgs: [{t: ~="fox", who: =="u"}]} order score() desc '
    "return [._id, score()] ;",
    'find {msgs: [{t: ~="quick brown"}]} return ._id ;',
    'find {n: >= 5, n: < 12} return [._id, .n] ;',
    'find {msgs: [{t: ~="engine"}]} && !{msgs: [{t: ~="dog"}]} '
    "return ._id ;",
    'find {msgs: [{t: ~="ray"}]} return {n: count()} ;',
    # worker-side top-k prune (score desc + limit), incl. ties
    'find {msgs: [{t: ~="fox"}]} order score() desc '
    "return [._id, score()] limit 7 ;",
    # worker-side head prune (no order + limit)
    'find {n: >= 3} return ._id limit 9 ;',
    # per-range partial aggregate folds (group/sum/avg/max/array/concat)
    'find {msgs: [{who: =="b"}]} return {g: group(.n), s: sum(.n), '
    "a: avg(.n), m: max(.n), ids: array(._id)} ;",
    'find {n: < 9} return {g: group(.n), c: concat(._id sep="|")} ;',
    # aggregate WITH limit: driver-side buffered early-cut fallback
    'find {msgs: [{who: =="u"}]} return {g: group(.n), '
    "c: count()} limit 3 ;",
    # AllDocs root aggregate: string-seq fold order, driver fallback
    "find {} return {c: count(), ids: array(._id)} ;",
    # bind collection with worker-side top-k prune
    'find {msgs: x::[{t: ~="engine"}]} order score() desc '
    "return [._id, x.who] limit 5 ;",
    # grid-bucketed bbox read under range workers (one cluster only)
    'find {geometry: && [-101, 29, -99, 31]} return ._id ;',
    # bbox AND a selective term: candidate-pushdown path
    'find {geometry: && [14, -41, 16, -39], msgs: [{t: ~="engine"}]} '
    "return ._id ;",
]


@pytest.mark.parametrize("parts", [1, 3, 7])
def test_distributed_matches_inprocess(ray_session, nested_idx, parts):
    from noise_ray.query import run_query_distributed
    from noise_ray.query.distributed import doc_ranges
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    r = JsonIndexReader(nested_idx)
    # the fan-out splits into exactly ``parts`` ranges
    assert len(doc_ranges(r.num_docs, parts)) == parts
    for q in QUERIES:
        local = run_json_query(r, q)
        dist = run_query_distributed(nested_idx, q, num_partitions=parts)
        assert local == dist, q
        assert local  # non-empty: the comparison is meaningful


@pytest.fixture(scope="module")
def tied_idx(tmp_path_factory):
    """30 docs: every third scores lower on the OR below, the rest tie."""
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet

    base = str(tmp_path_factory.mktemp("njtied"))
    docs = [{"_id": f"d{i:02d}",
             "m": [{"t": "fox" if i % 3 == 0 else "fox dog"}]}
            for i in range(30)]
    idx = os.path.join(base, "idx")
    build_json_index([docs_to_parquet(docs, os.path.join(base, "in.parquet"),
                                      docid_base=0)], idx)
    return idx


@pytest.mark.parametrize("parts", [1, 3, 7])
def test_pruned_ties_match_inprocess(ray_session, tied_idx, parts):
    """The worker-side top-k prune drops lower-scored rows; the buffered
    order/limit still picks the tied rows in-process picks, because it
    merges on the unpruned stream's arrival batches."""
    from noise_ray.query import run_query_distributed
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    r = JsonIndexReader(tied_idx)
    for k in range(1, 12):
        q = ('find {m: [{t: ~="fox" || t: ~="dog"}]} order score() desc '
             f"return [._id, score()] limit {k} ;")
        assert run_query_distributed(tied_idx, q, num_partitions=parts) == \
            run_json_query(r, q), q


FLAT_NOT = ('find !{text: ~="fox"} ;',
            "query must contain at least one full match expression")
NESTED_NOT = ('find !{msgs: [{t: ~="fox"}]} ;',
              "query cannot be made up of only logical not. Must have at "
              "least one match clause not negated.")


@pytest.mark.parametrize("route", ["run_query_distributed",
                                   "delete_by_query"])
@pytest.mark.parametrize("engine", ["flat", "nested"])
def test_not_check_plain_error_before_fanout(ray_session, small_transcripts,
                                             nested_idx, tmp_path,
                                             monkeypatch, engine, route):
    """An all-not filter raises the engine's own ValueError on the driver,
    not a Ray-wrapped error from the range workers."""
    import shutil

    from noise_ray.build import delete_by_query
    from noise_ray.query import run_query_distributed

    src = small_transcripts["index"] if engine == "flat" else nested_idx
    q, msg = FLAT_NOT if engine == "flat" else NESTED_NOT
    idx = str(tmp_path / "idx")  # a copy: a wrong delete must not leak
    shutil.copytree(src, idx)
    with pytest.raises(Exception) as e:
        if route == "run_query_distributed":
            run_query_distributed(idx, q, num_partitions=3)
        else:
            monkeypatch.setenv("NOISE_RAY_DIST_MIN_DOCS", "1")
            delete_by_query(idx, q)
    assert type(e.value) is ValueError
    assert str(e.value) == msg
