"""Nested-index lifecycle: epoch adds, upserts, deletes, compaction.

Mirrors the flat lifecycle guarantees: an epoch add is queryable
immediately with doc_ids continuing the seq space; re-adding an ``_id``
shadows the old doc; deletes hide docs; compaction folds everything into
a fresh base whose query results equal a fresh build over the live
documents."""

from __future__ import annotations

import os

import pytest

DOCS_A = [
    {"_id": "a", "msgs": [{"t": "quick brown fox"}], "n": 1},
    {"_id": "b", "msgs": [{"t": "lazy dog"}], "n": 2},
    {"_id": "c", "msgs": [{"t": "fox season"}], "n": 3},
]
DOCS_B = [
    {"_id": "a", "msgs": [{"t": "updated fox text"}], "n": 10},  # upsert
    {"_id": "d", "msgs": [{"t": "quick quick fox"}], "n": 4},
]

QUERIES = [
    'find {msgs: [{t: ~="fox"}]} order score() desc '
    "return [._id, score()] ;",
    'find {n: > 2} return [._id, .n] ;',
    'find {msgs: [{t: ~="quick"}]} return ._id ;',
]


def _run_all(idx):
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    r = JsonIndexReader(idx)
    return [run_json_query(r, q) for q in QUERIES]


def test_epoch_add_upsert_delete_compact(ray_session, tmp_path):
    from noise_ray.build import add_documents, compact_index
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    base = str(tmp_path)
    p0 = docs_to_parquet(DOCS_A, os.path.join(base, "in0.parquet"))
    idx = os.path.join(base, "idx")
    build_json_index([p0], idx, num_buckets=8)

    p1 = docs_to_parquet(DOCS_B, os.path.join(base, "in1.parquet"),
                         docid_base=3)
    m = add_documents(idx, [p1])
    assert m["tombstoned"] == [0]  # old "a" shadowed

    r = JsonIndexReader(idx)
    assert r.num_docs == 5 and r.tombstones.tolist() == [0]
    ids = run_json_query(r, 'find {msgs: [{t: ~="fox"}]} return ._id ;')
    assert ids == ["c", "a", "d"]  # new "a" at seq 3; old hidden
    assert run_json_query(r, 'find {n: > 5} return [._id, .n] ;') == \
        [["a", 10.0]]
    assert r.lookup_id("a") == 3

    # delete "d"
    r.add_tombstones([4])
    r2 = JsonIndexReader(idx)
    assert run_json_query(
        r2, 'find {msgs: [{t: ~="fox"}]} return ._id ;') == ["c", "a"]

    # compaction ≡ fresh build over live docs (b, c, a-updated)
    before = _run_all(idx)
    compact_index(idx)
    assert _run_all(idx) == before

    live = [{"_id": "b", "msgs": [{"t": "lazy dog"}], "n": 2},
            {"_id": "c", "msgs": [{"t": "fox season"}], "n": 3},
            {"_id": "a", "msgs": [{"t": "updated fox text"}], "n": 10}]
    fresh_dir = os.path.join(base, "fresh")
    pf = docs_to_parquet(live, os.path.join(base, "fresh.parquet"))
    build_json_index([pf], fresh_dir, num_buckets=8)
    assert _run_all(idx) == _run_all(fresh_dir)


def _mk_doc(k: int, rev: int = 0):
    words = ["alpha", "beta", "gamma", "delta", "fox", "quick", "brown",
             "lazy"]
    return {"_id": f"d{k:06d}",
            "tags": [words[(k + rev) % 8], words[((k // 3) + rev) % 8]],
            "n": (k + 137 * rev) % 1000,
            "text": f"{words[(k + rev) % 8]} {words[(k * 7) % 8]} turn {k}"}


MID_QUERIES = [
    'find {tags: [ =="fox" ]} order score() desc return [._id, score()] '
    "limit 25 ;",
    "find {n: >= 990} return {c: count()} ;",
    'find {text: ~="quick"} order ._id return ._id limit 40 ;',
]


def test_midscale_epochs_compaction_equals_fresh(ray_session, tmp_path):
    """Mid-scale lifecycle hardening (verdict r2 item 6): >= 100k docs
    through base + two upserting epochs + deletes + compaction must be
    query-identical (ids, f32 scores, aggregates) to one fresh build over
    the surviving docs in live seq order.  Exercises the distributed
    tombstone semi-join and the distributed compaction live-set at a size
    where per-partition parallelism is real (multiple docmap partitions
    per epoch)."""
    import os

    from noise_ray.build import add_documents, compact_index
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_reader import JsonIndexReader

    # floor keeps the fixed structural offsets below (upsert windows,
    # delete slice) disjoint at any requested size
    n_base = max(int(os.environ.get("GRAFT_MIDSCALE_DOCS", "60000")), 6000)
    n_epoch = n_base // 3  # 2 epochs -> >= 100k docs total at the default
    base = str(tmp_path)

    base_docs = [_mk_doc(k) for k in range(n_base)]
    shards = []
    per = n_base // 4
    for s in range(4):
        shards.append(docs_to_parquet(
            base_docs[s * per : (s + 1) * per],
            os.path.join(base, f"in{s}.parquet"), docid_base=s * per))
    idx = os.path.join(base, "idx")
    build_json_index(shards, idx, num_buckets=16)

    # epoch 1: new docs + upserts of a base slice (content rev 1)
    e1 = ([_mk_doc(k) for k in range(n_base, n_base + n_epoch)]
          + [_mk_doc(k, rev=1) for k in range(0, n_base // 6)])
    p1 = docs_to_parquet(e1, os.path.join(base, "e1.parquet"),
                         docid_base=n_base)
    m1 = add_documents(idx, [p1])
    assert len(m1["tombstoned"]) == n_base // 6

    # epoch 2: more new docs + upserts spanning base AND epoch-1 docs
    lo2 = n_base + len(e1)
    re_lo, re_hi = n_base - 2000, n_base + 2000  # straddles the boundary
    e2 = ([_mk_doc(k) for k in range(lo2, lo2 + n_epoch)]
          + [_mk_doc(k, rev=2) for k in range(re_lo, re_hi)])
    p2 = docs_to_parquet(e2, os.path.join(base, "e2.parquet"),
                         docid_base=lo2)
    m2 = add_documents(idx, [p2])
    assert len(m2["tombstoned"]) == re_hi - re_lo

    # delete a contiguous live slice by _id (middle of the base — outside
    # both upsert windows for any n_base >= 6000)
    r = JsonIndexReader(idx)
    del_lo = n_base // 2
    deleted_ids = [f"d{k:06d}" for k in range(del_lo, del_lo + 500)]
    r.add_tombstones([r.lookup_id(i) for i in deleted_ids])

    before = _run_mid(idx)
    compact_index(idx)
    after = _run_mid(idx)
    assert after == before

    # fresh build over the live docs in live seq order
    live: list[dict] = []
    dead = set(deleted_ids)
    upserted = ({f"d{k:06d}" for k in range(0, n_base // 6)}
                | {f"d{k:06d}" for k in range(re_lo, re_hi)})
    for k in range(n_base):          # base survivors
        d = _mk_doc(k)
        if d["_id"] not in dead and d["_id"] not in upserted:
            live.append(d)
    for d in e1:                     # epoch-1 survivors
        if (d["_id"] not in dead
                and not (re_lo <= int(d["_id"][1:]) < re_hi)):
            live.append(d)
    live.extend(d for d in e2 if d["_id"] not in dead)
    fresh_dir = os.path.join(base, "fresh")
    fresh_shards = []
    per = (len(live) + 3) // 4
    for s in range(4):
        chunk = live[s * per : (s + 1) * per]
        if chunk:
            fresh_shards.append(docs_to_parquet(
                chunk, os.path.join(base, f"fresh{s}.parquet"),
                docid_base=s * per))
    build_json_index(fresh_shards, fresh_dir, num_buckets=16)
    assert _run_mid(fresh_dir) == after


def _run_mid(idx):  # mid-scale variant: the lifecycle-sensitive query set
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    r = JsonIndexReader(idx)
    return [run_json_query(r, q) for q in MID_QUERIES]


def test_not_after_upsert_ignores_tombstoned_lengths(ray_session, tmp_path):
    """Regression: a tombstoned doc's array length must not scatter onto
    the next live doc in NOT's candidate walk — an unrelated upsert used
    to fabricate NOT instances and flip query results."""
    from noise_ray.build import add_documents
    from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    base = str(tmp_path)
    docs = [
        {"_id": "t", "arr": [{"x": "a"}, {"x": "a"}, {"x": "a"},
                             {"x": "a"}]},
        {"_id": "d", "arr": [{"y": "a"}, {"y": "b"}, {"y": "r"}]},
        {"_id": "e", "arr": [{"x": "q"}]},
    ]
    p = docs_to_parquet(docs, os.path.join(base, "in.parquet"))
    idx = os.path.join(base, "idx")
    build_json_index([p], idx, num_buckets=4)
    q = 'find {arr: [{x: != "q", y: == "r"}]} return ._id ;'
    before = run_json_query(JsonIndexReader(idx), q)
    assert before == []
    # upsert doc "t" (tombstones doc 0, whose arr has length 4)
    p2 = docs_to_parquet([{"_id": "t", "arr": [{"x": "zz"}]}],
                         os.path.join(base, "in2.parquet"), docid_base=3)
    add_documents(idx, [p2])
    assert run_json_query(JsonIndexReader(idx), q) == before
