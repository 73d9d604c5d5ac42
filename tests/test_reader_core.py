"""The reader core on both engines: one flat and one nested index, each
with two epochs (the first upserts base keys) and a deleted doc, checked
through the same ``ReaderCore`` surface — range reads against cached
full lists, term stats and token totals against the stats sidecars,
key lookups against the tombstone set, and tombstone publishing across
a reopen."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

WORDS = ["fox", "dog", "quick", "lazy", "brown", "season"]


def _text(i: int) -> str:
    # every doc holds "fox"; the rest vary so terms span several blocks
    return " ".join(["fox"] + [WORDS[(i * k) % len(WORDS)]
                               for k in range(1, 2 + i % 4)])


def _flat_rows(keys, salt):
    return pa.table({
        "conv_id": pa.array([k for k, _ in keys], pa.string()),
        "turn_idx": pa.array([t for _, t in keys], pa.int32()),
        "role": pa.array(["user"] * len(keys), pa.string()),
        "text": pa.array([_text(i + salt) for i in range(len(keys))],
                         pa.string()),
        "tool": pa.array([None] * len(keys), pa.string()),
        "ts": pa.array(range(len(keys)), pa.timestamp("us")),
    })


def _flat_index(root):
    from noise_ray.build import add_documents, build_index
    from noise_ray.query import IndexReader

    def write(name, keys, salt):
        p = os.path.join(root, f"{name}.parquet")
        pq.write_table(_flat_rows(keys, salt), p)
        return [p]

    base = [(f"c{i // 3}", i % 3) for i in range(18)]
    idx = os.path.join(root, "flat")
    build_index(write("in0", base, 0), idx, num_buckets=4, block_size=2)
    # epoch 1: four upserts of base keys + two new keys; epoch 2: new keys
    add_documents(idx, write("in1", base[2:6] + [("n0", 0), ("n0", 1)], 7))
    add_documents(idx, write("in2", [("n1", 0), ("n1", 1), ("n1", 2)], 11))
    r = IndexReader(idx)
    r.add_tombstones([r.lookup_doc("c5", 1)])  # a plain delete
    keys = base + [("n0", 0), ("n0", 1), ("n1", 0), ("n1", 1), ("n1", 2)]
    return (IndexReader, idx, "text", r.field_id["text"],
            [(lambda r, k=k: r.lookup_doc(*k)) for k in keys])


def _nested_index(root):
    from noise_ray.build import add_documents
    from noise_ray.build.json_pipeline import (build_json_index,
                                               docs_to_parquet)
    from noise_ray.query.json_reader import JsonIndexReader

    def docs(ids, salt):
        return [{"_id": d, "msgs": [{"t": _text(i + salt + j)}
                                    for j in range(1 + i % 3)]}
                for i, d in enumerate(ids)]

    base = [f"d{i}" for i in range(12)]
    idx = os.path.join(root, "nested")
    build_json_index([docs_to_parquet(docs(base, 0),
                                      os.path.join(root, "j0.parquet"))],
                     idx, num_buckets=4, block_size=2)
    up = base[1:4] + ["e0", "e1"]
    add_documents(idx, [docs_to_parquet(
        docs(up, 5), os.path.join(root, "j1.parquet"), docid_base=12)])
    add_documents(idx, [docs_to_parquet(
        docs(["e2", "e3"], 9), os.path.join(root, "j2.parquet"),
        docid_base=17)])
    r = JsonIndexReader(idx)
    r.add_tombstones([r.lookup_id("d7")])  # a plain delete
    ids = base + ["e0", "e1", "e2", "e3"]
    return (JsonIndexReader, idx, ".msgs$.t", ".msgs$.t",
            [(lambda r, d=d: r.lookup_id(d)) for d in ids])


@pytest.fixture(scope="module", params=["flat", "nested"])
def index(request, ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp(f"core-{request.param}"))
    make = _flat_index if request.param == "flat" else _nested_index
    return make(root)


def _as_lists(pl, positions: bool):
    out = [pl.docs.tolist(), pl.tfs.tolist(), pl.lens.tolist(),
           None if pl.aps is None else pl.aps.tolist()]
    if positions:
        out.append([pl.positions_of(i).tolist() for i in range(pl.size)])
    return out


def test_range_reads_match_cached_full_list(index):
    cls, idx, field, _fkey, _lookups = index
    cold, warm = cls(idx), cls(idx)
    assert len(cold._epochs) == 2 and cold.tombstones.size >= 2
    n = cold.num_docs
    ranges = [(0, n), (0, 5), (3, 9), (n - 4, n), (7, 8)]
    for term in ["fox", "quick", "season", "absent"]:
        for positions in (False, True):
            full = warm.postings(field, term, positions)
            for lo, hi in ranges:
                a = cold.postings(field, term, positions, (lo, hi))
                b = warm.postings(field, term, positions, (lo, hi))
                want = _as_lists(full.slice_range(lo, hi), positions)
                assert _as_lists(a.slice_range(lo, hi), positions) == want
                assert _as_lists(b.slice_range(lo, hi), positions) == want
    assert warm.postings(field, "fox", False).size >= n - 2


def test_stats_match_the_stats_sidecars(index):
    cls, idx, field, fkey, _lookups = index
    r = cls(idx)
    paths = r.stats_paths()
    assert len(paths) > len(r._stats_by_bucket)  # epochs' sidecars too
    t = pa.concat_tables([pq.read_table(p, columns=["field", "term", "c"])
                          for p in paths])
    fields = np.asarray(t.column("field").to_pylist(), dtype=object)
    terms = np.asarray(t.column("term").to_pylist(), dtype=object)
    c = t.column("c").to_numpy()
    mine = fields == fkey
    assert r.token_total(field) == int(c[mine].sum()) > 0
    assert r.token_total(fkey) == r.token_total(field)
    for term in ["fox", "quick", "lazy", "absent"]:
        want = int(c[mine & (terms == term)].sum())
        assert r.term_stats(field, term) == (want, r.field_k[fkey])


def test_lookups_skip_tombstoned_docs(index):
    cls, idx, _field, _fkey, lookups = index
    r = cls(idx)
    dead = set(r.tombstones.tolist())
    found = [look(r) for look in lookups]
    assert found.count(None) == 1  # the deleted key
    live = [d for d in found if d is not None]
    assert not dead & set(live)
    assert len(set(live)) == len(live)
    # each upserted key's base copy is dead and its epoch copy is found
    assert len(live) + len(dead) == r.num_docs
    assert max(live) == r.num_docs - 1


def _lookup(r, key):
    return r.lookup_doc(*key) if len(key) == 2 else r.lookup_id(key[0])


def _versions(r):
    """Every key's doc ids, from a full scan of every docmap partition."""
    keys = r.manifest["key_columns"]
    out: dict = {}
    for dm in r._docmap:
        for row in pq.read_table(dm["path"],
                                 columns=["doc_id", *keys]).to_pylist():
            out.setdefault(tuple(row[c] for c in keys), []).append(
                row["doc_id"])
    return out


def _brute_highest_live(r, versions):
    """Every key's highest non-tombstoned doc id (None when every version
    is dead)."""
    dead = set(r.tombstones.tolist())
    return {k: max((d for d in v if d not in dead), default=None)
            for k, v in versions.items()}


def test_lookups_match_brute_force_highest_live(index):
    """``lookup_doc`` / ``lookup_id`` stop at the newest partition with a
    live match; they must equal a scan of all partitions — for keys only
    in the base, upserted keys, deleted keys, and a key whose newest
    version is tombstoned while an older one lives."""
    from noise_ray.build.incremental import TOMBSTONES_NAME

    cls, idx, _field, _fkey, _lookups = index
    r = cls(idx)
    versions = _versions(r)
    want = _brute_highest_live(r, versions)
    assert {k: _lookup(r, k) for k in want} == want
    absent = ("nope", 0) if len(next(iter(want))) == 2 else ("nope",)
    assert _lookup(r, absent) is None
    base_docs = int(r.manifest["doc_id_offset"]) + int(r.manifest["num_docs"])
    base_only = [k for k, v in versions.items() if max(v) < base_docs]
    upserted = [k for k, v in versions.items()
                if len(v) > 1 and min(v) < base_docs <= max(v)]
    assert any(want[k] is not None for k in base_only)
    assert any(want[k] is None for k in base_only)  # the plain delete
    assert upserted and all(want[k] == max(versions[k]) for k in upserted)

    # newest version dead, the base version live again: the walk must pass
    # the epoch partition whose only match is tombstoned
    key = upserted[0]
    old, new = sorted(versions[key])[-2:]
    before = r.tombstones.tolist()
    try:
        with open(os.path.join(idx, TOMBSTONES_NAME), "w") as f:
            json.dump(sorted(set(before) - {old} | {new}), f)
        swapped = cls(idx)
        want = _brute_highest_live(swapped, versions)
        assert want[key] == old
        assert {k: _lookup(swapped, k) for k in want} == want
    finally:
        with open(os.path.join(idx, TOMBSTONES_NAME), "w") as f:
            json.dump(before, f)


def test_add_tombstones_survives_reopen(index):
    cls, idx, _field, _fkey, lookups = index
    r = cls(idx)
    before = r.tombstones.tolist()
    victim = lookups[0](r)
    try:
        assert r.add_tombstones([victim, victim]) == len(before) + 1
        again = cls(idx)
        assert again.tombstones.tolist() == sorted(before + [victim])
        assert lookups[0](again) is None
        assert again.add_tombstones([]) == len(before) + 1
    finally:
        from noise_ray.build.incremental import TOMBSTONES_NAME

        with open(os.path.join(idx, TOMBSTONES_NAME), "w") as f:
            json.dump(before, f)
