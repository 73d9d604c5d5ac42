"""Incremental adds (epochs): the reference's Index::add+flush on a live
index (src/index.rs:131-161), including upsert semantics (re-adding an
existing key shadows the old doc, src/json_shred.rs:452-475).

New docs continue the seq space; scores over the grown corpus must equal a
from-scratch build over the union (stats are merge-summed across epochs
exactly like the reference's C/K merge operator, src/index.rs:301-322)."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from noise_ray.build import add_documents, build_index, total_docs
from noise_ray.query import (IndexReader, JsonIndexReader, run_query,
                             run_query_distributed)


def _write(dirpath, name, rows):
    os.makedirs(dirpath, exist_ok=True)
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "tool": pa.array([None] * len(rows), pa.string()),
        "ts": pa.array(range(len(rows)), pa.timestamp("us")),
    })
    p = os.path.join(dirpath, name)
    pq.write_table(t, p)
    return p


BASE = [
    ("a", 0, "user", "the quick brown fox"),
    ("a", 1, "assistant", "lazy dogs sleep"),
    ("b", 0, "user", "fox hunting season"),
]
DELTA = [
    ("c", 0, "user", "another fox appears"),
    ("c", 1, "assistant", "quick quick fox"),
]


@pytest.fixture()
def base_index(ray_session, tmp_path):
    p = _write(str(tmp_path / "in0"), "part-0.parquet", BASE)
    idx = str(tmp_path / "idx")
    build_index([p], idx, num_buckets=4)
    return idx


def ids(t):
    return t.column("doc_id").to_pylist()


def test_add_grows_and_matches_scratch(base_index, tmp_path):
    p1 = _write(str(tmp_path / "in1"), "part-1.parquet", DELTA)
    m = add_documents(base_index, [p1])
    assert m["doc_id_offset"] == 3
    assert total_docs(base_index) == 5

    r = IndexReader(base_index)
    assert r.num_docs == 5
    q = 'find {text: ~="fox"} order score() desc return score() limit 10 ;'
    got = run_query(r, q)

    # from-scratch build over the union must be doc-for-doc identical
    scratch_in = str(tmp_path / "union")
    _write(scratch_in, "part-0.parquet", BASE)
    # separate file, non-overlapping conv_id range ("c" > "b")
    _write(scratch_in, "part-1.parquet", DELTA)
    scratch_idx = str(tmp_path / "scratch")
    build_index(sorted(
        os.path.join(scratch_in, f) for f in os.listdir(scratch_in)),
        scratch_idx, num_buckets=4)
    want = run_query(IndexReader(scratch_idx), q)
    assert ids(got) == ids(want)
    assert got.column("score").to_pylist() == want.column("score").to_pylist()

    # distributed path sees epochs too
    dist = run_query_distributed(base_index, q, num_partitions=2)
    assert ids(dist) == ids(want)


def test_upsert_shadows_old_doc(base_index, tmp_path):
    # re-add turn (a, 0) with new text: old doc must vanish, new one match
    p1 = _write(str(tmp_path / "in1"), "part-1.parquet",
                [("a", 0, "user", "updated fox text entirely")])
    m = add_documents(base_index, [p1])
    assert m["tombstoned"] == [0]

    r = IndexReader(base_index)
    got = run_query(r, 'find {text: ~="updated"} limit 10 ;')
    assert ids(got) == [3]
    # the old version of (a,0) is hidden from every query
    all_docs = ids(run_query(r, 'find {text: ~="fox"} limit 10 ;'))
    assert 0 not in all_docs and 3 in all_docs
    # identity lookup resolves to the newest live doc
    assert r.lookup_doc("a", 0) == 3


def test_crashed_epoch_with_different_inputs_is_wiped(base_index, tmp_path):
    """Regression: an unpublished (crashed) epoch dir must only be resumed
    for the SAME inputs — build_index's lineage checks can't distinguish
    input sets of equal shape, so a fingerprint mismatch wipes the
    partial directory instead of splicing stale files in."""
    import json

    ghost = os.path.join(base_index, "epochs", "epoch-0001")
    os.makedirs(os.path.join(ghost, "docmap"))
    with open(os.path.join(ghost, "inputs.json"), "w") as f:
        json.dump({"paths": ["/somewhere/else.parquet"], "offset": 3}, f)
    marker = os.path.join(ghost, "docmap", "stale-file")
    open(marker, "w").write("x")

    p1 = _write(str(tmp_path / "in1"), "part-1.parquet", DELTA)
    add_documents(base_index, [p1])
    assert not os.path.exists(marker)  # partial dir was wiped, not resumed
    r = IndexReader(base_index)
    docs = ids(run_query(r, 'find {text: ~="fox"} limit 10 ;'))
    assert docs == [0, 2, 3, 4]


def test_multiple_epochs_and_reopen(base_index, tmp_path):
    for i, rows in enumerate(([("d", 0, "user", "fox one")],
                              [("e", 0, "user", "fox two")])):
        p = _write(str(tmp_path / f"in{i+1}"), "part.parquet", rows)
        add_documents(base_index, [p])
    r = IndexReader(base_index)
    assert r.num_docs == 5
    assert len(r._epochs) == 2
    docs = ids(run_query(r, 'find {text: ~="fox"} limit 10 ;'))
    assert docs == [0, 2, 3, 4]

    # crashed epoch (no manifest) stays invisible
    ghost = os.path.join(base_index, "epochs", "epoch-0099")
    os.makedirs(os.path.join(ghost, "segments"))
    r2 = IndexReader(base_index)
    assert len(r2._epochs) == 2
    shutil.rmtree(ghost)


# ---------------------------------------------------- tiered epoch merge

class _Flat:
    """Lifecycle-test hooks of the flat engine over BASE-style rows."""

    reader = IndexReader
    queries = [
        'find {text: ~="fox"} order score() desc, .doc_id asc '
        'return score() limit 10 ;',
        'find {text: ~="quick"} return .doc_id ;',
        'find {role: =="user", text: ~="lazy"} return .doc_id ;',
    ]

    write = staticmethod(_write)

    @staticmethod
    def build(paths, idx):
        build_index(paths, idx, num_buckets=4)

    @staticmethod
    def run(r, q):
        t = run_query(r, q)
        return {c: t.column(c).to_pylist() for c in t.column_names}

    @staticmethod
    def keys(r, docs):
        return [f"{row['conv_id']}/{row['turn_idx']}" for row in
                r.fetch_docs(np.asarray(docs, np.int64),
                             ["conv_id", "turn_idx"]).to_pylist()]

    @staticmethod
    def matches(r, term):
        return run_query(r, f'find {{text: ~="{term}"}} ;') \
            .column("doc_id").to_pylist()


class _Nested:
    """The same rows as ``{_id: "<conv>/<turn>", role, text}`` documents
    of a nested index."""

    queries = [
        'find {text: ~="fox"} order score() desc, ._id asc '
        'return [._id, score()] limit 10 ;',
        'find {text: ~="quick"} return ._id ;',
        'find {role: =="user", text: ~="lazy"} return ._id ;',
    ]

    reader = JsonIndexReader

    @staticmethod
    def write(dirpath, name, rows):
        from noise_ray.build.json_pipeline import docs_to_parquet

        os.makedirs(dirpath, exist_ok=True)
        return docs_to_parquet(
            [{"_id": f"{c}/{t}", "role": role, "text": text}
             for c, t, role, text in rows], os.path.join(dirpath, name))

    @staticmethod
    def build(paths, idx):
        from noise_ray.build.json_pipeline import build_json_index

        build_json_index(paths, idx, num_buckets=4)

    @staticmethod
    def run(r, q):
        from noise_ray.query.json_executor import run_json_query

        return run_json_query(r, q)

    @staticmethod
    def keys(r, docs):
        return r.doc_id_strs(np.asarray(docs, np.int64))

    @staticmethod
    def matches(r, term):
        from noise_ray.query.json_engine import CompiledJsonQuery
        from noise_ray.query.noise_parser import parse_noise_query

        q = parse_noise_query(f'find {{text: ~="{term}"}} ;')
        return CompiledJsonQuery(r, q.filter).evaluate().docs.tolist()


@pytest.fixture(params=["flat", "nested"])
def engine(request, ray_session, tmp_path):
    """(engine hooks, index built over BASE) for either engine."""
    eng = {"flat": _Flat, "nested": _Nested}[request.param]
    idx = str(tmp_path / "idx")
    eng.build([eng.write(str(tmp_path / "in0"), "part-0.parquet", BASE)],
              idx)
    return eng, idx


def test_merge_epochs_bit_identical(engine, tmp_path):
    """Folding three epochs (including an upsert's tombstone) into one
    merged epoch changes NO query result — same ids, same f32 scores,
    same tombstone behavior — and halves nothing but the per-term
    segment lookups.  Epoch numbering continues after the merge and a
    second-generation merge (merged + fresh epoch) still agrees.  A
    merged nested epoch keeps the nested manifest, so the index still
    opens with its reader."""
    from noise_ray.build import merge_epochs
    from noise_ray.build.incremental import _epoch_dirs

    eng, idx = engine

    def add(name, rows):
        add_documents(idx, [eng.write(str(tmp_path / name), "part.parquet",
                                      rows)])

    add("in1", DELTA)
    add("in2", [
        ("a", 0, "user", "updated fox doc entirely"),   # upsert of a/0
        ("d", 0, "user", "fox quick lazy"),
    ])
    add("in3", [("e", 0, "assistant", "dogs and fox together")])

    r = eng.reader(idx)
    before = [eng.run(r, q) for q in eng.queries]
    n_before = total_docs(idx)
    tomb_before = sorted(r.tombstones.tolist())
    assert tomb_before  # the upsert really shadowed a doc

    m = merge_epochs(idx)
    assert m is not None
    eds = _epoch_dirs(idx)
    assert [os.path.basename(d) for d in eds] == ["epoch-0001-0003"]
    assert total_docs(idx) == n_before
    r2 = eng.reader(idx)
    assert sorted(r2.tombstones.tolist()) == tomb_before
    assert [eng.run(r2, q) for q in eng.queries] == before

    # numbering continues past the merged span
    add("in4", [("f", 0, "user", "a final fox")])
    names = [os.path.basename(d) for d in _epoch_dirs(idx)]
    assert names == ["epoch-0001-0003", "epoch-0004"]

    # keep=1 keeps the newest epoch: only one mergeable dir -> no-op
    assert merge_epochs(idx, keep=1) is None

    # second-generation merge folds the merged epoch + the fresh one
    before2 = [eng.run(eng.reader(idx), q) for q in eng.queries]
    assert merge_epochs(idx) is not None
    names = [os.path.basename(d) for d in _epoch_dirs(idx)]
    assert names == ["epoch-0001-0004"]
    assert [eng.run(eng.reader(idx), q) for q in eng.queries] == before2


def test_add_after_merge_is_visible(engine, tmp_path):
    """An add after a merge lands in a visible epoch: it is numbered past
    the merged span (not into a directory the merged epoch supersedes),
    its doc ids continue the id sequence, and an upsert of a base key
    leaves only the newest row."""
    from noise_ray.build import merge_epochs
    from noise_ray.build.incremental import _epoch_dirs

    eng, idx = engine

    def add(name, rows):
        return add_documents(idx, [eng.write(
            str(tmp_path / name), "part.parquet", rows)])

    add("in1", [("c", 0, "user", "another fox appears")])
    add("in2", [("e", 0, "user", "fox in the epoch")])
    assert merge_epochs(idx) is not None
    n = total_docs(idx)
    m = add("in3", [("f", 0, "user", "a fresh fox"),
                    ("a", 0, "user", "the newest fox of a")])
    assert m["doc_id_offset"] == n
    assert total_docs(idx) == n + 2
    assert [os.path.basename(d) for d in _epoch_dirs(idx)] == \
        ["epoch-0001-0002", "epoch-0003"]

    r = eng.reader(idx)
    assert len(m["tombstoned"]) == 1  # the base row of a/0
    docs = eng.matches(r, "fox")
    assert sorted(eng.keys(r, docs)) == ["a/0", "b/0", "c/0", "e/0", "f/0"]
    a0 = [d for d, k in zip(docs, eng.keys(r, docs)) if k == "a/0"]
    assert a0 == eng.matches(r, "newest")  # only the newest a/0 is live
    assert a0[0] >= n


def test_merge_epochs_crash_leftover_is_wiped(base_index, tmp_path):
    """An unpublished merged dir (crash before the manifest write) is
    wiped and redone; a published-but-undeleted source dir (crash after
    publish) is hidden immediately and GC'd by the next merge call."""
    from noise_ray.build import merge_epochs
    from noise_ray.build.incremental import _epoch_dirs

    p1 = _write(str(tmp_path / "in1"), "part-1.parquet", DELTA)
    add_documents(base_index, [p1])
    p2 = _write(str(tmp_path / "in2"), "part-2.parquet", [
        ("d", 0, "user", "fox quick lazy"),
    ])
    add_documents(base_index, [p2])

    # unpublished leftover with garbage content
    leftover = os.path.join(base_index, "epochs", "epoch-0001-0002")
    os.makedirs(os.path.join(leftover, "segments"))
    with open(os.path.join(leftover, "junk.txt"), "w") as f:
        f.write("partial")
    q = ('find {text: ~="fox"} order score() desc, .doc_id asc '
         'return score() limit 10 ;')
    want = run_query(IndexReader(base_index), q)
    assert merge_epochs(base_index) is not None
    assert not os.path.exists(os.path.join(leftover, "junk.txt"))
    got = run_query(IndexReader(base_index), q)
    assert got.column("doc_id").to_pylist() == \
        want.column("doc_id").to_pylist()

    # crash-after-publish: resurrect a source dir name in supersedes —
    # it must stay hidden even though its manifest exists
    ghost = os.path.join(base_index, "epochs", "epoch-0001")
    os.makedirs(ghost)
    with open(os.path.join(ghost, "manifest.json"), "w") as f:
        f.write("{}")
    assert [os.path.basename(d) for d in _epoch_dirs(base_index)] == \
        ["epoch-0001-0002"]


def test_add_of_zero_row_delta_changes_no_answer(base_index, tmp_path):
    """A zero-row delta file (no docs, no column statistics) adds an empty
    epoch: every query answer, and every key lookup, stays the same."""
    queries = [
        'find {text: ~="fox"} order score() desc return score() limit 10 ;',
        'find {text: ~="quick"} limit 10 ;',
        'find {role: =="user"} limit 10 ;',
        'find {text: ~="lazy" || text: ~="season"} limit 10 ;',
    ]

    def answers():
        r = IndexReader(base_index)
        return ([run_query(r, q).to_pylist() for q in queries],
                [r.lookup_doc(c, t) for c, t, _, _ in BASE], r.num_docs)

    before = answers()
    p1 = _write(str(tmp_path / "in1"), "part-1.parquet", [])
    m = add_documents(base_index, [p1])
    assert m["num_docs"] == 0 and m["tombstoned"] == []
    assert answers() == before
