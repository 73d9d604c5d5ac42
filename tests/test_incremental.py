"""Incremental adds (epochs): the reference's Index::add+flush on a live
index (src/index.rs:131-161), including upsert semantics (re-adding an
existing key shadows the old doc, src/json_shred.rs:452-475).

New docs continue the seq space; scores over the grown corpus must equal a
from-scratch build over the union (stats are merge-summed across epochs
exactly like the reference's C/K merge operator, src/index.rs:301-322)."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from noise_ray.build import add_documents, build_index, total_docs
from noise_ray.query import IndexReader, run_query, run_query_distributed


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

def test_merge_epochs_bit_identical(base_index, tmp_path):
    """Folding three epochs (including an upsert's tombstone) into one
    merged epoch changes NO query result — same ids, same f32 scores,
    same tombstone behavior — and halves nothing but the per-term
    segment lookups.  Epoch numbering continues after the merge and a
    second-generation merge (merged + fresh epoch) still agrees."""
    from noise_ray.build import merge_epochs
    from noise_ray.build.incremental import _epoch_dirs

    p1 = _write(str(tmp_path / "in1"), "part-1.parquet", DELTA)
    add_documents(base_index, [p1])
    p2 = _write(str(tmp_path / "in2"), "part-2.parquet", [
        ("a", 0, "user", "updated fox doc entirely"),   # upsert of a/0
        ("d", 0, "user", "fox quick lazy"),
    ])
    add_documents(base_index, [p2])
    p3 = _write(str(tmp_path / "in3"), "part-3.parquet", [
        ("e", 0, "assistant", "dogs and fox together"),
    ])
    add_documents(base_index, [p3])

    qs = [
        'find {text: ~="fox"} order score() desc, .doc_id asc '
        'return score() limit 10 ;',
        'find {text: ~="quick"} return .doc_id ;',
        'find {role: =="user", text: ~="lazy"} return .doc_id ;',
    ]
    r = IndexReader(base_index)
    before = [run_query(r, q) for q in qs]
    n_before = total_docs(base_index)
    tomb_before = sorted(r.tombstones.tolist())
    assert tomb_before  # the upsert really shadowed a doc

    m = merge_epochs(base_index)
    assert m is not None
    eds = _epoch_dirs(base_index)
    assert [os.path.basename(d) for d in eds] == ["epoch-0001-0003"]
    assert total_docs(base_index) == n_before
    r2 = IndexReader(base_index)
    assert sorted(r2.tombstones.tolist()) == tomb_before
    for q, want in zip(qs, before):
        got = run_query(r2, q)
        assert got.column_names == want.column_names
        for c in want.column_names:
            assert got.column(c).to_pylist() == want.column(c).to_pylist()

    # numbering continues past the merged span
    p4 = _write(str(tmp_path / "in4"), "part-4.parquet", [
        ("f", 0, "user", "a final fox"),
    ])
    add_documents(base_index, [p4])
    names = [os.path.basename(d) for d in _epoch_dirs(base_index)]
    assert names == ["epoch-0001-0003", "epoch-0004"]

    # keep=1 keeps the newest epoch: only one mergeable dir -> no-op
    assert merge_epochs(base_index, keep=1) is None

    # second-generation merge folds the merged epoch + the fresh one
    before2 = [run_query(IndexReader(base_index), q) for q in qs]
    assert merge_epochs(base_index) is not None
    names = [os.path.basename(d) for d in _epoch_dirs(base_index)]
    assert names == ["epoch-0001-0004"]
    r3 = IndexReader(base_index)
    for q, want in zip(qs, before2):
        got = run_query(r3, q)
        for c in want.column_names:
            assert got.column(c).to_pylist() == want.column(c).to_pylist()


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
