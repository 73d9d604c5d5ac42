"""Parity of the Arrow column-wise fast shred (build/arrow_shred.py)
with the per-document shredder: identical values partitions, zone maps
and posting blocks, plus the bail conditions that route unsafe
shapes back to the slow path."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_ray.build.arrow_shred import shred_table_fast
from noise_ray.build.json_pipeline import ShredTokenize, docs_to_parquet


def _run(tmp_path, docs, fast, tag):
    d = tmp_path / f"{tag}-{fast}"
    (d / "dm").mkdir(parents=True)
    (d / "v").mkdir()
    shard = str(d / "docs.parquet")
    docs_to_parquet(docs, shard)
    rows = pq.read_metadata(shard).num_rows
    st_ = ShredTokenize(str(d / "dm"), str(d / "v"), 8, 1, 10 ** 9, 0,
                        4096, fast=fast)
    blocks = st_(pa.table({"path": [shard], "offset": [0], "rows": [rows],
                           "seq": [0]}))
    vt = pq.read_table(str(d / "v" / "values-00000.parquet"))
    zones = json.loads(pq.read_metadata(
        str(d / "v" / "values-00000.parquet")
    ).metadata[b"noise_kp_zones"])
    return blocks, vt, zones


def _canon_blocks(blocks):
    """Posting-block rows in the segment writer's (field, term, min_doc)
    order."""
    return blocks.sort_by([("field", "ascending"), ("term", "ascending"),
                           ("min_doc", "ascending")]).to_pylist()


def _canon_values(vt):
    return sorted(
        ((r["doc_id"], r["kp"], tuple(r["ap"]), r["code"], r["num"],
          r["str"], tuple(r["bbox"]) if r["bbox"] else None)
         for r in vt.to_pylist()),
        key=lambda x: (x[0], x[1], x[2], x[3]),
    )


def _assert_parity(tmp_path, docs, tag, expect_fast=True):
    if expect_fast:
        # the fast path must actually engage for this shape
        texts = [json.dumps(d if "_id" in d else {**d, "_id": f"doc{i}"})
                 for i, d in enumerate(docs)]
        assert shred_table_fast([f"doc{i}" for i in range(len(docs))],
                                texts, 0) is not None
    a_s, v_s, z_s = _run(tmp_path, docs, False, tag)
    a_f, v_f, z_f = _run(tmp_path, docs, True, tag)
    assert z_s == z_f
    assert _canon_blocks(a_s) == _canon_blocks(a_f)
    assert _canon_values(v_s) == _canon_values(v_f)


def test_parity_transcript_shape(tmp_path):
    docs = [
        {"_id": f"c{i}", "n": float(i),
         "turns": [{"i": float(j), "role": "user" if j % 2 else "asst",
                    "text": f"the quick brown fox {i} {j}",
                    "tool": "none"}
                   for j in range(1 + i % 4)]}
        for i in range(40)
    ]
    _assert_parity(tmp_path, docs, "transcripts")


def test_parity_markers_bools_nesting(tmp_path):
    docs = [
        {"_id": "a", "e": {}, "l": [], "b": True, "c": False,
         "deep": [[1.0, 2.0], [3.0]], "s": "Hello World"},
        {"_id": "b", "e": {}, "l": [], "b": False, "c": True,
         "deep": [[4.0]], "s": "hello again"},
    ]
    _assert_parity(tmp_path, docs, "markers")


def test_parity_escaped_keys_and_ints(tmp_path):
    docs = [
        {"_id": "x", "a.b": 1, "c$d": [10, 20], "under_score": "ok"},
        {"_id": "y", "a.b": 2, "c$d": [30], "under_score": "fine"},
    ]
    _assert_parity(tmp_path, docs, "escaped")


def test_parity_empty_object_among_list_elements(tmp_path):
    # hypothesis-found (round 4): with null tolerance, a {} element of a
    # list of structs is an all-fields-absent VALID struct row — it must
    # still emit the reference's 'o' empty-object marker
    docs = [
        {"_id": "a", "xs": [{}, {"b": 1.0}]},
        {"_id": "b", "xs": [{"b": 2.0}, {}]},
        {"_id": "c", "y": {}},
    ]
    _assert_parity(tmp_path, docs, "empty_obj_mixed")


def test_parity_generated_ids(tmp_path):
    # docs without _id get injected deterministic ids — both paths must
    # index the injected value under ._id
    docs = [{"v": "alpha beta"}, {"v": "gamma"}]
    _assert_parity(tmp_path, docs, "genid")


def test_null_and_missing_key_split(tmp_path):
    # round 4: null-bearing docs are routed per-row to the slow walk
    # (slow_rows) while the rest shred column-wise; docs with absent
    # keys stay fully on the fast path (Arrow nulls = absent key)
    null_docs = [{"_id": "a", "x": None}, {"_id": "b", "x": 1.0}]
    out = shred_table_fast(
        [d["_id"] for d in null_docs],
        [json.dumps(d) for d in null_docs], 0)
    assert out is not None and out[2] == [0]
    _assert_parity(tmp_path, null_docs, "null_split")

    miss_docs = [{"_id": "a", "x": 1.0, "y": "s"}, {"_id": "b", "x": 2.0}]
    out = shred_table_fast(
        [d["_id"] for d in miss_docs],
        [json.dumps(d) for d in miss_docs], 0)
    assert out is not None and out[2] == []
    _assert_parity(tmp_path, miss_docs, "missing_key")


def test_bails_fall_back_to_slow_path(tmp_path):
    # each unsafe shape must (a) make shred_table_fast return None and
    # (b) still produce correct output through ShredTokenize's fallback
    cases = {
        "all_null_rows": [{"_id": "a", "x": None}, {"_id": "b", "y": None}],
        "hetero": [{"_id": "a", "x": 1.0}, {"_id": "b", "x": "s"}],
        "geojson": [{"_id": "a",
                     "geometry": {"type": "Point",
                                  "coordinates": [1.0, 2.0]}}],
        "timestampish": [{"_id": "a", "ts": "2020-01-01T00:00:00Z"},
                         {"_id": "b", "ts": "2021-06-05T01:02:03Z"}],
    }
    for tag, docs in cases.items():
        texts = [json.dumps(d) for d in docs]
        assert shred_table_fast([d["_id"] for d in docs],
                                texts, 0) is None, tag
        a_s, v_s, z_s = _run(tmp_path, docs, False, tag)
        a_f, v_f, z_f = _run(tmp_path, docs, True, tag)
        assert z_s == z_f, tag
        assert _canon_blocks(a_s) == _canon_blocks(a_f), tag
        assert _canon_values(v_s) == _canon_values(v_f), tag


_scalar = st.one_of(
    st.none(),  # explicit JSON null: per-row routed to the slow walk
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(codec="utf-8",
                               blacklist_categories=("Cs",)),
        max_size=12),
)
_value = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.text(alphabet="abxy._$\\", min_size=1, max_size=4)
            .filter(lambda k: k not in ("type", "coordinates", "_id")),
            inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.dictionaries(
        st.text(alphabet="abxy._$\\", min_size=1, max_size=4)
        .filter(lambda k: k not in ("type", "coordinates", "_id")),
        _value, max_size=4),
    min_size=1, max_size=6))
def test_property_fast_matches_slow(tmp_path_factory, docs):
    # arbitrary (homogeneous or not) docs: whether the fast path engages
    # or bails, the observable outputs must match the per-doc shredder
    tmp_path = tmp_path_factory.mktemp("prop")
    a_s, v_s, z_s = _run(tmp_path, docs, False, "p")
    a_f, v_f, z_f = _run(tmp_path, docs, True, "p")
    assert z_s == z_f
    assert _canon_blocks(a_s) == _canon_blocks(a_f)
    assert _canon_values(v_s) == _canon_values(v_f)


def test_null_in_list_routes_row_to_slow_walk(tmp_path):
    """An explicit null inside an array must shred as code N — the raw
    token scan routes that row to the per-document walk and the merged
    output matches the slow path."""
    from noise_ray.build.shred import shred

    docs = [{"_id": "d0", "a": 0}, {"_id": "d1", "b": [None, "alpha"]}]
    out = shred_table_fast([d["_id"] for d in docs],
                           [json.dumps(d) for d in docs], 0)
    assert out is not None and out[2] == [1]
    # slow path shreds the null array element as an N entry
    sd = shred(docs[1], "d1")
    assert any(e.kp == ".b$" and e.code == "N" for e in sd.entries)
    _assert_parity(tmp_path, docs, "null_in_list", expect_fast=True)
