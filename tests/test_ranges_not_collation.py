"""Conformance for range predicates, logical-not semantics, and cross-type
collation, mirroring /root/reference/repl-tests/{ranges,not,collation}.noise
reduced to the flat transcript schema (parquet columns are typed, so the
cross-type order lives in the comparator and aggregate paths, tested
directly against src/json_value.rs:67-123 order)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from noise_ray.build import build_index
from noise_ray.query import IndexReader, run_query
from noise_ray.query.results import cmp_json


@pytest.fixture(scope="module")
def ranges_index(ray_session, tmp_path_factory):
    """ranges.noise docs: A numeric (nullable), B bool (nullable)."""
    d = tmp_path_factory.mktemp("ranges")
    rows = [  # (_id→conv_id, A, B)
        ("one", 12.0, None), ("two", 12.0, None), ("four", -3.0, None),
        ("five", 35.0, None), ("six", None, True), ("seven", None, False),
        ("eight", None, None),
    ]
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([0] * len(rows), pa.int32()),
        "role": pa.array(["r"] * len(rows)),
        "text": pa.array(["fox quick brown"] * len(rows)),
        "tool": pa.array([None] * len(rows), pa.string()),
        "A": pa.array([r[1] for r in rows], pa.float64()),
        "B": pa.array([r[2] for r in rows], pa.bool_()),
        "ts": pa.array(range(len(rows)), pa.timestamp("us")),
    })
    inp = d / "in"
    os.makedirs(inp)
    pq.write_table(t, str(inp / "p0.parquet"))
    build_index([str(inp / "p0.parquet")], str(d / "idx"), num_buckets=4)
    return IndexReader(str(d / "idx"))


def ids(reader, q):
    return run_query(reader, q).column("conv_id").to_pylist()


# ---- ranges.noise numeric comparisons --------------------------------------

def test_eq_number(ranges_index):
    assert sorted(ids(ranges_index, "find {A: ==12};")) == ["one", "two"]


def test_gt(ranges_index):
    assert ids(ranges_index, "find {A: >20};") == ["five"]
    assert sorted(ids(ranges_index, "find {A: >-5};")) == [
        "five", "four", "one", "two"]
    assert ids(ranges_index, "find {A: >35};") == []
    assert ids(ranges_index, "find {A: >=35};") == ["five"]


def test_lt(ranges_index):
    assert ids(ranges_index, "find {A: <-1};") == ["four"]
    assert sorted(ids(ranges_index, "find {A: <=12};")) == [
        "four", "one", "two"]


def test_band(ranges_index):
    assert sorted(ids(ranges_index, "find {A: >0, A: <20};")) == ["one", "two"]


# ---- ranges.noise true/false/null ------------------------------------------

def test_eq_bool_null(ranges_index):
    assert ids(ranges_index, "find {B: ==true};") == ["six"]
    assert ids(ranges_index, "find {B: ==false};") == ["seven"]
    # ==null matches every doc whose B is null
    got = sorted(ids(ranges_index, "find {B: ==null};"))
    assert got == ["eight", "five", "four", "one", "two"]


def test_partition_without_the_column(ray_session, tmp_path):
    """A docmap partition whose schema lacks the field contributes no
    rows, for every special, and the other partitions still answer."""
    from noise_ray.build import add_documents

    def write(name, rows, a_values):
        cols = {
            "conv_id": pa.array(rows),
            "turn_idx": pa.array([0] * len(rows), pa.int32()),
            "role": pa.array(["r"] * len(rows)),
            "text": pa.array(["fox"] * len(rows)),
            "tool": pa.array([None] * len(rows), pa.string()),
        }
        if a_values is not None:
            cols["A"] = pa.array(a_values, pa.float64())
        os.makedirs(tmp_path / name)
        p = str(tmp_path / name / "p.parquet")
        pq.write_table(pa.table(cols), p)
        return p

    idx = str(tmp_path / "idx")
    build_index([write("base", ["a", "b"], None)], idx, num_buckets=4)
    add_documents(idx, [write("delta", ["c", "d"], [5.0, 50.0])])
    reader = IndexReader(idx)
    assert ids(reader, "find {A: >10};") == ["d"]
    assert sorted(ids(reader, "find {A: <=50};")) == ["c", "d"]
    assert ids(reader, "find {A: ==null};") == []
    assert ids(reader, 'find {text: ~="fox", A: <10};') == ["c"]


# ---- not.noise (flat subset) ------------------------------------------------

@pytest.fixture(scope="module")
def not_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("not")
    texts = {"1": "fox", "2": "quick fox", "3": "quick brown fox"}
    t = pa.table({
        "conv_id": pa.array(list(texts)),
        "turn_idx": pa.array([0] * 3, pa.int32()),
        "role": pa.array(["r"] * 3),
        "text": pa.array(list(texts.values())),
        "tool": pa.array([None] * 3, pa.string()),
        "ts": pa.array(range(3), pa.timestamp("us")),
    })
    inp = d / "in"
    os.makedirs(inp)
    pq.write_table(t, str(inp / "p0.parquet"))
    build_index([str(inp / "p0.parquet")], str(d / "idx"), num_buckets=4)
    return IndexReader(str(d / "idx"))


def test_not_forms_agree(not_index):
    """not.noise:33-50 — all three negation spellings give ["1"]."""
    for q in [
        'find {(text: ~="fox" || text: ~="brown") && (text: !~="quick")};',
        'find {(text: ~="fox" || text: ~="brown") && !(text: ~="quick")};',
        'find {text: ~="fox" || text: ~="brown"} && !{text: ~="quick"};',
    ]:
        assert ids(not_index, q) == ["1"], q
    # comma binds the right side only (right-recursive obool,
    # src/parser.rs:732-746): fox OR (brown AND NOT quick) = all three docs
    assert ids(not_index,
               'find {text: ~="fox" || text: ~="brown", text: !~="quick"};'
               ) == ["1", "2", "3"]


def test_all_not_rejected(not_index):
    """src/query.rs:222-228: a query of only negations is an error."""
    with pytest.raises(ValueError, match="at least one full match"):
        run_query(not_index, 'find {text: !~="quick"};')


def test_double_not_rejected(not_index):
    """src/filters.rs:1051-1061: the query parses, the engine refuses a
    ``!`` nested inside another ``!``."""
    with pytest.raises(ValueError, match="nested inside of another"):
        run_query(not_index, 'find {text: ~="fox"} && !({text: !~="quick"});')


# ---- collation.noise: the cross-type total order ---------------------------

def test_collation_total_order():
    """src/json_value.rs:67-123 via the collation.noise golden sequence:
    null < false < true < 1 < 1.00001 < 2.00001 < "string" < "string2" <
    "string3" < [] < [null] < [true] < {} < {bar:bar,foo:baz} <
    {bar:baz,foo:baz} < {foo:bar} < {foo:baz}."""
    seq = [None, False, True, 1.0, 1.00001, 2.00001,
           "string", "string2", "string3",
           [], [None], [True],
           {}, {"bar": "bar", "foo": "baz"}, {"bar": "baz", "foo": "baz"},
           {"foo": "bar"}, {"foo": "baz"}]
    for i in range(len(seq) - 1):
        assert cmp_json(seq[i], seq[i + 1]) == -1, (seq[i], seq[i + 1])
        assert cmp_json(seq[i + 1], seq[i]) == 1
    for v in seq:
        assert cmp_json(v, v) == 0


def test_range_reads_cached_columns(small_transcripts, monkeypatch):
    """A RangeQ reads its column through the reader's docmap-column cache:
    a warm repeat makes no parquet read, and the doc ids (partition
    min_doc + row) equal a scan of the docmap files' doc_id column."""
    import numpy as np

    from noise_ray.query import CompiledQuery, parse_query

    r = IndexReader(small_transcripts["index"])
    assert len(r._docmap) > 1
    q = parse_query("find {turn_idx: >= 3, turn_idx: < 7} ;")
    dm = pa.concat_tables([pq.read_table(d["path"],
                                         columns=["doc_id", "turn_idx"])
                           for d in r._docmap])
    turn = dm.column("turn_idx").to_numpy()
    want = np.sort(dm.column("doc_id").to_numpy()[(turn >= 3) & (turn < 7)])
    first = CompiledQuery(r, q.filter).evaluate().docs
    calls = []
    real = pq.read_table
    monkeypatch.setattr(pq, "read_table",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    again = CompiledQuery(r, q.filter).evaluate().docs
    assert calls == []
    assert want.size and np.array_equal(first, want)
    assert np.array_equal(again, want)
