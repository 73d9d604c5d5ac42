"""Group/aggregate + parameterized-query conformance.

Expected values mirror /root/reference/repl-tests/group.noise and
parameters.noise, with the reference's JSON docs mapped onto the flat
transcript schema: foo→role, baz→text, bar→extra numeric column "bar"
(return paths fetch any docmap column; only role/text/tool are indexed).
Aggregate semantics ported from /root/reference/src/aggregates.rs; the
buffered group merge from src/query.rs:682-764.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from noise_ray.build import build_index
from noise_ray.query import IndexReader, run_query
from noise_ray.query.noise_parser import ParseError


@pytest.fixture(scope="module")
def group_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("group")
    rows = [("1", "group", "a", 1.0), ("2", "group", "b", 2.0),
            ("3", "group", "c", 3.0), ("4", "group", "a", 1.0),
            ("5", "group", "b", 2.0), ("6", "group", "c", 3.0),
            ("7", "group", "a", 1.0), ("8", "group", "b", 2.0),
            ("9", "group", "c", 3.0), ("10", "group", "a", 1.0),
            ("11", "group", "b", 2.0), ("12", "group", "c", 3.0),
            # group.noise doc 13: baz present, bar missing
            ("13", "groupm", "c", None)]
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([0] * len(rows), pa.int32()),
        "role": pa.array([r[1] for r in rows]),
        "text": pa.array([r[2] for r in rows]),
        "tool": pa.array([None] * len(rows), pa.string()),
        "bar": pa.array([r[3] for r in rows], pa.float64()),
        "ts": pa.array(range(len(rows)), pa.timestamp("us")),
    })
    inp = d / "in"
    os.makedirs(inp)
    pq.write_table(t, str(inp / "p0.parquet"))
    build_index([str(inp / "p0.parquet")], str(d / "idx"), num_buckets=4)
    return IndexReader(str(d / "idx"))


def rows(reader, q, params=None):
    return run_query(reader, q, params).to_pylist()


# ---- group.noise:31-97 ----------------------------------------------------

def test_group_sum(group_index):
    assert rows(group_index,
                'find {role: =="group"} return {baz: group(.text), bar: sum(.bar)};') == [
        {"baz": "a", "bar": 4.0}, {"baz": "b", "bar": 8.0},
        {"baz": "c", "bar": 12.0}]


def test_sum_all(group_index):
    assert rows(group_index, 'find {role: =="group"} return {bar: sum(.bar)};') == [
        {"bar": 24.0}]


def test_avg(group_index):
    assert rows(group_index, 'find {role: =="group"} return {bar: avg(.bar)};') == [
        {"bar": 2.0}]


def test_concat_sep(group_index):
    assert rows(group_index,
                'find {role: =="group"} return {baz: group(.text), c: concat(.text sep="|")};') == [
        {"baz": "a", "c": "a|a|a|a"}, {"baz": "b", "c": "b|b|b|b"},
        {"baz": "c", "c": "c|c|c|c"}]


def test_array(group_index):
    assert rows(group_index,
                'find {role: =="group"} return {baz: group(.text), a: array(.text)};') == [
        {"baz": "a", "a": ["a"] * 4}, {"baz": "b", "a": ["b"] * 4},
        {"baz": "c", "a": ["c"] * 4}]


def test_count(group_index):
    assert rows(group_index,
                'find {role: =="group"} return {baz: group(.text), n: count()};') == [
        {"baz": "a", "n": 4.0}, {"baz": "b", "n": 4.0}, {"baz": "c", "n": 4.0}]


def test_max_min_number(group_index):
    assert rows(group_index, 'find {role: =="group"} return {m: max(.bar)};') == [
        {"m": 3.0}]
    assert rows(group_index, 'find {role: =="group"} return {m: min(.bar)};') == [
        {"m": 1.0}]


def test_max_string(group_index):
    assert rows(group_index, 'find {role: =="group"} return {m: max(.text)};') == [
        {"m": "c"}]


# ---- group.noise:94-105: missing field + default --------------------------

def test_max_missing_default_wins(group_index):
    # doc "13" has no bar; default=120 replaces the missing value and wins
    assert rows(group_index,
                'find {role: =="group"} || {role: =="groupm"} '
                'return {m: max(.bar) default=120};') == [{"m": 120.0}]


def test_max_missing_default_loses(group_index):
    assert rows(group_index,
                'find {role: =="group"} || {role: =="groupm"} '
                'return {m: max(.bar) default=1};') == [{"m": 3.0}]


# ---- group.noise:128-146: multi-group asc/desc + limit ---------------------

def test_multi_group_order_limit(group_index):
    got = rows(group_index,
               'find {role: =="group"} '
               'return [group(.text order=asc), group(.bar order=desc), count()];')
    assert got == [{"c0": "a", "c1": 1.0, "c2": 4.0},
                   {"c0": "b", "c1": 2.0, "c2": 4.0},
                   {"c0": "c", "c1": 3.0, "c2": 4.0}]
    got = rows(group_index,
               'find {role: =="group"} '
               'return [group(.text order=asc), count()] limit 2;')
    assert got == [{"c0": "a", "c1": 4.0}, {"c0": "b", "c1": 4.0}]


# ---- validation (src/query.rs:242-290) ------------------------------------

def test_aggregates_exclude_ordering(group_index):
    with pytest.raises(ParseError):
        run_query(group_index,
                  'find {role: =="group"} order .text '
                  'return {n: count()};')


def test_mixed_agg_nonagg_rejected(group_index):
    with pytest.raises(ParseError):
        run_query(group_index,
                  'find {role: =="group"} return {a: .text, n: count()};')


# ---- parameters (repl-tests/parameters.noise, src/query.rs:384-461) --------

def test_param_exact(group_index):
    assert [r["conv_id"] for r in rows(
        group_index, 'find {text: ==@v} return ._id;', {"v": "b"})] == [
        "11", "2", "5", "8"]


def test_param_number_range(group_index):
    got = rows(group_index, 'find {bar: > @n} return {n: count()};', {"n": 2})
    assert got == [{"n": 4.0}]


def test_param_missing_raises(group_index):
    with pytest.raises(ParseError):
        run_query(group_index, 'find {text: ==@nope};', {})


def test_param_compound_rejected(group_index):
    with pytest.raises(ParseError):
        run_query(group_index, 'find {text: ==@v};', {"v": ["a"]})
