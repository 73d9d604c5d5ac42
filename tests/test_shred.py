"""Shredder layout conformance: the reference's shred unit tests
(/root/reference/src/json_shred.rs:579-741) ported against
noise_ray.build.shred's W/V key formatters, plus keypath escaping and
value-key filling (src/key_builder.rs:303-412)."""

import pytest

from noise_ray.build.shred import (
    Entry, ShredError, escape_key, fill_vkey, parse_kp,
    shred, unescape_segment, v_keys, w_keys,
)


def test_shred_nested():
    # src/json_shred.rs:622-651 (test_shred_nested)
    sd = shred({"some": ["array", "data", ["also", "nested"]]}, docid="foo")
    assert w_keys(sd, 123) == [
        ("W._id!foo#123,", [0]),
        ("W.some$!array#123,0", [0]),
        ("W.some$!data#123,1", [0]),
        ("W.some$$!also#123,2,0", [0]),
        ("W.some$$!nest#123,2,1", [0]),
    ]


def test_shred_double_nested():
    # src/json_shred.rs:653-684 (test_shred_double_nested)
    sd = shred({"a": {"a": "b"}}, docid="foo")
    assert v_keys(sd, 123) == [
        ("V123#._id", "foo"),
        ("V123#.a.a", "b"),
    ]


def test_shred_empty_object():
    # src/json_shred.rs:718-741 (test_shred_empty_object)
    sd = shred({}, docid="foo")
    assert w_keys(sd, 123) == [("W._id!foo#123,", [0])]


def test_empty_containers_marked():
    # empty object / empty array markers (src/json_shred.rs:497-504,529-537)
    sd = shred({"o": {}, "a": [], "n": None, "t": True, "f": False,
                "x": 1.5}, docid="d")
    assert v_keys(sd, 7) == [
        ("V7#._id", "d"),
        ("V7#.a", []),
        ("V7#.f", False),
        ("V7#.n", None),
        ("V7#.o", {}),
        ("V7#.t", True),
        ("V7#.x", 1.5),
    ]


def test_root_id_must_be_string():
    with pytest.raises(ShredError):
        shred({"_id": 7})
    # nested _id keys are ordinary fields
    sd = shred({"a": {"_id": 7}}, docid="x")
    assert ("V1#.a._id", 7.0) in v_keys(sd, 1)


def test_escape_roundtrip():
    # delimiters \ $ . ! # are escaped (src/key_builder.rs:384-397)
    for key in ["plain", "do.t", "do$lar", "ba\\ck", "ba!ng", "ha#sh",
                "mix.$!#\\end"]:
        seg = escape_key(key)
        assert unescape_segment(seg) == key
        assert parse_kp(seg + "$.z") == [seg, "$", ".z"]


def test_fill_vkey():
    kp = ".a$.b$"
    assert fill_vkey(kp, (2, 0)) == ".a$2.b$0"


def test_entries_sorted_by_vkey():
    sd = shred({"b": [1, {"z": "q"}], "a": "x"}, docid="i")
    vkeys = [e.vkey for e in sd.entries]
    assert vkeys == sorted(vkeys)
    assert vkeys == ["._id", ".a", ".b$0", ".b$1.z"]


def test_arraypath_depth_matches_kp():
    sd = shred({"m": [[{"k": [True]}]]}, docid="i")
    e = [x for x in sd.entries if x.code == "T"][0]
    assert e.kp == ".m$$.k$"
    assert e.ap == (0, 0, 0)
    assert e.vkey == ".m$0$0.k$0"
