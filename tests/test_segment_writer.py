"""Segment-group invariants for every producer of segment + stats files.

A fresh flat build, a fresh nested build, a merged flat epoch, a merged
nested epoch, a flat split and a nested split must all hold the same
format: block rows ordered by
(field, term, min_doc); stats rows equal to the per-(field, term) sums of
the segment's ``c_block`` / ``cnt``; ``noise_postings`` (in both files)
and ``noise_field_k`` equal to those sums; and the segment schema and
row-group size of a fresh build of the same engine.
"""

import json
import os
import random
import shutil

import pyarrow.parquet as pq
import pytest

from noise_ray.build import add_documents, build_index, merge_epochs
from noise_ray.build.json_pipeline import build_json_index, docs_to_parquet
from noise_ray.build.merge import split_index
from noise_ray.sources import generate_transcripts

WORDS = ("fox dog quick brown lazy river stone cloud amber delta echo "
         "field grain harbor island jungle kettle lemon meadow noble ocean "
         "pepper quartz raven silver timber umbra violet willow yarrow zephyr"
         ).split()


def _nested_docs(n: int, seed: int = 5, prefix: str = "d") -> list[dict]:
    rng = random.Random(seed)
    return [{"_id": f"{prefix}{i:04d}",
             "turns": [{"role": rng.choice(("user", "assistant")),
                        "text": " ".join(rng.choices(WORDS, k=12))}
                       for _ in range(rng.randint(1, 4))]}
            for i in range(n)]


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """name -> (index dir holding segments/ + stats/, fresh build of the
    same engine)."""
    root = tmp_path_factory.mktemp("segwriter")
    flat = str(root / "flat")
    paths = generate_transcripts(str(root / "in0"), num_convs=60,
                                 num_files=3)
    build_index(paths, flat, num_buckets=4)

    live = str(root / "live")
    shutil.copytree(flat, live)
    for ep, seed in ((1, 7), (2, 9)):
        add_documents(live, generate_transcripts(
            str(root / f"in{ep}"), num_convs=30, num_files=2, seed=seed))
    assert merge_epochs(live) is not None
    merged = os.path.join(live, "epochs", "epoch-0001-0002")

    with open(os.path.join(flat, "manifest.json")) as f:
        n = json.load(f)["num_docs"]
    split_index(flat, [str(root / "fa"), str(root / "fb")],
                [0, n // 3, n])

    # one bucket and one-posting blocks: nested segments long enough to
    # span several row groups
    nested = str(root / "nested")
    shard = docs_to_parquet(_nested_docs(400),
                            str(root / "docs-00000.parquet"))
    build_json_index([shard], nested, num_buckets=1, block_size=1)
    split_index(nested, [str(root / "na"), str(root / "nb")])

    nested_live = str(root / "nested_live")
    shutil.copytree(nested, nested_live)
    for ep, seed in ((1, 7), (2, 9)):
        add_documents(nested_live, [docs_to_parquet(
            _nested_docs(150, seed, f"e{ep}-"),
            str(root / f"nested-{ep}.parquet"), docid_base=250 + 150 * ep)])
    assert merge_epochs(nested_live) is not None
    nested_merged = os.path.join(nested_live, "epochs", "epoch-0001-0002")
    return {
        "flat_build": (flat, flat),
        "nested_build": (nested, nested),
        "merged_epoch": (merged, flat),
        "nested_merged_epoch": (nested_merged, nested),
        "flat_split": (str(root / "fa"), flat),
        "nested_split": (str(root / "na"), nested),
    }


def _groups(index_dir: str):
    """(segment path, stats path) per committed group."""
    seg_dir = os.path.join(index_dir, "segments")
    names = sorted(f for f in os.listdir(seg_dir) if f.endswith(".parquet"))
    assert names, index_dir
    return [(os.path.join(seg_dir, f),
             os.path.join(index_dir, "stats",
                          f.replace("seg-", "stats-", 1))) for f in names]


def _row_groups(path: str) -> list[int]:
    md = pq.read_metadata(path)
    return [md.row_group(i).num_rows for i in range(md.num_row_groups)]


def _fresh_layout(fresh_dir: str):
    """The fresh build's segment schema and row-group size (read from a
    segment long enough to span more than one row group)."""
    segs = [s for s, _ in _groups(fresh_dir)]
    multi = [s for s in segs if len(_row_groups(s)) > 1]
    assert multi, "fresh build too small to show its row-group size"
    return (pq.read_schema(segs[0]).remove_metadata(),
            _row_groups(multi[0])[0])


@pytest.mark.parametrize("name", ["flat_build", "nested_build",
                                  "merged_epoch", "nested_merged_epoch",
                                  "flat_split",
                                  "nested_split"])
def test_segment_group_invariants(indexes, name):
    index_dir, fresh_dir = indexes[name]
    schema, rg_size = _fresh_layout(fresh_dir)
    spans_row_groups = False
    for seg_path, stats_path in _groups(index_dir):
        seg = pq.read_table(seg_path)
        keys = list(zip(*(seg.column(c).to_pylist()
                          for c in ("field", "term", "min_doc"))))
        assert keys == sorted(keys), seg_path

        sums: dict = {}
        for (f, t, _), c, k in zip(keys, seg.column("c_block").to_pylist(),
                                   seg.column("cnt").to_pylist()):
            acc = sums.setdefault((f, t), [0, 0])
            acc[0] += c
            acc[1] += k
        st = pq.read_table(stats_path)
        assert list(zip(*(st.column(c).to_pylist()
                          for c in ("field", "term", "c", "k")))) == [
            (f, t, c, k) for (f, t), (c, k) in sorted(sums.items())]

        postings = sum(k for _, k in sums.values())
        field_k: dict = {}
        for (f, _), (_, k) in sums.items():
            field_k[str(f)] = field_k.get(str(f), 0) + k
        seg_md = pq.read_schema(seg_path).metadata or {}
        st_md = pq.read_schema(stats_path).metadata or {}
        assert int(seg_md.get(b"noise_postings", -1)) == postings
        assert int(st_md.get(b"noise_postings", -1)) == postings
        assert json.loads(st_md.get(b"noise_field_k", b"null")) == field_k

        assert seg.schema.remove_metadata() == schema
        rgs = _row_groups(seg_path)
        n = seg.num_rows
        assert rgs == [rg_size] * (n // rg_size) + (
            [n % rg_size] if n % rg_size else []), (seg_path, rgs)
        spans_row_groups |= len(rgs) > 1
    assert spans_row_groups, "no segment spans two row groups"
