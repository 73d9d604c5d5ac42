"""Cross-engine consistency: the nested engine over flat-shaped JSON docs
must agree with the flat engine EXACTLY — same matched docs, bit-identical
f32 scores.

Both engines claim the same reference semantics (filters §2.3, scorer
§2.4); here they are checked against each other on the same corpus: the
synthetic transcript turns indexed flat (fields role/text/tool) and as
one JSON doc per turn (keypaths .role/.text/.tool).  C/K statistics count
the same things in both (Σ tf per (field, term); instance × distinct-stem
per field), so scores must be f32-equal, not just close.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

QUERIES = [
    'find {text: ~="fox"} order score() desc return score() limit 2000 ;',
    'find {text: ~="quick brown"} order score() desc return score() '
    "limit 2000 ;",
    'find {text: ~3="time work"} order score() desc return score() '
    "limit 2000 ;",
    'find {text: ~="server", text: ~="error"} && !{role: =="system"} '
    "order score() desc return score() limit 2000 ;",
    'find {role: =="assistant", text: ~="pipeline"} order score() desc '
    "return score() limit 2000 ;",
    'find {text: ~="quick"^2 || text: ~="brown"} order score() desc '
    "return score() limit 2000 ;",
    'find {turn_idx: >= 3, turn_idx: < 7} return score() limit 2000 ;',
    # an AND whose clause is an OR of NOTs (itself all-not)
    'find {text: ~="fox"} && ({text: !~="quick"} || {text: !~="brown"}) '
    "return score() limit 2000 ;",
]


@pytest.fixture(scope="module")
def both_indexes(small_transcripts, tmp_path_factory):
    """The flat fixture index + a nested index of the same turns."""
    import json

    from noise_ray.build.json_pipeline import build_json_index

    d = tmp_path_factory.mktemp("cross")
    shards = []
    for i, p in enumerate(sorted(small_transcripts["input"])):
        t = pq.read_table(p)
        ids, texts = [], []
        for row in t.to_pylist():
            doc = {"_id": f"{row['conv_id']}:{row['turn_idx']}",
                   "turn_idx": row["turn_idx"]}
            for f in ("role", "text", "tool"):
                if row[f] is not None:
                    doc[f] = row[f]
            ids.append(doc["_id"])
            texts.append(json.dumps(doc, ensure_ascii=False))
        import pyarrow as pa

        out = str(d / f"docs-{i:02d}.parquet")
        pq.write_table(pa.table({"_id": pa.array(ids),
                                 "json": pa.array(texts)}), out)
        shards.append(out)
    nested_dir = str(d / "nested_idx")
    build_json_index(shards, nested_dir, num_buckets=16)
    return small_transcripts["index"], nested_dir


def test_nested_matches_flat_engine(ray_session, both_indexes):
    from noise_ray.query import IndexReader, run_query
    from noise_ray.query.json_executor import run_json_query
    from noise_ray.query.json_reader import JsonIndexReader

    flat_dir, nested_dir = both_indexes
    flat = IndexReader(flat_dir)
    nested = JsonIndexReader(nested_dir)
    # the flat build sorts by (conv_id, turn_idx); the nested shards were
    # written in file order of the same sort — doc_ids align
    assert flat.num_docs == nested.num_docs

    checked = 0
    for q in QUERIES:
        ft = run_query(flat, q)
        flat_scores = ft.column("score").to_numpy()
        nested_rows = run_json_query(nested, q)
        assert len(nested_rows) == ft.num_rows, q
        nested_scores = np.array([r for r in nested_rows],
                                 dtype=np.float32)
        assert np.array_equal(
            flat_scores.astype(np.float32), nested_scores), q
        checked += ft.num_rows
    assert checked > 100  # the comparison saw real result mass


def test_reader_refuses_the_other_engines_index(both_indexes):
    """Each reader checks the manifest's ``nested`` flag on open and
    names the reader that fits, in both directions."""
    from noise_ray.query import IndexReader
    from noise_ray.query.json_reader import JsonIndexReader

    flat_dir, nested_dir = both_indexes
    with pytest.raises(ValueError, match="nested-JSON index: open it "
                                         "with JsonIndexReader"):
        IndexReader(nested_dir)
    with pytest.raises(ValueError, match="flat index: open it with "
                                         "IndexReader"):
        JsonIndexReader(flat_dir)
