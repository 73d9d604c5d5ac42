"""Flagship pipelines: transcript + documents full-text indexes.

The transcript corpus is synthesized deterministically per scale factor
(BASELINE.json input_hint: no transcript table ships in the testdata, so we
generate the exact required shape, seeded).  Indexes are built once per
(sf_dir, corpus) into a content-addressed /tmp cache and reused across
``queries()`` calls.
"""

from __future__ import annotations

import os
import re
import threading

from ..build import build_index
from ..query import IndexReader
from ..sources import generate_transcripts

_CACHE_ROOT = os.environ.get("NOISE_RAY_CACHE", "/tmp/noise_ray_cache")
_LOCK = threading.Lock()
_READERS: dict[str, IndexReader] = {}


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.01


def corpus_at(num_convs: int) -> list[str]:
    """Deterministic synthetic transcript corpus with ``num_convs``
    conversations (cached under /tmp, shared across processes)."""
    # enough files that ingest/tokenize tasks can use every core (one task
    # per file); v2 = per-conversation-seeded generator
    num_files = max(16, min(512, num_convs // 500))
    out = os.path.join(_CACHE_ROOT, f"transcripts-v2-{num_convs}-{num_files}")
    marker = os.path.join(out, ".done")
    with _LOCK:
        if not os.path.exists(marker):
            paths = generate_transcripts(
                out, num_convs=num_convs, seed=42, num_files=num_files)
            with open(marker, "w") as f:
                f.write("\n".join(paths))
    with open(marker) as f:
        return f.read().splitlines()


def transcripts_corpus(sf_dir: str) -> list[str]:
    """Deterministic synthetic transcripts sized to the scale factor."""
    return corpus_at(max(48, int(_sf_of(sf_dir) * 200_000)))


def transcripts_index(sf_dir: str) -> IndexReader:
    paths = transcripts_corpus(sf_dir)
    # -v3: segment blocks carry BM25 (max_tf, min_len) skip bounds; older
    # cached indexes lack them (readers fall back to exhaustive BM25)
    idx_dir = os.path.join(os.path.dirname(paths[0]), "index-v3")
    return _build_cached(
        paths, idx_dir,
        fields=("role", "text", "tool"),
        key_columns=("conv_id", "turn_idx"),
    )


def documents_index(sf_dir: str) -> IndexReader:
    """Index the provided documents table (fields text/lang/source;
    key = the existing dense doc_id)."""
    sf = _sf_of(sf_dir)
    idx_dir = os.path.join(_CACHE_ROOT, f"documents-{sf}-v3")
    return _build_cached(
        [f"{sf_dir}/documents.parquet"], idx_dir,
        fields=("text", "lang", "source"),
        key_columns=("doc_id",),
    )


def _build_cached(paths, idx_dir, *, fields, key_columns) -> IndexReader:
    with _LOCK:
        reader = _READERS.get(idx_dir)
        if reader is not None:
            return reader
        if not os.path.exists(os.path.join(idx_dir, "manifest.json")):
            build_index(list(paths), idx_dir, fields=fields,
                        key_columns=key_columns,
                        num_buckets=32)
        reader = IndexReader(idx_dir)
        _READERS[idx_dir] = reader
        return reader
