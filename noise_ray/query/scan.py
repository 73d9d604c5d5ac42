"""Streaming index scan: query -> ``ray.data.Dataset`` of matching docs.

At cluster scale a selective query can still match hundreds of millions of
documents — far beyond what ``run_query`` / ``run_query_distributed``
should ever collect onto the driver.  ``index_scan`` turns a filter-only
query into a streaming Ray Data pipeline instead: the doc space is split
into contiguous doc_id ranges, one map task per range evaluates the query
restricted to its range (the same ``CompiledQuery(doc_range=...)``
machinery and per-worker reader cache as the distributed fan-out,
noise_ray/query/distributed.py) and yields the matching docs' stored
fields as Arrow batches.  Nothing corpus-sized reaches the driver; consume
the Dataset with ``write_parquet`` / ``iter_batches`` / further
``map_batches`` stages.  ``export_matches`` is the one-call
query-to-partitioned-parquet sink (resumable at the file level: each range
writes its own files).

Reference analogue: noise streams every result through its in-process
snapshot iterators (/root/reference/src/query.rs, src/snapshot.rs) — a
full-result export there is a single-node driver loop.  Ray-Data-first,
the export IS a Dataset: backpressure, spilling and parallel writes come
from the streaming executor.

Exactness rests on the same per-doc independence argument as the
distributed fan-out: a filter-only query's matched set restricted to a doc
range equals the global matched set intersected with the range, so the
union over disjoint covering ranges is exactly the global matched set, in
ascending doc order.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from .noise_parser import parse_query, ret_leaves
from .reader import IndexReader
from . import ast

# docs per scan task: large enough that per-task posting-decode setup
# amortizes, small enough that 10^12 docs still give file-granular resume
# and full-cluster parallelism (10^12 / 2^18 ~ 4M tasks)
_DOCS_PER_TASK = 262_144
# rows per emitted Arrow batch: bounds worker heap for wide text columns
_BATCH_ROWS = 65_536


def _validate_scan_query(q) -> None:
    if q.order:
        raise ValueError(
            "index_scan exports the unordered matched set; use "
            "run_query/run_query_distributed for ordered top-k queries")
    if q.limit is not None:
        raise ValueError("index_scan has no limit; it exports every match")
    if any(isinstance(l, ast.RetAgg) for l in ret_leaves(q.returns)):
        raise ValueError(
            "index_scan exports stored doc fields; aggregate return "
            "clauses go through run_query_distributed's partial folds")


def _docmap_schema(reader: IndexReader, columns: list[str] | None):
    full = pq.read_schema(reader._docmap[0]["path"])
    if columns is None:
        columns = list(full.names)
    fields = []
    for c in columns:
        if c == "score":
            fields.append(pa.field("score", pa.float32()))
        elif full.get_field_index(c) < 0:
            raise KeyError(f"column {c!r} not in the doc store "
                           f"(have {full.names})")
        else:
            fields.append(full.field(c))
    return columns, pa.schema(fields)


def _scan_range_batches(batch: pa.Table, *, index_dir: str, qtext: str,
                        params, columns: list[str], schema: pa.Schema,
                        batch_rows: int, with_score: bool):
    """Generator map task: evaluate the query on each (lo, hi) range row
    and stream the matching docs' stored fields out in bounded batches."""
    import numpy as np

    from .distributed import _cached_reader
    from .engine import CompiledQuery

    reader = _cached_reader(index_dir)
    q = parse_query(qtext, params)
    fetch_cols = [c for c in columns if c not in ("doc_id", "score")]
    emitted = False
    for lo, hi in zip(batch.column("lo").to_pylist(),
                      batch.column("hi").to_pylist()):
        cq = CompiledQuery(reader, q.filter, doc_range=(int(lo), int(hi)))
        res = cq.evaluate()
        docs = res.docs
        scores = cq.final_scores(res) if with_score else None
        for s in range(0, int(docs.size), batch_rows):
            sub = docs[s:s + batch_rows]
            t = (reader.fetch_docs(sub, fetch_cols) if fetch_cols
                 else pa.table({"doc_id": pa.array(sub, pa.int64())}))
            out = {}
            for c in columns:
                if c == "score":
                    out[c] = pa.array(
                        np.asarray(scores[s:s + batch_rows], np.float32),
                        pa.float32())
                else:
                    out[c] = t.column(c)
            emitted = True
            yield pa.table(out).cast(schema)
    if not emitted:
        # keep the Dataset schema stable even when no range here matched
        yield schema.empty_table()


def index_scan(index_dir: str, query: str, params: dict | None = None,
               columns: list[str] | None = None, *,
               docs_per_task: int = _DOCS_PER_TASK,
               batch_rows: int = _BATCH_ROWS):
    """Evaluate a filter-only ``query`` and return the full matched set as
    a streaming ``ray.data.Dataset`` of stored doc fields (default: every
    doc-store column).  Rows are ascending by doc_id WITHIN each range
    task; ranges arrive in completion order (the streaming executor does
    not preserve block order) — chain ``.sort("doc_id")`` if a global
    order matters, or leave it off for exports where it doesn't.

    ``columns`` may also name ``"score"`` to export each match's relevance
    score (same f32 TF-IDF as run_query; requires a scoring-capable
    filter).  The result is lazy — chain ``write_parquet`` or more
    ``map_batches`` stages onto it.
    """
    import ray.data

    reader = IndexReader(index_dir)
    q = parse_query(query, params)
    _validate_scan_query(q)
    columns, schema = _docmap_schema(reader, columns)

    ranges = [{"lo": lo, "hi": min(lo + docs_per_task, reader.num_docs)}
              for lo in range(0, reader.num_docs, docs_per_task)]
    if not ranges:
        ranges = [{"lo": 0, "hi": 0}]
    ds = ray.data.from_items(ranges, override_num_blocks=len(ranges))
    return ds.map_batches(
        _scan_range_batches,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={
            "index_dir": index_dir,
            "qtext": query,
            "params": params,
            "columns": columns,
            "schema": schema,
            "batch_rows": batch_rows,
            "with_score": "score" in columns,
        },
    )


def export_matches(index_dir: str, query: str, out_dir: str,
                   params: dict | None = None,
                   columns: list[str] | None = None, **scan_kw) -> int:
    """Run ``query`` and write every matching doc's stored fields to
    partitioned Parquet under ``out_dir`` (one file per output block, so a
    re-run after failure only redoes unfinished ranges' files).  Returns
    the number of exported rows."""
    ds = index_scan(index_dir, query, params, columns, **scan_kw)
    ds.write_parquet(out_dir)
    total = 0
    for p in _parquet_files(out_dir):
        total += pq.read_metadata(p).num_rows
    return total


def _parquet_files(out_dir: str) -> list[str]:
    import glob
    import os

    return sorted(glob.glob(os.path.join(out_dir, "*.parquet")))


# ------------------------------------------------------- nested engine

_JSON_SCAN_SCHEMA = pa.schema([("_id", pa.string()), ("doc", pa.string())])


def _json_scan_range_batches(batch: pa.Table, *, index_dir: str,
                             qtext: str, params, batch_rows: int):
    from .distributed import _cached_reader
    from .json_engine import CompiledJsonQuery
    from .json_reader import JsonIndexReader
    from .noise_parser import parse_noise_query

    reader = _cached_reader(index_dir, JsonIndexReader)
    q = parse_noise_query(qtext, params)
    emitted = False
    for lo, hi in zip(batch.column("lo").to_pylist(),
                      batch.column("hi").to_pylist()):
        cq = CompiledJsonQuery(reader, q.filter, doc_range=(int(lo), int(hi)))
        docs = cq.evaluate().docs
        for s in range(0, int(docs.size), batch_rows):
            sub = docs[s:s + batch_rows]
            emitted = True
            yield pa.table({
                "_id": pa.array(reader.doc_id_strs(sub), pa.string()),
                "doc": pa.array(reader.doc_json(sub), pa.string()),
            })
    if not emitted:
        yield _JSON_SCAN_SCHEMA.empty_table()


def json_index_scan(index_dir: str, query: str,
                    params: dict | None = None, *,
                    docs_per_task: int = _DOCS_PER_TASK,
                    batch_rows: int = _BATCH_ROWS):
    """Nested-engine twin of ``index_scan``: evaluate a filter-only noise
    query and return every matching document as a streaming
    ``ray.data.Dataset`` of ``(_id, doc)`` rows, ``doc`` being the stored
    raw JSON string (the whole-doc fetch behind the reference's bare
    ``find`` result stream).  Same range-task structure, per-worker
    cached readers and completion-order caveat as the flat scan."""
    import ray.data

    from .json_reader import JsonIndexReader
    from .noise_parser import parse_noise_query

    q = parse_noise_query(query, params)
    if q.order or q.limit is not None:
        raise ValueError(
            "json_index_scan exports the unordered matched set; use "
            "run_json_query for ordered top-k queries")
    if any(isinstance(l, ast.RetAgg) for l in ret_leaves(q.returns)):
        raise ValueError("json_index_scan exports whole docs; aggregate "
                         "return clauses go through run_json_query")
    # validate on the driver so an all-not query raises the reference's
    # plain error, not a RayTaskError from every range task
    from .json_engine import _check_double_not, _is_all_not

    _check_double_not(q.filter, False)
    if _is_all_not(q.filter):
        raise ValueError(
            "query cannot be made up of only logical not. Must have "
            "at least one match clause not negated.")

    reader = JsonIndexReader(index_dir)
    ranges = [{"lo": lo, "hi": min(lo + docs_per_task, reader.num_docs)}
              for lo in range(0, reader.num_docs, docs_per_task)]
    if not ranges:
        ranges = [{"lo": 0, "hi": 0}]
    ds = ray.data.from_items(ranges, override_num_blocks=len(ranges))
    return ds.map_batches(
        _json_scan_range_batches,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={
            "index_dir": index_dir,
            "qtext": query,
            "params": params,
            "batch_rows": batch_rows,
        },
    )
