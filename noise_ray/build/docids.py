"""Deterministic doc_id assignment.

The reference assigns every document a monotonically increasing u64 seq in
insertion order (/root/reference/src/index.rs:146-155) and all query
iteration / tie-breaking follows that order.  Our distributed equivalent: a
dense ``doc_id`` assigned from the stable sort order of the doc key
(``(conv_id, turn_idx)`` for transcripts), reproducible across runs and
cluster sizes.

The fast path is metadata-only: when the input Parquet files hold
non-overlapping key ranges (the normal layout for curated 100 TB corpora,
and what our synth generator writes), per-file offsets are prefix sums of
footer row counts — no data is read and no shuffle happens.  Files with
overlapping ranges fall back to a global sort (one explicit wide shuffle)
into a re-partitioned copy, after which the fast path applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow.compute as pc
import pyarrow.parquet as pq


@dataclass
class FilePlan:
    path: str
    offset: int  # doc_id of the file's first row (in key order)
    rows: int
    min_key: tuple
    max_key: tuple


def plan_doc_ids(paths: list[str], key_columns: list[str]) -> list[FilePlan]:
    """Metadata-only doc_id planning over sorted, range-partitioned files.

    Reads only Parquet footers.  Raises if file key ranges overlap (caller
    should then re-partition with a global sort first).  Zero-row files
    hold no docs and carry no key statistics, so they get no plan.
    """
    infos = []
    for p in sorted(paths):
        md = pq.read_metadata(p)
        if md.num_rows == 0:
            continue
        mins, maxs = [], []
        for col in key_columns:
            idx = md.schema.names.index(col)
            col_min, col_max = None, None
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None or not st.has_min_max:
                    raise ValueError(f"{p}: no column statistics for {col}")
                col_min = st.min if col_min is None else min(col_min, st.min)
                col_max = st.max if col_max is None else max(col_max, st.max)
            mins.append(col_min)
            maxs.append(col_max)
        infos.append((p, md.num_rows, tuple(mins), tuple(maxs)))

    infos.sort(key=lambda t: t[2])
    plans: list[FilePlan] = []
    offset = 0
    prev_max = None
    for p, rows, mn, mx in infos:
        if prev_max is not None and mn < prev_max:
            raise ValueError(
                f"input files have overlapping {key_columns} ranges "
                f"({mn} < {prev_max}); re-partition with a global sort first"
            )
        plans.append(FilePlan(path=p, offset=offset, rows=rows, min_key=mn, max_key=mx))
        offset += rows
        prev_max = mx
    return plans


def sorted_key_indices(table, key_columns: list[str]):
    """Stable sort indices of ``table`` by ``key_columns`` (ascending)."""
    return pc.sort_indices(
        table, sort_keys=[(c, "ascending") for c in key_columns]
    )
