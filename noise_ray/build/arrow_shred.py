"""Vectorized Arrow-native shredding for homogeneous document shards.

The per-document Python shredder (build/shred.py) walks every parsed
JSON value and appends one Entry per scalar — at index-build scale that
walk plus the per-entry list appends is ~60% of ShredTokenize CPU
(BASELINE.md's stage audit).  Most real corpora are *homogeneous*: every
document in a shard has the same shape (the transcript corpus is
``{_id, turns: [{i, role, text, tool}]}`` throughout).  For those shards
the whole file can be parsed ONCE by ``pyarrow.json.read_json`` (a C++
NDJSON parser) and shredded column-wise: each leaf of the inferred
schema IS one keypath, its doc ids come from ``np.repeat`` over list
offsets and its arraypaths from vectorized arange arithmetic — no
per-document Python at all.

The fast path REFUSES (returns None) whenever column-wise semantics
could diverge from the reference shredder, and the caller falls back to
the per-document walk:

- any ``type`` / ``coordinates`` key (the GeoJSON bbox state machine,
  src/json_shred.rs:55-61, is event-ordered and stays in the slow path),
- any inferred type outside {struct, list, string, int, double, bool}
  (pyarrow.json infers timestamps from ISO-looking strings; re-rendering
  them is lossy, so temporal columns bail),
- a parse error (heterogeneous types across documents, giant ints, …).

Nulls are handled with a PER-ROW split (round 4; real corpora are full
of optional keys): a raw-token scan routes every document whose text
contains the substring ``null`` (conservative superset of documents
with an explicit JSON ``null``, which must shred as code ``N``) to the
per-document walk, and the rest shred column-wise with Arrow nulls
dropped at every level — for those rows an Arrow null can ONLY mean an
absent key (emit nothing), never an explicit null.  ``shred_table_fast``
returns the slow-routed row indices alongside the fast outputs and the
caller (json_pipeline.ShredTokenize) merges the two shreds.

Output is exactly what ShredTokenize builds row-by-row: the values
partition table (same schema, same per-kp zone maps, doc-sorted row
groups so doc_id filter pushdown keeps working).  Its string rows are
the posting input: ShredTokenize tokenizes them with the rest of the
batch's string instances and hands the tokens to the posting kernel it
shares with the flat build (``pipeline.group_postings``).
"""

from __future__ import annotations

import io

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj

from .shred import escape_key

_ALLOWED_LEAVES = (
    pa.types.is_string, pa.types.is_large_string,
    pa.types.is_integer, pa.types.is_floating, pa.types.is_boolean,
)


class _Bail(Exception):
    """Shape not expressible column-wise — use the per-doc shredder."""


def _leaf_kind(t: pa.DataType) -> str:
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "s"
    if pa.types.is_boolean(t):
        return "b"
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return "f"
    raise _Bail(f"unsupported leaf type {t}")


class _Chunks:
    """Accumulates per-keypath shredded column chunks."""

    def __init__(self):
        # (kp, docs int64[n], ap int64[n, depth], code str | codes arr,
        #  nums float64[n] | None, strs pa.Array | None)
        self.values: list[tuple] = []

    def n_rows(self) -> int:
        return sum(len(c[1]) for c in self.values)


def _walk(arr: pa.Array, kp: str, docs: np.ndarray, ap: np.ndarray,
          out: _Chunks, is_root_id: bool = False):
    t = arr.type
    if pa.types.is_null(t):
        return  # key absent in every fast row (all-null inferred column)
    if arr.null_count:
        # the caller routed every explicit-JSON-null document to the
        # per-doc walk, so a null here can only be an absent key (or an
        # absent ancestor): emit nothing for those rows
        valid = np.asarray(arr.is_valid())
        arr = arr.filter(pa.array(valid))
        docs, ap = docs[valid], ap[valid]
    if pa.types.is_struct(t):
        if t.num_fields == 0:
            if len(docs):
                out.values.append((kp, docs, ap, "o", None, None))
            return
        # rows where the struct is PRESENT but every (non-_id) field is
        # absent are literal ``{}`` — explicit nulls were routed to the
        # per-doc walk, so all-null ⇔ empty object — and must emit the
        # reference's empty-object marker.  The root is exempt: a bare
        # ``{}`` document shreds to its _id entry alone.
        if not is_root_id and len(docs):
            absent = np.ones(len(arr), bool)
            for i in range(t.num_fields):
                absent &= np.asarray(arr.field(i).is_null())
            if absent.any():
                out.values.append((kp, docs[absent], ap[absent],
                                   "o", None, None))
        for i in range(t.num_fields):
            name = t.field(i).name
            if is_root_id and name == "_id":
                continue  # root _id is emitted from the id column
            if name in ("type", "coordinates"):
                raise _Bail("possible GeoJSON geometry")
            _walk(arr.field(i), kp + escape_key(name), docs, ap, out)
        return
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        offsets = arr.offsets.to_numpy().astype(np.int64)
        counts = np.diff(offsets)
        empty = counts == 0
        if empty.any():
            out.values.append((kp, docs[empty], ap[empty], "a",
                               None, None))
        total = int(counts.sum())
        if total == 0:
            # every list at this kp is empty (child type is null) —
            # the "a" markers above are the whole story
            return
        child_docs = np.repeat(docs, counts)
        ends = np.cumsum(counts)
        idx = np.arange(total, dtype=np.int64) - np.repeat(
            ends - counts, counts)
        child_ap = np.concatenate(
            [np.repeat(ap, counts, axis=0), idx[:, None]], axis=1)
        _walk(arr.flatten(), kp + "$", child_docs, child_ap, out)
        return
    kind = _leaf_kind(t)
    if not len(docs):
        return
    if kind == "s":
        s = arr.cast(pa.string()) if pa.types.is_large_string(t) else arr
        out.values.append((kp, docs, ap, "s", None, s))
    elif kind == "f":
        nums = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        out.values.append((kp, docs, ap, "f", nums, None))
    else:  # bool → per-row T/F codes
        vals = arr.to_numpy(zero_copy_only=False)
        codes = np.where(vals, "T", "F").astype(object)
        out.values.append((kp, docs, ap, codes, None, None))


def _ap_list_array(ap: np.ndarray) -> pa.Array:
    n, depth = ap.shape
    if depth == 0:
        offsets = pa.array(np.zeros(n + 1, dtype=np.int32))
    else:
        offsets = pa.array(
            np.arange(0, (n + 1) * depth, depth, dtype=np.int32))
    return pa.ListArray.from_arrays(
        offsets, pa.array(ap.ravel(), pa.int64()))


def shred_table_fast(ids: list[str], texts: list[str], offset: int):
    """Shred a (mostly) homogeneous shard column-wise.

    Returns ``(values_table, zones_meta, slow_rows)`` or None when the
    whole shard needs the per-document shredder.  ``values_table`` has
    the exact ShredTokenize values schema (doc-sorted) covering the FAST
    rows only — its code ``s`` rows are the string instances the posting
    kernel tokenizes; ``zones_meta`` their per-kp zone dicts;
    ``slow_rows`` the original
    row indices the caller must run through the per-document walk
    (documents whose raw text contains the token ``null`` — explicit
    JSON nulls shred as code ``N``, which has no column-wise form).
    """
    if len(texts) == 0:
        return None
    # conservative raw scan: any doc that MIGHT hold an explicit JSON
    # null goes to the per-doc walk; the rest can treat Arrow nulls as
    # absent keys.  Substring (not token) match: false positives only
    # cost the slow walk for that row, never correctness.
    slow_rows = [i for i, s in enumerate(texts) if "null" in s]
    if len(slow_rows) == len(texts):
        return None
    if slow_rows:
        slow_set = set(slow_rows)
        fast_idx = np.array([i for i in range(len(texts))
                             if i not in slow_set], dtype=np.int64)
        ids = [ids[i] for i in fast_idx]
        texts = [texts[i] for i in fast_idx]
    else:
        fast_idx = np.arange(len(texts), dtype=np.int64)
    n = len(texts)
    buf = ("\n".join(texts)).encode("utf-8")
    try:
        table = pj.read_json(
            io.BytesIO(buf),
            read_options=pj.ReadOptions(
                block_size=min(len(buf) + 1, 1 << 30)),
        )
    except pa.ArrowInvalid:
        return None
    if table.num_rows != n:
        return None
    docs = offset + fast_idx
    ap0 = np.zeros((n, 0), dtype=np.int64)
    out = _Chunks()
    try:
        root = pa.StructArray.from_arrays(
            [c.combine_chunks() for c in table.columns],
            names=table.schema.names)
        _walk(root, "", docs, ap0, out, is_root_id=True)
    except _Bail:
        return None
    except pa.ArrowInvalid:
        return None
    except pa.lib.ArrowIndexError:
        # pyarrow edge: combine_chunks on some json-parsed list columns
        # with nulls raises "array slice would exceed array length" —
        # the per-document shredder handles these shards
        return None
    # root _id entries: prefer the embedded _id when parsed (it equals
    # the id column for shards written by docs_to_parquet), else the
    # supplied per-row id — matching shred()'s the_id fallback
    if "_id" in table.schema.names:
        id_col = table.column("_id").combine_chunks()
        if id_col.null_count or not pa.types.is_string(id_col.type):
            return None
        id_arr = id_col
    else:
        id_arr = pa.array(ids, pa.string())
    out.values.append(("._id", docs, ap0, "s", None, id_arr))

    # ---------------------------------------------- values table + zones
    zones: dict[str, dict] = {}
    parts = []
    part_kps = []
    for kp, c_docs, c_ap, code, nums, strs in out.values:
        m = len(c_docs)
        z = zones.setdefault(kp, {"n": 0, "codes": set()})
        z["n"] += m
        if isinstance(code, str):
            code_arr = pa.DictionaryArray.from_arrays(
                pa.array(np.zeros(m, dtype=np.int32)),
                pa.array([code], pa.string()))
            z["codes"].add(code)
        else:
            code_arr = pc.dictionary_encode(pa.array(code, pa.string()))
            z["codes"].update(np.unique(code).tolist())
        if nums is not None and m:
            z["fmin"] = min(z.get("fmin", nums[0]), float(nums.min()))
            z["fmax"] = max(z.get("fmax", nums[0]), float(nums.max()))
        kp_arr = pa.DictionaryArray.from_arrays(
            pa.array(np.zeros(m, dtype=np.int32)),
            pa.array([kp], pa.string()))
        part_kps.append(kp)
        parts.append(pa.table({
            "doc_id": pa.array(c_docs, pa.int64()),
            "kp": kp_arr,
            "ap": _ap_list_array(c_ap),
            "code": code_arr,
            "num": (pa.array(nums, pa.float64()) if nums is not None
                    else pa.nulls(m, pa.float64())),
            "str": (strs if strs is not None
                    else pa.nulls(m, pa.string())),
            "bbox": pa.nulls(m, pa.list_(pa.float64())),
        }))
    # (kp, doc)-sorted row groups: every values read filters on kp, so a
    # kp-contiguous layout lets parquet row-group stats prune the other
    # keypaths' groups; docs stay ascending within each kp run, so the
    # doc_id range filters of values_kp_for_docs keep their stats too.
    # Each per-kp part is already doc-ascending (column-wise walk order),
    # so this is just a part reorder — cheaper than the old global take.
    parts = [p for _, p in sorted(zip(part_kps, parts), key=lambda x: x[0])]
    vt = pa.concat_tables(parts, promote_options="default")
    zmeta = {kp: {**{k: v for k, v in z.items() if k != "codes"},
                  "codes": sorted(z["codes"])}
             for kp, z in zones.items()}
    return vt, zmeta, slow_rows
