"""Nested-query evaluation: the (seq, arraypath)-granular result type.

``engine.QueryCore`` owns the filter algebra and scorer of both engines;
this module supplies what only the nested engine has.  The flat engine
keeps one row per doc; the reference evaluates per DocResult = (seq,
arraypath) (reference src/query.rs:21-26), with each boolean
operator comparing results truncated/zero-padded to its array context
depth (AndFilter/OrFilter resize, src/filters.rs:727-942).  So here:

- a filter node evaluates to an :class:`InstSet` — unique (doc, arraypath)
  keys in ascending order with per-slot score columns and optional bind
  collections;
- ``resize(depth)`` truncates or zero-pads arraypaths; on truncation the
  FIRST instance of each surviving key keeps its scores/binds, which is
  exactly what the reference's iterator protocol observes (parents always
  consume the first result with a given truncated key; the top-level loop
  then keeps the first result per seq, src/query.rs:479-491);
- and/or intersect/union those key sets, combining scores and binds on
  equal keys (DocResult::combine);
- phrase and proximity postings are keyed by dense instance ordinals, so
  the core's kernels align instances exactly like doc ids;
- Exact, RangeQ and BboxQ read the values partitions; NOT enumerates
  candidates the way NotFilter walks them (src/filters.rs:944-1066): per
  doc, arraypaths (0,..,0,j) for j = 0 and every j below the array length
  at the all-zeros prefix, minus the negated filter's keys — j=0 needs
  only doc existence, j>0 needs the element to exist (is_a_not_match);
  Bind collects each matched instance's value key per doc.

Scores are the core's f32 TF-IDF kernel applied per string instance (the
reference scores each W key instance independently); the final per-doc
score is the first matching instance's, matching the reference's
seq-level dedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from ..analysis.tokenizer import tokenize
from ..build.shred import fill_vkey, parse_kp
from ..nputil import sorted_member_mask
from . import ast
from .engine import F32, QueryCore, _check_double_not, _is_all_not
from .json_reader import InstPostings


@dataclass
class InstSet:
    """Sorted unique (doc, arraypath) keys + aligned score/bind columns."""

    docs: np.ndarray            # int64 (n,)
    aps: np.ndarray             # int64 (n, depth)
    # slot ordinal -> (sum f32, count int32), aligned to rows
    slots: dict = dc_field(default_factory=dict)
    # aligned bind collections: row -> {name: [vkey, ...]} or None
    binds: list | None = None
    # per-row ITERATION rank when it differs from (doc, ap) order — only
    # the bbox filter sets this (the reference's rtree iterator yields
    # bbox order, observable in bind-variable collection order,
    # repl-tests/geojson.noise); bind collection sorts by it
    order: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.docs.size)

    @property
    def depth(self) -> int:
        return int(self.aps.shape[1])

    def keys(self) -> np.ndarray:
        return np.hstack([self.docs[:, None], self.aps])

    def doc_ids(self) -> np.ndarray:
        return np.unique(self.docs)

    def take(self, idx: np.ndarray) -> "InstSet":
        return _gather(self, idx, self.docs[idx], self.aps[idx])


class RowPack:
    """Packs (doc, arraypath) key rows into single int64 scalars so set
    ops run on 1-D arrays (union1d/intersect1d/searchsorted) instead of
    void-view ``np.unique(axis=0)`` argsorts — the profile-dominant cost
    of boolean queries.  Bit allocation follows column order, so packed
    order == lexicographic row order.  Falls back (``ok=False``) when the
    value ranges exceed 63 bits; callers then use the matrix paths."""

    __slots__ = ("ok", "shifts", "widths", "k")

    def __init__(self, mats):
        self.k = mats[0].shape[1] if mats else 0
        maxes = np.zeros(self.k, dtype=np.int64)
        ok = True
        for m in mats:
            if m.shape[0] == 0:
                continue
            if m.min() < 0:
                ok = False
                break
            maxes = np.maximum(maxes, m.max(axis=0))
        if ok:
            widths = [max(int(v).bit_length(), 1) for v in maxes]
            ok = sum(widths) <= 63
        if not ok:
            self.ok = False
            self.shifts = self.widths = None
            return
        self.ok = True
        self.widths = widths
        shifts = []
        acc = sum(widths)
        for w in widths:
            acc -= w
            shifts.append(acc)
        self.shifts = shifts

    def pack(self, mat: np.ndarray) -> np.ndarray:
        out = np.zeros(mat.shape[0], dtype=np.int64)
        for c, sh in enumerate(self.shifts):
            out |= mat[:, c] << np.int64(sh)
        return out

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        out = np.empty((keys.size, self.k), dtype=np.int64)
        for c, (sh, w) in enumerate(zip(self.shifts, self.widths)):
            out[:, c] = (keys >> np.int64(sh)) & np.int64((1 << w) - 1)
        return out


def _rank_rows(mats: list[np.ndarray]):
    """Shared dense ranking of key rows across matrices: returns
    (uniq_rows, [ranks per mat]); ranks are positions into uniq_rows,
    which is lexicographically sorted."""
    pk = RowPack(mats)
    if pk.ok:
        packed = [pk.pack(m) for m in mats]
        uniq = np.unique(np.concatenate(packed)) if mats else \
            np.zeros(0, dtype=np.int64)
        return pk.unpack(uniq), [np.searchsorted(uniq, p) for p in packed]
    allm = np.vstack(mats)
    uniq, inv = np.unique(allm, axis=0, return_inverse=True)
    ranks = []
    off = 0
    for m in mats:
        ranks.append(inv[off: off + m.shape[0]])
        off += m.shape[0]
    return uniq, ranks


def _first_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    if n > 1:
        keep[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return keep


def _gather(s: InstSet, idx: np.ndarray, docs: np.ndarray,
            aps: np.ndarray) -> InstSet:
    out = InstSet(docs, aps)
    for o, (sums, cnts) in s.slots.items():
        out.slots[o] = (sums[idx], cnts[idx])
    if s.binds is not None:
        out.binds = [s.binds[i] for i in idx]
    if s.order is not None:
        out.order = s.order[idx]
    return out


def resized(s: InstSet, depth: int) -> InstSet:
    """arraypath.resize(depth, 0) + first-instance-per-key selection."""
    d = s.depth
    if d == depth:
        return s
    if d < depth:
        aps = np.hstack([s.aps, np.zeros((s.size, depth - d),
                                         dtype=np.int64)])
        return InstSet(s.docs, aps, s.slots, s.binds, s.order)
    aps = np.ascontiguousarray(s.aps[:, :depth])
    keep = _first_occurrence_mask(np.hstack([s.docs[:, None], aps]))
    idx = np.flatnonzero(keep)
    return _gather(s, idx, s.docs[idx], aps[idx])


class LazyVkeys:
    """Deferred bind-vkey list: holds the matched instances' arraypath
    rows (in collection order) and materializes the ``fill_vkey`` strings
    only when iterated — i.e. only for docs that survive order/limit.  A
    bind query matching millions of docs with ``limit 10`` builds 10 docs'
    worth of strings instead of millions, and the distributed path ships
    a small int matrix per doc instead of string lists.  List-like where
    it matters: ``_merge_bind_rows`` iterates (materializing only at the
    rare bind-combine points) and ``RetBind`` iterates at render time."""

    __slots__ = ("kp", "aps", "_mat")

    def __init__(self, kp: str, aps: np.ndarray):
        self.kp = kp
        self.aps = aps
        self._mat = None

    def _materialize(self) -> list[str]:
        if self._mat is None:
            self._mat = [fill_vkey(self.kp, tuple(int(x) for x in row))
                         for row in self.aps]
        return self._mat

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        return int(self.aps.shape[0])

    def __getstate__(self):
        return (self.kp, self.aps)

    def __setstate__(self, st):
        self.kp, self.aps = st
        self._mat = None


def _merge_bind_rows(a: dict | None, b: dict | None) -> dict | None:
    if a is None:
        return b
    if b is None:
        return a
    out = {k: list(v) for k, v in a.items()}
    for k, v in b.items():
        out.setdefault(k, []).extend(v)
    return out


def _union(lr: InstSet, rr: InstSet) -> InstSet:
    """OrFilter::take_smallest with combine on equal keys
    (src/filters.rs:846-912)."""
    uniq, (l_ranks, r_ranks) = _rank_rows([lr.keys(), rr.keys()])
    out = InstSet(uniq[:, 0].copy(), np.ascontiguousarray(uniq[:, 1:]))
    n = uniq.shape[0]
    for src, ranks in ((lr, l_ranks), (rr, r_ranks)):
        for o, (sums, cnts) in src.slots.items():
            osums, ocnts = out.slots.get(o, (None, None))
            if osums is None:
                osums = np.zeros(n, dtype=F32)
                ocnts = np.zeros(n, dtype=np.int32)
                out.slots[o] = (osums, ocnts)
            # same ordinal can only come from ONE side (ordinals are
            # per-leaf), so plain scatter is exact
            osums[ranks] = sums
            ocnts[ranks] = cnts
    if lr.binds is not None or rr.binds is not None:
        binds: list = [None] * n
        for src, ranks in ((lr, l_ranks), (rr, r_ranks)):
            if src.binds is None:
                continue
            for i, rk_ in enumerate(ranks):
                binds[rk_] = _merge_bind_rows(binds[rk_], src.binds[i])
        out.binds = binds
    return out


def _intersect(sets: list[InstSet]) -> InstSet:
    """AndFilter at one depth: keys present in every set; scores/binds
    combined from each side's (first) instance (src/filters.rs:727-807)."""
    uniq, ranks = _rank_rows([s.keys() for s in sets])
    common = ranks[0]
    for r in ranks[1:]:
        common = np.intersect1d(common, r, assume_unique=True)
    docs = uniq[common, 0].copy()
    aps = np.ascontiguousarray(uniq[common, 1:])
    out = InstSet(docs, aps)
    any_binds = any(s.binds is not None for s in sets)
    if any_binds:
        out.binds = [None] * common.size
    for s, r in zip(sets, ranks):
        idx = np.searchsorted(r, common)
        for o, (sums, cnts) in s.slots.items():
            out.slots[o] = (sums[idx], cnts[idx])
        if s.binds is not None:
            for j, i in enumerate(idx):
                out.binds[j] = _merge_bind_rows(out.binds[j], s.binds[i])
    return out


def _ordinalize(pls: list[InstPostings]):
    """Shared (doc, arraypath) → dense ordinal mapping across posting
    lists of the same keypath; returns (lists keyed by ordinal,
    key_matrix) where key_matrix[ordinal] = (doc, *ap) — the core's
    phrase and proximity kernels then align instances like doc ids."""
    mats = [np.hstack([pl.docs[:, None], pl.aps]) for pl in pls]
    uniq, ranks = _rank_rows(mats)
    return [replace(pl, docs=r) for r, pl in zip(ranks, pls)], uniq


class CompiledJsonQuery(QueryCore):
    """The nested engine: ``InstSet`` rows are (doc, arraypath)
    instances, resized to each boolean operator's array depth."""

    @staticmethod
    def _check_not_validity(node: ast.Node):
        # double-not before all-not: error precedence matches the
        # reference (src/query.rs:220-228)
        _check_double_not(node, False)
        if _is_all_not(node):
            raise ValueError(
                "query cannot be made up of only logical not. Must have at "
                "least one match clause not negated.")

    @staticmethod
    def _result(docs: np.ndarray, aps: np.ndarray | None = None) -> InstSet:
        if aps is None:
            aps = np.zeros((docs.size, 0), dtype=np.int64)
        return InstSet(docs, aps)

    _keyed = staticmethod(_ordinalize)
    _resized = staticmethod(resized)
    _intersect = staticmethod(_intersect)
    _union = staticmethod(_union)

    # ------------------------------------------------ value-backed leaves

    def _values(self, kp: str, allowed):
        """The values partitions' rows under ``kp``: for exactly the
        ``allowed`` docs (the candidate pushdown of an AND), else for the
        doc range."""
        if allowed is not None:
            return self.reader.values_kp_for_docs(kp, allowed)
        return self.reader.values_kp(kp, self.doc_range)

    def _eval_exact(self, node: ast.Exact, allowed) -> InstSet:
        terms = [t for _, t in tokenize(node.literal)]
        cand, keymat, _ = self._phrase_candidates(node.field, terms, allowed)
        if allowed is not None:
            cand = cand[sorted_member_mask(allowed, keymat[cand, 0])]
        if cand.size:
            keys = keymat[cand]
            vdocs, vaps, vcodes, _, vstrs, _ = self._values(
                node.field, None if allowed is None else np.unique(keys[:, 0]))
            # restrict the value rows to matching strings FIRST, then a
            # sorted-rank membership test locates the candidates whose
            # stored value equals the literal (the phrase filter already
            # guarantees the value exists and is a string,
            # src/filters.rs:316-339)
            eq = (vcodes == "s") & (np.asarray(vstrs, dtype=object)
                                    == node.literal)
            cand = cand[_rows_in(keys, np.hstack([vdocs[eq][:, None],
                                                  vaps[eq]]))]
        return self._binary(node, self._at(cand, keymat))

    def _eval_range(self, node: ast.RangeQ, allowed) -> InstSet:
        docs, aps, codes, nums, _, _ = self._values(node.field, allowed)
        if node.special is not None:
            mask = codes == {"true": "T", "false": "F", "null": "N"}[
                node.special]
        else:
            mask = codes == "f"
            if node.min is not None:
                m = (nums >= node.min if node.min_inclusive
                     else nums > node.min)
                mask = mask & np.where(np.isnan(nums), False, m)
            if node.max is not None:
                m = (nums <= node.max if node.max_inclusive
                     else nums < node.max)
                mask = mask & np.where(np.isnan(nums), False, m)
        return self._binary(node, InstSet(docs[mask], aps[mask]))

    def _eval_bbox(self, node: ast.BboxQ, allowed) -> InstSet:
        """BboxFilter (src/filters.rs:503-586): stored boxes intersecting
        the query box.  ``order`` records the rtree-iteration rank — the
        rtree column family orders entries by their box, so within a doc
        results stream in bbox order, not arraypath order."""
        if allowed is not None:
            # candidate pushdown from a selective AND sibling: a doc-keyed
            # read beats a space-keyed one when candidates are few
            docs, aps, codes, _nums, _strs, bboxes = \
                self.reader.values_kp_for_docs(node.field, allowed)
            mask = codes == "r"
        else:
            # grid-bucketed read (build/spatial.py): only cells the query
            # box touches are materialized; candidates only, so the exact
            # predicate below still decides
            docs, aps, bboxes = self.reader.bbox_rows(
                node.field, (node.west, node.east, node.south, node.north),
                self.doc_range)
            mask = np.ones(docs.size, dtype=bool)
        if mask.any():
            w, e = bboxes[:, 0], bboxes[:, 1]
            s_, n_ = bboxes[:, 2], bboxes[:, 3]
            mask = mask & (w <= node.east) & (e >= node.west) \
                & (s_ <= node.north) & (n_ >= node.south)
        docs = docs[mask]
        aps = aps[mask]
        bb = bboxes[mask]
        r = InstSet(docs, aps)
        if docs.size:
            # rank within each doc by (west, east, south, north)
            rank = np.lexsort((bb[:, 3], bb[:, 2], bb[:, 1], bb[:, 0],
                               docs))
            order = np.empty(docs.size, dtype=np.int64)
            order[rank] = np.arange(docs.size)
            r.order = order
        return self._binary(node, r)

    # --------------------------------------------------------------- not

    def _eval_not(self, node: ast.Not, allowed) -> InstSet:
        inner = resized(self._eval(node.inner, allowed), node.depth)
        d = node.depth
        if d == 0:
            return self._result(self._complement(inner.docs, allowed))
        docs = self._live(allowed)
        # candidate walk per doc: j = 0 always (doc existence only), plus
        # j in [1, L) where L is the array length at the all-zeros prefix
        # (src/filters.rs:964-993); minus the negated filter's keys with
        # all-zero middle dims.
        ldocs, lens = self.reader.zero_prefix_lengths(
            parse_kp(node.kp), self._clip(self._span_of(allowed)))
        L = np.ones(docs.size, dtype=np.int64)  # j=0 candidate for all
        if ldocs.size:
            # ldocs may contain docs NOT in the universe (tombstoned):
            # scatter only exact hits, or a dead doc's array length lands
            # on whichever live doc sorts next
            pos = np.searchsorted(docs, ldocs)
            ok = pos < docs.size
            ok[ok] = docs[pos[ok]] == ldocs[ok]
            L[pos[ok]] = np.maximum(lens[ok], 1)
        total = int(L.sum())
        cand_docs = np.repeat(docs, L)
        ends = np.cumsum(L)
        cand_j = np.arange(total, dtype=np.int64) - np.repeat(ends - L, L)
        cand_aps = np.zeros((total, d), dtype=np.int64)
        cand_aps[:, d - 1] = cand_j
        if inner.size:
            mid_zero = (np.all(inner.aps[:, : d - 1] == 0, axis=1)
                        if d > 1 else np.ones(inner.size, dtype=bool))
            keep = ~_rows_in(
                np.column_stack([cand_docs, cand_j]),
                np.column_stack([inner.docs[mid_zero],
                                 inner.aps[mid_zero, d - 1]]))
            cand_docs = cand_docs[keep]
            cand_aps = cand_aps[keep]
        return InstSet(cand_docs, cand_aps)

    # -------------------------------------------------------------- bind

    def _eval_bind(self, node: ast.Bind, allowed) -> InstSet:
        inner = self._eval(node.inner, allowed)
        if inner.size == 0:
            return inner
        # one row per doc: the first instance's key/scores; vkeys of ALL
        # the doc's instances collected in order (collect_results,
        # src/filters.rs:1091-1105)
        first = np.empty(inner.size, dtype=bool)
        first[0] = True
        first[1:] = inner.docs[1:] != inner.docs[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, inner.size))
        d = node.depth
        if inner.depth < d:
            ap_mat = np.hstack([
                inner.aps,
                np.zeros((inner.size, d - inner.depth), dtype=np.int64)])
        else:
            ap_mat = inner.aps[:, :d]
        binds: list = []
        for s, c in zip(starts, counts):
            sl = np.arange(s, s + c)
            if inner.order is not None:
                # collect in the inner filter's ITERATION order (bbox
                # results stream in rtree/bbox order, geojson.noise)
                sl = sl[np.argsort(inner.order[sl], kind="stable")]
            row = {node.name: LazyVkeys(node.kp, ap_mat[sl])}
            if inner.binds is not None and inner.binds[s] is not None:
                row = _merge_bind_rows(dict(inner.binds[s]), row)
            binds.append(row)
        idx = starts
        out = _gather(inner, idx, inner.docs[idx], inner.aps[idx])
        out.binds = binds
        return out


def _rows_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row membership of a's rows in b's rows (int64, same width)."""
    if b.shape[0] == 0:
        return np.zeros(a.shape[0], dtype=bool)
    _, (a_ranks, b_ranks) = _rank_rows([a, b])
    return np.isin(a_ranks, np.unique(b_ranks))
