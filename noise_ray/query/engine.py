"""Compiled-query evaluation with exact (float32) reference score parity.

``QueryCore`` is the one filter algebra and scorer of both engines.  The
flat ``CompiledQuery`` (below: one result row per doc) and the nested
``CompiledJsonQuery`` (json_engine.py: one row per (doc, arraypath)
instance) supply only their result type and the leaves that differ.

Scoring replicates the reference's TF-IDF operation for operation:

- scorer init/idf:        /root/reference/src/snapshot.rs:132-151
  ``idf = 1 + ln(K / (C + 1))`` in f32, where C is the merge-summed total
  occurrence count of the term under the keypath and K the field's total
  (instance × distinct-stem) count.
- per-match score:        /root/reference/src/snapshot.rs:169-183
  ``idf² · sqrt(tf) · (1/sqrt(field_len)) · boost`` in f32.
- query norm + final:     /root/reference/src/query.rs:348-361, 463-477
  ``query_norm = 1/Σ idf²``;
  ``score = query_norm · Σ_slot (sum/count) · matched / num_slots``.

Slot bookkeeping mirrors ``DocResult.scores`` (src/query.rs:60-66): each
scoring leaf gets an ordinal in prepare (DFS) order; phrase/proximity give
one slot per word but only the "base" filter's slot receives contributions
(StemmedPhraseFilter keeps only filters[0]'s DocResult,
src/filters.rs:175-272; DistanceFilter keeps whichever filter last became
base, src/filters.rs:588-726 — replicated sequentially below).

Evaluation is vectorized: posting lists are numpy arrays and and/or/not
are sorted-array set operations.  An AND evaluates its selective clauses
first and pushes the shrinking set of candidate docs (``allowed``) into
the rest — the vectorized form of AndFilter's leapfrog.  Only the
proximity filter runs the reference's stateful leapfrog literally: its
result stream depends on iterator state carried from one doc to the next,
so it always runs from doc 0 and keeps the keys of its range.

``doc_range=(lo, hi)`` restricts evaluation to that doc_id interval —
exact under range partitioning (the basis of the distributed query
fan-out and of ``index_scan`` ranges).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..analysis.tokenizer import tokenize
from ..nputil import sorted_member_mask
from . import ast
from .reader import _empty_postings

F32 = np.float32
_NO_DOCS = np.zeros(0, dtype=np.int64)


@dataclass
class _Slot:
    ordinal: int
    idf: F32  # may be -inf; NaN disables scoring (uninitialized scorer)
    boost: float


@dataclass
class EvalResult:
    docs: np.ndarray  # int64 ascending
    # slot ordinal -> (sum f32 aligned to docs, count int32 aligned to docs)
    slots: dict[int, tuple[np.ndarray, np.ndarray]] = dc_field(default_factory=dict)

    def doc_ids(self) -> np.ndarray:
        return self.docs

    def take(self, idx: np.ndarray) -> "EvalResult":
        return EvalResult(self.docs[idx], {o: (s[idx], c[idx])
                                           for o, (s, c) in self.slots.items()})


# node type -> evaluator method; a subclass without the method cannot
# evaluate that node (the flat engine has no BboxQ or Bind)
_EVALUATORS = {
    ast.Term: "_eval_term", ast.Phrase: "_eval_phrase",
    ast.Proximity: "_eval_proximity", ast.Exact: "_eval_exact",
    ast.RangeQ: "_eval_range", ast.BboxQ: "_eval_bbox",
    ast.AllDocs: "_eval_all", ast.Boost: "_eval_boost", ast.And: "_eval_and",
    ast.Or: "_eval_or", ast.Not: "_eval_not", ast.Bind: "_eval_bind",
}


class QueryCore:
    """What both engines share: slot preparation and the query norm, idf
    and the f32 term scorer, postings reads under the doc range, the doc
    universe and tombstone dropping, the Term / Phrase / Proximity /
    AllDocs / Boost leaves, the one AND and OR, and ``final_scores``.

    A subclass supplies its result type — ``_result``, ``_keyed``,
    ``_intersect``, ``_union`` and ``_resized`` — plus the not-check, the
    Exact, RangeQ and Not leaves and, nested only, BboxQ and Bind.  A
    result has ascending ``docs``, ``slots``, ``take(idx)`` and
    ``doc_ids()``."""

    _LEAVES = (ast.Term, ast.Phrase, ast.Proximity, ast.Exact, ast.RangeQ,
               ast.BboxQ)

    def __init__(self, reader, node: ast.Node,
                 doc_range: tuple[int, int] | None = None):
        self.reader = reader
        self.node = node
        self.doc_range = doc_range
        self.num_slots = 0
        self.sum_idf_sq = F32(0.0)
        self._prepare(node)
        if self.num_slots > 0:
            with np.errstate(divide="ignore"):
                self.query_norm = F32(1.0) / self.sum_idf_sq
        else:
            self.query_norm = F32(0.0)

    # -------------------------------------------------- prepare (slots)

    def _new_slot(self, idf: F32, boost: float) -> _Slot:
        s = _Slot(self.num_slots, idf, boost)
        self.num_slots += 1
        self.sum_idf_sq = F32(self.sum_idf_sq + F32(idf * idf))
        return s

    def _idf(self, field: str, term: str) -> F32:
        c, k = self.reader.term_stats(field, term)
        with np.errstate(divide="ignore"):
            return F32(F32(1.0) + np.log(F32(k) / (F32(c) + F32(1.0))))

    def _prepare(self, node: ast.Node):
        """DFS ordinal assignment, mirroring prepare_relevancy_scoring."""
        if isinstance(node, ast.Term):
            node._slot = self._new_slot(
                self._idf(node.field, _stem_one(node.word)), node.boost)
        elif isinstance(node, (ast.Phrase, ast.Proximity)):
            node._terms = [t for _, t in tokenize(node.text)]
            node._slots = [
                self._new_slot(self._idf(node.field, t), node.boost)
                for t in node._terms
            ]
        elif isinstance(node, (ast.Exact, ast.RangeQ, ast.BboxQ)):
            # binary-scored: ordinal with idf contribution 1.0
            # (src/filters.rs:363-368, 487-492); inner word scorers stay
            # uninitialized
            node._slot = self._new_slot(F32(1.0), 1.0)
        elif isinstance(node, ast.AllDocs):
            self._new_slot(F32(1.0), 1.0)  # src/filters.rs:66-70
        elif isinstance(node, ast.And):
            for c in node.clauses:
                self._prepare(c)
        elif isinstance(node, ast.Or):
            self._prepare(node.left)
            self._prepare(node.right)
        elif isinstance(node, ast.Not):
            pass  # NotFilter.prepare_relevancy_scoring is a no-op
        elif isinstance(node, (ast.Boost, ast.Bind)):
            self._prepare(node.inner)
        else:
            raise TypeError(f"unknown node {node!r}")

    # ------------------------------------------------------- evaluation

    def evaluate(self):
        self._check_not_validity(self.node)
        return self._resized(self._eval(self.node), 0)

    def _eval(self, node: ast.Node, allowed: np.ndarray | None = None):
        """``allowed`` is a sorted array of LIVE doc ids that the result
        will be intersected with at doc level by an enclosing AND — a
        pure pruning hint.  Restricting any subtree to a doc SUPERSET of
        the final intersection is exact (scores and binds of surviving
        rows are computed from their own postings/values either way), so
        the selective side of an AND evaluates first and the unselective
        side only touches the candidates' doc span."""
        name = _EVALUATORS.get(type(node))
        if name is None or not hasattr(self, name):
            raise TypeError(f"unknown node {node!r}")
        r = getattr(self, name)(node, allowed)
        if isinstance(node, self._LEAVES):
            r = self._drop_dead(r)
        return r

    @staticmethod
    def _keep(r, mask: np.ndarray):
        return r if mask.all() else r.take(np.flatnonzero(mask))

    def _drop_dead(self, r):
        """Filter tombstoned docs out of a leaf result (rows stay
        aligned).  Compositions inherit the exclusion because every leaf
        and the universe exclude them."""
        t = self.reader.tombstones
        if t.size == 0 or r.docs.size == 0:
            return r
        return self._keep(r, ~sorted_member_mask(t, r.docs))

    def _restrict(self, r, allowed: np.ndarray | None):
        if allowed is None or r.docs.size == 0:
            return r
        return self._keep(r, sorted_member_mask(allowed, r.docs))

    @staticmethod
    def _span_of(allowed: np.ndarray | None):
        if allowed is None:
            return None
        if allowed.size == 0:
            return (0, 0)
        return (int(allowed[0]), int(allowed[-1]) + 1)

    def _clip(self, span: tuple[int, int] | None):
        """The compiled doc_range narrowed to ``span``; None = every doc."""
        rng = self.doc_range
        if span is not None:
            rng = span if rng is None else (max(rng[0], span[0]),
                                            min(rng[1], span[1]))
        return rng

    def _postings(self, field: str, term: str, need_positions: bool = True,
                  span: tuple[int, int] | None = None):
        """Postings under the doc range, narrowed to ``span`` (the
        candidate span of an enclosing AND).  Block bounds push into the
        segment read, then the decoded list is sliced exactly — a range
        worker never decodes another range's postings."""
        return self._read(field, term, need_positions, self._clip(span))

    def _read(self, field, term, need_positions, rng):
        if rng is not None and rng[0] >= rng[1]:
            return _empty_postings(
                self.reader._aps_depth(self.reader._field_key(field)))
        pl = self.reader.postings(field, term, need_positions, rng)
        return pl if rng is None else pl.slice_range(*rng)

    def _complement(self, inner: np.ndarray,
                    allowed: np.ndarray | None = None) -> np.ndarray:
        """NotFilter at doc granularity (src/filters.rs:944-1066): the
        live docs of ``allowed``, or of the doc range, that are not in the
        ascending ``inner``.  Over the range it is a boolean mask — O(N)
        with no sort and no arange+setdiff materialization (at 10^7+ docs
        the sort-based set difference dominated whole queries)."""
        if allowed is not None:
            return allowed[~sorted_member_mask(inner, allowed)]
        lo, hi = self.doc_range or (0, self.reader.num_docs)
        mask = np.ones(hi - lo, dtype=bool)
        mask[inner - lo] = False
        t = self.reader.tombstones
        mask[t[(t >= lo) & (t < hi)] - lo] = False
        return np.flatnonzero(mask) + lo

    def _live(self, allowed: np.ndarray | None) -> np.ndarray:
        return allowed if allowed is not None else self._complement(_NO_DOCS)

    def _term_scores(self, tfs: np.ndarray, lens: np.ndarray,
                     slot: _Slot) -> np.ndarray:
        """Vectorized add_match_score over postings (f32)."""
        tf = np.sqrt(tfs.astype(F32))
        norm = F32(1.0) / np.sqrt(lens.astype(F32))
        return ((slot.idf * slot.idf) * tf * norm * F32(slot.boost)).astype(F32)

    @staticmethod
    def _binary(node, r):
        """Score 1 in the slot of a binary-scored leaf (Exact, RangeQ,
        BboxQ); unscored inside a Not."""
        slot = getattr(node, "_slot", None)
        if slot is not None:
            r.slots[slot.ordinal] = (np.ones(r.docs.size, dtype=F32),
                                     np.ones(r.docs.size, dtype=np.int32))
        return r

    def _at(self, keys: np.ndarray, keymat: np.ndarray | None):
        """Unscored rows for ``keys`` of ``_keyed`` lists: the keys are
        the docs (``keymat`` None) or index (doc, *arraypath) rows."""
        if keymat is None:
            return self._result(keys)
        rows = keymat[keys]
        return self._result(rows[:, 0].copy(), np.ascontiguousarray(rows[:, 1:]))

    # ----------------------------------------------------------- leaves

    def _word(self, field: str, term: str, slot: _Slot | None, allowed):
        """StemmedWordFilter: one row per posting, scored in ``slot`` —
        unscored when the leaf sits inside a Not (never prepared) or its
        idf is NaN.  Positions are never consulted."""
        pl = self._postings(field, term, False, self._span_of(allowed))
        r = self._result(pl.docs, pl.aps)
        if slot is not None and not np.isnan(slot.idf):
            r.slots[slot.ordinal] = (self._term_scores(pl.tfs, pl.lens, slot),
                                     np.ones(pl.size, dtype=np.int32))
        return self._restrict(r, allowed)

    def _eval_term(self, node: ast.Term, allowed):
        return self._word(node.field, _stem_one(node.word),
                          getattr(node, "_slot", None), allowed)

    def _phrase_meta(self, node):
        """(terms, slots) for a phrase/proximity node; inside a Not the
        node was never prepared (NotFilter's prepare is a no-op), so slots
        are unscored placeholders."""
        terms = getattr(node, "_terms", None)
        if terms is None:
            terms = [t for _, t in tokenize(node.text)]
            node._terms = terms
        slots = getattr(node, "_slots", None)
        if slots is None:
            slots = [_Slot(-1, F32(np.nan), 1.0) for _ in terms]
            node._slots = slots
        return terms, slots

    def _phrase_candidates(self, field: str, terms: list[str], allowed):
        """(surviving keys, key matrix, keyed lists): the keys where every
        term occurs with chained positions — the surviving-positions chain
        of src/filters.rs:206-215, incl. the saturating_sub(1) quirk at
        position 0.  Nested keys are instances, aligned by (doc,
        arraypath) like StemmedPhraseFilter's DocResult equality."""
        span = self._span_of(allowed)
        lists, keymat = self._keyed(
            [self._postings(field, t, span=span) for t in terms])
        cand = lists[0].docs
        for pl in lists[1:]:
            cand = np.intersect1d(cand, pl.docs, assume_unique=True)
        if cand.size and len(lists) > 1:
            cand = cand[phrase_chain_survivors(lists, cand)]
        return cand, keymat, lists

    def _eval_phrase(self, node: ast.Phrase, allowed):
        terms, slots = self._phrase_meta(node)
        if len(terms) == 1:
            # parser emits a plain StemmedWordFilter for one token
            return self._word(node.field, terms[0], slots[0], allowed)
        cand, keymat, lists = self._phrase_candidates(node.field, terms,
                                                      allowed)
        r = self._at(cand, keymat)
        if cand.size and not np.isnan(slots[0].idf):
            # only filters[0]'s DocResult survives the leapfrog
            i = np.searchsorted(lists[0].docs, cand)
            r.slots[slots[0].ordinal] = (
                self._term_scores(lists[0].tfs[i], lists[0].lens[i], slots[0]),
                np.ones(cand.size, dtype=np.int32))
        return self._restrict(r, allowed)

    def _eval_proximity(self, node: ast.Proximity, allowed):
        """DistanceFilter (src/filters.rs:588-726) via the sequential
        ``distance_filter_stream``.  Its current-filter state carries from
        one doc to the next, so the stream over postings cut at ``lo``
        differs from the whole-index stream; a prefix of the stream is
        exact.  It therefore reads postings over ``[0, hi)`` and keeps
        the keys from ``lo`` on, for any doc range or AND span."""
        terms, slots = self._phrase_meta(node)
        rng = self._clip(self._span_of(allowed))
        prefix = None if rng is None else (0, rng[1])
        lists, keymat = self._keyed(
            [self._read(node.field, t, True, prefix) for t in terms])
        score_arrays = [
            None if np.isnan(s.idf) else self._term_scores(pl.tfs, pl.lens, s)
            for pl, s in zip(lists, slots)
        ]
        keys, src, score = distance_filter_stream(lists, score_arrays,
                                                  node.distance)
        r = self._at(np.array(keys, dtype=np.int64), keymat)
        src = np.array(src, dtype=np.int64)
        score = np.array(score, dtype=F32)
        for t, (sa, slot) in enumerate(zip(score_arrays, slots)):
            mask = src == t
            if sa is not None and mask.any():
                r.slots[slot.ordinal] = (np.where(mask, score, F32(0.0)),
                                         mask.astype(np.int32))
        if rng is not None:
            r = self._keep(r, r.docs >= rng[0])
        return self._restrict(r, allowed)

    def _eval_all(self, node: ast.AllDocs, allowed):
        docs = self._live(allowed)
        r = self._result(docs)
        # the reference hardcodes ordinal 1 here (src/filters.rs:58-63)
        r.slots[1] = (np.ones(docs.size, dtype=F32),
                      np.ones(docs.size, dtype=np.int32))
        return r

    def _eval_boost(self, node: ast.Boost, allowed):
        r = self._eval(node.inner, allowed)  # keeps binds and order
        for o, (s, c) in r.slots.items():
            r.slots[o] = ((s * F32(node.factor)).astype(F32), c)
        return r

    def _eval_and(self, node: ast.And, allowed):
        """AndFilter (src/filters.rs:727-807): selective clauses evaluate
        first and the shrinking candidate-doc set threads into the rest —
        the vectorized form of its leapfrog, with identical results."""
        order = sorted(range(len(node.clauses)),
                       key=lambda i: _sel_rank(node.clauses[i]))
        sets: list = [None] * len(node.clauses)
        for i in order:
            r = self._resized(self._eval(node.clauses[i], allowed),
                              node.depth)
            sets[i] = r
            docs = r.doc_ids()
            allowed = docs if allowed is None else \
                np.intersect1d(allowed, docs, assume_unique=True)
        return self._intersect(sets)

    def _eval_or(self, node: ast.Or, allowed):
        return self._union(
            self._resized(self._eval(node.left, allowed), node.depth),
            self._resized(self._eval(node.right, allowed), node.depth))

    # ---------------------------------------------------- final scores

    def final_scores(self, result) -> np.ndarray:
        """compute_relevancy_score vectorized (src/query.rs:463-477)."""
        n = result.docs.size
        if self.num_slots == 0:
            return np.zeros(n, dtype=F32)
        acc = np.zeros(n, dtype=F32)
        matched = np.zeros(n, dtype=np.int32)
        for o in sorted(result.slots):
            s, c = result.slots[o]
            has = c > 0
            with np.errstate(invalid="ignore", divide="ignore"):
                contrib = np.where(has, s / c.astype(F32), F32(0.0)).astype(F32)
            acc = (acc + contrib).astype(F32)
            matched += has.astype(np.int32)
        return ((self.query_norm * acc).astype(F32)
                * matched.astype(F32) / F32(self.num_slots)).astype(F32)


class CompiledQuery(QueryCore):
    """The flat engine: one ``EvalResult`` row per doc."""

    @staticmethod
    def _check_not_validity(node: ast.Node):
        if _is_all_not(node):
            raise ValueError(
                "query must contain at least one full match expression"
            )  # src/query.rs:222-228
        _check_double_not(node, False)  # src/filters.rs:1051-1061

    @staticmethod
    def _result(docs: np.ndarray, aps=None) -> EvalResult:
        return EvalResult(docs)

    @staticmethod
    def _keyed(pls):
        return pls, None  # a flat posting's key is its doc

    @staticmethod
    def _resized(r: EvalResult, depth: int) -> EvalResult:
        return r

    @staticmethod
    def _intersect(sets: list[EvalResult]) -> EvalResult:
        docs = sets[0].docs
        for r in sets[1:]:
            docs = np.intersect1d(docs, r.docs, assume_unique=True)
        out = EvalResult(docs)
        for r in sets:
            idx = np.searchsorted(r.docs, docs)  # docs ⊆ r.docs: exact hits
            for o, (s, c) in r.slots.items():
                out.slots[o] = (s[idx], c[idx])
        return out

    @staticmethod
    def _union(lr: EvalResult, rr: EvalResult) -> EvalResult:
        docs = np.union1d(lr.docs, rr.docs)
        out = EvalResult(docs)
        for src in (lr, rr):
            idx = np.searchsorted(docs, src.docs)
            for o, (s, c) in src.slots.items():
                sums = np.zeros(docs.size, dtype=F32)
                cnts = np.zeros(docs.size, dtype=np.int32)
                sums[idx] = s
                cnts[idx] = c
                out.slots[o] = (sums, cnts)
        return out

    def _eval_not(self, node: ast.Not, allowed) -> EvalResult:
        inner = self._eval(node.inner, allowed).docs
        return EvalResult(self._complement(inner, allowed))

    def _eval_exact(self, node: ast.Exact, allowed) -> EvalResult:
        """Phrase candidates, then case-sensitive whole-value equality
        (src/filters.rs:274-377) — the stored values are fetched only for
        the candidates left in ``allowed``."""
        import pyarrow.compute as pc

        terms = [t for _, t in tokenize(node.literal)]
        docs, _, _ = self._phrase_candidates(node.field, terms, allowed)
        if allowed is not None:
            docs = docs[sorted_member_mask(allowed, docs)]
        if docs.size:
            col = self.reader.fetch_docs(docs, [node.field]).column(node.field)
            keep = pc.fill_null(pc.equal(col, node.literal), False).to_numpy(
                zero_copy_only=False).astype(bool)
            docs = docs[keep]
        return self._binary(node, EvalResult(docs))

    @staticmethod
    def _zone_prunes(reader, path: str, node: ast.RangeQ) -> bool:
        """True iff the partition's zone map (Parquet footer min/max /
        null_count, reader.docmap_zone) proves no row can satisfy the
        range — the columnar stand-in for the reference's f/T/F/N value
        keyspace (src/key_builder.rs:163-188).  Conservative: missing or
        unmappable statistics never prune."""
        vmin, vmax, nulls, rows = reader.docmap_zone(path, node.field)
        if rows == 0:
            return False  # unknown column shape: fall through to the read
        if node.special == "null":
            return nulls == 0
        all_null = nulls is not None and nulls == rows
        if node.special in ("true", "false"):
            if all_null:
                return True
            if not isinstance(vmin, bool) or not isinstance(vmax, bool):
                return False
            want = node.special == "true"
            return not (vmin <= want <= vmax)
        # numeric / timestamp range: null rows never match
        if all_null:
            return True
        if isinstance(vmin, bool) or vmin is None or vmax is None:
            return False
        if node.min is not None and (
                vmax < node.min
                or (vmax == node.min and not node.min_inclusive)):
            return True
        if node.max is not None and (
                vmin > node.max
                or (vmin == node.max and not node.max_inclusive)):
            return True
        return False

    def _eval_range(self, node: ast.RangeQ, allowed) -> EvalResult:
        import pyarrow as pa
        import pyarrow.compute as pc

        reader = self.reader
        rlo, rhi = (self._clip(self._span_of(allowed))
                    or (0, reader.num_docs))
        docs_parts = []
        for dm in reader._docmap:
            if dm["max_doc"] < rlo or dm["min_doc"] >= rhi:
                continue  # partition outside the evaluated doc range
            if reader.docmap_zone(dm["path"], node.field)[3] == 0:
                continue  # the partition has no such column: no row matches
            if self._zone_prunes(reader, dm["path"], node):
                continue  # footer statistics rule the partition out
            # the reader's cached column; a partition's rows are its
            # contiguous doc ids from min_doc (as fetch_docs relies on)
            col = reader._docmap_col(dm["path"], node.field)
            if node.special == "null":
                mask = pc.is_null(col)
            elif node.special in ("true", "false"):
                try:
                    mask = pc.equal(col, node.special == "true")
                except Exception:
                    continue
            else:
                ctype = col.type
                if pa.types.is_timestamp(ctype) or pa.types.is_date(ctype):
                    col = col.cast("int64")
                vals = col.cast("float64", safe=False)
                mask = pc.is_valid(vals)
                if node.min is not None:
                    mask = pc.and_(mask, pc.greater_equal(vals, node.min)
                                   if node.min_inclusive
                                   else pc.greater(vals, node.min))
                if node.max is not None:
                    mask = pc.and_(mask, pc.less_equal(vals, node.max)
                                   if node.max_inclusive
                                   else pc.less(vals, node.max))
            sel = dm["min_doc"] + np.flatnonzero(
                mask.fill_null(False).to_numpy(zero_copy_only=False))
            sel = sel[(sel >= rlo) & (sel < rhi)]
            if sel.size:
                docs_parts.append(sel)
        docs = (np.sort(np.concatenate(docs_parts))
                if docs_parts else np.zeros(0, dtype=np.int64))
        return self._binary(node, self._restrict(EvalResult(docs), allowed))


# ---------------------------------------------------- shared kernels
# Used by both the flat engine (doc_ids) and the nested engine
# (json_engine.py, instance ordinals): the "docs" of the posting-likes may
# be any ascending int64 keys as long as all lists share the key space.

def phrase_chain_survivors(pls, docs) -> np.ndarray:
    """Indices into ``docs`` whose positions survive the phrase chain of
    src/filters.rs:206-215 (incl. the saturating_sub(1) quirk at pos 0).
    ``docs`` must be a sorted subset of every pl's ``.docs``.

    Vectorized over ALL candidate docs at once: positions become flat
    (candidate_ordinal << 32 | position) keys — ascending, so each chain
    step is one searchsorted membership test instead of a Python loop per
    doc.  Candidate ordinals (not doc_ids) keep the key in 63 bits at any
    corpus size."""
    idxs = [np.searchsorted(pl.docs, docs) for pl in pls]

    def flat_pos(pl, idx):
        tf = pl.tfs[idx]
        st = pl.pos_starts[idx]
        total = int(tf.sum())
        ends = np.cumsum(tf)
        rel = np.arange(total, dtype=np.int64) - np.repeat(ends - tf, tf)
        pos = pl.pos_concat[np.repeat(st, tf) + rel]
        ordinal = np.repeat(np.arange(docs.size, dtype=np.int64), tf)
        return ordinal, pos.astype(np.int64)

    ordinal0, pos0 = flat_pos(pls[0], idxs[0])
    surv = (ordinal0 << np.int64(32)) | pos0
    for t in range(1, len(pls)):
        if surv.size == 0:
            return np.zeros(0, dtype=np.int64)
        ordinal_t, pos_t = flat_pos(pls[t], idxs[t])
        probe = (ordinal_t << np.int64(32)) | np.maximum(pos_t - 1, 0)
        j = np.minimum(np.searchsorted(surv, probe), surv.size - 1)
        mask = surv[j] == probe
        surv = ((ordinal_t << np.int64(32)) | pos_t)[mask]
    if surv.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique(surv >> np.int64(32))


def distance_filter_stream(pls, score_arrays, distance: int):
    """Literal port of DistanceFilter (src/filters.rs:588-726) over
    posting-like lists; returns ``(keys, slot_idx, score)`` python lists —
    one entry per emitted result, consumed with the top-level
    first-match-per-key dedup.  The result stream and which filter's
    DocResult (and hence score slot) survives depend on persistent
    iterator state, so this runs the reference algorithm sequentially."""

    class WordIter:
        """StemmedWordPosFilter: advance_gte + next over one posting list."""

        __slots__ = ("pl", "i")

        def __init__(self, pl):
            self.pl = pl
            self.i = 0

        def first_result(self, start_key):
            self.i = int(np.searchsorted(self.pl.docs, start_key,
                                         side="left"))
            return self.next_result()

        def next_result(self):
            if self.i >= self.pl.size:
                return None
            j = self.i
            self.i += 1
            return j  # index into pl arrays

    import bisect

    iters = [WordIter(pl) for pl in pls]
    n = len(iters)
    dis = distance + 1
    current = [0]  # persistent current_filter state

    def result(base):
        # base = (filter_idx, posting_idx) or None
        matches_left = n - 1
        if base is None:
            return None
        bf, bi = base
        base_key = int(pls[bf].docs[bi])
        base_positions = [(int(p), bf) for p in pls[bf].positions_of(bi)]
        if matches_left == 0:
            return (bf, bi)
        while True:
            current[0] += 1
            if current[0] == n:
                current[0] = 0
            cf = current[0]
            nj = iters[cf].first_result(base_key)
            if nj is None:
                return None
            next_key = int(pls[cf].docs[nj])
            if base_key != next_key:
                bf, bi, base_key = cf, nj, next_key
                base_positions = [(int(p), cf)
                                  for p in pls[cf].positions_of(nj)]
                matches_left = n - 1
                continue
            pos_only = [p for p, _ in base_positions]
            new_map = {}
            for p in pls[cf].positions_of(nj):
                p = int(p)
                lo = max(p - dis, 0)
                start = bisect.bisect_left(pos_only, lo)
                end = bisect.bisect_left(pos_only, p + dis)
                encountered = {f for _, f in base_positions[start:end]}
                if len(encountered) == n - matches_left:
                    for pp, ff in base_positions[start:end]:
                        new_map[pp] = ff
                    new_map[p] = cf
            if new_map:
                base_positions = sorted(new_map.items())
                pos_only = [p for p, _ in base_positions]
                matches_left -= 1
                if matches_left == 0:
                    return (bf, bi)
                continue
            nj = iters[cf].next_result()
            if nj is None:
                return None
            bf, bi = cf, nj
            base_key = int(pls[cf].docs[bi])
            base_positions = [(int(p), cf) for p in pls[cf].positions_of(bi)]
            matches_left = n - 1

    out_keys: list[int] = []
    out_slot: list[int] = []
    out_score: list[float] = []
    start = 0
    while True:
        base = iters[current[0]].first_result(start)
        dr = result((current[0], base) if base is not None else None)
        if dr is None:
            break
        bf, bi = dr
        key = int(pls[bf].docs[bi])
        out_keys.append(key)
        out_slot.append(bf)
        sa = score_arrays[bf]
        out_score.append(float(sa[bi]) if sa is not None else 0.0)
        start = key + 1
    return out_keys, out_slot, out_score


# ------------------------------------------------------------- helpers

def _stem_one(word: str) -> str:
    toks = tokenize(word)
    return toks[0][1] if toks else ""


def _sel_rank(node) -> int:
    """Evaluation-order heuristic for AND clauses: postings-backed
    leaves (bounded by their term's document frequency) before
    values-scan leaves, with the corpus-wide NOT/AllDocs last."""
    while isinstance(node, ast.Boost):
        node = node.inner
    if isinstance(node, (ast.Term, ast.Phrase, ast.Proximity)):
        return 0
    if isinstance(node, ast.BboxQ):
        return 1
    if isinstance(node, ast.RangeQ):
        return 2
    if isinstance(node, ast.Exact):
        return 3
    if isinstance(node, (ast.And, ast.Or, ast.Bind)):
        return 4
    if isinstance(node, ast.AllDocs):
        return 5
    return 6


def _is_all_not(node: ast.Node) -> bool:
    if isinstance(node, ast.Not):
        return True
    if isinstance(node, ast.And):
        return all(_is_all_not(c) for c in node.clauses)
    if isinstance(node, ast.Or):
        return _is_all_not(node.left) and _is_all_not(node.right)
    if isinstance(node, ast.Boost):
        return _is_all_not(node.inner)
    if isinstance(node, ast.Bind):
        return _is_all_not(node.inner)
    return False


def _check_double_not(node: ast.Node, parent_is_neg: bool):
    if isinstance(node, ast.Not):
        if parent_is_neg:
            raise ValueError(
                'Logical not ("!") is nested inside of another logical not. '
                "This is not allowed."
            )
        _check_double_not(node.inner, True)
    elif isinstance(node, ast.And):
        for c in node.clauses:
            _check_double_not(c, parent_is_neg)
    elif isinstance(node, ast.Or):
        _check_double_not(node.left, parent_is_neg)
        _check_double_not(node.right, parent_is_neg)
    elif isinstance(node, ast.Boost):
        _check_double_not(node.inner, parent_is_neg)
    elif isinstance(node, ast.Bind):
        _check_double_not(node.inner, parent_is_neg)
