"""Text analysis replicating the reference engine's tokenizer semantics.

The reference (/root/reference/src/stems.rs:23-64) tokenizes a field as:

1. Split the RAW text on Unicode word boundaries (UAX#29,
   ``unicode_segmentation::split_word_bound_indices``).
2. NFKC-normalize each segment.
3. Keep segments whose first (normalized) character is alphabetic; lowercase
   then English-Snowball stem them.  ``word_pos`` counts kept tokens only.
4. If no segment was kept, the field yields ONE token: the concatenation of
   the NFKC-normalized segments seen before any alphabetic one (i.e. the
   whole normalized text), at position 0.  An empty string yields one ""
   token.

Word-boundary segmentation here is a close UAX#29 approximation built on the
``regex`` module: letter/digit runs glued by MidLetter / MidNumLet /
Single_Quote characters when (and only when) followed by another letter or
digit.  This matches the reference on every tokenizer test in
/root/reference/src/stems.rs:66-233 (see tests/test_tokenizer.py).

Three segmenters implement that one rule, and tests pin them equal:

- ``_SEG_RE`` (``regex`` module, Unicode classes): any text.
- ``_ASCII_SEG_RE`` (stdlib ``re``): the per-text fast path for ASCII
  text; equal to ``_SEG_RE`` on every ASCII string
  (``test_ascii_fast_path_equals_unicode_engine``).
- ``ascii_word_tokens`` (numpy byte classes over the column's UTF-8
  buffer, no regex): the ASCII rows of a whole string column at once, as
  the index build runs it; returns exactly ``_ASCII_SEG_RE``'s kept word
  runs with their row indices
  (``test_batch_ascii_splitter_equals_per_text_segmenter``).  The build's
  output with it equals the per-text path's
  (``tests/test_build_invariants.py::
  test_tokenize_batch_matches_per_term_reference``).
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache

import numpy as np
import pyarrow as pa
import regex as _re

from .porter2 import stem as _porter2_stem

# A "word" segment: starts with an Alphabetic / Mark / digit / connector char,
# continues through same-class chars, and allows MidLetter ( : · ‧ ՚ ״ ),
# MidNumLet ( . ’ ' ＇ ．), and MidNum ( , ; ) glue characters when followed by
# another word character (UAX#29 WB6/WB7/WB11/WB12 approximation).
_WORD_CHAR = r"[\p{Alphabetic}\p{M}\p{Nd}\p{Pc}]"
_MID = "[:··״‧’'＇.．｡,;٬]"
# A word run, or any single other character as its own segment (the reference
# checks every UAX#29 segment, and NFKC can turn a symbol like \u2122 into "TM").
_SEG_RE = _re.compile(
    f"{_WORD_CHAR}(?:{_WORD_CHAR}|{_MID}(?={_WORD_CHAR}))*|.", _re.DOTALL
)

# ASCII fast path: for pure-ASCII text the Unicode classes collapse to
# [A-Za-z0-9_] / [:'.,;] and the stdlib ``re`` engine scans ~2× faster
# than the ``regex`` module.  Equality with _SEG_RE on every ASCII
# string is asserted by tests/test_tokenizer.py::
# test_ascii_fast_path_equals_unicode_engine.
import re as _stdre

_ASCII_SEG_RE = _stdre.compile(
    r"[A-Za-z0-9_](?:[A-Za-z0-9_]|[:'.,;](?=[A-Za-z0-9_]))*|.",
    _stdre.DOTALL,
)


# Batch ASCII segmenter: the same kept word runs as _ASCII_SEG_RE, found
# by byte classes over a whole Arrow string column's UTF-8 buffer.  A word
# run is word bytes [A-Za-z0-9_] joined by single glue bytes [:'.,;] that
# have a word byte on both sides in the same row, so a byte belongs to a
# run iff it is a word byte or such a glue byte, and runs break at row
# starts (two rows' words can touch in the buffer).


def ascii_word_tokens(texts: pa.Array) -> tuple[pa.StringArray, np.ndarray]:
    """Kept tokens of the ASCII strings in ``texts``, before normalizing.

    Returns ``(tokens, rows)``: every ``_ASCII_SEG_RE`` word run that
    passes :func:`tokenize`'s first-char-alphabetic gate, in text order,
    and the index in ``texts`` of the row each came from.  NFKC is the
    identity on ASCII, so ``_norm_lower_stem(tok)`` is the indexed term.
    Every row of ``texts`` must be a non-null ASCII string.

    Numpy over the column's offsets and bytes: classify every byte, mark
    run starts and ends, keep the runs that start with a letter, and
    build the tokens from one boolean compress of the buffer."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.type != pa.string():
        texts = texts.cast(pa.string())
    n = len(texts)
    off = np.frombuffer(texts.buffers()[1], np.int32, n + 1, texts.offset * 4)
    lo = int(off[0])
    m = int(off[-1]) - lo
    data = (np.frombuffer(texts.buffers()[2], np.uint8, m, lo) if m
            else np.zeros(0, np.uint8))
    letter = (data | 32) - 97 < 26  # uint8 wraps below 'a'
    word = letter | (data - 48 < 10) | (data == 95)
    # in_row[i]: bytes i and i+1 are in the same row
    in_row = np.ones(max(m - 1, 0), bool)
    in_row[off[1:-1][(off[1:-1] > lo) & (off[1:-1] < lo + m)] - lo - 1] = False
    run = word.copy()
    glue = ((data == 58) | (data == 39) | (data == 46) | (data == 44)
            | (data == 59))[1:-1]
    run[1:-1] |= glue & word[:-2] & word[2:] & in_row[:-1] & in_row[1:]
    start = run.copy()
    start[1:] &= ~(run[:-1] & in_row)
    end = run.copy()
    end[:-1] &= ~(run[1:] & in_row)
    starts, ends = np.flatnonzero(start), np.flatnonzero(end) + 1
    keep = letter[starts]
    if not keep.all():  # drop the runs that start with [0-9_]
        drop = ~keep
        d = np.zeros(m + 1, np.int8)
        d[starts[drop]] += 1  # two runs can touch across rows
        d[ends[drop]] -= 1
        run &= np.cumsum(d[:-1], dtype=np.int8) == 0
        starts, ends = starts[keep], ends[keep]
    tok_off = np.zeros(starts.size + 1, np.int32)
    np.cumsum(ends - starts, out=tok_off[1:])
    toks = pa.Array.from_buffers(
        pa.string(), starts.size,
        [None, pa.py_buffer(tok_off), pa.py_buffer(data[run])])
    rows = np.searchsorted(off, starts + lo, side="right") - 1
    return toks, rows


def word_segments(text: str):
    """Yield (start, segment) for UAX#29-style word segments of raw ``text``.

    Word runs are yielded whole; every other character is its own segment
    (coarser grouping of non-word runs would only matter for the
    all-non-alpha fallback, which concatenates them anyway).
    """
    for m in _SEG_RE.finditer(text):
        yield m.start(), m.group()


@lru_cache(maxsize=262144)
def _norm_lower_stem(seg: str) -> str | None:
    """NFKC → first-char-alphabetic gate → lowercase → stem; None if dropped."""
    normalized = unicodedata.normalize("NFKC", seg)
    if not normalized or not normalized[0].isalpha():
        return None
    return _porter2_stem(normalized.lower())


def tokenize(text: str) -> list[tuple[int, str]]:
    """Return [(word_pos, stemmed_token)] for ``text``.

    Positions count kept (alphabetic) tokens only, mirroring
    /root/reference/src/stems.rs:40-52.  A text with no alphabetic token
    yields one fallback token: the NFKC-normalized full text at position 0
    (the reference concatenates per-segment normalizations of everything
    before the first alphabetic segment; with no alphabetic segment that is
    the whole text).
    """
    out: list[tuple[int, str]] = []
    pos = 0
    stem = _norm_lower_stem
    append = out.append
    # findall (one C call) rather than the word_segments generator: the
    # build path discards segment offsets, and Match-object overhead is
    # the tokenizer's hottest line at index-build scale.
    pat = _ASCII_SEG_RE if text.isascii() else _SEG_RE
    for seg in pat.findall(text):
        stemmed = stem(seg)
        if stemmed is not None:
            append((pos, stemmed))
            pos += 1
    if not out:
        return [(0, unicodedata.normalize("NFKC", text))]
    return out


@lru_cache(maxsize=262144)
def _norm_lower_raw(seg: str) -> str | None:
    """The RAW (pre-stem) form of a kept token: NFKC → first-char-alphabetic
    gate → lowercase; None if the segment is dropped.  Pairs with
    :func:`_norm_lower_stem` — ``stem(_norm_lower_raw(s)) ==
    _norm_lower_stem(s)`` whenever both are non-None."""
    normalized = unicodedata.normalize("NFKC", seg)
    if not normalized or not normalized[0].isalpha():
        return None
    return normalized.lower()


@lru_cache(maxsize=65536)
def raw_grouped(text: str) -> tuple[list[str], list[str], list[int]]:
    """Group a field's tokens by RAW (pre-stem) surface form.

    Returns ``(raws, stems, counts)`` — first-occurrence order, one entry
    per distinct raw form, ``stems[i] == porter2(raws[i])`` and
    ``counts[i]`` its occurrence count.  This is the term-DICTIONARY view
    of a document (build/dictionary.py): the index itself stores only
    stems, so wildcard / fuzzy / did-you-mean surfaces need the raw forms
    recorded at build time.  Mirrors :func:`tokenize`'s segmentation and
    keep-gate exactly, including the no-alphabetic-token fallback (whose
    "raw" form IS the indexed term).  Cached per text; callers must treat
    the returned lists as READ-ONLY.
    """
    raws: list[str] = []
    stems: list[str] = []
    counts: list[int] = []
    index: dict[str, int] = {}
    pat = _ASCII_SEG_RE if text.isascii() else _SEG_RE
    for seg in pat.findall(text):
        raw = _norm_lower_raw(seg)
        if raw is None:
            continue
        i = index.get(raw)
        if i is None:
            index[raw] = len(raws)
            raws.append(raw)
            stems.append(_porter2_stem(raw))
            counts.append(1)
        else:
            counts[i] += 1
    if not raws:
        fb = unicodedata.normalize("NFKC", text)
        return [fb], [fb], [1]
    return raws, stems, counts


@lru_cache(maxsize=65536)
def tokenize_grouped(text: str) -> tuple[list[str], list[list[int]], int]:
    """Tokenize and group by stem, as the index build needs.

    Returns (terms, positions_per_term, field_len) where ``field_len`` is the
    total number of tokens (the reference's L entry,
    /root/reference/src/json_shred.rs:156-173) and positions are ascending
    per term.  Term order is first-occurrence order.

    Cached per text (low-cardinality fields like role/tool repeat millions
    of times); callers must treat the returned lists as READ-ONLY.
    """
    toks = tokenize(text)
    terms: list[str] = []
    positions: list[list[int]] = []
    index: dict[str, int] = {}
    for pos, term in toks:
        i = index.get(term)
        if i is None:
            index[term] = len(terms)
            terms.append(term)
            positions.append([pos])
        else:
            positions[i].append(pos)
    return terms, positions, len(toks)
