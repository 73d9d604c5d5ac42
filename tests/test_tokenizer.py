"""Tokenizer conformance tests, ported from /root/reference/src/stems.rs:66-233."""

from noise_ray.analysis import stem, tokenize


def toks(text):
    return tokenize(text)


def test_stems_mixedcase():
    # src/stems.rs:70-109
    assert toks("THEse Words deeplY test smOOthly that stemmING") == [
        (0, "these"),
        (1, "word"),
        (2, "deepli"),
        (3, "test"),
        (4, "smooth"),
        (5, "that"),
        (6, "stem"),
    ]


def test_stems_nonchars():
    # src/stems.rs:111-122 — all-non-alphabetic input yields one raw token
    assert toks("  @#$!== \t+-") == [(0, "  @#$!== \t+-")]


def test_stems_empty():
    assert toks("") == [(0, "")]


def test_stems_some_nonchars():
    # src/stems.rs:124-142 — positions count kept tokens only
    assert toks("@!?   Let's seeing...") == [(0, "let"), (1, "see")]


def test_stems_unicode():
    # src/stems.rs:144-162
    assert toks("Ünicöde stemming") == [(0, "ünicöd"), (1, "stem")]


def test_stems_trailing_needs_normalized():
    # src/stems.rs:164-182 — ™ NFKC-normalizes to "TM", which is alphabetic
    assert toks("Didgeridoos™") == [(0, "didgeridoo"), (1, "tm")]


def test_stems_unicode_lowercase_has_more_bytes():
    # src/stems.rs:184-196 — İ lowercases to i + combining dot
    assert toks("İ") == [(0, "i̇")]


def test_stems_unicode_lowercase_has_less_bytes():
    # src/stems.rs:219-232
    assert toks("Ρ̓ῤῤ") == [
        (0, "ῤῤῤ")
    ]


def test_scoring_corpus_tokens():
    # the scoring.noise corpus must tokenize to unchanged stems
    assert toks("quick brown fox") == [(0, "quick"), (1, "brown"), (2, "fox")]
    assert toks("Multi word sentence") == [(0, "multi"), (1, "word"), (2, "sentenc")]


def test_porter2_known_stems():
    cases = {
        "seeing": "see",
        "stemming": "stem",
        "words": "word",
        "deeply": "deepli",
        "smoothly": "smooth",
        "didgeridoos": "didgeridoo",
        "these": "these",
        "only": "onli",
        "dying": "die",
        "news": "news",
        "this": "this",
        "cries": "cri",
        "ties": "tie",
        "gas": "gas",
        "hoping": "hope",
        "hopping": "hop",
        "generate": "generat",
        "generalization": "general",
        "possibly": "possibl",
        "consignment": "consign",
        "agreed": "agre",
        "controlling": "control",
        "fully": "fulli",
        "let's": "let",
    }
    for word, expected in cases.items():
        assert stem(word) == expected, f"{word} -> {stem(word)} != {expected}"


def _ascii_samples():
    import random
    import string

    rng = random.Random(42)
    pool = string.printable
    return ["", "a", "don't", "a.b,c;d:e", "x_1.y'z", "...", "a..b",
            "hello world", "3.14 and 2,718", "'tis", "9abc _x x9", "a.;b",
            "dog.", "tab\tsep\tx", "two\nlines\r\n", " \t\n"] + [
        "".join(rng.choice(pool) for _ in range(rng.randint(0, 80)))
        for _ in range(5000)
    ]


def test_ascii_fast_path_equals_unicode_engine():
    # the stdlib-re ASCII segmenter must match the regex-module Unicode
    # segmenter on every ASCII string (tokenize dispatches on isascii())
    from noise_ray.analysis.tokenizer import _ASCII_SEG_RE, _SEG_RE

    for s in _ascii_samples():
        assert _ASCII_SEG_RE.findall(s) == _SEG_RE.findall(s), repr(s)


def test_batch_ascii_splitter_equals_per_text_segmenter():
    # the batch splitter the build runs over ASCII rows must keep
    # exactly tokenize's kept word runs, each tagged with its row
    import pyarrow as pa

    from noise_ray.analysis.tokenizer import (_ASCII_SEG_RE,
                                              ascii_word_tokens)

    samples = _ascii_samples()
    toks, rows = ascii_word_tokens(pa.array(samples, pa.string()))
    assert isinstance(toks, pa.StringArray)
    want = [(i, seg) for i, s in enumerate(samples)
            for seg in _ASCII_SEG_RE.findall(s) if seg[0].isalpha()]
    assert list(zip(rows.tolist(), toks.to_pylist())) == want
    empty_toks, empty_rows = ascii_word_tokens(pa.array([], pa.string()))
    assert len(empty_toks) == 0 and empty_rows.size == 0


def _kept_runs(texts):
    """(row, token) of every kept word run, per text by ``_ASCII_SEG_RE``."""
    from noise_ray.analysis.tokenizer import _ASCII_SEG_RE

    return [(i, seg) for i, s in enumerate(texts)
            for seg in _ASCII_SEG_RE.findall(s) if seg[0].isalpha()]


def _split(col):
    from noise_ray.analysis.tokenizer import ascii_word_tokens

    toks, rows = ascii_word_tokens(col)
    toks.validate(full=True)
    return list(zip(rows.tolist(), toks.to_pylist()))


def test_batch_ascii_splitter_sliced_and_chunked_input():
    # a slice's offsets start past 0; a chunked column has several buffers
    import pyarrow as pa

    samples = _ascii_samples()[:400]
    arr = pa.array(samples, pa.string())
    for lo, hi in ((1, 400), (17, 250), (399, 400), (5, 5)):
        assert _split(arr.slice(lo, hi - lo)) == _kept_runs(samples[lo:hi])
    chunked = pa.chunked_array([arr.slice(0, 150), arr.slice(150, 0),
                                arr.slice(150)])
    assert _split(chunked) == _kept_runs(samples)
    assert _split(arr.cast(pa.large_string())) == _kept_runs(samples)


def test_batch_ascii_splitter_keeps_rows_apart():
    # the bytes of adjacent rows touch in the buffer, but a word run (and
    # a glue byte's word neighbours) never crosses a row start
    import pyarrow as pa

    cases = [["ab", "cd"], ["a.", "b"], ["a", ".b"], ["a", ""],
             ["a", "", "b"], ["a:", "'b"], ["9", "a"], ["a9", "_b"],
             ["9", "9a", "b"], ["x.", "", ".y"]]
    for texts in cases:
        assert _split(pa.array(texts, pa.string())) == _kept_runs(texts), texts
    assert _split(pa.array(["ab", "cd"])) == [(0, "ab"), (1, "cd")]
    assert _split(pa.array(["a.", "b"])) == [(0, "a"), (1, "b")]


def test_batch_ascii_splitter_empty_columns():
    import pyarrow as pa

    from noise_ray.analysis.tokenizer import ascii_word_tokens

    for texts in ([], [""], ["", "", ""], [" ", "...", "42", "_9"]):
        toks, rows = ascii_word_tokens(pa.array(texts, pa.string()))
        assert isinstance(toks, pa.StringArray)
        assert len(toks) == 0 and rows.size == 0


def test_batch_tokens_equal_tokenize_grouped_per_row():
    # a mixed ASCII / non-ASCII column: ASCII rows take the batch
    # splitter (or the whole-text fallback), the rest the per-text path;
    # every row must get exactly tokenize_grouped's tokens
    import pyarrow as pa

    from noise_ray.analysis.tokenizer import tokenize_grouped
    from noise_ray.build.pipeline import batch_tokens

    texts = ["dog cats", "naïve cafés dog", None, "", "42", "日本語 dog",
             "™ mark", "a.b", "½", " \t", "Running runs", "ﬁne dog", "!!",
             "dog’s bone", "x9 zebra", "١٢٣"] * 3
    cols = [pa.chunked_array([pa.array(texts[:20]), pa.array(texts[20:])]),
            pa.nulls(len(texts)), pa.array(texts[::-1])]
    col_of, row, pos, tid, flen, (terms, _, _) = batch_tokens(cols,
                                                              len(texts))
    got: dict = {}
    for c, r, p, t in zip(col_of.tolist(), row.tolist(), pos.tolist(),
                          terms.take(pa.array(tid)).to_pylist()):
        got.setdefault((c, r), []).append((p, t))
    assert not any(c == 1 for c, _ in got)  # the all-null column
    for c, col in ((0, texts), (2, texts[::-1])):
        for i, text in enumerate(col):
            if text is None:
                assert flen[c, i] == 0 and (c, i) not in got
                continue
            t_terms, positions, field_len = tokenize_grouped(text)
            assert sorted(got[c, i]) == sorted(
                (p, t) for t, ps in zip(t_terms, positions) for p in ps)
            assert flen[c, i] == field_len
