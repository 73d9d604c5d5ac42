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
    # the RE2 batch splitter the build runs over ASCII rows must keep
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
