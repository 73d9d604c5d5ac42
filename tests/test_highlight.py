"""ops.highlight: positions + snippet rendering of scored hits."""

import numpy as np

from noise_ray.ops.highlight import search_highlight

SF = "/root/testdata/sf0.001"


def test_positions_match_text(ray_session):
    """Every reported position indexes an occurrence of the term in the
    doc's token stream, and the snippet is the +-2 window around it."""
    import duckdb

    out = search_highlight(SF, term="merge", k=10, ctx=2).to_pandas()
    assert len(out) > 0
    texts = duckdb.sql(
        f"SELECT doc_id, text FROM '{SF}/documents.parquet'").df()
    by_id = dict(zip(texts.doc_id, texts.text))
    import re

    for _, r in out.iterrows():
        toks = re.findall(r"[a-z0-9]+", by_id[r.doc_id].lower())
        p = int(r.pos)
        assert toks[p] == "merge"
        assert r.snippet == " ".join(toks[max(0, p - 2): p + 3])


def test_scores_match_term_topk(ray_session):
    """Highlight rows carry the same 4dp scores as the scored term query
    over the same index."""
    from noise_ray.pipelines import documents_index
    from noise_ray.query import run_query

    out = search_highlight(SF, term="merge", k=10).to_pandas()
    top = run_query(
        documents_index(SF),
        'find {text: ~="merge"} order score() desc, .doc_id asc '
        "return score() limit 10 ;")
    want = dict(zip(top.column("doc_id").to_pylist(),
                    np.round(np.asarray(top.column("score"), np.float64),
                             4)))
    got = out.groupby("doc_id").score.first()
    assert set(got.index) == set(want)
    for did, sc in got.items():
        assert sc == want[did]
    # every top doc appears, with tf occurrences each
    assert (out.groupby("doc_id").size() >= 1).all()


def test_more_like_this_brute_force(ray_session):
    """MLT result equals a brute-force TF-IDF OR evaluation of the seed
    doc's term set over the corpus."""
    import re

    import duckdb

    from noise_ray.ops.related import more_like_this

    out = more_like_this(SF, seed_doc=0, k=10).to_pandas()
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM '{SF}/documents.parquet' ORDER BY doc_id"
    ).df()
    tok = {r.doc_id: re.findall(r"[a-z0-9]+", r.text.lower())
           for r in docs.itertuples()}
    seed = sorted(set(tok[0]))
    k_total = sum(len(set(ts)) for ts in tok.values())
    c = {t: sum(ts.count(t) for ts in tok.values()) for t in seed}
    idf = {t: 1.0 + np.log(k_total / (c[t] + 1.0)) for t in seed}
    norm = sum(v * v for v in idf.values())
    scores = {}
    for did, ts in tok.items():
        if did == 0:
            continue
        contrib, matched = 0.0, 0
        for t in seed:
            tf = ts.count(t)
            if tf:
                matched += 1
                contrib += idf[t] ** 2 * np.sqrt(tf / len(ts))
        if matched:
            scores[did] = contrib / norm * matched / len(seed)
    want = sorted(scores.items(),
                  key=lambda kv: (-round(kv[1], 4), kv[0]))[:10]
    assert list(out.doc_id) == [d for d, _ in want]
    np.testing.assert_allclose(
        out.score, [round(s, 4) for _, s in want], atol=1e-9)
