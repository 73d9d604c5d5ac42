"""Score conformance vs the reference's golden outputs.

Every expected value below is copied verbatim from
/root/reference/repl-tests/scoring.noise — the f64 rendering of the f32
scores the reference engine computes.  We require exact equality, which only
holds if our float32 arithmetic replicates the reference's operation order
(src/snapshot.rs:132-183, src/query.rs:463-477).
"""

import pytest

from noise_ray.query import IndexReader, run_query


@pytest.fixture(scope="module")
def reader(scoring_index):
    return IndexReader(scoring_index)


def ids(t):
    return t.column("doc_id").to_pylist()


def scores(t):
    return [float(s) for s in t.column("score").to_pylist()]


def test_or_rank_order(reader):
    t = run_query(
        reader,
        'find {text: ~="fox" || text: ~="brown" || text: ~="quick"} '
        "order score() desc return ._id ;",
    )
    assert ids(t) == [2, 1, 0]


def test_phrase_rank(reader):
    t = run_query(reader, 'find {text: ~="quick brown fox"} order score() desc return ._id ;')
    assert ids(t) == [2]


def test_phrase_score(reader):
    t = run_query(reader, 'find {text: ~="quick brown fox"} return score() ;')
    assert scores(t) == [0.05966803431510925]


def test_phrase_score_boosted(reader):
    t = run_query(reader, 'find {text: ~="quick brown fox"^2} return score() ;')
    assert scores(t) == [0.1193360686302185]


def test_exact_score(reader):
    t = run_query(reader, 'find {text: =="quick brown fox"} return score() ;')
    assert scores(t) == [1.0]


def test_exact_score_boost_ignored(reader):
    t = run_query(reader, 'find {text: =="quick brown fox"^2} return score() ;')
    assert scores(t) == [1.0]


def test_proximity_score(reader):
    t = run_query(reader, 'find {text: ~2="quick brown fox"} return score() ;')
    assert scores(t) == [0.0916677787899971]


def test_proximity_score_boosted(reader):
    t = run_query(reader, 'find {text: ~2="quick brown fox"^2} return score() ;')
    assert scores(t) == [0.1833355575799942]


GOLDEN_OR = [0.5773501992225647, 0.2468651682138443, 0.07121198624372482]
GOLDEN_OR_2X = [1.1547003984451294, 0.4937303364276886, 0.14242397248744965]


def test_or_scores(reader):
    t = run_query(
        reader,
        'find {text: ~="fox" || text: ~="brown" || text: ~="quick"} '
        "order score() desc return score() ;",
    )
    assert scores(t) == GOLDEN_OR


def test_or_scores_boost_whole_parens(reader):
    t = run_query(
        reader,
        'find ({text: ~="fox" || text: ~="brown" || text: ~="quick"})^2 '
        "order score() desc return score() ;",
    )
    assert scores(t) == GOLDEN_OR_2X


def test_or_scores_boost_object(reader):
    t = run_query(
        reader,
        'find {text: ~="fox" || text: ~="brown" || text: ~="quick"}^2 '
        "order score() desc return score() ;",
    )
    assert scores(t) == GOLDEN_OR_2X


def test_or_scores_boost_split(reader):
    t = run_query(
        reader,
        'find {text: ~="fox"^2 || (text: ~="brown" || text: ~="quick")^2 } '
        "order score() desc return score() ;",
    )
    assert scores(t) == GOLDEN_OR_2X


def test_or_scores_boost_two_objects(reader):
    t = run_query(
        reader,
        'find {text: ~="fox"}^2 || {text: ~="brown" || text: ~="quick"}^2 '
        "order score() desc return score() ;",
    )
    assert scores(t) == GOLDEN_OR_2X


def test_not_flat(reader):
    # repl-tests/not.noise flat cases over the same trio corpus
    t = run_query(
        reader,
        'find {(text: ~="fox" || text: ~="brown") && (text: !~="quick")} return ._id ;',
    )
    assert ids(t) == [0]
    t = run_query(
        reader,
        'find {(text: ~="fox" || text: ~="brown") && !(text: ~="quick")} return ._id ;',
    )
    assert ids(t) == [0]
    t = run_query(
        reader,
        'find {text: ~="fox" || text: ~="brown"} && !{text: ~="quick"} return ._id ;',
    )
    assert ids(t) == [0]


def test_all_not_rejected(reader):
    with pytest.raises(ValueError, match="at least one full match"):
        run_query(reader, 'find {text: !~="quick"} return ._id ;')


def test_double_not_rejected(reader):
    with pytest.raises(ValueError, match="nested inside of another"):
        run_query(reader,
                  'find {text: ~="quick"} && !{text: !~="brown"} return ._id ;')
