"""The flat front end (``noise_parser.parse_query``): the one noise grammar,
lowered to the flat schema.

The first table pins the lowered AST of every ``bench.py`` ``QUERY_SET`` /
perfbench query-mix shape; the second asserts that nested-only forms and
the non-reference leniencies of the old flat grammar are parse errors.
"""

import pytest

from noise_ray.query import ast
from noise_ray.query.noise_parser import ParseError, parse_query

_SCORE_DESC = [ast.OrderKey(score=True, desc=True)]

LOWERED = [
    ("term",
     'find {text: ~="merge"} order score() desc return score() limit 100 ;',
     ast.Query(ast.Term("text", "merge"), _SCORE_DESC, 100, ["score()"])),
    ("or",
     'find {text: ~="quick" || text: ~="brown" || text: ~="fox"} '
     "order score() desc return score() limit 100 ;",
     ast.Query(ast.Or(ast.Term("text", "quick"),
                      ast.Or(ast.Term("text", "brown"),
                             ast.Term("text", "fox"))),
               _SCORE_DESC, 100, ["score()"])),
    ("phrase",
     'find {text: ~="time work"} order score() desc return score() '
     "limit 100 ;",
     ast.Query(ast.Phrase("text", "time work"), _SCORE_DESC, 100,
               ["score()"])),
    ("proximity",
     'find {text: ~3="time work"} order score() desc limit 100 ;',
     ast.Query(ast.Proximity("text", "time work", 3), _SCORE_DESC, 100,
               ["_id"])),
    ("and_not",
     'find {text: ~="server", text: ~="error"} && !{role: =="system"} '
     "limit 1000 ;",
     ast.Query(ast.And([ast.And([ast.Term("text", "server"),
                                 ast.Term("text", "error")]),
                        ast.Not(ast.Exact("role", "system"))]),
               [], 1000, ["_id"])),
    ("exact_role",
     'find {role: =="assistant", text: ~="pipeline"^2} '
     "order score() desc limit 100 ;",
     ast.Query(ast.And([ast.Exact("role", "assistant"),
                        ast.Term("text", "pipeline", 2.0)]),
               _SCORE_DESC, 100, ["_id"])),
    ("field_order",
     'find {role: =="user"} order .ts desc, .conv_id limit 100 ;',
     ast.Query(ast.Exact("role", "user"),
               [ast.OrderKey(field="ts", desc=True),
                ast.OrderKey(field="conv_id")], 100, ["_id"])),
    ("return_id",
     'find {turn_idx: >= 1} return ._id ;',
     ast.Query(ast.RangeQ("turn_idx", min=1.0, min_inclusive=True),
               returns=["_id"])),
    ("return_field",
     'find {text: !~="fox", "a.b": ~="x"} return .text ;',
     ast.Query(ast.And([ast.Not(ast.Term("text", "fox")),
                        ast.Term("a.b", "x")]), returns=["text"])),
    ("return_score",
     'find {text: ~="fox"} return score() ;',
     ast.Query(ast.Term("text", "fox"), returns=["score()"])),
    ("aggregate",
     'find {role: =="user"} return {n: count(), s: sum(.turn_idx), '
     'g: group(.conv_id order=desc)} ;',
     ast.Query(ast.Exact("role", "user"), returns=ast.RetObject([
         ("n", ast.RetAgg("count")),
         ("s", ast.RetAgg("sum", "turn_idx")),
         ("g", ast.RetAgg("group", "conv_id", desc=True))]))),
    ("param",
     'find {role: ==@r, text: ~2=@p} return .text default="-" ;',
     ast.Query(ast.And([ast.Exact("role", "user"),
                        ast.Proximity("text", "quick fox", 2)]),
               returns=ast.RetPath("text", "-"))),
]

_PARAMS = {"r": "user", "p": "quick fox"}


@pytest.mark.parametrize("text,want", [c[1:] for c in LOWERED],
                         ids=[c[0] for c in LOWERED])
def test_flat_lowering(text, want):
    assert parse_query(text, _PARAMS) == want


REJECTED = [
    ("array_context", 'find {text: [~="a"]} ;', "Array contexts"),
    ("bind", 'find {x::[{text: ~="a"}]} ;', "Bind variables"),
    ("bbox", 'find {geo: && [0, 0, 1, 1]} ;', "Bounding-box"),
    ("nested_object", 'find {a: {b: ~="x"}} ;', "Nested keypath .a.b"),
    ("indexed_return", 'find {a: ~="x"} return .a[0] ;', r"Path \.a\[0\]"),
    ("limit_before_return", 'find {a: ~="x"} limit 3 return ._id ;',
     "Trailing input"),
    ("comma_returns", 'find {a: ~="x"} return ._id, score() ;',
     "Trailing input"),
    ("field_distribution", 'find {text: (~="a" || ~="b")} ;',
     "Expected object key"),
    ("limit_zero", 'find {a: ~="x"} limit 0 ;', "greater than 0"),
    ("float_proximity", 'find {a: ~2.5="x y"} ;', "Expected '='"),
]


@pytest.mark.parametrize("text,msg", [c[1:] for c in REJECTED],
                         ids=[c[0] for c in REJECTED])
def test_flat_rejects(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_query(text)
