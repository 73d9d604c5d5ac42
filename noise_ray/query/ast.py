"""Query AST for the noise query language.

Mirrors the filter tree the reference parser instantiates directly
(/root/reference/src/parser.rs:665-995): term / phrase / proximity / exact /
range comparisons composed with and/or/not and per-clause boosts.  The AST is
the public programmatic query API (the reference has none beyond the textual
language).

Flat vs nested: one parser (noise_parser.py) builds every tree.  Nested
queries keep its keypath strings (``.msgs$.text``), path tuples and
array-context depths; flat queries are lowered to the flat schema, where
every ``field`` is a plain column name, depths are 0 and keypath contexts
are empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence, Union


@dataclass
class Term:
    """``field: ~= "word"`` with a single analyzed token
    (StemmedWordFilter, src/filters.rs:82-130).  ``word`` is the raw token;
    it is analyzed (stemmed) at compile time."""
    field: str
    word: str
    boost: float = 1.0


@dataclass
class Phrase:
    """``field: ~= "multi word"`` (StemmedPhraseFilter, src/filters.rs:175-272)."""
    field: str
    text: str
    boost: float = 1.0


@dataclass
class Proximity:
    """``field: ~N= "words near"`` (DistanceFilter, src/filters.rs:588-726)."""
    field: str
    text: str
    distance: int
    boost: float = 1.0


@dataclass
class Exact:
    """``field: == "literal"`` — phrase match then case-sensitive whole-value
    equality, binary score (ExactMatchFilter, src/filters.rs:274-377)."""
    field: str
    literal: str


@dataclass
class RangeQ:
    """``field: > x`` etc. on numbers, or ``== true/false/null``
    (RangeFilter, src/filters.rs:379-501).  Binary score."""
    field: str
    min: Optional[float] = None
    max: Optional[float] = None
    min_inclusive: bool = True
    max_inclusive: bool = True
    # special: "true" | "false" | "null" for boolean/null equality
    special: Optional[str] = None


@dataclass
class BboxQ:
    """``field: && [west, south, east, north]`` — GeoJSON bounding-box
    intersection against the shredded ``r`` entries (BboxFilter,
    src/filters.rs:503-586).  Binary score.  Nested queries only."""
    field: str
    west: float
    south: float
    east: float
    north: float


@dataclass
class AllDocs:
    """``{}`` — every doc, binary score.  The reference's AllDocsFilter
    hardcodes its score into ordinal 1 (src/filters.rs:58-63), a quirk we
    replicate."""


@dataclass
class And:
    """``depth`` is the array context depth at the AND (the reference
    resizes each side's arraypath to ``kb.arraypath_len()`` before
    comparing, src/filters.rs:727-782).  Always 0 in flat queries."""
    clauses: Sequence["Node"]
    depth: int = 0


@dataclass
class Or:
    left: "Node"
    right: "Node"
    depth: int = 0


@dataclass
class Not:
    """``kp``/``depth`` carry the keypath context at the ``!`` (the
    reference clones its KeyBuilder into NotFilter, src/filters.rs:951-962)
    — candidates are enumerated at that granularity and their existence
    checked under that keypath.  Empty/0 in flat queries."""
    inner: "Node"
    kp: str = ""
    depth: int = 0


@dataclass
class Bind:
    """``name::[...]`` bind variable (BindFilter, src/filters.rs:1068-1152):
    passes the array filter through at doc granularity, collecting each
    matched instance's value key under ``kp`` (the bound keypath WITH its
    trailing array marker).  Nested queries only."""
    name: str
    inner: "Node"
    kp: str
    depth: int


@dataclass
class Boost:
    """``(...)^n`` — multiplies accumulated scores (BoostFilter,
    src/filters.rs:1154-1195)."""
    inner: "Node"
    factor: float


Node = Union[Term, Phrase, Proximity, Exact, RangeQ, BboxQ, AllDocs, And,
             Or, Not, Boost, Bind]


@dataclass
class OrderKey:
    """One order-by key: score() or a field, asc/desc.  ``field`` is a
    column name in flat queries, a path tuple (see RetPath) in nested ones."""
    score: bool = False
    field: object = None
    desc: bool = False
    default: object = None


# ------------------------------------------------------- return clause tree
# Mirrors the reference's Returnable family (src/returnable.rs).

@dataclass
class RetPath:
    """`.field [default=json]` — fetch a doc field
    (src/returnable.rs:295-343).

    ``field`` is a column name in flat queries; in nested queries it
    is a PATH: a tuple of segments ``('k', key)`` / ``('i', index)`` /
    ``('*',)`` mirroring the reference's ReturnPath
    (src/returnable.rs:10-72), the empty tuple meaning the whole doc."""
    field: object
    default: object = None


@dataclass
class RetBind:
    """`name[.extra.path]` in a return clause — the values bound by a
    ``name::[...]`` filter (RetBind, src/returnable.rs:346-404); always
    renders as an array, one element per bound instance.  Nested only."""
    name: str
    extra: tuple = ()
    default: object = None


@dataclass
class RetScore:
    """`score()` (src/returnable.rs:405-440)."""


@dataclass
class RetLiteral:
    """JSON literal constant (src/returnable.rs:261-291)."""
    value: object


@dataclass
class RetAgg:
    """`fun(.field ...) [default=json]` — group/aggregate slot
    (src/aggregates.rs, src/parser.rs:250-340).  ``fun`` is one of
    group/sum/max/max_array/min/min_array/array/array_flat/concat/avg/count;
    ``desc`` applies to group ordering, ``sep`` to concat."""
    fun: str
    field: object = None         # str (flat) or path tuple (nested)
    sep: Optional[str] = None
    default: object = None
    desc: bool = False
    bind: Optional[str] = None   # aggregate over a bind variable's values


@dataclass
class RetObject:
    """`{name: expr, ...}` (src/returnable.rs:119-162)."""
    items: list  # list[tuple[str, RetExpr]]


@dataclass
class RetArray:
    """`[expr, ...]` (src/returnable.rs:165-208)."""
    items: list  # list[RetExpr]


RetExpr = Union[RetPath, RetBind, RetScore, RetLiteral, RetAgg, RetObject,
                RetArray]


@dataclass
class Query:
    filter: Node
    order: list[OrderKey] = dc_field(default_factory=list)
    limit: Optional[int] = None
    # a RetExpr tree; flat queries lower a bare ``return .field`` /
    # ``score()`` / ``.`` (and the implicit ``return ._id``) to a
    # one-element column list such as ``["_id"]``; None = ``["_id"]``
    returns: object = None
