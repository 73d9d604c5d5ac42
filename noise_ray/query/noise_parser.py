"""The noise query language: one grammar for flat and nested indexes.

:class:`NoiseParser` mirrors the reference grammar completely
(/root/reference/src/parser.rs:665-1307): keypaths built from nested
object/array contexts, array contexts ``[...]`` (each tracking its array
depth into the boolean operators), bind variables ``name::[...]``, the
full return grammar (keypaths ``.a.b[0]``, array fan-out ``[]``, quoted
keys ``.["a key"]``, bind returns, aggregates over keypaths or binds,
literals), order clauses on keypaths, ``default=``, boosts, parameters.
Boolean operators are right-associative with equal precedence, like the
reference's ``obool`` (src/parser.rs:733-746): ``a || b && c`` parses as
``Or(a, And(b, c))``.

:func:`parse_noise_query` returns that AST as is, for nested indexes:
leaf fields are keypath STRINGS (reference key shapes, e.g.
``.msgs$.text``) and And/Or/Not/Bind carry the array-context depth — see
json_engine.py for how that drives (seq, arraypath)-granular evaluation.

:func:`parse_query` is the flat-index front end: the same parse, lowered
to the flat schema (one column per top-level field).  Keypaths become
column names, a bare ``return .field`` / ``score()`` / ``.`` becomes a
one-element column list, and nested-only constructs (array contexts,
binds, bounding boxes, multi-segment or indexed paths) raise
:class:`ParseError`.
"""

from __future__ import annotations

import json as _json

from ..build.shred import escape_key, parse_kp, unescape_segment
from . import ast


class ParseError(ValueError):
    pass


def seg_to_key(segs: tuple) -> str:
    """ReturnPath::to_key (src/returnable.rs:39-62)."""
    out = []
    for s in segs:
        if s[0] == "k":
            out.append(".")
            for c in s[1]:
                if c in "\\$.":
                    out.append("\\")
                out.append(c)
        elif s[0] == "i":
            out.append(f"${s[1]}")
        else:
            out.append("$*")
    return "".join(out)


class NoiseParser:
    def __init__(self, text: str, params: dict | None = None):
        self.text = text
        self.pos = 0
        self.params = params or {}
        self.kb: list[str] = []  # escaped segments + "$" markers

    # ------------------------------------------------------------ lexing

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def consume(self, tok: str) -> bool:
        self._ws()
        return self.consume_no_ws(tok)

    def consume_no_ws(self, tok: str) -> bool:
        if self.text.startswith(tok, self.pos):
            if tok[-1].isalpha():
                end = self.pos + len(tok)
                if end < len(self.text) and (
                    self.text[end].isalnum() or self.text[end] in "_$"
                ):
                    return False
            self.pos += len(tok)
            return True
        return False

    def could_consume(self, tok: str) -> bool:
        self._ws()
        return self.text.startswith(tok, self.pos)

    def must_consume(self, tok: str):
        """Error messages match the reference byte for byte
        (src/parser.rs:88-108) — the character offset also matches,
        because the reference eats whitespace after matched tokens and we
        skip it before, which coincide at every error point."""
        self._ws()
        if not self.consume_no_ws(tok):
            if self.pos == len(self.text):
                raise ParseError(
                    f"Expected '{tok}' at character {self.pos} but query "
                    "string ended.")
            raise ParseError(
                f"Expected '{tok}' at character {self.pos}, "
                f"found {self.text[self.pos]}.")

    def consume_field(self) -> str | None:
        """Identifier: alpha/_/$ start, alnum/_/$ continue
        (src/parser.rs:124-149)."""
        self._ws()
        p = self.pos
        if p < len(self.text) and (self.text[p].isalpha()
                                   or self.text[p] in "_$"):
            q = p + 1
            while q < len(self.text) and (self.text[q].isalnum()
                                          or self.text[q] in "_$"):
                q += 1
            self.pos = q
            return self.text[p:q]
        return None

    def consume_key(self) -> str | None:
        f = self.consume_field()
        if f is not None:
            return f
        if self.could_consume('"'):
            return self.must_consume_string_literal()
        return None

    def maybe_param(self):
        """Returns ("ok", name, value); error messages match
        src/parser.rs:172-215."""
        self._ws()
        if self.pos < len(self.text) and self.text[self.pos] == "@":
            self.pos += 1
            name = self.consume_field()
            if name is None:
                raise ParseError("No parameter name after @.")
            if name not in self.params:
                raise ParseError(f"No matching parameter for @{name}.")
            v = self.params[name]
            if isinstance(v, (dict, list)):
                raise ParseError(
                    "Parameterized query values must be String, Number, "
                    "True, False or Null")
            return ("ok", name, v)
        return None

    def must_consume_string_literal(self) -> str:
        p = self.maybe_param()
        if p is not None:
            if not isinstance(p[2], str):
                raise ParseError(f"Parameter @{p[1]} must be a string.")
            return p[2]
        self._ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            raise ParseError(f"Expected string literal at offset {self.pos}")
        end = self.pos + 1
        while end < len(self.text):
            if self.text[end] == "\\":
                end += 2
                continue
            if self.text[end] == '"':
                break
            end += 1
        raw = self.text[self.pos: end + 1]
        self.pos = end + 1
        try:
            return _json.loads(raw)
        except Exception as e:
            raise ParseError(f"Bad string literal {raw!r}: {e}") from e

    def consume_string_literal(self) -> str | None:
        self._ws()
        if (self.pos < len(self.text)
                and self.text[self.pos] in '"@'):
            return self.must_consume_string_literal()
        return None

    def consume_number(self) -> float | None:
        self._ws()
        start = self.pos
        p = start
        if p < len(self.text) and self.text[p] in "+-":
            p += 1
        digits = p
        while p < len(self.text) and (self.text[p].isdigit()
                                      or self.text[p] in ".eE+-"):
            if self.text[p] in "+-" and self.text[p - 1] not in "eE":
                break
            p += 1
        if p == digits:
            return None
        try:
            v = float(self.text[start:p])
        except ValueError:
            return None
        self.pos = p
        return v

    def consume_integer(self) -> int | None:
        """Leading ASCII digits ONLY (src/parser.rs:217-233): ``2.5``
        parses as 2 leaving ``.5`` to fail downstream, exactly like the
        reference — never a silent float truncation."""
        self._ws()
        p = self.pos
        while p < len(self.text) and "0" <= self.text[p] <= "9":
            p += 1
        if p == self.pos:
            return None
        v = int(self.text[self.pos: p])
        self.pos = p
        return v

    def consume_json_primitive(self):
        p = self.maybe_param()
        if p is not None:
            return p[2]
        self._ws()
        if self.pos < len(self.text) and self.text[self.pos] == '"':
            return self.must_consume_string_literal()
        if self.consume("true"):
            return True
        if self.consume("false"):
            return False
        if self.consume("null"):
            return None
        v = self.consume_number()
        if v is None:
            raise ParseError(f"Expected JSON primitive at offset {self.pos}")
        return v

    def consume_json(self):
        """Any JSON value (src/parser.rs:1309-1390): the reference's own
        json grammar, which allows UNQUOTED object keys (consume_key) and
        preserves key order as written."""
        self._ws()
        if self.could_consume("{"):
            self.must_consume("{")
            obj: dict = {}
            if self.consume("}"):
                return obj
            while True:
                key = self.consume_key()
                if key is None:
                    raise ParseError("Invalid json found")
                self.must_consume(":")
                obj[key] = self.consume_json()
                if not self.consume(","):
                    break
            self.must_consume("}")
            return obj
        if self.could_consume("["):
            self.must_consume("[")
            arr: list = []
            if self.consume("]"):
                return arr
            while True:
                arr.append(self.consume_json())
                if not self.consume(","):
                    break
            self.must_consume("]")
            return arr
        return self.consume_json_primitive()

    def consume_default(self):
        if self.consume("default"):
            self.must_consume("=")
            return self.consume_json()
        return None

    def consume_boost(self) -> float:
        if self.consume("^"):
            v = self.consume_number()
            if v is None:
                raise ParseError("Expected number after ^ symbol.")
            return v
        return 1.0

    def _boost_wrap(self, node: ast.Node) -> ast.Node:
        b = self.consume_boost()
        return ast.Boost(node, b) if b != 1.0 else node

    # --------------------------------------------------------- keybuilder

    def kp(self) -> str:
        return "".join(self.kb)

    def depth(self) -> int:
        return sum(1 for s in self.kb if s == "$")

    # ------------------------------------------------------------ grammar

    def parse(self) -> ast.Query:
        self.must_consume("find")
        node = self.not_object()
        order = self.order_clause()
        returns = self.return_clause()
        limit = self.limit_clause()
        self.consume(";")
        self._ws()
        if self.pos != len(self.text):
            raise ParseError(f"Trailing input at offset {self.pos}")
        q = ast.Query(filter=node, order=order, limit=limit, returns=returns)
        _validate(q)
        return q

    def not_object(self) -> ast.Node:
        if self.consume("!"):
            f = self.object()
            return ast.Not(f, self.kp(), self.depth())
        return self.object()

    def object(self) -> ast.Node:
        if self.consume("{"):
            if self.consume("}"):
                left: ast.Node = ast.AllDocs()
            else:
                left = self.obool()
                self.must_consume("}")
            left = self._boost_wrap(left)
            if self.consume("&&"):
                return ast.And([left, self.not_object()], self.depth())
            if self.consume("||"):
                return ast.Or(left, self.not_object(), self.depth())
            return left
        return self.parens()

    def parens(self) -> ast.Node:
        if self.consume("!"):
            f = self.parens()
            return ast.Not(f, self.kp(), self.depth())
        self.must_consume("(")
        f = self.object()
        self.must_consume(")")
        return self._boost_wrap(f)

    def obool(self) -> ast.Node:
        left = self.ocompare()
        if self.consume("&&") or self.consume(","):
            return ast.And([left, self.obool()], self.depth())
        if self.consume("||"):
            return ast.Or(left, self.obool(), self.depth())
        return left

    def ocompare(self) -> ast.Node:
        f = self.oparens()
        if f is not None:
            return f
        key = self.consume_key()
        if key is None:
            raise ParseError("Expected object key or '('")
        self.kb.append(escape_key(key))
        try:
            self.must_consume(":")
            f = self.oparens()
            if f is not None:
                return f
            return self.compare()
        finally:
            self.kb.pop()

    def oparens(self) -> ast.Node | None:
        save = self.pos
        if self.consume("!"):
            f = self.oparens()
            if f is not None:
                return ast.Not(f, self.kp(), self.depth())
            self.pos = save
            return None
        if self.consume("("):
            f = self.obool()
            self.must_consume(")")
            return self._boost_wrap(f)
        if self.could_consume("["):
            return self.array()
        if self.could_consume("{"):
            return self.object()
        return self.bind_var()

    def compare(self) -> ast.Node:
        f = self.equal()
        if f is not None:
            return f
        f = self.stemmed()
        if f is not None:
            return f
        if self.consume("&&"):
            # GeoJSON bounding-box intersection (src/parser.rs:983-995)
            return ast.BboxQ(self.kp(), *self.consume_bbox())
        if self.consume(">"):
            inclusive = self.consume("=")
            v = self._range_number()
            return ast.RangeQ(self.kp(), min=v, min_inclusive=inclusive)
        if self.consume("<"):
            inclusive = self.consume("=")
            v = self._range_number()
            return ast.RangeQ(self.kp(), max=v, max_inclusive=inclusive)
        raise ParseError("Expected comparison operator")

    def consume_bbox(self) -> tuple:
        """``[west, south, east, north]`` — exactly four numbers, parsed
        with the reference's own json grammar (src/parser.rs:262-285)."""
        err = "Bounding box needs to be `[west, south, east, north]`."
        self._ws()
        self.must_consume("[")
        vec: list = []
        if not self.consume("]"):
            while True:
                vec.append(self.consume_json())
                if not self.consume(","):
                    break
            self.must_consume("]")
        if len(vec) != 4 or any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in vec):
            raise ParseError(err)
        return tuple(float(v) for v in vec)

    def _range_number(self) -> float:
        v = self.consume_json_primitive()
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParseError(
                "Range operator on non-number JSON types is not yet "
                "implemented!")
        return float(v)

    def equal(self) -> ast.Node | None:
        not_equal = self.consume("!=")
        if not not_equal and not self.consume("=="):
            return None
        v = self.consume_json_primitive()
        self.consume_boost()  # parsed; exact/range scores are binary
        kp = self.kp()
        if isinstance(v, str):
            f: ast.Node = ast.Exact(kp, v)
        elif v is True:
            f = ast.RangeQ(kp, special="true")
        elif v is False:
            f = ast.RangeQ(kp, special="false")
        elif v is None:
            f = ast.RangeQ(kp, special="null")
        else:
            f = ast.RangeQ(kp, min=float(v), max=float(v))
        return ast.Not(f, kp, self.depth()) if not_equal else f

    def stemmed(self) -> ast.Node | None:
        not_stemmed = self.consume("!~=")
        if not_stemmed or self.consume("~="):
            literal = self.must_consume_string_literal()
            boost = self.consume_boost()
            kp = self.kp()
            from ..analysis.tokenizer import tokenize

            toks = tokenize(literal)
            if len(toks) == 1:
                f: ast.Node = ast.Term(kp, literal, boost)
            else:
                f = ast.Phrase(kp, literal, boost)
            return ast.Not(f, kp, self.depth()) if not_stemmed else f
        if self.consume("~"):
            dist = self.consume_integer()
            if dist is None:
                raise ParseError("Expected integer for proximity search")
            self.must_consume("=")
            literal = self.must_consume_string_literal()
            boost = self.consume_boost()
            return ast.Proximity(self.kp(), literal, dist, boost)
        return None

    def abool(self) -> ast.Node:
        left = self.acompare()
        if self.consume("&&") or self.consume(","):
            return ast.And([left, self.abool()], self.depth())
        if self.consume("||"):
            return ast.Or(left, self.abool(), self.depth())
        return left

    def acompare(self) -> ast.Node:
        f = self.aparens()
        if f is not None:
            return f
        return self.compare()

    def aparens(self) -> ast.Node | None:
        save = self.pos
        if self.consume("!"):
            f = self.aparens()
            if f is not None:
                return ast.Not(f, self.kp(), self.depth())
            self.pos = save
            return None
        if self.consume("("):
            f = self.abool()
            self.must_consume(")")
            return self._boost_wrap(f)
        if self.could_consume("["):
            return self.array()
        if self.could_consume("{"):
            return self.object()
        return self.bind_var()

    def bind_var(self) -> ast.Node | None:
        save = self.pos
        name = self.consume_field()
        if name is not None:
            if self.consume("::"):
                f = self.array()
                self.kb.append("$")
                kp = self.kp()
                depth = self.depth()
                self.kb.pop()
                return ast.Bind(name, f, kp, depth)
            self.pos = save
        return None

    def array(self) -> ast.Node:
        self.must_consume("[")
        self.kb.append("$")
        try:
            f = self.abool()
        finally:
            self.kb.pop()
        self.must_consume("]")
        return self._boost_wrap(f)

    # ------------------------------------------------- order/return/limit

    def _field_no_ws(self) -> str | None:
        """consume_field without a leading-whitespace skip: keypath keys
        must be glued to their dot (the reference's consume_field reads
        raw chars; ``return . ;`` is the whole doc, not a path)."""
        p = self.pos
        if p < len(self.text) and (self.text[p].isalpha()
                                   or self.text[p] in "_$"):
            q = p + 1
            while q < len(self.text) and (self.text[q].isalnum()
                                          or self.text[q] in "_$"):
                q += 1
            self.pos = q
            return self.text[p:q]
        return None

    def consume_keypath(self) -> tuple | None:
        """ReturnPath grammar (src/parser.rs:342-392): leading ``.``,
        quoted or bare keys, ``[N]`` indices, ``[]`` fan-out; a bare ``.``
        is the whole document (empty path)."""
        self._ws()
        if not self.consume_no_ws("."):
            return None
        # the quoted-key bracket must be GLUED to the dot, like the key
        # itself (the reference eats whitespace only after matched tokens,
        # so `.` + newline is the whole-doc path, not a path continuation)
        if self.consume_no_ws("["):
            key = self.must_consume_string_literal()
            self.must_consume("]")
        else:
            key = self._field_no_ws()
            if key is None:
                return ()  # whole document
        segs = [("k", key)]
        while True:
            if self.consume("["):
                idx = self.consume_integer()
                if idx is not None:
                    self.must_consume("]")
                    segs.append(("i", idx))
                elif self.consume("]"):
                    segs.append(("*",))
                else:
                    raise ParseError("Expected array index integer or *.")
            elif self.consume("."):
                key = self._field_no_ws()
                if key is None:
                    raise ParseError("Expected object key.")
                segs.append(("k", key))
            else:
                break
        return tuple(segs)

    def order_clause(self) -> list[ast.OrderKey]:
        if not self.consume("order"):
            return []
        by_key: dict[str, tuple[int, ast.OrderKey]] = {}
        n = 0
        while True:
            segs = self.consume_keypath()
            if segs is not None:
                desc = self._asc_desc()
                default = self.consume_default()
                if self.consume("desc"):
                    desc = True
                elif self.consume("asc"):
                    desc = False
                by_key[seg_to_key(segs)] = (n, ast.OrderKey(
                    field=segs, desc=desc, default=default))
            else:
                self.must_consume("score")
                self.must_consume("(")
                self.must_consume(")")
                desc = self._asc_desc()
                by_key["score()"] = (n, ast.OrderKey(score=True, desc=desc))
            if not self.consume(","):
                break
            n += 1
        if not by_key:
            raise ParseError("Expected field path in order expression.")
        return [k for _, k in sorted(by_key.values(), key=lambda t: t[0])]

    def _asc_desc(self) -> bool:
        if self.consume("desc"):
            return True
        self.consume("asc")
        return False

    def return_clause(self):
        if self.consume("return"):
            rv = self.ret_value()
            if rv is None:
                raise ParseError("Expected key, object or array to return.")
            return rv
        return ast.RetPath((("k", "_id"),), None)

    def ret_value(self):
        if self.consume("true"):
            return ast.RetLiteral(True)
        if self.consume("false"):
            return ast.RetLiteral(False)
        if self.consume("null"):
            return ast.RetLiteral(None)
        if self.could_consume("score"):
            save = self.pos
            self.consume("score")
            if self.consume("("):
                self.must_consume(")")
                return ast.RetScore()
            self.pos = save
        agg = self.consume_aggregate()
        if agg is not None:
            agg.default = self.consume_default()
            return agg
        bind_name = self.consume_field()
        if bind_name is not None:
            segs = self.consume_keypath() or ()
            default = self.consume_default()
            return ast.RetBind(bind_name, segs, default)
        segs = self.consume_keypath()
        if segs is not None:
            default = self.consume_default()
            return ast.RetPath(segs, default)
        if self.could_consume("{"):
            return self.ret_object()
        if self.could_consume("["):
            return self.ret_array()
        s = self.consume_string_literal()
        if s is not None:
            return ast.RetLiteral(s)
        v = self.consume_number()
        if v is not None:
            return ast.RetLiteral(v)
        return None

    def ret_object(self) -> ast.RetObject:
        self.must_consume("{")
        items = []
        while True:
            name = self.consume_key()
            if name is None:
                break
            self.must_consume(":")
            rv = self.ret_value()
            if rv is None:
                raise ParseError("Expected key to return.")
            items.append((name, rv))
            if not self.consume(","):
                break
        self.must_consume("}")
        return ast.RetObject(items)

    def ret_array(self) -> ast.RetArray:
        self.must_consume("[")
        items = []
        while True:
            rv = self.ret_value()
            if rv is None:
                break
            items.append(rv)
            if not self.consume(","):
                break
        self.must_consume("]")
        return ast.RetArray(items)

    _AGG_FUNS = ("group", "sum", "max_array", "max", "min_array", "min",
                 "array_flat", "array", "concat", "avg", "count")

    def consume_aggregate(self) -> ast.RetAgg | None:
        save = self.pos
        fun = None
        for f in self._AGG_FUNS:
            if self.consume(f):
                fun = f
                break
        if fun is None:
            return None
        if not self.consume("("):
            self.pos = save  # might be a bind variable name
            return None
        if fun == "count":
            self.must_consume(")")
            return ast.RetAgg("count")
        bind_name = self.consume_field()
        segs = self.consume_keypath()
        if segs is None:
            raise ParseError("Expected keypath or bind variable")
        if fun == "concat":
            sep = ","
            if self.consume("sep"):
                self.must_consume("=")
                sep = self.must_consume_string_literal()
            self.must_consume(")")
            return ast.RetAgg("concat", segs, sep=sep, bind=bind_name)
        desc = False
        if self.consume("order"):
            self.must_consume("=")
            if self.consume("desc"):
                fun, desc = "group", True
            elif self.consume("asc"):
                fun, desc = "group", False
            else:
                raise ParseError("Expected asc or desc")
        self.must_consume(")")
        return ast.RetAgg(fun, segs, desc=desc, bind=bind_name)

    def limit_clause(self) -> int | None:
        if self.consume("limit"):
            i = self.consume_integer()
            if i is None or i <= 0:
                raise ParseError("limit must be an integer greater than 0")
            return i
        return None


def ret_leaves(expr) -> list:
    """Flatten a RetExpr tree to its leaf slots, left to right."""
    if isinstance(expr, ast.RetObject):
        out = []
        for _name, e in expr.items:
            out.extend(ret_leaves(e))
        return out
    if isinstance(expr, ast.RetArray):
        out = []
        for e in expr.items:
            out.extend(ret_leaves(e))
        return out
    return [expr]


def render_tree(expr, it):
    """Refill a RetExpr tree from an iterator over its leaf values (the
    inverse of ``ret_leaves``)."""
    if isinstance(expr, ast.RetObject):
        return {name: render_tree(e, it) for name, e in expr.items}
    if isinstance(expr, ast.RetArray):
        return [render_tree(e, it) for e in expr.items]
    return next(it)


def _validate(q: ast.Query):
    """src/query.rs:242-290: aggregates exclude ordering, and when any
    aggregate is present every fetched leaf must be aggregated/grouped."""
    leaves = ret_leaves(q.returns)
    has_ags = any(isinstance(l, ast.RetAgg) for l in leaves)
    if not has_ags:
        return
    if q.order:
        raise ParseError(
            "Cannot have aggregates and ordering in the same query")
    for l in leaves:
        if isinstance(l, (ast.RetPath, ast.RetScore, ast.RetBind)) and not \
                isinstance(l, ast.RetAgg):
            raise ParseError(
                "Return keypaths must either all have aggregate functions, "
                "or none can them.")


def parse_noise_query(text: str, params: dict | None = None) -> ast.Query:
    return NoiseParser(text, params).parse()


# ------------------------------------------------- flat-schema lowering

_LEAVES = (ast.Term, ast.Phrase, ast.Proximity, ast.Exact, ast.RangeQ)


def _flat_only(what: str) -> ParseError:
    return ParseError(f"{what} not supported on a flat index (flat schema: "
                      "one column per top-level field)")


def _kp_column(kp: str) -> str:
    segs = parse_kp(kp)
    if len(segs) == 1 and segs[0][0] == ".":
        return unescape_segment(segs[0])
    if "$" in segs:
        raise _flat_only("Array contexts [...] are")
    raise _flat_only(f"Nested keypath {kp} is")


def _path_column(segs: tuple) -> str:
    if len(segs) == 1 and segs[0][0] == "k":
        return segs[0][1]
    text = "".join(f".{s[1]}" if s[0] == "k" else f"[{s[1]}]" if s[0] == "i"
                   else "[]" for s in segs)
    raise _flat_only(f"Path {text or '.'} is")


def _flat_filter(node: ast.Node):
    """Lower a freshly parsed filter tree to column names, in place."""
    if isinstance(node, _LEAVES):
        node.field = _kp_column(node.field)
    elif isinstance(node, (ast.And, ast.Or, ast.Not)):
        if node.depth:
            raise _flat_only("Array contexts [...] are")
        if isinstance(node, ast.And):
            for c in node.clauses:
                _flat_filter(c)
        elif isinstance(node, ast.Or):
            _flat_filter(node.left)
            _flat_filter(node.right)
        else:
            node.kp = ""
            _flat_filter(node.inner)
    elif isinstance(node, ast.Boost):
        _flat_filter(node.inner)
    elif isinstance(node, ast.Bind):
        raise _flat_only("Bind variables name::[...] are")
    elif isinstance(node, ast.BboxQ):
        raise _flat_only("Bounding-box && [west, south, east, north] is")


def _flat_returns(r):
    """A bare path or ``score()`` becomes the executor's one-element column
    list; any other return tree keeps its shape with column-name leaves."""
    if isinstance(r, ast.RetScore):
        return ["score()"]
    if isinstance(r, ast.RetPath) and r.default is None:
        return [_path_column(r.field) if r.field else "."]
    for leaf in ret_leaves(r):
        if isinstance(leaf, ast.RetBind) or (isinstance(leaf, ast.RetAgg)
                                             and leaf.bind):
            raise _flat_only("Bind variable returns are")
        if isinstance(leaf, (ast.RetPath, ast.RetAgg)) and \
                leaf.field is not None:
            leaf.field = _path_column(leaf.field)
    return r


def parse_query(text: str, params: dict | None = None) -> ast.Query:
    """Parse a query for a flat index: the full grammar, lowered to
    column names (see the module docstring)."""
    q = NoiseParser(text, params).parse()
    _flat_filter(q.filter)
    for k in q.order:
        if not k.score:
            k.field = _path_column(k.field)
    q.returns = _flat_returns(q.returns)
    return q
