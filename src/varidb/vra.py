"""Variational relational algebra: syntax trees, text grammar, and walkers.

Queries are ordinary relational algebra (selection, projection, product,
join, union, difference, relation references, the empty relation) extended
with two variational forms: a binary choice between subqueries guarded by a
feature expression, and the same choice form inside selection/join
conditions.  Projection lists are variational sets of attribute names, so a
single projected attribute can itself be conditional.

Concrete syntax (whitespace-insensitive, one-token lookahead):

    query ::= rel NAME | NAME              -- relation reference
            | sel ( cond ) query
            | proj [ item, ... ] query     -- item ::= ATTR [# fexp]
            | choice fexp { query } { query }
            | join ( cond ) query query
            | prod query query
            | union query query
            | diff query query
            | empty

    cond  ::= cond "|" cond | cond "&" cond | "!" cond | "(" cond ")"
            | true | false
            | ATTR op const | ATTR op ATTR -- op ∈ =, !=, <, <=, >, >=
            | CHC fexp ( cond ) ( cond )

    ATTR  ::= NAME | NAME . NAME           -- optional relation qualifier

A *plain* query is one with no choices anywhere and no conditional projection
items — equivalently, `free_features(q)` is empty; configuration always
produces one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .featexpr import (
    TRUE,
    FeatExpr,
    ParseError,
    _skip_ws,
    features_of,
    parse_fexp_partial,
    print_fexp,
)
from .vset import _NAME, VElem, VSet, parse_value, print_vset

# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class VCondition:
    __slots__ = ()


@dataclass(frozen=True)
class CondLit(VCondition):
    value: bool


@dataclass(frozen=True)
class AttrRef:
    name: str
    qualifier: str | None = None

    def text(self) -> str:
        return self.name if self.qualifier is None else f"{self.qualifier}.{self.name}"


@dataclass(frozen=True)
class Const:
    value: int | str | bool


@dataclass(frozen=True)
class CompareAttrConst(VCondition):
    attr: AttrRef
    op: str
    const: Const


@dataclass(frozen=True)
class CompareAttrAttr(VCondition):
    attr1: AttrRef
    op: str
    attr2: AttrRef


@dataclass(frozen=True)
class CondNot(VCondition):
    operand: VCondition


@dataclass(frozen=True)
class CondAnd(VCondition):
    left: VCondition
    right: VCondition


@dataclass(frozen=True)
class CondOr(VCondition):
    left: VCondition
    right: VCondition


@dataclass(frozen=True)
class CondChoice(VCondition):
    dim: FeatExpr
    left: VCondition
    right: VCondition


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


class VQuery:
    __slots__ = ()


@dataclass(frozen=True)
class Relation(VQuery):
    name: str


@dataclass(frozen=True)
class Select(VQuery):
    cond: VCondition
    sub: VQuery


@dataclass(frozen=True)
class Project(VQuery):
    attrs: VSet  # values are attribute names, possibly "qualifier.name"
    sub: VQuery


@dataclass(frozen=True)
class Choice(VQuery):
    dim: FeatExpr
    left: VQuery
    right: VQuery


@dataclass(frozen=True)
class Join(VQuery):
    cond: VCondition
    left: VQuery
    right: VQuery


@dataclass(frozen=True)
class Product(VQuery):
    left: VQuery
    right: VQuery


@dataclass(frozen=True)
class SetOp(VQuery):
    kind: str  # "union" | "difference"
    left: VQuery
    right: VQuery

    def __post_init__(self):
        if self.kind not in ("union", "difference"):
            raise ValueError(f"unknown set operation {self.kind!r}")


@dataclass(frozen=True)
class Empty(VQuery):
    pass


EMPTY = Empty()

#: Alias for documentation: a VQuery with free_features(q) == set().
PlainQuery = VQuery

_RESERVED_WORDS = frozenset(
    ["rel", "sel", "proj", "choice", "join", "prod", "union", "diff", "empty",
     "true", "false", "CHC"]
)


def free_features(x) -> frozenset[str]:
    """Every feature name in any choice dimension or projection condition."""
    out: set[str] = set()
    _collect_features(x, out)
    return frozenset(out)


def _collect_features(x, out: set[str]) -> None:
    if isinstance(x, FeatExpr):
        out |= features_of(x)
    elif isinstance(x, VSet):
        for el in x:
            out |= features_of(el.pc)
        out |= features_of(x.annotation)
    elif isinstance(x, Relation) or isinstance(x, Empty):
        pass
    elif isinstance(x, Select):
        _collect_features(x.cond, out)
        _collect_features(x.sub, out)
    elif isinstance(x, Project):
        for el in x.attrs:
            out |= features_of(el.pc)
        out |= features_of(x.attrs.annotation)
        _collect_features(x.sub, out)
    elif isinstance(x, Choice):
        out |= features_of(x.dim)
        _collect_features(x.left, out)
        _collect_features(x.right, out)
    elif isinstance(x, Join):
        _collect_features(x.cond, out)
        _collect_features(x.left, out)
        _collect_features(x.right, out)
    elif isinstance(x, (Product, SetOp)):
        _collect_features(x.left, out)
        _collect_features(x.right, out)
    elif isinstance(x, CondChoice):
        out |= features_of(x.dim)
        _collect_features(x.left, out)
        _collect_features(x.right, out)
    elif isinstance(x, (CondNot,)):
        _collect_features(x.operand, out)
    elif isinstance(x, (CondAnd, CondOr)):
        _collect_features(x.left, out)
        _collect_features(x.right, out)
    elif isinstance(x, VCondition):
        pass
    else:
        raise TypeError(f"cannot collect features from {x!r}")


def is_plain_query(q: VQuery) -> bool:
    return not free_features(q)


def plain_key(q: VQuery):
    """Structural identity key for plain queries, order-insensitive in
    projection lists (two projections of the same names in different orders
    count as the same plain query)."""
    if isinstance(q, Relation):
        return ("rel", q.name)
    if isinstance(q, Empty):
        return ("empty",)
    if isinstance(q, Select):
        return ("sel", q.cond, plain_key(q.sub))
    if isinstance(q, Project):
        return ("proj", tuple(sorted(str(v) for v in q.attrs.values())), plain_key(q.sub))
    if isinstance(q, Join):
        return ("join", q.cond, plain_key(q.left), plain_key(q.right))
    if isinstance(q, Product):
        return ("prod", plain_key(q.left), plain_key(q.right))
    if isinstance(q, SetOp):
        return ("setop", q.kind, plain_key(q.left), plain_key(q.right))
    raise ValueError(f"not a plain query form: {q!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_query(q: VQuery) -> str:
    if isinstance(q, Relation):
        # `rel` prefix only where a bare name would read as a keyword
        return f"rel {q.name}" if q.name in _RESERVED_WORDS else q.name
    if isinstance(q, Empty):
        return "empty"
    if isinstance(q, Select):
        return f"sel ({print_cond(q.cond)}) {print_query(q.sub)}"
    if isinstance(q, Project):
        return f"proj [{_print_proj_items(q.attrs)}] {print_query(q.sub)}"
    if isinstance(q, Choice):
        return (
            f"choice {print_fexp(q.dim)} "
            f"{{ {print_query(q.left)} }} {{ {print_query(q.right)} }}"
        )
    if isinstance(q, Join):
        return f"join ({print_cond(q.cond)}) {print_query(q.left)} {print_query(q.right)}"
    if isinstance(q, Product):
        return f"prod {print_query(q.left)} {print_query(q.right)}"
    if isinstance(q, SetOp):
        kw = "union" if q.kind == "union" else "diff"
        return f"{kw} {print_query(q.left)} {print_query(q.right)}"
    raise TypeError(f"not a query: {q!r}")


def _print_proj_items(attrs: VSet) -> str:
    if attrs.annotation != TRUE:
        raise ValueError(
            f"projection lists carry conditions per attribute, not on the "
            f"whole set: {print_vset(attrs)}"
        )
    parts = []
    for el in attrs:
        item = str(el.value)
        if el.pc != TRUE:
            item += " # " + print_fexp(el.pc)
        parts.append(item)
    return ", ".join(parts)


_COND_PREC_OR, _COND_PREC_AND, _COND_PREC_NOT, _COND_PREC_ATOM = 1, 2, 3, 4


def print_cond(c: VCondition) -> str:
    return _render_cond(c, 1)


def _render_cond(c: VCondition, need: int) -> str:
    if isinstance(c, CondLit):
        return "true" if c.value else "false"
    if isinstance(c, CompareAttrConst):
        return f"{c.attr.text()} {c.op} {_const_text(c.const)}"
    if isinstance(c, CompareAttrAttr):
        return f"{c.attr1.text()} {c.op} {c.attr2.text()}"
    if isinstance(c, CondChoice):
        return (
            f"CHC {print_fexp(c.dim)} "
            f"({print_cond(c.left)}) ({print_cond(c.right)})"
        )
    if isinstance(c, CondNot):
        s, prec = "!" + _render_cond(c.operand, _COND_PREC_NOT), _COND_PREC_NOT
    elif isinstance(c, CondAnd):
        s = (
            _render_cond(c.left, _COND_PREC_AND)
            + " & "
            + _render_cond(c.right, _COND_PREC_AND + 1)
        )
        prec = _COND_PREC_AND
    elif isinstance(c, CondOr):
        s = (
            _render_cond(c.left, _COND_PREC_OR)
            + " | "
            + _render_cond(c.right, _COND_PREC_OR + 1)
        )
        prec = _COND_PREC_OR
    else:
        raise TypeError(f"not a condition: {c!r}")
    return "(" + s + ")" if prec < need else s


def _const_text(k: Const) -> str:
    v = k.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return '"' + v.replace('"', '""') + '"'


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_query(text: str) -> VQuery:
    q, i = parse_query_partial(text, 0)
    i = _skip_ws(text, i)
    if i != len(text):
        raise ParseError("unexpected trailing input", i)
    return q


def parse_query_partial(text: str, start: int) -> tuple[VQuery, int]:
    i = _skip_ws(text, start)
    m = _NAME.match(text, i)
    if m is None:
        raise ParseError("expected a query", i)
    word = m.group()
    end = m.end()
    if word == "empty":
        return EMPTY, end
    if word == "rel":
        j = _skip_ws(text, end)
        name = _NAME.match(text, j)
        if name is None:
            raise ParseError("expected relation name after 'rel'", j)
        return Relation(name.group()), name.end()
    if word == "sel":
        cond, i = _parse_parenthesized_cond(text, end)
        sub, i = parse_query_partial(text, i)
        return Select(cond, sub), i
    if word == "proj":
        attrs, i = _parse_proj_list(text, end)
        sub, i = parse_query_partial(text, i)
        return Project(attrs, sub), i
    if word == "choice":
        dim, i = parse_fexp_partial(text, end)
        left, i = _parse_braced_query(text, i)
        right, i = _parse_braced_query(text, i)
        return Choice(dim, left, right), i
    if word == "join":
        cond, i = _parse_parenthesized_cond(text, end)
        left, i = parse_query_partial(text, i)
        right, i = parse_query_partial(text, i)
        return Join(cond, left, right), i
    if word == "prod":
        left, i = parse_query_partial(text, end)
        right, i = parse_query_partial(text, i)
        return Product(left, right), i
    if word in ("union", "diff"):
        left, i = parse_query_partial(text, end)
        right, i = parse_query_partial(text, i)
        kind = "union" if word == "union" else "difference"
        return SetOp(kind, left, right), i
    if "." in word or word in ("true", "false", "CHC"):
        raise ParseError(f"expected a query, found {word!r}", i)
    return Relation(word), end


def _parse_braced_query(text: str, start: int) -> tuple[VQuery, int]:
    i = _skip_ws(text, start)
    if i >= len(text) or text[i] != "{":
        raise ParseError("expected '{'", i)
    q, i = parse_query_partial(text, i + 1)
    i = _skip_ws(text, i)
    if i >= len(text) or text[i] != "}":
        raise ParseError("expected '}'", i)
    return q, i + 1


def _parse_parenthesized_cond(text: str, start: int) -> tuple[VCondition, int]:
    i = _skip_ws(text, start)
    if i >= len(text) or text[i] != "(":
        raise ParseError("expected '('", i)
    cond, i = _parse_cond_or(text, i + 1)
    i = _skip_ws(text, i)
    if i >= len(text) or text[i] != ")":
        raise ParseError("expected ')'", i)
    return cond, i + 1


def _parse_proj_list(text: str, start: int) -> tuple[VSet, int]:
    i = _skip_ws(text, start)
    if i >= len(text) or text[i] != "[":
        raise ParseError("expected '['", i)
    i = _skip_ws(text, i + 1)
    items: list[VElem] = []
    if i < len(text) and text[i] == "]":
        return VSet(()), i + 1
    while True:
        m = _NAME.match(text, i)
        if m is None:
            raise ParseError("expected attribute name", i)
        name = m.group()
        i = _skip_ws(text, m.end())
        pc = TRUE
        if i < len(text) and text[i] == "#":
            pc, i = parse_fexp_partial(text, i + 1)
            i = _skip_ws(text, i)
        try:
            items.append(VElem(name, pc))
        except ValueError as exc:  # an unsatisfiable presence condition
            raise ParseError(str(exc), m.start()) from exc
        if i < len(text) and text[i] == ",":
            i = _skip_ws(text, i + 1)
            continue
        if i < len(text) and text[i] == "]":
            return VSet(tuple(items)), i + 1
        raise ParseError("expected ',' or ']'", i)


def parse_cond(text: str) -> VCondition:
    c, i = _parse_cond_or(text, 0)
    i = _skip_ws(text, i)
    if i != len(text):
        raise ParseError("unexpected trailing input", i)
    return c


def _parse_cond_or(text: str, i: int) -> tuple[VCondition, int]:
    left, i = _parse_cond_and(text, i)
    while True:
        j = _skip_ws(text, i)
        if j < len(text) and text[j] == "|":
            right, i = _parse_cond_and(text, j + 1)
            left = CondOr(left, right)
        else:
            return left, i


def _parse_cond_and(text: str, i: int) -> tuple[VCondition, int]:
    left, i = _parse_cond_unary(text, i)
    while True:
        j = _skip_ws(text, i)
        if j < len(text) and text[j] == "&":
            right, i = _parse_cond_unary(text, j + 1)
            left = CondAnd(left, right)
        else:
            return left, i


def _parse_cond_unary(text: str, i: int) -> tuple[VCondition, int]:
    i = _skip_ws(text, i)
    if i >= len(text):
        raise ParseError("expected a condition", i)
    if text[i] == "!":
        # negation of a comparison operator (!=) never reaches here: '!' in
        # that position is always consumed by the comparison scanner below
        operand, i = _parse_cond_unary(text, i + 1)
        return CondNot(operand), i
    if text[i] == "(":
        cond, i = _parse_cond_or(text, i + 1)
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != ")":
            raise ParseError("expected ')'", i)
        return cond, i + 1
    m = _NAME.match(text, i)
    if m is None:
        raise ParseError("expected a condition", i)
    word = m.group()
    if word == "true":
        return CondLit(True), m.end()
    if word == "false":
        return CondLit(False), m.end()
    if word == "CHC":
        dim, i = parse_fexp_partial(text, m.end())
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != "(":
            raise ParseError("expected '(' for choice branch", i)
        left, i = _parse_cond_or(text, i + 1)
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != ")":
            raise ParseError("expected ')'", i)
        i = _skip_ws(text, i + 1)
        if i >= len(text) or text[i] != "(":
            raise ParseError("expected '(' for choice branch", i)
        right, i = _parse_cond_or(text, i + 1)
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != ")":
            raise ParseError("expected ')'", i)
        return CondChoice(dim, left, right), i + 1
    attr = _attr_ref(word)
    i = _skip_ws(text, m.end())
    op = _match_op(text, i)
    if op is None:
        raise ParseError("expected a comparison operator", i)
    i = _skip_ws(text, i + len(op))
    if i < len(text) and (text[i] == '"' or text[i] == "-" or text[i].isdigit()):
        value, i = parse_value(text, i)
        return CompareAttrConst(attr, op, Const(value)), i
    m2 = _NAME.match(text, i)
    if m2 is None:
        raise ParseError("expected a comparison operand", i)
    rhs = m2.group()
    if rhs == "true":
        return CompareAttrConst(attr, op, Const(True)), m2.end()
    if rhs == "false":
        return CompareAttrConst(attr, op, Const(False)), m2.end()
    return CompareAttrAttr(attr, op, _attr_ref(rhs)), m2.end()


def _attr_ref(word: str) -> AttrRef:
    if "." in word:
        qualifier, name = word.split(".", 1)
        return AttrRef(name, qualifier)
    return AttrRef(word)


def _match_op(text: str, i: int) -> str | None:
    for op in ("<=", ">=", "!=", "=", "<", ">"):
        if text.startswith(op, i):
            return op
    return None
