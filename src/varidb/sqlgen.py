"""SQL text generation for translated queries.

Translation leaves two shapes to render: a list of plain queries (one per
configuration or per group) and a single unified statement.  ``sql_of_plain``
handles the first — a direct SELECT-FROM-WHERE rendering where any non-leaf
operand becomes a named derived table.  ``sql_union`` handles the second —
every group member projects one shared attribute list, padding the positions
it lacks with NULL and carrying its feature expression as a literal text
column, with the members chained by UNION ALL (group conditions are disjoint,
so no cross-member deduplication is wanted).  Derived tables that appear in
several members are hoisted into common table expressions.

The dialect is a generic SQL-92 flavored core: strings in single quotes
(doubled to escape), ``<>`` for inequality, set semantics via DISTINCT /
UNION / EXCEPT.  Statements are plain text; nothing here talks to a DBMS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .featexpr import TRUE, FALSE, FeatExpr, disj, print_fexp, simplify
from .vra import (
    AttrRef,
    CompareAttrAttr,
    CompareAttrConst,
    CondAnd,
    CondLit,
    CondNot,
    CondOr,
    Empty,
    Join,
    Product,
    Project,
    Relation,
    Select,
    SetOp,
    VCondition,
    VQuery,
)


class SqlError(Exception):
    """The query cannot be rendered as plain SQL."""


class EmptyGroup(SqlError):
    """A unified statement needs at least one group member."""


@dataclass(frozen=True)
class SqlStatement:
    text: str
    dialect: str = "generic"
    provenance: FeatExpr = TRUE


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

_OP = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _const(v) -> str:
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, int):
        return str(v)
    return "'" + str(v).replace("'", "''") + "'"


def _ref(a: AttrRef) -> str:
    return a.text()


def _cond(c: VCondition, need: int = 1) -> str:
    """Render with minimal parentheses; OR < AND < NOT in binding power."""
    if isinstance(c, CondLit):
        return "1 = 1" if c.value else "1 = 0"
    if isinstance(c, CompareAttrConst):
        return f"{_ref(c.attr)} {_OP[c.op]} {_const(c.const.value)}"
    if isinstance(c, CompareAttrAttr):
        return f"{_ref(c.attr1)} {_OP[c.op]} {_ref(c.attr2)}"
    if isinstance(c, CondNot):
        return "NOT (" + _cond(c.operand, 1) + ")"
    if isinstance(c, (CondAnd, CondOr)):
        mine = 2 if isinstance(c, CondAnd) else 1
        word = " AND " if isinstance(c, CondAnd) else " OR "
        s = _cond(c.left, mine) + word + _cond(c.right, mine)
        return "(" + s + ")" if mine < need else s
    raise SqlError("variational condition cannot be rendered to plain SQL")


# ---------------------------------------------------------------------------
# Plain queries
# ---------------------------------------------------------------------------


class _Aliases:
    """Hands out d0, d1, ... across one statement."""

    def __init__(self) -> None:
        self.n = 0

    def fresh(self) -> str:
        name = f"d{self.n}"
        self.n += 1
        return name


def _from_part(q: VQuery, aliases: _Aliases) -> str:
    if isinstance(q, Relation):
        return q.name
    return "(" + _render(q, aliases) + ") AS " + aliases.fresh()


def _render(q: VQuery, aliases: _Aliases) -> str:
    if isinstance(q, Relation):
        return f"SELECT * FROM {q.name}"
    if isinstance(q, Project):
        names = [str(el.value) for el in q.attrs.elements]
        src = _from_part(q.sub, aliases)
        if not names:
            return f"SELECT DISTINCT 1 AS dee FROM {src}"
        return "SELECT DISTINCT " + ", ".join(names) + " FROM " + src
    if isinstance(q, Select):
        return f"SELECT * FROM {_from_part(q.sub, aliases)} WHERE {_cond(q.cond)}"
    if isinstance(q, Join):
        left = _from_part(q.left, aliases)
        right = _from_part(q.right, aliases)
        return f"SELECT * FROM {left}, {right} WHERE {_cond(q.cond)}"
    if isinstance(q, Product):
        return f"SELECT * FROM {_from_part(q.left, aliases)}, {_from_part(q.right, aliases)}"
    if isinstance(q, SetOp):
        word = " UNION " if q.kind == "union" else " EXCEPT "
        return _setop_operand(q.left, aliases) + word + _setop_operand(q.right, aliases)
    if isinstance(q, Empty):
        return f"SELECT * FROM (SELECT 1 AS one) AS {aliases.fresh()} WHERE 1 = 0"
    raise SqlError("variational query cannot be rendered to plain SQL")


def _setop_operand(q: VQuery, aliases: _Aliases) -> str:
    text = _render(q, aliases)
    return "(" + text + ")" if isinstance(q, SetOp) else text


def sql_of_plain(q: VQuery, provenance: FeatExpr = TRUE) -> SqlStatement:
    """One statement for one plain query."""
    return SqlStatement(_render(q, _Aliases()), provenance=provenance)


# ---------------------------------------------------------------------------
# The unified union statement
# ---------------------------------------------------------------------------


def _member_source(q: VQuery, aliases: _Aliases) -> tuple[str, str | None]:
    """FROM text and optional WHERE text for one union member."""
    if isinstance(q, Relation):
        return q.name, None
    if isinstance(q, Project):
        return _from_part(q.sub, aliases), None
    if isinstance(q, Select):
        return _from_part(q.sub, aliases), _cond(q.cond)
    if isinstance(q, Join):
        return f"{_from_part(q.left, aliases)}, {_from_part(q.right, aliases)}", _cond(q.cond)
    if isinstance(q, Product):
        return f"{_from_part(q.left, aliases)}, {_from_part(q.right, aliases)}", None
    if isinstance(q, Empty):
        return f"(SELECT 1 AS one) AS {aliases.fresh()}", "1 = 0"
    return _from_part(q, aliases), None


def sql_union(group, unified, member_columns) -> SqlStatement:
    """The single unified statement over all group members.

    `group` is a list of (plain query, feature expression) pairs; `unified`
    is the shared output attribute list, in order.  `member_columns` gives
    each member's own output names, aligned with `group`.
    """
    members = list(group)
    if not members:
        raise EmptyGroup("no group members to unify")
    unified = list(unified)
    if len(member_columns) != len(members):
        raise SqlError("member_columns must align with the group")

    # First pass: name every member's FROM source so repeats can be hoisted.
    aliases = _Aliases()
    sources = [_member_source(q, aliases) for q, _ in members]
    counts: dict[str, int] = {}
    for src, _ in sources:
        if src.startswith("("):
            inner = src[1 : src.rindex(") AS ")]
            counts[inner] = counts.get(inner, 0) + 1
    ctes: dict[str, str] = {}
    for src, _ in sources:
        if src.startswith("("):
            inner = src[1 : src.rindex(") AS ")]
            if counts[inner] > 1 and inner not in ctes:
                ctes[inner] = f"w{len(ctes)}"

    lines = []
    for (q, e), cols, (src, where) in zip(members, member_columns, sources):
        if src.startswith("("):
            inner = src[1 : src.rindex(") AS ")]
            if inner in ctes:
                src = ctes[inner]
        have = set(cols)
        items = [name if name in have else f"NULL AS {name}" for name in unified]
        items.append(f"{_const(print_fexp(e))} AS presCond")
        line = "SELECT DISTINCT " + ", ".join(items) + " FROM " + src
        if where is not None:
            line += " WHERE " + where
        lines.append(line)

    text = "\nUNION ALL\n".join(lines)
    if ctes:
        heads = ", ".join(f"{name} AS ({inner})" for inner, name in ctes.items())
        text = "WITH " + heads + "\n" + text
    region: FeatExpr = FALSE
    for _, e in members:
        region = disj(region, e)
    return SqlStatement(text, provenance=simplify(region))
