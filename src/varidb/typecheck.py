"""Static typing of variational queries against a variational schema.

The type of a query is a variational set of attribute names (each element
guarded by a presence condition) together with an overall annotation saying
when the query produces anything at all.  Typing happens under a *variation
context*: a feature expression, initially the schema's feature model, refined
by ``ctx ∧ dim`` / ``ctx ∧ ¬dim`` when descending into choice branches.

Rules, one per query form:

* relation: the relation must exist and its presence condition must be
  satisfiable together with the context; attributes keep their declared
  presence conditions and the annotation is ``ctx ∧ pc``.
* projection: the projected set, annotated with the context, must be
  subsumed by the subquery type (annotation applied); the result is the
  intersection of the projected set with the subquery attributes, under the
  subquery's annotation.
* selection: the type passes through unchanged; the condition must be
  well-formed against the subquery type with its annotation pushed in.
* choice: branches are typed under refined contexts; the result is the union
  of the branch types (branch annotations pushed in) annotated by the
  disjunction.  A branch whose refined context is unsatisfiable is dead and
  contributes the empty type instead of being typed at all — pass
  ``strict_context=True`` to type dead branches anyway.
* product/join: attribute names must be disjoint outright; the result
  concatenates the attribute sets under the conjoined annotation.  A join
  additionally types its condition against the combined type.
* set operations: both operand types, annotations applied, must be
  equivalent as v-sets and agree on attribute types; the left type is the
  result.
* the empty relation types as no attributes annotated false.

Every side condition is decided in the presence algebra of
`featexpr.Universe` over the schema's declared features.  Each formula of
the query or the schema is walked once, into its truth table; each presence
condition of a `QueryType` is built from its children's with ``&``, ``|``
and ``& ~``, and a side condition is a few bit operations on them.  Above
12 features a condition is a decision-diagram node and the same operators
decide it.  The formula forms of a type (`attrs`, `annotation`,
`pushed_attrs`, `render`) are built only when read, by the rules above: the
annotation is structural, and a pushed attribute condition is
``simplify(pc ∧ annotation)``, read off the universe's value.

The same walk pushes the schema into a query (`push_schema`): it rebuilds
each node from its children's pushed forms, conditions unchecked, and gives
each projected item the presence of its attribute and the annotation of
the pushed subquery, read off the subquery's type.  So the push refines
contexts and skips dead branches exactly as typing does.

The companion plain rules (`plain_type`) type configured queries against a
configured schema, and `check_variation_preservation` confirms the two sides
commute configuration by configuration.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from operator import or_
from typing import Callable, NamedTuple

from .catalog import AttrType, PlainSchema, VSchema, configure_schema
from .featexpr import (
    FALSE,
    TRUE,
    And,
    Configuration,
    FeatExpr,
    Not,
    Or,
    Table,
    Universe,
    conj,
    disj,
    features_of,
    print_fexp,
    sat,
    simplify,
    solutions,
)
from .vra import (
    AttrRef,
    Choice,
    CompareAttrAttr,
    CompareAttrConst,
    CondAnd,
    CondChoice,
    CondLit,
    CondNot,
    CondOr,
    Const,
    Empty,
    Join,
    Product,
    Project,
    Relation,
    Select,
    SetOp,
    VCondition,
    VQuery,
    free_features,
)
from .vset import VElem, VSet, configure_vset, print_vset


class AttrInfo(NamedTuple):
    """What is known about one attribute of a query type."""

    atype: AttrType
    origin: str | None  # relation the attribute came from, when unambiguous


class QueryType:
    """The type of a query, decided on tables, printed from formulas.

    `attr_tables` maps each attribute name, in attribute order, to the table
    of its presence condition (the annotation not applied); `ann_table` is
    the annotation's table.  The typing rules read only these.  The formula
    forms come from `forms` on first read, as a map from attribute name to
    presence condition and the annotation.
    """

    def __init__(
        self,
        attr_tables: dict[str, Table],
        ann_table: Table,
        info: dict[str, AttrInfo],
        universe: Universe,
        forms: Callable[[], tuple[dict[str, FeatExpr], FeatExpr]],
    ):
        self.attr_tables = attr_tables
        self.ann_table = ann_table
        self.info = info
        self.universe = universe
        self._forms = forms

    @cached_property
    def _built(self) -> tuple[dict[str, FeatExpr], FeatExpr]:
        return self._forms()

    @property
    def attr_pcs(self) -> dict[str, FeatExpr]:
        return self._built[0]

    @property
    def annotation(self) -> FeatExpr:
        return self._built[1]

    @cached_property
    def attrs(self) -> VSet:
        """`attr_pcs` as a v-set; the annotation is not part of it."""
        return _vset(self.attr_pcs)

    @cached_property
    def pushed(self) -> dict[str, Table]:
        """The table of each attribute with the annotation applied, for the
        attributes where that is satisfiable."""
        out = {}
        for name, t in self.attr_tables.items():
            p = t & self.ann_table
            if p:
                out[name] = p
        return out

    @cached_property
    def pushed_pcs(self) -> dict[str, FeatExpr]:
        """The formulas of `pushed`: the attributes' own conditions under a
        literal `true` annotation, else `simplify(pc ∧ annotation)`, the
        canonical form read off the universe's value."""
        if self.annotation == TRUE:
            return self.attr_pcs
        return {name: self.universe.formula(t) for name, t in self.pushed.items()}

    def pushed_attrs(self) -> VSet:
        """`push_annotation(VSet(attrs.elements, annotation))`."""
        return _vset(self.pushed_pcs)

    def render(self) -> str:
        return print_vset(VSet(self.attrs.elements, self.annotation))

    def names(self) -> list[str]:
        """The result attributes: none under a false annotation."""
        return list(self.attr_tables) if self.ann_table else []


def _vset(pcs: dict[str, FeatExpr]) -> VSet:
    return VSet(tuple(VElem(name, pc) for name, pc in pcs.items()))


def _combine(items, op) -> dict:
    """Repeated names combine their values with `op`, in order of first
    occurrence, as a `VSet` merges its elements."""
    out = {}
    for name, x in items:
        out[name] = op(out[name], x) if name in out else x
    return out


class VTypeError(Exception):
    """A typing rule's side-condition failed.

    kind is one of: UndeclaredFeature, UnknownRelation, UnsatContext,
    NotSubsumed, AttrNotInType, ContextNotImplied, TypeMismatch,
    NotDisjoint, NotEquivalent, DomainViolation.
    """

    def __init__(self, kind: str, path: str, detail: str):
        self.kind = kind
        self.path = path
        self.detail = detail
        super().__init__(f"{kind} at {path}: {detail}")


def _empty_type(u: Universe) -> QueryType:
    return QueryType({}, u.of(FALSE), {}, u, lambda: ({}, FALSE))


def type_of(
    q: VQuery,
    schema: VSchema,
    ctx: FeatExpr | None = None,
    *,
    strict_context: bool = False,
    check_conditions: bool = True,
) -> QueryType:
    """Type a query under a variation context (default: the feature model).

    Raises VTypeError when a rule's side-condition fails.  With
    ``check_conditions=False`` selection and join conditions are not checked,
    which is useful for computing the result shape of queries produced by
    rewriting (whose conditions can mention attributes more liberally than
    the source-level rules allow).  Every feature the query mentions must be
    declared by the schema, as configurations range over declared features
    only.
    """
    return _walk(q, schema, ctx, strict=strict_context, conds=check_conditions)[0]


def push_schema(q: VQuery, schema: VSchema, ctx: FeatExpr | None = None) -> VQuery:
    """Conjoin schema presence conditions into every projection item.

    Each projected item's condition becomes
    ``simplify(item_pc ∧ attr_pc ∧ subquery_annotation)``, where attr_pc and
    the annotation come from the type of the already pushed subquery, and
    items whose condition is unsatisfiable are dropped.  The walk is the
    typing walk with conditions unchecked, so choice branches are pushed
    under their refined contexts and a dead branch is left untouched.
    Raises VTypeError when the query does not type against the schema.
    Pushing is idempotent up to feature-expression equivalence.
    """
    return _walk(q, schema, ctx, strict=False, conds=False, push=True)[1]


def _walk(
    q: VQuery, schema: VSchema, ctx: FeatExpr | None, *, strict: bool, conds: bool, push=False
) -> tuple[QueryType, VQuery]:
    undeclared = free_features(q) - frozenset(schema.features)
    if undeclared:
        raise VTypeError(
            "UndeclaredFeature",
            "query",
            f"feature {sorted(undeclared)[0]} is not declared in the schema",
        )
    if ctx is None:
        ctx = schema.model
    u = Universe(sorted(frozenset(schema.features) | features_of(ctx)))
    ct = u.of(ctx)
    if not ct:
        raise VTypeError(
            "UnsatContext", "query", f"variation context {print_fexp(ctx)} is unsatisfiable"
        )
    return _Typing(u, strict, schema, conds, push).query(q, ctx, ct, "query")


class _Typing:
    """The rules, for one universe, strictness and schema.

    A context travels as its formula, for annotations and messages, and its
    table, for decisions.  `query` returns the type of a query together with
    the query itself or, when pushing, the query with the schema pushed into
    its projections; pushing types the pushed query, so each projection's
    items are read off the type of its pushed subquery.
    """

    def __init__(
        self, u: Universe, strict: bool, schema: VSchema | None = None, conds=True, push=False
    ):
        self.u, self.strict, self.schema, self.conds, self.push = u, strict, schema, conds, push

    def query(self, q: VQuery, ctx: FeatExpr, ct: Table, path: str) -> tuple[QueryType, VQuery]:
        u = self.u
        if isinstance(q, Relation):
            rel = self.schema.relations.get(q.name)
            if rel is None:
                raise VTypeError(
                    "UnknownRelation", path, f"relation {q.name} is not in the schema"
                )
            rt = ct & u.of(rel.pc)
            if not rt:
                raise VTypeError(
                    "UnsatContext",
                    path,
                    f"relation {q.name} with presence condition {print_fexp(rel.pc)} "
                    f"cannot exist in context {print_fexp(ctx)}",
                )
            tables = {a.name: u.of(a.pc) for a in rel.attrs}
            info = {a.name: AttrInfo(a.atype, q.name) for a in rel.attrs}
            return QueryType(
                tables,
                rt,
                info,
                u,
                lambda: ({a.name: a.pc for a in rel.attrs}, conj(ctx, rel.pc)),
            ), q

        if isinstance(q, Empty):
            return _empty_type(u), q

        if isinstance(q, Select):
            sub, pushed = self.query(q.sub, ctx, ct, path + ".sub")
            if self.conds:
                self.cond(q.cond, ctx, ct, sub, path + ".cond")
            return sub, _with(q, sub=pushed)

        if isinstance(q, Project):
            sub, pushed = self.query(q.sub, ctx, ct, path + ".sub")
            if self.push:
                q = Project(_pushed_items(q.attrs, sub, path), pushed)
            return self._project(q, sub, ctx, ct, path), q

        if isinstance(q, Choice):
            dt = u.of(q.dim)
            lctx, lt = And(ctx, q.dim), ct & dt
            rctx, rt = And(ctx, Not(q.dim)), ct & ~dt
            if self.strict or lt:
                t1, left = self.query(q.left, lctx, lt, path + ".left")
            else:
                t1, left = _empty_type(u), q.left
            if self.strict or rt:
                t2, right = self.query(q.right, rctx, rt, path + ".right")
            else:
                t2, right = _empty_type(u), q.right
            tables = _combine([*t1.pushed.items(), *t2.pushed.items()], or_)
            info = dict(t1.info)
            for name, inf in t2.info.items():
                if name in info:
                    if info[name].atype != inf.atype:
                        raise VTypeError(
                            "TypeMismatch",
                            path,
                            f"attribute {name} is {info[name].atype.keyword} in one "
                            f"branch and {inf.atype.keyword} in the other",
                        )
                    if info[name].origin != inf.origin:
                        info[name] = AttrInfo(inf.atype, None)
                else:
                    info[name] = inf
            return QueryType(
                tables,
                t1.ann_table | t2.ann_table,
                {name: info[name] for name in tables},
                u,
                lambda: (
                    _combine([*t1.pushed_pcs.items(), *t2.pushed_pcs.items()], disj),
                    disj(t1.annotation, t2.annotation),
                ),
            ), _with(q, left=left, right=right)

        if isinstance(q, (Product, Join)):
            t1, left = self.query(q.left, ctx, ct, path + ".left")
            t2, right = self.query(q.right, ctx, ct, path + ".right")
            shared = t1.attr_tables.keys() & t2.attr_tables.keys()
            if shared:
                raise VTypeError(
                    "NotDisjoint",
                    path,
                    f"operand types share attribute names: {', '.join(sorted(shared))}",
                )
            result = QueryType(
                {**t1.attr_tables, **t2.attr_tables},
                t1.ann_table & t2.ann_table,
                {**t1.info, **t2.info},
                u,
                lambda: (
                    {**t1.attr_pcs, **t2.attr_pcs},
                    conj(t1.annotation, t2.annotation),
                ),
            )
            if isinstance(q, Join) and self.conds:
                self.cond(q.cond, ctx, ct, result, path + ".cond")
            return result, _with(q, left=left, right=right)

        if isinstance(q, SetOp):
            t1, left = self.query(q.left, ctx, ct, path + ".left")
            t2, right = self.query(q.right, ctx, ct, path + ".right")
            p1, p2 = t1.pushed, t2.pushed
            if p1.keys() != p2.keys() or any(p1[name] != p2[name] for name in p1):
                raise VTypeError(
                    "NotEquivalent",
                    path,
                    f"operand types {t1.render()} and {t2.render()} are not equivalent",
                )
            for name in t1.attr_tables:
                inf = t2.info.get(name)
                if inf is not None and t1.info[name].atype != inf.atype:
                    raise VTypeError(
                        "TypeMismatch",
                        path,
                        f"attribute {name} is {t1.info[name].atype.keyword} on the left "
                        f"and {inf.atype.keyword} on the right",
                    )
            return QueryType(
                t1.attr_tables,
                t1.ann_table,
                dict(t1.info),
                u,
                lambda: (t1.attr_pcs, t1.annotation),
            ), _with(q, left=left, right=right)

        raise TypeError(f"not a query: {q!r}")

    def _project(
        self, q: Project, sub: QueryType, ctx: FeatExpr, ct: Table, path: str
    ) -> QueryType:
        items = [(_resolve_name(str(el.value), sub, path), el.pc) for el in q.attrs]
        projected = _combine([(name, self.u.of(pc)) for name, pc in items], or_)
        for name, t in projected.items():
            needle = t & ct
            hay = sub.pushed.get(name)
            if needle and (hay is None or not needle & hay):
                shown = VSet(tuple(VElem(n, pc) for n, pc in items), ctx)
                raise VTypeError(
                    "NotSubsumed",
                    path,
                    f"projected attributes {print_vset(shown)} "
                    f"are not subsumed by the subquery type {sub.render()}",
                )
        tables = {}
        for name, t in projected.items():
            st = sub.attr_tables.get(name)
            if st is not None and t & st:
                tables[name] = t & st

        def forms() -> tuple[dict[str, FeatExpr], FeatExpr]:
            merged, sub_pcs = _combine(items, Or), sub.attr_pcs
            return {name: conj(merged[name], sub_pcs[name]) for name in tables}, sub.annotation

        info = {name: sub.info[name] for name in tables}
        return QueryType(tables, sub.ann_table, info, self.u, forms)

    # -- conditions ---------------------------------------------------------

    def cond(self, c: VCondition, ctx: FeatExpr, ct: Table, t: QueryType, path: str) -> None:
        if isinstance(c, CondLit):
            return
        if isinstance(c, CompareAttrConst):
            atype = self._check_attr(c.attr, ctx, ct, t, path)
            if not _const_in_domain(c.const, atype):
                raise VTypeError(
                    "DomainViolation",
                    path,
                    f"constant {c.const.value!r} is outside the {atype.keyword} domain "
                    f"of attribute {c.attr.text()}",
                )
            return
        if isinstance(c, CompareAttrAttr):
            atype1 = self._check_attr(c.attr1, ctx, ct, t, path)
            atype2 = self._check_attr(c.attr2, ctx, ct, t, path)
            if atype1 != atype2:
                raise VTypeError(
                    "TypeMismatch",
                    path,
                    f"cannot compare {c.attr1.text()} ({atype1.keyword}) with "
                    f"{c.attr2.text()} ({atype2.keyword})",
                )
            return
        if isinstance(c, CondNot):
            self.cond(c.operand, ctx, ct, t, path + ".operand")
            return
        if isinstance(c, (CondAnd, CondOr)):
            self.cond(c.left, ctx, ct, t, path + ".left")
            self.cond(c.right, ctx, ct, t, path + ".right")
            return
        if isinstance(c, CondChoice):
            dt = self.u.of(c.dim)
            lt, rt = ct & dt, ct & ~dt
            if self.strict or lt:
                self.cond(c.left, And(ctx, c.dim), lt, t, path + ".left")
            if self.strict or rt:
                self.cond(c.right, And(ctx, Not(c.dim)), rt, t, path + ".right")
            return
        raise TypeError(f"not a condition: {c!r}")

    def _check_attr(
        self, ref: AttrRef, ctx: FeatExpr, ct: Table, t: QueryType, path: str
    ) -> AttrType:
        inf = t.info.get(ref.name)
        pt = t.pushed.get(ref.name)
        if inf is None or pt is None:
            raise VTypeError(
                "AttrNotInType",
                path,
                f"attribute {ref.text()} does not occur in the query type",
            )
        if ref.qualifier is not None and inf.origin != ref.qualifier:
            raise VTypeError(
                "AttrNotInType",
                path,
                f"attribute {ref.name} does not come from {ref.qualifier}",
            )
        if pt & ~ct:
            raise VTypeError(
                "ContextNotImplied",
                path,
                f"presence condition {print_fexp(t.pushed_pcs[ref.name])} of "
                f"{ref.text()} does not imply the variation context {print_fexp(ctx)}",
            )
        return inf.atype


def _with(q: VQuery, **parts: VQuery) -> VQuery:
    """`q` with the given subqueries, rebuilt only when one of them differs."""
    if all(getattr(q, field) is part for field, part in parts.items()):
        return q
    return replace(q, **parts)


def _pushed_items(attrs: VSet, sub: QueryType, path: str) -> VSet:
    """Projected items under ``simplify(pc ∧ attr_pc ∧ annotation)`` of the
    subquery type, the unsatisfiable ones dropped."""
    pcs, annotation = sub.attr_pcs, sub.annotation
    items = []
    for el in attrs:
        name = _resolve_name(str(el.value), sub, path)
        pc = simplify(conj(el.pc, conj(pcs[name], annotation)))
        if sat(pc):
            items.append(VElem(el.value, pc))
    return VSet(tuple(items))


def _resolve_name(ref: str, t: QueryType, path: str) -> str:
    """Map a possibly qualified attribute reference to a type attribute."""
    if "." in ref:
        qualifier, name = ref.split(".", 1)
    else:
        qualifier, name = None, ref
    inf = t.info.get(name)
    if inf is None:
        raise VTypeError(
            "NotSubsumed",
            path,
            f"attribute {ref} does not occur in the subquery type {t.render()}",
        )
    if qualifier is not None and inf.origin != qualifier:
        raise VTypeError(
            "NotSubsumed",
            path,
            f"attribute {name} does not come from {qualifier}"
            + (f" (it comes from {inf.origin})" if inf.origin else ""),
        )
    return name


def type_cond(
    cond: VCondition,
    ctx: FeatExpr,
    qtype: QueryType,
    *,
    strict_context: bool = False,
    path: str = "cond",
) -> None:
    """Check a condition against a query type under a variation context.

    The type's annotation is applied to its attribute set first, as the
    condition rules expect.  The context may mention only features of the
    type's universe: the schema's, and those of the context it was typed
    under; so may the condition's choices.  Raises VTypeError on failure.
    """
    u = qtype.universe
    outside = (features_of(ctx) | free_features(cond)) - frozenset(u.names)
    if outside:
        raise VTypeError(
            "UndeclaredFeature",
            path,
            f"feature {sorted(outside)[0]} is not declared in the schema",
        )
    _Typing(u, strict_context).cond(cond, ctx, u.of(ctx), qtype, path)


def _const_in_domain(const: Const, atype: AttrType) -> bool:
    v = const.value
    if isinstance(v, bool):
        return atype == AttrType.BOOLEAN
    if isinstance(v, int):
        return atype == AttrType.INTEGER
    return atype == AttrType.TEXT


# ---------------------------------------------------------------------------
# Plain typing (for configured queries against configured schemas)
# ---------------------------------------------------------------------------


class PlainTypeError(Exception):
    pass


def plain_type(
    q: VQuery, schema: PlainSchema
) -> list[tuple[str, AttrType]] | None:
    """Type a plain query against a plain schema.

    Returns the attribute list, or None for the empty relation (also the
    type of a reference to a relation absent from this schema variant, which
    denotes the empty relation).  Raises PlainTypeError when the query is
    ill-typed: a non-empty projection over the empty relation, a projection
    of a missing attribute, a product with a shared attribute name, or a set
    operation over unequal types.  Selection and join conditions are not
    checked: the variational rules allow conditions to mention attributes
    that exist in only some variants, and evaluation treats comparisons
    against missing attributes as false.
    """
    if isinstance(q, Relation):
        if q.name not in schema:
            return None
        return list(schema[q.name])
    if isinstance(q, Empty):
        return None
    if isinstance(q, Select):
        return plain_type(q.sub, schema)
    if isinstance(q, Project):
        t = plain_type(q.sub, schema)
        names = [str(el.value) for el in q.attrs]
        if t is None:
            if names:
                raise PlainTypeError(
                    f"projection of {', '.join(names)} over the empty relation"
                )
            return None
        by_name = {n: at for n, at in t}
        out = []
        for ref in names:
            bare = ref.split(".", 1)[1] if "." in ref else ref
            if bare not in by_name:
                raise PlainTypeError(f"projected attribute {ref} is not in the input")
            out.append((bare, by_name[bare]))
        return out
    if isinstance(q, (Product, Join)):
        t1 = plain_type(q.left, schema)
        t2 = plain_type(q.right, schema)
        if t1 is None or t2 is None:
            return None
        shared = {n for n, _ in t1} & {n for n, _ in t2}
        if shared:
            raise PlainTypeError(
                f"operands share attribute names: {', '.join(sorted(shared))}"
            )
        return t1 + t2
    if isinstance(q, SetOp):
        t1 = plain_type(q.left, schema)
        t2 = plain_type(q.right, schema)
        left = t1 or []
        right = t2 or []
        if set(left) != set(right):
            raise PlainTypeError("set operation over unequal types")
        if t1 is None and t2 is None:
            return None
        return t1 if t1 is not None else t2
    if isinstance(q, Choice):
        raise PlainTypeError("choices cannot appear in a plain query")
    raise TypeError(f"not a query: {q!r}")


# ---------------------------------------------------------------------------
# Variation preservation
# ---------------------------------------------------------------------------


def check_variation_preservation(
    q: VQuery, schema: VSchema, *, check_conditions: bool = True
) -> list[Configuration]:
    """Compare variational typing with configuration-wise plain typing.

    For every configuration satisfying the feature model: configuring the
    variational type must give the same attribute set as plain-typing the
    configured query against the configured schema.  Returns the violating
    configurations (empty list = the property holds for this query).
    """
    from .translate import configure_query

    t = type_of(q, schema, check_conditions=check_conditions)
    pushed = t.pushed_attrs()
    violations = []
    for c in solutions(schema.model, schema.features):
        plain_schema = configure_schema(schema, c)
        plain_q = configure_query(q, c)
        expected = {str(v) for v in configure_vset(pushed, c)}
        try:
            got = plain_type(plain_q, plain_schema)
        except PlainTypeError:
            violations.append(c)
            continue
        got_names = set() if got is None else {n for n, _ in got}
        if got_names != expected:
            violations.append(c)
            continue
        if got is not None and any(
            n in t.info and t.info[n].atype != at for n, at in got
        ):
            violations.append(c)
    return violations
