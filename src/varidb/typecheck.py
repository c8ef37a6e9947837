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

Applying a type's annotation to its attributes (`QueryType.pushed_attrs`)
is done once per type, on the annotation's canonical form rather than on
the structural annotation, which grows with every choice below it.  The
annotation itself stays structural, so printed types do not change.

The companion plain rules (`plain_type`) type configured queries against a
configured schema, and `check_variation_preservation` confirms the two sides
commute configuration by configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .catalog import AttrType, PlainSchema, VSchema, configure_schema
from .featexpr import (
    _QM_LIMIT,
    FALSE,
    TRUE,
    And,
    Configuration,
    FeatExpr,
    Not,
    conj,
    disj,
    features_of,
    implies,
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
from .vset import VElem, VSet, configure_vset, print_vset, subsumes, vset_equiv, vset_intersect, vset_union


@dataclass(frozen=True)
class AttrInfo:
    """What is known about one attribute of a query type."""

    atype: AttrType
    origin: str | None  # relation the attribute came from, when unambiguous


@dataclass
class QueryType:
    attrs: VSet  # values are attribute names; the set itself is unannotated
    annotation: FeatExpr
    info: dict[str, AttrInfo]

    def pushed_attrs(self) -> VSet:
        """`push_annotation(VSet(attrs.elements, annotation))`, once per type."""
        return self._pushed

    @cached_property
    def _pushed(self) -> VSet:
        if self.annotation == TRUE:
            return self.attrs
        # Up to 12 features `simplify` depends only on the function, so the
        # annotation's canonical form can stand in for it; above that it is
        # structural, and only the annotation itself gives the same result.
        names = features_of(self.annotation)
        canonical = simplify(self.annotation) if len(names) <= _QM_LIMIT else None
        pushed = []
        for el in self.attrs:
            wide = len(names | features_of(el.pc)) > _QM_LIMIT
            pc = simplify(And(el.pc, self.annotation if wide else canonical))
            if pc != FALSE:
                pushed.append(VElem(el.value, pc))
        return VSet(tuple(pushed))

    def render(self) -> str:
        return print_vset(VSet(self.attrs.elements, self.annotation))

    def names(self) -> list[str]:
        return [str(el.value) for el in self.attrs]


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


def _empty_type() -> QueryType:
    return QueryType(VSet(()), FALSE, {})


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
    undeclared = free_features(q) - frozenset(schema.features)
    if undeclared:
        raise VTypeError(
            "UndeclaredFeature",
            "query",
            f"feature {sorted(undeclared)[0]} is not declared in the schema",
        )
    if ctx is None:
        ctx = schema.model
    if not sat(ctx):
        raise VTypeError(
            "UnsatContext", "query", f"variation context {print_fexp(ctx)} is unsatisfiable"
        )
    return _type_query(q, ctx, schema, "query", strict_context, check_conditions)


def _type_query(
    q: VQuery,
    ctx: FeatExpr,
    s: VSchema,
    path: str,
    strict: bool,
    conds: bool,
) -> QueryType:
    if isinstance(q, Relation):
        rel = s.relations.get(q.name)
        if rel is None:
            raise VTypeError(
                "UnknownRelation", path, f"relation {q.name} is not in the schema"
            )
        if not sat(And(ctx, rel.pc)):
            raise VTypeError(
                "UnsatContext",
                path,
                f"relation {q.name} with presence condition {print_fexp(rel.pc)} "
                f"cannot exist in context {print_fexp(ctx)}",
            )
        attrs = VSet(tuple(VElem(a.name, a.pc) for a in rel.attrs))
        info = {a.name: AttrInfo(a.atype, q.name) for a in rel.attrs}
        return QueryType(attrs, conj(ctx, rel.pc), info)

    if isinstance(q, Empty):
        return _empty_type()

    if isinstance(q, Select):
        sub = _type_query(q.sub, ctx, s, path + ".sub", strict, conds)
        if conds:
            _type_cond(q.cond, ctx, sub.pushed_attrs(), sub.info, path + ".cond", strict)
        return sub

    if isinstance(q, Project):
        sub = _type_query(q.sub, ctx, s, path + ".sub", strict, conds)
        resolved = []
        for el in q.attrs:
            name = _resolve_name(str(el.value), sub, path)
            resolved.append(VElem(name, el.pc))
        projected = VSet(tuple(resolved))
        if not subsumes(VSet(projected.elements, ctx), sub.pushed_attrs()):
            raise VTypeError(
                "NotSubsumed",
                path,
                f"projected attributes {print_vset(VSet(projected.elements, ctx))} "
                f"are not subsumed by the subquery type "
                f"{print_vset(VSet(sub.attrs.elements, sub.annotation))}",
            )
        result = vset_intersect(projected, sub.attrs)
        info = {str(el.value): sub.info[str(el.value)] for el in result}
        return QueryType(result, sub.annotation, info)

    if isinstance(q, Choice):
        lctx, rctx = And(ctx, q.dim), And(ctx, Not(q.dim))
        if strict or sat(lctx):
            t1 = _type_query(q.left, lctx, s, path + ".left", strict, conds)
        else:
            t1 = _empty_type()
        if strict or sat(rctx):
            t2 = _type_query(q.right, rctx, s, path + ".right", strict, conds)
        else:
            t2 = _empty_type()
        attrs = vset_union(t1.pushed_attrs(), t2.pushed_attrs())
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
        info = {str(el.value): info[str(el.value)] for el in attrs}
        return QueryType(attrs, disj(t1.annotation, t2.annotation), info)

    if isinstance(q, (Product, Join)):
        t1 = _type_query(q.left, ctx, s, path + ".left", strict, conds)
        t2 = _type_query(q.right, ctx, s, path + ".right", strict, conds)
        shared = set(t1.names()) & set(t2.names())
        if shared:
            raise VTypeError(
                "NotDisjoint",
                path,
                f"operand types share attribute names: {', '.join(sorted(shared))}",
            )
        attrs = VSet(t1.attrs.elements + t2.attrs.elements)
        info = {**t1.info, **t2.info}
        result = QueryType(attrs, conj(t1.annotation, t2.annotation), info)
        if isinstance(q, Join) and conds:
            _type_cond(
                q.cond, ctx, result.pushed_attrs(), result.info, path + ".cond", strict
            )
        return result

    if isinstance(q, SetOp):
        t1 = _type_query(q.left, ctx, s, path + ".left", strict, conds)
        t2 = _type_query(q.right, ctx, s, path + ".right", strict, conds)
        if not vset_equiv(t1.pushed_attrs(), t2.pushed_attrs()):
            raise VTypeError(
                "NotEquivalent",
                path,
                f"operand types {t1.render()} and {t2.render()} are not equivalent",
            )
        for name in t1.names():
            if t1.info[name].atype != t2.info[name].atype:
                raise VTypeError(
                    "TypeMismatch",
                    path,
                    f"attribute {name} is {t1.info[name].atype.keyword} on the left "
                    f"and {t2.info[name].atype.keyword} on the right",
                )
        return QueryType(t1.attrs, t1.annotation, dict(t1.info))

    raise TypeError(f"not a query: {q!r}")


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


# ---------------------------------------------------------------------------
# Condition typing
# ---------------------------------------------------------------------------


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
    condition rules expect.  Raises VTypeError on failure.
    """
    _type_cond(cond, ctx, qtype.pushed_attrs(), qtype.info, path, strict_context)


def _type_cond(
    c: VCondition,
    ctx: FeatExpr,
    attrs: VSet,
    info: dict[str, AttrInfo],
    path: str,
    strict: bool,
) -> None:
    if isinstance(c, CondLit):
        return
    if isinstance(c, CompareAttrConst):
        atype = _check_attr(c.attr, ctx, attrs, info, path)
        if not _const_in_domain(c.const, atype):
            raise VTypeError(
                "DomainViolation",
                path,
                f"constant {c.const.value!r} is outside the {atype.keyword} domain "
                f"of attribute {c.attr.text()}",
            )
        return
    if isinstance(c, CompareAttrAttr):
        atype1 = _check_attr(c.attr1, ctx, attrs, info, path)
        atype2 = _check_attr(c.attr2, ctx, attrs, info, path)
        if atype1 != atype2:
            raise VTypeError(
                "TypeMismatch",
                path,
                f"cannot compare {c.attr1.text()} ({atype1.keyword}) with "
                f"{c.attr2.text()} ({atype2.keyword})",
            )
        return
    if isinstance(c, CondNot):
        _type_cond(c.operand, ctx, attrs, info, path + ".operand", strict)
        return
    if isinstance(c, (CondAnd, CondOr)):
        _type_cond(c.left, ctx, attrs, info, path + ".left", strict)
        _type_cond(c.right, ctx, attrs, info, path + ".right", strict)
        return
    if isinstance(c, CondChoice):
        lctx, rctx = And(ctx, c.dim), And(ctx, Not(c.dim))
        if strict or sat(lctx):
            _type_cond(c.left, lctx, attrs, info, path + ".left", strict)
        if strict or sat(rctx):
            _type_cond(c.right, rctx, attrs, info, path + ".right", strict)
        return
    raise TypeError(f"not a condition: {c!r}")


def _check_attr(
    ref: AttrRef, ctx: FeatExpr, attrs: VSet, info: dict[str, AttrInfo], path: str
) -> AttrType:
    inf = info.get(ref.name)
    present = any(str(el.value) == ref.name for el in attrs)
    if inf is None or not present:
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
    pc = attrs.pc_of(ref.name)
    if not implies(pc, ctx):
        raise VTypeError(
            "ContextNotImplied",
            path,
            f"presence condition {print_fexp(pc)} of {ref.text()} does not imply "
            f"the variation context {print_fexp(ctx)}",
        )
    return inf.atype


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
