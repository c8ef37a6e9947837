"""From variational queries to plain ones: configure, group, schema push.

Three bridges between the variational and plain worlds:

* `configure_query` resolves every choice and conditional projection item
  under one configuration, leaving an ordinary relational query.
* `group_query` partitions the configuration space instead: it returns
  annotated plain queries, one per distinct configured form, whose feature
  expressions are pairwise disjoint and jointly cover every configuration.
  `group_generic` is the brute-force restatement (configure under every
  configuration, bucket identical results) used as an oracle.
* `push_schema` conjoins schema presence conditions into the query's
  projection items, so that the query's own annotations carry everything
  the schema knows — the form the type system's preservation property
  wants.
"""

from __future__ import annotations

from .catalog import VSchema
from .featexpr import (
    TRUE,
    And,
    Configuration,
    FeatExpr,
    Not,
    Or,
    _table_over,
    all_configs,
    conj,
    eval_fexp,
    from_minterms,
    from_table,
    sat,
    simplify,
)
from .typecheck import type_of
from .vra import (
    EMPTY,
    Choice,
    CompareAttrAttr,
    CompareAttrConst,
    CondAnd,
    CondChoice,
    CondLit,
    CondNot,
    CondOr,
    Empty,
    Join,
    PlainQuery,
    Product,
    Project,
    Relation,
    Select,
    SetOp,
    VCondition,
    VQuery,
    free_features,
    plain_key,
)
from .vset import VElem, VSet, configure_vset

#: Annotated plain queries partitioning the configuration space.
QueryGroup = list[tuple[PlainQuery, FeatExpr]]


# ---------------------------------------------------------------------------
# Configuring
# ---------------------------------------------------------------------------


def configure_cond(c: VCondition, config: Configuration) -> VCondition:
    """Resolve every condition choice under one configuration."""
    if isinstance(c, (CondLit, CompareAttrConst, CompareAttrAttr)):
        return c
    if isinstance(c, CondNot):
        return CondNot(configure_cond(c.operand, config))
    if isinstance(c, CondAnd):
        return CondAnd(configure_cond(c.left, config), configure_cond(c.right, config))
    if isinstance(c, CondOr):
        return CondOr(configure_cond(c.left, config), configure_cond(c.right, config))
    if isinstance(c, CondChoice):
        branch = c.left if eval_fexp(c.dim, config) else c.right
        return configure_cond(branch, config)
    raise TypeError(f"not a condition: {c!r}")


def configure_query(q: VQuery, config: Configuration) -> PlainQuery:
    """The plain query one configuration selects."""
    if isinstance(q, (Relation, Empty)):
        return q
    if isinstance(q, Select):
        return Select(configure_cond(q.cond, config), configure_query(q.sub, config))
    if isinstance(q, Project):
        kept = tuple(
            VElem(el.value, TRUE) for el in q.attrs if eval_fexp(el.pc, config)
        )
        return Project(VSet(kept), configure_query(q.sub, config))
    if isinstance(q, Choice):
        branch = q.left if eval_fexp(q.dim, config) else q.right
        return configure_query(branch, config)
    if isinstance(q, Join):
        return Join(
            configure_cond(q.cond, config),
            configure_query(q.left, config),
            configure_query(q.right, config),
        )
    if isinstance(q, Product):
        return Product(configure_query(q.left, config), configure_query(q.right, config))
    if isinstance(q, SetOp):
        return SetOp(
            q.kind,
            configure_query(q.left, config),
            configure_query(q.right, config),
        )
    raise TypeError(f"not a query: {q!r}")


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


class TooManyFeatures(ValueError):
    """Extensional grouping would enumerate more than 2^20 configurations."""


def _names(x, features=None) -> list[str]:
    """Sorted `features` (default: x's own), at most 20 of them."""
    names = sorted(free_features(x) if features is None else set(features))
    if len(names) > 20:
        raise TooManyFeatures(
            f"too many features to enumerate: {len(names)} (the limit is 20)"
        )
    return names


def _group_extensional(x, configure, key, features=None):
    """Bucket x's configured forms over `features` (default: its own).

    Returns [(plain form, fexp)] in first-seen order; each fexp is the
    canonical formula of the configurations giving that form, read off the
    bucket's minterms.
    """
    names = _names(x, features)
    buckets: dict[object, list[int]] = {}
    reps: dict[object, object] = {}
    for m, c in enumerate(all_configs(names)):
        plain = configure(x, c)
        k = key(plain)
        if k not in buckets:
            buckets[k] = []
            reps[k] = plain
        buckets[k].append(m)
    return [(reps[k], from_minterms(names, ms)) for k, ms in buckets.items()]


def group_cond(c: VCondition) -> list[tuple[VCondition, FeatExpr]]:
    """Distinct configured conditions with their covering feature expressions."""
    return _group_extensional(c, configure_cond, lambda p: p)


def group_attrs(attrs: VSet) -> list[tuple[VSet, FeatExpr]]:
    """Distinct configured projection lists with their covering fexps.

    `_group_extensional`'s pairs, by refinement instead of enumeration: each
    element's truth table splits every block of configurations into those
    that keep the element and those that drop it.  Ordering blocks by their
    lowest minterm gives enumeration's first-seen order.
    """
    names = _names(attrs)
    blocks = [((1 << (1 << len(names))) - 1, ())]
    for el in attrs:
        t = _table_over(el.pc, names)
        blocks = [
            (part, kept + (el.value,) * inside)
            for b, kept in blocks
            for part, inside in ((b & t, True), (b & ~t, False))
            if part
        ]
    blocks.sort(key=lambda block: (block[0] & -block[0]).bit_length())
    return [
        (VSet(tuple(VElem(v, TRUE) for v in kept)), from_table(names, b))
        for b, kept in blocks
    ]


def group_query(q: VQuery) -> QueryGroup:
    """Partition the configuration space by configured query form.

    Compositional: choices split the space by their dimension, and every
    other form crosses its parts' groups, conjoining feature expressions.
    The result is normalized — unsatisfiable pairs dropped, structurally
    identical plain queries merged by disjoining their fexps, fexps
    simplified — so it contains distinct plain queries whose fexps are
    pairwise disjoint and jointly cover all configurations.
    """
    return _normalize_group(_group(q))


def _group(q: VQuery) -> QueryGroup:
    if isinstance(q, (Relation, Empty)):
        return [(q, TRUE)]
    if isinstance(q, Select):
        return [
            (Select(c, sub), conj(ec, es))
            for sub, es in _group(q.sub)
            for c, ec in group_cond(q.cond)
        ]
    if isinstance(q, Project):
        return [
            (Project(attrs, sub), conj(ea, es))
            for sub, es in _group(q.sub)
            for attrs, ea in group_attrs(q.attrs)
        ]
    if isinstance(q, Choice):
        return [
            (sub, conj(q.dim, e)) for sub, e in _group(q.left)
        ] + [
            (sub, conj(Not(q.dim), e)) for sub, e in _group(q.right)
        ]
    if isinstance(q, Join):
        return [
            (Join(c, l, r), conj(ec, conj(el, er)))
            for l, el in _group(q.left)
            for r, er in _group(q.right)
            for c, ec in group_cond(q.cond)
        ]
    if isinstance(q, Product):
        return [
            (Product(l, r), conj(el, er))
            for l, el in _group(q.left)
            for r, er in _group(q.right)
        ]
    if isinstance(q, SetOp):
        return [
            (SetOp(q.kind, l, r), conj(el, er))
            for l, el in _group(q.left)
            for r, er in _group(q.right)
        ]
    raise TypeError(f"not a query: {q!r}")


def _normalize_group(pairs: QueryGroup) -> QueryGroup:
    merged: dict[object, FeatExpr] = {}
    reps: dict[object, PlainQuery] = {}
    for plain, e in pairs:
        if not sat(e):
            continue
        k = plain_key(plain)
        if k in merged:
            merged[k] = Or(merged[k], e)
        else:
            merged[k] = e
            reps[k] = plain
    return [(reps[k], simplify(e)) for k, e in merged.items()]


def group_generic(x, features=None):
    """Extensional grouping: configure under every configuration and bucket.

    Works for anything configurable here — queries, conditions, projection
    v-sets.  `features` defaults to the entity's own free features; pass a
    larger universe to group over it instead (the fexps then mention only
    the features that matter, since they are simplified).
    """
    if isinstance(x, VQuery):
        configure, key = configure_query, plain_key
    elif isinstance(x, VCondition):
        configure, key = configure_cond, lambda p: p
    elif isinstance(x, VSet):
        configure, key = (
            lambda v, c: configure_vset(v, c),
            lambda p: tuple(p),
        )
    else:
        raise TypeError(f"cannot group {x!r}")
    return _group_extensional(x, configure, key, features)


# ---------------------------------------------------------------------------
# Schema push
# ---------------------------------------------------------------------------


def push_schema(q: VQuery, schema: VSchema, ctx: FeatExpr | None = None) -> VQuery:
    """Conjoin schema presence conditions into every projection item.

    Each projected item's condition becomes
    ``simplify(item_pc ∧ attr_pc ∧ subquery_annotation)``, where attr_pc and
    the annotation come from typing the (already pushed) subquery.  Choice
    branches are pushed under the refined context; a branch whose refined
    context is unsatisfiable is left untouched.  The query must type against
    the schema.  Pushing is idempotent up to feature-expression equivalence.
    """
    if ctx is None:
        ctx = schema.model
    if isinstance(q, (Relation, Empty)):
        return q
    if isinstance(q, Select):
        return Select(q.cond, push_schema(q.sub, schema, ctx))
    if isinstance(q, Project):
        sub = push_schema(q.sub, schema, ctx)
        t = type_of(sub, schema, ctx, check_conditions=False)
        pushed_items = []
        for el in q.attrs:
            name = str(el.value)
            bare = name.split(".", 1)[1] if "." in name else name
            pc_attr = t.attr_pcs.get(bare)
            if pc_attr is None:
                raise ValueError(
                    f"cannot push schema onto ill-typed query: projected "
                    f"attribute {name} is not produced by the subquery"
                )
            presence = conj(pc_attr, t.annotation)
            pc = simplify(conj(el.pc, presence))
            if sat(pc):  # items that can never materialize are dropped
                pushed_items.append(VElem(el.value, pc))
        return Project(VSet(tuple(pushed_items)), sub)
    if isinstance(q, Choice):
        lctx, rctx = And(ctx, q.dim), And(ctx, Not(q.dim))
        left = push_schema(q.left, schema, lctx) if sat(lctx) else q.left
        right = push_schema(q.right, schema, rctx) if sat(rctx) else q.right
        return Choice(q.dim, left, right)
    if isinstance(q, Join):
        return Join(
            q.cond, push_schema(q.left, schema, ctx), push_schema(q.right, schema, ctx)
        )
    if isinstance(q, Product):
        return Product(push_schema(q.left, schema, ctx), push_schema(q.right, schema, ctx))
    if isinstance(q, SetOp):
        return SetOp(
            q.kind, push_schema(q.left, schema, ctx), push_schema(q.right, schema, ctx)
        )
    raise TypeError(f"not a query: {q!r}")
