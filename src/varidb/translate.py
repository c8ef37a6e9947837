"""From variational queries to plain ones: configure and group.

Two bridges between the variational and plain worlds:

* `configure_query` resolves every choice and conditional projection item
  under one configuration, leaving an ordinary relational query.
* `group_tables` partitions the configuration space instead: it returns
  annotated plain queries, one per distinct configured form, whose
  `featexpr.Universe` conditions are pairwise disjoint and jointly cover
  every configuration.  It splits and intersects presence conditions and
  enumerates no configurations, so it has no feature limit.  `group_query`
  prints those conditions as feature expressions.
  `group_generic` is the brute-force restatement (configure under every
  configuration, bucket identical results, at most 20 features) used as an
  oracle.

`push_schema`, which conjoins schema presence conditions into the query's
projection items, is importable from here too; it is the typing walk, so
it lives in `typecheck`.
"""

from __future__ import annotations

from .featexpr import (
    TRUE,
    Configuration,
    FeatExpr,
    Table,
    Universe,
    all_configs,
    eval_fexp,
    from_table,
)
from .typecheck import push_schema  # re-exported
from .vra import (
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


def _merge(pairs: list, key) -> list:
    """Pairs whose values have equal keys, merged with ``|`` in order of
    first occurrence."""
    merged: dict[object, tuple[object, Table]] = {}
    for value, t in pairs:
        k = key(value)
        merged[k] = (merged[k][0], merged[k][1] | t) if k in merged else (value, t)
    return list(merged.values())


def _cross(xs: list, ys: list, make) -> list:
    """`make(x, y)` for every pair whose conditions intersect, x-major."""
    return [(make(x, y), t) for x, tx in xs for y, ty in ys if (t := tx & ty)]


def _split(t: Table, xs: list, ys: list) -> list:
    """`xs` where `t` holds, then `ys` where it does not."""
    return [(x, s) for x, tx in xs if (s := tx & t)] + [(y, s) for y, ty in ys if (s := ty & ~t)]


def _cond_blocks(c: VCondition, u: Universe) -> list:
    """The distinct configured forms of `c` with their conditions in `u`:
    choices split their branches' blocks by their dimension, and the other
    connectives map or cross them."""
    if isinstance(c, (CondLit, CompareAttrConst, CompareAttrAttr)):
        return [(c, u.of(TRUE))]
    if isinstance(c, CondNot):
        return [(CondNot(x), t) for x, t in _cond_blocks(c.operand, u)]
    if isinstance(c, (CondAnd, CondOr)):
        return _cross(_cond_blocks(c.left, u), _cond_blocks(c.right, u), type(c))
    if isinstance(c, CondChoice):
        left, right = _cond_blocks(c.left, u), _cond_blocks(c.right, u)
        return _merge(_split(u.of(c.dim), left, right), lambda x: x)
    raise TypeError(f"not a condition: {c!r}")


def _blocks(x: VCondition | VSet, u: Universe) -> list:
    """The distinct configured forms of a condition or a projection list,
    with their conditions in `u`, in the order enumerating configurations
    first meets them.  Each element of a list splits every block into the
    part that keeps the element and the part that drops it."""
    if isinstance(x, VCondition):
        blocks = _cond_blocks(x, u)
    else:
        kept = [((), u.of(TRUE))]
        for el in x:
            t = u.of(el.pc)
            kept = [
                (values + (el.value,) * inside, part)
                for values, b in kept
                for part, inside in ((b & t, True), (b & ~t, False))
                if part
            ]
        blocks = [(VSet(tuple(VElem(v, TRUE) for v in values)), t) for values, t in kept]
    if len(blocks) < 2:
        return blocks
    return sorted(blocks, key=lambda block: u.lowest(block[1]))


def group_cond(c: VCondition) -> list[tuple[VCondition, FeatExpr]]:
    """Distinct configured conditions with their covering fexps, in
    `group_generic`'s order."""
    u = Universe(sorted(free_features(c)))
    return [(x, u.formula(t)) for x, t in _blocks(c, u)]


def group_attrs(attrs: VSet) -> list[tuple[VSet, FeatExpr]]:
    """Distinct configured projection lists with their covering fexps, in
    `group_generic`'s order."""
    u = Universe(sorted(free_features(attrs)))
    return [(x, u.formula(t)) for x, t in _blocks(attrs, u)]


def group_query(q: VQuery) -> QueryGroup:
    """`group_tables` in `Universe(free_features(q))`, each condition
    printed as its canonical formula."""
    u = Universe(sorted(free_features(q)))
    return [(plain, u.formula(t)) for plain, t in group_tables(q, u)]


def group_tables(q: VQuery, u: Universe) -> list[tuple[PlainQuery, Table]]:
    """Partition the configuration space by configured query form.

    Compositional, in `u`, which must name every feature of `q`: choices
    split the space by their dimension, and every other form crosses its
    parts' groups, dropping empty intersections.  Identical plain queries
    then merge, so the result holds distinct plain queries whose `u`
    conditions are pairwise disjoint and jointly cover all configurations.
    """
    return _merge(_group(q, u), plain_key)


def _group(q: VQuery, u: Universe) -> list:
    if isinstance(q, (Relation, Empty)):
        return [(q, u.of(TRUE))]
    if isinstance(q, Select):
        return _cross(_group(q.sub, u), _blocks(q.cond, u), lambda sub, c: Select(c, sub))
    if isinstance(q, Project):
        return _cross(_group(q.sub, u), _blocks(q.attrs, u), lambda sub, a: Project(a, sub))
    if isinstance(q, Choice):
        return _split(u.of(q.dim), _group(q.left, u), _group(q.right, u))
    if isinstance(q, Join):
        pairs = _cross(_group(q.left, u), _group(q.right, u), lambda l, r: (l, r))
        return _cross(pairs, _blocks(q.cond, u), lambda lr, c: Join(c, *lr))
    if isinstance(q, Product):
        return _cross(_group(q.left, u), _group(q.right, u), Product)
    if isinstance(q, SetOp):
        return _cross(
            _group(q.left, u), _group(q.right, u), lambda l, r: SetOp(q.kind, l, r)
        )
    raise TypeError(f"not a query: {q!r}")


def group_generic(x, features=None):
    """Extensional grouping: configure under every configuration and bucket.

    Works for anything configurable here — queries, conditions, projection
    v-sets.  `features` defaults to the entity's own free features; pass a
    larger universe to group over it instead.  Returns [(plain form, fexp)]
    in first-seen order, each fexp read off its bucket's truth table by
    `from_table`.  At most 20 features.
    """
    if isinstance(x, VQuery):
        configure, key = configure_query, plain_key
    elif isinstance(x, VCondition):
        configure, key = configure_cond, lambda p: p
    elif isinstance(x, VSet):
        configure, key = configure_vset, tuple
    else:
        raise TypeError(f"cannot group {x!r}")
    names = sorted(free_features(x) if features is None else set(features))
    if len(names) > 20:
        raise TooManyFeatures(f"too many features to enumerate: {len(names)} (the limit is 20)")
    buckets: dict[object, tuple[object, bytearray]] = {}
    for m, c in enumerate(all_configs(names)):
        plain = configure(x, c)
        k = key(plain)
        if k not in buckets:
            buckets[k] = plain, bytearray((1 << len(names)) + 7 >> 3)
        buckets[k][1][m >> 3] |= 1 << (m & 7)
    return [
        (plain, from_table(names, int.from_bytes(bits, "little")))
        for plain, bits in buckets.values()
    ]
