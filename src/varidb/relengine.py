"""Reference relational evaluator and the two execution strategies.

``eval_plain`` is a classical set-semantics evaluator over plain tables:
selection filters, projection deduplicates, product concatenates
disjointly-named columns, join is product plus filter, and the set
operations require identical column lists, which the column-less empty
relation fits.

On top of it sit the two ways of answering a variational query:

* ``run_configure`` enumerates every configuration that satisfies the
  feature model, configures both the query and the database down to
  plain relational form, evaluates, and stamps each result table with
  the configuration's minterm.
* ``run_group`` evaluates each distinct plain query of the group
  translation once, against the database restricted to the group's
  condition, tracking per-row presence conditions through the
  operators.  Its groups, regions and output rows are `featexpr.Universe`
  conditions: each output row's condition is the OR of its parts, and a
  formula is built only to print it.

The two share no reassembly code.  ``run_configure`` feeds its annotated
per-configuration tables to the v-table builder, which merges and
simplifies formulas; ``run_group`` merges `Universe` values.  Both print
each row's canonical condition and sort rows by value, so they produce
the same v-table, and each checks the other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .catalog import AttrType, VAttr, VRelSchema, VSchema, attr_presence
from .featexpr import (
    FeatExpr,
    Not,
    TRUE,
    Table,
    Universe,
    conj,
    disj,
    minterm,
    print_fexp,
    sat,
    solutions,
)
from .storage import (
    PlainTable,
    StorageError,
    VDBInstance,
    VTable,
    VTuple,
    build_vtable,
    configure_db,
    row_sort_key,
)
from .translate import configure_query, group_tables
from .typecheck import PlainTypeError, type_of
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

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# plain evaluation
# ---------------------------------------------------------------------------


def _bare(name: str) -> str:
    return name.split(".", 1)[1] if "." in name else name


def _index(columns: tuple[tuple[str, AttrType], ...]) -> dict[str, int]:
    return {name: i for i, (name, _) in enumerate(columns)}


def _cell(row: tuple, idx: dict[str, int], ref: AttrRef):
    """A referenced cell, or None when the column is absent here.

    Comparisons over absent columns evaluate to false, exactly like
    comparisons over Null cells, so configurations that lack an
    attribute can still run queries whose conditions mention it.
    """
    pos = idx.get(ref.name)
    if pos is None:
        return None
    return row[pos]


def _eval_cond(cond: VCondition, row: tuple, idx: dict[str, int]) -> bool:
    """Two-valued condition evaluation; comparisons against Null are false."""
    if isinstance(cond, CondLit):
        return cond.value
    if isinstance(cond, CompareAttrConst):
        v = _cell(row, idx, cond.attr)
        return v is not None and _OPS[cond.op](v, cond.const.value)
    if isinstance(cond, CompareAttrAttr):
        v1 = _cell(row, idx, cond.attr1)
        v2 = _cell(row, idx, cond.attr2)
        return v1 is not None and v2 is not None and _OPS[cond.op](v1, v2)
    if isinstance(cond, CondNot):
        return not _eval_cond(cond.operand, row, idx)
    if isinstance(cond, CondAnd):
        return _eval_cond(cond.left, row, idx) and _eval_cond(cond.right, row, idx)
    if isinstance(cond, CondOr):
        return _eval_cond(cond.left, row, idx) or _eval_cond(cond.right, row, idx)
    raise PlainTypeError("variational condition reached plain evaluation")


def _project_columns(
    attrs, columns: tuple[tuple[str, AttrType], ...]
) -> tuple[list[int], tuple[tuple[str, AttrType], ...]]:
    idx = _index(columns)
    positions, out = [], []
    for el in attrs:
        name = _bare(str(el.value))
        if name not in idx:
            raise PlainTypeError(f"projected attribute {name} is not in the input")
        positions.append(idx[name])
        out.append((name, columns[idx[name]][1]))
    return positions, tuple(out)


def _joined_columns(
    left: tuple[tuple[str, AttrType], ...], right: tuple[tuple[str, AttrType], ...]
) -> tuple[tuple[str, AttrType], ...]:
    shared = {n for n, _ in left} & {n for n, _ in right}
    if shared:
        raise PlainTypeError(
            f"operands share attribute names: {', '.join(sorted(shared))}"
        )
    return left + right


def _same_columns(a, b, what: str) -> None:
    """Both operands of a set operation list the same columns, unless one
    has no columns and no rows: the typeless empty relation fits any."""
    if a.columns != b.columns and (a.columns or a.rows) and (b.columns or b.rows):
        raise PlainTypeError(f"{what} requires identical columns on both sides")


def eval_plain(q: VQuery, db: dict[str, PlainTable]) -> PlainTable:
    """Evaluate a plain query over a plain database, set semantics."""
    if isinstance(q, Relation):
        table = db.get(q.name)
        if table is None:
            return PlainTable((), frozenset())
        return table
    if isinstance(q, Select):
        t = eval_plain(q.sub, db)
        idx = _index(t.columns)
        return PlainTable(
            t.columns, frozenset(r for r in t.rows if _eval_cond(q.cond, r, idx))
        )
    if isinstance(q, Project):
        t = eval_plain(q.sub, db)
        positions, columns = _project_columns(q.attrs, t.columns)
        return PlainTable(
            columns, frozenset(tuple(r[p] for p in positions) for r in t.rows)
        )
    if isinstance(q, (Product, Join)):
        a = eval_plain(q.left, db)
        b = eval_plain(q.right, db)
        columns = _joined_columns(a.columns, b.columns)
        rows = frozenset(ra + rb for ra in a.rows for rb in b.rows)
        if isinstance(q, Join):
            idx = _index(columns)
            rows = frozenset(r for r in rows if _eval_cond(q.cond, r, idx))
        return PlainTable(columns, rows)
    if isinstance(q, SetOp):
        a = eval_plain(q.left, db)
        b = eval_plain(q.right, db)
        _same_columns(a, b, q.kind)
        rows = a.rows | b.rows if q.kind == "union" else a.rows - b.rows
        return PlainTable(a.columns if a.columns else b.columns, rows)
    if isinstance(q, Empty):
        return PlainTable((), frozenset())
    raise PlainTypeError("variational query reached plain evaluation")


# ---------------------------------------------------------------------------
# tracked evaluation (per-row presence conditions)
# ---------------------------------------------------------------------------


@dataclass
class TrackedTable:
    """A plain-shaped table whose rows carry feature expressions."""

    columns: tuple[tuple[str, AttrType], ...]
    rows: dict[tuple, FeatExpr]


def _stored(db: VDBInstance, u: Universe) -> tuple[dict[str, tuple], dict[FeatExpr, Table]]:
    """The `Universe` value of each column presence condition, and each
    stored v-table as `run_group` restricts it: its columns with those
    values, and its rows with their condition conjoined with the
    relation's, as formula and as value."""
    s = db.schema
    pcs = {(r.name, a.name): attr_presence(s, r.name, a.name)
           for r in s.relations.values() for a in r.attrs}
    presence = {h: u.of(h) for h in pcs.values()}
    stored = {
        name: (
            [((a.name, a.atype), presence[pcs[t.schema.name, a.name]]) for a in t.schema.attrs],
            [(r.values, pc, u.of(pc)) for r in t.rows for pc in [conj(r.pc, t.schema.pc)]],
        )
        for name, t in db.tables.items()
    }
    return presence, stored


def _disjoined(rows: Iterable[tuple[tuple, FeatExpr]]) -> dict[tuple, FeatExpr]:
    """Rows keyed by their values.  Equal rows merge by disjoining their
    conditions pairwise, so the disjunction of n conditions nests log2(n)
    deep; a row seen once keeps its condition as it is."""
    out: dict[tuple, FeatExpr] = {}
    repeats: dict[tuple, list[FeatExpr]] = {}
    for values, pc in rows:
        if values in out:
            repeats.setdefault(values, [out[values]]).append(pc)
        else:
            out[values] = pc
    for values, pcs in repeats.items():
        while len(pcs) > 1:
            pcs = [disj(p, q) for p, q in zip(pcs[::2], pcs[1::2])] + pcs[len(pcs) & ~1 :]
        out[values] = pcs[0]
    return out


def _restrict_table(table: tuple, region: Table) -> TrackedTable:
    """The slice of a stored v-table visible inside `region`.

    Columns survive where their presence condition meets the region, rows
    where their condition, which includes the relation's, does: one AND of
    `Universe` values each.  Rows carry their formula into `eval_tracked`.
    """
    columns, stored_rows = table
    keep = [i for i, (_, t) in enumerate(columns) if t & region]
    rows = _disjoined(
        (tuple(values[i] for i in keep), pc) for values, pc, t in stored_rows if t & region
    )
    return TrackedTable(tuple(columns[i][0] for i in keep), rows)


def eval_tracked(q: VQuery, db: dict[str, TrackedTable]) -> TrackedTable:
    """Evaluate a plain query while carrying row conditions along.

    Rows that a projection makes equal merge as `_disjoined` merges them.
    A product or a union of tables with distinct rows merges at most two
    conditions per row, so its merge stays a single `disj`."""
    if isinstance(q, Relation):
        table = db.get(q.name)
        if table is None:
            return TrackedTable((), {})
        return table
    if isinstance(q, Select):
        t = eval_tracked(q.sub, db)
        idx = _index(t.columns)
        return TrackedTable(
            t.columns,
            {r: pc for r, pc in t.rows.items() if _eval_cond(q.cond, r, idx)},
        )
    if isinstance(q, Project):
        t = eval_tracked(q.sub, db)
        positions, columns = _project_columns(q.attrs, t.columns)
        rows = _disjoined((tuple(r[p] for p in positions), pc) for r, pc in t.rows.items())
        return TrackedTable(columns, rows)
    if isinstance(q, (Product, Join)):
        a = eval_tracked(q.left, db)
        b = eval_tracked(q.right, db)
        columns = _joined_columns(a.columns, b.columns)
        idx = _index(columns)
        rows = {}
        for ra, pa in a.rows.items():
            for rb, pb in b.rows.items():
                pc = conj(pa, pb)
                if not sat(pc):
                    continue
                values = ra + rb
                if isinstance(q, Join) and not _eval_cond(q.cond, values, idx):
                    continue
                rows[values] = disj(rows[values], pc) if values in rows else pc
        return TrackedTable(columns, rows)
    if isinstance(q, SetOp):
        a = eval_tracked(q.left, db)
        b = eval_tracked(q.right, db)
        _same_columns(a, b, q.kind)
        if q.kind == "union":
            rows = dict(a.rows)
            for r, pc in b.rows.items():
                rows[r] = disj(rows[r], pc) if r in rows else pc
        else:
            rows = {}
            for r, pc in a.rows.items():
                if r in b.rows:
                    pc = conj(pc, Not(b.rows[r]))
                if sat(pc):
                    rows[r] = pc
        return TrackedTable(a.columns if a.columns else b.columns, rows)
    if isinstance(q, Empty):
        return TrackedTable((), {})
    raise PlainTypeError("variational query reached plain evaluation")


# ---------------------------------------------------------------------------
# the two strategies
# ---------------------------------------------------------------------------


def result_schema(q: VQuery, schema: VSchema) -> VRelSchema:
    """The relation schema a query's results are assembled against.

    A query whose annotation is unsatisfiable, such as ``empty`` or
    ``prod r empty``, answers with no rows in every variant; a relation
    schema cannot carry a false presence condition, so its result schema
    has no attributes and is present under ``true``.
    """
    t = type_of(q, schema, check_conditions=False)
    attrs = tuple(VAttr(n, t.info[n].atype, t.attr_pcs[n]) for n in t.names())
    return VRelSchema("result", attrs, t.annotation if t.ann_table else TRUE)


def model_configs(schema: VSchema) -> list[frozenset[str]]:
    """Every total configuration that satisfies the feature model."""
    return solutions(schema.model, schema.features)


def run_configure(q: VQuery, db: VDBInstance, collect: list | None = None) -> VTable:
    """Answer a v-query by evaluating one plain variant per configuration.

    When `collect` is a list, it receives one (label, plain query,
    PlainTable) triple per configuration, in enumeration order.
    """
    schema = result_schema(q, db.schema)
    features = db.schema.features
    parts = []
    for config in model_configs(db.schema):
        plain_query = configure_query(q, config)
        table = eval_plain(plain_query, configure_db(db, config))
        stamp = minterm(config, features)
        parts.append((table, stamp))
        if collect is not None:
            collect.append((print_fexp(stamp), plain_query, table))
    return build_vtable(parts, schema)


def _column_presences(q: VQuery, schema: VSchema) -> tuple[dict[str, FeatExpr], set[FeatExpr]]:
    """Presence conditions a plain query's meaning can depend on.

    Returns the query's visible output columns mapped to their presence
    conditions, plus the presence conditions of every column some
    condition inside the query compares.  Within a region where all of
    these (and the visible ones) are decided, the query touches the
    same columns at every configuration.
    """
    if isinstance(q, Relation):
        rel = schema.relations.get(q.name)
        if rel is None:
            return {}, set()
        visible = {a.name: attr_presence(schema, q.name, a.name) for a in rel.attrs}
        return visible, set()
    if isinstance(q, Select):
        visible, compared = _column_presences(q.sub, schema)
        for name in _condition_names(q.cond):
            if name in visible:
                compared.add(visible[name])
        return visible, compared
    if isinstance(q, Project):
        visible, compared = _column_presences(q.sub, schema)
        projected = {}
        for el in q.attrs:
            name = _bare(str(el.value))
            if name in visible:
                projected[name] = visible[name]
        return projected, compared
    if isinstance(q, (Product, Join)):
        lvis, lcmp = _column_presences(q.left, schema)
        rvis, rcmp = _column_presences(q.right, schema)
        visible = {**lvis, **rvis}
        compared = lcmp | rcmp
        if isinstance(q, Join):
            for name in _condition_names(q.cond):
                if name in visible:
                    compared.add(visible[name])
        return visible, compared
    if isinstance(q, SetOp):
        lvis, lcmp = _column_presences(q.left, schema)
        rvis, rcmp = _column_presences(q.right, schema)
        # The two sides agree on columns up to equivalence; splitting on
        # both spellings is harmless and keeps merging exact.
        return lvis, lcmp | rcmp | set(rvis.values())
    return {}, set()


def _condition_names(cond: VCondition) -> set[str]:
    if isinstance(cond, CompareAttrConst):
        return {cond.attr.name}
    if isinstance(cond, CompareAttrAttr):
        return {cond.attr1.name, cond.attr2.name}
    if isinstance(cond, CondNot):
        return _condition_names(cond.operand)
    if isinstance(cond, (CondAnd, CondOr)):
        return _condition_names(cond.left) | _condition_names(cond.right)
    return set()


def _presence_atoms(q: VQuery, schema: VSchema, region: Table, presence: dict) -> list[Table]:
    """Split a region until every relevant column presence is decided.

    A group's feature expression fixes which plain query runs, but not
    which columns the stored tables expose — an attribute can be
    present in one part of the region and absent in another, which
    would corrupt value-based merging.  Each returned sub-region
    decides every presence condition the query can observe.  Regions are
    split by the `Universe` values in `presence`, in formula print order.
    """
    visible, compared = _column_presences(q, schema)
    live = set(visible.values()) | compared
    regions = [region] if region else []
    for h in sorted(live, key=print_fexp):
        if h == TRUE:
            continue
        t = presence[h]
        regions = [part for reg in regions for part in (reg & t, reg & ~t) if part]
    return regions


def run_group(q: VQuery, db: VDBInstance, collect: list | None = None) -> VTable:
    """Answer a v-query by evaluating each distinct plain query once.

    Every condition is a value of `Universe(sorted(schema.features))`
    from grouping to printing.  Each group is evaluated against the
    database restricted to each of its regions, conditions on which
    column presence is constant; row conditions are tracked through the
    operators and ANDed with the region on the way out.  Output rows are
    padded with Null to the result's attributes, and equal rows merge by
    ORing their conditions.  Each row's condition prints once, as its
    canonical formula, and rows come out sorted by value.
    When `collect` is a list, it receives one (label, plain query,
    TrackedTable) triple per evaluation, labelled by the region's
    canonical formula.
    """
    schema = result_schema(q, db.schema)
    names = schema.attr_names()
    u = Universe(sorted(db.schema.features))
    model = u.of(db.schema.model)
    presence, stored = _stored(db, u)
    merged: dict[tuple, Table] = {}
    for plain_query, g in group_tables(q, u):
        for region in _presence_atoms(plain_query, db.schema, g & model, presence):
            restricted = {name: _restrict_table(t, region) for name, t in stored.items()}
            out = eval_tracked(plain_query, restricted)
            if collect is not None:
                collect.append((print_fexp(u.formula(region)), plain_query, out))
            rows = [(values, t) for values, pc in out.rows.items() if (t := region & u.of(pc))]
            if not rows:
                continue
            idx = _index(out.columns)
            unknown = idx.keys() - set(names)
            if unknown:
                raise StorageError(
                    f"column mismatch: {sorted(unknown)[0]} is not an attribute "
                    f"of {schema.name}"
                )
            for values, t in rows:
                padded = tuple(values[idx[n]] if n in idx else None for n in names)
                merged[padded] = merged[padded] | t if padded in merged else t
    return VTable(
        schema, tuple(VTuple(v, u.formula(merged[v])) for v in sorted(merged, key=row_sort_key))
    )
