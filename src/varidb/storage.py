"""Variational content: annotated tuples, tables, and whole database instances.

A v-table pairs a relation schema with rows that each carry a presence
condition.  A cell may hold Null (represented as Python None) either because
the data is genuinely missing or because the attribute cannot coexist with
the row; the validity invariant only requires that every *non-Null* cell's
attribute condition, row condition, relation condition, and feature model
are jointly satisfiable.

On disk a database instance is a directory: `schema.vschema` plus one CSV
per relation.  The CSV header lists the attribute names followed by
`presCond`; text values are double-quoted (with `""` escaping), booleans are
`true`/`false`, an empty field is Null, and the presCond column holds
feature-expression text.  The reader/writer is hand-rolled because the round
trip must distinguish an empty field (Null) from a quoted empty string and
stay byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .catalog import (
    AttrType,
    VRelSchema,
    VSchema,
    configure_schema,
    parse_schema,
    print_schema,
)
from .featexpr import (
    FALSE,
    And,
    FeatExpr,
    Or,
    ParseError,
    TRUE,
    conj,
    eval_fexp,
    parse_fexp,
    print_fexp,
    sat,
    simplify,
)

#: A plain cell value; None is the missing/non-existent value.
Value = int | str | bool | None


class StorageError(ValueError):
    """Data file or table-content error."""


@dataclass(frozen=True)
class VTuple:
    values: tuple[Value, ...]
    pc: FeatExpr = TRUE

    def __post_init__(self):
        if not sat(self.pc):
            raise StorageError("unsatisfiable row presence condition")


@dataclass(frozen=True)
class VTable:
    schema: VRelSchema
    rows: tuple[VTuple, ...] = ()

    def __post_init__(self):
        arity = len(self.schema.attrs)
        for row in self.rows:
            if len(row.values) != arity:
                raise StorageError(
                    f"arity mismatch in {self.schema.name}: row has "
                    f"{len(row.values)} values, schema has {arity} attributes"
                )


@dataclass
class VDBInstance:
    schema: VSchema
    tables: dict[str, VTable]


@dataclass(frozen=True)
class PlainTable:
    """A configured (plain) relation: typed columns and a set of rows."""

    columns: tuple[tuple[str, AttrType], ...]
    rows: frozenset[tuple]

    def column_names(self) -> list[str]:
        return [n for n, _ in self.columns]

    def sorted_rows(self) -> list[tuple]:
        return sorted(self.rows, key=row_sort_key)


def row_sort_key(row: tuple) -> tuple:
    # None sorts after every real value; within a column values share a type
    return tuple((v is None, v) for v in row)


# ---------------------------------------------------------------------------
# Validity and configuration
# ---------------------------------------------------------------------------


def cell_valid(db: VDBInstance, rel: str, attr: str, row: VTuple) -> bool:
    """Can this cell ever exist?  sat(pc_attr ∧ pc_row ∧ pc_rel ∧ m)."""
    r = db.schema.relation(rel)
    a = r.attr(attr)
    if a is None:
        raise StorageError(f"unknown attribute {attr} in relation {rel}")
    return sat(And(And(a.pc, row.pc), And(r.pc, db.schema.model)))


def validate_vtable(table: VTable, model: FeatExpr = TRUE) -> None:
    """Check value types and the non-Null cell validity invariant."""
    rel = table.schema
    for row in table.rows:
        for a, v in zip(rel.attrs, row.values):
            if v is None:
                continue
            if not _type_ok(v, a.atype):
                raise StorageError(
                    f"type mismatch in {rel.name}.{a.name}: {v!r} is not {a.atype.keyword}"
                )
            if not sat(And(And(a.pc, row.pc), And(rel.pc, model))):
                raise StorageError(
                    f"invalid cell {rel.name}.{a.name}: value {v!r} can never "
                    f"be present (unsatisfiable condition)"
                )


def _type_ok(v: Value, atype: AttrType) -> bool:
    if atype == AttrType.BOOLEAN:
        return isinstance(v, bool)
    if atype == AttrType.INTEGER:
        return isinstance(v, int) and not isinstance(v, bool)
    return isinstance(v, str)


def configure_tuple(
    u: VTuple, rel: VRelSchema, model: FeatExpr, config: Iterable[str]
) -> tuple | None:
    """Configure one row: None if the row is absent, else the plain tuple.

    Output positions follow the configured schema: attributes whose full
    hierarchical condition fails under the configuration contribute no cell.
    """
    enabled = frozenset(config)
    if not eval_fexp(u.pc, enabled):
        return None
    out = []
    for a, v in zip(rel.attrs, u.values):
        if eval_fexp(conj(a.pc, conj(rel.pc, model)), enabled):
            out.append(v)
    return tuple(out)


def configure_table(
    table: VTable, model: FeatExpr, config: Iterable[str]
) -> PlainTable:
    enabled = frozenset(config)
    columns = tuple(
        (a.name, a.atype)
        for a in table.schema.attrs
        if eval_fexp(conj(a.pc, conj(table.schema.pc, model)), enabled)
    )
    rows = set()
    for u in table.rows:
        plain = configure_tuple(u, table.schema, model, enabled)
        if plain is not None:
            rows.add(plain)
    return PlainTable(columns, frozenset(rows))


def configure_db(db: VDBInstance, config: Iterable[str]) -> dict[str, PlainTable]:
    """The plain database a configuration selects (relation name → table)."""
    enabled = frozenset(config)
    plain_schema = configure_schema(db.schema, enabled)
    out = {}
    for name in plain_schema:
        out[name] = configure_table(db.tables[name], db.schema.model, enabled)
    return out


# ---------------------------------------------------------------------------
# Reassembly
# ---------------------------------------------------------------------------


def build_vtable(
    parts: Iterable[tuple[PlainTable, FeatExpr]], schema: VRelSchema
) -> VTable:
    """Merge per-variant plain tables into one v-table: `run_configure`'s
    reassembly, one part per configuration.

    Each plain row is annotated with its part's feature expression and padded
    with Null for schema attributes its table lacks; rows identical in all
    values merge by disjoining their conditions, pairwise, so the
    disjunction of n parts nests log2(n) deep; unsatisfiable rows drop; all
    conditions are canonically simplified; rows come out sorted by value.  A
    part with no rows adds nothing, whatever its columns.
    """
    names = schema.attr_names()
    merged: dict[tuple, list[FeatExpr]] = {}
    for table, fexp in parts:
        if not table.rows:
            continue
        cols = table.column_names()
        unknown = set(cols) - set(names)
        if unknown:
            raise StorageError(
                f"column mismatch: {sorted(unknown)[0]} is not an attribute "
                f"of {schema.name}"
            )
        idx = {n: i for i, n in enumerate(cols)}
        for row in table.sorted_rows():
            padded = tuple(
                row[idx[n]] if n in idx else None for n in names
            )
            merged.setdefault(padded, []).append(fexp)
    rows = []
    for values in sorted(merged, key=row_sort_key):
        pcs = merged[values]
        while len(pcs) > 1:
            pcs = [Or(p, q) for p, q in zip(pcs[::2], pcs[1::2])] + pcs[len(pcs) & ~1 :]
        pc = simplify(pcs[0])
        if pc == FALSE:
            continue
        rows.append(VTuple(values, pc))
    return VTable(schema, tuple(rows))


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------


def render_cell(v: Value) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if "\n" in v or "\r" in v:
        raise StorageError("newline in text value")
    return '"' + v.replace('"', '""') + '"'


def print_vtable(table: VTable) -> str:
    """CSV text: attribute columns in schema order plus presCond."""
    lines = [",".join(table.schema.attr_names() + ["presCond"])]
    for row in table.rows:
        cells = [render_cell(v) for v in row.values]
        cells.append(print_fexp(row.pc))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def print_plain_table(table: PlainTable) -> str:
    """CSV text for a configured table (no presCond column)."""
    lines = [",".join(table.column_names())]
    for row in table.sorted_rows():
        lines.append(",".join(render_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _split_csv_line(line: str, where: str) -> list[tuple[str, bool]]:
    """Split one line into (text, was_quoted) fields."""
    fields: list[tuple[str, bool]] = []
    i = 0
    n = len(line)
    while True:
        if i < n and line[i] == '"':
            out = []
            i += 1
            while True:
                if i >= n:
                    raise StorageError(f"{where}: unterminated quote")
                if line[i] == '"':
                    if i + 1 < n and line[i + 1] == '"':
                        out.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                out.append(line[i])
                i += 1
            fields.append(("".join(out), True))
            if i < n and line[i] != ",":
                raise StorageError(f"{where}: expected ',' after closing quote")
        else:
            j = line.find(",", i)
            j = n if j == -1 else j
            fields.append((line[i:j], False))
            i = j
        if i >= n:
            return fields
        i += 1  # skip the comma


def _parse_cell(text: str, quoted: bool, atype: AttrType, where: str) -> Value:
    if quoted:
        if atype != AttrType.TEXT:
            raise StorageError(f"{where}: quoted value in a {atype.keyword} column")
        return text
    if text == "":
        return None
    if atype == AttrType.INTEGER:
        try:
            return int(text)
        except ValueError:
            raise StorageError(f"{where}: {text!r} is not an integer") from None
    if atype == AttrType.BOOLEAN:
        if text == "true":
            return True
        if text == "false":
            return False
        raise StorageError(f"{where}: {text!r} is not a boolean")
    return text


def parse_vtable(text: str, schema: VRelSchema, where: str = "table") -> VTable:
    # records end at "\n" (or "\r\n") only: quoted text may hold the other
    # characters `str.splitlines` breaks at
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if not lines or not lines[0].strip():
        return VTable(schema, ())
    expected = schema.attr_names() + ["presCond"]
    header = [f for f, _ in _split_csv_line(lines[0], f"{where} header")]
    if header != expected:
        raise StorageError(
            f"{where}: header {header!r} does not match schema columns {expected!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        spot = f"{where} line {lineno}"
        fields = _split_csv_line(line, spot)
        if len(fields) != len(expected):
            raise StorageError(
                f"{spot}: expected {len(expected)} fields, found {len(fields)}"
            )
        values = tuple(
            _parse_cell(f, q, a.atype, spot)
            for (f, q), a in zip(fields[:-1], schema.attrs)
        )
        pc_text, pc_quoted = fields[-1]
        if pc_quoted:
            raise StorageError(f"{spot}: presCond must not be quoted")
        try:
            pc = parse_fexp(pc_text.strip())
        except ParseError as exc:
            raise StorageError(f"{spot}: bad presence condition: {exc}") from exc
        rows.append(VTuple(values, pc))
    return VTable(schema, tuple(rows))


# ---------------------------------------------------------------------------
# Directories
# ---------------------------------------------------------------------------


def load_vdb(path: Path | str) -> VDBInstance:
    root = Path(path)
    schema_file = root / "schema.vschema"
    if not schema_file.exists():
        raise StorageError(f"no schema.vschema in {root}")
    schema = parse_schema(_read_text(schema_file))
    tables = {}
    for rel in schema.relations.values():
        data = root / f"{rel.name}.csv"
        if not data.exists():
            raise StorageError(f"missing data file {data.name} in {root}")
        table = parse_vtable(_read_text(data), rel, where=data.name)
        validate_vtable(table, schema.model)
        tables[rel.name] = table
    return VDBInstance(schema, tables)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StorageError(f"{path.name} is not UTF-8 text: {exc}") from None


def save_vdb(db: VDBInstance, path: Path | str) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "schema.vschema").write_text(print_schema(db.schema), encoding="utf-8")
    for name, table in db.tables.items():
        (root / f"{name}.csv").write_text(print_vtable(table), encoding="utf-8")
