"""Command-line surface tying the pipeline together.

Every subcommand loads a v-database directory (a `schema.vschema` file plus
one CSV per relation).  Query-taking subcommands read the query from a file
argument or stdin, then follow one pipeline: parse, type check, push the
schema onto the query, minimize (unless --no-minimize), and hand the result
to the requested backend.

Exit codes: 0 success, 1 I/O or data errors (and input nested deeper than
the interpreter's recursion limit), 2 type errors, 3 syntax errors.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from .catalog import (
    CatalogError,
    configure_schema,
    count_schema_variants,
    parse_config,
    print_plain_schema,
)
from .featexpr import ParseError, conj, minterm, print_fexp, witness
from .minimize import lift, minimize
from .relengine import model_configs, run_configure, run_group
from .sqlgen import SqlError, SqlStatement, sql_of_plain, sql_union
from .storage import (
    StorageError,
    VDBInstance,
    configure_db,
    load_vdb,
    print_plain_table,
    print_vtable,
)
from .translate import configure_query, group_query
from .typecheck import PlainTypeError, VTypeError, plain_type, push_schema, type_of
from .vra import VQuery, parse_query, print_query


class _Usage(Exception):
    """Bad argument content (unknown feature, unreadable query file)."""


def _read_query_text(path: str | None) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Usage(f"cannot read query file: {exc}") from exc


def _parse_cli_config(arg: str, db: VDBInstance) -> frozenset[str]:
    try:
        return parse_config(arg, db.schema)
    except CatalogError as exc:
        raise ParseError(str(exc), 0) from exc


def _prepare(db: VDBInstance, text: str, *, no_minimize: bool) -> VQuery:
    """Parse, type check, push, and (optionally) minimize one query."""
    q = parse_query(text)
    type_of(q, db.schema)
    q = push_schema(q, db.schema)
    if not no_minimize:
        q = minimize(q, db.schema.model)
    return q


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    db = load_vdb(args.vdb)
    q = parse_query(_read_query_text(args.query))
    try:
        t = type_of(q, db.schema, strict_context=args.strict_context)
    except VTypeError as exc:
        print(f"ERROR {exc.kind} at {exc.path}: {exc.detail}")
        return 2
    print(f"OK: {t.render()}")
    return 0


def _cmd_configure(args) -> int:
    db = load_vdb(args.vdb)
    config = _parse_cli_config(args.config, db)
    q = _prepare(db, _read_query_text(args.query), no_minimize=args.no_minimize)
    print(print_query(configure_query(q, config)))
    return 0


def _cmd_group(args) -> int:
    db = load_vdb(args.vdb)
    q = _prepare(db, _read_query_text(args.query), no_minimize=args.no_minimize)
    for member, e in group_query(q):
        print(f"{print_query(member)} # {print_fexp(e)}")
    return 0


def _cmd_minimize(args) -> int:
    db = load_vdb(args.vdb)
    q = _prepare(db, _read_query_text(args.query), no_minimize=True)
    trace: list[str] = []
    if args.lift:
        q = lift(q, db.schema.model, trace)
    else:
        q = minimize(q, db.schema.model, trace)
    print(print_query(q))
    if args.trace:
        for entry in trace:
            print(f"-- {entry}")
    return 0


def _cmd_run(args) -> int:
    db = load_vdb(args.vdb)
    q = _prepare(db, _read_query_text(args.query), no_minimize=args.no_minimize)
    runner = run_configure if args.strategy == "configure" else run_group
    print(print_vtable(runner(q, db)), end="")
    return 0


def _statements(q: VQuery, db: VDBInstance, mode: str) -> list[SqlStatement]:
    """The SQL for `q`: one statement per model configuration, per variant
    group, or (``union``) one union of the groups.

    The union's column list is the query type's attribute names, in order.
    Those are the names of `result_schema`, which `run` needs for its
    attribute presence conditions; `sql` prints only the names, so it
    builds no condition formulas.
    """
    if mode == "per-variant":
        out = []
        for config in model_configs(db.schema):
            plain = configure_query(q, config)
            out.append(sql_of_plain(plain, minterm(config, db.schema.features)))
        return out
    group = group_query(q)
    if mode == "per-group":
        return [sql_of_plain(member, e) for member, e in group]
    unified = type_of(q, db.schema, check_conditions=False).names()
    members, columns = _member_columns(group, db)
    return [sql_union(members, unified, columns)]


def _member_columns(group, db: VDBInstance) -> tuple[list, list[list[str]]]:
    """The members some model configuration reaches, with their output columns.

    Columns are read off a witness configuration.  A member no model
    configuration reaches can yield no row in any variant, so it is left
    out, as `run_group` skips it.
    """
    members, columns = [], []
    for member, e in group:
        config = witness(conj(e, db.schema.model), db.schema.features)
        if config is None:
            continue
        cols = plain_type(member, configure_schema(db.schema, config))
        members.append((member, e))
        columns.append([name for name, _ in cols] if cols else [])
    return members, columns


def _cmd_sql(args) -> int:
    db = load_vdb(args.vdb)
    q = _prepare(db, _read_query_text(args.query), no_minimize=args.no_minimize)
    statements = _statements(q, db, args.mode)
    if args.out is not None:
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        for st in statements:
            key = hashlib.sha256(print_fexp(st.provenance).encode()).hexdigest()[:12]
            (directory / f"{key}.sql").write_text(st.text + "\n")
        return 0
    for st in statements:
        print(f"-- provenance: {print_fexp(st.provenance)}")
        print(st.text)
        print(";")
    return 0


def _cmd_variants(args) -> int:
    db = load_vdb(args.vdb)
    satisfying, distinct = count_schema_variants(db.schema)
    print(f"{satisfying} satisfying configurations, {distinct} distinct schemas")
    return 0


def _cmd_configure_db(args) -> int:
    db = load_vdb(args.vdb)
    config = _parse_cli_config(args.config, db)
    plain_schema = configure_schema(db.schema, config)
    tables = configure_db(db, config)
    print(print_plain_schema(plain_schema), end="")
    for name in sorted(tables):
        print(f"\ntable {name}")
        print(print_plain_table(tables[name]), end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varidb",
        description="Store, check, rewrite, and answer queries over a "
        "variational database.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help_text, *, query=True, minimizable=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("vdb", help="v-database directory")
        if query:
            p.add_argument(
                "query", nargs="?", help="query file ('-' or omitted: stdin)"
            )
        if minimizable:
            p.add_argument(
                "--no-minimize",
                action="store_true",
                help="skip the rewrite pass",
            )
        return p

    p = command("check", _cmd_check, "type check a query", minimizable=False)
    p.add_argument(
        "--strict-context",
        action="store_true",
        help="reject queries whose annotations escape their context",
    )

    p = command("configure", _cmd_configure, "print one plain query variant")
    p.add_argument("--config", required=True, help="enabled features, comma-separated")

    command("group", _cmd_group, "print the plain query of every variant group")

    p = command("minimize", _cmd_minimize, "print the rewritten query", minimizable=False)
    p.add_argument("--lift", action="store_true", help="rewrite toward one choice per leaf")
    p.add_argument("--trace", action="store_true", help="append the rule applications")

    p = command("run", _cmd_run, "answer the query; print the result v-table")
    p.add_argument(
        "--strategy",
        choices=("configure", "group"),
        default="configure",
        help="evaluate per configuration or per variant group",
    )

    p = command("sql", _cmd_sql, "print SQL for the translated query")
    p.add_argument(
        "--mode",
        choices=("per-variant", "per-group", "union"),
        default="union",
        help="one statement per configuration, per group, or one union",
    )
    p.add_argument("--out", help="write one .sql file per statement here")

    command(
        "variants",
        _cmd_variants,
        "count schema variants",
        query=False,
        minimizable=False,
    )

    p = command(
        "configure-db",
        _cmd_configure_db,
        "print one plain database variant",
        query=False,
        minimizable=False,
    )
    p.add_argument("--config", required=True, help="enabled features, comma-separated")

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 3
    except VTypeError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 2
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, StorageError, CatalogError, SqlError, PlainTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
