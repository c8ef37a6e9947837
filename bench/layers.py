"""Which varidb functions the traced run wraps, and the per-layer metrics.

Metric names have the form ``<module>.<function>.<stat>``.  ``calls``
counts every call, recursive ones included; ``self_s`` is the time spent in
the function minus the time spent in the wrapped functions it called.
``rows_out`` sums the rows every operator call returns and ``pairs`` sums
left × right rows over join and product operators.
"""

from __future__ import annotations

from tracer import Tracer


def _eval_after(prefix: str):
    def after(t: Tracer, frame, parent, args, result) -> None:
        rows = len(result.rows)
        t.counts[prefix + ".rows_out"] += rows
        if parent is not None and parent.name == frame.name:
            parent.child_rows.append(rows)
        if type(args[0]).__name__ in ("Join", "Product"):
            left, right = frame.child_rows[:2]
            t.counts[prefix + ".pairs"] += left * right
            t.counts["relengine.join_rows_out"] += rows
            t.counts["relengine.join_pairs"] += left * right
        if parent is not None and parent.name == "relengine.run_group":
            t.counts["relengine.regions"] += 1

    return after


def _build_vtable_after(t: Tracer, frame, parent, args, result) -> None:
    t.counts["storage.build_vtable.rows_in"] += sum(len(p[0].rows) for p in args[0])
    t.counts["storage.build_vtable.rows_out"] += len(result.rows)


def _load_vdb_after(t: Tracer, frame, parent, args, result) -> None:
    t.counts["storage.load_vdb.rows"] += sum(len(x.rows) for x in result.tables.values())


def _minimize_after(weight):
    def after(t: Tracer, frame, parent, args, result) -> None:
        t.counts["minimize.weight_in"] += weight(args[0])
        t.counts["minimize.weight_out"] += weight(result)

    return after


def _group_query_after(t: Tracer, frame, parent, args, result) -> None:
    t.counts["translate.group_query.groups"] += len(result)


def _sql_after(t: Tracer, frame, parent, args, result) -> None:
    t.counts["sqlgen.bytes_out"] += len(result.text)


def spec(variation_weight) -> dict[str, dict]:
    """The wrapped functions, keyed ``module.function`` inside varidb."""
    return {
        "featexpr.sat": {"hot": True},
        "featexpr.simplify": {},
        "featexpr.implies": {},
        "featexpr.equiv": {},
        "featexpr.conj": {"count_only": True},
        "featexpr.disj": {"count_only": True},
        "vset.push_annotation": {},
        "vset.subsumes": {},
        "catalog.configure_schema": {},
        "storage.load_vdb": {"after": _load_vdb_after},
        "storage.configure_db": {},
        "storage.build_vtable": {"after": _build_vtable_after},
        "storage.print_vtable": {},
        "vra.parse_query": {},
        "vra.print_query": {},
        "typecheck.type_of": {},
        "translate.push_schema": {},
        "translate.group_query": {"after": _group_query_after},
        "translate.configure_query": {},
        "minimize.minimize": {"after": _minimize_after(variation_weight)},
        "relengine.eval_plain": {"after": _eval_after("relengine.eval_plain")},
        "relengine.eval_tracked": {"after": _eval_after("relengine.eval_tracked")},
        "relengine.run_configure": {},
        "relengine.run_group": {},
        "sqlgen.sql_of_plain": {"after": _sql_after},
        "sqlgen.sql_union": {"after": _sql_after},
        "cli.main": {},
    }


def _calls(name):
    return lambda t, extra: t.calls[name]


def _self(*names):
    return lambda t, extra: sum(t.self_s[n] for n in names)


def _count(name):
    return lambda t, extra: t.counts[name]


def _ratio(num, den):
    return lambda t, extra: t.counts[num] / t.counts[den] if t.counts[den] else 0.0


def _extra(name):
    return lambda t, extra: extra[name]


#: name -> (unit, how to read it off a finished tracer).  `extra` carries
#: the figures measured outside the tracer: sat cache deltas and overhead.
#:
#: A time is listed only for functions every workload reaches, so no time
#: reads a constant zero; a function only some workloads reach is listed by
#: its counts.  The two evaluators and the two answering strategies never
#: run in one workload, so each pair is timed as one figure.  `report`
#: prints the self time of every wrapped function besides.
METRICS = {
    "featexpr.sat.calls": ("count", _calls("featexpr.sat")),
    "featexpr.sat.self_s": ("s", _self("featexpr.sat")),
    "featexpr.sat.cache_hit_ratio": ("ratio", _extra("sat_hit_ratio")),
    "featexpr.sat.cache_entries": ("count", _extra("sat_cache_entries")),
    "featexpr.simplify.calls": ("count", _calls("featexpr.simplify")),
    "featexpr.simplify.self_s": ("s", _self("featexpr.simplify")),
    "featexpr.implies.calls": ("count", _calls("featexpr.implies")),
    "featexpr.implies.self_s": ("s", _self("featexpr.implies")),
    "featexpr.equiv.calls": ("count", _calls("featexpr.equiv")),
    "featexpr.conj.calls": ("count", _calls("featexpr.conj")),
    "featexpr.disj.calls": ("count", _calls("featexpr.disj")),
    "relengine.eval.self_s": ("s", _self("relengine.eval_tracked", "relengine.eval_plain")),
    "relengine.eval_tracked.rows_out": ("count", _count("relengine.eval_tracked.rows_out")),
    "relengine.eval_tracked.pairs": ("count", _count("relengine.eval_tracked.pairs")),
    "relengine.eval_plain.rows_out": ("count", _count("relengine.eval_plain.rows_out")),
    "relengine.eval_plain.pairs": ("count", _count("relengine.eval_plain.pairs")),
    "relengine.join_yield": ("ratio", _ratio("relengine.join_rows_out", "relengine.join_pairs")),
    "relengine.regions": ("count", _count("relengine.regions")),
    "relengine.strategy.self_s": ("s", _self("relengine.run_group", "relengine.run_configure")),
    "storage.configure_db.calls": ("count", _calls("storage.configure_db")),
    "catalog.configure_schema.calls": ("count", _calls("catalog.configure_schema")),
    "storage.build_vtable.self_s": ("s", _self("storage.build_vtable")),
    "storage.build_vtable.rows_in": ("count", _count("storage.build_vtable.rows_in")),
    "storage.build_vtable.rows_out": ("count", _count("storage.build_vtable.rows_out")),
    "storage.print_vtable.self_s": ("s", _self("storage.print_vtable")),
    "storage.load_vdb.self_s": ("s", _self("storage.load_vdb")),
    "storage.load_vdb.rows": ("count", _count("storage.load_vdb.rows")),
    "typecheck.type_of.calls": ("count", _calls("typecheck.type_of")),
    "typecheck.type_of.self_s": ("s", _self("typecheck.type_of")),
    "vset.push_annotation.self_s": ("s", _self("vset.push_annotation")),
    "vset.subsumes.self_s": ("s", _self("vset.subsumes")),
    "translate.push_schema.self_s": ("s", _self("translate.push_schema")),
    "minimize.minimize.self_s": ("s", _self("minimize.minimize")),
    "minimize.weight_in": ("count", _count("minimize.weight_in")),
    "minimize.weight_out": ("count", _count("minimize.weight_out")),
    "translate.group_query.calls": ("count", _calls("translate.group_query")),
    "translate.group_query.groups": ("count", _count("translate.group_query.groups")),
    "translate.configure_query.calls": ("count", _calls("translate.configure_query")),
    "sqlgen.sql_union.calls": ("count", _calls("sqlgen.sql_union")),
    "sqlgen.bytes_out": ("count", _count("sqlgen.bytes_out")),
    "vra.parse_query.self_s": ("s", _self("vra.parse_query")),
    "cli.main.self_s": ("s", _self("cli.main")),
    "bench.trace_overhead": ("ratio", _extra("trace_overhead")),
}


def per_layer(t: Tracer, extra: dict) -> dict[str, dict]:
    return {name: {"value": read(t, extra), "unit": unit} for name, (unit, read) in METRICS.items()}
