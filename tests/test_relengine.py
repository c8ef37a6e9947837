"""Reference evaluation: plain runs, both variational strategies, coherence."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from genqueries import canon_vtable, mixed_queries
from varidb import featexpr, storage, translate
from varidb.catalog import AttrType, parse_schema
from varidb.featexpr import (
    TRUE,
    all_configs,
    conj,
    equiv,
    eval_fexp,
    or_all,
    parse_fexp,
    print_fexp,
    sat,
)
from varidb.relengine import (
    PlainTypeError,
    TrackedTable,
    eval_plain,
    eval_tracked,
    model_configs,
    result_schema,
    run_configure,
    run_group,
)
from varidb.storage import (
    PlainTable,
    VDBInstance,
    VTable,
    VTuple,
    configure_db,
    configure_table,
    load_vdb,
    print_vtable,
    validate_vtable,
)
from varidb.translate import configure_query, group_query, push_schema
from varidb.typecheck import type_of
from varidb.vra import AttrRef, CondChoice, CompareAttrConst, Const, parse_query, print_query
from varidb.vset import VElem, VSet

_FIXTURES = Path(__file__).resolve().parent / "fixtures"

INT = AttrType.INTEGER


def _table(names, rows):
    return PlainTable(tuple((n, INT) for n in names), frozenset(rows))


# ---------------------------------------------------------------------------
# The plain evaluator
# ---------------------------------------------------------------------------


def test_projection_deduplicates():
    db = {"p": _table(("x", "y"), {(1, 2), (1, 3)})}
    out = eval_plain(parse_query("proj [x] p"), db)
    assert out == _table(("x",), {(1,)})


def test_selection_filters_by_comparison():
    db = {"p": _table(("x", "y"), {(1, 1), (1, 2)})}
    out = eval_plain(parse_query("sel (x = y) p"), db)
    assert out.rows == frozenset({(1, 1)})


def test_difference_of_equal_tables_is_empty():
    db = {"p": _table(("x",), {(1,), (2,)})}
    out = eval_plain(parse_query("diff p p"), db)
    assert out == _table(("x",), set())


def test_union_and_difference():
    db = {"p": _table(("x",), {(1,), (2,)}), "q": _table(("x",), {(2,), (3,)})}
    assert eval_plain(parse_query("union p q"), db).rows == {(1,), (2,), (3,)}
    assert eval_plain(parse_query("diff p q"), db).rows == {(1,)}


def test_join_is_product_plus_selection():
    db = {
        "p": _table(("x", "y"), {(1, 10), (2, 20)}),
        "q": _table(("z",), {(10,), (30,)}),
    }
    joined = eval_plain(parse_query("join (y = z) p q"), db)
    filtered = eval_plain(parse_query("sel (y = z) prod p q"), db)
    assert joined == filtered
    assert joined.rows == {(1, 10, 10)}


def test_missing_relation_evaluates_to_nothing():
    out = eval_plain(parse_query("rel nowhere"), {})
    assert out == PlainTable((), frozenset())


def test_comparisons_against_null_are_false():
    db = {"p": _table(("x", "y"), {(1, None), (2, 5)})}
    assert eval_plain(parse_query("sel (y < 9) p"), db).rows == {(2, 5)}
    assert eval_plain(parse_query("sel (!(y < 9)) p"), db).rows == {(1, None)}


def test_empty_projection_gives_the_zero_column_table():
    db = {"p": _table(("x",), {(1,)})}
    assert eval_plain(parse_query("proj [] p"), db).rows == {()}
    assert eval_plain(parse_query("proj [] p"), {"p": _table(("x",), set())}).rows == set()


def test_plain_evaluation_rejects_bad_shapes():
    db = {"p": _table(("x",), {(1,)}), "q": _table(("y", "z"), {(2, 3)})}
    with pytest.raises(PlainTypeError):
        eval_plain(parse_query("proj [zz] p"), db)
    with pytest.raises(PlainTypeError):
        eval_plain(parse_query("prod p p"), db)
    with pytest.raises(PlainTypeError):
        eval_plain(parse_query("union p q"), db)
    cond = CondChoice(parse_fexp("f1"), CompareAttrConst(AttrRef("x", None), "=", Const(1)),
                      CompareAttrConst(AttrRef("x", None), "=", Const(2)))
    from varidb.vra import Relation, Select
    with pytest.raises(PlainTypeError):
        eval_plain(Select(cond, Relation("p")), db)


def test_tracked_evaluation_mirrors_plain_rows():
    t = TrackedTable((("x", INT), ("y", INT)), {(1, 2): TRUE, (1, 3): parse_fexp("f1")})
    out = eval_tracked(parse_query("proj [x] t"), {"t": t})
    assert set(out.rows) == {(1,)}
    assert print_fexp(out.rows[(1,)]) == "true"


# ---------------------------------------------------------------------------
# run_configure
# ---------------------------------------------------------------------------


def test_single_tuple_walkthrough():
    schema = parse_schema("features e, e1\nrelation r (a1 int, a2 int)")
    db = VDBInstance(
        schema, {"r": VTable(schema.relation("r"), (VTuple((1, 2), parse_fexp("e1")),))}
    )
    out = run_configure(parse_query("proj [a1 # e] r"), db)
    assert print_vtable(out) == "a1,presCond\n1,e & e1\n,!e & e1\n"
    assert print_vtable(run_group(parse_query("proj [a1 # e] r"), db)) == print_vtable(out)


def test_annotated_projection_over_fixture():
    db = load_vdb(_FIXTURES / "toy")
    q = parse_query("proj [a1 # f1, a2 # f1 & f2, a3 # f2] r")
    expected = (
        "a1,a2,a3,presCond\n"
        "1,10,100,f1 & f2\n"
        "1,,,f1 & !f2\n"
        "2,20,200,f1 & f2\n"
        "2,,,f1 & !f2\n"
        "3,30,100,f1 & f2\n"
        "5,50,100,f1 & f2\n"
        ",,100,!f1 & f2\n"
        ",,400,!f1 & f2\n"
    )
    assert print_vtable(run_configure(q, db)) == expected


def test_empty_vdb_yields_empty_vtable():
    schema = load_vdb(_FIXTURES / "toy").schema
    db = VDBInstance(
        schema,
        {name: VTable(schema.relation(name), ()) for name in schema.relations},
    )
    out = run_configure(push_schema(parse_query("proj [a1 # f1, a2] r"), schema), db)
    assert out.rows == ()


def test_annotation_free_query_gets_true_conditions():
    schema = parse_schema("features f1, f2\nrelation p (x int, y int)")
    rows = (VTuple((1, 2), TRUE), VTuple((3, 4), TRUE))
    db = VDBInstance(schema, {"p": VTable(schema.relation("p"), rows)})
    out = run_configure(parse_query("rel p"), db)
    assert len(out.rows) == 2
    assert all(row.pc == TRUE for row in out.rows)


def test_configure_collect_exposes_one_run_per_configuration():
    db = load_vdb(_FIXTURES / "employee")
    collected = []
    run_configure(parse_query("rel ecourse"), db, collect=collected)
    # one plain run for each configuration allowed by the feature model
    assert len(collected) == 21
    stamp, plain_query, table = collected[0]
    assert isinstance(stamp, str)
    assert isinstance(table, PlainTable)


# ---------------------------------------------------------------------------
# run_group and strategy coherence
# ---------------------------------------------------------------------------

BATTERY = {
    "toy": [
        "proj [a1 # f1, a2 # f1 & f2, a3 # f2] r",
        "sel (a3 = 100) r",
        "proj [a2] sel (a3 = 100) r",
        "choice f1 { proj [a1 # f1] r } { proj [a2] r }",
        "join (a2 = b1) r s",
        "proj [a1 # f1, b1] join (a2 = b1) r s",
        "union proj [a2] sel (a3 = 100) r proj [a2] r",
        "diff proj [a2] r proj [a2] sel (a1 = 1) r",
        "sel (CHC f1 (a1 = 1) (true)) r",
        "prod proj [a2] r proj [b1] s",
        "sel (a2 < a3) r",
        "union proj [] r proj [] s",
    ],
    "employee": [
        "proj [empno, salary # V5] empacct",
        "sel (salary = 55000) empacct",
        "join (deptno = courseno) empacct proj [courseno, coursename] ecourse",
        "diff proj [deptno] empacct proj [deptno] sel (deptno = 1) empacct",
    ],
    "empbio": [
        "choice V4 { proj [empno, name] empbio } "
        "{ choice V5 { proj [empno, firstname, lastname] empbio } { empty } }",
    ],
}

_CASES = [(f, t) for f, texts in BATTERY.items() for t in texts]


@pytest.mark.parametrize("fixture,text", _CASES)
def test_strategies_agree_and_commute_with_configuration(fixture, text):
    db = load_vdb(_FIXTURES / fixture)
    model = db.schema.model
    q = push_schema(parse_query(text), db.schema)
    type_of(q, db.schema)  # the battery is well-typed
    by_config = run_configure(q, db)
    by_group = run_group(q, db)
    assert print_vtable(by_config) == print_vtable(by_group)
    validate_vtable(by_config, model)
    rs = result_schema(q, db.schema)
    for cfg in all_configs(tuple(db.schema.features)):
        if not eval_fexp(model, cfg):
            continue
        plain = eval_plain(configure_query(q, cfg), configure_db(db, cfg))
        sliced = configure_table(by_config, model, cfg)
        assert sliced.rows == plain.rows, sorted(cfg)
        if eval_fexp(rs.pc, frozenset(cfg)):
            assert sliced.columns == plain.columns, sorted(cfg)


def test_group_tracking_needs_presence_splitting():
    # two relations share shapes but a column exists only under f; a plain
    # tuple-level difference would wrongly survive in the no-f variants
    schema = parse_schema(
        "features f\nrelation t1 (c1 int, c2 int # f)\nrelation t2 (c1 int, c2 int # f)"
    )
    db = VDBInstance(
        schema,
        {
            "t1": VTable(schema.relation("t1"), (VTuple((1, 2), TRUE),)),
            "t2": VTable(schema.relation("t2"), (VTuple((1, 3), TRUE),)),
        },
    )
    q = parse_query("diff t1 t2")
    out = run_group(q, db)
    assert print_vtable(out) == "c1,c2,presCond\n1,2,f\n"
    assert print_vtable(run_configure(q, db)) == print_vtable(out)


def test_group_collect_shows_presence_regions():
    db = load_vdb(_FIXTURES / "employee")
    q = parse_query("sel (salary = 55000) empacct")
    collected = []
    run_group(q, db, collect=collected)
    # one group, split on the salary and education column presences
    assert len(collected) == 4
    regions = [entry[0] for entry in collected]
    assert len(set(regions)) == 4
    assert all(isinstance(entry[2], TrackedTable) for entry in collected)


def test_group_collect_labels_each_region_by_its_canonical_formula():
    db = load_vdb(_FIXTURES / "employee")
    q = push_schema(parse_query("sel (salary = 55000) empacct"), db.schema)
    collected = []
    run_group(q, db, collect=collected)
    assert [label for label, _, _ in collected] == [
        "T4 & V5 & edu | T5 & V5 & edu",
        "V5 & !edu",
        "T4 & V4 & !V5 & edu | T5 & V4 & !V5 & edu",
        "V4 & !V5 & !edu",
    ]
    db = load_vdb(_FIXTURES / "toy")
    q = push_schema(parse_query("choice f1 { proj [a1 # f1] r } { proj [a2] r }"), db.schema)
    collected = []
    run_group(q, db, collect=collected)
    assert [(label, print_query(m)) for label, m, _ in collected] == [
        ("f1", "proj [a1] r"),
        ("!f1 & !f2", "proj [] r"),
        ("!f1 & f2", "proj [a2] r"),
    ]


def _refuse_in_varidb(monkeypatch, *fns):
    """Rebind each of `fns`, wherever a varidb module holds it, to a
    function that raises."""

    def refuse(*args, **kwargs):
        raise AssertionError("run_group reached formula reassembly")

    for name, module in list(sys.modules.items()):
        if name == "varidb" or name.startswith("varidb."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in fns):
                    monkeypatch.setattr(module, attr, refuse)


def test_group_reassembles_without_formulas(monkeypatch):
    # run_group merges and prints Universe values: it reaches neither the
    # v-table builder nor simplify nor the formula-printing grouping, and
    # still prints run_configure's bytes
    cases = []
    for fixture, texts in BATTERY.items():
        db = load_vdb(_FIXTURES / fixture)
        cases += [(db, push_schema(parse_query(t), db.schema)) for t in texts]
    db = load_vdb(_FIXTURES / "toy")
    cases += [(db, q) for q in mixed_queries(db.schema, seed=20, count=60)]
    expected = [print_vtable(run_configure(q, db)) for db, q in cases]
    _refuse_in_varidb(
        monkeypatch, storage.build_vtable, featexpr.simplify, translate.group_query
    )
    db, q = cases[0]
    with pytest.raises(AssertionError, match="formula reassembly"):
        run_configure(q, db)  # the rebinding reaches the strategies
    for (db, q), want in zip(cases, expected):
        assert print_vtable(run_group(q, db)) == want, print_query(q)


def test_group_row_merges_parts_of_two_groups_and_two_regions():
    # (1) comes from `proj [c1] t` under f and from the selection under !f,
    # whose compared column c2 splits it into the regions g and !g
    schema = parse_schema("features f, g\nrelation t (c1 int, c2 int # g)")
    rows = (VTuple((1, 6), TRUE), VTuple((2, 5), parse_fexp("g")))
    db = VDBInstance(schema, {"t": VTable(schema.relation("t"), rows)})
    q = parse_query("choice f { proj [c1] t } { proj [c1] sel (!(c2 = 5)) t }")
    type_of(push_schema(q, schema), schema)  # the query is well-typed
    collected = []
    out = run_group(q, db, collect=collected)
    assert [(label, (1,) in table.rows) for label, _, table in collected] == [
        ("f", True),
        ("!f & g", True),
        ("!f & !g", True),
    ]
    assert len({print_query(m) for _, m, _ in collected}) == 2
    assert print_vtable(out) == "c1,presCond\n1,true\n2,f & g\n"
    assert print_vtable(run_configure(q, db)) == print_vtable(out)


@pytest.mark.parametrize("fixture", ["toy", "employee"])
def test_group_regions_partition_each_group(fixture):
    # the regions a group is evaluated in are disjoint and cover exactly
    # the group's condition within the feature model
    db = load_vdb(_FIXTURES / fixture)
    model = db.schema.model
    for text in BATTERY[fixture]:
        q = push_schema(parse_query(text), db.schema)
        collected = []
        run_group(q, db, collect=collected)
        for plain_query, e in group_query(q):
            regions = [parse_fexp(label) for label, member, _ in collected if member == plain_query]
            for i, a in enumerate(regions):
                assert sat(a), text
                assert all(not sat(conj(a, b)) for b in regions[i + 1 :]), text
            assert equiv(or_all(regions), conj(e, model)), (text, print_fexp(e))


def _wide_db(n: int, free: int) -> VDBInstance:
    """A v-db over features g00 … g(n-1) whose feature model pins all but
    the first `free` of them, alternately enabled and disabled, with column
    and row presences over free and pinned features alike."""
    names = [f"g{i:02d}" for i in range(n)]
    on, off = names[free::2], names[free + 1 :: 2]
    hi, lo = on[-1], off[0]
    schema = parse_schema(
        f"features {', '.join(names)}\n"
        f"featuremodel {' & '.join(on + [f'!{f}' for f in off])}\n"
        f"relation r (a1 int, a2 int # g00, a3 int # g01 & {hi}) # g00 | g01 | {lo}\n"
        f"relation s (b1 int, b2 int # !g01 | g{free - 1:02d}) # {hi}\n"
    )
    pcs = ["true", "g00", "!g01", f"g01 & {hi}", f"g00 & !{lo}", f"!g00 & {hi}", f"g01 & {lo}"]
    r = tuple(VTuple((i % 3, 10 * i, 100 * (i % 2)), parse_fexp(pc)) for i, pc in enumerate(pcs))
    s = tuple(VTuple((i % 4, i), parse_fexp(pc)) for i, pc in enumerate(reversed(pcs)))
    tables = {"r": VTable(schema.relation("r"), r), "s": VTable(schema.relation("s"), s)}
    return VDBInstance(schema, tables)


WIDE_QUERIES = [
    "rel r",
    "sel (a2 = 10) r",
    "proj [a1, a3] sel (a2 < a3) r",
    "join (a1 = b1) r s",
    "proj [a1, b2] join (a1 = b1) r s",
    "choice g00 { proj [a1, a2] r } { proj [a1, a3 # g02] r }",
    "diff proj [a1] r proj [a1] sel (a2 = 20) r",
    "union proj [b1] s proj [b1] sel (b2 = 1) s",
]


@pytest.mark.parametrize("n,free", [(13, 3), (17, 2)])
def test_wide_regions_agree_with_configure(n, free):
    # above 12 features regions are decision-diagram nodes; the feature
    # model leaves 2^free configurations, so the enumerating strategy is
    # cheap, and attribute presences over the free features split regions.
    # Conditions print canonically at every width, so the two strategies
    # print the same bytes.
    db = _wide_db(n, free)
    configs = model_configs(db.schema)
    assert len(configs) == 1 << free
    split = 0
    for text in WIDE_QUERIES:
        q = push_schema(parse_query(text), db.schema)
        type_of(q, db.schema)
        collected = []
        by_group = run_group(q, db, collect=collected)
        by_config = run_configure(q, db)
        assert by_group.schema == by_config.schema, text
        assert [r.values for r in by_group.rows] == [r.values for r in by_config.rows], text
        for a, b in zip(by_group.rows, by_config.rows):
            assert [eval_fexp(a.pc, c) for c in configs] == [eval_fexp(b.pc, c) for c in configs]
        assert print_vtable(by_group) == print_vtable(by_config), text
        split += len(collected) - len(group_query(q))
    assert split > 0


def test_group_single_unit_matches_whole_vdb_run():
    db = load_vdb(_FIXTURES / "toy")
    q = parse_query("rel s")
    collected = []
    out = run_group(q, db, collect=collected)
    assert len(collected) == 2  # b2's presence is the only split
    assert print_vtable(out) == print_vtable(run_configure(q, db))


def test_runs_are_deterministic():
    db = load_vdb(_FIXTURES / "employee")
    q = push_schema(parse_query("sel (salary = 55000) empacct"), db.schema)
    first = print_vtable(run_group(q, db))
    again = print_vtable(run_group(q, db))
    assert first == again
    assert print_vtable(run_configure(q, db)) == print_vtable(run_configure(q, db))


def test_result_schema_follows_the_query_type():
    db = load_vdb(_FIXTURES / "toy")
    q = push_schema(parse_query("proj [a1, a2] r"), db.schema)
    rs = result_schema(q, db.schema)
    assert tuple(rs.attr_names()) == ("a1", "a2")
    assert rs.attrs[0].atype == INT


def test_worked_example_vtable():
    db = load_vdb(_FIXTURES / "empbio")
    q = parse_query(BATTERY["empbio"][0])
    expected = (
        "empno,name,firstname,lastname,presCond\n"
        '2001,"ann lee",,,V4\n'
        '2001,,"ann","lee",!V4 & V5\n'
        '2002,"bob roy",,,V4\n'
        '2002,,"bob","roy",!V4 & V5\n'
        '2003,"cat kim",,,V4 & !V5\n'
        '2004,,"dan","poe",!V4 & V5\n'
        "2004,,,,V4 & V5\n"
    )
    assert print_vtable(run_configure(q, db)) == expected


def test_canon_vtable_ignores_column_order():
    db = load_vdb(_FIXTURES / "toy")
    a = run_configure(parse_query("choice !f1 { rel r } { rel r }"), db)
    b = run_configure(parse_query("rel r"), db)
    assert print_vtable(a) != print_vtable(b)  # column orders differ
    assert canon_vtable(a) == canon_vtable(b)
