"""The command-line surface: pipelines, exit codes, output formats."""

import argparse
import io
import sqlite3
import sys
from pathlib import Path

import pytest

from varidb import typecheck
from varidb.cli import main
from varidb.featexpr import And, eval_fexp, parse_fexp, print_fexp, sat, solutions
from varidb.minimize import minimize
from varidb.storage import load_vdb
from varidb.translate import group_query, push_schema
from varidb.vra import parse_query
from sql_grammar import check_sql

_FIXTURES = Path(__file__).resolve().parent / "fixtures"
TOY = str(_FIXTURES / "toy")
EMPLOYEE = str(_FIXTURES / "employee")
EMPBIO = str(_FIXTURES / "empbio")

Q5_TEXT = "proj [a1, a2 # f1 & f2, a3 # f2] r"
Q1HAT_TEXT = (
    "choice V4 { proj [empno, name] empbio } "
    "{ choice V5 { proj [empno, firstname, lastname] empbio } { empty } }"
)


def run_cli(argv, stdin_text, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_reports_the_type(capsys, monkeypatch):
    code, out, err = run_cli(["check", TOY], Q5_TEXT, capsys, monkeypatch)
    assert code == 0
    assert out == "OK: { a1 # f1, a2 # f1 & f2, a3 # f2 } # f1 | f2\n"
    assert err == ""


def test_check_reports_type_errors(capsys, monkeypatch):
    code, out, err = run_cli(["check", TOY], "proj [zz] r", capsys, monkeypatch)
    assert code == 2
    assert out.startswith("ERROR NotSubsumed at query:")


UNDECLARED_TEXT = "choice Z { proj [empno] empacct } { proj [title] empacct }"


def test_check_rejects_undeclared_features(capsys, monkeypatch):
    code, out, err = run_cli(["check", EMPLOYEE], UNDECLARED_TEXT, capsys, monkeypatch)
    assert code == 2
    assert out == "ERROR UndeclaredFeature at query: feature Z is not declared in the schema\n"


def test_answering_rejects_undeclared_features(capsys, monkeypatch):
    # the two run strategies used to disagree: group left Z free, configure
    # read it as always disabled
    for argv in (
        ["run", "--strategy", "group", EMPLOYEE],
        ["run", "--strategy", "configure", EMPLOYEE],
        ["group", EMPLOYEE],
        ["sql", EMPLOYEE],
    ):
        code, out, err = run_cli(argv, UNDECLARED_TEXT, capsys, monkeypatch)
        assert (code, out) == (2, ""), argv
        assert err.startswith("type error: UndeclaredFeature") and err.count("\n") == 1


def _wide_vdb(root, n, model=None):
    """A v-db declaring features g00 … g(n-1), and the query that keeps a2
    only where every one of them is enabled."""
    names = [f"g{i:02d}" for i in range(n)]
    schema = f"features {', '.join(names)}\n"
    if model is not None:
        schema += f"featuremodel {model}\n"
    (root / "schema.vschema").write_text(schema + "relation r (a1 int, a2 int)\n")
    (root / "r.csv").write_text("a1,a2,presCond\n1,2,true\n3,4,g00\n5,6,!g01\n")
    return names, f"proj [a1, a2 # {' & '.join(names)}] r"


def test_grouping_beyond_twelve_features(tmp_path, capsys, monkeypatch):
    # beyond 12 features a group prints as its irredundant sum of
    # products, not as the 4095 minterms where the group holds
    names, text = _wide_vdb(tmp_path, 13)
    every, some_off = " & ".join(names), " | ".join(f"!{f}" for f in names)
    code, out, err = run_cli(["group", str(tmp_path)], text, capsys, monkeypatch)
    assert (code, err) == (0, "")
    # lowest minterm first: all features disabled lies in the negation
    assert out == f"proj [a1] r # {some_off}\nproj [a1, a2] r # {every}\n"
    code, out, err = run_cli(
        ["run", "--strategy", "group", str(tmp_path)], text, capsys, monkeypatch
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["a1,a2,presCond", f"1,2,{every}", f"1,,{some_off}"]
    code, out, err = run_cli(["sql", str(tmp_path)], text, capsys, monkeypatch)
    assert (code, err) == (0, "")
    blocks, _ = _statement_blocks(out)
    assert blocks == [
        f"SELECT DISTINCT a1, NULL AS a2, '{some_off}' AS presCond FROM r\n"
        "UNION ALL\n"
        f"SELECT DISTINCT a1, a2, '{every}' AS presCond FROM r"
    ]
    assert check_sql(blocks[0]) == [3, 3]


def test_grouping_beyond_twenty_features_exits_0(tmp_path, capsys, monkeypatch):
    # grouping splits presence conditions and enumerates no
    # configurations, so it has no feature limit
    names, text = _wide_vdb(tmp_path, 24)
    every, some_off = " & ".join(names), " | ".join(f"!{f}" for f in names)
    code, out, err = run_cli(["group", str(tmp_path)], text, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert out == f"proj [a1] r # {some_off}\nproj [a1, a2] r # {every}\n"


@pytest.mark.parametrize("n", [10, 13])
def test_wide_run_exits_0_under_both_strategies(tmp_path, capsys, monkeypatch, n):
    # with no feature model the configure strategy merges 2^n minterms per
    # row; the merge nests log2(2^n) deep, and both strategies print the
    # canonical form of the same functions
    names = [f"g{i:02d}" for i in range(n)]
    (tmp_path / "schema.vschema").write_text(
        f"features {', '.join(names)}\nrelation r (a1 int, a2 int)\n"
    )
    (tmp_path / "r.csv").write_text("a1,a2,presCond\n1,2,true\n")
    outs = []
    for strategy in ("configure", "group"):
        argv = ["run", "--strategy", strategy, str(tmp_path)]
        code, out, err = run_cli(argv, "proj [a1, a2] r", capsys, monkeypatch)
        assert (code, err) == (0, ""), strategy
        outs.append(out)
    assert outs == ["a1,a2,presCond\n1,2,true\n"] * 2


@pytest.mark.parametrize(
    "row,query,expected",
    [
        ("1,{i}", "proj [a1] r", "a1,presCond\n1,f1 | f2\n"),
        ("1,1", "rel r", "a1,a2,presCond\n1,1,f1 | f2\n"),
    ],
    ids=["merged-by-projection", "merged-by-restriction"],
)
def test_many_equal_rows_merge_under_both_strategies(
    tmp_path, capsys, monkeypatch, row, query, expected
):
    # 2,000 rows whose conditions alternate f1 and f2 become one row; the
    # conditions merge pairwise, so their disjunction nests log2(2000) deep
    (tmp_path / "schema.vschema").write_text("features f1, f2\nrelation r (a1 int, a2 int)\n")
    rows = "".join(f"{row.format(i=i)},{('f1', 'f2')[i % 2]}\n" for i in range(2000))
    (tmp_path / "r.csv").write_text("a1,a2,presCond\n" + rows)
    for strategy in ("configure", "group"):
        argv = ["run", "--strategy", strategy, str(tmp_path)]
        assert run_cli(argv, query, capsys, monkeypatch) == (0, expected, ""), strategy


def _rows(out):
    """The data rows of `run`'s CSV as (values, parsed presence condition)."""
    header, *lines = out.splitlines()
    width = header.count(",")
    return [
        (tuple(cells[:-1]), parse_fexp(cells[-1]))
        for cells in (line.split(",", width) for line in lines)
    ]


def test_wide_group_run_agrees_with_configure_run(tmp_path, capsys, monkeypatch):
    # a feature model that leaves 4 of 2^24 configurations keeps the
    # enumerating strategy cheap
    model = " & ".join(f"g{i:02d}" for i in range(2, 24))
    names, _ = _wide_vdb(tmp_path, 24, model=model)
    text = f"choice g01 {{ proj [a1, a2 # {' & '.join(names)}] r }} {{ proj [a2] r }}"
    configs = solutions(parse_fexp(model), names)
    assert len(configs) == 4
    results = []
    for strategy in ("group", "configure"):
        argv = ["run", "--strategy", strategy, str(tmp_path)]
        code, out, err = run_cli(argv, text, capsys, monkeypatch)
        assert (code, err) == (0, ""), strategy
        # each row with the model's configurations where it is present
        results.append([(v, [eval_fexp(e, c) for c in configs]) for v, e in _rows(out)])
    assert results[0] == results[1]
    assert len(results[0]) == 6


def test_deeply_nested_conditions_exit_1(tmp_path, capsys, monkeypatch):
    # a 3000-term presence condition overflows the recursive walkers
    for f in Path(TOY).iterdir():
        (tmp_path / f.name).write_text(f.read_text())
    deep = " | ".join(["f1"] * 3000)
    with open(tmp_path / "r.csv", "a") as csv:
        csv.write(f"6,60,600,{deep}\n")
    for argv in (["variants"], ["run"], ["check"]):
        code, out, err = run_cli([*argv, str(tmp_path)], "proj [a1] r", capsys, monkeypatch)
        assert (code, out) == (1, ""), argv
        assert err == "error: input nested too deeply to process\n"


def test_unsatisfiable_projection_item_exits_3(capsys, monkeypatch):
    for argv in (["check", TOY], ["run", TOY]):
        code, out, err = run_cli(argv, "proj [a2, a1 # f1 & !f1] r", capsys, monkeypatch)
        assert (code, out) == (3, "")
        assert err.startswith("syntax error: unsatisfiable presence condition")
        assert err.count("\n") == 1


def test_syntax_errors_exit_3(capsys, monkeypatch):
    code, out, err = run_cli(["check", TOY], "proj [[", capsys, monkeypatch)
    assert code == 3
    assert "syntax error" in err


def test_run_rejects_ill_typed_queries(capsys, monkeypatch):
    code, out, err = run_cli(
        ["run", TOY], "sel (a1 = b1) r", capsys, monkeypatch
    )
    assert code == 2
    assert "type error" in err


def test_missing_vdb_exits_1(capsys, monkeypatch):
    code, out, err = run_cli(["run", "/nonexistent"], "rel r", capsys, monkeypatch)
    assert code == 1
    assert "error" in err


def test_unreadable_query_file_exits_1(capsys, monkeypatch):
    code, out, err = run_cli(
        ["check", TOY, "/nonexistent.vra"], "", capsys, monkeypatch
    )
    assert code == 1
    assert "cannot read query file" in err


def test_set_operation_with_a_typeless_empty_operand_runs(capsys, monkeypatch):
    # `empty` has no columns and `prod r empty` has r's and no rows; both are
    # empty in every variant, so the type is `{} # false`, and a set
    # operation takes the column-less empty relation as fitting any columns
    for strategy in ("configure", "group"):
        argv = ["run", TOY, "--strategy", strategy]
        for text in (
            "union empty prod r empty",
            "diff empty prod r empty",
            "union prod r empty empty",
            "diff prod r empty empty",
        ):
            assert run_cli(argv, text, capsys, monkeypatch) == (0, "presCond\n", ""), text


#: `{} # false` queries whose operands have columns: r's columns exist in
#: no variant of the result, so they are not result attributes.
FALSE_TYPED_WITH_COLUMNS = {
    "prod r empty": "r, (SELECT * FROM (SELECT 1 AS one) AS d0 WHERE 1 = 0) AS d1",
    "union prod r empty empty": (
        "(SELECT * FROM r, (SELECT * FROM (SELECT 1 AS one) AS d0 WHERE 1 = 0) AS d1"
        " UNION SELECT * FROM (SELECT 1 AS one) AS d2 WHERE 1 = 0) AS d3"
    ),
}


def test_false_typed_queries_with_columns_have_no_result_attributes(capsys, monkeypatch):
    # check, both run strategies and sql agree on the type `{} # false`
    for text, source in FALSE_TYPED_WITH_COLUMNS.items():
        assert run_cli(["check", TOY], text, capsys, monkeypatch) == (0, "OK: {} # false\n", "")
        for strategy in ("configure", "group"):
            argv = ["run", TOY, "--strategy", strategy]
            assert run_cli(argv, text, capsys, monkeypatch) == (0, "presCond\n", ""), text
        code, out, err = run_cli(["sql", TOY], text, capsys, monkeypatch)
        assert (code, err) == (0, "")
        assert out == (
            "-- provenance: true\n"
            f"SELECT DISTINCT 'true' AS presCond FROM {source}\n"
            ";\n"
        )
        blocks, _ = _statement_blocks(out)
        assert check_sql(blocks[0]) == [1]
    # the product runs; the union's operands differ in column count
    # (r × empty against empty), which SQL engines reject
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE r (a1 INTEGER, a2 INTEGER, a3 INTEGER)")
    conn.execute("INSERT INTO r VALUES (1, 10, 100)")
    source = FALSE_TYPED_WITH_COLUMNS["prod r empty"]
    assert conn.execute(f"SELECT DISTINCT 'true' AS presCond FROM {source}").fetchall() == []


def test_reserved_words_in_a_schema_exit_1(tmp_path, capsys, monkeypatch):
    # the query syntax reads `true`, `false` and `CHC` as keywords, so a
    # schema may not use them as names
    for text, line in (
        ("features f1, true\n", 1),
        ("features f1\nrelation false (a int)\n", 2),
        ("features f1\nrelation r (a int, CHC int)\n", 2),
    ):
        (tmp_path / "schema.vschema").write_text(text)
        code, out, err = run_cli(["run", str(tmp_path)], "r", capsys, monkeypatch)
        assert (code, out) == (1, ""), text
        assert err.startswith(f"error: line {line}: reserved word "), err


# ---------------------------------------------------------------------------
# configure / group
# ---------------------------------------------------------------------------


def test_configure_prints_the_pushed_variant(capsys, monkeypatch):
    code, out, err = run_cli(
        ["configure", TOY, "--config", "f2"], Q5_TEXT, capsys, monkeypatch
    )
    assert code == 0
    assert out == "proj [a3] r\n"


def test_configure_rejects_unknown_features(capsys, monkeypatch):
    code, out, err = run_cli(
        ["configure", TOY, "--config", "zap"], "rel r", capsys, monkeypatch
    )
    assert code == 3


def test_group_lines_reparse(capsys, monkeypatch):
    code, out, err = run_cli(
        ["group", TOY, "--no-minimize"], Q5_TEXT, capsys, monkeypatch
    )
    assert code == 0
    assert out == (
        "proj [] r # !f1 & !f2\n"
        "proj [a1] r # f1 & !f2\n"
        "proj [a3] r # !f1 & f2\n"
        "proj [a1, a2, a3] r # f1 & f2\n"
    )
    for line in out.splitlines():
        member, _, fexp = line.rpartition(" # ")
        parse_query(member)
        parse_fexp(fexp)


def test_query_file_matches_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "q.vra"
    path.write_text(Q5_TEXT)
    code_file, out_file, _ = run_cli(
        ["group", TOY, str(path)], "", capsys, monkeypatch
    )
    code_stdin, out_stdin, _ = run_cli(["group", TOY], Q5_TEXT, capsys, monkeypatch)
    assert code_file == code_stdin == 0
    assert out_file == out_stdin


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def test_minimize_prints_query_and_trace(capsys, monkeypatch):
    code, out, err = run_cli(
        ["minimize", EMPBIO, "--trace"], Q1HAT_TEXT, capsys, monkeypatch
    )
    assert code == 0
    assert out == (
        "proj [empno # V4 | V5, name # V4, firstname # !V4 & V5, "
        "lastname # !V4 & V5] choice V4 { empbio } "
        "{ choice V5 { empbio } { empty } }\n"
        "-- push-projections at q.right\n"
        "-- push-projections at q\n"
    )
    parse_query(out.splitlines()[0])


def test_minimize_lift_output_reparses(capsys, monkeypatch):
    code, out, err = run_cli(
        ["minimize", EMPBIO, "--lift"], Q1HAT_TEXT, capsys, monkeypatch
    )
    assert code == 0
    parse_query(out.strip())


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_strategies_print_identical_tables(capsys, monkeypatch):
    results = {}
    for strategy in ("configure", "group"):
        code, out, err = run_cli(
            ["run", TOY, "--strategy", strategy], Q5_TEXT, capsys, monkeypatch
        )
        assert code == 0
        results[strategy] = out
    assert results["configure"] == results["group"]
    assert results["configure"].startswith("a1,a2,a3,presCond\n")


def test_run_minimized_and_unminimized_agree(capsys, monkeypatch):
    outputs = []
    for extra in ([], ["--no-minimize"]):
        for strategy in ("configure", "group"):
            code, out, err = run_cli(
                ["run", EMPBIO, "--strategy", strategy] + extra,
                Q1HAT_TEXT,
                capsys,
                monkeypatch,
            )
            assert code == 0
            outputs.append(out)
    assert len(set(outputs)) == 1
    assert outputs[0].startswith("empno,name,firstname,lastname,presCond\n")


#: A depth-3 choice tree with a projection at every leaf.
DEPTH3_TEXT = (
    "choice V4 { choice edu { choice T4 { proj [empno, std] empacct } "
    "{ proj [title] empacct } } { choice V5 { proj [salary] empacct } "
    "{ proj [empno, title] empacct } } } { choice edu { choice T5 "
    "{ proj [instr # T5, empno] empacct } { proj [std] empacct } } "
    "{ choice T4 { proj [deptno] empacct } { proj [hiredate] empacct } } }"
)


def test_run_types_each_query_a_bounded_number_of_times(capsys, monkeypatch):
    # the raw query for checking, the minimized one for the result header,
    # and no typing per projection
    calls = []
    original = typecheck.type_of

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("varidb"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    code, out, err = run_cli(
        ["run", EMPLOYEE, "--strategy", "group"], DEPTH3_TEXT, capsys, monkeypatch
    )
    assert (code, err) == (0, "")
    assert out.startswith("empno,std,title,salary,instr,deptno,hiredate,presCond\n")
    assert 1 <= len(calls) <= 3


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run_cli(["variants", TOY], "", capsys, monkeypatch)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["variants", TOY], ["check", TOY], ["run", TOY, "--strategy", "group"]):
        assert run_cli(argv, Q5_TEXT, capsys, monkeypatch)[0] == 0
    assert built == []


#: Queries that type as `{} # false`: they exist in no variant.
FALSE_TYPED = ("empty", "choice f1 { empty } { empty }")


def test_false_typed_queries_run_to_the_empty_vtable(capsys, monkeypatch):
    for text in FALSE_TYPED:
        assert run_cli(["check", TOY], text, capsys, monkeypatch) == (0, "OK: {} # false\n", "")
        assert run_cli(["group", TOY], text, capsys, monkeypatch) == (0, "empty # true\n", "")
        for strategy in ("configure", "group"):
            result = run_cli(["run", TOY, "--strategy", strategy], text, capsys, monkeypatch)
            assert result == (0, "presCond\n", ""), (text, strategy)


# ---------------------------------------------------------------------------
# sql
# ---------------------------------------------------------------------------


def _statement_blocks(out):
    blocks = []
    provenances = []
    current = None
    for line in out.splitlines():
        if line.startswith("-- provenance: "):
            provenances.append(line.removeprefix("-- provenance: "))
            current = []
        elif line == ";":
            blocks.append("\n".join(current))
            current = None
        else:
            current.append(line)
    return blocks, provenances


def test_sql_union_mode(capsys, monkeypatch):
    code, out, err = run_cli(["sql", TOY], Q5_TEXT, capsys, monkeypatch)
    assert code == 0
    blocks, provenances = _statement_blocks(out)
    assert len(blocks) == 1
    assert provenances == ["true"]
    assert check_sql(blocks[0]) == [4, 4, 4, 4]


def test_sql_of_false_typed_queries_is_one_empty_union(capsys, monkeypatch):
    for text in FALSE_TYPED:
        code, out, err = run_cli(["sql", TOY], text, capsys, monkeypatch)
        assert (code, err) == (0, "")
        blocks, provenances = _statement_blocks(out)
        assert len(blocks) == 1
        assert check_sql(blocks[0]) == [1]
        # the statement reads no table, so an empty database runs it
        assert sqlite3.connect(":memory:").execute(blocks[0]).fetchall() == []


def test_sql_per_group_mode(capsys, monkeypatch):
    code, out, err = run_cli(
        ["sql", TOY, "--mode", "per-group"], Q5_TEXT, capsys, monkeypatch
    )
    assert code == 0
    blocks, provenances = _statement_blocks(out)
    assert provenances == ["!f1 & !f2", "f1 & !f2", "!f1 & f2", "f1 & f2"]
    for block in blocks:
        check_sql(block)


def test_sql_per_variant_files(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "sql"
    code, out, err = run_cli(
        ["sql", TOY, "--mode", "per-variant", "--out", str(out_dir)],
        Q5_TEXT,
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert out == ""
    files = sorted(out_dir.glob("*.sql"))
    assert len(files) == 4
    texts = {f.read_text() for f in files}
    assert texts == {
        "SELECT DISTINCT 1 AS dee FROM r\n",
        "SELECT DISTINCT a1 FROM r\n",
        "SELECT DISTINCT a3 FROM r\n",
        "SELECT DISTINCT a1, a2, a3 FROM r\n",
    }
    for f in files:
        check_sql(f.read_text().rstrip("\n"))


def test_sql_union_with_relation_member(capsys, monkeypatch):
    code, out, err = run_cli(["sql", TOY], "rel s", capsys, monkeypatch)
    assert code == 0
    blocks, provenances = _statement_blocks(out)
    assert len(blocks) == 1
    for count in check_sql(blocks[0]):
        assert count == 3  # b1, b2, presCond


def test_sql_union_leaves_out_members_the_model_excludes(capsys, monkeypatch):
    # The `!V4 & !V5` member is reachable by no configuration of the model,
    # so it can yield no row in any variant and gets no union branch.
    text = "choice (!V4 & !V5) { proj [empno] empacct } { proj [title] empacct }"
    code, out, err = run_cli(["sql", EMPLOYEE], text, capsys, monkeypatch)
    assert code == 0
    assert err == ""
    db = load_vdb(EMPLOYEE)
    model = db.schema.model
    q = minimize(push_schema(parse_query(text), db.schema), model)
    group = group_query(q)
    reachable = [e for _, e in group if sat(And(e, model))]
    assert len(group) == 2 and len(reachable) == 1
    blocks, provenances = _statement_blocks(out)
    assert len(blocks) == 1
    assert len(check_sql(blocks[0])) == len(reachable)
    assert provenances == [print_fexp(reachable[0])]


# ---------------------------------------------------------------------------
# variants / configure-db
# ---------------------------------------------------------------------------


def test_variants_counts_the_employee_schema(capsys, monkeypatch):
    code, out, err = run_cli(["variants", EMPLOYEE], "", capsys, monkeypatch)
    assert code == 0
    assert out == "21 satisfying configurations, 10 distinct schemas\n"


def test_configure_db_prints_the_plain_variant(capsys, monkeypatch):
    code, out, err = run_cli(
        ["configure-db", TOY, "--config", "f1"], "", capsys, monkeypatch
    )
    assert code == 0
    assert out == (
        "relation r (a1 int, a2 int, a3 int)\n"
        "relation s (b1 int)\n"
        "\n"
        "table r\n"
        "a1,a2,a3\n"
        "1,10,100\n"
        "2,20,200\n"
        "\n"
        "table s\n"
        "b1\n"
        "10\n"
        "30\n"
        "99\n"
    )
