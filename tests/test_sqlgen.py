"""SQL generation: plain statements, the unified union statement, goldens."""

from pathlib import Path

import pytest

from varidb.catalog import parse_schema
from varidb.featexpr import TRUE, equiv, parse_fexp
from varidb.sqlgen import (
    EmptyGroup,
    SqlError,
    sql_of_plain,
    sql_union,
)
from varidb.translate import configure_query, group_query
from varidb.typecheck import type_of
from varidb.vra import parse_query
from sql_grammar import SqlSyntaxError, check_sql

_FIXTURES = Path(__file__).resolve().parent / "fixtures"
_TOY = parse_schema((_FIXTURES / "toy" / "schema.vschema").read_text())

Q5 = parse_query("proj [a1, a2 # f1 & f2, a3 # f2] r")


def _golden(name):
    return (_FIXTURES / "sql" / name).read_text()


def _unified(q, schema):
    t = type_of(q, schema)
    return [str(el.value) for el in t.attrs.elements]


def _projected(group):
    """The output columns of group members that are projections."""
    return [[str(el.value) for el in q.attrs] for q, _ in group]


# ---------------------------------------------------------------------------
# Plain statements
# ---------------------------------------------------------------------------


def test_relation_renders_as_select_star():
    st = sql_of_plain(parse_query("rel r"))
    assert st.text == "SELECT * FROM r"
    assert st.dialect == "generic"
    assert st.provenance == TRUE


def test_projection_over_selection_uses_derived_table():
    st = sql_of_plain(parse_query("proj [a1] sel (a1 = a2) r"))
    assert st.text == "SELECT DISTINCT a1 FROM (SELECT * FROM r WHERE a1 = a2) AS d0"


def test_selection_on_relation_needs_no_derived_table():
    st = sql_of_plain(parse_query("sel (a1 = 1) r"))
    assert st.text == "SELECT * FROM r WHERE a1 = 1"


def test_join_and_product():
    assert (
        sql_of_plain(parse_query("join (a1 = b1) r s")).text
        == "SELECT * FROM r, s WHERE a1 = b1"
    )
    assert sql_of_plain(parse_query("prod r s")).text == "SELECT * FROM r, s"


def test_alias_counter_runs_left_to_right():
    st = sql_of_plain(parse_query("join (a2 = b2) sel (a1 = 1) r sel (b1 = 10) s"))
    assert st.text == (
        "SELECT * FROM (SELECT * FROM r WHERE a1 = 1) AS d0, "
        "(SELECT * FROM s WHERE b1 = 10) AS d1 WHERE a2 = b2"
    )


def test_setops_render_as_union_and_except():
    st = sql_of_plain(parse_query("union proj [a1] r proj [a1] sel (a1 = 5) r"))
    assert st.text == (
        "SELECT DISTINCT a1 FROM r UNION "
        "SELECT DISTINCT a1 FROM (SELECT * FROM r WHERE a1 = 5) AS d0"
    )
    st = sql_of_plain(parse_query("diff proj [a2] r proj [a2] s"))
    assert st.text == "SELECT DISTINCT a2 FROM r EXCEPT SELECT DISTINCT a2 FROM s"


def test_nested_setop_operand_is_parenthesized():
    st = sql_of_plain(parse_query("diff union proj [a1] r proj [a1] s proj [a1] r"))
    assert st.text == (
        "(SELECT DISTINCT a1 FROM r UNION SELECT DISTINCT a1 FROM s) "
        "EXCEPT SELECT DISTINCT a1 FROM r"
    )


def test_empty_query_renders_as_contradiction():
    st = sql_of_plain(parse_query("empty"))
    assert st.text == "SELECT * FROM (SELECT 1 AS one) AS d0 WHERE 1 = 0"
    assert check_sql(st.text) == [None]


def test_empty_projection_keeps_one_constant_column():
    st = sql_of_plain(parse_query("proj [] r"))
    assert st.text == "SELECT DISTINCT 1 AS dee FROM r"
    assert check_sql(st.text) == [1]


def test_condition_rendering():
    cases = {
        "sel (a1 != 1) r": "SELECT * FROM r WHERE a1 <> 1",
        "sel (a1 <= 3) r": "SELECT * FROM r WHERE a1 <= 3",
        "sel (true) r": "SELECT * FROM r WHERE 1 = 1",
        "sel (false) r": "SELECT * FROM r WHERE 1 = 0",
        "sel (!(a1 = 1) & (a2 = 2 | a3 = 3)) r": (
            "SELECT * FROM r WHERE NOT (a1 = 1) AND (a2 = 2 OR a3 = 3)"
        ),
        "sel (a1 = 1 | a2 = 2 & a3 = 3) r": (
            "SELECT * FROM r WHERE a1 = 1 OR a2 = 2 AND a3 = 3"
        ),
    }
    for source, expected in cases.items():
        assert sql_of_plain(parse_query(source)).text == expected


def test_string_constants_are_single_quoted_and_escaped():
    st = sql_of_plain(parse_query('sel (name = "O\'Brien") r'))
    assert st.text == "SELECT * FROM r WHERE name = 'O''Brien'"
    check_sql(st.text)


def test_variational_query_is_rejected():
    with pytest.raises(SqlError):
        sql_of_plain(parse_query("choice f1 { rel r } { rel s }"))
    with pytest.raises(SqlError):
        sql_of_plain(parse_query("sel (CHC f1 (a1 = 1) (a2 = 2)) r"))


def test_provenance_passes_through():
    e = parse_fexp("f1 & !f2")
    assert sql_of_plain(parse_query("rel r"), provenance=e).provenance == e


def test_emitted_statements_parse():
    sources = [
        "rel r",
        "proj [a1, a2] r",
        "proj [] sel (a1 = a2) r",
        "sel (a1 = 1 & a2 = 2) r",
        "join (a1 = b1) r s",
        "prod sel (a1 = 1) r s",
        "union proj [a1] r proj [b1] s",
        "diff proj [a1] r proj [a1] sel (a2 = 2) r",
        "empty",
        'sel (name != "x") proj [name, a1] r',
    ]
    for source in sources:
        check_sql(sql_of_plain(parse_query(source)).text)


# ---------------------------------------------------------------------------
# Variant statements for the frozen fixture query
# ---------------------------------------------------------------------------


def test_variant_statements_match_goldens():
    goldens = {
        frozenset({"f1", "f2"}): "q5_variant_f1_f2.sql",
        frozenset({"f2"}): "q5_variant_f2.sql",
        frozenset({"f1"}): "q5_variant_f1.sql",
        frozenset(): "q5_variant_none.sql",
    }
    for config, name in goldens.items():
        st = sql_of_plain(configure_query(Q5, set(config)))
        assert st.text + "\n" == _golden(name)
        check_sql(st.text)


# ---------------------------------------------------------------------------
# The unified union statement
# ---------------------------------------------------------------------------


def test_union_statement_matches_golden():
    group = group_query(Q5)
    st = sql_union(group, _unified(Q5, _TOY), _projected(group))
    assert st.text + "\n" == _golden("q5_union.sql")
    assert st.provenance == TRUE


def test_union_branch_column_counts():
    group = group_query(Q5)
    unified = _unified(Q5, _TOY)
    st = sql_union(group, unified, _projected(group))
    assert check_sql(st.text) == [len(unified) + 1] * len(group)


def test_shared_derived_table_is_hoisted_into_cte():
    group = [
        (parse_query("proj [a1] sel (a3 = 100) r"), parse_fexp("f1")),
        (parse_query("proj [a2, a3] sel (a3 = 100) r"), parse_fexp("!f1")),
    ]
    st = sql_union(group, ["a1", "a2", "a3"], _projected(group))
    assert st.text + "\n" == _golden("shared_from_union.sql")
    assert check_sql(st.text) == [4, 4]


def test_unshared_derived_tables_stay_inline():
    group = [
        (parse_query("proj [a1] sel (a3 = 100) r"), parse_fexp("f1")),
        (parse_query("proj [a2] sel (a3 = 200) r"), parse_fexp("!f1")),
    ]
    st = sql_union(group, ["a1", "a2"], _projected(group))
    assert "WITH" not in st.text
    assert "(SELECT * FROM r WHERE a3 = 100) AS d0" in st.text
    assert "(SELECT * FROM r WHERE a3 = 200) AS d1" in st.text


def test_empty_member_pads_every_column():
    group = [
        (parse_query("sel (a1 = 1) r"), parse_fexp("f1")),
        (parse_query("empty"), parse_fexp("!f1")),
    ]
    st = sql_union(group, ["a1", "a2", "a3"], member_columns=[["a1", "a2", "a3"], []])
    lines = st.text.split("\nUNION ALL\n")
    assert lines[0] == (
        "SELECT DISTINCT a1, a2, a3, 'f1' AS presCond FROM r WHERE a1 = 1"
    )
    assert lines[1] == (
        "SELECT DISTINCT NULL AS a1, NULL AS a2, NULL AS a3, '!f1' AS presCond "
        "FROM (SELECT 1 AS one) AS d0 WHERE 1 = 0"
    )
    assert check_sql(st.text) == [4, 4]


def test_singleton_group_has_no_union():
    st = sql_union([(parse_query("proj [a1] r"), TRUE)], ["a1"], [["a1"]])
    assert st.text == "SELECT DISTINCT a1, 'true' AS presCond FROM r"
    assert "UNION" not in st.text


def test_union_provenance_is_the_region_disjunction():
    group = [
        (parse_query("proj [a1] r"), parse_fexp("f1 & f2")),
        (parse_query("proj [a1] r"), parse_fexp("f1 & !f2")),
    ]
    st = sql_union(group, ["a1"], _projected(group))
    assert equiv(st.provenance, parse_fexp("f1"))


def test_empty_group_is_an_error():
    with pytest.raises(EmptyGroup):
        sql_union([], ["a1"], [])


def test_bare_relation_member_needs_explicit_columns():
    group = [(parse_query("rel r"), TRUE)]
    st = sql_union(group, ["a1", "a2", "a3"], member_columns=[["a1", "a2", "a3"]])
    assert st.text == (
        "SELECT DISTINCT a1, a2, a3, 'true' AS presCond FROM r"
    )


def test_misaligned_member_columns_is_an_error():
    group = [(parse_query("proj [a1] r"), TRUE)]
    with pytest.raises(SqlError):
        sql_union(group, ["a1"], member_columns=[["a1"], ["a2"]])


def test_distinct_plain_queries_get_distinct_statements():
    sources = [
        "rel r",
        "rel s",
        "proj [a1] r",
        "proj [a1, a3] r",
        "proj [a1, a2, a3] r",
        "sel (a1 = 1) r",
        "sel (a1 = 2) r",
        "join (a1 = b1) r s",
        "prod r s",
        "union proj [a1] r proj [b1] s",
        "diff proj [a1] r proj [b1] s",
        "empty",
    ]
    texts = [sql_of_plain(parse_query(source)).text for source in sources]
    assert len(set(texts)) == len(sources)


# ---------------------------------------------------------------------------
# The grammar checker itself
# ---------------------------------------------------------------------------


def test_grammar_accepts_the_subset():
    assert check_sql("SELECT * FROM r") == [None]
    assert check_sql("SELECT DISTINCT a, b FROM r WHERE a = 1") == [2]
    assert check_sql("SELECT a FROM r UNION ALL SELECT b FROM s") == [1, 1]
    assert check_sql("(SELECT a FROM r) EXCEPT SELECT a FROM s") == [1, 1]
    assert check_sql(
        "WITH w0 AS (SELECT * FROM r) SELECT DISTINCT a, NULL AS b FROM w0"
    ) == [2]


def test_grammar_rejects_malformed_statements():
    bad = [
        "SELECT FROM r",
        "SELECT a FROM",
        "SELECT a FROM r WHERE",
        "SELECT a FROM (SELECT * FROM r)",
        "SELECT a FROM r WHERE a =",
        "SELECT a FROM r extra",
        "SELECT a FROM r WHERE (a = 1",
    ]
    for text in bad:
        with pytest.raises(SqlSyntaxError):
            check_sql(text)
