"""Variational schema parsing, validation, configuration, and counting."""

from __future__ import annotations

from pathlib import Path

import pytest

from varidb.catalog import (
    AttrType,
    CatalogError,
    VAttr,
    VRelSchema,
    VSchema,
    attr_presence,
    configure_schema,
    count_schema_variants,
    parse_config,
    parse_schema,
    print_plain_schema,
    print_schema,
)
from varidb.featexpr import (
    FALSE,
    TRUE,
    And,
    Feature,
    Not,
    Or,
    all_configs,
    equiv,
    eval_fexp,
    parse_fexp,
)
from varidb.vset import VElem, VSet, configure_vset

_FIXTURES = Path(__file__).resolve().parent / "fixtures"


def employee_schema() -> VSchema:
    return parse_schema((_FIXTURES / "employee" / "schema.vschema").read_text())


# --- parsing ---


def test_employee_schema_parses():
    s = employee_schema()
    assert s.features == ("V4", "V5", "edu", "T4", "T5")
    assert list(s.relations) == ["empacct", "ecourse"]
    emp = s.relations["empacct"]
    assert emp.attr_names() == [
        "empno",
        "hiredate",
        "title",
        "deptno",
        "salary",
        "std",
        "instr",
    ]
    assert emp.attr("salary").pc == Feature("V5")
    assert emp.attr("salary").atype == AttrType.INTEGER
    assert emp.attr("std").atype == AttrType.BOOLEAN
    assert emp.pc == Or(Feature("V4"), Feature("V5"))
    assert s.relations["ecourse"].attr("deptno").pc == Feature("T5")
    assert equiv(s.model, parse_fexp("(!edu & (V4 | V5)) | (edu & (T4 | T5) & (V4 | V5))"))


def test_schema_roundtrip_stable():
    s = employee_schema()
    printed = print_schema(s)
    assert parse_schema(printed) == s
    assert print_schema(parse_schema(printed)) == printed


def test_minimal_schema_parses():
    s = parse_schema("featuremodel true\n")
    assert s.relations == {}
    assert s.model == TRUE
    s2 = parse_schema("")
    assert s2.features == ()


def test_parse_rejects_undeclared_feature():
    with pytest.raises(CatalogError, match="undeclared feature V9"):
        parse_schema("features V1\nrelation r (a int # V9)\n")


def test_parse_rejects_duplicates():
    with pytest.raises(CatalogError, match="duplicate attribute"):
        parse_schema("relation r (a int, a text)\n")
    with pytest.raises(CatalogError, match="duplicate relation"):
        parse_schema("relation r (a int)\nrelation r (b int)\n")
    with pytest.raises(CatalogError, match="duplicate feature"):
        parse_schema("features f1, f1\n")


def test_parse_rejects_unsatisfiable_presence():
    with pytest.raises(CatalogError, match="can never exist"):
        parse_schema("features f1\nfeaturemodel f1\nrelation r (a int) # !f1\n")
    with pytest.raises(CatalogError, match="can never exist"):
        parse_schema(
            "features f1\nrelation r (a int # !f1, b int) # f1\n"
        )


def test_parse_syntax_errors_carry_line():
    with pytest.raises(CatalogError, match="line 2"):
        parse_schema("features f1\nrelation r a int\n")
    with pytest.raises(CatalogError, match="expected a schema keyword"):
        parse_schema("nonsense here\n")


def test_parse_rejects_reserved_words_as_names():
    # formulas read `true` and `false` as constants, conditions and queries
    # read `CHC` as a choice: none of them can name a schema element
    for word in ("true", "false", "CHC"):
        for text, line in (
            (f"features f1, {word}\n", 1),
            (f"features f1\nrelation {word} (a int)\n", 2),
            (f"features f1\n\nrelation r (a int,\n  {word} int # f1)\n", 3),
        ):
            with pytest.raises(CatalogError, match=f"line {line}: reserved word {word} "):
                parse_schema(text)
    # names that only start with them are ordinary
    s = parse_schema("features trueish, CHC2\nrelation falsey (CHCa int # CHC2)\n")
    assert s.relations["falsey"].attr_names() == ["CHCa"]


# --- attr_presence ---


def test_attr_presence_std_example():
    s = employee_schema()
    e = attr_presence(s, "empacct", "std")
    expected = And(
        And(Feature("edu"), Or(Feature("V4"), Feature("V5"))), s.model
    )
    assert e == expected


def test_attr_presence_trivial_all_true():
    s = VSchema((), TRUE, {"r": VRelSchema("r", (VAttr("a", AttrType.INTEGER),))})
    assert attr_presence(s, "r", "a") == TRUE


def test_attr_presence_salary():
    s = employee_schema()
    e = attr_presence(s, "empacct", "salary")
    assert equiv(e, And(Feature("V5"), s.model))


def test_attr_presence_unknown():
    s = employee_schema()
    with pytest.raises(CatalogError, match="unknown relation"):
        attr_presence(s, "nope", "a")
    with pytest.raises(CatalogError, match="unknown attribute"):
        attr_presence(s, "empacct", "nope")


# --- configuration ---


def test_configure_empacct_under_v5():
    s = employee_schema()
    plain = configure_schema(s, {"V5"})
    assert [a for a, _ in plain["empacct"]] == [
        "empno",
        "hiredate",
        "title",
        "deptno",
        "salary",
    ]
    assert "ecourse" not in plain


def test_configure_model_failure_gives_empty_schema():
    s = employee_schema()
    assert configure_schema(s, set()) == {}
    assert configure_schema(s, {"edu", "V4"}) == {}  # edu needs T4 | T5


def test_configure_ecourse_without_t5():
    s = employee_schema()
    plain = configure_schema(s, {"V4", "edu", "T4"})
    assert [a for a, _ in plain["ecourse"]] == ["courseno", "coursename"]


def test_configure_respects_attr_presence_hierarchy():
    s = employee_schema()
    for c in all_configs(s.features):
        plain = configure_schema(s, c)
        for rel in s.relations.values():
            for a in rel.attrs:
                present = rel.name in plain and a.name in [
                    n for n, _ in plain[rel.name]
                ]
                assert present == eval_fexp(attr_presence(s, rel.name, a.name), c)


def test_configure_agrees_with_nested_vset_view():
    s = employee_schema()
    rel_vset = VSet(
        tuple(VElem(r.name, r.pc) for r in s.relations.values()), s.model
    )
    for c in all_configs(s.features):
        plain = configure_schema(s, c)
        assert list(plain) == configure_vset(rel_vset, c)
        for rel in s.relations.values():
            if rel.name not in plain:
                continue
            attr_vset = VSet(
                tuple(VElem(a.name, a.pc) for a in rel.attrs),
                And(rel.pc, s.model),
            )
            assert [n for n, _ in plain[rel.name]] == configure_vset(attr_vset, c)


# --- variant counting ---


def test_count_schema_variants_employee():
    # frozen from an independent enumeration of all 32 configurations
    s = employee_schema()
    assert count_schema_variants(s) == (21, 10)


def test_count_schema_variants_trivial_cases():
    empty = VSchema((), FALSE, {})
    assert count_schema_variants(empty) == (0, 0)
    plain = parse_schema("features f1, f2\nrelation r (a int)\n")
    assert count_schema_variants(plain) == (4, 1)


def test_count_schema_variants_distinct_bounded_by_satisfying():
    s = employee_schema()
    satisfying, distinct = count_schema_variants(s)
    assert distinct <= satisfying


# --- configuration literals ---


def test_parse_config():
    s = employee_schema()
    assert parse_config("V4, edu, T5", s) == frozenset({"V4", "edu", "T5"})
    assert parse_config("", s) == frozenset()
    assert parse_config("  V5  ", s) == frozenset({"V5"})
    with pytest.raises(CatalogError, match="undeclared feature"):
        parse_config("V9", s)


# --- plain schema printing ---


def test_print_plain_schema():
    s = employee_schema()
    plain = configure_schema(s, {"V5"})
    text = print_plain_schema(plain)
    assert text == (
        "relation empacct (empno int, hiredate text, title text, "
        "deptno int, salary int)\n"
    )
