"""Typing rules: worked examples, every error kind, and the commuting check."""

import random
from pathlib import Path

import pytest

from genqueries import well_typed_corpus
from varidb import cli
from varidb.catalog import AttrType, CatalogError, VSchema, parse_schema
from varidb.featexpr import (
    TRUE,
    And,
    Feature,
    Not,
    Or,
    equiv,
    parse_fexp,
    print_fexp,
    taut,
)
from varidb.minimize import minimize
from varidb.relengine import result_schema
from varidb.storage import VDBInstance
from varidb.translate import push_schema
from varidb.typecheck import (
    PlainTypeError,
    QueryType,
    VTypeError,
    check_variation_preservation,
    plain_type,
    type_cond,
    type_of,
)
from varidb.vra import parse_cond, parse_query, print_query
from varidb.vset import VSet, print_vset, push_annotation, vset_equiv

FIXTURES = Path(__file__).parent / "fixtures"

S2 = parse_schema(
    """
features V3, V4, V5
featuremodel V3 | V4 | V5
relation empbio (empno int, sex text, birthdate text, name text # V4,
                 firstname text # V5, lastname text # V5) # V3 | V4 | V5
"""
)

# q5's home: two features, one relation, no feature model constraint
TOY = parse_schema(
    """
features f1, f2
relation r (a1 int # f1, a2 int, a3 int) # f1 | f2
"""
)

EMPLOYEE = parse_schema((FIXTURES / "employee" / "schema.vschema").read_text())


def err(q_text, schema, **kw):
    with pytest.raises(VTypeError) as e:
        type_of(parse_query(q_text), schema, **kw)
    return e.value


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


def test_relation_type_carries_schema_conditions():
    t = type_of(parse_query("empbio"), S2)
    assert t.names() == ["empno", "sex", "birthdate", "name", "firstname", "lastname"]
    assert t.attrs.pc_of("name") == Feature("V4")
    assert t.attrs.pc_of("empno") == TRUE
    assert print_fexp(t.annotation) == "V3 | V4 | V5"
    assert t.info["name"].atype == AttrType.TEXT
    assert t.info["name"].origin == "empbio"


def test_two_projections_share_one_type():
    # the conditional and unconditional spellings of the same projection
    q1 = parse_query(
        "proj [empno # !V3, name # V4, firstname # V5, lastname # V5] empbio"
    )
    q2 = parse_query("proj [empno # !V3, name, firstname, lastname] empbio")
    t1, t2 = type_of(q1, S2), type_of(q2, S2)
    assert t1.attrs == t2.attrs
    assert t1.annotation == t2.annotation
    assert (
        t1.render()
        == "{ empno # !V3, name # V4, firstname # V5, lastname # V5 } # V3 | V4 | V5"
    )


def test_projection_result_follows_projection_order():
    t = type_of(parse_query("proj [lastname, empno] empbio"), S2)
    assert t.names() == ["lastname", "empno"]


# ---------------------------------------------------------------------------
# Error kinds, one by one
# ---------------------------------------------------------------------------


def test_unknown_relation():
    e = err("nosuch", S2)
    assert e.kind == "UnknownRelation"
    assert e.path == "query"


def test_undeclared_feature_anywhere_in_the_query():
    # a choice dimension, a projection annotation, a condition choice, and a
    # dead branch that is never typed: each names a feature TOY lacks
    for text in (
        "choice Z { proj [a2] r } { proj [a3] r }",
        "proj [a2 # f1 & Z] r",
        "sel (CHC Z (a2 = 1) (true)) r",
        "choice f1 & !f1 { choice Z { r } { r } } { r }",
    ):
        e = err(text, TOY)
        assert (e.kind, e.path) == ("UndeclaredFeature", "query"), text
        assert "feature Z is not declared" in e.detail
    e = err("choice Z { r } { r }", TOY, check_conditions=False)
    assert e.kind == "UndeclaredFeature"


def test_unsat_context_on_relation():
    e = err("r", TOY, ctx=parse_fexp("!f1 & !f2"))
    assert e.kind == "UnsatContext"


def test_unsat_variation_context_itself():
    e = err("r", TOY, ctx=parse_fexp("f1 & !f1"))
    assert e.kind == "UnsatContext"


def test_product_with_itself_not_disjoint():
    e = err("prod r r", TOY)
    assert e.kind == "NotDisjoint"
    assert "a1" in e.detail


def test_product_of_disjoint_relations():
    q = parse_query("prod empacct proj [courseno, coursename] ecourse")
    t = type_of(q, EMPLOYEE)
    assert t.names() == [
        "empno", "hiredate", "title", "deptno", "salary", "std", "instr",
        "courseno", "coursename",
    ]


def test_join_shares_attribute_name():
    e = err("join (deptno = deptno) empacct ecourse", EMPLOYEE)
    assert e.kind == "NotDisjoint"
    assert "deptno" in e.detail


def test_join_types_condition_over_combined_attrs():
    q = parse_query(
        "join (deptno = courseno) empacct proj [courseno, coursename] ecourse"
    )
    t = type_of(q, EMPLOYEE)
    assert "courseno" in t.names() and "deptno" in t.names()


def test_projection_not_subsumed_missing_name():
    e = err("proj [salary] ecourse", EMPLOYEE)
    assert e.kind == "NotSubsumed"


def test_projection_not_subsumed_conflicting_condition():
    e = err("proj [a1 # !f1] r", TOY)
    assert e.kind == "NotSubsumed"


def test_dead_projection_item_is_vacuous():
    # under a context that rules the item out entirely, nothing to check
    t = type_of(parse_query("proj [a1 # !f1] r"), TOY, ctx=Feature("f1"))
    assert t.names() == []


def test_setop_requires_equivalent_types():
    e = err("union empacct ecourse", EMPLOYEE)
    assert e.kind == "NotEquivalent"
    t = type_of(parse_query("diff empacct empacct"), EMPLOYEE)
    assert t.names() == type_of(parse_query("empacct"), EMPLOYEE).names()


def test_setop_same_names_different_conditions_not_equivalent():
    e = err("union proj [a1, a2] r proj [a1, a2 # f1] r", TOY)
    assert e.kind == "NotEquivalent"


def test_setop_with_empty_relation_not_equivalent():
    e = err("union r empty", TOY)
    assert e.kind == "NotEquivalent"


def test_setop_attribute_absent_under_the_context():
    # under !f1 the left operand's a1 # f1 is absent, so the operands agree
    q = parse_query("choice f1 { r } { union r proj [a2, a3] r }")
    t = type_of(q, TOY)
    assert print_vset(t.pushed_attrs()) == "{ a1 # f1, a2 # f1 | f2, a3 # f1 | f2 }"


def test_setop_same_shape_different_types():
    s = parse_schema(
        "features f1\nrelation r1 (x int)\nrelation r2 (x text)\n"
    )
    e = err("union r1 r2", s)
    assert e.kind == "TypeMismatch"


def test_condition_domain_violation():
    e = err("sel (hiredate = 5) empacct", EMPLOYEE)
    assert e.kind == "DomainViolation"
    t = type_of(parse_query('sel (hiredate = "1991-01-01") empacct'), EMPLOYEE)
    assert t.names()[0] == "empno"


def test_condition_attr_not_in_type():
    e = err("sel (nosuch = 5) empacct", EMPLOYEE)
    assert e.kind == "AttrNotInType"


def test_condition_compare_mismatched_attrs():
    e = err("sel (empno = hiredate) empacct", EMPLOYEE)
    assert e.kind == "TypeMismatch"
    t = type_of(parse_query("sel (empno = deptno) empacct"), EMPLOYEE)
    assert t.annotation == type_of(parse_query("empacct"), EMPLOYEE).annotation


def test_condition_choice_restricted_attribute():
    # an attribute tied to the branch's dimension may be used in that branch
    ctx = And(Or(Feature("V4"), Feature("V5")), EMPLOYEE.model)
    t = type_of(parse_query("empacct"), EMPLOYEE, ctx=ctx)
    type_cond(parse_cond("CHC edu (std = true) (true)"), ctx, t)


def test_condition_choice_unrestricted_attribute_rejected():
    # an attribute that also exists outside the branch may not
    ctx = And(Or(Feature("V4"), Feature("V5")), EMPLOYEE.model)
    t = type_of(parse_query("empacct"), EMPLOYEE, ctx=ctx)
    with pytest.raises(VTypeError) as e:
        type_cond(parse_cond("CHC edu (empno = 1) (true)"), ctx, t)
    assert e.value.kind == "ContextNotImplied"


def test_condition_choice_on_undeclared_feature():
    # a condition's own choice dimension must be declared too, on either
    # side of the 16-feature limit of truth tables
    for schema in (EMPLOYEE, _padded(EMPLOYEE, 17)):
        t = type_of(parse_query("empacct"), schema)
        with pytest.raises(VTypeError) as e:
            type_cond(parse_cond("CHC zz (empno = 1) (true)"), schema.model, t)
        assert e.value.kind == "UndeclaredFeature" and "zz" in e.value.detail


def test_select_with_condition_choice():
    t = type_of(parse_query("sel (CHC edu (std = true) (true)) empacct"), EMPLOYEE)
    assert t.names() == type_of(parse_query("empacct"), EMPLOYEE).names()


def test_qualified_attribute_references():
    t = type_of(parse_query("proj [r.a1] r"), TOY)
    assert t.names() == ["a1"]
    e = err("proj [s.a1] r", TOY)
    assert e.kind == "NotSubsumed"
    t2 = type_of(parse_query("sel (r.a1 = 1) r"), TOY)
    assert t2.names() == ["a1", "a2", "a3"]
    e2 = err("sel (s.a1 = 1) r", TOY)
    assert e2.kind == "AttrNotInType"


def test_qualified_reference_after_merging_choice():
    s = parse_schema("features f1\nrelation r1 (x int)\nrelation r2 (x int)\n")
    q = parse_query("choice f1 { r1 } { r2 }")
    t = type_of(q, s)
    assert t.info["x"].origin is None
    e = err("proj [r1.x] choice f1 { r1 } { r2 }", s)
    assert e.kind == "NotSubsumed"


# ---------------------------------------------------------------------------
# Choices and contexts
# ---------------------------------------------------------------------------


def test_choice_unions_branch_types():
    q = parse_query("choice edu { proj [empno, std] empacct } { proj [empno] empacct }")
    t = type_of(q, EMPLOYEE)
    assert set(t.names()) == {"empno", "std"}
    # std only comes from the edu branch
    assert equiv(
        t.attrs.pc_of("std"),
        And(And(Feature("edu"), EMPLOYEE.model), Or(Feature("V4"), Feature("V5"))),
    )


def test_choice_dead_branch_lenient_and_strict():
    ctx = And(EMPLOYEE.model, Feature("edu"))
    q = parse_query("choice !edu { empacct } { empacct }")
    t = type_of(q, EMPLOYEE, ctx=ctx)
    assert set(t.names()) == set(type_of(parse_query("empacct"), EMPLOYEE).names())
    with pytest.raises(VTypeError) as e:
        type_of(q, EMPLOYEE, ctx=ctx, strict_context=True)
    assert e.value.kind == "UnsatContext"


def test_choice_dead_branch_skips_unknown_relation():
    ctx = And(EMPLOYEE.model, Feature("edu"))
    q = parse_query("choice !edu { nosuch } { empacct }")
    t = type_of(q, EMPLOYEE, ctx=ctx)
    assert set(t.names()) == set(type_of(parse_query("empacct"), EMPLOYEE).names())
    with pytest.raises(VTypeError) as e:
        type_of(q, EMPLOYEE, ctx=ctx, strict_context=True)
    assert e.value.kind == "UnknownRelation"


def test_choice_type_mismatch_across_branches():
    s = parse_schema("features f1\nrelation r1 (x int)\nrelation r2 (x text)\n")
    e = err("choice f1 { r1 } { r2 }", s)
    assert e.kind == "TypeMismatch"


def test_taut_choice_equals_left_branch_type():
    q = parse_query("choice f1 | !f1 { proj [a2] r } { proj [a3] r }")
    t = type_of(q, TOY)
    t_left = type_of(parse_query("proj [a2] r"), TOY)
    assert vset_equiv(
        VSet(t.attrs.elements, t.annotation),
        VSet(t_left.attrs.elements, t_left.annotation),
    )
    assert equiv(t.annotation, t_left.annotation)


def test_equivalent_contexts_give_equivalent_types():
    c1 = parse_fexp("f1 | f2")
    c2 = parse_fexp("f2 | f1 & f1")
    q = parse_query("proj [a1, a2 # f1 & f2, a3 # f2] r")
    t1, t2 = type_of(q, TOY, ctx=c1), type_of(q, TOY, ctx=c2)
    assert t1.names() == t2.names()
    assert vset_equiv(
        VSet(t1.attrs.elements, t1.annotation),
        VSet(t2.attrs.elements, t2.annotation),
    )


def test_empty_types_to_nothing():
    from varidb.featexpr import FALSE

    t = type_of(parse_query("empty"), TOY)
    assert t.names() == [] and t.annotation == FALSE


def test_lenient_condition_mode():
    # the checker can be told to compute shapes only
    q = parse_query("sel (nosuch = 5) empacct")
    t = type_of(q, EMPLOYEE, check_conditions=False)
    assert t.names()[0] == "empno"
    with pytest.raises(VTypeError):
        type_of(q, EMPLOYEE)


# ---------------------------------------------------------------------------
# Plain typing
# ---------------------------------------------------------------------------

PLAIN = {
    "r": [("a1", AttrType.INTEGER), ("a2", AttrType.INTEGER)],
    "s": [("b1", AttrType.TEXT)],
}


def test_plain_type_basics():
    assert plain_type(parse_query("r"), PLAIN) == PLAIN["r"]
    assert plain_type(parse_query("missing"), PLAIN) is None
    assert plain_type(parse_query("empty"), PLAIN) is None
    assert plain_type(parse_query("sel (a1 = 1) missing"), PLAIN) is None
    assert plain_type(parse_query("proj [a2] r"), PLAIN) == [("a2", AttrType.INTEGER)]
    assert plain_type(parse_query("prod r s"), PLAIN) == PLAIN["r"] + PLAIN["s"]
    assert plain_type(parse_query("prod r missing"), PLAIN) is None
    assert plain_type(parse_query("union r r"), PLAIN) == PLAIN["r"]
    assert plain_type(parse_query("proj [] missing"), PLAIN) is None


def test_plain_type_errors():
    with pytest.raises(PlainTypeError):
        plain_type(parse_query("proj [a1] missing"), PLAIN)
    with pytest.raises(PlainTypeError):
        plain_type(parse_query("proj [b9] s"), PLAIN)
    with pytest.raises(PlainTypeError):
        plain_type(parse_query("prod r r"), PLAIN)
    with pytest.raises(PlainTypeError):
        plain_type(parse_query("union r s"), PLAIN)
    with pytest.raises(PlainTypeError):
        plain_type(parse_query("diff r missing"), PLAIN)


# ---------------------------------------------------------------------------
# Variation preservation
# ---------------------------------------------------------------------------


def test_raw_projection_breaks_preservation():
    q5 = parse_query("proj [a1, a2 # f1 & f2, a3 # f2] r")
    violations = check_variation_preservation(q5, TOY)
    assert violations == [frozenset(), frozenset({"f2"})]


def test_pushed_projection_preserves_variation():
    from varidb.translate import push_schema

    q5 = parse_query("proj [a1, a2 # f1 & f2, a3 # f2] r")
    assert check_variation_preservation(push_schema(q5, TOY), TOY) == []


def test_annotation_free_query_preserves_variation():
    s = parse_schema("relation t (x int, y text)\n")
    q = parse_query("proj [y] sel (x > 3) t")
    assert check_variation_preservation(q, s) == []


def test_pushed_employee_queries_preserve_variation():
    from varidb.translate import push_schema

    for text in [
        "proj [empno, salary # V5] empacct",
        "choice edu { proj [empno, std] empacct } { proj [empno] empacct }",
        "sel (CHC edu (std = true) (true)) empacct",
        "join (deptno = courseno) empacct proj [courseno, coursename] ecourse",
        "diff proj [empno] empacct proj [empno] empacct",
    ]:
        q = push_schema(parse_query(text), EMPLOYEE)
        assert check_variation_preservation(q, EMPLOYEE) == [], text


# ---------------------------------------------------------------------------
# Golden typing corpus
# ---------------------------------------------------------------------------

_WIDE_RELATIONS = (
    "relation r (a int, b int # {0}, c int # {1})\n"
    "relation s (d int, e int # !{0}, g text)\n"
)


def _wide_schema(n):
    names = [f"w{k:02d}" for k in range(1, n + 1)]
    return parse_schema(
        f"features {', '.join(names)}\n" + _WIDE_RELATIONS.format(names[0], names[1])
    )


#: The toy and employee fixtures, and two schemas of 12 and 14 features:
#: `simplify` is minimal up to 12 features and an irredundant sum of
#: products above.
_GOLDEN_SCHEMAS = (
    ("toy", parse_schema((FIXTURES / "toy" / "schema.vschema").read_text())),
    ("employee", EMPLOYEE),
    ("wide12", _wide_schema(12)),
    ("wide14", _wide_schema(14)),
)

_CONSTANTS = {AttrType.INTEGER: "3", AttrType.TEXT: '"x"', AttrType.BOOLEAN: "true"}


def _golden_fexp(rng, features):
    a, b = rng.sample(features, 2)
    c, d = rng.choice(features), rng.choice(features)
    return rng.choice(
        [a, f"!{a}", f"{a} | {b}", f"{a} & !{b}", f"!({a} & {b})", f"{a} | !{a}", "true",
         f"{a} & {b} | {c} & !{d}"]
    )


def _golden_leaf(rng, schema, features):
    if rng.random() < 0.05:
        return "empty"
    rel = schema.relations[rng.choice(sorted(schema.relations))]
    attrs = list(rel.attrs)
    sel = ""
    if rng.random() < 0.5:
        a = rng.choice(attrs)
        sel = f"sel ({a.name} = {_CONSTANTS[a.atype]}) "
    if rng.random() < 0.2:
        return f"{sel}{rel.name}"
    items = []
    for a in rng.sample(attrs, rng.randint(1, min(4, len(attrs)))):
        pc = _golden_fexp(rng, features) if rng.random() < 0.5 else None
        items.append(a.name if pc is None else f"{a.name} # {pc}")
    return f"proj [{', '.join(items)}] {sel}{rel.name}"


def _golden_tree(rng, schema, depth):
    features = list(schema.features)
    if depth == 0:
        return _golden_leaf(rng, schema, features)
    dim = _golden_fexp(rng, features)
    left = _golden_tree(rng, schema, depth - 1)
    right = _golden_tree(rng, schema, depth - 1)
    return f"choice {dim} {{ {left} }} {{ {right} }}"


def _golden_trees():
    """The seeded corpus of `fixtures/typecheck_golden.txt`: 80 choice trees
    of depth 1 to 3 per schema, every fifth typed with a strict context."""
    rng = random.Random(1911)
    for name, schema in _GOLDEN_SCHEMAS:
        for i in range(80):
            yield name, schema, _golden_tree(rng, schema, 1 + i % 3), i % 5 == 4


def _golden_line(name, schema, text, strict):
    """Schema, query, `check`'s verdict, the pushed attribute set and the
    result schema's attribute names, TAB-separated."""
    q = parse_query(text)
    try:
        t = type_of(q, schema, strict_context=strict)
        verdict, pushed = f"OK: {t.render()}", print_vset(t.pushed_attrs())
    except VTypeError as exc:
        verdict, pushed = f"ERROR {exc.kind} at {exc.path}: {exc.detail}", "-"
    try:
        names = ",".join(result_schema(q, schema).attr_names())
    except (VTypeError, CatalogError) as exc:
        names = f"ERROR {type(exc).__name__}"
    return "\t".join((name, text, verdict, pushed, names))


def test_typing_matches_golden_corpus():
    """Types, pushed sets and result schemas are pinned byte for byte, so
    that a change in how annotations are pushed cannot alter a printed
    presence condition.

    The fixture holds `_golden_line` of every tree of `_golden_trees()`,
    one per line, written with the `src` of commit 7094dfd (whose
    `pushed_attrs` still pushed the structural annotation) first on
    PYTHONPATH.  Line 224 was written again once a query typed `{} # false`
    got a result schema; it used to end in `ERROR CatalogError`.
    """
    lines = (FIXTURES / "typecheck_golden.txt").read_text().splitlines()
    trees = list(_golden_trees())
    assert len(lines) == len(trees) >= 200
    for (name, schema, text, strict), line in zip(trees, lines):
        assert _golden_line(name, schema, text, strict) == line


def test_golden_corpus_covers_true_equivalent_annotations():
    # the edge case of pushing: an annotation equivalent to true that is not
    # the literal true still canonicalizes every element condition
    hits = 0
    for _, schema, text, strict in _golden_trees():
        try:
            t = type_of(parse_query(text), schema, strict_context=strict)
        except VTypeError:
            continue
        hits += t.annotation != TRUE and taut(t.annotation)
    assert hits >= 10


def test_pushed_attrs_equal_push_annotation():
    # `pushed_attrs` reads the canonical annotation where `simplify` is
    # canonical (12 features); the last query's pushes span more than that
    wide = _GOLDEN_SCHEMAS[3][1]
    cases = [(schema, text, strict) for _, schema, text, strict in _golden_trees()]
    cases.append(
        (
            wide,
            "choice w01 & w02 | w03 & !w04 | w05 & w06 "
            "{ proj [a # w07 & w08 | w09 & !w10, b] r } "
            "{ proj [a # w11 | w12 & w13 | w14, c] r }",
            False,
        )
    )
    checked = 0
    for schema, text, strict in cases:
        try:
            t = type_of(parse_query(text), schema, strict_context=strict)
        except VTypeError:
            continue
        assert t.pushed_attrs() == push_annotation(VSet(t.attrs.elements, t.annotation))
        checked += 1
    assert checked > 200


def _padded(schema, n):
    """`schema` with unused features declared up to `n` in all; their names
    sort before, between and after the fixtures' own."""
    pads = ("A0", "m0", "z0", "A1", "m1", "z1", "A2", "m2", "z2", "A3", "m3", "z3", "A4",
            "m4", "z4", "A5", "m5")
    features = schema.features + pads[: max(0, n - len(schema.features))]
    return VSchema(features, schema.model, schema.relations)


def test_typing_paths_agree_on_padded_schemas():
    """Typing decides on truth tables over the schema's features up to 12
    and on a decision diagram above, and reads canonical conditions off
    either.  Unused declared features move a schema across that limit and
    must change no byte."""
    toy, employee, wide14 = (_GOLDEN_SCHEMAS[k][1] for k in (0, 1, 3))
    extra = [
        # set operations, both verdicts; the corpus has none
        ("toy", toy, "union r proj [a1, a2, a3] r", False),
        ("toy", toy, "choice f1 { r } { union r proj [a2, a3] r }", False),
        ("toy", toy, "union r proj [a2, a3] r", False),
        ("toy", toy, "union proj [a1, a2] r proj [a1, a2 # f1] r", False),
        ("employee", employee, "diff empacct empacct", False),
        # condition attributes that do and do not imply their context
        ("employee", employee, "sel (CHC edu (std = true) (true)) empacct", False),
        ("employee", employee, "sel (CHC edu (empno = 1) (true)) empacct", False),
        # pushes that span more than 12 features
        (
            "wide14",
            wide14,
            "choice w01 & w02 | w03 & !w04 | w05 & w06 "
            "{ proj [a # w07 & w08 | w09 & !w10, b] r } "
            "{ proj [a # w11 | w12 & w13 | w14, c] r }",
            False,
        ),
    ]
    checked = 0
    for name, schema, text, strict in [*_golden_trees(), *extra]:
        expected = _golden_line(name, schema, text, strict)
        for n in (13, 17):
            assert _golden_line(name, _padded(schema, n), text, strict) == expected
        checked += 1
    assert checked >= 80


def _push_lines():
    """Schema, feature count and `print_query(push_schema(q, s))`, or `-`
    where the tree does not type, TAB-separated, for every typing-golden
    tree on its schema and padded to 13 and 17 features."""
    for name, schema, text, _ in _golden_trees():
        q = parse_query(text)
        for s in (schema, _padded(schema, 13), _padded(schema, 17)):
            try:
                type_of(q, s)
            except VTypeError:
                pushed = "-"
            else:
                pushed = print_query(push_schema(q, s))
            yield "\t".join((name, str(len(s.features)), pushed))


def test_push_matches_golden_corpus():
    """Pushed queries are pinned byte for byte on both sides of the width
    limits.  The fixture holds `_push_lines()`, one per line, written with
    the `src` of commit dbdb8a8 (whose push was a walk of its own that typed
    every projection's pushed subquery again) first on PYTHONPATH."""
    lines = (FIXTURES / "push_golden.txt").read_text().splitlines()
    assert list(_push_lines()) == lines
    assert len(lines) == 960
    assert sum(not line.endswith("\t-") for line in lines) >= 600


def test_push_raises_on_queries_that_do_not_type():
    toy = _GOLDEN_SCHEMAS[0][1]
    for text in ("proj [s.a1] r", "proj [a1] zz", "choice f1 { r } { proj [zz] r }"):
        with pytest.raises(VTypeError):
            push_schema(parse_query(text), toy)


def test_sql_union_columns_are_the_result_schema_names(monkeypatch):
    """`sql --mode union` takes its column list from the query type's names;
    `run` assembles against `result_schema`.  The two agree name for name
    and in order on the 200-query corpus and on the typing-golden trees of
    the fixtures, each pushed and minimized as the command line does."""
    cases = [(schema, minimize(q, schema.model)) for schema, q in well_typed_corpus(20260818, 200)]
    for name, schema, text, _ in _golden_trees():
        if name not in ("toy", "employee"):
            continue
        q = parse_query(text)
        try:
            type_of(q, schema)
        except VTypeError:
            continue
        cases.append((schema, minimize(push_schema(q, schema), schema.model)))
    unified = []
    monkeypatch.setattr(cli, "sql_union", lambda members, names, columns: unified.append(names))
    for schema, q in cases:
        unified.clear()
        cli._statements(q, VDBInstance(schema, {}), "union")
        assert unified == [result_schema(q, schema).attr_names()]
    assert len(cases) == 298
