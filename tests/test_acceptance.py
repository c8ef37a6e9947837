"""Acceptance gate: one test per stated criterion, named by number.

Each criterion runs end to end at its stated tolerance; the `pytest -v`
line per test is the pass/fail verdict line.  Criterion 7 asserts the
enumerated distinct-schema count and checks the stated 12 as the unconstrained
per-relation product; see the README's variant-counting note.
"""

import random
import time
from pathlib import Path

from varidb.catalog import configure_schema, parse_schema
from varidb.cli import main
from varidb.featexpr import (
    TRUE,
    And,
    Feature,
    Not,
    Or,
    all_configs,
    equiv,
    eval_fexp,
    parse_fexp,
    print_fexp,
    sat,
)
from varidb.minimize import RULE_NAMES, apply_rule, minimize, variation_weight
from varidb.relengine import run_configure, run_group
from varidb.storage import load_vdb, print_vtable
from varidb.translate import (
    configure_query,
    group_generic,
    group_query,
    push_schema,
)
from varidb.typecheck import check_variation_preservation, type_of
from varidb.vra import parse_query, plain_key, print_query
from varidb.vset import (
    push_annotation,
    vset,
    vset_equiv,
    vset_intersect,
    vset_union,
)
from varidb.sqlgen import sql_of_plain, sql_union
from genqueries import canon_vtable, rule_instances, well_typed_corpus
from sql_grammar import check_sql

_FIXTURES = Path(__file__).resolve().parent / "fixtures"

TOY = parse_schema((_FIXTURES / "toy" / "schema.vschema").read_text())
Q5 = parse_query("proj [a1, a2 # f1 & f2, a3 # f2] r")

S2 = parse_schema(
    """
features V3, V4, V5
featuremodel V3 | V4 | V5
relation empbio (empno int, sex text, birthdate text, name text # V4,
                 firstname text # V5, lastname text # V5) # V3 | V4 | V5
"""
)


# ---------------------------------------------------------------------------
# 1. Worked examples reproduce exactly, in under a second
# ---------------------------------------------------------------------------


def test_criterion_1_worked_examples():
    started = time.monotonic()

    # The four configurations of the annotated projection.
    for config, expected in {
        frozenset({"f1", "f2"}): "proj [a1, a2, a3] r",
        frozenset({"f2"}): "proj [a1, a3] r",
        frozenset({"f1"}): "proj [a1] r",
        frozenset(): "proj [a1] r",
    }.items():
        assert configure_query(Q5, config) == parse_query(expected)

    # Its three-element grouping.
    grouped = {print_query(q): e for q, e in group_query(Q5)}
    assert set(grouped) == {"proj [a1, a2, a3] r", "proj [a1, a3] r", "proj [a1] r"}
    assert equiv(grouped["proj [a1, a2, a3] r"], parse_fexp("f1 & f2"))
    assert equiv(grouped["proj [a1, a3] r"], parse_fexp("!f1 & f2"))
    assert equiv(grouped["proj [a1] r"], parse_fexp("!f2"))

    # The conditional and unconditional spellings share one type.
    t1 = type_of(
        parse_query(
            "proj [empno # !V3, name # V4, firstname # V5, lastname # V5] empbio"
        ),
        S2,
    )
    t2 = type_of(
        parse_query("proj [empno # !V3, name, firstname, lastname] empbio"), S2
    )
    assert t1.attrs == t2.attrs and t1.annotation == t2.annotation
    assert (
        t1.render()
        == "{ empno # !V3, name # V4, firstname # V5, lastname # V5 } # V3 | V4 | V5"
    )

    # Pushing the schema onto the projection.
    assert push_schema(Q5, TOY) == parse_query(
        "proj [a1 # f1, a2 # f1 & f2, a3 # f2] r"
    )

    # V-set examples: annotation push-down, union, intersection, equivalence.
    f1, f2, f3 = Feature("f1"), Feature("f2"), Feature("f3")
    pushed = push_annotation(
        vset([(2, f1), (3, Not(f2)), 4, (5, f3)], annotation=And(f1, f2))
    )
    assert pushed.annotation == TRUE
    assert [(el.value, print_fexp(el.pc)) for el in pushed.elements] == [
        (2, "f1 & f2"),
        (4, "f1 & f2"),
        (5, "f1 & f2 & f3"),
    ]

    e1, e2 = Feature("e1"), Feature("e2")
    u = vset_union(vset([2, (3, e1), (4, e1)]), vset([(3, e2), (4, Not(e1))]))
    assert u.values() == [2, 3, 4]
    assert u.pc_of(2) == TRUE
    assert u.pc_of(3) == Or(e1, e2)
    assert u.pc_of(4) == Or(e1, Not(e1))

    meet = vset_intersect(
        vset([2, (3, f1), (4, Not(f2))]), vset([2, 3, 4, 5], annotation=f2)
    )
    assert [(el.value, print_fexp(el.pc)) for el in meet.elements] == [
        (2, "f2"),
        (3, "f1 & f2"),
    ]

    a = Feature("A")
    assert vset_equiv(vset([2, (3, Or(a, Not(a)))]), vset([3, (2, TRUE)]))

    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# 2. Variation preservation on a random well-typed corpus
# ---------------------------------------------------------------------------

_CORPUS = well_typed_corpus(seed=20260818, count=200)


def test_criterion_2_variation_preservation():
    started = time.monotonic()
    assert len(_CORPUS) >= 200
    violations = []
    for schema, q in _CORPUS:
        violations.extend(check_variation_preservation(q, schema))
    assert violations == []
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 3. Group/configure coherence on the same corpus
# ---------------------------------------------------------------------------


def test_criterion_3_group_configure_coherence():
    for schema, q in _CORPUS:
        group = group_query(q)
        for config in all_configs(schema.features):
            live = [(m, e) for m, e in group if eval_fexp(e, config)]
            assert len(live) == 1, print_query(q)
            assert configure_query(q, config) == live[0][0], print_query(q)
        generic = {plain_key(m): e for m, e in group_generic(q, schema.features)}
        keyed = {plain_key(m): e for m, e in group}
        assert keyed.keys() == generic.keys(), print_query(q)
        for key, e in keyed.items():
            assert equiv(e, generic[key]), print_query(q)


# ---------------------------------------------------------------------------
# 4. Minimization soundness, rule by rule
# ---------------------------------------------------------------------------

_DISTRIBUTIVE = (
    "push-projections",
    "push-selections",
    "push-products",
    "push-joins",
    "push-setops",
)


def test_criterion_4_minimization_soundness():
    started = time.monotonic()
    db = load_vdb(_FIXTURES / "toy")
    model = db.schema.model
    for rule in RULE_NAMES:
        applied = 0
        for lhs in rule_instances(rule, db.schema, seed=sum(map(ord, rule)), count=100):
            rhs = apply_rule(rule, lhs, ctx=model)
            assert rhs is not None, print_query(lhs)
            assert canon_vtable(run_configure(lhs, db)) == canon_vtable(
                run_configure(rhs, db)
            ), print_query(lhs)
            if rule in _DISTRIBUTIVE:
                assert variation_weight(rhs) < variation_weight(lhs)
            once = minimize(lhs, ctx=model)
            assert minimize(once, ctx=model) == once
            applied += 1
        assert applied >= 100
    assert time.monotonic() - started < 120.0


# ---------------------------------------------------------------------------
# 5. Strategy equivalence on the employee fixture
# ---------------------------------------------------------------------------

_EMPLOYEE_QUERIES = (
    "rel empacct",
    "rel ecourse",
    "proj [empno, salary] empacct",
    "sel (salary = 55000) empacct",
    "join (deptno = courseno) empacct proj [courseno, coursename] ecourse",
    "choice edu { proj [empno, std, instr] empacct } { proj [empno, title] empacct }",
    "diff proj [deptno] empacct proj [deptno] sel (salary = 55000) empacct",
    "sel (CHC edu (std = true) (true)) empacct",
)


def test_criterion_5_strategy_equivalence():
    db = load_vdb(_FIXTURES / "employee")
    differing_cells = 0
    for text in _EMPLOYEE_QUERIES:
        q = push_schema(parse_query(text), db.schema)
        type_of(q, db.schema)
        a = print_vtable(run_configure(q, db))
        b = print_vtable(run_group(q, db))
        if a != b:
            rows_a, rows_b = a.splitlines(), b.splitlines()
            for line_a, line_b in zip(rows_a, rows_b):
                differing_cells += sum(
                    x != y for x, y in zip(line_a.split(","), line_b.split(","))
                )
            differing_cells += abs(len(rows_a) - len(rows_b))
    assert differing_cells == 0


# ---------------------------------------------------------------------------
# 6. V-set operations against the configuration-space oracle
# ---------------------------------------------------------------------------


def _rand_fexp(rng, names, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Feature(rng.choice(names))
    if roll < 0.55:
        return Not(_rand_fexp(rng, names, depth - 1))
    if roll < 0.7:
        return TRUE
    op = And if rng.random() < 0.5 else Or
    return op(_rand_fexp(rng, names, depth - 1), _rand_fexp(rng, names, depth - 1))


def _sat_fexp(rng, names):
    while True:
        e = _rand_fexp(rng, names)
        if sat(e):
            return e


def _rand_vset(rng, names):
    values = rng.sample(range(8), rng.randint(0, 5))
    items = [(v, _sat_fexp(rng, names)) for v in values]
    annotation = _rand_fexp(rng, names) if rng.random() < 0.5 else TRUE
    return vset(items, annotation)


def test_criterion_6_vset_brute_force_oracle():
    from varidb.vset import configure_vset, subsumes

    rng = random.Random(6)
    names = ["g1", "g2", "g3", "g4", "g5"]
    configs = list(all_configs(names))
    for _ in range(300):
        x, y = _rand_vset(rng, names), _rand_vset(rng, names)
        union = vset_union(x, y)
        meet = vset_intersect(x, y)
        same = vset_equiv(x, y)
        covered = subsumes(x, y)
        agree_everywhere = True
        appears, together = set(), set()
        for c in configs:
            cx, cy = set(configure_vset(x, c)), set(configure_vset(y, c))
            assert set(configure_vset(union, c)) == cx | cy
            assert set(configure_vset(meet, c)) == cx & cy
            agree_everywhere = agree_everywhere and cx == cy
            appears.update(cx)
            together.update(cx & cy)
        assert same == agree_everywhere
        # subsumption: every value x can produce is, in at least one
        # configuration, produced by both sets
        assert covered == (appears <= together)


# ---------------------------------------------------------------------------
# 7. Variant counting over the model-satisfying configurations
# ---------------------------------------------------------------------------


def test_criterion_7_variant_counts(capsys):
    employee = str(_FIXTURES / "employee")
    code = main(["variants", employee])
    out, _ = capsys.readouterr()
    assert code == 0
    rerun = main(["variants", employee])
    out2, _ = capsys.readouterr()
    assert rerun == 0 and out2 == out  # deterministic
    words = out.split()
    satisfying, distinct = words[0], words[3]
    assert satisfying == "21"
    assert distinct == "10", f"variants reported: {out.strip()!r}"

    # The stated 12 is the per-relation product 4 x 3, which treats the two
    # relations as independent.  The feature model ties edu to T4 | T5, so
    # empacct with std, instr never occurs without ecourse.
    schema = parse_schema((_FIXTURES / "employee" / "schema.vschema").read_text())
    pairs = set()
    for config in all_configs(schema.features):
        if eval_fexp(schema.model, config):
            plain = configure_schema(schema, config)
            pairs.add(
                tuple(
                    tuple(name for name, _ in plain[rel]) if rel in plain else None
                    for rel in ("empacct", "ecourse")
                )
            )
    empacct_shapes = {e for e, _ in pairs}
    ecourse_shapes = {c for _, c in pairs}
    assert len(empacct_shapes) == 4 and len(ecourse_shapes) == 3
    assert len(empacct_shapes) * len(ecourse_shapes) == 12
    assert len(pairs) == 10
    missing = {(e, c) for e in empacct_shapes for c in ecourse_shapes} - pairs
    edu_shapes = {e for e in empacct_shapes if {"std", "instr"} <= set(e)}
    assert len(edu_shapes) == 2  # with and without salary
    assert missing == {(e, None) for e in edu_shapes}


# ---------------------------------------------------------------------------
# 8. SQL golden suite
# ---------------------------------------------------------------------------


def test_criterion_8_sql_goldens():
    def golden(name):
        return (_FIXTURES / "sql" / name).read_text()

    for config, name in {
        frozenset({"f1", "f2"}): "q5_variant_f1_f2.sql",
        frozenset({"f2"}): "q5_variant_f2.sql",
        frozenset({"f1"}): "q5_variant_f1.sql",
        frozenset(): "q5_variant_none.sql",
    }.items():
        st = sql_of_plain(configure_query(Q5, set(config)))
        assert st.text + "\n" == golden(name)
        check_sql(st.text)

    group = group_query(Q5)
    unified = [str(el.value) for el in type_of(Q5, TOY).attrs.elements]
    st = sql_union(group, unified, [[str(el.value) for el in q.attrs] for q, _ in group])
    assert st.text + "\n" == golden("q5_union.sql")
    assert check_sql(st.text) == [len(unified) + 1] * len(group)
