"""Configure / group / schema push: worked examples and partition laws."""

import random

import pytest

from varidb.catalog import parse_schema
from varidb.featexpr import (
    FALSE,
    TRUE,
    Feature,
    Not,
    all_configs,
    equiv,
    eval_fexp,
    minterm,
    parse_fexp,
    print_fexp,
    sat,
    taut,
    And,
    Or,
    and_all,
    or_all,
)
from varidb.translate import (
    TooManyFeatures,
    configure_cond,
    configure_query,
    group_attrs,
    group_cond,
    group_generic,
    group_query,
    push_schema,
)
from varidb.vra import (
    EMPTY,
    AttrRef,
    Choice,
    CompareAttrConst,
    CondAnd,
    CondChoice,
    CondNot,
    CondOr,
    Const,
    Join,
    Product,
    Project,
    Relation,
    Select,
    SetOp,
    free_features,
    parse_cond,
    parse_query,
    plain_key,
    print_query,
)
from varidb.vset import VElem, VSet, configure_vset

TOY = parse_schema(
    """
features f1, f2
relation r (a1 int # f1, a2 int, a3 int) # f1 | f2
"""
)

Q5 = parse_query("proj [a1, a2 # f1 & f2, a3 # f2] r")


# ---------------------------------------------------------------------------
# Configuring
# ---------------------------------------------------------------------------


def test_configure_q5_all_four_ways():
    cases = {
        frozenset({"f1", "f2"}): "proj [a1, a2, a3] r",
        frozenset({"f2"}): "proj [a1, a3] r",
        frozenset({"f1"}): "proj [a1] r",
        frozenset(): "proj [a1] r",
    }
    for config, expected in cases.items():
        assert configure_query(Q5, config) == parse_query(expected)


def test_configure_choice_picks_branch():
    q = Choice(Feature("A"), Relation("r1"), Relation("r2"))
    assert configure_query(q, frozenset({"A"})) == Relation("r1")
    assert configure_query(q, frozenset()) == Relation("r2")


def test_configure_condition_choice():
    c = parse_cond("CHC A (a = 1) (a = 2)")
    assert configure_cond(c, frozenset()) == parse_cond("a = 2")
    assert configure_cond(c, frozenset({"A"})) == parse_cond("a = 1")
    q = parse_query("sel (CHC A (a = 1) (a = 2)) r")
    assert configure_query(q, frozenset()) == parse_query("sel (a = 2) r")


def test_configure_is_plain():
    rng = random.Random(5)
    q = parse_query(
        "choice f1 { sel (CHC f2 (a1 = 1) (a1 = 2)) r } { proj [a2 # f2, a3] r }"
    )
    for c in all_configs(["f1", "f2"]):
        assert free_features(configure_query(q, c)) == frozenset()


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def _as_keyed(group):
    return {plain_key(q): e for q, e in group}


def test_group_q5_three_buckets():
    group = group_query(Q5)
    assert len(group) == 3
    keyed = _as_keyed(group)
    expected = {
        "proj [a1, a2, a3] r": "f1 & f2",
        "proj [a1, a3] r": "!f1 & f2",
        "proj [a1] r": "f1 & !f2 | !f1 & !f2",
    }
    for q_text, e_text in expected.items():
        k = plain_key(parse_query(q_text))
        assert k in keyed, q_text
        assert equiv(keyed[k], parse_fexp(e_text)), q_text


def test_group_q5_simplified_forms():
    texts = {print_query(q): print_fexp(e) for q, e in group_query(Q5)}
    assert texts == {
        "proj [a1, a2, a3] r": "f1 & f2",
        "proj [a1, a3] r": "!f1 & f2",
        "proj [a1] r": "!f2",
    }


def test_group_plain_query_is_trivial():
    q = parse_query("sel (a1 = 3) proj [a1, a2] r")
    assert group_query(q) == [(q, TRUE)]


def test_group_choice_of_relations():
    q = Choice(Feature("A"), Relation("r1"), Relation("r2"))
    assert group_query(q) == [
        (Relation("r1"), Feature("A")),
        (Relation("r2"), Not(Feature("A"))),
    ]


def test_group_empty_relation():
    assert group_query(EMPTY) == [(EMPTY, TRUE)]


def test_group_cond_splits_on_dimension():
    got = group_cond(parse_cond("CHC f1 (a = 1) (a = 2)"))
    as_map = {c: e for c, e in got}
    assert as_map == {
        parse_cond("a = 2"): Not(Feature("f1")),
        parse_cond("a = 1"): Feature("f1"),
    }


def test_group_attrs_on_projection_list():
    got = group_attrs(Q5.attrs)
    rendered = {tuple(v for v in s.values()): print_fexp(e) for s, e in got}
    assert rendered == {
        ("a1",): "!f2",
        ("a1", "a3"): "!f1 & f2",
        ("a1", "a2", "a3"): "f1 & f2",
    }


def test_group_merges_branches_that_agree():
    # both branches configure to the same plain query when f2 is off
    q = parse_query("choice f1 { proj [a1, a2 # f2] r } { proj [a1] r }")
    group = group_query(q)
    keyed = _as_keyed(group)
    assert len(group) == 2
    assert equiv(keyed[plain_key(parse_query("proj [a1] r"))], parse_fexp("!f1 | !f2"))
    assert equiv(
        keyed[plain_key(parse_query("proj [a1, a2] r"))], parse_fexp("f1 & f2")
    )


def test_group_drops_unsatisfiable_pairs():
    q = parse_query("choice f1 { choice !f1 { r1 } { r2 } } { r3 }")
    group = group_query(q)
    keyed = _as_keyed(group)
    assert plain_key(Relation("r1")) not in keyed
    assert equiv(keyed[plain_key(Relation("r2"))], Feature("f1"))
    assert equiv(keyed[plain_key(Relation("r3"))], Not(Feature("f1")))


QUERY_BATTERY = [
    "proj [a1, a2 # f1 & f2, a3 # f2] r",
    "choice f1 { r1 } { r2 }",
    "choice f1 & f2 { sel (CHC f1 (x = 1) (x = 2)) r1 } { empty }",
    "sel (CHC A (a = 1) (CHC B (a = 2) (a = 3))) r",
    "join (x = y) choice f1 { r1 } { r2 } proj [y # f2] s",
    "union choice f1 { r1 } { r2 } choice f2 { r1 } { r2 }",
    "diff proj [a # f1, b] r prod s t",
    "sel (a = 1) r",
    "empty",
]


def test_group_partitions_configuration_space():
    for text in QUERY_BATTERY:
        q = parse_query(text)
        group = group_query(q)
        names = sorted(free_features(q))
        # fexps are pairwise disjoint and jointly exhaustive
        for i, (_, e1) in enumerate(group):
            for _, e2 in group[i + 1 :]:
                assert not sat(And(e1, e2)), text
        covering = group[0][1]
        for _, e in group[1:]:
            covering = Or(covering, e)
        assert taut(covering), text
        # each bucket's fexp selects exactly the configurations that
        # configure to that bucket's plain query
        for c in all_configs(names):
            selected = [(p, e) for p, e in group if eval_fexp(e, c)]
            assert len(selected) == 1, text
            plain, _ = selected[0]
            assert plain_key(configure_query(q, c)) == plain_key(plain), text


def test_group_agrees_with_extensional_oracle():
    for text in QUERY_BATTERY:
        q = parse_query(text)
        got = _as_keyed(group_query(q))
        oracle = {plain_key(p): e for p, e in group_generic(q)}
        assert got.keys() == oracle.keys(), text
        for k in got:
            assert equiv(got[k], oracle[k]), text


def test_group_generic_on_conditions_and_vsets():
    c = parse_cond("CHC f1 (a = 1) (a = 2)")
    got = {cond: e for cond, e in group_generic(c)}
    assert got == {
        parse_cond("a = 2"): Not(Feature("f1")),
        parse_cond("a = 1"): Feature("f1"),
    }
    got_sets = {tuple(vals): print_fexp(e) for vals, e in group_generic(Q5.attrs)}
    assert got_sets == {
        ("a1",): "!f2",
        ("a1", "a3"): "!f1 & f2",
        ("a1", "a2", "a3"): "f1 & f2",
    }


def test_group_generic_respects_larger_universe():
    q = parse_query("choice f1 { r1 } { r2 }")
    got = {plain_key(p): e for p, e in group_generic(q, features={"f1", "f9"})}
    assert equiv(got[plain_key(Relation("r1"))], Feature("f1"))
    assert equiv(got[plain_key(Relation("r2"))], Not(Feature("f1")))


def test_group_generic_limits_and_wide_universes():
    c = parse_cond("CHC f1 (a = 1) (a = 2)")
    with pytest.raises(ValueError, match="too many features"):
        group_generic(c, features=[f"f{i}" for i in range(1, 22)])
    # Beyond the 12-feature canonical-print limit a bucket's formula is the
    # disjunction of its minterms, in configuration order.
    # (The chain is 4096 deep, so it is compared along its left spine.)
    universe = [f"f{i}" for i in range(1, 14)]
    got = {cond: e for cond, e in group_generic(c, features=universe)}
    disjuncts = []
    e = got[parse_cond("a = 1")]
    while isinstance(e, Or):
        disjuncts.append(e.right)
        e = e.left
    disjuncts.append(e)
    expected = [minterm(k, universe) for k in all_configs(universe) if "f1" in k]
    assert disjuncts[::-1] == expected


# ---------------------------------------------------------------------------
# Schema push
# ---------------------------------------------------------------------------


def test_push_q5_worked_example():
    pushed = push_schema(Q5, TOY)
    assert pushed == parse_query("proj [a1 # f1, a2 # f1 & f2, a3 # f2] r")


def test_push_is_idempotent():
    pushed = push_schema(Q5, TOY)
    assert push_schema(pushed, TOY) == pushed


def test_push_annotation_free_is_identity():
    s = parse_schema("relation t (x int, y text)\n")
    q = parse_query("proj [y] sel (x > 3) t")
    assert push_schema(q, s) == q


def test_push_conjoins_attribute_presence():
    s = parse_schema("features A, B\nrelation rb (x int # B)\n")
    q = parse_query("proj [x # A] rb")
    assert push_schema(q, s) == parse_query("proj [x # A & B] rb")


def test_push_descends_into_choices_with_refined_context():
    q = parse_query("choice f1 { proj [a1] r } { proj [a2] r }")
    pushed = push_schema(q, TOY)
    # each branch's items absorb the refined context along with the schema
    assert pushed.left == parse_query("proj [a1 # f1] r")
    assert pushed.right == parse_query("proj [a2 # !f1 & f2] r")


def test_push_drops_impossible_items():
    # under the explicit context f1 the first item can never materialize
    q = parse_query("proj [a1 # !f1, a2] r")
    pushed = push_schema(q, TOY, ctx=Feature("f1"))
    assert pushed == parse_query("proj [a2 # f1] r")


def test_push_keeps_dead_branches_untouched():
    ctx_free = parse_query("choice f1 { proj [a1] r } { proj [a9] r }")
    pushed = push_schema(ctx_free, TOY, ctx=Feature("f1"))
    assert pushed.right == parse_query("proj [a9] r")


# ---------------------------------------------------------------------------
# group_attrs against the enumerating oracle
# ---------------------------------------------------------------------------


def _same_tree(a, b):
    """Structural equality without recursion: wide groups are minterm
    disjunctions thousands of nodes deep."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (And, Or)):
            stack += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, Not):
            stack.append((x.operand, y.operand))
        elif x != y:
            return False
    return True


def _random_pc(rng, names, earlier):
    """A satisfiable condition: a constant one, one equal in function to an
    earlier condition but not in form, or a union of random cubes."""
    roll = rng.random()
    if not names or roll < 0.15:
        constants = [TRUE, Not(FALSE), Or(FALSE, TRUE)]
        if names:
            f = Feature(rng.choice(names))
            constants.append(Or(f, Not(f)))
        return rng.choice(constants)
    if earlier and roll < 0.35:
        p = rng.choice(earlier)
        return rng.choice([Not(Not(p)), And(p, p), Or(p, FALSE)])
    cubes = [
        and_all(
            Feature(n) if rng.random() < 0.5 else Not(Feature(n))
            for n in rng.sample(names, rng.randint(1, min(3, len(names))))
        )
        for _ in range(rng.randint(1, 3))
    ]
    return or_all(cubes)


def _random_attr_list(rng, n):
    """Up to seven attributes whose conditions span exactly n features."""
    names = [f"h{k:02d}" for k in range(n)]
    pcs = []
    for _ in range(rng.randint(0, 6)):
        pcs.append(_random_pc(rng, names, pcs))
    if names:  # one clause over every feature
        pcs.append(or_all(Feature(f) if rng.random() < 0.5 else Not(Feature(f)) for f in names))
    return VSet(tuple(VElem(f"x{i}", pc) for i, pc in enumerate(pcs)))


def _same_groups(got, expected):
    return [tuple(v.values()) for v, _ in got] == [tuple(p) for p, _ in expected] and all(
        _same_tree(e1, e2) for (_, e1), (_, e2) in zip(got, expected)
    )


def _enumerated(x, configure, key):
    """`group_generic(x)`'s groups as truth tables over x's sorted features
    (bit m for minterm m, as in `all_configs`), in its order: each form
    that configuring x gives, with the configurations that give it."""
    where = {}
    for m, c in enumerate(all_configs(sorted(free_features(x)))):
        k = key(configure(x, c))
        where[k] = where.get(k, 0) | 1 << m
    return where


def _table_of(e, names):
    """The truth table of `e` over sorted `names`, walked with an explicit
    stack rather than recursively."""
    n = len(names)
    masks = {
        f: int("".join(str(m >> k & 1) for m in reversed(range(1 << n))), 2)
        for k, f in enumerate(names)
    }
    full = (1 << (1 << n)) - 1
    todo, values = [(e, False)], []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Feature):
            values.append(masks.get(node.name, 0))
        elif isinstance(node, Not):
            if ready:
                values.append(values.pop() ^ full)
            else:
                todo += [(node, True), (node.operand, False)]
        elif isinstance(node, (And, Or)):
            if ready:
                right, left = values.pop(), values.pop()
                values.append(left & right if isinstance(node, And) else left | right)
            else:
                todo += [(node, True), (node.right, False), (node.left, False)]
        else:
            values.append(full if node.value else 0)
    return values.pop()


def _same_partition(got, x, configure, key):
    """`got` lists `group_generic(x)`'s forms in its order, and each of its
    formulas holds exactly where x configures to that form.  Enumerated
    here, since above 12 features the oracle's formulas are minterm
    disjunctions thousands of nodes deep, and are not compared."""
    where, names = _enumerated(x, configure, key), sorted(free_features(x))
    return [(key(v), _table_of(e, names)) for v, e in got] == list(where.items())


def test_group_attrs_matches_the_enumerating_oracle():
    # Above 12 features the oracle's formulas are minterm disjunctions and
    # group_attrs's are irredundant sums of products, so a 13-feature list
    # is checked by its partition.
    rng = random.Random(2019)
    for n in list(range(13)) * 3:
        attrs = _random_attr_list(rng, n)
        assert _same_groups(group_attrs(attrs), group_generic(attrs)), n
    attrs = _random_attr_list(rng, 13)
    key = lambda v: tuple(v.values() if isinstance(v, VSet) else v)  # noqa: E731
    assert _same_partition(group_attrs(attrs), attrs, configure_vset, key)


def test_group_attrs_wide_lists_and_the_cap():
    # constant conditions over 14 and 17 features: one group, true
    for n in (14, 17):
        every = or_all(Or(Feature(f"h{k:02d}"), Not(Feature(f"h{k:02d}"))) for k in range(n))
        h03 = Feature("h03")
        attrs = VSet((VElem("x0", every), VElem("x1", Or(h03, Not(h03))), VElem("x2")))
        got = group_attrs(attrs)
        assert [(tuple(v.values()), e) for v, e in got] == [(("x0", "x1", "x2"), TRUE)]
        if n == 14:
            assert _same_groups(got, group_generic(attrs))
    # beyond 20 features grouping needs no enumeration; the oracle still stops
    some = or_all(Feature(f"h{k:02d}") for k in range(21))
    wider = VSet((VElem("x0", some),))
    got = group_attrs(wider)
    none = and_all(Not(Feature(f"h{k:02d}")) for k in range(21))
    assert [(tuple(v.values()), e) for v, e in got] == [((), none), (("x0",), some)]
    with pytest.raises(TooManyFeatures, match="too many features to enumerate: 21"):
        group_generic(wider)


def _random_cond(rng, names, depth):
    """A condition whose choices nest up to `depth` deep over `names`."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return CompareAttrConst(AttrRef(rng.choice("ab")), "=", Const(rng.randint(1, 3)))
    if roll < 0.3:
        return CondNot(_random_cond(rng, names, depth - 1))
    if roll < 0.45:
        make = rng.choice([CondAnd, CondOr])
        return make(_random_cond(rng, names, depth - 1), _random_cond(rng, names, depth - 1))
    return CondChoice(
        _random_pc(rng, names, []),
        _random_cond(rng, names, depth - 1),
        _random_cond(rng, names, depth - 1),
    )


def _spanning(names):
    """A clause over every one of `names`."""
    return or_all(Feature(f) if k % 2 else Not(Feature(f)) for k, f in enumerate(names))


def _random_wide_cond(rng, n):
    """A condition with nested choices whose dimensions span exactly n features."""
    names = [f"h{k:02d}" for k in range(n)]
    c = _random_cond(rng, names, 3)
    return CondChoice(_spanning(names), c, _random_cond(rng, names, 2)) if names else c


def test_group_cond_matches_the_enumerating_oracle():
    rng = random.Random(1956)
    for n in list(range(13)) * 3:
        c = _random_wide_cond(rng, n)
        got, expected = group_cond(c), group_generic(c)
        assert [x for x, _ in got] == [x for x, _ in expected], n
        assert all(_same_tree(e1, e2) for (_, e1), (_, e2) in zip(got, expected)), n
    for n in (13, 14):
        c = _random_wide_cond(rng, n)
        assert _same_partition(group_cond(c), c, configure_cond, lambda x: x), n
        if n == 13:  # the enumeration stands in for the oracle
            expected = list(_enumerated(c, configure_cond, lambda x: x))
            assert [x for x, _ in group_generic(c)] == expected


def _random_query(rng, names, depth):
    """A query of every form, its dimensions and conditions over `names`."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return Relation(rng.choice(["r", "s"]))
    sub = lambda: _random_query(rng, names, depth - 1)  # noqa: E731
    if roll < 0.35:
        return Choice(_random_pc(rng, names, []), sub(), sub())
    if roll < 0.5:
        pcs = [_random_pc(rng, names, []) for _ in range(rng.randint(0, 3))]
        return Project(VSet(tuple(VElem(f"x{i}", pc) for i, pc in enumerate(pcs))), sub())
    if roll < 0.65:
        return Select(_random_cond(rng, names, 2), sub())
    if roll < 0.75:
        return Join(_random_cond(rng, names, 1), sub(), sub())
    if roll < 0.85:
        return Product(sub(), sub())
    return SetOp(rng.choice(["union", "difference"]), sub(), sub())


def _random_wide_query(rng, n):
    names = [f"h{k:02d}" for k in range(n)]
    q = _random_query(rng, names, 3)
    return Choice(_spanning(names), q, _random_query(rng, names, 2)) if names else q


def test_group_query_matches_the_enumerating_oracle():
    # group_query's order is compositional (choices list their left branch
    # first), so its groups are compared with the oracle's by plain query.
    rng = random.Random(1986)
    for n in list(range(13)) * 3:
        q = _random_wide_query(rng, n)
        got = {plain_key(p): e for p, e in group_query(q)}
        expected = {plain_key(p): e for p, e in group_generic(q)}
        assert got.keys() == expected.keys(), n
        assert all(_same_tree(got[k], expected[k]) for k in got), n
    for n in (13, 14):
        q = _random_wide_query(rng, n)
        names = sorted(free_features(q))
        got = {plain_key(p): _table_of(e, names) for p, e in group_query(q)}
        assert got == _enumerated(q, configure_query, plain_key), n
