"""Feature-expression parsing, solving, and canonical simplification."""

from __future__ import annotations

import operator
import random
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varidb.featexpr import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    Feature,
    Not,
    Or,
    ParseError,
    Universe,
    all_configs,
    and_all,
    equiv,
    eval_fexp,
    features_of,
    from_table,
    implies,
    minterm,
    or_all,
    parse_fexp,
    parse_fexp_partial,
    print_fexp,
    _canonical,
    _drop_irrelevant,
    _masks,
    _minimal,
    _pick_cover,
    _primes,
    _truth_table,
    sat,
    simplify,
    solutions,
    taut,
    witness,
)

A, B, C = Feature("a"), Feature("b"), Feature("c")
_FIXTURES = Path(__file__).resolve().parent / "fixtures"


# --- independent truth-table oracle (used instead of the module's solvers) ---


def _ev(e, env: dict[str, bool]) -> bool:
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Feature):
        return env[e.name]
    if isinstance(e, Not):
        return not _ev(e.operand, env)
    if isinstance(e, And):
        return _ev(e.left, env) and _ev(e.right, env)
    return _ev(e.left, env) or _ev(e.right, env)


def _table(e, names=None):
    names = sorted(features_of(e)) if names is None else list(names)
    rows = []
    for values in product([False, True], repeat=len(names)):
        rows.append(_ev(e, dict(zip(names, values))))
    return tuple(rows)


def _brute_sat(e) -> bool:
    return any(_table(e))


def _brute_equiv(e1, e2) -> bool:
    names = sorted(features_of(e1) | features_of(e2))
    return _table(e1, names) == _table(e2, names)


def _random_fexp(rng: random.Random, depth: int, names: list[str]):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.08:
            return TRUE
        if r < 0.16:
            return FALSE
        return Feature(rng.choice(names))
    kind = rng.choice(["not", "and", "or"])
    if kind == "not":
        return Not(_random_fexp(rng, depth - 1, names))
    left = _random_fexp(rng, depth - 1, names)
    right = _random_fexp(rng, depth - 1, names)
    return And(left, right) if kind == "and" else Or(left, right)


# --- parsing and printing ---


def test_parse_atoms():
    assert parse_fexp("true") == TRUE
    assert parse_fexp("false") == FALSE
    assert parse_fexp("f1") == Feature("f1")
    assert parse_fexp("  f1  ") == Feature("f1")


def test_parse_precedence_and_associativity():
    assert parse_fexp("a & b | c") == Or(And(A, B), C)
    assert parse_fexp("a | b & c") == Or(A, And(B, C))
    assert parse_fexp("!a & b") == And(Not(A), B)
    assert parse_fexp("!(a & b)") == Not(And(A, B))
    assert parse_fexp("a | b | c") == Or(Or(A, B), C)
    assert parse_fexp("a & b & c") == And(And(A, B), C)
    assert parse_fexp("!!a") == Not(Not(A))


def test_print_minimal_parentheses():
    assert print_fexp(Or(And(A, B), C)) == "a & b | c"
    assert print_fexp(And(Or(A, B), C)) == "(a | b) & c"
    assert print_fexp(Not(And(A, B))) == "!(a & b)"
    assert print_fexp(Not(A)) == "!a"
    assert print_fexp(Or(A, Or(B, C))) == "a | (b | c)"
    assert print_fexp(Or(Or(A, B), C)) == "a | b | c"
    assert print_fexp(TRUE) == "true"


def test_roundtrip_text_to_tree_to_text():
    for text in ["a & b | c", "(a | b) & !c", "!(a & b) | true", "a & (b | c)"]:
        assert print_fexp(parse_fexp(text)) == text


def test_roundtrip_tree_to_text_to_tree_random():
    rng = random.Random(7)
    names = ["f1", "f2", "f3", "g"]
    for _ in range(300):
        e = _random_fexp(rng, 4, names)
        assert parse_fexp(print_fexp(e)) == e


def test_parse_partial_stops_at_foreign_token():
    e, end = parse_fexp_partial("f1 & f2, rest", 0)
    assert e == And(Feature("f1"), Feature("f2"))
    assert "f1 & f2, rest"[end] == ","


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as info:
        parse_fexp("a & ")
    assert info.value.offset == 4
    with pytest.raises(ParseError) as info:
        parse_fexp("a ) b")
    assert info.value.offset == 2
    with pytest.raises(ParseError):
        parse_fexp("(a | b")
    with pytest.raises(ParseError):
        parse_fexp("a ~ b")


# --- evaluation ---


def test_eval_basic():
    e = parse_fexp("(f1 | f2) & !f3")
    assert eval_fexp(e, {"f1"})
    assert eval_fexp(e, {"f2"})
    assert not eval_fexp(e, {"f1", "f3"})
    assert not eval_fexp(e, set())
    assert eval_fexp(TRUE, set())
    assert not eval_fexp(FALSE, {"f1"})


def test_features_of():
    assert features_of(parse_fexp("(a | b) & !c & a")) == {"a", "b", "c"}
    assert features_of(TRUE) == frozenset()


# --- sat / taut / equiv / implies ---


def test_sat_basics():
    assert sat(A)
    assert not sat(And(A, Not(A)))
    assert sat(Or(A, Not(A)))
    assert not sat(FALSE)
    assert sat(TRUE)


def test_taut_equiv_implies_basics():
    assert taut(Or(A, Not(A)))
    assert not taut(A)
    assert equiv(And(A, B), And(B, A))
    assert not equiv(A, B)
    assert implies(And(A, B), A)
    assert not implies(A, And(A, B))


def test_solvers_agree_with_truth_table():
    rng = random.Random(42)
    names = ["f1", "f2", "f3", "f4", "f5"]
    for _ in range(400):
        e = _random_fexp(rng, 5, names)
        assert sat(e) == _brute_sat(e)
        assert taut(e) == all(_table(e))
    for _ in range(200):
        e1 = _random_fexp(rng, 4, names)
        e2 = _random_fexp(rng, 4, names)
        assert equiv(e1, e2) == _brute_equiv(e1, e2)
        both = sorted(features_of(e1) | features_of(e2))
        rows1, rows2 = _table(e1, both), _table(e2, both)
        assert implies(e1, e2) == all(b for a, b in zip(rows1, rows2) if a)


def test_sat_on_formulas_over_eighteen_features():
    # more than 12 distinct features are decided on a decision diagram
    feats = [Feature(f"x{i}") for i in range(18)]
    assert sat(or_all(feats))
    assert not sat(And(and_all(feats), Not(feats[9])))
    assert taut(Or(or_all(feats), Not(feats[0])))
    chain = and_all(Or(feats[i], feats[i + 1]) for i in range(17))
    assert sat(chain)
    assert not sat(And(chain, and_all(Not(f) for f in feats)))


def _random_dag(rng: random.Random, depth: int, names: list[str], pool: list):
    """Like `_random_fexp`, but reusing earlier subterms and nesting `Not`s.

    `pool` holds (depth budget, subterm) pairs; a subterm is reused only
    where its budget fits, so sharing never deepens the tree.
    """
    fitting = [node for d, node in pool if d <= depth]
    if fitting and rng.random() < 0.15:
        return rng.choice(fitting)
    if depth == 0 or not names or rng.random() < 0.2:
        r = rng.random()
        if r < 0.1 or not names:
            return TRUE if r < 0.05 else FALSE
        node = Feature(rng.choice(names))
    else:
        kind = rng.choice(["not", "notnot", "and", "or"])
        if kind == "not":
            node = Not(_random_dag(rng, depth - 1, names, pool))
        elif kind == "notnot":
            node = Not(Not(_random_dag(rng, depth - 1, names, pool)))
        else:
            left = _random_dag(rng, depth - 1, names, pool)
            right = _random_dag(rng, depth - 1, names, pool)
            node = And(left, right) if kind == "and" else Or(left, right)
    pool.append((depth, node))
    return node


def _differential_cases(rng: random.Random):
    """Random formulas over 0..16 features, most of them over at most 8,
    because the reference table takes 2^n evaluations."""
    sizes = [rng.randint(0, 8) for _ in range(480)] + [9, 10, 11, 12] * 4 + [13, 14, 15, 16] * 2
    for n in sizes:
        names = [f"f{i:02d}" for i in range(n)]
        e = _random_dag(rng, 5, names, [])
        if n > 6 and rng.random() < 0.5:
            # now and then make every feature of the universe matter
            e = Or(e, and_all(Feature(f) if rng.random() < 0.5 else Not(Feature(f)) for f in names))
        yield names, e


def _reference_solutions(e, universe):
    return [c for c in all_configs(universe) if eval_fexp(e, c)]


def _depends(rows: tuple, step: int) -> bool:
    """Do the rows of `_table` differ across the variable at offset `step`?"""
    return any(rows[m] != rows[m | step] for m in range(len(rows)) if not m & step)


def test_truth_tables_agree_with_per_assignment_reference():
    rng = random.Random(2024)
    for names, e in _differential_cases(rng):
        support = sorted(features_of(e))
        n = len(support)
        rows = _table(e, support)
        assert sat(e) == any(rows), print_fexp(e)
        assert taut(e) == all(rows), print_fexp(e)
        other = _random_dag(rng, 3, support, [])
        assert equiv(e, other) == (rows == _table(other, support))
        assert implies(e, other) == all(b for a, b in zip(rows, _table(other, support)) if a)
        if n <= 12:
            s = simplify(e)
            assert _table(s, support) == rows, print_fexp(e)
            # `product` in `_table` puts support[0] in the highest bit
            relevant = {f for k, f in enumerate(support) if _depends(rows, 1 << (n - 1 - k))}
            assert features_of(s) == relevant, print_fexp(e)
            table = sum(1 << m for m, c in enumerate(all_configs(support)) if eval_fexp(e, c))
            assert from_table(support, table) == s
        if len(names) <= 10:
            larger = names + ["g1"]
            smaller = names[:]
            if smaller:
                smaller.remove(rng.choice(smaller))
            for universe in (larger, smaller):
                expected = _reference_solutions(e, universe)
                assert solutions(e, universe) == expected, print_fexp(e)
                assert witness(e, universe) == (expected[0] if expected else None)


def test_solutions_beyond_sixteen_features_go_blockwise():
    universe = [f"x{i:02d}" for i in range(17)]
    feats = [Feature(f) for f in universe]
    e = Or(And(feats[16], Not(feats[3])), And(feats[0], feats[15]))
    assert solutions(e, universe) == _reference_solutions(e, universe)
    everything = and_all(feats)
    assert solutions(everything, universe) == [frozenset(universe)]
    assert witness(everything, universe) == frozenset(universe)
    assert witness(And(everything, Not(feats[16])), universe) is None
    assert witness(Or(everything, Not(feats[16])), universe) == frozenset()


# Seeded and without an example database, so tier-1 runs repeat exactly.
_WIDE_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _wide_fexps(names: list[str]):
    """Unions of random cubes, one of them under a random formula: most
    of them depend on more than 12 of `names`."""
    fexps = st.recursive(
        st.one_of(st.just(TRUE), st.just(FALSE), st.builds(Feature, st.sampled_from(names))),
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)
        ),
        max_leaves=12,
    )
    literals = [x for f in names for x in (Feature(f), Not(Feature(f)))]
    cube = st.lists(st.sampled_from(literals), min_size=2, max_size=8).map(and_all)
    cubes = st.lists(cube, min_size=4, max_size=10).map(or_all)
    return st.builds(lambda e, c, d: Or(c, And(e, d)), fexps, cubes, cubes)


def _wide_case(n: int):
    names = [f"x{i:02d}" for i in range(n)]
    return st.tuples(st.just(names), _wide_fexps(names), _wide_fexps(names))


_WIDE_CASES = st.integers(13, 16).flatmap(_wide_case)


def _spine(e, kind) -> list:
    """The operands of a left-associated chain of `kind` nodes."""
    out = []
    while isinstance(e, kind):
        out.append(e.right)
        e = e.left
    return [e, *reversed(out)]


@_WIDE_SETTINGS
@given(_WIDE_CASES)
def test_universe_diagrams_agree_with_truth_tables(case):
    names, e1, e2 = case
    n, u = len(names), Universe(names)
    leaves = dict(zip(names, _masks(n)))
    a, b = u.of(e1), u.of(e2)
    ta, tb = _truth_table(e1, leaves, n), _truth_table(e2, leaves, n)
    for value, table in ((a, ta), (a & b, ta & tb), (a | b, ta | tb), (a & ~b, ta & ~tb)):
        assert bool(value) == bool(table)
        if table:
            assert u.lowest(value) == (table & -table).bit_length() - 1
        assert _truth_table(u.formula(value), leaves, n) == table
    assert (a == b) == (ta == tb)
    assert a & b == u.of(And(e1, e2)) and a | b == u.of(Or(e1, e2))
    assert ~(~a | ~b) == a & b and (a & ~a) == u.of(FALSE) and (a | ~a) == u.of(TRUE)


@_WIDE_SETTINGS
@given(_WIDE_CASES)
def test_wide_formulas_are_irredundant_or_canonical(case):
    names, e1, e2 = case
    n, u = len(names), Universe(names)
    leaves = dict(zip(names, _masks(n)))
    e = Or(And(e1, e2), And(Not(e1), Not(e2)))
    t = _truth_table(e, leaves, n)
    f = u.formula(u.of(e))
    assert _truth_table(f, leaves, n) == t
    if len(_drop_irrelevant(tuple(names), t)[0]) <= 12:
        assert f == _canonical(tuple(names), t)
        return
    # an irredundant sum of products: no term and no literal can go
    terms = [_spine(term, And) for term in _spine(f, Or)]
    cubes = [_truth_table(and_all(lits), leaves, n) for lits in terms]
    for i, lits in enumerate(terms):
        assert all(isinstance(x, (Feature, Not)) for x in lits)
        assert reduce(operator.or_, cubes[:i] + cubes[i + 1 :], 0) != t
        for k in range(len(lits)):
            assert _truth_table(and_all(lits[:k] + lits[k + 1 :]), leaves, n) & ~t
    assert f == simplify(e)


def test_variable_masks_match_their_definition():
    for n in range(17):
        masks = _masks(n)
        assert len(masks) == n
        for k, mask in enumerate(masks):
            expected = int("".join("1" if m >> k & 1 else "0" for m in reversed(range(1 << n))), 2)
            assert mask == expected, (n, k)


def test_sat_keeps_its_cache_interface():
    sat.cache_clear()
    sat(And(A, Not(B)))
    sat(And(A, Not(B)))
    info = sat.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def _primes_by_definition(table: int, n: int) -> list[tuple[int, int]]:
    """The maximal cubes inside the function, found by testing every cube.

    A cube is (values, dontcare_mask) with `values & dontcare_mask == 0`;
    its minterms are `values` plus every subset of the mask.
    """
    size = 1 << n
    base = [sum(1 << m for m in range(size) if not m & ~s) for s in range(size)]
    inside = {
        (v, s)
        for s in range(size)
        for v in range(size)
        if not v & s and not (base[s] << v) & ~table
    }
    return sorted(
        (v, s)
        for v, s in inside
        if not any((v & ~(1 << k), s | 1 << k) in inside for k in range(n) if not s >> k & 1)
    )


def test_primes_match_their_definition():
    rng = random.Random(1956)
    for n in range(9):
        full = (1 << (1 << n)) - 1
        tables = [0, full, 1 << rng.randrange(1 << n)]
        tables += [rng.getrandbits(1 << n) & rng.getrandbits(1 << n) for _ in range(3)]
        tables += [rng.getrandbits(1 << n) | rng.getrandbits(1 << n) for _ in range(3)]
        for table in tables:
            assert sorted(_primes(table, n)) == _primes_by_definition(table, n), (n, table)


def test_dense_ten_variable_function_canonicalizes():
    rng = random.Random(10)
    names = [f"d{k}" for k in range(10)]
    minterms = {m for m in range(1 << 10) if rng.random() < 0.5}
    e = from_table(names, sum(1 << m for m in minterms))
    assert features_of(e) == set(names)
    assert solutions(e, names) == [c for m, c in enumerate(all_configs(names)) if m in minterms]


def test_canonical_memo_keeps_its_cache_interface():
    _canonical.cache_clear()
    a = simplify(parse_fexp("a & b | a & !b"))
    b = from_table(["a", "b"], 0b1010)
    info = _canonical.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 1, 1, 65536)
    assert a is b and a == A


def _reference_canonical(names: tuple, table: int):
    """The minimal DNF by the letter of the construction: project, take all
    primes, cover, and order the terms by literal count and then literals."""
    if not table:
        return FALSE
    if table == (1 << (1 << len(names))) - 1:
        return TRUE
    names, table = _drop_irrelevant(names, table)
    n = len(names)
    terms = sorted(
        (
            tuple((i, v >> i & 1 ^ 1) for i in range(n) if not mask >> i & 1)
            for v, mask in _pick_cover(_primes(table, n), table)
        ),
        key=lambda lits: (len(lits), lits),
    )
    return or_all(
        and_all(Not(Feature(names[i])) if neg else Feature(names[i]) for i, neg in lits)
        for lits in terms
    )


def _shape(e) -> list:
    """The tree in preorder, walked without recursion: dense functions over
    12 features have minimal forms hundreds of terms deep."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(type(node).__name__)
        if isinstance(node, (BoolLit, Feature)):
            out.append(node.value if isinstance(node, BoolLit) else node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        else:
            stack += [node.right, node.left]
    return out


def _widened(table: int, names: tuple, wider: tuple) -> int:
    """`table` over `names` as a table over `wider`, a superset of them."""
    pos = [wider.index(f) for f in names]
    out = 0
    for m in range(1 << len(wider)):
        if table >> sum((m >> p & 1) << k for k, p in enumerate(pos)) & 1:
            out |= 1 << m
    return out


def _kernel_functions(rng: random.Random):
    """Seeded tables over 0..12 names: dense, sparse, single cubes and
    unions of cubes, each given over the names it depends on."""
    for n in range(13):
        names = tuple(f"k{i:02d}" for i in range(n))
        size = 1 << n
        for shape in range(4):
            if shape == 0:
                table = rng.getrandbits(size)
            elif shape == 1:
                table = 0
                for _ in range(rng.randint(1, 4)):
                    table |= 1 << rng.randrange(size)
            else:
                table = 0
                for _ in range(1 if shape == 2 else rng.randint(2, 5)):
                    care = sum(1 << i for i in range(n) if rng.random() < 0.6)
                    v = rng.getrandbits(n) & care
                    table |= sum(1 << m for m in range(size) if m & care == v)
            yield _drop_irrelevant(names, table)


def test_canonical_equals_reference_over_support_and_supersets():
    rng = random.Random(1956)
    pads = ("A0", "m0", "z0", "k05a")
    checked = 0
    for names, table in _kernel_functions(rng):
        expected = _shape(_reference_canonical(names, table))
        assert _shape(_canonical(names, table)) == expected
        for _ in range(2):
            wider = list(names)
            for pad in rng.sample(pads, min(len(pads), 12 - len(names), rng.randint(1, 3))):
                wider.insert(rng.randint(0, len(wider)), pad)
            wider = tuple(wider)
            assert _shape(_canonical(wider, _widened(table, names, wider))) == expected, wider
        checked += 1
    assert checked == 52


def test_function_under_two_name_tuples_is_minimized_once():
    _canonical.cache_clear()
    _minimal.cache_clear()
    # a | !b over (a, b), then over (a, b, c) and (_, a, b): one function
    first = from_table(["a", "b"], 0b1011)
    assert first == Or(A, Not(B))
    assert from_table(["a", "b", "c"], 0b10111011) is first
    assert from_table(["_", "a", "b"], 0b11001111) is first
    outer, inner = _canonical.cache_info(), _minimal.cache_info()
    assert (outer.misses, outer.currsize) == (3, 3)
    assert (inner.hits, inner.misses, inner.currsize) == (2, 1, 1)
    # a single cube prints as its minterm over the support
    assert print_fexp(from_table(["a", "b", "c"], 0b00100000)) == "a & !b & c"
    assert _minimal.cache_info().misses == 2


def test_printed_terms_share_their_literals():
    x = simplify(parse_fexp("a & !b | !a & b"))
    y = simplify(parse_fexp("!b & c"))
    assert print_fexp(x) == "a & !b | !a & b"
    assert x.left.right is y.left
    assert x.left.left is x.right.left.operand


# --- simplify ---


def test_simplify_constants_and_literal_elimination():
    assert simplify(parse_fexp("a & !a")) == FALSE
    assert simplify(parse_fexp("a | !a")) == TRUE
    assert simplify(parse_fexp("a & true")) == A
    assert simplify(parse_fexp("a | false")) == A
    assert simplify(parse_fexp("a & a")) == A
    assert simplify(parse_fexp("!!a")) == A
    assert simplify(TRUE) == TRUE
    assert simplify(FALSE) == FALSE


def test_simplify_frozen_outputs():
    # expected strings frozen from the canonical minimal-DNF construction
    cases = {
        "a & b | a & !b": "a",
        "(a | b) & (a | !b)": "a",
        "a & b | !a & b": "b",
        "a | a & b": "a",
        "!(!a & !b)": "a | b",
        "a & b | b & a": "a & b",
        "(a & b | c) & true": "c | a & b",
    }
    for text, expected in cases.items():
        assert print_fexp(simplify(parse_fexp(text))) == expected


def test_simplify_minterm_disjunction_collapses():
    universe = ["f1", "f2", "f3"]
    full = or_all(minterm(c, universe) for c in all_configs(universe))
    assert simplify(full) == TRUE
    half = or_all(minterm(c, universe) for c in all_configs(universe) if "f1" in c)
    assert simplify(half) == Feature("f1")


def test_simplify_properties_random():
    rng = random.Random(99)
    names = ["f1", "f2", "f3", "f4", "f5", "f6"]
    for _ in range(300):
        e = _random_fexp(rng, 5, names)
        s = simplify(e)
        assert _brute_equiv(e, s), (print_fexp(e), print_fexp(s))
        # no boolean literal survives inside a composite result
        if not isinstance(s, BoolLit):
            assert TRUE not in _subtrees(s) and FALSE not in _subtrees(s)
        # idempotent and deterministic
        assert simplify(s) == s
        assert simplify(e) == s
        # canonical: simplifying any reassociation prints identically
        assert print_fexp(simplify(Or(e, e))) == print_fexp(s)


def _random_literals(rng: random.Random, names: list[str], p: float) -> list:
    return [
        Feature(f) if rng.random() < 0.5 else Not(Feature(f))
        for f in names
        if rng.random() < p
    ]


def _golden_formulas():
    """The seeded corpus of `fixtures/canonical_golden.txt`, over 0..12 features.

    Four shapes in turn: random formulas with shared subterms, unions of
    random cubes, disjunctions of random minterms over at most 6 features
    (dense ones too), and conjunctions of random clauses over at most 9.
    """
    rng = random.Random(1956)
    for i in range(520):
        names = [f"g{k:02d}" for k in range(i % 13)]
        shape = i // 13 % 4
        if shape == 0:
            yield _random_dag(rng, 5, names, [])
        elif shape == 1:
            cubes = [_random_literals(rng, names, 0.5) for _ in range(rng.randint(1, 10))]
            yield or_all(and_all(c) for c in cubes)
        elif shape == 2:
            universe = names[:6]
            density = rng.random()
            chosen = [c for c in all_configs(universe) if rng.random() < density]
            yield or_all(minterm(c, universe) for c in chosen)
        else:
            clauses = [_random_literals(rng, names[:9], 0.4) for _ in range(rng.randint(1, 8))]
            yield and_all(or_all(c) for c in clauses)


def test_simplify_matches_golden_corpus():
    """Canonical forms are pinned byte for byte, so that a change to the
    prime or cover computation cannot reorder or swap a printed term."""
    lines = (_FIXTURES / "canonical_golden.txt").read_text().splitlines()
    formulas = list(_golden_formulas())
    assert len(lines) == len(formulas) >= 500
    for e, line in zip(formulas, lines):
        text, expected = line.split("\t")
        assert print_fexp(e) == text
        assert print_fexp(simplify(e)) == expected, text


def _subtrees(e):
    out = [e]
    if isinstance(e, Not):
        out += _subtrees(e.operand)
    elif isinstance(e, (And, Or)):
        out += _subtrees(e.left) + _subtrees(e.right)
    return out


def test_simplify_canonical_for_equivalent_inputs():
    pairs = [
        ("a & (b | c)", "a & b | a & c"),
        ("!(a | b)", "!a & !b"),
        ("a & b & c | a & b & !c", "a & b"),
        ("(a | b) & (c | a)", "a | b & c"),
    ]
    for t1, t2 in pairs:
        assert simplify(parse_fexp(t1)) == simplify(parse_fexp(t2))


def test_simplify_large_formula_fallback():
    feats = [Feature(f"y{i}") for i in range(14)]
    s = simplify(And(or_all(feats), TRUE))
    assert _brute_equiv(s, or_all(feats))
    assert simplify(And(and_all(feats), FALSE)) == FALSE
    contradiction = And(and_all(feats), Not(feats[3]))
    assert simplify(contradiction) == FALSE
    tautology = Or(or_all(feats), Not(feats[2]))
    assert simplify(tautology) == TRUE


# --- configurations ---


def test_minterm_construction():
    m = minterm({"f2"}, ["f1", "f2", "f3"])
    assert print_fexp(m) == "!f1 & f2 & !f3"
    assert eval_fexp(m, {"f2"})
    assert not eval_fexp(m, {"f1", "f2"})
    assert minterm(set(), []) == TRUE


def test_all_configs_order_and_count():
    configs = list(all_configs(["f2", "f1"]))
    assert len(configs) == 4
    assert configs[0] == frozenset()
    assert configs[1] == frozenset({"f1"})
    assert configs[2] == frozenset({"f2"})
    assert configs[3] == frozenset({"f1", "f2"})
