"""Propositional feature expressions.

Every annotation in the system -- on schema elements, tuples, set elements,
query nodes -- is a propositional formula over feature names.  This module
owns the formula AST, the concrete syntax (`parse_fexp` / `print_fexp`), the
decision procedures (`sat`, `taut`, `equiv`, `implies`), a canonicalizing
`simplify` used to keep printed annotations small and stable, and the
presence algebra (`Universe`) in which typing and grouping combine and
decide conditions.

Solving strategy: a formula mentioning at most 16 features is decided from
its truth table, computed in one walk of the formula as a Python int with
bit m set iff the formula holds at minterm m (features are precomputed
variable masks; And/Or/Not are `&`/`|`/complement).  Larger formulas go
through a Tseitin transform and a small DPLL solver.  For formulas of at
most 12 features `simplify` works on that table alone and memoizes its
result per (features, table).  It projects away the variables the function
does not depend on and memoizes once more on that projected function, so
grouping, typing and `simplify`, whose feature tuples differ, minimize a
shared function once.  A projected function with one minterm is a single
cube and prints as that minterm.  Otherwise the prime implicants come from
cofactor masks (the table of the cubes with one more don't-care variable
is the previous table ANDed with itself shifted), and the table is covered
with essential primes and then a greedy choice with deterministic
tie-breaking, each prime's minterms being a table too.  The result is the
minimal disjunctive normal form Quine-McCluskey gives with that cover rule
(McCluskey 1956); its terms share one `Feature` and one `Not` node per
feature.  Beyond 12 features it falls back to structural cleanup plus a
constant-collapse check.  The canonical form is what lets two different
pipelines print byte-identical annotations for equivalent conditions.

A `Universe` holds its conditions as truth tables over its features where
it has at most 12, so that they print canonically straight from the table
through the same memo, and as formulas decided by `sat` above that.  The
same tables enumerate a formula's satisfying configurations (`solutions`,
`witness`) without evaluating the formula once per configuration.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class FeatExpr:
    """Base class for feature-expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolLit(FeatExpr):
    value: bool


@dataclass(frozen=True)
class Feature(FeatExpr):
    name: str


@dataclass(frozen=True)
class Not(FeatExpr):
    operand: FeatExpr


@dataclass(frozen=True)
class And(FeatExpr):
    left: FeatExpr
    right: FeatExpr


@dataclass(frozen=True)
class Or(FeatExpr):
    left: FeatExpr
    right: FeatExpr


TRUE = BoolLit(True)
FALSE = BoolLit(False)

#: A configuration is the set of enabled feature names.
Configuration = frozenset


def and_all(parts: Iterable[FeatExpr]) -> FeatExpr:
    """Left-associated conjunction; empty input gives true."""
    out: FeatExpr | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TRUE if out is None else out


def or_all(parts: Iterable[FeatExpr]) -> FeatExpr:
    """Left-associated disjunction; empty input gives false."""
    out: FeatExpr | None = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return FALSE if out is None else out


def conj(p: FeatExpr, q: FeatExpr) -> FeatExpr:
    """Conjunction folding literals and equal operands, rewriting nothing else."""
    if p == TRUE or p == q:
        return q
    if q == TRUE:
        return p
    if p == FALSE or q == FALSE:
        return FALSE
    return And(p, q)


def disj(p: FeatExpr, q: FeatExpr) -> FeatExpr:
    """Disjunction folding literals and equal operands, rewriting nothing else."""
    if p == FALSE or p == q:
        return q
    if q == FALSE:
        return p
    if p == TRUE or q == TRUE:
        return TRUE
    return Or(p, q)


def features_of(e: FeatExpr) -> frozenset[str]:
    """The set of feature names occurring in the formula."""
    names: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Feature:
            names.add(node.name)
        elif kind is Not:
            stack.append(node.operand)
        elif kind is And or kind is Or:
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(names)


def eval_fexp(e: FeatExpr, config: Iterable[str]) -> bool:
    """Evaluate under a configuration (the collection of enabled features)."""
    enabled = config if isinstance(config, (set, frozenset)) else frozenset(config)
    return _eval(e, enabled)


def _eval(e: FeatExpr, enabled) -> bool:
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Feature):
        return e.name in enabled
    if isinstance(e, Not):
        return not _eval(e.operand, enabled)
    if isinstance(e, And):
        return _eval(e.left, enabled) and _eval(e.right, enabled)
    if isinstance(e, Or):
        return _eval(e.left, enabled) or _eval(e.right, enabled)
    raise TypeError(f"not a feature expression: {e!r}")


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------
#
#   fexp  ::= fexp "|" fexp  |  fexp "&" fexp  |  "!" fexp
#          |  "(" fexp ")"  |  IDENT  |  "true"  |  "false"
#
# with precedence ! > & > | and left associativity.


class ParseError(ValueError):
    """Syntax error with the character offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WS = " \t\r\n"


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in _WS:
        i += 1
    return i


def parse_fexp(text: str) -> FeatExpr:
    expr, i = parse_fexp_partial(text, 0)
    i = _skip_ws(text, i)
    if i != len(text):
        raise ParseError("unexpected trailing input", i)
    return expr


def parse_fexp_partial(text: str, start: int = 0) -> tuple[FeatExpr, int]:
    """Parse the longest feature expression starting at `start`.

    Returns the expression and the offset just past it, so the grammar can be
    embedded inside other syntaxes (attribute lists, schema files, queries).
    """
    return _parse_or(text, start)


def _parse_or(text: str, i: int) -> tuple[FeatExpr, int]:
    left, i = _parse_and(text, i)
    while True:
        j = _skip_ws(text, i)
        if j < len(text) and text[j] == "|":
            right, i = _parse_and(text, j + 1)
            left = Or(left, right)
        else:
            return left, i


def _parse_and(text: str, i: int) -> tuple[FeatExpr, int]:
    left, i = _parse_unary(text, i)
    while True:
        j = _skip_ws(text, i)
        if j < len(text) and text[j] == "&":
            right, i = _parse_unary(text, j + 1)
            left = And(left, right)
        else:
            return left, i


def _parse_unary(text: str, i: int) -> tuple[FeatExpr, int]:
    i = _skip_ws(text, i)
    if i >= len(text):
        raise ParseError("expected a feature expression", i)
    ch = text[i]
    if ch == "!":
        operand, i = _parse_unary(text, i + 1)
        return Not(operand), i
    if ch == "(":
        expr, i = _parse_or(text, i + 1)
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != ")":
            raise ParseError("expected ')'", i)
        return expr, i + 1
    m = _IDENT.match(text, i)
    if m is None:
        raise ParseError(f"unexpected character {ch!r}", i)
    word = m.group()
    if word == "true":
        return TRUE, m.end()
    if word == "false":
        return FALSE, m.end()
    return Feature(word), m.end()


def print_fexp(e: FeatExpr) -> str:
    """Render with the minimal parentheses that re-parse to the same tree."""
    return _render(e, 1)


# Operator precedence levels used by the renderer; atoms bind tightest.
_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4


def _render(e: FeatExpr, need: int) -> str:
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Feature):
        return e.name
    if isinstance(e, Not):
        s, prec = "!" + _render(e.operand, _PREC_NOT), _PREC_NOT
    elif isinstance(e, And):
        s = _render(e.left, _PREC_AND) + " & " + _render(e.right, _PREC_AND + 1)
        prec = _PREC_AND
    elif isinstance(e, Or):
        s = _render(e.left, _PREC_OR) + " | " + _render(e.right, _PREC_OR + 1)
        prec = _PREC_OR
    else:
        raise TypeError(f"not a feature expression: {e!r}")
    return "(" + s + ")" if prec < need else s


# ---------------------------------------------------------------------------
# Decision procedures
# ---------------------------------------------------------------------------

_ENUM_LIMIT = 16  # below this, truth tables beat the DPLL setup cost


def _var_mask(k: int, n: int) -> int:
    """Bit m set iff bit k of m is set, for 0 <= m < 2^n, built by doubling."""
    width = 1 << k
    mask = ((1 << width) - 1) << width
    width <<= 1
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=_ENUM_LIMIT + 1)
def _masks(n: int) -> tuple[int, ...]:
    """The variable masks of `_var_mask` for every k < n."""
    return tuple(_var_mask(k, n) for k in range(n))


def _truth_table(e: FeatExpr, leaves: dict[str, int], n: int) -> int:
    """Evaluate `e` at all 2^n minterms in one walk.

    `leaves` maps a feature to its own table: a variable mask, or 0 or all
    ones for a feature fixed to disabled or enabled.  Bit m of the result
    is set iff `e` holds at minterm m.  A feature missing from `leaves`
    counts as disabled, as in `eval_fexp`.
    """
    full = (1 << (1 << n)) - 1

    def walk(node: FeatExpr) -> int:
        kind = type(node)
        if kind is Feature:
            return leaves.get(node.name, 0)
        if kind is And:
            t = walk(node.left)
            return t & walk(node.right) if t else 0
        if kind is Or:
            t = walk(node.left)
            return t | walk(node.right) if t != full else full
        if kind is Not:
            return walk(node.operand) ^ full
        if kind is BoolLit:
            return full if node.value else 0
        raise TypeError(f"not a feature expression: {node!r}")

    return walk(e)


def _table_over(e: FeatExpr, names: list[str]) -> int:
    """The truth table of `e` with bit k of a minterm standing for `names[k]`.

    Bit order is that of `all_configs` over sorted `names` (at most 16).
    """
    return _truth_table(e, dict(zip(names, _masks(len(names)))), len(names))


def _bits(t: int) -> Iterator[int]:
    """The positions of the set bits of `t`, ascending."""
    s = bin(t)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def _config(names: list[str], m: int) -> Configuration:
    return frozenset(names[k] for k in range(len(names)) if m >> k & 1)


@lru_cache(maxsize=65536)
def sat(e: FeatExpr) -> bool:
    """Is the formula satisfiable by some configuration of its own features?"""
    names = sorted(features_of(e))
    if len(names) <= _ENUM_LIMIT:
        return _table_over(e, names) != 0
    return _dpll(_tseitin(e))


def solutions(e: FeatExpr, universe: Iterable[str]) -> list[Configuration]:
    """`[c for c in all_configs(universe) if eval_fexp(e, c)]`, from truth tables.

    Beyond 16 names the table is taken in blocks of 2^16 minterms, one for
    each assignment to the names above the 16th, so memory stays bounded.
    """
    names = sorted(universe)
    low, high = names[:_ENUM_LIMIT], names[_ENUM_LIMIT:]
    leaves, full = dict(zip(low, _masks(len(low)))), (1 << (1 << len(low))) - 1
    out = []
    for h in range(1 << len(high)):
        leaves.update((f, full if h >> j & 1 else 0) for j, f in enumerate(high))
        t = _truth_table(e, leaves, len(low))
        out += [_config(names, h << len(low) | m) for m in _bits(t)]
    return out


def witness(e: FeatExpr, universe: Iterable[str]) -> Configuration | None:
    """The first of `solutions(e, universe)`, or None if there is none.

    Decided over the formula's own features within `universe`: the first
    solution in `all_configs` order has every other feature disabled.
    Beyond 16 of them, each one above the 16th, highest first, is disabled
    where `sat` allows, and the table over the lowest 16 gives the rest.
    """
    names = sorted(features_of(e) & frozenset(universe))
    low, high = names[:_ENUM_LIMIT], names[_ENUM_LIMIT:]
    leaves, full = dict(zip(low, _masks(len(low)))), (1 << (1 << len(low))) - 1
    e = and_all([e, *(Not(Feature(f)) for f in features_of(e) - set(names))])
    for f in reversed(high):
        off = conj(e, Not(Feature(f)))
        e, leaves[f] = (off, 0) if sat(off) else (conj(e, Feature(f)), full)
    t = _truth_table(e, leaves, len(low))
    if not t:
        return None
    return _config(low, (t & -t).bit_length() - 1) | {f for f in high if leaves[f]}


def taut(e: FeatExpr) -> bool:
    return not sat(Not(e))


def implies(e1: FeatExpr, e2: FeatExpr) -> bool:
    return taut(Or(Not(e1), e2))


def equiv(e1: FeatExpr, e2: FeatExpr) -> bool:
    return taut(Or(And(e1, e2), And(Not(e1), Not(e2))))


def _tseitin(e: FeatExpr) -> list[list[int]]:
    """Equisatisfiable CNF over integer literals (one aux var per gate)."""
    clauses: list[list[int]] = []
    feature_ids: dict[str, int] = {}
    counter = itertools.count(1)

    def fid(name: str) -> int:
        if name not in feature_ids:
            feature_ids[name] = next(counter)
        return feature_ids[name]

    def walk(node: FeatExpr) -> int:
        if isinstance(node, Feature):
            return fid(node.name)
        if isinstance(node, BoolLit):
            v = next(counter)
            clauses.append([v] if node.value else [-v])
            return v
        if isinstance(node, Not):
            return -walk(node.operand)
        a = walk(node.left)
        b = walk(node.right)
        v = next(counter)
        if isinstance(node, And):
            clauses.extend([[-v, a], [-v, b], [v, -a, -b]])
        else:
            clauses.extend([[-v, a, b], [v, -a], [v, -b]])
        return v

    clauses.append([walk(e)])
    return clauses


def _dpll(clauses: list[list[int]]) -> bool:
    # unit propagation
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        reduced = []
        for c in clauses:
            if unit in c:
                continue
            if -unit in c:
                rest = [x for x in c if x != -unit]
                if not rest:
                    return False
                reduced.append(rest)
            else:
                reduced.append(c)
        clauses = reduced
    if not clauses:
        return True
    v = abs(clauses[0][0])
    return _dpll(clauses + [[v]]) or _dpll(clauses + [[-v]])


# ---------------------------------------------------------------------------
# Canonical simplification
# ---------------------------------------------------------------------------

_QM_LIMIT = 12  # truth-table size cap for the canonical path


def simplify(e: FeatExpr) -> FeatExpr:
    """Canonical minimal disjunctive normal form (small formulas).

    Guarantees: the result is equivalent to the input; a constant formula
    becomes a bare `true`/`false`; composite results contain no boolean
    literals; the result only mentions features the input semantically
    depends on; equivalent inputs yield the identical tree; and the function
    is idempotent.  Formulas over more than 12 features get a cheaper
    structural cleanup that still folds constants and collapses
    unsatisfiable/tautological formulas.
    """
    names = sorted(features_of(e))
    if len(names) > _QM_LIMIT:
        return _simplify_structural(e)
    return _canonical(tuple(names), _table_over(e, names))


def from_table(names: list[str], table: int) -> FeatExpr:
    """The canonical formula whose truth table over sorted `names` is `table`.

    Bit m of the table is minterm m, bit k of m standing for `names[k]` as
    in `all_configs`.  Up to 12 names this is `simplify` of the minterms'
    disjunction; above that, the disjunction itself in ascending order
    unless it is constant.
    """
    if len(names) > _QM_LIMIT and 0 < table < (1 << (1 << len(names))) - 1:
        return or_all(minterm(_config(names, m), names) for m in _bits(table))
    return _canonical(tuple(names), table)


@lru_cache(maxsize=65536)
def _canonical(names: tuple[str, ...], table: int) -> FeatExpr:
    """Minimal DNF of the function whose truth table over `names` is `table`.

    At most 12 names.  The table alone identifies the function, so it keys
    the memo; the minimal form itself is memoized once more on the
    projected function, which other name tuples reach too.
    """
    if not table:
        return FALSE
    if table == (1 << (1 << len(names))) - 1:
        return TRUE
    return _minimal(*_drop_irrelevant(names, table))


@lru_cache(maxsize=65536)
def _minimal(names: tuple[str, ...], table: int) -> FeatExpr:
    """Minimal DNF of a function that depends on every one of `names`.

    Such a function is a single cube only if it is a single minterm, and
    Quine-McCluskey returns that minterm as its one term.
    """
    if not table & (table - 1):
        return _term(names, table.bit_length() - 1, 0)
    n = len(names)
    chosen = _pick_cover(_primes(table, n), table)
    terms = sorted(chosen, key=lambda p: _term_key(p[0], p[1], n))
    return or_all(_term(names, v, mask) for v, mask in terms)


def _drop_irrelevant(names: tuple[str, ...], table: int) -> tuple[tuple[str, ...], int]:
    """Project away variables whose value never changes membership.

    Variable i is irrelevant iff the table's two cofactors on it agree; the
    low cofactor, with its gaps squeezed out, is then the table over the
    other variables.  Going from the top down leaves the indices of the
    variables still to be tested unchanged.
    """
    for i in range(len(names) - 1, -1, -1):
        n = len(names)
        full, masks = (1 << (1 << n)) - 1, _masks(n)
        low = table & (masks[i] ^ full)
        if (table >> (1 << i)) & (masks[i] ^ full) != low:
            continue
        for j in range(i, n - 1):
            low = (low | low >> (1 << j)) & (masks[j + 1] ^ full)
        names, table = names[:i] + names[i + 1 :], low
    return names, table


def _primes(table: int, n: int) -> list[tuple[int, int]]:
    """The prime implicants of a truth table over n variables.

    Implicants are (values, dontcare_mask) pairs with don't-care bits zeroed
    in `values`.  `cubes[S]` has bit v set iff the cube through v with
    don't-care set S lies inside the function.  For k not in S, the cube
    through v with k a don't-care too is the union of those through v and
    v + 2^k, so `cubes[S | 2^k]` is `cubes[S]` ANDed with itself shifted
    down by 2^k, at the v whose bit k is clear.  Each S is built from S
    minus its highest variable, and an empty table ends the branch.  An
    implicant is prime iff no cube with one more don't-care contains it.
    """
    full, masks = (1 << (1 << n)) - 1, _masks(n)
    cubes = {0: table}
    order = [0]
    for s in order:
        t = cubes[s]
        for k in range(s.bit_length(), n):
            u = t & (t >> (1 << k)) & (masks[k] ^ full)
            if u:
                cubes[s | 1 << k] = u
                order.append(s | 1 << k)
    primes = []
    for s, t in cubes.items():
        for k in range(n):
            wider = 0 if s >> k & 1 else cubes.get(s | 1 << k, 0)
            t &= ~(wider | wider << (1 << k))
        primes.extend((v, s) for v in _bits(t))
    return primes


def _pick_cover(primes: list[tuple[int, int]], table: int) -> list[tuple[int, int]]:
    """Essential primes first, then a deterministic greedy set cover.

    Each prime's minterms form a table too.  A minterm covered once but not
    twice makes its prime essential; the greedy step takes the prime that
    covers the most remaining minterms, then the widest, then the least.
    """
    cubes = []
    for v, mask in primes:
        c = 1 << v
        for k in _bits(mask):
            c |= c << (1 << k)
        cubes.append(c)
    once = twice = 0
    for c in cubes:
        twice |= once & c
        once |= c
    single = once & ~twice
    chosen, remaining = [], table
    for p, c in zip(primes, cubes):
        if c & single:
            chosen.append(p)
            remaining &= ~c
    candidates = [(p, c) for p, c in zip(primes, cubes) if c & remaining]
    while remaining:
        best, c = min(
            candidates,
            key=lambda pc: (-(pc[1] & remaining).bit_count(), -pc[0][1].bit_count(), pc[0]),
        )
        chosen.append(best)
        remaining &= ~c
        candidates = [pc for pc in candidates if pc[1] & remaining]
    return chosen


def _term_key(v: int, mask: int, n: int) -> tuple:
    """Sort key for a product term: fewest literals first, then by literals."""
    lits = tuple((i, (v >> i) & 1 ^ 1) for i in range(n) if not mask >> i & 1)
    return (len(lits), lits)


@lru_cache(maxsize=None)
def _literals(name: str) -> tuple[FeatExpr, FeatExpr]:
    """`Not(Feature(name))` and `Feature(name)`: one pair per feature name,
    shared by every printed term."""
    f = Feature(name)
    return Not(f), f


def _term(names: tuple[str, ...], v: int, mask: int) -> FeatExpr:
    """The conjunction of the literals of cube (v, mask), in name order."""
    out: FeatExpr | None = None
    for i, name in enumerate(names):
        if not mask >> i & 1:
            lit = _literals(name)[v >> i & 1]
            out = lit if out is None else And(out, lit)
    return out


def _simplify_structural(e: FeatExpr) -> FeatExpr:
    e = _clean(e)
    if isinstance(e, BoolLit):
        return e
    if not sat(e):
        return FALSE
    if not sat(Not(e)):
        return TRUE
    return e


def _clean(e: FeatExpr) -> FeatExpr:
    """Bottom-up constant folding, double-negation and duplicate removal."""
    if isinstance(e, Not):
        op = _clean(e.operand)
        if isinstance(op, BoolLit):
            return FALSE if op.value else TRUE
        if isinstance(op, Not):
            return op.operand
        return Not(op)
    if isinstance(e, And):
        l, r = _clean(e.left), _clean(e.right)
        if l == FALSE or r == FALSE:
            return FALSE
        if l == TRUE:
            return r
        if r == TRUE:
            return l
        return l if l == r else And(l, r)
    if isinstance(e, Or):
        l, r = _clean(e.left), _clean(e.right)
        if l == TRUE or r == TRUE:
            return TRUE
        if l == FALSE:
            return r
        if r == FALSE:
            return l
        return l if l == r else Or(l, r)
    return e


# ---------------------------------------------------------------------------
# Presence algebra
# ---------------------------------------------------------------------------


class _Formula:
    """A condition of a `Universe` above 12 features: the formula, combined
    by the operators of a truth table and decided by `sat`."""

    __slots__ = ("e",)

    def __init__(self, e: FeatExpr):
        self.e = e

    def __and__(self, other: _Formula) -> _Formula:
        return _Formula(conj(self.e, other.e))

    def __or__(self, other: _Formula) -> _Formula:
        return _Formula(disj(self.e, other.e))

    def __invert__(self) -> _Formula:
        return _Formula(Not(self.e))

    def __bool__(self) -> bool:
        return sat(self.e)

    def __eq__(self, other) -> bool:
        return equiv(self.e, other.e)


#: A condition of a `Universe`.  Only ``&``, ``|``, ``& ~x``, ``==`` and
#: truth are used, and ``~x`` only as the right operand of ``&``.
Table = int | _Formula


class Universe:
    """The presence conditions over sorted feature `names`, which are the
    only features they mention.

    Up to 12 names a condition is its truth table over them (bit m is
    minterm m, bit k of m standing for `names[k]`, as in `all_configs`),
    walked once from its formula and printed canonically from the table.
    Above 12 names it is a `_Formula`, printed by `simplify`.  Either way
    every decision is exact.
    """

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self.tables = len(self.names) <= _QM_LIMIT
        self._leaves = dict(zip(self.names, _masks(len(self.names)) if self.tables else ()))

    def of(self, e: FeatExpr) -> Table:
        return _truth_table(e, self._leaves, len(self.names)) if self.tables else _Formula(e)

    def formula(self, t: Table) -> FeatExpr:
        """The canonical form of `t` (above 12 features, `simplify`'s)."""
        return _canonical(self.names, t) if self.tables else simplify(t.e)

    def expr(self, t: Table) -> FeatExpr:
        """A formula of `t`: canonical up to 12 features, else as built."""
        return _canonical(self.names, t) if self.tables else t.e

    def lowest(self, t: Table) -> int:
        """The least minterm of a satisfiable `t`: where enumerating the
        configurations in `all_configs` order first meets it."""
        if self.tables:
            return (t & -t).bit_length() - 1
        c = witness(t.e, self.names)
        return sum(1 << k for k, f in enumerate(self.names) if f in c)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def minterm(config: Iterable[str], universe: Iterable[str]) -> FeatExpr:
    """The conjunction pinning every feature of `universe` to its state."""
    enabled = frozenset(config)
    return and_all(
        Feature(f) if f in enabled else Not(Feature(f)) for f in sorted(universe)
    )


def all_configs(universe: Iterable[str]) -> Iterator[Configuration]:
    """All configurations over `universe`, in binary counting order."""
    names = sorted(universe)
    for bits in range(1 << len(names)):
        yield _config(names, bits)
