"""Propositional feature expressions.

Every annotation in the system -- on schema elements, tuples, set elements,
query nodes -- is a propositional formula over feature names.  This module
owns the formula AST, the concrete syntax (`parse_fexp` / `print_fexp`), the
decision procedures (`sat`, `taut`, `equiv`, `implies`), a canonicalizing
`simplify` used to keep printed annotations small and stable, and the
presence algebra (`Universe`) in which typing and grouping combine and
decide conditions.

Solving strategy: every decision goes through a `Universe` over the
formula's own features.  Up to 12 features a condition is its truth table,
computed in one walk of the formula as a Python int with bit m set iff the
formula holds at minterm m (features are precomputed variable masks;
And/Or/Not are `&`/`|`/complement).  Above 12 it is a node of a reduced
ordered binary decision diagram (Bryant 1986) built by a memoized
if-then-else, so satisfiability and equivalence are node tests at every
width.  `simplify` prints a function canonically from its table.  It
projects away the variables the function does not depend on and memoizes
once more on that projected function, so grouping, typing and `simplify`,
whose feature tuples differ, minimize a shared function once.  A projected
function with one minterm is a single cube and prints as that minterm.
Otherwise the prime implicants come from cofactor masks (the table of the
cubes with one more don't-care variable is the previous table ANDed with
itself shifted), and the table is covered with essential primes and then a
greedy choice with deterministic tie-breaking, each prime's minterms being
a table too.  The result is the minimal disjunctive normal form
Quine-McCluskey gives with that cover rule (McCluskey 1956); its terms
share one `Feature` and one `Not` node per feature.  A diagram whose
function depends on at most 12 features prints the same way, from the
table read off the diagram; a wider one prints as its irredundant sum of
products (Minato 1992).  The canonical form is what lets two different
pipelines print byte-identical annotations for equivalent conditions.

The same tables enumerate a formula's satisfying configurations
(`solutions`) without evaluating the formula once per configuration, and
`witness` is the least minterm of the formula's `Universe` value.
"""

from __future__ import annotations

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

_TABLE_LIMIT = 12  # the widest `Universe` whose conditions are truth tables


def _var_mask(k: int, n: int) -> int:
    """Bit m set iff bit k of m is set, for 0 <= m < 2^n, built by doubling."""
    width = 1 << k
    mask = ((1 << width) - 1) << width
    width <<= 1
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=_TABLE_LIMIT + 1)
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
    return bool(Universe(sorted(features_of(e))).of(e))


def solutions(e: FeatExpr, universe: Iterable[str]) -> list[Configuration]:
    """`[c for c in all_configs(universe) if eval_fexp(e, c)]`, from truth tables.

    Beyond 12 names the table is taken in blocks of 2^12 minterms, one for
    each assignment to the names above the 12th, so memory stays bounded.
    """
    names = sorted(universe)
    low, high = names[:_TABLE_LIMIT], names[_TABLE_LIMIT:]
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
    """
    names = sorted(features_of(e) & frozenset(universe))
    u = Universe(names)
    t = u.of(e)
    return _config(names, u.lowest(t)) if t else None


def taut(e: FeatExpr) -> bool:
    return not sat(Not(e))


def implies(e1: FeatExpr, e2: FeatExpr) -> bool:
    return taut(Or(Not(e1), e2))


def equiv(e1: FeatExpr, e2: FeatExpr) -> bool:
    return taut(Or(And(e1, e2), And(Not(e1), Not(e2))))


# ---------------------------------------------------------------------------
# Canonical simplification
# ---------------------------------------------------------------------------

def simplify(e: FeatExpr) -> FeatExpr:
    """Canonical disjunctive normal form.

    Guarantees: the result is equivalent to the input; a constant formula
    becomes a bare `true`/`false`; composite results contain no boolean
    literals; the result only mentions features the input semantically
    depends on; equivalent inputs yield the identical tree; and the function
    is idempotent.  It is the minimal form Quine-McCluskey gives where the
    function depends on at most 12 features, and an irredundant sum of
    products beyond.
    """
    u = Universe(sorted(features_of(e)))
    return u.formula(u.of(e))


def from_table(names: list[str], table: int) -> FeatExpr:
    """The canonical formula whose truth table over sorted `names` is `table`.

    Bit m of the table is minterm m, bit k of m standing for `names[k]` as
    in `all_configs`.  Up to 12 names this is `simplify` of the minterms'
    disjunction; above that, the disjunction itself in ascending order
    unless it is constant.
    """
    if len(names) > _TABLE_LIMIT and 0 < table < (1 << (1 << len(names))) - 1:
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


# ---------------------------------------------------------------------------
# Presence algebra
# ---------------------------------------------------------------------------


class _BDD:
    """A reduced ordered binary decision diagram over variables 0 .. n-1,
    higher variables nearer the root (Bryant 1986).  Node 0 is false, node
    1 true, and node i > 1 is `nodes[i] = (k, lo, hi)`: `hi` where variable
    k holds and `lo` where it does not.  The unique table keeps one node
    per triple, so equal functions are equal nodes."""

    def __init__(self):
        self.nodes = [(-1, 0, 0), (-1, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite: dict[tuple[int, int, int], int] = {}
        self._isop: dict[tuple[int, int], tuple[tuple, int]] = {}

    def node(self, k: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (k, lo, hi)
        i = self._unique.get(key)
        if i is None:
            i = self._unique[key] = len(self.nodes)
            self.nodes.append(key)
        return i

    def ite(self, f: int, g: int, h: int) -> int:
        """The node that is `g` where `f` holds and `h` elsewhere."""
        if f < 2:
            return g if f else h
        if g == f:
            g = 1
        if h == f:
            h = 0
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        out = self._ite.get(key)
        if out is None:
            k = max(self.nodes[f][0], self.nodes[g][0], self.nodes[h][0])
            (f0, f1), (g0, g1), (h0, h1) = self._split(f, k), self._split(g, k), self._split(h, k)
            out = self._ite[key] = self.node(k, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        return out

    def _split(self, f: int, k: int) -> tuple[int, int]:
        """`f` where variable k is off and where it is on."""
        kf, lo, hi = self.nodes[f]
        return (lo, hi) if kf == k else (f, f)

    def of(self, e: FeatExpr, leaves: dict[str, int]) -> int:
        """The node of `e`, walked as `_truth_table` walks it."""
        kind = type(e)
        if kind is Feature:
            return leaves.get(e.name, 0)
        if kind is And:
            f = self.of(e.left, leaves)
            return self.ite(f, self.of(e.right, leaves), 0) if f else 0
        if kind is Or:
            f = self.of(e.left, leaves)
            return self.ite(f, 1, self.of(e.right, leaves)) if f != 1 else 1
        if kind is Not:
            return self.ite(self.of(e.operand, leaves), 0, 1)
        if kind is BoolLit:
            return int(e.value)
        raise TypeError(f"not a feature expression: {e!r}")

    def isop(self, lo: int, up: int) -> tuple[tuple, int]:
        """An irredundant sum of products of a function between `lo` and
        `up` (Minato 1992): its cubes as (values, variables cared for), and
        its node.  Cubes without variable k cover what both cofactors on it
        share; the others carry k's literal."""
        if not lo:
            return (), 0
        if up == 1:
            return ((0, 0),), 1
        key = (lo, up)
        if key not in self._isop:
            k = max(self.nodes[lo][0], self.nodes[up][0])
            (l0, l1), (u0, u1) = self._split(lo, k), self._split(up, k)
            c0, r0 = self.isop(self.ite(u1, 0, l0), u0)
            c1, r1 = self.isop(self.ite(u0, 0, l1), u1)
            rest = self.ite(self.ite(r0, 0, l0), 1, self.ite(r1, 0, l1))
            cd, rd = self.isop(rest, self.ite(u0, u1, 0))
            bit = 1 << k
            cubes = (*((v, c | bit) for v, c in c0), *((v | bit, c | bit) for v, c in c1), *cd)
            self._isop[key] = cubes, self.ite(self.node(k, r0, r1), 1, rd)
        return self._isop[key]

    def formula(self, f: int, names: tuple[str, ...]) -> FeatExpr:
        """The canonical form of node `f`, variable k standing for
        `names[k]`: `_canonical`'s, from the table read off the diagram,
        where `f` depends on at most 12 variables, else its irredundant sum
        of products, terms in `_term_key` order."""
        seen, todo = set(), [f]
        while todo:
            i = todo.pop()
            if i > 1 and i not in seen:
                seen.add(i)
                todo += self.nodes[i][1:]
        support = sorted({self.nodes[i][0] for i in seen})
        if len(support) <= _TABLE_LIMIT:
            full = (1 << (1 << len(support))) - 1
            masks = dict(zip(support, _masks(len(support))))
            table = {0: 0, 1: full}
            for i in sorted(seen, key=lambda i: self.nodes[i][0]):
                k, lo, hi = self.nodes[i]
                table[i] = table[hi] & masks[k] | table[lo] & (masks[k] ^ full)
            return _canonical(tuple(names[k] for k in support), table[f])
        n = len(names)
        terms = sorted(((v, (1 << n) - 1 ^ c) for v, c in self.isop(f, f)[0]),
                       key=lambda p: _term_key(*p, n))
        return or_all(_term(names, v, mask) for v, mask in terms)


class _Node:
    """A condition of a `Universe` above 12 features: a node of its diagram."""

    __slots__ = ("bdd", "i")

    def __init__(self, bdd: _BDD, i: int):
        self.bdd, self.i = bdd, i

    def __and__(self, other: _Node) -> _Node:
        return _Node(self.bdd, self.bdd.ite(self.i, other.i, 0))

    def __or__(self, other: _Node) -> _Node:
        return _Node(self.bdd, self.bdd.ite(self.i, 1, other.i))

    def __invert__(self) -> _Node:
        return _Node(self.bdd, self.bdd.ite(self.i, 0, 1))

    def __bool__(self) -> bool:
        return self.i != 0

    def __eq__(self, other) -> bool:
        return self.i == other.i


#: A condition of a `Universe`.  Only ``&``, ``|``, ``& ~x``, ``==`` and
#: truth are used, and ``~x`` only as the right operand of ``&``.
Table = int | _Node


class Universe:
    """The presence conditions over sorted feature `names`; any other
    feature counts as disabled.

    Up to 12 names a condition is its truth table over them (bit m is
    minterm m, bit k of m standing for `names[k]`, as in `all_configs`),
    walked once from its formula and printed canonically from the table.
    Above 12 names it is a node of the universe's one diagram, variable k
    standing for `names[k]`.  Either way equal functions are equal values
    and every decision is exact.
    """

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self.tables = len(self.names) <= _TABLE_LIMIT
        if self.tables:
            self._leaves = dict(zip(self.names, _masks(len(self.names))))
        else:
            self._bdd = _BDD()
            self._leaves = {f: self._bdd.node(k, 0, 1) for k, f in enumerate(self.names)}

    def of(self, e: FeatExpr) -> Table:
        if self.tables:
            return _truth_table(e, self._leaves, len(self.names))
        return _Node(self._bdd, self._bdd.of(e, self._leaves))

    def formula(self, t: Table) -> FeatExpr:
        """The canonical form of `t`."""
        return _canonical(self.names, t) if self.tables else self._bdd.formula(t.i, self.names)

    def lowest(self, t: Table) -> int:
        """The least minterm of a satisfiable `t`: where enumerating the
        configurations in `all_configs` order first meets it.  In the
        diagram, the walk from the root that takes the low branch where it
        is not false."""
        if self.tables:
            return (t & -t).bit_length() - 1
        m, i = 0, t.i
        while i > 1:
            k, lo, hi = self._bdd.nodes[i]
            m, i = (m, lo) if lo else (m | 1 << k, hi)
        return m


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
