"""Seeded generator for the benchmark's v-databases and query streams.

Standard library only, and independent of varidb: presence conditions are
kept as sets of literals, so the generator decides for itself which cells
can exist and which queries are well-typed, and never asks the engine under
test to filter its inputs.

The v-database always has two relations over features ``f1 .. fN``::

    relation r (a int, b int # f1, c int # f2)
    relation s (d int, e int # !f1, g int)

Each row carries a conjunction of 0 to 2 random literals over f1..f3.  A
cell holds a value from 1..50 exactly where its attribute condition and the
row condition can hold together, and Null elsewhere.  Tables and selections
are built so that the seed changes a query's inputs much more than its cost.

Query streams yield distinct query texts.  The join shapes rotate in a fixed
order, so every run of a stream has the same mix of shapes whatever its
length; only the parameters inside each shape come from the seed.
"""

from __future__ import annotations

import random
from pathlib import Path

VALUES = 50

#: attribute -> the literal guarding it (None: unconditioned)
R_ATTRS = {"a": None, "b": ("f1", True), "c": ("f2", True)}
S_ATTRS = {"d": None, "e": ("f1", False), "g": None}

#: Row conditions and projection annotations draw their literals from
#: f1..f3 only; the other features are choice dimensions (choice-tree) or
#: only widen the configuration space (configure-run).  A condition's cost
#: is exponential in its features, in `simplify` as in grouping, so drawing
#: them from all features makes a request's cost swing with the seed.
CONDITION_FEATURES = 3

JOIN_SHAPES = ("equi-join", "join-select", "select", "project", "union", "diff")


def _lit_text(lit) -> str:
    name, positive = lit
    return name if positive else "!" + name


def cond_text(lits) -> str:
    """Render a conjunction of literals as a feature expression."""
    return " & ".join(_lit_text(l) for l in sorted(lits)) if lits else "true"


def consistent(lits) -> bool:
    """A conjunction of literals is satisfiable iff no feature appears twice
    with opposite signs."""
    return not any((name, not pos) in lits for name, pos in lits)


def feature_names(n: int) -> list[str]:
    return [f"f{i}" for i in range(1, n + 1)]


def _random_lits(rng: random.Random, features: list[str], k: int) -> frozenset:
    names = rng.sample(features, k)
    return frozenset((name, rng.random() < 0.5) for name in names)


# ---------------------------------------------------------------------------
# v-database
# ---------------------------------------------------------------------------


def schema_text(features: int) -> str:
    names = ", ".join(feature_names(features))
    return (
        f"features {names}\n"
        "relation r (a int, b int # f1, c int # f2)\n"
        "relation s (d int, e int # !f1, g int)\n"
    )


def _table_text(rng: random.Random, attrs: dict, features: list[str], rows: int) -> str:
    """Rows are stratified: row i carries i % 3 literals over the condition
    features taken in turn, and each column spreads its values evenly over
    1..VALUES, in seeded order.  The seed then picks signs and the order of
    values, not how many of each, so a query's result size, and with it its
    cost, varies little from seed to seed."""
    cond = features[:CONDITION_FEATURES]
    columns = []
    for _ in attrs:
        column = [j * VALUES // rows + 1 for j in range(rows)]
        rng.shuffle(column)
        columns.append(column)
    lines = [",".join(list(attrs) + ["presCond"])]
    for i in range(rows):
        names = [cond[(i + j) % len(cond)] for j in range(min(i % 3, len(cond)))]
        pc = frozenset((name, rng.random() < 0.5) for name in names)
        cells = []
        for guard, column in zip(attrs.values(), columns):
            can_exist = guard is None or consistent(pc | {guard})
            cells.append(str(column[i]) if can_exist else "")
        lines.append(",".join(cells + [cond_text(pc)]))
    return "\n".join(lines) + "\n"


def write_vdb(root: Path, features: int, rows: int, seed: int) -> None:
    """Write a v-database directory: schema.vschema, r.csv and s.csv."""
    if features < 2:
        raise ValueError("the schema needs at least features f1 and f2")
    rng = random.Random(f"vdb:{seed}:{features}:{rows}")
    names = feature_names(features)
    root.mkdir(parents=True, exist_ok=True)
    (root / "schema.vschema").write_text(schema_text(features))
    (root / "r.csv").write_text(_table_text(rng, R_ATTRS, names, rows))
    (root / "s.csv").write_text(_table_text(rng, S_ATTRS, names, rows))


# ---------------------------------------------------------------------------
# queries over r and s
# ---------------------------------------------------------------------------

#: Selections are range comparisons against constants from the middle of
#: the value range, so each keeps roughly a third to two thirds of the rows.
#: A request's cost then follows from its shape rather than from a lucky
#: constant, which keeps the spread between seeds small.
_OPS = ("<", "<=", ">", ">=")
_CONSTANTS = (15, 35)


def _compare(rng: random.Random, attrs) -> str:
    return f"{rng.choice(list(attrs))} {rng.choice(_OPS)} {rng.randint(*_CONSTANTS)}"


def _selection(rng: random.Random, attrs) -> str:
    parts = [_compare(rng, attrs) for _ in range(rng.randint(1, 2))]
    return f"({' | '.join(parts)})"


def _visible(attrs: dict, ctx: frozenset) -> dict:
    """The attributes that can exist somewhere inside the context `ctx`."""
    return {
        name: guard
        for name, guard in attrs.items()
        if guard is None or consistent(ctx | {guard})
    }


def _annotated(
    rng: random.Random, attrs: dict, features: list[str], k: int, ctx=frozenset()
) -> str:
    """A projection list of up to `k` attributes, each annotated with a
    literal set consistent with the attribute's own guard and with `ctx`."""
    items = []
    attrs = _visible(attrs, ctx)
    for name in sorted(rng.sample(list(attrs), min(k, len(attrs)))):
        guard = attrs[name]
        lits = set() if guard is None else {guard}
        if rng.random() < 0.6:
            extra = _random_lits(rng, features[:CONDITION_FEATURES], 1)
            if consistent(ctx | lits | extra):
                lits |= extra
        items.append(f"{name} # {cond_text(lits)}" if lits else name)
    return ", ".join(items)


def join_query(rng: random.Random, shape: str, features: list[str]) -> str:
    """One query of a named shape over r and s."""
    if shape == "equi-join":
        left, right = rng.choice(list(R_ATTRS)), rng.choice(list(S_ATTRS))
        out = sorted({left, right} | set(rng.sample(list(R_ATTRS) + list(S_ATTRS), 2)))
        return f"proj [{', '.join(out)}] join ({left} = {right}) r s"
    if shape == "join-select":
        left, right = rng.choice(list(R_ATTRS)), rng.choice(list(S_ATTRS))
        out = sorted({left, right, rng.choice(list(S_ATTRS))})
        return (
            f"proj [{', '.join(out)}] join ({left} = {right}) "
            f"sel {_selection(rng, R_ATTRS)} r s"
        )
    rel, attrs = rng.choice((("r", R_ATTRS), ("s", S_ATTRS)))
    if shape == "select":
        return f"sel {_selection(rng, attrs)} {rel}"
    if shape == "project":
        return f"proj [{_annotated(rng, attrs, features, rng.randint(2, 3))}] {rel}"
    if shape in ("union", "diff"):
        cols = ", ".join(sorted(rng.sample(list(attrs), 2)))
        kw = "union" if shape == "union" else "diff"
        return (
            f"{kw} proj [{cols}] sel {_selection(rng, attrs)} {rel} "
            f"proj [{cols}] sel {_selection(rng, attrs)} {rel}"
        )
    raise ValueError(f"unknown shape {shape}")


def choice_tree(rng: random.Random, depth: int, features: list[str]) -> str:
    """A depth-`depth` choice tree over r whose 2^depth leaves each hold
    their own selection and annotated projection.

    The internal nodes branch on distinct features, outside the condition
    features when there are enough, so every tree of a given depth decides
    the same number of features and costs about the same.  No dimension
    repeats a feature already decided on its path, and leaves mention only
    attributes that can exist there, so every branch is live and the query
    is well-typed.
    """
    pool = features[CONDITION_FEATURES:]
    if len(pool) < 2**depth - 1:
        pool = features
    dims = rng.sample(pool, min(len(pool), 2**depth - 1))
    return _subtree(rng, depth, features, dims, frozenset(), True)


def _subtree(rng, depth, features, dims, ctx, left) -> str:
    """`ctx` is the conjunction of branch literals on the path here.  Left
    leaves project a selection and right leaves select from a projection:
    the minimizer merges sibling projections into one list over every
    feature below them, and grouping that list enumerates 2^features
    configurations, so alternating the leaf forms keeps each list to its
    own path's features."""
    if depth == 0:
        attrs = _visible(R_ATTRS, ctx)
        if left:
            return (
                f"proj [{_annotated(rng, attrs, features, rng.randint(2, 3), ctx)}] "
                f"sel {_selection(rng, attrs)} r"
            )
        kept = dict(rng.sample(sorted(attrs.items()), min(2, len(attrs))))
        return (
            f"sel {_selection(rng, kept)} "
            f"proj [{_annotated(rng, kept, features, 2, ctx)}] r"
        )
    decided = {name for name, _ in ctx}
    name = dims.pop() if dims else rng.choice([f for f in features if f not in decided])
    yes = _subtree(rng, depth - 1, features, dims, ctx | {(name, True)}, True)
    no = _subtree(rng, depth - 1, features, dims, ctx | {(name, False)}, False)
    return f"choice {name} {{ {yes} }} {{ {no} }}"


def distinct(make, seed_tag: str, attempts: int = 100):
    """Yield (index, text) from `make(rng, index)`, skipping repeats."""
    rng = random.Random(seed_tag)
    seen: set[str] = set()
    i = 0
    while True:
        for _ in range(attempts):
            text = make(rng, i)
            if text not in seen:
                break
        else:
            raise RuntimeError(f"query stream {seed_tag} ran out of distinct queries")
        seen.add(text)
        yield i, text
        i += 1
