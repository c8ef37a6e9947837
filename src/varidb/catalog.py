"""Variational schemas.

A schema declares a feature universe, a feature model constraining which
configurations are meaningful, and relation schemas whose relations and
individual attributes may each carry a presence condition.  The effective
presence of an attribute is the conjunction of its own condition, its
relation's condition, and the feature model.

Schema files are line-oriented:

    features V4, V5, edu, T4, T5
    featuremodel (!edu & (V4 | V5)) | (edu & (T4 | T5) & (V4 | V5))
    relation empacct (empno int, hiredate text, title text, deptno int,
                      salary int # V5, std bool # edu, instr bool # edu) # V4 | V5
    relation ecourse (courseno int, coursename text, deptno int # T5) # T4 | T5

`# fexp` annotates the preceding attribute or relation; omitted means true.
`true`, `false` and `CHC` name no feature, relation or attribute, since
formulas, conditions and queries read them as constants or choices.
A physical line that does not start with a keyword continues the previous
logical line.  All invariants (undeclared features, duplicate names,
presence conditions that can never hold) are hard errors at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .featexpr import (
    TRUE,
    And,
    FeatExpr,
    ParseError,
    _skip_ws,
    conj,
    eval_fexp,
    features_of,
    parse_fexp_partial,
    print_fexp,
    sat,
    solutions,
)


class AttrType(Enum):
    INTEGER = "int"
    TEXT = "text"
    BOOLEAN = "bool"

    @property
    def keyword(self) -> str:
        return self.value


_TYPE_KEYWORDS = {t.value: t for t in AttrType}

#: A plain (non-variational) schema: relation name → typed attribute list.
PlainSchema = dict[str, list[tuple[str, AttrType]]]


class CatalogError(ValueError):
    """Schema validation or schema-file syntax error."""


@dataclass(frozen=True)
class VAttr:
    name: str
    atype: AttrType
    pc: FeatExpr = TRUE

    def __post_init__(self):
        if not sat(self.pc):
            raise CatalogError(
                f"unsatisfiable presence condition on attribute {self.name}"
            )


@dataclass(frozen=True)
class VRelSchema:
    name: str
    attrs: tuple[VAttr, ...]
    pc: FeatExpr = TRUE

    def __post_init__(self):
        seen = set()
        for a in self.attrs:
            if a.name in seen:
                raise CatalogError(
                    f"duplicate attribute {a.name} in relation {self.name}"
                )
            seen.add(a.name)
        if not sat(self.pc):
            raise CatalogError(
                f"unsatisfiable presence condition on relation {self.name}"
            )

    def attr(self, name: str) -> VAttr | None:
        for a in self.attrs:
            if a.name == name:
                return a
        return None

    def attr_names(self) -> list[str]:
        return [a.name for a in self.attrs]


@dataclass
class VSchema:
    features: tuple[str, ...] = ()
    model: FeatExpr = TRUE
    relations: dict[str, VRelSchema] = field(default_factory=dict)

    def __post_init__(self):
        validate_schema(self)

    def relation(self, name: str) -> VRelSchema:
        if name not in self.relations:
            raise CatalogError(f"unknown relation {name}")
        return self.relations[name]


def validate_schema(s: VSchema) -> None:
    declared = set(s.features)
    if len(declared) != len(s.features):
        raise CatalogError("duplicate feature declaration")

    def check_features(e: FeatExpr, where: str) -> None:
        undeclared = features_of(e) - declared
        if undeclared:
            raise CatalogError(
                f"undeclared feature {sorted(undeclared)[0]} in {where}"
            )

    check_features(s.model, "feature model")
    for key, rel in s.relations.items():
        if key != rel.name:
            raise CatalogError(f"relation map key {key} != relation name {rel.name}")
        check_features(rel.pc, f"relation {rel.name}")
        if not sat(And(rel.pc, s.model)):
            raise CatalogError(
                f"relation {rel.name} can never exist: unsatisfiable "
                f"presence under the feature model"
            )
        for a in rel.attrs:
            check_features(a.pc, f"attribute {rel.name}.{a.name}")
            if not sat(And(a.pc, And(rel.pc, s.model))):
                raise CatalogError(
                    f"attribute {rel.name}.{a.name} can never exist: "
                    f"unsatisfiable presence under the feature model"
                )


def attr_presence(s: VSchema, rel: str, attr: str) -> FeatExpr:
    """Effective presence condition: pc_attr ∧ pc_relation ∧ feature model."""
    r = s.relation(rel)
    a = r.attr(attr)
    if a is None:
        raise CatalogError(f"unknown attribute {attr} in relation {rel}")
    return conj(conj(a.pc, r.pc), s.model)


def configure_schema(s: VSchema, config: Iterable[str]) -> PlainSchema:
    """The plain schema a configuration selects; {} if the model rejects it."""
    enabled = frozenset(config)
    if not eval_fexp(s.model, enabled):
        return {}
    out: PlainSchema = {}
    for rel in s.relations.values():
        if not eval_fexp(rel.pc, enabled):
            continue
        out[rel.name] = [
            (a.name, a.atype) for a in rel.attrs if eval_fexp(a.pc, enabled)
        ]
    return out


def count_schema_variants(s: VSchema) -> tuple[int, int]:
    """Brute force over all configurations of the declared universe.

    Returns (number of model-satisfying configurations, number of distinct
    plain schemas those configurations produce).  A schema is the whole
    database shape, so distinct schemas are counted jointly over the
    satisfying configurations, not multiplied per relation: the feature
    model may rule out combinations of relation shapes.
    """
    if len(s.features) > 24:
        raise CatalogError("too many features to enumerate (limit 24)")
    satisfying = 0
    shapes = set()
    for c in solutions(s.model, s.features):
        satisfying += 1
        plain = configure_schema(s, c)
        shapes.add(
            tuple((name, tuple(attrs)) for name, attrs in plain.items())
        )
    return satisfying, len(shapes)


def parse_config(text: str, s: VSchema) -> frozenset[str]:
    """A configuration literal: comma-separated enabled features."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    declared = set(s.features)
    for n in names:
        if n not in declared:
            raise CatalogError(f"undeclared feature {n} in configuration")
    return frozenset(names)


# ---------------------------------------------------------------------------
# Schema files
# ---------------------------------------------------------------------------

_KEYWORDS = ("features", "featuremodel", "relation")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Words that formulas, conditions or queries read as constants or choices.
_RESERVED = ("true", "false", "CHC")


def _name(word: str, what: str) -> str:
    if word in _RESERVED:
        raise CatalogError(f"reserved word {word} used as {what} name")
    return word


def parse_schema(text: str) -> VSchema:
    logical: list[list] = []  # [first line number, accumulated text]
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped:
            continue
        word = _IDENT.match(stripped)
        if word and word.group() in _KEYWORDS:
            logical.append([lineno, stripped])
        elif logical:
            logical[-1][1] += " " + stripped
        else:
            raise CatalogError(f"line {lineno}: expected a schema keyword")

    features: tuple[str, ...] | None = None
    model: FeatExpr | None = None
    relations: dict[str, VRelSchema] = {}
    for lineno, line in logical:
        try:
            keyword = _IDENT.match(line).group()
            rest = line[len(keyword) :]
            if keyword == "features":
                if features is not None:
                    raise CatalogError("duplicate features line")
                features = _parse_features(rest)
            elif keyword == "featuremodel":
                if model is not None:
                    raise CatalogError("duplicate featuremodel line")
                model = _parse_whole_fexp(rest)
            else:
                rel = _parse_relation(rest)
                if rel.name in relations:
                    raise CatalogError(f"duplicate relation {rel.name}")
                relations[rel.name] = rel
        except ParseError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
        except CatalogError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
    return VSchema(
        features if features is not None else (),
        model if model is not None else TRUE,
        relations,
    )


def _parse_features(rest: str) -> tuple[str, ...]:
    names = []
    for part in rest.split(","):
        part = part.strip()
        if not part:
            raise CatalogError("empty feature name")
        if not _IDENT.fullmatch(part):
            raise CatalogError(f"invalid feature name {part!r}")
        names.append(_name(part, "feature"))
    return tuple(names)


def _parse_whole_fexp(rest: str) -> FeatExpr:
    e, i = parse_fexp_partial(rest, 0)
    i = _skip_ws(rest, i)
    if i != len(rest):
        raise ParseError("unexpected trailing input", i)
    return e


def _parse_relation(rest: str) -> VRelSchema:
    i = _skip_ws(rest, 0)
    m = _IDENT.match(rest, i)
    if not m:
        raise ParseError("expected relation name", i)
    name = _name(m.group(), "relation")
    i = _skip_ws(rest, m.end())
    if i >= len(rest) or rest[i] != "(":
        raise ParseError("expected '('", i)
    i += 1
    attrs: list[VAttr] = []
    while True:
        i = _skip_ws(rest, i)
        if i < len(rest) and rest[i] == ")" and not attrs:
            break
        m = _IDENT.match(rest, i)
        if not m:
            raise ParseError("expected attribute name", i)
        attr_name = _name(m.group(), "attribute")
        i = _skip_ws(rest, m.end())
        m = _IDENT.match(rest, i)
        if not m or m.group() not in _TYPE_KEYWORDS:
            raise ParseError("expected attribute type (int, text, bool)", i)
        atype = _TYPE_KEYWORDS[m.group()]
        i = _skip_ws(rest, m.end())
        pc = TRUE
        if i < len(rest) and rest[i] == "#":
            pc, i = parse_fexp_partial(rest, i + 1)
            i = _skip_ws(rest, i)
        attrs.append(VAttr(attr_name, atype, pc))
        if i < len(rest) and rest[i] == ",":
            i += 1
            continue
        break
    if i >= len(rest) or rest[i] != ")":
        raise ParseError("expected ')' or ','", i)
    i = _skip_ws(rest, i + 1)
    rel_pc = TRUE
    if i < len(rest) and rest[i] == "#":
        rel_pc, i = parse_fexp_partial(rest, i + 1)
        i = _skip_ws(rest, i)
    if i != len(rest):
        raise ParseError("unexpected trailing input", i)
    return VRelSchema(name, tuple(attrs), rel_pc)


def print_schema(s: VSchema) -> str:
    lines = []
    if s.features:
        lines.append("features " + ", ".join(s.features))
    if s.model != TRUE:
        lines.append("featuremodel " + print_fexp(s.model))
    for rel in s.relations.values():
        parts = []
        for a in rel.attrs:
            item = f"{a.name} {a.atype.keyword}"
            if a.pc != TRUE:
                item += " # " + print_fexp(a.pc)
            parts.append(item)
        line = f"relation {rel.name} ({', '.join(parts)})"
        if rel.pc != TRUE:
            line += " # " + print_fexp(rel.pc)
        lines.append(line)
    return "\n".join(lines) + "\n"


def print_plain_schema(plain: PlainSchema) -> str:
    """Plain schemas use the same file shape, minus features and conditions."""
    lines = []
    for name, attrs in plain.items():
        cols = ", ".join(f"{a} {t.keyword}" for a, t in attrs)
        lines.append(f"relation {name} ({cols})")
    return "\n".join(lines) + "\n"
