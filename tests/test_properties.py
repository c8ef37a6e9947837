"""Property tests: print/parse round trips and the CLI's exit-code contract."""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from varidb.catalog import AttrType, VAttr, VRelSchema, VSchema, parse_schema, print_schema
from varidb.cli import main
from varidb.featexpr import FALSE, TRUE, And, Feature, Not, Or, parse_fexp, print_fexp, sat
from varidb.storage import VTable, VTuple, parse_vtable, print_vtable
from varidb.vra import (
    COMPARISON_OPS,
    EMPTY,
    AttrRef,
    Choice,
    CompareAttrAttr,
    CompareAttrConst,
    CondAnd,
    CondChoice,
    CondLit,
    CondNot,
    CondOr,
    Const,
    Join,
    Product,
    Project,
    Relation,
    Select,
    SetOp,
    parse_query,
    print_query,
)
from varidb.vset import VElem, VSet, parse_vset, print_vset

TOY = str(Path(__file__).resolve().parent / "fixtures" / "toy")

# Seeded and without an example database, so tier-1 runs repeat exactly.
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_NAMES = st.sampled_from(["a", "f1", "F_2", "_x9", "V4", "edu", "trueish", "falsey"])

fexps = st.recursive(
    st.one_of(st.just(TRUE), st.just(FALSE), st.builds(Feature, _NAMES)),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)
    ),
    max_leaves=12,
)


@_SETTINGS
@given(fexps)
def test_fexp_print_parse_round_trip(e):
    assert parse_fexp(print_fexp(e)) == e


#: Identifiers, keywords among them, so that the printer's `rel` prefix and
#: the quoting of values are exercised.
_IDENTS = st.one_of(
    st.sampled_from(["rel", "sel", "proj", "choice", "empty", "true", "false", "CHC"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
)
_ATTRS = st.one_of(_IDENTS, st.builds("{}.{}".format, _IDENTS, _IDENTS))
_VALUES = st.one_of(st.integers(), st.booleans(), st.text(max_size=8), _ATTRS)
_PCS = st.one_of(st.just(TRUE), fexps.filter(sat))

vsets = st.builds(
    lambda items, annotation: VSet(tuple(VElem(v, pc) for v, pc in items), annotation),
    st.lists(st.tuples(_VALUES, _PCS), max_size=5),
    st.one_of(st.just(TRUE), fexps),
)


@_SETTINGS
@given(vsets)
def test_vset_print_parse_round_trip(x):
    assert parse_vset(print_vset(x)) == x


#: A condition reads a bare `true`, `false` or `CHC` as a keyword, so an
#: unqualified attribute of that name cannot be written in one.
_REFS = st.one_of(
    st.builds(AttrRef, _IDENTS.filter(lambda w: w not in ("true", "false", "CHC"))),
    st.builds(AttrRef, _IDENTS, _IDENTS),
)
_OPS = st.sampled_from(COMPARISON_OPS)

conditions = st.recursive(
    st.one_of(
        st.builds(CondLit, st.booleans()),
        st.builds(
            CompareAttrConst,
            _REFS,
            _OPS,
            st.builds(Const, st.one_of(st.integers(), st.booleans(), st.text(max_size=8))),
        ),
        st.builds(CompareAttrAttr, _REFS, _OPS, _REFS),
    ),
    lambda sub: st.one_of(
        st.builds(CondNot, sub),
        st.builds(CondAnd, sub, sub),
        st.builds(CondOr, sub, sub),
        st.builds(CondChoice, fexps, sub, sub),
    ),
    max_leaves=6,
)

_PROJ_LISTS = st.builds(
    lambda items: VSet(tuple(VElem(a, pc) for a, pc in items)),
    st.lists(st.tuples(_ATTRS, _PCS), max_size=4),
)

queries = st.recursive(
    st.one_of(st.builds(Relation, _IDENTS), st.just(EMPTY)),
    lambda sub: st.one_of(
        st.builds(Select, conditions, sub),
        st.builds(Project, _PROJ_LISTS, sub),
        st.builds(Choice, fexps, sub, sub),
        st.builds(Join, conditions, sub, sub),
        st.builds(Product, sub, sub),
        st.builds(SetOp, st.sampled_from(["union", "difference"]), sub, sub),
    ),
    max_leaves=8,
)


@_SETTINGS
@given(queries)
def test_query_print_parse_round_trip(q):
    assert parse_query(print_query(q)) == q


#: Schema names: the schema file's own keywords and type names among them,
#: and words that only start with a reserved one.
_SCHEMA_NAMES = st.one_of(
    st.sampled_from(
        ["features", "featuremodel", "relation", "int", "text", "bool", "trueish", "CHCx"]
    ),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
        lambda w: w not in ("true", "false", "CHC")
    ),
)


@st.composite
def schemas(draw):
    """Valid schemas: a condition that could never hold becomes `true`."""
    features = draw(st.lists(_SCHEMA_NAMES, unique=True, max_size=5))
    leaves = [st.just(TRUE), st.just(FALSE)]
    if features:
        leaves.append(st.builds(Feature, st.sampled_from(features)))
    pcs = st.recursive(
        st.one_of(*leaves),
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)
        ),
        max_leaves=5,
    )

    def holding(e, context):
        return e if sat(And(e, context)) else TRUE

    model = holding(draw(pcs), TRUE)
    relations = {}
    for name in draw(st.lists(_SCHEMA_NAMES, unique=True, max_size=3)):
        pc = holding(draw(pcs), model)
        attrs = tuple(
            VAttr(a, draw(st.sampled_from(AttrType)), holding(draw(pcs), And(pc, model)))
            for a in draw(st.lists(_SCHEMA_NAMES, unique=True, max_size=4))
        )
        relations[name] = VRelSchema(name, attrs, pc)
    return VSchema(tuple(features), model, relations)


@_SETTINGS
@given(schemas())
def test_schema_print_parse_round_trip(s):
    assert parse_schema(print_schema(s)) == s


#: Every subcommand that reads a query, with the options it needs.
_QUERY_COMMANDS = (
    ["check"],
    ["configure", "--config", "f1"],
    ["group"],
    ["minimize"],
    ["minimize", "--lift", "--trace"],
    ["run", "--strategy", "configure"],
    ["run", "--strategy", "group"],
    ["sql", "--mode", "union"],
    ["sql", "--mode", "per-group"],
    ["sql", "--mode", "per-variant"],
)


def _run(argv, data: bytes):
    """`main(argv)` with `data` on a strict UTF-8 stdin; (code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@_SETTINGS
@given(st.sampled_from(_QUERY_COMMANDS), st.binary(max_size=64))
def test_random_query_bytes_exit_with_a_documented_code(argv, data):
    code, err = _run([*argv, TOY], data)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


#: Query tokens, so that random sequences also parse and type now and then.
_TOKENS = (
    "r", "s", "a1", "a2", "a3", "b1", "f1", "f2", "!", "&", "|", "#", ",", "=", "1",
    "true", "false", "[", "]", "{", "}", "(", ")", "proj", "sel", "choice", "join",
    "prod", "union", "diff", "empty", "CHC",
)


@_SETTINGS
@given(st.sampled_from(_QUERY_COMMANDS), st.lists(st.sampled_from(_TOKENS), max_size=16))
def test_random_query_tokens_exit_with_a_documented_code(argv, tokens):
    code, err = _run([*argv, TOY], " ".join(tokens).encode())
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


_TOY_FILES = {name: (Path(TOY) / name).read_bytes() for name in ("schema.vschema", "r.csv")}


@_SETTINGS
@given(
    st.sampled_from(sorted(_TOY_FILES)),
    st.integers(min_value=0, max_value=120),
    st.binary(max_size=32),
)
def test_random_data_file_bytes_exit_with_a_documented_code(name, keep, data):
    # the bytes follow a prefix of the fixture's own file, so that parsing
    # gets past the first line now and then
    with tempfile.TemporaryDirectory() as tmp:
        vdb = Path(tmp) / "vdb"
        shutil.copytree(TOY, vdb)
        (vdb / name).write_bytes(_TOY_FILES[name][:keep] + data)
        for argv in (["run"], ["check"], ["variants"]):
            code, err = _run([*argv, str(vdb)], b"proj [a1] r")
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err


#: Text cells: the characters `str.splitlines` breaks at besides "\n" and
#: "\r", commas, quotes, and strings that read as other cells unquoted.
_TEXT_CELLS = st.one_of(
    st.sampled_from(["", "true", "false", "presCond", "-1", "a,b", '"', '""']),
    st.text(
        st.one_of(
            st.sampled_from(',"\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'),
            st.characters(blacklist_characters="\r\n"),
        ),
        max_size=8,
    ),
)
_CELLS = {
    AttrType.TEXT: _TEXT_CELLS,
    AttrType.INTEGER: st.integers(min_value=-(2**40), max_value=2**40),
    AttrType.BOOLEAN: st.booleans(),
}


@st.composite
def vtables(draw):
    types = draw(st.lists(st.sampled_from(AttrType), min_size=1, max_size=4))
    schema = VRelSchema("r", tuple(VAttr(f"a{i}", t) for i, t in enumerate(types)))
    rows = draw(
        st.lists(
            st.builds(
                VTuple,
                st.tuples(*(st.none() | _CELLS[t] for t in types)),
                _PCS,
            ),
            max_size=5,
        )
    )
    return VTable(schema, tuple(rows))


@_SETTINGS
@given(vtables())
def test_vtable_print_parse_round_trip(t):
    assert parse_vtable(print_vtable(t), t.schema) == t
