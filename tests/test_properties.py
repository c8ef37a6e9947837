"""Property tests: the fexp round trip and the CLI's exit-code contract."""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from varidb.cli import main
from varidb.featexpr import FALSE, TRUE, And, Feature, Not, Or, parse_fexp, print_fexp

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
