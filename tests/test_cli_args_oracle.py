"""Differential test of the command-table parser against the argparse parser
it replaced.

``build_parser`` is the former argparse front end, kept verbatim as the
reference.  On argvs drawn from a fixed alphabet of command names, file
names, known and unknown options, ``cli.parse_args`` must return the fields
argparse returns whenever argparse accepts the argv; where argparse exits
with status 2, ``cli.run`` must return 2 with a usage line on stderr, and
where it exits 0 for help, ``run`` must return 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io

from hypothesis import example, given, strategies as st

from doublelift.cli import (
    cmd_adjunction,
    cmd_analyze,
    cmd_check,
    cmd_example,
    cmd_folding,
    cmd_lift,
    parse_args,
    run,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublelift",
        description="Finite double categories lifted from decorated bicategories.",
    )
    parser.add_argument("--json", action="store_true", help="machine readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a structure file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lift", help="lift a decorated bicategory along a precosheaf")
    p.add_argument("dec")
    p.add_argument("phi")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("analyze", help="globular generation and vertical length")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("folding", help="folding and cofolding search")
    p.add_argument("file")
    p.set_defaults(func=cmd_folding)

    p = sub.add_parser("adjunction", help="triangle identity report")
    p.add_argument("group")
    p.add_argument("commutative")
    p.add_argument("phis", nargs="+")
    p.set_defaults(func=cmd_adjunction)

    p = sub.add_parser("example", help="run a named fixture end to end")
    p.add_argument("name")
    p.set_defaults(func=cmd_example)
    return parser


COMMAND_NAMES = ["check", "lift", "analyze", "folding", "adjunction", "example"]
FILES = ["a.json", "b.json", "c.json"]
OPTIONS = ["--json", "-h", "--help", "-o", "--output", "--output=o.json", "-oo.json"]
UNKNOWN = ["-x", "--bogus"]
ALPHABET = COMMAND_NAMES + FILES + OPTIONS + UNKNOWN

tokens = st.sampled_from(ALPHABET)
# Uniform draws rarely form a whole command, so half the argvs put a
# command name after at most one token; both kinds stay within length 6.
argvs = st.one_of(
    st.lists(tokens, max_size=6),
    st.builds(
        lambda head, name, tail: head + [name] + tail,
        st.lists(tokens, max_size=1),
        st.sampled_from(COMMAND_NAMES),
        st.lists(st.sampled_from(FILES + OPTIONS + UNKNOWN), max_size=4),
    ),
)


def _reference(argv):
    """argparse's namespace as a dict, or its exit status."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@given(argvs)
@example([])
@example(["--json", "lift", "a.json", "-o", "b.json", "c.json", "--output=o.json"])
@example(["lift", "-oo.json", "a.json", "b.json", "-o", "c.json"])
@example(["adjunction", "a.json", "b.json", "c.json", "a.json"])
@example(["adjunction", "a.json", "b.json", "-x", "c.json"])
@example(["adjunction", "a.json", "b.json", "c.json", "-x", "a.json"])
@example(["-x", "check", "-h"])
@example(["lift", "-o", "-h"])
@example(["lift", "a.json", "b.json", "-o", "--json"])
@example(["a.json", "-h"])
def test_parse_args_agrees_with_argparse(argv):
    expected = _reference(argv)
    if isinstance(expected, dict):
        assert vars(parse_args(argv)) == expected
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    assert status == expected
    if status == 2:
        assert err.getvalue().startswith("usage: doublelift") and "doublelift: error: " in err.getvalue()
        assert out.getvalue() == ""
    else:
        assert out.getvalue().startswith("usage: doublelift") and err.getvalue() == ""
