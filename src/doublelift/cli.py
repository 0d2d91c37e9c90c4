"""Command line front-end: validate structure files, build lifts, analyze
double categories, search for foldings, run the adjunction checks, and run
named fixtures end to end.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import serialize
from .adjoint import check_triangle_identities, group_decoration
from .analysis import Folding, find_folding, gamma_data, single_object_precosheaf
from .doublecat import LAWS, DoubleCategory
from .errors import StructureError
from .examples import (
    GradedFixture,
    MatReport,
    SemidirectFixture,
    fixture_by_name,
)
from .fincat import Frozen, Monoid
from .grothendieck import Precosheaf
from .lift import lift
from .twocat import DecoratedBicategory


class Report:
    """Accumulates (name, passed, detail) lines and renders them as text or
    JSON.  Exit status is 0 iff every line passed."""

    def __init__(self):
        self.entries: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, detail: str = ""):
        self.entries.append((name, bool(passed), detail))

    def info(self, name: str, detail: str):
        self.entries.append((name, True, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def render(self, as_json: bool) -> str:
        if as_json:
            # the layout of json.dumps(..., sort_keys=True, indent=2), whose
            # indented encoder runs in pure Python, written directly
            flag, sep = ("false", "true"), ",\n      "
            entries = ",\n    ".join(
                f'{{\n      "detail": {encode_basestring_ascii(d)}{sep}"name": {encode_basestring_ascii(n)}'
                f'{sep}"passed": {flag[ok]}\n    }}' for n, ok, d in self.entries)
            entries = f"[\n    {entries}\n  ]" if entries else "[]"
            return f'{{\n  "entries": {entries},\n  "passed": {flag[self.passed]}\n}}'
        lines = []
        for name, ok, detail in self.entries:
            status = "pass" if ok else "FAIL"
            lines.append(f"{status}  {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines)


def cmd_check(args, report: Report) -> None:
    try:
        value = serialize.load(args.file)
    except StructureError as exc:
        report.add("load", False, f"{exc.law}: {exc.detail}")
        return
    report.add("structure", True, type(value).__name__ + " valid")
    if isinstance(value, DoubleCategory):
        # loading ran the axiom suite and raised on the first failed law
        for law in LAWS:
            report.add(law, True)


def cmd_lift(args, report: Report) -> None:
    seen: list = []  # the pre-cosheaf file embeds its decorated bicategory
    dec = serialize.load(args.dec, seen)
    phi = serialize.load(args.phi, seen)
    if not isinstance(dec, DecoratedBicategory) or not isinstance(phi, Precosheaf):
        report.add("input-kinds", False, "expected a decorated-bicategory and a precosheaf")
        return
    dc = lift(dec, phi)
    report.add("lift", True, f"{dc.c1.n_morphisms} squares")
    report.add("horizontalization-equality", True, "restriction equals the input")
    text = serialize.dumps(dc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        report.info("written", args.output)
    else:
        # flushed now, so that a closed stdout ends the run before the report
        print(text, end="", flush=True)


def cmd_analyze(args, report: Report) -> None:
    dc = serialize.load(args.file)
    if not isinstance(dc, DoubleCategory):
        report.add("input-kinds", False, "expected a double-category file")
        return
    gd = gamma_data(dc)
    report.info("gamma-squares", f"{gd.dc.c1.n_morphisms} of {dc.c1.n_morphisms}")
    report.info("gg", str(gd.dc is dc).lower())
    report.info("vertical-length", str(len(gd.levels)))
    report.info("chain-sizes", " ".join(str(len(s)) for s in gd.levels))


def cmd_folding(args, report: Report) -> None:
    dc = serialize.load(args.file)
    if not isinstance(dc, DoubleCategory):
        report.add("input-kinds", False, "expected a double-category file")
        return
    # a cofolding is a folding over the commutative globular monoids
    # accepted here, so one search answers all three lines
    result = find_folding(single_object_precosheaf(dc))
    for tag in ("folding", "cofolding"):
        if isinstance(result, Folding):
            report.info(tag, "found: " + repr(result.payload_maps))
        elif result.exhausted:
            report.info(tag, f"absent (search exhausted after {result.nodes} nodes)")
        else:
            report.add(tag, False, f"inconclusive (budget {result.limit} exceeded)")
    framed = "true" if isinstance(result, Folding) else "false" if result.exhausted else "unknown"
    report.info("framed", framed)


def cmd_adjunction(args, report: Report) -> None:
    seen: list = []  # every pre-cosheaf file embeds the same decorated bicategory
    g = serialize.load(args.group, seen)
    a = serialize.load(args.commutative, seen)
    if not isinstance(g, Monoid) or not isinstance(a, Monoid):
        report.add("input-kinds", False, "expected two monoid files")
        return
    dec = group_decoration(g, a)
    phis = []
    for path in args.phis:
        phi = serialize.load(path, seen)
        if not isinstance(phi, Precosheaf):
            report.add("input-kinds", False, f"{path} is not a precosheaf")
            return
        if phi.dec != dec:
            report.add("input-kinds", False, f"{path} is not a precosheaf over the decorated "
                                             "bicategory of the two monoid files")
            return
        phis.append(phi)
    for name, ok, detail in check_triangle_identities(phis):
        report.add(name, ok, detail)


def cmd_example(args, report: Report) -> None:
    fx = fixture_by_name(args.name)
    if isinstance(fx, MatReport):
        for d in fx.decisions:
            report.info(
                f"square ({d.vertical_side}, dim {d.dimension}, rank {d.payload_rank})",
                ("in V1: " if d.in_v1 else "not in V1: ") + d.reason,
            )
        report.info("gg", str(fx.gg).lower())
        return
    # the lift is built unchecked, by the lifting theorem: run the checks
    # that loading it from a file runs, which raise on the first failed law
    for part in (fx.dc.c1, fx.dc.src, fx.dc.tgt, fx.dc.hid, fx.dc):
        part._validate()
    report.add("axioms", True)
    gd = gamma_data(fx.dc)
    report.info("vertical-length", str(len(gd.levels)))
    report.info("gg", str(gd.dc is fx.dc).lower())
    if isinstance(fx, SemidirectFixture):
        kind = "abelian" if fx.endo_monoid.is_commutative else "non-abelian"
        group = "group" if fx.endo_monoid.is_group() else "monoid"
        report.info("endo-monoid", f"order {fx.endo_monoid.size}, {kind} {group}")
        result = find_folding(fx.phi)
        if isinstance(result, Folding):
            report.info("folding", "found")
        elif result.exhausted:
            report.info("folding", "absent")
        else:
            report.add("folding", False, "inconclusive")
    if isinstance(fx, GradedFixture):
        report.info("twist-isomorphism", "verified")


class Command(Frozen):
    """One subcommand of the command line: its handler, its help line, the
    names of its positional arguments (with ``many`` the last one takes one
    or more values), and its options as (short, long, metavar, help)
    tuples, each storing one value under its long name."""

    _fields = ("func", "help", "positionals", "many", "options")

    def __init__(self, func: Callable[[SimpleNamespace, Report], None], help: str,
                 positionals: tuple[str, ...], many: bool = False,
                 options: tuple[tuple[str, str, str, str], ...] = ()):
        vars(self).update(func=func, help=help, positionals=positionals, many=many, options=options)


COMMANDS = {
    "check": Command(cmd_check, "validate a structure file", ("file",)),
    "lift": Command(cmd_lift, "lift a decorated bicategory along a precosheaf", ("dec", "phi"),
                    options=(("-o", "--output", "FILE", "write the lift to FILE, not stdout"),)),
    "analyze": Command(cmd_analyze, "globular generation and vertical length", ("file",)),
    "folding": Command(cmd_folding, "folding and cofolding search", ("file",)),
    "adjunction": Command(cmd_adjunction, "triangle identity report",
                          ("group", "commutative", "phis"), many=True),
    "example": Command(cmd_example, "run a named fixture end to end", ("name",)),
}

_HELP_OPTION = ("-h, --help", "show this help message and exit")


class ParseExit(Exception):
    """Ends parsing early.  Its args are (status, text): status 0 with help
    text for stdout, or 2 with a usage error for stderr."""


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: doublelift [-h] [--json] {" + ",".join(COMMANDS) + "} ..."
    cmd = COMMANDS[name]
    words = ["usage: doublelift", name, "[-h]"]
    words += [f"[{short} {metavar}]" for short, _, metavar, _ in cmd.options]
    words += cmd.positionals
    if cmd.many:
        words.append(f"[{cmd.positionals[-1]} ...]")
    return " ".join(words)


def _table(title: str, rows) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([f"{title}:"] + [f"  {left:<{width}}{right}" for left, right in rows])


def _help(name: str | None) -> str:
    if name is None:
        blocks = [
            "Finite double categories lifted from decorated bicategories.",
            _table("commands", [(n, c.help) for n, c in COMMANDS.items()]),
            _table("options", [_HELP_OPTION, ("--json", "machine readable report")]),
        ]
    else:
        cmd = COMMANDS[name]
        blocks = [cmd.help]
        options = [(f"{short} {metavar}, {long} {metavar}", text)
                   for short, long, metavar, text in cmd.options]
        blocks.append(_table("options", [_HELP_OPTION] + options))
    return "\n\n".join([_usage(name)] + blocks)


def _error(name: str | None, message: str) -> ParseExit:
    return ParseExit(2, f"{_usage(name)}\ndoublelift: error: {message}")


def parse_args(argv) -> SimpleNamespace:
    """Read ``argv`` against ``COMMANDS``.

    ``--json`` and ``-h`` go before the command name; the command's
    positionals and options (and its own ``-h``) follow it, in any order.
    An option's value follows it as the next argument, after ``=``, or, for
    a short option, joined to it (``-oFILE``); the last one given wins.
    Long options are not abbreviated.  A token that starts with ``-`` (other
    than ``-`` itself) is an option, up to a ``--``, after which every
    token is positional.  Help raises ``ParseExit`` with status 0, and a
    usage error ``ParseExit`` with status 2: at once for an unknown command
    or an option without its value, after reading every token for missing
    or unrecognized arguments.
    """
    args = SimpleNamespace(json=False)
    name: str | None = None
    pending: list[str] = []     # positionals still to fill, in order
    extend = False              # positionals join the many-valued one until an option
    unrecognized: list[str] = []
    options_end = False
    i = 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        if tok == "--" and not options_end:
            options_end = True
            continue
        if options_end or tok == "-" or not tok.startswith("-"):
            if name is None:
                if tok not in COMMANDS:
                    raise _error(None, f"invalid command {tok!r} (choose from {', '.join(COMMANDS)})")
                name, cmd = tok, COMMANDS[tok]
                args.command, args.func = tok, cmd.func
                for _, long, _, _ in cmd.options:
                    setattr(args, long[2:], None)
                pending = list(cmd.positionals)
            elif pending:
                key = pending.pop(0)
                extend = cmd.many and not pending
                setattr(args, key, [tok] if extend else tok)
            elif extend:
                getattr(args, cmd.positionals[-1]).append(tok)
            else:
                unrecognized.append(tok)
            continue
        extend = False
        flags = ("-h", "--help") if name else ("-h", "--help", "--json")
        valued = {opt: long[2:] for short, long, _, _ in cmd.options
                  for opt in (short, long)} if name else {}
        key, sep, value = tok.partition("=")
        if key not in flags and key not in valued and not tok.startswith("--"):
            key, sep, value = tok[:2], "=", tok[2:]     # a short option joined to its value
        if key in flags:
            if sep:
                raise _error(name, f"option {key} takes no value")
            if key != "--json":
                raise ParseExit(0, _help(name))
            args.json = True
        elif key not in valued:
            unrecognized.append(tok)
        elif sep:
            setattr(args, valued[key], value)
        elif i < len(argv) and (argv[i] == "-" or not argv[i].startswith("-")):
            setattr(args, valued[key], argv[i])
            i += 1
        else:
            raise _error(name, f"option {key} expects a value")
    if name is None:
        raise _error(None, "a command is required")
    if pending:
        raise _error(name, "the following arguments are required: " + ", ".join(pending))
    if unrecognized:
        raise _error(name, "unrecognized arguments: " + " ".join(unrecognized))
    return args


def run(argv=None) -> int:
    """Run one command line and return its exit status.  The report goes to
    stdout, or to stderr when ``lift`` writes the lift there.  A broken pipe
    ends the run with status 1 and nothing more on stdout or stderr."""
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
        except ParseExit as exc:
            status, text = exc.args
            print(text, file=sys.stderr if status else sys.stdout)
            return status
        report = Report()
        try:
            args.func(args, report)
        except StructureError as exc:
            report.add(exc.law, False, exc.detail)
        except FileNotFoundError as exc:
            report.add("file-not-found", False, str(exc))
        except BrokenPipeError:
            raise
        except OSError as exc:
            report.add("file-error", False, str(exc))
        # a lift written to stdout keeps stdout to itself
        lifted = args.command == "lift" and not args.output
        print(report.render(args.json), file=sys.stderr if lifted else sys.stdout)
        if report.passed:
            return 0
        print(f"first failing law: {next(name for name, ok, _ in report.entries if not ok)}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


def main() -> None:
    status = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # on the null device, the interpreter's own flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
