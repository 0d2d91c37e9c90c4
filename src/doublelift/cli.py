"""Command line front-end: validate structure files, build lifts, analyze
double categories, search for foldings, run the adjunction checks, and run
named fixtures end to end.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .adjoint import check_triangle_identities, group_decoration
from .analysis import (
    Folding,
    find_folding,
    gamma_data,
    reconstruct_single_object_lift,
)
from .doublecat import LAWS, DoubleCategory
from .errors import StructureError
from .examples import (
    GradedFixture,
    MatReport,
    SemidirectFixture,
    fixture_by_name,
)
from .fincat import Monoid, MonoidAction
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
            return json.dumps(
                {
                    "passed": self.passed,
                    "entries": [
                        {"name": n, "passed": ok, "detail": d} for n, ok, d in self.entries
                    ],
                },
                sort_keys=True, indent=2,
            )
        lines = []
        for name, ok, detail in self.entries:
            status = "pass" if ok else "FAIL"
            lines.append(f"{status}  {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines)

    def first_failure(self) -> str:
        for name, ok, detail in self.entries:
            if not ok:
                return name
        return ""


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
    dec = serialize.load(args.dec)
    phi = serialize.load(args.phi)
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
        print(text, end="")


def cmd_analyze(args, report: Report) -> None:
    dc = serialize.load(args.file)
    if not isinstance(dc, DoubleCategory):
        report.add("input-kinds", False, "expected a double-category file")
        return
    gd = gamma_data(dc)
    report.info("gamma-squares", f"{gd.dc.c1.n_morphisms} of {dc.c1.n_morphisms}")
    report.info("gg", str(gd.dc == dc).lower())
    report.info("vertical-length", str(gd.chain.stabilization_index))
    report.info("chain-sizes", " ".join(str(len(s)) for s in gd.chain.level_squares))


def cmd_folding(args, report: Report) -> None:
    dc = serialize.load(args.file)
    if not isinstance(dc, DoubleCategory):
        report.add("input-kinds", False, "expected a double-category file")
        return
    # a cofolding is a folding over the commutative globular monoids
    # accepted here, so one search answers all three lines
    result = find_folding(reconstruct_single_object_lift(dc))
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
    g = serialize.load(args.group)
    a = serialize.load(args.commutative)
    if not isinstance(g, Monoid) or not isinstance(a, Monoid):
        report.add("input-kinds", False, "expected two monoid files")
        return
    dec = group_decoration(g, a)
    actions = []
    for path in args.phis:
        phi = serialize.load(path)
        if not isinstance(phi, Precosheaf):
            report.add("input-kinds", False, f"{path} is not a precosheaf")
            return
        if phi.dec != dec:
            report.add("input-kinds", False, f"{path} is not a precosheaf over the decorated "
                                             "bicategory of the two monoid files")
            return
        maps = tuple(
            tuple(phi.on_cells2[m][x] for x in range(a.size)) for m in range(g.size)
        )
        actions.append(MonoidAction(g, a, maps))
    triangle = check_triangle_identities(g, a, actions)
    for name, ok, detail in triangle.entries:
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
    ld = fx.ld
    # building the lift ran the axiom suite and raised on the first failed law
    report.add("axioms", True)
    gd = gamma_data(ld.dc)
    report.info("vertical-length", str(gd.chain.stabilization_index))
    report.info("gg", str(gd.dc == ld.dc).lower())
    if isinstance(fx, SemidirectFixture):
        kind = "abelian" if fx.endo_monoid.is_commutative else "non-abelian"
        group = "group" if fx.endo_monoid.is_group() else "monoid"
        report.info("endo-monoid", f"order {fx.endo_monoid.size}, {kind} {group}")
        result = find_folding(ld)
        if isinstance(result, Folding):
            report.info("folding", "found")
        elif result.exhausted:
            report.info("folding", "absent")
        else:
            report.add("folding", False, "inconclusive")
    if isinstance(fx, GradedFixture):
        report.info("twist-isomorphism", "verified")


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


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report()
    try:
        args.func(args, report)
    except StructureError as exc:
        report.add(exc.law, False, exc.detail)
    except FileNotFoundError as exc:
        report.add("file-not-found", False, str(exc))
    except OSError as exc:
        report.add("file-error", False, str(exc))
    print(report.render(args.json))
    if report.passed:
        return 0
    print(f"first failing law: {report.first_failure()}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
