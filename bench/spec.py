"""The benchmark's workloads: their inputs, their job lists and the verdict
each job must return.

This module uses the standard library only, so the benchmark's parent
process can read it before it imports doublelift.

Input ids follow the CLI's fixture names: ``semidirect:zN:zM:ACTION`` is the
lift of (Omega ZM, 2 Omega ZN) along the action of ZM on ZN,
``graded:zG:zH:ACTION`` is the lift of the suspended G-graded category with
fibre H along the degree-fixing pre-cosheaf, and ``twoobject`` is the
hand-built two-object fixture.  ``adjunction:zA`` is the triangle-identity
check of Z2 acting on ZA by the trivial and the inversion action.
"""

from __future__ import annotations

from typing import Optional

# Expected verdicts, worked out by hand rather than taken from a run.
#
# * Semidirect ZN x| ZM: the lift has one square per element of N x| M, so
#   |N|.|M| squares.  Both actions used here are bijective, so every square
#   is the vertical composite of a horizontal identity square with a
#   globular one: the lift is globularily generated and its chain has one
#   level holding every square.
# * Graded G x H: |G| 1-cells (the degrees), |G|.|H| 2-cells and, for each
#   of the |G| - 1 non-identity vertical morphisms, one pair square per
#   degree and element, so |G|^2.|H| squares.  Only the pair squares on the
#   unit degree are reachable from globular and identity squares, so gamma
#   has |G|.|H| + (|G| - 1).|H| squares and the lift is not globularily
#   generated (tests/test_analysis.py::test_gg_status_of_the_corpus).
# * twoobject: four 2-cells plus the one pair square over a -> b, which is
#   the horizontal identity square of that morphism.
# * Every lift has vertical length 1
#   (tests/test_analysis.py::test_vertical_length_is_one_everywhere).
#
#                                squares  gamma  gg
LIFTS = {
    "semidirect:z3:z2:triv":    (6,       6,     True),
    "semidirect:z3:z3:triv":    (9,       9,     True),
    "semidirect:z3:z5:triv":    (15,      15,    True),
    "semidirect:z3:z7:triv":    (21,      21,    True),
    "semidirect:z5:z2:triv":    (10,      10,    True),
    "semidirect:z5:z3:triv":    (15,      15,    True),
    "semidirect:z5:z5:triv":    (25,      25,    True),
    "semidirect:z5:z7:triv":    (35,      35,    True),
    "semidirect:z7:z2:triv":    (14,      14,    True),
    "semidirect:z7:z3:triv":    (21,      21,    True),
    "semidirect:z7:z5:triv":    (35,      35,    True),
    "semidirect:z7:z7:triv":    (49,      49,    True),
    "semidirect:z9:z2:triv":    (18,      18,    True),
    "semidirect:z9:z3:triv":    (27,      27,    True),
    "semidirect:z9:z5:triv":    (45,      45,    True),
    "semidirect:z3:z2:inv":     (6,       6,     True),
    "semidirect:z5:z2:inv":     (10,      10,    True),
    "semidirect:z7:z2:inv":     (14,      14,    True),
    "semidirect:z9:z2:inv":     (18,      18,    True),
    "graded:z2:z3:inv":         (12,      9,     False),
    "graded:z2:z5:inv":         (20,      15,    False),
    "graded:z3:z3:triv":        (27,      15,    False),
    "graded:z3:z5:triv":        (45,      25,    False),
    "twoobject":                (5,       5,     True),
}

# Folding search on single-object lifts: (folding, cofolding, framed).  The
# identity family folds a trivial action.  Under inversion by Z2 the
# vertical law at (s, s) forces 2.lambda_s(y) = 0, which has no bijective
# solution when |A| is odd (tests/test_analysis.py, Z3 case).
FOLDINGS = {
    "semidirect:z5:z2:inv":  ("absent", "absent", "false"),
    "semidirect:z5:z2:triv": ("found",  "found",  "true"),
    "semidirect:z7:z2:inv":  ("absent", "absent", "false"),
    "semidirect:z7:z2:triv": ("found",  "found",  "true"),
    "semidirect:z5:z3:triv": ("found",  "found",  "true"),
}

# Triangle-identity report for Z2 acting on ZA by [trivial, inversion]: the
# 3 entries per action plus one naturality entry per pre-cosheaf map.  Maps
# are the endomorphisms x -> kx of ZA with k free between equal actions and
# 2k = 0 between different ones: 2(A + 1) maps for odd A, 2(A + 2) for A = 4.
# Every entry passes.
ADJUNCTIONS = {
    "adjunction:z3": 14,
    "adjunction:z4": 18,
    "adjunction:z5": 18,
}

# Named fixtures run end to end by ``doublelift example``.
EXAMPLES = {
    "semidirect:z6:z2:triv": {
        "axioms": "", "vertical-length": "1", "gg": "true",
        "endo-monoid": "order 12, abelian group", "folding": "found",
    },
    "graded:z2:z5:inv": {
        "axioms": "", "vertical-length": "1", "gg": "false",
        "twist-isomorphism": "verified",
    },
    "graded:z3:z4:triv": {
        "axioms": "", "vertical-length": "1", "gg": "false",
        "twist-isomorphism": "verified",
    },
}

AXIOM_LAWS = (
    "hid-section", "hcomp-totality-1cells", "hcomp-totality-squares", "hcomp-boundary",
    "hcomp-identity", "interchange", "hcomp-unit", "hcomp-associativity",
)

WHY = {
    "lift": "write path: builds the extended total category and the lift from small "
            "inputs, one axiom suite per job, writes large canonical JSON",
    "analyze": "read path: loads large lift files, runs the axiom suite 6 times per file "
               "and the gamma and chain closures, no enumeration",
    "search": "enumeration: n^n endomorphism search behind folding and examples, and "
              "brute-force pre-cosheaf maps behind adjunction; small lifts",
}


def _lifts(max_squares: int) -> list[str]:
    return [key for key in LIFTS if LIFTS[key][0] <= max_squares]


def jobs(workload: str, smoke: bool = False) -> list[tuple[str, str]]:
    """The (command, input id) pairs of one round, in canonical order.

    ``smoke`` picks a small ladder for the benchmark's own tests.
    """
    # Rungs are capped so that a run holds enough rounds for steady medians:
    # Z9 x| Z7 (63 squares) takes about 2 s to lift and Z9 x| Z5 about 0.7 s,
    # and Z5 x| Z7 and Z7 x| Z5 take 1.2-1.5 s to check and analyze.
    if workload == "lift":
        return [("lift", key) for key in _lifts(10 if smoke else 49)
                if key != "semidirect:z9:z5:triv"]
    if workload == "analyze":
        out = []
        for key in _lifts(10 if smoke else 27):
            out += [("check", key), ("analyze", key)]
        return out
    if workload == "search":
        if smoke:
            return [("folding", "semidirect:z5:z2:inv"), ("folding", "semidirect:z5:z2:triv"),
                    ("adjunction", "adjunction:z3"), ("example", "semidirect:z6:z2:triv")]
        return ([("folding", key) for key in FOLDINGS]
                + [("adjunction", "adjunction:z4"), ("adjunction", "adjunction:z5")]
                + [("example", name) for name in EXAMPLES])
    raise ValueError(f"unknown workload {workload!r}")


def stem(key: str) -> str:
    """File-name stem of an input id."""
    return key.replace(":", "_")


def inputs(job_list) -> dict[str, set[str]]:
    """Input id -> the file kinds the jobs need: "dec-phi" (a decorated
    bicategory and a pre-cosheaf), "lift" (a canonical lift file),
    "folding-lift" (a lift file whose globular monoid has ids that do not
    depend on the seed, see inputs.py) or "adjunction" (the monoids and the
    two pre-cosheaves)."""
    need: dict[str, set[str]] = {}
    for command, key in job_list:
        kind = {"lift": "dec-phi", "check": "lift", "analyze": "lift", "folding": "folding-lift",
                "adjunction": "adjunction"}.get(command)
        if kind:
            need.setdefault(key, set()).add(kind)
    return need


def argv(job: tuple[str, str], output: str) -> list[str]:
    """CLI arguments of a job; file names are relative to the input directory."""
    command, key = job
    s = stem(key)
    if command == "lift":
        return ["--json", "lift", f"{s}.dec.json", f"{s}.phi.json", "-o", output]
    if command in ("check", "analyze", "folding"):
        return ["--json", command, f"{s}.lift.json"]
    if command == "adjunction":
        return ["--json", "adjunction", f"{s}.g.json", f"{s}.a.json",
                f"{s}.triv.json", f"{s}.inv.json"]
    return ["--json", "example", key]


def verdict_error(job: tuple[str, str], report: dict) -> Optional[str]:
    """Why a job's JSON report differs from the expected verdict, or None."""
    command, key = job
    entries = report["entries"]
    failed = [e["name"] for e in entries if not e["passed"]]
    if failed or not report["passed"]:
        return f"failed entries {failed}"
    got = {e["name"]: e["detail"] for e in entries}
    if command == "lift":
        want = {"lift": f"{LIFTS[key][0]} squares"}
    elif command == "check":
        names = [e["name"] for e in entries]
        if names != ["structure", *AXIOM_LAWS]:
            return f"unexpected entries {names}"
        want = {"structure": "DoubleCategory valid"}
    elif command == "analyze":
        squares, gamma, gg = LIFTS[key]
        want = {"gamma-squares": f"{gamma} of {squares}", "gg": str(gg).lower(),
                "vertical-length": "1", "chain-sizes": str(gamma)}
        if set(got) != set(want):
            return f"unexpected entries {sorted(got)}"
    elif command == "folding":
        outcome = {name: got.get(name, "").split(" ")[0].rstrip(":")
                   for name in ("folding", "cofolding")}
        outcome["framed"] = got.get("framed")
        want = dict(zip(("folding", "cofolding", "framed"), FOLDINGS[key]))
        got = outcome
    elif command == "adjunction":
        if len(entries) != ADJUNCTIONS[key]:
            return f"{len(entries)} entries, expected {ADJUNCTIONS[key]}"
        want = {}
    else:
        want = EXAMPLES[key]
        if set(got) != set(want):
            return f"unexpected entries {sorted(got)}"
    wrong = {name: got.get(name) for name, value in want.items() if got.get(name) != value}
    return f"expected {want}, got {wrong}" if wrong else None
