"""Seeded generator of the benchmark's input files.

The seed permutes the element ids of the generated monoids, so the unit is
not always element 0.  Relabelling keeps every verdict, since verdicts are
isomorphism invariants, and it keeps the cost of the exhaustive law checks.
It does not keep the cost of the brute-force n^n endomorphism enumeration,
which stops at the first failing product and so depends on the ids:
``monoid_endomorphisms`` on Z7 takes 0.21-0.40 s with the unit elsewhere and
0.49-0.71 s with the unit at 0, over random labellings on one host.  The
globular monoid A of a folding input therefore takes one labelling drawn
from a stream that depends on the input id only, so that the search
workload's figures depend on the code and not on the seed; its acting
monoid is still relabelled by the seed.

Each input draws from its own stream, seeded by the run's seed and the
input id, so an input does not depend on which other inputs a workload
needs.
"""

from __future__ import annotations

import os
import random

from doublelift import serialize
from doublelift.examples import build_two_object_fixture, graded_category, object_fixing_precosheaf
from doublelift.fincat import Monoid, MonoidAction, delooping, monoidal_delooping
from doublelift.grothendieck import precosheaf_from_action
from doublelift.lift import lift
from doublelift.twocat import decorate, suspend

from spec import stem


def cyclic(n: int, rng: random.Random) -> Monoid:
    """Z_n with its element ids shuffled."""
    label = list(range(n))
    rng.shuffle(label)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[label[x]][label[y]] = label[(x + y) % n]
    return Monoid(tuple(tuple(row) for row in table), label[0])


def action(kind: str, acting: Monoid, target: Monoid) -> MonoidAction:
    """The trivial action, or Z2 acting on an abelian group by inversion."""
    if kind == "triv":
        return MonoidAction.trivial(acting, target)
    ident = tuple(range(target.size))
    inverse = tuple(target.inverse(x) for x in range(target.size))
    return MonoidAction(acting, target,
                        tuple(ident if m == acting.unit else inverse for m in range(acting.size)))


def _order(token: str) -> int:
    return int(token[1:])


def dec_phi(key: str, rng: random.Random, seeded_first: bool = True):
    """The decorated bicategory and pre-cosheaf of a lift input id."""
    if key == "twoobject":
        fx = build_two_object_fixture()
        return fx.dec, fx.phi
    kind, first, second, act = key.split(":")
    a = cyclic(_order(first), rng if seeded_first else random.Random(key))
    b = cyclic(_order(second), rng)
    if kind == "semidirect":
        dec = decorate(delooping(b), suspend(monoidal_delooping(a)))
        return dec, precosheaf_from_action(dec, action(act, b, a))
    dec = decorate(delooping(a), suspend(graded_category(a, b)))
    return dec, object_fixing_precosheaf(dec, a, b, action(act, a, b))


def _write(directory: str, name: str, value) -> None:
    with open(os.path.join(directory, name), "w") as fh:
        fh.write(serialize.dumps(value))


def generate(need: dict[str, set[str]], seed: int, directory: str) -> None:
    """Write the files that ``spec.inputs`` lists into ``directory``."""
    for key in sorted(need):
        rng = random.Random(f"{seed}:{key}")
        s = stem(key)
        if "adjunction" in need[key]:
            g, a = cyclic(2, rng), cyclic(_order(key.split(":")[1]), rng)
            dec = decorate(delooping(g), suspend(monoidal_delooping(a)))
            _write(directory, f"{s}.g.json", g)
            _write(directory, f"{s}.a.json", a)
            for act in ("triv", "inv"):
                _write(directory, f"{s}.{act}.json", precosheaf_from_action(dec, action(act, g, a)))
            continue
        dec, phi = dec_phi(key, rng, seeded_first="folding-lift" not in need[key])
        if "dec-phi" in need[key]:
            _write(directory, f"{s}.dec.json", dec)
            _write(directory, f"{s}.phi.json", phi)
        if need[key] & {"lift", "folding-lift"}:
            _write(directory, f"{s}.lift.json", lift(dec, phi))
