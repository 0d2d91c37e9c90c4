"""Fixtures, oracles and input generators shared by the tests.

The package ships only what the command line and the paper's constructions
use; what only the tests need lives here.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Optional

from doublelift.doublecat import DoubleCategory, DoubleFunctor, HKey
from doublelift.examples import build_two_object_fixture, graded_category, object_fixing_precosheaf
from doublelift.fincat import (FiniteCategory, FunctorData, Monoid, MonoidAction, StrictMonoidalCategory,
                               delooping, monoid_homomorphisms, monoidal_delooping)
from doublelift.grothendieck import (Precosheaf, constant_precosheaf, identity_precosheaf,
                                     precosheaf_from_action)
from doublelift.lift import lift_data
from doublelift.twocat import DecoratedBicategory, StrictBicategory, decorate, suspend


def fixture_corpus() -> list[tuple[str, DecoratedBicategory, Precosheaf]]:
    """The (dec, phi) pairs exercised by the law tests."""
    z2, z3, z4 = Monoid.cyclic(2), Monoid.cyclic(3), Monoid.cyclic(4)
    flag = Monoid.flag()
    out = []

    def semi(n, m, action, tag):
        dec = decorate(delooping(m), suspend(monoidal_delooping(n)))
        out.append((tag, dec, precosheaf_from_action(dec, action)))

    semi(z3, z2, MonoidAction.inversion(z3), "semidirect:z3:z2:inv")
    semi(z3, z2, MonoidAction.trivial(z2, z3), "semidirect:z3:z2:triv")
    semi(z4, z2, MonoidAction.inversion(z4), "semidirect:z4:z2:inv")
    semi(z2, z3, MonoidAction.trivial(z3, z2), "semidirect:z2:z3:triv")

    for gm, hm, tag in ((z2, z3, "graded:z2:z3:inv"), (z2, z4, "graded:z2:z4:inv")):
        dec = decorate(delooping(gm), suspend(graded_category(gm, hm)))
        out.append((tag, dec, object_fixing_precosheaf(dec, gm, hm, MonoidAction.inversion(hm))))
    dec = decorate(delooping(z2), suspend(graded_category(z2, z3)))
    out.append(("graded:z2:z3:triv", dec,
                object_fixing_precosheaf(dec, z2, z3, MonoidAction.trivial(z2, z3))))

    decf = decorate(delooping(flag), suspend(monoidal_delooping(z3)))
    out.append(("constant:flag:z3", decf, constant_precosheaf(decf)))
    out.append(("identity:flag:z3", decf, identity_precosheaf(decf)))

    two = build_two_object_fixture()
    out.append(("twoobject", two.dec, two.phi))
    return out


def monoid_isomorphism(a: Monoid, b: Monoid) -> Optional[tuple[int, ...]]:
    """The lexicographically first isomorphism a -> b, or None."""
    if a.size != b.size:
        return None
    return next(monoid_homomorphisms(a, b.table, b.unit, injective=True), None)


def element_order(m: Monoid, x: int) -> int:
    k, acc = 1, x
    while acc != m.unit:
        acc = m.table[acc][x]
        k += 1
        if k > m.size + 1:
            return 0  # not of finite order through the unit (non-group monoid)
    return k


def discrete(n: int, validate: bool = True) -> FiniteCategory:
    return FiniteCategory(
        n, tuple(range(n)), tuple(range(n)), tuple(range(n)),
        {(i, i): i for i in range(n)}, validate=validate,
    )


def vertical_category(b: StrictBicategory, cells1, cells2) -> FiniteCategory:
    """The 1-cells ``cells1`` of ``b`` and the 2-cells ``cells2`` between
    them under vertical composition, renumbered in the given orders."""
    pos1 = {x: i for i, x in enumerate(cells1)}
    pos2 = {p: i for i, p in enumerate(cells2)}
    dom = tuple(pos1[b.dom1[p]] for p in cells2)
    cod = tuple(pos1[b.cod1[p]] for p in cells2)
    identity = tuple(pos2[b.id2[x]] for x in cells1)
    comp = {(pos2[q], pos2[p]): pos2[r] for (q, p), r in b.vcomp.items() if q in pos2 and p in pos2}
    return FiniteCategory(len(cells1), dom, cod, identity, comp)


def end_category(b: StrictBicategory, a: int) -> StrictMonoidalCategory:
    """End_B(a): endo 1-cells at ``a`` under vertical composition, tensored
    by horizontal composition."""
    cells1, cells2 = b.endo_cells[a]
    base = vertical_category(b, cells1, cells2)
    pos1 = {x: i for i, x in enumerate(cells1)}
    pos2 = {p: i for i, p in enumerate(cells2)}
    tensor_obj = {
        (pos1[x], pos1[y]): pos1[b.hcomp1[(x, y)]] for x in cells1 for y in cells1
    }
    tensor_mor = {
        (pos2[p], pos2[q]): pos2[b.hcomp2[(p, q)]] for p in cells2 for q in cells2
    }
    return StrictMonoidalCategory(base, pos1[b.id1[a]], tensor_obj, tensor_mor)


def trivial_double_category(c0: FiniteCategory, validate: bool = True) -> DoubleCategory:
    """The double category with only horizontal identity 1-cells over c0 and
    only identity globular squares plus the hid-images of c0-morphisms."""
    c1 = FiniteCategory(
        c0.n_objects, c0.dom, c0.cod, c0.identity, dict(c0.composition), validate=validate,
    )
    ident = FunctorData.identity(c1)
    src = FunctorData(c1, c0, ident.object_map, ident.morphism_map, validate=validate)
    tgt = src
    hid = FunctorData(c0, c1, tuple(range(c0.n_objects)), tuple(range(c0.n_morphisms)), validate=validate)
    # each 1-cell composes horizontally only with itself
    hcomp: dict[HKey, int] = {("ob", x, x): x for x in range(c1.n_objects)}
    for p in range(c1.n_morphisms):
        # src(p) = tgt(p) = p here, so squares compose horizontally only
        # with themselves
        hcomp[("sq", p, p)] = p
    return DoubleCategory(c1=c1, c0=c0, src=src, tgt=tgt, hid=hid, hcomp=hcomp, validate=validate)


def identity_double_functor(c: DoubleCategory) -> DoubleFunctor:
    return DoubleFunctor(FunctorData.identity(c.c0), FunctorData.identity(c.c1))


def compose_functors(g: FunctorData, f: FunctorData) -> FunctorData:
    """g after f."""
    return FunctorData(
        f.source, g.target,
        tuple(g.object_map[a] for a in f.object_map),
        tuple(g.morphism_map[x] for x in f.morphism_map),
    )


def compose_double_functors(g: DoubleFunctor, f: DoubleFunctor) -> DoubleFunctor:
    """g after f."""
    return DoubleFunctor(compose_functors(g.f0, f.f0), compose_functors(g.f1, f.f1))


def symmetric_group(n):
    perms = list(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(pos[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return Monoid(table, pos[tuple(range(n))])


def relabel(m: Monoid, perm) -> Monoid:
    """``m`` with element x renamed perm[x]."""
    inv = {p: x for x, p in enumerate(perm)}
    return Monoid(tuple(tuple(perm[m.mul(inv[x], inv[y])] for y in range(m.size))
                        for x in range(m.size)), perm[m.unit])


def klein_four():
    return Monoid(tuple(tuple(x ^ y for y in range(4)) for x in range(4)), 0)


def null_monoid(n: int) -> Monoid:
    """A zero (element 1) and n - 2 elements whose products are all the
    zero, with a unit (element 0) adjoined: only the zero is a product of
    other elements, so every other non-unit element is a generator, and
    every permutation of those elements is an automorphism."""
    return Monoid(tuple(tuple(y if x == 0 else x if y == 0 else 1 for y in range(n))
                        for x in range(n)), 0)


def checked_rebuild(value):
    """``value`` rebuilt from its fields by its checking constructor: each
    argument of the constructor but ``validate`` is read off ``value``."""
    params = inspect.signature(type(value)).parameters
    return type(value)(**{name: getattr(value, name) for name in params if name != "validate"})


def semidirect_lift(n, m, action):
    dec = decorate(delooping(m), suspend(monoidal_delooping(n)))
    return lift_data(dec, precosheaf_from_action(dec, action))


def action_precosheaves(m, n, actions) -> list[Precosheaf]:
    """The pre-cosheaf of each action of m on n, over (Omega M, 2 Omega N)."""
    dec = decorate(delooping(m), suspend(monoidal_delooping(n)))
    return [precosheaf_from_action(dec, action) for action in actions]
