"""Differential test of the homomorphism enumerator against brute force.

The oracles below are ``monoid_endomorphisms`` and ``enumerate_actions`` as
they were written before homomorphisms were enumerated from generators:
they try every map of the elements (every tuple of endomorphisms), in
lexicographic order.  The enumerator must return the same lists in the same
order, on every ladder monoid under relabellings that move the unit away
from 0, and ``monoid_isomorphism`` must return the first bijective
homomorphism the brute force finds, or None when there is none.
"""

import itertools
import math

from hypothesis import given, strategies as st

from doublelift.fincat import (
    Monoid,
    MonoidMorphism,
    cayley_tree,
    enumerate_actions,
    monoid_automorphisms,
    monoid_endomorphisms,
    monoid_homomorphisms,
)

from support import monoid_isomorphism, null_monoid, relabel


def oracle_homomorphisms(a: Monoid, b: Monoid) -> list[tuple[int, ...]]:
    out = []
    for candidate in itertools.product(range(b.size), repeat=a.size):
        if candidate[a.unit] != b.unit:
            continue
        if all(candidate[a.mul(x, y)] == b.mul(candidate[x], candidate[y])
               for x in range(a.size) for y in range(a.size)):
            out.append(candidate)
    return out


def oracle_endomorphisms(m: Monoid) -> list[tuple[int, ...]]:
    return oracle_homomorphisms(m, m)


def oracle_actions(acting: Monoid, target: Monoid) -> list[tuple[tuple[int, ...], ...]]:
    endos = oracle_endomorphisms(target)
    index = {f: i for i, f in enumerate(endos)}
    ident = tuple(range(target.size))
    out = []
    for assignment in itertools.product(range(len(endos)), repeat=acting.size):
        if endos[assignment[acting.unit]] != ident:
            continue
        if all(assignment[acting.mul(m1, m2)] == index.get(
                   tuple(endos[assignment[m1]][x] for x in endos[assignment[m2]]), -1)
               for m1 in range(acting.size) for m2 in range(acting.size)):
            out.append(tuple(endos[i] for i in assignment))
    return out


def _direct_product(a: Monoid, b: Monoid) -> Monoid:
    n = b.size
    return Monoid(tuple(tuple(a.mul(x1, y1) * n + b.mul(x2, y2) for y1 in range(a.size) for y2 in range(n))
                        for x1 in range(a.size) for x2 in range(n)), a.unit * n + b.unit)


Z2, FLAG = Monoid.cyclic(2), Monoid.flag()
MONOIDS = {
    **{f"z{n}": Monoid.cyclic(n) for n in range(1, 7)},
    "flag": FLAG,
    "z2xz2": _direct_product(Z2, Z2),
    "flagxz2": _direct_product(FLAG, Z2),
    "flagxflag": _direct_product(FLAG, FLAG),
    "null4": null_monoid(4),
    "null5": null_monoid(5),
    "null6": null_monoid(6),
}
ACTING = {"z2": Z2, "z3": Monoid.cyclic(3), "flag": FLAG}
# The brute force over actions tries |End(target)|^|acting| tuples of
# endomorphisms, 626^3 for Z3 acting on null6, so it runs on the rest.
ACTION_TARGETS = {k: m for k, m in MONOIDS.items() if k != "null6"}


@st.composite
def relabelled(draw, monoids):
    """One of ``monoids``, relabelled so that its unit is not 0 unless it
    has one element."""
    m = monoids[draw(st.sampled_from(sorted(monoids)))]
    perm = draw(st.permutations(range(m.size)).filter(lambda p: m.size == 1 or p[m.unit] != 0))
    return relabel(m, perm)


@given(relabelled(MONOIDS))
def test_endomorphisms_equal_the_brute_force_list(m):
    assert monoid_endomorphisms(m) == oracle_endomorphisms(m)


@given(relabelled(MONOIDS))
def test_automorphisms_equal_the_filtered_brute_force_list(m):
    assert monoid_automorphisms(m) == [f for f in oracle_endomorphisms(m) if len(set(f)) == m.size]


class _CountingTable(tuple):
    reads = 0

    def __getitem__(self, x):
        _CountingTable.reads += 1
        return tuple.__getitem__(self, x)


def test_injective_enumeration_reads_few_products_per_automorphism():
    """A null monoid's endomorphisms far outnumber its automorphisms
    (117,650 to 720 at size 8).  Cutting a branch at its first repeated
    image keeps the table reads per automorphism below 2 n^2 at sizes 6 to
    8; keeping the bijective endomorphisms takes 400 to 3,100 reads each."""
    for n in (6, 7, 8):
        m = null_monoid(n)
        _CountingTable.reads = 0
        autos = list(monoid_homomorphisms(m, _CountingTable(m.table), m.unit, injective=True))
        assert autos == monoid_automorphisms(m)
        assert len(autos) == math.factorial(n - 2)
        assert _CountingTable.reads < 2 * n * n * len(autos), n


@given(relabelled(ACTING), relabelled(ACTION_TARGETS))
def test_actions_equal_the_brute_force_list(acting, target):
    got = enumerate_actions(acting, target)
    assert [action.maps for action in got] == oracle_actions(acting, target)
    assert all(action.acting == acting and action.target == target for action in got)


@given(st.data())
def test_isomorphism_is_the_first_bijective_homomorphism(data):
    a = data.draw(relabelled(MONOIDS))
    b = data.draw(relabelled({k: m for k, m in MONOIDS.items() if m.size == a.size}))
    iso = monoid_isomorphism(a, b)
    bijections = [f for f in oracle_homomorphisms(a, b) if len(set(f)) == a.size]
    assert iso == (bijections[0] if bijections else None)
    if iso is not None:
        MonoidMorphism(a, b, iso)  # the constructor checks the laws


def test_monoids_of_different_sizes_are_not_isomorphic():
    assert monoid_isomorphism(MONOIDS["z4"], MONOIDS["z5"]) is None


def test_a_cyclic_group_on_its_own_labels_needs_one_generator():
    """So its endomorphisms cost n candidates, not n^n."""
    for n in range(2, 16):
        m = Monoid.cyclic(n)
        gens, tree = cayley_tree(m)
        assert gens == [1] and sorted(z for z, _, _ in tree) == list(range(1, n))
        assert monoid_endomorphisms(m) == [tuple(k * x % n for x in range(n)) for k in range(n)]
