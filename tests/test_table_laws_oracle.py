"""Differential tests of the table-law checks against the loops they replaced.

The ``*_violations`` functions below are the list-building checkers that the
``Monoid``, ``MonoidMorphism``, ``FiniteCategory``, ``FunctorData``,
``StrictMonoidalCategory`` and ``StrictBicategory`` constructors ran before
associativity and interchange moved into the row kernels of ``fincat``.  On
one or two single-entry mutations (change a value, add a key, drop a key) of
the corpus tables and of the suspended deloopings of Z1-Z5:

* when every id is a cell, a constructor accepts exactly what its oracle
  accepts and otherwise raises the oracle's first violation, word for word;
  where the oracle crashes on such a table (a later loop indexes a table
  that an earlier law already failed), the constructor raises a
  ``StructureError``;
* when some id lies outside its cells, the constructor raises a
  ``StructureError``; the oracle may crash there, or read a negative id
  from the end of a table.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from doublelift.analysis import single_object_monoids
from doublelift.errors import StructureError
from doublelift.examples import graded_category
from doublelift.fincat import (
    FiniteCategory,
    FunctorData,
    Monoid,
    MonoidMorphism,
    StrictMonoidalCategory,
    monoid_endomorphisms,
    monoidal_delooping,
)
from doublelift.lift import lift_data
from doublelift.twocat import StrictBicategory, suspend

from support import discrete, end_category, fixture_corpus


def monoid_violations(table, unit) -> list[tuple[str, str]]:
    """Check a multiplication table against the monoid laws."""
    out: list[tuple[str, str]] = []
    n = len(table)
    if not (0 <= unit < n):
        return [("unit-range", f"unit {unit} outside [0, {n})")]
    for x, row in enumerate(table):
        if len(row) != n:
            return [("table-shape", f"row {x} has length {len(row)}, expected {n}")]
        for y, v in enumerate(row):
            if not (0 <= v < n):
                return [("table-range", f"table[{x}][{y}] = {v} outside [0, {n})")]
    for x in range(n):
        if table[unit][x] != x or table[x][unit] != x:
            out.append(("unit-law", f"unit fails at element {x}"))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    out.append(("associativity", f"({x}, {y}, {z})"))
    return out


def monoid_morphism_violations(src: Monoid, tgt: Monoid, mapping) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if len(mapping) != src.size:
        return [("map-shape", f"expected {src.size} entries, got {len(mapping)}")]
    if any(not (0 <= v < tgt.size) for v in mapping):
        return [("map-range", "value outside target")]
    if mapping[src.unit] != tgt.unit:
        out.append(("unit-preservation", f"unit maps to {mapping[src.unit]}"))
    for x in range(src.size):
        for y in range(src.size):
            if mapping[src.mul(x, y)] != tgt.mul(mapping[x], mapping[y]):
                out.append(("product-preservation", f"({x}, {y})"))
    return out


def category_violations(n_objects, dom, cod, identity, composition) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    n_mor = len(dom)
    if len(cod) != n_mor:
        return [("table-shape", "dom/cod length mismatch")]
    if len(identity) != n_objects:
        return [("table-shape", f"expected {n_objects} identity entries")]
    if any(not (0 <= d < n_objects) for d in dom) or any(not (0 <= c < n_objects) for c in cod):
        return [("boundary-range", "dom/cod outside object range")]
    for a, i in enumerate(identity):
        if not (0 <= i < n_mor) or dom[i] != a or cod[i] != a:
            out.append(("identity-boundary", f"identity of object {a}"))
    for (g, f), h in composition.items():
        if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= h < n_mor):
            return [("composition-range", f"entry ({g}, {f})")]
        if cod[f] != dom[g]:
            out.append(("composition-domain", f"({g}, {f}) not composable"))
        elif dom[h] != dom[f] or cod[h] != cod[g]:
            out.append(("composite-boundary", f"({g}, {f}) -> {h}"))
    for g in range(n_mor):
        for f in range(n_mor):
            if cod[f] == dom[g] and (g, f) not in composition:
                out.append(("composition-totality", f"({g}, {f}) missing"))
    if out:
        return out
    for f in range(n_mor):
        if composition[(f, identity[dom[f]])] != f or composition[(identity[cod[f]], f)] != f:
            out.append(("identity-law", f"morphism {f}"))
    for h in range(n_mor):
        for g in range(n_mor):
            if cod[g] != dom[h]:
                continue
            for f in range(n_mor):
                if cod[f] != dom[g]:
                    continue
                if composition[(composition[(h, g)], f)] != composition[(h, composition[(g, f)])]:
                    out.append(("associativity", f"({h}, {g}, {f})"))
    return out


def functor_violations(source: FiniteCategory, target: FiniteCategory,
                       object_map, morphism_map) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if len(object_map) != source.n_objects or len(morphism_map) != source.n_morphisms:
        return [("map-shape", "object/morphism map length mismatch")]
    if any(not (0 <= a < target.n_objects) for a in object_map):
        return [("map-range", "object map outside target")]
    if any(not (0 <= f < target.n_morphisms) for f in morphism_map):
        return [("map-range", "morphism map outside target")]
    for f in range(source.n_morphisms):
        if target.dom[morphism_map[f]] != object_map[source.dom[f]] or \
           target.cod[morphism_map[f]] != object_map[source.cod[f]]:
            out.append(("boundary-preservation", f"morphism {f}"))
    for a in range(source.n_objects):
        if morphism_map[source.identity[a]] != target.identity[object_map[a]]:
            out.append(("identity-preservation", f"object {a}"))
    if out:
        return out
    for (g, f), h in source.composition.items():
        if target.compose(morphism_map[g], morphism_map[f]) != morphism_map[h]:
            out.append(("composition-preservation", f"({g}, {f})"))
    return out


def monoidal_violations(base: FiniteCategory, unit_obj, tensor_obj, tensor_mor) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    n_obj, n_mor = base.n_objects, base.n_morphisms
    for a in range(n_obj):
        for b in range(n_obj):
            if (a, b) not in tensor_obj:
                return [("tensor-totality", f"objects ({a}, {b})")]
    for f in range(n_mor):
        for g in range(n_mor):
            if (f, g) not in tensor_mor:
                return [("tensor-totality", f"morphisms ({f}, {g})")]
    for f in range(n_mor):
        for g in range(n_mor):
            h = tensor_mor[(f, g)]
            if base.dom[h] != tensor_obj[(base.dom[f], base.dom[g])] or \
               base.cod[h] != tensor_obj[(base.cod[f], base.cod[g])]:
                out.append(("tensor-boundary", f"({f}, {g})"))
    if out:
        return out
    for a in range(n_obj):
        if tensor_obj[(unit_obj, a)] != a or tensor_obj[(a, unit_obj)] != a:
            out.append(("tensor-unit", f"object {a}"))
    for f in range(n_mor):
        iu = base.identity[unit_obj]
        if tensor_mor[(iu, f)] != f or tensor_mor[(f, iu)] != f:
            out.append(("tensor-unit", f"morphism {f}"))
    for a in range(n_obj):
        for b in range(n_obj):
            for c in range(n_obj):
                if tensor_obj[(tensor_obj[(a, b)], c)] != tensor_obj[(a, tensor_obj[(b, c)])]:
                    out.append(("tensor-associativity", f"objects ({a}, {b}, {c})"))
    for f in range(n_mor):
        for g in range(n_mor):
            for h in range(n_mor):
                if tensor_mor[(tensor_mor[(f, g)], h)] != tensor_mor[(f, tensor_mor[(g, h)])]:
                    out.append(("tensor-associativity", f"morphisms ({f}, {g}, {h})"))
                    break
    for a in range(n_obj):
        for b in range(n_obj):
            if tensor_mor[(base.identity[a], base.identity[b])] != base.identity[tensor_obj[(a, b)]]:
                out.append(("tensor-identity", f"({a}, {b})"))
    # interchange: (g (x) g') o (f (x) f') = (g o f) (x) (g' o f')
    for (g, f) in base.composition:
        for (g2, f2) in base.composition:
            lhs = base.compose(tensor_mor[(g, g2)], tensor_mor[(f, f2)])
            rhs = tensor_mor[(base.compose(g, f), base.compose(g2, f2))]
            if lhs != rhs:
                out.append(("interchange", f"(({g}, {f}), ({g2}, {f2}))"))
    return out


def bicategory_violations(n0, dom0, cod0, dom1, cod1, id1, id2,
                          vcomp, hcomp1, hcomp2) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    n1, n2 = len(dom0), len(dom1)
    if len(cod0) != n1 or len(cod1) != n2 or len(id1) != n0 or len(id2) != n1:
        return [("table-shape", "cell table lengths inconsistent")]
    if any(not (0 <= a < n0) for a in dom0 + cod0):
        return [("boundary-range", "1-cell endpoint outside 0-cells")]
    if any(not (0 <= x < n1) for x in dom1 + cod1):
        return [("boundary-range", "2-cell boundary outside 1-cells")]
    for p in range(n2):
        if dom0[dom1[p]] != dom0[cod1[p]] or cod0[dom1[p]] != cod0[cod1[p]]:
            out.append(("globe-boundary", f"2-cell {p} between non-parallel 1-cells"))
    for a in range(n0):
        if dom0[id1[a]] != a or cod0[id1[a]] != a:
            out.append(("identity-boundary", f"id1 of 0-cell {a}"))
    for x in range(n1):
        if dom1[id2[x]] != x or cod1[id2[x]] != x:
            out.append(("identity-boundary", f"id2 of 1-cell {x}"))
    if out:
        return out

    # vertical structure: each parallel class is a category
    for q in range(n2):
        for p in range(n2):
            if dom1[q] == cod1[p]:
                if (q, p) not in vcomp:
                    out.append(("vertical-totality", f"({q}, {p}) missing"))
            elif (q, p) in vcomp:
                out.append(("vertical-domain", f"({q}, {p}) not composable"))
    if out:
        return out
    for (q, p), r in vcomp.items():
        if dom1[r] != dom1[p] or cod1[r] != cod1[q]:
            out.append(("vertical-boundary", f"({q}, {p}) -> {r}"))
    for p in range(n2):
        if vcomp[(p, id2[dom1[p]])] != p or vcomp[(id2[cod1[p]], p)] != p:
            out.append(("vertical-identity", f"2-cell {p}"))
    for (q, p) in list(vcomp):
        for r in range(n2):
            if dom1[r] == cod1[q]:
                if vcomp[(vcomp[(r, q)], p)] != vcomp[(r, vcomp[(q, p)])]:
                    out.append(("vertical-associativity", f"({r}, {q}, {p})"))
    if out:
        return out

    # horizontal structure on 1-cells
    for x in range(n1):
        for y in range(n1):
            if cod0[x] == dom0[y]:
                if (x, y) not in hcomp1:
                    out.append(("horizontal-totality", f"1-cells ({x}, {y}) missing"))
            elif (x, y) in hcomp1:
                out.append(("horizontal-domain", f"1-cells ({x}, {y}) not composable"))
    if out:
        return out
    for (x, y), z in hcomp1.items():
        if dom0[z] != dom0[x] or cod0[z] != cod0[y]:
            out.append(("horizontal-boundary", f"1-cells ({x}, {y}) -> {z}"))
    for x in range(n1):
        if hcomp1[(id1[dom0[x]], x)] != x or hcomp1[(x, id1[cod0[x]])] != x:
            out.append(("horizontal-unit", f"1-cell {x}"))
    for (x, y) in list(hcomp1):
        for z in range(n1):
            if dom0[z] == cod0[y]:
                if hcomp1[(hcomp1[(x, y)], z)] != hcomp1[(x, hcomp1[(y, z)])]:
                    out.append(("horizontal-associativity", f"1-cells ({x}, {y}, {z})"))
    if out:
        return out

    # horizontal structure on 2-cells
    for p in range(n2):
        for q in range(n2):
            if cod0[dom1[p]] == dom0[dom1[q]]:
                if (p, q) not in hcomp2:
                    out.append(("horizontal-totality", f"2-cells ({p}, {q}) missing"))
            elif (p, q) in hcomp2:
                out.append(("horizontal-domain", f"2-cells ({p}, {q}) not composable"))
    if out:
        return out
    for (p, q), r in hcomp2.items():
        if dom1[r] != hcomp1[(dom1[p], dom1[q])] or cod1[r] != hcomp1[(cod1[p], cod1[q])]:
            out.append(("horizontal-boundary", f"2-cells ({p}, {q}) -> {r}"))
    for p in range(n2):
        li = id2[id1[dom0[dom1[p]]]]
        ri = id2[id1[cod0[dom1[p]]]]
        if hcomp2[(li, p)] != p or hcomp2[(p, ri)] != p:
            out.append(("horizontal-unit", f"2-cell {p}"))
    for (p, q) in list(hcomp2):
        for r in range(n2):
            if dom0[dom1[r]] == cod0[dom1[q]]:
                if hcomp2[(hcomp2[(p, q)], r)] != hcomp2[(p, hcomp2[(q, r)])]:
                    out.append(("horizontal-associativity", f"2-cells ({p}, {q}, {r})"))
    for (x, y), z in hcomp1.items():
        if hcomp2[(id2[x], id2[y])] != id2[z]:
            out.append(("horizontal-identity", f"id2 tensor at ({x}, {y})"))
    if out:
        return out

    # interchange (exchange law)
    for (q, p) in list(vcomp):
        for (q2, p2) in list(vcomp):
            if cod0[dom1[p]] != dom0[dom1[p2]]:
                continue
            lhs = vcomp[(hcomp2[(q, q2)], hcomp2[(p, p2)])]
            rhs = hcomp2[(vcomp[(q, p)], vcomp[(q2, p2)])]
            if lhs != rhs:
                out.append(("interchange", f"(({q}, {p}), ({q2}, {p2}))"))
    return out


# kind: (constructor, oracle, whether the oracle range-checks every id itself)
KINDS = {
    "monoid": (Monoid, monoid_violations, True),
    "monoid-morphism": (MonoidMorphism, monoid_morphism_violations, True),
    "category": (FiniteCategory, category_violations, True),
    "functor": (FunctorData, functor_violations, True),
    "monoidal-category": (StrictMonoidalCategory, monoidal_violations, False),
    "bicategory": (StrictBicategory, bicategory_violations, False),
}


@lru_cache(maxsize=None)
def _seeds() -> dict[str, list[tuple[tuple, tuple]]]:
    """Per kind, the seed tables as (constructor arguments, cell bound of
    each argument), with None marking an argument that is not mutated."""
    corpus = fixture_corpus()
    bicats = [dec.bicat for _, dec, _ in corpus]
    bicats += [suspend(monoidal_delooping(Monoid.cyclic(n))) for n in range(1, 6)]
    monoidals = [end_category(b, a) for b in bicats for a in range(b.n0)]
    monoidals.append(graded_category(Monoid.cyclic(2), Monoid.cyclic(3)))
    monoids = [Monoid.cyclic(n) for n in range(1, 6)] + [Monoid.flag()]
    for _, dec, _ in corpus:
        if dec.bicat.n0 == dec.bicat.n1 == 1:
            monoids.extend(single_object_monoids(dec))
    lifts = [lift_data(dec, phi).dc for _, dec, phi in corpus[::3]]
    # every boundary class of a discrete category has one member
    categories = [dec.decoration for _, dec, _ in corpus] + [c.c1 for c in lifts]
    categories += [discrete(1), discrete(4)]
    functors = [f for c in lifts for f in (c.src, c.tgt, c.hid)]

    def category(c):
        n, m = c.n_objects, c.n_morphisms
        return (n, c.dom, c.cod, c.identity, c.composition), (None, n, n, m, m)

    def bicategory(b):
        n0, n1, n2 = b.n0, b.n1, b.n2
        return ((n0, b.dom0, b.cod0, b.dom1, b.cod1, b.id1, b.id2, b.vcomp, b.hcomp1, b.hcomp2),
                (None, n0, n0, n1, n1, n1, n2, n2, n1, n2))

    return {
        "monoid": [((m.table, m.unit), (m.size, m.size)) for m in monoids],
        "monoid-morphism": [((m, m, f), (None, None, m.size))
                            for m in monoids[:6] for f in monoid_endomorphisms(m)],
        "category": [category(c) for c in categories],
        "functor": [((f.source, f.target, f.object_map, f.morphism_map),
                     (None, None, f.target.n_objects, f.target.n_morphisms)) for f in functors],
        "monoidal-category": [((d.base, d.unit_obj, d.tensor_obj, d.tensor_mor),
                               (None, d.base.n_objects, d.base.n_objects, d.base.n_morphisms))
                              for d in monoidals],
        "bicategory": [bicategory(b) for b in bicats],
    }


def _mutate(value, n: int, data):
    """``value`` with one id changed, or, in a table, one key added or
    dropped; new ids are drawn from -1 .. n and 999, so they may lie outside
    the n cells."""
    new = data.draw(st.one_of(st.integers(-1, n), st.just(999)))
    if isinstance(value, int):
        return new
    if isinstance(value, dict):
        table = dict(value)
        action = data.draw(st.sampled_from(["change", "add", "drop"]))
        if action == "change":
            table[data.draw(st.sampled_from(sorted(table)))] = new
        elif action == "add":
            table[(data.draw(st.integers(-1, n)), data.draw(st.integers(-1, n)))] = new
        else:
            del table[data.draw(st.sampled_from(sorted(table)))]
        return table
    entries = list(value)
    i = data.draw(st.integers(0, len(entries) - 1))
    entries[i] = _mutate(entries[i], n, data) if isinstance(entries[i], tuple) else new
    return tuple(entries)


def _cells(value, n: int) -> bool:
    if isinstance(value, int):
        return 0 <= value < n
    if isinstance(value, dict):
        return all(_cells(k, n) and _cells(v, n) for k, v in value.items())
    return all(_cells(v, n) for v in value)


def _outcome(build, args):
    try:
        build(*args)
    except StructureError as exc:
        return str(exc)
    return None


def _oracle_outcome(oracle, args):
    out = oracle(*args)
    return str(StructureError(*out[0])) if out else None


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None)
@given(data=st.data())
def test_constructors_agree_with_the_oracles(kind, data):
    # two mutations may break two tables, so the constructor must check its
    # laws across tables in the oracle's order
    cls, oracle, self_checked = KINDS[kind]
    args, bounds = data.draw(st.sampled_from(_seeds()[kind]))
    mutated = []
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.sampled_from([i for i, n in enumerate(bounds) if n is not None]))
        if args[i] == {}:  # the first mutation dropped the table's one key
            continue
        args = args[:i] + (_mutate(args[i], bounds[i], data),) + args[i + 1:]
        mutated.append(i)
    got = _outcome(cls, args)
    in_range = all(_cells(a, n) for a, n in zip(args, bounds) if n is not None)
    if self_checked or in_range:
        try:
            expected = _oracle_outcome(oracle, args)
        except (IndexError, KeyError):
            assert not self_checked, (kind, mutated)
            assert got is not None, (kind, mutated)
        else:
            assert got == expected, (kind, mutated)
    else:
        assert got is not None, (kind, mutated)


def test_the_seeds_pass_both_checks():
    for kind, (cls, oracle, _) in KINDS.items():
        for args, _ in _seeds()[kind]:
            assert _outcome(cls, args) is None and not oracle(*args), kind


@pytest.mark.parametrize("n", [4, 5])
def test_relabelled_composites_agree_with_the_oracles(n):
    """Relabel the 2-cells of one composite of the suspended delooping of Zn
    by a permutation fixing the unit.  The relabelled table is still a group
    law with the same unit, so every law but interchange holds, and
    interchange fails unless the permutation is an automorphism."""
    d = monoidal_delooping(Monoid.cyclic(n))
    b = suspend(d)
    cells = (b.n0, b.dom0, b.cod0, b.dom1, b.cod1, b.id1, b.id2)
    failures = []
    for perm in itertools.permutations(range(1, n)):
        sigma = (0, *perm)
        back = {v: i for i, v in enumerate(sigma)}
        table = {(p, q): back[d.tensor_mor[(sigma[p], sigma[q])]] for p, q in d.tensor_mor}
        for cls, oracle, args in (
            (StrictMonoidalCategory, monoidal_violations, (d.base, d.unit_obj, d.tensor_obj, table)),
            (StrictBicategory, bicategory_violations, cells + (b.vcomp, b.hcomp1, table)),
            (StrictBicategory, bicategory_violations, cells + (table, b.hcomp1, b.hcomp2)),
        ):
            got = _outcome(cls, args)
            assert got == _oracle_outcome(oracle, args), perm
            failures.append(got)
    assert any(got and got.startswith("interchange") for got in failures)
