"""Differential tests of the per-cell law passes against the walks and a
brute-force loop.

``fincat.associativity_failure`` decides associativity per cell on byte
rows (``fincat._associative``), and ``FunctorData`` and ``MonoidMorphism``
decide whether products are kept per source cell (``fincat.preserves``).
The walks that name the first failure run only on a failure, on short rows
or over more than 256 cells.  On the table-law oracle seeds, the corpus
lifts' tables and structure functors, and larger lifts and monoids, intact
or with one entry or one image replaced by another cell with the same
boundaries, so that every boundary law still holds:

* each pass holds exactly when the brute-force loop finds no failure;
* the walk, the kernel and the constructors name the brute-force loop's
  first failure.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from doublelift import fincat, twocat
from doublelift.errors import StructureError
from doublelift.examples import fixture_by_name, graded_category
from doublelift.fincat import (FiniteCategory, FunctorData, Monoid, MonoidMorphism, StrictMonoidalCategory,
                               associativity_failure, delooping)
from doublelift.lift import lift_data

from support import fixture_corpus, null_monoid
from test_table_laws_oracle import _seeds, functor_violations, monoid_morphism_violations


def brute_associativity(table, right, left, pairs):
    """The first ``(x, y, z)`` with ``(x y) z != x (y z)``, over ``pairs``
    in order and every ``z`` that composes, ascending."""
    for x, y in pairs:
        for z in range(len(left)):
            if left[z] == right[y] and table[table[x, y], z] != table[x, table[y, z]]:
                return x, y, z
    return None


def row_pass(table, right, left, pairs) -> bool:
    classes, pos, rows = fincat.class_rows(table, right, left)
    return fincat._associative(rows, right, classes, pos)


def walk(table, right, left, pairs):
    """The kernel with its per-cell pass skipped, so that the walk runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fincat, "_associative", lambda *_: False)
        return associativity_failure(table, right, left, pairs)


def _agree(args, tag):
    brute = brute_associativity(*args)
    assert row_pass(*args) is (brute is None), tag
    assert walk(*args) == brute, tag
    assert associativity_failure(*args) == brute, tag
    return brute


def _monoid(m: Monoid):
    ops, ends = {(x, y): v for x, row in enumerate(m.table) for y, v in enumerate(row)}, (0,) * m.size
    return ops, ends, ends, list(ops)


def _category(comp, dom, cod):
    return comp, dom, cod, sorted(comp)


def _lift_tables(tag, dc):
    c1 = dc.c1
    parts = {kind: {key[1:]: w for key, w in dc.hcomp.items() if key[0] == kind} for kind in ("ob", "sq")}
    return [(f"{tag} c1", _category(c1.composition, c1.dom, c1.cod)),
            (f"{tag} ob", (parts["ob"], dc.tgt.object_map, dc.src.object_map, list(parts["ob"]))),
            (f"{tag} sq", (parts["sq"], dc.tgt.morphism_map, dc.src.morphism_map, list(parts["sq"])))]


@lru_cache(maxsize=None)
def _large_lifts():
    # 27 squares each, so that rows are long enough for the per-cell passes
    # to run inside the kernel; the graded lift has three boundary classes
    return [(name, fixture_by_name(name).dc) for name in ("semidirect:z9:z3:triv", "graded:z3:z3:triv")]


@lru_cache(maxsize=None)
def _tables() -> list[tuple[str, tuple]]:
    """Associativity arguments ``(table, right, left, pairs)``: the table-law
    oracle seeds, among them each bicategory's vertical composition with its
    pairs swapped, the corpus lifts' square categories and pastings, two
    larger lifts and three larger monoids."""
    seeds = _seeds()
    out = [(f"monoid[{i}]", _monoid(Monoid(*args))) for i, (args, _) in enumerate(seeds["monoid"])]
    out += [(f"category[{i}]", _category(args[4], args[1], args[2]))
            for i, (args, _) in enumerate(seeds["category"])]
    for i, ((base, _, tensor_obj, tensor_mor), _) in enumerate(seeds["monoidal-category"]):
        for name, table, n in (("objects", tensor_obj, base.n_objects), ("morphisms", tensor_mor, base.n_morphisms)):
            ends = (0,) * n
            out.append((f"monoidal[{i}] {name}", (table, ends, ends, list(itertools.product(range(n), repeat=2)))))
    for i, ((_, dom0, cod0, dom1, cod1, _, _, vcomp, hcomp1, hcomp2), _) in enumerate(seeds["bicategory"]):
        left, right = [dom0[x] for x in dom1], [cod0[x] for x in dom1]
        out += [(f"bicategory[{i}] vertical", ({(p, q): v for (q, p), v in vcomp.items()}, cod1, dom1,
                                               [(p, q) for q, p in vcomp])),
                (f"bicategory[{i}] 1-cells", (hcomp1, cod0, dom0, list(hcomp1))),
                (f"bicategory[{i}] 2-cells", (hcomp2, right, left, list(hcomp2)))]
    for tag, dec, phi in fixture_corpus():
        out += _lift_tables(tag, lift_data(dec, phi).dc)
    for tag, dc in _large_lifts():
        out += _lift_tables(tag, dc)
    out += [(f"monoid {name}", _monoid(m))
            for name, m in (("z8", Monoid.cyclic(8)), ("z9", Monoid.cyclic(9)), ("null8", null_monoid(8)))]
    return out


def _changed(args, entry: int, choice: int):
    """``args`` with the composite of one pair replaced by another cell of
    the same boundaries, or None if there is no other such cell."""
    table, right, left, pairs = args
    key = sorted(table)[entry % len(table)]
    v = table[key]
    same = [c for c in range(len(right)) if c != v and left[c] == left[v] and right[c] == right[v]]
    if not same:
        return None
    return {**table, key: same[choice % len(same)]}, right, left, pairs


# ---------------------------------------------------------------------------
# preservation of products, by functors and monoid morphisms


def brute_functor(source: FiniteCategory, target: FiniteCategory, mmap):
    for (g, f), h in source.composition.items():
        if target.composition[mmap[g], mmap[f]] != mmap[h]:
            return g, f
    return None


def functor_pass(source: FiniteCategory, target: FiniteCategory, mmap) -> bool:
    classes, _, rows = fincat.class_rows(source.composition, source.dom, source.cod)
    comp = target.composition
    return fincat.preserves(rows, source.dom, classes, mmap,
                            lambda u, vs: [comp[u, v] for v in vs])


def brute_morphism(source: Monoid, target: Monoid, mapping):
    return next(((x, y) for x in range(source.size) for y in range(source.size)
                 if mapping[source.mul(x, y)] != target.mul(mapping[x], mapping[y])), None)


def morphism_pass(source: Monoid, target: Monoid, mapping) -> bool:
    n = source.size
    return fincat.preserves(source.table, (0,) * n, {0: range(n)}, mapping,
                            lambda u, vs: [target.mul(u, v) for v in vs])


def _outcomes(cls, args):
    """The constructor's failure, with the per-cell pass running where its
    rows are long enough and with the pass skipped, so that the walk runs."""
    out = []
    for skip in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if skip:
                patch.setattr(fincat, "preserves", lambda *_: False)
            try:
                cls(*args)
            except StructureError as exc:
                out.append(str(exc))
            else:
                out.append(None)
    return out


def _expected(oracle, args):
    found = oracle(*args)
    return str(StructureError(*found[0])) if found else None


def _agree_functor(source, target, omap, mmap, tag):
    brute = brute_functor(source, target, mmap)
    assert functor_pass(source, target, mmap) is (brute is None), tag
    expected = _expected(functor_violations, (source, target, omap, mmap))
    assert _outcomes(FunctorData, (source, target, omap, mmap)) == [expected] * 2, tag
    return brute


def _agree_morphism(source, target, mapping, tag):
    brute = brute_morphism(source, target, mapping)
    assert morphism_pass(source, target, mapping) is (brute is None), tag
    expected = _expected(monoid_morphism_violations, (source, target, mapping))
    assert _outcomes(MonoidMorphism, (source, target, mapping)) == [expected] * 2, tag
    return brute


@lru_cache(maxsize=None)
def _functors() -> list[tuple[str, FunctorData]]:
    """The structure functors of the corpus lifts and of the larger lifts:
    ``src`` and ``tgt`` take many squares to one morphism, ``hid`` is
    injective."""
    lifts = [(tag, lift_data(dec, phi).dc) for tag, dec, phi in fixture_corpus()] + _large_lifts()
    return [(f"{tag} {name}", getattr(dc, name)) for tag, dc in lifts for name in ("src", "tgt", "hid")]


@lru_cache(maxsize=None)
def _morphisms() -> list[tuple[str, Monoid, Monoid, tuple[int, ...]]]:
    """The table-law oracle's monoid endomorphisms, and morphisms out of Z8
    and Z9, whose rows have ``MIN_ROW`` entries or more."""
    out = [(f"monoid-morphism[{i}]", *args) for i, (args, _) in enumerate(_seeds()["monoid-morphism"])]
    for n in (8, 9):
        zn = Monoid.cyclic(n)
        out += [(f"z{n} times {k}", zn, zn, tuple(k * x % n for x in range(n))) for k in range(n)]
        out += [(f"z{n} mod {d}", zn, Monoid.cyclic(d), tuple(x % d for x in range(n))) for d in (2, 3, 4)
                if n % d == 0]
    return out


def _changed_image(functor: FunctorData, f: int, choice: int):
    """The morphism map with the image of ``f`` replaced by another
    morphism with the same boundaries, or None if there is none."""
    target, mmap = functor.target, functor.morphism_map
    g = mmap[f]
    same = [h for h in range(target.n_morphisms)
            if h != g and target.dom[h] == target.dom[g] and target.cod[h] == target.cod[g]]
    if not same:
        return None
    return mmap[:f] + (same[choice % len(same)],) + mmap[f + 1:]


# ---------------------------------------------------------------------------
# tests


def test_every_intact_input_passes_every_check():
    for tag, args in _tables():
        assert _agree(args, tag) is None
    for tag, functor in _functors():
        assert _agree_functor(functor.source, functor.target, functor.object_map, functor.morphism_map,
                              tag) is None
    for tag, source, target, mapping in _morphisms():
        assert _agree_morphism(source, target, mapping, tag) is None


def test_long_rows_are_decided_by_the_per_cell_passes():
    # tables whose rows average MIN_ROW entries or more are decided by the
    # associativity pass inside the kernel, with no walk.  Preservation is
    # decided by its pass where each target row read serves four source
    # cells: src and tgt of the semidirect lift (27 squares onto 3
    # morphisms) and Z12 onto Z3, not the graded lift's (9 target rows for
    # 27 squares), nor any hid, which is injective
    calls = []
    associative, preserves = fincat._associative, fincat.preserves
    z12, z3 = Monoid.cyclic(12), Monoid.cyclic(3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fincat, "_associative", lambda *args: calls.append("a") or associative(*args))
        patch.setattr(fincat, "preserves", lambda *args: calls.append("p") or preserves(*args))
        long = [args for _, args in _tables() if fincat.MIN_ROW * len(args[1]) <= len(args[0])]
        for args in long:
            assert associativity_failure(*args) is None
        assert calls == ["a"] * len(long) and len(long) >= 8
        for tag, functor in _functors()[-6:]:
            calls.append(tag)
            FunctorData(functor.source, functor.target, functor.object_map, functor.morphism_map)
        MonoidMorphism(z12, z3, tuple(x % 3 for x in range(12)))
    lifts = [tag for tag, _ in _functors()[-6:]]
    assert calls[len(long):] == [lifts[0], "p", lifts[1], "p", *lifts[2:], "p"]


def test_each_row_set_is_built_once():
    # the discrete bicategory builds the rows of its vertical composition in
    # both orientations, for associativity and for interchange, and those of
    # each horizontal composition once; a monoidal category those of each
    # tensor once, and reads the kept rows of its validated base
    built = []
    class_rows = fincat.class_rows
    n = 50
    cells, diagonal = range(n), {(i, i): i for i in range(n)}
    d = graded_category(Monoid.cyclic(3), Monoid.cyclic(4))
    with pytest.MonkeyPatch.context() as patch:
        for module in (fincat, twocat):
            patch.setattr(module, "class_rows", lambda *args: built.append(args) or class_rows(*args))
        twocat.StrictBicategory(n, cells, cells, cells, cells, cells, cells, diagonal, diagonal, diagonal)
        assert len(built) == 4
        StrictMonoidalCategory(d.base, d.unit_obj, d.tensor_obj, d.tensor_mor)
    assert len(built) == 6


def _every_change(args):
    """``args`` with each composite in turn replaced by each other cell of
    the same boundaries."""
    table, right, left, pairs = args
    for key, v in sorted(table.items()):
        for c in range(len(right)):
            if c != v and left[c] == left[v] and right[c] == right[v]:
                yield {**table, key: c}, right, left, pairs


def test_every_changed_entry_of_the_multi_class_tables_agrees():
    # exhaustive over the tables with more than one boundary class, so that
    # a pass that skipped a class, or compared part of a row, would be seen
    checked = failed = 0
    for tag, args in _tables():
        if len(set(args[1])) > 1 and len(args[0]) <= 400:
            for changed in _every_change(args):
                checked += 1
                failed += _agree(changed, tag) is not None
    assert checked > 1000 and failed > 500


@settings(deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_associativity_agrees_on_a_changed_entry(index, entry, choice):
    tag, args = _tables()[index % len(_tables())]
    changed = _changed(args, entry, choice)
    if changed is not None:
        _agree(changed, (tag, entry, choice))


def test_every_changed_image_agrees():
    checked = failed = 0
    for tag, functor in _functors():
        for f in range(functor.source.n_morphisms):
            for choice in range(functor.target.n_morphisms):
                mmap = _changed_image(functor, f, choice)
                if mmap is None or mmap == _changed_image(functor, f, 0) and choice:
                    break
                checked += 1
                failed += _agree_functor(functor.source, functor.target, functor.object_map, mmap,
                                         (tag, f, choice)) is not None
    for tag, source, target, mapping in _morphisms():
        if source.size >= fincat.MIN_ROW:
            for x, v in itertools.product(range(source.size), range(target.size)):
                checked += 1
                failed += _agree_morphism(source, target, mapping[:x] + (v,) + mapping[x + 1:],
                                          (tag, x, v)) is not None
    assert checked > 1000 and failed > 500


@settings(deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_preservation_agrees_on_a_changed_image(index, f, choice):
    tag, functor = _functors()[index % len(_functors())]
    mmap = _changed_image(functor, f % functor.source.n_morphisms, choice)
    if mmap is not None:
        _agree_functor(functor.source, functor.target, functor.object_map, mmap, (tag, f, choice))
    tag, source, target, mapping = _morphisms()[index % len(_morphisms())]
    x = f % source.size
    _agree_morphism(source, target, mapping[:x] + (choice % target.size,) + mapping[x + 1:], (tag, x, choice))


def _copies(m: Monoid, k: int) -> FiniteCategory:
    """``k`` disjoint copies of the delooping of ``m``, one object each."""
    n = m.size
    comp = {(i * n + x, i * n + y): i * n + v for i in range(k)
            for x, row in enumerate(m.table) for y, v in enumerate(row)}
    ends = [i for i in range(k) for _ in range(n)]
    return FiniteCategory(k, ends, ends, [i * n + m.unit for i in range(k)], comp)


def test_over_256_cells_the_walks_decide():
    # long rows, and a functor whose target rows each serve 33 source
    # cells, so only the size of the bytes keeps the passes from running
    cat = _copies(Monoid.cyclic(8), 33)
    args = _category(cat.composition, cat.dom, cat.cod)
    n = 264
    z8 = delooping(Monoid.cyclic(8))
    big = delooping(Monoid(tuple(tuple((x + y) % n for y in range(n)) for x in range(n)), validate=False))
    mod8 = tuple(x % 8 for x in range(n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fincat, "_associative", None)
        patch.setattr(fincat, "preserves", None)
        assert associativity_failure(*args) is None
        for entry in (0, 1000, 2111):
            changed = _changed(args, entry, 1)
            assert associativity_failure(*changed) == brute_associativity(*changed) is not None
        FunctorData(big, z8, (0,), mod8)
        for x, v in ((1, 2), (100, 0), (263, 3)):
            mmap = mod8[:x] + (v,) + mod8[x + 1:]
            expected = _expected(functor_violations, (big, z8, (0,), mmap))
            assert expected == f"composition-preservation: {brute_functor(big, z8, mmap)}"
            with pytest.raises(StructureError) as caught:
                FunctorData(big, z8, (0,), mmap)
            assert str(caught.value) == expected
