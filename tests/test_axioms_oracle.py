"""Differential tests of the indexed double-category axiom suite against the
brute-force suite it replaced.

``oracle_axioms`` is the all-pairs checker: interchange loops over every
pair of composable pairs and discards the ones whose vertical sides do not
match, and associativity loops over every third square.  The indexed suite
must report the same (law, passed, witness) entries on lifts and on
corrupted tables, and its interchange must visit exactly the quadruples
that survive the brute-force filter.
"""

from __future__ import annotations

import itertools
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from doublelift.doublecat import LAWS, DoubleCategory, check_double_axioms
from doublelift.errors import StructureError
from doublelift.fincat import FiniteCategory, FunctorData, interchange_boxes

from support import discrete, trivial_double_category


def oracle_axioms(c: DoubleCategory) -> list[tuple[str, bool, Optional[tuple]]]:
    c0, c1 = c.c0, c.c1
    report: list[tuple[str, bool, Optional[tuple]]] = []

    def record(law, witness):
        report.append((law, witness is None, witness))

    def first(gen):
        for w in gen:
            return w
        return None

    record("hid-section", first(
        ("object", a) for a in range(c0.n_objects)
        if c.src.object_map[c.hid.object_map[a]] != a or c.tgt.object_map[c.hid.object_map[a]] != a
    ) or first(
        ("morphism", f) for f in range(c0.n_morphisms)
        if c.src.morphism_map[c.hid.morphism_map[f]] != f
        or c.tgt.morphism_map[c.hid.morphism_map[f]] != f
    ))

    def ob_witness():
        for x in range(c1.n_objects):
            for y in range(c1.n_objects):
                defined = ("ob", x, y) in c.hcomp
                if defined != (c.right0(x) == c.left0(y)):
                    return (x, y, "defined" if defined else "missing")
        return None

    record("hcomp-totality-1cells", ob_witness())

    def sq_witness():
        for p in range(c1.n_morphisms):
            for q in range(c1.n_morphisms):
                defined = ("sq", p, q) in c.hcomp
                if defined != (c.tgt.morphism_map[p] == c.src.morphism_map[q]):
                    return (p, q, "defined" if defined else "missing")
        return None

    record("hcomp-totality-squares", sq_witness())
    if any(not ok for _, ok, _ in report):
        return report

    record("hcomp-boundary", first(
        (x, y) for (kind, x, y) in c.hcomp if kind == "ob"
        and (c.left0(c.hob(x, y)) != c.left0(x) or c.right0(c.hob(x, y)) != c.right0(y))
    ) or first(
        (p, q)
        for (kind, p, q) in c.hcomp if kind == "sq"
        and (c.src.morphism_map[c.hsq(p, q)] != c.src.morphism_map[p]
             or c.tgt.morphism_map[c.hsq(p, q)] != c.tgt.morphism_map[q]
             or c1.dom[c.hsq(p, q)] != c.hob(c1.dom[p], c1.dom[q])
             or c1.cod[c.hsq(p, q)] != c.hob(c1.cod[p], c1.cod[q]))
    ))
    if not report[-1][1]:
        return report

    record("hcomp-identity", first(
        (x, y) for (kind, x, y) in c.hcomp if kind == "ob"
        and c.hsq(c1.identity[x], c1.identity[y]) != c1.identity[c.hob(x, y)]
    ))

    def interchange_witness():
        for (q, p) in c1.composition:
            for (q2, p2) in c1.composition:
                if c.tgt.morphism_map[p] != c.src.morphism_map[p2] or \
                   c.tgt.morphism_map[q] != c.src.morphism_map[q2]:
                    continue
                lhs = c1.compose(c.hsq(q, q2), c.hsq(p, p2))
                rhs = c.hsq(c1.compose(q, p), c1.compose(q2, p2))
                if lhs != rhs:
                    return (q, p, q2, p2)
        return None

    record("interchange", interchange_witness())

    def unit_witness():
        for x in range(c1.n_objects):
            il = c.hid.object_map[c.left0(x)]
            ir = c.hid.object_map[c.right0(x)]
            if c.hob(il, x) != x or c.hob(x, ir) != x:
                return ("ob", x)
        for p in range(c1.n_morphisms):
            il = c.hid.morphism_map[c.src.morphism_map[p]]
            ir = c.hid.morphism_map[c.tgt.morphism_map[p]]
            if c.hsq(il, p) != p or c.hsq(p, ir) != p:
                return ("sq", p)
        return None

    record("hcomp-unit", unit_witness())

    def assoc_witness():
        for (kind, x, y) in list(c.hcomp):
            if kind != "ob":
                continue
            for z in range(c1.n_objects):
                if c.left0(z) != c.right0(y):
                    continue
                if c.hob(c.hob(x, y), z) != c.hob(x, c.hob(y, z)):
                    return ("ob", x, y, z)
        for (kind, p, q) in list(c.hcomp):
            if kind != "sq":
                continue
            for r in range(c1.n_morphisms):
                if c.src.morphism_map[r] != c.tgt.morphism_map[q]:
                    continue
                if c.hsq(c.hsq(p, q), r) != c.hsq(p, c.hsq(q, r)):
                    return ("sq", p, q, r)
        return None

    record("hcomp-associativity", assoc_witness())
    return report


def _brute_force_quadruples(c: DoubleCategory) -> int:
    srcm, tgtm = c.src.morphism_map, c.tgt.morphism_map
    return sum(
        1
        for (q, p) in c.c1.composition
        for (q2, p2) in c.c1.composition
        if tgtm[p] == srcm[p2] and tgtm[q] == srcm[q2]
    )


def _lift(corpus_lifts, index):
    """A mutation input: a corpus lift, or the trivial double category over
    the discrete category on three objects, where every boundary class of
    each horizontal composition has one member."""
    inputs = [(tag, ld.dc) for tag, ld in corpus_lifts]
    inputs.append(("trivial:discrete3", trivial_double_category(discrete(3))))
    return inputs[index % len(inputs)]


def test_reports_agree_on_the_corpus(corpus_lifts):
    for tag, ld in corpus_lifts:
        report = check_double_axioms(ld.dc)
        assert report == oracle_axioms(ld.dc), tag
        assert tuple(law for law, _, _ in report) == LAWS, tag


def test_interchange_visits_exactly_the_composable_quadruples(corpus_lifts):
    # the box pass may take either orientation, so both must cover exactly
    # the quadruples that survive the brute-force filter
    for tag, ld in corpus_lifts:
        c = ld.dc
        v, h = (c.c1.dom, c.c1.cod), (c.tgt.morphism_map, c.src.morphism_map)
        for (vright, vleft), (hright, hleft) in ((v, h), (h, v)):
            visited = 0
            for qs, ps, groups in interchange_boxes(vright, vleft, hright, hleft):
                for q2s, p2s in groups:
                    visited += len(qs) * len(ps) * len(q2s) * len(p2s)
                    for q, p, q2, p2 in itertools.product(qs, ps, q2s, p2s):
                        assert vright[q] == vleft[p] and vright[q2] == vleft[p2], tag
                        assert hright[q] == hleft[q2] and hright[p] == hleft[p2], tag
            assert visited == _brute_force_quadruples(c), tag


# example counts follow the loaded profile, so that HYPOTHESIS_PROFILE=ci runs ten times as many
@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0),
       st.booleans(), st.none() | st.tuples(*[st.integers(min_value=0)] * 3),
       st.randoms(use_true_random=False))
def test_reports_agree_on_hcomp_mutations(corpus_lifts, which, entry, value, drop, added, rng):
    """Change or drop one entry, maybe add one in-range key of its kind,
    and shuffle the entries so that the kinds interleave.  The split keeps
    each kind's entries in the shuffled order, in which the oracle names
    its witnesses."""
    tag, c = _lift(corpus_lifts, which)
    hcomp = dict(c.hcomp)
    keys = sorted(hcomp)
    key = keys[entry % len(keys)]
    bound = c.c1.n_morphisms if key[0] == "sq" else c.c1.n_objects
    if drop:
        del hcomp[key]
    else:
        hcomp[key] = value % bound
    if added is not None:
        hcomp[(key[0], added[0] % bound, added[1] % bound)] = added[2] % bound
    items = list(hcomp.items())
    rng.shuffle(items)
    bad = DoubleCategory(c.c0, c.c1, c.src, c.tgt, c.hid, dict(items), validate=False)
    assert check_double_axioms(bad) == oracle_axioms(bad), (tag, key, added)


def _outcome(suite, c: DoubleCategory, composition) -> object:
    """The named law of a failed component, or the suite's report."""
    try:
        c1 = FiniteCategory(c.c1.n_objects, c.c1.dom, c.c1.cod, c.c1.identity, composition)
        src = FunctorData(c1, c.c0, c.src.object_map, c.src.morphism_map)
        tgt = FunctorData(c1, c.c0, c.tgt.object_map, c.tgt.morphism_map)
        hid = FunctorData(c.c0, c1, c.hid.object_map, c.hid.morphism_map)
    except StructureError as exc:
        return exc.law
    return suite(DoubleCategory(c.c0, c1, src, tgt, hid, c.hcomp, validate=False))


@settings(max_examples=settings.default.max_examples, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_reports_agree_on_composition_mutations(corpus_lifts, which, entry, value):
    tag, c = _lift(corpus_lifts, which)
    composition = dict(c.c1.composition)
    key = sorted(composition)[entry % len(composition)]
    composition[key] = value % c.c1.n_morphisms
    assert _outcome(check_double_axioms, c, composition) == \
        _outcome(oracle_axioms, c, composition), (tag, key)


@settings(max_examples=settings.default.max_examples, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
def test_reports_agree_on_relabelled_squares(corpus_lifts, which, first, second):
    """Swap two squares with the same boundary in the vertical composition
    table only.  The square category stays a category, src, tgt and hid stay
    functors, and the horizontal pastings no longer match, so the equational
    laws do the catching."""
    tag, c = _lift(corpus_lifts, which)
    c1 = c.c1
    hid_image = set(c.hid.morphism_map)

    def boundary(p):
        return (c1.dom[p], c1.cod[p], c.src.morphism_map[p], c.tgt.morphism_map[p])

    movable = [p for p in range(c1.n_morphisms) if p not in hid_image]
    if not movable:
        return
    a = movable[first % len(movable)]
    twins = [p for p in movable if p != a and boundary(p) == boundary(a)]
    if not twins:
        return
    b = twins[second % len(twins)]
    swap = {a: b, b: a}
    composition = {(swap.get(q, q), swap.get(p, p)): swap.get(r, r)
                   for (q, p), r in c1.composition.items()}
    assert _outcome(check_double_axioms, c, composition) == \
        _outcome(oracle_axioms, c, composition), (tag, a, b)


@pytest.mark.parametrize("tag", ["graded:z2:z3:inv", "semidirect:z4:z2:inv"])
def test_relabelled_squares_are_caught(corpus_lifts, tag):
    """Some square swap of each of these lifts breaks interchange, so the
    relabelling property above is not vacuous."""
    c = dict(corpus_lifts)[tag].dc
    c1 = c.c1
    hid_image = set(c.hid.morphism_map)
    caught = set()
    for a in range(c1.n_morphisms):
        for b in range(a + 1, c1.n_morphisms):
            if a in hid_image or b in hid_image:
                continue
            if (c1.dom[a], c1.cod[a], c.src.morphism_map[a], c.tgt.morphism_map[a]) != \
               (c1.dom[b], c1.cod[b], c.src.morphism_map[b], c.tgt.morphism_map[b]):
                continue
            swap = {a: b, b: a}
            composition = {(swap.get(q, q), swap.get(p, p)): swap.get(r, r)
                           for (q, p), r in c1.composition.items()}
            report = _outcome(check_double_axioms, c, composition)
            if isinstance(report, list):
                caught |= {law for law, ok, _ in report if not ok}
    assert "interchange" in caught
