from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from doublelift.analysis import single_object_precosheaf
from doublelift.errors import StructureError
from doublelift.examples import graded_category, object_fixing_precosheaf
from doublelift.fincat import Monoid, MonoidAction, delooping, enumerate_actions, monoidal_delooping
from doublelift.grothendieck import precosheaf_from_action
from doublelift.lift import PrecosheafMap, lift, lift_data, lift_functor
from doublelift.serialize import dumps, loads
from doublelift.twocat import decorate, suspend

from support import checked_rebuild, klein_four, null_monoid, relabel, semidirect_lift


def _dec(n, m):
    return decorate(delooping(m), suspend(monoidal_delooping(n)))


def _phi(n, m, action):
    return precosheaf_from_action(_dec(n, m), action)


def test_every_corpus_fixture_lifts(corpus_lifts):
    assert len(corpus_lifts) >= 8
    for tag, ld in corpus_lifts:
        # the laws are checked below, against the checked rebuild; spot
        # check the shape
        assert ld.dc.c0 == ld.dec.decoration, tag
        assert ld.dc.c1.n_objects == ld.dec.bicat.n1, tag


# lift_data builds c1, the three structure functors and the double category
# unchecked, relying on the lifting theorem; each must pass its laws when
# rebuilt by its checking constructor.


def _assert_equals_its_checked_rebuild(ld):
    dc = ld.dc
    for value in (dc.c1, dc.src, dc.tgt, dc.hid, dc):
        assert checked_rebuild(value) == value
    text = dumps(dc)
    assert dumps(loads(text)) == text


def _assert_one_key_per_square(ld):
    """Each square j is the pair keyed (f, top 1-cell, payload), 2-cells
    included, and the globular squares are exactly the 2-cells 0..n2-1:
    the invariant that pasting and lifted functors rely on."""
    c1 = ld.ext.cat
    for j, (f, _, payload) in enumerate(ld.ext.triples):
        assert ld.ext.key_index[(f, c1.dom[j], payload)] == j
    assert {j for j in range(c1.n_morphisms) if ld.dc.is_globular(j)} == set(range(ld.dec.bicat.n2))


def test_every_corpus_lift_equals_its_checked_rebuild(corpus_lifts):
    for tag, ld in corpus_lifts:
        _assert_equals_its_checked_rebuild(ld)


# Enumerating the actions on a null monoid of 6 elements takes 0.2 s for
# each acting monoid and 15 s for its actions on itself, so null monoids
# stop at 5 elements.
MONOIDS = (*map(Monoid.cyclic, range(1, 7)), Monoid.flag(), klein_four(), *map(null_monoid, range(3, 6)))


@st.composite
def _monoids(draw) -> Monoid:
    """A monoid of MONOIDS, relabelled so that its unit moves if it has
    more than one element."""
    m = draw(st.sampled_from(MONOIDS))
    return relabel(m, draw(st.permutations(range(m.size)).filter(
        lambda perm: m.size == 1 or perm[m.unit] != m.unit)))


_actions = lru_cache(maxsize=None)(enumerate_actions)


@settings(deadline=None)
@given(data=st.data())
def test_drawn_semidirect_lifts_equal_their_checked_rebuilds(data):
    m, n = data.draw(_monoids()), data.draw(_monoids())
    ld = semidirect_lift(n, m, data.draw(st.sampled_from(_actions(m, n))))
    _assert_equals_its_checked_rebuild(ld)
    _assert_one_key_per_square(ld)
    # the action reads back off the lift, twist included
    assert single_object_precosheaf(ld.dc) == ld.phi


@settings(deadline=None)
@given(data=st.data())
def test_drawn_graded_lifts_equal_their_checked_rebuilds(data):
    g, h = data.draw(_monoids()), data.draw(_monoids())
    dec = decorate(delooping(g), suspend(graded_category(g, h)))
    action = data.draw(st.sampled_from(_actions(g, h)))
    ld = lift_data(dec, object_fixing_precosheaf(dec, g, h, action))
    _assert_equals_its_checked_rebuild(ld)
    _assert_one_key_per_square(ld)


def test_two_cells_keep_their_identifiers(corpus_lifts):
    for tag, ld in corpus_lifts:
        b = ld.dec.bicat
        for p in range(b.n2):
            f, g, payload = ld.ext.triples[p]
            assert payload == p, tag
            assert ld.dc.is_globular(p), tag
        for p in range(b.n2, ld.dc.c1.n_morphisms):
            assert not ld.dc.is_globular(p), tag


def test_interchange_payload_identity_directly(corpus_lifts):
    """The payload form of interchange, checked from the raw tables without
    going through the axiom suite: pasting then stacking equals stacking
    then pasting, with the twist applied to the lower payloads."""
    checked = 0
    for tag, ld in corpus_lifts:
        b = ld.dec.bicat
        ext, dc, phi = ld.ext, ld.dc, ld.phi
        n = dc.c1.n_morphisms
        for p in range(n):
            fp, gp, ap = ext.triples[p]
            for q in range(n):
                fq, gq, aq = ext.triples[q]
                if gp != fq:
                    continue
                for p2 in range(n):
                    fp2, gp2, ap2 = ext.triples[p2]
                    if fp2 != gp or dc.c1.dom[p2] != dc.c1.cod[p]:
                        continue
                    for q2 in range(n):
                        fq2, gq2, aq2 = ext.triples[q2]
                        if gp2 != fq2 or dc.c1.dom[q2] != dc.c1.cod[q]:
                            continue
                        big = dc.hsq(dc.c1.compose(p2, p), dc.c1.compose(q2, q))
                        lower = b.hcomp2[(ap, aq)]
                        upper = b.hcomp2[(ap2, aq2)]
                        if ld.dec.decoration.is_identity(fp2):
                            twisted = lower
                        else:
                            twisted = phi.on_cells2[fp2][lower]
                        want = b.vcomp[(upper, twisted)]
                        assert ext.triples[big][2] == want, (tag, p, q, p2, q2)
                        checked += 1
    assert checked > 0


def test_horizontal_identity_squares():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    ld = lift_data(_dec(z3, z2), _phi(z3, z2, MonoidAction.inversion(z3)))
    bstar = ld.dec.decoration
    for f in range(bstar.n_morphisms):
        p = ld.dc.hid.morphism_map[f]
        g1, g2, payload = ld.ext.triples[p]
        assert g1 == f and g2 == f
        assert payload == ld.dec.bicat.id2[ld.ext.cat.dom[p]]


def test_square_triple_shape(corpus_lifts):
    for tag, ld in corpus_lifts:
        b, bstar, c1 = ld.dec.bicat, ld.dec.decoration, ld.ext.cat
        _assert_one_key_per_square(ld)
        for p in range(ld.dc.c1.n_morphisms):
            f, g, payload = ld.ext.triples[p]
            assert (f, g) == (ld.dc.src.morphism_map[p], ld.dc.tgt.morphism_map[p]), tag
            if p < b.n2:
                # a 2-cell of the bicategory between its own boundary 1-cells
                assert bstar.is_identity(f) and bstar.is_identity(g), tag
                assert payload == p, tag
                assert (c1.dom[p], c1.cod[p]) == (b.dom1[p], b.cod1[p]), tag
            else:
                # a pair square: equal non-identity sides, payload out of Phi_f(top)
                assert not bstar.is_identity(f) and f == g, tag
                assert b.dom1[payload] == ld.phi.on_cells1[f][c1.dom[p]], tag
                assert c1.cod[p] == b.cod1[payload], tag


def test_identity_precosheaf_map_gives_the_identity_functor():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    phi = _phi(z3, z2, MonoidAction.inversion(z3))
    eta = PrecosheafMap.identity(phi)
    df = lift_functor(eta, lift_data(phi.dec, phi), lift_data(phi.dec, phi))
    dc = lift(phi.dec, phi)
    assert df.f1.morphism_map == tuple(range(dc.c1.n_morphisms))
    assert eta.compose(eta).comp2 == eta.comp2


def test_collapse_map_between_different_actions():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    phi = _phi(z3, z2, MonoidAction.inversion(z3))
    psi = _phi(z3, z2, MonoidAction.trivial(z2, z3))
    collapse = PrecosheafMap(
        phi, psi, ({0: 0},), ({0: 0, 1: 0, 2: 0},),
    )
    df = lift_functor(collapse, lift_data(phi.dec, phi), lift_data(psi.dec, psi))
    src_ld = lift_data(phi.dec, phi)
    tgt_ld = lift_data(psi.dec, psi)
    df.check(src_ld.dc, tgt_ld.dc)
    # all globular squares land on the identity 2-cell
    for p in range(3):
        assert df.f1.morphism_map[p] == 0


def test_nonnatural_component_is_rejected():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    phi = _phi(z3, z2, MonoidAction.inversion(z3))
    psi = _phi(z3, z2, MonoidAction.trivial(z2, z3))
    with pytest.raises(StructureError, match="naturality"):
        PrecosheafMap(phi, psi, ({0: 0},), ({0: 0, 1: 1, 2: 2},))


def test_nonmonoidal_component_is_rejected():
    z2, z4 = Monoid.cyclic(2), Monoid.cyclic(4)
    phi = _phi(z4, z2, MonoidAction.trivial(z2, z4))
    with pytest.raises(StructureError, match="component-"):
        PrecosheafMap(phi, phi, ({0: 0},), ({0: 0, 1: 2, 2: 1, 3: 3},))


def test_composition_of_precosheaf_maps_checks_endpoints():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    phi = _phi(z3, z2, MonoidAction.inversion(z3))
    psi = _phi(z3, z2, MonoidAction.trivial(z2, z3))
    collapse = PrecosheafMap(phi, psi, ({0: 0},), ({0: 0, 1: 0, 2: 0},))
    with pytest.raises(StructureError, match="composition-mismatch"):
        collapse.compose(collapse)
    after = PrecosheafMap.identity(psi).compose(collapse)
    assert after.comp2 == collapse.comp2
