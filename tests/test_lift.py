import hashlib
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
    """Each square j is the pair keyed (f, x, payload), 2-cells included:
    the j-th key, a square from x to the bottom 1-cell of the payload with
    left side f.  The globular squares are exactly the 2-cells 0..n2-1: the
    invariant that pasting and lifted functors rely on."""
    b, c1 = ld.dec.bicat, ld.dc.c1
    assert list(ld.key_index.values()) == list(range(c1.n_morphisms))
    for j, (f, x, payload) in enumerate(ld.key_index):
        assert (c1.dom[j], c1.cod[j], ld.dc.src.morphism_map[j]) == (x, b.cod1[payload], f)
    assert {j for j in range(c1.n_morphisms) if ld.dc.is_globular(j)} == set(range(b.n2))


def test_every_corpus_lift_equals_its_checked_rebuild(corpus_lifts):
    for tag, ld in corpus_lifts:
        _assert_equals_its_checked_rebuild(ld)


# The SHA-256 of each corpus lift's canonical JSON.  The round-trip tests
# compare a lift only with itself, so a renumbered square or a changed table
# shows only here.
CORPUS_DIGESTS = {
    "semidirect:z3:z2:inv": "5a790f5082791dac3b0b62f0d87c44f4fa45a0bf20026bc544542dcc70caf744",
    "semidirect:z3:z2:triv": "dda572f9d1b43da23940aa35771a4846d3b1d30a2c74ff440d2a843eb41e3954",
    "semidirect:z4:z2:inv": "32a806822513ad77de74b7dd4b65e5cb9c0041321891c03052a92f45f9d75f79",
    "semidirect:z2:z3:triv": "81ce9b207bb91a8c360286b2795d9e8914fc3158f591c8c97a5f425a57b32e40",
    "graded:z2:z3:inv": "1e39a2c67b93a296bee7638d018a8b5b44c90f371e34e9e01edf436b17a5636e",
    "graded:z2:z4:inv": "bba7cf30979c099fae98b08468419eda70387db1f5ad963dd8ac2d02717dfdeb",
    "graded:z2:z3:triv": "36e9313c1183ea7fa6dc7b90f7698d70cb54b231d4ea1daec3a8afeab011fdbc",
    "constant:flag:z3": "486d690b7d7e3cbd287a73b6d2ae4235dfd9e9b3d85c41e44aa106955c1fa7cf",
    "identity:flag:z3": "edb5513402bc63b2fdb1b3c3694f0943da1c6b169ae0bbd94ef96a648f9196aa",
    "twoobject": "4e736a90e92f00c37c2dce78361474cddd467ee9e5b036d74eb0ebe0b181d63d",
}


def test_every_corpus_lift_keeps_its_canonical_bytes(corpus_lifts):
    digests = {tag: hashlib.sha256(dumps(ld.dc).encode()).hexdigest() for tag, ld in corpus_lifts}
    assert digests == CORPUS_DIGESTS


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
        keys = tuple(ld.key_index)
        for p in range(b.n2):
            assert keys[p][2] == p, tag
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
        dc, phi = ld.dc, ld.phi
        # the vertical sides and payload of each square
        sides = [(f, g, a) for f, g, (_, _, a) in zip(dc.src.morphism_map, dc.tgt.morphism_map,
                                                      ld.key_index)]
        n = dc.c1.n_morphisms
        for p in range(n):
            fp, gp, ap = sides[p]
            for q in range(n):
                fq, gq, aq = sides[q]
                if gp != fq:
                    continue
                for p2 in range(n):
                    fp2, gp2, ap2 = sides[p2]
                    if fp2 != gp or dc.c1.dom[p2] != dc.c1.cod[p]:
                        continue
                    for q2 in range(n):
                        fq2, gq2, aq2 = sides[q2]
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
                        assert sides[big][2] == want, (tag, p, q, p2, q2)
                        checked += 1
    assert checked > 0


def test_horizontal_identity_squares():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    ld = lift_data(_dec(z3, z2), _phi(z3, z2, MonoidAction.inversion(z3)))
    bstar = ld.dec.decoration
    for f in range(bstar.n_morphisms):
        p = ld.dc.hid.morphism_map[f]
        assert ld.dc.src.morphism_map[p] == f and ld.dc.tgt.morphism_map[p] == f
        payload = tuple(ld.key_index)[p][2]
        assert payload == ld.dec.bicat.id2[ld.dc.c1.dom[p]]


def test_square_triple_shape(corpus_lifts):
    for tag, ld in corpus_lifts:
        b, bstar, c1 = ld.dec.bicat, ld.dec.decoration, ld.dc.c1
        _assert_one_key_per_square(ld)
        for p, (f, _, payload) in enumerate(ld.key_index):
            g = ld.dc.tgt.morphism_map[p]
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
