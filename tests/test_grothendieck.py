import pytest

from doublelift.errors import StructureError
from doublelift.fincat import (
    Monoid,
    MonoidAction,
    delooping,
    endomorphism_monoid_of_object,
    monoidal_delooping,
    semidirect_product,
)
from doublelift.grothendieck import (
    Precosheaf,
    constant_precosheaf,
    extended_total,
    identity_precosheaf,
    precosheaf_from_action,
)
from doublelift.twocat import decorate, suspend

from support import monoid_isomorphism


def _semidirect_dec(n, m):
    return decorate(delooping(m), suspend(monoidal_delooping(n)))


def test_precosheaf_from_action_validates():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = _semidirect_dec(z3, z2)
    phi = precosheaf_from_action(dec, MonoidAction.inversion(z3))
    assert phi.on_cells2[1] == {0: 0, 1: 2, 2: 1}


def test_nonfunctorial_family_is_rejected():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = _semidirect_dec(z3, z2)
    # the collapse map is an endomorphism but does not square to the identity
    on2 = ({0: 0, 1: 1, 2: 2}, {0: 0, 1: 0, 2: 0})
    with pytest.raises(StructureError, match="precosheaf-functoriality"):
        Precosheaf(dec, ({0: 0}, {0: 0}), on2)


def test_non_monoidal_component_is_rejected():
    z2, z4 = Monoid.cyclic(2), Monoid.cyclic(4)
    dec = _semidirect_dec(z4, z2)
    # an involutive bijection of Z4 that is not a monoid map
    swap = {0: 0, 1: 3, 2: 2, 3: 1}
    bad = {0: 0, 1: 1, 2: 3, 3: 2}
    with pytest.raises(StructureError):
        Precosheaf(dec, ({0: 0}, {0: 0}), ({0: 0, 1: 1, 2: 2, 3: 3}, bad))
    # the honest inversion passes
    Precosheaf(dec, ({0: 0}, {0: 0}), ({0: 0, 1: 1, 2: 2, 3: 3}, swap))


def test_constant_precosheaf_needs_no_invertible_composites():
    z3 = Monoid.cyclic(3)
    flag = Monoid.flag()
    ok = constant_precosheaf(_semidirect_dec(z3, flag))
    assert ok.on_cells2[1] == {0: 0, 1: 0, 2: 0}
    with pytest.raises(StructureError, match="precosheaf-functoriality"):
        constant_precosheaf(_semidirect_dec(z3, Monoid.cyclic(2)))


def test_identity_precosheaf_requires_endomorphisms():
    from doublelift.examples import build_two_object_fixture

    dec = build_two_object_fixture().dec
    with pytest.raises(StructureError, match="shape-mismatch"):
        identity_precosheaf(dec)


def test_total_category_is_the_semidirect_delooping():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = _semidirect_dec(z3, z2)
    phi = precosheaf_from_action(dec, MonoidAction.inversion(z3))
    # over a one-object decoration the total category is all of the extended one
    tot, _ = extended_total(dec, phi)
    assert tot.n_objects == 1
    assert tot.n_morphisms == 6
    monoid, _ = endomorphism_monoid_of_object(tot, 0)
    sd = semidirect_product(z3, z2, MonoidAction.inversion(z3))
    assert monoid_isomorphism(monoid, sd) is not None


def test_extended_total_keeps_two_cell_identifiers():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = _semidirect_dec(z3, z2)
    phi = precosheaf_from_action(dec, MonoidAction.trivial(z2, z3))
    cat, key_index = extended_total(dec, phi)
    keys = tuple(key_index)
    b = dec.bicat
    for p in range(b.n2):
        assert cat.dom[p] == b.dom1[p]
        assert cat.cod[p] == b.cod1[p]
        assert keys[p][2] == p
        # keyed as the pair over the identity of its left 0-cell
        assert key_index[(dec.decoration.identity[b.dom0[b.dom1[p]]], b.dom1[p], p)] == p
    # pair morphisms follow, one per (f, payload) here
    assert cat.n_morphisms == 6
    assert not dec.decoration.is_identity(keys[3][0])


def test_extended_total_composition_twists_by_the_action():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = _semidirect_dec(z3, z2)
    phi = precosheaf_from_action(dec, MonoidAction.inversion(z3))
    cat, key_index = extended_total(dec, phi)
    # (1, x) . (1, y) = (0, x + inv(y)) = the 2-cell x - y
    for x in range(3):
        for y in range(3):
            q = key_index[(1, 0, x)]
            p = key_index[(1, 0, y)]
            assert cat.compose(q, p) == (x - y) % 3


def test_mismatched_precosheaf_is_rejected():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = _semidirect_dec(z3, z2)
    other = _semidirect_dec(z3, Monoid.flag())
    phi = constant_precosheaf(other)
    with pytest.raises(StructureError, match="fiber-constraint"):
        extended_total(dec, phi)
