import pytest

import doublelift.adjoint
import doublelift.doublecat
from doublelift.adjoint import (
    check_triangle_identities,
    enumerate_precosheaf_maps,
    extract_phi,
    extracted_action,
    phi_of_double_functor,
    pi_functor,
)
from doublelift.errors import StructureError
from doublelift.fincat import Monoid, MonoidAction, delooping, enumerate_actions

from support import action_precosheaves, discrete, semidirect_lift, trivial_double_category


def test_extract_phi_round_trips_on_lifts():
    z2, z3, z4 = Monoid.cyclic(2), Monoid.cyclic(3), Monoid.cyclic(4)
    for n, m, act in [
        (z3, z2, MonoidAction.inversion(z3)),
        (z3, z2, MonoidAction.trivial(z2, z3)),
        (z4, z2, MonoidAction.inversion(z4)),
        (z3, z3, MonoidAction.trivial(z3, z3)),
    ]:
        ld = semidirect_lift(n, m, act)
        recovered = extract_phi(ld.dc)
        assert recovered.on_cells2 == ld.phi.on_cells2


def test_extracted_action_matches_the_input_action():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    act = MonoidAction.inversion(z3)
    ld = semidirect_lift(z3, z2, act)
    back = extracted_action(ld.dc)
    assert back.maps == act.maps


def test_extract_phi_rejects_monoid_decorations():
    flag = Monoid.flag()
    z3 = Monoid.cyclic(3)
    ld = semidirect_lift(z3, flag, MonoidAction.trivial(flag, z3))
    with pytest.raises(StructureError, match="not-a-group"):
        extract_phi(ld.dc)


def test_extract_phi_rejects_multi_object_input():
    dc = trivial_double_category(delooping(Monoid.cyclic(2)))
    extract_phi(dc)  # single object, single 1-cell: fine
    with pytest.raises(StructureError, match="shape-mismatch"):
        extract_phi(trivial_double_category(discrete(2)))


def test_pi_functor_on_a_lift_is_the_identity():
    z2, z4 = Monoid.cyclic(2), Monoid.cyclic(4)
    ld = semidirect_lift(z4, z2, MonoidAction.inversion(z4))
    pi = pi_functor(ld.dc)
    assert pi.f1.morphism_map == tuple(range(ld.dc.c1.n_morphisms))
    eta = phi_of_double_functor(pi, ld.dc, ld.dc)
    assert eta.comp2[0] == {x: x for x in range(4)}


def test_enumerate_precosheaf_maps_counts():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    phi_inv = semidirect_lift(z3, z2, MonoidAction.inversion(z3)).phi
    phi_triv = semidirect_lift(z3, z2, MonoidAction.trivial(z2, z3)).phi
    # endomorphisms of Z3 commuting with inversion: all three of them
    assert len(enumerate_precosheaf_maps(phi_inv, phi_inv)) == 3
    # maps from the inversion action to the trivial one must collapse
    maps = enumerate_precosheaf_maps(phi_inv, phi_triv)
    assert len(maps) == 1
    assert maps[0].comp2[0] == {0: 0, 1: 0, 2: 0}


def test_triangle_identities_over_the_full_grid():
    for g in (Monoid.cyclic(2), Monoid.cyclic(3)):
        for a in (Monoid.cyclic(3), Monoid.cyclic(4)):
            actions = enumerate_actions(g, a)
            assert actions
            entries = check_triangle_identities(action_precosheaves(g, a, actions))
            assert all(ok for _, ok, _ in entries), (g.size, a.size, entries)
            names = [name for name, _, _ in entries]
            assert any(name.startswith("round-trip") for name in names)
            assert any(name.startswith("naturality") for name in names)


def test_triangle_checker_rejects_non_groups():
    flag, z3 = Monoid.flag(), Monoid.cyclic(3)
    phis = action_precosheaves(flag, z3, [MonoidAction.trivial(flag, z3)])
    with pytest.raises(StructureError, match="not-a-group"):
        check_triangle_identities(phis)


def test_triangle_check_lifts_and_checks_each_action_once(monkeypatch):
    calls = {"lift_data": 0, "check_double_axioms": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(doublelift.adjoint, "lift_data")
    counted(doublelift.doublecat, "check_double_axioms")
    z2, z5 = Monoid.cyclic(2), Monoid.cyclic(5)
    actions = [MonoidAction.trivial(z2, z5), MonoidAction.inversion(z5)]
    assert all(ok for _, ok, _ in check_triangle_identities(action_precosheaves(z2, z5, actions)))
    assert calls == {"lift_data": 2, "check_double_axioms": 2}
