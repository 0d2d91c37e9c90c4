import pytest

import doublelift.adjoint
import doublelift.doublecat
import doublelift.fincat
from doublelift.adjoint import (
    check_triangle_identities,
    enumerate_precosheaf_maps,
    extract_phi,
    phi_of_double_functor,
    pi_functor,
)
from doublelift.errors import StructureError
from doublelift.fincat import Monoid, MonoidAction, delooping, enumerate_actions

from support import action_precosheaves, discrete, null_monoid, semidirect_lift, trivial_double_category


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
    # a lift is a double category by the lifting theorem, so none is checked
    assert calls == {"lift_data": 2, "check_double_axioms": 0}


def test_triangle_check_budget_counts_pairs_times_endomorphisms(monkeypatch):
    # Z2 acting on Z3 trivially and by inversion: 2 x 2 ordered pairs of
    # pre-cosheaves times 3 endomorphisms of Z3 make 12 candidates
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    phis = action_precosheaves(z2, z3, [MonoidAction.trivial(z2, z3), MonoidAction.inversion(z3)])
    monkeypatch.delenv("DOUBLELIFT_SEARCH_LIMIT", raising=False)
    full = check_triangle_identities(phis)
    assert len(full) == 6 + 8 and all(ok for _, ok, _ in full)
    monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", "12")
    assert check_triangle_identities(phis) == full
    monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", "11")
    assert check_triangle_identities(phis) == (
        *full[:6], ("naturality", False, "inconclusive (budget 11 exceeded)"))


def test_triangle_check_budget_bounds_the_endomorphisms_drawn(monkeypatch):
    drawn = []
    original = doublelift.fincat.monoid_homomorphisms

    def counted(*args, **kwargs):
        for hom in original(*args, **kwargs):
            drawn.append(hom)
            yield hom
    monkeypatch.setattr(doublelift.fincat, "monoid_homomorphisms", counted)
    monkeypatch.setattr(doublelift.adjoint, "monoid_homomorphisms", counted)
    monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", "1000")
    z2, a = Monoid.cyclic(2), null_monoid(8)
    triv = MonoidAction.trivial(z2, a)
    entries = check_triangle_identities(action_precosheaves(z2, a, [triv, triv]))
    assert entries[-1] == ("naturality", False, "inconclusive (budget 1000 exceeded)")
    assert len(entries) == 7 and all(ok for _, ok, _ in entries[:6])
    # 2 x 2 ordered pairs: floor(1000 / 4) + 1 endomorphisms decide it
    assert 0 < len(drawn) <= 251
