"""Differential test of the adjunction machinery against the previous one.

The oracles below are the code as it was written before the pre-cosheaf
maps were taken from the globular monoid's endomorphisms:

- the map enumeration tried every one of the n2^n2 maps of 2-cells;
- extract_phi conjugated each globular square by the horizontal identity
  of a vertical morphism and of its inverse;
- lift_functor lifted the source and target of its map itself.

The oracle enumeration also writes the naturality square out itself.
The oracle triangle check is the loop as it was before it built each
comparison functor from the lift it already holds: it calls pi_functor,
which extracts and lifts again, and compares the naturality squares as
composite double functors.  Both give the same report entries, in the
same order, for every action family below.
The current code enumerates monoid endomorphisms only, reads every
one-object pre-cosheaf with single_object_precosheaf, and takes the two
lifts from its caller.  Both must give the same maps in the same order,
the same pre-cosheaves (or the same law when extraction fails) and the
same double functors, for every pair of actions of Z2, Z3 and the flag
monoid on every commutative target of size at most 5; extraction fails
with not-a-group on both sides for the flag monoid, which has no inverses.
"""

import itertools

import pytest

from doublelift.adjoint import (
    _globular,
    _globular_map,
    check_triangle_identities,
    enumerate_precosheaf_maps,
    extract_phi,
    group_decoration,
    pi_functor,
)
from doublelift.analysis import gamma_data
from doublelift.doublecat import DoubleFunctor, decorated_horizontalization, globular_squares
from doublelift.errors import StructureError
from doublelift.examples import fixture_by_name
from doublelift.fincat import FunctorData, Monoid, delooping, enumerate_actions, monoidal_delooping
from doublelift.grothendieck import Precosheaf, precosheaf_from_action
from doublelift.lift import PrecosheafMap, lift_data, lift_functor
from doublelift.twocat import decorate, suspend

from support import action_precosheaves, checked_rebuild, compose_double_functors, klein_four, null_monoid


def oracle_precosheaf_maps(phi, psi):
    b = phi.dec.bicat
    if phi.dec.decoration.n_objects != 1 or b.n1 != 1:
        raise StructureError("shape-mismatch", "enumeration needs the one-object shape")
    n2 = b.n2
    out = []
    for candidate in itertools.product(range(n2), repeat=n2):
        try:
            eta = PrecosheafMap(phi, psi, ({0: 0},), ({x: candidate[x] for x in range(n2)},))
        except StructureError:
            continue
        # the naturality square written out, so that a constructor which
        # stopped checking it cannot agree with itself here
        if all(candidate[phi.on_cells2[f][p]] == psi.on_cells2[f][candidate[p]]
               for f in range(len(phi.on_cells2)) for p in range(n2)):
            out.append(eta)
    return out


def _oracle_inverse(c, g):
    for h in range(c.c0.n_morphisms):
        if c.c0.compose(h, g) == c.c0.identity[0] == c.c0.compose(g, h):
            return h
    raise StructureError("not-a-group", f"vertical morphism {g} has no inverse")


def oracle_extract_phi(c):
    if c.c0.n_objects != 1:
        raise StructureError("shape-mismatch", "decoration must have a single object")
    if c.c1.n_objects != 1:
        raise StructureError("shape-mismatch", "expected a single horizontal 1-cell")
    for g in range(c.c0.n_morphisms):
        _oracle_inverse(c, g)
    gd = gamma_data(c)
    if gd.dc != c:
        raise StructureError("not-gg", "double category is not globularily generated")
    if len(gd.levels) != 1:
        raise StructureError("vertical-length", "vertical length must be 1")
    dec = decorated_horizontalization(c)
    glob = sorted(globular_squares(c))
    pos = {p: i for i, p in enumerate(glob)}
    on1, on2 = [], []
    for g in range(c.c0.n_morphisms):
        ig = c.hid.morphism_map[g]
        iginv = c.hid.morphism_map[_oracle_inverse(c, g)]
        mapping = {}
        for p in glob:
            image = c.c1.compose(ig, c.c1.compose(p, iginv))
            if image not in pos:
                raise StructureError("conjugation-not-globular", f"({g}, {p})")
            mapping[pos[p]] = pos[image]
        on1.append({0: 0})
        on2.append(mapping)
    return Precosheaf(dec, tuple(on1), tuple(on2))


def oracle_lift_functor(eta):
    src_ld = lift_data(eta.phi.dec, eta.phi)
    tgt_ld = lift_data(eta.psi.dec, eta.psi)
    b = eta.phi.dec.bicat
    bstar = eta.phi.dec.decoration
    obj_map = [eta.comp1[b.dom0[x]][x] if b.is_endo_1cell(x) else x for x in range(b.n1)]
    payload_of = {j: payload for (_, _, payload), j in src_ld.key_index.items()}
    mor_map = []
    for j in range(src_ld.dc.c1.n_morphisms):
        if j < b.n2:
            x = b.dom1[j]
            mor_map.append(eta.comp2[b.dom0[x]][j] if b.is_endo_1cell(x) else j)
        else:
            f = src_ld.dc.src.morphism_map[j]
            x = src_ld.dc.c1.dom[j]
            a, bb = bstar.dom[f], bstar.cod[f]
            mor_map.append(tgt_ld.key_index[(f, eta.comp1[a][x], eta.comp2[bb][payload_of[j]])])
    df = DoubleFunctor(FunctorData.identity(bstar),
                       FunctorData(src_ld.dc.c1, tgt_ld.dc.c1, tuple(obj_map), tuple(mor_map)))
    df.check(src_ld.dc, tgt_ld.dc)
    return df


def oracle_triangle_entries(g, a, actions):
    dec = group_decoration(g, a)
    entries = []
    lifts = []
    for i, action in enumerate(actions):
        phi = precosheaf_from_action(dec, action)
        ld = lift_data(dec, phi)

        recovered = extract_phi(ld.dc)
        ok = recovered == phi
        entries.append((f"round-trip[{i}]", ok, "extract_phi(lift) == phi"))

        pi = pi_functor(ld.dc)
        lifts.append((ld, pi, recovered))
        ident1 = tuple(range(ld.dc.c1.n_morphisms))
        ok = pi.f1.morphism_map == ident1 and pi.f1.object_map == (0,)
        entries.append((f"pi-identity[{i}]", ok, "pi on a lift is the identity"))

        eta = _globular_map(pi, *_globular(ld.dc), recovered, recovered)
        ident2 = {x: x for x in range(dec.bicat.n2)}
        ok = eta.comp2[0] == ident2
        entries.append((f"phi-of-pi-identity[{i}]", ok, "extracted map of pi is the identity"))

    for i, (ld1, pi1, phi1) in enumerate(lifts):
        for j, (ld2, pi2, phi2) in enumerate(lifts):
            for k, eta in enumerate(enumerate_precosheaf_maps(ld1.phi, ld2.phi)):
                f = lift_functor(eta, ld1, ld2)
                lhs = compose_double_functors(f, pi1)
                back = _globular_map(f, _globular(ld1.dc)[0], _globular(ld2.dc)[1], phi1, phi2)
                rhs = compose_double_functors(pi2, lift_functor(back, ld1, ld2))
                ok = lhs.f1.morphism_map == rhs.f1.morphism_map
                entries.append((f"naturality[{i},{j},{k}]", ok,
                                "comparison commutes with lifted maps"))
    return tuple(entries)


ACTING = {"z2": Monoid.cyclic(2), "z3": Monoid.cyclic(3), "flag": Monoid.flag()}
TARGETS = {**{f"z{n}": Monoid.cyclic(n) for n in range(1, 6)},
           "v4": klein_four(), "flag": Monoid.flag()}


@pytest.fixture(scope="module")
def lift_families():
    """(tag, lifts of every action of one acting monoid on one target)."""
    out = []
    for gname, g in ACTING.items():
        for aname, a in TARGETS.items():
            dec = decorate(delooping(g), suspend(monoidal_delooping(a)))
            lds = [lift_data(dec, precosheaf_from_action(dec, action))
                   for action in enumerate_actions(g, a)]
            out.append((f"{gname}:{aname}", lds))
    return out


def _outcome(fn, arg):
    try:
        return ("value", fn(arg))
    except StructureError as exc:
        return ("raised", exc.law)


def _maps(etas):
    return [(eta.phi, eta.psi, eta.comp1, eta.comp2) for eta in etas]


def test_extracted_precosheaves_match_the_oracle(lift_families):
    laws = set()
    for tag, lds in lift_families:
        for i, ld in enumerate(lds):
            got = _outcome(extract_phi, ld.dc)
            assert got == _outcome(oracle_extract_phi, ld.dc), (tag, i)
            laws.add(got[1] if got[0] == "raised" else "ok")
    assert laws == {"ok", "not-a-group"}


def test_maps_and_lifted_functors_match_the_oracle(lift_families):
    pairs = maps = 0
    for tag, lds in lift_families:
        for ld1, ld2 in itertools.product(lds, repeat=2):
            etas = enumerate_precosheaf_maps(ld1.phi, ld2.phi)
            assert _maps(etas) == _maps(oracle_precosheaf_maps(ld1.phi, ld2.phi)), tag
            for eta in etas:
                got = lift_functor(eta, ld1, ld2)
                want = oracle_lift_functor(eta)
                assert got.f1.object_map == want.f1.object_map, tag
                assert got.f1.morphism_map == want.f1.morphism_map, tag
            pairs += 1
            maps += len(etas)
    assert pairs > len(lift_families) and maps > pairs


def test_lift_functor_rejects_lifts_of_other_precosheaves(lift_families):
    tag, lds = next((tag, lds) for tag, lds in lift_families if len(lds) > 1)
    eta = PrecosheafMap.identity(lds[0].phi)
    with pytest.raises(StructureError, match="wiring"):
        lift_functor(eta, lds[0], lds[1])
    with pytest.raises(StructureError, match="wiring"):
        lift_functor(eta, lds[1], lds[0])


def _sweep():
    """(map, source lift, target lift) for every pre-cosheaf map between the
    actions of Z2, Z3, Z4 and the flag monoid on Z1-Z6, V4, the flag monoid
    and the null monoid of size 5, then the identity map of two fixtures
    with more than one 0-cell or a constant pre-cosheaf."""
    acting = [Monoid.cyclic(2), Monoid.cyclic(3), Monoid.cyclic(4), Monoid.flag()]
    targets = [Monoid.cyclic(n) for n in range(1, 7)] + [klein_four(), Monoid.flag(), null_monoid(5)]
    for g, a in itertools.product(acting, targets):
        dec = decorate(delooping(g), suspend(monoidal_delooping(a)))
        lds = [lift_data(dec, precosheaf_from_action(dec, action))
               for action in enumerate_actions(g, a)]
        for ld1, ld2 in itertools.product(lds, repeat=2):
            for eta in enumerate_precosheaf_maps(ld1.phi, ld2.phi):
                yield eta, ld1, ld2
    for name in ("twoobject", "constant:flag:z3"):
        ld = fixture_by_name(name)
        yield PrecosheafMap.identity(ld.phi), ld, ld


def test_unchecked_lifted_functors_equal_their_checked_build(monkeypatch):
    # lift_functor checks nothing: a checked map between checked lifts
    # gives a double functor by construction, which the checks confirm
    sweep = list(_sweep())
    validate, check = FunctorData._validate, DoubleFunctor.check
    calls = []
    monkeypatch.setattr(FunctorData, "_validate", lambda self: calls.append("validate"))
    monkeypatch.setattr(DoubleFunctor, "check", lambda self, c, d: calls.append("check"))
    built = [(lift_functor(eta, ld1, ld2), ld1, ld2) for eta, ld1, ld2 in sweep]
    assert calls == []
    monkeypatch.setattr(FunctorData, "_validate", validate)
    monkeypatch.setattr(DoubleFunctor, "check", check)
    for got, ld1, ld2 in built:
        want = DoubleFunctor(FunctorData.identity(ld1.dec.decoration), checked_rebuild(got.f1))
        want.check(ld1.dc, ld2.dc)
        assert got == want
    assert len(built) == 6614


@pytest.mark.parametrize("gname", ACTING)
def test_triangle_entries_match_the_oracle(gname):
    g = ACTING[gname]
    for aname, a in TARGETS.items():
        actions = enumerate_actions(g, a)
        got = _outcome(lambda acts: check_triangle_identities(action_precosheaves(g, a, acts)), actions)
        assert got == _outcome(lambda acts: oracle_triangle_entries(g, a, acts), actions), aname
        if gname == "flag":
            assert got == ("raised", "not-a-group"), aname
        else:
            assert got[0] == "value" and all(ok for _, ok, _ in got[1]), aname
