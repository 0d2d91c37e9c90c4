import pytest

from doublelift.analysis import (
    Folding,
    SearchCertificate,
    find_cofolding,
    find_folding,
    framed_flag,
    gamma,
    gamma_data,
    gg_criterion_surjective,
    is_gg,
    reconstruct_single_object_lift,
    single_object_precosheaf,
    v1_membership,
    validate_folding,
    vertical_chain,
    vertical_length,
)
from doublelift.doublecat import DoubleCategory
from doublelift.errors import StructureError
from doublelift.examples import fixture_by_name
from doublelift.fincat import FiniteCategory, FunctorData, Monoid, MonoidAction, delooping

from support import discrete, semidirect_lift, trivial_double_category


def test_gamma_is_idempotent(corpus_lifts):
    for tag, ld in corpus_lifts:
        g = gamma(ld.dc)
        assert gamma(g) == g, tag


def test_gamma_contains_globulars_and_identities(corpus_lifts):
    for tag, ld in corpus_lifts:
        gd = gamma_data(ld.dc)
        kept = set(gd.square_ids)
        for p in range(ld.dc.c1.n_morphisms):
            if ld.dc.is_globular(p):
                assert p in kept, tag
        for p in ld.dc.hid.morphism_map:
            assert p in kept, tag


def test_gg_status_of_the_corpus(corpus_lifts):
    status = {tag: is_gg(ld.dc) for tag, ld in corpus_lifts}
    assert status["semidirect:z3:z2:inv"]
    assert status["constant:flag:z3"]
    assert status["identity:flag:z3"]
    # a non-trivially graded lift has squares at degrees no pasting of
    # globular and identity squares can reach
    assert not status["graded:z2:z3:inv"]
    assert not status["graded:z2:z4:inv"]


def test_vertical_chain_is_monotone_and_stabilizes(corpus_lifts):
    for tag, ld in corpus_lifts:
        chain = vertical_chain(ld.dc)
        squares = gamma(ld.dc).c1
        for level in chain:
            squares.restrict(level)  # raises unless the level is a subcategory
        for k in range(1, len(chain)):
            assert set(chain[k - 1]) < set(chain[k]), tag


def test_vertical_length_is_one_everywhere(corpus_lifts):
    for tag, ld in corpus_lifts:
        assert vertical_length(ld.dc) == 1, tag


def test_vertical_length_of_a_trivial_double_category():
    dc = trivial_double_category(delooping(Monoid.cyclic(3)))
    assert vertical_length(dc) == 1
    assert is_gg(dc)


def test_v1_membership_agrees_with_the_chain(corpus_lifts):
    for tag, ld in corpus_lifts:
        chain = vertical_chain(ld.dc)
        gd = gamma_data(ld.dc)
        v1 = {gd.square_ids[p] for p in chain[0]}
        for p in range(ld.dec.bicat.n2, ld.dc.c1.n_morphisms):  # the pair squares
            member, witness = v1_membership(ld, p)
            assert member == (p in v1), (tag, p)
            if member:
                psi, eta = witness
                i_f = ld.dc.hid.morphism_map[ld.dc.src.morphism_map[p]]
                composite = ld.dc.c1.compose(
                    eta, ld.dc.c1.compose(i_f, psi))
                assert composite == p, (tag, p)


def test_v1_membership_rejects_globular_input():
    ld = semidirect_lift(Monoid.cyclic(3), Monoid.cyclic(2), MonoidAction.inversion(Monoid.cyclic(3)))
    with pytest.raises(StructureError, match="not-a-pair-square"):
        v1_membership(ld, 0)


def test_v1_membership_rejects_squares_outside_the_pair_range():
    # the pair squares are n2 .. n_morphisms - 1; -1 used to read the last
    # pair square and n_morphisms to raise a bare IndexError
    ld = semidirect_lift(Monoid.cyclic(3), Monoid.cyclic(2), MonoidAction.inversion(Monoid.cyclic(3)))
    n2, n = ld.dec.bicat.n2, ld.dc.c1.n_morphisms
    assert (n2, n) == (3, 6)
    for square in (n2 - 1, -1, n):
        with pytest.raises(StructureError, match="not-a-pair-square") as err:
            v1_membership(ld, square)
        assert err.value.detail == f"square {square}"


def test_folding_absent_for_the_inversion_action():
    z3, z2 = Monoid.cyclic(3), Monoid.cyclic(2)
    ld = semidirect_lift(z3, z2, MonoidAction.inversion(z3))
    result = find_folding(ld.phi)
    assert isinstance(result, SearchCertificate)
    assert result.exhausted
    assert framed_flag(ld.phi) is False


def test_folding_present_for_the_trivial_action():
    z3, z2 = Monoid.cyclic(3), Monoid.cyclic(2)
    ld = semidirect_lift(z3, z2, MonoidAction.trivial(z2, z3))
    fold = find_folding(ld.phi)
    assert isinstance(fold, Folding)
    validate_folding(ld.phi, fold)
    cofold = find_cofolding(ld.phi)
    assert cofold == fold
    assert framed_flag(ld.phi) is True


def test_validate_folding_rejects_a_broken_family():
    z3, z2 = Monoid.cyclic(3), Monoid.cyclic(2)
    ld = semidirect_lift(z3, z2, MonoidAction.trivial(z2, z3))
    ident = (0, 1, 2)
    with pytest.raises(StructureError, match="folding-vertical"):
        validate_folding(ld.phi, Folding((ident, (0, 2, 1))))
    with pytest.raises(StructureError, match="folding-identity"):
        validate_folding(ld.phi, Folding(((0, 2, 1), ident)))
    with pytest.raises(StructureError, match="folding-bijectivity|folding-horizontal"):
        validate_folding(ld.phi, Folding((ident, (0, 0, 0))))


def test_search_limit_can_force_an_inconclusive_certificate(monkeypatch):
    z3, z2 = Monoid.cyclic(3), Monoid.cyclic(2)
    ld = semidirect_lift(z3, z2, MonoidAction.inversion(z3))
    monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", "1")
    result = find_folding(ld.phi)
    assert isinstance(result, SearchCertificate)
    assert not result.exhausted
    assert result.limit == 1
    assert framed_flag(ld.phi) is None


def test_reconstruction_round_trip():
    z4, z2 = Monoid.cyclic(4), Monoid.cyclic(2)
    ld = semidirect_lift(z4, z2, MonoidAction.inversion(z4))
    back = reconstruct_single_object_lift(ld.dc)
    assert back.phi.on_cells2 == ld.phi.on_cells2
    assert back.dc.hcomp == ld.dc.hcomp


def test_reconstruction_rejects_multi_object_input():
    dc = trivial_double_category(delooping(Monoid.cyclic(2)))
    reconstruct_single_object_lift(dc)  # one object, fine
    with pytest.raises(StructureError, match="shape-mismatch"):
        reconstruct_single_object_lift(trivial_double_category(discrete(2)))


# On the semidirect:z3:z2:inv lift the globular squares are 0, 1, 2, the
# horizontal identity of the non-unit vertical morphism 1 is square 3, the
# composites q . i_1 are 3, 4, 5 and the composites i_1 . p are 3, 5, 4.
# Replacing 1 . i_1 by 2 . i_1 = 5 gives payload 1 two matches; replacing it
# by the globular 0, which no q . i_1 reaches, leaves payload 2 with none.
@pytest.mark.parametrize("composite, payload", [(5, 1), (0, 2)])
def test_reading_the_action_rejects_a_composite_that_is_not_a_lift(composite, payload):
    c = fixture_by_name("semidirect:z3:z2:inv").dc
    assert c.hid.morphism_map[1] == 3 and c.c1.compose(1, 3) == 4 and c.c1.compose(2, 3) == 5
    sq = c.c1
    c1 = FiniteCategory(sq.n_objects, sq.dom, sq.cod, sq.identity, {**sq.composition, (1, 3): composite},
                        validate=False)
    mutated = DoubleCategory(c.c0, c1, c.src, c.tgt, c.hid, c.hcomp, validate=False)
    with pytest.raises(StructureError) as info:
        single_object_precosheaf(mutated)
    assert info.value.law == "not-a-lift"
    assert info.value.detail == f"action of 1 on payload {payload} is ambiguous"


def test_surjectivity_criterion_implies_gg(corpus_lifts):
    applied = 0
    for tag, ld in corpus_lifts:
        b = ld.dec.bicat
        if ld.dec.decoration.n_objects != 1 or b.n0 != 1 or b.n1 != 1:
            with pytest.raises(StructureError, match="shape-mismatch"):
                gg_criterion_surjective(ld.phi)
            continue
        applied += 1
        if gg_criterion_surjective(ld.phi):
            assert is_gg(ld.dc), tag
    assert applied >= 5


def test_gamma_is_unvalidated_but_closed(corpus_lifts):
    # gamma skips the axiom suite; re-running it on the result finds no
    # failure because a closed sub-double category inherits every law
    from doublelift.doublecat import check_double_axioms

    for tag, ld in corpus_lifts:
        gd = gamma_data(ld.dc)
        assert all(ok for _, ok, _ in check_double_axioms(gd.dc)), tag
        assert gd.levels[-1] == tuple(range(gd.dc.c1.n_morphisms)), tag
        assert vertical_chain(ld.dc) == gd.levels, tag


@pytest.mark.parametrize("name", ["semidirect:z3:z2:inv", "graded:z2:z3:inv", "twoobject"])
def test_gamma_cuts_one_square_category(monkeypatch, name):
    # the chain keeps square sets only; the one category cut is gamma's own,
    # and a globularily generated input is its own gamma, with no cut at all
    gg = name != "graded:z2:z3:inv"
    dc = fixture_by_name(name).dc
    calls = []
    restrict = FiniteCategory.restrict

    def counted(self, morphisms):
        calls.append(self)
        return restrict(self, morphisms)

    monkeypatch.setattr(FiniteCategory, "restrict", counted)
    assert (gamma_data(dc).dc is dc) is gg
    assert calls == ([] if gg else [dc.c1])


def test_non_integer_search_limit_is_a_named_error(monkeypatch):
    z3, z2 = Monoid.cyclic(3), Monoid.cyclic(2)
    ld = semidirect_lift(z3, z2, MonoidAction.inversion(z3))
    monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", "abc")
    with pytest.raises(StructureError, match="search-limit"):
        find_folding(ld.phi)


def test_negative_search_limit_is_a_named_error(monkeypatch):
    z3, z2 = Monoid.cyclic(3), Monoid.cyclic(2)
    ld = semidirect_lift(z3, z2, MonoidAction.inversion(z3))
    monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", "-5")
    with pytest.raises(StructureError, match="search-limit"):
        find_folding(ld.phi)
    monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", "0")
    result = find_folding(ld.phi)
    assert isinstance(result, SearchCertificate) and not result.exhausted and result.limit == 0


def test_validate_folding_rejects_a_family_of_the_wrong_length():
    z3, z2 = Monoid.cyclic(3), Monoid.cyclic(2)
    ld = semidirect_lift(z3, z2, MonoidAction.trivial(z2, z3))
    with pytest.raises(StructureError, match="folding-shape"):
        validate_folding(ld.phi, Folding(((0, 1, 2),)))


def test_gamma_frame_functors_equal_a_validated_rebuild(corpus_lifts):
    # gamma_data skips the functor laws of the restricted src, tgt and hid;
    # the checking constructor must accept each of them
    for tag, ld in corpus_lifts:
        dc = gamma_data(ld.dc).dc
        for f in (dc.src, dc.tgt, dc.hid):
            assert f == FunctorData(f.source, f.target, f.object_map, f.morphism_map), tag


def test_globular_monoid_equals_a_validated_rebuild(corpus_lifts, monkeypatch):
    # single_object_monoids skips A's laws, which the bicategory has
    # already passed; the checking constructor must accept A's table, and
    # deciding a folding must check no monoid laws
    from doublelift.analysis import single_object_monoids

    lifts = [(tag, ld) for tag, ld in corpus_lifts if ld.dec.bicat.n1 == 1]
    assert len(lifts) == 6
    for tag, ld in lifts:
        _, a = single_object_monoids(ld.dec)
        assert a == Monoid(a.table, a.unit), tag
    checks = []
    monkeypatch.setattr(Monoid, "_validate", lambda m: checks.append(m.size))
    for tag, ld in lifts:
        find_folding(ld.phi)
        assert checks == [], tag
