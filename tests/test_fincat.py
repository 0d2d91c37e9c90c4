import pytest
from hypothesis import given, strategies as st

from doublelift.errors import StructureError
from doublelift.fincat import (
    FiniteCategory,
    FunctorData,
    Monoid,
    MonoidAction,
    MonoidMorphism,
    StrictMonoidalCategory,
    delooping,
    endomorphism_monoid_of_object,
    enumerate_actions,
    monoid_automorphisms,
    monoid_endomorphisms,
    monoidal_delooping,
    semidirect_product,
)

from support import compose_functors, discrete, element_order, end_category, monoid_isomorphism, symmetric_group


@given(st.integers(min_value=1, max_value=8))
def test_cyclic_monoid_is_a_commutative_group(n):
    m = Monoid.cyclic(n)
    assert m.is_commutative
    assert m.is_group()
    for x in range(n):
        assert m.mul(x, m.inverse(x)) == m.unit


def test_flag_monoid_is_not_a_group():
    f = Monoid.flag()
    assert f.is_commutative
    assert not f.is_group()
    assert f.mul(1, 1) == 1  # the non-unit element is idempotent
    assert element_order(f, 1) == 0


def test_bad_monoid_tables_are_rejected():
    with pytest.raises(StructureError, match="associativity"):
        Monoid(((0, 1, 2), (1, 2, 2), (2, 2, 1)), 0)
    with pytest.raises(StructureError, match="unit-law"):
        Monoid(((0, 0), (0, 0)), 0)
    with pytest.raises(StructureError, match="unit-range"):
        Monoid(((0,),), 3)


def test_monoid_morphism_composition():
    z6, z3 = Monoid.cyclic(6), Monoid.cyclic(3)
    MonoidMorphism(z6, z3, tuple(x % 3 for x in range(6)))
    with pytest.raises(StructureError, match="product-preservation"):
        MonoidMorphism(z6, z3, (0, 1, 2, 0, 1, 1))


def test_inversion_action_requires_commutativity():
    z3 = Monoid.cyclic(3)
    act = MonoidAction.inversion(z3)
    assert act.maps == ((0, 1, 2), (0, 2, 1))
    s3 = symmetric_group(3)
    with pytest.raises(StructureError):
        MonoidAction.inversion(s3)


def test_endomorphism_counts_of_small_cyclic_groups():
    # endomorphisms of Z_n are multiplication by a fixed k, so there are n
    # of them and phi(n) automorphisms
    assert len(monoid_endomorphisms(Monoid.cyclic(3))) == 3
    assert len(monoid_endomorphisms(Monoid.cyclic(4))) == 4
    assert len(monoid_automorphisms(Monoid.cyclic(3))) == 2
    assert len(monoid_automorphisms(Monoid.cyclic(4))) == 2


def test_action_enumeration_matches_hand_count():
    z2, z3, z4 = Monoid.cyclic(2), Monoid.cyclic(3), Monoid.cyclic(4)
    # an action of Z2 is an endomorphism squaring to the identity
    assert len(enumerate_actions(z2, z3)) == 2  # identity and inversion
    assert len(enumerate_actions(z2, z4)) == 2
    assert len(enumerate_actions(z3, z3)) == 1  # only the trivial action
    assert len(enumerate_actions(z3, z4)) == 1


def test_monoid_isomorphism_search():
    z6 = Monoid.cyclic(6)
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    prod = semidirect_product(z3, z2, MonoidAction.trivial(z2, z3))
    iso = monoid_isomorphism(prod, z6)
    assert iso is not None
    for x in range(6):
        for y in range(6):
            assert iso[prod.mul(x, y)] == z6.mul(iso[x], iso[y])
    assert monoid_isomorphism(z6, symmetric_group(3)) is None


@given(st.sampled_from([(3, 2), (4, 2), (3, 3), (5, 2)]))
def test_semidirect_products_are_monoids_for_every_action(sizes):
    n_size, m_size = sizes
    n, m = Monoid.cyclic(n_size), Monoid.cyclic(m_size)
    for action in enumerate_actions(m, n):
        sd = semidirect_product(n, m, action)
        assert sd == Monoid(sd.table, sd.unit)  # the checking constructor accepts it
        assert sd.size == n_size * m_size
        assert sd.is_group()


def test_semidirect_inversion_on_z3_is_nonabelian():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    sd = semidirect_product(z3, z2, MonoidAction.inversion(z3))
    assert not sd.is_commutative
    assert sd.is_group()
    assert sorted(element_order(sd, x) for x in range(6)) == [1, 2, 2, 2, 3, 3]


def test_delooping_and_endomorphism_monoid_round_trip():
    z4 = Monoid.cyclic(4)
    cat = delooping(z4)
    assert cat.n_objects == 1 and cat.n_morphisms == 4
    back, elements = endomorphism_monoid_of_object(cat, 0)
    assert elements == (0, 1, 2, 3)
    assert back.table == z4.table


def test_endomorphism_monoids_equal_a_validated_rebuild(corpus_lifts):
    # endomorphism_monoid_of_object skips the monoid laws, which the category
    # has already passed; the checking constructor must accept each table
    for tag, ld in corpus_lifts:
        for cat in (ld.dec.decoration, ld.dc.c0, ld.dc.c1):
            for obj in range(cat.n_objects):
                m, _ = endomorphism_monoid_of_object(cat, obj)
                assert m == Monoid(m.table, m.unit), (tag, obj)
    with pytest.raises(StructureError, match="unit-law"):
        Monoid(((1, 1), (1, 1)))
    assert Monoid(((1, 1), (1, 1)), validate=False).table == ((1, 1), (1, 1))


def test_category_validation_names_the_broken_law():
    z3 = Monoid.cyclic(3)
    cat = delooping(z3)
    bad = dict(cat.composition)
    bad[(1, 1)] = 0
    with pytest.raises(StructureError, match="associativity"):
        FiniteCategory(1, cat.dom, cat.cod, cat.identity, bad)
    with pytest.raises(StructureError, match="composition-totality"):
        FiniteCategory(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1})


def test_discrete_category_functors():
    d3 = discrete(3)
    f = FunctorData.identity(d3)
    assert compose_functors(f, f) == f
    with pytest.raises(StructureError, match="boundary-preservation"):
        FunctorData(d3, d3, (0, 1, 2), (0, 0, 0))
    loop = delooping(Monoid.cyclic(2))
    with pytest.raises(StructureError, match="identity-preservation"):
        FunctorData(loop, loop, (0,), (1, 0))


def test_monoidal_delooping_rejects_noncommutative():
    with pytest.raises(StructureError, match="eckmann-hilton"):
        monoidal_delooping(symmetric_group(3))
    d = monoidal_delooping(Monoid.cyclic(3))
    assert d.unit_obj == 0
    assert d.tensor_mor[(1, 2)] == 0


def test_monoidal_interchange_violation_detected():
    z3 = Monoid.cyclic(3)
    d = monoidal_delooping(z3)
    broken = dict(d.tensor_mor)
    broken[(1, 1)] = 0
    with pytest.raises(StructureError, match="interchange|tensor-"):
        StrictMonoidalCategory(d.base, d.unit_obj, d.tensor_obj, broken)


def test_end_category_of_a_suspension_recovers_the_monoid():
    from doublelift.twocat import suspend

    z3 = Monoid.cyclic(3)
    b = suspend(monoidal_delooping(z3))
    end = end_category(b, 0)
    assert end.base.n_objects == 1
    assert end.base.n_morphisms == 3
    assert end.tensor_mor[(1, 2)] == 0


def test_restrict_keeps_a_closed_subset():
    z4 = delooping(Monoid.cyclic(4))
    sub = z4.restrict({0, 2})
    assert sub.n_morphisms == 2
    assert sub.identity == (0,)
    assert sub.composition == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    # the restriction of a valid category is itself valid
    assert sub == FiniteCategory(sub.n_objects, sub.dom, sub.cod, sub.identity, sub.composition)


@pytest.mark.parametrize("subset,detail", [
    ({1, 2}, "identity of object 0"),
    ({0, 1}, "(1, 1) -> 2"),
    ({0, 4}, "outside"),
])
def test_restrict_checks_closure(subset, detail):
    z4 = delooping(Monoid.cyclic(4))
    with pytest.raises(StructureError, match="restriction-closure") as err:
        z4.restrict(subset)
    assert detail in err.value.detail


def test_structures_are_frozen_values_compared_by_their_tables():
    from doublelift.analysis import Folding
    from doublelift.examples import fixture_by_name
    from doublelift.lift import LiftData, lift_data
    from doublelift.twocat import StrictBicategory, suspend

    # names are metadata: equality and hashing ignore them
    z3 = Monoid.cyclic(3)
    renamed = Monoid(z3.table, z3.unit, ("a", "b", "c"))
    assert renamed.names != z3.names and renamed == z3 and hash(renamed) == hash(z3)
    assert hash(MonoidAction.trivial(renamed, z3)) == hash(MonoidAction.trivial(z3, z3))
    assert hash(Folding(((0, 1),))) == hash(Folding(((0, 1),)))
    cat = delooping(z3)
    assert FiniteCategory(cat.n_objects, cat.dom, cat.cod, cat.identity, cat.composition) == cat
    b = suspend(monoidal_delooping(z3))
    assert b.names2 == z3.names
    assert StrictBicategory(b.n0, b.dom0, b.cod0, b.dom1, b.cod1, b.id1, b.id2, b.vcomp, b.hcomp1,
                            b.hcomp2) == b
    fx = fixture_by_name("semidirect:z3:z2:inv")
    assert Monoid(((0, 1), (1, 0))) != Monoid(((0, 1), (1, 1)))

    # equal fields in a different class are not equal, in either order
    ld = LiftData(fx.dec, fx.phi, fx.key_index, fx.dc)
    assert ld == lift_data(fx.dec, fx.phi)
    assert ld != fx and fx != ld and not ld == fx

    for value, name in ((z3, "unit"), (z3, "names"), (cat, "dom"), (b, "names1"), (fx, "dc"),
                        (fx, "semidirect")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        z3.order = 3
