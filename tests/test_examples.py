import pytest
from fractions import Fraction

from doublelift import examples
from doublelift.errors import StructureError
from doublelift.examples import (
    build_graded_fixture,
    build_mat_fixture,
    build_semidirect_fixture,
    build_two_object_fixture,
    fixture_by_name,
    graded_category,
    identity_matrix,
    kronecker,
    mat_square_in_v1,
    matmul,
    matrix,
    proportional_tensor_square,
    rank,
    twisted_graded_category,
)
from doublelift.fincat import Monoid, MonoidAction, enumerate_actions

from support import monoid_isomorphism, relabel, symmetric_group


def test_semidirect_inversion_gives_the_dihedral_monoid():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    fx = build_semidirect_fixture(z3, z2, MonoidAction.inversion(z3))
    assert fx.endo_monoid.size == 6
    assert not fx.endo_monoid.is_commutative
    # the symmetric group on three letters, built from permutations with no
    # reference to the lift, is the same group up to isomorphism
    assert monoid_isomorphism(fx.endo_monoid, symmetric_group(3)) is not None


def test_semidirect_trivial_gives_the_cyclic_group():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    fx = build_semidirect_fixture(z3, z2, MonoidAction.trivial(z2, z3))
    assert fx.endo_monoid.is_commutative
    assert monoid_isomorphism(fx.endo_monoid, Monoid.cyclic(6)) is not None


def test_the_two_endo_monoids_are_not_isomorphic():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    inv = build_semidirect_fixture(z3, z2, MonoidAction.inversion(z3)).endo_monoid
    triv = build_semidirect_fixture(z3, z2, MonoidAction.trivial(z2, z3)).endo_monoid
    assert monoid_isomorphism(inv, triv) is None


def test_semidirect_bijection_is_a_monoid_isomorphism():
    z2, z4 = Monoid.cyclic(2), Monoid.cyclic(4)
    fx = build_semidirect_fixture(z4, z2, MonoidAction.inversion(z4))
    bij = fx.bijection
    for x in range(8):
        for y in range(8):
            assert bij[fx.semidirect.mul(x, y)] == fx.endo_monoid.mul(bij[x], bij[y])


def test_graded_categories_validate_and_differ_when_twisted():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    plain = graded_category(z2, z3)
    twisted = twisted_graded_category(z2, z3, MonoidAction.inversion(z3))
    assert plain.tensor_mor != twisted.tensor_mor
    # degree 1 acts on the right factor: (1, e1) (x) (1, e2) lands at
    # degree 0 with element e1 - e2
    assert twisted.tensor_mor[(3 + 1, 3 + 2)] == (1 - 2) % 3


def test_graded_fixture_vertical_category_is_the_twist():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    fx = build_graded_fixture(z2, z3, MonoidAction.inversion(z3))
    assert fx.twisted == twisted_graded_category(z2, z3, MonoidAction.inversion(z3))


def test_graded_fixture_names_a_lift_that_is_not_the_twist(monkeypatch):
    # against the untwisted graded category, the tensor of morphisms read
    # off the lift of the inversion action differs
    untwisted = examples.twisted_graded_category
    monkeypatch.setattr(examples, "twisted_graded_category",
                        lambda g, h, action: untwisted(g, h, MonoidAction.trivial(g, h)))
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    with pytest.raises(StructureError, match="no-isomorphism") as info:
        build_graded_fixture(z2, z3, MonoidAction.inversion(z3))
    assert info.value.detail == "vertical category is not isomorphic to the twisted category"


def test_graded_fixture_with_the_trivial_action():
    z2, z4 = Monoid.cyclic(2), Monoid.cyclic(4)
    fx = build_graded_fixture(z2, z4, MonoidAction.trivial(z2, z4))
    assert fx.twisted.tensor_mor == graded_category(z2, z4).tensor_mor


def test_graded_fixture_with_the_unit_elsewhere():
    # Z2 with unit 1 and Z3 with unit 2; the degree that is not the unit
    # acts by inversion
    g = Monoid(((1, 0), (0, 1)), 1)
    h = Monoid(((1, 2, 0), (2, 0, 1), (0, 1, 2)), 2)
    inversion = tuple(h.inverse(x) for x in range(3))
    action = MonoidAction(g, h, (inversion, (0, 1, 2)))
    fx = build_graded_fixture(g, h, action)
    assert fx.twisted == twisted_graded_category(g, h, action)
    ref = build_graded_fixture(Monoid.cyclic(2), Monoid.cyclic(3),
                               MonoidAction.inversion(Monoid.cyclic(3)))
    assert fx.dc.c1.n_morphisms == ref.dc.c1.n_morphisms


def test_the_twist_is_on_the_nose():
    # every action by automorphisms of Z1-Z4 on Z1-Z5, on the monoids' own
    # labels and on two relabellings that move the unit away from 0
    relabellings = (lambda n: range(n), lambda n: [(x + 1) % n for x in range(n)],
                    lambda n: range(n - 1, -1, -1))
    fixtures = 0
    for ng in range(1, 5):
        for nh in range(1, 6):
            for perm in relabellings:
                g = relabel(Monoid.cyclic(ng), list(perm(ng)))
                h = relabel(Monoid.cyclic(nh), list(perm(nh)))
                for action in enumerate_actions(g, h):
                    if any(len(set(f)) != nh for f in action.maps):
                        continue
                    fx = build_graded_fixture(g, h, action)
                    assert fx.twisted == twisted_graded_category(g, h, action)
                    fixtures += 1
    assert fixtures == 84


def test_two_object_fixture_lifts():
    fx = build_two_object_fixture()
    assert fx.dec.bicat.n0 == 2
    assert fx.dc.c1.n_objects == 3
    # exactly one non-globular square: the decoration morphism a -> b with
    # the single payload at i_b
    assert fx.dc.c1.n_morphisms - fx.dec.bicat.n2 == 1


def test_rank_and_kronecker_basics():
    assert rank(identity_matrix(4)) == 4
    assert rank(matrix([[1, 2], [2, 4]])) == 1
    assert rank(matrix([[0, 0], [0, 0]])) == 0
    a = matrix([[1, 2]])
    assert kronecker(a, a) == matrix([[1, 2, 2, 4]])
    assert matmul(matrix([[1, 2], [3, 4]]), identity_matrix(2)) == matrix([[1, 2], [3, 4]])


def test_proportional_tensor_square():
    assert proportional_tensor_square(tuple(map(Fraction, (1, 2, 2, 4)))) is not None
    assert proportional_tensor_square(tuple(map(Fraction, (3, 6, 6, 12)))) is not None
    # reshapes to the identity: symmetric but rank two
    assert proportional_tensor_square(tuple(map(Fraction, (1, 0, 0, 1)))) is None
    # not symmetric
    assert proportional_tensor_square(tuple(map(Fraction, (0, 1, 0, 0)))) is None
    # not a square length
    assert proportional_tensor_square(tuple(map(Fraction, (1, 2, 3)))) is None


def test_mat_identity_square_is_obstructed():
    d = mat_square_in_v1(2, 2, identity_matrix(4))
    assert not d.in_v1
    assert d.payload_rank == 4


def test_mat_factoring_square_has_a_verified_witness():
    payload = matrix([[1, 1, 1, 1], [2, 2, 2, 2], [0, 0, 0, 0], [1, 1, 1, 1]])
    d = mat_square_in_v1(2, 2, payload)
    assert d.in_v1
    psi, eta = d.witness
    assert matmul(eta, kronecker(psi, psi)) == payload


def test_mat_report():
    report = build_mat_fixture(4)
    assert [d.in_v1 for d in report.decisions] == [False, True, True, False]
    assert not report.gg
    with pytest.raises(StructureError, match="shape-mismatch"):
        build_mat_fixture(3)


def test_fixture_by_name_round_trips():
    fx = fixture_by_name("semidirect:z3:z2:inv")
    assert fx.endo_monoid.size == 6
    assert fixture_by_name("mat:4").nmax == 4
    assert fixture_by_name("twoobject").dec.bicat.n0 == 2
    assert fixture_by_name("constant:flag:z3").dc.c1.n_morphisms == 6
    # "²" is a digit but not a decimal one, so int() rejects it; int()
    # reads any decimal digit, such as the Arabic-Indic four
    assert fixture_by_name("mat:\u0664").nmax == 4
    for name in ("nonsense", "semidirect:z3:z3:inv", "semidirect:z²:z2:triv", "mat:²"):
        with pytest.raises(StructureError, match="unknown-fixture"):
            fixture_by_name(name)


def test_matmul_names_mismatched_shapes():
    with pytest.raises(StructureError, match="matrix-shape"):
        matmul(matrix([[1, 2]]), identity_matrix(3))
