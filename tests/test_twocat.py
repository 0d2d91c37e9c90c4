from dataclasses import dataclass

import pytest

from doublelift.errors import StructureError
from doublelift.examples import graded_category, twisted_graded_category
from doublelift.fincat import (
    FiniteCategory,
    Monoid,
    MonoidAction,
    delooping,
    enumerate_actions,
    monoidal_delooping,
    semidirect_product,
)
from doublelift.twocat import DecoratedBicategory, StrictBicategory, decorate, suspend

from support import checked_rebuild, discrete, klein_four, null_monoid, symmetric_group, vertical_category


@dataclass(frozen=True)
class CellSplit:
    """Partition of the 1-cells into endo part and the rest, each made into
    a category under vertical composition."""

    endo_part: FiniteCategory
    rest_part: FiniteCategory
    endo_objects: tuple[int, ...]      # endo_part object -> 1-cell
    endo_morphisms: tuple[int, ...]    # endo_part morphism -> 2-cell
    rest_objects: tuple[int, ...]
    rest_morphisms: tuple[int, ...]


def split_cells(b: StrictBicategory) -> CellSplit:
    def part(endo: bool):
        cells1 = tuple(x for x in range(b.n1) if b.is_endo_1cell(x) == endo)
        cells2 = tuple(p for p in range(b.n2) if b.is_endo_1cell(b.dom1[p]) == endo)
        return vertical_category(b, cells1, cells2), cells1, cells2

    (endo_cat, endo_obj, endo_mor), (rest_cat, rest_obj, rest_mor) = part(True), part(False)
    return CellSplit(endo_cat, rest_cat, endo_obj, endo_mor, rest_obj, rest_mor)


def test_suspension_of_a_monoidal_delooping():
    z3 = Monoid.cyclic(3)
    b = suspend(monoidal_delooping(z3))
    assert b.n0 == 1 and b.n1 == 1 and b.n2 == 3
    assert b.id1 == (0,) and b.id2 == (0,)
    assert b.vcomp[(1, 2)] == 0
    assert b.hcomp2[(1, 1)] == 2
    assert b.is_endo_1cell(0)
    assert b.cells2_between(0, 0) == [0, 1, 2]


def test_interchange_violation_is_caught():
    z2 = Monoid.cyclic(2)
    d = monoidal_delooping(z2)
    b = suspend(d)
    bad = dict(b.hcomp2)
    bad[(1, 1)] = 1  # should be 0
    with pytest.raises(StructureError, match="horizontal-|interchange"):
        StrictBicategory(b.n0, b.dom0, b.cod0, b.dom1, b.cod1, b.id1, b.id2,
                         b.vcomp, b.hcomp1, bad)


def test_vertical_totality_violation_is_caught():
    z2 = Monoid.cyclic(2)
    b = suspend(monoidal_delooping(z2))
    partial = {k: v for k, v in b.vcomp.items() if k != (1, 1)}
    with pytest.raises(StructureError, match="vertical-totality"):
        StrictBicategory(b.n0, b.dom0, b.cod0, b.dom1, b.cod1, b.id1, b.id2,
                         partial, b.hcomp1, b.hcomp2)


def test_identity_boundary_violation():
    # id1 of the first 0-cell points at a 1-cell sitting on the second
    with pytest.raises(StructureError, match="identity-boundary"):
        StrictBicategory(
            2, (0, 1), (0, 1), (0, 1), (0, 1), (1, 1), (0, 1),
            {(0, 0): 0, (1, 1): 1},
            {(0, 0): 0, (1, 1): 1},
            {(0, 0): 0, (1, 1): 1},
        )


def test_decoration_must_share_objects():
    z2 = Monoid.cyclic(2)
    b = suspend(monoidal_delooping(z2))
    with pytest.raises(StructureError, match="decoration-mismatch"):
        decorate(discrete(2), b)
    dec = decorate(delooping(z2), b)
    assert isinstance(dec, DecoratedBicategory)


def test_split_cells_on_a_suspension_is_all_endo():
    z3 = Monoid.cyclic(3)
    b = suspend(monoidal_delooping(z3))
    split = split_cells(b)
    assert split.endo_objects == (0,)
    assert split.endo_morphisms == (0, 1, 2)
    assert split.rest_objects == ()
    assert split.rest_part.n_objects == 0
    assert split.endo_part.compose(1, 2) == 0


def test_split_cells_with_a_non_endo_1cell():
    from doublelift.examples import build_two_object_fixture

    b = build_two_object_fixture().dec.bicat
    split = split_cells(b)
    assert split.endo_objects == (0, 1)
    assert split.rest_objects == (2,)
    assert split.rest_morphisms == (3,)
    assert split.endo_part.n_morphisms == 3


def test_unchecked_constructions_equal_validated_rebuilds(corpus_lifts):
    # delooping, suspend and semidirect_product copy the laws of their
    # checked inputs and skip them; the checking constructors must accept
    # every result
    monoids = [Monoid.trivial(), Monoid.flag(), klein_four(), null_monoid(4), symmetric_group(3),
               *(Monoid.cyclic(n) for n in range(1, 7))]
    commutative = [m for m in monoids if m.is_commutative]
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    monoidal = ([monoidal_delooping(m) for m in commutative]
                + [graded_category(g, h) for g in (z2, z3) for h in (z3, klein_four())]
                + [twisted_graded_category(z2, h, MonoidAction.inversion(h)) for h in (z3, Monoid.cyclic(4))])
    values = ([delooping(m) for m in monoids] + [suspend(d) for d in monoidal]
              + [semidirect_product(n, m, action) for n in commutative if n.size <= 4
                 for m in monoids if m.size <= 3 for action in enumerate_actions(m, n)]
              + [v for _, ld in corpus_lifts for v in (ld.dec.decoration, ld.dec.bicat)])
    for value in values:
        assert checked_rebuild(value) == value, value
    assert len(values) > 100
