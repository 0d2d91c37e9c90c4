import pytest

from doublelift.doublecat import (
    DoubleCategory,
    DoubleFunctor,
    check_double_axioms,
    decorated_horizontalization,
    globular_squares,
    horizontalization,
)
from doublelift.errors import StructureError
from doublelift.fincat import Monoid, MonoidAction, delooping

from support import compose_double_functors, identity_double_functor, trivial_double_category

LAW_NAMES = [
    "hid-section",
    "hcomp-totality-1cells",
    "hcomp-totality-squares",
    "hcomp-boundary",
    "hcomp-identity",
    "interchange",
    "hcomp-unit",
    "hcomp-associativity",
]


def _semidirect_dc():
    from doublelift.examples import build_semidirect_fixture

    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    return build_semidirect_fixture(z3, z2, MonoidAction.inversion(z3)).dc


def test_axiom_report_covers_every_law(corpus_lifts):
    for tag, ld in corpus_lifts:
        report = check_double_axioms(ld.dc)
        assert [law for law, _, _ in report] == LAW_NAMES, tag
        assert all(ok for _, ok, _ in report), tag
        assert all(witness is None for _, _, witness in report), tag


def test_globular_squares_of_the_semidirect_lift():
    dc = _semidirect_dc()
    glob = globular_squares(dc)
    # exactly the three bicategory 2-cells are globular
    assert glob == {0, 1, 2}
    for p in glob:
        assert dc.is_globular(p)
    for p in range(dc.c1.n_morphisms):
        if p not in glob:
            assert not dc.is_globular(p)


def test_horizontalization_is_identifier_exact(corpus_lifts):
    for tag, ld in corpus_lifts:
        b = horizontalization(ld.dc)
        ref = ld.dec.bicat
        assert b.n0 == ref.n0 and b.n1 == ref.n1 and b.n2 == ref.n2, tag
        assert b.dom0 == ref.dom0 and b.cod0 == ref.cod0, tag
        assert b.dom1 == ref.dom1 and b.cod1 == ref.cod1, tag
        assert b.id1 == ref.id1 and b.id2 == ref.id2, tag
        assert b.vcomp == ref.vcomp, tag
        assert b.hcomp1 == ref.hcomp1 and b.hcomp2 == ref.hcomp2, tag
        dec = decorated_horizontalization(ld.dc)
        assert dec.decoration == ld.dec.decoration, tag


def test_horizontalization_equals_a_validated_rebuild(corpus_lifts):
    # horizontalization skips the bicategory laws; rebuilding its tables
    # through the checking constructor must accept them and give the same
    # bicategory, on the lifts and on their closed gamma parts
    import inspect

    from doublelift.analysis import gamma
    from doublelift.twocat import StrictBicategory

    for tag, ld in corpus_lifts:
        for dc in (ld.dc, gamma(ld.dc)):
            b = horizontalization(dc)
            params = inspect.signature(StrictBicategory).parameters
            rebuilt = StrictBicategory(*(getattr(b, name) for name in params if name != "validate"))
            assert b == rebuilt, tag
            assert (b.names1, b.names2) == (rebuilt.names1, rebuilt.names2), tag


def test_trivial_double_category_over_a_delooping():
    dc = trivial_double_category(delooping(Monoid.cyclic(4)))
    assert dc.c1.n_objects == 1
    assert dc.c1.n_morphisms == 4
    assert globular_squares(dc) == {0}
    assert dc.hsq(2, 2) == 2
    with pytest.raises(KeyError):
        dc.hsq(1, 2)  # only squares with equal sides compose horizontally


@pytest.mark.parametrize("law,mutate", [
    ("hid-section", lambda h: {**h, "hid": True}),
    ("hcomp-identity", None),
    ("interchange", None),
    ("hcomp-unit", None),
])
def test_mutations_are_caught_with_the_right_law(law, mutate):
    dc = _semidirect_dc()
    hcomp = dict(dc.hcomp)
    if law == "hid-section":
        from doublelift.fincat import FunctorData

        bad_hid = FunctorData(dc.c0, dc.c1, dc.hid.object_map,
                              tuple(0 for _ in dc.hid.morphism_map))
        with pytest.raises(StructureError, match="hid-section"):
            DoubleCategory(dc.c0, dc.c1, dc.src, dc.tgt, bad_hid, hcomp)
        return
    if law == "hcomp-identity":
        # break pasting of identity squares over a composable 1-cell pair
        key = ("sq", dc.c1.identity[0], dc.c1.identity[0])
        hcomp[key] = 1 if hcomp[key] != 1 else 2
        expected = "hcomp-identity|hcomp-unit"
    elif law == "interchange":
        # redirect one pasting of non-globular squares to a wrong square
        # with the same boundary, so only the equational laws can notice
        p = next(p for p in range(dc.c1.n_morphisms) if not dc.is_globular(p))
        old = hcomp[("sq", p, p)]
        hcomp[("sq", p, p)] = next(
            v for v in range(dc.c1.n_morphisms)
            if v != old
            and dc.src.morphism_map[v] == dc.src.morphism_map[old]
            and dc.tgt.morphism_map[v] == dc.tgt.morphism_map[old]
            and dc.c1.dom[v] == dc.c1.dom[old]
            and dc.c1.cod[v] == dc.c1.cod[old]
        )
        expected = "interchange|hcomp-unit|hcomp-associativity|hcomp-identity"
    else:
        key = next(k for k in hcomp if k[0] == "ob")
        hcomp[key] = hcomp[key]
        hcomp[("sq", 1, 2)] = 0 if hcomp.get(("sq", 1, 2)) != 0 else 1
        expected = "hcomp-unit|interchange|hcomp-identity|hcomp-boundary|hcomp-totality"
    with pytest.raises(StructureError, match=expected):
        DoubleCategory(dc.c0, dc.c1, dc.src, dc.tgt, dc.hid, hcomp)


def test_totality_violations_short_circuit():
    dc = _semidirect_dc()
    hcomp = dict(dc.hcomp)
    removed = next(k for k in hcomp if k[0] == "sq")
    del hcomp[removed]
    with pytest.raises(StructureError, match="hcomp-totality-squares"):
        DoubleCategory(dc.c0, dc.c1, dc.src, dc.tgt, dc.hid, hcomp)


def test_double_functor_identity_and_check():
    dc = _semidirect_dc()
    ident = identity_double_functor(dc)
    ident.check(dc, dc)
    assert compose_double_functors(ident, ident).f1.morphism_map == ident.f1.morphism_map


def test_law_list_matches_the_report():
    from doublelift.doublecat import LAWS

    assert LAWS == tuple(LAW_NAMES)


def test_boundary_violations_short_circuit():
    dc = _semidirect_dc()
    hcomp = dict(dc.hcomp)
    # a pasting that lands on the wrong vertical sides; the equational laws
    # after it would look up pastings that do not exist
    key = next(k for k in hcomp if k[0] == "sq"
               and dc.src.morphism_map[hcomp[k]] != dc.src.morphism_map[0])
    hcomp[key] = 0
    bad = DoubleCategory(dc.c0, dc.c1, dc.src, dc.tgt, dc.hid, hcomp, validate=False)
    report = check_double_axioms(bad)
    assert [law for law, _, _ in report] == LAW_NAMES[:4]
    assert not report[-1][1]


def test_wiring_errors_are_named_without_asserts():
    import os
    import subprocess
    import sys

    import doublelift

    # src lands in a one-morphism category instead of c0, then hid lands
    # there instead of in c1, then tgt comes out of the square category of
    # the lift of the trivial action, which has the same objects and
    # vertical morphisms; __debug__ is False under -O
    code = (
        "from doublelift.doublecat import DoubleCategory\n"
        "from doublelift.errors import StructureError\n"
        "from doublelift.examples import fixture_by_name\n"
        "from doublelift.fincat import FunctorData, Monoid, delooping\n"
        "from support import trivial_double_category\n"
        "dc = trivial_double_category(delooping(Monoid.cyclic(3)))\n"
        "a, b = (fixture_by_name(f'semidirect:z3:z2:{k}').dc for k in ('inv', 'triv'))\n"
        "point = delooping(Monoid.trivial())\n"
        "src = FunctorData(dc.c1, point, (0,), (0, 0, 0))\n"
        "hid = FunctorData(dc.c0, point, (0,), (0, 0, 0))\n"
        "for c, s, t, h in ((dc, src, dc.tgt, dc.hid), (dc, dc.src, dc.tgt, hid),\n"
        "                   (a, a.src, b.tgt, a.hid)):\n"
        "    try:\n"
        "        DoubleCategory(c.c0, c.c1, s, t, h, c.hcomp)\n"
        "    except StructureError as exc:\n"
        "        print(exc.law, __debug__)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(doublelift.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src_dir, os.path.dirname(__file__)))}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["wiring False"] * 3 + [""]


def test_double_functor_check_names_miswired_categories():
    from doublelift.fincat import FunctorData

    dc = _semidirect_dc()
    other = trivial_double_category(delooping(Monoid.cyclic(2)))
    ident = identity_double_functor(dc)
    with pytest.raises(StructureError, match="wiring"):
        ident.check(dc, other)
    with pytest.raises(StructureError, match="wiring"):
        DoubleFunctor(ident.f0, FunctorData.identity(other.c1)).check(dc, dc)
