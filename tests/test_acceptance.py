"""End-to-end acceptance run: ten numbered criteria, one printed line each.

Run with -s to see the lines; each criterion is a separate test so a failure
pinpoints the broken guarantee.
"""

import time

from doublelift.adjoint import check_triangle_identities
from doublelift.analysis import (
    Folding,
    SearchCertificate,
    find_folding,
    gamma_data,
    gg_criterion_surjective,
    is_gg,
    v1_membership,
    validate_folding,
    vertical_chain,
    vertical_length,
)
from doublelift.doublecat import DoubleCategory, check_double_axioms, decorated_horizontalization
from doublelift.errors import StructureError
from doublelift.examples import (
    build_mat_fixture,
    build_semidirect_fixture,
    identity_matrix,
    mat_square_in_v1,
)
from doublelift.fincat import (
    FiniteCategory,
    FunctorData,
    Monoid,
    MonoidAction,
    StrictMonoidalCategory,
    delooping,
    enumerate_actions,
    monoidal_delooping,
)
from doublelift.grothendieck import Precosheaf
from doublelift.serialize import dumps, loads
from doublelift.twocat import StrictBicategory

from support import action_precosheaves, monoid_isomorphism


def _line(n: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {n}: {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_lift_axioms_and_horizontalization(corpus, corpus_lifts):
    ok = len(corpus_lifts) >= 8
    worst = 0.0
    for tag, ld in corpus_lifts:
        t0 = time.perf_counter()
        report = check_double_axioms(ld.dc)
        hstar = decorated_horizontalization(ld.dc)
        worst = max(worst, time.perf_counter() - t0)
        ok = ok and all(passed for _, passed, _ in report)
        ok = ok and hstar == ld.dec
    ok = ok and worst < 1.0
    _line(1, ok, f"{len(corpus_lifts)} fixtures lift, axiom suite green, "
                 f"H* identifier-exact, slowest {worst:.3f}s")


def test_criterion_2_interchange_identity(corpus_lifts):
    checked = 0
    ok = True
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
                        ok = ok and sides[big][2] == b.vcomp[(upper, twisted)]
                        checked += 1
    ok = ok and checked > 0
    _line(2, ok, f"interchange payload identity holds on {checked} composable quadruples")


def test_criterion_3_folding_search():
    t0 = time.perf_counter()
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    fx = build_semidirect_fixture(z3, z2, MonoidAction.inversion(z3))
    ok = fx.endo_monoid.size == 6
    ok = ok and fx.endo_monoid.is_group() and not fx.endo_monoid.is_commutative
    absent = find_folding(fx.phi)
    ok = ok and isinstance(absent, SearchCertificate) and absent.exhausted

    control = build_semidirect_fixture(z3, z2, MonoidAction.trivial(z2, z3))
    fold = find_folding(control.phi)
    ok = ok and isinstance(fold, Folding)
    if isinstance(fold, Folding):
        validate_folding(control.phi, fold)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(3, ok, "endo monoid of i_* is a non-abelian group of order 6, "
                 f"folding proven absent, identity control folds ({elapsed:.2f}s)")


def test_criterion_4_vertical_length(corpus_lifts):
    lengths = {tag: vertical_length(ld.dc) for tag, ld in corpus_lifts}
    ok = all(v == 1 for v in lengths.values())
    _line(4, ok, f"vertical length 1 on all {len(lengths)} lift fixtures")


def test_criterion_5_surjectivity_and_rank_obstruction(corpus_lifts):
    ok = True
    applied = 0
    for tag, ld in corpus_lifts:
        b = ld.dec.bicat
        if ld.dec.decoration.n_objects != 1 or b.n0 != 1 or b.n1 != 1:
            continue
        applied += 1
        if gg_criterion_surjective(ld.phi):
            ok = ok and is_gg(ld.dc)
    ok = ok and applied >= 5
    decision = mat_square_in_v1(2, 2, identity_matrix(4))
    ok = ok and decision.payload_rank == 4 and not decision.in_v1
    ok = ok and not build_mat_fixture(4).gg
    _line(5, ok, f"surjective actions give GG lifts ({applied} applicable fixtures); "
                 "the (2, identity) square has rank 4 > 1 and is outside V1")


def test_criterion_6_factorization_vs_chain(corpus_lifts):
    checked = agreed = 0
    for tag, ld in corpus_lifts:
        chain = vertical_chain(ld.dc)
        gd = gamma_data(ld.dc)
        v1 = {gd.square_ids[p] for p in chain[0]}
        for p in range(ld.dec.bicat.n2, ld.dc.c1.n_morphisms):  # the pair squares
            checked += 1
            member, _ = v1_membership(ld, p)  # asserts agreement internally
            if member == (p in v1):
                agreed += 1
    ok = checked > 0 and agreed == checked
    _line(6, ok, f"factorization and chain membership agree on {agreed}/{checked} pair squares")


def test_criterion_7_adjunction_grid():
    t0 = time.perf_counter()
    ok = True
    total_actions = 0
    for g in (Monoid.cyclic(2), Monoid.cyclic(3)):
        for a in (Monoid.cyclic(3), Monoid.cyclic(4)):
            actions = enumerate_actions(g, a)
            total_actions += len(actions)
            entries = check_triangle_identities(action_precosheaves(g, a, actions))
            ok = ok and all(passed for _, passed, _ in entries)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0 and total_actions >= 6
    _line(7, ok, "round trips, both triangle laws and naturality hold over the "
                 f"(G, A) grid with every available action ({total_actions} actions, {elapsed:.2f}s)")


def test_criterion_8_counting_witness():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    inv = build_semidirect_fixture(z3, z2, MonoidAction.inversion(z3)).endo_monoid
    triv = build_semidirect_fixture(z3, z2, MonoidAction.trivial(z2, z3)).endo_monoid
    ok = monoid_isomorphism(inv, triv) is None
    ok = ok and monoid_isomorphism(inv, inv) is not None
    _line(8, ok, "trivial and inversion actions give non-isomorphic endo monoids "
                 "(exhaustive isomorphism search)")


def test_criterion_9_serialization_round_trip(corpus_lifts):
    ok = True
    count = 0
    for tag, ld in corpus_lifts:
        for value in (ld.dec, ld.phi, ld.dc):
            text = dumps(value)
            ok = ok and dumps(loads(text)) == text
            count += 1
    _line(9, ok, f"canonical serialization round-trips byte for byte on {count} values")


def test_criterion_10_mutation_robustness():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    fx = build_semidirect_fixture(z3, z2, MonoidAction.inversion(z3))
    dc, dec, phi = fx.dc, fx.dec, fx.phi
    caught = []

    def corrupt(label, expect, thunk):
        try:
            thunk()
        except StructureError as exc:
            caught.append((label, exc.law))
            assert exc.law in expect, (label, exc.law, expect)
            return
        raise AssertionError(f"{label}: corruption went unnoticed")

    # 1. monoid multiplication entry
    table = [list(r) for r in z3.table]
    table[1][1] = 0
    corrupt("monoid-table", {"associativity", "unit-law"},
            lambda: Monoid(tuple(tuple(r) for r in table), 0))
    # 2. monoid unit out of range
    corrupt("monoid-unit", {"unit-range"}, lambda: Monoid(z3.table, 7))
    # 3. category composition entry
    cat = delooping(z3)
    badc = dict(cat.composition)
    badc[(1, 2)] = 1
    corrupt("category-composition", {"associativity", "identity-law"},
            lambda: FiniteCategory(1, cat.dom, cat.cod, cat.identity, badc))
    # 4. category identity pointer
    corrupt("category-identity", {"identity-law", "identity-boundary"},
            lambda: FiniteCategory(1, cat.dom, cat.cod, (1,), dict(cat.composition)))
    # 5. monoidal tensor entry
    d = monoidal_delooping(z3)
    badt = dict(d.tensor_mor)
    badt[(1, 2)] = 1
    corrupt("monoidal-tensor", {"tensor-associativity", "tensor-identity", "interchange",
                                "tensor-unit"},
            lambda: StrictMonoidalCategory(d.base, d.unit_obj, d.tensor_obj, badt))
    # 6. bicategory vertical composition entry
    b = dec.bicat
    badv = dict(b.vcomp)
    badv[(1, 2)] = 1
    corrupt("bicategory-vcomp", {"vertical-associativity", "vertical-identity",
                                 "vertical-unit", "interchange"},
            lambda: StrictBicategory(b.n0, b.dom0, b.cod0, b.dom1, b.cod1,
                                     b.id1, b.id2, badv, b.hcomp1, b.hcomp2))
    # 7. bicategory horizontal composition entry
    badh = dict(b.hcomp2)
    badh[(1, 1)] = 1
    corrupt("bicategory-hcomp2", {"horizontal-associativity", "horizontal-identity",
                                  "horizontal-unit", "interchange"},
            lambda: StrictBicategory(b.n0, b.dom0, b.cod0, b.dom1, b.cod1,
                                     b.id1, b.id2, b.vcomp, b.hcomp1, badh))
    # 8. double category pasting entry (same boundary, wrong square)
    hcomp = dict(dc.hcomp)
    p = next(p for p in range(dc.c1.n_morphisms) if not dc.is_globular(p))
    old = hcomp[("sq", p, p)]
    hcomp[("sq", p, p)] = next(
        v for v in range(dc.c1.n_morphisms)
        if v != old
        and dc.src.morphism_map[v] == dc.src.morphism_map[old]
        and dc.tgt.morphism_map[v] == dc.tgt.morphism_map[old]
        and dc.c1.dom[v] == dc.c1.dom[old] and dc.c1.cod[v] == dc.c1.cod[old])
    corrupt("double-hcomp", {"interchange", "hcomp-unit", "hcomp-associativity",
                             "hcomp-identity"},
            lambda: DoubleCategory(dc.c0, dc.c1, dc.src, dc.tgt, dc.hid, hcomp))
    # 9. precosheaf 2-cell entry
    on2 = tuple(dict(m) for m in phi.on_cells2)
    on2[1][1] = 1
    corrupt("precosheaf-on2", {"precosheaf-functoriality", "action-composition",
                               "action-monoidal", "action-functoriality"},
            lambda: Precosheaf(dec, phi.on_cells1, on2))
    # 10. functor morphism map entry
    corrupt("functor-map", {"identity-preservation", "composition-preservation",
                            "boundary-preservation"},
            lambda: FunctorData(cat, cat, (0,), (0, 1, 1)))

    ok = len(caught) == 10
    laws = ", ".join(law for _, law in caught)
    _line(10, ok, f"10 seeded corruptions caught with named laws: {laws}")
