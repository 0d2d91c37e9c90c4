"""Differential test of the folding decision against a backtracking search.

The oracle below is the search as it was written before the cofolding
search was folded into the folding search: it re-checks the vertical law
over every assigned pair at each node, and keeps a mirrored variant that
swaps the two images on the right of that law.  The current code decides
the question from the action and computes the search's node count in
closed form, and answers the cofolding and framed questions from that one
result.  Both must report the same node counts and the same folding, for
every action of Z2, Z3 and the flag monoid on every commutative target of
size at most 5, under several search budgets.
"""

import pytest

from doublelift import analysis, fincat
from doublelift.analysis import (
    Folding,
    SearchCertificate,
    _search_limit,
    find_cofolding,
    find_folding,
    framed_flag,
    single_object_monoids,
    validate_folding,
)
from doublelift.errors import StructureError
from doublelift.fincat import (
    Monoid,
    MonoidAction,
    delooping,
    enumerate_actions,
    monoid_automorphisms,
    monoidal_delooping,
)
from doublelift.grothendieck import precosheaf_from_action
from doublelift.lift import lift_data
from doublelift.twocat import decorate, suspend

from support import klein_four, null_monoid


def oracle_folding_search(ld, mirrored):
    m, a = single_object_monoids(ld.dec)
    phi = ld.phi
    autos = monoid_automorphisms(a)
    ident = tuple(range(a.size))
    order = [x for x in range(m.size) if x != m.unit]
    assignment = {m.unit: ident}
    limit = _search_limit()
    nodes = 0

    def consistent():
        for m2, lam2 in assignment.items():
            for m1, lam1 in assignment.items():
                mc = m.mul(m2, m1)
                if mc not in assignment:
                    continue
                lamc = assignment[mc]
                for y2 in range(a.size):
                    for y1 in range(a.size):
                        payload = a.mul(y2, phi.on_cells2[m2][y1])
                        if mirrored:
                            rhs = a.mul(lam1[y1], lam2[y2])
                        else:
                            rhs = a.mul(lam2[y2], lam1[y1])
                        if lamc[payload] != rhs:
                            return False
        return True

    class Budget(Exception):
        pass

    def extend(k):
        nonlocal nodes
        if k == len(order):
            return dict(assignment)
        for lam in autos:
            nodes += 1
            if nodes > limit:
                raise Budget()
            assignment[order[k]] = lam
            if consistent():
                found = extend(k + 1)
                if found is not None:
                    return found
            del assignment[order[k]]
        return None

    try:
        found = extend(0)
    except Budget:
        return SearchCertificate(False, nodes, limit)
    if found is None:
        return SearchCertificate(True, nodes, limit)
    return Folding(tuple(found[x] for x in range(m.size)))


def oracle_framed_flag(ld):
    outcomes = []
    for r in (oracle_folding_search(ld, False), oracle_folding_search(ld, True)):
        if isinstance(r, Folding):
            outcomes.append(True)
        elif r.exhausted:
            outcomes.append(False)
        else:
            outcomes.append(None)
    if False in outcomes:
        return False
    if None in outcomes:
        return None
    return True


def oracle_vertical_failure(ld, fold, mirrored):
    """The previous validate_folding's vertical loop, with its mirror."""
    m, a = single_object_monoids(ld.dec)
    lams = fold.payload_maps
    for m2 in range(m.size):
        for m1 in range(m.size):
            for y2 in range(a.size):
                for y1 in range(a.size):
                    payload = a.mul(y2, ld.phi.on_cells2[m2][y1])
                    if mirrored:
                        rhs = a.mul(lams[m1][y1], lams[m2][y2])
                    else:
                        rhs = a.mul(lams[m2][y2], lams[m1][y1])
                    if lams[m.mul(m2, m1)][payload] != rhs:
                        return f"folding-vertical: ({m2}, {m1}, {y2}, {y1})"
    return None


ACTING = {"z2": Monoid.cyclic(2), "z3": Monoid.cyclic(3), "flag": Monoid.flag()}
TARGETS = {**{f"z{n}": Monoid.cyclic(n) for n in range(1, 6)},
           "v4": klein_four(), "flag": Monoid.flag()}


@pytest.fixture(scope="module")
def search_lifts():
    out = []
    for gname, g in ACTING.items():
        for aname, a in TARGETS.items():
            dec = decorate(delooping(g), suspend(monoidal_delooping(a)))
            for i, action in enumerate(enumerate_actions(g, a)):
                out.append((f"{gname}:{aname}:{i}", lift_data(dec, precosheaf_from_action(dec, action))))
    return out


def _outcome(result):
    if isinstance(result, Folding):
        return ("folding", result.payload_maps)
    return ("certificate", result.exhausted, result.nodes, result.limit)


@pytest.mark.parametrize("limit", [None, "1", "3", "7"])
def test_search_matches_the_oracle(search_lifts, monkeypatch, limit):
    if limit is None:
        monkeypatch.delenv("DOUBLELIFT_SEARCH_LIMIT", raising=False)
    else:
        monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", limit)
    kinds = set()
    for tag, ld in search_lifts:
        fold = find_folding(ld.phi)
        assert _outcome(fold) == _outcome(oracle_folding_search(ld, False)), tag
        assert _outcome(find_cofolding(ld.phi)) == _outcome(oracle_folding_search(ld, True)), tag
        assert framed_flag(ld.phi) == oracle_framed_flag(ld), tag
        kinds.add("folding" if isinstance(fold, Folding) else fold.exhausted)
    # the inputs exercise found foldings and proven absences, and a low
    # budget also cuts searches short
    assert {"folding", True} <= kinds
    assert (False in kinds) == (limit in ("1", "3"))


def test_a_folding_exists_iff_the_action_is_trivial():
    """The vertical law at m2 = unit and y1 = unit reads
    lams[m1][y2] == y2, so the only candidate is the identity family, and
    at y2 = unit it then reads phi(m2)(y1) == y1.  The search must agree
    on every action, including those on Z6 and Z7."""
    targets = {**TARGETS, "z6": Monoid.cyclic(6), "z7": Monoid.cyclic(7)}
    for gname, g in ACTING.items():
        for aname, a in targets.items():
            dec = decorate(delooping(g), suspend(monoidal_delooping(a)))
            ident = tuple(range(a.size))
            for i, action in enumerate(enumerate_actions(g, a)):
                ld = lift_data(dec, precosheaf_from_action(dec, action))
                trivial = all(f == ident for f in action.maps)
                for result in (find_folding(ld.phi), find_cofolding(ld.phi)):
                    assert isinstance(result, Folding) == trivial, (gname, aname, i)
                    assert not trivial or result.payload_maps == (ident,) * g.size
                    assert trivial or result.exhausted


def test_validate_folding_matches_the_oracle_on_perturbed_families(search_lifts):
    checked = 0
    for tag, ld in search_lifts:
        fold = find_folding(ld.phi)
        if not isinstance(fold, Folding):
            continue
        _, a = single_object_monoids(ld.dec)
        for x in range(len(fold.payload_maps)):
            for auto in monoid_automorphisms(a):
                maps = fold.payload_maps[:x] + (auto,) + fold.payload_maps[x + 1:]
                family = Folding(maps)
                try:
                    validate_folding(ld.phi, family)
                    got = None
                except StructureError as exc:
                    got = str(exc)
                if got is None or "folding-vertical" in got:
                    for mirrored in (False, True):
                        assert got == oracle_vertical_failure(ld, family, mirrored), (tag, maps)
                        checked += got is not None
    assert checked > 0


def _with_limit(monkeypatch, limit):
    if limit is None:
        monkeypatch.delenv("DOUBLELIFT_SEARCH_LIMIT", raising=False)
    else:
        monkeypatch.setenv("DOUBLELIFT_SEARCH_LIMIT", str(limit))


def _lift(g, a, action_maps=None):
    dec = decorate(delooping(g), suspend(monoidal_delooping(a)))
    action = (MonoidAction.trivial(g, a) if action_maps is None
              else MonoidAction(g, a, action_maps))
    return lift_data(dec, precosheaf_from_action(dec, action))


def test_the_node_count_matches_the_oracle_at_the_budget_edges(search_lifts, monkeypatch):
    """An absence proven with ``count`` nodes stays proven under a budget of
    exactly ``count`` and turns inconclusive, with limit + 1 nodes, one
    below it."""
    edges = 0
    for tag, ld in search_lifts:
        _with_limit(monkeypatch, None)
        full = oracle_folding_search(ld, False)
        if isinstance(full, Folding):
            continue
        count = full.nodes
        for limit, want in ((count, SearchCertificate(True, count, count)),
                            (count - 1, SearchCertificate(False, count, count - 1))):
            _with_limit(monkeypatch, limit)
            assert find_folding(ld.phi) == oracle_folding_search(ld, False) == want, (tag, limit)
            edges += 1
    assert edges > 0


def test_a_trivial_action_needs_one_node_per_non_unit_vertical_morphism(monkeypatch):
    _with_limit(monkeypatch, 0)
    ld = _lift(Monoid.cyclic(1), Monoid.cyclic(3))
    assert find_folding(ld.phi) == oracle_folding_search(ld, False) == Folding(((0, 1, 2),))
    ld = _lift(Monoid.cyclic(3), Monoid.cyclic(2))
    for limit in (0, 1):
        _with_limit(monkeypatch, limit)
        assert find_folding(ld.phi) == oracle_folding_search(ld, False) == SearchCertificate(
            False, limit + 1, limit)
    _with_limit(monkeypatch, 2)
    assert find_folding(ld.phi) == oracle_folding_search(ld, False) == Folding(((0, 1),) * 3)


def test_the_budget_bounds_the_automorphism_count(monkeypatch):
    """Z2 swapping two non-zero elements of a null monoid of size 8 (720
    automorphisms): under a budget of 1 node, at most 2 automorphisms are
    drawn, enough to prove the budget exceeded."""
    ld = _lift(Monoid.cyclic(2), null_monoid(8), (tuple(range(8)), (0, 1, 2, 3, 4, 5, 7, 6)))
    drawn = 0
    real = fincat.monoid_homomorphisms

    def counting(*args, **kwargs):
        nonlocal drawn
        for f in real(*args, **kwargs):
            drawn += len(set(f)) == len(f)
            yield f

    for module in (fincat, analysis):
        if hasattr(module, "monoid_homomorphisms"):
            monkeypatch.setattr(module, "monoid_homomorphisms", counting)
    _with_limit(monkeypatch, 1)
    assert find_folding(ld.phi) == SearchCertificate(False, 2, 1)
    assert drawn <= 2
