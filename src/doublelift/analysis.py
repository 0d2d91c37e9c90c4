"""Structural analysis of double categories: the globularily generated part,
the vertical length chain, membership of squares in the first chain level,
and the foldings of single-object lifts, which also decide cofoldings:
over the commutative globular monoids accepted here the two laws
coincide.
"""

from __future__ import annotations

import itertools
import os

from .doublecat import DoubleCategory, HKey, decorated_horizontalization, globular_squares
from .errors import StructureError
from .fincat import Frozen, FunctorData, Monoid, endomorphism_monoid_of_object, monoid_homomorphisms
from .grothendieck import Precosheaf
from .lift import LiftData, lift_data
from .twocat import DecoratedBicategory

DEFAULT_SEARCH_LIMIT = 10 ** 7


def _search_limit() -> int:
    raw = os.environ.get("DOUBLELIFT_SEARCH_LIMIT")
    try:
        limit = int(raw) if raw else DEFAULT_SEARCH_LIMIT
    except ValueError:
        raise StructureError("search-limit", f"DOUBLELIFT_SEARCH_LIMIT={raw!r} is not an integer")
    if limit < 0:
        raise StructureError("search-limit", f"DOUBLELIFT_SEARCH_LIMIT={raw!r} is negative")
    return limit


# ---------------------------------------------------------------------------
# generated sub-double category


def _vertical_closure(c: DoubleCategory, squares: set[int]) -> set[int]:
    out, comp = set(squares), c.c1.composition
    while new := {r for (q, p), r in comp.items() if q in out and p in out} - out:
        out |= new
    return out


def _horizontal_step(c: DoubleCategory, squares: set[int]) -> set[int]:
    return squares | {r for (p, q), r in c.hparts[1].items() if p in squares and q in squares}


class GammaData(Frozen):
    """A sub-double category, the input id of each square, and the square
    sets of its vertical chain: ``levels[0]`` is generated by the globular
    and horizontal identity squares under vertical composition, and each
    later level is the vertical closure of a horizontal step of the one
    before, so it contains it.  The last level is every square of ``dc``."""

    _fields = ("dc", "square_ids", "levels")

    def __init__(self, dc: DoubleCategory, square_ids: tuple[int, ...],
                 levels: tuple[tuple[int, ...], ...]):
        vars(self).update(dc=dc, square_ids=square_ids, levels=levels)


def gamma_data(c: DoubleCategory) -> GammaData:
    """Least sub-double category containing every globular square and every
    horizontal identity square, on all horizontal 1-cells.

    The closure steps are the levels of the vertical chain, which is
    recorded along the way.  ``c`` must be a valid double category.  If the
    closure holds every square, the result is ``c`` itself.  Otherwise it is
    cut out of ``c``: a closed sub-double category of a valid one satisfies
    every law, and the chain ends on a closed level.  Its ``src`` and
    ``tgt`` are those of ``c`` restricted to the closed square category, and
    its ``hid`` is that of ``c`` with its image, which lies in the seed,
    renumbered; so all three are functors and are not checked again."""
    seed = globular_squares(c) | set(c.hid.morphism_map)
    levels = [_vertical_closure(c, seed)]
    while True:
        bigger = _vertical_closure(c, _horizontal_step(c, levels[-1]))
        if bigger == levels[-1]:
            break
        levels.append(bigger)
    if len(levels[-1]) == c.c1.n_morphisms:
        return GammaData(c, tuple(range(c.c1.n_morphisms)), tuple(tuple(sorted(level)) for level in levels))
    c1 = c.c1.restrict(levels[-1])
    square_ids = tuple(sorted(levels[-1]))
    pos = {p: i for i, p in enumerate(square_ids)}
    src = FunctorData(c1, c.c0, c.src.object_map,
                      tuple(c.src.morphism_map[p] for p in square_ids), validate=False)
    tgt = FunctorData(c1, c.c0, c.tgt.object_map,
                      tuple(c.tgt.morphism_map[p] for p in square_ids), validate=False)
    hid = FunctorData(c.c0, c1, c.hid.object_map,
                      tuple(pos[p] for p in c.hid.morphism_map), validate=False)
    hcomp: dict[HKey, int] = {("ob", x, y): z for (x, y), z in c.hparts[0].items()}
    # the chain stopped where a horizontal step adds nothing, so every pasting of two kept squares is kept
    hcomp.update({("sq", pos[u], pos[v]): pos[w]
                  for (u, v), w in c.hparts[1].items() if u in pos and v in pos})
    dc = DoubleCategory(c.c0, c1, src, tgt, hid, hcomp, validate=False)
    return GammaData(dc, square_ids, tuple(tuple(sorted(pos[p] for p in level)) for level in levels))


def gamma(c: DoubleCategory) -> DoubleCategory:
    return gamma_data(c).dc


def is_gg(c: DoubleCategory) -> bool:
    return gamma(c) is c


# ---------------------------------------------------------------------------
# vertical length


def vertical_chain(c: DoubleCategory) -> tuple[tuple[int, ...], ...]:
    """The square sets of the chain levels, numbered as the squares of the
    globularily generated part; the chain always stabilizes at all of them."""
    return gamma_data(c).levels


def vertical_length(c: DoubleCategory) -> int:
    """The number of chain levels: the 1-based index of the level at which
    the chain stabilizes."""
    return len(vertical_chain(c))


# ---------------------------------------------------------------------------
# first-level membership for squares of a lift


def v1_membership(ld: LiftData, square: int) -> tuple[bool, tuple[int, int] | None]:
    """Decide whether a pair square (f, phi) lies in the first chain level.

    The pair squares are ``n2 <= square < c1.n_morphisms``; any other
    ``square`` fails ``not-a-pair-square``.  The search looks for a
    factorization through the horizontal identity of f: a pair of 2-cells
    psi: top -> i_a and eta: i_b -> bottom with eta . i_f . psi equal to
    the square.  The result is cross-checked against chain membership.
    """
    b = ld.dec.bicat
    if not b.n2 <= square < ld.dc.c1.n_morphisms:
        raise StructureError("not-a-pair-square", f"square {square}")
    bstar = ld.dec.decoration
    f = ld.dc.src.morphism_map[square]
    a, bb = bstar.dom[f], bstar.cod[f]
    i_f = ld.dc.hid.morphism_map[f]
    top, bottom = ld.dc.c1.dom[square], ld.dc.c1.cod[square]

    witness = None
    for psi in b.cells2_between(top, b.id1[a]):
        for eta in b.cells2_between(b.id1[bb], bottom):
            composite = ld.dc.c1.compose(eta, ld.dc.c1.compose(i_f, psi))
            if composite == square:
                witness = (psi, eta)
                break
        if witness:
            break

    gd = gamma_data(ld.dc)
    in_chain = square in {gd.square_ids[p] for p in gd.levels[0]}
    if (witness is not None) != in_chain:
        raise StructureError(
            "v1-membership", f"factorization search and chain membership disagree on square {square}")
    return witness is not None, witness


# ---------------------------------------------------------------------------
# foldings and cofoldings of single-object lifts


class Folding(Frozen):
    """A compatible family of bijections from squares with vertical sides m
    to globular squares, one per vertical morphism, over the trivial
    holonomy.  ``payload_maps[m]`` maps square payloads (elements of the
    globular monoid A) to payloads."""

    _fields = ("payload_maps",)

    def __init__(self, payload_maps: tuple[tuple[int, ...], ...]):
        vars(self).update(payload_maps=payload_maps)


class SearchCertificate(Frozen):
    """Outcome of an exhausted (absence proven) or aborted folding search."""

    _fields = ("exhausted", "nodes", "limit")

    def __init__(self, exhausted: bool, nodes: int, limit: int):
        vars(self).update(exhausted=exhausted, nodes=nodes, limit=limit)


def single_object_monoids(dec: DecoratedBicategory) -> tuple[Monoid, Monoid]:
    """(M, A) for a one-object, one-1-cell decorated bicategory: the monoid
    of decoration morphisms and the globular monoid of 2-cells.

    ``dec.bicat`` must satisfy the bicategory laws (it has passed them, or
    inherited them from a checked double category).  With one 1-cell, A's
    table is its vertical composition, which those laws make total,
    associative and unital, so A's laws are not checked again.
    """
    b = dec.bicat
    bstar = dec.decoration
    if b.n0 != 1 or bstar.n_objects != 1:
        raise StructureError("shape-mismatch", "folding search needs a single 0-cell")
    if b.n1 != 1:
        raise StructureError("shape-mismatch", "folding search needs a single 1-cell")
    m, _ = endomorphism_monoid_of_object(bstar, 0)
    # commutative by Eckmann-Hilton: over one 0-cell and one 1-cell the
    # interchange and unit laws, checked when b was built, make the vertical
    # composite of 2-cells equal to the horizontal one and commutative
    a = Monoid(
        tuple(tuple(b.vcomp[(x, y)] for y in range(b.n2)) for x in range(b.n2)),
        b.id2[0], validate=False,
    )
    return m, a


def validate_folding(phi: Precosheaf, fold: Folding) -> None:
    """Re-check the folding laws of the lift of ``phi`` exhaustively.  The
    vertical law is ``lams[m2 m1][y2 * phi(m2)(y1)] == lams[m2][y2] * lams[m1][y1]``.
    A cofolding swaps the two images on the right, which over the
    commutative globular monoids accepted here is the same law."""
    m, a = single_object_monoids(phi.dec)
    lams = fold.payload_maps
    if len(lams) != m.size:
        raise StructureError("folding-shape", f"{len(lams)} bijections for {m.size} vertical morphisms")
    if lams[m.unit] != tuple(range(a.size)):
        raise StructureError("folding-identity", "identity vertical morphism not fixed")
    for x in range(m.size):
        if lams[x][a.unit] != a.unit:
            raise StructureError("folding-unit", f"vertical morphism {x}")
        if len(set(lams[x])) != a.size:
            raise StructureError("folding-bijectivity", f"vertical morphism {x}")
        for y1 in range(a.size):
            for y2 in range(a.size):
                if lams[x][a.mul(y1, y2)] != a.mul(lams[x][y1], lams[x][y2]):
                    raise StructureError("folding-horizontal", f"({x}, {y1}, {y2})")
    for m2 in range(m.size):
        for m1 in range(m.size):
            lamc, lam2, lam1, act = lams[m.mul(m2, m1)], lams[m2], lams[m1], phi.on_cells2[m2]
            for y2 in range(a.size):
                for y1 in range(a.size):
                    if lamc[a.mul(y2, act[y1])] != a.mul(lam2[y2], lam1[y1]):
                        raise StructureError("folding-vertical", f"({m2}, {m1}, {y2}, {y1})")


def find_folding(phi: Precosheaf):
    """The folding of the lift of ``phi``, re-checked by ``validate_folding``,
    or the certificate that a backtracking search over the automorphisms of
    A, one vertical morphism at a time in ascending id order, would give.

    The vertical law at (unit, x) and payload unit makes lams[x] the
    identity, which is the first automorphism, and the law at (x, unit)
    then makes x act trivially.  So the search spends one node per non-unit
    morphism if all act trivially and finds the identity family; otherwise
    it proves absence in |Aut(A)| (k + 1) nodes, k the position of the
    first nontrivial one.  Automorphisms are counted only in that case,
    and only until the count exceeds the budget."""
    m, a = single_object_monoids(phi.dec)
    limit = _search_limit()
    order = [x for x in range(m.size) if x != m.unit]
    k = next((i for i, x in enumerate(order)
              if any(phi.on_cells2[x][y] != y for y in range(a.size))), None)
    if k is None:
        if len(order) <= limit:
            fold = Folding((tuple(range(a.size)),) * m.size)
            validate_folding(phi, fold)
            return fold
        return SearchCertificate(False, limit + 1, limit)
    autos = monoid_homomorphisms(a, a.table, a.unit, injective=True)
    nodes = (k + 1) * sum(1 for _ in itertools.islice(autos, limit // (k + 1) + 1))
    if nodes <= limit:
        return SearchCertificate(True, nodes, limit)
    return SearchCertificate(False, limit + 1, limit)


def find_cofolding(phi: Precosheaf):
    """A cofolding swaps the two images in the vertical law.  Over the
    commutative globular monoids accepted here that is the folding law, so
    this is find_folding's result."""
    return find_folding(phi)


def framed_flag(phi: Precosheaf) -> bool | None:
    """True when both a folding and a cofolding exist, False when they are
    proven absent, None when the budget was exceeded.  One answer decides
    both, since a cofolding is a folding here."""
    result = find_folding(phi)
    if isinstance(result, Folding):
        return True
    return False if result.exhausted else None


def single_object_precosheaf(c: DoubleCategory) -> Precosheaf:
    """Read the pre-cosheaf off a one-object, one-1-cell double category.

    The action of a vertical morphism m on a globular payload p is the
    unique globular q with q . i_m == i_m . p: both composites are the
    square (m, action(p)), and matching needs no inverses, so this works
    for monoid decorations.  The lift of the result has one square per
    vertical morphism and globular square, and ``c`` must have as many."""
    if c.c0.n_objects != 1 or c.c1.n_objects != 1:
        raise StructureError("shape-mismatch", "expected one object and one horizontal 1-cell")
    dec = decorated_horizontalization(c)
    glob = sorted(globular_squares(c))
    on1, on2 = [], []
    for m in range(c.c0.n_morphisms):
        im = c.hid.morphism_map[m]
        mapping, lowered = {}, [c.c1.compose(q, im) for q in glob]
        for i, p in enumerate(glob):
            lifted = c.c1.compose(im, p)
            if lowered.count(lifted) != 1:
                raise StructureError("not-a-lift", f"action of {m} on payload {i} is ambiguous")
            mapping[i] = lowered.index(lifted)
        on1.append({0: 0})
        on2.append(mapping)
    phi = Precosheaf(dec, tuple(on1), tuple(on2))
    if c.c1.n_morphisms != c.c0.n_morphisms * len(glob):
        raise StructureError("not-a-lift", "square count differs from the reconstructed lift")
    return phi


def reconstruct_single_object_lift(c: DoubleCategory) -> LiftData:
    """Recover the (dec, phi) presentation of a one-object, one-1-cell lift
    from its tables."""
    phi = single_object_precosheaf(c)
    return lift_data(phi.dec, phi)


# ---------------------------------------------------------------------------
# the surjectivity criterion


def gg_criterion_surjective(phi: Precosheaf) -> bool:
    """True iff every action map of a single-object pre-cosheaf is
    surjective on 2-cells.  When true the lift is globularily generated;
    the converse is not asserted."""
    dec = phi.dec
    if dec.decoration.n_objects != 1 or dec.bicat.n0 != 1 or dec.bicat.n1 != 1:
        raise StructureError("shape-mismatch",
                             "criterion needs a one-object, one-1-cell decorated bicategory")
    n2 = dec.bicat.n2
    cells2 = set(range(n2))
    for f in range(dec.decoration.n_morphisms):
        if set(phi.on_cells2[f].values()) != cells2:
            return False
    return True
