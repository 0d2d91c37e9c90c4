"""Concrete fixtures: semidirect-product lifts, the graded-category twist,
a hand-built two-object fixture, and the bounded matrix slice whose square
(2, id) is kept out of the first chain level by a rank obstruction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import StructureError
from .fincat import (
    FiniteCategory,
    Frozen,
    Monoid,
    MonoidAction,
    MonoidMorphism,
    StrictMonoidalCategory,
    delooping,
    endomorphism_monoid_of_object,
    monoidal_delooping,
    semidirect_product,
)
from .grothendieck import Precosheaf, constant_precosheaf, identity_precosheaf, precosheaf_from_action
from .lift import LiftData, lift_data
from .twocat import DecoratedBicategory, StrictBicategory, decorate, suspend


# ---------------------------------------------------------------------------
# semidirect products


class SemidirectFixture(LiftData):
    """A semidirect-product lift and its witness: the endomorphism monoid
    of the horizontal identity 1-cell and its isomorphism ``bijection``
    with N x| M."""

    _fields = LiftData._fields + ("semidirect", "endo_monoid", "bijection")

    def __init__(self, dec, phi, key_index, dc, semidirect: Monoid, endo_monoid: Monoid,
                 bijection: tuple[int, ...]):
        vars(self).update(dec=dec, phi=phi, key_index=key_index, dc=dc, semidirect=semidirect,
                          endo_monoid=endo_monoid, bijection=bijection)


def build_semidirect_fixture(n: Monoid, m: Monoid, action: MonoidAction) -> SemidirectFixture:
    """Lift of (Omega M, 2 Omega N) along an action of M on a commutative
    monoid N.  The endomorphism monoid of the horizontal identity 1-cell is
    checked to be the semidirect product N x| M, table for table."""
    if not n.is_commutative:
        raise StructureError("shape-mismatch", "N must be commutative")
    dec = decorate(delooping(m), suspend(monoidal_delooping(n)))
    phi = precosheaf_from_action(dec, action)
    ld = lift_data(dec, phi)
    sd = semidirect_product(n, m, action)

    endo, elements = endomorphism_monoid_of_object(ld.dc.c1, 0)
    if elements != tuple(range(ld.dc.c1.n_morphisms)):
        raise StructureError("semidirect-isomorphism", "some square is not an endomorphism")
    bij = []
    for x in range(n.size):
        for y in range(m.size):
            bij.append(ld.key_index[(y, 0, x)])
    if sorted(bij) != list(range(sd.size)):
        raise StructureError("semidirect-isomorphism", "squares are not in bijection with N x| M")
    try:
        MonoidMorphism(sd, endo, bij)
    except StructureError as exc:
        raise StructureError("semidirect-isomorphism", f"{exc.law}: {exc.detail}") from None
    return SemidirectFixture(**vars(ld), semidirect=sd, endo_monoid=endo,
                             bijection=tuple(bij))


# ---------------------------------------------------------------------------
# graded categories and the twist


def graded_category(g: Monoid, h: Monoid) -> StrictMonoidalCategory:
    """The G-graded category with one copy of H at each degree: objects are
    the degrees, endomorphisms of degree x are the elements of H, tensor is
    multiplication of degrees and of elements."""
    return twisted_graded_category(g, h, MonoidAction.trivial(g, h))


def twisted_graded_category(g: Monoid, h: Monoid, action: MonoidAction) -> StrictMonoidalCategory:
    """Same underlying category, with the tensor of elements twisted by the
    degree of the left factor acting on the right element."""
    if not h.is_commutative:
        raise StructureError("shape-mismatch", "H must be commutative")
    ng, nh = g.size, h.size

    def enc(x: int, e: int) -> int:
        return x * nh + e

    n_mor = ng * nh
    dom = tuple(j // nh for j in range(n_mor))
    identity = tuple(enc(x, h.unit) for x in range(ng))
    comp = {}
    for x in range(ng):
        for e1 in range(nh):
            for e2 in range(nh):
                comp[(enc(x, e1), enc(x, e2))] = enc(x, h.mul(e1, e2))
    base = FiniteCategory(ng, dom, dom, identity, comp)
    tensor_obj = {(x, y): g.mul(x, y) for x in range(ng) for y in range(ng)}
    tensor_mor = {}
    for x in range(ng):
        for e1 in range(nh):
            for y in range(ng):
                for e2 in range(nh):
                    tensor_mor[(enc(x, e1), enc(y, e2))] = \
                        enc(g.mul(x, y), h.mul(e1, action.maps[x][e2]))
    return StrictMonoidalCategory(base, g.unit, tensor_obj, tensor_mor)


def object_fixing_precosheaf(dec: DecoratedBicategory, g: Monoid, h: Monoid,
                             action: MonoidAction) -> Precosheaf:
    """Pre-cosheaf on the suspension of a graded category that fixes every
    degree and acts on elements."""
    b = dec.bicat
    on1 = tuple({x: x for x in range(b.n1)} for _ in range(g.size))
    on2 = tuple(
        {j: (j // h.size) * h.size + action.maps[m][j % h.size] for j in range(b.n2)}
        for m in range(g.size)
    )
    return Precosheaf(dec, on1, on2)


class GradedFixture(LiftData):
    """A graded lift and its witness: the twisted graded category that is
    its vertical monoidal category."""

    _fields = LiftData._fields + ("twisted",)

    def __init__(self, dec, phi, key_index, dc, twisted: StrictMonoidalCategory):
        vars(self).update(dec=dec, phi=phi, key_index=key_index, dc=dc, twisted=twisted)


def build_graded_fixture(g: Monoid, h: Monoid, action: MonoidAction) -> GradedFixture:
    """Lift of the suspended graded category over Omega G, plus the check
    that its vertical monoidal category is the twisted graded category.

    The vertical monoidal category has the vertical morphisms of the lift
    as objects, the squares sitting on the horizontal unit 1-cell as
    morphisms, horizontal pasting as composition and vertical pasting as
    tensor product.  It numbers its morphisms x * |H| + e as the twisted
    graded category does, which fixes its domains, identities and unit, so
    only the three tables read off the lift are compared with the checked
    twisted category's; on equality it is that category.
    """
    if not g.is_group() or not h.is_group():
        raise StructureError("shape-mismatch", "G and H must be groups")
    for f in action.maps:
        if len(set(f)) != h.size:
            raise StructureError("shape-mismatch", "action must be by automorphisms")
    dec = decorate(delooping(g), suspend(graded_category(g, h)))
    ld = lift_data(dec, object_fixing_precosheaf(dec, g, h, action))

    nh = h.size
    # morphism x * nh + e is the square on the unit 1-cell with vertical
    # side x whose payload is the element e of H at the unit degree
    squares = [ld.key_index[(m // nh, g.unit, g.unit * nh + m % nh)] for m in range(g.size * nh)]
    keys = tuple(ld.key_index)

    def decode(sq: int) -> int:
        f, _, payload = keys[sq]
        return f * nh + payload % nh

    comp, tensor_mor = {}, {}
    for m1, p in enumerate(squares):
        for m2, q in enumerate(squares):
            if m1 // nh == m2 // nh:
                comp[(m1, m2)] = decode(ld.dc.hsq(p, q))
            tensor_mor[(m1, m2)] = decode(ld.dc.c1.compose(p, q))
    tensor_obj = {(x, y): ld.dc.c0.compose(x, y) for x in range(g.size) for y in range(g.size)}
    twisted = twisted_graded_category(g, h, action)
    if (comp, tensor_mor, tensor_obj) != \
       (twisted.base.composition, twisted.tensor_mor, twisted.tensor_obj):
        raise StructureError("no-isomorphism",
                             "vertical category is not isomorphic to the twisted category")
    return GradedFixture(**vars(ld), twisted=twisted)


# ---------------------------------------------------------------------------
# a fixture with two 0-cells and a non-endo 1-cell


def build_two_object_fixture() -> LiftData:
    """Two 0-cells a, b; End(a) the suspension of Z2, End(b) trivial, one
    non-endo 1-cell a -> b with only its identity 2-cell; the decoration
    adds one morphism a -> b acting by the forced collapse."""
    # 1-cells: 0 = i_a, 1 = i_b, 2 = u: a -> b
    # 2-cells: 0, 1 on i_a (Z2), 2 = id at i_b, 3 = id at u
    n0 = 2
    dom0, cod0 = (0, 1, 0), (0, 1, 1)
    dom1 = (0, 0, 1, 2)
    cod1 = (0, 0, 1, 2)
    id1 = (0, 1)
    id2 = (0, 2, 3)
    z2 = Monoid.cyclic(2)
    vcomp = {(x, y): z2.mul(x, y) for x in range(2) for y in range(2)}
    vcomp[(2, 2)] = 2
    vcomp[(3, 3)] = 3
    hcomp1 = {(0, 0): 0, (0, 2): 2, (2, 1): 2, (1, 1): 1}
    hcomp2 = {}
    for p in range(2):
        for q in range(2):
            hcomp2[(p, q)] = z2.mul(p, q)
        hcomp2[(p, 3)] = 3
    hcomp2[(3, 2)] = 3
    hcomp2[(2, 2)] = 2
    b = StrictBicategory(n0, dom0, cod0, dom1, cod1, id1, id2, vcomp, hcomp1, hcomp2)

    # decoration: identities plus one morphism 2: a -> b
    bstar = FiniteCategory(
        2, (0, 1, 0), (0, 1, 1), (0, 1),
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2},
    )
    dec = decorate(bstar, b)
    on1 = ({0: 0}, {1: 1}, {0: 1})
    on2 = ({0: 0, 1: 1}, {2: 2}, {0: 2, 1: 2})
    return lift_data(dec, Precosheaf(dec, on1, on2))


# ---------------------------------------------------------------------------
# the bounded matrix slice


Matrix = tuple[tuple[Fraction, ...], ...]


def matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return ()
    rows = []
    for ra in a:
        for rb in b:
            rows.append(tuple(va * vb for va in ra for vb in rb))
    return tuple(rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise StructureError("matrix-shape", f"{len(a[0])} columns against {len(b)} rows")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def rank(m: Matrix) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [list(r) for r in m]
    if not rows:
        return 0
    n_cols = len(rows[0])
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def proportional_tensor_square(v: tuple[Fraction, ...]) -> tuple[Fraction, ...] | None:
    """A vector w with v proportional to w (x) w, if one exists.

    Reshaped to an n x n matrix, a tensor square is a symmetric rank-one
    matrix, and conversely any symmetric rank-one rational matrix is a
    rational multiple of an outer square; the scalar is absorbed by the
    other factor of the factorization, so proportionality is the right
    notion over the rationals.
    """
    n = math.isqrt(len(v))
    if n * n != len(v):
        return None
    r = tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if r[i][j] != r[j][i]:
                return None
    if rank(r) > 1:
        return None
    for row in r:
        if any(x != 0 for x in row):
            return row
    return tuple(Fraction(0) for _ in range(n))


class MatSquareDecision(Frozen):
    """A matrix-slice square's membership in V1; witness: (psi row block, eta column)."""

    _fields = ("vertical_side", "dimension", "payload_rank", "in_v1", "witness", "reason")

    def __init__(self, vertical_side: int, dimension: int, payload_rank: int, in_v1: bool,
                 witness: tuple[Matrix, Matrix] | None, reason: str):
        vars(self).update(vertical_side=vertical_side, dimension=dimension,
                          payload_rank=payload_rank, in_v1=in_v1, witness=witness, reason=reason)


class MatReport(Frozen):
    _fields = ("nmax", "decisions")

    def __init__(self, nmax: int, decisions: tuple[MatSquareDecision, ...]):
        vars(self).update(nmax=nmax, decisions=decisions)

    @property
    def gg(self) -> bool:
        return all(d.in_v1 for d in self.decisions)


def mat_square_in_v1(m: int, dim: int, payload: Matrix) -> MatSquareDecision:
    """Decide whether the square with vertical sides m, top 1-cell dim and
    the given payload matrix factors through the tensor unit.

    A factorization consists of a 1 x dim matrix psi and a column eta with
    payload = eta . psi^{(x) m}, so the payload must have rank at most one;
    for m = 2 the row factor must additionally be a tensor square.
    """
    r = rank(payload)
    if m == 1:
        # the vertical side is the identity of the multiplicative monoid,
        # so the square is globular and trivially in the first level
        return MatSquareDecision(m, dim, r, True, None, "globular square")
    if r > 1:
        return MatSquareDecision(m, dim, r, False,
                                 None, f"rank {r} exceeds 1, no factorization through the unit")
    if r == 0:
        psi = matrix([[0] * dim])
        eta = matrix([[0]] * len(payload))
        return MatSquareDecision(m, dim, 0, True, (psi, eta), "zero payload")
    # rank one: payload = eta . row for some row; recover them
    pivot_row = next(i for i, row in enumerate(payload) if any(v != 0 for v in row))
    row = payload[pivot_row]
    if m == 2:
        w = proportional_tensor_square(row)
        if w is None:
            return MatSquareDecision(m, dim, 1, False, None,
                                     "row factor is not proportional to a tensor square")
        psi = (w,)
        power = kronecker(psi, psi)
        pivot_col = next(j for j, v in enumerate(power[0]) if v != 0)
        eta = tuple((payload[i][pivot_col] / power[0][pivot_col],) for i in range(len(payload)))
        if matmul(eta, power) != payload:
            return MatSquareDecision(m, dim, 1, False, None,
                                     "payload is not a multiple of the tensor square")
        return MatSquareDecision(m, dim, 1, True, (psi, eta), "tensor square factorization")
    raise StructureError("unsupported-side", f"vertical side {m} not handled")


def build_mat_fixture(nmax: int) -> MatReport:
    """The bounded matrix slice: decides first-level membership for the
    designated squares instead of materializing the infinite double
    category.  The (2, identity) square at dimension 4 witnesses failure of
    globular generation."""
    if nmax < 4:
        raise StructureError("shape-mismatch", "need nmax >= 4 to express the (2, id) square")
    decisions = [
        mat_square_in_v1(2, 2, identity_matrix(4)),
        mat_square_in_v1(1, 4, identity_matrix(4)),
        # rank one with a tensor-square row factor: factors through the unit
        mat_square_in_v1(2, 2, matrix([[1, 1, 1, 1],
                                       [2, 2, 2, 2],
                                       [0, 0, 0, 0],
                                       [1, 1, 1, 1]])),
        # rank one but the row reshapes to the (symmetric, rank two)
        # identity, so no tensor-square factor exists
        mat_square_in_v1(2, 2, matrix([[1, 0, 0, 1],
                                       [0, 0, 0, 0],
                                       [0, 0, 0, 0],
                                       [1, 0, 0, 1]])),
    ]
    return MatReport(nmax, tuple(decisions))


# ---------------------------------------------------------------------------
# named registry for the command line


def _monoid_by_token(token: str) -> Monoid:
    if token.startswith("z") and token[1:].isdecimal():
        return Monoid.cyclic(int(token[1:]))
    if token == "flag":
        return Monoid.flag()
    if token == "trivial":
        return Monoid.trivial()
    raise StructureError("unknown-fixture", f"unknown monoid token {token!r}")


def _action_by_token(token: str, acting: Monoid, target: Monoid) -> MonoidAction:
    if token == "inv":
        action = MonoidAction.inversion(target)
        if action.acting != acting:
            raise StructureError("unknown-fixture", "inversion needs acting monoid z2")
        return action
    if token == "triv":
        return MonoidAction.trivial(acting, target)
    raise StructureError("unknown-fixture", f"unknown action token {token!r}")


def fixture_by_name(name: str):
    """Resolve names such as semidirect:z3:z2:inv, graded:z2:z3:inv, mat:4,
    constant:flag:z3, identity:flag:z3, twoobject."""
    parts = name.split(":")
    kind = parts[0]
    if kind == "semidirect" and len(parts) == 4:
        n, m = _monoid_by_token(parts[1]), _monoid_by_token(parts[2])
        return build_semidirect_fixture(n, m, _action_by_token(parts[3], m, n))
    if kind == "graded" and len(parts) == 4:
        g, h = _monoid_by_token(parts[1]), _monoid_by_token(parts[2])
        return build_graded_fixture(g, h, _action_by_token(parts[3], g, h))
    if kind == "mat" and len(parts) == 2 and parts[1].isdecimal():
        return build_mat_fixture(int(parts[1]))
    if kind in ("constant", "identity") and len(parts) == 3:
        bstar = _monoid_by_token(parts[1])
        fiber = _monoid_by_token(parts[2])
        dec = decorate(delooping(bstar), suspend(monoidal_delooping(fiber)))
        phi = constant_precosheaf(dec) if kind == "constant" else identity_precosheaf(dec)
        return lift_data(dec, phi)
    if kind == "twoobject" and len(parts) == 1:
        return build_two_object_fixture()
    raise StructureError("unknown-fixture", name)

