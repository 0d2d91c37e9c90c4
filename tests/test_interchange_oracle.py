"""Differential tests of the interchange kernel against a brute-force loop.

``fincat.interchange_failure`` decides the law with a box pass, which
compares whole boxes of quadruples in C, and names the first failing
quadruple with a scalar loop, which runs only on a failure or over more
than 256 cells.  On double categories, monoidal categories and
bicategories, intact or with one composite replaced by a cell of the same
boundaries (so that every boundary law still holds):

* the box pass holds exactly when the scalar loop finds no failure;
* both, and the kernel, return the first failing quadruple of the
  brute-force loop over every pair of composable pairs, in table order.

Both passes read the tables' class rows.  A 324-square graded lift, with
nine boundary classes per table, takes the kernel past 256 cells, where
the scalar loop alone decides the law and names the quadruple.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import doublelift
from doublelift import fincat
from doublelift.examples import build_semidirect_fixture, fixture_by_name
from doublelift.fincat import Monoid, MonoidAction, interchange_failure
from doublelift.lift import lift_data

from support import fixture_corpus
from test_table_laws_oracle import _seeds


def brute_force_failure(vtable, vright, vleft, htable, hright, hleft):
    for q, p in vtable:
        for q2, p2 in vtable:
            if hright[q] != hleft[q2] or hright[p] != hleft[p2]:
                continue
            if vtable[htable[q, q2], htable[p, p2]] != htable[vtable[q, p], vtable[q2, p2]]:
                return q, p, q2, p2
    return None


def box_pass(*args) -> bool:
    """The verdict of the kernel's box pass, on the rows the kernel builds."""
    verdicts = []
    holds = fincat._interchange_holds

    def record(*rows_and_ends):
        verdicts.append(holds(*rows_and_ends))
        return False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fincat, "_interchange_holds", record)
        interchange_failure(*args)
    return verdicts == [True]


def scalar_failure(*args):
    """The kernel with its box pass skipped, so that the scalar loop runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fincat, "_interchange_holds", lambda *_: False)
        return interchange_failure(*args)


def double_args(c):
    sq = {key[1:]: w for key, w in c.hcomp.items() if key[0] == "sq"}
    return c.c1.composition, c.c1.dom, c.c1.cod, sq, c.tgt.morphism_map, c.src.morphism_map


def monoidal_args(base, unit_obj, tensor_obj, tensor_mor):
    ends = (0,) * base.n_morphisms
    return base.composition, base.dom, base.cod, tensor_mor, ends, ends


def bicategory_args(n0, dom0, cod0, dom1, cod1, id1, id2, vcomp, hcomp1, hcomp2):
    left, right = [dom0[x] for x in dom1], [cod0[x] for x in dom1]
    return vcomp, dom1, cod1, hcomp2, right, left


@lru_cache(maxsize=None)
def _inputs() -> list[tuple[str, tuple]]:
    """Interchange arguments of the corpus lifts and of the table-law
    oracle seeds: monoidal categories and bicategories."""
    out = [(tag, double_args(lift_data(dec, phi).dc)) for tag, dec, phi in fixture_corpus()]
    for kind, build in (("monoidal-category", monoidal_args), ("bicategory", bicategory_args)):
        out += [(f"{kind}[{i}]", build(*args)) for i, (args, _) in enumerate(_seeds()[kind])]
    return out


def _agree(args, tag):
    brute = brute_force_failure(*args)
    assert box_pass(*args) is (brute is None), tag
    assert scalar_failure(*args) == brute, tag
    assert interchange_failure(*args) == brute, tag
    return brute


def test_every_input_passes_all_three_checks():
    for tag, args in _inputs():
        assert _agree(args, tag) is None


def _replaced(args, which: int, entry: int, choice: int):
    """``args`` with one composite of the table ``which`` (0 vertical, 1
    horizontal) replaced by another cell of the same boundaries, or None if
    there is no other such cell."""
    out = list(args)
    table = out[3 * which] = dict(args[3 * which])
    key = sorted(table)[entry % len(table)]
    ends = (args[1], args[2], args[4], args[5])
    same = [x for x in range(len(args[1])) if x != table[key]
            and all(end[x] == end[table[key]] for end in ends)]
    if not same:
        return None
    table[key] = same[choice % len(same)]
    return tuple(out)


@settings(deadline=None)
@given(st.integers(min_value=0), st.integers(0, 1), st.integers(min_value=0), st.integers(min_value=0))
def test_kernels_agree_on_replaced_composites(index, which, entry, choice):
    tag, args = _inputs()[index % len(_inputs())]
    mutated = _replaced(args, which, entry, choice)
    if mutated is not None:
        _agree(mutated, (tag, which, entry, choice))


def test_kernels_agree_on_a_z12_semidirect_lift():
    # 144 squares, so the box pass still runs; the replaced composite is the
    # first key of the vertical table, so the brute-force loop stops early
    z12 = Monoid.cyclic(12)
    args = double_args(build_semidirect_fixture(z12, z12, MonoidAction.trivial(z12, z12)).dc)
    assert box_pass(*args)
    assert interchange_failure(*args) is None and scalar_failure(*args) is None
    vtable = args[0]
    mutated = _replaced(args, 0, sorted(vtable).index(next(iter(vtable))), 1)
    assert _agree(mutated, "z12") is not None


@lru_cache(maxsize=None)
def _graded_z9_z4() -> tuple:
    # 324 squares, so the scalar loop decides the law on class rows; each
    # table has nine boundary classes of 36 squares
    return double_args(fixture_by_name("graded:z9:z4:triv").dc)


def test_the_scalar_loop_decides_a_324_square_graded_lift():
    args = _graded_z9_z4()
    assert not box_pass(*args)
    assert interchange_failure(*args) is None


@pytest.mark.skipif(os.environ.get("HYPOTHESIS_PROFILE") != "ci", reason="about 5 s; the long run only")
def test_a_324_square_graded_lift_passes_the_brute_force_loop():
    assert brute_force_failure(*_graded_z9_z4()) is None


# a replacement that keeps the law costs the brute-force loop about 5 s
@settings(deadline=None, max_examples=settings.default.max_examples // 10)
@given(st.integers(0, 1), st.integers(min_value=0), st.integers(min_value=0))
def test_the_scalar_loop_agrees_on_replaced_composites_of_a_324_square_graded_lift(which, entry, choice):
    mutated = _replaced(_graded_z9_z4(), which, entry, choice)
    if mutated is not None:
        assert interchange_failure(*mutated) == brute_force_failure(*mutated)


def test_check_double_axioms_on_a_3000_object_trivial_double_category_in_512_mb():
    # 3,000 squares, so the scalar loop runs.  Its pair groups hold only the
    # 3,000 composable pairs; one group per pair of c0-morphisms would need
    # 9 million lists and more than 800 MB.
    import resource

    cap = 512 << 20
    code = ("from doublelift.doublecat import check_double_axioms\n"
            "from support import discrete, trivial_double_category\n"
            "report = check_double_axioms(trivial_double_category(discrete(3000)))\n"
            "print(all(ok for _, ok, _ in report))\n")
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(doublelift.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join((src_dir, tests_dir))),
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")
