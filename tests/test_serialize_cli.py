import json
import os
import subprocess
import sys
from functools import cached_property

import pytest
from hypothesis import example, given, strategies as st

from doublelift import doublecat
from doublelift.cli import Report, run
from doublelift.errors import StructureError
from doublelift.examples import build_semidirect_fixture
from doublelift.fincat import (FiniteCategory, FunctorData, Monoid, MonoidAction, MonoidMorphism,
                               StrictMonoidalCategory, delooping, monoidal_delooping)
from doublelift.grothendieck import Precosheaf, constant_precosheaf, precosheaf_from_action
from doublelift.serialize import dump, dumps, load, loads
from doublelift.twocat import StrictBicategory, decorate, suspend


def _semidirect_parts():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = decorate(delooping(z2), suspend(monoidal_delooping(z3)))
    phi = precosheaf_from_action(dec, MonoidAction.inversion(z3))
    return dec, phi


def test_round_trip_is_byte_identical_for_the_corpus(corpus_lifts):
    for tag, ld in corpus_lifts:
        for value in (ld.dec, ld.phi, ld.dc, ld.dec.decoration, ld.dec.bicat):
            text = dumps(value)
            again = loads(text)
            assert dumps(again) == text, (tag, type(value).__name__)
            assert again == value, (tag, type(value).__name__)


def test_round_trip_of_monoids_and_monoidal_categories():
    z4 = Monoid.cyclic(4)
    assert loads(dumps(z4)) == z4
    d = monoidal_delooping(z4)
    assert loads(dumps(d)) == d


def test_file_round_trip(tmp_path):
    dec, phi = _semidirect_parts()
    path = tmp_path / "phi.json"
    dump(phi, str(path))
    assert load(str(path)) == phi


def test_parse_error_reports_location():
    with pytest.raises(StructureError, match="parse-error") as err:
        loads("{\n  broken\n")
    assert "line 2" in err.value.detail
    with pytest.raises(StructureError, match="parse-error"):
        loads("[1, 2, 3]")
    with pytest.raises(StructureError, match="unknown-kind"):
        loads('{"kind": "widget"}')


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, "1" * 5000],
                         ids=["deep-nesting", "5000-digit-integer"])
def test_cli_check_reports_unparsable_json_as_a_parse_error(tmp_path, capsys, text):
    # the json module raises RecursionError and ValueError here, not JSONDecodeError
    path = tmp_path / "unparsable.json"
    path.write_text(text)
    assert run(["check", str(path)]) == 1
    assert "FAIL  load: parse-error: " in capsys.readouterr().out


def test_corrupted_file_fails_with_a_named_law():
    z3 = Monoid.cyclic(3)
    obj = json.loads(dumps(z3))
    obj["table"][1][1] = 0
    with pytest.raises(StructureError) as err:
        loads(json.dumps(obj))
    assert err.value.law in ("associativity", "unit-law")


def _graded_lift():
    from doublelift.lift import lift_data
    from support import fixture_corpus

    tag, dec, phi = next(t for t in fixture_corpus() if t[0] == "graded:z2:z3:inv")
    return lift_data(dec, phi).dc


def test_corrupted_square_pastings_fail_with_a_named_law():
    from doublelift.doublecat import LAWS, DoubleCategory

    dc = _graded_lift()
    laws = set()
    for key, old in dc.hcomp.items():
        if key[0] != "sq":
            continue
        for value in range(dc.c1.n_morphisms):
            if value == old:
                continue
            hcomp = {**dc.hcomp, key: value}
            with pytest.raises(StructureError) as err:
                DoubleCategory(dc.c0, dc.c1, dc.src, dc.tgt, dc.hid, hcomp)
            laws.add(err.value.law)
    assert laws <= set(LAWS)
    assert "hcomp-boundary" in laws and "interchange" in laws


def test_cli_check_reports_a_corrupted_square_pasting(tmp_path, capsys):
    dc = _graded_lift()
    obj = json.loads(dumps(dc))
    # paste two squares into one on the wrong vertical sides
    entry = next(e for e in obj["hcomp"]
                 if e[0] == "sq" and dc.src.morphism_map[e[3]] != dc.src.morphism_map[0])
    entry[3] = 0
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(obj))
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL  load: hcomp-boundary" in captured.out
    assert "first failing law: load" in captured.err


def _write(tmp_path, name, value):
    path = tmp_path / name
    dump(value, str(path))
    return str(path)


def test_cli_check_and_analyze(tmp_path, capsys):
    dec, phi = _semidirect_parts()
    from doublelift.lift import lift

    dc_path = _write(tmp_path, "dc.json", lift(dec, phi))
    assert run(["check", dc_path]) == 0
    out = capsys.readouterr().out
    assert "pass  interchange" in out
    assert run(["analyze", dc_path]) == 0
    out = capsys.readouterr().out
    assert "vertical-length: 1" in out
    assert "gg: true" in out


def test_cli_lift_writes_canonical_output(tmp_path, capsys):
    dec, phi = _semidirect_parts()
    dec_path = _write(tmp_path, "dec.json", dec)
    phi_path = _write(tmp_path, "phi.json", phi)
    out_path = tmp_path / "dc.json"
    assert run(["lift", dec_path, phi_path, "-o", str(out_path)]) == 0
    capsys.readouterr()
    from doublelift.lift import lift

    assert out_path.read_text() == dumps(lift(dec, phi))


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_cli_lift_to_stdout_puts_the_report_on_stderr(tmp_path, capsys, flags):
    dec, phi = _semidirect_parts()
    dec_path = _write(tmp_path, "dec.json", dec)
    phi_path = _write(tmp_path, "phi.json", phi)
    out_path = tmp_path / "dc.json"
    assert run(flags + ["lift", dec_path, phi_path, "-o", str(out_path)]) == 0
    written = capsys.readouterr()
    assert written.err == ""
    assert run(flags + ["lift", dec_path, phi_path]) == 0
    captured = capsys.readouterr()
    assert captured.out == out_path.read_text()
    # the report of the -o run, less its entry naming the file
    if flags:
        report = json.loads(written.out)
        assert json.loads(captured.err) == {**report, "entries": report["entries"][:-1]}
    else:
        assert captured.err == "".join(written.out.splitlines(keepends=True)[:-1])


def _entry_point(argv, **kwargs):
    """Run the command line in a fresh interpreter with a buffered stdout."""
    import doublelift

    src_dir = os.path.dirname(os.path.dirname(doublelift.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "doublelift.cli", *argv],
                          env=dict(env, PYTHONPATH=src_dir), **kwargs)


def test_cli_entry_point_lift_to_stdout_writes_a_file_that_check_accepts(tmp_path):
    dec, phi = _semidirect_parts()
    argv = ["lift", _write(tmp_path, "dec.json", dec), _write(tmp_path, "phi.json", phi)]
    path = tmp_path / "lift.json"
    with open(path, "w") as fh:
        done = _entry_point(argv, stdout=fh, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0
    assert done.stderr.startswith("pass  lift: 6 squares\n")
    done = _entry_point(["check", str(path)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout


def test_cli_entry_point_checks_a_20000_object_discrete_category_in_1_gb(tmp_path):
    # Only the 20,000 identities compose, so the law checks need time and
    # memory in proportion to the cells; one dense row table would need 3 GB.
    # Built unchecked here, so that only the capped child runs the laws.
    import resource

    n, cap = 20000, 1 << 30
    cells = tuple(range(n))
    path = _write(tmp_path, "discrete.json",
                  FiniteCategory(n, cells, cells, cells, {(i, i): i for i in cells}, validate=False))
    done = _entry_point(["check", path], capture_output=True, text=True, timeout=300,
                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (done.returncode, done.stdout, done.stderr) == (0, "pass  structure: FiniteCategory valid\n", "")


@pytest.mark.parametrize("kind", ["DoubleCategory", "StrictBicategory"])
def test_cli_entry_point_checks_a_20000_cell_structure_with_interchange_in_1_gb(tmp_path, kind):
    # The trivial double category on the discrete category and the discrete
    # bicategory (one 1-cell and one 2-cell per 0-cell): each cell composes
    # only with itself, both ways, so interchange reads 20,000 quadruples,
    # and rows of n x n cells would need gigabytes.  Built unchecked here,
    # so that only the capped child runs the laws.
    import resource

    from support import discrete, trivial_double_category

    n, cap = 20000, 1 << 30
    cells = tuple(range(n))
    diagonal = {(i, i): i for i in cells}
    value = trivial_double_category(discrete(n, validate=False), validate=False) if kind == "DoubleCategory" \
        else StrictBicategory(n, cells, cells, cells, cells, cells, cells, diagonal, diagonal, diagonal,
                              validate=False)
    path = _write(tmp_path, "structure.json", value)
    done = _entry_point(["check", path], capture_output=True, text=True, timeout=300,
                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    laws = doublecat.LAWS if kind == "DoubleCategory" else ()
    want = "".join(f"pass  {line}\n" for line in (f"structure: {kind} valid", *laws))
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_cli_entry_point_lift_exits_1_on_a_closed_pipe_with_empty_stderr(tmp_path):
    # the 6-square lift fits in the stdout buffer, so only a flush before
    # the report reaches stderr finds the closed pipe in time
    dec, phi = _semidirect_parts()
    argv = ["lift", _write(tmp_path, "dec.json", dec), _write(tmp_path, "phi.json", phi)]
    read, write = os.pipe()
    os.close(read)
    try:
        done = _entry_point(argv, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_cli_folding_command(tmp_path, capsys):
    dec, phi = _semidirect_parts()
    from doublelift.lift import lift

    dc_path = _write(tmp_path, "dc.json", lift(dec, phi))
    assert run(["folding", dc_path]) == 0
    out = capsys.readouterr().out
    assert "folding: absent" in out
    assert "framed: false" in out


def test_cli_folding_report_on_a_null_monoid(tmp_path, capsys):
    # Z2 swapping two non-zero elements of the null monoid of size 8 acts
    # nontrivially on its first non-unit morphism, so absence is proven in
    # |Aut(A)| = 6! nodes
    from doublelift.lift import lift
    from support import null_monoid

    z2, null = Monoid.cyclic(2), null_monoid(8)
    dec = decorate(delooping(z2), suspend(monoidal_delooping(null)))
    action = MonoidAction(z2, null, (tuple(range(8)), (0, 1, 2, 3, 4, 5, 7, 6)))
    dc_path = _write(tmp_path, "null8.json", lift(dec, precosheaf_from_action(dec, action)))
    assert run(["folding", dc_path]) == 0
    assert capsys.readouterr().out == (
        "pass  folding: absent (search exhausted after 720 nodes)\n"
        "pass  cofolding: absent (search exhausted after 720 nodes)\n"
        "pass  framed: false\n")


def test_cli_adjunction_command(tmp_path, capsys):
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = decorate(delooping(z2), suspend(monoidal_delooping(z3)))
    g_path = _write(tmp_path, "g.json", z2)
    a_path = _write(tmp_path, "a.json", z3)
    phi_paths = [
        _write(tmp_path, "inv.json", precosheaf_from_action(dec, MonoidAction.inversion(z3))),
        _write(tmp_path, "triv.json", precosheaf_from_action(dec, MonoidAction.trivial(z2, z3))),
    ]
    assert run(["adjunction", g_path, a_path] + phi_paths) == 0
    out = capsys.readouterr().out
    assert "round-trip[0]" in out and "naturality" in out


def test_cli_example_and_json_mode(capsys):
    assert run(["example", "semidirect:z3:z2:inv"]) == 0
    out = capsys.readouterr().out
    assert "non-abelian group" in out
    assert run(["--json", "example", "mat:4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert any("rank 4" in e["name"] for e in payload["entries"])


_TEXT = st.one_of(st.text(), st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "é ☃ \U0001f600", "</a>"]))


@example(entries=[])
@example(entries=[("law", False, "")])
@given(entries=st.lists(st.tuples(_TEXT, st.booleans(), _TEXT)))
def test_json_report_is_json_dumps_of_its_entries(entries):
    report = Report()
    for name, ok, detail in entries:
        report.add(name, ok, detail)
    expected = json.dumps({"passed": all(ok for _, ok, _ in entries),
                           "entries": [{"name": n, "passed": ok, "detail": d} for n, ok, d in entries]},
                          sort_keys=True, indent=2)
    assert report.render(as_json=True) == expected


def test_cli_broken_input_exits_nonzero(tmp_path, capsys):
    z3 = Monoid.cyclic(3)
    obj = json.loads(dumps(z3))
    obj["table"][1][1] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert "first failing law:" in captured.err
    for name in ("nonsense", "semidirect:z²:z2:triv", "mat:²"):
        assert run(["example", name]) == 1
        captured = capsys.readouterr()
        assert "unknown-fixture" in captured.err


def test_cli_wrong_kind_is_reported(tmp_path, capsys):
    z3 = Monoid.cyclic(3)
    path = _write(tmp_path, "m.json", z3)
    assert run(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert "input-kinds" in captured.err


@pytest.mark.parametrize("value", ["count", -1])
def test_cli_check_reports_an_out_of_range_pasting(tmp_path, capsys, value):
    dc = build_semidirect_fixture(
        Monoid.cyclic(3), Monoid.cyclic(2), MonoidAction.inversion(Monoid.cyclic(3))).dc
    obj = json.loads(dumps(dc))
    obj["hcomp"][-1][3] = dc.c1.n_morphisms if value == "count" else value
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(obj))
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL  load: hcomp-boundary" in captured.out
    assert "first failing law: load" in captured.err


def test_cli_adjunction_rejects_a_precosheaf_over_other_monoids(tmp_path, capsys):
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    dec = decorate(delooping(z2), suspend(monoidal_delooping(z3)))
    g_path = _write(tmp_path, "g.json", z2)
    a_path = _write(tmp_path, "a.json", Monoid.cyclic(4))
    phi_path = _write(tmp_path, "phi.json", precosheaf_from_action(dec, MonoidAction.inversion(z3)))
    assert run(["adjunction", g_path, a_path, phi_path]) == 1
    captured = capsys.readouterr()
    assert "FAIL  input-kinds" in captured.out
    assert "first failing law: input-kinds" in captured.err


@pytest.mark.parametrize("entry, law", [
    (["sq", 99, 0, 0], "hcomp-totality-squares"),
    (["sq", -1, 0, 0], "hcomp-totality-squares"),
    (["ob", 0, 5, 0], "hcomp-totality-1cells"),
    (["zz", 0, 0, 0], "hcomp-totality-1cells"),
])
def test_cli_check_reports_a_stray_pasting_key(tmp_path, capsys, entry, law):
    dc = build_semidirect_fixture(
        Monoid.cyclic(3), Monoid.cyclic(2), MonoidAction.inversion(Monoid.cyclic(3))).dc
    obj = json.loads(dumps(dc))
    obj["hcomp"].append(entry)
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(obj))
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"FAIL  load: {law}" in captured.out
    with pytest.raises(StructureError, match=law) as caught:
        loads(json.dumps(obj))
    # the witness is the stray key itself
    assert str(caught.value) == f"{law}: {(*entry[:3], 'defined')!r}"


def test_cli_adjunction_rejects_a_precosheaf_over_the_flag_monoid(tmp_path, capsys):
    # same sizes as Z2 acting on Z3, and the trivial flag action is also a
    # Z2 action, so only the tables of the decoration tell them apart
    flag, z2, z3 = Monoid.flag(), Monoid.cyclic(2), Monoid.cyclic(3)
    dec = decorate(delooping(flag), suspend(monoidal_delooping(z3)))
    g_path = _write(tmp_path, "g.json", z2)
    a_path = _write(tmp_path, "a.json", z3)
    phi_path = _write(tmp_path, "phi.json", precosheaf_from_action(dec, MonoidAction.trivial(flag, z3)))
    assert run(["adjunction", g_path, a_path, phi_path]) == 1
    captured = capsys.readouterr()
    assert "FAIL  input-kinds" in captured.out
    assert "first failing law: input-kinds" in captured.err


def test_cli_adjunction_compares_decorations_before_reading_an_action(tmp_path, capsys):
    # the flag pre-cosheaf has Z2's sizes, 2 morphisms and 3 2-cells, but
    # read as a Z2 action it breaks functoriality; the decorations differ
    flag, z2, z3 = Monoid.flag(), Monoid.cyclic(2), Monoid.cyclic(3)
    dec = decorate(delooping(flag), suspend(monoidal_delooping(z3)))
    g_path = _write(tmp_path, "g.json", z2)
    a_path = _write(tmp_path, "a.json", z3)
    phi_path = _write(tmp_path, "phi.json", constant_precosheaf(dec))
    assert run(["adjunction", g_path, a_path, phi_path]) == 1
    captured = capsys.readouterr()
    assert f"FAIL  input-kinds: {phi_path} is not a precosheaf over" in captured.out
    assert "action-functoriality" not in captured.out


def _semidirect_lift_obj():
    dc = build_semidirect_fixture(
        Monoid.cyclic(3), Monoid.cyclic(2), MonoidAction.inversion(Monoid.cyclic(3))).dc
    return json.loads(dumps(dc))


def _mutated(obj, keys, value):
    """A copy of obj with the entry at keys replaced by value, or removed
    when value is None."""
    obj = json.loads(json.dumps(obj))
    *parents, last = keys
    inner = obj
    for key in parents:
        inner = inner[key]
    if value is None:
        del inner[last]
    else:
        inner[last] = value
    return obj


@pytest.mark.parametrize("obj, where", [
    ({"kind": "monoid", "table": [[0, 1], [1, 0]]}, "$.unit: missing"),
    ({"kind": "monoid", "table": [[0, 1], [1, 0]], "unit": "x"}, "$.unit: expected an integer"),
    ({"kind": "monoid", "table": 5, "unit": 0}, "$.table: expected a list"),
    ({"kind": "monoid", "table": [[0, True], [1, 0]], "unit": 0}, "$.table[0][1]: expected an integer"),
    (_mutated(_semidirect_lift_obj(), ["c1"], None), "$.c1: missing"),
])
def test_cli_check_reports_a_schema_violation(tmp_path, capsys, obj, where):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"FAIL  load: schema: {where}" in captured.out
    assert "first failing law: load" in captured.err
    with pytest.raises(StructureError, match="schema") as err:
        loads(json.dumps(obj))
    assert err.value.detail == where


@pytest.mark.parametrize("keys, value, where", [
    (["hcomp", 2, 2], "q", "$.hcomp[2][2]: expected an integer"),
    (["hcomp", 2, 0], 7, "$.hcomp[2][0]: expected a string"),
    (["c1", "composition", 4], [1, 2], "$.c1.composition[4]: expected 3 entries"),
    (["src"], [[0]], "$.src: expected 2 entries"),
    (["c0"], {"kind": "monoid"}, "$.c0: expected a category object"),
    (["c1", "n_objects"], 1.0, "$.c1.n_objects: expected an integer"),
    (["c1", "morphism_names"], "ab", "$.c1.morphism_names: expected a list"),
])
def test_schema_violations_name_the_json_path(keys, value, where):
    with pytest.raises(StructureError, match="schema") as err:
        loads(json.dumps(_mutated(_semidirect_lift_obj(), keys, value)))
    assert err.value.detail == where


@pytest.mark.parametrize("keys, value, where", [
    (["on_cells2", 1, 0], [0], "$.on_cells2[1][0]: expected 2 entries"),
    (["dec", "bicat", "vcomp"], None, "$.dec.bicat.vcomp: missing"),
])
def test_precosheaf_schema_violations_name_the_json_path(keys, value, where):
    obj = json.loads(dumps(_semidirect_parts()[1]))
    with pytest.raises(StructureError, match="schema") as err:
        loads(json.dumps(_mutated(obj, keys, value)))
    assert err.value.detail == where


def _repeat_first_key(obj, keys, row):
    """A copy of ``obj`` with ``row`` put before the first row of the table
    at ``keys``, whose key it repeats with another value: a dict of the
    rows would keep the true row, the last, and pass its laws."""
    obj = json.loads(json.dumps(obj))
    rows = obj
    for key in keys:
        rows = rows[key]
    assert rows[0][:-1] == row[:-1] and rows[0] != row
    rows.insert(0, row)
    return obj


@pytest.mark.parametrize("kind, keys, row, key", [
    ("category", ["composition"], [0, 0, 1], "[0, 0]"),
    ("double-category", ["hcomp"], ["ob", 0, 0, 1], '["ob", 0, 0]'),
    ("precosheaf", ["on_cells2", 1], [0, 1], "[0]"),
], ids=["category-composition", "double-category-hcomp", "precosheaf-on-cells2"])
def test_cli_check_reports_a_repeated_key(tmp_path, capsys, kind, keys, row, key):
    from doublelift.lift import lift

    dec, phi = _semidirect_parts()
    value = {"category": dec.decoration, "double-category": lift(dec, phi), "precosheaf": phi}[kind]
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(_repeat_first_key(json.loads(dumps(value)), keys, row)))
    assert run(["check", str(path)]) == 1
    assert f"FAIL  load: schema: repeated key {key}\n" in capsys.readouterr().out


@pytest.mark.parametrize("which, keys, row, key", [
    (0, ["decoration", "composition"], [0, 0, 1], "[0, 0]"),
    (1, ["on_cells2", 1], [0, 1], "[0]"),
], ids=["decoration-composition", "precosheaf-on-cells2"])
def test_cli_lift_reports_a_repeated_key(tmp_path, capsys, which, keys, row, key):
    paths = [_write(tmp_path, name, value)
             for name, value in zip(("dec.json", "phi.json"), _semidirect_parts())]
    with open(paths[which]) as fh:
        obj = _repeat_first_key(json.load(fh), keys, row)
    with open(paths[which], "w") as fh:
        json.dump(obj, fh)
    assert run(["lift", *paths, "-o", str(tmp_path / "out.json")]) == 1
    captured = capsys.readouterr()
    assert f"FAIL  schema: repeated key {key}\n" in captured.out
    assert captured.err == "first failing law: schema\n"
    assert not (tmp_path / "out.json").exists()


def test_cli_reports_a_directory_as_a_file_error(tmp_path, capsys):
    assert run(["check", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL  file-error" in captured.out
    assert "first failing law: file-error" in captured.err


def test_cli_reports_a_file_that_is_not_utf8_as_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "monoid", "table": [[0]], "unit": 0, "names": ["é"]}'.encode("latin-1"))
    assert run(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL  parse-error: not UTF-8" in captured.out
    assert "first failing law: parse-error" in captured.err


class _ClosedStdout:
    """Standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["folding", "lift"])
def test_cli_closed_stdout_exits_1_and_writes_nothing_more(tmp_path, capsys, monkeypatch, command):
    from doublelift.lift import lift

    dec, phi = _semidirect_parts()
    if command == "folding":
        argv = ["folding", _write(tmp_path, "dc.json", lift(dec, phi))]
    else:
        argv = ["lift", _write(tmp_path, "dec.json", dec), _write(tmp_path, "phi.json", phi)]
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert run(argv) == 1
    assert capsys.readouterr().err == ""


def test_cli_entry_point_exits_1_on_a_closed_pipe_with_empty_stderr():
    import doublelift

    src_dir = os.path.dirname(os.path.dirname(doublelift.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "doublelift.cli", "example", "semidirect:z3:z2:inv"],
            stdout=write, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src_dir))
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


# What each command checks, counted by wrapping check_double_axioms and
# each class's _validate, in order:
# axiom suites, categories, functors, bicategories, monoidal categories,
# monoids, actions, monoid morphisms, pre-cosheaves; and how often it splits
# a double category's horizontal composition, which each double category
# does once, on first use, for every reader.  A structure built from
# checked parts whose laws it copies (a delooping, a monoidal delooping, a
# suspension, the semidirect monoid, a horizontalization, the identity
# functor of a checked category) is not checked again, nor is a lift, a
# double category by the lifting theorem, until it is read back or run as
# an example; no command re-reads what it has loaded.
COUNTED = (
    ("axiom suites", doublecat, "check_double_axioms"),
    ("categories", FiniteCategory, "_validate"),
    ("functors", FunctorData, "_validate"),
    ("bicategories", StrictBicategory, "_validate"),
    ("monoidal categories", StrictMonoidalCategory, "_validate"),
    ("monoids", Monoid, "_validate"),
    ("actions", MonoidAction, "_validate"),
    ("monoid morphisms", MonoidMorphism, "_validate"),
    ("pre-cosheaves", Precosheaf, "_validate"),
    ("hcomp splits", doublecat.DoubleCategory, "hparts"),
)


def _count_inputs(tmp_path):
    """Input files for the counted commands: Z2 acting on Z3 by inversion as
    DEC, PHI and their lift, the same on Z5 as a lift, and for Z2 acting on
    A = Z2 and Z5 the monoid files with the trivial and the inversion
    pre-cosheaf."""
    from doublelift.lift import lift

    dec, phi = _semidirect_parts()
    _write(tmp_path, "dec.json", dec)
    _write(tmp_path, "phi.json", phi)
    _write(tmp_path, "lift.json", lift(dec, phi))
    z2, z5 = Monoid.cyclic(2), Monoid.cyclic(5)
    for a in (z2, z5):
        dec = decorate(delooping(z2), suspend(monoidal_delooping(a)))
        _write(tmp_path, f"z{a.size}.json", a)
        for name, action in (("triv", MonoidAction.trivial(z2, a)), ("inv", MonoidAction.inversion(a))):
            _write(tmp_path, f"z{a.size}.{name}.json", precosheaf_from_action(dec, action))
        if a is z5:
            _write(tmp_path, "z5.lift.json", lift(dec, precosheaf_from_action(dec, MonoidAction.inversion(a))))


@pytest.mark.parametrize("argv, counts", [
    (["lift", "dec.json", "phi.json", "-o", "out.json"], (0, 1, 0, 1, 0, 0, 0, 0, 1, 1)),
    (["check", "lift.json"], (1, 2, 3, 0, 0, 0, 0, 0, 0, 1)),
    (["analyze", "lift.json"], (1, 2, 3, 0, 0, 0, 0, 0, 0, 1)),
    (["folding", "z5.lift.json"], (1, 2, 3, 0, 0, 0, 0, 0, 1, 1)),
    (["adjunction", "z2.json", "z2.json", "z2.triv.json", "z2.inv.json"], (0, 1, 2, 1, 0, 2, 0, 0, 4, 2)),
    (["adjunction", "z2.json", "z5.json", "z5.triv.json", "z5.inv.json"], (0, 1, 2, 1, 0, 2, 0, 0, 4, 2)),
    (["example", "semidirect:z6:z2:triv"], (1, 1, 3, 0, 0, 2, 1, 3, 1, 1)),
    (["example", "graded:z2:z5:inv"], (1, 3, 3, 0, 2, 3, 2, 4, 1, 1)),
], ids=["lift", "check", "analyze", "folding", "adjunction:z2", "adjunction:z5",
        "example:semidirect", "example:graded"])
def test_cli_law_checks_per_command(tmp_path, capsys, monkeypatch, argv, counts):
    _count_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    calls = {kind: 0 for kind, _, _ in COUNTED}
    for kind, owner, name in COUNTED:
        original = getattr(owner, name)

        def counted(*args, _kind=kind, _original=getattr(original, "func", original), **kwargs):
            calls[_kind] += 1
            return _original(*args, **kwargs)
        if isinstance(original, cached_property):
            counted = cached_property(counted)
            counted.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert calls == dict(zip(calls, counts))


@pytest.mark.parametrize("argv", [
    [], ["--json"], ["bogus", "x"], ["check"], ["check", "a", "b"], ["check", "--json", "a"],
    ["adjunction", "g", "a"], ["lift", "a", "b", "-o"], ["--js", "check", "a"],
    ["lift", "a", "b", "--out", "c"],
])
def test_cli_usage_errors_exit_2_with_usage_on_stderr(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: doublelift")
    assert error.startswith("doublelift: error: ")


def test_cli_help_lists_every_command(capsys):
    assert run(["-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: doublelift [-h] [--json] ")
    for name in ("check", "lift", "analyze", "folding", "adjunction", "example"):
        assert f"\n  {name} " in out
    assert run(["lift", "-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: doublelift lift [-h] [-o FILE] dec phi\n")
    assert "-o FILE, --output FILE" in out


def test_cli_option_values_and_double_dash():
    from doublelift.cli import cmd_lift, parse_args

    args = parse_args(["--json", "lift", "-oa", "d", "--output=b", "p", "-o", "c"])
    assert vars(args) == {"json": True, "command": "lift", "func": cmd_lift,
                          "dec": "d", "phi": "p", "output": "c"}
    assert parse_args(["lift", "-o", "-", "--", "-d", "-p"]).dec == "-d"
    assert parse_args(["adjunction", "g", "a", "p", "--", "q"]).phis == ["p", "q"]


def test_runtime_needs_only_the_standard_library():
    # -I -S: no site-packages, no PYTHONPATH, no script directory; only src
    # is added, so every module and one command run on the stdlib alone,
    # and no module of the package imports the test helpers.  Nor does the
    # package load dataclasses, inspect or typing, which cost start-up time;
    # the modules are listed with os, since pkgutil imports typing itself
    import doublelift

    code = (
        "import importlib, os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import doublelift\n"
        "for name in sorted(os.listdir(doublelift.__path__[0])):\n"
        "    if name.endswith('.py') and name != '__init__.py':\n"
        "        importlib.import_module('doublelift.' + name[:-3])\n"
        "from doublelift import cli\n"
        "status = cli.run(['example', 'semidirect:z3:z2:inv'])\n"
        "print('loaded:', *sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
        "sys.exit(status)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(doublelift.__file__))
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src_dir],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "pass  axioms" in done.stdout
    assert done.stdout.splitlines()[-1] == "loaded:"


# The top-level functions and classes of the package that no code in the
# package or in bench/ reads: paper constructions kept for library users.
UNREAD_CONSTRUCTIONS = {
    "gg_criterion_surjective": "the surjectivity criterion for a lift to be globularily generated",
    "is_gg": "whether a double category is globularily generated",
    "phi_of_double_functor": "the map of extracted pre-cosheaves of a double functor",
    "pi_functor": "the comparison functor from the lift of the extracted pre-cosheaf",
    "v1_membership": "first-level membership of a pair square, by factorization",
    "vertical_length": "the vertical length of a double category",
}


def test_every_top_level_definition_has_a_reader_or_a_reason():
    # a name counts as read where the package or bench/ mentions it as a
    # name, an attribute, an imported name or a string (bench/spans.py
    # wraps functions by attribute name); tests do not count
    import ast
    import glob

    import doublelift

    bench_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    src_files = sorted(glob.glob(os.path.join(doublelift.__path__[0], "*.py")))
    bench_files = sorted(glob.glob(os.path.join(bench_dir, "*.py")))
    assert src_files and bench_files
    defined, read = set(), set()
    for path in src_files + bench_files:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        if path in src_files:
            defined |= {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert sorted(defined - read) == sorted(UNREAD_CONSTRUCTIONS)
