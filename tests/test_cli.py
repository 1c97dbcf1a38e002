"""Command-line interface: determinism, exit codes, formats."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from hdeform import dra, rmatrix, weyl
from hdeform.cli import (UsageError, _dra_units, _rmatrix_units,
                         _verify_units, _weyl_units, build_parser, main)
from hdeform.errors import RelationExtractionError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    return re.sub(r'"wall_time_s": [0-9.]+', '"wall_time_s": X', text)


def test_relations_byte_identical(capsys):
    c1, out1, _ = run_cli(capsys, "relations", "--n", "2", "--format", "json")
    c2, out2, _ = run_cli(capsys, "relations", "--n", "2", "--format", "json")
    assert c1 == c2 == 0
    assert out1 == out2


def test_relations_text_matches_printed_table(capsys):
    code, out, _ = run_cli(capsys, "relations", "--n", "2", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert "L[1,1]*L[2,2] = L[2,2]*L[1,1]" in lines
    first = [l for l in lines if l.startswith("L[1,1]*L[1,2]")][0]
    assert "((h1-h2-3)/(h1-h2-2))*L[1,2]*L[1,1]" in first
    assert "(1/(h1-h2-2))*L[1,2]*L[2,2]" in first


def test_relations_json_schema(capsys):
    code, out, _ = run_cli(capsys, "relations", "--n", "2")
    rows = json.loads(out)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {"lhs_word", "rhs_terms"}
        for term in row["rhs_terms"]:
            assert set(term) == {"word", "coeff"}


def test_relations_s_generators(capsys):
    code, out, _ = run_cli(capsys, "relations", "--n", "2",
                           "--generators", "s")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all("lhs" in r and "rhs" in r for r in rows)


def test_verify_all_deterministic_modulo_timing(capsys):
    c1, out1, _ = run_cli(capsys, "verify", "all", "--n", "2", "--N", "2")
    c2, out2, _ = run_cli(capsys, "verify", "all", "--n", "2", "--N", "2")
    assert c1 == c2 == 0
    assert strip_timing(out1) == strip_timing(out2)
    payload = json.loads(out1)
    assert payload["status"] == "pass"
    assert all(s["status"] == "pass" for s in payload["suites"])


def test_verify_rmatrix_rank_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--n", "1")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_all_rank_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "1", "--N", "1")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_weyl_fermionic(capsys):
    code, out, _ = run_cli(capsys, "verify", "weyl", "--n", "2", "--N", "2",
                           "--stats", "fermionic")
    assert code == 0
    payload = json.loads(out)
    names = {s["suite"] for s in payload["suites"]}
    assert "weyl.exchange[fermionic]" in names
    assert "weyl.reflection[fermionic]" in names


def test_relations_rank_one_and_three(capsys):
    code, out, _ = run_cli(capsys, "relations", "--n", "1")
    assert code == 0
    assert json.loads(out) == []
    code, out, _ = run_cli(capsys, "relations", "--n", "3")
    assert code == 0
    assert len(json.loads(out)) == 36


def test_verify_dra_appendix(capsys):
    code, out, _ = run_cli(capsys, "verify", "dra", "--n", "2",
                           "--suite", "appendix")
    assert code == 0
    payload = json.loads(out)
    names = {s["suite"] for s in payload["suites"]}
    assert "dra.appendix.rules" in names
    assert "dra.appendix.convention" in names


def test_verify_dra_realization_and_copies(capsys):
    code, out, _ = run_cli(capsys, "verify", "dra", "--n", "2",
                           "--suite", "realization")
    assert code == 0
    payload = json.loads(out)
    names = {s["suite"] for s in payload["suites"]}
    assert names == {"dra.realization.rules", "dra.realization.central"}
    code, out, _ = run_cli(capsys, "verify", "dra", "--n", "2",
                           "--suite", "coproduct", "--copies", "3")
    assert code == 0
    payload = json.loads(out)
    names = {s["suite"] for s in payload["suites"]}
    assert "dra.coproduct.sum3" in names
    assert run_cli(capsys, "verify", "dra", "--n", "2", "--copies", "9")[0] == 2


def test_verify_exit_one_on_identity_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "weyl", "--n", "2", "--N", "2",
                           "--suite", "reflection",
                           "--cross-copy-constant", "all_copies")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["suites"][0]["failures"]


def test_unit_that_raises_fails_alone(monkeypatch, capsys):
    message = "inconsistent leftover relation at weight (-1, 1)"

    def broken(n):
        raise RelationExtractionError(message)

    monkeypatch.setattr(dra, "check_cartan_sum", broken)
    code, out, err = run_cli(capsys, "verify", "dra", "--n", "2",
                             "--suite", "transforms")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert [(s["suite"], s["status"], s["failures"])
            for s in payload["suites"]] == [
        ("dra.transforms.cartan_sum", "fail",
         [{"identity": "relation_extraction", "indices": [],
           "lhs": message, "rhs": "0"}]),
        ("dra.transforms.basis", "pass", [])]


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "verify", "rmatrix", "--n", "2",
                   "--suite", "bogus")[0] == 2
    assert run_cli(capsys, "verify", "rmatrix", "--n", "9")[0] == 2
    assert run_cli(capsys, "central", "--n", "2", "--power", "-1")[0] == 2
    assert run_cli(capsys, "verify", "dra", "--n", "3",
                   "--suite", "appendix")[0] == 2


def test_rmatrix_suites_in_table_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2")
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == [
        "rmatrix.involutive", "rmatrix.dybe", "rmatrix.skew",
        "rmatrix.aux", "rmatrix.traces"]
    code, _, err = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                           "--suite", "bogus")
    assert code == 2
    assert "unknown rmatrix suite 'bogus'" in err


def unit_names(*argv):
    return [name for name, _ in _verify_units(build_parser().parse_args(argv))]


def test_unit_names_and_order_are_frozen():
    # the verify_all golden digests hash these reports in this order
    assert unit_names("verify", "all", "--n", "2", "--N", "2") == [
        "rmatrix.involutive", "rmatrix.dybe", "rmatrix.skew", "rmatrix.aux",
        "rmatrix.traces",
        "weyl.confluence[bosonic]", "weyl.reflection[bosonic]",
        "weyl.exchange[bosonic]", "weyl.variants[bosonic]",
        "weyl.zhelobenko[bosonic]", "weyl.split[bosonic]",
        "weyl.confluence[fermionic]", "weyl.reflection[fermionic]",
        "dra.reflection", "dra.associativity", "dra.hrealization",
        "dra.central.N0", "dra.central_primed.N0", "dra.central.N1",
        "dra.central_primed.N1", "dra.central.N2", "dra.central_primed.N2",
        "dra.central.weights", "dra.realization.rules",
        "dra.realization.central", "dra.coproduct",
        "dra.transforms.cartan_sum", "dra.transforms.basis",
        "dra.appendix.rules", "dra.appendix.central",
        "dra.appendix.cross_copy", "dra.appendix.convention"]
    assert unit_names("verify", "weyl", "--n", "2", "--N", "2",
                      "--stats", "fermionic") == [
        "weyl.confluence[fermionic]", "weyl.reflection[fermionic]",
        "weyl.exchange[fermionic]"]
    assert unit_names("verify", "dra", "--n", "3", "--power", "1",
                      "--copies", "3") == [
        "dra.reflection", "dra.associativity", "dra.hrealization",
        "dra.central.N0", "dra.central_primed.N0", "dra.central.N1",
        "dra.central_primed.N1", "dra.central.weights",
        "dra.realization.rules", "dra.realization.central", "dra.coproduct",
        "dra.coproduct.sum3", "dra.transforms.cartan_sum",
        "dra.transforms.basis"]


def record_calls(monkeypatch, module, units):
    """Replace every function the units name by a recorder."""
    calls = []
    for _, (_, fn, _) in units:
        monkeypatch.setattr(module, fn,
                            lambda fn=fn, **kw: calls.append((fn, kw)) or [])
    return calls


def test_rmatrix_run_suite_runs_the_cli_units_in_order(monkeypatch):
    units = [fn for _, (_, fn, _) in _rmatrix_units(2, "all")]
    calls = []
    for name, check in list(rmatrix.SUITES.items()):
        monkeypatch.setitem(
            rmatrix.SUITES, name,
            lambda n, fn=check.__name__: calls.append(fn) or [])
    assert rmatrix.run_suite(2) == []
    assert calls == units


WEYL_SUITES = ("confluence", "reflection", "exchange", "variants",
               "zhelobenko", "split", "all")
DRA_SUITES = ("reflection", "associativity", "hrealization", "central",
              "realization", "coproduct", "transforms", "appendix", "all")


@pytest.mark.parametrize("fermionic", [False, True])
@pytest.mark.parametrize("suite", WEYL_SUITES)
def test_weyl_run_suite_dispatches_the_cli_units(monkeypatch, fermionic,
                                                 suite):
    try:
        units = _weyl_units(2, 2, fermionic, suite)
    except UsageError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            weyl.run_suite(2, 2, fermionic, suite)
        return
    calls = record_calls(monkeypatch, weyl, units)
    assert weyl.run_suite(2, 2, fermionic, suite) == []
    assert calls == [(fn, kw) for _, (_, fn, kw) in units]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("suite", DRA_SUITES)
def test_dra_run_suite_dispatches_the_cli_units(monkeypatch, n, suite):
    try:
        units = _dra_units(n, suite, 1, 3)
    except UsageError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            dra.run_suite(n, suite, copies=3, power=1)
        return
    calls = record_calls(monkeypatch, dra, units)
    assert dra.run_suite(n, suite, copies=3, power=1) == []
    assert calls == [(fn, kw) for _, (_, fn, kw) in units]


@pytest.mark.parametrize("argv,why", [
    (("--stats", "fermionic", "--suite", "variants"),
     "the variants suite is defined for --stats bosonic"),
    (("--stats", "fermionic", "--suite", "zhelobenko"),
     "the zhelobenko suite is defined for --stats bosonic"),
    (("--stats", "fermionic", "--N", "2", "--suite", "split"),
     "the split suite is defined for --stats bosonic"),
    (("--N", "1", "--suite", "split"), "the split suite needs --N 2 or more"),
])
def test_named_weyl_suite_that_selects_nothing_is_a_usage_error(capsys, argv,
                                                                why):
    code, out, err = run_cli(capsys, "verify", "weyl", "--n", "2", *argv)
    assert code == 2
    assert out == ""
    assert why in err


def test_all_skips_suites_that_do_not_apply(capsys):
    code, out, _ = run_cli(capsys, "verify", "weyl", "--n", "1", "--N", "1",
                           "--stats", "fermionic")
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == [
        "weyl.confluence[fermionic]", "weyl.reflection[fermionic]",
        "weyl.exchange[fermionic]"]
    code, _, err = run_cli(capsys, "verify", "dra", "--n", "3",
                           "--suite", "appendix")
    assert code == 2
    assert "the appendix suite is defined for --n 2" in err


def test_guardrail_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--n", "5",
                           "--suite", "traces", "--force")
    assert code == 0


def test_normal_form_output(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "--n", "2", "--N", "1",
                           "--expr", "D[1,1]*x[1,1]", "--format", "text")
    assert code == 0
    assert out.strip() == ("(h1-h2+1)/(h1-h2)"
                           " + ((h1^2-2*h1*h2+h2^2-1)/(h1-h2)^2)*x[1,1]*D[1,1]"
                           " + ((h1-h2+1)/(h1-h2)^2)*x[2,1]*D[2,1]")


def test_normal_form_with_coefficient_factor(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "--n", "2", "--N", "1",
                           "--expr", "D[1]*(h1-h2)*x[1]", "--format", "text")
    assert code == 0
    # the coefficient crosses the derivative with a unit shift
    code2, out2, _ = run_cli(capsys, "normal-form", "--n", "2", "--N", "1",
                             "--expr", "(h1-h2+1)*D[1]*x[1]",
                             "--format", "text")
    assert out == out2


def test_normal_form_fermionic_square(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "--n", "2", "--N", "1",
                           "--stats", "fermionic", "--expr", "x[1]*x[1]",
                           "--format", "text")
    assert code == 0
    assert out.strip() == "0"


def test_normal_form_parse_error(capsys):
    code, out, err = run_cli(capsys, "normal-form", "--n", "2",
                             "--expr", "x[1,1]*")
    assert code == 2
    assert "position" in err


def test_normal_form_out_of_range_generator(capsys):
    code, out, err = run_cli(capsys, "normal-form", "--n", "2",
                             "--expr", "x[3,1]")
    assert code == 2


def test_central_text_and_check(capsys):
    code, out, _ = run_cli(capsys, "central", "--n", "2", "--power", "1",
                           "--format", "text")
    assert code == 0
    assert out.strip() == ("((h1-h2-1)/(h1-h2))*L[1,1]"
                           " + ((h1-h2+1)/(h1-h2))*L[2,2]")
    code, out, _ = run_cli(capsys, "central", "--n", "2", "--power", "2",
                           "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["commutators_vanish"] is True


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "pass"


def test_jobs_parallel_matches_serial(capsys):
    c1, out1, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2")
    c2, out2, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                          "--jobs", "2")
    assert c1 == c2 == 0
    assert strip_timing(out1) == strip_timing(out2)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("argv,fixture", [
    (("relations", "--n", "2", "--format", "json"), "relations_n2.json"),
    (("relations", "--n", "2", "--format", "text"), "relations_n2.txt"),
    (("central", "--n", "2", "--power", "1", "--format", "text"),
     "central_n2_p1.txt"),
    (("central", "--n", "2", "--power", "2", "--format", "text"),
     "central_n2_p2.txt"),
    (("normal-form", "--n", "2", "--N", "1", "--expr", "D[1,1]*x[1,1]",
      "--format", "text"), "normal_form_dx.txt"),
])
def test_output_matches_frozen_fixture(capsys, argv, fixture):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (FIXTURES / fixture).read_text()


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hdeform.cli", "central", "--n", "2",
         "--power", "1", "--format", "text"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "L[1,1]" in proc.stdout
