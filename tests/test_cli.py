"""Command-line interface: determinism, exit codes, formats."""

import importlib.util
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from conftest import strip_timing

from hdeform import dra, rmatrix, store, weyl
from hdeform.cli import (UsageError, _dra_units, _rmatrix_units,
                         _verify_units, _weyl_units, build_parser, main)
from hdeform.errors import RelationExtractionError
from hdeform.report import render_reports


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_strip_timing_drops_every_wall_time():
    # a unit under 0.1 ms prints its time in exponent form
    fast = render_reports([("s", {"n": 2}, [], 7.7e-05)], 7.7e-05)
    slow = render_reports([("s", {"n": 2}, [], 1.25)], 2.5)
    assert '"wall_time_s": 7.7e-05' in fast
    assert strip_timing(fast) == strip_timing(slow)
    assert strip_timing(fast) == {
        "status": "pass",
        "suites": [{"suite": "s", "config": {"n": 2}, "status": "pass",
                    "failures": []}]}


def test_verify_all_deterministic_modulo_timing(monkeypatch, capsys):
    # the first run builds every tensor, coefficient and rule from an
    # empty store; the second reads them back: a warm store gives the
    # same report as a cold one
    monkeypatch.setattr(store, "_STORE", {})
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



# one option each subcommand used to accept without reading it
@pytest.mark.parametrize("argv", [
    ("verify", "rmatrix", "--n", "2", "--format", "text"),
    ("relations", "--n", "2", "--N", "2"),
    ("relations", "--n", "2", "--stats", "fermionic"),
    ("relations", "--n", "2", "--copies", "3"),
    ("relations", "--n", "2", "--jobs", "2"),
    ("central", "--n", "2", "--power", "1", "--N", "9"),
    ("central", "--n", "2", "--power", "1", "--stats", "fermionic"),
    ("central", "--n", "2", "--power", "1", "--copies", "3"),
    ("central", "--n", "2", "--power", "1", "--jobs", "2"),
    ("normal-form", "--n", "2", "--expr", "x[1]", "--copies", "3"),
    ("normal-form", "--n", "2", "--expr", "x[1]", "--jobs", "2"),
])
def test_option_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


ROOT = pathlib.Path(__file__).resolve().parents[1]


def documented_invocations():
    """The argv of every command line in the README and of every
    perfbench job (the jobs that write tests/fixtures among them)."""
    out = []
    for line in (ROOT / "README.md").read_text().splitlines():
        m = re.match(r"(?:hdeform|.*-m hdeform\.cli) (.*?)(?:\s+#.*)?$", line)
        if m:
            out.append(shlex.split(m.group(1)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for jobs in workloads.VERIFY_JOBS.values():
        out += [job[1] for job in jobs]
    return out


def test_documented_invocations_still_parse():
    argvs = documented_invocations()
    assert len(argvs) >= 15
    for argv in argvs:
        build_parser().parse_args(argv)


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


@pytest.mark.parametrize("expr,want", [
    ("h1^100000000*x[1]", "h1^100000000*x[1,1]"),
    ("h1^-2*x[1]", "(1/h1^2)*x[1,1]"),
])
def test_normal_form_of_a_coefficient_power(capsys, expr, want):
    # a coefficient factor's power is one RatFun power, not k products,
    # with the coefficient grammar's signed exponent
    code, out, _ = run_cli(capsys, "normal-form", "--n", "2",
                           "--expr", expr, "--format", "text")
    assert code == 0
    assert out.strip() == want


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


@pytest.mark.parametrize("expr,pos", [("x[1,1]+", 7), ("", 0), ("-", 1)])
def test_normal_form_missing_operand_is_a_parse_error(capsys, expr, pos):
    # a sign with nothing after it is a positioned parse error, not a crash
    code, out, err = run_cli(capsys, "normal-form", "--n", "2",
                             "--expr", expr)
    assert code == 2
    assert out == ""
    assert (f"expected a number, variable or '(' (at position {pos})"
            in err)


def test_normal_form_unparenthesized_quotient_is_a_parse_error(capsys):
    # h1/2*x[1,1] divides by a coefficient outside parentheses: the error
    # is at the '/', not trailing input after h1
    code, out, err = run_cli(capsys, "normal-form", "--n", "2", "--N", "1",
                             "--expr", "h1/2*x[1,1]")
    assert code == 2
    assert out == ""
    assert ("a coefficient quotient must be parenthesized, as in "
            "(h1/2)*x[1,1] (at position 2)") in err
    code, out, _ = run_cli(capsys, "normal-form", "--n", "2", "--N", "1",
                           "--expr", "(h1/2)*x[1,1]", "--format", "text")
    assert code == 0
    assert out.strip() == "(h1/2)*x[1,1]"


def test_normal_form_non_linear_denominator_is_a_parse_error(capsys):
    # 1/(h1^2+h2^2+1) has no inverse in the ring localized at linear forms
    code, out, err = run_cli(capsys, "normal-form", "--n", "2", "--N", "1",
                             "--expr", "(1/(h1^2+h2^2+1))*x[1,1]")
    assert code == 2
    assert out == ""
    assert "is not linear" in err and "position" in err


def test_normal_form_out_of_range_generator(capsys):
    # the error points at the generator's first character, as the
    # coefficient grammar points at the h of an out-of-range variable
    for expr, want in (("x[3,1]", "index 3 out of range 1..2 (at position 0)"),
                       ("D[1,1]*x[1,3]",
                        "copy 3 out of range 1..1 (at position 7)")):
        code, out, err = run_cli(capsys, "normal-form", "--n", "2",
                                 "--expr", expr)
        assert code == 2
        assert out == ""
        assert want in err


def test_generator_power_is_one_word(monkeypatch):
    # x[1]^k is the k-letter word, built at once: no Element products
    from hdeform.algebra import Element
    from hdeform.exprparse import parse_weyl_expression
    alg = weyl.WeylAlgebra(2, 1)
    x1 = alg.x(1)
    power = alg.one()
    for k in range(5):
        assert parse_weyl_expression(alg, f"x[1]^{k}") == power
        power = power * x1
    calls = []
    mul = Element.__mul__
    monkeypatch.setattr(Element, "__mul__",
                        lambda a, b: calls.append(b) or mul(a, b))
    (word,) = x1.terms
    assert parse_weyl_expression(alg, "x[1]^50") == alg.word_element(word * 50)
    assert calls == []


def test_generator_power_word_is_capped(capsys):
    # the cap is checked before the word is built: a billion letters would
    # ask for 8 GB
    code, out, err = run_cli(capsys, "normal-form", "--n", "2",
                             "--expr", "x[1]^1000000000")
    assert code == 2 and out == ""
    assert err == ("parse error: generator power 1000000000 exceeds the "
                   "limit of 1000000 letters (at position 5)\n")
    code, out, _ = run_cli(capsys, "normal-form", "--n", "2",
                           "--expr", "x[1]^1000", "--format", "text")
    assert code == 0
    assert out.strip() == "*".join(["x[1,1]"] * 1000)


def test_over_long_digit_run_is_a_parse_error(capsys):
    # a run past the interpreter's integer string limit is reported at its
    # first digit, for a generator power and for a coefficient power alike
    nines = "9" * 5000
    for expr, at in ((f"x[1]^{nines}", 5), (f"h1^{nines}*x[1]", 3)):
        code, out, err = run_cli(capsys, "normal-form", "--n", "2",
                                 "--expr", expr)
        assert code == 2 and out == ""
        assert err == ("parse error: an integer of 5000 digits is too long "
                       f"(at position {at})\n")


def test_coefficient_degree_past_the_kernel_limit(capsys):
    # a degree of 2^32 does not fit a packed exponent field: one line, exit 1
    code, out, err = run_cli(capsys, "normal-form", "--n", "2",
                             "--expr", "h1^4294967296*x[1]")
    assert code == 1 and out == ""
    assert err == ("error: polynomial degree 4294967296 exceeds the "
                   "kernel's limit of 4294967295\n")


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


@pytest.mark.parametrize("argv", [("verify", "rmatrix", "--n", "2"),
                                  ("central", "--n", "2", "--power", "1")])
@pytest.mark.parametrize("missing_dir", [True, False])
def test_unwritable_out_is_a_usage_error_before_any_work(
        tmp_path, capsys, monkeypatch, argv, missing_dir):
    from hdeform import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(cli, "run_unit", no_work)
    monkeypatch.setattr(dra, "central_element", no_work)
    # a file in a directory that does not exist, or a directory
    path = str(tmp_path / "missing" / "x.json" if missing_dir else tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and path in err
    assert err.count("\n") == 1


def test_jobs_parallel_matches_serial(capsys, monkeypatch):
    import multiprocessing
    c1, out1, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2")
    c2, out2, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                          "--jobs", "2")
    assert c1 == c2 == 0
    assert strip_timing(out1) == strip_timing(out2)
    # factor ids are per process: workers started fresh ("spawn", the
    # default start method on macOS and Windows) intern their own
    monkeypatch.setattr(multiprocessing, "Pool",
                        multiprocessing.get_context("spawn").Pool)
    c3, out3, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                          "--jobs", "2")
    assert c3 == 0
    assert strip_timing(out1) == strip_timing(out3)


# Builds coefficients and runs `verify rmatrix --n 3` in a fresh process;
# with "reverse" it first interns a set of forms in reverse order, so
# every factor gets another id than in the default order.
_ID_ORDER_SCRIPT = """
import contextlib, io, json, sys
import hdeform.kernel as K
from hdeform import cli, coeffs
forms = [(n, i, j, k) for n in (2, 3, 4) for i in range(n)
         for j in [None, *range(i + 1, n)] for k in range(-4, 5)]
if sys.argv[1] == "reverse":
    for form in reversed(forms):
        K.fac_form(*form)
ids = [K.fac_form(*form) for form in forms]
values = [coeffs.parse(3, text) for text in (
    "1/(h1+h2)/(2*h1-h2-1)", "(h1-h3+2)^2/((h2+5)*(h1-h2-1)^3)",
    "(h1*h2+h3^2+7)/(3*h1-2*h2+h3+5)")]
for i in range(1, 4):
    values += [coeffs.phi(3, i), coeffs.phi_prime(3, i), coeffs.qplus(3, i),
               coeffs.qminus(3, i), coeffs.mu_coeff(3, i)]
    values += [coeffs.beta_coeff(3, i, j) for j in range(1, 4)]
values += [f.shift((1, -2, 3)) for f in values] + [
    f.permute((3, 1, 2)) * f.negate_h() for f in values]
views = [[coeffs.serialize(f)]
         + [[[K.fac_tuple(key), m] for key, m in view]
            for view in (f.nfac, f.dfac)] for f in values]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", "rmatrix", "--n", "3"])
print(json.dumps({"ids": ids, "values": views, "code": code,
                  "report": out.getvalue()}))
"""


def test_factor_ids_never_reach_output():
    runs = {}
    for order in ("default", "reverse"):
        proc = subprocess.run(
            [sys.executable, "-c", _ID_ORDER_SCRIPT, order],
            capture_output=True, text=True, check=True)
        runs[order] = json.loads(proc.stdout)
        runs[order]["report"] = strip_timing(runs[order]["report"])
    default, reverse = runs["default"], runs["reverse"]
    assert default.pop("ids") != reverse.pop("ids")
    assert default["code"] == 0
    assert default == reverse


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                             "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs must be at least 1" in err


def test_jobs_start_at_most_one_process_per_unit(capsys, monkeypatch):
    import multiprocessing
    requested = []

    class SerialPool:
        """Records the processes asked for; maps in this process."""

        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                           "--jobs", "64")
    assert code == 0
    assert len(json.loads(out)["suites"]) == 5
    assert requested == [5]
    # a single unit runs serially, with no pool at all
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--n", "2",
                           "--suite", "traces", "--jobs", "64")
    assert code == 0
    assert len(json.loads(out)["suites"]) == 1
    assert requested == [5]


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
    (("relations", "--n", "3", "--format", "text"), "relations_n3.txt"),
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


@pytest.mark.parametrize("name", ["HDEFORM_MAX_TERMS", "HDEFORM_MAX_REWRITES"])
@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_size_limit_environment_is_checked(name, value):
    # a value that is not a nonnegative integer is a usage error naming
    # the variable; 0 means unlimited
    proc = subprocess.run(
        [sys.executable, "-m", "hdeform.cli", "central", "--n", "2",
         "--power", "1", "--format", "text"],
        capture_output=True, text=True, env=dict(os.environ, **{name: value}))
    if value == "0":
        assert proc.returncode == 0
        assert "L[1,1]" in proc.stdout
    else:
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {name} must be a nonnegative "
                               f"integer, not {value!r}\n")
