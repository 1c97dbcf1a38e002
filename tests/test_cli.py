"""Command-line interface: determinism, exit codes, formats."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from hdeform.cli import main


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
