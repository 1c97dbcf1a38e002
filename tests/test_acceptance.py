"""Acceptance criteria: every identity class, exact (zero tolerance).

Each criterion prints one PASS/FAIL line (visible regardless of pytest
capture) and enforces its runtime budget where one is specified.
"""

import json
import subprocess
import sys
import time

import pytest
from conftest import strip_timing

from hdeform import dra, rmatrix, weyl
from hdeform.coeffs import RatFun, mu_coeff, qminus, qplus


def _report(num, label, failures, elapsed, budget=None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    print(f"ACCEPTANCE {num:>2} {label}: {status} [{elapsed:.1f}s]")
    assert not failures, f"criterion {num}: {failures[:3]}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} exceeded its runtime budget: "
            f"{elapsed:.1f}s >= {budget}s")


def test_criterion_01_rmatrix_identities():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        failures += rmatrix.run_suite(n, "all")
    _report(1, "exchange-operator identity suite (n=2,3,4)", failures,
            time.monotonic() - t0, budget=60)


def test_criterion_02_q_traces():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 7):
        tp = RatFun.zero(n)
        tm = RatFun.zero(n)
        for i in range(1, n + 1):
            tp = tp + qplus(n, i)
            tm = tm + qminus(n, i)
        if tp != RatFun.const(n, n):
            failures.append({"identity": "trace_qplus", "n": n})
        if tm != RatFun.const(n, n):
            failures.append({"identity": "trace_qminus", "n": n})
    _report(2, "q-weight traces equal the rank (n<=6)", failures,
            time.monotonic() - t0)


def test_criterion_03_confluence():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        for copies in (1, 2):
            for fermionic in (False, True):
                failures += weyl.check_confluence(n, copies, fermionic)
    _report(3, "degree-3 associativity oracle (both statistics)", failures,
            time.monotonic() - t0, budget=300)


def test_criterion_04_reflection_equation():
    t0 = time.monotonic()
    failures = []
    for n, copies in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        failures += weyl.verify_reflection(n, copies, fermionic=False)
    failures += weyl.verify_reflection(2, 2, fermionic=True)
    _report(4, "reflection equation for the composite matrix", failures,
            time.monotonic() - t0, budget=600)


def test_criterion_05_printed_table_regression():
    t0 = time.monotonic()
    failures = dra.check_appendix_rules()
    failures += dra.check_appendix_cross_copy()
    convention = dra.cross_copy_convention_report()
    if convention["passing_convention"] != "same_copy_only":
        failures.append({"identity": "cross_copy_convention",
                         "report": convention})
    if convention["across_copies_failures"] == 0:
        failures.append({"identity": "variant_convention_unexpectedly_passes"})
    elapsed = time.monotonic() - t0
    print(f"    cross-copy unit-term convention record: {convention}")
    _report(5, "printed n=2 tables (rules, cross-copy, conventions)",
            failures, elapsed)


def test_criterion_06_central_elements():
    t0 = time.monotonic()
    failures = []
    for n, powers in ((2, (1, 2, 3, 4)), (3, (1, 2))):
        for p in powers:
            failures += dra.check_central(n, p)
            failures += dra.check_central(n, p, primed=True)
    failures += dra.check_appendix_central_form(4)
    _report(6, "quantum-trace central elements (plain and primed)", failures,
            time.monotonic() - t0, budget=900)


def test_criterion_07_cartan_realization():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        failures += dra.check_h_realization(n)
    _report(7, "Cartan realization and mixed weight identity (n<=4)",
            failures, time.monotonic() - t0)


def test_criterion_08_braided_structure():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        failures += dra.check_coproduct(n)
    failures += weyl.split_realization(2, 2, 1)
    failures += weyl.split_realization(2, 3, 1)
    _report(8, "braided coproduct and split realization", failures,
            time.monotonic() - t0)


def test_criterion_09_braid_automorphisms():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        failures += weyl.verify_zhelobenko(n)
        if mu_coeff(n, n) != RatFun.const(n, -1):
            failures.append({"identity": "mu_base_case", "n": n})
    _report(9, "braid automorphisms and the mu recursion", failures,
            time.monotonic() - t0)


def test_criterion_10_generator_transforms():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        failures += dra.check_cartan_sum(n)
        failures += dra.check_generator_transforms(n)
    _report(10, "triangular generator transforms sum to the Cartan matrix",
            failures, time.monotonic() - t0)


def _run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "hdeform.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_criterion_11_cli_determinism():
    t0 = time.monotonic()
    failures = []
    c1, rel1 = _run_cli("relations", "--n", "2")
    c2, rel2 = _run_cli("relations", "--n", "2")
    if not (c1 == c2 == 0 and rel1 == rel2):
        failures.append({"identity": "relations_determinism"})
    c3, v1 = _run_cli("verify", "all", "--n", "2", "--N", "2")
    c4, v2 = _run_cli("verify", "all", "--n", "2", "--N", "2")
    if not (c3 == c4 == 0 and strip_timing(v1) == strip_timing(v2)):
        failures.append({"identity": "verify_determinism"})
    if json.loads(v1)["status"] != "pass":
        failures.append({"identity": "verify_status"})
    code_fail, _ = _run_cli("verify", "weyl", "--n", "2", "--N", "2",
                            "--suite", "reflection",
                            "--cross-copy-constant", "all_copies")
    if code_fail != 1:
        failures.append({"identity": "exit_code_identity_failure",
                         "got": code_fail})
    code_usage, _ = _run_cli("verify", "rmatrix", "--n", "2",
                             "--suite", "bogus")
    if code_usage != 2:
        failures.append({"identity": "exit_code_usage", "got": code_usage})
    _report(11, "CLI determinism and exit-code contract", failures,
            time.monotonic() - t0)
