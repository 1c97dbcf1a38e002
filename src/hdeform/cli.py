"""Command-line front end.

Subcommands:
  verify       run identity suites and emit a JSON report (exit 1 on failure)
  relations    print the ordering relations of the reduction algebra
  central      compute quantum-trace central elements
  normal-form  normal-order an expression in the deformed Weyl algebra

Exit codes: 0 all checks pass, 1 an identity failed, 2 usage or parse error.
The HDEFORM_MAX_TERMS environment variable caps the number of monomials
any single coefficient or element may hold (0 = unlimited), and
HDEFORM_MAX_REWRITES caps the steps of the rewrite engine.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
import time

from .errors import HdeformError, ParseError
from .report import SuiteReport, failure, render_reports

GUARD_N = 6
GUARD_COPIES = 4
GUARD_POWER = 6


class UsageError(Exception):
    pass


def _guard(args):
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    copies = getattr(args, "copies_weyl", None)
    power = getattr(args, "power", None)
    braided = getattr(args, "copies", None)
    if not getattr(args, "force", False):
        if args.n > GUARD_N:
            raise UsageError(
                f"--n {args.n} exceeds the guardrail {GUARD_N}; pass --force to override")
        if copies is not None and copies > GUARD_COPIES:
            raise UsageError(
                f"--N {copies} exceeds the guardrail {GUARD_COPIES}; pass --force to override")
        if braided is not None and braided > GUARD_COPIES:
            raise UsageError(
                f"--copies {braided} exceeds the guardrail {GUARD_COPIES}; "
                "pass --force to override")
        if power is not None and power > GUARD_POWER:
            raise UsageError(
                f"--power {power} exceeds the guardrail {GUARD_POWER}; pass --force to override")
    if copies is not None and copies < 1:
        raise UsageError("--N must be at least 1")
    if braided is not None and braided < 1:
        raise UsageError("--copies must be at least 1")
    if power is not None and power < 0:
        raise UsageError("--power must be nonnegative")


# ---------------------------------------------------------------------------
# verification units (top-level so --jobs can dispatch across processes)
# ---------------------------------------------------------------------------

def run_unit(task):
    """Execute one (module, function, kwargs) unit.

    Returns (failures, seconds); module-level so worker processes can
    import and run it.  A package error ends only its own unit: it is
    recorded as the unit's failure, with an identity named after the
    error type (RewriteLimitError -> rewrite_limit) and the message as
    lhs, and the remaining units still run.
    """
    modname, funcname, kwargs = task
    mod = importlib.import_module(f"hdeform.{modname}")
    t0 = time.perf_counter()
    try:
        failures = getattr(mod, funcname)(**kwargs)
    except HdeformError as exc:
        kind = type(exc).__name__.removesuffix("Error")
        failures = [failure(re.sub(r"(?<!^)(?=[A-Z])", "_", kind).lower(),
                            (), exc)]
    return failures, time.perf_counter() - t0


def _suite_units(kind, label, *args):
    """The units of hdeform.<kind>.suite_units(*args), each named by
    label(name); a ValueError there is a usage error with the same text."""
    mod = importlib.import_module(f"hdeform.{kind}")
    try:
        units = mod.suite_units(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return [(label(name), (kind, fn, kw)) for name, fn, kw in units]


def _rmatrix_units(n, suite):
    return _suite_units("rmatrix", lambda name: f"rmatrix.{name}", n, suite)


def _weyl_units(n, copies, fermionic, suite, across_copies=False):
    stats = "fermionic" if fermionic else "bosonic"
    return _suite_units("weyl", lambda name: f"weyl.{name}[{stats}]",
                        n, copies, fermionic, suite, across_copies)


def _dra_units(n, suite, power, copies=2):
    return _suite_units("dra", lambda name: f"dra.{name}",
                        n, suite, copies, power)


def _verify_units(args):
    """The (report name, task) units a verify command runs, in order."""
    n = args.n
    copies = args.copies_weyl
    fermionic = args.stats == "fermionic"
    units = []
    if args.target in ("rmatrix", "all"):
        units += _rmatrix_units(n, args.suite if args.target == "rmatrix" else "all")
    if args.target in ("weyl", "all"):
        across = args.cross_copy_constant == "all_copies"
        units += _weyl_units(n, copies, fermionic,
                             args.suite if args.target == "weyl" else "all",
                             across)
        if args.target == "all" and not fermionic:
            # both statistics are part of the full run
            units += _weyl_units(n, copies, True, "confluence")
            units += _weyl_units(n, copies, True, "reflection", across)
    if args.target in ("dra", "all"):
        units += _dra_units(n, args.suite if args.target == "dra" else "all",
                            args.power, args.copies)
    return units


def cmd_verify(args):
    _guard(args)
    units = _verify_units(args)
    reports = []
    t_all = time.time()
    if args.jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(run_unit, [task for _, task in units])
    else:
        results = [run_unit(task) for _, task in units]
    for (name, _task), (failures, elapsed) in zip(units, results):
        reports.append(SuiteReport(
            suite=name,
            config={"n": args.n, "copies": args.copies_weyl,
                    "statistics": args.stats,
                    "braided_copies": args.copies, "power": args.power},
            failures=failures,
            wall_time_s=elapsed))
    total = time.time() - t_all
    text = render_reports(reports)
    payload = json.loads(text)
    payload["wall_time_s"] = round(total, 6)
    text = json.dumps(payload, indent=2, sort_keys=True)
    _emit(args, text)
    return 0 if payload["status"] == "pass" else 1


def cmd_relations(args):
    _guard(args)
    from . import dra
    from .algebra import coeff_factor_str
    from .coeffs import serialize
    cat = dra.relation_catalogue(args.n, args.generators)

    def wstr(word):
        return "*".join(f"L[{i},{j}]" for (i, j) in word)

    if args.generators == "L":
        if args.format == "json":
            payload = [{"lhs_word": wstr(lhs),
                        "rhs_terms": [{"word": wstr(w), "coeff": serialize(c)}
                                      for c, w in rhs]}
                       for lhs, rhs in cat]
            text = json.dumps(payload, indent=2)
        else:
            lines = []
            for lhs, rhs in cat:
                parts = []
                for c, w in rhs:
                    cs = coeff_factor_str(c)
                    if not w:
                        parts.append(cs)
                    elif cs == "1":
                        parts.append(wstr(w))
                    else:
                        parts.append(f"{cs}*{wstr(w)}")
                lines.append(f"{wstr(lhs)} = " + " + ".join(parts))
            text = "\n".join(lines)
    else:
        rows = []
        for ((lhs_pats, lhs_el), rhs_el) in cat:
            rows.append({"lhs": str(lhs_el), "rhs": str(rhs_el),
                         "ordering_of": "*".join(f"s-image L[{i},{j}]"
                                                 for (i, j) in lhs_pats)})
        if args.format == "json":
            text = json.dumps(rows, indent=2)
        else:
            text = "\n".join(f"{r['lhs']} = {r['rhs']}" for r in rows)
    _emit(args, text)
    return 0


def cmd_central(args):
    _guard(args)
    from . import dra
    el = dra.central_element(args.n, args.power)
    result = {"n": args.n, "power": args.power, "element": str(el)}
    status = 0
    if args.check:
        failures = dra.check_central(args.n, args.power)
        result["commutators_vanish"] = not failures
        result["failures"] = failures
        status = 0 if not failures else 1
    if args.format == "json":
        text = json.dumps(result, indent=2, sort_keys=True)
    else:
        text = result["element"]
        if args.check:
            text += "\ncentral: " + ("yes" if result["commutators_vanish"]
                                     else "NO")
    _emit(args, text)
    return status


def cmd_normal_form(args):
    _guard(args)
    from .weyl import WeylAlgebra
    from .exprparse import parse_weyl_expression
    alg = WeylAlgebra(args.n, args.copies_weyl,
                      fermionic=args.stats == "fermionic")
    el = parse_weyl_expression(alg, args.expr)
    nf = alg.normal_form(el)
    if args.format == "json":
        text = json.dumps({"n": args.n, "copies": args.copies_weyl,
                           "statistics": args.stats, "expr": args.expr,
                           "normal_form": str(nf)}, indent=2, sort_keys=True)
    else:
        text = str(nf)
    _emit(args, text)
    return 0


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="hdeform",
        description="Exact calculus in h-deformed differential-operator "
                    "algebras and the reflection-equation algebra.",
        epilog="Environment: HDEFORM_MAX_TERMS caps coefficient and element "
               "size; HDEFORM_MAX_REWRITES caps rewrite steps.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, power=False):
        sp.add_argument("--n", type=int, required=True,
                        help="rank (number of indices)")
        sp.add_argument("--N", dest="copies_weyl", type=int, default=1,
                        help="number of copies of the coordinate family")
        sp.add_argument("--stats", choices=["bosonic", "fermionic"],
                        default="bosonic", help="statistics of the variables")
        sp.add_argument("--copies", type=int, default=2,
                        help="braided copies for coproduct checks")
        sp.add_argument("--format", choices=["json", "text"], default="json")
        sp.add_argument("--out", help="write output to a file")
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel processes for independent checks")
        sp.add_argument("--force", action="store_true",
                        help="override the size guardrails")
        if power:
            sp.add_argument("--power", type=int, default=2,
                            help="highest trace power to check")

    sp = sub.add_parser("verify", help="run identity suites")
    sp.add_argument("target", choices=["rmatrix", "weyl", "dra", "all"])
    sp.add_argument("--suite", default="all",
                    help="restrict to one named suite of the target")
    sp.add_argument("--cross-copy-constant", dest="cross_copy_constant",
                    choices=["same_copy", "all_copies"], default="same_copy",
                    help="convention for the inhomogeneous unit of the "
                         "cross-copy exchange (the all_copies variant is "
                         "expected to fail the reflection oracle)")
    common(sp, power=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("relations",
                        help="ordering relations of the reduction algebra")
    sp.add_argument("--generators", choices=["L", "s"], default="L")
    common(sp)
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("central", help="quantum-trace central elements")
    common(sp)
    sp.add_argument("--power", type=int, required=True)
    sp.add_argument("--check", action="store_true",
                    help="verify centrality by commutators")
    sp.set_defaults(func=cmd_central)

    sp = sub.add_parser("normal-form",
                        help="normal-order a differential-operator expression")
    common(sp)
    sp.add_argument("--expr", required=True,
                    help="expression in x[i,a], D[j,a] and coefficients")
    sp.set_defaults(func=cmd_normal_form)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HdeformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
