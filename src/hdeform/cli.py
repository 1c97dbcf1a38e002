"""Command-line front end.

Subcommands:
  verify       run identity suites and emit a JSON report (exit 1 on failure)
  relations    print the ordering relations of the reduction algebra
  central      compute quantum-trace central elements
  normal-form  normal-order an expression in the deformed Weyl algebra

Exit codes: 0 all checks pass, 1 an identity failed, 2 usage or parse error.
The --out file is opened before any work, so a path that cannot be
written (a missing directory, a directory) is a usage error.
The HDEFORM_MAX_TERMS environment variable caps the number of monomials
any single coefficient or element may hold (0 = unlimited), and
HDEFORM_MAX_REWRITES caps the steps of the rewrite engine; a value of
either that is not a nonnegative integer is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import re
import sys
import time

from .errors import HdeformError, ParseError, UsageError
from .report import failure, render_reports

GUARD_N = 6
GUARD_COPIES = 4
GUARD_POWER = 6


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
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    units = _verify_units(args)
    t_all = time.time()
    processes = min(args.jobs, len(units))
    if processes > 1:
        import multiprocessing
        with multiprocessing.Pool(processes) as pool:
            results = pool.map(run_unit, [task for _, task in units])
    else:
        results = [run_unit(task) for _, task in units]
    config = {"n": args.n, "copies": args.copies_weyl,
              "statistics": args.stats, "braided_copies": args.copies,
              "power": args.power}
    _emit(args, render_reports(
        [(name, config, failures, elapsed)
         for (name, _task), (failures, elapsed) in zip(units, results)],
        time.time() - t_all))
    return 1 if any(failures for failures, _ in results) else 0


def cmd_relations(args):
    _guard(args)
    from . import dra
    from .coeffs import serialize
    cat = dra.relation_catalogue(args.n, args.generators)

    if args.generators == "L":
        alg = dra.FreeReductionAlgebra(args.n)

        def word(pairs):
            return tuple((1, i, j) for i, j in pairs)

        if args.format == "json":
            payload = [{"lhs_word": alg.word_str(word(lhs)),
                        "rhs_terms": [{"word": alg.word_str(word(w)),
                                       "coeff": serialize(c)}
                                      for c, w in rhs]}
                       for lhs, rhs in cat]
            text = json.dumps(payload, indent=2)
        else:
            text = "\n".join(
                f"{alg.word_element(word(lhs))} = "
                f"{alg.element({word(w): c for c, w in rhs})}"
                for lhs, rhs in cat)
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
    print(text, file=args.stream)


def _open_out(path):
    """The stream the output goes to: standard output, or the file path,
    opened before any work, so that a path that cannot be written is a
    usage error and not a traceback after every check has run."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="hdeform",
        description="Exact calculus in h-deformed differential-operator "
                    "algebras and the reflection-equation algebra.",
        epilog="Exit codes: 0 pass, 1 an identity failed, 2 usage or parse "
               "error; an --out path that cannot be written is a usage "
               "error, reported before any work.  Environment: "
               "HDEFORM_MAX_TERMS caps coefficient and element size; "
               "HDEFORM_MAX_REWRITES caps rewrite steps.")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand declares the options it reads: --n, --out, --force
    # and the ones it names
    options = {
        "--N": dict(dest="copies_weyl", type=int, default=1,
                    help="number of copies of the coordinate family"),
        "--stats": dict(choices=["bosonic", "fermionic"], default="bosonic",
                        help="statistics of the variables"),
        "--copies": dict(type=int, default=2,
                         help="braided copies for coproduct checks"),
        "--format": dict(choices=["json", "text"], default="json"),
        "--jobs": dict(type=int, default=1,
                       help="parallel processes for independent checks "
                            "(at least 1; at most one per check)"),
    }

    def common(sp, *names):
        sp.add_argument("--n", type=int, required=True,
                        help="rank (number of indices)")
        for name in names:
            sp.add_argument(name, **options[name])
        sp.add_argument("--out", help="write output to a file")
        sp.add_argument("--force", action="store_true",
                        help="override the size guardrails")

    sp = sub.add_parser("verify", help="run identity suites")
    sp.add_argument("target", choices=["rmatrix", "weyl", "dra", "all"])
    sp.add_argument("--suite", default="all",
                    help="restrict to one named suite of the target")
    sp.add_argument("--cross-copy-constant", dest="cross_copy_constant",
                    choices=["same_copy", "all_copies"], default="same_copy",
                    help="convention for the inhomogeneous unit of the "
                         "cross-copy exchange (the all_copies variant is "
                         "expected to fail the reflection oracle)")
    common(sp, "--N", "--stats", "--copies", "--jobs")
    sp.add_argument("--power", type=int, default=2,
                    help="highest trace power to check")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("relations",
                        help="ordering relations of the reduction algebra")
    sp.add_argument("--generators", choices=["L", "s"], default="L")
    common(sp, "--format")
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("central", help="quantum-trace central elements")
    common(sp, "--format")
    sp.add_argument("--power", type=int, required=True)
    sp.add_argument("--check", action="store_true",
                    help="verify centrality by commutators")
    sp.set_defaults(func=cmd_central)

    sp = sub.add_parser("normal-form",
                        help="normal-order a differential-operator expression")
    common(sp, "--N", "--stats", "--format")
    sp.add_argument("--expr", required=True,
                    help="expression in x[i,a], D[j,a] and coefficients")
    sp.set_defaults(func=cmd_normal_form)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_out(args.out) as args.stream:
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
