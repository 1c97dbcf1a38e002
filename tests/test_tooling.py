"""The benchmark tracer can wrap the package and put it back.

perfbench/tracer.py patches functions of every layer by name; a name
that moves or is renamed breaks only traced benchmark runs, so this
checks install, the legacy probes and uninstall here.
"""

import importlib.util
import pathlib
import sys

import hdeform.cli  # noqa: F401  (loads every module the tracer patches)
from hdeform import algebra, coeffs, dra, kernel, rmatrix, weyl

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def snapshot():
    """Every module attribute, module-level dict value and class member
    of the package, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "hdeform":
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    out[(name, key, repr(dkey))] = dval
    for cls in (coeffs.RatFun, algebra.Element, algebra.TermAlgebra,
                weyl.WeylAlgebra, dra.ReductionAlgebra,
                dra.FreeReductionAlgebra):
        for key, val in vars(cls).items():
            out[(cls.__name__, key)] = val
    return out


def test_tracer_installs_on_the_package_and_uninstalls_cleanly():
    tracer_mod = load_tracer()
    # the rank-1 cofactor and the store entries of the run are made on
    # first use; make them before the snapshot so the test also passes
    # when run alone
    coeffs.RatFun.const(1, 1)
    assert weyl.run_suite(1, 1, False, "confluence") == []
    before = snapshot()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert tracer.originals
        for mod, names in ((weyl, tracer_mod.WEYL_FUNCS),
                           (dra, tracer_mod.DRA_FUNCS),
                           (rmatrix, tracer_mod.RMATRIX_CHECKS),
                           (hdeform.cli,
                            tracer_mod.CLI_COMMANDS + ("run_unit",))):
            for name in names:
                assert hasattr(getattr(mod, name), "__wrapped__"), name
        assert hasattr(dra.ReductionAlgebra.mat_power, "__wrapped__")
        assert hasattr(kernel.p_mul, "__wrapped__")
        # a traced run goes through the wrappers and counts its calls
        assert weyl.run_suite(1, 1, False, "confluence") == []
        assert tracer.stats["weyl.check_confluence"][0] == 1
    finally:
        tracer.uninstall()
    assert_restored(before)


def test_legacy_probes_install_on_the_package_and_uninstall_cleanly():
    # the untraced baseline passes of a traced run wrap only the
    # functions LEGACY_JOBS names; each must still exist under its name
    tracer_mod = load_tracer()
    assert weyl.verify_reflection(1, 1, False, False) == []
    before = snapshot()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_legacy_probes(tracer)
        mods = {"rmatrix": rmatrix, "weyl": weyl, "dra": dra}
        for func, _ in tracer_mod.LEGACY_JOBS.values():
            modname, attr = func.split(".")
            assert hasattr(getattr(mods[modname], attr), "__wrapped__"), func
        assert weyl.verify_reflection(1, 1, False, False) == []
        assert tracer.stats["weyl.verify_reflection"][0] == 1
    finally:
        tracer.uninstall()
    assert_restored(before)


def test_tracer_sees_the_family_form_entry_points():
    # coeffs calls the stored product of a sum and the unstored family
    # product of an expanded numerator through ``K.``, so the tracer's
    # kernel wrappers see both, however warm the product table is
    tracer_mod = load_tracer()
    a = coeffs.parse(2, "1/(h1-h2+1)")
    b = coeffs.parse(2, "h1/((h1-h2)*(h2+3))")
    a + b       # the product table keeps what the sum expands
    before = snapshot()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        for name in ("fac_family", "p_mul_family", "p_fac_product"):
            assert hasattr(getattr(kernel, name), "__wrapped__"), name
        total = a + b
        assert tracer.stats["kernel.p_fac_product"][0] > 0
        assert b.num == kernel.p_var(2, 0)
        assert tracer.stats["kernel.p_mul_family"][0] > 0
    finally:
        tracer.uninstall()
    assert_restored(before)
    assert total == coeffs.parse(
        2, "(h1^2-h2^2+4*h1-3*h2)/((h1-h2)*(h1-h2+1)*(h2+3))")


def assert_restored(before):
    after = snapshot()
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []


def test_kernel_exports_every_public_function():
    # the tracer wraps only the names in K.__all__, so a public kernel
    # function left out of it would be invisible to traced kernel counts
    from hdeform.kernel import _poly_py
    public = {name for name, val in vars(_poly_py).items()
              if not name.startswith("_") and callable(val)
              and getattr(val, "__module__", None) == _poly_py.__name__}
    assert set(kernel.__all__) == public | {"BACKEND", "PROBE_POINTS"}
    assert len(kernel.__all__) == len(set(kernel.__all__))
