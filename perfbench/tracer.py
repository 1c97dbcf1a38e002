"""Outside-in tracing of hdeform's seven layers.

Nothing under src/ is changed: :func:`install` replaces public entry
points of each layer with timing wrappers, in every hdeform module and
module-level dispatch table that refers to them.  Each wrapper keeps a
call stack so that a layer's self time is its span's duration minus the
time its child spans cover.

Hot functions (kernel calls, coefficient operations, rewrite steps) are
aggregated in memory per name; coarse spans (suites, checks, normal
forms, tensor builds, rule extraction, the command line) are also kept
individually with their parent span and request id and written out at
the end of the run.
"""

import inspect
import json
import sys
import time
import weakref

MAX_SPANS = 200_000

# The old bench_kernel.py jobs, found inside the new workloads by the
# function they called and the arguments that identify them.
LEGACY_JOBS = {
    "exchange_suite_n3": ("rmatrix.run_suite", {"n": 3, "suite": "all"}),
    "dybe_n4": ("rmatrix.check_dybe", {"n": 4}),
    "reflection_weyl_2_2": ("weyl.verify_reflection",
                            {"n": 2, "copies": 2, "fermionic": False,
                             "inhomogeneous_across_copies": False}),
    "reflection_weyl_3_1": ("weyl.verify_reflection",
                            {"n": 3, "copies": 1, "fermionic": False,
                             "inhomogeneous_across_copies": False}),
    "confluence_3_1": ("weyl.check_confluence",
                       {"n": 3, "copies": 1, "fermionic": False}),
    "central_n2_N3": ("dra.check_central",
                      {"n": 2, "power": 3, "primed": False}),
    "rule_extraction_n3": ("dra.extract_rewrite_rules", {"n": 3}),
}

# Names (as used for spans) whose calls are summed into the group metrics.
GROUPS = {
    "coeffs.inverse": ("RatFun.inverse",),
    "rmatrix.build": ("rmatrix.rhat", "rmatrix.that", "rmatrix.shat",
                      "rmatrix.psihat", "rmatrix.qplus_op",
                      "rmatrix.qminus_op", "rmatrix.hmat"),
    "algebra.product": ("Element.__mul__", "algebra.mat_mul",
                        "algebra.reflection_residual"),
    "dra.extract": ("dra.extract_rewrite_rules", "dra.extract_cross_rules"),
    "dra.central": ("dra.central_element", "ReductionAlgebra.mat_power",
                    "ReductionAlgebra.quantum_trace"),
}

COEFF_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "inverse", "shift",
             "permute", "negate_h")
SPECIAL_BUILDERS = ("phi", "qplus", "qminus", "alpha_coeff", "beta_coeff",
                    "mu_coeff")
RMATRIX_CHECKS = ("check_involutive", "check_dybe", "check_skew_inverse",
                  "check_aux_identities", "check_traces", "run_suite")
WEYL_FUNCS = ("verify_reflection", "check_confluence",
              "check_forward_exchange", "check_variant_generators",
              "verify_zhelobenko", "zhelobenko", "split_realization",
              "run_suite")
DRA_FUNCS = ("relation_catalogue", "check_relation_roundtrip",
             "check_h_realization", "check_associativity",
             "check_associativity_sample", "check_central",
             "check_weight_zero_diagonal", "check_generator_transforms",
             "check_cartan_sum", "check_weyl_realization",
             "check_central_realization", "check_braided_sum",
             "check_coproduct", "check_appendix_rules",
             "check_appendix_central_form", "check_appendix_cross_copy",
             "check_cross_copy_convention", "run_suite")
CLI_COMMANDS = ("main", "cmd_verify", "cmd_relations", "cmd_central",
                "cmd_normal_form")


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        # frames: [time covered by child spans, id of nearest kept span]
        self.stack = [[0.0, 0]]
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.group_depth = {g: 0 for g in GROUPS}
        self.group_time = {g: 0.0 for g in GROUPS}
        self.legacy = {}         # legacy job -> seconds
        self.spans = []
        self.dropped_spans = 0
        self.next_id = 1
        self.request = -1
        self.counts = {"kernel.divexact_hits": 0,
                       "kernel.mul_term_products": 0,
                       "coeffs.max_num_terms": 0,
                       "algebra.terms_in": 0, "algebra.terms_out": 0,
                       "weyl.rule_cache_hits": 0,
                       "dra.constructions": 0, "dra.constructions_cached": 0}
        self.seen_pairs = weakref.WeakKeyDictionary()
        self.originals = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, keep=False, hook=None, legacy=()):
        """Timing wrapper around fn recorded under name.

        keep: store each call as a span; hook(args, result) runs after a
        successful call; legacy: LEGACY_JOBS entries this function may be.
        """
        stack, clock, spans = self.stack, self.clock, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        groups = [g for g, names in GROUPS.items() if name in names]
        depth, gtime = self.group_depth, self.group_time
        sig = inspect.signature(fn) if legacy else None

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            if keep:
                span_id = self.next_id
                self.next_id += 1
                parent = frame[1]
                frame[1] = span_id
            for g in groups:
                depth[g] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        gtime[g] += dt
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent, name, t0, t1,
                                      self.request))
                    else:
                        self.dropped_spans += 1
            if hook is not None:
                hook(args, result)
            if legacy:
                self._legacy(sig, legacy, args, kwargs, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _legacy(self, sig, jobs, args, kwargs, dt):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        for job in jobs:
            want = LEGACY_JOBS[job][1]
            if all(bound.arguments.get(k) == v for k, v in want.items()):
                self.legacy[job] = self.legacy.get(job, 0.0) + dt

    def patch_function(self, module, attr, name, **kw):
        """Replace a module-level function everywhere hdeform refers to it:
        module attributes of every hdeform module and values of their
        module-level dicts (dispatch tables)."""
        orig = getattr(module, attr)
        wrapped = self.wrap(orig, name, **kw)
        for mod in _hdeform_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self.originals.append((mod, key, val))
                    setattr(mod, key, wrapped)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            self.originals.append((val, dkey, dval))
                            val[dkey] = wrapped

    def patch_method(self, cls, attr, name, **kw):
        orig = cls.__dict__[attr]
        self.originals.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(orig, name, **kw))

    def uninstall(self):
        for owner, key, val in reversed(self.originals):
            if isinstance(owner, dict):
                owner[key] = val
            else:
                setattr(owner, key, val)
        self.originals = []

    # -- hooks ----------------------------------------------------------------

    def _divexact_hook(self, args, result):
        if result is not None:
            self.counts["kernel.divexact_hits"] += 1

    def _mul_hook(self, args, result):
        self.counts["kernel.mul_term_products"] += len(args[0]) * len(args[1])

    def _coeff_hook(self, args, result):
        num = getattr(result, "num", None)
        if num is not None and len(num) > self.counts["coeffs.max_num_terms"]:
            self.counts["coeffs.max_num_terms"] = len(num)

    def _nf_hook(self, args, result):
        self.counts["algebra.terms_in"] += len(args[1].terms)
        self.counts["algebra.terms_out"] += len(result.terms)

    def _weyl_rule_hook(self, args, result):
        alg, g1, g2 = args
        seen = self.seen_pairs.setdefault(alg, set())
        if (g1, g2) in seen:
            self.counts["weyl.rule_cache_hits"] += 1
        else:
            seen.add((g1, g2))

    # -- metrics ----------------------------------------------------------------

    def calls(self, *names):
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def self_time(self, prefix_or_names):
        if isinstance(prefix_or_names, str):
            return sum(s[2] for n, s in self.stats.items()
                       if n.startswith(prefix_or_names))
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2]
                   for n in prefix_or_names)

    def metrics(self):
        """Per-layer metrics: (name -> (value, unit))."""
        c = self.counts
        kernel_calls = self.calls(*(n for n in self.stats
                                    if n.startswith("kernel.")))
        divexact = self.calls("kernel.p_divexact")
        weyl_rules = self.calls("WeylAlgebra.pair_rule")
        steps = weyl_rules + self.calls("ReductionAlgebra.pair_rule",
                                        "FreeReductionAlgebra.pair_rule")
        built = c["dra.constructions"]
        return {
            "kernel.calls": (kernel_calls, "count"),
            "kernel.busy_s": (self.self_time("kernel."), "s"),
            "kernel.divexact_calls": (divexact, "count"),
            "kernel.divexact_hit_ratio": (
                c["kernel.divexact_hits"] / divexact if divexact else 0.0,
                "ratio"),
            "kernel.mul_term_products": (c["kernel.mul_term_products"],
                                         "count"),
            "kernel.normalize_calls": (
                self.calls("kernel.p_fraction_normalize"), "count"),
            "coeffs.ops": (self.calls(*("RatFun." + op for op in COEFF_OPS)),
                           "count"),
            "coeffs.self_s": (self.self_time("RatFun.")
                              + self.self_time("coeffs."), "s"),
            "coeffs.inverse_calls": (self.calls("RatFun.inverse"), "count"),
            "coeffs.inverse_s": (self.group_time["coeffs.inverse"], "s"),
            "coeffs.special_builds": (
                self.calls(*("coeffs." + b for b in SPECIAL_BUILDERS)),
                "count"),
            "coeffs.max_num_terms": (c["coeffs.max_num_terms"], "count"),
            "rmatrix.build_calls": (self.calls(*GROUPS["rmatrix.build"]),
                                    "count"),
            "rmatrix.build_s": (self.group_time["rmatrix.build"], "s"),
            "rmatrix.check_self_s": (
                self.self_time(["rmatrix." + f for f in RMATRIX_CHECKS]),
                "s"),
            "algebra.normal_form_calls": (
                self.calls("TermAlgebra.normal_form"), "count"),
            "algebra.rewrite_steps": (steps, "count"),
            "algebra.terms_in": (c["algebra.terms_in"], "count"),
            "algebra.terms_out": (c["algebra.terms_out"], "count"),
            "algebra.self_s": (self.self_time(["TermAlgebra.normal_form"]),
                               "s"),
            "algebra.product_s": (self.group_time["algebra.product"], "s"),
            "weyl.pair_rule_calls": (weyl_rules, "count"),
            "weyl.rule_cache_hit_ratio": (
                c["weyl.rule_cache_hits"] / weyl_rules if weyl_rules else 0.0,
                "ratio"),
            "weyl.self_s": (self.self_time("weyl.")
                            + self.self_time("WeylAlgebra."), "s"),
            "dra.extract_calls": (self.calls(*GROUPS["dra.extract"]),
                                  "count"),
            "dra.extract_s": (self.group_time["dra.extract"], "s"),
            "dra.constructions": (built, "count"),
            "dra.rule_cache_hit_ratio": (
                c["dra.constructions_cached"] / built if built else 0.0,
                "ratio"),
            "dra.central_s": (self.group_time["dra.central"], "s"),
            "cli.units": (self.calls("cli.run_unit"), "count"),
            "cli.overhead_s": (
                self.self_time(["cli." + f for f in CLI_COMMANDS]), "s"),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1, req in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "request": req}) + "\n")
        return {"spans": len(self.spans), "dropped": self.dropped_spans}


def _hdeform_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hdeform" or n.startswith("hdeform."))]


def _legacy_by_function():
    by_func = {}
    for job, (func, _) in LEGACY_JOBS.items():
        by_func.setdefault(func, []).append(job)
    return {func: tuple(jobs) for func, jobs in by_func.items()}


def install_legacy_probes(tracer):
    """Wrap only the functions the old bench_kernel.py jobs called.

    They run a handful of times per pass, so this costs nothing
    measurable; used for the untraced baseline passes of a traced run.
    """
    from hdeform import dra, rmatrix, weyl
    mods = {"rmatrix": rmatrix, "weyl": weyl, "dra": dra}
    for func, jobs in _legacy_by_function().items():
        modname, attr = func.split(".")
        tracer.patch_function(mods[modname], attr, func, keep=True,
                              legacy=jobs)


def install(tracer):
    """Wrap the public entry points of every layer."""
    import hdeform.kernel as K
    from hdeform import algebra, cli, coeffs, dra, rmatrix, weyl

    legacy_for = _legacy_by_function()

    def fn(module, modname, attr, **kw):
        name = f"{modname}.{attr}"
        tracer.patch_function(module, attr, name,
                              legacy=legacy_for.get(name, ()), **kw)

    # kernel: the module attributes coeffs calls through ``K.``
    hooks = {"p_divexact": tracer._divexact_hook, "p_mul": tracer._mul_hook}
    for attr in K.__all__:
        if attr != "BACKEND" and callable(getattr(K, attr)):
            orig = getattr(K, attr)
            tracer.originals.append((K, attr, orig))
            setattr(K, attr, tracer.wrap(orig, f"kernel.{attr}",
                                         hook=hooks.get(attr)))

    # coeffs
    for op in COEFF_OPS:
        tracer.patch_method(coeffs.RatFun, op, f"RatFun.{op}",
                            hook=tracer._coeff_hook)
    for b in SPECIAL_BUILDERS:
        fn(coeffs, "coeffs", b)

    # rmatrix
    for name in GROUPS["rmatrix.build"]:
        fn(rmatrix, "rmatrix", name.split(".")[1], keep=True)
    for name in RMATRIX_CHECKS:
        fn(rmatrix, "rmatrix", name, keep=True)

    # algebra
    tracer.patch_method(algebra.TermAlgebra, "normal_form",
                        "TermAlgebra.normal_form", keep=True,
                        hook=tracer._nf_hook)
    tracer.patch_method(algebra.Element, "__mul__", "Element.__mul__")
    fn(algebra, "algebra", "mat_mul", keep=True)
    fn(algebra, "algebra", "reflection_residual", keep=True)

    # weyl
    tracer.patch_method(weyl.WeylAlgebra, "pair_rule",
                        "WeylAlgebra.pair_rule", hook=tracer._weyl_rule_hook)
    for name in WEYL_FUNCS:
        fn(weyl, "weyl", name, keep=True)

    # dra
    tracer.patch_method(dra.ReductionAlgebra, "pair_rule",
                        "ReductionAlgebra.pair_rule")
    tracer.patch_method(dra.FreeReductionAlgebra, "pair_rule",
                        "FreeReductionAlgebra.pair_rule")
    for name in GROUPS["dra.extract"]:
        fn(dra, "dra", name.split(".")[1], keep=True)
    fn(dra, "dra", "central_element", keep=True)
    tracer.patch_method(dra.ReductionAlgebra, "mat_power",
                        "ReductionAlgebra.mat_power", keep=True)
    tracer.patch_method(dra.ReductionAlgebra, "quantum_trace",
                        "ReductionAlgebra.quantum_trace", keep=True)
    for name in DRA_FUNCS:
        fn(dra, "dra", name, keep=True)
    _wrap_construction(tracer, dra.ReductionAlgebra)

    # cli
    for name in CLI_COMMANDS:
        fn(cli, "cli", name, keep=True)
    fn(cli, "cli", "run_unit", keep=True)


def _wrap_construction(tracer, cls):
    """Count ReductionAlgebra constructions and those that needed no rule
    extraction (the rule cache already held their system)."""
    orig = cls.__dict__["__init__"]
    extract = tracer.stats.setdefault("dra.extract_rewrite_rules",
                                      [0, 0.0, 0.0])

    def __init__(self, *args, **kwargs):
        before = extract[0]
        orig(self, *args, **kwargs)
        tracer.counts["dra.constructions"] += 1
        if extract[0] == before:
            tracer.counts["dra.constructions_cached"] += 1

    tracer.originals.append((cls, "__init__", orig))
    cls.__init__ = __init__
