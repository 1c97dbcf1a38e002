"""One pass of a workload in a fresh process.

Reads a JSON spec on stdin, imports hdeform from ``src`` of the current
directory, sets up, runs the pass as a closed loop (the next job or
request is issued only after the previous one returned), checks every
verdict and answer after the timed loop, and prints one JSON result
line on stdout.

Modes: ``plain`` runs untraced; ``probe`` wraps only the functions of
the old bench_kernel.py jobs, to time them; ``trace`` wraps every
layer (see tracer.py).
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items()
                if k != "wall_time_s"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def canonical_output(text):
    """Command output with its timing fields removed, for digests."""
    try:
        payload = json.loads(text)
    except ValueError:
        return text
    return json.dumps(_strip_timing(payload), sort_keys=True)


# -- batch workloads ----------------------------------------------------------

def run_tensor_job(job):
    _, modname, func, kwargs = job
    mod = importlib.import_module(f"hdeform.{modname}")
    failures = mod.__dict__[func](**kwargs)
    return (0 if not failures else 1), json.dumps(failures, sort_keys=True)


def run_cli_job(job):
    from hdeform import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job[1])
    return code, out.getvalue()


def check_job(job, expected_code, fixture, code, text, golden):
    """Problems with one job's verdict; empty when it is correct."""
    name = job[0]
    problems = []
    if code != expected_code:
        problems.append(f"{name}: exit code {code}, expected {expected_code}")
    want = golden["jobs"].get(name)
    if want is None:
        problems.append(f"{name}: no golden digest")
    elif digest(canonical_output(text)) != want:
        problems.append(f"{name}: output differs from the golden digest")
    if fixture is not None:
        path = os.path.join(workloads.FIXTURE_DIR, fixture)
        with open(path, encoding="utf-8") as fh:
            if text != fh.read():
                problems.append(f"{name}: output differs from {path}")
    return problems


def batch_pass(spec, tr, ready, done=lambda: None):
    workload, inputs = spec["workload"], spec["inputs"]
    golden = workloads.load_golden()
    run_job = run_tensor_job if workload == "tensor_identities" else run_cli_job
    jobs = inputs["jobs"]
    results = []
    ready()
    t_start = time.perf_counter()
    for k, job in enumerate(jobs):
        if tr is not None:
            tr.request = k
        t0 = time.perf_counter()
        try:
            code, text = run_job(job)
            error = None
        except (Exception, SystemExit):
            code, text, error = None, "", traceback.format_exc(limit=3)
        results.append((job, code, text, error, (t0, time.perf_counter())))
    t_end = time.perf_counter()
    done()
    if tr is not None:
        tr.uninstall()  # checks below are not part of the traced pass

    failed, problems, detected = 0, [], 0
    for job, code, text, error, _ in results:
        expected = 0 if workload == "tensor_identities" else job[2]
        fixture = None if workload == "tensor_identities" else job[3]
        bad = ([f"{job[0]}: raised {error}"] if error is not None else
               check_job(job, expected, fixture, code, text, golden))
        if bad:
            failed += 1
            problems.extend(bad)
        elif expected == 1:
            detected += 1
    attempted = len(results)
    if inputs.get("rank3_rules"):
        from hdeform.dra import ReductionAlgebra
        attempted += 1
        rules = len(ReductionAlgebra(3).same_rules)
        if rules != workloads.RANK3_RULES:
            failed += 1
            problems.append(f"rank-3 extraction gave {rules} rules, "
                            f"expected {workloads.RANK3_RULES}")
    return {
        "loop": (t_start, t_end),
        "requests": [r[4] for r in results],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detected_failures": detected,
    }


# -- nf_queries ------------------------------------------------------------------

def build_algebras():
    from hdeform.dra import ReductionAlgebra
    from hdeform.weyl import WeylAlgebra
    classes = {"WeylAlgebra": WeylAlgebra, "ReductionAlgebra": ReductionAlgebra}
    algs = {}
    for name, (cls, n, kwargs) in workloads.ALGEBRAS.items():
        alg = classes[cls](n, **kwargs)
        # warm the rule tables: every generator pair once
        gens = [alg.gen_element(g) for g in alg.generators()]
        for a in gens:
            for b in gens:
                alg.normal_form(a * b)
        algs[name] = alg
    return algs


def request_element(algs, req):
    from hdeform import coeffs
    alg = algs[req["alg"]]
    name, idx, shift = req["coeff"]
    c = coeffs.special(name, tuple(idx), alg.n).shift(tuple(shift))
    word = tuple(tuple(g) for g in req["word"])
    return alg, word, c


def is_normal(alg, el):
    return all(not alg.needs_rewrite(w[p], w[p + 1])
               for w in el.terms for p in range(len(w) - 1))


def nf_pass(spec, tr, ready, done=lambda: None):
    from hdeform.algebra import Element
    inputs = spec["inputs"]
    universe = workloads.load_golden()["nf_universe"]
    algs = build_algebras()
    base = []
    for uid in inputs["pool"]:
        alg, word, c = request_element(algs, universe[uid])
        base.append(alg.word_element(word, c))
    # one distinct request object per stream position
    stream = [(p, Element(base[p].alg, dict(base[p].terms)))
              for p in inputs["stream"]]
    answers, spans = [], []
    ready()
    clock = time.perf_counter
    t_start = clock()
    for k, (_, el) in enumerate(stream):
        if tr is not None:
            tr.request = k
        t0 = clock()
        ans = el.alg.normal_form(el)
        spans.append((t0, clock()))
        answers.append(ans)
    t_end = clock()
    done()
    if tr is not None:
        tr.uninstall()  # checks below are not part of the traced pass

    bad = set()
    problems = []
    first_answer = {}
    for k, ((p, el), ans) in enumerate(zip(stream, answers)):
        uid = inputs["pool"][p]
        first_answer.setdefault(p, ans)
        if not is_normal(el.alg, ans):
            bad.add(k)
            problems.append(f"request {k} (universe {uid}): not normal ordered")
        elif digest(str(ans)) != universe[uid]["digest"]:
            bad.add(k)
            problems.append(f"request {k} (universe {uid}): "
                            "answer differs from the golden digest")
    if spec["pass_index"] == 0:
        for p in inputs["cross_check"]:
            alg, word, c = request_element(algs, universe[inputs["pool"][p]])
            want = first_answer.get(p) or alg.normal_form(base[p])
            a = alg.word_element(word[:1], c)
            b = alg.word_element(word[1:2])
            rest = alg.word_element(word[2:])
            left = alg.normal_form(alg.normal_form(a * b) * rest)
            right = alg.normal_form(a * alg.normal_form(b * rest))
            if not left == right == want:
                wrong = [k for k, (q, _) in enumerate(stream) if q == p]
                bad.update(wrong)
                problems.append(f"pool entry {p}: bracketings disagree")
    return {
        "loop": (t_start, t_end),
        "requests": spans,
        "attempted": len(stream),
        "failed": len(bad),
        "problems": problems[:20],
        "detected_failures": 0,
    }


def timings(out, spawned_at, probe, setup_window):
    """Replace the (start, end) readings of a pass by its timings, in
    reference seconds when a speed probe ran (see speed.py), in raw
    seconds otherwise.  wall_s is the sum of the request latencies and
    of the gaps between them."""
    t_start, t_end = out.pop("loop")
    spans = out.pop("requests")
    probe_from, (ready_mono, ready_pc) = setup_window
    setup_raw = ready_mono - spawned_at
    if probe is None:
        out["latencies_s"] = [t1 - t0 for t0, t1 in spans]
        out["wall_s"] = out["raw_wall_s"] = t_end - t_start
        out["setup_s"] = out["raw_setup_s"] = setup_raw
        return out
    out["raw_wall_s"] = t_end - t_start - probe.spent(t_start, t_end)
    out["raw_setup_s"] = setup_raw - probe.spent(probe_from, ready_pc)
    out["slowness"] = probe.slowness(t_start, t_end)
    out["probe_samples"] = len(probe.durations)
    out["latencies_s"] = [probe.reference_s(t0, t1) for t0, t1 in spans]
    in_requests = sum(t1 - t0 - probe.spent(t0, t1) for t0, t1 in spans)
    gaps = (out["raw_wall_s"] - in_requests) / out["slowness"]
    out["wall_s"] = sum(out["latencies_s"]) + gaps
    # the interpreter start before the probe ran counts at the same speed
    out["setup_s"] = out["raw_setup_s"] / probe.slowness(
        probe_from, ready_pc, pad=speed.SETUP_PAD)
    return out


def main():
    spec = json.loads(sys.stdin.read())
    probe = None
    if spec["mode"] == "plain":  # untraced: timings in reference seconds
        probe = speed.SpeedProbe()
        probe.start()
    probe_from = time.perf_counter()
    import hdeform
    tr = None
    if spec["mode"] != "plain":
        tr = tracing.Tracer()
        if spec["mode"] == "trace":
            tracing.install(tr)
        else:
            tracing.install_legacy_probes(tr)
    ready_at = []

    def ready():
        ready_at.append((time.monotonic(), time.perf_counter()))

    def done():
        if probe is not None:
            probe.stop()

    run = nf_pass if spec["workload"] == "nf_queries" else batch_pass
    out = run(spec, tr, ready, done)
    timings(out, spec["spawned_at"], probe, (probe_from, ready_at[0]))
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["backend"] = hdeform.KERNEL_BACKEND
    if tr is not None:
        out["legacy_s"] = tr.legacy
        if spec["mode"] == "trace":
            out["layers"] = {k: v[0] for k, v in tr.metrics().items()}
            out["span_file"] = tr.write_spans(spec["span_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
