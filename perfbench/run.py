#!/usr/bin/env python3
"""The hdeform benchmark.

    python3 perfbench/run.py --workload {tensor_identities,verify_all,nf_queries}
                             --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; hdeform is imported from
``src``.  Every input is built here before any timing starts; the seed
fixes the request stream of nf_queries.  Each pass of the workload then runs in a fresh worker
process (the cold state of a new ``hdeform`` process: empty rule
caches), one at a time, until the next pass would end after ``--seconds``
(at least MIN_PASSES passes).

``--trace 0`` reports the end-to-end metrics, taken as medians over the
passes; latency percentiles pool every request of every pass.  Their
times are reference seconds: corrected for the speed of the host by the
probe in speed.py.
``--trace 1`` alternates untraced passes with fully traced ones and
reports the per-layer metrics, the tracing overhead and the wall time of
each old bench_kernel.py job.  Every verdict and answer is checked; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
MIN_PASSES = 3
RUN_LIMIT_S = 170           # a run must end well within 180 s
HDEFORM_ENV = ("HDEFORM_PURE", "HDEFORM_MAX_TERMS", "HDEFORM_MAX_REWRITES")

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    pass


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    """Environment of the workers: hdeform from src, size limits unset."""
    env = {k: v for k, v in os.environ.items() if k not in HDEFORM_ENV}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(spec, env, deadline):
    spec = dict(spec, spawned_at=time.monotonic())
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(spec),
                              capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {spec['pass_index']} ({spec['mode']}) "
                         f"exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {spec['pass_index']} ({spec['mode']}) exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["pass_s"] = time.monotonic() - spec["spawned_at"]
    return out


def percentile(samples, q):
    """q-th percentile (1..99), inclusive interpolation."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(passes):
    lat_ms = [1000.0 * s for p in passes for s in p["latencies_s"]]
    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p99_ms": percentile(lat_ms, 99),
        "queries_per_s": len(lat_ms) / sum(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max([parent_rss] + [p["peak_rss_mb"] for p in passes]),
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def per_layer(passes):
    traced = [p for p in passes if p["mode"] == "trace"]
    plain = [p for p in passes if p["mode"] == "probe"]
    units = {k: u for k, (_, u) in tracing.Tracer().metrics().items()}
    out = {}
    for name, unit in units.items():
        if unit == "s":
            value = statistics.median(p["layers"][name] for p in traced)
        else:  # counts repeat exactly for a seed; report the first pass
            value = traced[0]["layers"][name]
        out[name] = (value, unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return out


def legacy_jobs(passes):
    """Median wall time of each old bench_kernel.py job this workload runs,
    from the untraced passes of a traced run."""
    plain = [p for p in passes if p["mode"] == "probe"]
    return {job: statistics.median(p["legacy_s"][job] for p in plain)
            for job in tracing.LEGACY_JOBS if job in plain[0]["legacy_s"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for testing the benchmark itself")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hdeform", "__init__.py")):
        print("error: run from the root of an hdeform checkout "
              "(src/hdeform not found)", file=sys.stderr)
        return 2

    t_run = time.monotonic()
    size = "tiny" if args.tiny else "full"
    inputs = workloads.make_inputs(args.workload, args.seed, size)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()
    modes = ("probe", "trace") if args.trace else ("plain",)
    min_passes = len(modes) if args.trace else MIN_PASSES
    deadline = t_run + args.seconds
    hard_deadline = t_run + RUN_LIMIT_S

    passes, errors = [], []
    while True:
        i = len(passes)
        spec = {"workload": args.workload, "inputs": inputs,
                "mode": modes[i % len(modes)], "pass_index": i,
                "span_path": os.path.join(OUT_DIR, f"spans-{tag}-pass{i}.jsonl")}
        try:
            res = run_pass(spec, env, hard_deadline)
        except PassFailed as exc:
            errors.append(str(exc))
            break
        res["mode"] = spec["mode"]
        passes.append(res)
        if len(passes) % len(modes) or len(passes) < min_passes:
            continue
        typical = statistics.median(p["pass_s"] for p in passes)
        if time.monotonic() + len(modes) * typical > deadline:
            break

    complete = len(passes) - len(passes) % len(modes)
    passes = passes[:complete]
    if not passes:
        print("error: no pass completed: " + "; ".join(errors), file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if errors:  # an interrupted pass counts all of its work as failed
        lost = passes[0]["attempted"]
        attempted += lost
        failed += lost
    untraced = [p for p in passes if p["mode"] != "trace"]
    samples = sum(len(p["latencies_s"]) for p in untraced)
    metrics = per_layer(passes) if args.trace else end_to_end(untraced)
    metrics["failed_share"] = (failed / attempted, "ratio")

    backends = sorted({p["backend"] for p in passes})
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "kernel_backend": backends[0] if len(backends) == 1 else backends,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "hdeform_env": {k: os.environ[k] for k in HDEFORM_ENV
                        if k in os.environ},
    }
    info = {"passes": len(passes), "latency_samples": samples,
            "detected_failures": sum(p["detected_failures"] for p in passes)}
    if args.workload == "nf_queries":
        info.update(inputs["info"])
    if args.trace:
        info["bench_kernel_jobs_s"] = legacy_jobs(passes)
    else:  # the host speed and the timings before normalisation
        for key in ("slowness", "raw_wall_s", "raw_setup_s"):
            info[key] = statistics.median(p[key] for p in passes)
    problems = errors + [x for p in passes for x in p["problems"]]

    print(f"hdeform benchmark: {tag}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("info: " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    for p in problems[:20]:
        print(f"  problem: {p}")

    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "info": info, "problems": problems,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "passes": [{k: v for k, v in p.items()
                               if k != "latencies_s"} for p in passes]},
                  fh, indent=1, sort_keys=True)

    # The result line carries only the metrics BENCHMARK.json declares
    # for this mode; failed_share travels as attempted/failed.
    declared = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                if k != "failed_share"}
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": declared}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
