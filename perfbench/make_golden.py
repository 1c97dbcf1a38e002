#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the current hdeform sources.

    python3 perfbench/make_golden.py

golden.json holds the regression reference of the benchmark: a digest
of every batch job's output (timing fields removed) and the nf_queries
request universe with the digest of each request's normal form.  The
hand-written files in tests/fixtures/ stay the primary reference; the
fixture jobs are checked against both.

Run it only when an intended change alters outputs, and review the
difference: the benchmark counts every mismatch as a failed answer.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import worker  # noqa: E402
import workloads as W  # noqa: E402


class WorkCapExceeded(Exception):
    pass


def job_digests():
    out = {}
    for size in ("full", "tiny"):
        for job in W.TENSOR_JOBS[size]:
            out[job[0]] = worker.digest(worker.run_tensor_job(job)[1])
        for job in W.VERIFY_JOBS[size]:
            code, text = worker.run_cli_job(job)
            if code != job[2]:
                raise SystemExit(f"{job[0]}: exit code {code}, expected {job[2]}")
            out[job[0]] = worker.digest(worker.canonical_output(text))
    return out


def nf_universe():
    import hdeform.kernel as K
    algs = worker.build_algebras()
    work = [0]
    p_mul = K.p_mul

    def counted_mul(a, b):
        work[0] += len(a) * len(b)
        if work[0] > W.UNIVERSE_WORK_CAP:
            raise WorkCapExceeded
        return p_mul(a, b)

    rng = random.Random(W.UNIVERSE_SEED)
    universe, seen, left_out = [], set(), {}
    for name, alg in algs.items():
        gens = alg.generators()
        accepted = rejected = 0
        while accepted < W.UNIVERSE_PER_ALGEBRA:
            req = W.random_request(rng, name, gens)
            key = json.dumps(req, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            alg_, word, c = worker.request_element(algs, req)
            el = alg_.word_element(word, c)
            work[0] = 0
            K.p_mul = counted_mul
            try:
                ans = alg_.normal_form(el)
            except WorkCapExceeded:
                rejected += 1
                continue
            finally:
                K.p_mul = p_mul
            req["work"] = work[0]
            req["digest"] = worker.digest(str(ans))
            universe.append(req)
            accepted += 1
        left_out[name] = rejected
        print(f"{name}: kept {accepted}, left out {rejected} over the "
              f"work cap", file=sys.stderr)
    return universe, left_out


def write_golden(path, golden):
    """One universe request per line, so changes read well in a diff."""
    head = {k: v for k, v in golden.items() if k != "nf_universe"}
    lines = [json.dumps(r, sort_keys=True) for r in golden["nf_universe"]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, indent=1, sort_keys=True)[:-2])
        fh.write(',\n "nf_universe": [\n  ' + ",\n  ".join(lines) + "\n ]\n}\n")


def main():
    universe, left_out = nf_universe()
    write_golden(W.GOLDEN_PATH, {"jobs": job_digests(), "nf_universe": universe,
                                 "nf_universe_left_out": left_out})


if __name__ == "__main__":
    main()
