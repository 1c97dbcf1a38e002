"""Workload definitions and seeded input generation.

The parent process (run.py) builds every input before any timing starts and hands it to a fresh worker process (worker.py) as
JSON.  Nothing here imports hdeform, so input generation costs nothing
the benchmark measures.

Three workloads:

* ``tensor_identities`` -- the exchange-operator suites, pure coefficient
  work (kernel and coeffs layers; algebra, weyl and dra stay idle).
* ``verify_all`` -- the README batch path through ``hdeform.cli.main``
  from the cold state of a fresh process, plus the frozen-fixture jobs.
* ``nf_queries`` -- a closed-loop stream of small ``normal_form``
  requests against warm algebras, drawn from a fixed universe with
  seeded, skewed popularity.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
FIXTURE_DIR = os.path.join("tests", "fixtures")

WORKLOADS = ("tensor_identities", "verify_all", "nf_queries")

# -- tensor_identities -----------------------------------------------------

# (job name, module, function, kwargs); every identity holds, so each job
# must return an empty failure list.
TENSOR_JOBS = {
    "full": [
        ("rmatrix_suite_n2", "rmatrix", "run_suite", {"n": 2, "suite": "all"}),
        ("rmatrix_suite_n3", "rmatrix", "run_suite", {"n": 3, "suite": "all"}),
        ("rmatrix_suite_n4", "rmatrix", "run_suite", {"n": 4, "suite": "all"}),
        ("rmatrix_dybe_n5", "rmatrix", "check_dybe", {"n": 5}),
    ],
    "tiny": [
        ("rmatrix_suite_n2", "rmatrix", "run_suite", {"n": 2, "suite": "all"}),
        ("rmatrix_dybe_n3", "rmatrix", "check_dybe", {"n": 3}),
    ],
}

# -- verify_all ------------------------------------------------------------

# (job name, argv, expected exit code, fixture file or None).  Every job
# is also checked against the golden digest of its output; the fixture
# jobs additionally match the hand-written files in tests/fixtures/.
_FIXTURE_JOBS = [
    ("relations_n2_json", ["relations", "--n", "2", "--format", "json"],
     0, "relations_n2.json"),
    ("relations_n2_text", ["relations", "--n", "2", "--format", "text"],
     0, "relations_n2.txt"),
    ("central_n2_p1", ["central", "--n", "2", "--power", "1",
                       "--format", "text"], 0, "central_n2_p1.txt"),
    ("central_n2_p2", ["central", "--n", "2", "--power", "2",
                       "--format", "text"], 0, "central_n2_p2.txt"),
    ("normal_form_dx", ["normal-form", "--n", "2", "--N", "1", "--expr",
                        "D[1,1]*x[1,1]", "--format", "text"],
     0, "normal_form_dx.txt"),
]

# The all_copies convention is known to be false: the job must exit 1.
_ALL_COPIES_JOB = (
    "weyl_n2_N2_all_copies",
    ["verify", "weyl", "--n", "2", "--N", "2", "--suite", "reflection",
     "--cross-copy-constant", "all_copies", "--jobs", "1"], 1, None)

VERIFY_JOBS = {
    "full": [
        ("verify_all_n2_N2", ["verify", "all", "--n", "2", "--N", "2",
                              "--jobs", "1"], 0, None),
        ("weyl_n3_reflection", ["verify", "weyl", "--n", "3", "--suite",
                                "reflection", "--jobs", "1"], 0, None),
        ("weyl_n3_confluence", ["verify", "weyl", "--n", "3", "--suite",
                                "confluence", "--jobs", "1"], 0, None),
        ("dra_n3_reflection", ["verify", "dra", "--n", "3", "--suite",
                               "reflection", "--jobs", "1"], 0, None),
        ("central_n2_p3_check", ["central", "--n", "2", "--power", "3",
                                 "--check"], 0, None),
        _ALL_COPIES_JOB,
    ] + _FIXTURE_JOBS,
    "tiny": [
        ("rmatrix_n2", ["verify", "rmatrix", "--n", "2", "--jobs", "1"],
         0, None),
        _ALL_COPIES_JOB,
        _FIXTURE_JOBS[2],
    ],
}

# After a full verify_all pass the rank-3 rule system must hold this many
# rules (extracted by the dra_n3_reflection job).
RANK3_RULES = 36

# -- nf_queries --------------------------------------------------------------

# name -> (constructor, rank, constructor kwargs)
ALGEBRAS = {
    "weyl_2_2_bosonic": ("WeylAlgebra", 2, {"copies": 2}),
    "weyl_2_2_fermionic": ("WeylAlgebra", 2, {"copies": 2, "fermionic": True}),
    "weyl_3_1": ("WeylAlgebra", 3, {"copies": 1}),
    "reduction_2": ("ReductionAlgebra", 2, {}),
    "reduction_3": ("ReductionAlgebra", 3, {}),
}

SPECIALS = ("phi", "qplus", "qminus", "alpha", "beta", "mu")

# Universe: UNIVERSE_PER_ALGEBRA requests per algebra, drawn once from
# UNIVERSE_SEED by make_golden.py and stored in golden.json with their
# answer digests.  Requests whose normal form needs more than
# UNIVERSE_WORK_CAP kernel term products (sum of len(a)*len(b) over
# p_mul) are left out: the workload is small requests, and a single
# rank-3 reduction-algebra word can otherwise run for many seconds.
UNIVERSE_SEED = 20151019
UNIVERSE_PER_ALGEBRA = 96
UNIVERSE_WORK_CAP = 8000

# Per-seed stream: each algebra's universe, sorted by work, is cut into
# bins of BIN_SIZE neighbours of alike cost.  In every bin the seed ranks
# the members, and they are requested BIN_COUNTS times by rank (one is
# asked twice, the other once).  Every bin gets the same traffic, so the
# cost profile of a pass is alike across seeds while the seed picks
# which requests repeat and the order of the stream.  Bins of two keep
# the slowest percent of the stream, and so latency_p99_ms, nearly the
# same work for every seed.
BIN_SIZE = 2
BIN_COUNTS = (2, 1)
TINY_BINS = 1  # --tiny: the cheapest bin of each algebra only
CROSS_CHECKS = {"full": 4, "tiny": 2}


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def random_request(rng, alg_name, generators):
    """One candidate request: a 3-4 generator word with a shifted special
    coefficient on its left.  Returned as plain JSON data."""
    _, n, _ = ALGEBRAS[alg_name]
    word = [list(rng.choice(generators)) for _ in range(rng.choice((3, 4)))]
    name = rng.choice(SPECIALS)
    if name in ("phi", "qplus", "qminus", "mu"):
        idx = [rng.randint(1, n)]
    elif name == "alpha":
        idx = rng.sample(range(1, n + 1), 2)
    else:
        idx = [rng.randint(1, n), rng.randint(1, n)]
    shift = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
    return {"alg": alg_name, "word": word, "coeff": [name, idx, shift]}


def nf_inputs(seed, size, universe):
    """Pool, popularity and request stream for one seed."""
    rng = random.Random(seed)
    by_alg = {}
    for uid, req in enumerate(universe):
        by_alg.setdefault(req["alg"], []).append(uid)
    pool, stream = [], []
    for alg_name in ALGEBRAS:
        uids = sorted(by_alg[alg_name], key=lambda u: (universe[u]["work"], u))
        bins = [uids[b:b + BIN_SIZE] for b in range(0, len(uids), BIN_SIZE)]
        for members in bins[:TINY_BINS] if size == "tiny" else bins:
            rng.shuffle(members)
            for uid, count in zip(members, BIN_COUNTS):
                if count:
                    stream.extend([len(pool)] * count)
                    pool.append(uid)
    rng.shuffle(stream)
    return {
        "pool": pool,
        "stream": stream,
        "cross_check": rng.sample(range(len(pool)), CROSS_CHECKS[size]),
        "info": {
            "universe_size": len(universe),
            "pool_size": len(pool),
            "requests_per_pass": len(stream),
            "bin_size": BIN_SIZE,
            "bin_counts": list(BIN_COUNTS),
            "repeat_share": 1 - len(pool) / len(stream),
        },
    }


def make_inputs(workload, seed, size):
    """Everything a worker needs for one pass; each pass of a run repeats
    the same inputs in a fresh process.

    The seed fixes the pool, popularity and stream of nf_queries.  The
    batch workloads are fixed job lists run in a fixed order: their jobs
    share rule caches and interpreter state, so a seeded order would
    change the work done and add spread without adding coverage.
    """
    if workload == "tensor_identities":
        return {"jobs": [list(j) for j in TENSOR_JOBS[size]]}
    if workload == "verify_all":
        return {"jobs": [list(j) for j in VERIFY_JOBS[size]],
                "rank3_rules": size == "full"}
    if workload == "nf_queries":
        return nf_inputs(seed, size, load_golden()["nf_universe"])
    raise ValueError(f"unknown workload {workload!r}")
