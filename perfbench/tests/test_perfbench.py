"""Tests of the benchmark itself (not of hdeform).

    python3 -m pytest perfbench/tests -q

Run from the repository root.  They use the --tiny inputs, so the whole
module takes well under a minute.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_prints_every_end_to_end_metric(workload):
    lines, result = run_bench(workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1]), name


def test_tiny_trace_prints_every_per_layer_metric():
    _, result = run_bench("verify_all", 3, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_traced_counts_repeat_for_a_seed():
    counted = ("algebra.rewrite_steps", "kernel.calls",
               "kernel.divexact_calls", "kernel.divexact_hit_ratio",
               "dra.extract_calls", "coeffs.ops")
    for workload in ("verify_all", "nf_queries"):
        _, first = run_bench(workload, 5, 1)
        _, second = run_bench(workload, 5, 1)
        for name in counted:
            assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"]["algebra.rewrite_steps"]["value"] > 0


def batch_spec(jobs):
    return {"workload": "verify_all", "pass_index": 0,
            "inputs": {"jobs": jobs, "rank3_rules": False}}


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # the fixture jobs read tests/fixtures/


def test_wrong_expected_verdict_is_counted_not_raised(in_root):
    jobs = [list(j) for j in workloads.VERIFY_JOBS["tiny"]]
    all_copies = next(j for j in jobs if j[0] == "weyl_n2_N2_all_copies")
    all_copies[2] = 0  # the known-false convention claimed to pass
    out = worker.batch_pass(batch_spec(jobs), None, lambda: None)
    assert out["attempted"] == len(jobs)
    assert out["failed"] == 1
    assert any("exit code 1, expected 0" in p for p in out["problems"])


def test_job_that_raises_is_counted_failed(in_root):
    jobs = [["rmatrix_n2", ["verify", "rmatrix", "--n", "2", "--jobs", "1"],
             0, None],
            ["bad_usage", ["verify", "nonsense"], 0, None]]
    out = worker.batch_pass(batch_spec(jobs), None, lambda: None)
    assert (out["attempted"], out["failed"]) == (2, 1)


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_inputs("nf_queries", 7, "full")
    b = workloads.make_inputs("nf_queries", 7, "full")
    c = workloads.make_inputs("nf_queries", 8, "full")
    assert a == b and a["stream"] != c["stream"]
    assert len(a["stream"]) >= 1000 / 3  # >= 1000 requests in 3 passes


def test_compare_refuses_mixed_backends():
    stamp = {"kernel_backend": "python", "workload": "nf_queries",
             "trace": 0, "size": "full"}
    metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
    base = {"stamp": stamp, "metrics": metrics}
    new = {"stamp": dict(stamp, kernel_backend="cython"), "metrics": metrics}
    assert compare.compare(base, base) == [("wall_s", "s", 1.0, 1.0)]
    with pytest.raises(ValueError, match="kernel_backend"):
        compare.compare(base, new)


def test_speed_probe_takes_out_probe_time_and_host_speed():
    import speed
    probe = speed.SpeedProbe()
    ref = speed.REF_SAMPLE_S
    # samples at t = 0, 1, 2, 3: the host is twice as slow from t = 2 on
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [ref, ref, 2 * ref, 2 * ref]
    probe.stop()
    assert probe.spent(0.5, 2.5) == pytest.approx(3 * ref)
    # the samples inside the interval and one on either side count
    assert probe.slowness(0.2, 0.8) == pytest.approx(1.0)
    assert probe.slowness(0.5, 1.5) == pytest.approx(4 / 3)
    assert probe.slowness(2.2, 2.8) == pytest.approx(2.0)
    # 1 s with one sample inside, at twice the reference time
    assert probe.reference_s(1.5, 2.5) == pytest.approx(
        (1.0 - 2 * ref) / (5 / 3))


def test_speed_probe_samples_while_the_pass_runs():
    import time
    import speed
    probe = speed.SpeedProbe(interval=0.01)
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        sum(range(1000))
    t1 = time.perf_counter()
    probe.stop()
    assert len(probe.durations) >= 5
    assert 0 < probe.spent(t0, t1) < t1 - t0
    assert probe.reference_s(t0, t1) > 0
