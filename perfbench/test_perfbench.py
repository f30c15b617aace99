"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run test runs every workload traced twice (about four
minutes); the known-failure test peaks near 2.8 GB of memory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    path = HERE / ".runs" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_inputs_are_a_pure_function_of_the_seed():
    for name in spec.WORKLOADS:
        for seed in (0, 1, 7):
            assert spec.inputs(name, seed) == spec.inputs(name, seed)
            json.dumps(spec.inputs(name, seed))
    # the sweep has no randomness; the other workloads pass the seed on
    assert spec.inputs("sweep", 0) == spec.inputs("sweep", 5)
    assert spec.inputs("ladder", 0) != spec.inputs("ladder", 1)
    assert spec.inputs("checks", 0) != spec.inputs("checks", 1)
    assert "--seed" not in spec.inputs("sweep", 3)[0]["argv"]
    with pytest.raises(ValueError):
        spec.inputs("nope", 0)


def test_metric_tables_match_benchmark_json():
    import run
    assert [w["name"] for w in BENCH["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        list(tracing.LAYER_METRICS)


def test_ref_seconds_rescales_by_the_probe_speed():
    import run
    ref = run.REF_LOOP_S
    steady = [(t, ref) for t in (0.0, 1.0, 2.0, 3.0)]
    assert run.ref_seconds(steady, 0.5, 2.5) == pytest.approx(2.0)
    # half speed from t=1.5 on, one stray sample smoothed away by the median
    slowing = [(0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, 9 * ref),
               (5.0, 2 * ref), (6.0, 2 * ref)]
    assert run.ref_seconds(slowing, 0.0, 6.0) == pytest.approx(1.5 + 4.5 / 2)
    # before the first and after the last sample the nearest one holds
    assert run.ref_seconds(steady, -1.0, 4.0) == pytest.approx(5.0)


def test_untraced_run_reports_end_to_end_metrics():
    out = _run("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


# layers each workload does not reach, by metric-name prefix
IDLE_LAYERS = {
    "sweep": ("propagator.", "counterexample.", "numbertheory."),
    "ladder": ("maximal.", "numbertheory."),
    "checks": ("maximal.", "propagator.factorized_batch."),
}


def test_traced_counts_repeat_and_every_layer_metric_appears():
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in spec.WORKLOADS:
        first, second = (_run("--workload", name, "--seed", "0", "--trace", "1")
                         for _ in range(2))
        for out in (first, second):
            assert out["correct"], name
            assert {k: v["unit"] for k, v in out["metrics"].items()} == units
        for metric, unit in units.items():
            if unit in ("count", "bytes", "ratio"):
                assert first["metrics"][metric] == second["metrics"][metric], (name, metric)
            if metric.startswith(IDLE_LAYERS[name]):
                assert first["metrics"][metric]["value"] == 0, (name, metric)


def test_failing_operation_is_counted_and_the_run_continues(scratch):
    import child
    import run
    ops = [spec.propagator_check(4096, 0), spec.propagator_check(2048, 0)]
    outcomes = child.run_ops(ops, scratch)
    assert not outcomes[0]["ok"] and "QuadratureError" in outcomes[0]["detail"]
    assert outcomes[1]["ok"]
    assert run.report_ops([{"ops": outcomes}]) == (2, 1)


def test_benchmark_alone_exits_nonzero(scratch):
    """A directory with only BENCHMARK.json and the benchmark's files."""
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
