"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 36 --trace 0

Run it from the root of a source checkout; the package is imported from
its `src/` directory.  Every round of a workload is a fresh process
(perfbench/child.py) running the workload's operations one at a time, a
closed loop with one client and workers=1, BLAS threads pinned to 1.
The round's process is pinned to one CPU, and a speed probe
(perfbench/probe.py) on the same CPU times two fixed loops every
PROBE_PERIOD_S; `wall_s` and `setup_s` are reported in seconds at the
reference speed, at which the probe's cost is REF_LOOP_S of CPU time (see
perfbench/NOTES.md).

--trace 0 repeats rounds while the next one is predicted to end within
--seconds (at least one round) and reports the end-to-end metrics as
medians over rounds.  --trace 1 runs one untraced and one traced round
and reports the per-layer metrics and the tracing overhead.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  Exit code 0 means the benchmark ran; failed operations are
counted in `failed`, not turned into an exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spec
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150.0
PROBE_PERIOD_S = 0.1
# the probe's cost (CPU seconds) at the reference speed: about its median on
# a 2-core Intel Xeon VM with a round's process running on the same CPU
REF_LOOP_S = 1.5e-3
# the CPU that rounds and their probes share: the last one this process may use
ROUND_CPU = max(os.sched_getaffinity(0))
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class RoundError(RuntimeError):
    """A round's process did not finish with a result."""


def _pin():
    os.sched_setaffinity(0, {ROUND_CPU})


def ref_seconds(samples: list[tuple[float, float]], a: float, b: float) -> float:
    """Seconds at the reference speed that elapsed between monotonic times a and b.

    Each probe sample stands for the moments nearer to it than to the
    samples beside it.  Its speed is REF_LOOP_S over the probe's cost,
    taken as the median over the sample and its two neighbours.
    """
    times = [t for t, _ in samples]
    loops = [statistics.median(x for _, x in samples[max(0, i - 1):i + 2])
             for i in range(len(samples))]
    edges = [-math.inf] + [(t0 + t1) / 2.0 for t0, t1 in zip(times, times[1:])] + [math.inf]
    total = 0.0
    for i, loop in enumerate(loops):
        lo, hi = max(a, edges[i]), min(b, edges[i + 1])
        if hi > lo:
            total += (hi - lo) * REF_LOOP_S / loop
    return total


def run_round(workload: str, seed: int, trace: int, setup_only: bool = False) -> dict:
    """Start one child process and its speed probe, wait for the child, stop the probe.

    The child's result gains `ref_setup_s`, `ref_wall_s` (setup_s and wall_s
    at the reference speed) and `speed`, the mean speed over the round
    relative to the reference.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=RUNS) as log:
        probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), repr(PROBE_PERIOD_S)],
                                 cwd=ROOT, env=env, stdout=log, preexec_fn=_pin)
        try:
            while probe.poll() is None and os.fstat(log.fileno()).st_size == 0:
                time.sleep(0.01)
            if probe.poll() is not None:
                raise RoundError(f"the speed probe exited with {probe.returncode}")
            spawned = time.monotonic()
            cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", str(trace), "--spawned", repr(spawned)]
            if setup_only:
                cmd.append("--setup-only")
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                      timeout=ROUND_TIMEOUT_S, preexec_fn=_pin)
            except subprocess.TimeoutExpired:
                raise RoundError(f"round exceeded {ROUND_TIMEOUT_S:g} s") from None
            finished = time.monotonic()
        finally:
            probe.terminate()
            probe.wait()
        log.seek(0)
        samples = [tuple(float(x) for x in line.split()) for line in log if line.endswith("\n")]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise RoundError(f"round exited {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["ref_setup_s"] = ref_seconds(samples, spawned, result["t_setup"])
    if not setup_only:
        result["ref_wall_s"] = ref_seconds(samples, result["t_start"], result["t_end"])
    result["speed"] = ref_seconds(samples, spawned, finished) / (finished - spawned)
    return result


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def print_environment(env: dict, seed: int) -> None:
    """Print the environment and whether it matches the one the references came from."""
    want = json.loads((HERE / "references.json").read_text())["environment"]
    env = dict(env, nproc=len(os.sched_getaffinity(0)), round_cpu=ROUND_CPU)
    differs = [k for k, v in want.items()
               if not str(env.get(k)).startswith(str(v))]
    record = dict(env, commit=git_commit(), seed=seed)
    print("environment " + json.dumps(record, sort_keys=True))
    if differs:
        print("environment differs from the reference machine in "
              f"{', '.join(differs)}: figures are not comparable")


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return (f"{name}: median {med:.4f} {unit} over {len(values)} samples "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def report_ops(rounds: list[dict]) -> tuple[int, int]:
    """Print failures and verdict findings; return (attempted, failed)."""
    attempted = failed = 0
    for r in rounds:
        for op in r["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                print(f"FAILED {op['name']}: {op['detail']}")
            elif op["failed_verdicts"]:
                print(f"finding {op['name']}: verdict FAIL on "
                      f"{', '.join(op['failed_verdicts'])} (see perfbench/NOTES.md)")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f} ratio")
    return attempted, failed


def timed_rounds(workload: str, seed: int, seconds: float) -> dict:
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(workload, seed, 0))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["setup_s"] + r["wall_s"] for r in rounds)
        if elapsed + typical > seconds:
            break
    setups = list(rounds)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_round(workload, seed, 0, setup_only=True))
    print(f"workload {workload} seed {seed}: {len(rounds)} round(s), "
          f"{time.monotonic() - start:.1f} s; closed loop, one client, workers=1")
    print_environment(rounds[0]["env"], seed)
    print(describe("raw wall_s", [r["wall_s"] for r in rounds], "s"))
    print(describe("raw setup_s", [r["setup_s"] for r in setups], "s"))
    print(describe("speed", [r["speed"] for r in rounds + setups], "of reference"))
    samples = {"wall_s": [r["ref_wall_s"] for r in rounds],
               "setup_s": [r["ref_setup_s"] for r in setups],
               "peak_rss_mb": [r["peak_rss_mb"] for r in rounds]}
    metrics = {}
    for name, unit in END_TO_END:
        print(describe(name, samples[name], unit))
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    attempted, failed = report_ops(rounds)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_rounds(workload: str, seed: int) -> dict:
    plain = run_round(workload, seed, 0)
    traced = run_round(workload, seed, 1)
    print(f"workload {workload} seed {seed}: one untraced and one traced round")
    print_environment(traced["env"], seed)
    if traced["trace_missing"]:
        print(f"trace: wrap targets missing from the package: "
              f"{', '.join(traced['trace_missing'])}")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["ref_wall_s"] - plain["ref_wall_s"]
    print(f"trace: untraced wall_s {plain['ref_wall_s']:.4f} s, traced wall_s "
          f"{traced['ref_wall_s']:.4f} s, overhead {layers['trace.overhead_s']:.4f} s "
          f"(at the reference speed; raw {plain['wall_s']:.4f} and {traced['wall_s']:.4f} s)")
    metrics = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        print(f"{name}: {layers[name]:.6g} {unit}")
        metrics[name] = {"value": layers[name], "unit": unit}
    attempted, failed = report_ops([plain, traced])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "schrodmax" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'schrodmax'}: run from a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced_rounds(args.workload, args.seed)
        else:
            result = timed_rounds(args.workload, args.seed, args.seconds)
    except RoundError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
