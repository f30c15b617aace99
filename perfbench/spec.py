"""Workload definitions: each workload's operations as a pure function of the seed.

Nothing here imports the package under test, so the parent process of the
benchmark stays light and the inputs can be checked without running them.
"""

from __future__ import annotations

LADDER_SCALES = "2^16 2^17 2^18 2^19 2^20 2^21 2^22 2^23 2^24"

# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = ("sweep", "ladder", "checks")

# gate checks run by the `checks` workload, in gate order
GATE_CHECKS = (1, 2, 3, 4, 5, 6, 10)


def _cli(name: str, argv: list[str]) -> dict:
    return {"kind": "cli", "name": name, "argv": argv}


def inputs(workload: str, seed: int) -> list[dict]:
    """Operations of one round of `workload`, in the order they run.

    Each operation is a JSON-ready dict: `kind` is "cli" (argv for the
    schrodmax command line) or "gate" (an acceptance-gate check number and
    its root seed).  The same (workload, seed) always gives the same list.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workload == "sweep":
        # no randomness: the seed does not reach the program
        return [_cli("maximal-sweep", [
            "maximal-sweep", "--d", "2", "--gamma", "0.5",
            "--ladder", "2^2 2^3 2^4 2^5", "--set", "space.per_axis=32"])]
    if workload == "ladder":
        return [_cli("counterexample", [
            "counterexample", "--d", "2", "--gamma", "2",
            "--s", "0.3333333333333333", "--ladder", LADDER_SCALES,
            "--samples", "10000", "--seed", str(seed)])]
    if workload == "checks":
        ops = [{"kind": "gate", "name": f"gate-{num:02d}", "check": num,
                "seed": seed} for num in GATE_CHECKS]
        ops.append(_cli("lemmas-verify", ["lemmas-verify", "--seed", str(seed)]))
        # the gate's root seed, not `seed`: the cost and peak memory of this
        # verb follow its hardest point, and over seeds 1-10 the peak moved
        # between 67 and 145 MB, more than the peak_rss_mb bound allows
        ops.append(propagator_check(2048, 0))
        return ops
    raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


def propagator_check(R: int, seed: int) -> dict:
    """The propagator-check verb at scale R with the gate's 20 points."""
    return _cli(f"propagator-check-R{R}", [
        "propagator-check", "--R", str(R), "--points", "20", "--seed", str(seed)])
