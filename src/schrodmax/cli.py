"""Experiment runner: verbs, line-oriented configs, CSV and JSON reports.

Four verbs bind the library into reproducible batch runs:

    maximal-sweep     fit the maximal-ratio growth exponent over an R ladder
    counterexample    sampled lower-bound experiment with fitted slopes
    lemmas-verify     randomized checks of the arithmetic building blocks
    propagator-check  factorized versus direct field evaluation

Every run writes <out>/records.csv and <out>/report.json atomically, even
one that stops part way (status 3).  The JSON report is a pure function of
(config, seed): wall-clock timings go to stderr only, and worker counts
never change the merged results.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .counterexample import ExperimentError, lower_bound_experiment
from .maximal import (
    SpaceGrid,
    SweepError,
    TimeGrid,
    exponent_sweep,
)
from .numbertheory import (
    CubeFamily,
    GaussSumParams,
    abel_sum_identity,
    dirichlet_simultaneous,
    gauss_modulus_law,
    vitali_scaled_union,
    weyl_calibration,
)
from .profiles import (
    Case1Product,
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    TWO_PI,
    l1_fourier_mass,
)
from .propagator import SpaceTimePoint, evaluate_p_gamma, factorized_evaluate
from .quadrature import _ROUNDING

VERBS = ("maximal-sweep", "counterexample", "lemmas-verify", "propagator-check")


class ConfigError(ValueError):
    """Invalid or unknown configuration; maps to process status 2."""


class RunFailed(RuntimeError):
    """A verb stopped part way; carries the rows and summary it had reached."""

    def __init__(self, cause: Exception, records, summary, fieldnames):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.records = records
        self.summary = summary
        self.fieldnames = fieldnames


# ---------------------------------------------------------------------------
# config text and value parsing


def parse_config_text(text: str) -> dict[str, str]:
    """Parse line-oriented `key = value` text with # comments.

    Keys use dotted section names; duplicates are rejected so a typo
    cannot silently shadow an earlier line.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_ladder(text: str) -> tuple[float, ...]:
    vals = []
    for tok in text.replace(",", " ").split():
        try:
            if "^" in tok:
                base, exp = tok.split("^", 1)
                vals.append(float(base) ** float(exp))
            else:
                vals.append(float(tok))
        except ValueError:
            raise ConfigError(f"ladder: cannot parse entry {tok!r}") from None
    return tuple(vals)


def _as_int(text: str) -> int:
    return int(text, 0)


# key -> (parser, constraint description, constraint predicate)
_KEY_SPECS: dict[str, tuple] = {
    "verb": (str, f"one of {', '.join(VERBS)}", lambda v: v in VERBS),
    "model.d": (_as_int, "an integer >= 1", lambda v: v >= 1),
    "model.gamma": (float, "a positive real", lambda v: v > 0.0),
    "model.R": (float, "a real >= 2", lambda v: v >= 2.0),
    "ladder": (_parse_ladder, "at least 4 increasing scales",
               lambda v: len(v) >= 4 and all(b > a for a, b in zip(v, v[1:]))),
    "s": (float, "a nonnegative real", lambda v: v >= 0.0),
    "samples": (_as_int, "an integer >= 2", lambda v: v >= 2),
    "seed": (_as_int, "a nonnegative integer", lambda v: v >= 0),
    "workers": (_as_int, "an integer >= 1", lambda v: v >= 1),
    "points": (_as_int, "an integer >= 1", lambda v: v >= 1),
    "out": (str, "a directory path", lambda v: bool(v)),
    "time.geometric": (_as_int, "an integer >= 2", lambda v: v >= 2),
    "time.cap": (_as_int, "an integer >= 2", lambda v: v >= 2),
    "time.t_max": (float, "a real in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "space.radius": (float, "a positive real", lambda v: v > 0.0),
    "space.per_axis": (_as_int, "an integer >= 2", lambda v: v >= 2),
    "ce.c0": (float, "a positive real", lambda v: v > 0.0),
    "ce.c1": (float, "a positive real", lambda v: v > 0.0),
    "ce.c2": (float, "a positive real", lambda v: v > 0.0),
    "ce.c3": (float, "a positive real", lambda v: v > 0.0),
    "ce.c4": (float, "a positive real", lambda v: v > 0.0),
    "ce.mu0": (float, "a positive real", lambda v: v > 0.0),
    "ce.delta0": (float, "a positive real", lambda v: v > 0.0),
    "ce.eps0": (float, "a positive real", lambda v: v > 0.0),
}

_DEFAULTS = {
    "model.d": "2",
    "model.gamma": "2.0",
    "s": "0.0",
    "samples": "2000",
    "seed": "0",
    "workers": "1",
    "points": "20",
    "time.geometric": "64",
    "time.cap": "16384",
    "time.t_max": "1.0",
    "space.radius": "1.0",
    "space.per_axis": "64",
}

_CE_CONSTANT_KEYS = ("ce.c0", "ce.c1", "ce.c2", "ce.c3", "ce.c4",
                     "ce.mu0", "ce.delta0", "ce.eps0")


def _parse_value(key: str, raw: str):
    if key not in _KEY_SPECS:
        raise ConfigError(f"unknown key {key!r}")
    parser, want, ok = _KEY_SPECS[key]
    try:
        value = parser(raw)
    except ConfigError:
        raise
    except (ValueError, TypeError):
        raise ConfigError(f"{key}: must be {want}, got {raw!r}") from None
    if not ok(value):
        raise ConfigError(f"{key}: must be {want}, got {raw!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated run request: verb, model, scales, grids, outputs."""

    verb: str
    model_d: int
    model_gamma: float
    model_R: float | None
    ladder: tuple[float, ...] | None
    s: float
    samples: int
    seed: int
    workers: int
    points: int
    out_dir: str
    time_geometric: int
    time_cap: int
    time_t_max: float
    space_radius: float
    space_per_axis: int
    ce_overrides: tuple[tuple[str, float], ...]

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "ExperimentConfig":
        for key in raw:
            if key not in _KEY_SPECS:
                raise ConfigError(f"unknown key {key!r}")
        if "verb" not in raw:
            raise ConfigError("verb: required, one of " + ", ".join(VERBS))
        merged = dict(_DEFAULTS)
        merged.update(raw)
        values = {k: _parse_value(k, v) for k, v in merged.items()}
        verb = values["verb"]
        if verb in ("maximal-sweep", "counterexample") and "ladder" not in values:
            raise ConfigError(f"ladder: required for verb {verb}")
        if verb == "propagator-check" and "model.R" not in values:
            raise ConfigError("model.R: required for verb propagator-check")
        overrides = tuple((k.split(".", 1)[1], values[k])
                          for k in _CE_CONSTANT_KEYS if k in values)
        return cls(
            verb=verb,
            model_d=values["model.d"],
            model_gamma=values["model.gamma"],
            model_R=values.get("model.R"),
            ladder=values.get("ladder"),
            s=values["s"],
            samples=values["samples"],
            seed=values["seed"],
            workers=values["workers"],
            points=values["points"],
            out_dir=values.get("out", os.path.join("runs", verb)),
            time_geometric=values["time.geometric"],
            time_cap=values["time.cap"],
            time_t_max=values["time.t_max"],
            space_radius=values["space.radius"],
            space_per_axis=values["space.per_axis"],
            ce_overrides=overrides,
        )

    def echo(self) -> dict[str, str]:
        """Canonical flat key -> value rendering of every effective setting."""
        out = {
            "verb": self.verb,
            "model.d": str(self.model_d),
            "model.gamma": _fmt(self.model_gamma),
            "s": _fmt(self.s),
            "samples": str(self.samples),
            "seed": str(self.seed),
            "workers": str(self.workers),
            "points": str(self.points),
            "out": self.out_dir,
            "time.geometric": str(self.time_geometric),
            "time.cap": str(self.time_cap),
            "time.t_max": _fmt(self.time_t_max),
            "space.radius": _fmt(self.space_radius),
            "space.per_axis": str(self.space_per_axis),
        }
        if self.model_R is not None:
            out["model.R"] = _fmt(self.model_R)
        if self.ladder is not None:
            out["ladder"] = " ".join(_fmt(v) for v in self.ladder)
        for name, val in self.ce_overrides:
            out[f"ce.{name}"] = _fmt(val)
        return out


# ---------------------------------------------------------------------------
# CSV emission and parsing


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def emit_csv(records, fieldnames=None) -> str:
    """Render records as CSV text: header plus one row each, %.12g floats.

    Emitted text is newline-terminated and stable under a parse/emit
    round trip (12 significant digits re-read to the same float).
    """
    records = list(records)
    if fieldnames is None:
        if not records:
            raise ValueError("fieldnames required for an empty record set")
        fieldnames = list(records[0].keys())
    lines = [",".join(fieldnames)]
    for rec in records:
        if set(rec.keys()) != set(fieldnames):
            raise ValueError("records must share one field set")
        cells = []
        for name in fieldnames:
            cell = _fmt(rec[name])
            if "," in cell or "\n" in cell:
                raise ValueError(f"field {name} renders with a separator")
            cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[dict]:
    """Invert emit_csv: numbers come back as int or float, rest as str."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty CSV text")
    fieldnames = lines[0].split(",")

    def convert(cell: str):
        try:
            return int(cell)
        except ValueError:
            pass
        try:
            return float(cell)
        except ValueError:
            return cell

    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(fieldnames):
            raise ValueError(f"row width {len(cells)} != header {len(fieldnames)}")
        out.append({k: convert(c) for k, c in zip(fieldnames, cells)})
    return out


def _write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a stub."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# run report


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced; JSON form excludes wall-clock timings."""

    verb: str
    config_echo: dict
    records: tuple[dict, ...]
    summary: dict
    verdicts: dict
    wall_clock: dict
    failure: str | None = None  # why the run stopped part way

    @property
    def passed(self) -> bool:
        return self.failure is None and all(self.verdicts.values())

    def to_json(self) -> str:
        payload = {
            "verb": self.verb,
            "config": self.config_echo,
            "records": list(self.records),
            "summary": self.summary,
            "verdicts": self.verdicts,
            "passed": self.passed,
        }
        if self.failure is not None:
            payload["failure"] = self.failure
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# verb runners


def _default_grids(R: float, cfg: ExperimentConfig):
    tg = TimeGrid.hybrid(R, t_max=cfg.time_t_max, geometric=cfg.time_geometric,
                         cap=cfg.time_cap)
    sg = SpaceGrid(radius=cfg.space_radius, per_axis=cfg.space_per_axis)
    return tg, sg


def _case1_family(d: int, gamma: float, R: float):
    return Case1Product(model=ModelParams(d=d, gamma=gamma, R=R))


def _case3_family(d: int, gamma_c: float, overrides: tuple, R: float):
    """Construction constants at scale R; a scale outside their range is a config error."""
    model = ModelParams(d=d, gamma=gamma_c, R=R)
    try:
        return CounterexampleParams.for_experiments(model, **dict(overrides))
    except ValueError as exc:
        raise ConfigError(f"no valid construction at R={_fmt(R)}: {exc}") from None


_SWEEP_FIELDS = ("R", "ratio", "grid")
_CE_FIELDS = ("R", "mean_modulus", "measure_estimate", "ratio_estimate", "E1", "E2")


def _run_maximal_sweep(cfg: ExperimentConfig, map_fn):
    gamma = cfg.model_gamma
    if gamma > 1.0:
        # the gamma > 1 growth lives on a sampled region near 1e-8 of the
        # box, which a ball grid cannot resolve at any scale
        raise ConfigError("model.gamma: maximal-sweep needs gamma <= 1; "
                          "measure gamma > 1 growth with the counterexample verb")
    family = functools.partial(_case1_family, cfg.model_d, gamma)
    grids = functools.partial(_default_grids, cfg=cfg)
    try:
        report = exponent_sweep(family, gamma, cfg.ladder, grids, map_fn=map_fn)
        failure = None
    except SweepError as exc:
        report, failure = exc.partial, exc
    except ValueError as exc:
        # raised before any entry runs (an entry's failure is a SweepError):
        # a scale below 1 or a ladder that is not geometric
        raise ConfigError(f"ladder: maximal-sweep cannot run this ladder: {exc}") from None
    records = [dict(zip(_SWEEP_FIELDS, entry)) for entry in report.entries]
    summary = {
        "fitted_slope": report.fitted_slope,
        "slope_stderr": report.slope_stderr,
        "target_exponent": report.target,
        # the field concentrates on a ball of radius ~1/R; ratios drop once
        # the grid is coarser than that (1.007 at R = 2 per_axis)
        "underresolved": sorted(R for R in cfg.ladder if cfg.space_per_axis < R),
    }
    if failure is not None:
        raise RunFailed(failure, records, summary, _SWEEP_FIELDS) from failure
    verdicts = {"slope": bool(report.verdict)}
    return records, summary, verdicts


def _run_counterexample(cfg: ExperimentConfig, map_fn):
    gamma = cfg.model_gamma
    gamma_c = min(gamma, 2.0)
    if not gamma_c > 1.0:
        raise ConfigError("model.gamma: counterexample needs gamma > 1")
    build = functools.partial(_case3_family, cfg.model_d, gamma_c, cfg.ce_overrides)
    ladder_params = [build(R) for R in cfg.ladder]
    try:
        report = lower_bound_experiment(
            ladder_params, cfg.samples, cfg.seed, s=cfg.s,
            gamma_eval=gamma if gamma > 2.0 else None, map_fn=map_fn)
    except ExperimentError as exc:
        raise RunFailed(exc, [], {"aborted": [[R, why] for R, why in exc.aborted]},
                        _CE_FIELDS) from exc
    records = [dict(zip(_CE_FIELDS, (r.R, r.mean_modulus, r.measure_estimate,
                                     r.ratio_estimate, r.e1_max, r.e2_max)))
               for r in report.records]
    summary = {
        "point_slope": report.point_slope,
        "point_stderr": report.point_stderr,
        "point_target": report.point_target,
        "ratio_slope": report.ratio_slope,
        "ratio_stderr": report.ratio_stderr,
        "ratio_target": report.ratio_target,
        "measure_slope": report.measure_slope,
        "sobolev_slope": report.sobolev_slope,
        "c_gauss": report.c_gauss,
        "c_delta0": report.c_delta0,
        "s": report.s,
        "gamma_eval": report.gamma_eval,
        "aborted": [[R, why] for R, why in report.aborted],
    }
    verdicts = {
        "ratio-slope": bool(report.ratio_slope >= report.ratio_target - 0.1),
        "point-slope": bool(abs(report.point_slope - report.point_target) <= 0.1),
    }
    return records, summary, verdicts


def _run_lemmas_verify(cfg: ExperimentConfig, map_fn):
    rng = default_rng(cfg.seed)
    records = []

    checked = 0
    worst = 0.0
    for q in range(4, 65, 4):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for b in range(2, q // 2 + 1, 2):
                p = GaussSumParams(q=q, a=a, b=b)
                if not gauss_modulus_law(p):
                    worst = math.inf
                checked += 1
    records.append({"suite": "gauss", "cases": checked, "worst": worst})
    gauss_ok = math.isfinite(worst)

    caps = (256, 1024)
    rho = weyl_calibration(n_caps=caps, q_max=32)
    records.append({"suite": "weyl", "cases": 2, "worst": rho[caps[1]] / rho[caps[0]]})
    weyl_ok = rho[caps[1]] < 2.0 * rho[caps[0]]

    worst = 0.0
    n_abel = 200
    for _ in range(n_abel):
        N = int(rng.integers(1, 40))
        M = int(rng.integers(-10, 10))
        coeff = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
        omega = float(rng.uniform(-0.3, 0.3))
        lhs, rhs = abel_sum_identity(
            coeff, lambda n: complex(np.exp(1j * omega * n * n)), M, N)
        scale = max(abs(lhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    records.append({"suite": "abel", "cases": n_abel, "worst": worst})
    abel_ok = worst <= 1e-12

    n_vitali = 200
    failures = 0
    for _ in range(n_vitali):
        dim = int(rng.integers(1, 4))
        n_cubes = int(rng.integers(1, 7))
        cubes = tuple(
            (tuple(float(c) for c in rng.uniform(-2, 2, dim)),
             float(rng.uniform(0.1, 2.0)))
            for _ in range(n_cubes))
        fam = CubeFamily(cubes=cubes, scale=float(rng.uniform(0.05, 0.95)))
        try:
            vitali_scaled_union(fam)
        except AssertionError:
            failures += 1
    records.append({"suite": "vitali", "cases": n_vitali, "worst": float(failures)})
    vitali_ok = failures == 0

    n_dir = 100
    worst = 0.0
    for _ in range(n_dir):
        k = int(rng.integers(1, 4))
        target = rng.uniform(0.0, TWO_PI, k)
        Q = float(rng.integers(8, 64))
        q, a = dirichlet_simultaneous(target, Q)
        err = max(abs(target[j] - TWO_PI * a[j] / q) for j in range(k))
        worst = max(worst, err * q * Q ** (1.0 / k) / TWO_PI)
    records.append({"suite": "dirichlet", "cases": n_dir, "worst": worst})
    dir_ok = worst <= 1.0 + 1e-12

    verdicts = {
        "gauss": gauss_ok,
        "weyl": weyl_ok,
        "abel": abel_ok,
        "vitali": vitali_ok,
        "dirichlet": dir_ok,
    }
    summary = {"seed": cfg.seed}
    return records, summary, verdicts


def _run_propagator_check(cfg: ExperimentConfig, map_fn):
    gamma = min(cfg.model_gamma, 2.0)
    if not gamma > 1.0:
        raise ConfigError("model.gamma: propagator-check needs gamma > 1")
    cp = _case3_family(cfg.model_d, gamma, cfg.ce_overrides, cfg.model_R)
    f = Case3Counterexample(params=cp)
    m = cp.model
    rng = default_rng(cfg.seed)
    x1_lo = cp.x1_lo
    records = []
    worst = 0.0
    scale = TWO_PI ** cfg.model_d
    # values below the quadrature's rounding floor, in the same scaled
    # units, are rounding noise in both evaluators and agree only to it
    floor = _ROUNDING * l1_fourier_mass(f)
    passed, below = True, 0
    for _ in range(cfg.points):
        x = (float(rng.uniform(x1_lo, x1_lo / 2.0)),
             *(float(rng.uniform(-cp.c1, cp.c1))
               for _ in range(cfg.model_d - 1)))
        t = float(rng.uniform(0.0, 2.0 / m.R))
        pt = SpaceTimePoint(x=x, t=t)
        fac = factorized_evaluate(
            cp, pt,
            gamma_eval=cfg.model_gamma if cfg.model_gamma > 2.0 else None)
        direct = abs(evaluate_p_gamma(f, cfg.model_gamma, pt, rtol=1e-8))
        gap = abs(fac.product_modulus - scale * direct)
        rel = gap / (scale * direct)
        worst = max(worst, rel)
        passed = passed and gap <= 1e-4 * scale * direct + floor
        below += scale * direct < floor
        records.append({
            "t": t,
            "factorized": fac.product_modulus,
            "direct_scaled": scale * direct,
            "rel_error": rel,
            **{f"x{i + 1}": v for i, v in enumerate(x)},
        })
    summary = {"worst_rel_error": worst, "points": len(records),
               "R": cfg.model_R, "rounding_floor": floor,
               "points_below_floor": below}
    verdicts = {"factorized-vs-direct": bool(passed)}
    return records, summary, verdicts


_RUNNERS = {
    "maximal-sweep": _run_maximal_sweep,
    "counterexample": _run_counterexample,
    "lemmas-verify": _run_lemmas_verify,
    "propagator-check": _run_propagator_check,
}


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch a validated config, write records.csv and report.json.

    Output files land atomically; the JSON body depends only on
    (config, seed), never on timing or worker count.  A run that stops
    part way still writes both, with no verdicts, the reason under
    "failure" and the rows and summary it had reached.
    """
    runner = _RUNNERS[config.verb]
    started = time.monotonic()
    failure, fieldnames = None, None
    try:
        if config.workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                records, summary, verdicts = runner(config, pool.map)
        else:
            records, summary, verdicts = runner(config, map)
    except RunFailed as exc:
        records, summary, verdicts = exc.records, exc.summary, {}
        failure, fieldnames = str(exc), exc.fieldnames
    elapsed = time.monotonic() - started
    report = RunReport(
        verb=config.verb,
        config_echo=config.echo(),
        records=tuple(_json_safe(r) for r in records),
        summary=_json_safe(summary),
        verdicts={k: bool(v) for k, v in verdicts.items()},
        wall_clock={"total_s": elapsed},
        failure=failure,
    )
    _write_atomic(os.path.join(config.out_dir, "records.csv"),
                  emit_csv(report.records, fieldnames))
    _write_atomic(os.path.join(config.out_dir, "report.json"), report.to_json())
    return report


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schrodmax",
        description="dissipative Schrodinger maximal-estimate laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="path to key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--workers", type=int, help="worker pool size")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")

    p = sub.add_parser("maximal-sweep", help="exponent sweep of maximal ratios")
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--gamma", type=float, help="dissipation exponent")
    p.add_argument("--ladder", help="R scales, e.g. '2^6 2^7 2^8 2^9'")
    common(p)

    p = sub.add_parser("counterexample", help="sampled lower-bound experiment")
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--gamma", type=float, help="dissipation exponent")
    p.add_argument("--s", type=float, help="Sobolev regularity of the data")
    p.add_argument("--ladder", help="R scales, e.g. '2^16 2^17 2^18 2^19'")
    p.add_argument("--samples", type=int, help="draws per scale")
    p.add_argument("--seed", type=int, help="root seed")
    common(p)

    p = sub.add_parser("lemmas-verify", help="randomized lemma suites")
    p.add_argument("--seed", type=int, help="root seed")
    common(p)

    p = sub.add_parser("propagator-check", help="factorized vs direct evaluation")
    p.add_argument("--R", type=float, help="frequency scale")
    p.add_argument("--points", type=int, help="comparison points")
    p.add_argument("--seed", type=int, help="root seed")
    common(p)
    return parser


def _mapping_from_args(args: argparse.Namespace) -> dict[str, str]:
    mapping: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from None
        mapping.update(parse_config_text(text))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    flag_keys = {
        "d": "model.d", "gamma": "model.gamma", "s": "s", "ladder": "ladder",
        "samples": "samples", "seed": "seed", "workers": "workers",
        "out": "out", "R": "model.R", "points": "points",
    }
    for attr, key in flag_keys.items():
        value = getattr(args, attr, None)
        if value is not None:
            mapping[key] = str(value)
    mapping["verb"] = args.verb
    return mapping


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_mapping(_mapping_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if report.failure is not None:
        print(f"run failed: {report.failure}", file=sys.stderr)
        return 3
    for name, ok in report.verdicts.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(f"wall clock: {report.wall_clock['total_s']:.2f}s "
          f"({config.out_dir}/report.json)", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
