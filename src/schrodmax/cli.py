"""Experiment runner: verbs, line-oriented configs, CSV and JSON reports.

Four verbs bind the library into reproducible batch runs:

    maximal-sweep     fit the maximal-ratio growth exponent over an R ladder
    counterexample    sampled lower-bound experiment with fitted slopes
    lemmas-verify     randomized checks of the arithmetic building blocks
    propagator-check  factorized versus direct field evaluation

Settings come from a `key = value` file, `--set KEY=VALUE` and flags, each
winning over the one before.  Each key is one row of _KEYS (parser,
constraint, default, flag) and parses alike from all three; _VERBS lists
each verb's flags.

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
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import default_rng

from .counterexample import ExperimentError, anchor_counts, lower_bound_experiment
from .maximal import (
    SpaceGrid,
    SweepError,
    TimeGrid,
    check_ladder,
    exponent_sweep,
)
from .numbertheory import (
    CubeFamily,
    PreconditionError,
    abel_sum_identity,
    dirichlet_simultaneous,
    gauss_modulus_worst,
    totient,
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


def _as_real(text: str) -> float:
    """A finite float: inf, nan and overflowing texts are refused like any bad text."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _parse_ladder(text: str) -> tuple[float, ...]:
    """Entries base or base^power; math.pow refuses complex and infinite powers."""
    vals = []
    for tok in text.replace(",", " ").split():
        base, caret, exp = tok.partition("^")
        try:
            vals.append(math.pow(_as_real(base), _as_real(exp) if caret else 1.0))
        except (ValueError, OverflowError):
            raise ConfigError(f"ladder: cannot parse entry {tok!r}") from None
    return tuple(vals)


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
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# verb runners


def _default_grids(R: float, cfg: ExperimentConfig):
    tg = TimeGrid.hybrid(R, geometric=cfg["time.geometric"], cap=cfg["time.cap"])
    sg = SpaceGrid(radius=cfg["space.radius"], per_axis=cfg["space.per_axis"])
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
    gamma = cfg["model.gamma"]
    if gamma > 1.0:
        # the gamma > 1 growth lives on a sampled region near 1e-8 of the
        # box, which a ball grid cannot resolve at any scale
        raise ConfigError("model.gamma: maximal-sweep needs gamma <= 1; "
                          "measure gamma > 1 growth with the counterexample verb")
    family = functools.partial(_case1_family, cfg["model.d"], gamma)
    grids = functools.partial(_default_grids, cfg=cfg)
    try:
        report = exponent_sweep(family, gamma, cfg["ladder"], grids, map_fn=map_fn)
        failure = None
    except SweepError as exc:
        report, failure = exc.partial, exc
    records = [dict(zip(_SWEEP_FIELDS, entry)) for entry in report.entries]
    summary = {
        "fitted_slope": report.fitted_slope,
        "slope_stderr": report.slope_stderr,
        "target_exponent": report.target,
        # the field concentrates on a ball of radius ~1/R; ratios drop once
        # the grid is coarser than that (1.007 at R = 2 per_axis)
        "underresolved": sorted(R for R in cfg["ladder"] if cfg["space.per_axis"] < R),
    }
    if failure is not None:
        raise RunFailed(failure, records, summary, _SWEEP_FIELDS) from failure
    verdicts = {"slope": bool(report.verdict)}
    return records, summary, verdicts


def _anchored(cp: CounterexampleParams) -> bool:
    """Whether an anchor meets the sampling window; none does without a modulus."""
    try:
        return anchor_counts(cp)[1] > 0
    except PreconditionError:
        return False


def _run_counterexample(cfg: ExperimentConfig, map_fn):
    gamma = cfg["model.gamma"]
    gamma_c = min(gamma, 2.0)
    if not gamma_c > 1.0:
        raise ConfigError("model.gamma: counterexample needs gamma > 1")
    build = functools.partial(_case3_family, cfg["model.d"], gamma_c, cfg.ce_overrides)
    ladder_params = [build(R) for R in cfg["ladder"]]
    try:
        report = lower_bound_experiment(
            ladder_params, cfg["samples"], cfg["seed"], s=cfg["s"],
            gamma_eval=gamma if gamma > 2.0 else None, map_fn=map_fn)
    except PreconditionError as exc:
        # the entries' own preconditions abort inside them; this one is
        # the calibration sweep, which finds no scale near gamma = 1
        raise ConfigError(f"model.gamma: no calibration at gamma={_fmt(gamma_c)}, "
                          f"d={cfg['model.d']}: {exc}") from None
    except ExperimentError as exc:
        # a ladder with no anchor in any entry's window cannot sample at all;
        # one whose boxes all miss a lattice period could not with anchors
        # either, and stays a runtime failure
        if (any(cp.spans_lattice_period for cp in ladder_params)
                and not any(map(_anchored, ladder_params))):
            raise ConfigError(f"ladder: no entry has a rational anchor in its sampling "
                              f"window at d={cfg['model.d']}, gamma={_fmt(gamma_c)}") from None
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


def _gauss_suite(rng):
    checked = 0
    worst = 0.0
    for q in range(4, 65, 4):
        b = range(2, q // 2 + 1, 2)
        worst = max(worst, gauss_modulus_worst(q, b))
        checked += totient(q) * len(b)
    return checked, worst, worst <= 1e-9


def _weyl_suite(rng):
    caps = (256, 1024)
    rho = weyl_calibration(n_caps=caps, q_max=32)
    return 2, rho[caps[1]] / rho[caps[0]], rho[caps[1]] < 2.0 * rho[caps[0]]


def _abel_suite(rng):
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
    return n_abel, worst, worst <= 1e-12


def _vitali_suite(rng):
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
    return n_vitali, float(failures), failures == 0


def _dirichlet_suite(rng):
    n_dir = 100
    worst = 0.0
    for _ in range(n_dir):
        k = int(rng.integers(1, 4))
        target = rng.uniform(0.0, TWO_PI, k)
        Q = float(rng.integers(8, 64))
        q, a = dirichlet_simultaneous(target, Q)
        err = max(abs(target[j] - TWO_PI * a[j] / q) for j in range(k))
        worst = max(worst, err * q * Q ** (1.0 / k) / TWO_PI)
    return n_dir, worst, worst <= 1.0 + 1e-12


# each suite maps the run's generator to (cases, worst, verdict); they run
# in this order on one generator
_LEMMA_SUITES = {
    "gauss": _gauss_suite,
    "weyl": _weyl_suite,
    "abel": _abel_suite,
    "vitali": _vitali_suite,
    "dirichlet": _dirichlet_suite,
}
_LEMMA_FIELDS = ("suite", "cases", "worst")


def _run_lemmas_verify(cfg: ExperimentConfig, map_fn):
    rng = default_rng(cfg["seed"])
    records, verdicts = [], {}
    summary = {"seed": cfg["seed"]}
    for name, suite in _LEMMA_SUITES.items():
        try:
            cases, worst, verdicts[name] = suite(rng)
        except Exception as exc:
            raise RunFailed(exc, records, summary, _LEMMA_FIELDS) from exc
        records.append({"suite": name, "cases": cases, "worst": worst})
    return records, summary, verdicts


def _run_propagator_check(cfg: ExperimentConfig, map_fn):
    gamma = min(cfg["model.gamma"], 2.0)
    if not gamma > 1.0:
        raise ConfigError("model.gamma: propagator-check needs gamma > 1")
    cp = _case3_family(cfg["model.d"], gamma, cfg.ce_overrides, cfg["model.R"])
    f = Case3Counterexample(params=cp)
    m = cp.model
    rng = default_rng(cfg["seed"])
    x1_lo = cp.x1_lo
    records = []
    worst = 0.0
    scale = TWO_PI ** cfg["model.d"]
    # values below the quadrature's rounding floor, in the same scaled
    # units, are rounding noise in both evaluators and agree only to it
    floor = _ROUNDING * l1_fourier_mass(f)
    passed, below, failure = True, 0, None
    try:
        for _ in range(cfg["points"]):
            x = (float(rng.uniform(x1_lo, x1_lo / 2.0)),
                 *(float(rng.uniform(-cp.c1, cp.c1))
                   for _ in range(cfg["model.d"] - 1)))
            t = float(rng.uniform(0.0, 2.0 / m.R))
            pt = SpaceTimePoint(x=x, t=t)
            fac = factorized_evaluate(
                cp, pt,
                gamma_eval=cfg["model.gamma"] if cfg["model.gamma"] > 2.0 else None)
            direct = abs(evaluate_p_gamma(f, cfg["model.gamma"], pt, rtol=1e-8))
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
    except Exception as exc:
        failure = exc
    summary = {"worst_rel_error": worst, "points": len(records),
               "R": cfg["model.R"], "rounding_floor": floor,
               "points_below_floor": below}
    if failure is not None:
        fields = ("t", "factorized", "direct_scaled", "rel_error",
                  *(f"x{i + 1}" for i in range(cfg["model.d"])))
        raise RunFailed(failure, records, summary, fields) from failure
    verdicts = {"factorized-vs-direct": bool(passed)}
    return records, summary, verdicts


# ---------------------------------------------------------------------------
# verbs and config keys


_as_int = functools.partial(int, base=0)


class _Verb(NamedTuple):
    """A verb's runner, help line, keys it takes as flags and keys it needs."""

    runner: Callable
    help: str
    flags: tuple[str, ...]
    required: tuple[str, ...] = ()


_VERBS = {
    "maximal-sweep": _Verb(_run_maximal_sweep, "exponent sweep of maximal ratios",
                           ("model.d", "model.gamma", "ladder"), ("ladder",)),
    "counterexample": _Verb(_run_counterexample, "sampled lower-bound experiment",
                            ("model.d", "model.gamma", "s", "ladder", "samples", "seed"),
                            ("ladder",)),
    "lemmas-verify": _Verb(_run_lemmas_verify, "randomized lemma suites", ("seed",)),
    "propagator-check": _Verb(_run_propagator_check, "factorized vs direct evaluation",
                              ("model.R", "points", "seed"), ("model.R",)),
}

# flags every verb takes
_COMMON_FLAGS = ("out", "workers")


class _Key(NamedTuple):
    """A config key's parser, constraint text, check, default text and flag.

    A value out of range makes check return false, or raise ValueError
    naming what is broken.
    """

    parse: Callable
    want: str
    check: Callable
    default: str | None = None
    flag: str | None = None
    help: str | None = None


_KEYS: dict[str, _Key] = {
    "verb": _Key(str, "one of " + ", ".join(_VERBS), lambda v: v in _VERBS),
    "model.d": _Key(_as_int, "an integer >= 1", lambda v: v >= 1, "2",
                    "d", "dimension"),
    "model.gamma": _Key(_as_real, "a positive real", lambda v: v > 0.0, "2.0",
                        "gamma", "dissipation exponent"),
    "model.R": _Key(_as_real, "a real >= 2", lambda v: v >= 2.0, None,
                    "R", "frequency scale"),
    "ladder": _Key(_parse_ladder, "a geometric ladder", lambda v: check_ladder(v) is None,
                   None, "ladder", "R scales, e.g. '2^16 2^17 2^18 2^19'"),
    "s": _Key(_as_real, "a nonnegative real", lambda v: v >= 0.0, "0.0",
              "s", "Sobolev regularity of the data"),
    "samples": _Key(_as_int, "an integer >= 2", lambda v: v >= 2, "2000",
                    "samples", "draws per scale"),
    "seed": _Key(_as_int, "a nonnegative integer", lambda v: v >= 0, "0",
                 "seed", "root seed"),
    "workers": _Key(_as_int, "an integer >= 1", lambda v: v >= 1, "1",
                    "workers", "worker pool size"),
    "points": _Key(_as_int, "an integer >= 1", lambda v: v >= 1, "20",
                   "points", "comparison points"),
    # the default output directory, runs/<verb>, is set by from_mapping
    "out": _Key(str, "a directory path", bool, None, "out", "output directory"),
    "time.geometric": _Key(_as_int, "an integer >= 2", lambda v: v >= 2, "64"),
    "time.cap": _Key(_as_int, "an integer >= 2", lambda v: v >= 2, "16384"),
    "space.radius": _Key(_as_real, "a positive real", lambda v: v > 0.0, "1.0"),
    "space.per_axis": _Key(_as_int, "an integer >= 2", lambda v: v >= 2, "64"),
    **{f"ce.{name}": _Key(_as_real, "a positive real", lambda v: v > 0.0)
       for name in ("c0", "c1", "c2", "c3", "c4", "mu0", "delta0")},
}


def _parse_value(key: str, raw: str):
    spec = _KEYS[key]
    try:
        value = spec.parse(raw)
    except ConfigError:
        raise
    except (ValueError, TypeError):
        raise ConfigError(f"{key}: must be {spec.want}, got {raw!r}") from None
    try:
        ok = spec.check(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if not ok:
        raise ConfigError(f"{key}: must be {spec.want}, got {raw!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated run request, read by key: cfg["model.gamma"].

    Keys without a default (model.R, ladder, ce.*) are present only when given.
    """

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def ce_overrides(self) -> tuple[tuple[str, float], ...]:
        """The given ce.* construction constants as (name, value) pairs."""
        return tuple((k[3:], v) for k, v in self.values.items() if k.startswith("ce."))

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "ExperimentConfig":
        for key in raw:
            if key not in _KEYS:
                raise ConfigError(f"unknown key {key!r}")
        if "verb" not in raw:
            raise ConfigError("verb: required, one of " + ", ".join(_VERBS))
        merged = {key: spec.default for key, spec in _KEYS.items()
                  if spec.default is not None}
        merged["out"] = os.path.join("runs", raw["verb"])
        merged.update(raw)
        values = {key: _parse_value(key, merged[key]) for key in _KEYS if key in merged}
        verb = values["verb"]
        for key in _VERBS[verb].required:
            if key not in values:
                raise ConfigError(f"{key}: required for verb {verb}")
        return cls(values)

    def echo(self) -> dict[str, str]:
        """Canonical flat key -> value rendering of every effective setting."""
        return {key: " ".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)
                for key, v in self.values.items()}


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch a validated config, write records.csv and report.json.

    Output files land atomically; the JSON body depends only on
    (config, seed), never on timing or worker count.  A run that stops
    part way still writes both, with no verdicts, the reason under
    "failure" and the rows and summary it had reached.
    """
    verb = _VERBS[config["verb"]]
    # the ladder verbs map one task per ladder entry, the others none; a
    # pool forks all its workers at once, so it gets no more than the tasks
    tasks = len(config["ladder"]) if "ladder" in verb.required else 0
    workers = min(config["workers"], tasks)
    started = time.monotonic()
    failure, fieldnames = None, None
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                records, summary, verdicts = verb.runner(config, pool.map)
        else:
            records, summary, verdicts = verb.runner(config, map)
    except RunFailed as exc:
        records, summary, verdicts = exc.records, exc.summary, {}
        failure, fieldnames = str(exc), exc.fieldnames
    elapsed = time.monotonic() - started
    report = RunReport(
        verb=config["verb"],
        config_echo=config.echo(),
        records=tuple(_json_safe(r) for r in records),
        summary=_json_safe(summary),
        verdicts={k: bool(v) for k, v in verdicts.items()},
        wall_clock={"total_s": elapsed},
        failure=failure,
    )
    _write_atomic(os.path.join(config["out"], "records.csv"),
                  emit_csv(report.records, fieldnames))
    _write_atomic(os.path.join(config["out"], "report.json"), report.to_json())
    return report


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schrodmax",
        description="dissipative Schrodinger maximal-estimate laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, spec in _VERBS.items():
        p = sub.add_parser(verb, help=spec.help)
        for key in spec.flags + _COMMON_FLAGS:
            # the text goes to the key's parser, as a --set or file value does
            p.add_argument(f"--{_KEYS[key].flag}", dest=key, help=_KEYS[key].help)
        p.add_argument("--config", help="path to key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
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
    # argparse stores the verb and each given flag under its key
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    return mapping


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_mapping(_mapping_from_args(args))
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
          f"({config['out']}/report.json)", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
