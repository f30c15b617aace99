from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from schrodmax import cli, counterexample, maximal
from schrodmax.cli import (
    ConfigError,
    ExperimentConfig,
    RunReport,
    _json_safe,
    _write_atomic,
    emit_csv,
    main,
    parse_config_text,
    parse_csv,
)
from schrodmax.quadrature import QuadratureError


def _base(verb="lemmas-verify", **extra):
    raw = {"verb": verb}
    raw.update(extra)
    return ExperimentConfig.from_mapping(raw)


def test_parse_config_text_shapes():
    text = """
    # comment
    verb = counterexample

    ladder = 2^16 2^17 2^18 2^19
    out = runs/a=b
    """
    got = parse_config_text(text)
    assert got["verb"] == "counterexample"
    assert got["out"] == "runs/a=b"
    with pytest.raises(ConfigError):
        parse_config_text("verb = a\nverb = b\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("= value\n")


def test_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        _base(**{"model.dd": "2"})
    with pytest.raises(ConfigError, match="verb"):
        ExperimentConfig.from_mapping({"seed": "1"})
    with pytest.raises(ConfigError, match="verb"):
        _base(verb="sweepify")
    with pytest.raises(ConfigError, match="ladder"):
        _base(verb="maximal-sweep")
    with pytest.raises(ConfigError, match="model.R"):
        _base(verb="propagator-check")
    with pytest.raises(ConfigError, match="unknown key 'time.t_max'"):
        _base(verb="maximal-sweep", ladder="2^2 2^3 2^4 2^5", **{"time.t_max": "0.5"})


def test_field_level_messages():
    with pytest.raises(ConfigError, match="model.gamma"):
        _base(**{"model.gamma": "-2.0"})
    with pytest.raises(ConfigError, match="samples"):
        _base(samples="1")
    with pytest.raises(ConfigError, match="ladder"):
        _base(verb="maximal-sweep", ladder="2^4 2^5 2^6")
    with pytest.raises(ConfigError, match="ladder"):
        _base(verb="maximal-sweep", ladder="2^5 2^4 2^6 2^7")


def test_defaults_and_ladder_syntax():
    cfg = _base(verb="counterexample", ladder="2^16,2^17 2^18, 2^19")
    assert cfg["ladder"] == (65536.0, 131072.0, 262144.0, 524288.0)
    assert cfg["samples"] == 2000
    assert cfg["seed"] == 0
    assert cfg["model.d"] == 2
    assert cfg["model.gamma"] == 2.0
    assert cfg["out"] == os.path.join("runs", "counterexample")


def test_ce_overrides_collected():
    cfg = _base(verb="counterexample", ladder="2^16 2^17 2^18 2^19",
                **{"ce.c1": "0.01", "ce.mu0": "0.002"})
    assert ("c1", 0.01) in cfg.ce_overrides
    assert ("mu0", 0.002) in cfg.ce_overrides


def test_echo_is_a_fixed_point():
    cfg = _base(verb="counterexample", ladder="2^16 2^17 2^18 2^19",
                samples="500", **{"ce.c1": "0.01", "s": "0.25"})
    again = ExperimentConfig.from_mapping(cfg.echo())
    assert again == cfg


# a valid text for every key with a flag, unlike its default
_FLAG_TEXTS = {"model.d": "3", "model.gamma": "1.5", "model.R": "128",
               "ladder": "2^17 2^18 2^19 2^20", "s": "0.5", "samples": "300",
               "seed": "5", "points": "7", "out": "elsewhere", "workers": "3"}


def test_every_flag_matches_its_set_override_and_wins_over_it():
    flagged = {key: spec.flag for key, spec in cli._KEYS.items() if spec.flag}
    assert set(_FLAG_TEXTS) == set(flagged)
    parser = cli._build_parser()

    def config(argv):
        return ExperimentConfig.from_mapping(
            cli._mapping_from_args(parser.parse_args(argv)))

    for verb, spec in cli._VERBS.items():
        base = [verb, "--set", "ladder=2^16 2^17 2^18 2^19", "--set", "model.R=64"]
        plain = config(base)
        for key in spec.flags + cli._COMMON_FLAGS:
            text = _FLAG_TEXTS[key]
            by_flag = config(base + [f"--{flagged[key]}", text])
            assert by_flag == config(base + ["--set", f"{key}={text}"])
            assert by_flag[key] != plain[key]
            assert by_flag == config(base + ["--set", f"{key}={plain.echo()[key]}",
                                             f"--{flagged[key]}", text])


def test_csv_round_trip_fixed_point():
    rec = {"R": 65536.0, "ratio": 1.0 / 3.0, "tiny": -2.5e-17, "tag": "ok",
           "count": 40}
    text = emit_csv([rec])
    assert text.endswith("\n")
    back = parse_csv(text)
    assert back[0]["count"] == 40
    assert isinstance(back[0]["count"], int)
    assert back[0]["tag"] == "ok"
    assert back[0]["ratio"] == pytest.approx(rec["ratio"], rel=1e-11)
    assert emit_csv(back) == text


def test_csv_rejects_malformed_records():
    with pytest.raises(ValueError):
        emit_csv([{"a": 1}, {"b": 2}])
    with pytest.raises(ValueError):
        emit_csv([{"a": "x,y"}])
    with pytest.raises(ValueError):
        emit_csv([])
    assert emit_csv([], fieldnames=["a", "b"]) == "a,b\n"
    with pytest.raises(ValueError):
        parse_csv("")
    with pytest.raises(ValueError):
        parse_csv("a,b\n1\n")


def test_write_atomic_leaves_no_temp(tmp_path):
    target = tmp_path / "out" / "report.json"
    _write_atomic(str(target), "{}\n")
    assert target.read_text() == "{}\n"
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]


def test_write_atomic_removes_its_temp_file_when_the_write_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("read-only")

    monkeypatch.setattr(cli.os, "replace", refuse)
    target = tmp_path / "report.json"
    with pytest.raises(OSError, match="read-only"):
        _write_atomic(str(target), "{}\n")
    assert list(tmp_path.iterdir()) == []


def test_report_json_excludes_wall_clock():
    rep = RunReport(verb="lemmas-verify", config_echo={"verb": "lemmas-verify"},
                    records=({"suite": "x", "worst": 0.0},),
                    summary={"n": 1}, verdicts={"a": True, "b": False},
                    wall_clock={"total_s": 1.23})
    payload = json.loads(rep.to_json())
    assert "wall_clock" not in payload
    assert payload["passed"] is False
    assert rep.passed is False
    assert _json_safe(math.inf) == "inf"
    assert _json_safe(np.float64("inf")) == "inf"
    assert _json_safe({"x": (1, math.nan)}) == {"x": [1, "nan"]}


def test_main_rejects_bad_values(tmp_path, capsys):
    rc = main(["lemmas-verify", "--set", "model.gamma=-2.0",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "model.gamma" in capsys.readouterr().err
    rc = main(["lemmas-verify", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err
    rc = main(["lemmas-verify", "--set", "seed", "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "--set needs KEY=VALUE, got 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_main_exits_3_on_an_unexpected_exception(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(cli, "run", broken)
    assert main(["lemmas-verify", "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == "run failed: RuntimeError: disk gone\n"


def test_main_lemmas_verify_end_to_end(tmp_path, capsys):
    out = tmp_path / "lemmas"
    rc = main(["lemmas-verify", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.count(": pass") == 5
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["seed"] == "1"
    assert all(payload["verdicts"].values())
    rows = parse_csv((out / "records.csv").read_text())
    assert [r["suite"] for r in rows] == [
        "gauss", "weyl", "abel", "vitali", "dirichlet"]
    gauss = payload["records"][0]
    assert gauss["cases"] == 2434
    assert 0.0 <= gauss["worst"] <= 1e-9


def test_main_propagator_check(tmp_path, capsys):
    out = tmp_path / "prop"
    rc = main(["propagator-check", "--R", "64", "--points", "4",
               "--out", str(out)])
    assert rc == 0
    assert "factorized-vs-direct: pass" in capsys.readouterr().out
    payload = json.loads((out / "report.json").read_text())
    assert payload["summary"]["worst_rel_error"] <= 1e-4


def test_main_propagator_check_strongly_cancelling_points(tmp_path, capsys):
    """At R=4096 some windows cancel to ~1e-8; they converge at the rounding floor."""
    out = tmp_path / "prop"
    rc = main(["propagator-check", "--R", "4096", "--points", "20", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    assert "factorized-vs-direct: pass" in capsys.readouterr().out
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdicts"] == {"factorized-vs-direct": True}


def test_main_propagator_check_passes_points_below_the_rounding_floor(tmp_path, capsys):
    """At R=16384 four points sit below 64 eps times the data's L1 mass."""
    out = tmp_path / "prop"
    rc = main(["propagator-check", "--R", "16384", "--points", "20", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    assert "factorized-vs-direct: pass" in capsys.readouterr().out
    payload = json.loads((out / "report.json").read_text())
    summary = payload["summary"]
    assert summary["rounding_floor"] == pytest.approx(3.5527136788004853e-13)
    assert summary["points_below_floor"] == 4
    assert summary["worst_rel_error"] > 1e-4
    below = [r for r in payload["records"]
             if r["direct_scaled"] < summary["rounding_floor"]]
    assert len(below) == 4


def test_main_propagator_check_fails_an_error_above_the_floor(tmp_path, capsys,
                                                              monkeypatch):
    real = cli.factorized_evaluate
    calls = []

    def off_by_one_percent(cp, pt, **kw):
        fac = real(cp, pt, **kw)
        calls.append(pt)
        if len(calls) > 1:
            return fac
        return dataclasses.replace(fac, product_modulus=1.01 * fac.product_modulus)

    monkeypatch.setattr(cli, "factorized_evaluate", off_by_one_percent)
    out = tmp_path / "prop"
    rc = main(["propagator-check", "--R", "16384", "--points", "20", "--seed", "0",
               "--out", str(out)])
    assert rc == 1
    assert "factorized-vs-direct: FAIL" in capsys.readouterr().out
    payload = json.loads((out / "report.json").read_text())
    first = payload["records"][0]
    assert first["direct_scaled"] > 1e3 * payload["summary"]["rounding_floor"]
    assert first["rel_error"] == pytest.approx(0.01, rel=1e-3)


def test_main_counterexample_deterministic(tmp_path, capsys):
    cfg = tmp_path / "ce.cfg"
    cfg.write_text("verb = counterexample\n"
                   "ladder = 2^16 2^17 2^18 2^19\n"
                   "samples = 150\n"
                   "seed = 9\n")
    out_a, out_b, out_c = (str(tmp_path / n) for n in "abc")
    rc_a = main(["counterexample", "--config", str(cfg), "--out", out_a])
    rc_b = main(["counterexample", "--config", str(cfg), "--out", out_b])
    rc_c = main(["counterexample", "--config", str(cfg), "--out", out_c,
                 "--workers", "2"])
    capsys.readouterr()
    assert rc_a in (0, 1) and rc_b == rc_a and rc_c == rc_a
    payloads = [json.loads((tmp_path / n / "report.json").read_text())
                for n in "abc"]
    for p in payloads:
        del p["config"]["out"]
        p["config"].pop("workers")
    assert payloads[0] == payloads[1] == payloads[2]
    summary = payloads[0]["summary"]
    assert summary["ratio_slope"] == pytest.approx(
        0.5 * summary["measure_slope"] + summary["point_slope"] - summary["sobolev_slope"],
        rel=0.0, abs=1e-10)
    rows = parse_csv((tmp_path / "a" / "records.csv").read_text())
    assert list(rows[0].keys()) == ["R", "mean_modulus", "measure_estimate",
                                    "ratio_estimate", "E1", "E2"]
    assert [r["R"] for r in rows] == [2**k for k in range(16, 20)]


def test_main_counterexample_clamps_gamma_above_two(tmp_path, capsys):
    args = ["counterexample", "--ladder", "2^16 2^17 2^18 2^19",
            "--samples", "150", "--seed", "9"]
    rc_hi = main(args + ["--gamma", "3", "--out", str(tmp_path / "hi")])
    rc_lo = main(args + ["--gamma", "2", "--out", str(tmp_path / "lo")])
    capsys.readouterr()
    assert rc_hi in (0, 1) and rc_lo in (0, 1)
    hi, lo = (json.loads((tmp_path / n / "report.json").read_text())
              for n in ("hi", "lo"))
    assert hi["summary"]["gamma_eval"] == 3.0
    assert lo["summary"]["gamma_eval"] == 2.0
    for rec_hi, rec_lo in zip(hi["records"], lo["records"]):
        # same construction and sampling, weaker damping at t < 1
        assert rec_hi["measure_estimate"] == rec_lo["measure_estimate"]
        assert rec_hi["mean_modulus"] > rec_lo["mean_modulus"]


def test_main_counterexample_runtime_failure(tmp_path, capsys):
    rc = main(["counterexample", "--ladder", "2^8 2^9 2^10 2^11",
               "--set", "ce.c4=0.125", "--samples", "50",
               "--out", str(tmp_path / "fail")])
    assert rc == 3
    assert "run failed" in capsys.readouterr().err
    payload = json.loads((tmp_path / "fail" / "report.json").read_text())
    assert payload["passed"] is False
    assert payload["failure"] == "ExperimentError: only 0 ladder entries survived"
    assert payload["verdicts"] == {} and payload["records"] == []
    aborted = payload["summary"]["aborted"]
    assert [R for R, _ in aborted] == [2.0**8, 2.0**9, 2.0**10, 2.0**11]
    assert all("no rational anchor" in why for _, why in aborted)
    assert parse_csv((tmp_path / "fail" / "records.csv").read_text()) == []


def test_main_counterexample_entry_failure_still_writes_the_report(tmp_path, capsys,
                                                                   monkeypatch):
    real = counterexample.sobolev_norm

    def failing(f, s):
        if f.params.model.R > 2.0**17:
            raise QuadratureError("node cap reached")
        return real(f, s)

    monkeypatch.setattr(counterexample, "sobolev_norm", failing)
    out = tmp_path / "fail"
    rc = main(["counterexample", "--ladder", "2^16 2^17 2^18 2^19",
               "--samples", "50", "--out", str(out)])
    assert rc == 3
    assert "run failed: ExperimentError" in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is False
    assert payload["failure"] == ("ExperimentError: ladder entry R=262144 failed: "
                                  "QuadratureError: node cap reached")
    assert payload["summary"]["aborted"] == []
    assert (out / "records.csv").read_text() == ",".join(cli._CE_FIELDS) + "\n"


def test_main_maximal_sweep_failure_keeps_partial_entries(tmp_path, capsys,
                                                          monkeypatch):
    real = maximal.maximal_ratio

    def failing(f, gamma, grids, **kw):
        if f.model.R > 5.0:
            raise QuadratureError("budget exhausted")
        return real(f, gamma, grids, **kw)

    monkeypatch.setattr(maximal, "maximal_ratio", failing)
    out = tmp_path / "sweep"
    rc = main(["maximal-sweep", "--d", "1", "--gamma", "0.5",
               "--ladder", "2^2 2^3 2^4 2^5", "--out", str(out),
               "--set", "space.per_axis=5", "--set", "time.geometric=6",
               "--set", "time.cap=16"])
    assert rc == 3
    assert "run failed: SweepError" in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is False
    assert "R=8 failed: QuadratureError" in payload["failure"]
    assert [r["R"] for r in payload["records"]] == [4.0]
    assert payload["summary"]["fitted_slope"] == "nan"
    rows = parse_csv((out / "records.csv").read_text())
    assert [r["R"] for r in rows] == [4]


def test_main_maximal_sweep_beyond_double_range_writes_the_report(tmp_path, capsys):
    out = tmp_path / "huge"
    rc = main(["maximal-sweep", "--d", "1", "--gamma", "0.5",
               "--ladder", "2^600 2^601 2^602 2^603",
               "--set", "space.per_axis=4", "--out", str(out)])
    assert rc == 3
    assert "run failed: SweepError" in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is False and payload["verdicts"] == {}
    assert f"ladder entry R={2.0**600:g} failed: ValueError" in payload["failure"]
    assert (out / "records.csv").read_text() == ",".join(cli._SWEEP_FIELDS) + "\n"


def test_main_propagator_check_failure_keeps_the_points_reached(tmp_path, capsys,
                                                                monkeypatch):
    real, calls = cli.evaluate_p_gamma, []

    def failing(*args, **kw):
        calls.append(None)
        if len(calls) > 1:
            raise QuadratureError("node cap reached")
        return real(*args, **kw)

    monkeypatch.setattr(cli, "evaluate_p_gamma", failing)
    out = tmp_path / "check"
    rc = main(["propagator-check", "--R", "256", "--points", "2", "--out", str(out)])
    assert rc == 3
    assert "run failed: QuadratureError: node cap reached" in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["failure"] == "QuadratureError: node cap reached"
    assert payload["verdicts"] == {} and payload["summary"]["points"] == 1
    rows = parse_csv((out / "records.csv").read_text())
    assert len(rows) == 1 and set(rows[0]) == {"t", "factorized", "direct_scaled",
                                               "rel_error", "x1", "x2"}


def test_main_lemmas_verify_failure_keeps_the_suites_reached(tmp_path, capsys,
                                                             monkeypatch):
    def failing(**kw):
        raise ArithmeticError("calibration diverged")

    monkeypatch.setattr(cli, "weyl_calibration", failing)
    out = tmp_path / "lemmas"
    rc = main(["lemmas-verify", "--out", str(out)])
    assert rc == 3
    assert "run failed: ArithmeticError" in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["failure"] == "ArithmeticError: calibration diverged"
    assert [r["suite"] for r in payload["records"]] == ["gauss"]
    assert [r["suite"] for r in parse_csv((out / "records.csv").read_text())] == ["gauss"]


def test_main_maximal_sweep_refuses_gamma_above_one_below_validity(tmp_path, capsys):
    # below the construction's validity scale (2^6) and above it (2^16)
    for ladder in ("2^6 2^7 2^8 2^9", "2^16 2^17 2^18 2^19"):
        out = tmp_path / ladder.split()[0]
        rc = main(["maximal-sweep", "--d", "2", "--gamma", "2",
                   "--ladder", ladder, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "counterexample" in err
        assert not out.exists()


_SWEEP = ["maximal-sweep", "--d", "2", "--gamma", "0.5", "--ladder"]


@pytest.mark.parametrize("argv, condition", [
    (_SWEEP + ["0.125 0.25 0.5 1"], "R must be >= 1"),
    (_SWEEP + ["4 8 16 64"], "ladder must be geometric"),
    (["counterexample", "--ladder", "2^16 2^17 2^18 2^20", "--samples", "100"],
     "ladder must be geometric"),
], ids=["below-one", "not-geometric", "counterexample-not-geometric"])
def test_main_ladder_out_of_range_is_a_config_error(tmp_path, capsys, argv, condition):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ladder:") and condition in err
    assert not out.exists()


@pytest.mark.parametrize("argv, where, condition", [
    (["counterexample", "--d", "1", "--ladder", "2^16 2^17 2^18 2^19"], "R=65536:", "d >= 2"),
    (["counterexample", "--set", "ce.c1=0.5", "--ladder", "2^16 2^17 2^18 2^19"],
     "R=65536:", "c2 < c1/2 < c0/4"),
    (["propagator-check", "--R", "2"], "R=2:", "comb spacing D must exceed the bump diameter"),
    (["counterexample", "--gamma", "1.05", "--ladder", "2^16 2^17 2^18 2^19",
      "--samples", "200"], "model.gamma:", "calibration sweep found no usable scales"),
    (["counterexample", "--gamma", "1", "--ladder", "2^16 2^17 2^18 2^19"], "model.gamma:",
     "counterexample needs gamma > 1"),
    (["propagator-check", "--R", "256", "--set", "model.gamma=0.5"], "model.gamma:",
     "propagator-check needs gamma > 1"),
    (["counterexample", "--gamma", "1.2", "--ladder", "2^16 2^17 2^18 2^19",
      "--samples", "200"], "ladder: no entry has a rational anchor", "d=2, gamma=1.2"),
    (["counterexample", "--d", "2", "--gamma", "1.09", "--ladder", "2^16 2^17 2^18 2^19",
      "--samples", "200"], "ladder: no entry has a rational anchor", "d=2, gamma=1.09"),
    (["counterexample", "--d", "3", "--gamma", "1.08", "--ladder", "2^16 2^17 2^18 2^19",
      "--samples", "200"], "ladder: no entry has a rational anchor", "d=3, gamma=1.08"),
    (["counterexample", "--set", "ce.mu0=10", "--ladder", "2^16 2^17 2^18 2^19",
      "--samples", "200"], "ladder: no entry has a rational anchor", "d=2, gamma=2"),
], ids=["d1", "c1", "R2", "gamma-near-one", "counterexample-gamma-one",
        "propagator-check-gamma-half", "no-anchor-gamma-1.2", "no-anchor-d2-gamma-1.09",
        "no-anchor-d3-gamma-1.08", "no-admissible-modulus"])
def test_main_construction_out_of_range_is_a_config_error(tmp_path, capsys, argv, where,
                                                          condition):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and where in err and condition in err
    assert not out.exists()


_CE = ["counterexample", "--ladder", "2^16 2^17 2^18 2^19"]


@pytest.mark.parametrize("argv, key, text", [
    (["propagator-check", "--R", "inf"], "model.R", "inf"),
    (["propagator-check", "--R", "1e400"], "model.R", "1e400"),
    (_CE + ["--s", "inf"], "s", "inf"),
    (_CE + ["--gamma", "inf"], "model.gamma", "inf"),
    (_SWEEP + ["2^2 2^3 2^4 2^5", "--set", "space.radius=inf"], "space.radius", "inf"),
    (_CE + ["--set", "ce.mu0=inf"], "ce.mu0", "inf"),
    (_SWEEP + ["2^2 2^3 2^4 inf"], "ladder", "inf"),
    (_SWEEP + ["-2^0.5 2^3 2^4 2^5"], "ladder", "-2^0.5"),
    (_SWEEP + ["0^-1 2^3 2^4 2^5"], "ladder", "0^-1"),
], ids=["R-inf", "R-overflow", "s-inf", "gamma-inf", "radius-inf", "mu0-inf", "ladder-inf",
        "ladder-complex", "ladder-zero-division"])
def test_main_non_finite_real_is_a_config_error(tmp_path, capsys, argv, key, text):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and f"'{text}'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, sizes", [
    (["maximal-sweep", "--d", "1", "--gamma", "0.5", "--ladder", "2^2 2^3 2^4 2^5",
      "--set", "space.per_axis=5", "--set", "time.geometric=6", "--set", "time.cap=16"],
     [4]),
    (["lemmas-verify"], []),
    (["propagator-check", "--R", "64", "--points", "2"], []),
], ids=["sweep", "lemmas", "propagator-check"])
def test_pool_has_at_most_one_worker_per_ladder_entry(tmp_path, capsys, monkeypatch,
                                                      argv, sizes):
    """--workers 64 forks no idle workers: a 4-entry ladder gets a pool of 4,
    and the verbs without a ladder get no pool."""
    asked = []

    class FakePool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert main(argv + ["--workers", "64", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert asked == sizes


def _readme_blocks():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_commands_parse(tmp_path, monkeypatch):
    """Every schrodmax command in the README parses into a config; nothing runs."""
    blocks = _readme_blocks()
    configs = [b for b in blocks if b.startswith("# ")]
    for block in configs:
        name, body = block.split("\n", 1)
        (tmp_path / name[2:].strip()).write_text(body)
    monkeypatch.chdir(tmp_path)
    commands = [line for b in blocks for line in b.splitlines()
                if line.startswith("schrodmax ")]
    assert len(configs) == 1 and len(commands) >= 5
    parser = cli._build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        config = ExperimentConfig.from_mapping(cli._mapping_from_args(args))
        assert config["verb"] == args.verb


def test_main_maximal_sweep_lists_underresolved_entries(tmp_path, capsys):
    """R above space.per_axis is listed; a coarse time grid keeps the runs short."""
    readme = [shlex.split(line)[1:] for b in _readme_blocks() for line in b.splitlines()
              if line.startswith("schrodmax maximal-sweep ")]
    assert len(readme) == 1
    small = ["maximal-sweep", "--d", "2", "--gamma", "0.5", "--ladder", "2^2 2^3 2^4 2^5",
             "--set", "space.per_axis=32"]
    cheap = ["--set", "time.geometric=6", "--set", "time.cap=16"]
    for name, argv, want in (("readme", readme[0], [128]), ("small", small, [])):
        out = tmp_path / name
        main(argv + cheap + ["--out", str(out)])
        payload = json.loads((out / "report.json").read_text())
        assert payload["summary"]["underresolved"] == want
        assert (out / "records.csv").read_text().splitlines()[0] == "R,ratio,grid"
    capsys.readouterr()


def test_main_maximal_sweep_small(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["maximal-sweep", "--d", "1", "--gamma", "0.5",
               "--ladder", "2^2 2^3 2^4 2^5", "--out", str(out),
               "--set", "space.per_axis=5", "--set", "time.geometric=6",
               "--set", "time.cap=16"])
    assert rc == 0
    assert "slope: pass" in capsys.readouterr().out
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["records"]) == 4
    assert payload["summary"]["target_exponent"] == 0.0


def test_main_maximal_sweep_is_reproducible(tmp_path, capsys):
    args = ["maximal-sweep", "--d", "1", "--gamma", "0.5",
            "--ladder", "2^2 2^3 2^4 2^5",
            "--set", "space.per_axis=5", "--set", "time.geometric=6",
            "--set", "time.cap=16"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    pair = [json.loads((tmp_path / n / "report.json").read_text())
            for n in "ab"]
    for p in pair:
        del p["config"]["out"]
    assert pair[0] == pair[1]
    assert ((tmp_path / "a" / "records.csv").read_bytes()
            == (tmp_path / "b" / "records.csv").read_bytes())
