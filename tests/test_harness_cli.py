"""Harness behavior: config validation, emission formats, CLI verbs."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from maxaffine import approximator
from maxaffine.harness_cli import (
    ConfigError,
    FitResult,
    emit,
    fit_limit,
    main,
    parse_config,
    parse_records,
    validate_config,
)
from maxaffine.sweep import SweepRecord


def _cfg(**over):
    cfg = {
        "function": {"catalog_id": "quadratic", "parameters": {},
                     "domain": {"kind": "box", "lower": [0.0],
                                "upper": [1.0]}},
        "p": 1.0,
        "strategy": "exact_1d",
        "m_list": [2, 4],
        "seed": 0,
    }
    cfg.update(over)
    return cfg


def _write_cfg(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(_cfg(**over)))
    return str(path)


# ---------------------------------------------------------------------------
# config validation


def test_unknown_top_key_gets_suggestion():
    with pytest.raises(ConfigError, match="did you mean 'strategy'"):
        validate_config(_cfg(strategi="exact_1d"))


def test_unknown_catalog_id_lists_choices():
    bad = _cfg()
    bad["function"]["catalog_id"] = "quadratik"
    with pytest.raises(ConfigError, match="quadratic"):
        validate_config(bad)


def test_rejects_bad_p_and_m_list():
    with pytest.raises(ConfigError, match="p must be"):
        validate_config(_cfg(p=0))
    with pytest.raises(ConfigError, match="m_list"):
        validate_config(_cfg(m_list=[4, 0]))
    with pytest.raises(ConfigError, match="m_list"):
        validate_config(_cfg(m_list=[]))
    with pytest.raises(ConfigError, match="seed must be a non-negative"):
        validate_config(_cfg(seed=-1))


def test_strategy_spellcheck():
    with pytest.raises(ConfigError, match="exact_1d"):
        validate_config(_cfg(strategy="exact1d"))


def test_defaults_are_filled():
    cfg = validate_config({"function": _cfg()["function"]})
    assert cfg["weight"]["catalog_id"] == "constant"
    assert cfg["p"] == 1.0
    assert cfg["strategy"]["name"] == "auto"
    assert cfg["m_list"] == [4, 8, 16, 32]


def test_parse_config_round_trip(tmp_path):
    path = _write_cfg(tmp_path, strategy={"name": "exact_1d", "options": {}})
    cfg = parse_config(path)
    assert cfg["strategy"]["name"] == "exact_1d"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        parse_config(str(bad))


# ---------------------------------------------------------------------------
# fit and emission


def test_fit_limit_recovers_synthetic_law():
    records = [SweepRecord(m=m, error=0.0, error_bar=0.0,
                           rescaled=0.04 + 0.1 * m ** -1.0, theory=0.04,
                           ratio=1.0) for m in (4, 8, 16, 32, 64, 128)]
    fit = fit_limit(records)
    assert not fit.degenerate
    assert fit.c_infinity == pytest.approx(0.04, rel=0.01)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)


def test_fit_limit_degenerate_below_four_budgets():
    records = [SweepRecord(m=m, error=0.0, error_bar=0.0, rescaled=r,
                           theory=1.0, ratio=r)
               for m, r in ((2, 0.5), (4, 0.45), (8, 0.42))]
    fit = fit_limit(records)
    assert fit.degenerate
    assert fit.c_infinity == 0.42  # last rescaled value


def test_emit_record_format_round_trips_exactly():
    records = [SweepRecord(m=3, error=1 / 3, error_bar=1e-17,
                           rescaled=3e300, theory=0.1 + 0.2, ratio=-0.0),
               SweepRecord(m=7, error=5e-324, error_bar=0.0,
                           rescaled=np.pi, theory=1 / 24, ratio=1.0)]
    back = parse_records(emit(records, fmt="record"))
    assert [r.__dict__ for r in back] == [r.__dict__ for r in records]


def test_emit_fit_round_trip_and_csv_shape(tmp_path):
    fit = FitResult(c_infinity=1 / 24, amplitude=-0.125, exponent=2.0,
                    residual=3.5e-16, degenerate=False)
    back, = parse_records(emit(fit, fmt="record"))
    assert back == fit
    out = tmp_path / "fit.csv"
    text = emit(fit, fmt="csv", path=str(out))
    assert out.read_text() == text
    header, row = text.strip().split("\n")
    assert header == "c_infinity,amplitude,exponent,residual,degenerate"
    assert row.split(",")[-1] == "0"
    with pytest.raises(ConfigError):
        emit(fit, fmt="yaml")


def test_emit_bytes_are_pinned():
    # both layouts are read from the dataclass fields; the bytes are
    # fixed, as sweep CSVs must stay byte-identical across versions
    records = [SweepRecord(m=4, error=0.0026041666666666665,
                           error_bar=4.336808689942018e-19,
                           rescaled=0.041666666666666664,
                           theory=0.041666666666666664, ratio=1.0),
               SweepRecord(m=16, error=0.00013825719863552822,
                           error_bar=0.0, rescaled=0.035393842850695225,
                           theory=0.03466806511224932,
                           ratio=1.0209350473212163)]
    fit = FitResult(c_infinity=0.03466806511224932, amplitude=-1.5e-300,
                    exponent=2.0, residual=float("nan"), degenerate=True)
    assert emit(records, fmt="csv") == (
        "m,error,error_bar,rescaled,theory,ratio\n"
        "4,0.0026041666666666665,4.3368086899420177e-19,"
        "0.041666666666666664,0.041666666666666664,1\n"
        "16,0.00013825719863552822,0,0.035393842850695224,"
        "0.034668065112249319,1.0209350473212162\n")
    assert emit(records, fmt="record") == (
        "m 4\nerror 0.0026041666666666665\n"
        "error_bar 4.3368086899420177e-19\nrescaled 0.041666666666666664\n"
        "theory 0.041666666666666664\nratio 1\n\n"
        "m 16\nerror 0.00013825719863552822\nerror_bar 0\n"
        "rescaled 0.035393842850695224\ntheory 0.034668065112249319\n"
        "ratio 1.0209350473212162\n")
    assert emit(fit, fmt="csv") == (
        "c_infinity,amplitude,exponent,residual,degenerate\n"
        "0.034668065112249319,-1.5000000000000001e-300,2,nan,1\n")
    assert emit(fit, fmt="record") == (
        "c_infinity 0.034668065112249319\n"
        "amplitude -1.5000000000000001e-300\nexponent 2\nresidual nan\n"
        "degenerate 1\n")
    assert parse_records(emit(records, fmt="record")) == records


# ---------------------------------------------------------------------------
# CLI verbs


def test_sweep_verb_is_byte_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, m_list=[2, 8])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "m,error,error_bar,rescaled,theory,ratio"
    last = lines[-1].split(",")
    assert int(last[0]) == 8
    assert float(last[1]) == pytest.approx(1 / 1536, rel=1e-10)


def test_sweep_verb_fit_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, m_list=[2, 4, 8, 16, 32])
    assert main(["sweep", "--config", cfg, "--fit"]) == 0
    err = capsys.readouterr().err
    fit, = parse_records(err)
    # rescaled error is exactly flat, so the fit collapses to the limit
    assert fit.c_infinity == pytest.approx(1 / 24, rel=1e-8)


def test_sweep_verb_exact_1d_below_p1(tmp_path, capsys):
    # p < 1 takes the same Newton solve as every other p
    cfg = _write_cfg(tmp_path, p=0.5, m_list=[16, 64], function={
        "catalog_id": "cosh_quadratic", "parameters": {},
        "domain": {"kind": "box", "lower": [-1.0], "upper": [1.0]}})
    start = time.perf_counter()
    assert main(["sweep", "--config", cfg]) == 0
    assert time.perf_counter() - start < 5.0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,error,error_bar,rescaled,theory,ratio"
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert len(ratios) == 2
    assert all(abs(r - 1.0) <= 1e-2 for r in ratios)


def test_sweep_verb_numeric_failure_is_exit_3(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, function={
        "catalog_id": "quadratic", "parameters": {},
        "domain": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}})
    assert main(["sweep", "--config", cfg]) == 3
    assert "aborted" in capsys.readouterr().err


def test_solve_off_a_root_is_exit_3(tmp_path, capsys, monkeypatch):
    # without the sweeps that hold huber's arms, the exact_1d solve stops
    # off a root and raises ArithmeticError: both verbs that build an
    # envelope report a numeric failure, not a traceback
    monkeypatch.setattr(approximator, "_bisection_sweeps",
                        lambda f, omega, p, t, interval:
                        (t, np.zeros(t.size, dtype=bool)))
    cfg = _write_cfg(tmp_path, p=0.5, m_list=[16],
                     function={"catalog_id": "huber",
                               "parameters": {"delta": 0.5},
                               "domain": {"kind": "box", "lower": [-1.0],
                                          "upper": [1.0]}})
    assert main(["sweep", "--config", cfg]) == 3
    assert "not stationary" in capsys.readouterr().err
    assert main(["approximate", "--config", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_three_dimensional_function_is_exit_2(tmp_path, capsys):
    # the catalog stops at two dimensions, so every verb that takes a
    # function refuses a 3-d config as a config error
    cfg = _write_cfg(tmp_path, strategy="global_density", m_list=[4],
                     function={"catalog_id": "quadratic", "parameters": {},
                               "domain": {"kind": "box",
                                          "lower": [0.0, 0.0, 0.0],
                                          "upper": [1.0, 1.0, 1.0]}})
    envelope = tmp_path / "envelope.txt"
    envelope.write_text("1 0 0 0\n")
    for argv in (["sweep"], ["approximate"], ["functional"],
                 ["error", "--envelope", str(envelope)]):
        assert main(argv + ["--config", cfg]) == 2, argv
        assert "config error" in capsys.readouterr().err


def test_one_dimensional_polytope_is_exit_2(tmp_path, capsys):
    # a polytope is a polygon; an interval is written as a box
    cfg = _write_cfg(tmp_path, function={
        "catalog_id": "quadratic", "parameters": {},
        "domain": {"kind": "polytope", "a": [[1.0], [-1.0]], "b": [1.0, 0.0]}})
    assert main(["sweep", "--config", cfg]) == 2
    assert "planar" in capsys.readouterr().err


def test_zador_verb_stays_n_generic(capsys):
    # zador estimates delta(n, p) in any dimension; above two there is no
    # reference to compare with
    assert main(["zador", "--n", "3", "--m-list", "16", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("estimate ")
    assert "reference none" in out


def test_config_error_is_exit_2(tmp_path, capsys):
    bad = _cfg()
    bad["function"]["catalog_id"] = "quadratik"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_is_exit_4(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["sweep", "--config", missing]) == 4
    assert "i/o failure" in capsys.readouterr().err


def test_approximate_then_error_pipeline(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, m_list=[4])
    env_path = tmp_path / "envelope.txt"
    assert main(["approximate", "--config", cfg, "--out", str(env_path)]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert fields["pieces"] == "4"
    assert float(fields["max_violation"]) <= 1e-12
    assert main(["error", "--config", cfg, "--envelope", str(env_path)]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert float(fields["value"]) == pytest.approx(1 / 384, rel=1e-10)


def test_zador_verb_reports_gap(capsys):
    assert main(["zador", "--n", "1", "--m-list", "16,32",
                 "--trials", "3"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert float(fields["reference"]) == pytest.approx(1 / 12, rel=1e-12)
    assert abs(float(fields["relative_gap"])) < 0.1
    assert float(fields["half_width"]) >= 0.0


def test_functional_verb_prints_theory(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["functional", "--config", cfg]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert float(fields["mass"]) == pytest.approx(1.0, rel=1e-9)
    assert 0.0 <= float(fields["mass_error_bar"]) <= 1e-9
    assert float(fields["delta"]) == pytest.approx(1 / 12, rel=1e-12)
    assert float(fields["theory"]) == pytest.approx(1 / 24, rel=1e-9)


def test_functional_theory_is_the_sweep_theory(tmp_path, capsys):
    # the config's quadrature reaches the error only; under its level-128
    # grid the disc's theory would read 5.5e-4 of it high
    cfg = _write_cfg(
        tmp_path, p=1.5, strategy="uniform_grid", m_list=[16],
        function={"catalog_id": "cosh_quadratic", "parameters": {},
                  "domain": {"kind": "ball", "center": [0.0, 0.0],
                             "radius": 1.0}},
        weight={"catalog_id": "exp_neg_t", "parameters": {}},
        quadrature={"kind": "tensor_grid", "level": 128})
    assert main(["functional", "--config", cfg]) == 0
    fields = dict(line.split(" ", 1)
                  for line in capsys.readouterr().out.strip().split("\n"))
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,error,error_bar,rescaled,theory,ratio"
    assert fields["theory"] == lines[1].split(",")[4]


def test_legendre_verb_saves_grid(tmp_path, capsys):
    from maxaffine import GridFunction

    cfg = _write_cfg(tmp_path)
    out = tmp_path / "dual.txt"
    assert main(["legendre", "--config", cfg, "--grid", "129",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "truncated 0" in stdout
    star = GridFunction.load_text(str(out))
    assert not star.truncated
    # (x^2/2)* = y^2/2 on the covered part of the dual window
    y = star.axes()[0]
    inside = (y >= 0.0) & (y <= 1.0)
    np.testing.assert_allclose(star.values[inside], 0.5 * y[inside] ** 2,
                               atol=1e-3)


def test_threads_env_override(tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(tmp_path, m_list=[2, 4])
    monkeypatch.setenv("MAXAFFINE_THREADS", "2")
    assert main(["sweep", "--config", cfg]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MAXAFFINE_THREADS", "many")
    assert main(["sweep", "--config", cfg]) == 2
    assert "MAXAFFINE_THREADS" in capsys.readouterr().err


def test_threads_flag_below_one_is_rejected(tmp_path, monkeypatch, capsys):
    # an explicit --threads wins over the environment, and 0 is explicit
    cfg = _write_cfg(tmp_path, m_list=[2, 4])
    monkeypatch.setenv("MAXAFFINE_THREADS", "many")
    assert main(["sweep", "--config", cfg, "--threads", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MAXAFFINE_THREADS", "4")
    for bad in ("0", "-1"):
        assert main(["sweep", "--config", cfg, "--threads", bad]) == 2
        assert "--threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flag, bad", [
    ("approximate", "--m", "0"), ("approximate", "--m", "-3"),
    ("zador", "--n", "0"), ("zador", "--n", "-1"),
    ("zador", "--trials", "0"),
    ("legendre", "--grid", "1"), ("legendre", "--dual-grid", "0"),
    ("zador", "--seed", "-1"), ("sweep", "--seed", "-1")])
def test_integer_flag_below_its_floor_is_exit_2(tmp_path, capsys, verb,
                                                flag, bad):
    # an out-of-range count is a config error naming its flag, never a
    # silent default or a numeric failure
    argv = [verb, flag, bad]
    if verb != "zador":
        argv += ["--config", _write_cfg(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag + " must be" in err


@pytest.mark.parametrize("argv, out", [
    (["approximate", "--m", "3"],
     "pieces 3\nmax_violation -2.4479612781291848e-10\n"
     "sup_gap 0.013887208823624951\n"),
    (["zador", "--n", "1", "--m-list", "16", "--trials", "2"],
     "estimate 0.083333333333332996\nhalf_width 0\n"
     "reference 0.083333333333333329\n"
     "relative_gap -3.9968028886505635e-15\n"),
    (["legendre", "--grid", "9", "--dual-grid", "5"],
     "truncated 0\ndual_bound 1.0500000010000001\n")])
def test_integer_flags_at_valid_values_keep_their_bytes(tmp_path, capsys,
                                                        argv, out):
    if argv[0] != "zador":
        argv = argv + ["--config", _write_cfg(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_threads_env_below_one_is_rejected(tmp_path, monkeypatch, capsys):
    # the environment obeys the same rule as --threads instead of clamping
    cfg = _write_cfg(tmp_path, m_list=[2, 4])
    for bad in ("0", "-3"):
        monkeypatch.setenv("MAXAFFINE_THREADS", bad)
        assert main(["sweep", "--config", cfg]) == 2
        assert "MAXAFFINE_THREADS must be at least 1" in capsys.readouterr().err


def test_package_runs_as_module():
    # `python -m maxaffine` must not trip runpy's double-import warning
    import maxaffine

    src = os.path.dirname(os.path.dirname(maxaffine.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "maxaffine",
         "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "sweep" in proc.stdout


def test_import_leaves_out_scipy_integrate_and_optimize():
    # a fresh interpreter pays for every scipy submodule the import loads
    import maxaffine

    src = os.path.dirname(os.path.dirname(maxaffine.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, maxaffine; print(sorted(m for m in sys.modules "
         "if m in ('scipy.integrate', 'scipy.optimize')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_triangle_envelope_leaves_out_scipy_optimize():
    # a polygon's bounding box and center come from its sides, not from
    # linear programs
    import maxaffine

    src = os.path.dirname(os.path.dirname(maxaffine.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys, maxaffine as mx\n"
        "tri = mx.Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],"
        " [0.0, 0.0, 1.0])\n"
        "f = mx.catalog_entry('cosh_quadratic', {}, tri)\n"
        "w = mx.WeightFunction.exp_neg_t()\n"
        "l = mx.build_approximation(f, w, 2.0, 16, 'greedy_insertion',"
        " cloud_size=2000)\n"
        "assert mx.weighted_lp_error(f, l, 2.0, w).value > 0\n"
        "print('scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_public_api_resolves():
    # every exported name exists, a star import works, and deleted API
    # stays gone
    import maxaffine

    for name in maxaffine.__all__:
        assert hasattr(maxaffine, name), name
    scope = {}
    exec("from maxaffine import *", scope)
    assert set(maxaffine.__all__) <= set(scope)
    for gone in ("ConvexBodySpec", "support_function", "FunctionalResult",
                 "ZetaFunction", "z_zeta", "dp_1d_abscissas",
                 "AffineFunction", "tangent_plane"):
        assert not hasattr(maxaffine, gone), gone
    # PiecewiseAffineMax is the one plane container
    for gone in ("pieces", "from_pieces"):
        assert not hasattr(maxaffine.PiecewiseAffineMax, gone), gone
    assert not hasattr(maxaffine.approximator, "envelope_error_1d")
    # a planar region's boundary is described once, by the cell integrals
    for gone in ("boundary", "_polygon_vertices"):
        assert not hasattr(maxaffine.Domain, gone), gone


@pytest.mark.parametrize("how", ["--p nan", "--p inf", "json NaN"])
def test_non_finite_p_is_exit_2(tmp_path, capsys, how):
    # a non-finite p once ran a 1-d exact_1d sweep for minutes (NaN) or
    # died in a division (inf); it is a config error now
    if how == "json NaN":
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(_cfg(m_list=[4, 8], p=float("nan"))))
        argv = ["sweep", "--config", str(path)]
    else:
        argv = ["sweep", "--config", _write_cfg(tmp_path, m_list=[4, 8]),
                "--p", how.split()[1]]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert "p must be a positive finite number" in capsys.readouterr().err


def test_cli_overrides_are_validated(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    for argv in (["--p", "0"], ["--strategy", "exact1d"], ["--m-list", "4,0"],
                 ["--m-list", "4,x"]):
        assert main(["sweep", "--config", cfg] + argv) == 2
        assert "config error" in capsys.readouterr().err
    assert main(["zador", "--n", "1", "--p", "nan"]) == 2
    assert main(["zador", "--n", "1", "--m-list", "0"]) == 2
