"""Tests of the benchmark itself: every workload runs at a tiny size and
passes its checks, and each check rejects a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import CHECKS  # noqa: E402
from pace import Pace  # noqa: E402
from spec import MIN_ROUNDS, WORKLOADS, digest  # noqa: E402


def _tiny(workload, tmp_path, trace=0):
    args = ["--workload", workload, "--seed", "3", "--tiny",
            "--workdir", str(tmp_path), "--seconds", "0",
            "--min-rounds", str(MIN_ROUNDS.get(workload, 1)),
            "--trace", str(trace)]
    _, text = run.spawn(args, run.child_env(run.ROOT / "src"),
                        time.monotonic() + 120)
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("work")
    return {w: _tiny(w, tmp) for w in WORKLOADS}


def _problems(workload, result):
    return CHECKS[workload](result, 3)


def _corrupted(workload, result):
    """Problems found in outputs edited the same way in every round."""
    edited = dict(result, digests=[digest(result["outputs"])]
                  * len(result["digests"]))
    return _problems(workload, edited)


def _any(problems, text):
    return any(text in p for p in problems)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(tiny, workload):
    result = tiny[workload]
    assert result["attempted"] >= 1
    assert result["failures"] == []
    assert _problems(workload, result) == []


def test_lifted_envelope_is_rejected(tiny):
    for workload, label in (("partition2d-p1.5", "m=16"),
                            ("envelope2d", "greedy/m=16")):
        bad = copy.deepcopy(tiny[workload])
        env = bad["outputs"][label]["envelope"]
        env["offsets"] = [o + 1e-6 for o in env["offsets"]]
        assert _any(_corrupted(workload, bad), "envelope exceeds f")


def test_theory_off_by_one_percent_is_rejected(tiny):
    bad = copy.deepcopy(tiny["lloyd2d-p1"])
    out = bad["outputs"]["sweep"]
    header, row = out["csv"].splitlines()[:2]
    cells = row.split(",")
    cells[4] = repr(float(cells[4]) * 1.01)
    out["csv"] = "\n".join([header, ",".join(cells)]) + "\n"
    assert _any(_corrupted("lloyd2d-p1", bad), "theory")

    for workload, label in (("partition2d-p1.5", "theory"),
                            ("envelope2d", "theory"),
                            ("exact1d", "cosh-const-p2/exact_1d"),
                            ("exact1d", "dual")):
        bad = copy.deepcopy(tiny[workload])
        bad["outputs"][label]["theory"] *= 1.01
        assert _any(_corrupted(workload, bad), "theory"), (workload, label)


def test_error_outside_its_allowance_is_rejected(tiny):
    cases = (("partition2d-p1.5", "m=64", 1.05, "Monte Carlo"),
             ("envelope2d", "greedy/m=64", 1.05, "Monte Carlo"),
             # at k=4 and p=1 the quadrature is exact: a tight bar
             ("envelope2d", "grid/p=1/k=4", 1 + 1e-6, "want"))
    for workload, label, factor, text in cases:
        bad = copy.deepcopy(tiny[workload])
        bad["outputs"][label]["value"] *= factor
        assert _any(_corrupted(workload, bad), text), (workload, label)

    bad = copy.deepcopy(tiny["exact1d"])
    rec = bad["outputs"]["quadratic-const-p1/exact_1d"]["records"][0]
    rec["error"] *= 1 + 1e-8
    assert _any(_corrupted("exact1d", bad), "24 m^2 error")


def test_csv_differing_by_one_byte_between_repeats_is_rejected(tiny):
    result = copy.deepcopy(tiny["lloyd2d-p1"])
    assert len(result["digests"]) >= 2
    assert _problems("lloyd2d-p1", result) == []
    other = copy.deepcopy(result["outputs"])
    csv = other["sweep"]["csv"]
    other["sweep"]["csv"] = csv[:-2] + chr(ord(csv[-2]) ^ 1) + csv[-1]
    result["digests"][-1] = digest(other)
    assert _any(_problems("lloyd2d-p1", result), "differ between repeats")


def test_trace_counts_calls_per_layer(tmp_path):
    lloyd = _tiny("lloyd2d-p1", tmp_path, trace=1)["layers"]
    exact = _tiny("exact1d", tmp_path, trace=1)["layers"]
    # one quantize call per budget, the same iterations in every round
    assert {r["quantizer.quantize_calls"] for r in lloyd} == {2}
    assert len({r["quantizer.lloyd_iterations"] for r in lloyd}) == 1
    assert lloyd[0]["harness_cli.main_s"] > 0
    assert exact[0]["quantizer.quantize_calls"] == 0
    assert exact[0]["approximator.residual_evals"] > 0
    assert set(lloyd[0]) == set(run.metric_units("per_layer"))
    for r in lloyd + exact:
        spent = sum(v for k, v in r.items()
                    if k.endswith("_s") and not k.startswith("trace."))
        assert spent == pytest.approx(r["trace.round_s"] - r["trace.outside_s"],
                                      rel=1e-6)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact1d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_untraced_rounds_are_given_at_the_reference_speed(tiny):
    for result in tiny.values():
        assert len(result["at_reference"]) == len(result["rounds"])
        assert all(t > 0 for t in result["at_reference"])


def test_pace_divides_out_the_slowdown_and_its_own_time():
    pace = Pace()
    since = pace.mark()
    pace.slowdowns += [1.5, 2.5]
    pace.probe_s += 0.25
    # 4.25 s measured, 0.25 s of it probing, at twice the reference time
    assert pace.at_reference(4.25, since) == pytest.approx(2.0)
    pace.probe()
    assert pace.slowdowns[-1] > 0
