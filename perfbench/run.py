"""Benchmark of the maxaffine law-check pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from the
checkout's ``src`` directory; without it the command exits with code 2.
Every workload runs in a fresh worker process (``worker.py``) for whole
rounds until the next round would end past ``--seconds``.  The outputs
are then checked (``checks.py``), and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

- ``--trace 0``: ``wall_s`` (median round time after set-up), ``setup_s``
  (median time from a fresh interpreter to ready, over several fresh
  interpreters), both at the reference speed of ``pace.py``, and
  ``peak_rss_mb`` (peak resident memory of the worker up to the end of
  its first round);
- ``--trace 1``: the per-layer metrics of ``tracer.py``, each the median
  over the rounds of the run.

The full result, and with ``--trace 1`` the spans of the first round, are
also written to ``.perfbench-out/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import MIN_ROUNDS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 4          # fresh interpreters timed to ready
DEADLINE_S = 170.0         # the whole command must end within 180 s


class BenchError(RuntimeError):
    pass


def metric_units(kind):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_SRC"] = str(src)
    # the sweep runs single-threaded; BLAS gets no more threads than CPUs
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    env.pop("MAXAFFINE_THREADS", None)
    return env


def spawn(args, env, deadline):
    """Run ``worker.py`` with ``args``; return (seconds to its ``ready``
    line, the rest of its standard output)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} ended with code {code}")
    return ready, rest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=1,
                    help="sweep threads (lloyd2d-p1 only; reference runs)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "maxaffine" / "__init__.py").is_file():
        print(f"perfbench: no maxaffine sources under {src}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env(src)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=str(ROOT))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir, "--threads", str(args.threads)]
    try:
        _, text = spawn(
            common + ["--seconds", str(args.seconds), "--trace",
                      str(args.trace),
                      "--min-rounds", str(MIN_ROUNDS.get(args.workload, 1)),
                      "--spans-out",
                      str(out_dir / f"{tag}.spans.jsonl") if args.trace
                      else ""],
            env, deadline)
        # timed after the worker, whose start filled the bytecode and file
        # caches as an installed package would have them
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            ready, probes = spawn(common + ["--setup-only"], env, deadline)
            setups.append(dict(json.loads(probes), ready_s=ready))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(text.strip().splitlines()[-1])
    from checks import CHECKS
    problems = CHECKS[args.workload](result, args.seed)
    for line in result["failures"] + problems:
        print(f"perfbench: {line}", file=sys.stderr)

    if args.trace:
        values = {name: statistics.median(r[name] for r in result["layers"])
                  for name in result["layers"][0]}
        units = metric_units("per_layer")
    else:
        values = {"wall_s": statistics.median(result["at_reference"]),
                  "setup_s": statistics.median(
                      (s["ready_s"] - s["probe_s"])
                      / statistics.fmean(s["slowdowns"]) for s in setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        units = metric_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    summary = {"correct": not problems, "attempted": result["attempted"],
               "failed": len(result["failures"]), "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed,
                  rounds=result["rounds"],
                  at_reference=result["at_reference"], setups=setups,
                  problems=problems,
                  failures=result["failures"], outputs=result["outputs"],
                  layers=result["layers"])
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
