"""The four benchmark workloads, as calls into the public maxaffine API.

Each workload has a ``setup`` that builds its functions, weights and
configs from the seed, and a ``run_round`` that performs its operations
and returns one output per operation (``None`` for an operation that
raised).  ``export`` turns a round's outputs into JSON-ready data for the
checks in ``checks.py``.  Program entry points are looked up on the
package at call time, so the wrappers installed by ``tracer.py`` see
every call.

``tiny=True`` shrinks every budget so the whole workload runs in seconds;
the benchmark's own tests use it as a smoke run.
"""

import io
import json
import os
from contextlib import redirect_stdout

import numpy as np

import maxaffine as mx
from spec import EXACT_CASES, TRIANGLE_A, TRIANGLE_B


def _envelope(l):
    return {"slopes": l.slopes.tolist(), "offsets": l.offsets.tolist()}


def _report(rep):
    return {"value": rep.value, "error_bar": rep.error_bar}


class _Operations:
    """Runs a round's program calls and counts its operations.

    An operation is one envelope built and evaluated, one mass and limit
    computed, or one CLI invocation; a call that performs several (a
    budget sweep) says how many.  A call that raises fails all of them.
    """

    def __init__(self):
        self.outputs = []
        self.attempted = 0
        self.failures = []

    def run(self, label, fn, *args, operations=1, **kwargs):
        self.attempted += operations
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:     # a failed operation is counted, not fatal
            self.failures.extend([f"{label}: {type(exc).__name__}: {exc}"]
                                 * operations)
            out = None
        self.outputs.append((label, out))


# ---------------------------------------------------------------------------
# lloyd2d-p1: the `maxaffine sweep` verb on the unit-square quadratic


def lloyd_setup(seed, tiny, workdir, threads):
    # The seed moves the problem by an affine change (a translation of the
    # square and an affine term in f), to which every output is invariant.
    # The quantizer seed stays fixed: Lloyd iteration counts vary widely
    # between quantizer seeds (67 to 114 at m=256), which would swamp the
    # timing.
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, 2)
    config = {
        "function": {
            "catalog_id": "quadratic",
            "parameters": {"hessian": [[1.0, 0.0], [0.0, 1.0]],
                           "linear": rng.uniform(-1.0, 1.0, 2).tolist(),
                           "offset": float(rng.uniform(-1.0, 1.0))},
            "domain": {"kind": "box", "lower": lower.tolist(),
                       "upper": (lower + 1.0).tolist()},
        },
        "weight": {"catalog_id": "constant", "parameters": {}},
        "p": 1.0,
        "strategy": "global_density",
        "m_list": [16, 64] if tiny else [256, 1024],
        "seed": 0,
    }
    path = os.path.join(workdir, f"lloyd2d-{seed}.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return {"argv": ["sweep", "--config", path, "--threads", str(threads)]}


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = mx.harness_cli.main(argv)
    return {"exit": code, "csv": buf.getvalue()}


def lloyd_round(state):
    ops = _Operations()
    # one CLI invocation that builds and evaluates one envelope per budget
    ops.run("sweep", _cli, state["argv"])
    return ops


def lloyd_export(label, out):
    return out


# ---------------------------------------------------------------------------
# partition2d-p1.5: paper_partition on the unit disc


def partition_setup(seed, tiny, workdir, threads):
    disc = mx.Domain.ball([0.0, 0.0], 1.0)
    return {"f": mx.catalog_entry("cosh_quadratic", {}, disc),
            "omega": mx.WeightFunction.exp_neg_t(), "p": 1.5,
            "m_list": [16, 64] if tiny else [256, 1024], "seed": seed,
            "delta": mx.zador_reference(2, 1.5)}


def _build_and_measure(f, omega, p, m, strategy, seed=0, **opts):
    l = mx.build_approximation(f, omega, p, m, strategy, seed=seed, **opts)
    return l, mx.weighted_lp_error(f, l, p, omega)


def _theory(f, omega, p, delta):
    mass = mx.weighted_mass(f, p, omega)
    return mass, mx.theoretical_limit(mass, p, f.dim, delta)


def partition_round(st):
    ops = _Operations()
    ops.run("theory", _theory, st["f"], st["omega"], st["p"], st["delta"])
    for m in st["m_list"]:
        ops.run(f"m={m}", _build_and_measure, st["f"], st["omega"], st["p"],
                m, "paper_partition", seed=st["seed"])
    return ops


def partition_export(label, out):
    if out is None:
        return None
    if label == "theory":
        return {"mass": out[0], "theory": out[1]}
    l, rep = out
    return {"envelope": _envelope(l), **_report(rep)}


# ---------------------------------------------------------------------------
# exact1d: exact_1d sweeps against the lattice, plus one dual sweep

def exact_setup(seed, tiny, workdir, threads):
    cases = []
    for label, cid, (a, b), wid, p in EXACT_CASES:
        f = mx.catalog_entry(cid, {}, mx.Domain.box([a], [b]))
        cases.append((label, f, mx.WeightFunction(wid, {}), p))
    dual_v = mx.catalog_entry("quadratic", {}, mx.Domain.box([-2.0], [2.0]))
    support = mx.SupportRestriction(region=mx.Domain.box([-1.0], [1.0]))
    return {"cases": cases,
            "m_list": [4, 16, 64] if tiny else [16, 64, 256, 1024, 2048],
            "dual": (dual_v, support), "dual_m": 32 if tiny else 512}


def _whole(outcome):
    if outcome.partial:
        raise RuntimeError(outcome.failure)
    return outcome


def _sweep(f, omega, p, m_list, strategy):
    return _whole(mx.run_sweep(f, omega, p, m_list, strategy))


def _dual_sweep(v, support, m):
    return _whole(mx.dual_approximation_sweep(
        v, support, 1.0, mx.WeightFunction.constant(), [m], "exact_1d"))


def exact_round(st):
    ops = _Operations()
    for label, f, omega, p in st["cases"]:
        for strategy in ("exact_1d", "uniform_grid"):
            ops.run(f"{label}/{strategy}", _sweep, f, omega, p, st["m_list"],
                    strategy, operations=len(st["m_list"]))
    v, support = st["dual"]
    ops.run("dual", _dual_sweep, v, support, st["dual_m"])
    return ops


def exact_export(label, out):
    if out is None:
        return None
    return {"theory": out.theory,
            "records": [{"m": r.m, "error": r.error, "ratio": r.ratio}
                        for r in out.records]}


# ---------------------------------------------------------------------------
# envelope2d: lattice envelopes and greedy insertion on a triangle


def envelope_setup(seed, tiny, workdir, threads):
    square = mx.Domain.box([0.0, 0.0], [1.0, 1.0])
    triangle = mx.Domain.polytope(TRIANGLE_A, TRIANGLE_B)
    greedy_m = [16, 64] if tiny else [256, 1024]
    return {"quad": mx.catalog_entry("quadratic", {}, square),
            "const": mx.WeightFunction.constant(),
            "ks": [4, 5] if tiny else list(range(8, 33, 4)),
            "cosh": mx.catalog_entry("cosh_quadratic", {}, triangle),
            "exp": mx.WeightFunction.exp_neg_t(), "greedy_m": greedy_m,
            # one candidate cloud for every m keeps the envelopes nested
            "cloud_size": max(20_000, 200 * max(greedy_m)), "seed": seed,
            "delta": mx.zador_reference(2, 2.0)}


def envelope_round(st):
    ops = _Operations()
    for p in (1.0, 2.0):
        for k in st["ks"]:
            ops.run(f"grid/p={p:g}/k={k}", _build_and_measure, st["quad"],
                    st["const"], p, k * k, "uniform_grid")
    ops.run("theory", _theory, st["cosh"], st["exp"], 2.0, st["delta"])
    for m in st["greedy_m"]:
        ops.run(f"greedy/m={m}", _build_and_measure, st["cosh"], st["exp"],
                2.0, m, "greedy_insertion", seed=st["seed"],
                cloud_size=st["cloud_size"])
    return ops


def envelope_export(label, out):
    if out is None or not label.startswith("grid/"):
        return partition_export(label, out)
    l, rep = out
    return {"pieces": l.npieces, **_report(rep)}


# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, setup, run_round, export,
                 pace=("array", "bytecode", "calls")):
        self.setup = setup
        self.run_round = run_round
        self._export = export
        self.pace = pace         # the parts of the speed probe (pace.py)

    def export(self, ops):
        """JSON-ready outputs of one round, keyed by operation label."""
        return {label: self._export(label, out) for label, out in ops.outputs}


WORKLOADS = {
    "lloyd2d-p1": Workload(lloyd_setup, lloyd_round, lloyd_export),
    "partition2d-p1.5": Workload(partition_setup, partition_round,
                                 partition_export),
    "exact1d": Workload(exact_setup, exact_round, exact_export),
    # its time goes to passes over large score blocks and quadrature
    # grids, which the probe's bytecode and short calls do not track
    "envelope2d": Workload(envelope_setup, envelope_round, envelope_export,
                           pace=("array", "stream")),
}
