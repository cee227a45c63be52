"""End-to-end acceptance checks for the convergence law and its plumbing.

Each test covers one shipping criterion, prints a single verdict line
(visible under ``pytest -s``), and enforces the stated tolerance and
runtime budget.  Numbers quoted as theory come from closed forms or from
the frozen quadrature/lattice oracles in the module tests.
"""

import time

import numpy as np
import pytest

from maxaffine import (
    Domain,
    GridFunction,
    SupportRestriction,
    WeightFunction,
    allocate_budget,
    build_approximation,
    catalog_entry,
    dual_approximation_sweep,
    is_circumscribed,
    legendre_transform,
    monge_ampere_det,
    monge_ampere_subgradient,
    partition_domain,
    run_sweep,
    weighted_affine_surface,
    weighted_lp_error,
    weighted_mass,
)
from maxaffine.functionals import ZadorConstant, zador_reference
from maxaffine.harness_cli import main
from maxaffine.quantizer import brute_force_1d
from conftest import rng_for

HEX_MOMENT_P1 = 0.16037507477489604   # full-norm hexagonal constant, n=2 p=1
I1 = 0.9471154700090483               # int_0^1 exp(-x^2/6) dx


def _verdict(k, ok, detail):
    print(f"ACCEPTANCE {k} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {k}: {detail}"


def _uniform_cell_distortion(points, p):
    """Exact uniform-density distortion of a 1-d quantizer on [0, 1]."""
    t = np.sort(points)
    edges = np.concatenate([[0.0], 0.5 * (t[1:] + t[:-1]), [1.0]])
    q = 2.0 * p + 1.0
    left = t - edges[:-1]
    right = edges[1:] - t
    return float(np.sum(left ** q + right ** q) / q)


def test_criterion_1_unweighted_1d_law(quad_1d, w_const):
    start = time.perf_counter()
    # the quantization constant enters as m^{2p} times the brute-force
    # optimum; freeze it from the oracle rather than trusting a formula
    delta_hat = {m: m ** 2 * _uniform_cell_distortion(
        brute_force_1d(m, 1.0).points.ravel(), 1.0) for m in (2, 3, 4)}
    assert all(abs(d - 1 / 12) < 1e-6 for d in delta_hat.values()), delta_hat
    delta = ZadorConstant(n=1, p=1.0, value=delta_hat[4],
                          provenance="brute_force_oracle", half_width=0.0)

    m_list = [2 ** k for k in range(10)]  # 1 .. 512
    out = run_sweep(quad_1d, w_const, 1.0, m_list, "exact_1d", delta=delta)
    elapsed = time.perf_counter() - start
    rel = max(abs(r.rescaled * 24.0 - 1.0) for r in out.records)
    ok = (not out.partial and len(out.records) == 10
          and rel <= 1e-9 and elapsed < 1.0)
    _verdict(1, ok, f"rescaled=1/24 worst rel {rel:.3e}, "
                    f"theory {out.theory:.10f}, {elapsed:.2f}s")


def test_criterion_2_p2_law(quad_1d, w_const):
    start = time.perf_counter()
    m_list = [2 ** k for k in range(9)]  # 1 .. 256
    exact = run_sweep(quad_1d, w_const, 2.0, m_list, "exact_1d")
    rel = max(abs(r.rescaled * 320.0 - 1.0) for r in exact.records)
    lloyd = run_sweep(quad_1d, w_const, 2.0, [256], "global_density",
                      seed=0, restarts=2)
    gap = abs(lloyd.records[0].ratio - 1.0)
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-9 and gap <= 0.01 and elapsed < 10.0
    _verdict(2, ok, f"m^4*err=1/320 worst rel {rel:.3e}, "
                    f"Lloyd@256 gap {gap:.4%}, {elapsed:.1f}s")


def test_criterion_3_weighted_1d_law(quad_1d, w_exp):
    start = time.perf_counter()
    out = run_sweep(quad_1d, w_exp, 1.0, [512], "exact_1d")
    elapsed = time.perf_counter() - start
    theory_rel = abs(out.theory / (I1 ** 3 / 24.0) - 1.0)
    ratio = out.records[-1].ratio
    ok = theory_rel <= 1e-9 and 0.98 <= ratio <= 1.02 and elapsed < 30.0
    _verdict(3, ok, f"theory {out.theory:.9f} (rel {theory_rel:.2e} to "
                    f"I1^3/24), ratio@512 {ratio:.7f}, {elapsed:.1f}s")


def test_criterion_4_2d_law(quad_2d, w_const):
    start = time.perf_counter()
    out = run_sweep(quad_2d, w_const, 1.0, [1024], "global_density",
                    seed=0, restarts=4)
    elapsed = time.perf_counter() - start
    ratio = out.records[-1].ratio
    # (delta_2/2) * mass^2 with the hexagonal-lattice constant
    ok = (abs(out.theory - HEX_MOMENT_P1 / 2.0) <= 1e-12
          and abs(out.theory / 0.0801875 - 1.0) < 1e-5
          and 0.94 <= ratio <= 1.06 and elapsed < 120.0)
    _verdict(4, ok, f"theory {out.theory:.7f}, ratio@1024 {ratio:.5f}, "
                    f"{elapsed:.0f}s")


def test_criterion_5_zador_verb(capsys):
    start = time.perf_counter()

    def run(n, m):
        code = main(["zador", "--n", str(n), "--m-list", str(m),
                     "--trials", "8"])
        assert code == 0
        out = capsys.readouterr().out
        return dict(line.split(" ", 1) for line in out.strip().split("\n"))

    one = run(1, 64)
    two = run(2, 1024)
    elapsed = time.perf_counter() - start
    gap1 = abs(float(one["relative_gap"]))
    gap2 = abs(float(two["relative_gap"]))
    ref2 = float(two["reference"])
    # the n=2 reference halves to the lattice value 5/(36 sqrt 3)
    ok = (float(one["reference"]) == pytest.approx(1 / 12, rel=1e-12)
          and ref2 / 2.0 == pytest.approx(5.0 / (36.0 * np.sqrt(3.0)),
                                          rel=1e-12)
          and gap1 <= 0.03 and gap2 <= 0.05 and elapsed < 120.0)
    _verdict(5, ok, f"n=1 gap {gap1:.4%} (<=3%), n=2 gap {gap2:.4%} (<=5%), "
                    f"{elapsed:.0f}s")


def test_criterion_6_property_suite(quad_2d, w_const):
    start = time.perf_counter()
    catalog = ("quadratic", "cosh_quadratic", "exp_sum", "quartic", "huber")
    strategies = ("paper_partition", "global_density", "greedy_insertion",
                  "uniform_grid", "exact_1d")
    dom1 = Domain.box([-1.0], [1.0])
    dom2 = Domain.box([-1.0, -1.0], [1.0, 1.0])

    # (a) circumscription across every strategy x catalog pair
    worst_pair, worst = None, 0.0
    for ci, cid in enumerate(catalog):
        for si, strategy in enumerate(strategies):
            f = catalog_entry(cid, {}, dom1 if strategy == "exact_1d"
                              else dom2)
            l = build_approximation(f, w_const, 1.0, 16, strategy,
                                    seed=ci * 7 + si)
            pts = f.domain.sample(rng_for("acc6-circ", ci * 5 + si), 100_000)
            ok_pair, violation = is_circumscribed(f, l, pts)
            if violation > worst:
                worst_pair, worst = (cid, strategy), violation
    circ_ok = worst <= 1e-12

    # (b) greedy error monotone in m at fixed candidate nodes
    errs = [weighted_lp_error(
        quad_2d, build_approximation(quad_2d, w_const, 1.0, m,
                                     "greedy_insertion", seed=3,
                                     cloud_size=20_000),
        1.0, w_const).value for m in (4, 8, 16, 32)]
    greedy_ok = all(a >= b for a, b in zip(errs, errs[1:]))

    # (c) affine covariance: T = diag(2, 1/2), det T = 1
    t = np.diag([2.0, 0.5])
    g = catalog_entry("quadratic", {"hessian": (t.T @ t).tolist()},
                      Domain.box([0.0, 0.0], [0.5, 2.0]))
    l = build_approximation(quad_2d, w_const, 1.0, 9, "uniform_grid")
    base = weighted_lp_error(quad_2d, l, 1.0, w_const).value
    mapped = weighted_lp_error(g, l.compose_linear(t), 1.0, w_const).value
    affine_rel = abs(mapped * abs(np.linalg.det(t)) / base - 1.0)
    affine_ok = affine_rel <= 1e-6

    # (d) vertical shift leaves the error invariant
    l0 = build_approximation(quad_2d, w_const, 1.0, 8, "global_density",
                             seed=1)
    l1 = build_approximation(quad_2d.with_offset(3.25), w_const, 1.0, 8,
                             "global_density", seed=1)
    e0 = weighted_lp_error(quad_2d, l0, 1.0, w_const).value
    e1 = weighted_lp_error(quad_2d.with_offset(3.25), l1, 1.0, w_const).value
    shift_rel = abs(e1 / e0 - 1.0)
    shift_ok = shift_rel <= 1e-12

    # (e) budget floors on 100 random configurations
    budget_ok = True
    for i in range(100):
        rng = rng_for("acc6-budget", i)
        mat = rng.normal(size=(2, 2))
        f = catalog_entry("quadratic",
                          {"hessian": (mat.T @ mat
                                       + 0.2 * np.eye(2)).tolist()}, dom2)
        part = partition_domain(f, int(rng.integers(1, 5)))
        m = int(rng.integers(len(part.cells), 65))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        alloc = allocate_budget(part, f, w_const, p, m)
        floors = np.floor(alloc.masses * m).astype(int)
        if floors.sum() > m or alloc.budgets.sum() != m:
            budget_ok = False
            break

    elapsed = time.perf_counter() - start
    ok = all([circ_ok, greedy_ok, affine_ok, shift_ok, budget_ok])
    _verdict(6, ok, f"violation {worst:.2e} (worst {worst_pair}), greedy "
                    f"{'mono' if greedy_ok else 'BROKEN'}, affine rel "
                    f"{affine_rel:.2e}, shift rel {shift_rel:.2e}, budgets "
                    f"{'ok' if budget_ok else 'BROKEN'}, {elapsed:.0f}s")


def test_criterion_7_dual_suite(quad_2d, w_exp, w_const):
    start = time.perf_counter()

    # (a) involution at 512 nodes for the quadratic on [-1, 1]
    gf = GridFunction.from_function(lambda x: 0.5 * x[:, 0] ** 2,
                                    [-1.0], [1.0], [512])
    dual = legendre_transform(gf, [-1.0], [1.0], [512])
    back = legendre_transform(dual, [-1.0], [1.0], [512])
    inv_err = float(np.max(np.abs(back.values - gf.values)))

    # (b) quartic transform against (3/4) y^{4/3} on [0, 1]
    quart = GridFunction.from_function(lambda x: 0.25 * x[:, 0] ** 4,
                                       [-1.3], [1.3], [2001])
    qdual = legendre_transform(quart, [-2.2], [2.2], [441])
    y = qdual.axes()[0]
    sel = (y >= 0.0) & (y <= 1.0)
    quart_err = float(np.max(np.abs(
        qdual.values[sel] - 0.75 * y[sel] ** (4.0 / 3.0))))

    # (c) Monge-Ampere cross-check on every strictly convex entry
    dom2 = Domain.box([-1.0, -1.0], [1.0, 1.0])
    ma_rel = 0.0
    for cid in ("quadratic", "cosh_quadratic", "exp_sum", "quartic"):
        f = catalog_entry(cid, {}, dom2)
        det = monge_ampere_det(f)
        sub = monge_ampere_subgradient(f)
        ma_rel = max(ma_rel, abs(sub / det - 1.0))

    # (d) surface functional is the p=1 mass with weight e^{-t}
    surf = weighted_affine_surface(quad_2d, SupportRestriction(quad_2d.domain))
    mass = weighted_mass(quad_2d, 1.0, w_exp)
    surf_rel = abs(surf / mass - 1.0)

    # (e) dual sweep on supp = [-1, 1]: mass 2, limit (1/24) * 8
    dom1 = Domain.box([-1.0], [1.0])
    v = catalog_entry("quadratic", {"hessian": [[1.0]]}, dom1)
    out = dual_approximation_sweep(v, SupportRestriction(dom1), 1.0, w_const,
                                   [512], "exact_1d")
    ratio = out.records[-1].ratio

    elapsed = time.perf_counter() - start
    ok = (inv_err <= 1e-4 and quart_err <= 1e-3 and ma_rel <= 0.02
          and surf_rel <= 1e-12 and 0.98 <= ratio <= 1.02
          and abs(out.theory / (1.0 / 3.0) - 1.0) <= 1e-9)
    _verdict(7, ok, f"involution {inv_err:.2e}, quartic {quart_err:.2e}, "
                    f"MA rel {ma_rel:.2e}, surface rel {surf_rel:.2e}, "
                    f"dual ratio@512 {ratio:.6f}, {elapsed:.0f}s")
