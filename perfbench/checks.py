"""Checks of the program's outputs against the benchmark's own numbers.

Nothing here imports ``maxaffine``.  Every reference value is a closed
form, a quadrature the checks make themselves, a Monte Carlo estimate
from their own sample, or a property the method must have.  None is a
stored copy of an earlier output.  Each ``check_<workload>`` takes the
worker's result and the seed and returns a list of problems; an empty
list means every output passed.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate as sp_integrate
from scipy.special import erf

from spec import EXACT_CASES, digest

CSV_HEADER = "m,error,error_bar,rescaled,theory,ratio"
CIRC_TOL = 1e-9            # l <= f + 1e-9, as the program itself demands
MC_SAMPLES = 1 << 18       # the checks' own Monte Carlo sample
MC_SIGMAS = 3.0
PROGRAM_MASS_SAMPLES = 1_000_000   # default sample of the program's mass
# ratio bands at m >= 256, justified in README.md
LLOYD_BAND = (0.94, 1.06)
PARTITION_BAND = (0.98, 1.25)
BAND_MIN_M = 256

_GX, _GW = leggauss(64)


def _rel(a, b):
    return abs(a - b) / abs(b)


def zador_1d(p):
    return 1.0 / (2.0 ** (2 * p) * (2 * p + 1))


def hexagon_moment(p):
    """Moment of order 2p of a unit-area regular hexagon about its centre,
    by Gauss-Legendre over the 12 right triangles of the hexagon."""
    apothem = (2.0 * math.sqrt(3.0)) ** -0.5
    th = (_GX + 1.0) * math.pi / 12.0
    vals = (apothem / np.cos(th)) ** (2 * p + 2) / (2 * p + 2)
    return math.pi * float(np.dot(_GW, vals))


def _limit(delta, mass, p, n):
    return delta / 2.0 ** p * mass ** ((n + 2.0 * p) / n)


# ---------------------------------------------------------------------------
# f(x) = sum cosh(x_i) (cosh_quadratic with default parameters), weight e^-f


def cosh_f(x):
    return np.sum(np.cosh(x), axis=1)


def mass_density_cosh(x, p):
    """det(D^2 f)^(p/(n+2p)) * exp(-f)^(n/(n+2p)) for f = sum cosh."""
    n = x.shape[1]
    det = np.prod(np.cosh(x), axis=1)
    return det ** (p / (n + 2 * p)) * np.exp(-cosh_f(x)) ** (n / (n + 2 * p))


def disc_mass(p, order=64):
    """Mass over the unit disc by polar Gauss-Legendre."""
    r = (_GX + 1.0) / 2.0
    th = (np.arange(2 * order) + 0.5) * math.pi / order   # periodic: midpoint
    rr, tt = np.meshgrid(r, th, indexing="ij")
    pts = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], 1)
    vals = mass_density_cosh(pts, p).reshape(rr.shape) * rr
    return float(0.5 * _GW @ vals.sum(axis=1) * math.pi / order)


def triangle_mass(p):
    """Mass over {x, y >= 0, x + y <= 1} by collapsed Gauss-Legendre."""
    u = (_GX + 1.0) / 2.0
    uu, vv = np.meshgrid(u, u, indexing="ij")
    pts = np.stack([uu.ravel(), ((1.0 - uu) * vv).ravel()], 1)
    vals = mass_density_cosh(pts, p).reshape(uu.shape) * (1.0 - uu)
    return float(0.25 * _GW @ vals @ _GW)


def sample_disc(rng, count):
    r = np.sqrt(rng.random(count))
    th = 2.0 * math.pi * rng.random(count)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def sample_triangle(rng, count):
    uv = rng.random((count, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]
    return uv


def in_disc(x, tol=0.0):
    return np.einsum("ij,ij->i", x, x) <= 1.0 + tol


def in_triangle(x, tol=0.0):
    return ((x[:, 0] >= -tol) & (x[:, 1] >= -tol)
            & (x[:, 0] + x[:, 1] <= 1.0 + tol))


def envelope_values(env, x):
    slopes = np.asarray(env["slopes"], dtype=float)
    offsets = np.asarray(env["offsets"], dtype=float)
    out = np.empty(x.shape[0])
    step = max(1, (1 << 21) // slopes.shape[0])
    for s in range(0, x.shape[0], step):
        out[s:s + step] = np.max(x[s:s + step] @ slopes.T + offsets, axis=1)
    return out


def mass_sigma(p, lo, hi, inside, rng):
    """Upper bound on the standard error of the program's mass.

    The program integrates the masked density by stratified sampling of
    the bounding square [lo, hi]^2; its variance is at most that of plain
    sampling with the same count, estimated here from the checks' own
    sample.
    """
    x = lo + rng.random((MC_SAMPLES, 2)) * (hi - lo)
    vals = np.where(inside(x), mass_density_cosh(x, p), 0.0)
    area = (hi - lo) ** 2
    return area * float(np.std(vals)) / math.sqrt(PROGRAM_MASS_SAMPLES)


class _Report:
    def __init__(self):
        self.problems = []

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)


def _check_cosh_envelope(rep, label, out, m, p, sampler, inside, area, rng):
    """Pieces, tangency, circumscription and the error of one envelope of
    f = sum cosh on a 2-d domain."""
    env = out["envelope"]
    slopes = np.asarray(env["slopes"], dtype=float)
    offsets = np.asarray(env["offsets"], dtype=float)
    rep.require(1 <= len(offsets) <= m,
                f"{label}: {len(offsets)} pieces for a budget of {m}")
    # the plane of slope s touches sum cosh at asinh(s): it must be the
    # tangent there, and the tangency point must lie in the domain (up to
    # the rounding of asinh(sinh(t)) for points on the boundary)
    touch = np.arcsinh(slopes)
    rep.require(bool(np.all(inside(touch, 1e-12))),
                f"{label}: a tangency point lies outside the domain")
    tangent_off = cosh_f(touch) - np.einsum("ij,ij->i", slopes, touch)
    off = np.max(np.abs(offsets - tangent_off) / (1.0 + np.abs(tangent_off)))
    rep.require(off <= CIRC_TOL,
                f"{label}: a piece is off the tangent plane by {off:.3e}")
    x = sampler(rng, MC_SAMPLES)
    probe = np.vstack([x, touch])
    f_probe = cosh_f(probe)
    gap = f_probe - envelope_values(env, probe)
    worst = float(-np.min(gap))
    rep.require(worst <= CIRC_TOL,
                f"{label}: envelope exceeds f by {worst:.3e}")
    fx = f_probe[:len(x)]
    g = np.maximum(gap[:len(x)], 0.0) ** p * np.exp(-fx)
    mc = area * float(np.mean(g))
    se = area * float(np.std(g)) / math.sqrt(x.shape[0])
    allowance = out["error_bar"] + MC_SIGMAS * se
    rep.require(abs(out["value"] - mc) <= allowance,
                f"{label}: error {out['value']:.6e} differs from the "
                f"checks' Monte Carlo {mc:.6e} by more than {allowance:.3e}")


def _check_theory(rep, theory_out, p, own_mass, sigma):
    mass, theory = theory_out["mass"], theory_out["theory"]
    rep.require(abs(mass - own_mass) <= MC_SIGMAS * sigma,
                f"mass {mass:.9g} differs from the checks' quadrature "
                f"{own_mass:.9g} by more than {MC_SIGMAS:g} x {sigma:.2e}")
    want = _limit(hexagon_moment(p), mass, p, 2)
    rep.require(_rel(theory, want) <= 1e-12,
                f"theory {theory!r} is not (delta/2^p) mass^((n+2p)/n) "
                f"= {want!r}")
    return theory


def _check_determinism(rep, result):
    first = digest(result["outputs"])
    rep.require(all(d == first for d in result["digests"]),
                "outputs differ between repeats of the same round")


# ---------------------------------------------------------------------------


def check_lloyd(result, seed):
    rep = _Report()
    _check_determinism(rep, result)
    out = result["outputs"]["sweep"]
    if out is None:
        return rep.problems
    rep.require(out["exit"] == 0, f"sweep exited with {out['exit']}")
    lines = out["csv"].splitlines()
    rep.require(lines[:1] == [CSV_HEADER], f"CSV header is {lines[:1]}")
    rep.require(len(lines) == 3, f"{len(lines) - 1} CSV rows for 2 budgets")
    theory_want = 5.0 * math.sqrt(3.0) / 54.0 / 2.0
    for line in lines[1:]:
        m, error, _, rescaled, theory, ratio = (float(v)
                                                for v in line.split(","))
        rep.require(_rel(theory, theory_want) <= 1e-12,
                    f"m={m:g}: theory {theory!r}, want {theory_want!r}")
        rep.require(_rel(rescaled, m * error) <= 1e-12
                    and _rel(ratio, rescaled / theory) <= 1e-12,
                    f"m={m:g}: rescaled or ratio inconsistent with error")
        if m >= BAND_MIN_M:
            rep.require(LLOYD_BAND[0] <= ratio <= LLOYD_BAND[1],
                        f"m={m:g}: ratio {ratio:.5f} outside {LLOYD_BAND}")
    return rep.problems


def check_partition(result, seed):
    rep = _Report()
    _check_determinism(rep, result)
    rng = np.random.default_rng([seed, 1])
    p = 1.5
    outputs = result["outputs"]
    theory = None
    if outputs["theory"] is not None:
        sigma = mass_sigma(p, -1.0, 1.0, in_disc, rng)
        theory = _check_theory(rep, outputs["theory"], p, disc_mass(p), sigma)
    for label, out in outputs.items():
        if label == "theory" or out is None:
            continue
        m = int(label.split("=")[1])
        _check_cosh_envelope(rep, label, out, m, p, sample_disc, in_disc,
                             math.pi, rng)
        if theory is not None and m >= BAND_MIN_M:
            ratio = m ** p * out["value"] / theory
            rep.require(PARTITION_BAND[0] <= ratio <= PARTITION_BAND[1],
                        f"{label}: ratio {ratio:.5f} outside "
                        f"{PARTITION_BAND}")
    return rep.problems


def _own_1d_mass(cid, a, b, wid, p):
    """The 1-d mass from the closed-form f'' and weight, by scipy.quad."""
    if cid == "quadratic":
        f, fpp = (lambda x: x * x / 2.0), (lambda x: 1.0)
    elif cid == "cosh_quadratic":
        f, fpp = math.cosh, math.cosh
    else:    # exp_sum with alpha 0.5, mu 0.5
        f = lambda x: math.exp(x / 2.0) + x * x / 2.0         # noqa: E731
        fpp = lambda x: math.exp(x / 2.0) / 4.0 + 1.0          # noqa: E731
    w = (lambda x: 1.0) if wid == "constant" else (lambda x: math.exp(-f(x)))
    val, _ = sp_integrate.quad(
        lambda x: fpp(x) ** (p / (1 + 2 * p)) * w(x) ** (1 / (1 + 2 * p)),
        a, b, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def check_exact(result, seed):
    rep = _Report()
    _check_determinism(rep, result)
    outputs = result["outputs"]
    for label, cid, (a, b), wid, p in EXACT_CASES:
        exact = outputs[f"{label}/exact_1d"]
        grid = outputs[f"{label}/uniform_grid"]
        if exact is None:
            continue
        if label == "quadratic-exp-p1":
            i1 = math.sqrt(1.5 * math.pi) * erf(1.0 / math.sqrt(6.0))
            want = i1 ** 3 / 24.0
        else:
            want = _limit(zador_1d(p), _own_1d_mass(cid, a, b, wid, p), p, 1)
        rep.require(_rel(exact["theory"], want) <= 1e-9,
                    f"{label}: theory {exact['theory']!r}, want {want!r}")
        for r in exact["records"]:
            if label == "quadratic-const-p1":
                rep.require(abs(24.0 * r["m"] ** 2 * r["error"] - 1) <= 1e-9,
                            f"{label}: 24 m^2 error = "
                            f"{24.0 * r['m'] ** 2 * r['error']!r} at "
                            f"m={r['m']}")
            if r["m"] >= BAND_MIN_M:
                rep.require(abs(r["ratio"] - 1.0) <= 1e-3,
                            f"{label}: ratio {r['ratio']:.6f} at m={r['m']}")
        if grid is None:
            continue
        lattice = {r["m"]: r["error"] for r in grid["records"]}
        for r in exact["records"]:
            # 1e-12 relative: both errors come from the same integrator,
            # and where the lattice is optimal they tie up to rounding
            rep.require(r["error"] <= lattice[r["m"]] * (1 + 1e-12),
                        f"{label}: exact_1d error {r['error']!r} above the "
                        f"lattice's {lattice[r['m']]!r} at m={r['m']}")
    dual = outputs["dual"]
    if dual is not None:
        rep.require(_rel(dual["theory"], 1.0 / 3.0) <= 1e-9,
                    f"dual: theory {dual['theory']!r}, want 1/3")
        for r in dual["records"]:
            rep.require(abs(r["ratio"] - 1.0) <= 0.02,
                        f"dual: ratio {r['ratio']:.5f} at m={r['m']}")
    return rep.problems


def check_envelope(result, seed):
    rep = _Report()
    _check_determinism(rep, result)
    rng = np.random.default_rng([seed, 4])
    outputs = result["outputs"]
    greedy = []
    for label, out in outputs.items():
        if out is None:
            continue
        if label.startswith("grid/"):
            _, p_part, k_part = label.split("/")
            p, k = float(p_part[2:]), int(k_part[2:])
            want = 1.0 / (12 * k ** 2) if p == 1 else 7.0 / (720 * k ** 4)
            rep.require(out["pieces"] == k * k,
                        f"{label}: {out['pieces']} pieces, want {k * k}")
            rep.require(abs(out["value"] - want)
                        <= out["error_bar"] + 1e-12 * want,
                        f"{label}: error {out['value']!r}, want {want!r} "
                        f"within {out['error_bar']:.3e}")
        elif label.startswith("greedy/"):
            m = int(label.split("=")[1])
            _check_cosh_envelope(rep, label, out, m, 2.0, sample_triangle,
                                 in_triangle, 0.5, rng)
            greedy.append((m, out))
    if outputs["theory"] is not None:
        sigma = mass_sigma(2.0, 0.0, 1.0, in_triangle, rng)
        _check_theory(rep, outputs["theory"], 2.0, triangle_mass(2.0), sigma)
    greedy.sort(key=lambda item: item[0])
    for (m0, small), (m1, large) in zip(greedy, greedy[1:]):
        k = len(small["envelope"]["offsets"])
        nested = (large["envelope"]["slopes"][:k]
                  == small["envelope"]["slopes"]
                  and large["envelope"]["offsets"][:k]
                  == small["envelope"]["offsets"])
        rep.require(nested, f"greedy m={m1} does not extend m={m0}")
        rep.require(large["value"] <= small["value"],
                    f"greedy error rises from {small['value']!r} at m={m0} "
                    f"to {large['value']!r} at m={m1}")
    return rep.problems


CHECKS = {
    "lloyd2d-p1": check_lloyd,
    "partition2d-p1.5": check_partition,
    "exact1d": check_exact,
    "envelope2d": check_envelope,
}
