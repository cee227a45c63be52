"""Sweeps over the piece budget m with rescaled errors and theory ratios.

For each m in the list this builds an approximation, evaluates the
weighted L^p error, rescales by m^(2p/n), and compares against the
predicted limit

    (delta/2^p) * (integral (det D^2 f)^(p/(n+2p)) omega^(n/(n+2p)) dx)^((n+2p)/n),

which is m-independent and computed once per sweep, with the bar of its
mass integral (``SweepOutcome.mass_error_bar``).  A failure at some m
aborts the sweep; the records gathered so far are returned with the
``partial`` flag set and the failure message attached.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .approximator import build_approximation
from .error_eval import weighted_lp_error
from .functionals import _mass_report, theoretical_limit, zador_reference


@dataclass
class SweepRecord:
    m: int
    error: float
    error_bar: float
    rescaled: float       # m^(2p/n) * error
    theory: float
    ratio: float          # rescaled / theory


@dataclass
class SweepOutcome:
    records: list = field(default_factory=list)
    theory: float = float("nan")
    mass_error_bar: float = float("nan")
    partial: bool = False
    failure: str = ""


def _entry_seed(seed, m):
    # distinct, deterministic per-m seeds so sweeps are reproducible
    return (int(seed) * 1_000_003 + int(m)) % (2 ** 63)


def run_sweep(f, omega, p, m_list, strategy, quad=None, seed=0, delta=None,
              threads=1, **strategy_opts):
    """Sweep the budget list and return a SweepOutcome (records sorted by m)."""
    m_list = sorted(int(m) for m in m_list)
    if not m_list or m_list[0] < 1:
        raise ValueError("m_list must contain positive integers")
    n = f.dim
    if delta is None:
        delta = zador_reference(n, p)
    mass = _mass_report(f, p, omega)
    theory = theoretical_limit(mass.value, p, n, delta)
    outcome = SweepOutcome(theory=theory, mass_error_bar=mass.error_bar)

    def run_one(m):
        l = build_approximation(f, omega, p, m, strategy,
                                seed=_entry_seed(seed, m), **strategy_opts)
        rep = weighted_lp_error(f, l, p, omega, quad)
        rescaled = m ** (2.0 * p / n) * rep.value
        return SweepRecord(m=m, error=rep.value, error_bar=rep.error_bar,
                           rescaled=rescaled, theory=theory,
                           ratio=rescaled / theory)

    jobs = [(run_one, m) for m in m_list]
    with ThreadPoolExecutor(max_workers=max(1, int(threads))) as pool:
        # the built-in map is lazy, so a serial sweep runs no budget after
        # a failure; the pool starts no thread until it is given work
        results = map(_safe, jobs) if threads <= 1 else pool.map(_safe, jobs)
        for m, res in zip(m_list, results):
            if isinstance(res, Exception):     # abort, keep partial results
                outcome.partial = True
                outcome.failure = f"m={m}: {res}"
                break
            outcome.records.append(res)
    return outcome


def _safe(job):
    fn, m = job
    try:
        return fn(m)
    except Exception as exc:
        return exc


def spearman_trend(records):
    """Spearman rank correlation of |ratio - 1| against m.

    Negative values mean the sweep is closing in on the predicted limit.
    Computed directly from rank vectors; ties get midranks.
    """
    if len(records) < 3:
        raise ValueError("need at least three records for a trend")
    ms = np.array([r.m for r in records], dtype=float)
    dev = np.array([abs(r.ratio - 1.0) for r in records])

    def ranks(v):
        order = np.argsort(v, kind="stable")
        rk = np.empty_like(v)
        rk[order] = np.arange(1.0, v.size + 1.0)
        # midranks for ties
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                rk[mask] = rk[mask].mean()
        return rk

    rm, rd = ranks(ms), ranks(dev)
    rm -= rm.mean()
    rd -= rd.mean()
    denom = np.sqrt((rm ** 2).sum() * (rd ** 2).sum())
    if denom == 0:
        return 0.0
    return float((rm * rd).sum() / denom)
