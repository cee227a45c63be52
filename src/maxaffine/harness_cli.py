"""Config parsing, sweep orchestration, limit fitting, and result emission.

The config file is JSON:

    {
      "function":   {"catalog_id": "quadratic", "parameters": {...},
                     "domain": {"kind": "box", "lower": [0], "upper": [1]}},
      "weight":     {"catalog_id": "constant", "parameters": {"value": 1.0}},
      "p":          1.0,
      "strategy":   "exact_1d"            (or {"name": ..., "options": {...}}),
      "m_list":     [4, 8, 16, 32],
      "quadrature": {"kind": "tensor_grid", "level": 128, ...},
      "seed":       0,
      "output":     "results.csv",
      "support":    {...domain...}        (dual-sweep only, optional)
    }

The optional "quadrature" section overrides the rule of the error only
(``error_eval.weighted_lp_error``, exact over the envelope's cells in 1-d
and 2-d by default), never the mass's (``functionals.region_integral``).

Unknown keys are rejected with a close-match suggestion.  Results are
emitted either as CSV with the fixed header

    m,error,error_bar,rescaled,theory,ratio

at 17 significant digits (byte-identical for identical config and seed in
single-threaded mode) or as a key/value record format that parses back
without loss.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O failure.
A function of more than two dimensions is a config error (exit 2);
``zador`` estimates delta(n, p) in any dimension.
"""

import argparse
import difflib
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .approximator import STRATEGIES, build_approximation
from .convex_core import (DomainError, Domain, PiecewiseAffineMax,
                          SmoothConvexFunction, WeightError, WeightFunction,
                          max_violation, sup_gap)
from .dual_ma import (GridFunction, SupportRestriction,
                      dual_approximation_sweep, legendre_transform)
from .error_eval import QuadratureSpec, weighted_lp_error
from .functionals import (_mass_report, theoretical_limit, zador_estimate,
                          zador_reference)
from .sweep import SweepOutcome, SweepRecord, run_sweep, spearman_trend

__all__ = [
    "ConfigError", "FitResult", "parse_config", "validate_config", "sweep",
    "fit_limit", "emit", "parse_records", "main", "SweepRecord",
    "SweepOutcome", "spearman_trend",
]


class ConfigError(ValueError):
    """Configuration is malformed; reported with the offending key path."""


_TOP_KEYS = ("function", "weight", "p", "strategy", "m_list", "quadrature",
             "seed", "output", "support")
_FUNCTION_KEYS = ("catalog_id", "parameters", "domain")
_WEIGHT_KEYS = ("catalog_id", "parameters")
_QUAD_KEYS = ("kind", "level", "samples", "seed", "rel_tol")
_STRATEGY_KEYS = ("name", "options")
_CATALOG_IDS = ("quadratic", "cosh_quadratic", "exp_sum", "quartic", "huber")
_WEIGHT_IDS = ("constant", "exp_neg_t", "affine_x")


def _reject_unknown(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown config key {path}{key!r}{suffix}")


def _read_json(path):
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def parse_config(path):
    """Read and validate a JSON config file."""
    return validate_config(_read_json(path))


def _positive_p(p):
    """``p`` as a float; ConfigError unless it is a finite number > 0."""
    if (not isinstance(p, (int, float)) or isinstance(p, bool)
            or not 0 < p < math.inf):
        raise ConfigError(f"p must be a positive finite number, got {p!r}")
    return float(p)


def validate_config(raw):
    """Validate a raw config mapping and fill documented defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(raw, _TOP_KEYS, "")
    if "function" not in raw:
        raise ConfigError("config requires a 'function' section")

    fn = raw["function"]
    if not isinstance(fn, dict):
        raise ConfigError("'function' must be an object")
    _reject_unknown(fn, _FUNCTION_KEYS, "function.")
    cid = fn.get("catalog_id")
    if cid not in _CATALOG_IDS:
        hint = difflib.get_close_matches(str(cid), _CATALOG_IDS, n=2)
        raise ConfigError(f"function.catalog_id {cid!r} unknown; "
                          f"choose from {list(_CATALOG_IDS)}"
                          + (f" (close: {hint})" if hint else ""))
    if "domain" not in fn:
        raise ConfigError("function.domain is required")

    weight = raw.get("weight", {"catalog_id": "constant", "parameters": {}})
    if not isinstance(weight, dict):
        raise ConfigError("'weight' must be an object")
    _reject_unknown(weight, _WEIGHT_KEYS, "weight.")
    wid = weight.get("catalog_id", "constant")
    if wid not in _WEIGHT_IDS:
        hint = difflib.get_close_matches(str(wid), _WEIGHT_IDS, n=2)
        raise ConfigError(f"weight.catalog_id {wid!r} unknown; "
                          f"choose from {list(_WEIGHT_IDS)}"
                          + (f" (close: {hint})" if hint else ""))

    p = _positive_p(raw.get("p", 1.0))

    strategy = raw.get("strategy", "auto")
    if isinstance(strategy, dict):
        _reject_unknown(strategy, _STRATEGY_KEYS, "strategy.")
        name = strategy.get("name")
        options = strategy.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError("strategy.options must be an object")
    else:
        name, options = strategy, {}
    if name != "auto" and name not in STRATEGIES:
        hint = difflib.get_close_matches(str(name), STRATEGIES, n=3)
        raise ConfigError(f"strategy {name!r} unknown; choose from "
                          f"{list(STRATEGIES)}"
                          + (f" (close: {hint})" if hint else ""))

    m_list = raw.get("m_list", [4, 8, 16, 32])
    if (not isinstance(m_list, list) or not m_list
            or any(not isinstance(m, int) or isinstance(m, bool) or m < 1
                   for m in m_list)):
        raise ConfigError("m_list must be a non-empty list of integers >= 1")

    quad = raw.get("quadrature", {})
    if not isinstance(quad, dict):
        raise ConfigError("'quadrature' must be an object")
    _reject_unknown(quad, _QUAD_KEYS, "quadrature.")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    output = raw.get("output", "")
    if not isinstance(output, str):
        raise ConfigError("output must be a path string")

    cfg = {
        "function": {"catalog_id": cid,
                     "parameters": fn.get("parameters", {}),
                     "domain": fn["domain"]},
        "weight": {"catalog_id": wid,
                   "parameters": weight.get("parameters", {})},
        "p": p,
        "strategy": {"name": name, "options": options},
        "m_list": list(m_list),
        "quadrature": dict(quad),
        "seed": seed,
        "output": output,
    }
    if "support" in raw:
        cfg["support"] = raw["support"]
    return cfg


def build_objects(cfg):
    """Instantiate (function, weight, quadrature spec or None) from a config."""
    try:
        f = SmoothConvexFunction.from_config(cfg["function"])
    except (DomainError, ValueError, KeyError) as exc:
        raise ConfigError(f"function section invalid: {exc}") from exc
    try:
        omega = WeightFunction.from_config(cfg["weight"])
        omega.validate_positive(f.domain)
    except (WeightError, ValueError, KeyError) as exc:
        raise ConfigError(f"weight section invalid: {exc}") from exc
    quad = None
    if cfg["quadrature"]:
        try:
            quad = QuadratureSpec(**cfg["quadrature"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"quadrature section invalid: {exc}") from exc
    return f, omega, quad


def _resolve_strategy(cfg, f):
    name = cfg["strategy"]["name"]
    if name == "auto":
        name = "exact_1d" if f.dim == 1 else "global_density"
    return name, dict(cfg["strategy"]["options"])


def sweep(config, threads=1):
    """Run the configured sweep; returns a SweepOutcome (records by m)."""
    f, omega, quad = build_objects(config)
    name, options = _resolve_strategy(config, f)
    return run_sweep(f, omega, config["p"], config["m_list"], name,
                     quad=quad, seed=config["seed"], threads=threads,
                     **options)


# ---------------------------------------------------------------------------
# limit extrapolation


@dataclass
class FitResult:
    c_infinity: float
    amplitude: float
    exponent: float
    residual: float
    degenerate: bool = False


def fit_limit(records):
    """Fit rescaled_m = c_inf + b * m^(-s) over the sweep records.

    The exponent s is scanned on [0.25, 4]; for each candidate the linear
    part is solved by least squares and the best residual wins.  Fewer
    than four distinct m (or an ill-conditioned fit) returns the last
    rescaled value with the degenerate flag set.
    """
    ms = np.array([r.m for r in records], dtype=float)
    ys = np.array([r.rescaled for r in records], dtype=float)
    if len(records) < 4 or np.unique(ms).size < 4:
        last = float(ys[-1]) if ys.size else float("nan")
        return FitResult(c_infinity=last, amplitude=0.0, exponent=1.0,
                         residual=float("nan"), degenerate=True)
    best = None
    for s in np.linspace(0.25, 4.0, 151):
        design = np.column_stack([np.ones_like(ms), ms ** (-s)])
        coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
        if rank < 2 or not np.all(np.isfinite(coef)):
            continue
        resid = float(np.linalg.norm(design @ coef - ys))
        if best is None or resid < best[0]:
            best = (resid, float(coef[0]), float(coef[1]), float(s))
    if best is None:
        return FitResult(c_infinity=float(ys[-1]), amplitude=0.0,
                         exponent=1.0, residual=float("nan"), degenerate=True)
    resid, c, b, s = best
    if abs(b) <= 1e-10 * max(abs(c), 1e-300):
        b = 0.0
    return FitResult(c_infinity=c, amplitude=b, exponent=s, residual=resid,
                     degenerate=False)


# ---------------------------------------------------------------------------
# emission

def _fmt(x):
    return f"{x:.17g}"


def _texts(obj):
    """The fields of a SweepRecord or FitResult as text: an int or bool as
    its integer, a float at %.17g so it round-trips."""
    return [str(int(getattr(obj, fd.name))) if fd.type in (int, bool)
            else _fmt(getattr(obj, fd.name)) for fd in fields(obj)]


def emit(payload, fmt="csv", path=None):
    """Serialize records or a fit result; returns the text, optionally
    writing it to ``path``.  A CSV has a header of the field names; the
    record format puts one ``name value`` line per field and a blank line
    between records."""
    if fmt not in ("csv", "record"):
        raise ConfigError(f"unknown output format {fmt!r}")
    if isinstance(payload, SweepOutcome):
        payload = payload.records
    cls = FitResult if isinstance(payload, FitResult) else SweepRecord
    items = [payload] if cls is FitResult else list(payload)
    names = [fd.name for fd in fields(cls)]
    if fmt == "csv":
        text = "\n".join([",".join(names)]
                         + [",".join(_texts(r)) for r in items]) + "\n"
    else:
        text = "\n\n".join(
            "\n".join(f"{k} {v}" for k, v in zip(names, _texts(r)))
            for r in items) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_records(text):
    """Parse the record format (or record-format fit) back to objects,
    converting each value by its field's type."""
    blocks = [b for b in text.strip().split("\n\n") if b.strip()]
    out = []
    for block in blocks:
        values = dict(line.partition(" ")[::2] for line in block.splitlines()
                      if line.strip())
        cls = FitResult if "c_infinity" in values else SweepRecord
        out.append(cls(**{
            fd.name: (bool(int(values[fd.name])) if fd.type is bool
                      else fd.type(values[fd.name]))
            for fd in fields(cls)}))
    return out


# ---------------------------------------------------------------------------
# CLI


def _add_common(sub):
    sub.add_argument("--config", help="path to a JSON config file")
    sub.add_argument("--out", help="output path (default: config output/stdout)")
    sub.add_argument("--format", choices=("csv", "record"), default="csv")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--threads", type=int,
                     help="worker threads (default MAXAFFINE_THREADS or 1)")
    sub.add_argument("--m-list", help="comma-separated budgets, e.g. 4,8,16")
    sub.add_argument("--p", type=float, help="override the config p")
    sub.add_argument("--strategy", help="override the config strategy")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="maxaffine",
        description="Max-affine approximation sweeps for smooth convex "
                    "functions, with quantizer-based placement and "
                    "asymptotic-law comparisons.")
    sub = ap.add_subparsers(dest="verb", required=True)

    for verb, desc in (
            ("approximate", "build one envelope and save its pieces"),
            ("error", "evaluate the weighted L^p error of a saved envelope"),
            ("sweep", "sweep the budget list and emit records"),
            ("zador", "estimate the quantization constant empirically"),
            ("functional", "weighted mass and predicted limit for a config"),
            ("legendre", "discrete Legendre transform of the function"),
            ("dual-sweep", "sweep on the declared Monge-Ampere support")):
        s = sub.add_parser(verb, help=desc)
        _add_common(s)
        if verb == "approximate":
            s.add_argument("--m", type=int, help="piece budget (default: "
                                                 "largest m_list entry)")
        if verb == "error":
            s.add_argument("--envelope", required=True,
                           help="path to a saved envelope")
        if verb == "zador":
            s.add_argument("--n", type=int, default=2, help="dimension")
            s.add_argument("--trials", type=int, default=8,
                           help="Lloyd runs per budget (n >= 2; at n = 1 "
                                "the estimate is exact and takes one)")
        if verb == "legendre":
            s.add_argument("--grid", type=int, default=257,
                           help="primal nodes per axis")
            s.add_argument("--dual-grid", type=int, default=None,
                           help="dual nodes per axis (default: same)")
        if verb in ("sweep", "dual-sweep"):
            s.add_argument("--fit", action="store_true",
                           help="append a limit extrapolation to stderr")
    return ap


def _check_floors(args):
    """A config error for an integer flag below its least value."""
    for name, floor in (("seed", 0), ("threads", 1), ("m", 1), ("n", 1),
                        ("trials", 1), ("grid", 2), ("dual_grid", 2)):
        value = getattr(args, name, None)
        if value is not None and value < floor:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least "
                              f"{floor}, got {value}")


def _threads(args):
    if args.threads is not None:
        return args.threads
    env = os.environ.get("MAXAFFINE_THREADS", "")
    try:
        threads = int(env) if env else 1
    except ValueError:
        raise ConfigError(f"MAXAFFINE_THREADS must be an integer, got {env!r}")
    if threads < 1:
        raise ConfigError(f"MAXAFFINE_THREADS must be at least 1, got {env!r}")
    return threads


def _m_list(text):
    """Budgets from a comma-separated ``--m-list``."""
    try:
        m_list = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"--m-list must be integers, got {text!r}")
    if not m_list or min(m_list) < 1:
        raise ConfigError("--m-list entries must be >= 1")
    return m_list


def _load_config(args):
    """The ``--config`` file with the command-line overrides applied; both
    go through :func:`validate_config`."""
    if not args.config:
        raise ConfigError("this verb needs --config")
    raw = _read_json(args.config)
    if isinstance(raw, dict):
        for key, value in (("seed", args.seed), ("p", args.p),
                           ("strategy", args.strategy)):
            if value is not None:
                raw[key] = value
        if args.m_list:
            raw["m_list"] = _m_list(args.m_list)
    return validate_config(raw)


def _write_text(text, args):
    """Print ``text`` and write it to ``--out`` when given."""
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _emit_outcome(outcome, cfg, args):
    path = args.out or cfg.get("output") or None
    text = emit(outcome.records, fmt=args.format, path=path)
    if not path:
        sys.stdout.write(text)
    if getattr(args, "fit", False):
        fit = fit_limit(outcome.records)
        sys.stderr.write(emit(fit, fmt="record"))
    if outcome.partial:
        sys.stderr.write(f"sweep aborted early: {outcome.failure}\n")
        return 3
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args)
    outcome = sweep(cfg, threads=_threads(args))
    return _emit_outcome(outcome, cfg, args)


def _cmd_dual_sweep(args):
    cfg = _load_config(args)
    f, omega, quad = build_objects(cfg)
    name, options = _resolve_strategy(cfg, f)
    if "support" in cfg:
        try:
            supp = SupportRestriction(region=Domain.from_config(cfg["support"]))
        except (DomainError, KeyError) as exc:
            raise ConfigError(f"support section invalid: {exc}") from exc
    else:
        supp = SupportRestriction(region=f.domain)
    outcome = dual_approximation_sweep(f, supp, cfg["p"], omega,
                                       cfg["m_list"], name, seed=cfg["seed"],
                                       quad=quad, **options)
    return _emit_outcome(outcome, cfg, args)


def _cmd_approximate(args):
    cfg = _load_config(args)
    f, omega, _ = build_objects(cfg)
    name, options = _resolve_strategy(cfg, f)
    m = max(cfg["m_list"]) if args.m is None else args.m
    l = build_approximation(f, omega, cfg["p"], m, name, seed=cfg["seed"],
                            **options)
    rng = np.random.default_rng(cfg["seed"])
    probe = f.domain.sample(rng, 4096)
    sys.stdout.write(f"pieces {len(l.offsets)}\n"
                     f"max_violation {_fmt(max_violation(f, l, probe))}\n"
                     f"sup_gap {_fmt(sup_gap(f, l, probe))}\n")
    path = args.out or cfg.get("output")
    if path:
        l.save_text(path)
    return 0


def _cmd_error(args):
    cfg = _load_config(args)
    f, omega, quad = build_objects(cfg)
    l = PiecewiseAffineMax.load_text(args.envelope)
    rep = weighted_lp_error(f, l, cfg["p"], omega, quad)
    sys.stdout.write(f"value {_fmt(rep.value)}\n"
                     f"error_bar {_fmt(rep.error_bar)}\n"
                     f"nodes_used {rep.nodes_used}\n")
    return 0


def _cmd_zador(args):
    p = _positive_p(1.0 if args.p is None else args.p)
    m_list = _m_list(args.m_list) if args.m_list else [256, 512]
    seed = args.seed if args.seed is not None else 0
    est = zador_estimate(args.n, p, m_list, trials=args.trials, seed=seed)
    lines = [f"estimate {_fmt(est.value)}",
             f"half_width {_fmt(est.half_width)}"]
    try:
        ref = zador_reference(args.n, p)
        lines.append(f"reference {_fmt(ref.value)}")
        lines.append(f"relative_gap {_fmt(est.value / ref.value - 1.0)}")
    except ValueError:
        lines.append("reference none")
    return _write_text("\n".join(lines) + "\n", args)


def _cmd_functional(args):
    cfg = _load_config(args)
    f, omega, _ = build_objects(cfg)
    mass = _mass_report(f, cfg["p"], omega)
    delta = zador_reference(f.dim, cfg["p"])
    theory = theoretical_limit(mass.value, cfg["p"], f.dim, delta)
    lines = [f"mass {_fmt(mass.value)}",
             f"mass_error_bar {_fmt(mass.error_bar)}",
             f"delta {_fmt(delta.value)}",
             f"theory {_fmt(theory)}"]
    return _write_text("\n".join(lines) + "\n", args)


def _cmd_legendre(args):
    cfg = _load_config(args)
    f, _, _ = build_objects(cfg)
    lo, hi = f.domain.bounding_box()
    counts = [args.grid] * f.dim
    gf = GridFunction.from_function(f, lo, hi, counts)
    bound = f.lipschitz_bound * 1.05 + 1e-9
    dual_counts = [args.dual_grid or args.grid] * f.dim
    star = legendre_transform(gf, [-bound] * f.dim, [bound] * f.dim,
                              dual_counts)
    sys.stdout.write(f"truncated {int(star.truncated)}\n"
                     f"dual_bound {_fmt(bound)}\n")
    path = args.out or cfg.get("output")
    if path:
        star.save_text(path)
    return 0


_DISPATCH = {
    "sweep": _cmd_sweep,
    "dual-sweep": _cmd_dual_sweep,
    "approximate": _cmd_approximate,
    "error": _cmd_error,
    "zador": _cmd_zador,
    "functional": _cmd_functional,
    "legendre": _cmd_legendre,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:        # argparse uses 2 for bad usage
        return int(exc.code or 0)
    try:
        _check_floors(args)
        return _DISPATCH[args.verb](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    # every numeric error of the package subclasses one of these
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
