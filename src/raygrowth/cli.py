"""Command-line front end.

Subcommands: indicator, zeros, mellin-verify, simulate, solve-order,
counterexample.  Every table carries a provenance header echoing the full
resolved configuration and the library version; re-running from that echoed
configuration reproduces the output byte for byte.  Exit codes: 0 success,
2 tolerance/verification failure, 3 domain or strip error, 4 parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    CountMismatchError,
    DomainError,
    ParseError,
    RayGrowthError,
)
from .indicator import (
    angular_shape,
    indicator_closed,
    indicator_integral,
    indicator_near_pi,
    order_equation_range,
    order_equation_rhs,
    solve_order,
    zero_set,
)
from .kernels import ProblemParams, h_value
from .mellin import MellinStrip, QuadratureSpec, mellin_h_closed, mellin_numeric
from .potential import (
    counterexample_u0,
    parse_mass_model,
    ratio_probe,
    scaled_limit,
)

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_DOMAIN = 3
EXIT_PARSE = 4


def _fmt(x) -> str:
    """17-significant-digit text for floats; plain text otherwise."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


@dataclass
class RunConfig:
    """Resolved invocation: command plus every knob, all serializable."""

    command: str
    options: dict

    def echo_lines(self):
        yield f"command={self.command}"
        for k in sorted(self.options):
            v = self.options[k]
            if v is None:
                continue
            yield f"{k}={v}"


def parse_angle(token: str, params: ProblemParams | None = None) -> float:
    """Angle token to radians: '1.2', '1.2rad', '130deg', or 'root'/'rootK'."""
    token = token.strip()
    if token.startswith("root"):
        if params is None:
            raise ParseError("root angles need n and rho")
        try:
            idx = int(token[4:]) if len(token) > 4 else 0
        except ValueError:
            raise ParseError(f"bad root index in angle token {token!r}") from None
        roots = zero_set(params).roots
        if not 0 <= idx < len(roots):
            raise ParseError(f"root index {idx} out of range (have {len(roots)})")
        return roots[idx]
    try:
        if token.endswith("deg"):
            return math.radians(float(token[:-3]))
        if token.endswith("rad"):
            return float(token[:-3])
        return float(token)
    except ValueError:
        raise ParseError(f"bad angle token {token!r}") from None


def _parse_grid(token: str):
    parts = token.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be lo:hi:num, got {token!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"bad grid {token!r}") from None


def read_config_file(path: str) -> dict:
    """key=value per line, '#' comments; keys mirror the long option names."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", line=lineno)
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _emit(rows, columns, config: RunConfig, fmt: str, out_path: str | None):
    if fmt == "csv":
        lines = [f"# raygrowth {__version__}"]
        lines.extend(f"# {eline}" for eline in config.echo_lines())
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "version": __version__,
            "config": dict(line.split("=", 1) for line in config.echo_lines()),
            "columns": list(columns),
            "rows": [{c: _json_safe(row[c]) for c in columns} for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad_from(tol: float | None) -> QuadratureSpec:
    if tol is None:
        return QuadratureSpec()
    return QuadratureSpec(rel_tol=min(tol, 1e-8), abs_tol=min(tol, 1e-10) * 1e-2)


# ---------------------------------------------------------------------------
# subcommands

def cmd_indicator(args) -> int:
    params = ProblemParams(args.n, args.rho, args.delta)
    tol = args.tol if args.tol is not None else 1e-6
    thetas = [parse_angle(tok, params) for tok in args.theta.split(",")]
    quad = _quad_from(args.tol)
    config = RunConfig("indicator", {
        "n": args.n, "rho": _fmt(args.rho), "delta": _fmt(args.delta),
        "theta": ",".join(_fmt(t) + "rad" for t in thetas),
        "tol": _fmt(tol), "format": args.format, "seed": args.seed,
    })
    rows = []
    failed = False
    for th in thetas:
        if th == math.pi:
            rows.append({
                "theta1_rad": th, "theta1_deg": 180.0,
                "H_closed": float("-inf"), "H_integral": float("nan"),
                "H_asymptotic": float("-inf"), "abs_diff": float("nan"),
            })
            continue
        hc = float(indicator_closed(params, th))
        hi, res = indicator_integral(params, th, quad, full_output=True)
        ha = float(indicator_near_pi(params, th)) if th > math.pi - 0.5 else float("nan")
        diff = abs(hc - hi)
        if diff > tol * max(1.0, abs(hc)):
            failed = True
        if not res.converged:
            print(f"raygrowth: quadrature flagged at theta1={_fmt(th)}: {res.message}", file=sys.stderr)
            failed = True
        rows.append({
            "theta1_rad": th, "theta1_deg": math.degrees(th),
            "H_closed": hc, "H_integral": hi, "H_asymptotic": ha, "abs_diff": diff,
        })
    columns = ["theta1_rad", "theta1_deg", "H_closed", "H_integral", "H_asymptotic", "abs_diff"]
    _emit(rows, columns, config, args.format, args.out)
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_zeros(args) -> int:
    params = ProblemParams(args.n, args.rho, args.delta)
    config = RunConfig("zeros", {
        "n": args.n, "rho": _fmt(args.rho), "format": args.format, "seed": args.seed,
    })
    zset = zero_set(params)  # raises CountMismatchError -> exit 2
    residuals = np.abs(angular_shape(args.n, args.rho, np.array(zset.roots))).tolist()
    rows = []
    for i, (beta, residual) in enumerate(zip(zset.roots, residuals)):
        rows.append({
            "n": args.n, "rho": args.rho, "root_index": i,
            "beta_deg": math.degrees(beta), "beta_rad": beta,
            "residual": residual, "count": len(zset.roots),
        })
    columns = ["n", "rho", "root_index", "beta_deg", "beta_rad", "residual", "count"]
    _emit(rows, columns, config, args.format, args.out)
    return EXIT_OK


_MELLIN_GRID_LAM = (0.5, 1.0, 1.5, 2.5)
_MELLIN_GRID_Q = (0, 1, 2)
_MELLIN_GRID_XI = (-0.8, -0.3, 0.0, 0.4, 0.9)
_MELLIN_VERIFY_QUAD = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)


def cmd_mellin_verify(args) -> int:
    tol = args.tol if args.tol is not None else 1e-8
    quad = _MELLIN_VERIFY_QUAD
    config = RunConfig("mellin-verify", {
        "tol": _fmt(tol), "samples": args.samples, "format": args.format, "seed": args.seed,
    })
    cases = [
        (lam, q, -q - 0.5, xi)
        for lam in _MELLIN_GRID_LAM for q in _MELLIN_GRID_Q for xi in _MELLIN_GRID_XI
    ]
    if args.samples:
        rng = np.random.default_rng(args.seed)
        for _ in range(args.samples):
            lam = float(rng.uniform(0.3, 3.0))
            q = int(rng.integers(0, 3))
            s = -q - float(rng.uniform(0.1, 0.9))
            xi = float(rng.uniform(-0.95, 0.95))
            cases.append((lam, q, s, xi))
    rows = []
    failed = False
    for lam, q, s, xi in cases:
        num = mellin_numeric(
            lambda u: h_value(lam, q, u, xi), s, quad, MellinStrip.principal_for_h(q)
        )
        closed = complex(mellin_h_closed(lam, q, s, xi)).real
        rel = abs(complex(num.value).real - closed) / max(1e-300, abs(closed))
        if rel > tol:
            failed = True
        if not num.converged:
            print(f"raygrowth: quadrature flagged at lam={_fmt(lam)} q={q} s={_fmt(s)} "
                  f"xi={_fmt(xi)}: {num.message}", file=sys.stderr)
            failed = True
        rows.append({
            "lam": lam, "q": q, "s": s, "xi": xi,
            "numeric": complex(num.value).real, "closed": closed, "rel_err": rel,
        })
    columns = ["lam", "q", "s", "xi", "numeric", "closed", "rel_err"]
    _emit(rows, columns, config, args.format, args.out)
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_simulate(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = parse_mass_model(fh.read())
    params = ProblemParams(args.n, args.rho, args.delta)
    thetas = [parse_angle(tok, params) for tok in args.theta.split(",")]
    grid = _parse_grid(args.grid) if args.grid else (1e2, 1e6, 9)
    tol = args.tol if args.tol is not None else 0.05
    ratios = bool(args.ratios)
    config = RunConfig("simulate", {
        "n": args.n, "rho": _fmt(args.rho), "delta": _fmt(args.delta),
        "model": args.model,
        "theta": ",".join(_fmt(t) + "rad" for t in thetas),
        "grid": f"{_fmt(grid[0])}:{_fmt(grid[1])}:{grid[2]}",
        "tol": _fmt(tol), "ratios": int(ratios), "format": args.format, "seed": args.seed,
    })
    quad = _quad_from(None)
    rows = []
    flagged = 0
    for th in thetas:
        probe = ratio_probe if ratios else scaled_limit
        res = probe(model, params, th, grid, quad=quad, sweep_tol=tol)
        if res.quadrature_flags:
            print(f"raygrowth: quadrature flagged at theta1={_fmt(th)}: {res.diagnostics}", file=sys.stderr)
            flagged += res.quadrature_flags
        oracle = float(indicator_closed(params, th))
        denom = max(1e-300, abs(oracle))
        for s in res.samples:
            rows.append({
                "theta1_rad": th, "r": s.r, "u": s.u, "scaled": s.scaled,
                "u_over_n": s.u_over_n, "u_over_N": s.u_over_N,
                "extrapolated": res.extrapolated_limit,
                "extrapolated_un": res.extrapolated_un,
                "extrapolated_uN": res.extrapolated_uN,
                "indicator": oracle,
                "rel_err_vs_indicator": abs(res.extrapolated_limit - oracle) / denom,
                "converged": int(res.convergence_flag),
            })
    columns = [
        "theta1_rad", "r", "u", "scaled", "u_over_n", "u_over_N",
        "extrapolated", "extrapolated_un", "extrapolated_uN",
        "indicator", "rel_err_vs_indicator", "converged",
    ]
    _emit(rows, columns, config, args.format, args.out)
    return EXIT_TOLERANCE if flagged else EXIT_OK


def cmd_solve_order(args) -> int:
    config = RunConfig("solve-order", {
        "n": args.n, "delta-bar": _fmt(args.delta_bar), "format": args.format,
        "seed": args.seed,
    })
    rho = solve_order(args.n, args.delta_bar)  # OutOfRangeError -> exit 3
    residual = abs(order_equation_rhs(args.n, rho) - args.delta_bar)
    lo, hi = order_equation_range(args.n)
    rows = [{
        "n": args.n, "delta_bar": args.delta_bar, "rho": rho, "residual": residual,
        "admissible_lo": lo, "admissible_hi": hi,
    }]
    columns = ["n", "delta_bar", "rho", "residual", "admissible_lo", "admissible_hi"]
    _emit(rows, columns, config, args.format, args.out)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    rho = args.rho
    params = ProblemParams(3, rho)
    thetas = [parse_angle(tok, params) for tok in args.theta.split(",")]
    num = args.points
    config = RunConfig("counterexample", {
        "rho": _fmt(rho),
        "theta": ",".join(_fmt(t) + "rad" for t in thetas),
        "points": num, "format": args.format, "seed": args.seed,
    })
    ts = np.linspace(0.0, 2.0 * math.pi, num)
    rows = []
    for th in thetas:
        rs = np.exp(np.exp(ts))
        scaled = counterexample_u0(rho, rs, th) * rs ** (-rho)
        rng_span = float(scaled.max() - scaled.min())
        for t, r, sc in zip(ts, rs, scaled):
            rows.append({
                "theta1_rad": th, "t": float(t), "r": float(r), "scaled_u0": float(sc),
                "range_min": float(scaled.min()), "range_max": float(scaled.max()),
                "range": rng_span,
            })
    columns = ["theta1_rad", "t", "r", "scaled_u0", "range_min", "range_max", "range"]
    _emit(rows, columns, config, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raygrowth",
        description="Growth indicators, kernels and Mellin transforms for "
                    "potentials with masses on a ray.",
    )
    parser.add_argument("--version", action="version", version=f"raygrowth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_params=True):
        if need_params:
            p.add_argument("--n", type=int, default=3, help="space dimension (>= 3)")
            p.add_argument("--rho", type=float, default=0.5, help="non-integer growth order")
            p.add_argument("--delta", type=float, default=1.0, help="type constant")
        p.add_argument("--tol", type=float, default=None, help="cross-check tolerance")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")

    p = sub.add_parser("indicator", help="closed vs integral indicator table")
    common(p)
    p.add_argument("--theta", default="0.0", help="comma list: radians, 'Xdeg', or 'rootK'")
    p.set_defaults(func=cmd_indicator)

    p = sub.add_parser("zeros", help="exceptional angles of the indicator")
    common(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("mellin-verify", help="numeric vs closed transform of the kernel")
    common(p, need_params=False)
    p.add_argument("--samples", type=int, default=0, help="extra random cases")
    p.set_defaults(func=cmd_mellin_verify)

    p = sub.add_parser("simulate", help="radial sweep of a mass-model potential")
    common(p)
    p.add_argument("--model", required=True, help="mass-model file")
    p.add_argument("--theta", default="0.0")
    p.add_argument("--grid", default=None, help="lo:hi:num geometric radial grid")
    p.add_argument("--ratios", action="store_true", help="probe u/n and u/N instead")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve-order", help="invert the transcendental order equation")
    common(p, need_params=False)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--delta-bar", dest="delta_bar", type=float, required=True)
    p.set_defaults(func=cmd_solve_order)

    p = sub.add_parser("counterexample", help="oscillating potential over a log-log grid")
    common(p, need_params=False)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--theta", default="0.0")
    p.add_argument("--points", type=int, default=65)
    p.set_defaults(func=cmd_counterexample)
    return parser


def _apply_config_file(args, argv):
    if not getattr(args, "config", None):
        return args
    overrides = read_config_file(args.config)
    explicit = {a.split("=", 1)[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in overrides.items():
        if key == "command":
            continue
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ParseError(f"unknown config key {key!r}")
        if attr in explicit:
            continue  # command line wins
        current = getattr(args, attr)
        if isinstance(current, bool):
            setattr(args, attr, value.lower() in ("1", "true", "yes"))
        elif isinstance(current, int) and not isinstance(current, bool):
            setattr(args, attr, int(value))
        elif isinstance(current, float):
            setattr(args, attr, float(value))
        else:
            setattr(args, attr, value)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(args, argv)
        return args.func(args)
    except ParseError as exc:
        print(f"raygrowth: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CountMismatchError,) as exc:
        print(f"raygrowth: verification failed: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (DomainError, RayGrowthError) as exc:
        extra = ""
        if hasattr(exc, "lo") and exc.lo is not None:
            extra = f" (admissible interval [{_fmt(exc.lo)}, {_fmt(exc.hi)}])"
        print(f"raygrowth: {exc}{extra}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"raygrowth: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
