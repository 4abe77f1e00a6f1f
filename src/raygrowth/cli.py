"""Command-line front end.

Subcommands: indicator, zeros, mellin-verify, simulate, solve-order,
counterexample.  Each command's options are declared once, in its row of
``_COMMANDS``.  A call that names a command builds that command's parser
alone and parses the rest of argv with it once; a call that names none
builds the full parser, with every command as a subcommand.  A ``--config``
file's lines are parsed by the same parser, in the same pass, and a file is
looked for only when a token can name one.  Every table carries a
provenance header echoing the parsed options and the library version, so
re-running from that echoed configuration reproduces the output byte for
byte.  Exit codes: 0 success, 2 tolerance/verification failure,
3 domain or strip error, 4 parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import (
    ConvergenceError,
    CountMismatchError,
    DomainError,
    ParseError,
    RayGrowthError,
)
from .indicator import (
    guarded_indicator,
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


def parse_angle(token: str, zset=None) -> float:
    """Angle token to radians: '1.2', '1.2rad', '130deg', or 'root'/'rootK' of the zero set zset."""
    token = token.strip()
    if token.startswith("root"):
        if zset is None:
            raise ParseError("root angles need n and rho")
        try:
            idx = int(token[4:]) if len(token) > 4 else 0
        except ValueError:
            raise ParseError(f"bad root index in angle token {token!r}") from None
        roots = zset.roots
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
    """key=value per line; keys are the long option names.

    A line whose first non-blank character is '#' is a comment; a '#' later
    in a line belongs to the value, as in a file name.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", line=lineno)
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


# parsed attributes the header leaves out: the command is echoed first, func
# dispatches, and config and out name files that do not change the table
_NOT_ECHOED = ("command", "func", "config", "out")


def _emit(rows, args):
    """Write the table with a header echoing ``command`` and every parsed option;
    the columns are the keys of the first row (no command returns zero rows)."""
    columns = list(rows[0])
    config = {"command": args.command}
    config.update(sorted(
        (key.replace("_", "-"), _fmt(value)) for key, value in vars(args).items()
        if key not in _NOT_ECHOED and value is not None
    ))
    if args.format == "csv":
        lines = [f"# raygrowth {__version__}"]
        lines.extend(f"# {key}={value}" for key, value in config.items())
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "version": __version__,
            "config": config,
            "columns": columns,
            "rows": [{c: _json_safe(row[c]) for c in columns} for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _thetas(args, params: ProblemParams) -> list:
    """The --theta angles in radians, root tokens from one zero set, written back for the header."""
    tokens = args.theta.split(",")
    zset = zero_set(params) if any(tok.strip().startswith("root") for tok in tokens) else None
    thetas = [parse_angle(tok, zset) for tok in tokens]
    args.theta = ",".join(_fmt(t) + "rad" for t in thetas)
    return thetas


def _quad_from(tol: float) -> QuadratureSpec:
    """indicator's quadrature: the default spec, tightened to a smaller tol."""
    return QuadratureSpec(rel_tol=min(tol, 1e-10), abs_tol=min(tol, 1e-10) * 1e-2)


# the order and the type constant of a command that is not given them;
# simulate takes a density model's own instead
_ORDER_DEFAULTS = {"rho": 0.5, "delta": 1.0}


def _model_params(args, model) -> ProblemParams:
    """simulate's parameters: each of rho and delta that the density model
    declares comes from it, and a --rho or --delta that repeats it must equal
    it; the rest take the option or its default.  The values are written
    back, so that the header echoes what ran."""
    for key, default in _ORDER_DEFAULTS.items():
        given, declared = getattr(args, key), getattr(model, key, None)
        if declared is None:
            value = default if given is None else given
        elif given is None or given == declared:
            value = declared
        else:
            raise ParseError(f"--{key} {_fmt(given)} differs from the model's "
                             f"{key}={_fmt(declared)}")
        setattr(args, key, value)
    return ProblemParams(args.n, args.rho, args.delta)


# ---------------------------------------------------------------------------
# subcommands

def cmd_indicator(args) -> int:
    params = ProblemParams(args.n, args.rho, args.delta)
    tol = args.tol if args.tol is not None else 1e-6
    thetas = _thetas(args, params)
    quad = _quad_from(tol)
    finite = [th for th in thetas if th != math.pi]
    closed = indicator_closed(params, finite)
    values, res = indicator_integral(params, finite, quad, full_output=True)
    results = zip(closed.tolist(), values.tolist(), res.converged.tolist(), res.message.tolist())
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
        hc, hi, converged, message = next(results)
        ha = float(indicator_near_pi(params, th)) if th > math.pi - 0.5 else float("nan")
        diff, bound = abs(hc - hi), tol * max(1.0, abs(hc))
        if diff > bound:
            print(f"raygrowth: closed and integral forms differ at theta1={_fmt(th)}: abs_diff="
                  f"{_fmt(diff)} > tol={_fmt(tol)} times max(1, |H_closed|) = {_fmt(bound)}",
                  file=sys.stderr)
            failed = True
        if not converged:
            print(f"raygrowth: quadrature flagged at theta1={_fmt(th)}: {message}", file=sys.stderr)
            failed = True
        rows.append({
            "theta1_rad": th, "theta1_deg": math.degrees(th),
            "H_closed": hc, "H_integral": hi, "H_asymptotic": ha, "abs_diff": diff,
        })
    _emit(rows, args)
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_zeros(args) -> int:
    zset = zero_set(ProblemParams(args.n, args.rho))  # raises CountMismatchError -> exit 2
    rows = []
    for i, (beta, residual) in enumerate(zip(zset.roots, zset.residuals)):
        rows.append({
            "n": args.n, "rho": args.rho, "root_index": i,
            "beta_deg": math.degrees(beta), "beta_rad": beta,
            "residual": residual, "count": len(zset.roots),
        })
    _emit(rows, args)
    return EXIT_OK


_MELLIN_GRID_LAM = (0.5, 1.0, 1.5, 2.5)
_MELLIN_GRID_Q = (0, 1, 2)
_MELLIN_GRID_XI = (-0.8, -0.3, 0.0, 0.4, 0.9)
_MELLIN_VERIFY_QUAD = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)


def cmd_mellin_verify(args) -> int:
    quad = _MELLIN_VERIFY_QUAD
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
        if rel > args.tol:
            print(f"raygrowth: numeric and closed transforms differ at lam={_fmt(lam)} q={q} "
                  f"s={_fmt(s)} xi={_fmt(xi)}: rel_err={_fmt(rel)} > tol={_fmt(args.tol)}",
                  file=sys.stderr)
            failed = True
        if not num.converged:
            print(f"raygrowth: quadrature flagged at lam={_fmt(lam)} q={q} s={_fmt(s)} "
                  f"xi={_fmt(xi)}: {num.message}", file=sys.stderr)
            failed = True
        rows.append({
            "lam": lam, "q": q, "s": s, "xi": xi,
            "numeric": complex(num.value).real, "closed": closed, "rel_err": rel,
        })
    _emit(rows, args)
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_simulate(args) -> int:
    grid = _parse_grid(args.grid)
    args.grid = f"{_fmt(grid[0])}:{_fmt(grid[1])}:{grid[2]}"
    with open(args.model, "r", encoding="utf-8") as fh:
        model = parse_mass_model(fh.read())
    params = _model_params(args, model)
    if not params.delta:
        # H is 0 at every angle, and a massless density model's u/n and u/N
        # are 0/0: no error column would have a value
        raise DomainError("simulate needs delta > 0, got delta=0: the indicator is 0 at every angle")
    thetas = _thetas(args, params)
    probe = ratio_probe if args.ratios else scaled_limit
    rows = []
    flagged = 0
    for th in thetas:
        res = probe(model, params, th, grid, sweep_tol=args.tol)
        if res.quadrature_flags:
            print(f"raygrowth: quadrature flagged at theta1={_fmt(th)}: {res.diagnostics}", file=sys.stderr)
            flagged += res.quadrature_flags
        # at a root of S, u grows like r^q and no error relative to H is
        # defined: the guard refuses the angle
        oracle = guarded_indicator(params, th)
        denom = max(1e-300, abs(oracle))
        for r, u, scaled, un, uN in zip(res.r, res.u, res.scaled, res.u_over_n, res.u_over_N):
            rows.append({
                "theta1_rad": th, "r": r, "u": u, "scaled": scaled,
                "u_over_n": un, "u_over_N": uN,
                "extrapolated": res.extrapolated_limit,
                "extrapolated_un": res.extrapolated_un,
                "extrapolated_uN": res.extrapolated_uN,
                "indicator": oracle,
                "rel_err_vs_indicator": abs(res.extrapolated_limit - oracle) / denom,
                "converged": int(res.convergence_flag),
            })
    _emit(rows, args)
    return EXIT_TOLERANCE if flagged else EXIT_OK


def cmd_solve_order(args) -> int:
    rho = solve_order(args.n, args.delta_bar)  # OutOfRangeError -> exit 3
    residual = abs(order_equation_rhs(args.n, rho) - args.delta_bar)
    lo, hi = order_equation_range(args.n)
    rows = [{
        "n": args.n, "delta_bar": args.delta_bar, "rho": rho, "residual": residual,
        "admissible_lo": lo, "admissible_hi": hi,
    }]
    _emit(rows, args)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    rho = args.rho
    thetas = _thetas(args, ProblemParams(3, rho))
    ts = np.linspace(0.0, 2.0 * math.pi, args.points)
    rs = np.exp(np.exp(ts))
    rows = []
    for th in thetas:
        scaled = counterexample_u0(rho, rs, th) * rs ** (-rho)
        lo, hi = float(scaled.min()), float(scaled.max())
        rows += ({"theta1_rad": th, "t": t, "r": r, "scaled_u0": sc,
                  "range_min": lo, "range_max": hi, "range": hi - lo}
                 for t, r, sc in zip(ts.tolist(), rs.tolist(), scaled.tolist()))
    _emit(rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 4) instead of exiting with status 2,
    and a negative number in float syntax (-1e-12) is a value, not an option:
    argparse itself takes only -N and -N.N.  The subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ParseError(message)


def _at_least(lo: int):
    """Option type: an integer no smaller than lo."""
    def count(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return count


def _positive(text):
    """Option type: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


_THETA_HELP = "comma list: radians, 'Xdeg', or 'rootK'"


def _zeros_options(p):
    p.add_argument("--n", type=int, default=3, help="space dimension (>= 3)")
    p.add_argument("--rho", type=float, default=_ORDER_DEFAULTS["rho"],
                   help="non-integer growth order")


def _indicator_options(p):
    _zeros_options(p)
    p.add_argument("--delta", type=float, default=_ORDER_DEFAULTS["delta"],
                   help="type constant")
    p.add_argument("--theta", default="0.0", help=_THETA_HELP)
    p.add_argument("--tol", type=_positive, default=None,
                   help="cross-check tolerance (default 1e-6); below 1e-10 it also "
                        "tightens the quadrature")


def _mellin_verify_options(p):
    p.add_argument("--tol", type=_positive, default=1e-8, help="relative tolerance")
    p.add_argument("--samples", type=_at_least(0), default=0, help="extra random cases")
    p.add_argument("--seed", type=_at_least(0), default=0, help="seed of the random cases")


def _simulate_options(p):
    p.add_argument("--n", type=int, default=3, help="space dimension (>= 3)")
    p.add_argument("--rho", type=float, default=None,
                   help="non-integer growth order: a density model's own rho, which a given "
                        "value must equal (default 0.5 for atom models)")
    p.add_argument("--delta", type=float, default=None,
                   help="type constant: a powerlaw or perturbed model's own delta, which a "
                        "given value must equal (default 1 otherwise)")
    p.add_argument("--model", required=True, help="mass-model file")
    p.add_argument("--theta", default="0.0", help=_THETA_HELP)
    p.add_argument("--grid", default="1e2:1e6:9", help="lo:hi:num geometric radial grid")
    p.add_argument("--tol", type=_positive, default=0.05, help="sweep tolerance")
    p.add_argument("--ratios", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1 (or bare --ratios): also require mass inside the smallest radius")


def _solve_order_options(p):
    p.add_argument("--n", type=int, default=3, help="space dimension (>= 3)")
    p.add_argument("--delta-bar", type=float, required=True)


def _counterexample_options(p):
    p.add_argument("--rho", type=float, default=_ORDER_DEFAULTS["rho"])
    p.add_argument("--theta", default="0.0", help=_THETA_HELP)
    p.add_argument("--points", type=_at_least(1), default=65)


# one row per command: its function, its help, and the function that
# declares the options the command reads
_COMMANDS = {
    "indicator": (cmd_indicator, "closed vs integral indicator table", _indicator_options),
    "zeros": (cmd_zeros, "exceptional angles of the indicator", _zeros_options),
    "mellin-verify": (cmd_mellin_verify, "numeric vs closed transform of the kernel",
                      _mellin_verify_options),
    "simulate": (cmd_simulate, "radial sweep of a mass-model potential", _simulate_options),
    "solve-order": (cmd_solve_order, "invert the transcendental order equation",
                    _solve_order_options),
    "counterexample": (cmd_counterexample, "oscillating potential over a log-log grid",
                       _counterexample_options),
}


def _declare(p, name):
    """Declare command ``name`` on p, its parser: the defaults that name and
    dispatch it, the three options every command takes, and its own."""
    func, _, options = _COMMANDS[name]
    p.set_defaults(command=name, func=func)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--config", default=None,
                   help="key=value config file; options on the command line win")
    options(p)
    return p


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv.  When argv[0] names a command, that command's
    parser alone, which reads argv[1:]: the parser the full one holds for it,
    under the same prog.  Otherwise (help, version, no command, an unknown
    one, an option first) the full parser, which reads all of argv and
    declares every command as a subcommand, so every message is its own."""
    if argv and argv[0] in _COMMANDS:
        return _declare(_Parser(prog=f"raygrowth {argv[0]}"), argv[0])
    parser = _Parser(
        prog="raygrowth",
        description="Growth indicators, kernels and Mellin transforms for "
                    "potentials with masses on a ray.",
    )
    parser.add_argument("--version", action="version", version=f"raygrowth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, _) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=help), name)
    return parser


def _config_tokens(argv) -> list:
    """The lines of the --config file named in argv as --key=value tokens.

    Under argparse's prefix matching only a token whose part before any '='
    is a prefix of '--config' can name it (--c, --con=F, --config F, ...);
    without one, no parser is built to look."""
    if not any(tok.startswith("--") and "--config".startswith(tok.split("=", 1)[0])
               for tok in argv):
        return []
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    return [f"--{k}={v}" for k, v in read_config_file(path).items() if k != "command"]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a command's own parser reads what follows the command, the full
        # parser all of argv; the file's options go before the command
        # line's, so the parser reads both and the command line wins
        head = [] if argv and argv[0] in _COMMANDS else argv[:1]
        args = build_parser(argv).parse_args(head + _config_tokens(argv) + argv[1:])
        return args.func(args)
    except ParseError as exc:
        print(f"raygrowth: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CountMismatchError as exc:
        print(f"raygrowth: verification failed: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ConvergenceError as exc:
        print(f"raygrowth: tolerance not reached: {exc}", file=sys.stderr)
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
