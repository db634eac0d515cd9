"""Command-line front end: geometry export, kernel grids, solves, checks.

Exit codes: 0 success, 1 validation failure or solver error, 2 bad
arguments.  Output is deterministic: floats are printed with round-trip
precision, JSON keys are sorted, and all randomness inside `validate` is
seeded.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from .conformal import sector_map
from .domain import (LensParams, arc_matrix, arcs, boundary_samples,
                     classify_point, reflection_orbit)
from .kernels import KernelField, evaluate_on_grid
from .quadrature import _NODE_BUDGET
from .solvers import load_problem, solution_rows, solve_dirichlet, solve_neumann
from .validation import run_checks


def _fmt(x):
    return repr(float(x))


def _parse_complex(text):
    try:
        re, im = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected re,im pair, got {text!r}")
    return complex(re, im)


def _parse_grid(text):
    try:
        nx, ny = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NX,NY pair, got {text!r}")
    if nx < 1 or ny < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be positive")
    if nx * ny > _NODE_BUDGET:
        raise argparse.ArgumentTypeError(
            f"grid has {nx * ny} cells, more than {_NODE_BUDGET}")
    return nx, ny


def _parse_samples(text):
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= count <= _NODE_BUDGET:
        raise argparse.ArgumentTypeError(
            f"sample count must be at least 1 and at most {_NODE_BUDGET}")
    return count


def _parse_pin(text):
    try:
        point, value = text.split("=")
        z0 = _parse_complex(point)
        parts = [float(v) for v in value.split(",")]
        if len(parts) > 2:
            raise ValueError("too many parts")
        v0 = complex(*parts)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"expected re,im=value (value may be re or re,im), got {text!r}")
    if not cmath.isfinite(v0):
        raise argparse.ArgumentTypeError(f"pin value must be finite, got {text!r}")
    return z0, v0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a word such as -0.5,0.1 as a value,
    where argparse would take it for an option: no option of lenspot holds
    a comma, so an RE,IM pair with a negative real part may follow its
    option as a word of its own."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" \
                and "," in arg_string:
            return None
        return super()._parse_optional(arg_string)


def _add_params_args(sub):
    sub.add_argument("--alpha", type=float, help="corner half-angle in radians")
    sub.add_argument("--alpha-pi", metavar="P/Q",
                     help="corner half-angle as an exact rational multiple of pi")
    sub.add_argument("--n", type=int, required=True,
                     help="tiling order; the arcs meet at angle pi/n")


def _params_from(args):
    if (args.alpha is None) == (args.alpha_pi is None):
        raise CommandLineError("give exactly one of --alpha or --alpha-pi")
    if args.alpha_pi is not None:
        try:
            p, q = args.alpha_pi.split("/")
            alpha = math.pi * int(p) / int(q)
        except (ValueError, ZeroDivisionError):
            raise CommandLineError(f"bad --alpha-pi value {args.alpha_pi!r}")
    else:
        alpha = args.alpha
    try:
        return LensParams(alpha, args.n)
    except ValueError as exc:
        raise CommandLineError(str(exc))


class CommandLineError(Exception):
    """Argument-level error detected after parsing (exit code 2)."""


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# subcommands

def _cmd_parquet(args):
    params = _params_from(args)
    data = {
        "params": params.to_json(),
        "theta": params.theta,
        "corners": [[c.real, c.imag] for c in params.corners],
        "arcs": [arc.to_json() for arc in arcs(params).values()],
        "matrices": [],
    }
    for k in range(2 * params.n):
        m = arc_matrix(params, k).normalized()
        data["matrices"].append({"k": k, "a": m.a,
                                 "b": [m.b.real, m.b.imag], "c": m.c})
    if args.sample is not None:
        orbit = reflection_orbit(params, args.sample)
        data["orbit"] = [None if math.isinf(abs(v)) else [v.real, v.imag]
                         for v in orbit.points]
    _emit([json.dumps(data, indent=2, sort_keys=True)], args.output)
    return 0


def _grid_rows(params, kind, zeta, nx, ny):
    xs, ys, values = evaluate_on_grid(KernelField(params), kind, zeta, nx, ny)
    rows = ["x,y,value"]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            v = values[j, i]
            value = "" if math.isnan(v) else _fmt(v)
            rows.append(f"{_fmt(x)},{_fmt(y)},{value}")
    return rows


def _cmd_grid(args, kind):
    params = _params_from(args)
    if classify_point(params, args.zeta) != "interior":
        raise CommandLineError("--zeta must be an interior point")
    nx, ny = args.grid
    _emit(_grid_rows(params, kind, args.zeta, nx, ny), args.output)
    return 0


def _cmd_poisson(args):
    params = _params_from(args)
    if classify_point(params, args.z) != "interior":
        raise CommandLineError("--z must be an interior point")
    smap = sector_map(params)
    rows = ["arc,t,x,y,p"]
    for arc_id in arcs(params):
        bp = boundary_samples(params, arc_id, args.samples)
        values = smap.strip_poisson(args.z, bp.point)
        for t, pt, v in zip(np.atleast_1d(bp.t), np.atleast_1d(bp.point),
                            np.atleast_1d(values)):
            rows.append(f"{arc_id},{_fmt(t)},{_fmt(pt.real)},{_fmt(pt.imag)},{_fmt(v)}")
    _emit(rows, args.output)
    return 0


def _cmd_solve(args, solve):
    problem = load_problem(args.problem)
    pin = getattr(args, "pin", None)
    if pin is not None:
        if classify_point(problem.params, pin[0]) != "interior":
            raise CommandLineError("--pin must name an interior point")
    # the pin point joins the same call, so the compatibility check runs once
    points = problem.points + ((pin[0],) if pin is not None else ())
    values = solve(problem.params, problem.spec, problem.gamma,
                   problem.source, points)
    if pin is not None:
        values = values[:-1] - values[-1] + pin[1]
    _emit(solution_rows(problem.points, values), args.output)
    return 0


def _cmd_validate(args):
    results = run_checks(_params_from(args), quick=args.quick)
    lines = [r.render() for r in results]
    failures = [r for r in results if not r.ok]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    _emit(lines, args.output)
    return 1 if failures else 0


# ----------------------------------------------------------------------

def _build_parser():
    parser = _Parser(
        prog="lenspot",
        description="Green/Neumann kernels and Poisson solvers on lens domains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parquet", help="arc matrices, carriers and an orbit")
    p.set_defaults(run=_cmd_parquet)
    _add_params_args(p)
    p.add_argument("--sample", type=_parse_complex, metavar="RE,IM",
                   help="seed point whose reflection orbit is included")
    p.add_argument("--output", help="write to this path instead of stdout")

    for kind in ("green", "neumann"):
        p = sub.add_parser(kind, help=f"evaluate the {kind} kernel on a grid")
        p.set_defaults(run=lambda args, kind=kind: _cmd_grid(args, kind))
        _add_params_args(p)
        p.add_argument("--zeta", type=_parse_complex, required=True,
                       metavar="RE,IM", help="interior pole location")
        p.add_argument("--grid", type=_parse_grid, required=True, metavar="NX,NY")
        p.add_argument("--output")

    p = sub.add_parser("poisson", help="tabulate the Poisson kernel on both arcs")
    p.set_defaults(run=_cmd_poisson)
    _add_params_args(p)
    p.add_argument("--z", type=_parse_complex, required=True, metavar="RE,IM")
    p.add_argument("--samples", type=_parse_samples, default=64, metavar="M")
    p.add_argument("--output")

    for which, solve in (("dirichlet", solve_dirichlet),
                         ("neumann", solve_neumann)):
        p = sub.add_parser(f"solve-{which}", help=f"solve a {which} problem file")
        p.set_defaults(run=lambda args, solve=solve: _cmd_solve(args, solve))
        p.add_argument("--problem", required=True, help="JSON problem path")
        if which == "neumann":
            p.add_argument("--pin", type=_parse_pin, metavar="RE,IM=V",
                           help="fix the additive constant: w(point) = value")
        p.add_argument("--output")

    p = sub.add_parser("validate", help="run the invariant suite")
    p.set_defaults(run=_cmd_validate)
    _add_params_args(p)
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p.add_argument("--output")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CommandLineError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    # unsolvable Neumann data and malformed JSON are ValueErrors too
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
