"""Command-line front end.

Every command reads one problem-definition document (--config), computes in
nats, and emits CSV (or JSON with --json) with 12 significant digits.  The
same invocation always produces byte-identical output.  Exit status: 0 on
success, 1 for validation problems, 2 for numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import capacity as cap
from . import chain as chain_mod
from . import multiconstraint as mc
from . import oracles
from . import ratedistortion as rd
from .config import ProblemConfig, load_config
from .errors import NumericalError, ValidationError

__all__ = ["main"]

DEFAULT_TOL = 1e-10


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _json_value(value):
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    x = float(value)
    return float(f"{x:.12g}") if math.isfinite(x) else _fmt(x)


def _emit(args, result) -> None:
    """Write a handler's result: a list of (quantity, value) pairs, which CSV prints as the
    table quantity,value and JSON as one object, or a (header, rows) table."""
    if args.json and isinstance(result, list):
        text = json.dumps({k: _json_value(v) for k, v in result}, indent=2)
    elif args.json:
        header, rows = result
        text = json.dumps({"points": [{k: _json_value(v) for k, v in zip(header, row)} for row in rows]}, indent=2)
    else:
        header, rows = (["quantity", "value"], result) if isinstance(result, list) else result
        text = "\n".join([",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows])
    text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:count' into an inclusive linspace, else a comma/space list."""
    spec = spec.strip()
    if spec.count(":") == 2:
        lo_s, hi_s, n_s = spec.split(":")
        try:
            lo, hi, count = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ValidationError(f"bad grid spec {spec!r}: expected lo:hi:count") from None
        if count < 1:
            raise ValidationError("grid count must be at least 1")
        return np.linspace(lo, hi, count)
    try:
        values = np.array([float(t) for t in spec.replace(",", " ").split()])
    except ValueError:
        raise ValidationError(f"bad grid spec {spec!r}") from None
    if values.size == 0:
        raise ValidationError("grid spec is empty")
    return values


def _rd_problem_at(cfg: ProblemConfig, s: float, tol: float) -> rd.RdProblem:
    """The configured problem; without coding_probs, optimize them at slope s."""
    if cfg.coding_probs is not None:
        return cfg.rd_problem()
    source = cfg._need("source_probs")
    table = cfg._need("distortion")
    result = oracles.blahut_arimoto(source, table, s, tol=min(tol, 1e-10))
    if not result.converged:
        raise NumericalError(f"Blahut-Arimoto did not converge at slope s = {s!r} in {result.iterations} iterations")
    return rd.RdProblem(source, result.coding_probs, table)


def _point_pairs(point: rd.RdPoint) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [
        ("s", point.s),
        ("distortion", point.distortion),
        ("rate_nats", point.rate),
        ("mmse", point.mmse),
    ]
    for i, (m, v) in enumerate(zip(point.per_symbol_mean, point.per_symbol_var)):
        pairs.append((f"mean_x{i}", m))
        pairs.append((f"var_x{i}", v))
    if point.boundary:
        pairs.append(("boundary", point.boundary))
    return pairs


def _cmd_rd_curve(args, cfg: ProblemConfig) -> tuple:
    grid = _parse_grid(args.grid)
    if cfg.coding_probs is not None:
        problem = cfg.rd_problem()
        points = rd.rd_curve(problem, grid)
    else:  # the optimal coding law moves with the slope
        points = []
        for s in sorted(grid, reverse=True):
            problem = _rd_problem_at(cfg, float(s), args.tol)
            points.append(rd.distortion_at_force(problem, float(s)))
    header = ["s", "distortion", "rate_nats", "mmse"] + [f"mean_x{i}" for i in range(problem.num_source_letters)]
    return header, [[pt.s, pt.distortion, pt.rate, pt.mmse, *pt.per_symbol_mean] for pt in points]


def _cmd_rd_point(args, cfg: ProblemConfig) -> list:
    if args.force is None and args.delta is None:
        raise ValidationError("rd point needs --delta or --force")
    if args.force is not None and args.delta is not None:
        raise ValidationError("give only one of --delta and --force")
    if args.bounds < 0:
        raise ValidationError("--bounds must be >= 0")
    if cfg.coding_probs is None and args.force is None:
        raise ValidationError(
            "config has no coding_probs: give --force so they can be optimized at a target slope"
        )
    if args.force is not None:
        if args.force > 0.0:
            raise ValidationError("--force must be <= 0")
        problem = _rd_problem_at(cfg, args.force, args.tol)
        point, moments = rd._at_force(problem, args.force)
    else:
        problem = cfg.rd_problem()
        point, moments = rd._solve(problem, args.delta, args.tol)
    pairs = _point_pairs(point)
    if args.allocation:  # the equal-force split is priced from the moments that gave the point
        allocation, rate = rd._allocation(problem, point, moments)
        pairs += [(f"allocation_x{i}", v) for i, v in enumerate(allocation.per_symbol_distortion)]
        pairs.append(("allocation_rate_nats", rate))
    if args.bounds:
        if not math.isfinite(point.s):
            raise ValidationError("sandwich bounds need a finite force")
        partition = np.linspace(0.0, point.s, args.bounds + 1)
        low, high = rd.sandwich_bounds(problem, partition)
        pairs += [("sandwich_sum_left", low), ("sandwich_sum_right", high)]
    if args.integral_route:
        if not math.isfinite(point.s):
            raise ValidationError("the integral route needs a finite force")
        integral = rd.rate_mmse_integral(problem, point.s, tol=min(args.tol, 1e-9))
        pairs += [("rate_mmse_integral", integral), ("rate_route_difference", abs(integral - point.rate))]
    if args.observable:
        table = cfg._need("observable")
        if not math.isfinite(point.s):
            raise ValidationError("the observable sweep needs a finite force")
        swept = rd.observable_sweep(problem, table, point.s, tol=min(args.tol, 1e-9))
        direct = rd.observable_expectation(problem, table, point.s)
        pairs += [("observable_integral", swept), ("observable_direct", direct),
                  ("observable_route_difference", abs(swept - direct))]
    return pairs


def _cmd_capacity(args, cfg: ProblemConfig) -> list:
    channel = cfg.channel()
    point = cap.capacity_point(channel)
    info = cap.mutual_information(channel)
    return [
        ("rate_nats", point.rate),
        ("s_star", point.s_star),
        ("delta", point.delta),
        ("mutual_information_nats", info),
        ("cross_check_abs_diff", abs(point.rate - info)),
    ]


def _cmd_rd2(args, cfg: ProblemConfig) -> list:
    problem = cfg.rd_problem2()
    rate, s1, s2 = mc.rate_two_distortions(problem, args.delta1, args.delta2, tol=args.tol)
    return [
        ("rate_nats", rate),
        ("s1", s1),
        ("s2", s2),
        ("constraint1_active", s1 < 0.0),
        ("constraint2_active", s2 < 0.0),
    ]


def _cmd_chain_work(args, cfg: ProblemConfig) -> list:
    system = cfg.chain_system()
    problem = cfg.rd_problem()
    lam = args.lambda_final
    s = system.beta * lam
    if s > 0.0:
        raise ValidationError("--lambda-final must be <= 0 for the compression branch")
    work = chain_mod.quasistatic_work(system, lam, tol=min(args.tol, 1e-9))
    point = rd.distortion_at_force(problem, s)
    return [
        ("lambda_final", lam),
        ("s", s),
        ("quasistatic_work", work),
        ("rate_nats", point.rate),
        ("rate_times_kT", point.rate / system.beta),
        ("abs_difference", abs(work - point.rate / system.beta)),
        ("length_final", chain_mod.expected_length(system, lam)),
    ]


def _cmd_chain_equilibrium(args, cfg: ProblemConfig) -> list:
    system = cfg.chain_system()
    lam = chain_mod.equilibrium_force(system, args.length, tol=args.tol)
    pairs: list[tuple[str, object]] = [
        ("lambda", lam),
        ("s", system.beta * lam),
    ]
    for i, y in enumerate(chain_mod.array_lengths(system, lam)):
        pairs.append((f"length_x{i}", y))
    return pairs


def _cmd_chain_protocol(args, cfg: ProblemConfig) -> list:
    system = cfg.chain_system()
    schedule = _parse_grid(args.schedule)
    left, right = chain_mod.protocol_work_bounds(system, schedule)
    quasistatic = chain_mod.quasistatic_work(system, float(schedule[-1]), tol=min(args.tol, 1e-9))
    return [
        ("steps", int(len(schedule) - 1)),
        ("protocol_work", right),
        ("protocol_work_left_sum", left),
        ("quasistatic_work", quasistatic),
        ("excess_over_quasistatic", right - quasistatic),
    ]


def _cmd_oracle_exact(args, cfg: ProblemConfig) -> list:
    problem = cfg.rd_problem()
    prob, exponent = oracles.exact_ld_probability(problem, args.n, args.delta)
    rate = rd.rate_legendre(problem, args.delta, tol=args.tol)
    return [
        ("probability", prob),
        ("exponent", exponent),
        ("rate_legendre", rate),
        ("exponent_minus_rate", exponent - rate),
    ]


def _cmd_oracle_ba(args, cfg: ProblemConfig) -> list:
    source = cfg._need("source_probs")
    table = cfg._need("distortion")
    result = oracles.blahut_arimoto(source, table, args.force, tol=args.tol, max_iter=args.max_iter)
    problem = rd.RdProblem(source, result.coding_probs, table)
    recheck = rd.distortion_at_force(problem, args.force)
    pairs: list[tuple[str, object]] = [
        (f"q_{i}", v) for i, v in enumerate(result.coding_probs)
    ]
    pairs += [
        ("rate_nats", result.rate),
        ("distortion", result.distortion),
        ("converged", result.converged),
        ("iterations", result.iterations),
        ("recheck_rate_abs_diff", abs(recheck.rate - result.rate)),
        ("recheck_distortion_abs_diff", abs(recheck.distortion - result.distortion)),
    ]
    return pairs


def _cmd_oracle_alloc(args, cfg: ProblemConfig) -> list:
    problem = cfg.rd_problem()
    brute = oracles.brute_allocation_min(problem, args.delta, args.grid_points)
    rate = rd.rate_legendre(problem, args.delta, tol=args.tol)
    return [
        ("brute_min", brute),
        ("rate_legendre", rate),
        ("difference", brute - rate),
    ]


def _cmd_oracle_grid(args, cfg: ProblemConfig) -> list:
    problem = cfg.rd_problem()
    grid_max = oracles.legendre_grid_max(
        problem, args.delta, s_min=args.s_min, points=args.points
    )
    rate = rd.rate_legendre(problem, args.delta, tol=args.tol)
    return [
        ("grid_max", grid_max),
        ("rate_legendre", rate),
        ("abs_difference", abs(grid_max - rate)),
    ]


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit status 2 for usage problems; flag misuse is a
    # validation error here, and 2 is reserved for numerical failures.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _command(group, name: str, help: str, handler):
    """A leaf command of ``group`` running ``handler``, with the options every command takes."""
    sub = group.add_parser(name, help=help)
    sub.add_argument("--config", required=True, help="problem definition (JSON or key = value)")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver tolerance, finite and > 0")
    sub.add_argument("--output", default=None, help="write to this file instead of stdout")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sub.set_defaults(handler=handler)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tiltrate", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    rd_parser = top.add_parser("rd", help="rate-distortion curve and points")
    rd_sub = rd_parser.add_subparsers(dest="subcommand", required=True)

    curve = _command(rd_sub, "curve", "curve on a force grid", _cmd_rd_curve)
    curve.add_argument("--grid", required=True, help="force grid: lo:hi:count or a comma list")

    point = _command(rd_sub, "point", "one point, by budget or by force", _cmd_rd_point)
    point.add_argument("--delta", type=float, default=None, help="distortion budget")
    point.add_argument("--force", type=float, default=None, help="tilt force s <= 0")
    point.add_argument("--bounds", type=int, default=0, metavar="STEPS", help="print sandwich sums over a uniform partition")
    point.add_argument("--allocation", action="store_true", help="print the equal-force budget split")
    point.add_argument("--integral-route", action="store_true", help="print the mmse-integral rate next to the Legendre rate")
    point.add_argument("--observable", action="store_true", help="sweep the configured observable to this point")

    _command(top, "capacity", "channel rate via the distortion route", _cmd_capacity)

    rd2 = _command(top, "rd2", "two simultaneous distortion budgets", _cmd_rd2)
    rd2.add_argument("--delta1", type=float, required=True)
    rd2.add_argument("--delta2", type=float, required=True)

    chain_parser = top.add_parser("chain", help="mechanical chain emulator")
    chain_sub = chain_parser.add_subparsers(dest="subcommand", required=True)

    work = _command(chain_sub, "work", "quasistatic work against the rate", _cmd_chain_work)
    work.add_argument("--lambda-final", type=float, required=True, dest="lambda_final")

    equilibrium = _command(chain_sub, "equilibrium", "force that holds a mean length", _cmd_chain_equilibrium)
    equilibrium.add_argument("--length", type=float, required=True)

    protocol = _command(chain_sub, "protocol", "stepwise force schedule work", _cmd_chain_protocol)
    protocol.add_argument("--schedule", required=True, help="force schedule: lo:hi:count or a comma list")

    oracle_parser = top.add_parser("oracle", help="independent cross-checks")
    oracle_sub = oracle_parser.add_subparsers(dest="subcommand", required=True)

    exact = _command(oracle_sub, "exact", "exact finite-block event probability", _cmd_oracle_exact)
    exact.add_argument("--n", type=int, required=True)
    exact.add_argument("--delta", type=float, required=True)

    ba = _command(oracle_sub, "ba", "optimal coding law at a slope", _cmd_oracle_ba)
    ba.add_argument("--force", type=float, required=True)
    ba.add_argument("--max-iter", type=int, default=500)

    alloc = _command(oracle_sub, "alloc", "brute-force budget split search", _cmd_oracle_alloc)
    alloc.add_argument("--delta", type=float, required=True)
    alloc.add_argument("--grid-points", type=int, default=400)

    grid = _command(oracle_sub, "grid", "dense-grid Legendre maximization", _cmd_oracle_grid)
    grid.add_argument("--delta", type=float, required=True)
    grid.add_argument("--s-min", type=float, default=-50.0)
    grid.add_argument("--points", type=int, default=1001)

    return parser


# built on the first ``main`` call and reused: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        parser.error(f"argument --tol: must be finite and > 0 (got {args.tol!r})")
    for name, value in vars(args).items():
        if isinstance(value, float) and math.isnan(value):
            parser.error(f"argument --{name.replace('_', '-')}: must be a number, not nan")
    try:
        _emit(args, args.handler(args, load_config(args.config)))
    except ValidationError as exc:
        print(f"tiltrate: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"tiltrate: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
