"""Command-line front end.

Subcommands: fit, expand, cv, bootstrap, bounds, terms, scaling.  All output
is machine-readable JSON (plus a flat CSV next to it for cv/scaling when an
output path is given); every file embeds the resolved configuration and a
schema version, and identical invocations with identical seeds are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import models, resampling
from .expansion import (
    SolverError,
    evaluate_theta_ij,
    factorize_hessian,
    solve_base,
)
from .forward_ad import K_MAX, NonFiniteValueError
from .terms import term_tables

SCHEMA_VERSION = resampling.SCHEMA_VERSION

class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``usage error:`` line, exit code 2."""

    def error(self, message):
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--model", required=True, help="registered model id")
    p.add_argument("--data", required=True, help="path to the dataset")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--header", action="store_true", help="first CSV row is a header")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (JSON; cv/scaling also write CSV)")


def _add_scheme(p):
    p.add_argument("--scheme", default="loo",
                   choices=["loo", "kfold", "kappa", "bootstrap"])
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--kappa", type=int, default=1)
    p.add_argument("--draws", type=int, default=20)


def _add_bounds_flags(p):
    p.add_argument("--with-bounds", action="store_true")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--radius", type=float, default=None,
                   help="sampling-ball radius (default: self-consistent)")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--epsilon-term", type=float, default=0.0,
                   help="segment-enlargement correction added as eps * M_k")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hoij",
        description="Taylor-expand re-weighted M-estimators for fast CV and bootstrap",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="solve the base problem at unit weights")
    _add_common(p)

    p = sub.add_parser("expand", help="Taylor coefficients for a weight scheme (no re-fits)")
    _add_common(p)
    _add_scheme(p)
    p.add_argument("--order", type=int, default=2)

    p = sub.add_parser("cv", help="approximate CV against exact re-fits")
    _add_common(p)
    _add_scheme(p)
    p.add_argument("--order", type=int, default=2)
    _add_bounds_flags(p)

    p = sub.add_parser("bootstrap", help="bootstrap covariance of the linear approximation")
    _add_common(p)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("bounds", help="estimate constants and error bounds")
    _add_common(p)
    p.add_argument("--order", type=int, default=2)
    _add_bounds_flags(p)

    p = sub.add_parser("terms", help="dump the derivative term tables as JSON")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scaling", help="LOO error rates over an N grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", default="50,100,200,400,800",
                   help="comma-separated strictly increasing N values")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--features", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


def _validate_order(order: int):
    if not 0 <= order <= K_MAX:
        raise UsageError(f"--order must be in 0..{K_MAX}, got {order}")


def _validate_bounds(args):
    # the constants of an order-K bound read derivatives of order K + 1
    if args.order >= K_MAX:
        raise UsageError(f"--order must be in 0..{K_MAX - 1} for error bounds, got {args.order}")
    if not 0.0 < args.rho < 1.0:
        raise UsageError(f"--rho must be strictly inside (0, 1), got {args.rho}")
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.radius is not None and not 0.0 <= args.radius < math.inf:
        raise UsageError(f"--radius must be finite and >= 0, got {args.radius}")
    if not 0.0 <= args.epsilon_term < math.inf:
        raise UsageError(f"--epsilon-term must be finite and >= 0, got {args.epsilon_term}")


def _load_problem(args):
    needs_response = args.model in ("linear_regression", "logistic_regression")
    data = models.load_dataset(args.data, fmt=args.format,
                               header=getattr(args, "header", False),
                               response=needs_response)
    return models.make_problem(args.model, data)


def _validate_draws(draws: int):
    if draws < 1:
        raise UsageError(f"--draws must be >= 1, got {draws}")


def _weight_stream(args, n):
    if args.scheme in ("kappa", "bootstrap"):
        _validate_draws(args.draws)
    if args.scheme == "loo":
        return models.loo_weights(n)
    if args.scheme == "kfold":
        return models.kfold_weights(n, args.folds, seed=args.seed)
    if args.scheme == "kappa":
        return models.leave_kappa_out_weights(n, args.kappa, seed=args.seed,
                                              count=args.draws)
    return models.bootstrap_weights(n, args.draws, seed=args.seed)


def _output_paths(args) -> list:
    """The JSON file ``--out`` names, then the CSV file cv and scaling add."""
    if not args.out:
        return []
    path = Path(args.out)
    return [path, path.with_suffix(".csv")] if args.command in ("cv", "scaling") else [path]


def _check_outputs(args) -> None:
    paths = _output_paths(args)
    if len(paths) == 2 and paths[0] == paths[1]:
        raise UsageError(f"--out {args.out!r} is also the path of the CSV file it writes")
    data = getattr(args, "data", None)
    for path in paths:
        if path.is_dir():
            raise UsageError(f"output file {str(path)!r} is a directory")
        if not path.parent.is_dir():
            raise UsageError(f"output file {str(path)!r} is not in an existing directory")
        try:
            same = data is not None and path.samefile(data)
        except OSError:  # a file that does not exist is not the dataset
            same = False
        if same:
            raise UsageError(f"output file {str(path)!r} would overwrite the dataset --data")


def _emit(obj: dict, args, csv_text=None) -> None:
    """Write ``obj``, with the schema version and the resolved configuration,
    as ``json.dumps(obj, sort_keys=True)``: one line, sorted keys, through
    the standard library's C encoder (json's pure-Python encoder runs when
    ``indent`` is given).  The JSON goes to ``--out``, or to stdout without
    it; ``csv_text``, if given, to the CSV file next to it."""
    obj = {"schema_version": SCHEMA_VERSION, "config": vars(args), **obj}
    text = json.dumps(obj, sort_keys=True)
    paths = _output_paths(args)
    if paths:
        paths[0].write_text(text + "\n")
        if csv_text is not None:
            with open(paths[1], "w", newline="") as fh:
                fh.write(csv_text)
    else:
        print(text)


def _cmd_fit(args):
    problem = _load_problem(args)
    theta_hat = solve_base(problem)
    hfac = factorize_hessian(problem, theta_hat)
    grad = models.evaluate_g(problem, theta_hat, np.ones(problem.n_terms))
    _emit({
        "theta_hat": [float(v) for v in theta_hat],
        "grad_norm": float(np.linalg.norm(grad)),
        "hessian_rcond": hfac.cond_estimate,
        "n": problem.n_terms,
        "dim": problem.dim_theta,
    }, args)
    print(f"fit: converged at theta_hat with ||G||_2 = {float(np.linalg.norm(grad)):.3e}",
          file=sys.stderr)


def _cmd_expand(args):
    _validate_order(args.order)
    if args.order < 1:
        raise UsageError("--order must be >= 1 for expand")
    problem = _load_problem(args)
    blocks = resampling.weight_blocks(_weight_stream(args, problem.n_terms), problem.n_terms)
    theta_hat = solve_base(problem)
    hfac = factorize_hessian(problem, theta_hat)
    table = term_tables(args.order)
    records = []
    for labels, values in blocks:
        expn = evaluate_theta_ij(problem, theta_hat, hfac, table, values - 1.0, args.order)
        dthetas = np.stack(expn.dthetas, axis=1).tolist()
        partials = expn.partial_sums().tolist()
        records.extend({"label": label, "dthetas": d, "theta_ij": p}
                       for label, d, p in zip(labels, dthetas, partials))
    _emit({
        "theta_hat": [float(v) for v in theta_hat],
        "order": args.order,
        "expansions": records,
    }, args)
    print(f"expand: {len(records)} weight vectors at order {args.order}", file=sys.stderr)


def _cmd_cv(args):
    _validate_order(args.order)
    if args.with_bounds:
        _validate_bounds(args)
    problem = _load_problem(args)
    weights = _weight_stream(args, problem.n_terms)
    # centred on the base fit that run_cv solves
    sampler = functools.partial(bnd.default_sampler, n_samples=args.samples,
                                seed=args.seed, radius=args.radius)
    report = resampling.run_cv(
        problem, weights, args.order,
        with_bounds=args.with_bounds, rho=args.rho, sampler=sampler,
        epsilon=args.epsilon_term,
        metadata={"scheme": args.scheme, "seed": args.seed},
    )
    _emit(report.to_json_obj(), args, csv_text=report.csv_text())
    print(f"cv: {len(report.outcomes)} weights, max error per order "
          f"{[f'{e:.3e}' for e in report.max_error]}", file=sys.stderr)


def _cmd_bootstrap(args):
    _validate_order(args.order)
    _validate_draws(args.draws)
    problem = _load_problem(args)
    theta_hat = solve_base(problem)
    hfac = factorize_hessian(problem, theta_hat)
    empirical, expanded = resampling.bootstrap_covariances(
        problem, theta_hat, hfac, args.draws, order=args.order, seed=args.seed)
    sandwich = resampling.sandwich_covariance(problem, theta_hat, hfac)
    linear = resampling.linear_covariance(problem, theta_hat, hfac)
    obj = {
        "theta_hat": [float(v) for v in theta_hat],
        "draws": args.draws,
        "sandwich_covariance": sandwich.tolist(),
        "ij_linear_covariance": linear.tolist(),
        "empirical_linear_covariance": empirical.tolist(),
        "identity_max_abs_gap": float(np.max(np.abs(sandwich - linear))),
        # scaling convention for the centered term covariance, chosen so the
        # identity between the two routes is exact rather than asymptotic
        "covariance_convention": "centered outer products over N^2",
    }
    if expanded is not None:
        obj["empirical_covariance_order_k"] = expanded.tolist()
    _emit(obj, args)
    print(f"bootstrap: identity gap {obj['identity_max_abs_gap']:.3e} over "
          f"{args.draws} draws", file=sys.stderr)


def _cmd_bounds(args):
    _validate_order(args.order)
    _validate_bounds(args)
    problem = _load_problem(args)
    theta_hat = solve_base(problem)
    sampler = bnd.default_sampler(theta_hat, n_samples=args.samples, seed=args.seed,
                                  radius=args.radius)
    report = bnd.bounds_report(problem, theta_hat, sampler, args.order,
                               rho=args.rho, epsilon=args.epsilon_term)
    _emit(report, args)
    print(f"bounds: condition_satisfied={report['condition_satisfied']} "
          f"(C_set={report['C_set']:.4g}, rho={args.rho})", file=sys.stderr)


def _cmd_terms(args):
    if not 1 <= args.max_order <= K_MAX:
        raise UsageError(f"--max-order must be in 1..{K_MAX}, got {args.max_order}")
    table = term_tables(args.max_order)
    _emit({"tables": table.to_json_obj()}, args)
    print(f"terms: tables through order {args.max_order}", file=sys.stderr)


def _cmd_scaling(args):
    _validate_order(args.order)
    try:
        grid = [int(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--grid must be comma-separated integers, got {args.grid!r}")
    if len(grid) < 2 or min(grid) < 2:
        raise UsageError(f"--grid needs at least two sizes, each >= 2, got {args.grid!r}")
    if args.features < 1:
        raise UsageError(f"--features must be >= 1, got {args.features}")
    if not 0.0 <= args.noise < math.inf:
        raise UsageError(f"--noise must be finite and >= 0, got {args.noise}")
    gen = resampling.GeneratorConfig(n_features=args.features, noise=args.noise)
    report = resampling.scaling_study(args.model, gen, grid, args.order,
                                      seed=args.seed)
    _emit(report.to_json_obj(), args, csv_text=report.csv_text())
    slopes = {k: f"{s:.2f}" for k, (s, _) in sorted(report.slopes.items())}
    print(f"scaling: fitted slopes per order {slopes}", file=sys.stderr)


_COMMANDS = {
    "fit": _cmd_fit,
    "expand": _cmd_expand,
    "cv": _cmd_cv,
    "bootstrap": _cmd_bootstrap,
    "bounds": _cmd_bounds,
    "terms": _cmd_terms,
    "scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:  # --help
        return 2 if err.code not in (0, None) else 0
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "seed", 0) < 0:  # before any work, and naming the flag
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        _check_outputs(args)
        _COMMANDS[args.command](args)
    except np.linalg.LinAlgError as err:  # a ValueError, but a computation error
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, IsADirectoryError) as err:
        # UsageError and DatasetError are ValueErrors
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (SolverError, NonFiniteValueError, OSError, RuntimeError, MemoryError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
