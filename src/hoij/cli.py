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
import itertools
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
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
from .models import DatasetError
from .terms import term_tables

SCHEMA_VERSION = resampling.SCHEMA_VERSION

class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``usage error:`` line, exit code 2."""

    def error(self, message):
        raise UsageError(message)


def _add_common(p, data=True):
    if data:
        p.add_argument("--model", required=True, help="registered model id")
        p.add_argument("--data", required=True, help="path to the dataset")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--header", action="store_true",
                       help="first CSV row is a header")
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


def _resolved_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _output_paths(args) -> list:
    """The JSON file ``--out`` names, then the CSV file cv and scaling add."""
    if not args.out:
        return []
    path = Path(args.out)
    return [path, path.with_suffix(".csv")] if args.command in ("cv", "scaling") else [path]


def _check_outputs(args) -> None:
    data = getattr(args, "data", None)
    for path in _output_paths(args):
        try:
            same = data is not None and path.samefile(data)
        except OSError:  # a file that does not exist is not the dataset
            same = False
        if same:
            raise UsageError(f"output file {str(path)!r} would overwrite the dataset --data")


# json spells the non-finite floats as JavaScript names them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _json_key(key) -> str:
    # json's conversion of a dict key to a string
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, the same text, faster.

    ``indent`` is the newline and indentation before obj's closing bracket.
    A list of floats, the bulk of a report, is one join over
    ``float.__repr__``, where json's encoder makes several calls per float.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, resampling.OutcomeRecords):
        return _outcome_records_text(obj, indent)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        text = None
        if isinstance(obj[0], float):
            try:
                text = sep.join(map(float.__repr__, obj))
            except TypeError:  # floats mixed with other values
                pass
        if text is None:
            text = sep.join([_json_text(v, inner) for v in obj])
        elif "n" in text:  # nan, inf or -inf
            text = sep.join(map(_json_float, obj))
        return "[" + inner + text + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{" + inner + sep.join([_quote(_json_key(k)) + ": " + _json_text(v, inner)
                                        for k, v in sorted(obj.items())]) + indent + "}")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# The fields of a cv outcome record, in json's sorted order; expand_error
# appears only when the expansion failed.
_RECORD_FIELDS = ("errors", "expand_error", "label", "refit_error", "theta_exact", "theta_ij")


def _array_template(shape: tuple, indent: str, slot: str = "%r") -> str:
    # the json text of a float array of this shape, one slot per float
    if not shape:
        return slot
    if not shape[0]:
        return "[]"
    inner = indent + "  "
    return ("[" + inner + ("," + inner).join([_array_template(shape[1:], inner, slot)] * shape[0])
            + indent + "]")


def _outcome_records_text(records, indent: str) -> str:
    """``_json_text`` of a cv report's outcome records, rendered from their
    outcomes' arrays.

    Records of one shape, which fields are null, strings or float arrays of
    which shapes, share one %-template.  Each shape's floats are stacked
    into one (records, floats) array, and each record fills its template
    with its row, its errors' reprs from the report and its quoted strings
    in one operation.  A record with a non-finite float, or a field of any
    other type, goes through ``_json_text`` as a dict.
    """
    if not records:
        return "[]"
    inner = indent + "  "
    field = inner + "  "
    outcomes, error_reprs = records.outcomes, records.error_reprs
    texts = [None] * len(records)
    shapes: dict = {}
    for i, o in enumerate(outcomes):
        # a float array by its shape, anything else by its type
        shape = tuple(v.shape if type(v) is np.ndarray else type(v)
                      for v in [getattr(o, name) for name in _RECORD_FIELDS])
        shapes.setdefault(shape, []).append(i)
    for shape, rows in shapes.items():
        if not all(kind in (str, type(None)) or type(kind) is tuple for kind in shape):
            for i in rows:
                texts[i] = _json_text(records[i], inner)
            continue
        parts, segments, columns, width = [], [], [], 0
        for name, kind in zip(_RECORD_FIELDS, shape):
            if kind is type(None):
                if name != "expand_error":  # absent, not null, when there is none
                    parts.append(f'"{name}": null')
            elif kind is str:
                parts.append(f'"{name}": %s')
                segments.append(name)
            else:
                # the errors' floats are stacked only to test them finite;
                # their text is the reprs the CSV writer also uses
                cols = slice(width, width + math.prod(kind))
                errors = name == "errors"
                slot = "%s" if errors else "%r"
                parts.append(f'"{name}": ' + _array_template(kind, field, slot))
                columns.append((name, cols))
                segments.append(None if errors else cols)
                width = cols.stop
        template = "{" + field + ("," + field).join(parts) + inner + "}"
        floats = np.empty((len(rows), width))
        for name, cols in columns:
            floats[:, cols] = np.array([getattr(outcomes[i], name) for i in rows],
                                       dtype=float).reshape(len(rows), -1)
        for i, values, finite in zip(rows, floats, np.isfinite(floats).all(axis=1).tolist()):
            if not finite:
                texts[i] = _json_text(records[i], inner)
                continue
            row, args = values.tolist(), []
            for seg in segments:
                if seg is None:
                    args.extend(error_reprs[i])
                elif type(seg) is str:
                    args.append(_quote(getattr(outcomes[i], seg)))
                else:
                    args.extend(row[seg])
            texts[i] = template % tuple(args)
    # the brackets join the first and last records, so that the list's text
    # is built once, not copied again to add them
    texts[0] = "[" + inner + texts[0]
    texts[-1] += indent + "]"
    return ("," + inner).join(texts)


def _emit(obj: dict, args, csv_text=None) -> None:
    obj = {"schema_version": SCHEMA_VERSION, "config": _resolved_config(args), **obj}
    text = _json_text(obj)
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
    weights = _weight_stream(args, problem.n_terms)
    theta_hat = solve_base(problem)
    hfac = factorize_hessian(problem, theta_hat)
    table = term_tables(args.order)
    records = []
    weights = iter(weights)
    size = max(1, models.WEIGHT_BLOCK_ELEMENTS // problem.n_terms)
    while block := list(itertools.islice(weights, size)):
        expn = evaluate_theta_ij(problem, theta_hat, hfac, table,
                                 np.array([w.delta for w in block]), args.order)
        dthetas = np.stack(expn.dthetas, axis=1).tolist()
        partials = np.stack([expn.partial_sum(k) for k in range(args.order + 1)],
                            axis=1).tolist()
        records.extend({"label": w.label, "dthetas": d, "theta_ij": p}
                       for w, d, p in zip(block, dthetas, partials))
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
    sampler = functools.partial(bnd.default_sampler, problem, order=args.order,
                                n_samples=args.samples, seed=args.seed,
                                radius=args.radius)
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
    # the covariances read the order-0 rows, which the expansion's pass gives
    hfac.prepare_expansion(args.order)
    sandwich = resampling.sandwich_covariance(problem, theta_hat, hfac)
    linear = resampling.linear_covariance(problem, theta_hat, hfac)
    samples, expns = resampling.bootstrap_samples(problem, theta_hat, hfac, args.draws,
                                                  order=args.order, seed=args.seed)
    empirical = np.cov(samples, rowvar=False, bias=True).reshape(
        problem.dim_theta, problem.dim_theta)
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
    if expns is not None:
        obj["empirical_covariance_order_k"] = np.cov(
            expns, rowvar=False, bias=True).reshape(
            problem.dim_theta, problem.dim_theta).tolist()
    _emit(obj, args)
    print(f"bootstrap: identity gap {obj['identity_max_abs_gap']:.3e} over "
          f"{args.draws} draws", file=sys.stderr)


def _cmd_bounds(args):
    _validate_order(args.order)
    _validate_bounds(args)
    problem = _load_problem(args)
    theta_hat = solve_base(problem)
    sampler = bnd.default_sampler(problem, theta_hat, args.order, n_samples=args.samples,
                                  seed=args.seed, radius=args.radius)
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
        _check_outputs(args)
        _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (DatasetError, ValueError, FileNotFoundError, IsADirectoryError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (SolverError, NonFiniteValueError, np.linalg.LinAlgError,
            OSError, RuntimeError, MemoryError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
