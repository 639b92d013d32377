"""Estimating problems, datasets, weight vectors, and the model registry.

An estimating problem is the root-finding system

    G(theta, w) = (1/N) (g_0(theta) + sum_n w_n g_n(theta)) = 0,

where w re-weights the per-datum terms g_n and g_0 is an optional
regularization term.  The built-in models expose g_n as the gradient of a
per-datum loss; all of them evaluate on the AD scalar types from
:mod:`hoij.forward_ad`, so one code path serves values and derivatives of
every order.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import forward_ad as fad


class DatasetError(ValueError):
    """Raised for unparseable, empty, or non-finite input data."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable numeric dataset: an (N, P) feature matrix and optional response."""

    features: np.ndarray
    response: Optional[np.ndarray] = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DatasetError(f"features must be a nonempty 2-d array, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            r, c = np.argwhere(~np.isfinite(feats))[0]
            raise DatasetError(f"non-finite feature value at row {r + 1}, column {c + 1}")
        object.__setattr__(self, "features", feats)
        if self.response is not None:
            resp = np.asarray(self.response, dtype=float)
            if resp.shape != (feats.shape[0],):
                raise DatasetError(
                    f"response length {resp.shape} does not match {feats.shape[0]} rows"
                )
            if not np.all(np.isfinite(resp)):
                r = int(np.flatnonzero(~np.isfinite(resp))[0])
                raise DatasetError(f"non-finite response value at row {r + 1}")
            object.__setattr__(self, "response", resp)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _parse_cell(token: str, row: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(
            f"cannot parse {token!r} as a number at row {row}, column {col}"
        ) from None
    if not np.isfinite(value):
        raise DatasetError(f"non-finite value {token!r} at row {row}, column {col}")
    return value


# Bytes of a plain numeric CSV body: ASCII numerals, commas, blanks, line
# ends and quotes.  numpy's reader parses these cells as the csv module and
# float() do, and rejects what they reject, but it also strips characters
# that float() rejects (\x1c-\x1f), so no other byte may take its path.
_PLAIN_CSV_BYTES = b'0123456789+-.eE, \t\r\n"'


def _load_plain_csv(path, header: bool) -> Optional[np.ndarray]:
    """The matrix numpy's C reader makes of a plain numeric CSV file, or
    None when the file is not plain, has no digit, or numpy rejects it or
    reads a non-finite value, so that the csv module's path words the error.
    """
    skip, offset = 0, 0
    if header:
        # the header is the first line with a character other than a comma
        # or white space; a quote may make it span lines
        try:
            with open(path, encoding="utf-8-sig", newline="") as fh:
                for line in iter(fh.readline, ""):
                    skip += 1
                    offset += len(line.encode())
                    if '"' in line:
                        return None
                    if line.replace(",", "").strip():
                        break
        except UnicodeDecodeError:
            return None
    digit = False
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8:
            offset += len(codecs.BOM_UTF8)
        fh.seek(offset)
        while chunk := fh.read(1 << 16):
            if chunk.translate(None, _PLAIN_CSV_BYTES):
                return None
            digit = digit or any(d in chunk for d in b"0123456789")
    if not digit:
        return None
    try:
        mat = np.loadtxt(path, delimiter=",", comments=None, skiprows=skip, ndmin=2,
                         dtype=float, quotechar='"', encoding="utf-8-sig")
    except ValueError:
        return None
    return mat if np.isfinite(mat).all() else None


def _load_csv_cells(path, header: bool) -> np.ndarray:
    """The matrix of a CSV file read by the csv module, one float() call per
    cell, raising the first error in row order."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            raw = [row for row in reader if "".join(row).strip()]
        except csv.Error as err:  # such as a cell over the csv module's field limit
            raise DatasetError(f"cannot read line {reader.line_num} of {path}: {err}") from None
    if header and raw:
        raw = raw[1:]
    if not raw:
        raise DatasetError(f"no rows in {path}")
    width = len(raw[0])
    rows = []
    for i, row in enumerate(raw):
        if len(row) != width:
            raise DatasetError(f"row {i + 1} has {len(row)} columns, expected {width}")
        rows.append([_parse_cell(tok, i + 1, j + 1) for j, tok in enumerate(row)])
    return np.array(rows, dtype=float)


def load_dataset(path, fmt: str = "csv", header: bool = False,
                 response: bool = False) -> Dataset:
    """Load a dataset from CSV or JSON, read as UTF-8 after an optional
    byte-order mark (spreadsheets' "CSV UTF-8" exports write one).

    CSV rows are all-numeric; with ``response=True`` the last column is split
    off as the response.  Rows whose cells are all blank are skipped, and
    ``header=True`` drops the first row that is not.  JSON files hold a list
    of ``{"x": [...], "y": ...}`` row objects (``y`` optional, but
    consistently present or absent).  All values are parsed as ``float()``
    parses them and must be finite.

    A CSV file whose rows after the header hold only ASCII digits, ``+``,
    ``-``, ``.``, ``e``, ``E``, commas, spaces, tabs and quotes is read by
    numpy's C reader (``np.loadtxt``, quoting with ``"`` when a row holds
    one), after one scan of its bytes.  Any other file, and any file numpy
    rejects or reads a non-finite value from, takes the csv module and one
    ``float()`` call per cell, which also words every error by row and
    column.  Both give float()'s values, bit for bit.  On 3000 rows of 4
    float reprs the first takes about 2 ms and the second about 17 ms; on
    20 000 rows of 11 their traced peaks are about 1.2 and 17 times the
    1.76 MB matrix.
    """
    if fmt == "csv":
        mat = _load_plain_csv(path, header)
        if mat is None:
            mat = _load_csv_cells(path, header)
        if response:
            if mat.shape[1] < 2:
                raise DatasetError("response requested but rows have a single column")
            return Dataset(mat[:, :-1], mat[:, -1])
        return Dataset(mat)
    if fmt == "json":
        with open(path, encoding="utf-8-sig") as fh:
            try:
                records = json.load(fh)
            except json.JSONDecodeError as err:
                raise DatasetError(f"invalid JSON in {path}: {err}") from None
        if not isinstance(records, list) or not records:
            raise DatasetError(f"no rows in {path}")
        feats, resp = [], []
        for i, rec in enumerate(records):
            if not isinstance(rec, dict):
                raise DatasetError(f"row {i + 1} is not an object")
            if "x" not in rec:
                raise DatasetError(f"row {i + 1} is missing the 'x' field")
            if not isinstance(rec["x"], list):
                raise DatasetError(f"row {i + 1}: 'x' is not a list")
            if len(rec["x"]) != len(records[0]["x"]):
                raise DatasetError(
                    f"row {i + 1} has {len(rec['x'])} features, "
                    f"expected {len(records[0]['x'])}"
                )
            feats.append([_parse_cell(str(v), i + 1, j + 1) for j, v in enumerate(rec["x"])])
            if "y" in rec:
                resp.append(_parse_cell(str(rec["y"]), i + 1, len(rec["x"]) + 1))
        if resp and len(resp) != len(feats):
            raise DatasetError("some rows have 'y' and some do not")
        return Dataset(np.array(feats, dtype=float), np.array(resp) if resp else None)
    raise DatasetError(f"unknown format {fmt!r} (expected 'csv' or 'json')")


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-datum weights w with the cached offset delta = w - 1."""

    values: np.ndarray
    label: str = ""
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError(f"weights must be a nonempty 1-d vector, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("weights must be finite")
        values = values.copy()
        values.setflags(write=False)
        delta = values - 1.0
        delta.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def _owned(cls, values: np.ndarray, label: str) -> "WeightVector":
        # A vector over a finite 1-d float array that the caller made and
        # hands over: it is frozen in place, neither scanned nor copied.
        values.setflags(write=False)
        delta = values - 1.0
        delta.setflags(write=False)
        out = object.__new__(cls)
        for name, value in (("values", values), ("label", label), ("delta", delta)):
            object.__setattr__(out, name, value)
        return out

    def __len__(self) -> int:
        return self.values.size


def loo_weights(n: int, subset: Optional[Sequence[int]] = None) -> Iterator[WeightVector]:
    """Leave-one-out weights, one vector per dropped datum.

    ``subset`` holds 1-based data indices; the default drops every datum
    in turn.  At least two rows are required: with one, the only weight
    vector leaves every row out, where G is g_0 alone.
    """
    if n < 2:
        raise ValueError(f"leave-one-out needs at least 2 rows, got {n}")
    indices = range(1, n + 1) if subset is None else sorted(set(int(i) for i in subset))
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
        values = np.ones(n)
        values[i - 1] = 0.0
        yield WeightVector._owned(values, f"drop:{i}")


def kfold_weights(n: int, folds: int, seed: int = 0) -> Iterator[WeightVector]:
    """K-fold CV weights: a seeded partition of every row into ``folds`` folds.

    Fold sizes differ by at most one.  At least two folds are required: a
    single fold leaves every row out, where G is identically zero.
    """
    if not 2 <= folds <= n:
        raise ValueError(f"fold count {folds} outside 2..{n}")
    rng = np.random.default_rng(seed)
    for f, held_out in enumerate(np.array_split(rng.permutation(n), folds)):
        values = np.ones(n)
        values[held_out] = 0.0
        yield WeightVector._owned(values, f"fold:{f + 1}")


def leave_kappa_out_weights(n: int, kappa: int, seed: int = 0,
                            count: int = 1) -> Iterator[WeightVector]:
    """Random leave-kappa-out weights: ``count`` draws of kappa zeros each.

    kappa must leave at least one row in: kappa = n leaves every row out,
    where G is g_0 alone and any theta is a root.
    """
    if not 1 <= kappa < n:
        raise ValueError(f"kappa {kappa} outside 1..{n - 1}")
    rng = np.random.default_rng(seed)
    for b in range(count):
        values = np.ones(n)
        values[rng.choice(n, size=kappa, replace=False)] = 0.0
        yield WeightVector._owned(values, f"kappa:{b + 1}")


def bootstrap_weights(n: int, draws: int, seed: int = 0) -> Iterator[WeightVector]:
    """Multinomial bootstrap weights: counts of n draws over n equiprobable
    cells, the rows of :func:`bootstrap_weight_blocks`."""
    rows = itertools.chain.from_iterable(bootstrap_weight_blocks(n, draws, seed))
    for b, row in enumerate(rows):
        yield WeightVector(row, label=f"boot:{b + 1}")


# A block of weight vectors holds at most this many entries (weights x data
# rows), so memory does not grow with the number of weight vectors.
WEIGHT_BLOCK_ELEMENTS = 1 << 18


def bootstrap_weight_blocks(n: int, draws: int, seed: int = 0) -> Iterator[np.ndarray]:
    """Multinomial bootstrap weights, one block of draws at a time.

    Each block is a fresh (m, n) float array, one multinomial draw of n over
    n equiprobable cells per row, with m at most
    ``max(1, WEIGHT_BLOCK_ELEMENTS // n)``.  So a block, and the sampler's
    integer counts it is converted from, stay small whatever ``draws`` is.
    One multinomial call of size m draws what m calls of size 1 draw, so
    the rows do not depend on the block size.
    """
    chunk = max(1, WEIGHT_BLOCK_ELEMENTS // n)
    rng = np.random.default_rng(seed)
    p = np.full(n, 1.0 / n)
    for lo in range(0, draws, chunk):
        yield rng.multinomial(n, p, size=min(chunk, draws - lo)).astype(float)


@dataclass(frozen=True, eq=False)
class EstimatingProblem:
    """The functions g_0, g_1..g_N defining G(theta, w).

    ``term_fn(n, theta)`` evaluates g_n at theta (a sequence of D
    scalar-likes) for n = 0..N, where n = 0 is the regularization term.
    ``batch_fn(theta, rows)`` evaluates every g_n for the 0-based data rows
    at once, returning scalar-likes with array leaves; it must agree with
    term_fn exactly.  It must also broadcast theta leaves of shape (B, 1)
    against its row arrays, giving (B, rows) leaves that hold g_n at B
    points, and ``term_fn(0, theta)`` must accept the same leaves:
    :func:`hoij.expansion.evaluate_g_block` evaluates a block of re-fits this
    way.  Every path reads the data rows through ``batch_fn`` and g_0
    through ``term_fn(0, theta)``.  A problem given by ``term_fn`` alone gets
    a ``batch_fn`` that calls it once per row and stacks the rows with
    :func:`hoij.forward_ad.stack_rows`.
    """

    dim_theta: int
    n_terms: int
    term_fn: Callable
    model_id: str = "custom"
    batch_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.dim_theta < 1:
            raise ValueError("dim_theta must be >= 1")
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        object.__setattr__(self, "batch_fn", self.batch_fn or _batch_from_terms(self.term_fn))


def _batch_from_terms(term_fn: Callable) -> Callable:
    # The batch_fn of a problem given by term_fn alone: one call per row.
    def batch_fn(theta, rows):
        outs = [term_fn(int(r) + 1, theta) for r in rows]
        return [fad.stack_rows(values) for values in zip(*outs)]
    return batch_fn


def evaluate_g(problem: EstimatingProblem, theta, w) -> np.ndarray:
    """G(theta, w) as a length-D float vector."""
    weights = np.asarray(getattr(w, "values", w), dtype=float)
    if weights.shape != (problem.n_terms,):
        raise ValueError(
            f"weight length {weights.shape} does not match {problem.n_terms} terms"
        )
    theta = [float(t) for t in theta]
    n, total = problem.n_terms, float(weights.sum())
    g0 = problem.term_fn(0, theta)
    # a float leaf is the same in every row
    data = [float(weights @ o) if isinstance(o, np.ndarray) else float(o) * total
            for o in problem.batch_fn(theta, np.arange(n))]
    out = np.array([float((g0[j] + data[j]) / n) for j in range(problem.dim_theta)])
    if not np.all(np.isfinite(out)):
        raise fad.NonFiniteValueError(f"non-finite estimating function value: {out}")
    return out


# -- model registry ----------------------------------------------------------

MODEL_REGISTRY: dict[str, Callable] = {}


def register_model(model_id: str):
    def deco(builder):
        MODEL_REGISTRY[model_id] = builder
        return builder
    return deco


def make_problem(model_id: str, dataset: Dataset, reg: Optional[dict] = None) -> EstimatingProblem:
    """Build a registered model's estimating problem for a dataset.

    The one ``reg`` option is ``l2``, the ridge strength lam, which gives
    g_0 = lam * theta; any other key raises ValueError.  ``mean`` has g_n =
    theta - x_n; the index models ``linear_regression``,
    ``logistic_regression`` and ``exp_loss`` come from one builder of g_n =
    r(theta . x_n, y_n) x_n, with the residual r = z - y, sigmoid(z) - y
    and exp(z) of the index z = theta . x_n.
    """
    if model_id not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ValueError(f"unknown model {model_id!r} (registered: {known})")
    unknown = sorted(set(reg or ()) - {"l2"})
    if unknown:
        raise ValueError(f"unknown reg option {unknown[0]!r} (the one option is 'l2')")
    return MODEL_REGISTRY[model_id](dataset, reg or {})


def _g0_builder(lam: float, dim: int):
    if lam == 0.0:
        zeros = [0.0] * dim
        return lambda theta: list(zeros)
    return lambda theta: [lam * theta[d] for d in range(dim)]


def _columns(x: np.ndarray) -> np.ndarray:
    # The features as (D, N) rows, so a batch_fn reads each feature of its
    # rows as one contiguous column, not a strided one.
    return np.ascontiguousarray(x.T)


def _require_response(dataset: Dataset, model_id: str) -> np.ndarray:
    if dataset.response is None:
        raise ValueError(f"model {model_id!r} requires a response column")
    return dataset.response


@register_model("mean")
def _build_mean(dataset: Dataset, reg: dict) -> EstimatingProblem:
    # g_n(theta) = theta - x_n: the root of G is the weighted mean.
    x = dataset.features
    n, dim = x.shape
    xt = _columns(x)
    g0 = _g0_builder(float(reg.get("l2", 0.0)), dim)

    def term(i, theta):
        if i == 0:
            return g0(theta)
        xi = x[i - 1]
        return [theta[d] - xi[d] for d in range(dim)]

    def batch(theta, rows):
        xr = xt.take(rows, axis=1)
        return [theta[d] - xr[d] for d in range(dim)]

    return EstimatingProblem(dim, n, term, model_id="mean", batch_fn=batch)


def _register_index_model(model_id: str, residual: Callable, response: bool = True) -> None:
    # g_n(theta) = r(theta . x_n, y_n) x_n for a residual r of the linear
    # index z = theta . x_n; a model without a response reads y_n = 0.
    def build(dataset: Dataset, reg: dict) -> EstimatingProblem:
        x = dataset.features
        n, dim = x.shape
        y = _require_response(dataset, model_id) if response else np.zeros(n)
        xt = _columns(x)
        g0 = _g0_builder(float(reg.get("l2", 0.0)), dim)

        def term(i, theta):
            if i == 0:
                return g0(theta)
            xi = x[i - 1]
            r = residual(sum(theta[d] * xi[d] for d in range(dim)), y[i - 1])
            return [r * xi[d] for d in range(dim)]

        def batch(theta, rows):
            xr = xt.take(rows, axis=1)
            r = residual(sum(theta[d] * xr[d] for d in range(dim)), y[rows])
            return [r * xr[d] for d in range(dim)]

        return EstimatingProblem(dim, n, term, model_id=model_id, batch_fn=batch)

    register_model(model_id)(build)


# least-squares normal equations; logistic regression for labels y_n in
# {0, 1}; the gradient of exp(theta . x_n)
_register_index_model("linear_regression", lambda z, y: z - y)
_register_index_model("logistic_regression", lambda z, y: fad.sigmoid(z) - y)
_register_index_model("exp_loss", lambda z, y: fad.exp(z), response=False)
