"""Datasets, the model registry, weight schemes, and G evaluation."""

import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoij import (
    Dataset,
    DatasetError,
    EstimatingProblem,
    WeightVector,
    bootstrap_weight_blocks,
    bootstrap_weights,
    evaluate_g,
    kfold_weights,
    leave_kappa_out_weights,
    load_dataset,
    loo_weights,
    make_problem,
)
from hoij import forward_ad as fad
from hoij import models
from hoij.bounds import array_p_norm, full_derivative_entries, per_datum_derivative_entries
from hoij.bounds import _g0_derivative_entries
from hoij.expansion import evaluate_g_block
from hoij.models import _parse_cell

from helpers import ALL_MODELS, build_problem, mean_dataset_1236


class TestLoadDataset:
    def test_single_column_csv(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1\n2\n3\n6\n")
        data = load_dataset(p)
        assert data.n_rows == 4
        np.testing.assert_array_equal(data.features, [[1.0], [2.0], [3.0], [6.0]])
        assert data.response is None

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DatasetError, match="no rows"):
            load_dataset(p)

    def test_nan_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,nan\n")
        with pytest.raises(DatasetError, match="row 2, column 2"):
            load_dataset(p)

    def test_unparseable_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\nx,4\n")
        with pytest.raises(DatasetError, match="row 2, column 1"):
            load_dataset(p)

    def test_header_and_response_split(self, tmp_path):
        p = tmp_path / "xy.csv"
        p.write_text("a,b\n1,10\n2,20\n")
        data = load_dataset(p, header=True, response=True)
        np.testing.assert_array_equal(data.features, [[1.0], [2.0]])
        np.testing.assert_array_equal(data.response, [10.0, 20.0])

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(p)

    def test_json_rows(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"x": [1.0, 2.0], "y": 3.0},
                                 {"x": [4.0, 5.0], "y": 6.0}]))
        data = load_dataset(p, fmt="json")
        assert data.n_features == 2
        np.testing.assert_array_equal(data.response, [3.0, 6.0])

    def test_json_mixed_response_rejected(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"x": [1.0], "y": 3.0}, {"x": [4.0]}]))
        with pytest.raises(DatasetError, match="some rows"):
            load_dataset(p, fmt="json")


# Characters that float() treats specially: signs, exponents, underscores,
# inf/nan spellings, Unicode digits and spaces, and separators that str.strip()
# removes but float() does not.
CELL_CHARS = "0123456789+-._eEinfaNItyx \t\x1c\x00\u00a0\u0661\uff11,\""
CELL_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats().map(lambda v: f" {v!r}\t"),
    st.sampled_from(["1_0", "+.5", "-0", "\u0661\u0662", "0x10", "1d5", "", " 2 ", "nan",
                     "-inf", "1e400", "Infinity", "\x1c3", "1\x00", "\uff11\uff12"]),
    st.text(alphabet=CELL_CHARS, max_size=6),
)


def cell_by_cell(rows, path, header=False):
    """The CSV loader's result on ``rows``, one _parse_cell call per cell."""
    rows = [r for r in rows if r and any(t.strip() for t in r)]
    if header:
        rows = rows[1:]
    if not rows:
        raise DatasetError(f"no rows in {path}")
    out = []
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise DatasetError(f"row {i + 1} has {len(row)} columns, expected {len(rows[0])}")
        out.append([_parse_cell(tok, i + 1, j + 1) for j, tok in enumerate(row)])
    return np.array(out, dtype=float)


@settings(max_examples=200, deadline=None)
@given(ragged=st.booleans(), cols=st.integers(1, 3), data=st.data())
def test_csv_loader_matches_cell_by_cell(tmp_path_factory, ragged, cols, data):
    """The vectorised CSV loader parses and rejects exactly as _parse_cell does."""
    row = st.lists(CELL_TOKENS, min_size=1 if ragged else cols, max_size=cols)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    try:
        want = cell_by_cell(rows, path)
    except DatasetError as err:
        with pytest.raises(DatasetError) as got:
            load_dataset(path)
        assert str(got.value) == str(err)
        return
    got = load_dataset(path).features
    assert got.shape == want.shape
    # bitwise, so -0.0 and 0.0 differ
    assert got.tobytes() == want.tobytes()


def assert_loads_as_cell_by_cell(path, header):
    """load_dataset reads ``path`` bit for bit as the cell-by-cell oracle
    reads the csv module's rows of it, or raises the oracle's error."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        want = cell_by_cell(rows, path, header)
    except DatasetError as err:
        with pytest.raises(DatasetError) as got:
            load_dataset(path, header=header)
        assert str(got.value) == str(err)
        return
    got = load_dataset(path, header=header).features
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Files whose layout, not their cells, decides the CSV path: blank,
# whitespace-only and comma-only lines, every line end, a missing final
# newline, headers after blank lines, numeric headers, and cells holding
# characters numpy's reader strips or treats specially.
LAYOUTS = [
    ("1,2\n\n3,4\n", False),
    ("1,2\n \t\n3,4\n", False),
    ("1,2\n,\n3,4\n", False),
    ("\n,,\n \n1,2\n", False),
    ("1,2\r\n3,4\r\n", False),
    ("1,2\r3,4\r", False),
    ("1,2\r\r\n3,4", False),
    ("1,2\n3,4", False),
    (" 1 ,\t2\t\r\n-0,+.5e1\n", False),
    ("\n\r\n , \na,b\n1,2\n", True),
    ("5,6\n1,2\n3,4\n", True),
    ("\n\n5,6\r\n1,2\r\n", True),
    ('"a\nb",c\n1,2\n', True),
    ('" ",\n1,2\n', True),
    ("a,b\n", True),
    ("a,b\n\n \n", True),
    ("1,\x1c2\n", False),
    ("1,2\x1f\n", False),
    ("\x1d\n1,2\n", False),
    ("1,#2\n", False),
    ("#1,2\n3,4\n", False),
    ('"1",2\n', False),
    ('1,"2,3"\n', False),
    ("1,2,\n3,4,\n", False),
    ("1,1e400\n", False),
    ("1,2\n3\n", False),
    ("1.e5,.5\n+1,1E-3\n", False),
    ("1 2,3\n", False),
    (".,e\n", False),
]


@pytest.mark.parametrize("text, header", LAYOUTS)
def test_csv_layouts_match_cell_by_cell(tmp_path, text, header):
    path = tmp_path / "d.csv"
    path.write_text(text, newline="")
    assert_loads_as_cell_by_cell(path, header)


PLAIN_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**25, 10**25).map(str),
    st.text(alphabet="0123456789+-.eE \t", max_size=6),
)
ODD_TOKENS = st.sampled_from(["\x1c3", "3\x1d", "\x1e", "\x1f1", "#", "1#", '"1"', '"',
                              '"1,2"', "1e400", "nan", "1_0"])
BLANK_LINES = st.sampled_from(["", " ", "\t", ",", ",,", " , \t"])


@settings(max_examples=200, deadline=None)
@given(header=st.booleans(), ragged=st.booleans(), cols=st.integers(1, 3),
       final_newline=st.booleans(), data=st.data())
def test_csv_file_layout_matches_cell_by_cell(tmp_path_factory, header, ragged, cols,
                                              final_newline, data):
    """Files with blank lines, mixed line ends and headers load as the
    cell-by-cell oracle reads them, whichever path the loader takes."""
    token = st.one_of(PLAIN_TOKENS, PLAIN_TOKENS, PLAIN_TOKENS, ODD_TOKENS)
    row = st.lists(token, min_size=1 if ragged else cols, max_size=cols).map(",".join)
    lines = data.draw(st.lists(st.one_of(row, row, BLANK_LINES), max_size=6))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if not final_newline and text:
        text = text[:-len(ends[-1])]
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, newline="")
    assert_loads_as_cell_by_cell(path, header)


def test_csv_loader_memory(tmp_path):
    """Loading a plain 20 000 x 11 CSV file peaks within 3x the matrix."""
    want = np.random.default_rng(17).standard_normal((20_000, 11))
    path = tmp_path / "big.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([repr(v) for v in row] for row in want.tolist())
    tracemalloc.start()
    try:
        got = load_dataset(path).features
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 3 * want.nbytes, f"peak {peak} B for a {want.nbytes} B matrix"


class TestMakeProblem:
    def test_mean_term(self):
        prob = make_problem("mean", mean_dataset_1236())
        assert prob.dim_theta == 1 and prob.n_terms == 4
        # g_2(theta) = theta - 2
        assert prob.term_fn(2, [5.0])[0] == 3.0
        # g_0 defaults to zero
        assert prob.term_fn(0, [5.0])[0] == 0.0

    def test_exp_loss_term(self):
        prob = make_problem("exp_loss", Dataset(np.array([[1.0, 2.0]])))
        g = prob.term_fn(1, [0.0, 0.0])
        np.testing.assert_allclose([float(v) for v in g], [1.0, 2.0])

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            make_problem("ridge", mean_dataset_1236())

    def test_dimension_mismatch(self):
        data = Dataset(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="expected 3 features"):
            make_problem("linear_regression", data, reg={"expected_features": 3})

    def test_missing_response(self):
        with pytest.raises(ValueError, match="requires a response"):
            make_problem("linear_regression", Dataset(np.ones((3, 2))))

    def test_l2_regularizer_in_g0(self):
        prob = make_problem("mean", mean_dataset_1236(), reg={"l2": 0.5})
        assert prob.term_fn(0, [2.0])[0] == 1.0


class TestEvaluateG:
    def test_mean_at_root(self):
        prob = make_problem("mean", mean_dataset_1236())
        np.testing.assert_allclose(evaluate_g(prob, [3.0], np.ones(4)), [0.0], atol=1e-15)

    def test_mean_partial_weights(self):
        prob = make_problem("mean", mean_dataset_1236())
        out = evaluate_g(prob, [3.0], np.array([1.0, 1.0, 1.0, 0.0]))
        assert out[0] == pytest.approx(0.75, abs=1e-15)

    def test_weight_length_checked(self):
        prob = make_problem("mean", mean_dataset_1236())
        with pytest.raises(ValueError, match="weight length"):
            evaluate_g(prob, [3.0], np.ones(5))

    def test_term_by_term_recomputation(self):
        """Vectorized evaluation agrees with a per-term float sum."""
        rng = np.random.default_rng(3)
        for model_id in ALL_MODELS:
            prob = build_problem(model_id, rng)
            theta = rng.uniform(-0.5, 0.5, prob.dim_theta)
            total = np.array([float(v) for v in prob.term_fn(0, theta)])
            for n in range(1, prob.n_terms + 1):
                total = total + np.array([float(v) for v in prob.term_fn(n, theta)])
            expected = total / prob.n_terms
            got = evaluate_g(prob, theta, np.ones(prob.n_terms))
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-16)


    @pytest.mark.parametrize("l2", [0.0, 0.4])
    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_batch_fn_broadcasts_theta_leaves(self, model_id, l2):
        """The batched contract: one call with (B, 1) theta leaves gives, row
        for row, the B single-point calls, and so does g_0."""
        rng = np.random.default_rng(11)
        prob = build_problem(model_id, rng, n=9, dim=3, reg={"l2": l2} if l2 else None)
        thetas = rng.normal(scale=0.7, size=(5, 3))
        rows = np.array([0, 3, 4, 8])
        leaves = [thetas[:, d, None] for d in range(3)]
        block = [np.broadcast_to(o, (5, rows.size)) for o in prob.batch_fn(leaves, rows)]
        g0 = [np.broadcast_to(v, (5, 1))[:, 0] for v in prob.term_fn(0, leaves)]
        for b, theta in enumerate(thetas):
            point = [float(t) for t in theta]
            for d, o in enumerate(prob.batch_fn(point, rows)):
                np.testing.assert_allclose(block[d][b], o, rtol=1e-15, atol=0)
            for d, v in enumerate(prob.term_fn(0, point)):
                np.testing.assert_allclose(g0[d][b], v, rtol=1e-15, atol=0)


class TestWeightVectors:
    def test_values_minus_delta_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = WeightVector(rng.uniform(0.0, 2.0, 40))
            assert np.all(w.values - w.delta == 1.0)
        w = WeightVector(np.array([0.0, 1.0, 3.0, 0.5]))
        np.testing.assert_array_equal(w.delta, [-1.0, 0.0, 2.0, -0.5])

    @pytest.mark.parametrize("values", [[1.0, np.nan, 0.0], [np.inf, 1.0], [1.0, -np.inf],
                                        np.ones((2, 3))])
    def test_non_finite_or_not_a_vector_rejected(self, values):
        with pytest.raises(ValueError, match="finite|1-d vector"):
            WeightVector(np.array(values))

    def test_generated_vectors_as_the_public_constructor_makes_them(self):
        """LOO, k-fold and leave-kappa-out vectors, built without the public
        constructor's scan and copy, carry the same read-only values and
        delta; the public constructor still copies what it is given."""
        for w in [*loo_weights(5), *kfold_weights(5, 2, seed=1),
                  *leave_kappa_out_weights(5, 2, seed=1, count=2)]:
            public = WeightVector(w.values, label=w.label)
            assert public.values is not w.values
            for got, want in ((w.values, public.values), (w.delta, public.delta)):
                np.testing.assert_array_equal(got, want)
                for a in (got, want):
                    assert a.dtype == np.float64 and not a.flags.writeable
        values = np.ones(3)
        w = WeightVector(values)
        values[0] = 5.0
        assert w.values[0] == 1.0

    def test_loo_example(self):
        vecs = list(loo_weights(3, [2]))
        assert len(vecs) == 1
        np.testing.assert_array_equal(vecs[0].values, [1.0, 0.0, 1.0])
        assert vecs[0].label == "drop:2"

    def test_loo_full_set(self):
        vecs = list(loo_weights(4))
        assert len(vecs) == 4
        for i, w in enumerate(vecs):
            assert w.values[i] == 0.0 and w.values.sum() == 3.0

    def test_loo_bad_index(self):
        with pytest.raises(ValueError):
            list(loo_weights(3, [4]))

    def test_kfold_partition(self):
        vecs = list(kfold_weights(4, 2, seed=5))
        assert len(vecs) == 2
        zero_sets = [set(np.nonzero(w.values == 0.0)[0]) for w in vecs]
        assert all(len(z) == 2 for z in zero_sets)
        assert zero_sets[0] | zero_sets[1] == {0, 1, 2, 3}
        assert not zero_sets[0] & zero_sets[1]

    def test_kfold_bad_count(self):
        with pytest.raises(ValueError):
            list(kfold_weights(4, 5))
        with pytest.raises(ValueError, match="fold count 1"):
            list(kfold_weights(4, 1))

    @pytest.mark.parametrize("n,folds", [(30, 4), (31, 7), (12, 12), (5, 2)])
    def test_kfold_leaves_every_row_out_once(self, n, folds):
        vecs = list(kfold_weights(n, folds, seed=3))
        assert len(vecs) == folds
        left_out = np.sum([w.values == 0.0 for w in vecs], axis=0)
        np.testing.assert_array_equal(left_out, np.ones(n))
        sizes = [int((w.values == 0.0).sum()) for w in vecs]
        assert max(sizes) - min(sizes) <= 1

    def test_leave_kappa_out(self):
        vecs = list(leave_kappa_out_weights(10, 3, seed=2, count=4))
        assert len(vecs) == 4
        for w in vecs:
            assert int((w.values == 0.0).sum()) == 3
        with pytest.raises(ValueError):
            list(leave_kappa_out_weights(3, 4))
        with pytest.raises(ValueError, match="kappa 3 outside 1..2"):
            list(leave_kappa_out_weights(3, 3))

    def test_bootstrap_support(self):
        for w in bootstrap_weights(4, 3, seed=8):
            assert w.values.sum() == 4.0
            assert np.all(w.values >= 0.0)
            assert np.all(w.values == np.round(w.values))

    def test_bootstrap_stream(self):
        """Each draw is one multinomial call of size 1, in order, from a
        generator seeded once: the stream every recorded output uses."""
        rng = np.random.default_rng(9)
        want = [rng.multinomial(6, np.full(6, 1.0 / 6)) for _ in range(5)]
        got = [w.values for w in bootstrap_weights(6, 5, seed=9)]
        np.testing.assert_array_equal(got, want)

    def test_bootstrap_mean_property(self):
        """Each w_n averages to 1 within 5 standard errors over 1e4 draws."""
        n, draws = 10, 10_000
        total = np.zeros(n)
        for w in bootstrap_weights(n, draws, seed=123):
            total += w.values
        mean = total / draws
        se = np.sqrt((1.0 - 1.0 / n) / draws)
        assert np.all(np.abs(mean - 1.0) <= 5.0 * se)

    def test_streams_are_deterministic(self):
        a = [w.values for w in bootstrap_weights(6, 5, seed=9)]
        b = [w.values for w in bootstrap_weights(6, 5, seed=9)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestArrayNormInequality:
    def test_term_average_norm_bounds(self):
        """The derivative-array norm of G is bounded by per-term norms.

        For every p, ||G^(k)||_p <= (1/N) sum_n ||g_n^(k)||_p (triangle
        inequality entry by entry); at p = 1 the right side equals (1/N)
        times the flat L1 norm of the stacked per-term arrays.
        """
        from hoij.bounds import mean_term_norm_bound
        rng = np.random.default_rng(31)
        for _ in range(10):
            model_id = ALL_MODELS[rng.integers(len(ALL_MODELS))]
            prob = build_problem(model_id, rng, n=int(rng.integers(4, 15)))
            theta = rng.uniform(-0.5, 0.5, prob.dim_theta)
            for k in (0, 1, 2):
                g_entries = full_derivative_entries(prob, theta, k)
                per = per_datum_derivative_entries(prob, theta, k)
                g0 = _g0_derivative_entries(prob, theta, k)
                stacked = np.vstack([g0[None, :], per])
                for p in (1, 2, "inf"):
                    lhs = array_p_norm(g_entries, p)
                    assert lhs <= mean_term_norm_bound(stacked, p) + 1e-12
                # flat-stack form, exact at p = 1
                assert array_p_norm(g_entries, 1) <= \
                    array_p_norm(stacked, 1) / prob.n_terms + 1e-12


def _affine_problem(x, batch=False):
    # acceptance criterion 5's problem, optionally with a hand-written batch_fn
    n, dim = x.shape

    def term(i, theta):
        if i == 0:
            return [theta[d] for d in range(dim)]
        return [-x[i - 1, d] for d in range(dim)]

    def batch_fn(theta, rows):
        return [-x[rows, d] for d in range(dim)]

    return EstimatingProblem(dim, n, term, model_id="affine",
                             batch_fn=batch_fn if batch else None)


class TestGeneratedBatchFn:
    """A problem given by term_fn alone gets a batch_fn that calls it once
    per row and stacks the rows: the same bits as a batch_fn written out."""

    @pytest.mark.parametrize("model_id", ALL_MODELS + ["affine"])
    def test_bit_identical_to_a_written_batch_fn(self, model_id):
        rng = np.random.default_rng(37)
        if model_id == "affine":
            prob = _affine_problem(rng.standard_normal((37, 3)), batch=True)
        else:
            prob = build_problem(model_id, rng, n=37, dim=3, reg={"l2": 0.3})
        scalar = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        assert scalar.batch_fn is not None
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, 37)
        thetas = rng.normal(scale=0.5, size=(6, 3))
        weights = rng.uniform(0.0, 2.0, (6, 37))
        for args in (((range(5),), {}), (((), w), {"summed": range(5)})):
            got = fad.per_datum_tensors(scalar, theta, *args[0], **args[1])
            want = fad.per_datum_tensors(prob, theta, *args[0], **args[1])
            for k in range(5):
                for a, b in zip(got[k], want[k]):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), k
        assert (evaluate_g_block(scalar, thetas, weights).tobytes()
                == evaluate_g_block(prob, thetas, weights).tobytes())
        assert evaluate_g(scalar, theta, w).tobytes() == evaluate_g(prob, theta, w).tobytes()

    def test_rows_stack_along_a_trailing_axis(self):
        """(P, 1) leaves stack to (P, rows) and floats to (rows,); a constant
        row has zero coefficients past c_0, and a coefficient that is the
        float 0.0 in every row stays that float."""
        leaf = np.arange(3.0)[:, None]
        rows = [fad.TaylorScalar([float(r), r * leaf, 0.0]) for r in range(4)] + [2.5]
        out = fad.stack_rows(rows)
        np.testing.assert_array_equal(out.coeffs[0], [0.0, 1.0, 2.0, 3.0, 2.5])
        np.testing.assert_array_equal(out.coeffs[1], leaf * [0.0, 1.0, 2.0, 3.0, 0.0])
        assert out.coeffs[2].__class__ is float and out.coeffs[2] == 0.0
        assert fad.stack_rows([1.0, 0.0]).tolist() == [1.0, 0.0]


class TestProblemValidation:
    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            EstimatingProblem(0, 3, lambda n, t: [0.0])
        with pytest.raises(ValueError):
            EstimatingProblem(1, 0, lambda n, t: [0.0])

    def test_dataset_validation(self):
        with pytest.raises(DatasetError):
            Dataset(np.array([[1.0], [np.nan]]))
        with pytest.raises(DatasetError):
            Dataset(np.ones((2, 1)), np.ones(3))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2 ** 16), data=st.data())
def test_weight_schemes_property(n, seed, data):
    """Every scheme yields finite length-N weights with the expected sums."""
    def check(stream, sums):
        vectors = list(stream)
        assert len(vectors) == len(sums)
        for w, total in zip(vectors, sums):
            assert w.values.shape == (n,) and np.all(np.isfinite(w.values))
            assert w.values.sum() == total

    check(loo_weights(n), [n - 1] * n)
    folds = data.draw(st.integers(2, n))
    sizes = [len(f) for f in np.array_split(np.arange(n), folds)]
    check(kfold_weights(n, folds, seed=seed), [n - s for s in sizes])
    kappa = data.draw(st.integers(1, n - 1))
    check(leave_kappa_out_weights(n, kappa, seed=seed, count=3), [n - kappa] * 3)
    draws = data.draw(st.integers(1, 12))
    check(bootstrap_weights(n, draws, seed=seed), [n] * draws)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "WEIGHT_BLOCK_ELEMENTS", 5 * n)  # blocks of five draws
        blocks = np.vstack(list(bootstrap_weight_blocks(n, draws, seed)))
    assert blocks.shape == (draws, n) and np.all(blocks.sum(axis=1) == n)
