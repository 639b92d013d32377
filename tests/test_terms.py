"""Term-table generation: the product-rule recursion and its invariants."""

import pytest

from hoij import (
    DerivativeTerm,
    TermTable,
    build_term_tables,
    differentiate_term,
    term_tables,
    verify_table_invariants,
)


def as_set(terms):
    return {(t.coeff, t.kset, t.omega) for t in terms}


class TestDifferentiateTerm:
    def test_seed_term(self):
        out = differentiate_term(DerivativeTerm(1, (), 1))
        assert as_set(out) == {(1, (1,), 1)}

    def test_single_entry_with_flag(self):
        out = differentiate_term(DerivativeTerm(1, (1,), 1))
        assert as_set(out) == {(1, (2,), 1), (1, (1, 1), 1)}

    def test_pair_merges_bumps(self):
        out = differentiate_term(DerivativeTerm(1, (1, 1), 0))
        assert as_set(out) == {(2, (2, 1), 0), (1, (1, 1, 1), 0), (1, (1, 1), 1)}

    def test_coefficient_carries(self):
        out = differentiate_term(DerivativeTerm(3, (2,), 1))
        assert as_set(out) == {(3, (3,), 1), (3, (2, 1), 1)}


class TestBuildTables:
    def test_order_one(self):
        table = build_term_tables(1)
        assert as_set(table.for_order(1)) == {(1, (), 1)}

    def test_order_two(self):
        table = build_term_tables(2)
        assert as_set(table.for_order(2)) == {(1, (1, 1), 0), (2, (1,), 1)}

    def test_order_three(self):
        table = build_term_tables(3)
        assert as_set(table.for_order(3)) == {
            (1, (1, 1, 1), 0),
            (3, (2, 1), 0),
            (3, (2,), 1),
            (3, (1, 1), 1),
        }

    def test_invariants_through_six(self):
        table = build_term_tables(6)
        report = verify_table_invariants(table)
        assert report.passed, [c.message for c in report.failures]
        for k in range(1, 7):
            for t in table.for_order(k):
                assert t.coeff >= 1
                assert (max(t.kset) if t.kset else 0) < k
                assert t.omega + sum(t.kset) == k

    def test_deterministic_rebuild(self):
        a = build_term_tables(5)
        b = build_term_tables(5)
        assert a == b

    def test_order_range_checked(self):
        with pytest.raises(ValueError):
            build_term_tables(0)
        with pytest.raises(ValueError):
            build_term_tables(7)

    def test_cache_returns_same_object(self):
        assert term_tables(4) is term_tables(4)


class TestVerifyInvariants:
    def test_clean_table_passes(self):
        assert verify_table_invariants(term_tables(2)).passed

    def test_forged_order_violation(self):
        forged = TermTable(2, (
            (DerivativeTerm(1, (), 1),),
            (DerivativeTerm(1, (2,), 0),),
        ))
        report = verify_table_invariants(forged)
        assert not report.passed
        assert "max(kset)=2 not < order 2" in report.failures[0].message

    def test_forged_total_order_violation(self):
        forged = TermTable(3, (
            (DerivativeTerm(1, (), 1),),
            (DerivativeTerm(1, (1, 1), 0), DerivativeTerm(2, (1,), 1)),
            (DerivativeTerm(1, (1,), 1),),
        ))
        report = verify_table_invariants(forged)
        assert not report.passed
        assert "omega + sum(kset) = 2 != 3" in report.failures[0].message

    def test_duplicate_detection(self):
        forged = TermTable(1, ((DerivativeTerm(1, (), 1), DerivativeTerm(2, (), 1)),))
        report = verify_table_invariants(forged)
        assert any("duplicate" in c.message for c in report.failures)


class TestAnalyticCrossCheck:
    def test_mean_model_loo_derivatives_match_closed_form(self):
        """Table-driven recursion reproduces the analytic weighted-mean curve.

        For the running 4-point example with datum n dropped, the exact
        solution path is t -> (sum x - t x_n) / (N - t), whose k-th
        derivative at 0 is k! (theta_hat - x_n) / N^k.
        """
        import math
        from hoij import (
            evaluate_theta_ij, factorize_hessian, loo_weights, make_problem,
            solve_base,
        )
        from helpers import mean_dataset_1236

        prob = make_problem("mean", mean_dataset_1236())
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(4)
        for n, w in enumerate(loo_weights(4), start=1):
            expn = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 4)
            for k in range(1, 5):
                analytic = math.factorial(k) * (theta_hat[0] - (n if n < 4 else 6)) / 4.0 ** k
                assert expn.dthetas[k - 1][0] == pytest.approx(analytic, abs=1e-14)

    def test_json_dump_shape(self):
        obj = term_tables(3).to_json_obj()
        assert set(obj) == {"1", "2", "3"}
        assert obj["1"] == [{"a": 1, "kset": [], "omega": 1}]
        for rec in obj["2"]:
            assert set(rec) == {"a", "kset", "omega"}
