import math

import numpy as np
import pytest

from otmatch.bounds import (_shift_fit, align_shift, cost_error_bound_check,
                            cost_shift_distance, eval_matching, kl_divergence,
                            prediction_error_bound_check)
from otmatch.errors import ValidationError
from otmatch.transport import sinkhorn

from conftest import random_coupling, random_marginal


def kl_fsum_oracle(p, q):
    """Compensated-summation KL for cross-checking the vectorized path."""
    terms = [pi * (math.log(pi) - math.log(qi))
             for pi, qi in zip(p.ravel(), q.ravel()) if pi > 0]
    return math.fsum(terms)


class TestKlDivergence:
    def test_identity_is_zero(self, rng):
        p = random_coupling(rng, 3, 4)
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        p = np.full((2, 2), 0.25)
        q = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert kl_divergence(p, q) == pytest.approx(0.5 * np.log(1.5625), abs=1e-12)

    def test_matches_fsum_oracle(self, rng):
        for _ in range(5):
            p = random_coupling(rng, 4, 5)
            q = random_coupling(rng, 4, 5)
            assert kl_divergence(p, q) == pytest.approx(kl_fsum_oracle(p, q), abs=1e-12)

    def test_support_violation_names_entry(self):
        p = np.array([[0.5, 0.5], [0.0, 0.0]])
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            kl_divergence(p, q)

    def test_zero_p_entries_contribute_nothing(self):
        p = np.array([[0.5, 0.0], [0.0, 0.5]])
        q = np.full((2, 2), 0.25)
        assert kl_divergence(p, q) == pytest.approx(np.log(2.0))


class TestCostShiftDistance:
    def test_identity(self, rng):
        C = rng.normal(0, 1, (3, 4))
        assert cost_shift_distance(C, C) == pytest.approx(0.0, abs=1e-12)

    def test_shift_family_annihilated(self, rng):
        C = rng.normal(0, 1, (3, 4))
        a, b = rng.normal(0, 1, 3), rng.normal(0, 1, 4)
        shifted = C + a[:, None] + b[None, :]
        assert cost_shift_distance(C, shifted) <= 1e-9

    @pytest.mark.parametrize("shape1, shape2", [((3, 3), (4, 4)), ((4, 4), (1, 4)),
                                                ((4,), (4,))], ids=["3x3-4x4", "4x4-1x4", "1-d"])
    def test_shape_mismatch(self, shape1, shape2):
        # no broadcasting: a 1-by-4 cost is not a 4-by-4 one
        with pytest.raises(ValidationError, match="one shape"):
            cost_shift_distance(np.zeros(shape1), np.zeros(shape2))

    def test_matches_dense_least_squares(self, rng):
        for _ in range(5):
            M = rng.normal(0, 1, (3, 4))
            rows, rhs = [], []
            for i in range(3):
                for j in range(4):
                    row = np.zeros(7)
                    row[i] = 1.0
                    row[3 + j] = 1.0
                    rows.append(row)
                    rhs.append(M[i, j])
            x, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
            resid = np.asarray(rhs) - np.asarray(rows) @ x
            oracle = np.sqrt((resid ** 2).sum())
            assert cost_shift_distance(np.zeros((3, 4)), M) == pytest.approx(
                oracle, abs=1e-8)

    @pytest.mark.parametrize("m,n", [(1, 4), (3, 4), (5, 2), (7, 7)])
    def test_closed_form_matches_gram_least_squares(self, rng, m, n):
        # oracle: min-norm least-squares solve of the Gram system of the
        # shift directions, [[n I, 1 1'], [1 1', m I]] (a, b) = (M 1, M' 1)
        M = rng.normal(0, 1, (m, n))
        gram = np.block([[n * np.eye(m), np.ones((m, n))],
                         [np.ones((n, m)), m * np.eye(n)]])
        f = np.concatenate([M.sum(axis=1), M.sum(axis=0)])
        x, *_ = np.linalg.lstsq(gram, f, rcond=None)
        a, b = _shift_fit(M)[:2]
        np.testing.assert_allclose(a, x[:m], atol=1e-12)
        np.testing.assert_allclose(b, x[m:], atol=1e-12)
        assert cost_shift_distance(np.zeros((m, n)), M) ** 2 == pytest.approx(
            (M * M).sum() - f @ x, rel=1e-10)

    def test_pseudometric_properties(self, rng):
        A = rng.normal(0, 1, (3, 3))
        B = rng.normal(0, 1, (3, 3))
        C = rng.normal(0, 1, (3, 3))
        dab = cost_shift_distance(A, B)
        assert dab == pytest.approx(cost_shift_distance(B, A), abs=1e-10)
        assert dab <= cost_shift_distance(A, C) + cost_shift_distance(C, B) + 1e-10

    def test_align_shift_consistency(self, rng):
        C_learned = rng.normal(0, 1, (4, 5))
        C_target = rng.normal(0, 1, (4, 5))
        aligned = align_shift(C_learned, C_target)
        assert cost_shift_distance(aligned, C_learned) <= 1e-9
        assert np.linalg.norm(aligned - C_target) == pytest.approx(
            cost_shift_distance(C_learned, C_target), abs=1e-9)


class TestBoundReports:
    def test_cost_error_trivial_zero(self, rng):
        C = rng.uniform(0, 2, (3, 3))
        mu, nu = random_marginal(rng, 3), random_marginal(rng, 3)
        p = sinkhorn(C, mu, nu, 1.0).plan
        rep = cost_error_bound_check(C, C, p, p, 1.0)
        assert rep.satisfied
        assert rep.bound_value == pytest.approx(0.0, abs=1e-9)
        assert rep.observed_value == pytest.approx(0.0, abs=1e-12)

    def test_cost_error_perturbed_plan(self, rng):
        C = rng.uniform(0, 2, (3, 3))
        mu, nu = random_marginal(rng, 3), random_marginal(rng, 3)
        p0 = sinkhorn(C, mu, nu, 1.0).plan.entries
        noisy = p0 * rng.uniform(0.8, 1.25, p0.shape)
        noisy /= noisy.sum()
        C_fit = -np.log(noisy)  # a cost that generates the noisy plan exactly
        rep = cost_error_bound_check(C, C_fit, p0, noisy, 1.0)
        assert rep.bound_value > 0
        assert rep.satisfied

    def test_prediction_error_shift_gauge(self, rng):
        C = rng.uniform(0, 2, (3, 3))
        a, b = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        mu, nu = random_marginal(rng, 3), random_marginal(rng, 3)
        rep = prediction_error_bound_check(C, C + a[:, None] + b[None, :], mu, nu, 1.0)
        assert rep.bound_value == pytest.approx(0.0, abs=1e-9)
        assert rep.satisfied

    def test_prediction_error_random(self, rng):
        for _ in range(5):
            C0 = rng.uniform(0, 2, (4, 4))
            C1 = rng.uniform(0, 2, (4, 4))
            mu, nu = random_marginal(rng, 4), random_marginal(rng, 4)
            rep = prediction_error_bound_check(C0, C1, mu, nu, 1.0)
            assert rep.satisfied

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_lam_must_be_finite_and_positive(self, lam):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = np.array([[0.4, 0.1], [0.1, 0.4]])
        mu = np.array([0.5, 0.5])
        with pytest.raises(ValidationError, match="lam must be a finite number > 0"):
            cost_error_bound_check(C, 2 * C, plan, plan, lam)
        with pytest.raises(ValidationError, match="lam must be a finite number > 0"):
            prediction_error_bound_check(C, 2 * C, mu, mu, lam)

class TestEvalMatching:
    def test_identical(self, rng):
        p = random_coupling(rng, 3, 3)
        out = eval_matching(p, p)
        assert out == {"rmse": 0.0, "mae": 0.0, "kl": 0.0}

    def test_hand_values(self):
        pred = np.full((2, 2), 0.25)
        test = np.array([[0.5, 0.0], [0.0, 0.5]])
        out = eval_matching(pred, test)
        assert out["rmse"] == pytest.approx(0.25)
        assert out["mae"] == pytest.approx(0.25)
        assert out["kl"] == pytest.approx(np.log(2.0))

    def test_matches_fsum_oracle(self, rng):
        pred = random_coupling(rng, 4, 4)
        test = random_coupling(rng, 4, 4)
        out = eval_matching(pred, test)
        assert out["rmse"] == pytest.approx(
            math.sqrt(math.fsum(((pred - test) ** 2).ravel().tolist()) / 16), abs=1e-12)
        assert out["kl"] == pytest.approx(kl_fsum_oracle(test, pred), abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValidationError):
            eval_matching(random_coupling(rng, 2, 2), random_coupling(rng, 2, 3))
