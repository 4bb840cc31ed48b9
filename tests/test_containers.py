import re

import numpy as np
import pytest

from otmatch.containers import (CostMatrix, CouplingMatrix, HyperParams, MatchCounts,
                                MetricMatrix, ProbabilityVector, ProfileSet,
                                marginals, normalize_counts)
from otmatch.errors import ValidationError


class TestProbabilityVector:
    def test_accepts_and_renormalizes_within_tolerance(self):
        v = ProbabilityVector(np.array([0.5, 0.5 + 5e-10]))
        assert v.values.sum() == pytest.approx(1.0, abs=0)

    @pytest.mark.parametrize("bad", [
        [0.5, 0.6],            # sum off by 0.1
        [-0.1, 1.1],           # negative entry
        [np.nan, 1.0],         # non-finite
        [0.5, 0.5 + 1e-7],     # sum outside 1e-9
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValidationError):
            ProbabilityVector(np.array(bad))

    def test_immutable(self):
        v = ProbabilityVector(np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            v.values[0] = 0.0


class TestCouplingMatrix:
    def test_zero_entries_allowed(self):
        c = CouplingMatrix([[0.5, 0.0], [0.0, 0.5]])
        assert c.entries[0, 1] == 0.0

    @pytest.mark.parametrize("bad", [
        [[0.6, 0.2], [0.1, 0.2]],   # sum 1.1
        [[-0.1, 0.6], [0.2, 0.3]],  # negative
        [[np.inf, 0.0], [0.0, 0.0]],
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValidationError):
            CouplingMatrix(bad)

    def test_marginals_are_probability_vectors(self):
        mp = CouplingMatrix([[0.375, 0.125], [0.0, 0.5]]).marginals()
        np.testing.assert_allclose(mp.mu.values, [0.5, 0.5])
        np.testing.assert_allclose(mp.nu.values, [0.375, 0.625])


class TestMetricMatrix:
    def test_accepts_euclidean_distances(self, rng):
        pts = rng.normal(0, 1, (5, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        MetricMatrix(d)

    def test_rejects_triangle_violation(self, rng):
        hand = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        pts = rng.normal(0, 1, (40, 2))
        random = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        random[0, 1] = random[1, 0] = random[0, 2] + random[2, 1] + 0.5
        for d in (hand, random):
            # The reported violation equals the O(d^3) broadcast over all triples.
            worst = np.max(d - np.min(d[:, :, None] + d[None, :, :], axis=1))
            with pytest.raises(ValidationError, match=re.escape(f"triangle inequality by {worst:.3e}")):
                MetricMatrix(d)

    def test_rejects_asymmetry_and_diagonal(self):
        with pytest.raises(ValidationError):
            MetricMatrix([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            MetricMatrix([[1.0, 1.0], [1.0, 0.0]])


class TestCostAndProfiles:
    def test_cost_rejects_nan(self):
        with pytest.raises(ValidationError):
            CostMatrix([[1.0, np.nan]])

    def test_profile_set_requires_columns(self):
        with pytest.raises(ValidationError):
            ProfileSet(np.zeros((3, 0)))
        p = ProfileSet(np.ones((3, 4)))
        assert (p.dim, p.count) == (3, 4)


class TestHyperParams:
    def test_defaults_valid(self):
        HyperParams()

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0}, {"lam_u": -1.0}, {"step_size": 0.0},
        {"delta": -0.1}, {"sinkhorn_max_iters": 0},
        {"lam": np.inf}, {"lam_u": np.inf}, {"lam_v": np.inf}, {"delta": np.inf},
        {"step_size": np.inf}, {"sinkhorn_tol": np.inf}, {"delta": np.nan},
        {"outer_iters": np.inf}, {"inner_iters": np.nan}, {"sinkhorn_max_iters": np.inf},
        {"sinkhorn_max_iters": 2.5}, {"lam": "abc"}, {"inner_iters": None},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            HyperParams(**kwargs)


class TestNormalizeCounts:
    def test_equal_counts_uniform(self):
        out = normalize_counts(MatchCounts([[1, 1], [1, 1]]))
        np.testing.assert_allclose(out.entries, 0.25)

    def test_diagonal_counts(self):
        out = normalize_counts(MatchCounts([[2, 0], [0, 2]]))
        np.testing.assert_allclose(out.entries, [[0.5, 0.0], [0.0, 0.5]])

    def test_direct_division(self):
        out = normalize_counts(MatchCounts([[3, 1], [0, 4]]))
        np.testing.assert_allclose(out.entries, [[0.375, 0.125], [0.0, 0.5]])
        assert out.entries.sum() == 1.0

    def test_empty_counts_rejected(self):
        with pytest.raises(ValidationError, match="empty matching data"):
            MatchCounts([[0, 0], [0, 0]])

    def test_marginal_composition(self, rng):
        counts = rng.integers(0, 9, (4, 6))
        counts[0, 0] += 1
        mp = marginals(normalize_counts(MatchCounts(counts)))
        total = counts.sum()
        np.testing.assert_allclose(mp.mu.values, counts.sum(axis=1) / total)
        np.testing.assert_allclose(mp.nu.values, counts.sum(axis=0) / total)


class TestMarginals:
    def test_uniform(self):
        mp = marginals([[0.25, 0.25], [0.25, 0.25]])
        np.testing.assert_allclose(mp.mu.values, [0.5, 0.5])
        np.testing.assert_allclose(mp.nu.values, [0.5, 0.5])

    def test_permutation_mass(self):
        mp = marginals([[0.5, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(mp.mu.values, [0.5, 0.5])
        np.testing.assert_allclose(mp.nu.values, [0.5, 0.5])
