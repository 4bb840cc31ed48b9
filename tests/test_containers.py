import re

import numpy as np
import pytest

from otmatch.containers import CouplingMatrix, HyperParams, checked, normalize_counts
from otmatch.errors import ValidationError


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

    @pytest.mark.parametrize("bad, pattern", [
        ([[np.nan, 0.5], [0.25, 0.25]], r"coupling has non-finite entries"),
        ([[np.inf, 0.0], [0.0, 0.0]], r"coupling has non-finite entries"),
        # negative too, but the finiteness message comes first
        ([[-np.inf, 0.5], [0.25, 0.25]], r"coupling has non-finite entries"),
        ([[-0.1, 0.6], [0.2, 0.3]], r"coupling has negative entries"),
        (np.empty((0, 3)), r"coupling sums to 0\.0, not 1 within 1e-09"),
        ([0.5, 0.5], r"coupling must be 2-d, got shape \(2,\)"),
    ])
    def test_rejection_messages(self, bad, pattern):
        with pytest.raises(ValidationError) as exc:
            CouplingMatrix(bad)
        assert re.fullmatch(pattern, str(exc.value))

    def test_copies_and_renormalizes(self):
        src = np.array([[0.5, 0.25], [0.25, 0.0]]) * (1 + 1e-10)
        c = CouplingMatrix(src)
        assert c.entries is not src and not c.entries.flags.writeable
        assert c.entries.sum() == 1.0
        np.testing.assert_array_equal(src, np.array([[0.5, 0.25], [0.25, 0.0]]) * (1 + 1e-10))


class TestHyperParams:
    def test_defaults_valid(self):
        HyperParams()

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0}, {"lam_u": -1.0}, {"step_size": 0.0},
        {"delta": -0.1}, {"sinkhorn_max_iters": 0},
        {"lam": np.inf}, {"lam_u": np.inf}, {"lam_v": np.inf}, {"delta": np.inf},
        {"step_size": np.inf}, {"sinkhorn_tol": np.inf}, {"delta": np.nan},
        {"outer_iters": np.inf}, {"outer_iters": np.nan}, {"sinkhorn_max_iters": np.inf},
        {"sinkhorn_max_iters": 2.5}, {"lam": "abc"}, {"outer_iters": None},
        {"lam": True}, {"delta": False}, {"outer_iters": True}, {"sinkhorn_max_iters": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            HyperParams(**kwargs)


def test_checked():
    assert checked("x", np.float64(0.5)) == 0.5 and type(checked("x", 2)) is float
    for value in (np.int64(3), 5.0):
        out = checked("x", value, integer=True)
        assert out == value and type(out) is int
    assert checked("x", 0, 0) == 0 and checked("x", 1e-300, 0, strict=True) == 1e-300
    for value in (True, False, np.bool_(True), None, "1", np.nan, np.inf, -np.inf, 10 ** 400):
        with pytest.raises(ValidationError, match="^x must be a finite number, got "):
            checked("x", value)
    with pytest.raises(ValidationError, match=r"^x must be a finite number >= 0, got -1e-300$"):
        checked("x", -1e-300, 0)
    with pytest.raises(ValidationError, match=r"^x must be a finite number > 0, got 0$"):
        checked("x", 0, 0, strict=True)
    with pytest.raises(ValidationError, match=r"^x must be an integer >= 1, got 0.5$"):
        checked("x", 0.5, 1, integer=True)
    with pytest.raises(ValidationError, match=r"^x must be an integer >= 1, got 2.5$"):
        checked("x", 2.5, 1, integer=True)


class TestNormalizeCounts:
    def test_equal_counts_uniform(self):
        out = normalize_counts([[1, 1], [1, 1]])
        np.testing.assert_allclose(out.entries, 0.25)

    def test_diagonal_counts(self):
        out = normalize_counts([[2, 0], [0, 2]])
        np.testing.assert_allclose(out.entries, [[0.5, 0.0], [0.0, 0.5]])

    def test_direct_division(self):
        out = normalize_counts([[3, 1], [0, 4]])
        np.testing.assert_allclose(out.entries, [[0.375, 0.125], [0.0, 0.5]])
        assert out.entries.sum() == 1.0

    def test_empty_counts_rejected(self):
        with pytest.raises(ValidationError, match="empty matching data"):
            normalize_counts([[0, 0], [0, 0]])

    def test_marginal_composition(self, rng):
        counts = rng.integers(0, 9, (4, 6))
        counts[0, 0] += 1
        pi = normalize_counts(counts).entries
        total = counts.sum()
        np.testing.assert_allclose(pi.sum(axis=1), counts.sum(axis=1) / total)
        np.testing.assert_allclose(pi.sum(axis=0), counts.sum(axis=0) / total)

    @pytest.mark.parametrize("bad, message", [
        ([1, 2], "2-d"),
        ([[1, np.nan], [1, 1]], "non-finite"),
        ([[1, np.inf], [1, 1]], "non-finite"),
        ([[1, 2.5], [1, 1]], "integers"),
        ([[1, 2], [3, -4]], "row 2, column 2"),
    ])
    def test_rejects_invalid(self, bad, message):
        with pytest.raises(ValidationError, match=message):
            normalize_counts(bad)
