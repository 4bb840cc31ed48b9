import numpy as np
import pytest

from otmatch.errors import ValidationError
from otmatch.kernels import KernelSpec, assemble_interaction_grad, kernel_cost
from otmatch.sinkhorn import sinkhorn

from conftest import kernel_cost_directional_grad, poly_kernel, random_marginal


class TestKernelSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            KernelSpec("rbf")

    def test_rejects_bad_degree(self):
        with pytest.raises(ValidationError):
            KernelSpec("polynomial", degree=0)

    @pytest.mark.parametrize("degree", [2.5, "abc", float("inf"), None])
    def test_from_dict_rejects_bad_degree(self, degree):
        # a fractional degree is an error, not a degree-2 kernel
        with pytest.raises(ValidationError, match="degree"):
            KernelSpec.from_dict({"kind": "polynomial", "degree": degree})

    @pytest.mark.parametrize("field", ["gamma", "c0"])
    def test_rejects_non_numeric_parameter(self, field):
        with pytest.raises(ValidationError, match="kernel parameters"):
            KernelSpec.from_dict({"kind": "sigmoid", field: "abc"})

    def test_from_dict_integral_degree_is_int(self):
        spec = KernelSpec.from_dict({"kind": "polynomial", "degree": 3.0})
        assert spec.degree == 3 and isinstance(spec.degree, int)

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "linear", "degree": "abc"}, "degree"),
        ({"kind": "linear", "gamma": 2.0}, "gamma"),
        ({"kind": "linear", "c0": 1.0}, "c0"),
        ({"kind": "sigmoid", "degree": 3}, "degree"),
        ({"kind": "polynomial", "gama": 3.0}, "gama"),
    ])
    def test_from_dict_rejects_keys_the_kind_does_not_use(self, spec, key):
        with pytest.raises(ValidationError, match=f"does not use '{key}'"):
            KernelSpec.from_dict(spec)

    def test_from_dict_reads_every_parameter(self):
        spec = KernelSpec.from_dict({"kind": "sigmoid", "gamma": 0.3, "c0": -0.2})
        assert spec == KernelSpec("sigmoid", gamma=0.3, c0=-0.2)


class TestKernelCost:
    def test_zero_interaction_polynomial(self):
        U, V = np.ones((3, 4)), np.ones((2, 5))
        C = kernel_cost(U, V, np.zeros((3, 2)), poly_kernel())
        np.testing.assert_allclose(C.entries, 1.0)

    def test_single_entry_hand_value(self):
        U = np.array([[1.0], [2.0]])
        V = np.array([[3.0], [1.0]])
        C = kernel_cost(U, V, np.eye(2), poly_kernel())
        # u'Av = 1*3 + 2*1 = 5, (0.05*5 + 1)^2 = 1.5625
        assert C.entries[0, 0] == pytest.approx(1.5625)

    def test_linear_kernel_identity_features(self, rng):
        A = rng.normal(0, 1, (3, 3))
        C = kernel_cost(np.eye(3), np.eye(3), A, KernelSpec("linear"))
        np.testing.assert_allclose(C.entries, A)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kernel_cost(np.ones((3, 2)), np.ones((2, 2)), np.ones((2, 2)),
                        KernelSpec("linear"))

    def test_polynomial_overflow_guard(self):
        U = np.full((1, 1), 1e5)
        V = np.full((1, 1), 1e5)
        with pytest.raises(ValidationError, match="overflow"):
            kernel_cost(U, V, np.ones((1, 1)), KernelSpec("polynomial", gamma=1.0, degree=2))


class TestDirectionalGrad:
    def test_linear_kernel_exact(self, rng):
        U, V = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (2, 5))
        A, W = rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (3, 2))
        out = kernel_cost_directional_grad(U, V, A, KernelSpec("linear"), W)
        np.testing.assert_allclose(out, U.T @ W @ V, rtol=1e-12)

    def test_polynomial_at_zero(self, rng):
        U, V = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (2, 5))
        W = rng.normal(0, 1, (3, 2))
        out = kernel_cost_directional_grad(U, V, np.zeros((3, 2)), poly_kernel(), W)
        # f'(0) = 2 * 1 * 0.05 = 0.1
        np.testing.assert_allclose(out, 0.1 * (U.T @ W @ V), rtol=1e-12)

    @pytest.mark.parametrize("kind,kwargs", [
        ("linear", {}),
        ("polynomial", {"gamma": 0.05, "c0": 1.0, "degree": 2}),
        ("polynomial", {"gamma": 0.1, "c0": 0.5, "degree": 3}),
        ("sigmoid", {"gamma": 0.3, "c0": 0.1}),
    ])
    def test_matches_finite_differences(self, rng, kind, kwargs):
        kern = KernelSpec(kind, **kwargs)
        for _ in range(5):
            U, V = rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (4, 4))
            A, W = rng.normal(0, 0.5, (5, 4)), rng.normal(0, 1, (5, 4))
            h = 1e-6
            fd = (kern.activation(U.T @ (A + h * W) @ V)
                  - kern.activation(U.T @ (A - h * W) @ V)) / (2 * h)
            out = kernel_cost_directional_grad(U, V, A, kern, W)
            np.testing.assert_allclose(out, fd, rtol=1e-5, atol=1e-9)

    def test_adjoint_consistency(self, rng):
        # <assemble(g), W> must equal <g, directional(W)> for any weights
        U, V = rng.normal(0, 1, (4, 3)), rng.normal(0, 1, (3, 5))
        A = rng.normal(0, 0.5, (4, 3))
        kern = poly_kernel()
        g = rng.normal(0, 1, (3, 5))
        W = rng.normal(0, 1, (4, 3))
        lhs = (assemble_interaction_grad(U, V, A, kern, g) * W).sum()
        rhs = (g * kernel_cost_directional_grad(U, V, A, kern, W)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestShiftNonIdentifiability:
    def test_plan_invariant_under_constant_shift(self, rng):
        C = rng.uniform(0, 3, (4, 4))
        mu, nu = random_marginal(rng, 4), random_marginal(rng, 4)
        base = sinkhorn(C, mu, nu, 1.0).plan.entries
        for alpha in (-2.0, 0.7, 5.0):
            shifted = sinkhorn(C + alpha, mu, nu, 1.0).plan.entries
            np.testing.assert_allclose(shifted, base, atol=1e-9)
