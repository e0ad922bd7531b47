import numpy as np
import pytest
import scipy.optimize

from polymkl import (
    Dataset,
    DualSolveError,
    KernelError,
    RhoSchedule,
    SparseTheta,
    build_base_kernels,
    predict,
    solve_alpha,
)
from polymkl import baselines
from polymkl.baselines import dual_objective, solve_dense

from helpers import objective_J


def random_psd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T)


def minimize_dual_objective(K, y):
    """Independent oracle: minimize the dual objective numerically, without
    using the linear-system solution."""
    res = scipy.optimize.minimize(
        lambda a: dual_objective(a, K, y),
        np.zeros(len(y)),
        method="L-BFGS-B",
        options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 10000},
    )
    return res.x, -res.fun


class TestSolveAlpha:
    def test_zero_kernel(self):
        y = np.array([1.0, -2.0, 3.0])
        state = solve_dense(np.zeros((3, 3)), y)
        np.testing.assert_allclose(state.alpha, y / 3, rtol=1e-14)
        assert state.J_value == pytest.approx(np.dot(y, y) / 6, rel=1e-14)

    def test_one_dimensional_closed_form(self):
        k, y1 = 2.5, 3.0
        state = solve_dense(np.array([[k]]), np.array([y1]))
        assert state.alpha[0] == pytest.approx(y1 / (k + 1), rel=1e-14)
        assert state.J_value == pytest.approx(0.5 * y1**2 / (k + 1), rel=1e-14)
        # cross-check against the numerical minimizer of the dual objective
        grid = np.linspace(-2, 2, 400001)
        values = 0.5 * grid**2 * k + 0.5 * grid**2 + -grid * y1 + 0.5 * y1**2
        # values = G(a) + const shift; argmin suffices
        assert grid[np.argmin(values)] == pytest.approx(state.alpha[0], abs=2e-5)

    def test_matches_numerical_minimizer(self):
        for seed in range(5):
            n = 10
            K = random_psd(n, seed)
            y = np.random.default_rng(100 + seed).normal(size=n)
            state = solve_dense(K, y)
            alpha_num, J_num = minimize_dual_objective(K, y)
            np.testing.assert_allclose(state.alpha, alpha_num, atol=1e-6)
            assert state.J_value == pytest.approx(J_num, rel=1e-9)

    def test_stationarity_and_strong_duality(self):
        # gradient of the dual objective vanishes at the solution, and the
        # primal value evaluated through the representer form equals J
        rng = np.random.default_rng(42)
        for trial in range(120):
            n = int(rng.integers(2, 51))
            K = random_psd(n, seed=1000 + trial, scale=float(rng.uniform(0.1, 10)))
            y = rng.normal(size=n)
            state = solve_dense(K, y)
            grad = K @ state.alpha + n * state.alpha - y
            assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(y))
            preds = K @ state.alpha
            primal = np.mean(0.5 * (preds - y) ** 2) + 0.5 * state.alpha @ preds
            assert primal == pytest.approx(state.J_value, rel=1e-8)

    def test_deterministic_resolve(self):
        K = random_psd(20, seed=5)
        y = np.random.default_rng(6).normal(size=20)
        a = solve_dense(K, y)
        b = solve_dense(K, y)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.J_value == b.J_value

    def test_monotone_in_psd_order(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = 12
            K = random_psd(n, seed=200 + trial)
            y = rng.normal(size=n)
            bump = random_psd(n, seed=300 + trial, scale=float(rng.uniform(0.01, 5)))
            bumped = solve_dense(K + bump, y).J_value
            assert bumped <= solve_dense(K, y).J_value + 1e-12

    def test_nan_kernel_rejected(self):
        K = np.full((3, 3), np.nan)
        with pytest.raises((DualSolveError, Exception)):
            solve_dense(K, np.ones(3))


class TestSolveDenseChecks:
    """solve_dense rejects a Gram it cannot factor before calling LAPACK."""

    @pytest.fixture
    def factored(self, monkeypatch):
        calls = []
        real = baselines.dpotrf

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "dpotrf", counting)
        return calls

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, factored, bad):
        K = random_psd(4, seed=11)
        K[1, 2] = bad
        with pytest.raises(DualSolveError, match="non-finite entry"):
            solve_dense(K, np.ones(4))
        assert not factored

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,)])
    def test_non_square(self, factored, shape):
        with pytest.raises(DualSolveError, match="shape"):
            solve_dense(np.ones(shape), np.ones(3))
        assert not factored

    def test_valid_gram_is_factored(self, factored):
        solve_dense(random_psd(4, seed=11), np.ones(4))
        assert len(factored) == 1


class TestObjectiveJ:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.data = Dataset(inputs=rng.normal(size=(12, 3)), targets=rng.normal(size=12))
        self.ks = build_base_kernels(self.data, include_constant=False, D=2)
        self.rho = RhoSchedule.uniform(2)

    def test_zero_theta(self):
        J = objective_J(SparseTheta(), self.ks, self.rho, self.data.targets)
        y = self.data.targets
        assert J == pytest.approx(np.dot(y, y) / (2 * len(y)), rel=1e-12)

    def test_unknown_base_index_rejected(self):
        # the constant kernel (index 0) is off here, and r=3 has no index 4
        for idx in [(0, 1), (4,)]:
            theta = SparseTheta.from_dict({idx: 0.5})
            with pytest.raises(KernelError, match="no base kernel"):
                objective_J(theta, self.ks, self.rho, self.data.targets)

    def test_rho_rescaling_identity(self):
        theta = SparseTheta.from_dict({(1,): 0.4, (2, 3): 0.2})
        doubled_rho = RhoSchedule(self.rho.rho_sq * 4.0)  # rho doubled, rho^2 x4
        quartered = SparseTheta.from_dict({(1,): 0.1, (2, 3): 0.05})
        a = objective_J(theta, self.ks, doubled_rho, self.data.targets)
        b = objective_J(quartered, self.ks, self.rho, self.data.targets)
        assert a == pytest.approx(b, rel=1e-12)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(11)
        tuples = [(), (1,), (2,), (3,), (1, 2), (3, 3)]
        for _ in range(10):
            w1 = rng.uniform(0, 1, size=len(tuples))
            w2 = rng.uniform(0, 1, size=len(tuples))
            w1 /= max(np.linalg.norm(w1), 1.0)
            w2 /= max(np.linalg.norm(w2), 1.0)
            t1 = SparseTheta.from_dict(dict(zip(tuples, w1)))
            t2 = SparseTheta.from_dict(dict(zip(tuples, w2)))
            mid = SparseTheta.from_dict(dict(zip(tuples, (w1 + w2) / 2)))
            J1 = objective_J(t1, self.ks, self.rho, self.data.targets)
            J2 = objective_J(t2, self.ks, self.rho, self.data.targets)
            Jm = objective_J(mid, self.ks, self.rho, self.data.targets)
            assert Jm <= 0.5 * J1 + 0.5 * J2 + 1e-12


class TestPredict:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.data = Dataset(inputs=rng.normal(size=(10, 3)), targets=rng.normal(size=10))
        self.ks = build_base_kernels(self.data, include_constant=True, D=2)
        self.rho = RhoSchedule.uniform(2)

    def test_train_predictions_match_gram_action(self):
        from polymkl import assemble_combined_gram

        theta = SparseTheta.from_dict({(1,): 0.3, (0, 2): 0.2, (): 0.1})
        K = assemble_combined_gram(theta, self.ks, self.rho)
        state = solve_alpha(K, self.data.targets)
        preds = predict(state, theta, self.data.inputs, self.data.inputs, self.rho)
        np.testing.assert_allclose(preds, K.dense() @ state.alpha, rtol=1e-10, atol=1e-12)

    def test_zero_theta_zero_predictions(self):
        state = solve_dense(np.zeros((10, 10)), self.data.targets)
        preds = predict(state, SparseTheta(), self.data.inputs, np.zeros((4, 3)), self.rho)
        np.testing.assert_array_equal(preds, np.zeros(4))

    def test_single_index_matches_cross_gram(self):
        from polymkl import product_kernel_cross

        theta = SparseTheta.from_dict({(2,): 1.0})
        rng = np.random.default_rng(14)
        queries = rng.normal(size=(5, 3))
        K = np.outer(self.data.inputs[:, 1], self.data.inputs[:, 1])
        state = solve_dense(K, self.data.targets)
        preds = predict(state, theta, self.data.inputs, queries, self.rho)
        expected = product_kernel_cross(self.data.inputs, queries, (2,)) @ state.alpha
        np.testing.assert_allclose(preds, expected, rtol=1e-12)
