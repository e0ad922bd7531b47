import numpy as np
import pytest
import scipy.optimize

from polymkl import (
    Dataset,
    RhoSchedule,
    RunConfig,
    SparseTheta,
    SyntheticSpec,
    build_base_kernels,
    enumerate_index_set,
    full_gradient,
    run,
    run_full_gradient,
    solve_alpha,
)
from polymkl import baselines
from polymkl.baselines import EnumerationError, solve_dense, uniform_draws
from polymkl.dataset import gen_synthetic, standardize
from polymkl.dual import assemble_combined_gram
from polymkl.gradient import GRAD_SCALE
from polymkl.kernels import product_kernel_matrix

from helpers import objective_J


def make_setup(n=5, r=2, D=1, seed=0, include_constant=False):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=include_constant, D=D)
    return data, ks, RhoSchedule.uniform(D)


def config_for(T, seed=0, D=1, **kw):
    return RunConfig(
        algo="ucd",
        D=D,
        T=T,
        seed=seed,
        include_constant=False,
        synthetic=SyntheticSpec(r=2, n_train=5, n_test=5, n_terms=1, max_degree=0, seed=seed),
        **kw,
    )


class TestEnumerateIndexSet:
    def test_single_kernel_degree_two(self):
        tuples = enumerate_index_set(list(range(1, 1 + 1)), 2)
        assert tuples == [(), (1,), (1, 1)]
        assert len(tuples) == 3

    def test_geometric_size(self):
        assert len(enumerate_index_set(list(range(1, 5 + 1)), 3)) == 156

    def test_all_distinct(self):
        tuples = enumerate_index_set(list(range(1, 3 + 1)), 2)
        assert len(tuples) == 13
        assert len(set(tuples)) == 13

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(baselines, "ENUMERATION_GUARD", 1000)
        with pytest.raises(EnumerationError, match="guard"):
            enumerate_index_set(list(range(1, 10 + 1)), 7)

    def test_explicit_indices_with_constant(self):
        tuples = enumerate_index_set([0, 1, 2], 1)
        assert tuples == [(), (0,), (1,), (2,)]


class TestFullGradientVector:
    def test_matches_per_tuple_components(self):
        # with the constant kernel too, so the walk's all-ones base factor
        # meets product_kernel_matrix's
        for include_constant, D in ((False, 2), (True, 3)):
            data, ks, rho = make_setup(n=6, r=3, D=D, seed=1, include_constant=include_constant)
            tuples = enumerate_index_set(ks.indices, D)
            alpha = np.random.default_rng(2).normal(size=6)
            grad = full_gradient(alpha, ks, rho, tuples)
            for pos, idx in enumerate(tuples):
                K = product_kernel_matrix(ks, idx)
                expected = -GRAD_SCALE * (alpha @ K @ alpha) / rho.rho_sq[len(idx)]
                assert grad[pos] == pytest.approx(expected, rel=1e-12)
            assert np.all(grad <= 0)


class TestRunUcd:
    def test_single_coordinate_matches_plain_descent(self):
        # r=1, D=0: the enumerated set is the single empty tuple, so the
        # uniform draw is deterministic and the loop is exact gradient descent
        rng = np.random.default_rng(3)
        data = Dataset(inputs=rng.normal(size=(4, 1)), targets=rng.normal(size=4))
        ks = build_base_kernels(data, include_constant=False, D=0)
        rho = RhoSchedule.uniform(0)
        T, eta = 20, 0.05
        result = run(config_for(T, D=0, step=eta), data, ks, rho, draws=uniform_draws)

        theta = 0.0
        values = []
        y = data.targets
        for _ in range(T):
            values.append(theta)
            K = theta * np.ones((4, 4))
            dual = solve_dense(K, y)
            g = -GRAD_SCALE * float(dual.alpha @ np.ones((4, 4)) @ dual.alpha)
            theta = min(max(theta - eta * g, 0.0), 1.0)
        assert result.theta_last.value(()) == pytest.approx(theta, rel=1e-12)
        assert result.theta_avg.value(()) == pytest.approx(np.mean(values), rel=1e-10)

    def test_unbiased_estimates(self):
        # MC mean of size * g_I * e_I over a uniform draw matches the full
        # gradient componentwise within 3 standard errors
        data, ks, rho = make_setup(n=5, r=2, D=1, seed=4)
        tuples = enumerate_index_set(ks.indices, 1)
        theta = SparseTheta.from_dict({(): 0.2, (1,): 0.3, (2,): 0.25})
        dual = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
        grad = full_gradient(dual.alpha, ks, rho, tuples)

        draws = 10**5
        rng = np.random.default_rng(5)
        picks = rng.integers(len(tuples), size=draws)
        estimates = np.zeros((len(tuples),))
        sq_sums = np.zeros(len(tuples))
        for pos in range(len(tuples)):
            hits = int(np.sum(picks == pos))
            value = len(tuples) * grad[pos]
            estimates[pos] = value * hits / draws
            sq_sums[pos] = value**2 * hits / draws
        for pos in range(len(tuples)):
            se = np.sqrt(max(sq_sums[pos] - estimates[pos] ** 2, 0.0) / draws)
            assert abs(estimates[pos] - grad[pos]) <= 3 * se + 1e-12

    def test_feasible_and_deterministic(self):
        data, ks, rho = make_setup(n=5, r=2, D=2, seed=6)
        a = run(config_for(80, seed=1, D=2), data, ks, rho, draws=uniform_draws)
        b = run(config_for(80, seed=1, D=2), data, ks, rho, draws=uniform_draws)
        for ra, rb in zip(a.records, b.records):
            assert ra.theta_norm == rb.theta_norm <= 1 + 1e-12
            assert ra.J_value == rb.J_value

    def test_per_iteration_time_flat_in_index_set_size(self):
        # uniform coordinate descent touches one tuple per iteration, so its
        # per-iteration cost must not track the enumerated set's size
        import time

        def median_iter_seconds(r, seed=12):
            rng = np.random.default_rng(seed)
            data = Dataset(inputs=rng.normal(size=(30, r)), targets=rng.normal(size=30))
            ks = build_base_kernels(data, include_constant=False, D=2)
            rho = RhoSchedule.uniform(2)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                run(config_for(120, D=2), data, ks, rho, draws=uniform_draws)
                best = min(best, time.perf_counter() - start)
            return best / 120

        small = median_iter_seconds(6)
        large = median_iter_seconds(14)  # enumerated set ~4.9x larger
        assert large / small <= 2.0, f"UCD per-iteration ratio {large / small:.2f}"

    def test_higher_estimate_variance_than_proportional_sampling(self):
        # with s = q the squared estimate norm is the constant C^2; the uniform
        # draw's squared norm varies and its mean is strictly larger whenever
        # the gradient magnitudes are not all equal (Cauchy-Schwarz)
        data, ks, rho = make_setup(n=5, r=2, D=1, seed=7)
        theta = SparseTheta.from_dict({(1,): 0.5})
        dual = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
        tuples = enumerate_index_set(ks.indices, 1)
        grad = full_gradient(dual.alpha, ks, rho, tuples)
        C = float(np.sum(np.abs(grad)))
        assert not np.allclose(np.abs(grad), np.abs(grad)[0])  # non-uniform magnitudes

        # exact moments over the enumerated distributions
        is_second_moment = C**2
        ucd_sq_norms = (len(tuples) * grad) ** 2
        ucd_second_moment = float(np.mean(ucd_sq_norms))
        ucd_variance = float(np.mean((ucd_sq_norms - ucd_second_moment) ** 2))
        assert ucd_second_moment > is_second_moment * (1 + 1e-9)
        assert ucd_variance > 0.0  # proportional sampling's is exactly zero


class TestRunFullGradient:
    def test_zero_targets_immediate(self):
        data, ks, rho = make_setup(seed=8)
        flat = Dataset(inputs=data.inputs, targets=np.zeros(5))
        result = run_full_gradient(config_for(100), flat, ks, rho)
        assert result.converged
        assert result.final.J_value == 0.0
        assert len(result.records) == 1

    def test_single_coordinate_matches_scalar_minimization(self):
        # one base kernel and D=1 with the degree-0 weight pinned by a huge
        # rho: effectively a 1-d problem; compare against a bounded scalar solve
        rng = np.random.default_rng(9)
        data = Dataset(inputs=rng.normal(size=(6, 1)), targets=rng.normal(size=6))
        ks = build_base_kernels(data, include_constant=False, D=1)
        rho = RhoSchedule(np.array([1e12, 1.0]))  # degree-0 coordinate is inert
        result = run_full_gradient(config_for(4000, D=1), data, ks, rho, tol=1e-14)

        def J_of(t):
            return objective_J(SparseTheta.from_dict({(1,): t}), ks, rho, data.targets)

        scalar = scipy.optimize.minimize_scalar(J_of, bounds=(0.0, 1.0), method="bounded",
                                                options={"xatol": 1e-12})
        assert result.final.J_value == pytest.approx(scalar.fun, abs=1e-6)

    def test_fixed_point_restart(self):
        data, ks, rho = make_setup(n=8, r=2, D=2, seed=10)
        tol = 1e-10
        first = run_full_gradient(config_for(5000, D=2), data, ks, rho, tol=tol)
        assert first.converged
        # restarting from the optimum must not move the objective beyond tol
        y = data.targets
        J_first = first.final.J_value
        J_restart = solve_alpha(
            assemble_combined_gram(first.theta_avg, ks, rho), y
        ).J_value
        assert abs(J_restart - J_first) <= tol * max(abs(J_first), 1.0)
        again = run_full_gradient(config_for(50, D=2), data, ks, rho, tol=tol)
        assert again.final.J_value <= J_first + tol * max(abs(J_first), 1.0) + 1e-15

    def test_feasibility_and_iteration_cap(self):
        data, ks, rho = make_setup(n=6, r=2, D=2, seed=11)
        result = run_full_gradient(config_for(3, D=2), data, ks, rho, tol=1e-16)
        assert not result.converged  # cap reached first, reported not raised
        for rec in result.records:
            assert rec.theta_norm <= 1 + 1e-12

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("seed", [29, 30, 31, 33])
    def test_steps_keep_weights_positive_where_a_form_rounds_below_zero(self, seed, T):
        # at alpha = y/n the constant kernel's form (sum alpha)^2 rounds below
        # zero on these seeds; every component must still read <= 0, so that
        # no step takes a weight below zero
        spec = SyntheticSpec(r=3, n_train=30, n_test=10, n_terms=4, max_degree=2, seed=seed)
        data, _ = standardize(gen_synthetic(spec)[0])
        ks = build_base_kernels(data, include_constant=True, D=2)
        rho = RhoSchedule.uniform(2).scaled(1e-3)
        tuples = enumerate_index_set(ks.indices, 2)
        assert np.all(full_gradient(data.targets / data.n, ks, rho, tuples) <= 0.0)
        result = run_full_gradient(config_for(T, D=2), data, ks, rho)
        weights = [value for _, value in result.theta_avg.items()]
        assert weights and all(w > 0 for w in weights)

    def test_optimum_oracle_below_stochastic_runs(self):
        from polymkl import run as run_stoch

        data, ks, rho = make_setup(n=8, r=2, D=2, seed=12)
        full = run_full_gradient(config_for(5000, D=2), data, ks, rho, tol=1e-12)
        for seed in range(3):
            stoch = run_stoch(config_for(300, seed=seed, D=2), data, ks, rho)
            assert full.final.J_value <= stoch.final.J_value + 1e-6
