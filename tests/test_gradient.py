import itertools

import numpy as np
import pytest

from polymkl import (
    GRAD_SCALE,
    Dataset,
    RhoSchedule,
    SparseTheta,
    build_base_kernels,
    degree_masses,
    product_kernel_matrix,
    solve_alpha,
    total_mass_C,
)
from polymkl import gradient
from polymkl.baselines import grad_component
from polymkl.dual import assemble_combined_gram
from polymkl.optimizer import proportional_draws

from helpers import objective_J


def make_instance(n=10, r=3, D=2, seed=0, include_constant=False):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=include_constant, D=D)
    rho = RhoSchedule.uniform(D)
    return data, ks, rho


def all_tuples(ks, D):
    out = []
    for d in range(D + 1):
        out.extend(itertools.product(ks.indices, repeat=d))
    return out


def interior_theta(tuples, seed, radius=0.9):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=len(tuples))
    w *= radius / np.linalg.norm(w)
    return dict(zip(tuples, w))


def fd_gradient(theta_dict, ks, rho, y, h=1e-5):
    """Central finite differences of the objective, one coordinate at a time."""
    out = {}
    for idx in theta_dict:
        plus = dict(theta_dict)
        minus = dict(theta_dict)
        plus[idx] += h
        minus[idx] -= h
        Jp = objective_J(SparseTheta.from_dict(plus), ks, rho, y)
        Jm = objective_J(SparseTheta.from_dict(minus), ks, rho, y)
        out[idx] = (Jp - Jm) / (2 * h)
    return out


class TestRhoSchedule:
    @pytest.mark.parametrize(
        "rho_sq", [[1.0, float("nan")], [float("inf"), 1.0], [1.0, 0.0], [-1.0], []]
    )
    def test_rejects_an_entry_that_is_not_positive_and_finite(self, rho_sq):
        with pytest.raises(ValueError, match="positive finite"):
            RhoSchedule(np.array(rho_sq))

    def test_scaled_by_nan_is_rejected(self):
        with pytest.raises(ValueError):
            RhoSchedule.uniform(2).scaled(float("nan"))


class TestGradComponent:
    def test_zero_alpha(self):
        assert grad_component(np.zeros(4), np.eye(4), 1.0) == 0.0

    def test_identity_kernel(self):
        alpha = np.array([1.0, 1.0])
        assert grad_component(alpha, np.eye(2), 1.0) == -GRAD_SCALE * 2.0

    def test_always_nonpositive(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = 6
            A = rng.normal(size=(n, n))
            alpha = rng.normal(size=n)
            assert grad_component(alpha, A @ A.T, float(rng.uniform(0.1, 5))) <= 0.0

    def test_matches_finite_differences(self):
        # pins GRAD_SCALE: every coordinate of the analytic gradient agrees
        # with central differences of the objective on enumerable instances
        for seed, (n, r, D) in enumerate([(10, 2, 2), (20, 3, 2), (8, 3, 1), (15, 2, 2)]):
            data, ks, rho = make_instance(n=n, r=r, D=D, seed=seed)
            tuples = all_tuples(ks, D)
            theta_dict = interior_theta(tuples, seed=50 + seed)
            theta = SparseTheta.from_dict(theta_dict)
            dual = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
            fd = fd_gradient(theta_dict, ks, rho, data.targets)
            for idx in tuples:
                K_i = product_kernel_matrix(ks, idx)
                g = grad_component(dual.alpha, K_i, rho.rho_sq[len(idx)])
                assert abs(g - fd[idx]) <= 1e-5 * (1 + abs(fd[idx])), f"coordinate {idx}"


class TestDegreeMasses:
    def test_hand_enumerated_scalar_case(self):
        data = Dataset(inputs=np.array([[np.sqrt(2.0)]]), targets=np.array([1.0]))
        ks = build_base_kernels(data, include_constant=False, D=1)
        masses = degree_masses(np.array([1.0]), ks, RhoSchedule.uniform(1))
        np.testing.assert_allclose(masses.delta, [1.0, 2.0], rtol=1e-12)
        assert masses.total == pytest.approx(3.0, rel=1e-12)

    def test_zero_alpha(self):
        _, ks, rho = make_instance()
        masses = degree_masses(np.zeros(ks.n), ks, rho)
        np.testing.assert_array_equal(masses.delta, np.zeros(3))

    def test_matches_tuple_enumeration(self):
        # the degree-d mass times rho^2 equals the summed quadratic forms over
        # every ordered degree-d tuple
        data, ks, rho = make_instance(n=8, r=3, D=3, seed=3)
        rho = RhoSchedule(np.array([1.0, 0.5, 2.0, 1.5]))
        alpha = np.random.default_rng(4).normal(size=8)
        masses = degree_masses(alpha, ks, rho)
        for d in range(4):
            brute = sum(
                alpha @ product_kernel_matrix(ks, idx) @ alpha
                for idx in itertools.product(ks.indices, repeat=d)
            )
            assert masses.delta[d] * rho.rho_sq[d] == pytest.approx(brute, rel=1e-9)
        # the masses keep a read-only copy of the alpha they were taken at
        taken = alpha.copy()
        alpha[:] = 0.0
        np.testing.assert_array_equal(masses.alpha, taken)
        with pytest.raises(ValueError, match="read-only"):
            masses.alpha[0] = 1.0

    def test_respects_constant_kernel(self):
        data, ks, rho = make_instance(n=6, r=2, D=2, seed=5, include_constant=True)
        alpha = np.random.default_rng(6).normal(size=6)
        masses = degree_masses(alpha, ks, rho)
        brute = sum(
            alpha @ product_kernel_matrix(ks, idx) @ alpha
            for idx in itertools.product(ks.indices, repeat=2)
        )
        assert masses.delta[2] == pytest.approx(brute, rel=1e-9)

    @pytest.mark.parametrize("top_sum", [-1e-14, -1e-3])
    def test_negative_top_form_clamped_within_round_off(self, monkeypatch, top_sum):
        # n=8, r=4: m=4 and F = 4/10, so degree 1 is held as features and the
        # dense top degree 2 in neither form. Its form is the sum of the first
        # position's weights, and no dense power is held: a negative sum of
        # -1e-14 is round-off and clamped to zero, and one of -1e-3, beyond
        # -1e-12 of the largest mass, raises
        _, ks, rho = make_instance(n=8, r=4, D=2, seed=7)
        assert ks.top_is_dense and sorted(ks.features) == [1] and not ks.dense_powers
        alpha = np.random.default_rng(8).normal(size=8)

        def weights(ks, u, remaining, form=False):
            assert (remaining, form) == (1, True)
            return np.array([1e-14, top_sum - 1e-14, 0.0, 0.0, 2.0])

        monkeypatch.setattr(gradient, "position_weights", weights)
        if top_sum < -1e-12:
            with pytest.raises(FloatingPointError, match="beyond round-off"):
                degree_masses(alpha, ks, rho)
            return
        masses = degree_masses(alpha, ks, rho)
        assert masses.delta[1] == 2.0 and masses.delta[2] == 0.0
        assert masses.total == float(masses.delta.sum())


class TestTotalMass:
    def test_zero_masses(self):
        _, ks, rho = make_instance()
        assert total_mass_C(degree_masses(np.zeros(ks.n), ks, rho)) == 0.0

    def test_hand_value(self):
        data = Dataset(inputs=np.array([[np.sqrt(2.0)]]), targets=np.array([1.0]))
        ks = build_base_kernels(data, include_constant=False, D=1)
        masses = degree_masses(np.array([1.0]), ks, RhoSchedule.uniform(1))
        assert total_mass_C(masses) == pytest.approx(GRAD_SCALE * 3.0, rel=1e-12)

    def test_equals_l1_norm_of_gradient(self):
        for seed in range(4):
            data, ks, rho = make_instance(n=5, r=2, D=2, seed=10 + seed)
            theta = SparseTheta.from_dict(interior_theta(all_tuples(ks, 2), seed=20 + seed))
            dual = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
            masses = degree_masses(dual.alpha, ks, rho)
            brute = sum(
                abs(grad_component(dual.alpha, product_kernel_matrix(ks, idx), rho.rho_sq[len(idx)]))
                for idx in all_tuples(ks, 2)
            )
            assert total_mass_C(masses) == pytest.approx(brute, rel=1e-9)


class TestImportanceEstimate:
    def test_single_atom_distribution(self):
        # one base kernel, zero degree-0 mass: the only coordinate with mass is
        # (1,), and the estimate there is the exact gradient
        data = Dataset(inputs=np.array([[1.0], [-1.0]]), targets=np.array([1.0, -1.0]))
        ks = build_base_kernels(data, include_constant=False, D=1)
        rho = RhoSchedule.uniform(1)
        alpha = np.array([0.5, -0.5])  # sums to zero: degree-0 mass vanishes
        masses = degree_masses(alpha, ks, rho)
        assert masses.delta[0] == pytest.approx(0.0, abs=1e-15)
        idx, value = proportional_draws(ks, rho, seed=0)(masses)
        exact = grad_component(alpha, product_kernel_matrix(ks, (1,)), 1.0)
        assert idx == (1,)
        assert value == pytest.approx(exact, rel=1e-12)

    def test_norm_equals_mass(self):
        data, ks, rho = make_instance(n=6, r=2, D=2, seed=30)
        alpha = np.random.default_rng(31).normal(size=6)
        masses = degree_masses(alpha, ks, rho)
        _idx, value = proportional_draws(ks, rho, seed=0)(masses)
        assert -value == total_mass_C(masses)


class TestUnbiasedness:
    def test_monte_carlo_mean_matches_enumerated_gradient(self):
        # r=2, D=1, n=5: MC mean of the single-coordinate estimates agrees with
        # the exact gradient componentwise within 3 standard errors, and the
        # empirical draw frequencies match |g| / C
        from polymkl.baselines import brute_force_q
        from polymkl.sampler import SamplerWorkspace

        data, ks, rho = make_instance(n=5, r=2, D=1, seed=40)
        theta = SparseTheta.from_dict(interior_theta(all_tuples(ks, 1), seed=41))
        dual = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
        masses = degree_masses(dual.alpha, ks, rho)
        C = total_mass_C(masses)
        exact = {
            idx: grad_component(dual.alpha, product_kernel_matrix(ks, idx), rho.rho_sq[len(idx)])
            for idx in all_tuples(ks, 1)
        }
        q = brute_force_q(dual.alpha, ks, rho, 1)

        draws = 10**5
        rng = np.random.default_rng(42)
        ws = SamplerWorkspace(ks, rho, rng)
        counts = {idx: 0 for idx in exact}
        for _ in range(draws):
            counts[ws.draw(masses)] += 1

        for idx, g in exact.items():
            p = q[idx]
            # estimator coordinate value is -C on a hit, 0 otherwise
            mc_mean = -C * counts[idx] / draws
            se = C * np.sqrt(p * (1 - p) / draws)
            assert abs(mc_mean - g) <= 3 * se + 1e-12, f"{idx}: {mc_mean} vs {g}"
            freq_se = np.sqrt(p * (1 - p) / draws)
            assert abs(counts[idx] / draws - p) <= 3 * freq_se + 1e-12
