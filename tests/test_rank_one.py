"""The rank-one fast paths against the dense n x n oracles.

Every product kernel is z z' with z the elementwise product of its columns of
[1, X]. The degree masses, the sampler's position weights, the optimizer's
incremental Gram, the Gram rebuilds and predict all work on those columns or
on the per-degree features Phi_k with S^(.)k = Phi_k Phi_k'; here each is
checked on seeded random instances against dense Grams built straight from
the inputs by `product_kernel_matrix` and `product_kernel_cross`, and against
`brute_force_q`. The allocation tests pin that building the kernel set
where every degree takes features, a steady-state mass, draw and step, and a
whole run between checkpoints, create no n x n temporary.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from polymkl import (
    Dataset,
    OptimizerState,
    RhoSchedule,
    RunConfig,
    SparseTheta,
    SyntheticSpec,
    build_base_kernels,
    degree_masses,
    run,
)
from polymkl.baselines import brute_force_q
from polymkl.dual import assemble_combined_gram, predict, solve_alpha
from polymkl.gradient import total_mass_C
from polymkl.kernels import (
    monomial_key,
    position_weights,
    product_kernel_cross,
    product_kernel_matrix,
)
from polymkl.sampler import SamplerWorkspace

RTOL = 1e-12

INSTANCES = [
    (include_constant, D, seed)
    for include_constant in (False, True)
    for D in (1, 2, 3)
    for seed in (0, 1)
]


def assert_close(actual, expected):
    """Max-norm error within RTOL of the expected array's max norm."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(actual - expected)) <= RTOL * scale


def make_instance(include_constant, D, seed, n=7, r=3):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=include_constant, D=D)
    rho = RhoSchedule(rng.uniform(0.5, 2.0, size=D + 1))
    return data, ks, rho, rng


def all_tuples(ks, max_degree):
    for d in range(max_degree + 1):
        yield from itertools.product(ks.indices, repeat=d)


def random_theta(ks, rng, size=6):
    """Positive weights on random tuples of every degree, with repeats and the
    empty tuple always included."""
    tuples = list(all_tuples(ks, ks.D))
    picked = {tuples[int(k)] for k in rng.integers(len(tuples), size=size)}
    picked |= {(), (ks.indices[-1],) * ks.D}
    return SparseTheta.from_dict({idx: float(rng.uniform(0.1, 1.0)) for idx in picked})


def oracle_power(ks, d):
    """S^(.)d from the dense base Grams, independent of the kernel set's forms."""
    return sum(product_kernel_matrix(ks, (j,)) for j in ks.indices) ** d


def check_position_weights(ks, alpha):
    """Position weights at every prefix of every degree against the running
    product M = alpha alpha' times the prefix Grams, with
    remaining = d - len(prefix) - 1."""
    for prefix in all_tuples(ks, ks.D - 1):
        M = np.outer(alpha, alpha)
        u = alpha.copy()
        for j in prefix:
            M = M * product_kernel_matrix(ks, (j,))
            u = u * ks.product_columns([(j,)])[:, 0]
        for remaining in range(ks.D - len(prefix)):
            P = oracle_power(ks, remaining)
            dense = [np.sum(M * P * product_kernel_matrix(ks, (j,))) for j in ks.indices]
            assert_close(position_weights(ks, u, remaining), dense)


def top_degree_masses(alpha, ks, rho):
    """Degree masses with all mass on the top degree, so a draw runs every
    position; they keep the first position that a top-degree draw takes
    from them."""
    masses = degree_masses(alpha, ks, rho)
    delta = np.zeros(ks.D + 1)
    delta[ks.D] = masses.delta[ks.D]
    return dataclasses.replace(masses, delta=delta)


def dense_gram(theta, ks, rho):
    K = np.zeros((ks.n, ks.n))
    for idx, value in theta.items():
        K += value / rho.rho_sq[len(idx)] * product_kernel_matrix(ks, idx)
    return K


@pytest.mark.parametrize("include_constant,D,seed", INSTANCES)
class TestAgainstDense:
    def test_position_weights(self, include_constant, D, seed):
        data, ks, rho, rng = make_instance(include_constant, D, seed)
        check_position_weights(ks, rng.normal(size=ks.n))

    def test_step_gram_delta(self, include_constant, D, seed):
        data, ks, rho, rng = make_instance(include_constant, D, seed)
        state = OptimizerState(ks, rho)
        for idx in random_theta(ks, rng, size=10).as_dict():
            before_gram = state.combined_gram()
            before = state.theta.value(idx)
            state.step(idx, -0.5, eta=0.1)
            coef = (state.theta.value(idx) - before) / rho.rho_sq[len(idx)]
            expected = coef * product_kernel_matrix(ks, idx)
            after_gram = state.combined_gram()
            assert_close(after_gram - before_gram, expected)
            np.testing.assert_array_equal(after_gram, after_gram.T)

    def test_rebuild_and_assemble(self, include_constant, D, seed):
        data, ks, rho, rng = make_instance(include_constant, D, seed)
        state = OptimizerState(ks, rho)
        theta = random_theta(ks, rng).as_dict()
        # tuples that share a monomial: the permutations of one top-degree
        # tuple, and (j,) beside (0, j) and (j, 0) with the constant kernel
        shared = list(itertools.permutations(ks.indices[-D:]))
        if include_constant:
            shared += [(0,), (2,), (0, 2), (2, 0)][: 2 * D]
        theta.update({idx: float(rng.uniform(0.1, 1.0)) for idx in shared})
        # stepped in, so the projections rescale the earlier weights
        for idx, value in theta.items():
            state.step(idx, -value, eta=0.7)
        keys = {monomial_key(idx) for idx in theta}
        if D > 1 or include_constant:
            assert len(keys) < state.theta.support_size
        expected = dense_gram(state.theta, ks, rho)
        for K in (
            state.support_gram(),
            state.rebuild_combined_gram(),
            assemble_combined_gram(state.theta, ks, rho),
        ):
            assert K.columns.shape[1] == len(keys)
            assert_close(K.dense(), expected)

    def test_predict(self, include_constant, D, seed):
        data, ks, rho, rng = make_instance(include_constant, D, seed)
        theta = random_theta(ks, rng)
        state = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
        queries = rng.normal(size=(5, data.r))
        expected = np.zeros(5)
        for idx, value in theta.items():
            cross = product_kernel_cross(data.inputs, queries, idx)
            expected += value / rho.rho_sq[len(idx)] * (cross @ state.alpha)
        assert_close(predict(state, theta, data.inputs, queries, rho), expected)


@pytest.mark.parametrize("n", [25, 12, 3])
class TestBothForms:
    """r=3 with the constant kernel, so m=4 and F = 4/10/20: every degree takes
    features at n=25, degrees 1-2 do at n=12, and none does at n=3."""

    D = 3

    def test_degree_masses(self, n):
        data, ks, rho, rng = make_instance(True, self.D, seed=n, n=n)
        alpha = rng.normal(size=n)
        masses = degree_masses(alpha, ks, rho)
        dense = [alpha @ oracle_power(ks, d) @ alpha / rho.rho_sq[d] for d in range(self.D + 1)]
        assert_close(masses.delta, dense)
        q = brute_force_q(alpha, ks, rho, self.D)
        per_degree = [sum(p for idx, p in q.items() if len(idx) == d) for d in range(self.D + 1)]
        assert_close(masses.delta / masses.total, per_degree)

    def test_position_weights(self, n):
        data, ks, rho, rng = make_instance(True, self.D, seed=n, n=n)
        check_position_weights(ks, rng.normal(size=n))


class TestNoSquareTemporaries:
    """A steady-state draw, step and whole loop iteration each allocate well
    under one n x n array of float64: fresh n^2 buffers in the loop cost page
    faults on every iteration. Where every degree takes features, building the
    kernel set does too."""

    n = 300
    budget = n * n * 8 // 2

    def instance(self):
        data, ks, rho, rng = make_instance(True, 3, seed=5, n=self.n, r=10)
        return ks, rho, rng

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_draw(self):
        ks, rho, rng = self.instance()
        alpha = rng.normal(size=ks.n)
        ws = SamplerWorkspace(ks, rho, rng)
        masses = top_degree_masses(alpha, ks, rho)
        ws.draw(masses)
        assert self.peak_bytes(lambda: ws.draw(masses)) < self.budget

    def test_draw_dense_degrees(self):
        # r=30: m=31 and F = 31/496/5456, so degrees 2 and 3 stay dense at n=300;
        # the top one is held in neither form
        data, ks, rho, rng = make_instance(True, 3, seed=6, n=self.n, r=30)
        assert sorted(ks.dense_powers) == [2] and ks.D > len(ks.features)
        alpha = rng.normal(size=ks.n)
        ws = SamplerWorkspace(ks, rho, rng)
        masses = top_degree_masses(alpha, ks, rho)
        ws.draw(masses)
        assert self.peak_bytes(lambda: ws.draw(masses)) < self.budget

    def test_step(self):
        ks, rho, rng = self.instance()
        state = OptimizerState(ks, rho)
        state.step((1, 0, 2), -0.5, eta=0.1)
        assert self.peak_bytes(lambda: state.step((1, 0, 2), -0.5, eta=0.1)) < self.budget

    def test_loop_iteration(self):
        # the loop body of `run`: support solve, degree masses, draw and step
        ks, rho, rng = self.instance()
        y = rng.normal(size=ks.n)
        state = OptimizerState(ks, rho)
        ws = SamplerWorkspace(ks, rho, rng)

        def iteration():
            dual = solve_alpha(state.support_gram(), y)
            masses = degree_masses(dual.alpha, ks, rho)
            idx = ws.draw(masses)
            state.step(idx, -total_mass_C(masses), eta=0.05)

        for _ in range(100):
            iteration()
        assert 0 < state.cache.num_columns < ks.n
        assert self.peak_bytes(iteration) < self.budget

    def test_build_masses_and_draw_where_all_features(self):
        # n=2000, r=5, D=3: m=6 and F = 6/21/56, so every degree takes features
        n = 2000
        budget = n * n * 8 // 2
        rng = np.random.default_rng(8)
        data = Dataset(inputs=rng.normal(size=(n, 5)), targets=rng.normal(size=n))
        rho = RhoSchedule(rng.uniform(0.5, 2.0, size=4))
        built = []
        assert self.peak_bytes(lambda: built.append(build_base_kernels(data, True, 3))) < budget
        ks = built[0]
        assert sorted(ks.features) == [1, 2, 3] and not ks.dense_powers

        alpha = rng.normal(size=n)
        assert self.peak_bytes(lambda: degree_masses(alpha, ks, rho)) < budget
        ws = SamplerWorkspace(ks, rho, rng)
        masses = top_degree_masses(alpha, ks, rho)
        assert self.peak_bytes(lambda: ws.draw(masses)) < budget

    def test_whole_run_where_all_features(self):
        # the loop and both final solves in support form; checkpoint_every > T
        # leaves out the Gram check, which the test below adds
        n, T = 2000, 10
        budget = n * n * 8 // 2
        rng = np.random.default_rng(9)
        data = Dataset(inputs=rng.normal(size=(n, 5)), targets=rng.normal(size=n))
        ks = build_base_kernels(data, True, 3)
        rho = RhoSchedule.uniform(3).scaled(1e-5)
        spec = SyntheticSpec(r=5, n_train=n, n_test=1)
        config = RunConfig(D=3, T=T, synthetic=spec, checkpoint_every=T + 1)
        results = []
        peak = self.peak_bytes(lambda: results.append(run(config, data, ks, rho)))
        assert len(results[0].records) == T and results[0].theta_avg.support_size > 0
        assert peak < budget

    def test_whole_run_with_checkpoints_where_all_features(self, monkeypatch):
        # as above, with the Gram check at k=5 and k=10: the last updated
        # column is checked against kernel entries, not an n x n kernel
        n, T = 2000, 10
        budget = n * n * 8 // 2
        rng = np.random.default_rng(9)
        data = Dataset(inputs=rng.normal(size=(n, 5)), targets=rng.normal(size=n))
        ks = build_base_kernels(data, True, 3)
        rho = RhoSchedule.uniform(3).scaled(1e-5)
        spec = SyntheticSpec(r=5, n_train=n, n_test=1)
        config = RunConfig(D=3, T=T, synthetic=spec, checkpoint_every=5)
        checks = []
        check = OptimizerState.check_combined_gram

        def counted(state, *args, **kwargs):
            checks.append(state.iter)
            return check(state, *args, **kwargs)

        monkeypatch.setattr(OptimizerState, "check_combined_gram", counted)
        results = []
        peak = self.peak_bytes(lambda: results.append(run(config, data, ks, rho)))
        assert checks == [5, 10]
        assert len(results[0].records) == T and results[0].theta_avg.support_size > 0
        assert peak < budget
