"""The rank-one fast paths against the dense n x n oracles.

Every product kernel is z z' with z the elementwise product of its columns of
[1, X]. The sampler's position weights, the optimizer's incremental Gram, the
Gram rebuilds and predict all work on those columns; here each is checked on
seeded random instances against Grams built from `BaseKernelSet.kernel`,
`product_kernel_matrix` and `product_kernel_cross`. The allocation tests pin
that a steady-state draw and step create no n x n temporary.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from polymkl import (
    Dataset,
    GradSample,
    OptimizerState,
    RhoSchedule,
    SparseTheta,
    build_base_kernels,
    degree_masses,
)
from polymkl.dual import assemble_combined_gram, predict, solve_alpha
from polymkl.gradient import DegreeMasses
from polymkl.kernels import product_kernel_cross, product_kernel_matrix
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


def dense_gram(theta, ks, rho):
    K = np.zeros((ks.n, ks.n))
    for idx, value in theta.items():
        K += value / rho.rho_sq[len(idx)] * product_kernel_matrix(ks, idx).values
    return K


@pytest.mark.parametrize("include_constant,D,seed", INSTANCES)
class TestAgainstDense:
    def test_position_weights(self, include_constant, D, seed):
        data, ks, rho, rng = make_instance(include_constant, D, seed)
        alpha = rng.normal(size=ks.n)
        ws = SamplerWorkspace(ks, rho, rng)
        # every prefix of every degree: the running product M = alpha alpha'
        # times the prefix Grams, and remaining = d - len(prefix) - 1
        for prefix in all_tuples(ks, D - 1):
            M = np.outer(alpha, alpha)
            u = alpha.copy()
            for j in prefix:
                M = M * ks.kernel(j)
                u = u * ks.product_columns([(j,)])[:, 0]
            for remaining in range(D - len(prefix)):
                P = ks.powers[remaining]
                dense = [np.sum(M * P * ks.kernel(j)) for j in ks.indices]
                assert_close(ws.position_weights(u, remaining), dense)

    def test_step_gram_delta(self, include_constant, D, seed):
        data, ks, rho, rng = make_instance(include_constant, D, seed)
        state = OptimizerState(ks, rho, rng)
        for idx in random_theta(ks, rng, size=10).raw:
            before_gram = state.combined_unscaled.copy()
            before_raw = state.theta.raw.get(idx, 0.0)
            state.step(GradSample(index=idx, value=-0.5, mass=0.5), eta=0.1)
            coef = (state.theta.raw.get(idx, 0.0) - before_raw) / rho.rho_sq[len(idx)]
            expected = coef * product_kernel_matrix(ks, idx).values
            assert_close(state.combined_unscaled - before_gram, expected)
            np.testing.assert_array_equal(state.combined_unscaled, state.combined_unscaled.T)

    def test_rebuild_and_assemble(self, include_constant, D, seed):
        data, ks, rho, rng = make_instance(include_constant, D, seed)
        state = OptimizerState(ks, rho, rng)
        state.theta = random_theta(ks, rng)
        state.theta.scale = 0.7
        expected = dense_gram(state.theta, ks, rho)
        assert_close(state.rebuild_combined_gram(), expected)
        assert_close(assemble_combined_gram(state.theta, ks, rho).values, expected)

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


class TestNoSquareTemporaries:
    """A steady-state draw and step each allocate well under one n x n array
    of float64: fresh n^2 buffers in the loop cost page faults on every
    iteration."""

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
        # all mass on the top degree, so the draw runs every position
        delta = np.zeros(ks.D + 1)
        delta[ks.D] = degree_masses(alpha, ks, rho).delta[ks.D]
        masses = DegreeMasses(delta=delta, total=float(delta.sum()))
        ws.draw(alpha, masses)
        assert self.peak_bytes(lambda: ws.draw(alpha, masses)) < self.budget

    def test_step(self):
        ks, rho, rng = self.instance()
        state = OptimizerState(ks, rho, rng)
        sample = GradSample(index=(1, 0, 2), value=-0.5, mass=0.5)
        state.step(sample, eta=0.1)
        assert self.peak_bytes(lambda: state.step(sample, eta=0.1)) < self.budget
