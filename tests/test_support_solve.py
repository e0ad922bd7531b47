"""The inner solve in the span of the support against the dense solve.

The descent loop keeps the combined Gram as scale * C W C' over one cached
column per distinct monomial and solves (K + n I) alpha = y through the
s x s capacitance system. Here that path is checked on seeded instances
against dense `solve_alpha` on the same Gram, against an extended-precision
reference refined from the dense factor, and end to end against a run whose
every inner solve is dense. The cache itself is checked against a re-sum of
its weights from theta and a fresh C'C.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from polymkl import (
    Dataset,
    GradSample,
    OptimizerState,
    RhoSchedule,
    RunConfig,
    SyntheticSpec,
    build_base_kernels,
    gen_synthetic,
    run,
    standardize,
)
from polymkl.dual import SupportGram, solve_alpha
from polymkl.kernels import GramMatrix
from polymkl.optimizer import monomial_key

LAMBDAS = (1e-6, 1e-2, 10.0)
INSTANCES = [
    (include_constant, D, lam)
    for include_constant in (False, True)
    for D in (1, 2, 3)
    for lam in LAMBDAS
]


def make_state(include_constant, D, lam, seed=0, n=30, r=3):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=include_constant, D=D)
    rho = RhoSchedule(rng.uniform(0.5, 2.0, size=D + 1)).scaled(lam)
    return data, OptimizerState(ks, rho), rng


def random_steps(state, rng, count):
    """Steps on random tuples, each followed by a random permutation of it
    and, with the constant kernel on, the tuple with a 0 in front (same
    monomial, one degree higher), so that columns are shared. A fifth of the
    steps push a live coordinate down, often evicting it."""
    ks = state.ks
    tuples = [t for d in range(ks.D + 1) for t in itertools.product(ks.indices, repeat=d)]
    for _ in range(count):
        idx = tuples[int(rng.integers(len(tuples)))]
        picks = [idx, tuple(rng.permutation(idx).tolist())]
        if ks.has_constant and len(idx) < ks.D:
            picks.append((0,) + idx)
        for pick in picks:
            value = -float(rng.uniform(0.1, 5.0))
            if pick in state.theta.raw and rng.random() < 0.2:
                value = float(rng.uniform(0.5, 20.0))
            state.step(GradSample(index=pick, value=value, mass=abs(value)), eta=0.2)


def relative(actual, expected):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


def refined_alpha(K: SupportGram, y: np.ndarray) -> np.ndarray:
    """alpha for (C W C' + n I) alpha = y, refined in long double from the
    dense double-precision factor until the correction stops moving it."""
    n = len(y)
    C = K.columns.astype(np.longdouble)
    A = (C * K.nonnegative_weights().astype(np.longdouble)) @ C.T
    A[np.diag_indices_from(A)] += n
    factor = scipy.linalg.cho_factor(A.astype(np.float64), lower=True)
    y_ld = y.astype(np.longdouble)
    alpha = scipy.linalg.cho_solve(factor, y).astype(np.longdouble)
    for _ in range(10):
        residual = y_ld - A @ alpha
        alpha = alpha + scipy.linalg.cho_solve(factor, residual.astype(np.float64))
    return alpha


def assert_matches_dense(K: SupportGram, y: np.ndarray):
    support = solve_alpha(K, y)
    assert support.K_theta is K
    reference = refined_alpha(K, y)
    J_reference = float(0.5 * (y.astype(np.longdouble) @ reference))
    assert relative(support.alpha.astype(np.longdouble), reference) <= 1e-12
    assert abs(support.J_value - J_reference) <= 1e-12 * abs(J_reference)
    dense = solve_alpha(GramMatrix(K.dense()), y)
    assert relative(support.alpha, dense.alpha) <= 1e-10
    # the dense Cholesky of K + n I loses digits with its condition number:
    # at lambda = 1e-6 its J is up to 2e-11 off the reference, so the bound
    # against it adds the dense solve's own measured error
    dense_error = abs(dense.J_value - J_reference)
    assert abs(support.J_value - dense.J_value) <= 1e-12 * abs(dense.J_value) + dense_error


@pytest.mark.parametrize("include_constant,D,lam", INSTANCES)
def test_support_solve_matches_dense(include_constant, D, lam):
    data, state, rng = make_state(include_constant, D, lam, seed=int(D + 10 * include_constant))
    random_steps(state, rng, 12)
    K = state.support_gram()
    assert 0 < K.columns.shape[1] < data.n
    assert_matches_dense(K, data.targets)


def test_empty_support_gives_y_over_n():
    data, state, _ = make_state(True, 2, 1e-2)
    K = state.support_gram()
    assert K.columns.shape == (data.n, 0)
    np.testing.assert_array_equal(solve_alpha(K, data.targets).alpha, data.targets / data.n)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_more_columns_than_rows(lam):
    # 8 rows and all C(3+3, 3) = 20 monomials of degree <= 3 over r = 3
    rng = np.random.default_rng(3)
    inputs = rng.normal(size=(8, 3))
    monomials = [t for d in range(4) for t in itertools.combinations_with_replacement((1, 2, 3), d)]
    C = build_base_kernels(Dataset(inputs, rng.normal(size=8)), False, 3).product_columns(monomials)
    assert C.shape == (8, 20)
    K = SupportGram(C, C.T @ C, rng.uniform(0.5, 2.0, size=20) / lam)
    assert_matches_dense(K, rng.normal(size=8))


def test_evicted_monomials_keep_zero_weight_columns():
    # one of two monomials has no live tuple: too few to compact
    data, state, _ = make_state(False, 2, 1e-2, seed=4)
    state.step(GradSample(index=(1, 2), value=-3.0, mass=3.0), eta=0.1)
    state.step(GradSample(index=(3,), value=-2.0, mass=2.0), eta=0.1)
    state.step(GradSample(index=(2, 1), value=-1.0, mass=1.0), eta=0.1)
    for idx in ((1, 2), (2, 1)):
        state.step(GradSample(index=idx, value=50.0, mass=50.0), eta=0.1)
    assert set(state.theta.raw) == {(3,)}
    K = state.support_gram()
    assert state.monomials == [(1, 2), (3,)]
    assert K.weights[0] == 0.0 and K.weights[1] > 0.0
    assert_matches_dense(K, data.targets)


def test_compacts_once_dead_monomials_outnumber_live_ones():
    data, state, _ = make_state(False, 2, 1e-2, seed=4)
    for idx in ((1,), (2,), (3,)):
        state.step(GradSample(index=idx, value=-2.0, mass=2.0), eta=0.1)
    state.step(GradSample(index=(1,), value=50.0, mass=50.0), eta=0.1)
    assert state.monomials == [(1,), (2,), (3,)]
    before = state.support_gram()
    saved = [a.copy() for a in (before.columns, before.gram, before.weights)]
    state.step(GradSample(index=(2,), value=50.0, mass=50.0), eta=0.1)
    assert state.monomials == [(3,)]
    # a support form handed out before the compaction is left as it was
    for a, b in zip((before.columns, before.gram, before.weights), saved):
        np.testing.assert_array_equal(a, b)
    # the last updated monomial was dropped, and the check still holds
    assert state.last_index == (2,)
    state.check_combined_gram()
    state.step(GradSample(index=(1,), value=-1.0, mass=1.0), eta=0.1)
    assert state.monomials == [(3,), (1,)]
    K = state.support_gram()
    np.testing.assert_array_equal(K.columns, state.ks.product_columns(state.monomials))
    assert relative(K.weights, scale_resummed(state)) <= 1e-12
    assert relative(K.gram, K.columns.T @ K.columns) <= 1e-12
    state.check_combined_gram()
    assert_matches_dense(K, data.targets)


def test_solve_after_a_rebase():
    data, state, rng = make_state(True, 3, 1e-6, seed=5)
    rebased = []
    rebase = state._rebase

    def recording_rebase():
        rebase()
        rebased.append((state.support_gram().weights, scale_resummed(state)))

    state._rebase = recording_rebase
    while not rebased:
        random_steps(state, rng, 1)
    cached, resummed = rebased[0]
    np.testing.assert_array_equal(cached, resummed)
    assert_matches_dense(state.support_gram(), data.targets)


def test_negative_weight_round_off_is_clamped_and_beyond_it_raises():
    data, state, rng = make_state(False, 2, 1e-2, seed=6)
    random_steps(state, rng, 5)
    K = state.support_gram()
    assert K.columns.shape[1] >= 2
    weights = K.weights.copy()
    weights[0] = -1e-14 * np.max(weights)
    clamped = SupportGram(K.columns, K.gram, weights)
    weights = weights.copy()
    weights[0] = 0.0
    expected = solve_alpha(SupportGram(K.columns, K.gram, weights), data.targets)
    np.testing.assert_array_equal(solve_alpha(clamped, data.targets).alpha, expected.alpha)
    weights[0] = -1e-6 * np.max(weights)
    with pytest.raises(FloatingPointError, match="negative support weight"):
        solve_alpha(SupportGram(K.columns, K.gram, weights), data.targets)


def scale_resummed(state):
    """Each cached monomial's weight summed afresh from theta, times scale."""
    terms = {key: [] for key in state.monomials}
    for idx, raw in state.theta.raw.items():
        terms[monomial_key(idx)].append(raw / state.rho.rho_sq[len(idx)])
    return state.theta.scale * np.array([math.fsum(terms[key]) for key in state.monomials])


@pytest.mark.parametrize("include_constant", [False, True])
def test_cache_matches_resum_and_fresh_gram(include_constant):
    data, state, rng = make_state(include_constant, 3, 1e-2, seed=7, n=12)
    for _ in range(40):
        random_steps(state, rng, 1)
        K = state.support_gram()
        keys = {monomial_key(idx) for idx in state.theta.raw}
        assert keys <= set(state.monomials)
        assert len(set(state.monomials)) == len(state.monomials)
        # dead monomials never outnumber live ones
        assert len(state.monomials) <= 2 * len(keys)
        np.testing.assert_array_equal(K.columns, state.ks.product_columns(state.monomials))
        expected = scale_resummed(state)
        assert relative(K.weights, expected) <= 1e-12
        fresh = K.columns.T @ K.columns
        assert relative(K.gram, fresh) <= 1e-12
    state.check_combined_gram()


def test_run_matches_dense_inner_solves(monkeypatch):
    """The README grid config (r=5, 200 train rows, D=3, constant on,
    lambda in 1e-6, 1e-4, 1e-2, T=1000), once as is and once with every loop
    solve handed the dense combined Gram."""
    spec = SyntheticSpec(r=5, n_train=300, n_test=100, seed=0)
    train_big, _, _ = gen_synthetic(spec)
    train, _ = standardize(Dataset(train_big.inputs[:200], train_big.targets[:200]))
    ks = build_base_kernels(train, include_constant=True, D=3)
    config = RunConfig(algo="stoch", D=3, T=1000, seed=0, synthetic=spec)
    for lam in (1e-6, 1e-4, 1e-2):
        rho = RhoSchedule.uniform(3).scaled(lam)
        support = run(config, train, ks, rho).records
        with monkeypatch.context() as patch:
            patch.setattr(OptimizerState, "support_gram", OptimizerState.combined_gram)
            dense = run(config, train, ks, rho).records
        assert [r.support_size for r in support] == [r.support_size for r in dense]
        for a, b in zip(support, dense):
            assert abs(a.J_value - b.J_value) <= 1e-10 * abs(b.J_value)
            assert abs(a.C_value - b.C_value) <= 1e-10 * abs(b.C_value)
