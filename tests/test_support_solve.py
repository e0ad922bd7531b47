"""The inner solve in the span of the support against the dense solve.

The descent loop keeps the combined Gram as scale * C W C' over one cached
column per distinct monomial and solves (K + n I) alpha = y through the
s x s capacitance system. Here that path is checked on seeded instances
against the dense `baselines.solve_dense` on the same Gram, against an
extended-precision reference refined from the dense factor, and end to end
against a run whose every inner solve is dense. The cache itself is checked against a re-sum of
its weights from theta and a fresh C'C.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from polymkl import (
    Dataset,
    OptimizerState,
    RhoSchedule,
    RunConfig,
    SparseTheta,
    SyntheticSpec,
    build_base_kernels,
    gen_synthetic,
    run,
    standardize,
)
import polymkl.dual as dual_mod
import polymkl.optimizer as optimizer_mod
from polymkl.baselines import solve_dense
from polymkl.dual import DualSolveError, SupportGram, assemble_combined_gram, solve_alpha
from polymkl.optimizer import monomial_key

from helpers import run_python

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
    monomial, one degree higher), so that columns are shared."""
    ks = state.ks
    tuples = [t for d in range(ks.D + 1) for t in itertools.product(ks.indices, repeat=d)]
    for _ in range(count):
        idx = tuples[int(rng.integers(len(tuples)))]
        picks = [idx, tuple(rng.permutation(idx).tolist())]
        if ks.has_constant and len(idx) < ks.D:
            picks.append((0,) + idx)
        for pick in picks:
            value = -float(rng.uniform(0.1, 5.0))
            state.step(pick, value, eta=0.2)


def relative(actual, expected):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


def refined_alpha(K: SupportGram, y: np.ndarray) -> np.ndarray:
    """alpha for (C W C' + n I) alpha = y, refined in long double from the
    dense double-precision factor until the correction stops moving it."""
    n = len(y)
    C = K.columns.astype(np.longdouble)
    A = (C * K.weights.astype(np.longdouble)) @ C.T
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
    dense = solve_dense(K.dense(), y)
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
    # a tuple leaves theta only when its value underflows at a projection: a
    # step of 1e-200 on (1, 2), then one on (3,) so large that the
    # projection's factor 1e-150 takes (1, 2) below the smallest double
    data, state, _ = make_state(False, 2, 1e-2, seed=4)
    state.step((1, 2), -1e-200, eta=1.0)
    before = state.support_gram()
    saved = [a.copy() for a in (before.columns, before.gram, before.weights)]
    state.step((3,), -1e150, eta=1.0)
    assert set(state.theta.as_dict()) == {(3,)}
    K = state.support_gram()
    assert state.cache.monomials == [(1, 2), (3,)]
    assert K.weights[0] == 0.0 and K.weights[1] > 0.0
    # a support form handed out before the projection is left as it was
    for a, b in zip((before.columns, before.gram, before.weights), saved):
        np.testing.assert_array_equal(a, b)
    state.check_combined_gram()
    assert_matches_dense(K, data.targets)
    # the monomial returns to the column it kept
    state.step((2, 1), -1.0, eta=0.1)
    assert state.cache.monomials == [(1, 2), (3,)]
    K = state.support_gram()
    assert relative(K.weights, resummed(state)) <= 1e-12
    state.check_combined_gram()
    assert_matches_dense(K, data.targets)


def test_solve_after_a_projection():
    # the first steps that leave the ball rescale every weight at once
    data, state, rng = make_state(True, 3, 1e-6, seed=5)
    projections = 0
    while projections < 3:
        random_steps(state, rng, 1)
        projections += state.norm() > 1.0 - 1e-12
    K = state.support_gram()
    assert relative(K.weights, resummed(state)) <= 1e-12
    state.check_combined_gram()
    assert_matches_dense(K, data.targets)


@pytest.mark.parametrize("bad", [-1e-300, -1e-14, -1.0, float("nan"), float("inf")])
def test_any_negative_or_non_finite_weight_raises(bad):
    # every weight is a sum of positive terms, so no round-off is forgiven
    data, state, rng = make_state(False, 2, 1e-2, seed=6)
    random_steps(state, rng, 5)
    K = state.support_gram()
    assert K.columns.shape[1] >= 2
    weights = K.weights.copy()
    weights[0] = bad
    with pytest.raises(FloatingPointError, match="finite and >= 0"):
        SupportGram(K.columns, K.gram, weights)
    weights[0] = 0.0
    SupportGram(K.columns, K.gram, weights)


def resummed(state):
    """Each cached monomial's weight summed afresh from theta."""
    terms = {key: [] for key in state.cache.monomials}
    for idx, value in state.theta.items():
        terms[monomial_key(idx)].append(value / state.rho.rho_sq[len(idx)])
    return np.array([math.fsum(terms[key]) for key in state.cache.monomials])


@pytest.mark.parametrize("include_constant", [False, True])
def test_cache_matches_resum_and_fresh_gram(include_constant):
    data, state, rng = make_state(include_constant, 3, 1e-2, seed=7, n=12)
    for _ in range(40):
        random_steps(state, rng, 1)
        K = state.support_gram()
        keys = {monomial_key(idx) for idx in state.theta.as_dict()}
        assert len(set(state.cache.monomials)) == len(state.cache.monomials)
        # no projection underflows here, so every cached monomial is in theta
        assert keys == set(state.cache.monomials)
        np.testing.assert_array_equal(K.columns, state.ks.product_columns(state.cache.monomials))
        expected = resummed(state)
        assert relative(K.weights, expected) <= 1e-12
        fresh = K.columns.T @ K.columns
        assert relative(K.gram, fresh) <= 1e-12
        # the solve reads the Gram transposed
        assert np.array_equal(K.gram, K.gram.T)
    state.check_combined_gram()


def test_assembled_gram_is_exactly_symmetric():
    # the solve builds the capacitance from the Gram's transpose, so a Gram
    # built afresh must be symmetric bit for bit: n 3-60, r 1-5, D 1-3, the
    # constant kernel on and off, up to 40 random tuples
    rng = np.random.default_rng(90)
    for _ in range(100):
        n, r, D = int(rng.integers(3, 61)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        data = Dataset(inputs=rng.normal(size=(n, r)), targets=np.zeros(n))
        ks = build_base_kernels(data, include_constant=bool(rng.integers(2)), D=D)
        tuples = [t for d in range(D + 1) for t in itertools.product(ks.indices, repeat=d)]
        picked = rng.choice(len(tuples), size=min(len(tuples), int(rng.integers(1, 41))))
        theta = SparseTheta.from_dict({tuples[i]: float(rng.uniform(0.1, 1.0)) for i in picked})
        gram = assemble_combined_gram(theta, ks, RhoSchedule.uniform(D)).gram
        assert np.array_equal(gram, gram.T), (n, r, D)


def test_run_matches_dense_inner_solves(monkeypatch):
    """The README grid config (r=5, 200 train rows, D=3, constant on,
    lambda in 1e-6, 1e-4, 1e-2, T=1000), once as is and once with every loop
    solve handed the dense combined Gram."""

    def dense_solve(K, y):
        return solve_dense(K.dense(), y)

    spec = SyntheticSpec(r=5, n_train=300, n_test=100, seed=0)
    train_big, _, _ = gen_synthetic(spec)
    train, _ = standardize(Dataset(train_big.inputs[:200], train_big.targets[:200]))
    ks = build_base_kernels(train, include_constant=True, D=3)
    config = RunConfig(algo="stoch", D=3, T=1000, seed=0, synthetic=spec)
    for lam in (1e-6, 1e-4, 1e-2):
        rho = RhoSchedule.uniform(3).scaled(lam)
        support = run(config, train, ks, rho).records
        with monkeypatch.context() as patch:
            patch.setattr(optimizer_mod, "solve_alpha", dense_solve)
            dense = run(config, train, ks, rho).records
        assert [r.support_size for r in support] == [r.support_size for r in dense]
        for a, b in zip(support, dense):
            assert abs(a.J_value - b.J_value) <= 1e-10 * abs(b.J_value)
            assert abs(a.C_value - b.C_value) <= 1e-10 * abs(b.C_value)


def solve_support_reference(K: SupportGram, y: np.ndarray) -> np.ndarray:
    """The capacitance solve as first written on cho_factor/cho_solve, kept
    frozen: the LAPACK-direct solve must give the same alpha bit for bit."""
    n = len(y)
    C = K.columns
    weights = np.maximum(K.weights, 0.0)
    root = np.sqrt(weights)
    capacitance = np.array(K.gram, order="F")
    capacitance *= root[:, None]
    capacitance *= root
    capacitance[np.diag_indices_from(capacitance)] += n
    factor = scipy.linalg.cho_factor(capacitance, lower=True, overwrite_a=True, check_finite=False)

    def solve(r):
        c = scipy.linalg.cho_solve(factor, root * (C.T @ r), check_finite=False)
        out = r - C @ (root * c)
        out /= n
        return out

    alpha = solve(y)
    if C.shape[1]:
        alpha += solve(y - n * alpha - C @ (weights * (C.T @ alpha)))
    return alpha


def random_support_grams():
    """Support forms from random steps on every instance, and from more
    monomials than rows with some weights zero."""
    for include_constant, D, lam in INSTANCES:
        data, state, rng = make_state(include_constant, D, lam, seed=int(20 + D))
        for _ in range(4):
            random_steps(state, rng, 3)
            yield state.support_gram(), data.targets
    rng = np.random.default_rng(8)
    inputs = rng.normal(size=(8, 3))
    monomials = [t for d in range(4) for t in itertools.combinations_with_replacement((1, 2, 3), d)]
    C = build_base_kernels(Dataset(inputs, rng.normal(size=8)), False, 3).product_columns(monomials)
    for lam in LAMBDAS:
        weights = rng.uniform(0.5, 2.0, size=20) / lam
        weights[::3] = 0.0
        yield SupportGram(C, C.T @ C, weights), rng.normal(size=8)


def dense_solve_reference(K: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dense solve as first written on cho_factor/cho_solve, kept frozen."""
    system = np.array(K, order="F")
    system[np.diag_indices_from(system)] += len(y)
    factor = scipy.linalg.cho_factor(system, lower=True, overwrite_a=True, check_finite=False)
    return scipy.linalg.cho_solve(factor, y, check_finite=False)


def test_lapack_solves_match_cho_factor_route_bitwise():
    count = 0
    for K, y in random_support_grams():
        got = solve_alpha(K, y)
        expected = solve_support_reference(K, y)
        assert np.array_equal(got.alpha, expected)
        assert got.J_value == float(0.5 * y @ expected)
        dense = K.dense()
        got = solve_dense(dense, y)
        assert np.array_equal(got.alpha, dense_solve_reference(dense, y))
        count += 1
    assert count == 3 * 3 * 2 * 4 + 3


def not_positive_definite():
    """A support form whose capacitance n I + W^(1/2) G W^(1/2) is indefinite:
    the stated G = -10 n I is no Gram of the columns."""
    rng = np.random.default_rng(9)
    n, s = 12, 3
    C = rng.normal(size=(n, s))
    return SupportGram(C, -10.0 * n * np.eye(s), np.ones(s)), rng.normal(size=n)


def test_indefinite_capacitance_raises():
    K, y = not_positive_definite()
    with pytest.raises(DualSolveError, match="potrf info 1"):
        solve_alpha(K, y)


@pytest.mark.parametrize("routine", ["dpotrf", "dpotrs"])
@pytest.mark.parametrize("info", [-2, 3])
def test_any_nonzero_lapack_info_raises(monkeypatch, routine, info):
    real = getattr(dual_mod, routine)

    def failing(*args, **kwargs):
        out, _ = real(*args, **kwargs)
        return out, info

    monkeypatch.setattr(dual_mod, routine, failing)
    K, y = next(random_support_grams())
    with pytest.raises(DualSolveError, match=f"info {info}"):
        solve_alpha(K, y)


def test_ill_conditioned_solve_raises():
    # weights 1e12 leave the first solve's residual well inside its bound and
    # J in (0, |y|^2 / (2n)]; at 1e16 the residual exceeds |y| itself
    rng = np.random.default_rng(5)
    C, y = rng.normal(size=(40, 6)), rng.normal(size=40)
    J = solve_alpha(SupportGram(C, C.T @ C, np.full(6, 1e12)), y).J_value
    assert 0.0 < J <= y @ y / 80
    with pytest.raises(DualSolveError, match="support solve residual"):
        solve_alpha(SupportGram(C, C.T @ C, np.full(6, 1e16)), y)


def test_indefinite_dense_system_raises():
    _, y = not_positive_definite()
    with pytest.raises(DualSolveError, match="potrf info"):
        solve_dense(-100.0 * np.eye(len(y)), y)


def test_routines_load_without_scipy_linalg_and_are_shared_with_it():
    code = (
        "import sys\n"
        "import polymkl.lapack as ours\n"
        "print('loaded:', 'scipy.linalg' in sys.modules)\n"
        "import scipy.linalg.blas, scipy.linalg.lapack\n"
        "print('shared:', ours.dpotrf is scipy.linalg.lapack.dpotrf,"
        " ours.dpotrs is scipy.linalg.lapack.dpotrs,"
        " ours.dtrmm is scipy.linalg.blas.dtrmm,"
        " ours.dsymv is scipy.linalg.blas.dsymv)\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["loaded: False", "shared: True True True True"]


def test_indefinite_capacitance_raises_under_python_O():
    # the info checks are no asserts, so -O must not strip them
    code = (
        "import numpy as np\n"
        "from polymkl.dual import DualSolveError, SupportGram, solve_alpha\n"
        "rng = np.random.default_rng(9)\n"
        "C = rng.normal(size=(12, 3))\n"
        "K = SupportGram(C, -120.0 * np.eye(3), np.ones(3))\n"
        "try:\n"
        "    solve_alpha(K, rng.normal(size=12))\n"
        "except DualSolveError as exc:\n"
        "    print('raised:', exc)\n"
    )
    done = run_python("-O", "-c", code)
    assert done.returncode == 0, done.stderr
    assert "raised:" in done.stdout and "potrf info 1" in done.stdout
