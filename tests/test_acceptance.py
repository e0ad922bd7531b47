"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its measured numbers (run pytest with -s or -rA to see them all).

Criterion 7 runs the learner twice on one noise-free synthetic instance. At
ridge strength 1e-5 it asserts only the absolute test-error threshold: there the
convergence bound sqrt(B/T) is vacuous and the default step keeps the iterate
near the origin. At ridge strength 10, where the bound is smaller than the gap
between the equal-weight point of the feasible set (theta_i = 1/sqrt(N) on all
N ordered tuples, norm 1) and the optimum, it asserts that the learned kernel
beats that point in objective and in test error. See the notes at the
assertions.
"""

import itertools
import sys
import time

import numpy as np
import pytest
import scipy.stats

from polymkl import (
    Dataset,
    OptimizerState,
    RhoSchedule,
    RunConfig,
    SparseTheta,
    SyntheticSpec,
    build_base_kernels,
    degree_masses,
    enumerate_index_set,
    full_gradient,
    gen_synthetic,
    predict,
    product_kernel_matrix,
    project_pos_l2ball,
    run,
    run_full_gradient,
    solve_alpha,
    standardize,
    total_mass_C,
)
from polymkl.baselines import brute_force_q, grad_component, solve_dense
from polymkl.dual import assemble_combined_gram
from polymkl.kernels import product_kernel_cross
from polymkl.sampler import SamplerWorkspace

from helpers import objective_J, run_scaling_study


def report(number, ok, detail):
    # write through to the real stdout so the line survives pytest's capture
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", file=sys.__stdout__)
    return ok


def random_instance(n, r, D, seed):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=False, D=D)
    return data, ks, RhoSchedule.uniform(D)


def interior_theta(ks, D, seed, radius=0.9):
    tuples = []
    for d in range(D + 1):
        tuples.extend(itertools.product(ks.indices, repeat=d))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=len(tuples))
    w *= radius / np.linalg.norm(w)
    return dict(zip(tuples, w))


def test_criterion_1_sampler_exactness():
    """Hierarchical draws follow the enumerated |gradient| law exactly."""
    draws = 10**5
    worst_tv, worst_p = 0.0, 1.0
    for seed in range(5):
        start = time.perf_counter()
        rng = np.random.default_rng(seed)
        data, ks, rho = random_instance(n=10, r=3, D=2, seed=seed)
        alpha = rng.normal(size=10)
        q = brute_force_q(alpha, ks, rho, 2)
        ws = SamplerWorkspace(ks, rho, np.random.default_rng(1000 + seed))
        masses = degree_masses(alpha, ks, rho)
        counts = {}
        for _ in range(draws):
            idx = ws.draw(masses)
            counts[idx] = counts.get(idx, 0) + 1
        elapsed = time.perf_counter() - start

        tv = 0.5 * sum(abs(counts.get(idx, 0) / draws - p) for idx, p in q.items())
        keys = [idx for idx, p in q.items() if p * draws >= 5]
        observed = np.array([counts.get(idx, 0) for idx in keys], dtype=float)
        expected = np.array([q[idx] * draws for idx in keys])
        observed[-1] += draws - observed.sum()
        expected[-1] += draws - expected.sum()
        _stat, pvalue = scipy.stats.chisquare(observed, expected)
        worst_tv = max(worst_tv, tv)
        worst_p = min(worst_p, pvalue)
        assert elapsed <= 60, f"instance {seed} took {elapsed:.1f}s"
        assert tv <= 0.02, f"instance {seed}: TV {tv:.4f}"
        assert pvalue > 1e-3, f"instance {seed}: chi-square p {pvalue:.2e}"
    report(1, True, f"5 instances, worst TV {worst_tv:.4f} (<=0.02), worst chi2 p {worst_p:.3f}")


def test_criterion_2_gradient_correctness():
    """Analytic gradient matches central finite differences; the l1 mass agrees
    with the summed component magnitudes."""
    h = 1e-5
    worst_fd, worst_mass = 0.0, 0.0
    for seed, (n, r, D) in enumerate([(20, 3, 2), (10, 2, 2), (16, 3, 1), (8, 2, 2)]):
        data, ks, rho = random_instance(n=n, r=r, D=D, seed=100 + seed)
        theta_dict = interior_theta(ks, D, seed=200 + seed)
        theta = SparseTheta.from_dict(theta_dict)
        dual = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
        mass_sum = 0.0
        for idx in theta_dict:
            plus, minus = dict(theta_dict), dict(theta_dict)
            plus[idx] += h
            minus[idx] -= h
            fd = (
                objective_J(SparseTheta.from_dict(plus), ks, rho, data.targets)
                - objective_J(SparseTheta.from_dict(minus), ks, rho, data.targets)
            ) / (2 * h)
            g = grad_component(dual.alpha, product_kernel_matrix(ks, idx), rho.rho_sq[len(idx)])
            rel = abs(g - fd) / (1 + abs(fd))
            worst_fd = max(worst_fd, rel)
            assert rel <= 1e-5, f"coordinate {idx}: analytic {g} vs FD {fd}"
            mass_sum += abs(g)
        C = total_mass_C(degree_masses(dual.alpha, ks, rho))
        rel_mass = abs(C - mass_sum) / mass_sum
        worst_mass = max(worst_mass, rel_mass)
        assert rel_mass <= 1e-9
    report(2, True, f"worst FD residual {worst_fd:.2e} (<=1e-5), worst mass residual {worst_mass:.2e}")


def test_criterion_3_duality():
    """Inner-solve stationarity and primal/dual agreement on random instances."""
    rng = np.random.default_rng(7)
    worst_stat, worst_gap = 0.0, 0.0
    for trial in range(120):
        n = int(rng.integers(2, 51))
        A = rng.normal(size=(n, n))
        K = (A @ A.T) * float(rng.uniform(0.05, 20))
        y = rng.normal(size=n)
        state = solve_dense(K, y)
        stat = np.linalg.norm(K @ state.alpha + n * state.alpha - y) / (1 + np.linalg.norm(y))
        preds = K @ state.alpha
        primal = np.mean(0.5 * (preds - y) ** 2) + 0.5 * state.alpha @ preds
        gap = abs(primal - state.J_value) / abs(state.J_value)
        worst_stat = max(worst_stat, stat)
        worst_gap = max(worst_gap, gap)
        assert stat <= 1e-8
        assert gap <= 1e-8
    report(3, True, f"120 instances, worst stationarity {worst_stat:.2e}, worst duality gap {worst_gap:.2e}")


def test_criterion_4_unbiasedness():
    """Proportional and uniform single-coordinate estimates are both unbiased
    for the enumerated gradient (Monte Carlo, 3 standard errors)."""
    data, ks, rho = random_instance(n=5, r=2, D=1, seed=300)
    theta = SparseTheta.from_dict(interior_theta(ks, 1, seed=301))
    dual = solve_alpha(assemble_combined_gram(theta, ks, rho), data.targets)
    tuples = enumerate_index_set(ks.indices, 1)
    grad = full_gradient(dual.alpha, ks, rho, tuples)
    masses = degree_masses(dual.alpha, ks, rho)
    C = total_mass_C(masses)
    draws = 10**5

    ws = SamplerWorkspace(ks, rho, np.random.default_rng(302))
    counts = {idx: 0 for idx in tuples}
    for _ in range(draws):
        counts[ws.draw(masses)] += 1
    q = brute_force_q(dual.alpha, ks, rho, 1)
    for pos, idx in enumerate(tuples):
        p = q[idx]
        mc_mean = -C * counts[idx] / draws
        se = C * np.sqrt(p * (1 - p) / draws)
        assert abs(mc_mean - grad[pos]) <= 3 * se + 1e-12, f"importance estimate at {idx}"

    rng = np.random.default_rng(303)
    picks = rng.integers(len(tuples), size=draws)
    for pos, idx in enumerate(tuples):
        hits = int(np.sum(picks == pos))
        value = len(tuples) * grad[pos]
        mc_mean = value * hits / draws
        p = 1.0 / len(tuples)
        se = abs(value) * np.sqrt(p * (1 - p) / draws)
        assert abs(mc_mean - grad[pos]) <= 3 * se + 1e-12, f"uniform estimate at {idx}"
    report(4, True, f"both estimators unbiased over {len(tuples)} coordinates, {draws} draws")


def test_criterion_5_convergence_bound():
    """Mean objective at the averaged iterate reaches the optimum within the
    constant-step theory bound sqrt(B/T), B the squared starting mass."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    raw = Dataset(inputs=rng.normal(size=(20, 2)), targets=rng.normal(size=20))
    data, _ = standardize(raw)
    ks = build_base_kernels(data, include_constant=False, D=2)
    rho = RhoSchedule.uniform(2)
    T = 2000
    spec = SyntheticSpec(r=2, n_train=20, n_test=5, n_terms=1, max_degree=0, seed=0)

    full = run_full_gradient(
        RunConfig(algo="fullgrad", D=2, T=20000, seed=0, include_constant=False, synthetic=spec),
        data, ks, rho, tol=1e-10,
    )
    assert full.converged

    gaps, C0 = [], None
    for seed in range(20):
        cfg = RunConfig(algo="stoch", D=2, T=T, seed=seed, include_constant=False, synthetic=spec)
        result = run(cfg, data, ks, rho)
        if C0 is None:
            C0 = result.records[0].C_value
        gaps.append(result.final.J_value - full.final.J_value)
    bound = np.sqrt(C0 * C0 / T)
    elapsed = time.perf_counter() - start
    mean_gap = float(np.mean(gaps))
    assert elapsed <= 300, f"took {elapsed:.0f}s"
    assert mean_gap <= bound, f"mean gap {mean_gap:.5f} vs bound {bound:.5f}"
    report(5, True, f"mean gap {mean_gap:.5f} <= bound {bound:.5f} over 20 seeds ({elapsed:.0f}s)")


def test_criterion_6_per_iteration_scaling():
    """Per-iteration cost of the proportional sampler is nearly flat in the
    input dimension while the enumerated full gradient blows up."""
    spec = SyntheticSpec(r=5, n_train=100, n_test=10, n_terms=10, max_degree=3, seed=0)
    rows = run_scaling_study([5, 20], D=3, base_spec=spec, T=200, seeds=[0])
    sizes = [row["index_set_size"] for row in rows]
    assert sizes == [156, 8421]
    full_ratio = rows[1]["fullgrad_s_per_iter"] / rows[0]["fullgrad_s_per_iter"]
    stoch_ratio = rows[1]["stoch_s_per_iter"] / rows[0]["stoch_s_per_iter"]
    assert full_ratio >= 20, f"full-gradient ratio {full_ratio:.1f}"
    assert stoch_ratio <= 3, f"sampler ratio {stoch_ratio:.2f}"
    report(6, True, f"index sets {sizes}; per-iteration ratios: fullgrad {full_ratio:.1f}x (>=20), "
                    f"stoch {stoch_ratio:.2f}x (<=3)")


def equal_weight_model(ks, rho, train, query_inputs):
    """The equal-weight point of the feasible set: theta_i = 1/sqrt(N) on each of
    the N ordered tuples of degree <= D, so ||theta|| = 1. Built from the powers
    of S = sum_j K_j (S^(.)d sums the degree-d product kernels), formed from
    the dense base Grams. Returns the inner solve at that point and its
    predictions at the query inputs."""
    D = ks.D
    weight = 1.0 / np.sqrt(sum(len(ks.indices)**d for d in range(D + 1)))
    S = sum(product_kernel_matrix(ks, (j,)) for j in ks.indices)
    K_eq = weight * sum(S**d / rho.rho_sq[d] for d in range(D + 1))
    state = solve_dense(K_eq, train.targets)
    S_cross = sum(product_kernel_cross(train.inputs, query_inputs, (j,)) for j in ks.indices)
    cross = weight * sum(S_cross**d / rho.rho_sq[d] for d in range(D + 1))
    return state, cross @ state.alpha


def check_equal_weight_model():
    """On a small instance, the helper agrees with an explicit unit-norm
    SparseTheta holding 1/sqrt(N) on every ordered tuple."""
    rng = np.random.default_rng(500)
    train = Dataset(inputs=rng.normal(size=(8, 2)), targets=rng.normal(size=8))
    query = rng.normal(size=(5, 2))
    D = 2
    ks = build_base_kernels(train, include_constant=True, D=D)
    rho = RhoSchedule(np.array([1.0, 2.0, 3.0])).scaled(10.0)
    tuples = [t for d in range(D + 1) for t in itertools.product(ks.indices, repeat=d)]
    theta = SparseTheta.from_dict({t: 1.0 / np.sqrt(len(tuples)) for t in tuples})
    assert abs(theta.norm() - 1.0) <= 1e-12

    state, preds = equal_weight_model(ks, rho, train, query)
    K_ref = assemble_combined_gram(theta, ks, rho).dense()
    preds_ref = predict(state, theta, train.inputs, query, rho)
    gram_err = np.linalg.norm(state.K_theta - K_ref) / np.linalg.norm(K_ref)
    pred_err = np.linalg.norm(preds - preds_ref) / np.linalg.norm(preds_ref)
    assert gram_err <= 1e-12, f"equal-weight Gram off by {gram_err:.2e}"
    assert pred_err <= 1e-12, f"equal-weight predictions off by {pred_err:.2e}"


def test_criterion_7_end_to_end_learning():
    """Noise-free sparse-monomial benchmark: the learned sparse kernel predicts
    with small error, and where the convergence guarantee is informative it
    beats the equal-weight point of the feasible set."""
    check_equal_weight_model()
    spec = SyntheticSpec(r=10, n_train=500, n_test=1000, n_terms=10, max_degree=3, seed=7)
    train_raw, test_raw, _truth = gen_synthetic(spec)
    train, params = standardize(train_raw)
    test = params.apply(test_raw)
    D = 3
    ks = build_base_kernels(train, include_constant=True, D=D)

    def fit(lam, T):
        rho = RhoSchedule.uniform(D).scaled(lam)
        cfg = RunConfig(algo="stoch", D=D, T=T, seed=7, lam=lam, include_constant=True,
                        synthetic=spec, out="unused")
        result = run(cfg, train, ks, rho)
        preds = predict(result.final, result.theta_avg, train.inputs, test.inputs, rho)
        eq_state, eq_preds = equal_weight_model(ks, rho, train, test.inputs)
        bound = result.records[0].C_value / np.sqrt(T)  # sqrt(B/T) with B = C0^2
        return (result.final.J_value, float(np.mean((preds - test.targets) ** 2)),
                eq_state.J_value, float(np.mean((eq_preds - test.targets) ** 2)), bound)

    # lam = 1e-5 with the default step: the absolute error threshold only. Here
    # C0 ~ 1.9e6, so sqrt(B/T) ~ 2.7e4 is far above J(0) = 0.5 and the guarantee
    # says nothing; the default step 1/(C0 sqrt(T)) keeps the iterate near the
    # origin (norm ~ 0.02), while the equal-weight point sits on the unit sphere
    # and the exact enumerated optimum beats it (test MSE ~ 2e-8 vs ~ 1e-6).
    # No comparison with it is asserted at this ridge strength.
    J_small, mse_small, J_small_eq, mse_small_eq, bound_small = fit(1e-5, 5000)
    # lam = 10: C0 ~ 1.90, so sqrt(B/T) ~ 0.043 at T = 2000, while
    # J(theta_eq) - J* >= 0.4553 - 0.3987 = 0.057 (J* from a converged projected
    # gradient solve over all 1464 ordered tuples). Criterion 5's bound therefore
    # puts the averaged iterate's expected objective below J(theta_eq). The bound
    # chose this ridge strength: where it is vacuous (lam = 0.1 or 0.01) the
    # learner's J loses to the equal-weight point.
    J_cmp, mse_cmp, J_cmp_eq, mse_cmp_eq, bound_cmp = fit(10.0, 2000)

    ok = mse_small <= 0.2 and J_cmp <= J_cmp_eq and mse_cmp <= mse_cmp_eq
    report(7, ok, f"lam=1e-5 T=5000: test MSE {mse_small:.5f} (<=0.2), J {J_small:.2e}; "
                  f"equal-weight point J {J_small_eq:.2e}, MSE {mse_small_eq:.2e} "
                  f"(bound {bound_small:.1e}, vacuous, not compared) | lam=10 T=2000: "
                  f"sqrt(B/T) {bound_cmp:.4f}, J {J_cmp:.4f} <= equal-weight {J_cmp_eq:.4f}, "
                  f"test MSE {mse_cmp:.4f} <= equal-weight {mse_cmp_eq:.4f}")
    assert mse_small <= 0.2, f"absolute threshold: {mse_small:.4f}"
    assert J_cmp <= J_cmp_eq, f"lam=10: learned J {J_cmp:.5f} vs equal-weight {J_cmp_eq:.5f}"
    assert mse_cmp <= mse_cmp_eq, (
        f"lam=10: learned test MSE {mse_cmp:.5f} vs equal-weight {mse_cmp_eq:.5f}"
    )


def test_criterion_8_structural_invariants():
    """Projection geometry, incremental Gram maintenance, running averaging,
    per-iteration feasibility, and byte-identical reruns."""
    # projection: idempotence and the variational characterization
    rng = np.random.default_rng(400)
    for _ in range(25):
        point = rng.normal(scale=1.5, size=4)
        # theta holds the positive part, the projection rescales it
        projected = np.clip(point, 0.0, None)
        project_pos_l2ball(projected)
        once = projected.copy()
        assert project_pos_l2ball(projected) == 1.0
        np.testing.assert_array_equal(projected, once)  # exact idempotence
        for _ in range(40):
            x = rng.uniform(0, 1, size=4)
            x /= max(np.linalg.norm(x), 1.0)
            assert np.dot(point - projected, x - projected) <= 1e-9

    # incremental combined Gram vs rebuild over a 50-step run, plus running
    # average vs dense accumulation and feasibility at every iterate
    data, ks, rho = random_instance(n=6, r=2, D=2, seed=401)
    state = OptimizerState(ks, rho)
    tuples = [(), (1,), (2,), (1, 2), (2, 2)]
    dense_sum = {idx: 0.0 for idx in tuples}
    steps = 50
    pick_rng = np.random.default_rng(403)
    for _ in range(steps):
        for idx in tuples:
            dense_sum[idx] += state.theta.value(idx)
        idx = tuples[int(pick_rng.integers(len(tuples)))]
        value = -float(pick_rng.uniform(0.0, 6.0))
        state.step(idx, value, eta=0.25)
        rebuilt = state.rebuild_combined_gram().dense()
        current = state.combined_gram()
        denom = max(np.linalg.norm(rebuilt), 1e-300)
        assert np.linalg.norm(current - rebuilt) / denom <= 1e-9
        assert state.theta.norm() <= 1 + 1e-12
    avg = state.average_theta()
    for idx in tuples:
        assert avg.value(idx) == pytest.approx(dense_sum[idx] / steps, abs=1e-10)

    # seed determinism: byte-identical records apart from wall time
    spec = SyntheticSpec(r=2, n_train=10, n_test=5, n_terms=1, max_degree=0, seed=5)
    data2, ks2, rho2 = random_instance(n=10, r=2, D=2, seed=404)
    cfg = RunConfig(algo="stoch", D=2, T=80, seed=5, include_constant=False, synthetic=spec)
    rows = []
    for _ in range(2):
        result = run(cfg, data2, ks2, rho2)
        rows.append(
            [
                (rec.iter, repr(rec.J_value), repr(rec.C_value), rec.support_size,
                 repr(rec.theta_norm))
                for rec in result.records
            ]
        )
    assert rows[0] == rows[1]
    report(8, True, "projection, incremental Gram, running average, feasibility, determinism")
