import numpy as np
import pytest
import scipy.optimize

from polymkl import (
    Dataset,
    GradSample,
    OptimizerState,
    RhoSchedule,
    RunConfig,
    SparseTheta,
    SyntheticSpec,
    build_base_kernels,
    default_step_size,
    project_pos_l2ball,
    run,
)
from polymkl import baselines, optimizer
from polymkl.dual import SupportGram, solve_alpha
from polymkl.gradient import degree_masses, importance_estimate, total_mass_C
from polymkl.sampler import SamplerWorkspace


def theta_from_vector(values):
    return SparseTheta.from_dict({(i + 1,): float(v) for i, v in enumerate(values)})


def vector_from_theta(theta, size):
    return np.array([theta.value((i + 1,)) for i in range(size)])


def projection_oracle_check(point, projected, tol=1e-9):
    """The defining variational inequality of a Euclidean projection onto a
    convex set: <point - p, x - p> <= 0 for every feasible x."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(0, 1, size=len(point))
        norm = np.linalg.norm(x)
        if norm > 1:
            x /= norm
        assert np.dot(point - projected, x - projected) <= tol
    # feasibility of the projection itself
    assert np.all(projected >= -tol)
    assert np.linalg.norm(projected) <= 1 + 1e-12


class TestProjection:
    def test_interior_point_unchanged(self):
        theta = theta_from_vector([0.3, 0.4])
        project_pos_l2ball(theta)
        np.testing.assert_array_equal(vector_from_theta(theta, 2), [0.3, 0.4])

    def test_pure_scaling(self):
        theta = theta_from_vector([3.0, 4.0])
        project_pos_l2ball(theta)
        np.testing.assert_allclose(vector_from_theta(theta, 2), [0.6, 0.8], rtol=1e-15)

    def test_matches_constrained_solver(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            point = rng.normal(scale=2.0, size=4)
            # set_raw evicts the negative coordinates, the projection rescales
            theta = theta_from_vector(np.abs(point))
            for i, v in enumerate(point):
                theta.set_raw((i + 1,), float(v))
            project_pos_l2ball(theta)
            ours = vector_from_theta(theta, 4)
            projection_oracle_check(point, ours)
            res = scipy.optimize.minimize(
                lambda x: 0.5 * np.sum((x - point) ** 2),
                np.clip(point, 0, None) / max(np.linalg.norm(point), 1.0),
                bounds=[(0, None)] * 4,
                constraints=[{"type": "ineq", "fun": lambda x: 1 - x @ x}],
                method="SLSQP",
                options={"ftol": 1e-16, "maxiter": 500},
            )
            # ours can never be worse than the iterative solver's point
            assert 0.5 * np.sum((ours - point) ** 2) <= res.fun + 1e-9

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta = theta_from_vector(rng.uniform(0, 2, size=3))
            project_pos_l2ball(theta)
            once = (theta.scale, dict(theta.raw))
            project_pos_l2ball(theta)
            assert (theta.scale, dict(theta.raw)) == once


class TestSparseTheta:
    def test_norm_tracks_mutations(self):
        theta = SparseTheta()
        rng = np.random.default_rng(3)
        for _ in range(500):
            idx = (int(rng.integers(1, 6)),)
            theta.set_raw(idx, float(rng.uniform(0.0, 1.0)))
            if rng.random() < 0.3:
                theta.scale *= 0.9
        direct = theta.scale**2 * sum(v * v for v in theta.raw.values())
        assert theta.norm_sq == pytest.approx(direct, rel=1e-10)

    def test_zero_evicted(self):
        theta = SparseTheta.from_dict({(1,): 0.5})
        theta.set_raw((1,), 0.0)
        assert theta.support_size == 0
        assert theta.value((1,)) == 0.0

    def test_fold_scale_preserves_values(self):
        theta = SparseTheta(0.25, {(1,): 2.0, (2, 2): 4.0})
        before = theta.as_dict()
        theta.fold_scale()
        assert theta.scale == 1.0
        assert theta.as_dict() == before

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_raw_that_is_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            SparseTheta(1.0, {(1,): bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_set_raw_rejects_a_non_finite_raw(self, bad):
        theta = SparseTheta.from_dict({(1,): 0.5})
        with pytest.raises(ValueError, match="non-finite"):
            theta.set_raw((1,), bad)
        assert theta.raw == {(1,): 0.5}

    def test_fold_scale_evicts_underflow(self):
        theta = SparseTheta(1e-30, {(1,): 1e-300, (2,): 1.0})
        theta.fold_scale()
        assert theta.raw == {(2,): 1e-30}
        assert theta.norm_sq == pytest.approx(1e-60)
        theta.copy()  # the strictly-positive rule holds again


def make_run_setup(n=5, r=2, D=2, seed=0, include_constant=False):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=include_constant, D=D)
    rho = RhoSchedule.uniform(D)
    return data, ks, rho


class TestStep:
    def test_zero_value_only_counters_move(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.theta.set_raw((1,), 0.5)
        state.resync_weights()
        before = state.theta.as_dict()
        cached = state.support_gram()
        state.step(GradSample(index=(2,), value=0.0, mass=0.0), eta=0.1)
        assert state.theta.as_dict() == before
        assert state.iter == 1
        after = state.support_gram()
        np.testing.assert_array_equal(after.columns, cached.columns)
        np.testing.assert_array_equal(after.weights, cached.weights)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -0.1])
    def test_step_size_not_positive_and_finite(self, eta):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        with pytest.raises(ValueError, match="step size"):
            state.step(GradSample(index=(1,), value=-1.0, mass=1.0), eta=eta)
        assert state.theta.raw == {} and state.iter == 0

    @pytest.mark.parametrize("value", [1e-300, 3.4e-29, 1.0])
    def test_positive_sample_raises(self, value):
        # every gradient component is <= 0, so a step can only raise theta
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step(GradSample(index=(1,), value=-1.0, mass=1.0), eta=0.1)
        before = state.theta.as_dict()
        with pytest.raises(ValueError, match="positive gradient sample"):
            state.step(GradSample(index=(1,), value=value, mass=value), eta=0.1)
        assert state.theta.as_dict() == before and state.iter == 1

    def test_non_finite_sample_raises(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        with pytest.raises(FloatingPointError, match="non-finite gradient sample"):
            state.step(GradSample(index=(1,), value=float("nan"), mass=1.0), eta=0.1)

    def test_fresh_state_single_coordinate(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        c = 3.0
        eta = 0.05
        state.step(GradSample(index=(1, 2), value=-c, mass=c), eta=eta)
        assert state.theta.value((1, 2)) == pytest.approx(eta * c, rel=1e-15)
        assert state.theta.support_size == 1

    def test_projection_engages_on_large_step(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step(GradSample(index=(1,), value=-50.0, mass=50.0), eta=1.0)
        assert state.theta.norm() == pytest.approx(1.0, abs=1e-12)

    def test_incremental_gram_matches_rebuild_over_random_steps(self):
        data, ks, rho = make_run_setup(n=5, r=2, D=2, seed=4)
        state = OptimizerState(ks, rho)
        rng = np.random.default_rng(6)
        tuples = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        for _ in range(50):
            idx = tuples[int(rng.integers(len(tuples)))]
            value = -float(rng.uniform(0.1, 5.0))
            state.step(GradSample(index=idx, value=value, mass=-value), eta=0.2)
            rebuilt = state.rebuild_combined_gram().dense()
            current = state.theta.scale * state.combined_unscaled
            denom = max(np.linalg.norm(rebuilt), 1e-300)
            assert np.linalg.norm(current - rebuilt) / denom <= 1e-9
        state.check_combined_gram()

    def test_check_catches_a_column_shared_by_step_and_rebuild(self, monkeypatch):
        # the wrong column enters both the update and the rebuild, so only the
        # kernel entries taken from the inputs can tell
        data, ks, rho = make_run_setup(n=6, r=2, D=2, seed=7)
        state = OptimizerState(ks, rho)
        swap = {1: 2, 2: 1}
        columns = type(ks).product_columns
        monkeypatch.setattr(
            ks, "product_columns",
            lambda tuples: columns(ks, [tuple(swap.get(j, j) for j in t) for t in tuples]),
        )
        state.step(GradSample(index=(1, 1), value=-2.0, mass=2.0), eta=0.1)
        state.step(GradSample(index=(2,), value=-2.0, mass=2.0), eta=0.1)
        with pytest.raises(FloatingPointError, match="its kernel"):
            state.check_combined_gram()

    def test_check_passes_on_a_zero_column(self):
        data, ks, rho = make_run_setup(n=6, r=2, D=2, seed=8)
        inputs = data.inputs.copy()
        inputs[:, 1] = 0.0
        ks = build_base_kernels(Dataset(inputs=inputs, targets=data.targets), False, 2)
        state = OptimizerState(ks, rho)
        state.step(GradSample(index=(1,), value=-2.0, mass=2.0), eta=0.1)
        state.step(GradSample(index=(1, 2), value=-2.0, mass=2.0), eta=0.1)
        assert state.last_index == (1, 2)
        state.check_combined_gram()

    @staticmethod
    def state_with_column(corrupt, inputs=None):
        """A state whose last step is on (1, 2), with `corrupt(z, p)` applied
        to that monomial's column wherever it is built, so that the cache, its
        Gram and the rebuild all agree and only the column check can tell.
        p is the row of the kernel's largest diagonal entry."""
        data, ks, rho = make_run_setup(n=8, r=2, D=2, seed=11)
        if inputs is not None:
            data = Dataset(inputs=inputs, targets=data.targets)
            ks = build_base_kernels(data, False, 2)
        p = int(np.argmax((data.inputs[:, 0] * data.inputs[:, 1]) ** 2))
        columns = type(ks).product_columns

        def patched(tuples):
            out = columns(ks, tuples)
            for c, idx in enumerate(tuples):
                if optimizer.monomial_key(idx) == (1, 2):
                    corrupt(out[:, c], p)
            return out

        ks.product_columns = patched
        state = OptimizerState(ks, rho)
        state.step(GradSample(index=(1,), value=-2.0, mass=2.0), eta=0.1)
        state.step(GradSample(index=(1, 2), value=-2.0, mass=2.0), eta=0.1)
        assert state.last_index == (1, 2)
        return state

    @staticmethod
    def largest_other(z, p):
        others = np.abs(z).copy()
        others[p] = 0.0
        return int(np.argmax(others))

    def test_check_catches_one_flipped_sign_by_the_row(self):
        # z_t^2 is unchanged, so the diagonal agrees
        def flip(z, p):
            z[self.largest_other(z, p)] *= -1.0

        state = self.state_with_column(flip)
        with pytest.raises(FloatingPointError, match="kernel's row"):
            state.check_combined_gram()

    def test_check_catches_one_scaled_entry_by_the_diagonal(self):
        def scale(z, p):
            t = self.largest_other(z, p)
            # the error 2e-7 z_t^2 is ten times the bound 1e-9 z_p^2 or more
            assert 2e-7 * z[t] ** 2 > 1e-8 * z[p] ** 2
            z[t] *= 1.0 + 1e-7

        state = self.state_with_column(scale)
        with pytest.raises(FloatingPointError, match="kernel's diagonal"):
            state.check_combined_gram()

    def test_check_catches_a_wrong_entry_at_row_p(self):
        # flipping z_p keeps the diagonal and K_pp, and flips the rest of row p
        def flip(z, p):
            z[p] *= -1.0

        state = self.state_with_column(flip)
        with pytest.raises(FloatingPointError, match="kernel's row"):
            state.check_combined_gram()

    def test_check_skips_the_constant_kernel(self):
        # (0, 2) is the monomial (2,): one column, and the constant factor 1
        data, ks, rho = make_run_setup(n=8, r=2, D=2, seed=11, include_constant=True)
        state = OptimizerState(ks, rho)
        state.step(GradSample(index=(2,), value=-2.0, mass=2.0), eta=0.1)
        state.step(GradSample(index=(0, 2), value=-2.0, mass=2.0), eta=0.1)
        assert state.last_index == (0, 2) and state.monomials == [(2,)]
        state.check_combined_gram()

    def test_check_catches_a_zero_column_of_a_nonzero_kernel(self):
        def zero(z, p):
            z[:] = 0.0

        state = self.state_with_column(zero)
        with pytest.raises(FloatingPointError, match="kernel's diagonal"):
            state.check_combined_gram()

    def test_check_catches_a_nonzero_column_of_a_zero_kernel(self):
        # 1e-170 squares to zero, so only the explicit zero test can tell
        inputs = np.random.default_rng(12).normal(size=(8, 2))
        inputs[:, 1] = 0.0

        def tiny(z, p):
            z[:] = 1e-170

        state = self.state_with_column(tiny, inputs=inputs)
        with pytest.raises(FloatingPointError, match="kernel is zero"):
            state.check_combined_gram()


    def cached_state(self):
        data, ks, rho = make_run_setup(n=6, r=2, D=2, seed=9)
        state = OptimizerState(ks, rho)
        for idx in [(1,), (2, 1), (1, 2), (2,)]:
            state.step(GradSample(index=idx, value=-2.0, mass=2.0), eta=0.1)
        state.check_combined_gram()
        return state

    def test_check_catches_a_corrupt_weight(self):
        state = self.cached_state()
        state._w[1] *= 1.5
        with pytest.raises(FloatingPointError, match="weights drifted"):
            state.check_combined_gram()

    def test_check_catches_a_tuple_in_the_wrong_slot(self):
        # weights re-summed through the wrong mapping agree with the cache
        state = self.cached_state()
        assert state.monomials == [(1,), (1, 2), (2,)]
        state._slot_of_tuple[(1,)] = 2
        state.resync_weights()
        with pytest.raises(FloatingPointError, match="own columns"):
            state.check_combined_gram()

    def test_check_catches_a_wrong_column_other_than_the_last(self):
        # G is rebuilt from the wrong column, so only the probe can tell
        state = self.cached_state()
        assert state.last_index == (2,)
        state._C[:, 0] *= 1.01
        s = state.num_columns
        state._G[:s, :s] = state._C[:, :s].T @ state._C[:, :s]
        with pytest.raises(FloatingPointError, match="own columns"):
            state.check_combined_gram()

    def test_check_catches_a_corrupt_column_gram_entry(self):
        state = self.cached_state()
        state._G[0, 1] += 1e-3 * abs(state._G[0, 1]) + 1e-3
        with pytest.raises(FloatingPointError, match="column Gram"):
            state.check_combined_gram()


class TestLazyAverage:
    def test_constant_iterates(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.theta.set_raw((1,), 0.3)
        for _ in range(10):
            state.step(GradSample(index=(2,), value=0.0, mass=0.0), eta=0.1)
        avg = state.average_theta()
        assert avg.value((1,)) == pytest.approx(0.3, rel=1e-12)

    def test_two_iterations(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step(GradSample(index=(1,), value=-4.0, mass=4.0), eta=0.1)  # theta -> 0.4
        state.step(GradSample(index=(2,), value=0.0, mass=0.0), eta=0.1)
        avg = state.average_theta()
        # average of theta0 = 0 and theta1 = 0.4 e_1
        assert avg.value((1,)) == pytest.approx(0.2, rel=1e-12)

    def test_matches_dense_accumulation(self):
        data, ks, rho = make_run_setup(n=5, r=2, D=1, seed=7)
        state = OptimizerState(ks, rho)
        rng = np.random.default_rng(9)
        tuples = [(), (1,), (2,)]
        dense_sum = {idx: 0.0 for idx in tuples}
        count = 0
        for _ in range(100):
            for idx in tuples:
                dense_sum[idx] += state.theta.value(idx)
            count += 1
            pick = tuples[int(rng.integers(len(tuples)))]
            value = -float(rng.uniform(0.0, 8.0))
            state.step(GradSample(index=pick, value=value, mass=-value), eta=0.3)
        avg = state.average_theta()
        for idx in tuples:
            assert avg.value(idx) == pytest.approx(dense_sum[idx] / count, abs=1e-10)


class TestDefaultStepSize:
    def test_unit_case(self):
        assert default_step_size(1.0, 1) == 1.0

    def test_closed_form(self):
        assert default_step_size(4.0, 100) == pytest.approx(0.05, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            default_step_size(0.0, 10)
        with pytest.raises(ValueError):
            default_step_size(1.0, 0)


class TestRun:
    def config(self, T, seed=0, **kw):
        spec = SyntheticSpec(r=2, n_train=5, n_test=5, n_terms=1, max_degree=0, seed=seed)
        return RunConfig(
            algo="stoch", D=2, T=T, seed=seed, include_constant=False, synthetic=spec, **kw
        )

    @pytest.mark.parametrize("module", [optimizer, baselines])
    def test_returned_duals_do_not_alias_the_loop_buffer(self, module, monkeypatch):
        # every solve takes a support form: inside the loop the state's own,
        # and after it, for the averaged and the last iterate, forms assembled
        # afresh that share no array with the loop's. Both algorithms run the
        # one loop of `optimizer.run`, so its solve is the one recorded
        grams = []

        def recording_solve(K_theta, y):
            grams.append(K_theta)
            return solve_alpha(K_theta, y)

        monkeypatch.setattr(optimizer, "solve_alpha", recording_solve)
        data, ks, rho = make_run_setup(seed=13)
        algo = run if module is optimizer else baselines.run_ucd
        result = algo(self.config(T=20, checkpoint_every=5), data, ks, rho)
        loop, returned = grams[:-2], grams[-2:]
        assert len(loop) == 20
        assert all(isinstance(K, SupportGram) for K in grams)
        assert result.final.K_theta is returned[0]
        assert result.dual_last.K_theta is returned[1]

        def arrays(forms):
            return [a for K in forms for a in (K.columns, K.gram, K.weights)]

        assert not any(np.shares_memory(a, b) for a in arrays(returned) for b in arrays(loop))

    def test_single_iteration_average_is_zero(self):
        data, ks, rho = make_run_setup(seed=10)
        result = run(self.config(T=1), data, ks, rho)
        assert result.theta_avg.support_size == 0
        y = data.targets
        assert result.final.J_value == pytest.approx(y @ y / (2 * len(y)), rel=1e-12)

    def test_zero_targets_converges_immediately(self):
        data, ks, rho = make_run_setup(seed=11)
        flat = Dataset(inputs=data.inputs, targets=np.zeros(data.n))
        result = run(self.config(T=50), flat, ks, rho)
        assert result.converged
        assert len(result.records) == 1
        assert result.final.J_value == 0.0

    def test_deterministic_records(self):
        data, ks, rho = make_run_setup(seed=12)
        a = run(self.config(T=60, seed=3), data, ks, rho)
        b = run(self.config(T=60, seed=3), data, ks, rho)
        for ra, rb in zip(a.records, b.records):
            assert (ra.iter, ra.J_value, ra.C_value, ra.support_size, ra.theta_norm) == (
                rb.iter,
                rb.J_value,
                rb.C_value,
                rb.support_size,
                rb.theta_norm,
            )

    def test_feasible_every_iteration_and_support_growth(self):
        data, ks, rho = make_run_setup(seed=13)
        result = run(self.config(T=100, seed=4), data, ks, rho)
        for rec in result.records:
            assert rec.theta_norm <= 1 + 1e-12
            assert rec.support_size <= rec.iter  # at most one new coordinate per step
        assert result.theta_last.norm() <= 1 + 1e-12

    def test_objective_decreases_on_average(self):
        data, ks, rho = make_run_setup(n=10, seed=14)
        result = run(self.config(T=300, seed=5), data, ks, rho)
        first = result.records[0].J_value
        assert result.final.J_value < first

    def test_step_override_respected(self):
        data, ks, rho = make_run_setup(seed=15)
        result = run(self.config(T=30, seed=6, step=0.01), data, ks, rho)
        # theta after one step is exactly eta * C0 on one coordinate
        rec0 = result.records[0]
        rec1 = result.records[1]
        assert rec1.theta_norm == pytest.approx(0.01 * rec0.C_value, rel=1e-12)

    def test_wall_times_nondecreasing(self):
        data, ks, rho = make_run_setup(seed=16)
        result = run(self.config(T=40, seed=7), data, ks, rho)
        times = [rec.wall_time_s for rec in result.records]
        assert all(b >= a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("algo", [run, baselines.run_ucd])
    def test_mass_budget_flag_warns_without_failing(self, algo):
        data, ks, rho = make_run_setup(seed=19)
        config = self.config(T=10, seed=8, mass_budget_factor=1e-9)
        with pytest.warns(RuntimeWarning, match="gradient mass"):
            result = algo(config, data, ks, rho)
        assert result.mass_exceeded_budget
        assert len(result.records) == 10  # flagged, not aborted

    def test_mass_budget_not_flagged_normally(self):
        data, ks, rho = make_run_setup(seed=20)
        result = run(self.config(T=50, seed=9), data, ks, rho)
        assert not result.mass_exceeded_budget

    def test_mean_objective_nonincreasing_in_horizon(self):
        # statistical sanity: averaged-iterate objective does not get worse as
        # the horizon grows, across seeds, up to 3 standard errors
        data, ks, rho = make_run_setup(n=10, r=2, D=2, seed=17)
        horizons = [50, 100, 200]
        means, ses = [], []
        for T in horizons:
            values = [
                run(self.config(T=T, seed=s), data, ks, rho).final.J_value for s in range(12)
            ]
            means.append(np.mean(values))
            ses.append(np.std(values) / np.sqrt(len(values)))
        for i in range(len(horizons) - 1):
            slack = 3 * np.hypot(ses[i], ses[i + 1])
            assert means[i + 1] <= means[i] + slack


class TestStepAverageAgainstManualLoop:
    def test_manual_loop_reproduces_run(self):
        # the run() loop equals a hand-written solve/sample/step loop seeded
        # identically, including the averaging
        data, ks, rho = make_run_setup(n=6, r=2, D=2, seed=18)
        T = 25
        config = RunConfig(
            algo="stoch",
            D=2,
            T=T,
            seed=9,
            include_constant=False,
            synthetic=SyntheticSpec(r=2, n_train=5, n_test=5, n_terms=1, max_degree=0, seed=9),
        )
        result = run(config, data, ks, rho)

        rng = np.random.default_rng([9, 1])
        state = OptimizerState(ks, rho)
        ws = SamplerWorkspace(ks, rho, rng)
        y = data.targets
        eta = None
        thetas = []
        for _ in range(T):
            thetas.append(state.theta.as_dict())
            dual = solve_alpha(state.combined_gram(), y)
            masses = degree_masses(dual.alpha, ks, rho)
            if eta is None:
                C0 = total_mass_C(masses)
                eta = default_step_size(C0 * C0, T)
            idx = ws.draw(dual.alpha, masses)
            state.step(importance_estimate(idx, masses), eta)
        keys = {k for th in thetas for k in th}
        for key in keys:
            dense_avg = sum(th.get(key, 0.0) for th in thetas) / T
            assert result.theta_avg.value(key) == pytest.approx(dense_avg, abs=1e-10)
