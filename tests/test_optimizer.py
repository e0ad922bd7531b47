import math

import numpy as np
import pytest
import scipy.optimize

from polymkl import (
    Dataset,
    KernelError,
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
from polymkl.baselines import solve_dense
from polymkl.dual import SupportGram, solve_alpha
from polymkl.gradient import degree_masses, total_mass_C
from polymkl.sampler import SamplerWorkspace


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
        theta = np.array([0.3, 0.4])
        assert project_pos_l2ball(theta) == 1.0
        np.testing.assert_array_equal(theta, [0.3, 0.4])

    def test_pure_scaling(self):
        theta = np.array([3.0, 4.0])
        assert project_pos_l2ball(theta) == pytest.approx(0.2, rel=1e-15)
        np.testing.assert_allclose(theta, [0.6, 0.8], rtol=1e-15)

    def test_matches_constrained_solver(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            point = rng.normal(scale=2.0, size=4)
            # theta holds the positive part, the projection rescales it
            ours = np.clip(point, 0.0, None)
            project_pos_l2ball(ours)
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
            theta = rng.uniform(0, 2, size=3)
            project_pos_l2ball(theta)
            once = theta.copy()
            assert project_pos_l2ball(theta) == 1.0
            np.testing.assert_array_equal(theta, once)


class TestSparseTheta:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_a_raw_that_is_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            SparseTheta({(1,): bad})


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
        state.step((1,), -5.0, eta=0.1)
        before = state.theta.as_dict()
        cached = state.support_gram()
        state.step((2,), 0.0, eta=0.1)
        assert state.theta.as_dict() == before
        assert state.iter == 2
        after = state.support_gram()
        np.testing.assert_array_equal(after.columns, cached.columns)
        np.testing.assert_array_equal(after.weights, cached.weights)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -0.1])
    def test_step_size_not_positive_and_finite(self, eta):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        with pytest.raises(ValueError, match="step size"):
            state.step((1,), -1.0, eta=eta)
        assert state.theta.as_dict() == {} and state.iter == 0

    @pytest.mark.parametrize("value", [1e-300, 3.4e-29, 1.0])
    def test_positive_sample_raises(self, value):
        # every gradient component is <= 0, so a step can only raise theta
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step((1,), -1.0, eta=0.1)
        before = state.theta.as_dict()
        with pytest.raises(ValueError, match="positive gradient sample"):
            state.step((1,), value, eta=0.1)
        assert state.theta.as_dict() == before and state.iter == 1

    def test_non_finite_sample_raises(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        with pytest.raises(FloatingPointError, match="non-finite gradient sample"):
            state.step((1,), float("nan"), eta=0.1)

    def test_unknown_base_index_raises(self):
        # without the constant kernel, (0, 2) names an unknown base kernel,
        # though its monomial (2,) is known once (2,) has been stepped on
        data, ks, rho = make_run_setup()
        fresh, cached = OptimizerState(ks, rho), OptimizerState(ks, rho)
        cached.step((2,), -1.0, eta=0.1)
        for state, raw in [(fresh, {}), (cached, {(2,): pytest.approx(0.1)})]:
            with pytest.raises(KernelError, match="index 0"):
                state.step((0, 2), -1.0, eta=0.1)
            assert state.theta.as_dict() == raw

    def test_fresh_state_single_coordinate(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        c = 3.0
        eta = 0.05
        state.step((1, 2), -c, eta=eta)
        assert state.theta.value((1, 2)) == pytest.approx(eta * c, rel=1e-15)
        assert state.theta.support_size == 1

    def test_projection_engages_on_large_step(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step((1,), -50.0, eta=1.0)
        assert state.theta.norm() == pytest.approx(1.0, abs=1e-12)

    def test_step_whose_square_overflows_keeps_the_other_coordinates(self):
        # 1e200 squares to inf: the projection must take the norm of the
        # weights scaled by the largest instead of dividing by sqrt(inf) = inf,
        # which would send every weight to 0
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step((1,), -0.5, eta=1.0)
        state.step((2,), -1e200, eta=1.0)
        assert set(state.theta.as_dict()) == {(1,), (2,)}
        assert state.theta.value((2,)) == pytest.approx(1.0, rel=1e-15)
        assert state.theta.value((1,)) == pytest.approx(5e-201, rel=1e-15)
        assert state.theta.norm() == pytest.approx(1.0, rel=1e-15)
        assert state.norm() == pytest.approx(1.0, rel=1e-15)
        state.check_combined_gram()

    def test_step_whose_weight_overflows_raises(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step((1,), -0.5, eta=1.0)
        with pytest.raises(FloatingPointError, match="overflows"):
            state.step((2,), -1e300, eta=1e10)
        assert state.theta.as_dict() == {(1,): 0.5}

    def test_underflowed_weight_leaves_theta_and_keeps_its_column(self):
        # the projection after the 1e300 step multiplies by 1e-300, so the
        # weight 1e-30 of (1,) underflows to 0; its column stays at weight 0,
        # and a later step raises the same entry again
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step((1,), -1e-30, eta=1.0)
        state.step((2,), -1e300, eta=1.0)
        assert state.theta.as_dict() == {(2,): 1.0}
        assert state.support_size == 1
        assert state.cache.monomials == [(1,), (2,)]
        np.testing.assert_array_equal(state.support_gram().weights, [0.0, 1.0])
        state.check_combined_gram()
        average = state.average_theta()
        assert average.value((1,)) == 1e-30 / 2 and average.value((2,)) == 0.0
        state.step((1,), -0.5, eta=1.0)
        assert set(state.theta.as_dict()) == {(1,), (2,)}
        assert state.cache.monomials == [(1,), (2,)]
        state.check_combined_gram()

    def test_norm_tracks_steps(self):
        # the squared norm each step computes for the projection is the one
        # the records read; it must agree with the weights as they stand
        data, ks, rho = make_run_setup(D=2)
        state = OptimizerState(ks, rho)
        rng = np.random.default_rng(3)
        tuples = [(), (1,), (2,), (1, 2), (2, 2)]
        for _ in range(500):
            idx = tuples[int(rng.integers(len(tuples)))]
            value = -float(rng.uniform(0.0, 1.0))
            state.step(idx, value, eta=0.3)
            direct = np.sqrt(np.sum(np.square(list(state.theta.as_dict().values()))))
            assert state.norm() == pytest.approx(direct, rel=1e-14)
            assert state.theta.norm() == pytest.approx(direct, rel=1e-14)

    def subnormal_state(self):
        # every weight is subnormal, where 1e-9 of the largest underflows to
        # 0 and one rounding of the incremental sum is a whole ulp
        data, ks, _ = make_run_setup(D=3)
        state = OptimizerState(ks, RhoSchedule(np.array([1.0, 1.0, 1.0, 1.5e-2])))
        for _ in range(2):
            state.step((1, 1, 1), -5e-324, eta=1.0)
        assert 0.0 < state.support_gram().weights[0] < 1e-320
        return state

    def test_subnormal_weights_pass_the_check(self):
        self.subnormal_state().check_combined_gram()

    def test_check_catches_a_doubled_inv_rho_sq_at_subnormal_weights(self):
        # the probe's norms underflow to 0 at these weights, so only the exact
        # comparison with 1 / rho_|i|^2 can tell
        state = self.subnormal_state()
        state._inv_rho_sq[0] *= 2.0
        with pytest.raises(FloatingPointError, match="1/rho"):
            state.check_combined_gram()

    def test_check_catches_a_wrong_slot_at_subnormal_weights(self):
        state = self.subnormal_state()
        state.step((2,), -5e-324, eta=1.0)
        state.check_combined_gram()
        state._slot[1] = 0
        with pytest.raises(FloatingPointError, match="slot"):
            state.check_combined_gram()

    def test_check_catches_a_wrong_column_at_subnormal_weights(self):
        # G is re-formed from the wrong column, which is not the last updated
        # one, and every product through a weight underflows, so only the
        # probe through the columns alone can tell
        data, ks, _ = make_run_setup(n=8, r=3, D=3, include_constant=True)
        state = OptimizerState(ks, RhoSchedule(np.array([1.0, 1.0, 1.0, 1.5e-2])))
        for idx in [(1, 1, 1), (1, 1, 1), (2,), (1, 1, 1)]:
            state.step(idx, -5e-324, eta=1.0)
        state.check_combined_gram()
        cache = state.cache
        s = cache.num_columns
        cache._C[:, cache._slot_of_key[(2,)]] *= 1.5
        cache._G[:s, :s] = cache._C[:, :s].T @ cache._C[:, :s]
        with pytest.raises(FloatingPointError, match=r"column of monomial \(2,\)"):
            state.check_combined_gram()

    def test_incremental_gram_matches_rebuild_over_random_steps(self):
        data, ks, rho = make_run_setup(n=5, r=2, D=2, seed=4)
        state = OptimizerState(ks, rho)
        rng = np.random.default_rng(6)
        tuples = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        for _ in range(50):
            idx = tuples[int(rng.integers(len(tuples)))]
            value = -float(rng.uniform(0.1, 5.0))
            state.step(idx, value, eta=0.2)
            rebuilt = state.rebuild_combined_gram().dense()
            current = state.combined_gram()
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
        state.step((1, 1), -2.0, eta=0.1)
        state.step((2,), -2.0, eta=0.1)
        with pytest.raises(FloatingPointError, match="its kernel"):
            state.check_combined_gram()

    def test_check_passes_on_a_zero_column(self):
        data, ks, rho = make_run_setup(n=6, r=2, D=2, seed=8)
        inputs = data.inputs.copy()
        inputs[:, 1] = 0.0
        ks = build_base_kernels(Dataset(inputs=inputs, targets=data.targets), False, 2)
        state = OptimizerState(ks, rho)
        state.step((1,), -2.0, eta=0.1)
        state.step((1, 2), -2.0, eta=0.1)
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
        state.step((1,), -2.0, eta=0.1)
        state.step((1, 2), -2.0, eta=0.1)
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
        state.step((2,), -2.0, eta=0.1)
        state.step((0, 2), -2.0, eta=0.1)
        assert state.last_index == (0, 2) and state.cache.monomials == [(2,)]
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
            state.step(idx, -2.0, eta=0.1)
        state.check_combined_gram()
        return state

    def test_check_catches_a_corrupt_weight(self):
        # a wrong 1/rho^2 of one tuple enters every weight summed from it;
        # the exact comparison with 1 / rho_|i|^2 sees it
        state = self.cached_state()
        state._inv_rho_sq[1] *= 1.5
        with pytest.raises(FloatingPointError, match=r"1/rho\^2 is not"):
            state.check_combined_gram()

    def test_check_catches_a_tuple_in_the_wrong_slot(self):
        # the weights summed through the state's slots land on the wrong
        # columns, which the cache's own check cannot see; the exact slot
        # comparison does
        state = self.cached_state()
        assert state.cache.monomials == [(1,), (1, 2), (2,)]
        np.testing.assert_array_equal(state._slot[:4], [0, 1, 1, 2])
        state._slot[0] = 2
        state.cache.check()
        with pytest.raises(FloatingPointError, match="slot is not its monomial's"):
            state.check_combined_gram()

    def test_check_catches_a_wrong_column_other_than_the_last(self):
        # G is rebuilt from the wrong column, so only the column probe can tell
        state = self.cached_state()
        assert state.last_index == (2,)
        state.cache._C[:, 0] *= 1.01
        s = state.cache.num_columns
        state.cache._G[:s, :s] = state.cache._C[:, :s].T @ state.cache._C[:, :s]
        with pytest.raises(FloatingPointError, match=r"column of monomial \(1,\)"):
            state.check_combined_gram()

    def test_check_catches_a_corrupt_column_gram_entry(self):
        state = self.cached_state()
        state.cache._G[0, 1] += 1e-3 * abs(state.cache._G[0, 1]) + 1e-3
        with pytest.raises(FloatingPointError, match="column Gram"):
            state.check_combined_gram()

    def test_check_catches_a_gram_one_ulp_from_symmetric(self):
        # the solve reads G transposed, so one entry one ulp off its mirror
        # fails the check, far inside the drift bound
        state = self.cached_state()
        state.cache._G[0, 1] = np.nextafter(state.cache._G[0, 1], np.inf)
        with pytest.raises(FloatingPointError, match="not exactly symmetric"):
            state.check_combined_gram()

    def test_check_catches_a_symmetric_corrupt_column_gram_entry(self):
        state = self.cached_state()
        state.cache._G[0, 1] += 1e-3 * abs(state.cache._G[0, 1]) + 1e-3
        state.cache._G[1, 0] = state.cache._G[0, 1]
        with pytest.raises(FloatingPointError, match="disagrees with C'C"):
            state.check_combined_gram()


class TestLazyAverage:
    def test_constant_iterates(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step((1,), -3.0, eta=0.1)  # theta -> 0.3
        for _ in range(10):
            state.step((2,), 0.0, eta=0.1)
        # the zero iterate, then ten at 0.3
        avg = state.average_theta()
        assert avg.value((1,)) == pytest.approx(3.0 / 11, rel=1e-12)
        state.mark_tail_iterates(89)
        assert state.average_theta().value((1,)) == pytest.approx(0.297, rel=1e-12)

    def test_two_iterations(self):
        data, ks, rho = make_run_setup()
        state = OptimizerState(ks, rho)
        state.step((1,), -4.0, eta=0.1)  # theta -> 0.4
        state.step((2,), 0.0, eta=0.1)
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
            state.step(pick, value, eta=0.3)
        avg = state.average_theta()
        for idx in tuples:
            assert avg.value(idx) == pytest.approx(dense_sum[idx] / count, abs=1e-10)


class TestDefaultStepSize:
    def test_unit_case(self):
        assert default_step_size(1.0, 1) == 1.0

    def test_closed_form(self):
        assert default_step_size(2.0, 100) == pytest.approx(0.05, rel=1e-15)
        # where C0^2 T is finite and nonzero, bit for bit the square-root form
        for C0, T in [(0.3, 7), (2.5e3, 1000), (1.9e6, 5000)]:
            assert default_step_size(C0, T) == 1.0 / math.sqrt(C0 * C0 * T)

    @pytest.mark.parametrize("C0", [1e200, 1e-200])
    def test_squared_mass_out_of_range_keeps_the_same_step(self, C0):
        # C0^2 T overflows at 1e200 and underflows at 1e-200
        T = 100
        assert not 0.0 < C0 * C0 * T < math.inf
        eta = default_step_size(C0, T)
        assert 0.0 < eta < math.inf
        assert eta == pytest.approx(1.0 / (C0 * 10.0), rel=1e-15)

    def test_invalid_inputs(self):
        for C0, T in [(0.0, 10), (math.nan, 10), (math.inf, 10), (-1.0, 10), (1.0, 0)]:
            with pytest.raises(ValueError):
                default_step_size(C0, T)


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
        draws = optimizer.proportional_draws if module is optimizer else baselines.uniform_draws
        result = run(self.config(T=20, checkpoint_every=5), data, ks, rho, draws=draws)
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

    @pytest.mark.parametrize("draws", [optimizer.proportional_draws, baselines.uniform_draws])
    def test_mass_budget_flag_warns_without_failing(self, draws, monkeypatch):
        data, ks, rho = make_run_setup(seed=19)
        monkeypatch.setattr(optimizer, "MASS_BUDGET_FACTOR", 1e-9)
        config = self.config(T=10, seed=8)
        with pytest.warns(RuntimeWarning, match="gradient mass"):
            result = run(config, data, ks, rho, draws=draws)
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
            dual = solve_dense(state.combined_gram(), y)
            masses = degree_masses(dual.alpha, ks, rho)
            if eta is None:
                C0 = total_mass_C(masses)
                eta = default_step_size(C0, T)
            idx = ws.draw(masses)
            state.step(idx, -total_mass_C(masses), eta)
        keys = {k for th in thetas for k in th}
        for key in keys:
            dense_avg = sum(th.get(key, 0.0) for th in thetas) / T
            assert result.theta_avg.value(key) == pytest.approx(dense_avg, abs=1e-10)
