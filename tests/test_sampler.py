import time

import numpy as np
import pytest
import scipy.stats

from polymkl import (
    Dataset,
    RhoSchedule,
    build_base_kernels,
    brute_force_q,
    degree_masses,
    sample_multi_index,
)
from polymkl.gradient import DegreeMasses
from polymkl.sampler import _NEG_TOL, SamplerError, SamplerWorkspace, _draw_categorical


def random_instance(n=10, r=3, D=2, seed=0):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=False, D=D)
    rho = RhoSchedule.uniform(D)
    alpha = rng.normal(size=n)
    return alpha, ks, rho


def empirical_distribution(alpha, ks, rho, draws, seed):
    rng = np.random.default_rng(seed)
    ws = SamplerWorkspace(ks, rho, rng)
    masses = degree_masses(alpha, ks, rho)
    counts = {}
    for _ in range(draws):
        idx = ws.draw(alpha, masses)
        counts[idx] = counts.get(idx, 0) + 1
    return counts


class TestHandComputedCases:
    def test_unit_scalar_kernel(self):
        # n=1, single base kernel with K=[1]: both degree masses are 1, so the
        # degree is a fair coin and degree 1 forces the only base index
        data = Dataset(inputs=np.array([[1.0]]), targets=np.array([0.0]))
        ks = build_base_kernels(data, include_constant=False, D=1)
        rho = RhoSchedule.uniform(1)
        alpha = np.array([1.0])
        masses = degree_masses(alpha, ks, rho)
        np.testing.assert_allclose(masses.delta, [1.0, 1.0])
        counts = empirical_distribution(alpha, ks, rho, draws=20000, seed=1)
        assert set(counts) == {(), (1,)}
        assert abs(counts[()] / 20000 - 0.5) < 0.02

    def test_scalar_kernel_two(self):
        # K=[2] tilts the degree draw to 2/3 on degree 1
        data = Dataset(inputs=np.array([[np.sqrt(2.0)]]), targets=np.array([0.0]))
        ks = build_base_kernels(data, include_constant=False, D=1)
        rho = RhoSchedule.uniform(1)
        alpha = np.array([1.0])
        masses = degree_masses(alpha, ks, rho)
        np.testing.assert_allclose(masses.delta, [1.0, 2.0])
        counts = empirical_distribution(alpha, ks, rho, draws=30000, seed=2)
        assert abs(counts[(1,)] / 30000 - 2 / 3) < 0.02


class TestBruteForceQ:
    def test_single_atom(self):
        data = Dataset(inputs=np.array([[1.0], [-1.0]]), targets=np.zeros(2))
        ks = build_base_kernels(data, include_constant=False, D=1)
        alpha = np.array([0.5, -0.5])  # alpha sums to 0: degree-0 mass vanishes
        q = brute_force_q(alpha, ks, RhoSchedule.uniform(1), 1)
        assert q[(1,)] == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        alpha, ks, rho = random_instance(seed=3)
        q = brute_force_q(alpha, ks, rho, 2)
        assert sum(q.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(q) == 13  # 1 + 3 + 9 ordered tuples

    def test_permutation_symmetry(self):
        alpha, ks, rho = random_instance(seed=4)
        q = brute_force_q(alpha, ks, rho, 2)
        for a in range(1, 4):
            for b in range(1, 4):
                assert q[(a, b)] == pytest.approx(q[(b, a)], rel=1e-12)

    def test_degree_sums_match_masses(self):
        alpha, ks, rho = random_instance(seed=5)
        q = brute_force_q(alpha, ks, rho, 2)
        masses = degree_masses(alpha, ks, rho)
        for d in range(3):
            degree_sum = sum(p for idx, p in q.items() if len(idx) == d)
            assert degree_sum == pytest.approx(masses.delta[d] / masses.total, abs=1e-12)

    def test_enumeration_guard(self):
        alpha, ks, rho = random_instance(n=4, r=3, D=2, seed=6)
        with pytest.raises(SamplerError, match="guard"):
            import polymkl.sampler as sampler_mod

            old = sampler_mod.ENUMERATION_GUARD
            sampler_mod.ENUMERATION_GUARD = 5
            try:
                brute_force_q(alpha, ks, rho, 2)
            finally:
                sampler_mod.ENUMERATION_GUARD = old


class TestExactLaw:
    def test_tv_distance_and_chisquare(self):
        # the draw's joint law over ordered tuples must match the enumerated
        # |gradient| distribution: small TV distance and a chi-square
        # goodness-of-fit that is not rejected at 1e-3
        draws = 10**5
        for seed in range(5):
            alpha, ks, rho = random_instance(n=10, r=3, D=2, seed=10 + seed)
            q = brute_force_q(alpha, ks, rho, 2)
            counts = empirical_distribution(alpha, ks, rho, draws, seed=100 + seed)
            tv = 0.5 * sum(abs(counts.get(idx, 0) / draws - p) for idx, p in q.items())
            assert tv <= 0.02, f"instance {seed}: TV {tv}"
            keys = [idx for idx, p in q.items() if p * draws >= 5]
            observed = np.array([counts.get(idx, 0) for idx in keys], dtype=float)
            expected = np.array([q[idx] * draws for idx in keys])
            # fold leftover mass into one bin so totals match
            leftover_obs = draws - observed.sum()
            leftover_exp = draws - expected.sum()
            if leftover_exp > 5:
                observed = np.append(observed, leftover_obs)
                expected = np.append(expected, leftover_exp)
            else:
                observed[-1] += leftover_obs
                expected[-1] += leftover_exp
            stat, pvalue = scipy.stats.chisquare(observed, expected)
            assert pvalue > 1e-3, f"instance {seed}: chi2 p={pvalue}"

    def test_marginal_degree_law(self):
        draws = 10**5
        alpha, ks, rho = random_instance(n=8, r=3, D=2, seed=20)
        masses = degree_masses(alpha, ks, rho)
        counts = empirical_distribution(alpha, ks, rho, draws, seed=21)
        for d in range(3):
            p = masses.delta[d] / masses.total
            freq = sum(c for idx, c in counts.items() if len(idx) == d) / draws
            se = np.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) <= 3 * se + 1e-12

    def test_nonuniform_rho_changes_law(self):
        alpha, ks, _ = random_instance(n=8, r=2, D=2, seed=22)
        flat = brute_force_q(alpha, ks, RhoSchedule.uniform(2), 2)
        tilted = brute_force_q(alpha, ks, RhoSchedule(np.array([1.0, 1.0, 16.0])), 2)
        deg2_flat = sum(p for idx, p in flat.items() if len(idx) == 2)
        deg2_tilted = sum(p for idx, p in tilted.items() if len(idx) == 2)
        assert deg2_tilted < deg2_flat


class TestDeterminismAndCost:
    def test_same_seed_same_sequence(self):
        alpha, ks, rho = random_instance(seed=30)
        a = [sample_multi_index(alpha, ks, rho, np.random.default_rng(7)) for _ in range(20)]
        b = [sample_multi_index(alpha, ks, rho, np.random.default_rng(7)) for _ in range(20)]
        assert a == b

    def test_cost_scales_linearly_in_r(self):
        # coarse wall-clock check with factor-2 slack: doubling r must not
        # much more than double per-draw time
        def per_draw_seconds(r, draws=300):
            alpha, ks, rho = random_instance(n=30, r=r, D=2, seed=31)
            rng = np.random.default_rng(32)
            ws = SamplerWorkspace(ks, rho, rng)
            masses = degree_masses(alpha, ks, rho)
            for _ in range(20):
                ws.draw(alpha, masses)  # warm up
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(draws):
                    ws.draw(alpha, masses)
                best = min(best, time.perf_counter() - start)
            return best / draws

        small = per_draw_seconds(8)
        large = per_draw_seconds(16)
        assert large / small <= 2 * 2.0, f"per-draw ratio {large / small:.2f}"

    def test_zero_mass_rejected(self):
        alpha, ks, rho = random_instance(seed=33)
        with pytest.raises(SamplerError):
            sample_multi_index(np.zeros(ks.n), ks, rho, np.random.default_rng(0))

    def test_inconsistent_degree_masses_raise(self):
        # all mass on degree 2, but twice what the position weights sum to:
        # the telescoping check must raise, also under python -O
        alpha, ks, rho = random_instance(seed=34)
        true = degree_masses(alpha, ks, rho).delta[2]
        bogus = DegreeMasses(delta=np.array([0.0, 0.0, 2.0 * true]), total=2.0 * true)
        with pytest.raises(SamplerError, match="telescoping"):
            sample_multi_index(alpha, ks, rho, np.random.default_rng(0), bogus)


class TestWorkspaceInvariant:
    def test_running_product_matches_factors(self):
        # after the draw, the workspace's running factor must be exactly
        # alpha times the drawn columns, and its outer product must match the
        # running Hadamard product replayed densely from alpha alpha'
        alpha, ks, rho = random_instance(n=6, r=3, D=2, seed=40)
        rng = np.random.default_rng(41)
        ws = SamplerWorkspace(ks, rho, rng)
        for _ in range(50):
            idx = ws.draw(alpha)
            if not idx:
                continue
            u = alpha.copy()
            M = np.outer(alpha, alpha)
            for j in idx:
                u = u * ks.inputs[:, j - 1]
                M = M * ks.kernel(j)
            np.testing.assert_array_equal(ws.u, u)
            np.testing.assert_allclose(np.outer(ws.u, ws.u), M, rtol=1e-12, atol=0)


def draw_categorical_reference(rng, weights, scale):
    """The categorical draw as first written, kept frozen: the draw must stay
    bit-identical to it, index and generator state alike."""
    weights = np.asarray(weights, dtype=np.float64)
    floor = -_NEG_TOL * max(1.0, scale)
    if np.any(weights < floor):
        raise SamplerError(f"negative sampling mass beyond round-off: min={weights.min()}")
    weights = np.maximum(weights, 0.0)
    total = float(weights.sum())
    if total <= 0:
        raise SamplerError("all sampling masses vanished; upstream state is corrupt")
    cumulative = np.cumsum(weights)
    u = rng.random() * total
    return int(np.searchsorted(cumulative, u, side="right").clip(0, len(weights) - 1))


class FixedVariate:
    """A stand-in generator whose every variate is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestCategoricalDrawBitIdentity:
    def random_weights(self, rng, m, kind):
        scale = float(rng.choice([1e-3, 1.0, 1e4]))
        weights = rng.uniform(0.0, scale, size=m) * rng.choice([1.0, 1e-9], size=m)
        if kind == "zeros":
            weights[rng.random(m) < 0.4] = 0.0
        elif kind == "round-off":
            # negatives above the floor -_NEG_TOL * max(1, scale)
            low = rng.random(m) < 0.4
            weights[low] = -rng.uniform(0.0, 0.9, size=low.sum()) * _NEG_TOL * max(1.0, scale)
        if weights.sum() <= 0:
            weights[-1] = scale
        return weights, scale

    @pytest.mark.parametrize("kind", ["plain", "zeros", "round-off"])
    def test_same_index_and_generator_state(self, kind):
        rng = np.random.default_rng(50)
        for m in range(1, 65):
            for _ in range(20):
                weights, scale = self.random_weights(rng, m, kind)
                seed = int(rng.integers(2**32))
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _draw_categorical(ours, weights.copy(), scale)
                assert got == draw_categorical_reference(theirs, weights, scale)
                assert type(got) is int
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_last_index_clamp(self):
        # the cumulative sum of many small weights after a large one stops
        # short of the pairwise total, so a variate near 1 lands past it
        weights = np.array([1.0] + [1e-16] * 63)
        u = (1.0 - 2.0**-53) * float(weights.sum())
        assert np.cumsum(weights).searchsorted(u, side="right") == len(weights)
        rng = FixedVariate(1.0 - 2.0**-53)
        assert _draw_categorical(rng, weights, 1.0) == len(weights) - 1
        assert draw_categorical_reference(rng, weights, 1.0) == len(weights) - 1

    @pytest.mark.parametrize(
        "weights",
        [np.array([0.5, -1e-6, 0.5]), np.zeros(5), np.array([0.0]), np.array([-1e-13, 0.0])],
    )
    def test_still_raises(self, weights):
        for draw in (_draw_categorical, draw_categorical_reference):
            rng = np.random.default_rng(51)
            before = rng.bit_generator.state
            with pytest.raises(SamplerError):
                draw(rng, weights, 1.0)
            assert rng.bit_generator.state == before
